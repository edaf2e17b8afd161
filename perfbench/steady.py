#!/usr/bin/env python3
"""Steadiness check: two sets of repeated runs of one checkout.

Runs the benchmark command from BENCHMARK.json `--runs` times per set and
per workload, each run with its own seed, and reports for every end-to-end
metric the median and quartiles of each set, the spread (interquartile
distance over the median) and whether the two sets agree within the
metric's bound:

* every spread except that of `setup_s` is within the bound;
* the second set's median is not worse than the first's by more than the
  bound (for every metric, `setup_s` too);
* the share of failed operations is the same in both sets.

With `--traced` it also makes one traced run per workload and prints the
tracing overhead: the traced operation median minus the untraced one.

Run from the repository root:

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--traced]
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    opts = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    command = spec["command"]
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]
    workloads = [w["name"] for w in spec["workloads"]]
    if opts.workloads:
        workloads = opts.workloads.split(",")

    # Build (and pay the first compile) before anything is timed.
    run_once(command, workloads[0], opts.first_seed, 1, 0)

    agree = True
    for workload in workloads:
        sets = []
        for k in range(2):
            results = []
            for i in range(opts.runs):
                seed = opts.first_seed + 1000 * k + i
                results.append(run_once(command, workload, seed, seconds, 0))
            sets.append(results)
        print(f"\n{workload}")
        shares = []
        for results in sets:
            attempted = sum(r["attempted"] for r in results)
            failed = sum(r["failed"] for r in results)
            correct = all(r["correct"] for r in results)
            shares.append(failed / attempted)
            print(f"  attempted {attempted} failed {failed} correct {correct}")
            agree &= correct
        if shares[0] != shares[1]:
            print("  failed shares differ between the sets")
            agree = False
        for m in metrics:
            name, bound = m["name"], m["bound"]
            lower = m["better"] == "lower"
            rows = []
            for results in sets:
                values = [r["metrics"][name]["value"] for r in results]
                rows.append(summary(values))
            (_, med1, _, sp1), (_, med2, _, sp2) = rows
            drift = (med2 - med1) / med1 if lower else (med1 - med2) / med1
            ok = drift <= bound
            if name != "setup_s":
                ok &= sp1 <= bound and sp2 <= bound
            agree &= ok
            pooled = summary([r["metrics"][name]["value"]
                              for results in sets for r in results])[3]
            print(f"  {name:16s} bound {bound:.2f}  "
                  + "  ".join(f"set{k + 1} q1 {q1:.4g} med {q2:.4g} q3 {q3:.4g} spread {sp:.3f}"
                              for k, (q1, q2, q3, sp) in enumerate(rows))
                  + f"  pooled spread {pooled:.3f}"
                  + f"  worse-by {drift:+.3f}  {'ok' if ok else 'FAIL'}")
        if opts.traced:
            traced = run_once(command, workload, opts.first_seed, seconds, 1)
            op = traced["metrics"]["trace.op_p50_ms"]["value"]
            base = statistics.median(
                r["metrics"]["latency_p50_ms"]["value"] for r in sets[0])
            print(f"  tracing overhead: traced op {op:.4g} ms vs untraced "
                  f"{base:.4g} ms ({(op - base) / base:+.1%})")
    print("\nthe two sets agree within the bounds" if agree
          else "\nthe two sets do NOT agree within the bounds")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
