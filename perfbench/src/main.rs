//! Benchmark of the Reptile drill-down loop (complaint → view → design →
//! EM fit → ranked groups), end to end and per layer.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `absentee-fig10`, `compas-fig10`, `deep-serve`,
//! `absentee-remote`. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! `perfbench --worker` runs one `reptile-wire` worker process (the remote
//! workload starts two of them on loopback sockets).

mod checks;
mod fig10;
mod served;
mod util;

use std::collections::BTreeMap;
use std::process::ExitCode;
use util::{median, Outcome};

/// Every per-layer metric the traced mode prints, with its unit. A layer a
/// workload does not cross reads 0 there.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("relational.view_ms", "ms"),
    ("relational.drill_ms", "ms"),
    ("relational.parallel_view_ms", "ms"),
    ("relational.rows_tested", "count"),
    ("relational.runs_skipped", "count"),
    ("factor.aggregates_ms", "ms"),
    ("factor.recomputed", "count"),
    ("factor.reused", "count"),
    ("factor.delta_patched", "count"),
    ("model.design_ms", "ms"),
    ("model.fit_ms", "ms"),
    ("model.e_step_ms", "ms"),
    ("model.predict_ms", "ms"),
    ("model.design_rows", "count"),
    ("core.recommend_ms", "ms"),
    ("core.score_ms", "ms"),
    ("core.unattributed_ms", "ms"),
    ("session.evaluate_ms", "ms"),
    ("session.view_hit_rate", "ratio"),
    ("session.model_hit_rate", "ratio"),
    ("serve.door_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.dedup_joined", "count"),
    ("pool.jobs_executed", "count"),
    ("pool.queue_depth_max", "count"),
    ("wire.rpcs", "count"),
    ("wire.bytes_shipped", "bytes"),
    ("wire.fallbacks", "count"),
    ("wire.overlapped_merges", "count"),
    ("wire.e_step_partials", "count"),
    ("wire.remote_merge_ms", "ms"),
    ("trace.op_p50_ms", "ms"),
];

/// Report each per-layer metric as the median over operations of its
/// per-operation value.
pub fn report_layers(out: &mut Outcome, per_op: &BTreeMap<&'static str, Vec<f64>>) {
    for (name, unit) in LAYER_METRICS {
        let value = per_op.get(name).map_or(0.0, |v| median(v));
        out.push(name, value, unit);
    }
}

/// Where a traced run writes its spans, one JSON object a line.
pub fn trace_path(workload: &str) -> std::path::PathBuf {
    std::path::PathBuf::from(format!("perfbench/out/trace-{workload}.jsonl"))
}

fn worker() -> ExitCode {
    let listener = match std::net::TcpListener::bind("127.0.0.1:0") {
        Ok(l) => l,
        Err(e) => {
            eprintln!("worker bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    match listener.local_addr() {
        Ok(addr) => println!("listening on {addr}"),
        Err(e) => {
            eprintln!("worker address: {e}");
            return ExitCode::FAILURE;
        }
    }
    match reptile_wire::worker::serve(listener) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("worker failed: {e}");
            ExitCode::FAILURE
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--worker") {
        return worker();
    }
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} threads_available {}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let out = match args.workload.as_str() {
        "absentee-fig10" => fig10::run(fig10::Kind::Absentee, args.seed, args.seconds, args.trace),
        "compas-fig10" => fig10::run(fig10::Kind::Compas, args.seed, args.seconds, args.trace),
        "absentee-remote" => fig10::run(
            fig10::Kind::AbsenteeRemote,
            args.seed,
            args.seconds,
            args.trace,
        ),
        "deep-serve" => served::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    println!("{}", out.json());
    ExitCode::SUCCESS
}
