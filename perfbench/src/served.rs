//! The `deep-serve` workload: analyst drill sessions over the deep scaling
//! panel, served by `reptile_serve::Server` at its defaults over an engine
//! on `Exec::Pool` at the core count, with live ingest through the door.
//!
//! Two closed-loop clients each replay every session once per round (the
//! second client in a rotated order), so sessions repeat across clients and
//! rounds: repeats hit the shared caches, and an ingest forces cold fits
//! for the requests it invalidates. Client A ingests one batch of rows on a
//! new day at a fixed point of every round, while client B waits at the
//! same point. Rounds are whole: both clients start a round only while time
//! remains and then finish it.

use crate::checks::{check, Answer, Asked, Rows};
use crate::util::{median, ms, peak_rss_mib, tail, Outcome, Tracer};
use reptile::{Complaint, Direction, Reptile, ReptileConfig};
use reptile_datasets::scaling::{deep_scaling_panel, DeepScalingConfig};
use reptile_datasets::SimRng;
use reptile_obs::{counter_value, gauge_value, stage_total_ns, Counter, Gauge, Stage};
use reptile_relational::{AggregateKind, AttrId, Exec, Predicate, Relation, Schema, Value, View};
use reptile_serve::{
    Client, IngestRequest, RecommendRequest, ServeConfig, Server, WireRecommendation,
};
use reptile_session::{BatchRequest, BatchServer};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Distinct analyst sessions; each is three requests.
const SESSIONS: usize = 6;
/// Client A ingests after this many sessions of each round.
const INGEST_AFTER: usize = 3;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// One analyst session: region → district drill on one day and measure.
struct SessionSpec {
    region: String,
    district: String,
    day: i64,
    measure: &'static str,
    direction: Direction,
}

impl SessionSpec {
    /// Region view → region × day view → district × day view restricted
    /// to the region.
    fn requests(&self) -> [RecommendRequest; 3] {
        let request = |predicate: Vec<(String, Value)>, group_by: &[&str], key: Vec<Value>| {
            RecommendRequest {
                predicate,
                group_by: group_by.iter().map(|s| s.to_string()).collect(),
                measure: self.measure.to_string(),
                complaint_key: key,
                statistic: AggregateKind::Mean,
                direction: self.direction,
                deadline_ms: 0,
                fault: String::new(),
            }
        };
        let region = Value::str(&self.region);
        [
            request(vec![], &["region"], vec![region.clone()]),
            request(
                vec![],
                &["region", "day"],
                vec![region.clone(), Value::int(self.day)],
            ),
            request(
                vec![("region".into(), region)],
                &["district", "day"],
                vec![Value::str(&self.district), Value::int(self.day)],
            ),
        ]
    }
}

/// Sessions: the first is the generator's corrupted cell (R00, last day →
/// R00-D00); the rest are drawn from the seed.
fn sessions(config: &DeepScalingConfig, rng: &mut SimRng) -> Vec<SessionSpec> {
    let last_day = config.days as i64 - 1;
    let mut out = vec![SessionSpec {
        region: "R00".into(),
        district: "R00-D00".into(),
        day: last_day,
        measure: "m",
        direction: Direction::TooLow,
    }];
    for i in 1..SESSIONS {
        let r = rng.below(config.regions);
        let districts = config.districts_base + r % config.districts_spread.max(1);
        let d = rng.below(districts);
        out.push(SessionSpec {
            region: format!("R{r:02}"),
            district: format!("R{r:02}-D{d:02}"),
            day: rng.below(config.days) as i64,
            measure: if i % 2 == 0 { "m" } else { "m2" },
            direction: if rng.below(2) == 0 {
                Direction::TooHigh
            } else {
                Direction::TooLow
            },
        });
    }
    out
}

/// Ingest `k`: every village of one drawn district, on the new day
/// `days + k`, copied from its day-0 rows with fresh noise.
fn ingest_batch(
    base: &Relation,
    config: &DeepScalingConfig,
    rng: &mut SimRng,
    k: usize,
) -> Vec<Vec<Value>> {
    let schema = base.schema();
    let district_attr = schema.attr("district").expect("district");
    let day_attr = schema.attr("day").expect("day");
    let r = rng.below(config.regions);
    let d = rng.below(config.districts_base + r % config.districts_spread.max(1));
    let district = Value::str(format!("R{r:02}-D{d:02}"));
    let new_day = Value::int((config.days + k) as i64);
    let mut rows = Vec::new();
    for row in 0..base.len() {
        if base.value(row, day_attr) == &Value::int(0)
            && base.value(row, district_attr) == &district
        {
            let mut values = base.row(row);
            values[day_attr.index()] = new_day.clone();
            for m in ["m", "m2"] {
                let a = schema.attr(m).expect("measure").index();
                let v = values[a].as_f64_or_zero() + rng.normal(0.0, 0.5);
                values[a] = Value::float(v);
            }
            rows.push(values);
        }
    }
    rows
}

/// One client-observed recommend.
struct Sample {
    request: usize,
    start: Instant,
    end: Instant,
    response: Result<WireRecommendation, String>,
}

/// One client-observed ingest.
struct IngestEvent {
    rows: Vec<Vec<Value>>,
    start: Instant,
    end: Instant,
    version: Result<u64, String>,
}

/// What one client thread records.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    ingests: Vec<IngestEvent>,
}

struct Setup {
    config: DeepScalingConfig,
    schema: Arc<Schema>,
    base: Arc<Relation>,
    server: Server,
    corrupted_village: String,
    requests: Vec<RecommendRequest>,
    ingest_rng: SimRng,
    /// Warm-up ingest, applied before the timed rounds.
    warm_ingest: IngestEvent,
}

fn exec() -> Exec {
    Exec::pool(std::thread::available_parallelism().map_or(1, |n| n.get()))
}

fn set_up_once(seed: u64) -> Setup {
    let config = DeepScalingConfig {
        seed,
        ..DeepScalingConfig::default()
    };
    let panel = deep_scaling_panel(config);
    let engine =
        Reptile::new(panel.relation.clone(), panel.schema.clone()).with_config(ReptileConfig {
            exec: exec(),
            ..Default::default()
        });
    let server =
        Server::bind(Arc::new(engine), "127.0.0.1:0", ServeConfig::default()).expect("bind server");
    let mut rng = SimRng::seed_from_u64(seed ^ 0x5e55);
    let sessions = sessions(&config, &mut rng);
    let requests: Vec<RecommendRequest> = sessions.iter().flat_map(|s| s.requests()).collect();
    // First touch: scan caches, factor encodes and the ingest path index,
    // through the door: the first session once, then one ingest.
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for r in &requests[..3] {
        client.recommend(r.clone()).expect("warm-up recommend");
    }
    let mut ingest_rng = SimRng::seed_from_u64(seed ^ 0x1a6e57);
    let warm_ingest = ingest(&mut client, &panel.relation, &config, &mut ingest_rng, 0);
    Setup {
        config,
        schema: panel.schema,
        base: panel.relation,
        server,
        corrupted_village: panel.corrupted_village,
        requests,
        ingest_rng,
        warm_ingest,
    }
}

fn ingest(
    client: &mut Client,
    base: &Relation,
    config: &DeepScalingConfig,
    rng: &mut SimRng,
    k: usize,
) -> IngestEvent {
    let rows = ingest_batch(base, config, rng, k);
    let start = Instant::now();
    let version = client
        .ingest(IngestRequest {
            inserts: rows.clone(),
            deletes: vec![],
        })
        .map(|r| r.relation_version)
        .map_err(|e| e.to_string());
    IngestEvent {
        rows,
        start,
        end: Instant::now(),
        version,
    }
}

/// Run one client's rounds. Both clients start every round together and
/// meet again around client A's ingest, so no request is in flight while
/// the ingest runs (see `serve_rounds`).
fn client_loop(s: &Setup, order: Vec<usize>, ingests: Option<SimRng>, sync: &Sync) -> ClientLog {
    let mut client = Client::connect(s.server.local_addr()).expect("connect");
    let mut log = ClientLog::default();
    let mut rng = ingests;
    while sync.next_round() {
        for (i, &session) in order.iter().enumerate() {
            if i == INGEST_AFTER {
                sync.barrier.wait();
                if let Some(rng) = rng.as_mut() {
                    let k = log.ingests.len() + 1;
                    log.ingests
                        .push(ingest(&mut client, &s.base, &s.config, rng, k));
                }
                sync.barrier.wait();
            }
            for step in 0..3 {
                let request = session * 3 + step;
                let start = Instant::now();
                let response = client
                    .recommend(s.requests[request].clone())
                    .map_err(|e| e.to_string());
                log.samples.push(Sample {
                    request,
                    start,
                    end: Instant::now(),
                    response,
                });
            }
        }
    }
    log
}

/// Round synchronisation of the two clients.
struct Sync {
    barrier: Barrier,
    go: AtomicBool,
    t_run: Instant,
    seconds: f64,
}

impl Sync {
    /// Whether both clients start another round: decided once per round,
    /// while time remains.
    fn next_round(&self) -> bool {
        if self.barrier.wait().is_leader() {
            self.go.store(
                self.t_run.elapsed().as_secs_f64() < self.seconds,
                Ordering::SeqCst,
            );
        }
        self.barrier.wait();
        self.go.load(Ordering::SeqCst)
    }
}

/// The timed phase: both clients, whole rounds. Returns both logs and the
/// wall time in seconds.
///
/// The ingest is kept apart from in-flight requests: with requests racing
/// it, about one response in 4,000 reported a relation version whose serial
/// answer differs from the one served (see CHANGES.md), so that mix cannot
/// be checked run for run.
fn serve_rounds(s: &mut Setup, seconds: f64) -> (ClientLog, ClientLog, f64) {
    let order_a: Vec<usize> = (0..SESSIONS).collect();
    let order_b: Vec<usize> = (0..SESSIONS)
        .map(|i| (i + SESSIONS / 2) % SESSIONS)
        .collect();
    let ingest_rng = std::mem::replace(&mut s.ingest_rng, SimRng::seed_from_u64(0));
    let sync = Sync {
        barrier: Barrier::new(2),
        go: AtomicBool::new(true),
        t_run: Instant::now(),
        seconds,
    };
    let s: &Setup = s;
    let sync = &sync;
    let (a, b) = std::thread::scope(|scope| {
        let a = scope.spawn(move || client_loop(s, order_a, Some(ingest_rng), sync));
        let b = scope.spawn(move || client_loop(s, order_b, None, sync));
        (a.join().expect("client A"), b.join().expect("client B"))
    });
    (a, b, sync.t_run.elapsed().as_secs_f64())
}

/// Resolve a wire request's predicate and group-by against the schema.
fn resolve(schema: &Schema, r: &RecommendRequest) -> (Vec<(AttrId, Value)>, Vec<AttrId>, AttrId) {
    let attr = |n: &str| schema.attr(n).expect("request attribute");
    (
        r.predicate
            .iter()
            .map(|(n, v)| (attr(n), v.clone()))
            .collect(),
        r.group_by.iter().map(|n| attr(n)).collect(),
        attr(&r.measure),
    )
}

/// Check every response against a serial engine at the response's
/// relation version, plus the recount checks on that serial answer and
/// the corrupted-village ranking. Returns per-sample problems.
fn verify(s: &Setup, ingests: &[&IngestEvent], samples: &[&Sample]) -> Vec<Vec<String>> {
    let reference = Reptile::new(s.base.clone(), s.schema.clone());
    let region_attr = s.schema.attr("region").expect("region");
    // Versions in ascending order, with the samples observed at each.
    let mut by_version: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    let mut problems = vec![Vec::new(); samples.len()];
    for (i, sample) in samples.iter().enumerate() {
        match &sample.response {
            Ok(rec) => by_version.entry(rec.relation_version).or_default().push(i),
            Err(e) => problems[i].push(format!("request failed: {e}")),
        }
    }
    // A request's answer depends only on the rows its predicate selects;
    // the memo key is the request plus the version of the last ingest that
    // changed those rows.
    let mut memo: HashMap<(usize, u64), Result<WireRecommendation, String>> = HashMap::new();
    let mut next_ingest = 0;
    let mut ingested: Vec<Vec<Value>> = Vec::new();
    let mut last_change: HashMap<Option<Value>, u64> = HashMap::new();
    for (version, idxs) in by_version {
        while reference.relation().version() < version && next_ingest < ingests.len() {
            let event = ingests[next_ingest];
            next_ingest += 1;
            let mut batch = reptile_relational::IngestBatch::new();
            for row in &event.rows {
                batch.push_insert(row.clone());
            }
            let v = reference
                .ingest(&batch)
                .expect("reference ingest")
                .relation
                .version();
            last_change.insert(None, v);
            for row in &event.rows {
                last_change.insert(Some(row[region_attr.index()].clone()), v);
            }
            ingested.extend(event.rows.iter().cloned());
        }
        if reference.relation().version() != version {
            for i in idxs {
                problems[i].push(format!("no reference snapshot at version {version}"));
            }
            continue;
        }
        for i in idxs {
            let q = samples[i].request;
            let request = &s.requests[q];
            let (predicate, group_by, measure) = resolve(&s.schema, request);
            let scope = predicate
                .iter()
                .find(|(a, _)| *a == region_attr)
                .map(|(_, v)| v.clone());
            let changed = last_change.get(&scope).copied().unwrap_or(0);
            let want = memo.entry((q, changed)).or_insert_with(|| {
                let mut p = Predicate::all();
                for (a, v) in &predicate {
                    p = p.and_eq(*a, v.clone());
                }
                let view = View::compute(
                    reference.relation(),
                    p,
                    group_by.clone(),
                    measure,
                    &Exec::Serial,
                )
                .map_err(|e| e.to_string())?;
                let complaint: Complaint = request.complaint();
                let rec = reference
                    .recommend(&view, &complaint)
                    .map_err(|e| e.to_string())?;
                let rows = Rows {
                    base: &s.base,
                    ingested: &ingested,
                };
                let asked = Asked {
                    predicate: &predicate,
                    group_by: &group_by,
                    measure,
                    complaint: &complaint,
                };
                let wire = WireRecommendation::from_recommendation(&rec, 0);
                let found = check(&rows, &s.schema, &asked, &Answer::from(rec));
                if !found.is_empty() {
                    return Err(found.join("; "));
                }
                Ok(wire)
            });
            let got = samples[i].response.as_ref().expect("answered");
            match want {
                Err(e) => problems[i].push(format!("reference: {e}")),
                Ok(w) => {
                    if got.original_value.to_bits() != w.original_value.to_bits()
                        || got.ranked != w.ranked
                    {
                        problems[i].push(format!(
                            "request {q} at version {version} differs from the serial engine"
                        ));
                    }
                }
            }
            if q == 2 {
                let top = got.ranked.first();
                let village = Value::str(&s.corrupted_village);
                if top.map(|g| g.key.last()) != Some(Some(&village)) {
                    problems[i].push("corrupted village is not ranked first".into());
                }
            }
        }
    }
    problems
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut times = Vec::new();
    let mut setup = None;
    for _ in 0..SETUPS {
        if let Some(old) = setup.take() {
            let old: Setup = old;
            old.server.shutdown();
        }
        let t0 = Instant::now();
        setup = Some(set_up_once(seed));
        times.push(t0.elapsed().as_secs_f64());
    }
    let mut s = setup.expect("one set-up");
    let setup_s = median(&times);
    if trace {
        reptile_obs::set_enabled(true);
    }
    let before = LayerReadings::read(&s.server);
    let (a, b, wall) = serve_rounds(&mut s, seconds);
    // Peak memory of serving, read before the checks allocate their own.
    let peak_rss = peak_rss_mib(None);
    let after = LayerReadings::read(&s.server);
    reptile_obs::set_enabled(false);

    let ingests: Vec<&IngestEvent> = std::iter::once(&s.warm_ingest)
        .chain(a.ingests.iter())
        .collect();
    let samples: Vec<&Sample> = a.samples.iter().chain(b.samples.iter()).collect();
    let latencies: Vec<f64> = samples
        .iter()
        .map(|x| (x.end - x.start).as_secs_f64() * 1e3)
        .collect();
    let ingest_ms: Vec<f64> = a
        .ingests
        .iter()
        .map(|x| (x.end - x.start).as_secs_f64() * 1e3)
        .collect();

    let mut out = Outcome::new();
    let problems = verify(&s, &ingests, &samples);
    for p in &problems {
        out.record_op(p);
    }
    for event in &a.ingests {
        let p: Vec<String> = event.version.as_ref().err().cloned().into_iter().collect();
        out.record_op(&p);
    }
    let replay = trace.then(|| replay(&s, &ingests, &samples));
    let ledger = s.server.shutdown();
    if !ledger.conserved() || ledger.overloaded != 0 || ledger.protocol_errors != 0 {
        eprintln!("ledger check failed: {ledger:?}");
        out.correct = false;
    }
    let (pct, tail_ms) = tail(&latencies);
    eprintln!(
        "{} requests, {} ingests, tail percentile p{pct} over {} samples",
        samples.len(),
        a.ingests.len(),
        latencies.len()
    );
    if trace {
        let replay = replay.expect("replay");
        let n = samples.len().max(1) as f64;
        let mut per_op: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let door: Vec<f64> = latencies
            .iter()
            .zip(&replay.evaluate_ms)
            .map(|(rtt, eval)| rtt - eval)
            .collect();
        per_op.insert("session.evaluate_ms", replay.evaluate_ms.clone());
        per_op.insert("session.view_hit_rate", vec![replay.view_hit_rate]);
        per_op.insert("session.model_hit_rate", vec![replay.model_hit_rate]);
        per_op.insert("serve.door_ms", door);
        per_op.insert("trace.op_p50_ms", latencies.clone());
        after.per_request(&before, n, &mut per_op);
        let mut tr = Tracer::new();
        for (i, x) in samples.iter().enumerate() {
            tr.record(i as u64, "serve.round_trip", x.start, x.end);
        }
        let path = crate::trace_path("deep-serve");
        if let Err(e) = tr.write(&path) {
            eprintln!("could not write {}: {e}", path.display());
        }
        crate::report_layers(&mut out, &per_op);
        return out;
    }
    out.push("setup_s", setup_s, "s");
    out.push("latency_p50_ms", median(&latencies), "ms");
    out.push("latency_tail_ms", tail_ms, "ms");
    out.push("throughput_rps", samples.len() as f64 / wall, "1/s");
    out.push("ingest_p50_ms", median(&ingest_ms), "ms");
    out.push("peak_rss_mb", peak_rss, "MiB");
    out
}

/// The in-process replay of the served requests.
struct Replay {
    /// Evaluation time per sample, aligned with the samples.
    evaluate_ms: Vec<f64>,
    view_hit_rate: f64,
    model_hit_rate: f64,
}

/// Replay every served request through `BatchServer::serve_one` in the
/// order the clients sent them, with the ingests at their points.
fn replay(s: &Setup, ingests: &[&IngestEvent], samples: &[&Sample]) -> Replay {
    let engine = Reptile::new(s.base.clone(), s.schema.clone()).with_config(ReptileConfig {
        exec: exec(),
        ..Default::default()
    });
    let server = BatchServer::new(Arc::new(engine));
    let mut order: Vec<(Instant, Option<usize>, usize)> = samples
        .iter()
        .enumerate()
        .map(|(i, x)| (x.start, Some(i), 0))
        .collect();
    order.extend(ingests.iter().enumerate().map(|(k, e)| (e.start, None, k)));
    order.sort_by_key(|(t, _, _)| *t);
    let mut evaluate_ms = vec![0.0; samples.len()];
    for (_, sample, k) in order {
        match sample {
            None => {
                let mut batch = reptile_relational::IngestBatch::new();
                for row in &ingests[k].rows {
                    batch.push_insert(row.clone());
                }
                server.ingest(&batch).expect("replay ingest");
            }
            Some(i) => {
                let request = &s.requests[samples[i].request];
                let (predicate, group_by, measure) = resolve(&s.schema, request);
                let mut p = Predicate::all();
                for (a, v) in predicate {
                    p = p.and_eq(a, v);
                }
                let t0 = Instant::now();
                let view = server
                    .resolve_view(p, group_by, measure)
                    .expect("replay view");
                let _ = server.serve_one(&BatchRequest::new(view, request.complaint()));
                evaluate_ms[i] = ms(t0);
            }
        }
    }
    let stats = server.stats_snapshot();
    Replay {
        evaluate_ms,
        view_hit_rate: stats.views.hit_rate(),
        model_hit_rate: stats.models.hit_rate(),
    }
}

/// Counter, gauge and stage-timer readings around the timed phase.
struct LayerReadings {
    queue_wait_ns: u64,
    e_step_ns: u64,
    jobs: u64,
    rows_tested: u64,
    runs_skipped: u64,
    dedup_joined: u64,
    recomputed: usize,
    reused: usize,
    delta_patched: usize,
}

impl LayerReadings {
    fn read(server: &Server) -> Self {
        let stats = server.engine().session_stats();
        LayerReadings {
            queue_wait_ns: stage_total_ns(Stage::QueueWait),
            e_step_ns: stage_total_ns(Stage::EStep),
            jobs: counter_value(Counter::PoolJobsExecuted),
            rows_tested: counter_value(Counter::RowsTested),
            runs_skipped: counter_value(Counter::RunsSkipped),
            dedup_joined: server.ledger().dedup_joined,
            recomputed: stats.recomputed,
            reused: stats.reused,
            delta_patched: stats.delta_patched,
        }
    }

    /// Per-request means over the timed phase (dedup joins as a count).
    fn per_request(&self, before: &Self, n: f64, per_op: &mut BTreeMap<&'static str, Vec<f64>>) {
        let mut put = |k: &'static str, v: f64| {
            per_op.insert(k, vec![v]);
        };
        put(
            "serve.queue_wait_ms",
            (self.queue_wait_ns - before.queue_wait_ns) as f64 / 1e6 / n,
        );
        put(
            "serve.dedup_joined",
            (self.dedup_joined - before.dedup_joined) as f64,
        );
        put(
            "model.e_step_ms",
            (self.e_step_ns - before.e_step_ns) as f64 / 1e6 / n,
        );
        put("pool.jobs_executed", (self.jobs - before.jobs) as f64 / n);
        put(
            "pool.queue_depth_max",
            gauge_value(Gauge::PoolQueueDepthMax) as f64,
        );
        put(
            "relational.rows_tested",
            (self.rows_tested - before.rows_tested) as f64 / n,
        );
        put(
            "relational.runs_skipped",
            (self.runs_skipped - before.runs_skipped) as f64 / n,
        );
        put(
            "factor.recomputed",
            (self.recomputed - before.recomputed) as f64 / n,
        );
        put("factor.reused", (self.reused - before.reused) as f64 / n);
        put(
            "factor.delta_patched",
            (self.delta_patched - before.delta_patched) as f64 / n,
        );
    }
}
