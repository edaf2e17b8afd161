//! The three Fig. 10 workloads: drill sequences of cold recommendations on
//! paper-scale Absentee (COUNT) and COMPAS (MEAN), in process under
//! `Exec::Serial`, and the Absentee sequences under `Exec::Remote` over two
//! worker processes.
//!
//! One operation is one drill sequence: for each prefix of the drill order,
//! compute the view grouped by that prefix and ask `Reptile::recommend` to
//! explain a complaint against the chain's tuple. Every sequence uses its
//! own complaint chain. Between sequences, `INGESTS` batches of late rows
//! on existing paths, spread evenly over the run, are ingested into a
//! second engine over the same relation and timed, so the sequences always
//! read one snapshot.

use crate::checks::{check, same_answer, Answer, Asked, Rows};
use crate::util::{median, ms, peak_rss_mib, tail, Outcome, Tracer};
use reptile::{Complaint, Direction, Recommendation, Reptile, ReptileConfig, ScoredGroup};
use reptile_datasets::{absentee, compas, SimRng};
use reptile_factor::{
    AggregateSource, DecomposedAggregates, DrilldownMode, DrilldownSession, EncodedAggregates,
    EncodedFactorization, FactorBackend, Factorization,
};
use reptile_model::{
    DesignBuilder, EmptyGroupPolicy, FeaturePlan, MultilevelConfig, MultilevelModel,
    TrainingBackend, TrainingDesign,
};
use reptile_obs::{counter_value, gauge_value, stage_total_ns, Counter, Gauge, Stage};
use reptile_relational::{
    AggregateKind, AttrId, Exec, GroupKey, IngestBatch, Predicate, Relation, Remote, Schema, Value,
    View,
};
use reptile_session::SessionCaches;
use reptile_wire::WorkerSet;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which Fig. 10 workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Absentee,
    Compas,
    AbsenteeRemote,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Absentee => "absentee-fig10",
            Kind::Compas => "compas-fig10",
            Kind::AbsenteeRemote => "absentee-remote",
        }
    }
}

/// Late rows per ingest batch.
const INGEST_ROWS: usize = 16;
/// Timed ingests per run.
const INGESTS: usize = 24;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// A generated dataset and the drill order its sequences follow.
struct Dataset {
    schema: Arc<Schema>,
    base: Arc<Relation>,
    drill: Vec<AttrId>,
    measure: AttrId,
    statistic: AggregateKind,
}

fn generate(kind: Kind, seed: u64) -> Dataset {
    match kind {
        Kind::Absentee | Kind::AbsenteeRemote => {
            let (schema, base) = absentee::generate(absentee::AbsenteeConfig {
                seed,
                ..absentee::AbsenteeConfig::paper_scale()
            });
            let drill = ["county", "party", "week"].map(|a| schema.attr(a).expect("absentee attr"));
            Dataset {
                measure: schema.attr("ballots").expect("ballots"),
                drill: drill.to_vec(),
                schema,
                base,
                statistic: AggregateKind::Count,
            }
        }
        Kind::Compas => {
            let (schema, base) = compas::generate(compas::CompasConfig {
                seed,
                ..compas::CompasConfig::paper_scale()
            });
            let drill = ["year", "month", "age_range", "race"]
                .map(|a| schema.attr(a).expect("compas attr"));
            Dataset {
                measure: schema.attr("score").expect("score"),
                drill: drill.to_vec(),
                schema,
                base,
                statistic: AggregateKind::Mean,
            }
        }
    }
}

/// Two worker processes on loopback sockets, shut down and reaped on drop.
pub struct Fleet {
    pub set: Arc<WorkerSet>,
    children: Vec<Child>,
}

impl Fleet {
    pub fn start(n: usize) -> Fleet {
        let exe = std::env::current_exe().expect("benchmark executable path");
        let mut children = Vec::new();
        let mut addrs = Vec::new();
        for _ in 0..n {
            let mut child = Command::new(&exe)
                .arg("--worker")
                .stdout(Stdio::piped())
                .spawn()
                .expect("start worker process");
            let mut line = String::new();
            BufReader::new(child.stdout.take().expect("worker stdout"))
                .read_line(&mut line)
                .expect("read worker address");
            let addr = line
                .trim()
                .strip_prefix("listening on ")
                .unwrap_or_else(|| panic!("unexpected worker banner {line:?}"))
                .to_string();
            addrs.push(addr);
            children.push(child);
        }
        let set = WorkerSet::connect(&addrs).expect("connect workers");
        Fleet { set, children }
    }

    /// Summed peak resident memory of the workers, MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        self.children
            .iter()
            .map(|c| peak_rss_mib(Some(c.id())))
            .sum()
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        let _ = self.set.shutdown();
        for child in &mut self.children {
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5))
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
        }
    }
}

/// One complaint chain: the tuple values along the drill order and the
/// complaint direction.
struct Chain {
    values: Vec<Value>,
    direction: Direction,
}

fn draw_chain(data: &Dataset, rng: &mut SimRng) -> Chain {
    let row = rng.below(data.base.len());
    Chain {
        values: data
            .drill
            .iter()
            .map(|a| data.base.value(row, *a).clone())
            .collect(),
        direction: if rng.below(2) == 0 {
            Direction::TooHigh
        } else {
            Direction::TooLow
        },
    }
}

/// Everything one set-up builds.
struct Env {
    data: Dataset,
    exec: Exec,
    engine: Reptile,
    /// Serial engine the remote results must match bit for bit, with a
    /// session cache: Fig. 10 models do not depend on the complaint, so
    /// after the first sequence a reference sequence costs its drill views.
    reference: Option<(Reptile, SessionCaches)>,
    /// Rows ingested into `engine` since generation, in order.
    ingested: Vec<Vec<Value>>,
    /// Engine over the same generated relation that takes the timed
    /// ingests.
    side: Reptile,
    /// Drill-down session of the traced replica.
    replica: DrilldownSession,
    fleet: Option<Fleet>,
    ingest_rng: SimRng,
}

impl Env {
    fn build(kind: Kind, seed: u64) -> Env {
        let data = generate(kind, seed);
        let fleet = (kind == Kind::AbsenteeRemote).then(|| Fleet::start(2));
        let exec = match &fleet {
            Some(f) => Exec::Remote(Remote::new(f.set.clone())),
            None => Exec::Serial,
        };
        let config = ReptileConfig {
            exec: exec.clone(),
            ..Default::default()
        };
        let engine =
            Reptile::new(data.base.clone(), data.schema.clone()).with_config(config.clone());
        let side = Reptile::new(data.base.clone(), data.schema.clone()).with_config(config);
        let reference = fleet.is_some().then(|| {
            (
                Reptile::new(data.base.clone(), data.schema.clone()),
                SessionCaches::new(),
            )
        });
        let mut replica = DrilldownSession::new(DrilldownMode::CachedDynamic);
        replica.set_exec(exec.clone());
        Env {
            data,
            exec,
            engine,
            reference,
            ingested: Vec::new(),
            side,
            replica,
            fleet,
            ingest_rng: SimRng::seed_from_u64(seed ^ 0x1a6e57),
        }
    }

    fn complaint(&self, chain: &Chain, depth: usize) -> Complaint {
        Complaint::new(
            GroupKey(chain.values[..depth].to_vec()),
            self.data.statistic,
            chain.direction,
        )
    }

    fn view(&self, relation: Arc<Relation>, depth: usize, exec: &Exec) -> View {
        View::compute(
            relation,
            Predicate::all(),
            self.data.drill[..depth].to_vec(),
            self.data.measure,
            exec,
        )
        .expect("step view")
    }

    /// One untraced drill sequence; per-step milliseconds and results.
    fn sequence(&self, chain: &Chain) -> (Vec<f64>, Vec<Answer>) {
        let mut steps = Vec::new();
        let mut recs = Vec::new();
        for depth in 1..=self.data.drill.len() {
            let t0 = Instant::now();
            let view = self.view(self.engine.relation(), depth, &self.exec);
            let rec = self
                .engine
                .recommend(&view, &self.complaint(chain, depth))
                .expect("recommend");
            steps.push(ms(t0));
            recs.push(Answer::from(rec));
        }
        (steps, recs)
    }

    /// Ship the EM state of every design a sequence fits to the workers,
    /// with a one-iteration fit of each. The state is keyed by content and
    /// Fig. 10 designs do not depend on the complaint, so the timed
    /// sequences find it shipped.
    fn ship_em_states(&mut self) {
        let relation = self.engine.relation();
        let em = MultilevelConfig {
            iterations: 1,
            ..Default::default()
        };
        for depth in 1..=self.data.drill.len() {
            let view = self.view(relation.clone(), depth, &self.exec);
            for h in self.data.schema.hierarchies() {
                if h.next_level(view.group_by()).is_none() {
                    continue;
                }
                let parallel = view
                    .drill_down_parallel(h, &self.exec)
                    .expect("parallel view")
                    .view;
                let design = build_design(
                    &parallel,
                    &self.data.schema,
                    self.data.statistic,
                    &self.exec,
                    &mut self.replica,
                );
                MultilevelModel::fit_exec(&design, em, TrainingBackend::Factorized, &self.exec)
                    .expect("one-iteration fit");
            }
        }
    }

    /// Late rows on existing paths: copies of random generated rows, with a
    /// fresh score on COMPAS.
    fn ingest_batch(&mut self) -> IngestBatch {
        let mut batch = IngestBatch::new();
        for _ in 0..INGEST_ROWS {
            let r = self.ingest_rng.below(self.data.base.len());
            let mut row = self.data.base.row(r);
            if self.data.statistic == AggregateKind::Mean {
                row[self.data.measure.index()] =
                    Value::float(1.0 + self.ingest_rng.below(10) as f64);
            }
            batch.push_insert(row);
        }
        batch
    }

    /// Ingest one batch into the engine and the reference.
    fn ingest(&mut self) {
        let batch = self.ingest_batch();
        self.engine.ingest(&batch).expect("ingest");
        if let Some((reference, caches)) = &self.reference {
            let report = reference.ingest(&batch).expect("reference ingest");
            caches.invalidate_ingest(&report);
        }
        self.ingested.extend(batch.inserts().iter().cloned());
    }

    /// Ingest one batch into the side engine; milliseconds taken.
    fn side_ingest(&mut self) -> f64 {
        let batch = self.ingest_batch();
        let t0 = Instant::now();
        self.side.ingest(&batch).expect("side ingest");
        ms(t0)
    }

    /// The output checks of one step.
    fn check(&self, depth: usize, chain: &Chain, rec: &Answer) -> Vec<String> {
        let complaint = self.complaint(chain, depth);
        let rows = Rows {
            base: &self.data.base,
            ingested: &self.ingested,
        };
        let asked = Asked {
            predicate: &[],
            group_by: &self.data.drill[..depth],
            measure: self.data.measure,
            complaint: &complaint,
        };
        check(&rows, &self.data.schema, &asked, rec)
    }

    /// The serial reference's recommendation for the same step.
    fn reference_rec(&self, depth: usize, chain: &Chain) -> Option<Answer> {
        let (reference, caches) = self.reference.as_ref()?;
        let view = self.view(reference.relation(), depth, &Exec::Serial);
        Some(
            reference
                .recommend_with_cache(&view, &self.complaint(chain, depth), caches)
                .expect("reference recommend")
                .into(),
        )
    }
}

/// Set up `SETUPS` times (generation, fleet, warm-up) and keep the last.
fn set_up(kind: Kind, seed: u64) -> (Env, f64) {
    let mut times = Vec::new();
    let mut env = None;
    for _ in 0..SETUPS {
        drop(env.take());
        let t0 = Instant::now();
        let mut e = Env::build(kind, seed);
        // First touch: the ingest path indexes (one ingest into each
        // engine), then scan
        // caches, factor encodes and shipping of the relation and factors
        // (the first step of a chain of its own: every column and every
        // hierarchy's factor is touched there), then the EM state of every
        // design the sequences fit.
        e.ingest();
        e.side_ingest();
        let mut rng = SimRng::seed_from_u64(seed ^ 0x5e7u64);
        let chain = draw_chain(&e.data, &mut rng);
        let view = e.view(e.engine.relation(), 1, &e.exec);
        e.engine
            .recommend(&view, &e.complaint(&chain, 1))
            .expect("warm-up recommend");
        if e.fleet.is_some() {
            e.ship_em_states();
        }
        times.push(t0.elapsed().as_secs_f64());
        env = Some(e);
    }
    (env.expect("one set-up"), median(&times))
}

pub fn run(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let (mut env, setup_s) = set_up(kind, seed);
    let mut out = Outcome::new();
    let mut chains = SimRng::seed_from_u64(seed ^ 0xc4a1);
    if trace {
        traced(kind, &mut env, seed, &mut chains, seconds, &mut out);
        return out;
    }
    let mut seq_ms = Vec::new();
    let mut ingest_ms = Vec::new();
    let mut rates = Vec::new();
    let mut shipped = Vec::new();
    let mut done = Vec::new();
    let t_run = Instant::now();
    while t_run.elapsed().as_secs_f64() < seconds {
        let chain = draw_chain(&env.data, &mut chains);
        let bytes0 = counter_value(Counter::RemoteBytesShipped);
        let fallbacks0 = counter_value(Counter::RemoteFallbacks);
        let (step_ms, recs) = env.sequence(&chain);
        let fell_back = counter_value(Counter::RemoteFallbacks) != fallbacks0;
        shipped.push(counter_value(Counter::RemoteBytesShipped) - bytes0);
        let total: f64 = step_ms.iter().sum();
        seq_ms.push(total);
        rates.push(step_ms.len() as f64 / (total / 1e3));
        done.push((chain, recs, fell_back));
        // Ingests spread evenly over the run, between sequences.
        let due = (INGESTS as f64 * t_run.elapsed().as_secs_f64() / seconds).ceil() as usize;
        while ingest_ms.len() < due.min(INGESTS) {
            ingest_ms.push(env.side_ingest());
        }
    }
    // Peak memory of the sequences, read before the checks allocate.
    let peak_rss = peak_rss_mib(None) + env.fleet.as_ref().map_or(0.0, Fleet::peak_rss_mib);
    // Checks, after the timed sequences so they cannot disturb them.
    for (chain, recs, fell_back) in &done {
        let mut problems = Vec::new();
        for (i, rec) in recs.iter().enumerate() {
            problems.extend(env.check(i + 1, chain, rec));
            if let Some(reference) = env.reference_rec(i + 1, chain) {
                if !same_answer(rec, &reference) {
                    problems.push(format!("depth {}: remote != serial", i + 1));
                }
            }
        }
        if *fell_back {
            problems.push("remote fallbacks moved".into());
        }
        out.record_op(&problems);
    }
    while ingest_ms.len() < INGESTS {
        ingest_ms.push(env.side_ingest());
    }
    eprintln!(
        "{} sequences, sequence ms {:?}",
        seq_ms.len(),
        seq_ms.iter().map(|v| v.round()).collect::<Vec<_>>()
    );
    if env.fleet.is_some() {
        eprintln!("bytes shipped per sequence {shipped:?}");
    }
    eprintln!(
        "ingest ms {:?}",
        ingest_ms.iter().map(|v| v.round()).collect::<Vec<_>>()
    );
    out.push("setup_s", setup_s, "s");
    out.push("latency_p50_ms", median(&seq_ms), "ms");
    let (pct, tail_ms) = tail(&seq_ms);
    eprintln!("tail percentile p{pct} over {} sequences", seq_ms.len());
    out.push("latency_tail_ms", tail_ms, "ms");
    out.push("throughput_rps", median(&rates), "1/s");
    out.push("ingest_p50_ms", median(&ingest_ms), "ms");
    out.push("peak_rss_mb", peak_rss, "MiB");
    out
}

/// [`AggregateSource`] over the replica's drill-down session that records
/// a `factor.aggregates` span per call.
struct TimedSource<'a> {
    tracer: &'a mut Tracer,
    session: &'a mut DrilldownSession,
}

impl AggregateSource for TimedSource<'_> {
    fn legacy_aggregates(&mut self, fact: &Factorization) -> DecomposedAggregates {
        let session = &mut *self.session;
        self.tracer
            .span("factor.aggregates", |_| session.aggregates(fact))
    }

    fn encoded_aggregates(
        &mut self,
        fact: &Factorization,
    ) -> (EncodedFactorization, EncodedAggregates) {
        let session = &mut *self.session;
        self.tracer
            .span("factor.aggregates", |_| session.encoded(fact))
    }
}

/// The training design with the engine's default configuration.
fn build_design(
    parallel: &View,
    schema: &Schema,
    statistic: AggregateKind,
    exec: &Exec,
    source: &mut dyn AggregateSource,
) -> TrainingDesign {
    DesignBuilder::new(parallel, schema, statistic)
        .with_plan(FeaturePlan::none())
        .empty_groups(EmptyGroupPolicy::GlobalMean)
        .with_factor_backend(FactorBackend::Encoded)
        .with_exec(exec.clone())
        .with_aggregate_source(source)
        .build()
        .expect("design")
}

/// `Reptile::recommend` composed from the layers' public calls, one span
/// per call, with the engine's default configuration (multi-level model,
/// factorised backend, global-mean fill, top 5). Its result must equal the
/// engine's bit for bit.
fn replica_recommend(
    tr: &mut Tracer,
    env: &mut Env,
    view: &View,
    complaint: &Complaint,
    rows: &mut usize,
) -> Recommendation {
    let defaults = ReptileConfig::default();
    let em: MultilevelConfig = defaults.em;
    let schema = env.data.schema.clone();
    let exec = env.exec.clone();
    let session = &mut env.replica;
    tr.span("core.recommend", |tr| {
        let original_value = view
            .group(&complaint.key)
            .expect("complaint tuple")
            .value(complaint.statistic);
        let mut hierarchies = Vec::new();
        let mut all: Vec<ScoredGroup> = Vec::new();
        for h in schema.hierarchies() {
            if h.next_level(view.group_by()).is_none() {
                continue;
            }
            let dd = tr.span("relational.drill", |_| {
                view.drill_down(&complaint.key, h, &exec).expect("drill")
            });
            let parallel = tr.span("relational.parallel_view", |_| {
                view.drill_down_parallel(h, &exec)
                    .expect("parallel view")
                    .view
            });
            let design = tr.span("model.design", |tr| {
                let mut source = TimedSource {
                    tracer: tr,
                    session: &mut *session,
                };
                build_design(&parallel, &schema, complaint.statistic, &exec, &mut source)
            });
            *rows += design.n_rows();
            let model = tr.span("model.fit", |_| {
                MultilevelModel::fit_exec(&design, em, TrainingBackend::Factorized, &exec)
                    .expect("fit")
            });
            let by_row = tr.span("model.predict", |_| {
                model.predict_all_with(&design, &exec.parallelism())
            });
            let added_attribute = schema.name(dd.added_attribute).to_string();
            let ranked = tr.span("core.score", |_| {
                let mut predictions = BTreeMap::new();
                for (key, _) in parallel.groups() {
                    if let Some(row) = design.row_of_key(key) {
                        predictions.insert(key.clone(), by_row[row]);
                    }
                }
                let mut ranked = Vec::new();
                for (key, agg) in dd.view.groups() {
                    let observed = agg.value(complaint.statistic);
                    let expected = predictions.get(key).copied().unwrap_or(observed);
                    let repaired = agg.repaired_to(complaint.statistic, expected);
                    let repaired_value = dd
                        .view
                        .total_with_replacement(key, &repaired)
                        .expect("repair")
                        .value(complaint.statistic);
                    ranked.push(ScoredGroup {
                        hierarchy: h.name.clone(),
                        added_attribute: added_attribute.clone(),
                        key: key.clone(),
                        observed,
                        expected,
                        repaired_complaint_value: repaired_value,
                        penalty: complaint.penalty(repaired_value),
                        improvement: complaint.improvement(original_value, repaired_value),
                    });
                }
                ranked.sort_by(|a, b| a.penalty.total_cmp(&b.penalty));
                ranked
            });
            all.extend(ranked.iter().cloned());
            hierarchies.push(reptile::HierarchyRecommendation {
                hierarchy: h.name.clone(),
                added_attribute,
                view: Arc::new(dd.view),
                ranked,
            });
        }
        all.sort_by(|a, b| a.penalty.total_cmp(&b.penalty));
        all.truncate(defaults.top_k);
        Recommendation {
            hierarchies,
            ranked: all,
            original_value,
        }
    })
}

/// The traced run: the same sequences through the replica, with spans,
/// counters and stage timers; reports the per-layer metrics.
fn traced(
    kind: Kind,
    env: &mut Env,
    seed: u64,
    chains: &mut SimRng,
    seconds: f64,
    out: &mut Outcome,
) {
    // First touch of the replica's own drill-down session, untraced: the
    // first step touches every hierarchy's factor, as in set-up.
    let chain = draw_chain(&env.data, &mut SimRng::seed_from_u64(seed ^ 0x5e7u64));
    let view = env.view(env.engine.relation(), 1, &env.exec.clone());
    let complaint = env.complaint(&chain, 1);
    replica_recommend(&mut Tracer::new(), env, &view, &complaint, &mut 0);
    reptile_obs::set_enabled(true);
    let mut tr = Tracer::new();
    let mut per_op: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut op_ms = Vec::new();
    let t_run = Instant::now();
    let mut op = 0u64;
    let mut done = Vec::new();
    while t_run.elapsed().as_secs_f64() < seconds {
        op += 1;
        tr.begin_op(op);
        let chain = draw_chain(&env.data, chains);
        let counters0 = LayerCounters::read(env);
        let mut rows = 0usize;
        let mut recs = Vec::new();
        let t0 = Instant::now();
        for depth in 1..=env.data.drill.len() {
            let relation = env.engine.relation();
            let exec = env.exec.clone();
            let view = tr.span("relational.view", |_| env.view(relation, depth, &exec));
            let complaint = env.complaint(&chain, depth);
            recs.push(Answer::from(replica_recommend(
                &mut tr, env, &view, &complaint, &mut rows,
            )));
        }
        op_ms.push(ms(t0));
        let counters1 = LayerCounters::read(env);
        counters1.delta(&counters0, &mut per_op);
        per_op
            .entry("model.design_rows")
            .or_default()
            .push(rows as f64);
        done.push((chain, recs));
    }
    reptile_obs::set_enabled(false);
    // The replica must reproduce the engine (serial) or the serial
    // reference (remote) exactly, and pass the same output checks.
    for (chain, recs) in &done {
        let mut problems = Vec::new();
        for (i, rec) in recs.iter().enumerate() {
            let depth = i + 1;
            problems.extend(env.check(depth, chain, rec));
            let want = match env.reference_rec(depth, chain) {
                Some(r) => r,
                None => {
                    let view = env.view(env.engine.relation(), depth, &Exec::Serial);
                    env.engine
                        .recommend(&view, &env.complaint(chain, depth))
                        .expect("engine recommend")
                        .into()
                }
            };
            if !same_answer(rec, &want) {
                problems.push(format!("depth {depth}: traced replica != engine"));
            }
        }
        out.record_op(&problems);
    }
    let recommend = tr.total_ms_per_op("core.recommend");
    let unattributed = tr.self_ms_per_op("core.recommend");
    for (name, span, self_time) in [
        ("relational.view_ms", "relational.view", false),
        ("relational.drill_ms", "relational.drill", false),
        (
            "relational.parallel_view_ms",
            "relational.parallel_view",
            false,
        ),
        ("factor.aggregates_ms", "factor.aggregates", false),
        ("model.design_ms", "model.design", true),
        ("model.fit_ms", "model.fit", false),
        ("model.predict_ms", "model.predict", false),
        ("core.score_ms", "core.score", false),
    ] {
        let v = if self_time {
            tr.self_ms_per_op(span)
        } else {
            tr.total_ms_per_op(span)
        };
        per_op.insert(name, v);
    }
    per_op.insert("core.recommend_ms", recommend);
    per_op.insert("core.unattributed_ms", unattributed);
    per_op.insert("trace.op_p50_ms", op_ms);
    let path = crate::trace_path(kind.name());
    if let Err(e) = tr.write(&path) {
        eprintln!("could not write {}: {e}", path.display());
    }
    crate::report_layers(out, &per_op);
}

/// Counter and stage-timer readings around one traced operation.
struct LayerCounters {
    rows_tested: u64,
    runs_skipped: u64,
    e_step_ns: u64,
    remote_merge_ns: u64,
    jobs: u64,
    rpcs: u64,
    bytes: u64,
    fallbacks: u64,
    overlapped: u64,
    e_step_partials: u64,
    recomputed: usize,
    reused: usize,
    delta_patched: usize,
}

impl LayerCounters {
    fn read(env: &Env) -> Self {
        let stats = env.replica.cumulative_stats();
        LayerCounters {
            rows_tested: counter_value(Counter::RowsTested),
            runs_skipped: counter_value(Counter::RunsSkipped),
            e_step_ns: stage_total_ns(Stage::EStep),
            remote_merge_ns: stage_total_ns(Stage::RemoteMerge),
            jobs: counter_value(Counter::PoolJobsExecuted),
            rpcs: counter_value(Counter::RemoteRpcs),
            bytes: counter_value(Counter::RemoteBytesShipped),
            fallbacks: counter_value(Counter::RemoteFallbacks),
            overlapped: counter_value(Counter::RemoteOverlappedMerges),
            e_step_partials: counter_value(Counter::RemoteEStepPartials),
            recomputed: stats.recomputed,
            reused: stats.reused,
            delta_patched: stats.delta_patched,
        }
    }

    fn delta(&self, before: &Self, per_op: &mut BTreeMap<&'static str, Vec<f64>>) {
        let mut push = |k: &'static str, v: f64| per_op.entry(k).or_default().push(v);
        push(
            "relational.rows_tested",
            (self.rows_tested - before.rows_tested) as f64,
        );
        push(
            "relational.runs_skipped",
            (self.runs_skipped - before.runs_skipped) as f64,
        );
        push(
            "model.e_step_ms",
            (self.e_step_ns - before.e_step_ns) as f64 / 1e6,
        );
        push(
            "wire.remote_merge_ms",
            (self.remote_merge_ns - before.remote_merge_ns) as f64 / 1e6,
        );
        push("pool.jobs_executed", (self.jobs - before.jobs) as f64);
        push(
            "pool.queue_depth_max",
            gauge_value(Gauge::PoolQueueDepthMax) as f64,
        );
        push("wire.rpcs", (self.rpcs - before.rpcs) as f64);
        push("wire.bytes_shipped", (self.bytes - before.bytes) as f64);
        push("wire.fallbacks", (self.fallbacks - before.fallbacks) as f64);
        push(
            "wire.overlapped_merges",
            (self.overlapped - before.overlapped) as f64,
        );
        push(
            "wire.e_step_partials",
            (self.e_step_partials - before.e_step_partials) as f64,
        );
        push(
            "factor.recomputed",
            (self.recomputed - before.recomputed) as f64,
        );
        push("factor.reused", (self.reused - before.reused) as f64);
        push(
            "factor.delta_patched",
            (self.delta_patched - before.delta_patched) as f64,
        );
    }
}
