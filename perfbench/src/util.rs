//! Shared plumbing: the run outcome and its JSON line, order statistics,
//! memory readings, and the in-memory span recorder of the traced mode.

use std::fmt::Write as _;
use std::time::Instant;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one invocation reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Count one operation, failed when `problems` is non-empty (each
    /// problem is printed to stderr).
    pub fn record_op(&mut self, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                eprintln!("check failed: {p}");
            }
        }
    }

    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

pub fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Nearest-rank quantile of an unsorted sample (0 for an empty one).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median; the mean of the middle pair for an even sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it, in steps
/// of 0.1 between p50 and p99.9, and its value. Samples of fewer than 40
/// give no tail (the median is returned with percentile 50).
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    if n < 40 {
        return (50.0, median(values));
    }
    let mut pct = 999u32;
    while pct > 500 && (n as f64) * (1000 - pct) as f64 / 1000.0 < 10.0 {
        pct -= 1;
    }
    let p = pct as f64 / 10.0;
    (p, quantile(values, p / 100.0))
}

/// Peak resident set of a process in MiB (`VmHWM`), 0 if unreadable.
pub fn peak_rss_mib(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let Ok(status) = std::fs::read_to_string(path) else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One recorded span: a timed call into a layer.
pub struct Span {
    pub op: u64,
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder for the traced mode. Spans are appended as
/// they close and written out once, when the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every span opened from here on belongs to operation `op`.
    pub fn begin_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Run `f` inside a span named `name`, nested under the open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            op: self.op,
            id,
            parent: self.stack.last().copied(),
            name,
            start_ns: start,
            end_ns: start,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now();
        out
    }

    /// Add a span measured elsewhere (e.g. on another thread).
    pub fn record(&mut self, op: u64, name: &'static str, start: Instant, end: Instant) {
        let since = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let id = self.spans.len();
        self.spans.push(Span {
            op,
            id,
            parent: None,
            name,
            start_ns: since(start),
            end_ns: since(end),
        });
    }

    /// Per operation, the summed self time (ms) of spans named `name`:
    /// each span's duration minus the part its children cover.
    pub fn self_ms_per_op(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.per_op(name, |s| {
            (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id]) as f64 / 1e6
        })
    }

    /// Per operation, the summed duration (ms) of spans named `name`.
    pub fn total_ms_per_op(&self, name: &str) -> Vec<f64> {
        self.per_op(name, |s| (s.end_ns - s.start_ns) as f64 / 1e6)
    }

    fn per_op(&self, name: &str, value: impl Fn(&Span) -> f64) -> Vec<f64> {
        let mut by_op: std::collections::BTreeMap<u64, f64> = Default::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_op.entry(s.op).or_default() += value(s);
        }
        by_op.into_values().collect()
    }

    /// Write every span as one JSON line to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"op\": {}, \"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.op, s.id, parent, s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}
