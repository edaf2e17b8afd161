//! Output checks made apart from the program: a group-by recount over the
//! generated rows plus every ingested row, the repaired complaint value
//! recomputed from that recount, and the ranking order.

use reptile::{Complaint, Recommendation, ScoredGroup};
use reptile_relational::{AggregateKind, AttrId, Relation, Schema, Value};

/// Relative tolerance of MEAN comparisons: the program and the recount
/// sum the same values in different orders.
pub const MEAN_RTOL: f64 = 1e-9;

/// The rows a request reads: the generated relation plus ingested rows.
pub struct Rows<'a> {
    pub base: &'a Relation,
    pub ingested: &'a [Vec<Value>],
}

/// What a recommendation was asked about.
pub struct Asked<'a> {
    pub predicate: &'a [(AttrId, Value)],
    pub group_by: &'a [AttrId],
    pub measure: AttrId,
    pub complaint: &'a Complaint,
}

/// Counts and sums of the complaint tuple and of each ranked group.
struct Tally<'a> {
    asked: &'a Asked<'a>,
    groups: &'a [ScoredGroup],
    added: Vec<AttrId>,
    tuple: (f64, f64),
    per_group: Vec<(f64, f64)>,
}

impl Tally<'_> {
    fn add<'v>(&mut self, get: impl Fn(AttrId) -> &'v Value) {
        let asked = self.asked;
        if asked.predicate.iter().any(|(a, v)| get(*a) != v)
            || asked
                .group_by
                .iter()
                .zip(&asked.complaint.key.0)
                .any(|(a, v)| get(*a) != v)
        {
            return;
        }
        let m = get(asked.measure).as_f64_or_zero();
        self.tuple.0 += 1.0;
        self.tuple.1 += m;
        for (i, g) in self.groups.iter().enumerate() {
            if g.key.0.last() == Some(get(self.added[i])) {
                self.per_group[i].0 += 1.0;
                self.per_group[i].1 += m;
            }
        }
    }
}

/// What the checks keep of a recommendation: its rankings, without the
/// drilled-down views (a run holds every answer until its checks run).
pub struct Answer {
    pub original_value: f64,
    pub ranked: Vec<ScoredGroup>,
    pub per_hierarchy: Vec<(String, Vec<ScoredGroup>)>,
}

impl From<Recommendation> for Answer {
    fn from(rec: Recommendation) -> Self {
        Answer {
            original_value: rec.original_value,
            ranked: rec.ranked,
            per_hierarchy: rec
                .hierarchies
                .into_iter()
                .map(|h| (h.hierarchy, h.ranked))
                .collect(),
        }
    }
}

/// Check `rec` against an independent recount; returns the problems.
pub fn check(rows: &Rows, schema: &Schema, asked: &Asked, rec: &Answer) -> Vec<String> {
    let complaint = asked.complaint;
    let depth = asked.group_by.len();
    let mut tally = Tally {
        asked,
        groups: &rec.ranked,
        added: rec
            .ranked
            .iter()
            .map(|g| schema.attr(&g.added_attribute).expect("added attribute"))
            .collect(),
        tuple: (0.0, 0.0),
        per_group: vec![(0.0, 0.0); rec.ranked.len()],
    };
    for r in 0..rows.base.len() {
        tally.add(|a| rows.base.value(r, a));
    }
    for row in rows.ingested {
        tally.add(|a| &row[a.index()]);
    }
    let statistic = complaint.statistic;
    let stat = |(n, s): (f64, f64)| match statistic {
        AggregateKind::Count => n,
        _ => s / n,
    };
    let close = |a: f64, b: f64| match statistic {
        AggregateKind::Count => a == b,
        _ => (a - b).abs() <= MEAN_RTOL * a.abs().max(b.abs()).max(1.0),
    };
    let mut problems = Vec::new();
    let key = &complaint.key;
    if !close(rec.original_value, stat(tally.tuple)) {
        problems.push(format!(
            "{key}: complaint value {} but recount {}",
            rec.original_value,
            stat(tally.tuple)
        ));
    }
    let (n_all, s_all) = tally.tuple;
    for (g, &(n, s)) in rec.ranked.iter().zip(&tally.per_group) {
        if g.key.0[..depth] != key.0[..] || n == 0.0 {
            problems.push(format!("{key}: group {} is not in the tuple", g.key));
            continue;
        }
        if !close(g.observed, stat((n, s))) {
            problems.push(format!(
                "{key}: group {} observed {} but recount {}",
                g.key,
                g.observed,
                stat((n, s))
            ));
        }
        // The complaint with this group's statistic replaced by its
        // expectation (COUNT: the count; MEAN: the mean, count kept).
        let repaired = match statistic {
            AggregateKind::Count => n_all - n + g.expected,
            _ => (s_all - s + n * g.expected) / n_all,
        };
        if !close(g.repaired_complaint_value, repaired) {
            problems.push(format!(
                "{key}: group {} repaired {} but recomputed {repaired}",
                g.key, g.repaired_complaint_value
            ));
        }
        if g.penalty != complaint.penalty(g.repaired_complaint_value) {
            problems.push(format!("{key}: group {} penalty mismatch", g.key));
        }
    }
    if rec.ranked.is_empty() {
        problems.push(format!("{key}: empty ranking"));
    }
    if rec.ranked.windows(2).any(|w| w[0].penalty > w[1].penalty) {
        problems.push(format!("{key}: ranking not ordered by penalty"));
    }
    problems
}

fn same_groups(a: &[ScoredGroup], b: &[ScoredGroup]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.hierarchy == y.hierarchy
                && x.added_attribute == y.added_attribute
                && x.key == y.key
                && x.observed.to_bits() == y.observed.to_bits()
                && x.expected.to_bits() == y.expected.to_bits()
                && x.repaired_complaint_value.to_bits() == y.repaired_complaint_value.to_bits()
                && x.penalty.to_bits() == y.penalty.to_bits()
                && x.improvement.to_bits() == y.improvement.to_bits()
        })
}

/// Bit-identical answers: the overall and every per-hierarchy ranking.
pub fn same_answer(a: &Answer, b: &Answer) -> bool {
    a.original_value.to_bits() == b.original_value.to_bits()
        && same_groups(&a.ranked, &b.ranked)
        && a.per_hierarchy.len() == b.per_hierarchy.len()
        && a.per_hierarchy
            .iter()
            .zip(&b.per_hierarchy)
            .all(|(x, y)| x.0 == y.0 && same_groups(&x.1, &y.1))
}
