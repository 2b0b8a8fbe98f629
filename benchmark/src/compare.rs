//! `dmdc-benchmark compare`: judges a change against its parent from two
//! run sets recorded as alternating pairs, one row per workload.
//!
//! * A gain needs the change to win at least 9 of every 10 pairs (ties
//!   count for neither side) and the medians to differ by more than the
//!   parent's interquartile range.
//! * A regression is a change median worse than the parent's by more than
//!   the metric's bound.
//! * A metric whose spread (IQR over median) exceeds its bound on either
//!   side is unresolved — unless every change run beats every parent run,
//!   or every change run is worse than every parent run and the median is
//!   worse by more than the bound (a regression).
//! * Counters are compared exactly, pair by pair.
//!
//! The comparison passes only when no row regressed and none is
//! unresolved: noise is never read as "no regression".

use std::fmt::Write as _;

use crate::result::{RunRecord, WorkloadResult};
use crate::spec::{MetricSpec, Spec};
use crate::stats;

/// Fewest pairs a comparison accepts.
pub const MIN_PAIRS: usize = 10;

/// How one metric moved on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better, by the gain rule.
    Gain,
    /// Worse than the parent by more than the bound.
    Regression,
    /// Too noisy to tell.
    Unresolved,
    /// Within the bound, no gain shown.
    Within,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::Within => "within bound",
        }
    }
}

/// One metric's comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRow {
    /// The metric.
    pub name: String,
    /// Parent median and quartiles.
    pub parent: (f64, f64, f64),
    /// Change median and quartiles.
    pub change: (f64, f64, f64),
    /// Pairs the change won.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The judgement.
    pub verdict: Verdict,
}

/// Judges one metric from paired samples (`parent[i]` ran next to
/// `change[i]`).
pub fn judge(spec: &MetricSpec, parent: &[f64], change: &[f64]) -> MetricRow {
    let pairs = parent.len().min(change.len());
    let (parent, change) = (&parent[..pairs], &change[..pairs]);
    let better = |a: f64, b: f64| if spec.lower_is_better { a < b } else { a > b };
    let summary = |v: &[f64]| {
        let (q1, q3) = stats::quartiles(v);
        (stats::median(v), q1, q3)
    };
    let (pm, pq1, pq3) = summary(parent);
    let (cm, _, _) = summary(change);
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better(**c, **p))
        .count();
    let bound = spec.bound.unwrap_or(0.0);
    let worse_by = if spec.lower_is_better {
        cm - pm
    } else {
        pm - cm
    } / pm.abs();
    let all_better = change.iter().all(|c| parent.iter().all(|p| better(*c, *p)));
    let all_worse = change.iter().all(|c| parent.iter().all(|p| better(*p, *c)));
    let noisy = stats::spread(parent) > bound || stats::spread(change) > bound;
    let verdict = if better(cm, pm)
        && wins * 10 >= pairs * 9
        && (cm - pm).abs() > pq3 - pq1
        && (!noisy || all_better)
    {
        Verdict::Gain
    } else if worse_by > bound && (!noisy || all_worse) {
        Verdict::Regression
    } else if noisy && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Within
    };
    MetricRow {
        name: spec.name.clone(),
        parent: (pm, pq1, pq3),
        change: summary(change),
        wins,
        pairs,
        verdict,
    }
}

/// Counter differences between paired runs of one workload.
fn counter_diffs(parent: &[&WorkloadResult], change: &[&WorkloadResult]) -> Vec<String> {
    let mut diffs = Vec::new();
    for (i, (p, c)) in parent.iter().zip(change).enumerate() {
        for (name, pv) in &p.counters {
            let cv = c.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            if cv != Some(*pv) {
                diffs.push(format!("pair {i}: {name} {pv} -> {cv:?}"));
            }
        }
    }
    diffs
}

/// What a comparison concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// No regression, no counter difference, no failed operation, and
    /// every metric resolved.
    Pass,
    /// Nothing failed, but some metric was too noisy to judge.
    Unresolved,
    /// A regression, a counter difference, a failed operation or a
    /// missing metric.
    Fail,
}

/// The comparison report, ending in its outcome line, and the outcome.
pub fn compare(
    spec: &Spec,
    parent: &[RunRecord],
    change: &[RunRecord],
) -> Result<(String, Outcome), String> {
    let pairs = parent.len().min(change.len());
    if pairs < MIN_PAIRS {
        return Err(format!(
            "need at least {MIN_PAIRS} alternating pairs; got {} parent and {} change runs",
            parent.len(),
            change.len()
        ));
    }
    let mut table = String::new();
    let mut details = String::new();
    let mut passed = true;
    let mut unresolved = 0;
    for workload in &spec.workloads {
        let pick = |set: &[RunRecord]| -> Vec<WorkloadResult> {
            set[..pairs]
                .iter()
                .filter_map(|r| {
                    r.workloads
                        .iter()
                        .find(|w| &w.workload == workload)
                        .cloned()
                })
                .collect()
        };
        let (p, c) = (pick(parent), pick(change));
        if p.len() < pairs || c.len() < pairs {
            let _ = writeln!(table, "{workload:<13} not in every run");
            passed = false;
            continue;
        }
        let mut cells = Vec::new();
        for m in &spec.end_to_end {
            let values = |set: &[WorkloadResult]| -> Option<Vec<f64>> {
                set.iter()
                    .map(|w| w.metric(&m.name).map(|x| x.value))
                    .collect()
            };
            let (Some(pv), Some(cv)) = (values(&p), values(&c)) else {
                cells.push(format!("{} missing", m.name));
                passed = false;
                continue;
            };
            let row = judge(m, &pv, &cv);
            let delta = (row.change.0 - row.parent.0) / row.parent.0.abs() * 100.0;
            cells.push(format!("{} {delta:+.1}% {}", m.name, row.verdict.label()));
            passed &= row.verdict != Verdict::Regression;
            unresolved += usize::from(row.verdict == Verdict::Unresolved);
            let _ = writeln!(
                details,
                "  {workload:<13} {:<12} parent {:.6} [{:.6}, {:.6}]  change {:.6} [{:.6}, {:.6}]  wins {}/{}  {}",
                m.name,
                row.parent.0,
                row.parent.1,
                row.parent.2,
                row.change.0,
                row.change.1,
                row.change.2,
                row.wins,
                row.pairs,
                row.verdict.label()
            );
        }
        let pr: Vec<&WorkloadResult> = p.iter().collect();
        let cr: Vec<&WorkloadResult> = c.iter().collect();
        let diffs = counter_diffs(&pr, &cr);
        let failed: u64 = p.iter().chain(&c).map(|w| w.failed).sum();
        cells.push(if diffs.is_empty() {
            "counters equal".to_string()
        } else {
            format!("COUNTERS DIFFER ({})", diffs.join("; "))
        });
        if failed > 0 {
            cells.push(format!("{failed} FAILED OPERATIONS"));
        }
        passed &= diffs.is_empty() && failed == 0;
        let _ = writeln!(table, "{workload:<13} {}", cells.join(" | "));
    }
    let (outcome, line) = match (passed, unresolved) {
        (false, _) => (Outcome::Fail, "compare: FAIL".to_string()),
        (true, 0) => (Outcome::Pass, "compare: pass".to_string()),
        (true, k) => (
            Outcome::Unresolved,
            format!(
                "compare: UNRESOLVED: {k} metric(s) too noisy to judge; rerun on a quieter host"
            ),
        ),
    };
    Ok((format!("{table}\n{details}\n{line}\n"), outcome))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> MetricSpec {
        MetricSpec {
            name: "wall_s".to_string(),
            unit: "s".to_string(),
            lower_is_better: true,
            bound: Some(bound),
        }
    }

    fn around(center: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center * (1.0 + (i as f64 - 4.5) * 0.002))
            .collect()
    }

    #[test]
    fn a_clear_speedup_is_a_gain() {
        let row = judge(&lower(0.1), &around(10.0), &around(9.0));
        assert_eq!((row.verdict, row.wins, row.pairs), (Verdict::Gain, 10, 10));
    }

    #[test]
    fn a_slowdown_past_the_bound_is_a_regression() {
        assert_eq!(
            judge(&lower(0.1), &around(10.0), &around(11.5)).verdict,
            Verdict::Regression
        );
        assert_eq!(
            judge(&lower(0.1), &around(10.0), &around(10.5)).verdict,
            Verdict::Within
        );
    }

    #[test]
    fn noise_wider_than_the_bound_is_unresolved() {
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 5.0 } else { 15.0 })
            .collect();
        assert_eq!(
            judge(&lower(0.1), &noisy, &around(10.0)).verdict,
            Verdict::Unresolved
        );
        // ...unless every change run beats every parent run: then there is
        // no regression, though the medians differ by less than the
        // parent's IQR, so no gain either.
        assert_eq!(
            judge(&lower(0.1), &noisy, &around(4.0)).verdict,
            Verdict::Within
        );
    }

    #[test]
    fn noise_does_not_hide_a_change_worse_in_every_run() {
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 8.0 } else { 12.0 })
            .collect();
        // Every change run is 60% slower than the slowest parent run.
        assert_eq!(
            judge(&lower(0.1), &noisy, &around(19.2)).verdict,
            Verdict::Regression
        );
        // Worse in every run, but by less than the bound: still too noisy.
        let noisier: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 5.0 } else { 15.0 })
            .collect();
        assert_eq!(
            judge(&lower(0.6), &noisier, &around(15.5)).verdict,
            Verdict::Unresolved
        );
    }

    /// A run set with one workload whose `wall_s` takes `values` in turn.
    fn run_set(values: &[f64]) -> Vec<RunRecord> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| RunRecord {
                seed: i as u64 + 1,
                seconds: 10,
                workloads: vec![WorkloadResult {
                    workload: "w".to_string(),
                    seed: i as u64 + 1,
                    attempted: 1,
                    failed: 0,
                    failures: Vec::new(),
                    metrics: vec![crate::result::Metric::new("wall_s", "s", v, 1)],
                    counters: vec![("cells".to_string(), 7)],
                }],
            })
            .collect()
    }

    #[test]
    fn an_unresolved_metric_fails_to_pass() {
        let spec = Spec {
            workloads: vec!["w".to_string()],
            end_to_end: vec![lower(0.1)],
            per_layer: Vec::new(),
        };
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 5.0 } else { 15.0 })
            .collect();
        let outcome = |parent: &[f64], change: &[f64]| {
            compare(&spec, &run_set(parent), &run_set(change))
                .unwrap()
                .1
        };
        assert_eq!(outcome(&around(10.0), &around(10.0)), Outcome::Pass);
        assert_eq!(outcome(&noisy, &around(10.0)), Outcome::Unresolved);
        assert_eq!(outcome(&around(10.0), &around(12.0)), Outcome::Fail);
        let (report, _) = compare(&spec, &run_set(&noisy), &run_set(&around(10.0))).unwrap();
        assert!(report.ends_with("rerun on a quieter host\n"), "{report}");
    }

    #[test]
    fn nine_wins_of_ten_are_needed() {
        let parent = around(10.0);
        let mut change = around(9.0);
        change[0] = 20.0;
        change[1] = 20.0;
        assert_eq!(judge(&lower(0.5), &parent, &change).wins, 8);
        assert_ne!(judge(&lower(0.5), &parent, &change).verdict, Verdict::Gain);
    }
}
