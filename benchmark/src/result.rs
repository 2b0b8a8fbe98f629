//! Result records: what one run measured, as JSON that `compare` reads
//! back, and the one-line summary a single-workload run ends with.

use crate::json::{self, n, obj, s, Json};

/// One measured value with its unit and the number of samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`wall_s`, `req_p50_ms`, ...).
    pub name: String,
    /// Unit (`s`, `ms`, `cells/s`, ...).
    pub unit: String,
    /// The value.
    pub value: f64,
    /// Samples the value summarizes.
    pub n: usize,
    /// First and third quartiles of those samples, for timings that are
    /// medians.
    pub quartiles: Option<(f64, f64)>,
}

impl Metric {
    /// A metric without quartiles.
    pub fn new(name: &str, unit: &str, value: f64, n: usize) -> Metric {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            n,
            quartiles: None,
        }
    }
}

/// Everything one workload measured in one run.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: String,
    /// Seed its inputs came from.
    pub seed: u64,
    /// Operations attempted (CLI invocations, HTTP jobs, checks).
    pub attempted: u64,
    /// Operations that failed: non-zero exits, check mismatches, HTTP
    /// errors and refusals.
    pub failed: u64,
    /// A description of each failure (bounded).
    pub failures: Vec<String>,
    /// Timings, rates and sizes.
    pub metrics: Vec<Metric>,
    /// Host-independent counters: two runs of one seed match exactly.
    pub counters: Vec<(String, u64)>,
}

impl WorkloadResult {
    /// The metric named `name`.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Serializes the whole record.
    pub fn to_json(&self) -> Json {
        obj([
            ("workload", s(&self.workload)),
            ("seed", n(self.seed as f64)),
            ("attempted", n(self.attempted as f64)),
            ("failed", n(self.failed as f64)),
            ("failures", Json::Arr(self.failures.iter().map(s).collect())),
            (
                "metrics",
                Json::Arr(
                    self.metrics
                        .iter()
                        .map(|m| {
                            let mut members = vec![
                                ("name", s(&m.name)),
                                ("unit", s(&m.unit)),
                                ("value", n(finite(m.value))),
                                ("n", n(m.n as f64)),
                            ];
                            if let Some((q1, q3)) = m.quartiles {
                                members.push(("q1", n(q1)));
                                members.push(("q3", n(q3)));
                            }
                            obj(members)
                        })
                        .collect(),
                ),
            ),
            (
                "counters",
                obj(self.counters.iter().map(|(k, v)| (k.clone(), n(*v as f64)))),
            ),
        ])
    }

    /// Parses a record written by [`WorkloadResult::to_json`].
    pub fn from_json(doc: &Json) -> Result<WorkloadResult, String> {
        let field = |k: &str| doc.get(k).ok_or(format!("result without `{k}`"));
        let whole = |k: &str| {
            field(k)?
                .as_u64()
                .ok_or(format!("`{k}` is not a whole number"))
        };
        let metrics = field("metrics")?
            .as_array()
            .ok_or("`metrics` is not an array")?
            .iter()
            .map(|m| {
                let text = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or(format!("metric without `{k}`"))
                };
                let num = |k: &str| m.get(k).and_then(Json::as_f64);
                Ok(Metric {
                    name: text("name")?,
                    unit: text("unit")?,
                    value: num("value").ok_or("metric without a numeric `value`")?,
                    n: m.get("n")
                        .and_then(Json::as_u64)
                        .ok_or("metric without `n`")? as usize,
                    quartiles: num("q1").zip(num("q3")),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let counters = field("counters")?
            .as_object()
            .ok_or("`counters` is not an object")?
            .iter()
            .map(|(k, v)| {
                v.as_u64()
                    .map(|v| (k.clone(), v))
                    .ok_or(format!("counter `{k}` is not a whole number"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(WorkloadResult {
            workload: field("workload")?
                .as_str()
                .ok_or("`workload` is not a string")?
                .to_string(),
            seed: whole("seed")?,
            attempted: whole("attempted")?,
            failed: whole("failed")?,
            failures: field("failures")?
                .as_array()
                .ok_or("`failures` is not an array")?
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect(),
            metrics,
            counters,
        })
    }

    /// The one-line summary: `correct`, `attempted`, `failed` and the named
    /// metrics as `{"value", "unit"}`, in exactly that shape. Errs if a
    /// named metric was not measured.
    pub fn summary_line(&self, names: &[String]) -> Result<String, String> {
        let metrics = names
            .iter()
            .map(|name| {
                let m = self.metric(name).ok_or(format!(
                    "{}: metric `{name}` was not measured",
                    self.workload
                ))?;
                Ok((
                    name.clone(),
                    obj([("value", n(finite(m.value))), ("unit", s(&m.unit))]),
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", n(self.attempted as f64)),
            ("failed", n(self.failed as f64)),
            ("metrics", obj(metrics)),
        ])
        .render())
    }
}

/// JSON has no infinity: a percentile that failed requests pushed to
/// `+inf` is reported as the largest finite number instead.
fn finite(v: f64) -> f64 {
    if v.is_nan() {
        f64::MAX
    } else {
        v.clamp(-f64::MAX, f64::MAX)
    }
}

/// One run of the benchmark: every workload it ran, one line of a run set.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Seed of every workload's inputs.
    pub seed: u64,
    /// Measuring time per workload, in seconds.
    pub seconds: u64,
    /// Per-workload results, in run order.
    pub workloads: Vec<WorkloadResult>,
}

impl RunRecord {
    /// One-line JSON (a line of a `.jsonl` run set).
    pub fn to_line(&self) -> String {
        obj([
            ("seed", n(self.seed as f64)),
            ("seconds", n(self.seconds as f64)),
            (
                "workloads",
                Json::Arr(self.workloads.iter().map(WorkloadResult::to_json).collect()),
            ),
        ])
        .render()
    }

    /// Parses one line written by [`RunRecord::to_line`].
    pub fn from_line(line: &str) -> Result<RunRecord, String> {
        let doc = json::parse(line)?;
        let whole = |k: &str| {
            doc.get(k)
                .and_then(Json::as_u64)
                .ok_or(format!("run record without a whole `{k}`"))
        };
        Ok(RunRecord {
            seed: whole("seed")?,
            seconds: whole("seconds")?,
            workloads: doc
                .get("workloads")
                .and_then(Json::as_array)
                .ok_or("run record without `workloads`")?
                .iter()
                .map(WorkloadResult::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

/// Reads a run set: one [`RunRecord`] per non-empty line.
pub fn read_run_set(path: &std::path::Path) -> Result<Vec<RunRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| {
            RunRecord::from_line(l).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WorkloadResult {
        WorkloadResult {
            workload: "serve-mixed".to_string(),
            seed: 2,
            attempted: 300,
            failed: 1,
            failures: vec!["job-7: HTTP 429".to_string()],
            metrics: vec![
                Metric {
                    quartiles: Some((3.25, 3.5)),
                    ..Metric::new("wall_s", "s", 3.3125, 3)
                },
                Metric::new("req_p90_ms", "ms", f64::INFINITY, 300),
                Metric::new("req_p50_ms", "ms", 0.1 + 0.2, 300),
            ],
            counters: vec![
                ("report_fnv64".to_string(), 1 << 52),
                ("cells".to_string(), 0),
            ],
        }
    }

    #[test]
    fn result_json_round_trips() {
        let finite_only = WorkloadResult {
            metrics: sample()
                .metrics
                .into_iter()
                .filter(|m| m.value.is_finite())
                .collect(),
            ..sample()
        };
        let record = RunRecord {
            seed: 2,
            seconds: 10,
            workloads: vec![finite_only.clone(), finite_only],
        };
        let line = record.to_line();
        assert!(!line.contains('\n'));
        assert_eq!(RunRecord::from_line(&line).unwrap(), record);
    }

    #[test]
    fn summary_line_has_exactly_the_summary_keys() {
        let names = vec!["req_p50_ms".to_string(), "req_p90_ms".to_string()];
        let line = sample().summary_line(&names).unwrap();
        let doc = json::parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        let p50 = doc.get("metrics").unwrap().get("req_p50_ms").unwrap();
        assert_eq!(p50.get("value").unwrap().as_f64(), Some(0.1 + 0.2));
        assert_eq!(p50.get("unit").unwrap().as_str(), Some("ms"));
        let p90 = doc.get("metrics").unwrap().get("req_p90_ms").unwrap();
        assert_eq!(p90.get("value").unwrap().as_f64(), Some(f64::MAX));
        assert!(sample().summary_line(&["nope".to_string()]).is_err());
    }
}
