//! `BENCHMARK.json`: the metric names, units, directions and regression
//! bounds. The single source of truth for what a run reports and how
//! `compare` judges it.

use crate::json::{self, Json};

/// One metric the benchmark promises.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether a lower value is better.
    pub lower_is_better: bool,
    /// Share of the parent's median by which it may worsen (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Workload names.
    pub workloads: Vec<String>,
    /// Metrics of an untraced run.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics of a traced run.
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// Reads `BENCHMARK.json` from the repository root (the working
    /// directory the benchmark runs in).
    pub fn load() -> Result<Spec, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
        Spec::parse(&text)
    }

    /// Parses the document.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or(format!("BENCHMARK.json: no `{key}` list"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let text = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .ok_or(format!("BENCHMARK.json: a `{key}` metric has no `{k}`"))
                    };
                    Ok(MetricSpec {
                        name: text("name")?.to_string(),
                        unit: text("unit")?.to_string(),
                        lower_is_better: text("better")? == "lower",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            workloads: list("workloads")?
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
                .collect(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The metric names of a traced (`true`) or untraced run.
    pub fn names(&self, traced: bool) -> Vec<String> {
        let list = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        list.iter().map(|m| m.name.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_repository_spec() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let spec = Spec::parse(&text).unwrap();
        assert_eq!(spec.workloads, crate::workloads::NAMES);
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert!(setup.lower_is_better && setup.unit == "s");
        let widest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let mut listed = spec.names(true);
        let mut reported = crate::trace::metric_names();
        listed.sort();
        reported.sort();
        assert_eq!(
            listed, reported,
            "per_layer lists exactly what a traced run reports"
        );
    }
}
