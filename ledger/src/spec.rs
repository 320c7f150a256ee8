//! The benchmark's own definition, read from `BENCHMARK.json` at compile
//! time so the workload names, metric names, units, directions and bounds
//! live in exactly one place.

use crate::json::{self, Value};

const SPEC_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric of the spec.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median the metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// The spec compiled into this binary.
    pub fn embedded() -> Spec {
        Spec::parse(SPEC_JSON).expect("BENCHMARK.json is well-formed")
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text)?;
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            let list = doc.get(key).ok_or_else(|| format!("missing {key}"))?;
            list.as_arr().iter().map(metric).collect()
        };
        let workloads = doc
            .get("workloads")
            .ok_or("missing workloads")?
            .as_arr()
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| "workload without a name".to_owned())
            })
            .collect::<Result<_, _>>()?;
        Ok(Spec {
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The metrics a run prints: end-to-end ones untraced, per-layer ones
    /// traced.
    pub fn metrics(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

fn metric(v: &Value) -> Result<MetricSpec, String> {
    let field = |k: &str| {
        v.get(k)
            .and_then(Value::as_str)
            .ok_or_else(|| format!("metric without {k}: {v:?}"))
    };
    let higher_is_better = match field("better")? {
        "higher" => true,
        "lower" => false,
        other => return Err(format!("bad direction {other:?}")),
    };
    Ok(MetricSpec {
        name: field("name")?.to_owned(),
        unit: field("unit")?.to_owned(),
        higher_is_better,
        bound: v.get("bound").and_then(Value::as_f64),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_spec_is_consistent() {
        let spec = Spec::embedded();
        assert_eq!(
            spec.workloads,
            [
                "paper-cold",
                "corpus-cold",
                "serve-zipf",
                "serve-cold",
                "edit-replay"
            ]
        );
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        let widest = spec
            .end_to_end
            .iter()
            .map(|m| m.bound.unwrap())
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the widest bound"
        );
        let mut names: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names are unique");
    }
}
