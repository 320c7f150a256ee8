//! The result schema: one JSON document per run, written under the output
//! directory and read back by `ledger compare`.

use crate::json::{self, Value};
use crate::spec::MetricSpec;
use hcg_obs::json::escape;
use std::collections::BTreeMap;

/// Bumped whenever a field changes meaning.
pub const SCHEMA_VERSION: u64 = 1;

/// Where and with what a run was made.
#[derive(Debug, Clone)]
pub struct Host {
    pub git_rev: String,
    pub nproc: usize,
    pub cpu: String,
    pub rustc: String,
}

impl Host {
    pub fn detect() -> Host {
        Host {
            git_rev: git_rev().unwrap_or_else(|| "unknown".to_owned()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: std::fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|s| {
                    s.lines()
                        .find_map(|l| l.strip_prefix("model name"))
                        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_owned())
                })
                .unwrap_or_else(|| "unknown".to_owned()),
            rustc: env!("LEDGER_RUSTC_VERSION").to_owned(),
        }
    }
}

/// The commit checked out in the working directory, read from `.git`
/// without running git (`None` outside a git checkout).
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_owned());
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_owned()))
}

/// One run's result.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub c_digest: String,
    /// Metric name → (value, unit), in spec order when written.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    fn metrics_json(&self) -> String {
        let items: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    escape(name),
                    escape(unit)
                )
            })
            .collect();
        format!("{{{}}}", items.join(", "))
    }

    /// The one-line summary printed last on stdout.
    pub fn summary_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    /// The full result document.
    pub fn to_json(&self, host: &Host) -> String {
        format!(
            "{{\n  \"schema_version\": {SCHEMA_VERSION},\n  \"workload\": \"{}\",\n  \
             \"seed\": {},\n  \"seconds\": {},\n  \"traced\": {},\n  \"git_rev\": \"{}\",\n  \
             \"host\": {{\"nproc\": {}, \"cpu\": \"{}\", \"rustc\": \"{}\"}},\n  \
             \"ops\": {{\"attempted\": {}, \"failed\": {}}},\n  \"correct\": {},\n  \
             \"c_digest\": \"{}\",\n  \"metrics\": {}\n}}\n",
            escape(&self.workload),
            self.seed,
            self.seconds,
            self.traced,
            escape(&host.git_rev),
            host.nproc,
            escape(&host.cpu),
            escape(&host.rustc),
            self.attempted,
            self.failed,
            self.correct(),
            escape(&self.c_digest),
            self.metrics_json()
        )
    }

    /// Read a result document back.
    pub fn parse(text: &str) -> Result<RunResult, String> {
        let doc = json::parse(text)?;
        let version = doc.get("schema_version").and_then(Value::as_f64);
        if version != Some(SCHEMA_VERSION as f64) {
            return Err(format!("unsupported schema_version {version:?}"));
        }
        let num = |v: &Value, k: &str| {
            v.get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("missing number {k}"))
        };
        let text = |k: &str| {
            doc.get(k)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("missing string {k}"))
        };
        let ops = doc.get("ops").ok_or("missing ops")?;
        let metrics = doc
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or("missing metrics")?
            .iter()
            .map(|(name, m)| {
                let unit = m.get("unit").and_then(Value::as_str).unwrap_or_default();
                Ok((name.clone(), num(m, "value")?, unit.to_owned()))
            })
            .collect::<Result<_, String>>()?;
        Ok(RunResult {
            workload: text("workload")?,
            seed: num(&doc, "seed")? as u64,
            seconds: num(&doc, "seconds")? as u64,
            traced: doc.get("traced") == Some(&Value::Bool(true)),
            attempted: num(ops, "attempted")? as u64,
            failed: num(ops, "failed")? as u64,
            c_digest: text("c_digest")?,
            metrics,
        })
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// Order `measured` by `spec`, with the spec's units. A per-layer metric a
/// workload never touches reads 0; a missing end-to-end metric or a name
/// the spec does not list is a bug in the ledger.
pub fn in_spec_order(
    spec: &[MetricSpec],
    mut measured: BTreeMap<String, f64>,
    end_to_end: bool,
) -> Vec<(String, f64, String)> {
    let ordered = spec
        .iter()
        .map(|m| {
            let value = measured.remove(&m.name);
            assert!(
                value.is_some() || !end_to_end,
                "end-to-end metric {} was not measured",
                m.name
            );
            (m.name.clone(), value.unwrap_or(0.0), m.unit.clone())
        })
        .collect();
    assert!(
        measured.is_empty(),
        "metrics missing from BENCHMARK.json: {measured:?}"
    );
    ordered
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Spec;

    fn sample() -> RunResult {
        RunResult {
            workload: "paper-cold".into(),
            seed: 3,
            seconds: 10,
            traced: false,
            attempted: 1200,
            failed: 0,
            c_digest: "00ff".into(),
            metrics: vec![("ops_per_s".into(), 123.456, "1/s".into())],
        }
    }

    #[test]
    fn result_schema_validates_and_round_trips() {
        let host = Host::detect();
        assert!(host.nproc >= 1);
        let r = sample();
        let doc = r.to_json(&host);
        hcg_obs::json::validate(&doc).unwrap();
        for field in [
            "schema_version",
            "git_rev",
            "nproc",
            "cpu",
            "rustc",
            "seed",
            "attempted",
        ] {
            assert!(doc.contains(&format!("\"{field}\"")), "{field}");
        }
        assert_eq!(RunResult::parse(&doc).unwrap(), r);
        let line = r.summary_line();
        hcg_obs::json::validate(&line).unwrap();
        let keys: Vec<String> = json::parse(&line)
            .unwrap()
            .as_obj()
            .unwrap()
            .keys()
            .cloned()
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    }

    #[test]
    fn metrics_follow_the_spec() {
        let spec = Spec::embedded();
        let measured: BTreeMap<String, f64> = spec
            .end_to_end
            .iter()
            .map(|m| (m.name.clone(), 1.5))
            .collect();
        let ordered = in_spec_order(&spec.end_to_end, measured, true);
        assert_eq!(ordered.len(), spec.end_to_end.len());
        assert!(ordered
            .iter()
            .zip(&spec.end_to_end)
            .all(|(o, m)| o.0 == m.name && o.2 == m.unit));
        let layers = in_spec_order(&spec.per_layer, BTreeMap::new(), false);
        assert!(layers.iter().all(|l| l.1 == 0.0));
    }
}
