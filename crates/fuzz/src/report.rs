//! The fuzz run report and its JSON rendering.
//!
//! The report splits into a *deterministic core* — everything derived
//! from seeds: case counts, divergences, the digest over generated model
//! XML, shrink counters — and wall-clock telemetry. `repro -- fuzz`
//! asserts determinism by comparing [`FuzzReport::deterministic_json`]
//! across runs, while the full [`FuzzReport::to_json`] adds timing for
//! humans and `BENCH_fuzz.json`.

use crate::oracle::Divergence;
use crate::shrink::ShrinkStats;
use hcg_obs::json::{self, Fixed};
use std::time::Duration;

/// Static-verifier verdict for one generator × architecture program of a
/// minimized failing model (see `hcg-verify`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyVerdict {
    /// Generator short name (`hcg`, `simulink-coder`, `dfsynth`).
    pub generator: &'static str,
    /// Target architecture the program was generated for.
    pub arch: String,
    /// `proved`, `divergent`, or an error description.
    pub verdict: String,
    /// First-divergence witness rendering, when divergent.
    pub witness: Option<String>,
}

/// One shrunk failure in the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureSummary {
    /// Case seed that produced the failing model.
    pub seed: u64,
    /// Every oracle divergence of the case.
    pub divergences: Vec<Divergence>,
    /// Shrinker counters for the case.
    pub shrink: ShrinkStats,
    /// Repro file the minimized model was written to, if any.
    pub repro: Option<String>,
    /// Static translation-validation verdicts for the minimized model,
    /// one per generator × oracle architecture. The static verifier and
    /// the dynamic oracle disagree exactly when a bug is input-dependent.
    pub verify: Vec<VerifyVerdict>,
}

/// Aggregated outcome of one fuzz run.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Base seed of the run.
    pub seed: u64,
    /// Cases requested.
    pub iters: usize,
    /// Worker threads used to fan out cases.
    pub threads: usize,
    /// Cases that passed every oracle check.
    pub passed: usize,
    /// Failing cases, in case order.
    pub failures: Vec<FailureSummary>,
    /// FNV-1a digest over every generated model's XML, in case order —
    /// the witness that the same seed generates the same case stream.
    pub cases_digest: u64,
    /// Total actors across all generated models (a coarse size witness).
    pub total_actors: usize,
    /// Committed corpus entries replayed cleanly at the end of the run.
    pub corpus_replayed: usize,
    /// Wall-clock of the whole run (excluded from the deterministic core).
    pub elapsed: Duration,
    /// Wall-clock telemetry in the unified metrics schema: per-stage oracle
    /// seconds as `fuzz.stage_seconds.<stage>` gauges plus run-shape
    /// counters (excluded from the deterministic core).
    pub telemetry: hcg_obs::MetricsSnapshot,
}

/// FNV-1a over a byte slice; tiny, dependency-free, stable across runs
/// and platforms.
pub fn fnv1a(bytes: &[u8], state: u64) -> u64 {
    let mut h = if state == 0 {
        0xcbf2_9ce4_8422_2325
    } else {
        state
    };
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

impl FuzzReport {
    /// Total divergences across all failing cases.
    pub fn divergence_count(&self) -> usize {
        self.failures.iter().map(|f| f.divergences.len()).sum()
    }

    /// Total accepted shrink steps across all failing cases.
    pub fn shrink_steps(&self) -> usize {
        self.failures.iter().map(|f| f.shrink.accepted).sum()
    }

    /// Cases per second of wall-clock.
    pub fn cases_per_sec(&self) -> f64 {
        self.iters as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// The seed-determined fields only — two runs with the same seed and
    /// config must render this identically.
    pub fn deterministic_json(&self) -> String {
        let mut out = String::new();
        json::object(&mut out, |o| self.write_deterministic(o));
        out
    }

    fn write_deterministic(&self, o: &mut json::Object<'_>) {
        o.field("seed", self.seed)
            .field("iters", self.iters)
            .field("passed", self.passed)
            .field("divergences", self.divergence_count())
            .field("shrink_steps", self.shrink_steps())
            .field("cases_digest", format!("{:016x}", self.cases_digest))
            .field("total_actors", self.total_actors)
            .field("corpus_replayed", self.corpus_replayed)
            .array("failures", |a| {
                for f in &self.failures {
                    a.object(|o| f.write_json(o));
                }
            });
    }

    /// The full report: the deterministic core plus timing telemetry (the
    /// shared [`hcg_obs::MetricsSnapshot`] JSON schema).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        json::object(&mut out, |o| {
            o.object("deterministic", |o| self.write_deterministic(o))
                .field("threads", self.threads)
                .field("elapsed_seconds", Fixed(self.elapsed.as_secs_f64(), 6))
                .field("cases_per_sec", Fixed(self.cases_per_sec(), 2))
                .field("telemetry", &self.telemetry);
        });
        out
    }
}

impl FailureSummary {
    fn write_json(&self, o: &mut json::Object<'_>) {
        o.field("seed", self.seed)
            .array("divergences", |a| {
                for d in &self.divergences {
                    a.object(|o| {
                        o.field("check", d.check).field("detail", &d.detail);
                    });
                }
            })
            .object("shrink", |o| {
                o.field("attempts", self.shrink.attempts)
                    .field("accepted", self.shrink.accepted)
                    .field("initial_actors", self.shrink.initial_actors)
                    .field("final_actors", self.shrink.final_actors);
            })
            .array("verify", |a| {
                for v in &self.verify {
                    a.object(|o| {
                        o.field("generator", v.generator)
                            .field("arch", &v.arch)
                            .field("verdict", &v.verdict);
                        if let Some(w) = &v.witness {
                            o.field("witness", w);
                        }
                    });
                }
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a(b"", 0), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"abc", 0), fnv1a(b"abc", 0));
        assert_ne!(fnv1a(b"abc", 0), fnv1a(b"abd", 0));
        // Chaining differs from concatenation starting state but is stable.
        let chained = fnv1a(b"def", fnv1a(b"abc", 0));
        assert_eq!(chained, fnv1a(b"def", fnv1a(b"abc", 0)));
    }

    #[test]
    fn deterministic_json_omits_timing() {
        let mut r = FuzzReport {
            seed: 7,
            iters: 10,
            passed: 10,
            cases_digest: 0xabcd,
            ..FuzzReport::default()
        };
        let a = r.deterministic_json();
        r.elapsed = Duration::from_secs(99);
        r.telemetry.set_gauge("fuzz.stage_seconds.compile", 1.0);
        assert_eq!(a, r.deterministic_json());
        assert!(a.contains("\"cases_digest\": \"000000000000abcd\""));
        assert!(!a.contains("elapsed"));
        let full = r.to_json();
        assert!(full.contains("elapsed_seconds"));
        assert!(full.contains("\"telemetry\": {\"fuzz.stage_seconds.compile\": 1}"));
    }

    #[test]
    fn detail_strings_are_escaped() {
        let r = FuzzReport {
            failures: vec![FailureSummary {
                seed: 1,
                divergences: vec![Divergence {
                    check: "compile",
                    detail: "say \"hi\" \\ bye".to_owned(),
                }],
                shrink: crate::shrink::ShrinkStats {
                    attempts: 0,
                    accepted: 0,
                    initial_actors: 1,
                    final_actors: 1,
                },
                repro: None,
                verify: Vec::new(),
            }],
            ..FuzzReport::default()
        };
        let j = r.deterministic_json();
        assert!(j.contains("say \\\"hi\\\" \\\\ bye"));
        // No verdicts recorded: the array is present but empty.
        assert!(j.contains("\"verify\": []"));
    }

    #[test]
    fn verify_verdicts_render_inside_failures() {
        let r = FuzzReport {
            failures: vec![FailureSummary {
                seed: 3,
                divergences: Vec::new(),
                shrink: crate::shrink::ShrinkStats {
                    attempts: 0,
                    accepted: 0,
                    initial_actors: 1,
                    final_actors: 1,
                },
                repro: None,
                verify: vec![
                    VerifyVerdict {
                        generator: "hcg",
                        arch: "neon128".to_owned(),
                        verdict: "proved".to_owned(),
                        witness: None,
                    },
                    VerifyVerdict {
                        generator: "dfsynth",
                        arch: "avx256".to_owned(),
                        verdict: "divergent".to_owned(),
                        witness: Some("outport \"y\" element 0".to_owned()),
                    },
                ],
            }],
            ..FuzzReport::default()
        };
        let j = r.deterministic_json();
        assert!(j.contains("\"generator\": \"hcg\""));
        assert!(j.contains("\"verdict\": \"proved\""));
        assert!(j.contains("\"witness\": \"outport \\\"y\\\" element 0\""));
    }
}
