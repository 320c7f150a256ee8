//! # hcg-fuzz — differential model fuzzer for the HCG reproduction
//!
//! HCG's claim is that its SIMD-synthesised code is *equivalent* to what
//! the Simulink-Coder-like and DFSynth-like baselines produce, only
//! faster. This crate turns that claim into a continuously checked
//! property:
//!
//! 1. [`gen`] grows seeded, deterministic, size-bounded **random models**
//!    that are always type/scale-valid and schedulable;
//! 2. [`oracle`] compiles each model with all three generators across
//!    both evaluation ISAs, executes everything on the VM against the
//!    golden reference with shared seeded inputs, and checks the repo's
//!    metamorphic invariants (XML round-trip, indexed-vs-linear
//!    instruction selection, 1-vs-N-thread fleet identity);
//! 3. [`shrink`] delta-debugs any failing model down to a minimal repro;
//! 4. [`corpus`] stores minimized repros as committed XML replayed by a
//!    tier-1 test;
//! 5. [`run_fuzz`] fans cases across the [`hcg_exec`] pool and renders a
//!    [`report::FuzzReport`] whose seed-determined core is byte-stable.
//!
//! Driven by `cargo run --release -p hcg-bench --bin repro -- fuzz`.

#![warn(missing_docs)]

pub mod corpus;
pub mod edits;
pub mod gen;
pub mod oracle;
pub mod report;
pub mod shrink;

pub use edits::{random_edit, run_edit_case, EditOracleConfig};
pub use gen::{generate_model, GenConfig, OpWeights};
pub use oracle::{run_case, CaseReport, Divergence, OracleConfig};
pub use report::{FailureSummary, FuzzReport, VerifyVerdict};
pub use shrink::{shrink, ShrinkStats};

use hcg_model::parser::model_to_xml;
use std::path::PathBuf;
use std::time::Instant;

/// Configuration of one fuzz run.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzConfig {
    /// Base seed; case `i` derives its own seed from `(seed, i)`.
    pub seed: u64,
    /// Number of cases.
    pub iters: usize,
    /// Worker threads for fanning cases (`0` = available parallelism).
    pub threads: usize,
    /// Model generator tunables.
    pub gen: GenConfig,
    /// Oracle tunables (the per-case input seed is overridden per case).
    pub oracle: OracleConfig,
    /// Write raw and minimized failing models under `target/fuzz/`.
    pub write_failures: bool,
}

impl FuzzConfig {
    /// A run with everything defaulted except seed and iteration count.
    pub fn new(seed: u64, iters: usize) -> Self {
        FuzzConfig {
            seed,
            iters,
            threads: 0,
            gen: GenConfig::default(),
            oracle: OracleConfig::default(),
            write_failures: true,
        }
    }
}

/// splitmix64 — the standard 64-bit mix used to derive independent
/// per-case seeds from `(base, index)` without correlation.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seed of case `index` within a run based on `base`.
pub fn case_seed(base: u64, index: usize) -> u64 {
    splitmix64(base ^ splitmix64(index as u64))
}

/// Transient fuzz artifact directory (`target/fuzz/` at the workspace
/// root) — gitignored, safe to delete.
pub fn transient_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/fuzz")
}

/// Statically verify every generator × oracle architecture program of a
/// (minimized) failing model with `hcg-verify`, producing one verdict per
/// program for the report. Purely structural — no execution — so the
/// verdicts are deterministic and cheap even for models whose dynamic
/// behavior diverges.
fn static_verdicts(model: &hcg_model::Model) -> Vec<VerifyVerdict> {
    let mut out = Vec::new();
    for g in oracle::ORACLE_GENERATORS {
        let generator = oracle::generator_named(g);
        for arch in oracle::ORACLE_ARCHES {
            let (verdict, witness) = match generator.generate(model, arch) {
                Ok(prog) => match hcg_verify::verify_program(model, &prog) {
                    Ok(outcome) if outcome.equivalent => ("proved".to_owned(), None),
                    Ok(outcome) => (
                        "divergent".to_owned(),
                        outcome.witness.map(|w| w.to_string()),
                    ),
                    Err(e) => (format!("verify error: {e}"), None),
                },
                Err(e) => (format!("generate error: {e}"), None),
            };
            out.push(VerifyVerdict {
                generator: g,
                arch: arch.to_string(),
                verdict,
                witness,
            });
        }
    }
    out
}

/// What one fuzz case job returns from the pool.
struct CaseOutcome {
    seed: u64,
    xml: String,
    actors: usize,
    report: CaseReport,
}

/// Run `cfg.iters` fuzz cases across the exec pool and aggregate a
/// [`FuzzReport`]. Failing cases are shrunk with the oracle itself as the
/// predicate; minimized repros land under [`transient_dir`] when
/// `cfg.write_failures` is set. Finally the committed corpus is replayed
/// through the oracle.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    let start = Instant::now();
    let mut out = FuzzReport {
        seed: cfg.seed,
        iters: cfg.iters,
        threads: hcg_exec::effective_threads(cfg.threads),
        ..FuzzReport::default()
    };

    // Fan the cases across the pool. Each job is fully self-contained:
    // generate, serialize (for the digest), run the oracle.
    let jobs: Vec<_> = (0..cfg.iters)
        .map(|i| {
            let seed = case_seed(cfg.seed, i);
            let gen_cfg = cfg.gen.clone();
            let mut oracle_cfg = cfg.oracle;
            oracle_cfg.input_seed = splitmix64(seed);
            move || {
                let model = generate_model(seed, &gen_cfg);
                CaseOutcome {
                    seed,
                    xml: model_to_xml(&model),
                    actors: model.actors.len(),
                    report: run_case(&model, &oracle_cfg),
                }
            }
        })
        .collect();
    let results = hcg_exec::run_jobs(cfg.threads, jobs);

    // Aggregate sequentially, in submission order, so the digest and the
    // failure list are deterministic regardless of worker interleaving.
    let mut stage_totals: Vec<(&'static str, std::time::Duration)> = Vec::new();
    for (i, result) in results.into_iter().enumerate() {
        let seed = case_seed(cfg.seed, i);
        let case = match result {
            Ok(c) => c,
            Err(panic) => {
                out.failures.push(FailureSummary {
                    seed,
                    divergences: vec![Divergence {
                        check: "panic",
                        detail: panic.to_string(),
                    }],
                    shrink: ShrinkStats::default(),
                    repro: None,
                    verify: Vec::new(),
                });
                continue;
            }
        };
        out.cases_digest = report::fnv1a(case.xml.as_bytes(), out.cases_digest);
        out.total_actors += case.actors;
        for (stage, d) in &case.report.timings {
            match stage_totals.iter_mut().find(|(s, _)| s == stage) {
                Some((_, total)) => *total += *d,
                None => stage_totals.push((stage, *d)),
            }
        }
        if case.report.passed() {
            out.passed += 1;
            continue;
        }

        // A real divergence: shrink with the oracle as the predicate and
        // keep the minimized repro.
        let mut oracle_cfg = cfg.oracle;
        oracle_cfg.input_seed = splitmix64(case.seed);
        let model = generate_model(case.seed, &cfg.gen);
        let (small, stats) = shrink::shrink(&model, &|m| !run_case(m, &oracle_cfg).passed());
        let repro = if cfg.write_failures {
            let dir = transient_dir();
            let _ = corpus::write_repro(&dir, &format!("raw_{seed:016x}"), &model);
            corpus::write_repro(&dir, &format!("min_{seed:016x}"), &small)
                .ok()
                .map(|p| p.display().to_string())
        } else {
            None
        };
        // Run the static translation validator over the minimized model:
        // a structural divergence pins the bug to a generator, while
        // "proved" verdicts point at input-dependent or numeric causes.
        let verify = static_verdicts(&small);
        out.failures.push(FailureSummary {
            seed,
            divergences: case.report.divergences,
            shrink: stats,
            repro,
            verify,
        });
    }
    // Fold the accumulated stage timings (plus run shape) into the unified
    // telemetry schema — the non-deterministic half of the report.
    let mut telemetry = hcg_obs::MetricsSnapshot::new();
    telemetry.set_counter("fuzz.cases", cfg.iters as u64);
    telemetry.set_counter("fuzz.threads", out.threads as u64);
    for (stage, d) in &stage_totals {
        telemetry.set_gauge(&format!("fuzz.stage_seconds.{stage}"), d.as_secs_f64());
    }
    out.telemetry = telemetry;

    // Replay the committed corpus: every minimized repro must still load
    // and run through the oracle (clean, once its bug is fixed).
    if let Ok(entries) = corpus::load_corpus(&corpus::corpus_dir()) {
        for (name, model) in entries {
            let r = run_case(&model, &cfg.oracle);
            if r.passed() {
                out.corpus_replayed += 1;
            } else {
                let verify = static_verdicts(&model);
                out.failures.push(FailureSummary {
                    seed: u64::MAX,
                    divergences: r.divergences,
                    shrink: ShrinkStats {
                        attempts: 0,
                        accepted: 0,
                        initial_actors: model.actors.len(),
                        final_actors: model.actors.len(),
                    },
                    repro: Some(format!("corpus/{name}")),
                    verify,
                });
            }
        }
    }

    out.elapsed = start.elapsed();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_seeds_are_spread() {
        let seeds: std::collections::BTreeSet<u64> = (0..1000).map(|i| case_seed(0, i)).collect();
        assert_eq!(seeds.len(), 1000);
        // Different bases decorrelate.
        assert_ne!(case_seed(0, 5), case_seed(1, 5));
    }

    #[test]
    fn small_run_is_clean_and_deterministic() {
        let cfg = FuzzConfig {
            threads: 2,
            write_failures: false,
            ..FuzzConfig::new(0, 6)
        };
        let a = run_fuzz(&cfg);
        let b = run_fuzz(&cfg);
        assert_eq!(a.passed, 6, "divergences: {:?}", a.failures);
        assert_eq!(a.deterministic_json(), b.deterministic_json());
    }

    #[test]
    fn static_verdicts_prove_clean_generated_models() {
        // Any model the generator produces must statically verify for
        // every generator × oracle arch — the same property the dynamic
        // oracle checks, proven without execution.
        for i in 0..3 {
            let model = generate_model(case_seed(11, i), &GenConfig::default());
            let verdicts = static_verdicts(&model);
            assert_eq!(verdicts.len(), 6);
            for v in &verdicts {
                assert_eq!(
                    v.verdict, "proved",
                    "{} on {} for seed index {i}: {:?}",
                    v.generator, v.arch, v.witness
                );
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_the_report() {
        let mut cfg = FuzzConfig::new(42, 4);
        cfg.write_failures = false;
        cfg.threads = 1;
        let one = run_fuzz(&cfg);
        cfg.threads = 4;
        let many = run_fuzz(&cfg);
        assert_eq!(one.deterministic_json(), many.deterministic_json());
    }
}
