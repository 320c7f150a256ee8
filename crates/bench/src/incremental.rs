//! Incremental-recompilation benchmark: recompile-after-edit vs scratch.
//!
//! For every bundled paper benchmark this drives an [`EditSession`]
//! through a seeded sequence of single-actor parameter edits and, after
//! each edit, compiles the model both incrementally and from scratch for
//! every fleet generator × architecture. Whole-program identity is
//! asserted on every pair; the row records the two wall-clock totals, so
//! the reported speedup is exactly "how much faster does an edit recompile
//! because of data patching, the session's cached front end and the
//! Algorithm 1 history".
//!
//! Fresh generators are constructed for every compile on *both* sides, so
//! autotuner history never contaminates the comparison.

use crate::experiments::{benchmark_models, short_name};
use crate::fleet::{generator_named, FLEET_ARCHES, FLEET_GENERATORS};
use hcg_core::EditSession;
use hcg_model::delta::EditOp;
use hcg_model::{ActorKind, Model, ModelDelta, Param};
use hcg_obs::json::{self, Fixed};
use std::time::{Duration, Instant};

/// Tunables of one incremental-bench run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncrementalBenchConfig {
    /// Edits applied per model.
    pub edits: usize,
    /// Selects which parameter actor each edit perturbs.
    pub seed: u64,
}

impl Default for IncrementalBenchConfig {
    fn default() -> Self {
        IncrementalBenchConfig { edits: 50, seed: 0 }
    }
}

/// One model's measurements.
#[derive(Debug, Clone)]
pub struct IncrementalRow {
    /// Model short name.
    pub model: String,
    /// Edits actually applied (0 when a model has no editable parameter).
    pub edits: usize,
    /// Total wall-clock of every incremental compile after each edit.
    pub incremental: Duration,
    /// Total wall-clock of the matching from-scratch compiles.
    pub scratch: Duration,
    /// Whether every incremental/scratch program pair was identical.
    pub identical: bool,
    /// HCG programs served by patching a kept program's initialisers.
    pub programs_patched: u64,
}

impl IncrementalRow {
    /// Scratch time over incremental time.
    pub fn speedup(&self) -> f64 {
        self.scratch.as_secs_f64() / self.incremental.as_secs_f64().max(1e-12)
    }
}

/// A single-actor parameter edit against `model`, chosen by `pick` among
/// the model's editable parameter actors (`Gain`, `Saturate`, `Shr`/`Shl`,
/// `Constant`). The perturbation derives from the *current* value, so
/// successive edits of the same actor keep changing the model. Returns
/// `None` when the model has no editable parameter actor.
pub fn param_edit(model: &Model, pick: u64) -> Option<ModelDelta> {
    let candidates: Vec<&hcg_model::Actor> = model
        .actors
        .iter()
        .filter(|a| {
            matches!(
                a.kind,
                ActorKind::Gain
                    | ActorKind::Saturate
                    | ActorKind::Shr
                    | ActorKind::Shl
                    | ActorKind::Constant
            )
        })
        .collect();
    if candidates.is_empty() {
        // No parameter actor (e.g. the DCT benchmark is inport → intensive
        // actor → outport): re-assert an inport's declared type. The value
        // is unchanged, so the edit is data-only and the kept program is
        // patched all the same.
        let inport = model.actors.iter().find(|a| a.kind == ActorKind::Inport)?;
        let ty = inport.param("type")?.clone();
        return Some(ModelDelta::single(EditOp::SetParam {
            name: inport.name.clone(),
            param: "type".to_owned(),
            value: ty,
        }));
    }
    let a = candidates.get(pick as usize % candidates.len())?;
    let (param, value) = match a.kind {
        ActorKind::Gain => {
            let cur = match a.param("gain") {
                Some(Param::Float(f)) => *f,
                _ => 1.0,
            };
            ("gain", Param::Float(cur + 0.25))
        }
        ActorKind::Saturate => {
            let cur = match a.param("min") {
                Some(Param::Float(f)) => *f,
                _ => -1.0,
            };
            ("min", Param::Float(cur - 0.25))
        }
        ActorKind::Shr | ActorKind::Shl => {
            let cur = match a.param("amount") {
                Some(Param::Int(i)) => *i,
                _ => 0,
            };
            ("amount", Param::Int((cur + 1) % 4))
        }
        ActorKind::Constant => {
            let value = match a.param("value") {
                Some(Param::Float(f)) => Param::Float(f + 1.0),
                Some(Param::FloatVec(v)) => Param::FloatVec(v.iter().map(|x| x + 1.0).collect()),
                _ => return None,
            };
            ("value", value)
        }
        _ => unreachable!("candidate pool is filtered by kind"),
    };
    Some(ModelDelta::single(EditOp::SetParam {
        name: a.name.clone(),
        param: param.to_owned(),
        value,
    }))
}

/// Run the benchmark over every bundled paper model.
///
/// # Panics
///
/// Panics when a compile fails — the bundled models are valid and stay
/// valid under parameter edits, so a failure is a session bug.
pub fn run_incremental_bench(cfg: &IncrementalBenchConfig) -> Vec<IncrementalRow> {
    benchmark_models()
        .into_iter()
        .map(|m| bench_model(m, cfg))
        .collect()
}

/// Total scratch time over total incremental time across `rows`.
pub fn overall_speedup(rows: &[IncrementalRow]) -> f64 {
    let total = |time: fn(&IncrementalRow) -> Duration| -> f64 {
        rows.iter().map(|r| time(r).as_secs_f64()).sum()
    };
    total(|r| r.scratch) / total(|r| r.incremental).max(1e-12)
}

/// The run as the committed `BENCH_incremental.json` schema.
pub fn incremental_json(cfg: &IncrementalBenchConfig, rows: &[IncrementalRow]) -> String {
    let mut out = String::new();
    json::object(&mut out, |o| {
        o.field("experiment", "incremental")
            .array("models", |a| {
                for r in rows {
                    a.object(|o| {
                        o.field("model", &r.model)
                            .field("edits", r.edits)
                            .field(
                                "incremental_ms",
                                Fixed(r.incremental.as_secs_f64() * 1e3, 3),
                            )
                            .field("scratch_ms", Fixed(r.scratch.as_secs_f64() * 1e3, 3))
                            .field("speedup", Fixed(r.speedup(), 3))
                            .field("identical", r.identical)
                            .field("programs_patched", r.programs_patched);
                    });
                }
            })
            .field("edits_per_model", cfg.edits)
            .field("overall_speedup", Fixed(overall_speedup(rows), 3))
            .field("identical_outputs", rows.iter().all(|r| r.identical));
    });
    out
}

fn bench_model(model: Model, cfg: &IncrementalBenchConfig) -> IncrementalRow {
    let name = short_name(&model);
    let _span = hcg_obs::span_with("incremental", || format!("bench/{name}"));
    let mut session = EditSession::new(model);
    // Warm the session once so the measured loop isolates the *edit*
    // recompile cost (a cold first compile is identical to scratch by
    // definition and would only dilute both sides equally).
    for g in FLEET_GENERATORS {
        for arch in FLEET_ARCHES {
            session
                .generate(generator_named(g).as_ref(), arch)
                .unwrap_or_else(|e| panic!("{name}: warmup {g} on {arch}: {e}"));
        }
    }

    let mut incremental = Duration::ZERO;
    let mut scratch = Duration::ZERO;
    let mut identical = true;
    let mut edits = 0usize;
    for i in 0..cfg.edits {
        let Some(delta) = param_edit(session.model(), cfg.seed.wrapping_add(i as u64)) else {
            break;
        };
        session
            .apply_delta(&delta)
            .unwrap_or_else(|e| panic!("{name}: edit {i}: {e}"));
        edits += 1;
        for g in FLEET_GENERATORS {
            for arch in FLEET_ARCHES {
                let t0 = Instant::now();
                let inc = session
                    .generate(generator_named(g).as_ref(), arch)
                    .unwrap_or_else(|e| panic!("{name}: incremental {g} on {arch}: {e}"));
                incremental += t0.elapsed();

                let t0 = Instant::now();
                let fresh = generator_named(g)
                    .generate(session.model(), arch)
                    .unwrap_or_else(|e| panic!("{name}: scratch {g} on {arch}: {e}"));
                scratch += t0.elapsed();

                identical &= inc == fresh;
            }
        }
    }
    IncrementalRow {
        model: name,
        edits,
        incremental,
        scratch,
        identical,
        programs_patched: session.stats().programs_patched,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_benchmark_model_has_a_param_edit() {
        for m in benchmark_models() {
            let d = param_edit(&m, 0);
            assert!(d.is_some(), "{} has no editable parameter", m.name);
            let next = d.unwrap().apply(&m).unwrap();
            assert!(next.front_end().is_ok(), "{}: edit broke the model", m.name);
            let has_param_actor = m.actors.iter().any(|a| {
                matches!(
                    a.kind,
                    ActorKind::Gain
                        | ActorKind::Saturate
                        | ActorKind::Shr
                        | ActorKind::Shl
                        | ActorKind::Constant
                )
            });
            if has_param_actor {
                assert_ne!(next, m, "{}: edit was a no-op", m.name);
            } else {
                // The fallback re-asserts an inport type: value-preserving
                // by design, so a data-only edit.
                assert_eq!(next, m, "{}: fallback edit should preserve value", m.name);
            }
        }
    }

    #[test]
    fn small_bench_is_identical_and_counts_edits() {
        let cfg = IncrementalBenchConfig { edits: 2, seed: 0 };
        let rows = run_incremental_bench(&cfg);
        assert_eq!(rows.len(), benchmark_models().len());
        for r in &rows {
            assert!(
                r.identical,
                "{}: incremental differed from scratch",
                r.model
            );
            assert_eq!(r.edits, 2, "{}", r.model);
        }
    }
}
