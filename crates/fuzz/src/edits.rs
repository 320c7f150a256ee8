//! Metamorphic edit oracle: incremental recompilation must be invisible.
//!
//! [`run_edit_case`] grows a random model ([`crate::gen`]), drives an
//! [`EditSession`] through a seeded sequence of random edits —
//! reparameterise, retype, rewire, add, remove-by-bypass — and after
//! *every* edit compiles the model both incrementally and from scratch
//! for every oracle generator × architecture. The invariant is strict
//! equality of the whole program, constant initialisers included (the
//! emitted C does not show them): the data patching and the Algorithm 1
//! history in [`EditSession`] may only skip work, never change output.
//!
//! Each proposed edit is validated on a throwaway clone before being
//! applied (`front_end().is_ok()`), so the session mostly sees valid
//! models; a rejected proposal is retried a bounded number of times and
//! then skipped. Both sides of every comparison use *fresh* generators,
//! so autotuner history cannot mask (or cause) a divergence.

use crate::oracle::{generator_named, Divergence, ORACLE_ARCHES, ORACLE_GENERATORS};
use hcg_core::EditSession;
use hcg_model::delta::EditOp;
use hcg_model::schedule::schedule;
use hcg_model::{ActorKind, DataType, Model, ModelDelta, Param};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Tunables of one edit-oracle case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EditOracleConfig {
    /// Edits applied per case (each followed by a full identity check).
    pub edits: usize,
    /// Actor-count ceiling: `add` proposals stop above this.
    pub max_actors: usize,
}

impl Default for EditOracleConfig {
    fn default() -> Self {
        EditOracleConfig {
            edits: 5,
            max_actors: 40,
        }
    }
}

/// Binary element-wise kinds legal on every dtype (retype vocabulary).
const BINARY_ANY: [ActorKind; 6] = [
    ActorKind::Add,
    ActorKind::Sub,
    ActorKind::Mul,
    ActorKind::Min,
    ActorKind::Max,
    ActorKind::Abd,
];

/// Binary kinds additionally legal on integers.
const BINARY_INT: [ActorKind; 3] = [ActorKind::BitAnd, ActorKind::BitOr, ActorKind::BitXor];

/// Unary retype vocabulary for a dtype.
fn unary_kinds(d: DataType) -> &'static [ActorKind] {
    if d.is_float() {
        &[ActorKind::Abs, ActorKind::Neg]
    } else if d.is_signed() {
        &[ActorKind::Abs, ActorKind::Neg, ActorKind::BitNot]
    } else {
        &[ActorKind::BitNot]
    }
}

/// Propose one random edit against `model`, retrying until the edited
/// model still has a valid front end. Returns `None` when no valid edit
/// was found within the attempt budget (rare: tiny models where every
/// family is infeasible).
///
/// `names` is a monotone counter for fresh actor names (`ed{n}`,
/// `edo{n}`), owned by the caller so names stay unique across a whole
/// edit sequence.
pub fn random_edit(
    model: &Model,
    rng: &mut StdRng,
    names: &mut usize,
    max_actors: usize,
) -> Option<ModelDelta> {
    for _ in 0..8 {
        let Some(delta) = propose(model, rng, names, max_actors) else {
            continue;
        };
        let Ok(next) = delta.apply(model) else {
            continue;
        };
        if next.front_end().is_ok() {
            return Some(delta);
        }
    }
    None
}

/// One unvalidated proposal from a weighted family draw.
fn propose(
    model: &Model,
    rng: &mut StdRng,
    names: &mut usize,
    max_actors: usize,
) -> Option<ModelDelta> {
    let types = model.infer_types().expect("edit-oracle models are valid");
    let positions = schedule(model)
        .expect("edit-oracle models schedule")
        .positions();

    // Candidate pools per family.
    let reparam: Vec<&hcg_model::Actor> = model
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
    let retype: Vec<&hcg_model::Actor> = model
        .actors
        .iter()
        .filter(|a| {
            BINARY_ANY.contains(&a.kind)
                || BINARY_INT.contains(&a.kind)
                || matches!(
                    a.kind,
                    ActorKind::Abs
                        | ActorKind::Neg
                        | ActorKind::BitNot
                        | ActorKind::Shr
                        | ActorKind::Shl
                )
        })
        .collect();
    // A rewirable input: its consumer is a non-port actor and some other
    // producer of the exact same signal type is scheduled strictly
    // earlier (so plain dataflow edges stay forward).
    let rewire: Vec<(String, usize, Vec<String>)> = model
        .connections
        .iter()
        .filter_map(|c| {
            let to = model.actor(c.to.actor);
            if matches!(to.kind, ActorKind::Outport) {
                return None;
            }
            let want = types.output(c.from.actor, 0);
            let alts: Vec<String> = model
                .actors
                .iter()
                .filter(|p| {
                    p.kind.output_count() == 1
                        && p.id != c.from.actor
                        && positions[p.id.0] < positions[c.to.actor.0]
                        && types.output(p.id, 0) == want
                })
                .map(|p| p.name.clone())
                .collect();
            (!alts.is_empty()).then(|| (to.name.clone(), c.to.port, alts))
        })
        .collect();
    let taps: Vec<&hcg_model::Actor> = model
        .actors
        .iter()
        .filter(|a| a.kind.output_count() == 1)
        .collect();
    // Bypassable: one input, one output, same signal type through, and a
    // driver to splice consumers onto.
    let bypass: Vec<&hcg_model::Actor> = model
        .actors
        .iter()
        .filter(|a| {
            a.kind.input_count() == 1
                && a.kind.output_count() == 1
                && model
                    .driver(hcg_model::PortRef::new(a.id, 0))
                    .is_some_and(|d| types.output(d.actor, 0) == types.output(a.id, 0))
        })
        .collect();

    // Weighted draw over feasible families.
    let can_add = model.actors.len() + 2 <= max_actors && !taps.is_empty();
    let menu: Vec<(u32, u8)> = [
        (3, 0u8, !reparam.is_empty()),
        (3, 1, !retype.is_empty()),
        (2, 2, !rewire.is_empty()),
        (2, 3, can_add),
        (2, 4, !bypass.is_empty()),
    ]
    .into_iter()
    .filter_map(|(w, tag, ok)| ok.then_some((w, tag)))
    .collect();
    if menu.is_empty() {
        return None;
    }
    let total: u32 = menu.iter().map(|(w, _)| w).sum();
    let mut roll = rng.gen_range(0..total);
    let mut tag = menu[0].1;
    for (w, t) in &menu {
        if roll < *w {
            tag = *t;
            break;
        }
        roll -= w;
    }

    match tag {
        // Reparameterise: small integral perturbations that keep every
        // parameter in its legal range.
        0 => {
            let a = reparam[rng.gen_range(0..reparam.len())];
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
                        Some(Param::FloatVec(v)) => {
                            Param::FloatVec(v.iter().map(|x| x + 1.0).collect())
                        }
                        _ => return None,
                    };
                    ("value", value)
                }
                _ => unreachable!("reparam pool is filtered by kind"),
            };
            Some(ModelDelta::single(EditOp::SetParam {
                name: a.name.clone(),
                param: param.to_owned(),
                value,
            }))
        }
        // Retype within the same-arity, same-dtype-legality family.
        1 => {
            let a = retype[rng.gen_range(0..retype.len())];
            let dtype = types.output(a.id, 0).dtype;
            let pool: Vec<ActorKind> =
                if BINARY_ANY.contains(&a.kind) || BINARY_INT.contains(&a.kind) {
                    BINARY_ANY
                        .iter()
                        .chain(
                            dtype
                                .is_int()
                                .then_some(BINARY_INT.iter())
                                .into_iter()
                                .flatten(),
                        )
                        .copied()
                        .filter(|k| *k != a.kind)
                        .collect()
                } else if matches!(a.kind, ActorKind::Shr | ActorKind::Shl) {
                    vec![if a.kind == ActorKind::Shr {
                        ActorKind::Shl
                    } else {
                        ActorKind::Shr
                    }]
                } else {
                    unary_kinds(dtype)
                        .iter()
                        .copied()
                        .filter(|k| *k != a.kind)
                        .collect()
                };
            if pool.is_empty() {
                return None;
            }
            Some(ModelDelta::single(EditOp::SetKind {
                name: a.name.clone(),
                kind: pool[rng.gen_range(0..pool.len())],
            }))
        }
        // Rewire an input to an alternative same-typed producer.
        2 => {
            let (to_name, to_port, alts) = &rewire[rng.gen_range(0..rewire.len())];
            let from = alts[rng.gen_range(0..alts.len())].clone();
            Some(ModelDelta::single(EditOp::Connect {
                from: (from, 0),
                to: (to_name.clone(), *to_port),
            }))
        }
        // Add a unary tap on an existing value, sunk into a new outport.
        3 => {
            let src = taps[rng.gen_range(0..taps.len())];
            let kinds = unary_kinds(types.output(src.id, 0).dtype);
            let kind = kinds[rng.gen_range(0..kinds.len())];
            let n = *names;
            *names += 1;
            Some(ModelDelta {
                ops: vec![
                    EditOp::AddActor {
                        name: format!("ed{n}"),
                        kind,
                        params: BTreeMap::new(),
                    },
                    EditOp::AddActor {
                        name: format!("edo{n}"),
                        kind: ActorKind::Outport,
                        params: BTreeMap::new(),
                    },
                    EditOp::Connect {
                        from: (src.name.clone(), 0),
                        to: (format!("ed{n}"), 0),
                    },
                    EditOp::Connect {
                        from: (format!("ed{n}"), 0),
                        to: (format!("edo{n}"), 0),
                    },
                ],
            })
        }
        // Remove a pass-through actor, splicing its consumers onto its
        // driver.
        _ => {
            let a = bypass[rng.gen_range(0..bypass.len())];
            let driver = model
                .driver(hcg_model::PortRef::new(a.id, 0))
                .expect("bypass pool requires a driver");
            let driver_name = model.actor(driver.actor).name.clone();
            let mut ops: Vec<EditOp> = model
                .consumers(hcg_model::PortRef::new(a.id, 0))
                .into_iter()
                .map(|c| EditOp::Connect {
                    from: (driver_name.clone(), driver.port),
                    to: (model.actor(c.actor).name.clone(), c.port),
                })
                .collect();
            ops.push(EditOp::RemoveActor {
                name: a.name.clone(),
            });
            Some(ModelDelta { ops })
        }
    }
}

/// Run one edit-oracle case: seed a model, apply `cfg.edits` random edits
/// through an [`EditSession`], and after each edit check that the
/// incremental program equals a from-scratch compile for every
/// oracle generator × architecture. Returns every divergence found (empty
/// means the case passed).
pub fn run_edit_case(
    seed: u64,
    gen_cfg: &crate::GenConfig,
    cfg: &EditOracleConfig,
) -> Vec<Divergence> {
    let _span = hcg_obs::span_with("fuzz", || format!("edit-case/{seed:016x}"));
    let base = crate::generate_model(seed, gen_cfg);
    let mut session = EditSession::new(base);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut names = 0usize;
    let mut divergences = Vec::new();

    for step in 0..cfg.edits {
        let Some(delta) = random_edit(session.model(), &mut rng, &mut names, cfg.max_actors) else {
            continue;
        };
        if let Err(e) = session.apply_delta(&delta) {
            divergences.push(Divergence {
                check: "edit-apply",
                detail: format!("step {step}: {delta:?}: {e}"),
            });
            return divergences;
        }
        for g in ORACLE_GENERATORS {
            for arch in ORACLE_ARCHES {
                // Fresh generators on both sides: autotuner history must
                // not be able to mask or cause a divergence.
                let inc = session.generate(generator_named(g).as_ref(), arch);
                let fresh = generator_named(g).generate(session.model(), arch);
                match (inc, fresh) {
                    (Ok(a), Ok(b)) => {
                        if a != b {
                            divergences.push(Divergence {
                                check: "edit-identity",
                                detail: format!(
                                    "step {step}: {g} on {arch}: incremental program differs from scratch"
                                ),
                            });
                        }
                    }
                    (Err(a), Err(b)) if a == b => {}
                    (a, b) => {
                        divergences.push(Divergence {
                            check: "edit-compile",
                            detail: format!(
                                "step {step}: {g} on {arch}: incremental={:?} scratch={:?}",
                                a.err(),
                                b.err()
                            ),
                        });
                    }
                }
            }
        }
    }
    divergences
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case_seed;

    #[test]
    fn edit_cases_pass_for_many_seeds() {
        let gen_cfg = crate::GenConfig::default();
        let cfg = EditOracleConfig::default();
        for i in 0..6 {
            let seed = case_seed(0xED17, i);
            let d = run_edit_case(seed, &gen_cfg, &cfg);
            assert!(d.is_empty(), "seed {seed:#x} diverged: {d:?}");
        }
    }

    #[test]
    fn edit_cases_are_deterministic() {
        let gen_cfg = crate::GenConfig::default();
        let cfg = EditOracleConfig::default();
        let seed = case_seed(7, 3);
        assert_eq!(
            run_edit_case(seed, &gen_cfg, &cfg),
            run_edit_case(seed, &gen_cfg, &cfg)
        );
    }

    #[test]
    fn random_edits_preserve_validity() {
        let gen_cfg = crate::GenConfig::default();
        for i in 0..10 {
            let seed = case_seed(99, i);
            let mut model = crate::generate_model(seed, &gen_cfg);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut names = 0;
            for _ in 0..4 {
                if let Some(d) = random_edit(&model, &mut rng, &mut names, 40) {
                    model = d.apply(&model).expect("validated edit applies");
                    model
                        .front_end()
                        .unwrap_or_else(|e| panic!("seed {seed:#x}: {e}"));
                }
            }
        }
    }
}
