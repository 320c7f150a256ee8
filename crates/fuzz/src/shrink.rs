//! Delta-debugging shrinker for failing fuzz models.
//!
//! Given a model and a failure predicate, the shrinker greedily applies
//! small structural reductions — bypassing an actor, replacing a value by
//! a fresh inport, dropping sinks and dead producers — and keeps a
//! candidate only when it is *strictly smaller*, still builds into a
//! valid model, and still fails the predicate. Strict shrinkage per
//! accepted step bounds the loop, so shrinking always terminates.
//!
//! The predicate sees whole models, so it can be anything from "contains
//! an `Abd` actor" (the synthetic-miscompile demo) to "the differential
//! oracle reports a divergence" (the real fuzz loop).

use hcg_model::{ActorId, ActorKind, Model, ModelBuilder, Param, PortRef};
use std::collections::BTreeMap;

/// Counters describing one shrink run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShrinkStats {
    /// Candidate reductions tried (including rejected ones).
    pub attempts: usize,
    /// Reductions accepted (each removes at least one actor).
    pub accepted: usize,
    /// Actor count of the original failing model.
    pub initial_actors: usize,
    /// Actor count of the minimized model.
    pub final_actors: usize,
}

/// Minimize `model` while `fails` keeps returning `true`.
///
/// Returns the smallest model found plus [`ShrinkStats`]. The input model
/// itself is returned unchanged when it does not fail the predicate (there
/// is nothing to preserve while shrinking) or when no reduction applies.
pub fn shrink(model: &Model, fails: &dyn Fn(&Model) -> bool) -> (Model, ShrinkStats) {
    let mut stats = ShrinkStats {
        attempts: 0,
        accepted: 0,
        initial_actors: model.actors.len(),
        final_actors: model.actors.len(),
    };
    if !fails(model) {
        return (model.clone(), stats);
    }

    let mut current = model.clone();
    loop {
        let mut improved = false;
        for candidate in reductions(&current) {
            stats.attempts += 1;
            if candidate.actors.len() < current.actors.len() && fails(&candidate) {
                current = candidate;
                stats.accepted += 1;
                improved = true;
                break; // restart the sweep on the smaller model
            }
        }
        if !improved {
            break;
        }
    }
    stats.final_actors = current.actors.len();
    (current, stats)
}

/// Enumerate all valid one-step reductions of `model`, smallest-result
/// first. Every returned model builds (`ModelBuilder::build` succeeded),
/// so callers only need to re-check the failure predicate.
fn reductions(model: &Model) -> Vec<Model> {
    let mut out = Vec::new();

    // 1. Drop a dead producer: any single-output actor nobody consumes.
    //    (Dropping outports below cascades through this rule.)
    for a in &model.actors {
        if a.kind.output_count() == 1 && model.consumers(PortRef::new(a.id, 0)).is_empty() {
            push_if_valid(&mut out, remove_actors(model, &[a.id], &[]));
        }
    }

    // 2. Drop one outport, if more than one remains (keeping at least one
    //    sink keeps the model meaningful to every oracle).
    let outports: Vec<ActorId> = model
        .actors
        .iter()
        .filter(|a| a.kind == ActorKind::Outport)
        .map(|a| a.id)
        .collect();
    if outports.len() > 1 {
        for &o in &outports {
            push_if_valid(&mut out, remove_actors(model, &[o], &[]));
        }
    }

    // 3. Bypass an actor: rewire the consumers of its output to the
    //    producer of one of its inputs, then drop the actor. Only type-
    //    preserving bypasses survive the rebuild.
    for a in &model.actors {
        if a.kind.output_count() != 1 || a.kind.input_count() == 0 {
            continue;
        }
        for j in 0..a.kind.input_count() {
            let Some(src) = producer(model, PortRef::new(a.id, j)) else {
                continue;
            };
            push_if_valid(
                &mut out,
                remove_actors(model, &[a.id], &[(PortRef::new(a.id, 0), src)]),
            );
        }
    }

    // 4. Promote an actor's output to a fresh inport of the same type,
    //    cutting off its whole input subtree (GC'd by rule 1 over the
    //    following sweeps).
    if let Ok(types) = model.infer_types() {
        for a in &model.actors {
            if a.kind.output_count() != 1
                || matches!(a.kind, ActorKind::Inport | ActorKind::Constant)
            {
                continue;
            }
            let ty = types.output(a.id, 0);
            push_if_valid(&mut out, promote_to_inport(model, a.id, ty));
        }
    }

    out
}

fn push_if_valid(out: &mut Vec<Model>, candidate: Option<Model>) {
    if let Some(m) = candidate {
        out.push(m);
    }
}

/// Producer of the value feeding input port `input`, if connected.
fn producer(model: &Model, input: PortRef) -> Option<PortRef> {
    model
        .connections
        .iter()
        .find(|c| c.to == input)
        .map(|c| c.from)
}

/// Rebuild `model` without the actors in `drop`, applying `rewires`
/// (`from` port → replacement port) to surviving connections. Returns
/// `None` when the candidate does not build.
fn remove_actors(model: &Model, drop: &[ActorId], rewires: &[(PortRef, PortRef)]) -> Option<Model> {
    let keep: Vec<&hcg_model::Actor> = model
        .actors
        .iter()
        .filter(|a| !drop.contains(&a.id))
        .collect();
    let renumber: BTreeMap<ActorId, ActorId> = keep
        .iter()
        .enumerate()
        .map(|(i, a)| (a.id, ActorId(i)))
        .collect();

    let mut b = ModelBuilder::new(model.name.clone());
    for a in &keep {
        let id = b.add_actor(a.name.clone(), a.kind);
        debug_assert_eq!(id, renumber[&a.id]);
        for (k, v) in &a.params {
            b.set_param(id, k.clone(), v.clone());
        }
    }
    for c in &model.connections {
        let from = rewires
            .iter()
            .find(|(old, _)| *old == c.from)
            .map(|(_, new)| *new)
            .unwrap_or(c.from);
        let (Some(&nf), Some(&nt)) = (renumber.get(&from.actor), renumber.get(&c.to.actor)) else {
            continue; // connection touched a dropped actor
        };
        b.connect(nf, from.port, nt, c.to.port);
    }
    b.build().ok()
}

/// Replace actor `id` by a fresh `Inport` of type `ty`; its input
/// connections disappear, so its former operand subtree becomes dead.
fn promote_to_inport(model: &Model, id: ActorId, ty: hcg_model::SignalType) -> Option<Model> {
    let mut b = ModelBuilder::new(model.name.clone());
    for a in &model.actors {
        if a.id == id {
            let nid = b.add_actor(format!("pin_{}", a.name), ActorKind::Inport);
            b.set_param(nid, "type", Param::Str(ty.to_string()));
        } else {
            let nid = b.add_actor(a.name.clone(), a.kind);
            debug_assert_eq!(nid, a.id);
            for (k, v) in &a.params {
                b.set_param(nid, k.clone(), v.clone());
            }
        }
    }
    for c in &model.connections {
        if c.to.actor == id {
            continue; // the inport takes no inputs
        }
        b.connect(c.from.actor, c.from.port, c.to.actor, c.to.port);
    }
    b.build().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_model, GenConfig};

    fn has_kind(m: &Model, kind: ActorKind) -> bool {
        m.actors.iter().any(|a| a.kind == kind)
    }

    #[test]
    fn shrink_preserves_predicate_and_validity() {
        let cfg = GenConfig::default();
        let fails = |m: &Model| has_kind(m, ActorKind::Mul);
        let mut shrunk_any = false;
        for seed in 0..60 {
            let m = generate_model(seed, &cfg);
            if !fails(&m) {
                continue;
            }
            let (small, stats) = shrink(&m, &fails);
            assert!(fails(&small), "seed {seed}: predicate lost");
            small.infer_types().unwrap();
            assert!(stats.final_actors <= stats.initial_actors);
            if stats.final_actors < stats.initial_actors {
                shrunk_any = true;
            }
        }
        assert!(shrunk_any, "no model shrank at all");
    }

    #[test]
    fn non_failing_model_returned_unchanged() {
        let m = generate_model(0, &GenConfig::default());
        let (same, stats) = shrink(&m, &|_| false);
        assert_eq!(same, m);
        assert_eq!(stats.accepted, 0);
    }

    #[test]
    fn shrink_is_deterministic() {
        let cfg = GenConfig::default();
        let fails = |m: &Model| has_kind(m, ActorKind::Add);
        for seed in 0..20 {
            let m = generate_model(seed, &cfg);
            let (a, _) = shrink(&m, &fails);
            let (b, _) = shrink(&m, &fails);
            assert_eq!(a, b, "seed {seed}");
        }
    }
}
