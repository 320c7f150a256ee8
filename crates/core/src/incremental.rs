//! [`EditSession`]: incremental recompilation with dirty-region splicing.
//!
//! A [`CompileSession`](crate::CompileSession) caches front-end artifacts
//! for *one* model and drops everything when the model changes. An
//! `EditSession` instead accepts a stream of [`ModelDelta`]s and, after
//! each edit, recompiles only what the edit can affect:
//!
//! * **diff** — [`ModelDelta::touched_actors`] names the directly edited
//!   actors; [`downstream_closure`] extends that to every actor whose
//!   value can observe the change (flowing through `UnitDelay` state).
//!   Everything else is *clean*.
//! * **invalidate** — per-actor front-end artifacts for clean actors are
//!   reused: output types seed [`Model::infer_types_seeded`], dispatch
//!   classes are replayed from the last good compile, and the schedule
//!   survives any non-structural delta.
//! * **splice** — batch-region *plans* (the expensive Algorithm-2
//!   instruction mapping) are cached by a structural region signature in
//!   a [`PlanCache`] per instruction set; regions untouched by the dirty
//!   set admit their cached step list and only dirty regions are
//!   re-mapped. The whole program is then re-emitted deterministically,
//!   so the result is byte-identical to a from-scratch compile *by
//!   construction* — the cache only short-circuits work whose output is
//!   provably unchanged.
//! * **patch** — a [`ModelDelta::data_only`] edit (a `Constant` value, a
//!   `Gain` factor or a `UnitDelay` initial state, same shape) changes no
//!   code, only constant data. The session keeps the last HCG program per
//!   (arch, [`HcgOptions`]) together with the buffers whose initialisers
//!   come from data parameters; after a data-only edit it clones that
//!   program and rewrites those initialisers through the generator's own
//!   [`data_initialiser`], skipping the three phases above. Any other
//!   delta drops the kept programs.
//!
//! Counters live in the session's [`IncrementalStats`]
//! ([`EditSession::stats`]); each phase opens an `incremental` span for
//! the trace timeline.

use crate::batch::{form_regions_probed, plan_region_cached, PlanCache};
use crate::dispatch::{classify, Dispatch};
use crate::generator::{data_initialiser, debug_lint, CodeGenerator, GenContext, GenError};
use crate::hcg::{compose_into, HcgGen, HcgOptions};
use crate::pass::{PassManager, PipelineCtx};
use hcg_isa::{Arch, CostOverlay};
use hcg_kernels::{Autotuner, Meter};
use hcg_model::delta::downstream_closure;
use hcg_model::op::ElemOp;
use hcg_model::schedule::{schedule, Schedule};
use hcg_model::{ActorId, DataType, FrontEnd, Model, ModelDelta, SignalType};
use hcg_vm::{BufferId, Program};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

/// Work-avoidance counters for one [`EditSession`].
///
/// `regions_admitted` / `regions_invalidated` partition every batch region
/// seen by [`EditSession::generate`] since the last edit by whether its
/// read/write effect set intersects the dirty actors; `plans_spliced`
/// counts regions whose instruction mapping actually re-ran (a cache miss
/// — admitted regions and isomorphic dirty regions hit the plan cache).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Deltas applied via [`EditSession::apply_delta`].
    pub edits_applied: u64,
    /// Regions whose effects avoid the dirty set (plan reusable).
    pub regions_admitted: u64,
    /// Regions whose effects intersect the dirty set.
    pub regions_invalidated: u64,
    /// Regions whose plan was re-mapped and spliced into the program.
    pub plans_spliced: u64,
    /// Plan-cache hits across all generates.
    pub plan_hits: u64,
    /// Plan-cache misses across all generates.
    pub plan_misses: u64,
    /// Actor output types seeded into inference instead of recomputed.
    pub types_seeded: u64,
    /// Schedules reused across a non-structural delta.
    pub schedules_reused: u64,
    /// Per-actor dispatch classifications replayed from the last compile.
    pub dispatch_reused: u64,
    /// Algorithm-1 kernel selections adopted from the session history
    /// instead of re-measured by quick-search.
    pub kernel_selections_reused: u64,
    /// Programs served by patching the initialisers of a kept program
    /// after data-only edits, instead of regenerating.
    pub programs_patched: u64,
}

/// An editable compilation session: apply [`ModelDelta`]s and recompile
/// incrementally, reusing per-actor front-end artifacts and per-region
/// instruction-mapping plans that the edit provably cannot affect.
///
/// # Examples
///
/// ```
/// use hcg_core::emit::to_c_source;
/// use hcg_core::{EditSession, HcgGen};
/// use hcg_isa::Arch;
/// use hcg_model::delta::EditOp;
/// use hcg_model::{library, ModelDelta, Param};
///
/// # fn main() -> Result<(), hcg_core::GenError> {
/// let mut session = EditSession::new(library::fig4_model());
/// let hcg = HcgGen::new();
/// let before = session.generate(&hcg, Arch::Neon128)?;
/// session.apply_delta(&ModelDelta::single(EditOp::SetParam {
///     name: "Shr".into(),
///     param: "amount".into(),
///     value: Param::Int(2),
/// }))?;
/// let after = session.generate(&hcg, Arch::Neon128)?;
/// assert_ne!(to_c_source(&before), to_c_source(&after));
/// assert!(session.stats().types_seeded > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct EditSession {
    model: Model,
    /// Front end for the *current* model; `None` after an edit.
    front: Option<Result<FrontEnd, GenError>>,
    /// Dispatch classes for the current model; valid iff `front` is `Ok`.
    dispatch: Option<Vec<Dispatch>>,
    /// Per-actor output types from the last *successful* front end, keyed
    /// by name (names are stable across edits; `ActorId`s are not).
    known_types: BTreeMap<String, SignalType>,
    /// Per-actor dispatch classes from the last successful compile.
    known_dispatch: BTreeMap<String, Dispatch>,
    /// Schedule of the last successful front end; survives edits until a
    /// structural delta invalidates it.
    prev_schedule: Option<Schedule>,
    /// Actors dirtied since the last successful front-end rebuild.
    dirty: BTreeSet<String>,
    /// The dirty set consumed by the last rebuild — what `generate`
    /// charges region invalidation against.
    last_dirty: BTreeSet<String>,
    /// Admission probes and region plans per builtin instruction set,
    /// keyed by (arch, cost-overlay fingerprint): both are only valid for
    /// the set they were computed on.
    memos: BTreeMap<(Arch, String), SetMemo>,
    /// Algorithm-1 selection history persisted across edits. Kernel
    /// selection is keyed by `(actor kind, dtype, size)` — untouched by
    /// any edit that leaves those alone — and quick-search *executes*
    /// candidate kernels to cost them, which dominates compile time for
    /// intensive models. Only maintained under the deterministic
    /// [`Meter::OpCount`]: a wall-clock selection replayed from history
    /// could diverge from what a fresh compile would measure.
    tuner: Option<Autotuner>,
    /// The last HCG program per (arch, options), valid for the current
    /// model up to its data initialisers; cleared by any delta that is
    /// not data-only.
    kept: Vec<KeptProgram>,
    stats: IncrementalStats,
}

/// An HCG program kept for patching, with the configuration it was
/// compiled under.
#[derive(Debug)]
struct KeptProgram {
    arch: Arch,
    options: HcgOptions,
    program: Program,
    /// `(actor, buffer)` for every buffer initialised from a data
    /// parameter (see [`GenContext::data_buffers`]).
    data: Vec<(ActorId, BufferId)>,
}

impl KeptProgram {
    /// Rewrite every data initialiser from `model`'s current parameters.
    fn patch(&mut self, model: &Model) {
        for &(actor, buf) in &self.data {
            self.program.buffers[buf.0].init = data_initialiser(&model.actors[actor.0]);
        }
    }
}

/// The memos an [`EditSession`] keeps for one instruction set.
#[derive(Debug, Default)]
struct SetMemo {
    /// Batch-admission probe results (see [`form_regions_probed`]).
    probes: BTreeMap<(ElemOp, DataType), bool>,
    /// Region plans by structural signature.
    plans: PlanCache,
}

impl EditSession {
    /// A session owning `model`. Nothing is computed until first use.
    pub fn new(model: Model) -> Self {
        EditSession {
            model,
            front: None,
            dispatch: None,
            known_types: BTreeMap::new(),
            known_dispatch: BTreeMap::new(),
            prev_schedule: None,
            dirty: BTreeSet::new(),
            last_dirty: BTreeSet::new(),
            memos: BTreeMap::new(),
            tuner: None,
            kept: Vec::new(),
            stats: IncrementalStats::default(),
        }
    }

    /// The session's current model.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Work-avoidance counters accumulated so far.
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }

    /// Apply a delta: update the model, mark the downstream closure of the
    /// touched actors dirty, and drop exactly the artifacts the edit can
    /// affect (the schedule only for structural deltas; per-actor types and
    /// dispatch stay for clean actors).
    ///
    /// A [data-only](ModelDelta::data_only) delta against a valid model
    /// only swaps in the new model: the front end, dispatch, schedule and
    /// dirty set all still hold, and [`EditSession::generate`] patches the
    /// kept programs' initialisers. Any other delta drops the kept
    /// programs.
    ///
    /// # Errors
    ///
    /// Returns [`GenError::Model`] when an op fails to apply (unknown or
    /// duplicate actor name); the session is left unchanged in that case.
    pub fn apply_delta(&mut self, delta: &ModelDelta) -> Result<(), GenError> {
        let _span = hcg_obs::span("incremental", "diff");
        if matches!(self.front, Some(Ok(_))) && delta.data_only(&self.model) {
            self.model = delta.apply(&self.model)?;
            self.stats.edits_applied += 1;
            return Ok(());
        }
        let touched = delta.touched_actors(&self.model);
        let next = delta.apply(&self.model)?;
        self.kept.clear();
        self.dirty.extend(downstream_closure(&next, &touched));
        if delta.structural() {
            self.prev_schedule = None;
        }
        self.model = next;
        self.front = None;
        self.dispatch = None;
        self.stats.edits_applied += 1;
        Ok(())
    }

    /// Validate the current model through the incremental front end.
    ///
    /// # Errors
    ///
    /// Returns [`GenError::Model`] when the model is invalid.
    pub fn validate(&mut self) -> Result<(), GenError> {
        self.ensure_front()
    }

    /// The front end for the current model, rebuilt incrementally.
    ///
    /// # Errors
    ///
    /// Returns [`GenError::Model`] when the model is invalid.
    pub fn front_end(&mut self) -> Result<&FrontEnd, GenError> {
        self.ensure_front()?;
        match self.front.as_ref() {
            Some(Ok(fe)) => Ok(fe),
            Some(Err(e)) => Err(e.clone()),
            None => unreachable!("ensure_front populates front"),
        }
    }

    /// Rebuild the front end for the current model, reusing clean-actor
    /// artifacts from the last successful rebuild.
    fn ensure_front(&mut self) -> Result<(), GenError> {
        if let Some(front) = &self.front {
            return front.as_ref().map(|_| ()).map_err(Clone::clone);
        }
        let _span = hcg_obs::span("incremental", "invalidate");

        // Seed inference with the known output types of clean actors.
        let seeds: BTreeMap<String, SignalType> = self
            .known_types
            .iter()
            .filter(|(name, _)| !self.dirty.contains(*name))
            .map(|(name, ty)| (name.clone(), *ty))
            .collect();
        let types = match self.model.infer_types_seeded(&seeds) {
            Ok(t) => t,
            Err(e) => return self.fail(e.into()),
        };
        self.stats.types_seeded += seeds.len() as u64;

        // A schedule survives any non-structural delta; `apply_delta`
        // cleared `prev_schedule` otherwise.
        let sched = match self.prev_schedule.take() {
            Some(s) => {
                self.stats.schedules_reused += 1;
                s
            }
            None => match schedule(&self.model) {
                Ok(s) => s,
                Err(e) => return self.fail(e.into()),
            },
        };

        // Dispatch is per-actor: clean actors replay their last class
        // (their drivers and types are unchanged by construction).
        let mut dispatch = Vec::with_capacity(self.model.actors.len());
        for actor in &self.model.actors {
            if !self.dirty.contains(&actor.name) {
                if let Some(d) = self.known_dispatch.get(&actor.name) {
                    self.stats.dispatch_reused += 1;
                    dispatch.push(d.clone());
                    continue;
                }
            }
            dispatch.push(classify(&self.model, &types, actor));
        }

        // Success: refresh the per-actor snapshots and retire the dirty
        // set (generate still charges invalidation against it).
        self.known_types = self
            .model
            .actors
            .iter()
            .filter(|a| a.kind.output_count() > 0)
            .map(|a| (a.name.clone(), types.output(a.id, 0)))
            .collect();
        self.known_dispatch = self
            .model
            .actors
            .iter()
            .zip(&dispatch)
            .map(|(a, d)| (a.name.clone(), d.clone()))
            .collect();
        self.prev_schedule = Some(sched.clone());
        self.last_dirty = std::mem::take(&mut self.dirty);
        self.front = Some(Ok(FrontEnd {
            types,
            schedule: sched,
        }));
        self.dispatch = Some(dispatch);
        Ok(())
    }

    /// Record a front-end failure for the current model state. The
    /// per-actor snapshots describe the last *good* model and are kept;
    /// the dirty set stays accumulated so a fixing edit rebuilds exactly
    /// what the whole invalid episode touched.
    fn fail(&mut self, e: GenError) -> Result<(), GenError> {
        self.front = Some(Err(e.clone()));
        self.dispatch = None;
        Err(e)
    }

    /// Generate code for the current model, splicing cached region plans
    /// for everything the edits since the last compile cannot affect, or
    /// patching the kept program when only data changed since it was
    /// compiled. The output is identical to a from-scratch compile of the
    /// same model.
    ///
    /// # Errors
    ///
    /// Returns [`GenError`] when the model is invalid or synthesis fails.
    pub fn generate(
        &mut self,
        generator: &dyn CodeGenerator,
        arch: Arch,
    ) -> Result<Program, GenError> {
        self.ensure_front()?;
        let fe = match self.front.as_ref() {
            Some(Ok(fe)) => fe,
            _ => unreachable!("ensure_front succeeded"),
        };
        let dispatch = self.dispatch.as_ref().expect("dispatch set with front");

        match generator.as_hcg() {
            Some(hcg) => {
                let mut tuner = hcg.tuner().borrow_mut();
                // Session history may only flow into a tuner that (a)
                // measures deterministically and (b) has no decisions of
                // its own yet — a caller-loaded history must win, and the
                // session must never memorise selections it cannot prove
                // a fresh compile would repeat.
                let reuse = hcg.options.meter == Meter::OpCount && tuner.history_len() == 0;
                if reuse {
                    if let Some(saved) = &self.tuner {
                        tuner.adopt_history(saved);
                        self.stats.kernel_selections_reused += saved.history_len() as u64;
                    }
                }
                // Only a program whose kernel selections a fresh compile
                // would repeat, over a builtin instruction set, is kept.
                let keep = reuse && hcg.options.instr_set.is_none();
                if keep {
                    let key = |k: &&mut KeptProgram| k.arch == arch && k.options == hcg.options;
                    if let Some(kept) = self.kept.iter_mut().find(key) {
                        let _span = hcg_obs::span("incremental", "patch");
                        kept.patch(&self.model);
                        self.stats.programs_patched += 1;
                        return Ok(kept.program.clone());
                    }
                }
                // A custom instruction set is private to its generator:
                // its probes and plans go to a memo dropped after this
                // compile.
                let mut private = SetMemo::default();
                let memo = match hcg.options.instr_set {
                    Some(_) => &mut private,
                    None => {
                        let overlay = hcg.options.cost_overlay.as_ref();
                        let fingerprint = overlay.map(CostOverlay::fingerprint);
                        self.memos
                            .entry((arch, fingerprint.unwrap_or_default()))
                            .or_default()
                    }
                };
                let (prog, data) = generate_hcg(
                    &self.model,
                    fe,
                    dispatch,
                    hcg,
                    arch,
                    &mut tuner,
                    memo,
                    &self.last_dirty,
                    &mut self.stats,
                )?;
                if reuse {
                    self.tuner = Some(tuner.clone());
                }
                if keep {
                    self.kept.push(KeptProgram {
                        arch,
                        options: hcg.options.clone(),
                        program: prog.clone(),
                        data,
                    });
                }
                Ok(prog)
            }
            None => {
                // Baseline generators are cheap (no instruction mapping):
                // run the standard pipeline over the shared artifacts,
                // exactly like `CompileSession`.
                let mut ctx = PipelineCtx::with_artifacts(
                    &self.model,
                    &fe.types,
                    &fe.schedule,
                    arch,
                    generator.name(),
                )?;
                ctx.dispatch = Some(Cow::Borrowed(dispatch));
                Ok(PassManager::new(generator.passes()).run(ctx)?.0)
            }
        }
    }
}

/// The incremental HCG back end: form regions (memoised admission
/// probes), splice cached plans for clean regions, re-map dirty ones, and
/// re-emit the whole program deterministically. `memo` must belong to the
/// generator's instruction set for `arch`. Returns the program with its
/// data buffers (see [`GenContext::data_buffers`]).
#[allow(clippy::too_many_arguments)]
fn generate_hcg(
    model: &Model,
    fe: &FrontEnd,
    dispatch: &[Dispatch],
    hcg: &HcgGen,
    arch: Arch,
    tuner: &mut Autotuner,
    memo: &mut SetMemo,
    dirty: &BTreeSet<String>,
    stats: &mut IncrementalStats,
) -> Result<(Program, Vec<(ActorId, BufferId)>), GenError> {
    let _span = hcg_obs::span("incremental", "splice");
    let (set, index) = hcg.instr_set_indexed(arch);
    let mut ctx = GenContext::with_artifacts(model, &fe.types, &fe.schedule, arch, hcg.name())?;
    let regions = form_regions_probed(&ctx, dispatch, &set, &index, &mut memo.probes);

    let dirty_ids: BTreeSet<ActorId> = model
        .actors
        .iter()
        .filter(|a| dirty.contains(&a.name))
        .map(|a| a.id)
        .collect();

    let options = hcg.batch_options();
    let (mut admitted, mut invalidated, mut spliced) = (0u64, 0u64, 0u64);
    let cache = &mut memo.plans;
    let mut plans = Vec::with_capacity(regions.len());
    for region in &regions {
        if region.touches(&dirty_ids) {
            invalidated += 1;
        } else {
            admitted += 1;
        }
        let (hits, misses) = (cache.hits, cache.misses);
        plans.push(plan_region_cached(
            &ctx, region, &set, &index, options, cache,
        )?);
        if cache.misses > misses {
            spliced += 1;
        }
        stats.plan_hits += cache.hits - hits;
        stats.plan_misses += cache.misses - misses;
    }

    compose_into(
        &mut ctx,
        dispatch,
        &regions,
        &plans,
        hcg.library(),
        tuner,
        hcg.options.fallback_style,
    )?;

    stats.regions_admitted += admitted;
    stats.regions_invalidated += invalidated;
    stats.plans_spliced += spliced;

    let data = ctx.data_buffers().to_vec();
    let prog = ctx.finish();
    debug_lint(&prog);
    Ok((prog, data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emit::to_c_source;
    use crate::{HcgGen, HcgOptions};
    use hcg_model::delta::EditOp;
    use hcg_model::{library, ActorKind, Param};

    fn scratch(model: &Model, arch: Arch) -> String {
        to_c_source(
            &HcgGen::new()
                .generate(model, arch)
                .expect("scratch compile"),
        )
    }

    #[test]
    fn param_edit_is_byte_identical_to_scratch() {
        let mut session = EditSession::new(library::fig4_model());
        let hcg = HcgGen::new();
        let arch = Arch::Neon128;
        assert_eq!(
            to_c_source(&session.generate(&hcg, arch).unwrap()),
            scratch(session.model(), arch)
        );
        session
            .apply_delta(&ModelDelta::single(EditOp::SetParam {
                name: "Shr".into(),
                param: "amount".into(),
                value: Param::Int(2),
            }))
            .unwrap();
        let inc = to_c_source(&session.generate(&hcg, arch).unwrap());
        assert_eq!(inc, scratch(session.model(), arch));
        let stats = session.stats();
        assert_eq!(stats.edits_applied, 1);
        assert!(stats.schedules_reused >= 1, "param edit keeps schedule");
        assert!(stats.types_seeded > 0, "clean actors seed inference");
        assert!(stats.dispatch_reused > 0, "clean actors keep dispatch");
    }

    #[test]
    fn structural_edit_is_byte_identical_to_scratch() {
        let mut session = EditSession::new(library::fig4_model());
        let hcg = HcgGen::new();
        let _ = session.generate(&hcg, Arch::Avx256).unwrap();
        // Tap an existing signal to a new unary actor and outport.
        session
            .apply_delta(&ModelDelta {
                ops: vec![
                    EditOp::AddActor {
                        name: "tap".into(),
                        kind: ActorKind::Neg,
                        params: Default::default(),
                    },
                    EditOp::AddActor {
                        name: "tap_out".into(),
                        kind: ActorKind::Outport,
                        params: Default::default(),
                    },
                    EditOp::Connect {
                        from: ("Sub".into(), 0),
                        to: ("tap".into(), 0),
                    },
                    EditOp::Connect {
                        from: ("tap".into(), 0),
                        to: ("tap_out".into(), 0),
                    },
                ],
            })
            .unwrap();
        for arch in [Arch::Neon128, Arch::Avx256] {
            let inc = to_c_source(&session.generate(&hcg, arch).unwrap());
            assert_eq!(inc, scratch(session.model(), arch), "arch {arch}");
        }
    }

    /// Two disconnected batch chains: editing one must leave the other's
    /// region plan cached.
    fn two_chain_model() -> Model {
        use hcg_model::{DataType, ModelBuilder, SignalType};
        let ty = SignalType::vector(DataType::I32, 8);
        let mut b = ModelBuilder::new("TwoChains");
        let a = b.inport("a", ty);
        let b2 = b.inport("b", ty);
        let add = b.add_actor("add1", ActorKind::Add);
        let o1 = b.outport("o1");
        b.connect(a, 0, add, 0);
        b.connect(b2, 0, add, 1);
        b.connect(add, 0, o1, 0);
        let c = b.inport("c", ty);
        let sh = b.shift("sh", ActorKind::Shr, 1);
        let o2 = b.outport("o2");
        b.connect(c, 0, sh, 0);
        b.connect(sh, 0, o2, 0);
        b.build().expect("two-chain model is valid")
    }

    #[test]
    fn clean_regions_hit_the_plan_cache() {
        let mut session = EditSession::new(two_chain_model());
        let hcg = HcgGen::new();
        let arch = Arch::Neon128;
        let _ = session.generate(&hcg, arch).unwrap();
        let cold = session.stats();
        assert_eq!(cold.plan_hits, 0, "cold compile maps everything");
        session
            .apply_delta(&ModelDelta::single(EditOp::SetParam {
                name: "sh".into(),
                param: "amount".into(),
                value: Param::Int(3),
            }))
            .unwrap();
        let inc = to_c_source(&session.generate(&hcg, arch).unwrap());
        assert_eq!(inc, scratch(session.model(), arch));
        let stats = session.stats();
        // The `add1` chain is untouched: its region is admitted and its
        // plan spliced from the cache. The `sh` chain's signature embeds
        // the new amount, so only that region re-maps.
        assert!(stats.plan_hits >= 1, "clean region splices a cached plan");
        assert_eq!(
            stats.plan_misses,
            cold.plan_misses + 1,
            "exactly the dirty region re-maps"
        );
        assert!(stats.regions_admitted >= 1);
        assert!(stats.regions_invalidated >= 1);
    }

    #[test]
    fn failing_edit_recovers_after_fix() {
        let mut session = EditSession::new(library::fig4_model());
        let hcg = HcgGen::new();
        let _ = session.generate(&hcg, Arch::Neon128).unwrap();
        // Disconnecting an input makes the model invalid...
        session
            .apply_delta(&ModelDelta::single(EditOp::Disconnect {
                to: ("Mul".into(), 1),
            }))
            .unwrap();
        assert!(session.validate().is_err());
        assert!(session.validate().is_err(), "error is stable");
        // ...and reconnecting it recovers, matching scratch bytes.
        session
            .apply_delta(&ModelDelta::single(EditOp::Connect {
                from: ("d".into(), 0),
                to: ("Mul".into(), 1),
            }))
            .unwrap();
        let inc = to_c_source(&session.generate(&hcg, Arch::Neon128).unwrap());
        assert_eq!(inc, scratch(session.model(), Arch::Neon128));
    }

    #[test]
    fn kernel_selections_survive_fresh_generators() {
        let mut session = EditSession::new(library::fft_model(256));
        let arch = Arch::Neon128;
        let cold = HcgGen::new();
        let _ = session.generate(&cold, arch).unwrap();
        assert!(cold.history_len() > 0, "FFT measures at least one kernel");
        session
            .apply_delta(&ModelDelta::single(EditOp::SetParam {
                name: "window".into(),
                param: "value".into(),
                value: Param::FloatVec(vec![0.25; 256]),
            }))
            .unwrap();
        // A brand-new generator would normally re-run quick-search; the
        // session hands it the remembered selections instead.
        let warm = HcgGen::new();
        let inc = to_c_source(&session.generate(&warm, arch).unwrap());
        assert_eq!(inc, scratch(session.model(), arch));
        assert!(
            session.stats().kernel_selections_reused > 0,
            "fresh generator must adopt the session's Algorithm-1 history"
        );
    }

    #[test]
    fn repeat_generates_reuse_the_kept_program_and_plans() {
        let mut session = EditSession::new(library::fig4_model());
        let hcg = HcgGen::new();
        let arch = Arch::Neon128;
        let p1 = session.generate(&hcg, arch).unwrap();
        let first = session.stats();
        // Nothing changed: the kept program is served, nothing re-maps.
        let p2 = session.generate(&hcg, arch).unwrap();
        assert_eq!(p1, p2);
        let second = session.stats();
        assert_eq!(second.programs_patched, first.programs_patched + 1);
        assert_eq!(second.plan_misses, first.plan_misses);
        assert_eq!(second.plans_spliced, first.plans_spliced, "no new mapping");
        // A code-shaping edit and its reversal: the reverted region is
        // served from the plan cache.
        let amount = session
            .model()
            .actor_by_name("Shr")
            .unwrap()
            .param("amount")
            .cloned();
        for value in [Param::Int(2), amount.expect("fig4 Shr has an amount")] {
            session
                .apply_delta(&ModelDelta::single(EditOp::SetParam {
                    name: "Shr".into(),
                    param: "amount".into(),
                    value,
                }))
                .unwrap();
            let _ = session.generate(&hcg, arch).unwrap();
        }
        let third = session.stats();
        assert_eq!(third.programs_patched, second.programs_patched);
        assert_eq!(
            third.plan_misses,
            second.plan_misses + 1,
            "only amount 2 maps"
        );
        assert_eq!(
            third.plan_hits,
            second.plan_hits + 1,
            "the reverted fig4 region is served from the plan cache"
        );
        assert_eq!(session.generate(&hcg, arch).unwrap(), p1);
    }

    #[test]
    fn differently_configured_generators_do_not_share_programs() {
        let mut session = EditSession::new(library::fig4_model_sized(64));
        let arch = Arch::Neon128;
        let _ = session.generate(&HcgGen::new(), arch).unwrap();
        let scalar = HcgGen::with_options(HcgOptions {
            simd_threshold: 100,
            ..HcgOptions::default()
        });
        let prog = session.generate(&scalar, arch).unwrap();
        assert_eq!(prog.stmt_stats().vops, 0, "threshold 100 disables SIMD");
        assert_eq!(prog, scalar.generate(session.model(), arch).unwrap());
    }

    /// `x·g + k` latched through a delay: one actor per data parameter.
    fn data_bed() -> Model {
        use hcg_model::{DataType, ModelBuilder, SignalType};
        let ty = SignalType::vector(DataType::F32, 16);
        let mut b = ModelBuilder::new("DataBed");
        let x = b.inport("x", ty);
        let g = b.gain("g", 2.0);
        let k = b.constant("k", ty, vec![0.5; 16]);
        let add = b.add_actor("add", ActorKind::Add);
        let z = b.unit_delay("z", Some(ty));
        b.set_param(z, "init", Param::FloatVec(vec![1.0; 16]));
        let o = b.outport("y");
        b.connect(x, 0, g, 0);
        b.connect(g, 0, add, 0);
        b.connect(k, 0, add, 1);
        b.connect(add, 0, z, 0);
        b.connect(z, 0, o, 0);
        b.build().expect("data bed is valid")
    }

    fn set(name: &str, param: &str, value: Param) -> ModelDelta {
        ModelDelta::single(EditOp::SetParam {
            name: name.into(),
            param: param.into(),
            value,
        })
    }

    /// Generate both arches through `session` and assert each program
    /// equals a scratch compile by a fresh generator with `options`.
    fn assert_programs_match(session: &mut EditSession, options: &HcgOptions, label: &str) {
        for arch in Arch::ALL {
            let inc = session
                .generate(&HcgGen::with_options(options.clone()), arch)
                .unwrap_or_else(|e| panic!("{label} on {arch}: {e}"));
            let fresh = HcgGen::with_options(options.clone())
                .generate(session.model(), arch)
                .unwrap_or_else(|e| panic!("{label} scratch on {arch}: {e}"));
            assert_eq!(inc, fresh, "{label} on {arch}");
        }
    }

    #[test]
    fn data_edits_patch_the_kept_program() {
        let options = HcgOptions::default();
        let mut session = EditSession::new(data_bed());
        assert_programs_match(&mut session, &options, "cold");
        assert_eq!(session.stats().programs_patched, 0);
        let edits = [
            set(
                "k",
                "value",
                Param::FloatVec((0..16).map(f64::from).collect()),
            ),
            set("g", "gain", Param::Float(-3.5)),
            set("z", "init", Param::FloatVec(vec![-2.0; 16])),
        ];
        for (i, delta) in edits.iter().enumerate() {
            assert!(delta.data_only(session.model()));
            let before = session.stats();
            session.apply_delta(delta).unwrap();
            assert_programs_match(&mut session, &options, &format!("edit {i}"));
            let after = session.stats();
            assert_eq!(
                after.programs_patched,
                before.programs_patched + Arch::ALL.len() as u64,
                "edit {i} patches both arches"
            );
            assert_eq!(
                after.plan_hits + after.plan_misses,
                before.plan_hits + before.plan_misses
            );
        }
    }

    #[test]
    fn reshaping_constant_edit_regenerates() {
        let options = HcgOptions::default();
        let mut session = EditSession::new(data_bed());
        assert_programs_match(&mut session, &options, "cold");
        // One element broadcasts: still valid, but not the same shape.
        let delta = set("k", "value", Param::FloatVec(vec![4.0]));
        assert!(!delta.data_only(session.model()));
        session.apply_delta(&delta).unwrap();
        assert_programs_match(&mut session, &options, "reshaped");
        assert_eq!(session.stats().programs_patched, 0);
        // The regenerated program is kept in turn.
        session
            .apply_delta(&set("k", "value", Param::FloatVec(vec![5.0])))
            .unwrap();
        assert_programs_match(&mut session, &options, "after reshape");
        assert_eq!(session.stats().programs_patched, Arch::ALL.len() as u64);
    }

    #[test]
    fn data_edit_after_structural_edit_matches_scratch() {
        let options = HcgOptions::default();
        let mut session = EditSession::new(data_bed());
        assert_programs_match(&mut session, &options, "cold");
        session
            .apply_delta(&ModelDelta {
                ops: vec![
                    EditOp::AddActor {
                        name: "neg".into(),
                        kind: ActorKind::Neg,
                        params: Default::default(),
                    },
                    EditOp::Connect {
                        from: ("add".into(), 0),
                        to: ("neg".into(), 0),
                    },
                    EditOp::Connect {
                        from: ("neg".into(), 0),
                        to: ("z".into(), 0),
                    },
                ],
            })
            .unwrap();
        // The structural delta dropped the kept programs: the data edit
        // right after it must not patch a program of the old structure.
        session
            .apply_delta(&set("g", "gain", Param::Float(7.0)))
            .unwrap();
        assert_programs_match(&mut session, &options, "structural then data");
        assert_eq!(session.stats().programs_patched, 0);
        session
            .apply_delta(&set("g", "gain", Param::Float(8.0)))
            .unwrap();
        assert_programs_match(&mut session, &options, "data after regenerate");
        assert_eq!(session.stats().programs_patched, Arch::ALL.len() as u64);
    }

    #[test]
    fn data_edit_while_front_end_fails_matches_scratch() {
        let options = HcgOptions::default();
        let mut session = EditSession::new(data_bed());
        assert_programs_match(&mut session, &options, "cold");
        session
            .apply_delta(&ModelDelta::single(EditOp::Disconnect {
                to: ("add".into(), 1),
            }))
            .unwrap();
        assert!(session.validate().is_err());
        session
            .apply_delta(&set("k", "value", Param::FloatVec(vec![9.0; 16])))
            .unwrap();
        for arch in Arch::ALL {
            let inc = session.generate(&HcgGen::new(), arch);
            let fresh = HcgGen::new().generate(session.model(), arch);
            assert!(inc.is_err(), "invalid model must not be patched");
            assert_eq!(inc.err(), fresh.err());
        }
        session
            .apply_delta(&ModelDelta::single(EditOp::Connect {
                from: ("k".into(), 0),
                to: ("add".into(), 1),
            }))
            .unwrap();
        assert_programs_match(&mut session, &options, "fixed");
        assert_eq!(session.stats().programs_patched, 0);
        assert_eq!(
            session.model().actor_by_name("k").unwrap().param("value"),
            Some(&Param::FloatVec(vec![9.0; 16])),
            "the edit made while invalid is in the program"
        );
    }

    #[test]
    fn alternating_generators_are_never_served_each_others_program() {
        let threshold = HcgOptions {
            simd_threshold: 100,
            ..HcgOptions::default()
        };
        let loops = HcgOptions {
            fallback_style: crate::LoopStyle::LOOPS,
            ..HcgOptions::default()
        };
        let configs = [HcgOptions::default(), threshold, loops];
        let mut session = EditSession::new(data_bed());
        for (i, options) in configs.iter().enumerate() {
            assert_programs_match(&mut session, options, &format!("cold config {i}"));
        }
        for step in 0..6 {
            session
                .apply_delta(&set("g", "gain", Param::Float(step as f64)))
                .unwrap();
            for (i, options) in configs.iter().enumerate().cycle().skip(step).take(3) {
                assert_programs_match(&mut session, options, &format!("step {step} config {i}"));
            }
        }
        assert_eq!(
            session.stats().programs_patched,
            6 * (configs.len() * Arch::ALL.len()) as u64
        );
    }

    #[test]
    fn cost_overlays_do_not_share_plans() {
        use crate::MappingStrategy;
        let mut session = EditSession::new(library::fir_model(64, 4));
        let arch = Arch::Neon128;
        let beam = |cost_overlay| {
            HcgGen::with_options(HcgOptions {
                mapping: MappingStrategy::Beam { width: 8 },
                cost_overlay,
                ..HcgOptions::default()
            })
        };
        let _ = session.generate(&beam(None), arch).unwrap();
        session
            .apply_delta(&ModelDelta::single(EditOp::SetParam {
                name: "c1".into(),
                param: "value".into(),
                value: Param::Float(5.0),
            }))
            .unwrap();
        let mut dear_mla = CostOverlay::new();
        dear_mla.set_cost(arch, "vmlaq_s32", 4);
        let overlaid = beam(Some(dear_mla));
        let inc = session.generate(&overlaid, arch).unwrap();
        let scratch = overlaid.generate(session.model(), arch).unwrap();
        assert!(!to_c_source(&scratch).contains("vmlaq_s32"), "beam splits");
        assert_eq!(inc, scratch);
    }
}
