//! The staged pipeline layer: named generator [`Pass`]es run over a
//! [`PipelineCtx`] by a [`PassManager`] that times every stage, gives
//! each stage its own work counters, and runs the analyzer between stages.
//!
//! Each [`crate::CodeGenerator`] describes itself as a list of passes
//! (HCG: `dispatch` → `region-formation` → `instruction-mapping` →
//! `compose`; the baselines have their own stage lists). The manager
//! produces the final [`Program`] plus a [`StageReport`] — the per-stage
//! breakdown behind `repro -- gentime`.

use crate::batch::{BatchRegion, RegionPlan};
use crate::dispatch::{classify_all, Dispatch};
use crate::generator::{debug_lint_stage, GenContext, GenError};
use hcg_isa::{Arch, InstrIndex, InstrSet};
use hcg_model::schedule::Schedule;
use hcg_model::{Model, TypeMap};
use hcg_vm::{Program, Stmt};
use std::borrow::Cow;
use std::fmt;
use std::time::Instant;

/// Work counters of one pipeline stage. Each [`StageRecord`] stores what
/// its stage counted; [`StageReport::totals`] sums them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageCounters {
    /// Actors routed through dispatch classification.
    pub actors_dispatched: u64,
    /// Batch regions formed.
    pub regions_formed: u64,
    /// SIMD instructions selected by graph mapping.
    pub instructions_selected: u64,
    /// Dataflow nodes folded into compound instructions (nodes minus
    /// selected instructions, over all SIMD-mapped regions).
    pub nodes_fused: u64,
    /// Intensive-actor kernel calls emitted.
    pub kernel_calls: u64,
}

impl StageCounters {
    /// Component-wise accumulate `other` into `self` — the summing
    /// primitive behind [`StageReport::totals`].
    pub fn add(&mut self, other: StageCounters) {
        self.actors_dispatched += other.actors_dispatched;
        self.regions_formed += other.regions_formed;
        self.instructions_selected += other.instructions_selected;
        self.nodes_fused += other.nodes_fused;
        self.kernel_calls += other.kernel_calls;
    }
}

/// What one pass did: wall-clock time, work counters, statements added,
/// and the inter-pass lint outcome.
#[derive(Debug, Clone)]
pub struct StageRecord {
    /// Pass name (e.g. `region-formation`).
    pub name: &'static str,
    /// Wall-clock duration of the pass in microseconds.
    pub micros: u64,
    /// Counter increments attributable to this pass.
    pub counters: StageCounters,
    /// Statements (including loop bodies) added by this pass.
    pub stmts_emitted: u64,
    /// Warnings from the inter-pass lint hook (`None` in release builds,
    /// where the hook is compiled out).
    pub lint_warnings: Option<usize>,
}

/// The per-stage breakdown of one `generate` run.
#[derive(Debug, Clone)]
pub struct StageReport {
    /// Generator name.
    pub generator: String,
    /// Model name.
    pub model: String,
    /// Target architecture.
    pub arch: Arch,
    /// One record per pass, in execution order.
    pub stages: Vec<StageRecord>,
}

impl StageReport {
    /// Total wall-clock microseconds across all stages.
    pub fn total_micros(&self) -> u64 {
        self.stages.iter().map(|s| s.micros).sum()
    }

    /// Sum of all stage counters.
    pub fn totals(&self) -> StageCounters {
        let mut t = StageCounters::default();
        for s in &self.stages {
            t.add(s.counters);
        }
        t
    }

    /// Render as a fixed-width table (one line per stage plus a total row).
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} @ {} on {} — {} stage(s)\n",
            self.generator,
            self.arch,
            self.model,
            self.stages.len()
        );
        out.push_str(&format!(
            "  {:<20} {:>9} {:>10} {:>8} {:>7} {:>6} {:>8} {:>6} {:>5}\n",
            "stage", "µs", "dispatch", "regions", "instrs", "fused", "kernels", "stmts", "lint"
        ));
        for s in &self.stages {
            let lint = match s.lint_warnings {
                Some(w) => format!("{w}w"),
                None => "-".to_string(),
            };
            out.push_str(&format!(
                "  {:<20} {:>9} {:>10} {:>8} {:>7} {:>6} {:>8} {:>6} {:>5}\n",
                s.name,
                s.micros,
                s.counters.actors_dispatched,
                s.counters.regions_formed,
                s.counters.instructions_selected,
                s.counters.nodes_fused,
                s.counters.kernel_calls,
                s.stmts_emitted,
                lint
            ));
        }
        let t = self.totals();
        out.push_str(&format!(
            "  {:<20} {:>9} {:>10} {:>8} {:>7} {:>6} {:>8} {:>6} {:>5}\n",
            "total",
            self.total_micros(),
            t.actors_dispatched,
            t.regions_formed,
            t.instructions_selected,
            t.nodes_fused,
            t.kernel_calls,
            self.stages.iter().map(|s| s.stmts_emitted).sum::<u64>(),
            ""
        ));
        out
    }
}

/// The program as it moves through the pipeline: under construction inside
/// a [`GenContext`], then finished.
#[derive(Debug)]
enum Built<'m> {
    Building(GenContext<'m>),
    Finished(Program),
}

/// Everything a pass can see and mutate: the program under construction,
/// shared scratch artifacts handed from stage to stage, and the run's
/// counters.
#[derive(Debug)]
pub struct PipelineCtx<'m> {
    built: Option<Built<'m>>,
    /// Dispatch classification — pre-seeded (borrowed) by a
    /// [`crate::CompileSession`], or computed by [`dispatch_pass`].
    pub dispatch: Option<Cow<'m, [Dispatch]>>,
    /// Batch regions, produced by a region-formation stage.
    pub regions: Option<Vec<BatchRegion>>,
    /// Per-region emission plans, parallel to `regions`.
    pub plans: Option<Vec<RegionPlan>>,
    /// The instruction set resolved for the target. Borrowed from the
    /// process-wide [`hcg_isa::sets::builtin_indexed`] statics unless the
    /// generator overrides the set, so concurrent fleet jobs share one
    /// parse.
    pub instr_set: Option<Cow<'static, InstrSet>>,
    /// Pre-bucketed lookup over `instr_set`, built once (or borrowed from
    /// the shared statics) by the region-formation stage and reused by
    /// every mapping query.
    pub instr_index: Option<Cow<'static, InstrIndex>>,
    /// Work counters of the running stage; the manager moves them into
    /// that stage's [`StageRecord`] when the stage ends.
    pub counters: StageCounters,
}

impl<'m> PipelineCtx<'m> {
    /// A standalone context: computes type inference and schedule on the
    /// spot (the compatibility path behind [`crate::CodeGenerator::generate`]).
    ///
    /// # Errors
    ///
    /// Returns [`GenError`] when the model is invalid.
    pub fn standalone(model: &'m Model, arch: Arch, generator: &str) -> Result<Self, GenError> {
        Ok(Self::from_ctx(GenContext::new(model, arch, generator)?))
    }

    /// A context over session-cached artifacts (no recomputation).
    ///
    /// # Errors
    ///
    /// Returns [`GenError`] when buffer allocation fails.
    pub fn with_artifacts(
        model: &'m Model,
        types: &'m TypeMap,
        schedule: &'m Schedule,
        arch: Arch,
        generator: &str,
    ) -> Result<Self, GenError> {
        Ok(Self::from_ctx(GenContext::with_artifacts(
            model, types, schedule, arch, generator,
        )?))
    }

    fn from_ctx(ctx: GenContext<'m>) -> Self {
        PipelineCtx {
            built: Some(Built::Building(ctx)),
            dispatch: None,
            regions: None,
            plans: None,
            instr_set: None,
            instr_index: None,
            counters: StageCounters::default(),
        }
    }

    /// The generation context (program under construction).
    ///
    /// # Errors
    ///
    /// Returns [`GenError::Internal`] when the pipeline already finished.
    pub fn building(&self) -> Result<&GenContext<'m>, GenError> {
        match &self.built {
            Some(Built::Building(ctx)) => Ok(ctx),
            _ => Err(GenError::Internal(
                "pipeline is not in the building state".into(),
            )),
        }
    }

    /// Mutable access to the generation context.
    ///
    /// # Errors
    ///
    /// Returns [`GenError::Internal`] when the pipeline already finished.
    pub fn building_mut(&mut self) -> Result<&mut GenContext<'m>, GenError> {
        match &mut self.built {
            Some(Built::Building(ctx)) => Ok(ctx),
            _ => Err(GenError::Internal(
                "pipeline is not in the building state".into(),
            )),
        }
    }

    /// The finished program, for post-composition passes (e.g. loop
    /// folding).
    ///
    /// # Errors
    ///
    /// Returns [`GenError::Internal`] before [`PipelineCtx::finish`] ran.
    pub fn program_mut(&mut self) -> Result<&mut Program, GenError> {
        match &mut self.built {
            Some(Built::Finished(prog)) => Ok(prog),
            _ => Err(GenError::Internal("pipeline has not finished yet".into())),
        }
    }

    /// Target architecture.
    pub fn arch(&self) -> Arch {
        self.current_program().arch
    }

    /// The dispatch classification, whoever computed it.
    ///
    /// # Errors
    ///
    /// Returns [`GenError::Internal`] when no dispatch stage ran.
    pub fn dispatch_slice(&self) -> Result<&[Dispatch], GenError> {
        self.dispatch
            .as_deref()
            .ok_or_else(|| GenError::Internal("dispatch classification not computed".into()))
    }

    /// Take ownership of the dispatch classification (compose stages
    /// consume it to avoid borrow conflicts with the context).
    ///
    /// # Errors
    ///
    /// Returns [`GenError::Internal`] when no dispatch stage ran.
    pub fn take_dispatch(&mut self) -> Result<Cow<'m, [Dispatch]>, GenError> {
        self.dispatch
            .take()
            .ok_or_else(|| GenError::Internal("dispatch classification not computed".into()))
    }

    /// Run [`GenContext::finish`] (outport copies, delay latches) and move
    /// the pipeline into the finished state.
    ///
    /// # Errors
    ///
    /// Returns [`GenError::Internal`] when called twice.
    pub fn finish(&mut self) -> Result<(), GenError> {
        match self.built.take() {
            Some(Built::Building(ctx)) => {
                self.built = Some(Built::Finished(ctx.finish()));
                Ok(())
            }
            other => {
                self.built = other;
                Err(GenError::Internal("pipeline already finished".into()))
            }
        }
    }

    /// Whether [`PipelineCtx::finish`] has run.
    pub fn is_finished(&self) -> bool {
        matches!(self.built, Some(Built::Finished(_)))
    }

    /// The program as it currently stands (building or finished).
    ///
    /// # Panics
    ///
    /// Panics if called re-entrantly from within [`PipelineCtx::finish`]
    /// (not possible from pass code).
    pub fn current_program(&self) -> &Program {
        match self.built.as_ref().expect("pipeline state present") {
            Built::Building(ctx) => &ctx.prog,
            Built::Finished(prog) => prog,
        }
    }

    fn into_program(self) -> Result<Program, GenError> {
        match self.built {
            Some(Built::Finished(prog)) => Ok(prog),
            _ => Err(GenError::Internal(
                "pipeline ended without a finished program — the generator's last pass must call finish()".into(),
            )),
        }
    }
}

/// The boxed stage function a [`Pass`] runs over the pipeline context.
pub type PassFn<'g> = Box<dyn Fn(&mut PipelineCtx<'_>) -> Result<(), GenError> + 'g>;

/// One named pipeline stage.
pub struct Pass<'g> {
    name: &'static str,
    run: PassFn<'g>,
}

impl<'g> Pass<'g> {
    /// A pass from a name and a stage function.
    pub fn new<F>(name: &'static str, run: F) -> Self
    where
        F: Fn(&mut PipelineCtx<'_>) -> Result<(), GenError> + 'g,
    {
        Pass {
            name,
            run: Box::new(run),
        }
    }

    /// The stage name as shown in reports.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl fmt::Debug for Pass<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pass").field("name", &self.name).finish()
    }
}

/// The shared `dispatch` stage: classify every actor unless a session
/// already seeded the classification, and count the actors routed through
/// dispatch either way.
pub fn dispatch_pass<'g>() -> Pass<'g> {
    Pass::new("dispatch", |p| {
        if p.dispatch.is_none() {
            let ctx = p.building()?;
            let d = classify_all(ctx.model, &ctx.types);
            p.dispatch = Some(Cow::Owned(d));
        }
        p.counters.actors_dispatched += p.dispatch_slice()?.len() as u64;
        Ok(())
    })
}

/// Runs the generator passes in order, timing each one, taking its
/// counters and statement delta, and invoking the inter-pass lint hook.
#[derive(Debug)]
pub struct PassManager<'g> {
    passes: Vec<Pass<'g>>,
}

impl<'g> PassManager<'g> {
    /// A manager over a generator's pass list.
    pub fn new(passes: Vec<Pass<'g>>) -> Self {
        PassManager { passes }
    }

    /// Run all passes over `ctx` and return the finished program with its
    /// stage report.
    ///
    /// # Errors
    ///
    /// Returns the first pass error, or [`GenError::Internal`] when the
    /// last pass leaves the pipeline unfinished.
    pub fn run(self, mut ctx: PipelineCtx<'_>) -> Result<(Program, StageReport), GenError> {
        let (generator, model) = {
            let prog = ctx.current_program();
            (prog.generator.clone(), prog.name.clone())
        };
        let arch = ctx.arch();
        let _run_span = hcg_obs::span_with("pipeline", || format!("{generator}/{model}@{arch}"));
        let mut stages = Vec::with_capacity(self.passes.len());
        for pass in &self.passes {
            let stmts_before = stmt_count(&ctx.current_program().body);
            let pass_span = hcg_obs::span_with("pass", || format!("{generator}/{}", pass.name));
            let t0 = Instant::now();
            (pass.run)(&mut ctx)?;
            let micros = t0.elapsed().as_micros() as u64;
            drop(pass_span);
            let counters = std::mem::take(&mut ctx.counters);
            let prog = ctx.current_program();
            let lint_warnings = debug_lint_stage(prog, ctx.is_finished());
            stages.push(StageRecord {
                name: pass.name,
                micros,
                counters,
                stmts_emitted: (stmt_count(&prog.body).saturating_sub(stmts_before)) as u64,
                lint_warnings,
            });
        }
        let report = StageReport {
            generator,
            model,
            arch,
            stages,
        };
        Ok((ctx.into_program()?, report))
    }
}

/// Total statement count, descending into loop bodies.
fn stmt_count(body: &[Stmt]) -> usize {
    body.iter()
        .map(|s| match s {
            Stmt::Loop { body, .. } => 1 + stmt_count(body),
            _ => 1,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcg_model::library;

    #[test]
    fn manager_times_and_orders_stages() {
        use crate::conventional::{emit_conventional, LoopStyle};
        use hcg_model::ActorKind;
        let m = library::fig4_model();
        let ctx = PipelineCtx::standalone(&m, Arch::Neon128, "test").unwrap();
        let passes = vec![
            dispatch_pass(),
            Pass::new("compose", |p: &mut PipelineCtx<'_>| {
                let ctx = p.building_mut()?;
                for idx in 0..ctx.schedule.order.len() {
                    let aid = ctx.schedule.order[idx];
                    let actor = ctx.model.actor(aid).clone();
                    if matches!(
                        actor.kind,
                        ActorKind::Inport
                            | ActorKind::Outport
                            | ActorKind::Constant
                            | ActorKind::UnitDelay
                    ) {
                        continue;
                    }
                    emit_conventional(ctx, &actor, LoopStyle::LOOPS)?;
                }
                p.finish()
            }),
        ];
        let (prog, report) = PassManager::new(passes).run(ctx).unwrap();
        assert_eq!(report.stages.len(), 2);
        assert_eq!(report.stages[0].name, "dispatch");
        assert_eq!(report.stages[1].name, "compose");
        assert_eq!(
            report.stages[0].counters.actors_dispatched,
            m.actors.len() as u64
        );
        // finish() emitted the outport copies.
        assert!(report.stages[1].stmts_emitted > 0);
        assert_eq!(prog.name, m.name);
        assert!(report.render().contains("dispatch"));
    }

    #[test]
    fn unfinished_pipeline_is_an_error() {
        let m = library::fig4_model();
        let ctx = PipelineCtx::standalone(&m, Arch::Neon128, "test").unwrap();
        let err = PassManager::new(vec![dispatch_pass()])
            .run(ctx)
            .unwrap_err();
        assert!(matches!(err, GenError::Internal(_)));
    }
}
