//! The stage driver: [`run_stages`] runs one generator's lowering and
//! returns the finished [`Program`] with a [`StageReport`].
//!
//! Every generator is one straight-line lowering
//! ([`crate::CodeGenerator::lower`]): HCG runs `region-formation` →
//! `instruction-mapping` → `compose`, the baselines their own stages,
//! each handing its results to the next as local values. The driver runs
//! the shared `dispatch` stage first; a [`Stages`] recorder times each
//! stage, takes its counters and statement delta, and lints the program
//! as the stage left it. The report is the per-stage breakdown behind
//! `repro -- gentime`.

use crate::dispatch::{classify_all, Dispatch};
use crate::generator::{debug_lint_stage, debug_verify, CodeGenerator, GenContext, GenError};
use hcg_isa::Arch;
use hcg_obs::SpanGuard;
use hcg_vm::{Program, Stmt};
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

/// Records the stages of one pipeline run: each stage's `pass` span
/// (named `{generator}/{stage}`), wall-clock time, counters, statement
/// delta and inter-stage lint verdict.
#[derive(Debug)]
pub struct Stages {
    generator: &'static str,
    records: Vec<StageRecord>,
}

/// A stage opened by [`Stages::start`]; hand it back to [`Stages::end`].
#[derive(Debug)]
#[must_use = "a stage is recorded only when passed to `Stages::end`"]
pub struct OpenStage {
    name: &'static str,
    stmts_before: usize,
    span: SpanGuard,
    started: Instant,
}

impl Stages {
    /// Open stage `name` over the program as it stands before the stage.
    pub fn start(&self, name: &'static str, prog: &Program) -> OpenStage {
        let stmts_before = stmt_count(&prog.body);
        let span = hcg_obs::span_with("pass", || format!("{}/{name}", self.generator));
        OpenStage {
            name,
            stmts_before,
            span,
            started: Instant::now(),
        }
    }

    /// Close `stage` over the program as the stage left it: record its
    /// time, `counters` and statement delta, and run the inter-stage lint
    /// (`finished` once the program is complete).
    pub fn end(
        &mut self,
        stage: OpenStage,
        prog: &Program,
        finished: bool,
        counters: StageCounters,
    ) {
        let micros = stage.started.elapsed().as_micros() as u64;
        drop(stage.span);
        let lint_warnings = debug_lint_stage(prog, finished);
        self.records.push(StageRecord {
            name: stage.name,
            micros,
            counters,
            stmts_emitted: stmt_count(&prog.body).saturating_sub(stage.stmts_before) as u64,
            lint_warnings,
        });
    }
}

/// Run `generator` over `ctx`: the shared `dispatch` stage (classifying
/// every actor unless the caller passes a cached classification), then
/// the generator's [`lower`](CodeGenerator::lower), inside one `pipeline`
/// span. Returns the finished program with its stage report.
///
/// # Errors
///
/// Returns the first error of the generator's lowering.
pub fn run_stages<G: CodeGenerator + ?Sized>(
    generator: &G,
    ctx: GenContext<'_>,
    dispatch: Option<&[Dispatch]>,
) -> Result<(Program, StageReport), GenError> {
    let model = ctx.model;
    let arch = ctx.prog.arch;
    let name = generator.name();
    let _run_span = hcg_obs::span_with("pipeline", || format!("{name}/{}@{arch}", model.name));
    let mut stages = Stages {
        generator: name,
        records: Vec::with_capacity(4),
    };
    let s = stages.start("dispatch", &ctx.prog);
    let classified;
    let dispatch = match dispatch {
        Some(d) => d,
        None => {
            classified = classify_all(model, &ctx.types);
            &classified
        }
    };
    let counters = StageCounters {
        actors_dispatched: dispatch.len() as u64,
        ..StageCounters::default()
    };
    stages.end(s, &ctx.prog, false, counters);
    let prog = generator.lower(ctx, dispatch, &mut stages)?;
    debug_verify(model, &prog);
    let report = StageReport {
        generator: name.to_owned(),
        model: model.name.clone(),
        arch,
        stages: stages.records,
    };
    Ok((prog, report))
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
