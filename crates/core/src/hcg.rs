//! The HCG code generator: the full pipeline of paper Figure 3 — model
//! parse → actor dispatch → SIMD instruction synthesis (Algorithm 1 for
//! intensive actors, Algorithm 2 for batch actors) → code composition.

use crate::batch::{
    emit_region_plan, form_regions_indexed, plan_region_indexed, BatchOptions, MatchOrder,
};
use crate::conventional::{emit_conventional, LoopStyle};
use crate::dispatch::Dispatch;
use crate::generator::{CodeGenerator, GenContext, GenError};
use crate::intensive::emit_intensive;
use crate::pass::{StageCounters, Stages};
use crate::search::MappingStrategy;
use hcg_isa::{sets, Arch, CostOverlay, InstrIndex, InstrSet};
use hcg_kernels::{Autotuner, CodeLibrary, Meter};
use hcg_model::ActorKind;
use hcg_vm::Program;
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeSet;

/// Configuration of the HCG generator.
#[derive(Debug, Clone, PartialEq)]
pub struct HcgOptions {
    /// Minimum region size to vectorise (see [`BatchOptions::simd_threshold`]).
    pub simd_threshold: usize,
    /// Candidate ordering during Algorithm 2 matching (ablation knob).
    pub match_order: MatchOrder,
    /// Cost measurement for Algorithm 1.
    pub meter: Meter,
    /// Loop style for conventionally translated actors.
    pub fallback_style: LoopStyle,
    /// Override the built-in instruction set (e.g. one loaded from a custom
    /// `.isa` file). `None` uses [`sets::builtin`] for the target.
    pub instr_set: Option<InstrSet>,
    /// How Algorithm 2 tiles each region with instructions: the paper's
    /// greedy pass, or the opt-in beam search (see
    /// [`crate::MappingSearch`]).
    pub mapping: MappingStrategy,
    /// Profile-calibrated cost overrides patched over the instruction set
    /// before mapping (see [`hcg_isa::CostCalibrator`]). `None` keeps the
    /// `.isa` table costs.
    pub cost_overlay: Option<CostOverlay>,
}

impl Default for HcgOptions {
    fn default() -> Self {
        HcgOptions {
            simd_threshold: 1,
            match_order: MatchOrder::LargestFirst,
            meter: Meter::OpCount,
            fallback_style: LoopStyle::CODER,
            instr_set: None,
            mapping: MappingStrategy::Greedy,
            cost_overlay: None,
        }
    }
}

/// The HCG generator (the paper's primary contribution).
///
/// # Examples
///
/// ```
/// use hcg_core::{CodeGenerator, HcgGen};
/// use hcg_isa::Arch;
/// use hcg_model::library;
///
/// # fn main() -> Result<(), hcg_core::GenError> {
/// let model = library::fig4_model();
/// let gen = HcgGen::new();
/// let prog = gen.generate(&model, Arch::Neon128)?;
/// // The Fig. 4 model maps to exactly three SIMD instructions (Listing 1).
/// assert_eq!(prog.stmt_stats().vops, 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct HcgGen {
    /// Generator configuration.
    pub options: HcgOptions,
    lib: CodeLibrary,
    tuner: RefCell<Autotuner>,
}

impl Default for HcgGen {
    fn default() -> Self {
        Self::new()
    }
}

impl HcgGen {
    /// An HCG generator with default options.
    pub fn new() -> Self {
        Self::with_options(HcgOptions::default())
    }

    /// An HCG generator with explicit options.
    pub fn with_options(options: HcgOptions) -> Self {
        let tuner = Autotuner::new(options.meter);
        HcgGen {
            options,
            lib: CodeLibrary::new(),
            tuner: RefCell::new(tuner),
        }
    }

    /// The kernel library used for intensive actors.
    pub fn library(&self) -> &CodeLibrary {
        &self.lib
    }

    /// Number of remembered Algorithm-1 selections (grows across
    /// `generate` calls — the paper's quick-search history).
    pub fn history_len(&self) -> usize {
        self.tuner.borrow().history_len()
    }

    /// Export the Algorithm-1 selection history (see
    /// [`Autotuner::history_to_text`]).
    pub fn history_text(&self) -> String {
        self.tuner.borrow().history_to_text()
    }

    /// Import a previously exported selection history.
    pub fn load_history(&self, text: &str) {
        self.tuner.borrow_mut().load_history_text(text);
    }

    /// The instruction set and index for a target, shared from the
    /// process-wide statics when no override is configured (one `.isa`
    /// parse and one index build per arch per process, not per compile).
    fn instr_set_indexed(&self, arch: Arch) -> (Cow<'static, InstrSet>, Cow<'static, InstrIndex>) {
        match (&self.options.instr_set, &self.options.cost_overlay) {
            // A custom set is private to this generator: patch and index a
            // copy (overlays over custom sets can't share process statics).
            (Some(set), overlay) => {
                let set = match overlay {
                    Some(ov) => ov.apply(set),
                    None => set.clone(),
                };
                let index = InstrIndex::build(&set);
                (Cow::Owned(set), Cow::Owned(index))
            }
            // Builtin base: the process-wide registry interns one patched
            // set + index per (arch, overlay) key, so calibrated fleet jobs
            // and service requests stop re-parsing/re-bucketing per compile.
            (None, overlay) => {
                let (set, index) = sets::shared_indexed(arch, overlay.as_ref());
                (Cow::Borrowed(set), Cow::Borrowed(index))
            }
        }
    }

    fn batch_options(&self) -> BatchOptions {
        BatchOptions {
            simd_threshold: self.options.simd_threshold,
            fallback_style: self.options.fallback_style,
            match_order: self.options.match_order,
            mapping: self.options.mapping,
        }
    }

    /// The Algorithm-1 autotuner (quick-search history): the compose stage
    /// selects kernels through it, and [`crate::EditSession`] hands it the
    /// history saved across edits.
    pub(crate) fn tuner(&self) -> &RefCell<Autotuner> {
        &self.tuner
    }
}

impl CodeGenerator for HcgGen {
    fn name(&self) -> &'static str {
        "hcg"
    }

    fn as_hcg(&self) -> Option<&HcgGen> {
        Some(self)
    }

    /// The paper's Figure 3 pipeline after dispatch:
    /// `region-formation` → `instruction-mapping` → `compose`.
    fn lower(
        &self,
        mut ctx: GenContext<'_>,
        dispatch: &[Dispatch],
        stages: &mut Stages,
    ) -> Result<Program, GenError> {
        let s = stages.start("region-formation", &ctx.prog);
        let (set, index) = self.instr_set_indexed(ctx.prog.arch);
        let regions = form_regions_indexed(&ctx, dispatch, &set, &index);
        let counters = StageCounters {
            regions_formed: regions.len() as u64,
            ..StageCounters::default()
        };
        stages.end(s, &ctx.prog, false, counters);

        let s = stages.start("instruction-mapping", &ctx.prog);
        let batch_opts = self.batch_options();
        let mut counters = StageCounters::default();
        let mut plans = Vec::with_capacity(regions.len());
        for region in &regions {
            let plan = plan_region_indexed(&ctx, region, &set, &index, batch_opts)?;
            if let Some(steps) = plan.simd_step_count() {
                counters.instructions_selected += steps as u64;
                counters.nodes_fused += region.members.len().saturating_sub(steps) as u64;
            }
            plans.push(plan);
        }
        stages.end(s, &ctx.prog, false, counters);

        // Compose: walk the schedule, emit each region once at its first
        // member's position, dispatch everything else to the intensive or
        // conventional emitters, and tag every statement with its origin.
        let s = stages.start("compose", &ctx.prog);
        let mut tuner = self.tuner.borrow_mut();
        let mut kernel_calls = 0u64;
        let mut region_of = vec![usize::MAX; ctx.model.actors.len()];
        for (ri, r) in regions.iter().enumerate() {
            for &a in &r.members {
                region_of[a.0] = ri;
            }
        }
        let mut emitted_regions: BTreeSet<usize> = BTreeSet::new();
        for idx in 0..ctx.schedule.order.len() {
            let aid = ctx.schedule.order[idx];
            let actor = ctx.model.actor(aid);
            if matches!(
                actor.kind,
                ActorKind::Inport | ActorKind::Outport | ActorKind::Constant | ActorKind::UnitDelay
            ) {
                continue;
            }
            let ri = region_of[aid.0];
            if ri != usize::MAX {
                if emitted_regions.insert(ri) {
                    ctx.set_origin(hcg_vm::Origin::region(actor.name.clone(), ri));
                    emit_region_plan(&mut ctx, &regions[ri], &plans[ri])?;
                }
                continue;
            }
            match &dispatch[aid.0] {
                Dispatch::Intensive { size } => {
                    // Intensive kernels are HCG-optimised regions of one
                    // actor: give them region provenance (indices after the
                    // batch regions) so the profiler's per-region breakdown
                    // covers them — a DCT/FFT model is otherwise
                    // all-intensive and would profile with an empty regions
                    // table.
                    let region_index = regions.len() + kernel_calls as usize;
                    ctx.set_origin(hcg_vm::Origin::region(actor.name.clone(), region_index));
                    emit_intensive(&mut ctx, actor, size, &self.lib, &mut tuner)?;
                    kernel_calls += 1;
                }
                _ => {
                    ctx.set_origin(hcg_vm::Origin::actor(actor.name.clone()));
                    emit_conventional(&mut ctx, actor, self.options.fallback_style)?;
                }
            }
        }
        let prog = ctx.finish();
        let counters = StageCounters {
            kernel_calls,
            ..StageCounters::default()
        };
        stages.end(s, &prog, true, counters);
        Ok(prog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcg_model::library;
    use hcg_vm::Stmt;

    #[test]
    fn fig4_generates_listing1() {
        let m = library::fig4_model();
        let gen = HcgGen::new();
        let p = gen.generate(&m, Arch::Neon128).unwrap();
        let instrs: Vec<&str> = p
            .body
            .iter()
            .filter_map(|s| match s {
                Stmt::VOp { instr, .. } => Some(instr.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(instrs, ["vsubq_s32", "vhaddq_s32", "vmlaq_s32"]);
    }

    #[test]
    fn all_paper_benchmarks_generate_on_all_archs() {
        let gen = HcgGen::new();
        for m in library::paper_benchmarks() {
            for arch in Arch::ALL {
                let p = gen
                    .generate(&m, arch)
                    .unwrap_or_else(|e| panic!("{} on {arch}: {e}", m.name));
                assert!(!p.body.is_empty(), "{} on {arch}", m.name);
            }
        }
    }

    #[test]
    fn history_accumulates_across_generates() {
        let gen = HcgGen::new();
        let m = library::fft_model(1024);
        gen.generate(&m, Arch::Neon128).unwrap();
        let after_first = gen.history_len();
        assert_eq!(after_first, 1);
        // Second generation of the same model hits the history (no growth).
        gen.generate(&m, Arch::Avx256).unwrap();
        assert_eq!(gen.history_len(), 1);
        // A different scale adds an entry.
        gen.generate(&library::fft_model(256), Arch::Neon128)
            .unwrap();
        assert_eq!(gen.history_len(), 2);
    }

    #[test]
    fn loaded_history_cannot_select_a_kernel_unfit_for_the_size() {
        // radix4 needs a power-of-four length; a history naming it for
        // n = 1000 is stale and must fall through to pre-calculation.
        let m = library::fft_model(1000);
        let gen = HcgGen::new();
        gen.load_history("FFT f32 1000 radix4 1\n");
        let p = gen.generate(&m, Arch::Neon128).unwrap();
        let fresh = HcgGen::new();
        assert_eq!(p, fresh.generate(&m, Arch::Neon128).unwrap());
        assert_eq!(gen.history_text(), fresh.history_text());
        hcg_vm::Machine::new(&p, gen.library())
            .step()
            .expect("selected kernel runs at n = 1000");
    }

    #[test]
    fn threshold_option_suppresses_simd() {
        let m = library::single_batch_model(1024);
        let default_gen = HcgGen::new();
        let p1 = default_gen.generate(&m, Arch::Neon128).unwrap();
        assert!(p1.stmt_stats().vops > 0);

        let opts = HcgOptions {
            simd_threshold: 3,
            ..HcgOptions::default()
        };
        let conservative = HcgGen::with_options(opts);
        let p2 = conservative.generate(&m, Arch::Neon128).unwrap();
        assert_eq!(p2.stmt_stats().vops, 0);
    }

    #[test]
    fn fir_uses_simd_on_every_arch() {
        let m = library::fir_model(1024, 4);
        let gen = HcgGen::new();
        for arch in Arch::ALL {
            let p = gen.generate(&m, arch).unwrap();
            assert!(p.stmt_stats().vops > 0, "{arch}");
        }
    }

    #[test]
    fn custom_instruction_set_override() {
        use hcg_isa::parse::instr_set_from_text;
        // A set with only vector add: the Fig.4 model's Sub/Mul/Shr don't
        // qualify, so regions exclude them (conventional), and only Adds
        // vectorise.
        let tiny = instr_set_from_text(
            "set tiny arch neon128\nGraph: Add, i32, 4, I1, I2, O1 ; Code: O1 = vaddq_s32(I1, I2);\n",
        )
        .unwrap();
        let gen = HcgGen::with_options(HcgOptions {
            instr_set: Some(tiny),
            ..HcgOptions::default()
        });
        let p = gen.generate(&library::fig4_model(), Arch::Neon128).unwrap();
        let stats = p.stmt_stats();
        assert!(stats.vops >= 1);
        assert!(stats.scalar_ops > 0);
    }
}
