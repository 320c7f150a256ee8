//! `MappingSearch`: beam-search / branch-and-bound exploration of region
//! tilings — the opt-in alternative to Algorithm 2's greedy first-match
//! selection.
//!
//! The greedy mapper commits to the largest candidate subgraph whose tree
//! matches *any* instruction and never reconsiders, which is only locally
//! optimal: once profile-guided calibration adjusts the cost table (see
//! `hcg_isa::CostCalibrator`), a fused instruction can be dearer than the
//! sequence it replaces — an in-order core serialises a three-operand
//! multiply-accumulate on its accumulator operand, while the split
//! multiply/add pair pipelines. `MappingSearch` explores alternative
//! tilings: every candidate subgraph × every matching instruction,
//! enumerated cheapest-first through `MatchMemo::find_all`, keeping the
//! `width` best partial tilings per round. A tiling is scored by the sum
//! of its per-issue instruction costs — exactly what
//! `CostModel::stmt_cycles` charges the `VOp` each step will emit, so
//! minimising the score minimises the modeled cycles of the region body.
//!
//! Guarantees:
//!
//! * the search seeds its incumbent with the greedy tiling, so the result
//!   is **never worse** than greedy under the scoring cost table, and is
//!   *exactly* the greedy plan when no strictly cheaper tiling exists
//!   (ties never replace the incumbent);
//! * [`MappingStrategy::Beam`] with `width <= 1` short-circuits to the
//!   greedy mapper itself — byte-identical programs by construction
//!   (pinned by the `beam1_identical_to_greedy` property test);
//! * an admissible lower bound — `ceil(pending / max_nodes) ×
//!   cheapest-applicable-instruction-cost` — prunes partial tilings that
//!   cannot strictly beat the incumbent, making the search
//!   branch-and-bound rather than purely heuristic.
//!
//! Each run adds its work (states expanded, prunes, completed tilings,
//! memo traffic) to this thread's [`stats`] probe and runs under a
//! `search` span. The probe is thread-local in the `hcg_model::stats`
//! style: the mapper returns only the plan, and only tests and `repro`
//! read the counts, as a before/after difference.

use crate::batch::{map_graph, MatchOrder, PlanStep};
use crate::generator::GenError;
use hcg_graph::extend::{extend_subgraphs, top_left_node, MapState};
use hcg_graph::matching::MatchMemo;
use hcg_graph::Dfg;
use hcg_isa::{InstrIndex, InstrSet};
use std::cell::Cell;

/// How Algorithm 2 chooses the instruction tiling of a batch region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MappingStrategy {
    /// The paper's greedy largest-subgraph, first-match selection.
    #[default]
    Greedy,
    /// Beam search over whole-region tilings, seeded with the greedy plan
    /// (never worse, strictly better when the cost table rewards a
    /// different tiling).
    Beam {
        /// Partial tilings kept per search round. `width <= 1` delegates
        /// to the greedy mapper and is byte-identical to
        /// [`MappingStrategy::Greedy`].
        width: usize,
    },
}

impl MappingStrategy {
    /// Short stable label for reports, cache keys and metrics
    /// (`"greedy"`, `"beam4"`).
    pub fn label(&self) -> String {
        match self {
            MappingStrategy::Greedy => "greedy".to_owned(),
            MappingStrategy::Beam { width } => format!("beam{width}"),
        }
    }
}

/// Beam-search work, summed over this thread's [`MappingSearch`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Searches run (regions mapped by beam search).
    pub runs: u64,
    /// Partial tilings expanded into successors.
    pub states_expanded: u64,
    /// Successors pruned by the admissible lower bound.
    pub pruned_lb: u64,
    /// Complete tilings scored against the incumbent.
    pub tilings_completed: u64,
    /// Instruction-match memo hits.
    pub memo_hits: u64,
    /// Instruction-match memo misses.
    pub memo_misses: u64,
}

thread_local! {
    static STATS: Cell<SearchStats> = Cell::new(SearchStats::default());
}

/// This thread's beam-search totals since it started.
pub fn stats() -> SearchStats {
    STATS.with(Cell::get)
}

fn note_run(run: SearchStats) {
    STATS.with(|cell| {
        let mut t = cell.get();
        t.runs += run.runs;
        t.states_expanded += run.states_expanded;
        t.pruned_lb += run.pruned_lb;
        t.tilings_completed += run.tilings_completed;
        t.memo_hits += run.memo_hits;
        t.memo_misses += run.memo_misses;
        cell.set(t);
    });
}

/// One partial tiling: which nodes are covered, the steps so far, and the
/// summed per-issue cost of those steps.
#[derive(Debug, Clone)]
struct BeamNode {
    state: MapState,
    plan: Vec<PlanStep>,
    cost: u64,
}

/// The beam-search region-mapping engine (see module docs).
///
/// Borrowed over one `(set, index, lanes)` configuration; `run` maps one
/// region dataflow graph per call. Construction is free — all state lives
/// per run.
#[derive(Debug)]
pub struct MappingSearch<'a> {
    set: &'a InstrSet,
    index: &'a InstrIndex,
    lanes: usize,
    width: usize,
    order: MatchOrder,
}

impl<'a> MappingSearch<'a> {
    /// A search over `set`/`index` at `lanes`, keeping `width` partial
    /// tilings per round. `order` seeds the greedy incumbent (the paper
    /// default is largest-first).
    pub fn new(
        set: &'a InstrSet,
        index: &'a InstrIndex,
        lanes: usize,
        width: usize,
        order: MatchOrder,
    ) -> Self {
        MappingSearch {
            set,
            index,
            lanes,
            width: width.max(1),
            order,
        }
    }

    /// Map one region graph: greedy incumbent first, then beam rounds with
    /// lower-bound pruning. Returns the cheapest tiling found.
    pub(crate) fn run(&self, g: &Dfg) -> Result<Vec<PlanStep>, GenError> {
        let _span = hcg_obs::span("search", "beam");
        // Incumbent: the greedy tiling. The search only ever improves on
        // it, so beam-mapped programs are never worse than greedy under
        // the scoring cost table.
        let greedy = map_graph(g, self.set, self.index, self.lanes, self.order, None)?;
        let mut best_cost = plan_cost(&greedy);
        let mut best_plan = greedy;

        let bounds = self.index.bounds(g.dtype, self.lanes);
        let max_nodes = bounds.max_nodes.max(1);
        let max_depth = bounds.max_depth.max(1);
        // Admissible completion bound: any tiling of `pending` nodes needs
        // at least ceil(pending / max_nodes) instructions, each costing at
        // least the cheapest applicable instruction.
        let min_cost = self
            .set
            .candidates(g.dtype, self.lanes)
            .map(|i| i.cost as u64)
            .min()
            .unwrap_or(1)
            .max(1);
        let lower_bound = |pending: usize| (pending as u64).div_ceil(max_nodes as u64) * min_cost;

        let mut memo = MatchMemo::new();
        let mut frontier = vec![BeamNode {
            state: MapState::new(g),
            plan: Vec::new(),
            cost: 0,
        }];
        let mut run = SearchStats {
            runs: 1,
            ..SearchStats::default()
        };
        while !frontier.is_empty() {
            let mut next: Vec<BeamNode> = Vec::new();
            for node in frontier.drain(..) {
                let Some(start) = top_left_node(g, &node.state) else {
                    // A complete tiling; strict improvement only, so ties
                    // keep the greedy incumbent.
                    run.tilings_completed += 1;
                    if node.cost < best_cost {
                        best_cost = node.cost;
                        best_plan = node.plan;
                    }
                    continue;
                };
                run.states_expanded += 1;
                // Successors in greedy preference order (largest candidate
                // first, cheapest instruction first): on equal optimistic
                // scores the stable sort below keeps this order, so the
                // beam degenerates gracefully toward the greedy path.
                let candidates = extend_subgraphs(g, &node.state, start, max_nodes, max_depth);
                for c in &candidates {
                    for (instr, matched) in
                        memo.find_all(self.set, self.index, g.dtype, self.lanes, &c.tree)
                    {
                        let cost = node.cost + instr.cost as u64;
                        let mut state = node.state.clone();
                        state.mark_computed(&c.nodes);
                        if cost + lower_bound(state.pending()) >= best_cost {
                            run.pruned_lb += 1;
                            continue;
                        }
                        let mut plan = node.plan.clone();
                        plan.push(PlanStep {
                            candidate: c.clone(),
                            instr: instr.clone(),
                            matched,
                        });
                        next.push(BeamNode { state, plan, cost });
                    }
                }
            }
            // Beam selection by optimistic score; the sort is stable, so
            // ties resolve to generation order. States covering the same
            // node set keep only their cheapest representative.
            next.sort_by_cached_key(|n| n.cost + lower_bound(n.state.pending()));
            let mut kept: Vec<BeamNode> = Vec::with_capacity(self.width);
            for n in next {
                if kept.len() >= self.width {
                    break;
                }
                if kept.iter().any(|k| k.state == n.state) {
                    continue;
                }
                kept.push(n);
            }
            frontier = kept;
        }

        run.memo_hits = memo.hits();
        run.memo_misses = memo.misses();
        note_run(run);
        Ok(best_plan)
    }
}

/// Score of a tiling: summed per-issue instruction cost, the quantity
/// `CostModel::stmt_cycles` charges each emitted `VOp`.
pub(crate) fn plan_cost(plan: &[PlanStep]) -> u64 {
    plan.iter().map(|s| s.instr.cost as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{form_regions_indexed, plan_region_indexed, BatchOptions};
    use crate::generator::GenContext;
    use hcg_isa::{sets, Arch};
    use hcg_model::library;

    #[test]
    fn strategy_labels_are_stable() {
        assert_eq!(MappingStrategy::Greedy.label(), "greedy");
        assert_eq!(MappingStrategy::Beam { width: 4 }.label(), "beam4");
        assert_eq!(MappingStrategy::default(), MappingStrategy::Greedy);
    }

    /// Under the builtin cost tables greedy is already optimal on the
    /// bundled models (fused instructions cost no more than the split
    /// sequence), so the beam keeps the greedy incumbent exactly.
    #[test]
    fn beam_keeps_greedy_plan_under_builtin_costs() {
        for (model, arch) in [
            (library::fig4_model(), Arch::Neon128),
            (library::fir_model(64, 4), Arch::Neon128),
            (library::lowpass_model(64), Arch::Avx256),
        ] {
            let ctx = GenContext::new(&model, arch, "test").unwrap();
            let d = crate::dispatch::classify_all(ctx.model, &ctx.types);
            let (set, index) = sets::builtin_indexed(arch);
            let greedy_opts = BatchOptions::default();
            let beam_opts = BatchOptions {
                mapping: MappingStrategy::Beam { width: 8 },
                ..BatchOptions::default()
            };
            for region in &form_regions_indexed(&ctx, &d, set, index) {
                let a = plan_region_indexed(&ctx, region, set, index, greedy_opts).unwrap();
                let b = plan_region_indexed(&ctx, region, set, index, beam_opts).unwrap();
                assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "{} on {arch}",
                    model.name
                );
            }
        }
    }

    /// When the cost table charges fused multiply-accumulate more than the
    /// split pair, the beam finds the cheaper split tiling while greedy
    /// (structure-driven) stays fused.
    #[test]
    fn beam_splits_fusions_when_cost_table_penalises_them() {
        let model = library::fir_model(64, 4);
        let ctx = GenContext::new(&model, Arch::Neon128, "test").unwrap();
        let d = crate::dispatch::classify_all(ctx.model, &ctx.types);
        let mut set = sets::builtin(Arch::Neon128);
        for i in &mut set.instrs {
            if i.name == "vmlaq_s32" {
                i.cost = 4; // dearer than vmulq (1) + vaddq (1)
            }
        }
        let index = hcg_isa::InstrIndex::build(&set);
        let regions = form_regions_indexed(&ctx, &d, &set, &index);
        let plan_all = |opts: BatchOptions| {
            regions
                .iter()
                .map(|r| plan_region_indexed(&ctx, r, &set, &index, opts).unwrap())
                .collect::<Vec<_>>()
        };
        let greedy = plan_all(BatchOptions::default());
        let beam = plan_all(BatchOptions {
            mapping: MappingStrategy::Beam { width: 8 },
            ..BatchOptions::default()
        });
        let steps = |plans: &[crate::batch::RegionPlan]| {
            plans
                .iter()
                .filter_map(|p| p.simd_step_count())
                .sum::<usize>()
        };
        let fused =
            |plans: &[crate::batch::RegionPlan]| format!("{plans:?}").matches("vmlaq_s32").count();
        // Greedy still fuses (fewer, dearer steps); the beam splits every
        // fused multiply-accumulate into the cheaper single-op pair.
        assert!(fused(&greedy) > 0, "greedy keeps the fused selection");
        assert_eq!(fused(&beam), 0);
        assert!(steps(&beam) > steps(&greedy));
    }

    #[test]
    fn probe_counts_beam_runs_and_ignores_greedy() {
        use crate::{CodeGenerator, HcgGen, HcgOptions};
        let model = library::fig4_model();
        let generate = |mapping| {
            let options = HcgOptions {
                mapping,
                ..HcgOptions::default()
            };
            HcgGen::with_options(options)
                .generate(&model, Arch::Neon128)
                .unwrap();
        };

        let before = stats();
        generate(MappingStrategy::Beam { width: 4 });
        let after = stats();
        assert!(after.runs > before.runs);
        assert!(after.states_expanded > before.states_expanded);

        generate(MappingStrategy::Greedy);
        assert_eq!(stats(), after, "greedy mapping never enters the search");
    }
}
