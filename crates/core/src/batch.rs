//! Algorithm 2 of the paper: code synthesis for batch computing actors —
//! dataflow-graph construction over regions of connected batch actors, and
//! iterative largest-subgraph instruction selection.

use crate::conventional::{emit_conventional, LoopStyle};
use crate::dispatch::Dispatch;
use crate::generator::{GenContext, GenError};
use crate::search::{MappingSearch, MappingStrategy};
use hcg_graph::extend::{extend_subgraphs, top_left_node, MapState};
use hcg_graph::matching::{find_instruction_indexed, InstrMatch, MatchMemo};
use hcg_graph::{Candidate, Dfg, DfgInput, NodeId, ValTree};
use hcg_isa::{InstrIndex, InstrSet, Pattern, PatternArg, SimdInstr, SHIFT_ANY};
use hcg_model::op::ElemOp;
use hcg_model::{ActorId, DataType, PortRef};
use hcg_vm::{BufferId, ElemRef, IndexExpr, RegId, ScalarOp, Stmt};
use std::collections::BTreeMap;

/// A maximal group of interconnected batch computing actors sharing one
/// element type and one array length (paper §3.2.2, dataflow graph
/// construction: "collect the interconnected actors which have the same
/// I/O scales and bit-width of data element").
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRegion {
    /// Member actors, in schedule order.
    pub members: Vec<ActorId>,
    /// Shared element type.
    pub dtype: DataType,
    /// Shared array length.
    pub len: usize,
}

/// Form the batch regions of a model.
///
/// An actor qualifies when dispatch classified it as batch *and* the
/// instruction set has at least a single-operation vector instruction for
/// its op at the region's element type and lane count — otherwise fusing it
/// into a region could leave Algorithm 2's matching loop with an unmappable
/// node (integer division is the classic case), so it falls back to
/// conventional translation instead. The qualification probes share the
/// [`InstrIndex`] over `set` that the mapping stage uses.
pub fn form_regions_indexed(
    ctx: &GenContext<'_>,
    dispatch: &[Dispatch],
    set: &InstrSet,
    index: &InstrIndex,
) -> Vec<BatchRegion> {
    // One probe per distinct (op, dtype) — models repeat actor kinds, so
    // the cache collapses per-actor probes to a handful of matches.
    let mut probed: BTreeMap<(ElemOp, DataType), bool> = BTreeMap::new();
    let arch = ctx.prog.arch;
    let mut qualifies = |id: ActorId| -> Option<(ElemOp, DataType, usize)> {
        let Dispatch::Batch { op, len } = dispatch[id.0] else {
            return None;
        };
        let dtype = ctx.types.output(id, 0).dtype;
        let lanes = arch.lanes(dtype);
        // Probe for a single-node instruction with distinct operands.
        let ok = *probed.entry((op, dtype)).or_insert_with(|| {
            let probe = ValTree::Op {
                op,
                args: (0..op.arity())
                    .map(|i| ValTree::Leaf(DfgInput::External(i)))
                    .collect(),
            };
            find_instruction_indexed(set, index, dtype, lanes, &probe).is_some()
        });
        ok.then_some((op, dtype, len))
    };

    let n = ctx.model.actors.len();
    let mut region_of: Vec<Option<usize>> = vec![None; n];
    let mut regions: Vec<BatchRegion> = Vec::new();
    let mut first_pos: Vec<usize> = Vec::new();
    let pos = ctx.schedule.positions();

    // Greedy clustering in schedule order. A region executes as one block
    // at its first member's schedule position, so an actor may join a
    // region only if every one of its producers is already available
    // there: a member of that region, a position-independent source
    // (inport/constant/delay state, whose buffers are valid from step
    // start), or an actor scheduled before the region's first member. This
    // keeps every region schedule-valid even when non-vectorisable actors
    // interleave with its members.
    let available_before = |p: ActorId, limit: usize| -> bool {
        matches!(
            ctx.model.actor(p).kind,
            hcg_model::ActorKind::Inport
                | hcg_model::ActorKind::Constant
                | hcg_model::ActorKind::UnitDelay
        ) || pos[p.0] < limit
    };

    for &aid in &ctx.schedule.order {
        let Some((_, dtype, len)) = qualifies(aid) else {
            continue;
        };
        let producers: Vec<ActorId> = (0..ctx.model.actor(aid).kind.input_count())
            .filter_map(|p| {
                ctx.model
                    .driver(hcg_model::PortRef::new(aid, p))
                    .map(|s| s.actor)
            })
            .collect();
        // Candidate regions: regions of qualifying producers with matching
        // dtype/len, latest-starting first (the weakest availability
        // constraint for the remaining producers).
        let mut candidates: Vec<usize> = producers
            .iter()
            .filter_map(|p| region_of[p.0])
            .filter(|&r| regions[r].dtype == dtype && regions[r].len == len)
            .collect();
        candidates.sort_by_key(|&r| std::cmp::Reverse(first_pos[r]));
        candidates.dedup();
        let joined = candidates.into_iter().find(|&r| {
            producers
                .iter()
                .all(|&p| region_of[p.0] == Some(r) || available_before(p, first_pos[r]))
        });
        match joined {
            Some(r) => {
                region_of[aid.0] = Some(r);
                regions[r].members.push(aid);
            }
            None => {
                region_of[aid.0] = Some(regions.len());
                first_pos.push(pos[aid.0]);
                regions.push(BatchRegion {
                    members: vec![aid],
                    dtype,
                    len,
                });
            }
        }
    }
    for r in &mut regions {
        r.members.sort_by_key(|a| pos[a.0]);
    }
    regions
}

/// Candidate ordering during matching (paper: "subgraphs with more
/// computational cost will be tried to be matched first"). `SmallestFirst`
/// exists as the ablation control.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatchOrder {
    /// The paper's greedy largest-subgraph-first order.
    #[default]
    LargestFirst,
    /// Inverted order: single nodes match first, so compound instructions
    /// are never selected — the ablation baseline.
    SmallestFirst,
}

/// Options controlling Algorithm 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchOptions {
    /// Regions with fewer member actors than this are translated
    /// conventionally (the §4.3 discussion: one or two batch actors may not
    /// amortise the register↔memory transfers). The paper's evaluated
    /// configuration is 1 (always vectorise).
    pub simd_threshold: usize,
    /// Loop style for conventional fallbacks.
    pub fallback_style: LoopStyle,
    /// Candidate ordering (ablation knob).
    pub match_order: MatchOrder,
    /// Tiling selection: the paper's greedy pass or the opt-in beam
    /// search (see [`MappingStrategy`]).
    pub mapping: MappingStrategy,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            simd_threshold: 1,
            fallback_style: LoopStyle::CODER,
            match_order: MatchOrder::LargestFirst,
            mapping: MappingStrategy::Greedy,
        }
    }
}

/// One selected instruction of the mapping plan.
#[derive(Debug, Clone)]
pub(crate) struct PlanStep {
    pub(crate) candidate: Candidate,
    pub(crate) instr: SimdInstr,
    pub(crate) matched: InstrMatch,
}

/// Build the region's dataflow graph (step 1 of §3.2.2).
fn build_dfg(ctx: &GenContext<'_>, region: &BatchRegion) -> Result<(Dfg, Vec<BufferId>), GenError> {
    let mut externals: Vec<BufferId> = Vec::new();
    let mut ext_index = BTreeMap::new();
    let mut node_of: BTreeMap<ActorId, NodeId> = BTreeMap::new();
    // Pre-size externals lazily.
    let mut g = Dfg::new(region.dtype, region.len, usize::MAX);

    for &aid in &region.members {
        let actor = ctx.model.actor(aid);
        let amount = actor.param("amount").and_then(|p| p.as_int()).unwrap_or(0) as u32;
        let op = ElemOp::from_actor(actor.kind, amount)
            .ok_or_else(|| GenError::Internal(format!("{} is not a batch op", actor.name)))?;
        let mut inputs = Vec::with_capacity(op.arity());
        for p in 0..actor.kind.input_count() {
            let src = ctx
                .model
                .driver(PortRef::new(aid, p))
                .ok_or_else(|| GenError::Internal("unconnected input".into()))?;
            if let Some(&nid) = node_of.get(&src.actor) {
                inputs.push(DfgInput::Node(nid));
            } else {
                let buf = ctx.actor_buffer(src.actor);
                let e = *ext_index.entry(buf).or_insert_with(|| {
                    externals.push(buf);
                    externals.len() - 1
                });
                inputs.push(DfgInput::External(e));
            }
        }
        let nid = g
            .add_node(op, inputs, actor.name.clone())
            .map_err(|e| GenError::Internal(e.to_string()))?;
        node_of.insert(aid, nid);
    }
    // Outputs: any member value consumed outside the region.
    for (&aid, &nid) in &node_of {
        let consumers = ctx.model.consumers(PortRef::new(aid, 0));
        let leaves_region =
            consumers.is_empty() || consumers.iter().any(|c| !node_of.contains_key(&c.actor));
        if leaves_region {
            g.mark_output(nid);
        }
    }
    Ok((g, externals))
}

/// Run the iterative mapping loop (Algorithm 2 lines 10–22) and return the
/// ordered instruction plan. With `trace` set, each round also appends a
/// [`MapTrace`]; candidates are rendered only then, so the untraced loop
/// does no extra work.
///
/// The extension bounds are served from the index's per-(dtype, lanes)
/// cache instead of re-scanning the instruction set, every candidate lookup
/// walks only the (root op, dtype, lanes) bucket, and a per-region
/// [`MatchMemo`] ensures a tree that reappears across rounds (overlapping
/// extensions of neighbouring start nodes) never re-runs `match_pattern`.
pub(crate) fn map_graph(
    g: &Dfg,
    set: &InstrSet,
    index: &InstrIndex,
    lanes: usize,
    order: MatchOrder,
    mut trace: Option<&mut Vec<MapTrace>>,
) -> Result<Vec<PlanStep>, GenError> {
    let bounds = index.bounds(g.dtype, lanes);
    let max_nodes = bounds.max_nodes.max(1);
    let max_depth = bounds.max_depth.max(1);
    let mut memo = MatchMemo::new();
    let mut state = MapState::new(g);
    let mut plan = Vec::new();
    while let Some(start) = top_left_node(g, &state) {
        let mut candidates = extend_subgraphs(g, &state, start, max_nodes, max_depth);
        if order == MatchOrder::SmallestFirst {
            candidates.reverse();
        }
        let rendered: Vec<String> = if trace.is_some() {
            candidates.iter().map(|c| c.tree.to_string()).collect()
        } else {
            Vec::new()
        };
        let mut chosen = None;
        for c in candidates {
            if let Some((instr, m)) = memo.find(set, index, g.dtype, lanes, &c.tree) {
                chosen = Some(PlanStep {
                    candidate: c,
                    instr: instr.clone(),
                    matched: m,
                });
                break;
            }
        }
        let step = chosen.ok_or_else(|| {
            GenError::Internal(format!(
                "no instruction for node {} ({}) — region formation should have excluded it",
                start,
                g.node(start).op
            ))
        })?;
        if let Some(trace) = trace.as_deref_mut() {
            trace.push(MapTrace {
                start: g.node(start).label.clone(),
                candidates: rendered,
                chosen: step.candidate.tree.to_string(),
                instruction: step.instr.name.clone(),
            });
        }
        state.mark_computed(&step.candidate.nodes);
        plan.push(step);
    }
    Ok(plan)
}

/// Run the mapping loop under the configured [`MappingStrategy`]:
/// [`map_graph`] for greedy (and beam widths ≤ 1, which are defined as
/// byte-identical to greedy), [`MappingSearch`] otherwise.
fn map_graph_with(
    g: &Dfg,
    set: &InstrSet,
    index: &InstrIndex,
    lanes: usize,
    options: BatchOptions,
) -> Result<Vec<PlanStep>, GenError> {
    match options.mapping {
        MappingStrategy::Greedy | MappingStrategy::Beam { width: 0 | 1 } => {
            map_graph(g, set, index, lanes, options.match_order, None)
        }
        MappingStrategy::Beam { width } => {
            MappingSearch::new(set, index, lanes, width, options.match_order).run(g)
        }
    }
}

/// Substitute a concrete shift amount for the [`SHIFT_ANY`] wildcard so the
/// VM can execute the pattern.
pub fn concretize(pattern: &Pattern, amount: u32) -> Pattern {
    let op = match pattern.op {
        ElemOp::Shr(SHIFT_ANY) => ElemOp::Shr(amount),
        ElemOp::Shl(SHIFT_ANY) => ElemOp::Shl(amount),
        other => other,
    };
    Pattern {
        op,
        args: pattern
            .args
            .iter()
            .map(|a| match a {
                PatternArg::Input(i) => PatternArg::Input(*i),
                PatternArg::Node(n) => PatternArg::Node(Box::new(concretize(n, amount))),
            })
            .collect(),
    }
}

/// A region's computed emission plan: the pure (read-only) half of
/// Algorithm 2, produced by [`plan_region_indexed`] and realised by
/// [`emit_region_plan`]. Splitting planning from emission lets the
/// `instruction-mapping` stage report what was selected before the
/// `compose` stage mutates the program.
#[derive(Debug, Clone)]
pub struct RegionPlan {
    kind: RegionPlanKind,
}

#[derive(Debug, Clone)]
enum RegionPlanKind {
    /// Lines 3–4 (+ the §4.3 threshold): the region falls back to
    /// conventional translation.
    Conventional { fallback_style: LoopStyle },
    /// The SIMD path: the region's dataflow graph, its external input
    /// buffers, the selected instruction steps, and the outputs whose store
    /// redirects straight into an outport buffer.
    Simd {
        dfg: Dfg,
        externals: Vec<BufferId>,
        steps: Vec<PlanStep>,
        redirect_outports: Vec<(NodeId, ActorId)>,
    },
}

impl RegionPlan {
    /// Number of SIMD instructions the mapping selected, or `None` for a
    /// conventional fallback plan.
    pub fn simd_step_count(&self) -> Option<usize> {
        match &self.kind {
            RegionPlanKind::Simd { steps, .. } => Some(steps.len()),
            RegionPlanKind::Conventional { .. } => None,
        }
    }
}

/// Plan a batch region without touching the program: decide SIMD vs
/// conventional fallback, build the dataflow graph, run the mapping loop
/// (Algorithm 2 lines 10–22) over the caller's [`InstrIndex`] for `set`
/// and precompute output-variable-reuse redirects. The pipeline builds the
/// index once per program and reuses it for every region.
///
/// # Errors
///
/// Returns [`GenError`] when the region graph cannot be built or mapped.
pub fn plan_region_indexed(
    ctx: &GenContext<'_>,
    region: &BatchRegion,
    set: &InstrSet,
    index: &InstrIndex,
    options: BatchOptions,
) -> Result<RegionPlan, GenError> {
    let arch = ctx.prog.arch;
    // Line 1: BatchSize = VectorWidth / DataBitWidth.
    let lanes = arch.lanes(region.dtype);
    // Line 2: BatchCount = DataLength / BatchSize.
    let batch_count = region.len / lanes;
    // Lines 3–4 (+ the §4.3 threshold): conventional fallback.
    if batch_count < 1 || region.members.len() < options.simd_threshold {
        return Ok(RegionPlan {
            kind: RegionPlanKind::Conventional {
                fallback_style: options.fallback_style,
            },
        });
    }

    let (g, externals) = build_dfg(ctx, region)?;
    let steps = map_graph_with(&g, set, index, lanes, options)?;
    let redirect_outports = output_redirects(ctx, &g)?;
    Ok(RegionPlan {
        kind: RegionPlanKind::Simd {
            dfg: g,
            externals,
            steps,
            redirect_outports,
        },
    })
}

/// Output-variable reuse: a region output consumed only by an Outport
/// stores straight into the outport's buffer, eliding the final copy.
fn output_redirects(ctx: &GenContext<'_>, g: &Dfg) -> Result<Vec<(NodeId, ActorId)>, GenError> {
    let mut redirect_outports: Vec<(NodeId, ActorId)> = Vec::new();
    for &out in g.outputs() {
        let aid = node_actor(ctx, g, out)?;
        let consumers = ctx.model.consumers(PortRef::new(aid, 0));
        if let [only] = consumers.as_slice() {
            if ctx.model.actor(only.actor).kind == hcg_model::ActorKind::Outport {
                redirect_outports.push((out, only.actor));
            }
        }
    }
    Ok(redirect_outports)
}

/// Realise a region plan: the mutating half of Algorithm 2 (register
/// allocation, remainder code, loads/ops/stores, loop wrapping).
///
/// # Errors
///
/// Returns [`GenError`] when an output node was fused away (an internal
/// invariant violation).
pub fn emit_region_plan(
    ctx: &mut GenContext<'_>,
    region: &BatchRegion,
    plan: &RegionPlan,
) -> Result<(), GenError> {
    let (g, externals, steps, redirect_outports) = match &plan.kind {
        RegionPlanKind::Conventional { fallback_style } => {
            for &aid in &region.members {
                let actor = ctx.model.actor(aid);
                emit_conventional(ctx, actor, *fallback_style)?;
            }
            return Ok(());
        }
        RegionPlanKind::Simd {
            dfg,
            externals,
            steps,
            redirect_outports,
        } => (dfg, externals, steps, redirect_outports),
    };
    let lanes = ctx.prog.arch.lanes(region.dtype);
    let batch_count = region.len / lanes;

    let mut redirects: BTreeMap<NodeId, BufferId> = BTreeMap::new();
    for &(out, outport) in redirect_outports {
        ctx.mark_outport_written(outport);
        redirects.insert(out, ctx.actor_buffer(outport));
    }

    // Line 6: Offset = DataLength % BatchSize.
    let offset = region.len % lanes;

    // Lines 24–26: remainder code, placed before the main loop.
    if offset != 0 {
        emit_scalar_remainder(ctx, g, externals, offset, &redirects)?;
    }

    // Lines 5–23: the SIMD section. With BatchCount >= 2 it is a loop
    // starting at the offset; a single batch is emitted straight-line.
    let looped = batch_count >= 2;
    let index = if looped {
        IndexExpr::Loop(0)
    } else {
        IndexExpr::Const(offset)
    };

    let mut body: Vec<Stmt> = Vec::new();
    // Line 9: data-preparation variables (vector loads), e.g.
    // `int32x4_t a_batch = vld1q_s32(a);`.
    let mut ext_regs: Vec<RegId> = Vec::with_capacity(externals.len());
    for &buf in externals {
        let reg = ctx.prog.add_named_reg(
            region.dtype,
            lanes,
            format!("{}_batch", ctx.prog.buffer(buf).name),
        );
        body.push(Stmt::VLoad { reg, buf, index });
        ext_regs.push(reg);
    }

    // Lines 10–22: calculation code per selected instruction.
    let mut node_regs: BTreeMap<NodeId, RegId> = BTreeMap::new();
    for step in steps {
        let sink = step.candidate.sink;
        let dst = ctx.prog.add_named_reg(
            region.dtype,
            lanes,
            format!("{}_batch", crate::generator::sanitize(&g.node(sink).label)),
        );
        let srcs: Vec<RegId> = step
            .matched
            .bindings
            .iter()
            .map(|b| match b {
                DfgInput::External(e) => ext_regs[*e],
                DfgInput::Node(n) => node_regs[n],
            })
            .collect();
        let src_names: Vec<&str> = srcs
            .iter()
            .map(|r| ctx.prog.reg_names[r.0].as_str())
            .collect();
        let code = step.instr.render(
            &src_names,
            &ctx.prog.reg_names[dst.0],
            step.matched.shift_amount,
        );
        body.push(Stmt::VOp {
            instr: step.instr.name.clone(),
            pattern: concretize(&step.instr.pattern, step.matched.shift_amount),
            cost: step.instr.cost,
            dst,
            srcs,
            code,
        });
        node_regs.insert(sink, dst);
    }

    // Line 23: store region outputs, e.g. `vst1q_s32(&out[i], out_batch);`.
    // Output-variable reuse: a value consumed only by an Outport is stored
    // straight into the outport's buffer, eliding the final copy.
    for &out in g.outputs() {
        let reg = *node_regs
            .get(&out)
            .ok_or_else(|| GenError::Internal(format!("output node {out} was fused away")))?;
        let aid = region
            .members
            .iter()
            .copied()
            .find(|a| ctx.model.actor(*a).name == g.node(out).label)
            .ok_or_else(|| GenError::Internal("output label not found".into()))?;
        let buf = redirects
            .get(&out)
            .copied()
            .unwrap_or_else(|| ctx.actor_buffer(aid));
        body.push(Stmt::VStore { buf, index, reg });
    }

    if looped {
        ctx.prog.body.push(Stmt::Loop {
            start: offset,
            end: region.len,
            step: lanes,
            body,
        });
    } else {
        ctx.prog.body.extend(body);
    }
    Ok(())
}

/// One step of a mapping explanation (see [`explain_region`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MapTrace {
    /// The topmost-leftmost node this round started from.
    pub start: String,
    /// Candidate subgraphs in try order, as operand trees.
    pub candidates: Vec<String>,
    /// The candidate that matched.
    pub chosen: String,
    /// The selected instruction.
    pub instruction: String,
}

/// Narrate Algorithm 2 on one region: for each round, which node was
/// selected, which subgraph candidates were extended (in `order`), and
/// which instruction matched — the explanation the paper's Figure 4 walks
/// through ("three subgraphs will be extended from the Sub node …"). The
/// narration is recorded by the greedy mapping loop itself, so it names
/// exactly the instructions a greedy plan for the same region and order
/// emits.
///
/// # Errors
///
/// Returns [`GenError`] when the region cannot be mapped.
pub fn explain_region(
    ctx: &GenContext<'_>,
    region: &BatchRegion,
    set: &InstrSet,
    index: &InstrIndex,
    order: MatchOrder,
) -> Result<Vec<MapTrace>, GenError> {
    let lanes = ctx.prog.arch.lanes(region.dtype);
    let (g, _) = build_dfg(ctx, region)?;
    let mut trace = Vec::new();
    map_graph(&g, set, index, lanes, order, Some(&mut trace))?;
    Ok(trace)
}

/// Scalar code for the first `offset` elements (same computation logic as
/// the loop body, Algorithm 2 lines 24–26).
fn emit_scalar_remainder(
    ctx: &mut GenContext<'_>,
    g: &Dfg,
    externals: &[BufferId],
    offset: usize,
    redirects: &BTreeMap<NodeId, BufferId>,
) -> Result<(), GenError> {
    // Every node writes its own actor buffer element-wise; topological node
    // order makes operands available.
    for i in 0..offset {
        for node in g.nodes() {
            let aid = node_actor(ctx, g, node.id)?;
            let dst = ElemRef {
                buf: ctx.actor_buffer(aid),
                index: IndexExpr::Const(i),
            };
            let srcs: Vec<ElemRef> = node
                .inputs
                .iter()
                .map(|inp| {
                    let buf = match inp {
                        DfgInput::External(e) => externals[*e],
                        DfgInput::Node(n) => {
                            let a = node_actor(ctx, g, *n).expect("validated above");
                            ctx.actor_buffer(a)
                        }
                    };
                    ElemRef {
                        buf,
                        index: IndexExpr::Const(i),
                    }
                })
                .collect();
            ctx.prog.body.push(Stmt::Scalar {
                op: ScalarOp::Elem(node.op),
                dst,
                srcs,
            });
            // Remainder elements of a redirected output also land in the
            // outport buffer (whose copy was elided).
            if let Some(&redirect) = redirects.get(&node.id) {
                ctx.prog.body.push(Stmt::Scalar {
                    op: ScalarOp::Copy,
                    dst: ElemRef {
                        buf: redirect,
                        index: IndexExpr::Const(i),
                    },
                    srcs: vec![dst],
                });
            }
        }
    }
    Ok(())
}

fn node_actor(ctx: &GenContext<'_>, g: &Dfg, id: NodeId) -> Result<ActorId, GenError> {
    ctx.model
        .actor_by_name(&g.node(id).label)
        .map(|a| a.id)
        .ok_or_else(|| GenError::Internal(format!("no actor for node {id}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcg_isa::{sets, Arch};
    use hcg_model::library;

    fn ctx_for(model: &hcg_model::Model, arch: Arch) -> GenContext<'_> {
        GenContext::new(model, arch, "test").unwrap()
    }

    /// The batch regions of the context's model over the builtin set.
    fn regions_of(ctx: &GenContext<'_>) -> Vec<BatchRegion> {
        let d = crate::dispatch::classify_all(ctx.model, &ctx.types);
        let (set, index) = sets::builtin_indexed(ctx.prog.arch);
        form_regions_indexed(ctx, &d, set, index)
    }

    /// Plan and emit one region over the builtin set.
    fn emit(ctx: &mut GenContext<'_>, region: &BatchRegion, options: BatchOptions) {
        let (set, index) = sets::builtin_indexed(ctx.prog.arch);
        let plan = plan_region_indexed(ctx, region, set, index, options).unwrap();
        emit_region_plan(ctx, region, &plan).unwrap();
    }

    #[test]
    fn fig4_forms_one_region_of_five() {
        let m = library::fig4_model();
        let ctx = ctx_for(&m, Arch::Neon128);
        let regions = regions_of(&ctx);
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].members.len(), 5);
        assert_eq!(regions[0].len, 4);
        assert_eq!(regions[0].dtype, hcg_model::DataType::I32);
    }

    #[test]
    fn fig4_mapping_selects_listing1_instructions() {
        let m = library::fig4_model();
        let mut ctx = ctx_for(&m, Arch::Neon128);
        let regions = regions_of(&ctx);
        emit(&mut ctx, &regions[0], BatchOptions::default());
        let prog = ctx.finish();
        let names: Vec<&str> = prog
            .body
            .iter()
            .filter_map(|s| match s {
                Stmt::VOp { instr, .. } => Some(instr.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(names, vec!["vsubq_s32", "vhaddq_s32", "vmlaq_s32"]);
        // len == lanes: straight-line, no loop, 4 loads, 2 stores.
        let stats = prog.stmt_stats();
        assert_eq!(stats.loops, 0);
        assert_eq!(stats.vloads, 4);
        assert_eq!(stats.vstores, 2);
    }

    #[test]
    fn larger_region_wraps_in_loop_with_offset() {
        // len = 10, lanes = 4 → offset 2, loop from 2 to 10 step 4.
        let m = library::fig4_model_sized(10);
        let mut ctx = ctx_for(&m, Arch::Neon128);
        let regions = regions_of(&ctx);
        emit(&mut ctx, &regions[0], BatchOptions::default());
        let prog = ctx.finish();
        let the_loop = prog
            .body
            .iter()
            .find_map(|s| match s {
                Stmt::Loop {
                    start, end, step, ..
                } => Some((*start, *end, *step)),
                _ => None,
            })
            .expect("a SIMD loop");
        assert_eq!(the_loop, (2, 10, 4));
        // Remainder: 2 elements × (5 nodes + 2 redirected-outport copies).
        assert_eq!(prog.stmt_stats().scalar_ops, 14);
    }

    #[test]
    fn short_region_falls_back_to_conventional() {
        // len = 2 < lanes = 4 → BatchCount < 1 → conventionalTranslate.
        let m = library::fig4_model_sized(2);
        let mut ctx = ctx_for(&m, Arch::Neon128);
        let regions = regions_of(&ctx);
        emit(&mut ctx, &regions[0], BatchOptions::default());
        let prog = ctx.finish();
        assert_eq!(prog.stmt_stats().vops, 0);
        assert!(prog.stmt_stats().scalar_ops > 0);
    }

    #[test]
    fn threshold_disables_simd() {
        let m = library::fig4_model();
        let mut ctx = ctx_for(&m, Arch::Neon128);
        let regions = regions_of(&ctx);
        let opts = BatchOptions {
            simd_threshold: 10,
            ..BatchOptions::default()
        };
        emit(&mut ctx, &regions[0], opts);
        assert_eq!(ctx.prog.stmt_stats().vops, 0);
    }

    #[test]
    fn sse_has_no_vhadd_but_still_maps() {
        // On SSE there is no fused (a+b)>>1; the Shr maps as its own
        // instruction.
        let m = library::fig4_model_sized(8);
        let mut ctx = ctx_for(&m, Arch::Sse128);
        let regions = regions_of(&ctx);
        emit(&mut ctx, &regions[0], BatchOptions::default());
        let prog = ctx.finish();
        let stats = prog.stmt_stats();
        // 5 nodes, no fusion on SSE integer ops → 5 vops.
        assert_eq!(stats.vops, 5);
    }

    #[test]
    fn float_div_region_qualifies_but_int_div_does_not() {
        use hcg_model::{ActorKind, DataType, ModelBuilder, SignalType};
        for (dtype, expect_regions) in [(DataType::F32, 1), (DataType::I32, 0)] {
            let ty = SignalType::vector(dtype, 8);
            let mut b = ModelBuilder::new("divs");
            let x = b.inport("x", ty);
            let y = b.inport("y", ty);
            let div = b.add_actor("q", ActorKind::Div);
            let o = b.outport("o");
            b.connect(x, 0, div, 0);
            b.connect(y, 0, div, 1);
            b.connect(div, 0, o, 0);
            let m = b.build().unwrap();
            let ctx = ctx_for(&m, Arch::Neon128);
            let regions = regions_of(&ctx);
            assert_eq!(regions.len(), expect_regions, "{dtype}");
        }
    }

    #[test]
    fn explain_region_narrates_figure4() {
        let m = library::fig4_model();
        let ctx = ctx_for(&m, Arch::Neon128);
        let regions = regions_of(&ctx);
        let (set, index) = sets::builtin_indexed(Arch::Neon128);
        let trace =
            explain_region(&ctx, &regions[0], set, index, MatchOrder::LargestFirst).unwrap();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace[0].start, "Sub");
        assert_eq!(trace[0].instruction, "vsubq_s32");
        assert_eq!(trace[1].instruction, "vhaddq_s32");
        // The vhadd round considered the fused candidate before singles.
        assert!(trace[1].candidates.len() >= 2);
        assert_eq!(trace[2].instruction, "vmlaq_s32");
    }

    /// `VOp` instruction names in emission order, loop bodies included.
    fn vop_names(stmts: &[Stmt]) -> Vec<String> {
        stmts
            .iter()
            .flat_map(|s| match s {
                Stmt::VOp { instr, .. } => vec![instr.clone()],
                Stmt::Loop { body, .. } => vop_names(body),
                _ => Vec::new(),
            })
            .collect()
    }

    #[test]
    fn explanation_names_the_emitted_instructions() {
        let mut checked = 0;
        for m in library::paper_benchmarks() {
            for arch in [Arch::Neon128, Arch::Avx256] {
                for order in [MatchOrder::LargestFirst, MatchOrder::SmallestFirst] {
                    let mut ctx = ctx_for(&m, arch);
                    let (set, index) = sets::builtin_indexed(arch);
                    let options = BatchOptions {
                        match_order: order,
                        ..BatchOptions::default()
                    };
                    for region in &regions_of(&ctx) {
                        let explained: Vec<String> =
                            explain_region(&ctx, region, set, index, order)
                                .unwrap()
                                .into_iter()
                                .map(|t| t.instruction)
                                .collect();
                        let before = ctx.prog.body.len();
                        emit(&mut ctx, region, options);
                        assert_eq!(
                            explained,
                            vop_names(&ctx.prog.body[before..]),
                            "{} on {arch}, {order:?}",
                            m.name
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 0, "the paper models have batch regions");
    }

    #[test]
    fn rendered_code_matches_listing1_shapes() {
        let m = library::fig4_model();
        let mut ctx = ctx_for(&m, Arch::Neon128);
        let regions = regions_of(&ctx);
        emit(&mut ctx, &regions[0], BatchOptions::default());
        let codes: Vec<String> = ctx
            .prog
            .body
            .iter()
            .filter_map(|s| match s {
                Stmt::VOp { code, .. } => Some(code.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(codes[0], "Sub_batch = vsubq_s32(b_batch, c_batch);");
        assert_eq!(codes[1], "Shr_batch = vhaddq_s32(a_batch, Sub_batch);");
        assert_eq!(
            codes[2],
            "AddM_batch = vmlaq_s32(Sub_batch, Sub_batch, d_batch);"
        );
    }
}
