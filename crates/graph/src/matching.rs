//! Matching candidate subgraphs against instruction computing graphs
//! (paper Algorithm 2, line 17: `InsSet.getMatchInstruction(Subgraph)`).
//!
//! A match must respect operand structure: instruction input slots bind to
//! the candidate's leaf values, repeated slots must bind the same value, and
//! commutative operations may swap their operands. Shift patterns written
//! without an amount ([`SHIFT_ANY`]) match any constant amount and expose it
//! for the `#A` template placeholder.

use crate::dfg::DfgInput;
use crate::tree::ValTree;
use hcg_isa::{InstrIndex, InstrSet, Pattern, PatternArg, SimdInstr, SHIFT_ANY};
use hcg_model::op::ElemOp;
use hcg_model::DataType;
use std::collections::HashMap;

/// A successful instruction match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstrMatch {
    /// The value bound to each instruction input slot, in slot order
    /// (`I1` first).
    pub bindings: Vec<DfgInput>,
    /// The shift amount captured by a [`SHIFT_ANY`] wildcard (0 when the
    /// pattern has none).
    pub shift_amount: u32,
}

/// Try to match one instruction pattern against a candidate tree.
pub fn match_pattern(pattern: &Pattern, tree: &ValTree) -> Option<InstrMatch> {
    let mut bindings: Vec<Option<DfgInput>> = Vec::new();
    let mut shift = 0u32;
    if match_node(pattern, tree, &mut bindings, &mut shift) {
        let bound: Option<Vec<DfgInput>> = bindings.into_iter().collect();
        Some(InstrMatch {
            // Slots are dense by Pattern construction; a hole means the
            // pattern referenced a slot it never constrained, which the
            // parser prevents.
            bindings: bound?,
            shift_amount: shift,
        })
    } else {
        None
    }
}

/// Do two operations match, and if the pattern side is a wildcard shift,
/// what amount was captured?
fn ops_match(pat: ElemOp, node: ElemOp) -> Option<Option<u32>> {
    match (pat, node) {
        (ElemOp::Shr(SHIFT_ANY), ElemOp::Shr(k)) | (ElemOp::Shl(SHIFT_ANY), ElemOp::Shl(k)) => {
            Some(Some(k))
        }
        (a, b) if a == b => Some(None),
        _ => None,
    }
}

fn match_node(
    pattern: &Pattern,
    tree: &ValTree,
    bindings: &mut Vec<Option<DfgInput>>,
    shift: &mut u32,
) -> bool {
    let ValTree::Op { op, args } = tree else {
        return false;
    };
    let Some(captured) = ops_match(pattern.op, *op) else {
        return false;
    };
    if let Some(k) = captured {
        *shift = k;
    }
    debug_assert_eq!(pattern.args.len(), args.len(), "arity agreed via op match");

    let orders: &[&[usize]] = if pattern.op.commutative() && pattern.args.len() == 2 {
        &[&[0, 1], &[1, 0]]
    } else {
        &[&[0, 1, 2][..pattern.args.len().min(3)]]
    };
    for order in orders {
        let snapshot = bindings.clone();
        let shift_snapshot = *shift;
        let ok = pattern
            .args
            .iter()
            .zip(order.iter().map(|&i| &args[i]))
            .all(|(p_arg, t_arg)| match_arg(p_arg, t_arg, bindings, shift));
        if ok {
            return true;
        }
        *bindings = snapshot;
        *shift = shift_snapshot;
    }
    false
}

fn match_arg(
    p_arg: &PatternArg,
    t_arg: &ValTree,
    bindings: &mut Vec<Option<DfgInput>>,
    shift: &mut u32,
) -> bool {
    match (p_arg, t_arg) {
        (PatternArg::Input(slot), ValTree::Leaf(v)) => {
            if bindings.len() <= *slot {
                bindings.resize(*slot + 1, None);
            }
            match &bindings[*slot] {
                Some(existing) => existing == v,
                None => {
                    bindings[*slot] = Some(*v);
                    true
                }
            }
        }
        (PatternArg::Node(p), t @ ValTree::Op { .. }) => match_node(p, t, bindings, shift),
        _ => false,
    }
}

/// Search an instruction set for the best match (Algorithm 2 line 17):
/// among matching candidates, the one with the lowest issue cost wins; ties
/// resolve to file order.
///
/// The [`InstrIndex`] built over `set` buckets by (root op, dtype, lanes)
/// and pre-sorts each bucket by (cost, file order), so the first pattern
/// match in bucket order *is* the winner, without visiting instructions
/// whose root op, dtype, or lanes cannot match. (`hcg-fuzz` keeps a linear
/// scan over the whole set as the reference this is checked against.)
pub fn find_instruction_indexed<'a>(
    set: &'a InstrSet,
    index: &InstrIndex,
    dtype: DataType,
    lanes: usize,
    tree: &ValTree,
) -> Option<(&'a SimdInstr, InstrMatch)> {
    find_indexed_pos(set, index, dtype, lanes, tree).map(|(pos, m)| (&set.instrs[pos as usize], m))
}

/// Bucket walk returning the matched instruction's position in
/// `set.instrs` (what [`MatchMemo`] caches).
fn find_indexed_pos(
    set: &InstrSet,
    index: &InstrIndex,
    dtype: DataType,
    lanes: usize,
    tree: &ValTree,
) -> Option<(u32, InstrMatch)> {
    let ValTree::Op { op, .. } = tree else {
        return None; // a bare leaf never matches any pattern
    };
    for &pos in index.candidate_positions(*op, dtype, lanes) {
        let instr = &set.instrs[pos as usize];
        if let Some(m) = match_pattern(&instr.pattern, tree) {
            return Some((pos, m));
        }
    }
    None
}

/// Every instruction in the tree's bucket that matches, cheapest first
/// (bucket order is (cost, file order)). The first element is exactly the
/// [`find_instruction_indexed`] winner; the tail is what a search over
/// alternative selections explores.
fn find_all_indexed_pos(
    set: &InstrSet,
    index: &InstrIndex,
    dtype: DataType,
    lanes: usize,
    tree: &ValTree,
) -> Vec<(u32, InstrMatch)> {
    let ValTree::Op { op, .. } = tree else {
        return Vec::new();
    };
    index
        .candidate_positions(*op, dtype, lanes)
        .iter()
        .filter_map(|&pos| match_pattern(&set.instrs[pos as usize].pattern, tree).map(|m| (pos, m)))
        .collect()
}

/// [`find_all_indexed_pos`] with the instructions resolved against `set`:
/// all matches for `tree`, cheapest first.
pub fn find_all_instructions_indexed<'a>(
    set: &'a InstrSet,
    index: &InstrIndex,
    dtype: DataType,
    lanes: usize,
    tree: &ValTree,
) -> Vec<(&'a SimdInstr, InstrMatch)> {
    find_all_indexed_pos(set, index, dtype, lanes, tree)
        .into_iter()
        .map(|(pos, m)| (&set.instrs[pos as usize], m))
        .collect()
}

/// Per-region memo over [`find_instruction_indexed`]: Algorithm 2's
/// iterative rounds re-extend overlapping candidate subgraphs, so the same
/// operand tree is matched repeatedly; the memo runs `match_pattern` once
/// per distinct tree. The memo is only valid for one (set, dtype, lanes)
/// triple — create one per region mapping.
#[derive(Debug, Default)]
pub struct MatchMemo {
    /// tree → matched (instruction position, bindings), or `None` when no
    /// instruction matches the tree.
    cache: HashMap<ValTree, Option<(u32, InstrMatch)>>,
    /// tree → *every* matching (position, bindings), cheapest first —
    /// the beam search's top-k enumeration cache.
    all_cache: HashMap<ValTree, Vec<(u32, InstrMatch)>>,
    hits: u64,
    misses: u64,
}

impl MatchMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Memoised [`find_instruction_indexed`].
    pub fn find<'a>(
        &mut self,
        set: &'a InstrSet,
        index: &InstrIndex,
        dtype: DataType,
        lanes: usize,
        tree: &ValTree,
    ) -> Option<(&'a SimdInstr, InstrMatch)> {
        if let Some(cached) = self.cache.get(tree) {
            self.hits += 1;
            return cached
                .as_ref()
                .map(|(pos, m)| (&set.instrs[*pos as usize], m.clone()));
        }
        self.misses += 1;
        let found = find_indexed_pos(set, index, dtype, lanes, tree);
        self.cache.insert(tree.clone(), found.clone());
        found.map(|(pos, m)| (&set.instrs[pos as usize], m))
    }

    /// Memoised [`find_all_instructions_indexed`]: every match for `tree`,
    /// cheapest first, with its own cache (shared hit/miss counters). Used
    /// by the beam search, which needs alternatives beyond the greedy
    /// winner.
    pub fn find_all<'a>(
        &mut self,
        set: &'a InstrSet,
        index: &InstrIndex,
        dtype: DataType,
        lanes: usize,
        tree: &ValTree,
    ) -> Vec<(&'a SimdInstr, InstrMatch)> {
        if let Some(cached) = self.all_cache.get(tree) {
            self.hits += 1;
            return cached
                .iter()
                .map(|(pos, m)| (&set.instrs[*pos as usize], m.clone()))
                .collect();
        }
        self.misses += 1;
        let found = find_all_indexed_pos(set, index, dtype, lanes, tree);
        let resolved = found
            .iter()
            .map(|(pos, m)| (&set.instrs[*pos as usize], m.clone()))
            .collect();
        self.all_cache.insert(tree.clone(), found);
        resolved
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that ran the matcher.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfg::NodeId;
    use hcg_isa::{sets, Arch, InstrIndex};

    /// Best match for `tree` in the builtin set of `arch`.
    fn find(arch: Arch, dtype: DataType, lanes: usize, tree: &ValTree) -> Option<String> {
        let (set, index) = sets::builtin_indexed(arch);
        find_instruction_indexed(set, index, dtype, lanes, tree).map(|(i, _)| i.name.clone())
    }

    fn leaf(e: usize) -> ValTree {
        ValTree::Leaf(DfgInput::External(e))
    }

    fn node_leaf(n: usize) -> ValTree {
        ValTree::Leaf(DfgInput::Node(NodeId(n)))
    }

    fn op(o: ElemOp, args: Vec<ValTree>) -> ValTree {
        ValTree::Op { op: o, args }
    }

    #[test]
    fn single_op_match_binds_in_order() {
        let p: Pattern = "Sub(I1, I2)".parse().unwrap();
        let t = op(ElemOp::Sub, vec![leaf(1), leaf(2)]);
        let m = match_pattern(&p, &t).unwrap();
        assert_eq!(
            m.bindings,
            vec![DfgInput::External(1), DfgInput::External(2)]
        );
    }

    #[test]
    fn non_commutative_order_is_strict() {
        // Sub(I1, I2) must not match with swapped operands: the tree is
        // already in source order, and Sub isn't commutative, so bindings
        // follow tree order exactly — verify by distinct leaves.
        let p: Pattern = "Sub(I1, I2)".parse().unwrap();
        let t = op(ElemOp::Sub, vec![leaf(9), leaf(3)]);
        let m = match_pattern(&p, &t).unwrap();
        assert_eq!(m.bindings[0], DfgInput::External(9));
    }

    #[test]
    fn mla_matches_either_operand_order() {
        let p: Pattern = "Add(I1, Mul(I2, I3))".parse().unwrap();
        // Mul subtree on the right.
        let t1 = op(
            ElemOp::Add,
            vec![node_leaf(0), op(ElemOp::Mul, vec![node_leaf(0), leaf(3)])],
        );
        let m1 = match_pattern(&p, &t1).unwrap();
        assert_eq!(m1.bindings[0], DfgInput::Node(NodeId(0)));
        // Mul subtree on the left — Add is commutative.
        let t2 = op(
            ElemOp::Add,
            vec![op(ElemOp::Mul, vec![node_leaf(0), leaf(3)]), node_leaf(0)],
        );
        let m2 = match_pattern(&p, &t2).unwrap();
        assert_eq!(m2.bindings, m1.bindings);
    }

    #[test]
    fn vhadd_wildcard_vs_exact_shift() {
        let exact: Pattern = "Shr[1](Add(I1, I2))".parse().unwrap();
        let t1 = op(
            ElemOp::Shr(1),
            vec![op(ElemOp::Add, vec![leaf(0), node_leaf(0)])],
        );
        assert!(match_pattern(&exact, &t1).is_some());
        let t2 = op(
            ElemOp::Shr(2),
            vec![op(ElemOp::Add, vec![leaf(0), node_leaf(0)])],
        );
        assert!(match_pattern(&exact, &t2).is_none());

        let wild: Pattern = "Shr(I1)".parse().unwrap();
        let t3 = op(ElemOp::Shr(5), vec![leaf(0)]);
        let m = match_pattern(&wild, &t3).unwrap();
        assert_eq!(m.shift_amount, 5);
    }

    #[test]
    fn repeated_slot_requires_same_value() {
        let p: Pattern = "Mul(I1, I1)".parse().unwrap();
        let same = op(ElemOp::Mul, vec![leaf(0), leaf(0)]);
        assert!(match_pattern(&p, &same).is_some());
        let diff = op(ElemOp::Mul, vec![leaf(0), leaf(1)]);
        assert!(match_pattern(&p, &diff).is_none());
    }

    #[test]
    fn leaf_where_pattern_expects_op_fails() {
        let p: Pattern = "Add(I1, Mul(I2, I3))".parse().unwrap();
        let t = op(ElemOp::Add, vec![leaf(0), leaf(1)]);
        assert!(match_pattern(&p, &t).is_none());
    }

    #[test]
    fn find_prefers_fused_over_sequence_and_cheapest_match() {
        let (neon, index) = sets::builtin_indexed(Arch::Neon128);
        // Add(x, Mul(y, z)) should select vmlaq_s32.
        let t = op(
            ElemOp::Add,
            vec![leaf(0), op(ElemOp::Mul, vec![leaf(1), leaf(2)])],
        );
        let (instr, m) = find_instruction_indexed(neon, index, DataType::I32, 4, &t).unwrap();
        assert_eq!(instr.name, "vmlaq_s32");
        assert_eq!(m.bindings.len(), 3);
        // Plain Add selects vaddq_s32 (cost 1), not anything fused.
        let t2 = op(ElemOp::Add, vec![leaf(0), leaf(1)]);
        assert_eq!(
            find(Arch::Neon128, DataType::I32, 4, &t2).unwrap(),
            "vaddq_s32"
        );
    }

    #[test]
    fn find_respects_dtype_and_lanes() {
        let t = op(ElemOp::Add, vec![leaf(0), leaf(1)]);
        assert!(find(Arch::Neon128, DataType::I32, 4, &t).is_some());
        assert!(find(Arch::Neon128, DataType::I32, 8, &t).is_none());
        assert!(find(Arch::Neon128, DataType::U64, 2, &t).is_none());
    }

    #[test]
    fn integer_div_has_no_instruction() {
        let t = op(ElemOp::Div, vec![leaf(0), leaf(1)]);
        assert!(find(Arch::Neon128, DataType::I32, 4, &t).is_none());
        assert!(find(Arch::Neon128, DataType::F32, 4, &t).is_some());
    }

    #[test]
    fn indexed_find_rejects_bare_leaf() {
        let set = sets::builtin(Arch::Neon128);
        let index = InstrIndex::build(&set);
        assert!(find_instruction_indexed(&set, &index, DataType::I32, 4, &leaf(0)).is_none());
    }

    #[test]
    fn memo_caches_hits_and_misses() {
        let set = sets::builtin(Arch::Neon128);
        let index = InstrIndex::build(&set);
        let mut memo = MatchMemo::new();
        let t = op(
            ElemOp::Add,
            vec![leaf(0), op(ElemOp::Mul, vec![leaf(1), leaf(2)])],
        );
        let miss_tree = op(ElemOp::Div, vec![leaf(0), leaf(1)]);

        let first = memo.find(&set, &index, DataType::I32, 4, &t).unwrap();
        assert_eq!(first.0.name, "vmlaq_s32");
        assert_eq!((memo.hits(), memo.misses()), (0, 1));

        // Repeat: served from cache, identical result.
        let again = memo.find(&set, &index, DataType::I32, 4, &t).unwrap();
        assert_eq!(again.0.name, first.0.name);
        assert_eq!(again.1, first.1);
        assert_eq!((memo.hits(), memo.misses()), (1, 1));

        // Negative results are cached too.
        assert!(memo
            .find(&set, &index, DataType::I32, 4, &miss_tree)
            .is_none());
        assert!(memo
            .find(&set, &index, DataType::I32, 4, &miss_tree)
            .is_none());
        assert_eq!((memo.hits(), memo.misses()), (2, 2));
    }

    #[test]
    fn find_all_is_cheapest_first_and_head_agrees_with_find() {
        for arch in [Arch::Neon128, Arch::Sse128, Arch::Avx256] {
            let set = sets::builtin(arch);
            let index = InstrIndex::build(&set);
            let trees = [
                op(ElemOp::Add, vec![leaf(0), leaf(1)]),
                op(
                    ElemOp::Add,
                    vec![leaf(0), op(ElemOp::Mul, vec![leaf(1), leaf(2)])],
                ),
                op(ElemOp::Div, vec![leaf(0), leaf(1)]),
            ];
            for dtype in [DataType::I32, DataType::F32] {
                for lanes in [4, 8] {
                    for tree in &trees {
                        let all = find_all_instructions_indexed(&set, &index, dtype, lanes, tree);
                        // Cheapest first.
                        for w in all.windows(2) {
                            assert!(w[0].0.cost <= w[1].0.cost, "{arch} {dtype} x{lanes}");
                        }
                        // Head is the greedy winner (or both empty).
                        let first = find_instruction_indexed(&set, &index, dtype, lanes, tree);
                        assert_eq!(
                            all.first().map(|(i, m)| (&i.name, m)),
                            first.as_ref().map(|(i, m)| (&i.name, m)),
                            "{arch} {dtype} x{lanes} on {tree}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn memo_find_all_caches_and_counts() {
        let set = sets::builtin(Arch::Neon128);
        let index = InstrIndex::build(&set);
        let mut memo = MatchMemo::new();
        let t = op(
            ElemOp::Add,
            vec![leaf(0), op(ElemOp::Mul, vec![leaf(1), leaf(2)])],
        );
        let first = memo.find_all(&set, &index, DataType::I32, 4, &t);
        assert_eq!(first[0].0.name, "vmlaq_s32");
        assert_eq!((memo.hits(), memo.misses()), (0, 1));
        let again = memo.find_all(&set, &index, DataType::I32, 4, &t);
        assert_eq!(
            again.iter().map(|(i, _)| &i.name).collect::<Vec<_>>(),
            first.iter().map(|(i, _)| &i.name).collect::<Vec<_>>()
        );
        assert_eq!((memo.hits(), memo.misses()), (1, 1));
        // The single-result cache is separate storage but shares counters.
        memo.find(&set, &index, DataType::I32, 4, &t).unwrap();
        assert_eq!((memo.hits(), memo.misses()), (1, 2));
    }

    #[test]
    fn fig4_full_selection_sequence() {
        // End-to-end over the Fig. 4 graph: the selected instructions must
        // be exactly vsubq, vhaddq, vmlaq (paper Listing 1).
        use crate::dfg::Dfg;
        use crate::extend::{extend_subgraphs, top_left_node, MapState};

        let mut g = Dfg::new(DataType::I32, 4, 4);
        let s = g
            .add_node(
                ElemOp::Sub,
                vec![DfgInput::External(1), DfgInput::External(2)],
                "Sub",
            )
            .unwrap();
        let add_h = g
            .add_node(
                ElemOp::Add,
                vec![DfgInput::External(0), DfgInput::Node(s)],
                "AddH",
            )
            .unwrap();
        let shr = g
            .add_node(ElemOp::Shr(1), vec![DfgInput::Node(add_h)], "Shr")
            .unwrap();
        let mul = g
            .add_node(
                ElemOp::Mul,
                vec![DfgInput::Node(s), DfgInput::External(3)],
                "Mul",
            )
            .unwrap();
        let add_m = g
            .add_node(
                ElemOp::Add,
                vec![DfgInput::Node(s), DfgInput::Node(mul)],
                "AddM",
            )
            .unwrap();
        g.mark_output(shr);
        g.mark_output(add_m);

        let (neon, index) = sets::builtin_indexed(Arch::Neon128);
        let bounds = index.bounds(DataType::I32, 4);
        let mut state = MapState::new(&g);
        let mut selected = Vec::new();
        while let Some(start) = top_left_node(&g, &state) {
            let cands = extend_subgraphs(&g, &state, start, bounds.max_nodes, bounds.max_depth);
            let mut chosen = None;
            for c in &cands {
                if let Some((instr, _)) =
                    find_instruction_indexed(neon, index, DataType::I32, 4, &c.tree)
                {
                    chosen = Some((c.clone(), instr.name.clone()));
                    break;
                }
            }
            let (c, name) = chosen.expect("every single node maps on NEON i32");
            selected.push(name);
            state.mark_computed(&c.nodes);
        }
        assert_eq!(selected, vec!["vsubq_s32", "vhaddq_s32", "vmlaq_s32"]);
    }
}
