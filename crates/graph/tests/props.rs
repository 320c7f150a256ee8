//! Property tests for the dataflow-graph engine: the Algorithm-2 selection
//! loop always terminates and covers every node exactly once; candidates
//! are convex, independent and single-sink; matching is sound.

use hcg_graph::extend::{extend_subgraphs, top_left_node, MapState};
use hcg_graph::matching::{find_instruction_indexed, match_pattern};
use hcg_graph::{Dfg, DfgInput, NodeId, ValTree};
use hcg_isa::{sets, Arch, Pattern};
use hcg_model::op::ElemOp;
use hcg_model::DataType;
use proptest::prelude::*;

/// Build a random i32 DFG from a seed: each node picks an op and operands
/// from earlier nodes or externals.
fn random_dfg(seed: u64, n_ext: usize, n_nodes: usize) -> Dfg {
    let mut g = Dfg::new(DataType::I32, 16, n_ext);
    let ops = [
        ElemOp::Add,
        ElemOp::Sub,
        ElemOp::Mul,
        ElemOp::Min,
        ElemOp::Max,
        ElemOp::Abd,
        ElemOp::Abs,
        ElemOp::Neg,
        ElemOp::Shr(1),
        ElemOp::BitAnd,
    ];
    let mut state = seed.max(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for i in 0..n_nodes {
        let op = ops[(next() as usize) % ops.len()];
        let pick = |r: u64, i: usize| -> DfgInput {
            let total = n_ext + i;
            let idx = (r as usize) % total;
            if idx < n_ext {
                DfgInput::External(idx)
            } else {
                DfgInput::Node(NodeId(idx - n_ext))
            }
        };
        let inputs: Vec<DfgInput> = (0..op.arity()).map(|_| pick(next(), i)).collect();
        g.add_node(op, inputs, format!("n{i}"))
            .expect("valid construction");
    }
    // Every sink (no consumers) is an output; plus one random internal.
    let node_count = g.len_nodes();
    for i in 0..node_count {
        if g.consumers(NodeId(i)).is_empty() {
            g.mark_output(NodeId(i));
        }
    }
    if node_count > 0 {
        g.mark_output(NodeId((next() as usize) % node_count));
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// The selection loop terminates and maps every node exactly once, for
    /// any graph and any instruction set.
    #[test]
    fn mapping_loop_total_coverage(seed in 1u64..3000, n_ext in 1usize..4, n_nodes in 1usize..14) {
        let g = random_dfg(seed, n_ext, n_nodes);
        let (set, index) = sets::builtin_indexed(Arch::Neon128);
        let mut state = MapState::new(&g);
        let mut covered = vec![0usize; g.len_nodes()];
        let mut rounds = 0;
        while let Some(start) = top_left_node(&g, &state) {
            rounds += 1;
            prop_assert!(rounds <= g.len_nodes(), "no progress");
            let cands = extend_subgraphs(&g, &state, start, 2, 2);
            prop_assert!(!cands.is_empty());
            // Pick the first matching candidate, like Algorithm 2 does.
            let chosen = cands
                .iter()
                .find(|c| find_instruction_indexed(set, index, g.dtype, 4, &c.tree).is_some())
                .unwrap_or_else(|| cands.last().expect("nonempty"));
            for n in &chosen.nodes {
                covered[n.0] += 1;
            }
            state.mark_computed(&chosen.nodes);
        }
        prop_assert!(state.all_computed());
        prop_assert!(covered.iter().all(|&c| c == 1), "each node mapped exactly once: {covered:?}");
    }

    /// Candidate invariants: start node included, single sink, internal
    /// values dead outside, depth bounded, sorted by cost descending.
    #[test]
    fn candidate_invariants(seed in 1u64..3000, n_nodes in 1usize..14) {
        let g = random_dfg(seed, 2, n_nodes);
        let state = MapState::new(&g);
        let Some(start) = top_left_node(&g, &state) else { return Ok(()); };
        let cands = extend_subgraphs(&g, &state, start, 3, 3);
        for w in cands.windows(2) {
            prop_assert!(w[0].cost >= w[1].cost);
        }
        for c in &cands {
            prop_assert!(c.nodes.contains(&start));
            prop_assert!(c.nodes.contains(&c.sink));
            prop_assert!(c.tree.depth() <= 3);
            for &m in &c.nodes {
                if m == c.sink {
                    continue;
                }
                prop_assert!(!g.is_output(m), "internal node {m} is a region output");
                for consumer in g.consumers(m) {
                    prop_assert!(c.nodes.contains(&consumer),
                        "internal node {m} leaks to {consumer}");
                }
            }
        }
    }

    /// A successful instruction match re-evaluates to the candidate:
    /// matching is structurally sound (bindings have the pattern's arity
    /// and reference only leaves of the tree).
    #[test]
    fn match_bindings_are_leaves(seed in 1u64..2000, n_nodes in 1usize..10) {
        let g = random_dfg(seed, 3, n_nodes);
        let (set, index) = sets::builtin_indexed(Arch::Neon128);
        let state = MapState::new(&g);
        let Some(start) = top_left_node(&g, &state) else { return Ok(()); };
        for c in extend_subgraphs(&g, &state, start, 2, 2) {
            if let Some((instr, m)) = find_instruction_indexed(set, index, g.dtype, 4, &c.tree) {
                prop_assert_eq!(m.bindings.len(), instr.pattern.input_count());
                let mut leaves = Vec::new();
                collect_leaves(&c.tree, &mut leaves);
                for b in &m.bindings {
                    prop_assert!(leaves.contains(b), "{b:?} not a leaf of {}", c.tree);
                }
            }
        }
    }

    /// Commutative matching never confuses non-commutative operands: a
    /// `Sub(I1, I2)` pattern always binds I1 to the tree's left operand.
    #[test]
    fn sub_matching_is_order_preserving(a in 0usize..3, b in 0usize..3) {
        let p: Pattern = "Sub(I1, I2)".parse().expect("parses");
        let t = ValTree::Op {
            op: ElemOp::Sub,
            args: vec![
                ValTree::Leaf(DfgInput::External(a)),
                ValTree::Leaf(DfgInput::External(b)),
            ],
        };
        let m = match_pattern(&p, &t).expect("matches");
        prop_assert_eq!(m.bindings[0], DfgInput::External(a));
        prop_assert_eq!(m.bindings[1], DfgInput::External(b));
    }
}

fn collect_leaves(tree: &ValTree, out: &mut Vec<DfgInput>) {
    match tree {
        ValTree::Leaf(v) => out.push(*v),
        ValTree::Op { args, .. } => {
            for a in args {
                collect_leaves(a, out);
            }
        }
    }
}
