//! The production instruction matcher against its linear reference: the
//! bucketed `find_instruction_indexed` must select exactly what a linear
//! min-by-cost, first-by-file-order scan of the whole set selects.

use hcg_fuzz::oracle::find_instruction_linear;
use hcg_graph::matching::find_instruction_indexed;
use hcg_graph::{DfgInput, ValTree};
use hcg_isa::{sets, Arch};
use hcg_model::op::ElemOp;
use hcg_model::DataType;

fn leaf(e: usize) -> ValTree {
    ValTree::Leaf(DfgInput::External(e))
}

fn op(o: ElemOp, args: Vec<ValTree>) -> ValTree {
    ValTree::Op { op: o, args }
}

#[test]
fn indexed_find_identical_to_linear_scan() {
    // Exhaustive equivalence over every builtin set and a zoo of trees
    // covering fused shapes, commutativity, wildcards and misses.
    let trees = [
        op(ElemOp::Add, vec![leaf(0), leaf(1)]),
        op(ElemOp::Sub, vec![leaf(0), leaf(1)]),
        op(ElemOp::Mul, vec![leaf(0), leaf(1)]),
        op(ElemOp::Div, vec![leaf(0), leaf(1)]),
        op(
            ElemOp::Add,
            vec![leaf(0), op(ElemOp::Mul, vec![leaf(1), leaf(2)])],
        ),
        op(
            ElemOp::Add,
            vec![op(ElemOp::Mul, vec![leaf(1), leaf(2)]), leaf(0)],
        ),
        op(
            ElemOp::Shr(1),
            vec![op(ElemOp::Add, vec![leaf(0), leaf(1)])],
        ),
        op(ElemOp::Shr(4), vec![leaf(0)]),
        op(ElemOp::Shl(2), vec![leaf(0)]),
        op(ElemOp::Min, vec![leaf(0), leaf(1)]),
        op(ElemOp::Abs, vec![leaf(0)]),
        op(
            ElemOp::Sub,
            vec![op(ElemOp::Add, vec![leaf(0), leaf(1)]), leaf(2)],
        ),
    ];
    for arch in [Arch::Neon128, Arch::Sse128, Arch::Avx256] {
        let (set, index) = sets::builtin_indexed(arch);
        for dtype in [DataType::I32, DataType::U8, DataType::F32, DataType::F64] {
            for lanes in [2, 4, 8, 16] {
                for tree in &trees {
                    let linear = find_instruction_linear(set, dtype, lanes, tree);
                    let indexed = find_instruction_indexed(set, index, dtype, lanes, tree);
                    assert_eq!(
                        linear.as_ref().map(|(i, m)| (&i.name, m)),
                        indexed.as_ref().map(|(i, m)| (&i.name, m)),
                        "{arch} {dtype} x{lanes} on {tree}"
                    );
                }
            }
        }
    }
}
