//! Instruction-selection micro-bench: the bucketed `InstrIndex` lookup,
//! bare and behind a per-region `MatchMemo`, over a representative
//! candidate-tree mix (single-op hits, a compound hit, a shift-root hit and
//! an unmatchable miss).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hcg_graph::matching::{find_instruction_indexed, MatchMemo};
use hcg_graph::{DfgInput, ValTree};
use hcg_isa::{sets, Arch};
use hcg_model::op::ElemOp;
use hcg_model::DataType;
use std::hint::black_box;

fn tree_zoo() -> Vec<ValTree> {
    let leaf = |i| ValTree::Leaf(DfgInput::External(i));
    let node = |op, args| ValTree::Op { op, args };
    vec![
        node(ElemOp::Sub, vec![leaf(0), leaf(1)]),
        node(
            ElemOp::Shr(1),
            vec![node(ElemOp::Add, vec![leaf(0), leaf(1)])],
        ),
        node(
            ElemOp::Add,
            vec![leaf(0), node(ElemOp::Mul, vec![leaf(1), leaf(2)])],
        ),
        node(ElemOp::Mul, vec![leaf(0), leaf(1)]),
        node(ElemOp::Abs, vec![leaf(0)]),
        node(ElemOp::Div, vec![leaf(0), leaf(1)]), // i32 miss on every set
    ]
}

fn bench_instr_select(c: &mut Criterion) {
    let trees = tree_zoo();
    let mut group = c.benchmark_group("instr_select");
    for arch in Arch::ALL {
        let (set, index) = sets::builtin_indexed(arch);
        group.bench_with_input(BenchmarkId::new("indexed", arch), set, |b, set| {
            b.iter(|| {
                for t in &trees {
                    black_box(find_instruction_indexed(
                        set,
                        index,
                        DataType::I32,
                        4,
                        black_box(t),
                    ));
                }
            });
        });
        group.bench_with_input(BenchmarkId::new("memoized", arch), set, |b, set| {
            b.iter(|| {
                // Fresh memo per iteration: the realistic per-region shape,
                // where repeated trees inside one region hit the cache.
                let mut memo = MatchMemo::new();
                for _ in 0..4 {
                    for t in &trees {
                        black_box(memo.find(set, index, DataType::I32, 4, black_box(t)));
                    }
                }
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_millis(500))
        .warm_up_time(std::time::Duration::from_millis(100));
    targets = bench_instr_select
}
criterion_main!(benches);
