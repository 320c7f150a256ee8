//! Pre-bucketed instruction lookup for Algorithm 2's hot path.
//!
//! The iterative mapping loop looks up an instruction once per candidate
//! subgraph; a linear [`InstrSet::candidates`] filter would re-scan the
//! whole instruction set every time, and the `max_depth`/`max_nodes`
//! extension bounds would take two more full scans per region. An
//! [`InstrIndex`] is built once per (set, pipeline) and answers both
//! queries from pre-computed buckets:
//!
//! * instructions bucketed by **(root op, element type, lanes)** — a
//!   pattern can only ever match a tree whose root operation agrees with
//!   the pattern root (shift amounts normalised so `Shr[1]` and wildcard
//!   `Shr` land in one bucket that serves any `Shr(k)` root);
//! * each bucket pre-sorted by **(cost, file order)**, so the *first* match
//!   in bucket order is exactly the instruction the linear scan's
//!   min-by-cost/first-by-file-order selection returns — byte-identical
//!   selection, without visiting instructions that cannot match;
//! * cached **`max_depth`/`max_nodes`** per (dtype, lanes).
//!
//! The index stores positions into the originating set's `instrs` vector
//! rather than borrowing it, so it can live in pipeline state next to the
//! owned [`InstrSet`]; queries take the set again and are debug-asserted
//! against it.

use crate::instr::{InstrSet, SimdInstr};
use crate::pattern::SHIFT_ANY;
use hcg_model::op::ElemOp;
use hcg_model::DataType;
use std::collections::HashMap;

/// Cached subgraph-extension bounds for one (dtype, lanes) slice of a set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GraphBounds {
    /// Deepest computing graph among applicable instructions.
    pub max_depth: usize,
    /// Largest node count among applicable instructions.
    pub max_nodes: usize,
}

/// Normalise an operation to its bucket key: shift amounts are erased so a
/// dataflow `Shr(k)` root finds both exact-amount (`Shr[1]`) and wildcard
/// (`Shr`) patterns in one bucket.
fn op_key(op: ElemOp) -> ElemOp {
    match op {
        ElemOp::Shr(_) => ElemOp::Shr(SHIFT_ANY),
        ElemOp::Shl(_) => ElemOp::Shl(SHIFT_ANY),
        other => other,
    }
}

/// Pre-bucketed lookup structure over one [`InstrSet`].
///
/// # Examples
///
/// ```
/// use hcg_isa::{sets, Arch, InstrIndex};
/// use hcg_model::{op::ElemOp, DataType};
///
/// let neon = sets::builtin(Arch::Neon128);
/// let index = InstrIndex::build(&neon);
/// // Extension bounds served from cache: vmlaq_s32 is Add(I1, Mul(I2, I3)).
/// assert_eq!(index.bounds(DataType::I32, 4).max_depth, 2);
/// // Only Add-rooted patterns are visited for an Add-rooted tree.
/// let adds: Vec<_> = index
///     .candidates(&neon, ElemOp::Add, DataType::I32, 4)
///     .map(|i| i.name.as_str())
///     .collect();
/// assert!(adds.contains(&"vaddq_s32"));
/// assert!(!adds.contains(&"vsubq_s32"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct InstrIndex {
    /// (normalised root op, dtype, lanes) → positions into `set.instrs`,
    /// sorted ascending by (cost, position).
    buckets: HashMap<(ElemOp, DataType, usize), Vec<u32>>,
    /// (dtype, lanes) → cached extension bounds.
    bounds: HashMap<(DataType, usize), GraphBounds>,
    /// Instruction count of the set the index was built from, used to
    /// debug-assert that queries pair the index with the same set.
    set_len: usize,
}

impl InstrIndex {
    /// Build the index over `set`. O(n log n) once, amortised across every
    /// instruction lookup of a pipeline run.
    pub fn build(set: &InstrSet) -> Self {
        let mut buckets: HashMap<(ElemOp, DataType, usize), Vec<u32>> = HashMap::new();
        let mut bounds: HashMap<(DataType, usize), GraphBounds> = HashMap::new();
        for (pos, instr) in set.instrs.iter().enumerate() {
            buckets
                .entry((op_key(instr.pattern.op), instr.dtype, instr.lanes))
                .or_default()
                .push(pos as u32);
            let b = bounds.entry((instr.dtype, instr.lanes)).or_default();
            b.max_depth = b.max_depth.max(instr.pattern.depth());
            b.max_nodes = b.max_nodes.max(instr.pattern.node_count());
        }
        for bucket in buckets.values_mut() {
            // Stable selection order: cheapest first, file order on ties —
            // the first *match* in this order is the linear scan's winner.
            bucket.sort_by_key(|&pos| (set.instrs[pos as usize].cost, pos));
        }
        InstrIndex {
            buckets,
            bounds,
            set_len: set.instrs.len(),
        }
    }

    /// Positions (into the originating set's `instrs`) of instructions
    /// whose pattern root can match `root` at (dtype, lanes), cheapest
    /// first. Empty when no instruction qualifies.
    pub fn candidate_positions(&self, root: ElemOp, dtype: DataType, lanes: usize) -> &[u32] {
        self.buckets
            .get(&(op_key(root), dtype, lanes))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The bucket's instructions resolved against `set` (which must be the
    /// set this index was built from).
    pub fn candidates<'s>(
        &'s self,
        set: &'s InstrSet,
        root: ElemOp,
        dtype: DataType,
        lanes: usize,
    ) -> impl Iterator<Item = &'s SimdInstr> + 's {
        debug_assert_eq!(
            set.instrs.len(),
            self.set_len,
            "InstrIndex paired with a different InstrSet"
        );
        self.candidate_positions(root, dtype, lanes)
            .iter()
            .map(move |&pos| &set.instrs[pos as usize])
    }

    /// Cached extension bounds for (dtype, lanes): the deepest computing
    /// graph and the largest node count among applicable instructions.
    pub fn bounds(&self, dtype: DataType, lanes: usize) -> GraphBounds {
        self.bounds
            .get(&(dtype, lanes))
            .copied()
            .unwrap_or_default()
    }

    /// Cached deepest computing graph at (dtype, lanes).
    pub fn max_depth(&self, dtype: DataType, lanes: usize) -> usize {
        self.bounds(dtype, lanes).max_depth
    }

    /// Cached largest computing-graph node count at (dtype, lanes).
    pub fn max_nodes(&self, dtype: DataType, lanes: usize) -> usize {
        self.bounds(dtype, lanes).max_nodes
    }

    /// Instruction count of the set this index was built from.
    pub fn set_len(&self) -> usize {
        self.set_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Arch;
    use crate::sets;

    #[test]
    fn bounds_agree_with_linear_scans_everywhere() {
        for arch in Arch::ALL {
            let set = sets::builtin(arch);
            let index = InstrIndex::build(&set);
            for dtype in [
                DataType::I8,
                DataType::I16,
                DataType::I32,
                DataType::U8,
                DataType::U16,
                DataType::U32,
                DataType::F32,
                DataType::F64,
            ] {
                for lanes in [1, 2, 4, 8, 16] {
                    assert_eq!(
                        index.max_depth(dtype, lanes),
                        set.max_depth(dtype, lanes),
                        "{arch} {dtype} x{lanes}"
                    );
                    assert_eq!(
                        index.max_nodes(dtype, lanes),
                        set.max_nodes(dtype, lanes),
                        "{arch} {dtype} x{lanes}"
                    );
                }
            }
        }
    }

    #[test]
    fn buckets_partition_the_candidate_filter() {
        // Union of all root buckets at (dtype, lanes) == the linear
        // candidates() filter, and every bucketed instruction's root key
        // matches its bucket.
        for arch in Arch::ALL {
            let set = sets::builtin(arch);
            let index = InstrIndex::build(&set);
            for instr in &set.instrs {
                let bucket = index.candidate_positions(instr.pattern.op, instr.dtype, instr.lanes);
                assert!(
                    bucket
                        .iter()
                        .any(|&p| std::ptr::eq(&set.instrs[p as usize], instr)),
                    "{arch}: {} missing from its bucket",
                    instr.name
                );
            }
            let linear = set.candidates(DataType::I32, 4).count();
            let bucketed: usize = index
                .buckets
                .iter()
                .filter(|((_, d, l), _)| *d == DataType::I32 && *l == 4)
                .map(|(_, b)| b.len())
                .sum();
            assert_eq!(linear, bucketed, "{arch}");
        }
    }

    #[test]
    fn buckets_sorted_cheapest_then_file_order() {
        for arch in Arch::ALL {
            let set = sets::builtin(arch);
            let index = InstrIndex::build(&set);
            for bucket in index.buckets.values() {
                for w in bucket.windows(2) {
                    let a = (set.instrs[w[0] as usize].cost, w[0]);
                    let b = (set.instrs[w[1] as usize].cost, w[1]);
                    assert!(a < b, "{arch}: bucket not sorted");
                }
            }
        }
    }

    #[test]
    fn shift_roots_share_a_bucket() {
        let set = sets::builtin(Arch::Neon128);
        let index = InstrIndex::build(&set);
        // vhaddq_s32's pattern root is Shr[1]; a dataflow Shr(1) root and a
        // Shr(3) root both resolve to the same (normalised) bucket.
        let b1 = index.candidate_positions(ElemOp::Shr(1), DataType::I32, 4);
        let b3 = index.candidate_positions(ElemOp::Shr(3), DataType::I32, 4);
        assert_eq!(b1, b3);
        assert!(b1
            .iter()
            .any(|&p| set.instrs[p as usize].name == "vhaddq_s32"));
    }

    #[test]
    fn missing_bucket_is_empty() {
        let set = sets::builtin(Arch::Neon128);
        let index = InstrIndex::build(&set);
        assert!(index
            .candidate_positions(ElemOp::Div, DataType::I32, 4)
            .is_empty());
        assert_eq!(index.bounds(DataType::F64, 64), GraphBounds::default());
    }

    #[test]
    fn bounds_prune_per_dtype_slice() {
        // Extension bounds are per (dtype, lanes): a slice whose largest
        // pattern is a single node caps candidate enumeration at one node
        // even when another slice of the same set has fused patterns.
        let set = crate::parse::instr_set_from_text(concat!(
            "set tiny arch neon128\n",
            "Graph: Add, i32, 4, I1, I2, O1 ; Code: O1 = a(I1, I2); ; Cost: 1\n",
            "Graph: Add(I1, Mul(I2, I3)), i32, 4, O1 ; Code: O1 = b(I1, I2, I3); ; Cost: 2\n",
            "Graph: Add, f32, 4, I1, I2, O1 ; Code: O1 = c(I1, I2); ; Cost: 1\n",
        ))
        .unwrap();
        let index = InstrIndex::build(&set);
        assert_eq!(
            index.bounds(DataType::I32, 4),
            GraphBounds {
                max_depth: 2,
                max_nodes: 2
            }
        );
        assert_eq!(
            index.bounds(DataType::F32, 4),
            GraphBounds {
                max_depth: 1,
                max_nodes: 1
            }
        );
        // An absent slice prunes everything (zero bounds, clamped to one
        // node by the mapping loop).
        assert_eq!(index.bounds(DataType::I16, 8), GraphBounds::default());
    }
}
