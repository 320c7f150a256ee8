//! SIMD instruction descriptors and instruction sets.
//!
//! Each instruction carries its computing graph (a [`Pattern`]) and a code
//! template, exactly as the paper's external instruction-set files do
//! (§3.3): *"the SIMD instruction synthesizer just needs to replace the I/O
//! variable for code generation on different architectures."*

use crate::arch::Arch;
use crate::pattern::Pattern;
use hcg_model::DataType;
use std::fmt::{self, Write};

/// One SIMD instruction available for selection by Algorithm 2.
#[derive(Debug, Clone, PartialEq)]
pub struct SimdInstr {
    /// Intrinsic name, e.g. `vmlaq_s32`.
    pub name: String,
    /// Element type the instruction operates on.
    pub dtype: DataType,
    /// Number of lanes processed per issue.
    pub lanes: usize,
    /// The computing graph this instruction implements.
    pub pattern: Pattern,
    /// Code template with `I1…In` input and `O1` output placeholders and an
    /// optional `#A` placeholder for a matched shift amount.
    pub code: String,
    /// Relative issue cost in cycles (used by the cost model and by the
    /// largest-subgraph-first ordering of Algorithm 2).
    pub cost: u32,
}

impl SimdInstr {
    /// Render the code template, substituting input/output variable names
    /// and the shift amount.
    ///
    /// # Examples
    ///
    /// ```
    /// use hcg_isa::{sets, Arch};
    /// let set = sets::builtin(Arch::Neon128);
    /// let vadd = set.find("vaddq_s32").unwrap();
    /// assert_eq!(
    ///     vadd.render(&["a_batch", "b_batch"], "c_batch", 0),
    ///     "c_batch = vaddq_s32(a_batch, b_batch);"
    /// );
    /// ```
    pub fn render(&self, inputs: &[&str], output: &str, shift_amount: u32) -> String {
        let mut out = String::with_capacity(self.code.len() + 16);
        let bytes = self.code.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'I' | b'O'
                    if i + 1 < bytes.len()
                        && bytes[i + 1].is_ascii_digit()
                        && (i == 0 || !bytes[i - 1].is_ascii_alphanumeric()) =>
                {
                    let kind = bytes[i];
                    let mut j = i + 1;
                    while j < bytes.len() && bytes[j].is_ascii_digit() {
                        j += 1;
                    }
                    let idx: usize = self.code[i + 1..j].parse().expect("digits");
                    if kind == b'O' {
                        out.push_str(output);
                    } else {
                        out.push_str(inputs.get(idx - 1).copied().unwrap_or("/*missing*/"));
                    }
                    i = j;
                }
                b'#' if i + 1 < bytes.len() && bytes[i + 1] == b'A' => {
                    write!(out, "{shift_amount}").expect("writing to a String cannot fail");
                    i += 2;
                }
                c => {
                    out.push(c as char);
                    i += 1;
                }
            }
        }
        out
    }
}

impl fmt::Display for SimdInstr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}x{}] = {}",
            self.name, self.dtype, self.lanes, self.pattern
        )
    }
}

/// A named set of SIMD instructions for one architecture — the `InsSet`
/// input of paper Algorithm 2.
#[derive(Debug, Clone, PartialEq)]
pub struct InstrSet {
    /// Set name (usually the architecture name).
    pub name: String,
    /// Target architecture.
    pub arch: Arch,
    /// The instructions, in file order.
    pub instrs: Vec<SimdInstr>,
}

impl InstrSet {
    /// An empty set for an architecture.
    pub fn new(name: impl Into<String>, arch: Arch) -> Self {
        InstrSet {
            name: name.into(),
            arch,
            instrs: Vec::new(),
        }
    }

    /// Find an instruction by intrinsic name.
    pub fn find(&self, name: &str) -> Option<&SimdInstr> {
        self.instrs.iter().find(|i| i.name == name)
    }

    /// Instructions applicable to the given element type and lane count.
    pub fn candidates<'a>(
        &'a self,
        dtype: DataType,
        lanes: usize,
    ) -> impl Iterator<Item = &'a SimdInstr> + 'a {
        self.instrs
            .iter()
            .filter(move |i| i.dtype == dtype && i.lanes == lanes)
    }

    /// The deepest computing graph in the set: the linear-scan reference
    /// for [`crate::InstrIndex::max_depth`], which Algorithm 2 reads.
    #[cfg(test)]
    pub(crate) fn max_depth(&self, dtype: DataType, lanes: usize) -> usize {
        self.candidates(dtype, lanes)
            .map(|i| i.pattern.depth())
            .max()
            .unwrap_or(0)
    }

    /// The largest node count among computing graphs in the set: the
    /// linear-scan reference for [`crate::InstrIndex::max_nodes`].
    #[cfg(test)]
    pub(crate) fn max_nodes(&self, dtype: DataType, lanes: usize) -> usize {
        self.candidates(dtype, lanes)
            .map(|i| i.pattern.node_count())
            .max()
            .unwrap_or(0)
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// `true` when the set has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcg_model::op::ElemOp;

    fn vadd() -> SimdInstr {
        SimdInstr {
            name: "vaddq_s32".into(),
            dtype: DataType::I32,
            lanes: 4,
            pattern: Pattern::single(ElemOp::Add),
            code: "O1 = vaddq_s32(I1, I2);".into(),
            cost: 1,
        }
    }

    #[test]
    fn render_substitutes_io() {
        let i = vadd();
        assert_eq!(i.render(&["x", "y"], "z", 0), "z = vaddq_s32(x, y);");
    }

    #[test]
    fn render_shift_amount() {
        let shl = SimdInstr {
            name: "vshlq_n_s32".into(),
            dtype: DataType::I32,
            lanes: 4,
            pattern: Pattern::single(ElemOp::Shl(0)),
            code: "O1 = vshlq_n_s32(I1, #A);".into(),
            cost: 1,
        };
        assert_eq!(shl.render(&["x"], "y", 3), "y = vshlq_n_s32(x, 3);");
    }

    #[test]
    fn render_does_not_touch_identifiers() {
        // The `I1` inside `vI1x` must not be replaced (preceded by an
        // alphanumeric character).
        let odd = SimdInstr {
            name: "weird".into(),
            dtype: DataType::I32,
            lanes: 4,
            pattern: Pattern::single(ElemOp::Abs),
            code: "O1 = vI1x(I1);".into(),
            cost: 1,
        };
        assert_eq!(odd.render(&["a"], "b", 0), "b = vI1x(a);");
    }

    #[test]
    fn set_queries() {
        let mut set = InstrSet::new("t", Arch::Neon128);
        set.instrs.push(vadd());
        set.instrs.push(SimdInstr {
            name: "vmlaq_s32".into(),
            dtype: DataType::I32,
            lanes: 4,
            pattern: "Add(I1, Mul(I2, I3))".parse().unwrap(),
            code: "O1 = vmlaq_s32(I1, I2, I3);".into(),
            cost: 2,
        });
        assert_eq!(set.len(), 2);
        assert!(set.find("vaddq_s32").is_some());
        assert!(set.find("nope").is_none());
        assert_eq!(set.candidates(DataType::I32, 4).count(), 2);
        assert_eq!(set.candidates(DataType::F32, 4).count(), 0);
        assert_eq!(set.max_depth(DataType::I32, 4), 2);
        assert_eq!(set.max_nodes(DataType::I32, 4), 2);
        assert_eq!(set.max_depth(DataType::F32, 4), 0);
    }
}
