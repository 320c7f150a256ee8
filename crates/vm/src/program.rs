//! The generated-program IR.
//!
//! All three code generators (HCG, the Simulink-Coder-like baseline and the
//! DFSynth-like baseline) lower a model to this IR. It is deliberately
//! C-shaped — named memory buffers, element loops, scalar statements,
//! vector-register loads/stores/operations, and calls into the intensive-
//! kernel library — so that (a) the interpreter can execute it for value
//! correctness, (b) the cost model can price it per architecture/compiler,
//! and (c) a C-like source rendering can be produced for inspection.

use hcg_isa::{Arch, Pattern};
use hcg_model::op::ElemOp;
use hcg_model::{ActorId, ActorKind, DataType, SignalType};
use std::fmt;

/// Index of a buffer within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufferId(pub usize);

/// Index of a virtual vector register within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegId(pub usize);

/// Role of a buffer in the generated program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferKind {
    /// Filled by the caller before every step.
    Input,
    /// Read by the caller after every step.
    Output,
    /// Persistent across steps (UnitDelay state).
    State,
    /// Scratch memory for intermediate actor results.
    Temp,
    /// Constant data, initialised once.
    Const,
}

/// One named memory array.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferDecl {
    /// C-level variable name (unique).
    pub name: String,
    /// Element type and length.
    pub ty: SignalType,
    /// Role.
    pub kind: BufferKind,
    /// Initial contents (states and constants; `None` = zeros).
    pub init: Option<Vec<f64>>,
}

/// An element index inside a loop body: a constant or the loop variable
/// plus an offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexExpr {
    /// Absolute constant index.
    Const(usize),
    /// `i + offset`, where `i` is the innermost loop variable.
    Loop(usize),
}

impl IndexExpr {
    /// Resolve against the current loop variable.
    pub fn eval(self, loop_var: usize) -> usize {
        match self {
            IndexExpr::Const(c) => c,
            IndexExpr::Loop(off) => loop_var + off,
        }
    }
}

/// A reference to one element of one buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElemRef {
    /// The buffer.
    pub buf: BufferId,
    /// The element.
    pub index: IndexExpr,
}

/// A scalar operation (the element-wise vocabulary plus the basic-actor
/// extras that only exist at scalar level).
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarOp {
    /// An element-wise arithmetic/logic operation.
    Elem(ElemOp),
    /// Three-operand select: `c > 0 ? a : b` (the `Switch` actor).
    Select,
    /// Clamp into `[lo, hi]` (the `Saturate` actor).
    Clamp {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// Data type conversion to the destination buffer's element type.
    Cast,
    /// Plain element copy.
    Copy,
}

impl ScalarOp {
    /// Operand count.
    pub fn arity(&self) -> usize {
        match self {
            ScalarOp::Elem(op) => op.arity(),
            ScalarOp::Select => 3,
            ScalarOp::Clamp { .. } | ScalarOp::Cast | ScalarOp::Copy => 1,
        }
    }
}

/// One statement of the generated program.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `for (size_t i = start; i < end; i += step) { body }`.
    Loop {
        /// First value of the loop variable.
        start: usize,
        /// Exclusive bound.
        end: usize,
        /// Increment (the SIMD batch size, or 1 for scalar loops).
        step: usize,
        /// Loop body (may not contain nested loops).
        body: Vec<Stmt>,
    },
    /// `dst = op(srcs…)` on scalar elements.
    Scalar {
        /// Operation.
        op: ScalarOp,
        /// Destination element.
        dst: ElemRef,
        /// Source elements (length = arity).
        srcs: Vec<ElemRef>,
    },
    /// Load a vector register from memory (`vld1q_s32` and friends).
    VLoad {
        /// Destination register.
        reg: RegId,
        /// Source buffer.
        buf: BufferId,
        /// First lane's element index.
        index: IndexExpr,
    },
    /// Store a vector register to memory.
    VStore {
        /// Destination buffer.
        buf: BufferId,
        /// First lane's element index.
        index: IndexExpr,
        /// Source register.
        reg: RegId,
    },
    /// A SIMD computation instruction selected from the instruction set.
    VOp {
        /// Intrinsic name (for rendering and per-instruction costing).
        instr: String,
        /// The instruction's computing graph with concrete shift amounts.
        pattern: Pattern,
        /// Issue cost from the instruction set description.
        cost: u32,
        /// Destination register.
        dst: RegId,
        /// Source registers, one per pattern input slot.
        srcs: Vec<RegId>,
        /// The rendered C statement (from the instruction's code template),
        /// used verbatim by the source emitter.
        code: String,
    },
    /// Call an intensive-kernel implementation from the code library.
    KernelCall {
        /// Actor kind (identifies the library family).
        actor: ActorKind,
        /// Implementation name within the family.
        impl_name: String,
        /// Input buffers.
        inputs: Vec<BufferId>,
        /// Output buffer.
        output: BufferId,
    },
    /// Whole-buffer copy (delay latching, pass-through wiring).
    Copy {
        /// Destination buffer.
        dst: BufferId,
        /// Source buffer.
        src: BufferId,
    },
}

/// Provenance of one top-level statement: the model actor (and, for
/// HCG-mapped code, the SIMD region) it was emitted for. Pure metadata —
/// the interpreter, cost model and source emitter never read it, so two
/// programs differing only in origins execute, cost and render identically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Origin {
    /// Source actor name, when known.
    pub actor: Option<String>,
    /// Mapped-region index within the generator run, when the statement
    /// came out of region instruction mapping.
    pub region: Option<usize>,
}

impl Origin {
    /// Provenance for code emitted on behalf of a single actor.
    pub fn actor(name: impl Into<String>) -> Self {
        Origin {
            actor: Some(name.into()),
            region: None,
        }
    }

    /// Provenance for code emitted for a mapped SIMD region, labelled by
    /// the region's first member actor.
    pub fn region(name: impl Into<String>, index: usize) -> Self {
        Origin {
            actor: Some(name.into()),
            region: Some(index),
        }
    }

    /// Attribution label: the actor name, or `(unattributed)` for default
    /// origins.
    pub fn label(&self) -> &str {
        self.actor.as_deref().unwrap_or("(unattributed)")
    }
}

/// A generated program: buffers plus a statement body executed once per
/// model step.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Program (model) name.
    pub name: String,
    /// Generator that produced it (for reports).
    pub generator: String,
    /// Target architecture.
    pub arch: Arch,
    /// All buffers.
    pub buffers: Vec<BufferDecl>,
    /// Number of virtual vector registers used.
    pub reg_count: usize,
    /// Lanes/dtype per register id (parallel to `reg_count`).
    pub reg_types: Vec<(DataType, usize)>,
    /// C-level name per register id (parallel to `reg_count`).
    pub reg_names: Vec<String>,
    /// Statements executed every step.
    pub body: Vec<Stmt>,
    /// Provenance per top-level statement of `body` (parallel to it when
    /// non-empty; generators that don't attribute leave it empty). Recorded
    /// unconditionally — independent of whether tracing is enabled — so
    /// equal inputs always produce equal programs.
    pub origins: Vec<Origin>,
    /// `(actor, buffer)` for every buffer whose initialiser comes from an
    /// actor's data parameter (`Constant.value`, `Gain.gain`,
    /// `UnitDelay.init`), in declaration order: what a data-only model edit
    /// rewrites.
    pub data_buffers: Vec<(ActorId, BufferId)>,
}

impl Program {
    /// An empty program for a target.
    pub fn new(name: impl Into<String>, generator: impl Into<String>, arch: Arch) -> Self {
        Program {
            name: name.into(),
            generator: generator.into(),
            arch,
            buffers: Vec::new(),
            reg_count: 0,
            reg_types: Vec::new(),
            reg_names: Vec::new(),
            body: Vec::new(),
            origins: Vec::new(),
            data_buffers: Vec::new(),
        }
    }

    /// Declare a buffer; returns its id.
    pub fn add_buffer(
        &mut self,
        name: impl Into<String>,
        ty: SignalType,
        kind: BufferKind,
        init: Option<Vec<f64>>,
    ) -> BufferId {
        let id = BufferId(self.buffers.len());
        self.buffers.push(BufferDecl {
            name: name.into(),
            ty,
            kind,
            init,
        });
        id
    }

    /// Allocate a vector register of the given element type and lane count,
    /// named `r{n}`.
    pub fn add_reg(&mut self, dtype: DataType, lanes: usize) -> RegId {
        let name = format!("r{}", self.reg_count);
        self.add_named_reg(dtype, lanes, name)
    }

    /// Allocate a vector register with an explicit C-level name (e.g.
    /// `a_batch` as in the paper's Listing 1).
    pub fn add_named_reg(
        &mut self,
        dtype: DataType,
        lanes: usize,
        name: impl Into<String>,
    ) -> RegId {
        let id = RegId(self.reg_count);
        self.reg_count += 1;
        self.reg_types.push((dtype, lanes));
        self.reg_names.push(name.into());
        id
    }

    /// Look up a buffer by name.
    pub fn buffer_by_name(&self, name: &str) -> Option<BufferId> {
        self.buffers
            .iter()
            .position(|b| b.name == name)
            .map(BufferId)
    }

    /// Buffer declaration access.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn buffer(&self, id: BufferId) -> &BufferDecl {
        &self.buffers[id.0]
    }

    /// Buffers of a given kind, in declaration order.
    pub fn buffers_of(&self, kind: BufferKind) -> Vec<BufferId> {
        (0..self.buffers.len())
            .map(BufferId)
            .filter(|&b| self.buffer(b).kind == kind)
            .collect()
    }

    /// Total bytes of memory the program's buffers occupy — the §4.1 memory
    /// comparison ("almost the same, with only ±1 % difference").
    pub fn memory_footprint(&self) -> usize {
        self.buffers
            .iter()
            .map(|b| b.ty.len() * (b.ty.dtype.bit_width() as usize / 8))
            .sum()
    }

    /// Count statements of each flavour, recursively — used by tests and
    /// the instruction-mix report.
    pub fn stmt_stats(&self) -> StmtStats {
        fn walk(stmts: &[Stmt], s: &mut StmtStats) {
            for st in stmts {
                match st {
                    Stmt::Loop { body, .. } => {
                        s.loops += 1;
                        walk(body, s);
                    }
                    Stmt::Scalar { .. } => s.scalar_ops += 1,
                    Stmt::VLoad { .. } => s.vloads += 1,
                    Stmt::VStore { .. } => s.vstores += 1,
                    Stmt::VOp { .. } => s.vops += 1,
                    Stmt::KernelCall { .. } => s.kernel_calls += 1,
                    Stmt::Copy { .. } => s.copies += 1,
                }
            }
        }
        let mut s = StmtStats::default();
        walk(&self.body, &mut s);
        s
    }
}

/// Statement counts per flavour (static, not dynamic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StmtStats {
    /// `for` loops.
    pub loops: usize,
    /// Scalar element statements.
    pub scalar_ops: usize,
    /// Vector loads.
    pub vloads: usize,
    /// Vector stores.
    pub vstores: usize,
    /// Vector compute instructions.
    pub vops: usize,
    /// Intensive kernel calls.
    pub kernel_calls: usize,
    /// Whole-buffer copies.
    pub copies: usize,
}

impl fmt::Display for StmtStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "loops={} scalar={} vload={} vstore={} vop={} kernel={} copy={}",
            self.loops,
            self.scalar_ops,
            self.vloads,
            self.vstores,
            self.vops,
            self.kernel_calls,
            self.copies
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcg_model::DataType;

    #[test]
    fn buffer_bookkeeping() {
        let mut p = Program::new("t", "test", Arch::Neon128);
        let a = p.add_buffer(
            "a",
            SignalType::vector(DataType::I32, 8),
            BufferKind::Input,
            None,
        );
        let b = p.add_buffer(
            "b",
            SignalType::vector(DataType::I32, 8),
            BufferKind::Output,
            None,
        );
        assert_eq!(p.buffer_by_name("a"), Some(a));
        assert_eq!(p.buffer_by_name("zz"), None);
        assert_eq!(p.buffers_of(BufferKind::Output), vec![b]);
        assert_eq!(p.memory_footprint(), 2 * 8 * 4);
    }

    #[test]
    fn index_expr_eval() {
        assert_eq!(IndexExpr::Const(3).eval(10), 3);
        assert_eq!(IndexExpr::Loop(2).eval(10), 12);
    }

    #[test]
    fn stmt_stats_walks_loops() {
        let mut p = Program::new("t", "test", Arch::Neon128);
        let a = p.add_buffer(
            "a",
            SignalType::vector(DataType::I32, 8),
            BufferKind::Input,
            None,
        );
        let o = p.add_buffer(
            "o",
            SignalType::vector(DataType::I32, 8),
            BufferKind::Output,
            None,
        );
        p.body.push(Stmt::Loop {
            start: 0,
            end: 8,
            step: 1,
            body: vec![Stmt::Scalar {
                op: ScalarOp::Elem(ElemOp::Abs),
                dst: ElemRef {
                    buf: o,
                    index: IndexExpr::Loop(0),
                },
                srcs: vec![ElemRef {
                    buf: a,
                    index: IndexExpr::Loop(0),
                }],
            }],
        });
        let s = p.stmt_stats();
        assert_eq!(s.loops, 1);
        assert_eq!(s.scalar_ops, 1);
    }

    #[test]
    fn scalar_op_arity() {
        assert_eq!(ScalarOp::Elem(ElemOp::Add).arity(), 2);
        assert_eq!(ScalarOp::Select.arity(), 3);
        assert_eq!(ScalarOp::Clamp { lo: 0.0, hi: 1.0 }.arity(), 1);
        assert_eq!(ScalarOp::Cast.arity(), 1);
    }
}
