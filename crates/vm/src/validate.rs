//! Static validation of generated programs: every buffer/register
//! reference in range, operand arities correct, loop bounds within the
//! buffers they index, register dtypes consistent with the memory they
//! load/store, kernel calls resolvable, and no nested loops.
//!
//! [`validate_all`] walks the whole program and returns *every* defect as a
//! structured [`Defect`]; generator test suites assert it comes back empty
//! so malformed programs are reported as defects instead of interpreter
//! panics. The `hcg-analysis` crate rehosts these defects as lint
//! diagnostics.

use crate::program::{BufferId, ElemRef, IndexExpr, Program, RegId, ScalarOp, Stmt};
use hcg_kernels::CodeLibrary;
use std::fmt;

/// Classification of a static program defect. Kinds order by declaration,
/// which is the order lint reports list them in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DefectKind {
    /// A buffer id exceeds the program's buffer table.
    BufferOutOfRange,
    /// A register id exceeds the program's register table.
    RegisterOutOfRange,
    /// A scalar element reference can reach past the end of its buffer.
    ElementOutOfBounds,
    /// A vector load/store can reach past the end of its buffer.
    VectorOutOfBounds,
    /// A scalar statement's operand count does not match its op's arity.
    ScalarArity,
    /// An element op applied to a dtype it does not support.
    DtypeUnsupported,
    /// A vector op's operand count does not match its pattern's input count.
    VOpOperandCount,
    /// A vector op mixes registers of different dtype/lane shape.
    VOpShapeMismatch,
    /// A vector load/store register dtype differs from its buffer's dtype.
    VRegDtypeMismatch,
    /// A kernel call names an implementation absent from the library.
    UnknownKernel,
    /// A loop nested inside another loop (the IR forbids this).
    NestedLoop,
    /// A loop with step zero (would never terminate).
    ZeroStepLoop,
    /// A whole-buffer copy whose source is shorter than its destination.
    CopyLengthMismatch,
    /// A whole-buffer copy between buffers of different element dtype.
    CopyDtypeMismatch,
}

impl DefectKind {
    /// The stable kebab-case lint code this defect renders as.
    pub const fn name(self) -> &'static str {
        use DefectKind::*;
        match self {
            BufferOutOfRange => "program/buffer-out-of-range",
            RegisterOutOfRange => "program/register-out-of-range",
            ElementOutOfBounds => "program/element-out-of-bounds",
            VectorOutOfBounds => "program/vector-out-of-bounds",
            ScalarArity => "program/scalar-arity",
            DtypeUnsupported => "program/dtype-unsupported",
            VOpOperandCount => "program/vop-operand-count",
            VOpShapeMismatch => "program/vop-shape-mismatch",
            VRegDtypeMismatch => "program/vreg-dtype-mismatch",
            UnknownKernel => "program/unknown-kernel",
            NestedLoop => "program/nested-loop",
            ZeroStepLoop => "program/zero-step-loop",
            CopyLengthMismatch => "program/copy-length-mismatch",
            CopyDtypeMismatch => "program/copy-dtype-mismatch",
        }
    }
}

/// One structural defect, with its classification and full description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Defect {
    /// What rule is violated.
    pub kind: DefectKind,
    /// Index path of the offending statement in the program body: the top
    /// statement index, plus the index inside the loop body when nested.
    pub stmt_path: Vec<usize>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Defect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} at stmt {:?}: {}",
            self.kind, self.stmt_path, self.message
        )
    }
}

/// Validate a program against a kernel library, collecting every defect.
pub fn validate_all(prog: &Program, lib: &CodeLibrary) -> Vec<Defect> {
    let mut v = Validator {
        prog,
        lib,
        defects: Vec::new(),
        path: Vec::new(),
    };
    v.block(&prog.body, None);
    v.defects
}

/// The maximal element index an [`IndexExpr`] can reach inside a loop with
/// the given final induction value.
fn max_index(index: IndexExpr, loop_max: Option<usize>) -> usize {
    match index {
        IndexExpr::Const(c) => c,
        IndexExpr::Loop(off) => loop_max.unwrap_or(0) + off,
    }
}

struct Validator<'a> {
    prog: &'a Program,
    lib: &'a CodeLibrary,
    defects: Vec<Defect>,
    path: Vec<usize>,
}

impl Validator<'_> {
    fn push(&mut self, kind: DefectKind, message: impl Into<String>) {
        self.defects.push(Defect {
            kind,
            stmt_path: self.path.clone(),
            message: message.into(),
        });
    }

    /// `true` when the id is in range (defect recorded otherwise).
    fn buffer_ok(&mut self, buf: BufferId) -> bool {
        if buf.0 >= self.prog.buffers.len() {
            self.push(
                DefectKind::BufferOutOfRange,
                format!("buffer id {} out of range", buf.0),
            );
            return false;
        }
        true
    }

    /// `true` when the id is in range (defect recorded otherwise).
    fn reg_ok(&mut self, reg: RegId) -> bool {
        if reg.0 >= self.prog.reg_count {
            self.push(
                DefectKind::RegisterOutOfRange,
                format!("register id {} out of range", reg.0),
            );
            return false;
        }
        true
    }

    fn check_elem(&mut self, r: &ElemRef, loop_max: Option<usize>) {
        if !self.buffer_ok(r.buf) {
            return;
        }
        let limit = self.prog.buffer(r.buf).ty.len();
        let reach = max_index(r.index, loop_max);
        if reach >= limit {
            self.push(
                DefectKind::ElementOutOfBounds,
                format!(
                    "element {} of buffer {:?} (len {})",
                    reach,
                    self.prog.buffer(r.buf).name,
                    limit
                ),
            );
        }
    }

    /// Shared bounds + dtype check for VLoad/VStore.
    fn check_vector_access(
        &mut self,
        what: &str,
        reg: RegId,
        buf: BufferId,
        index: IndexExpr,
        loop_max: Option<usize>,
    ) {
        let reg_ok = self.reg_ok(reg);
        if !self.buffer_ok(buf) || !reg_ok {
            return;
        }
        let (reg_dt, lanes) = self.prog.reg_types[reg.0];
        let decl = self.prog.buffer(buf);
        let reach = max_index(index, loop_max) + lanes - 1;
        if reach >= decl.ty.len() {
            self.push(
                DefectKind::VectorOutOfBounds,
                format!(
                    "vector {what} reaches element {reach} of {:?} (len {})",
                    decl.name,
                    decl.ty.len()
                ),
            );
        }
        if reg_dt != decl.ty.dtype {
            self.push(
                DefectKind::VRegDtypeMismatch,
                format!(
                    "vector {what}: register dtype {} vs buffer {:?} dtype {}",
                    reg_dt, decl.name, decl.ty.dtype
                ),
            );
        }
    }

    fn block(&mut self, stmts: &[Stmt], loop_max: Option<usize>) {
        for (i, s) in stmts.iter().enumerate() {
            self.path.push(i);
            self.stmt(s, loop_max);
            self.path.pop();
        }
    }

    fn stmt(&mut self, s: &Stmt, loop_max: Option<usize>) {
        match s {
            Stmt::Loop {
                start,
                end,
                step,
                body,
            } => {
                if loop_max.is_some() {
                    self.push(DefectKind::NestedLoop, "nested loop");
                    return;
                }
                if *step == 0 {
                    self.push(DefectKind::ZeroStepLoop, "loop step of zero");
                    return;
                }
                if end > start {
                    // Last induction value actually reached.
                    let trips = (end - start).div_ceil(*step);
                    let last = start + (trips - 1) * step;
                    self.block(body, Some(last));
                }
            }
            Stmt::Scalar { op, dst, srcs } => {
                if srcs.len() != op.arity() {
                    self.push(
                        DefectKind::ScalarArity,
                        format!(
                            "scalar op arity: {op:?} expects {}, got {}",
                            op.arity(),
                            srcs.len()
                        ),
                    );
                }
                self.check_elem(dst, loop_max);
                for src in srcs {
                    self.check_elem(src, loop_max);
                }
                if let ScalarOp::Elem(e) = op {
                    if dst.buf.0 < self.prog.buffers.len() {
                        let dt = self.prog.buffer(dst.buf).ty.dtype;
                        if !e.supports(dt) {
                            self.push(
                                DefectKind::DtypeUnsupported,
                                format!("{e} on unsupported dtype {dt}"),
                            );
                        }
                    }
                }
            }
            Stmt::VLoad { reg, buf, index } => {
                self.check_vector_access("load", *reg, *buf, *index, loop_max);
            }
            Stmt::VStore { buf, index, reg } => {
                self.check_vector_access("store", *reg, *buf, *index, loop_max);
            }
            Stmt::VOp {
                pattern, dst, srcs, ..
            } => {
                let mut regs_ok = self.reg_ok(*dst);
                for s in srcs {
                    regs_ok &= self.reg_ok(*s);
                }
                if srcs.len() != pattern.input_count() {
                    self.push(
                        DefectKind::VOpOperandCount,
                        format!(
                            "vop operand count: pattern {} needs {}, got {}",
                            pattern,
                            pattern.input_count(),
                            srcs.len()
                        ),
                    );
                }
                // All operand registers must share the destination's shape.
                if regs_ok {
                    let (dt, lanes) = self.prog.reg_types[dst.0];
                    for s in srcs {
                        if self.prog.reg_types[s.0] != (dt, lanes) {
                            self.push(
                                DefectKind::VOpShapeMismatch,
                                format!(
                                    "vop register shape mismatch: dst {}x{lanes}, src r{} is {}x{}",
                                    dt, s.0, self.prog.reg_types[s.0].0, self.prog.reg_types[s.0].1
                                ),
                            );
                        }
                    }
                }
            }
            Stmt::KernelCall {
                actor,
                impl_name,
                inputs,
                output,
            } => {
                for b in inputs {
                    self.buffer_ok(*b);
                }
                self.buffer_ok(*output);
                if self.lib.find(*actor, impl_name).is_none() {
                    self.push(
                        DefectKind::UnknownKernel,
                        format!("unknown kernel {actor}::{impl_name}"),
                    );
                }
            }
            Stmt::Copy { dst, src } => {
                if !self.buffer_ok(*dst) || !self.buffer_ok(*src) {
                    return;
                }
                let (d, s) = (self.prog.buffer(*dst), self.prog.buffer(*src));
                if d.ty.len() > s.ty.len() {
                    self.push(
                        DefectKind::CopyLengthMismatch,
                        format!(
                            "copy from {:?} (len {}) underfills {:?} (len {})",
                            s.name,
                            s.ty.len(),
                            d.name,
                            d.ty.len()
                        ),
                    );
                }
                if d.ty.dtype != s.ty.dtype {
                    self.push(
                        DefectKind::CopyDtypeMismatch,
                        format!(
                            "copy from {:?} ({}) to {:?} ({}) changes element dtype",
                            s.name, s.ty.dtype, d.name, d.ty.dtype
                        ),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::BufferKind;
    use hcg_isa::Arch;
    use hcg_model::op::ElemOp;
    use hcg_model::{DataType, SignalType};

    fn base() -> (Program, BufferId, BufferId) {
        let ty = SignalType::vector(DataType::I32, 8);
        let mut p = Program::new("t", "test", Arch::Neon128);
        let a = p.add_buffer("a", ty, BufferKind::Input, None);
        let o = p.add_buffer("o", ty, BufferKind::Output, None);
        (p, a, o)
    }

    #[test]
    fn valid_program_passes() {
        let (mut p, a, o) = base();
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
        assert!(validate_all(&p, &CodeLibrary::new()).is_empty());
    }

    #[test]
    fn out_of_range_loop_index_caught() {
        let (mut p, a, o) = base();
        p.body.push(Stmt::Loop {
            start: 0,
            end: 9, // one past the buffer
            step: 1,
            body: vec![Stmt::Scalar {
                op: ScalarOp::Copy,
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
        assert!(!validate_all(&p, &CodeLibrary::new()).is_empty());
    }

    #[test]
    fn vector_load_overrun_caught() {
        let (mut p, a, _) = base();
        let r = p.add_reg(DataType::I32, 4);
        p.body.push(Stmt::VLoad {
            reg: r,
            buf: a,
            index: IndexExpr::Const(6), // 6..10 > 8
        });
        let defects = validate_all(&p, &CodeLibrary::new());
        assert!(defects
            .iter()
            .any(|d| d.kind == DefectKind::VectorOutOfBounds));
    }

    #[test]
    fn vop_arity_mismatch_caught() {
        let (mut p, _, _) = base();
        let r = p.add_reg(DataType::I32, 4);
        p.body.push(Stmt::VOp {
            instr: "vaddq_s32".into(),
            pattern: "Add(I1, I2)".parse().unwrap(),
            cost: 1,
            dst: r,
            srcs: vec![r], // needs two
            code: String::new(),
        });
        assert!(!validate_all(&p, &CodeLibrary::new()).is_empty());
    }

    #[test]
    fn unknown_kernel_caught() {
        let (mut p, a, o) = base();
        p.body.push(Stmt::KernelCall {
            actor: hcg_model::ActorKind::Fft,
            impl_name: "warp_drive".into(),
            inputs: vec![a],
            output: o,
        });
        assert!(!validate_all(&p, &CodeLibrary::new()).is_empty());
    }

    #[test]
    fn bad_dtype_for_op_caught() {
        let ty = SignalType::vector(DataType::F32, 4);
        let mut p = Program::new("t", "test", Arch::Neon128);
        let a = p.add_buffer("a", ty, BufferKind::Input, None);
        let o = p.add_buffer("o", ty, BufferKind::Output, None);
        p.body.push(Stmt::Scalar {
            op: ScalarOp::Elem(ElemOp::BitAnd),
            dst: ElemRef {
                buf: o,
                index: IndexExpr::Const(0),
            },
            srcs: vec![
                ElemRef {
                    buf: a,
                    index: IndexExpr::Const(0),
                },
                ElemRef {
                    buf: a,
                    index: IndexExpr::Const(0),
                },
            ],
        });
        assert!(!validate_all(&p, &CodeLibrary::new()).is_empty());
    }

    #[test]
    fn zero_step_loop_caught() {
        let (mut p, _, _) = base();
        p.body.push(Stmt::Loop {
            start: 0,
            end: 4,
            step: 0,
            body: vec![],
        });
        assert!(!validate_all(&p, &CodeLibrary::new()).is_empty());
    }

    #[test]
    fn vreg_dtype_mismatch_caught() {
        let (mut p, a, _) = base(); // buffer "a" is i32
        let r = p.add_reg(DataType::F32, 4);
        p.body.push(Stmt::VLoad {
            reg: r,
            buf: a,
            index: IndexExpr::Const(0),
        });
        let defects = validate_all(&p, &CodeLibrary::new());
        assert_eq!(defects.len(), 1);
        assert_eq!(defects[0].kind, DefectKind::VRegDtypeMismatch);
    }

    #[test]
    fn copy_dtype_mismatch_caught() {
        let mut p = Program::new("t", "test", Arch::Neon128);
        let a = p.add_buffer(
            "a",
            SignalType::vector(DataType::F32, 8),
            BufferKind::Input,
            None,
        );
        let o = p.add_buffer(
            "o",
            SignalType::vector(DataType::I32, 8),
            BufferKind::Output,
            None,
        );
        p.body.push(Stmt::Copy { dst: o, src: a });
        let defects = validate_all(&p, &CodeLibrary::new());
        assert_eq!(defects.len(), 1);
        assert_eq!(defects[0].kind, DefectKind::CopyDtypeMismatch);
    }

    #[test]
    fn all_defects_collected_not_just_first() {
        let (mut p, a, o) = base();
        let r = p.add_reg(DataType::F32, 4); // wrong dtype for "a"
        p.body.push(Stmt::VLoad {
            reg: r,
            buf: a,
            index: IndexExpr::Const(6), // also out of bounds: 6..10 > 8
        });
        p.body.push(Stmt::Loop {
            start: 0,
            end: 4,
            step: 0,
            body: vec![],
        });
        p.body.push(Stmt::KernelCall {
            actor: hcg_model::ActorKind::Fft,
            impl_name: "warp_drive".into(),
            inputs: vec![a],
            output: o,
        });
        let kinds: Vec<DefectKind> = validate_all(&p, &CodeLibrary::new())
            .iter()
            .map(|d| d.kind)
            .collect();
        assert!(kinds.contains(&DefectKind::VectorOutOfBounds));
        assert!(kinds.contains(&DefectKind::VRegDtypeMismatch));
        assert!(kinds.contains(&DefectKind::ZeroStepLoop));
        assert!(kinds.contains(&DefectKind::UnknownKernel));
        assert_eq!(kinds.len(), 4);
    }

    #[test]
    fn defect_paths_locate_statements() {
        let (mut p, a, o) = base();
        p.body.push(Stmt::Copy { dst: o, src: a }); // fine
        p.body.push(Stmt::Loop {
            start: 0,
            end: 9,
            step: 1,
            body: vec![Stmt::Scalar {
                op: ScalarOp::Copy,
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
        let defects = validate_all(&p, &CodeLibrary::new());
        assert!(!defects.is_empty());
        assert!(defects.iter().all(|d| d.stmt_path == vec![1, 0]));
    }
}
