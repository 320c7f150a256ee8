//! Generated-program lints: every structural defect the VM validator knows
//! (rehosted as diagnostics), plus dataflow analyses the validator does not
//! attempt — def-use on buffers and registers, dead stores, kernel-call
//! aliasing, and per-arch lane-width checks.

use crate::diagnostics::{LintCode, LintReport, Location};
use hcg_kernels::CodeLibrary;
use hcg_vm::{validate_all, BufferKind, Program, Stmt};

/// Run every program lint and collect the findings.
pub fn lint_program(prog: &Program, lib: &CodeLibrary) -> LintReport {
    let mut r = LintReport::new(format!("{} [{} {}]", prog.name, prog.generator, prog.arch));
    for d in validate_all(prog, lib) {
        r.push(
            LintCode::Defect(d.kind),
            Location::Stmt {
                path: d.stmt_path.clone(),
            },
            d.message,
        );
    }
    lint_register_widths(prog, &mut r);
    lint_dataflow(prog, &mut r);
    r
}

/// Lint a program that may still be mid-pipeline (the inter-pass hook of the
/// staged generator pipeline).
///
/// A program between passes is a valid *prefix* of the final one: outport
/// copies and delay latches are missing, so stores feeding them look dead.
/// With `complete: false` the incompleteness artifacts
/// ([`LintCode::DeadStore`], [`LintCode::NeverReadBuffer`]) are filtered out;
/// every structural error still surfaces — a malformed statement is a
/// generator bug no matter which stage emitted it. With `complete: true`
/// this is exactly [`lint_program`].
pub fn lint_stage(prog: &Program, lib: &CodeLibrary, complete: bool) -> LintReport {
    let mut r = lint_program(prog, lib);
    if !complete {
        r.diagnostics
            .retain(|d| !matches!(d.code, LintCode::DeadStore | LintCode::NeverReadBuffer));
    }
    r
}

/// A register must fit the target's vector registers: `lanes × bit-width`
/// may not exceed `Arch::vector_bits`.
fn lint_register_widths(prog: &Program, r: &mut LintReport) {
    let arch_bits = prog.arch.vector_bits() as usize;
    for (i, &(dtype, lanes)) in prog.reg_types.iter().enumerate() {
        let bits = lanes * dtype.bit_width() as usize;
        if bits > arch_bits {
            r.push(
                LintCode::LaneWidthExceedsArch,
                Location::Register { index: i },
                format!(
                    "{lanes} lanes of {dtype} need {bits} bits but {} registers are {arch_bits}-bit",
                    prog.arch
                ),
            );
        }
    }
}

/// One buffer access recorded in execution order.
struct Access {
    seq: usize,
    write: bool,
    /// Index of the enclosing top-level loop statement, when inside one.
    region: Option<usize>,
    /// Which part of the buffer the access touches.
    key: AccessKey,
    path: Vec<usize>,
}

/// Granularity of a buffer access, for overwrite reasoning. A later write
/// kills an earlier one only when it *covers* it: writing element 1 does
/// not overwrite element 0, but a loop-indexed or whole-buffer write does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AccessKey {
    /// Whole buffer (Copy, kernel output) or a loop-swept index.
    Whole,
    /// One scalar element at a constant index.
    Elem(usize),
    /// One vector-register slice starting at a constant index.
    Slice(usize),
}

impl AccessKey {
    fn covers(self, earlier: AccessKey) -> bool {
        self == AccessKey::Whole || self == earlier
    }
}

fn elem_key(index: &hcg_vm::IndexExpr) -> AccessKey {
    match index {
        hcg_vm::IndexExpr::Const(k) => AccessKey::Elem(*k),
        hcg_vm::IndexExpr::Loop(_) => AccessKey::Whole,
    }
}

fn slice_key(index: &hcg_vm::IndexExpr) -> AccessKey {
    match index {
        hcg_vm::IndexExpr::Const(k) => AccessKey::Slice(*k),
        hcg_vm::IndexExpr::Loop(_) => AccessKey::Whole,
    }
}

/// Linear def-use walk over the program body. Loop bodies are walked once in
/// order — correct for read-before-write (the first iteration runs in that
/// order) while dead-store detection gets a loop-carry exemption.
fn lint_dataflow(prog: &Program, r: &mut LintReport) {
    let mut flow = Flow::new(prog);
    for (i, s) in prog.body.iter().enumerate() {
        flow.walk(s, &[i], None, r);
    }
    lint_stores(prog, r, &flow.accesses);
}

/// Mutable state for the def-use walk.
struct Flow<'p> {
    prog: &'p Program,
    seq: usize,
    initialized: Vec<bool>,
    rbw_reported: Vec<bool>,
    reg_defined: Vec<bool>,
    reg_reported: Vec<bool>,
    accesses: Vec<Vec<Access>>,
}

impl<'p> Flow<'p> {
    fn new(prog: &'p Program) -> Self {
        let nbuf = prog.buffers.len();
        Flow {
            prog,
            seq: 0,
            initialized: prog
                .buffers
                .iter()
                .map(|b| {
                    matches!(
                        b.kind,
                        BufferKind::Input | BufferKind::State | BufferKind::Const
                    )
                })
                .collect(),
            rbw_reported: vec![false; nbuf],
            reg_defined: vec![false; prog.reg_count],
            reg_reported: vec![false; prog.reg_count],
            accesses: (0..nbuf).map(|_| Vec::new()).collect(),
        }
    }

    fn read_buf(
        &mut self,
        buf: usize,
        key: AccessKey,
        path: &[usize],
        region: Option<usize>,
        r: &mut LintReport,
    ) {
        if buf >= self.prog.buffers.len() {
            return; // structural defect already reported
        }
        if !self.initialized[buf] && !self.rbw_reported[buf] {
            self.rbw_reported[buf] = true;
            r.push(
                LintCode::ReadBeforeWrite,
                Location::Stmt {
                    path: path.to_vec(),
                },
                format!(
                    "{:?} buffer {:?} is read before anything writes it",
                    self.prog.buffers[buf].kind, self.prog.buffers[buf].name
                ),
            );
        }
        self.accesses[buf].push(Access {
            seq: self.seq,
            write: false,
            region,
            key,
            path: path.to_vec(),
        });
        self.seq += 1;
    }

    fn write_buf(
        &mut self,
        buf: usize,
        key: AccessKey,
        path: &[usize],
        region: Option<usize>,
        r: &mut LintReport,
    ) {
        if buf >= self.prog.buffers.len() {
            return;
        }
        if self.prog.buffers[buf].kind == BufferKind::Const {
            r.push(
                LintCode::WriteToConst,
                Location::Stmt {
                    path: path.to_vec(),
                },
                format!("write to constant buffer {:?}", self.prog.buffers[buf].name),
            );
        }
        self.initialized[buf] = true;
        self.accesses[buf].push(Access {
            seq: self.seq,
            write: true,
            region,
            key,
            path: path.to_vec(),
        });
        self.seq += 1;
    }

    fn use_reg(&mut self, reg: usize, path: &[usize], r: &mut LintReport) {
        if reg < self.reg_defined.len() && !self.reg_defined[reg] && !self.reg_reported[reg] {
            self.reg_reported[reg] = true;
            r.push(
                LintCode::UninitializedRegister,
                Location::Stmt {
                    path: path.to_vec(),
                },
                format!(
                    "register {} is used before any load or op defines it",
                    self.prog
                        .reg_names
                        .get(reg)
                        .map(String::as_str)
                        .unwrap_or("?")
                ),
            );
        }
    }

    /// Walk one statement; `region` is Some(top-level index) inside a loop.
    fn walk(&mut self, s: &Stmt, path: &[usize], region: Option<usize>, r: &mut LintReport) {
        match s {
            Stmt::Loop { body, .. } => {
                let region = region.or_else(|| path.first().copied());
                for (i, inner) in body.iter().enumerate() {
                    let mut p = path.to_vec();
                    p.push(i);
                    self.walk(inner, &p, region, r);
                }
            }
            Stmt::Scalar { dst, srcs, .. } => {
                for src in srcs {
                    self.read_buf(src.buf.0, elem_key(&src.index), path, region, r);
                }
                self.write_buf(dst.buf.0, elem_key(&dst.index), path, region, r);
            }
            Stmt::VLoad { reg, buf, index } => {
                self.read_buf(buf.0, slice_key(index), path, region, r);
                if reg.0 < self.reg_defined.len() {
                    self.reg_defined[reg.0] = true;
                }
            }
            Stmt::VStore { buf, reg, index } => {
                self.use_reg(reg.0, path, r);
                self.write_buf(buf.0, slice_key(index), path, region, r);
            }
            Stmt::VOp { dst, srcs, .. } => {
                for s in srcs {
                    self.use_reg(s.0, path, r);
                }
                if dst.0 < self.reg_defined.len() {
                    self.reg_defined[dst.0] = true;
                }
            }
            Stmt::KernelCall { inputs, output, .. } => {
                if inputs.contains(output) {
                    let name = self
                        .prog
                        .buffers
                        .get(output.0)
                        .map(|b| b.name.as_str())
                        .unwrap_or("?");
                    r.push(
                        LintCode::KernelAliasing,
                        Location::Stmt {
                            path: path.to_vec(),
                        },
                        format!("kernel call output buffer {name:?} is also an input"),
                    );
                }
                for b in inputs {
                    self.read_buf(b.0, AccessKey::Whole, path, region, r);
                }
                self.write_buf(output.0, AccessKey::Whole, path, region, r);
            }
            Stmt::Copy { dst, src } => {
                self.read_buf(src.0, AccessKey::Whole, path, region, r);
                self.write_buf(dst.0, AccessKey::Whole, path, region, r);
            }
        }
    }
}

/// Dead stores and never-read buffers, from the recorded access lists.
fn lint_stores(prog: &Program, r: &mut LintReport, accesses: &[Vec<Access>]) {
    for (i, evs) in accesses.iter().enumerate() {
        let decl = &prog.buffers[i];
        let relevant = matches!(decl.kind, BufferKind::Temp | BufferKind::Output);
        if !relevant {
            continue;
        }
        let any_read = evs.iter().any(|e| !e.write);
        if decl.kind == BufferKind::Temp && !any_read {
            r.push(
                LintCode::NeverReadBuffer,
                Location::Buffer {
                    name: decl.name.clone(),
                },
                if evs.is_empty() {
                    "temp buffer is declared but never accessed".to_owned()
                } else {
                    "temp buffer is written but never read".to_owned()
                },
            );
            continue; // every write is trivially dead; one finding is enough
        }
        let writes: Vec<&Access> = evs.iter().filter(|e| e.write).collect();
        for w in &writes {
            // Only a *covering* later write kills this one: a store to
            // element 1 does not overwrite a store to element 0.
            let next_write_seq = writes
                .iter()
                .filter(|n| n.seq > w.seq && n.key.covers(w.key))
                .map(|n| n.seq)
                .min()
                .unwrap_or(usize::MAX);
            // A never-overwritten store survives to the end of the step:
            // the caller observes Outputs, and a Temp with any read at all
            // may be consumed by it.
            if next_write_seq == usize::MAX {
                continue;
            }
            let observed = evs.iter().any(|e| {
                !e.write
                    && ((e.seq > w.seq && e.seq < next_write_seq)
                        // Loop carry: a read anywhere in the same loop sees
                        // this write on the next iteration.
                        || (w.region.is_some() && e.region == w.region))
            });
            if !observed {
                r.push(
                    LintCode::DeadStore,
                    Location::Stmt {
                        path: w.path.clone(),
                    },
                    format!(
                        "store to {:?} is overwritten before anything reads it",
                        decl.name
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcg_isa::Arch;
    use hcg_model::op::ElemOp;
    use hcg_model::{DataType, SignalType};
    use hcg_vm::{BufferId, DefectKind, ElemRef, IndexExpr, ScalarOp};

    fn ty8() -> SignalType {
        SignalType::vector(DataType::I32, 8)
    }

    fn abs_loop(dst: BufferId, src: BufferId) -> Stmt {
        Stmt::Loop {
            start: 0,
            end: 8,
            step: 1,
            body: vec![Stmt::Scalar {
                op: ScalarOp::Elem(ElemOp::Abs),
                dst: ElemRef {
                    buf: dst,
                    index: IndexExpr::Loop(0),
                },
                srcs: vec![ElemRef {
                    buf: src,
                    index: IndexExpr::Loop(0),
                }],
            }],
        }
    }

    #[test]
    fn clean_program_has_no_findings() {
        let mut p = Program::new("t", "test", Arch::Neon128);
        let a = p.add_buffer("a", ty8(), BufferKind::Input, None);
        let t = p.add_buffer("t", ty8(), BufferKind::Temp, None);
        let o = p.add_buffer("o", ty8(), BufferKind::Output, None);
        p.body.push(abs_loop(t, a));
        p.body.push(abs_loop(o, t));
        let r = lint_program(&p, &CodeLibrary::new());
        assert!(r.diagnostics.is_empty(), "unexpected: {}", r.render());
    }

    #[test]
    fn structural_defects_become_diagnostics() {
        let mut p = Program::new("t", "test", Arch::Neon128);
        let a = p.add_buffer("a", ty8(), BufferKind::Input, None);
        let reg = p.add_reg(DataType::F32, 4); // dtype mismatch vs i32 buffer
        p.body.push(Stmt::VLoad {
            reg,
            buf: a,
            index: IndexExpr::Const(0),
        });
        let r = lint_program(&p, &CodeLibrary::new());
        assert!(
            r.has(LintCode::Defect(DefectKind::VRegDtypeMismatch)),
            "got: {}",
            r.render()
        );
    }

    #[test]
    fn read_before_write() {
        let mut p = Program::new("t", "test", Arch::Neon128);
        let t = p.add_buffer("t", ty8(), BufferKind::Temp, None);
        let o = p.add_buffer("o", ty8(), BufferKind::Output, None);
        p.body.push(abs_loop(o, t)); // t never written
        let r = lint_program(&p, &CodeLibrary::new());
        assert!(r.has(LintCode::ReadBeforeWrite), "got: {}", r.render());
    }

    #[test]
    fn uninitialized_register() {
        let mut p = Program::new("t", "test", Arch::Neon128);
        let o = p.add_buffer("o", ty8(), BufferKind::Output, None);
        let reg = p.add_reg(DataType::I32, 4);
        p.body.push(Stmt::VStore {
            buf: o,
            index: IndexExpr::Const(0),
            reg,
        });
        let r = lint_program(&p, &CodeLibrary::new());
        assert!(
            r.has(LintCode::UninitializedRegister),
            "got: {}",
            r.render()
        );
    }

    #[test]
    fn dead_store_detected() {
        let mut p = Program::new("t", "test", Arch::Neon128);
        let a = p.add_buffer("a", ty8(), BufferKind::Input, None);
        let t = p.add_buffer("t", ty8(), BufferKind::Temp, None);
        let o = p.add_buffer("o", ty8(), BufferKind::Output, None);
        p.body.push(abs_loop(t, a)); // store to t…
        p.body.push(abs_loop(t, a)); // …overwritten unread
        p.body.push(abs_loop(o, t));
        let r = lint_program(&p, &CodeLibrary::new());
        assert!(r.has(LintCode::DeadStore), "got: {}", r.render());
        assert!(!r.has(LintCode::NeverReadBuffer));
    }

    #[test]
    fn unrolled_stores_to_distinct_elements_are_not_dead() {
        // Unrolled code writes t[0], t[1], t[2], t[3] then reads them all —
        // element stores at different indices must not count as overwrites.
        let mut p = Program::new("t", "test", Arch::Neon128);
        let a = p.add_buffer(
            "a",
            SignalType::vector(DataType::I32, 4),
            BufferKind::Input,
            None,
        );
        let t = p.add_buffer(
            "t",
            SignalType::vector(DataType::I32, 4),
            BufferKind::Temp,
            None,
        );
        let o = p.add_buffer(
            "o",
            SignalType::vector(DataType::I32, 4),
            BufferKind::Output,
            None,
        );
        for i in 0..4 {
            p.body.push(Stmt::Scalar {
                op: ScalarOp::Elem(ElemOp::Abs),
                dst: ElemRef {
                    buf: t,
                    index: IndexExpr::Const(i),
                },
                srcs: vec![ElemRef {
                    buf: a,
                    index: IndexExpr::Const(i),
                }],
            });
        }
        for i in 0..4 {
            p.body.push(Stmt::Scalar {
                op: ScalarOp::Elem(ElemOp::Abs),
                dst: ElemRef {
                    buf: o,
                    index: IndexExpr::Const(i),
                },
                srcs: vec![ElemRef {
                    buf: t,
                    index: IndexExpr::Const(i),
                }],
            });
        }
        let r = lint_program(&p, &CodeLibrary::new());
        assert!(!r.has(LintCode::DeadStore), "got: {}", r.render());

        // But writing the SAME element twice with no read in between is dead.
        let mut p = Program::new("t", "test", Arch::Neon128);
        let a = p.add_buffer(
            "a",
            SignalType::vector(DataType::I32, 4),
            BufferKind::Input,
            None,
        );
        let t = p.add_buffer(
            "t",
            SignalType::vector(DataType::I32, 4),
            BufferKind::Temp,
            None,
        );
        let o = p.add_buffer(
            "o",
            SignalType::vector(DataType::I32, 4),
            BufferKind::Output,
            None,
        );
        for _ in 0..2 {
            p.body.push(Stmt::Scalar {
                op: ScalarOp::Elem(ElemOp::Abs),
                dst: ElemRef {
                    buf: t,
                    index: IndexExpr::Const(0),
                },
                srcs: vec![ElemRef {
                    buf: a,
                    index: IndexExpr::Const(0),
                }],
            });
        }
        p.body.push(Stmt::Scalar {
            op: ScalarOp::Elem(ElemOp::Abs),
            dst: ElemRef {
                buf: o,
                index: IndexExpr::Const(0),
            },
            srcs: vec![ElemRef {
                buf: t,
                index: IndexExpr::Const(0),
            }],
        });
        let r = lint_program(&p, &CodeLibrary::new());
        assert!(r.has(LintCode::DeadStore), "got: {}", r.render());
    }

    #[test]
    fn loop_carried_store_is_not_dead() {
        // Inside one loop: read t[i] then write t[i] — the write feeds the
        // next iteration, so it must not be flagged.
        let mut p = Program::new("t", "test", Arch::Neon128);
        let t = p.add_buffer("t", ty8(), BufferKind::Temp, None);
        let o = p.add_buffer("o", ty8(), BufferKind::Output, None);
        p.body.push(abs_loop(t, t)); // t reads AND writes t in the same loop
        p.body.push(abs_loop(o, t));
        let r = lint_program(&p, &CodeLibrary::new());
        assert!(!r.has(LintCode::DeadStore), "got: {}", r.render());
    }

    #[test]
    fn never_read_buffer() {
        let mut p = Program::new("t", "test", Arch::Neon128);
        let a = p.add_buffer("a", ty8(), BufferKind::Input, None);
        let t = p.add_buffer("scratch", ty8(), BufferKind::Temp, None);
        let o = p.add_buffer("o", ty8(), BufferKind::Output, None);
        p.body.push(abs_loop(t, a)); // written, never read
        p.body.push(abs_loop(o, a));
        let r = lint_program(&p, &CodeLibrary::new());
        assert!(r.has(LintCode::NeverReadBuffer), "got: {}", r.render());
        assert!(!r.has(LintCode::DeadStore)); // folded into never-read
    }

    #[test]
    fn kernel_aliasing() {
        let mut p = Program::new("t", "test", Arch::Neon128);
        let a = p.add_buffer(
            "a",
            SignalType::vector(DataType::F32, 8),
            BufferKind::Temp,
            None,
        );
        p.body.push(Stmt::KernelCall {
            actor: hcg_model::ActorKind::Fft,
            impl_name: "whatever".into(),
            inputs: vec![a],
            output: a,
        });
        let r = lint_program(&p, &CodeLibrary::new());
        assert!(r.has(LintCode::KernelAliasing), "got: {}", r.render());
    }

    #[test]
    fn lane_width_exceeds_arch() {
        let mut p = Program::new("t", "test", Arch::Neon128);
        // 8 × f32 = 256 bits on a 128-bit target.
        p.add_reg(DataType::F32, 8);
        let r = lint_program(&p, &CodeLibrary::new());
        assert!(r.has(LintCode::LaneWidthExceedsArch), "got: {}", r.render());

        // The same register is fine on AVX2.
        let mut p = Program::new("t", "test", Arch::Avx256);
        p.add_reg(DataType::F32, 8);
        let r = lint_program(&p, &CodeLibrary::new());
        assert!(!r.has(LintCode::LaneWidthExceedsArch));
    }

    #[test]
    fn write_to_const() {
        let mut p = Program::new("t", "test", Arch::Neon128);
        let c = p.add_buffer("k", ty8(), BufferKind::Const, Some(vec![0.0; 8]));
        let a = p.add_buffer("a", ty8(), BufferKind::Input, None);
        p.body.push(Stmt::Copy { dst: c, src: a });
        let r = lint_program(&p, &CodeLibrary::new());
        assert!(r.has(LintCode::WriteToConst), "got: {}", r.render());
    }

    #[test]
    fn malformed_program_reports_everything_at_once() {
        // Golden-style: an uninitialized register read AND a dead store in
        // one program must both surface in a single analyzer run.
        let mut p = Program::new("broken", "test", Arch::Neon128);
        let a = p.add_buffer("a", ty8(), BufferKind::Input, None);
        let t = p.add_buffer("t", ty8(), BufferKind::Temp, None);
        let o = p.add_buffer("o", ty8(), BufferKind::Output, None);
        let reg = p.add_reg(DataType::I32, 4);
        p.body.push(Stmt::VStore {
            buf: o,
            index: IndexExpr::Const(0),
            reg, // never defined
        });
        p.body.push(abs_loop(t, a)); // dead: overwritten below, unread
        p.body.push(abs_loop(t, a));
        p.body.push(abs_loop(o, t));
        let r = lint_program(&p, &CodeLibrary::new());
        assert!(
            r.has(LintCode::UninitializedRegister),
            "got: {}",
            r.render()
        );
        assert!(r.has(LintCode::DeadStore), "got: {}", r.render());
        let text = r.render();
        assert!(text.contains("program/uninitialized-register"));
        assert!(text.contains("program/dead-store"));
    }
}
