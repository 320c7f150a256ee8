//! C-like source rendering of generated programs — the human-readable view
//! of what each generator produced (the paper's Figure 2 code comparison
//! and Listing 1 are regenerated from this).

use hcg_isa::Arch;
use hcg_model::naming::sanitize_identifier;
use hcg_model::op::ElemOp;
use hcg_vm::{BufferId, BufferKind, ElemRef, IndexExpr, Program, RegId, ScalarOp, Stmt};
use std::fmt::{self, Display, Write};

/// Render a program as C-like source.
///
/// Every fragment is written straight into one `String`, allocated once at
/// a length estimated from the program.
pub fn to_c_source(prog: &Program) -> String {
    let mut out = String::with_capacity(estimated_len(prog));
    write_program(prog, &mut out).expect("writing to a String cannot fail");
    out
}

// Per-line allowances for what `estimated_len` does not count exactly:
// indentation, punctuation, operators, intrinsic spelling and numbers.
const HEADER: usize = 72;
const DECL: usize = 28;
const LOOP: usize = 48;
const SCALAR: usize = 16;
const ELEM: usize = 4;
const VLOAD: usize = 58;
const VSTORE: usize = 44;
const VOP: usize = 18;
const CALL: usize = 24;
const COPY: usize = 24;

/// The length of the rendered text, estimated from the program's names and
/// intrinsic code plus per-line allowances. It errs high, so the output is
/// allocated once; an underestimate costs one reallocation.
fn estimated_len(prog: &Program) -> usize {
    let decls: usize = prog.buffers.iter().map(|b| DECL + b.name.len()).sum();
    HEADER + 2 * prog.name.len() + prog.generator.len() + decls + block_len(prog, &prog.body)
}

fn block_len(prog: &Program, stmts: &[Stmt]) -> usize {
    let name = |b: &BufferId| prog.buffer(*b).name.len();
    let reg = |r: &RegId| prog.reg_names[r.0].len();
    stmts
        .iter()
        .map(|s| match s {
            Stmt::Loop { body, .. } => LOOP + block_len(prog, body),
            Stmt::Scalar { dst, srcs, .. } => {
                let elems = std::iter::once(dst).chain(srcs);
                SCALAR + elems.map(|r| ELEM + name(&r.buf)).sum::<usize>()
            }
            Stmt::VLoad { reg: r, buf, .. } => VLOAD + reg(r) + name(buf),
            Stmt::VStore { reg: r, buf, .. } => VSTORE + reg(r) + name(buf),
            Stmt::VOp { code, .. } => VOP + code.len(),
            Stmt::KernelCall {
                impl_name,
                inputs,
                output,
                ..
            } => {
                CALL + impl_name.len()
                    + name(output)
                    + inputs.iter().map(|b| 2 + name(b)).sum::<usize>()
            }
            Stmt::Copy { dst, src } => COPY + 2 * name(dst) + name(src),
        })
        .sum()
}

fn write_program(prog: &Program, out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "/* model: {} | generator: {} | target: {} */",
        comment_text(&prog.name),
        prog.generator,
        prog.arch
    )?;
    // Buffer declarations.
    for b in &prog.buffers {
        let qual = match b.kind {
            BufferKind::Input => "/* in  */ ",
            BufferKind::Output => "/* out */ ",
            BufferKind::State => "/* st  */ static ",
            BufferKind::Temp => "/* tmp */ ",
            BufferKind::Const => "/* cst */ const ",
        };
        let cty = Arch::c_scalar_type(b.ty.dtype);
        if b.ty.len() == 1 {
            writeln!(out, "{qual}{cty} {};", b.name)?;
        } else {
            writeln!(out, "{qual}{cty} {}[{}];", b.name, b.ty.len())?;
        }
    }
    writeln!(
        out,
        "\nvoid {}_step(void) {{",
        sanitize_identifier(&prog.name)
    )?;
    write_block(prog, &prog.body, 1, out)?;
    out.push_str("}\n");
    Ok(())
}

/// `text` made safe inside a `/* … */` comment: every `*/` becomes `* /`,
/// so a model name cannot close the header comment and inject C.
fn comment_text(text: &str) -> impl Display + '_ {
    fmt::from_fn(move |f| {
        let mut parts = text.split("*/");
        f.write_str(parts.next().unwrap_or_default())?;
        parts.try_for_each(|p| {
            f.write_str("* /")?;
            f.write_str(p)
        })
    })
}

/// One element: the bare name of a 1-element buffer, else `name[index]`.
fn elem<'a>(prog: &'a Program, r: &ElemRef) -> impl Display + 'a {
    let b = prog.buffer(r.buf);
    let index = r.index;
    fmt::from_fn(move |f| {
        f.write_str(&b.name)?;
        if b.ty.len() != 1 {
            f.write_char('[')?;
            index.fmt(f)?;
            f.write_char(']')?;
        }
        Ok(())
    })
}

/// `&name[index]`, the address a vector load or store starts at.
fn ptr(name: &str, index: IndexExpr) -> impl Display + '_ {
    fmt::from_fn(move |f| write!(f, "&{name}[{index}]"))
}

fn write_scalar(
    prog: &Program,
    op: &ScalarOp,
    dst: &ElemRef,
    srcs: &[ElemRef],
    out: &mut String,
) -> fmt::Result {
    let d = elem(prog, dst);
    let s = |i: usize| elem(prog, &srcs[i]);
    match op {
        ScalarOp::Elem(e) => match e {
            ElemOp::Add => writeln!(out, "{d} = {} + {};", s(0), s(1)),
            ElemOp::Sub => writeln!(out, "{d} = {} - {};", s(0), s(1)),
            ElemOp::Mul => writeln!(out, "{d} = {} * {};", s(0), s(1)),
            ElemOp::Div => writeln!(out, "{d} = {} / {};", s(0), s(1)),
            ElemOp::Shr(n) => writeln!(out, "{d} = {} >> {n};", s(0)),
            ElemOp::Shl(n) => writeln!(out, "{d} = {} << {n};", s(0)),
            ElemOp::BitNot => writeln!(out, "{d} = ~{};", s(0)),
            ElemOp::BitAnd => writeln!(out, "{d} = {} & {};", s(0), s(1)),
            ElemOp::BitOr => writeln!(out, "{d} = {} | {};", s(0), s(1)),
            ElemOp::BitXor => writeln!(out, "{d} = {} ^ {};", s(0), s(1)),
            ElemOp::Min => writeln!(out, "{d} = MIN({}, {});", s(0), s(1)),
            ElemOp::Max => writeln!(out, "{d} = MAX({}, {});", s(0), s(1)),
            ElemOp::Abs => writeln!(out, "{d} = ABS({});", s(0)),
            ElemOp::Abd => writeln!(out, "{d} = ABS({} - {});", s(0), s(1)),
            ElemOp::Recp => writeln!(out, "{d} = 1.0f / {};", s(0)),
            ElemOp::Sqrt => writeln!(out, "{d} = sqrtf({});", s(0)),
            ElemOp::Neg => writeln!(out, "{d} = -{};", s(0)),
        },
        ScalarOp::Select => writeln!(out, "{d} = ({} > 0) ? {} : {};", s(0), s(1), s(2)),
        ScalarOp::Clamp { lo, hi } => writeln!(out, "{d} = CLAMP({}, {lo}, {hi});", s(0)),
        ScalarOp::Cast => writeln!(
            out,
            "{d} = ({}){};",
            Arch::c_scalar_type(prog.buffer(dst.buf).ty.dtype),
            s(0)
        ),
        ScalarOp::Copy => writeln!(out, "{d} = {};", s(0)),
    }
}

fn write_block(prog: &Program, stmts: &[Stmt], depth: usize, out: &mut String) -> fmt::Result {
    let indent = |out: &mut String| (0..depth).for_each(|_| out.push_str("  "));
    for s in stmts {
        indent(out);
        match s {
            Stmt::Loop {
                start,
                end,
                step,
                body,
            } => {
                writeln!(out, "for (size_t i = {start}; i < {end}; i += {step}) {{")?;
                write_block(prog, body, depth + 1, out)?;
                indent(out);
                out.push_str("}\n");
            }
            Stmt::Scalar { op, dst, srcs } => write_scalar(prog, op, dst, srcs, out)?,
            Stmt::VLoad { reg, buf, index } => {
                let (dtype, _) = prog.reg_types[reg.0];
                writeln!(
                    out,
                    "{} {} = {};",
                    prog.arch.vector_type(dtype),
                    prog.reg_names[reg.0],
                    prog.arch
                        .load_expr(dtype, ptr(&prog.buffer(*buf).name, *index))
                )?;
            }
            Stmt::VStore { buf, index, reg } => {
                let (dtype, _) = prog.reg_types[reg.0];
                let store = prog.arch.store_stmt(
                    dtype,
                    ptr(&prog.buffer(*buf).name, *index),
                    &prog.reg_names[reg.0],
                );
                writeln!(out, "{store}")?;
            }
            Stmt::VOp { code, dst, .. } => {
                let (dtype, _) = prog.reg_types[dst.0];
                writeln!(out, "{} {code}", prog.arch.vector_type(dtype))?;
            }
            Stmt::KernelCall {
                actor,
                impl_name,
                inputs,
                output,
            } => {
                out.extend(actor.name().chars().flat_map(char::to_lowercase));
                write!(out, "_{impl_name}(")?;
                for b in inputs {
                    write!(out, "{}, ", prog.buffer(*b).name)?;
                }
                writeln!(out, "{});", prog.buffer(*output).name)?;
            }
            Stmt::Copy { dst, src } => {
                let d = prog.buffer(*dst);
                let (dn, sn) = (&d.name, &prog.buffer(*src).name);
                if d.ty.len() == 1 {
                    writeln!(out, "{dn} = {sn};")?;
                } else {
                    writeln!(out, "memcpy({dn}, {sn}, sizeof({dn}));")?;
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CodeGenerator, HcgGen};
    use hcg_model::library;

    #[test]
    fn fig4_source_contains_listing1_lines() {
        let gen = HcgGen::new();
        let p = gen.generate(&library::fig4_model(), Arch::Neon128).unwrap();
        let src = to_c_source(&p);
        // The paper's Listing 1, modulo variable spelling.
        assert!(
            src.contains("int32x4_t a_batch = vld1q_s32(&a[0]);"),
            "{src}"
        );
        assert!(
            src.contains("Sub_batch = vsubq_s32(b_batch, c_batch);"),
            "{src}"
        );
        assert!(
            src.contains("Shr_batch = vhaddq_s32(a_batch, Sub_batch);"),
            "{src}"
        );
        assert!(
            src.contains("AddM_batch = vmlaq_s32(Sub_batch, Sub_batch, d_batch);"),
            "{src}"
        );
        assert!(src.contains("vst1q_s32(&Shr_out[0], Shr_batch);"), "{src}");
    }

    #[test]
    fn loops_and_kernel_calls_render() {
        let gen = HcgGen::new();
        let p = gen
            .generate(&library::fft_model(1024), Arch::Neon128)
            .unwrap();
        let src = to_c_source(&p);
        assert!(
            src.contains("for (size_t i = 0; i < 1024; i += 4)"),
            "{src}"
        );
        assert!(src.contains("fft_radix4("), "{src}");
    }

    #[test]
    fn intel_source_uses_intel_spelling() {
        let gen = HcgGen::new();
        let p = gen
            .generate(&library::fir_model(1024, 4), Arch::Avx256)
            .unwrap();
        let src = to_c_source(&p);
        assert!(src.contains("_mm256_"), "{src}");
        assert!(src.contains("__m256i"), "{src}");
    }

    #[test]
    fn model_names_cannot_close_the_header_comment() {
        for (name, shown) in [
            ("x */ int evil; /*", "x * / int evil; /*"),
            ("**/*/", "** /* /"),
        ] {
            let mut p = HcgGen::new()
                .generate(&library::fig4_model(), Arch::Neon128)
                .unwrap();
            p.name = name.to_owned();
            let src = to_c_source(&p);
            let header = src.lines().next().unwrap();
            assert_eq!(
                header,
                format!("/* model: {shown} | generator: hcg | target: neon128 */")
            );
            assert_eq!(header.matches("*/").count(), 1, "{header}");
        }
    }

    #[test]
    fn step_function_names_are_c_identifiers() {
        let mut p = HcgGen::new()
            .generate(&library::fig4_model(), Arch::Neon128)
            .unwrap();
        for (name, step) in [("3d", "_3d_step"), ("a-b c", "a_b_c_step")] {
            p.name = name.to_owned();
            let src = to_c_source(&p);
            assert!(src.contains(&format!("\nvoid {step}(void) {{\n")), "{src}");
        }
    }
}
