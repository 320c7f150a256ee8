//! C-like source rendering of generated programs — the human-readable view
//! of what each generator produced (the paper's Figure 2 code comparison
//! and Listing 1 are regenerated from this).
//!
//! Every fragment is appended with `push_str`, `push` or `extend`, and
//! numbers go through one decimal writer, so no line passes through
//! `core::fmt`; only a `Clamp`'s `f64` bounds are written with `Display`,
//! whose shortest round-trip spelling is part of the text.

use hcg_isa::Arch;
use hcg_model::naming::sanitize_identifier;
use hcg_model::op::ElemOp;
use hcg_vm::{BufferId, BufferKind, ElemRef, IndexExpr, Program, RegId, ScalarOp, Stmt};
use std::fmt::Write;

/// Render a program as C-like source.
///
/// Every fragment is appended straight into one `String`, allocated once
/// at a length estimated from the program.
pub fn to_c_source(prog: &Program) -> String {
    let mut out = String::with_capacity(estimated_len(prog));
    write_program(prog, &mut out);
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

fn write_program(prog: &Program, out: &mut String) {
    out.push_str("/* model: ");
    push_comment_text(out, &prog.name);
    out.extend([
        " | generator: ",
        &prog.generator,
        " | target: ",
        prog.arch.name(),
        " */\n",
    ]);
    // Buffer declarations.
    for b in &prog.buffers {
        out.push_str(match b.kind {
            BufferKind::Input => "/* in  */ ",
            BufferKind::Output => "/* out */ ",
            BufferKind::State => "/* st  */ static ",
            BufferKind::Temp => "/* tmp */ ",
            BufferKind::Const => "/* cst */ const ",
        });
        out.extend([Arch::c_scalar_type(b.ty.dtype), " ", &b.name]);
        if b.ty.len() != 1 {
            out.push('[');
            push_decimal(out, b.ty.len());
            out.push(']');
        }
        out.push_str(";\n");
    }
    out.extend([
        "\nvoid ",
        &sanitize_identifier(&prog.name),
        "_step(void) {\n",
    ]);
    write_block(prog, &prog.body, 1, out);
    out.push_str("}\n");
}

/// Append `n` in decimal.
fn push_decimal(out: &mut String, mut n: usize) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// Append `text` made safe inside a `/* … */` comment: every `*/` becomes
/// `* /`, so a model name cannot close the header comment and inject C.
fn push_comment_text(out: &mut String, text: &str) {
    let mut parts = text.split("*/");
    out.push_str(parts.next().unwrap_or_default());
    for p in parts {
        out.push_str("* /");
        out.push_str(p);
    }
}

/// Append an element index, with `i` as the loop variable.
fn push_index(out: &mut String, index: IndexExpr) {
    match index {
        IndexExpr::Const(c) => push_decimal(out, c),
        IndexExpr::Loop(0) => out.push('i'),
        IndexExpr::Loop(off) => {
            out.push_str("i + ");
            push_decimal(out, off);
        }
    }
}

/// Append one element: the bare name of a 1-element buffer, else
/// `name[index]`.
fn push_elem(out: &mut String, prog: &Program, r: &ElemRef) {
    let b = prog.buffer(r.buf);
    out.push_str(&b.name);
    if b.ty.len() != 1 {
        out.push('[');
        push_index(out, r.index);
        out.push(']');
    }
}

/// Append `&name[index]`, the address a vector load or store starts at.
fn push_ptr(out: &mut String, prog: &Program, buf: BufferId, index: IndexExpr) {
    out.extend(["&", &prog.buffer(buf).name, "["]);
    push_index(out, index);
    out.push(']');
}

/// An element-wise operation's spelling around its operands: `(open, sep,
/// close)` renders `open a sep b close` (`open a close` for one operand);
/// a shift's amount follows its operand after `sep`.
fn elem_pieces(op: ElemOp) -> (&'static str, &'static str, &'static str) {
    match op {
        ElemOp::Add => ("", " + ", ""),
        ElemOp::Sub => ("", " - ", ""),
        ElemOp::Mul => ("", " * ", ""),
        ElemOp::Div => ("", " / ", ""),
        ElemOp::Shr(_) => ("", " >> ", ""),
        ElemOp::Shl(_) => ("", " << ", ""),
        ElemOp::BitNot => ("~", "", ""),
        ElemOp::BitAnd => ("", " & ", ""),
        ElemOp::BitOr => ("", " | ", ""),
        ElemOp::BitXor => ("", " ^ ", ""),
        ElemOp::Min => ("MIN(", ", ", ")"),
        ElemOp::Max => ("MAX(", ", ", ")"),
        ElemOp::Abs => ("ABS(", "", ")"),
        ElemOp::Abd => ("ABS(", " - ", ")"),
        ElemOp::Recp => ("1.0f / ", "", ""),
        ElemOp::Sqrt => ("sqrtf(", "", ")"),
        ElemOp::Neg => ("-", "", ""),
    }
}

fn write_scalar(prog: &Program, op: &ScalarOp, dst: &ElemRef, srcs: &[ElemRef], out: &mut String) {
    push_elem(out, prog, dst);
    out.push_str(" = ");
    match op {
        ScalarOp::Elem(e) => {
            let (open, sep, close) = elem_pieces(*e);
            out.push_str(open);
            for (k, s) in srcs.iter().enumerate() {
                if k > 0 {
                    out.push_str(sep);
                }
                push_elem(out, prog, s);
            }
            if let ElemOp::Shr(n) | ElemOp::Shl(n) = e {
                out.push_str(sep);
                push_decimal(out, *n as usize);
            }
            out.push_str(close);
        }
        ScalarOp::Select => {
            out.push('(');
            push_elem(out, prog, &srcs[0]);
            out.push_str(" > 0) ? ");
            push_elem(out, prog, &srcs[1]);
            out.push_str(" : ");
            push_elem(out, prog, &srcs[2]);
        }
        ScalarOp::Clamp { lo, hi } => {
            out.push_str("CLAMP(");
            push_elem(out, prog, &srcs[0]);
            write!(out, ", {lo}, {hi})").expect("writing to a String cannot fail");
        }
        ScalarOp::Cast => {
            out.push('(');
            out.push_str(Arch::c_scalar_type(prog.buffer(dst.buf).ty.dtype));
            out.push(')');
            push_elem(out, prog, &srcs[0]);
        }
        ScalarOp::Copy => push_elem(out, prog, &srcs[0]),
    }
    out.push_str(";\n");
}

fn write_block(prog: &Program, stmts: &[Stmt], depth: usize, out: &mut String) {
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
                out.push_str("for (size_t i = ");
                push_decimal(out, *start);
                out.push_str("; i < ");
                push_decimal(out, *end);
                out.push_str("; i += ");
                push_decimal(out, *step);
                out.push_str(") {\n");
                write_block(prog, body, depth + 1, out);
                indent(out);
                out.push_str("}\n");
            }
            Stmt::Scalar { op, dst, srcs } => write_scalar(prog, op, dst, srcs, out),
            Stmt::VLoad { reg, buf, index } => {
                let (dtype, _) = prog.reg_types[reg.0];
                out.extend([
                    prog.arch.vector_type(dtype),
                    " ",
                    &prog.reg_names[reg.0],
                    " = ",
                    prog.arch.load_call(dtype),
                ]);
                push_ptr(out, prog, *buf, *index);
                out.push_str(");\n");
            }
            Stmt::VStore { buf, index, reg } => {
                let (dtype, _) = prog.reg_types[reg.0];
                out.push_str(prog.arch.store_call(dtype));
                push_ptr(out, prog, *buf, *index);
                out.extend([", ", &prog.reg_names[reg.0], ");\n"]);
            }
            Stmt::VOp { code, dst, .. } => {
                let (dtype, _) = prog.reg_types[dst.0];
                out.extend([prog.arch.vector_type(dtype), " ", code, "\n"]);
            }
            Stmt::KernelCall {
                actor,
                impl_name,
                inputs,
                output,
            } => {
                out.extend(actor.name().chars().flat_map(char::to_lowercase));
                out.extend(["_", impl_name, "("]);
                for b in inputs {
                    out.extend([&prog.buffer(*b).name, ", "]);
                }
                out.extend([&prog.buffer(*output).name, ");\n"]);
            }
            Stmt::Copy { dst, src } => {
                let d = prog.buffer(*dst);
                let (dn, sn) = (d.name.as_str(), prog.buffer(*src).name.as_str());
                if d.ty.len() == 1 {
                    out.extend([dn, " = ", sn, ";\n"]);
                } else {
                    out.extend(["memcpy(", dn, ", ", sn, ", sizeof(", dn, "));\n"]);
                }
            }
        }
    }
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
    fn decimal_writer_matches_to_string() {
        for n in [0, 9, 10, 99, 100, usize::MAX] {
            let mut out = String::from("x");
            push_decimal(&mut out, n);
            assert_eq!(out, format!("x{n}"));
        }
    }

    #[test]
    fn indices_render_with_i_as_the_loop_variable() {
        for (index, text) in [
            (IndexExpr::Loop(0), "i"),
            (IndexExpr::Loop(4), "i + 4"),
            (IndexExpr::Const(7), "7"),
        ] {
            let mut out = String::new();
            push_index(&mut out, index);
            assert_eq!(out, text);
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
