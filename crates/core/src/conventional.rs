//! Conventional (scalar) translation — "the conventional translation
//! method of the built-in Simulink Coder" used by HCG for basic actors and
//! remainder data (paper §3, Algorithm 2 line 4), and by the baselines for
//! everything.

use crate::generator::{data_initialiser, GenContext, GenError};
use hcg_model::op::ElemOp;
use hcg_model::{Actor, ActorKind, PortRef, Shape};
use hcg_vm::{BufferId, ElemRef, IndexExpr, ScalarOp, Stmt};

/// How per-element code is laid out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopStyle {
    /// Arrays up to this length are fully unrolled into per-element
    /// statements (Simulink Coder's expression-folded style, Figure 2);
    /// longer arrays get a `for` loop (DFSynth's structured-loop style).
    pub unroll_limit: usize,
}

impl LoopStyle {
    /// Always loop (DFSynth style).
    pub const LOOPS: LoopStyle = LoopStyle { unroll_limit: 0 };
    /// Unroll small arrays (Simulink Coder style, Figure 2 of the paper
    /// unrolls 4 elements).
    pub const CODER: LoopStyle = LoopStyle { unroll_limit: 8 };
}

/// An operand for element-wise emission: a buffer plus whether it
/// broadcasts (scalar operand against array output).
#[derive(Debug, Clone, Copy)]
struct Operand {
    buf: BufferId,
    broadcast: bool,
}

impl Operand {
    fn at(&self, index: IndexExpr) -> ElemRef {
        ElemRef {
            buf: self.buf,
            index: if self.broadcast {
                IndexExpr::Const(0)
            } else {
                index
            },
        }
    }
}

/// Emit one element-wise statement group: `dst[i] = op(srcs[i]…)` for all
/// `len` elements, unrolled or looped per `style`.
fn emit_elementwise(
    ctx: &mut GenContext<'_>,
    op: ScalarOp,
    dst: BufferId,
    srcs: &[Operand],
    len: usize,
    style: LoopStyle,
) {
    let make = |index: IndexExpr, op: &ScalarOp| Stmt::Scalar {
        op: op.clone(),
        dst: ElemRef { buf: dst, index },
        srcs: srcs.iter().map(|s| s.at(index)).collect(),
    };
    if len <= style.unroll_limit.max(1) {
        for i in 0..len {
            ctx.prog.body.push(make(IndexExpr::Const(i), &op));
        }
    } else {
        ctx.prog.body.push(Stmt::Loop {
            start: 0,
            end: len,
            step: 1,
            body: vec![make(IndexExpr::Loop(0), &op)],
        });
    }
}

/// Conventionally translate one actor (anything except `Inport`,
/// `Constant`, `Outport` and `UnitDelay`, whose lowering lives in the
/// shared context / finish pass). Intensive actors are *not* handled here
/// — the caller chooses between Algorithm 1 (HCG) and a fixed general
/// implementation (baselines) and emits the `KernelCall` itself.
///
/// # Errors
///
/// Returns [`GenError`] for unconnected inputs or unsupported kinds.
pub fn emit_conventional(
    ctx: &mut GenContext<'_>,
    actor: &Actor,
    style: LoopStyle,
) -> Result<(), GenError> {
    let id = actor.id;
    let out_ty = ctx.types.output(id, 0);
    let len = out_ty.len();
    let dst = ctx.actor_buffer(id);
    let operand = |ctx: &GenContext<'_>, port: usize| -> Result<Operand, GenError> {
        let src = ctx.model.driver(PortRef::new(id, port)).ok_or_else(|| {
            GenError::Internal(format!("unconnected input {port} of {}", actor.name))
        })?;
        let src_ty = ctx.types.output(src.actor, src.port);
        Ok(Operand {
            buf: ctx.actor_buffer(src.actor),
            broadcast: src_ty.shape == Shape::Scalar && out_ty.shape != Shape::Scalar,
        })
    };

    let amount = actor.param("amount").and_then(|p| p.as_int()).unwrap_or(0) as u32;
    use ActorKind::*;
    let op: ScalarOp = match actor.kind {
        Gain => {
            // Materialise the gain factor as a one-element constant and
            // multiply by it.
            let g = data_initialiser(actor)
                .ok_or_else(|| GenError::Internal(format!("{} missing gain", actor.name)))?;
            let gbuf = ctx.add_data_buffer(
                id,
                format!("{}_gain", crate::generator::sanitize(&actor.name)),
                hcg_model::SignalType::scalar(out_ty.dtype),
                hcg_vm::BufferKind::Const,
                Some(g),
            );
            let srcs = [
                operand(ctx, 0)?,
                Operand {
                    buf: gbuf,
                    broadcast: true,
                },
            ];
            emit_elementwise(ctx, ScalarOp::Elem(ElemOp::Mul), dst, &srcs, len, style);
            return Ok(());
        }
        Saturate => {
            let lo = actor
                .param("min")
                .and_then(|p| p.as_float())
                .unwrap_or(f64::MIN);
            let hi = actor
                .param("max")
                .and_then(|p| p.as_float())
                .unwrap_or(f64::MAX);
            ScalarOp::Clamp { lo, hi }
        }
        Cast => ScalarOp::Cast,
        Switch => ScalarOp::Select,
        UnitDelay | Inport | Outport | Constant => {
            return Err(GenError::Internal(format!(
                "{} is lowered by the shared context, not conventional translation",
                actor.kind
            )));
        }
        kind if kind.class() == hcg_model::KindClass::Intensive => {
            return Err(GenError::Internal(format!(
                "intensive actor {} must be lowered via a kernel call",
                actor.name
            )));
        }
        kind => {
            let op = ElemOp::from_actor(kind, amount)
                .ok_or_else(|| GenError::Internal(format!("no scalar semantics for {kind}")))?;
            ScalarOp::Elem(op)
        }
    };

    let n_in = actor.kind.input_count();
    let mut srcs = Vec::with_capacity(n_in);
    for p in 0..n_in {
        srcs.push(operand(ctx, p)?);
    }
    emit_elementwise(ctx, op, dst, &srcs, len, style);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcg_isa::Arch;
    use hcg_kernels::CodeLibrary;
    use hcg_model::{library, DataType, ModelBuilder, SignalType, Tensor};
    use hcg_vm::Machine;

    /// Lower a whole model conventionally (intensive actors via the general
    /// kernel) — a miniature generator used by these tests.
    fn lower_all(model: &hcg_model::Model, style: LoopStyle) -> hcg_vm::Program {
        let mut ctx = GenContext::new(model, Arch::Neon128, "conv-test").unwrap();
        for idx in 0..ctx.schedule.order.len() {
            let aid = ctx.schedule.order[idx];
            let actor = ctx.model.actor(aid);
            match actor.kind {
                ActorKind::Inport
                | ActorKind::Outport
                | ActorKind::Constant
                | ActorKind::UnitDelay => {}
                k if k.class() == hcg_model::KindClass::Intensive => {
                    let lib = CodeLibrary::new();
                    let general = lib.general_for(k).unwrap();
                    let inputs: Vec<_> = (0..k.input_count())
                        .map(|p| ctx.value_buffer(hcg_model::PortRef::new(aid, p)).unwrap())
                        .collect();
                    let output = ctx.actor_buffer(aid);
                    ctx.prog.body.push(Stmt::KernelCall {
                        actor: k,
                        impl_name: general.name.into(),
                        inputs,
                        output,
                    });
                }
                _ => emit_conventional(&mut ctx, actor, style).unwrap(),
            }
        }
        ctx.finish()
    }

    #[test]
    fn unrolled_vs_looped_same_values() {
        let m = library::fig4_model();
        let lib = CodeLibrary::new();
        let unrolled = lower_all(&m, LoopStyle::CODER);
        let looped = lower_all(&m, LoopStyle::LOOPS);
        assert!(unrolled.stmt_stats().loops < looped.stmt_stats().loops);

        let ty = SignalType::vector(DataType::I32, 4);
        let mk = |vals: Vec<i64>| Tensor::from_i64(ty, vals).unwrap();
        for prog in [&unrolled, &looped] {
            let mut mach = Machine::new(prog, &lib);
            mach.set_input("a", &mk(vec![1, 2, 3, 4])).unwrap();
            mach.set_input("b", &mk(vec![10, 20, 30, 40])).unwrap();
            mach.set_input("c", &mk(vec![5, 5, 5, 5])).unwrap();
            mach.set_input("d", &mk(vec![2, 2, 2, 2])).unwrap();
            mach.step().unwrap();
            // s = b - c; Shr_out = (a + s) >> 1; Add_out = s + s*d.
            let s = [5i64, 15, 25, 35];
            let shr: Vec<i64> = s
                .iter()
                .zip([1, 2, 3, 4])
                .map(|(s, a)| (a + s) >> 1)
                .collect();
            let add: Vec<i64> = s.iter().map(|s| s + s * 2).collect();
            assert_eq!(mach.read_buffer("Shr_out").unwrap().as_i64(), shr);
            assert_eq!(mach.read_buffer("Add_out").unwrap().as_i64(), add);
        }
    }

    #[test]
    fn gain_uses_constant_multiplier() {
        let mut b = ModelBuilder::new("g");
        let x = b.inport("x", SignalType::vector(DataType::F32, 8));
        let g = b.gain("scale", 2.5);
        let o = b.outport("o");
        b.connect(x, 0, g, 0);
        b.connect(g, 0, o, 0);
        let m = b.build().unwrap();
        let prog = lower_all(&m, LoopStyle::LOOPS);
        let lib = CodeLibrary::new();
        let mut mach = Machine::new(&prog, &lib);
        let ty = SignalType::vector(DataType::F32, 8);
        mach.set_input("x", &Tensor::from_f64(ty, vec![2.0; 8]).unwrap())
            .unwrap();
        mach.step().unwrap();
        assert_eq!(mach.read_buffer("o").unwrap().as_f64(), vec![5.0; 8]);
    }

    #[test]
    fn lowpass_steps_track_reference_recurrence() {
        let m = library::lowpass_model(8);
        let prog = lower_all(&m, LoopStyle::LOOPS);
        let lib = CodeLibrary::new();
        let mut mach = Machine::new(&prog, &lib);
        let ty = SignalType::vector(DataType::F32, 8);
        let mut y = vec![0.0f64; 8];
        for step in 0..5 {
            let x = vec![(step as f64) + 1.0; 8];
            mach.set_input("x", &Tensor::from_f64(ty, x.clone()).unwrap())
                .unwrap();
            mach.step().unwrap();
            for (yy, xx) in y.iter_mut().zip(&x) {
                // f32 storage rounds alpha; compare loosely.
                *yy += 0.2 * (xx - *yy);
            }
            let got = mach.read_buffer("y").unwrap().as_f64();
            for (g, e) in got.iter().zip(&y) {
                assert!((g - e).abs() < 1e-3, "step {step}: {g} vs {e}");
            }
        }
    }

    #[test]
    fn broadcast_scalar_second_operand() {
        let mut b = ModelBuilder::new("bc");
        let x = b.inport("x", SignalType::vector(DataType::I32, 6));
        let k = b.inport("k", SignalType::scalar(DataType::I32));
        let add = b.add_actor("sum", ActorKind::Add);
        let o = b.outport("o");
        b.connect(x, 0, add, 0);
        b.connect(k, 0, add, 1);
        b.connect(add, 0, o, 0);
        let m = b.build().unwrap();
        let prog = lower_all(&m, LoopStyle::LOOPS);
        let lib = CodeLibrary::new();
        let mut mach = Machine::new(&prog, &lib);
        mach.set_input(
            "x",
            &Tensor::from_i64(SignalType::vector(DataType::I32, 6), vec![1, 2, 3, 4, 5, 6])
                .unwrap(),
        )
        .unwrap();
        mach.set_input(
            "k",
            &Tensor::from_i64(SignalType::scalar(DataType::I32), vec![100]).unwrap(),
        )
        .unwrap();
        mach.step().unwrap();
        assert_eq!(
            mach.read_buffer("o").unwrap().as_i64(),
            vec![101, 102, 103, 104, 105, 106]
        );
    }
}
