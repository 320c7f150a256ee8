//! The Simulink-Coder-like baseline generator.

use hcg_core::conventional::emit_conventional;
use hcg_core::dispatch::Dispatch;
use hcg_core::{CodeGenerator, GenContext, GenError, LoopStyle, StageCounters, Stages};
use hcg_graph::{DfgInput, ValTree};
use hcg_isa::{sets, Arch, InstrIndex, InstrSet};
use hcg_kernels::CodeLibrary;
use hcg_model::op::ElemOp;
use hcg_model::{Actor, ActorKind, KindClass, PortRef};
use hcg_vm::{IndexExpr, Program, Stmt};

/// Simulink-Coder-like code generation: expression folding (small arrays
/// fully unrolled), output-variable reuse at the copy level, generic
/// intensive functions, and — on Intel targets only — scattered per-actor
/// SIMD with no cross-actor fusion (paper §4.1/§4.2).
#[derive(Debug, Default)]
pub struct SimulinkCoderGen {
    lib: CodeLibrary,
}

impl SimulinkCoderGen {
    /// A fresh generator.
    pub fn new() -> Self {
        SimulinkCoderGen {
            lib: CodeLibrary::new(),
        }
    }

    /// Coder only emits vector intrinsics for Intel targets; on ARM it
    /// "usually fails to identify batch computing actors" (§4.1, the FIR
    /// example) — modelled as: no NEON emission at all.
    fn scattered_simd_set(arch: Arch) -> Option<(&'static InstrSet, &'static InstrIndex)> {
        match arch {
            Arch::Neon128 => None,
            // Borrow the process-wide parse and index instead of rebuilding
            // them every time a Coder baseline is constructed per fleet job
            // or service request.
            Arch::Sse128 | Arch::Avx256 => Some(sets::builtin_indexed(arch)),
        }
    }

    /// Emit one batch actor as scattered SIMD: load operands from memory,
    /// one single-op vector instruction, store the result back. Falls back
    /// to conventional translation when the op has no vector instruction.
    fn emit_scattered(
        &self,
        ctx: &mut GenContext<'_>,
        actor: &Actor,
        op: ElemOp,
        len: usize,
        (set, index): (&InstrSet, &InstrIndex),
    ) -> Result<bool, GenError> {
        let dtype = ctx.types.output(actor.id, 0).dtype;
        let lanes = ctx.prog.arch.lanes(dtype);
        if len / lanes < 1 {
            return Ok(false);
        }
        // A single-op probe tree with distinct operands.
        let probe = ValTree::Op {
            op,
            args: (0..op.arity())
                .map(|i| ValTree::Leaf(DfgInput::External(i)))
                .collect(),
        };
        let Some((instr, matched)) =
            hcg_graph::matching::find_instruction_indexed(set, index, dtype, lanes, &probe)
        else {
            return Ok(false);
        };

        let offset = len % lanes;
        // Scalar remainder first (same structure as HCG's, per element).
        let srcs_bufs = (0..actor.kind.input_count())
            .map(|p| ctx.value_buffer(PortRef::new(actor.id, p)))
            .collect::<Result<Vec<_>, _>>()?;
        let dst_buf = ctx.actor_buffer(actor.id);
        for i in 0..offset {
            ctx.prog.body.push(Stmt::Scalar {
                op: hcg_vm::ScalarOp::Elem(op),
                dst: hcg_vm::ElemRef {
                    buf: dst_buf,
                    index: IndexExpr::Const(i),
                },
                srcs: srcs_bufs
                    .iter()
                    .map(|&buf| hcg_vm::ElemRef {
                        buf,
                        index: IndexExpr::Const(i),
                    })
                    .collect(),
            });
        }

        let looped = len / lanes >= 2;
        let index = if looped {
            IndexExpr::Loop(0)
        } else {
            IndexExpr::Const(offset)
        };
        let mut body = Vec::new();
        let mut regs = Vec::new();
        for (p, &buf) in srcs_bufs.iter().enumerate() {
            let reg = ctx.prog.add_named_reg(
                dtype,
                lanes,
                format!("{}_in{}", hcg_core::generator::sanitize(&actor.name), p),
            );
            body.push(Stmt::VLoad { reg, buf, index });
            regs.push(reg);
        }
        let dst = ctx.prog.add_named_reg(
            dtype,
            lanes,
            format!("{}_v", hcg_core::generator::sanitize(&actor.name)),
        );
        // Scattered emission binds operands in probe order: External(i) is
        // operand i.
        let srcs: Vec<_> = matched
            .bindings
            .iter()
            .map(|b| match b {
                DfgInput::External(e) => regs[*e],
                DfgInput::Node(_) => unreachable!("probe tree has no node leaves"),
            })
            .collect();
        let src_names: Vec<String> = srcs
            .iter()
            .map(|r| ctx.prog.reg_names[r.0].clone())
            .collect();
        let code = instr.render(
            &src_names,
            &ctx.prog.reg_names[dst.0].clone(),
            matched.shift_amount,
        );
        body.push(Stmt::VOp {
            instr: instr.name.clone(),
            pattern: hcg_core::batch::concretize(&instr.pattern, matched.shift_amount),
            cost: instr.cost,
            dst,
            srcs,
            code,
        });
        // Always back to memory — the defining difference from HCG: the
        // next actor reloads from memory instead of reusing the register.
        body.push(Stmt::VStore {
            buf: dst_buf,
            index,
            reg: dst,
        });
        if looped {
            ctx.prog.body.push(Stmt::Loop {
                start: offset,
                end: len,
                step: lanes,
                body,
            });
        } else {
            ctx.prog.body.extend(body);
        }
        Ok(true)
    }
}

impl CodeGenerator for SimulinkCoderGen {
    fn name(&self) -> &'static str {
        "simulink-coder"
    }

    /// Coder's pipeline after dispatch: `lower` (per-actor translation
    /// with scattered SIMD on Intel) → `compose` (outport copies + delay
    /// latches) → `fold` (adjacent-loop expression folding).
    fn lower(
        &self,
        mut ctx: GenContext<'_>,
        dispatch: &[Dispatch],
        stages: &mut Stages,
    ) -> Result<Program, GenError> {
        let s = stages.start("lower", &ctx.prog);
        let simd = Self::scattered_simd_set(ctx.prog.arch);
        let mut kernel_calls = 0u64;
        for idx in 0..ctx.schedule.order.len() {
            let aid = ctx.schedule.order[idx];
            let actor = ctx.model.actor(aid);
            match actor.kind {
                ActorKind::Inport
                | ActorKind::Outport
                | ActorKind::Constant
                | ActorKind::UnitDelay => continue,
                _ => {}
            }
            ctx.set_origin(hcg_vm::Origin::actor(actor.name.clone()));
            if actor.kind.class() == KindClass::Intensive {
                let general = self.lib.general_for(actor.kind).ok_or_else(|| {
                    GenError::Internal(format!("no general kernel for {}", actor.kind))
                })?;
                let inputs = (0..actor.kind.input_count())
                    .map(|p| ctx.value_buffer(PortRef::new(aid, p)))
                    .collect::<Result<Vec<_>, _>>()?;
                let output = ctx.actor_buffer(aid);
                ctx.prog.body.push(Stmt::KernelCall {
                    actor: actor.kind,
                    impl_name: general.name.to_owned(),
                    inputs,
                    output,
                });
                kernel_calls += 1;
                continue;
            }
            // Scattered SIMD on Intel for batch-dispatched actors.
            if let (Some(simd), &Dispatch::Batch { op, len }) = (simd, &dispatch[aid.0]) {
                if self.emit_scattered(&mut ctx, actor, op, len, simd)? {
                    continue;
                }
            }
            emit_conventional(&mut ctx, actor, LoopStyle::CODER)?;
        }
        let counters = StageCounters {
            kernel_calls,
            ..StageCounters::default()
        };
        stages.end(s, &ctx.prog, false, counters);

        let s = stages.start("compose", &ctx.prog);
        let mut prog = ctx.finish();
        stages.end(s, &prog, true, StageCounters::default());

        let s = stages.start("fold", &prog);
        let (body, origins) = fold_adjacent_loops(
            std::mem::take(&mut prog.body),
            std::mem::take(&mut prog.origins),
        );
        prog.body = body;
        prog.origins = origins;
        stages.end(s, &prog, true, StageCounters::default());
        Ok(prog)
    }
}

/// Expression folding at loop granularity: adjacent element loops with the
/// same bounds and pure element-wise bodies are merged into one loop.
/// Safe because every scalar statement reads/writes only element `i` (plus
/// whole buffers written before the pair), so interleaving per element
/// preserves dataflow order.
///
/// The origin table (when present) folds in lockstep: a merged loop keeps
/// the first loop's origin, so attribution stays parallel to the body.
fn fold_adjacent_loops(
    body: Vec<Stmt>,
    mut origins: Vec<hcg_vm::Origin>,
) -> (Vec<Stmt>, Vec<hcg_vm::Origin>) {
    let tracked = !origins.is_empty();
    if tracked {
        origins.resize(body.len(), hcg_vm::Origin::default());
    } else {
        origins = vec![hcg_vm::Origin::default(); body.len()];
    }
    let mut out: Vec<Stmt> = Vec::with_capacity(body.len());
    let mut out_origins: Vec<hcg_vm::Origin> = Vec::with_capacity(body.len());
    for (stmt, origin) in body.into_iter().zip(origins) {
        let mergeable = matches!(
            (&stmt, out.last()),
            (
                Stmt::Loop { start: s2, end: e2, step: t2, body: b2 },
                Some(Stmt::Loop { start: s1, end: e1, step: t1, body: b1 }),
            ) if s1 == s2
                && e1 == e2
                && t1 == t2
                && b1.iter().all(|s| matches!(s, Stmt::Scalar { .. }))
                && b2.iter().all(|s| matches!(s, Stmt::Scalar { .. }))
        );
        if mergeable {
            let Stmt::Loop { body: b2, .. } = stmt else {
                unreachable!("checked above");
            };
            let Some(Stmt::Loop { body: b1, .. }) = out.last_mut() else {
                unreachable!("checked above");
            };
            b1.extend(b2);
        } else {
            out.push(stmt);
            out_origins.push(origin);
        }
    }
    if !tracked {
        out_origins.clear();
    }
    (out, out_origins)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcg_model::library;

    #[test]
    fn arm_gets_no_simd_intel_gets_scattered() {
        let g = SimulinkCoderGen::new();
        let m = library::fir_model(1024, 4);
        let arm = g.generate(&m, Arch::Neon128).unwrap();
        assert_eq!(arm.stmt_stats().vops, 0);
        let intel = g.generate(&m, Arch::Avx256).unwrap();
        let s = intel.stmt_stats();
        assert!(s.vops > 0);
        // Scattered: every vop pairs with its own store (no fusion).
        assert_eq!(s.vops, s.vstores);
        assert!(s.vloads >= s.vops, "every operand reloaded from memory");
    }

    #[test]
    fn small_arrays_unrolled_like_figure2() {
        let g = SimulinkCoderGen::new();
        let p = g.generate(&library::fig2_model(), Arch::Neon128).unwrap();
        let s = p.stmt_stats();
        // 4-wide model: Coder unrolls — no loops, 12 scalar statements
        // (4 muls, 4 adds, 4 reciprocals, per the paper's Figure 2 text).
        assert_eq!(s.loops, 0);
        assert_eq!(s.scalar_ops, 12);
    }

    #[test]
    fn generic_kernels_for_intensive() {
        let g = SimulinkCoderGen::new();
        let p = g
            .generate(&library::dct_model(1024), Arch::Neon128)
            .unwrap();
        let call = p
            .body
            .iter()
            .find_map(|s| match s {
                Stmt::KernelCall { impl_name, .. } => Some(impl_name.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(call, "generic");
    }

    #[test]
    fn all_benchmarks_generate_on_all_archs() {
        let g = SimulinkCoderGen::new();
        for m in library::paper_benchmarks() {
            for arch in Arch::ALL {
                g.generate(&m, arch)
                    .unwrap_or_else(|e| panic!("{} on {arch}: {e}", m.name));
            }
        }
    }
}
