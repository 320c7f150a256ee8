//! The DFSynth-like baseline generator.

use hcg_core::conventional::emit_conventional;
use hcg_core::dispatch::Dispatch;
use hcg_core::{CodeGenerator, GenContext, GenError, LoopStyle, StageCounters, Stages};
use hcg_kernels::CodeLibrary;
use hcg_model::{ActorKind, KindClass, PortRef};
use hcg_vm::{Program, Stmt};

/// DFSynth-like code generation: schedule-driven, well-structured scalar
/// loops ("cyclic computational codes") and generic functions for intensive
/// actors. No SIMD on any target.
#[derive(Debug, Default)]
pub struct DfSynthGen {
    lib: CodeLibrary,
}

impl DfSynthGen {
    /// A fresh generator.
    pub fn new() -> Self {
        DfSynthGen {
            lib: CodeLibrary::new(),
        }
    }
}

impl CodeGenerator for DfSynthGen {
    fn name(&self) -> &'static str {
        "dfsynth"
    }

    /// DFSynth's pipeline after dispatch: `lower` (generic kernels +
    /// well-structured scalar loops) → `compose`.
    fn lower(
        &self,
        mut ctx: GenContext<'_>,
        dispatch: &[Dispatch],
        stages: &mut Stages,
    ) -> Result<Program, GenError> {
        let s = stages.start("lower", &ctx.prog);
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
                // Always the generic implementation — DFSynth performs
                // no input-scale pre-calculation.
                let Dispatch::Intensive { .. } = dispatch[aid.0] else {
                    return Err(GenError::Internal(format!(
                        "intensive actor {} with non-float input",
                        actor.name
                    )));
                };
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
            } else {
                emit_conventional(&mut ctx, actor, LoopStyle::LOOPS)?;
            }
        }
        let counters = StageCounters {
            kernel_calls,
            ..StageCounters::default()
        };
        stages.end(s, &ctx.prog, false, counters);

        let s = stages.start("compose", &ctx.prog);
        let prog = ctx.finish();
        stages.end(s, &prog, true, StageCounters::default());
        Ok(prog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcg_isa::Arch;
    use hcg_model::library;

    #[test]
    fn never_emits_simd() {
        let g = DfSynthGen::new();
        for m in library::paper_benchmarks() {
            for arch in Arch::ALL {
                let p = g.generate(&m, arch).unwrap();
                let s = p.stmt_stats();
                assert_eq!(s.vops, 0, "{} on {arch}", m.name);
                assert_eq!(s.vloads, 0);
            }
        }
    }

    #[test]
    fn uses_generic_kernels_only() {
        let g = DfSynthGen::new();
        let p = g
            .generate(&library::fft_model(1024), Arch::Neon128)
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
    fn batch_code_is_loops_not_unrolled() {
        let g = DfSynthGen::new();
        let p = g.generate(&library::fig4_model(), Arch::Neon128).unwrap();
        let s = p.stmt_stats();
        assert!(s.loops >= 5, "one loop per batch actor, got {}", s.loops);
    }
}
