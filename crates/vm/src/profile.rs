//! The execution profiler: attributes cost-model cycles to the source
//! actors and mapped SIMD regions that emitted each top-level statement.
//!
//! Generators record an [`Origin`](crate::Origin) per top-level statement
//! at emit time; the profiler prices each statement with
//! [`CostModel::stmt_cycles`] and folds the charges per actor and per
//! region. Because [`CostModel::cycles`] is *defined* as the sum of
//! top-level statement costs, per-actor attribution sums exactly to the
//! VM's total — conservation is structural, and the bench crate's
//! `profile_conservation` test pins it for every example model.

use crate::cost::{Compiler, CostModel};
use crate::program::{Origin, Program, Stmt};
use hcg_isa::Arch;
use hcg_kernels::CodeLibrary;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Cycles attributed to one source actor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActorCycles {
    /// Actor name, or `(unattributed)` for statements without provenance.
    pub label: String,
    /// Total cycles charged to this actor's top-level statements.
    pub cycles: u64,
    /// Number of top-level statements attributed to it.
    pub stmts: usize,
}

/// Issue counts and cycles attributed to one SIMD instruction across the
/// whole program (loop trip counts multiplied through).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstrCycles {
    /// Instruction name (e.g. `vmlaq_s32`).
    pub name: String,
    /// Dynamic issue count per program step.
    pub count: u64,
    /// Total cycles those issues cost ([`CostModel::vop_cycles`] each).
    pub cycles: u64,
}

/// Cycles attributed to one mapped SIMD region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionCycles {
    /// Region index within the generator run.
    pub index: usize,
    /// First member actor of the region (the attribution label).
    pub actor: String,
    /// Total cycles charged to the region's statements.
    pub cycles: u64,
}

/// A per-actor / per-region cycle breakdown of one generated program on
/// one platform.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleProfile {
    /// Model (program) name.
    pub model: String,
    /// Generator that produced the program.
    pub generator: String,
    /// Architecture priced against.
    pub arch: Arch,
    /// Compiler profile priced against.
    pub compiler: Compiler,
    /// Total cycles for one program step ([`CostModel::cycles`]).
    pub total_cycles: u64,
    /// Per-actor attribution, sorted by cycles descending then label.
    pub actors: Vec<ActorCycles>,
    /// Per-region attribution, sorted by region index.
    pub regions: Vec<RegionCycles>,
    /// Per-instruction issue counts and cycles, sorted by name — the
    /// evidence `hcg_isa::CostCalibrator::record` takes.
    pub instrs: Vec<InstrCycles>,
}

/// Profile a program: price every top-level statement and fold the charges
/// by origin actor and region.
pub fn profile(prog: &Program, lib: &CodeLibrary, cost: &CostModel) -> CycleProfile {
    let default_origin = Origin::default();
    let mut by_actor: BTreeMap<&str, (u64, usize)> = BTreeMap::new();
    let mut by_region: BTreeMap<usize, (&str, u64)> = BTreeMap::new();
    let mut total = 0u64;
    for (i, stmt) in prog.body.iter().enumerate() {
        let cycles = cost.stmt_cycles(prog, lib, stmt);
        total += cycles;
        let origin = prog.origins.get(i).unwrap_or(&default_origin);
        let slot = by_actor.entry(origin.label()).or_insert((0, 0));
        slot.0 += cycles;
        slot.1 += 1;
        if let Some(ri) = origin.region {
            let slot = by_region.entry(ri).or_insert((origin.label(), 0));
            slot.1 += cycles;
        }
    }
    let mut actors: Vec<ActorCycles> = by_actor
        .into_iter()
        .map(|(label, (cycles, stmts))| ActorCycles {
            label: label.to_owned(),
            cycles,
            stmts,
        })
        .collect();
    actors.sort_by(|a, b| b.cycles.cmp(&a.cycles).then_with(|| a.label.cmp(&b.label)));
    let regions = by_region
        .into_iter()
        .map(|(index, (actor, cycles))| RegionCycles {
            index,
            actor: actor.to_owned(),
            cycles,
        })
        .collect();
    let mut by_instr: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    collect_instrs(cost, &prog.body, 1, &mut by_instr);
    let instrs = by_instr
        .into_iter()
        .map(|(name, (count, cycles))| InstrCycles {
            name: name.to_owned(),
            count,
            cycles,
        })
        .collect();
    CycleProfile {
        model: prog.name.clone(),
        generator: prog.generator.clone(),
        arch: prog.arch,
        compiler: cost.compiler,
        total_cycles: total,
        actors,
        regions,
        instrs,
    }
}

/// Fold per-instruction issue counts and cycles over a statement block,
/// multiplying loop trip counts through (`mult` is the dynamic repetition
/// of the enclosing loops).
fn collect_instrs<'p>(
    cost: &CostModel,
    stmts: &'p [Stmt],
    mult: u64,
    acc: &mut BTreeMap<&'p str, (u64, u64)>,
) {
    for s in stmts {
        match s {
            Stmt::Loop {
                start,
                end,
                step,
                body,
            } => {
                let trips = if end > start {
                    (end - start).div_ceil(*step)
                } else {
                    0
                } as u64;
                collect_instrs(cost, body, mult * trips, acc);
            }
            Stmt::VOp {
                instr,
                cost: c,
                srcs,
                ..
            } => {
                let slot = acc.entry(instr.as_str()).or_insert((0, 0));
                slot.0 += mult;
                slot.1 += mult * cost.vop_cycles(*c, srcs.len());
            }
            _ => {}
        }
    }
}

impl CycleProfile {
    /// Sum of per-actor attributed cycles — equal to [`Self::total_cycles`]
    /// by construction (the conservation property).
    pub fn attributed_cycles(&self) -> u64 {
        self.actors.iter().map(|a| a.cycles).sum()
    }

    /// Render the top-`n` hot-spot table as text.
    pub fn render(&self, top_n: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} / {} on {}+{}: {} cycles/step",
            self.model, self.generator, self.arch, self.compiler, self.total_cycles
        );
        for a in self.actors.iter().take(top_n) {
            let pct = if self.total_cycles > 0 {
                100.0 * a.cycles as f64 / self.total_cycles as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {:>12} cy  {:>5.1}%  {:>3} stmt  {}",
                a.cycles, pct, a.stmts, a.label
            );
        }
        if self.actors.len() > top_n {
            let _ = writeln!(out, "  … {} more actors", self.actors.len() - top_n);
        }
        for r in &self.regions {
            let _ = writeln!(
                out,
                "  region #{:<3} {:>12} cy  {}",
                r.index, r.cycles, r.actor
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{BufferKind, ElemRef, IndexExpr, ScalarOp, Stmt};
    use hcg_model::{op::ElemOp, DataType, SignalType};

    fn two_actor_prog() -> Program {
        let ty = SignalType::vector(DataType::I32, 8);
        let mut p = Program::new("m", "test", Arch::Neon128);
        let a = p.add_buffer("a", ty, BufferKind::Input, None);
        let o = p.add_buffer("o", ty, BufferKind::Output, None);
        let unary = |buf_dst, buf_src| Stmt::Loop {
            start: 0,
            end: 8,
            step: 1,
            body: vec![Stmt::Scalar {
                op: ScalarOp::Elem(ElemOp::Abs),
                dst: ElemRef {
                    buf: buf_dst,
                    index: IndexExpr::Loop(0),
                },
                srcs: vec![ElemRef {
                    buf: buf_src,
                    index: IndexExpr::Loop(0),
                }],
            }],
        };
        p.body.push(unary(o, a));
        p.body.push(unary(o, a));
        p.body.push(Stmt::Copy { dst: o, src: a });
        p.origins = vec![
            Origin::region("Abs1", 0),
            Origin::actor("Abs2"),
            Origin::default(),
        ];
        p
    }

    #[test]
    fn attribution_conserves_total_cycles() {
        let p = two_actor_prog();
        let lib = CodeLibrary::new();
        for cm in crate::cost::paper_platforms() {
            let prof = profile(&p, &lib, &cm);
            assert_eq!(prof.total_cycles, cm.cycles(&p, &lib));
            assert_eq!(prof.attributed_cycles(), prof.total_cycles);
        }
    }

    #[test]
    fn actors_sorted_and_unattributed_labelled() {
        let p = two_actor_prog();
        let lib = CodeLibrary::new();
        let cm = CostModel::new(Arch::Neon128, Compiler::GccLike);
        let prof = profile(&p, &lib, &cm);
        assert_eq!(prof.actors.len(), 3);
        assert!(prof.actors.windows(2).all(|w| w[0].cycles >= w[1].cycles));
        assert!(prof.actors.iter().any(|a| a.label == "(unattributed)"));
        assert_eq!(prof.regions.len(), 1);
        assert_eq!(prof.regions[0].actor, "Abs1");
    }

    #[test]
    fn missing_origins_attribute_everything_to_unattributed() {
        let mut p = two_actor_prog();
        p.origins.clear();
        let lib = CodeLibrary::new();
        let cm = CostModel::new(Arch::Avx256, Compiler::ClangLike);
        let prof = profile(&p, &lib, &cm);
        assert_eq!(prof.actors.len(), 1);
        assert_eq!(prof.actors[0].label, "(unattributed)");
        assert_eq!(prof.attributed_cycles(), prof.total_cycles);
    }

    #[test]
    fn instr_stats_multiply_loop_trips_and_share_vop_pricing() {
        let mut p = Program::new("i", "test", Arch::Neon128);
        let r = p.add_reg(DataType::I32, 4);
        p.body.push(Stmt::Loop {
            start: 0,
            end: 8,
            step: 4,
            body: vec![Stmt::VOp {
                instr: "vmlaq_s32".into(),
                pattern: "Add(I1, Mul(I2, I3))".parse().unwrap(),
                cost: 2,
                dst: r,
                srcs: vec![r, r, r],
                code: String::new(),
            }],
        });
        let lib = CodeLibrary::new();
        let cm = CostModel::new(Arch::Neon128, Compiler::GccLike);
        let prof = profile(&p, &lib, &cm);
        assert_eq!(
            prof.instrs,
            vec![InstrCycles {
                name: "vmlaq_s32".to_owned(),
                count: 2,
                cycles: 4,
            }]
        );
        // With fused latency the per-instruction charge tracks vop_cycles.
        let fused = cm.with_fused_latency(3);
        let prof2 = profile(&p, &lib, &fused);
        assert_eq!(prof2.instrs[0].cycles, 10);
    }

    #[test]
    fn render_is_stable() {
        let p = two_actor_prog();
        let lib = CodeLibrary::new();
        let cm = CostModel::new(Arch::Neon128, Compiler::GccLike);
        let prof = profile(&p, &lib, &cm);
        let table = prof.render(2);
        assert!(table.contains("cycles/step"));
        assert!(table.contains("… 1 more actors"));
    }
}
