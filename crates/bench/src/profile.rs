//! The `repro -- profile` experiment: drive the evaluation matrix through
//! the VM execution profiler and render per-actor / per-region cycle
//! breakdowns.
//!
//! Each `model × generator × architecture` cell compiles through a shared
//! [`CompileSession`] (front-end artifacts computed once per model) and is
//! priced with the GCC-like cost model; [`hcg_vm::profile`] then attributes
//! every top-level statement's cycles to the source actor and mapped SIMD
//! region recorded at emit time. Attribution is conservative by
//! construction — per-actor sums equal the VM's total charged cycles — and
//! the `profile_conservation` integration test pins that for every example
//! model.

use crate::experiments::{benchmark_sessions, short_name};
use crate::fleet::{generator_named, FLEET_ARCHES, FLEET_GENERATORS};
use hcg_kernels::CodeLibrary;
use hcg_obs::json;
use hcg_vm::{profile, Compiler, CostModel, CycleProfile};

/// One profiled cell of the `model × generator × arch` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileEntry {
    /// Benchmark short name (the row label).
    pub model: String,
    /// The per-actor / per-region cycle breakdown.
    pub profile: CycleProfile,
}

/// Profile the full evaluation matrix (paper benchmarks × the three
/// generators × the two evaluation ISAs, GCC-like compiler profile).
///
/// `filter`, when given, keeps only the model whose short name or full
/// name matches case-insensitively — the `--model` flag.
pub fn profile_matrix(filter: Option<&str>) -> Vec<ProfileEntry> {
    let lib = CodeLibrary::new();
    let mut out = Vec::new();
    for session in &benchmark_sessions() {
        let name = short_name(session.model());
        if let Some(f) = filter {
            let matches =
                name.eq_ignore_ascii_case(f) || session.model().name.eq_ignore_ascii_case(f);
            if !matches {
                continue;
            }
        }
        for generator in FLEET_GENERATORS {
            for arch in FLEET_ARCHES {
                let gen = generator_named(generator);
                let prog = session
                    .generate(gen.as_ref(), arch)
                    .unwrap_or_else(|e| panic!("{generator} on {name}: {e}"));
                let cm = CostModel::new(arch, Compiler::GccLike);
                out.push(ProfileEntry {
                    model: name.clone(),
                    profile: profile(&prog, &lib, &cm),
                });
            }
        }
    }
    out
}

/// Deterministic JSON over a profiled matrix: one object per cell, in
/// matrix order, each rendered as [`cycle_profile_json`] renders it.
pub fn profile_json(entries: &[ProfileEntry]) -> String {
    let mut out = String::new();
    json::object(&mut out, |o| {
        o.field("experiment", "profile")
            .field("compiler", "gcc")
            .array("entries", |a| {
                for e in entries {
                    a.object(|o| write_cycle_profile(o, &e.profile));
                }
            });
    });
    out
}

/// One profile as a deterministic JSON object (sorted structure, no
/// timestamps).
pub fn cycle_profile_json(p: &CycleProfile) -> String {
    let mut out = String::new();
    json::object(&mut out, |o| write_cycle_profile(o, p));
    out
}

fn write_cycle_profile(o: &mut json::Object<'_>, p: &CycleProfile) {
    o.field("model", &p.model)
        .field("generator", &p.generator)
        .field("arch", p.arch.to_string())
        .field("compiler", p.compiler.to_string())
        .field("total_cycles", p.total_cycles)
        .array("actors", |a| {
            for actor in &p.actors {
                a.object(|o| {
                    o.field("actor", &actor.label)
                        .field("cycles", actor.cycles)
                        .field("stmts", actor.stmts);
                });
            }
        })
        .array("regions", |a| {
            for r in &p.regions {
                a.object(|o| {
                    o.field("index", r.index)
                        .field("actor", &r.actor)
                        .field("cycles", r.cycles);
                });
            }
        })
        .array("instrs", |a| {
            for i in &p.instrs {
                a.object(|o| {
                    o.field("name", &i.name)
                        .field("count", i.count)
                        .field("cycles", i.cycles);
                });
            }
        });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_selects_one_model() {
        let all = profile_matrix(Some("fir"));
        assert!(!all.is_empty());
        assert!(all.iter().all(|e| e.model == "FIR"));
        assert_eq!(
            all.len(),
            FLEET_GENERATORS.len() * FLEET_ARCHES.len(),
            "one cell per generator × arch"
        );
        assert!(profile_matrix(Some("no-such-model")).is_empty());
    }

    #[test]
    fn intensive_kernels_carry_region_provenance() {
        // DCT_1024 is all-intensive under hcg (one kernel call, no batch
        // regions); the kernel call must still be attributed to a region
        // instead of silently profiling as `"regions": []`.
        let entries = profile_matrix(Some("DCT"));
        let hcg: Vec<_> = entries
            .iter()
            .filter(|e| e.profile.generator == "hcg")
            .collect();
        assert!(!hcg.is_empty());
        for e in hcg {
            assert!(
                !e.profile.regions.is_empty(),
                "hcg DCT profile lost its intensive-kernel region provenance"
            );
            assert!(e.profile.regions.iter().any(|r| r.actor == "dct"));
        }
        // Scalar baselines have no SIMD regions — stays empty by design.
        for e in entries
            .iter()
            .filter(|e| e.profile.generator == "simulink-coder")
        {
            assert!(e.profile.regions.is_empty());
        }
    }

    #[test]
    fn entries_conserve_cycles_and_json_validates() {
        let entries = profile_matrix(Some("FIR"));
        for e in &entries {
            assert_eq!(e.profile.attributed_cycles(), e.profile.total_cycles);
            assert!(e.profile.total_cycles > 0);
        }
        let json = profile_json(&entries);
        assert!(hcg_obs::json::validate(&json).is_ok(), "{json}");
        assert_eq!(json, profile_json(&profile_matrix(Some("FIR"))));
        assert!(cycle_profile_json(&entries[0].profile).contains("\"total_cycles\""));
        let one_instr = CycleProfile {
            instrs: vec![hcg_vm::InstrCycles {
                name: "vmlaq_s32".to_owned(),
                count: 2,
                cycles: 4,
            }],
            ..entries[0].profile.clone()
        };
        assert!(cycle_profile_json(&one_instr)
            .contains("\"instrs\": [{\"name\": \"vmlaq_s32\", \"count\": 2, \"cycles\": 4}]"));
    }
}
