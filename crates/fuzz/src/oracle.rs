//! The differential oracle: every check one fuzz case must pass.
//!
//! A case is one generated model. The oracle compiles it with all three
//! generators across both evaluation architectures, runs every program on
//! the VM against the golden reference with shared seeded inputs, and
//! layers on the metamorphic invariants the repo already promises
//! elsewhere:
//!
//! * **equivalence** — cross-generator numerical agreement, relative-
//!   tolerance-bounded for floats, exact for integers (the VM computes
//!   both sides, so only generator semantics can differ);
//! * **validate** / **lint** — [`hcg_vm::validate_all`] and the analyzer
//!   report no defects on any generated program, and the model itself
//!   lints clean;
//! * **xml-roundtrip** — `parse(emit(model))` reproduces the model and
//!   byte-identical C for every generator × architecture;
//! * **indexed-selection** — the linear reference scan
//!   [`find_instruction_linear`] and the production
//!   [`find_instruction_indexed`] pick the same instruction for every
//!   candidate tree derived from the model's batch actors;
//! * **fleet-identity** — compiling the case's job matrix on 1 thread and
//!   N threads yields byte-identical sources.
//!
//! The oracle never panics: every failure (including a generator error)
//! becomes a [`Divergence`], so the fuzz loop and the shrinker can treat
//! "diverges" as a plain predicate.
//!
//! [`find_instruction_indexed`]: hcg_graph::matching::find_instruction_indexed

use hcg_baselines::{DfSynthGen, SimulinkCoderGen};
use hcg_core::dispatch::{classify_all, Dispatch};
use hcg_core::emit::to_c_source;
use hcg_core::{CodeGenerator, HcgGen, HcgOptions, MappingStrategy, Reference};
use hcg_graph::matching::{find_instruction_indexed, match_pattern, InstrMatch};
use hcg_graph::{DfgInput, ValTree};
use hcg_isa::{sets, Arch, InstrSet, SimdInstr};
use hcg_kernels::CodeLibrary;
use hcg_model::parser::{model_from_xml, model_to_xml};
use hcg_model::{ActorKind, Model, Tensor};
use hcg_vm::{validate_all, Compiler, CostModel, Machine, Program};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Generator short names the oracle drives, in evaluation order (the same
/// vocabulary as the bench fleet).
pub const ORACLE_GENERATORS: [&str; 3] = ["simulink-coder", "dfsynth", "hcg"];

/// Architectures every case is compiled for.
pub const ORACLE_ARCHES: [Arch; 2] = [Arch::Neon128, Arch::Avx256];

/// Construct a generator by short name.
///
/// # Panics
///
/// Panics on an unknown name — the caller controls the vocabulary.
pub fn generator_named(name: &str) -> Box<dyn CodeGenerator> {
    generator_for(name, MappingStrategy::Greedy)
}

/// [`generator_named`] with an explicit region-mapping strategy for the
/// HCG generator (the baselines have no mapping stage and ignore it). The
/// oracle threads one strategy through *every* stage that compiles — the
/// matrix, the XML-roundtrip recompile and the fleet-identity recompile —
/// so byte-identity checks compare like with like.
pub fn generator_for(name: &str, mapping: MappingStrategy) -> Box<dyn CodeGenerator> {
    match name {
        "simulink-coder" => Box::new(SimulinkCoderGen::new()),
        "dfsynth" => Box::new(DfSynthGen::new()),
        "hcg" => Box::new(HcgGen::with_options(HcgOptions {
            mapping,
            ..HcgOptions::default()
        })),
        other => panic!("unknown generator {other:?}"),
    }
}

/// Tunables of one oracle run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleConfig {
    /// VM steps executed per program (state actors need > 1 to matter).
    pub steps: usize,
    /// Seed for the shared random inputs.
    pub input_seed: u64,
    /// Relative tolerance for float outputs (integers must agree exactly;
    /// the generated vocabulary has no reductions, so agreement is tight).
    pub float_tolerance: f64,
    /// Worker count for the N-thread side of the fleet-identity check.
    pub fleet_threads: usize,
    /// Region-mapping strategy for the HCG generator across all stages —
    /// running the oracle with [`MappingStrategy::Beam`] gates the search
    /// path with the full differential battery.
    pub mapping: MappingStrategy,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            steps: 3,
            input_seed: 0x5eed,
            float_tolerance: 1e-9,
            fleet_threads: 4,
            mapping: MappingStrategy::Greedy,
        }
    }
}

/// One failed check. `check` names the oracle stage; `detail` is a
/// deterministic human-readable description (no wall-clock content, so a
/// re-run with the same seed reproduces it byte-for-byte).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Oracle stage that failed (`"compile"`, `"equivalence"`, ...).
    pub check: &'static str,
    /// What diverged, with enough context to triage.
    pub detail: String,
}

/// The oracle's verdict on one case.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// Every failed check, in oracle-stage order. Empty means the case
    /// passed.
    pub divergences: Vec<Divergence>,
    /// Wall-clock per oracle stage, in execution order.
    pub timings: Vec<(&'static str, Duration)>,
}

impl CaseReport {
    /// `true` when no check failed.
    pub fn passed(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// Run `f` as one named oracle stage: open an observability span, time it,
/// append the wall-clock to `timings`.
fn timed<T>(
    name: &'static str,
    timings: &mut Vec<(&'static str, Duration)>,
    f: impl FnOnce() -> T,
) -> T {
    let _span = hcg_obs::span("oracle", name);
    let t0 = Instant::now();
    let out = f();
    timings.push((name, t0.elapsed()));
    out
}

/// Run every oracle check on one model.
pub fn run_case(model: &Model, cfg: &OracleConfig) -> CaseReport {
    let mut divergences = Vec::new();
    let mut timings = Vec::new();
    let lib = CodeLibrary::new();

    // Stage 1: compile the full generator × arch matrix.
    let programs = timed("compile", &mut timings, || {
        compile_matrix(model, cfg.mapping, &mut divergences)
    });

    // Stage 2: cost-model sanity on every program × compiler profile.
    timed("cost", &mut timings, || {
        for ((g, arch), prog) in &programs {
            for compiler in Compiler::ALL {
                let cm = CostModel::new(*arch, compiler);
                let cycles = cm.cycles(prog, &lib);
                let secs = cm.time_seconds(prog, &lib, 1);
                if cycles == 0 || !secs.is_finite() || secs <= 0.0 {
                    divergences.push(Divergence {
                        check: "cost",
                        detail: format!("{g} on {arch}/{compiler}: cycles={cycles} secs={secs}"),
                    });
                }
            }
        }
    });

    // Stage 3: numerical equivalence against the golden reference.
    timed("equivalence", &mut timings, || {
        check_equivalence(model, &programs, &lib, cfg, &mut divergences);
    });

    // Stage 4: validator cleanliness.
    timed("validate", &mut timings, || {
        for ((g, arch), prog) in &programs {
            for d in validate_all(prog, &lib) {
                divergences.push(Divergence {
                    check: "validate",
                    detail: format!("{g} on {arch}: {d}"),
                });
            }
        }
    });

    // Stage 5: lint gates — the model and every program must be
    // error-free under the analyzer.
    timed("lint", &mut timings, || {
        let model_report = hcg_analysis::lint_model(model);
        if model_report.has_errors() {
            divergences.push(Divergence {
                check: "lint-model",
                detail: format!("{} model lint errors", model_report.error_count()),
            });
        }
        for ((g, arch), prog) in &programs {
            let r = hcg_analysis::lint_program(prog, &lib);
            if r.has_errors() {
                divergences.push(Divergence {
                    check: "lint-program",
                    detail: format!("{g} on {arch}: {} lint errors", r.error_count()),
                });
            }
        }
    });

    // Stage 6: XML round-trip is the identity, up to byte-identical C.
    timed("xml-roundtrip", &mut timings, || {
        check_xml_roundtrip(model, &programs, cfg.mapping, &mut divergences);
    });

    // Stage 7: indexed and linear instruction selection agree.
    timed("indexed-selection", &mut timings, || {
        check_indexed_selection(model, &mut divergences);
    });

    // Stage 8: the compile matrix is thread-count invariant.
    timed("fleet-identity", &mut timings, || {
        check_fleet_identity(model, cfg.fleet_threads, cfg.mapping, &mut divergences);
    });

    CaseReport {
        divergences,
        timings,
    }
}

type ProgramMatrix = BTreeMap<(&'static str, Arch), Program>;

fn compile_matrix(
    model: &Model,
    mapping: MappingStrategy,
    divergences: &mut Vec<Divergence>,
) -> ProgramMatrix {
    let mut programs = ProgramMatrix::new();
    for g in ORACLE_GENERATORS {
        let generator = generator_for(g, mapping);
        for arch in ORACLE_ARCHES {
            match generator.generate(model, arch) {
                Ok(p) => {
                    programs.insert((g, arch), p);
                }
                Err(e) => divergences.push(Divergence {
                    check: "compile",
                    detail: format!("{g} on {arch}: {e}"),
                }),
            }
        }
    }
    programs
}

/// Shared seeded inputs for one step, keyed by inport name (the same
/// element ranges as the bench consistency check, kept small so integer
/// chains stay within every dtype).
pub fn random_inputs(model: &Model, rng: &mut StdRng) -> BTreeMap<String, Tensor> {
    let types = model.infer_types().expect("fuzz models are valid");
    let mut out = BTreeMap::new();
    for a in &model.actors {
        if a.kind != ActorKind::Inport {
            continue;
        }
        let ty = types.output(a.id, 0);
        let t = if ty.dtype.is_float() {
            let data: Vec<f64> = (0..ty.len()).map(|_| rng.gen_range(-1.0..1.0)).collect();
            Tensor::from_f64(ty, data).expect("sized")
        } else {
            let data: Vec<i64> = (0..ty.len()).map(|_| rng.gen_range(-100..100)).collect();
            Tensor::from_i64(ty, data).expect("sized")
        };
        out.insert(a.name.clone(), t);
    }
    out
}

fn check_equivalence(
    model: &Model,
    programs: &ProgramMatrix,
    lib: &CodeLibrary,
    cfg: &OracleConfig,
    divergences: &mut Vec<Divergence>,
) {
    let mut reference = match Reference::new(model) {
        Ok(r) => r,
        Err(e) => {
            divergences.push(Divergence {
                check: "equivalence",
                detail: format!("reference construction failed: {e}"),
            });
            return;
        }
    };
    let mut machines: Vec<((&'static str, Arch), Machine<'_>)> = programs
        .iter()
        .map(|(key, p)| (*key, Machine::new(p, lib)))
        .collect();

    let types = model.infer_types().expect("fuzz models are valid");
    let mut rng = StdRng::seed_from_u64(cfg.input_seed);
    for step in 0..cfg.steps {
        let inputs = random_inputs(model, &mut rng);
        let expected = match reference.step(&inputs) {
            Ok(e) => e,
            Err(e) => {
                divergences.push(Divergence {
                    check: "equivalence",
                    detail: format!("reference step {step} failed: {e}"),
                });
                return;
            }
        };
        for ((g, arch), m) in &mut machines {
            for (name, value) in &inputs {
                if let Err(e) = m.set_input(name, value) {
                    divergences.push(Divergence {
                        check: "equivalence",
                        detail: format!("{g} on {arch}: set_input {name}: {e}"),
                    });
                    return;
                }
            }
            if let Err(e) = m.step() {
                divergences.push(Divergence {
                    check: "equivalence",
                    detail: format!("{g} on {arch}: step {step} failed: {e}"),
                });
                return;
            }
            for (name, want) in &expected {
                let got = match m.read_buffer(name) {
                    Ok(t) => t,
                    Err(e) => {
                        divergences.push(Divergence {
                            check: "equivalence",
                            detail: format!("{g} on {arch}: read {name}: {e}"),
                        });
                        continue;
                    }
                };
                let is_float = model
                    .actor_by_name(name)
                    .map(|a| {
                        types
                            .inputs_of(model, a.id)
                            .first()
                            .map(|t| t.dtype.is_float())
                            .unwrap_or(true)
                    })
                    .unwrap_or(true);
                let scale = want.as_f64().iter().fold(1.0f64, |acc, v| acc.max(v.abs()));
                let diff = got.max_abs_diff(want) / scale;
                let tol = if is_float { cfg.float_tolerance } else { 0.0 };
                if diff > tol || !diff.is_finite() {
                    divergences.push(Divergence {
                        check: "equivalence",
                        detail: format!(
                            "{g} on {arch}: outport {name} step {step}: relative diff {diff:e}"
                        ),
                    });
                }
            }
        }
    }
}

fn check_xml_roundtrip(
    model: &Model,
    programs: &ProgramMatrix,
    mapping: MappingStrategy,
    divergences: &mut Vec<Divergence>,
) {
    let xml = model_to_xml(model);
    let parsed = match model_from_xml(&xml) {
        Ok(m) => m,
        Err(e) => {
            divergences.push(Divergence {
                check: "xml-roundtrip",
                detail: format!("parse(emit(model)) failed: {e}"),
            });
            return;
        }
    };
    if parsed != *model {
        divergences.push(Divergence {
            check: "xml-roundtrip",
            detail: "parse(emit(model)) != model".to_owned(),
        });
        return;
    }
    // Byte-identical codegen for the round-tripped model.
    for ((g, arch), original) in programs {
        let prog = match generator_for(g, mapping).generate(&parsed, *arch) {
            Ok(p) => p,
            Err(e) => {
                divergences.push(Divergence {
                    check: "xml-roundtrip",
                    detail: format!("{g} on {arch}: recompile failed: {e}"),
                });
                continue;
            }
        };
        if to_c_source(&prog) != to_c_source(original) {
            divergences.push(Divergence {
                check: "xml-roundtrip",
                detail: format!("{g} on {arch}: C source differs after round-trip"),
            });
        }
    }
}

/// Candidate operand trees derived from the model's batch actors: every
/// batch op as a single-node tree, plus every producer→consumer pair of
/// batch actors as a depth-2 compound (the shapes Algorithm 2 actually
/// matches).
fn candidate_trees(model: &Model) -> Vec<(hcg_model::DataType, ValTree)> {
    let Ok(types) = model.infer_types() else {
        return Vec::new();
    };
    let dispatch = classify_all(model, &types);
    let batch_op = |id: hcg_model::ActorId| match &dispatch[id.0] {
        Dispatch::Batch { op, .. } => Some(*op),
        _ => None,
    };
    let leaves = |op: hcg_model::op::ElemOp, base: usize| -> Vec<ValTree> {
        (0..op.arity())
            .map(|k| ValTree::Leaf(DfgInput::External(base + k)))
            .collect()
    };

    let mut out = Vec::new();
    for a in &model.actors {
        let Some(op) = batch_op(a.id) else { continue };
        let dtype = types.output(a.id, 0).dtype;
        out.push((
            dtype,
            ValTree::Op {
                op,
                args: leaves(op, 0),
            },
        ));
    }
    for c in &model.connections {
        let (Some(inner_op), Some(outer_op)) = (batch_op(c.from.actor), batch_op(c.to.actor))
        else {
            continue;
        };
        let dtype = types.output(c.to.actor, 0).dtype;
        let inner = ValTree::Op {
            op: inner_op,
            args: leaves(inner_op, 0),
        };
        let args: Vec<ValTree> = (0..outer_op.arity())
            .map(|k| {
                if k == c.to.port {
                    inner.clone()
                } else {
                    ValTree::Leaf(DfgInput::External(inner_op.arity() + k))
                }
            })
            .collect();
        out.push((dtype, ValTree::Op { op: outer_op, args }));
    }
    out
}

/// The reference instruction selection (Algorithm 2 line 17) as a linear
/// scan over the whole set: among matching candidates the one with the
/// lowest issue cost wins, ties resolve to file order. The production
/// [`find_instruction_indexed`] must pick the identical instruction.
pub fn find_instruction_linear<'a>(
    set: &'a InstrSet,
    dtype: hcg_model::DataType,
    lanes: usize,
    tree: &ValTree,
) -> Option<(&'a SimdInstr, InstrMatch)> {
    let mut best: Option<(&SimdInstr, InstrMatch)> = None;
    for instr in set.candidates(dtype, lanes) {
        if let Some(m) = match_pattern(&instr.pattern, tree) {
            if best.as_ref().is_none_or(|(b, _)| instr.cost < b.cost) {
                best = Some((instr, m));
            }
        }
    }
    best
}

fn check_indexed_selection(model: &Model, divergences: &mut Vec<Divergence>) {
    let trees = candidate_trees(model);
    for arch in ORACLE_ARCHES {
        let (set, index) = sets::builtin_indexed(arch);
        for (dtype, tree) in &trees {
            let lanes = arch.lanes(*dtype);
            let linear = find_instruction_linear(set, *dtype, lanes, tree);
            let indexed = find_instruction_indexed(set, index, *dtype, lanes, tree);
            // `SimdInstr`/`InstrMatch` carry no `PartialEq`; the Debug
            // rendering is total over both, so it is the identity witness.
            let l = format!("{linear:?}");
            let i = format!("{indexed:?}");
            if l != i {
                divergences.push(Divergence {
                    check: "indexed-selection",
                    detail: format!("{arch} {dtype:?} {tree}: linear={l} indexed={i}"),
                });
            }
        }
    }
}

fn check_fleet_identity(
    model: &Model,
    threads: usize,
    mapping: MappingStrategy,
    divergences: &mut Vec<Divergence>,
) {
    let sources = |workers: usize| -> Vec<Result<String, String>> {
        let jobs: Vec<_> = ORACLE_GENERATORS
            .iter()
            .flat_map(|g| ORACLE_ARCHES.iter().map(move |arch| (*g, *arch)))
            .map(|(g, arch)| {
                move || match generator_for(g, mapping).generate(model, arch) {
                    Ok(p) => to_c_source(&p),
                    Err(e) => format!("compile error: {e}"),
                }
            })
            .collect();
        hcg_exec::run_jobs(workers, jobs)
            .into_iter()
            .map(|r| r.map_err(|p| p.to_string()))
            .collect()
    };
    let one = sources(1);
    let many = sources(threads.max(2));
    if one != many {
        divergences.push(Divergence {
            check: "fleet-identity",
            detail: format!("1-thread vs {}-thread sources differ", threads.max(2)),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_model, GenConfig};

    #[test]
    fn generated_models_pass_all_checks() {
        let cfg = OracleConfig::default();
        for seed in 0..12 {
            let m = generate_model(seed, &GenConfig::default());
            let r = run_case(&m, &cfg);
            assert!(r.passed(), "seed {seed} diverged: {:?}", r.divergences);
        }
    }

    #[test]
    fn library_models_pass_all_checks() {
        let cfg = OracleConfig::default();
        for m in [
            hcg_model::library::fig4_model(),
            hcg_model::library::fir_model(64, 4),
        ] {
            let r = run_case(&m, &cfg);
            assert!(r.passed(), "{} diverged: {:?}", m.name, r.divergences);
        }
    }

    #[test]
    fn beam_mapping_passes_all_checks() {
        let cfg = OracleConfig {
            mapping: MappingStrategy::Beam { width: 4 },
            ..OracleConfig::default()
        };
        for seed in 0..6 {
            let m = generate_model(seed, &GenConfig::default());
            let r = run_case(&m, &cfg);
            assert!(r.passed(), "seed {seed} diverged: {:?}", r.divergences);
        }
        let fir = hcg_model::library::fir_model(64, 4);
        let r = run_case(&fir, &cfg);
        assert!(r.passed(), "fir diverged: {:?}", r.divergences);
    }

    #[test]
    fn oracle_is_deterministic() {
        let cfg = OracleConfig::default();
        let m = generate_model(3, &GenConfig::default());
        let a = run_case(&m, &cfg);
        let b = run_case(&m, &cfg);
        assert_eq!(a.divergences, b.divergences);
    }

    #[test]
    fn stage_order_is_stable() {
        let m = generate_model(0, &GenConfig::default());
        let r = run_case(&m, &OracleConfig::default());
        let stages: Vec<&str> = r.timings.iter().map(|(s, _)| *s).collect();
        assert_eq!(
            stages,
            [
                "compile",
                "cost",
                "equivalence",
                "validate",
                "lint",
                "xml-roundtrip",
                "indexed-selection",
                "fleet-identity"
            ]
        );
    }
}
