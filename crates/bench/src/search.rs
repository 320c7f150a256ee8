//! The `repro -- search` experiment: greedy vs beam-search region mapping
//! with profile-guided cost calibration, plus the semantic gate.
//!
//! The full loop (`--beam W --calibrate`):
//!
//! 1. compile every paper benchmark with the greedy mapper and profile it
//!    on the calibration platform model — the GCC-like table with
//!    [`CALIBRATION_FUSED_LATENCY`] extra cycles on fused (≥ 3-source)
//!    SIMD ops, modelling an in-order core serialising a
//!    multiply-accumulate on its accumulator chain;
//! 2. record each profile's per-instruction issue counts and cycles in
//!    [`hcg_isa::CostCalibrator`] and derive the calibrated cost overlay;
//! 3. re-map every benchmark with [`MappingStrategy::Beam`] over the
//!    overlaid instruction set and compare modeled total cycles — the
//!    beam splits fusions the calibrated table now prices above their
//!    single-op sequences, while greedy's structure-driven largest-first
//!    selection keeps them;
//! 4. gate semantics: every beam-mapped program of `cases` seeded fuzz
//!    models must be value-equivalent to the model reference on the VM
//!    and prove under `hcg_verify`.
//!
//! Without `--calibrate` the beam scores with the builtin tables, where
//! greedy is already optimal on this vocabulary — rows tie by design (the
//! beam seeds its incumbent with the greedy plan and only replaces it on
//! strict improvement).

use crate::fleet::FLEET_ARCHES;
use hcg_core::{CodeGenerator, HcgGen, HcgOptions, MappingStrategy, Reference};
use hcg_fuzz::case_seed;
use hcg_fuzz::gen::{generate_model, GenConfig};
use hcg_fuzz::oracle::random_inputs;
use hcg_isa::{sets, Arch, CostCalibrator, CostOverlay};
use hcg_kernels::CodeLibrary;
use hcg_model::library;
use hcg_obs::json;
use hcg_vm::{profile, Compiler, CostModel, Machine};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Extra per-issue cycles the calibration platform charges fused SIMD
/// operations. With the builtin tables (fused ops cost 2, their split
/// pairs 1 + 1) this prices observed fusion at 4 — strictly above the
/// split sequence — which is exactly the regime where search beats greedy.
pub const CALIBRATION_FUSED_LATENCY: u64 = 2;

/// VM steps run per gate case for the value-equivalence side.
const GATE_STEPS: usize = 2;

/// One `model × arch` comparison row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchRow {
    /// Benchmark model name (full, e.g. `FIR_1024t4`).
    pub model: String,
    /// Architecture compiled for.
    pub arch: Arch,
    /// Modeled total cycles of the greedy-mapped program.
    pub greedy_cycles: u64,
    /// Modeled total cycles of the beam-mapped program.
    pub beam_cycles: u64,
}

impl SearchRow {
    /// `true` when the beam strictly reduced modeled cycles.
    pub fn improved(&self) -> bool {
        self.beam_cycles < self.greedy_cycles
    }
}

/// One calibrated cost-table override (a row of the overlay report).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverlayDelta {
    /// Architecture the override applies to.
    pub arch: Arch,
    /// Instruction name.
    pub name: String,
    /// `.isa` table cost.
    pub table_cost: u32,
    /// Calibrated per-issue cost.
    pub calibrated_cost: u32,
}

/// Outcome of the semantic gate over seeded fuzz cases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateSummary {
    /// Seeded fuzz models compiled.
    pub cases: usize,
    /// Beam-mapped programs checked (`cases × arches`).
    pub programs: usize,
    /// Programs `hcg_verify` proved equivalent to their model.
    pub proved: usize,
    /// Programs whose VM outputs diverged from the reference.
    pub equivalence_failures: usize,
}

impl GateSummary {
    /// `true` when every program proved and none diverged.
    pub fn all_proved(&self) -> bool {
        self.proved == self.programs && self.equivalence_failures == 0
    }
}

/// The full `repro -- search` report.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchReport {
    /// Beam width used for the search side.
    pub beam_width: usize,
    /// Whether profile-guided calibration ran.
    pub calibrated: bool,
    /// Fused-op latency of the calibration platform (0 when uncalibrated).
    pub fused_latency: u64,
    /// Calibrated overrides that differ from the table, sorted by
    /// (arch, name).
    pub overlay: Vec<OverlayDelta>,
    /// One row per benchmark `model × arch`.
    pub rows: Vec<SearchRow>,
    /// Semantic-gate outcome.
    pub gate: GateSummary,
}

impl SearchReport {
    /// `model/arch` labels of rows the beam strictly improved.
    pub fn strictly_better(&self) -> Vec<String> {
        self.rows
            .iter()
            .filter(|r| r.improved())
            .map(|r| format!("{}/{}", r.model, r.arch))
            .collect()
    }

    /// Distinct model names the beam strictly improved.
    pub fn improved_models(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self
            .rows
            .iter()
            .filter(|r| r.improved())
            .map(|r| r.model.as_str())
            .collect();
        out.dedup();
        out
    }
}

fn hcg_with(mapping: MappingStrategy, overlay: Option<CostOverlay>) -> HcgGen {
    HcgGen::with_options(HcgOptions {
        mapping,
        cost_overlay: overlay,
        ..HcgOptions::default()
    })
}

/// Profile every greedy-mapped benchmark on the calibration platform and
/// derive the cost overlay — step 1–2 of the loop.
fn calibrate_from_greedy(models: &[hcg_model::Model], fused_latency: u64) -> CostOverlay {
    let lib = CodeLibrary::new();
    let greedy = hcg_with(MappingStrategy::Greedy, None);
    let mut calibrator = CostCalibrator::new();
    for model in models {
        for arch in FLEET_ARCHES {
            let prog = greedy
                .generate(model, arch)
                .unwrap_or_else(|e| panic!("greedy {} on {arch}: {e}", model.name));
            let cm = CostModel::new(arch, Compiler::GccLike).with_fused_latency(fused_latency);
            for i in profile(&prog, &lib, &cm).instrs {
                if i.count > 0 {
                    calibrator.record(arch, &i.name, i.count, i.cycles);
                }
            }
        }
    }
    calibrator.overlay()
}

/// Run the search experiment: compare greedy vs beam modeled cycles on
/// every paper benchmark × evaluation arch, then gate `cases` seeded fuzz
/// models' beam-mapped programs semantically.
pub fn run_search(beam_width: usize, calibrate: bool, seed: u64, cases: usize) -> SearchReport {
    let _span = hcg_obs::span("bench", "search");
    let width = beam_width.max(2);
    let models = library::paper_benchmarks();
    let fused_latency = if calibrate {
        CALIBRATION_FUSED_LATENCY
    } else {
        0
    };
    let overlay = calibrate.then(|| calibrate_from_greedy(&models, fused_latency));

    let mut deltas = Vec::new();
    if let Some(ov) = &overlay {
        for arch in FLEET_ARCHES {
            let set = sets::builtin(arch);
            for (name, table_cost, calibrated_cost) in ov.deltas(&set) {
                deltas.push(OverlayDelta {
                    arch,
                    name,
                    table_cost,
                    calibrated_cost,
                });
            }
        }
    }

    // Evaluation platform: the same model the calibration observed, so the
    // comparison prices greedy's fusions at their observed latency.
    let eval =
        |arch: Arch| CostModel::new(arch, Compiler::GccLike).with_fused_latency(fused_latency);
    let lib = CodeLibrary::new();
    let greedy_gen = hcg_with(MappingStrategy::Greedy, None);
    let beam_gen = hcg_with(MappingStrategy::Beam { width }, overlay.clone());
    let mut rows = Vec::new();
    for model in &models {
        for arch in FLEET_ARCHES {
            let gp = greedy_gen
                .generate(model, arch)
                .unwrap_or_else(|e| panic!("greedy {} on {arch}: {e}", model.name));
            let bp = beam_gen
                .generate(model, arch)
                .unwrap_or_else(|e| panic!("beam {} on {arch}: {e}", model.name));
            rows.push(SearchRow {
                model: model.name.clone(),
                arch,
                greedy_cycles: eval(arch).cycles(&gp, &lib),
                beam_cycles: eval(arch).cycles(&bp, &lib),
            });
        }
    }

    let gate = run_gate(&beam_gen, seed, cases);
    SearchReport {
        beam_width: width,
        calibrated: calibrate,
        fused_latency,
        overlay: deltas,
        rows,
        gate,
    }
}

/// The semantic gate: every beam-mapped program of `cases` seeded fuzz
/// models must prove under `hcg_verify` *and* agree with the model
/// reference on the VM over seeded inputs.
fn run_gate(beam_gen: &HcgGen, seed: u64, cases: usize) -> GateSummary {
    let lib = CodeLibrary::new();
    let (mut programs, mut proved, mut equivalence_failures) = (0usize, 0usize, 0usize);
    for i in 0..cases {
        let model = generate_model(case_seed(seed, i), &GenConfig::default());
        for arch in FLEET_ARCHES {
            let prog = beam_gen
                .generate(&model, arch)
                .unwrap_or_else(|e| panic!("beam gate case {i} on {arch}: {e}"));
            programs += 1;
            match hcg_verify::verify_program(&model, &prog) {
                Ok(outcome) if outcome.equivalent => proved += 1,
                _ => {}
            }
            if !runs_equivalent(&model, &prog, &lib, case_seed(seed, i)) {
                equivalence_failures += 1;
            }
        }
    }
    GateSummary {
        cases,
        programs,
        proved,
        equivalence_failures,
    }
}

/// Execute `prog` against the golden reference for [`GATE_STEPS`] steps of
/// seeded inputs; integers must agree exactly, floats to 1e-9 relative.
fn runs_equivalent(
    model: &hcg_model::Model,
    prog: &hcg_vm::Program,
    lib: &CodeLibrary,
    seed: u64,
) -> bool {
    let Ok(mut reference) = Reference::new(model) else {
        return false;
    };
    let mut machine = Machine::new(prog, lib);
    let Ok(types) = model.infer_types() else {
        return false;
    };
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..GATE_STEPS {
        let inputs = random_inputs(model, &mut rng);
        let Ok(expected) = reference.step(&inputs) else {
            return false;
        };
        for (name, value) in &inputs {
            if machine.set_input(name, value).is_err() {
                return false;
            }
        }
        if machine.step().is_err() {
            return false;
        }
        for (name, want) in &expected {
            let Ok(got) = machine.read_buffer(name) else {
                return false;
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
            let tol = if is_float { 1e-9 } else { 0.0 };
            if diff > tol || !diff.is_finite() {
                return false;
            }
        }
    }
    true
}

/// Deterministic JSON rendering of a search report.
pub fn search_json(report: &SearchReport) -> String {
    let mut out = String::new();
    json::object(&mut out, |o| {
        o.field("experiment", "search")
            .field("beam_width", report.beam_width)
            .field("calibrated", report.calibrated)
            .field("fused_latency", report.fused_latency)
            .array("overlay", |a| {
                for d in &report.overlay {
                    a.object(|o| {
                        o.field("arch", d.arch.to_string())
                            .field("name", &d.name)
                            .field("table_cost", d.table_cost)
                            .field("calibrated_cost", d.calibrated_cost);
                    });
                }
            })
            .array("rows", |a| {
                for r in &report.rows {
                    a.object(|o| {
                        o.field("model", &r.model)
                            .field("arch", r.arch.to_string())
                            .field("greedy_cycles", r.greedy_cycles)
                            .field("beam_cycles", r.beam_cycles)
                            .field("improved", r.improved());
                    });
                }
            })
            .array("beam_strictly_better", |a| {
                for label in report.strictly_better() {
                    a.item(label);
                }
            })
            .object("gate", |o| {
                let g = &report.gate;
                o.field("cases", g.cases)
                    .field("programs", g.programs)
                    .field("proved", g.proved)
                    .field("equivalence_failures", g.equivalence_failures)
                    .field("all_proved", g.all_proved());
            });
    });
    out
}

/// Render the report as the repro binary's text table.
pub fn render_search(report: &SearchReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "search: beam width {} ({}), fused latency {}",
        report.beam_width,
        if report.calibrated {
            "profile-calibrated costs"
        } else {
            "builtin costs"
        },
        report.fused_latency
    );
    for d in &report.overlay {
        let _ = writeln!(
            out,
            "  calibrated {:>18} on {}: {} -> {}",
            d.name, d.arch, d.table_cost, d.calibrated_cost
        );
    }
    for r in &report.rows {
        let _ = writeln!(
            out,
            "  {:>14} on {:<7}  greedy {:>8} cy  beam {:>8} cy  {}",
            r.model,
            r.arch.to_string(),
            r.greedy_cycles,
            r.beam_cycles,
            if r.improved() { "improved" } else { "tied" }
        );
    }
    let _ = writeln!(
        out,
        "  gate: {} cases, {} programs, {} proved, {} equivalence failures ({})",
        report.gate.cases,
        report.gate.programs,
        report.gate.proved,
        report.gate.equivalence_failures,
        if report.gate.all_proved() {
            "all proved"
        } else {
            "FAILED"
        }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncalibrated_search_ties_greedy_everywhere() {
        let r = run_search(4, false, 0, 2);
        assert_eq!(r.fused_latency, 0);
        assert!(r.overlay.is_empty());
        assert!(r.strictly_better().is_empty(), "{:?}", r.strictly_better());
        assert!(r
            .rows
            .iter()
            .all(|row| row.beam_cycles == row.greedy_cycles));
        assert!(r.gate.all_proved(), "{:?}", r.gate);
    }

    #[test]
    fn calibrated_search_strictly_improves_fused_models() {
        let r = run_search(4, true, 0, 2);
        assert!(!r.overlay.is_empty(), "calibration found no overrides");
        // Beam never loses: seeded with the greedy plan, strict
        // improvement only.
        assert!(r
            .rows
            .iter()
            .all(|row| row.beam_cycles <= row.greedy_cycles));
        let improved = r.improved_models();
        assert!(
            improved.contains(&"FIR_1024t4"),
            "FIR must improve: {improved:?}"
        );
        assert!(
            improved
                .iter()
                .any(|m| m.starts_with("LowPass") || m.starts_with("HighPass")),
            "a filter model must improve: {improved:?}"
        );
        assert!(r.gate.all_proved(), "{:?}", r.gate);
    }

    #[test]
    fn search_json_is_stable_and_valid() {
        let a = search_json(&run_search(4, true, 0, 1));
        let b = search_json(&run_search(4, true, 0, 1));
        assert_eq!(a, b);
        assert!(hcg_obs::json::validate(&a).is_ok(), "{a}");
        assert!(a.contains("\"beam_strictly_better\""));
    }
}
