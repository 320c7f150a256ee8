//! Cross-crate checks for the staged pipeline: one [`CompileSession`]
//! driving every generator × architecture combination must produce programs
//! byte-identical to independent `generate()` calls, while computing the
//! front-end artifacts (type map, schedule) exactly once per model.

use hcg_baselines::{DfSynthGen, SimulinkCoderGen};
use hcg_core::emit::to_c_source;
use hcg_core::{CodeGenerator, CompileSession, HcgGen};
use hcg_isa::Arch;
use hcg_model::library;

const ARCHES: [Arch; 2] = [Arch::Neon128, Arch::Avx256];

fn test_models() -> Vec<hcg_model::Model> {
    vec![
        library::fig4_model(),
        library::lowpass_model(256),
        library::fft_model(256),
    ]
}

/// One session, 3 generators × 2 arches, versus six fully independent
/// `generate()` calls: the programs must match byte for byte (both the
/// in-memory form and the rendered C source).
#[test]
fn session_programs_are_byte_identical_to_direct_generation() {
    for model in test_models() {
        let session = CompileSession::new(model.clone());
        let coder = SimulinkCoderGen::new();
        let dfsynth = DfSynthGen::new();
        let hcg = HcgGen::new();
        let session_gens: [&dyn CodeGenerator; 3] = [&coder, &dfsynth, &hcg];
        for g in session_gens {
            for arch in ARCHES {
                let via_session = session.generate(g, arch).expect("session generates");
                // Fresh generator instances on the independent side: HcgGen's
                // Algorithm-1 history carries across generate calls, so a
                // shared instance would not be an independent run.
                let direct: Box<dyn CodeGenerator> = match g.name() {
                    "simulink-coder" => Box::new(SimulinkCoderGen::new()),
                    "dfsynth" => Box::new(DfSynthGen::new()),
                    _ => Box::new(HcgGen::new()),
                };
                let standalone = direct.generate(&model, arch).expect("direct generates");
                assert_eq!(
                    via_session,
                    standalone,
                    "{} on {arch} for {}: session and direct programs differ",
                    g.name(),
                    model.name
                );
                assert_eq!(
                    to_c_source(&via_session),
                    to_c_source(&standalone),
                    "{} on {arch} for {}: rendered C differs",
                    g.name(),
                    model.name
                );
            }
        }
    }
}

/// The front-end artifacts are computed exactly once per session no matter
/// how many generator × arch pipelines run (counters are thread-local, so
/// parallel test threads don't interfere).
#[test]
fn front_end_computed_exactly_once_per_session() {
    let session = CompileSession::new(library::fig4_model());
    let t0 = hcg_model::stats::type_inference_runs();
    let s0 = hcg_model::stats::schedule_runs();

    let coder = SimulinkCoderGen::new();
    let dfsynth = DfSynthGen::new();
    let hcg = HcgGen::new();
    let gens: [&dyn CodeGenerator; 3] = [&coder, &dfsynth, &hcg];
    for g in gens {
        for arch in ARCHES {
            session.generate(g, arch).expect("generates");
        }
    }

    assert_eq!(
        hcg_model::stats::type_inference_runs() - t0,
        1,
        "type inference must run once for six pipelines"
    );
    assert_eq!(
        hcg_model::stats::schedule_runs() - s0,
        1,
        "scheduling must run once for six pipelines"
    );
}

/// Stage reports carry the paper's pipeline structure and plausible
/// counters: HCG on the Figure 4 model forms one region and selects the
/// three instructions of Listing 1.
#[test]
fn stage_report_matches_figure4_walkthrough() {
    let session = CompileSession::new(library::fig4_model());
    let hcg = HcgGen::new();
    let (prog, report) = session
        .generate_with_report(&hcg, Arch::Neon128)
        .expect("generates");

    let names: Vec<&str> = report.stages.iter().map(|s| s.name).collect();
    assert_eq!(
        names,
        [
            "dispatch",
            "region-formation",
            "instruction-mapping",
            "compose"
        ]
    );
    let totals = report.totals();
    assert_eq!(totals.regions_formed, 1, "Fig. 4 has one batch region");
    assert_eq!(
        totals.instructions_selected, 3,
        "Listing 1 is three SIMD instructions"
    );
    assert_eq!(prog.stmt_stats().vops, 3);
    // Each count is attributed to the stage that did the work.
    for stage in &report.stages {
        let c = stage.counters;
        assert_eq!(
            c.actors_dispatched > 0,
            stage.name == "dispatch",
            "{}: actors_dispatched = {}",
            stage.name,
            c.actors_dispatched
        );
        assert_eq!(
            c.regions_formed,
            u64::from(stage.name == "region-formation"),
            "{}: regions_formed",
            stage.name
        );
        assert_eq!(
            c.instructions_selected,
            3 * u64::from(stage.name == "instruction-mapping"),
            "{}: instructions_selected",
            stage.name
        );
    }
    // Every stage recorded a lint verdict in debug builds; the rendered
    // table mentions each stage by name.
    let table = report.render();
    for name in names {
        assert!(table.contains(name), "render() must list stage {name}");
    }
}

/// The stage list each generator reports, in order.
fn expected_stages(generator: &str) -> &'static [&'static str] {
    match generator {
        "hcg" => &[
            "dispatch",
            "region-formation",
            "instruction-mapping",
            "compose",
        ],
        "simulink-coder" => &["dispatch", "lower", "compose", "fold"],
        "dfsynth" => &["dispatch", "lower", "compose"],
        other => panic!("unknown generator {other}"),
    }
}

/// A fresh instance of the generator named `name`: HcgGen's Algorithm-1
/// history carries across generate calls, so each driver gets its own.
fn fresh(name: &str) -> Box<dyn CodeGenerator> {
    match name {
        "simulink-coder" => Box::new(SimulinkCoderGen::new()),
        "dfsynth" => Box::new(DfSynthGen::new()),
        _ => Box::new(HcgGen::new()),
    }
}

/// Every driver runs the same stages: for each generator × arch × the six
/// paper models plus Figures 2 and 4, the standalone and session reports
/// name the same stages in the same order with the same per-stage
/// counters and statement deltas, and an `EditSession` compile yields the
/// session's program.
#[test]
fn every_driver_reports_the_same_stages() {
    let mut models = library::paper_benchmarks();
    models.push(library::fig2_model());
    models.push(library::fig4_model());
    for model in models {
        let session = CompileSession::new(model.clone());
        for name in ["hcg", "simulink-coder", "dfsynth"] {
            for arch in ARCHES {
                let label = format!("{name} on {arch} for {}", model.name);
                let (direct, direct_report) = fresh(name)
                    .generate_with_report(&model, arch)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                let (via_session, session_report) = session
                    .generate_with_report(fresh(name).as_ref(), arch)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                for report in [&direct_report, &session_report] {
                    let names: Vec<&str> = report.stages.iter().map(|s| s.name).collect();
                    assert_eq!(names, expected_stages(name), "{label}");
                    assert_eq!(report.generator, name, "{label}");
                    assert_eq!(report.model, model.name, "{label}");
                    assert_eq!(report.arch, arch, "{label}");
                }
                for (d, s) in direct_report.stages.iter().zip(&session_report.stages) {
                    assert_eq!(d.counters, s.counters, "{label}: {} counters", d.name);
                    assert_eq!(d.stmts_emitted, s.stmts_emitted, "{label}: {}", d.name);
                }
                assert_eq!(
                    direct_report.stages[0].counters.actors_dispatched,
                    model.actors.len() as u64,
                    "{label}: dispatch counts every actor"
                );
                assert_eq!(direct, via_session, "{label}: standalone vs session");
                let edited = hcg_core::EditSession::new(model.clone())
                    .generate(fresh(name).as_ref(), arch)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                assert_eq!(edited, via_session, "{label}: edit session vs session");
            }
        }
    }
}

/// With tracing on, one HCG compile records one `pipeline` span and one
/// `pass` span per stage, named `hcg/<stage>` — the categories
/// `repro -- profile` counts.
#[test]
fn traced_generate_records_pipeline_and_pass_spans() {
    const TRACE_ID: u64 = 0x5ea_c0de;
    let model = library::fig4_model();
    let hcg = HcgGen::new();
    hcg_obs::set_tracing(true);
    {
        let _scope = hcg_obs::trace_scope(hcg_obs::TraceContext {
            trace_id: TRACE_ID,
            parent: 0,
        });
        hcg.generate(&model, Arch::Neon128).expect("generates");
    }
    hcg_obs::set_tracing(false);
    let events: Vec<_> = hcg_obs::take_events()
        .into_iter()
        .filter(|e| e.trace_id == TRACE_ID)
        .collect();
    let pipelines: Vec<&str> = events
        .iter()
        .filter(|e| e.cat == "pipeline")
        .map(|e| e.name.as_str())
        .collect();
    assert_eq!(pipelines, [format!("hcg/{}@{}", model.name, Arch::Neon128)]);
    let passes: Vec<&str> = events
        .iter()
        .filter(|e| e.cat == "pass")
        .map(|e| e.name.as_str())
        .collect();
    let expected: Vec<String> = expected_stages("hcg")
        .iter()
        .map(|s| format!("hcg/{s}"))
        .collect();
    assert_eq!(passes, expected);
}
