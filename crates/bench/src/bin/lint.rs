//! `lint` — run the `hcg-analysis` static analyzer on model files and on
//! the programs every generator produces from them.
//!
//! ```text
//! cargo run -p hcg-bench --bin lint -- model.xml [more.xml ...]
//! cargo run -p hcg-bench --bin lint -- --models-only model.xml
//! cargo run -p hcg-bench --bin lint -- --dump-examples examples/models
//! ```
//!
//! For each model file the tool prints the model-lint report; when the
//! model is clean it then generates code with HCG, the Simulink-Coder-like
//! baseline and the DFSynth-like baseline for every architecture and prints
//! each program's lint report. The exit status is non-zero when any report
//! contains error-severity diagnostics.

use hcg_analysis::{format_reports, lint_model_file_with_model, lint_program, LintReport};
use hcg_baselines::{DfSynthGen, SimulinkCoderGen};
use hcg_core::{CodeGenerator, HcgGen};
use hcg_isa::Arch;
use hcg_kernels::CodeLibrary;
use hcg_model::library;
use hcg_model::parser::model_to_xml;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: lint [--models-only] <model.xml>...");
        eprintln!("       lint --dump-examples <dir>");
        std::process::exit(2);
    }
    if args[0] == "--dump-examples" {
        let dir = args.get(1).map(String::as_str).unwrap_or("examples/models");
        dump_examples(dir);
        return;
    }
    let models_only = args.iter().any(|a| a == "--models-only");
    let files: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let mut failed = false;
    for path in files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("lint: cannot read {path}: {e}");
                failed = true;
                continue;
            }
        };
        let (report, model) = lint_model_file_with_model(&text);
        failed |= print_report(&report);
        if report.has_errors() || models_only {
            continue;
        }
        let model = model.expect("a report without errors comes with its model");
        let lib = CodeLibrary::new();
        let generators: Vec<Box<dyn CodeGenerator>> = vec![
            Box::new(HcgGen::new()),
            Box::new(SimulinkCoderGen::new()),
            Box::new(DfSynthGen::new()),
        ];
        for generator in &generators {
            for arch in Arch::ALL {
                match generator.generate(&model, arch) {
                    Ok(prog) => failed |= print_report(&lint_program(&prog, &lib)),
                    Err(e) => {
                        eprintln!(
                            "lint: {} on {arch} failed to generate: {e}",
                            generator.name()
                        );
                        failed = true;
                    }
                }
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Print a report through the shared diagnostics formatter; returns true
/// when it contains errors.
fn print_report(report: &LintReport) -> bool {
    let (text, has_errors) = format_reports([report]);
    print!("{text}");
    has_errors
}

/// Write the bundled library models out as XML files, so the lint gate (and
/// users) have on-disk example inputs.
fn dump_examples(dir: &str) {
    std::fs::create_dir_all(dir).expect("create example dir");
    for model in library::paper_benchmarks() {
        let path = format!("{dir}/{}.xml", model.name);
        std::fs::write(&path, model_to_xml(&model)).expect("write example model");
        println!("wrote {path}");
    }
    for (name, model) in [
        ("fig2", library::fig2_model()),
        ("fig4", library::fig4_model()),
        ("switch", library::switch_model(256)),
        ("mixed_width", library::mixed_width_model(256)),
    ] {
        let path = format!("{dir}/{name}.xml");
        std::fs::write(&path, model_to_xml(&model)).expect("write example model");
        println!("wrote {path}");
    }
}
