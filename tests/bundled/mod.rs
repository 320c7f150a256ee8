//! The bundled programs: every model shipped with the repository, compiled
//! by each generator for each architecture. Shared by the C-text golden
//! digest (`c_text_golden.rs`) and the emit allocation tests
//! (`emit_allocs.rs`).

use hcg::fuzz::oracle::{generator_named, ORACLE_GENERATORS};
use hcg::fuzz::{case_seed, generate_model, GenConfig};
use hcg::isa::Arch;
use hcg::model::library;
use hcg::model::parser::model_from_xml;
use hcg::model::Model;
use hcg::vm::Program;
use std::path::Path;

/// Cases of the fuzz smoke stage in `scripts/check.sh`
/// (`repro -- fuzz --seed 0 --iters 50`).
const FUZZ_SMOKE_ITERS: usize = 50;

/// Every bundled model, labelled, in a fixed order: `examples/models/*.xml`
/// (sorted by file name), the paper's six benchmarks from
/// `hcg_model::library`, the fuzz smoke stage's seed-0 cases, then the
/// committed fuzz repro corpus.
pub fn bundled_models() -> Vec<(String, Model)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/models");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("examples/models is readable")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "xml"))
        .collect();
    files.sort();
    let mut out: Vec<(String, Model)> = files
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).expect("example model is readable");
            let model = model_from_xml(&text).expect("example model parses");
            let file = p.file_name().expect("file name").to_string_lossy();
            (format!("examples/models/{file}"), model)
        })
        .collect();
    out.extend(
        library::paper_benchmarks()
            .into_iter()
            .map(|m| (format!("library::{}", m.name), m)),
    );
    let gen = GenConfig::default();
    out.extend((0..FUZZ_SMOKE_ITERS).map(|i| {
        let seed = case_seed(0, i);
        (format!("fuzz seed 0 case {i}"), generate_model(seed, &gen))
    }));
    let corpus = hcg::fuzz::corpus::load_corpus(&hcg::fuzz::corpus::corpus_dir())
        .expect("committed fuzz corpus loads");
    out.extend(corpus.into_iter().map(|(f, m)| (format!("corpus {f}"), m)));
    out
}

/// Every bundled model × {`hcg`, `simulink-coder`, `dfsynth`} × every
/// [`Arch`], labelled `model / generator / arch`.
///
/// # Panics
///
/// When any generator rejects a bundled model.
pub fn bundled_programs() -> Vec<(String, Program)> {
    let mut out = Vec::new();
    for (label, model) in bundled_models() {
        for g in ORACLE_GENERATORS {
            let generator = generator_named(g);
            for arch in Arch::ALL {
                let label = format!("{label} / {g} / {arch}");
                let prog = generator
                    .generate(&model, arch)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                out.push((label, prog));
            }
        }
    }
    out
}
