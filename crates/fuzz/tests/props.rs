//! Property tests over generator-produced models: the XML round trip is
//! the identity, both on the model itself and — the stronger claim — on
//! the C source every generator emits for it. A golden digest pins the
//! bytes `model_to_xml` writes.

use hcg_core::emit::to_c_source;
use hcg_fuzz::gen::{generate_model, GenConfig};
use hcg_fuzz::oracle::{generator_named, ORACLE_GENERATORS};
use hcg_fuzz::report::fnv1a;
use hcg_isa::Arch;
use hcg_model::parser::{model_from_xml, model_to_xml};
use hcg_model::{library, Model, Param};
use proptest::prelude::*;

/// FNV-1a digest of the `model_to_xml` text of every model in
/// [`pinned_models`], folded in order, as the element-tree writer that
/// preceded the direct writer produced it.
const MODEL_XML_DIGEST: u64 = 0xb44c_218c_d8b6_59bd;

/// Every library model, 1,000 seeded generated models, and library models
/// renamed to names that need escaping or are not ASCII, plus an empty
/// model and an empty param text (both written self-closing).
fn pinned_models() -> Vec<Model> {
    let mut models = library::paper_benchmarks();
    models.extend([
        library::fig2_model(),
        library::fig4_model(),
        library::fig4_model_sized(64),
        library::single_batch_model(16),
        library::random_batch_model(7, 32, 6),
        library::dct2d_model(8, 8),
        library::fft2d_model(8, 8),
        library::conv2d_model(8, 8, 3, 3),
        library::matrix_pipeline_model(4),
        library::switch_model(256),
        library::mixed_width_model(256),
    ]);
    models.extend((0..1_000).map(|seed| generate_model(seed, &GenConfig::default())));
    let names = [
        "<>&\"'",
        "a b  c",
        "héllo — 世界",
        " <tag attr='v'> & \"q\" ",
    ];
    for (i, name) in names.into_iter().enumerate() {
        let mut m = library::fig2_model();
        m.name = name.to_owned();
        for a in &mut m.actors {
            a.name = format!("{name}{}", a.id.0 + i);
        }
        models.push(m);
    }
    let mut m = library::fig4_model();
    let params = &mut m.actors[0].params;
    params.insert("note".to_owned(), Param::Str(String::new()));
    params.insert(
        "text".to_owned(),
        Param::Str("x < y && \"z\" — ü".to_owned()),
    );
    models.push(m);
    let mut empty = library::fig2_model();
    (empty.name, empty.actors, empty.connections) = (String::new(), Vec::new(), Vec::new());
    models.push(empty);
    models
}

#[test]
fn model_xml_bytes_are_pinned() {
    let digest = pinned_models()
        .iter()
        .fold(0, |d, m| fnv1a(model_to_xml(m).as_bytes(), d));
    assert_eq!(
        digest, MODEL_XML_DIGEST,
        "model_to_xml output moved: got {digest:#018x}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// parse(emit(model)) reproduces the model exactly.
    #[test]
    fn model_xml_roundtrip(seed in 0u64..5000) {
        let m = generate_model(seed, &GenConfig::default());
        let back = model_from_xml(&model_to_xml(&m)).expect("emitted XML parses");
        prop_assert_eq!(back, m);
    }

    /// Emitting twice yields identical bytes (the emitter has no hidden
    /// state or ordering nondeterminism).
    #[test]
    fn model_xml_emit_is_stable(seed in 0u64..5000) {
        let m = generate_model(seed, &GenConfig::default());
        prop_assert_eq!(model_to_xml(&m), model_to_xml(&m));
    }

    /// The round-tripped model compiles to byte-identical C through all
    /// three generators.
    #[test]
    fn roundtrip_codegen_is_byte_identical(seed in 0u64..2000) {
        let m = generate_model(seed, &GenConfig::default());
        let back = model_from_xml(&model_to_xml(&m)).expect("parses");
        for g in ORACLE_GENERATORS {
            let direct = generator_named(g)
                .generate(&m, Arch::Neon128)
                .expect("generated models compile");
            let via_xml = generator_named(g)
                .generate(&back, Arch::Neon128)
                .expect("round-tripped models compile");
            prop_assert_eq!(
                to_c_source(&direct),
                to_c_source(&via_xml),
                "generator {} diverged after XML round-trip on seed {}",
                g,
                seed
            );
        }
    }

    /// Generator configs with tighter bounds still only produce valid,
    /// schedulable models (the bounds are respected, not just usually met).
    #[test]
    fn bounded_configs_stay_valid(seed in 0u64..3000, max_ops in 1usize..8, lanes in 2usize..16) {
        let cfg = GenConfig { max_ops, max_lanes: lanes, ..GenConfig::default() };
        let m = generate_model(seed, &cfg);
        m.infer_types().expect("types resolve");
        hcg_model::schedule::schedule(&m).expect("schedules");
        let non_port = m.actors.iter()
            .filter(|a| !matches!(a.kind, hcg_model::ActorKind::Inport | hcg_model::ActorKind::Outport))
            .count();
        prop_assert!(non_port <= max_ops);
    }
}
