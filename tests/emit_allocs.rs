//! `to_c_source` renders a program into one buffer: at most two allocations
//! per program (the buffer, and one growth if its size estimate was short),
//! whatever the generator or architecture, and a buffer not much larger
//! than the text it holds (the compile service caches it as is).
//! `model_to_xml` measures a model's file text first, so it makes exactly
//! one allocation of exactly the text's length, however many actors,
//! params and connections the model has. Counted by a global allocator, so
//! the checks are deterministic and gate in `cargo test`.

mod bundled;
mod counting;

use counting::allocs_of;
use hcg::core::emit::to_c_source;
use hcg::model::library;
use hcg::model::parser::model_to_xml;

#[test]
fn to_c_source_makes_at_most_two_allocations_per_program() {
    for (label, prog) in &bundled::bundled_programs() {
        let (text, allocs) = allocs_of(|| to_c_source(prog));
        assert!(allocs <= 2, "{label}: {allocs} allocations");
        assert!(
            2 * text.capacity() <= 3 * text.len(),
            "{label}: {} bytes reserved for {}",
            text.capacity(),
            text.len()
        );
    }
}

#[test]
fn model_to_xml_makes_one_allocation_per_model() {
    let mut models = bundled::bundled_models();
    models.extend(
        [
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
        ]
        .map(|m| (format!("library::{}", m.name), m)),
    );
    for (label, model) in &models {
        let (text, allocs) = allocs_of(|| model_to_xml(model));
        assert_eq!(allocs, 1, "{label}: {allocs} allocations");
        assert_eq!(text.capacity(), text.len(), "{label}");
    }
}
