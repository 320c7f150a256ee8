//! Every program any generator emits must pass the VM's static validator —
//! on the benchmark suite, the extended models, and random models.

use hcg::baselines::{DfSynthGen, SimulinkCoderGen};
use hcg::core::{CodeGenerator, HcgGen};
use hcg::isa::Arch;
use hcg::kernels::CodeLibrary;
use hcg::model::library;
use hcg::vm::validate_all;
use proptest::prelude::*;

fn generators() -> Vec<Box<dyn CodeGenerator>> {
    vec![
        Box::new(SimulinkCoderGen::new()),
        Box::new(DfSynthGen::new()),
        Box::new(HcgGen::new()),
    ]
}

#[test]
fn benchmark_programs_validate() {
    let lib = CodeLibrary::new();
    let models = library::paper_benchmarks()
        .into_iter()
        .chain([
            library::fig2_model(),
            library::fig4_model(),
            library::dct2d_model(8, 8),
            library::fft2d_model(4, 8),
            library::conv2d_model(8, 8, 3, 3),
            library::matrix_pipeline_model(3),
            library::switch_model(64),
            library::mixed_width_model(40),
            library::single_batch_model(1024),
        ])
        .collect::<Vec<_>>();
    for model in &models {
        for arch in Arch::ALL {
            for g in generators() {
                let p = g.generate(model, arch).expect("generates");
                let defects = validate_all(&p, &lib);
                assert!(
                    defects.is_empty(),
                    "{} for {} on {arch}: {defects:?}",
                    g.name(),
                    model.name
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn random_programs_validate(
        seed in 1u64..10_000,
        len in 1usize..50,
        actors in 1usize..14,
        arch_pick in 0usize..3,
    ) {
        let lib = CodeLibrary::new();
        let model = library::random_batch_model(seed, len, actors);
        let arch = Arch::ALL[arch_pick];
        for g in generators() {
            let p = g.generate(&model, arch).expect("generates");
            let defects = validate_all(&p, &lib);
            prop_assert!(
                defects.is_empty(),
                "{} seed={seed} len={len} actors={actors} arch={arch}: {defects:?}",
                g.name()
            );
        }
    }

    /// Awkward lengths around the lane boundaries never produce
    /// out-of-range vector accesses.
    #[test]
    fn lane_boundary_lengths_validate(len in 1usize..40) {
        let lib = CodeLibrary::new();
        let model = library::fig4_model_sized(len);
        for arch in Arch::ALL {
            for g in generators() {
                let p = g.generate(&model, arch).expect("generates");
                prop_assert!(validate_all(&p, &lib).is_empty(), "{} len={len} {arch}", g.name());
            }
        }
    }
}
