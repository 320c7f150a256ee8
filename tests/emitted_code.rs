//! Golden checks on the emitted C-like source: the paper's Figure 2 code
//! comparison and Listing 1 are regenerated verbatim-modulo-naming.

use hcg::baselines::{DfSynthGen, SimulinkCoderGen};
use hcg::core::{emit::to_c_source, CodeGenerator, HcgGen};
use hcg::isa::Arch;
use hcg::model::library;

#[test]
fn figure2_coder_code_shape() {
    // Paper: "It contains four multiplications, four additions and four
    // reciprocal" — fully unrolled by expression folding.
    let p = SimulinkCoderGen::new()
        .generate(&library::fig2_model(), Arch::Neon128)
        .expect("generates");
    let src = to_c_source(&p);
    assert_eq!(src.matches(" * ").count(), 4, "{src}");
    assert_eq!(src.matches(" + ").count(), 4, "{src}");
    assert_eq!(src.matches("1.0f / ").count(), 4, "{src}");
    assert!(
        !src.contains("for ("),
        "expression folding unrolls 4-wide arrays:\n{src}"
    );
}

#[test]
fn figure2_hcg_code_shape() {
    // Paper: "only two operations are required" (multiply-add and
    // reciprocal) — we emit vmla + vrecpe, plus loads/stores.
    let p = HcgGen::new()
        .generate(&library::fig2_model(), Arch::Neon128)
        .expect("generates");
    let src = to_c_source(&p);
    assert!(src.contains("vmlaq_f32"), "{src}");
    assert!(src.contains("vrecpeq_f32"), "{src}");
    assert_eq!(p.stmt_stats().vops, 2, "{src}");
}

#[test]
fn listing1_full_text() {
    let p = HcgGen::new()
        .generate(&library::fig4_model(), Arch::Neon128)
        .expect("generates");
    let src = to_c_source(&p);
    // Every line of the paper's Listing 1, in order.
    let expected = [
        "int32x4_t b_batch = vld1q_s32(&b[0]);",
        "int32x4_t c_batch = vld1q_s32(&c[0]);",
        "int32x4_t a_batch = vld1q_s32(&a[0]);",
        "int32x4_t d_batch = vld1q_s32(&d[0]);",
        "int32x4_t Sub_batch = vsubq_s32(b_batch, c_batch);",
        "int32x4_t Shr_batch = vhaddq_s32(a_batch, Sub_batch);",
        "int32x4_t AddM_batch = vmlaq_s32(Sub_batch, Sub_batch, d_batch);",
        "vst1q_s32(&Shr_out[0], Shr_batch);",
        "vst1q_s32(&Add_out[0], AddM_batch);",
    ];
    let mut cursor = 0;
    for line in &expected {
        let pos = src[cursor..]
            .find(line)
            .unwrap_or_else(|| panic!("missing or out of order: {line}\n{src}"));
        cursor += pos + line.len();
    }
}

#[test]
fn dfsynth_emits_structured_loops() {
    let p = DfSynthGen::new()
        .generate(&library::fig4_model_sized(64), Arch::Neon128)
        .expect("generates");
    let src = to_c_source(&p);
    assert_eq!(
        src.matches("for (size_t i = 0; i < 64; i += 1)").count(),
        5,
        "one structured loop per batch actor:\n{src}"
    );
    assert!(!src.contains("vld1q"), "DFSynth never vectorises");
}

#[test]
fn intel_emission_spellings() {
    let p = HcgGen::new()
        .generate(&library::fig4_model_sized(64), Arch::Sse128)
        .expect("generates");
    let src = to_c_source(&p);
    assert!(src.contains("__m128i"), "{src}");
    assert!(src.contains("_mm_loadu_si128"), "{src}");
    assert!(src.contains("_mm_storeu_si128"), "{src}");
    // SSE has no vhadd/vmla: Shr and Mul map individually.
    assert!(src.contains("_mm_srai_epi32"), "{src}");
    assert!(src.contains("_mm_mullo_epi32"), "{src}");
}

#[test]
fn avx_float_fma_selected() {
    let p = HcgGen::new()
        .generate(&library::lowpass_model(64), Arch::Avx256)
        .expect("generates");
    let src = to_c_source(&p);
    assert!(
        src.contains("_mm256_fmadd_ps"),
        "AVX fuses the Mul+Add:\n{src}"
    );
}

#[test]
fn remainder_prologue_renders_before_loop() {
    let p = HcgGen::new()
        .generate(&library::fig4_model_sized(10), Arch::Neon128)
        .expect("generates");
    let src = to_c_source(&p);
    let loop_pos = src
        .find("for (size_t i = 2; i < 10; i += 4)")
        .expect("offset loop");
    let remainder_pos = src.find("Sub[0] = b[0] - c[0];").expect("scalar remainder");
    assert!(
        remainder_pos < loop_pos,
        "remainder code precedes the SIMD loop (Algorithm 2 line 27):\n{src}"
    );
}

#[test]
fn derived_buffer_names_are_distinct_under_every_generator() {
    use hcg::model::{ActorKind, DataType, ModelBuilder, SignalType};
    // A `Gain` named `k` next to an actor `k_gain`, and a swapping delay
    // pair whose latch shadow `z_next` meets an actor of that name.
    let ty = SignalType::vector(DataType::F32, 8);
    let mut b = ModelBuilder::new("derived");
    let x = b.inport("x", ty);
    let k = b.gain("k", 3.0);
    let kg = b.add_actor("k_gain", ActorKind::Neg);
    let o = b.outport("o");
    b.connect(x, 0, k, 0);
    b.connect(k, 0, kg, 0);
    b.connect(kg, 0, o, 0);
    let z = b.unit_delay("z", Some(ty));
    let w = b.unit_delay("w", Some(ty));
    let zn = b.add_actor("z_next", ActorKind::Add);
    let o2 = b.outport("o2");
    b.connect(w, 0, z, 0);
    b.connect(z, 0, w, 0);
    b.connect(z, 0, zn, 0);
    b.connect(kg, 0, zn, 1);
    b.connect(zn, 0, o2, 0);
    let model = b.build().expect("valid model");
    for generator in hcg::baselines::all_generators() {
        for arch in Arch::ALL {
            let p = generator.generate(&model, arch).expect("generates");
            let names: Vec<&str> = p.buffers.iter().map(|b| b.name.as_str()).collect();
            let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
            assert_eq!(
                unique.len(),
                names.len(),
                "{} on {arch}: {names:?}",
                generator.name()
            );
        }
    }
}

#[test]
fn one_element_copies_are_assignments_under_every_generator() {
    use hcg::model::{DataType, ModelBuilder, SignalType};
    // Inport i32*1 -> UnitDelay -> Outport: the delay latch and the
    // Outport copy both move one element, which `memcpy` with `sizeof`
    // of a scalar would pass as a pointer.
    let mut b = ModelBuilder::new("scalar_delay");
    let x = b.inport("x", SignalType::scalar(DataType::I32));
    let z = b.unit_delay("z", None);
    let y = b.outport("y");
    b.connect(x, 0, z, 0);
    b.connect(z, 0, y, 0);
    let model = b.build().expect("valid model");
    for generator in hcg::baselines::all_generators() {
        for arch in Arch::ALL {
            let src = to_c_source(&generator.generate(&model, arch).expect("generates"));
            let ok = !src.contains("memcpy") && src.contains("  y = z;\n");
            assert!(ok, "{} on {arch}:\n{src}", generator.name());
        }
    }
}
