//! Golden digests of the emitted C text.
//!
//! FNV-1a over `to_c_source` of every bundled program (see
//! `bundled/mod.rs`) and of 300 more generated models, each under every
//! generator and target, including sse128, which no benchmark workload
//! emits; plus a literal table of every vector load and store spelling. A
//! change to the emitter's output moves a digest; a refactor of the
//! emitter must not.

mod bundled;

use hcg::core::emit::to_c_source;
use hcg::fuzz::oracle::{generator_named, ORACLE_GENERATORS};
use hcg::fuzz::report::fnv1a;
use hcg::fuzz::{case_seed, generate_model, GenConfig};
use hcg::isa::Arch;
use hcg::model::{DataType, SignalType};
use hcg::vm::{BufferKind, IndexExpr, Program, Stmt};

/// The digest of the C text of every bundled program.
const GOLDEN: u64 = 0x9965_b886_9483_2acb;

#[test]
fn c_text_of_every_bundled_program_matches_the_golden_digest() {
    let programs = bundled::bundled_programs();
    let digest = programs.iter().fold(0, |h, (label, prog)| {
        fnv1a(to_c_source(prog).as_bytes(), fnv1a(label.as_bytes(), h))
    });
    assert_eq!(
        digest,
        GOLDEN,
        "C text digest of {} programs moved",
        programs.len()
    );
}

/// The digest of the C text of every program of the seeded fuzz stream.
const FUZZ_GOLDEN: u64 = 0xe824_a74b_c677_698c;

/// Models drawn from `generate_model`'s seed-1 stream, disjoint from the
/// 50 seed-0 cases bundled above.
const FUZZ_MODELS: usize = 300;

/// FNV-1a over the C text of `FUZZ_MODELS` generated models × every oracle
/// generator × every [`Arch`]: the generated models reach scalar `Clamp`,
/// `Cast`, `Min` and `Max` lines and tail loops over many more dtype and
/// length combinations than the bundled cases (`Select` lines come from
/// the bundled `switch.xml`).
#[test]
fn c_text_of_generated_models_matches_the_golden_digest() {
    let cfg = GenConfig::default();
    let mut digest = 0;
    let mut programs = 0;
    for i in 0..FUZZ_MODELS {
        let model = generate_model(case_seed(1, i), &cfg);
        for g in ORACLE_GENERATORS {
            let generator = generator_named(g);
            for arch in Arch::ALL {
                let label = format!("{} / {g} / {arch}", model.name);
                let prog = generator
                    .generate(&model, arch)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                digest = fnv1a(
                    to_c_source(&prog).as_bytes(),
                    fnv1a(label.as_bytes(), digest),
                );
                programs += 1;
            }
        }
    }
    assert_eq!(
        digest, FUZZ_GOLDEN,
        "C text digest of {programs} programs moved"
    );
}

/// One vector load and one vector store of every element type on every
/// target, including pairs no bundled program reaches (`u64` on sse128):
/// the vector type and the intrinsic spelling of each.
#[test]
fn every_vector_load_and_store_is_spelled_as_its_target_spells_it() {
    let mut lines = Vec::new();
    for arch in Arch::ALL {
        let mut prog = Program::new("spelling", "test", arch);
        for dtype in DataType::ALL {
            let ty = SignalType::vector(dtype, 2 * arch.lanes(dtype));
            let src = prog.add_buffer(format!("x_{dtype}"), ty, BufferKind::Input, None);
            let dst = prog.add_buffer(format!("y_{dtype}"), ty, BufferKind::Output, None);
            let reg = prog.add_reg(dtype, arch.lanes(dtype));
            let index = IndexExpr::Loop(1);
            prog.body.push(Stmt::VLoad {
                reg,
                buf: src,
                index,
            });
            prog.body.push(Stmt::VStore {
                buf: dst,
                index,
                reg,
            });
        }
        let text = to_c_source(&prog);
        let body = text.split_once("{\n").expect("step function").1;
        lines.extend(
            body.lines()
                .filter(|l| *l != "}")
                .map(|l| format!("{arch}: {}", l.trim())),
        );
    }
    assert_eq!(lines, SPELLINGS);
}

/// Every line of the step function above, prefixed by its target.
const SPELLINGS: [&str; 60] = [
    "neon128: int8x16_t r0 = vld1q_s8(&x_i8[i + 1]);",
    "neon128: vst1q_s8(&y_i8[i + 1], r0);",
    "neon128: int16x8_t r1 = vld1q_s16(&x_i16[i + 1]);",
    "neon128: vst1q_s16(&y_i16[i + 1], r1);",
    "neon128: int32x4_t r2 = vld1q_s32(&x_i32[i + 1]);",
    "neon128: vst1q_s32(&y_i32[i + 1], r2);",
    "neon128: int64x2_t r3 = vld1q_s64(&x_i64[i + 1]);",
    "neon128: vst1q_s64(&y_i64[i + 1], r3);",
    "neon128: uint8x16_t r4 = vld1q_u8(&x_u8[i + 1]);",
    "neon128: vst1q_u8(&y_u8[i + 1], r4);",
    "neon128: uint16x8_t r5 = vld1q_u16(&x_u16[i + 1]);",
    "neon128: vst1q_u16(&y_u16[i + 1], r5);",
    "neon128: uint32x4_t r6 = vld1q_u32(&x_u32[i + 1]);",
    "neon128: vst1q_u32(&y_u32[i + 1], r6);",
    "neon128: uint64x2_t r7 = vld1q_u64(&x_u64[i + 1]);",
    "neon128: vst1q_u64(&y_u64[i + 1], r7);",
    "neon128: float32x4_t r8 = vld1q_f32(&x_f32[i + 1]);",
    "neon128: vst1q_f32(&y_f32[i + 1], r8);",
    "neon128: float64x2_t r9 = vld1q_f64(&x_f64[i + 1]);",
    "neon128: vst1q_f64(&y_f64[i + 1], r9);",
    "sse128: __m128i r0 = _mm_loadu_si128((const __m128i*)&x_i8[i + 1]);",
    "sse128: _mm_storeu_si128((__m128i*)&y_i8[i + 1], r0);",
    "sse128: __m128i r1 = _mm_loadu_si128((const __m128i*)&x_i16[i + 1]);",
    "sse128: _mm_storeu_si128((__m128i*)&y_i16[i + 1], r1);",
    "sse128: __m128i r2 = _mm_loadu_si128((const __m128i*)&x_i32[i + 1]);",
    "sse128: _mm_storeu_si128((__m128i*)&y_i32[i + 1], r2);",
    "sse128: __m128i r3 = _mm_loadu_si128((const __m128i*)&x_i64[i + 1]);",
    "sse128: _mm_storeu_si128((__m128i*)&y_i64[i + 1], r3);",
    "sse128: __m128i r4 = _mm_loadu_si128((const __m128i*)&x_u8[i + 1]);",
    "sse128: _mm_storeu_si128((__m128i*)&y_u8[i + 1], r4);",
    "sse128: __m128i r5 = _mm_loadu_si128((const __m128i*)&x_u16[i + 1]);",
    "sse128: _mm_storeu_si128((__m128i*)&y_u16[i + 1], r5);",
    "sse128: __m128i r6 = _mm_loadu_si128((const __m128i*)&x_u32[i + 1]);",
    "sse128: _mm_storeu_si128((__m128i*)&y_u32[i + 1], r6);",
    "sse128: __m128i r7 = _mm_loadu_si128((const __m128i*)&x_u64[i + 1]);",
    "sse128: _mm_storeu_si128((__m128i*)&y_u64[i + 1], r7);",
    "sse128: __m128 r8 = _mm_loadu_ps(&x_f32[i + 1]);",
    "sse128: _mm_storeu_ps(&y_f32[i + 1], r8);",
    "sse128: __m128d r9 = _mm_loadu_pd(&x_f64[i + 1]);",
    "sse128: _mm_storeu_pd(&y_f64[i + 1], r9);",
    "avx256: __m256i r0 = _mm256_loadu_si256((const __m256i*)&x_i8[i + 1]);",
    "avx256: _mm256_storeu_si256((__m256i*)&y_i8[i + 1], r0);",
    "avx256: __m256i r1 = _mm256_loadu_si256((const __m256i*)&x_i16[i + 1]);",
    "avx256: _mm256_storeu_si256((__m256i*)&y_i16[i + 1], r1);",
    "avx256: __m256i r2 = _mm256_loadu_si256((const __m256i*)&x_i32[i + 1]);",
    "avx256: _mm256_storeu_si256((__m256i*)&y_i32[i + 1], r2);",
    "avx256: __m256i r3 = _mm256_loadu_si256((const __m256i*)&x_i64[i + 1]);",
    "avx256: _mm256_storeu_si256((__m256i*)&y_i64[i + 1], r3);",
    "avx256: __m256i r4 = _mm256_loadu_si256((const __m256i*)&x_u8[i + 1]);",
    "avx256: _mm256_storeu_si256((__m256i*)&y_u8[i + 1], r4);",
    "avx256: __m256i r5 = _mm256_loadu_si256((const __m256i*)&x_u16[i + 1]);",
    "avx256: _mm256_storeu_si256((__m256i*)&y_u16[i + 1], r5);",
    "avx256: __m256i r6 = _mm256_loadu_si256((const __m256i*)&x_u32[i + 1]);",
    "avx256: _mm256_storeu_si256((__m256i*)&y_u32[i + 1], r6);",
    "avx256: __m256i r7 = _mm256_loadu_si256((const __m256i*)&x_u64[i + 1]);",
    "avx256: _mm256_storeu_si256((__m256i*)&y_u64[i + 1], r7);",
    "avx256: __m256 r8 = _mm256_loadu_ps(&x_f32[i + 1]);",
    "avx256: _mm256_storeu_ps(&y_f32[i + 1], r8);",
    "avx256: __m256d r9 = _mm256_loadu_pd(&x_f64[i + 1]);",
    "avx256: _mm256_storeu_pd(&y_f64[i + 1], r9);",
];
