//! Target architecture descriptions: vector register width and the textual
//! spelling of vector types, loads and stores used when rendering generated
//! code (paper §3.3: only the instruction-set file changes per target).

use hcg_model::DataType;
use std::fmt;
use std::str::FromStr;

/// A SIMD target architecture.
///
/// The paper evaluates ARM (NEON, 128-bit) and Intel (SSE/AVX). `Sse128`
/// and `Avx256` model the Intel target with the two vector widths Simulink
/// Coder and HCG emit for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Arch {
    /// ARM NEON, 128-bit vector registers (`int32x4_t`, `vaddq_s32`, …).
    Neon128,
    /// Intel SSE4, 128-bit vector registers (`__m128i`, `_mm_add_epi32`, …).
    Sse128,
    /// Intel AVX2, 256-bit vector registers (`__m256i`, `_mm256_add_epi32`,
    /// …) with FMA.
    Avx256,
}

impl Arch {
    /// All architectures with built-in instruction sets.
    pub const ALL: [Arch; 3] = [Arch::Neon128, Arch::Sse128, Arch::Avx256];

    /// Vector register width in bits (the `VectorWidth` input of paper
    /// Algorithm 2).
    pub const fn vector_bits(self) -> u32 {
        match self {
            Arch::Neon128 | Arch::Sse128 => 128,
            Arch::Avx256 => 256,
        }
    }

    /// Lanes of the given element type per vector register (the `BatchSize`
    /// of Algorithm 2 line 1).
    pub const fn lanes(self, dtype: DataType) -> usize {
        (self.vector_bits() / dtype.bit_width()) as usize
    }

    /// Canonical lowercase name (`neon128`, `sse128`, `avx256`).
    pub const fn name(self) -> &'static str {
        match self {
            Arch::Neon128 => "neon128",
            Arch::Sse128 => "sse128",
            Arch::Avx256 => "avx256",
        }
    }

    /// The C spelling of the vector register type holding `dtype` lanes.
    pub const fn vector_type(self, dtype: DataType) -> &'static str {
        use DataType::*;
        match (self, dtype) {
            (Arch::Neon128, I8) => "int8x16_t",
            (Arch::Neon128, I16) => "int16x8_t",
            (Arch::Neon128, I32) => "int32x4_t",
            (Arch::Neon128, I64) => "int64x2_t",
            (Arch::Neon128, U8) => "uint8x16_t",
            (Arch::Neon128, U16) => "uint16x8_t",
            (Arch::Neon128, U32) => "uint32x4_t",
            (Arch::Neon128, U64) => "uint64x2_t",
            (Arch::Neon128, F32) => "float32x4_t",
            (Arch::Neon128, F64) => "float64x2_t",
            (Arch::Sse128, F32) => "__m128",
            (Arch::Sse128, F64) => "__m128d",
            (Arch::Sse128, _) => "__m128i",
            (Arch::Avx256, F32) => "__m256",
            (Arch::Avx256, F64) => "__m256d",
            (Arch::Avx256, _) => "__m256i",
        }
    }

    /// The C call that loads one vector register, up to its pointer
    /// argument (`vld1q_s32(`, `_mm_loadu_si128((const __m128i*)`): the
    /// load from `&x[i]` is this, then `&x[i])`.
    pub const fn load_call(self, dtype: DataType) -> &'static str {
        use DataType::*;
        match (self, dtype) {
            (Arch::Neon128, I8) => "vld1q_s8(",
            (Arch::Neon128, I16) => "vld1q_s16(",
            (Arch::Neon128, I32) => "vld1q_s32(",
            (Arch::Neon128, I64) => "vld1q_s64(",
            (Arch::Neon128, U8) => "vld1q_u8(",
            (Arch::Neon128, U16) => "vld1q_u16(",
            (Arch::Neon128, U32) => "vld1q_u32(",
            (Arch::Neon128, U64) => "vld1q_u64(",
            (Arch::Neon128, F32) => "vld1q_f32(",
            (Arch::Neon128, F64) => "vld1q_f64(",
            (Arch::Sse128, F32) => "_mm_loadu_ps(",
            (Arch::Sse128, F64) => "_mm_loadu_pd(",
            (Arch::Sse128, _) => "_mm_loadu_si128((const __m128i*)",
            (Arch::Avx256, F32) => "_mm256_loadu_ps(",
            (Arch::Avx256, F64) => "_mm256_loadu_pd(",
            (Arch::Avx256, _) => "_mm256_loadu_si256((const __m256i*)",
        }
    }

    /// The C call that stores one vector register, up to its pointer
    /// argument (`vst1q_s32(`, `_mm_storeu_si128((__m128i*)`): the store of
    /// `v` to `&x[i]` is this, then `&x[i], v);`.
    pub const fn store_call(self, dtype: DataType) -> &'static str {
        use DataType::*;
        match (self, dtype) {
            (Arch::Neon128, I8) => "vst1q_s8(",
            (Arch::Neon128, I16) => "vst1q_s16(",
            (Arch::Neon128, I32) => "vst1q_s32(",
            (Arch::Neon128, I64) => "vst1q_s64(",
            (Arch::Neon128, U8) => "vst1q_u8(",
            (Arch::Neon128, U16) => "vst1q_u16(",
            (Arch::Neon128, U32) => "vst1q_u32(",
            (Arch::Neon128, U64) => "vst1q_u64(",
            (Arch::Neon128, F32) => "vst1q_f32(",
            (Arch::Neon128, F64) => "vst1q_f64(",
            (Arch::Sse128, F32) => "_mm_storeu_ps(",
            (Arch::Sse128, F64) => "_mm_storeu_pd(",
            (Arch::Sse128, _) => "_mm_storeu_si128((__m128i*)",
            (Arch::Avx256, F32) => "_mm256_storeu_ps(",
            (Arch::Avx256, F64) => "_mm256_storeu_pd(",
            (Arch::Avx256, _) => "_mm256_storeu_si256((__m256i*)",
        }
    }

    /// The C scalar element type name (`int32_t`, `float`, …), shared by all
    /// generators when emitting scalar code.
    pub fn c_scalar_type(dtype: DataType) -> &'static str {
        match dtype {
            DataType::I8 => "int8_t",
            DataType::I16 => "int16_t",
            DataType::I32 => "int32_t",
            DataType::I64 => "int64_t",
            DataType::U8 => "uint8_t",
            DataType::U16 => "uint16_t",
            DataType::U32 => "uint32_t",
            DataType::U64 => "uint64_t",
            DataType::F32 => "float",
            DataType::F64 => "double",
        }
    }
}

impl fmt::Display for Arch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error parsing an [`Arch`] name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseArchError(pub String);

impl fmt::Display for ParseArchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown architecture: {:?}", self.0)
    }
}

impl std::error::Error for ParseArchError {}

impl FromStr for Arch {
    type Err = ParseArchError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Arch::ALL
            .iter()
            .copied()
            .find(|a| a.name() == s)
            .ok_or_else(|| ParseArchError(s.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_counts() {
        assert_eq!(Arch::Neon128.lanes(DataType::I32), 4);
        assert_eq!(Arch::Neon128.lanes(DataType::I8), 16);
        assert_eq!(Arch::Avx256.lanes(DataType::F32), 8);
        assert_eq!(Arch::Avx256.lanes(DataType::F64), 4);
        assert_eq!(Arch::Sse128.lanes(DataType::F64), 2);
    }

    #[test]
    fn neon_type_names() {
        assert_eq!(Arch::Neon128.vector_type(DataType::I32), "int32x4_t");
        assert_eq!(Arch::Neon128.vector_type(DataType::F32), "float32x4_t");
        assert_eq!(Arch::Neon128.vector_type(DataType::U8), "uint8x16_t");
    }

    #[test]
    fn intel_type_names() {
        assert_eq!(Arch::Sse128.vector_type(DataType::I32), "__m128i");
        assert_eq!(Arch::Avx256.vector_type(DataType::F32), "__m256");
        assert_eq!(Arch::Avx256.vector_type(DataType::F64), "__m256d");
    }

    #[test]
    fn load_store_spelling() {
        let load = |a: Arch, d| a.load_call(d);
        let store = |a: Arch, d| a.store_call(d);
        assert_eq!(load(Arch::Neon128, DataType::I32), "vld1q_s32(");
        assert_eq!(store(Arch::Neon128, DataType::F32), "vst1q_f32(");
        assert_eq!(load(Arch::Sse128, DataType::F32), "_mm_loadu_ps(");
        assert_eq!(load(Arch::Sse128, DataType::F64), "_mm_loadu_pd(");
        assert_eq!(
            load(Arch::Sse128, DataType::I16),
            "_mm_loadu_si128((const __m128i*)"
        );
        assert_eq!(store(Arch::Sse128, DataType::F64), "_mm_storeu_pd(");
        assert_eq!(
            store(Arch::Sse128, DataType::I32),
            "_mm_storeu_si128((__m128i*)"
        );
        assert_eq!(
            load(Arch::Avx256, DataType::U8),
            "_mm256_loadu_si256((const __m256i*)"
        );
        assert_eq!(store(Arch::Avx256, DataType::F32), "_mm256_storeu_ps(");
    }

    #[test]
    fn name_roundtrip() {
        for a in Arch::ALL {
            assert_eq!(a.name().parse::<Arch>().unwrap(), a);
        }
        assert!("mips".parse::<Arch>().is_err());
    }
}
