//! # hcg-isa — SIMD instruction-set descriptions
//!
//! The `InsSet` input of the HCG paper's Algorithm 2: each instruction carries
//! a *computing graph* ([`Pattern`]) describing what it computes and a code
//! template with `I/O` placeholders, loaded from external text files in the
//! paper's §3.3 format. Built-in sets cover ARM NEON, Intel SSE4 and Intel
//! AVX2 ([`sets::builtin`]).
//!
//! # Examples
//!
//! ```
//! use hcg_isa::{sets, Arch};
//!
//! let neon = sets::builtin(Arch::Neon128);
//! let mla = neon.find("vmlaq_s32").expect("NEON has multiply-accumulate");
//! assert_eq!(mla.pattern.to_string(), "Add(I1, Mul(I2, I3))");
//! assert_eq!(
//!     mla.render(&["acc", "x", "y"], "out", 0),
//!     "out = vmlaq_s32(acc, x, y);"
//! );
//! ```

#![warn(missing_docs)]

mod arch;
mod calibrate;
mod index;
mod instr;
mod pattern;

pub mod parse;
pub mod sets;

pub use arch::{Arch, ParseArchError};
pub use calibrate::{CostCalibrator, CostOverlay};
pub use index::{GraphBounds, InstrIndex};
pub use instr::{InstrSet, SimdInstr};
pub use parse::ParseIsaError;
pub use pattern::{ParsePatternError, Pattern, PatternArg, SHIFT_ANY};
