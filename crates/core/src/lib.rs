//! # hcg-core — the HCG code generator
//!
//! The primary contribution of *HCG: Optimizing Embedded Code Generation of
//! Simulink with SIMD Instruction Synthesis* (DAC 2022): a code generator
//! that dispatches model actors into intensive / batch / basic classes
//! ([`dispatch`]), selects optimal intensive-actor implementations by
//! adaptive pre-calculation (Algorithm 1, [`intensive`]), synthesises
//! compound SIMD instructions for batch-actor regions by iterative dataflow
//! graph mapping (Algorithm 2, [`batch`]), and composes everything into an
//! executable/renderable program.
//!
//! # Examples
//!
//! ```
//! use hcg_core::{CodeGenerator, HcgGen, emit::to_c_source};
//! use hcg_isa::Arch;
//! use hcg_model::library;
//!
//! # fn main() -> Result<(), hcg_core::GenError> {
//! let gen = HcgGen::new();
//! let program = gen.generate(&library::fig4_model(), Arch::Neon128)?;
//! let source = to_c_source(&program);
//! assert!(source.contains("vmlaq_s32"));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod conventional;
pub mod dispatch;
pub mod emit;
pub mod generator;
pub mod incremental;
pub mod intensive;
pub mod pass;
pub mod reference;
pub mod search;
pub mod session;

mod hcg;

pub use batch::{explain_region, BatchOptions, BatchRegion, MapTrace, MatchOrder, RegionPlan};
pub use conventional::LoopStyle;
pub use dispatch::Dispatch;
pub use generator::{
    debug_lint, debug_lint_stage, debug_verify, set_debug_verify, CodeGenerator, GenContext,
    GenError,
};
pub use hcg::{HcgGen, HcgOptions};
pub use incremental::{EditSession, IncrementalStats};
pub use pass::{run_stages, StageCounters, StageRecord, StageReport, Stages};
pub use reference::Reference;
pub use search::{MappingSearch, MappingStrategy};
pub use session::CompileSession;
