//! # hcg — optimized embedded code generation with SIMD instruction synthesis
//!
//! A from-scratch Rust reproduction of *HCG: Optimizing Embedded Code
//! Generation of Simulink with SIMD Instruction Synthesis* (DAC 2022).
//!
//! This facade crate re-exports the whole system:
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`obs`] | `hcg-obs` | Observability layer: span tracing (Chrome trace JSON), histograms, metrics export schema (JSON, Prometheus) |
//! | [`model`] | `hcg-model` | Simulink-like models: actors, typed signals, XML model files, scheduling, benchmark library |
//! | [`graph`] | `hcg-graph` | Dataflow graphs, subgraph extension, instruction matching |
//! | [`isa`] | `hcg-isa` | SIMD instruction sets (NEON/SSE/AVX) with computing graphs, loadable from text files |
//! | [`kernels`] | `hcg-kernels` | Intensive-actor code library (FFT/DCT/Conv/Matrix families) + Algorithm 1 autotuning |
//! | [`vm`] | `hcg-vm` | Executable program IR, interpreter, per-platform cost models |
//! | [`core`] | `hcg-core` | The HCG generator: actor dispatch, Algorithms 1 & 2, C-source emission |
//! | [`exec`] | `hcg-exec` | Scoped thread pool (one shared job index, results in submission order) for fanning compile jobs across workers |
//! | [`baselines`] | `hcg-baselines` | Simulink-Coder-like and DFSynth-like reference generators |
//! | [`analysis`] | `hcg-analysis` | Multi-pass static analyzer: model lints and generated-program lints |
//! | [`verify`] | `hcg-verify` | Static translation validation: symbolic equivalence proofs, effect analysis, value-range lints |
//! | [`fuzz`] | `hcg-fuzz` | Differential model fuzzer: random models, cross-generator oracle, delta-debugging shrinker |
//!
//! # Quick start
//!
//! ```
//! use hcg::core::{emit::to_c_source, CodeGenerator, HcgGen};
//! use hcg::isa::Arch;
//! use hcg::model::library;
//!
//! # fn main() -> Result<(), hcg::core::GenError> {
//! // The paper's Figure 4 sample model: five batch actors on i32x4.
//! let model = library::fig4_model();
//!
//! // Generate NEON code: Algorithm 2 maps the dataflow graph onto three
//! // SIMD instructions (the paper's Listing 1).
//! let generator = HcgGen::new();
//! let program = generator.generate(&model, Arch::Neon128)?;
//! assert_eq!(program.stmt_stats().vops, 3);
//!
//! println!("{}", to_c_source(&program));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use hcg_analysis as analysis;
pub use hcg_baselines as baselines;
pub use hcg_core as core;
pub use hcg_exec as exec;
pub use hcg_fuzz as fuzz;
pub use hcg_graph as graph;
pub use hcg_isa as isa;
pub use hcg_kernels as kernels;
pub use hcg_model as model;
pub use hcg_obs as obs;
pub use hcg_verify as verify;
pub use hcg_vm as vm;
