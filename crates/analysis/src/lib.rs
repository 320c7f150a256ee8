//! `hcg-analysis`: multi-pass static analyzer and lint framework for HCG.
//!
//! Two front ends share one diagnostic vocabulary:
//!
//! * **Model lints** ([`lint_model`], [`lint_model_file`]) inspect an
//!   `hcg-model` [`Model`](hcg_model::Model) — or a model file, with every
//!   violation the parser's schema walk finds — for structural problems:
//!   unconnected ports, duplicate connections, dtype/scale mismatches,
//!   algebraic loops, unreachable actors, unknown actor kinds.
//! * **Program lints** ([`lint_program`]) inspect a generated
//!   [`Program`](hcg_vm::Program): every structural defect the VM validator
//!   knows about, plus dataflow analyses (read-before-write, uninitialized
//!   registers, dead stores, never-read buffers), kernel-call aliasing and
//!   per-arch lane-width checks.
//!
//! Beyond `hcg_vm::validate_all`'s structural defects, the analyzer
//! collects *every* diagnostic, model and program alike, into a
//! [`LintReport`] whose rendering is stable for golden tests.

mod diagnostics;
mod model_lints;
mod program_lints;
mod xml_front;

pub use diagnostics::{format_reports, Diagnostic, LintCode, LintReport, Location, Severity};
pub use model_lints::lint_model;
pub use program_lints::{lint_program, lint_stage};
pub use xml_front::{lint_model_file, lint_model_file_with_model};
