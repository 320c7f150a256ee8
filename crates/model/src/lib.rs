//! # hcg-model — Simulink-like modeling front end
//!
//! The substrate that plays the role of Simulink's model layer in the HCG
//! reproduction (paper: *HCG: Optimizing Embedded Code Generation of
//! Simulink with SIMD Instruction Synthesis*, DAC 2022). It provides:
//!
//! * signal types: [`DataType`], [`Shape`], [`SignalType`], [`Param`];
//! * the actor inventory of paper Table 1 ([`ActorKind`]) and the
//!   element-wise operation vocabulary ([`op::ElemOp`]) with reference
//!   semantics;
//! * the [`Model`] container with structural validation and signal type
//!   inference, plus a fluent [`ModelBuilder`];
//! * a from-scratch pull [`xml`] reader and the textual model [`parser`],
//!   one schema walk for compiling and linting, plus a one-buffer writer
//!   (the paper parses `.slx` with TinyXML; this is the equivalent);
//! * [`schedule`] analysis (deterministic topological ordering with
//!   delay-broken feedback);
//! * runtime values ([`Tensor`]) shared by every execution path;
//! * the benchmark model [`library`] used throughout the evaluation.
//!
//! # Examples
//!
//! ```
//! use hcg_model::{library, schedule::schedule};
//!
//! # fn main() -> Result<(), hcg_model::ModelError> {
//! let model = library::lowpass_model(1024);
//! let types = model.infer_types()?;
//! let order = schedule(&model)?;
//! assert_eq!(order.order.len(), model.actors.len());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod actor;
mod builder;
mod check;
mod frontend;
mod model;
mod tensor;
mod types;

pub mod delta;
pub mod library;
pub mod naming;
pub mod op;
pub mod parser;
pub mod schedule;
pub mod stats;
pub mod xml;

pub use actor::{Actor, ActorId, ActorKind, KindClass, ParseActorKindError};
pub use builder::ModelBuilder;
pub use check::{ModelFault, ModelViolation, ParamFault};
pub use delta::{EditOp, ModelDelta};
pub use frontend::FrontEnd;
pub use model::{Connection, Model, ModelError, PortRef, TypeMap};
pub use tensor::{Tensor, TensorData, TensorError};
pub use types::{DataType, Param, ParseTypeError, Shape, SignalType};
