//! [`CompileSession`]: one model, lazily-computed cached front-end
//! artifacts, shared by reference across every generator × architecture
//! combination.
//!
//! The evaluation fleet drives three generators over multiple targets per
//! model; without a session each `generate` call re-runs type inference,
//! scheduling and dispatch classification. A session computes each artifact
//! at most once (verifiable via [`hcg_model::stats`]) and lends it to
//! [`run_stages`] — the driver behind the standalone path too — by
//! reference, producing byte-identical programs.

use crate::dispatch::{classify_all, Dispatch};
use crate::generator::{CodeGenerator, GenContext, GenError};
use crate::pass::{run_stages, StageReport};
use hcg_isa::Arch;
use hcg_model::schedule::Schedule;
use hcg_model::{FrontEnd, Model, ModelDelta, TypeMap};
use hcg_vm::Program;
use std::sync::OnceLock;

/// A compilation session owning one model and its cached front-end
/// artifacts.
///
/// # Examples
///
/// ```
/// use hcg_core::{CompileSession, HcgGen};
/// use hcg_isa::Arch;
/// use hcg_model::library;
///
/// # fn main() -> Result<(), hcg_core::GenError> {
/// let session = CompileSession::new(library::fig4_model());
/// let hcg = HcgGen::new();
/// // Both runs share one type-inference and one scheduling pass.
/// let neon = session.generate(&hcg, Arch::Neon128)?;
/// let avx = session.generate(&hcg, Arch::Avx256)?;
/// assert_ne!(neon.arch, avx.arch);
/// # Ok(())
/// # }
/// ```
/// The caches are [`OnceLock`]s, so a session is `Send + Sync`: the
/// parallel evaluation fleet shares one session per model across worker
/// threads, and whichever worker touches an artifact first computes it.
#[derive(Debug)]
pub struct CompileSession {
    model: Model,
    front: OnceLock<Result<FrontEnd, GenError>>,
    dispatch: OnceLock<Result<Vec<Dispatch>, GenError>>,
}

impl CompileSession {
    /// A session owning `model`. Nothing is computed until first use.
    pub fn new(model: Model) -> Self {
        CompileSession {
            model,
            front: OnceLock::new(),
            dispatch: OnceLock::new(),
        }
    }

    /// The session's model.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Apply a [`ModelDelta`] to the session's model. A
    /// [data-only](ModelDelta::data_only) delta keeps the cached front end
    /// and dispatch: it changes neither types, schedule nor a shift amount.
    /// Any other delta drops every cached artifact — including a cached
    /// *error*: an edit that fixes an invalid model makes subsequent
    /// [`CompileSession::validate`] calls succeed rather than replaying the
    /// stale failure. Returns whether the delta was data-only
    /// ([`crate::EditSession`] then patches its kept programs).
    ///
    /// # Errors
    ///
    /// Returns [`GenError::Model`] when an op fails to apply (unknown or
    /// duplicate actor name); the session is left unchanged in that case.
    pub fn apply_delta(&mut self, delta: &ModelDelta) -> Result<bool, GenError> {
        let data_only = delta.data_only(&self.model);
        self.model = delta.apply(&self.model)?;
        if !data_only {
            self.front = OnceLock::new();
            self.dispatch = OnceLock::new();
        }
        Ok(data_only)
    }

    /// The cached front end (validated model + types + schedule), computing
    /// it on first call.
    ///
    /// # Errors
    ///
    /// Returns the (cached) [`GenError::Model`] when the model is invalid.
    pub fn front_end(&self) -> Result<&FrontEnd, GenError> {
        self.front
            .get_or_init(|| {
                let _span =
                    hcg_obs::span_with("session", || format!("front-end/{}", self.model.name));
                self.model.front_end().map_err(GenError::from)
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The cached type map.
    ///
    /// # Errors
    ///
    /// Returns [`GenError::Model`] when inference fails.
    pub fn types(&self) -> Result<&TypeMap, GenError> {
        Ok(&self.front_end()?.types)
    }

    /// The cached schedule.
    ///
    /// # Errors
    ///
    /// Returns [`GenError::Model`] when scheduling fails.
    pub fn schedule(&self) -> Result<&Schedule, GenError> {
        Ok(&self.front_end()?.schedule)
    }

    /// The cached dispatch classification (arch-independent).
    ///
    /// # Errors
    ///
    /// Returns [`GenError::Model`] when the front end fails.
    pub fn dispatch(&self) -> Result<&[Dispatch], GenError> {
        self.dispatch
            .get_or_init(|| {
                let _span =
                    hcg_obs::span_with("session", || format!("dispatch/{}", self.model.name));
                self.front_end()
                    .map(|fe| classify_all(&self.model, &fe.types))
            })
            .as_ref()
            .map(Vec::as_slice)
            .map_err(Clone::clone)
    }

    /// Force front-end validation without generating anything.
    ///
    /// # Errors
    ///
    /// Returns [`GenError::Model`] when the model is invalid.
    pub fn validate(&self) -> Result<(), GenError> {
        self.front_end().map(|_| ())
    }

    /// Generate code through the session cache.
    ///
    /// # Errors
    ///
    /// Returns [`GenError`] when the model is invalid or synthesis fails.
    pub fn generate(&self, generator: &dyn CodeGenerator, arch: Arch) -> Result<Program, GenError> {
        self.generate_with_report(generator, arch)
            .map(|(prog, _)| prog)
    }

    /// Generate code through the session cache, returning the per-stage
    /// report. [`run_stages`] borrows every cached artifact, the dispatch
    /// classification included — no front-end work is repeated across
    /// generators or architectures.
    ///
    /// # Errors
    ///
    /// Returns [`GenError`] when the model is invalid or synthesis fails.
    pub fn generate_with_report(
        &self,
        generator: &dyn CodeGenerator,
        arch: Arch,
    ) -> Result<(Program, StageReport), GenError> {
        let fe = self.front_end()?;
        let dispatch = self.dispatch()?;
        let ctx = GenContext::with_artifacts(
            &self.model,
            &fe.types,
            &fe.schedule,
            arch,
            generator.name(),
        )?;
        run_stages(generator, ctx, Some(dispatch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HcgGen;
    use hcg_model::library;

    #[test]
    fn session_caches_artifacts_across_arches() {
        let session = CompileSession::new(library::fig4_model());
        let t0 = hcg_model::stats::type_inference_runs();
        let s0 = hcg_model::stats::schedule_runs();
        let g = HcgGen::new();
        let p1 = session.generate(&g, Arch::Neon128).unwrap();
        let p2 = session.generate(&g, Arch::Avx256).unwrap();
        assert_ne!(p1.arch, p2.arch);
        assert_eq!(hcg_model::stats::type_inference_runs() - t0, 1);
        assert_eq!(hcg_model::stats::schedule_runs() - s0, 1);
    }

    #[test]
    fn session_is_send_and_sync() {
        // Compile-time guarantee the fleet relies on: sessions are shared
        // by reference across worker threads.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompileSession>();
    }

    #[test]
    fn invalid_model_error_is_cached() {
        use hcg_model::ModelBuilder;
        // Empty model fails validation.
        let m = ModelBuilder::new("empty").build_unchecked();
        let session = CompileSession::new(m);
        let e1 = session.validate().unwrap_err();
        let e2 = session.validate().unwrap_err();
        assert_eq!(e1, e2);
    }

    #[test]
    fn fixing_edit_clears_cached_error() {
        use hcg_model::delta::EditOp;
        use hcg_model::{ActorKind, ModelBuilder, SignalType};
        use std::collections::BTreeMap;
        // A model with an undriven input: validation fails and the error
        // is cached in the OnceLock.
        let mut b = ModelBuilder::new("fixme");
        let g = b.add_actor("g", ActorKind::Abs);
        let o = b.outport("o");
        b.connect(g, 0, o, 0);
        let mut session = CompileSession::new(b.build_unchecked());
        assert!(session.validate().is_err());
        assert!(session.validate().is_err(), "error is cached");

        // An edit supplying the missing driver must clear the cached error.
        let fix = ModelDelta {
            ops: vec![
                EditOp::AddActor {
                    name: "x".into(),
                    kind: ActorKind::Inport,
                    params: BTreeMap::from([(
                        "type".into(),
                        hcg_model::Param::Str(
                            SignalType::vector(hcg_model::DataType::F32, 8).to_string(),
                        ),
                    )]),
                },
                EditOp::Connect {
                    from: ("x".into(), 0),
                    to: ("g".into(), 0),
                },
            ],
        };
        session.apply_delta(&fix).unwrap();
        session.validate().expect("fixed model validates");
        let g = HcgGen::new();
        assert!(session.generate(&g, Arch::Neon128).is_ok());
    }
}
