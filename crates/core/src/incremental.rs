//! [`EditSession`]: recompilation over a stream of [`ModelDelta`]s.
//!
//! An `EditSession` is a [`CompileSession`] that accepts edits, plus two
//! things a plain session does not keep:
//!
//! * **patch** — a [`ModelDelta::data_only`] edit (a `Constant` value, a
//!   `Gain` factor or a `UnitDelay` initial state, same shape) changes no
//!   code, only constant data. The session keeps the last HCG program per
//!   (arch, [`HcgOptions`]); after a data-only edit it clones that program
//!   and rewrites the initialisers listed in its
//!   [`Program::data_buffers`] through the generator's own
//!   [`data_initialiser`]. Any other delta drops the kept programs.
//! * **Algorithm 1 history** — kernel selections persist across edits, so
//!   a fresh [`HcgGen`](crate::HcgGen) does not re-measure kernels the session has
//!   already selected.
//!
//! Every other compile — the first one, and each one after an edit that
//! is not data-only — runs the one stage driver
//! ([`CompileSession::generate_with_report`], i.e. [`crate::run_stages`]),
//! so an edited model is lowered exactly as a scratch compile lowers it.
//! Counters live in the session's [`IncrementalStats`]
//! ([`EditSession::stats`]); a patch opens an `incremental` span, a
//! regenerate the driver's `session`, `pipeline` and `pass` spans.

use crate::generator::{data_initialiser, CodeGenerator, GenError};
use crate::hcg::HcgOptions;
use crate::session::CompileSession;
use hcg_isa::Arch;
use hcg_kernels::{Autotuner, Meter};
use hcg_model::{FrontEnd, Model, ModelDelta};
use hcg_vm::Program;

/// Work-avoidance counters for one [`EditSession`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Deltas applied via [`EditSession::apply_delta`].
    pub edits_applied: u64,
    /// Regions whose instruction mapping was reused. Always 0: a
    /// regenerate re-plans every region it forms.
    pub regions_admitted: u64,
    /// Regions formed by HCG regenerates (the stage report's
    /// `regions_formed`); every one of them is re-planned.
    pub regions_invalidated: u64,
    /// Regions planned by HCG regenerates; equal to
    /// `regions_invalidated`, since no plan is reused.
    pub plans_spliced: u64,
    /// Algorithm-1 kernel selections adopted from the session history
    /// instead of re-measured by quick-search.
    pub kernel_selections_reused: u64,
    /// Programs served by patching the initialisers of a kept program
    /// after data-only edits, instead of regenerating.
    pub programs_patched: u64,
}

/// An editable compilation session: apply [`ModelDelta`]s and recompile,
/// patching the kept HCG program after data-only edits and reusing the
/// Algorithm-1 selection history across every edit.
///
/// # Examples
///
/// ```
/// use hcg_core::emit::to_c_source;
/// use hcg_core::{EditSession, HcgGen};
/// use hcg_isa::Arch;
/// use hcg_model::delta::EditOp;
/// use hcg_model::{library, ModelDelta, Param};
///
/// # fn main() -> Result<(), hcg_core::GenError> {
/// let mut session = EditSession::new(library::fig4_model());
/// let hcg = HcgGen::new();
/// let before = session.generate(&hcg, Arch::Neon128)?;
/// session.apply_delta(&ModelDelta::single(EditOp::SetParam {
///     name: "Shr".into(),
///     param: "amount".into(),
///     value: Param::Int(2),
/// }))?;
/// let after = session.generate(&hcg, Arch::Neon128)?;
/// assert_ne!(to_c_source(&before), to_c_source(&after));
/// assert_eq!(session.stats().edits_applied, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct EditSession {
    /// The current model and its lazily computed front end and dispatch.
    session: CompileSession,
    /// Algorithm-1 selection history persisted across edits. Kernel
    /// selection is keyed by `(actor kind, dtype, size)` — untouched by
    /// any edit that leaves those alone — and quick-search *executes*
    /// candidate kernels to cost them, which dominates compile time for
    /// intensive models. Only maintained under the deterministic
    /// [`Meter::OpCount`]: a wall-clock selection replayed from history
    /// could diverge from what a fresh compile would measure.
    tuner: Option<Autotuner>,
    /// The last HCG program per (arch, options), valid for the current
    /// model up to its data initialisers; cleared by any delta that is
    /// not data-only.
    kept: Vec<KeptProgram>,
    stats: IncrementalStats,
}

/// An HCG program kept for patching, with the configuration it was
/// compiled under.
#[derive(Debug)]
struct KeptProgram {
    arch: Arch,
    options: HcgOptions,
    program: Program,
}

impl KeptProgram {
    /// Rewrite every data initialiser from `model`'s current parameters.
    fn patch(&mut self, model: &Model) {
        let prog = &mut self.program;
        for &(actor, buf) in &prog.data_buffers {
            prog.buffers[buf.0].init = data_initialiser(&model.actors[actor.0]);
        }
    }
}

impl EditSession {
    /// A session owning `model`. Nothing is computed until first use.
    pub fn new(model: Model) -> Self {
        EditSession {
            session: CompileSession::new(model),
            tuner: None,
            kept: Vec::new(),
            stats: IncrementalStats::default(),
        }
    }

    /// The session's current model.
    pub fn model(&self) -> &Model {
        self.session.model()
    }

    /// Work-avoidance counters accumulated so far.
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }

    /// Apply a delta through [`CompileSession::apply_delta`]. A
    /// [data-only](ModelDelta::data_only) delta keeps the cached front end
    /// and dispatch and the kept programs, so [`EditSession::generate`]
    /// patches their initialisers; any other delta drops all of them.
    ///
    /// # Errors
    ///
    /// Returns [`GenError::Model`] when an op fails to apply (unknown or
    /// duplicate actor name); the session is left unchanged in that case.
    pub fn apply_delta(&mut self, delta: &ModelDelta) -> Result<(), GenError> {
        if !self.session.apply_delta(delta)? {
            self.kept.clear();
        }
        self.stats.edits_applied += 1;
        Ok(())
    }

    /// Validate the current model.
    ///
    /// # Errors
    ///
    /// Returns [`GenError::Model`] when the model is invalid.
    pub fn validate(&self) -> Result<(), GenError> {
        self.session.validate()
    }

    /// The front end for the current model, computed on first call after
    /// each edit that is not data-only.
    ///
    /// # Errors
    ///
    /// Returns [`GenError::Model`] when the model is invalid.
    pub fn front_end(&self) -> Result<&FrontEnd, GenError> {
        self.session.front_end()
    }

    /// Generate code for the current model: patch the kept HCG program
    /// when only data changed since it was compiled, otherwise compile
    /// through the session. The output is identical to a from-scratch
    /// compile of the same model.
    ///
    /// # Errors
    ///
    /// Returns [`GenError`] when the model is invalid or synthesis fails.
    pub fn generate(
        &mut self,
        generator: &dyn CodeGenerator,
        arch: Arch,
    ) -> Result<Program, GenError> {
        let Some(hcg) = generator.as_hcg() else {
            return self.session.generate(generator, arch);
        };
        // Session history may only flow into a tuner that (a) measures
        // deterministically and (b) has no decisions of its own yet — a
        // caller-loaded history must win, and the session must never
        // memorise selections it cannot prove a fresh compile would repeat.
        let reuse = hcg.options.meter == Meter::OpCount && hcg.history_len() == 0;
        if reuse {
            if let Some(saved) = &self.tuner {
                hcg.tuner().borrow_mut().adopt_history(saved);
                self.stats.kernel_selections_reused += saved.history_len() as u64;
            }
        }
        // Only a program whose kernel selections a fresh compile would
        // repeat, over a builtin instruction set, is kept.
        let keep = reuse && hcg.options.instr_set.is_none();
        if keep {
            let key = |k: &&mut KeptProgram| k.arch == arch && k.options == hcg.options;
            if let Some(kept) = self.kept.iter_mut().find(key) {
                let _span = hcg_obs::span("incremental", "patch");
                kept.patch(self.session.model());
                self.stats.programs_patched += 1;
                return Ok(kept.program.clone());
            }
        }
        let (prog, report) = self.session.generate_with_report(hcg, arch)?;
        let regions = report.totals().regions_formed;
        self.stats.regions_invalidated += regions;
        self.stats.plans_spliced += regions;
        if reuse {
            self.tuner = Some(hcg.tuner().borrow().clone());
        }
        if keep {
            self.kept.push(KeptProgram {
                arch,
                options: hcg.options.clone(),
                program: prog.clone(),
            });
        }
        Ok(prog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emit::to_c_source;
    use crate::HcgGen;
    use hcg_isa::CostOverlay;
    use hcg_model::delta::EditOp;
    use hcg_model::{library, ActorKind, Param};

    fn scratch(model: &Model, arch: Arch) -> String {
        to_c_source(
            &HcgGen::new()
                .generate(model, arch)
                .expect("scratch compile"),
        )
    }

    #[test]
    fn param_edit_is_byte_identical_to_scratch() {
        let mut session = EditSession::new(library::fig4_model());
        let hcg = HcgGen::new();
        let arch = Arch::Neon128;
        assert_eq!(
            to_c_source(&session.generate(&hcg, arch).unwrap()),
            scratch(session.model(), arch)
        );
        session
            .apply_delta(&ModelDelta::single(EditOp::SetParam {
                name: "Shr".into(),
                param: "amount".into(),
                value: Param::Int(2),
            }))
            .unwrap();
        let inc = to_c_source(&session.generate(&hcg, arch).unwrap());
        assert_eq!(inc, scratch(session.model(), arch));
        let stats = session.stats();
        assert_eq!(stats.edits_applied, 1);
    }

    #[test]
    fn structural_edit_is_byte_identical_to_scratch() {
        let mut session = EditSession::new(library::fig4_model());
        let hcg = HcgGen::new();
        let _ = session.generate(&hcg, Arch::Avx256).unwrap();
        // Tap an existing signal to a new unary actor and outport.
        session
            .apply_delta(&ModelDelta {
                ops: vec![
                    EditOp::AddActor {
                        name: "tap".into(),
                        kind: ActorKind::Neg,
                        params: Default::default(),
                    },
                    EditOp::AddActor {
                        name: "tap_out".into(),
                        kind: ActorKind::Outport,
                        params: Default::default(),
                    },
                    EditOp::Connect {
                        from: ("Sub".into(), 0),
                        to: ("tap".into(), 0),
                    },
                    EditOp::Connect {
                        from: ("tap".into(), 0),
                        to: ("tap_out".into(), 0),
                    },
                ],
            })
            .unwrap();
        for arch in [Arch::Neon128, Arch::Avx256] {
            let inc = to_c_source(&session.generate(&hcg, arch).unwrap());
            assert_eq!(inc, scratch(session.model(), arch), "arch {arch}");
        }
    }

    #[test]
    fn failing_edit_recovers_after_fix() {
        let mut session = EditSession::new(library::fig4_model());
        let hcg = HcgGen::new();
        let _ = session.generate(&hcg, Arch::Neon128).unwrap();
        // Disconnecting an input makes the model invalid...
        session
            .apply_delta(&ModelDelta::single(EditOp::Disconnect {
                to: ("Mul".into(), 1),
            }))
            .unwrap();
        assert!(session.validate().is_err());
        assert!(session.validate().is_err(), "error is stable");
        // ...and reconnecting it recovers, matching scratch bytes.
        session
            .apply_delta(&ModelDelta::single(EditOp::Connect {
                from: ("d".into(), 0),
                to: ("Mul".into(), 1),
            }))
            .unwrap();
        let inc = to_c_source(&session.generate(&hcg, Arch::Neon128).unwrap());
        assert_eq!(inc, scratch(session.model(), Arch::Neon128));
    }

    #[test]
    fn kernel_selections_survive_fresh_generators() {
        let mut session = EditSession::new(library::fft_model(256));
        let arch = Arch::Neon128;
        let cold = HcgGen::new();
        let _ = session.generate(&cold, arch).unwrap();
        assert!(cold.history_len() > 0, "FFT measures at least one kernel");
        session
            .apply_delta(&ModelDelta::single(EditOp::SetParam {
                name: "window".into(),
                param: "value".into(),
                value: Param::FloatVec(vec![0.25; 256]),
            }))
            .unwrap();
        // A brand-new generator would normally re-run quick-search; the
        // session hands it the remembered selections instead.
        let warm = HcgGen::new();
        let inc = to_c_source(&session.generate(&warm, arch).unwrap());
        assert_eq!(inc, scratch(session.model(), arch));
        assert!(
            session.stats().kernel_selections_reused > 0,
            "fresh generator must adopt the session's Algorithm-1 history"
        );
    }

    #[test]
    fn repeat_generates_reuse_the_kept_program() {
        let mut session = EditSession::new(library::fig4_model());
        let hcg = HcgGen::new();
        let arch = Arch::Neon128;
        let p1 = session.generate(&hcg, arch).unwrap();
        let first = session.stats();
        // Nothing changed: the kept program is served, nothing re-maps.
        let p2 = session.generate(&hcg, arch).unwrap();
        assert_eq!(p1, p2);
        let second = session.stats();
        assert_eq!(second.programs_patched, first.programs_patched + 1);
        assert_eq!(second.plans_spliced, first.plans_spliced, "no new mapping");
    }

    #[test]
    fn differently_configured_generators_do_not_share_programs() {
        let mut session = EditSession::new(library::fig4_model_sized(64));
        let arch = Arch::Neon128;
        let _ = session.generate(&HcgGen::new(), arch).unwrap();
        let scalar = HcgGen::with_options(HcgOptions {
            simd_threshold: 100,
            ..HcgOptions::default()
        });
        let prog = session.generate(&scalar, arch).unwrap();
        assert_eq!(prog.stmt_stats().vops, 0, "threshold 100 disables SIMD");
        assert_eq!(prog, scalar.generate(session.model(), arch).unwrap());
    }

    /// `x·g + k` latched through a delay: one actor per data parameter.
    fn data_bed() -> Model {
        use hcg_model::{DataType, ModelBuilder, SignalType};
        let ty = SignalType::vector(DataType::F32, 16);
        let mut b = ModelBuilder::new("DataBed");
        let x = b.inport("x", ty);
        let g = b.gain("g", 2.0);
        let k = b.constant("k", ty, vec![0.5; 16]);
        let add = b.add_actor("add", ActorKind::Add);
        let z = b.unit_delay("z", Some(ty));
        b.set_param(z, "init", Param::FloatVec(vec![1.0; 16]));
        let o = b.outport("y");
        b.connect(x, 0, g, 0);
        b.connect(g, 0, add, 0);
        b.connect(k, 0, add, 1);
        b.connect(add, 0, z, 0);
        b.connect(z, 0, o, 0);
        b.build().expect("data bed is valid")
    }

    fn set(name: &str, param: &str, value: Param) -> ModelDelta {
        ModelDelta::single(EditOp::SetParam {
            name: name.into(),
            param: param.into(),
            value,
        })
    }

    /// Generate both arches through `session` and assert each program
    /// equals a scratch compile by a fresh generator with `options`.
    fn assert_programs_match(session: &mut EditSession, options: &HcgOptions, label: &str) {
        for arch in Arch::ALL {
            let inc = session
                .generate(&HcgGen::with_options(options.clone()), arch)
                .unwrap_or_else(|e| panic!("{label} on {arch}: {e}"));
            let fresh = HcgGen::with_options(options.clone())
                .generate(session.model(), arch)
                .unwrap_or_else(|e| panic!("{label} scratch on {arch}: {e}"));
            assert_eq!(inc, fresh, "{label} on {arch}");
        }
    }

    #[test]
    fn data_edits_patch_the_kept_program() {
        let options = HcgOptions::default();
        let mut session = EditSession::new(data_bed());
        assert_programs_match(&mut session, &options, "cold");
        assert_eq!(session.stats().programs_patched, 0);
        let edits = [
            set(
                "k",
                "value",
                Param::FloatVec((0..16).map(f64::from).collect()),
            ),
            set("g", "gain", Param::Float(-3.5)),
            set("z", "init", Param::FloatVec(vec![-2.0; 16])),
        ];
        for (i, delta) in edits.iter().enumerate() {
            assert!(delta.data_only(session.model()));
            let before = session.stats();
            session.apply_delta(delta).unwrap();
            assert_programs_match(&mut session, &options, &format!("edit {i}"));
            let after = session.stats();
            assert_eq!(
                after.programs_patched,
                before.programs_patched + Arch::ALL.len() as u64,
                "edit {i} patches both arches"
            );
            assert_eq!(after.plans_spliced, before.plans_spliced, "edit {i}");
        }
    }

    #[test]
    fn reshaping_constant_edit_regenerates() {
        let options = HcgOptions::default();
        let mut session = EditSession::new(data_bed());
        assert_programs_match(&mut session, &options, "cold");
        // One element broadcasts: still valid, but not the same shape.
        let delta = set("k", "value", Param::FloatVec(vec![4.0]));
        assert!(!delta.data_only(session.model()));
        session.apply_delta(&delta).unwrap();
        assert_programs_match(&mut session, &options, "reshaped");
        assert_eq!(session.stats().programs_patched, 0);
        // The regenerated program is kept in turn.
        session
            .apply_delta(&set("k", "value", Param::FloatVec(vec![5.0])))
            .unwrap();
        assert_programs_match(&mut session, &options, "after reshape");
        assert_eq!(session.stats().programs_patched, Arch::ALL.len() as u64);
    }

    #[test]
    fn data_edit_after_structural_edit_matches_scratch() {
        let options = HcgOptions::default();
        let mut session = EditSession::new(data_bed());
        assert_programs_match(&mut session, &options, "cold");
        session
            .apply_delta(&ModelDelta {
                ops: vec![
                    EditOp::AddActor {
                        name: "neg".into(),
                        kind: ActorKind::Neg,
                        params: Default::default(),
                    },
                    EditOp::Connect {
                        from: ("add".into(), 0),
                        to: ("neg".into(), 0),
                    },
                    EditOp::Connect {
                        from: ("neg".into(), 0),
                        to: ("z".into(), 0),
                    },
                ],
            })
            .unwrap();
        // The structural delta dropped the kept programs: the data edit
        // right after it must not patch a program of the old structure.
        session
            .apply_delta(&set("g", "gain", Param::Float(7.0)))
            .unwrap();
        assert_programs_match(&mut session, &options, "structural then data");
        assert_eq!(session.stats().programs_patched, 0);
        session
            .apply_delta(&set("g", "gain", Param::Float(8.0)))
            .unwrap();
        assert_programs_match(&mut session, &options, "data after regenerate");
        assert_eq!(session.stats().programs_patched, Arch::ALL.len() as u64);
    }

    #[test]
    fn data_edit_while_front_end_fails_matches_scratch() {
        let options = HcgOptions::default();
        let mut session = EditSession::new(data_bed());
        assert_programs_match(&mut session, &options, "cold");
        session
            .apply_delta(&ModelDelta::single(EditOp::Disconnect {
                to: ("add".into(), 1),
            }))
            .unwrap();
        assert!(session.validate().is_err());
        session
            .apply_delta(&set("k", "value", Param::FloatVec(vec![9.0; 16])))
            .unwrap();
        for arch in Arch::ALL {
            let inc = session.generate(&HcgGen::new(), arch);
            let fresh = HcgGen::new().generate(session.model(), arch);
            assert!(inc.is_err(), "invalid model must not be patched");
            assert_eq!(inc.err(), fresh.err());
        }
        session
            .apply_delta(&ModelDelta::single(EditOp::Connect {
                from: ("k".into(), 0),
                to: ("add".into(), 1),
            }))
            .unwrap();
        assert_programs_match(&mut session, &options, "fixed");
        assert_eq!(session.stats().programs_patched, 0);
        assert_eq!(
            session.model().actor_by_name("k").unwrap().param("value"),
            Some(&Param::FloatVec(vec![9.0; 16])),
            "the edit made while invalid is in the program"
        );
    }

    #[test]
    fn alternating_generators_are_never_served_each_others_program() {
        let threshold = HcgOptions {
            simd_threshold: 100,
            ..HcgOptions::default()
        };
        let loops = HcgOptions {
            fallback_style: crate::LoopStyle::LOOPS,
            ..HcgOptions::default()
        };
        let configs = [HcgOptions::default(), threshold, loops];
        let mut session = EditSession::new(data_bed());
        for (i, options) in configs.iter().enumerate() {
            assert_programs_match(&mut session, options, &format!("cold config {i}"));
        }
        for step in 0..6 {
            session
                .apply_delta(&set("g", "gain", Param::Float(step as f64)))
                .unwrap();
            for (i, options) in configs.iter().enumerate().cycle().skip(step).take(3) {
                assert_programs_match(&mut session, options, &format!("step {step} config {i}"));
            }
        }
        assert_eq!(
            session.stats().programs_patched,
            6 * (configs.len() * Arch::ALL.len()) as u64
        );
    }

    #[test]
    fn cost_overlays_do_not_share_plans() {
        use crate::MappingStrategy;
        let mut session = EditSession::new(library::fir_model(64, 4));
        let arch = Arch::Neon128;
        let beam = |cost_overlay| {
            HcgGen::with_options(HcgOptions {
                mapping: MappingStrategy::Beam { width: 8 },
                cost_overlay,
                ..HcgOptions::default()
            })
        };
        let _ = session.generate(&beam(None), arch).unwrap();
        session
            .apply_delta(&ModelDelta::single(EditOp::SetParam {
                name: "c1".into(),
                param: "value".into(),
                value: Param::Float(5.0),
            }))
            .unwrap();
        let mut dear_mla = CostOverlay::new();
        dear_mla.set_cost(arch, "vmlaq_s32", 4);
        let overlaid = beam(Some(dear_mla));
        let inc = session.generate(&overlaid, arch).unwrap();
        let scratch = overlaid.generate(session.model(), arch).unwrap();
        assert!(!to_c_source(&scratch).contains("vmlaq_s32"), "beam splits");
        assert_eq!(inc, scratch);
    }
}
