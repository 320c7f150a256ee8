//! The `CodeGenerator` trait implemented by HCG and both baselines, plus
//! the shared lowering context (buffer allocation, schedule, types) that
//! performs the common "code composition" step ④ of paper §2.
//!
//! A generator is one straight-line [`lower`](CodeGenerator::lower) that
//! calls its stages in order; the trait's `generate`/`generate_with_report`
//! methods drive it through [`run_stages`]. A [`crate::CompileSession`] can
//! feed several generators from one set of cached front-end artifacts via
//! [`GenContext::with_artifacts`].

use crate::dispatch::Dispatch;
use crate::pass::{run_stages, StageReport, Stages};
use hcg_isa::Arch;
use hcg_kernels::SelectError;
use hcg_model::naming::unique_identifier;
use hcg_model::schedule::{schedule, Schedule};
use hcg_model::{Actor, ActorId, ActorKind, Model, ModelError, PortRef, SignalType, TypeMap};
use hcg_vm::{BufferId, BufferKind, Origin, Program, Stmt};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt;

pub use hcg_model::naming::sanitize_identifier as sanitize;

/// Error from code generation.
#[derive(Debug, Clone, PartialEq)]
pub enum GenError {
    /// The input model failed validation/type inference/scheduling.
    Model(ModelError),
    /// Intensive-actor implementation selection failed.
    Select(SelectError),
    /// Anything else (internal invariant violations surface here with a
    /// description rather than a panic).
    Internal(String),
}

impl fmt::Display for GenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenError::Model(e) => write!(f, "{e}"),
            GenError::Select(e) => write!(f, "{e}"),
            GenError::Internal(m) => write!(f, "code generation error: {m}"),
        }
    }
}

impl std::error::Error for GenError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GenError::Model(e) => Some(e),
            GenError::Select(e) => Some(e),
            GenError::Internal(_) => None,
        }
    }
}

impl From<ModelError> for GenError {
    fn from(e: ModelError) -> Self {
        GenError::Model(e)
    }
}

impl From<SelectError> for GenError {
    fn from(e: SelectError) -> Self {
        GenError::Select(e)
    }
}

/// A code generator: turns a validated model into an executable
/// [`Program`] for a target architecture.
///
/// A generator is defined by its [`lower`](CodeGenerator::lower): its
/// stages after the shared `dispatch` stage, called in order. The
/// `generate*` methods are provided drivers: they build a standalone
/// [`GenContext`] (computing the front-end artifacts on the spot) and run
/// it through [`run_stages`]. Fleet runs that want to share artifacts
/// across generators go through [`crate::CompileSession`] instead, which
/// runs the same driver over borrowed artifacts.
pub trait CodeGenerator {
    /// Generator name as it appears in reports (`hcg`, `simulink-coder`,
    /// `dfsynth`).
    fn name(&self) -> &'static str;

    /// Lower the model in `ctx`, classified by `dispatch`, into the
    /// finished program, recording each stage in `stages` (see
    /// [`Stages::start`]).
    ///
    /// # Errors
    ///
    /// Returns [`GenError`] when synthesis fails.
    fn lower(
        &self,
        ctx: GenContext<'_>,
        dispatch: &[Dispatch],
        stages: &mut Stages,
    ) -> Result<Program, GenError>;

    /// Generate code.
    ///
    /// # Errors
    ///
    /// Returns [`GenError`] when the model is invalid or synthesis fails.
    fn generate(&self, model: &Model, arch: Arch) -> Result<Program, GenError> {
        self.generate_with_report(model, arch).map(|(prog, _)| prog)
    }

    /// Generate code and return the per-stage timing/counter report.
    ///
    /// # Errors
    ///
    /// Returns [`GenError`] when the model is invalid or synthesis fails.
    fn generate_with_report(
        &self,
        model: &Model,
        arch: Arch,
    ) -> Result<(Program, StageReport), GenError> {
        run_stages(self, GenContext::new(model, arch, self.name())?, None)
    }

    /// Downcast hook for [`crate::EditSession`]: the HCG generator returns
    /// itself so the session can hand it the saved Algorithm-1 history and
    /// key its kept programs by the generator's options; every other
    /// generator keeps the default `None` and is compiled through the
    /// session's [`run_stages`] every time.
    fn as_hcg(&self) -> Option<&crate::HcgGen> {
        None
    }
}

/// Shared lowering state: resolved types, schedule, the program being
/// built, and the buffer that holds each actor's output value.
///
/// The front-end artifacts are held as [`Cow`]s: [`GenContext::new`] owns
/// freshly computed ones, [`GenContext::with_artifacts`] borrows them from a
/// [`crate::CompileSession`] so a whole generator × arch fleet shares one
/// type-inference and one scheduling run per model.
#[derive(Debug)]
pub struct GenContext<'m> {
    /// The source model.
    pub model: &'m Model,
    /// Resolved signal types.
    pub types: Cow<'m, TypeMap>,
    /// Deterministic execution order.
    pub schedule: Cow<'m, Schedule>,
    /// The program under construction.
    pub prog: Program,
    out_buf: Vec<BufferId>,
    // Every identifier a buffer holds, for `add_buffer`'s deduplication.
    used_names: BTreeSet<String>,
    written_outports: BTreeSet<ActorId>,
    // `(top-level statement index, origin)` marks recorded by `set_origin`;
    // each mark covers statements up to the next mark. Materialised into
    // `Program::origins` by `finish`.
    origin_marks: Vec<(usize, Origin)>,
}

impl<'m> GenContext<'m> {
    /// Validate the model and allocate one buffer per actor output:
    /// `Inport` → input buffer, `Outport` → output buffer, `Constant` →
    /// initialised constant, `UnitDelay` → state (its output *is* the state
    /// buffer), everything else → temporary.
    ///
    /// # Errors
    ///
    /// Returns [`GenError::Model`] for invalid models.
    pub fn new(model: &'m Model, arch: Arch, generator: &str) -> Result<Self, GenError> {
        let types = model.infer_types()?;
        let sched = schedule(model)?;
        Self::build(model, Cow::Owned(types), Cow::Owned(sched), arch, generator)
    }

    /// Build a context over artifacts computed elsewhere (a
    /// [`crate::CompileSession`] cache). The caller guarantees they belong
    /// to `model` — a session computed them via [`Model::front_end`], which
    /// validated the model.
    ///
    /// # Errors
    ///
    /// Returns [`GenError`] when buffer allocation fails (e.g. an
    /// unconnected outport).
    pub fn with_artifacts(
        model: &'m Model,
        types: &'m TypeMap,
        schedule: &'m Schedule,
        arch: Arch,
        generator: &str,
    ) -> Result<Self, GenError> {
        Self::build(
            model,
            Cow::Borrowed(types),
            Cow::Borrowed(schedule),
            arch,
            generator,
        )
    }

    fn build(
        model: &'m Model,
        types: Cow<'m, TypeMap>,
        sched: Cow<'m, Schedule>,
        arch: Arch,
        generator: &str,
    ) -> Result<Self, GenError> {
        let mut ctx = GenContext {
            model,
            types,
            schedule: sched,
            prog: Program::new(model.name.clone(), generator, arch),
            out_buf: Vec::with_capacity(model.actors.len()),
            used_names: BTreeSet::new(),
            written_outports: BTreeSet::new(),
            origin_marks: Vec::new(),
        };
        for a in &model.actors {
            let name = sanitize(&a.name).into_owned();
            let ty = if a.kind == ActorKind::Outport {
                // The outport's buffer matches its *input* type.
                let src = model
                    .driver(PortRef::new(a.id, 0))
                    .ok_or_else(|| GenError::Internal("unconnected outport".into()))?;
                ctx.types.output(src.actor, src.port)
            } else {
                ctx.types.output(a.id, 0)
            };
            let id = match a.kind {
                ActorKind::Inport => ctx.add_buffer(name, ty, BufferKind::Input, None),
                ActorKind::Outport => ctx.add_buffer(name, ty, BufferKind::Output, None),
                ActorKind::Constant => {
                    let value = data_initialiser(a)
                        .ok_or_else(|| GenError::Internal("constant without value".into()))?;
                    ctx.add_data_buffer(a.id, name, ty, BufferKind::Const, Some(value))
                }
                ActorKind::UnitDelay => {
                    ctx.add_data_buffer(a.id, name, ty, BufferKind::State, data_initialiser(a))
                }
                _ => ctx.add_buffer(name, ty, BufferKind::Temp, None),
            };
            ctx.out_buf.push(id);
        }
        Ok(ctx)
    }

    /// Declare a buffer named `base`, suffixed (`_2`, `_3`, …) if another
    /// buffer already holds that identifier: distinct actor names can
    /// sanitize to one identifier, and derived names (`k_gain`, `z_next`)
    /// can meet an actor's own, so buffers never silently alias.
    pub fn add_buffer(
        &mut self,
        base: String,
        ty: SignalType,
        kind: BufferKind,
        init: Option<Vec<f64>>,
    ) -> BufferId {
        let name = unique_identifier(base, &mut self.used_names);
        self.prog.add_buffer(name, ty, kind, init)
    }

    /// [`GenContext::add_buffer`] for a buffer whose initialiser is
    /// `actor`'s [`data_initialiser`], recorded in the program's
    /// [`Program::data_buffers`] so a data-only edit can rewrite it.
    pub fn add_data_buffer(
        &mut self,
        actor: ActorId,
        base: String,
        ty: SignalType,
        kind: BufferKind,
        init: Option<Vec<f64>>,
    ) -> BufferId {
        let id = self.add_buffer(base, ty, kind, init);
        self.prog.data_buffers.push((actor, id));
        id
    }

    /// Attribute every top-level statement emitted from now on (until the
    /// next call) to `origin`. Recorded unconditionally — attribution is
    /// deterministic metadata, not gated on tracing — so equal inputs yield
    /// byte-identical programs whether or not observability is enabled.
    pub fn set_origin(&mut self, origin: Origin) {
        self.origin_marks.push((self.prog.body.len(), origin));
    }

    /// Record that a generator wrote an `Outport`'s buffer directly
    /// (output-variable reuse), so [`GenContext::finish`] skips its copy.
    pub fn mark_outport_written(&mut self, outport: ActorId) {
        self.written_outports.insert(outport);
    }

    /// The buffer holding the output value of `actor` (port 0).
    pub fn actor_buffer(&self, actor: ActorId) -> BufferId {
        self.out_buf[actor.0]
    }

    /// The buffer holding the value arriving at an input port.
    ///
    /// # Errors
    ///
    /// Returns [`GenError::Internal`] if the port is unconnected (excluded
    /// by validation).
    pub fn value_buffer(&self, input: PortRef) -> Result<BufferId, GenError> {
        let src = self
            .model
            .driver(input)
            .ok_or_else(|| GenError::Internal(format!("unconnected input {input}")))?;
        Ok(self.actor_buffer(src.actor))
    }

    /// Finish the program: emit the `Outport` copies and the end-of-step
    /// delay latches (`UnitDelay` state updates), in actor order.
    pub fn finish(mut self) -> Program {
        for a in &self.model.actors {
            if a.kind == ActorKind::Outport && !self.written_outports.contains(&a.id) {
                if let Ok(src) = self.value_buffer(PortRef::new(a.id, 0)) {
                    self.origin_marks
                        .push((self.prog.body.len(), Origin::actor(a.name.clone())));
                    self.prog.body.push(Stmt::Copy {
                        dst: self.actor_buffer(a.id),
                        src,
                    });
                }
            }
        }
        // Delay latches: a latch overwrites its state buffer, so any latch
        // *reading* that buffer (a delay chained off another delay) must run
        // first. Emit latches in that order; delays on a latch cycle (two
        // delays swapping values) go through shadow temporaries.
        let delays: Vec<ActorId> = self
            .model
            .actors
            .iter()
            .filter(|a| a.kind == ActorKind::UnitDelay)
            .map(|a| a.id)
            .collect();
        let driver_of: std::collections::BTreeMap<ActorId, ActorId> = delays
            .iter()
            .filter_map(|&d| {
                self.model
                    .driver(PortRef::new(d, 0))
                    .map(|src| (d, src.actor))
            })
            .collect();
        let mut pending: std::collections::BTreeSet<ActorId> = delays.iter().copied().collect();
        let mut order: Vec<ActorId> = Vec::with_capacity(delays.len());
        loop {
            // Emit any pending delay whose buffer is not read by another
            // pending latch.
            let safe: Vec<ActorId> = pending
                .iter()
                .copied()
                .filter(|&d| {
                    !pending
                        .iter()
                        .any(|&other| other != d && driver_of.get(&other) == Some(&d))
                })
                .collect();
            if safe.is_empty() {
                break;
            }
            for d in safe {
                pending.remove(&d);
                order.push(d);
            }
        }
        // Cycles: snapshot each remaining delay's driver value first.
        let cyclic: Vec<ActorId> = pending.into_iter().collect();
        let mut shadows = Vec::new();
        for &d in &cyclic {
            if let Ok(src) = self.value_buffer(PortRef::new(d, 0)) {
                let ty = self.types.output(d, 0);
                let shadow = self.add_buffer(
                    format!("{}_next", self.prog.buffer(self.actor_buffer(d)).name),
                    ty,
                    BufferKind::Temp,
                    None,
                );
                self.origin_marks.push((
                    self.prog.body.len(),
                    Origin::actor(self.model.actors[d.0].name.clone()),
                ));
                self.prog.body.push(Stmt::Copy { dst: shadow, src });
                shadows.push((d, shadow));
            }
        }
        for d in order {
            if let Ok(src) = self.value_buffer(PortRef::new(d, 0)) {
                self.origin_marks.push((
                    self.prog.body.len(),
                    Origin::actor(self.model.actors[d.0].name.clone()),
                ));
                self.prog.body.push(Stmt::Copy {
                    dst: self.actor_buffer(d),
                    src,
                });
            }
        }
        for (d, shadow) in shadows {
            self.origin_marks.push((
                self.prog.body.len(),
                Origin::actor(self.model.actors[d.0].name.clone()),
            ));
            self.prog.body.push(Stmt::Copy {
                dst: self.actor_buffer(d),
                src: shadow,
            });
        }
        // Materialise the marks into a per-statement origin table: each mark
        // covers statements from its position up to the next mark.
        let mut origins = vec![Origin::default(); self.prog.body.len()];
        for (k, (start, origin)) in self.origin_marks.iter().enumerate() {
            let end = self
                .origin_marks
                .get(k + 1)
                .map_or(self.prog.body.len(), |(p, _)| *p)
                .min(self.prog.body.len());
            let start = (*start).min(self.prog.body.len());
            for slot in &mut origins[start..end] {
                *slot = origin.clone();
            }
        }
        self.prog.origins = origins;
        self.prog
    }
}

/// The initialiser a data parameter gives `actor`'s buffer: a `Constant`'s
/// `value`, a `UnitDelay`'s `init`, or a `Gain`'s `gain` as a one-element
/// array; `None` for every other kind or a missing or non-numeric value.
///
/// These are the only parameters that reach a program as data rather than
/// code (see [`hcg_model::ModelDelta::data_only`]). The generator computes
/// each such initialiser through this function and
/// [`crate::EditSession`] rewrites them through it after a data-only edit,
/// so the two cannot drift.
pub fn data_initialiser(actor: &Actor) -> Option<Vec<f64>> {
    match actor.kind {
        ActorKind::Constant => actor.param("value")?.as_float_vec(),
        ActorKind::UnitDelay => actor.param("init")?.as_float_vec(),
        ActorKind::Gain => actor.param("gain")?.as_float().map(|g| vec![g]),
        _ => None,
    }
}

/// Lint a freshly generated program (debug/test builds only).
///
/// Error-severity findings mean the generator emitted a malformed program —
/// a generator bug — so this panics with the full report. Release builds
/// compile it to a no-op. Warnings are tolerated: generators may
/// legitimately emit, e.g., scratch buffers a later peephole pass removes.
pub fn debug_lint(prog: &Program) {
    let _ = debug_lint_stage(prog, true);
}

/// The inter-stage lint hook (debug/test builds only): lint the program as
/// it stands after a pipeline stage, tolerating incompleteness artifacts
/// for mid-pipeline programs (see [`hcg_analysis::lint_stage`]).
///
/// Returns the warning count, or `None` in release builds where the hook
/// compiles to a no-op.
///
/// # Panics
///
/// Panics (debug builds) when error-severity findings are present — a stage
/// emitted a malformed statement, which is a generator bug.
pub fn debug_lint_stage(prog: &Program, complete: bool) -> Option<usize> {
    #[cfg(debug_assertions)]
    {
        let lib = hcg_kernels::CodeLibrary::new();
        let report = hcg_analysis::lint_stage(prog, &lib, complete);
        assert!(
            !report.has_errors(),
            "generated program failed lint:\n{}",
            report.render()
        );
        Some(report.of_severity(hcg_analysis::Severity::Warning).len())
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = (prog, complete);
        None
    }
}

/// Whether [`debug_verify`] actually verifies. Off by default — symbolic
/// proofs are cheap but not free, and unit tests churn out thousands of
/// programs.
static DEBUG_VERIFY: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Opt in to (or out of) static translation validation of every generated
/// program. When enabled, [`run_stages`] — the driver behind every
/// `generate` path, sessions included — runs the `hcg-verify` symbolic
/// equivalence proof after the pipeline finishes — in debug/test
/// builds only, like [`debug_lint`] — and panics on any divergence, since a
/// generated program that does not implement its model is a generator bug.
pub fn set_debug_verify(enabled: bool) {
    DEBUG_VERIFY.store(enabled, std::sync::atomic::Ordering::Relaxed);
}

/// The post-generation verification hook (debug/test builds only, opt-in
/// via [`set_debug_verify`]): statically prove the finished program
/// equivalent to its model.
///
/// # Panics
///
/// Panics (debug builds, when enabled) on a divergence witness or a
/// verifier error — both mean the generator lowered the model incorrectly.
pub fn debug_verify(model: &Model, prog: &Program) {
    #[cfg(debug_assertions)]
    {
        if !DEBUG_VERIFY.load(std::sync::atomic::Ordering::Relaxed) {
            return;
        }
        match hcg_verify::verify_program(model, prog) {
            Ok(outcome) => {
                if let Some(w) = outcome.witness {
                    panic!(
                        "generated program diverges from its model ({} on {}): {w}",
                        prog.generator, prog.arch
                    );
                }
            }
            Err(e) => panic!(
                "static verification of {} on {} failed: {e}",
                prog.generator, prog.arch
            ),
        }
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = (model, prog);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcg_model::library;

    #[test]
    fn context_allocates_buffer_kinds() {
        let m = library::lowpass_model(64);
        let ctx = GenContext::new(&m, Arch::Neon128, "test").unwrap();
        let p = &ctx.prog;
        assert_eq!(p.buffers_of(BufferKind::Input).len(), 1);
        assert_eq!(p.buffers_of(BufferKind::Output).len(), 1);
        assert_eq!(p.buffers_of(BufferKind::State).len(), 1);
        assert_eq!(p.buffers_of(BufferKind::Const).len(), 1);
    }

    #[test]
    fn finish_emits_latches_and_output_copies() {
        let m = library::lowpass_model(64);
        let ctx = GenContext::new(&m, Arch::Neon128, "test").unwrap();
        let p = ctx.finish();
        // One outport copy + one delay latch.
        assert_eq!(p.stmt_stats().copies, 2);
    }

    #[test]
    fn sanitize_names() {
        assert_eq!(sanitize("a b-c"), "a_b_c");
        assert_eq!(sanitize("3x"), "_3x");
        assert_eq!(sanitize("ok_name"), "ok_name");
    }

    #[test]
    fn colliding_sanitized_names_get_distinct_buffers() {
        use hcg_model::{ActorKind, DataType, ModelBuilder, SignalType};
        // "a b" and "a_b" both sanitize to `a_b`.
        let ty = SignalType::vector(DataType::I32, 4);
        let mut b = ModelBuilder::new("collide");
        let x = b.inport("a b", ty);
        let y = b.inport("a_b", ty);
        let add = b.add_actor("sum", ActorKind::Add);
        let o = b.outport("o");
        b.connect(x, 0, add, 0);
        b.connect(y, 0, add, 1);
        b.connect(add, 0, o, 0);
        let m = b.build().unwrap();
        let ctx = GenContext::new(&m, Arch::Neon128, "test").unwrap();
        let names: Vec<&str> = ctx.prog.buffers.iter().map(|b| b.name.as_str()).collect();
        assert!(names.contains(&"a_b"), "{names:?}");
        assert!(names.contains(&"a_b_2"), "{names:?}");
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "buffer names must be unique");
    }

    /// Derived buffer names meeting actor names: a `Gain` named `k` next
    /// to an actor `k_gain`, and a swapping delay pair whose shadows
    /// (`z_next`, `w_next`) meet an actor `z_next`.
    fn derived_name_collisions() -> Model {
        use hcg_model::{DataType, ModelBuilder, SignalType};
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
        b.build().unwrap()
    }

    #[test]
    fn derived_buffer_names_never_collide() {
        let m = derived_name_collisions();
        for arch in Arch::ALL {
            let prog = crate::HcgGen::new().generate(&m, arch).unwrap();
            let names: Vec<&str> = prog.buffers.iter().map(|b| b.name.as_str()).collect();
            let unique: BTreeSet<&str> = names.iter().copied().collect();
            assert_eq!(unique.len(), names.len(), "{arch}: {names:?}");
            for derived in ["k_gain_2", "z_next_2"] {
                assert!(names.contains(&derived), "{arch}: {names:?}");
            }
        }
    }

    #[test]
    fn data_buffers_record_every_parameter_initialiser() {
        let m = derived_name_collisions();
        let prog = crate::HcgGen::new().generate(&m, Arch::Neon128).unwrap();
        let mut ctx = GenContext::new(&m, Arch::Neon128, "test").unwrap();
        let k = m.actor_by_name("k").unwrap().clone();
        crate::conventional::emit_conventional(&mut ctx, &k, crate::LoopStyle::LOOPS).unwrap();
        let recorded: Vec<(&str, &str)> = ctx
            .prog
            .data_buffers
            .iter()
            .map(|&(a, b)| {
                (
                    m.actors[a.0].name.as_str(),
                    ctx.prog.buffer(b).name.as_str(),
                )
            })
            .collect();
        assert_eq!(recorded, [("z", "z"), ("w", "w"), ("k", "k_gain_2")]);
        for &(a, b) in &ctx.prog.data_buffers {
            let decl = ctx.prog.buffer(b);
            assert_eq!(decl.init, data_initialiser(&m.actors[a.0]));
            let in_prog = prog
                .buffer_by_name(&decl.name)
                .map(|id| &prog.buffer(id).init);
            assert_eq!(in_prog, Some(&decl.init));
        }
    }

    #[test]
    fn value_buffer_follows_wires() {
        let m = library::fig4_model();
        let ctx = GenContext::new(&m, Arch::Neon128, "test").unwrap();
        let sub = m.actor_by_name("Sub").unwrap().id;
        let mul = m.actor_by_name("Mul").unwrap().id;
        // Mul's first input is driven by Sub.
        assert_eq!(
            ctx.value_buffer(PortRef::new(mul, 0)).unwrap(),
            ctx.actor_buffer(sub)
        );
    }
}
