//! `edit-replay`: seeded parameter edits to the six paper models, each
//! recompiled incrementally by an `EditSession` for both arches. An op is
//! one edit: apply the delta, generate and emit C for both targets.

use crate::cold::{paper_models, ARCHES, PAPER};
use crate::compile::Work;
use crate::oracle::fnv;
use crate::run::{
    set_code_quality, twin, Outcome, Timings, Window, DIGEST_OPS, TAIL_OPS, TRACE_EVENT_OPS,
};
use crate::stats;
use crate::streams::edit_pick;
use crate::trace::Tracer;
use hcg_bench::param_edit;
use hcg_core::emit::to_c_source;
use hcg_core::{CodeGenerator, EditSession, HcgGen};
use hcg_model::{Model, ModelDelta};
use hcg_vm::Program;
use std::time::Instant;

/// Every this-many-th edit of each model is compared with a scratch
/// compile, up to `CHECKS_PER_MODEL` times per run (a scratch compile of
/// FFT or DCT re-runs Algorithm 1 and costs tens of milliseconds).
const CHECK_EVERY: u64 = 1000;
const CHECKS_PER_MODEL: u64 = 10;

/// One editable session per paper model.
pub struct Edit {
    seed: u64,
    sessions: Vec<EditSession>,
}

/// A model state to recompile from scratch after the window, with the
/// programs the session produced for it. Programs are compared whole:
/// parameter edits change constant data, which the C text does not show.
struct Checkpoint {
    model: Model,
    edit: u64,
    programs: [Program; 2],
}

/// The programs and C texts of one edit, one per arch.
type Compiled = [(Program, String); 2];

/// A warm session: both arches compiled once, so the window measures
/// recompiles after an edit rather than the first cold compile.
fn warm_session(model: Model) -> Result<EditSession, String> {
    let mut session = EditSession::new(model);
    for arch in ARCHES {
        session
            .generate(&HcgGen::new(), arch)
            .map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok(session)
}

/// Apply `delta`, then generate and emit both arches.
fn edit_plain(session: &mut EditSession, delta: &ModelDelta) -> Result<Compiled, String> {
    session.apply_delta(delta).map_err(|e| e.to_string())?;
    let mut compile = |arch| {
        let program = session
            .generate(&HcgGen::new(), arch)
            .map_err(|e| e.to_string())?;
        let c = to_c_source(&program);
        Ok::<_, String>((program, c))
    };
    Ok([compile(ARCHES[0])?, compile(ARCHES[1])?])
}

/// [`edit_plain`] with a span around each call into a layer.
fn edit_traced(
    t: &mut Tracer,
    session: &mut EditSession,
    delta: &ModelDelta,
) -> Result<Compiled, String> {
    t.layer("core.incremental.apply", || session.apply_delta(delta))
        .map_err(|e| e.to_string())?;
    let mut compile = |arch| {
        let generator = HcgGen::new();
        let program = t
            .layer("core.incremental.generate", || {
                session.generate(&generator, arch)
            })
            .map_err(|e| e.to_string())?;
        let c = t.layer("core.emit", || to_c_source(&program));
        Ok::<_, String>((program, c))
    };
    Ok([compile(ARCHES[0])?, compile(ARCHES[1])?])
}

impl Edit {
    pub fn setup(seed: u64) -> Result<Edit, String> {
        let sessions = paper_models()
            .into_iter()
            .map(|(_, m)| warm_session(m))
            .collect::<Result<_, _>>()?;
        Ok(Edit { seed, sessions })
    }

    /// Op `i` edits model `i mod 6`; the edit is its `i / 6`-th.
    fn delta(&self, i: u64) -> Result<(usize, u64, ModelDelta), String> {
        let m = (i % PAPER.len() as u64) as usize;
        let k = i / PAPER.len() as u64;
        let delta = param_edit(self.sessions[m].model(), edit_pick(self.seed, m, k))
            .ok_or_else(|| format!("{} has no editable parameter", PAPER[m].0))?;
        Ok((m, k, delta))
    }

    fn judge(
        &self,
        i: u64,
        m: usize,
        k: u64,
        result: Result<Compiled, String>,
        out: &mut Outcome,
        checkpoints: &mut Vec<Checkpoint>,
    ) {
        let [(p0, c0), (p1, c1)] = match result {
            Ok(compiled) => compiled,
            Err(e) => {
                return out
                    .verdicts
                    .fail(format!("edit {k} of {}: {e}", PAPER[m].0))
            }
        };
        if i < DIGEST_OPS {
            out.digests
                .extend([(2 * i, fnv(c0.as_bytes())), (2 * i + 1, fnv(c1.as_bytes()))]);
        }
        if k.is_multiple_of(CHECK_EVERY) && k / CHECK_EVERY < CHECKS_PER_MODEL {
            checkpoints.push(Checkpoint {
                model: self.sessions[m].model().clone(),
                edit: k,
                programs: [p0, p1],
            });
        }
    }

    /// After the window: every checkpoint must match a scratch compile.
    fn verify(checkpoints: &[Checkpoint], out: &mut Outcome) {
        for cp in checkpoints {
            for (arch, incremental) in ARCHES.iter().zip(&cp.programs) {
                let scratch = HcgGen::new().generate(&cp.model, *arch);
                if scratch.as_ref() != Ok(incremental) {
                    out.verdicts.fail(format!(
                        "{} after edit {} on {arch}: incremental output differs from scratch",
                        cp.model.name, cp.edit
                    ));
                }
            }
        }
    }

    /// The end-to-end run.
    pub fn run(&mut self, seconds: f64) -> Outcome {
        let mut out = Outcome::default();
        let mut timings = Timings::new();
        let mut checkpoints = Vec::new();
        let window = Window::open(seconds, TAIL_OPS);
        let mut i = 0;
        while !window.done(i) {
            let (m, k, result) = match self.delta(i) {
                Ok((m, k, delta)) => {
                    let started = Instant::now();
                    let result = edit_plain(&mut self.sessions[m], &delta);
                    timings.record(&window, started, Instant::now());
                    (m, k, result)
                }
                Err(e) => (0, 0, Err(e)),
            };
            self.judge(i, m, k, result, &mut out, &mut checkpoints);
            i += 1;
        }
        out.attempted = i;
        out.set_end_to_end(&timings);
        Self::verify(&checkpoints, &mut out);
        out
    }

    /// The traced run: a twin session per model receives every edit
    /// untraced; the two sessions' C text must match edit for edit.
    pub fn run_traced(&mut self, seconds: f64) -> (Outcome, Tracer) {
        let mut out = Outcome::default();
        let mut twins: Vec<EditSession> = match self
            .sessions
            .iter()
            .map(|s| warm_session(s.model().clone()))
            .collect()
        {
            Ok(t) => t,
            Err(e) => {
                out.verdicts.fail(e);
                return (out, Tracer::new(0));
            }
        };
        crate::alloc::set_counting(true);
        let mut t = Tracer::new(TRACE_EVENT_OPS);
        let mut checkpoints = Vec::new();
        let mut per_model: Vec<Vec<f64>> = vec![Vec::new(); PAPER.len()];
        let (mut invalidated, mut spliced, mut admitted) = (0, 0, 0);
        let mut plain_us = 0.0;
        let window = Window::open(seconds, DIGEST_OPS);
        let mut i = 0;
        while !window.done(i) {
            let (m, k, result) = match self.delta(i) {
                Ok((m, k, delta)) => {
                    let before = self.sessions[m].stats();
                    let session = &mut self.sessions[m];
                    let twin_session = &mut twins[m];
                    let ((traced, us), plain, p_us) = twin(
                        i,
                        || t.op(|t| edit_traced(t, session, &delta)),
                        || edit_plain(twin_session, &delta),
                    );
                    plain_us += p_us;
                    per_model[m].push(us);
                    let after = self.sessions[m].stats();
                    invalidated += after.regions_invalidated - before.regions_invalidated;
                    spliced += after.plans_spliced - before.plans_spliced;
                    admitted += after.regions_admitted - before.regions_admitted;
                    let result = traced.and_then(|c| match plain {
                        Ok(p) if p == c => Ok(c),
                        _ => Err("traced output differs from the untraced session".to_owned()),
                    });
                    (m, k, result)
                }
                Err(e) => (0, 0, Err(e)),
            };
            self.judge(i, m, k, result, &mut out, &mut checkpoints);
            i += 1;
        }
        out.attempted = i;
        out.set_layers(&t, &Work::default(), plain_us);
        let ops = t.ops.max(1) as f64;
        out.set(
            "core.incremental.regions_invalidated_per_op",
            invalidated as f64 / ops,
        );
        out.set(
            "core.incremental.plans_spliced_per_op",
            spliced as f64 / ops,
        );
        out.set(
            "core.incremental.regions_admitted_per_op",
            admitted as f64 / ops,
        );
        for ((name, _), lat) in PAPER.iter().zip(&mut per_model) {
            lat.sort_by(f64::total_cmp);
            if !lat.is_empty() {
                out.set(format!("edit_us_p50.{name}"), stats::percentile(lat, 0.5));
            }
        }
        Self::verify(&checkpoints, &mut out);
        let sample: Vec<_> = checkpoints
            .iter()
            .filter(|cp| cp.edit == 0)
            .flat_map(|cp| ARCHES.map(|a| (cp.model.clone(), a)))
            .collect();
        set_code_quality(&mut out, &sample);
        (out, t)
    }
}
