//! Parallel evaluation fleet: fan the `model × generator × architecture`
//! compile jobs of the paper's evaluation across the [`hcg_exec`] pool,
//! one pool job per compile.
//!
//! One [`CompileSession`] per model is shared by reference across worker
//! threads (the session's caches are `OnceLock`s, so whichever worker
//! touches an artifact first computes it for everyone). Results come back
//! in submission order regardless of worker interleaving, and every job's
//! generated C source is captured so callers can assert byte-identity with
//! a sequential run.

use crate::experiments::short_name;
use hcg_baselines::{DfSynthGen, SimulinkCoderGen};
use hcg_core::emit::to_c_source;
use hcg_core::{CodeGenerator, CompileSession, HcgGen};
use hcg_isa::Arch;

/// Generator short names the fleet drives, in evaluation order.
pub const FLEET_GENERATORS: [&str; 3] = ["simulink-coder", "dfsynth", "hcg"];

/// Architectures the fleet sweeps by default (the paper's two ISAs:
/// ARM NEON and Intel AVX2).
pub const FLEET_ARCHES: [Arch; 2] = [Arch::Neon128, Arch::Avx256];

/// Construct a generator by its [`CodeGenerator::name`]. Generators are
/// built inside each job (an [`HcgGen`] holds a `RefCell` autotuner, so it
/// is not `Sync`); this matches the sequential drivers, which also build
/// fresh generators per row.
///
/// # Panics
///
/// Panics on an unknown generator name.
pub fn generator_named(name: &str) -> Box<dyn CodeGenerator> {
    match name {
        "simulink-coder" => Box::new(SimulinkCoderGen::new()),
        "dfsynth" => Box::new(DfSynthGen::new()),
        "hcg" => Box::new(HcgGen::new()),
        other => panic!("unknown generator {other:?}"),
    }
}

/// One compile job of the fleet: a model (by session index), a generator
/// and a target architecture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetJob {
    /// Index into the session slice passed to [`run_fleet`].
    pub session: usize,
    /// Generator short name (see [`FLEET_GENERATORS`]).
    pub generator: &'static str,
    /// Target architecture.
    pub arch: Arch,
}

/// The cross product `sessions × FLEET_GENERATORS × arches`, in the
/// deterministic order the sequential drivers use (model-major, then
/// generator, then architecture).
pub fn fleet_jobs(n_sessions: usize, arches: &[Arch]) -> Vec<FleetJob> {
    let mut jobs = Vec::with_capacity(n_sessions * FLEET_GENERATORS.len() * arches.len());
    for session in 0..n_sessions {
        for generator in FLEET_GENERATORS {
            for &arch in arches {
                jobs.push(FleetJob {
                    session,
                    generator,
                    arch,
                });
            }
        }
    }
    jobs
}

/// One completed fleet job: the generated program's C source plus
/// book-keeping for reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetOutcome {
    /// Model short name.
    pub model: String,
    /// Generator short name.
    pub generator: &'static str,
    /// Target architecture.
    pub arch: Arch,
    /// Rendered C source of the generated program — the byte-identity
    /// witness.
    pub source: String,
}

/// A fleet run's results: outcomes in job-submission order.
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// Per-job outcomes, in [`fleet_jobs`] order. `Err` carries the panic
    /// message of a job that died (panics are isolated per job).
    pub outcomes: Vec<Result<FleetOutcome, String>>,
}

impl FleetRun {
    /// Jobs completed without panicking.
    pub fn ok_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_ok()).count()
    }

    /// The generated sources, in job order.
    ///
    /// # Panics
    ///
    /// Panics if any job failed.
    pub fn sources(&self) -> Vec<&str> {
        self.outcomes
            .iter()
            .map(|o| match o {
                Ok(out) => out.source.as_str(),
                Err(e) => panic!("fleet job failed: {e}"),
            })
            .collect()
    }
}

fn run_one(sessions: &[CompileSession], job: &FleetJob) -> FleetOutcome {
    let session = &sessions[job.session];
    let _job_span = hcg_obs::span_with("fleet", || {
        format!(
            "{}/{}@{}",
            short_name(session.model()),
            job.generator,
            job.arch
        )
    });
    let gen = generator_named(job.generator);
    let prog = session
        .generate(gen.as_ref(), job.arch)
        .unwrap_or_else(|e| panic!("{} on {}: {e}", job.generator, session.model().name));
    FleetOutcome {
        model: short_name(session.model()),
        generator: job.generator,
        arch: job.arch,
        source: to_c_source(&prog),
    }
}

/// Run the fleet across `threads` workers (`0` = available parallelism),
/// one pool job per compile. Results return in submission order; a
/// panicking job surfaces as an `Err` slot without taking down its worker
/// or the run.
pub fn run_fleet(sessions: &[CompileSession], arches: &[Arch], threads: usize) -> FleetRun {
    let jobs = fleet_jobs(sessions.len(), arches);
    let closures: Vec<_> = jobs
        .iter()
        .map(|job| move || run_one(sessions, job))
        .collect();
    let outcomes = hcg_exec::run_jobs(threads, closures)
        .into_iter()
        .map(|result| result.map_err(|p| p.message))
        .collect();
    FleetRun { outcomes }
}

/// The sequential baseline: the same jobs in the same order on the caller
/// thread, without any pool machinery — the reference a parallel run's
/// outputs are compared against.
pub fn run_fleet_sequential(sessions: &[CompileSession], arches: &[Arch]) -> FleetRun {
    let jobs = fleet_jobs(sessions.len(), arches);
    let outcomes = jobs.iter().map(|job| Ok(run_one(sessions, job))).collect();
    FleetRun { outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::benchmark_sessions;

    #[test]
    fn job_order_is_model_major() {
        let jobs = fleet_jobs(2, &FLEET_ARCHES);
        assert_eq!(jobs.len(), 2 * 3 * 2);
        assert_eq!(jobs[0].session, 0);
        assert_eq!(jobs[0].generator, "simulink-coder");
        assert_eq!(jobs[0].arch, Arch::Neon128);
        assert_eq!(jobs[1].arch, Arch::Avx256);
        assert_eq!(jobs[2].generator, "dfsynth");
        assert_eq!(jobs[6].session, 1);
    }

    #[test]
    fn parallel_matches_sequential() {
        let seq_sessions: Vec<CompileSession> = benchmark_sessions().into_iter().take(2).collect();
        let seq = run_fleet_sequential(&seq_sessions, &FLEET_ARCHES);
        let par_sessions: Vec<CompileSession> = benchmark_sessions().into_iter().take(2).collect();
        let par = run_fleet(&par_sessions, &FLEET_ARCHES, 3);
        assert_eq!(seq.outcomes.len(), par.outcomes.len());
        assert_eq!(seq.sources(), par.sources());
    }

    #[test]
    fn fleet_smoke_on_one_model() {
        let sessions: Vec<CompileSession> = benchmark_sessions().into_iter().take(1).collect();
        let run = run_fleet(&sessions, &[Arch::Neon128], 2);
        assert_eq!(run.outcomes.len(), 3);
        assert_eq!(run.ok_count(), 3);
        for (job, out) in fleet_jobs(1, &[Arch::Neon128]).iter().zip(&run.outcomes) {
            let out = out.as_ref().unwrap();
            assert_eq!(out.generator, job.generator);
            assert!(!out.source.is_empty());
        }
    }
}
