//! Front-end instrumentation: how many times the expensive model analyses
//! (type inference, scheduling) actually ran.
//!
//! The staged compilation pipeline caches both artifacts in a
//! `CompileSession` so that a fleet of generator × architecture runs shares
//! one computation per model. These counters make that reuse *testable*:
//! a session-cache test snapshots them, drives the whole fleet, and asserts
//! the delta is exactly one.
//!
//! Counters are thread-local so parallel test threads (and parallel fleet
//! shards) never observe each other's runs. They are probes, not
//! telemetry: the analyses return no record to carry a count, and only
//! tests and `repro` read these cells, as a before/after difference.

use std::cell::Cell;

thread_local! {
    static TYPE_INFERENCE_RUNS: Cell<u64> = const { Cell::new(0) };
    static SCHEDULE_RUNS: Cell<u64> = const { Cell::new(0) };
}

/// Number of [`Model::infer_types`](crate::Model::infer_types) executions on
/// this thread since it started.
pub fn type_inference_runs() -> u64 {
    TYPE_INFERENCE_RUNS.with(Cell::get)
}

/// Number of [`schedule`](crate::schedule::schedule) executions on this
/// thread since it started.
pub fn schedule_runs() -> u64 {
    SCHEDULE_RUNS.with(Cell::get)
}

pub(crate) fn note_type_inference() {
    TYPE_INFERENCE_RUNS.with(|c| c.set(c.get() + 1));
}

pub(crate) fn note_schedule() {
    SCHEDULE_RUNS.with(|c| c.set(c.get() + 1));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library;
    use crate::schedule::schedule;

    #[test]
    fn counters_track_runs() {
        let m = library::fig4_model();
        let t0 = type_inference_runs();
        let s0 = schedule_runs();
        m.infer_types().unwrap();
        m.infer_types().unwrap();
        schedule(&m).unwrap();
        assert_eq!(type_inference_runs() - t0, 2);
        assert_eq!(schedule_runs() - s0, 1);
    }
}
