//! # hcg-exec — the parallel execution engine
//!
//! A scoped thread pool for compilation fleets: the evaluation harness
//! fans its model × generator × architecture
//! [`CompileSession`](../hcg_core/struct.CompileSession.html) jobs across N
//! workers, and the compile daemon starts its long-lived worker loops on
//! it. Three properties matter more than raw scheduling cleverness:
//!
//! 1. **Deterministic result ordering** — results come back indexed by
//!    submission order, so a parallel fleet run is byte-identical to the
//!    sequential run no matter how jobs interleave.
//! 2. **Per-job panic isolation** — a panicking job becomes an
//!    `Err(JobPanic)` in its result slot instead of tearing down the whole
//!    fleet.
//! 3. **Borrowed job state** — jobs run on [`std::thread::scope`] threads,
//!    so they can borrow shared state (sessions, instruction sets) without
//!    `Arc`-wrapping the world.
//!
//! The scheduler is one shared atomic index: each worker takes the next
//! unclaimed job by submission index and writes its outcome into that
//! index's result slot. Jobs never spawn jobs, so a worker exits as soon
//! as the index runs past the last job. With as many workers as jobs,
//! every job runs at once.
//!
//! # Examples
//!
//! ```
//! let jobs: Vec<_> = (0..16).map(|i| move || i * i).collect();
//! let results = hcg_exec::run_jobs(4, jobs);
//! let squares: Vec<i32> = results.into_iter().map(|r| r.unwrap()).collect();
//! assert_eq!(squares[5], 25); // submission order, not completion order
//! ```

#![warn(missing_docs)]

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A job panicked; the payload message is preserved, the fleet continues.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// Submission index of the job that panicked.
    pub index: usize,
    /// Panic payload rendered as text (`&str`/`String` payloads verbatim,
    /// anything else as a placeholder).
    pub message: String,
}

impl fmt::Display for JobPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for JobPanic {}

/// Per-job outcome: the job's value, or the isolated panic.
pub type JobResult<T> = Result<T, JobPanic>;

/// Resolve a requested thread count: `0` means "all available cores",
/// anything else is taken as-is (callers cap against job count separately).
pub fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        requested
    }
}

/// The workers a run of `n_jobs` jobs spawns for a request of `threads`:
/// never more than there are jobs, and none for no jobs.
fn worker_count(threads: usize, n_jobs: usize) -> usize {
    effective_threads(threads).min(n_jobs)
}

/// Run `jobs` on a pool of up to `threads` workers and return one
/// [`JobResult`] per job **in submission order**.
///
/// `threads == 0` uses every available core. The pool never spawns more
/// workers than there are jobs. Jobs may borrow from the caller's stack —
/// workers are scoped threads.
pub fn run_jobs<T, F>(threads: usize, jobs: Vec<F>) -> Vec<JobResult<T>>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n_jobs = jobs.len();
    let workers = worker_count(threads, n_jobs);

    // Job `i` and its result share index `i`; a worker claims an index
    // from `next`, so each job is taken exactly once.
    let jobs: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let slots: Vec<Mutex<Option<JobResult<T>>>> = (0..n_jobs).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    // Capture the submitter's trace context so spans recorded inside the
    // jobs stitch under the submitting thread's open span — one request's
    // compile fan-out stays one tree even across the pool boundary.
    let submitter_ctx = hcg_obs::current_trace_context();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let _trace = hcg_obs::trace_scope(submitter_ctx);
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(index) else {
                        break; // every job is claimed
                    };
                    let job = job
                        .lock()
                        .expect("job lock poisoned")
                        .take()
                        .expect("each job index is claimed once");
                    let _job_span = hcg_obs::span_with("exec", || format!("job{index}"));
                    let outcome = catch_unwind(AssertUnwindSafe(job)).map_err(|payload| JobPanic {
                        index,
                        message: panic_message(payload.as_ref()),
                    });
                    *slots[index].lock().expect("slot lock poisoned") = Some(outcome);
                }
                // Publish any still-buffered spans before the scope joins
                // this worker: thread-local destructors can run after the
                // join, so without this flush a caller draining events
                // right after `run_jobs` returns could miss worker spans.
                hcg_obs::flush_thread();
            });
        }
    });

    // The scope joined every worker and re-raises a worker's own panic,
    // so each claimed job has reported by now.
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock poisoned")
                .expect("every job reports before the workers join")
        })
        .collect()
}

/// Render a panic payload the way the default hook does: `&str` and
/// `String` payloads verbatim, anything else as a placeholder.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::{Duration, Instant};

    #[test]
    fn empty_fleet() {
        let jobs: Vec<fn() -> u32> = Vec::new();
        assert!(run_jobs(4, jobs).is_empty());
        assert_eq!(worker_count(4, 0), 0);
    }

    #[test]
    fn results_in_submission_order_regardless_of_threads() {
        for threads in [1, 2, 3, 8, 0] {
            let jobs: Vec<_> = (0..37usize).map(|i| move || i * 3).collect();
            let results = run_jobs(threads, jobs);
            for (i, r) in results.iter().enumerate() {
                assert_eq!(*r.as_ref().unwrap(), i * 3, "threads={threads}");
            }
        }
    }

    #[test]
    fn workers_capped_by_job_count() {
        assert_eq!(worker_count(16, 2), 2);
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(7), 7);
    }

    #[test]
    fn jobs_can_borrow_caller_state() {
        let data: Vec<u64> = (0..100).collect();
        let slices: Vec<&[u64]> = data.chunks(10).collect();
        let jobs: Vec<_> = slices
            .iter()
            .map(|chunk| move || chunk.iter().sum::<u64>())
            .collect();
        let total: u64 = run_jobs(4, jobs).into_iter().map(|r| r.unwrap()).sum();
        assert_eq!(total, data.iter().sum::<u64>());
    }

    #[test]
    fn panic_is_isolated_to_its_slot() {
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..8usize)
            .map(|i| {
                Box::new(move || {
                    if i == 3 {
                        panic!("boom {i}");
                    }
                    i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let results = run_jobs(4, jobs);
        for (i, r) in results.iter().enumerate() {
            if i == 3 {
                let e = r.as_ref().unwrap_err();
                assert_eq!(e.index, 3);
                assert!(e.message.contains("boom 3"), "{}", e.message);
            } else {
                assert_eq!(*r.as_ref().unwrap(), i);
            }
        }
    }

    #[test]
    fn n_jobs_on_n_threads_all_run_at_once() {
        // The compile daemon starts its worker loops as one job per
        // thread; that only works if every job is running before any job
        // finishes. Each job waits (up to a deadline, so a regression
        // fails instead of hanging) until all have arrived.
        const N: usize = 4;
        let arrived = AtomicUsize::new(0);
        let deadline = Instant::now() + Duration::from_secs(5);
        let jobs: Vec<_> = (0..N)
            .map(|_| {
                || {
                    arrived.fetch_add(1, Ordering::SeqCst);
                    while arrived.load(Ordering::SeqCst) < N && Instant::now() < deadline {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    arrived.load(Ordering::SeqCst)
                }
            })
            .collect();
        for (i, r) in run_jobs(N, jobs).into_iter().enumerate() {
            assert_eq!(r.unwrap(), N, "job {i} ran without the others");
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        static COUNT: AtomicUsize = AtomicUsize::new(0);
        let jobs: Vec<_> = (0..200usize)
            .map(|i| {
                move || {
                    COUNT.fetch_add(1, Ordering::Relaxed);
                    i
                }
            })
            .collect();
        let results = run_jobs(0, jobs);
        assert_eq!(results.len(), 200);
        assert_eq!(COUNT.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn empty_fleet_with_zero_threads() {
        // `threads == 0` resolves to core count, but an empty job list must
        // still spawn nothing at all.
        let jobs: Vec<fn() -> u32> = Vec::new();
        assert!(run_jobs(0, jobs).is_empty());
        assert_eq!(worker_count(0, 0), 0);
    }

    #[test]
    fn single_thread_keeps_submission_order() {
        let jobs: Vec<_> = (0..50usize).map(|i| move || i + 1).collect();
        assert_eq!(worker_count(1, 50), 1);
        let results = run_jobs(1, jobs);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(*r.as_ref().unwrap(), i + 1);
        }
    }

    #[test]
    fn single_job_with_huge_thread_request() {
        // 10 000 requested threads, one job: the pool spawns one worker.
        assert_eq!(worker_count(10_000, 1), 1);
    }

    #[test]
    fn many_more_threads_than_jobs() {
        // Excess workers must exit cleanly without claiming phantom work
        // or dropping result slots.
        for threads in [5, 64, 1000] {
            let jobs: Vec<_> = (0..3usize).map(|i| move || i * 7).collect();
            assert_eq!(worker_count(threads, 3), 3, "threads={threads}");
            let results = run_jobs(threads, jobs);
            assert_eq!(results.len(), 3);
            for (i, r) in results.iter().enumerate() {
                assert_eq!(*r.as_ref().unwrap(), i * 7);
            }
        }
    }

    #[test]
    fn all_jobs_panicking_still_returns_every_slot() {
        for threads in [1, 4] {
            let jobs: Vec<_> = (0..6usize)
                .map(|i| move || -> usize { panic!("dead {i}") })
                .collect();
            let results = run_jobs(threads, jobs);
            assert_eq!(results.len(), 6);
            for (i, r) in results.iter().enumerate() {
                let e = r.as_ref().unwrap_err();
                assert_eq!(e.index, i);
                assert!(e.message.contains(&format!("dead {i}")));
            }
        }
    }

    #[test]
    fn string_and_non_string_panic_payloads() {
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = vec![
            Box::new(|| std::panic::panic_any("static str".to_owned())),
            Box::new(|| std::panic::panic_any(17u32)),
        ];
        let results = run_jobs(2, jobs);
        assert_eq!(results[0].as_ref().unwrap_err().message, "static str");
        assert_eq!(
            results[1].as_ref().unwrap_err().message,
            "non-string panic payload"
        );
    }

    #[test]
    fn panic_display_formats() {
        let p = JobPanic {
            index: 2,
            message: "x".into(),
        };
        assert_eq!(p.to_string(), "job 2 panicked: x");
    }
}
