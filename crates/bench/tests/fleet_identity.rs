//! Byte-identity guarantee of the parallel fleet: for every benchmark
//! model × generator × architecture job, the C source generated through
//! the `hcg-exec` pool is identical to the sequential reference,
//! whatever the worker count.

use hcg_bench::experiments::benchmark_sessions;
use hcg_bench::fleet::{fleet_jobs, run_fleet, run_fleet_sequential, FLEET_ARCHES};

#[test]
fn parallel_fleet_is_byte_identical_to_sequential() {
    let reference_sessions = benchmark_sessions();
    let reference = run_fleet_sequential(&reference_sessions, &FLEET_ARCHES);
    let jobs = fleet_jobs(reference_sessions.len(), &FLEET_ARCHES);
    assert_eq!(reference.outcomes.len(), jobs.len());
    assert_eq!(
        jobs.len(),
        reference_sessions.len() * 3 * FLEET_ARCHES.len(),
        "all models x 3 generators x {} arches",
        FLEET_ARCHES.len()
    );

    for threads in [1usize, 2, 8] {
        // Fresh sessions per run: worker threads must not benefit from the
        // reference run's cached artifacts.
        let sessions = benchmark_sessions();
        let run = run_fleet(&sessions, &FLEET_ARCHES, threads);
        assert_eq!(run.ok_count(), jobs.len(), "threads={threads}");
        for ((job, reference), parallel) in jobs.iter().zip(&reference.outcomes).zip(&run.outcomes)
        {
            let reference = reference.as_ref().expect("sequential job succeeds");
            let parallel = parallel.as_ref().expect("parallel job succeeds");
            assert_eq!(parallel.model, reference.model, "threads={threads} {job:?}");
            assert_eq!(
                parallel.source, reference.source,
                "threads={threads}: {} via {} on {} diverged",
                reference.model, job.generator, job.arch
            );
        }
    }
}

#[test]
fn cost_tables_identical_across_thread_counts() {
    use hcg_bench::experiments::{fig5, table2};
    let reference = table2(1);
    assert_eq!(reference.len(), 6);
    for threads in [2usize, 8] {
        assert_eq!(table2(threads), reference, "table2 threads={threads}");
    }
    let fig5_reference = fig5(1);
    let fig5_parallel = fig5(8);
    assert_eq!(fig5_reference, fig5_parallel);
}
