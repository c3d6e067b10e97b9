//! A scheduler batch runs on one thread per pool worker plus one per
//! job, not on a set of worker threads per job. Sampled from
//! `/proc/self/status` while four tenants train on a 4-worker pool, the
//! process never holds more than it did before the batch, plus the
//! sampler, the 4 worker threads and the 4 job threads. (This file holds
//! one test, so no other test's threads are counted.)

#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use hetgc_runtime::WorkerBehavior;
use hetgc_sched::{JobScheduler, JobSpec, SharedWorkerPool};

/// The `Threads:` line of this process's `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads line")
}

#[test]
fn a_batch_runs_one_thread_per_pool_worker_and_per_job() {
    const WORKERS: usize = 4;
    const TENANTS: usize = 4;
    let delay = WorkerBehavior::nominal().with_delay(Duration::from_millis(2));
    let pool = SharedWorkerPool::new(vec![1.0; WORKERS])
        .with_behaviors(vec![delay; WORKERS])
        .with_max_concurrent(TENANTS);
    let sched = (0..TENANTS).fold(JobScheduler::new(pool), |sched, t| {
        sched.submit(JobSpec::new(format!("tenant-{t}")).with_rounds(40))
    });

    // The test's own threads: main and, when the harness runs the test
    // on a thread of its own, that one.
    let before = threads();
    let done = AtomicBool::new(false);
    let (report, peak) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut peak = 0;
            while !done.load(Ordering::Acquire) {
                peak = peak.max(threads());
                std::thread::sleep(Duration::from_micros(500));
            }
            peak
        });
        let report = sched.run();
        done.store(true, Ordering::Release);
        (report, sampler.join().expect("sampler"))
    });
    let report = report.expect("batch");
    assert_eq!(report.peak_concurrent, TENANTS, "the tenants overlapped");
    assert!(report.outcomes.iter().all(|o| o.rounds() == 40));

    let ceiling = before + 1 + WORKERS + TENANTS;
    assert!(
        peak <= ceiling,
        "{peak} threads during the batch, at most {ceiling} expected"
    );
    assert!(
        peak > before + 1 + WORKERS,
        "the sampler saw the batch ({peak} threads)"
    );
    assert_eq!(
        threads(),
        before,
        "the batch joined every thread it started"
    );
}
