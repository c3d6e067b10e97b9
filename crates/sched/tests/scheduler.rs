//! The scheduler's acceptance contract:
//!
//! * ≥ 4 jobs genuinely concurrent over one shared pool, with batch
//!   throughput ≥ 1.3× the sequential baseline;
//! * cross-job decode-plan reuse visible in the shared cache's counters
//!   (solves strictly below lookups, hits from every follower tenant);
//! * per-job `job_id` attribution on every interleaved record, and a
//!   report whose round numbers are read off those records.

use std::time::Duration;

use hetgc::{CodecBackend, EscalationPolicy};
use hetgc_runtime::WorkerBehavior;
use hetgc_sched::{JobScheduler, JobSpec, SharedWorkerPool};

/// A 4-worker fleet whose rounds are sleep-dominated (every worker adds
/// a fixed delay) with one consistent straggler, so concurrent jobs
/// overlap their waiting and every job decodes the same survivor set.
fn delay_pool(max_concurrent: usize) -> SharedWorkerPool {
    let fast = WorkerBehavior::nominal().with_delay(Duration::from_millis(10));
    let slow = WorkerBehavior::nominal().with_delay(Duration::from_millis(30));
    SharedWorkerPool::new(vec![1.0; 4])
        .with_behaviors(vec![fast.clone(), fast.clone(), fast, slow])
        .with_max_concurrent(max_concurrent)
}

#[test]
fn four_concurrent_jobs_beat_sequential_and_share_plans() {
    let pool = delay_pool(4);
    let mut sched = JobScheduler::new(pool.clone());
    for name in ["tenant-a", "tenant-b", "tenant-c", "tenant-d"] {
        // Equal seeds → identical codes → one decode-plan namespace.
        sched = sched.submit(JobSpec::new(name).with_rounds(5).with_seed(11));
    }

    let scheduled = sched.run().expect("concurrent batch");
    let sequential = sched.run_sequential().expect("sequential baseline");

    assert_eq!(scheduled.outcomes.len(), 4);
    assert_eq!(
        scheduled.peak_concurrent, 4,
        "all four tenants must actually overlap"
    );
    assert_eq!(
        sequential.peak_concurrent, 1,
        "a batch reports its own peak, not the pool's lifetime one"
    );
    for outcome in &scheduled.outcomes {
        assert_eq!(outcome.rounds(), 5, "{}", outcome.label);
        assert!(!outcome.stalled);
    }

    // Throughput: overlapped sleep-dominated rounds must beat running
    // the same four jobs back to back.
    let speedup = scheduled.jobs_per_sec() / sequential.jobs_per_sec();
    assert!(
        speedup >= 1.3,
        "scheduled {:.2} jobs/s vs sequential {:.2} jobs/s (×{speedup:.2}) — {}",
        scheduled.jobs_per_sec(),
        sequential.jobs_per_sec(),
        scheduled.summary(),
    );

    // Cross-job plan reuse: worker 3 is always last, so every tenant
    // decodes the same survivor set; the first to need the plan solves
    // it, the rest hit the shared cache.
    assert!(
        scheduled.cache_solves < scheduled.cache_lookups,
        "solves {} must stay below lookups {}",
        scheduled.cache_solves,
        scheduled.cache_lookups,
    );
    assert!(
        scheduled.cache_hits >= 3,
        "three follower tenants must reuse the leader's solve (hits = {})",
        scheduled.cache_hits,
    );

    // The records are the batch's round history: every tenant's rounds…
    let records: Vec<_> = scheduled.outcomes.iter().flat_map(|o| &o.records).collect();
    assert_eq!(records.len(), 20);
    // …and its data plane: the threaded master pools its decode
    // buffers, so the rounds after the first recycle them.
    let recycled: u64 = records
        .iter()
        .filter(|r| r.round > 1)
        .map(|r| r.pool_hits)
        .sum();
    assert!(recycled > 0);
}

#[test]
fn records_carry_their_jobs_tag() {
    let pool = delay_pool(2);
    let report = JobScheduler::new(pool)
        .submit(JobSpec::new("alpha").with_rounds(3))
        .submit(JobSpec::new("beta").with_rounds(3).with_seed(9))
        .run()
        .expect("batch");
    assert_eq!(report.outcomes.len(), 2);
    for outcome in &report.outcomes {
        assert!(!outcome.records.is_empty());
        for record in &outcome.records {
            assert_eq!(
                record.job_id.as_deref(),
                Some(outcome.label.as_str()),
                "every interleaved record is attributable"
            );
            // The tag survives the JSONL round trip.
            let parsed = hetgc::RoundRecord::from_json(&record.to_json()).unwrap();
            assert_eq!(&parsed, record);
        }
    }
    // The second tenant's rounds flowed through the collect path.
    let beta = report
        .outcomes
        .iter()
        .find(|o| o.label == "beta")
        .expect("beta outcome");
    assert_eq!(beta.records.len(), 3);
    assert!(beta.records.iter().all(|r| r.results_used > 0));
}

#[test]
fn summary_reads_the_escalated_share_off_the_records() {
    // Worker 3 misses a 40 ms deadline every round. The zero-straggler
    // job needs it, so each of its rounds decodes approximately from the
    // other three; the s = 1 job decodes exactly without it.
    let fast = WorkerBehavior::nominal().with_delay(Duration::from_millis(5));
    let late = WorkerBehavior::nominal().with_delay(Duration::from_millis(150));
    let pool = SharedWorkerPool::new(vec![1.0; 4]).with_behaviors(vec![
        fast.clone(),
        fast.clone(),
        fast,
        late,
    ]);
    let deadline = EscalationPolicy::follow_backend().with_deadline(Duration::from_millis(40));
    let report = JobScheduler::new(pool)
        .submit(JobSpec::new("exact").with_rounds(3))
        .submit(
            JobSpec::new("escalating")
                .with_rounds(3)
                .with_stragglers(0)
                .with_backend(CodecBackend::Approx)
                .with_escalation(deadline),
        )
        .run()
        .expect("batch");

    let summary = report.summary();
    let approx: Vec<usize> = report.outcomes.iter().map(|o| o.approx_rounds()).collect();
    assert_eq!(approx, vec![0, 3], "{summary}");
    let rounds: usize = report.outcomes.iter().map(|o| o.rounds()).sum();
    let escalated: usize = approx.iter().sum();
    let share = format!("esc={:.1}%", 100.0 * escalated as f64 / rounds as f64);
    assert!(summary.contains(&share), "{summary} lacks {share}");
    assert_eq!(summary.matches("jobs/s=").count(), 1, "{summary}");
}
