//! A spec no job could run is the caller's typed error, named after the
//! job and returned before anything is built, leased or spawned — by
//! [`JobScheduler::run`] and [`JobScheduler::run_sequential`] alike.

use hetgc_sched::{JobError, JobScheduler, JobSpec, SharedWorkerPool};

fn assert_rejected(bad: JobSpec, reason: &str) {
    let pool = SharedWorkerPool::new(vec![1.0, 2.0, 2.0, 4.0]);
    let sched = JobScheduler::new(pool.clone())
        .submit(JobSpec::new("fine"))
        .submit(bad);
    for concurrent in [true, false] {
        let run = if concurrent {
            sched.run()
        } else {
            sched.run_sequential()
        };
        let err = run.expect_err("a malformed spec fails the batch");
        match err.downcast_ref::<JobError>() {
            Some(JobError::InvalidSpec { job, reason: why }) => {
                assert_eq!(job, "bad");
                assert!(why.contains(reason), "{why}");
                assert!(err.to_string().contains("`bad`"), "{err}");
            }
            other => panic!("expected an invalid spec, got {other:?}: {err}"),
        }
    }
    assert_eq!(pool.admitted(), 0, "no job was admitted");
}

#[test]
fn zero_samples_is_rejected() {
    assert_rejected(JobSpec::new("bad").with_workload(0, 4), "sample");
}

#[test]
fn zero_dimension_is_rejected() {
    assert_rejected(JobSpec::new("bad").with_workload(64, 0), "dimension");
}

#[test]
fn a_nan_learning_rate_is_rejected() {
    let mut bad = JobSpec::new("bad");
    bad.learning_rate = f64::NAN;
    assert_rejected(bad, "learning rate");
}

#[test]
fn a_non_positive_learning_rate_is_rejected() {
    for lr in [0.0, -0.1, f64::INFINITY] {
        let mut bad = JobSpec::new("bad");
        bad.learning_rate = lr;
        assert_rejected(bad, "learning rate");
    }
}
