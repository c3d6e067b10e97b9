//! Fault injection: real worker *processes* are killed mid-run and the
//! master must keep training — first by straggler tolerance (one death
//! within the code's budget), then by escalation (two deaths beyond it),
//! and finally by re-coding the surviving links into a fresh scheme.

use std::sync::Arc;
use std::time::Duration;

use hetgc::{
    heter_aware, synthetic, CodecBackend, EscalationPolicy, LinearRegression, RoundEngine,
    RuntimeConfig, SchemeKind, Sgd, TrainDriver, WorkerBehavior,
};
use hetgc_net::{ModelSpec, SocketCluster, SocketEngine, SocketListener, WorkerFleet};
use hetgc_runtime::RuntimeError;
use rand::rngs::StdRng;
use rand::SeedableRng;

const DIM: usize = 4;
const SAMPLES: usize = 120;
const WORKERS: usize = 5;
/// The scheme's straggler budget: one death is absorbed exactly.
const BUDGET: usize = 1;
/// Escalation deadline — also the collect timeout once workers die.
const DEADLINE: Duration = Duration::from_millis(400);

fn engine() -> (SocketEngine<LinearRegression>, WorkerFleet) {
    let mut rng = StdRng::seed_from_u64(21);
    let data = Arc::new(synthetic::linear_regression(SAMPLES, DIM, 0.05, &mut rng));
    let model = Arc::new(LinearRegression::new(DIM));
    let code = heter_aware(&[1.0; WORKERS], WORKERS, BUDGET, &mut rng).expect("scheme");
    // A generous residual budget: which rows die is accept-order random,
    // and some survivor triples decode with a residual above the approx
    // arm's default cap — the test is about completion, not accuracy.
    let config = RuntimeConfig::nominal(WORKERS)
        .with_backend(CodecBackend::Approx)
        .with_escalation(
            EscalationPolicy::follow_backend()
                .with_deadline(DEADLINE)
                .with_max_residual(100.0),
        );

    let listener = SocketListener::bind().expect("bind loopback");
    let addr = listener.addr().to_string();
    let fleet = WorkerFleet::spawn(env!("CARGO_BIN_EXE_hetgc-worker"), &addr, WORKERS)
        .expect("spawn workers");
    let cluster = SocketCluster::start(
        listener,
        code,
        Arc::clone(&model),
        ModelSpec::Linear { dim: DIM as u32 },
        Arc::clone(&data),
        &config,
    )
    .expect("socket cluster start");
    (
        SocketEngine::new(cluster).with_recoding(SchemeKind::HeterAware, BUDGET),
        fleet,
    )
}

/// Kill a worker and give its reader thread a moment to observe the EOF
/// so the next dispatch already routes around the dead link.
fn kill_and_settle(fleet: &mut WorkerFleet, worker: usize) {
    fleet.kill(worker);
    std::thread::sleep(Duration::from_millis(50));
}

#[test]
fn killed_workers_degrade_then_recode_rebuilds_around_survivors() {
    let (mut engine, mut fleet) = engine();
    let params = vec![0.0; DIM + 1];
    let mut rng = StdRng::seed_from_u64(5);

    // Round 1, all five alive: exact decode. The round legitimately
    // completes as soon as any m−s replies arrive, so the slowest
    // healthy worker may go unused — but never more than the budget.
    let clean = engine.round(1, &params, &mut rng).expect("clean round");
    assert_eq!(clean.residual, 0.0);
    assert!(clean.results_used >= WORKERS - BUDGET);
    assert!(clean.samples.iter().filter(|s| s.failed).count() <= BUDGET);

    // One death is within the budget: rounds still decode exactly from
    // the four survivors. The first post-kill round may also absorb the
    // corpse's stale round-1 reply (reported as a late arrival), so the
    // failed-flag assertion waits one settling round.
    kill_and_settle(&mut fleet, 4);
    let tolerated = engine.round(2, &params, &mut rng).expect("tolerated round");
    assert_eq!(tolerated.residual, 0.0, "one death is within the budget");
    let tolerated = engine.round(3, &params, &mut rng).expect("settled round");
    assert_eq!(tolerated.residual, 0.0);
    assert_eq!(tolerated.results_used, WORKERS - 1);
    // Fleet index ≠ logical row (rows are assigned in accept order), so
    // the corpse is identified by telemetry, not by index.
    let dead: Vec<usize> = tolerated
        .samples
        .iter()
        .filter(|s| s.failed)
        .map(|s| s.worker)
        .collect();
    assert_eq!(dead.len(), 1, "exactly the killed worker is flagged");

    // A second death exceeds the budget: exact decode is impossible, the
    // escalation deadline fires, and the Approx ladder completes the
    // round from three survivors with a nonzero residual.
    kill_and_settle(&mut fleet, 3);
    let degraded = engine.round(4, &params, &mut rng).expect("escalated round");
    assert!(
        degraded.residual > 0.0,
        "two deaths must force an approximate decode"
    );
    let degraded = engine.round(5, &params, &mut rng).expect("settled round");
    assert!(degraded.residual > 0.0);
    assert!(degraded.results_used <= WORKERS - 2);
    let dead_now: Vec<usize> = degraded
        .samples
        .iter()
        .filter(|s| s.failed)
        .map(|s| s.worker)
        .collect();
    assert_eq!(dead_now.len(), 2, "both corpses flagged: {dead_now:?}");
    assert!(
        dead_now.contains(&dead[0]),
        "the first corpse stays flagged"
    );

    // Re-code around the survivors: the cluster shrinks to the three
    // live links and the fresh scheme decodes exactly again.
    assert!(engine.supports_recode());
    let estimates = vec![1.0; WORKERS];
    let installed = engine.recode(&estimates, &mut rng).expect("recode");
    assert!(installed, "recode must install over the surviving links");
    assert_eq!(engine.recodes(), 1);
    assert_eq!(engine.workers(), WORKERS - 2);

    let rebuilt = engine.round(6, &params, &mut rng).expect("rebuilt round");
    assert_eq!(
        rebuilt.residual, 0.0,
        "the rebuilt scheme decodes exactly on the survivors"
    );
    // Like the clean round, at most the budget goes unused — no survivor
    // is systematically dead.
    assert!(rebuilt.samples.iter().filter(|s| s.failed).count() <= BUDGET);

    // The rebuilt gradient is the same mathematical object the full
    // fleet computed: Σ over all partitions, re-sharded. Exact decodes
    // of the same data agree to fp re-association error.
    let clean_g = clean.gradient.as_ref().expect("clean gradient");
    let rebuilt_g = rebuilt.gradient.as_ref().expect("rebuilt gradient");
    for (a, b) in clean_g.iter().zip(rebuilt_g) {
        assert!(
            (a - b).abs() < 1e-9,
            "gradient diverged after recode: {a} vs {b}"
        );
    }
}

#[test]
fn all_workers_dead_is_a_typed_error_not_a_hang() {
    let mut rng = StdRng::seed_from_u64(9);
    let data = Arc::new(synthetic::linear_regression(40, DIM, 0.05, &mut rng));
    let model = Arc::new(LinearRegression::new(DIM));
    let code = heter_aware(&[1.0; 2], 2, 0, &mut rng).expect("scheme");
    let config = RuntimeConfig::nominal(2)
        .with_backend(CodecBackend::Approx)
        .with_escalation(EscalationPolicy::follow_backend().with_deadline(DEADLINE));

    let listener = SocketListener::bind().expect("bind loopback");
    let addr = listener.addr().to_string();
    let mut fleet =
        WorkerFleet::spawn(env!("CARGO_BIN_EXE_hetgc-worker"), &addr, 2).expect("spawn workers");
    let mut cluster = SocketCluster::start(
        listener,
        code,
        model,
        ModelSpec::Linear { dim: DIM as u32 },
        data,
        &config,
    )
    .expect("socket cluster start");

    let params = vec![0.0; DIM + 1];
    let clean = cluster.round(&params).expect("clean round");
    assert!(clean.gradient.is_some(), "the clean round decodes");
    fleet.kill(0);
    fleet.kill(1);
    std::thread::sleep(Duration::from_millis(50));
    // Either the send finds every link gone, or the round goes out and
    // nothing comes back: lost workers or an undecodable round.
    match cluster.round(&params) {
        Err(RuntimeError::WorkerLost { .. }) => {}
        Ok(round) if round.stop && round.gradient.is_none() => {}
        other => panic!("unexpected outcome: {other:?}"),
    }
}

#[test]
fn undecodable_round_stalls_the_run_and_keeps_its_records() {
    // An s = 0 code over two workers, one of which stops replying from
    // round 3: that round cannot decode and the exact ladder declines.
    let mut rng = StdRng::seed_from_u64(11);
    let data = Arc::new(synthetic::linear_regression(40, DIM, 0.05, &mut rng));
    let model = Arc::new(LinearRegression::new(DIM));
    let code = heter_aware(&[1.0; 2], 2, 0, &mut rng).expect("scheme");
    let config = RuntimeConfig::nominal(2)
        .set_behavior(0, WorkerBehavior::nominal().failing_from(3))
        .with_backend(CodecBackend::Exact)
        .with_escalation(EscalationPolicy::follow_backend().with_deadline(DEADLINE));

    let listener = SocketListener::bind().expect("bind loopback");
    let addr = listener.addr().to_string();
    let _fleet =
        WorkerFleet::spawn(env!("CARGO_BIN_EXE_hetgc-worker"), &addr, 2).expect("spawn workers");
    let cluster = SocketCluster::start(
        listener,
        code,
        Arc::clone(&model),
        ModelSpec::Linear { dim: DIM as u32 },
        Arc::clone(&data),
        &config,
    )
    .expect("socket cluster start");
    let mut engine = SocketEngine::new(cluster);
    let out = TrainDriver::new(&*model, &data, Sgd::new(0.1))
        .run(&mut engine, 5, &mut rng)
        .expect("an undecodable round is not an error");
    assert!(out.stalled);
    assert_eq!((out.rounds(), out.failed_rounds), (2, 1));
    assert_eq!(out.records.last().expect("earlier records").round, 2);
}

#[test]
fn master_hang_up_mid_reply_is_a_clean_worker_exit() {
    // Both workers are inside their injected delay when the cluster
    // drops; they wake up and stream a many-chunk reply into links the
    // master has already closed. `run_worker` promises `Ok(())` for a
    // master hang-up, wherever in the round it lands.
    const DELAY: Duration = Duration::from_millis(200);
    let mut rng = StdRng::seed_from_u64(13);
    let data = Arc::new(synthetic::linear_regression(40, 64, 0.05, &mut rng));
    let model = Arc::new(LinearRegression::new(64));
    let code = hetgc::naive(2).expect("scheme");
    let slow = hetgc::WorkerBehavior::nominal().with_delay(DELAY);
    let config = RuntimeConfig::nominal(2)
        .set_behavior(0, slow.clone())
        .set_behavior(1, slow);

    let listener = SocketListener::bind().expect("bind loopback");
    let addr = listener.addr();
    let workers: Vec<_> = (0..2)
        .map(|_| std::thread::spawn(move || hetgc_net::run_worker(addr)))
        .collect();
    let mut cluster = SocketCluster::start_with(
        listener,
        code,
        model,
        ModelSpec::Linear { dim: 64 },
        data,
        &config,
        1, // one f64 per chunk: the reply is 65 chunk writes plus RoundDone
    )
    .expect("socket cluster start");
    cluster.dispatch(&[0.0; 65]).expect("dispatch");
    std::thread::sleep(DELAY / 4);
    drop(cluster);
    for worker in workers {
        worker
            .join()
            .expect("worker thread panicked")
            .expect("a master hang-up is a clean worker exit");
    }
}
