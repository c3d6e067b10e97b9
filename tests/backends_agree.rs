//! The two execution backends — the discrete-event simulator and the real
//! threaded runtime — must tell the same story through the ONE unified
//! `TrainDriver` loop: identical parameter trajectories (decoding is
//! exact in both) and consistent ordering of scheme completion behaviour.

use std::sync::Arc;
use std::time::Duration;

use hetgc::{
    ClusterSpec, CodecBackend, DriverConfig, EscalationPolicy, LinearRegression, Model,
    RuntimeConfig, SchemeBuilder, SchemeInstance, SchemeKind, Sgd, SimBspEngine, SimTrainConfig,
    ThreadedEngine, TrainDriver, TrainOutcome, WorkerBehavior,
};
use hetgc_ml::{synthetic, Dataset};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn cluster() -> ClusterSpec {
    // 1/2/3 vCPUs: heterogeneous but Eq.-5-feasible for s = 1 (the fastest
    // worker is not faster than the rest combined).
    ClusterSpec::from_vcpu_rows("itest", &[(1, 1), (1, 2), (1, 3)], 100.0).unwrap()
}

fn run_bsp(
    scheme: &SchemeInstance,
    model: &LinearRegression,
    data: &Dataset,
    rates: &[f64],
    cfg: &SimTrainConfig,
    seed: u64,
) -> TrainOutcome {
    let mut engine = SimBspEngine::new(
        scheme,
        model,
        data,
        rates,
        cfg,
        EscalationPolicy::follow_backend(),
    )
    .unwrap();
    TrainDriver::new(model, data, Sgd::new(cfg.learning_rate))
        .run(
            &mut engine,
            cfg.iterations,
            &mut StdRng::seed_from_u64(seed),
        )
        .unwrap()
}

/// Simulated BSP training and threaded training produce the same losses:
/// both decode the exact batch gradient through the same driver loop, so
/// with identical initialization the trajectories coincide.
#[test]
fn simulated_and_threaded_trajectories_match() {
    let cluster = cluster();
    let rates = cluster.throughputs();
    let data = synthetic::linear_regression(90, 4, 0.02, &mut StdRng::seed_from_u64(11));
    let model = LinearRegression::new(4);

    let mut build_rng = StdRng::seed_from_u64(12);
    let scheme = SchemeBuilder::new(&cluster, 1)
        .build(SchemeKind::HeterAware, &mut build_rng)
        .unwrap();

    let sim_cfg = SimTrainConfig {
        iterations: 12,
        learning_rate: 0.2,
        ..Default::default()
    };
    let sim = run_bsp(&scheme, &model, &data, &rates, &sim_cfg, 77);

    let shared_model = Arc::new(LinearRegression::new(4));
    let shared_data = Arc::new(data.clone());
    let mut threaded_engine = ThreadedEngine::new(
        scheme.code.clone(),
        Arc::clone(&shared_model),
        Arc::clone(&shared_data),
        &RuntimeConfig::default(),
    )
    .unwrap();
    let threaded = TrainDriver::new(&*shared_model, &shared_data, Sgd::new(0.2))
        .run(&mut threaded_engine, 12, &mut StdRng::seed_from_u64(77))
        .unwrap();

    assert_eq!(sim.rounds(), threaded.rounds());
    assert_eq!(sim.approx_rounds(), 0);
    assert_eq!(threaded.approx_rounds(), 0);
    for (a, b) in sim.records.iter().zip(&threaded.records) {
        let (sim_loss, thr_loss) = (a.loss.unwrap(), b.loss.unwrap());
        assert!(
            (sim_loss - thr_loss).abs() < 1e-8,
            "trajectories diverged: {sim_loss} vs {thr_loss}"
        );
        assert_eq!(a.step_scale, 1.0, "exact rounds take the full step");
        assert_eq!(b.step_scale, 1.0);
    }
    for (p, q) in sim.params.iter().zip(&threaded.params) {
        assert!((p - q).abs() < 1e-8);
    }
}

/// Both backends agree that coded schemes survive a dead worker and naive
/// does not — and both say so the same way: an undecodable round is a
/// stalled outcome, not an error.
#[test]
fn both_backends_agree_on_fault_behaviour() {
    let cluster = cluster();
    let rates = cluster.throughputs();
    let data = synthetic::linear_regression(60, 3, 0.02, &mut StdRng::seed_from_u64(21));
    let model = LinearRegression::new(3);
    let mut rng = StdRng::seed_from_u64(22);

    let sim_cfg = SimTrainConfig {
        iterations: 5,
        stragglers: hetgc::StragglerModel::Failures { workers: vec![1] },
        ..Default::default()
    };
    let heter = SchemeBuilder::new(&cluster, 1)
        .build(SchemeKind::HeterAware, &mut rng)
        .unwrap();
    let naive = SchemeBuilder::new(&cluster, 1)
        .build(SchemeKind::Naive, &mut rng)
        .unwrap();
    let shared_data = Arc::new(data.clone());
    let outcomes = [
        (
            run_bsp(&heter, &model, &data, &rates, &sim_cfg, 23),
            run_bsp(&naive, &model, &data, &rates, &sim_cfg, 24),
        ),
        (
            run_threaded(&heter, &shared_data, 1),
            run_threaded(&naive, &shared_data, 1),
        ),
    ];
    for (heter, naive) in &outcomes {
        assert!(!heter.stalled, "heter-aware must survive the fault");
        assert_eq!((heter.rounds(), heter.failed_rounds), (5, 0));
        assert!(naive.stalled, "naive must stall under the fault");
        assert_eq!((naive.rounds(), naive.failed_rounds), (0, 1));
    }

    // A worker that dies mid-run stalls threaded naive on its first
    // missing round, and the outcome keeps every record before it.
    let late = run_threaded(&naive, &shared_data, 3);
    assert!(late.stalled);
    assert_eq!((late.rounds(), late.failed_rounds), (2, 1));
    assert_eq!(late.records.last().unwrap().round, 2);
}

/// A five-round threaded run of `scheme` in which worker 1 fails from
/// iteration `fail_from` on, with a 300 ms decode deadline.
fn run_threaded(scheme: &SchemeInstance, data: &Arc<Dataset>, fail_from: usize) -> TrainOutcome {
    let failing = RuntimeConfig::nominal(3)
        .set_behavior(1, WorkerBehavior::nominal().failing_from(fail_from))
        .with_escalation(
            EscalationPolicy::follow_backend().with_deadline(Duration::from_millis(300)),
        );
    let model = Arc::new(LinearRegression::new(3));
    let mut engine = ThreadedEngine::new(
        scheme.code.clone(),
        Arc::clone(&model),
        Arc::clone(data),
        &failing,
    )
    .unwrap();
    TrainDriver::new(&*model, data, Sgd::new(0.1))
        .run(&mut engine, 5, &mut StdRng::seed_from_u64(25))
        .unwrap()
}

/// Loss parity with single-node SGD: the whole distributed apparatus (in
/// either backend) must not change the optimization trajectory — the
/// paper's accuracy-preservation argument for BSP coding vs SSP (§II).
#[test]
fn distributed_equals_single_node_sgd() {
    let cluster = cluster();
    let rates = cluster.throughputs();
    let data = synthetic::linear_regression(80, 5, 0.05, &mut StdRng::seed_from_u64(31));
    let model = LinearRegression::new(5);

    // Single-node reference.
    let mut params = model.init_params(&mut StdRng::seed_from_u64(99));
    let n = data.len() as f64;
    let mut reference = Vec::new();
    for _ in 0..8 {
        let mut g = model.gradient(&params, &data, (0, data.len()));
        for gi in &mut g {
            *gi /= n;
        }
        for (p, gi) in params.iter_mut().zip(&g) {
            *p -= 0.15 * gi;
        }
        reference.push(model.loss(&params, &data, (0, data.len())) / n);
    }

    let mut rng = StdRng::seed_from_u64(32);
    for kind in [
        SchemeKind::Cyclic,
        SchemeKind::HeterAware,
        SchemeKind::GroupBased,
    ] {
        let scheme = SchemeBuilder::new(&cluster, 1)
            .build(kind, &mut rng)
            .unwrap();
        let cfg = SimTrainConfig {
            iterations: 8,
            learning_rate: 0.15,
            ..Default::default()
        };
        let out = run_bsp(&scheme, &model, &data, &rates, &cfg, 99);
        for (record, expected) in out.records.iter().zip(&reference) {
            let loss = record.loss.unwrap();
            assert!(
                (loss - expected).abs() < 1e-8,
                "{kind}: distributed {loss} vs single-node {expected}"
            );
        }
    }
}

/// All codec backends agree on training: for a group-based scheme the
/// group-aware, generic-exact and approximate backends (all decoding
/// exactly within the straggler budget) must produce the same loss
/// trajectory to floating-point accuracy.
#[test]
fn codec_backends_share_training_trajectory() {
    // 4 equal workers: the group-based construction yields two 2-worker
    // groups, so the group fast path actually fires every iteration.
    let cluster = ClusterSpec::from_vcpu_rows("btest", &[(4, 2)], 100.0).unwrap();
    let rates = cluster.throughputs();
    let data = synthetic::linear_regression(80, 3, 0.02, &mut StdRng::seed_from_u64(41));
    let model = LinearRegression::new(3);
    let scheme = SchemeBuilder::new(&cluster, 1)
        .build(SchemeKind::GroupBased, &mut StdRng::seed_from_u64(42))
        .unwrap();
    assert!(!scheme.groups.is_empty(), "cluster must admit groups");

    let run = |backend| {
        let cfg = SimTrainConfig {
            iterations: 12,
            learning_rate: 0.2,
            backend,
            ..Default::default()
        };
        run_bsp(&scheme, &model, &data, &rates, &cfg, 77)
    };
    let exact = run(CodecBackend::Exact);
    let grouped = run(CodecBackend::Group);
    let auto = run(CodecBackend::Auto);
    let approx = run(CodecBackend::Approx);

    assert_eq!(exact.rounds(), 12);
    for other in [&grouped, &auto, &approx] {
        assert_eq!(other.rounds(), 12);
        assert_eq!(other.approx_rounds(), 0, "all decodes are exact here");
        for (a, b) in other.records.iter().zip(&exact.records) {
            let (la, lb) = (a.loss.unwrap(), b.loss.unwrap());
            assert!(
                (la - lb).abs() < 1e-8,
                "trajectories diverged: {la} vs {lb}"
            );
        }
    }
    // Auto switches the group stage on for a group-based scheme, and the
    // indicator fast path must match the generic plan *bitwise* here or to
    // fp accuracy at worst (checked above at 1e-8 on the losses).
    let auto = scheme.compile_backend(CodecBackend::Auto).unwrap();
    assert_eq!(auto.groups(), scheme.groups.as_slice());
    assert!(!auto.groups().is_empty());
}

/// The acceptance scenario of the `>s` straggler path: with two failed
/// workers and s = 1, every exact backend stalls, while the approximate
/// backend finishes the run on bounded-error gradients — and still makes
/// optimization progress, with the driver's residual-aware step scaling
/// shrinking (but never zeroing) the steps.
#[test]
fn approx_backend_trains_where_exact_backends_stall() {
    let cluster = ClusterSpec::from_vcpu_rows("atest", &[(5, 2)], 100.0).unwrap();
    let rates = cluster.throughputs();
    let data = synthetic::linear_regression(100, 3, 0.02, &mut StdRng::seed_from_u64(51));
    let model = LinearRegression::new(3);
    let scheme = SchemeBuilder::new(&cluster, 1)
        .build(SchemeKind::HeterAware, &mut StdRng::seed_from_u64(52))
        .unwrap();
    let cfg_for = |backend| SimTrainConfig {
        iterations: 30,
        learning_rate: 0.2,
        stragglers: hetgc::StragglerModel::Failures {
            workers: vec![0, 2],
        },
        backend,
        ..Default::default()
    };

    let exact = run_bsp(
        &scheme,
        &model,
        &data,
        &rates,
        &cfg_for(CodecBackend::Exact),
        53,
    );
    assert!(exact.stalled, "two failures must stall the exact backend");
    assert!(exact.curve.points.is_empty());

    let approx = run_bsp(
        &scheme,
        &model,
        &data,
        &rates,
        &cfg_for(CodecBackend::Approx),
        53,
    );
    assert!(!approx.stalled, "approx backend must complete the run");
    assert_eq!(approx.rounds(), 30);
    assert_eq!(approx.approx_rounds(), 30, "every round used the fallback");
    for r in &approx.records {
        assert!(r.residual > 0.0);
        assert!(
            r.step_scale > 0.0 && r.step_scale < 1.0,
            "approximate rounds must shrink (not zero) the step: {}",
            r.step_scale
        );
    }
    let first = approx.curve.points[0].1;
    let last = approx.final_loss().unwrap();
    assert!(
        last < first,
        "approximate gradients must still reduce the loss: {first} → {last}"
    );
}

/// Per-round escalation, simulated path: an EXACT backend with an
/// Approx-ceiling policy completes the same `>s`-failure run the plain
/// exact backend stalls on — the policy, not the backend, supplies the
/// ladder.
#[test]
fn escalation_policy_rescues_exact_backend_in_simulation() {
    let cluster = ClusterSpec::from_vcpu_rows("etest", &[(5, 2)], 100.0).unwrap();
    let rates = cluster.throughputs();
    let data = synthetic::linear_regression(100, 3, 0.02, &mut StdRng::seed_from_u64(61));
    let model = LinearRegression::new(3);
    let scheme = SchemeBuilder::new(&cluster, 1)
        .build(SchemeKind::HeterAware, &mut StdRng::seed_from_u64(62))
        .unwrap();
    let cfg = SimTrainConfig {
        iterations: 20,
        learning_rate: 0.2,
        stragglers: hetgc::StragglerModel::Failures {
            workers: vec![0, 2],
        },
        backend: CodecBackend::Exact,
        ..Default::default()
    };

    let run = |policy: EscalationPolicy| {
        let mut engine = SimBspEngine::new(&scheme, &model, &data, &rates, &cfg, policy).unwrap();
        TrainDriver::new(&model, &data, Sgd::new(cfg.learning_rate))
            .with_config(DriverConfig::default())
            .run(&mut engine, cfg.iterations, &mut StdRng::seed_from_u64(63))
            .unwrap()
    };

    let exact_only = run(EscalationPolicy::follow_backend());
    assert!(exact_only.stalled, "exact backend alone must stall");

    let escalated = run(EscalationPolicy::escalate_to(CodecBackend::Approx));
    assert!(!escalated.stalled);
    assert_eq!(escalated.rounds(), 20);
    assert_eq!(escalated.approx_rounds(), 20);
    let first = escalated.curve.points[0].1;
    let last = escalated.final_loss().unwrap();
    assert!(last < first, "escalated run must train: {first} → {last}");
}
