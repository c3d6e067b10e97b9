//! End-to-end acceptance of the `hetgc-telemetry` adaptation loop: a
//! `TrainDriver` run with `AdaptationConfig` under `RateDrift::StepChange`
//! re-codes mid-run and beats the static allocation on average round
//! time — on the sim-BSP path (real SGD composed with drift) AND on the
//! threaded-runtime path (real wall-clock telemetry, worker threads
//! re-rowed in place) — while a run with adaptation disabled is bitwise
//! unchanged.

use std::sync::Arc;

use hetgc::{
    synthetic, AdaptationConfig, ClusterSpec, DriverConfig, EscalationPolicy, LinearRegression,
    RateDrift, RuntimeConfig, SchemeBuilder, SchemeKind, Sgd, SimBspEngine, SimTrainConfig,
    ThreadedEngine, TrainDriver, TrainOutcome, WorkerBehavior,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn drifty_cluster() -> ClusterSpec {
    ClusterSpec::from_vcpu_rows("drifty", &[(1, 2), (1, 3), (1, 4), (1, 5)], 10.0).unwrap()
}

/// One sim-BSP training run (real SGD) under the given drift, with or
/// without the adaptation loop.
fn bsp_run(drift: &RateDrift, adaptation: Option<AdaptationConfig>, seed: u64) -> TrainOutcome {
    let cluster = drifty_cluster();
    let mut rng = StdRng::seed_from_u64(seed);
    let data = synthetic::linear_regression(96, 3, 0.01, &mut rng);
    let model = LinearRegression::new(3);
    let scheme = SchemeBuilder::new(&cluster, 1)
        .build(SchemeKind::HeterAware, &mut rng)
        .unwrap();
    let cfg = SimTrainConfig {
        compute_jitter: 0.03,
        ..SimTrainConfig::default()
    };
    let mut engine = SimBspEngine::new(
        &scheme,
        &model,
        &data,
        &cluster.throughputs(),
        &cfg,
        EscalationPolicy::follow_backend(),
    )
    .unwrap()
    .with_drift(drift.clone());
    TrainDriver::new(&model, &data, Sgd::new(0.2))
        .with_config(DriverConfig {
            adaptation,
            ..DriverConfig::default()
        })
        .run(&mut engine, 60, &mut rng)
        .unwrap()
}

#[test]
fn sim_bsp_adaptation_recodes_and_beats_static_under_step_drift() {
    // Two workers lose 70 % of their speed at round 16: beyond the s = 1
    // budget, so the static allocation waits for a slowed worker every
    // round; the adaptive run re-codes from live estimates and recovers.
    let drift = RateDrift::StepChange {
        at: 15,
        factors: vec![1.0, 1.0, 0.3, 0.3],
    };
    let static_out = bsp_run(&drift, None, 11);
    let adaptive_out = bsp_run(&drift, Some(AdaptationConfig::default()), 11);

    let report = adaptive_out.adaptation.as_ref().expect("adaptation on");
    assert!(report.recodes() > 0, "no re-code fired: {report:?}");
    assert!(
        report.recode_rounds.iter().all(|&r| r > 15),
        "re-coded before the drift: {report:?}"
    );
    let t_static = static_out.mean_round_seconds().unwrap();
    let t_adaptive = adaptive_out.mean_round_seconds().unwrap();
    assert!(
        t_adaptive < t_static * 0.90,
        "adaptive {t_adaptive:.3} should beat static {t_static:.3}"
    );
    // Real SGD really trained on both paths.
    for out in [&static_out, &adaptive_out] {
        assert_eq!(out.rounds(), 60);
        assert!(out.final_loss().unwrap() < out.records[0].loss.unwrap());
    }
}

#[test]
fn adaptation_off_is_bitwise_unchanged() {
    // `RateDrift::None` + default config must reproduce a plain run bit
    // for bit: same records, same losses, same params.
    let plain = bsp_run(&RateDrift::None, None, 7);
    let with_none_drift = bsp_run(&RateDrift::None, None, 7);
    assert_eq!(plain.records, with_none_drift.records);
    assert_eq!(plain.params, with_none_drift.params);
    assert!(plain.adaptation.is_none());

    // And the adaptation pipeline itself, observing a no-drift run, must
    // not change the trajectory either: no recode ever fires and the rng
    // stream is untouched (the pipeline draws no randomness).
    let observed = bsp_run(&RateDrift::None, Some(AdaptationConfig::default()), 7);
    let report = observed.adaptation.as_ref().expect("adaptation on");
    assert_eq!(report.recodes(), 0, "no drift, no re-code");
    assert_eq!(report.recode_failures, 0);
    // Rounds before any learned deadline is installed are bitwise equal.
    let warmup = observed
        .records
        .iter()
        .zip(&plain.records)
        .take_while(|(a, b)| a == b)
        .count();
    assert!(
        warmup >= 8,
        "adaptation must not perturb warm-up rounds: {warmup}"
    );
}

/// One threaded-runtime training run over 5 real worker threads whose
/// throttles emulate the drifting cluster: workers 2 and 3 slow 4× from
/// round 13 on (`WorkerBehavior::with_throttle_step`).
fn threaded_run(adaptive: bool, seed: u64) -> (TrainOutcome, usize) {
    let rates = [800.0, 800.0, 800.0, 800.0, 1000.0];
    let mut rng = StdRng::seed_from_u64(seed);
    let data = synthetic::linear_regression(80, 3, 0.01, &mut rng);
    let model = LinearRegression::new(3);
    let code = hetgc::heter_aware(&rates, 10, 1, &mut StdRng::seed_from_u64(99)).unwrap();

    let mut config = RuntimeConfig::nominal(5);
    for (w, &r) in rates.iter().enumerate() {
        let mut b = WorkerBehavior::nominal().with_throttle(r);
        if w == 2 || w == 3 {
            b = b.with_throttle_step(13, r / 4.0);
        }
        config = config.set_behavior(w, b);
    }

    let mut engine = ThreadedEngine::new(
        code,
        Arc::new(LinearRegression::new(3)),
        Arc::new(data.clone()),
        &config,
    )
    .unwrap();
    if adaptive {
        engine = engine.with_recoding(SchemeKind::HeterAware, 1);
    }
    let adaptation = adaptive.then_some(AdaptationConfig {
        // Wall-clock rounds are tens of ms; keep the learned deadline off
        // so the comparison isolates re-coding (the exact ladder cannot
        // escalate here anyway).
        learn_deadline: false,
    });
    let out = TrainDriver::new(&model, &data, Sgd::new(0.1))
        .with_config(DriverConfig {
            adaptation,
            ..DriverConfig::default()
        })
        .run(&mut engine, 36, &mut rng)
        .unwrap();
    let recodes = engine.recodes();
    (out, recodes)
}

#[test]
fn threaded_adaptation_recodes_and_beats_static_under_step_drift() {
    let (static_out, static_recodes) = threaded_run(false, 21);
    let (adaptive_out, adaptive_recodes) = threaded_run(true, 21);
    assert_eq!(static_recodes, 0);
    assert!(adaptive_recodes > 0, "threaded path must hot-swap the pool");
    let report = adaptive_out.adaptation.as_ref().expect("adaptation on");
    assert_eq!(report.recodes(), adaptive_recodes);

    // Compare only the post-drift regime: wall-clock noise dominates the
    // identical pre-drift rounds.
    let post = |out: &TrainOutcome| -> f64 {
        let tail: Vec<f64> = out.records[20..].iter().map(|r| r.elapsed).collect();
        tail.iter().sum::<f64>() / tail.len() as f64
    };
    let t_static = post(&static_out);
    let t_adaptive = post(&adaptive_out);
    assert!(
        t_adaptive < t_static * 0.85,
        "adaptive post-drift rounds {t_adaptive:.4}s should beat static {t_static:.4}s"
    );
    // Both really trained.
    for out in [&static_out, &adaptive_out] {
        assert_eq!(out.rounds(), 36);
        assert!(out.final_loss().unwrap() < out.records[0].loss.unwrap());
    }
}

#[test]
fn streaming_records_match_the_outcome() {
    // The JSONL sink streams exactly the records the outcome reports.
    let cluster = drifty_cluster();
    let mut rng = StdRng::seed_from_u64(5);
    let data = synthetic::linear_regression(96, 3, 0.01, &mut rng);
    let model = LinearRegression::new(3);
    let scheme = SchemeBuilder::new(&cluster, 1)
        .build(SchemeKind::HeterAware, &mut rng)
        .unwrap();
    let cfg = SimTrainConfig::default();
    let mut engine = SimBspEngine::new(
        &scheme,
        &model,
        &data,
        &cluster.throughputs(),
        &cfg,
        EscalationPolicy::follow_backend(),
    )
    .unwrap();
    let mut buf: Vec<u8> = Vec::new();
    let out = TrainDriver::new(&model, &data, Sgd::new(0.2))
        .with_record_writer(&mut buf)
        .run(&mut engine, 12, &mut rng)
        .unwrap();
    let text = String::from_utf8(buf).unwrap();
    let parsed = hetgc::report::parse_round_records(&text).unwrap();
    assert_eq!(parsed, out.records);
}
