//! The coded-SSP half of the `TrainDriver` acceptance contract: the SSP
//! event stream with real codec decoding completes through approximate
//! escalation where exact-only decoding stalls, and an intact group ends
//! a round early. (The simulated BSP / shard-SSP trajectories themselves
//! are frozen in `tests/golden_contract.rs`.)

use hetgc::{
    ClusterSpec, CodecBackend, EscalationPolicy, LinearRegression, SchemeBuilder, SchemeKind, Sgd,
    SimSspEngine, SimTrainConfig, TrainDriver,
};
use hetgc_ml::synthetic;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The coded-SSP acceptance scenario: with two dead workers and s = 1,
/// exact-only SSP decoding stalls (every live worker reports, no decode
/// exists), while the Approx-ceiling escalation completes the run on
/// bounded-error rounds — and still reduces the loss.
#[test]
fn coded_ssp_completes_with_approx_where_exact_stalls() {
    let cluster = ClusterSpec::from_vcpu_rows("sspx", &[(5, 2)], 100.0).unwrap();
    let rates = cluster.throughputs();
    let data = synthetic::linear_regression(100, 3, 0.02, &mut StdRng::seed_from_u64(14));
    let model = LinearRegression::new(3);
    let scheme = SchemeBuilder::new(&cluster, 1)
        .build(SchemeKind::HeterAware, &mut StdRng::seed_from_u64(15))
        .unwrap();
    let cfg = SimTrainConfig {
        learning_rate: 0.2,
        backend: CodecBackend::Exact,
        ..Default::default()
    };
    let dead = [0usize, 2];

    let run = |policy: EscalationPolicy| {
        let mut engine =
            SimSspEngine::coded(&scheme, &model, &data, &rates, 2, &cfg, policy, &dead).unwrap();
        TrainDriver::new(&model, &data, Sgd::new(cfg.learning_rate))
            .run(&mut engine, 15, &mut StdRng::seed_from_u64(16))
            .unwrap()
    };

    let exact = run(EscalationPolicy::exact_only());
    assert!(exact.stalled, "exact-only coded SSP must stall");
    assert_eq!(exact.rounds(), 0);

    let approx = run(EscalationPolicy::escalate_to(CodecBackend::Approx));
    assert!(!approx.stalled, "escalated coded SSP must complete");
    assert_eq!(approx.rounds(), 15);
    assert_eq!(approx.approx_rounds(), 15);
    let first = approx.records[0].loss.unwrap();
    let last = approx.final_loss().unwrap();
    assert!(last < first, "coded SSP must train: {first} → {last}");
    // Round completion times are the SSP event stream's, strictly
    // increasing.
    for pair in approx.records.windows(2) {
        assert!(pair[0].time < pair[1].time);
    }
}

/// Coded SSP with an intact-group fast path: a group codec completes
/// rounds from an intact group long before every worker reports.
#[test]
fn coded_ssp_group_rounds_use_fewer_reports() {
    let cluster = ClusterSpec::from_vcpu_rows("sspg", &[(6, 2)], 100.0).unwrap();
    let rates = cluster.throughputs();
    let data = synthetic::linear_regression(90, 3, 0.02, &mut StdRng::seed_from_u64(17));
    let model = LinearRegression::new(3);
    let scheme = SchemeBuilder::new(&cluster, 1)
        .build(SchemeKind::GroupBased, &mut StdRng::seed_from_u64(18))
        .unwrap();
    assert!(!scheme.groups.is_empty());
    let cfg = SimTrainConfig {
        learning_rate: 0.2,
        backend: CodecBackend::Group,
        ..Default::default()
    };
    let mut engine = SimSspEngine::coded(
        &scheme,
        &model,
        &data,
        &rates,
        2,
        &cfg,
        EscalationPolicy::follow_backend(),
        &[],
    )
    .unwrap();
    let out = TrainDriver::new(&model, &data, Sgd::new(cfg.learning_rate))
        .run(&mut engine, 10, &mut StdRng::seed_from_u64(19))
        .unwrap();
    assert_eq!(out.rounds(), 10);
    assert_eq!(out.approx_rounds(), 0, "group decodes are exact");
    let smallest_group = scheme
        .groups
        .iter()
        .map(|g| g.workers().len())
        .min()
        .unwrap();
    assert!(
        out.records.iter().any(|r| r.results_used <= smallest_group),
        "at least one round should decode from an intact group: {:?}",
        out.records
            .iter()
            .map(|r| r.results_used)
            .collect::<Vec<_>>()
    );
}
