//! Simulator throughput: how many BSP iterations per second the
//! discrete-event engine sustains on each Table II cluster — establishes
//! that the figure harnesses measure the modelled system, not the
//! simulator's own overhead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hetgc::{
    simulate_bsp_iteration, synthetic, BspIterationConfig, ClusterSpec, CodecBackend,
    EscalationPolicy, LinearRegression, NetworkModel, SchemeBuilder, SchemeKind, Sgd, SimBspEngine,
    SimTrainConfig, StragglerModel, TrainDriver,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_bsp_iteration(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim/bsp_iteration");
    for cluster in ClusterSpec::table2() {
        let mut rng = StdRng::seed_from_u64(5);
        let scheme = SchemeBuilder::new(&cluster, 1)
            .build(SchemeKind::HeterAware, &mut rng)
            .expect("scheme");
        let rates = cluster.throughputs();
        group.bench_with_input(
            BenchmarkId::from_parameter(cluster.name().to_owned()),
            &(scheme, rates),
            |b, (scheme, rates)| {
                let cfg = BspIterationConfig::new(rates)
                    .network(NetworkModel::lan())
                    .compute_jitter(0.05);
                let straggler = StragglerModel::RandomChoice {
                    count: 1,
                    delay: hetgc::DelayDistribution::Constant(1.0),
                };
                let mut rng = StdRng::seed_from_u64(6);
                b.iter(|| {
                    let events = straggler.sample_iteration(scheme.code.workers(), &mut rng);
                    simulate_bsp_iteration(&scheme.code, &cfg, &events, &mut rng).expect("simulate")
                });
            },
        );
    }
    group.finish();
}

fn bench_ssp_events(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim/ssp_1000_events");
    for m in [8usize, 32, 58] {
        let iter_times: Vec<f64> = (0..m).map(|i| 0.1 + 0.05 * (i % 5) as f64).collect();
        group.bench_with_input(BenchmarkId::from_parameter(m), &iter_times, |b, times| {
            b.iter(|| {
                let mut engine = hetgc::SspEngine::new(times.clone(), 3).expect("engine");
                for _ in 0..1000 {
                    engine.next_event().expect("infinite stream");
                }
            });
        });
    }
    group.finish();
}

/// Full unified-loop rounds (driver + SimBspEngine, real SGD on a small
/// linear model): the per-round overhead of the `TrainDriver` abstraction
/// on top of the raw simulator, and the source of the JSON trajectories
/// captured across PRs via `TrainOutcome::to_json`.
///
/// `cluster_d/heter-aware` is the ledger's `sim-bsp-miss` shape: Cluster-D
/// (m = 58), k = 162, s = 3, d = 128, three random stragglers a round and
/// the ledger's code stream, so nearly every survivor set is new.
fn bench_train_driver_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim/train_driver_10_rounds");
    let cfg = SimTrainConfig {
        iterations: 10,
        learning_rate: 0.2,
        compute_jitter: 0.05,
        ..SimTrainConfig::default()
    };
    let cluster = ClusterSpec::cluster_a();
    let mut arms = Vec::new();
    for kind in [SchemeKind::HeterAware, SchemeKind::GroupBased] {
        let mut rng = StdRng::seed_from_u64(7);
        let scheme = SchemeBuilder::new(&cluster, 1)
            .build(kind, &mut rng)
            .expect("scheme");
        let data = synthetic::linear_regression(96, 4, 0.02, &mut rng);
        arms.push((
            kind.name().to_owned(),
            cluster.throughputs(),
            scheme,
            data,
            cfg.clone(),
        ));
    }
    let cluster = ClusterSpec::cluster_d();
    let scheme = SchemeBuilder::new(&cluster, 3)
        .partitions(162)
        .build(SchemeKind::HeterAware, &mut StdRng::seed_from_u64(2019))
        .expect("scheme");
    let data = synthetic::linear_regression(648, 128, 0.01, &mut StdRng::seed_from_u64(7));
    let cfg = SimTrainConfig {
        learning_rate: 0.0005,
        stragglers: StragglerModel::RandomChoice {
            count: 3,
            // The Theorem-5 round: (s + 1) · n / Σ rates = 4 s.
            delay: hetgc::DelayDistribution::Exponential { mean: 4.0 },
        },
        backend: CodecBackend::Exact,
        ..cfg
    };
    arms.push((
        "cluster_d/heter-aware".to_owned(),
        cluster.throughputs(),
        scheme,
        data,
        cfg,
    ));

    for (id, rates, scheme, data, cfg) in &arms {
        let model = LinearRegression::new(data.dim());
        group.bench_with_input(BenchmarkId::from_parameter(id), scheme, |b, scheme| {
            b.iter(|| {
                let mut engine = SimBspEngine::new(
                    scheme,
                    &model,
                    data,
                    rates,
                    cfg,
                    EscalationPolicy::follow_backend(),
                )
                .expect("engine");
                let mut run_rng = StdRng::seed_from_u64(8);
                TrainDriver::new(&model, data, Sgd::new(cfg.learning_rate))
                    .run(&mut engine, cfg.iterations, &mut run_rng)
                    .expect("run")
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_bsp_iteration,
    bench_ssp_events,
    bench_train_driver_rounds
);
criterion_main!(benches);
