//! Integration tests for the extensions layered on top of the paper's
//! schemes: overlap, adaptive re-coding, approximate decoding, the decode
//! cache and iteration tracing — exercised together through the public
//! API.

use hetgc::adaptive::{run_with_drift, AdaptiveConfig};
use hetgc::RateDrift;
use hetgc::{
    simulate_bsp_iteration, under_replicated, BspIterationConfig, ClusterSpec, CompiledCodec,
    GradientBlock, GradientCodec, IterationTrace, NetworkModel, SchemeBuilder, SchemeKind,
    StragglerEvent,
};
use hetgc_coding::gradient_error_bound_l2;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Overlap strictly improves completion time and resource usage whenever
/// communication is non-trivial, and never changes the decode result.
#[test]
fn overlap_improves_but_preserves_decoding() {
    let cluster = ClusterSpec::cluster_a();
    let rates = cluster.throughputs();
    let mut rng = StdRng::seed_from_u64(1);
    let scheme = SchemeBuilder::new(&cluster, 1)
        .build(SchemeKind::HeterAware, &mut rng)
        .unwrap();
    let events = vec![StragglerEvent::Normal; cluster.len()];

    let base = BspIterationConfig::new(&rates)
        .network(NetworkModel::lan())
        .payload_bytes(2.4e8);
    let plain = simulate_bsp_iteration(&scheme.code, &base, &events, &mut rng).unwrap();
    let overlapped_cfg = BspIterationConfig::new(&rates)
        .network(NetworkModel::lan())
        .payload_bytes(2.4e8)
        .overlap_chunks(8);
    let overlapped =
        simulate_bsp_iteration(&scheme.code, &overlapped_cfg, &events, &mut rng).unwrap();

    let (t_plain, t_over) = (plain.completion.unwrap(), overlapped.completion.unwrap());
    assert!(
        t_over < t_plain,
        "overlap must shorten the round: {t_over} vs {t_plain}"
    );
    assert!(
        overlapped.resource_usage().unwrap() > plain.resource_usage().unwrap(),
        "overlap must raise usage"
    );
    // Decoding itself is untouched: both rounds produce valid exact decode
    // plans (read through the supported `DecodePlan` accessors).
    for out in [&plain, &overlapped] {
        let plan = &out.plan;
        assert!(plan.is_exact());
        let prod = scheme.code.matrix().vecmat(&plan.to_dense()).unwrap();
        assert!(prod.iter().all(|&x| (x - 1.0).abs() < 1e-6));
    }
}

/// The adaptive loop, the decode cache and tracing compose on one cluster.
#[test]
fn adaptive_run_with_cache_and_trace() {
    let cluster =
        ClusterSpec::from_vcpu_rows("x", &[(1, 2), (1, 3), (1, 4), (1, 5)], 10.0).unwrap();
    // A clear step change fires the drift detector and re-codes; a wave
    // inside the noise envelope must keep running without thrashing.
    let drift = RateDrift::StepChange {
        at: 6,
        factors: vec![1.0, 0.3, 0.3, 1.0],
    };
    let cfg = AdaptiveConfig {
        iterations: 24,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(2);
    let out = run_with_drift(&cluster, &drift, &cfg, &mut rng).unwrap();
    assert_eq!(out.rounds(), 24);
    assert!(
        out.adaptation.as_ref().unwrap().recodes() >= 1,
        "step drift must trigger a re-code"
    );
    let wave = RateDrift::Wave {
        period: 8.0,
        amplitude: 0.3,
    };
    let wave_out = run_with_drift(&cluster, &wave, &cfg, &mut rng).unwrap();
    assert_eq!(wave_out.rounds(), 24);

    // The compiled codec's plan cache: repeated patterns hit.
    let scheme = SchemeBuilder::new(&cluster, 1)
        .build(SchemeKind::HeterAware, &mut rng)
        .unwrap();
    let codec = hetgc::CompiledCodec::with_cache_capacity(scheme.code.clone(), 8);
    let survivors: Vec<usize> = (0..cluster.len()).filter(|&w| w != 1).collect();
    for _ in 0..5 {
        codec.decode_plan(&survivors).unwrap();
    }
    assert_eq!(codec.cache_hits(), 4);
    assert_eq!(codec.cache_misses(), 1);

    // Tracing renders a complete round.
    let rates = cluster.throughputs();
    let cfg2 = BspIterationConfig::new(&rates);
    let events = vec![StragglerEvent::Normal; 4];
    let it = simulate_bsp_iteration(&codec, &cfg2, &events, &mut rng).unwrap();
    let text = IterationTrace::new(&it).render();
    assert!(text.contains("DECODE"));
    let gantt = IterationTrace::new(&it).gantt(24);
    assert_eq!(gantt.lines().count(), 4);
}

/// Approximate decoding degrades monotonically with lost workers, and the
/// error bound is sound on real gradients.
#[test]
fn approximate_decoding_error_bound_holds() {
    use hetgc_cluster::PartitionAssignment;
    use hetgc_ml::{partial_gradients, synthetic, LinearRegression, Model};

    let throughputs = [1.0, 2.0, 3.0, 4.0, 4.0];
    let mut rng = StdRng::seed_from_u64(3);
    let code = under_replicated(&throughputs, 7, 2, &mut rng).unwrap(); // s = 1 exact

    let data = synthetic::linear_regression(70, 3, 0.1, &mut rng);
    let model = LinearRegression::new(3);
    let params = model.init_params(&mut rng);
    let ranges: Vec<(usize, usize)> = PartitionAssignment::even(70, 7).unwrap().iter().collect();
    let partials = partial_gradients(&model, &params, &data, &ranges);
    let direct = model.gradient(&params, &data, (0, 70));

    // Two stragglers (one past tolerance): approximate decode through the
    // codec backend, consumed via `DecodePlan` accessors.
    let survivors = [1usize, 3, 4];
    let codec = CompiledCodec::new(code).with_approx(Some(3.0));
    let plan = codec.approximate_plan(&survivors).unwrap();
    assert!(!plan.is_exact());
    assert!(plan.workers().iter().all(|w| survivors.contains(w)));
    let block = GradientBlock::from_rows(&partials).unwrap();
    let mut ghat = [0.0; 4];
    let mut coded = [0.0; 4];
    for (w, coef) in plan.iter() {
        codec.encode_into(w, &block, &mut coded).unwrap();
        for (g, c) in ghat.iter_mut().zip(&coded) {
            *g += coef * c;
        }
    }
    let err: f64 = ghat
        .iter()
        .zip(&direct)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt();
    let partial_norms: Vec<f64> = partials
        .iter()
        .map(|g| g.iter().map(|x| x * x).sum::<f64>().sqrt())
        .collect();
    // The rigorous Cauchy–Schwarz bound over partitions.
    let bound = gradient_error_bound_l2(plan.residual(), &partial_norms);
    assert!(err <= bound + 1e-9, "err {err} exceeds bound {bound}");
    assert!(err > 0.0, "approximate decode should not be exact here");
}

/// Under-replicated codes slot into the standard simulator unchanged.
#[test]
fn under_replicated_code_simulates() {
    let throughputs = [1.0, 2.0, 3.0, 4.0, 4.0];
    let mut rng = StdRng::seed_from_u64(4);
    let code = under_replicated(&throughputs, 7, 2, &mut rng).unwrap();
    let cfg = BspIterationConfig::new(&throughputs).network(NetworkModel::instantaneous());
    let events = vec![StragglerEvent::Normal; 5];
    let out = simulate_bsp_iteration(&code, &cfg, &events, &mut rng).unwrap();
    // r = 2 → same as s = 1 exact scheme: completes at 2k/Σc = 1.0.
    assert!((out.completion.unwrap() - 1.0).abs() < 1e-9);
}
