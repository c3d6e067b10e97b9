//! Property-based tests of the cluster model: partitioning exactness,
//! estimator convergence, straggler-model contracts.

use hetgc_cluster::{
    DelayDistribution, EstimationNoise, EwmaEstimator, PartitionAssignment, StragglerModel,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Partitions cover [0, n) exactly, contiguously, sizes within 1.
    #[test]
    fn partitioning_is_exact(n in 1usize..500, k in 1usize..50) {
        prop_assume!(k <= n);
        let pa = PartitionAssignment::even(n, k).unwrap();
        prop_assert_eq!(pa.partitions(), k);
        let mut cursor = 0;
        let mut min_len = usize::MAX;
        let mut max_len = 0;
        for (lo, hi) in pa.iter() {
            prop_assert_eq!(lo, cursor);
            prop_assert!(hi > lo);
            min_len = min_len.min(hi - lo);
            max_len = max_len.max(hi - lo);
            cursor = hi;
        }
        prop_assert_eq!(cursor, n);
        prop_assert!(max_len - min_len <= 1, "uneven: {min_len}..{max_len}");
    }

    /// The sampling estimator (`EwmaEstimator`, fed one observation per
    /// round) recovers a constant true rate, whatever its smoothing and
    /// however the work is split into observations.
    #[test]
    fn sampling_estimator_recovers_constant_rate(
        rate in 0.5f64..100.0,
        alpha in 0.01f64..1.0,
        observations in 1usize..20,
    ) {
        let mut est = EwmaEstimator::new(1, alpha);
        for i in 1..=observations {
            let elapsed = 0.1 * i as f64;
            est.observe(0, rate * elapsed, elapsed);
        }
        let estimate = est.estimate(0).unwrap();
        prop_assert!((estimate - rate).abs() < 1e-9 * rate.max(1.0));
    }

    /// Straggler events: the number of affected workers matches the model.
    #[test]
    fn random_choice_affects_exactly_count(m in 1usize..30, count in 0usize..35, seed in any::<u64>()) {
        let model = StragglerModel::RandomChoice {
            count,
            delay: DelayDistribution::Constant(1.0),
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let events = model.sample_iteration(m, &mut rng);
        let affected = events
            .iter()
            .filter(|e| !matches!(e, hetgc_cluster::StragglerEvent::Normal))
            .count();
        prop_assert_eq!(affected, count.min(m));
    }

    /// Delay samples respect their distribution's support.
    #[test]
    fn delays_in_support(low in 0.0f64..5.0, span in 0.1f64..5.0, seed in any::<u64>()) {
        let d = DelayDistribution::Uniform { low, high: low + span };
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            let x = d.sample(&mut rng);
            prop_assert!(x >= low && x < low + span);
        }
    }

    /// Estimation noise keeps estimates strictly positive and, at σ = 0,
    /// exact.
    #[test]
    fn noise_positivity(sigma in 0.0f64..1.5, seed in any::<u64>()) {
        let truth = vec![1.0, 5.0, 20.0];
        let mut rng = StdRng::seed_from_u64(seed);
        let noisy = EstimationNoise::new(sigma).apply(&truth, &mut rng);
        prop_assert_eq!(noisy.len(), truth.len());
        for (n, t) in noisy.iter().zip(&truth) {
            prop_assert!(*n > 0.0);
            if sigma == 0.0 {
                prop_assert_eq!(n, t);
            }
        }
    }
}
