//! Property-based tests of the adaptation loop: the deadline it learns
//! converges to its target quantile on stationary arrivals, and its drift
//! detection separates real rate steps from estimation-noise-level
//! jitter.

use hetgc_cluster::EstimationNoise;
use hetgc_sim::RateDrift;
use hetgc_telemetry::{Adaptation, AdaptationConfig, RoundSample};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn stationary_times() -> impl Strategy<Value = (Vec<f64>, u64)> {
    // 120 iid round times: base in [0.5, 4), relative spread up to 30 %.
    (0.5f64..4.0, 0.0f64..0.3, any::<u64>()).prop_flat_map(|(base, spread, seed)| {
        (
            prop::collection::vec(0.0f64..1.0, 120).prop_map(move |us| {
                us.iter()
                    .map(|u| base * (1.0 + spread * (u - 0.5)))
                    .collect()
            }),
            Just(seed),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On stationary arrivals the deadline `Adaptation` learns (p90 of
    /// the hub's 64-round window × 1.25) converges to the empirical
    /// target quantile (× margin) of the recent window.
    #[test]
    fn deadline_converges_to_target_quantile((times, _seed) in stationary_times()) {
        let mut adaptation = Adaptation::new(1, AdaptationConfig::default());
        let mut learned = None;
        for &t in &times {
            learned = adaptation.observe_round(t, &[]).deadline;
        }
        let learned = learned.expect("past warmup");
        // Empirical nearest-rank p90 of the last 64 observations.
        let mut window: Vec<f64> = times[times.len() - 64..].to_vec();
        window.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let expected = window[(0.9 * 63.0_f64).round() as usize] * 1.25;
        prop_assert!(
            (learned - expected).abs() <= 1e-9,
            "learned {learned} vs empirical p90 × 1.25 {expected}"
        );
        // A deadline the margin keeps above the typical round.
        let median = window[31];
        prop_assert!(learned >= median, "p90 below the median?");
    }

    /// A `RateDrift::StepChange` beyond the noise envelope fires drift
    /// on every affected worker, never on the steady ones, and asks for
    /// a re-code.
    #[test]
    fn detector_fires_on_step_change(
        (m, factor, seed) in (2usize..6, 0.15f64..0.5, any::<u64>())
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base: Vec<f64> = (0..m).map(|_| rng.gen_range(1.0f64..8.0)).collect();
        let slowed = 0; // worker 0 takes the co-tenant
        let mut factors = vec![1.0; m];
        factors[slowed] = factor;
        let drift = RateDrift::StepChange { at: 20, factors };
        let mut adaptation = Adaptation::new(m, AdaptationConfig::default());
        let mut fired: Vec<usize> = Vec::new();
        let mut recoded = false;
        for iter in 0..60 {
            let decision = adaptation.observe_round(1.0, &samples_at(&drift.rates_at(&base, iter)));
            for event in &decision.drift_events {
                prop_assert!(iter >= 20, "fired before the step at iter {iter}");
                fired.push(event.worker);
            }
            recoded |= decision.recode;
        }
        prop_assert_eq!(fired, vec![slowed]);
        prop_assert!(recoded);
    }

    /// Estimation-noise-level jitter (the §V setting the group-based
    /// scheme hedges against) stays inside the detector's dead-band.
    #[test]
    fn detector_quiet_under_estimation_noise(
        (m, sigma, seed) in (2usize..6, 0.0f64..0.05, any::<u64>())
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base: Vec<f64> = (0..m).map(|_| rng.gen_range(1.0f64..8.0)).collect();
        let noise = EstimationNoise::new(sigma);
        let mut adaptation = Adaptation::new(m, AdaptationConfig::default());
        for _ in 0..80 {
            let decision = adaptation.observe_round(1.0, &samples_at(&noise.apply(&base, &mut rng)));
            prop_assert!(
                decision.drift_events.is_empty() && !decision.recode,
                "false positive at σ={}", sigma
            );
        }
    }
}

/// One round in which worker `w` does `rates[w]` units of work in one
/// second.
fn samples_at(rates: &[f64]) -> Vec<RoundSample> {
    rates
        .iter()
        .enumerate()
        .map(|(w, &r)| RoundSample::completed(w, r, 1.0, 1.0))
        .collect()
}
