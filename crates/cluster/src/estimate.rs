//! Throughput estimation.
//!
//! The heter-aware scheme needs the throughputs `c_i`, "which can be
//! estimated by sampling" (§III-C). In a real deployment the estimate is
//! imperfect — the paper's §V opens by noting that `c_i` "is hard to be
//! measured exactly because of tiny fluctuation in runtime", which is
//! precisely why the group-based scheme exists. This module provides:
//!
//! * [`EwmaEstimator`] — exponentially-weighted moving average of observed
//!   rates, tracking drifting speeds (the telemetry hub's estimator).
//! * [`EstimationNoise`] — utility to corrupt ground-truth throughputs with
//!   multiplicative noise, so experiments can sweep estimation quality.

use rand::Rng;

use crate::error::ClusterError;

/// Exponentially-weighted moving-average estimator:
/// `ĉ ← (1−α)·ĉ + α·(work/elapsed)`.
///
/// Tracks drifting worker speeds (e.g. co-tenant interference that comes
/// and goes) at the cost of more variance than a cumulative average.
#[derive(Debug, Clone)]
pub struct EwmaEstimator {
    alpha: f64,
    current: Vec<Option<f64>>,
}

impl EwmaEstimator {
    /// An EWMA estimator for `m` workers with smoothing factor
    /// `alpha ∈ (0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha <= 1`.
    pub fn new(m: usize, alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        EwmaEstimator {
            alpha,
            current: vec![None; m],
        }
    }

    /// Records that `worker` completed `work_done` units (samples,
    /// partitions — any consistent unit) in `elapsed` seconds. A sample
    /// with `elapsed <= 0`, negative work (or NaN in either) or an
    /// out-of-range worker is ignored rather than poisoning the state.
    pub fn observe(&mut self, worker: usize, work_done: f64, elapsed: f64) {
        let valid_sample = elapsed > 0.0 && work_done >= 0.0; // false for NaN too
        if worker >= self.current.len() || !valid_sample {
            return;
        }
        let rate = work_done / elapsed;
        self.current[worker] = Some(match self.current[worker] {
            None => rate,
            Some(prev) => (1.0 - self.alpha) * prev + self.alpha * rate,
        });
    }

    /// Current throughput estimate for one worker, in units/second.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownWorker`] for out-of-range indices;
    /// [`ClusterError::NoSamples`] before the first observation.
    pub fn estimate(&self, worker: usize) -> Result<f64, ClusterError> {
        match self.current.get(worker) {
            None => Err(ClusterError::UnknownWorker {
                worker,
                size: self.current.len(),
            }),
            Some(None) => Err(ClusterError::NoSamples { worker }),
            Some(Some(v)) => Ok(*v),
        }
    }
}

/// Multiplicative estimation noise: `ĉ_i = c_i · max(floor, 1 + σ·z_i)`
/// with `z_i` standard normal.
///
/// Experiments use this to answer "how wrong can the estimates be before
/// heter-aware degrades, and does group-based help?" — the paper's Fig. 4/5
/// setting where group-based wins.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimationNoise {
    sigma: f64,
    floor: f64,
}

impl EstimationNoise {
    /// Noise with relative standard deviation `sigma`; the multiplier is
    /// clamped below at `0.05` so estimates stay positive.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or non-finite.
    pub fn new(sigma: f64) -> Self {
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "sigma must be non-negative"
        );
        EstimationNoise { sigma, floor: 0.05 }
    }

    /// Applies the noise to ground-truth throughputs.
    pub fn apply<R: Rng + ?Sized>(&self, truth: &[f64], rng: &mut R) -> Vec<f64> {
        truth
            .iter()
            .map(|&c| {
                let z = standard_normal(rng);
                c * (1.0 + self.sigma * z).max(self.floor)
            })
            .collect()
    }
}

/// Box–Muller standard normal (keeps us off `rand_distr`).
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    // `EwmaEstimator` is this crate's sampling estimator (§III-C): it is
    // fed one sampled rate per worker per round.
    #[test]
    fn sampling_estimator_errors() {
        let e = EwmaEstimator::new(2, 0.5);
        assert!(matches!(
            e.estimate(0),
            Err(ClusterError::NoSamples { worker: 0 })
        ));
        assert!(matches!(
            e.estimate(5),
            Err(ClusterError::UnknownWorker { .. })
        ));
    }

    #[test]
    fn sampling_estimator_ignores_garbage() {
        let mut e = EwmaEstimator::new(1, 0.5);
        e.observe(0, 10.0, 0.0); // zero elapsed: ignored
        e.observe(0, -1.0, 1.0); // negative work: ignored
        e.observe(0, f64::NAN, 1.0); // NaN work: ignored
        e.observe(9, 10.0, 1.0); // out of range: ignored
        assert!(matches!(
            e.estimate(0),
            Err(ClusterError::NoSamples { worker: 0 })
        ));
    }

    #[test]
    fn ewma_tracks_change() {
        let mut e = EwmaEstimator::new(1, 0.5);
        e.observe(0, 10.0, 1.0); // 10
        assert_eq!(e.estimate(0).unwrap(), 10.0);
        e.observe(0, 20.0, 1.0); // 0.5*10 + 0.5*20 = 15
        assert_eq!(e.estimate(0).unwrap(), 15.0);
        assert_eq!(e.alpha, 0.5);
    }

    #[test]
    fn ewma_converges_to_steady_rate() {
        let mut e = EwmaEstimator::new(1, 0.3);
        for _ in 0..60 {
            e.observe(0, 7.0, 1.0);
        }
        assert!((e.estimate(0).unwrap() - 7.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ewma_rejects_bad_alpha() {
        EwmaEstimator::new(1, 0.0);
    }

    #[test]
    fn noise_zero_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let truth = vec![1.0, 2.0, 3.0];
        assert_eq!(EstimationNoise::new(0.0).apply(&truth, &mut rng), truth);
    }

    #[test]
    fn noise_preserves_positivity() {
        let mut rng = StdRng::seed_from_u64(2);
        let noise = EstimationNoise::new(2.0); // huge sigma
        let out = noise.apply(&vec![1.0; 200], &mut rng);
        assert!(out.iter().all(|&x| x > 0.0));
        assert_eq!(noise.sigma, 2.0);
    }

    #[test]
    fn noise_has_roughly_unit_mean() {
        let mut rng = StdRng::seed_from_u64(3);
        let noise = EstimationNoise::new(0.2);
        let out = noise.apply(&vec![1.0; 5000], &mut rng);
        let mean: f64 = out.iter().sum::<f64>() / out.len() as f64;
        assert!((mean - 1.0).abs() < 0.02, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn noise_rejects_negative_sigma() {
        EstimationNoise::new(-0.1);
    }
}
