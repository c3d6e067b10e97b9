//! Straggler injection models.
//!
//! The paper distinguishes two straggler causes (§I): *transient
//! fluctuations* (faults, resource contention) and *consistent
//! heterogeneity*. Heterogeneity lives in [`crate::ClusterSpec`]; this
//! module injects the transient part:
//!
//! * [`StragglerModel::FixedDelay`] — "stragglers are created artificially
//!   by adding delay to the workers" (Fig. 2 caption).
//! * [`StragglerModel::Failures`] — the delay→∞ fault case.
//! * [`StragglerModel::Random`] / [`StragglerModel::RandomChoice`] —
//!   per-iteration random slowdowns (the environment of Fig. 3).

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Distribution of the *extra* delay (seconds) suffered by a straggling
/// worker in one iteration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DelayDistribution {
    /// Always exactly this many seconds.
    Constant(f64),
    /// Uniform in `[low, high)`.
    Uniform {
        /// Inclusive lower bound (seconds).
        low: f64,
        /// Exclusive upper bound (seconds).
        high: f64,
    },
    /// Exponential with the given mean (heavy-ish tail, the classic
    /// straggler shape).
    Exponential {
        /// Mean delay (seconds).
        mean: f64,
    },
}

impl DelayDistribution {
    /// Draws one delay.
    ///
    /// # Panics
    ///
    /// Panics if the distribution parameters are non-finite or negative
    /// (validated here rather than at construction so the enum stays a
    /// plain data type).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            DelayDistribution::Constant(d) => {
                assert!(d.is_finite() && d >= 0.0, "delay must be non-negative");
                d
            }
            DelayDistribution::Uniform { low, high } => {
                assert!(low >= 0.0 && high > low, "need 0 <= low < high");
                rng.gen_range(low..high)
            }
            DelayDistribution::Exponential { mean } => {
                assert!(mean > 0.0, "mean must be positive");
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                -mean * u.ln()
            }
        }
    }
}

/// What happened to one worker in one iteration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StragglerEvent {
    /// The worker computes at its nominal speed.
    Normal,
    /// The worker's result is delayed by the given extra seconds.
    Delayed(f64),
    /// The worker never responds this iteration (full straggler / fault).
    Failed,
}

impl StragglerEvent {
    /// The extra delay in seconds; `0` for normal, `+∞` for failed.
    pub fn extra_delay(self) -> f64 {
        match self {
            StragglerEvent::Normal => 0.0,
            StragglerEvent::Delayed(d) => d,
            StragglerEvent::Failed => f64::INFINITY,
        }
    }
}

/// Per-iteration straggler injection policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StragglerModel {
    /// No transient stragglers (pure heterogeneity).
    None,
    /// The listed workers get a constant extra delay every iteration —
    /// the Fig. 2 methodology.
    FixedDelay {
        /// Straggling worker indices.
        workers: Vec<usize>,
        /// Extra delay in seconds.
        delay: f64,
    },
    /// The listed workers never respond (fault injection; the `delay = ∞`
    /// limit of Fig. 2).
    Failures {
        /// Failed worker indices.
        workers: Vec<usize>,
    },
    /// Each worker independently straggles with probability `probability`
    /// each iteration, drawing its delay from `delay`.
    Random {
        /// Per-worker, per-iteration straggle probability in `[0,1]`.
        probability: f64,
        /// Delay distribution for straggling workers.
        delay: DelayDistribution,
    },
    /// Exactly `count` distinct workers, chosen uniformly at random each
    /// iteration, straggle with delays from `delay`.
    RandomChoice {
        /// Number of stragglers per iteration.
        count: usize,
        /// Delay distribution for the chosen workers.
        delay: DelayDistribution,
    },
}

impl StragglerModel {
    /// Samples the straggler events for one iteration over `m` workers.
    ///
    /// Out-of-range indices in fixed sets are ignored (allows reusing one
    /// model across clusters of different sizes in sweeps).
    pub fn sample_iteration<R: Rng + ?Sized>(&self, m: usize, rng: &mut R) -> Vec<StragglerEvent> {
        let mut events = vec![StragglerEvent::Normal; m];
        match self {
            StragglerModel::None => {}
            StragglerModel::FixedDelay { workers, delay } => {
                for &w in workers {
                    if w < m {
                        events[w] = StragglerEvent::Delayed(*delay);
                    }
                }
            }
            StragglerModel::Failures { workers } => {
                for &w in workers {
                    if w < m {
                        events[w] = StragglerEvent::Failed;
                    }
                }
            }
            StragglerModel::Random { probability, delay } => {
                assert!((0.0..=1.0).contains(probability), "probability in [0,1]");
                for e in events.iter_mut() {
                    if rng.gen_bool(*probability) {
                        *e = StragglerEvent::Delayed(delay.sample(rng));
                    }
                }
            }
            StragglerModel::RandomChoice { count, delay } => {
                let mut idx: Vec<usize> = (0..m).collect();
                idx.shuffle(rng);
                for &w in idx.iter().take((*count).min(m)) {
                    events[w] = StragglerEvent::Delayed(delay.sample(rng));
                }
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn none_is_all_normal() {
        let events = StragglerModel::None.sample_iteration(4, &mut rng());
        assert!(events.iter().all(|e| *e == StragglerEvent::Normal));
    }

    #[test]
    fn fixed_delay_targets_listed_workers() {
        let m = StragglerModel::FixedDelay {
            workers: vec![1, 3],
            delay: 2.5,
        };
        let events = m.sample_iteration(4, &mut rng());
        assert_eq!(events[0], StragglerEvent::Normal);
        assert_eq!(events[1], StragglerEvent::Delayed(2.5));
        assert_eq!(events[3], StragglerEvent::Delayed(2.5));
    }

    #[test]
    fn fixed_delay_ignores_out_of_range() {
        let m = StragglerModel::FixedDelay {
            workers: vec![9],
            delay: 1.0,
        };
        let events = m.sample_iteration(2, &mut rng());
        assert!(events.iter().all(|e| *e == StragglerEvent::Normal));
    }

    #[test]
    fn failures_are_infinite_delay() {
        let m = StragglerModel::Failures { workers: vec![0] };
        let events = m.sample_iteration(2, &mut rng());
        assert_eq!(events[0], StragglerEvent::Failed);
        assert_eq!(events[0].extra_delay(), f64::INFINITY);
        assert_eq!(events[1], StragglerEvent::Normal);
    }

    #[test]
    fn random_probability_zero_and_one() {
        let never = StragglerModel::Random {
            probability: 0.0,
            delay: DelayDistribution::Constant(1.0),
        };
        assert!(never
            .sample_iteration(8, &mut rng())
            .iter()
            .all(|e| *e == StragglerEvent::Normal));
        let always = StragglerModel::Random {
            probability: 1.0,
            delay: DelayDistribution::Constant(1.0),
        };
        assert!(always
            .sample_iteration(8, &mut rng())
            .iter()
            .all(|e| matches!(e, StragglerEvent::Delayed(_))));
    }

    #[test]
    fn random_choice_exact_count() {
        let m = StragglerModel::RandomChoice {
            count: 3,
            delay: DelayDistribution::Constant(0.5),
        };
        for _ in 0..10 {
            let events = m.sample_iteration(8, &mut rng());
            let delayed = events
                .iter()
                .filter(|e| matches!(e, StragglerEvent::Delayed(_)))
                .count();
            assert_eq!(delayed, 3);
        }
    }

    #[test]
    fn random_choice_caps_at_m() {
        let m = StragglerModel::RandomChoice {
            count: 10,
            delay: DelayDistribution::Constant(0.5),
        };
        let events = m.sample_iteration(4, &mut rng());
        assert_eq!(events.len(), 4);
        assert!(events
            .iter()
            .all(|e| matches!(e, StragglerEvent::Delayed(_))));
    }

    #[test]
    fn uniform_delay_in_range() {
        let d = DelayDistribution::Uniform {
            low: 1.0,
            high: 2.0,
        };
        let mut r = rng();
        for _ in 0..100 {
            let x = d.sample(&mut r);
            assert!((1.0..2.0).contains(&x));
        }
    }

    #[test]
    fn exponential_delay_positive_with_roughly_right_mean() {
        let d = DelayDistribution::Exponential { mean: 2.0 };
        let mut r = rng();
        let n = 4000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64;
        assert!(mean > 1.7 && mean < 2.3, "sample mean {mean}");
    }

    #[test]
    #[should_panic(expected = "low < high")]
    fn uniform_invalid_range_panics() {
        DelayDistribution::Uniform {
            low: 2.0,
            high: 1.0,
        }
        .sample(&mut rng());
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn random_invalid_probability_panics() {
        StragglerModel::Random {
            probability: 1.5,
            delay: DelayDistribution::Constant(1.0),
        }
        .sample_iteration(2, &mut rng());
    }

    #[test]
    fn extra_delay_accessor() {
        assert_eq!(StragglerEvent::Normal.extra_delay(), 0.0);
        assert_eq!(StragglerEvent::Delayed(3.0).extra_delay(), 3.0);
    }
}
