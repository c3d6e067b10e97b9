//! The shared vocabulary of the simulated engines: [`SimTrainConfig`]
//! (the knobs [`SimBspEngine`](crate::SimBspEngine) and
//! [`SimSspEngine`](crate::SimSspEngine) read) and [`LossCurve`] (the
//! loss-vs-simulated-time curve of the paper's Fig. 4). The module tests
//! pin the behaviour of those engines under
//! [`TrainDriver`](crate::TrainDriver): BSP runs *real* SGD — exact
//! per-partition gradients, encoded, decoded at the simulator-chosen
//! survivor set — so the paper's accuracy-preservation claim (§II) is
//! checked on every step; only the *clock* is simulated.

use hetgc_cluster::StragglerModel;
use hetgc_coding::CodecBackend;
use hetgc_sim::NetworkModel;

/// Shared knobs of the simulated trainers.
#[derive(Debug, Clone)]
pub struct SimTrainConfig {
    /// Number of BSP iterations (or SSP update events / m) to run.
    pub iterations: usize,
    /// SGD learning rate on the mean gradient.
    pub learning_rate: f64,
    /// Network model for gradient upload.
    pub network: NetworkModel,
    /// Gradient payload in bytes (≈ `num_params × 8` for f64 models).
    pub payload_bytes: f64,
    /// Relative σ of per-iteration multiplicative compute jitter.
    pub compute_jitter: f64,
    /// Transient straggler injection (BSP only).
    pub stragglers: StragglerModel,
    /// Evaluate the loss every this many updates (SSP evaluates less often
    /// because updates are per-worker; BSP evaluates every iteration).
    pub eval_every: usize,
    /// Which codec backend decodes each iteration (BSP only).
    /// [`CodecBackend::Auto`] picks the group-aware backend for
    /// group-based schemes and the generic exact backend otherwise;
    /// [`CodecBackend::Approx`] keeps training (with bounded gradient
    /// error) when more than `s` workers straggle.
    pub backend: CodecBackend,
}

impl Default for SimTrainConfig {
    /// 100 iterations, lr 0.1, LAN network, 4 KB payload, no jitter, no
    /// stragglers, evaluate every 8 updates, auto backend.
    fn default() -> Self {
        SimTrainConfig {
            iterations: 100,
            learning_rate: 0.1,
            network: NetworkModel::lan(),
            payload_bytes: 4096.0,
            compute_jitter: 0.0,
            stragglers: StragglerModel::None,
            eval_every: 8,
            backend: CodecBackend::Auto,
        }
    }
}

/// A labelled loss-vs-simulated-time curve.
#[derive(Debug, Clone, PartialEq)]
pub struct LossCurve {
    /// Legend label (scheme name).
    pub label: String,
    /// `(simulated seconds, mean training loss)` points in time order.
    pub points: Vec<(f64, f64)>,
}

impl LossCurve {
    /// The last recorded loss, or `None` for an empty curve.
    pub fn final_loss(&self) -> Option<f64> {
        self.points.last().map(|&(_, l)| l)
    }

    /// First simulated time at which the loss drops to `target`, or
    /// `None` if it never does.
    pub fn time_to_loss(&self, target: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|&&(_, l)| l <= target)
            .map(|&(t, _)| t)
    }

    /// Total simulated duration covered by the curve.
    pub fn duration(&self) -> f64 {
        self.points.last().map(|&(t, _)| t).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{DriverConfig, TrainDriver, TrainOutcome};
    use crate::engine::{SimBspEngine, SimSspEngine};
    use crate::scheme::{BoxError, SchemeBuilder, SchemeInstance, SchemeKind};
    use hetgc_cluster::{ClusterSpec, StragglerModel};
    use hetgc_coding::EscalationPolicy;
    use hetgc_ml::{synthetic, Dataset, LinearRegression, Sgd, SoftmaxRegression};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// `cfg.iterations` rounds of coded BSP SGD over the simulated cluster.
    fn run_bsp(
        scheme: &SchemeInstance,
        model: &LinearRegression,
        data: &Dataset,
        rates: &[f64],
        cfg: &SimTrainConfig,
        rng: &mut StdRng,
    ) -> Result<TrainOutcome, BoxError> {
        let policy = EscalationPolicy::follow_backend();
        let mut engine = SimBspEngine::new(scheme, model, data, rates, cfg, policy)?;
        TrainDriver::new(model, data, Sgd::new(cfg.learning_rate)).run(
            &mut engine,
            cfg.iterations,
            rng,
        )
    }

    fn small_cluster() -> ClusterSpec {
        // 1/2/3/4 vCPUs: heterogeneous enough that the balanced allocation
        // strictly beats uniform schemes (2·m·min_c < Σc).
        ClusterSpec::from_vcpu_rows("mini", &[(1, 1), (1, 2), (1, 3), (1, 4)], 50.0).unwrap()
    }

    #[test]
    fn bsp_training_reduces_loss_for_all_schemes() {
        let cluster = small_cluster();
        let rates = cluster.throughputs();
        let mut r = rng(1);
        let data = synthetic::linear_regression(80, 3, 0.01, &mut r);
        let model = LinearRegression::new(3);
        let cfg = SimTrainConfig {
            iterations: 40,
            learning_rate: 0.2,
            ..SimTrainConfig::default()
        };
        for kind in SchemeKind::PAPER {
            let scheme = SchemeBuilder::new(&cluster, 1).build(kind, &mut r).unwrap();
            let out = run_bsp(&scheme, &model, &data, &rates, &cfg, &mut r).unwrap();
            assert!(!out.stalled, "{kind} stalled");
            let first = out.curve.points[0].1;
            let last = out.curve.final_loss().unwrap();
            assert!(last < first, "{kind}: {first} → {last}");
            assert_eq!(out.rounds(), 40);
        }
    }

    #[test]
    fn bsp_curves_share_loss_trajectory_but_not_time() {
        // Exact decoding ⇒ identical per-iteration losses across schemes
        // (same seed for init); only the time axis differs.
        let cluster = small_cluster();
        let rates = cluster.throughputs();
        let data = synthetic::linear_regression(80, 3, 0.01, &mut rng(42));
        let model = LinearRegression::new(3);
        let cfg = SimTrainConfig {
            iterations: 15,
            ..SimTrainConfig::default()
        };

        let mut build_rng = rng(7);
        let naive = SchemeBuilder::new(&cluster, 1)
            .build(SchemeKind::Naive, &mut build_rng)
            .unwrap();
        let heter = SchemeBuilder::new(&cluster, 1)
            .build(SchemeKind::HeterAware, &mut build_rng)
            .unwrap();

        let out_a = run_bsp(&naive, &model, &data, &rates, &cfg, &mut rng(5)).unwrap();
        let out_b = run_bsp(&heter, &model, &data, &rates, &cfg, &mut rng(5)).unwrap();
        for ((_, la), (_, lb)) in out_a.curve.points.iter().zip(&out_b.curve.points) {
            assert!(
                (la - lb).abs() < 1e-9,
                "loss trajectories must match: {la} vs {lb}"
            );
        }
        // Heter-aware is faster per iteration on this heterogeneous cluster.
        assert!(out_b.curve.duration() < out_a.curve.duration());
    }

    #[test]
    fn bsp_naive_stalls_on_failure() {
        let cluster = small_cluster();
        let rates = cluster.throughputs();
        let data = synthetic::linear_regression(40, 2, 0.01, &mut rng(2));
        let model = LinearRegression::new(2);
        let cfg = SimTrainConfig {
            iterations: 10,
            stragglers: StragglerModel::Failures { workers: vec![0] },
            ..SimTrainConfig::default()
        };
        let scheme = SchemeBuilder::new(&cluster, 1)
            .build(SchemeKind::Naive, &mut rng(3))
            .unwrap();
        let out = run_bsp(&scheme, &model, &data, &rates, &cfg, &mut rng(4)).unwrap();
        assert!(out.stalled);
        assert!(out.curve.points.is_empty());
        assert_eq!(out.failed_rounds, 1);
    }

    #[test]
    fn bsp_heter_aware_survives_failure() {
        let cluster = small_cluster();
        let rates = cluster.throughputs();
        let data = synthetic::linear_regression(40, 2, 0.01, &mut rng(5));
        let model = LinearRegression::new(2);
        let cfg = SimTrainConfig {
            iterations: 10,
            stragglers: StragglerModel::Failures { workers: vec![0] },
            ..SimTrainConfig::default()
        };
        let scheme = SchemeBuilder::new(&cluster, 1)
            .build(SchemeKind::HeterAware, &mut rng(6))
            .unwrap();
        let out = run_bsp(&scheme, &model, &data, &rates, &cfg, &mut rng(7)).unwrap();
        assert!(!out.stalled);
        assert_eq!(out.curve.points.len(), 10);
    }

    #[test]
    fn ssp_trains_and_is_gated() {
        let cluster = small_cluster();
        let rates = cluster.throughputs();
        let mut r = rng(8);
        let data = synthetic::gaussian_blobs(60, 2, 3, 5.0, &mut r);
        let model = SoftmaxRegression::new(2, 3);
        let cfg = SimTrainConfig {
            iterations: 30,
            learning_rate: 0.3,
            eval_every: 4,
            ..SimTrainConfig::default()
        };
        // `iterations × m` update events match the sample throughput of a
        // BSP run of `iterations` rounds.
        let mut engine = SimSspEngine::shard(&model, &data, &rates, 3, &cfg).unwrap();
        let curve = TrainDriver::new(&model, &data, Sgd::new(cfg.learning_rate))
            .with_config(DriverConfig {
                eval_every: cfg.eval_every,
                ..DriverConfig::default()
            })
            .run(&mut engine, cfg.iterations * rates.len(), &mut r)
            .unwrap()
            .curve;
        assert!(!curve.points.is_empty());
        let first = curve.points[0].1;
        let last = curve.final_loss().unwrap();
        assert!(
            last < first,
            "SSP should still make progress: {first} → {last}"
        );
    }

    #[test]
    fn curve_helpers() {
        let c = LossCurve {
            label: "x".into(),
            points: vec![(1.0, 0.9), (2.0, 0.5), (3.0, 0.2)],
        };
        assert_eq!(c.final_loss(), Some(0.2));
        assert_eq!(c.time_to_loss(0.5), Some(2.0));
        assert_eq!(c.time_to_loss(0.1), None);
        assert_eq!(c.duration(), 3.0);
        let empty = LossCurve {
            label: "e".into(),
            points: vec![],
        };
        assert_eq!(empty.final_loss(), None);
        assert_eq!(empty.duration(), 0.0);
    }

    #[test]
    fn bsp_rejects_mismatched_rates() {
        let cluster = small_cluster();
        let data = synthetic::linear_regression(40, 2, 0.01, &mut rng(9));
        let model = LinearRegression::new(2);
        let scheme = SchemeBuilder::new(&cluster, 1)
            .build(SchemeKind::Naive, &mut rng(10))
            .unwrap();
        let cfg = SimTrainConfig::default();
        assert!(run_bsp(&scheme, &model, &data, &[1.0], &cfg, &mut rng(11)).is_err());
    }
}
