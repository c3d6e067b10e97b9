//! Experiment runners regenerating every figure of the paper's evaluation
//! (§VI). Each `figN` function is the library side of the corresponding
//! `hetgc-bench` binary; see EXPERIMENTS.md for the recorded outputs.
//! Every figure runs [`SimBspEngine`]'s round: Fig. 4 with a model, the
//! timing figures ([`run_timing`]) without one.

use hetgc_cluster::{ClusterSpec, DelayDistribution, EstimationNoise, StragglerModel};
use hetgc_coding::{CodecBackend, EscalationPolicy};
use hetgc_ml::{synthetic, Mlp, Sgd};
use hetgc_sim::NetworkModel;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::driver::{drive_timing, DriverConfig, TrainDriver, TrainOutcome};
use crate::engine::{SimBspEngine, SimSspEngine};
use crate::scheme::{BoxError, SchemeBuilder, SchemeInstance, SchemeKind};
use crate::trainer::{LossCurve, SimTrainConfig};

/// Timing-only run of one scheme: `iterations` rounds of a
/// [`SimBspEngine`] with no model — the engine Fig. 4 trains on, so the
/// time axis of Figs. 2, 3, 5 and of the loss curves is one round — through
/// the unified `drive_timing` loop.
///
/// Decoding is always the exact backend: Figs. 2, 3, 5 give every scheme
/// the same wait-for-any-decodable-set master, so a group-based round does
/// not end early at an intact group.
///
/// # Errors
///
/// Propagates simulator configuration errors.
#[allow(clippy::too_many_arguments)] // a flat knob list mirrors the figure configs
pub fn run_timing<R: Rng>(
    scheme: &SchemeInstance,
    rates: &[f64],
    samples: usize,
    stragglers: &StragglerModel,
    network: NetworkModel,
    payload_bytes: f64,
    jitter: f64,
    iterations: usize,
    rng: &mut R,
) -> Result<TrainOutcome, BoxError> {
    let cfg = SimTrainConfig {
        network,
        payload_bytes,
        compute_jitter: jitter,
        stragglers: stragglers.clone(),
        backend: CodecBackend::Exact,
        ..SimTrainConfig::default()
    };
    let policy = EscalationPolicy::follow_backend();
    let mut engine = SimBspEngine::timing(scheme, samples, rates, &cfg, policy)?;
    drive_timing(&mut engine, iterations, rng)
}

// ---------------------------------------------------------------- Fig. 2

/// Configuration of the Fig. 2 experiment (delay sweep on Cluster-A).
#[derive(Debug, Clone)]
pub struct Fig2Config {
    /// The cluster (the paper uses Cluster-A).
    pub cluster: ClusterSpec,
    /// Designed straggler tolerance `s` (1 for Fig. 2a, 2 for Fig. 2b).
    pub stragglers: usize,
    /// Injected delays in seconds (the x-axis).
    pub delays: Vec<f64>,
    /// Also run the fault case (delay = ∞).
    pub include_fault: bool,
    /// Iterations averaged per point.
    pub iterations: usize,
    /// Dataset size in samples (scales iteration times).
    pub samples: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fig2Config {
    /// The paper's setting: Cluster-A, s = 1, delays 0–10 s plus fault,
    /// 30 iterations per point.
    fn default() -> Self {
        Fig2Config {
            cluster: ClusterSpec::cluster_a(),
            stragglers: 1,
            delays: vec![0.0, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0],
            include_fault: true,
            iterations: 30,
            samples: 48,
            seed: 2019,
        }
    }
}

/// One x-axis point of Fig. 2: the average iteration time of each scheme
/// at one injected delay (`None` = cannot complete, e.g. naive + fault).
#[derive(Debug, Clone)]
pub struct Fig2Row {
    /// The injected delay (`f64::INFINITY` for the fault case).
    pub delay: f64,
    /// `(scheme, avg seconds per iteration)` in [`SchemeKind::PAPER`] order.
    pub avg_times: Vec<(SchemeKind, Option<f64>)>,
}

/// Runs the Fig. 2 sweep: per delay, `s` random workers are delayed each
/// iteration (re-drawn per iteration, matching the paper's "any s random
/// workers"); the fault point pins `s` random workers dead.
///
/// # Errors
///
/// Propagates scheme-construction and simulator errors.
pub fn fig2(cfg: &Fig2Config) -> Result<Vec<Fig2Row>, BoxError> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let rates = cfg.cluster.throughputs();
    let builder = SchemeBuilder::new(&cfg.cluster, cfg.stragglers);
    let schemes = builder.build_paper_schemes(&mut rng)?;

    let mut rows = Vec::new();
    let mut delays = cfg.delays.clone();
    if cfg.include_fault {
        delays.push(f64::INFINITY);
    }
    for &delay in &delays {
        let model = if delay.is_infinite() {
            let mut idx: Vec<usize> = (0..cfg.cluster.len()).collect();
            idx.shuffle(&mut rng);
            StragglerModel::Failures {
                workers: idx[..cfg.stragglers].to_vec(),
            }
        } else if delay == 0.0 {
            StragglerModel::None
        } else {
            StragglerModel::RandomChoice {
                count: cfg.stragglers,
                delay: DelayDistribution::Constant(delay),
            }
        };
        let mut avg_times = Vec::new();
        for scheme in &schemes {
            let run = run_timing(
                scheme,
                &rates,
                cfg.samples,
                &model,
                NetworkModel::lan(),
                4096.0 * 64.0,
                0.02,
                cfg.iterations,
                &mut rng,
            )?;
            avg_times.push((scheme.kind, run.mean_round_seconds()));
        }
        rows.push(Fig2Row { delay, avg_times });
    }
    Ok(rows)
}

// ---------------------------------------------------------------- Fig. 3

/// Configuration of the Fig. 3 experiment (scheme comparison across
/// clusters under transient stragglers).
#[derive(Debug, Clone)]
pub struct Fig3Config {
    /// Clusters to sweep (the paper uses B, C, D).
    pub clusters: Vec<ClusterSpec>,
    /// Designed straggler tolerance.
    pub stragglers: usize,
    /// Iterations averaged per cluster × scheme.
    pub iterations: usize,
    /// Dataset size in samples.
    pub samples: usize,
    /// Relative σ of throughput-estimation noise (motivates group-based).
    pub estimation_noise: f64,
    /// Per-iteration compute jitter σ.
    pub jitter: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fig3Config {
    /// Clusters B/C/D, s = 1, 50 iterations, 10 % estimation noise, 5 %
    /// jitter, random transient delays.
    fn default() -> Self {
        Fig3Config {
            clusters: vec![
                ClusterSpec::cluster_b(),
                ClusterSpec::cluster_c(),
                ClusterSpec::cluster_d(),
            ],
            stragglers: 1,
            iterations: 50,
            samples: 300,
            estimation_noise: 0.10,
            jitter: 0.05,
            seed: 2020,
        }
    }
}

/// One cluster's results in Fig. 3.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// Cluster name.
    pub cluster: String,
    /// `(scheme, avg seconds per iteration)`.
    pub avg_times: Vec<(SchemeKind, Option<f64>)>,
}

/// Runs Fig. 3: on each cluster, all four schemes under random transient
/// stragglers (uniform 0.5–3 s delays on `s` random workers per
/// iteration), with noisy throughput estimates feeding the
/// heterogeneity-aware schemes.
///
/// # Errors
///
/// Propagates scheme-construction and simulator errors.
pub fn fig3(cfg: &Fig3Config) -> Result<Vec<Fig3Row>, BoxError> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let noise = EstimationNoise::new(cfg.estimation_noise);
    let mut rows = Vec::new();
    for cluster in &cfg.clusters {
        let rates = cluster.throughputs();
        let estimates = noise.apply(&rates, &mut rng);
        let builder = SchemeBuilder::new(cluster, cfg.stragglers).estimates(estimates);
        let schemes = builder.build_paper_schemes(&mut rng)?;
        let model = StragglerModel::RandomChoice {
            count: cfg.stragglers,
            delay: DelayDistribution::Uniform {
                low: 0.5,
                high: 3.0,
            },
        };
        let mut avg_times = Vec::new();
        for scheme in &schemes {
            let run = run_timing(
                scheme,
                &rates,
                cfg.samples,
                &model,
                NetworkModel::lan(),
                4096.0 * 64.0,
                cfg.jitter,
                cfg.iterations,
                &mut rng,
            )?;
            avg_times.push((scheme.kind, run.mean_round_seconds()));
        }
        rows.push(Fig3Row {
            cluster: cluster.name().to_owned(),
            avg_times,
        });
    }
    Ok(rows)
}

// ---------------------------------------------------------------- Fig. 4

/// Configuration of the Fig. 4 experiment (training-loss curves on
/// Cluster-C).
#[derive(Debug, Clone)]
pub struct Fig4Config {
    /// The cluster (the paper uses Cluster-C).
    pub cluster: ClusterSpec,
    /// Designed straggler tolerance.
    pub stragglers: usize,
    /// BSP iterations (SSP runs the matching number of update events).
    pub iterations: usize,
    /// Samples in the synthetic image dataset.
    pub samples: usize,
    /// Input dimension (3072 for CIFAR shape; smaller for quick runs).
    pub dim: usize,
    /// Hidden width of the MLP.
    pub hidden: usize,
    /// Number of classes.
    pub classes: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// SSP staleness bound.
    pub ssp_staleness: usize,
    /// Estimation-noise σ for the heterogeneity-aware schemes.
    pub estimation_noise: f64,
    /// Compute jitter σ.
    pub jitter: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fig4Config {
    /// A scaled-down CIFAR-like run that finishes in seconds of real time:
    /// 3 200 samples × 64 dims, MLP 64-32-10, 60 iterations.
    fn default() -> Self {
        Fig4Config {
            cluster: ClusterSpec::cluster_c(),
            stragglers: 1,
            iterations: 60,
            samples: 3_200,
            dim: 64,
            hidden: 32,
            classes: 10,
            learning_rate: 0.5,
            ssp_staleness: 3,
            estimation_noise: 0.10,
            jitter: 0.05,
            seed: 2021,
        }
    }
}

/// Runs Fig. 4: loss-vs-simulated-time curves for the four BSP schemes and
/// SSP on the same dataset and model, all through the unified
/// [`TrainDriver`] loop.
///
/// # Errors
///
/// Propagates scheme-construction, trainer and simulator errors.
pub fn fig4(cfg: &Fig4Config) -> Result<Vec<LossCurve>, BoxError> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let rates = cfg.cluster.throughputs();
    let data = synthetic::image_like(cfg.samples, cfg.dim, cfg.classes, &mut rng);
    let model = Mlp::new(cfg.dim, cfg.hidden, cfg.classes);

    let noise = EstimationNoise::new(cfg.estimation_noise);
    let estimates = noise.apply(&rates, &mut rng);
    let builder = SchemeBuilder::new(&cfg.cluster, cfg.stragglers).estimates(estimates);
    let schemes = builder.build_paper_schemes(&mut rng)?;

    let train_cfg = SimTrainConfig {
        iterations: cfg.iterations,
        learning_rate: cfg.learning_rate,
        network: NetworkModel::lan(),
        payload_bytes: (model.dim() * model.hidden() * 8) as f64,
        compute_jitter: cfg.jitter,
        stragglers: StragglerModel::RandomChoice {
            count: cfg.stragglers,
            delay: DelayDistribution::Uniform {
                low: 0.2,
                high: 1.0,
            },
        },
        eval_every: cfg.cluster.len(),
        backend: CodecBackend::Auto,
    };

    let mut curves = Vec::new();
    for scheme in &schemes {
        // All BSP runs share the same init seed so their per-iteration loss
        // trajectories coincide and only the time axis differs (the paper's
        // Fig. 4 premise).
        let mut train_rng = StdRng::seed_from_u64(cfg.seed ^ 0xBEEF);
        let mut engine = SimBspEngine::new(
            scheme,
            &model,
            &data,
            &rates,
            &train_cfg,
            EscalationPolicy::follow_backend(),
        )?;
        let out = TrainDriver::new(&model, &data, Sgd::new(train_cfg.learning_rate)).run(
            &mut engine,
            train_cfg.iterations,
            &mut train_rng,
        )?;
        curves.push(out.curve);
    }
    let mut ssp_rng = StdRng::seed_from_u64(cfg.seed ^ 0xBEEF);
    let mut ssp = SimSspEngine::shard(&model, &data, &rates, cfg.ssp_staleness, &train_cfg)?;
    let out = TrainDriver::new(&model, &data, Sgd::new(train_cfg.learning_rate))
        .with_config(DriverConfig {
            eval_every: train_cfg.eval_every,
            ..DriverConfig::default()
        })
        .run(&mut ssp, train_cfg.iterations * rates.len(), &mut ssp_rng)?;
    curves.push(out.curve);
    Ok(curves)
}

// ---------------------------------------------------------------- Fig. 5

/// Configuration of the Fig. 5 experiment (computing-resource usage).
#[derive(Debug, Clone)]
pub struct Fig5Config {
    /// The cluster to measure on.
    pub cluster: ClusterSpec,
    /// Designed straggler tolerance.
    pub stragglers: usize,
    /// Iterations per scheme.
    pub iterations: usize,
    /// Dataset size in samples.
    pub samples: usize,
    /// Estimation-noise σ.
    pub estimation_noise: f64,
    /// Compute jitter σ.
    pub jitter: f64,
    /// Gradient payload bytes (communication overhead is what caps usage
    /// near 50 % in the paper).
    pub payload_bytes: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fig5Config {
    /// Cluster-A, s = 1, 50 iterations, heavy-ish gradients so
    /// communication is a visible fraction of each round.
    fn default() -> Self {
        Fig5Config {
            cluster: ClusterSpec::cluster_a(),
            stragglers: 1,
            iterations: 50,
            samples: 48,
            estimation_noise: 0.10,
            jitter: 0.05,
            payload_bytes: 2.4e8, // ≈ AlexNet's 61M-param f32 gradient on the wire
            seed: 2022,
        }
    }
}

/// One bar of Fig. 5.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// The scheme.
    pub scheme: SchemeKind,
    /// Resource usage in `[0, 1]` (`None` when nothing completed).
    pub usage: Option<f64>,
}

/// Runs Fig. 5: resource usage of each scheme under transient stragglers.
///
/// # Errors
///
/// Propagates scheme-construction and simulator errors.
pub fn fig5(cfg: &Fig5Config) -> Result<Vec<Fig5Row>, BoxError> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let rates = cfg.cluster.throughputs();
    let noise = EstimationNoise::new(cfg.estimation_noise);
    let estimates = noise.apply(&rates, &mut rng);
    let builder = SchemeBuilder::new(&cfg.cluster, cfg.stragglers).estimates(estimates);
    let schemes = builder.build_paper_schemes(&mut rng)?;
    let model = StragglerModel::RandomChoice {
        count: cfg.stragglers,
        delay: DelayDistribution::Uniform {
            low: 1.0,
            high: 4.0,
        },
    };
    let mut rows = Vec::new();
    for scheme in &schemes {
        let run = run_timing(
            scheme,
            &rates,
            cfg.samples,
            &model,
            NetworkModel::lan(),
            cfg.payload_bytes,
            cfg.jitter,
            cfg.iterations,
            &mut rng,
        )?;
        rows.push(Fig5Row {
            scheme: scheme.kind,
            usage: run.resource_usage().ratio(),
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cluster() -> ClusterSpec {
        // Keep max(c)/Σc strictly below 1/(s+1) so estimation noise cannot
        // push the Eq. 5 allocation into infeasibility.
        ClusterSpec::from_vcpu_rows("tiny", &[(2, 1), (1, 2), (1, 3)], 2000.0).unwrap()
    }

    #[test]
    fn fig2_shapes_and_ordering() {
        let cfg = Fig2Config {
            cluster: tiny_cluster(),
            delays: vec![0.0, 5.0],
            include_fault: true,
            iterations: 10,
            samples: 8_000,
            ..Fig2Config::default()
        };
        let rows = fig2(&cfg).unwrap();
        assert_eq!(rows.len(), 3); // 2 delays + fault
        for row in &rows {
            assert_eq!(row.avg_times.len(), 4);
        }
        // Fault: naive cannot complete, coded schemes can.
        let fault = rows.last().unwrap();
        assert!(fault.delay.is_infinite());
        let naive_time = fault
            .avg_times
            .iter()
            .find(|(k, _)| *k == SchemeKind::Naive)
            .unwrap()
            .1;
        assert!(naive_time.is_none(), "naive must fail under faults");
        let heter_time = fault
            .avg_times
            .iter()
            .find(|(k, _)| *k == SchemeKind::HeterAware)
            .unwrap()
            .1;
        assert!(heter_time.is_some(), "heter-aware must survive faults");
    }

    #[test]
    fn fig2_naive_grows_with_delay() {
        let cfg = Fig2Config {
            cluster: tiny_cluster(),
            delays: vec![0.0, 8.0],
            include_fault: false,
            iterations: 12,
            samples: 8_000,
            ..Fig2Config::default()
        };
        let rows = fig2(&cfg).unwrap();
        let naive_at = |i: usize| {
            rows[i]
                .avg_times
                .iter()
                .find(|(k, _)| *k == SchemeKind::Naive)
                .unwrap()
                .1
                .unwrap()
        };
        assert!(
            naive_at(1) > naive_at(0) + 4.0,
            "naive must absorb the delay: {} vs {}",
            naive_at(0),
            naive_at(1)
        );
        // Heter-aware stays within a modest band of its no-delay time.
        let heter_at = |i: usize| {
            rows[i]
                .avg_times
                .iter()
                .find(|(k, _)| *k == SchemeKind::HeterAware)
                .unwrap()
                .1
                .unwrap()
        };
        assert!(
            heter_at(1) < heter_at(0) + 2.0,
            "heter-aware should tolerate the delay: {} vs {}",
            heter_at(0),
            heter_at(1)
        );
    }

    #[test]
    fn fig3_heter_beats_cyclic_everywhere() {
        let cfg = Fig3Config {
            clusters: vec![tiny_cluster()],
            iterations: 20,
            samples: 16_000,
            ..Fig3Config::default()
        };
        let rows = fig3(&cfg).unwrap();
        assert_eq!(rows.len(), 1);
        let times = &rows[0].avg_times;
        let get = |kind: SchemeKind| times.iter().find(|(k, _)| *k == kind).unwrap().1.unwrap();
        assert!(get(SchemeKind::HeterAware) < get(SchemeKind::Cyclic));
        assert!(get(SchemeKind::GroupBased) < get(SchemeKind::Cyclic));
    }

    #[test]
    fn fig4_produces_five_curves() {
        let cfg = Fig4Config {
            cluster: tiny_cluster(),
            iterations: 8,
            samples: 240,
            dim: 8,
            hidden: 6,
            classes: 3,
            ..Fig4Config::default()
        };
        let curves = fig4(&cfg).unwrap();
        assert_eq!(curves.len(), 5);
        let labels: Vec<&str> = curves.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(
            labels,
            vec!["naive", "cyclic", "heter-aware", "group-based", "ssp"]
        );
        for c in &curves {
            assert!(!c.points.is_empty(), "{} empty", c.label);
        }
        // BSP losses decrease.
        for c in &curves[..4] {
            let first = c.points[0].1;
            let last = c.final_loss().unwrap();
            assert!(last <= first, "{}: {first} → {last}", c.label);
        }
    }

    #[test]
    fn fig5_usage_ordering() {
        let cfg = Fig5Config {
            cluster: tiny_cluster(),
            iterations: 20,
            samples: 16_000,
            payload_bytes: 4096.0 * 256.0,
            ..Fig5Config::default()
        };
        let rows = fig5(&cfg).unwrap();
        assert_eq!(rows.len(), 4);
        let get = |kind: SchemeKind| {
            rows.iter()
                .find(|r| r.scheme == kind)
                .unwrap()
                .usage
                .unwrap()
        };
        for kind in SchemeKind::PAPER {
            let u = get(kind);
            assert!((0.0..=1.0).contains(&u), "{kind}: {u}");
        }
        // The heterogeneity-aware schemes keep workers busier than naive.
        assert!(get(SchemeKind::HeterAware) > get(SchemeKind::Naive));
    }
}
