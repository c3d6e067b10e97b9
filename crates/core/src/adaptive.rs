//! Adaptive throughput re-estimation (an extension beyond the paper).
//!
//! The paper estimates worker throughput once, up front (§III-C:
//! "estimated by sampling"), and §V's group-based scheme hedges against
//! estimation *noise*. Neither handles estimation *drift* — a co-tenant VM
//! landing on a worker halfway through training permanently changes its
//! `c_i`, re-introducing exactly the consistent stragglers the allocation
//! was supposed to remove. The `hetgc-telemetry` subsystem closes the
//! loop:
//!
//! 1. every round's per-worker observations feed a `TelemetryHub`
//!    (EWMA estimator + arrival-history quantiles),
//! 2. a `DriftDetector` (CUSUM step detection + slow-drift divergence
//!    of the hub's estimate) flags when the live rates leave the
//!    allocation's noise envelope,
//! 3. on confirmed drift, the engine rebuilds the coding strategy from
//!    the fresh estimates (Eq. 5 → Eq. 6 → Alg. 1/3) and hot-swaps it.
//!
//! This module is the *timing-only comparison harness* over that
//! subsystem: [`run_with_drift`] / [`compare_static_vs_adaptive`] drive a
//! model-less [`SimBspEngine`] under `SimBspEngine::with_drift` through
//! the unified `drive_timing_with` loop with
//! [`DriverConfig::adaptation`] wired to an [`AdaptiveConfig`]. (Give the
//! same engine a model and the driver an optimizer and the same adaptation
//! composes with *real SGD training* — see `tests/adaptation.rs` and the
//! `telemetry_adaptation` example.)
//!
//! Rebuild cost is the Alg. 1 construction — microseconds (see the
//! `telemetry/recode_hot_swap` Criterion bench) against iteration times
//! of seconds, so re-coding "for free" is realistic; the data movement a
//! new allocation implies is the real-world cost and is *not* modelled
//! (documented limitation).

use hetgc_cluster::{ClusterSpec, StragglerModel};
use hetgc_coding::{CodecBackend, EscalationPolicy};
use hetgc_telemetry::AdaptationConfig;
use rand::Rng;

use crate::driver::{drive_timing_with, DriverConfig, TrainOutcome};
use crate::engine::SimBspEngine;
use crate::scheme::{BoxError, SchemeBuilder, SchemeKind};
use crate::trainer::SimTrainConfig;

/// Configuration of an adaptive-vs-static comparison run.
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// Which heterogeneity-aware scheme to run (HeterAware or GroupBased).
    pub kind: SchemeKind,
    /// Straggler tolerance `s`.
    pub stragglers: usize,
    /// Total iterations.
    pub iterations: usize,
    /// Dataset size in work units.
    pub samples: usize,
    /// Re-code on confirmed drift, at most once every 5 rounds (`false`
    /// disables adaptation entirely — the static baseline).
    pub recode: bool,
    /// Per-iteration compute jitter σ.
    pub jitter: f64,
    /// Transient straggler injection.
    pub straggler_model: StragglerModel,
    /// Codec backend for decoding ([`CodecBackend::Auto`]: group-aware
    /// for group-based schemes, exact otherwise). Rebuilt strategies are
    /// recompiled into the same backend.
    pub backend: CodecBackend,
}

impl Default for AdaptiveConfig {
    /// Heter-aware, s = 1, 60 iterations, adaptive.
    fn default() -> Self {
        AdaptiveConfig {
            kind: SchemeKind::HeterAware,
            stragglers: 1,
            iterations: 60,
            samples: 48,
            recode: true,
            jitter: 0.03,
            straggler_model: StragglerModel::None,
            backend: CodecBackend::Auto,
        }
    }
}

impl AdaptiveConfig {
    /// The telemetry pipeline this comparison harness runs
    /// (`None` without `recode`: the static baseline).
    /// Deadline learning is off — the harness compares *re-coding*, so
    /// both runs keep the wait-for-everyone master.
    pub(crate) fn adaptation(&self) -> Option<AdaptationConfig> {
        self.recode.then_some(AdaptationConfig {
            learn_deadline: false,
        })
    }
}

/// Runs one policy over a drifting cluster through the unified
/// `drive_timing_with` loop.
///
/// `recode = false` gives the static baseline: the scheme is built
/// once from the *pre-drift* rates and never touched again.
///
/// # Errors
///
/// Propagates scheme-construction and simulator errors. A failed *rebuild*
/// is not an error — the run keeps the previous strategy and counts it in
/// the outcome's `AdaptationReport::recode_failures`.
pub fn run_with_drift<R: Rng>(
    cluster: &ClusterSpec,
    drift: &hetgc_sim::RateDrift,
    cfg: &AdaptiveConfig,
    rng: &mut R,
) -> Result<TrainOutcome, BoxError> {
    let scheme = SchemeBuilder::new(cluster, cfg.stragglers).build(cfg.kind, rng)?;
    let sim_cfg = SimTrainConfig {
        compute_jitter: cfg.jitter,
        stragglers: cfg.straggler_model.clone(),
        backend: cfg.backend,
        ..SimTrainConfig::default()
    };
    let (rates, policy) = (cluster.throughputs(), EscalationPolicy::follow_backend());
    let mut engine = SimBspEngine::timing(&scheme, cfg.samples, &rates, &sim_cfg, policy)?
        .with_drift(drift.clone());
    let driver_cfg = DriverConfig {
        adaptation: cfg.adaptation(),
        ..DriverConfig::default()
    };
    drive_timing_with(&mut engine, cfg.iterations, rng, &driver_cfg)
}

/// Convenience: static (never re-estimates) vs adaptive under the same
/// drift and seed-derived randomness.
///
/// # Errors
///
/// Propagates [`run_with_drift`] errors from either run.
pub fn compare_static_vs_adaptive<R: Rng>(
    cluster: &ClusterSpec,
    drift: &hetgc_sim::RateDrift,
    cfg: &AdaptiveConfig,
    rng: &mut R,
) -> Result<(TrainOutcome, TrainOutcome), BoxError> {
    let static_cfg = AdaptiveConfig {
        recode: false,
        ..cfg.clone()
    };
    let static_run = run_with_drift(cluster, drift, &static_cfg, rng)?;
    let adaptive_run = run_with_drift(cluster, drift, cfg, rng)?;
    Ok((static_run, adaptive_run))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgc_sim::RateDrift;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cluster() -> ClusterSpec {
        ClusterSpec::from_vcpu_rows("drifty", &[(1, 2), (1, 3), (1, 4), (1, 5)], 10.0).unwrap()
    }

    fn rebuilds(out: &TrainOutcome) -> usize {
        out.adaptation.as_ref().map_or(0, |a| a.recodes())
    }

    #[test]
    fn adaptive_beats_static_when_drift_exceeds_tolerance() {
        let cluster = cluster();
        // TWO workers lose 70 % of their speed: with s = 1 the code can
        // only discard one of them, so the static allocation is forced to
        // wait for a slowed worker every iteration; rebalancing fixes it.
        let drift = RateDrift::StepChange {
            at: 15,
            factors: vec![1.0, 1.0, 0.3, 0.3],
        };
        let cfg = AdaptiveConfig {
            iterations: 60,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        let (static_run, adaptive_run) =
            compare_static_vs_adaptive(&cluster, &drift, &cfg, &mut rng).unwrap();
        let t_static = static_run.mean_round_seconds().unwrap();
        let t_adaptive = adaptive_run.mean_round_seconds().unwrap();
        assert!(rebuilds(&adaptive_run) > 0);
        assert_eq!(rebuilds(&static_run), 0);
        assert!(
            t_adaptive < t_static * 0.90,
            "adaptive {t_adaptive:.3} should beat static {t_static:.3}"
        );
    }

    #[test]
    fn adaptive_beats_static_when_a_worker_speeds_up() {
        let cluster = cluster();
        // A worker gets 3× faster (co-tenant left): the static allocation
        // leaves its new capacity idle; rebalancing exploits it.
        let drift = RateDrift::StepChange {
            at: 10,
            factors: vec![3.0, 1.0, 1.0, 1.0],
        };
        let cfg = AdaptiveConfig {
            iterations: 60,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(7);
        let (static_run, adaptive_run) =
            compare_static_vs_adaptive(&cluster, &drift, &cfg, &mut rng).unwrap();
        let t_static = static_run.mean_round_seconds().unwrap();
        let t_adaptive = adaptive_run.mean_round_seconds().unwrap();
        assert!(
            t_adaptive < t_static * 0.95,
            "adaptive {t_adaptive:.3} should exploit the speed-up (static {t_static:.3})"
        );
    }

    #[test]
    fn coding_absorbs_single_worker_drift_without_rebuild() {
        // The counter-intuitive finding this module documents: when only
        // ONE worker slows (within the s = 1 budget), the *static* code
        // absorbs it for free — the slowed worker is simply treated as the
        // straggler — while rebalancing drags it back onto the critical
        // path. Adaptive re-coding is NOT a universal win.
        let cluster = cluster();
        let drift = RateDrift::StepChange {
            at: 15,
            factors: vec![1.0, 1.0, 1.0, 0.3],
        };
        let cfg = AdaptiveConfig {
            iterations: 60,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(2);
        let (static_run, adaptive_run) =
            compare_static_vs_adaptive(&cluster, &drift, &cfg, &mut rng).unwrap();
        let t_static = static_run.mean_round_seconds().unwrap();
        let t_adaptive = adaptive_run.mean_round_seconds().unwrap();
        assert!(
            t_static <= t_adaptive * 1.05,
            "static ({t_static:.3}) should not lose to adaptive ({t_adaptive:.3}) \
             when the drift fits the straggler budget"
        );
    }

    #[test]
    fn adaptive_harmless_without_drift() {
        let cluster = cluster();
        let cfg = AdaptiveConfig {
            iterations: 40,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(2);
        let (static_run, adaptive_run) =
            compare_static_vs_adaptive(&cluster, &RateDrift::None, &cfg, &mut rng).unwrap();
        let t_static = static_run.mean_round_seconds().unwrap();
        let t_adaptive = adaptive_run.mean_round_seconds().unwrap();
        // The detector stays quiet under jitter-only noise, so no rebuild
        // ever fires and the runs differ only by their random draws.
        assert_eq!(rebuilds(&adaptive_run), 0, "no drift, no re-code");
        assert!((t_adaptive - t_static).abs() / t_static < 0.10);
    }

    #[test]
    fn group_based_also_adapts() {
        let cluster = cluster();
        let drift = RateDrift::StepChange {
            at: 10,
            factors: vec![0.4, 1.0, 1.0, 1.0],
        };
        let cfg = AdaptiveConfig {
            kind: SchemeKind::GroupBased,
            iterations: 40,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(3);
        let out = run_with_drift(&cluster, &drift, &cfg, &mut rng).unwrap();
        assert!(rebuilds(&out) > 0);
        assert_eq!(out.rounds(), 40);
    }

    #[test]
    fn rebuild_failures_keep_running() {
        // An adversarial drift that makes one worker dominate: Eq. 5 may
        // become infeasible, but the run must keep going on the old code.
        let cluster = ClusterSpec::from_vcpu_rows("skew", &[(3, 2), (1, 4)], 10.0).unwrap();
        let drift = RateDrift::StepChange {
            at: 2,
            factors: vec![0.05, 0.05, 0.05, 1.0],
        };
        let cfg = AdaptiveConfig {
            iterations: 20,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(4);
        let out = run_with_drift(&cluster, &drift, &cfg, &mut rng).unwrap();
        assert_eq!(out.rounds(), 20);
        assert!(
            out.adaptation.unwrap().recode_failures > 0,
            "expected infeasible rebuilds to be counted"
        );
    }

    #[test]
    fn static_baseline_has_no_adaptation() {
        let cfg = AdaptiveConfig {
            recode: false,
            ..Default::default()
        };
        assert!(cfg.adaptation().is_none());
        let adaptive = AdaptiveConfig::default().adaptation().unwrap();
        assert!(!adaptive.learn_deadline);
    }
}
