//! The assembled feedback loop: hub → detectors → decisions.

use hetgc_cluster::RoundSample;

use crate::deadline;
use crate::drift::{DriftDetector, DriftEvent};
use crate::hub::TelemetryHub;
use crate::recode::RecodeController;

/// Smoothing of the hub's EWMA throughput estimate — the one rate
/// estimate the drift detector judges and a re-code is built from.
const EWMA_ALPHA: f64 = 0.4;

/// The one switch of the adaptation loop — the value a training driver
/// carries in its `DriverConfig`. Drift detection, the re-code cadence
/// and the deadline formula are fixed (see the `hetgc-telemetry` crate
/// docs).
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptationConfig {
    /// Learn the escalation deadline from arrival history and feed it to
    /// the engine each round. (Engines whose escalation ladder cannot
    /// fire ignore the learned deadline.)
    pub learn_deadline: bool,
}

impl Default for AdaptationConfig {
    /// Learn the deadline (p90 × 1.25) and re-code on confirmed drift.
    fn default() -> Self {
        AdaptationConfig {
            learn_deadline: true,
        }
    }
}

/// What the loop wants done after one observed round.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AdaptationDecision {
    /// Install this escalation deadline (seconds from round start) before
    /// the next round. `None` = keep whatever is installed.
    pub deadline: Option<f64>,
    /// Drift is confirmed and past cooldown: rebuild the code from fresh
    /// estimates now.
    pub recode: bool,
    /// Drift events that fired on this round's samples (newly flagged
    /// workers only).
    pub drift_events: Vec<DriftEvent>,
}

/// The assembled observation-and-adaptation pipeline:
/// [`TelemetryHub`] ingestion, a `DriftDetector` over the per-sample
/// rates and the hub's estimates, the learned deadline over the hub's
/// round-time window and `RecodeController` cadence — one
/// [`AdaptationDecision`] out per round. The driver owns acting on the
/// decision (installing the deadline, asking its engine to re-code) and
/// reports back through [`Adaptation::recode_applied`] /
/// [`Adaptation::recode_rejected`].
#[derive(Debug)]
pub struct Adaptation {
    cfg: AdaptationConfig,
    hub: TelemetryHub,
    detector: DriftDetector,
    recode: RecodeController,
}

impl Adaptation {
    /// A pipeline over `workers` workers.
    pub fn new(workers: usize, cfg: AdaptationConfig) -> Self {
        Adaptation {
            // The hub's round-time window doubles as the deadline
            // learner's arrival history, and its EWMA as the detector's
            // live rate: one window, one estimate, no duplicate state.
            hub: TelemetryHub::new(workers, EWMA_ALPHA, deadline::WINDOW),
            detector: DriftDetector::new(workers),
            recode: RecodeController::default(),
            cfg,
        }
    }

    /// Observes one completed round and decides what to adapt.
    pub fn observe_round(&mut self, elapsed: f64, samples: &[RoundSample]) -> AdaptationDecision {
        let mut events = Vec::new();
        let detector = &mut self.detector;
        self.hub
            .ingest_each(elapsed, samples, |worker, rate, estimate| {
                events.extend(detector.observe(worker, rate, estimate));
            });
        let recode = self.recode.observe(self.detector.drifting());
        AdaptationDecision {
            deadline: self
                .cfg
                .learn_deadline
                .then(|| {
                    deadline::learned(
                        self.hub.round_quantile(deadline::TARGET_QUANTILE),
                        self.hub.rounds(),
                    )
                })
                .flatten(),
            recode,
            drift_events: events,
        }
    }

    /// Fresh per-worker throughput estimates, falling back to
    /// `fallback[w]` for workers never observed (see
    /// `TelemetryHub::estimates_or`).
    pub fn estimates_or(&self, fallback: &[f64]) -> Vec<f64> {
        self.hub.estimates_or(fallback)
    }

    /// The driver installed a rebuilt code: re-anchor the drift baselines
    /// to the current estimates and start the re-code cooldown.
    pub fn recode_applied(&mut self) {
        self.recode.applied();
        self.detector.rebaseline(&self.hub);
    }

    /// The rebuild was rejected (infeasible estimates): count it, start
    /// the cooldown, keep the drift flags armed for a retry.
    pub fn recode_rejected(&mut self) {
        self.recode.rejected();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_samples(rates: &[f64], work: f64) -> Vec<RoundSample> {
        rates
            .iter()
            .enumerate()
            .map(|(w, &r)| RoundSample::completed(w, work, work / r, work / r))
            .collect()
    }

    #[test]
    fn stationary_rounds_learn_a_deadline_and_stay_quiet() {
        let mut a = Adaptation::new(2, AdaptationConfig::default());
        let mut last = AdaptationDecision::default();
        for _ in 0..12 {
            last = a.observe_round(1.0, &round_samples(&[4.0, 2.0], 8.0));
        }
        assert!(!last.recode);
        assert!(last.drift_events.is_empty());
        // p90 of constant 1.0 rounds × 1.25 margin.
        let d = last.deadline.expect("past warmup");
        assert!((d - 1.25).abs() < 1e-9, "{d}");
        assert_eq!(a.hub.rounds(), 12);
    }

    #[test]
    fn step_change_confirms_then_recodes_once_per_cooldown() {
        let mut a = Adaptation::new(2, AdaptationConfig::default());
        for _ in 0..10 {
            a.observe_round(1.0, &round_samples(&[4.0, 4.0], 8.0));
        }
        let mut fired_at = Vec::new();
        for i in 0..10 {
            let d = a.observe_round(2.5, &round_samples(&[4.0, 1.2], 8.0));
            if d.recode {
                fired_at.push(i);
                a.recode_applied();
            }
        }
        assert_eq!(
            fired_at.len(),
            1,
            "one confirmed re-code, then the rebaselined detector is quiet: {fired_at:?}"
        );
    }

    #[test]
    fn rejected_rebuild_retries_after_cooldown() {
        let mut a = Adaptation::new(1, AdaptationConfig::default());
        for _ in 0..8 {
            a.observe_round(1.0, &round_samples(&[4.0], 8.0));
        }
        let mut attempts = 0;
        for _ in 0..16 {
            if a.observe_round(4.0, &round_samples(&[0.8], 8.0)).recode {
                attempts += 1;
                a.recode_rejected();
            }
        }
        assert!(attempts >= 2, "stays armed across rejections: {attempts}");
    }

    #[test]
    fn idle_worker_keeps_its_estimate_and_never_drifts() {
        // Worker 1 holds no partition after a re-code: it reports zero
        // work every round. Its estimate stays what it was measured at,
        // so a later re-code can give it load again.
        let mut a = Adaptation::new(2, AdaptationConfig::default());
        for _ in 0..6 {
            a.observe_round(1.0, &round_samples(&[4.0, 2.0], 8.0));
        }
        for _ in 0..20 {
            let idle = [
                RoundSample::completed(0, 8.0, 2.0, 2.0),
                RoundSample::completed(1, 0.0, 0.5, 0.5),
            ];
            let d = a.observe_round(2.0, &idle);
            assert!(d.drift_events.is_empty() && !d.recode, "{d:?}");
        }
        assert_eq!(a.estimates_or(&[1.0, 1.0]), vec![4.0, 2.0]);
    }

    #[test]
    fn deadline_learning_can_be_disabled() {
        let mut a = Adaptation::new(
            1,
            AdaptationConfig {
                learn_deadline: false,
            },
        );
        for _ in 0..20 {
            let d = a.observe_round(1.0, &round_samples(&[4.0], 8.0));
            assert_eq!(d.deadline, None);
        }
    }
}
