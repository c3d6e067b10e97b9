//! The assembled feedback loop: hub → detectors → decisions.

use hetgc_cluster::RoundSample;

use crate::deadline::DeadlineConfig;
use crate::drift::{DriftConfig, DriftDetector, DriftEvent};
use crate::hub::TelemetryHub;
use crate::recode::{RecodeConfig, RecodeController};

/// Everything the adaptation loop needs to know, in one plain-data
/// config — the value a training driver carries in its `DriverConfig`.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptationConfig {
    /// EWMA smoothing of the throughput estimator.
    pub ewma_alpha: f64,
    /// Learn the escalation deadline from arrival history and feed it to
    /// the engine each round. (Engines whose escalation ladder cannot
    /// fire ignore the learned deadline.)
    pub learn_deadline: bool,
    /// Rebuild the code from fresh estimates when drift is confirmed.
    pub recode_on_drift: bool,
    /// Deadline-learning knobs.
    pub deadline: DeadlineConfig,
    /// Drift-detection knobs.
    pub drift: DriftConfig,
    /// Re-code cadence knobs.
    pub recode: RecodeConfig,
}

impl Default for AdaptationConfig {
    /// Learn the deadline (p90 × 1.25) and re-code on confirmed drift.
    fn default() -> Self {
        AdaptationConfig {
            ewma_alpha: 0.4,
            learn_deadline: true,
            recode_on_drift: true,
            deadline: DeadlineConfig::default(),
            drift: DriftConfig::default(),
            recode: RecodeConfig::default(),
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
/// [`TelemetryHub`] ingestion, [`DriftDetector`] over the per-sample
/// rates, the learned deadline over the hub's round-time window and
/// `RecodeController` cadence — one [`AdaptationDecision`] out per
/// round. The driver owns acting on the decision (installing the
/// deadline, asking its engine to re-code) and reports back through
/// [`Adaptation::recode_applied`] / [`Adaptation::recode_rejected`].
#[derive(Debug)]
pub struct Adaptation {
    cfg: AdaptationConfig,
    hub: TelemetryHub,
    detector: DriftDetector,
    recode: RecodeController,
}

impl Adaptation {
    /// A pipeline over `workers` workers.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range sub-configurations (delegated validation).
    pub fn new(workers: usize, cfg: AdaptationConfig) -> Self {
        cfg.deadline.validate();
        Adaptation {
            // The hub's round-time window doubles as the deadline
            // learner's arrival history: one window, one sort, no
            // duplicate state (see `DeadlineConfig::learned`).
            hub: TelemetryHub::new(workers, cfg.ewma_alpha, cfg.deadline.window),
            detector: DriftDetector::new(workers, cfg.drift.clone()),
            recode: RecodeController::new(cfg.recode.clone()),
            cfg,
        }
    }

    /// Observes one completed round and decides what to adapt.
    pub fn observe_round(&mut self, elapsed: f64, samples: &[RoundSample]) -> AdaptationDecision {
        self.hub.ingest(elapsed, 0.0, samples);
        let mut events = Vec::new();
        for s in samples {
            if let Some(rate) = s.rate() {
                if let Some(event) = self.detector.observe(s.worker, rate) {
                    events.push(event);
                }
            }
        }
        let recode_now = self.recode.observe(self.detector.drifting());
        AdaptationDecision {
            deadline: self
                .cfg
                .learn_deadline
                .then(|| {
                    self.cfg.deadline.learned(
                        self.hub.round_quantile(self.cfg.deadline.target_quantile),
                        self.hub.rounds(),
                    )
                })
                .flatten(),
            recode: self.cfg.recode_on_drift && recode_now,
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
        self.detector.rebaseline();
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
        let cfg = AdaptationConfig {
            recode: RecodeConfig {
                confirm_rounds: 1,
                cooldown_rounds: 2,
            },
            ..AdaptationConfig::default()
        };
        let mut a = Adaptation::new(1, cfg);
        for _ in 0..8 {
            a.observe_round(1.0, &round_samples(&[4.0], 8.0));
        }
        let mut attempts = 0;
        for _ in 0..10 {
            if a.observe_round(4.0, &round_samples(&[0.8], 8.0)).recode {
                attempts += 1;
                a.recode_rejected();
            }
        }
        assert!(attempts >= 2, "stays armed across rejections: {attempts}");
    }

    #[test]
    fn deadline_learning_can_be_disabled() {
        let cfg = AdaptationConfig {
            learn_deadline: false,
            ..AdaptationConfig::default()
        };
        let mut a = Adaptation::new(1, cfg);
        for _ in 0..20 {
            let d = a.observe_round(1.0, &round_samples(&[4.0], 8.0));
            assert_eq!(d.deadline, None);
        }
        assert!(a.cfg.recode_on_drift);
    }
}
