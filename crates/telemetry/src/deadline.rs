//! Learning the escalation deadline from arrival history.

/// Tuning of the learned escalation deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct DeadlineConfig {
    /// The quantile of recent round-completion times the deadline
    /// targets (0.9 = "escalate once a round runs longer than 90 % of
    /// recent rounds did").
    pub target_quantile: f64,
    /// Safety margin multiplied onto the quantile so ordinary rounds
    /// still complete exactly.
    pub margin: f64,
    /// Rounds observed before a deadline is proposed at all.
    pub warmup_rounds: usize,
    /// Sliding-window size (rounds) of the underlying quantile sketch.
    pub window: usize,
}

impl Default for DeadlineConfig {
    /// p90 of the last 64 rounds × 1.25, after 8 warm-up rounds.
    fn default() -> Self {
        DeadlineConfig {
            target_quantile: 0.9,
            margin: 1.25,
            warmup_rounds: 8,
            window: 64,
        }
    }
}

impl DeadlineConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics when `target_quantile` is outside `[0, 1]` or `margin` is
    /// not positive (`window` is validated by the sketch it sizes).
    pub(crate) fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.target_quantile),
            "target_quantile must be in [0, 1]"
        );
        assert!(
            self.margin.is_finite() && self.margin > 0.0,
            "margin must be positive"
        );
    }

    /// The ONE deadline formula — `quantile × margin` once past warm-up.
    /// The assembled `Adaptation` pipeline feeds it the target quantile of
    /// its `TelemetryHub`'s round-time window and the rounds ingested.
    pub(crate) fn learned(
        &self,
        round_quantile: Option<f64>,
        rounds_observed: usize,
    ) -> Option<f64> {
        if rounds_observed < self.warmup_rounds {
            return None;
        }
        round_quantile.map(|q| q * self.margin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantile::QuantileWindow;

    /// The deadline `Adaptation` learns after `times`: the target quantile
    /// of a round-time window fed every round, through [`DeadlineConfig::learned`].
    fn learned_after(cfg: &DeadlineConfig, times: &[f64]) -> Option<f64> {
        cfg.validate();
        let mut window = QuantileWindow::new(cfg.window);
        for &t in times {
            window.push(t);
        }
        cfg.learned(window.quantile(cfg.target_quantile), times.len())
    }

    #[test]
    fn warmup_withholds_the_deadline() {
        let cfg = DeadlineConfig::default();
        assert_eq!(learned_after(&cfg, &[1.0; 7]), None);
        assert_eq!(learned_after(&cfg, &[1.0; 8]), Some(1.25));
    }

    #[test]
    fn deadline_tracks_the_target_quantile() {
        let cfg = DeadlineConfig {
            target_quantile: 0.5,
            margin: 1.0,
            warmup_rounds: 1,
            window: 101,
        };
        let times: Vec<f64> = (0..101).map(|i| 1.0 + i as f64).collect(); // 1..=101
        assert_eq!(learned_after(&cfg, &times), Some(51.0));
    }

    #[test]
    fn window_forgets_old_regimes() {
        let cfg = DeadlineConfig {
            target_quantile: 1.0,
            margin: 1.0,
            warmup_rounds: 1,
            window: 4,
        };
        assert_eq!(learned_after(&cfg, &[10.0; 4]), Some(10.0));
        assert_eq!(
            learned_after(&cfg, &[10.0, 10.0, 10.0, 10.0, 2.0, 2.0, 2.0, 2.0]),
            Some(2.0),
            "old regime evicted"
        );
    }

    #[test]
    fn invalid_observations_ignored() {
        // Non-finite round times never reach the window, so past warm-up
        // there is still no quantile to learn from.
        let cfg = DeadlineConfig {
            warmup_rounds: 1,
            ..DeadlineConfig::default()
        };
        assert_eq!(learned_after(&cfg, &[f64::INFINITY, f64::NAN]), None);
        assert_eq!(learned_after(&cfg, &[f64::INFINITY, 2.0]), Some(2.5));
    }

    #[test]
    #[should_panic(expected = "target_quantile")]
    fn bad_quantile_rejected() {
        DeadlineConfig {
            target_quantile: 1.5,
            ..DeadlineConfig::default()
        }
        .validate();
    }
}
