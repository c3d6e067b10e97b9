//! Learning the escalation deadline from arrival history.

/// The quantile of recent round-completion times the deadline targets
/// (0.9 = "escalate once a round runs longer than 90 % of recent rounds
/// did").
pub(crate) const TARGET_QUANTILE: f64 = 0.9;
/// Safety margin multiplied onto the quantile so ordinary rounds still
/// complete exactly.
const MARGIN: f64 = 1.25;
/// Rounds observed before a deadline is proposed at all.
const WARMUP_ROUNDS: usize = 8;
/// Sliding-window size (rounds) of the hub's round-time window the
/// quantile is read from.
pub(crate) const WINDOW: usize = 64;

/// The ONE deadline formula — `quantile × MARGIN` once past warm-up.
/// The assembled `Adaptation` pipeline feeds it the `TARGET_QUANTILE` of
/// its `TelemetryHub`'s round-time window and the rounds ingested.
pub(crate) fn learned(round_quantile: Option<f64>, rounds_observed: usize) -> Option<f64> {
    if rounds_observed < WARMUP_ROUNDS {
        return None;
    }
    round_quantile.map(|q| q * MARGIN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantile::QuantileWindow;

    /// The deadline `Adaptation` learns after `times`: the target quantile
    /// of a round-time window fed every round, through [`learned`].
    fn learned_after(times: &[f64]) -> Option<f64> {
        let mut window = QuantileWindow::new(WINDOW);
        for &t in times {
            window.push(t);
        }
        learned(window.quantile(TARGET_QUANTILE), times.len())
    }

    #[test]
    fn warmup_withholds_the_deadline() {
        assert_eq!(learned_after(&[1.0; 7]), None);
        assert_eq!(learned_after(&[1.0; 8]), Some(1.25));
    }

    #[test]
    fn deadline_tracks_the_target_quantile() {
        // Round times 1..=64: nearest-rank p90 is index round(0.9·63) = 57.
        let times: Vec<f64> = (0..64).map(|i| 1.0 + i as f64).collect();
        assert_eq!(learned_after(&times), Some(58.0 * 1.25));
    }

    #[test]
    fn window_forgets_old_regimes() {
        assert_eq!(learned_after(&[10.0; 64]), Some(12.5));
        let mut times = vec![10.0; 64];
        times.extend([2.0; 64]);
        assert_eq!(learned_after(&times), Some(2.5), "old regime evicted");
    }

    #[test]
    fn invalid_observations_ignored() {
        // Non-finite round times never reach the window, so past warm-up
        // there is still no quantile to learn from.
        let mut times = vec![f64::INFINITY; 7];
        times.push(f64::NAN);
        assert_eq!(learned_after(&times), None);
        times.push(2.0);
        assert_eq!(learned_after(&times), Some(2.5));
    }
}
