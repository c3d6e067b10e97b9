//! When to rebuild the code: drift confirmation and re-code cadence.

/// Tuning of the re-code trigger.
#[derive(Debug, Clone, PartialEq)]
pub struct RecodeConfig {
    /// Consecutive drifting rounds required before a re-code fires
    /// (debounce against one-round blips the straggler budget already
    /// absorbs).
    pub confirm_rounds: usize,
    /// Minimum rounds between re-code attempts, successful or not (the
    /// estimator needs fresh post-change samples before a retry can do
    /// better).
    pub cooldown_rounds: usize,
}

impl Default for RecodeConfig {
    /// Confirm over 2 rounds, then at most one attempt every 5 rounds.
    fn default() -> Self {
        RecodeConfig {
            confirm_rounds: 2,
            cooldown_rounds: 5,
        }
    }
}

/// Decides *when* the allocation is rebuilt; the engines own *how* (the
/// Eq. 5 → Eq. 6 → Alg. 1/3 reconstruction from fresh estimates and the
/// codec hot-swap). The controller debounces the drift signal, enforces a
/// cooldown between attempts (the run report counts the outcomes).
#[derive(Debug, Clone)]
pub(crate) struct RecodeController {
    cfg: RecodeConfig,
    round: usize,
    consecutive_drifting: usize,
    last_attempt_round: Option<usize>,
}

impl RecodeController {
    /// A controller with no history.
    pub(crate) fn new(cfg: RecodeConfig) -> Self {
        RecodeController {
            cfg,
            round: 0,
            consecutive_drifting: 0,
            last_attempt_round: None,
        }
    }

    /// Advances one round with the detector's current drift verdict;
    /// returns `true` when a re-code should be attempted *now*.
    pub(crate) fn observe(&mut self, drifting: bool) -> bool {
        self.round += 1;
        if drifting {
            self.consecutive_drifting += 1;
        } else {
            self.consecutive_drifting = 0;
        }
        if self.consecutive_drifting < self.cfg.confirm_rounds.max(1) {
            return false;
        }
        !matches!(
            self.last_attempt_round,
            Some(last) if self.round - last < self.cfg.cooldown_rounds.max(1)
        )
    }

    /// Records that the re-code fired and the new code was installed.
    pub(crate) fn applied(&mut self) {
        self.last_attempt_round = Some(self.round);
        self.consecutive_drifting = 0;
    }

    /// Records that the re-code fired but the rebuild was rejected
    /// (infeasible estimates, backend failure) — the run keeps the old
    /// code and the controller stays armed past the cooldown.
    pub(crate) fn rejected(&mut self) {
        self.last_attempt_round = Some(self.round);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confirms_before_firing() {
        let mut c = RecodeController::new(RecodeConfig {
            confirm_rounds: 3,
            cooldown_rounds: 1,
        });
        assert!(!c.observe(true));
        assert!(!c.observe(true));
        assert!(c.observe(true), "third consecutive drifting round fires");
    }

    #[test]
    fn blips_reset_confirmation() {
        let mut c = RecodeController::new(RecodeConfig {
            confirm_rounds: 2,
            cooldown_rounds: 1,
        });
        assert!(!c.observe(true));
        assert!(!c.observe(false));
        assert!(!c.observe(true));
        assert!(c.observe(true));
    }

    #[test]
    fn cooldown_spaces_attempts() {
        let mut c = RecodeController::new(RecodeConfig {
            confirm_rounds: 1,
            cooldown_rounds: 3,
        });
        assert!(c.observe(true));
        c.applied();
        // Drift persists (e.g. the rebuild was imperfect): cooldown holds.
        assert!(!c.observe(true));
        assert!(!c.observe(true));
        assert!(c.observe(true), "cooldown elapsed");
    }

    #[test]
    fn rejection_counts_and_stays_armed() {
        let mut c = RecodeController::new(RecodeConfig {
            confirm_rounds: 1,
            cooldown_rounds: 2,
        });
        assert!(c.observe(true));
        c.rejected();
        assert!(!c.observe(true));
        assert!(c.observe(true), "retries after cooldown");
    }
}
