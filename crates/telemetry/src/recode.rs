//! When to rebuild the code: drift confirmation and re-code cadence.

/// Consecutive drifting rounds required before a re-code fires
/// (debounce against one-round blips the straggler budget already
/// absorbs).
const CONFIRM_ROUNDS: usize = 2;
/// Minimum rounds between re-code attempts, successful or not (the
/// estimator needs fresh post-change samples before a retry can do
/// better).
const COOLDOWN_ROUNDS: usize = 5;

/// Decides *when* the allocation is rebuilt; the engines own *how* (the
/// Eq. 5 → Eq. 6 → Alg. 1/3 reconstruction from fresh estimates and the
/// codec hot-swap). The controller debounces the drift signal, enforces a
/// cooldown between attempts (the run report counts the outcomes).
#[derive(Debug, Clone, Default)]
pub(crate) struct RecodeController {
    round: usize,
    consecutive_drifting: usize,
    last_attempt_round: Option<usize>,
}

impl RecodeController {
    /// Advances one round with the detector's current drift verdict;
    /// returns `true` when a re-code should be attempted *now*.
    pub(crate) fn observe(&mut self, drifting: bool) -> bool {
        self.round += 1;
        if drifting {
            self.consecutive_drifting += 1;
        } else {
            self.consecutive_drifting = 0;
        }
        if self.consecutive_drifting < CONFIRM_ROUNDS {
            return false;
        }
        !matches!(
            self.last_attempt_round,
            Some(last) if self.round - last < COOLDOWN_ROUNDS
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
        let mut c = RecodeController::default();
        assert!(!c.observe(true));
        assert!(c.observe(true), "second consecutive drifting round fires");
    }

    #[test]
    fn blips_reset_confirmation() {
        let mut c = RecodeController::default();
        assert!(!c.observe(true));
        assert!(!c.observe(false));
        assert!(!c.observe(true));
        assert!(c.observe(true));
    }

    #[test]
    fn cooldown_spaces_attempts() {
        let mut c = RecodeController::default();
        assert!(!c.observe(true));
        assert!(c.observe(true));
        c.applied();
        // Drift persists (e.g. the rebuild was imperfect): cooldown holds
        // for the next four rounds.
        for _ in 0..4 {
            assert!(!c.observe(true));
        }
        assert!(c.observe(true), "cooldown elapsed");
    }

    #[test]
    fn rejection_counts_and_stays_armed() {
        let mut c = RecodeController::default();
        assert!(!c.observe(true));
        assert!(c.observe(true));
        c.rejected();
        for _ in 0..4 {
            assert!(!c.observe(true));
        }
        assert!(c.observe(true), "retries after cooldown");
    }
}
