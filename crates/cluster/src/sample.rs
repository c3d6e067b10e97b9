//! The observation unit: what one worker did in one collect round.

/// One worker's contribution to one collect round, as observed by the
/// master — the unit every `RoundEngine` (simulated or threaded) reports
/// and `hetgc-telemetry`'s `TelemetryHub` ingests.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundSample {
    /// The worker.
    pub worker: usize,
    /// Work units the worker was assigned this round (samples,
    /// partitions × partition size — any unit consistent across rounds).
    pub work_units: f64,
    /// Seconds the worker spent producing its result (simulated compute
    /// time, or wall-clock from broadcast to reply on the threaded path).
    /// Injected straggler delay contaminates this exactly as it would in
    /// production — the estimators see what the master sees.
    pub compute_seconds: f64,
    /// When the result reached the master, relative to the round start;
    /// `None` when it never arrived.
    pub arrival_seconds: Option<f64>,
    /// The result arrived after the master had already decoded (late,
    /// unused).
    pub straggled: bool,
    /// The worker never responded this round.
    pub failed: bool,
}

impl RoundSample {
    /// A sample for a worker whose result reached the master.
    pub fn completed(worker: usize, work_units: f64, compute_seconds: f64, arrival: f64) -> Self {
        RoundSample {
            worker,
            work_units,
            compute_seconds,
            arrival_seconds: Some(arrival),
            straggled: false,
            failed: false,
        }
    }

    /// A sample for a worker that never responded this round.
    pub fn failed(worker: usize, work_units: f64) -> Self {
        RoundSample {
            worker,
            work_units,
            compute_seconds: f64::INFINITY,
            arrival_seconds: None,
            straggled: false,
            failed: true,
        }
    }

    /// Marks the sample as having arrived too late to carry decode
    /// weight.
    pub fn late(mut self) -> Self {
        self.straggled = true;
        self
    }

    /// The observed throughput `work/compute`, when the sample carries a
    /// valid timing (finite, positive compute over non-negative work).
    pub fn rate(&self) -> Option<f64> {
        (self.compute_seconds.is_finite()
            && self.compute_seconds > 0.0
            && self.work_units >= 0.0
            && !self.failed)
            .then(|| self.work_units / self.compute_seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completed_sample_has_rate() {
        let s = RoundSample::completed(2, 12.0, 3.0, 3.5);
        assert_eq!(s.rate(), Some(4.0));
        assert!(!s.failed && !s.straggled);
        assert_eq!(s.arrival_seconds, Some(3.5));
    }

    #[test]
    fn failed_sample_has_no_rate() {
        let s = RoundSample::failed(0, 12.0);
        assert_eq!(s.rate(), None);
        assert!(s.failed);
        assert_eq!(s.arrival_seconds, None);
    }

    #[test]
    fn late_flag_keeps_rate() {
        let s = RoundSample::completed(1, 8.0, 2.0, 9.0).late();
        assert!(s.straggled);
        assert_eq!(s.rate(), Some(4.0));
    }

    #[test]
    fn degenerate_timings_are_invalid() {
        let mut s = RoundSample::completed(0, 8.0, 0.0, 0.0);
        assert_eq!(s.rate(), None);
        s.compute_seconds = f64::NAN;
        assert_eq!(s.rate(), None);
    }
}
