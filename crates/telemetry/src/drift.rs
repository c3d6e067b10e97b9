//! Online drift detection over per-worker throughput observations.
//!
//! Two complementary detectors run per worker, both on the *relative*
//! deviation `d = rate/baseline − 1` against a slow-moving baseline:
//!
//! * **CUSUM step detection** — two one-sided cumulative sums
//!   `S⁺ ← max(0, S⁺ + d − slack)`, `S⁻ ← max(0, S⁻ − d − slack)` that
//!   accumulate only deviations beyond the `slack` dead-band and fire at
//!   `threshold`. A co-tenant landing (rate × 0.3) fires within a few
//!   rounds; estimation-noise-level jitter stays inside the dead-band and
//!   the sums keep resetting to zero.
//! * **Slow-drift EWMA divergence** — a fast EWMA tracking the live rate
//!   diverging from the slow baseline by more than `envelope` flags
//!   gradual drift that individual CUSUM increments would under-count.
//!
//! A fired worker stays *flagged* until `DriftDetector::rebaseline`
//! re-anchors the baselines — which the adaptation loop calls after a
//! successful re-code (the new allocation embodies the new rates, so the
//! old reference is obsolete).

/// Tuning of the per-worker drift detectors.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftConfig {
    /// Observations per worker before the detectors judge (the first
    /// `min_samples` build the baseline).
    pub(crate) min_samples: usize,
    /// CUSUM dead-band: relative deviations below this are noise. Sized
    /// to the allocation's noise envelope (compute jitter / estimation
    /// noise σ), typically 1–2 σ.
    pub(crate) slack: f64,
    /// CUSUM firing threshold on the accumulated excess deviation.
    pub(crate) threshold: f64,
    /// Relative fast-vs-baseline EWMA divergence that flags slow drift.
    pub(crate) envelope: f64,
    /// Smoothing of the fast (live) EWMA.
    pub(crate) fast_alpha: f64,
    /// Smoothing of the slow baseline EWMA.
    pub(crate) slow_alpha: f64,
}

impl Default for DriftConfig {
    /// Dead-band 0.15, threshold 1.2, envelope 0.3, fast α 0.4,
    /// slow α 0.05, 3 warm-up samples — quiet under a few percent of
    /// jitter, fires within ~3 rounds on a 2× step.
    fn default() -> Self {
        DriftConfig {
            min_samples: 3,
            slack: 0.15,
            threshold: 1.2,
            envelope: 0.3,
            fast_alpha: 0.4,
            slow_alpha: 0.05,
        }
    }
}

impl DriftConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics when a field is out of range (non-positive threshold /
    /// envelope, alphas outside `(0, 1]`, negative slack).
    fn validate(&self) {
        assert!(self.slack >= 0.0, "slack must be non-negative");
        assert!(self.threshold > 0.0, "threshold must be positive");
        assert!(self.envelope > 0.0, "envelope must be positive");
        for (name, a) in [
            ("fast_alpha", self.fast_alpha),
            ("slow_alpha", self.slow_alpha),
        ] {
            assert!(a > 0.0 && a <= 1.0, "{name} must be in (0, 1]");
        }
    }
}

/// What kind of drift fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DriftKind {
    /// Abrupt rate change caught by the CUSUM statistic.
    Step,
    /// Gradual divergence caught by the EWMA envelope.
    Slow,
}

/// One detector firing.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftEvent {
    /// The drifting worker.
    pub worker: usize,
    /// Step or slow drift.
    pub(crate) kind: DriftKind,
    /// Relative deviation `fast/baseline − 1` at firing time (negative =
    /// slowdown).
    pub(crate) magnitude: f64,
}

#[derive(Debug, Clone, Default)]
struct WorkerState {
    baseline: Option<f64>,
    fast: Option<f64>,
    cusum_pos: f64,
    cusum_neg: f64,
    count: usize,
    flagged: bool,
}

/// Per-worker CUSUM + EWMA-divergence drift detector (see the module
/// docs).
#[derive(Debug, Clone)]
pub struct DriftDetector {
    cfg: DriftConfig,
    states: Vec<WorkerState>,
}

impl DriftDetector {
    /// A detector over `workers` workers.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range [`DriftConfig`].
    pub fn new(workers: usize, cfg: DriftConfig) -> Self {
        cfg.validate();
        DriftDetector {
            cfg,
            states: vec![WorkerState::default(); workers],
        }
    }

    /// Feeds one throughput observation for `worker`; returns the event
    /// if a detector fires on this observation. Out-of-range workers and
    /// invalid rates are ignored.
    pub fn observe(&mut self, worker: usize, rate: f64) -> Option<DriftEvent> {
        if !(rate.is_finite() && rate > 0.0) {
            return None;
        }
        let cfg = self.cfg.clone();
        let st = self.states.get_mut(worker)?;
        st.count += 1;
        let Some(baseline) = st.baseline else {
            st.baseline = Some(rate);
            st.fast = Some(rate);
            return None;
        };
        let fast = st.fast.unwrap_or(rate);
        let fast = (1.0 - cfg.fast_alpha) * fast + cfg.fast_alpha * rate;
        st.fast = Some(fast);
        if st.count <= cfg.min_samples {
            // Still warming up: the baseline absorbs early observations
            // quickly so a noisy first sample is not the reference forever.
            st.baseline = Some(0.5 * baseline + 0.5 * rate);
            return None;
        }
        let d = rate / baseline - 1.0;
        st.cusum_pos = (st.cusum_pos + d - cfg.slack).max(0.0);
        st.cusum_neg = (st.cusum_neg - d - cfg.slack).max(0.0);
        // The baseline keeps (slowly) tracking so that, long after a
        // missed or tolerated change, deviations are judged against the
        // new normal.
        st.baseline = Some((1.0 - cfg.slow_alpha) * baseline + cfg.slow_alpha * rate);
        let magnitude = fast / st.baseline.expect("just set") - 1.0;
        let fired = if st.cusum_pos > cfg.threshold || st.cusum_neg > cfg.threshold {
            Some(DriftKind::Step)
        } else if magnitude.abs() > cfg.envelope {
            Some(DriftKind::Slow)
        } else {
            None
        };
        let kind = fired?;
        let newly = !st.flagged;
        st.flagged = true;
        newly.then_some(DriftEvent {
            worker,
            kind,
            magnitude,
        })
    }

    /// Whether any worker is currently flagged as drifting (sticky until
    /// `DriftDetector::rebaseline`).
    pub fn drifting(&self) -> bool {
        self.states.iter().any(|s| s.flagged)
    }

    /// Re-anchors every worker's baseline to its current fast estimate
    /// and clears flags and CUSUM state — called after a successful
    /// re-code, when the new allocation already reflects the new rates.
    pub(crate) fn rebaseline(&mut self) {
        for st in &mut self.states {
            if let Some(fast) = st.fast {
                st.baseline = Some(fast);
            }
            st.cusum_pos = 0.0;
            st.cusum_neg = 0.0;
            st.flagged = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(det: &mut DriftDetector, worker: usize, rates: &[f64]) -> Vec<DriftEvent> {
        rates
            .iter()
            .filter_map(|&r| det.observe(worker, r))
            .collect()
    }

    #[test]
    fn quiet_on_constant_rates() {
        let mut det = DriftDetector::new(1, DriftConfig::default());
        assert!(feed(&mut det, 0, &[4.0; 40]).is_empty());
        assert!(!det.drifting());
    }

    #[test]
    fn fires_step_on_abrupt_slowdown() {
        let mut det = DriftDetector::new(2, DriftConfig::default());
        feed(&mut det, 0, &[4.0; 10]);
        let events = feed(&mut det, 0, &[1.2; 6]); // 0.3× step
        assert_eq!(events.len(), 1, "fires once, then stays flagged");
        assert_eq!(events[0].worker, 0);
        assert!(events[0].magnitude < -0.2, "{:?}", events[0]);
        assert!(det.drifting());
    }

    #[test]
    fn fires_on_speedup_too() {
        let mut det = DriftDetector::new(1, DriftConfig::default());
        feed(&mut det, 0, &[2.0; 10]);
        let events = feed(&mut det, 0, &[6.0; 6]);
        assert_eq!(events.len(), 1);
        assert!(events[0].magnitude > 0.2);
    }

    #[test]
    fn rebaseline_clears_and_accepts_new_normal() {
        let mut det = DriftDetector::new(1, DriftConfig::default());
        feed(&mut det, 0, &[4.0; 10]);
        assert!(!feed(&mut det, 0, &[1.2; 8]).is_empty());
        det.rebaseline();
        assert!(!det.drifting());
        // The new normal is 1.2: no re-fire.
        assert!(feed(&mut det, 0, &[1.2; 20]).is_empty());
    }

    #[test]
    fn small_jitter_stays_quiet() {
        // ±5 % alternation sits inside the dead-band forever.
        let mut det = DriftDetector::new(1, DriftConfig::default());
        let rates: Vec<f64> = (0..200)
            .map(|i| if i % 2 == 0 { 4.2 } else { 3.8 })
            .collect();
        assert!(feed(&mut det, 0, &rates).is_empty());
    }

    #[test]
    fn slow_drift_eventually_flags() {
        // A gradual 1 %-per-round decay: individual deviations hide in
        // the dead-band at first, but the fast/slow divergence catches it.
        let mut det = DriftDetector::new(1, DriftConfig::default());
        let rates: Vec<f64> = (0..120).map(|i| 4.0 * 0.99f64.powi(i)).collect();
        let events = feed(&mut det, 0, &rates);
        assert!(!events.is_empty(), "slow drift must eventually flag");
    }

    #[test]
    fn invalid_observations_ignored() {
        let mut det = DriftDetector::new(1, DriftConfig::default());
        assert!(det.observe(0, f64::NAN).is_none());
        assert!(det.observe(0, -1.0).is_none());
        assert!(det.observe(5, 1.0).is_none()); // out of range
        assert!(!det.drifting());
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn bad_config_rejected() {
        DriftDetector::new(
            1,
            DriftConfig {
                threshold: 0.0,
                ..DriftConfig::default()
            },
        );
    }
}
