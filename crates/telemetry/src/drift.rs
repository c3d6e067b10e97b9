//! Online drift detection over per-worker throughput observations.
//!
//! Two complementary detectors run per worker, both on the *relative*
//! deviation `d = rate/baseline − 1` against a slow-moving baseline:
//!
//! * **CUSUM step detection** — two one-sided cumulative sums
//!   `S⁺ ← max(0, S⁺ + d − slack)`, `S⁻ ← max(0, S⁻ − d − slack)` that
//!   accumulate only deviations beyond the `SLACK` dead-band and fire at
//!   `THRESHOLD`. A co-tenant landing (rate × 0.3) fires within a few
//!   rounds; estimation-noise-level jitter stays inside the dead-band and
//!   the sums keep resetting to zero.
//! * **Slow-drift EWMA divergence** — the hub's EWMA estimate of the
//!   live rate diverging from the slow baseline by more than `ENVELOPE`
//!   flags gradual drift that individual CUSUM increments would
//!   under-count.
//!
//! The detector keeps no rate estimate of its own: it reads the
//! [`TelemetryHub`]'s, sample by sample, so the estimate a re-code is
//! built from is the one drift was judged against.
//!
//! A fired worker stays *flagged* until `DriftDetector::rebaseline`
//! re-anchors the baselines — which the adaptation loop calls after a
//! successful re-code (the new allocation embodies the new rates, so the
//! old reference is obsolete).

use crate::hub::TelemetryHub;

/// Observations per worker before the detectors judge (the first
/// `MIN_SAMPLES` build the baseline).
const MIN_SAMPLES: usize = 3;
/// CUSUM dead-band: relative deviations below this are noise — quiet
/// under a few percent of jitter (1–2 σ of the allocation's noise).
const SLACK: f64 = 0.15;
/// CUSUM firing threshold on the accumulated excess deviation: a 2×
/// step fires within ~3 rounds.
const THRESHOLD: f64 = 1.2;
/// Relative live-estimate-vs-baseline divergence that flags slow drift.
const ENVELOPE: f64 = 0.3;
/// Smoothing of the slow baseline EWMA.
const SLOW_ALPHA: f64 = 0.05;

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
    /// Relative deviation `estimate/baseline − 1` at firing time
    /// (negative = slowdown).
    pub(crate) magnitude: f64,
}

#[derive(Debug, Clone, Default)]
struct WorkerState {
    baseline: Option<f64>,
    cusum_pos: f64,
    cusum_neg: f64,
    count: usize,
    flagged: bool,
}

/// Per-worker CUSUM + EWMA-divergence drift detector (see the module
/// docs).
#[derive(Debug, Clone)]
pub(crate) struct DriftDetector {
    states: Vec<WorkerState>,
}

impl DriftDetector {
    /// A detector over `workers` workers.
    pub(crate) fn new(workers: usize) -> Self {
        DriftDetector {
            states: vec![WorkerState::default(); workers],
        }
    }

    /// Feeds one throughput observation `rate` for `worker`, with the
    /// hub's EWMA `estimate` that already includes it (see
    /// `TelemetryHub::ingest_each`); returns the event if a detector
    /// fires on this observation. Out-of-range workers are ignored.
    pub(crate) fn observe(
        &mut self,
        worker: usize,
        rate: f64,
        estimate: f64,
    ) -> Option<DriftEvent> {
        let st = self.states.get_mut(worker)?;
        st.count += 1;
        let Some(baseline) = st.baseline else {
            st.baseline = Some(rate);
            return None;
        };
        if st.count <= MIN_SAMPLES {
            // Still warming up: the baseline absorbs early observations
            // quickly so a noisy first sample is not the reference forever.
            st.baseline = Some(0.5 * baseline + 0.5 * rate);
            return None;
        }
        let d = rate / baseline - 1.0;
        st.cusum_pos = (st.cusum_pos + d - SLACK).max(0.0);
        st.cusum_neg = (st.cusum_neg - d - SLACK).max(0.0);
        // The baseline keeps (slowly) tracking so that, long after a
        // missed or tolerated change, deviations are judged against the
        // new normal.
        let baseline = (1.0 - SLOW_ALPHA) * baseline + SLOW_ALPHA * rate;
        st.baseline = Some(baseline);
        let magnitude = estimate / baseline - 1.0;
        let fired = if st.cusum_pos > THRESHOLD || st.cusum_neg > THRESHOLD {
            Some(DriftKind::Step)
        } else if magnitude.abs() > ENVELOPE {
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
    pub(crate) fn drifting(&self) -> bool {
        self.states.iter().any(|s| s.flagged)
    }

    /// Re-anchors every observed worker's baseline to its current `hub`
    /// estimate and clears flags and CUSUM state — called after a
    /// successful re-code, when the new allocation already reflects the
    /// new rates.
    pub(crate) fn rebaseline(&mut self, hub: &TelemetryHub) {
        for (w, st) in self.states.iter_mut().enumerate() {
            if let Some(estimate) = hub.estimate(w) {
                st.baseline = Some(estimate);
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
    use hetgc_cluster::RoundSample;

    /// A detector reading a hub's estimates, fed as `Adaptation` feeds it.
    struct Loop {
        hub: TelemetryHub,
        det: DriftDetector,
    }

    impl Loop {
        fn new(workers: usize) -> Self {
            Loop {
                hub: TelemetryHub::new(workers, 0.4, 8),
                det: DriftDetector::new(workers),
            }
        }

        /// One sample per rate for `worker` (unit compute time, so the
        /// sample's rate is the rate given).
        fn feed(&mut self, worker: usize, rates: &[f64]) -> Vec<DriftEvent> {
            let mut events = Vec::new();
            for &r in rates {
                let det = &mut self.det;
                let sample = RoundSample::completed(worker, r, 1.0, 1.0);
                self.hub.ingest_each(1.0, &[sample], |w, rate, estimate| {
                    events.extend(det.observe(w, rate, estimate));
                });
            }
            events
        }

        fn rebaseline(&mut self) {
            self.det.rebaseline(&self.hub);
        }
    }

    #[test]
    fn quiet_on_constant_rates() {
        let mut lp = Loop::new(1);
        assert!(lp.feed(0, &[4.0; 40]).is_empty());
        assert!(!lp.det.drifting());
    }

    #[test]
    fn fires_step_on_abrupt_slowdown() {
        let mut lp = Loop::new(2);
        lp.feed(0, &[4.0; 10]);
        let events = lp.feed(0, &[1.2; 6]); // 0.3× step
        assert_eq!(events.len(), 1, "fires once, then stays flagged");
        assert_eq!(events[0].worker, 0);
        assert!(events[0].magnitude < -0.2, "{:?}", events[0]);
        assert!(lp.det.drifting());
    }

    #[test]
    fn fires_on_speedup_too() {
        let mut lp = Loop::new(1);
        lp.feed(0, &[2.0; 10]);
        let events = lp.feed(0, &[6.0; 6]);
        assert_eq!(events.len(), 1);
        assert!(events[0].magnitude > 0.2);
    }

    #[test]
    fn rebaseline_clears_and_accepts_new_normal() {
        let mut lp = Loop::new(1);
        lp.feed(0, &[4.0; 10]);
        assert!(!lp.feed(0, &[1.2; 8]).is_empty());
        lp.rebaseline();
        assert!(!lp.det.drifting());
        // The new normal is 1.2: no re-fire.
        assert!(lp.feed(0, &[1.2; 20]).is_empty());
    }

    #[test]
    fn small_jitter_stays_quiet() {
        // ±5 % alternation sits inside the dead-band forever.
        let mut lp = Loop::new(1);
        let rates: Vec<f64> = (0..200)
            .map(|i| if i % 2 == 0 { 4.2 } else { 3.8 })
            .collect();
        assert!(lp.feed(0, &rates).is_empty());
    }

    #[test]
    fn slow_drift_eventually_flags() {
        // A gradual 1 %-per-round decay: individual deviations hide in
        // the dead-band at first, but the estimate/baseline divergence
        // catches it.
        let mut lp = Loop::new(1);
        let rates: Vec<f64> = (0..120).map(|i| 4.0 * 0.99f64.powi(i)).collect();
        let events = lp.feed(0, &rates);
        assert!(!events.is_empty(), "slow drift must eventually flag");
    }

    #[test]
    fn invalid_observations_ignored() {
        // NaN, negative and zero rates and out-of-range workers never
        // leave the hub.
        let mut lp = Loop::new(1);
        assert!(lp.feed(0, &[f64::NAN, -1.0, 0.0]).is_empty());
        assert!(lp.feed(5, &[1.0]).is_empty());
        assert_eq!(lp.det.states[0].count, 0);
        assert!(!lp.det.drifting());
    }
}
