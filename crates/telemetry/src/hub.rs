//! The ingestion point: per-round samples in, live estimates and
//! arrival-history statistics out.

use hetgc_cluster::{EwmaEstimator, RoundSample};

use crate::quantile::QuantileWindow;

/// Collects [`RoundSample`]s from any round engine and maintains the
/// online views the adaptation controllers consume:
///
/// * a per-worker [`EwmaEstimator`] of throughput, tracking drifting
///   speeds;
/// * a windowed quantile sketch of round-completion times (the
///   arrival history behind the learned escalation deadline);
/// * a round counter.
#[derive(Debug)]
pub struct TelemetryHub {
    workers: usize,
    estimator: EwmaEstimator,
    round_times: QuantileWindow,
    rounds: usize,
}

impl TelemetryHub {
    /// A hub over `workers` workers with an EWMA throughput estimator
    /// (smoothing `alpha`) and a round-time window of `window` rounds.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha <= 1` and `window > 0` (delegated
    /// validation).
    pub fn new(workers: usize, alpha: f64, window: usize) -> Self {
        TelemetryHub {
            workers,
            estimator: EwmaEstimator::new(workers, alpha),
            round_times: QuantileWindow::new(window),
            rounds: 0,
        }
    }

    /// Ingests one completed round: its wall time and the per-worker
    /// samples the engine observed. Only samples with a positive, finite
    /// rate ([`RoundSample::rate`] over nonzero work) reach the
    /// estimator: a worker that held no partition measured nothing, and
    /// a zero rate would drag its estimate toward 0. The decode residual
    /// is not used here (escalated rounds are counted by
    /// `hetgc_obs::RunObserver`); the argument stays because the frozen
    /// benchmark harness (`benchmark/src/probes.rs`) calls this
    /// three-argument form.
    pub fn ingest(&mut self, elapsed: f64, _residual: f64, samples: &[RoundSample]) {
        self.ingest_each(elapsed, samples, |_, _, _| {});
    }

    /// [`TelemetryHub::ingest`], calling `each(worker, rate, estimate)`
    /// after every sample the estimator takes, with the worker's EWMA
    /// estimate including it — the one stream the drift detector reads.
    pub(crate) fn ingest_each(
        &mut self,
        elapsed: f64,
        samples: &[RoundSample],
        mut each: impl FnMut(usize, f64, f64),
    ) {
        self.rounds += 1;
        self.round_times.push(elapsed);
        for s in samples {
            let Some(rate) = s.rate().filter(|r| r.is_finite() && *r > 0.0) else {
                continue;
            };
            self.estimator
                .observe(s.worker, s.work_units, s.compute_seconds);
            if let Some(estimate) = self.estimate(s.worker) {
                each(s.worker, rate, estimate);
            }
        }
    }

    /// One worker's EWMA throughput estimate, `None` before its first
    /// observation or out of range.
    pub(crate) fn estimate(&self, worker: usize) -> Option<f64> {
        self.estimator.estimate(worker).ok()
    }

    /// Completed rounds ingested so far.
    pub(crate) fn rounds(&self) -> usize {
        self.rounds
    }

    /// Per-worker throughput estimates, substituting `fallback[w]` for
    /// workers with no observations yet (a dead worker keeps the estimate
    /// the allocation was originally built from). With `fallback` shorter
    /// than the worker count, unobserved workers past its end get the
    /// mean of the observed estimates.
    pub(crate) fn estimates_or(&self, fallback: &[f64]) -> Vec<f64> {
        let observed: Vec<Option<f64>> = (0..self.workers).map(|w| self.estimate(w)).collect();
        let mean = {
            let known: Vec<f64> = observed.iter().filter_map(|e| *e).collect();
            if known.is_empty() {
                1.0
            } else {
                known.iter().sum::<f64>() / known.len() as f64
            }
        };
        observed
            .iter()
            .enumerate()
            .map(|(w, e)| e.unwrap_or_else(|| fallback.get(w).copied().unwrap_or(mean)))
            .collect()
    }

    /// The `q`-quantile of recent round-completion times.
    pub(crate) fn round_quantile(&self, q: f64) -> Option<f64> {
        self.round_times.quantile(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_feeds_estimator_and_window() {
        let mut hub = TelemetryHub::new(2, 0.5, 8);
        hub.ingest(
            2.0,
            0.0,
            &[
                RoundSample::completed(0, 10.0, 2.0, 2.0),
                RoundSample::completed(1, 10.0, 1.0, 1.0),
            ],
        );
        assert_eq!(hub.rounds(), 1);
        assert_eq!(hub.estimator.estimate(0).ok(), Some(5.0));
        assert_eq!(hub.estimator.estimate(1).ok(), Some(10.0));
        assert_eq!(hub.round_quantile(1.0), Some(2.0));
    }

    #[test]
    fn failed_and_timingless_samples_never_reach_the_estimator() {
        let mut hub = TelemetryHub::new(4, 0.5, 8);
        let mut nan = RoundSample::completed(3, 10.0, 2.0, 2.0);
        nan.compute_seconds = f64::NAN;
        let round = [
            RoundSample::completed(0, 10.0, 2.0, 2.0),
            RoundSample::failed(1, 10.0),
            RoundSample::completed(2, 10.0, 0.0, 0.0),
            nan,
        ];
        hub.ingest(3.0, 0.4, &round);
        assert_eq!(hub.estimator.estimate(0).ok(), Some(5.0));
        assert_eq!(
            (
                hub.estimator.estimate(1).ok(),
                hub.estimator.estimate(2).ok()
            ),
            (None, None)
        );
        assert_eq!(hub.estimator.estimate(3).ok(), None);
        // A later invalid sample leaves an observed estimate untouched.
        hub.ingest(3.0, 0.0, &[RoundSample::failed(0, 10.0)]);
        assert_eq!(hub.estimator.estimate(0).ok(), Some(5.0));
        assert_eq!(hub.rounds(), 2);
    }

    #[test]
    fn zero_work_samples_leave_the_estimates_alone() {
        // A worker that held no partition reports zero work in a positive
        // time: rate 0, which must not drag its estimate toward 0.
        let mut hub = TelemetryHub::new(2, 0.4, 8);
        hub.ingest(1.0, 0.0, &[RoundSample::completed(0, 8.0, 2.0, 2.0)]);
        let before = hub.estimates_or(&[1.0, 3.0]);
        hub.ingest(
            1.0,
            0.0,
            &[
                RoundSample::completed(0, 0.0, 2.0, 2.0),
                RoundSample::completed(1, 0.0, 1.0, 1.0),
            ],
        );
        assert_eq!(hub.estimates_or(&[1.0, 3.0]), before);
        assert_eq!(before, vec![4.0, 3.0]);
    }

    #[test]
    fn ingest_each_reports_the_running_estimate_per_sample() {
        // Two samples for one worker in one round (a late reply and the
        // current one): the callback sees the estimate after each, so a
        // reader of the stream sees what a per-sample EWMA would.
        let mut hub = TelemetryHub::new(2, 0.5, 8);
        let mut seen = Vec::new();
        let round = [
            RoundSample::completed(0, 8.0, 2.0, 2.0).late(),
            RoundSample::failed(1, 8.0),
            RoundSample::completed(0, 8.0, 1.0, 1.0),
        ];
        hub.ingest_each(2.0, &round, |w, rate, estimate| {
            seen.push((w, rate, estimate))
        });
        assert_eq!(seen, vec![(0, 4.0, 4.0), (0, 8.0, 6.0)]);
        assert_eq!(hub.estimate(0), Some(6.0));
    }

    #[test]
    fn estimates_or_fills_unobserved_from_fallback_then_mean() {
        let mut hub = TelemetryHub::new(3, 0.5, 8);
        hub.ingest(1.0, 0.0, &[RoundSample::completed(0, 6.0, 2.0, 2.0)]);
        // Worker 1 falls back to the provided rate, worker 2 (past the
        // fallback slice) to the mean of observed estimates.
        assert_eq!(hub.estimates_or(&[9.0, 7.0]), vec![3.0, 7.0, 3.0]);
        // No fallback at all: mean everywhere unobserved.
        assert_eq!(hub.estimates_or(&[]), vec![3.0, 3.0, 3.0]);
    }

    #[test]
    fn percentile_accessors_match_quantile() {
        let mut hub = TelemetryHub::new(1, 0.5, 16);
        assert_eq!(hub.round_quantile(0.5), None);
        for i in 1..=10 {
            hub.ingest(i as f64, 0.0, &[]);
        }
        assert_eq!(hub.round_quantile(0.5), Some(6.0));
        assert_eq!(hub.round_quantile(0.99), Some(10.0));
    }
}
