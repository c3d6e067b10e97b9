//! The ingestion point: per-round samples in, live estimates and
//! arrival-history statistics out.

use hetgc_cluster::{EwmaEstimator, ThroughputEstimator};

use crate::quantile::QuantileWindow;
use crate::sample::RoundSample;

/// Collects [`RoundSample`]s from any round engine and maintains the
/// online views the adaptation controllers consume:
///
/// * a pluggable per-worker throughput estimator (default:
///   [`hetgc_cluster::EwmaEstimator`], tracking drifting speeds);
/// * a windowed quantile sketch of round-completion times (the
///   arrival history behind the learned escalation deadline);
/// * round/escalation counters.
pub struct TelemetryHub {
    workers: usize,
    estimator: Box<dyn ThroughputEstimator + Send>,
    round_times: QuantileWindow,
    rounds: usize,
    escalated_rounds: usize,
    samples_ingested: usize,
}

impl std::fmt::Debug for TelemetryHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryHub")
            .field("workers", &self.workers)
            .field("rounds", &self.rounds)
            .field("escalated_rounds", &self.escalated_rounds)
            .field("samples_ingested", &self.samples_ingested)
            .finish_non_exhaustive()
    }
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
        TelemetryHub::with_estimator(
            workers,
            Box::new(EwmaEstimator::new(workers, alpha)),
            window,
        )
    }

    /// A hub over a caller-supplied estimator — the pluggable half: any
    /// [`ThroughputEstimator`] (cumulative sampling, EWMA, something
    /// custom) slots in.
    pub fn with_estimator(
        workers: usize,
        estimator: Box<dyn ThroughputEstimator + Send>,
        window: usize,
    ) -> Self {
        TelemetryHub {
            workers,
            estimator,
            round_times: QuantileWindow::new(window),
            rounds: 0,
            escalated_rounds: 0,
            samples_ingested: 0,
        }
    }

    /// Ingests one completed round: its wall time, its decode residual
    /// (positive = the escalation ladder's approximate stage fired) and
    /// the per-worker samples the engine observed.
    pub fn ingest(&mut self, elapsed: f64, residual: f64, samples: &[RoundSample]) {
        self.rounds += 1;
        if residual > 0.0 {
            self.escalated_rounds += 1;
        }
        self.round_times.push(elapsed);
        for s in samples {
            if s.rate().is_some() {
                self.estimator
                    .observe(s.worker, s.work_units, s.compute_seconds);
                self.samples_ingested += 1;
            }
        }
    }

    /// Number of workers the hub tracks.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Completed rounds ingested so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Rounds whose decode carried a positive residual.
    pub fn escalated_rounds(&self) -> usize {
        self.escalated_rounds
    }

    /// Valid per-worker samples ingested so far.
    pub fn samples_ingested(&self) -> usize {
        self.samples_ingested
    }

    /// The current throughput estimate for one worker, if it has been
    /// observed.
    pub fn estimate(&self, worker: usize) -> Option<f64> {
        self.estimator.estimate(worker).ok()
    }

    /// Per-worker throughput estimates, substituting `fallback[w]` for
    /// workers with no observations yet (a dead worker keeps the estimate
    /// the allocation was originally built from). With `fallback` shorter
    /// than the worker count, unobserved workers past its end get the
    /// mean of the observed estimates.
    pub fn estimates_or(&self, fallback: &[f64]) -> Vec<f64> {
        let observed: Vec<Option<f64>> = (0..self.workers)
            .map(|w| self.estimator.estimate(w).ok())
            .collect();
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
    pub fn round_quantile(&self, q: f64) -> Option<f64> {
        self.round_times.quantile(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgc_cluster::SamplingEstimator;

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
        assert_eq!(hub.samples_ingested(), 2);
        assert_eq!(hub.estimate(0), Some(5.0));
        assert_eq!(hub.estimate(1), Some(10.0));
        assert_eq!(hub.round_quantile(1.0), Some(2.0));
        assert_eq!(hub.escalated_rounds(), 0);
    }

    #[test]
    fn escalated_rounds_counted_and_failures_skipped() {
        let mut hub = TelemetryHub::new(2, 0.5, 8);
        hub.ingest(
            3.0,
            0.4,
            &[
                RoundSample::completed(0, 10.0, 2.0, 2.0),
                RoundSample::failed(1, 10.0),
            ],
        );
        assert_eq!(hub.escalated_rounds(), 1);
        assert_eq!(hub.samples_ingested(), 1);
        assert_eq!(hub.estimate(1), None);
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

    #[test]
    fn pluggable_estimator() {
        let mut hub = TelemetryHub::with_estimator(1, Box::new(SamplingEstimator::new(1)), 4);
        hub.ingest(1.0, 0.0, &[RoundSample::completed(0, 2.0, 1.0, 1.0)]);
        hub.ingest(1.0, 0.0, &[RoundSample::completed(0, 6.0, 1.0, 1.0)]);
        // Cumulative: 8 work / 2 s.
        assert_eq!(hub.estimate(0), Some(4.0));
        assert!(format!("{hub:?}").contains("TelemetryHub"));
    }
}
