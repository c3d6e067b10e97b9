//! Pre-registered handle bundles the other layers record into.
//!
//! The bundles keep the dependency direction clean: `hetgc-obs` stays a
//! leaf crate speaking primitives (round elapsed seconds, worker index,
//! byte counts), and the driver/engine/codec crates adapt their own
//! types down to these calls. All registration happens in the
//! constructors; every `observe_*` call is atomics-only.

use crate::registry::{Counter, Histogram, MetricsRegistry};
use crate::trace::{Phase, Recorder};

/// Metric handles for one training run (one driver + engine), labelled
/// by `job`. Clones share the cells.
#[derive(Debug, Clone)]
pub struct RunObserver {
    rounds: Counter,
    failed_rounds: Counter,
    escalated_rounds: Counter,
    round_seconds: Histogram,
    bytes_sent: Counter,
    bytes_received: Counter,
    wire_bytes_saved: Counter,
    wire_quant_error: Histogram,
    arrivals: Vec<Histogram>,
    recorder: Option<Recorder>,
}

impl RunObserver {
    /// Registers the per-run families under `job`, with one arrival
    /// histogram per worker.
    pub fn new(registry: &MetricsRegistry, job: &str, workers: usize) -> Self {
        let job_label: &[(&str, &str)] = &[("job", job)];
        let arrivals = (0..workers)
            .map(|w| {
                registry.histogram(
                    "hetgc_arrival_seconds",
                    "Per-worker result arrival latency from round start",
                    &[("job", job), ("worker", &w.to_string())],
                )
            })
            .collect();
        RunObserver {
            rounds: registry.counter("hetgc_rounds_total", "Completed training rounds", job_label),
            failed_rounds: registry.counter(
                "hetgc_failed_rounds_total",
                "Rounds that failed to decode",
                job_label,
            ),
            escalated_rounds: registry.counter(
                "hetgc_escalated_rounds_total",
                "Rounds decoded with a non-zero residual (escalated)",
                job_label,
            ),
            round_seconds: registry.histogram(
                "hetgc_round_seconds",
                "Wall-clock seconds per completed round",
                job_label,
            ),
            bytes_sent: registry.counter(
                "hetgc_bytes_sent_total",
                "Bytes sent to workers",
                job_label,
            ),
            bytes_received: registry.counter(
                "hetgc_bytes_received_total",
                "Bytes received from workers",
                job_label,
            ),
            wire_bytes_saved: registry.counter(
                "hetgc_wire_bytes_saved_total",
                "Payload bytes saved by lossy wire encodings vs full-width f64",
                job_label,
            ),
            wire_quant_error: registry.histogram(
                "hetgc_wire_quantization_error",
                "Per-round L2 quantization error of lossy wire traffic",
                job_label,
            ),
            arrivals,
            recorder: None,
        }
    }

    /// Attaches a flight recorder; the driver forwards it to the engine.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// The attached recorder, if any.
    pub fn recorder(&self) -> Option<&Recorder> {
        self.recorder.as_ref()
    }

    /// Records one completed round.
    pub fn observe_round(&self, elapsed: f64, residual: f64, bytes_sent: u64, bytes_received: u64) {
        self.rounds.inc();
        self.round_seconds.observe(elapsed);
        if residual > 0.0 {
            self.escalated_rounds.inc();
        }
        self.bytes_sent.add(bytes_sent);
        self.bytes_received.add(bytes_received);
    }

    /// Records one round's wire-compression outcome: bytes the lossy
    /// payload encodings saved versus full-width `f64` traffic, and the
    /// measured L2 quantization error they introduced. The driver only
    /// calls this on rounds that actually moved compressed traffic, so
    /// lossless runs register the families but never populate them.
    pub fn observe_wire(&self, bytes_saved: u64, quantization_error: f64) {
        self.wire_bytes_saved.add(bytes_saved);
        self.wire_quant_error.observe(quantization_error);
    }

    /// Records a round that failed to decode.
    pub fn observe_failed_round(&self) {
        self.failed_rounds.inc();
    }

    /// Records one worker's arrival latency (seconds from round start).
    pub fn observe_arrival(&self, worker: usize, seconds: f64) {
        if let Some(h) = self.arrivals.get(worker) {
            h.observe(seconds);
        }
    }
}

/// Metric handles for one codec's decode-plan cache, labelled by the
/// codec label. Clones share the cells, so the bundle fans out through
/// escalation ladders unchanged.
#[derive(Debug, Clone)]
pub struct CodecMetrics {
    hits: Counter,
    misses: Counter,
    solves: Counter,
    solve_seconds: Histogram,
    recorder: Option<Recorder>,
}

impl CodecMetrics {
    /// Registers the plan-cache families under `codec`.
    pub fn new(registry: &MetricsRegistry, codec: &str) -> Self {
        let labels: &[(&str, &str)] = &[("codec", codec)];
        CodecMetrics {
            hits: registry.counter(
                "hetgc_plan_cache_hits_total",
                "Decode-plan cache probes that hit",
                labels,
            ),
            misses: registry.counter(
                "hetgc_plan_cache_misses_total",
                "Decode-plan cache probes that missed",
                labels,
            ),
            solves: registry.counter(
                "hetgc_plan_solves_total",
                "Dense decode-plan solves (cache misses that computed)",
                labels,
            ),
            solve_seconds: registry.histogram(
                "hetgc_plan_solve_seconds",
                "Dense decode-plan solve latency",
                labels,
            ),
            recorder: None,
        }
    }

    /// Attaches a flight recorder for cache-probe / plan-solve spans.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// The attached recorder, if any.
    pub fn recorder(&self) -> Option<&Recorder> {
        self.recorder.as_ref()
    }

    /// Records a cache probe that hit.
    #[inline]
    pub fn hit(&self) {
        self.hits.inc();
        if let Some(rec) = &self.recorder {
            rec.instant(Phase::CacheProbe, 0);
        }
    }

    /// Records a cache probe that missed.
    #[inline]
    pub fn miss(&self) {
        self.misses.inc();
    }

    /// Records one dense plan solve taking `seconds`.
    #[inline]
    pub fn solved(&self, seconds: f64) {
        self.solves.inc();
        self.solve_seconds.observe(seconds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricValue;

    #[test]
    fn run_observer_records_rounds_and_arrivals() {
        let reg = MetricsRegistry::new();
        let obs = RunObserver::new(&reg, "job-a", 3);
        obs.observe_round(0.5, 0.0, 100, 200);
        obs.observe_round(0.7, 1e-3, 50, 60);
        obs.observe_wire(4096, 0.25);
        obs.observe_wire(4096, 0.5);
        obs.observe_failed_round();
        obs.observe_arrival(0, 0.01);
        obs.observe_arrival(2, 0.02);
        obs.observe_arrival(99, 0.03); // out of range: ignored
        let snap = reg.snapshot();
        assert_eq!(
            snap.get("hetgc_rounds_total", &[("job", "job-a")]),
            Some(&MetricValue::Counter(2))
        );
        assert_eq!(
            snap.get("hetgc_escalated_rounds_total", &[("job", "job-a")]),
            Some(&MetricValue::Counter(1))
        );
        assert_eq!(
            snap.get("hetgc_bytes_sent_total", &[("job", "job-a")]),
            Some(&MetricValue::Counter(150))
        );
        assert_eq!(
            snap.get("hetgc_wire_bytes_saved_total", &[("job", "job-a")]),
            Some(&MetricValue::Counter(8192))
        );
        match snap.get("hetgc_wire_quantization_error", &[("job", "job-a")]) {
            Some(MetricValue::Histogram(h)) => {
                assert_eq!(h.count, 2);
                assert!((h.sum - 0.75).abs() < 1e-12);
            }
            other => panic!("unexpected {other:?}"),
        }
        match snap.get(
            "hetgc_arrival_seconds",
            &[("job", "job-a"), ("worker", "2")],
        ) {
            Some(MetricValue::Histogram(h)) => assert_eq!(h.count, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn codec_metrics_count_probes_and_solves() {
        let reg = MetricsRegistry::new();
        let m = CodecMetrics::new(&reg, "exact").with_recorder(Recorder::new(8));
        m.hit();
        m.hit();
        m.miss();
        m.solved(0.002);
        let snap = reg.snapshot();
        let labels = &[("codec", "exact")];
        assert_eq!(
            snap.get("hetgc_plan_cache_hits_total", labels),
            Some(&MetricValue::Counter(2))
        );
        assert_eq!(
            snap.get("hetgc_plan_solves_total", labels),
            Some(&MetricValue::Counter(1))
        );
        assert_eq!(
            snap.get("hetgc_plan_cache_misses_total", &[("codec", "exact")]),
            Some(&MetricValue::Counter(1))
        );
    }
}
