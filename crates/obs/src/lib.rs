//! `hetgc-obs`: the observability layer for the hetgc workspace.
//!
//! Three pieces, wired through every other crate:
//!
//! 1. **Metrics registry** ([`MetricsRegistry`]) — atomic counters,
//!    gauges, and fixed-bucket log-scale histograms with labels.
//!    Registration locks and allocates once at setup; recording is
//!    lock-free and allocation-free, and a disabled registry costs one
//!    relaxed atomic load per record call.
//! 2. **Span tracing** ([`Recorder`], [`Phase`]) — a bounded ring-buffer
//!    flight recorder capturing the hot phases of a round (encode,
//!    dispatch, collect, arrival, plan-solve, cache-probe, decode, step,
//!    recode), exportable as Chrome Trace Event JSON.
//! 3. **Exposition endpoint** ([`MetricsServer`]) — a tiny blocking HTTP
//!    listener serving `/metrics` (Prometheus text, [`expo::render`])
//!    and `/trace` (Chrome trace) from any registry snapshot.
//!
//! The crate is a dependency leaf (std only): the coding, core,
//! runtime, net, and sched crates all depend on it and adapt their own
//! types down to the primitive-typed [`RunObserver`] / [`CodecMetrics`]
//! bundles.

pub mod expo;
mod observer;
mod registry;
mod server;
mod trace;

pub use observer::{CodecMetrics, RunObserver};
pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricValue, MetricsRegistry, MetricsSnapshot,
    HISTOGRAM_BUCKETS,
};
pub use server::MetricsServer;
pub use trace::{Phase, Recorder, SpanGuard, TraceEvent};
