//! The lock-free metrics registry: atomic counters, gauges, and
//! fixed-bucket log-scale histograms, grouped into named families with
//! label sets, snapshotted into mergeable [`MetricsSnapshot`]s.
//!
//! # Cost model
//!
//! Registration (naming a metric, attaching labels) takes a mutex and
//! allocates — it happens once, at setup. Recording (`inc`, `add`,
//! `set`, `observe`) touches only pre-registered atomic cells: no locks,
//! no allocation, safe to call from the codec hot path without breaking
//! the zero-steady-state-allocation guarantee. When the registry is
//! disabled every record call is a single relaxed atomic load.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets, including the final `+Inf` overflow
/// bucket. All histograms share one geometric bucket layout so snapshots
/// merge element-wise.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// The shared bucket upper bounds: `1e-6 · 2^i` seconds for the first
/// 39 buckets (1 µs up to ~76 hours), then `+Inf`.
pub(crate) fn bucket_bounds() -> [f64; HISTOGRAM_BUCKETS] {
    let mut bounds = [0.0; HISTOGRAM_BUCKETS];
    let mut b = 1e-6;
    for slot in bounds.iter_mut().take(HISTOGRAM_BUCKETS - 1) {
        *slot = b;
        b *= 2.0;
    }
    bounds[HISTOGRAM_BUCKETS - 1] = f64::INFINITY;
    bounds
}

#[derive(Debug, Default)]
struct CounterCell {
    value: AtomicU64,
}

#[derive(Debug, Default)]
struct GaugeCell {
    bits: AtomicU64,
}

#[derive(Debug)]
struct HistogramCell {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl Default for HistogramCell {
    fn default() -> Self {
        HistogramCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
        }
    }
}

/// A monotonically increasing counter handle. Clones share the cell.
#[derive(Debug, Clone)]
pub struct Counter {
    enabled: Arc<AtomicBool>,
    cell: Arc<CounterCell>,
}

impl Counter {
    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.value.fetch_add(n, Ordering::Relaxed);
        }
    }
}

/// A last-write-wins gauge handle. Clones share the cell.
#[derive(Debug, Clone)]
pub struct Gauge {
    enabled: Arc<AtomicBool>,
    cell: Arc<GaugeCell>,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.bits.store(v.to_bits(), Ordering::Relaxed);
        }
    }
}

/// A log-scale histogram handle over the shared `bucket_bounds`
/// layout. Clones share the cell.
#[derive(Debug, Clone)]
pub struct Histogram {
    enabled: Arc<AtomicBool>,
    cell: Arc<HistogramCell>,
    bounds: [f64; HISTOGRAM_BUCKETS],
}

impl Histogram {
    /// Records one observation (clamped to `[0, +Inf)`; NaN counts as 0).
    #[inline]
    pub fn observe(&self, v: f64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let v = if v.is_nan() { 0.0 } else { v.max(0.0) };
        let idx = self
            .bounds
            .iter()
            .position(|b| v <= *b)
            .unwrap_or(HISTOGRAM_BUCKETS - 1);
        self.cell.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.cell.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.cell.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.cell.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// A point-in-time copy of the cell.
    pub fn snapshot(&self) -> HistogramSnapshot {
        snapshot_histogram(&self.cell)
    }
}

fn snapshot_histogram(cell: &HistogramCell) -> HistogramSnapshot {
    HistogramSnapshot {
        buckets: cell
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect(),
        count: cell.count.load(Ordering::Relaxed),
        sum: f64::from_bits(cell.sum_bits.load(Ordering::Relaxed)),
    }
}

/// What kind of metric a family holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MetricKind {
    /// Monotonic counter.
    Counter,
    /// Last-write-wins gauge.
    Gauge,
    /// Log-scale histogram.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Debug)]
enum Cell {
    Counter(Arc<CounterCell>),
    Gauge(Arc<GaugeCell>),
    Histogram(Arc<HistogramCell>),
}

#[derive(Debug)]
struct Family {
    help: String,
    kind: MetricKind,
    // (sorted label pairs, cell), insertion-ordered.
    series: Vec<(Vec<(String, String)>, Cell)>,
}

/// The registry: a named, labelled family store handing out atomic
/// handles. Clones share the underlying store, so a clone can be handed
/// to the exposition server while the original keeps registering.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    enabled: Arc<AtomicBool>,
    families: Arc<Mutex<BTreeMap<String, Family>>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

fn normalize(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    out.sort();
    out
}

impl MetricsRegistry {
    /// An enabled registry.
    pub fn new() -> Self {
        MetricsRegistry {
            enabled: Arc::new(AtomicBool::new(true)),
            families: Arc::new(Mutex::new(BTreeMap::new())),
        }
    }

    /// A registry whose handles record nothing until
    /// `set_enabled(true)` — handy for
    /// measuring the disabled-path cost.
    pub fn disabled() -> Self {
        let r = MetricsRegistry::new();
        r.set_enabled(false);
        r
    }

    /// Turns recording on or off for every handle this registry has
    /// issued (one shared flag; takes effect immediately).
    pub(crate) fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Registers (or finds) a counter series. Re-registering the same
    /// name and labels returns a handle to the same cell.
    ///
    /// # Panics
    ///
    /// If `name` is already registered with a different kind.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        let cell = self.register(name, help, MetricKind::Counter, labels, || {
            Cell::Counter(Arc::new(CounterCell::default()))
        });
        let Cell::Counter(cell) = cell else {
            unreachable!()
        };
        Counter {
            enabled: Arc::clone(&self.enabled),
            cell,
        }
    }

    /// Registers (or finds) a gauge series; see
    /// [`counter`](MetricsRegistry::counter) for the contract.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        let cell = self.register(name, help, MetricKind::Gauge, labels, || {
            Cell::Gauge(Arc::new(GaugeCell::default()))
        });
        let Cell::Gauge(cell) = cell else {
            unreachable!()
        };
        Gauge {
            enabled: Arc::clone(&self.enabled),
            cell,
        }
    }

    /// Registers (or finds) a histogram series; see
    /// [`counter`](MetricsRegistry::counter) for the contract.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        let cell = self.register(name, help, MetricKind::Histogram, labels, || {
            Cell::Histogram(Arc::new(HistogramCell::default()))
        });
        let Cell::Histogram(cell) = cell else {
            unreachable!()
        };
        Histogram {
            enabled: Arc::clone(&self.enabled),
            cell,
            bounds: bucket_bounds(),
        }
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Cell,
    ) -> Cell {
        let labels = normalize(labels);
        let mut families = self.families.lock().unwrap();
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            series: Vec::new(),
        });
        assert!(
            family.kind == kind,
            "metric {name} already registered as {}, not {}",
            family.kind.as_str(),
            kind.as_str()
        );
        if let Some((_, cell)) = family.series.iter().find(|(l, _)| *l == labels) {
            return clone_cell(cell);
        }
        family.series.push((labels, make()));
        clone_cell(&family.series.last().unwrap().1)
    }

    /// A point-in-time copy of every family, suitable for merging and
    /// exposition. Families come out in name order; series in
    /// registration order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let families = self.families.lock().unwrap();
        MetricsSnapshot {
            families: families
                .iter()
                .map(|(name, fam)| MetricFamily {
                    name: name.clone(),
                    help: fam.help.clone(),
                    kind: fam.kind,
                    series: fam
                        .series
                        .iter()
                        .map(|(labels, cell)| Series {
                            labels: labels.clone(),
                            value: match cell {
                                Cell::Counter(c) => {
                                    MetricValue::Counter(c.value.load(Ordering::Relaxed))
                                }
                                Cell::Gauge(g) => MetricValue::Gauge(f64::from_bits(
                                    g.bits.load(Ordering::Relaxed),
                                )),
                                Cell::Histogram(h) => MetricValue::Histogram(snapshot_histogram(h)),
                            },
                        })
                        .collect(),
                })
                .collect(),
        }
    }
}

fn clone_cell(cell: &Cell) -> Cell {
    match cell {
        Cell::Counter(c) => Cell::Counter(Arc::clone(c)),
        Cell::Gauge(g) => Cell::Gauge(Arc::clone(g)),
        Cell::Histogram(h) => Cell::Histogram(Arc::clone(h)),
    }
}

/// A point-in-time histogram: per-bucket (non-cumulative) counts over
/// `bucket_bounds`, the observation count, and the running sum.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Non-cumulative per-bucket counts, `HISTOGRAM_BUCKETS` long.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Folds `other` into `self`: element-wise bucket addition, count and
    /// sum addition. Lossless and order-independent (up to float
    /// summation order in `sum`).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// The quantile `q ∈ [0, 1]` estimated from the bucket layout: the
    /// upper bound of the bucket holding the nearest-rank observation.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let bounds = bucket_bounds();
        let mut seen = 0u64;
        for (i, c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bounds[i]);
            }
        }
        Some(f64::INFINITY)
    }
}

/// One labelled series inside a family.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Series {
    /// Sorted `(key, value)` label pairs.
    pub(crate) labels: Vec<(String, String)>,
    /// The sampled value.
    pub(crate) value: MetricValue,
}

/// A sampled metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(f64),
    /// Histogram reading.
    Histogram(HistogramSnapshot),
}

/// A named family of series sharing one kind and help string.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MetricFamily {
    /// Metric name (Prometheus-style, e.g. `hetgc_rounds_total`).
    pub(crate) name: String,
    /// Help text for the `# HELP` line.
    pub(crate) help: String,
    /// Counter, gauge, or histogram.
    pub(crate) kind: MetricKind,
    /// The labelled series.
    pub(crate) series: Vec<Series>,
}

/// A point-in-time copy of a whole registry. Snapshots from different
/// registries (e.g. per-shard or per-process) merge losslessly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Families in name order.
    pub(crate) families: Vec<MetricFamily>,
}

impl MetricsSnapshot {
    /// Folds `other` into `self`: counters add, gauges take `other`'s
    /// reading (last write wins), histograms merge element-wise. Families
    /// or series only present in `other` are appended.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for fam in &other.families {
            match self.families.iter_mut().find(|f| f.name == fam.name) {
                None => self.families.push(fam.clone()),
                Some(mine) => {
                    for series in &fam.series {
                        match mine.series.iter_mut().find(|s| s.labels == series.labels) {
                            None => mine.series.push(series.clone()),
                            Some(existing) => match (&mut existing.value, &series.value) {
                                (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                                (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a = *b,
                                (MetricValue::Histogram(a), MetricValue::Histogram(b)) => {
                                    a.merge(b)
                                }
                                _ => {}
                            },
                        }
                    }
                }
            }
        }
        self.families.sort_by(|a, b| a.name.cmp(&b.name));
    }

    /// Looks up one series by family name and (unsorted) label pairs.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricValue> {
        let labels = normalize(labels);
        self.families
            .iter()
            .find(|f| f.name == name)?
            .series
            .iter()
            .find(|s| s.labels == labels)
            .map(|s| &s.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter_value(c: &Counter) -> u64 {
        c.cell.value.load(Ordering::Relaxed)
    }

    fn gauge_value(g: &Gauge) -> f64 {
        f64::from_bits(g.cell.bits.load(Ordering::Relaxed))
    }

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("hits_total", "hits", &[("job", "a")]);
        c.inc();
        c.add(4);
        assert_eq!(counter_value(&c), 5);
        // Re-registration shares the cell.
        let c2 = reg.counter("hits_total", "hits", &[("job", "a")]);
        c2.inc();
        assert_eq!(counter_value(&c), 6);
        let g = reg.gauge("depth", "queue depth", &[]);
        g.set(3.5);
        assert_eq!(gauge_value(&g), 3.5);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = MetricsRegistry::disabled();
        let c = reg.counter("n", "n", &[]);
        let h = reg.histogram("h", "h", &[]);
        c.inc();
        h.observe(1.0);
        assert_eq!(counter_value(&c), 0);
        assert_eq!(h.snapshot().count, 0);
        reg.set_enabled(true);
        c.inc();
        h.observe(1.0);
        assert_eq!(counter_value(&c), 1);
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    fn histogram_buckets_cover_domain() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat", "latency", &[]);
        for v in [0.0, 1e-7, 1e-6, 3e-4, 0.5, 17.0, 1e9, f64::NAN] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 8);
        assert_eq!(snap.buckets.iter().sum::<u64>(), 8);
        // 1e9 exceeds every finite bound → overflow bucket.
        assert!(snap.buckets[HISTOGRAM_BUCKETS - 1] >= 1);
        assert!(snap.quantile(0.5).is_some());
    }

    #[test]
    fn snapshot_merge_adds_counters_and_histograms() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.counter("n", "n", &[("w", "0")]).add(2);
        b.counter("n", "n", &[("w", "0")]).add(3);
        b.counter("n", "n", &[("w", "1")]).add(7);
        a.histogram("h", "h", &[]).observe(1.0);
        b.histogram("h", "h", &[]).observe(2.0);
        let mut snap = a.snapshot();
        snap.merge(&b.snapshot());
        assert_eq!(snap.get("n", &[("w", "0")]), Some(&MetricValue::Counter(5)));
        assert_eq!(snap.get("n", &[("w", "1")]), Some(&MetricValue::Counter(7)));
        match snap.get("h", &[]) {
            Some(MetricValue::Histogram(h)) => {
                assert_eq!(h.count, 2);
                assert_eq!(h.sum, 3.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x", "x", &[]);
        reg.gauge("x", "x", &[]);
    }
}
