//! Span tracing: a bounded ring-buffer "flight recorder" capturing
//! begin/end events for the hot phases of a training round, exportable
//! as Chrome Trace Event JSON (load in `chrome://tracing` or Perfetto).
//!
//! The ring is preallocated at construction; recording a span overwrites
//! the oldest slot and never allocates, so the recorder is safe to hand
//! to the codec hot path.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The instrumented phases of a round, end to end: parameter encode,
/// dispatch fan-out, the collect wait, individual worker arrivals,
/// decode-plan solves and cache probes, gradient decode, the optimizer
/// step, and topology re-coding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Encoding parameters / partitions for dispatch.
    Encode,
    /// Broadcasting a round to the workers.
    Dispatch,
    /// Waiting for enough results to decode.
    Collect,
    /// One worker's result reaching the master (instant event).
    Arrival,
    /// Solving a decode plan (dense solve on a cache miss).
    PlanSolve,
    /// Probing the plan cache for a precomputed decode plan.
    CacheProbe,
    /// Applying a decode plan to coded results.
    Decode,
    /// The optimizer step plus loss evaluation.
    Step,
    /// Re-coding the scheme around a changed worker set.
    Recode,
}

impl Phase {
    /// The stable span name used in exports and the README table.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Encode => "encode",
            Phase::Dispatch => "dispatch",
            Phase::Collect => "collect",
            Phase::Arrival => "arrival",
            Phase::PlanSolve => "plan-solve",
            Phase::CacheProbe => "cache-probe",
            Phase::Decode => "decode",
            Phase::Step => "step",
            Phase::Recode => "recode",
        }
    }

    /// Every phase, for iteration in tests and docs.
    pub fn all() -> [Phase; 9] {
        [
            Phase::Encode,
            Phase::Dispatch,
            Phase::Collect,
            Phase::Arrival,
            Phase::PlanSolve,
            Phase::CacheProbe,
            Phase::Decode,
            Phase::Step,
            Phase::Recode,
        ]
    }
}

/// One recorded span (or instant event, when `dur_ns == 0` and the phase
/// is instant-like).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Which phase.
    pub phase: Phase,
    /// Start time in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for instant events).
    pub dur_ns: u64,
    /// Logical track: worker index + 1 for per-worker events, 0 for the
    /// master.
    pub track: u64,
}

#[derive(Debug)]
struct Ring {
    slots: Vec<TraceEvent>,
    head: usize,
    len: usize,
}

#[derive(Debug)]
struct RecorderInner {
    enabled: AtomicBool,
    epoch: Instant,
    ring: Mutex<Ring>,
    recorded: AtomicU64,
}

/// The flight recorder. Clones share the ring, so one recorder can be
/// threaded through the driver, engines, codecs, and the exposition
/// server at once.
#[derive(Debug, Clone)]
pub struct Recorder {
    inner: Arc<RecorderInner>,
}

impl Recorder {
    /// A recorder retaining the most recent `capacity` events.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Recorder {
            inner: Arc::new(RecorderInner {
                enabled: AtomicBool::new(true),
                epoch: Instant::now(),
                ring: Mutex::new(Ring {
                    slots: Vec::with_capacity(capacity),
                    head: 0,
                    len: 0,
                }),
                recorded: AtomicU64::new(0),
            }),
        }
    }

    /// Turns recording on or off (shared across clones).
    pub fn set_enabled(&self, enabled: bool) {
        self.inner.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether spans are currently recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Total events ever recorded (including ones the ring has since
    /// overwritten).
    pub fn recorded(&self) -> u64 {
        self.inner.recorded.load(Ordering::Relaxed)
    }

    /// Opens a span on the master track; it records when the guard
    /// drops.
    pub fn span(&self, phase: Phase) -> SpanGuard<'_> {
        self.span_on(phase, 0)
    }

    /// Opens a span on a worker track (`track = worker + 1`). When the
    /// recorder is disabled the guard is inert — no clock reads at open
    /// or drop, so a dormant recorder costs one atomic load per span.
    fn span_on(&self, phase: Phase, track: u64) -> SpanGuard<'_> {
        SpanGuard {
            recorder: self,
            phase,
            track,
            start: self.is_enabled().then(Instant::now),
        }
    }

    /// Records an instant event (zero duration) on `track`.
    pub fn instant(&self, phase: Phase, track: u64) {
        if !self.is_enabled() {
            return;
        }
        let now = self.inner.epoch.elapsed().as_nanos() as u64;
        self.push(TraceEvent {
            phase,
            start_ns: now,
            dur_ns: 0,
            track,
        });
    }

    /// Records a closed span measured by the caller.
    pub fn record(&self, phase: Phase, start: Instant, end: Instant, track: u64) {
        if !self.is_enabled() {
            return;
        }
        let start_ns = start.saturating_duration_since(self.inner.epoch).as_nanos() as u64;
        let dur_ns = end.saturating_duration_since(start).as_nanos() as u64;
        self.push(TraceEvent {
            phase,
            start_ns,
            dur_ns,
            track,
        });
    }

    fn push(&self, ev: TraceEvent) {
        self.inner.recorded.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.inner.ring.lock().unwrap();
        let cap = ring.slots.capacity();
        if ring.len < cap {
            ring.slots.push(ev);
            ring.len += 1;
        } else {
            let head = ring.head;
            ring.slots[head] = ev;
            ring.head = (head + 1) % cap;
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        let ring = self.inner.ring.lock().unwrap();
        let mut out = Vec::with_capacity(ring.len);
        for i in 0..ring.len {
            out.push(ring.slots[(ring.head + i) % ring.len.max(1)]);
        }
        out
    }

    /// The retained events as Chrome Trace Event JSON (the
    /// `traceEvents` object format): duration events (`"ph":"X"`) for
    /// spans, instant events (`"ph":"i"`) for zero-duration marks.
    /// Timestamps and durations are microseconds, per the format.
    pub fn export_chrome_trace(&self) -> String {
        let events = self.events();
        let mut out = String::with_capacity(64 + events.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, ev) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let ts = ev.start_ns as f64 / 1e3;
            if ev.dur_ns == 0 {
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"cat\":\"hetgc\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{ts:.3},\"pid\":1,\"tid\":{}}}",
                    ev.phase.name(),
                    ev.track
                ));
            } else {
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"cat\":\"hetgc\",\"ph\":\"X\",\"ts\":{ts:.3},\
                     \"dur\":{:.3},\"pid\":1,\"tid\":{}}}",
                    ev.phase.name(),
                    ev.dur_ns as f64 / 1e3,
                    ev.track
                ));
            }
        }
        out.push_str("]}");
        out
    }
}

/// RAII guard recording a span when dropped (inert when the recorder
/// was disabled at open time).
#[derive(Debug)]
pub struct SpanGuard<'a> {
    recorder: &'a Recorder,
    phase: Phase,
    track: u64,
    start: Option<Instant>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.recorder
                .record(self.phase, start, Instant::now(), self.track);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_and_instants_are_retained_in_order() {
        let rec = Recorder::new(16);
        {
            let _g = rec.span(Phase::Dispatch);
        }
        rec.instant(Phase::Arrival, 3);
        {
            let _g = rec.span_on(Phase::Decode, 0);
        }
        let events = rec.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].phase, Phase::Dispatch);
        assert_eq!(events[1].phase, Phase::Arrival);
        assert_eq!(events[1].dur_ns, 0);
        assert_eq!(events[1].track, 3);
        assert_eq!(events[2].phase, Phase::Decode);
        assert!(events[0].start_ns <= events[2].start_ns);
    }

    #[test]
    fn ring_is_bounded_and_keeps_newest() {
        let rec = Recorder::new(4);
        for _ in 0..10 {
            rec.instant(Phase::Arrival, 0);
        }
        rec.instant(Phase::Step, 0);
        assert_eq!(rec.recorded(), 11);
        let events = rec.events();
        assert_eq!(events.len(), 4);
        assert_eq!(events.last().unwrap().phase, Phase::Step);
    }

    #[test]
    fn disabled_recorder_is_silent() {
        let rec = Recorder::new(4);
        rec.set_enabled(false);
        {
            let _g = rec.span(Phase::Encode);
        }
        rec.instant(Phase::Arrival, 0);
        assert!(rec.events().is_empty());
    }

    #[test]
    fn chrome_export_shape() {
        let rec = Recorder::new(8);
        {
            let _g = rec.span(Phase::Collect);
        }
        rec.instant(Phase::Arrival, 2);
        let json = rec.export_chrome_trace();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"name\":\"collect\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
    }
}
