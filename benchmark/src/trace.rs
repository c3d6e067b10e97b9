//! The traced pass's bookkeeping: where the round wall time went
//! according to the program's own `Recorder` spans (self time = a span
//! minus its children), and the Chrome trace file that puts those spans
//! next to the benchmark's own (`TimedEngine`'s stamps).

use std::fmt::Write;
use std::path::Path;
use std::time::Instant;

use hetgc_suite::obs::{Phase, Recorder, TraceEvent};

use crate::stats;
use crate::timed::Stamps;

/// Events the traced pass keeps in memory; it ends the pass before the
/// ring would wrap.
pub const RING_CAPACITY: usize = 1 << 20;

/// The track the benchmark's clock-alignment marker is recorded on.
const MARKER_TRACK: u64 = u64::MAX;
/// The Chrome-trace thread the benchmark's own spans are drawn on.
const BENCH_TID: u64 = 1000;

/// A `Recorder` whose clock can be related to `Instant`s: the recorder's
/// epoch is private, so a marker span at a known instant pins it.
#[derive(Debug)]
pub struct AlignedRecorder {
    pub recorder: Recorder,
    marker: Instant,
}

impl AlignedRecorder {
    pub fn new() -> Self {
        let recorder = Recorder::new(RING_CAPACITY);
        let marker = Instant::now();
        recorder.record(Phase::Recode, marker, marker, MARKER_TRACK);
        AlignedRecorder { recorder, marker }
    }

    /// The retained program events (marker removed) and a function from
    /// `Instant` to the recorder's nanosecond clock.
    pub fn events(&self) -> (Vec<TraceEvent>, impl Fn(Instant) -> u64 + '_) {
        let mut events = self.recorder.events();
        let marker_ns = events
            .iter()
            .find(|e| e.track == MARKER_TRACK)
            .map_or(0, |e| e.start_ns);
        events.retain(|e| e.track != MARKER_TRACK);
        let to_ns = move |t: Instant| {
            marker_ns + t.saturating_duration_since(self.marker).as_nanos() as u64
        };
        (events, to_ns)
    }
}

/// Statistics of one phase over the traced window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseStats {
    /// Self time of the phase's spans as a share of the window.
    pub share: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Breakdown {
    /// Indexed like `Phase::all()`.
    pub phases: [PhaseStats; 9],
    /// Share of the window covered by no program span.
    pub unattributed_share: f64,
    /// Program events (spans and instants) inside the window.
    pub events: usize,
}

/// Attributes the window `[from_ns, to_ns]` to the master-track spans in
/// `events`. Spans nest (a collect span contains plan-solve spans), so a
/// phase is charged its spans' self time only.
pub fn breakdown(events: &[TraceEvent], from_ns: u64, to_ns: u64) -> Breakdown {
    let inside: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.start_ns >= from_ns && e.start_ns + e.dur_ns <= to_ns)
        .collect();
    let mut spans: Vec<&TraceEvent> = inside
        .iter()
        .copied()
        .filter(|e| e.track == 0 && e.dur_ns > 0)
        .collect();
    // Parents before their children: earlier start first, longer first.
    spans.sort_by_key(|e| (e.start_ns, std::cmp::Reverse(e.dur_ns)));
    let mut self_ns: Vec<u64> = spans.iter().map(|e| e.dur_ns).collect();
    let mut open: Vec<usize> = Vec::new();
    for (i, span) in spans.iter().enumerate() {
        while open
            .last()
            .is_some_and(|&p| spans[p].start_ns + spans[p].dur_ns <= span.start_ns)
        {
            open.pop();
        }
        if let Some(&parent) = open.last() {
            let parent_end = spans[parent].start_ns + spans[parent].dur_ns;
            let covered = (span.start_ns + span.dur_ns).min(parent_end) - span.start_ns;
            self_ns[parent] = self_ns[parent].saturating_sub(covered);
        }
        open.push(i);
    }

    let window = to_ns.saturating_sub(from_ns).max(1) as f64;
    let mut phases = [PhaseStats::default(); 9];
    let mut attributed = 0u64;
    for (slot, phase) in phases.iter_mut().zip(Phase::all()) {
        let own: u64 = spans
            .iter()
            .zip(&self_ns)
            .filter(|(e, _)| e.phase == phase)
            .map(|(_, ns)| ns)
            .sum();
        attributed += own;
        let durations: Vec<f64> = inside
            .iter()
            .filter(|e| e.phase == phase && e.dur_ns > 0)
            .map(|e| e.dur_ns as f64 / 1e3)
            .collect();
        let sorted = stats::sorted(&durations);
        *slot = PhaseStats {
            share: own as f64 / window,
            p50_us: stats::quantile_sorted(&sorted, 0.5),
            p99_us: stats::quantile_sorted(&sorted, 0.99),
        };
    }
    Breakdown {
        phases,
        unattributed_share: (1.0 - attributed as f64 / window).max(0.0),
        events: inside.len(),
    }
}

/// A span the benchmark measured itself: name, start, end.
pub type BenchSpan = (&'static str, Instant, Instant);

/// The benchmark's view of a timed run as spans: each engine call, and
/// the driver's work between calls split at `after_step()` into the
/// optimizer step and the evaluation + record keeping after it.
pub fn timed_spans(stamps: &Stamps) -> Vec<BenchSpan> {
    let mut spans = Vec::with_capacity(3 * stamps.starts.len() + stamps.dispatches.len());
    for (i, (&start, &end)) in stamps.starts.iter().zip(&stamps.ends).enumerate() {
        spans.push(("bench.engine_round", start, end));
        match (stamps.stepped.get(i), stamps.starts.get(i + 1)) {
            (Some(&stepped), Some(&next)) if stepped >= end && stepped <= next => {
                spans.push(("bench.step", end, stepped));
                spans.push(("bench.eval_record", stepped, next));
            }
            (_, Some(&next)) => spans.push(("bench.driver_gap", end, next)),
            _ => {}
        }
    }
    spans.extend(
        stamps
            .dispatches
            .iter()
            .map(|&(from, to)| ("bench.dispatch", from, to)),
    );
    spans
}

/// Writes a Chrome Trace Event file (`chrome://tracing`, Perfetto): the
/// program's spans and instants on their own tracks (tid 0 = master,
/// tid w+1 = worker w), the benchmark's on tid 1000.
pub fn write_chrome_trace(
    path: &Path,
    events: &[TraceEvent],
    bench_spans: &[BenchSpan],
    to_ns: impl Fn(Instant) -> u64,
) -> std::io::Result<()> {
    let mut out = String::with_capacity(128 + 100 * (events.len() + bench_spans.len()));
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let _ = write!(
        out,
        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{BENCH_TID},\
         \"args\":{{\"name\":\"benchmark (TimedEngine)\"}}}}"
    );
    for e in events {
        let ts = e.start_ns as f64 / 1e3;
        if e.dur_ns == 0 {
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"cat\":\"hetgc\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts:.3},\
                 \"pid\":1,\"tid\":{}}}",
                e.phase.name(),
                e.track
            );
        } else {
            span(
                &mut out,
                e.phase.name(),
                "hetgc",
                e.start_ns,
                e.dur_ns,
                e.track,
            );
        }
    }
    for &(name, from, to) in bench_spans {
        let (from, to) = (to_ns(from), to_ns(to));
        if to > from {
            span(&mut out, name, "bench", from, to - from, BENCH_TID);
        }
    }
    out.push_str("]}");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

fn span(out: &mut String, name: &str, cat: &str, start_ns: u64, dur_ns: u64, tid: u64) {
    let _ = write!(
        out,
        ",{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
         \"pid\":1,\"tid\":{tid}}}",
        start_ns as f64 / 1e3,
        dur_ns as f64 / 1e3
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    fn ev(phase: Phase, start_ns: u64, dur_ns: u64, track: u64) -> TraceEvent {
        TraceEvent {
            phase,
            start_ns,
            dur_ns,
            track,
        }
    }

    fn stats_of(b: &Breakdown, phase: Phase) -> PhaseStats {
        b.phases[Phase::all().iter().position(|p| *p == phase).unwrap()]
    }

    #[test]
    fn self_time_is_a_span_minus_its_children() {
        let events = [
            // A 600 ns collect containing two plan solves of 100 ns each.
            ev(Phase::Collect, 100, 600, 0),
            ev(Phase::PlanSolve, 200, 100, 0),
            ev(Phase::PlanSolve, 400, 100, 0),
            ev(Phase::Decode, 700, 200, 0),
            // Instants and worker-track events carry no master time.
            ev(Phase::Arrival, 300, 0, 3),
            ev(Phase::Encode, 100, 500, 2),
            // Outside the window: ignored.
            ev(Phase::Step, 2000, 50, 0),
        ];
        let b = breakdown(&events, 0, 1000);
        assert!((stats_of(&b, Phase::Collect).share - 0.4).abs() < 1e-12);
        assert!((stats_of(&b, Phase::PlanSolve).share - 0.2).abs() < 1e-12);
        assert!((stats_of(&b, Phase::Decode).share - 0.2).abs() < 1e-12);
        assert_eq!(stats_of(&b, Phase::Step).share, 0.0);
        assert!((b.unattributed_share - 0.2).abs() < 1e-12);
        assert_eq!(b.events, 6);
        assert_eq!(stats_of(&b, Phase::PlanSolve).p50_us, 0.1);
        assert_eq!(stats_of(&b, Phase::Arrival), PhaseStats::default());
    }

    #[test]
    fn recorder_clock_is_aligned_through_the_marker() {
        let aligned = AlignedRecorder::new();
        let t0 = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let t1 = Instant::now();
        aligned.recorder.record(Phase::Decode, t0, t1, 0);
        let (events, to_ns) = aligned.events();
        assert_eq!(events.len(), 1, "the marker is not a program event");
        assert_eq!(events[0].start_ns, to_ns(t0));
        assert_eq!(events[0].start_ns + events[0].dur_ns, to_ns(t1));
    }

    #[test]
    fn chrome_trace_is_loadable_json() {
        let aligned = AlignedRecorder::new();
        let t0 = Instant::now();
        let t1 = t0 + std::time::Duration::from_micros(300);
        let t2 = t0 + std::time::Duration::from_micros(400);
        let t3 = t0 + std::time::Duration::from_micros(500);
        aligned.recorder.record(Phase::Collect, t0, t1, 0);
        aligned.recorder.instant(Phase::Arrival, 2);
        let stamps = Stamps {
            starts: vec![t0, t3],
            ends: vec![t1, t3],
            stepped: vec![t2],
            ..Stamps::default()
        };
        let path = std::path::PathBuf::from(format!(
            "{}/out/test-trace-{}.json",
            env!("CARGO_MANIFEST_DIR"),
            std::process::id()
        ));
        let (events, to_ns) = aligned.events();
        write_chrome_trace(&path, &events, &timed_spans(&stamps), to_ns).unwrap();
        let doc = Value::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        let names: Vec<&str> = doc
            .get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|e| e.get("name").unwrap().as_str().unwrap())
            .collect();
        for expected in [
            "collect",
            "arrival",
            "bench.engine_round",
            "bench.step",
            "bench.eval_record",
        ] {
            assert!(
                names.contains(&expected),
                "{expected} missing from {names:?}"
            );
        }
    }
}
