//! [`TimedEngine`]: the benchmark's measuring wrapper around any
//! [`RoundEngine`]. It timestamps every `round()` / `after_step()` call
//! (and `dispatch()` / `collect()` on a pipelined engine), ends the run
//! once the measuring window has elapsed, and counts failed rounds — all
//! from outside the program, through its public engine traits.

use std::time::{Duration, Instant};

use hetgc_suite::hetgc::{EngineRound, PipelinedEngine, RoundEngine};
use hetgc_suite::obs::Recorder;
use rand::RngCore;

type BoxError = Box<dyn std::error::Error + Send + Sync>;

/// Peak memory is read once this many rounds have been measured, not at
/// the end of the run: every round appends a `RoundRecord`, so the peak
/// of a time-limited run would grow with its speed and carry the speed's
/// run-to-run noise.
pub const RSS_MARK_ROUNDS: usize = 1000;

/// `VmHWM` of this process in MB: its peak resident set so far.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse::<f64>()
        .ok()?;
    Some(kb / 1024.0)
}

/// When a timed run stops.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Rounds discarded before the measuring window opens.
    pub warmup: usize,
    /// Length of the measuring window, counted from the end of warm-up.
    pub measure: Duration,
    /// Keep going past the end of the window until this many rounds have
    /// completed: whether the run reaches its loss target must not depend
    /// on how fast the machine happened to be.
    pub min_rounds: usize,
    /// Stop early once this many rounds have completed (the traced pass
    /// bounds its in-memory event ring this way).
    pub max_rounds: usize,
}

/// Wall-clock stamps of one timed run. Index `i` is round `i + 1`.
#[derive(Debug, Default)]
pub struct Stamps {
    /// Entry of each `round()` (sequential) or `collect()` (pipelined).
    pub starts: Vec<Instant>,
    /// Return of that call.
    pub ends: Vec<Instant>,
    /// The `after_step()` call following each round, when one happened.
    pub stepped: Vec<Instant>,
    /// `dispatch()` calls of a pipelined run, as `(entry, return)`.
    pub dispatches: Vec<(Instant, Instant)>,
    /// Rounds the engine reported as failed.
    pub failed: usize,
    /// Rounds discarded as warm-up.
    pub warmup: usize,
    /// [`peak_rss_mb`] when the [`RSS_MARK_ROUNDS`]-th measured round
    /// completed (`None` on a shorter run).
    pub rss_mb_at_mark: Option<f64>,
}

impl Stamps {
    /// Seconds from the first measured round's start to each later
    /// measured round's start — the samples every round-time metric is
    /// computed from.
    pub fn measured_starts(&self) -> Vec<f64> {
        let Some(first) = self.starts.get(self.warmup) else {
            return Vec::new();
        };
        self.starts[self.warmup..]
            .iter()
            .map(|t| t.duration_since(*first).as_secs_f64())
            .collect()
    }

    /// Wall time between successive measured round starts, milliseconds.
    pub fn round_ms(&self) -> Vec<f64> {
        self.measured_starts()
            .windows(2)
            .map(|w| (w[1] - w[0]) * 1e3)
            .collect()
    }

    /// Time inside the engine call per measured round, milliseconds.
    pub fn engine_ms(&self) -> Vec<f64> {
        (self.warmup..self.ends.len())
            .map(|i| self.ends[i].duration_since(self.starts[i]).as_secs_f64() * 1e3)
            .collect()
    }

    /// Time between an engine call returning and the next one starting
    /// (optimizer step, loss evaluation, record keeping), milliseconds.
    pub fn driver_gap_ms(&self) -> Vec<f64> {
        (self.warmup..self.ends.len().min(self.starts.len().saturating_sub(1)))
            .map(|i| {
                self.starts[i + 1]
                    .duration_since(self.ends[i])
                    .as_secs_f64()
                    * 1e3
            })
            .collect()
    }

    /// Seconds from round 1's start until round `round` (1-based) and the
    /// driver work after it were done: the start of the next round, or the
    /// end of the last one.
    pub fn seconds_until_done(&self, round: usize) -> Option<f64> {
        let first = *self.starts.first()?;
        let done = self
            .starts
            .get(round)
            .or_else(|| self.ends.get(round - 1))?;
        Some(done.duration_since(first).as_secs_f64())
    }
}

/// A [`RoundEngine`] that measures the engine it wraps.
#[derive(Debug)]
pub struct TimedEngine<E> {
    inner: E,
    window: Window,
    deadline: Option<Instant>,
    stamps: Stamps,
}

impl<E: RoundEngine> TimedEngine<E> {
    pub fn new(inner: E, window: Window) -> Self {
        TimedEngine {
            inner,
            window,
            deadline: None,
            stamps: Stamps {
                warmup: window.warmup,
                ..Stamps::default()
            },
        }
    }

    /// Ends the measurement: the stamps, and the engine for inspection.
    pub fn finish(self) -> (E, Stamps) {
        (self.inner, self.stamps)
    }

    /// Books one completed engine call and decides whether it was the
    /// last.
    fn close_round(&mut self, start: Instant, er: &mut EngineRound) {
        let end = Instant::now();
        self.stamps.starts.push(start);
        self.stamps.ends.push(end);
        if er.elapsed.is_none() {
            self.stamps.failed += 1;
        }
        let done = self.stamps.ends.len();
        if done == self.window.warmup.max(1) {
            self.deadline = Some(end + self.window.measure);
        }
        if done == self.window.warmup + RSS_MARK_ROUNDS {
            self.stamps.rss_mb_at_mark = peak_rss_mb();
        }
        let window_over = self.deadline.is_some_and(|d| end >= d);
        if (window_over && done >= self.window.min_rounds) || done >= self.window.max_rounds {
            er.stop = true;
        }
    }
}

impl<E: RoundEngine> RoundEngine for TimedEngine<E> {
    fn workers(&self) -> usize {
        self.inner.workers()
    }

    fn partitions(&self) -> usize {
        self.inner.partitions()
    }

    fn label(&self) -> &str {
        self.inner.label()
    }

    fn round(
        &mut self,
        round: usize,
        params: &[f64],
        rng: &mut dyn RngCore,
    ) -> Result<EngineRound, BoxError> {
        let start = Instant::now();
        let mut er = self.inner.round(round, params, rng)?;
        self.close_round(start, &mut er);
        Ok(er)
    }

    fn after_step(&mut self, params: &[f64]) {
        self.inner.after_step(params);
        self.stamps.stepped.push(Instant::now());
    }

    fn attach_recorder(&mut self, recorder: Recorder) {
        self.inner.attach_recorder(recorder);
    }

    fn set_deadline(&mut self, deadline: f64) {
        self.inner.set_deadline(deadline);
    }

    fn supports_recode(&self) -> bool {
        self.inner.supports_recode()
    }

    fn recode(&mut self, estimates: &[f64], rng: &mut dyn RngCore) -> Result<bool, BoxError> {
        self.inner.recode(estimates, rng)
    }

    fn initial_estimates(&self) -> Option<Vec<f64>> {
        self.inner.initial_estimates()
    }

    fn worker_loads(&self) -> Option<Vec<usize>> {
        self.inner.worker_loads()
    }
}

impl<E: PipelinedEngine> PipelinedEngine for TimedEngine<E> {
    fn dispatch(&mut self, round: usize, params: &[f64]) -> Result<(), BoxError> {
        let start = Instant::now();
        self.inner.dispatch(round, params)?;
        self.stamps.dispatches.push((start, Instant::now()));
        Ok(())
    }

    fn collect(&mut self, round: usize) -> Result<EngineRound, BoxError> {
        let start = Instant::now();
        let mut er = self.inner.collect(round)?;
        self.close_round(start, &mut er);
        Ok(er)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An engine whose rounds take a fixed sleep; round 3 fails.
    struct Sleepy;

    impl RoundEngine for Sleepy {
        fn workers(&self) -> usize {
            1
        }
        fn partitions(&self) -> usize {
            1
        }
        fn label(&self) -> &str {
            "sleepy"
        }
        fn round(
            &mut self,
            round: usize,
            _params: &[f64],
            _rng: &mut dyn RngCore,
        ) -> Result<EngineRound, BoxError> {
            std::thread::sleep(Duration::from_millis(1));
            let mut er = EngineRound::failed(false);
            if round != 3 {
                er.elapsed = Some(1e-3);
            }
            Ok(er)
        }
    }

    #[test]
    fn stops_after_the_window_and_counts_failures() {
        let window = Window {
            warmup: 2,
            measure: Duration::from_millis(20),
            min_rounds: 0,
            max_rounds: usize::MAX,
        };
        let mut engine = TimedEngine::new(Sleepy, window);
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let mut rounds = 0;
        loop {
            rounds += 1;
            let er = engine.round(rounds, &[], &mut rng).unwrap();
            if er.stop {
                break;
            }
            assert!(rounds < 1000, "the window never closed");
        }
        let (_, stamps) = engine.finish();
        assert_eq!(stamps.starts.len(), rounds);
        assert_eq!(stamps.failed, 1);
        // Warm-up is excluded from the samples; n starts give n − 1 gaps.
        assert_eq!(stamps.round_ms().len(), rounds - 2 - 1);
        assert!(stamps.round_ms().iter().all(|&ms| ms >= 1.0));
        let total = stamps.seconds_until_done(rounds).unwrap();
        assert!(total >= 0.020, "{total}");
        assert!(stamps.seconds_until_done(rounds + 1).is_none());
    }

    #[test]
    fn min_rounds_outlasts_the_window() {
        let window = Window {
            warmup: 1,
            measure: Duration::ZERO,
            min_rounds: 4,
            max_rounds: usize::MAX,
        };
        let mut engine = TimedEngine::new(Sleepy, window);
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let stops: Vec<bool> = (1..=4)
            .map(|r| engine.round(r, &[], &mut rng).unwrap().stop)
            .collect();
        assert_eq!(stops, [false, false, false, true]);
    }

    #[test]
    fn max_rounds_bounds_the_run() {
        let window = Window {
            warmup: 1,
            measure: Duration::from_secs(60),
            min_rounds: 0,
            max_rounds: 5,
        };
        let mut engine = TimedEngine::new(Sleepy, window);
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let stops: Vec<bool> = (1..=5)
            .map(|r| engine.round(r, &[], &mut rng).unwrap().stop)
            .collect();
        assert_eq!(stops, [false, false, false, false, true]);
    }
}
