//! A stale-synchronous-parallel (SSP) execution engine.
//!
//! SSP (Ho et al., the paper's [17]) lets each worker run asynchronously as
//! long as the fastest is at most `staleness` iterations ahead of the
//! slowest. The paper's Fig. 4 shows SSP losing to BSP coding schemes on
//! heterogeneous clusters for two reasons it reproduces faithfully here:
//!
//! 1. **Hardware**: with persistent speed skew the fast workers hit the
//!    staleness gate almost every step, so synchronization overhead
//!    approaches naive BSP anyway.
//! 2. **Statistics**: updates are computed on stale parameters and arrive
//!    at unbalanced per-worker frequencies, hurting convergence — modelled
//!    by replaying this engine's schedule through real SGD in `hetgc`'s
//!    trainer, not by an ad-hoc penalty.
//!
//! The engine is pure scheduling: it emits the time-ordered stream of
//! worker update events; the consumer applies actual gradients.

use crate::error::SimError;
use crate::queue::EventQueue;

/// One asynchronous worker update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SspEvent {
    /// Simulation time at which the worker's update reaches the master.
    pub time: f64,
    /// The worker.
    pub worker: usize,
    /// The worker's local iteration number, starting at 1.
    pub(crate) iteration: usize,
}

/// The SSP scheduler.
///
/// # Example
///
/// ```
/// use hetgc_sim::SspEngine;
///
/// # fn main() -> Result<(), hetgc_sim::SimError> {
/// // Worker 0 is 4× faster; staleness bound 2.
/// let mut ssp = SspEngine::new(vec![0.25, 1.0], 2)?;
/// let mut fast_updates = 0;
/// while let Some(ev) = ssp.next_event() {
///     if ev.time > 4.0 { break; }
///     if ev.worker == 0 { fast_updates += 1; }
/// }
/// // Gated: far fewer than the ungated 16 updates in 4 seconds.
/// assert!(fast_updates <= 12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SspEngine {
    iter_times: Vec<f64>,
    staleness: usize,
    completed: Vec<usize>,
    /// Workers currently blocked by the staleness gate.
    blocked: Vec<bool>,
    queue: EventQueue<usize>,
    now: f64,
}

impl SspEngine {
    /// Creates an engine where worker `w` needs `iter_times[w]` seconds per
    /// local iteration, under the given staleness bound (0 = BSP lockstep
    /// within one iteration skew).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] if `iter_times` is empty or contains a
    /// non-positive/non-finite time.
    pub fn new(iter_times: Vec<f64>, staleness: usize) -> Result<Self, SimError> {
        if iter_times.is_empty() {
            return Err(SimError::InvalidConfig {
                reason: "no workers".into(),
            });
        }
        if iter_times.iter().any(|&t| !(t.is_finite() && t > 0.0)) {
            return Err(SimError::InvalidConfig {
                reason: "iteration times must be positive and finite".into(),
            });
        }
        let m = iter_times.len();
        let mut queue = EventQueue::new();
        for (w, &t) in iter_times.iter().enumerate() {
            queue.push(t, w);
        }
        Ok(SspEngine {
            iter_times,
            staleness,
            completed: vec![0; m],
            blocked: vec![false; m],
            queue,
            now: 0.0,
        })
    }

    /// Number of workers.
    pub(crate) fn workers(&self) -> usize {
        self.iter_times.len()
    }

    /// Completed iteration counts per worker.
    pub fn progress(&self) -> &[usize] {
        &self.completed
    }

    /// Advances the simulation to the next worker-update event.
    ///
    /// Returns `None` only if every worker is blocked — impossible under
    /// this gate (the slowest worker is never blocked), so in practice the
    /// stream is infinite and the caller decides when to stop.
    pub fn next_event(&mut self) -> Option<SspEvent> {
        let (time, worker) = self.queue.pop()?;
        self.now = time;
        self.completed[worker] += 1;
        let event = SspEvent {
            time,
            worker,
            iteration: self.completed[worker],
        };

        // Can this worker start its next iteration, or is it gated?
        let min_completed = *self.completed.iter().min().expect("non-empty");
        if self.completed[worker] < min_completed + self.staleness + 1 {
            self.queue.push(time + self.iter_times[worker], worker);
        } else {
            self.blocked[worker] = true;
        }
        // The event may have raised min_completed: release gated workers.
        let min_completed = *self.completed.iter().min().expect("non-empty");
        for w in 0..self.workers() {
            if self.blocked[w] && self.completed[w] < min_completed + self.staleness + 1 {
                self.blocked[w] = false;
                self.queue.push(self.now + self.iter_times[w], w);
            }
        }
        Some(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `ssp` until `horizon` seconds, collecting events.
    fn run_until(ssp: &mut SspEngine, horizon: f64) -> Vec<SspEvent> {
        let mut events = Vec::new();
        // A copy of the engine peeks at the next event without taking it.
        while ssp
            .clone()
            .next_event()
            .is_some_and(|ev| ev.time <= horizon)
        {
            events.push(ssp.next_event().expect("the copy saw one"));
        }
        events
    }

    #[test]
    fn homogeneous_round_robin() {
        let mut ssp = SspEngine::new(vec![1.0, 1.0, 1.0], 1).unwrap();
        let events = run_until(&mut ssp, 3.5);
        // Every worker completes 3 iterations by t=3.
        assert_eq!(events.len(), 9);
        assert_eq!(ssp.progress(), &[3, 3, 3]);
    }

    #[test]
    fn staleness_gates_fast_worker() {
        // Worker 0: 0.1 s/iter; worker 1: 1.0 s/iter; staleness 2.
        let mut ssp = SspEngine::new(vec![0.1, 1.0], 2).unwrap();
        let events = run_until(&mut ssp, 10.0);
        let fast: Vec<&SspEvent> = events.iter().filter(|e| e.worker == 0).collect();
        let slow: Vec<&SspEvent> = events.iter().filter(|e| e.worker == 1).collect();
        // Gate: fast can be at most 3 iterations ahead at any event.
        for ev in &events {
            let min = ssp.progress().iter().min().unwrap();
            let _ = min;
            assert!(ev.iteration <= slow.len() + 3 + 1, "runaway fast worker");
        }
        // Fast is throttled to ~1 iteration per slow iteration + slack.
        assert!(
            fast.len() <= slow.len() + 3,
            "fast {} slow {}",
            fast.len(),
            slow.len()
        );
    }

    #[test]
    fn staleness_zero_is_lockstep() {
        let mut ssp = SspEngine::new(vec![0.5, 2.0], 0).unwrap();
        let events = run_until(&mut ssp, 8.0);
        // With staleness 0 nobody may be more than 1 iteration ahead.
        let mut c = [0usize; 2];
        for ev in events {
            c[ev.worker] += 1;
            let diff = c[0].abs_diff(c[1]);
            assert!(diff <= 1, "lockstep violated: {c:?}");
        }
    }

    #[test]
    fn invariant_gap_never_exceeds_staleness_plus_one() {
        for staleness in [0usize, 1, 3] {
            let mut ssp = SspEngine::new(vec![0.2, 0.5, 1.7], staleness).unwrap();
            for _ in 0..200 {
                ssp.next_event().unwrap();
                let max = ssp.progress().iter().max().unwrap();
                let min = ssp.progress().iter().min().unwrap();
                assert!(
                    max - min <= staleness + 1,
                    "gap {} > staleness+1 {}",
                    max - min,
                    staleness + 1
                );
            }
        }
    }

    #[test]
    fn events_in_time_order() {
        let mut ssp = SspEngine::new(vec![0.3, 0.7, 1.1], 2).unwrap();
        let events = run_until(&mut ssp, 20.0);
        for pair in events.windows(2) {
            assert!(pair[0].time <= pair[1].time);
        }
        assert!(!events.is_empty());
    }

    #[test]
    fn iteration_numbers_increment() {
        let mut ssp = SspEngine::new(vec![1.0], 5).unwrap();
        for expect in 1..=5 {
            let ev = ssp.next_event().unwrap();
            assert_eq!(ev.iteration, expect);
            assert_eq!(ev.worker, 0);
        }
    }

    #[test]
    fn rejects_bad_config() {
        assert!(SspEngine::new(vec![], 1).is_err());
        assert!(SspEngine::new(vec![0.0], 1).is_err());
        assert!(SspEngine::new(vec![f64::INFINITY], 1).is_err());
    }

    #[test]
    fn accessors() {
        let ssp = SspEngine::new(vec![1.0, 2.0], 4).unwrap();
        assert_eq!(ssp.workers(), 2);
        assert_eq!(ssp.staleness, 4);
        assert_eq!(ssp.progress(), &[0, 0]);
    }

    #[test]
    fn heterogeneous_throughput_ratio_respected() {
        // Without gating (huge staleness) the event counts reflect speeds.
        let mut ssp = SspEngine::new(vec![0.25, 1.0], 1000).unwrap();
        let events = run_until(&mut ssp, 100.0);
        let fast = events.iter().filter(|e| e.worker == 0).count();
        let slow = events.iter().filter(|e| e.worker == 1).count();
        assert_eq!(slow, 100);
        assert_eq!(fast, 400);
    }
}
