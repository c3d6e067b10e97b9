//! Runtime configuration: per-worker behaviour injection and codec
//! backend selection.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hetgc_coding::{CodecBackend, EscalationPolicy, SharedPlanCache};

/// Behaviour of one worker, used to emulate heterogeneity and stragglers on
/// real threads.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerBehavior {
    /// Extra sleep added to every iteration (transient straggler
    /// emulation; the Fig. 2 delay knob).
    pub extra_delay: Duration,
    /// Target throughput in samples/second. When set, the worker sleeps
    /// after computing so its iteration takes at least
    /// `samples / rate` seconds — turning a fast local thread into a slow
    /// "2-vCPU VM". `None` runs at native speed.
    pub throttle_samples_per_sec: Option<f64>,
    /// A mid-run throughput *step change*: from iteration `at` (1-based)
    /// on, the throttle becomes `rate` samples/second — the real-thread
    /// analogue of `hetgc_sim::RateDrift::StepChange` (a co-tenant
    /// landing on the VM partway through training).
    pub throttle_step: Option<(usize, f64)>,
    /// Fail-stop: from this iteration on (1-based), the worker stops
    /// responding entirely — the paper's fault case.
    pub fail_from_iteration: Option<usize>,
}

impl WorkerBehavior {
    /// Nominal behaviour: no delay, native speed, never fails.
    pub fn nominal() -> Self {
        WorkerBehavior::default()
    }

    /// Adds a fixed per-iteration delay.
    pub fn with_delay(mut self, delay: Duration) -> Self {
        self.extra_delay = delay;
        self
    }

    /// Throttles to the given samples/second.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not positive and finite.
    pub fn with_throttle(mut self, rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "throttle rate must be positive"
        );
        self.throttle_samples_per_sec = Some(rate);
        self
    }

    /// Makes the worker fail from iteration `iter` (1-based) onward.
    pub fn failing_from(mut self, iter: usize) -> Self {
        self.fail_from_iteration = Some(iter);
        self
    }

    /// Changes the throttle to `rate` samples/second from iteration
    /// `at` (1-based) onward — drifting-cluster emulation on real
    /// threads.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not positive and finite.
    pub fn with_throttle_step(mut self, at: usize, rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "throttle rate must be positive"
        );
        self.throttle_step = Some((at, rate));
        self
    }

    /// Checks what the builders assert, for a behaviour built through
    /// its public fields or received off the wire: every throttle rate
    /// is positive and finite, and `Instant` can add the extra delay.
    ///
    /// # Errors
    ///
    /// A human-readable reason naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        let rates = [
            ("throttle", self.throttle_samples_per_sec),
            ("throttle step", self.throttle_step.map(|(_, rate)| rate)),
        ];
        for (what, rate) in rates {
            if let Some(rate) = rate.filter(|r| !(r.is_finite() && *r > 0.0)) {
                return Err(format!("{what} rate {rate} is not positive and finite"));
            }
        }
        if Instant::now().checked_add(self.extra_delay).is_none() {
            return Err(format!(
                "extra delay {:?} overflows the clock",
                self.extra_delay
            ));
        }
        Ok(())
    }

    /// Whether the worker responds at iteration `iter` (1-based).
    pub fn responds_at(&self, iter: usize) -> bool {
        self.fail_from_iteration.is_none_or(|f| iter < f)
    }

    /// The throttle in force at iteration `iter` (1-based): the stepped
    /// rate once `throttle_step` has kicked in, the base throttle before.
    pub fn throttle_at(&self, iter: usize) -> Option<f64> {
        match self.throttle_step {
            Some((at, rate)) if iter >= at => Some(rate),
            _ => self.throttle_samples_per_sec,
        }
    }
}

/// Whole-runtime configuration.
#[derive(Debug, Clone, Default)]
pub struct RuntimeConfig {
    /// Per-worker behaviours. Missing entries default to
    /// [`WorkerBehavior::nominal`].
    pub behaviors: Vec<WorkerBehavior>,
    /// Which stages the master's compiled codec has on
    /// ([`CodecBackend::compile`], groups derived from the matrix).
    ///
    /// * [`CodecBackend::Exact`] — none: the generic compiled codec.
    /// * [`CodecBackend::Group`] — the intact-group stage; the groups are
    ///   derived from the matrix's support structure (Alg. 2 + pruning),
    ///   so an intact group completes an iteration without waiting for
    ///   `m−s` results. With no valid group it answers like `Exact`.
    /// * [`CodecBackend::Auto`] — the same, except that a matrix whose
    ///   groups cannot be derived degrades to `Exact` instead of failing.
    /// * [`CodecBackend::Approx`] — the approximate stage: when an
    ///   iteration times out (or every worker disconnects) the master
    ///   decodes *approximately* from whatever arrived (bounded-error
    ///   least squares) instead of failing, surviving `>s` lost workers.
    ///   It is the only backend whose rounds escalate. With no deadline
    ///   on [`RuntimeConfig::escalation`] and at least one live (but
    ///   straggling) worker, the master keeps waiting and the fallback
    ///   never triggers.
    pub backend: CodecBackend,
    /// Per-round escalation policy. The default waits for every reachable
    /// worker (safe only when at most `s` workers can be missing) and
    /// keeps the backend's residual budget. Set a deadline
    /// ([`EscalationPolicy::with_deadline`]: how long the master waits for
    /// results before escalating, or — without the approximate stage —
    /// declaring the round undecodable), or replace the approximate
    /// stage's budget ([`EscalationPolicy::with_max_residual`]).
    pub escalation: EscalationPolicy,
    /// A fleet-wide decode-plan cache to attach to the compiled codec —
    /// set by multi-job schedulers so tenants running the *same* scheme
    /// share dense solves (one solve per distinct survivor set across the
    /// fleet, singleflighted). `None` (the default) keeps each cluster's
    /// plan cache private.
    pub shared_plans: Option<Arc<SharedPlanCache>>,
}

// Manual because `SharedPlanCache` carries live counters and locks:
// two configs are "equal" when they point at the *same* shared cache
// (or both at none), not when the caches' contents coincide.
impl PartialEq for RuntimeConfig {
    fn eq(&self, other: &Self) -> bool {
        self.behaviors == other.behaviors
            && self.backend == other.backend
            && self.escalation == other.escalation
            && match (&self.shared_plans, &other.shared_plans) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            }
    }
}

impl RuntimeConfig {
    /// All-nominal configuration.
    pub fn nominal(workers: usize) -> Self {
        RuntimeConfig {
            behaviors: vec![WorkerBehavior::nominal(); workers],
            backend: CodecBackend::Auto,
            escalation: EscalationPolicy::default(),
            shared_plans: None,
        }
    }

    /// The behaviour of worker `w` (nominal when unspecified).
    pub fn behavior_of(&self, w: usize) -> WorkerBehavior {
        self.behaviors.get(w).cloned().unwrap_or_default()
    }

    /// Sets the behaviour of a single worker, growing the table as needed.
    pub fn set_behavior(mut self, worker: usize, behavior: WorkerBehavior) -> Self {
        if self.behaviors.len() <= worker {
            self.behaviors.resize(worker + 1, WorkerBehavior::nominal());
        }
        self.behaviors[worker] = behavior;
        self
    }

    /// Sets the codec backend the master decodes with.
    pub fn with_backend(mut self, backend: CodecBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the per-round escalation policy (see
    /// [`RuntimeConfig::escalation`]).
    pub fn with_escalation(mut self, policy: EscalationPolicy) -> Self {
        self.escalation = policy;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_defaults() {
        let b = WorkerBehavior::nominal();
        assert_eq!(b.extra_delay, Duration::ZERO);
        assert!(b.throttle_samples_per_sec.is_none());
        assert!(b.responds_at(1_000_000));
    }

    #[test]
    fn builder_chain() {
        let b = WorkerBehavior::nominal()
            .with_delay(Duration::from_millis(5))
            .with_throttle(100.0)
            .failing_from(3);
        assert_eq!(b.extra_delay, Duration::from_millis(5));
        assert_eq!(b.throttle_samples_per_sec, Some(100.0));
        assert!(b.responds_at(2));
        assert!(!b.responds_at(3));
        assert!(!b.responds_at(4));
    }

    #[test]
    fn throttle_step_switches_at_iteration() {
        let b = WorkerBehavior::nominal()
            .with_throttle(100.0)
            .with_throttle_step(5, 25.0);
        assert_eq!(b.throttle_at(4), Some(100.0));
        assert_eq!(b.throttle_at(5), Some(25.0));
        assert_eq!(b.throttle_at(50), Some(25.0));
        // Without a step the base throttle holds forever.
        let plain = WorkerBehavior::nominal().with_throttle(10.0);
        assert_eq!(plain.throttle_at(1_000), Some(10.0));
        assert_eq!(WorkerBehavior::nominal().throttle_at(1), None);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_throttle_step_rejected() {
        WorkerBehavior::nominal().with_throttle_step(1, 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_throttle_rejected() {
        WorkerBehavior::nominal().with_throttle(0.0);
    }

    #[test]
    fn validate_holds_the_fields_to_the_builders_contract() {
        let built = WorkerBehavior::nominal()
            .with_delay(Duration::from_secs(3600))
            .with_throttle(1e-9)
            .with_throttle_step(2, 5.0)
            .failing_from(4);
        assert_eq!(built.validate(), Ok(()));
        for rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let base = WorkerBehavior {
                throttle_samples_per_sec: Some(rate),
                ..WorkerBehavior::nominal()
            };
            assert!(base.validate().unwrap_err().starts_with("throttle rate"));
            let step = WorkerBehavior {
                throttle_step: Some((1, rate)),
                ..WorkerBehavior::nominal()
            };
            assert!(step.validate().unwrap_err().starts_with("throttle step"));
        }
        let endless = WorkerBehavior::nominal().with_delay(Duration::MAX);
        assert!(endless.validate().unwrap_err().contains("extra delay"));
    }

    #[test]
    fn config_defaults_and_growth() {
        let cfg =
            RuntimeConfig::nominal(2).set_behavior(4, WorkerBehavior::nominal().failing_from(1));
        assert_eq!(cfg.behaviors.len(), 5);
        assert!(cfg.behavior_of(1).responds_at(9));
        assert!(!cfg.behavior_of(4).responds_at(1));
        // Unknown workers are nominal.
        assert!(cfg.behavior_of(99).responds_at(1));
    }

    #[test]
    fn timeout_builder() {
        let deadline = Duration::from_secs(2);
        let cfg = RuntimeConfig::nominal(1)
            .with_escalation(EscalationPolicy::follow_backend().with_deadline(deadline));
        assert_eq!(cfg.escalation.deadline(), Some(deadline));
        assert_eq!(RuntimeConfig::nominal(1).escalation.deadline(), None);
        assert_eq!(
            RuntimeConfig::default().escalation,
            EscalationPolicy::default()
        );
    }
}
