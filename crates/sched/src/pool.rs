//! The shared worker fleet: one [`SharedWorkerPool`] describes the
//! physical workers every tenant job time-slices — their base
//! throughputs, their injected behaviours, the fleet-wide decode-plan
//! cache — and gates how many jobs hold it at once.
//!
//! The pool is *logical*: each job still drives its own
//! `ThreadedCluster` (the OS time-slices the actual threads). Every
//! tenant builds its allocation from the base rates once, as the paper
//! does from its sampled throughputs (§III-C), so equal-seeded tenants
//! build identical codes and share one decode-plan namespace.

use std::sync::{Arc, Condvar, Mutex};

use hetgc_coding::SharedPlanCache;
use hetgc_runtime::WorkerBehavior;

#[derive(Debug, Default)]
struct PoolLedger {
    active: usize,
    peak_active: usize,
    admitted: u64,
}

#[derive(Debug)]
struct PoolInner {
    base_rates: Vec<f64>,
    behaviors: Vec<WorkerBehavior>,
    max_concurrent: usize,
    shared_plans: Arc<SharedPlanCache>,
    ledger: Mutex<PoolLedger>,
    freed: Condvar,
}

/// A shared worker fleet tenanted by many concurrent training jobs.
///
/// Cloning is cheap (an `Arc` handle); every clone sees the same
/// admission count and fleet-wide decode-plan cache.
///
/// # Example
///
/// ```
/// use hetgc_sched::SharedWorkerPool;
///
/// // Four workers, at most two jobs training on them at once.
/// let pool = SharedWorkerPool::new(vec![1.0, 2.0, 2.0, 4.0]).with_max_concurrent(2);
/// let handle = pool.clone(); // every clone sees the same admission count
/// assert_eq!(handle.admitted(), 0); // nothing leased until a job runs
/// ```
#[derive(Debug, Clone)]
pub struct SharedWorkerPool {
    inner: Arc<PoolInner>,
}

impl SharedWorkerPool {
    /// A pool of `base_rates.len()` workers with the given base
    /// throughputs (samples/second), nominal behaviours
    /// and unlimited concurrency.
    ///
    /// # Panics
    ///
    /// Panics when `base_rates` is empty or contains a non-positive or
    /// non-finite rate.
    pub fn new(base_rates: Vec<f64>) -> Self {
        assert!(!base_rates.is_empty(), "a pool needs at least one worker");
        assert!(
            base_rates.iter().all(|r| r.is_finite() && *r > 0.0),
            "base rates must be positive and finite"
        );
        let workers = base_rates.len();
        SharedWorkerPool {
            inner: Arc::new(PoolInner {
                base_rates,
                behaviors: vec![WorkerBehavior::nominal(); workers],
                max_concurrent: usize::MAX,
                shared_plans: Arc::new(SharedPlanCache::new()),
                ledger: Mutex::new(PoolLedger::default()),
                freed: Condvar::new(),
            }),
        }
    }

    /// Replaces the per-worker behaviours (delays, throttles, failures)
    /// every tenant's cluster runs under.
    ///
    /// # Panics
    ///
    /// Panics when the behaviour count does not match the worker count,
    /// or when the pool has already been shared (leased or cloned).
    pub fn with_behaviors(mut self, behaviors: Vec<WorkerBehavior>) -> Self {
        let inner =
            Arc::get_mut(&mut self.inner).expect("configure the pool before sharing or leasing it");
        assert_eq!(
            behaviors.len(),
            inner.base_rates.len(),
            "one behaviour per worker"
        );
        inner.behaviors = behaviors;
        self
    }

    /// Caps how many jobs hold leases at once; further
    /// `SharedWorkerPool::lease` calls block until a slot frees.
    ///
    /// # Panics
    ///
    /// Panics when `max` is zero, or when the pool has already been
    /// shared (leased or cloned).
    pub fn with_max_concurrent(mut self, max: usize) -> Self {
        assert!(max > 0, "at least one concurrent job");
        Arc::get_mut(&mut self.inner)
            .expect("configure the pool before sharing or leasing it")
            .max_concurrent = max;
        self
    }

    /// The per-worker throughputs every tenant allocates against.
    pub(crate) fn base_rates(&self) -> &[f64] {
        &self.inner.base_rates
    }

    /// The per-worker behaviours tenant clusters run under.
    pub(crate) fn behaviors(&self) -> &[WorkerBehavior] {
        &self.inner.behaviors
    }

    /// The fleet-wide decode-plan cache every tenant's codec attaches to
    /// (see [`hetgc_runtime::RuntimeConfig::shared_plans`]).
    pub(crate) fn shared_plans(&self) -> Arc<SharedPlanCache> {
        Arc::clone(&self.inner.shared_plans)
    }

    /// The most jobs that held leases at once since the pool was built
    /// or a scheduler batch last started — the proof of actual
    /// concurrency a scheduler bench reports.
    pub(crate) fn peak_active(&self) -> usize {
        self.inner.ledger.lock().expect("pool poisoned").peak_active
    }

    /// Restarts [`SharedWorkerPool::peak_active`] from the jobs holding
    /// leases right now, so each scheduler batch reports its own peak.
    pub(crate) fn reset_peak(&self) {
        let mut ledger = self.inner.ledger.lock().expect("pool poisoned");
        ledger.peak_active = ledger.active;
    }

    /// Total leases granted over the pool's lifetime.
    pub fn admitted(&self) -> u64 {
        self.inner.ledger.lock().expect("pool poisoned").admitted
    }

    /// Admits one job, blocking while
    /// [`SharedWorkerPool::with_max_concurrent`] jobs already hold
    /// leases. The returned lease releases its slot on drop.
    pub(crate) fn lease(&self) -> PoolLease {
        let mut ledger = self.inner.ledger.lock().expect("pool poisoned");
        while ledger.active >= self.inner.max_concurrent {
            ledger = self.inner.freed.wait(ledger).expect("pool poisoned");
        }
        ledger.active += 1;
        ledger.peak_active = ledger.peak_active.max(ledger.active);
        ledger.admitted += 1;
        PoolLease { pool: self.clone() }
    }

    fn release(&self) {
        let mut ledger = self.inner.ledger.lock().expect("pool poisoned");
        ledger.active -= 1;
        drop(ledger);
        self.inner.freed.notify_all();
    }
}

/// One job's admission into a [`SharedWorkerPool`]: holds a concurrency
/// slot until dropped.
#[derive(Debug)]
pub(crate) struct PoolLease {
    pool: SharedWorkerPool,
}

impl Drop for PoolLease {
    fn drop(&mut self) {
        self.pool.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn max_concurrent_gates_admission() {
        let pool = SharedWorkerPool::new(vec![1.0, 1.0]).with_max_concurrent(2);
        let running = AtomicUsize::new(0);
        let peak_seen = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..6 {
                s.spawn(|| {
                    let _lease = pool.lease();
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    peak_seen.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    running.fetch_sub(1, Ordering::SeqCst);
                });
            }
        });
        assert!(peak_seen.load(Ordering::SeqCst) <= 2, "cap respected");
        assert_eq!(pool.admitted(), 6, "every job eventually admitted");
        assert!(pool.peak_active() <= 2);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn empty_pool_rejected() {
        SharedWorkerPool::new(Vec::new());
    }
}
