//! The shared worker fleet: one [`SharedWorkerPool`] describes the
//! physical workers every tenant job time-slices — their base
//! throughputs, their injected behaviours, the fleet-wide decode-plan
//! cache — and tracks which jobs currently hold capacity on which
//! worker.
//!
//! The pool is *logical*: each job still drives its own
//! `ThreadedCluster` (the OS time-slices the actual threads), but the
//! pool's committed-load ledger is what turns co-tenancy into numbers a
//! scheme construction can act on. A worker carrying other tenants'
//! partitions looks proportionally slower through
//! [`SharedWorkerPool::effective_rates_for`], so a job that rebalances
//! against those rates shifts load *away* from contended workers —
//! exactly the Eq. 5 allocation reacting to heterogeneity, with the
//! heterogeneity now coming from the scheduler itself.
//!
//! Every admission, load commit and release bumps the pool [epoch]
//! counter; tenants compare epochs between rounds to decide when to
//! rebalance ([`crate::LeasedEngine`]).
//!
//! [epoch]: SharedWorkerPool::epoch

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

use hetgc_coding::SharedPlanCache;
use hetgc_runtime::WorkerBehavior;

/// Unique identifier of one admitted job, assigned at
/// [`SharedWorkerPool::lease`] time.
pub type JobId = u64;

#[derive(Debug, Default)]
struct PoolLedger {
    /// Per-job committed load *fractions* per worker: `1.0` means the
    /// job's heaviest-loaded worker, `0.0` an idle one.
    loads: HashMap<JobId, Vec<f64>>,
    active: usize,
    peak_active: usize,
    admitted: u64,
    epoch: u64,
    next_job: JobId,
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
/// Cloning is cheap (an `Arc` handle); every clone sees the same ledger,
/// epoch and fleet-wide decode-plan cache.
///
/// # Example
///
/// ```
/// use hetgc_sched::SharedWorkerPool;
///
/// let pool = SharedWorkerPool::new(vec![1.0, 2.0, 2.0, 4.0]).with_max_concurrent(2);
/// let lease = pool.lease();
/// // A committed load shapes what OTHER tenants see as worker speed.
/// lease.commit_load(&[0, 0, 0, 4]);
/// let other = pool.lease();
/// let rates = pool.effective_rates_for(other.job_id());
/// assert_eq!(rates[0], 1.0); // uncontended
/// assert_eq!(rates[3], 2.0); // fully claimed by the first tenant: halved
/// ```
#[derive(Debug, Clone)]
pub struct SharedWorkerPool {
    inner: Arc<PoolInner>,
}

impl SharedWorkerPool {
    /// A pool of `base_rates.len()` workers with the given base
    /// throughputs (samples/second when uncontended), nominal behaviours
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
    /// [`SharedWorkerPool::lease`] calls block until a slot frees.
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

    /// Number of workers in the fleet.
    pub fn workers(&self) -> usize {
        self.inner.base_rates.len()
    }

    /// The uncontended per-worker throughputs.
    pub fn base_rates(&self) -> &[f64] {
        &self.inner.base_rates
    }

    /// The per-worker behaviours tenant clusters run under.
    pub fn behaviors(&self) -> &[WorkerBehavior] {
        &self.inner.behaviors
    }

    /// The fleet-wide decode-plan cache every tenant's codec attaches to
    /// (see [`hetgc_runtime::RuntimeConfig::shared_plans`]).
    pub fn shared_plans(&self) -> Arc<SharedPlanCache> {
        Arc::clone(&self.inner.shared_plans)
    }

    /// The ledger's change counter: bumped by every admission, load
    /// commit and release. Tenants rebalance when it moves.
    pub fn epoch(&self) -> u64 {
        self.inner.ledger.lock().expect("pool poisoned").epoch
    }

    /// The most jobs that held leases at once since the pool was built
    /// or a scheduler batch last started — the proof of actual
    /// concurrency a scheduler bench reports.
    pub fn peak_active(&self) -> usize {
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
    /// leases. The returned lease releases its slot (and erases the
    /// job's committed load) on drop.
    pub fn lease(&self) -> PoolLease {
        let mut ledger = self.inner.ledger.lock().expect("pool poisoned");
        while ledger.active >= self.inner.max_concurrent {
            ledger = self.inner.freed.wait(ledger).expect("pool poisoned");
        }
        ledger.active += 1;
        ledger.peak_active = ledger.peak_active.max(ledger.active);
        ledger.admitted += 1;
        ledger.epoch += 1;
        let job = ledger.next_job;
        ledger.next_job += 1;
        PoolLease {
            pool: self.clone(),
            job,
        }
    }

    /// Commits job `job`'s per-worker partition loads (what its current
    /// code assigns each worker — [`hetgc::RoundEngine::worker_loads`]).
    /// Loads are normalized to the job's heaviest worker, so one tenant
    /// contributes at most `1.0` contention per worker.
    pub fn commit_load(&self, job: JobId, loads: &[usize]) {
        let peak = loads.iter().copied().max().unwrap_or(0).max(1) as f64;
        let frac: Vec<f64> = {
            let mut f: Vec<f64> = loads.iter().map(|&l| l as f64 / peak).collect();
            f.resize(self.workers(), 0.0);
            f
        };
        let mut ledger = self.inner.ledger.lock().expect("pool poisoned");
        ledger.loads.insert(job, frac);
        ledger.epoch += 1;
    }

    /// The throughput worker `w` effectively offers job `job` right now:
    /// the base rate divided by `1 +` the load fractions every *other*
    /// tenant has committed on `w`. A worker fully claimed by one other
    /// tenant looks half as fast; an uncontended worker keeps its base
    /// rate. This is the contention model a rebalancing tenant rebuilds
    /// its allocation against.
    pub fn effective_rates_for(&self, job: JobId) -> Vec<f64> {
        let ledger = self.inner.ledger.lock().expect("pool poisoned");
        (0..self.workers())
            .map(|w| {
                let contention: f64 = ledger
                    .loads
                    .iter()
                    .filter(|(&j, _)| j != job)
                    .map(|(_, frac)| frac.get(w).copied().unwrap_or(0.0))
                    .sum();
                self.inner.base_rates[w] / (1.0 + contention)
            })
            .collect()
    }

    fn release(&self, job: JobId) {
        let mut ledger = self.inner.ledger.lock().expect("pool poisoned");
        ledger.loads.remove(&job);
        ledger.active -= 1;
        ledger.epoch += 1;
        drop(ledger);
        self.inner.freed.notify_all();
    }
}

/// One job's admission into a [`SharedWorkerPool`]: holds a concurrency
/// slot and the job's identity until dropped.
#[derive(Debug)]
pub struct PoolLease {
    pool: SharedWorkerPool,
    job: JobId,
}

impl PoolLease {
    /// This lease's job identifier.
    pub fn job_id(&self) -> JobId {
        self.job
    }

    /// The pool this lease was granted by.
    pub fn pool(&self) -> &SharedWorkerPool {
        &self.pool
    }

    /// Commits this job's per-worker loads
    /// (see [`SharedWorkerPool::commit_load`]).
    pub fn commit_load(&self, loads: &[usize]) {
        self.pool.commit_load(self.job, loads);
    }

    /// The rates this job should build (or rebuild) its allocation from
    /// (see [`SharedWorkerPool::effective_rates_for`]).
    pub fn effective_rates(&self) -> Vec<f64> {
        self.pool.effective_rates_for(self.job)
    }
}

impl Drop for PoolLease {
    fn drop(&mut self) {
        self.pool.release(self.job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn contention_halves_a_fully_claimed_worker() {
        let pool = SharedWorkerPool::new(vec![4.0, 4.0]);
        let a = pool.lease();
        a.commit_load(&[4, 0]);
        let b = pool.lease();
        // Worker 0 carries tenant A's full load: B sees it at half rate.
        assert_eq!(pool.effective_rates_for(b.job_id()), vec![2.0, 4.0]);
        // A itself never counts its own load as contention.
        assert_eq!(a.effective_rates(), vec![4.0, 4.0]);
        // Releasing A restores B's view.
        drop(a);
        assert_eq!(b.effective_rates(), vec![4.0, 4.0]);
    }

    #[test]
    fn epoch_moves_on_admission_commit_and_release() {
        let pool = SharedWorkerPool::new(vec![1.0]);
        let e0 = pool.epoch();
        let lease = pool.lease();
        let e1 = pool.epoch();
        assert!(e1 > e0, "admission bumps the epoch");
        lease.commit_load(&[3]);
        let e2 = pool.epoch();
        assert!(e2 > e1, "a load commit bumps the epoch");
        drop(lease);
        assert!(pool.epoch() > e2, "release bumps the epoch");
        assert_eq!(pool.admitted(), 1);
    }

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
    fn loads_normalize_to_the_heaviest_worker() {
        let pool = SharedWorkerPool::new(vec![2.0, 2.0, 2.0]);
        let a = pool.lease();
        a.commit_load(&[1, 2, 4]);
        let b = pool.lease();
        let rates = b.effective_rates();
        // frac = [0.25, 0.5, 1.0] → rates 2/(1+frac).
        assert!((rates[0] - 2.0 / 1.25).abs() < 1e-12);
        assert!((rates[1] - 2.0 / 1.5).abs() < 1e-12);
        assert!((rates[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn empty_pool_rejected() {
        SharedWorkerPool::new(Vec::new());
    }
}
