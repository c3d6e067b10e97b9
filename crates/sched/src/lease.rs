//! [`LeasedEngine`]: the adapter that turns any single-job
//! [`RoundEngine`] into a well-behaved pool tenant. It
//!
//! * watches the pool [epoch] between rounds and, when other tenants
//!   arrived, finished or shifted load, rebuilds the job's allocation
//!   against the pool's *effective* rates
//!   ([`hetgc::RoundEngine::recode`], Eq. 5 → Eq. 6 → Alg. 1/3);
//! * commits the rebuilt code's per-worker loads back to the ledger, so
//!   the next tenant's view reflects this job's new footprint;
//! * counts its rebalances — the one per-job number the round records
//!   (`hetgc::RoundRecord`) do not carry.
//!
//! [epoch]: crate::SharedWorkerPool::epoch

use hetgc::{EngineRound, PipelinedEngine, RoundEngine};
use hetgc_obs::Recorder;
use rand::RngCore;

use crate::pool::PoolLease;

type BoxError = Box<dyn std::error::Error + Send + Sync>;

/// A pool tenant: an inner [`RoundEngine`] plus the lease and rebalance
/// logic that make it cooperate with other jobs on the shared fleet.
/// Construct via [`LeasedEngine::new`], then drive it through
/// `TrainDriver`/`PipelinedDriver` exactly like the engine it wraps.
#[derive(Debug)]
pub struct LeasedEngine<E> {
    inner: E,
    lease: PoolLease,
    seen_epoch: u64,
    rebalances: usize,
    rebalance: bool,
}

impl<E: RoundEngine> LeasedEngine<E> {
    /// Wraps `inner` as the tenant holding `lease`. The engine's current
    /// per-worker loads ([`RoundEngine::worker_loads`]) are committed to
    /// the pool immediately, so co-tenants see this job's footprint from
    /// admission on. Rebalancing is off until
    /// [`LeasedEngine::with_rebalancing`] enables it.
    pub fn new(inner: E, lease: PoolLease) -> Self {
        if let Some(loads) = inner.worker_loads() {
            lease.commit_load(&loads);
        }
        let seen_epoch = lease.pool().epoch();
        LeasedEngine {
            inner,
            lease,
            seen_epoch,
            rebalances: 0,
            rebalance: false,
        }
    }

    /// Enables (or disables) epoch-driven rebalancing. Only effective on
    /// engines that support re-coding, and only on the sequential
    /// [`RoundEngine::round`] path — the pipelined dispatch/collect split
    /// has a round in flight at decision time, so it never rebalances
    /// (the scheduler refuses a pipelined job that asks to).
    pub fn with_rebalancing(mut self, enabled: bool) -> Self {
        self.rebalance = enabled;
        self
    }

    /// How many times the pool epoch triggered a successful re-code.
    pub fn rebalances(&self) -> usize {
        self.rebalances
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// This tenant's lease on the pool.
    pub fn lease(&self) -> &PoolLease {
        &self.lease
    }

    /// Rebuilds the inner engine's allocation when the pool moved under
    /// it. The rebuild targets the pool's current effective rates — not
    /// raw telemetry — so two tenants reacting to the same ledger reach
    /// consistent, deterministic allocations.
    fn maybe_rebalance(&mut self, rng: &mut dyn RngCore) -> Result<(), BoxError> {
        if !self.rebalance || !self.inner.supports_recode() {
            return Ok(());
        }
        let epoch = self.lease.pool().epoch();
        if epoch == self.seen_epoch {
            return Ok(());
        }
        let rates = self.lease.effective_rates();
        if self.inner.recode(&rates, rng)? {
            self.rebalances += 1;
            if let Some(loads) = self.inner.worker_loads() {
                self.lease.commit_load(&loads);
            }
        }
        // Either way the ledger as of now is accounted for — including
        // our own commit's bump, which must not re-trigger next round.
        self.seen_epoch = self.lease.pool().epoch();
        Ok(())
    }
}

impl<E: RoundEngine> RoundEngine for LeasedEngine<E> {
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
        self.maybe_rebalance(rng)?;
        self.inner.round(round, params, rng)
    }

    fn after_step(&mut self, params: &[f64]) {
        self.inner.after_step(params);
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
        let applied = self.inner.recode(estimates, rng)?;
        if applied {
            if let Some(loads) = self.inner.worker_loads() {
                self.lease.commit_load(&loads);
                self.seen_epoch = self.lease.pool().epoch();
            }
        }
        Ok(applied)
    }

    fn initial_estimates(&self) -> Option<Vec<f64>> {
        self.inner.initial_estimates()
    }

    fn worker_loads(&self) -> Option<Vec<usize>> {
        self.inner.worker_loads()
    }
}

impl<E: PipelinedEngine> PipelinedEngine for LeasedEngine<E> {
    fn dispatch(&mut self, round: usize, params: &[f64]) -> Result<(), BoxError> {
        self.inner.dispatch(round, params)
    }

    fn collect(&mut self, round: usize) -> Result<EngineRound, BoxError> {
        self.inner.collect(round)
    }
}
