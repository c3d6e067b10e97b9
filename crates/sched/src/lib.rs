//! # hetgc-sched
//!
//! An elastic multi-tenant job scheduler over a shared coded worker
//! pool: many concurrent training jobs — each with its own scheme,
//! codec backend, escalation policy and training loop — time-slice one
//! fleet of workers, sharing its decode-plan cache and rebalancing
//! their allocations as tenants come and go.
//!
//! The pieces, bottom up:
//!
//! * [`SharedWorkerPool`] — the logical fleet: base throughputs, worker
//!   behaviours, the fleet-wide
//!   [`hetgc_coding::SharedPlanCache`], an admission cap, and a ledger
//!   of every tenant's committed per-worker load. The ledger turns
//!   co-tenancy into *effective rates*
//!   ([`SharedWorkerPool::effective_rates_for`]): a worker carrying
//!   other tenants' partitions looks proportionally slower, which is
//!   exactly the heterogeneity signal the paper's Eq. 5 allocation
//!   reacts to.
//! * [`LeasedEngine`] — any `hetgc::RoundEngine` as a pool tenant:
//!   rebalances against the effective rates when the pool epoch moves
//!   (jobs arrived/finished/shifted load), commits its own loads back,
//!   and counts its rebalances.
//! * [`JobScheduler`] — admits a batch of [`JobSpec`]s, runs them
//!   concurrently (or sequentially as the baseline) and reports one
//!   [`SchedulerReport`]: the per-job outcomes, whose round records are
//!   the batch's one round history, plus what the records do not carry
//!   — shared-cache reuse counters, the rebalance total and the batch's
//!   peak concurrency.
//!
//! Equal-seeded tenants build identical codes, so their decode plans
//! are solved **once fleet-wide** (the shared cache's singleflight) —
//! `tests/scheduler.rs` asserts both that reuse and the scheduled
//! batch's throughput edge over the sequential baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lease;
mod pool;
mod scheduler;

pub use lease::LeasedEngine;
pub use pool::{JobId, PoolLease, SharedWorkerPool};
pub use scheduler::{JobScheduler, JobSpec, SchedulerReport};
