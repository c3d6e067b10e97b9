//! # hetgc-sched
//!
//! An elastic multi-tenant job scheduler over a shared coded worker
//! pool: many concurrent training jobs — each with its own scheme,
//! codec backend, escalation policy and training loop — time-slice one
//! fleet of workers and share its decode-plan cache.
//!
//! The pieces, bottom up:
//!
//! * [`SharedWorkerPool`] — the logical fleet: base throughputs, worker
//!   behaviours, the fleet-wide [`hetgc_coding::SharedPlanCache`] and an
//!   admission cap. A [`PoolLease`] holds one admission slot.
//! * [`JobScheduler`] — admits a batch of [`JobSpec`]s, runs each as a
//!   `hetgc::ThreadedEngine` driven by `hetgc::TrainDriver` while its
//!   lease is held, concurrently (or sequentially as the baseline), and
//!   reports one [`SchedulerReport`]: the per-job outcomes, whose round
//!   records are the batch's one round history, plus what the records do
//!   not carry — shared-cache reuse counters and the batch's peak
//!   concurrency.
//!
//! Every tenant allocates against the fleet's base rates once, as the
//! paper fixes its Eq. 5 allocation from sampled throughputs (§III-C).
//! Equal-seeded tenants therefore build identical codes, so their decode
//! plans are solved **once fleet-wide** (the shared cache's
//! singleflight) — `tests/scheduler.rs` asserts both that reuse and the
//! scheduled batch's throughput edge over the sequential baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pool;
mod scheduler;

pub use pool::{PoolLease, SharedWorkerPool};
pub use scheduler::{JobScheduler, JobSpec, SchedulerReport};
