//! # hetgc-sched
//!
//! An elastic multi-tenant job scheduler over a shared coded worker
//! pool: many concurrent training jobs — each with its own scheme,
//! codec backend, escalation policy and training loop — time-slice one
//! fleet of workers and share its decode-plan cache.
//!
//! The pieces, bottom up:
//!
//! * [`SharedWorkerPool`] — the fleet: base throughputs, worker
//!   behaviours, the fleet-wide [`hetgc_coding::SharedPlanCache`] and an
//!   admission cap. A `PoolLease` holds one admission slot.
//! * [`JobScheduler`] — admits a batch of [`JobSpec`]s, starts one OS
//!   thread per pool worker and every job's master on those threads
//!   (`hetgc_runtime::ThreadedCluster::start_shared`), runs each job as a
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
//! Tenants of one batch whose seed, scheme kind, straggler budget, sample
//! count and dimension are all equal go further: the batch builds their
//! code and synthetic dataset once, on the calling thread before any job
//! thread starts (so the datasets reuse the caller's malloc arena batch
//! after batch), and they share that dataset and clone the code and the
//! rng it left, so each trains bitwise as it would alone. Each job's
//! master and its round log, sized to the job's round budget, are
//! allocated on the caller too; a 4-job batch on a 4-worker pool runs on
//! 4 worker threads and 4 job threads, all joined before the batch
//! returns.
//!
//! A spec no job could run (no samples, no dimension, a learning rate
//! that is not positive and finite) fails the whole batch with
//! [`JobError::InvalidSpec`] before anything starts, a job whose
//! thread panics fails it with [`JobError::Panicked`], and a job whose
//! scheme or training fails fails it with [`JobError::Failed`], which
//! names the job and keeps the job's error as its source.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pool;
mod scheduler;

pub use pool::SharedWorkerPool;
pub use scheduler::{JobError, JobScheduler, JobSpec, SchedulerReport};
