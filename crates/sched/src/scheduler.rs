//! [`JobScheduler`]: admits a batch of training jobs onto one
//! [`SharedWorkerPool`] and runs them — concurrently under the pool's
//! admission cap ([`JobScheduler::run`]) or one at a time as the
//! baseline ([`JobScheduler::run_sequential`]) — reporting per-job
//! outcomes, the fleet telemetry rollup, the shared decode-plan cache's
//! reuse counters and the merged data-plane statistics in one
//! [`SchedulerReport`].

use std::sync::Arc;
use std::time::Instant;

use hetgc::{
    scheme_from_estimates, synthetic, DriverConfig, LinearRegression, PipelinedDriver, RoundEngine,
    SchemeKind, Sgd, ThreadedEngine, TrainDriver, TrainOutcome,
};
use hetgc_coding::{CodecBackend, EscalationPolicy, PoolStats};
use hetgc_obs::{MetricsRegistry, RunObserver};
use hetgc_runtime::RuntimeConfig;
use hetgc_telemetry::{FleetRollup, JobTelemetry};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::pool::SharedWorkerPool;
use crate::LeasedEngine;

type BoxError = Box<dyn std::error::Error + Send + Sync>;

/// Everything the scheduler needs to run one tenant job: the scheme
/// family and straggler budget the allocation is built with, the codec
/// and escalation configuration, and the (synthetic) training workload.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The job's name — its curve label and its `job_id` record tag.
    pub name: String,
    /// Scheme family the job's allocation is built with.
    pub kind: SchemeKind,
    /// Designed straggler tolerance.
    pub stragglers: usize,
    /// Codec backend the job's master decodes with.
    pub backend: CodecBackend,
    /// Per-round escalation policy (`None` follows the backend).
    pub escalation: Option<EscalationPolicy>,
    /// Collect rounds to train for.
    pub rounds: usize,
    /// Model dimension of the synthetic linear-regression workload.
    pub dim: usize,
    /// Sample count of the synthetic workload.
    pub samples: usize,
    /// Seed for the job's scheme construction, data synthesis and
    /// training loop — two specs with equal seeds (and kinds/budgets)
    /// build bitwise-identical codes, which is what lets tenants share
    /// decode plans through the pool's fleet-wide cache.
    pub seed: u64,
    /// Evaluate the training loss every this many rounds.
    pub eval_every: usize,
    /// Drive the job through the double-buffered [`PipelinedDriver`]
    /// instead of the sequential [`TrainDriver`].
    pub pipelined: bool,
    /// React to pool-epoch changes by rebuilding the allocation against
    /// the pool's effective rates (sequential driver only — see
    /// [`LeasedEngine::with_rebalancing`]).
    pub rebalance: bool,
    /// SGD learning rate.
    pub learning_rate: f64,
}

impl JobSpec {
    /// A small heter-aware job with defaults sized for scheduler tests
    /// and benches: 6 rounds over a 64×4 synthetic regression, straggler
    /// budget 1, auto backend, seed 7.
    pub fn new(name: impl Into<String>) -> Self {
        JobSpec {
            name: name.into(),
            kind: SchemeKind::HeterAware,
            stragglers: 1,
            backend: CodecBackend::Auto,
            escalation: None,
            rounds: 6,
            dim: 4,
            samples: 64,
            seed: 7,
            eval_every: 1,
            pipelined: false,
            rebalance: false,
            learning_rate: 0.1,
        }
    }

    /// Sets the straggler budget.
    pub fn with_stragglers(mut self, stragglers: usize) -> Self {
        self.stragglers = stragglers;
        self
    }

    /// Sets the codec backend.
    pub fn with_backend(mut self, backend: CodecBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets an explicit escalation policy.
    pub fn with_escalation(mut self, policy: EscalationPolicy) -> Self {
        self.escalation = Some(policy);
        self
    }

    /// Sets the round count.
    pub fn with_rounds(mut self, rounds: usize) -> Self {
        self.rounds = rounds;
        self
    }

    /// Sets the synthetic workload size.
    pub fn with_workload(mut self, samples: usize, dim: usize) -> Self {
        self.samples = samples;
        self.dim = dim;
        self
    }

    /// Sets the job's seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Drives the job through the pipelined (double-buffered) loop.
    pub fn pipelined(mut self) -> Self {
        self.pipelined = true;
        self
    }

    /// Enables epoch-driven rebalancing for this job.
    pub fn with_rebalancing(mut self) -> Self {
        self.rebalance = true;
        self
    }
}

/// One job's results, as collected by the scheduler.
#[derive(Debug)]
struct JobRun {
    outcome: TrainOutcome,
    telemetry: JobTelemetry,
    data_plane: PoolStats,
}

/// What one scheduler batch produced.
#[derive(Debug)]
pub struct SchedulerReport {
    /// Per-job training outcomes, in submission order.
    pub outcomes: Vec<TrainOutcome>,
    /// The fleet telemetry rollup across every job.
    pub fleet: FleetRollup,
    /// Wall-clock seconds for the whole batch (admission of the first
    /// job to completion of the last).
    pub wall_seconds: f64,
    /// Shared decode-plan cache lookups during this batch.
    pub cache_lookups: u64,
    /// Shared-cache hits during this batch (cross-tenant plan reuse).
    pub cache_hits: u64,
    /// Dense solves the shared cache performed during this batch — with
    /// tenants running identical schemes, strictly fewer than the
    /// lookups.
    pub cache_solves: u64,
    /// Data-plane buffer-pool counters merged across every job's decode
    /// session ([`PoolStats::merge`]).
    pub data_plane: PoolStats,
    /// Most jobs that actually held leases at once during the batch.
    pub peak_concurrent: usize,
}

impl SchedulerReport {
    /// Jobs completed per wall-clock second — the scheduled-vs-sequential
    /// headline (0 with no jobs or no elapsed time).
    pub fn jobs_per_sec(&self) -> f64 {
        if self.outcomes.is_empty() || self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.outcomes.len() as f64 / self.wall_seconds
        }
    }

    /// A one-line human summary of the batch.
    pub fn summary(&self) -> String {
        format!(
            "{} | wall={:.3}s jobs/s={:.2} peak={} cache: {}/{} hits, {} solves",
            self.fleet.summary(),
            self.wall_seconds,
            self.jobs_per_sec(),
            self.peak_concurrent,
            self.cache_hits,
            self.cache_lookups,
            self.cache_solves,
        )
    }
}

/// Admits and runs a batch of [`JobSpec`]s over one [`SharedWorkerPool`].
///
/// # Example
///
/// ```no_run
/// use hetgc_sched::{JobScheduler, JobSpec, SharedWorkerPool};
///
/// let pool = SharedWorkerPool::new(vec![1.0, 2.0, 2.0, 4.0]).with_max_concurrent(4);
/// let report = JobScheduler::new(pool)
///     .submit(JobSpec::new("tenant-a"))
///     .submit(JobSpec::new("tenant-b"))
///     .run()
///     .unwrap();
/// assert_eq!(report.outcomes.len(), 2);
/// ```
#[derive(Debug)]
pub struct JobScheduler {
    pool: SharedWorkerPool,
    jobs: Vec<JobSpec>,
    metrics: Option<MetricsRegistry>,
}

impl JobScheduler {
    /// A scheduler over `pool` with no jobs submitted yet.
    pub fn new(pool: SharedWorkerPool) -> Self {
        JobScheduler {
            pool,
            jobs: Vec::new(),
            metrics: None,
        }
    }

    /// Queues one job for the next batch.
    pub fn submit(mut self, spec: JobSpec) -> Self {
        self.jobs.push(spec);
        self
    }

    /// Reports every job's rounds into `registry`, each under its own
    /// `job` label ([`RunObserver`] families: round counters, latency and
    /// per-worker arrival histograms, wire bytes). Attach the same
    /// registry to a `hetgc_obs::MetricsServer` to scrape the whole
    /// batch live.
    pub fn with_metrics(mut self, registry: MetricsRegistry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// The pool this scheduler admits jobs onto.
    pub fn pool(&self) -> &SharedWorkerPool {
        &self.pool
    }

    /// Runs every submitted job concurrently (one thread per job; the
    /// pool's admission cap gates how many hold leases at once).
    ///
    /// # Errors
    ///
    /// The first job failure, verbatim.
    pub fn run(&self) -> Result<SchedulerReport, BoxError> {
        self.execute(true)
    }

    /// Runs every submitted job one at a time — the baseline a
    /// scheduled batch's [`SchedulerReport::jobs_per_sec`] is compared
    /// against.
    ///
    /// # Errors
    ///
    /// The first job failure, verbatim.
    pub fn run_sequential(&self) -> Result<SchedulerReport, BoxError> {
        self.execute(false)
    }

    fn execute(&self, concurrent: bool) -> Result<SchedulerReport, BoxError> {
        let cache = self.pool.shared_plans();
        let (lookups0, hits0, solves0) = (cache.lookups(), cache.hits(), cache.solves());
        let started = Instant::now();
        let runs: Vec<Result<JobRun, String>> = if concurrent {
            std::thread::scope(|s| {
                let handles: Vec<_> = self
                    .jobs
                    .iter()
                    .map(|spec| {
                        let pool = &self.pool;
                        let metrics = self.metrics.as_ref();
                        s.spawn(move || run_job(pool, spec, metrics).map_err(|e| e.to_string()))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("job thread panicked"))
                    .collect()
            })
        } else {
            self.jobs
                .iter()
                .map(|spec| {
                    run_job(&self.pool, spec, self.metrics.as_ref()).map_err(|e| e.to_string())
                })
                .collect()
        };
        let wall_seconds = started.elapsed().as_secs_f64();

        let mut outcomes = Vec::with_capacity(runs.len());
        let mut fleet = FleetRollup::new();
        let mut data_plane = PoolStats::default();
        for run in runs {
            let run = run.map_err(BoxError::from)?;
            data_plane.merge(run.data_plane);
            fleet.absorb(run.telemetry);
            outcomes.push(run.outcome);
        }
        Ok(SchedulerReport {
            outcomes,
            fleet,
            wall_seconds,
            cache_lookups: cache.lookups() - lookups0,
            cache_hits: cache.hits() - hits0,
            cache_solves: cache.solves() - solves0,
            data_plane,
            peak_concurrent: self.pool.peak_active(),
        })
    }
}

/// Runs one job end to end: admit → build scheme/workload → spawn the
/// tenant cluster (shared-plan cache attached) → train → snapshot
/// telemetry and data-plane stats.
fn run_job(
    pool: &SharedWorkerPool,
    spec: &JobSpec,
    metrics: Option<&MetricsRegistry>,
) -> Result<JobRun, BoxError> {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    // The initial allocation targets the fleet's *base* rates — the spec
    // every tenant knows at admission — so equal-seeded jobs build
    // identical codes and share decode plans. Contention enters later,
    // through rebalancing against the effective rates.
    let scheme = scheme_from_estimates(
        spec.kind,
        pool.base_rates(),
        spec.stragglers,
        None,
        &mut rng,
    )?;
    let model = Arc::new(LinearRegression::new(spec.dim));
    let data = Arc::new(synthetic::linear_regression(
        spec.samples,
        spec.dim,
        0.01,
        &mut rng,
    ));
    let config = RuntimeConfig {
        behaviors: pool.behaviors().to_vec(),
        backend: spec.backend,
        escalation: spec.escalation.clone(),
        shared_plans: Some(pool.shared_plans()),
    };

    let lease = pool.lease();
    let started = Instant::now();
    let engine = ThreadedEngine::new(scheme.code, Arc::clone(&model), Arc::clone(&data), &config)?
        .with_label(spec.name.clone())
        .with_recoding(spec.kind, spec.stragglers);
    let mut leased = LeasedEngine::new(engine, lease).with_rebalancing(spec.rebalance);

    let driver_cfg = DriverConfig {
        eval_every: spec.eval_every,
        ..DriverConfig::default()
    }
    .with_job_id(spec.name.clone());
    let observer = metrics.map(|r| RunObserver::new(r, spec.name.as_str(), leased.workers()));
    let outcome = if spec.pipelined {
        let mut driver =
            PipelinedDriver::new(model.as_ref(), data.as_ref(), Sgd::new(spec.learning_rate))
                .with_config(driver_cfg);
        if let Some(obs) = observer {
            driver = driver.with_observer(obs);
        }
        driver.run(&mut leased, spec.rounds, &mut rng)?
    } else {
        let mut driver =
            TrainDriver::new(model.as_ref(), data.as_ref(), Sgd::new(spec.learning_rate))
                .with_config(driver_cfg);
        if let Some(obs) = observer {
            driver = driver.with_observer(obs);
        }
        driver.run(&mut leased, spec.rounds, &mut rng)?
    };

    let wall = started.elapsed().as_secs_f64();
    let telemetry =
        JobTelemetry::from_hub(spec.name.as_str(), leased.hub(), wall, leased.rebalances());
    let data_plane = leased.inner().cluster().pool_stats();
    Ok(JobRun {
        outcome,
        telemetry,
        data_plane,
    })
}
