//! [`JobScheduler`]: admits a batch of training jobs onto one
//! [`SharedWorkerPool`] and runs them — concurrently under the pool's
//! admission cap ([`JobScheduler::run`]) or one at a time as the
//! baseline ([`JobScheduler::run_sequential`]) — reporting one
//! [`SchedulerReport`]: the jobs' outcomes, whose round records are the
//! batch's one round history (rounds, escalations and round times are
//! read off them), plus what the records do not carry — the shared
//! decode-plan cache's reuse counters and the batch's peak concurrency.

use std::sync::Arc;
use std::time::Instant;

use hetgc::{
    scheme_from_estimates, synthetic, DriverConfig, LinearRegression, RoundEngine, SchemeKind, Sgd,
    ThreadedEngine, TrainDriver, TrainOutcome,
};
use hetgc_coding::{CodecBackend, EscalationPolicy};
use hetgc_obs::{MetricsRegistry, RunObserver};
use hetgc_runtime::RuntimeConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::pool::SharedWorkerPool;

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
}

/// What one scheduler batch produced. Round counts, escalations and
/// round times live in `outcomes`' records and are read off them
/// ([`SchedulerReport::summary`]), not kept a second time.
#[derive(Debug)]
pub struct SchedulerReport {
    /// Per-job training outcomes, in submission order.
    pub outcomes: Vec<TrainOutcome>,
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
    /// Most jobs that held leases at once during this batch.
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

    /// A one-line human summary of the batch. Rounds, the escalated
    /// share (`Σ approx_rounds() / Σ rounds()`) and the p50/p95 round times
    /// come from the outcomes' records; `jobs/s` is
    /// [`SchedulerReport::jobs_per_sec`].
    pub fn summary(&self) -> String {
        let rounds: usize = self.outcomes.iter().map(TrainOutcome::rounds).sum();
        let escalated: usize = self.outcomes.iter().map(TrainOutcome::approx_rounds).sum();
        let mut times: Vec<f64> = self
            .outcomes
            .iter()
            .flat_map(|o| o.records.iter().map(|r| r.elapsed))
            .collect();
        times.sort_by(f64::total_cmp);
        // Nearest rank, the `QuantileWindow::quantile` convention.
        let ms = |q: f64| {
            let rank = (q * times.len().saturating_sub(1) as f64).round() as usize;
            times.get(rank).map_or(0.0, |t| t * 1e3)
        };
        format!(
            "jobs={} rounds={rounds} esc={:.1}% round p50={:.2}ms p95={:.2}ms \
             | wall={:.3}s jobs/s={:.2} peak={} cache: {}/{} hits, {} solves",
            self.outcomes.len(),
            100.0 * escalated as f64 / rounds.max(1) as f64,
            ms(0.5),
            ms(0.95),
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
    /// As for [`JobScheduler::run`].
    pub fn run_sequential(&self) -> Result<SchedulerReport, BoxError> {
        self.execute(false)
    }

    fn execute(&self, concurrent: bool) -> Result<SchedulerReport, BoxError> {
        let cache = self.pool.shared_plans();
        let (lookups0, hits0, solves0) = (cache.lookups(), cache.hits(), cache.solves());
        self.pool.reset_peak();
        let started = Instant::now();
        let runs: Vec<Result<TrainOutcome, String>> = if concurrent {
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

        let outcomes = runs
            .into_iter()
            .collect::<Result<Vec<_>, String>>()
            .map_err(BoxError::from)?;
        Ok(SchedulerReport {
            outcomes,
            wall_seconds,
            cache_lookups: cache.lookups() - lookups0,
            cache_hits: cache.hits() - hits0,
            cache_solves: cache.solves() - solves0,
            peak_concurrent: self.pool.peak_active(),
        })
    }
}

/// Runs one job end to end: build scheme/workload → admit → spawn the
/// tenant cluster (shared-plan cache attached) → train while the lease
/// is held.
fn run_job(
    pool: &SharedWorkerPool,
    spec: &JobSpec,
    metrics: Option<&MetricsRegistry>,
) -> Result<TrainOutcome, BoxError> {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    // The allocation targets the fleet's base rates, fixed for the run
    // as the paper's sampled throughputs are, so equal-seeded jobs build
    // identical codes and share decode plans.
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

    let _lease = pool.lease();
    let mut engine =
        ThreadedEngine::new(scheme.code, Arc::clone(&model), Arc::clone(&data), &config)?
            .with_label(spec.name.clone());
    let driver_cfg = DriverConfig {
        eval_every: spec.eval_every,
        ..DriverConfig::default()
    }
    .with_job_id(spec.name.clone());
    let mut driver = TrainDriver::new(model.as_ref(), data.as_ref(), Sgd::new(spec.learning_rate))
        .with_config(driver_cfg);
    if let Some(registry) = metrics {
        driver = driver.with_observer(RunObserver::new(
            registry,
            spec.name.as_str(),
            engine.workers(),
        ));
    }
    driver.run(&mut engine, spec.rounds, &mut rng)
}
