//! [`JobScheduler`]: admits a batch of training jobs onto one
//! [`SharedWorkerPool`] and runs them — concurrently under the pool's
//! admission cap ([`JobScheduler::run`]) or one at a time as the
//! baseline ([`JobScheduler::run_sequential`]) — reporting one
//! [`SchedulerReport`]: the jobs' outcomes, whose round records are the
//! batch's one round history (rounds, escalations and round times are
//! read off them), plus what the records do not carry — the shared
//! decode-plan cache's reuse counters and the batch's peak concurrency.

use std::any::Any;
use std::sync::Arc;
use std::thread::ScopedJoinHandle;
use std::time::Instant;

use hetgc::{
    scheme_from_estimates, synthetic, CodingMatrix, Dataset, DriverConfig, LinearRegression,
    RoundEngine, SchemeKind, Sgd, ThreadedEngine, TrainDriver, TrainOutcome,
};
use hetgc_coding::{CodecBackend, CodingError, EscalationPolicy};
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
    pub(crate) name: String,
    /// Scheme family the job's allocation is built with.
    pub(crate) kind: SchemeKind,
    /// Designed straggler tolerance.
    pub(crate) stragglers: usize,
    /// Codec backend the job's master decodes with.
    pub(crate) backend: CodecBackend,
    /// Per-round escalation policy: its deadline, and the approximate
    /// stage's budget when [`JobSpec::backend`] has that stage. The
    /// default waits for every worker and keeps the backend's budget.
    pub(crate) escalation: EscalationPolicy,
    /// Collect rounds to train for.
    pub(crate) rounds: usize,
    /// Model dimension of the synthetic linear-regression workload.
    pub(crate) dim: usize,
    /// Sample count of the synthetic workload.
    pub(crate) samples: usize,
    /// Seed for the job's scheme construction, data synthesis and
    /// training loop — two specs with equal seeds (and kinds/budgets)
    /// build bitwise-identical codes, which is what lets tenants share
    /// decode plans through the pool's fleet-wide cache. Tenants of one
    /// batch whose seed, kind, straggler budget, sample count and
    /// dimension are all equal build their code and dataset once and
    /// share them, bitwise what each would build alone; a tenant with no
    /// equal builds its own, as it would alone.
    pub(crate) seed: u64,
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
            escalation: EscalationPolicy::default(),
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

    /// Sets the escalation policy.
    pub fn with_escalation(mut self, policy: EscalationPolicy) -> Self {
        self.escalation = policy;
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

    /// The spec's first field no job could run with, as
    /// [`JobError::InvalidSpec`].
    fn check(&self) -> Result<(), JobError> {
        let reason = if self.samples == 0 {
            "the workload needs at least one sample"
        } else if self.dim == 0 {
            "the model needs at least one dimension"
        } else if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            "the learning rate must be positive and finite"
        } else {
            return Ok(());
        };
        Err(JobError::InvalidSpec {
            job: self.name.clone(),
            reason,
        })
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
    /// [`JobError::InvalidSpec`] for the first spec no job could run,
    /// before anything starts; otherwise the first job failure: its
    /// scheme or training error as [`JobError::Failed`], or
    /// [`JobError::Panicked`].
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
        for spec in &self.jobs {
            spec.check()?;
        }
        let cache = self.pool.shared_plans();
        let (lookups0, hits0, solves0) = (cache.lookups(), cache.hits(), cache.solves());
        self.pool.reset_peak();
        let started = Instant::now();
        let builds = SharedBuilds::new(&self.pool, &self.jobs);
        let runs = self.run_jobs(&builds, concurrent);
        let wall_seconds = started.elapsed().as_secs_f64();

        let outcomes = runs
            .into_iter()
            .zip(&self.jobs)
            .map(|(run, spec)| {
                run.map_err(|source| -> BoxError {
                    if source.is::<JobError>() {
                        source // already names its job
                    } else {
                        Box::new(JobError::Failed {
                            job: spec.name.clone(),
                            source,
                        })
                    }
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SchedulerReport {
            outcomes,
            wall_seconds,
            cache_lookups: cache.lookups() - lookups0,
            cache_hits: cache.hits() - hits0,
            cache_solves: cache.solves() - solves0,
            peak_concurrent: self.pool.peak_active(),
        })
    }

    /// Runs every job from its key's build on its own scoped thread — all
    /// at once, or each joined before the next starts — with a thread's
    /// panic returned as that job's [`JobError::Panicked`].
    fn run_jobs(
        &self,
        builds: &SharedBuilds,
        concurrent: bool,
    ) -> Vec<Result<TrainOutcome, BoxError>> {
        std::thread::scope(|s| {
            let spawn = |job: usize| {
                let (pool, spec, metrics) = (&self.pool, &self.jobs[job], self.metrics.as_ref());
                let built = builds.get(job);
                s.spawn(move || run_job(pool, spec, built, metrics))
            };
            let join = |job: usize, handle: ScopedJoinHandle<'_, _>| {
                handle.join().unwrap_or_else(|payload| {
                    Err(JobError::Panicked {
                        job: self.jobs[job].name.clone(),
                        message: panic_message(payload.as_ref()),
                    }
                    .into())
                })
            };
            if concurrent {
                let handles: Vec<_> = (0..self.jobs.len()).map(spawn).collect();
                handles
                    .into_iter()
                    .enumerate()
                    .map(|(job, handle)| join(job, handle))
                    .collect()
            } else {
                (0..self.jobs.len())
                    .map(|job| join(job, spawn(job)))
                    .collect()
            }
        })
    }
}

/// Why a job produced no outcome, named after the job.
#[derive(Debug)]
pub enum JobError {
    /// The spec describes no job that could run. Every spec of a batch is
    /// checked before anything is built, leased or spawned.
    InvalidSpec {
        /// The job's name.
        job: String,
        /// Which field is out of range.
        reason: &'static str,
    },
    /// The job's thread panicked; the batch still joined every other job.
    Panicked {
        /// The job's name.
        job: String,
        /// The panic's message.
        message: String,
    },
    /// The job's scheme could not be built or its training failed; the
    /// batch still joined every other job.
    Failed {
        /// The job's name.
        job: String,
        /// The job's own error, also its [`std::error::Error::source`].
        source: BoxError,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::InvalidSpec { job, reason } => write!(f, "job `{job}`: {reason}"),
            JobError::Panicked { job, message } => write!(f, "job `{job}` panicked: {message}"),
            JobError::Failed { job, source } => write!(f, "job `{job}`: {source}"),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::Failed { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|m| m.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "a panic without a message".to_string())
}

/// What the tenants of one build key share: the code, the dataset, and
/// the rng's state after both were drawn, which seeds each tenant's
/// training stream.
#[derive(Debug, Clone)]
struct Built {
    code: CodingMatrix,
    data: Arc<Dataset>,
    rng: StdRng,
}

/// One build per distinct build key of a batch: everything a job's code
/// and dataset are drawn from on the batch's one pool (seed, scheme kind,
/// straggler budget, sample count, dimension). Every key is built on the
/// calling thread, one after another, before any job thread starts and
/// outside any lease; each job then clones its key's build, error
/// included. The datasets so come from the caller's malloc arena, which
/// reuses their memory batch after batch, instead of from the arena of
/// whichever job thread asked first, which keeps it resident once freed.
struct SharedBuilds {
    /// Per job, the index of its key's build.
    cell_of: Vec<usize>,
    builds: Vec<Result<Built, CodingError>>,
}

impl SharedBuilds {
    fn new(pool: &SharedWorkerPool, jobs: &[JobSpec]) -> Self {
        let (mut keys, mut builds) = (Vec::new(), Vec::new());
        let cell_of = jobs
            .iter()
            .map(|spec| {
                let key = (
                    spec.seed,
                    spec.kind,
                    spec.stragglers,
                    spec.samples,
                    spec.dim,
                );
                keys.iter().position(|k| *k == key).unwrap_or_else(|| {
                    keys.push(key);
                    builds.push(build(pool, spec));
                    keys.len() - 1
                })
            })
            .collect();
        SharedBuilds { cell_of, builds }
    }

    fn get(&self, job: usize) -> Result<Built, CodingError> {
        self.builds[self.cell_of[job]].clone()
    }
}

/// Draws a job's code and dataset from a fresh rng seeded with its seed.
fn build(pool: &SharedWorkerPool, spec: &JobSpec) -> Result<Built, CodingError> {
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
    let data = Arc::new(synthetic::linear_regression(
        spec.samples,
        spec.dim,
        0.01,
        &mut rng,
    ));
    Ok(Built {
        code: scheme.code,
        data,
        rng,
    })
}

/// Runs one job end to end from its build: admit → spawn the tenant
/// cluster (shared-plan cache attached) → train while the lease is held.
fn run_job(
    pool: &SharedWorkerPool,
    spec: &JobSpec,
    built: Result<Built, CodingError>,
    metrics: Option<&MetricsRegistry>,
) -> Result<TrainOutcome, BoxError> {
    let Built {
        code,
        data,
        mut rng,
    } = built?;
    let model = Arc::new(LinearRegression::new(spec.dim));
    let config = RuntimeConfig {
        behaviors: pool.behaviors().to_vec(),
        backend: spec.backend,
        escalation: spec.escalation.clone(),
        shared_plans: Some(pool.shared_plans()),
    };

    let _lease = pool.lease();
    let mut engine = ThreadedEngine::new(code, Arc::clone(&model), Arc::clone(&data), &config)?
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

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> SharedWorkerPool {
        SharedWorkerPool::new(vec![1.0, 2.0, 2.0, 4.0])
    }

    /// A job's code, dataset and rng as one tenant with no other of its
    /// key draws them: scheme, then synthesis, from one seeded rng.
    fn solo(pool: &SharedWorkerPool, spec: &JobSpec) -> Built {
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let code = scheme_from_estimates(
            spec.kind,
            pool.base_rates(),
            spec.stragglers,
            None,
            &mut rng,
        )
        .expect("solo scheme")
        .code;
        let data = synthetic::linear_regression(spec.samples, spec.dim, 0.01, &mut rng);
        Built {
            code,
            data: Arc::new(data),
            rng,
        }
    }

    fn bits(built: &Built) -> (Vec<u64>, Vec<u64>) {
        let code = built.code.matrix().as_slice().iter().map(|v| v.to_bits());
        let data = &built.data;
        let samples = (0..data.len()).flat_map(|i| {
            let x = data.features_of(i).iter().map(|v| v.to_bits());
            x.chain(std::iter::once(data.regression_target(i).to_bits()))
        });
        (code.collect(), samples.collect())
    }

    /// Every job's clone of its key's build.
    fn per_job(builds: &SharedBuilds) -> Vec<Result<Built, CodingError>> {
        (0..builds.cell_of.len())
            .map(|job| builds.get(job))
            .collect()
    }

    #[test]
    fn equal_keys_build_once_and_share_the_dataset() {
        // Only the build key is equal: name, rounds and learning rate are
        // per tenant.
        let sched = (0..4)
            .map(|t| {
                let mut spec = JobSpec::new(format!("tenant-{t}"))
                    .with_rounds(2 + t)
                    .with_seed(11);
                spec.learning_rate = 0.05 * (t + 1) as f64;
                spec
            })
            .fold(JobScheduler::new(pool()), JobScheduler::submit);
        let builds = SharedBuilds::new(&sched.pool, &sched.jobs);
        assert_eq!((builds.builds.len(), &builds.cell_of[..]), (1, &[0; 4][..]));
        let built = per_job(&builds);
        let first = built[0].as_ref().unwrap();
        for other in &built[1..] {
            assert!(Arc::ptr_eq(&first.data, &other.as_ref().unwrap().data));
        }

        let runs = sched.run_jobs(&builds, true);
        for (run, t) in runs.iter().zip(0..) {
            assert_eq!(run.as_ref().expect("tenant").rounds(), 2 + t);
        }
    }

    #[test]
    fn distinct_inputs_build_apart() {
        let base = JobSpec::new("base").with_seed(11);
        let mut group = base.clone();
        group.kind = SchemeKind::GroupBased;
        let jobs = vec![
            base.clone(),
            base.clone().with_seed(12),
            base.clone().with_workload(64, 5),
            base.clone().with_workload(72, 4),
            base.clone().with_stragglers(2),
            group,
        ];
        // Equal rates, so that s = 2 is feasible too.
        let builds = SharedBuilds::new(&SharedWorkerPool::new(vec![1.0; 4]), &jobs);
        assert_eq!(builds.builds.len(), 6);
        let built = per_job(&builds);
        for (i, a) in built.iter().enumerate() {
            for b in &built[i + 1..] {
                let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
                assert!(!Arc::ptr_eq(&a.data, &b.data));
            }
        }
    }

    #[test]
    fn shared_builds_are_bitwise_solo_builds() {
        let pool = pool();
        let jobs: Vec<JobSpec> = [5, 5, 9, 5, 9]
            .into_iter()
            .map(|seed| JobSpec::new(format!("seed-{seed}")).with_seed(seed))
            .collect();
        let builds = SharedBuilds::new(&pool, &jobs);
        assert_eq!(builds.builds.len(), 2);
        for (spec, built) in jobs.iter().zip(&per_job(&builds)) {
            let (built, alone) = (built.as_ref().unwrap(), solo(&pool, spec));
            assert_eq!(built.code, alone.code, "{}", spec.name);
            assert_eq!(bits(built), bits(&alone), "{}", spec.name);
            assert_eq!(built.rng, alone.rng, "{}", spec.name);
        }
    }

    #[test]
    fn a_failing_build_fails_every_tenant_of_its_key() {
        // s = 4 on a 4-worker pool places no code.
        let pool = pool();
        let solo = scheme_from_estimates(
            SchemeKind::HeterAware,
            pool.base_rates(),
            4,
            None,
            &mut StdRng::seed_from_u64(7),
        )
        .expect_err("s >= m builds no code")
        .to_string();
        let sched = JobScheduler::new(pool)
            .submit(JobSpec::new("a").with_stragglers(4))
            .submit(JobSpec::new("fine").with_rounds(1))
            .submit(JobSpec::new("b").with_stragglers(4))
            .submit(JobSpec::new("c").with_stragglers(4));
        for concurrent in [true, false] {
            let builds = SharedBuilds::new(&sched.pool, &sched.jobs);
            assert_eq!(builds.builds.len(), 2);
            let runs = sched.run_jobs(&builds, concurrent);
            for (run, spec) in runs.iter().zip(&sched.jobs) {
                match run {
                    Ok(_) => assert_eq!(spec.name, "fine"),
                    Err(e) => assert_eq!(e.to_string(), solo, "{}", spec.name),
                }
            }
            assert!(runs[1].is_ok());
        }
    }

    #[test]
    fn a_failed_job_is_named_and_keeps_its_error() {
        // s = 4 on a 4-worker pool places no code.
        let pool = pool();
        let solo = scheme_from_estimates(
            SchemeKind::HeterAware,
            pool.base_rates(),
            4,
            None,
            &mut StdRng::seed_from_u64(7),
        )
        .expect_err("s >= m builds no code");
        let sched = JobScheduler::new(pool)
            .submit(JobSpec::new("fine").with_rounds(1))
            .submit(JobSpec::new("too-many-stragglers").with_stragglers(4));
        for err in [sched.run(), sched.run_sequential()].map(Result::unwrap_err) {
            assert!(
                matches!(
                    err.downcast_ref::<JobError>(),
                    Some(JobError::Failed { job, .. }) if job == "too-many-stragglers"
                ),
                "{err:?}"
            );
            assert_eq!(
                err.to_string(),
                format!("job `too-many-stragglers`: {solo}")
            );
            let source = err.source().expect("the job's own error");
            assert_eq!(source.downcast_ref::<CodingError>(), Some(&solo));
        }
    }

    #[test]
    fn a_panicking_job_is_its_own_error() {
        // Both jobs share one valid build, but past the spec check a zero
        // dimension panics in the model's constructor on the job's own
        // thread; the batch still joins the other job.
        let fine = JobSpec::new("fine").with_rounds(1);
        let builds = SharedBuilds::new(&pool(), &[fine.clone(), fine.clone()]);
        let unchecked = JobSpec {
            name: "unchecked".into(),
            dim: 0,
            ..fine.clone()
        };
        let sched = JobScheduler::new(pool()).submit(fine).submit(unchecked);
        for concurrent in [true, false] {
            let runs = sched.run_jobs(&builds, concurrent);
            assert!(runs[0].is_ok());
            let err = runs[1].as_ref().expect_err("panicked");
            match err.downcast_ref::<JobError>() {
                Some(JobError::Panicked { job, message }) => {
                    assert_eq!(job, "unchecked");
                    assert!(message.contains("dimension must be positive"), "{message}");
                }
                other => panic!("expected a panicked job, got {other:?}"),
            }
        }
    }
}
