//! The engines behind the unified training loop: each [`RoundEngine`]
//! implementation produces one *collect round* — arrivals, a decoded (or
//! escalated) gradient, and the round's clock — while [`TrainDriver`]
//! owns everything the rounds have in common: the model, the optimizer,
//! loss evaluation, metrics and the unified [`TrainOutcome`] report.
//!
//! Three engines cover the workspace's execution styles:
//!
//! * [`SimBspEngine`] — the discrete-event BSP simulator, escalation
//!   ladder included, and the only simulated BSP round in the workspace:
//!   with a model it runs real SGD (the paper's Fig. 4), without one it is
//!   the timing-only engine of Figs. 2, 3, 5 and of the static-vs-adaptive
//!   drift comparison (`gradient: None`);
//! * [`SimSspEngine`] — the event-driven SSP scheduler running the
//!   classic uncoded per-worker-update baseline
//!   ([`SimSspEngine::shard`], the paper's Fig. 4 SSP curve);
//! * [`ClusterEngine`] — the wall-clock master (`hetgc_runtime::Master`)
//!   over whichever transport its cluster runs on: [`ThreadedEngine`] is
//!   one OS thread per worker (`hetgc_runtime::ThreadedCluster`),
//!   `hetgc-net`'s `SocketEngine` is TCP worker processes.
//!
//! The two coded engines ([`SimBspEngine`] and [`ClusterEngine`]) decide
//! a round with the *same* function, [`hetgc_coding::collect_round`], on
//! their own clocks, and keep their deadline in the same place: the
//! [`EscalatingCodec`]'s policy, set through its one guarded
//! [`EscalatingCodec::set_deadline`].
//!
//! [`TrainDriver`]: crate::TrainDriver
//! [`TrainOutcome`]: crate::TrainOutcome

use std::ops::DerefMut;
use std::sync::Arc;

use hetgc_cluster::{PartitionAssignment, StragglerModel};
use hetgc_coding::{
    gradient_error_bound_l2, kernels, CodecSession, CodingMatrix, DecodePlan, EscalatingCodec,
    EscalationPolicy, GradientCodec,
};
use hetgc_ml::{Dataset, Model, PartialSink};
use hetgc_obs::{Phase, Recorder};
pub use hetgc_runtime::EngineRound;
use hetgc_runtime::{Master, RuntimeConfig, RuntimeError, ThreadedCluster, Transport};
use hetgc_sim::{
    simulate_bsp_iteration_in, BspIterationConfig, NetworkModel, RateDrift, SspEngine,
};
use hetgc_telemetry::RoundSample;
use rand::RngCore;

use crate::scheme::{scheme_from_estimates, BoxError, SchemeInstance, SchemeKind};
use crate::trainer::SimTrainConfig;

/// One collect-round producer: the pluggable half of the unified training
/// loop. Implementations own their execution substrate (simulator event
/// queues, worker threads, codec sessions); the driver owns the model,
/// optimizer and reporting.
pub trait RoundEngine {
    /// Number of workers in the engine's cluster.
    fn workers(&self) -> usize;

    /// Number of data partitions the engine's code splits the dataset
    /// into (used by the driver's residual-aware step scaling).
    fn partitions(&self) -> usize;

    /// Label for the outcome's loss curve (scheme name, "ssp", …).
    fn label(&self) -> &str;

    /// Executes collect round `round` (1-based, strictly increasing) at
    /// the given parameters.
    ///
    /// # Errors
    ///
    /// Configuration and infrastructure errors only — an *undecodable*
    /// round is not an error on any engine; report it via
    /// [`EngineRound::failed`].
    fn round(
        &mut self,
        round: usize,
        params: &[f64],
        rng: &mut dyn RngCore,
    ) -> Result<EngineRound, BoxError>;

    /// Observes the parameters after the driver's optimizer step —
    /// engines with stale-parameter semantics (SSP) snapshot them here.
    fn after_step(&mut self, _params: &[f64]) {}

    /// Installs a flight recorder: from now on the engine emits
    /// per-phase spans (encode, collect, decode, …) and per-arrival
    /// instants into it. The default ignores the recorder — an engine
    /// with no hot phases to report stays span-free.
    fn attach_recorder(&mut self, _recorder: Recorder) {}

    /// Installs a learned escalation deadline (seconds from round start —
    /// simulated or wall-clock, matching the engine's substrate). Engines
    /// whose escalation ladder cannot fire ignore the call; the default
    /// does nothing.
    fn set_deadline(&mut self, _deadline: f64) {}

    /// Whether [`RoundEngine::recode`] can install a rebuilt code.
    fn supports_recode(&self) -> bool {
        false
    }

    /// Rebuilds the coding strategy from fresh throughput estimates
    /// (Eq. 5 → Eq. 6 → Alg. 1/3) and hot-swaps it in before the next
    /// round. Returns `Ok(true)` when the new code was installed,
    /// `Ok(false)` when the rebuild was declined (infeasible estimates,
    /// unsupported engine) — the round loop keeps the old code either
    /// way.
    ///
    /// # Errors
    ///
    /// Infrastructure failures only (e.g. a worker lost mid-swap).
    fn recode(&mut self, _estimates: &[f64], _rng: &mut dyn RngCore) -> Result<bool, BoxError> {
        Ok(false)
    }

    /// The throughput estimates the engine's current code was built from,
    /// used as the fallback for workers the telemetry has not observed
    /// yet. `None` when unknown (the wall-clock master).
    fn initial_estimates(&self) -> Option<Vec<f64>> {
        None
    }

    /// Per-worker partition loads of the engine's *current* code
    /// (`load_of` per worker). No engine reports them and nothing in the
    /// workspace reads them; the method stays only because the benchmark
    /// harness's `TimedEngine` (`benchmark/src/timed.rs`) forwards it.
    fn worker_loads(&self) -> Option<Vec<usize>> {
        None
    }
}

/// A [`RoundEngine`] whose round can be split into a non-blocking
/// dispatch (workers start computing) and a blocking collect (the master
/// gathers, decodes and combines) — the contract `PipelinedDriver` uses
/// to double-buffer rounds: while the workers fill round `t+1`'s gradient
/// block, the master is still decoding round `t`'s and running the
/// optimizer/loss work that a sequential driver would put on the critical
/// path.
///
/// Implemented by [`ClusterEngine`] (real workers genuinely overlap);
/// the discrete-event simulators have no wall-clock to overlap and do not
/// implement it.
pub trait PipelinedEngine: RoundEngine {
    /// Starts collect round `round` at the given parameters without
    /// waiting for results.
    ///
    /// # Errors
    ///
    /// Infrastructure errors only (a round already in flight, lost
    /// workers).
    fn dispatch(&mut self, round: usize, params: &[f64]) -> Result<(), BoxError>;

    /// Completes the round started by the last
    /// [`PipelinedEngine::dispatch`].
    ///
    /// # Errors
    ///
    /// Same contract as [`RoundEngine::round`].
    fn collect(&mut self, round: usize) -> Result<EngineRound, BoxError>;
}

/// The learning-rate multiplier for a round with the given decode
/// residual: exactly `1.0` on exact rounds, `1/(1+ρ) ∈ (0, 1)` on
/// approximate rounds — the step shrinks with the relative gradient
/// error, never to zero and never below the trust the bound justifies.
///
/// `ρ` is the relative gradient-error bound: `error_bound / ‖g‖` when the
/// engine computed the rigorous bound
/// ([`gradient_error_bound_l2`] over the per-partition gradient norms)
/// and the decoded gradient is non-zero, else the dimensionless
/// `residual / √k` — the fraction of the all-ones decode target the plan
/// leaves unexplained (`‖1‖₂ = √k`).
pub fn residual_step_scale(
    residual: f64,
    error_bound: Option<f64>,
    gradient_norm: f64,
    partitions: usize,
) -> f64 {
    if residual <= 0.0 {
        return 1.0;
    }
    let relative = match error_bound {
        Some(bound) if gradient_norm > 0.0 && bound.is_finite() => bound / gradient_norm,
        _ => residual / (partitions.max(1) as f64).sqrt(),
    };
    1.0 / (1.0 + relative.max(0.0))
}

/// [`residual_step_scale`] with the round's measured wire quantization
/// error folded in: the quantization error is an L2 deviation of the
/// decoded gradient of exactly the same shape as an approximate decode's,
/// so its relative magnitude (`wire_error / ‖g‖`) composes additively
/// with the decode term in the denominator. A lossless round
/// (`wire_error ≤ 0`) is bitwise the old path — socket runs over `f64`
/// links train byte-identically to before compression existed.
pub(crate) fn combined_step_scale(
    residual: f64,
    error_bound: Option<f64>,
    wire_error: f64,
    gradient_norm: f64,
    partitions: usize,
) -> f64 {
    if wire_error <= 0.0 || gradient_norm <= 0.0 {
        return residual_step_scale(residual, error_bound, gradient_norm, partitions);
    }
    let decode_relative = if residual <= 0.0 {
        0.0
    } else {
        match error_bound {
            Some(bound) if bound.is_finite() => bound / gradient_norm,
            _ => residual / (partitions.max(1) as f64).sqrt(),
        }
    };
    1.0 / (1.0 + decode_relative.max(0.0) + wire_error / gradient_norm)
}

/// The data plane of one simulated round's decoded gradient, held by
/// the BSP engine. The master decodes `Σ_w a_w g̃_w` from
/// coded results `g̃_w = Σ_j B_wj g_j`; holding `B` and every partition in
/// one process, the simulator applies the plan to `B` instead and folds
/// each partition once, `Σ_j c_j g_j` with `c = aᵀB`. That reassociates
/// the master's double sum (equal to rounding, not to the bit) and needs
/// no coded rows and no `k × d` partials block; `‖c − 1‖₂` is the residual.
#[derive(Debug)]
struct CodedPlane {
    ranges: Vec<(usize, usize)>,
    /// `aᵀB` of the round's plan.
    c: Vec<f64>,
    /// One partition's gradient, where it is not folded as it is formed.
    scratch: Vec<f64>,
}

impl CodedPlane {
    /// A plane over `samples` samples split evenly into `k` partitions.
    fn new(samples: usize, k: usize) -> Result<Self, BoxError> {
        Ok(CodedPlane {
            ranges: PartitionAssignment::even(samples, k)?.iter().collect(),
            c: Vec::new(),
            scratch: Vec::new(),
        })
    }

    /// The gradient `plan` decodes at `params`, plus the rigorous
    /// [`gradient_error_bound_l2`] for approximate plans, which write each
    /// `g_j` out to take its norm and then `axpy` it: bitwise the exact
    /// plans' [`PartialSink::Fold`]. Debug builds hold exact plans to the
    /// direct full-batch gradient.
    fn gradient<M: Model + ?Sized>(
        &mut self,
        codec: &EscalatingCodec,
        plan: &DecodePlan,
        model: &M,
        params: &[f64],
        data: &Dataset,
        recorder: Option<&Recorder>,
    ) -> (Vec<f64>, Option<f64>) {
        let decode_span = recorder.map(|r| r.span(Phase::Decode));
        let base = codec.base();
        self.c.clear();
        self.c.resize(self.ranges.len(), 0.0);
        for (w, a) in plan.iter() {
            for (&j, &b) in base.support_of(w).iter().zip(base.coefficients_of(w)) {
                self.c[j] += a * b;
            }
        }
        drop(decode_span);
        let encode_span = recorder.map(|r| r.span(Phase::Encode));
        let d = model.num_params();
        self.scratch.resize(d, 0.0);
        let (c, scratch) = (&self.c, &mut self.scratch);
        let mut gradient = vec![0.0; d];
        let error_bound = if plan.residual() > 0.0 {
            let mut norms = vec![0.0; c.len()];
            model.for_each_partial(params, data, &self.ranges, &mut |j, fill| {
                fill(PartialSink::Write(scratch));
                norms[j] = scratch.iter().map(|x| x * x).sum::<f64>().sqrt();
                kernels::axpy(c[j], scratch, &mut gradient);
            });
            Some(gradient_error_bound_l2(plan.residual(), &norms))
        } else {
            model.for_each_partial(params, data, &self.ranges, &mut |j, fill| {
                fill(PartialSink::Fold {
                    coef: c[j],
                    acc: &mut gradient,
                    scratch,
                })
            });
            None
        };
        drop(encode_span);
        debug_assert!(
            error_bound.is_some() || {
                let direct = model.gradient(params, data, (0, data.len()));
                gradient
                    .iter()
                    .zip(&direct)
                    .all(|(a, b)| (a - b).abs() <= 1e-6 * (1.0 + b.abs()))
            },
            "decoded gradient deviates from direct full-batch gradient"
        );
        (gradient, error_bound)
    }
}

// ------------------------------------------------------------- BSP (sim)

/// The one simulated BSP engine: every round samples straggler events,
/// simulates arrivals and decodes at the earliest decodable prefix (with
/// the codec's fallback at the policy deadline or round end; only the
/// [`CodecBackend::Approx`](hetgc_coding::CodecBackend::Approx) backend
/// has one). An engine
/// built with [`SimBspEngine::new`] then applies the decode plan to `B`
/// and folds the partitions' gradients with `aᵀB`: the master's decode up
/// to reassociation, with no coded rows. The timing-only engine behind
/// `experiment::run_timing` (Figs. 2, 3, 5) and `adaptive::run_with_drift`
/// is the same round with no model to differentiate: `gradient: None`.
///
/// The adaptation hooks are fully wired: every round emits
/// [`RoundSample`]s, [`SimBspEngine::with_drift`] injects a
/// [`RateDrift`] schedule so drifting clusters compose with real SGD
/// training, [`RoundEngine::set_deadline`] feeds a learned escalation
/// deadline into the simulated master, and [`RoundEngine::recode`]
/// rebuilds the scheme from fresh estimates and hot-swaps codec, session
/// and partition ranges between rounds.
#[derive(Debug)]
pub struct SimBspEngine<'a, M: Model + ?Sized> {
    codec: EscalatingCodec,
    session: CodecSession,
    /// The training half — model, dataset and the gradient data plane over
    /// its partitions; `None` for a timing-only engine.
    training: Option<(&'a M, &'a Dataset, CodedPlane)>,
    /// Samples one round covers: the dataset's length, or the count a
    /// timing-only engine was given.
    samples: usize,
    rates: Vec<f64>,
    drift: Option<RateDrift>,
    network: NetworkModel,
    payload_bytes: f64,
    compute_jitter: f64,
    stragglers: StragglerModel,
    label: String,
    /// Session-pool counters at the end of the previous round, for
    /// per-round `pool_hits` / `alloc_bytes` deltas.
    pool_mark: (u64, u64),
    // Re-code inputs: what the scheme was built as, so a rebuild from
    // fresh estimates reconstructs the same kind of code.
    kind: SchemeKind,
    straggler_budget: usize,
    backend: hetgc_coding::CodecBackend,
    recodes: usize,
    /// Flight recorder, when the driver attached one.
    recorder: Option<Recorder>,
}

impl<'a, M: Model + ?Sized> SimBspEngine<'a, M> {
    /// An engine for `scheme` over the given cluster rates, with the
    /// simulation knobs of `cfg` and the escalation `policy` (deadline,
    /// and a budget that replaces the approximate stage's own) wired onto
    /// the configured backend.
    ///
    /// # Errors
    ///
    /// Configuration mismatches (rates length, partitioning) and backend
    /// compilation failures.
    pub fn new(
        scheme: &SchemeInstance,
        model: &'a M,
        data: &'a Dataset,
        rates: &[f64],
        cfg: &SimTrainConfig,
        policy: EscalationPolicy,
    ) -> Result<Self, BoxError> {
        Self::build(scheme, Some((model, data)), data.len(), rates, cfg, policy)
    }

    fn build(
        scheme: &SchemeInstance,
        training: Option<(&'a M, &'a Dataset)>,
        samples: usize,
        rates: &[f64],
        cfg: &SimTrainConfig,
        policy: EscalationPolicy,
    ) -> Result<Self, BoxError> {
        let base = scheme.compile_backend(cfg.backend)?;
        let codec = EscalatingCodec::new(base, policy);
        let m = codec.workers();
        let k = codec.partitions();
        if rates.len() != m {
            return Err(format!("rates len {} != m={m}", rates.len()).into());
        }
        let training = training
            .map(|(model, data)| CodedPlane::new(samples, k).map(|plane| (model, data, plane)))
            .transpose()?;
        let session = codec.session();
        Ok(SimBspEngine {
            codec,
            session,
            training,
            samples,
            rates: rates.to_vec(),
            drift: None,
            network: cfg.network,
            payload_bytes: cfg.payload_bytes,
            compute_jitter: cfg.compute_jitter,
            stragglers: cfg.stragglers.clone(),
            label: scheme.kind.name().to_owned(),
            pool_mark: (0, 0),
            kind: scheme.kind,
            straggler_budget: scheme.stragglers(),
            backend: cfg.backend,
            recodes: 0,
            recorder: None,
        })
    }

    /// Evolves the cluster's *true* rates over the run: round `t` (1-based
    /// driver rounds, 0-based drift iterations) simulates at
    /// `drift.rates_at(rates, t − 1)`. [`RateDrift::None`] is bitwise
    /// identical to no drift at all.
    pub fn with_drift(mut self, drift: RateDrift) -> Self {
        self.drift = (!drift.is_static()).then_some(drift);
        self
    }

    /// The escalation-wrapped codec this engine decodes with.
    pub fn codec(&self) -> &EscalatingCodec {
        &self.codec
    }
}

// No model: the type parameter only names the absent training half.
impl SimBspEngine<'static, hetgc_ml::LinearRegression> {
    /// The timing-only engine: [`SimBspEngine::new`]'s round over `samples`
    /// work units with nothing to differentiate. With no dataset to range
    /// over, any partition count is accepted — here and on
    /// [`RoundEngine::recode`].
    pub(crate) fn timing(
        scheme: &SchemeInstance,
        samples: usize,
        rates: &[f64],
        cfg: &SimTrainConfig,
        policy: EscalationPolicy,
    ) -> Result<Self, BoxError> {
        Self::build(scheme, None, samples, rates, cfg, policy)
    }
}

impl<M: Model + ?Sized> RoundEngine for SimBspEngine<'_, M> {
    fn workers(&self) -> usize {
        self.codec.workers()
    }

    fn partitions(&self) -> usize {
        self.codec.partitions()
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn round(
        &mut self,
        round: usize,
        params: &[f64],
        rng: &mut dyn RngCore,
    ) -> Result<EngineRound, BoxError> {
        let m = self.codec.workers();
        let events = self.stragglers.sample_iteration(m, rng);
        let drifted = self
            .drift
            .as_ref()
            .map(|d| d.rates_at(&self.rates, round.saturating_sub(1)));
        let rates = drifted.as_deref().unwrap_or(&self.rates);
        let work_per_partition = self.samples as f64 / self.codec.partitions() as f64;
        let mut sim_cfg = BspIterationConfig::new(rates)
            .work_per_partition(work_per_partition)
            .network(self.network)
            .payload_bytes(self.payload_bytes)
            .compute_jitter(self.compute_jitter);
        if let Some(deadline) = self.codec.policy().deadline() {
            sim_cfg = sim_cfg.fallback_deadline(deadline.as_secs_f64());
        }
        let collect_span = self.recorder.as_ref().map(|r| r.span(Phase::Collect));
        let outcome =
            simulate_bsp_iteration_in(&self.codec, &sim_cfg, &events, rng, &mut self.session)?;
        let Some(iter_time) = outcome.completion else {
            // A stalled round ends the run, as on the wall-clock master.
            return Ok(EngineRound::failed(true));
        };

        // The arrivals are part of the collect, as on the wall-clock master.
        let samples = bsp_samples(&self.codec, &outcome, work_per_partition, iter_time);
        if let Some(rec) = &self.recorder {
            for s in samples.iter().filter(|s| !s.failed) {
                rec.instant(Phase::Arrival, (s.worker + 1) as u64);
            }
        }
        drop(collect_span);

        let (gradient, error_bound) = match &mut self.training {
            Some((model, data, plane)) => {
                let (plan, rec) = (&outcome.plan, self.recorder.as_ref());
                let (g, bound) = plane.gradient(&self.codec, plan, *model, params, data, rec);
                (Some(g), bound)
            }
            None => (None, None),
        };
        let (pool_hits, alloc_bytes) = pool_delta(&self.session, &mut self.pool_mark);

        Ok(EngineRound {
            elapsed: Some(iter_time),
            at: None,
            gradient,
            residual: outcome.plan.residual(),
            error_bound,
            results_used: outcome.plan.len(),
            busy: outcome.busy,
            samples,
            alloc_bytes,
            pool_hits,
            bytes_sent: 0,
            bytes_received: 0,
            wire_error: 0.0,
            bytes_saved: 0,
            stop: false,
        })
    }

    fn attach_recorder(&mut self, recorder: Recorder) {
        self.recorder = Some(recorder);
    }

    fn set_deadline(&mut self, deadline: f64) {
        self.codec.set_deadline(deadline);
    }

    fn supports_recode(&self) -> bool {
        true
    }

    fn recode(&mut self, estimates: &[f64], rng: &mut dyn RngCore) -> Result<bool, BoxError> {
        let _recode_span = self.recorder.as_ref().map(|r| r.span(Phase::Recode));
        let Ok(scheme) =
            scheme_from_estimates(self.kind, estimates, self.straggler_budget, None, rng)
        else {
            return Ok(false); // infeasible estimates: keep the old code
        };
        // The rebuilt scheme is ours: hand its code to the compile.
        let Ok(base) = self.backend.compile(scheme.code, Some(&scheme.groups)) else {
            return Ok(false);
        };
        let codec = EscalatingCodec::new(base, self.codec.policy().clone());
        let k = codec.partitions();
        if let Some((_, _, plane)) = &mut self.training {
            let Ok(rebuilt) = CodedPlane::new(self.samples, k) else {
                // Noisy estimates can push the suggested k past the dataset
                // size; an unpartitionable rebuild is declined, not fatal.
                return Ok(false);
            };
            *plane = rebuilt;
        }
        self.session = codec.session();
        self.pool_mark = (0, 0); // fresh session, fresh pool counters
        self.codec = codec;
        self.recodes += 1;
        Ok(true)
    }

    fn initial_estimates(&self) -> Option<Vec<f64>> {
        Some(self.rates.clone())
    }
}

/// Per-round delta of a session pool's `(hits, alloc_bytes)` counters —
/// the engines report data-plane behaviour per round, the pool counts
/// cumulatively.
fn pool_delta(session: &CodecSession, mark: &mut (u64, u64)) -> (u64, u64) {
    let now = (session.pool().hits(), session.pool().alloc_bytes());
    let delta = (now.0 - mark.0, now.1 - mark.1);
    *mark = now;
    delta
}

/// Per-worker telemetry of one simulated BSP round: compute/arrival times
/// straight from the simulator's [`hetgc_sim::Arrival`]s, work units from
/// the codec's loads.
fn bsp_samples(
    codec: &EscalatingCodec,
    outcome: &hetgc_sim::BspIteration,
    work_per_partition: f64,
    completion: f64,
) -> Vec<RoundSample> {
    outcome
        .arrivals
        .iter()
        .map(|arr| {
            let work = codec.load_of(arr.worker) as f64 * work_per_partition;
            if arr.arrive.is_finite() {
                let s = RoundSample::completed(arr.worker, work, arr.compute_end, arr.arrive);
                if arr.arrive > completion {
                    s.late()
                } else {
                    s
                }
            } else {
                RoundSample::failed(arr.worker, work)
            }
        })
        .collect()
}

// ------------------------------------------------------------- SSP (sim)

/// The event-driven SSP engine (Ho et al., the paper's \[17\]) as a
/// [`RoundEngine`]: the paper's uncoded baseline, built by
/// [`SimSspEngine::shard`].
#[derive(Debug)]
pub struct SimSspEngine<'a, M: Model + ?Sized> {
    engine: SspEngine,
    model: &'a M,
    data: &'a Dataset,
    last_time: f64,
    ranges: Vec<(usize, usize)>,
    snapshots: Vec<Vec<f64>>,
    last_worker: Option<usize>,
    /// Per-worker iteration times (compute + comm), the telemetry view of
    /// one shard pass.
    iter_times: Vec<f64>,
}

impl<'a, M: Model + ?Sized> SimSspEngine<'a, M> {
    /// The uncoded SSP baseline of Fig. 4: worker `w` owns the `w`-th of
    /// `m` even shards, computes its shard gradient on the parameters it
    /// saw when it last reported (true staleness dynamics), and every
    /// update event is one driver round. Drive it for
    /// `iterations × m` rounds to match the sample throughput of a BSP
    /// run of `iterations` rounds.
    ///
    /// # Errors
    ///
    /// Configuration mismatches (no workers, partitioning).
    pub fn shard(
        model: &'a M,
        data: &'a Dataset,
        rates: &[f64],
        staleness: usize,
        cfg: &SimTrainConfig,
    ) -> Result<Self, BoxError> {
        let m = rates.len();
        if m == 0 {
            return Err("no workers".into());
        }
        let assignment = PartitionAssignment::even(data.len(), m)?;
        let comm = cfg.network.transfer_time(cfg.payload_bytes);
        let iter_times: Vec<f64> = (0..m)
            .map(|w| {
                let (lo, hi) = assignment.range(w).expect("w < m");
                (hi - lo) as f64 / rates[w] + comm
            })
            .collect();
        let engine = SspEngine::new(iter_times.clone(), staleness)?;
        Ok(SimSspEngine {
            engine,
            model,
            data,
            last_time: 0.0,
            ranges: assignment.iter().collect(),
            snapshots: Vec::new(),
            last_worker: None,
            iter_times,
        })
    }
}

impl<M: Model + ?Sized> RoundEngine for SimSspEngine<'_, M> {
    fn workers(&self) -> usize {
        self.ranges.len()
    }

    fn partitions(&self) -> usize {
        self.ranges.len()
    }

    fn label(&self) -> &str {
        "ssp"
    }

    fn round(
        &mut self,
        _round: usize,
        params: &[f64],
        _rng: &mut dyn RngCore,
    ) -> Result<EngineRound, BoxError> {
        if self.snapshots.is_empty() {
            // First round: every worker starts from the initial
            // parameters.
            self.snapshots = vec![params.to_vec(); self.ranges.len()];
        }
        let Some(event) = self.engine.next_event() else {
            return Ok(EngineRound::failed(true));
        };
        let w = event.worker;
        let (lo, hi) = self.ranges[w];
        let gradient = self.model.gradient(&self.snapshots[w], self.data, (lo, hi));
        self.last_worker = Some(w);
        let elapsed = event.time - self.last_time;
        self.last_time = event.time;
        let samples = vec![RoundSample::completed(
            w,
            (hi - lo) as f64,
            self.iter_times[w],
            elapsed,
        )];
        Ok(EngineRound {
            elapsed: Some(elapsed),
            at: Some(event.time),
            gradient: Some(gradient),
            residual: 0.0,
            error_bound: None,
            results_used: 1,
            busy: Vec::new(),
            samples,
            alloc_bytes: 0,
            pool_hits: 0,
            bytes_sent: 0,
            bytes_received: 0,
            wire_error: 0.0,
            bytes_saved: 0,
            stop: false,
        })
    }

    fn after_step(&mut self, params: &[f64]) {
        if let Some(w) = self.last_worker.take() {
            // The worker immediately begins its next iteration on the
            // params it now observes.
            self.snapshots[w] = params.to_vec();
        }
    }
}

// ------------------------------------------------- real clusters (master)

/// A running [`Master`] — behind whichever cluster type `C` derefs to it —
/// as a [`RoundEngine`] and [`PipelinedEngine`]: each round broadcasts
/// the parameters to the cluster's workers, collects coded results, and
/// decodes (or escalates) through the same ladder as the simulated
/// engines. [`ThreadedEngine`] is this over `ThreadedCluster`;
/// `hetgc-net`'s `SocketEngine` wraps it over `SocketCluster`.
///
/// The master builds the round itself (`Master::round` /
/// `Master::collect` return an [`EngineRound`]), so both trait methods
/// forward. Telemetry comes from real wall-clock timings: each round's
/// [`RoundSample`]s carry the per-worker compute durations the workers
/// reported, with the transport's measured arrival time where it stamps
/// one. With [`ClusterEngine::with_recoding`], confirmed drift rebuilds
/// the scheme from the live workers' fresh estimates and hot-swaps it in
/// (`Master::recode`) between rounds; a learned deadline
/// ([`RoundEngine::set_deadline`]) becomes the master's round deadline
/// whenever the escalation ladder can actually fire, as on
/// [`SimBspEngine`].
///
/// As on the simulated engines, an undecodable round is
/// [`EngineRound::failed`] with `stop` set: the run ends stalled and
/// keeps every earlier record.
#[derive(Debug)]
pub struct ClusterEngine<C> {
    cluster: C,
    label: String,
    recode_spec: Option<(SchemeKind, usize)>,
    recodes: usize,
}

/// The real multi-threaded runtime as an engine: one OS thread per
/// worker, coded results over channels. [`ThreadedEngine::new`] starts
/// threads of its own; [`ClusterEngine::over`] wraps a cluster that
/// `ThreadedCluster::start_shared` put on threads other masters share.
pub type ThreadedEngine<M> = ClusterEngine<ThreadedCluster<M>>;

impl<M> ThreadedEngine<M>
where
    M: Model + Send + Sync + 'static,
{
    /// Spawns the worker threads (see `ThreadedCluster::start`); label
    /// `"threaded"`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidConfig`] on partitioning/backend problems.
    pub fn new(
        code: CodingMatrix,
        model: Arc<M>,
        data: Arc<Dataset>,
        config: &RuntimeConfig,
    ) -> Result<Self, RuntimeError> {
        let cluster = ThreadedCluster::start(code, model, data, config)?;
        Ok(ClusterEngine::over(cluster, "threaded"))
    }
}

impl<C> ClusterEngine<C> {
    /// Wraps a started cluster under the given curve label.
    pub fn over(cluster: C, label: impl Into<String>) -> Self {
        ClusterEngine {
            cluster,
            label: label.into(),
            recode_spec: None,
            recodes: 0,
        }
    }

    /// Overrides the curve label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Enables live re-coding: on [`RoundEngine::recode`] the engine
    /// rebuilds a `kind` scheme tolerating `stragglers` stragglers from
    /// the fresh estimates of the workers that can still reply and
    /// re-rows the cluster around it.
    pub fn with_recoding(mut self, kind: SchemeKind, stragglers: usize) -> Self {
        self.recode_spec = Some((kind, stragglers));
        self
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &C {
        &self.cluster
    }

    /// How many times [`RoundEngine::recode`] installed a rebuilt code.
    pub fn recodes(&self) -> usize {
        self.recodes
    }
}

impl<C, M, T> RoundEngine for ClusterEngine<C>
where
    C: DerefMut<Target = Master<M, T>>,
    M: Model,
    T: Transport,
{
    fn workers(&self) -> usize {
        self.cluster.workers()
    }

    fn partitions(&self) -> usize {
        self.cluster.partitions()
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn round(
        &mut self,
        _round: usize,
        params: &[f64],
        _rng: &mut dyn RngCore,
    ) -> Result<EngineRound, BoxError> {
        Ok(self.cluster.round(params)?)
    }

    fn attach_recorder(&mut self, recorder: Recorder) {
        self.cluster.attach_recorder(recorder);
    }

    fn set_deadline(&mut self, deadline: f64) {
        // Guarded by `Master::set_timeout`; a value no `Duration` holds
        // is ignored on the way.
        if let Ok(timeout) = std::time::Duration::try_from_secs_f64(deadline) {
            self.cluster.set_timeout(timeout);
        }
    }

    fn supports_recode(&self) -> bool {
        self.recode_spec.is_some()
    }

    fn recode(&mut self, estimates: &[f64], rng: &mut dyn RngCore) -> Result<bool, BoxError> {
        let Some((kind, stragglers)) = self.recode_spec else {
            return Ok(false);
        };
        // Rebuild around the workers that can still reply: a dead one
        // contributes no estimate and gets no row. Fewer than two cannot
        // carry a coded scheme — decline and keep limping.
        let live = self.cluster.live_rows();
        if live.len() < 2 {
            return Ok(false);
        }
        let survivors: Vec<f64> = live
            .iter()
            .filter_map(|&j| estimates.get(j).copied())
            .collect();
        if survivors.len() != live.len() {
            return Ok(false);
        }
        let Ok(scheme) = scheme_from_estimates(kind, &survivors, stragglers, None, rng) else {
            return Ok(false); // infeasible estimates: keep the old code
        };
        match self.cluster.recode(scheme.code) {
            Ok(()) => {
                self.recodes += 1;
                Ok(true)
            }
            // An unbuildable/unpartitionable rebuild declines (the old
            // regime keeps running, by `Master::recode`'s contract); only
            // infrastructure failures abort the run.
            Err(RuntimeError::InvalidConfig { .. }) => Ok(false),
            Err(e) => Err(e.into()),
        }
    }
}

impl<C, M, T> PipelinedEngine for ClusterEngine<C>
where
    C: DerefMut<Target = Master<M, T>>,
    M: Model,
    T: Transport,
{
    fn dispatch(&mut self, _round: usize, params: &[f64]) -> Result<(), BoxError> {
        self.cluster.dispatch(params).map_err(Into::into)
    }

    fn collect(&mut self, _round: usize) -> Result<EngineRound, BoxError> {
        Ok(self.cluster.collect()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::SchemeBuilder;
    use hetgc_cluster::{ClusterSpec, DelayDistribution};
    use hetgc_coding::{CodecBackend, GradientBlock};
    use hetgc_ml::{partial_gradients_into, synthetic, LinearRegression};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn step_scale_exact_rounds_untouched() {
        assert_eq!(residual_step_scale(0.0, None, 1.0, 7), 1.0);
        assert_eq!(residual_step_scale(0.0, Some(5.0), 1.0, 7), 1.0);
        assert_eq!(residual_step_scale(-1.0, None, 1.0, 7), 1.0);
    }

    #[test]
    fn step_scale_shrinks_with_the_bound() {
        // Relative bound 1 → halve the step.
        let s = residual_step_scale(0.5, Some(2.0), 2.0, 7);
        assert!((s - 0.5).abs() < 1e-12);
        // Tighter bound → larger step, still < 1.
        let s2 = residual_step_scale(0.5, Some(0.2), 2.0, 7);
        assert!(s2 > s && s2 < 1.0);
    }

    /// What the `SimBspEngine` tests share: four workers' rates, 20
    /// samples, a model, a heter-aware code with loads [4, 6, 8, 10].
    fn tiny_bsp() -> (Vec<f64>, Dataset, LinearRegression, SchemeInstance, StdRng) {
        let cluster =
            ClusterSpec::from_vcpu_rows("tiny", &[(1, 2), (1, 3), (1, 4), (1, 5)], 10.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let data = synthetic::linear_regression(20, 3, 0.01, &mut rng);
        let scheme = SchemeBuilder::new(&cluster, 1)
            .partitions(14) // integral loads, and ≤ 20 samples
            .build(SchemeKind::HeterAware, &mut rng)
            .unwrap();
        let model = LinearRegression::new(3);
        (cluster.throughputs(), data, model, scheme, rng)
    }

    #[test]
    fn recode_declines_when_partitioning_is_infeasible() {
        // Noisy live estimates make suggest_partition_count fall through
        // to 6m = 24 partitions, more than the 20-sample dataset can
        // hold: the training engine's rebuild must DECLINE (Ok(false)),
        // never abort the run, while the timing-only engine — no dataset
        // to range over — installs it. Both keep running rounds.
        let (rates, data, model, scheme, mut rng) = tiny_bsp();
        let cfg = SimTrainConfig::default();
        let policy = EscalationPolicy::follow_backend;
        let mut training =
            SimBspEngine::new(&scheme, &model, &data, &rates, &cfg, policy()).unwrap();
        let mut timing = SimBspEngine::timing(&scheme, data.len(), &rates, &cfg, policy()).unwrap();
        let noisy = [20.37, 29.11, 41.83, 50.2];
        let applied = training
            .recode(&noisy, &mut rng)
            .expect("decline, not abort");
        assert!(!applied, "unpartitionable rebuild must be declined");
        assert_eq!((training.recodes, training.partitions()), (0, 14));
        assert!(timing.recode(&noisy, &mut rng).unwrap());
        assert_eq!((timing.recodes, timing.partitions()), (1, 24));
        let params = model.init_params(&mut rng);
        let er = training.round(1, &params, &mut rng).unwrap();
        assert!(er.elapsed.is_some() && er.gradient.is_some());
        let er = timing.round(1, &[], &mut rng).unwrap();
        assert!(er.elapsed.is_some() && er.gradient.is_none());
    }

    #[test]
    fn timing_only_rounds_are_the_training_rounds_without_the_gradient() {
        let (rates, data, model, scheme, mut rng) = tiny_bsp();
        let cfg = SimTrainConfig {
            compute_jitter: 0.05,
            stragglers: StragglerModel::RandomChoice {
                count: 1,
                delay: DelayDistribution::Uniform {
                    low: 0.5,
                    high: 3.0,
                },
            },
            ..SimTrainConfig::default()
        };
        let params = model.init_params(&mut rng);
        let wave = RateDrift::Wave {
            period: 5.0,
            amplitude: 0.4,
        };
        for drift in [RateDrift::None, wave] {
            let policy = EscalationPolicy::follow_backend;
            let mut training = SimBspEngine::new(&scheme, &model, &data, &rates, &cfg, policy())
                .unwrap()
                .with_drift(drift.clone());
            let mut timing = SimBspEngine::timing(&scheme, data.len(), &rates, &cfg, policy())
                .unwrap()
                .with_drift(drift);
            let mut rng_a = StdRng::seed_from_u64(77);
            let mut rng_b = StdRng::seed_from_u64(77);
            for round in 1..=12 {
                let a = training.round(round, &params, &mut rng_a).unwrap();
                let b = timing.round(round, &[], &mut rng_b).unwrap();
                assert!(a.gradient.is_some() && b.gradient.is_none());
                assert_eq!(a.elapsed.map(f64::to_bits), b.elapsed.map(f64::to_bits));
                assert_eq!(a.results_used, b.results_used);
                assert_eq!(a.busy, b.busy);
                assert_eq!(a.samples, b.samples);
            }
        }
    }

    #[test]
    fn learned_deadline_is_ignored_where_the_ladder_cannot_escalate() {
        let (rates, data, _, scheme, mut rng) = tiny_bsp();
        let timing = |backend| {
            let cfg = SimTrainConfig {
                backend,
                ..SimTrainConfig::default()
            };
            let policy = EscalationPolicy::follow_backend();
            SimBspEngine::timing(&scheme, data.len(), &rates, &cfg, policy)
        };
        let mut exact = timing(CodecBackend::Auto).unwrap();
        let t = exact.round(1, &[], &mut rng).unwrap().elapsed.unwrap();
        // Before every arrival: installed, it would stall an exact round.
        exact.set_deadline(t / 100.0);
        assert_eq!(exact.codec().policy().deadline(), None);
        assert_eq!(exact.round(2, &[], &mut rng).unwrap().elapsed, Some(t));
        // Where the ladder can act, it is installed and survives a recode.
        let mut approx = timing(CodecBackend::Approx).unwrap();
        approx.set_deadline(t / 100.0);
        assert!(approx.recode(&rates, &mut rng).unwrap());
        let installed = std::time::Duration::from_secs_f64(t / 100.0);
        assert_eq!(approx.codec().policy().deadline(), Some(installed));
    }

    #[test]
    fn timing_only_engine_records_collect_and_arrivals_only() {
        let (rates, data, _, scheme, mut rng) = tiny_bsp();
        let cfg = SimTrainConfig::default();
        let policy = EscalationPolicy::follow_backend();
        let mut engine = SimBspEngine::timing(&scheme, data.len(), &rates, &cfg, policy).unwrap();
        let recorder = Recorder::new(256);
        engine.attach_recorder(recorder.clone());
        for round in 1..=3 {
            engine.round(round, &[], &mut rng).unwrap();
        }
        let count = |phase| {
            recorder
                .events()
                .iter()
                .filter(|e| e.phase == phase)
                .count()
        };
        assert_eq!(count(Phase::Collect), 3);
        assert_eq!(count(Phase::Arrival), 3 * engine.workers());
        assert_eq!(recorder.events().len(), 3 + 3 * engine.workers());
    }

    /// The decode `CodedPlane::gradient` replaced: every partition's
    /// gradient into a `k × d` block, `encode_into` per plan worker, one
    /// `apply_block_into` over the coded rows, and the bound from the
    /// block rows' norms.
    fn block_decoded(
        codec: &EscalatingCodec,
        plan: &DecodePlan,
        model: &LinearRegression,
        params: &[f64],
        data: &Dataset,
        ranges: &[(usize, usize)],
    ) -> (Vec<f64>, Option<f64>) {
        let mut partials = GradientBlock::new(0, 0);
        partial_gradients_into(model, params, data, ranges, &mut partials);
        let mut arrivals = GradientBlock::new(codec.workers(), model.num_params());
        for (w, _) in plan.iter() {
            codec
                .encode_into(w, &partials, arrivals.row_mut(w))
                .unwrap();
        }
        let mut gradient = vec![f64::NAN; model.num_params()];
        plan.apply_block_into(&arrivals, &mut gradient).unwrap();
        let bound = (plan.residual() > 0.0).then(|| {
            let norms: Vec<f64> = (0..partials.rows())
                .map(|j| partials.row(j).iter().map(|x| x * x).sum::<f64>().sqrt())
                .collect();
            gradient_error_bound_l2(plan.residual(), &norms)
        });
        (gradient, bound)
    }

    /// `Σ_j c_j · g_j` through one of `CodedPlane::gradient`'s two arms:
    /// `PartialSink::Fold`, or `PartialSink::Write` and then `axpy`.
    fn fold_arm(
        model: &LinearRegression,
        params: &[f64],
        data: &Dataset,
        ranges: &[(usize, usize)],
        c: &[f64],
        fused: bool,
    ) -> Vec<f64> {
        let mut gradient = vec![0.0; model.num_params()];
        let mut scratch = vec![0.0; model.num_params()];
        model.for_each_partial(params, data, ranges, &mut |j, fill| {
            if fused {
                fill(PartialSink::Fold {
                    coef: c[j],
                    acc: &mut gradient,
                    scratch: &mut scratch,
                });
            } else {
                fill(PartialSink::Write(&mut scratch));
                kernels::axpy(c[j], &scratch, &mut gradient);
            }
        });
        gradient
    }

    /// The fold's contract against [`block_decoded`]: the gradient within
    /// `1e-12·(1 + |g_e|)`, the bound to the bit.
    fn assert_folds_like_the_block_decode(
        (gradient, bound): (&[f64], Option<f64>),
        (expected, expected_bound): (&[f64], Option<f64>),
        what: &str,
    ) {
        for (j, (g, e)) in gradient.iter().zip(expected).enumerate() {
            assert!(
                (g - e).abs() <= 1e-12 * (1.0 + e.abs()),
                "{what}: coordinate {j}: fold {g} vs block decode {e}"
            );
        }
        assert_eq!(
            bound.map(f64::to_bits),
            expected_bound.map(f64::to_bits),
            "{what}: error bound"
        );
    }

    #[test]
    fn coefficient_fold_matches_the_block_decode() {
        // 3×1 + 2×2 + 1×3 vCPUs: six workers, s = 1, two groups for the
        // group-based scheme.
        let cluster = ClusterSpec::from_vcpu_rows("fold", &[(3, 1), (2, 2), (1, 3)], 50.0).unwrap();
        let model = LinearRegression::new(3);
        let mut approximate = 0;
        for kind in SchemeKind::ALL {
            let scheme = SchemeBuilder::new(&cluster, 1)
                .build(kind, &mut StdRng::seed_from_u64(31))
                .unwrap();
            let s = scheme.stragglers();
            for backend in [
                CodecBackend::Exact,
                CodecBackend::Group,
                CodecBackend::Approx,
            ] {
                let base = scheme.compile_backend(backend).unwrap();
                let codec = EscalatingCodec::new(base, EscalationPolicy::follow_backend());
                let (m, k) = (codec.workers(), codec.partitions());
                // Three samples a partition fold as they are formed; seven
                // take LinearRegression's write-then-axpy path.
                for per in [3, 7] {
                    let mut rng = StdRng::seed_from_u64(32);
                    let data = synthetic::linear_regression(k * per, 3, 0.1, &mut rng);
                    let params = model.init_params(&mut rng);
                    let mut plane = CodedPlane::new(data.len(), k).unwrap();
                    let ranges = plane.ranges.clone();
                    // Every straggler set of size 0, s and s + 1.
                    for mask in 0u32..1 << m {
                        let stragglers = mask.count_ones() as usize;
                        if ![0, s, s + 1].contains(&stragglers) {
                            continue;
                        }
                        let survivors: Vec<usize> =
                            (0..m).filter(|w| mask & (1 << w) == 0).collect();
                        let plan = codec
                            .decode_plan(&survivors)
                            .ok()
                            .or_else(|| codec.fallback_plan(&survivors));
                        let Some(plan) = plan else {
                            assert!(stragglers > s, "{kind}/{backend}: {mask:b} undecodable");
                            continue;
                        };
                        let what = format!("{kind}/{backend}/{per} per partition/{mask:b}");
                        let (gradient, bound) =
                            plane.gradient(&codec, &plan, &model, &params, &data, None);
                        let expected =
                            block_decoded(&codec, &plan, &model, &params, &data, &ranges);
                        assert_folds_like_the_block_decode(
                            (&gradient, bound),
                            (&expected.0, expected.1),
                            &what,
                        );
                        // Both arms over this plan's `c`, whichever one
                        // the plan took, give the same bits.
                        for fused in [true, false] {
                            let arm = fold_arm(&model, &params, &data, &ranges, &plane.c, fused);
                            assert_eq!(
                                arm.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                                gradient.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                                "{what}: fused {fused} disagrees"
                            );
                        }
                        if plan.residual() > 0.0 {
                            approximate += 1;
                            let off = plane.c.iter().map(|c| (c - 1.0).powi(2)).sum::<f64>();
                            let rel = (off.sqrt() - plan.residual()).abs() / plan.residual();
                            assert!(rel <= 1e-9, "{what}: ‖c − 1‖₂ off the residual by {rel}");
                        }
                    }
                }
            }
        }
        assert!(approximate > 0, "no approximate plan was exercised");
    }

    #[test]
    fn step_scale_residual_only_fallback() {
        // No bound available: ρ = residual/√k.
        let s = residual_step_scale(2.0, None, 123.0, 4);
        assert!((s - 1.0 / (1.0 + 2.0 / 2.0)).abs() < 1e-12);
        // Zero-norm gradients fall back the same way.
        let z = residual_step_scale(2.0, Some(1.0), 0.0, 4);
        assert_eq!(z, s);
    }
}
