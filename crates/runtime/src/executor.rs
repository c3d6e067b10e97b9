//! The threaded worker pool: [`ThreadedCluster`] is a [`Master`] whose
//! transport is a set of OS threads, one per worker, connected by
//! `crossbeam` channels. This is what the unified `hetgc::TrainDriver`
//! loop drives through its `ThreadedEngine`.
//!
//! A set of threads serves any number of masters:
//! [`ThreadedCluster::start`] puts one master on a private set,
//! [`ThreadedCluster::start_shared`] puts several on one set, as the
//! paper's `m` fixed workers serve the master's rounds (§III). Each
//! thread is row `w` of every master's code.
//!
//! The threads are spawned once. A recode re-rows them in place with
//! [`ToWorker::Recode`], as `hetgc-net` re-rows its links with
//! `Frame::Recode`, and a worker waits out its emulated delay on its
//! inbox — so neither a recode, a drop nor another master's round waits
//! for a sleeping straggler.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Receiver, Sender};
use hetgc_coding::{CodingMatrix, EscalatingCodec};
use hetgc_ml::{Dataset, Model};

use crate::config::{RuntimeConfig, WorkerBehavior};
use crate::error::RuntimeError;
use crate::master::{build_codec, row_shards, Master, RowShard, Transport};
use crate::message::{FromWorker, ToWorker};
use crate::worker::{worker_main, Row, Tenant};

/// The worker threads one or more masters share: one inbox per thread.
/// The last master to go shuts them down and joins them.
#[derive(Debug)]
struct WorkerThreads {
    inboxes: Vec<Sender<ToWorker>>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerThreads {
    /// Spawns thread `w` serving `tenants[w]` under `behaviors[w]`. The
    /// tenants were allocated on the calling thread, so no thread
    /// allocates, or is woken, before its first round.
    fn spawn(tenants: Vec<Vec<Tenant>>, behaviors: &[WorkerBehavior]) -> Arc<Self> {
        let (inboxes, handles) = tenants
            .into_iter()
            .zip(behaviors)
            .enumerate()
            .map(|(w, (tenants, behavior))| {
                let (tx, rx) = unbounded::<ToWorker>();
                let behavior = behavior.clone();
                let handle = std::thread::spawn(move || worker_main(w, behavior, tenants, rx));
                (tx, handle)
            })
            .unzip();
        Arc::new(WorkerThreads { inboxes, handles })
    }
}

impl Drop for WorkerThreads {
    fn drop(&mut self) {
        for tx in &self.inboxes {
            let _ = tx.send(ToWorker::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// The in-process [`Transport`]: parameters and coded gradients move as
/// `Arc`s over channels, nothing is serialized, and every worker thread
/// stays reachable for the master's whole life — so a failed send, or a
/// row its thread dropped (a panic in the model, a deadline no clock
/// reaches), is a lost worker, fatal to the next round. On drop the
/// master leaves its threads; the last master on them shuts them down and
/// joins them.
#[derive(Debug)]
pub struct ChannelTransport {
    /// This master's number on its threads.
    tenant: usize,
    threads: Arc<WorkerThreads>,
    from_rx: Receiver<FromWorker>,
    /// Per row, whether its thread dropped it.
    lost: Vec<Arc<AtomicBool>>,
}

/// A master's rows handed to its threads: where its replies arrive, and
/// per row whether its thread dropped it.
type Joined = (Receiver<FromWorker>, Vec<Arc<AtomicBool>>);

impl ChannelTransport {
    /// Adds one master's rows, as tenant `tenant`, to what the threads
    /// will serve: thread `w` gets row `w` of `shards`.
    fn join(
        threads: &mut [Vec<Tenant>],
        tenant: usize,
        shards: Vec<RowShard>,
        model: Arc<dyn Model + Send + Sync>,
        data: &Arc<Dataset>,
    ) -> Joined {
        let (from_tx, from_rx) = unbounded();
        let mut lost = Vec::with_capacity(shards.len());
        for (rows, (ranges, coefficients)) in threads.iter_mut().zip(shards) {
            let row = Row {
                model: Arc::clone(&model),
                data: Arc::clone(data),
                ranges,
                coefficients,
                outbox: from_tx.clone(),
                lost: Arc::default(),
            };
            lost.push(Arc::clone(&row.lost));
            rows.push(Tenant::new(tenant, row));
        }
        // `from_tx` drops here: the master keeps only the receiver.
        (from_rx, lost)
    }

    /// The transport of the master [`ChannelTransport::join`] added as
    /// `tenant`, once `threads` run.
    fn new(threads: &Arc<WorkerThreads>, tenant: usize, (from_rx, lost): Joined) -> Self {
        ChannelTransport {
            tenant,
            threads: Arc::clone(threads),
            from_rx,
            lost,
        }
    }
}

impl Transport for ChannelTransport {
    type Payload = Arc<[f64]>;

    fn send_round(&mut self, seq: u64, params: &[f64]) -> Result<(), RuntimeError> {
        if let Some(worker) = self.lost.iter().position(|l| l.load(Ordering::Acquire)) {
            return Err(RuntimeError::WorkerLost { worker });
        }
        let shared = Arc::new(params.to_vec());
        for (w, tx) in self.threads.inboxes.iter().enumerate() {
            tx.send(ToWorker::Round {
                tenant: self.tenant,
                // Also what the workers' fail-stop behaviours count.
                iteration: seq as usize,
                params: Arc::clone(&shared),
            })
            .map_err(|_| RuntimeError::WorkerLost { worker: w })?;
        }
        Ok(())
    }

    fn replies(&self) -> &Receiver<FromWorker> {
        &self.from_rx
    }

    /// Re-rows the running threads in place: exactly one shard per
    /// thread, each sent as a `ToWorker::Recode` — nothing is respawned
    /// or joined, so a straggler mid-delay holds nothing up. The dataset
    /// is shared memory, so a new row is only new ranges and
    /// coefficients. Threads keep their behaviour, so its schedules stay
    /// pinned to the thread, as on TCP they stay pinned to the process.
    fn rerow(&mut self, shards: Vec<RowShard>) -> Result<(), RuntimeError> {
        let inboxes = &self.threads.inboxes;
        if shards.len() != inboxes.len() {
            return Err(RuntimeError::InvalidConfig {
                reason: format!(
                    "recode matrix has {} rows but {} worker threads",
                    shards.len(),
                    inboxes.len()
                ),
            });
        }
        for (w, (tx, (ranges, coefficients))) in inboxes.iter().zip(shards).enumerate() {
            tx.send(ToWorker::Recode {
                tenant: self.tenant,
                ranges,
                coefficients,
            })
            .map_err(|_| RuntimeError::WorkerLost { worker: w })?;
        }
        Ok(())
    }

    fn live_rows(&self) -> Vec<usize> {
        (0..self.threads.inboxes.len()).collect()
    }

    fn round_traffic(&self) -> (u64, u64) {
        (0, 0)
    }
}

impl Drop for ChannelTransport {
    fn drop(&mut self) {
        for tx in &self.threads.inboxes {
            let _ = tx.send(ToWorker::Leave {
                tenant: self.tenant,
            });
        }
    }
}

/// A running coded worker pool: one OS thread per worker under a
/// [`Master`], which it derefs to — [`Master::round`] runs one broadcast
/// → collect → decode/escalate → combine cycle. Started by
/// [`ThreadedCluster::start`] on threads of its own, or by
/// [`ThreadedCluster::start_shared`] on threads it shares with other
/// masters; the last master on a set of threads shuts them down and
/// joins them on drop.
#[derive(Debug)]
pub struct ThreadedCluster<M>(Master<M, ChannelTransport>)
where
    M: Model + Send + Sync + 'static;

/// Every behaviour passes [`WorkerBehavior::validate`], as
/// [`RuntimeError::InvalidConfig`] naming the first worker that does not.
fn validate(behaviors: &[WorkerBehavior]) -> Result<(), RuntimeError> {
    for (w, behavior) in behaviors.iter().enumerate() {
        behavior
            .validate()
            .map_err(|reason| RuntimeError::InvalidConfig {
                reason: format!("worker {w}: {reason}"),
            })?;
    }
    Ok(())
}

/// `code` compiled as `config` asks, and its rows' shards of `data`.
fn compile(
    code: CodingMatrix,
    data: &Dataset,
    config: &RuntimeConfig,
) -> Result<(EscalatingCodec, Vec<RowShard>), RuntimeError> {
    let codec = build_codec(code, config)?;
    let shards = row_shards(&codec, data.len())?;
    Ok((codec, shards))
}

impl<M> ThreadedCluster<M>
where
    M: Model + Send + Sync + 'static,
{
    /// Spawns one worker thread per row of `code` over `data`, compiling
    /// the matrix into the backend named by [`RuntimeConfig::backend`]
    /// and wiring [`RuntimeConfig::escalation`] on top.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidConfig`] when a worker behaviour fails
    /// [`crate::WorkerBehavior::validate`], when the dataset has fewer samples
    /// than partitions, or when the requested backend cannot be built
    /// from this matrix.
    pub fn start(
        code: CodingMatrix,
        model: Arc<M>,
        data: Arc<Dataset>,
        config: &RuntimeConfig,
    ) -> Result<Self, RuntimeError> {
        validate(&config.behaviors)?;
        let (codec, shards) = compile(code, &data, config)?;
        let behaviors: Vec<_> = (0..shards.len()).map(|w| config.behavior_of(w)).collect();
        let mut tenants: Vec<_> = behaviors.iter().map(|_| Vec::with_capacity(1)).collect();
        let rows = ChannelTransport::join(&mut tenants, 0, shards, Arc::clone(&model) as _, &data);
        let threads = WorkerThreads::spawn(tenants, &behaviors);
        let transport = ChannelTransport::new(&threads, 0, rows);
        Ok(ThreadedCluster(Master::new(
            codec, model, data, config, transport,
        )))
    }

    /// Starts one master per tenant on one set of worker threads, thread
    /// `w` running `behaviors[w]` as row `w` of every tenant's code. A
    /// tenant is `(code, model, data, config)`, compiled and partitioned
    /// as [`ThreadedCluster::start`] does; its config's behaviours are not
    /// read, the threads run `behaviors`. Each tenant's rounds are its
    /// own: fail-stop and throttle steps count them, the throttle and the
    /// delay run from that tenant's compute start, and while a thread
    /// waits out one tenant's deadline it computes and replies for the
    /// others. The threads live until the last of the returned masters is
    /// dropped, which joins them.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidConfig`] when a behaviour fails
    /// [`crate::WorkerBehavior::validate`]: nothing is started. A tenant
    /// whose code does not have one row per thread, or that
    /// [`ThreadedCluster::start`] would refuse, is that tenant's own
    /// error, in its place in the returned list; the others start.
    pub fn start_shared(
        behaviors: &[WorkerBehavior],
        tenants: Vec<(CodingMatrix, Arc<M>, Arc<Dataset>, RuntimeConfig)>,
    ) -> Result<Vec<Result<Self, RuntimeError>>, RuntimeError> {
        validate(behaviors)?;
        let mut rows: Vec<_> = behaviors
            .iter()
            .map(|_| Vec::with_capacity(tenants.len()))
            .collect();
        let joined: Vec<_> = tenants
            .into_iter()
            .enumerate()
            .map(|(tenant, (code, model, data, config))| {
                let (codec, shards) = compile(code, &data, &config)?;
                if shards.len() != behaviors.len() {
                    return Err(RuntimeError::InvalidConfig {
                        reason: format!(
                            "a {}-row code on {} shared worker threads",
                            shards.len(),
                            behaviors.len()
                        ),
                    });
                }
                let joined = ChannelTransport::join(
                    &mut rows,
                    tenant,
                    shards,
                    Arc::clone(&model) as _,
                    &data,
                );
                Ok((codec, model, data, config, joined))
            })
            .collect();
        let threads = WorkerThreads::spawn(rows, behaviors);
        Ok(joined
            .into_iter()
            .enumerate()
            .map(|(tenant, joined)| {
                let (codec, model, data, config, joined) = joined?;
                let transport = ChannelTransport::new(&threads, tenant, joined);
                Ok(ThreadedCluster(Master::new(
                    codec, model, data, &config, transport,
                )))
            })
            .collect())
    }
}

impl<M> Deref for ThreadedCluster<M>
where
    M: Model + Send + Sync + 'static,
{
    type Target = Master<M, ChannelTransport>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<M> DerefMut for ThreadedCluster<M>
where
    M: Model + Send + Sync + 'static,
{
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorkerBehavior;
    use crate::round::EngineRound;
    use hetgc_cluster::RoundSample;
    use hetgc_coding::{heter_aware, naive, EscalationPolicy};
    use hetgc_ml::{synthetic, LinearRegression, SoftmaxRegression};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::time::{Duration, Instant};

    /// Outcome of [`train`] — the slim stand-in for the removed legacy
    /// all-in-one trainer's report.
    #[derive(Debug)]
    struct TrainRun {
        losses: Vec<f64>,
        results_used: Vec<usize>,
        approx_rounds: usize,
        params: Vec<f64>,
        /// The run ended on an undecodable round.
        stalled: bool,
    }

    /// Full-batch SGD over [`ThreadedCluster::round`] — the same loop
    /// shape the unified `hetgc::TrainDriver` runs in production.
    fn train<M: Model + Send + Sync + 'static>(
        code: hetgc_coding::CodingMatrix,
        model: M,
        data: Dataset,
        lr: f64,
        config: RuntimeConfig,
        iterations: usize,
        rng: &mut StdRng,
    ) -> Result<TrainRun, RuntimeError> {
        let model = Arc::new(model);
        let data = Arc::new(data);
        let mut cluster =
            ThreadedCluster::start(code, Arc::clone(&model), Arc::clone(&data), &config)?;
        let mut params = model.init_params(rng);
        let n = data.len() as f64;
        let mut run = TrainRun {
            losses: Vec::new(),
            results_used: Vec::new(),
            approx_rounds: 0,
            params: Vec::new(),
            stalled: false,
        };
        for _ in 0..iterations {
            let round = cluster.round(&params)?;
            let Some(gradient) = &round.gradient else {
                run.stalled = true;
                break;
            };
            if round.residual > 0.0 {
                run.approx_rounds += 1;
            }
            run.results_used.push(round.results_used);
            for (p, g) in params.iter_mut().zip(gradient) {
                *p -= lr * g / n;
            }
            run.losses
                .push(model.loss(&params, &data, (0, data.len())) / n);
        }
        run.params = params;
        Ok(run)
    }

    fn quick_data(seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        synthetic::linear_regression(60, 3, 0.01, &mut rng)
    }

    #[test]
    fn trains_and_loss_decreases() {
        let mut rng = StdRng::seed_from_u64(1);
        let code = heter_aware(&[1.0, 1.0, 2.0], 4, 1, &mut rng).unwrap();
        let report = train(
            code,
            LinearRegression::new(3),
            quick_data(1),
            0.2,
            RuntimeConfig::default(),
            25,
            &mut rng,
        )
        .unwrap();
        assert_eq!(report.losses.len(), 25);
        assert!(
            report.losses[24] < report.losses[0] * 0.5,
            "{:?}",
            report.losses
        );
    }

    #[test]
    fn cluster_round_api_decodes_and_reports_busy() {
        let mut rng = StdRng::seed_from_u64(2);
        let code = heter_aware(&[1.0, 1.0, 2.0], 4, 1, &mut rng).unwrap();
        let model = Arc::new(LinearRegression::new(3));
        let data = Arc::new(quick_data(2));
        let mut cluster = ThreadedCluster::start(
            code,
            Arc::clone(&model),
            Arc::clone(&data),
            &RuntimeConfig::default(),
        )
        .unwrap();
        assert_eq!(cluster.workers(), 3);
        let params = model.init_params(&mut rng);
        let n = data.len();
        let round = cluster.round(&params).unwrap();
        assert_eq!(round.residual, 0.0);
        assert!(round.results_used >= 2);
        // The decoded (un-normalized) gradient is the exact batch gradient.
        let direct = model.gradient(&params, &data, (0, n));
        for (g, d) in decoded(&round).iter().zip(&direct) {
            assert!((g - d).abs() < 1e-6 * (1.0 + d.abs()), "{g} vs {d}");
        }
        drop(cluster);
    }

    #[test]
    fn cluster_rounds_are_internally_sequenced_across_runs() {
        // Restarting the caller's round numbering on a reused cluster must
        // NOT let a previous run's results leak in: rounds are tagged by
        // an internal strictly-increasing sequence, so every decode still
        // recovers the exact batch gradient at the *current* parameters.
        let mut rng = StdRng::seed_from_u64(21);
        let code = heter_aware(&[1.0, 1.0, 2.0], 4, 1, &mut rng).unwrap();
        let model = Arc::new(LinearRegression::new(3));
        let data = Arc::new(quick_data(21));
        let mut cluster = ThreadedCluster::start(
            code,
            Arc::clone(&model),
            Arc::clone(&data),
            &RuntimeConfig::default(),
        )
        .unwrap();
        let n = data.len();
        for run in 0..2 {
            // Each "run" restarts at iteration 1 with different params.
            let params = vec![0.1 * (run + 1) as f64; model.num_params()];
            for iteration in 1..=2 {
                let round = cluster.round(&params).unwrap();
                let direct = model.gradient(&params, &data, (0, n));
                for (g, d) in decoded(&round).iter().zip(&direct) {
                    assert!(
                        (g - d).abs() < 1e-6 * (1.0 + d.abs()),
                        "run {run} iter {iteration}: {g} vs {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn dispatch_collect_split_matches_round_and_guards_misuse() {
        let mut rng = StdRng::seed_from_u64(40);
        let code = heter_aware(&[1.0, 1.0, 2.0], 4, 1, &mut rng).unwrap();
        let model = Arc::new(LinearRegression::new(3));
        let data = Arc::new(quick_data(40));
        let mut cluster = ThreadedCluster::start(
            code,
            Arc::clone(&model),
            Arc::clone(&data),
            &RuntimeConfig::default(),
        )
        .unwrap();
        let params = model.init_params(&mut rng);
        let n = data.len();

        // Collect before any dispatch is a caller bug.
        assert!(matches!(
            cluster.collect(),
            Err(RuntimeError::InvalidConfig { .. })
        ));

        cluster.dispatch(&params).unwrap();
        // Double-dispatch would overlap two rounds in one buffer.
        assert!(matches!(
            cluster.dispatch(&params),
            Err(RuntimeError::InvalidConfig { .. })
        ));
        // The master is free to do unrelated work here (the pipelined
        // overlap window) — the collect still decodes the exact gradient.
        let round = cluster.collect().unwrap();
        let direct = model.gradient(&params, &data, (0, n));
        for (g, d) in decoded(&round).iter().zip(&direct) {
            assert!((g - d).abs() < 1e-6 * (1.0 + d.abs()), "{g} vs {d}");
        }
        // Each consumed reply accounts one payload allocation.
        assert_eq!(
            round.alloc_bytes,
            (round.busy.iter().filter(|&&b| b > 0.0).count()
                * model.num_params()
                * std::mem::size_of::<f64>()) as u64
        );
        // The split cycle is repeatable.
        cluster.dispatch(&params).unwrap();
        let again = cluster.collect().unwrap();
        assert_eq!(
            (decoded(&again).len(), again.residual),
            (model.num_params(), 0.0)
        );
    }

    #[test]
    fn recode_hot_swaps_the_pool_mid_run() {
        // Decode correctness must survive a live re-code, including a
        // partition-count change (4 → 6) and continued round sequencing.
        let mut rng = StdRng::seed_from_u64(31);
        let code = heter_aware(&[1.0, 1.0, 2.0], 4, 1, &mut rng).unwrap();
        let model = Arc::new(LinearRegression::new(3));
        let data = Arc::new(quick_data(31));
        let mut cluster = ThreadedCluster::start(
            code,
            Arc::clone(&model),
            Arc::clone(&data),
            &RuntimeConfig::default(),
        )
        .unwrap();
        let params = model.init_params(&mut rng);
        let n = data.len();
        let direct = model.gradient(&params, &data, (0, n));
        let before = cluster.round(&params).unwrap();
        for (g, d) in decoded(&before).iter().zip(&direct) {
            assert!((g - d).abs() < 1e-6 * (1.0 + d.abs()));
        }

        // Rebuild for a "drifted" cluster: worker 2 now slow.
        let new_code = heter_aware(&[2.0, 2.0, 1.0], 6, 1, &mut rng).unwrap();
        cluster.recode(new_code).unwrap();
        assert_eq!(cluster.partitions(), 6);
        let after = cluster.round(&params).unwrap();
        assert_eq!(after.residual, 0.0);
        for (g, d) in decoded(&after).iter().zip(&direct) {
            assert!(
                (g - d).abs() < 1e-6 * (1.0 + d.abs()),
                "decode wrong after recode: {g} vs {d}"
            );
        }
        drop(cluster);
    }

    /// Four equal rows (`s = 1`) whose worker 0 waits `delay` after every
    /// round, and parameters to run them at.
    fn delayed_cluster(
        seed: u64,
        delay: Duration,
    ) -> (ThreadedCluster<LinearRegression>, Vec<f64>, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let code = heter_aware(&[1.0; 4], 4, 1, &mut rng).unwrap();
        let config =
            RuntimeConfig::nominal(4).set_behavior(0, WorkerBehavior::nominal().with_delay(delay));
        let model = Arc::new(LinearRegression::new(3));
        let data = Arc::new(quick_data(seed));
        let params = model.init_params(&mut rng);
        let cluster = ThreadedCluster::start(code, model, data, &config).unwrap();
        (cluster, params, rng)
    }

    /// `round`'s gradient; panics unless it decoded.
    fn decoded(round: &EngineRound) -> &[f64] {
        round.gradient.as_deref().expect("decoded")
    }

    /// Each row's late compute seconds this round (`0.0` unless its
    /// sample is marked late).
    fn late_timings(round: &EngineRound) -> Vec<f64> {
        let late = |s: &RoundSample| if s.straggled { s.compute_seconds } else { 0.0 };
        round.samples.iter().map(late).collect()
    }

    /// `round` decoded the exact batch gradient at `params`.
    fn assert_exact(
        cluster: &ThreadedCluster<LinearRegression>,
        round: &EngineRound,
        params: &[f64],
    ) {
        let direct = cluster
            .model()
            .gradient(params, cluster.data(), (0, cluster.data().len()));
        assert_eq!(round.residual, 0.0);
        for (g, d) in decoded(round).iter().zip(&direct) {
            assert!((g - d).abs() < 1e-6 * (1.0 + d.abs()), "{g} vs {d}");
        }
    }

    #[test]
    fn drop_does_not_wait_for_a_delayed_worker() {
        let (mut cluster, params, _) = delayed_cluster(35, Duration::from_secs(2));
        let round = cluster.round(&params).unwrap();
        assert_eq!(round.busy[0], 0.0, "worker 0 is still in its delay");
        let dropping = Instant::now();
        drop(cluster);
        assert!(
            dropping.elapsed() < Duration::from_millis(100),
            "{:?}",
            dropping.elapsed()
        );
    }

    #[test]
    fn recode_does_not_wait_for_a_delayed_worker() {
        let (mut cluster, params, mut rng) = delayed_cluster(36, Duration::from_secs(2));
        decoded(&cluster.round(&params).unwrap());
        let recoding = Instant::now();
        let code = heter_aware(&[1.0; 4], 8, 1, &mut rng).unwrap();
        cluster.recode(code).unwrap();
        assert!(
            recoding.elapsed() < Duration::from_millis(100),
            "{:?}",
            recoding.elapsed()
        );
        assert_eq!(cluster.partitions(), 8);
        // Worker 0 still waits out round 1; the other three decode.
        let round = cluster.round(&params).unwrap();
        assert_exact(&cluster, &round, &params);
    }

    #[test]
    fn rerow_with_the_wrong_row_count_keeps_the_old_code() {
        let mut rng = StdRng::seed_from_u64(37);
        let code = heter_aware(&[1.0, 1.0, 2.0], 4, 1, &mut rng).unwrap();
        let model = Arc::new(LinearRegression::new(3));
        let data = Arc::new(quick_data(37));
        let mut cluster =
            ThreadedCluster::start(code, model, data, &RuntimeConfig::default()).unwrap();
        let params = cluster.model().init_params(&mut rng);
        let two_rows = heter_aware(&[1.0, 1.0], 6, 1, &mut rng).unwrap();
        assert!(matches!(
            cluster.recode(two_rows),
            Err(RuntimeError::InvalidConfig { .. })
        ));
        assert_eq!((cluster.workers(), cluster.partitions()), (3, 4));
        let round = cluster.round(&params).unwrap();
        assert_exact(&cluster, &round, &params);
    }

    #[test]
    fn a_reply_from_before_an_in_place_recode_is_only_a_late_timing() {
        // As on TCP: the threads are not replaced, so worker 0's round-1
        // reply lands after the recode — its timing is observed, its
        // payload carries no weight.
        let (mut cluster, params, mut rng) = delayed_cluster(38, Duration::from_millis(250));
        let r1 = cluster.round(&params).unwrap();
        assert_eq!(r1.busy[0], 0.0);
        let code = heter_aware(&[1.0; 4], 4, 1, &mut rng).unwrap();
        cluster.recode(code).unwrap();
        std::thread::sleep(Duration::from_millis(350));
        let r2 = cluster.round(&params).unwrap();
        assert_exact(&cluster, &r2, &params);
        assert_eq!(r2.busy[0], 0.0);
        assert!(late_timings(&r2)[0] >= 0.25, "{:?}", r2.samples);
    }

    #[test]
    fn recode_with_a_round_in_flight_is_rejected() {
        // A recode between dispatch and collect used to drop the round on
        // the floor; it must be refused, and the round must still collect.
        let mut rng = StdRng::seed_from_u64(34);
        let code = heter_aware(&[1.0, 1.0, 2.0], 4, 1, &mut rng).unwrap();
        let model = Arc::new(LinearRegression::new(3));
        let data = Arc::new(quick_data(34));
        let mut cluster = ThreadedCluster::start(
            code.clone(),
            Arc::clone(&model),
            Arc::clone(&data),
            &RuntimeConfig::default(),
        )
        .unwrap();
        let params = model.init_params(&mut rng);
        cluster.dispatch(&params).unwrap();
        assert!(matches!(
            cluster.recode(code),
            Err(RuntimeError::InvalidConfig { .. })
        ));
        let round = cluster.collect().unwrap();
        assert_eq!(round.residual, 0.0);
        decoded(&round);
    }

    #[test]
    fn late_replies_surface_their_timings_once() {
        // Worker 0's replies always land after the decode (the other
        // three form an exact decode immediately): its round-t timing
        // must surface as a late sample of round t+1 — and only once.
        let mut rng = StdRng::seed_from_u64(33);
        let code = heter_aware(&[1.0; 4], 4, 1, &mut rng).unwrap();
        let model = Arc::new(LinearRegression::new(3));
        let data = Arc::new(quick_data(33));
        let config = RuntimeConfig::nominal(4).set_behavior(
            0,
            WorkerBehavior::nominal().with_delay(Duration::from_millis(250)),
        );
        let mut cluster =
            ThreadedCluster::start(code, Arc::clone(&model), Arc::clone(&data), &config).unwrap();
        let params = model.init_params(&mut rng);
        let r1 = cluster.round(&params).unwrap();
        assert_eq!(r1.busy[0], 0.0, "straggler missed the decode");
        assert_eq!(late_timings(&r1), vec![0.0; 4], "nothing late yet");
        // Let worker 0's round-1 reply land in the channel.
        std::thread::sleep(Duration::from_millis(350));
        let r2 = cluster.round(&params).unwrap();
        let late = late_timings(&r2);
        assert!(
            late[0] >= 0.25,
            "round-1 timing must surface late: {late:?}"
        );
        // A fast worker whose round-1 reply was not needed for the decode
        // (this code can decode from 2 arrivals) may legitimately surface
        // a late timing too — but only its real, millisecond-scale
        // compute, never the straggler's injected 250 ms delay.
        assert!(late[1..].iter().all(|&b| b < 0.05), "{late:?}");
    }

    #[test]
    fn set_timeout_overrides_config() {
        let mut rng = StdRng::seed_from_u64(32);
        let code = heter_aware(&[1.0; 4], 4, 1, &mut rng).unwrap();
        let model = Arc::new(LinearRegression::new(3));
        let data = Arc::new(quick_data(32));
        // Worker 0 sleeps 500 ms; without a timeout the exact decode from
        // the other three returns quickly anyway, but with a learned
        // 200 ms deadline installed the round must ALSO complete fast —
        // and never error (3 results ≥ m − s).
        let config = RuntimeConfig::nominal(4).set_behavior(
            0,
            WorkerBehavior::nominal().with_delay(Duration::from_millis(500)),
        );
        let mut cluster =
            ThreadedCluster::start(code, Arc::clone(&model), Arc::clone(&data), &config).unwrap();
        cluster.set_timeout(Duration::from_millis(200));
        let params = model.init_params(&mut rng);
        let started = Instant::now();
        let round = cluster.round(&params).unwrap();
        // Auto backend may decode from an intact group (2 workers).
        assert!(round.results_used >= 2);
        assert_eq!(round.residual, 0.0, "exact decode, no escalation");
        assert!(started.elapsed() < Duration::from_millis(450));
    }

    #[test]
    fn deadline_is_round_relative() {
        // Worker 0 replies ~120 ms into every round; with a 400 ms ROUND
        // deadline the master still gets all results well before the
        // deadline, but the window must not be re-armed per message: three
        // rounds finish far sooner than 3 × (results + 400 ms idle).
        let mut rng = StdRng::seed_from_u64(22);
        let code = heter_aware(&[1.0; 4], 4, 1, &mut rng).unwrap();
        let config = RuntimeConfig::nominal(4)
            .set_behavior(
                0,
                WorkerBehavior::nominal().with_delay(Duration::from_millis(500)),
            )
            .with_escalation(
                EscalationPolicy::follow_backend().with_deadline(Duration::from_millis(400)),
            );
        // Worker 0 is slower than the deadline: each round must complete
        // from the other three (exact decode) without waiting 500 ms.
        let started = Instant::now();
        let report = train(
            code,
            LinearRegression::new(3),
            quick_data(22),
            0.1,
            config,
            3,
            &mut rng,
        )
        .unwrap();
        assert_eq!(report.losses.len(), 3);
        assert!(
            started.elapsed() < Duration::from_millis(1200),
            "{:?}",
            started.elapsed()
        );
    }

    #[test]
    fn coded_training_matches_serial_sgd() {
        // The decoded gradient is the exact batch gradient, so the coded
        // trajectory must match serial full-batch SGD step for step.
        let data = quick_data(2);
        let model = LinearRegression::new(3);
        let mut rng = StdRng::seed_from_u64(7);
        let code = heter_aware(&[1.0, 2.0, 1.0], 4, 1, &mut rng).unwrap();

        // Serial reference with identical initialization.
        let mut ref_rng = StdRng::seed_from_u64(99);
        let mut ref_params = model.init_params(&mut ref_rng);
        let n = data.len() as f64;
        let mut ref_losses = Vec::new();
        for _ in 0..10 {
            let mut g = model.gradient(&ref_params, &data, (0, data.len()));
            for gi in &mut g {
                *gi /= n;
            }
            for (p, gi) in ref_params.iter_mut().zip(&g) {
                *p -= 0.1 * gi;
            }
            ref_losses.push(model.loss(&ref_params, &data, (0, data.len())) / n);
        }

        let mut run_rng = StdRng::seed_from_u64(99); // same init draw
        let report = train(
            code,
            LinearRegression::new(3),
            data,
            0.1,
            RuntimeConfig::default(),
            10,
            &mut run_rng,
        )
        .unwrap();
        for (a, b) in report.losses.iter().zip(&ref_losses) {
            assert!((a - b).abs() < 1e-8, "coded {a} vs serial {b}");
        }
        for (p, q) in report.params.iter().zip(&ref_params) {
            assert!((p - q).abs() < 1e-8);
        }
    }

    #[test]
    fn survives_worker_failure() {
        let mut rng = StdRng::seed_from_u64(3);
        let code = heter_aware(&[1.0, 1.0, 1.0, 1.0], 4, 1, &mut rng).unwrap();
        let config =
            RuntimeConfig::nominal(4).set_behavior(2, WorkerBehavior::nominal().failing_from(3));
        let report = train(
            code,
            LinearRegression::new(3),
            quick_data(3),
            0.1,
            config,
            8,
            &mut rng,
        )
        .unwrap();
        assert_eq!(report.losses.len(), 8);
        // After the failure the master decodes from ≤ 3 workers.
        assert!(report.results_used[5..].iter().all(|&u| u <= 3));
    }

    #[test]
    fn naive_with_failure_times_out() {
        let mut rng = StdRng::seed_from_u64(4);
        let code = naive(3).unwrap();
        let config = RuntimeConfig::nominal(3)
            .set_behavior(1, WorkerBehavior::nominal().failing_from(1))
            .with_escalation(
                EscalationPolicy::follow_backend().with_deadline(Duration::from_millis(300)),
            );
        let model = Arc::new(LinearRegression::new(3));
        let data = Arc::new(quick_data(4));
        let mut cluster = ThreadedCluster::start(code, Arc::clone(&model), data, &config).unwrap();
        let params = model.init_params(&mut rng);
        let round = cluster.round(&params).unwrap();
        assert!(round.stop && round.gradient.is_none());
    }

    #[test]
    fn delayed_worker_not_waited_for() {
        let mut rng = StdRng::seed_from_u64(5);
        let code = heter_aware(&[1.0; 4], 4, 1, &mut rng).unwrap();
        let config = RuntimeConfig::nominal(4).set_behavior(
            0,
            WorkerBehavior::nominal().with_delay(Duration::from_millis(400)),
        );
        let started = Instant::now();
        let report = train(
            code,
            LinearRegression::new(3),
            quick_data(5),
            0.1,
            config,
            3,
            &mut rng,
        )
        .unwrap();
        // 3 iterations × 400 ms would be 1.2 s if we waited; decoding from
        // the other 3 workers should finish far sooner.
        assert!(
            started.elapsed() < Duration::from_millis(900),
            "{:?}",
            started.elapsed()
        );
        assert_eq!(report.losses.len(), 3);
    }

    #[test]
    fn classification_end_to_end() {
        let mut rng = StdRng::seed_from_u64(6);
        let data = synthetic::gaussian_blobs(90, 2, 3, 5.0, &mut rng);
        let code = heter_aware(&[1.0, 2.0, 3.0], 6, 1, &mut rng).unwrap();
        let report = train(
            code,
            SoftmaxRegression::new(2, 3),
            data,
            0.05,
            RuntimeConfig::default(),
            40,
            &mut rng,
        )
        .unwrap();
        assert!(report.losses[39] < report.losses[0], "{:?}", report.losses);
    }

    #[test]
    fn approx_backend_survives_beyond_straggler_budget() {
        // TWO workers fail with s = 1: the exact backend must time out,
        // the approximate backend keeps training on bounded-error decodes.
        let mut rng = StdRng::seed_from_u64(9);
        let code = heter_aware(&[1.0; 5], 5, 1, &mut rng).unwrap();
        let faulty = |backend| {
            RuntimeConfig::nominal(5)
                .set_behavior(1, WorkerBehavior::nominal().failing_from(1))
                .set_behavior(3, WorkerBehavior::nominal().failing_from(1))
                .with_escalation(
                    EscalationPolicy::follow_backend().with_deadline(Duration::from_millis(250)),
                )
                .with_backend(backend)
        };

        let exact = train(
            code.clone(),
            LinearRegression::new(3),
            quick_data(9),
            0.05,
            faulty(hetgc_coding::CodecBackend::Exact),
            3,
            &mut StdRng::seed_from_u64(10),
        )
        .unwrap();
        assert!(exact.stalled && exact.losses.is_empty());

        let approx = train(
            code,
            LinearRegression::new(3),
            quick_data(9),
            0.05,
            faulty(hetgc_coding::CodecBackend::Approx),
            3,
            &mut StdRng::seed_from_u64(10),
        )
        .unwrap();
        assert_eq!(approx.losses.len(), 3);
        assert_eq!(approx.approx_rounds, 3);
        assert!(approx.results_used.iter().all(|&u| u <= 3));
    }

    #[test]
    fn policy_budget_is_the_approx_backends_budget() {
        // Same >s fault as above on the Approx backend: the policy's
        // budget replaces the stage's own, so a loose one trains on
        // bounded-error decodes and one below every residual stalls.
        let mut rng = StdRng::seed_from_u64(12);
        let code = heter_aware(&[1.0; 5], 5, 1, &mut rng).unwrap();
        let run = |budget: f64| {
            let config = RuntimeConfig::nominal(5)
                .set_behavior(1, WorkerBehavior::nominal().failing_from(1))
                .set_behavior(3, WorkerBehavior::nominal().failing_from(1))
                .with_backend(hetgc_coding::CodecBackend::Approx)
                .with_escalation(
                    EscalationPolicy::follow_backend()
                        .with_deadline(Duration::from_millis(250))
                        .with_max_residual(budget),
                );
            train(
                code.clone(),
                LinearRegression::new(3),
                quick_data(12),
                0.05,
                config,
                3,
                &mut StdRng::seed_from_u64(13),
            )
            .unwrap()
        };
        let loose = run(100.0);
        assert_eq!(loose.losses.len(), 3);
        assert_eq!(loose.approx_rounds, 3);
        let tight = run(1e-3);
        assert!(tight.stalled && tight.losses.is_empty());
    }

    #[test]
    fn group_backend_trains_and_matches_exact_losses() {
        // Same matrix, same seed: group decoding changes which plan is
        // used (indicator rows), not the decoded gradient — trajectories
        // must agree to fp accuracy.
        let mut rng = StdRng::seed_from_u64(11);
        let g = hetgc_coding::group_based(&[1.0; 4], 4, 1, &mut rng).unwrap();
        let data = quick_data(11);
        let run = |backend| {
            train(
                g.code().clone(),
                LinearRegression::new(3),
                data.clone(),
                0.1,
                RuntimeConfig::nominal(4).with_backend(backend),
                8,
                &mut StdRng::seed_from_u64(12),
            )
            .unwrap()
        };
        let grouped = run(hetgc_coding::CodecBackend::Group);
        let exact = run(hetgc_coding::CodecBackend::Exact);
        // Auto resolves to the group backend for a matrix with groups.
        let auto = run(hetgc_coding::CodecBackend::Auto);
        assert_eq!(grouped.approx_rounds, 0);
        for (a, b) in grouped.losses.iter().zip(&exact.losses) {
            assert!((a - b).abs() < 1e-8, "group {a} vs exact {b}");
        }
        for (a, b) in auto.losses.iter().zip(&exact.losses) {
            assert!((a - b).abs() < 1e-8, "auto {a} vs exact {b}");
        }
    }

    #[test]
    fn invalid_partitioning_rejected() {
        let mut rng = StdRng::seed_from_u64(8);
        let code = heter_aware(&[1.0, 1.0], 4, 1, &mut rng).unwrap();
        // 3 samples < 4 partitions.
        let data = synthetic::linear_regression(3, 2, 0.0, &mut rng);
        let r = ThreadedCluster::start(
            code,
            Arc::new(LinearRegression::new(2)),
            Arc::new(data),
            &RuntimeConfig::default(),
        );
        assert!(matches!(r, Err(RuntimeError::InvalidConfig { .. })));
    }

    /// `WorkerBehavior`'s fields are public, so a caller can bypass
    /// `with_throttle`'s assert; start refuses what a worker thread would
    /// panic on (`Duration::from_secs_f64` of a negative or NaN stretch,
    /// an `Instant` overflow) before any thread is spawned.
    #[test]
    fn invalid_behaviours_are_rejected_at_start() {
        let invalid = [
            WorkerBehavior {
                throttle_samples_per_sec: Some(0.0),
                ..WorkerBehavior::nominal()
            },
            WorkerBehavior {
                throttle_samples_per_sec: Some(-3.0),
                ..WorkerBehavior::nominal()
            },
            WorkerBehavior {
                throttle_step: Some((2, f64::NAN)),
                ..WorkerBehavior::nominal()
            },
            WorkerBehavior::nominal().with_delay(Duration::MAX),
        ];
        for behavior in invalid {
            let mut rng = StdRng::seed_from_u64(8);
            let code = heter_aware(&[1.0, 1.0], 2, 1, &mut rng).unwrap();
            let data = synthetic::linear_regression(8, 2, 0.0, &mut rng);
            let config = RuntimeConfig::nominal(2).set_behavior(1, behavior.clone());
            let r = ThreadedCluster::start(
                code,
                Arc::new(LinearRegression::new(2)),
                Arc::new(data),
                &config,
            );
            assert!(
                matches!(&r, Err(RuntimeError::InvalidConfig { reason }) if reason.starts_with("worker 1")),
                "{behavior:?}: {r:?}"
            );
        }
    }

    /// `LinearRegression` over 3 features, or — with `panics` — a model
    /// that panics computing any gradient.
    #[derive(Debug)]
    struct Flaky {
        inner: LinearRegression,
        panics: bool,
    }

    impl Model for Flaky {
        fn num_params(&self) -> usize {
            self.inner.num_params()
        }
        fn loss(&self, params: &[f64], data: &Dataset, range: (usize, usize)) -> f64 {
            self.inner.loss(params, data, range)
        }
        fn gradient(&self, params: &[f64], data: &Dataset, range: (usize, usize)) -> Vec<f64> {
            assert!(!self.panics, "this tenant's model fails");
            self.inner.gradient(params, data, range)
        }
        fn init_params(&self, rng: &mut dyn rand::RngCore) -> Vec<f64> {
            self.inner.init_params(rng)
        }
    }

    /// `count` equal-seeded tenants for [`ThreadedCluster::start_shared`]
    /// on four equal rows (`s = 1`); tenant `t` panics when `panics(t)`.
    fn tenants(
        count: usize,
        panics: impl Fn(usize) -> bool,
    ) -> Vec<(CodingMatrix, Arc<Flaky>, Arc<Dataset>, RuntimeConfig)> {
        (0..count)
            .map(|t| {
                let mut rng = StdRng::seed_from_u64(50);
                let code = heter_aware(&[1.0; 4], 4, 1, &mut rng).unwrap();
                let model = Flaky {
                    inner: LinearRegression::new(3),
                    panics: panics(t),
                };
                let config = RuntimeConfig::default();
                (code, Arc::new(model), Arc::new(quick_data(50)), config)
            })
            .collect()
    }

    /// Two masters on one set of threads whose workers each delay 20 ms:
    /// a worker waits out one master's delay while it computes the other
    /// master's round, so the two 5-round runs overlap.
    #[test]
    fn two_masters_share_threads_and_overlap_their_rounds() {
        let delay = Duration::from_millis(20);
        let behaviors = vec![WorkerBehavior::nominal().with_delay(delay); 4];
        let clusters = ThreadedCluster::start_shared(&behaviors, tenants(2, |_| false)).unwrap();
        let started = Instant::now();
        std::thread::scope(|s| {
            for cluster in clusters {
                s.spawn(move || {
                    let mut cluster = cluster.unwrap();
                    let params = vec![0.1; cluster.model().num_params()];
                    for _ in 0..5 {
                        let round = cluster.round(&params).unwrap();
                        assert_eq!(round.residual, 0.0);
                        assert!(round.busy.iter().any(|&b| b >= 0.02), "{:?}", round.busy);
                    }
                });
            }
        });
        let serialized = 2 * 5 * delay;
        assert!(
            started.elapsed() < serialized * 4 / 5,
            "{:?} against {serialized:?} serialized",
            started.elapsed()
        );
    }

    /// One tenant's panicking model loses only its rows: its round stalls
    /// (every row hung up), its neighbour on the same threads trains on.
    #[test]
    fn a_panicking_tenant_stalls_alone() {
        let behaviors = vec![WorkerBehavior::nominal(); 4];
        let mut clusters = ThreadedCluster::start_shared(&behaviors, tenants(2, |t| t == 0))
            .unwrap()
            .into_iter()
            .map(Result::unwrap);
        let (mut doomed, mut healthy) = (clusters.next().unwrap(), clusters.next().unwrap());
        let params = vec![0.1; 4];
        let round = doomed.round(&params).unwrap();
        assert!(round.stop && round.gradient.is_none());
        assert!(matches!(
            doomed.round(&params),
            Err(RuntimeError::WorkerLost { .. })
        ));
        for _ in 0..3 {
            let round = healthy.round(&params).unwrap();
            let direct = healthy.model().gradient(&params, &quick_data(50), (0, 60));
            assert_eq!(round.residual, 0.0);
            for (g, d) in decoded(&round).iter().zip(&direct) {
                assert!((g - d).abs() < 1e-6 * (1.0 + d.abs()), "{g} vs {d}");
            }
        }
    }

    /// A bad behaviour starts nothing; a code with the wrong row count
    /// is its own tenant's error, and the other tenants start.
    #[test]
    fn start_shared_refuses_bad_behaviours_and_misfit_codes() {
        let mut behaviors = vec![WorkerBehavior::nominal(); 4];
        behaviors[2].throttle_samples_per_sec = Some(f64::NAN);
        let refused = ThreadedCluster::start_shared(&behaviors, tenants(2, |_| false));
        assert!(
            matches!(&refused, Err(RuntimeError::InvalidConfig { reason }) if reason.starts_with("worker 2")),
            "{refused:?}"
        );

        let mut mixed = tenants(3, |_| false);
        let mut rng = StdRng::seed_from_u64(51);
        mixed[1].0 = heter_aware(&[1.0; 3], 3, 1, &mut rng).unwrap();
        let started =
            ThreadedCluster::start_shared(&vec![WorkerBehavior::nominal(); 4], mixed).unwrap();
        assert!(started[0].is_ok() && started[2].is_ok());
        assert!(matches!(
            &started[1],
            Err(RuntimeError::InvalidConfig { reason }) if reason.contains("3-row code on 4")
        ));
    }
}
