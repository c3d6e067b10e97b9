//! The worker thread: compute partial gradients over owned partitions,
//! encode with the worker's row of `B`, reply to the master.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use hetgc_ml::{Dataset, Model, PartialSink};

use crate::config::WorkerBehavior;
use crate::message::{FromWorker, ToWorker};

/// Everything a worker thread needs, bundled so `executor` can spawn it
/// with a single move closure.
pub(crate) struct WorkerContext<M> {
    pub index: usize,
    pub model: Arc<M>,
    pub data: Arc<Dataset>,
    /// This worker's sample ranges, one per owned partition, aligned with
    /// `coefficients`. Both are replaced by [`ToWorker::Recode`].
    pub ranges: Vec<(usize, usize)>,
    /// The non-zero entries of `b_w`, aligned with `ranges`.
    pub coefficients: Vec<f64>,
    pub behavior: WorkerBehavior,
    pub inbox: Receiver<ToWorker>,
    pub outbox: Sender<FromWorker>,
}

/// The coded gradient of one worker, `coded = Σ_p coef_p · ∇L(params;
/// partition p)` over its owned `ranges` (aligned with `coefficients`) —
/// the one kernel behind the worker thread and the `hetgc-net` socket
/// worker, so both decode to bitwise the same gradients. The partial
/// gradients come from [`Model::for_each_partial`], the entry point the
/// simulator's decode uses too, so a model that
/// batches its forward pass across the owned ranges (with one sample per
/// partition there is nothing to batch inside one) does so here. Each
/// partition's gradient is folded into `coded` through
/// [`PartialSink::Fold`] — in partition order, one multiply and one add
/// per coordinate — by a model that forms it in one pass in that pass,
/// by any other through `partial`. `coded` and `partial` are caller-held
/// scratch, resized here and reused across rounds.
pub fn compute_coded<M: Model + ?Sized>(
    model: &M,
    data: &Dataset,
    ranges: &[(usize, usize)],
    coefficients: &[f64],
    params: &[f64],
    coded: &mut Vec<f64>,
    partial: &mut Vec<f64>,
) {
    coded.clear();
    coded.resize(model.num_params(), 0.0);
    // Only overwritten, so never cleared: a no-op once sized.
    partial.resize(model.num_params(), 0.0);
    // A partition without a coefficient is not owned.
    let owned = &ranges[..ranges.len().min(coefficients.len())];
    model.for_each_partial(params, data, owned, &mut |p, fill| {
        fill(PartialSink::Fold {
            coef: coefficients[p],
            acc: coded,
            scratch: partial,
        });
    });
}

/// Heterogeneity emulation, called right after [`compute_coded`]: when
/// the reply to the iteration that began at `started` may leave. The
/// iteration is stretched so that samples/elapsed matches the rate
/// `behavior` configures for it (with `throttle_step`, a drifting VM),
/// then the injected delay is added — the master's telemetry observes
/// the worker's *emulated* speed. A socket worker sleeps until the
/// deadline; a worker thread waits on its inbox, so a shutdown or a
/// recode is not held up by it.
///
/// `None` when the deadline lies beyond what `Instant` can represent: a
/// throttle so slow, or a delay so long, that no clock reaches it. A
/// rate that is not positive and finite also gives `None`;
/// [`WorkerBehavior::validate`] rejects those up front.
pub fn emulated_deadline(
    behavior: &WorkerBehavior,
    ranges: &[(usize, usize)],
    iteration: usize,
    started: Instant,
) -> Option<Instant> {
    let mut until = Instant::now();
    if let Some(rate) = behavior.throttle_at(iteration) {
        let samples: usize = ranges.iter().map(|(lo, hi)| hi - lo).sum();
        let stretched = Duration::try_from_secs_f64(samples as f64 / rate).ok()?;
        until = until.max(started.checked_add(stretched)?);
    }
    until.checked_add(behavior.extra_delay)
}

/// The newest round a worker thread has received and not yet served.
type Held = Option<(usize, Arc<Vec<f64>>)>;

impl<M> WorkerContext<M> {
    /// Takes one message in arrival order: a round replaces the held one
    /// (the newest wins), a recode moves the worker onto its new row at
    /// once. `false` on [`ToWorker::Shutdown`].
    fn take(&mut self, msg: ToWorker, held: &mut Held) -> bool {
        match msg {
            ToWorker::Round { iteration, params } => *held = Some((iteration, params)),
            ToWorker::Recode {
                ranges,
                coefficients,
            } => {
                self.ranges = ranges;
                self.coefficients = coefficients;
            }
            ToWorker::Shutdown => return false,
        }
        true
    }
}

/// The worker main loop. Returns when the master hangs up or sends
/// [`ToWorker::Shutdown`] — at once, even mid-way through an emulated
/// delay.
pub(crate) fn worker_main<M: Model>(mut ctx: WorkerContext<M>) {
    // Scratch of `compute_coded`: the only data-plane allocation a
    // worker performs per round is freezing `coded` into the `Arc<[f64]>`
    // reply payload.
    let mut coded: Vec<f64> = Vec::new();
    let mut partial: Vec<f64> = Vec::new();
    let mut held: Held = None;
    loop {
        // Block for a message unless a round is already held, then
        // fast-forward through everything queued: a worker that fell
        // behind (delayed, throttled) joins the *current* round instead
        // of replaying rounds the master already decoded without it.
        if held.is_none() {
            let Ok(msg) = ctx.inbox.recv() else {
                return;
            };
            if !ctx.take(msg, &mut held) {
                return;
            }
        }
        while let Ok(msg) = ctx.inbox.try_recv() {
            if !ctx.take(msg, &mut held) {
                return;
            }
        }
        let Some((iteration, params)) = held.take() else {
            continue;
        };
        if !ctx.behavior.responds_at(iteration) {
            // Fail-stop: keep draining messages (a dead VM doesn't block
            // the master's sender) but never reply.
            continue;
        }
        let started = Instant::now();
        compute_coded(
            &*ctx.model,
            &ctx.data,
            &ctx.ranges,
            &ctx.coefficients,
            &params,
            &mut coded,
            &mut partial,
        );
        // Wait out the emulated speed on the inbox rather than in a
        // sleep: messages are taken as they land, in order.
        // A deadline no clock reaches ends the worker: the master
        // reports it lost.
        let Some(until) = emulated_deadline(&ctx.behavior, &ctx.ranges, iteration, started) else {
            return;
        };
        loop {
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            match ctx.inbox.recv_timeout(left) {
                Ok(msg) => {
                    if !ctx.take(msg, &mut held) {
                        return;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
        let reply = FromWorker {
            worker: ctx.index,
            seq: iteration as u64,
            // The round's one data-plane allocation: freeze the scratch
            // into a shared payload (the scratch itself is reused).
            coded: Arc::from(coded.as_slice()),
            // The *effective* compute duration — native gradient time
            // stretched by throttling and injected delay — so the
            // master's telemetry observes the worker's emulated speed,
            // exactly what a real master would measure.
            compute_seconds: started.elapsed().as_secs_f64(),
            // No reader to stamp arrival, nothing serialized.
            arrived: None,
            wire_error: 0.0,
            payload_bytes: 0,
        };
        if ctx.outbox.send(reply).is_err() {
            return; // master gone
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;
    use hetgc_ml::{synthetic, LinearRegression};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spawn_worker(
        behavior: WorkerBehavior,
        coef: f64,
    ) -> (
        Sender<ToWorker>,
        Receiver<FromWorker>,
        std::thread::JoinHandle<()>,
    ) {
        let mut rng = StdRng::seed_from_u64(3);
        let data = Arc::new(synthetic::linear_regression(10, 2, 0.0, &mut rng));
        let model = Arc::new(LinearRegression::new(2));
        let (to_tx, to_rx) = unbounded();
        let (from_tx, from_rx) = unbounded();
        let ctx = WorkerContext {
            index: 0,
            model,
            data,
            ranges: vec![(0, 5), (5, 10)],
            coefficients: vec![coef, coef],
            behavior,
            inbox: to_rx,
            outbox: from_tx,
        };
        let handle = std::thread::spawn(move || worker_main(ctx));
        (to_tx, from_rx, handle)
    }

    /// `compute_coded` against the loop it replaced — `gradient_into`
    /// per owned partition, one scalar multiply-add per coordinate —
    /// bit for bit, on the worker shapes of the ledger: one sample per
    /// partition, so the batching that matters spans partitions.
    #[test]
    fn compute_coded_bitwise_matches_the_per_partition_loop() {
        // (d, owned partitions): `threaded-pipelined` (rates 1:1:2:4,
        // k = n = 8, s = 1) and `socket-f64` (k = n = 4, s = 1).
        let shapes: [(usize, &[usize]); 4] = [
            (8192, &[0, 1, 2, 3, 4, 5, 6, 7]),
            (8192, &[2, 3, 6, 7]),
            (8192, &[5, 1]),
            (4096, &[3, 0]),
        ];
        for (d, owned) in shapes {
            let mut rng = StdRng::seed_from_u64(d as u64);
            let data = synthetic::linear_regression(8, d, 0.01, &mut rng);
            let model = LinearRegression::new(d);
            let params = model.init_params(&mut rng);
            let ranges: Vec<(usize, usize)> = owned.iter().map(|&p| (p, p + 1)).collect();
            let coefficients: Vec<f64> = (0..owned.len())
                .map(|p| [1.7, -0.4, 0.0, 2.5][p % 4] * (1.0 + p as f64))
                .collect();

            let mut want = vec![0.0; d + 1];
            let mut partial = vec![0.0; d + 1];
            for (&range, &coef) in ranges.iter().zip(&coefficients) {
                model.gradient_into(&params, &data, range, &mut partial);
                for (c, g) in want.iter_mut().zip(&partial) {
                    *c += coef * g;
                }
            }

            // Dirty, wrongly sized scratch: both are resized and overwritten.
            let (mut coded, mut scratch) = (vec![f64::NAN; 3], vec![f64::NAN; d + 9]);
            compute_coded(
                &model,
                &data,
                &ranges,
                &coefficients,
                &params,
                &mut coded,
                &mut scratch,
            );
            assert_eq!(coded.len(), want.len());
            for (j, (c, w)) in coded.iter().zip(&want).enumerate() {
                assert_eq!(
                    c.to_bits(),
                    w.to_bits(),
                    "d = {d}, {owned:?}, coordinate {j}"
                );
            }
        }
    }

    /// The `compute_coded` of before the fold sink, kept as the reference:
    /// each owned partition's gradient written whole into a scratch
    /// vector, then `kernels::axpy` into the coded sum.
    fn fill_then_axpy(
        model: &dyn Model,
        data: &Dataset,
        ranges: &[(usize, usize)],
        coefficients: &[f64],
        params: &[f64],
    ) -> Vec<u64> {
        let n = model.num_params();
        let (mut coded, mut partial) = (vec![0.0; n], vec![0.0; n]);
        for (&range, &coef) in ranges.iter().zip(coefficients) {
            model.gradient_into(params, data, range, &mut partial);
            hetgc_coding::kernels::axpy(coef, &partial, &mut coded);
        }
        nan_folded_bits(&coded)
    }

    /// Bit patterns, every NaN folded to one (payloads are not part of
    /// the contract).
    fn nan_folded_bits(x: &[f64]) -> Vec<u64> {
        x.iter()
            .map(|v| if v.is_nan() { u64::MAX } else { v.to_bits() })
            .collect()
    }

    /// `n` full-mantissa values; with `wild`, one in seven `NaN`, `±∞` or
    /// `−0.0` instead.
    fn values(n: usize, seed: u64, wild: bool) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let draw = state >> 33;
                match (wild, draw % 28) {
                    (true, 0) => f64::NAN,
                    (true, 1) => f64::INFINITY,
                    (true, 2) => f64::NEG_INFINITY,
                    (true, 3) => -0.0,
                    _ => (draw as f64 / (1u64 << 31) as f64 - 0.5) * 2.3,
                }
            })
            .collect()
    }

    /// `compute_coded` — the model folding each partition's gradient as
    /// it forms it, or through `partial` where it cannot — against
    /// [`fill_then_axpy`], for every model and range set: `hetgc-net`'s
    /// nine unaligned ranges, every range of 0..=6 samples alone and all
    /// of them in a run, and fewer coefficients than ranges; NaN / ±∞ /
    /// `−0.0` in features, parameters and targets; `0.0` and `−0.0`
    /// coefficients; `d` off the kernels' lane width. (From a `+0.0` sum
    /// the sign of a zero term never shows, so a dropped `0 +` is
    /// `hetgc-ml`'s fold tests' to catch, from a `−0.0` accumulator.)
    #[test]
    fn compute_coded_bitwise_matches_fill_then_axpy() {
        use hetgc_ml::{Mlp, SoftmaxRegression, Targets};
        let unaligned = [
            (3, 4),
            (4, 5),
            (5, 5),
            (5, 14),
            (14, 15),
            (15, 18),
            (18, 40),
            (40, 41),
            (41, 42),
        ];
        let mut range_sets: Vec<Vec<(usize, usize)>> = vec![unaligned.to_vec()];
        for len in 0..=6 {
            range_sets.extend([0, 3].map(|lo| vec![(lo, lo + len)]));
        }
        let mut lo = 3;
        range_sets.push(
            (0..=6)
                .map(|len| {
                    lo += len;
                    (lo - len, lo)
                })
                .collect(),
        );
        let coefficients = [1.5, -0.25, 3.0, 0.0, 2.0, -1.0, 0.5, -0.0, -4.0];

        let samples = 42;
        for wild in 0..4 {
            let [wild_x, wild_params, wild_y] = [wild == 1, wild == 2, wild == 3];
            let regression = |dim| {
                let x = values(samples * dim, 11, wild_x);
                Dataset::new(x, Targets::Regression(values(samples, 12, wild_y)), dim)
            };
            let classes = |dim, num_classes| {
                let labels = (0..samples).map(|i| (i * 7 + 3) % num_classes).collect();
                let x = values(samples * dim, 11, wild_x);
                Dataset::new(
                    x,
                    Targets::Classes {
                        labels,
                        num_classes,
                    },
                    dim,
                )
            };
            let cases: Vec<(Box<dyn Model>, Dataset)> = vec![
                (Box::new(LinearRegression::new(1)), regression(1)),
                (Box::new(LinearRegression::new(7)), regression(7)),
                (Box::new(LinearRegression::new(129)), regression(129)),
                (Box::new(SoftmaxRegression::new(5, 3)), classes(5, 3)),
                (Box::new(Mlp::new(4, 3, 2)), classes(4, 2)),
            ];
            for (model, data) in &cases {
                let params = values(model.num_params(), 13, wild_params);
                for ranges in &range_sets {
                    for owned in [ranges.len(), ranges.len().div_ceil(2)] {
                        let coefficients = &coefficients[..owned.min(coefficients.len())];
                        let want = fill_then_axpy(&**model, data, ranges, coefficients, &params);
                        let (mut coded, mut partial) = (Vec::new(), Vec::new());
                        compute_coded(
                            &**model,
                            data,
                            ranges,
                            coefficients,
                            &params,
                            &mut coded,
                            &mut partial,
                        );
                        assert_eq!(
                            nan_folded_bits(&coded),
                            want,
                            "wild {wild}, {} params, {ranges:?}, {owned} owned",
                            model.num_params()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn compute_coded_ignores_partitions_without_a_coefficient() {
        let mut rng = StdRng::seed_from_u64(4);
        let data = synthetic::linear_regression(6, 2, 0.0, &mut rng);
        let model = LinearRegression::new(2);
        let (mut coded, mut partial) = (Vec::new(), Vec::new());
        let run = |ranges: &[(usize, usize)], coded: &mut Vec<f64>, partial: &mut Vec<f64>| {
            compute_coded(
                &model,
                &data,
                ranges,
                &[2.0],
                &[0.1, 0.2, 0.3],
                coded,
                partial,
            );
        };
        run(&[(0, 3), (3, 6)], &mut coded, &mut partial);
        let both = coded.clone();
        run(&[(0, 3)], &mut coded, &mut partial);
        assert_eq!(both, coded);
    }

    /// `reply` carries `coef` × the full gradient of [`spawn_worker`]'s
    /// dataset at `params`.
    fn assert_scaled_gradient(reply: &FromWorker, coef: f64, params: &[f64]) {
        let mut rng = StdRng::seed_from_u64(3);
        let data = synthetic::linear_regression(10, 2, 0.0, &mut rng);
        let full = LinearRegression::new(2).gradient(params, &data, (0, 10));
        assert_eq!(reply.coded.len(), full.len());
        for (c, f) in reply.coded.iter().zip(&full) {
            assert!(
                (c - coef * f).abs() < 1e-10,
                "seq {}: {c} vs {coef} × {f}",
                reply.seq
            );
        }
    }

    fn round(iteration: usize, params: &Arc<Vec<f64>>) -> ToWorker {
        ToWorker::Round {
            iteration,
            params: Arc::clone(params),
        }
    }

    #[test]
    fn worker_computes_encoded_gradient() {
        let (tx, rx, handle) = spawn_worker(WorkerBehavior::nominal(), 2.0);
        let params = Arc::new(vec![0.1, -0.2, 0.05]);
        tx.send(ToWorker::Round {
            iteration: 1,
            params: Arc::clone(&params),
        })
        .unwrap();
        let reply = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(reply.worker, 0);
        assert_eq!(reply.seq, 1);
        assert_eq!(reply.coded.len(), 3);
        // coefficient 2 on both halves = 2 × full gradient.
        assert_scaled_gradient(&reply, 2.0, &params);
        tx.send(ToWorker::Shutdown).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn failed_worker_stays_silent() {
        let (tx, rx, handle) = spawn_worker(WorkerBehavior::nominal().failing_from(2), 1.0);
        let params = Arc::new(vec![0.0; 3]);
        tx.send(ToWorker::Round {
            iteration: 1,
            params: Arc::clone(&params),
        })
        .unwrap();
        assert!(rx.recv_timeout(Duration::from_secs(5)).is_ok());
        tx.send(ToWorker::Round {
            iteration: 2,
            params,
        })
        .unwrap();
        assert!(rx.recv_timeout(Duration::from_millis(200)).is_err());
        tx.send(ToWorker::Shutdown).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn worker_exits_when_master_hangs_up() {
        let (tx, _rx, handle) = spawn_worker(WorkerBehavior::nominal(), 1.0);
        drop(tx);
        handle.join().unwrap();
    }

    #[test]
    fn throttle_stretches_iteration() {
        // 10 samples at 50 samples/sec → ≥ 200 ms.
        let (tx, rx, handle) = spawn_worker(WorkerBehavior::nominal().with_throttle(50.0), 1.0);
        let start = Instant::now();
        tx.send(ToWorker::Round {
            iteration: 1,
            params: Arc::new(vec![0.0; 3]),
        })
        .unwrap();
        let _ = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(
            start.elapsed() >= Duration::from_millis(180),
            "{:?}",
            start.elapsed()
        );
        tx.send(ToWorker::Shutdown).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn reply_time_covers_the_throttle_and_the_delay() {
        // 10 samples at 50 samples/sec = 200 ms, then 50 ms of delay.
        let behavior = WorkerBehavior::nominal()
            .with_throttle(50.0)
            .with_delay(Duration::from_millis(50));
        let (tx, rx, handle) = spawn_worker(behavior, 1.0);
        tx.send(round(1, &Arc::new(vec![0.0; 3]))).unwrap();
        let reply = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(reply.compute_seconds >= 0.25, "{}", reply.compute_seconds);
        tx.send(ToWorker::Shutdown).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn rounds_sent_mid_wait_fast_forward_to_the_newest() {
        let (tx, rx, handle) = spawn_worker(
            WorkerBehavior::nominal().with_delay(Duration::from_millis(150)),
            1.0,
        );
        let params = Arc::new(vec![0.1, -0.2, 0.05]);
        tx.send(round(1, &params)).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        for iteration in 2..=4 {
            tx.send(round(iteration, &params)).unwrap();
        }
        // Round 1 is served after its full delay, then round 4 — rounds
        // 2 and 3 were superseded while the worker waited.
        let mut replies = Vec::new();
        while let Ok(reply) = rx.recv_timeout(Duration::from_millis(500)) {
            replies.push((reply.seq, reply.compute_seconds));
        }
        assert_eq!(
            replies.iter().map(|r| r.0).collect::<Vec<_>>(),
            [1, 4],
            "{replies:?}"
        );
        assert!(replies.iter().all(|r| r.1 >= 0.15), "{replies:?}");
        tx.send(ToWorker::Shutdown).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn recode_mid_wait_applies_before_the_next_round() {
        let (tx, rx, handle) = spawn_worker(
            WorkerBehavior::nominal().with_delay(Duration::from_millis(150)),
            1.0,
        );
        let params = Arc::new(vec![0.1, -0.2, 0.05]);
        tx.send(round(1, &params)).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        tx.send(ToWorker::Recode {
            ranges: vec![(0, 5), (5, 10)],
            coefficients: vec![3.0, 3.0],
        })
        .unwrap();
        tx.send(round(2, &params)).unwrap();
        // Round 1 was computed before the recode landed; round 2 after.
        let first = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(first.seq, 1);
        assert_scaled_gradient(&first, 1.0, &params);
        let second = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(second.seq, 2);
        assert_scaled_gradient(&second, 3.0, &params);
        tx.send(ToWorker::Shutdown).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn shutdown_mid_wait_returns_at_once() {
        let (tx, rx, handle) = spawn_worker(
            WorkerBehavior::nominal().with_delay(Duration::from_secs(2)),
            1.0,
        );
        tx.send(round(1, &Arc::new(vec![0.0; 3]))).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        let stopping = Instant::now();
        tx.send(ToWorker::Shutdown).unwrap();
        handle.join().unwrap();
        assert!(
            stopping.elapsed() < Duration::from_millis(100),
            "{:?}",
            stopping.elapsed()
        );
        assert!(rx.try_recv().is_err(), "no reply to the interrupted round");
    }
}
