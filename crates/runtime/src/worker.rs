//! The worker thread: compute partial gradients over owned partitions,
//! encode with the worker's row of `B`, reply to the master — for every
//! master the thread serves. A thread is row `w` of each of its masters'
//! codes; each master is one tenant of the thread, with its own model,
//! dataset, row, round counter and reply channel.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use hetgc_ml::{Dataset, Model, PartialSink};

use crate::config::WorkerBehavior;
use crate::message::{FromWorker, ToWorker};

/// One master's row on a worker thread: what the thread computes that
/// master's coded gradient from, and where it replies.
pub(crate) struct Row {
    pub(crate) model: Arc<dyn Model + Send + Sync>,
    pub(crate) data: Arc<Dataset>,
    /// This row's sample ranges, one per owned partition, aligned with
    /// `coefficients`. Both are replaced by [`ToWorker::Recode`].
    pub(crate) ranges: Vec<(usize, usize)>,
    /// The non-zero entries of `b_w`, aligned with `ranges`.
    pub(crate) coefficients: Vec<f64>,
    pub(crate) outbox: Sender<FromWorker>,
    /// Set when the thread drops this row (a panic in the model, a
    /// deadline no clock reaches), so the master's next send reports the
    /// worker lost instead of waiting on a row that never replies.
    pub(crate) lost: Arc<AtomicBool>,
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
/// deadline; a worker thread waits on its inbox, so a shutdown, a recode
/// or another master's round is not held up by it.
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

/// A round a tenant sent and the thread has not served yet.
struct Held {
    /// The thread's arrival count when it came: held rounds are served
    /// oldest first.
    arrival: u64,
    iteration: usize,
    params: Arc<Vec<f64>>,
}

/// A computed reply waiting out its emulated deadline.
struct Waiting {
    until: Instant,
    started: Instant,
    reply: FromWorker,
}

/// One tenant of a worker thread: its row and its round state.
pub(crate) struct Tenant {
    id: usize,
    row: Row,
    /// The newest round received and not yet served: a newer one replaces
    /// it, so a tenant that fell behind joins its master's *current* round
    /// instead of replaying rounds already decoded without it.
    held: Option<Held>,
    /// The tenant's reply to its last round until its deadline passes; no
    /// other round of the tenant starts before it leaves.
    waiting: Option<Waiting>,
}

impl Tenant {
    /// Master `id`'s row, before any round.
    pub(crate) fn new(id: usize, row: Row) -> Self {
        Tenant {
            id,
            row,
            held: None,
            waiting: None,
        }
    }
}

/// Everything one worker thread keeps between messages.
struct WorkerLoop {
    index: usize,
    behavior: WorkerBehavior,
    tenants: Vec<Tenant>,
    arrivals: u64,
    /// Scratch of `compute_coded`, shared by the tenants: the only
    /// data-plane allocation a round costs is freezing `coded` into the
    /// `Arc<[f64]>` reply payload.
    coded: Vec<f64>,
    partial: Vec<f64>,
}

impl WorkerLoop {
    /// Takes one message in arrival order: a round replaces its tenant's
    /// held one (the newest wins), a recode moves the tenant onto its new
    /// row at once, a leave forgets the tenant and any reply it was owed.
    /// `false` on [`ToWorker::Shutdown`].
    fn take(&mut self, msg: ToWorker) -> bool {
        match msg {
            ToWorker::Round {
                tenant,
                iteration,
                params,
            } => {
                if let Some(t) = self.tenants.iter_mut().find(|t| t.id == tenant) {
                    t.held = Some(Held {
                        arrival: self.arrivals,
                        iteration,
                        params,
                    });
                    self.arrivals += 1;
                }
            }
            ToWorker::Recode {
                tenant,
                ranges,
                coefficients,
            } => {
                if let Some(t) = self.tenants.iter_mut().find(|t| t.id == tenant) {
                    t.row.ranges = ranges;
                    t.row.coefficients = coefficients;
                }
            }
            ToWorker::Leave { tenant } => self.tenants.retain(|t| t.id != tenant),
            ToWorker::Shutdown => return false,
        }
        true
    }

    /// Sends every reply whose deadline has passed. The compute seconds
    /// are read at the send — native gradient time stretched by the
    /// throttle and the injected delay — so the master's telemetry
    /// observes the worker's emulated speed, exactly what a real master
    /// would measure. A tenant whose master is gone is forgotten.
    fn release_due(&mut self) {
        let now = Instant::now();
        self.tenants.retain_mut(|t| {
            let Some(waiting) = t.waiting.take_if(|w| w.until <= now) else {
                return true;
            };
            let mut reply = waiting.reply;
            reply.compute_seconds = waiting.started.elapsed().as_secs_f64();
            t.row.outbox.send(reply).is_ok()
        });
    }

    /// The earliest deadline a reply is waiting out.
    fn next_deadline(&self) -> Option<Instant> {
        self.tenants
            .iter()
            .filter_map(|t| t.waiting.as_ref().map(|w| w.until))
            .min()
    }

    /// Computes the oldest held round of a tenant with no reply waiting.
    /// `false` when there is none. A round from the tenant's fail-stop
    /// iteration on is dropped unanswered (a dead VM still drains its
    /// inbox, so the master's sends never block). A panic in the tenant's
    /// model, or a deadline no clock reaches, loses that tenant's row on
    /// this thread — its master's next send reports the worker lost —
    /// and never the thread or its other tenants.
    fn serve_oldest(&mut self) -> bool {
        let next = self
            .tenants
            .iter()
            .enumerate()
            .filter(|(_, t)| t.waiting.is_none())
            .filter_map(|(i, t)| t.held.as_ref().map(|h| (h.arrival, i)))
            .min();
        let Some((_, i)) = next else {
            return false;
        };
        let WorkerLoop {
            index,
            behavior,
            tenants,
            coded,
            partial,
            ..
        } = self;
        let tenant = &mut tenants[i];
        let Some(Held {
            iteration, params, ..
        }) = tenant.held.take()
        else {
            return false;
        };
        if !behavior.responds_at(iteration) {
            return true;
        }
        let row = &tenant.row;
        let started = Instant::now();
        let computed = catch_unwind(AssertUnwindSafe(|| {
            compute_coded(
                &*row.model,
                &row.data,
                &row.ranges,
                &row.coefficients,
                &params,
                coded,
                partial,
            );
        }));
        let until = computed
            .ok()
            .and_then(|()| emulated_deadline(behavior, &row.ranges, iteration, started));
        let Some(until) = until else {
            tenants.remove(i).row.lost.store(true, Ordering::Release);
            return true;
        };
        tenant.waiting = Some(Waiting {
            until,
            started,
            reply: FromWorker {
                worker: *index,
                seq: iteration as u64,
                // The round's one data-plane allocation: freeze the scratch
                // into a shared payload (the scratch itself is reused).
                coded: Arc::from(coded.as_slice()),
                compute_seconds: 0.0,
                // No reader to stamp arrival, nothing serialized.
                arrived: None,
                wire_error: 0.0,
                payload_bytes: 0,
            },
        });
        true
    }
}

/// The worker main loop: row `index` of every master in `tenants`, all
/// under one `behavior`, each master's rounds counted by that master.
/// The caller allocates `tenants`, so the thread allocates nothing before
/// its first round.
/// It takes every queued message, sends every reply whose deadline has
/// passed, computes one held round, and repeats; with nothing to compute
/// it blocks until the next message or the nearest deadline. So while
/// one tenant's reply waits out its deadline, the thread still computes
/// and replies for the others. Returns on [`ToWorker::Shutdown`] or when
/// every sender to its inbox is gone — at once, even with replies still
/// waiting.
pub(crate) fn worker_main(
    index: usize,
    behavior: WorkerBehavior,
    tenants: Vec<Tenant>,
    inbox: Receiver<ToWorker>,
) {
    let mut worker = WorkerLoop {
        index,
        behavior,
        tenants,
        arrivals: 0,
        coded: Vec::new(),
        partial: Vec::new(),
    };
    loop {
        loop {
            match inbox.try_recv() {
                Ok(msg) => {
                    if !worker.take(msg) {
                        return;
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => return,
            }
        }
        worker.release_due();
        if worker.serve_oldest() {
            continue;
        }
        let msg = match worker.next_deadline() {
            Some(until) => {
                match inbox.recv_timeout(until.saturating_duration_since(Instant::now())) {
                    Ok(msg) => msg,
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => return,
                }
            }
            None => match inbox.recv() {
                Ok(msg) => msg,
                Err(_) => return,
            },
        };
        if !worker.take(msg) {
            return;
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

    /// A 10-sample regression row of `model` holding both halves at
    /// coefficient `coef`, and where its replies arrive.
    fn row(model: Arc<dyn Model + Send + Sync>, coef: f64) -> (Row, Receiver<FromWorker>) {
        let mut rng = StdRng::seed_from_u64(3);
        let data = Arc::new(synthetic::linear_regression(10, 2, 0.0, &mut rng));
        let (outbox, replies) = unbounded();
        let row = Row {
            model,
            data,
            ranges: vec![(0, 5), (5, 10)],
            coefficients: vec![coef, coef],
            outbox,
            lost: Arc::default(),
        };
        (row, replies)
    }

    /// A worker thread, row 0 under `behavior`, serving `rows` as tenants
    /// 0, 1, ….
    fn spawn_rows(
        behavior: WorkerBehavior,
        rows: Vec<Row>,
    ) -> (Sender<ToWorker>, std::thread::JoinHandle<()>) {
        let tenants = rows.into_iter().enumerate();
        let tenants = tenants.map(|(t, row)| Tenant::new(t, row)).collect();
        let (tx, rx) = unbounded();
        let handle = std::thread::spawn(move || worker_main(0, behavior, tenants, rx));
        (tx, handle)
    }

    /// A worker thread, row 0 under `behavior`, serving one regression
    /// tenant per coefficient (see [`row`]); each tenant's replies.
    fn spawn_tenants(
        behavior: WorkerBehavior,
        coefs: &[f64],
    ) -> (
        Sender<ToWorker>,
        Vec<Receiver<FromWorker>>,
        std::thread::JoinHandle<()>,
    ) {
        let model = || Arc::new(LinearRegression::new(2)) as Arc<dyn Model + Send + Sync>;
        let (rows, replies) = coefs.iter().map(|&coef| row(model(), coef)).unzip();
        let (tx, handle) = spawn_rows(behavior, rows);
        (tx, replies, handle)
    }

    /// [`spawn_tenants`] with one tenant, number 0.
    fn spawn_worker(
        behavior: WorkerBehavior,
        coef: f64,
    ) -> (
        Sender<ToWorker>,
        Receiver<FromWorker>,
        std::thread::JoinHandle<()>,
    ) {
        let (tx, mut replies, handle) = spawn_tenants(behavior, &[coef]);
        (tx, replies.remove(0), handle)
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
        round_of(0, iteration, params)
    }

    fn round_of(tenant: usize, iteration: usize, params: &Arc<Vec<f64>>) -> ToWorker {
        ToWorker::Round {
            tenant,
            iteration,
            params: Arc::clone(params),
        }
    }

    #[test]
    fn worker_computes_encoded_gradient() {
        let (tx, rx, handle) = spawn_worker(WorkerBehavior::nominal(), 2.0);
        let params = Arc::new(vec![0.1, -0.2, 0.05]);
        tx.send(round(1, &params)).unwrap();
        let reply = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(reply.worker, 0);
        assert_eq!(reply.seq, 1);
        assert_eq!(reply.coded.len(), 3);
        // coefficient 2 on both halves = 2 × full gradient.
        assert_scaled_gradient(&reply, 2.0, &params);
        tx.send(ToWorker::Shutdown).unwrap();
        handle.join().unwrap();
    }

    /// Fail-stop counts each tenant's own rounds: the second tenant's
    /// round 1 is answered after the first tenant's round 2 went silent.
    #[test]
    fn failed_worker_stays_silent() {
        let (tx, mut replies, handle) =
            spawn_tenants(WorkerBehavior::nominal().failing_from(2), &[1.0, 1.0]);
        let (rx, other) = (replies.remove(0), replies.remove(0));
        let params = Arc::new(vec![0.0; 3]);
        tx.send(round(1, &params)).unwrap();
        assert!(rx.recv_timeout(Duration::from_secs(5)).is_ok());
        tx.send(round(2, &params)).unwrap();
        assert!(rx.recv_timeout(Duration::from_millis(200)).is_err());
        tx.send(round_of(1, 1, &params)).unwrap();
        let reply = other.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(reply.seq, 1);
        tx.send(round_of(1, 2, &params)).unwrap();
        assert!(other.recv_timeout(Duration::from_millis(200)).is_err());
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
        tx.send(round(1, &Arc::new(vec![0.0; 3]))).unwrap();
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

    /// Each tenant fast-forwards to its own newest round, and a second
    /// tenant's round is computed while the first one's reply waits out
    /// its delay, not after it.
    #[test]
    fn rounds_sent_mid_wait_fast_forward_to_the_newest() {
        let delay = Duration::from_millis(150);
        let (tx, mut replies, handle) =
            spawn_tenants(WorkerBehavior::nominal().with_delay(delay), &[1.0, 1.0]);
        let (rx, other) = (replies.remove(0), replies.remove(0));
        let params = Arc::new(vec![0.1, -0.2, 0.05]);
        tx.send(round(1, &params)).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        let sent = Instant::now();
        tx.send(round_of(1, 1, &params)).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        for iteration in 2..=4 {
            tx.send(round(iteration, &params)).unwrap();
        }
        for iteration in 2..=3 {
            tx.send(round_of(1, iteration, &params)).unwrap();
        }
        let first = other.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(first.seq, 1);
        // Served at once, not after tenant 0's reply left (≈ 270 ms).
        assert!(
            sent.elapsed() < delay + Duration::from_millis(90),
            "{:?}",
            sent.elapsed()
        );
        // Round 1 is served after its full delay, then round 4 — rounds
        // 2 and 3 were superseded while the worker waited; likewise the
        // second tenant's round 3 superseded its round 2.
        let drain = |rx: &Receiver<FromWorker>| {
            let mut replies = Vec::new();
            while let Ok(reply) = rx.recv_timeout(Duration::from_millis(500)) {
                replies.push((reply.seq, reply.compute_seconds));
            }
            replies
        };
        let mut second = vec![(first.seq, first.compute_seconds)];
        second.extend(drain(&other));
        for (replies, want) in [(drain(&rx), [1, 4]), (second, [1, 3])] {
            assert_eq!(
                replies.iter().map(|r| r.0).collect::<Vec<_>>(),
                want,
                "{replies:?}"
            );
            assert!(replies.iter().all(|r| r.1 >= 0.15), "{replies:?}");
        }
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
            tenant: 0,
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

    /// A model that panics computing any gradient.
    struct Panicking;

    impl Model for Panicking {
        fn num_params(&self) -> usize {
            3
        }
        fn loss(&self, _: &[f64], _: &Dataset, _: (usize, usize)) -> f64 {
            0.0
        }
        fn gradient(&self, _: &[f64], _: &Dataset, _: (usize, usize)) -> Vec<f64> {
            panic!("no gradient here")
        }
        fn init_params(&self, _: &mut dyn rand::RngCore) -> Vec<f64> {
            vec![0.0; 3]
        }
    }

    /// A panic in one tenant's model drops that tenant's row (its reply
    /// channel hangs up, its lost flag is set) and leaves the thread
    /// serving the other.
    #[test]
    fn a_panicking_model_loses_only_its_tenants_row() {
        let (fine, rx) = row(Arc::new(LinearRegression::new(2)), 1.0);
        let (doomed, doomed_rx) = row(Arc::new(Panicking), 1.0);
        let lost = Arc::clone(&doomed.lost);
        let (tx, handle) = spawn_rows(WorkerBehavior::nominal(), vec![fine, doomed]);
        let params = Arc::new(vec![0.1, -0.2, 0.05]);
        tx.send(round_of(1, 1, &params)).unwrap();
        assert!(matches!(
            doomed_rx.recv_timeout(Duration::from_secs(5)),
            Err(RecvTimeoutError::Disconnected)
        ));
        assert!(lost.load(Ordering::Acquire));
        for iteration in 1..=2 {
            tx.send(round(iteration, &params)).unwrap();
            let reply = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(reply.seq, iteration as u64);
            assert_scaled_gradient(&reply, 1.0, &params);
        }
        tx.send(ToWorker::Shutdown).unwrap();
        handle.join().unwrap();
    }

    /// A deadline no clock reaches drops only the tenant it falls on: a
    /// tenant holding no samples is not stretched and keeps replying.
    #[test]
    fn an_unreachable_deadline_loses_only_its_tenants_row() {
        let endless = WorkerBehavior {
            throttle_samples_per_sec: Some(1e-300),
            ..WorkerBehavior::nominal()
        };
        let (stretched, rx) = row(Arc::new(LinearRegression::new(2)), 1.0);
        let (mut idle, idle_rx) = row(Arc::new(LinearRegression::new(2)), 1.0);
        (idle.ranges, idle.coefficients) = (Vec::new(), Vec::new());
        let (tx, handle) = spawn_rows(endless, vec![stretched, idle]);
        let params = Arc::new(vec![0.0; 3]);
        tx.send(round(1, &params)).unwrap();
        assert!(matches!(
            rx.recv_timeout(Duration::from_secs(5)),
            Err(RecvTimeoutError::Disconnected)
        ));
        for iteration in 1..=2 {
            tx.send(round_of(1, iteration, &params)).unwrap();
            let reply = idle_rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(
                (reply.seq, &reply.coded[..]),
                (iteration as u64, &[0.0; 3][..])
            );
        }
        tx.send(ToWorker::Shutdown).unwrap();
        handle.join().unwrap();
    }
}
