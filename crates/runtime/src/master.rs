//! The master: broadcast → collect → decode at the earliest decodable set
//! → escalate at the deadline, once, for every transport.
//!
//! [`Master`] owns everything a coded round has in common — the
//! escalation-wrapped codec, the reusable decode session, the per-worker
//! arrival slots, the in-flight tag and its round-relative deadline, the
//! compute/late/arrival timings and the flight-recorder spans. A
//! [`Transport`] supplies only what genuinely differs between worker
//! pools. `ThreadedCluster` (threads + channels) and `hetgc-net`'s
//! `SocketCluster` (TCP links + reader threads) are two transports under
//! this one loop.
//!
//! Whether a round is done is **not** decided here: the master's clock
//! feeds replies, ending at the deadline, to
//! [`hetgc_coding::collect_round`], which the simulator runs on its
//! simulated clock — one rule, every execution path.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::Receiver;
use hetgc_cluster::{PartitionAssignment, RoundSample};
use hetgc_coding::{
    collect_round, CodecSession, CodingMatrix, EscalatingCodec, GradientCodec, RoundEnd,
};
use hetgc_ml::{Dataset, Model};
use hetgc_obs::{Phase, Recorder};

use crate::config::RuntimeConfig;
use crate::error::RuntimeError;
use crate::message::Reply;
use crate::round::EngineRound;

/// One row's marching orders: the sample ranges of the partitions it
/// holds, and the aligned coefficients of its row of `B`.
pub type RowShard = (Vec<(usize, usize)>, Vec<f64>);

/// What differs between worker pools, as the [`Master`] sees it.
pub trait Transport {
    /// The handle a coded gradient arrives in; the master moves it into
    /// the worker's arrival slot and decodes straight out of it.
    type Payload: AsRef<[f64]> + Send + Sync;

    /// Sends round `seq` at `params` to every worker that can still be
    /// reached.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::WorkerLost`] when the round cannot run at all.
    fn send_round(&mut self, seq: u64, params: &[f64]) -> Result<(), RuntimeError>;

    /// Where completed replies arrive.
    fn replies(&self) -> &Receiver<Reply<Self::Payload>>;

    /// Moves the workers onto a new code, one shard per row. On error the
    /// old rows keep running.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidConfig`] when the workers cannot carry that
    /// many rows, [`RuntimeError::WorkerLost`] when one is lost mid-swap.
    fn rerow(&mut self, shards: Vec<RowShard>) -> Result<(), RuntimeError>;

    /// Logical rows whose worker can still reply.
    fn live_rows(&self) -> Vec<usize>;

    /// `(sent, received)` wire bytes since the last
    /// [`Transport::send_round`].
    fn round_traffic(&self) -> (u64, u64);
}

/// Compiles `code` with the stages named by [`RuntimeConfig::backend`]
/// (a master holds only the matrix, so the group stage derives its groups
/// from it) and wires [`RuntimeConfig::escalation`] on top — the one
/// codec construction every master shares.
///
/// # Errors
///
/// [`RuntimeError::InvalidConfig`] when the requested backend cannot be
/// built from this matrix.
pub fn build_codec(
    code: CodingMatrix,
    config: &RuntimeConfig,
) -> Result<EscalatingCodec, RuntimeError> {
    let base = config
        .backend
        .compile(code, None)
        .map_err(|e| RuntimeError::InvalidConfig {
            reason: format!("{} backend construction failed: {e}", config.backend),
        })?;
    let mut codec = EscalatingCodec::new(base, config.escalation.clone());
    if let Some(shared) = &config.shared_plans {
        codec.attach_shared_plans(Arc::clone(shared));
    }
    Ok(codec)
}

/// Every row's [`RowShard`] under `codec` over an even partitioning of
/// `samples` samples — the codec's precompiled CSR rows are exactly the
/// workers' marching orders.
///
/// # Errors
///
/// [`RuntimeError::InvalidConfig`] when the samples cannot be split into
/// the codec's partitions.
pub fn row_shards(codec: &EscalatingCodec, samples: usize) -> Result<Vec<RowShard>, RuntimeError> {
    let assignment = PartitionAssignment::even(samples, codec.partitions()).map_err(|e| {
        RuntimeError::InvalidConfig {
            reason: format!("partitioning failed: {e}"),
        }
    })?;
    let compiled = codec.base();
    Ok((0..codec.workers())
        .map(|w| {
            let ranges = compiled
                .support_of(w)
                .iter()
                .map(|&p| assignment.range(p).expect("support within k"))
                .collect();
            (ranges, compiled.coefficients_of(w).to_vec())
        })
        .collect())
}

/// Per-row state of the round being collected, reused round over round.
#[derive(Debug)]
struct Slots<P> {
    /// The recycle ring: an arriving payload *moves* into its worker's
    /// slot (no clone); the previous round's payloads are released when
    /// the next collect rearms the slots.
    received: Vec<Option<P>>,
    compute_seconds: Vec<f64>,
    /// Compute seconds from stale (earlier-round) replies observed while
    /// waiting on the current round — reported once, as a late
    /// [`RoundSample`].
    late_compute_seconds: Vec<f64>,
    arrival_seconds: Vec<f64>,
    wire_errors: Vec<f64>,
    /// Wire bytes of each reply's payload (0 = none this round).
    payload_bytes: Vec<u64>,
}

impl<P> Slots<P> {
    fn new(m: usize) -> Self {
        Slots {
            received: (0..m).map(|_| None).collect(),
            compute_seconds: vec![0.0; m],
            late_compute_seconds: vec![0.0; m],
            arrival_seconds: vec![0.0; m],
            wire_errors: vec![0.0; m],
            payload_bytes: vec![0; m],
        }
    }

    /// Releases the previous round's payloads and timings (late timings
    /// persist until reported).
    fn rearm(&mut self) {
        self.received.iter_mut().for_each(|slot| *slot = None);
        self.compute_seconds.fill(0.0);
        self.arrival_seconds.fill(0.0);
        self.wire_errors.fill(0.0);
        self.payload_bytes.fill(0);
    }

    /// Stores one reply of the round tagged `tag` and returns its row.
    /// A stale reply keeps its timing (a real throughput observation) and
    /// loses its payload; a row outside the current code — a reply from
    /// before a shrinking re-row — is dropped. Neither yields a row.
    fn absorb(
        &mut self,
        recorder: Option<&Recorder>,
        tag: u64,
        started: Instant,
        reply: Reply<P>,
    ) -> Option<usize> {
        let worker = reply.worker;
        if worker >= self.received.len() {
            return None;
        }
        if reply.seq != tag {
            self.late_compute_seconds[worker] = reply.compute_seconds;
            return None;
        }
        self.compute_seconds[worker] = reply.compute_seconds;
        self.wire_errors[worker] = reply.wire_error;
        self.payload_bytes[worker] = reply.payload_bytes;
        if let Some(arrived) = reply.arrived {
            self.arrival_seconds[worker] = arrived.saturating_duration_since(started).as_secs_f64();
        }
        if let Some(rec) = recorder {
            // Stamped at absorb time, inside the collect span; the
            // transport's own arrival clock rides in `arrival_seconds`.
            rec.instant(Phase::Arrival, (worker + 1) as u64);
        }
        self.received[worker] = Some(reply.coded);
        Some(worker)
    }
}

/// A running coded worker pool behind a [`Transport`]: each
/// [`Master::round`] runs one broadcast → collect → decode/escalate →
/// combine cycle.
#[derive(Debug)]
pub struct Master<M, T: Transport> {
    codec: EscalatingCodec,
    model: Arc<M>,
    data: Arc<Dataset>,
    config: RuntimeConfig,
    transport: T,
    session: CodecSession,
    slots: Slots<T::Payload>,
    /// The dispatched-but-not-yet-collected round (tag + dispatch time).
    inflight: Option<(u64, Instant)>,
    /// Round tag, strictly increasing across rounds — workers echo it
    /// back, so stale results from ANY earlier round (including a
    /// previous driver run over the same master) are filtered out
    /// regardless of the caller's numbering.
    round_seq: u64,
    /// Flight recorder for the master's hot phases; `None` until attached.
    recorder: Option<Recorder>,
}

impl<M: Model, T: Transport> Master<M, T> {
    /// A master decoding with `codec` over workers already running its
    /// rows behind `transport`. The round deadline is `codec`'s policy
    /// deadline; `config` supplies what [`Master::recode`] rebuilds
    /// codecs with.
    pub fn new(
        codec: EscalatingCodec,
        model: Arc<M>,
        data: Arc<Dataset>,
        config: &RuntimeConfig,
        transport: T,
    ) -> Self {
        Master {
            session: codec.session(),
            slots: Slots::new(codec.workers()),
            codec,
            model,
            data,
            config: config.clone(),
            transport,
            inflight: None,
            round_seq: 0,
            recorder: None,
        }
    }

    /// Number of (logical) workers in the current code.
    pub fn workers(&self) -> usize {
        self.codec.workers()
    }

    /// Number of data partitions.
    pub fn partitions(&self) -> usize {
        self.codec.partitions()
    }

    /// The escalation-wrapped codec the master decodes with.
    pub fn codec(&self) -> &EscalatingCodec {
        &self.codec
    }

    /// The model the workers compute gradients of.
    pub fn model(&self) -> &Arc<M> {
        &self.model
    }

    /// The worker pool's transport.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Logical rows whose worker can still reply.
    pub fn live_rows(&self) -> Vec<usize> {
        self.transport.live_rows()
    }

    /// Installs a learned round deadline through
    /// [`EscalatingCodec::set_deadline`], which ignores it when the
    /// ladder cannot escalate. It survives [`Master::recode`].
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.codec.set_deadline(timeout.as_secs_f64());
    }

    /// Installs a flight recorder: every subsequent round emits
    /// dispatch/collect/decode spans and per-arrival instants (and recode
    /// spans on hot swaps) into it.
    pub fn attach_recorder(&mut self, recorder: Recorder) {
        self.recorder = Some(recorder);
    }

    /// Attaches cache/solve metric handles to the decode codec; they
    /// follow it across [`Master::recode`] hot swaps.
    pub fn attach_codec_metrics(&mut self, metrics: hetgc_obs::CodecMetrics) {
        self.codec.attach_metrics(metrics);
    }

    /// Hot-swaps a rebuilt coding strategy into the running pool, between
    /// rounds: the new matrix is compiled into the configured backend +
    /// escalation policy, with the deadline in force carried over, and
    /// partitioned, then the transport re-rows its workers around it.
    /// Round sequencing is preserved (workers' fail-stop/throttle-step
    /// schedules keep counting where they were).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidConfig`] when a round is in flight (collect
    /// it first), or when the new matrix cannot be compiled, partitioned
    /// or carried by the live workers — the old regime keeps running in
    /// that case. [`RuntimeError::WorkerLost`] when a worker is lost
    /// mid-swap.
    pub fn recode(&mut self, code: CodingMatrix) -> Result<(), RuntimeError> {
        if self.inflight.is_some() {
            return Err(RuntimeError::InvalidConfig {
                reason: "recode while a round is in flight (collect it first)".into(),
            });
        }
        let _recode_span = self.recorder.as_ref().map(|r| r.span(Phase::Recode));
        let mut codec = build_codec(code, &self.config)?;
        if let Some(metrics) = self.codec.base().metrics() {
            codec.attach_metrics(metrics.clone());
        }
        if let Some(deadline) = self.codec.policy().deadline() {
            codec.set_deadline(deadline.as_secs_f64());
        }
        self.transport.rerow(row_shards(&codec, self.data.len())?)?;
        self.session = codec.session();
        self.slots = Slots::new(codec.workers());
        self.codec = codec;
        Ok(())
    }

    /// Runs one collect round: [`Master::dispatch`] then
    /// [`Master::collect`], whose round it returns.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::WorkerLost`] when the round cannot be sent.
    pub fn round(&mut self, params: &[f64]) -> Result<EngineRound, RuntimeError> {
        self.dispatch(params)?;
        self.collect()
    }

    /// Broadcasts `params` to the workers and returns immediately — the
    /// first half of the split round cycle. Workers begin computing while
    /// the master is free to do other work (the optimizer step, loss
    /// evaluation); [`Master::collect`] finishes the round. This is what
    /// `PipelinedDriver` builds on.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::InvalidConfig`] when a round is already in
    ///   flight (collect it first).
    /// * [`RuntimeError::WorkerLost`] when the transport cannot send it.
    pub fn dispatch(&mut self, params: &[f64]) -> Result<(), RuntimeError> {
        if self.inflight.is_some() {
            return Err(RuntimeError::InvalidConfig {
                reason: "dispatch while a round is in flight (collect it first)".into(),
            });
        }
        let _dispatch_span = self.recorder.as_ref().map(|r| r.span(Phase::Dispatch));
        self.round_seq += 1;
        self.transport.send_round(self.round_seq, params)?;
        self.inflight = Some((self.round_seq, Instant::now()));
        Ok(())
    }

    /// Collects the round started by the last [`Master::dispatch`]:
    /// streams replies into [`collect_round`] and combines the decoded
    /// gradient.
    ///
    /// The deadline (the codec policy's) runs from the *dispatch* — the
    /// moment the workers started computing, matching the simulator's
    /// `fallback_deadline` — and stale or slow arrivals never extend it.
    /// A master that arrives late (e.g. after the overlapped step/loss
    /// work of a pipelined round) first drains every reply already queued
    /// — an exact decode may be waiting there — so workers keep their
    /// full window regardless of master-side delay. The round expires
    /// once the deadline has passed and the queue is drained, or when
    /// every worker hung up.
    ///
    /// The round reports one [`RoundSample`] per row: in time at the
    /// transport's arrival stamp (at compute end when unstamped); late
    /// when only an earlier round's reply came, whose timing is reported
    /// this once; failed otherwise. A round that stalls — not decoded
    /// when it expired, and the escalation ladder declined — is
    /// [`EngineRound::failed`]`(true)`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidConfig`] when no round is in flight.
    pub fn collect(&mut self) -> Result<EngineRound, RuntimeError> {
        let (tag, started) = self
            .inflight
            .take()
            .ok_or_else(|| RuntimeError::InvalidConfig {
                reason: "collect without a dispatched round".into(),
            })?;

        let collect_span = self.recorder.as_ref().map(|r| r.span(Phase::Collect));
        let pool_hits_before = self.session.pool().hits();
        self.slots.rearm();
        let (replies, recorder) = (self.transport.replies(), self.recorder.as_ref());
        let deadline = self.codec.policy().deadline();
        let slots = &mut self.slots;
        // The master's clock: once the deadline has passed (or every
        // sender hung up) it only drains what is already queued, then
        // ends the arrivals.
        let mut expired = false;
        let arrivals = std::iter::from_fn(|| loop {
            let next = if expired {
                replies.try_recv().ok()
            } else {
                match deadline {
                    Some(t) => t
                        .checked_sub(started.elapsed())
                        .and_then(|remaining| replies.recv_timeout(remaining).ok()),
                    None => replies.recv().ok(),
                }
            };
            match next {
                Some(reply) => {
                    if let Some(worker) = slots.absorb(recorder, tag, started, reply) {
                        return Some(worker);
                    }
                }
                None if expired => return None,
                None => expired = true,
            }
        });
        let end = collect_round(&self.codec, &mut self.session, arrivals)?;
        drop(collect_span);
        let plan = match &end {
            RoundEnd::Exact => self.session.decoded_plan().expect("exact round decoded"),
            RoundEnd::Escalated(plan) => plan,
            RoundEnd::Stalled => return Ok(EngineRound::failed(true)),
        };

        // g = Σ a_w · g̃_w (un-normalized), applied straight over the
        // per-worker arrival slots — no clone of any coded payload — in
        // one whole-round pass through the blocked decode kernel.
        let decode_span = self.recorder.as_ref().map(|r| r.span(Phase::Decode));
        let slots = &mut self.slots;
        let mut gradient = vec![0.0; self.model.num_params()];
        plan.apply_rows_into(
            |w| slots.received[w].as_ref().map(AsRef::as_ref),
            &mut gradient,
        )?;
        drop(decode_span);
        let received = slots.received.iter().flatten();
        let alloc_bytes = received
            .map(|coded| std::mem::size_of_val(coded.as_ref()) as u64)
            .sum();
        // Work units are the samples each row owns. A row with zero
        // compute did not reply in time; its late timing, if any, is a
        // consistent straggler's real observation, reported exactly once.
        let samples_per_partition = self.data.len() as f64 / self.codec.partitions() as f64;
        let samples = (0..slots.compute_seconds.len())
            .map(|w| {
                let work = self.codec.load_of(w) as f64 * samples_per_partition;
                let compute = slots.compute_seconds[w];
                let late = std::mem::take(&mut slots.late_compute_seconds[w]);
                if compute > 0.0 {
                    // The transport's measured arrival (serialization and
                    // wire time included) when it stamps one; else arrival
                    // ≈ compute end, channel latency being the only gap
                    // the master cannot observe.
                    let stamped = slots.arrival_seconds[w];
                    let arrival = if stamped > 0.0 { stamped } else { compute };
                    RoundSample::completed(w, work, compute, arrival)
                } else if compute == 0.0 && late > 0.0 {
                    RoundSample::completed(w, work, late, late).late()
                } else {
                    RoundSample::failed(w, work)
                }
            })
            .collect();
        let (bytes_sent, bytes_received) = self.transport.round_traffic();
        // Quantization errors combine in quadrature (independent lossy
        // links); savings compare each serialized reply's payload to the
        // f64 width it displaced.
        let full_width = (gradient.len() * 8) as u64;
        let serialized = slots.payload_bytes.iter().filter(|&&b| b > 0);
        Ok(EngineRound {
            elapsed: Some(started.elapsed().as_secs_f64()),
            at: None,
            residual: plan.residual(),
            gradient: Some(gradient),
            // The master only sees coded results; per-partition norms are
            // unavailable, so the driver scales by residual/√k.
            error_bound: None,
            results_used: plan.len(),
            busy: slots.compute_seconds.clone(),
            samples,
            alloc_bytes,
            pool_hits: self.session.pool().hits() - pool_hits_before,
            bytes_sent,
            bytes_received,
            wire_error: slots.wire_errors.iter().map(|e| e * e).sum::<f64>().sqrt(),
            bytes_saved: serialized.map(|&b| full_width.saturating_sub(b)).sum(),
            stop: false,
        })
    }
}

#[cfg(test)]
impl<M: Model, T: Transport> Master<M, T> {
    /// The training data the master evaluates against.
    pub(crate) fn data(&self) -> &Arc<Dataset> {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::{unbounded, Sender};
    use hetgc_coding::{heter_aware, CodecBackend, EscalationPolicy};
    use hetgc_ml::{synthetic, LinearRegression};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A scripted in-memory transport: no threads, no sockets. Rounds
    /// "sent" go nowhere; the test queues the replies by hand.
    struct Scripted {
        replies: Receiver<Reply<Vec<f64>>>,
        rows: usize,
    }

    impl Transport for Scripted {
        type Payload = Vec<f64>;

        fn send_round(&mut self, _seq: u64, _params: &[f64]) -> Result<(), RuntimeError> {
            Ok(())
        }

        fn replies(&self) -> &Receiver<Reply<Vec<f64>>> {
            &self.replies
        }

        fn rerow(&mut self, shards: Vec<RowShard>) -> Result<(), RuntimeError> {
            self.rows = shards.len();
            Ok(())
        }

        fn live_rows(&self) -> Vec<usize> {
            (0..self.rows).collect()
        }

        fn round_traffic(&self) -> (u64, u64) {
            (0, 0)
        }
    }

    struct Rig {
        master: Master<LinearRegression, Scripted>,
        queue: Sender<Reply<Vec<f64>>>,
        params: Vec<f64>,
        /// The full-batch gradient an exact decode must reproduce.
        direct: Vec<f64>,
    }

    impl Rig {
        /// A master over `workers` equal-rate rows (`s = 1`) compiled
        /// `backend`, with the given escalation policy.
        fn new(workers: usize, backend: CodecBackend, policy: EscalationPolicy) -> Self {
            let mut rng = StdRng::seed_from_u64(7);
            let code = heter_aware(&vec![1.0; workers], workers, 1, &mut rng).unwrap();
            let config = RuntimeConfig::nominal(workers)
                .with_backend(backend)
                .with_escalation(policy);
            let model = Arc::new(LinearRegression::new(3));
            let data = Arc::new(synthetic::linear_regression(60, 3, 0.01, &mut rng));
            let params = model.init_params(&mut rng);
            let direct = model.gradient(&params, &data, (0, data.len()));
            let (queue, replies) = unbounded();
            let transport = Scripted {
                replies,
                rows: workers,
            };
            let codec = build_codec(code, &config).unwrap();
            Rig {
                master: Master::new(codec, model, data, &config, transport),
                queue,
                params,
                direct,
            }
        }

        /// Queues row `worker`'s true coded gradient as a reply to round
        /// `seq`.
        fn reply(&self, worker: usize, seq: u64, compute_seconds: f64) {
            let m = &self.master;
            let mut coded = vec![0.0; self.direct.len()];
            if worker < m.workers() {
                let shards = row_shards(m.codec(), m.data().len()).unwrap();
                let (ranges, coefficients) = &shards[worker];
                for (&range, &c) in ranges.iter().zip(coefficients) {
                    let g = m.model().gradient(&self.params, m.data(), range);
                    coded.iter_mut().zip(&g).for_each(|(o, gi)| *o += c * gi);
                }
            }
            self.queue
                .send(Reply {
                    worker,
                    seq,
                    coded,
                    compute_seconds,
                    arrived: None,
                    wire_error: 0.0,
                    payload_bytes: 0,
                })
                .unwrap();
        }

        fn assert_exact(&self, round: &EngineRound) {
            assert_eq!(round.residual, 0.0);
            let gradient = round.gradient.as_ref().expect("decoded");
            for (g, d) in gradient.iter().zip(&self.direct) {
                assert!((g - d).abs() < 1e-9 * (1.0 + d.abs()), "{g} vs {d}");
            }
        }
    }

    /// Each row's late compute seconds this round (`0.0` unless its
    /// sample is marked late).
    fn late_timings(round: &EngineRound) -> Vec<f64> {
        let late = |s: &RoundSample| if s.straggled { s.compute_seconds } else { 0.0 };
        round.samples.iter().map(late).collect()
    }

    fn deadline(ms: u64) -> EscalationPolicy {
        EscalationPolicy::follow_backend()
            .with_deadline(Duration::from_millis(ms))
            .with_max_residual(100.0)
    }

    #[test]
    fn expired_deadline_drains_a_queued_decodable_set() {
        let mut rig = Rig::new(4, CodecBackend::Approx, deadline(1));
        rig.master.dispatch(&rig.params).unwrap();
        for w in 1..4 {
            rig.reply(w, 1, 0.01);
        }
        std::thread::sleep(Duration::from_millis(5));
        // The deadline passed before collect entry, yet the queued set
        // decodes exactly: the ladder is not consulted.
        let round = rig.master.collect().unwrap();
        rig.assert_exact(&round);
        assert_eq!(round.busy[0], 0.0);
        assert!(round.samples[0].failed);
        assert!(round.results_used >= 2);
        assert_eq!((round.bytes_sent, round.bytes_saved), (0, 0));
    }

    #[test]
    fn expired_deadline_escalates_to_the_ceiling() {
        // Two of five rows cannot decode an s = 1 code.
        let mut exact = Rig::new(5, CodecBackend::Exact, deadline(1));
        exact.master.dispatch(&exact.params).unwrap();
        exact.reply(0, 1, 0.01);
        exact.reply(1, 1, 0.01);
        let stalled = exact.master.collect().unwrap();
        assert!(stalled.stop && stalled.gradient.is_none());

        let mut approx = Rig::new(5, CodecBackend::Approx, deadline(1));
        approx.master.dispatch(&approx.params).unwrap();
        approx.reply(0, 1, 0.01);
        approx.reply(1, 1, 0.01);
        let round = approx.master.collect().unwrap();
        assert!(round.residual > 0.0);
        assert!(round.results_used <= 2);
    }

    #[test]
    fn stale_replies_surface_as_late_timings_exactly_once() {
        let mut rig = Rig::new(4, CodecBackend::Exact, deadline(1));
        // Round 1 decodes without row 0, whose reply lands afterwards.
        rig.master.dispatch(&rig.params).unwrap();
        for w in 1..4 {
            rig.reply(w, 1, 0.01);
        }
        let r1 = rig.master.collect().unwrap();
        assert_eq!(late_timings(&r1), vec![0.0; 4]);
        rig.reply(0, 1, 0.25);

        rig.master.dispatch(&rig.params).unwrap();
        for w in 1..4 {
            rig.reply(w, 2, 0.01);
        }
        let r2 = rig.master.collect().unwrap();
        assert_eq!((r2.busy[0], late_timings(&r2)[0]), (0.0, 0.25));
        assert_eq!(r2.samples[0].arrival_seconds, Some(0.25));

        // Row 1's stale reply is followed by its in-time one: the late
        // timing is superseded, and row 0's was already reported.
        rig.master.dispatch(&rig.params).unwrap();
        rig.reply(1, 2, 0.5);
        for w in 1..4 {
            rig.reply(w, 3, 0.01);
        }
        let r3 = rig.master.collect().unwrap();
        rig.assert_exact(&r3);
        assert_eq!(late_timings(&r3)[..2], [0.0, 0.0]);
        assert_eq!(r3.busy[1], 0.01);
        assert!(r3.samples[0].failed);

        rig.master.dispatch(&rig.params).unwrap();
        for w in 1..4 {
            rig.reply(w, 4, 0.01);
        }
        let r4 = rig.master.collect().unwrap();
        assert_eq!(late_timings(&r4)[1], 0.0);
    }

    #[test]
    fn rows_outside_a_shrunk_code_are_ignored() {
        let mut rig = Rig::new(4, CodecBackend::Exact, deadline(1));
        let smaller = heter_aware(&[1.0; 3], 3, 1, &mut StdRng::seed_from_u64(8)).unwrap();
        rig.master.recode(smaller).unwrap();
        assert_eq!(rig.master.live_rows(), vec![0, 1, 2]);
        rig.master.dispatch(&rig.params).unwrap();
        // Row 3 no longer exists: neither its stale nor its current-tag
        // reply may be indexed.
        rig.reply(3, 0, 0.3);
        rig.reply(3, 1, 0.3);
        for w in 0..3 {
            rig.reply(w, 1, 0.01);
        }
        let round = rig.master.collect().unwrap();
        rig.assert_exact(&round);
        assert_eq!(round.busy.len(), 3);
        assert_eq!(late_timings(&round), vec![0.0; 3]);
    }

    #[test]
    fn codec_metrics_follow_the_codec_across_a_recode() {
        let mut rig = Rig::new(5, CodecBackend::Approx, deadline(1));
        let registry = hetgc_obs::MetricsRegistry::new();
        rig.master
            .attach_codec_metrics(hetgc_obs::CodecMetrics::new(&registry, "rig"));
        // Two of five rows cannot decode an s = 1 code: each round
        // escalates at the deadline, which is one ridge solve.
        let escalated_round = |rig: &mut Rig, seq: u64| {
            rig.master.dispatch(&rig.params).unwrap();
            rig.reply(0, seq, 0.01);
            rig.reply(1, seq, 0.01);
            assert!(rig.master.collect().unwrap().residual > 0.0);
            match registry
                .snapshot()
                .get("hetgc_plan_solves_total", &[("codec", "rig")])
            {
                Some(&hetgc_obs::MetricValue::Counter(solves)) => solves,
                other => panic!("no solve counter: {other:?}"),
            }
        };
        assert_eq!(escalated_round(&mut rig, 1), 1);
        let code = heter_aware(&[1.0; 5], 5, 1, &mut StdRng::seed_from_u64(10)).unwrap();
        rig.master.recode(code).unwrap();
        assert_eq!(
            escalated_round(&mut rig, 2),
            2,
            "counters stop at the recode"
        );
    }

    #[test]
    fn learned_deadline_is_guarded_and_survives_a_recode() {
        let policy = EscalationPolicy::follow_backend();
        let mut exact = Rig::new(4, CodecBackend::Exact, policy.clone());
        exact.master.set_timeout(Duration::from_millis(5));
        assert_eq!(exact.master.codec().policy().deadline(), None);

        let mut approx = Rig::new(4, CodecBackend::Approx, policy);
        approx.master.set_timeout(Duration::from_millis(5));
        let code = heter_aware(&[1.0; 4], 4, 1, &mut StdRng::seed_from_u64(11)).unwrap();
        approx.master.recode(code).unwrap();
        let deadline = approx.master.codec().policy().deadline();
        assert_eq!(deadline, Some(Duration::from_millis(5)));
    }

    #[test]
    fn misordered_calls_are_typed_errors() {
        let mut rig = Rig::new(4, CodecBackend::Exact, deadline(1));
        let invalid = |r: Result<(), RuntimeError>| {
            assert!(
                matches!(r, Err(RuntimeError::InvalidConfig { .. })),
                "{r:?}"
            );
        };
        invalid(rig.master.collect().map(drop));
        rig.master.dispatch(&rig.params).unwrap();
        invalid(rig.master.dispatch(&rig.params));
        // A recode must not discard the round in flight.
        let code = heter_aware(&[1.0; 4], 4, 1, &mut StdRng::seed_from_u64(9)).unwrap();
        invalid(rig.master.recode(code));
        for w in 0..4 {
            rig.reply(w, 1, 0.01);
        }
        let round = rig.master.collect().unwrap();
        rig.assert_exact(&round);
    }
}
