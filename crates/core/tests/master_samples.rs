//! The per-worker telemetry a wall-clock `Master` round reports, pinned
//! through `ClusterEngine` over a scripted in-memory transport: a worker
//! that replied in time is observed at the transport's arrival stamp, or
//! at its compute end when unstamped; a reply that missed its round is
//! observed once, marked late, in the next round — and only if that
//! worker did not also reply in time there; a worker with neither is a
//! failed sample. An undecodable round is `EngineRound::failed(true)`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hetgc::{
    heter_aware, synthetic, ClusterEngine, CodecBackend, EngineRound, EscalationPolicy,
    GradientCodec, LinearRegression, Model, PipelinedEngine, RoundEngine, RoundSample,
    RuntimeConfig,
};
use hetgc_runtime::channel::{unbounded, Receiver, Sender};
use hetgc_runtime::RuntimeError;
use hetgc_runtime::{build_codec, Master, Reply, RowShard, Transport};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Rounds go nowhere; the test queues the replies by hand.
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

type Engine = ClusterEngine<Box<Master<LinearRegression, Scripted>>>;

const SAMPLES: usize = 60;

/// Three equal rows (`s = 1`: any two decode, one cannot) on the exact
/// backend with a 20 ms deadline, and the queue their replies go into.
fn engine() -> (Engine, Sender<Reply<Vec<f64>>>) {
    let mut rng = StdRng::seed_from_u64(7);
    let code = heter_aware(&[1.0; 3], 3, 1, &mut rng).unwrap();
    let config = RuntimeConfig::nominal(3)
        .with_backend(CodecBackend::Exact)
        .with_escalation(
            EscalationPolicy::follow_backend().with_deadline(Duration::from_millis(20)),
        );
    let model = Arc::new(LinearRegression::new(3));
    let data = Arc::new(synthetic::linear_regression(SAMPLES, 3, 0.01, &mut rng));
    let (queue, replies) = unbounded();
    let transport = Scripted { replies, rows: 3 };
    let codec = build_codec(code, &config).unwrap();
    let master = Master::new(codec, model, data, &config, transport);
    (ClusterEngine::over(Box::new(master), "scripted"), queue)
}

/// Queues a reply of row `worker` to round `seq`; its payload carries no
/// meaning here, only its timings do.
fn reply(
    queue: &Sender<Reply<Vec<f64>>>,
    worker: usize,
    seq: u64,
    compute_seconds: f64,
    arrived: Option<Instant>,
) {
    queue
        .send(Reply {
            worker,
            seq,
            coded: vec![0.5; 4],
            compute_seconds,
            arrived,
            wire_error: 0.0,
            payload_bytes: 0,
        })
        .unwrap();
}

/// Row `w`'s work units: its partitions times the samples in each.
fn work(engine: &Engine, w: usize) -> f64 {
    let codec = engine.cluster().codec();
    codec.load_of(w) as f64 * SAMPLES as f64 / codec.partitions() as f64
}

/// Dispatches round `seq`, queues `stale` (row, compute) replies of the
/// previous round and then in-time replies from rows 1 (stamped 30 ms
/// after the dispatch) and 2, and collects. Returns the round and the
/// dispatch window the stamp's offset must fall in.
fn round_with(
    engine: &mut Engine,
    queue: &Sender<Reply<Vec<f64>>>,
    seq: u64,
    stale: &[(usize, f64)],
) -> (EngineRound, Duration) {
    let params = vec![0.0; engine.cluster().model().num_params()];
    let before = Instant::now();
    engine.dispatch(seq as usize, &params).unwrap();
    let after = Instant::now();
    for &(w, compute) in stale {
        reply(queue, w, seq - 1, compute, None);
    }
    reply(queue, 1, seq, 0.02, Some(after + Duration::from_millis(30)));
    reply(queue, 2, seq, 0.01, None);
    let round = engine.collect(seq as usize).unwrap();
    (round, after - before)
}

/// The decoded round reports one sample per row, in row order; row 2
/// replied unstamped, so it arrived at its compute end.
fn assert_common(engine: &Engine, round: &EngineRound, window: Duration) {
    assert!(round.elapsed.is_some() && round.gradient.is_some());
    assert!(!round.stop);
    assert_eq!(round.samples.len(), 3);
    let stamped = &round.samples[1];
    let offset = stamped.arrival_seconds.expect("stamped arrival");
    assert!(
        (0.030..=0.030 + window.as_secs_f64() + 1e-9).contains(&offset),
        "{offset}"
    );
    assert_eq!(
        *stamped,
        RoundSample::completed(1, work(engine, 1), 0.02, offset)
    );
    assert_eq!(
        round.samples[2],
        RoundSample::completed(2, work(engine, 2), 0.01, 0.01)
    );
    assert_eq!(round.busy, vec![0.0, 0.02, 0.01]);
}

#[test]
fn each_worker_is_in_time_late_once_or_failed() {
    let (mut engine, queue) = engine();

    // Round 1: row 0 never replies.
    let (r1, window) = round_with(&mut engine, &queue, 1, &[]);
    assert_common(&engine, &r1, window);
    assert_eq!(r1.samples[0], RoundSample::failed(0, work(&engine, 0)));

    // Round 2: row 0's round-1 reply lands late. Row 2's stale reply is
    // superseded by its in-time one.
    let (r2, window) = round_with(&mut engine, &queue, 2, &[(0, 0.25), (2, 0.5)]);
    assert_common(&engine, &r2, window);
    assert_eq!(
        r2.samples[0],
        RoundSample::completed(0, work(&engine, 0), 0.25, 0.25).late()
    );
    assert!(r2.samples[0].straggled && !r2.samples[0].failed);

    // Round 3: the late timing was reported once.
    let (r3, window) = round_with(&mut engine, &queue, 3, &[]);
    assert_common(&engine, &r3, window);
    assert_eq!(r3.samples[0], RoundSample::failed(0, work(&engine, 0)));
}

#[test]
fn an_undecodable_round_is_a_failed_round_that_stops() {
    let (mut engine, queue) = engine();
    let params = vec![0.0; engine.cluster().model().num_params()];
    // One row cannot decode an s = 1 code, and the exact-only ladder
    // declines at the deadline.
    reply(&queue, 0, 1, 0.01, None);
    let round = engine
        .round(1, &params, &mut StdRng::seed_from_u64(0))
        .unwrap();
    assert!(round.stop);
    assert_eq!((round.elapsed, round.at), (None, None));
    assert!(round.gradient.is_none());
    assert!(round.samples.is_empty() && round.busy.is_empty());
    assert_eq!((round.results_used, round.residual), (0, 0.0));
}
