//! The socket worker: the process-boundary counterpart of
//! `hetgc_runtime`'s worker thread. Connects, handshakes, then loops:
//! newest round → coded gradient → chunked streaming reply.
//!
//! The compute path *is* the in-process worker thread's
//! ([`hetgc_runtime::compute_coded`], then a sleep until
//! [`hetgc_runtime::emulated_deadline`]), so a socket run decodes to
//! **bitwise** the same gradients as a threaded run — the loopback
//! equivalence tests pin exactly that.

use std::io::ErrorKind;
use std::net::ToSocketAddrs;
use std::time::Instant;

use hetgc_comm::{AnyWireCodec, CommError, ErrorFeedback, PayloadEncoding, WireCodec};
use hetgc_ml::Model;
use hetgc_obs::{Counter, Histogram, MetricsRegistry};
use hetgc_runtime::{compute_coded, emulated_deadline};

use crate::conn::Connection;
use crate::error::NetError;
use crate::frame::{self, Frame, FrameRef, VERSION};
use crate::spec::Handshake;

/// Mutable per-worker state the master can rewrite mid-run via
/// [`Frame::Recode`].
struct Assignment {
    row: u32,
    ranges: Vec<(usize, usize)>,
    coefficients: Vec<f64>,
}

/// Runs the worker protocol over a fresh connection to `addr`: sends
/// `Hello`, applies the returned [`Handshake`], then serves rounds until
/// `Shutdown` (clean `Ok`) or the master hangs up (also a clean `Ok` —
/// masters may exit abruptly).
///
/// # Errors
///
/// Protocol violations, handshake inconsistencies and transport failures
/// other than a plain disconnect.
pub fn run_worker<A: ToSocketAddrs>(addr: A) -> Result<(), NetError> {
    run_worker_with_metrics(addr, None)
}

/// [`run_worker`] with an optional worker-side metrics registry: rounds
/// served, rounds skipped (fail-stop emulation), and compute- and
/// reply-latency histograms, all labelled by the handshake-assigned
/// worker row. The `hetgc-worker` binary wires this to `--metrics-addr`.
///
/// # Errors
///
/// Same contract as [`run_worker`].
pub fn run_worker_with_metrics<A: ToSocketAddrs>(
    addr: A,
    registry: Option<MetricsRegistry>,
) -> Result<(), NetError> {
    let mut conn = Connection::connect(addr)?;
    conn.send(&Frame::Hello {
        version: VERSION,
        encodings: PayloadEncoding::advertised(),
    })?;
    let handshake = match conn.recv()? {
        Frame::Handshake(h) => h,
        other => {
            return Err(NetError::Handshake(format!(
                "expected a handshake, got {other:?}"
            )))
        }
    };
    let metrics = registry
        .as_ref()
        .map(|r| WorkerMetrics::new(r, handshake.worker));
    serve(conn, handshake, metrics)
}

/// The worker-side metric families, labelled by the worker's
/// handshake-assigned row (stable across mid-run recodes).
struct WorkerMetrics {
    rounds: Counter,
    skipped: Counter,
    compute: Histogram,
    reply: Histogram,
}

impl WorkerMetrics {
    fn new(registry: &MetricsRegistry, worker: u32) -> Self {
        let labels = [("worker", worker.to_string())];
        let labels: Vec<(&str, &str)> = labels.iter().map(|(k, v)| (*k, v.as_str())).collect();
        WorkerMetrics {
            rounds: registry.counter(
                "hetgc_worker_rounds_total",
                "Coded-gradient rounds computed and streamed back",
                &labels,
            ),
            skipped: registry.counter(
                "hetgc_worker_rounds_skipped_total",
                "Rounds dropped by the fail-stop behaviour schedule",
                &labels,
            ),
            compute: registry.histogram(
                "hetgc_worker_compute_seconds",
                "Per-round coded-gradient compute time (includes emulated throttle)",
                &labels,
            ),
            reply: registry.histogram(
                "hetgc_worker_reply_seconds",
                "Per-round reply time, end of compute to the last write (quantize, framing, send)",
                &labels,
            ),
        }
    }
}

/// The round loop over an already-handshaken connection. Every field a
/// well-framed peer controls is checked before it reaches a constructor,
/// a kernel or the clock, so a malformed `Handshake`, `Recode` or `Round`
/// ends the worker with [`NetError::Handshake`], never a panic.
fn serve(
    mut conn: Connection,
    handshake: Handshake,
    metrics: Option<WorkerMetrics>,
) -> Result<(), NetError> {
    let Handshake {
        worker,
        num_params,
        chunk_len,
        ranges,
        coefficients,
        behavior,
        model,
        dataset,
        encoding,
    } = handshake;
    let data = dataset.into_dataset().map_err(NetError::Handshake)?;
    let model = model.build(&data).map_err(NetError::Handshake)?;
    if model.num_params() != num_params as usize {
        return Err(NetError::Handshake(format!(
            "model has {} params, handshake says {num_params}",
            model.num_params()
        )));
    }
    let behavior = behavior.to_behavior();
    behavior.validate().map_err(NetError::Handshake)?;
    let chunk_len = (chunk_len as usize).max(1);
    let mut assignment = Assignment {
        row: worker,
        ranges: checked_ranges(&ranges, data.len())?,
        coefficients,
    };

    // Reusable buffers, as in the threaded worker: a round allocates
    // nothing. `params` receives each `Round`'s parameters straight from
    // the receive buffer; `wire` holds the outgoing frame bytes.
    let mut params: Vec<f64> = Vec::new();
    let mut coded: Vec<f64> = Vec::new();
    let mut partial: Vec<f64> = Vec::new();
    let mut wire: Vec<u8> = Vec::new();
    // On a lossy link the coded partial is quantized before it ships;
    // the quantization residual is carried into the next round (EF-SGD)
    // so lossy traffic does not bias convergence. The payload buffer
    // reaches steady-state capacity after the first round.
    let mut lossy = (encoding != PayloadEncoding::F64).then(|| LossyLink {
        codec: AnyWireCodec::for_encoding(encoding),
        feedback: ErrorFeedback::new(num_params as usize),
        payload: Vec::new(),
    });
    loop {
        // Block for one frame, then fast-forward to the newest pending
        // round, applying control frames (recode, shutdown) strictly in
        // arrival order — TCP guarantees a recode is seen before any
        // round encoded with it.
        let mut current: Option<u64> = None;
        let mut block = true;
        loop {
            let next = if block {
                conn.recv_ref().map(Some)
            } else {
                conn.try_recv_ref()
            };
            block = false;
            match next {
                Ok(Some(FrameRef::Control(Frame::Shutdown))) => return Ok(()),
                Ok(Some(FrameRef::Control(Frame::Recode {
                    row,
                    ranges,
                    coefficients,
                }))) => {
                    assignment = Assignment {
                        row,
                        ranges: checked_ranges(&ranges, data.len())?,
                        coefficients,
                    };
                }
                Ok(Some(FrameRef::Round { seq, params: sent })) => {
                    if sent.len() != num_params as usize {
                        return Err(NetError::Handshake(format!(
                            "round {seq} carries {} params, handshake says {num_params}",
                            sent.len()
                        )));
                    }
                    params.resize(sent.len(), 0.0);
                    sent.copy_to(&mut params);
                    current = Some(seq);
                }
                // Anything else is not ours to receive; tolerate it so a
                // newer master can extend the protocol.
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(NetError::Closed) => return Ok(()), // master gone: clean exit
                Err(e) => return Err(e),
            }
        }
        let Some(seq) = current else {
            continue;
        };
        if !behavior.responds_at(seq as usize) {
            // Fail-stop emulation: keep draining frames, never reply.
            if let Some(m) = &metrics {
                m.skipped.inc();
            }
            continue;
        }
        let started = Instant::now();
        compute_coded(
            &model,
            &data,
            &assignment.ranges,
            &assignment.coefficients,
            &params,
            &mut coded,
            &mut partial,
        );
        let until = emulated_deadline(&behavior, &assignment.ranges, seq as usize, started)
            .ok_or_else(|| {
                NetError::Handshake(format!(
                    "round {seq}: the handshake's throttle and delay put the reply past \
                     what the clock can represent"
                ))
            })?;
        std::thread::sleep(until.saturating_duration_since(Instant::now()));
        let computed = metrics.as_ref().map(|m| {
            m.rounds.inc();
            let computed = started.elapsed();
            m.compute.observe(computed.as_secs_f64());
            computed
        });
        let replied = match &mut lossy {
            Some(link) => stream_encoded_reply(
                &mut conn,
                &mut wire,
                &assignment,
                seq,
                &mut coded,
                chunk_len,
                started,
                link,
            ),
            None => stream_reply(
                &mut conn,
                &mut wire,
                &assignment,
                seq,
                &coded,
                chunk_len,
                started,
            ),
        };
        // A write into a link the master already closed is the same
        // hang-up a read reports as `Closed`: a clean exit.
        let replied = replied.map_err(|e| match e {
            NetError::Io(io)
                if matches!(
                    io.kind(),
                    ErrorKind::BrokenPipe | ErrorKind::ConnectionReset
                ) =>
            {
                NetError::Closed
            }
            e => e,
        });
        match replied {
            Err(NetError::Closed) => return Ok(()),
            other => other?,
        }
        if let (Some(m), Some(computed)) = (&metrics, computed) {
            m.reply
                .observe((started.elapsed() - computed).as_secs_f64());
        }
    }
}

/// Per-link state of a lossy (non-`f64`) wire encoding.
struct LossyLink {
    codec: AnyWireCodec,
    feedback: ErrorFeedback,
    /// Reused codec output for one chunk.
    payload: Vec<u8>,
}

/// The wire's sample ranges as the kernel's, each checked to be a
/// forward range inside the `samples`-sample dataset.
fn checked_ranges(ranges: &[(u32, u32)], samples: usize) -> Result<Vec<(usize, usize)>, NetError> {
    ranges
        .iter()
        .map(|&(lo, hi)| {
            let (lo, hi) = (lo as usize, hi as usize);
            if lo <= hi && hi <= samples {
                Ok((lo, hi))
            } else {
                Err(NetError::Handshake(format!(
                    "sample range [{lo}, {hi}) is not inside the {samples}-sample dataset"
                )))
            }
        })
        .collect()
}

/// Streams the coded gradient as [`Frame::GradientChunk`]s followed by
/// [`Frame::RoundDone`]. Chunking bounds frame size and overlaps wire
/// transfer with serialization: chunk `i` is in the kernel's send buffer
/// while chunk `i+1` is still being encoded. The last chunk is held back
/// so `RoundDone` shares its buffer and its `write` — a reply that fits
/// one chunk is one syscall here and one wake-up of the master's reader.
fn stream_reply(
    conn: &mut Connection,
    wire: &mut Vec<u8>,
    assignment: &Assignment,
    seq: u64,
    coded: &[f64],
    chunk_len: usize,
    started: Instant,
) -> Result<(), NetError> {
    let total = coded.len() as u32;
    wire.clear();
    for (i, chunk) in coded.chunks(chunk_len).enumerate() {
        flush(conn, wire)?; // the previous chunk, if any
        let offset = (i * chunk_len) as u32;
        frame::append_gradient_chunk(wire, seq, assignment.row, offset, total, chunk);
    }
    Frame::RoundDone {
        seq,
        worker: assignment.row,
        // Effective duration including throttle/delay sleeps — the
        // emulated speed, exactly what the threaded worker reports.
        compute_seconds: started.elapsed().as_secs_f64(),
        wire_error: None,
    }
    .append_to(wire);
    conn.send_encoded(wire)
}

/// Writes out and empties `wire` if it holds anything.
fn flush(conn: &mut Connection, wire: &mut Vec<u8>) -> Result<(), NetError> {
    if !wire.is_empty() {
        conn.send_encoded(wire)?;
        wire.clear();
    }
    Ok(())
}

/// [`stream_reply`]'s lossy sibling: each chunk of the coded partial
/// goes through [`AnyWireCodec::encode_feedback`] — carried residual
/// folded in, quantized into a [`Frame::EncodedChunk`], what quantization
/// dropped carried on — and the round's measured quantization error is
/// reported on the [`Frame::RoundDone`].
#[allow(clippy::too_many_arguments)]
fn stream_encoded_reply(
    conn: &mut Connection,
    wire: &mut Vec<u8>,
    assignment: &Assignment,
    seq: u64,
    coded: &mut [f64],
    chunk_len: usize,
    started: Instant,
    link: &mut LossyLink,
) -> Result<(), NetError> {
    let residual = link.feedback.residual_mut();
    if residual.len() != coded.len() {
        return Err(CommError::LengthMismatch {
            expected: residual.len(),
            got: coded.len(),
        }
        .into());
    }
    let total = coded.len() as u32;
    let encoding = link.codec.encoding();
    let mut err_sq = 0.0;
    wire.clear();
    for (i, (chunk, carried)) in coded
        .chunks_mut(chunk_len)
        .zip(residual.chunks_mut(chunk_len))
        .enumerate()
    {
        flush(conn, wire)?; // the previous chunk, if any
        err_sq += link
            .codec
            .encode_feedback(chunk, carried, &mut link.payload)?;
        let offset = (i * chunk_len) as u32;
        frame::append_encoded_chunk(
            wire,
            seq,
            assignment.row,
            offset,
            total,
            encoding,
            &link.payload,
        );
    }
    Frame::RoundDone {
        seq,
        worker: assignment.row,
        compute_seconds: started.elapsed().as_secs_f64(),
        wire_error: Some(err_sq.sqrt()),
    }
    .append_to(wire);
    conn.send_encoded(wire)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Duration;

    use hetgc_ml::synthetic;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use crate::spec::{BehaviorSpec, DatasetSpec, ModelSpec};

    const DIM: u32 = 3;
    const SAMPLES: u32 = 8;

    /// A well-formed handshake: a linear model over an 8-sample,
    /// 3-feature dataset, two owned partitions, nominal behaviour.
    fn handshake() -> Handshake {
        let mut rng = StdRng::seed_from_u64(39);
        let data = synthetic::linear_regression(SAMPLES as usize, DIM as usize, 0.1, &mut rng);
        Handshake {
            worker: 0,
            num_params: DIM + 1,
            chunk_len: 64,
            ranges: vec![(0, 4), (4, 8)],
            coefficients: vec![1.0, 0.5],
            behavior: BehaviorSpec::from(&hetgc_runtime::WorkerBehavior::nominal()),
            model: ModelSpec::Linear { dim: DIM },
            dataset: DatasetSpec::from_dataset(&data),
            encoding: PayloadEncoding::F64,
        }
    }

    fn round(seq: u64) -> Frame {
        Frame::Round {
            seq,
            params: vec![0.25; DIM as usize + 1],
        }
    }

    /// Plays the master over loopback: answers the worker's `Hello` with
    /// `handshake`, sends `script`, waits for the reply to the script's
    /// last round (or for the worker to hang up), sends `Shutdown` and
    /// returns what `run_worker` returned. A worker that panics fails the
    /// test here.
    fn serve_script(handshake: Handshake, script: &[Frame]) -> Result<(), NetError> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let worker = std::thread::spawn(move || run_worker(addr));
        let (stream, _) = listener.accept().expect("accept");
        let mut conn = Connection::new(stream);
        assert!(matches!(conn.recv(), Ok(Frame::Hello { .. })));
        // A worker that already refused may have closed the link, so
        // these sends may fail; its verdict is what the test reads.
        let _ = conn.send(&Frame::Handshake(handshake));
        for frame in script {
            let _ = conn.send(frame);
        }
        let last = script.iter().filter_map(|f| match f {
            Frame::Round { seq, .. } => Some(*seq),
            _ => None,
        });
        if let Some(last) = last.max() {
            // A `Shutdown` queued behind the rounds would let the worker
            // exit before it computes any of them.
            while let Ok(frame) = conn.recv_deadline(Some(Duration::from_secs(10))) {
                if matches!(frame, Frame::RoundDone { seq, .. } if seq == last) {
                    break;
                }
            }
        }
        let _ = conn.send(&Frame::Shutdown);
        worker.join().expect("the worker panicked")
    }

    fn assert_refused(handshake: Handshake, script: &[Frame], needle: &str) {
        match serve_script(handshake, script) {
            Err(NetError::Handshake(reason)) => {
                assert!(reason.contains(needle), "{reason:?} lacks {needle:?}")
            }
            other => panic!("expected a handshake error about {needle:?}, got {other:?}"),
        }
    }

    #[test]
    fn well_formed_script_is_served_to_a_clean_exit() {
        let recode = Frame::Recode {
            row: 0,
            ranges: vec![(2, 8)],
            coefficients: vec![2.0],
        };
        serve_script(handshake(), &[round(1), recode, round(2)]).expect("served");
    }

    #[test]
    fn a_model_with_no_shape_is_refused() {
        let mut linear = handshake();
        linear.model = ModelSpec::Linear { dim: 0 };
        assert_refused(linear, &[round(1)], "no model of shape");
        let mut softmax = handshake();
        softmax.model = ModelSpec::Softmax {
            dim: DIM,
            classes: 1,
        };
        assert_refused(softmax, &[round(1)], "no model of shape");
    }

    #[test]
    fn a_model_that_does_not_fit_the_dataset_is_refused() {
        // Same parameter count as the handshake claims, other features.
        let mut wrong = handshake();
        wrong.model = ModelSpec::Linear { dim: DIM + 1 };
        wrong.num_params = DIM + 2;
        let params = Frame::Round {
            seq: 1,
            params: vec![0.25; DIM as usize + 2],
        };
        assert_refused(wrong, &[params], "does not fit");
    }

    #[test]
    fn a_throttle_that_is_not_a_rate_is_refused() {
        for rate in [0.0, -2.0, f64::NAN] {
            let mut base = handshake();
            base.behavior.throttle = Some(rate);
            assert_refused(base, &[round(1)], "throttle rate");
            let mut step = handshake();
            step.behavior.throttle_step = Some((1, rate));
            assert_refused(step, &[round(1)], "throttle step rate");
        }
    }

    /// The longest wire delay (`u64::MAX` µs, ~585k years) fits the
    /// clock alone, and so does a throttle that stretches 4 samples to
    /// ~2.9e11 years; together they overflow `Instant + Duration`.
    #[test]
    fn a_delay_that_overflows_the_clock_is_refused() {
        let mut endless = handshake();
        endless.ranges = vec![(0, 4)];
        endless.coefficients = vec![1.0];
        endless.behavior.throttle = Some(4.0 / 9.223_37e18);
        endless.behavior.extra_delay_micros = u64::MAX;
        assert_refused(endless, &[round(1)], "past what the clock can represent");
    }

    #[test]
    fn a_range_outside_the_dataset_is_refused() {
        for bad in [(5, 3), (4, SAMPLES + 1)] {
            let mut shard = handshake();
            shard.ranges[1] = bad;
            assert_refused(shard, &[round(1)], "not inside the 8-sample dataset");
            let recode = Frame::Recode {
                row: 0,
                ranges: vec![(0, 2), bad],
                coefficients: vec![1.0, 1.0],
            };
            assert_refused(
                handshake(),
                &[round(1), recode, round(2)],
                "not inside the 8-sample dataset",
            );
        }
    }

    #[test]
    fn a_round_of_the_wrong_width_is_refused() {
        for width in [DIM as usize, DIM as usize + 2] {
            let wrong = Frame::Round {
                seq: 1,
                params: vec![0.25; width],
            };
            assert_refused(handshake(), &[wrong], "round 1 carries");
        }
    }
}
