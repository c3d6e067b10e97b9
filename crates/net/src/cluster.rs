//! The socket worker pool: [`SocketCluster`] is a
//! [`hetgc_runtime::Master`] whose transport is real TCP connections to
//! `hetgc-worker` processes.
//!
//! One reader thread per worker link reassembles chunked gradient frames
//! and forwards completed replies into the single channel the master's
//! collect loop waits on. What [`TcpTransport`] adds is exactly what a
//! real network forces: a dead peer is detected (broken write / EOF) and
//! routed around rather than fatal, a round's traffic is metered in real
//! bytes, arrivals are stamped when their last frame lands, and re-coding
//! talks to the *surviving* connections instead of respawning anything.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use hetgc_coding::{CodingMatrix, GradientCodec};
use hetgc_comm::{AnyWireCodec, PayloadEncoding, WireCodec};
use hetgc_ml::{Dataset, Model};
use hetgc_obs::MetricsRegistry;
use hetgc_runtime::{
    build_codec, row_shards, Master, Reply, RowShard, RuntimeConfig, RuntimeError, Transport,
};

use crate::conn::Connection;
use crate::error::NetError;
use crate::frame::{self, Frame, FrameRef, VERSION};
use crate::spec::{BehaviorSpec, DatasetSpec, Handshake, ModelSpec};

/// Default gradient chunk granularity: 8192 `f64`s = 64 KiB of payload
/// per [`Frame::GradientChunk`] — large enough to amortize framing,
/// small enough that transfer overlaps the worker's ongoing serialization
/// and no frame approaches the protocol cap.
pub const DEFAULT_CHUNK_LEN: usize = 8192;

/// How long [`SocketCluster::start`] waits for all workers to connect.
const ACCEPT_DEADLINE: Duration = Duration::from_secs(30);

/// The first sleep between accept polls while no worker is waiting.
const ACCEPT_POLL_FIRST: Duration = Duration::from_micros(20);

/// The longest sleep between accept polls.
const ACCEPT_POLL_MAX: Duration = Duration::from_millis(2);

/// Cloneable per-link traffic handles: the byte counters shared with the
/// link's writer and reader halves, plus master-side frame counters.
/// Clones share the same atomic cells, so a metrics refresh hook can
/// capture a snapshot-free handle and read live totals without touching
/// the cluster.
#[derive(Debug, Clone, Default)]
pub struct LinkStats {
    sent_bytes: Arc<AtomicU64>,
    received_bytes: Arc<AtomicU64>,
    frames_sent: Arc<AtomicU64>,
    frames_received: Arc<AtomicU64>,
}

impl LinkStats {
    /// Bytes written to this link's socket since start.
    pub fn sent_bytes(&self) -> u64 {
        self.sent_bytes.load(Ordering::Relaxed)
    }

    /// Bytes read from this link's socket since start.
    pub fn received_bytes(&self) -> u64 {
        self.received_bytes.load(Ordering::Relaxed)
    }

    /// Frames the master wrote to this link (rounds, recodes, handshake).
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent.load(Ordering::Relaxed)
    }

    /// Frames the master's reader thread decoded off this link.
    pub fn frames_received(&self) -> u64 {
        self.frames_received.load(Ordering::Relaxed)
    }
}

/// Publishes every link's live traffic totals into `registry` as gauges
/// labelled by link index — the pull half of the exposition endpoint:
/// capture `SocketCluster::link_stats` clones in a refresh hook and call
/// this before each scrape.
pub fn export_link_metrics(registry: &MetricsRegistry, links: &[LinkStats]) {
    for (i, link) in links.iter().enumerate() {
        let l = i.to_string();
        let labels = [("link", l.as_str())];
        registry
            .gauge(
                "hetgc_link_sent_bytes",
                "Bytes written to the link",
                &labels,
            )
            .set(link.sent_bytes() as f64);
        registry
            .gauge(
                "hetgc_link_received_bytes",
                "Bytes read from the link",
                &labels,
            )
            .set(link.received_bytes() as f64);
        registry
            .gauge(
                "hetgc_link_frames_sent",
                "Frames the master wrote to the link",
                &labels,
            )
            .set(link.frames_sent() as f64);
        registry
            .gauge(
                "hetgc_link_frames_received",
                "Frames decoded off the link",
                &labels,
            )
            .set(link.frames_received() as f64);
    }
}

/// A bound-but-not-yet-accepting master endpoint: bind first, learn the
/// port, hand the address to the worker processes, then accept.
#[derive(Debug)]
pub struct SocketListener {
    listener: TcpListener,
    addr: SocketAddr,
}

impl SocketListener {
    /// Binds an ephemeral loopback port.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind() -> Result<Self, NetError> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        Ok(SocketListener { listener, addr })
    }

    /// The address workers should connect to (`hetgc-worker <addr>`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

/// The TCP [`Transport`]: the master ends of the worker links (writer
/// half here, reader half on one thread per link) and their traffic
/// counters.
///
/// Logical coding-matrix rows and physical connections start out
/// identical; a re-row shrinks the logical side to the surviving
/// connections, with `row_of` carrying the mapping. Dropping the
/// transport sends best-effort `Shutdown` frames, closes the links and
/// joins the reader threads.
#[derive(Debug)]
pub struct TcpTransport {
    /// Writer side of each physical link, in accept order.
    conns: Vec<Connection>,
    /// Liveness per physical link — cleared by its reader thread on
    /// EOF/error, or by the master on a failed write.
    alive: Vec<Arc<AtomicBool>>,
    /// Logical row → physical connection index (identity at start).
    row_of: Vec<usize>,
    reply_rx: Receiver<Reply<Vec<f64>>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// Per physical link traffic counters (writer + reader halves of link
    /// `c` share `links[c]`'s byte cells); aggregates are sums over this.
    links: Vec<LinkStats>,
    /// Per physical link negotiated payload encoding (accept order).
    encodings: Vec<PayloadEncoding>,
    /// [`TcpTransport::traffic`] at the last `send_round`, for per-round
    /// deltas.
    bytes_mark: (u64, u64),
    /// The encoded `Round` broadcast, reused from round to round.
    round_wire: Vec<u8>,
}

impl TcpTransport {
    /// Total real `(sent, received)` bytes over every link since start.
    fn traffic(&self) -> (u64, u64) {
        self.links.iter().fold((0, 0), |(sent, received), link| {
            (sent + link.sent_bytes(), received + link.received_bytes())
        })
    }
}

impl Transport for TcpTransport {
    type Payload = Vec<f64>;

    /// Encoded once and fanned out byte-identically to each live link. A
    /// failed send is **not** fatal: a real network must survive peer
    /// loss, so the link is marked dead (its worker simply never replies
    /// and the escalation ladder absorbs it) and the round proceeds. Only
    /// a fully dead fleet errors.
    fn send_round(&mut self, seq: u64, params: &[f64]) -> Result<(), RuntimeError> {
        self.round_wire.clear();
        frame::append_round(&mut self.round_wire, seq, params);
        self.bytes_mark = self.traffic();
        let mut live = 0usize;
        let mut first_dead = 0usize;
        for &c in &self.row_of {
            if !self.alive[c].load(Ordering::Relaxed) {
                first_dead = c;
                continue;
            }
            match self.conns[c].send_encoded(&self.round_wire) {
                Ok(()) => {
                    live += 1;
                    self.links[c].frames_sent.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    // Broken pipe: the peer is gone.
                    self.alive[c].store(false, Ordering::Relaxed);
                    first_dead = c;
                }
            }
        }
        if live == 0 {
            return Err(RuntimeError::WorkerLost { worker: first_dead });
        }
        Ok(())
    }

    fn replies(&self) -> &Receiver<Reply<Vec<f64>>> {
        &self.reply_rx
    }

    /// Re-rows the **surviving** connections: there must be exactly one
    /// shard per live link, and each survivor receives a
    /// [`Frame::Recode`] carrying its new row, sample ranges and
    /// coefficients. TCP ordering makes an acknowledgement unnecessary: a
    /// worker applies the recode before any round dispatched after it,
    /// and replies to older rounds are already filtered by sequence
    /// number. Nothing is respawned — the processes keep their dataset
    /// and behaviour, so behaviour schedules stay pinned to the physical
    /// process, not the logical row.
    fn rerow(&mut self, shards: Vec<RowShard>) -> Result<(), RuntimeError> {
        let live: Vec<usize> = (0..self.alive.len())
            .filter(|&c| self.alive[c].load(Ordering::Relaxed))
            .collect();
        if shards.len() != live.len() {
            return Err(RuntimeError::InvalidConfig {
                reason: format!(
                    "recode matrix has {} rows but {} live connections",
                    shards.len(),
                    live.len()
                ),
            });
        }
        for (j, (&c, (ranges, coefficients))) in live.iter().zip(shards).enumerate() {
            let frame = Frame::Recode {
                row: j as u32,
                ranges: wire_ranges(&ranges),
                coefficients,
            };
            if self.conns[c].send(&frame).is_err() {
                self.alive[c].store(false, Ordering::Relaxed);
                return Err(RuntimeError::WorkerLost { worker: c });
            }
            self.links[c].frames_sent.fetch_add(1, Ordering::Relaxed);
        }
        self.row_of = live;
        Ok(())
    }

    fn live_rows(&self) -> Vec<usize> {
        (0..self.row_of.len())
            .filter(|&j| self.alive[self.row_of[j]].load(Ordering::Relaxed))
            .collect()
    }

    fn round_traffic(&self) -> (u64, u64) {
        let (sent, received) = self.traffic();
        (sent - self.bytes_mark.0, received - self.bytes_mark.1)
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        let goodbye = Frame::Shutdown.encode();
        for conn in &mut self.conns {
            let _ = conn.send_encoded(&goodbye);
            // Closing our end unblocks the reader thread on the cloned fd.
            let _ = conn.stream().shutdown(std::net::Shutdown::Both);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// A running socket worker pool: a [`Master`] (which it derefs to — that
/// is where `round`, `dispatch`/`collect`, `recode`, `live_rows` and the
/// deadline/observability hooks live) over a [`TcpTransport`]. Built by
/// [`SocketCluster::start`] after the worker processes have been pointed
/// at a [`SocketListener`]; this type adds only the TCP constructors and
/// link accessors.
#[derive(Debug)]
pub struct SocketCluster<M>(Master<M, TcpTransport>);

impl<M> SocketCluster<M>
where
    M: Model + Send + Sync + 'static,
{
    /// Accepts `code.workers()` worker connections on `listener`,
    /// handshakes each (shipping `spec`, the dataset, the behaviour
    /// schedule and its codec row), and spawns one reader thread per
    /// link. Workers are assigned logical rows in accept order.
    ///
    /// `model` must be the model `spec` describes — the master uses it
    /// for decode sizing, the workers rebuild their own from the spec.
    ///
    /// # Errors
    ///
    /// [`NetError::Runtime`] on codec/partitioning/spec problems or a
    /// behaviour that fails [`hetgc_runtime::WorkerBehavior::validate`],
    /// [`NetError::Handshake`] when workers fail to connect (30 s accept
    /// deadline) or speak a different protocol version. Before any error
    /// returns, the links already handshaken get `Shutdown` and are
    /// closed, and their reader threads are joined.
    pub fn start(
        listener: SocketListener,
        code: CodingMatrix,
        model: Arc<M>,
        spec: ModelSpec,
        data: Arc<Dataset>,
        config: &RuntimeConfig,
    ) -> Result<Self, NetError> {
        Self::start_with(listener, code, model, spec, data, config, DEFAULT_CHUNK_LEN)
    }

    /// [`SocketCluster::start`] with an explicit gradient chunk length
    /// (in `f64`s per [`Frame::GradientChunk`]).
    ///
    /// # Errors
    ///
    /// As for [`SocketCluster::start`].
    pub fn start_with(
        listener: SocketListener,
        code: CodingMatrix,
        model: Arc<M>,
        spec: ModelSpec,
        data: Arc<Dataset>,
        config: &RuntimeConfig,
        chunk_len: usize,
    ) -> Result<Self, NetError> {
        Self::start_encoded(
            listener,
            code,
            model,
            spec,
            data,
            config,
            chunk_len,
            PayloadEncoding::F64,
        )
    }

    /// [`SocketCluster::start_with`] with a requested gradient payload
    /// encoding. The encoding is *negotiated per link*: a worker that
    /// advertises the capability in its `Hello` is handshaken onto
    /// `encoding`; one that does not (an older peer) keeps full-width
    /// [`PayloadEncoding::F64`] — never a silent misinterpretation, the
    /// two sides always agree frame by frame. [`Self::link_encodings`]
    /// exposes the negotiation outcome.
    ///
    /// # Errors
    ///
    /// As for [`SocketCluster::start`].
    #[allow(clippy::too_many_arguments)]
    pub fn start_encoded(
        listener: SocketListener,
        code: CodingMatrix,
        model: Arc<M>,
        spec: ModelSpec,
        data: Arc<Dataset>,
        config: &RuntimeConfig,
        chunk_len: usize,
        encoding: PayloadEncoding,
    ) -> Result<Self, NetError> {
        for (w, behavior) in config.behaviors.iter().enumerate() {
            behavior
                .validate()
                .map_err(|reason| RuntimeError::InvalidConfig {
                    reason: format!("worker {w}: {reason}"),
                })?;
        }
        let codec = build_codec(code, config)?;
        if model.num_params() > frame::MAX_ROUND_PARAMS {
            // Every worker would reject the first `Round` as oversized and
            // the master would report a misleading `WorkerLost`.
            return Err(RuntimeError::InvalidConfig {
                reason: format!(
                    "model has {} parameters but a Round frame carries at most {} \
                     (the {} MiB frame cap)",
                    model.num_params(),
                    frame::MAX_ROUND_PARAMS,
                    frame::MAX_FRAME_LEN >> 20
                ),
            }
            .into());
        }
        let built = spec
            .build(&data)
            .map_err(|reason| RuntimeError::InvalidConfig { reason })?;
        if built.num_params() != model.num_params() {
            return Err(RuntimeError::InvalidConfig {
                reason: "model spec does not match the master's model".into(),
            }
            .into());
        }
        let m = codec.workers();
        let chunk_len = chunk_len.clamp(1, frame::MAX_CHUNK_LEN);
        let shards = row_shards(&codec, data.len())?;
        let dataset_spec = DatasetSpec::from_dataset(&data);
        let (reply_tx, reply_rx) = unbounded();

        // Each link joins the transport as soon as its reader runs, so an
        // early return below drops a transport whose `Drop` shuts down and
        // joins every link already built.
        let mut transport = TcpTransport {
            conns: Vec::with_capacity(m),
            alive: Vec::with_capacity(m),
            row_of: (0..m).collect(),
            reply_rx,
            handles: Vec::with_capacity(m),
            links: Vec::with_capacity(m),
            encodings: Vec::with_capacity(m),
            bytes_mark: (0, 0),
            round_wire: Vec::new(),
        };
        listener.listener.set_nonblocking(true)?;
        let accept_started = Instant::now();
        for (row, (ranges, coefficients)) in shards.into_iter().enumerate() {
            let link = LinkStats::default();
            let stream = accept_one(&listener.listener, accept_started)?;
            let mut conn = Connection::with_counters(
                stream,
                Arc::clone(&link.sent_bytes),
                Arc::clone(&link.received_bytes),
            );
            let negotiated = match conn.recv_deadline(Some(
                ACCEPT_DEADLINE.saturating_sub(accept_started.elapsed()),
            )) {
                Ok(Frame::Hello { version, encodings }) if version == VERSION => {
                    // Per-link negotiation: the requested encoding only
                    // if the worker advertised it; older peers that sent
                    // no capability bytes stay on full-width f64.
                    if encoding != PayloadEncoding::F64 && encodings.contains(&encoding.to_byte()) {
                        encoding
                    } else {
                        PayloadEncoding::F64
                    }
                }
                Ok(Frame::Hello { version, .. }) => {
                    return Err(NetError::Handshake(format!(
                        "worker speaks protocol v{version}, master v{VERSION}"
                    )))
                }
                Ok(other) => {
                    return Err(NetError::Handshake(format!(
                        "expected hello, got {other:?}"
                    )))
                }
                Err(e) => return Err(NetError::Handshake(format!("hello not received: {e}"))),
            };
            conn.send(&Frame::Handshake(Handshake {
                worker: row as u32,
                num_params: model.num_params() as u32,
                chunk_len: chunk_len as u32,
                ranges: wire_ranges(&ranges),
                coefficients,
                behavior: BehaviorSpec::from(&config.behavior_of(row)),
                model: spec,
                dataset: dataset_spec.clone(),
                encoding: negotiated,
            }))?;
            link.frames_sent.fetch_add(1, Ordering::Relaxed); // the handshake
            let live = Arc::new(AtomicBool::new(true));
            let reader = Connection::with_counters(
                conn.stream().try_clone()?,
                Arc::default(), // readers never send
                Arc::clone(&link.received_bytes),
            );
            transport.handles.push(spawn_reader(
                reader,
                model.num_params(),
                negotiated,
                reply_tx.clone(),
                Arc::clone(&live),
                Arc::clone(&link.frames_received),
            ));
            transport.alive.push(live);
            transport.conns.push(conn);
            transport.links.push(link);
            transport.encodings.push(negotiated);
        }
        // `reply_tx` drops here: the master keeps only the receiver.
        Ok(SocketCluster(Master::new(
            codec, model, data, config, transport,
        )))
    }

    /// Total real bytes written to worker sockets since start (the sum
    /// of every link's counter).
    pub fn bytes_sent(&self) -> u64 {
        self.transport().traffic().0
    }

    /// Total real bytes read from worker sockets since start.
    pub fn bytes_received(&self) -> u64 {
        self.transport().traffic().1
    }

    /// Per physical link negotiated payload encoding, in accept order —
    /// the outcome of the `Hello` capability negotiation. A link shows
    /// [`PayloadEncoding::F64`] either because no compression was
    /// requested or because its worker did not advertise the requested
    /// encoding.
    pub fn link_encodings(&self) -> &[PayloadEncoding] {
        &self.transport().encodings
    }

    /// Per physical link traffic handles (accept order). Clones share
    /// the live counters — capture them in a metrics refresh hook (see
    /// [`export_link_metrics`]) to publish per-link traffic without
    /// borrowing the cluster.
    pub fn link_stats(&self) -> Vec<LinkStats> {
        self.transport().links.clone()
    }
}

impl<M> Deref for SocketCluster<M> {
    type Target = Master<M, TcpTransport>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<M> DerefMut for SocketCluster<M> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

/// Sample ranges in wire form.
fn wire_ranges(ranges: &[(usize, usize)]) -> Vec<(u32, u32)> {
    ranges
        .iter()
        .map(|&(lo, hi)| (lo as u32, hi as u32))
        .collect()
}

/// Polls a nonblocking accept until a connection arrives or the accept
/// deadline (measured from `started`) passes. Between polls it sleeps
/// [`ACCEPT_POLL_FIRST`], doubling up to [`ACCEPT_POLL_MAX`], so a worker
/// that connects within microseconds is taken within microseconds and a
/// late one costs a poll every 2 ms.
fn accept_one(listener: &TcpListener, started: Instant) -> Result<TcpStream, NetError> {
    let mut poll = ACCEPT_POLL_FIRST;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                // BSD-derived `accept` hands back the listener's
                // `O_NONBLOCK`; Linux does not. Every link reads blocking.
                stream.set_nonblocking(false)?;
                return Ok(stream);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if started.elapsed() > ACCEPT_DEADLINE {
                    return Err(NetError::Handshake(
                        "timed out waiting for workers to connect".into(),
                    ));
                }
                std::thread::sleep(poll);
                poll = (poll * 2).min(ACCEPT_POLL_MAX);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(NetError::Io(e)),
        }
    }
}

/// An in-progress reply reassembly on one link.
struct PendingReply {
    seq: u64,
    worker: u32,
    buf: Vec<f64>,
    /// Contiguous prefix filled so far: chunks must tile the gradient in
    /// offset order — the worker streams them that way — which is what
    /// lets `RoundDone` verify full coverage with one comparison.
    filled: usize,
    /// Wire bytes of gradient payload accumulated for this reply.
    payload_bytes: u64,
}

impl PendingReply {
    /// The reply that a chunk of round `seq` from `worker` belongs to:
    /// the one in progress, or a fresh one replacing it.
    fn resume(
        pending: &mut Option<PendingReply>,
        seq: u64,
        worker: u32,
        num_params: usize,
    ) -> &mut PendingReply {
        match pending {
            Some(p) if p.seq == seq && p.worker == worker => {}
            _ => {
                *pending = Some(PendingReply {
                    seq,
                    worker,
                    buf: vec![0.0; num_params],
                    filled: 0,
                    payload_bytes: 0,
                })
            }
        }
        pending.as_mut().expect("set above")
    }

    /// Claims the next `n` coordinates for a chunk at `offset` carrying
    /// `wire_bytes` of payload. `None` — a protocol violation — unless
    /// the chunk starts exactly where the previous one ended and fits:
    /// a skipped, repeated or overrunning chunk never reaches `Master`
    /// as a zero-filled "exact" gradient.
    fn next_slot(&mut self, offset: usize, n: usize, wire_bytes: usize) -> Option<&mut [f64]> {
        let end = offset.checked_add(n)?;
        if offset != self.filled || end > self.buf.len() {
            return None;
        }
        self.filled = end;
        self.payload_bytes += wire_bytes as u64;
        Some(&mut self.buf[offset..end])
    }
}

/// Spawns the reader thread for one link: reassembles
/// [`Frame::GradientChunk`]s (or, on a lossy-negotiated link,
/// [`Frame::EncodedChunk`]s dequantized on arrival) into a gradient
/// buffer — each chunk converted straight from the receive buffer into
/// its slot — and forwards each [`Frame::RoundDone`] as a completed
/// [`Reply`]. Exits (marking the link dead) on EOF, transport error or
/// protocol violation: a chunk whose encoding contradicts the handshake,
/// or a reply whose chunks do not tile the gradient exactly, kills the
/// link rather than risking a misinterpreted payload.
fn spawn_reader(
    mut conn: Connection,
    num_params: usize,
    encoding: PayloadEncoding,
    replies: Sender<Reply<Vec<f64>>>,
    alive: Arc<AtomicBool>,
    frames_received: Arc<AtomicU64>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let codec = AnyWireCodec::for_encoding(encoding);
        let mut pending: Option<PendingReply> = None;
        // EOF, broken link or garbage ends the loop: the peer is gone.
        while let Ok(frame) = conn.recv_ref() {
            frames_received.fetch_add(1, Ordering::Relaxed);
            match frame {
                FrameRef::GradientChunk {
                    seq,
                    worker,
                    offset,
                    total,
                    data,
                } => {
                    if encoding != PayloadEncoding::F64 {
                        break; // handshake said encoded traffic: violation
                    }
                    if total as usize != num_params {
                        continue; // wrong regime/corrupt: drop
                    }
                    let p = PendingReply::resume(&mut pending, seq, worker, num_params);
                    let n = data.len();
                    let Some(slot) = p.next_slot(offset as usize, n, 8 * n) else {
                        break;
                    };
                    data.copy_to(slot);
                }
                FrameRef::EncodedChunk {
                    seq,
                    worker,
                    offset,
                    total,
                    encoding: chunk_encoding,
                    bytes,
                } => {
                    // Only the negotiated encoding is ever dequantized;
                    // anything else is a protocol violation, not a
                    // fallback opportunity.
                    if encoding == PayloadEncoding::F64 || chunk_encoding != encoding {
                        break;
                    }
                    if total as usize != num_params {
                        continue; // wrong regime/corrupt: drop
                    }
                    let Ok(n) = codec.decoded_len(bytes) else {
                        break; // corrupt codec payload: kill the link
                    };
                    let p = PendingReply::resume(&mut pending, seq, worker, num_params);
                    let Some(slot) = p.next_slot(offset as usize, n, bytes.len()) else {
                        break;
                    };
                    if codec.decode_into(bytes, slot).is_err() {
                        break;
                    }
                }
                FrameRef::Control(Frame::RoundDone {
                    seq,
                    worker,
                    compute_seconds,
                    wire_error,
                }) => {
                    let done = match pending.take() {
                        Some(p) if p.seq == seq && p.worker == worker => p,
                        other => {
                            pending = other; // chunks belong elsewhere: keep them
                            continue; // no payload for this round: drop the reply
                        }
                    };
                    if done.filled != num_params {
                        break; // a reply with holes, on any encoding: violation
                    }
                    let reply = Reply {
                        worker: worker as usize,
                        seq,
                        coded: done.buf,
                        compute_seconds,
                        wire_error: wire_error.unwrap_or(0.0),
                        payload_bytes: done.payload_bytes,
                        arrived: Some(Instant::now()),
                    };
                    if replies.send(reply).is_err() {
                        break; // master gone
                    }
                }
                FrameRef::Control(Frame::Shutdown) => break,
                _ => {} // masters ignore control frames meant for workers
            }
        }
        alive.store(false, Ordering::Relaxed);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::run_worker;
    use crossbeam::channel::RecvTimeoutError;
    use hetgc::{naive, synthetic, LinearRegression};
    use hetgc_runtime::WorkerBehavior;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const DIM: usize = 7;
    const PARAMS: usize = DIM + 1;
    const SAMPLES: usize = 24;

    fn fixture() -> (Arc<LinearRegression>, Arc<Dataset>) {
        let mut rng = StdRng::seed_from_u64(3);
        let data = synthetic::linear_regression(SAMPLES, DIM, 0.05, &mut rng);
        (Arc::new(LinearRegression::new(DIM)), Arc::new(data))
    }

    /// A cluster of `workers` real `run_worker` threads under `naive`.
    fn start(
        workers: usize,
        chunk_len: usize,
    ) -> (
        SocketCluster<LinearRegression>,
        Vec<std::thread::JoinHandle<Result<(), NetError>>>,
    ) {
        let (model, data) = fixture();
        let listener = SocketListener::bind().expect("bind loopback");
        let addr = listener.addr();
        let threads = (0..workers)
            .map(|_| std::thread::spawn(move || run_worker(addr)))
            .collect();
        let cluster = SocketCluster::start_with(
            listener,
            naive(workers).expect("naive code"),
            model,
            ModelSpec::Linear { dim: DIM as u32 },
            data,
            &RuntimeConfig::nominal(workers),
            chunk_len,
        )
        .expect("socket cluster start");
        (cluster, threads)
    }

    #[test]
    fn links_carry_no_read_timeout_after_start() {
        // The `Hello` is read under the accept deadline, and SO_RCVTIMEO
        // is shared with the reader's clone of the socket: left in place
        // it would kill every link that idles past it. Wrapping the clone
        // in its own `Connection` clears it.
        let (cluster, threads) = start(2, DEFAULT_CHUNK_LEN);
        for conn in &cluster.transport().conns {
            assert_eq!(conn.stream().read_timeout().expect("getsockopt"), None);
        }
        drop(cluster);
        for t in threads {
            t.join().expect("worker panicked").expect("clean exit");
        }
    }

    #[test]
    fn single_and_multi_chunk_replies_arrive_intact() {
        let (model, data) = fixture();
        let params: Vec<f64> = (0..PARAMS).map(|i| 0.1 * i as f64 - 0.3).collect();
        let direct = model.gradient(&params, &data, (0, SAMPLES));
        // 3 → chunks of 3, 3, 2 with `RoundDone` riding on the last;
        // 64 → the whole reply and its `RoundDone` in one write.
        for (chunk_len, frames_per_reply) in [(3, 4), (64, 2)] {
            let (mut cluster, threads) = start(2, chunk_len);
            for _ in 1..=3 {
                let round = cluster.round(&params).expect("round").expect("decoded");
                assert_eq!(round.results_used, 2);
                for (got, want) in round.gradient.iter().zip(&direct) {
                    assert!(
                        (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                        "chunk_len {chunk_len}: decoded {got}, direct {want}"
                    );
                }
            }
            for link in cluster.link_stats() {
                assert_eq!(link.frames_received(), 3 * frames_per_reply);
            }
            drop(cluster);
            for t in threads {
                t.join().expect("worker panicked").expect("clean exit");
            }
        }
    }

    #[test]
    fn oversized_model_is_rejected_before_any_worker_is_accepted() {
        // One parameter more than a `Round` frame can carry. Nothing of
        // that size is allocated: the model is just its dimension.
        let dim = frame::MAX_ROUND_PARAMS; // + 1 bias = one over
        let (_, data) = fixture();
        let listener = SocketListener::bind().expect("bind loopback");
        let started = Instant::now();
        let err = SocketCluster::start(
            listener,
            naive(1).expect("naive code"),
            Arc::new(LinearRegression::new(dim)),
            ModelSpec::Linear { dim: dim as u32 },
            data,
            &RuntimeConfig::nominal(1),
        )
        .expect_err("a model no Round frame can carry");
        assert!(
            matches!(
                &err,
                NetError::Runtime(RuntimeError::InvalidConfig { reason })
                    if reason.contains(&frame::MAX_ROUND_PARAMS.to_string())
            ),
            "unexpected error: {err}"
        );
        // Rejected up front, not after waiting out the accept deadline.
        assert!(started.elapsed() < ACCEPT_DEADLINE / 2);
    }

    /// What a worker would refuse (or, before it checked, panic on) is
    /// refused at start, before any worker is accepted.
    #[test]
    fn behaviours_and_specs_no_worker_can_run_are_rejected_up_front() {
        let unthrottled = WorkerBehavior {
            throttle_samples_per_sec: Some(f64::NAN),
            ..WorkerBehavior::nominal()
        };
        let cases = [
            (
                RuntimeConfig::nominal(1).set_behavior(0, unthrottled),
                ModelSpec::Linear { dim: DIM as u32 },
                "worker 0: throttle rate",
            ),
            (
                RuntimeConfig::nominal(1),
                ModelSpec::Softmax {
                    dim: DIM as u32,
                    classes: 1,
                },
                "no model of shape",
            ),
        ];
        for (config, spec, needle) in cases {
            let (model, data) = fixture();
            let err = SocketCluster::start(
                SocketListener::bind().expect("bind loopback"),
                naive(1).expect("naive code"),
                model,
                spec,
                data,
                &config,
            )
            .expect_err("nothing a worker can run");
            assert!(
                matches!(
                    &err,
                    NetError::Runtime(RuntimeError::InvalidConfig { reason })
                        if reason.contains(needle)
                ),
                "{needle}: unexpected error: {err}"
            );
        }
    }

    #[test]
    fn failed_start_shuts_down_the_links_it_built() {
        // A good peer is handshaken first; the next peer's garbage `Hello`
        // fails the start. The good peer must then hear `Shutdown` or EOF
        // — not silence from a reader thread left holding its link open.
        let (model, data) = fixture();
        let listener = SocketListener::bind().expect("bind loopback");
        let addr = listener.addr();
        let mut good = Connection::connect(addr).expect("connect");
        good.send(&Frame::Hello {
            version: VERSION,
            encodings: Vec::new(),
        })
        .expect("hello");
        let mut garbage = TcpStream::connect(addr).expect("connect");
        std::io::Write::write_all(&mut garbage, &[0xFF; 64]).expect("garbage");
        let err = SocketCluster::start(
            listener,
            naive(2).expect("naive code"),
            model,
            ModelSpec::Linear { dim: DIM as u32 },
            data,
            &RuntimeConfig::nominal(2),
        )
        .expect_err("a garbage hello");
        assert!(
            matches!(err, NetError::Handshake(_)),
            "unexpected error: {err}"
        );
        let wait = Some(Duration::from_secs(5));
        assert!(matches!(good.recv_deadline(wait), Ok(Frame::Handshake(_))));
        match good.recv_deadline(wait) {
            Ok(Frame::Shutdown) | Err(NetError::Closed) => {}
            other => panic!("the handshaken link was stranded: {other:?}"),
        }
    }

    #[test]
    fn old_peers_advertising_retired_encodings_still_negotiate() {
        // A peer built when bytes 1 and 2 were the f32 / bf16 encodings
        // still advertises them. The master selects only what it asked
        // for: the `[1, 2, 3]` peer is handshaken onto int8, the `[1, 2]`
        // peer falls back to f64.
        let (model, data) = fixture();
        let listener = SocketListener::bind().expect("bind loopback");
        let addr = listener.addr();
        let mut peers: Vec<Connection> = [vec![1, 2, 3], vec![1, 2]]
            .into_iter()
            .map(|encodings| {
                let mut conn = Connection::connect(addr).expect("connect");
                conn.send(&Frame::Hello {
                    version: VERSION,
                    encodings,
                })
                .expect("hello");
                conn
            })
            .collect();
        let cluster = SocketCluster::start_encoded(
            listener,
            naive(2).expect("naive code"),
            model,
            ModelSpec::Linear { dim: DIM as u32 },
            data,
            &RuntimeConfig::nominal(2),
            DEFAULT_CHUNK_LEN,
            PayloadEncoding::Int8,
        )
        .expect("socket cluster start");
        let expected = [PayloadEncoding::Int8, PayloadEncoding::F64];
        assert_eq!(cluster.link_encodings(), expected);
        for (peer, want) in peers.iter_mut().zip(expected) {
            match peer.recv() {
                Ok(Frame::Handshake(h)) => assert_eq!(h.encoding, want),
                other => panic!("expected a handshake, got {other:?}"),
            }
        }
    }

    #[test]
    fn late_joiners_are_taken_as_they_connect() {
        // The workers connect only after `start` has been polling for a
        // while, so the accept wait runs through its whole backoff.
        let (model, data) = fixture();
        let params: Vec<f64> = (0..PARAMS).map(|i| 0.1 * i as f64 - 0.3).collect();
        let direct = model.gradient(&params, &data, (0, SAMPLES));
        for encoding in [PayloadEncoding::F64, PayloadEncoding::Int8] {
            let listener = SocketListener::bind().expect("bind loopback");
            let addr = listener.addr();
            let spawner = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                (0..4)
                    .map(|_| std::thread::spawn(move || run_worker(addr)))
                    .collect::<Vec<_>>()
            });
            let mut cluster = SocketCluster::start_encoded(
                listener,
                naive(4).expect("naive code"),
                Arc::clone(&model),
                ModelSpec::Linear { dim: DIM as u32 },
                Arc::clone(&data),
                &RuntimeConfig::nominal(4),
                DEFAULT_CHUNK_LEN,
                encoding,
            )
            .expect("socket cluster start");
            assert_eq!(cluster.link_encodings(), [encoding; 4]);
            for link in cluster.link_stats() {
                assert_eq!(
                    link.frames_sent(),
                    1,
                    "{encoding:?}: one handshake per link"
                );
            }
            let round = cluster.round(&params).expect("round").expect("decoded");
            assert_eq!(round.results_used, 4);
            assert_eq!(round.gradient.len(), PARAMS);
            for (got, want) in round.gradient.iter().zip(&direct) {
                assert!(got.is_finite(), "{encoding:?}: decoded {got}");
                if encoding == PayloadEncoding::F64 {
                    assert!(
                        (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                        "decoded {got}, direct {want}"
                    );
                }
            }
            drop(cluster);
            for t in spawner.join().expect("spawner panicked") {
                t.join().expect("worker panicked").expect("clean exit");
            }
        }
    }

    /// One chunk of a scripted reply: `(offset, len)`.
    type Script = &'static [(u32, usize)];

    /// Plays worker 0 of a one-worker lossless cluster by hand: answers
    /// the first `Round` with `script`'s chunks and a `RoundDone`, then
    /// holds the link open until the master hangs up — so if the link
    /// dies, it died of the reply. Returns what the master made of it:
    /// the delivered reply (if any) and the link's liveness afterwards.
    fn scripted_reply(script: Script) -> (Option<Reply<Vec<f64>>>, bool) {
        let (model, data) = fixture();
        let listener = SocketListener::bind().expect("bind loopback");
        let addr = listener.addr();
        let peer = std::thread::spawn(move || {
            let mut conn = Connection::connect(addr).expect("connect");
            conn.send(&Frame::Hello {
                version: VERSION,
                encodings: Vec::new(),
            })
            .expect("hello");
            assert!(matches!(conn.recv(), Ok(Frame::Handshake(_))));
            let Ok(Frame::Round { seq, .. }) = conn.recv() else {
                panic!("expected a round");
            };
            let mut wire = Vec::new();
            for &(offset, len) in script {
                let data = vec![1.0; len];
                frame::append_gradient_chunk(&mut wire, seq, 0, offset, PARAMS as u32, &data);
            }
            Frame::RoundDone {
                seq,
                worker: 0,
                compute_seconds: 0.0,
                wire_error: None,
            }
            .append_to(&mut wire);
            conn.send_encoded(&wire).expect("scripted reply");
            let _ = conn.recv(); // Shutdown or EOF: the master is done
        });
        let mut cluster = SocketCluster::start(
            listener,
            naive(1).expect("naive code"),
            model,
            ModelSpec::Linear { dim: DIM as u32 },
            data,
            &RuntimeConfig::nominal(1),
        )
        .expect("socket cluster start");
        cluster.dispatch(&[0.0; PARAMS]).expect("dispatch");
        // The reader is the only sender: a disconnect means it exited.
        let delivered = match cluster
            .transport()
            .replies()
            .recv_timeout(Duration::from_secs(5))
        {
            Ok(reply) => Some(reply),
            Err(RecvTimeoutError::Disconnected) => None,
            Err(RecvTimeoutError::Timeout) => panic!("reader neither replied nor exited"),
        };
        let alive = cluster.transport().alive[0].load(Ordering::Relaxed);
        drop(cluster);
        peer.join().expect("scripted peer panicked");
        (delivered, alive)
    }

    #[test]
    fn well_formed_scripted_reply_is_delivered() {
        // The control for the three malformed scripts below.
        let (reply, alive) = scripted_reply(&[(0, 3), (3, 3), (6, 2)]);
        assert_eq!(reply.expect("a reply").coded, vec![1.0; PARAMS]);
        assert!(alive);
    }

    #[test]
    fn lossless_reply_with_a_skipped_chunk_kills_the_link() {
        let (reply, alive) = scripted_reply(&[(0, 3), (6, 2)]);
        assert!(reply.is_none(), "a reply with a hole reached the master");
        assert!(!alive);
    }

    #[test]
    fn lossless_reply_with_an_overrunning_chunk_kills_the_link() {
        let (reply, alive) = scripted_reply(&[(0, 3), (3, 3), (6, 3)]);
        assert!(reply.is_none(), "an overrunning reply reached the master");
        assert!(!alive);
    }

    #[test]
    fn lossless_reply_with_a_duplicate_chunk_kills_the_link() {
        let (reply, alive) = scripted_reply(&[(0, 3), (0, 3), (3, 3), (6, 2)]);
        assert!(reply.is_none(), "a reply with a repeat reached the master");
        assert!(!alive);
    }
}
