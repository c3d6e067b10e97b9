//! Blocking framed transport over `std::net::TcpStream` — no external
//! dependencies, no async runtime.
//!
//! A [`Connection`] owns one persistent receive buffer with a consumed
//! cursor: the socket is read straight into the buffer's tail and frames
//! are parsed where they landed (`Connection::recv_ref` hands out a
//! [`FrameRef`] borrowing it), so a payload is touched once between the
//! kernel and whoever consumes it. A read that returns mid-frame (short
//! read, timeout, nonblocking probe) never corrupts framing: the partial
//! bytes stay buffered and the next receive resumes exactly where the
//! stream left off. Byte counters are
//! shared `AtomicU64`s so a master can aggregate real traffic across
//! every worker connection (and its reader threads) into per-round
//! `bytes_sent`/`bytes_received` telemetry.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::NetError;
use crate::frame::{buffered_frame_len, Frame, FrameRef};

/// Initial receive-buffer size (a page: a link that only ever carries
/// a `Hello` should not pin more); it doubles only while a single frame
/// does not fit.
const RECV_BUF_LEN: usize = 4 * 1024;

/// A framed, counted, blocking connection.
#[derive(Debug)]
pub(crate) struct Connection {
    stream: TcpStream,
    /// The receive buffer, always fully initialized: `buf[head..tail]`
    /// holds the bytes received but not yet consumed as complete frames,
    /// `buf[tail..]` is where the next read lands.
    buf: Vec<u8>,
    head: usize,
    tail: usize,
    /// Whether this handle last left the socket without a read timeout,
    /// so an undeadlined receive can skip the `setsockopt`.
    blocking: bool,
    sent: Arc<AtomicU64>,
    received: Arc<AtomicU64>,
}

impl Connection {
    /// Wraps an accepted/connected stream with fresh byte counters.
    pub(crate) fn new(stream: TcpStream) -> Self {
        Self::with_counters(stream, Arc::default(), Arc::default())
    }

    /// Wraps a stream, accounting traffic into the given shared counters
    /// — how a master aggregates all worker links into one pair of
    /// totals.
    pub(crate) fn with_counters(
        stream: TcpStream,
        sent: Arc<AtomicU64>,
        received: Arc<AtomicU64>,
    ) -> Self {
        // Frames are already batched writes; Nagle only adds latency to
        // the round trip. Best-effort: some platforms may refuse.
        let _ = stream.set_nodelay(true);
        // `SO_RCVTIMEO` belongs to the socket, not the fd: a `try_clone`
        // of a stream another handle read under a deadline (the master's
        // reader half, after the `Hello`) would inherit it, and an idle
        // link would die of it. Receives set the timeout they need.
        let blocking = stream.set_read_timeout(None).is_ok();
        Connection {
            stream,
            buf: Vec::new(),
            head: 0,
            tail: 0,
            blocking,
            sent,
            received,
        }
    }

    /// Connects to `addr` with fresh counters.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub(crate) fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, NetError> {
        Ok(Self::new(TcpStream::connect(addr)?))
    }

    /// The underlying stream (for `try_clone` and shutdown; receives set
    /// the read timeout themselves).
    pub(crate) fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Encodes and writes one frame.
    ///
    /// # Errors
    ///
    /// Propagates write failures (a dead peer surfaces here as
    /// [`NetError::Io`]).
    pub(crate) fn send(&mut self, frame: &Frame) -> Result<(), NetError> {
        self.send_encoded(&frame.encode())
    }

    /// Writes pre-encoded frame bytes — lets a master encode a broadcast
    /// once and fan the same bytes out to every worker.
    ///
    /// # Errors
    ///
    /// As for [`Connection::send`].
    pub(crate) fn send_encoded(&mut self, bytes: &[u8]) -> Result<(), NetError> {
        self.stream.write_all(bytes)?;
        self.sent.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Receives one frame, blocking until it is complete.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] on EOF, [`NetError::Wire`] on protocol
    /// violations, [`NetError::Io`] on transport failures.
    pub(crate) fn recv(&mut self) -> Result<Frame, NetError> {
        self.recv_deadline(None)
    }

    /// [`Connection::recv`] without the copy: the frame's bulk payload
    /// borrows the receive buffer, so it must be consumed (or dropped)
    /// before the next receive.
    ///
    /// # Errors
    ///
    /// As for [`Connection::recv`].
    pub(crate) fn recv_ref(&mut self) -> Result<FrameRef<'_>, NetError> {
        let len = self.await_frame(None)?;
        self.take_frame(len)
    }

    /// Receives one frame, giving up [`NetError::Timeout`] once
    /// `deadline` (a remaining duration from now) has passed. Partial
    /// bytes read before the timeout stay buffered — the frame is
    /// finished by a later receive, never corrupted.
    ///
    /// # Errors
    ///
    /// As for [`Connection::recv`], plus [`NetError::Timeout`].
    pub(crate) fn recv_deadline(&mut self, deadline: Option<Duration>) -> Result<Frame, NetError> {
        let len = self.await_frame(deadline)?;
        self.take_frame(len).map(FrameRef::into_owned)
    }

    /// Nonblocking probe: a complete frame if one is available (buffered
    /// or readable right now), `None` otherwise, borrowing the receive
    /// buffer like `Connection::recv_ref`. Used by the worker's
    /// fast-forward drain — catch up to the newest round instead of
    /// replaying rounds the master already decoded without it.
    ///
    /// # Errors
    ///
    /// As for [`Connection::recv`]; `None` is *not* an error.
    pub(crate) fn try_recv_ref(&mut self) -> Result<Option<FrameRef<'_>>, NetError> {
        match self.poll_frame()? {
            Some(len) => self.take_frame(len).map(Some),
            None => Ok(None),
        }
    }

    /// The unconsumed bytes.
    fn buffered(&self) -> &[u8] {
        &self.buf[self.head..self.tail]
    }

    /// Parses the complete frame of `len` bytes at the cursor and steps
    /// past it. On a malformed frame the cursor stays put: the stream is
    /// unusable from there on and every later receive says so again.
    fn take_frame(&mut self, len: usize) -> Result<FrameRef<'_>, NetError> {
        let frame = FrameRef::parse(&self.buf[self.head..self.head + len])?;
        self.head += len;
        Ok(frame)
    }

    /// Blocks (up to `deadline`) until a complete frame sits at the
    /// cursor; returns its length.
    fn await_frame(&mut self, deadline: Option<Duration>) -> Result<usize, NetError> {
        let started = Instant::now();
        loop {
            if let Some(len) = buffered_frame_len(self.buffered())? {
                return Ok(len);
            }
            let remaining = match deadline {
                Some(d) => match d.checked_sub(started.elapsed()) {
                    Some(r) if !r.is_zero() => Some(r),
                    _ => return Err(NetError::Timeout),
                },
                None => None,
            };
            if remaining.is_some() || !self.blocking {
                self.stream.set_read_timeout(remaining)?;
                self.blocking = remaining.is_none();
            }
            match self.fill() {
                Ok(0) => return Err(NetError::Closed),
                Ok(_) => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Err(NetError::Timeout)
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(NetError::Io(e)),
            }
        }
    }

    /// Reads whatever is available right now, without blocking, until a
    /// complete frame sits at the cursor (`Some(len)`) or the socket runs
    /// dry (`None`).
    fn poll_frame(&mut self) -> Result<Option<usize>, NetError> {
        if let Some(len) = buffered_frame_len(self.buffered())? {
            return Ok(Some(len));
        }
        self.stream.set_nonblocking(true)?;
        let result = loop {
            match self.fill() {
                Ok(0) => break Err(NetError::Closed),
                Ok(_) => match buffered_frame_len(self.buffered()) {
                    Ok(Some(len)) => break Ok(Some(len)),
                    Ok(None) => {}
                    Err(e) => break Err(e.into()),
                },
                Err(e) if e.kind() == ErrorKind::WouldBlock => break Ok(None),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => break Err(NetError::Io(e)),
            }
        };
        // Restore blocking mode even on error paths.
        self.stream.set_nonblocking(false)?;
        result
    }

    /// One `read` into the buffer's tail. Room is made first, at the
    /// least cost that works: an empty buffer rewinds for free; a full
    /// tail moves the unconsumed bytes (a partial frame) to the front;
    /// only a single frame larger than the whole buffer grows it — so
    /// the capacity settles at the largest frame the link carries.
    fn fill(&mut self) -> std::io::Result<usize> {
        if self.head == self.tail {
            self.head = 0;
            self.tail = 0;
        }
        if self.tail == self.buf.len() {
            if self.head > 0 {
                self.buf.copy_within(self.head..self.tail, 0);
                self.tail -= self.head;
                self.head = 0;
            } else {
                let len = (2 * self.buf.len()).max(RECV_BUF_LEN);
                self.buf.resize(len, 0);
            }
        }
        let n = self.stream.read(&mut self.buf[self.tail..])?;
        self.tail += n;
        self.received.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A raw client stream and the `Connection` accepted from it.
    fn pair() -> (TcpStream, Connection) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        peer.set_nodelay(true).expect("nodelay");
        let (accepted, _) = listener.accept().expect("accept");
        (peer, Connection::new(accepted))
    }

    /// Two whole frames and a third to be cut in half: a small bulk
    /// frame, a control frame, and one several reads long.
    fn script() -> [Frame; 3] {
        [
            Frame::Round {
                seq: 1,
                params: (0..40).map(|i| i as f64 * 0.5).collect(),
            },
            Frame::RoundDone {
                seq: 1,
                worker: 2,
                compute_seconds: 0.25,
                wire_error: None,
            },
            Frame::GradientChunk {
                seq: 2,
                worker: 2,
                offset: 0,
                total: 2000,
                data: (0..2000).map(|i| -(i as f64)).collect(),
            },
        ]
    }

    /// The script's bytes split where the test pauses the peer: the
    /// first two frames plus half of the third, and the rest.
    fn script_bytes(frames: &[Frame; 3]) -> (Vec<u8>, Vec<u8>) {
        let mut head = frames[0].encode();
        frames[1].append_to(&mut head);
        let third = frames[2].encode();
        let (front, back) = third.split_at(third.len() / 2);
        head.extend_from_slice(front);
        (head, back.to_vec())
    }

    fn dribble(peer: &mut TcpStream, bytes: &[u8], step: usize) {
        for piece in bytes.chunks(step) {
            peer.write_all(piece).expect("dribble");
        }
    }

    /// The next complete frame if one is available right now, owned.
    fn try_recv(conn: &mut Connection) -> Result<Option<Frame>, NetError> {
        Ok(conn.try_recv_ref()?.map(FrameRef::into_owned))
    }

    /// Polls `try_recv` until it yields a frame (loopback delivery is
    /// prompt, not instantaneous).
    fn try_recv_soon(conn: &mut Connection) -> Frame {
        let started = Instant::now();
        loop {
            if let Some(frame) = try_recv(conn).expect("healthy stream") {
                return frame;
            }
            assert!(
                started.elapsed() < Duration::from_secs(5),
                "frame never came"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn try_recv_reassembles_dribbled_frames() {
        for step in [1, 7, 4096] {
            let frames = script();
            let (head, rest) = script_bytes(&frames);
            let (mut peer, mut conn) = pair();
            let mut got = Vec::new();
            for piece in head.chunks(step) {
                peer.write_all(piece).expect("dribble");
                while let Some(frame) = try_recv(&mut conn).expect("healthy stream") {
                    got.push(frame);
                }
            }
            while got.len() < 2 {
                got.push(try_recv_soon(&mut conn));
            }
            assert_eq!(got, frames[..2], "step {step}");
            assert!(try_recv(&mut conn).expect("healthy stream").is_none());
            dribble(&mut peer, &rest, step);
            assert_eq!(try_recv_soon(&mut conn), frames[2], "step {step}");
        }
    }

    #[test]
    fn recv_deadline_times_out_mid_frame_then_resumes() {
        const SHORT: Option<Duration> = Some(Duration::from_millis(20));
        const LONG: Option<Duration> = Some(Duration::from_secs(5));
        for step in [1, 7, 4096] {
            let frames = script();
            let (head, rest) = script_bytes(&frames);
            let (mut peer, mut conn) = pair();
            // Part of the first frame, then silence: a timeout, and the
            // part stays buffered.
            let (front, back) = head.split_at(100);
            dribble(&mut peer, front, step);
            assert!(matches!(conn.recv_deadline(SHORT), Err(NetError::Timeout)));
            dribble(&mut peer, back, step);
            assert_eq!(conn.recv_deadline(LONG).expect("first"), frames[0]);
            assert_eq!(conn.recv_deadline(LONG).expect("second"), frames[1]);
            assert!(matches!(conn.recv_deadline(SHORT), Err(NetError::Timeout)));
            dribble(&mut peer, &rest, step);
            assert_eq!(conn.recv_deadline(LONG).expect("third"), frames[2]);
            // An undeadlined receive after deadlined ones blocks again.
            peer.write_all(&frames[1].encode()).expect("write");
            assert_eq!(conn.recv().expect("fourth"), frames[1]);
            assert_eq!(conn.stream().read_timeout().expect("getsockopt"), None);
        }
    }

    #[test]
    fn recv_reassembles_a_free_running_dribble() {
        for step in [1, 7, 4096] {
            let frames = script();
            let (head, rest) = script_bytes(&frames);
            let (mut peer, mut conn) = pair();
            let writer = std::thread::spawn(move || {
                dribble(&mut peer, &head, step);
                dribble(&mut peer, &rest, step);
                peer // keep the link open until the frames are checked
            });
            for want in &frames {
                assert_eq!(&conn.recv().expect("frame"), want, "step {step}");
            }
            drop(writer.join().expect("writer panicked"));
            assert!(matches!(conn.recv(), Err(NetError::Closed)));
        }
    }

    #[test]
    fn receive_buffer_settles_at_the_largest_frame() {
        // A frame larger than the initial buffer grows it once; after
        // that the cursor rewinds and compacts, so a long stream of
        // mixed frames — small ones straddling the buffer's end included
        // — never grows it again.
        let big = Frame::GradientChunk {
            seq: 9,
            worker: 0,
            offset: 0,
            total: 20_000,
            data: (0..20_000).map(f64::from).collect(),
        };
        let small = script();
        let (mut peer, mut conn) = pair();
        let stream: Vec<Frame> = std::iter::once(big.clone())
            .chain((0..200).map(|i| small[i % 3].clone()))
            .chain([big.clone(), small[0].clone(), big])
            .collect();
        let wire: Vec<u8> = stream.iter().flat_map(Frame::encode).collect();
        let writer = std::thread::spawn(move || {
            dribble(&mut peer, &wire, 4099); // never frame-aligned
            peer
        });
        let mut settled = 0;
        for (i, want) in stream.iter().enumerate() {
            assert_eq!(&conn.recv().expect("frame"), want, "frame {i}");
            if i == 0 {
                settled = conn.buf.len();
                assert!(settled > RECV_BUF_LEN, "the big frame must not have fit");
            }
            assert_eq!(conn.buf.len(), settled, "buffer grew at frame {i}");
        }
        drop(writer.join().expect("writer panicked"));
    }
}
