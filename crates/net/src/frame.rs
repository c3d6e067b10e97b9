//! The framed wire protocol: compact length-prefixed binary frames.
//!
//! Every frame is `[len: u32][tag: u8][payload: len bytes]`, all integers
//! and floats little-endian. `len` counts the payload only (the tag byte
//! is outside it) and is capped at [`MAX_FRAME_LEN`] — a reader rejects
//! an oversized header *before* allocating anything, so a corrupt or
//! hostile length prefix cannot balloon memory. Inner length prefixes
//! (vector counts) are validated against the bytes actually remaining in
//! the payload the same way.
//!
//! | frame           | tag  | payload |
//! |-----------------|------|---------|
//! | `Hello`         | 0x01 | magic `u32` (`0x48_47_43_31`, "HGC1"), version `u16`, *capability bytes* |
//! | `Handshake`     | 0x02 | worker `u32`, num_params `u32`, chunk_len `u32`, ranges `vec<(u32,u32)>`, coefficients `vec<f64>`, behavior, model spec, dataset, *encoding byte* |
//! | `Round`         | 0x03 | seq `u64`, params `vec<f64>` |
//! | `GradientChunk` | 0x04 | seq `u64`, worker `u32`, offset `u32`, total `u32`, data `vec<f64>` |
//! | `RoundDone`     | 0x05 | seq `u64`, worker `u32`, compute_seconds `f64`, *opt wire_error `f64`* |
//! | `Recode`        | 0x06 | row `u32`, ranges `vec<(u32,u32)>`, coefficients `vec<f64>` |
//! | `Shutdown`      | 0x07 | *(empty)* |
//! | `EncodedChunk`  | 0x08 | seq `u64`, worker `u32`, offset `u32`, total `u32`, encoding `u8`, bytes `vec<u8>` |
//!
//! `vec<T>` is a `u32` element count followed by the elements. Optional
//! values are a presence byte (0/1) followed by the value when present.
//!
//! Fields in *italics* are the PR 10 wire-compression extensions. They
//! follow an optional-trailing-field convention: a writer emits them
//! only when they differ from the default (no capabilities, `f64`
//! encoding, no wire error), and a reader consumes them only when bytes
//! remain — so a default-valued frame is byte-identical to the pre-PR-10
//! layout and old peers interoperate transparently at `f64`. An
//! *unknown* encoding byte is [`WireError::UnknownEncoding`], never a
//! silent fallback; old masters seeing tag 0x08 get a typed
//! [`WireError::UnknownTag`].
//!
//! # One parser, one writer
//!
//! The three frames that carry a round's bulk payload — `Round`,
//! `GradientChunk`, `EncodedChunk` — have a borrowed form on each side,
//! so a payload crosses this module in **one pass each way**:
//!
//! * reading: [`FrameRef::decode_prefix`] is the one parser. Its bulk
//!   fields borrow the receive buffer ([`F64Le`] is a view of
//!   little-endian `f64`s, copied out once by [`F64Le::copy_to`] into
//!   the buffer that consumes them); every validation — oversize and
//!   count-vs-remaining before any allocation, trailing bytes, unknown
//!   tag/encoding, presence bytes — lives there and nowhere else.
//! * writing: `append_round`, [`append_gradient_chunk`] and
//!   `append_encoded_chunk` serialize straight from the `&[f64]` /
//!   `&[u8]` that produced the payload into a caller-held buffer, with
//!   an exact `reserve` and a bulk little-endian conversion.
//!   [`Frame::append_to`] is the one writer: its bulk arms *are* those
//!   functions.
//!
//! The owned [`Frame`] is built on that pair: [`Frame::decode`] /
//! [`Frame::decode_prefix`] are the borrowed decode followed by
//! [`FrameRef::into_owned`], and [`Frame::encode`] is
//! [`Frame::encode_into`] on a fresh `Vec`. They are the allocating
//! conveniences — right for handshakes, control frames and tests; the
//! per-round data path (`TcpTransport::send_round`, the worker loop, the
//! master's reader threads) uses the borrowed forms.

use crate::error::WireError;
use crate::spec::{BehaviorSpec, DatasetSpec, Handshake, ModelSpec, TargetsSpec};
use hetgc_comm::PayloadEncoding;

/// Protocol magic carried by [`Frame::Hello`]: `"HGC1"` as a big-endian
/// byte string, stored little-endian like every other integer.
pub(crate) const MAGIC: u32 = 0x4847_4331;

/// Protocol version carried by [`Frame::Hello`]. Bump on any layout
/// change; the master rejects mismatched workers at the handshake.
pub(crate) const VERSION: u16 = 1;

/// Hard cap on a frame's payload length (64 MiB). A header declaring
/// more is [`WireError::Oversized`] — checked before any allocation.
pub(crate) const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Bytes of framing overhead preceding every payload: the `u32` length
/// prefix plus the tag byte.
pub(crate) const HEADER_LEN: usize = 5;

/// Payload bytes of a `Round` besides its parameters: seq + count.
const ROUND_FIXED_LEN: usize = 8 + 4;

/// Payload bytes of a `GradientChunk` besides its data: seq, worker,
/// offset, total, count.
const GRADIENT_CHUNK_FIXED_LEN: usize = 8 + 4 + 4 + 4 + 4;

/// Payload bytes of an `EncodedChunk` besides its bytes: seq, worker,
/// offset, total, encoding, count.
const ENCODED_CHUNK_FIXED_LEN: usize = 8 + 4 + 4 + 4 + 1 + 4;

/// The most parameters a `Round` frame can carry under
/// [`MAX_FRAME_LEN`] (≈ 8.38 M). A larger model cannot be broadcast:
/// every worker would reject the frame as [`WireError::Oversized`].
pub(crate) const MAX_ROUND_PARAMS: usize = (MAX_FRAME_LEN as usize - ROUND_FIXED_LEN) / 8;

/// The most `f64` coordinates one `GradientChunk` can carry under
/// [`MAX_FRAME_LEN`].
pub(crate) const MAX_CHUNK_LEN: usize = (MAX_FRAME_LEN as usize - GRADIENT_CHUNK_FIXED_LEN) / 8;

const TAG_HELLO: u8 = 0x01;
const TAG_HANDSHAKE: u8 = 0x02;
const TAG_ROUND: u8 = 0x03;
const TAG_GRADIENT_CHUNK: u8 = 0x04;
const TAG_ROUND_DONE: u8 = 0x05;
const TAG_RECODE: u8 = 0x06;
const TAG_SHUTDOWN: u8 = 0x07;
const TAG_ENCODED_CHUNK: u8 = 0x08;

/// One protocol frame. See the module docs for the wire layout.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Worker → master, first frame on a fresh connection: identifies the
    /// peer as a hetgc worker speaking this protocol version.
    Hello {
        /// Protocol version the worker speaks (this build speaks 1).
        version: u16,
        /// Capability set: the payload-encoding bytes this worker can
        /// produce beyond the implicit `f64` baseline (see
        /// [`PayloadEncoding::advertised`]). Kept as raw bytes — a
        /// newer worker may advertise encodings this build does not
        /// know, which the master simply never selects. Empty for
        /// pre-compression peers (their `Hello` is byte-identical).
        encodings: Vec<u8>,
    },
    /// Master → worker reply to `Hello`: the worker's complete marching
    /// orders — logical row, shard assignment, codec row, behaviour,
    /// model and training data.
    Handshake(Handshake),
    /// Master → workers: start collect round `seq` on these parameters.
    Round {
        /// Strictly increasing round sequence number (also what
        /// fail-stop/throttle-step behaviours count).
        seq: u64,
        /// Current model parameters.
        params: Vec<f64>,
    },
    /// Worker → master: one chunk of the round's coded gradient. Chunks
    /// arrive in offset order on a TCP stream; splitting the payload
    /// bounds frame size and lets the worker serialize chunk `i+1` while
    /// chunk `i` is already in flight (transfer overlaps encode).
    GradientChunk {
        /// The round this chunk belongs to.
        seq: u64,
        /// The sender's current logical row.
        worker: u32,
        /// Starting coordinate of `data` within the gradient vector.
        offset: u32,
        /// Total gradient dimension (the master sizes its reassembly
        /// buffer from the handshake; this is cross-checked).
        total: u32,
        /// The chunk's coordinates.
        data: Vec<f64>,
    },
    /// Worker → master: the round's gradient is fully streamed.
    RoundDone {
        /// The completed round.
        seq: u64,
        /// The sender's current logical row.
        worker: u32,
        /// Effective compute duration (native gradient time stretched by
        /// throttle emulation and injected delay), the worker-side
        /// telemetry observation.
        compute_seconds: f64,
        /// L2 norm of this round's quantization error (what the lossy
        /// wire encoding dropped from the coded partial), measured by
        /// the worker from the encode round trip. `None` on lossless
        /// links — and absent from the wire, so `f64` peers emit the
        /// pre-compression layout.
        wire_error: Option<f64>,
    },
    /// Master → worker control frame: a live re-code. The worker becomes
    /// logical row `row` of the rebuilt code and adopts the new shard
    /// ranges and coefficients from the next `Round` on. Membership is
    /// preserved — the connection, behaviour schedule and round sequence
    /// all continue.
    Recode {
        /// The worker's new logical row.
        row: u32,
        /// New sample ranges, one per owned partition.
        ranges: Vec<(u32, u32)>,
        /// The non-zero entries of the new `b_row`, aligned with `ranges`.
        coefficients: Vec<f64>,
    },
    /// Master → worker: terminate cleanly.
    Shutdown,
    /// Worker → master: one quantized chunk of the round's coded
    /// gradient — [`Frame::GradientChunk`]'s compressed sibling, sent
    /// only on links whose handshake negotiated a non-`f64` encoding.
    /// `offset`/`total` still count *elements*, not bytes.
    EncodedChunk {
        /// The round this chunk belongs to.
        seq: u64,
        /// The sender's current logical row.
        worker: u32,
        /// Starting coordinate of the chunk within the gradient vector.
        offset: u32,
        /// Total gradient dimension.
        total: u32,
        /// The codec that produced `bytes`; must match the negotiated
        /// encoding (the master drops the link on a mismatch).
        encoding: PayloadEncoding,
        /// The codec's payload for this chunk.
        bytes: Vec<u8>,
    },
}

/// Little-endian `f64`s borrowed from a receive buffer — the bulk field
/// of a [`FrameRef::Round`] or [`FrameRef::GradientChunk`]. The element
/// count was validated against the frame payload by the parser; the
/// values are converted once, by whoever consumes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct F64Le<'a>(&'a [u8]);

impl F64Le<'_> {
    /// Number of `f64` elements in the view.
    pub fn len(&self) -> usize {
        self.0.len() / 8
    }

    /// Whether the view holds no elements.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Converts every element into `out`, in one pass.
    ///
    /// # Panics
    ///
    /// If `out.len() != self.len()`, like `copy_from_slice`.
    pub fn copy_to(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.len(), "F64Le::copy_to: length mismatch");
        for (dst, src) in out.iter_mut().zip(self.0.chunks_exact(8)) {
            *dst = le_f64(src);
        }
    }

    /// The elements as an owned vector.
    pub(crate) fn to_vec(self) -> Vec<f64> {
        self.0.chunks_exact(8).map(le_f64).collect()
    }
}

/// One `f64` from a `chunks_exact(8)` item. The array conversion (not
/// eight indexed bytes) is what lets the bulk loops compile to wide
/// copies.
fn le_f64(b: &[u8]) -> f64 {
    f64::from_le_bytes(b.try_into().expect("chunks_exact(8) yields 8 bytes"))
}

/// A decoded frame whose bulk payload still lies in the buffer it was
/// parsed from. The three per-round data frames mirror their [`Frame`]
/// variants field for field; everything else (handshake, control) is
/// small or rare and rides owned in [`FrameRef::Control`].
#[derive(Debug, Clone, PartialEq)]
pub enum FrameRef<'a> {
    /// [`Frame::Round`], parameters borrowed.
    Round {
        /// See [`Frame::Round`].
        seq: u64,
        /// The parameters, still in wire form.
        params: F64Le<'a>,
    },
    /// [`Frame::GradientChunk`], coordinates borrowed.
    GradientChunk {
        /// See [`Frame::GradientChunk`].
        seq: u64,
        /// See [`Frame::GradientChunk`].
        worker: u32,
        /// See [`Frame::GradientChunk`].
        offset: u32,
        /// See [`Frame::GradientChunk`].
        total: u32,
        /// The chunk's coordinates, still in wire form.
        data: F64Le<'a>,
    },
    /// [`Frame::EncodedChunk`], codec payload borrowed.
    EncodedChunk {
        /// See [`Frame::EncodedChunk`].
        seq: u64,
        /// See [`Frame::EncodedChunk`].
        worker: u32,
        /// See [`Frame::EncodedChunk`].
        offset: u32,
        /// See [`Frame::EncodedChunk`].
        total: u32,
        /// See [`Frame::EncodedChunk`].
        encoding: PayloadEncoding,
        /// The codec's payload for this chunk.
        bytes: &'a [u8],
    },
    /// Any other frame, owned. The parser never puts one of the three
    /// bulk variants here.
    Control(Frame),
}

impl<'a> FrameRef<'a> {
    /// Streaming decode — the one parser: tries to decode one frame from
    /// the front of `buf`, returning `Ok(None)` when more bytes are
    /// needed (an incomplete frame is not an error for a live stream —
    /// the connection layer keeps reading) and
    /// `Ok(Some((frame, consumed)))` on success.
    ///
    /// # Errors
    ///
    /// Every malformed input maps to a [`WireError`]; truncation maps to
    /// `Ok(None)`. A [`WireError::Oversized`] header is reported
    /// immediately — waiting for more bytes could never make it valid.
    pub fn decode_prefix(buf: &'a [u8]) -> Result<Option<(FrameRef<'a>, usize)>, WireError> {
        match buffered_frame_len(buf)? {
            Some(end) => Ok(Some((Self::parse(&buf[..end])?, end))),
            None => Ok(None),
        }
    }

    /// Parses exactly one complete frame (`frame.len()` is what
    /// [`buffered_frame_len`] returned for it).
    pub(crate) fn parse(frame: &'a [u8]) -> Result<FrameRef<'a>, WireError> {
        let mut r = Reader {
            buf: &frame[HEADER_LEN..],
            pos: 0,
        };
        let parsed = match frame[4] {
            TAG_HELLO => {
                let magic = r.u32()?;
                if magic != MAGIC {
                    return Err(WireError::BadMagic { got: magic });
                }
                let version = r.u16()?;
                // Whatever follows the version is the capability set; a
                // pre-compression peer simply has none.
                let encodings = r.remaining()?.to_vec();
                FrameRef::Control(Frame::Hello { version, encodings })
            }
            TAG_HANDSHAKE => FrameRef::Control(Frame::Handshake(get_handshake(&mut r)?)),
            TAG_ROUND => FrameRef::Round {
                seq: r.u64()?,
                params: r.f64_le()?,
            },
            TAG_GRADIENT_CHUNK => FrameRef::GradientChunk {
                seq: r.u64()?,
                worker: r.u32()?,
                offset: r.u32()?,
                total: r.u32()?,
                data: r.f64_le()?,
            },
            TAG_ROUND_DONE => FrameRef::Control(Frame::RoundDone {
                seq: r.u64()?,
                worker: r.u32()?,
                compute_seconds: r.f64()?,
                wire_error: if r.has_remaining() {
                    r.opt_f64()?
                } else {
                    None
                },
            }),
            TAG_RECODE => FrameRef::Control(Frame::Recode {
                row: r.u32()?,
                ranges: r.range_vec()?,
                coefficients: r.f64_vec()?,
            }),
            TAG_SHUTDOWN => FrameRef::Control(Frame::Shutdown),
            TAG_ENCODED_CHUNK => FrameRef::EncodedChunk {
                seq: r.u64()?,
                worker: r.u32()?,
                offset: r.u32()?,
                total: r.u32()?,
                encoding: {
                    let value = r.u8()?;
                    PayloadEncoding::from_byte(value).ok_or(WireError::UnknownEncoding { value })?
                },
                bytes: r.bytes()?,
            },
            tag => return Err(WireError::UnknownTag { tag }),
        };
        if r.pos != r.buf.len() {
            return Err(WireError::Corrupt {
                what: "trailing bytes after the frame payload",
            });
        }
        Ok(parsed)
    }

    /// Copies the borrowed payload out: the owned [`Frame`].
    pub fn into_owned(self) -> Frame {
        match self {
            FrameRef::Round { seq, params } => Frame::Round {
                seq,
                params: params.to_vec(),
            },
            FrameRef::GradientChunk {
                seq,
                worker,
                offset,
                total,
                data,
            } => Frame::GradientChunk {
                seq,
                worker,
                offset,
                total,
                data: data.to_vec(),
            },
            FrameRef::EncodedChunk {
                seq,
                worker,
                offset,
                total,
                encoding,
                bytes,
            } => Frame::EncodedChunk {
                seq,
                worker,
                offset,
                total,
                encoding,
                bytes: bytes.to_vec(),
            },
            FrameRef::Control(frame) => frame,
        }
    }
}

/// The header step of the parser: the total length (header included) of
/// the frame at the front of `buf` once all of it is buffered, `None`
/// while bytes are missing.
///
/// # Errors
///
/// [`WireError::Oversized`] as soon as the header is readable — before
/// anything is allocated or waited for.
pub(crate) fn buffered_frame_len(buf: &[u8]) -> Result<Option<usize>, WireError> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if len > MAX_FRAME_LEN {
        return Err(WireError::Oversized {
            declared: u64::from(len),
        });
    }
    let end = HEADER_LEN + len as usize;
    Ok((buf.len() >= end).then_some(end))
}

impl Frame {
    /// Encodes the frame as `[len][tag][payload]` bytes in a fresh
    /// vector — [`Frame::encode_into`] for callers with no buffer to
    /// reuse.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Encodes the frame into `out`, replacing whatever it held (its
    /// capacity is reused).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        self.append_to(out);
    }

    /// Appends the encoded frame to `out` — the one writer. Appending is
    /// what lets a reply's `RoundDone` share the buffer, and the
    /// `write`, of its last chunk.
    pub fn append_to(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Hello { version, encodings } => put_frame(out, TAG_HELLO, 0, |out| {
                put_u32(out, MAGIC);
                put_u16(out, *version);
                // Capability bytes fill the remainder of the payload;
                // an empty set emits the pre-compression layout.
                out.extend_from_slice(encodings);
            }),
            Frame::Handshake(h) => put_frame(out, TAG_HANDSHAKE, 0, |out| put_handshake(out, h)),
            Frame::Round { seq, params } => append_round(out, *seq, params),
            Frame::GradientChunk {
                seq,
                worker,
                offset,
                total,
                data,
            } => append_gradient_chunk(out, *seq, *worker, *offset, *total, data),
            Frame::RoundDone {
                seq,
                worker,
                compute_seconds,
                wire_error,
            } => put_frame(out, TAG_ROUND_DONE, 0, |out| {
                put_u64(out, *seq);
                put_u32(out, *worker);
                put_f64(out, *compute_seconds);
                // Written only when present: lossless links emit the
                // pre-compression layout.
                if wire_error.is_some() {
                    put_opt_f64(out, *wire_error);
                }
            }),
            Frame::Recode {
                row,
                ranges,
                coefficients,
            } => put_frame(out, TAG_RECODE, 0, |out| {
                put_u32(out, *row);
                put_range_vec(out, ranges);
                put_f64_vec(out, coefficients);
            }),
            Frame::Shutdown => put_frame(out, TAG_SHUTDOWN, 0, |_| {}),
            Frame::EncodedChunk {
                seq,
                worker,
                offset,
                total,
                encoding,
                bytes,
            } => append_encoded_chunk(out, *seq, *worker, *offset, *total, *encoding, bytes),
        }
    }

    /// Decodes one complete frame from the *front* of `buf`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when `buf` ends before the declared frame
    /// does; the other variants as documented on [`WireError`]. Trailing
    /// bytes after the frame are fine (use [`Frame::decode_prefix`] to
    /// learn how many were consumed).
    pub fn decode(buf: &[u8]) -> Result<Frame, WireError> {
        Self::decode_prefix(buf)?
            .map(|(frame, _)| frame)
            .ok_or(WireError::Truncated)
    }

    /// [`FrameRef::decode_prefix`], then [`FrameRef::into_owned`].
    ///
    /// # Errors
    ///
    /// As for [`FrameRef::decode_prefix`].
    pub fn decode_prefix(buf: &[u8]) -> Result<Option<(Frame, usize)>, WireError> {
        Ok(FrameRef::decode_prefix(buf)?.map(|(frame, consumed)| (frame.into_owned(), consumed)))
    }
}

/// Appends a [`Frame::Round`] serialized straight from the caller's
/// parameter slice.
pub(crate) fn append_round(out: &mut Vec<u8>, seq: u64, params: &[f64]) {
    let payload_len = ROUND_FIXED_LEN + 8 * params.len();
    put_frame(out, TAG_ROUND, payload_len, |out| {
        put_u64(out, seq);
        put_f64_vec(out, params);
    });
}

/// Appends a [`Frame::GradientChunk`] serialized straight from a slice of
/// the coded gradient.
pub fn append_gradient_chunk(
    out: &mut Vec<u8>,
    seq: u64,
    worker: u32,
    offset: u32,
    total: u32,
    data: &[f64],
) {
    let payload_len = GRADIENT_CHUNK_FIXED_LEN + 8 * data.len();
    put_frame(out, TAG_GRADIENT_CHUNK, payload_len, |out| {
        put_u64(out, seq);
        put_u32(out, worker);
        put_u32(out, offset);
        put_u32(out, total);
        put_f64_vec(out, data);
    });
}

/// Appends a [`Frame::EncodedChunk`] around the wire codec's bytes.
pub(crate) fn append_encoded_chunk(
    out: &mut Vec<u8>,
    seq: u64,
    worker: u32,
    offset: u32,
    total: u32,
    encoding: PayloadEncoding,
    bytes: &[u8],
) {
    let payload_len = ENCODED_CHUNK_FIXED_LEN + bytes.len();
    put_frame(out, TAG_ENCODED_CHUNK, payload_len, |out| {
        put_u64(out, seq);
        put_u32(out, worker);
        put_u32(out, offset);
        put_u32(out, total);
        out.push(encoding.to_byte());
        put_byte_vec(out, bytes);
    });
}

// ------------------------------------------------------------ writing

/// Appends one frame to `out`: reserves room for `payload_len` payload
/// bytes (exact for the bulk frames, so they never regrow; 0 for the
/// small ones), writes the header, lets `body` write the payload, then
/// backfills the length prefix with what `body` actually wrote.
fn put_frame(out: &mut Vec<u8>, tag: u8, payload_len: usize, body: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.reserve(HEADER_LEN + payload_len);
    out.extend_from_slice(&[0, 0, 0, 0, tag]);
    body(out);
    let len = out.len() - start - HEADER_LEN;
    debug_assert!(
        len <= MAX_FRAME_LEN as usize,
        "encoder produced an oversized frame"
    );
    out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Count, then the elements converted in bulk: one resize and one pass
/// the compiler turns into wide copies, not a capacity-checked push per
/// element (measured through `Frame::encode` at `d = 4097`: ≈ 7 GB/s for
/// the push loop, ≈ 22 for `extend(flat_map(to_le_bytes))`, ≈ 35 here).
fn put_f64_vec(out: &mut Vec<u8>, v: &[f64]) {
    put_u32(out, v.len() as u32);
    let start = out.len();
    out.resize(start + 8 * v.len(), 0);
    for (dst, x) in out[start..].chunks_exact_mut(8).zip(v) {
        dst.copy_from_slice(&x.to_le_bytes());
    }
}

fn put_u32_vec(out: &mut Vec<u8>, v: &[u32]) {
    put_u32(out, v.len() as u32);
    for &x in v {
        put_u32(out, x);
    }
}

fn put_range_vec(out: &mut Vec<u8>, v: &[(u32, u32)]) {
    put_u32(out, v.len() as u32);
    for &(lo, hi) in v {
        put_u32(out, lo);
        put_u32(out, hi);
    }
}

fn put_byte_vec(out: &mut Vec<u8>, v: &[u8]) {
    put_u32(out, v.len() as u32);
    out.extend_from_slice(v);
}

fn put_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        Some(x) => {
            out.push(1);
            put_f64(out, x);
        }
        None => out.push(0),
    }
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(x) => {
            out.push(1);
            put_u64(out, x);
        }
        None => out.push(0),
    }
}

fn put_handshake(out: &mut Vec<u8>, h: &Handshake) {
    put_u32(out, h.worker);
    put_u32(out, h.num_params);
    put_u32(out, h.chunk_len);
    put_range_vec(out, &h.ranges);
    put_f64_vec(out, &h.coefficients);
    // Behaviour.
    put_u64(out, h.behavior.extra_delay_micros);
    put_opt_f64(out, h.behavior.throttle);
    match h.behavior.throttle_step {
        Some((at, rate)) => {
            out.push(1);
            put_u64(out, at);
            put_f64(out, rate);
        }
        None => out.push(0),
    }
    put_opt_u64(out, h.behavior.fail_from);
    // Model.
    match h.model {
        ModelSpec::Linear { dim } => {
            out.push(0);
            put_u32(out, dim);
        }
        ModelSpec::Softmax { dim, classes } => {
            out.push(1);
            put_u32(out, dim);
            put_u32(out, classes);
        }
    }
    // Dataset.
    put_u32(out, h.dataset.dim);
    put_f64_vec(out, &h.dataset.x);
    match &h.dataset.targets {
        TargetsSpec::Regression(y) => {
            out.push(0);
            put_f64_vec(out, y);
        }
        TargetsSpec::Classes {
            labels,
            num_classes,
        } => {
            out.push(1);
            put_u32_vec(out, labels);
            put_u32(out, *num_classes);
        }
    }
    // Payload encoding: trailing byte, written only for non-default
    // encodings so an `f64` handshake keeps the pre-compression layout.
    if h.encoding != PayloadEncoding::F64 {
        out.push(h.encoding.to_byte());
    }
}

// ------------------------------------------------------------ reading

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Corrupt {
            what: "length overflow",
        })?;
        if end > self.buf.len() {
            return Err(WireError::Corrupt {
                what: "inner field overruns the frame payload",
            });
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn has_remaining(&self) -> bool {
        self.pos < self.buf.len()
    }

    /// Consumes and returns every byte left in the payload.
    fn remaining(&mut self) -> Result<&'a [u8], WireError> {
        self.take(self.buf.len() - self.pos)
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads an element count and validates it against the bytes actually
    /// remaining (`elem_size` each) *before* allocating — a corrupt count
    /// can never over-allocate.
    fn count(&mut self, elem_size: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        let need = n.checked_mul(elem_size).ok_or(WireError::Corrupt {
            what: "element count overflow",
        })?;
        if need > self.buf.len() - self.pos {
            return Err(WireError::Corrupt {
                what: "element count exceeds the frame payload",
            });
        }
        Ok(n)
    }

    /// A counted byte vector, borrowed.
    fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.count(1)?;
        self.take(n)
    }

    /// A counted `f64` vector, borrowed: the count is validated once and
    /// the elements stay in wire form until someone converts them.
    fn f64_le(&mut self) -> Result<F64Le<'a>, WireError> {
        let n = self.count(8)?;
        Ok(F64Le(self.take(8 * n)?))
    }

    fn f64_vec(&mut self) -> Result<Vec<f64>, WireError> {
        Ok(self.f64_le()?.to_vec())
    }

    fn u32_vec(&mut self) -> Result<Vec<u32>, WireError> {
        let n = self.count(4)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.u32()?);
        }
        Ok(v)
    }

    fn range_vec(&mut self) -> Result<Vec<(u32, u32)>, WireError> {
        let n = self.count(8)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push((self.u32()?, self.u32()?));
        }
        Ok(v)
    }

    fn opt_f64(&mut self) -> Result<Option<f64>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            _ => Err(WireError::Corrupt {
                what: "presence byte must be 0 or 1",
            }),
        }
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            _ => Err(WireError::Corrupt {
                what: "presence byte must be 0 or 1",
            }),
        }
    }
}

fn get_handshake(r: &mut Reader<'_>) -> Result<Handshake, WireError> {
    let worker = r.u32()?;
    let num_params = r.u32()?;
    let chunk_len = r.u32()?;
    let ranges = r.range_vec()?;
    let coefficients = r.f64_vec()?;
    let behavior = BehaviorSpec {
        extra_delay_micros: r.u64()?,
        throttle: r.opt_f64()?,
        throttle_step: match r.u8()? {
            0 => None,
            1 => Some((r.u64()?, r.f64()?)),
            _ => {
                return Err(WireError::Corrupt {
                    what: "presence byte must be 0 or 1",
                })
            }
        },
        fail_from: r.opt_u64()?,
    };
    let model = match r.u8()? {
        0 => ModelSpec::Linear { dim: r.u32()? },
        1 => ModelSpec::Softmax {
            dim: r.u32()?,
            classes: r.u32()?,
        },
        _ => {
            return Err(WireError::Corrupt {
                what: "unknown model discriminant",
            })
        }
    };
    let dim = r.u32()?;
    let x = r.f64_vec()?;
    let targets = match r.u8()? {
        0 => TargetsSpec::Regression(r.f64_vec()?),
        1 => TargetsSpec::Classes {
            labels: r.u32_vec()?,
            num_classes: r.u32()?,
        },
        _ => {
            return Err(WireError::Corrupt {
                what: "unknown targets discriminant",
            })
        }
    };
    let encoding = if r.has_remaining() {
        let value = r.u8()?;
        PayloadEncoding::from_byte(value).ok_or(WireError::UnknownEncoding { value })?
    } else {
        PayloadEncoding::F64
    };
    Ok(Handshake {
        worker,
        num_params,
        chunk_len,
        ranges,
        coefficients,
        behavior,
        model,
        dataset: DatasetSpec { x, targets, dim },
        encoding,
    })
}

#[cfg(test)]
mod tests {
    //! Wire-protocol properties: every frame type round-trips bitwise,
    //! and every malformed byte sequence — truncated, corrupt, oversized,
    //! unknown-tag, wrong-magic — maps to a typed [`WireError`] without
    //! panicking and without allocating beyond the (bounded) declared
    //! length.

    use super::*;
    use proptest::prelude::*;

    /// Strategy: finite `f64`s (frame equality is `PartialEq`, which NaN
    /// would break spuriously).
    fn finite() -> impl Strategy<Value = f64> {
        -1e12f64..1e12
    }

    fn f64s(max: usize) -> impl Strategy<Value = Vec<f64>> {
        prop::collection::vec(finite(), 0..max)
    }

    fn ranges(max: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
        prop::collection::vec((0u32..10_000, 0u32..10_000), 0..max)
    }

    /// Strategy: an arbitrary (syntactically valid) handshake, covering every
    /// optional-field presence combination and both target layouts.
    fn handshake() -> impl Strategy<Value = Handshake> {
        (
            (0u32..64, 1u32..512, 1u32..4096),
            ranges(6),
            f64s(6),
            (any::<u64>(), any::<bool>(), finite(), any::<bool>()),
            (f64s(24), 1u32..8, any::<bool>()),
            0..PayloadEncoding::ALL.len(),
        )
            .prop_map(
                |(
                    (worker, num_params, chunk_len),
                    ranges,
                    coefficients,
                    behavior,
                    dataset,
                    encoding,
                )| {
                    let (delay, has_throttle, rate, fail) = behavior;
                    let (x, dim, classes) = dataset;
                    let targets = if classes {
                        TargetsSpec::Classes {
                            labels: vec![0, 2, 1],
                            num_classes: 3,
                        }
                    } else {
                        TargetsSpec::Regression(vec![1.5, -0.25])
                    };
                    Handshake {
                        worker,
                        num_params,
                        chunk_len,
                        ranges,
                        coefficients,
                        behavior: BehaviorSpec {
                            extra_delay_micros: delay,
                            throttle: has_throttle.then_some(rate),
                            throttle_step: has_throttle.then_some((delay % (1 << 20), rate)),
                            fail_from: fail.then_some(delay % 1000),
                        },
                        model: if classes {
                            ModelSpec::Softmax { dim, classes: 3 }
                        } else {
                            ModelSpec::Linear { dim: num_params }
                        },
                        dataset: DatasetSpec { x, targets, dim },
                        encoding: PayloadEncoding::ALL[encoding],
                    }
                },
            )
    }

    /// One strategy producing every frame variant.
    fn frame() -> impl Strategy<Value = Frame> {
        (
            0usize..8,
            (any::<u64>(), 0u32..64, 0u32..1024, 1u32..2048),
            f64s(32),
            ranges(6),
            (finite(), any::<bool>(), 0..PayloadEncoding::ALL.len()),
            handshake(),
        )
            .prop_map(|(which, ints, data, rs, (x, some, enc), h)| {
                let (seq, worker, offset, total) = ints;
                match which {
                    0 => Frame::Hello {
                        version: VERSION,
                        // Capability sets are arbitrary bytes on the wire —
                        // including empty (a pre-compression peer) and bytes
                        // this build does not know.
                        encodings: data.iter().map(|&v| v.to_bits() as u8).take(4).collect(),
                    },
                    1 => Frame::Shutdown,
                    2 => Frame::Round { seq, params: data },
                    3 => Frame::GradientChunk {
                        seq,
                        worker,
                        offset,
                        total,
                        data,
                    },
                    4 => Frame::RoundDone {
                        seq,
                        worker,
                        compute_seconds: x,
                        wire_error: some.then_some(x.abs()),
                    },
                    5 => Frame::Recode {
                        row: worker,
                        ranges: rs,
                        coefficients: data,
                    },
                    6 => Frame::EncodedChunk {
                        seq,
                        worker,
                        offset,
                        total,
                        encoding: PayloadEncoding::ALL[enc],
                        bytes: data.iter().map(|&v| v.to_bits() as u8).collect(),
                    },
                    _ => Frame::Handshake(h),
                }
            })
    }

    /// Strategy: arbitrary bytes (the shim has no `u8` Arbitrary).
    fn bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec(0u32..256, 0..max)
            .prop_map(|v| v.into_iter().map(|x| x as u8).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Every frame type round-trips bitwise through encode → decode.
        #[test]
        fn frames_round_trip(f in frame()) {
            let encoded = f.encode();
            let back = Frame::decode(&encoded).expect("own encoding decodes");
            prop_assert_eq!(&back, &f);
            // Streaming decode agrees and consumes exactly the frame.
            let (back, consumed) = Frame::decode_prefix(&encoded)
                .expect("no wire error")
                .expect("complete frame");
            prop_assert_eq!(&back, &f);
            prop_assert_eq!(consumed, encoded.len());
        }

        /// The owned API is the borrowed one plus a copy: the borrowed decode
        /// of every frame, made owned, is what `Frame::decode` returns, and a
        /// borrowed bulk field converts to exactly the values sent.
        #[test]
        fn borrowed_decode_agrees_with_owned(f in frame(), extra in bytes(32)) {
            let mut encoded = f.encode();
            let frame_len = encoded.len();
            encoded.extend_from_slice(&extra);
            let (borrowed, consumed) = FrameRef::decode_prefix(&encoded)
                .expect("no wire error")
                .expect("complete frame");
            prop_assert_eq!(consumed, frame_len);
            match (&borrowed, &f) {
                (FrameRef::Round { params: view, .. }, Frame::Round { params: sent, .. })
                | (
                    FrameRef::GradientChunk { data: view, .. },
                    Frame::GradientChunk { data: sent, .. },
                ) => {
                    prop_assert_eq!(view.len(), sent.len());
                    prop_assert_eq!(view.is_empty(), sent.is_empty());
                    let mut out = vec![f64::NAN; sent.len()];
                    view.copy_to(&mut out);
                    prop_assert_eq!(&out, sent);
                }
                (FrameRef::EncodedChunk { bytes: view, .. }, Frame::EncodedChunk { bytes: sent, .. }) => {
                    prop_assert_eq!(view, &sent.as_slice());
                }
                (FrameRef::Control(owned), _) => prop_assert_eq!(owned, &f),
                (borrowed, _) => prop_assert!(false, "{:?} decoded as {:?}", f, borrowed),
            }
            prop_assert_eq!(borrowed.into_owned(), Frame::decode(&encoded).expect("owned decode"));
        }

        /// `encode_into` replaces whatever the buffer held — stale bytes, the
        /// wrong length, spare capacity — with exactly `encode()`'s bytes,
        /// and `append_to` leaves what came before untouched.
        #[test]
        fn encode_into_a_dirty_buffer_matches_encode(f in frame(), junk in bytes(96)) {
            let fresh = f.encode();
            let mut reused = junk.clone();
            reused.reserve(7);
            f.encode_into(&mut reused);
            prop_assert_eq!(&reused, &fresh);
            let mut appended = junk.clone();
            f.append_to(&mut appended);
            prop_assert_eq!(&appended[..junk.len()], junk.as_slice());
            prop_assert_eq!(&appended[junk.len()..], fresh.as_slice());
        }

        /// Bytes of the NEXT frame never confuse a prefix decode.
        #[test]
        fn prefix_decode_ignores_following_bytes(f in frame(), extra in bytes(32)) {
            let mut encoded = f.encode();
            let frame_len = encoded.len();
            encoded.extend_from_slice(&extra);
            let (back, consumed) = Frame::decode_prefix(&encoded)
                .expect("no wire error")
                .expect("complete frame");
            prop_assert_eq!(back, f);
            prop_assert_eq!(consumed, frame_len);
        }

        /// Every strict prefix of a valid frame is `Truncated` (strict
        /// decode) / `Ok(None)` (streaming decode) — never a panic, never a
        /// wrong frame.
        #[test]
        fn truncation_is_typed(f in frame(), cut in any::<usize>()) {
            let encoded = f.encode();
            let cut = cut % encoded.len();
            let prefix = &encoded[..cut];
            prop_assert_eq!(Frame::decode(prefix).unwrap_err(), WireError::Truncated);
            prop_assert!(
                Frame::decode_prefix(prefix).expect("truncation is not a stream error").is_none()
            );
            prop_assert!(
                FrameRef::decode_prefix(prefix).expect("truncation is not a stream error").is_none()
            );
        }

        /// Arbitrary garbage never panics: it decodes, truncates, or fails
        /// with a typed error.
        #[test]
        fn garbage_never_panics(raw in bytes(64)) {
            let _ = Frame::decode(&raw);
            let _ = Frame::decode_prefix(&raw);
            // The borrowed decoder is the same parser: same verdict.
            let borrowed = FrameRef::decode_prefix(&raw)
                .map(|decoded| decoded.map(|(frame, consumed)| (frame.into_owned(), consumed)));
            prop_assert_eq!(borrowed, Frame::decode_prefix(&raw));
        }

        /// A corrupt inner element count (pointing past the payload) is
        /// `Corrupt`, and the decoder never allocates the declared amount —
        /// the count is validated against the remaining payload bytes first.
        #[test]
        fn corrupt_counts_are_typed(seq in any::<u64>(), count in 16u32..u32::MAX) {
            // Hand-build a Round frame whose params count overruns the payload.
            let mut raw = Vec::new();
            let payload_len = 8 + 4; // seq + count, no elements
            raw.extend_from_slice(&(payload_len as u32).to_le_bytes());
            raw.push(0x03); // TAG_ROUND
            raw.extend_from_slice(&seq.to_le_bytes());
            raw.extend_from_slice(&count.to_le_bytes());
            prop_assert!(
                matches!(Frame::decode(&raw), Err(WireError::Corrupt { .. })),
                "a count past the payload must be Corrupt"
            );
            prop_assert!(
                matches!(FrameRef::decode_prefix(&raw), Err(WireError::Corrupt { .. })),
                "a count past the payload must be Corrupt to the borrowed decoder too"
            );
        }
    }

    #[test]
    fn oversized_header_is_rejected_before_allocation() {
        // A header declaring more than the cap fails immediately — even
        // though only the 5 header bytes exist, and even under the streaming
        // decode (waiting for more bytes could never make it valid).
        let mut raw = Vec::new();
        raw.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        raw.push(0x03);
        assert_eq!(
            Frame::decode(&raw).unwrap_err(),
            WireError::Oversized {
                declared: u64::from(MAX_FRAME_LEN) + 1
            }
        );
        assert!(Frame::decode_prefix(&raw).is_err());
    }

    #[test]
    fn unknown_tag_is_typed() {
        let mut raw = Vec::new();
        raw.extend_from_slice(&0u32.to_le_bytes());
        raw.push(0x7f);
        assert_eq!(
            Frame::decode(&raw).unwrap_err(),
            WireError::UnknownTag { tag: 0x7f }
        );
    }

    #[test]
    fn wrong_magic_is_typed() {
        // A Hello carrying the wrong magic is a foreign peer, not a version
        // mismatch.
        let mut raw = Frame::Hello {
            version: VERSION,
            encodings: Vec::new(),
        }
        .encode();
        raw[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&0xdead_beefu32.to_le_bytes());
        assert_eq!(
            Frame::decode(&raw).unwrap_err(),
            WireError::BadMagic { got: 0xdead_beef }
        );
    }

    #[test]
    fn trailing_payload_bytes_are_corrupt() {
        // A Shutdown frame declaring a 1-byte payload: the payload is not
        // consumed by the (empty) frame body → Corrupt.
        let raw = [1u32.to_le_bytes().as_slice(), &[0x07, 0x00]].concat();
        assert!(matches!(
            Frame::decode(&raw),
            Err(WireError::Corrupt { .. })
        ));
    }

    #[test]
    fn default_extension_fields_stay_byte_identical() {
        // The wire-compression extension fields (Hello capabilities,
        // Handshake encoding, RoundDone wire_error) are only written when
        // non-default, so default frames keep the exact pre-compression
        // layout: an empty-capability Hello is magic(4) + version(2),
        // nothing more.
        let hello = Frame::Hello {
            version: VERSION,
            encodings: Vec::new(),
        }
        .encode();
        assert_eq!(hello.len(), HEADER_LEN + 4 + 2);
        // And a lossless RoundDone is seq(8) + worker(4) + compute(8).
        let done = Frame::RoundDone {
            seq: 7,
            worker: 3,
            compute_seconds: 0.25,
            wire_error: None,
        }
        .encode();
        assert_eq!(done.len(), HEADER_LEN + 8 + 4 + 8);
    }

    #[test]
    fn unknown_handshake_encoding_is_typed() {
        let h = Handshake {
            worker: 0,
            num_params: 4,
            chunk_len: 2,
            ranges: vec![(0, 4)],
            coefficients: vec![1.0],
            behavior: BehaviorSpec {
                extra_delay_micros: 0,
                throttle: None,
                throttle_step: None,
                fail_from: None,
            },
            model: ModelSpec::Linear { dim: 4 },
            dataset: DatasetSpec {
                x: vec![],
                targets: TargetsSpec::Regression(vec![]),
                dim: 1,
            },
            encoding: PayloadEncoding::Int8,
        };
        // A non-default encoding rides as the final payload byte; a value
        // this build does not implement must be a typed rejection, never a
        // silent f64 fallback.
        let mut raw = Frame::Handshake(h).encode();
        assert_eq!(*raw.last().unwrap(), PayloadEncoding::Int8.to_byte());
        *raw.last_mut().unwrap() = 0x09;
        assert_eq!(
            Frame::decode(&raw).unwrap_err(),
            WireError::UnknownEncoding { value: 0x09 }
        );
    }

    #[test]
    fn unknown_chunk_encoding_is_typed() {
        let mut raw = Frame::EncodedChunk {
            seq: 1,
            worker: 0,
            offset: 0,
            total: 4,
            encoding: PayloadEncoding::Int8,
            bytes: vec![0xAA; 17],
        }
        .encode();
        // Payload layout: seq(8) worker(4) offset(4) total(4) encoding(1).
        let idx = HEADER_LEN + 8 + 4 + 4 + 4;
        assert_eq!(raw[idx], PayloadEncoding::Int8.to_byte());
        // 1 and 2 are the retired f32 / bf16 bytes: a chunk from a peer
        // that still sends them is as unknown as any other byte.
        for value in [1, 2, 0x7f] {
            raw[idx] = value;
            assert_eq!(
                Frame::decode(&raw).unwrap_err(),
                WireError::UnknownEncoding { value }
            );
        }
    }

    #[test]
    fn presence_byte_other_than_01_is_corrupt() {
        // Corrupt a Handshake's throttle presence byte (2 is not a valid
        // option encoding).
        let h = Handshake {
            worker: 0,
            num_params: 4,
            chunk_len: 2,
            ranges: vec![(0, 4)],
            coefficients: vec![1.0],
            behavior: BehaviorSpec {
                extra_delay_micros: 0,
                throttle: None,
                throttle_step: None,
                fail_from: None,
            },
            model: ModelSpec::Linear { dim: 4 },
            dataset: DatasetSpec {
                x: vec![],
                targets: TargetsSpec::Regression(vec![]),
                dim: 1,
            },
            encoding: PayloadEncoding::F64,
        };
        let mut raw = Frame::Handshake(h).encode();
        // Payload layout: worker(4) num_params(4) chunk_len(4) ranges(4+8)
        // coefficients(4+8) delay(8) [throttle presence byte].
        let idx = HEADER_LEN + 4 + 4 + 4 + (4 + 8) + (4 + 8) + 8;
        assert_eq!(raw[idx], 0, "expected the throttle presence byte");
        raw[idx] = 2;
        assert!(matches!(
            Frame::decode(&raw),
            Err(WireError::Corrupt { .. })
        ));
    }
}
