//! The `WireCodec` trait and its two backends: the lossless `f64`
//! baseline and int8 quantization.
//!
//! A codec turns a chunk of `f64` coded-gradient elements into wire
//! bytes and back. Encoding is deterministic (two encodes of the same
//! chunk produce identical bytes on every platform — rounding is
//! explicit arithmetic, never `round()`-to-current-mode, and a signed
//! zero never depends on element order), decoding is total over
//! adversarial bytes (typed [`CommError`], never a panic), and both
//! directions reuse caller-owned buffers so the steady-state hot path
//! performs no allocation. Both encoders write a pre-sized slice; int8
//! validates with a flag and finds the offending index by a rescan on
//! the failure path only.
//!
//! Layouts (all little-endian):
//!
//! | codec       | payload                                    | bytes |
//! |-------------|--------------------------------------------|-------|
//! | `F64Raw`    | `f64` per element                          | 8n    |
//! | `Int8Quant` | `[lo: f64][scale: f64][code: u8 x n]`      | 16+n  |

use crate::encoding::PayloadEncoding;
use crate::error::CommError;

/// Compresses and decompresses coded-gradient chunks for the wire.
///
/// Implementations must be deterministic and total: the same input
/// chunk always yields the same bytes, and arbitrary input bytes are
/// either decoded or rejected with a typed error.
pub trait WireCodec {
    /// The wire encoding this codec produces.
    fn encoding(&self) -> PayloadEncoding;

    /// Encodes `src` into `out` (cleared first; capacity is reused
    /// across calls, so steady-state encoding allocates nothing).
    fn encode_into(&self, src: &[f64], out: &mut Vec<u8>) -> Result<(), CommError>;

    /// The number of elements `bytes` decodes to, or a typed error if
    /// the payload is structurally invalid.
    fn decoded_len(&self, bytes: &[u8]) -> Result<usize, CommError>;

    /// Decodes `bytes` into `out`, whose length must equal
    /// [`WireCodec::decoded_len`].
    fn decode_into(&self, bytes: &[u8], out: &mut [f64]) -> Result<(), CommError>;

    /// Exact encoded size in bytes for an `n`-element chunk.
    fn encoded_len(&self, n: usize) -> usize;
}

fn reject_empty(src: &[f64]) -> Result<(), CommError> {
    if src.is_empty() {
        Err(CommError::EmptyChunk)
    } else {
        Ok(())
    }
}

fn check_out_len(expected: usize, got: usize) -> Result<(), CommError> {
    if expected == 0 {
        Err(CommError::EmptyChunk)
    } else if expected != got {
        Err(CommError::LengthMismatch { expected, got })
    } else {
        Ok(())
    }
}

/// Identity codec: full-width `f64` elements, byte-for-byte what the
/// worker computed. Exists so benches and differential harnesses can
/// treat the baseline uniformly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct F64Raw;

impl WireCodec for F64Raw {
    fn encoding(&self) -> PayloadEncoding {
        PayloadEncoding::F64
    }

    fn encode_into(&self, src: &[f64], out: &mut Vec<u8>) -> Result<(), CommError> {
        reject_empty(src)?;
        out.resize(src.len() * 8, 0);
        for (dst, &x) in out.chunks_exact_mut(8).zip(src) {
            dst.copy_from_slice(&x.to_le_bytes());
        }
        Ok(())
    }

    fn decoded_len(&self, bytes: &[u8]) -> Result<usize, CommError> {
        if !bytes.len().is_multiple_of(8) {
            return Err(CommError::Corrupt {
                what: "f64 payload length is not a multiple of 8",
            });
        }
        Ok(bytes.len() / 8)
    }

    fn decode_into(&self, bytes: &[u8], out: &mut [f64]) -> Result<(), CommError> {
        check_out_len(self.decoded_len(bytes)?, out.len())?;
        for (dst, raw) in out.iter_mut().zip(bytes.chunks_exact(8)) {
            let mut le = [0u8; 8];
            le.copy_from_slice(raw);
            *dst = f64::from_le_bytes(le);
        }
        Ok(())
    }

    fn encoded_len(&self, n: usize) -> usize {
        n * 8
    }
}

/// Per-chunk affine int8 quantization (~8x for large chunks): the
/// chunk ships a 16-byte `[lo, scale]` header followed by one byte per
/// element, `value = lo + code * scale`. Codes are computed with
/// explicit `floor(x + 0.5)` arithmetic so encoding is bit-identical
/// across platforms, and `lo` / `hi` are the chunk's IEEE 754-2019
/// `minimum` / `maximum` (`-0.0` orders below `+0.0`), so the header
/// does not depend on element order. Non-finite inputs are rejected (an
/// affine grid cannot carry them), and the worst-case error is
/// `scale / 2` — half a grid step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Int8Quant;

const INT8_HEADER: usize = 16;

/// Independent running minima / maxima of the grid scan: one chain
/// would serialize on the compare-select latency.
const SCAN_LANES: usize = 4;

/// The branch-free range scan of one int8 chunk. NaN never enters `lo`
/// or `hi` (both comparisons are false), so the lanes also sum the
/// elements: the sum is non-finite whenever an element is. It can
/// overflow over finite elements too — the flag only sends
/// [`GridScan::finish`] to its rescan, which decides.
struct GridScan {
    lo: [f64; SCAN_LANES],
    hi: [f64; SCAN_LANES],
    sum: [f64; SCAN_LANES],
}

impl GridScan {
    fn new() -> GridScan {
        GridScan {
            lo: [f64::INFINITY; SCAN_LANES],
            hi: [f64::NEG_INFINITY; SCAN_LANES],
            sum: [0.0; SCAN_LANES],
        }
    }

    #[inline(always)]
    fn see(&mut self, lane: usize, x: f64) {
        self.lo[lane] = if x < self.lo[lane] { x } else { self.lo[lane] };
        self.hi[lane] = if x > self.hi[lane] { x } else { self.hi[lane] };
        self.sum[lane] += x;
    }

    /// The `(lo, scale)` header of the scanned chunk `src`, or the error
    /// an element-by-element scan reports: the first non-finite element,
    /// else a range that overflows `f64`.
    fn finish(self, src: &[f64]) -> Result<(f64, f64), CommError> {
        if !self.sum.into_iter().sum::<f64>().is_finite() {
            if let Some(index) = src.iter().position(|x| !x.is_finite()) {
                return Err(CommError::NonFinite { index });
            }
        }
        let mut lo = self.lo.into_iter().fold(f64::INFINITY, f64::min);
        let mut hi = self.hi.into_iter().fold(f64::NEG_INFINITY, f64::max);
        // Which zero a comparison keeps depends on the order it met
        // them in. A zero minimum means every element is >= -0.0, so a
        // set sign bit is a -0.0 and the minimum; mirrored for `hi`.
        if lo == 0.0 {
            let negative = src.iter().any(|x| x.is_sign_negative());
            lo = if negative { -0.0 } else { 0.0 };
        }
        if hi == 0.0 {
            let positive = src.iter().any(|x| x.is_sign_positive());
            hi = if positive { 0.0 } else { -0.0 };
        }
        let scale = (hi - lo) / 255.0;
        if !scale.is_finite() {
            // The chunk's dynamic range itself overflows f64.
            return Err(CommError::OutOfRange { index: 0 });
        }
        Ok((lo, scale))
    }
}

/// Sizes `out` for an `n`-element int8 chunk, writes its header and
/// returns the code bytes.
fn int8_frame(out: &mut Vec<u8>, n: usize, lo: f64, scale: f64) -> &mut [u8] {
    out.resize(INT8_HEADER + n, 0);
    let (header, codes) = out.split_at_mut(INT8_HEADER);
    header[..8].copy_from_slice(&lo.to_le_bytes());
    header[8..].copy_from_slice(&scale.to_le_bytes());
    codes
}

/// `floor((x - lo) / scale + 0.5).clamp(0, 255)`: the operand is at
/// least 0.5 and never NaN (`x >= lo`, `scale > 0`, all finite), where
/// the saturating, truncating cast is exactly that. A constant chunk
/// (`scale == 0`) is all zero codes. The division stays a division: a
/// reciprocal multiply changes codes.
#[inline(always)]
fn int8_code(x: f64, lo: f64, scale: f64) -> u8 {
    if scale == 0.0 {
        0
    } else {
        ((x - lo) / scale + 0.5) as u8
    }
}

/// The value a code decodes to.
#[inline(always)]
fn int8_value(code: u8, lo: f64, scale: f64) -> f64 {
    lo + f64::from(code) * scale
}

/// [`AnyWireCodec::encode_feedback`] for `f64`: one pass folds
/// `residual` into `coded` and writes the wire bytes. The bytes carry the
/// element exactly, so the residual left is `x − x`: `+0.0` for a finite
/// element, NaN for `±∞` and NaN.
fn f64_feedback(coded: &mut [f64], residual: &mut [f64], out: &mut Vec<u8>) -> f64 {
    out.resize(coded.len() * 8, 0);
    let mut err_sq = 0.0;
    for ((dst, c), r) in out
        .chunks_exact_mut(8)
        .zip(coded.iter_mut())
        .zip(residual.iter_mut())
    {
        *c += *r;
        let bytes = c.to_le_bytes();
        dst.copy_from_slice(&bytes);
        let d = *c - f64::from_le_bytes(bytes);
        *r = d;
        err_sq += d * d;
    }
    err_sq
}

/// [`AnyWireCodec::encode_feedback`] for int8: pass 1 folds `residual`
/// into `coded` under the grid scan, pass 2 writes the codes and what
/// they failed to carry.
fn int8_feedback(
    coded: &mut [f64],
    residual: &mut [f64],
    out: &mut Vec<u8>,
) -> Result<f64, CommError> {
    let mut scan = GridScan::new();
    let (lanes, tail) = coded.as_chunks_mut::<SCAN_LANES>();
    let (carried, carried_tail) = residual.as_chunks::<SCAN_LANES>();
    for (c, r) in lanes.iter_mut().zip(carried) {
        for lane in 0..SCAN_LANES {
            c[lane] += r[lane];
            scan.see(lane, c[lane]);
        }
    }
    for (c, r) in tail.iter_mut().zip(carried_tail) {
        *c += r;
        scan.see(0, *c);
    }
    let (lo, scale) = scan.finish(coded)?;
    let codes = int8_frame(out, coded.len(), lo, scale);
    let mut err_sq = 0.0;
    for ((code, &x), r) in codes.iter_mut().zip(coded.iter()).zip(residual.iter_mut()) {
        *code = int8_code(x, lo, scale);
        let d = x - int8_value(*code, lo, scale);
        *r = d;
        err_sq += d * d;
    }
    Ok(err_sq)
}

impl WireCodec for Int8Quant {
    fn encoding(&self) -> PayloadEncoding {
        PayloadEncoding::Int8
    }

    fn encode_into(&self, src: &[f64], out: &mut Vec<u8>) -> Result<(), CommError> {
        reject_empty(src)?;
        let mut scan = GridScan::new();
        let (lanes, tail) = src.as_chunks::<SCAN_LANES>();
        for c in lanes {
            for (lane, &x) in c.iter().enumerate() {
                scan.see(lane, x);
            }
        }
        for &x in tail {
            scan.see(0, x);
        }
        let (lo, scale) = scan.finish(src)?;
        for (code, &x) in int8_frame(out, src.len(), lo, scale).iter_mut().zip(src) {
            *code = int8_code(x, lo, scale);
        }
        Ok(())
    }

    fn decoded_len(&self, bytes: &[u8]) -> Result<usize, CommError> {
        if bytes.is_empty() {
            return Err(CommError::EmptyChunk);
        }
        if bytes.len() <= INT8_HEADER {
            return Err(CommError::Corrupt {
                what: "int8 payload shorter than its header plus one code",
            });
        }
        Ok(bytes.len() - INT8_HEADER)
    }

    fn decode_into(&self, bytes: &[u8], out: &mut [f64]) -> Result<(), CommError> {
        check_out_len(self.decoded_len(bytes)?, out.len())?;
        let mut le = [0u8; 8];
        le.copy_from_slice(&bytes[..8]);
        let lo = f64::from_le_bytes(le);
        le.copy_from_slice(&bytes[8..16]);
        let scale = f64::from_le_bytes(le);
        if !lo.is_finite() || !scale.is_finite() {
            return Err(CommError::Corrupt {
                what: "non-finite int8 quantization header",
            });
        }
        if scale < 0.0 {
            return Err(CommError::Corrupt {
                what: "negative int8 quantization scale",
            });
        }
        for (dst, &code) in out.iter_mut().zip(&bytes[INT8_HEADER..]) {
            *dst = int8_value(code, lo, scale);
        }
        Ok(())
    }

    fn encoded_len(&self, n: usize) -> usize {
        INT8_HEADER + n
    }
}

/// A runtime-selected codec: one value per [`PayloadEncoding`], so the
/// net layer can negotiate the encoding per link and hold the codec in
/// a field without generics or boxing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnyWireCodec {
    /// Full-width baseline.
    F64(F64Raw),
    /// Affine int8.
    Int8(Int8Quant),
}

impl AnyWireCodec {
    /// The codec implementing `encoding`.
    pub fn for_encoding(encoding: PayloadEncoding) -> AnyWireCodec {
        match encoding {
            PayloadEncoding::F64 => AnyWireCodec::F64(F64Raw),
            PayloadEncoding::Int8 => AnyWireCodec::Int8(Int8Quant),
        }
    }

    /// The worker's whole lossy reply path: folds the carried
    /// `residual` into `coded`, writes the wire bytes into `out` and
    /// leaves in `residual` what they failed to carry (`intended -
    /// shipped`, with `shipped` exactly what [`WireCodec::decode_into`]
    /// reconstructs). Int8 validates the folded chunk in a first pass.
    /// Returns the chunk's squared L2 quantization error, summed in
    /// element order. On a validation `Err` `coded` is folded and
    /// `residual` is untouched.
    pub fn encode_feedback(
        &self,
        coded: &mut [f64],
        residual: &mut [f64],
        out: &mut Vec<u8>,
    ) -> Result<f64, CommError> {
        if residual.len() != coded.len() {
            return Err(CommError::LengthMismatch {
                expected: coded.len(),
                got: residual.len(),
            });
        }
        reject_empty(coded)?;
        match self {
            AnyWireCodec::F64(_) => Ok(f64_feedback(coded, residual, out)),
            AnyWireCodec::Int8(_) => int8_feedback(coded, residual, out),
        }
    }
}

impl WireCodec for AnyWireCodec {
    fn encoding(&self) -> PayloadEncoding {
        match self {
            AnyWireCodec::F64(c) => c.encoding(),
            AnyWireCodec::Int8(c) => c.encoding(),
        }
    }

    fn encode_into(&self, src: &[f64], out: &mut Vec<u8>) -> Result<(), CommError> {
        match self {
            AnyWireCodec::F64(c) => c.encode_into(src, out),
            AnyWireCodec::Int8(c) => c.encode_into(src, out),
        }
    }

    fn decoded_len(&self, bytes: &[u8]) -> Result<usize, CommError> {
        match self {
            AnyWireCodec::F64(c) => c.decoded_len(bytes),
            AnyWireCodec::Int8(c) => c.decoded_len(bytes),
        }
    }

    fn decode_into(&self, bytes: &[u8], out: &mut [f64]) -> Result<(), CommError> {
        match self {
            AnyWireCodec::F64(c) => c.decode_into(bytes, out),
            AnyWireCodec::Int8(c) => c.decode_into(bytes, out),
        }
    }

    fn encoded_len(&self, n: usize) -> usize {
        match self {
            AnyWireCodec::F64(c) => c.encoded_len(n),
            AnyWireCodec::Int8(c) => c.encoded_len(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codecs() -> [AnyWireCodec; 2] {
        PayloadEncoding::ALL.map(AnyWireCodec::for_encoding)
    }

    #[test]
    fn empty_chunks_are_typed_errors_everywhere() {
        let mut out = Vec::new();
        for codec in codecs() {
            assert_eq!(codec.encode_into(&[], &mut out), Err(CommError::EmptyChunk));
            assert_eq!(codec.decode_into(&[], &mut []), Err(CommError::EmptyChunk));
        }
    }

    #[test]
    fn f64_round_trip_is_exact() {
        let src = [1.5, -2.25, 0.0, -0.0, 1e300, f64::MIN_POSITIVE];
        let mut out = Vec::new();
        let mut back = [0.0; 6];
        F64Raw.encode_into(&src, &mut out).unwrap();
        assert_eq!(out.len(), F64Raw.encoded_len(src.len()));
        F64Raw.decode_into(&out, &mut back).unwrap();
        for (a, b) in src.iter().zip(back.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn int8_constant_chunk_decodes_exactly() {
        let src = [3.25; 9];
        let mut out = Vec::new();
        let mut back = [0.0; 9];
        Int8Quant.encode_into(&src, &mut out).unwrap();
        assert_eq!(out.len(), 16 + 9);
        Int8Quant.decode_into(&out, &mut back).unwrap();
        assert_eq!(back, src);
    }

    #[test]
    fn int8_rejects_non_finite_input() {
        let mut out = Vec::new();
        assert_eq!(
            Int8Quant.encode_into(&[1.0, f64::NAN], &mut out),
            Err(CommError::NonFinite { index: 1 })
        );
        assert_eq!(
            Int8Quant.encode_into(&[f64::INFINITY], &mut out),
            Err(CommError::NonFinite { index: 0 })
        );
    }

    #[test]
    fn int8_header_zero_signs_do_not_depend_on_element_order() {
        // IEEE 754-2019 minimum / maximum: -0.0 orders below +0.0, at
        // every rotation and at every length around the scan's lanes.
        let header = |src: &[f64]| {
            let mut out = Vec::new();
            Int8Quant.encode_into(src, &mut out).unwrap();
            let word = |at: usize| u64::from_le_bytes(out[at..at + 8].try_into().unwrap());
            (word(0), word(8))
        };
        let neg_zero = (-0.0f64).to_bits();
        for n in 3..=2 * SCAN_LANES + 3 {
            for rotate in 0..n {
                let mut low = vec![1.0; n];
                (low[0], low[1]) = (0.0, -0.0);
                low.rotate_left(rotate);
                assert_eq!(header(&low), (neg_zero, (1.0f64 / 255.0).to_bits()));

                let mut high = vec![-1.0; n];
                (high[0], high[1]) = (-0.0, 0.0);
                high.rotate_left(rotate);
                let (lo, scale) = header(&high);
                assert_eq!(lo, (-1.0f64).to_bits());
                // hi = +0.0: `+0.0 - -1.0`; a -0.0 maximum gives the
                // same scale, so pin the all-zero chunk too.
                assert_eq!(scale, (1.0f64 / 255.0).to_bits());

                let mut zeros = vec![0.0; n];
                zeros[0] = -0.0;
                zeros.rotate_left(rotate);
                assert_eq!(header(&zeros), (neg_zero, 0));
            }
            assert_eq!(header(&vec![0.0; n]), (0, 0));
            assert_eq!(header(&vec![-0.0; n]), (neg_zero, 0));
        }
    }

    #[test]
    fn f64_carries_non_finite_elements() {
        // Unlike int8, the lossless baseline never rejects an element:
        // NaN and infinities ship as they are, and the feedback residual
        // they leave is `x − x`, NaN.
        let src = [f64::NAN, f64::NEG_INFINITY, f64::INFINITY, -0.0];
        let mut out = Vec::new();
        let mut back = [0.0; 4];
        F64Raw.encode_into(&src, &mut out).unwrap();
        F64Raw.decode_into(&out, &mut back).unwrap();
        for (a, b) in src.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let mut coded = src;
        let mut residual = [0.0; 4];
        let err_sq = AnyWireCodec::F64(F64Raw)
            .encode_feedback(&mut coded, &mut residual, &mut out)
            .unwrap();
        assert!(err_sq.is_nan());
        assert!(residual[..3].iter().all(|r| r.is_nan()));
        assert_eq!(residual[3].to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn length_mismatch_is_typed() {
        let mut out = Vec::new();
        F64Raw.encode_into(&[1.0, 2.0], &mut out).unwrap();
        let mut short = [0.0; 1];
        assert_eq!(
            F64Raw.decode_into(&out, &mut short),
            Err(CommError::LengthMismatch {
                expected: 2,
                got: 1
            })
        );
    }

    #[test]
    fn corrupt_payloads_are_typed() {
        assert!(matches!(
            F64Raw.decoded_len(&[0, 1, 2]),
            Err(CommError::Corrupt { .. })
        ));
        assert!(matches!(
            Int8Quant.decoded_len(&[0; 16]),
            Err(CommError::Corrupt { .. })
        ));
        let mut bad = Vec::new();
        Int8Quant.encode_into(&[1.0, 2.0], &mut bad).unwrap();
        bad[8..16].copy_from_slice(&f64::NAN.to_le_bytes());
        let mut back = [0.0; 2];
        assert!(matches!(
            Int8Quant.decode_into(&bad, &mut back),
            Err(CommError::Corrupt { .. })
        ));
    }

    #[test]
    fn encoding_is_deterministic() {
        let src: Vec<f64> = (0..257).map(|i| (i as f64 * 0.731).sin() * 3.7).collect();
        for codec in codecs() {
            let mut a = Vec::new();
            let mut b = Vec::new();
            codec.encode_into(&src, &mut a).unwrap();
            codec.encode_into(&src, &mut b).unwrap();
            assert_eq!(a, b, "{}", codec.encoding());
        }
    }
}
