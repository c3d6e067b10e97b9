//! The encoders as they were before the two-pass kernels — one scalar,
//! early-returning loop per codec, and error feedback as three calls
//! (`apply`, `encode_roundtrip`, `absorb`) around a dequantized image —
//! kept as the reference the shipped code must equal bit for bit: wire
//! bytes, carried residual, `err_sq`, and the exact `Err`.

use crate::codec::{AnyWireCodec, WireCodec};
use crate::encoding::PayloadEncoding;
use crate::error::CommError;

/// `encode_into` of every codec, as it was.
pub(crate) fn encode_into(
    encoding: PayloadEncoding,
    src: &[f64],
    out: &mut Vec<u8>,
) -> Result<(), CommError> {
    if src.is_empty() {
        return Err(CommError::EmptyChunk);
    }
    match encoding {
        PayloadEncoding::F64 => {
            out.clear();
            for &x in src {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
        PayloadEncoding::Int8 => {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for (i, &x) in src.iter().enumerate() {
                if !x.is_finite() {
                    return Err(CommError::NonFinite { index: i });
                }
                lo = lo.min(x);
                hi = hi.max(x);
            }
            let scale = (hi - lo) / 255.0;
            if !scale.is_finite() {
                return Err(CommError::OutOfRange { index: 0 });
            }
            out.clear();
            out.extend_from_slice(&lo.to_le_bytes());
            out.extend_from_slice(&scale.to_le_bytes());
            if scale == 0.0 {
                out.resize(16 + src.len(), 0);
            } else {
                for &x in src {
                    let code = ((x - lo) / scale + 0.5).floor().clamp(0.0, 255.0);
                    out.push(code as u8);
                }
            }
        }
    }
    Ok(())
}

/// One error-feedback round, as it was: `ErrorFeedback::apply`, then
/// `AnyWireCodec::encode_roundtrip` into the `shipped` image, then
/// `ErrorFeedback::absorb`.
pub(crate) fn feedback_round(
    encoding: PayloadEncoding,
    coded: &mut [f64],
    residual: &mut [f64],
    out: &mut Vec<u8>,
) -> Result<f64, CommError> {
    for (c, r) in coded.iter_mut().zip(residual.iter()) {
        *c += r;
    }
    let mut shipped = vec![0.0; coded.len()];
    encode_into(encoding, coded, out)?;
    AnyWireCodec::for_encoding(encoding).decode_into(out, &mut shipped)?;
    let mut err_sq = 0.0;
    for (&sent, &got) in coded.iter().zip(shipped.iter()) {
        let d = sent - got;
        err_sq += d * d;
    }
    for ((r, i), s) in residual.iter_mut().zip(coded.iter()).zip(&shipped) {
        *r = i - s;
    }
    Ok(err_sq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Bit equality, with every NaN equal to every other (which payload
    /// a NaN-NaN subtraction keeps is the compiler's operand order).
    fn same(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    fn same_all(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(&a, &b)| same(a, b))
    }

    /// Wire equality. The one stated difference from the reference: an
    /// int8 header zero (`lo`, or the `scale` of an all-zero chunk)
    /// carries the IEEE `minimum` sign where the reference kept the
    /// first zero it met.
    fn same_wire(encoding: PayloadEncoding, new: &[u8], reference: &[u8]) -> bool {
        if encoding != PayloadEncoding::Int8 || new.len() != reference.len() {
            return new == reference;
        }
        let word = |bytes: &[u8], at: usize| {
            let bits = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
            // Drop the sign of a zero only.
            if bits << 1 == 0 {
                0
            } else {
                bits
            }
        };
        word(new, 0) == word(reference, 0)
            && word(new, 8) == word(reference, 8)
            && new[16..] == reference[16..]
    }

    const KINDS: u64 = 8;

    /// An `n`-element chunk of the given kind; every kind the kernels
    /// branch on or could round differently on.
    fn chunk(n: usize, seed: u64, kind: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let magnitude = 10f64.powi(rng.gen_range(0..13usize) as i32 - 6);
        let mut v: Vec<f64> = (0..n)
            .map(|_| rng.gen_range(-1.0..1.0) * magnitude)
            .collect();
        // Positions a lane-split scan could lose: first, last, and the
        // start of the tail that does not fill the lanes.
        let edge = |rng: &mut StdRng| {
            [0, n - 1, n - n % 4, n.saturating_sub(n % 8 + 1)][rng.gen_range(0..4usize)].min(n - 1)
        };
        match kind {
            // Gradient-like, a -0.0 somewhere inside the range.
            0 => {
                let at = edge(&mut rng);
                v[at] = -0.0;
            }
            // Constant chunk: scale == 0.
            1 => v.fill(magnitude),
            // A range whose `/ 255` underflows to zero or a subnormal.
            2 => {
                let step = [5e-324, 1e-322, f64::MIN_POSITIVE][rng.gen_range(0..3usize)];
                for x in v.iter_mut() {
                    *x = magnitude + step * rng.gen_range(0..300usize) as f64;
                }
                if rng.gen_range(0..2usize) == 0 {
                    for x in v.iter_mut() {
                        *x -= magnitude;
                    }
                }
            }
            // Two huge elements. Opposite signs: `hi - lo` overflows
            // f64, OutOfRange for int8. Same sign: a finite range whose
            // sum overflows.
            3 => {
                let (a, b) = (edge(&mut rng), edge(&mut rng));
                v[a] = 1.5e308;
                v[b] = if a == b || rng.gen_range(0..2usize) == 0 {
                    1.5e308
                } else {
                    -1.5e308
                };
            }
            // Elements on and one ulp either side of `code + 0.5` ties,
            // for a scale that divides exactly (3) and one that does
            // not (0.1).
            4 => {
                let (hi, scale) = [(765.0, 3.0), (25.5, 0.1)][rng.gen_range(0..2usize)];
                for x in v.iter_mut() {
                    let tie = (rng.gen_range(0..255usize) as f64 + 0.5) * scale;
                    *x = match rng.gen_range(0..3usize) {
                        0 => tie,
                        1 => f64::from_bits(tie.to_bits() - 1),
                        _ => f64::from_bits(tie.to_bits() + 1),
                    };
                }
                if n >= 2 {
                    v[0] = 0.0;
                    v[n - 1] = hi;
                }
            }
            // One non-finite element at an edge position.
            5 => {
                let at = edge(&mut rng);
                v[at] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..3usize)];
                if rng.gen_range(0..3usize) == 0 {
                    let again = edge(&mut rng);
                    v[again] = f64::NAN;
                }
            }
            // Large finite magnitudes around `f32::MAX`.
            6 => {
                let at = edge(&mut rng);
                v[at] = [
                    3.4e38,
                    -3.4e38,
                    3.389_531_389_251_535_5e38,
                    f64::from(f32::MAX),
                    3.402_823_567_797_336_6e38,
                    -1e39,
                ][rng.gen_range(0..6usize)];
            }
            // Plain gradient-like values.
            _ => {}
        }
        v
    }

    /// Runs `rounds` error-feedback rounds of `n`-element chunks through
    /// the shipped entry and the reference, state carried on both sides.
    fn assert_feedback_rounds_agree(n: usize, seed: u64, rounds: u64) -> Result<(), String> {
        for encoding in PayloadEncoding::ALL {
            let codec = AnyWireCodec::for_encoding(encoding);
            let (mut residual, mut residual_ref) = (vec![0.0; n], vec![0.0; n]);
            let (mut wire, mut wire_ref) = (Vec::new(), Vec::new());
            for round in 0..rounds {
                let kind = (seed + round) % KINDS;
                let mut coded = chunk(n, seed ^ (round << 32), kind);
                let mut coded_ref = coded.clone();
                let before = residual.clone();
                let got = codec.encode_feedback(&mut coded, &mut residual, &mut wire);
                let want =
                    feedback_round(encoding, &mut coded_ref, &mut residual_ref, &mut wire_ref);
                let context = format!("{encoding} n={n} seed={seed} round={round} kind={kind}");
                match (got, want) {
                    (Ok(got), Ok(want)) => {
                        if !same(got, want) {
                            return Err(format!("{context}: err_sq {got:e} != {want:e}"));
                        }
                        if !same_wire(encoding, &wire, &wire_ref) {
                            return Err(format!("{context}: wire bytes differ"));
                        }
                    }
                    (Err(got), Err(want)) => {
                        if got != want {
                            return Err(format!("{context}: {got:?} != {want:?}"));
                        }
                        if !same_all(&residual, &before) {
                            return Err(format!("{context}: Err touched the residual"));
                        }
                    }
                    (got, want) => return Err(format!("{context}: {got:?} != {want:?}")),
                }
                if !same_all(&coded, &coded_ref) {
                    return Err(format!("{context}: folded partial differs"));
                }
                if !same_all(&residual, &residual_ref) {
                    return Err(format!("{context}: residual differs"));
                }
                if kind == 5 {
                    // A carried NaN would mask every later round.
                    residual.fill(0.0);
                    residual_ref.fill(0.0);
                }
            }
        }
        Ok(())
    }

    fn assert_encode_agrees(src: &[f64], context: &str) -> Result<(), String> {
        for encoding in PayloadEncoding::ALL {
            let (mut wire, mut wire_ref) = (vec![0xAA; 7], Vec::new());
            let got = AnyWireCodec::for_encoding(encoding).encode_into(src, &mut wire);
            let want = encode_into(encoding, src, &mut wire_ref);
            if got != want {
                return Err(format!("{encoding} {context}: {got:?} != {want:?}"));
            }
            if got.is_ok() && !same_wire(encoding, &wire, &wire_ref) {
                return Err(format!("{encoding} {context}: wire bytes differ"));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn fused_feedback_equals_the_three_call_sequence(n in 1usize..=70, seed in any::<u64>()) {
            let outcome = assert_feedback_rounds_agree(n, seed >> 8, 2 * KINDS);
            prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }

        #[test]
        fn encoders_equal_the_scalar_loops(n in 1usize..=70, seed in any::<u64>()) {
            for kind in 0..KINDS {
                let outcome = assert_encode_agrees(
                    &chunk(n, seed, kind),
                    &format!("n={n} seed={seed} kind={kind}"),
                );
                prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
            }
        }
    }

    #[test]
    fn the_ledger_reply_length_agrees_over_carried_rounds() {
        for seed in 0..3 {
            assert_feedback_rounds_agree(4097, seed, 2 * KINDS).unwrap();
            for kind in 0..KINDS {
                let context = format!("n=4097 seed={seed} kind={kind}");
                assert_encode_agrees(&chunk(4097, seed, kind), &context).unwrap();
            }
        }
    }

    /// The differential tests above can only catch a rewrite their
    /// inputs discriminate: the tie chunk must code differently under a
    /// reciprocal multiply, and the reply-length chunk must sum
    /// differently when `err_sq` is split into lanes.
    #[test]
    fn inputs_discriminate_the_rewrites_that_are_not_bit_identical() {
        let src = chunk(4097, 2, 4);
        let mut wire = Vec::new();
        encode_into(PayloadEncoding::Int8, &src, &mut wire).unwrap();
        let lo = f64::from_le_bytes(wire[..8].try_into().unwrap());
        let scale = f64::from_le_bytes(wire[8..16].try_into().unwrap());
        let inverse = 1.0 / scale;
        let reciprocal: Vec<u8> = src
            .iter()
            .map(|x| ((x - lo) * inverse + 0.5).floor().clamp(0.0, 255.0) as u8)
            .collect();
        assert_ne!(reciprocal, wire[16..], "ties must expose a reciprocal");

        let mut coded = chunk(4097, 1, 7);
        let mut residual = vec![0.0; 4097];
        let err_sq =
            feedback_round(PayloadEncoding::Int8, &mut coded, &mut residual, &mut wire).unwrap();
        let mut lanes = [0.0f64; 4];
        for (i, d) in residual.iter().enumerate() {
            lanes[i % 4] += d * d;
        }
        let split = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
        assert_ne!(
            split.to_bits(),
            err_sq.to_bits(),
            "lanes must change the sum"
        );
    }
}
