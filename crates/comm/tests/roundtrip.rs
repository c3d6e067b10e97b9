//! Codec round-trip properties: every backend honors its documented
//! error bound over arbitrary finite chunks, every rejection is a typed
//! [`CommError`] (never a panic, never a silent wrong answer), and
//! encoding is deterministic byte-for-byte.

use hetgc_comm::{
    AnyWireCodec, CommError, ErrorFeedback, F64Raw, Int8Quant, PayloadEncoding, WireCodec,
};
use proptest::prelude::*;

/// Strategy: finite chunk values spanning the magnitudes the coded data
/// plane actually ships (gradients and their linear combinations).
fn chunk(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, 1..max_len)
}

fn roundtrip(codec: &AnyWireCodec, src: &[f64]) -> Vec<f64> {
    let mut wire = Vec::new();
    let mut back = vec![0.0; src.len()];
    codec
        .encode_into(src, &mut wire)
        .expect("finite chunk encodes");
    assert_eq!(
        wire.len(),
        codec.encoded_len(src.len()),
        "{} encoded_len must be exact",
        codec.encoding()
    );
    assert_eq!(codec.decoded_len(&wire), Ok(src.len()));
    codec
        .decode_into(&wire, &mut back)
        .expect("own bytes decode");
    back
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `F64Raw` is the identity: bitwise, including signed zeros.
    #[test]
    fn f64_round_trip_is_bitwise(src in chunk(64)) {
        let back = roundtrip(&AnyWireCodec::F64(F64Raw), &src);
        for (a, b) in src.iter().zip(&back) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// `Int8Quant`'s documented worst case is half a grid step,
    /// `scale / 2` with `scale = (hi - lo) / 255` — per element, for any
    /// finite chunk. The squared error the worker's entry reports must
    /// equal the actual round-trip error.
    #[test]
    fn int8_error_is_within_half_a_grid_step(src in chunk(128)) {
        let codec = AnyWireCodec::Int8(Int8Quant);
        let mut wire = Vec::new();
        let mut back = vec![0.0; src.len()];
        let mut residual = vec![0.0; src.len()];
        let err_sq = codec
            .encode_feedback(&mut src.clone(), &mut residual, &mut wire)
            .expect("finite chunk encodes");
        codec.decode_into(&wire, &mut back).expect("own bytes decode");

        let lo = src.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = src.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let scale = (hi - lo) / 255.0;
        let tol = 0.5 * scale + 1e-9 * (1.0 + hi.abs().max(lo.abs()));
        let mut actual_sq = 0.0;
        for (a, b) in src.iter().zip(&back) {
            let d = a - b;
            prop_assert!(d.abs() <= tol, "|{a} - {b}| > {tol} (scale {scale})");
            actual_sq += d * d;
        }
        prop_assert!((err_sq - actual_sq).abs() <= 1e-12 * (1.0 + actual_sq));
    }

    /// Two encodes of the same chunk produce identical bytes, for every
    /// backend — negotiation can assume the wire image is a pure
    /// function of the chunk.
    #[test]
    fn every_codec_encodes_deterministically(src in chunk(64)) {
        for encoding in PayloadEncoding::ALL {
            let codec = AnyWireCodec::for_encoding(encoding);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            codec.encode_into(&src, &mut a).unwrap();
            codec.encode_into(&src, &mut b).unwrap();
            prop_assert_eq!(&a, &b, "{} is not deterministic", encoding);
        }
    }

    /// A destination slice of the wrong length is a typed
    /// `LengthMismatch` for every backend, never a partial write.
    #[test]
    fn length_mismatch_is_typed_everywhere(src in chunk(32)) {
        for encoding in PayloadEncoding::ALL {
            let codec = AnyWireCodec::for_encoding(encoding);
            let mut wire = Vec::new();
            codec.encode_into(&src, &mut wire).unwrap();
            let mut long = vec![0.0; src.len() + 1];
            prop_assert_eq!(
                codec.decode_into(&wire, &mut long),
                Err(CommError::LengthMismatch { expected: src.len(), got: src.len() + 1 })
            );
        }
    }
}

#[test]
fn empty_chunks_are_typed_rejections_everywhere() {
    for encoding in PayloadEncoding::ALL {
        let codec = AnyWireCodec::for_encoding(encoding);
        let mut wire = Vec::new();
        assert_eq!(
            codec.encode_into(&[], &mut wire),
            Err(CommError::EmptyChunk),
            "{encoding}"
        );
        assert_eq!(codec.decode_into(&[], &mut []), Err(CommError::EmptyChunk));
    }
}

#[test]
fn int8_rejects_every_non_finite_with_its_index() {
    let mut wire = Vec::new();
    for (bad, index) in [
        (vec![f64::NAN], 0),
        (vec![0.0, f64::INFINITY], 1),
        (vec![0.0, 1.0, f64::NEG_INFINITY], 2),
    ] {
        assert_eq!(
            Int8Quant.encode_into(&bad, &mut wire),
            Err(CommError::NonFinite { index })
        );
    }
}

#[test]
fn narrowing_overflow_is_out_of_range_not_infinity() {
    // int8 narrows each element to a one-byte code on the chunk's grid.
    // Every element here is finite, but `hi - lo` overflows f64: the grid
    // step would be infinite and every code would decode to NaN or
    // infinity, so the encoder rejects the chunk instead.
    let mut wire = Vec::new();
    assert_eq!(
        Int8Quant.encode_into(&[0.5, 1.5e308, -1.5e308], &mut wire),
        Err(CommError::OutOfRange { index: 0 })
    );
    // The lossless baseline carries the same chunk, and non-finite
    // elements, bit for bit.
    let src = [0.5, 1.5e308, -1.5e308, f64::NAN, f64::NEG_INFINITY];
    let back = roundtrip(&AnyWireCodec::F64(F64Raw), &src);
    for (a, b) in src.iter().zip(&back) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn truncated_and_corrupt_payloads_are_typed() {
    // A length that is not a whole number of f64 elements.
    for len in [1, 3, 9] {
        assert!(matches!(
            F64Raw.decoded_len(&vec![0; len]),
            Err(CommError::Corrupt { .. })
        ));
    }
    // An int8 payload must carry its 16-byte header plus at least one code.
    assert!(matches!(
        Int8Quant.decoded_len(&[0; 16]),
        Err(CommError::Corrupt { .. })
    ));
    // A forged non-finite or negative-scale header is corrupt, not NaN soup.
    let mut wire = Vec::new();
    Int8Quant.encode_into(&[1.0, 2.0, 3.0], &mut wire).unwrap();
    let mut back = [0.0; 3];
    let mut forged = wire.clone();
    forged[8..16].copy_from_slice(&f64::INFINITY.to_le_bytes());
    assert!(matches!(
        Int8Quant.decode_into(&forged, &mut back),
        Err(CommError::Corrupt { .. })
    ));
    let mut negative = wire.clone();
    negative[8..16].copy_from_slice(&(-1.0f64).to_le_bytes());
    assert!(matches!(
        Int8Quant.decode_into(&negative, &mut back),
        Err(CommError::Corrupt { .. })
    ));
}

#[test]
fn exact_codec_leaves_error_feedback_empty() {
    // With a lossless codec the EF accumulator must stay identically
    // zero — the lossy gating in the worker relies on that.
    let codec = AnyWireCodec::F64(F64Raw);
    let mut ef = ErrorFeedback::new(4);
    let mut wire = Vec::new();
    for round in 0..5 {
        let mut coded = [1.5, -0.25, 1e-9, round as f64];
        let err_sq = codec
            .encode_feedback(&mut coded, ef.residual_mut(), &mut wire)
            .unwrap();
        assert_eq!(err_sq, 0.0);
    }
    assert_eq!(ef.residual_norm(), 0.0);
}
