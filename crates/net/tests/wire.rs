//! Wire-protocol properties: every frame type round-trips bitwise, and
//! every malformed byte sequence — truncated, corrupt, oversized,
//! unknown-tag, wrong-magic — maps to a typed [`WireError`] without
//! panicking and without allocating beyond the (bounded) declared length.

use hetgc_net::{
    BehaviorSpec, DatasetSpec, Frame, FrameRef, Handshake, ModelSpec, PayloadEncoding, TargetsSpec,
    WireError, HEADER_LEN, MAX_FRAME_LEN, VERSION,
};
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
    prop::collection::vec(0u32..256, 0..max).prop_map(|v| v.into_iter().map(|x| x as u8).collect())
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
    // The PR-10 extension fields (Hello capabilities, Handshake
    // encoding, RoundDone wire_error) are only written when non-default,
    // so default frames keep the exact pre-compression layout: an
    // empty-capability Hello is magic(4) + version(2), nothing more.
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
