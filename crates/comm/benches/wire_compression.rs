//! Bytes/round and quantize+dequantize throughput for every wire
//! encoding on a reference coded-gradient round.
//!
//! The reference round is one worker's coded partial for a
//! 65_536-parameter model, chunked the way `run_worker` streams it
//! (8_192-element chunks, the socket default). Besides timing, the
//! bench prints the exact bytes/round per encoding and FAILS (panics)
//! if `Int8Quant` saves less than 4x over the `f64` baseline — the
//! bench-smoke CI arm runs it with `--test` as a compression-ratio
//! regression gate.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use hetgc_comm::{AnyWireCodec, ErrorFeedback, PayloadEncoding, WireCodec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NUM_PARAMS: usize = 65_536;
const CHUNK_LEN: usize = 8_192;

/// A deterministic coded partial with gradient-like statistics: dense,
/// zero-centered, a few large coordinates per chunk.
fn reference_round() -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(0x10);
    (0..NUM_PARAMS)
        .map(|i| {
            let base: f64 = rng.gen_range(-1.0..1.0);
            if i % 997 == 0 {
                base * 40.0
            } else {
                base
            }
        })
        .collect()
}

/// Total wire bytes to ship `coded` in `CHUNK_LEN`-element chunks.
fn bytes_per_round(codec: &AnyWireCodec, coded: &[f64]) -> usize {
    coded
        .chunks(CHUNK_LEN)
        .map(|chunk| codec.encoded_len(chunk.len()))
        .sum()
}

fn bench_wire_compression(c: &mut Criterion) {
    let coded = reference_round();
    let f64_bytes = bytes_per_round(&AnyWireCodec::for_encoding(PayloadEncoding::F64), &coded);

    let mut group = c.benchmark_group("wire_compression/encode_decode_round");
    for encoding in PayloadEncoding::ALL {
        let codec = AnyWireCodec::for_encoding(encoding);
        let bytes = bytes_per_round(&codec, &coded);
        let ratio = f64_bytes as f64 / bytes as f64;
        println!(
            "wire_compression: encoding={} bytes/round={} ({}x vs f64)",
            encoding.name(),
            bytes,
            (ratio * 100.0).round() / 100.0,
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(encoding.name()),
            &codec,
            |b, codec| {
                let mut ef = ErrorFeedback::new(NUM_PARAMS);
                let mut wire = Vec::with_capacity(codec.encoded_len(CHUNK_LEN));
                let mut scratch = coded.clone();
                b.iter(|| {
                    scratch.copy_from_slice(&coded);
                    let mut err_sq = 0.0;
                    for (chunk, carried) in scratch
                        .chunks_mut(CHUNK_LEN)
                        .zip(ef.residual_mut().chunks_mut(CHUNK_LEN))
                    {
                        err_sq += codec
                            .encode_feedback(chunk, carried, &mut wire)
                            .expect("finite reference round encodes");
                    }
                    err_sq
                });
            },
        );
    }
    group.finish();

    // One call of the int8 kernel alone at the ledger's reply length
    // (`d + 1 = 4097`): the criterion twin of `comm.encode_mbps.int8`.
    let reply = &coded[..4097];
    let int8 = AnyWireCodec::for_encoding(PayloadEncoding::Int8);
    let mut wire = Vec::with_capacity(int8.encoded_len(reply.len()));
    c.bench_function("wire_compression/encode_into/int8/4097", |b| {
        b.iter(|| int8.encode_into(black_box(reply), &mut wire))
    });

    let int8_bytes = bytes_per_round(&AnyWireCodec::for_encoding(PayloadEncoding::Int8), &coded);
    let int8_ratio = f64_bytes as f64 / int8_bytes as f64;
    assert!(
        int8_ratio >= 4.0,
        "Int8Quant must save at least 4x vs f64 on the reference round, got {int8_ratio:.2}x \
         ({f64_bytes} -> {int8_bytes} bytes)"
    );
}

criterion_group!(benches, bench_wire_compression);
criterion_main!(benches);
