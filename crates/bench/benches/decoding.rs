//! Decoding cost (the paper's §III-B claims realtime decode-vector solves
//! cost `O(mk²)` and "can be ignored" relative to gradient computation —
//! this bench quantifies that claim), measured through the unified
//! `GradientCodec` API: uncached solves, cached plan lookups, and full
//! streaming rounds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hetgc::{heter_aware, CodingMatrix, CompiledCodec, GradientCodec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn build(m: usize, s: usize) -> CodingMatrix {
    let throughputs: Vec<f64> = (0..m).map(|i| 1.0 + (i % 4) as f64).collect();
    let mut rng = StdRng::seed_from_u64(11);
    heter_aware(&throughputs, 2 * m, s, &mut rng).expect("construct")
}

fn bench_one_shot_decode(c: &mut Criterion) {
    // The uncompiled path: every call re-solves.
    let mut group = c.benchmark_group("decode/one_shot_uncached");
    for m in [8usize, 16, 32] {
        let code = build(m, 1);
        let survivors: Vec<usize> = (1..m).collect(); // worker 0 straggles
        group.bench_with_input(BenchmarkId::from_parameter(m), &code, |b, code| {
            b.iter(|| code.decode_plan(&survivors).expect("decodable"));
        });
    }
    group.finish();
}

fn bench_cached_plan(c: &mut Criterion) {
    // The compiled path: the same survivor set hits the LRU plan cache.
    let mut group = c.benchmark_group("decode/one_shot_cached");
    for m in [8usize, 16, 32] {
        let codec = CompiledCodec::new(build(m, 1));
        let survivors: Vec<usize> = (1..m).collect();
        codec.decode_plan(&survivors).expect("warm the cache");
        group.bench_with_input(BenchmarkId::from_parameter(m), &codec, |b, codec| {
            b.iter(|| codec.decode_plan(&survivors).expect("decodable"));
        });
    }
    group.finish();
}

fn bench_online_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("decode/online_full_round");
    for m in [8usize, 16, 32] {
        let codec = CompiledCodec::new(build(m, 1));
        group.bench_with_input(BenchmarkId::from_parameter(m), &codec, |b, codec| {
            let mut session = codec.session();
            b.iter(|| {
                session.reset();
                for w in 0..m {
                    if session.push(w).expect("valid push").is_some() {
                        return;
                    }
                }
                panic!("never decoded");
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_one_shot_decode,
    bench_cached_plan,
    bench_online_decode
);
criterion_main!(benches);
