//! Construction cost of the coding strategies (ablation, not a paper
//! figure): Algorithm 1 performs one `(s+1)×(s+1)` LU solve per run of
//! partitions sharing a replica set; the group-based construction adds
//! the exact-cover search on top, and `construct/compile` is the codec
//! compile of the Cluster-D code.
//!
//! Measured, not derived: on a 2-vCPU x86-64 box Algorithm 1 grows
//! linearly in `k`, at about 0.25–0.3 µs per partition for `s ≤ 2`
//! (`k = 16`: 3.6 µs, `k = 64`: 17.5 µs) and 0.3–0.5 µs for the Cluster-D
//! code (`k = 162`, `s = 3`: 46–80 µs). At `s + 1 ≤ 4` the `(s+1)³`
//! factorization is a few dozen flops, so the per-partition draws, block
//! copy and writes into `B` set the constant.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hetgc::{cyclic, group_based, heter_aware, ClusterSpec, CompiledCodec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_heter_aware(c: &mut Criterion) {
    let mut group = c.benchmark_group("construct/heter_aware");
    for (m, s) in [(8usize, 1usize), (16, 1), (32, 1), (8, 2), (16, 2)] {
        let throughputs: Vec<f64> = (0..m).map(|i| 1.0 + (i % 4) as f64).collect();
        let k = 2 * m;
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("m{m}_s{s}")),
            &(throughputs, k, s),
            |b, (ths, k, s)| {
                let mut rng = StdRng::seed_from_u64(1);
                b.iter(|| heter_aware(ths, *k, *s, &mut rng).expect("construct"));
            },
        );
    }
    // The `sim-bsp-miss` ledger workload's code: Cluster-D, k = 162, s = 3.
    let (rates, k, s) = (ClusterSpec::cluster_d().throughputs(), 162, 3);
    group.bench_function("cluster_d_m58_k162_s3", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| heter_aware(&rates, k, s, &mut rng).expect("construct"));
    });
    group.finish();
}

/// `CompiledCodec::new` on the Cluster-D code: the CSR, the distinct
/// columns and the fingerprint, plus a clone of `B` (58 × 162 `f64`) per
/// iteration, which the compile consumes.
fn bench_compile(c: &mut Criterion) {
    let mut group = c.benchmark_group("construct/compile");
    let rates = ClusterSpec::cluster_d().throughputs();
    let code = heter_aware(&rates, 162, 3, &mut StdRng::seed_from_u64(1)).expect("construct");
    group.bench_function("cluster_d_m58_k162_s3", |b| {
        b.iter(|| CompiledCodec::new(code.clone()));
    });
    group.finish();
}

fn bench_cyclic(c: &mut Criterion) {
    let mut group = c.benchmark_group("construct/cyclic");
    for m in [8usize, 16, 32, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, &m| {
            let mut rng = StdRng::seed_from_u64(2);
            b.iter(|| cyclic(m, 1, &mut rng).expect("construct"));
        });
    }
    group.finish();
}

fn bench_group_based(c: &mut Criterion) {
    let mut group = c.benchmark_group("construct/group_based");
    for cluster in [ClusterSpec::cluster_a(), ClusterSpec::cluster_b()] {
        let throughputs = cluster.throughputs();
        let k = hetgc_coding::suggest_partition_count(
            &throughputs,
            1,
            cluster.len(),
            6 * cluster.len(),
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(cluster.name().to_owned()),
            &(throughputs, k),
            |b, (ths, k)| {
                let mut rng = StdRng::seed_from_u64(3);
                b.iter(|| group_based(ths, *k, 1, &mut rng).expect("construct"));
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_heter_aware,
    bench_compile,
    bench_cyclic,
    bench_group_based
);
criterion_main!(benches);
