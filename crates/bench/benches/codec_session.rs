//! Per-iteration decoder setup cost: spawning a fresh `CodecSession` from
//! the uncompiled `CodingMatrix` every round (row store rebuilt, empty
//! buffer pool) versus resetting one reusable session of a
//! `CompiledCodec`.
//!
//! The workload is one full master collect round on Cluster-A-sized codes
//! (m = 8, the paper's Table II Cluster-A, plus larger powers of two):
//! arrivals stream in a fixed order and the round ends at the earliest
//! decodable prefix — exactly what the simulated engines, the experiment
//! drivers and the threaded runtime do once per training iteration.
//!
//! The last arm is the per-arrival path at the paper's largest shape —
//! Cluster-D, `m = 58`, `k = 162`, `s = 3`, three random stragglers a
//! round so nearly every survivor set is new — the micro row next to the
//! ledger's `sim-bsp-miss` workload (`benchmark/`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hetgc::{group_based, heter_aware, ClusterSpec, CodingMatrix, CompiledCodec, GradientCodec};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Cluster-A's throughput shape (Table II: 2+2+3+1 nodes, 2–12 vCPUs),
/// extended cyclically for larger m.
fn cluster_a_like(m: usize) -> CodingMatrix {
    let base = ClusterSpec::cluster_a().throughputs();
    let throughputs: Vec<f64> = (0..m).map(|i| base[i % base.len()]).collect();
    let mut rng = StdRng::seed_from_u64(7);
    heter_aware(&throughputs, 2 * m, 1, &mut rng).expect("construct")
}

fn run_round_fresh(code: &CodingMatrix, order: &[usize]) {
    let mut session = code.session();
    for &w in order {
        if session.push(w).expect("valid push").is_some() {
            return;
        }
    }
    panic!("never decoded");
}

fn bench_fresh_session_per_iteration(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec_session/fresh_session");
    for m in [8usize, 16, 32] {
        let code = cluster_a_like(m);
        let order: Vec<usize> = (0..m).collect();
        group.bench_with_input(BenchmarkId::from_parameter(m), &code, |b, code| {
            b.iter(|| run_round_fresh(code, &order));
        });
    }
    group.finish();
}

fn bench_reused_session(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec_session/reused_session_reset");
    for m in [8usize, 16, 32] {
        let codec = CompiledCodec::new(cluster_a_like(m));
        let order: Vec<usize> = (0..m).collect();
        group.bench_with_input(BenchmarkId::from_parameter(m), &codec, |b, codec| {
            let mut session = codec.session();
            b.iter(|| {
                session.reset();
                for &w in &order {
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

/// The group fast path: a homogeneous cluster whose group-based code has
/// intact groups, arrivals ordered so one group completes first. The
/// generic session pays a row elimination plus a spanning check per push
/// and a densification at decode; the group session counts arrivals and
/// clones a precompiled indicator plan.
fn bench_group_fast_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec_session/group_fast_path");
    for m in [8usize, 16, 32] {
        let mut rng = StdRng::seed_from_u64(9);
        let strategy = group_based(&vec![1.0; m], m, 1, &mut rng).expect("construct");
        assert!(!strategy.groups().is_empty(), "m={m} must admit groups");
        // Arrival order: the smallest group's workers first, then the rest.
        let codec = strategy.compile().expect("compile");
        let first_group = codec.groups()[0].workers().to_vec();
        let mut order = first_group.clone();
        order.extend((0..m).filter(|w| !first_group.contains(w)));

        let generic = CompiledCodec::new(strategy.code().clone());
        group.bench_with_input(
            BenchmarkId::new("generic_session", m),
            &generic,
            |b, codec| {
                let mut session = codec.session();
                b.iter(|| {
                    session.reset();
                    for &w in &order {
                        if session.push(w).expect("valid push").is_some() {
                            return;
                        }
                    }
                    panic!("never decoded");
                });
            },
        );
        group.bench_with_input(BenchmarkId::new("group_session", m), &codec, |b, codec| {
            let mut session = codec.session();
            b.iter(|| {
                session.reset();
                for &w in &order {
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

/// One streamed round on Cluster-D: 55 of the 58 workers arrive in a
/// random order (a different straggler triple and order each iteration,
/// cycling through a fixed deck), one reused session, the zero-allocation
/// `push_arrival` / `decoded_plan` pair. Every push is a real elimination
/// step — there is no plan cache in front of a session.
fn bench_cluster_d_random_stragglers(c: &mut Criterion) {
    const STRAGGLERS: usize = 3;
    let rates = ClusterSpec::cluster_d().throughputs();
    let mut rng = StdRng::seed_from_u64(2019);
    let codec =
        CompiledCodec::new(heter_aware(&rates, 162, STRAGGLERS, &mut rng).expect("construct"));
    let m = codec.workers();
    let deck: Vec<Vec<usize>> = (0..64)
        .map(|_| {
            let mut order: Vec<usize> = (0..m).collect();
            order.shuffle(&mut rng);
            order.truncate(m - STRAGGLERS);
            order
        })
        .collect();
    let mut group = c.benchmark_group("codec_session/cluster_d_random_stragglers");
    group.bench_with_input(BenchmarkId::from_parameter(m), &codec, |b, codec| {
        let mut session = codec.session();
        let mut rounds = deck.iter().cycle();
        b.iter(|| {
            session.reset();
            let order = rounds.next().expect("cycle");
            for &w in order {
                if session.push_arrival(w).expect("valid push") {
                    return session.decoded_plan().expect("decoded").len();
                }
            }
            panic!("m - s survivors never decoded");
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fresh_session_per_iteration,
    bench_reused_session,
    bench_group_fast_path,
    bench_cluster_d_random_stragglers
);
criterion_main!(benches);
