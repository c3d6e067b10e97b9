//! Threaded vs socket round latency: the same collect round (4 workers,
//! heterogeneity-aware code, one straggler budget) executed over
//! in-process channels and over loopback TCP to real `hetgc-worker`
//! processes. The gap is the data plane's true cost: framing,
//! serialization, kernel round trips. At `d = 16` a socket round is all
//! syscalls; the `socket/4096` arm is where payload copies show, and the
//! `wire_path` group isolates them: one chunk through the allocating
//! `Frame::encode` + `Frame::decode` against the data path's
//! `append_gradient_chunk` into a reused buffer + borrowed decode into
//! the buffer that consumes it.
//!
//! The CI `bench-smoke` job runs this with `--test` on every PR.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hetgc::{heter_aware, synthetic, LinearRegression, Model, RuntimeConfig};
use hetgc_net::{
    append_gradient_chunk, Frame, FrameRef, ModelSpec, SocketCluster, SocketListener, WorkerFleet,
};
use hetgc_runtime::ThreadedCluster;
use rand::rngs::StdRng;
use rand::SeedableRng;

const DIM: usize = 16;
const WIDE_DIM: usize = 4096;
const SAMPLES: usize = 240;
const WORKERS: usize = 4;

/// Everything a 4-worker, one-straggler round at dimension `dim` needs.
struct Fixture {
    data: Arc<hetgc::Dataset>,
    model: Arc<LinearRegression>,
    code: hetgc::CodingMatrix,
    config: RuntimeConfig,
    params: Vec<f64>,
}

fn fixture(dim: usize, samples: usize) -> Fixture {
    let mut rng = StdRng::seed_from_u64(17);
    let model = Arc::new(LinearRegression::new(dim));
    Fixture {
        data: Arc::new(synthetic::linear_regression(samples, dim, 0.01, &mut rng)),
        code: heter_aware(&[1.0; WORKERS], WORKERS, 1, &mut rng).unwrap(),
        config: RuntimeConfig::nominal(WORKERS),
        params: vec![0.1; model.num_params()],
        model,
    }
}

/// One round over loopback TCP to real worker processes.
fn bench_socket(c: &mut Criterion, dim: usize, samples: usize) {
    let f = fixture(dim, samples);
    let listener = SocketListener::bind().unwrap();
    let addr = listener.addr().to_string();
    let _fleet = WorkerFleet::spawn(env!("CARGO_BIN_EXE_hetgc-worker"), &addr, WORKERS).unwrap();
    let mut socket = SocketCluster::start(
        listener,
        f.code,
        f.model,
        ModelSpec::Linear { dim: dim as u32 },
        f.data,
        &f.config,
    )
    .unwrap();
    let mut group = c.benchmark_group("socket_round");
    group.sample_size(10);
    group.bench_function(format!("socket/{dim}"), |b| {
        b.iter(|| {
            let round = socket.round(&f.params).unwrap();
            assert!(round.gradient.is_some(), "decoded");
            black_box(round.results_used)
        })
    });
    group.finish();
}

fn bench_round(c: &mut Criterion) {
    let f = fixture(DIM, SAMPLES);
    let mut threaded = ThreadedCluster::start(f.code, f.model, f.data, &f.config).unwrap();
    let mut group = c.benchmark_group("socket_round");
    group.sample_size(10);
    group.bench_function("threaded", |b| {
        b.iter(|| {
            let round = threaded.round(&f.params).unwrap();
            assert!(round.gradient.is_some(), "decoded");
            black_box(round.results_used)
        })
    });
    group.finish();
    drop(threaded);

    bench_socket(c, DIM, SAMPLES);
    // Few samples: the wide round should cost its bytes, not its math.
    bench_socket(c, WIDE_DIM, WORKERS);
}

/// One `d = 4096` gradient chunk through each codec pair.
fn bench_wire_path(c: &mut Criterion) {
    let chunk: Vec<f64> = (0..WIDE_DIM).map(|i| i as f64 * 0.25).collect();
    let owned = Frame::GradientChunk {
        seq: 1,
        worker: 0,
        offset: 0,
        total: WIDE_DIM as u32,
        data: chunk.clone(),
    };
    let mut group = c.benchmark_group("wire_path");
    group.bench_function("owned/4096", |b| {
        b.iter(|| {
            let wire = black_box(&owned).encode();
            black_box(Frame::decode(&wire).unwrap())
        })
    });
    let mut wire = Vec::new();
    let mut reply = vec![0.0; WIDE_DIM];
    group.bench_function("borrowed/4096", |b| {
        b.iter(|| {
            wire.clear();
            append_gradient_chunk(&mut wire, 1, 0, 0, WIDE_DIM as u32, black_box(&chunk));
            match FrameRef::decode_prefix(&wire).unwrap() {
                Some((FrameRef::GradientChunk { data, .. }, _)) => data.copy_to(&mut reply),
                other => panic!("not a gradient chunk: {other:?}"),
            }
            black_box(reply[WIDE_DIM - 1])
        })
    });
    group.finish();
}

criterion_group!(benches, bench_round, bench_wire_path);
criterion_main!(benches);
