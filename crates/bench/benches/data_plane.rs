//! The gradient data plane, measured three ways:
//!
//! * `data_plane/encode`  — the dense reference `CodingMatrix::encode`
//!   (row scan, fresh `Vec`) vs pooled CSR `encode_into` over a flat
//!   `GradientBlock`;
//! * `data_plane/decode`  — allocating `DecodePlan::apply_into` (HashMap of
//!   owned vectors) vs `apply_into` straight over the arrival block;
//! * `data_plane/decode_large` — whole-round decode at d = 65 536:
//!   per-row scalar combine vs the cache-blocked plan-matrix product;
//! * `data_plane/round`   — a full master collect round: cloning `push`
//!   (fresh plan per round) vs zero-alloc `push_arrival`/`decoded_plan`;
//! * `data_plane/driver`  — sequential `TrainDriver` vs double-buffered
//!   `PipelinedDriver` on the real threaded runtime.
//!
//! The CI `bench-smoke` job runs this bench with `--test` on every PR and
//! surfaces the comparison numbers in the job log.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hetgc::{
    heter_aware, synthetic, CompiledCodec, Dataset, GradientBlock, GradientCodec, LinearRegression,
    Model, PipelinedDriver, RuntimeConfig, Sgd, ThreadedEngine, TrainDriver, WorkerBehavior,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIM: usize = 256;

fn fixture() -> (CompiledCodec, Vec<Vec<f64>>, GradientBlock) {
    let mut rng = StdRng::seed_from_u64(3);
    let rates = [1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0, 4.0];
    let code = heter_aware(&rates, 23, 1, &mut rng).unwrap();
    let codec = CompiledCodec::new(code);
    let k = codec.partitions();
    let rows: Vec<Vec<f64>> = (0..k)
        .map(|_| (0..DIM).map(|_| rng.gen_range(-2.0..2.0)).collect())
        .collect();
    let block = GradientBlock::from_rows(&rows).unwrap();
    (codec, rows, block)
}

fn bench_encode(c: &mut Criterion) {
    let (codec, rows, block) = fixture();
    let m = codec.workers();
    let mut group = c.benchmark_group("data_plane/encode");
    group.bench_function("dense_reference", |b| {
        b.iter(|| {
            for w in 0..m {
                black_box(codec.code().encode(w, &rows).unwrap());
            }
        })
    });
    let mut out = vec![0.0; DIM];
    group.bench_function("pooled", |b| {
        b.iter(|| {
            for w in 0..m {
                codec.encode_into(w, &block, &mut out).unwrap();
                black_box(out[0]);
            }
        })
    });
    group.finish();
}

fn bench_decode(c: &mut Criterion) {
    let (codec, _rows, block) = fixture();
    let m = codec.workers();
    // Worker 0 straggles: decode over the other m − 1.
    let survivors: Vec<usize> = (1..m).collect();
    let plan = codec.decode_plan(&survivors).unwrap();
    // Arrival payloads, both layouts pre-built (the bench measures the
    // combine, not the transport).
    let mut arrivals = GradientBlock::new(m, DIM);
    let mut out = vec![0.0; DIM];
    for &w in &survivors {
        codec.encode_into(w, &block, &mut out).unwrap();
        arrivals.row_mut(w).copy_from_slice(&out);
    }
    let coded: HashMap<usize, Vec<f64>> = survivors
        .iter()
        .map(|&w| (w, arrivals.row(w).to_vec()))
        .collect();

    let mut group = c.benchmark_group("data_plane/decode");
    group.bench_function("allocating", |b| {
        b.iter(|| {
            let mut fresh = vec![0.0; DIM];
            plan.apply_into(|w| coded.get(&w).map(Vec::as_slice), &mut fresh)
                .unwrap();
            black_box(fresh[0])
        })
    });
    group.bench_function("pooled", |b| {
        b.iter(|| {
            plan.apply_block_into(&arrivals, &mut out).unwrap();
            black_box(out[0])
        })
    });
    group.finish();
}

/// Whole-round decode at a realistic model size (d = 65 536): the
/// per-row scalar f64 combine every gradient-coding codebase starts
/// with, against the cache-blocked `apply_block_into` plan-matrix
/// product. At this size the combine is memory-bound: the arrival rows
/// stream through the cache hierarchy.
fn bench_decode_large(c: &mut Criterion) {
    const LARGE_DIM: usize = 65_536;
    let mut rng = StdRng::seed_from_u64(3);
    let rates = [1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0, 4.0];
    let code = heter_aware(&rates, 23, 1, &mut rng).unwrap();
    let codec = CompiledCodec::new(code);
    let (m, k) = (codec.workers(), codec.partitions());
    let mut partials = GradientBlock::new(k, LARGE_DIM);
    for x in partials.as_mut_slice() {
        *x = rng.gen_range(-2.0..2.0);
    }
    let survivors: Vec<usize> = (1..m).collect(); // worker 0 straggles
    let plan = codec.decode_plan(&survivors).unwrap();
    let mut arrivals = GradientBlock::new(m, LARGE_DIM);
    for &w in &survivors {
        let row = arrivals.row_mut(w);
        codec.encode_into(w, &partials, row).unwrap();
    }
    let mut out = vec![0.0; LARGE_DIM];

    let mut group = c.benchmark_group("data_plane/decode_large");
    group.sample_size(10);
    group.bench_function("per_row_scalar_f64", |b| {
        b.iter(|| {
            out.fill(0.0);
            for (w, coef) in plan.iter() {
                let row = arrivals.row(w);
                for (o, &x) in out.iter_mut().zip(row) {
                    *o += coef * x;
                }
            }
            black_box(out[0])
        })
    });
    group.bench_function("blocked_f64", |b| {
        b.iter(|| {
            plan.apply_block_into(&arrivals, &mut out).unwrap();
            black_box(out[0])
        })
    });
    group.finish();
}

fn bench_round(c: &mut Criterion) {
    let (codec, _rows, _block) = fixture();
    let m = codec.workers();
    let order: Vec<usize> = (1..m).collect(); // worker 0 straggles
    let mut group = c.benchmark_group("data_plane/round");
    let mut cloning = codec.session();
    group.bench_function("push_allocating_plan", |b| {
        b.iter(|| {
            cloning.reset();
            for &w in &order {
                if let Some(plan) = cloning.push(w).unwrap() {
                    return black_box(plan.len());
                }
            }
            unreachable!("m − s survivors decode")
        })
    });
    let mut pooled = codec.session();
    group.bench_function("push_arrival_pooled", |b| {
        b.iter(|| {
            pooled.reset();
            for &w in &order {
                if pooled.push_arrival(w).unwrap() {
                    return black_box(pooled.decoded_plan().unwrap().len());
                }
            }
            unreachable!("m − s survivors decode")
        })
    });
    group.finish();
}

/// `LinearRegression` with a fixed master-side evaluation cost, matching
/// `tests/pipelined.rs`: pipelining pays off when the master has real
/// per-round work to hide behind the workers' compute.
struct SlowLossModel {
    inner: LinearRegression,
    loss_cost: Duration,
}

impl Model for SlowLossModel {
    fn num_params(&self) -> usize {
        self.inner.num_params()
    }

    fn loss(&self, params: &[f64], data: &Dataset, range: (usize, usize)) -> f64 {
        std::thread::sleep(self.loss_cost);
        self.inner.loss(params, data, range)
    }

    fn gradient(&self, params: &[f64], data: &Dataset, range: (usize, usize)) -> Vec<f64> {
        self.inner.gradient(params, data, range)
    }

    fn gradient_into(
        &self,
        params: &[f64],
        data: &Dataset,
        range: (usize, usize),
        out: &mut [f64],
    ) {
        self.inner.gradient_into(params, data, range, out);
    }

    fn for_each_partial(
        &self,
        params: &[f64],
        data: &Dataset,
        ranges: &[(usize, usize)],
        visit: &mut dyn FnMut(usize, &hetgc::FillPartial<'_>),
    ) {
        self.inner.for_each_partial(params, data, ranges, visit);
    }

    fn init_params(&self, rng: &mut dyn rand::RngCore) -> Vec<f64> {
        self.inner.init_params(rng)
    }
}

fn bench_driver(c: &mut Criterion) {
    let model = Arc::new(SlowLossModel {
        inner: LinearRegression::new(3),
        loss_cost: Duration::from_millis(2),
    });
    let mut rng = StdRng::seed_from_u64(11);
    let data = Arc::new(synthetic::linear_regression(240, 3, 0.01, &mut rng));
    let code = heter_aware(&[1.0; 4], 4, 1, &mut rng).unwrap();
    // ~4 ms of (emulated) compute per round: 120 samples per worker.
    let mut config = RuntimeConfig::nominal(4);
    for w in 0..4 {
        config = config.set_behavior(w, WorkerBehavior::nominal().with_throttle(120.0 / 0.004));
    }
    let rounds = 5;

    let mut group = c.benchmark_group("data_plane/driver");
    group.sample_size(5);
    group.bench_function("sequential_threaded", |b| {
        let mut engine =
            ThreadedEngine::new(code.clone(), Arc::clone(&model), Arc::clone(&data), &config)
                .unwrap();
        b.iter(|| {
            let out = TrainDriver::new(model.as_ref(), data.as_ref(), Sgd::new(0.2))
                .run(&mut engine, rounds, &mut StdRng::seed_from_u64(7))
                .unwrap();
            black_box(out.rounds())
        })
    });
    group.bench_function("pipelined_threaded", |b| {
        let mut engine =
            ThreadedEngine::new(code.clone(), Arc::clone(&model), Arc::clone(&data), &config)
                .unwrap();
        b.iter(|| {
            let out = PipelinedDriver::new(model.as_ref(), data.as_ref(), Sgd::new(0.2))
                .run(&mut engine, rounds, &mut StdRng::seed_from_u64(7))
                .unwrap();
            black_box(out.rounds())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_encode,
    bench_decode,
    bench_decode_large,
    bench_round,
    bench_driver
);
criterion_main!(benches);
