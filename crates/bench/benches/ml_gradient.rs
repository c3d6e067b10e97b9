//! Gradient-cost linearity: the load-balancing premise of Eq. 5 is that
//! "the computing complexity of each task is proportional to its number of
//! samples" (§II). This bench verifies the premise holds for our models:
//! doubling the sample range should roughly double the gradient time.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use hetgc::{synthetic, Dataset, GradientBlock, LinearRegression, Mlp, Model, SoftmaxRegression};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The per-sample scalar fold `LinearRegression` ran before its kernels
/// interleaved independent folds: one dependent add per feature. Kept
/// here as the baseline arm (bitwise the same gradient).
fn scalar_fold_gradient(params: &[f64], data: &Dataset, (lo, hi): (usize, usize), out: &mut [f64]) {
    let d = data.dim();
    out.fill(0.0);
    for i in lo..hi {
        let x = data.features_of(i);
        let prediction = params[..d].iter().zip(x).map(|(w, x)| w * x).sum::<f64>() + params[d];
        let r = prediction - data.regression_target(i);
        for (g, x) in out[..d].iter_mut().zip(x) {
            *g += r * x;
        }
        out[d] += r;
    }
}

/// The ledger's two `LinearRegression` shapes, where the serial add chain
/// showed: `sim-bsp-miss` (Cluster-D: 162 partitions × 4 samples,
/// `d = 128`, every partial gradient into one block) and the busiest
/// `threaded-pipelined` worker (8 one-sample partitions, `d = 8192`,
/// folded into one coded gradient; the other workers' 2 and 4 beside it).
fn bench_linear_gradient(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(24);
    let mut group = c.benchmark_group("ml/linear_gradient");

    let (k, per, d) = (162, 4, 128);
    let data = synthetic::linear_regression(k * per, d, 0.01, &mut rng);
    let model = LinearRegression::new(d);
    let params = model.init_params(&mut rng);
    let ranges: Vec<(usize, usize)> = (0..k).map(|j| (j * per, (j + 1) * per)).collect();
    let mut block = GradientBlock::new(k, d + 1);
    group.bench_function("partials_162x4x128/scalar_fold", |b| {
        b.iter(|| {
            for (j, &range) in ranges.iter().enumerate() {
                scalar_fold_gradient(&params, &data, range, block.row_mut(j));
            }
            black_box(block.row(k - 1)[0])
        });
    });
    group.bench_function("partials_162x4x128/partial_gradients_into", |b| {
        b.iter(|| {
            hetgc::partial_gradients_into(&model, &params, &data, &ranges, &mut block);
            black_box(block.row(k - 1)[0])
        });
    });

    let (k, d) = (8, 8192);
    let data = synthetic::linear_regression(k, d, 0.01, &mut rng);
    let model = LinearRegression::new(d);
    let params = model.init_params(&mut rng);
    let ranges: Vec<(usize, usize)> = (0..k).map(|j| (j, j + 1)).collect();
    let coefficients: Vec<f64> = (0..k).map(|j| 0.5 + j as f64).collect();
    let (mut coded, mut partial) = (vec![0.0; d + 1], vec![0.0; d + 1]);
    group.bench_function("coded_8x1x8192/scalar_fold", |b| {
        b.iter(|| {
            coded.fill(0.0);
            for (&range, &coef) in ranges.iter().zip(&coefficients) {
                scalar_fold_gradient(&params, &data, range, &mut partial);
                for (c, g) in coded.iter_mut().zip(&partial) {
                    *c += coef * g;
                }
            }
            black_box(coded[0])
        });
    });
    // Every `threaded-pipelined` worker's load (rates 1:1:2:4, s = 1).
    let (mut coded, mut partial) = (Vec::new(), Vec::new());
    for load in [2, 4, k] {
        group.bench_function(format!("coded_{load}x1x8192/compute_coded"), |b| {
            b.iter(|| {
                hetgc_runtime::compute_coded(
                    &model,
                    &data,
                    &ranges[..load],
                    &coefficients[..load],
                    &params,
                    &mut coded,
                    &mut partial,
                );
                black_box(coded[0])
            });
        });
    }
    group.finish();
}

fn bench_mlp_gradient(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(21);
    let data = synthetic::image_like(1600, 64, 10, &mut rng);
    let model = Mlp::new(64, 32, 10);
    let params = model.init_params(&mut rng);
    let mut group = c.benchmark_group("ml/mlp_gradient");
    for samples in [200usize, 400, 800, 1600] {
        group.bench_with_input(BenchmarkId::from_parameter(samples), &samples, |b, &n| {
            b.iter(|| model.gradient(&params, &data, (0, n)));
        });
    }
    group.finish();
}

fn bench_softmax_gradient(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(22);
    let data = synthetic::gaussian_blobs(2000, 16, 4, 3.0, &mut rng);
    let model = SoftmaxRegression::new(16, 4);
    let params = model.init_params(&mut rng);
    let mut group = c.benchmark_group("ml/softmax_gradient");
    for samples in [500usize, 1000, 2000] {
        group.bench_with_input(BenchmarkId::from_parameter(samples), &samples, |b, &n| {
            b.iter(|| model.gradient(&params, &data, (0, n)));
        });
    }
    group.finish();
}

fn bench_encode(c: &mut Criterion) {
    // Worker-side encoding g̃ = Σ b_j·g_j over a realistic gradient size.
    let mut rng = StdRng::seed_from_u64(23);
    let data = synthetic::linear_regression(1000, 128, 0.1, &mut rng);
    let model = LinearRegression::new(128);
    let params = model.init_params(&mut rng);
    let throughputs = [1.0, 2.0, 3.0, 4.0, 4.0, 2.0];
    let code = hetgc::heter_aware(&throughputs, 8, 1, &mut rng).expect("construct");
    let ranges: Vec<(usize, usize)> = hetgc::PartitionAssignment::even(1000, 8)
        .expect("partition")
        .iter()
        .collect();
    let partials = hetgc_ml::partial_gradients(&model, &params, &data, &ranges);
    c.bench_function("ml/encode_worker_gradient", |b| {
        b.iter(|| {
            for w in 0..code.workers() {
                code.encode(w, &partials).expect("encode");
            }
        });
    });
}

/// Input synthesis at the shapes the ledger's workloads draw: `sim-bsp-miss`
/// (648 × 128), `sched-batch` (1024 × 64) and `threaded-pipelined`
/// (8 × 8192). Nearly all of it is the ziggurat's Gaussian draws.
fn bench_synthesis(c: &mut Criterion) {
    let mut group = c.benchmark_group("synthesis/linear_regression");
    for (n, d) in [(648, 128), (1024, 64), (8, 8192)] {
        let mut rng = StdRng::seed_from_u64(25);
        group.bench_function(format!("{n}x{d}"), |b| {
            b.iter(|| synthetic::linear_regression(n, d, 0.01, &mut rng));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_mlp_gradient,
    bench_softmax_gradient,
    bench_linear_gradient,
    bench_encode,
    bench_synthesis
);
criterion_main!(benches);
