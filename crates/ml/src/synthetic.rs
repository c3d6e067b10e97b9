//! Synthetic dataset generators.
//!
//! Stand-ins for the paper's CIFAR-10 / ImageNet workloads (see DESIGN.md):
//! what gradient coding needs from a dataset is only (a) partitionable
//! sample order, (b) per-sample gradient cost proportional to the sample
//! count, and (c) a non-trivial loss landscape for the Fig. 4 convergence
//! curves. These generators provide all three with controllable size.
//!
//! Every Gaussian draw here comes from one sampler: a 256-layer ziggurat
//! (Marsaglia & Tsang 2000, in Doornik's ZIGNOR form). Its contract is the
//! distribution and determinism per seed: draws are N(0, 1) — the tests
//! pin the low moments, the mass beyond 0.25 to 3, the wedges and the tail
//! beyond `R` — and one seed always gives the same dataset.
//!
//! The sampler is split in two. The hot path, inlined into each
//! generator's loop, is one `next_u64`, one layer lookup and one compare;
//! 98.5 % of tries end there, with no transcendental. The wedge test
//! (1.5 %), the tail (0.03 %) and the retry after a rejection live in one
//! cold, never-inlined function, so they cost the loop nothing until they
//! are taken. Each generator looks the tables up once per dataset, not
//! once per draw. The split changes no draw: every value and every
//! generator word consumed is bitwise that of the single-loop form, which
//! the tests keep as their oracle, so a seed gives the same dataset.
//!
//! `hetgc-sim` (compute jitter) and `hetgc-cluster` (throughput-estimation
//! noise) keep their own Box–Muller draws. Those streams feed the figures,
//! the §V noise experiments and the timing harnesses' golden values
//! (`crates/core/tests/timing_contract.rs`), not a dataset, and they draw a
//! handful of values per simulated round, where a sampler's cost does not
//! show.

// Index loops keep the per-pixel template/center arithmetic explicit.
#![allow(clippy::needless_range_loop)]

use std::sync::OnceLock;

use hetgc_coding::kernels;
use rand::Rng;

use crate::dataset::{Dataset, Targets};

/// Right edge of the ziggurat's base layer, where the normal tail begins.
const ZIG_R: f64 = 3.654_152_885_361_009;
/// Area of each of the 256 layers (the base layer includes the tail).
const ZIG_V: f64 = 4.92867323399e-3;

/// Unnormalized standard normal density, `e^{−x²/2}`.
fn gauss(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

/// Layer edges `x[0] = V / f(R) > x[1] = R > … > x[256] = 0` and their
/// densities `f[i] = e^{−x[i]²/2}`. Layer `i ≥ 1` is the box
/// `[0, x[i]) × [f[i], f[i+1])`; layer 0 is the strip `[0, R) × [0, f(R))`
/// plus the tail, drawn as if it were `x[0]` wide.
struct Ziggurat {
    x: [f64; 257],
    f: [f64; 257],
}

fn ziggurat() -> &'static Ziggurat {
    static TABLES: OnceLock<Ziggurat> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut x = [0.0; 257];
        x[0] = ZIG_V / gauss(ZIG_R);
        x[1] = ZIG_R;
        for i in 2..256 {
            x[i] = (-2.0 * (ZIG_V / x[i - 1] + gauss(x[i - 1])).ln()).sqrt();
        }
        Ziggurat { x, f: x.map(gauss) }
    })
}

impl Ziggurat {
    /// Standard normal by ziggurat. One `next_u64` picks the layer (low 8
    /// bits) and `u ∈ [−1, 1)` (top 53 bits); `x = u · x[i]` is returned at
    /// once when it lies inside the next layer's edge, which 98.5 % of tries
    /// do. The rest go to [`Self::sample_edge`].
    #[inline(always)]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let (i, u, x) = self.try_layer(rng);
        if x.abs() < self.x[i + 1] {
            return x;
        }
        self.sample_edge(rng, i, u, x)
    }

    /// One try: the layer `i`, the uniform `u` and the point `x = u · x[i]`
    /// drawn from a single `next_u64`.
    #[inline(always)]
    fn try_layer<R: Rng + ?Sized>(&self, rng: &mut R) -> (usize, f64, f64) {
        let bits = rng.next_u64();
        let i = (bits & 0xff) as usize;
        let u = (bits >> 11) as f64 * (1.0 / (1u64 << 52) as f64) - 1.0;
        (i, u, u * self.x[i])
    }

    /// Finishes a try that fell outside its layer's inner box: the tail
    /// beyond `R` for the base layer (0.03 % of tries), else the wedge
    /// test (one more uniform and an `exp`, 1.5 %), drawing fresh tries
    /// until one is accepted.
    #[cold]
    #[inline(never)]
    fn sample_edge<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        mut i: usize,
        mut u: f64,
        mut x: f64,
    ) -> f64 {
        loop {
            if i == 0 {
                let t = normal_tail(rng);
                return if u < 0.0 { -t } else { t };
            }
            if self.f[i + 1] + (self.f[i] - self.f[i + 1]) * rng.gen_range(0.0..1.0) < gauss(x) {
                return x;
            }
            (i, u, x) = self.try_layer(rng);
            if x.abs() < self.x[i + 1] {
                return x;
            }
        }
    }
}

/// A draw from the standard normal conditioned on `z > R`, by Marsaglia's
/// rejection from `R + Exp(R)`.
fn normal_tail<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let t = rng.gen_range(f64::EPSILON..1.0).ln() / ZIG_R;
        let e = rng.gen_range(f64::EPSILON..1.0).ln();
        if -2.0 * e >= t * t {
            return ZIG_R - t;
        }
    }
}

/// Linear-regression data: `y = w*ᵀx + ε`, `x ~ N(0, I)`,
/// `ε ~ N(0, noise²)`, with a fixed ground-truth `w*` drawn once.
///
/// # Panics
///
/// Panics if `n == 0` or `dim == 0`.
pub fn linear_regression<R: Rng + ?Sized>(
    n: usize,
    dim: usize,
    noise: f64,
    rng: &mut R,
) -> Dataset {
    assert!(n > 0 && dim > 0, "need samples and features");
    let zig = ziggurat();
    let w_star: Vec<f64> = (0..dim).map(|_| zig.sample(rng)).collect();
    let mut x = Vec::with_capacity(n * dim);
    let mut eps = Vec::with_capacity(n);
    for _ in 0..n {
        x.extend((0..dim).map(|_| zig.sample(rng)));
        eps.push(zig.sample(rng));
    }
    // The targets after the draws: `kernels::CHAINS` ordered folds side
    // by side, each bitwise the serial `Σ w*_j · x_ij`.
    let mut y = vec![0.0; n];
    kernels::dot_ordered_each(&w_star, x.chunks_exact(dim), &mut y);
    for (yi, e) in y.iter_mut().zip(eps) {
        *yi += noise * e;
    }
    Dataset::new(x, Targets::Regression(y), dim)
}

/// Gaussian blobs: `classes` isotropic clusters with centers at distance
/// `separation` from the origin along random directions; unit within-class
/// variance. Labels cycle through classes so every prefix is roughly
/// balanced (partitions see all classes).
///
/// # Panics
///
/// Panics if `n == 0`, `dim == 0`, or `classes < 2`.
pub fn gaussian_blobs<R: Rng + ?Sized>(
    n: usize,
    dim: usize,
    classes: usize,
    separation: f64,
    rng: &mut R,
) -> Dataset {
    assert!(n > 0 && dim > 0, "need samples and features");
    assert!(classes >= 2, "need at least two classes");
    let zig = ziggurat();
    let centers: Vec<Vec<f64>> = (0..classes)
        .map(|_| {
            let dir: Vec<f64> = (0..dim).map(|_| zig.sample(rng)).collect();
            let norm = dir.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-9);
            dir.into_iter().map(|v| v / norm * separation).collect()
        })
        .collect();
    let mut x = Vec::with_capacity(n * dim);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let c = i % classes;
        for j in 0..dim {
            x.push(centers[c][j] + zig.sample(rng));
        }
        labels.push(c);
    }
    Dataset::new(
        x,
        Targets::Classes {
            labels,
            num_classes: classes,
        },
        dim,
    )
}

/// CIFAR-like image classification data: class templates with localized
/// "feature patches" plus pixel noise, normalized to `[-1, 1]`-ish range.
/// Use `dim = 3072` for a faithful CIFAR shape or smaller for quick runs.
///
/// Labels cycle through classes (balanced partitions).
///
/// # Panics
///
/// Panics if `n == 0`, `dim == 0`, or `classes < 2`.
pub fn image_like<R: Rng + ?Sized>(n: usize, dim: usize, classes: usize, rng: &mut R) -> Dataset {
    assert!(n > 0 && dim > 0, "need samples and pixels");
    assert!(classes >= 2, "need at least two classes");
    // Each class activates a sparse random template (like object shape).
    let templates: Vec<Vec<f64>> = (0..classes)
        .map(|_| {
            (0..dim)
                .map(|_| {
                    if rng.gen_bool(0.2) {
                        rng.gen_range(0.5..1.5)
                    } else {
                        0.0
                    }
                })
                .collect()
        })
        .collect();
    let zig = ziggurat();
    let mut x = Vec::with_capacity(n * dim);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let c = i % classes;
        for j in 0..dim {
            let pixel = templates[c][j] + 0.5 * zig.sample(rng);
            x.push(pixel.clamp(-2.0, 2.0));
        }
        labels.push(c);
    }
    Dataset::new(
        x,
        Targets::Classes {
            labels,
            num_classes: classes,
        },
        dim,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    /// One draw from the shipped sampler.
    fn standard_normal(rng: &mut StdRng) -> f64 {
        ziggurat().sample(rng)
    }

    #[test]
    fn linear_regression_shapes() {
        let d = linear_regression(50, 3, 0.1, &mut rng());
        assert_eq!(d.len(), 50);
        assert_eq!(d.dim(), 3);
        assert!(d.num_classes().is_none());
    }

    /// The generator as it was before its targets became a batched
    /// ordered fold: one serial `.sum()` per sample, drawn in place.
    fn linear_regression_serial(n: usize, dim: usize, noise: f64, rng: &mut StdRng) -> Dataset {
        let w_star: Vec<f64> = (0..dim).map(|_| standard_normal(rng)).collect();
        let mut x = Vec::with_capacity(n * dim);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            x.extend((0..dim).map(|_| standard_normal(rng)));
            let xi = &x[i * dim..];
            let target: f64 = w_star.iter().zip(xi).map(|(w, v)| w * v).sum::<f64>();
            y.push(target + noise * standard_normal(rng));
        }
        Dataset::new(x, Targets::Regression(y), dim)
    }

    #[test]
    fn linear_regression_is_bitwise_the_serial_fold() {
        let bits = |d: &Dataset| -> Vec<u64> {
            (0..d.len())
                .flat_map(|i| {
                    let target = d.regression_target(i);
                    d.features_of(i).iter().copied().chain([target])
                })
                .map(f64::to_bits)
                .collect()
        };
        // Every `n % CHAINS` tail, `n < CHAINS` included, at dims on both
        // sides of a chunk edge.
        for dim in [1, 3, 4, 5, 64, 129] {
            for n in [1, 2, 3, 4, 5, 6, 7, 13, 64] {
                for (seed, noise) in [(3, 0.1), (4, 0.0), (5, 2.5)] {
                    let want =
                        linear_regression_serial(n, dim, noise, &mut StdRng::seed_from_u64(seed));
                    let got = linear_regression(n, dim, noise, &mut StdRng::seed_from_u64(seed));
                    assert_eq!(bits(&got), bits(&want), "n={n} dim={dim} seed={seed}");
                }
            }
        }
    }

    #[test]
    fn linear_regression_noiseless_is_consistent() {
        // With zero noise every target is exactly `w*ᵀx_i` on the row the
        // dataset stores. `w*` is not returned: recover it from the first
        // `dim` samples (a square solve) and check it on every sample.
        let (n, dim) = (60, 6);
        let d = linear_regression(n, dim, 0.0, &mut rng());
        let mut a: Vec<Vec<f64>> = (0..dim)
            .map(|i| {
                let mut row = d.features_of(i).to_vec();
                row.push(d.regression_target(i));
                row
            })
            .collect();
        for c in 0..dim {
            let p = (c..dim)
                .max_by(|&i, &j| a[i][c].abs().total_cmp(&a[j][c].abs()))
                .unwrap();
            a.swap(c, p);
            for r in 0..dim {
                if r != c {
                    let k = a[r][c] / a[c][c];
                    for j in c..=dim {
                        a[r][j] -= k * a[c][j];
                    }
                }
            }
        }
        let w: Vec<f64> = (0..dim).map(|c| a[c][dim] / a[c][c]).collect();
        let var = (0..n).map(|i| d.regression_target(i).powi(2)).sum::<f64>() / n as f64;
        assert!(var > 0.5, "targets degenerate: E[y²] {var}");
        for i in 0..n {
            let fit: f64 = w.iter().zip(d.features_of(i)).map(|(w, v)| w * v).sum();
            let y = d.regression_target(i);
            assert!((fit - y).abs() < 1e-9, "sample {i}: w·x {fit} vs y {y}");
        }
    }

    #[test]
    fn blobs_balanced_labels() {
        let d = gaussian_blobs(90, 2, 3, 3.0, &mut rng());
        let mut counts = [0usize; 3];
        for i in 0..90 {
            counts[d.class_of(i)] += 1;
        }
        assert_eq!(counts, [30, 30, 30]);
    }

    #[test]
    fn blobs_are_separated() {
        let d = gaussian_blobs(300, 4, 2, 8.0, &mut rng());
        // Class means should be far apart relative to unit noise.
        let mut means = vec![vec![0.0; 4]; 2];
        let mut counts = [0usize; 2];
        for i in 0..300 {
            let c = d.class_of(i);
            counts[c] += 1;
            for j in 0..4 {
                means[c][j] += d.features_of(i)[j];
            }
        }
        for c in 0..2 {
            for j in 0..4 {
                means[c][j] /= counts[c] as f64;
            }
        }
        let dist: f64 = means[0]
            .iter()
            .zip(&means[1])
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(dist > 4.0, "centers too close: {dist}");
    }

    #[test]
    fn image_like_shapes_and_range() {
        let d = image_like(40, 64, 10, &mut rng());
        assert_eq!(d.len(), 40);
        assert_eq!(d.dim(), 64);
        assert_eq!(d.num_classes(), Some(10));
        for i in 0..40 {
            for &p in d.features_of(i) {
                assert!((-2.0..=2.0).contains(&p));
            }
        }
    }

    #[test]
    fn image_like_classes_cycle() {
        let d = image_like(25, 8, 5, &mut rng());
        for i in 0..25 {
            assert_eq!(d.class_of(i), i % 5);
        }
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn image_like_one_class_rejected() {
        image_like(10, 4, 1, &mut rng());
    }

    #[test]
    #[should_panic(expected = "samples")]
    fn zero_samples_rejected() {
        linear_regression(0, 4, 0.0, &mut rng());
    }

    #[test]
    fn determinism_given_seed() {
        let a = image_like(10, 8, 2, &mut StdRng::seed_from_u64(5));
        let b = image_like(10, 8, 2, &mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
    }

    const DRAWS: usize = 1 << 18;

    fn draws(seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..DRAWS).map(|_| standard_normal(&mut rng)).collect()
    }

    #[test]
    fn ziggurat_layers_shrink_to_zero() {
        let zig = ziggurat();
        assert_eq!(zig.x[1], ZIG_R);
        assert_eq!(zig.x[256], 0.0);
        for i in 0..256 {
            assert!(zig.x[i] > zig.x[i + 1], "layer {i}");
            assert!(zig.f[i] < zig.f[i + 1] && zig.f[i + 1] <= 1.0, "layer {i}");
        }
    }

    #[test]
    fn standard_normal_moments() {
        let z = draws(7);
        let n = DRAWS as f64;
        let mean = z.iter().sum::<f64>() / n;
        let var = z.iter().map(|v| v * v).sum::<f64>() / n;
        let m4 = z.iter().map(|v| v.powi(4)).sum::<f64>() / n;
        // Five standard errors each: sqrt(1/n), sqrt(2/n), sqrt(96/n).
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.015, "variance {var}");
        assert!((m4 - 3.0).abs() < 0.1, "fourth moment {m4}");
    }

    #[test]
    fn standard_normal_tail_masses() {
        // P(|z| > k) = erfc(k/√2), half on each side. Only the tail branch
        // can return |z| > R (every layer's `x` stays inside its edge), so
        // the last row pins it; the wedge branch has its own test below.
        let z = draws(7);
        let n = DRAWS as f64;
        for (k, p) in [
            (0.25, 0.80259),
            (0.5, 0.61708),
            (1.0, 0.31731),
            (2.0, 0.04550),
            (3.0, 0.0026998),
            (ZIG_R, 2.5803e-4),
        ] {
            for (side, count) in [
                ("|z|", z.iter().filter(|v| v.abs() > k).count()),
                ("+z", z.iter().filter(|&&v| v > k).count()),
                ("-z", z.iter().filter(|&&v| v < -k).count()),
            ] {
                let p = if side == "|z|" { p } else { p / 2.0 };
                let (expected, sigma) = (n * p, (n * p * (1.0 - p)).sqrt());
                assert!(
                    (count as f64 - expected).abs() < 5.0 * sigma,
                    "{side} > {k}: {count} draws, expected {expected:.1} ± {sigma:.1}"
                );
            }
        }
    }

    #[test]
    fn standard_normal_fills_the_wedges() {
        // On [3, R) the density falls by a third to a half across each
        // layer's strip, so the wedge test supplies a large share of those
        // draws: without it this count falls 7σ short over 2^20 draws
        // (3.6σ over 2^18).
        let mut rng = StdRng::seed_from_u64(7);
        let n = 4 * DRAWS;
        let count = (0..n)
            .filter(|_| (3.0..ZIG_R).contains(&standard_normal(&mut rng).abs()))
            .count();
        let p = 0.0026998 - 2.5803e-4;
        let (expected, sigma) = (n as f64 * p, (n as f64 * p * (1.0 - p)).sqrt());
        assert!(
            (count as f64 - expected).abs() < 5.0 * sigma,
            "3 ≤ |z| < R: {count} draws, expected {expected:.1} ± {sigma:.1}"
        );
    }

    #[test]
    fn normal_tail_has_the_normal_shape_beyond_r() {
        // P(z > 4 | z > R) = Q(4)/Q(R) = 0.24548; the unrejected proposal
        // R + Exp(R) would give 0.28258, 22σ away over 2^16 draws.
        let mut rng = StdRng::seed_from_u64(7);
        let n = 1 << 16;
        let tail: Vec<f64> = (0..n).map(|_| normal_tail(&mut rng)).collect();
        assert!(tail.iter().all(|&t| t > ZIG_R && t.is_finite()));
        let p = 0.24548;
        let count = tail.iter().filter(|&&t| t > 4.0).count();
        let (expected, sigma) = (n as f64 * p, (n as f64 * p * (1.0 - p)).sqrt());
        assert!(
            (count as f64 - expected).abs() < 5.0 * sigma,
            "z > 4 | z > R: {count} of {n}, expected {expected:.1} ± {sigma:.1}"
        );
    }

    #[test]
    fn standard_normal_is_deterministic_per_seed() {
        let a = draws(3);
        assert_eq!(a, draws(3));
        assert_ne!(a, draws(4));
        assert!(a.iter().all(|v| v.is_finite()));
    }

    // The oracle: the sampler as it was before its wedge and tail moved
    // out of line — one loop, the tables looked up on every draw. The
    // shipped sampler has to match it bit for bit and word for word.

    fn oracle_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        let zig = ziggurat();
        loop {
            let bits = rng.next_u64();
            let i = (bits & 0xff) as usize;
            let u = (bits >> 11) as f64 * (1.0 / (1u64 << 52) as f64) - 1.0;
            let x = u * zig.x[i];
            if x.abs() < zig.x[i + 1] {
                return x;
            }
            if i == 0 {
                let t = oracle_normal_tail(rng);
                return if u < 0.0 { -t } else { t };
            }
            if zig.f[i + 1] + (zig.f[i] - zig.f[i + 1]) * rng.gen_range(0.0..1.0) < gauss(x) {
                return x;
            }
        }
    }

    fn oracle_normal_tail<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        loop {
            let t = rng.gen_range(f64::EPSILON..1.0).ln() / ZIG_R;
            let e = rng.gen_range(f64::EPSILON..1.0).ln();
            if -2.0 * e >= t * t {
                return ZIG_R - t;
            }
        }
    }

    fn oracle_linear_regression(n: usize, dim: usize, noise: f64, rng: &mut StdRng) -> Dataset {
        let w_star: Vec<f64> = (0..dim).map(|_| oracle_standard_normal(rng)).collect();
        let mut x = Vec::with_capacity(n * dim);
        let mut eps = Vec::with_capacity(n);
        for _ in 0..n {
            x.extend((0..dim).map(|_| oracle_standard_normal(rng)));
            eps.push(oracle_standard_normal(rng));
        }
        let mut y = vec![0.0; n];
        kernels::dot_ordered_each(&w_star, x.chunks_exact(dim), &mut y);
        for (yi, e) in y.iter_mut().zip(eps) {
            *yi += noise * e;
        }
        Dataset::new(x, Targets::Regression(y), dim)
    }

    fn oracle_gaussian_blobs(
        n: usize,
        dim: usize,
        classes: usize,
        separation: f64,
        rng: &mut StdRng,
    ) -> Dataset {
        let centers: Vec<Vec<f64>> = (0..classes)
            .map(|_| {
                let dir: Vec<f64> = (0..dim).map(|_| oracle_standard_normal(rng)).collect();
                let norm = dir.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-9);
                dir.into_iter().map(|v| v / norm * separation).collect()
            })
            .collect();
        let mut x = Vec::with_capacity(n * dim);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let c = i % classes;
            for j in 0..dim {
                x.push(centers[c][j] + oracle_standard_normal(rng));
            }
            labels.push(c);
        }
        let targets = Targets::Classes {
            labels,
            num_classes: classes,
        };
        Dataset::new(x, targets, dim)
    }

    fn oracle_image_like(n: usize, dim: usize, classes: usize, rng: &mut StdRng) -> Dataset {
        let templates: Vec<Vec<f64>> = (0..classes)
            .map(|_| {
                (0..dim)
                    .map(|_| {
                        if rng.gen_bool(0.2) {
                            rng.gen_range(0.5..1.5)
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect();
        let mut x = Vec::with_capacity(n * dim);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let c = i % classes;
            for j in 0..dim {
                let pixel = templates[c][j] + 0.5 * oracle_standard_normal(rng);
                x.push(pixel.clamp(-2.0, 2.0));
            }
            labels.push(c);
        }
        let targets = Targets::Classes {
            labels,
            num_classes: classes,
        };
        Dataset::new(x, targets, dim)
    }

    /// Counts the words drawn through it.
    struct Counting {
        rng: StdRng,
        words: u64,
    }

    impl RngCore for Counting {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            self.words += 1;
            self.rng.next_u64()
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                chunk.copy_from_slice(&self.next_u64().to_le_bytes()[..chunk.len()]);
            }
        }
    }

    #[test]
    fn split_sampler_is_bitwise_the_oracle() {
        for seed in [1, 7, 11, 4242] {
            let mut got_rng = Counting {
                rng: StdRng::seed_from_u64(seed),
                words: 0,
            };
            let mut want_rng = StdRng::seed_from_u64(seed);
            let (mut wedges, mut band, mut tails) = (0, 0, 0);
            for k in 0..1 << 20 {
                let before = got_rng.words;
                let got = ziggurat().sample(&mut got_rng);
                let want = oracle_standard_normal(&mut want_rng);
                assert_eq!(got.to_bits(), want.to_bits(), "seed {seed}, draw {k}");
                // One word is the inner box. Exactly two is a first try
                // accepted by its wedge: the tail takes at least three,
                // and so does a retry.
                wedges += usize::from(got_rng.words - before == 2);
                band += usize::from((3.0..ZIG_R).contains(&got.abs()));
                tails += usize::from(got.abs() > ZIG_R);
            }
            assert_eq!(got_rng.rng, want_rng, "seed {seed}: other words consumed");
            // Expected ≈ 8,000 wedge acceptances, ≈ 2,560 draws in [3, R)
            // and ≈ 270 beyond R per 2^20 draws.
            assert!(wedges > 1000, "seed {seed}: {wedges} wedge acceptances");
            assert!(band > 1000, "seed {seed}: {band} draws in [3, R)");
            assert!(tails > 50, "seed {seed}: {tails} tail draws");
        }
    }

    /// Every feature and target of `d` as bits, labels as themselves.
    fn dataset_bits(d: &Dataset) -> Vec<u64> {
        let targets: Vec<u64> = match d.targets() {
            Targets::Regression(y) => y.iter().map(|v| v.to_bits()).collect(),
            Targets::Classes {
                labels,
                num_classes,
            } => labels
                .iter()
                .map(|&c| c as u64)
                .chain([*num_classes as u64])
                .collect(),
        };
        (0..d.len())
            .flat_map(|i| d.features_of(i).iter().map(|v| v.to_bits()))
            .chain(targets)
            .collect()
    }

    #[test]
    fn datasets_at_workload_shapes_are_bitwise_the_oracle() {
        type Generator = fn(usize, usize, &mut StdRng) -> Dataset;
        let generators: [(&str, Generator, Generator); 3] = [
            (
                "linear_regression",
                |n, dim, rng| linear_regression(n, dim, 0.01, rng),
                |n, dim, rng| oracle_linear_regression(n, dim, 0.01, rng),
            ),
            (
                "gaussian_blobs",
                |n, dim, rng| gaussian_blobs(n, dim, 10, 3.0, rng),
                |n, dim, rng| oracle_gaussian_blobs(n, dim, 10, 3.0, rng),
            ),
            (
                "image_like",
                |n, dim, rng| image_like(n, dim, 10, rng),
                |n, dim, rng| oracle_image_like(n, dim, 10, rng),
            ),
        ];
        for (n, dim) in [(648, 128), (960, 64), (8, 8192), (4, 4096), (1024, 64)] {
            for (name, shipped, oracle) in generators {
                for seed in [1, 2, 3] {
                    let mut got_rng = StdRng::seed_from_u64(seed);
                    let mut want_rng = StdRng::seed_from_u64(seed);
                    let got = shipped(n, dim, &mut got_rng);
                    let want = oracle(n, dim, &mut want_rng);
                    assert!(
                        dataset_bits(&got) == dataset_bits(&want),
                        "{name} {n}x{dim}, seed {seed}: datasets differ"
                    );
                    assert_eq!(got_rng, want_rng, "{name} {n}x{dim}, seed {seed}");
                }
            }
        }
    }
}
