//! Linear regression with squared loss.

use hetgc_coding::kernels;
use rand::RngCore;

use crate::dataset::Dataset;
use crate::model::{uniform_init, FillPartial, Model, PartialSink};

/// Samples whose residuals go through one stack buffer: enough to fill
/// [`kernels::CHAINS`] four times, few enough that their feature rows are
/// still in L1 at `d = 128` when the accumulation reads them again
/// (measured: 16 and 32 tie, 64 is 5 % slower), and off the heap — the
/// data plane allocates nothing per round.
const GROUP: usize = 16;

/// Linear regression: `ŷ = wᵀx + b`, loss `½(ŷ − y)²` summed over samples.
///
/// Parameters are laid out `[w_0 … w_{d−1}, b]`.
///
/// # Example
///
/// ```
/// use hetgc_ml::{synthetic, LinearRegression, Model};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let data = synthetic::linear_regression(100, 3, 0.0, &mut rng);
/// let model = LinearRegression::new(3);
/// let params = model.init_params(&mut rng);
/// let g = model.gradient(&params, &data, (0, 100));
/// assert_eq!(g.len(), 4); // 3 weights + bias
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinearRegression {
    dim: usize,
}

impl LinearRegression {
    /// A linear model over `dim` features.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        LinearRegression { dim }
    }

    /// The residuals `(wᵀx_i + b) − y_i` of every sample of `ranges`, in
    /// order, into `out`: [`kernels::CHAINS`] predictions side by side,
    /// each its own left-to-right fold, the chains running on across
    /// range boundaries.
    fn residuals_into(
        &self,
        params: &[f64],
        data: &Dataset,
        ranges: &[(usize, usize)],
        out: &mut [f64],
    ) {
        let (w, b) = (&params[..self.dim], params[self.dim]);
        let samples = || ranges.iter().flat_map(|&(lo, hi)| lo..hi);
        kernels::dot_ordered_each(w, samples().map(|i| data.features_of(i)), out);
        for (r, i) in out.iter_mut().zip(samples()) {
            *r = (*r + b) - data.regression_target(i);
        }
    }

    /// `out += Σ_i r_i · [x_i, 1]` over the samples of `[lo, hi)`, every
    /// coordinate adding its samples in index order, [`kernels::CHAINS`]
    /// samples to one pass over `out`. With `fresh`, `out` is overwritten
    /// as if it held zeros: the first pass writes instead of adding.
    fn accumulate(
        &self,
        data: &Dataset,
        (lo, hi): (usize, usize),
        residuals: &[f64],
        out: &mut [f64],
        mut fresh: bool,
    ) {
        fn pass<const K: usize>(fresh: &mut bool, r: [f64; K], x: [&[f64]; K], y: &mut [f64]) {
            if std::mem::take(fresh) {
                kernels::axpy_rows_zeroed(r, x, y);
            } else {
                kernels::axpy_rows(r, x, y);
            }
        }
        let (weights, bias) = out.split_at_mut(self.dim);
        if fresh {
            bias[0] = 0.0;
        }
        for r in residuals {
            bias[0] += r;
        }
        let mut rows = (lo..hi).map(|i| data.features_of(i));
        let mut row = || rows.next().expect("a residual per sample");
        let mut blocks = residuals.chunks_exact(kernels::CHAINS);
        for r in blocks.by_ref() {
            let r: [f64; kernels::CHAINS] = r.try_into().expect("chunks_exact");
            pass(&mut fresh, r, r.map(|_| row()), weights);
        }
        for &r in blocks.remainder() {
            pass(&mut fresh, [r], [row()], weights);
        }
        if fresh {
            weights.fill(0.0);
        }
    }

    /// `acc += coef · g`, `g` what [`Self::accumulate`] writes fresh for
    /// the samples from `lo` on — at most [`kernels::CHAINS`] of them, so
    /// `g` is one pass there and here it is formed and added in that pass
    /// ([`kernels::axpy_rows_fold`]): per coordinate the same sums in the
    /// same order as writing `g` and then `axpy`, without the buffer.
    fn fold(&self, data: &Dataset, lo: usize, residuals: &[f64], coef: f64, acc: &mut [f64]) {
        fn pass<const K: usize>(coef: f64, r: &[f64], x: [&[f64]; K], weights: &mut [f64]) {
            let r: [f64; K] = r.try_into().expect("a residual per sample");
            kernels::axpy_rows_fold(coef, r, x, weights);
        }
        let (weights, bias) = acc.split_at_mut(self.dim);
        let mut g = 0.0;
        for r in residuals {
            g += r;
        }
        bias[0] += coef * g;
        let x = |c| data.features_of(lo + c);
        const _: () = assert!(kernels::CHAINS == 4);
        match residuals.len() {
            0 => pass::<0>(coef, residuals, [], weights),
            1 => pass(coef, residuals, [x(0)], weights),
            2 => pass(coef, residuals, [x(0), x(1)], weights),
            3 => pass(coef, residuals, [x(0), x(1), x(2)], weights),
            4 => pass(coef, residuals, [x(0), x(1), x(2), x(3)], weights),
            n => unreachable!("{n} samples fold in more than one pass"),
        }
    }

    fn check(&self, params: &[f64], data: &Dataset, (lo, hi): (usize, usize)) {
        assert_eq!(params.len(), self.num_params(), "parameter count mismatch");
        assert_eq!(data.dim(), self.dim, "dataset dimension mismatch");
        assert!(lo <= hi && hi <= data.len(), "bad range [{lo}, {hi})");
    }
}

impl Model for LinearRegression {
    fn num_params(&self) -> usize {
        self.dim + 1
    }

    fn loss(&self, params: &[f64], data: &Dataset, range: (usize, usize)) -> f64 {
        self.check(params, data, range);
        // One fold over the samples in index order, fed a group at a time.
        (range.0..range.1)
            .step_by(GROUP)
            .flat_map(|lo| {
                let group = (lo, range.1.min(lo + GROUP));
                let mut residuals = [0.0; GROUP];
                self.residuals_into(params, data, &[group], &mut residuals[..group.1 - lo]);
                residuals.into_iter().take(group.1 - lo)
            })
            .map(|r| 0.5 * r * r)
            .sum()
    }

    fn gradient(&self, params: &[f64], data: &Dataset, range: (usize, usize)) -> Vec<f64> {
        let mut grad = vec![0.0; self.num_params()];
        self.gradient_into(params, data, range, &mut grad);
        grad
    }

    fn gradient_into(
        &self,
        params: &[f64],
        data: &Dataset,
        range: (usize, usize),
        out: &mut [f64],
    ) {
        self.check(params, data, range);
        assert_eq!(out.len(), self.num_params(), "gradient buffer length");
        out.fill(0.0);
        let mut residuals = [0.0; GROUP];
        for lo in (range.0..range.1).step_by(GROUP) {
            let group = (lo, range.1.min(lo + GROUP));
            let residuals = &mut residuals[..group.1 - lo];
            self.residuals_into(params, data, &[group], residuals);
            self.accumulate(data, group, residuals, out, false);
        }
    }

    fn for_each_partial(
        &self,
        params: &[f64],
        data: &Dataset,
        ranges: &[(usize, usize)],
        visit: &mut dyn FnMut(usize, &FillPartial<'_>),
    ) {
        for &range in ranges {
            self.check(params, data, range);
        }
        let mut residuals = [0.0; GROUP];
        let mut next = 0;
        while next < ranges.len() {
            // The longest run of whole ranges whose samples fit the
            // buffer: their predictions share chains.
            let first = next;
            let mut samples = 0;
            while let Some(&(lo, hi)) = ranges.get(next).filter(|r| samples + (r.1 - r.0) <= GROUP)
            {
                samples += hi - lo;
                next += 1;
            }
            if next == first {
                // Longer than the buffer by itself, so it fills the
                // chains by itself.
                visit(first, &|sink| {
                    sink.write_with(|out| self.gradient_into(params, data, ranges[first], out))
                });
                next += 1;
                continue;
            }
            let run = &ranges[first..next];
            self.residuals_into(params, data, run, &mut residuals[..samples]);
            let mut rest = &residuals[..samples];
            for (p, &range) in (first..).zip(run) {
                let (own, others) = rest.split_at(range.1 - range.0);
                rest = others;
                visit(p, &|sink| match sink {
                    PartialSink::Fold { coef, acc, .. } if own.len() <= kernels::CHAINS => {
                        assert_eq!(acc.len(), self.num_params(), "gradient buffer length");
                        self.fold(data, range.0, own, coef, acc);
                    }
                    sink => sink.write_with(|out| {
                        assert_eq!(out.len(), self.num_params(), "gradient buffer length");
                        self.accumulate(data, range, own, out, true);
                    }),
                });
            }
        }
    }

    fn init_params(&self, rng: &mut dyn RngCore) -> Vec<f64> {
        uniform_init(self.num_params(), 0.1, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Targets;
    use crate::model::numeric_gradient;
    use crate::synthetic;
    use crate::testing::{self, Wild};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny() -> Dataset {
        Dataset::new(
            vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0],
            Targets::Regression(vec![2.0, 3.0, 5.0]),
            2,
        )
    }

    /// The per-sample loops `loss` and `gradient_into` ran before the
    /// ordered multi-dot, verbatim — one fold per sample, one pass over
    /// `out` per sample: the reference of the bitwise contract.
    fn scalar_loops(
        dim: usize,
        params: &[f64],
        data: &Dataset,
        (lo, hi): (usize, usize),
    ) -> (f64, Vec<f64>) {
        let predict = |x: &[f64]| testing::fold(&params[..dim], x) + params[dim];
        let loss = (lo..hi)
            .map(|i| {
                let r = predict(data.features_of(i)) - data.regression_target(i);
                0.5 * r * r
            })
            .sum();
        let mut out = vec![0.0; dim + 1];
        for i in lo..hi {
            let x = data.features_of(i);
            let r = predict(x) - data.regression_target(i);
            for (gj, xj) in out[..dim].iter_mut().zip(x) {
                *gj += r * xj;
            }
            out[dim] += r;
        }
        (loss, out)
    }

    #[test]
    fn bitwise_equal_to_the_scalar_loops() {
        for dim in [1, 3, 128, 129] {
            for wild in Wild::ALL {
                let model = LinearRegression::new(dim);
                let data = testing::dataset(testing::ragged_ranges().1, dim, None, wild);
                let params = testing::params(&model, wild);
                testing::assert_model_matches(
                    &model,
                    &params,
                    &data,
                    &|range| scalar_loops(dim, &params, &data, range),
                    &format!("d = {dim}, wild {wild:?}"),
                );
            }
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let d = tiny();
        let m = LinearRegression::new(2);
        let params = [0.3, -0.7, 0.1];
        let g = m.gradient(&params, &d, (0, 3));
        let ng = numeric_gradient(&m, &params, &d, (0, 3), 1e-6);
        for (a, b) in g.iter().zip(&ng) {
            assert!((a - b).abs() < 1e-5, "{g:?} vs {ng:?}");
        }
    }

    #[test]
    fn partial_gradients_sum_to_full() {
        let d = tiny();
        let m = LinearRegression::new(2);
        let params = [0.5, 0.5, 0.0];
        let full = m.gradient(&params, &d, (0, 3));
        let a = m.gradient(&params, &d, (0, 1));
        let b = m.gradient(&params, &d, (1, 3));
        for j in 0..3 {
            assert!((full[j] - a[j] - b[j]).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_loss_at_exact_solution() {
        // y = 2x₀ + 3x₁ + 0: tiny() targets are exactly that.
        let d = tiny();
        let m = LinearRegression::new(2);
        let loss = m.loss(&[2.0, 3.0, 0.0], &d, (0, 3));
        assert!(loss < 1e-20);
        let g = m.gradient(&[2.0, 3.0, 0.0], &d, (0, 3));
        assert!(g.iter().all(|x| x.abs() < 1e-10));
    }

    #[test]
    fn sgd_recovers_ground_truth() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = synthetic::linear_regression(500, 3, 0.0, &mut rng);
        let m = LinearRegression::new(3);
        let mut params = m.init_params(&mut rng);
        let n = d.len() as f64;
        for _ in 0..300 {
            let mut g = m.gradient(&params, &d, (0, d.len()));
            for gi in &mut g {
                *gi /= n;
            }
            for (p, gi) in params.iter_mut().zip(&g) {
                *p -= 0.3 * gi;
            }
        }
        let loss = m.loss(&params, &d, (0, d.len())) / n;
        assert!(loss < 1e-4, "final loss {loss}");
    }

    #[test]
    fn gradient_into_overwrites_and_matches() {
        let d = tiny();
        let m = LinearRegression::new(2);
        let params = [0.3, -0.7, 0.1];
        let g = m.gradient(&params, &d, (0, 3));
        let mut out = vec![f64::NAN; 3]; // dirty buffer must be overwritten
        m.gradient_into(&params, &d, (0, 3), &mut out);
        assert_eq!(out, g);
    }

    #[test]
    fn empty_range_is_zero() {
        let d = tiny();
        let m = LinearRegression::new(2);
        assert_eq!(m.loss(&[0.0; 3], &d, (1, 1)), 0.0);
        assert!(m.gradient(&[0.0; 3], &d, (2, 2)).iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "parameter count")]
    fn wrong_param_len_panics() {
        LinearRegression::new(2).loss(&[0.0; 2], &tiny(), (0, 1));
    }

    #[test]
    #[should_panic(expected = "bad range")]
    fn bad_range_panics() {
        LinearRegression::new(2).loss(&[0.0; 3], &tiny(), (0, 9));
    }

    #[test]
    fn accessors() {
        let m = LinearRegression::new(4);
        assert_eq!(m.dim, 4);
        assert_eq!(m.num_params(), 5);
    }
}
