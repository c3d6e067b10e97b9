//! The model contract.

use hetgc_coding::kernels;
use rand::Rng;

use crate::dataset::Dataset;

/// What [`Model::for_each_partial`] hands its visitor for each range:
/// `fill(sink)` delivers that range's gradient `g` into `sink`.
pub type FillPartial<'a> = dyn Fn(PartialSink<'_>) + 'a;

/// Where one range's gradient `g` goes.
#[derive(Debug)]
pub enum PartialSink<'s> {
    /// Overwrite `out` (length [`Model::num_params`]) with `g`: a row of a
    /// partial-gradient block, or the buffer whose norm the simulator takes
    /// on approximate rounds.
    Write(&'s mut [f64]),
    /// `acc[j] += coef · g[j]`, bitwise `g` written into a buffer and then
    /// `kernels::axpy(coef, g, acc)`: a worker's coded gradient, or the
    /// simulator's decoded one (`coef = (aᵀB)_j`). A model
    /// that forms `g` in one pass over the coordinates adds it here in
    /// that pass; otherwise [`PartialSink::write_with`] writes `g` into
    /// `scratch` (same length as `acc`, contents ignored) first.
    Fold {
        /// The range's coefficient in the worker's row of `B`.
        coef: f64,
        /// The coded gradient being accumulated.
        acc: &'s mut [f64],
        /// A buffer an unfused implementation may overwrite.
        scratch: &'s mut [f64],
    },
}

impl PartialSink<'_> {
    /// Delivers `g` through `write`, which overwrites a buffer with it:
    /// into `out`, or into `scratch` and then `axpy` into `acc`. The
    /// unfused path — the trait's default, and a model's fallback for
    /// ranges it cannot fold in one pass.
    pub fn write_with(self, write: impl FnOnce(&mut [f64])) {
        match self {
            PartialSink::Write(out) => write(out),
            PartialSink::Fold { coef, acc, scratch } => {
                write(scratch);
                kernels::axpy(coef, scratch, acc);
            }
        }
    }
}

/// A differentiable model over flat `f64` parameter vectors.
///
/// The central contract for gradient coding is **additivity**: for disjoint
/// sample ranges `R₁, R₂`, `gradient(R₁ ∪ R₂) = gradient(R₁) + gradient(R₂)`
/// — which holds because both [`Model::loss`] and [`Model::gradient`]
/// return *sums* over samples, not means (the trainer normalizes once at
/// the end). The test suites of every implementation assert this property
/// together with a finite-difference check via [`numeric_gradient`].
///
/// # Numeric contract
///
/// Results are pinned to the bit, not to a tolerance:
/// `tests/golden_contract.rs` holds decoded gradients and two training
/// runs to recorded constants (the simulated BSP run's gradient is the
/// coefficient fold `Σ_j (aᵀB)_j · g_j`, whose reassociation of the
/// master's decode was re-pinned there once, deliberately), and each
/// model's `bitwise_equal_to_…` test holds it to the scalar loops these
/// two rules describe, at every shape:
///
/// * a prediction (`wᵀx`, a logit, a hidden unit) is a **left-to-right
///   fold over features**, as `iter().zip().map().sum::<f64>()` computes
///   it;
/// * a gradient **accumulates samples in index order per coordinate**:
///   `g_j = ((0 + r₀x₀ⱼ) + r₁x₁ⱼ) + …`, and a loss adds its samples in
///   index order;
/// * a gradient **folded into a coded one** ([`PartialSink::Fold`]) is
///   that `g_j`, then `acc_j += coef · g_j` — never `coef` distributed
///   over the samples, never the `0 +` dropped (it turns an all-`−0.0`
///   sum into `+0.0`).
///
/// An implementation may *interleave independent folds* — several
/// samples, classes or hidden units side by side, which is what
/// `hetgc_linalg::kernels::dot_ordered_each` does to hide the latency of a
/// fold's one dependent add per feature — and may *fuse passes* over the
/// coordinates (form `g_j` and add it to `acc_j` in one, as
/// `kernels::axpy_rows_fold` does), but must never reassociate one: no
/// lane accumulators, no FMA, no pairwise sums.
///
/// # Wrappers
///
/// A type that implements `Model` by delegating to another model **must
/// forward every provided method** ([`Model::gradient_into`],
/// [`Model::for_each_partial`]), not only the required ones. A provided
/// method left to its default still returns the same bits — the default
/// is the definition — so no test notices; the wrapped model's batched
/// kernel is silently skipped and only the perf ledger shows it.
pub trait Model {
    /// Total number of parameters.
    fn num_params(&self) -> usize;

    /// Sum of per-sample losses over `range = [lo, hi)`.
    ///
    /// # Panics
    ///
    /// Implementations panic on parameter/dataset shape mismatches and
    /// out-of-range `range` — these are caller bugs, not runtime
    /// conditions.
    fn loss(&self, params: &[f64], data: &Dataset, range: (usize, usize)) -> f64;

    /// Sum of per-sample loss gradients over `range = [lo, hi)`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Model::loss`].
    fn gradient(&self, params: &[f64], data: &Dataset, range: (usize, usize)) -> Vec<f64>;

    /// [`Model::gradient`] into a caller-provided buffer (a
    /// `GradientBlock` row or a pooled scratch vector), fully overwriting
    /// `out` — the zero-copy data-plane entry point. The default routes
    /// through the allocating [`Model::gradient`]; models whose gradient
    /// is a streaming accumulation (e.g. `LinearRegression`,
    /// `SoftmaxRegression`) override it to write in place.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Model::loss`], plus `out.len() !=
    /// num_params()`.
    fn gradient_into(
        &self,
        params: &[f64],
        data: &Dataset,
        range: (usize, usize),
        out: &mut [f64],
    ) {
        let g = self.gradient(params, data, range);
        assert_eq!(out.len(), g.len(), "gradient buffer length mismatch");
        out.copy_from_slice(&g);
    }

    /// Visits the gradient of every range of `ranges`, in order — the one
    /// batched entry point under [`crate::partial_gradients_into`] (a
    /// `k × d` block), `hetgc_runtime::compute_coded`
    /// (`Σ_p coef_p · ∇L(range_p)` on every worker) and the simulated
    /// engines' decode (`Σ_j (aᵀB)_j · ∇L(range_j)`).
    ///
    /// `visit(p, fill)` is called once per range; `fill(sink)` delivers
    /// bitwise what [`Model::gradient_into`] writes for `ranges[p]` into
    /// the [`PartialSink`] the visitor picks: a block row to overwrite, or
    /// a coded gradient to fold it into.
    ///
    /// The default computes each range on its own, unfused
    /// ([`PartialSink::write_with`]). A model overrides it when work can
    /// be shared *across* ranges — with one sample per partition (`n = k`)
    /// a range alone has no second fold to interleave with, so
    /// `LinearRegression` predicts all the ranges' samples together first
    /// — or when it can fold a range's gradient in the pass that forms it.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Model::gradient_into`], for any range, with
    /// the sink's buffers in place of `out`.
    fn for_each_partial(
        &self,
        params: &[f64],
        data: &Dataset,
        ranges: &[(usize, usize)],
        visit: &mut dyn FnMut(usize, &FillPartial<'_>),
    ) {
        for (p, &range) in ranges.iter().enumerate() {
            visit(p, &|sink| {
                sink.write_with(|out| self.gradient_into(params, data, range, out))
            });
        }
    }

    /// Fresh parameters (small random values; exact scheme per model).
    fn init_params(&self, rng: &mut dyn rand::RngCore) -> Vec<f64>;
}

/// Central-difference numerical gradient, for verifying [`Model::gradient`]
/// implementations in tests: `∂L/∂θ_j ≈ (L(θ+εe_j) − L(θ−εe_j)) / 2ε`.
pub fn numeric_gradient<M: Model + ?Sized>(
    model: &M,
    params: &[f64],
    data: &Dataset,
    range: (usize, usize),
    eps: f64,
) -> Vec<f64> {
    let mut theta = params.to_vec();
    let mut grad = vec![0.0; params.len()];
    for j in 0..params.len() {
        let orig = theta[j];
        theta[j] = orig + eps;
        let up = model.loss(&theta, data, range);
        theta[j] = orig - eps;
        let down = model.loss(&theta, data, range);
        theta[j] = orig;
        grad[j] = (up - down) / (2.0 * eps);
    }
    grad
}

/// Uniform random init in `[-scale, scale]` — shared by model impls.
pub(crate) fn uniform_init(n: usize, scale: f64, rng: &mut dyn rand::RngCore) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(-scale..scale)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Targets;

    /// A deliberately trivial model for exercising the trait machinery:
    /// L(θ) = Σ_i (θ₀ − y_i)².
    struct ConstModel;

    impl Model for ConstModel {
        fn num_params(&self) -> usize {
            1
        }

        fn loss(&self, params: &[f64], data: &Dataset, (lo, hi): (usize, usize)) -> f64 {
            (lo..hi)
                .map(|i| (params[0] - data.regression_target(i)).powi(2))
                .sum()
        }

        fn gradient(&self, params: &[f64], data: &Dataset, (lo, hi): (usize, usize)) -> Vec<f64> {
            vec![(lo..hi)
                .map(|i| 2.0 * (params[0] - data.regression_target(i)))
                .sum()]
        }

        fn init_params(&self, rng: &mut dyn rand::RngCore) -> Vec<f64> {
            uniform_init(1, 0.1, rng)
        }
    }

    fn data() -> Dataset {
        Dataset::new(
            vec![0.0; 4],
            Targets::Regression(vec![1.0, 2.0, 3.0, 4.0]),
            1,
        )
    }

    #[test]
    fn numeric_gradient_matches_analytic() {
        let d = data();
        let g = ConstModel.gradient(&[0.5], &d, (0, 4));
        let ng = numeric_gradient(&ConstModel, &[0.5], &d, (0, 4), 1e-6);
        assert!((g[0] - ng[0]).abs() < 1e-6, "{} vs {}", g[0], ng[0]);
    }

    #[test]
    fn gradient_additivity() {
        let d = data();
        let full = ConstModel.gradient(&[0.5], &d, (0, 4));
        let left = ConstModel.gradient(&[0.5], &d, (0, 2));
        let right = ConstModel.gradient(&[0.5], &d, (2, 4));
        assert!((full[0] - left[0] - right[0]).abs() < 1e-12);
    }

    #[test]
    fn init_in_range() {
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let p = ConstModel.init_params(&mut rng);
        assert_eq!(p.len(), 1);
        assert!(p[0].abs() <= 0.1);
    }

    #[test]
    fn trait_object_usable() {
        let d = data();
        let m: &dyn Model = &ConstModel;
        assert_eq!(m.num_params(), 1);
        let g = numeric_gradient(m, &[0.0], &d, (0, 4), 1e-6);
        assert_eq!(g.len(), 1);
    }
}
