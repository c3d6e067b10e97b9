//! Glue between models and the coding layer: per-partition partial
//! gradients.
//!
//! The paper's framework (§III-A) needs `g_j` — the gradient over data
//! partition `D_j` — for each partition a worker holds, which the worker
//! then encodes as `g̃ = Σ_j b_j·g_j`. [`partial_gradients`] computes the
//! `g_j` from contiguous sample ranges; by the additivity contract of
//! [`Model`], `Σ_j g_j` equals the full-dataset gradient exactly.

use hetgc_coding::GradientBlock;

use crate::dataset::Dataset;
use crate::model::{Model, PartialSink};

/// Computes the partial gradient for each `[lo, hi)` range in `ranges`
/// into a caller-provided [`GradientBlock`] — row `j` receives the
/// gradient of `ranges[j]`, written in place through
/// [`Model::for_each_partial`] (so a model that batches across ranges does
/// so here too). The block is reshaped to `ranges.len() × num_params` (reusing its
/// allocation), so a block held across rounds makes the whole
/// partial-gradient pass allocation-free.
pub fn partial_gradients_into<M: Model + ?Sized>(
    model: &M,
    params: &[f64],
    data: &Dataset,
    ranges: &[(usize, usize)],
    block: &mut GradientBlock,
) {
    let d = model.num_params();
    if block.rows() != ranges.len() || block.dim() != d {
        block.reset(ranges.len(), d);
    }
    model.for_each_partial(params, data, ranges, &mut |j, fill| {
        fill(PartialSink::Write(block.row_mut(j)))
    });
}

/// Computes the partial gradient for each `[lo, hi)` range in `ranges`.
///
/// Ranges typically come from `hetgc_cluster::PartitionAssignment::iter`.
/// Only the listed ranges are computed — a worker passes just its own
/// partitions.
///
/// # Panics
///
/// Panics (inside the model) on invalid ranges.
pub fn partial_gradients<M: Model + ?Sized>(
    model: &M,
    params: &[f64],
    data: &Dataset,
    ranges: &[(usize, usize)],
) -> Vec<Vec<f64>> {
    ranges
        .iter()
        .map(|&r| model.gradient(params, data, r))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearRegression;
    use crate::synthetic;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn partials_sum_to_full_gradient() {
        let mut rng = StdRng::seed_from_u64(8);
        let data = synthetic::linear_regression(20, 3, 0.1, &mut rng);
        let model = LinearRegression::new(3);
        let params = model.init_params(&mut rng);
        let ranges = [(0usize, 5usize), (5, 12), (12, 20)];
        let partials = partial_gradients(&model, &params, &data, &ranges);
        assert_eq!(partials.len(), 3);
        let total = partials
            .iter()
            .fold(vec![0.0; model.num_params()], |mut acc, g| {
                acc.iter_mut().zip(g).for_each(|(a, v)| *a += v);
                acc
            });
        let full = model.gradient(&params, &data, (0, 20));
        for (a, b) in total.iter().zip(&full) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn subset_of_ranges_only() {
        let mut rng = StdRng::seed_from_u64(9);
        let data = synthetic::linear_regression(10, 2, 0.0, &mut rng);
        let model = LinearRegression::new(2);
        let params = vec![0.0; 3];
        let partials = partial_gradients(&model, &params, &data, &[(3, 7)]);
        assert_eq!(partials.len(), 1);
        assert_eq!(partials[0].len(), 3);
    }

    #[test]
    fn partials_into_matches_allocating_path_bitwise() {
        let mut rng = StdRng::seed_from_u64(10);
        let data = synthetic::linear_regression(24, 3, 0.1, &mut rng);
        let model = LinearRegression::new(3);
        let params = model.init_params(&mut rng);
        let ranges = [(0usize, 7usize), (7, 15), (15, 24)];
        let legacy = partial_gradients(&model, &params, &data, &ranges);
        let mut block = GradientBlock::new(0, 0);
        partial_gradients_into(&model, &params, &data, &ranges, &mut block);
        assert_eq!((block.rows(), block.dim()), (3, 4));
        for (j, row) in legacy.iter().enumerate() {
            assert_eq!(block.row(j), row.as_slice(), "partition {j}");
        }
        // A dirty block of the right shape is fully overwritten, not
        // accumulated into.
        block.row_mut(1)[0] = f64::NAN;
        partial_gradients_into(&model, &params, &data, &ranges, &mut block);
        assert_eq!(block.row(1), legacy[1].as_slice());
    }
}
