//! Free functions on `&[f64]` slices.
//!
//! Gradients in the ML substrate are flat `Vec<f64>` buffers; encoding
//! (`g̃_i = Σ_j b_ij·g_j`) and decoding (`g = Σ_i a_i·g̃_i`) are repeated
//! scaled accumulations. These helpers keep that code readable and give
//! the property tests a single algebra to target.
//!
//! The hot operations (`dot`, `axpy`, `scale`, the norms) forward to the
//! chunked kernels in [`crate::kernels`]; see that module for the
//! vectorization and bitwise-equivalence contract. In particular `axpy` no longer special-cases `alpha == 0.0`:
//! an earlier version returned early, which silently dropped NaN/±inf
//! propagation from `x` (`0 · NaN` is NaN, not `0`) and made the scalar
//! and chunked paths diverge bitwise on non-finite gradients.

use crate::kernels;

/// Dot product `Σ a_i·b_i`.
///
/// Accumulates over [`kernels::LANES`] partial sums (deterministic, but
/// reassociated relative to a left-to-right fold).
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Example
/// ```
/// assert_eq!(hetgc_linalg::vec_ops::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    kernels::dot(a, b)
}

/// In-place scaled accumulation: `y += alpha * x` (BLAS `axpy`).
///
/// Exactly one multiply-add per element, with **no** `alpha == 0.0`
/// shortcut: non-finite values in `x` propagate (`0 · NaN` is NaN), and
/// the result is bitwise-identical to the scalar loop.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    kernels::axpy(alpha, x, y);
}

/// In-place scaling: `x *= alpha`.
pub fn scale(alpha: f64, x: &mut [f64]) {
    kernels::scale(alpha, x);
}

/// Euclidean norm `|x|₂` (lane-accumulated, like [`dot`]).
pub fn norm2(x: &[f64]) -> f64 {
    kernels::norm2(x)
}

/// Maximum absolute component `|x|_∞`.
pub fn norm_inf(x: &[f64]) -> f64 {
    kernels::norm_inf(x)
}

/// Number of non-zero entries — the `ℓ₀` "norm" `‖b‖₀` used throughout the
/// paper to count how many partitions a worker computes.
pub fn l0_norm(x: &[f64]) -> usize {
    x.iter().filter(|&&v| v != 0.0).count()
}

/// Indices of non-zero entries — `supp(b)` in the paper's notation.
pub fn support(x: &[f64]) -> Vec<usize> {
    x.iter()
        .enumerate()
        .filter(|(_, &v)| v != 0.0)
        .map(|(i, _)| i)
        .collect()
}

/// Maximum absolute componentwise difference between two vectors.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "max_abs_diff: length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_len_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn axpy_zero_alpha_propagates_non_finite() {
        // Finite inputs: alpha == 0 leaves y unchanged (x·0 == 0 exactly).
        let mut y = vec![1.0, 2.0];
        axpy(0.0, &[100.0, 100.0], &mut y);
        assert_eq!(y, vec![1.0, 2.0]);
        // Non-finite inputs: the old early-return hid these; the pinned
        // contract is IEEE-754 propagation.
        let mut y = vec![1.0, 2.0, 3.0];
        axpy(0.0, &[f64::NAN, f64::INFINITY, 5.0], &mut y);
        assert!(y[0].is_nan());
        assert!(y[1].is_nan());
        assert_eq!(y[2], 3.0);
    }

    #[test]
    fn scale_in_place() {
        let mut x = vec![1.0, -2.0];
        scale(-3.0, &mut x);
        assert_eq!(x, vec![-3.0, 6.0]);
    }

    #[test]
    fn norms() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        assert_eq!(norm_inf(&[1.0, -7.0, 3.0]), 7.0);
        assert_eq!(norm2(&[]), 0.0);
        assert_eq!(norm_inf(&[]), 0.0);
    }

    #[test]
    fn l0_and_support() {
        let v = [0.0, 1.5, 0.0, -2.0, 0.0];
        assert_eq!(l0_norm(&v), 2);
        assert_eq!(support(&v), vec![1, 3]);
        assert_eq!(l0_norm(&[]), 0);
        assert!(support(&[0.0, 0.0]).is_empty());
    }

    #[test]
    fn max_abs_diff_works() {
        assert_eq!(max_abs_diff(&[1.0, 5.0], &[1.5, 4.0]), 1.0);
        assert_eq!(max_abs_diff(&[], &[]), 0.0);
    }
}
