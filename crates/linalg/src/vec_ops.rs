//! Support and comparison helpers on `&[f64]` slices: `ℓ₀`, `supp(b)`
//! and the largest componentwise difference. The data-plane arithmetic
//! (`dot`, `axpy`, `scale`, `norm_inf`) lives in [`crate::kernels`].

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
