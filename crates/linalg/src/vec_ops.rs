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
}
