//! Numerically-stable loss helpers shared by the classification models.

/// `log(Σ exp(x_i))` computed stably by shifting by the max.
///
/// # Example
/// ```
/// let lse = hetgc_ml::log_sum_exp(&[1000.0, 1000.0]);
/// assert!((lse - (1000.0 + 2f64.ln())).abs() < 1e-9); // no overflow
/// ```
pub fn log_sum_exp(x: &[f64]) -> f64 {
    let max = x.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if !max.is_finite() {
        return max;
    }
    max + x.iter().map(|v| (v - max).exp()).sum::<f64>().ln()
}

/// Converts logits to probabilities in place (stable softmax).
pub(crate) fn softmax_in_place(logits: &mut [f64]) {
    let lse = log_sum_exp(logits);
    for l in logits.iter_mut() {
        *l = (*l - lse).exp();
    }
}

/// Cross-entropy `−log p_label` straight from logits (never materializes
/// probabilities, avoiding `log(0)`).
///
/// # Panics
///
/// Panics if `label >= logits.len()`.
pub(crate) fn cross_entropy_from_logits(logits: &[f64], label: usize) -> f64 {
    assert!(label < logits.len(), "label {label} out of range");
    log_sum_exp(logits) - logits[label]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lse_matches_naive_for_small_values() {
        let x = [0.1_f64, 0.2, 0.3];
        let naive = x.iter().map(|v| v.exp()).sum::<f64>().ln();
        assert!((log_sum_exp(&x) - naive).abs() < 1e-12);
    }

    #[test]
    fn lse_survives_large_values() {
        assert!(log_sum_exp(&[1e8, 1e8]).is_finite());
    }

    #[test]
    fn softmax_sums_to_one() {
        let mut l = vec![1.0, 2.0, 3.0];
        softmax_in_place(&mut l);
        assert!((l.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(l[2] > l[1] && l[1] > l[0]);
    }

    #[test]
    fn softmax_uniform_for_equal_logits() {
        let mut l = vec![5.0; 4];
        softmax_in_place(&mut l);
        for p in &l {
            assert!((p - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn cross_entropy_basics() {
        // Uniform logits over 2 classes: CE = ln 2.
        let ce = cross_entropy_from_logits(&[0.0, 0.0], 0);
        assert!((ce - std::f64::consts::LN_2).abs() < 1e-12);
        // Confident correct prediction: CE ≈ 0.
        let ce = cross_entropy_from_logits(&[100.0, 0.0], 0);
        assert!(ce < 1e-9);
        // Confident wrong prediction: CE ≈ 100.
        let ce = cross_entropy_from_logits(&[100.0, 0.0], 1);
        assert!((ce - 100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cross_entropy_bad_label() {
        cross_entropy_from_logits(&[0.0, 0.0], 2);
    }
}
