//! Verification of Condition C1 (Lemma 1): a strategy `B` is robust to any
//! `s` stragglers iff for every `(m−s)`-subset `I` of workers,
//! `1_{1×k} ∈ span({b_i : i ∈ I})`.
//!
//! Checking size-`(m−s)` subsets suffices: larger survivor sets have larger
//! spans. [`verify_condition_c1`] is exhaustive (use for `C(m,s)` up to a
//! few hundred thousand patterns); [`verify_condition_c1_sampled`] spot
//! checks random patterns for big clusters.

use hetgc_linalg::{in_span, DEFAULT_TOLERANCE};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::error::CodingError;
use crate::strategy::{enumerate_subsets, CodingMatrix};

/// Returns `true` if the gradient can be decoded when exactly the given
/// workers straggle (are lost entirely — the paper's full-straggler model).
pub(crate) fn is_robust_to(code: &CodingMatrix, stragglers: &[usize]) -> bool {
    let m = code.workers();
    if stragglers.iter().any(|&w| w >= m) {
        return false;
    }
    let survivors: Vec<usize> = (0..m).filter(|w| !stragglers.contains(w)).collect();
    let rows = match code.matrix().select_rows(&survivors) {
        Ok(r) => r,
        Err(_) => return false,
    };
    let ones = vec![1.0; code.partitions()];
    in_span(&rows, &ones, DEFAULT_TOLERANCE)
}

/// Exhaustively verifies Condition C1 over all `C(m, s)` straggler
/// patterns.
///
/// # Errors
///
/// [`CodingError::ConditionViolated`] naming the first violating pattern.
///
/// # Example
///
/// ```
/// use hetgc_coding::{heter_aware, verify_condition_c1};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), hetgc_coding::CodingError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(9);
/// let b = heter_aware(&[1.0, 2.0, 2.0], 5, 1, &mut rng)?;
/// verify_condition_c1(&b)?;
/// # Ok(())
/// # }
/// ```
pub fn verify_condition_c1(code: &CodingMatrix) -> Result<(), CodingError> {
    let m = code.workers();
    let s = code.stragglers();
    let mut scratch = Vec::new();
    enumerate_subsets(m, s, &mut scratch, &mut |stragglers| {
        if is_robust_to(code, stragglers) {
            Ok(())
        } else {
            Err(CodingError::ConditionViolated {
                stragglers: stragglers.to_vec(),
            })
        }
    })
}

/// Verifies Condition C1 on `samples` uniformly random straggler patterns.
/// Suitable for large `m` where `C(m, s)` explodes.
///
/// # Errors
///
/// [`CodingError::ConditionViolated`] naming the first violating pattern.
pub fn verify_condition_c1_sampled<R: Rng + ?Sized>(
    code: &CodingMatrix,
    samples: usize,
    rng: &mut R,
) -> Result<(), CodingError> {
    let m = code.workers();
    let s = code.stragglers();
    let mut indices: Vec<usize> = (0..m).collect();
    for _ in 0..samples {
        indices.shuffle(rng);
        let mut stragglers: Vec<usize> = indices[..s].to_vec();
        stragglers.sort_unstable();
        if !is_robust_to(code, &stragglers) {
            return Err(CodingError::ConditionViolated { stragglers });
        }
    }
    Ok(())
}

/// Counts, for diagnostic purposes, the minimum number of workers (taken
/// greedily in the given order) needed before the prefix spans `1`. Returns
/// `None` if even the whole order cannot decode.
///
/// Used by analysis code to show that group-based strategies decode from
/// fewer workers than Alg. 1 strategies (`m−s`).
pub fn decodable_prefix_len(code: &CodingMatrix, order: &[usize]) -> Option<usize> {
    let ones = vec![1.0; code.partitions()];
    for end in 1..=order.len() {
        let rows = match code.matrix().select_rows(&order[..end]) {
            Ok(r) => r,
            Err(_) => return None,
        };
        if in_span(&rows, &ones, DEFAULT_TOLERANCE) {
            return Some(end);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heter_aware::heter_aware;
    use hetgc_linalg::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn valid_code_passes_exhaustive() {
        let mut rng = StdRng::seed_from_u64(21);
        let b = heter_aware(&[1.0, 2.0, 3.0, 4.0, 4.0], 7, 1, &mut rng).unwrap();
        verify_condition_c1(&b).unwrap();
    }

    #[test]
    fn identity_fails_for_s1() {
        let bad = CodingMatrix::from_matrix(Matrix::identity(3), 1).unwrap();
        let err = verify_condition_c1(&bad).unwrap_err();
        assert!(matches!(err, CodingError::ConditionViolated { .. }));
    }

    #[test]
    fn identity_passes_for_s0() {
        let ok = CodingMatrix::from_matrix(Matrix::identity(3), 0).unwrap();
        verify_condition_c1(&ok).unwrap();
    }

    #[test]
    fn is_robust_handles_bad_indices() {
        let ok = CodingMatrix::from_matrix(Matrix::identity(3), 0).unwrap();
        assert!(!is_robust_to(&ok, &[7]));
    }

    #[test]
    fn sampled_agrees_with_exhaustive() {
        let mut rng = StdRng::seed_from_u64(22);
        let b = heter_aware(&[1.0, 1.0, 2.0, 2.0], 6, 2, &mut rng).unwrap();
        verify_condition_c1(&b).unwrap();
        verify_condition_c1_sampled(&b, 50, &mut rng).unwrap();
    }

    #[test]
    fn sampled_catches_bad_code() {
        let bad = CodingMatrix::from_matrix(Matrix::identity(4), 2).unwrap();
        let mut rng = StdRng::seed_from_u64(23);
        assert!(verify_condition_c1_sampled(&bad, 50, &mut rng).is_err());
    }

    #[test]
    fn prefix_len_for_heter_aware_is_m_minus_s() {
        let mut rng = StdRng::seed_from_u64(24);
        let b = heter_aware(&[1.0, 2.0, 3.0, 4.0, 4.0], 7, 1, &mut rng).unwrap();
        // Generic coefficients ⇒ no subset smaller than m−s decodes.
        let order = [0, 1, 2, 3, 4];
        assert_eq!(decodable_prefix_len(&b, &order), Some(4));
    }

    #[test]
    fn prefix_len_none_when_underpowered() {
        let mut rng = StdRng::seed_from_u64(25);
        let b = heter_aware(&[1.0, 1.0, 1.0], 3, 1, &mut rng).unwrap();
        assert_eq!(decodable_prefix_len(&b, &[0]), None);
    }
}
