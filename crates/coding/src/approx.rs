//! Approximate gradient coding (extension).
//!
//! The paper dismisses approximate schemes ([35] Raviv et al., [36]
//! Charles et al.) because they "are at the cost of sacrificing
//! optimization accuracy" (§II) — but they are the natural fallback when
//! *more* than `s` workers straggle, and SGD tolerates small gradient
//! error. This module adds two pieces on top of the exact machinery:
//!
//! * [`approximate_decode`] — for *any* survivor set, the least-squares
//!   decode row `a = argmin ‖aᵀB_I − 1‖₂` (ridge-stabilized), plus the
//!   residual norm that bounds the gradient error (Cauchy–Schwarz over
//!   partitions): `‖ĝ − g‖ ≤ ‖aᵀB_I − 1‖₂ · ‖(‖g_1‖, …, ‖g_k‖)‖₂`
//!   ([`gradient_error_bound_l2`]), itself at most
//!   `residual · √k · max_j ‖g_j‖`.
//! * [`under_replicated`] — heterogeneity-aware codes with replication
//!   `r < s+1`: `r−1` stragglers are decoded exactly, further stragglers
//!   approximately. Storage/compute drop by the factor `(s+1)/r`.

use rand::Rng;

use crate::allocation::Allocation;
use crate::error::CodingError;
use crate::heter_aware::heter_aware_from_support;
use crate::strategy::CodingMatrix;
use crate::support::SupportMatrix;

/// Ridge added to the normal equations so rank-deficient survivor sets
/// still produce a finite decode row (it biases `‖a‖` down negligibly).
const RIDGE: f64 = 1e-9;

/// The result of an approximate decode.
#[derive(Debug, Clone, PartialEq)]
pub struct ApproximateDecode {
    /// Decode row over all `m` workers (zero on non-survivors).
    pub vector: Vec<f64>,
    /// `‖aᵀB_I − 1‖₂`: zero (to fp) when the survivors decode exactly.
    pub residual: f64,
}

/// Least-squares decoding from an arbitrary survivor set.
///
/// Solves `min_a ‖aᵀ·B_I − 1‖₂` via ridge-stabilized normal equations
/// `(B_I·B_Iᵀ + λI)·a = B_I·1ᵀ`, which is exact (residual ≈ 0) whenever
/// the survivors span `1` and degrades gracefully otherwise.
///
/// # Errors
///
/// [`CodingError::InvalidParameter`] on bad survivor indices;
/// [`CodingError::Numerical`] if the (always SPD) system solve fails.
///
/// # Example
///
/// ```
/// use hetgc_coding::{approximate_decode, heter_aware};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), hetgc_coding::CodingError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let b = heter_aware(&[1.0, 2.0, 3.0, 4.0, 4.0], 7, 1, &mut rng)?;
/// // Two stragglers exceed the s = 1 budget: exact decoding is impossible,
/// // approximate decoding still returns a bounded-error combination —
/// // strictly better than the trivial a = 0 (whose residual is √k).
/// let approx = approximate_decode(&b, &[0, 2, 3])?;
/// assert!(approx.residual >= 1e-6);
/// assert!(approx.residual < 7.0_f64.sqrt());
/// # Ok(())
/// # }
/// ```
pub fn approximate_decode(
    code: &CodingMatrix,
    survivors: &[usize],
) -> Result<ApproximateDecode, CodingError> {
    let m = code.workers();
    let mut seen = vec![false; m];
    for &w in survivors {
        if w >= m {
            return Err(CodingError::InvalidParameter {
                reason: format!("survivor index {w} >= m={m}"),
            });
        }
        if seen[w] {
            return Err(CodingError::InvalidParameter {
                reason: format!("duplicate survivor index {w}"),
            });
        }
        seen[w] = true;
    }
    if survivors.is_empty() {
        return Ok(ApproximateDecode {
            vector: vec![0.0; m],
            residual: (code.partitions() as f64).sqrt(),
        });
    }
    let rows = code.matrix().select_rows(survivors)?;
    let n = survivors.len();
    let mut gram = rows.matmul(&rows.transpose())?;
    for i in 0..n {
        gram[(i, i)] += RIDGE;
    }
    // rhs_i = b_i · 1 = row sum.
    let rhs: Vec<f64> = rows.rows_iter().map(|r| r.iter().sum()).collect();
    let coeffs = gram.solve(&rhs)?;

    let mut vector = vec![0.0; m];
    for (&w, &c) in survivors.iter().zip(&coeffs) {
        vector[w] = c;
    }
    let recovered = rows.transpose().matvec(&coeffs)?;
    let residual = recovered
        .iter()
        .map(|x| (x - 1.0) * (x - 1.0))
        .sum::<f64>()
        .sqrt();
    Ok(ApproximateDecode { vector, residual })
}

/// Builds a heterogeneity-aware code with replication factor `r`
/// (each partition on exactly `r` workers, loads ∝ throughputs).
///
/// The result is a [`CodingMatrix`] with designed tolerance `r − 1`; use
/// [`approximate_decode`] to keep making (approximate) progress past it.
/// `r = s+1` recovers the paper's exact scheme; `r = 1` is the naive-like
/// zero-redundancy point of the accuracy/cost tradeoff.
///
/// # Errors
///
/// Propagates allocation/construction errors (e.g. `r > m`, infeasible
/// Eq. 5).
pub fn under_replicated<R: Rng + ?Sized>(
    throughputs: &[f64],
    partitions: usize,
    replication: usize,
    rng: &mut R,
) -> Result<CodingMatrix, CodingError> {
    if replication == 0 {
        return Err(CodingError::InvalidParameter {
            reason: "replication must be at least 1".into(),
        });
    }
    let alloc = Allocation::balanced(throughputs, partitions, replication - 1)?;
    let support = SupportMatrix::cyclic(&alloc)?;
    heter_aware_from_support(&support, rng)
}

/// The rigorous worst-case gradient-error bound of an approximate decode.
///
/// With `e = aᵀB_I − 1` the decode error is `ĝ − g = Σ_j e_j g_j`, so by
/// Cauchy–Schwarz over partitions
/// `‖ĝ − g‖₂ ≤ ‖e‖₂ · ‖(‖g_1‖₂, …, ‖g_k‖₂)‖₂ = residual · √(Σ_j ‖g_j‖²)`.
pub fn gradient_error_bound_l2(residual: f64, partial_norms: &[f64]) -> f64 {
    residual * partial_norms.iter().map(|n| n * n).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::GradientCodec;
    use crate::heter_aware::heter_aware;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const C: [f64; 5] = [1.0, 2.0, 3.0, 4.0, 4.0];

    fn code() -> CodingMatrix {
        heter_aware(&C, 7, 1, &mut StdRng::seed_from_u64(5)).unwrap()
    }

    #[test]
    fn exact_when_survivors_suffice() {
        let b = code();
        let survivors = [0usize, 1, 3, 4];
        let approx = approximate_decode(&b, &survivors).unwrap();
        assert!(approx.residual < 1e-6, "residual {}", approx.residual);
        // Agrees with the exact decoder up to fp noise: both satisfy aB=1.
        let exact = b.decode_plan(&survivors).unwrap().to_dense();
        let via_exact = b.matrix().vecmat(&exact).unwrap();
        let via_approx = b.matrix().vecmat(&approx.vector).unwrap();
        for (x, y) in via_exact.iter().zip(&via_approx) {
            assert!((x - 1.0).abs() < 1e-6 && (y - 1.0).abs() < 1e-5, "{x} {y}");
        }
    }

    #[test]
    fn degrades_gracefully_beyond_tolerance() {
        let b = code();
        // Survivor sets of shrinking size: residual grows monotonically
        // (fewer rows can only span less).
        let sets: [&[usize]; 3] = [&[0, 1, 2, 3], &[0, 1, 2], &[0, 1]];
        let mut last = -1.0;
        for s in sets {
            let r = approximate_decode(&b, s).unwrap().residual;
            assert!(
                r >= last - 1e-9,
                "residual should not shrink: {r} after {last}"
            );
            last = r;
        }
        assert!(last > 0.5, "two survivors can't come close: {last}");
    }

    #[test]
    fn empty_survivors_residual_is_sqrt_k() {
        let b = code();
        let approx = approximate_decode(&b, &[]).unwrap();
        assert!((approx.residual - (7.0_f64).sqrt()).abs() < 1e-12);
        assert!(approx.vector.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn rejects_bad_survivors() {
        let b = code();
        assert!(approximate_decode(&b, &[9]).is_err());
        assert!(approximate_decode(&b, &[1, 1]).is_err());
    }

    #[test]
    fn under_replicated_halves_load() {
        let mut rng = StdRng::seed_from_u64(6);
        let full = heter_aware(&C, 7, 1, &mut rng).unwrap(); // r = 2
        let lean = under_replicated(&C, 7, 1, &mut rng).unwrap(); // r = 1
        let full_load: usize = (0..5).map(|w| full.load_of(w)).sum();
        let lean_load: usize = (0..5).map(|w| lean.load_of(w)).sum();
        assert_eq!(full_load, 14);
        assert_eq!(lean_load, 7);
        assert_eq!(lean.stragglers(), 0);
    }

    #[test]
    fn under_replicated_exact_within_budget() {
        let mut rng = StdRng::seed_from_u64(7);
        let lean = under_replicated(&C, 7, 2, &mut rng).unwrap(); // r = 2 → s = 1
        crate::verify::verify_condition_c1(&lean).unwrap();
    }

    #[test]
    fn under_replicated_rejects_zero() {
        let mut rng = StdRng::seed_from_u64(8);
        assert!(under_replicated(&C, 7, 0, &mut rng).is_err());
    }

    #[test]
    fn approximate_sgd_still_converges() {
        // Quadratic objective f(θ) = ½‖θ − t‖², "partial gradients" split
        // across k partitions; one worker too many dies, so decoding is
        // approximate — SGD must still converge to a neighbourhood of t.
        let b = code();
        let survivors = [1usize, 2, 4]; // two stragglers, s = 1 exceeded
        let approx = approximate_decode(&b, &survivors).unwrap();
        assert!(approx.residual >= 1e-6);

        let target = [3.0, -2.0];
        let mut theta = [0.0, 0.0];
        for _ in 0..300 {
            // Exact partials: g_j = (θ − t)/k for each of the 7 partitions.
            let gfull = [theta[0] - target[0], theta[1] - target[1]];
            let partials: Vec<Vec<f64>> = (0..7)
                .map(|_| vec![gfull[0] / 7.0, gfull[1] / 7.0])
                .collect();
            // ĝ = Σ_w a_w · (b_w · partials)
            let mut ghat = [0.0, 0.0];
            for &w in &survivors {
                let coded = b.encode(w, &partials).unwrap();
                ghat[0] += approx.vector[w] * coded[0];
                ghat[1] += approx.vector[w] * coded[1];
            }
            theta[0] -= 0.2 * ghat[0];
            theta[1] -= 0.2 * ghat[1];
        }
        // ĝ = M·(θ−t) with M ≈ I (residual-bounded); fixpoint stays near t.
        let err = ((theta[0] - target[0]).powi(2) + (theta[1] - target[1]).powi(2)).sqrt();
        assert!(
            err < 1.0,
            "approximate SGD drifted: {theta:?} vs {target:?}"
        );
    }

    #[test]
    fn error_bound_formula() {
        assert_eq!(gradient_error_bound_l2(0.0, &[100.0]), 0.0);
        assert_eq!(gradient_error_bound_l2(2.0, &[3.0, 4.0]), 10.0);
    }
}
