//! The heterogeneity-aware coding scheme — Algorithm 1 of the paper.
//!
//! Construction (Lemmas 2–3):
//!
//! 1. Draw a random auxiliary matrix `C ∈ R^{(s+1)×m}` with iid `U(0,1)`
//!    entries. With probability 1 it satisfies:
//!    * (P1) any `s+1` columns are linearly independent, and
//!    * (P2) any null vector `λ` of any `s`-column submatrix has
//!      `Σλ_i ≠ 0`.
//! 2. For each partition `i`, let `C_i` be the `(s+1)×(s+1)` submatrix of
//!    `C` on the columns of the partition's `s+1` replica workers. Solve
//!    `C_i·d_i = 1` and embed `d_i` into column `i` of `B` at the support
//!    positions.
//!
//! The result satisfies `C·B = 1_{(s+1)×k}` and Condition C1, i.e. `B` is
//! robust to any `s` stragglers (Theorem 4), while the support follows the
//! load-balanced allocation so every worker finishes in `(s+1)k/Σc` time —
//! optimal by Theorem 5.

use hetgc_linalg::Matrix;
use rand::Rng;

use crate::error::CodingError;
use crate::strategy::CodingMatrix;
use crate::support::SupportMatrix;

/// How many times to re-draw `C` if a submatrix comes out numerically
/// singular. Probability-1 statements meet floating point: a draw can be
/// *nearly* dependent, so we retry rather than return garbage coefficients.
const MAX_REDRAWS: usize = 16;

/// Per-dimension determinant threshold: a drawn `C_i` with
/// `|det C_i| < CONDITION_EPS^(s+1)` is considered too ill-conditioned and
/// `C` is re-drawn.
const CONDITION_EPS: f64 = 1e-8;

/// Builds the heterogeneity-aware coding matrix `B` (Algorithm 1) for a
/// given support structure.
///
/// The support typically comes from [`SupportMatrix::cyclic`] over a
/// load-balanced [`crate::Allocation`]; any support with exact `s+1`
/// replication works (the group-based scheme reuses this routine for its
/// non-group submatrix).
///
/// # Errors
///
/// * [`CodingError::Numerical`] if after `MAX_REDRAWS` attempts some
///   replica submatrix `C_i` is still numerically singular (practically
///   impossible for a healthy RNG; reachable only with an adversarial
///   `Rng` implementation).
///
/// # Example
///
/// ```
/// use hetgc_coding::{heter_aware_from_support, Allocation, SupportMatrix};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), hetgc_coding::CodingError> {
/// let alloc = Allocation::balanced(&[1.0, 2.0, 3.0, 4.0, 4.0], 7, 1)?;
/// let support = SupportMatrix::cyclic(&alloc)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let b = heter_aware_from_support(&support, &mut rng)?;
/// assert_eq!(b.workers(), 5);
/// assert_eq!(b.partitions(), 7);
/// // Loads match the allocation: n = [1,2,3,4,4].
/// assert_eq!(b.load_of(0), 1);
/// assert_eq!(b.load_of(4), 4);
/// # Ok(())
/// # }
/// ```
pub fn heter_aware_from_support<R: Rng + ?Sized>(
    support: &SupportMatrix,
    rng: &mut R,
) -> Result<CodingMatrix, CodingError> {
    let m = support.workers();
    let k = support.partitions();
    let s = support.stragglers();

    // One `(s+1)×(s+1)` factorization and one solution buffer, reused by
    // every partition of every draw.
    let mut lu = Matrix::identity(s + 1).lu()?;
    let ones = vec![1.0; s + 1];
    let mut d = vec![0.0; s + 1];
    'redraw: for _attempt in 0..MAX_REDRAWS {
        // Step 1: random C ∈ R^{(s+1)×m}, entries iid U(0,1).
        let c = Matrix::from_fn(s + 1, m, |_, _| rng.gen_range(0.0..1.0));

        // Step 2: per-partition solves. Eq. 6 gives runs of consecutive
        // partitions one replica set, hence one `C_i` and one `d_i`: a
        // block is factored and solved only where the set changes.
        let mut b = Matrix::zeros(m, k);
        let mut solved: Option<&[usize]> = None;
        for p in 0..k {
            let owners = support.owners_of(p);
            debug_assert_eq!(owners.len(), s + 1, "replication validated at construction");
            if solved != Some(owners) {
                // C_i: the columns of C on the partition's replica workers.
                lu.refactor(|i, j| c[(i, owners[j])]);
                // Guard against ill-conditioned draws: the absolute
                // |det C_i| must clear CONDITION_EPS^(s+1). It is not
                // scaled by the column norms, and it bounds only this
                // block, not the systems a straggler set's decode solves.
                if lu.is_singular() || lu.determinant().abs() < CONDITION_EPS.powi(s as i32 + 1) {
                    continue 'redraw;
                }
                if lu.solve_into(&ones, &mut d).is_err() {
                    continue 'redraw;
                }
                solved = Some(owners);
            }
            for (&owner, &value) in owners.iter().zip(&d) {
                b[(owner, p)] = value;
            }
        }
        return CodingMatrix::from_matrix(b, s);
    }
    Err(CodingError::Numerical {
        message: format!("failed to draw a well-conditioned C after {MAX_REDRAWS} attempts"),
    })
}

/// End-to-end convenience: allocation (Eq. 5) → cyclic support (Eq. 6) →
/// Algorithm 1. This is "the" heter-aware scheme of the paper.
///
/// # Errors
///
/// Propagates allocation errors (see [`crate::Allocation::balanced`]) and
/// construction errors (see [`heter_aware_from_support`]).
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), hetgc_coding::CodingError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(42);
/// let b = hetgc_coding::heter_aware(&[1.0, 2.0, 3.0, 4.0, 4.0], 7, 1, &mut rng)?;
/// // Every worker finishes in the same time (s+1)k/Σc = 1 under its own
/// // throughput — the load-balancing invariant.
/// for (w, &c) in [1.0, 2.0, 3.0, 4.0, 4.0].iter().enumerate() {
///     assert!((b.computation_time(w, c)? - 1.0).abs() < 1e-12);
/// }
/// # Ok(())
/// # }
/// ```
pub fn heter_aware<R: Rng + ?Sized>(
    throughputs: &[f64],
    partitions: usize,
    stragglers: usize,
    rng: &mut R,
) -> Result<CodingMatrix, CodingError> {
    let alloc = crate::Allocation::balanced(throughputs, partitions, stragglers)?;
    let support = SupportMatrix::cyclic(&alloc)?;
    heter_aware_from_support(&support, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_condition_c1;
    use crate::Allocation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn example1_constructs_and_is_robust() {
        let mut r = rng(1);
        let b = heter_aware(&[1.0, 2.0, 3.0, 4.0, 4.0], 7, 1, &mut r).unwrap();
        assert_eq!(b.workers(), 5);
        assert_eq!(b.partitions(), 7);
        verify_condition_c1(&b).unwrap();
    }

    #[test]
    fn cb_equals_ones_structurally() {
        // CB = 1 is internal to the construction; verify the public
        // consequence: summing decode over any survivor set of size m-s
        // works. Here check per-column: the s+1 support entries of each
        // column, weighted by the corresponding C columns, sum to one —
        // equivalently each column of B sums against any decode row.
        // Simplest public check: every single-partition "gradient" decodes.
        let mut r = rng(2);
        let b = heter_aware(&[1.0, 1.0, 2.0], 4, 1, &mut r).unwrap();
        verify_condition_c1(&b).unwrap();
    }

    #[test]
    fn support_matches_allocation() {
        let mut r = rng(3);
        let c = [1.0, 2.0, 3.0, 4.0, 4.0];
        let b = heter_aware(&c, 7, 1, &mut r).unwrap();
        let alloc = Allocation::balanced(&c, 7, 1).unwrap();
        for w in 0..5 {
            assert_eq!(b.load_of(w), alloc.counts()[w], "worker {w}");
        }
    }

    #[test]
    fn homogeneous_reduces_to_uniform_load() {
        let mut r = rng(4);
        let b = heter_aware(&[1.0; 6], 6, 2, &mut r).unwrap();
        for w in 0..6 {
            assert_eq!(b.load_of(w), 3); // k(s+1)/m = 18/6
        }
        verify_condition_c1(&b).unwrap();
    }

    #[test]
    fn s_zero_no_replication() {
        let mut r = rng(5);
        let b = heter_aware(&[1.0, 3.0], 4, 0, &mut r).unwrap();
        assert_eq!(b.load_of(0) + b.load_of(1), 4);
        verify_condition_c1(&b).unwrap();
    }

    #[test]
    fn robust_across_seeds() {
        for seed in 0..8 {
            let mut r = rng(seed);
            let b = heter_aware(&[1.0, 2.0, 2.0, 5.0], 10, 1, &mut r).unwrap();
            verify_condition_c1(&b).unwrap_or_else(|e| panic!("seed {seed} violated C1: {e}"));
        }
    }

    #[test]
    fn tolerates_two_stragglers() {
        let mut r = rng(6);
        let b = heter_aware(&[1.0, 1.0, 2.0, 2.0, 3.0, 3.0], 12, 2, &mut r).unwrap();
        verify_condition_c1(&b).unwrap();
    }

    #[test]
    fn worst_case_time_matches_theorem_5() {
        // Theorem 5: T(B) = (s+1)k / Σc when allocation is exact.
        let c = [1.0, 2.0, 3.0, 4.0, 4.0];
        let mut r = rng(7);
        let b = heter_aware(&c, 7, 1, &mut r).unwrap();
        let t = b.worst_case_time(&c).unwrap();
        let optimal = 2.0 * 7.0 / 14.0;
        assert!((t - optimal).abs() < 1e-9, "T(B)={t}, optimal={optimal}");
    }

    #[test]
    fn from_support_works_on_custom_support() {
        // Hand-built support with proper replication: 3 workers, 2
        // partitions, s=1 → each partition on 2 workers.
        let support = SupportMatrix::from_rows(vec![vec![0], vec![0, 1], vec![1]], 2, 1).unwrap();
        let mut r = rng(8);
        let b = heter_aware_from_support(&support, &mut r).unwrap();
        assert_eq!(b.load_of(1), 2);
        verify_condition_c1(&b).unwrap();
    }

    #[test]
    fn deterministic_given_seed() {
        let c = [1.0, 2.0, 3.0];
        let b1 = heter_aware(&c, 6, 1, &mut rng(99)).unwrap();
        let b2 = heter_aware(&c, 6, 1, &mut rng(99)).unwrap();
        assert_eq!(b1, b2);
    }

    #[test]
    fn coefficients_are_nontrivial() {
        // The construction should not degenerate to an indicator matrix —
        // coefficients come from C_i^{-1}·1 and are generically ≠ 1.
        let mut r = rng(10);
        let b = heter_aware(&[1.0, 1.0, 1.0], 3, 1, &mut r).unwrap();
        let nontrivial = (0..3)
            .flat_map(|w| b.row(w).to_vec())
            .filter(|&x| x != 0.0)
            .any(|x| (x - 1.0).abs() > 1e-9);
        assert!(nontrivial);
    }
}
