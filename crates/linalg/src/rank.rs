//! Rank computation and row-space membership tests.
//!
//! Condition C1 of the paper asks, for every `(m−s)`-subset `I` of workers,
//! whether `1_{1×k}` lies in the span of `{b_i : i ∈ I}`. [`in_span`]
//! implements that membership test by comparing the rank of the row set
//! with and without the target vector appended — a formulation that is
//! robust to the wildly varying magnitudes produced by the randomized
//! construction (`C_i⁻¹·1` entries can be large when a random submatrix is
//! nearly singular).

// Index-style loops below mirror the textbook elimination algorithms;
// iterator adaptors would obscure the pivot arithmetic.
#![allow(clippy::needless_range_loop)]

use crate::matrix::Matrix;

/// Default tolerance for rank / span decisions.
///
/// Entries of constructed coding matrices are `O(1)`–`O(10²)`; Gaussian
/// elimination on such rows keeps residuals far above `1e-7` for genuinely
/// independent rows and far below it for dependent ones, so this threshold
/// has a wide safety margin in both directions.
pub const DEFAULT_TOLERANCE: f64 = 1e-7;

/// Computes the numerical rank of `a` by row reduction with partial
/// pivoting, treating pivots of relative magnitude ≤ `tol` as zero.
pub(crate) fn rank(a: &Matrix, tol: f64) -> usize {
    let (rows, cols) = a.shape();
    if rows == 0 || cols == 0 {
        return 0;
    }
    // Normalize the tolerance by the largest entry so the test is
    // scale-invariant.
    let scale = a.max_abs();
    if scale == 0.0 {
        return 0;
    }
    let threshold = tol * scale;

    let mut m: Vec<Vec<f64>> = a.rows_iter().map(|r| r.to_vec()).collect();
    let mut rank = 0;
    let mut pivot_col = 0;

    while rank < rows && pivot_col < cols {
        // Find the row with the largest entry in this column at/below `rank`.
        let mut best_row = rank;
        let mut best_val = m[rank][pivot_col].abs();
        for (r, row) in m.iter().enumerate().skip(rank + 1) {
            let v = row[pivot_col].abs();
            if v > best_val {
                best_val = v;
                best_row = r;
            }
        }
        if best_val <= threshold {
            pivot_col += 1;
            continue;
        }
        m.swap(rank, best_row);
        // Eliminate below.
        let pivot = m[rank][pivot_col];
        for r in (rank + 1)..rows {
            let factor = m[r][pivot_col] / pivot;
            if factor == 0.0 {
                continue;
            }
            for c in pivot_col..cols {
                m[r][c] -= factor * m[rank][c];
            }
        }
        rank += 1;
        pivot_col += 1;
    }
    rank
}

/// Finds *a* particular solution `x` to `A·x = b`, for any shape of `A`,
/// by Gaussian elimination on the augmented matrix; free variables are set
/// to zero. Returns `None` when the system is inconsistent at tolerance
/// `tol` (relative to the largest entry of `[A | b]`).
///
/// Decoders use this to compute decode vectors: given survivor rows
/// `M = B_I`, a decode vector is any solution of `Mᵀ·a = 1ᵀ`. Unlike a
/// square LU solve, this handles square, overdetermined, underdetermined *and*
/// rank-deficient-but-consistent systems uniformly.
///
/// # Example
///
/// ```
/// use hetgc_linalg::{solve_any, Matrix, DEFAULT_TOLERANCE};
///
/// # fn main() -> Result<(), hetgc_linalg::LinalgError> {
/// // Underdetermined but consistent.
/// let a = Matrix::from_rows(&[&[1.0, 1.0, 0.0]])?;
/// let x = solve_any(&a, &[2.0], DEFAULT_TOLERANCE).expect("consistent");
/// assert!((x[0] + x[1] - 2.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn solve_any(a: &Matrix, b: &[f64], tol: f64) -> Option<Vec<f64>> {
    let (rows, cols) = a.shape();
    if b.len() != rows {
        return None;
    }
    // Build augmented matrix [A | b].
    let mut m: Vec<Vec<f64>> = a
        .rows_iter()
        .zip(b)
        .map(|(r, &bi)| {
            let mut row = r.to_vec();
            row.push(bi);
            row
        })
        .collect();
    let scale = m
        .iter()
        .flat_map(|r| r.iter())
        .fold(0.0_f64, |acc, v| acc.max(v.abs()));
    if scale == 0.0 {
        // A and b are both zero: x = 0 works.
        return Some(vec![0.0; cols]);
    }
    let threshold = tol * scale;

    let mut pivot_cols: Vec<usize> = Vec::new();
    let mut rank = 0;
    for col in 0..cols {
        if rank >= rows {
            break;
        }
        let mut best_row = rank;
        let mut best_val = m[rank][col].abs();
        for (r, row) in m.iter().enumerate().skip(rank + 1) {
            if row[col].abs() > best_val {
                best_val = row[col].abs();
                best_row = r;
            }
        }
        if best_val <= threshold {
            continue;
        }
        m.swap(rank, best_row);
        let pivot = m[rank][col];
        for r in 0..rows {
            if r == rank {
                continue;
            }
            let factor = m[r][col] / pivot;
            if factor == 0.0 {
                continue;
            }
            for c in col..=cols {
                let sub = factor * m[rank][c];
                m[r][c] -= sub;
            }
        }
        pivot_cols.push(col);
        rank += 1;
    }
    // Inconsistency: a zero row of A with non-zero rhs.
    for row in m.iter().skip(rank) {
        if row[cols].abs() > threshold {
            return None;
        }
    }
    let mut x = vec![0.0; cols];
    for (r, &pc) in pivot_cols.iter().enumerate() {
        x[pc] = m[r][cols] / m[r][pc];
    }
    Some(x)
}

/// Tests whether `target` lies in the span of the rows of `rows_matrix`.
///
/// Implemented as a rank comparison: `target ∈ rowspace(M)` iff
/// `rank([M; target]) == rank(M)`. Use [`DEFAULT_TOLERANCE`] unless you have
/// a reason not to.
///
/// # Example
///
/// ```
/// use hetgc_linalg::{in_span, Matrix, DEFAULT_TOLERANCE};
///
/// # fn main() -> Result<(), hetgc_linalg::LinalgError> {
/// let m = Matrix::from_rows(&[&[1.0, 0.0, 1.0], &[0.0, 1.0, 0.0]])?;
/// assert!(in_span(&m, &[1.0, 1.0, 1.0], DEFAULT_TOLERANCE)); // row0+row1
/// assert!(!in_span(&m, &[0.0, 0.0, 1.0], DEFAULT_TOLERANCE));
/// # Ok(())
/// # }
/// ```
pub fn in_span(rows_matrix: &Matrix, target: &[f64], tol: f64) -> bool {
    if target.len() != rows_matrix.ncols() {
        return false;
    }
    if target.iter().all(|&x| x == 0.0) {
        return true; // the zero vector is in every span
    }
    if rows_matrix.nrows() == 0 {
        return false;
    }
    let base_rank = rank(rows_matrix, tol);
    let augmented = rows_matrix
        .vstack(&Matrix::row_vector(target))
        .expect("target length checked above");
    rank(&augmented, tol) == base_rank
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: &[&[f64]]) -> Matrix {
        Matrix::from_rows(rows).unwrap()
    }

    #[test]
    fn rank_full() {
        assert_eq!(Matrix::identity(4).rank(DEFAULT_TOLERANCE), 4);
    }

    #[test]
    fn rank_deficient() {
        let a = mat(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(a.rank(DEFAULT_TOLERANCE), 1);
    }

    #[test]
    fn rank_zero_matrix() {
        assert_eq!(Matrix::zeros(3, 3).rank(DEFAULT_TOLERANCE), 0);
    }

    #[test]
    fn rank_rectangular() {
        let a = mat(&[&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]]);
        assert_eq!(a.rank(DEFAULT_TOLERANCE), 2);
        assert_eq!(a.transpose().rank(DEFAULT_TOLERANCE), 2);
    }

    #[test]
    fn rank_nearly_dependent_rows() {
        // Second row differs only at 1e-12 relative scale: rank 1.
        let a = mat(&[&[1.0, 1.0], &[1.0, 1.0 + 1e-12]]);
        assert_eq!(a.rank(DEFAULT_TOLERANCE), 1);
        // At 1e-3 the rows are genuinely independent.
        let b = mat(&[&[1.0, 1.0], &[1.0, 1.0 + 1e-3]]);
        assert_eq!(b.rank(DEFAULT_TOLERANCE), 2);
    }

    #[test]
    fn in_span_positive() {
        let m = mat(&[&[1.0, 0.0], &[0.0, 1.0]]);
        assert!(in_span(&m, &[3.0, -2.0], DEFAULT_TOLERANCE));
    }

    #[test]
    fn in_span_negative() {
        let m = mat(&[&[1.0, 0.0, 0.0]]);
        assert!(!in_span(&m, &[0.0, 1.0, 0.0], DEFAULT_TOLERANCE));
    }

    #[test]
    fn in_span_zero_vector_always() {
        let m = mat(&[&[1.0, 2.0]]);
        assert!(in_span(&m, &[0.0, 0.0], DEFAULT_TOLERANCE));
    }

    #[test]
    fn in_span_wrong_len_is_false() {
        let m = mat(&[&[1.0, 2.0]]);
        assert!(!in_span(&m, &[1.0], DEFAULT_TOLERANCE));
    }

    #[test]
    fn in_span_combination_of_many() {
        let m = mat(&[
            &[1.0, 1.0, 0.0, 0.0],
            &[0.0, 1.0, 1.0, 0.0],
            &[0.0, 0.0, 1.0, 1.0],
        ]);
        // row0 - row1 + row2 = [1,0,0,1]
        assert!(in_span(&m, &[1.0, 0.0, 0.0, 1.0], DEFAULT_TOLERANCE));
        assert!(!in_span(&m, &[1.0, 0.0, 0.0, 0.0], DEFAULT_TOLERANCE));
    }

    #[test]
    fn in_span_scale_invariance() {
        // Same geometry at 1e6 scale must give the same answers.
        let m = mat(&[&[1e6, 0.0], &[0.0, 1e6]]);
        assert!(in_span(&m, &[5e6, 5e6], DEFAULT_TOLERANCE));
        let d = mat(&[&[1e6, 1e6]]);
        assert!(!in_span(&d, &[1e6, 0.0], DEFAULT_TOLERANCE));
    }

    #[test]
    fn empty_row_matrix_spans_nothing_but_zero() {
        let m = Matrix::zeros(0, 2);
        assert!(!in_span(&m, &[1.0, 0.0], DEFAULT_TOLERANCE));
        assert!(in_span(&m, &[0.0, 0.0], DEFAULT_TOLERANCE));
    }

    #[test]
    fn solve_any_square() {
        let a = mat(&[&[2.0, 0.0], &[0.0, 4.0]]);
        let x = solve_any(&a, &[2.0, 8.0], DEFAULT_TOLERANCE).unwrap();
        assert_eq!(x, vec![1.0, 2.0]);
    }

    #[test]
    fn solve_any_underdetermined_consistent() {
        let a = mat(&[&[1.0, 1.0, 1.0]]);
        let x = solve_any(&a, &[3.0], DEFAULT_TOLERANCE).unwrap();
        assert!((x.iter().sum::<f64>() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn solve_any_overdetermined_consistent() {
        // Duplicate equations are fine.
        let a = mat(&[&[1.0, 0.0], &[1.0, 0.0], &[0.0, 1.0]]);
        let x = solve_any(&a, &[2.0, 2.0, 5.0], DEFAULT_TOLERANCE).unwrap();
        assert_eq!(x, vec![2.0, 5.0]);
    }

    #[test]
    fn solve_any_inconsistent_none() {
        let a = mat(&[&[1.0, 0.0], &[1.0, 0.0]]);
        assert!(solve_any(&a, &[1.0, 2.0], DEFAULT_TOLERANCE).is_none());
    }

    #[test]
    fn solve_any_rank_deficient_consistent() {
        let a = mat(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let x = solve_any(&a, &[3.0, 6.0], DEFAULT_TOLERANCE).unwrap();
        assert!((x[0] + 2.0 * x[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn solve_any_zero_system() {
        let a = Matrix::zeros(2, 3);
        assert_eq!(
            solve_any(&a, &[0.0, 0.0], DEFAULT_TOLERANCE).unwrap(),
            vec![0.0; 3]
        );
        assert!(solve_any(&a, &[1.0, 0.0], DEFAULT_TOLERANCE).is_none());
    }

    #[test]
    fn solve_any_wrong_rhs_len() {
        let a = Matrix::identity(2);
        assert!(solve_any(&a, &[1.0], DEFAULT_TOLERANCE).is_none());
    }
}
