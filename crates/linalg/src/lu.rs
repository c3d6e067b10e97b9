// Index-style loops below mirror the textbook elimination algorithms;
// iterator adaptors would obscure the pivot arithmetic.
#![allow(clippy::needless_range_loop)]

use crate::error::LinalgError;
use crate::matrix::Matrix;

/// Pivot magnitudes below this are treated as zero (singular matrix).
///
/// The random coding matrices used by Alg. 1 have entries in `(0,1)`; their
/// `(s+1)×(s+1)` submatrices are non-singular with probability 1, so in
/// practice this threshold only fires on genuinely degenerate inputs (e.g. a
/// hand-built support structure with a repeated worker).
const PIVOT_EPS: f64 = 1e-12;

/// LU decomposition with partial pivoting: `P·A = L·U`.
///
/// Alg. 1 of the paper computes, for each data partition `i`, the vector
/// `d_i = C_i^{-1}·1` where `C_i` is the `(s+1)×(s+1)` submatrix of the
/// random matrix `C` restricted to the partition's replica workers. One
/// `Lu`, re-factored in place per replica block ([`Lu::refactor`]),
/// serves both that solve ([`Lu::solve_into`]) and the determinant guard
/// against ill-conditioned draws.
///
/// # Example
///
/// ```
/// use hetgc_linalg::Matrix;
///
/// # fn main() -> Result<(), hetgc_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[0.0, 2.0], &[1.0, 1.0]])?; // needs pivoting
/// let lu = a.lu()?;
/// let x = lu.solve(&[2.0, 2.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    /// Packed L (below diagonal, unit diagonal implicit) and U (on/above).
    lu: Matrix,
    /// Row permutation: `perm[i]` is the original row index now at row `i`.
    perm: Vec<usize>,
    /// Sign of the permutation (`+1.0` or `-1.0`), for the determinant.
    perm_sign: f64,
    /// Smallest absolute pivot encountered, for singularity reporting.
    min_pivot: f64,
}

impl Lu {
    /// Factors a square matrix. Called via [`Matrix::lu`].
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotSquare`] or [`LinalgError::Empty`].
    pub(crate) fn new(a: &Matrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                op: "lu",
                shape: a.shape(),
            });
        }
        let n = a.nrows();
        if n == 0 {
            return Err(LinalgError::Empty { op: "lu" });
        }
        let mut lu = Lu {
            lu: a.clone(),
            perm: Vec::with_capacity(n),
            perm_sign: 1.0,
            min_pivot: f64::INFINITY,
        };
        lu.factor();
        Ok(lu)
    }

    /// Re-factors in place as the LU of the `dim() × dim()` matrix whose
    /// entry `(i, j)` is `entry(i, j)` (called row by row), reusing this
    /// `Lu`'s storage: bitwise the `Lu` that
    /// `Matrix::from_fn(n, n, entry).lu()` returns, with no allocation.
    /// Alg. 1 factors every `(s+1)×(s+1)` replica block through a single
    /// `Lu` this way.
    pub fn refactor<F: FnMut(usize, usize) -> f64>(&mut self, mut entry: F) {
        let n = self.dim();
        for i in 0..n {
            for j in 0..n {
                self.lu[(i, j)] = entry(i, j);
            }
        }
        self.factor();
    }

    /// Factors `self.lu` in place, from the identity permutation.
    fn factor(&mut self) {
        let n = self.dim();
        let lu = &mut self.lu;
        self.perm.clear();
        self.perm.extend(0..n);
        let mut perm_sign = 1.0;
        let mut min_pivot = f64::INFINITY;

        for col in 0..n {
            // Partial pivoting: pick the largest remaining entry in `col`.
            let mut pivot_row = col;
            let mut pivot_val = lu[(col, col)].abs();
            for r in (col + 1)..n {
                let v = lu[(r, col)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            min_pivot = min_pivot.min(pivot_val);
            if pivot_row != col {
                for j in 0..n {
                    let tmp = lu[(col, j)];
                    lu[(col, j)] = lu[(pivot_row, j)];
                    lu[(pivot_row, j)] = tmp;
                }
                self.perm.swap(col, pivot_row);
                perm_sign = -perm_sign;
            }
            let pivot = lu[(col, col)];
            if pivot.abs() < PIVOT_EPS {
                // Leave the column as-is; solve() will report the
                // singularity. Continuing lets determinant() return ~0.
                continue;
            }
            for r in (col + 1)..n {
                let factor = lu[(r, col)] / pivot;
                lu[(r, col)] = factor;
                for j in (col + 1)..n {
                    let sub = factor * lu[(col, j)];
                    lu[(r, j)] -= sub;
                }
            }
        }
        self.perm_sign = perm_sign;
        self.min_pivot = min_pivot;
    }

    /// Dimension of the factored matrix.
    pub(crate) fn dim(&self) -> usize {
        self.lu.nrows()
    }

    /// Returns `true` if a pivot fell below the singularity threshold.
    pub fn is_singular(&self) -> bool {
        self.min_pivot < PIVOT_EPS
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] if `b.len() != self.dim()`;
    /// [`LinalgError::Singular`] if the matrix was singular.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut x = vec![0.0; self.dim()];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// [`Lu::solve`] into `x`, with the same bits and no allocation: the
    /// forward substitution writes `x`, the back substitution overwrites
    /// it from the last entry up.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] if `b` or `x` is not `dim()` long;
    /// [`LinalgError::Singular`] if the matrix was singular.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) -> Result<(), LinalgError> {
        let n = self.dim();
        for len in [b.len(), x.len()] {
            if len != n {
                return Err(LinalgError::ShapeMismatch {
                    op: "lu_solve",
                    left: (n, n),
                    right: (len, 1),
                });
            }
        }
        if self.is_singular() {
            return Err(LinalgError::Singular {
                pivot: self.min_pivot,
            });
        }
        // Forward substitution with permuted b (L has unit diagonal).
        for i in 0..n {
            let mut acc = b[self.perm[i]];
            for j in 0..i {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc;
        }
        // Back substitution on U.
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc / self.lu[(i, i)];
        }
        Ok(())
    }

    /// Determinant: product of U's diagonal times the permutation sign.
    ///
    /// Returns a value near zero (not an error) for singular matrices.
    pub fn determinant(&self) -> f64 {
        let n = self.dim();
        let mut det = self.perm_sign;
        for i in 0..n {
            det *= self.lu[(i, i)];
        }
        det
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: &[&[f64]]) -> Matrix {
        Matrix::from_rows(rows).unwrap()
    }

    #[test]
    fn solve_identity() {
        let i = Matrix::identity(4);
        let b = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(i.solve(&b).unwrap(), b.to_vec());
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero forces a row swap.
        let a = mat(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = a.solve(&[3.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 3.0]);
    }

    #[test]
    fn solve_3x3() {
        let a = mat(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]);
        let x = a.solve(&[8.0, -11.0, -3.0]).unwrap();
        let expected = [2.0, 3.0, -1.0];
        for (xi, ei) in x.iter().zip(&expected) {
            assert!((xi - ei).abs() < 1e-10, "{x:?}");
        }
    }

    #[test]
    fn singular_reports_error() {
        let a = mat(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let lu = a.lu().unwrap();
        assert!(lu.is_singular());
        assert!(matches!(
            lu.solve(&[1.0, 1.0]),
            Err(LinalgError::Singular { .. })
        ));
        assert!(lu.determinant().abs() < 1e-9);
    }

    #[test]
    fn inverse_roundtrip() {
        // Solving against each identity column builds `A⁻¹` column by column.
        let a = mat(&[&[4.0, 7.0], &[2.0, 6.0]]);
        let lu = a.lu().unwrap();
        let mut inv = Matrix::zeros(2, 2);
        for j in 0..2 {
            let mut e = vec![0.0; 2];
            e[j] = 1.0;
            for (i, x) in lu.solve(&e).unwrap().into_iter().enumerate() {
                inv[(i, j)] = x;
            }
        }
        let prod = a.matmul(&inv).unwrap();
        assert!(prod.approx_eq(&Matrix::identity(2), 1e-12), "{prod:?}");
    }

    #[test]
    fn determinant_known() {
        let a = mat(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert!((a.determinant().unwrap() + 2.0).abs() < 1e-12);
        // Permutation matrices have determinant ±1.
        let p = mat(&[&[0.0, 1.0], &[1.0, 0.0]]);
        assert!((p.determinant().unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            a.lu(),
            Err(LinalgError::NotSquare { op: "lu", .. })
        ));
    }

    #[test]
    fn empty_rejected() {
        let a = Matrix::zeros(0, 0);
        assert!(matches!(a.lu(), Err(LinalgError::Empty { .. })));
    }

    #[test]
    fn solve_wrong_rhs_len() {
        let a = Matrix::identity(2);
        let lu = a.lu().unwrap();
        assert!(matches!(
            lu.solve(&[1.0]),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn random_solve_residual_small() {
        // Deterministic pseudo-random matrix via an LCG; no rand dependency
        // needed in unit tests.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) + 0.01
        };
        for n in [2usize, 5, 9, 16] {
            let a = Matrix::from_fn(n, n, |_, _| next());
            let b: Vec<f64> = (0..n).map(|_| next()).collect();
            let x = a.solve(&b).unwrap();
            let ax = a.matvec(&x).unwrap();
            let residual: f64 = ax
                .iter()
                .zip(&b)
                .map(|(p, q)| (p - q).abs())
                .fold(0.0, f64::max);
            assert!(residual < 1e-8, "n={n} residual={residual}");
        }
    }

    #[test]
    fn refactor_and_solve_into_match_a_fresh_lu_bitwise() {
        // One reused `Lu` over blocks that pivot, are singular or nearly
        // so must give what a fresh factor and `solve` give, bit for bit.
        let blocks: [&[&[f64]]; 4] = [
            &[&[0.0, 2.0, 1.0], &[1.0, 1.0, 3.0], &[4.0, -1.0, 0.5]],
            &[&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0], &[0.1, 0.7, 0.3]],
            &[&[0.3, 0.9, 0.2], &[0.8, 0.1, 0.4], &[0.5, 0.6, -0.0]],
            &[&[1e-3, 1.0, 1.0], &[1.0, 1e-3, 1.0], &[1.0, 1.0, 1e-3]],
        ];
        let rhs = [1.0, -2.5, 0.75];
        let mut reused = Matrix::identity(3).lu().unwrap();
        let mut x = [f64::NAN; 3];
        for rows in blocks {
            let a = mat(rows);
            let fresh = a.lu().unwrap();
            reused.refactor(|i, j| a[(i, j)]);
            assert_eq!(reused.perm, fresh.perm);
            assert_eq!(reused.perm_sign.to_bits(), fresh.perm_sign.to_bits());
            assert_eq!(reused.min_pivot.to_bits(), fresh.min_pivot.to_bits());
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&reused.lu), bits(&fresh.lu));
            assert_eq!(reused.is_singular(), fresh.is_singular());
            match fresh.solve(&rhs) {
                Ok(want) => {
                    reused.solve_into(&rhs, &mut x).unwrap();
                    let got: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
                    let want: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, want);
                }
                Err(e) => assert_eq!(reused.solve_into(&rhs, &mut x), Err(e)),
            }
        }
        assert!(matches!(
            reused.solve_into(&rhs, &mut [0.0; 2]),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn one_by_one() {
        let a = mat(&[&[5.0]]);
        assert_eq!(a.solve(&[10.0]).unwrap(), vec![2.0]);
        assert!((a.determinant().unwrap() - 5.0).abs() < 1e-12);
    }
}
