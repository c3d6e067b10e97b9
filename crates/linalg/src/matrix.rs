use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

use crate::error::LinalgError;
use crate::lu::Lu;

/// A dense, row-major matrix of `f64` values.
///
/// `Matrix` is the workhorse of this workspace: coding strategies
/// (`B ∈ R^{m×k}`), auxiliary random matrices (`C ∈ R^{(s+1)×m}`) and decode
/// matrices (`A`) are all `Matrix` values. The type is deliberately simple —
/// owned storage, no views — because every matrix in gradient coding is
/// small.
///
/// # Example
///
/// ```
/// use hetgc_linalg::Matrix;
///
/// # fn main() -> Result<(), hetgc_linalg::LinalgError> {
/// let i = Matrix::identity(3);
/// let a = Matrix::from_rows(&[&[1.0, 2.0, 0.0], &[0.0, 1.0, 1.0], &[2.0, 0.0, 1.0]])?;
/// assert_eq!(a.matmul(&i)?, a);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Example
    /// ```
    /// let z = hetgc_linalg::Matrix::zeros(2, 3);
    /// assert_eq!(z.shape(), (2, 3));
    /// assert_eq!(z[(1, 2)], 0.0);
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows × cols` matrix filled with ones.
    ///
    /// The all-ones row vector `1_{1×k}` is central to gradient coding: a
    /// decode vector `a` is valid exactly when `aB = 1_{1×k}`.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![1.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::RaggedRows`] if the rows have different
    /// lengths, and [`LinalgError::Empty`] if `rows` is empty or the rows
    /// themselves are empty.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, LinalgError> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(LinalgError::Empty { op: "from_rows" });
        }
        let cols = rows[0].len();
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(LinalgError::RaggedRows {
                    expected: cols,
                    found: r.len(),
                    row: i,
                });
            }
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    ///
    /// ```
    /// let hilbert = hetgc_linalg::Matrix::from_fn(3, 3, |i, j| 1.0 / (i + j + 1) as f64);
    /// assert_eq!(hilbert[(0, 0)], 1.0);
    /// ```
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a 1-row matrix from a slice.
    pub fn row_vector(v: &[f64]) -> Self {
        Matrix {
            rows: 1,
            cols: v.len(),
            data: v.to_vec(),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows the underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.nrows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(
            i < self.rows,
            "row index {i} out of bounds ({} rows)",
            self.rows
        );
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.nrows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(
            i < self.rows,
            "row index {i} out of bounds ({} rows)",
            self.rows
        );
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a fresh `Vec`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.ncols()`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(
            j < self.cols,
            "col index {j} out of bounds ({} cols)",
            self.cols
        );
        (0..self.rows)
            .map(|i| self.data[i * self.cols + j])
            .collect()
    }

    /// Iterates over the rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols)
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] unless
    /// `self.ncols() == rhs.nrows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for l in 0..self.cols {
                let a = self.data[i * self.cols + l];
                if a == 0.0 {
                    continue;
                }
                let src = &rhs.data[l * rhs.cols..(l + 1) * rhs.cols];
                let dst = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (d, s) in dst.iter_mut().zip(src) {
                    *d += a * s;
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] unless `v.len() == self.ncols()`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if v.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec",
                left: self.shape(),
                right: (v.len(), 1),
            });
        }
        Ok(self
            .rows_iter()
            .map(|row| row.iter().zip(v).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// Vector–matrix product `v * self` (row vector times matrix).
    ///
    /// This is how decoding works in gradient coding: the decode row `a`
    /// times the strategy `B` must equal the all-ones row.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] unless `v.len() == self.nrows()`.
    pub fn vecmat(&self, v: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if v.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "vecmat",
                left: (1, v.len()),
                right: self.shape(),
            });
        }
        let mut out = vec![0.0; self.cols];
        for (i, &vi) in v.iter().enumerate() {
            if vi == 0.0 {
                continue;
            }
            for (o, &m) in out.iter_mut().zip(self.row(i)) {
                *o += vi * m;
            }
        }
        Ok(out)
    }

    /// Elementwise scaling by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * s).collect(),
        }
    }

    /// Extracts the submatrix formed by the given rows (in order).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::IndexOutOfBounds`] for any out-of-range index.
    pub fn select_rows(&self, rows: &[usize]) -> Result<Matrix, LinalgError> {
        let mut data = Vec::with_capacity(rows.len() * self.cols);
        for &r in rows {
            if r >= self.rows {
                return Err(LinalgError::IndexOutOfBounds {
                    index: r,
                    bound: self.rows,
                    axis: "row",
                });
            }
            data.extend_from_slice(self.row(r));
        }
        Ok(Matrix {
            rows: rows.len(),
            cols: self.cols,
            data,
        })
    }

    /// Extracts the submatrix formed by the given columns (in order).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::IndexOutOfBounds`] for any out-of-range index.
    pub fn select_cols(&self, cols: &[usize]) -> Result<Matrix, LinalgError> {
        for &c in cols {
            if c >= self.cols {
                return Err(LinalgError::IndexOutOfBounds {
                    index: c,
                    bound: self.cols,
                    axis: "col",
                });
            }
        }
        let mut data = Vec::with_capacity(cols.len() * self.rows);
        for i in 0..self.rows {
            for &c in cols {
                data.push(self.data[i * self.cols + c]);
            }
        }
        Ok(Matrix {
            rows: self.rows,
            cols: cols.len(),
            data,
        })
    }

    /// Stacks `self` on top of `other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the column counts differ.
    pub fn vstack(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != other.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "vstack",
                left: self.shape(),
                right: other.shape(),
            });
        }
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Ok(Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        })
    }

    /// Maximum absolute entry (`∞`-norm over entries).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |acc, x| acc.max(x.abs()))
    }

    /// Returns `true` if every entry differs from `other` by at most `tol`.
    ///
    /// Shapes must match; mismatched shapes return `false` rather than
    /// erroring, which keeps assertions in tests terse.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// LU decomposition with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square input and
    /// [`LinalgError::Empty`] for 0×0 input. Singularity is *not* an error
    /// here — it is reported by the operations ([`Lu::solve`] etc.).
    pub fn lu(&self) -> Result<Lu, LinalgError> {
        Lu::new(self)
    }

    /// Solves `self * x = b` for square `self`.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotSquare`], [`LinalgError::ShapeMismatch`] or
    /// [`LinalgError::Singular`].
    ///
    /// # Example
    /// ```
    /// # use hetgc_linalg::Matrix;
    /// # fn main() -> Result<(), hetgc_linalg::LinalgError> {
    /// let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
    /// let x = a.solve(&[1.0, 2.0])?;
    /// let ax = a.matvec(&x)?;
    /// assert!((ax[0] - 1.0).abs() < 1e-12 && (ax[1] - 2.0).abs() < 1e-12);
    /// # Ok(())
    /// # }
    /// ```
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        self.lu()?.solve(b)
    }

    /// Returns the inverse of a square, non-singular matrix.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotSquare`] or [`LinalgError::Singular`].
    pub fn inverse(&self) -> Result<Matrix, LinalgError> {
        self.lu()?.inverse()
    }

    /// Determinant of a square matrix.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotSquare`].
    pub fn determinant(&self) -> Result<f64, LinalgError> {
        Ok(self.lu()?.determinant())
    }

    /// Numerical rank with tolerance `tol` (see the `rank` module internals).
    pub fn rank(&self, tol: f64) -> usize {
        crate::rank::rank(self, tol)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for row in self.rows_iter() {
            write!(f, "  [")?;
            for (j, v) in row.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v:9.4}")?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    /// Elementwise sum.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch; use explicit shape checks when shapes are
    /// not statically known.
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix addition shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    /// Elementwise difference.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "matrix subtraction shape mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Neg for &Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.scale(-1.0)
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, s: f64) -> Matrix {
        self.scale(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: &[&[f64]]) -> Matrix {
        Matrix::from_rows(rows).unwrap()
    }

    #[test]
    fn zeros_ones_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));

        let o = Matrix::ones(3, 2);
        assert!(o.as_slice().iter().all(|&x| x == 1.0));

        let i = Matrix::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::RaggedRows { row: 1, .. }));
    }

    #[test]
    fn from_rows_rejects_empty() {
        assert!(matches!(
            Matrix::from_rows(&[]),
            Err(LinalgError::Empty { .. })
        ));
    }

    #[test]
    fn transpose_roundtrip() {
        let a = mat(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(0, 1)], 4.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = mat(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = mat(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, mat(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_shape_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::ShapeMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn matvec_and_vecmat() {
        let a = mat(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert_eq!(a.vecmat(&[1.0, 1.0]).unwrap(), vec![4.0, 6.0]);
        assert!(a.matvec(&[1.0]).is_err());
        assert!(a.vecmat(&[1.0, 1.0, 1.0]).is_err());
    }

    #[test]
    fn select_rows_and_cols() {
        let a = mat(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]);
        let r = a.select_rows(&[2, 0]).unwrap();
        assert_eq!(r, mat(&[&[7.0, 8.0, 9.0], &[1.0, 2.0, 3.0]]));
        let c = a.select_cols(&[1]).unwrap();
        assert_eq!(c, mat(&[&[2.0], &[5.0], &[8.0]]));
        assert!(a.select_rows(&[3]).is_err());
        assert!(a.select_cols(&[5]).is_err());
    }

    #[test]
    fn vstack_stacks() {
        let a = mat(&[&[1.0, 2.0]]);
        let b = mat(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let s = a.vstack(&b).unwrap();
        assert_eq!(s.shape(), (3, 2));
        assert_eq!(s.row(2), &[5.0, 6.0]);
        assert!(a.vstack(&Matrix::zeros(1, 3)).is_err());
    }

    #[test]
    fn norms() {
        let a = mat(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    fn approx_eq_tolerates() {
        let a = mat(&[&[1.0, 2.0]]);
        let b = mat(&[&[1.0 + 1e-12, 2.0 - 1e-12]]);
        assert!(a.approx_eq(&b, 1e-10));
        assert!(!a.approx_eq(&b, 1e-14));
        assert!(!a.approx_eq(&Matrix::zeros(2, 1), 1.0));
    }

    #[test]
    fn operators() {
        let a = mat(&[&[1.0, 2.0]]);
        let b = mat(&[&[3.0, 5.0]]);
        assert_eq!(&a + &b, mat(&[&[4.0, 7.0]]));
        assert_eq!(&b - &a, mat(&[&[2.0, 3.0]]));
        assert_eq!(-&a, mat(&[&[-1.0, -2.0]]));
        assert_eq!(&a * 2.0, mat(&[&[2.0, 4.0]]));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_panics_on_shape_mismatch() {
        let _ = &mat(&[&[1.0]]) + &mat(&[&[1.0, 2.0]]);
    }

    #[test]
    fn row_col_access() {
        let a = mat(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.row(1), &[3.0, 4.0]);
        assert_eq!(a.col(0), vec![1.0, 3.0]);
        let rows: Vec<&[f64]> = a.rows_iter().collect();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn row_mut_updates() {
        let mut a = Matrix::zeros(2, 2);
        a.row_mut(1)[0] = 9.0;
        assert_eq!(a[(1, 0)], 9.0);
        a[(0, 1)] = 5.0;
        assert_eq!(a[(0, 1)], 5.0);
    }

    #[test]
    fn from_fn_fills() {
        let a = Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64);
        assert_eq!(a.as_slice(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn debug_is_nonempty() {
        let s = format!("{:?}", Matrix::zeros(1, 1));
        assert!(s.contains("Matrix 1x1"));
    }

    #[test]
    fn row_and_col_vectors() {
        assert_eq!(Matrix::row_vector(&[1.0, 2.0]).shape(), (1, 2));
    }
}
