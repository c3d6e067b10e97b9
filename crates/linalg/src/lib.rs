//! # hetgc-linalg
//!
//! A small, dependency-free dense linear-algebra kernel purpose-built for
//! gradient-coding research. Gradient coding strategies (see the
//! `hetgc-coding` crate) are matrices over `f64`; constructing them requires
//! solving small dense systems (Alg. 1 of the paper inverts an
//! `(s+1)×(s+1)` submatrix per data partition), and verifying them requires
//! rank / span-membership tests (Condition C1 of the paper).
//!
//! The crate provides:
//!
//! * [`Matrix`] — a row-major dense `f64` matrix with the usual algebra.
//! * [`Lu`] — LU decomposition with partial pivoting ([`Matrix::lu`]),
//!   powering [`Matrix::solve`], [`Matrix::inverse`] and
//!   [`Matrix::determinant`].
//! * Rank and span utilities ([`Matrix::rank`], [`in_span`], [`solve_any`])
//!   used by the Condition-C1 checker and the one-shot decode solve.
//! * The chunked, auto-vectorizable data-plane kernels in [`kernels`] —
//!   the per-round encode/decode hot loops.
//! * Slice helpers in [`vec_ops`] (`supp(b)`, `ℓ₀`, `max_abs_diff`).
//!
//! # Example
//!
//! ```
//! use hetgc_linalg::Matrix;
//!
//! # fn main() -> Result<(), hetgc_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]])?;
//! let x = a.solve(&[5.0, 10.0])?;
//! assert!((x[0] - 1.0).abs() < 1e-12);
//! assert!((x[1] - 3.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```
//!
//! The *construction-time* routines ([`Matrix`], [`Lu`]) are
//! `O(n³)` textbook implementations: the matrices involved in gradient
//! coding are tiny (`m ≤` a few hundred workers, `s+1 ≤ m`), so clarity
//! and numerical robustness (partial pivoting, explicit tolerance
//! handling) win over blocked performance kernels. The *data-plane*
//! routines ([`kernels`]) are the opposite trade: they run over
//! `d`-length gradients every round and are written to vectorize.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod kernels;
mod lu;
mod matrix;
mod rank;
pub mod vec_ops;

pub use error::LinalgError;
pub use lu::Lu;
pub use matrix::Matrix;
pub use rank::{in_span, solve_any, DEFAULT_TOLERANCE};
