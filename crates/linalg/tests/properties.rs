//! Property-based tests for the linear-algebra kernel.
//!
//! These target the algebraic identities the coding layer relies on:
//! solve/inverse exactness, rank monotonicity, span-membership soundness
//! and the data-plane kernels' equivalence to their scalar definitions.

use hetgc_linalg::{in_span, kernels, Matrix, DEFAULT_TOLERANCE};
use proptest::prelude::*;

/// Strategy: an element drawn from finite values *and* the non-finite
/// specials, so kernel-equivalence properties cover NaN/±inf propagation
/// (the old `axpy` zero-alpha shortcut diverged exactly there).
fn wild_f64() -> impl Strategy<Value = f64> {
    (0u32..13, -1e6f64..1e6).prop_map(|(tag, v)| match tag {
        8 => f64::NAN,
        9 => f64::INFINITY,
        10 => f64::NEG_INFINITY,
        11 => 0.0,
        12 => -0.0,
        _ => v,
    })
}

/// Bitwise comparison that treats any-NaN-pattern as equal (proptest may
/// synthesize the one NaN constant, but `0·∞` produces a different
/// payload than `NAN`; they are the same value for our contract).
fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x.is_nan() && y.is_nan()) || x.to_bits() == y.to_bits())
}

/// Strategy: a well-conditioned-ish square matrix (diagonally dominated) of
/// side `n`, entries in (-1, 1) plus `n` on the diagonal. Diagonal dominance
/// guarantees invertibility, so solve-based properties never vacuously pass.
fn dominant_square(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1.0f64..1.0, n * n).prop_map(move |mut data| {
        for i in 0..n {
            data[i * n + i] += n as f64 + 1.0;
        }
        Matrix::from_fn(n, n, |i, j| data[i * n + j])
    })
}

fn vector(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-10.0f64..10.0, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn solve_then_multiply_recovers_rhs(n in 1usize..8) {
        let runner = (dominant_square(n), vector(n));
        proptest!(|((a, b) in runner)| {
            let x = a.solve(&b).unwrap();
            let ax = a.matvec(&x).unwrap();
            for (p, q) in ax.iter().zip(&b) {
                prop_assert!((p - q).abs() < 1e-8, "residual too large");
            }
        });
    }

    #[test]
    fn inverse_is_two_sided(a in dominant_square(5)) {
        let inv = a.inverse().unwrap();
        let left = inv.matmul(&a).unwrap();
        let right = a.matmul(&inv).unwrap();
        let id = Matrix::identity(5);
        prop_assert!(left.approx_eq(&id, 1e-8));
        prop_assert!(right.approx_eq(&id, 1e-8));
    }

    #[test]
    fn determinant_of_product_multiplies(a in dominant_square(4), b in dominant_square(4)) {
        let da = a.determinant().unwrap();
        let db = b.determinant().unwrap();
        let dab = a.matmul(&b).unwrap().determinant().unwrap();
        let scale = da.abs().max(db.abs()).max(1.0);
        prop_assert!((dab - da * db).abs() / (scale * scale) < 1e-6);
    }

    #[test]
    fn transpose_preserves_rank(
        data in prop::collection::vec(-1.0f64..1.0, 12),
    ) {
        let a = Matrix::from_fn(3, 4, |i, j| data[i * 4 + j]);
        prop_assert_eq!(a.rank(DEFAULT_TOLERANCE), a.transpose().rank(DEFAULT_TOLERANCE));
    }

    #[test]
    fn linear_combination_is_in_span(
        rows in prop::collection::vec(prop::collection::vec(-5.0f64..5.0, 6), 1..4),
        coeffs in prop::collection::vec(-3.0f64..3.0, 4),
    ) {
        let row_refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let m = Matrix::from_rows(&row_refs).unwrap();
        let mut target = vec![0.0; 6];
        for (row, &c) in rows.iter().zip(&coeffs) {
            for (t, &v) in target.iter_mut().zip(row) {
                *t += c * v;
            }
        }
        prop_assert!(in_span(&m, &target, DEFAULT_TOLERANCE));
    }

    #[test]
    fn vector_outside_row_space_is_rejected(
        rows in prop::collection::vec(prop::collection::vec(0.1f64..5.0, 4), 1..3),
    ) {
        // Rows live in the first 4 coords of R^5; e5 cannot be in their span
        // after embedding (last coordinate zero for all rows).
        let embedded: Vec<Vec<f64>> = rows
            .iter()
            .map(|r| {
                let mut v = r.clone();
                v.push(0.0);
                v
            })
            .collect();
        let row_refs: Vec<&[f64]> = embedded.iter().map(|r| r.as_slice()).collect();
        let m = Matrix::from_rows(&row_refs).unwrap();
        let e_last = [0.0, 0.0, 0.0, 0.0, 1.0];
        prop_assert!(!in_span(&m, &e_last, DEFAULT_TOLERANCE));
    }

    #[test]
    fn matmul_associative(
        a in dominant_square(3),
        b in dominant_square(3),
        c in dominant_square(3),
    ) {
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        prop_assert!(left.approx_eq(&right, 1e-6 * left.max_abs().max(1.0)));
    }

    #[test]
    fn rank_of_stacked_duplicate_rows_unchanged(
        row in prop::collection::vec(-5.0f64..5.0, 5),
        k in 1usize..4,
    ) {
        prop_assume!(row.iter().any(|&x| x.abs() > 1e-6));
        let rows: Vec<&[f64]> = std::iter::repeat_n(row.as_slice(), k).collect();
        let m = Matrix::from_rows(&rows).unwrap();
        prop_assert_eq!(m.rank(DEFAULT_TOLERANCE), 1);
    }

    /// The chunked `axpy` kernel is bitwise-identical to the scalar
    /// definition — including on NaN/±inf inputs with `alpha == 0.0`,
    /// where the old early-return shortcut used to diverge.
    #[test]
    fn chunked_axpy_bitwise_equals_scalar(
        alpha in wild_f64(),
        xy in prop::collection::vec((wild_f64(), wild_f64()), 0..70),
    ) {
        let x: Vec<f64> = xy.iter().map(|p| p.0).collect();
        let mut y: Vec<f64> = xy.iter().map(|p| p.1).collect();
        let mut y_ref = y.clone();
        kernels::axpy(alpha, &x, &mut y);
        for (yi, &xi) in y_ref.iter_mut().zip(&x) {
            *yi += alpha * xi;
        }
        prop_assert!(bits_eq(&y, &y_ref), "chunked {y:?} vs scalar {y_ref:?}");
    }

    /// Several `axpy`s fused into one pass over `y` (and the variant that
    /// starts from zeros without writing them) are bitwise the calls made
    /// one after another — non-finite inputs and zero coefficients
    /// included.
    #[test]
    fn fused_axpy_rows_bitwise_equal_the_axpy_sequence(
        alpha in (wild_f64(), wild_f64(), wild_f64()),
        rows in prop::collection::vec((wild_f64(), wild_f64(), wild_f64(), wild_f64()), 0..40),
    ) {
        let alpha = [alpha.0, alpha.1, alpha.2];
        let column = |c: usize| -> Vec<f64> {
            rows.iter().map(|r| [r.0, r.1, r.2, r.3][c]).collect()
        };
        let x = [column(0), column(1), column(2)];
        let x = [&x[0][..], &x[1][..], &x[2][..]];
        for zeroed in [false, true] {
            let mut want = if zeroed { vec![0.0; rows.len()] } else { column(3) };
            for c in 0..3 {
                kernels::axpy(alpha[c], x[c], &mut want);
            }
            let mut got = column(3);
            if zeroed {
                kernels::axpy_rows_zeroed(alpha, x, &mut got);
            } else {
                kernels::axpy_rows(alpha, x, &mut got);
            }
            prop_assert!(bits_eq(&got, &want), "zeroed {zeroed}: {got:?} vs {want:?}");
        }
    }

    /// Same pin for `scale`: elementwise, so chunking is layout-only.
    #[test]
    fn chunked_scale_bitwise_equals_scalar(
        alpha in wild_f64(),
        x in prop::collection::vec(wild_f64(), 0..70),
    ) {
        let mut chunked = x.clone();
        let mut scalar = x;
        kernels::scale(alpha, &mut chunked);
        for v in scalar.iter_mut() {
            *v *= alpha;
        }
        prop_assert!(bits_eq(&chunked, &scalar));
    }

    /// The ordered multi-dot is bitwise-identical to one scalar
    /// left-to-right fold per row — on NaN/±inf/−0.0 too, for every
    /// block/tail split of the chains and every length (an empty fold
    /// keeps the identity's sign bit).
    #[test]
    fn ordered_multi_dot_bitwise_equals_scalar_folds(
        n in 0usize..40,
        rows in 0usize..(3 * kernels::CHAINS + 2),
        values in prop::collection::vec(wild_f64(), 40 * (3 * kernels::CHAINS + 3)),
    ) {
        let (shared, rest) = values.split_at(n);
        let rows: Vec<&[f64]> = rest.chunks_exact(n.max(1)).take(rows).map(|r| &r[..n]).collect();
        let scalar: Vec<f64> = rows
            .iter()
            .map(|r| shared.iter().zip(*r).map(|(s, x)| s * x).sum::<f64>())
            .collect();
        let mut chained = vec![f64::NAN; rows.len()];
        kernels::dot_ordered_each(shared, rows.iter().copied(), &mut chained);
        prop_assert!(bits_eq(&chained, &scalar), "chained {chained:?} vs scalar {scalar:?}");
    }

    /// The whole-round block-decode kernel is bitwise-identical to the
    /// per-row `axpy` sequence it replaces, for any row count, dimension
    /// (spanning several column blocks), and thread split.
    #[test]
    fn block_decode_bitwise_equals_axpy_sequence(
        coeffs in prop::collection::vec(-3.0f64..3.0, 0..6),
        d in 1usize..(3 * kernels::COL_BLOCK),
        seed in 0u64..1000,
    ) {
        let rows: Vec<Vec<f64>> = (0..coeffs.len())
            .map(|i| {
                (0..d)
                    .map(|t| (((seed + i as u64) * 31 + t as u64) % 97) as f64 - 48.0)
                    .collect()
            })
            .collect();
        let mut reference = vec![0.0; d];
        for (i, &c) in coeffs.iter().enumerate() {
            kernels::axpy(c, &rows[i], &mut reference);
        }
        let mut sequential = vec![f64::NAN; d];
        kernels::block_decode_threads(&coeffs, &|i| rows[i].as_slice(), &mut sequential, 1);
        prop_assert!(bits_eq(&sequential, &reference));
        let mut parallel = vec![f64::NAN; d];
        kernels::block_decode_threads(&coeffs, &|i| rows[i].as_slice(), &mut parallel, 4);
        prop_assert!(bits_eq(&parallel, &reference));
    }
}
