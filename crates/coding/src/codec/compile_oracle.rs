//! A differential oracle for the compile: [`CodeScan`]'s one pass over
//! the nonzeros of `B` against the dense column hashing it replaced, kept
//! here as a test-only reference. Both must find the same `k′`, keep the
//! same distinct columns in the same order (rows, bitsets and scales are
//! compared bit for bit: columns of one class are bit-identical, so which
//! copy is kept shows only through that order), build the same CSR, give
//! codes the same fingerprint exactly when the old hash did, and let
//! sessions plan the same bits.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use hetgc_linalg::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use super::*;
use crate::{cyclic, fractional_repetition, group_based, heter_aware, naive};

/// The rows over the distinct columns as they were built: every dense
/// column's `m` bit patterns hashed, the first of each class kept, then
/// each worker's row read across the kept columns. Returns the kept
/// columns too.
fn reference_store(code: &CodingMatrix) -> (Vec<usize>, RowStore) {
    let (m, k) = (code.workers(), code.partitions());
    let mut seen = HashSet::with_capacity(k);
    let kept: Vec<usize> = (0..k)
        .filter(|&j| {
            seen.insert(
                (0..m)
                    .map(|w| code.row(w)[j].to_bits())
                    .collect::<Vec<u64>>(),
            )
        })
        .collect();
    let words = kept.len().div_ceil(64);
    let mut rows = Runs::new(Vec::new());
    rows.masks = vec![0; m * words];
    let mut scales = Vec::with_capacity(m);
    for w in 0..m {
        let start = rows.idx.len();
        for (c, &j) in kept.iter().enumerate() {
            let v = code.row(w)[j];
            if v != 0.0 {
                rows.idx.push(c);
                rows.vals.push(v);
                rows.masks[w * words + c / 64] |= 1 << (c % 64);
            }
        }
        rows.ptr.push(rows.idx.len());
        scales.push(kernels::norm_inf(&rows.vals[start..]).max(1.0));
    }
    let store = RowStore {
        rows,
        scales,
        distinct: kept.len(),
    };
    (kept, store)
}

/// The encoder's CSR as it was built: a dense scan per row.
fn reference_csr(code: &CodingMatrix) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
    let mut row_ptr = vec![0];
    let (mut support, mut coeffs) = (Vec::new(), Vec::new());
    for w in 0..code.workers() {
        for (j, &v) in code.row(w).iter().enumerate() {
            if v != 0.0 {
                support.push(j);
                coeffs.push(v);
            }
        }
        row_ptr.push(support.len());
    }
    (row_ptr, support, coeffs)
}

/// The fingerprint as it was: every dense entry's bits.
fn reference_fingerprint(code: &CodingMatrix) -> u64 {
    let mut h = DefaultHasher::new();
    code.workers().hash(&mut h);
    code.partitions().hash(&mut h);
    code.stragglers().hash(&mut h);
    for w in 0..code.workers() {
        for &v in code.row(w) {
            v.to_bits().hash(&mut h);
        }
    }
    h.finish()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_store_eq(got: &RowStore, want: &RowStore, what: &str) {
    assert_eq!(got.distinct, want.distinct, "{what}: k′");
    assert_eq!(got.rows.ptr, want.rows.ptr, "{what}: row pointers");
    assert_eq!(got.rows.idx, want.rows.idx, "{what}: kept columns");
    assert_eq!(
        bits(&got.rows.vals),
        bits(&want.rows.vals),
        "{what}: values"
    );
    assert_eq!(got.rows.masks, want.rows.masks, "{what}: bitsets");
    assert_eq!(bits(&got.scales), bits(&want.scales), "{what}: scales");
}

fn code_of(rows: &[&[f64]], s: usize) -> CodingMatrix {
    code_of_matrix(Matrix::from_rows(rows).unwrap(), s)
}

fn code_of_matrix(b: Matrix, s: usize) -> CodingMatrix {
    CodingMatrix::from_matrix(b, s).unwrap()
}

/// Codes of every scheme kind — naive, cyclic, fractional repetition,
/// heter-aware and group-based, the Cluster-D shape among them — plus
/// hand-built ones with duplicate, all-zero and `−0.0` columns.
fn codes() -> Vec<(String, CodingMatrix)> {
    let mut out = Vec::new();
    let mut rng = StdRng::seed_from_u64(5);
    // 58 workers at uneven rates, s = 3, k = 162: the `sim-bsp-miss`
    // shape. And 72 workers, whose codes span two bitset words.
    let uneven =
        |m: usize| -> Vec<f64> { (0..m).map(|w| 1.0 + (w * 37 % 11) as f64 / 4.0).collect() };
    let (cluster_d, wide) = (uneven(58), uneven(72));
    let rates: [(&[f64], usize, usize); 5] = [
        (&[1.0, 2.0, 3.0, 4.0, 4.0], 7, 1),
        (&[1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0], 12, 2),
        (&[1.0, 1.0, 1.0, 1.0, 2.0, 2.0], 8, 1),
        (&cluster_d, 162, 3),
        (&wide, 200, 2),
    ];
    for (r, k, s) in rates {
        let m = r.len();
        out.push((format!("naive m={m}"), naive(m).unwrap()));
        out.push((format!("cyclic m={m}"), cyclic(m, s, &mut rng).unwrap()));
        if let Ok(code) = fractional_repetition(m, m, s) {
            out.push((format!("frac-rep m={m}"), code));
        }
        let code = heter_aware(r, k, s, &mut rng).unwrap();
        out.push((format!("heter-aware m={m} k={k}"), code));
        let code = group_based(r, k, s, &mut rng).unwrap().into_code();
        out.push((format!("group-based m={m} k={k}"), code));
    }
    out.push((
        "duplicates".into(),
        code_of(
            &[
                &[1.0, 0.0, 1.0, 1.0, 2.0],
                &[0.5, 1.0, 0.5, 0.5, 0.0],
                &[0.0, 3.0, 0.0, 0.0, 1.0],
            ],
            0,
        ),
    ));
    out.push((
        "signed zeros".into(),
        code_of(
            &[
                &[1.0, 0.0, -0.0, 0.0, -0.0, 1.0],
                &[0.0, 1.0, 1.0, 0.0, -0.0, -0.0],
                &[-0.0, 2.0, 2.0, 0.0, -0.0, 1.0],
            ],
            1,
        ),
    ));
    out
}

#[test]
fn compile_matches_the_dense_column_hashing() {
    let mut wide = 0;
    for (what, code) in codes() {
        let scan = CodeScan::of(&code);
        let (kept, want) = reference_store(&code);
        assert_eq!(scan.store.distinct, kept.len(), "{what}");
        assert_store_eq(&scan.store, &want, &what);
        let (row_ptr, support, coeffs) = reference_csr(&code);
        assert_eq!(scan.row_ptr, row_ptr, "{what}");
        assert_eq!(scan.support, support, "{what}");
        assert_eq!(bits(&scan.coeffs), bits(&coeffs), "{what}");
        // The compiled codec and the uncompiled code's sessions read it.
        let codec = CompiledCodec::new(code.clone());
        assert_store_eq(&codec.store, &want, &what);
        assert_eq!(codec.scheme_fingerprint(), scan.fingerprint, "{what}");
        wide += usize::from(kept.len() > 64);
    }
    assert!(wide > 0, "no code spans more than one bitset word");
}

#[test]
fn fingerprints_are_equal_iff_the_codes_are_bitwise_identical() {
    // Every code, each with three near twins: one coefficient's lowest
    // mantissa bit flipped, one `+0.0` made `−0.0`, and one straggler
    // budget changed.
    let mut all = Vec::new();
    for (what, code) in codes() {
        let b = code.matrix();
        let (m, k) = b.shape();
        let at = (0..m * k).find(|&i| b.as_slice()[i] != 0.0).unwrap();
        let mut flipped = b.clone();
        let v = &mut flipped[(at / k, at % k)];
        *v = f64::from_bits(v.to_bits() ^ 1);
        all.push((
            format!("{what} one bit"),
            code_of_matrix(flipped, code.stragglers()),
        ));
        if let Some(z) = (0..m * k).find(|&i| b.as_slice()[i].to_bits() == 0) {
            let mut signed = b.clone();
            signed[(z / k, z % k)] = -0.0;
            all.push((
                format!("{what} −0.0"),
                code_of_matrix(signed, code.stragglers()),
            ));
        }
        let other_s = if code.stragglers() == 0 { 1 } else { 0 };
        if other_s < m {
            all.push((
                format!("{what} s={other_s}"),
                code_of_matrix(b.clone(), other_s),
            ));
        }
        all.push((what, code));
    }
    // A twin built independently of each code: same bits, same print.
    let twins: Vec<_> = all
        .iter()
        .map(|(_, c)| code_of_matrix(c.matrix().clone(), c.stragglers()))
        .collect();
    let prints: Vec<u64> = all
        .iter()
        .map(|(_, c)| CodeScan::of(c).fingerprint)
        .collect();
    let old_prints: Vec<u64> = all.iter().map(|(_, c)| reference_fingerprint(c)).collect();
    for (i, (what_i, a)) in all.iter().enumerate() {
        assert_eq!(CodeScan::of(&twins[i]).fingerprint, prints[i], "{what_i}");
        for (j, (what_j, b)) in all.iter().enumerate().skip(i + 1) {
            let same = a.stragglers() == b.stragglers()
                && a.matrix().shape() == b.matrix().shape()
                && bits(a.matrix().as_slice()) == bits(b.matrix().as_slice());
            assert_eq!(prints[i] == prints[j], same, "{what_i} vs {what_j}");
            assert_eq!(old_prints[i] == old_prints[j], same, "{what_i} vs {what_j}");
        }
    }
}

#[test]
fn sessions_plan_the_same_bits_as_over_the_dense_hashed_rows() {
    let mut rng = StdRng::seed_from_u64(9);
    for (what, code) in codes() {
        let mut got = CodecSession::new(Arc::new(CodeScan::of(&code).store));
        let mut want = CodecSession::new(Arc::new(reference_store(&code).1));
        let mut order: Vec<usize> = (0..code.workers()).collect();
        for round in 0..8 {
            order.shuffle(&mut rng);
            got.reset();
            want.reset();
            for &w in &order {
                let (a, b) = (got.push(w).unwrap(), want.push(w).unwrap());
                assert_eq!(got.rank(), want.rank(), "{what} round {round}");
                match (a, b) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        assert_eq!(a.workers(), b.workers(), "{what} round {round}");
                        assert_eq!(bits(a.coefficients()), bits(b.coefficients()));
                        assert_eq!(a.residual().to_bits(), b.residual().to_bits());
                        break;
                    }
                    (a, b) => panic!("{what} round {round}: {a:?} vs {b:?}"),
                }
            }
        }
    }
}
