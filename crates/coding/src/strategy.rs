//! The gradient coding strategy matrix `B` and its metadata.

use std::fmt;

use hetgc_linalg::{kernels, vec_ops, Matrix};

use crate::error::CodingError;
use crate::support::SupportMatrix;

/// A gradient coding strategy `B ∈ R^{m×k}` (Definition in §III-B).
///
/// Row `b_i` simultaneously encodes (a) which partitions worker `W_i`
/// computes (`supp(b_i)`) and (b) the linear combination
/// `g̃_i = b_i·[g_1..g_k]ᵀ` it returns to the master. The designed straggler
/// tolerance `s` travels with the matrix so that decoders and verifiers
/// don't need out-of-band context.
///
/// Use the construction functions in this crate
/// ([`heter_aware`](crate::heter_aware()), [`cyclic`](crate::cyclic()),
/// [`group_based`](crate::group_based()), …) rather than building rows by
/// hand; they guarantee Condition C1 with probability 1.
#[derive(Debug, Clone, PartialEq)]
pub struct CodingMatrix {
    b: Matrix,
    stragglers: usize,
}

impl CodingMatrix {
    /// Wraps an explicit matrix as a strategy. The caller asserts (or later
    /// verifies via [`crate::verify_condition_c1`]) that `b` tolerates `s`
    /// stragglers.
    ///
    /// # Errors
    ///
    /// [`CodingError::InvalidParameter`] if `s >= m`, the matrix is empty,
    /// or an entry is NaN or infinite (no decode over it can be exact).
    pub fn from_matrix(b: Matrix, stragglers: usize) -> Result<Self, CodingError> {
        if b.nrows() == 0 || b.ncols() == 0 {
            return Err(CodingError::InvalidParameter {
                reason: "empty coding matrix".into(),
            });
        }
        if let Some(at) = b.as_slice().iter().position(|v| !v.is_finite()) {
            let (w, j) = (at / b.ncols(), at % b.ncols());
            return Err(CodingError::InvalidParameter {
                reason: format!("entry b[{w}][{j}] = {} is not finite", b.as_slice()[at]),
            });
        }
        if stragglers >= b.nrows() {
            return Err(CodingError::InvalidParameter {
                reason: format!("s={} must be < m={}", stragglers, b.nrows()),
            });
        }
        Ok(CodingMatrix { b, stragglers })
    }

    /// Number of workers `m`.
    pub fn workers(&self) -> usize {
        self.b.nrows()
    }

    /// Number of partitions `k`.
    pub fn partitions(&self) -> usize {
        self.b.ncols()
    }

    /// Designed straggler tolerance `s`.
    pub fn stragglers(&self) -> usize {
        self.stragglers
    }

    /// The underlying matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.b
    }

    /// Row `b_w` — worker `w`'s encoding coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `w >= self.workers()`.
    pub fn row(&self, w: usize) -> &[f64] {
        self.b.row(w)
    }

    /// `supp(b_w)`: the partitions worker `w` computes.
    ///
    /// # Panics
    ///
    /// Panics if `w >= self.workers()`.
    pub(crate) fn support_of(&self, w: usize) -> Vec<usize> {
        vec_ops::support(self.b.row(w))
    }

    /// `‖b_w‖₀`: how many partitions worker `w` computes.
    ///
    /// # Panics
    ///
    /// Panics if `w >= self.workers()`.
    pub fn load_of(&self, w: usize) -> usize {
        vec_ops::l0_norm(self.b.row(w))
    }

    /// Computation time `t_w = ‖b_w‖₀ / c_w` of worker `w` (§III-C) under
    /// throughput `c_w` (partitions per unit time).
    ///
    /// # Errors
    ///
    /// [`CodingError::InvalidParameter`] if `w >= m` or `throughput` is
    /// not positive and finite (matching the error discipline of the
    /// sibling methods instead of panicking).
    pub fn computation_time(&self, w: usize, throughput: f64) -> Result<f64, CodingError> {
        if w >= self.workers() {
            return Err(CodingError::InvalidParameter {
                reason: format!("worker {w} >= m={}", self.workers()),
            });
        }
        if !(throughput.is_finite() && throughput > 0.0) {
            return Err(CodingError::InvalidParameter {
                reason: format!("throughput {throughput} must be positive and finite"),
            });
        }
        Ok(self.load_of(w) as f64 / throughput)
    }

    /// Extracts the support structure (validating replication as `s+1`).
    ///
    /// # Errors
    ///
    /// [`CodingError::BadReplication`] if the rows don't replicate every
    /// partition exactly `s+1` times (possible for hand-built matrices).
    pub fn to_support(&self) -> Result<SupportMatrix, CodingError> {
        let rows: Vec<Vec<usize>> = (0..self.workers()).map(|w| self.support_of(w)).collect();
        SupportMatrix::from_rows(rows, self.partitions(), self.stragglers)
    }

    /// Encodes partial gradients: `g̃_w = Σ_j b_wj · g_j` for worker `w`.
    ///
    /// `partials[j]` is the partial gradient `g_j` for partition `j`; only
    /// the partitions in `supp(b_w)` are read (the others may be empty).
    ///
    /// # Errors
    ///
    /// [`CodingError::InvalidParameter`] if a needed partial is missing or
    /// the gradient dimensions disagree.
    pub fn encode(&self, w: usize, partials: &[Vec<f64>]) -> Result<Vec<f64>, CodingError> {
        if partials.len() != self.partitions() {
            return Err(CodingError::InvalidParameter {
                reason: format!(
                    "expected {} partials, got {}",
                    self.partitions(),
                    partials.len()
                ),
            });
        }
        let support = self.support_of(w);
        // An empty-support worker must still emit a d-length zero vector
        // (not a 0-length one), so fall back to the first non-empty
        // partial for the dimension — mirroring `CompiledCodec`'s ragged
        // encode, which the differential tests hold bitwise-equal to this.
        let dim = match support.first() {
            Some(&j) => partials[j].len(),
            None => partials.iter().find(|p| !p.is_empty()).map_or(0, Vec::len),
        };
        let mut out = vec![0.0; dim];
        for &j in &support {
            if partials[j].len() != dim {
                return Err(CodingError::InvalidParameter {
                    reason: format!(
                        "partial {} has dim {}, expected {}",
                        j,
                        partials[j].len(),
                        dim
                    ),
                });
            }
            kernels::axpy(self.b.row(w)[j], &partials[j], &mut out);
        }
        Ok(out)
    }

    /// The worst-case completion time `T(B)` of Eq. 3 under throughputs
    /// `c`, assuming *full* stragglers (the paper's model): the adversary
    /// removes the `s` workers whose loss hurts most, and the completion
    /// time is the time at which the surviving prefix (by completion order)
    /// first spans `1`.
    ///
    /// This evaluates Eq. 3 exactly by enumerating all `C(m, s)` straggler
    /// patterns, so it is intended for analysis on small-to-moderate `m`.
    ///
    /// # Errors
    ///
    /// [`CodingError::InvalidParameter`] if `c.len() != m` or any
    /// throughput is non-positive.
    pub fn worst_case_time(&self, throughputs: &[f64]) -> Result<f64, CodingError> {
        let m = self.workers();
        if throughputs.len() != m {
            return Err(CodingError::InvalidParameter {
                reason: format!("expected {m} throughputs, got {}", throughputs.len()),
            });
        }
        if throughputs.iter().any(|&c| c <= 0.0 || !c.is_finite()) {
            return Err(CodingError::InvalidParameter {
                reason: "throughputs must be positive and finite".into(),
            });
        }
        let times: Vec<f64> = (0..m)
            .map(|w| self.computation_time(w, throughputs[w]))
            .collect::<Result<_, _>>()?;
        let mut worst: f64 = 0.0;
        let mut found_any = false;
        let mut pattern = Vec::new();
        let mut best_for_pattern = |stragglers: &[usize]| -> Result<(), CodingError> {
            let t = self.completion_time_with_stragglers(&times, stragglers)?;
            if t > worst {
                worst = t;
            }
            found_any = true;
            Ok(())
        };
        enumerate_subsets(m, self.stragglers, &mut pattern, &mut best_for_pattern)?;
        if !found_any {
            return Err(CodingError::InvalidParameter {
                reason: "no straggler patterns".into(),
            });
        }
        Ok(worst)
    }

    /// Completion time `T(B, S)` for one concrete straggler set `S`
    /// (§III-C): workers finish in order of `t_w`; the task completes at the
    /// earliest time at which the finished non-stragglers span `1`.
    ///
    /// # Errors
    ///
    /// [`CodingError::InvalidParameter`] unless `times` holds one finite,
    /// non-negative time per worker; [`CodingError::NotDecodable`] if even
    /// all non-stragglers cannot decode (B is not robust to this pattern).
    fn completion_time_with_stragglers(
        &self,
        times: &[f64],
        stragglers: &[usize],
    ) -> Result<f64, CodingError> {
        let m = self.workers();
        if times.len() != m {
            return Err(CodingError::InvalidParameter {
                reason: format!("expected {m} worker times, got {}", times.len()),
            });
        }
        if times.iter().any(|t| !(t.is_finite() && *t >= 0.0)) {
            return Err(CodingError::InvalidParameter {
                reason: "worker times must be finite and non-negative".into(),
            });
        }
        let mut order: Vec<usize> = (0..m).filter(|w| !stragglers.contains(w)).collect();
        order.sort_by(|&a, &b| times[a].total_cmp(&times[b]));
        let mut received: Vec<usize> = Vec::new();
        let ones = vec![1.0; self.partitions()];
        for &w in &order {
            received.push(w);
            let rows = self.b.select_rows(&received)?;
            if hetgc_linalg::in_span(&rows, &ones, hetgc_linalg::DEFAULT_TOLERANCE) {
                return Ok(times[w]);
            }
        }
        Err(CodingError::NotDecodable { survivors: order })
    }
}

impl fmt::Display for CodingMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CodingMatrix(m={}, k={}, s={})",
            self.workers(),
            self.partitions(),
            self.stragglers
        )
    }
}

/// Calls `f` on every subset of `{0..m}` of size exactly `size`.
pub(crate) fn enumerate_subsets<F>(
    m: usize,
    size: usize,
    scratch: &mut Vec<usize>,
    f: &mut F,
) -> Result<(), CodingError>
where
    F: FnMut(&[usize]) -> Result<(), CodingError>,
{
    fn rec<F>(
        m: usize,
        size: usize,
        start: usize,
        scratch: &mut Vec<usize>,
        f: &mut F,
    ) -> Result<(), CodingError>
    where
        F: FnMut(&[usize]) -> Result<(), CodingError>,
    {
        if scratch.len() == size {
            return f(scratch);
        }
        let needed = size - scratch.len();
        for i in start..=(m - needed) {
            scratch.push(i);
            rec(m, size, i + 1, scratch, f)?;
            scratch.pop();
        }
        Ok(())
    }
    if size > m {
        return Ok(());
    }
    scratch.clear();
    rec(m, size, 0, scratch, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_b() -> CodingMatrix {
        // m=3, k=2, s=1: rows [1,0], [0,1], [1,1]; any 2 rows span [1,1].
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]).unwrap();
        CodingMatrix::from_matrix(b, 1).unwrap()
    }

    #[test]
    fn accessors() {
        let cm = simple_b();
        assert_eq!(cm.workers(), 3);
        assert_eq!(cm.partitions(), 2);
        assert_eq!(cm.stragglers(), 1);
        assert_eq!(cm.support_of(2), vec![0, 1]);
        assert_eq!(cm.load_of(0), 1);
        assert_eq!(cm.row(1), &[0.0, 1.0]);
        assert!(format!("{cm}").contains("m=3"));
    }

    #[test]
    fn from_matrix_validates() {
        let b = Matrix::ones(2, 2);
        assert!(CodingMatrix::from_matrix(b.clone(), 2).is_err());
        assert!(CodingMatrix::from_matrix(b, 1).is_ok());
        assert!(CodingMatrix::from_matrix(Matrix::zeros(0, 0), 0).is_err());
    }

    #[test]
    fn from_matrix_rejects_non_finite_entries() {
        // Unchecked, the NaN row decodes as "exact" from worker 0 alone
        // (plan {0: 1.0}): `norm_inf` ignores NaN in the residual.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let b = Matrix::from_rows(&[&[bad, 1.0], &[0.0, 1.0], &[1.0, 1.0]]).unwrap();
            let err = CodingMatrix::from_matrix(b, 1).unwrap_err();
            assert!(
                matches!(&err, CodingError::InvalidParameter { reason } if reason.contains("b[0][0]")),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn computation_time_scales_with_load() {
        let cm = simple_b();
        assert_eq!(cm.computation_time(0, 2.0).unwrap(), 0.5);
        assert_eq!(cm.computation_time(2, 2.0).unwrap(), 1.0);
    }

    #[test]
    fn computation_time_rejects_bad_inputs() {
        let cm = simple_b();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                cm.computation_time(0, bad),
                Err(CodingError::InvalidParameter { .. })
            ));
        }
        assert!(matches!(
            cm.computation_time(99, 1.0),
            Err(CodingError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn encode_combines_partials() {
        let cm = simple_b();
        let partials = vec![vec![1.0, 2.0], vec![10.0, 20.0]];
        assert_eq!(cm.encode(0, &partials).unwrap(), vec![1.0, 2.0]);
        assert_eq!(cm.encode(2, &partials).unwrap(), vec![11.0, 22.0]);
    }

    #[test]
    fn encode_rejects_dim_mismatch() {
        let cm = simple_b();
        let partials = vec![vec![1.0, 2.0], vec![10.0]];
        assert!(cm.encode(2, &partials).is_err());
        assert!(cm.encode(0, &[vec![1.0]]).is_err());
    }

    #[test]
    fn encode_skips_unneeded_partials() {
        let cm = simple_b();
        // Worker 0 only needs partition 0; partition 1 may be empty.
        let partials = vec![vec![1.0, 2.0], Vec::new()];
        assert_eq!(cm.encode(0, &partials).unwrap(), vec![1.0, 2.0]);
    }

    #[test]
    fn completion_time_no_stragglers() {
        let cm = simple_b();
        // times: w0=1, w1=2, w2=3. After w0 (t=1): [1,0] doesn't span.
        // After w1 (t=2): rows {[1,0],[0,1]} span [1,1] → t=2.
        let t = cm
            .completion_time_with_stragglers(&[1.0, 2.0, 3.0], &[])
            .unwrap();
        assert_eq!(t, 2.0);
    }

    #[test]
    fn completion_time_with_straggler() {
        let cm = simple_b();
        // Worker 1 is a straggler: must wait for w2 (t=3): rows {[1,0],[1,1]}
        // span [1,1] (subtract) → t=3.
        let t = cm
            .completion_time_with_stragglers(&[1.0, 2.0, 3.0], &[1])
            .unwrap();
        assert_eq!(t, 3.0);
    }

    #[test]
    fn completion_time_not_decodable() {
        // B = identity(2), s=1 designed but actually not robust.
        let b = Matrix::identity(2);
        let cm = CodingMatrix::from_matrix(b, 1).unwrap();
        let err = cm
            .completion_time_with_stragglers(&[1.0, 2.0], &[0])
            .unwrap_err();
        assert!(matches!(err, CodingError::NotDecodable { .. }));
    }

    #[test]
    fn completion_time_rejects_malformed_times() {
        let cm = simple_b();
        let invalid = |times: &[f64]| {
            let err = cm.completion_time_with_stragglers(times, &[]).unwrap_err();
            assert!(
                matches!(err, CodingError::InvalidParameter { .. }),
                "{times:?}: {err:?}"
            );
        };
        // One time per worker, no fewer and no more.
        invalid(&[1.0, 2.0]);
        invalid(&[1.0, 2.0, 3.0, 4.0]);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            invalid(&[1.0, bad, 3.0]);
        }
        // A straggler's time is validated too, and zero is a valid time.
        let err = cm
            .completion_time_with_stragglers(&[1.0, f64::NAN, 3.0], &[1])
            .unwrap_err();
        assert!(matches!(err, CodingError::InvalidParameter { .. }));
        let t = cm
            .completion_time_with_stragglers(&[0.0, 0.0, 3.0], &[])
            .unwrap();
        assert_eq!(t, 0.0);
    }

    #[test]
    fn worst_case_time_enumerates_patterns() {
        let cm = simple_b();
        // Equal speeds: every worker takes load_w. Patterns: {0},{1},{2}.
        // {0}: after w1(t=1)? times [1,1,2]: w1 t=1 rows [0,1] no; w2 t=2
        // rows {[0,1],[1,1]} yes → 2. {1}: similarly 2. {2}: w0,w1 at t=1 →
        // 1... order w0 then w1: after both t=1 → decode at t=1.
        let wc = cm.worst_case_time(&[1.0, 1.0, 1.0]).unwrap();
        assert_eq!(wc, 2.0);
    }

    #[test]
    fn worst_case_validates_inputs() {
        let cm = simple_b();
        assert!(cm.worst_case_time(&[1.0]).is_err());
        assert!(cm.worst_case_time(&[1.0, -1.0, 1.0]).is_err());
    }

    #[test]
    fn to_support_roundtrip() {
        // Build a replication-valid matrix: m=3,k=3,s=0 → identity works
        // (each partition once).
        let b = Matrix::identity(3);
        let cm = CodingMatrix::from_matrix(b, 0).unwrap();
        let sup = cm.to_support().unwrap();
        assert_eq!(sup.partitions_of(1), &[1]);
    }

    #[test]
    fn enumerate_subsets_counts() {
        let mut count = 0;
        let mut scratch = Vec::new();
        enumerate_subsets(5, 2, &mut scratch, &mut |_s| {
            count += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(count, 10);
    }

    #[test]
    fn enumerate_subsets_size_zero() {
        let mut count = 0;
        let mut scratch = Vec::new();
        enumerate_subsets(3, 0, &mut scratch, &mut |s| {
            assert!(s.is_empty());
            count += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(count, 1);
    }

    #[test]
    fn enumerate_subsets_size_exceeds_m() {
        let mut count = 0;
        let mut scratch = Vec::new();
        enumerate_subsets(2, 3, &mut scratch, &mut |_s| {
            count += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(count, 0);
    }
}
