//! Heterogeneity-aware data allocation (Eq. 5 of the paper).
//!
//! Worker `W_i` receives `n_i = k(s+1)·c_i / Σ_j c_j` data partitions, so
//! that every worker finishes its local batch in the same time
//! `n_i / c_i = k(s+1)/Σc` — the load-balancing step that removes
//! *consistent* stragglers caused by heterogeneity. The paper assumes the
//! `n_i` are integers; this module implements the general case via
//! largest-remainder rounding while preserving `Σ n_i = k(s+1)`.

use crate::error::CodingError;

/// The per-worker partition counts `n_1..n_m` for a coding run, together
/// with the parameters that produced them.
///
/// # Example
///
/// ```
/// use hetgc_coding::Allocation;
///
/// # fn main() -> Result<(), hetgc_coding::CodingError> {
/// // Example 1 of the paper: c = [1,2,3,4,4], k = 7, s = 1.
/// let alloc = Allocation::balanced(&[1.0, 2.0, 3.0, 4.0, 4.0], 7, 1)?;
/// assert_eq!(alloc.counts(), &[1, 2, 3, 4, 4]);
/// assert_eq!(alloc.total(), 14); // k(s+1)
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    counts: Vec<usize>,
    partitions: usize,
    stragglers: usize,
}

impl Allocation {
    /// Computes the load-balanced allocation of Eq. 5 with
    /// largest-remainder rounding.
    ///
    /// # Errors
    ///
    /// * [`CodingError::InvalidParameter`] if `throughputs` is empty, `k` is
    ///   zero, `s + 1 > m`, or any throughput is non-positive/non-finite.
    /// * [`CodingError::InfeasibleAllocation`] if some `n_i` would exceed
    ///   `k` (one worker faster than the rest of the cluster combined, to
    ///   the point it would hold every partition more than once).
    pub fn balanced(
        throughputs: &[f64],
        partitions: usize,
        stragglers: usize,
    ) -> Result<Self, CodingError> {
        let m = throughputs.len();
        validate_params(m, partitions, stragglers)?;
        for (i, &c) in throughputs.iter().enumerate() {
            if !(c.is_finite() && c > 0.0) {
                return Err(CodingError::InvalidParameter {
                    reason: format!(
                        "throughput of worker {i} must be positive and finite, got {c}"
                    ),
                });
            }
        }
        let total = partitions * (stragglers + 1);
        let sum: f64 = throughputs.iter().sum();
        // Largest-remainder (Hamilton) apportionment of `total` seats.
        let quotas: Vec<f64> = throughputs.iter().map(|c| total as f64 * c / sum).collect();
        let mut counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
        let assigned: usize = counts.iter().sum();
        let mut order: Vec<usize> = (0..m).collect();
        // Sort by descending fractional part; ties broken by worker index
        // for determinism.
        order.sort_by(|&a, &b| {
            let fa = quotas[a] - quotas[a].floor();
            let fb = quotas[b] - quotas[b].floor();
            fb.partial_cmp(&fa).expect("finite quotas").then(a.cmp(&b))
        });
        for &i in order.iter().take(total - assigned) {
            counts[i] += 1;
        }
        for (i, &n) in counts.iter().enumerate() {
            if n > partitions {
                return Err(CodingError::InfeasibleAllocation {
                    worker: i,
                    assigned: n,
                    partitions,
                });
            }
        }
        Ok(Allocation {
            counts,
            partitions,
            stragglers,
        })
    }

    /// The uniform allocation used by the cyclic baseline of Tandon et al.:
    /// every worker gets the same number of partitions. Requires
    /// `m | k(s+1)`; the canonical choice in the paper is `k = m`, giving
    /// `n_i = s+1`.
    ///
    /// # Errors
    ///
    /// [`CodingError::Divisibility`] if `m` does not divide `k(s+1)`, plus
    /// the parameter checks of [`Allocation::balanced`].
    pub fn uniform(
        workers: usize,
        partitions: usize,
        stragglers: usize,
    ) -> Result<Self, CodingError> {
        validate_params(workers, partitions, stragglers)?;
        let total = partitions * (stragglers + 1);
        if !total.is_multiple_of(workers) {
            return Err(CodingError::Divisibility {
                reason: format!(
                    "uniform allocation requires m | k(s+1): m={workers}, k(s+1)={total}"
                ),
            });
        }
        let per = total / workers;
        if per > partitions {
            return Err(CodingError::InfeasibleAllocation {
                worker: 0,
                assigned: per,
                partitions,
            });
        }
        Ok(Allocation {
            counts: vec![per; workers],
            partitions,
            stragglers,
        })
    }

    /// Per-worker partition counts `n_i`.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Number of workers `m`.
    pub fn workers(&self) -> usize {
        self.counts.len()
    }

    /// Number of data partitions `k`.
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// Designed straggler tolerance `s`.
    pub fn stragglers(&self) -> usize {
        self.stragglers
    }

    /// Total copies distributed: always `k(s+1)`.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }
}

fn validate_params(m: usize, k: usize, s: usize) -> Result<(), CodingError> {
    if m == 0 {
        return Err(CodingError::InvalidParameter {
            reason: "no workers".into(),
        });
    }
    if k == 0 {
        return Err(CodingError::InvalidParameter {
            reason: "no partitions".into(),
        });
    }
    if s + 1 > m {
        return Err(CodingError::InvalidParameter {
            reason: format!("need s+1 <= m to place s+1 replicas, got s={s}, m={m}"),
        });
    }
    Ok(())
}

/// Searches for the smallest partition count `k in [min_k, max_k]` for which
/// Eq. 5 yields near-integral `n_i` (within `tol` of an integer for every
/// worker). Returns `max_k` when no such `k` exists — largest-remainder
/// rounding then handles the residue.
///
/// The experiment harness uses this to pick `k` per cluster so that the
/// simulated schemes match the paper's idealized integral allocation.
pub fn suggest_partition_count(
    throughputs: &[f64],
    stragglers: usize,
    min_k: usize,
    max_k: usize,
) -> usize {
    let sum: f64 = throughputs.iter().sum();
    let tol = 1e-9;
    for k in min_k..=max_k {
        let total = (k * (stragglers + 1)) as f64;
        let integral = throughputs.iter().all(|c| {
            let q = total * c / sum;
            (q - q.round()).abs() < tol && q.round() <= k as f64
        });
        if integral {
            return k;
        }
    }
    max_k
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_1_allocation() {
        let a = Allocation::balanced(&[1.0, 2.0, 3.0, 4.0, 4.0], 7, 1).unwrap();
        assert_eq!(a.counts(), &[1, 2, 3, 4, 4]);
        assert_eq!(a.total(), 14);
        assert_eq!(a.workers(), 5);
        assert_eq!(a.partitions(), 7);
        assert_eq!(a.stragglers(), 1);
    }

    #[test]
    fn balanced_sums_to_total_with_rounding() {
        // Non-integral quotas: 3 workers, k=5, s=1 → total 10, c=[1,1,1.5].
        let a = Allocation::balanced(&[1.0, 1.0, 1.5], 5, 1).unwrap();
        assert_eq!(a.total(), 10);
        // Quotas: 2.857, 2.857, 4.286 → floors 2,2,4 (8), remainders
        // .857,.857,.286 → workers 0,1 get the extra seats.
        assert_eq!(a.counts(), &[3, 3, 4]);
    }

    #[test]
    fn balanced_monotone_in_throughput() {
        let a = Allocation::balanced(&[1.0, 2.0, 4.0, 5.0], 12, 1).unwrap();
        let c = a.counts();
        for w in 1..c.len() {
            assert!(c[w] >= c[w - 1], "{c:?} not monotone");
        }
        assert_eq!(a.total(), 24);
        assert_eq!(c, &[2, 4, 8, 10]);
    }

    #[test]
    fn infeasible_when_one_worker_dominates() {
        // One worker 100× faster: would need n_i > k.
        let err = Allocation::balanced(&[100.0, 1.0], 4, 1).unwrap_err();
        assert!(matches!(err, CodingError::InfeasibleAllocation { .. }));
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(Allocation::balanced(&[], 4, 0).is_err());
        assert!(Allocation::balanced(&[1.0], 0, 0).is_err());
        assert!(Allocation::balanced(&[1.0, 1.0], 4, 2).is_err()); // s+1 > m
        assert!(Allocation::balanced(&[1.0, -1.0, 1.0], 4, 1).is_err());
        assert!(Allocation::balanced(&[1.0, f64::NAN], 4, 1).is_err());
    }

    #[test]
    fn uniform_matches_cyclic_baseline() {
        // k = m = 6, s = 2 → every worker holds 3 partitions.
        let a = Allocation::uniform(6, 6, 2).unwrap();
        assert_eq!(a.counts(), &[3; 6]);
    }

    #[test]
    fn uniform_divisibility_enforced() {
        assert!(matches!(
            Allocation::uniform(4, 5, 0),
            Err(CodingError::Divisibility { .. })
        ));
    }

    #[test]
    fn uniform_infeasible_when_per_exceeds_k() {
        // m=2, k=2, s=1 → per = 2 == k fine; m=2, k=1, s=1 → per=1 == k fine.
        // m=1 is rejected earlier by s+1<=m. Construct per > k: m=2, k=3, s=3
        // invalid (s+1>m).
        assert!(Allocation::uniform(2, 2, 1).is_ok());
    }

    #[test]
    fn suggest_k_finds_integral() {
        // c = [1,2,3,4,4], s=1, Σc = 14 → k(s+1)=2k must make 2k·c_i/14
        // integral: k = 7 works.
        let k = suggest_partition_count(&[1.0, 2.0, 3.0, 4.0, 4.0], 1, 2, 50);
        assert_eq!(k, 7);
        let a = Allocation::balanced(&[1.0, 2.0, 3.0, 4.0, 4.0], k, 1).unwrap();
        assert_eq!(a.counts(), &[1, 2, 3, 4, 4]);
    }

    #[test]
    fn suggest_k_falls_back_to_max() {
        // Irrational ratio: nothing integral, falls back to max_k.
        let k = suggest_partition_count(&[1.0, std::f64::consts::SQRT_2], 1, 2, 10);
        assert_eq!(k, 10);
    }

    #[test]
    fn equal_throughputs_reduce_to_uniform() {
        let a = Allocation::balanced(&[2.0; 8], 8, 1).unwrap();
        let u = Allocation::uniform(8, 8, 1).unwrap();
        assert_eq!(a.counts(), u.counts());
    }
}
