//! Support structures: *which* partitions each worker holds.
//!
//! A support structure is the 0/1 skeleton of the coding matrix `B` —
//! `supp(b_i)` in the paper. The heterogeneity-aware scheme fills it by the
//! cyclic rule of Eq. 6: worker `W_i`'s partitions are the `n_i` consecutive
//! indices starting right after worker `W_{i-1}`'s block, modulo `k`.
//! Laying the `m` arcs end-to-end wraps the circle of `k` partitions exactly
//! `s+1` times, so every partition lands on exactly `s+1` distinct workers —
//! the replication needed to tolerate `s` stragglers.

use std::collections::BTreeSet;
use std::fmt;

use crate::allocation::Allocation;
use crate::error::CodingError;

/// The assignment of data partitions to workers (`supp(B)` in the paper).
///
/// Rows are workers; each row is a sorted set of partition indices in
/// `0..k`. The invariant enforced at construction is the paper's
/// replication requirement: **every partition appears on exactly `s+1`
/// distinct workers**.
///
/// # Example
///
/// ```
/// use hetgc_coding::{Allocation, SupportMatrix};
///
/// # fn main() -> Result<(), hetgc_coding::CodingError> {
/// let alloc = Allocation::balanced(&[1.0, 2.0, 3.0, 4.0, 4.0], 7, 1)?;
/// let support = SupportMatrix::cyclic(&alloc)?;
/// // Worker 0 holds 1 partition, worker 3 holds 4 (wrapping around).
/// assert_eq!(support.partitions_of(0), &[0]);
/// assert_eq!(support.partitions_of(3), &[0, 1, 2, 6]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupportMatrix {
    rows: Vec<Vec<usize>>,
    /// Partition `p`'s `s+1` owners, ascending, at
    /// `owners[p·(s+1)..(p+1)·(s+1)]`: the transpose of `rows`, built in
    /// the pass that checks the replication.
    owners: Vec<usize>,
    partitions: usize,
    stragglers: usize,
}

impl SupportMatrix {
    /// Builds the cyclic support of Eq. 6 from an [`Allocation`].
    ///
    /// # Errors
    ///
    /// Propagates [`CodingError::BadReplication`] if the allocation cannot
    /// wrap the circle evenly (can only happen for hand-built allocations
    /// where some `n_i > k`, which [`Allocation`] already rejects — so in
    /// practice this construction always succeeds).
    pub fn cyclic(alloc: &Allocation) -> Result<Self, CodingError> {
        let k = alloc.partitions();
        let mut rows = Vec::with_capacity(alloc.workers());
        let mut offset = 0usize;
        for &n in alloc.counts() {
            let mut parts: Vec<usize> = (0..n).map(|t| (offset + t) % k).collect();
            parts.sort_unstable();
            rows.push(parts);
            offset += n;
        }
        SupportMatrix::indexed(rows, k, alloc.stragglers())
    }

    /// Builds a support from explicit per-worker partition lists.
    ///
    /// # Errors
    ///
    /// * [`CodingError::InvalidParameter`] on out-of-range or duplicate
    ///   partition indices.
    /// * [`CodingError::BadReplication`] if some partition does not have
    ///   exactly `s+1` owners.
    pub fn from_rows(
        rows: Vec<Vec<usize>>,
        partitions: usize,
        stragglers: usize,
    ) -> Result<Self, CodingError> {
        for (w, row) in rows.iter().enumerate() {
            let mut seen = BTreeSet::new();
            for &p in row {
                if p >= partitions {
                    return Err(CodingError::InvalidParameter {
                        reason: format!("worker {w} references partition {p} >= k={partitions}"),
                    });
                }
                if !seen.insert(p) {
                    return Err(CodingError::InvalidParameter {
                        reason: format!("worker {w} holds partition {p} twice"),
                    });
                }
            }
        }
        let mut sorted_rows = rows;
        for row in &mut sorted_rows {
            row.sort_unstable();
        }
        SupportMatrix::indexed(sorted_rows, partitions, stragglers)
    }

    /// Checks that every partition has exactly `s+1` owners and, in the
    /// same pass over `rows` (sorted, in range, duplicate-free), lays the
    /// owner lists out flat by partition.
    fn indexed(
        rows: Vec<Vec<usize>>,
        partitions: usize,
        stragglers: usize,
    ) -> Result<Self, CodingError> {
        let required = stragglers + 1;
        // Exact replication has `k·(s+1)` entries in all. Any other total
        // fails below, and must not size the index first.
        let entries: usize = rows.iter().map(Vec::len).sum();
        let stride = if partitions.checked_mul(required) == Some(entries) {
            required
        } else {
            0
        };
        let mut counts = vec![0usize; partitions];
        let mut owners = vec![0usize; partitions * stride];
        for (w, row) in rows.iter().enumerate() {
            for &p in row {
                if counts[p] < stride {
                    owners[p * stride + counts[p]] = w;
                }
                counts[p] += 1;
            }
        }
        if let Some((partition, &found)) = counts.iter().enumerate().find(|(_, &n)| n != required) {
            return Err(CodingError::BadReplication {
                partition,
                found,
                required,
            });
        }
        Ok(SupportMatrix {
            rows,
            owners,
            partitions,
            stragglers,
        })
    }

    /// Number of workers `m`.
    pub fn workers(&self) -> usize {
        self.rows.len()
    }

    /// Number of partitions `k`.
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// Designed straggler tolerance `s`.
    pub fn stragglers(&self) -> usize {
        self.stragglers
    }

    /// The sorted partition indices held by worker `w` (`supp(b_w)`).
    ///
    /// # Panics
    ///
    /// Panics if `w >= self.workers()`.
    pub fn partitions_of(&self, w: usize) -> &[usize] {
        &self.rows[w]
    }

    /// The sorted workers holding partition `p` (the replica set, always
    /// `s+1` long): a slice of the owner index built at construction, so
    /// `O(1)` with no allocation.
    ///
    /// # Panics
    ///
    /// Panics if `p >= self.partitions()`.
    pub fn owners_of(&self, p: usize) -> &[usize] {
        assert!(p < self.partitions, "partition {p} out of range");
        let r = self.stragglers + 1;
        &self.owners[p * r..(p + 1) * r]
    }
}

impl fmt::Display for SupportMatrix {
    /// Renders the `?`/`0` pattern used in the paper's examples.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "supp(B{}x{}):", self.workers(), self.partitions)?;
        for row in &self.rows {
            for p in 0..self.partitions {
                let c = if row.binary_search(&p).is_ok() {
                    "? "
                } else {
                    "0 "
                };
                write!(f, "{c}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example1_support() -> SupportMatrix {
        let alloc = Allocation::balanced(&[1.0, 2.0, 3.0, 4.0, 4.0], 7, 1).unwrap();
        SupportMatrix::cyclic(&alloc).unwrap()
    }

    #[test]
    fn paper_example_1_support_structure() {
        // Expected from the paper (0-indexed):
        //   W1: {0}; W2: {1,2}; W3: {3,4,5}; W4: {6,0,1,2}; W5: {3,4,5,6}.
        let s = example1_support();
        assert_eq!(s.partitions_of(0), &[0]);
        assert_eq!(s.partitions_of(1), &[1, 2]);
        assert_eq!(s.partitions_of(2), &[3, 4, 5]);
        assert_eq!(s.partitions_of(3), &[0, 1, 2, 6]);
        assert_eq!(s.partitions_of(4), &[3, 4, 5, 6]);
    }

    #[test]
    fn every_partition_has_s_plus_1_owners() {
        let s = example1_support();
        for p in 0..s.partitions() {
            assert_eq!(s.owners_of(p).len(), 2, "partition {p}");
        }
    }

    #[test]
    fn owners_are_distinct_workers() {
        let s = example1_support();
        for p in 0..s.partitions() {
            let owners = s.owners_of(p);
            let set: BTreeSet<_> = owners.iter().collect();
            assert_eq!(set.len(), owners.len());
        }
    }

    #[test]
    fn cyclic_uniform_matches_tandon_layout() {
        // m = k = 4, s = 1: worker i holds {i, i+1 mod 4} — the classic
        // cyclic repetition layout.
        let alloc = Allocation::uniform(4, 4, 1).unwrap();
        let s = SupportMatrix::cyclic(&alloc).unwrap();
        assert_eq!(s.partitions_of(0), &[0, 1]);
        assert_eq!(s.partitions_of(1), &[2, 3]);
        // Note: with n_i = s+1 = 2 and arcs laid end-to-end the circle wraps
        // twice; workers 2,3 repeat the pattern.
        assert_eq!(s.partitions_of(2), &[0, 1]);
        assert_eq!(s.partitions_of(3), &[2, 3]);
    }

    #[test]
    fn holds_and_load() {
        let s = example1_support();
        assert!(s.partitions_of(3).contains(&6));
        assert!(!s.partitions_of(0).contains(&6));
        assert_eq!(s.partitions_of(3).len(), 4);
    }

    #[test]
    fn from_rows_validates_range() {
        let err = SupportMatrix::from_rows(vec![vec![0, 5]], 3, 0).unwrap_err();
        assert!(matches!(err, CodingError::InvalidParameter { .. }));
    }

    #[test]
    fn from_rows_validates_duplicates() {
        let err = SupportMatrix::from_rows(vec![vec![0, 0]], 3, 0).unwrap_err();
        assert!(matches!(err, CodingError::InvalidParameter { .. }));
    }

    #[test]
    fn from_rows_validates_replication() {
        // Partition 2 has no owner.
        let err = SupportMatrix::from_rows(vec![vec![0], vec![1]], 3, 0).unwrap_err();
        assert!(matches!(
            err,
            CodingError::BadReplication {
                partition: 2,
                found: 0,
                required: 1
            }
        ));
    }

    #[test]
    fn from_rows_rejects_a_budget_beyond_the_workers() {
        // Two workers cannot hold three copies of anything; the index is
        // never sized for them.
        let err = SupportMatrix::from_rows(vec![vec![0], vec![0]], 1, usize::MAX / 2).unwrap_err();
        assert!(matches!(
            err,
            CodingError::BadReplication {
                partition: 0,
                found: 2,
                ..
            }
        ));
    }

    #[test]
    fn from_rows_accepts_paper_example_2() {
        // Example 2 of the paper: 7 workers, 4 partitions, s+1 = 4 copies.
        let rows = vec![
            vec![0, 1],
            vec![2],
            vec![3],
            vec![0, 1, 2],
            vec![0, 1, 3],
            vec![0, 2, 3],
            vec![1, 2, 3],
        ];
        let s = SupportMatrix::from_rows(rows, 4, 3).unwrap();
        for p in 0..4 {
            assert_eq!(s.owners_of(p).len(), 4);
        }
    }

    #[test]
    fn display_pattern() {
        let alloc = Allocation::uniform(2, 2, 1).unwrap();
        let s = SupportMatrix::cyclic(&alloc).unwrap();
        let out = format!("{s}");
        assert!(out.contains("supp(B2x2)"));
        assert!(out.contains('?'));
    }
}
