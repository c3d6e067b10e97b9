//! Partition bookkeeping: which sample ranges make up each data partition.
//!
//! The coding layer thinks in partition indices; the ML layer thinks in
//! sample ranges. [`PartitionAssignment`] is the bridge: it slices a
//! dataset of `n` samples into `k` near-equal contiguous partitions
//! (the paper's "k equal-sized data partitions", §III-A) and answers
//! range queries for both layers.

use serde::{Deserialize, Serialize};

use crate::error::ClusterError;

/// A partitioning of `n` samples into `k` contiguous ranges.
///
/// Partition `p` covers `[start(p), end(p))`. When `k ∤ n` the first
/// `n mod k` partitions get one extra sample, so sizes differ by at most 1.
///
/// # Example
///
/// ```
/// use hetgc_cluster::PartitionAssignment;
///
/// # fn main() -> Result<(), hetgc_cluster::ClusterError> {
/// let pa = PartitionAssignment::even(10, 3)?;
/// assert_eq!(pa.range(0)?, (0, 4));  // 4 samples
/// assert_eq!(pa.range(1)?, (4, 7));  // 3 samples
/// assert_eq!(pa.range(2)?, (7, 10)); // 3 samples
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionAssignment {
    boundaries: Vec<usize>,
}

impl PartitionAssignment {
    /// Splits `samples` into `partitions` near-equal contiguous ranges.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownPartition`] if `partitions == 0` or
    /// `partitions > samples` (a partition may not be empty — the paper's
    /// partial gradients are over non-empty data).
    pub fn even(samples: usize, partitions: usize) -> Result<Self, ClusterError> {
        if partitions == 0 || partitions > samples {
            return Err(ClusterError::UnknownPartition {
                partition: partitions,
                count: samples,
            });
        }
        let base = samples / partitions;
        let extra = samples % partitions;
        let mut boundaries = Vec::with_capacity(partitions + 1);
        let mut pos = 0;
        boundaries.push(0);
        for p in 0..partitions {
            pos += base + usize::from(p < extra);
            boundaries.push(pos);
        }
        debug_assert_eq!(pos, samples);
        Ok(PartitionAssignment { boundaries })
    }

    /// Number of partitions `k`.
    pub fn partitions(&self) -> usize {
        self.boundaries.len() - 1
    }

    /// Total number of samples `n`.
    pub fn samples(&self) -> usize {
        *self.boundaries.last().expect("non-empty boundaries")
    }

    /// The `[start, end)` sample range of partition `p`.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownPartition`] for out-of-range `p`.
    pub fn range(&self, p: usize) -> Result<(usize, usize), ClusterError> {
        if p + 1 >= self.boundaries.len() {
            return Err(ClusterError::UnknownPartition {
                partition: p,
                count: self.partitions(),
            });
        }
        Ok((self.boundaries[p], self.boundaries[p + 1]))
    }

    /// Iterates over the `(start, end)` ranges in partition order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.boundaries.windows(2).map(|w| (w[0], w[1]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_division() {
        let pa = PartitionAssignment::even(12, 4).unwrap();
        assert_eq!(pa.partitions(), 4);
        assert_eq!(pa.samples(), 12);
        for (lo, hi) in pa.iter() {
            assert_eq!(hi - lo, 3);
        }
    }

    #[test]
    fn uneven_division_sizes_differ_by_at_most_one() {
        let pa = PartitionAssignment::even(10, 3).unwrap();
        let sizes: Vec<usize> = pa.iter().map(|(lo, hi)| hi - lo).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
        assert_eq!(sizes.iter().sum::<usize>(), 10);
    }

    #[test]
    fn ranges_are_contiguous_and_cover() {
        let pa = PartitionAssignment::even(17, 5).unwrap();
        let mut expected_start = 0;
        for (lo, hi) in pa.iter() {
            assert_eq!(lo, expected_start);
            assert!(hi > lo);
            expected_start = hi;
        }
        assert_eq!(expected_start, 17);
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(PartitionAssignment::even(5, 0).is_err());
        assert!(PartitionAssignment::even(3, 5).is_err());
    }

    #[test]
    fn range_out_of_bounds() {
        let pa = PartitionAssignment::even(4, 2).unwrap();
        assert!(pa.range(2).is_err());
        assert!(pa.range(7).is_err());
    }

    #[test]
    fn single_partition() {
        let pa = PartitionAssignment::even(5, 1).unwrap();
        assert_eq!(pa.range(0).unwrap(), (0, 5));
    }
}
