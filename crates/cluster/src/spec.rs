//! Cluster descriptions, including the paper's Table II configurations.

use serde::{Deserialize, Serialize};

use crate::error::ClusterError;
use crate::worker::WorkerSpec;

/// A heterogeneous cluster: an ordered collection of [`WorkerSpec`]s plus a
/// per-core throughput rate that converts vCPU counts into work-units per
/// second.
///
/// # Example
///
/// ```
/// use hetgc_cluster::ClusterSpec;
///
/// // Two 2-vCPU workers and one 8-vCPU worker at 100 units/s per core.
/// let cluster = ClusterSpec::from_vcpu_rows("demo", &[(2, 2), (1, 8)], 100.0)
///     .expect("non-empty");
/// assert_eq!(cluster.len(), 3);
/// assert_eq!(cluster.throughputs(), vec![200.0, 200.0, 800.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    workers: Vec<WorkerSpec>,
    per_core_rate: f64,
    name: String,
}

impl ClusterSpec {
    /// Starts building a cluster.
    pub(crate) fn builder() -> ClusterSpecBuilder {
        ClusterSpecBuilder::default()
    }

    /// Builds a cluster from a list of `(count, vcpus)` rows — the shape of
    /// the paper's Table II.
    ///
    /// # Errors
    ///
    /// [`ClusterError::EmptyCluster`] if all counts are zero.
    pub fn from_vcpu_rows(
        name: &str,
        rows: &[(usize, u32)],
        per_core_rate: f64,
    ) -> Result<Self, ClusterError> {
        let mut b = ClusterSpec::builder()
            .name(name)
            .per_core_rate(per_core_rate);
        for &(count, vcpus) in rows {
            b = b.add_workers(count, WorkerSpec::new(vcpus));
        }
        b.build()
    }

    /// Table II **Cluster-A** (8 workers): 2×2-vCPU, 2×4-vCPU, 3×8-vCPU,
    /// 1×12-vCPU.
    pub fn cluster_a() -> Self {
        Self::from_vcpu_rows("Cluster-A", &[(2, 2), (2, 4), (3, 8), (1, 12)], 1.0)
            .expect("static table")
    }

    /// Table II **Cluster-B** (16 workers): 2×2, 4×4, 8×8, 2×16 vCPUs.
    pub fn cluster_b() -> Self {
        Self::from_vcpu_rows("Cluster-B", &[(2, 2), (4, 4), (8, 8), (2, 16)], 1.0)
            .expect("static table")
    }

    /// Table II **Cluster-C** (32 workers): 1×2, 4×4, 10×8, 12×12, 5×16
    /// vCPUs.
    pub fn cluster_c() -> Self {
        Self::from_vcpu_rows(
            "Cluster-C",
            &[(1, 2), (4, 4), (10, 8), (12, 12), (5, 16)],
            1.0,
        )
        .expect("static table")
    }

    /// Table II **Cluster-D** (58 workers): 4×4, 20×8, 18×12, 16×16 vCPUs.
    ///
    /// Note: the paper's prose says clusters "range from 8 workers to 48
    /// workers" but its Table II rows for Cluster-D sum to 58; we reproduce
    /// the table verbatim (see DESIGN.md).
    pub fn cluster_d() -> Self {
        Self::from_vcpu_rows("Cluster-D", &[(4, 4), (20, 8), (18, 12), (16, 16)], 1.0)
            .expect("static table")
    }

    /// All four Table II clusters, in order.
    pub fn table2() -> Vec<ClusterSpec> {
        vec![
            Self::cluster_a(),
            Self::cluster_b(),
            Self::cluster_c(),
            Self::cluster_d(),
        ]
    }

    /// The cluster's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of workers `m`.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// Returns `true` if the cluster has no workers (builders reject this).
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// The worker specs in index order.
    pub fn workers(&self) -> &[WorkerSpec] {
        &self.workers
    }

    /// True throughputs `c_i` of all workers, in work-units per second.
    pub fn throughputs(&self) -> Vec<f64> {
        self.workers
            .iter()
            .map(|w| w.throughput(self.per_core_rate))
            .collect()
    }

    /// Sum of all worker throughputs `Σc_i`.
    pub fn total_throughput(&self) -> f64 {
        self.throughputs().iter().sum()
    }

    /// Heterogeneity ratio: fastest throughput over slowest.
    pub fn heterogeneity(&self) -> f64 {
        let c = self.throughputs();
        let max = c.iter().cloned().fold(f64::MIN, f64::max);
        let min = c.iter().cloned().fold(f64::MAX, f64::min);
        max / min
    }
}

/// Builder for [`ClusterSpec`] (non-consuming terminal per the builder
/// guideline: `build` borrows).
#[derive(Debug, Clone, Default)]
pub(crate) struct ClusterSpecBuilder {
    workers: Vec<WorkerSpec>,
    per_core_rate: Option<f64>,
    name: Option<String>,
}

impl ClusterSpecBuilder {
    /// Appends `count` copies of `spec`.
    pub(crate) fn add_workers(mut self, count: usize, spec: WorkerSpec) -> Self {
        self.workers.extend(std::iter::repeat_n(spec, count));
        self
    }

    /// Sets the per-core work rate (default 1.0).
    pub(crate) fn per_core_rate(mut self, rate: f64) -> Self {
        self.per_core_rate = Some(rate);
        self
    }

    /// Sets the cluster name (default `"custom"`).
    pub(crate) fn name(mut self, name: &str) -> Self {
        self.name = Some(name.to_owned());
        self
    }

    /// Finishes the build.
    ///
    /// # Errors
    ///
    /// [`ClusterError::EmptyCluster`] if no workers were added.
    pub(crate) fn build(self) -> Result<ClusterSpec, ClusterError> {
        if self.workers.is_empty() {
            return Err(ClusterError::EmptyCluster);
        }
        Ok(ClusterSpec {
            workers: self.workers,
            per_core_rate: self.per_core_rate.unwrap_or(1.0),
            name: self.name.unwrap_or_else(|| "custom".to_owned()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_sizes_match_paper() {
        assert_eq!(ClusterSpec::cluster_a().len(), 8);
        assert_eq!(ClusterSpec::cluster_b().len(), 16);
        assert_eq!(ClusterSpec::cluster_c().len(), 32);
        assert_eq!(ClusterSpec::cluster_d().len(), 58);
        assert_eq!(ClusterSpec::table2().len(), 4);
    }

    #[test]
    fn cluster_a_composition() {
        let a = ClusterSpec::cluster_a();
        let mut vcpus: Vec<u32> = a.workers().iter().map(|w| w.vcpus()).collect();
        vcpus.sort_unstable();
        assert_eq!(vcpus, vec![2, 2, 4, 4, 8, 8, 8, 12]);
        assert_eq!(a.name(), "Cluster-A");
    }

    #[test]
    fn throughputs_scale_with_rate() {
        let a = ClusterSpec::from_vcpu_rows("x", &[(1, 2), (1, 4)], 10.0).unwrap();
        assert_eq!(a.throughputs(), vec![20.0, 40.0]);
        assert_eq!(a.total_throughput(), 60.0);
        assert_eq!(a.per_core_rate, 10.0);
    }

    #[test]
    fn heterogeneity_ratio() {
        let a = ClusterSpec::cluster_a();
        assert_eq!(a.heterogeneity(), 6.0); // 12 / 2
    }

    #[test]
    fn builder_roundtrip() {
        let c = ClusterSpec::builder()
            .add_workers(1, WorkerSpec::new(2))
            .add_workers(2, WorkerSpec::new(2))
            .name("test")
            .build()
            .unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.throughputs(), vec![2.0, 2.0, 2.0]);
        assert_eq!(c.name(), "test");
        assert!(!c.is_empty());
    }

    #[test]
    fn empty_build_rejected() {
        assert_eq!(
            ClusterSpec::builder().build().unwrap_err(),
            ClusterError::EmptyCluster
        );
        assert!(ClusterSpec::from_vcpu_rows("homogeneous", &[(0, 2)], 1.0).is_err());
    }

    #[test]
    fn homogeneous_has_ratio_one() {
        let c = ClusterSpec::from_vcpu_rows("homogeneous", &[(5, 8)], 1.0).unwrap();
        assert_eq!(c.heterogeneity(), 1.0);
    }

    #[test]
    fn serde_roundtrip() {
        let c = ClusterSpec::cluster_a();
        let json = serde_json_like(&c);
        assert!(json.contains("Cluster-A"));
    }

    /// Minimal serialization smoke test without a serde_json dependency:
    /// serialize into the debug representation of the Serialize impl via
    /// a trivial serializer is overkill; instead check Debug formatting
    /// carries the name (the struct is plain data).
    fn serde_json_like(c: &ClusterSpec) -> String {
        format!("{c:?}")
    }
}
