//! Unified construction of every scheme the paper evaluates.

use std::error::Error;
use std::fmt;

use hetgc_cluster::ClusterSpec;
use hetgc_coding::{
    cyclic, fractional_repetition, group_based, heter_aware, naive, suggest_partition_count,
    CodecBackend, CodingError, CodingMatrix, CompiledCodec, Group,
};
use rand::Rng;

/// The schemes compared in §VI of the paper (plus the fractional-repetition
/// extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Uncoded BSP: uniform split, wait for everyone.
    Naive,
    /// Cyclic gradient coding of Tandon et al. \[12\] (heterogeneity-blind).
    Cyclic,
    /// Fractional repetition coding (extension; not in the paper's plots).
    FractionalRepetition,
    /// The paper's Algorithm 1.
    HeterAware,
    /// The paper's Algorithms 2–3.
    GroupBased,
}

impl SchemeKind {
    /// The four schemes plotted in the paper's figures, in plot order.
    pub const PAPER: [SchemeKind; 4] = [
        SchemeKind::Naive,
        SchemeKind::Cyclic,
        SchemeKind::HeterAware,
        SchemeKind::GroupBased,
    ];

    /// All implemented schemes.
    pub const ALL: [SchemeKind; 5] = [
        SchemeKind::Naive,
        SchemeKind::Cyclic,
        SchemeKind::FractionalRepetition,
        SchemeKind::HeterAware,
        SchemeKind::GroupBased,
    ];

    /// Short display name matching the paper's legends.
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::Naive => "naive",
            SchemeKind::Cyclic => "cyclic",
            SchemeKind::FractionalRepetition => "frac-rep",
            SchemeKind::HeterAware => "heter-aware",
            SchemeKind::GroupBased => "group-based",
        }
    }
}

impl fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A constructed scheme: the coding matrix plus scheme-specific metadata.
#[derive(Debug, Clone)]
pub struct SchemeInstance {
    /// Which scheme this is.
    pub kind: SchemeKind,
    /// The strategy matrix (with its designed straggler tolerance).
    pub code: CodingMatrix,
    /// The pruned groups (non-empty only for [`SchemeKind::GroupBased`]).
    pub groups: Vec<Group>,
    /// The throughput estimates the construction used (for diagnostics).
    pub estimates: Vec<f64>,
}

impl SchemeInstance {
    /// Number of partitions `k` this scheme divides the dataset into.
    pub fn partitions(&self) -> usize {
        self.code.partitions()
    }

    /// Designed straggler tolerance (0 for naive).
    pub fn stragglers(&self) -> usize {
        self.code.stragglers()
    }

    /// Compiles the strategy into a [`CompiledCodec`]: precomputed sparse
    /// supports for encoding plus an LRU decode-plan cache. Every trainer,
    /// simulator and experiment driver in this workspace routes its
    /// per-iteration encode/decode through the result.
    pub fn compile(&self) -> CompiledCodec {
        CompiledCodec::new(self.code.clone())
    }

    /// Compiles the strategy with the stages `backend` names
    /// ([`CodecBackend::compile`]), the intact-group stage over *this
    /// scheme's own* pruned groups — none except for
    /// [`SchemeKind::GroupBased`], so `Auto` and `Group` then answer
    /// exactly like `Exact`.
    ///
    /// # Errors
    ///
    /// Propagates [`CompiledCodec::with_groups`] validation (never fails
    /// for groups produced by [`SchemeBuilder`]).
    pub fn compile_backend(&self, backend: CodecBackend) -> Result<CompiledCodec, CodingError> {
        backend.compile(self.code.clone(), Some(&self.groups))
    }
}

/// Builds [`SchemeInstance`]s for a cluster.
///
/// The builder owns the knobs every scheme shares: the straggler budget
/// `s`, the throughput estimates (defaulting to the cluster's true
/// throughputs — perfect estimation), and an optional partition-count
/// override.
///
/// # Example
///
/// ```
/// use hetgc::{ClusterSpec, SchemeBuilder, SchemeKind};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cluster = ClusterSpec::cluster_a();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// for kind in SchemeKind::PAPER {
///     let s = SchemeBuilder::new(&cluster, 1).build(kind, &mut rng)?;
///     assert_eq!(s.code.workers(), 8);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SchemeBuilder<'a> {
    cluster: &'a ClusterSpec,
    stragglers: usize,
    estimates: Option<Vec<f64>>,
    partitions: Option<usize>,
}

impl<'a> SchemeBuilder<'a> {
    /// A builder for `cluster` tolerating `stragglers` stragglers.
    pub fn new(cluster: &'a ClusterSpec, stragglers: usize) -> Self {
        SchemeBuilder {
            cluster,
            stragglers,
            estimates: None,
            partitions: None,
        }
    }

    /// Uses the given throughput estimates instead of ground truth
    /// (e.g. from `hetgc_cluster::EstimationNoise` or a
    /// `ThroughputEstimator`).
    pub fn estimates(mut self, estimates: Vec<f64>) -> Self {
        self.estimates = Some(estimates);
        self
    }

    /// Overrides the partition count `k` for the heterogeneity-aware
    /// schemes (the uniform schemes always use `k = m`).
    pub fn partitions(mut self, k: usize) -> Self {
        self.partitions = Some(k);
        self
    }

    /// The estimates in effect (explicit or ground truth).
    fn effective_estimates(&self) -> Vec<f64> {
        self.estimates
            .clone()
            .unwrap_or_else(|| self.cluster.throughputs())
    }

    /// Constructs a scheme.
    ///
    /// # Errors
    ///
    /// Propagates [`CodingError`] from the underlying constructions (e.g.
    /// fractional repetition's divisibility constraints, or an infeasible
    /// heterogeneous allocation).
    pub fn build<R: Rng + ?Sized>(
        &self,
        kind: SchemeKind,
        rng: &mut R,
    ) -> Result<SchemeInstance, CodingError> {
        scheme_from_estimates(
            kind,
            &self.effective_estimates(),
            self.stragglers,
            self.partitions,
            rng,
        )
    }

    /// Constructs all four paper schemes with one call.
    ///
    /// # Errors
    ///
    /// Fails on the first scheme that cannot be built.
    pub fn build_paper_schemes<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
    ) -> Result<Vec<SchemeInstance>, CodingError> {
        SchemeKind::PAPER
            .iter()
            .map(|&k| self.build(k, rng))
            .collect()
    }
}

/// Builds a scheme of `kind` directly from throughput estimates — the
/// re-coding path: the adaptive loop's fresh estimates stand in for a
/// `ClusterSpec` (whose ground-truth rates the live run cannot see).
/// `partitions` overrides the suggested `k` for the
/// heterogeneity-aware schemes; `None` re-derives it from the estimates
/// with `suggest_partition_count(estimates, s, m, 6m)`.
///
/// This is Eq. 5 → Eq. 6 → Alg. 1 (or Algs. 2–3) evaluated at the
/// estimates: exactly what [`SchemeBuilder::build`] does, minus the
/// cluster.
///
/// # Errors
///
/// Propagates [`CodingError`] from the underlying constructions (e.g. an
/// infeasible heterogeneous allocation when one estimate dominates).
pub fn scheme_from_estimates<R: Rng + ?Sized>(
    kind: SchemeKind,
    estimates: &[f64],
    stragglers: usize,
    partitions: Option<usize>,
    rng: &mut R,
) -> Result<SchemeInstance, CodingError> {
    let m = estimates.len();
    let hetero_k =
        || partitions.unwrap_or_else(|| suggest_partition_count(estimates, stragglers, m, 6 * m));
    let (code, groups) = match kind {
        SchemeKind::Naive => (naive(m)?, Vec::new()),
        SchemeKind::Cyclic => (cyclic(m, stragglers, rng)?, Vec::new()),
        SchemeKind::FractionalRepetition => (fractional_repetition(m, m, stragglers)?, Vec::new()),
        SchemeKind::HeterAware => (
            heter_aware(estimates, hetero_k(), stragglers, rng)?,
            Vec::new(),
        ),
        SchemeKind::GroupBased => {
            let g = group_based(estimates, hetero_k(), stragglers, rng)?;
            let groups = g.groups().to_vec();
            (g.into_code(), groups)
        }
    };
    Ok(SchemeInstance {
        kind,
        code,
        groups,
        estimates: estimates.to_vec(),
    })
}

/// Boxed error alias used by the experiment layer.
pub type BoxError = Box<dyn Error + Send + Sync>;

#[cfg(test)]
mod tests {
    use super::*;
    use hetgc_coding::verify_condition_c1;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn names_and_display() {
        assert_eq!(SchemeKind::HeterAware.name(), "heter-aware");
        assert_eq!(format!("{}", SchemeKind::Naive), "naive");
        assert_eq!(SchemeKind::ALL.len(), 5);
        assert_eq!(SchemeKind::PAPER.len(), 4);
    }

    #[test]
    fn cluster_a_heter_aware_loads_proportional() {
        let cluster = ClusterSpec::cluster_a();
        let b = SchemeBuilder::new(&cluster, 1);
        let scheme = b.build(SchemeKind::HeterAware, &mut rng(1)).unwrap();
        // The smallest integral k is 12, making n_i = vcpus/2 exactly.
        assert_eq!(scheme.partitions(), 12);
        let vcpus: Vec<usize> = cluster
            .workers()
            .iter()
            .map(|w| w.vcpus() as usize)
            .collect();
        for (w, &v) in vcpus.iter().enumerate() {
            assert_eq!(scheme.code.load_of(w), v / 2, "worker {w}");
        }
        verify_condition_c1(&scheme.code).unwrap();
    }

    #[test]
    fn naive_ignores_s() {
        let cluster = ClusterSpec::cluster_a();
        let scheme = SchemeBuilder::new(&cluster, 2)
            .build(SchemeKind::Naive, &mut rng(2))
            .unwrap();
        assert_eq!(scheme.stragglers(), 0);
        assert_eq!(scheme.partitions(), 8);
    }

    #[test]
    fn cyclic_uniform_loads() {
        let cluster = ClusterSpec::cluster_a();
        let scheme = SchemeBuilder::new(&cluster, 2)
            .build(SchemeKind::Cyclic, &mut rng(3))
            .unwrap();
        for w in 0..8 {
            assert_eq!(scheme.code.load_of(w), 3);
        }
    }

    #[test]
    fn group_based_has_groups_on_cluster_a() {
        let cluster = ClusterSpec::cluster_a();
        let scheme = SchemeBuilder::new(&cluster, 1)
            .build(SchemeKind::GroupBased, &mut rng(4))
            .unwrap();
        assert!(
            !scheme.groups.is_empty(),
            "Cluster-A cyclic allocation admits groups"
        );
        verify_condition_c1(&scheme.code).unwrap();
    }

    #[test]
    fn fractional_needs_divisibility() {
        // Cluster-A has 8 workers: s=1 → (s+1)|m holds; s=2 → 3∤8 fails.
        let cluster = ClusterSpec::cluster_a();
        assert!(SchemeBuilder::new(&cluster, 1)
            .build(SchemeKind::FractionalRepetition, &mut rng(5))
            .is_ok());
        assert!(SchemeBuilder::new(&cluster, 2)
            .build(SchemeKind::FractionalRepetition, &mut rng(6))
            .is_err());
    }

    #[test]
    fn estimates_override_changes_allocation() {
        let cluster = ClusterSpec::cluster_a();
        // Pretend all workers are equal: loads become uniform.
        let scheme = SchemeBuilder::new(&cluster, 1)
            .estimates(vec![1.0; 8])
            .partitions(8)
            .build(SchemeKind::HeterAware, &mut rng(7))
            .unwrap();
        for w in 0..8 {
            assert_eq!(scheme.code.load_of(w), 2);
        }
        assert_eq!(scheme.estimates, vec![1.0; 8]);
    }

    #[test]
    fn build_paper_schemes_builds_four() {
        let cluster = ClusterSpec::cluster_a();
        let schemes = SchemeBuilder::new(&cluster, 1)
            .build_paper_schemes(&mut rng(8))
            .unwrap();
        assert_eq!(schemes.len(), 4);
        let kinds: Vec<SchemeKind> = schemes.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, SchemeKind::PAPER.to_vec());
    }

    #[test]
    fn scheme_from_estimates_matches_builder() {
        let cluster = ClusterSpec::cluster_a();
        for kind in SchemeKind::PAPER {
            let via_builder = SchemeBuilder::new(&cluster, 1)
                .build(kind, &mut rng(10))
                .unwrap();
            let direct =
                scheme_from_estimates(kind, &cluster.throughputs(), 1, None, &mut rng(10)).unwrap();
            assert_eq!(via_builder.code, direct.code, "{kind}");
            assert_eq!(via_builder.groups.len(), direct.groups.len());
        }
    }

    #[test]
    fn all_table2_clusters_build_heter_aware() {
        for cluster in ClusterSpec::table2() {
            let scheme = SchemeBuilder::new(&cluster, 1)
                .build(SchemeKind::HeterAware, &mut rng(9))
                .unwrap_or_else(|e| panic!("{}: {e}", cluster.name()));
            assert_eq!(scheme.code.workers(), cluster.len());
        }
    }
}
