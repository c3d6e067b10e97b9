//! The group-based coding scheme — Algorithms 2 and 3 of the paper (§V).
//!
//! When throughput estimates are noisy, the heter-aware scheme's workers do
//! *not* all finish simultaneously, and waiting for `m−s` of them (Lemma 2)
//! wastes the head start of the fast ones. The fix: find **groups** — sets
//! of workers whose partition sets are pairwise disjoint and exactly cover
//! `D` (condition ⋆). A complete group decodes by itself with an all-ones
//! (indicator) decode row, typically far fewer than `m−s` workers.
//!
//! Construction (Alg. 3):
//! 1. [`find_all_groups`] enumerates exact covers (Alg. 2's
//!    `FindAllGroups`) via depth-first search branching on the lowest
//!    uncovered partition.
//! 2. [`prune_groups`] drops groups until the survivors are pairwise
//!    disjoint (condition ⋆⋆), greedily removing the group intersecting
//!    the most others.
//! 3. Workers inside groups get all-one rows on their support; the
//!    remaining submatrix `B_Ē` is built by Algorithm 1 with tolerance
//!    `s' = s − P` (each of the `P` disjoint groups consumes exactly one of
//!    the `s+1` replicas of every partition, so the leftover replication is
//!    uniform).
//!
//! Robustness (Theorem 6): with ≤ `s` stragglers either some group is
//! intact (decode from its indicator row) or every group lost a worker —
//! which costs the adversary at least `P` stragglers, leaving ≤ `s−P` for
//! `Ē`, within `B_Ē`'s tolerance.

use rand::Rng;

use crate::error::CodingError;
use crate::heter_aware::heter_aware_from_support;
use crate::strategy::CodingMatrix;
use crate::support::SupportMatrix;

/// A set of workers whose partition sets exactly cover `D` disjointly
/// (condition ⋆ of §V).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    /// Sorted, distinct worker indices.
    pub(crate) workers: Vec<usize>,
}

impl Group {
    /// The sorted worker indices in this group.
    pub fn workers(&self) -> &[usize] {
        &self.workers
    }

    /// Number of workers in the group.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// Returns `true` if the group has no workers (never produced by the
    /// search; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// Returns `true` if `worker` belongs to this group.
    pub fn contains(&self, worker: usize) -> bool {
        self.workers.binary_search(&worker).is_ok()
    }

    /// Returns `true` if every worker of the group is in `survivors`
    /// (given as a boolean mask of length `m`).
    fn is_subset_of_mask(&self, survivors: &[bool]) -> bool {
        self.workers
            .iter()
            .all(|&w| survivors.get(w).copied().unwrap_or(false))
    }

    /// The indicator decode row `a_i = [1_G(W_1), …, 1_G(W_m)]` of Alg. 3.
    pub fn decode_row(&self, m: usize) -> Vec<f64> {
        let mut a = vec![0.0; m];
        for &w in &self.workers {
            if w < m {
                a[w] = 1.0;
            }
        }
        a
    }
}

/// The exact-cover search of [`find_all_groups`] stops after finding
/// this many groups.
///
/// The enumeration is worst-case exponential (it *is* exact cover); the
/// cyclic supports of Eq. 6 keep it tiny in practice, but adversarial
/// hand-built supports are capped by this and [`NODE_BUDGET`].
const MAX_GROUPS: usize = 128;
/// The search stops after visiting this many DFS nodes.
const NODE_BUDGET: usize = 200_000;

/// Enumerates all groups (exact covers of the partition set) in a support
/// structure — Alg. 2's `FindAllGroups`, implemented as DFS on the lowest
/// uncovered partition so each cover is produced exactly once. Groups of
/// more than `m − s` workers are not searched: the paper bounds them so
/// that group decoding is never worse than generic decoding.
///
/// # Example
///
/// ```
/// use hetgc_coding::{find_all_groups, SupportMatrix};
///
/// # fn main() -> Result<(), hetgc_coding::CodingError> {
/// // Example 2 of the paper: 7 workers, 4 partitions, s = 3.
/// let support = SupportMatrix::from_rows(
///     vec![
///         vec![0, 1], vec![2], vec![3],
///         vec![0, 1, 2], vec![0, 1, 3], vec![0, 2, 3], vec![1, 2, 3],
///     ],
///     4,
///     3,
/// )?;
/// let groups = find_all_groups(&support);
/// // G1 = {W1,W2,W3}, G2 = {W3,W4}, G3 = {W2,W5} (0-indexed: {0,1,2},
/// // {2,3}, {1,4}).
/// assert_eq!(groups.len(), 3);
/// # Ok(())
/// # }
/// ```
pub fn find_all_groups(support: &SupportMatrix) -> Vec<Group> {
    let max_group_size = support
        .workers()
        .saturating_sub(support.stragglers())
        .max(1);
    search_groups(support, MAX_GROUPS, NODE_BUDGET, max_group_size)
}

/// [`find_all_groups`] under explicit budgets: at most `max_groups`
/// groups, `node_budget` DFS nodes and `max_group_size` workers a group.
fn search_groups(
    support: &SupportMatrix,
    max_groups: usize,
    node_budget: usize,
    max_group_size: usize,
) -> Vec<Group> {
    let m = support.workers();
    let k = support.partitions();
    let words = k.div_ceil(64);

    // Bitset of each worker's partitions.
    let worker_bits: Vec<Vec<u64>> = (0..m)
        .map(|w| {
            let mut bits = vec![0u64; words];
            for &p in support.partitions_of(w) {
                bits[p / 64] |= 1 << (p % 64);
            }
            bits
        })
        .collect();
    let mut uncovered = vec![u64::MAX; words];
    // Mask off bits ≥ k in the last word.
    if !k.is_multiple_of(64) {
        uncovered[words - 1] = (1u64 << (k % 64)) - 1;
    }

    let mut search = Search {
        worker_bits,
        support,
        chosen: Vec::new(),
        out: Vec::new(),
        nodes: 0,
        max_groups,
        node_budget,
        max_group_size,
    };
    search.dfs(&mut uncovered);
    let mut out = search.out;
    for g in &mut out {
        g.workers.sort_unstable();
    }
    out
}

fn lowest_set(bits: &[u64]) -> Option<usize> {
    for (i, &word) in bits.iter().enumerate() {
        if word != 0 {
            return Some(i * 64 + word.trailing_zeros() as usize);
        }
    }
    None
}

fn subset_of(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(&x, &y)| x & !y == 0)
}

/// The state of one exact-cover search.
struct Search<'a> {
    /// Bitset of each worker's partitions.
    worker_bits: Vec<Vec<u64>>,
    support: &'a SupportMatrix,
    chosen: Vec<usize>,
    out: Vec<Group>,
    nodes: usize,
    max_groups: usize,
    node_budget: usize,
    max_group_size: usize,
}

impl Search<'_> {
    fn dfs(&mut self, uncovered: &mut [u64]) {
        if self.out.len() >= self.max_groups || self.nodes >= self.node_budget {
            return;
        }
        self.nodes += 1;
        let Some(p) = lowest_set(uncovered) else {
            self.out.push(Group {
                workers: self.chosen.clone(),
            });
            return;
        };
        if self.chosen.len() >= self.max_group_size {
            return; // would exceed the size bound before covering D
        }
        // Workers owning `p`, ascending.
        for &w in self.support.owners_of(p) {
            if self.chosen.contains(&w) {
                continue;
            }
            if !subset_of(&self.worker_bits[w], uncovered) {
                continue; // overlaps something already covered: not disjoint
            }
            for (u, &wb) in uncovered.iter_mut().zip(&self.worker_bits[w]) {
                *u &= !wb;
            }
            self.chosen.push(w);
            self.dfs(uncovered);
            self.chosen.pop();
            for (u, &wb) in uncovered.iter_mut().zip(&self.worker_bits[w]) {
                *u |= wb;
            }
        }
    }
}

/// Prunes groups until they are pairwise disjoint (condition ⋆⋆),
/// repeatedly removing the group that intersects the most others —
/// Alg. 2's `PruneGroups`. Ties prefer removing larger groups, then the
/// later-found one, making the result deterministic.
pub fn prune_groups(mut groups: Vec<Group>) -> Vec<Group> {
    loop {
        let n = groups.len();
        if n <= 1 {
            return groups;
        }
        let mut counts = vec![0usize; n];
        for i in 0..n {
            for j in (i + 1)..n {
                if intersects(&groups[i], &groups[j]) {
                    counts[i] += 1;
                    counts[j] += 1;
                }
            }
        }
        let worst = (0..n)
            .max_by(|&a, &b| {
                counts[a]
                    .cmp(&counts[b])
                    .then(groups[a].len().cmp(&groups[b].len()))
                    .then(a.cmp(&b))
            })
            .expect("n >= 1");
        if counts[worst] == 0 {
            return groups; // already pairwise disjoint
        }
        groups.remove(worst);
    }
}

fn intersects(a: &Group, b: &Group) -> bool {
    // Both sorted: linear merge scan.
    let (mut i, mut j) = (0, 0);
    while i < a.workers.len() && j < b.workers.len() {
        match a.workers[i].cmp(&b.workers[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// A group-based coding strategy: the matrix `B` of Alg. 3 plus the pruned
/// groups, which double as fast decode rows.
#[derive(Debug, Clone)]
pub struct GroupCodingMatrix {
    code: CodingMatrix,
    groups: Vec<Group>,
}

impl GroupCodingMatrix {
    /// The underlying strategy matrix (usable with every generic decoder).
    pub fn code(&self) -> &CodingMatrix {
        &self.code
    }

    /// Consumes `self`, returning the strategy matrix.
    pub fn into_code(self) -> CodingMatrix {
        self.code
    }

    /// The pruned, pairwise-disjoint groups (`P` of them).
    pub fn groups(&self) -> &[Group] {
        &self.groups
    }

    /// Compiles into a [`crate::CompiledCodec`] with the intact-group
    /// stage on: precompiled indicator decode plans plus group-tracking
    /// sessions.
    ///
    /// # Errors
    ///
    /// Propagates the validation of `crate::CompiledCodec::with_groups`
    /// (never fails for a matrix built by Alg. 3).
    pub fn compile(&self) -> Result<crate::CompiledCodec, CodingError> {
        crate::CompiledCodec::new(self.code.clone()).with_groups(self.groups.clone())
    }

    /// Group-first decoding: returns the indicator decode row of the first
    /// group fully contained in `survivors`, or `None` when no group is
    /// intact (fall back to [`crate::GradientCodec::decode_plan`]).
    pub fn group_decode_vector(&self, survivors: &[usize]) -> Option<Vec<f64>> {
        let m = self.code.workers();
        let mut mask = vec![false; m];
        for &w in survivors {
            if w < m {
                mask[w] = true;
            }
        }
        self.groups
            .iter()
            .find(|g| g.is_subset_of_mask(&mask))
            .map(|g| g.decode_row(m))
    }
}

/// Builds the group-based scheme (Alg. 3) from a support structure.
///
/// Returns the matrix together with the pruned groups. When no group exists
/// the result degrades gracefully to the plain Alg. 1 construction with an
/// empty group list.
///
/// # Errors
///
/// Propagates construction errors from Alg. 1 (see
/// [`heter_aware_from_support`]).
pub(crate) fn group_based_from_support<R: Rng + ?Sized>(
    support: &SupportMatrix,
    rng: &mut R,
) -> Result<GroupCodingMatrix, CodingError> {
    let m = support.workers();
    let k = support.partitions();
    let s = support.stragglers();

    let groups = prune_groups(find_all_groups(support));
    let p = groups.len();
    debug_assert!(p <= s + 1, "disjoint exact covers cannot exceed s+1");

    if p == 0 {
        let code = heter_aware_from_support(support, rng)?;
        return Ok(GroupCodingMatrix { code, groups });
    }

    let mut b = hetgc_linalg::Matrix::zeros(m, k);
    let mut in_group = vec![false; m];
    for g in &groups {
        for &w in g.workers() {
            in_group[w] = true;
            for &part in support.partitions_of(w) {
                b[(w, part)] = 1.0;
            }
        }
    }

    // Non-group workers with data form B_Ē, built by Alg. 1 at s' = s − P.
    let others: Vec<usize> = (0..m)
        .filter(|&w| !in_group[w] && !support.partitions_of(w).is_empty())
        .collect();
    if !others.is_empty() {
        if p > s {
            // P = s+1 disjoint covers already consume every replica; a
            // non-group worker with data would be a replication bug.
            return Err(CodingError::InvalidParameter {
                reason: format!(
                    "{p} disjoint groups with s={s} leave no replicas for {} non-group workers",
                    others.len()
                ),
            });
        }
        let sub_rows: Vec<Vec<usize>> = others
            .iter()
            .map(|&w| support.partitions_of(w).to_vec())
            .collect();
        let sub_support = SupportMatrix::from_rows(sub_rows, k, s - p)?;
        let sub_code = heter_aware_from_support(&sub_support, rng)?;
        for (sub_idx, &w) in others.iter().enumerate() {
            for (part, &val) in sub_code.row(sub_idx).iter().enumerate() {
                b[(w, part)] = val;
            }
        }
    }

    let code = CodingMatrix::from_matrix(b, s)?;
    Ok(GroupCodingMatrix { code, groups })
}

/// End-to-end group-based scheme: load-balanced allocation (Eq. 5) →
/// cyclic support (Eq. 6) → Alg. 3.
///
/// # Errors
///
/// Propagates allocation and construction errors.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), hetgc_coding::CodingError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(4);
/// // Two equal halves: the cyclic allocation tiles the circle twice, so
/// // groups exist and decoding can finish after a single group reports.
/// let g = hetgc_coding::group_based(&[1.0, 1.0, 1.0, 1.0], 4, 1, &mut rng)?;
/// assert!(!g.groups().is_empty());
/// # Ok(())
/// # }
/// ```
pub fn group_based<R: Rng + ?Sized>(
    throughputs: &[f64],
    partitions: usize,
    stragglers: usize,
    rng: &mut R,
) -> Result<GroupCodingMatrix, CodingError> {
    let alloc = crate::Allocation::balanced(throughputs, partitions, stragglers)?;
    let support = SupportMatrix::cyclic(&alloc)?;
    group_based_from_support(&support, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{decodable_prefix_len, verify_condition_c1};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn example2_support() -> SupportMatrix {
        SupportMatrix::from_rows(
            vec![
                vec![0, 1],
                vec![2],
                vec![3],
                vec![0, 1, 2],
                vec![0, 1, 3],
                vec![0, 2, 3],
                vec![1, 2, 3],
            ],
            4,
            3,
        )
        .unwrap()
    }

    #[test]
    fn example2_groups_found() {
        let groups = find_all_groups(&example2_support());
        let sets: Vec<Vec<usize>> = groups.iter().map(|g| g.workers().to_vec()).collect();
        assert!(sets.contains(&vec![0, 1, 2]), "{sets:?}");
        assert!(sets.contains(&vec![2, 3]), "{sets:?}");
        assert!(sets.contains(&vec![1, 4]), "{sets:?}");
        assert_eq!(sets.len(), 3);
    }

    #[test]
    fn example2_pruning_keeps_disjoint_pair() {
        let groups = find_all_groups(&example2_support());
        let pruned = prune_groups(groups);
        let sets: Vec<Vec<usize>> = pruned.iter().map(|g| g.workers().to_vec()).collect();
        // G1 = {0,1,2} intersects both others → removed.
        assert_eq!(sets.len(), 2);
        assert!(sets.contains(&vec![2, 3]));
        assert!(sets.contains(&vec![1, 4]));
    }

    #[test]
    fn example2_full_construction_matches_paper_structure() {
        let mut rng = StdRng::seed_from_u64(41);
        let g = group_based_from_support(&example2_support(), &mut rng).unwrap();
        let b = g.code();
        // Group workers (1,2,3,4 in 0-indexing) have all-one rows.
        for w in [1usize, 2, 3, 4] {
            for &part in example2_support().partitions_of(w) {
                assert_eq!(b.row(w)[part], 1.0, "worker {w} partition {part}");
            }
        }
        // Non-group workers (0, 5, 6) have generic coefficients.
        let generic = [0usize, 5, 6]
            .iter()
            .any(|&w| b.row(w).iter().any(|&x| x != 0.0 && (x - 1.0).abs() > 1e-9));
        assert!(generic);
        verify_condition_c1(b).unwrap();
    }

    #[test]
    fn example2_group_decodes_early() {
        let mut rng = StdRng::seed_from_u64(42);
        let g = group_based_from_support(&example2_support(), &mut rng).unwrap();
        // Group {2,3} alone decodes: 2 workers ≪ m−s = 4.
        assert_eq!(decodable_prefix_len(g.code(), &[2, 3]), Some(2));
        // Group-first decoding returns its indicator row.
        let a = g
            .group_decode_vector(&[2, 3, 6])
            .expect("group {2,3} intact");
        assert_eq!(a[2], 1.0);
        assert_eq!(a[3], 1.0);
        assert_eq!(a[6], 0.0);
        // aB = 1.
        let prod = g.code().matrix().vecmat(&a).unwrap();
        assert!(prod.iter().all(|&x| (x - 1.0).abs() < 1e-9));
    }

    #[test]
    fn example2_fallback_when_groups_broken() {
        let mut rng = StdRng::seed_from_u64(43);
        let g = group_based_from_support(&example2_support(), &mut rng).unwrap();
        // Stragglers {2, 4} break both groups ({2,3} and {1,4}).
        assert!(g.group_decode_vector(&[0, 1, 3, 5, 6]).is_none());
        // Generic decode still works (s = 3 tolerance, only 2 stragglers).
        let a = crate::GradientCodec::decode_plan(g.code(), &[0, 1, 3, 5, 6])
            .unwrap()
            .to_dense();
        let prod = g.code().matrix().vecmat(&a).unwrap();
        assert!(prod.iter().all(|&x| (x - 1.0).abs() < 1e-6));
    }

    #[test]
    fn homogeneous_cyclic_allocation_has_groups() {
        let mut rng = StdRng::seed_from_u64(44);
        let g = group_based(&[1.0; 4], 4, 1, &mut rng).unwrap();
        // Arcs of 2 tile the 4-cycle: {W0,W1} and {W2,W3} are groups.
        assert_eq!(g.groups().len(), 2);
        verify_condition_c1(g.code()).unwrap();
    }

    #[test]
    fn example1_allocation_has_two_groups() {
        // Example 1's support *does* contain exact covers:
        // {W0, W1, W4} = {0}∪{1,2}∪{3,4,5,6} and {W2, W3} = {3,4,5}∪{6,0,1,2}.
        let mut rng = StdRng::seed_from_u64(45);
        let g = group_based(&[1.0, 2.0, 3.0, 4.0, 4.0], 7, 1, &mut rng).unwrap();
        let sets: Vec<Vec<usize>> = g.groups().iter().map(|gr| gr.workers().to_vec()).collect();
        assert!(sets.contains(&vec![0, 1, 4]), "{sets:?}");
        assert!(sets.contains(&vec![2, 3]), "{sets:?}");
        verify_condition_c1(g.code()).unwrap();
    }

    #[test]
    fn no_groups_degrades_to_heter_aware() {
        // Uniform arcs of length 2 over 5 partitions: no subset of size-2
        // arcs tiles an odd-length circle, so no group exists.
        let alloc = crate::Allocation::uniform(5, 5, 1).unwrap();
        let support = SupportMatrix::cyclic(&alloc).unwrap();
        let mut rng = StdRng::seed_from_u64(46);
        let g = group_based_from_support(&support, &mut rng).unwrap();
        assert!(g.groups().is_empty());
        verify_condition_c1(g.code()).unwrap();
        assert!(g.group_decode_vector(&[0, 1, 2, 3, 4]).is_none());
    }

    #[test]
    fn group_api() {
        let g = Group {
            workers: vec![1, 3],
        };
        assert_eq!(g.len(), 2);
        assert!(!g.is_empty());
        assert!(g.contains(3));
        assert!(!g.contains(2));
        assert_eq!(g.decode_row(4), vec![0.0, 1.0, 0.0, 1.0]);
        assert!(g.is_subset_of_mask(&[false, true, false, true]));
        assert!(!g.is_subset_of_mask(&[false, true, false, false]));
    }

    #[test]
    fn prune_keeps_singletons() {
        let groups = vec![Group {
            workers: vec![0, 1],
        }];
        assert_eq!(prune_groups(groups).len(), 1);
        assert!(prune_groups(Vec::new()).is_empty());
    }

    #[test]
    fn search_respects_budgets() {
        let support = example2_support();
        assert!(search_groups(&support, 0, NODE_BUDGET, 4).is_empty());
        assert_eq!(search_groups(&support, 1, NODE_BUDGET, 4).len(), 1);
        assert!(search_groups(&support, MAX_GROUPS, 0, 4).is_empty());
    }

    #[test]
    fn search_respects_size_bound() {
        let support = example2_support();
        let small = search_groups(&support, MAX_GROUPS, NODE_BUDGET, 2);
        // Only the 2-worker groups remain reachable.
        assert!(small.iter().all(|g| g.len() <= 2));
        assert_eq!(small.len(), 2);
        // `find_all_groups` derives the paper's bound, m − s = 4 here.
        assert_eq!(
            find_all_groups(&support),
            search_groups(&support, MAX_GROUPS, NODE_BUDGET, 4)
        );
    }

    #[test]
    fn robustness_exhaustive_for_group_based() {
        // Verify C1 for group-based codes across several shapes.
        for (seed, c, k, s) in [
            (1u64, vec![1.0, 1.0, 1.0, 1.0], 4usize, 1usize),
            (2, vec![1.0, 1.0, 2.0, 2.0], 6, 1),
            (3, vec![1.0; 6], 6, 2),
        ] {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = group_based(&c, k, s, &mut rng).unwrap();
            verify_condition_c1(g.code())
                .unwrap_or_else(|e| panic!("group_based({c:?}, k={k}, s={s}) violated C1: {e}"));
        }
    }

    #[test]
    fn into_code_returns_matrix() {
        let mut rng = StdRng::seed_from_u64(46);
        let g = group_based(&[1.0; 4], 4, 1, &mut rng).unwrap();
        let code = g.into_code();
        assert_eq!(code.workers(), 4);
    }
}
