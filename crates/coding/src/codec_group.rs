//! The group-aware codec backend: §V's Algorithms 2–3 wired into the
//! [`GradientCodec`] hot path.
//!
//! [`GroupCodec`] wraps a [`CompiledCodec`] and precompiles, at
//! construction time, one indicator [`DecodePlan`] per pruned group
//! (condition ⋆⋆ guarantees the groups are pairwise disjoint, Theorem 6
//! guarantees each all-ones row decodes by itself). The per-iteration wins
//! over the generic backend:
//!
//! * [`GradientCodec::decode_plan`] answers intact-group survivor sets
//!   with an `O(P·|G|)` membership scan and a clone of the precompiled
//!   plan — no `O(mk²)` solve, no plan-cache lock;
//! * [`GradientCodec::session`] tracks per-group missing-worker counters:
//!   the push that completes a group returns its indicator plan
//!   immediately, skipping both the `O(r·(k′ + a))` row elimination and the
//!   spanning check for that arrival;
//! * the returned plan is the *cheapest* exact decode — `|G|` unit
//!   coefficients instead of up to `m−s` generic ones — so the downstream
//!   `combine` touches fewer coded gradients.
//!
//! When no group is intact the backend degrades to exactly the
//! [`CompiledCodec`] behaviour (same solves, same cache, same session
//! elimination), so decode *timing* is never worse than generic: a prefix
//! decodable without an intact group is still caught by the spanning
//! check.

use std::sync::Arc;

use crate::codec::{canonical_survivors, CodecSession, CompiledCodec, DecodePlan, GradientCodec};
use crate::error::CodingError;
use crate::group::{find_all_groups, prune_groups, Group, GroupCodingMatrix, GroupSearchConfig};
use crate::strategy::CodingMatrix;

/// Precompiled group metadata shared (via `Arc`) between a [`GroupCodec`]
/// and its sessions: membership lists, sizes, and one indicator decode
/// plan per group, sorted by ascending group size so "first intact" is
/// always the cheapest plan.
#[derive(Debug)]
pub(crate) struct GroupIndex {
    /// For each worker, the groups (by index) it belongs to.
    member_of: Vec<Vec<u32>>,
    /// Worker count of each group.
    sizes: Vec<u32>,
    /// The indicator decode plan of each group.
    plans: Vec<DecodePlan>,
}

impl GroupIndex {
    fn new(groups: &[Group], m: usize) -> Self {
        let mut member_of = vec![Vec::new(); m];
        let mut sizes = Vec::with_capacity(groups.len());
        let mut plans = Vec::with_capacity(groups.len());
        for (gid, g) in groups.iter().enumerate() {
            for &w in g.workers() {
                member_of[w].push(gid as u32);
            }
            sizes.push(g.len() as u32);
            plans.push(DecodePlan::from_dense(&g.decode_row(m)));
        }
        GroupIndex {
            member_of,
            sizes,
            plans,
        }
    }
}

/// Per-round intact-group bookkeeping inside a [`CodecSession`]: counts
/// down each group's missing workers as arrivals stream in, `O(#groups
/// containing w)` per push.
#[derive(Debug, Clone)]
pub(crate) struct GroupTracker {
    index: Arc<GroupIndex>,
    /// Workers of each group not yet arrived this round.
    missing: Vec<u32>,
    /// Smallest (by index — groups are size-sorted) intact group so far.
    intact: Option<usize>,
}

impl GroupTracker {
    fn new(index: Arc<GroupIndex>) -> Self {
        let missing = index.sizes.clone();
        GroupTracker {
            index,
            missing,
            intact: None,
        }
    }

    pub(crate) fn reset(&mut self) {
        self.missing.copy_from_slice(&self.index.sizes);
        self.intact = None;
    }

    pub(crate) fn arrive(&mut self, worker: usize) {
        for &gid in &self.index.member_of[worker] {
            let gid = gid as usize;
            self.missing[gid] -= 1;
            if self.missing[gid] == 0 && self.intact.is_none_or(|best| gid < best) {
                self.intact = Some(gid);
            }
        }
    }

    pub(crate) fn intact_plan(&self) -> Option<&DecodePlan> {
        self.intact.map(|gid| &self.index.plans[gid])
    }
}

/// The group-aware [`GradientCodec`] backend. See the module docs.
///
/// # Example
///
/// ```
/// use hetgc_coding::{group_based, GradientCodec, GroupCodec};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), hetgc_coding::CodingError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(4);
/// // Homogeneous 4-worker cluster, s = 1: pruned groups {0,3} and {1,2}.
/// let codec = GroupCodec::new(group_based(&[1.0; 4], 4, 1, &mut rng)?)?;
///
/// // The moment group {0,3} is complete the session decodes — two
/// // survivors, not m − s = 3 — with the unit-coefficient indicator row.
/// let mut session = codec.session();
/// assert!(session.push(0)?.is_none());
/// let plan = session.push(3)?.expect("group {0,3} intact");
/// assert_eq!(plan.workers(), &[0, 3]);
/// assert_eq!(plan.coefficients(), &[1.0, 1.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GroupCodec {
    inner: CompiledCodec,
    /// Pruned pairwise-disjoint groups, ascending by size (cheapest-plan
    /// order), ties broken by worker indices for determinism.
    groups: Vec<Group>,
    index: Arc<GroupIndex>,
}

impl GroupCodec {
    /// Compiles a group-based strategy (Alg. 3's matrix plus its pruned
    /// groups) into the group-aware backend.
    ///
    /// # Errors
    ///
    /// [`CodingError::InvalidParameter`] when a group references an
    /// out-of-range worker or its indicator row does not decode (`a·B ≠
    /// 1`) — both would indicate a corrupted construction.
    pub fn new(strategy: GroupCodingMatrix) -> Result<Self, CodingError> {
        let groups = strategy.groups().to_vec();
        GroupCodec::from_parts(strategy.into_code(), groups)
    }

    /// Builds the backend from a raw matrix and an explicit group list
    /// (empty is allowed: the codec then behaves exactly like
    /// [`CompiledCodec`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`GroupCodec::new`].
    pub fn from_parts(code: CodingMatrix, mut groups: Vec<Group>) -> Result<Self, CodingError> {
        let m = code.workers();
        for g in &groups {
            if let Some(&w) = g.workers().iter().find(|&&w| w >= m) {
                return Err(CodingError::InvalidParameter {
                    reason: format!("group worker {w} >= m={m}"),
                });
            }
            let recovered = code.matrix().vecmat(&g.decode_row(m))?;
            if recovered.iter().any(|v| (v - 1.0).abs() > 1e-6) {
                return Err(CodingError::InvalidParameter {
                    reason: format!(
                        "group {:?} indicator row does not decode: aB = {recovered:?}",
                        g.workers()
                    ),
                });
            }
        }
        groups.sort_by(|a, b| a.len().cmp(&b.len()).then(a.workers().cmp(b.workers())));
        let index = Arc::new(GroupIndex::new(&groups, m));
        Ok(GroupCodec {
            inner: CompiledCodec::new(code),
            groups,
            index,
        })
    }

    /// Derives the groups from the matrix's own support structure
    /// (Alg. 2 plus pruning) and compiles. This is how a consumer holding
    /// only a `CodingMatrix` (e.g. the threaded runtime) opts into the
    /// group fast path.
    ///
    /// # Errors
    ///
    /// Propagates support-extraction errors and the validation of
    /// [`GroupCodec::from_parts`].
    pub fn from_code(code: CodingMatrix) -> Result<Self, CodingError> {
        let m = code.workers();
        // A worker can only belong to a valid group if its nonzero
        // coefficients are all ones (disjoint covers mean each partition
        // is recovered by exactly one group member, so Σa_w·b_wp = 1
        // forces b_wp = 1). Generic matrices (heter-aware Gaussian rows)
        // have no such worker, so skip the exact-cover DFS entirely
        // instead of enumerating covers that validation would discard.
        let has_indicator_rows = (0..m).any(|w| {
            let row = code.row(w);
            row.iter().any(|&v| v != 0.0)
                && row.iter().all(|&v| v == 0.0 || (v - 1.0).abs() <= 1e-9)
        });
        if !has_indicator_rows {
            return GroupCodec::from_parts(code, Vec::new());
        }
        let support = code.to_support()?;
        let s = support.stragglers();
        let config = GroupSearchConfig {
            max_group_size: Some(m.saturating_sub(s).max(1)),
            ..GroupSearchConfig::default()
        };
        let mut groups = find_all_groups(&support, config);
        // Only keep covers whose indicator rows actually decode (a mixed
        // matrix can have exact covers through non-all-ones rows), and do
        // it *before* pruning so invalid covers cannot crowd valid ones
        // out of the pairwise-disjoint selection.
        groups.retain(|g| {
            code.matrix()
                .vecmat(&g.decode_row(m))
                .map(|prod| prod.iter().all(|v| (v - 1.0).abs() <= 1e-6))
                .unwrap_or(false)
        });
        GroupCodec::from_parts(code, prune_groups(groups))
    }

    /// The generic compiled backend this codec falls back to.
    pub fn inner(&self) -> &CompiledCodec {
        &self.inner
    }

    /// Attaches the fleet-wide plan cache to the generic fallback path.
    /// The intact-group fast path keeps its precompiled indicator plans
    /// (they never solve, so there is nothing to share); only survivor
    /// sets with no intact group reach the shared map.
    pub fn attach_shared_plans(&mut self, cache: Arc<crate::shared_cache::SharedPlanCache>) {
        self.inner.attach_shared_plans(cache);
    }

    /// Reports the generic fallback path's plan-cache behaviour into
    /// `metrics` (the intact-group fast path never probes or solves, so
    /// it records nothing); see `CompiledCodec::attach_metrics`.
    pub fn attach_metrics(&mut self, metrics: hetgc_obs::CodecMetrics) {
        self.inner.attach_metrics(metrics);
    }

    /// The precompiled groups, ascending by size.
    pub fn groups(&self) -> &[Group] {
        &self.groups
    }

    /// The smallest group fully contained in `survivors` (given as a
    /// *validated, deduplicated* worker list in any order), if any.
    fn smallest_intact(&self, survivors: &[usize]) -> Option<usize> {
        let m = self.inner.workers();
        let mut mask = vec![false; m];
        for &w in survivors {
            mask[w] = true;
        }
        self.groups.iter().position(|g| g.is_subset_of_mask(&mask))
    }
}

impl GradientCodec for GroupCodec {
    fn workers(&self) -> usize {
        self.inner.workers()
    }

    fn partitions(&self) -> usize {
        self.inner.partitions()
    }

    fn stragglers(&self) -> usize {
        self.inner.stragglers()
    }

    fn load_of(&self, worker: usize) -> usize {
        self.inner.load_of(worker)
    }

    fn encode_into<E: hetgc_linalg::Element>(
        &self,
        worker: usize,
        partials: &crate::GradientBlock<E>,
        out: &mut [E],
    ) -> Result<(), CodingError> {
        self.inner.encode_into(worker, partials, out)
    }

    /// Intact-group survivor sets — including *strict supersets* of a
    /// group — decode via the smallest intact group's precompiled
    /// indicator row (the cheapest exact plan); everything else takes the
    /// generic solve/cache path.
    fn decode_plan(&self, survivors: &[usize]) -> Result<DecodePlan, CodingError> {
        let key = canonical_survivors(self.inner.code(), survivors)?;
        if let Some(gid) = self.smallest_intact(&key) {
            return Ok(self.index.plans[gid].clone());
        }
        self.inner.decode_plan_canonical(key)
    }

    fn session(&self) -> CodecSession {
        if self.groups.is_empty() {
            self.inner.session()
        } else {
            let session = CodecSession::with_groups(
                self.inner.row_store(),
                GroupTracker::new(Arc::clone(&self.index)),
            );
            // Broken-group rounds fall through to the generic elimination;
            // those solves are the ones worth sharing fleet-wide.
            match self.inner.shared_plans() {
                Some(cache) => {
                    session.with_shared_plans(Arc::clone(cache), self.inner.scheme_fingerprint())
                }
                None => session,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::group_based;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn grouped(seed: u64) -> GroupCodec {
        let mut rng = StdRng::seed_from_u64(seed);
        GroupCodec::new(group_based(&[1.0, 2.0, 3.0, 4.0, 4.0], 7, 1, &mut rng).unwrap()).unwrap()
    }

    fn check_exact(codec: &GroupCodec, plan: &DecodePlan) {
        let prod = codec
            .inner()
            .code()
            .matrix()
            .vecmat(&plan.to_dense())
            .unwrap();
        for v in &prod {
            assert!((v - 1.0).abs() < 1e-6, "aB = {prod:?}");
        }
        assert!(plan.is_exact());
    }

    #[test]
    fn groups_sorted_by_size() {
        let codec = grouped(45);
        // Example 1's groups: {2,3} (size 2) and {0,1,4} (size 3).
        assert_eq!(codec.groups()[0].workers(), &[2, 3]);
        assert_eq!(codec.groups()[1].workers(), &[0, 1, 4]);
    }

    #[test]
    fn intact_group_plan_is_indicator_row() {
        let codec = grouped(45);
        let plan = codec.decode_plan(&[2, 3]).unwrap();
        assert_eq!(plan.workers(), &[2, 3]);
        assert_eq!(plan.coefficients(), &[1.0, 1.0]);
        check_exact(&codec, &plan);
    }

    #[test]
    fn strict_superset_of_group_still_uses_indicator_row() {
        // Regression: a survivor set strictly containing an intact group
        // must decode via the group's (cheapest) indicator row, not a
        // generic combination over all survivors.
        let codec = grouped(45);
        let plan = codec.decode_plan(&[0, 2, 3, 4]).unwrap();
        assert_eq!(plan.len(), 2, "cheapest plan has |G| = 2 nonzeros");
        assert_eq!(plan.workers(), &[2, 3]);
        check_exact(&codec, &plan);
        // Never more workers than the generic backend would use.
        let generic = codec.inner().decode_plan(&[0, 2, 3, 4]).unwrap();
        assert!(
            generic.len() >= plan.len(),
            "generic used {}",
            generic.len()
        );
    }

    #[test]
    fn multiple_intact_groups_pick_smallest() {
        let codec = grouped(45);
        // All workers alive: both groups intact, the 2-worker one wins.
        let plan = codec.decode_plan(&[0, 1, 2, 3, 4]).unwrap();
        assert_eq!(plan.workers(), &[2, 3]);
    }

    #[test]
    fn broken_group_falls_back_to_other_group() {
        let codec = grouped(45);
        // Worker 3 dead breaks {2,3}; {0,1,4} is intact.
        let plan = codec.decode_plan(&[0, 1, 2, 4]).unwrap();
        assert_eq!(plan.workers(), &[0, 1, 4]);
        check_exact(&codec, &plan);
    }

    #[test]
    fn all_groups_broken_falls_back_to_generic_solve() {
        // Example 2 of the paper (7 workers, s = 3): stragglers {2, 4}
        // break both pruned groups ({2,3} and {1,4}) yet the survivor set
        // still decodes generically.
        let support = crate::SupportMatrix::from_rows(
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
        .unwrap();
        let mut rng = StdRng::seed_from_u64(43);
        let g = crate::group::group_based_from_support(
            &support,
            GroupSearchConfig::default(),
            &mut rng,
        )
        .unwrap();
        let codec = GroupCodec::new(g).unwrap();
        let survivors = [0usize, 1, 3, 5, 6];
        let plan = codec.decode_plan(&survivors).unwrap();
        assert_eq!(plan, codec.inner().decode_plan(&survivors).unwrap());
        check_exact(&codec, &plan);
        // The session agrees: no push returns an indicator plan, the
        // generic elimination decodes at some prefix.
        let mut session = codec.session();
        let mut decoded = None;
        for w in survivors {
            decoded = session.push(w).unwrap();
        }
        let plan = decoded.expect("survivors decode generically");
        check_exact(&codec, &plan);
    }

    #[test]
    fn session_decodes_at_group_completion() {
        let codec = grouped(45);
        let mut session = codec.session();
        assert!(session.push(2).unwrap().is_none());
        let plan = session.push(3).unwrap().expect("group {2,3} intact");
        assert_eq!(plan.workers(), &[2, 3]);
        assert_eq!(session.received(), 2);
        check_exact(&codec, &plan);
    }

    #[test]
    fn session_reset_rearms_group_tracking() {
        let codec = grouped(45);
        let mut session = codec.session();
        session.push(2).unwrap();
        session.push(3).unwrap().expect("intact");
        session.reset();
        assert!(session.push(3).unwrap().is_none(), "tracker must re-arm");
        let plan = session.push(2).unwrap().expect("intact again");
        assert_eq!(plan.workers(), &[2, 3]);
    }

    #[test]
    fn session_superset_arrival_order_returns_indicator() {
        // Non-group workers arriving first must not change the plan the
        // group completion returns.
        let codec = grouped(45);
        let mut session = codec.session();
        assert!(session.push(0).unwrap().is_none());
        assert!(session.push(2).unwrap().is_none());
        assert!(session.push(4).unwrap().is_none());
        let plan = session.push(3).unwrap().expect("{2,3} completes");
        assert_eq!(plan.workers(), &[2, 3]);
        assert_eq!(plan.coefficients(), &[1.0, 1.0]);
    }

    #[test]
    fn session_generic_path_when_groups_broken() {
        let codec = grouped(45);
        let mut session = codec.session();
        // Arrivals {0, 1, 2, 4}: {2,3} broken until the very end; {0,1,4}
        // completes at the 4th push (also the generic m−s point).
        assert!(session.push(0).unwrap().is_none());
        assert!(session.push(1).unwrap().is_none());
        assert!(session.push(2).unwrap().is_none());
        let plan = session.push(4).unwrap().expect("{0,1,4} intact");
        assert_eq!(plan.workers(), &[0, 1, 4]);
        check_exact(&codec, &plan);
    }

    #[test]
    fn empty_groups_degrade_to_generic_backend() {
        // Uniform arcs over an odd circle admit no group.
        let alloc = crate::Allocation::uniform(5, 5, 1).unwrap();
        let support = crate::SupportMatrix::cyclic(&alloc).unwrap();
        let mut rng = StdRng::seed_from_u64(46);
        let g = crate::group::group_based_from_support(
            &support,
            GroupSearchConfig::default(),
            &mut rng,
        )
        .unwrap();
        let codec = GroupCodec::new(g).unwrap();
        assert!(codec.groups().is_empty());
        let survivors = [0usize, 1, 2, 3];
        let plan = codec.decode_plan(&survivors).unwrap();
        assert_eq!(plan, codec.inner().decode_plan(&survivors).unwrap());
        let mut session = codec.session();
        let mut decoded = None;
        for w in survivors {
            decoded = session.push(w).unwrap();
        }
        assert!(decoded.is_some(), "generic session path must still work");
    }

    #[test]
    fn from_code_rederives_groups() {
        let mut rng = StdRng::seed_from_u64(45);
        let g = group_based(&[1.0, 2.0, 3.0, 4.0, 4.0], 7, 1, &mut rng).unwrap();
        let direct = GroupCodec::new(g.clone()).unwrap();
        let derived = GroupCodec::from_code(g.code().clone()).unwrap();
        let direct_sets: Vec<_> = direct
            .groups()
            .iter()
            .map(|g| g.workers().to_vec())
            .collect();
        let derived_sets: Vec<_> = derived
            .groups()
            .iter()
            .map(|g| g.workers().to_vec())
            .collect();
        assert_eq!(direct_sets, derived_sets);
    }

    #[test]
    fn from_code_on_generic_matrix_keeps_no_bogus_groups() {
        // A heter-aware (non-group) matrix has exact covers in its support
        // but generic coefficients: indicator rows don't decode, so no
        // group may survive validation.
        let mut rng = StdRng::seed_from_u64(11);
        let b =
            crate::heter_aware::heter_aware(&[1.0, 2.0, 3.0, 4.0, 4.0], 7, 1, &mut rng).unwrap();
        let codec = GroupCodec::from_code(b.clone()).unwrap();
        for g in codec.groups() {
            let prod = b.matrix().vecmat(&g.decode_row(5)).unwrap();
            assert!(prod.iter().all(|v| (v - 1.0).abs() <= 1e-6));
        }
    }

    #[test]
    fn rejects_corrupt_groups() {
        let mut rng = StdRng::seed_from_u64(45);
        let g = group_based(&[1.0; 4], 4, 1, &mut rng).unwrap();
        let bogus = vec![Group::from_workers(vec![0, 9])];
        assert!(GroupCodec::from_parts(g.code().clone(), bogus).is_err());
        let non_decoding = vec![Group::from_workers(vec![0])];
        assert!(GroupCodec::from_parts(g.code().clone(), non_decoding).is_err());
    }

    #[test]
    fn decode_plan_validates_survivors() {
        let codec = grouped(45);
        assert!(codec.decode_plan(&[0, 9]).is_err());
        assert!(codec.decode_plan(&[2, 2]).is_err());
    }
}
