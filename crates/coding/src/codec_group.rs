//! The intact-group stage of [`CompiledCodec`]: §V's Algorithms 2–3 on
//! the codec hot path.
//!
//! A codec built [`CompiledCodec::with_groups`] precompiles one indicator
//! [`DecodePlan`] per pruned group (condition ⋆⋆ guarantees the groups are
//! pairwise disjoint, Theorem 6 guarantees each all-ones row decodes by
//! itself). The per-iteration wins over the plain codec:
//!
//! * [`GradientCodec::decode_plan`] answers intact-group survivor sets
//!   with an `O(P·|G|·log m)` subset test over the sorted probe key and a
//!   clone of the precompiled plan — no `O(mk²)` solve, no allocation;
//! * [`GradientCodec::session`] tracks per-group missing-worker counters:
//!   the push that completes a group returns its indicator plan
//!   immediately, skipping both the `O(r·(k′ + a))` row elimination and the
//!   spanning check for that arrival;
//! * the returned plan is the *cheapest* exact decode — `|G|` unit
//!   coefficients instead of up to `m−s` generic ones — so the downstream
//!   `combine` touches fewer coded gradients.
//!
//! When no group is intact the codec answers exactly as it does without
//! the stage (same solves, same cache, same session elimination), so
//! decode *timing* is never worse than generic: a prefix decodable without
//! an intact group is still caught by the spanning check.
//!
//! [`GradientCodec::decode_plan`]: crate::GradientCodec::decode_plan
//! [`GradientCodec::session`]: crate::GradientCodec::session

use std::sync::Arc;

use crate::codec::{CompiledCodec, DecodePlan};
use crate::error::CodingError;
use crate::group::{find_all_groups, prune_groups, Group};
use crate::strategy::CodingMatrix;

/// Precompiled group metadata shared (via `Arc`) between a codec and its
/// sessions: the groups, membership lists, and one indicator decode plan
/// per group, sorted by ascending group size so "first intact" is
/// always the cheapest plan.
#[derive(Debug)]
pub(crate) struct GroupIndex {
    /// Pruned pairwise-disjoint groups, ascending by size (cheapest-plan
    /// order), ties broken by worker indices for determinism.
    groups: Vec<Group>,
    /// For each worker, the groups (by index) it belongs to.
    member_of: Vec<Vec<u32>>,
    /// The indicator decode plan of each group.
    plans: Vec<DecodePlan>,
}

impl GroupIndex {
    /// Validates `groups` against `code` (workers in range, every
    /// indicator row decodes) and size-sorts them.
    fn new(code: &CodingMatrix, mut groups: Vec<Group>) -> Result<Self, CodingError> {
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
        let mut member_of = vec![Vec::new(); m];
        let mut plans = Vec::with_capacity(groups.len());
        for (gid, g) in groups.iter().enumerate() {
            for &w in g.workers() {
                member_of[w].push(gid as u32);
            }
            plans.push(DecodePlan::from_dense(&g.decode_row(m)));
        }
        Ok(GroupIndex {
            groups,
            member_of,
            plans,
        })
    }

    /// The indicator plan of the smallest group fully contained in
    /// `survivors`, a *sorted* worker list (the plan cache's probe key):
    /// group worker lists are sorted too, so the subset test allocates
    /// nothing.
    pub(crate) fn intact_plan(&self, survivors: &[usize]) -> Option<&DecodePlan> {
        let gid = self.groups.iter().position(|g| {
            g.workers()
                .iter()
                .all(|w| survivors.binary_search(w).is_ok())
        })?;
        Some(&self.plans[gid])
    }

    /// A fresh per-round tracker over these groups.
    pub(crate) fn tracker(self: &Arc<Self>) -> GroupTracker {
        let mut tracker = GroupTracker {
            index: Arc::clone(self),
            missing: vec![0; self.groups.len()],
            intact: None,
        };
        tracker.reset();
        tracker
    }
}

/// Per-round intact-group bookkeeping inside a `CodecSession`: counts
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
    pub(crate) fn reset(&mut self) {
        for (missing, g) in self.missing.iter_mut().zip(&self.index.groups) {
            *missing = g.len() as u32;
        }
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

/// Derives the groups of `code` from its own support structure (Alg. 2
/// plus pruning), keeping only covers whose indicator rows decode. This
/// is how a consumer holding only a `CodingMatrix` (the wall-clock
/// master) finds the groups a scheme builder would have handed it.
///
/// # Errors
///
/// Propagates support-extraction errors.
pub(crate) fn derive_groups(code: &CodingMatrix) -> Result<Vec<Group>, CodingError> {
    let m = code.workers();
    // A worker can only belong to a valid group if its nonzero
    // coefficients are all ones (disjoint covers mean each partition
    // is recovered by exactly one group member, so Σa_w·b_wp = 1
    // forces b_wp = 1). Generic matrices (heter-aware Gaussian rows)
    // have no such worker, so skip the exact-cover DFS entirely
    // instead of enumerating covers that validation would discard.
    let has_indicator_rows = (0..m).any(|w| {
        let row = code.row(w);
        row.iter().any(|&v| v != 0.0) && row.iter().all(|&v| v == 0.0 || (v - 1.0).abs() <= 1e-9)
    });
    if !has_indicator_rows {
        return Ok(Vec::new());
    }
    let support = code.to_support()?;
    let mut groups = find_all_groups(&support);
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
    Ok(prune_groups(groups))
}

impl CompiledCodec {
    /// Switches the intact-group stage on over `groups` (empty is
    /// allowed: the codec then answers exactly as it did without the
    /// stage).
    ///
    /// # Example
    ///
    /// ```
    /// use hetgc_coding::{group_based, GradientCodec};
    /// use rand::SeedableRng;
    ///
    /// # fn main() -> Result<(), hetgc_coding::CodingError> {
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    /// // Homogeneous 4-worker cluster, s = 1: pruned groups {0,3} and {1,2}.
    /// let codec = group_based(&[1.0; 4], 4, 1, &mut rng)?.compile()?;
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
    ///
    /// # Errors
    ///
    /// [`CodingError::InvalidParameter`] when a group references an
    /// out-of-range worker or its indicator row does not decode (`a·B ≠
    /// 1`) — both would indicate a corrupted construction.
    pub(crate) fn with_groups(mut self, groups: Vec<Group>) -> Result<Self, CodingError> {
        self.groups = if groups.is_empty() {
            None
        } else {
            Some(Arc::new(GroupIndex::new(self.code(), groups)?))
        };
        Ok(self)
    }

    /// The groups of the intact-group stage, ascending by size (empty
    /// when the stage is off).
    pub fn groups(&self) -> &[Group] {
        self.groups.as_ref().map_or(&[], |index| &index.groups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::GradientCodec;
    use crate::group::group_based;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn grouped(seed: u64) -> CompiledCodec {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = group_based(&[1.0, 2.0, 3.0, 4.0, 4.0], 7, 1, &mut rng).unwrap();
        CompiledCodec::new(g.code().clone())
            .with_groups(g.groups().to_vec())
            .unwrap()
    }

    /// The same matrix with the stage off: what the generic solve answers.
    fn generic(codec: &CompiledCodec) -> CompiledCodec {
        CompiledCodec::new(codec.code().clone())
    }

    fn check_exact(codec: &CompiledCodec, plan: &DecodePlan) {
        let prod = codec.code().matrix().vecmat(&plan.to_dense()).unwrap();
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
        let generic = generic(&codec).decode_plan(&[0, 2, 3, 4]).unwrap();
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
        let g = crate::group::group_based_from_support(&support, &mut rng).unwrap();
        let codec = g.compile().unwrap();
        let survivors = [0usize, 1, 3, 5, 6];
        let plan = codec.decode_plan(&survivors).unwrap();
        assert_eq!(plan, generic(&codec).decode_plan(&survivors).unwrap());
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
        let g = crate::group::group_based_from_support(&support, &mut rng).unwrap();
        let codec = g.compile().unwrap();
        assert!(codec.groups().is_empty());
        let survivors = [0usize, 1, 2, 3];
        let plan = codec.decode_plan(&survivors).unwrap();
        assert_eq!(plan, generic(&codec).decode_plan(&survivors).unwrap());
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
        let direct = g.compile().unwrap();
        let derived = CompiledCodec::new(g.code().clone())
            .with_groups(derive_groups(g.code()).unwrap())
            .unwrap();
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
        let codec = CompiledCodec::new(b.clone())
            .with_groups(derive_groups(&b).unwrap())
            .unwrap();
        for g in codec.groups() {
            let prod = b.matrix().vecmat(&g.decode_row(5)).unwrap();
            assert!(prod.iter().all(|v| (v - 1.0).abs() <= 1e-6));
        }
    }

    #[test]
    fn rejects_corrupt_groups() {
        let mut rng = StdRng::seed_from_u64(45);
        let g = group_based(&[1.0; 4], 4, 1, &mut rng).unwrap();
        let bogus = vec![Group {
            workers: vec![0, 9],
        }];
        let compiled = || CompiledCodec::new(g.code().clone());
        assert!(compiled().with_groups(bogus).is_err());
        let non_decoding = vec![Group { workers: vec![0] }];
        assert!(compiled().with_groups(non_decoding).is_err());
    }

    #[test]
    fn decode_plan_validates_survivors() {
        let codec = grouped(45);
        assert!(codec.decode_plan(&[0, 9]).is_err());
        assert!(codec.decode_plan(&[2, 2]).is_err());
    }
}
