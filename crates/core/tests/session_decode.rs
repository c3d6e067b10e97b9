//! The streaming session (`CodecSession`) against from-scratch linear
//! algebra: a property test over every scheme kind and random arrival
//! orders, and exhaustive sweeps on the paper's largest cluster —
//! Cluster-D (`m = 58`), `k = 162`, `s = 3`.
//!
//! The sweeps are the regression for the PR 12 finding "≈1 code seed in 20
//! gives a Cluster-D code on which the session never decodes survivor sets
//! `decode_plan` solves". That was Gauss–Jordan error growth in the
//! session's old reduced-row-echelon basis (back-eliminating every basis
//! row on every arrival); the forward-only echelon form does not have it.
//! With the old elimination, code seeds 5 / 10 / 12 / 15 stalled on
//! 20 / 3 / 5 / 1 of the 30 856 three-straggler sets.

use hetgc::{SchemeBuilder, SchemeKind};
use hetgc_cluster::ClusterSpec;
use hetgc_coding::{CodecSession, CompiledCodec, GradientCodec};
use hetgc_linalg::{in_span, DEFAULT_TOLERANCE};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Feeds `order` into `session` until it decodes; the arrival index that
/// fired (the plan is then `session.decoded_plan()`).
fn first_decode(
    session: &mut CodecSession,
    order: impl IntoIterator<Item = usize>,
) -> Option<usize> {
    order
        .into_iter()
        .position(|w| session.push_arrival(w).expect("valid, distinct workers"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every buildable `SchemeKind` on random small heterogeneous
    /// clusters, random arrival orders: the session (i) fires at exactly
    /// the first prefix whose rows span `1` by a from-scratch rank test,
    /// (ii) returns a decode vector over **all** `k` partitions — not just
    /// the distinct columns it eliminates over — supported on that prefix,
    /// and (iii) does so bitwise-identically whether fresh or reused.
    #[test]
    fn session_fires_at_the_earliest_spanning_prefix(
        (vcpus, s, seed) in (3usize..8, 0usize..3, any::<u64>())
            .prop_flat_map(|(m, s, seed)| (prop::collection::vec(1u32..5, m), Just(s), Just(seed)))
    ) {
        let rows: Vec<(usize, u32)> = vcpus.iter().map(|&v| (1usize, v)).collect();
        let cluster = ClusterSpec::from_vcpu_rows("prop", &rows, 100.0).unwrap();
        let s = s.min(cluster.len() - 1);
        let mut rng = StdRng::seed_from_u64(seed);
        for kind in SchemeKind::ALL {
            // Infeasible (kind, shape) pairs are skipped, as in
            // `codec_equivalence`.
            let Ok(scheme) = SchemeBuilder::new(&cluster, s).build(kind, &mut rng) else {
                continue;
            };
            let codec = scheme.compile();
            let (m, k) = (codec.workers(), codec.partitions());
            let ones = vec![1.0; k];
            let mut reused = codec.session();
            for _ in 0..3 {
                let mut order: Vec<usize> = (0..m).collect();
                order.shuffle(&mut rng);
                let earliest = (1..=m).find(|&n| {
                    let prefix = scheme.code.matrix().select_rows(&order[..n]).unwrap();
                    in_span(&prefix, &ones, DEFAULT_TOLERANCE)
                });

                reused.reset();
                let fired = first_decode(&mut reused, order.iter().copied());
                prop_assert_eq!(
                    fired.map(|idx| idx + 1), earliest,
                    "{}: order {:?}", kind, &order
                );
                let Some(idx) = fired else { continue };
                let plan = reused.decoded_plan().expect("decoded");
                prop_assert!(plan.workers().iter().all(|w| order[..=idx].contains(w)));
                let product = scheme.code.matrix().vecmat(&plan.to_dense()).unwrap();
                for (j, v) in product.iter().enumerate() {
                    prop_assert!((v - 1.0).abs() < 1e-9, "{}: aB[{}] = {}", kind, j, v);
                }
                let mut fresh = codec.session();
                prop_assert_eq!(first_decode(&mut fresh, order.iter().copied()), fired);
                prop_assert_eq!(fresh.decoded_plan(), Some(plan), "{}: fresh vs reused", kind);
            }
        }
    }
}

const STRAGGLERS: usize = 3;
const PARTITIONS: usize = 162;

fn cluster_d_codec(code_seed: u64) -> CompiledCodec {
    SchemeBuilder::new(&ClusterSpec::cluster_d(), STRAGGLERS)
        .partitions(PARTITIONS)
        .build(
            SchemeKind::HeterAware,
            &mut StdRng::seed_from_u64(code_seed),
        )
        .expect("Cluster-D admits s = 3")
        .compile()
}

/// Pushes every worker outside `dead` in ascending order into a reset
/// `session`; `true` when the round decodes.
fn session_decodes(session: &mut CodecSession, dead: [usize; STRAGGLERS]) -> bool {
    session.reset();
    let survivors = (0..session.workers()).filter(|w| !dead.contains(w));
    first_decode(session, survivors).is_some()
}

/// Calls `visit` with every `{a < b < c}` of `0..m`.
fn for_each_straggler_set(m: usize, mut visit: impl FnMut([usize; STRAGGLERS])) {
    for a in 0..m {
        for b in a + 1..m {
            for c in b + 1..m {
                visit([a, b, c]);
            }
        }
    }
}

/// Code seed 5: the session decodes the 55 survivors of **every** one of
/// the `C(58, 3) = 30 856` straggler sets, and the plan it returns is a
/// decode vector over all `k` partitions (not only the distinct columns
/// the session eliminates over).
#[test]
fn session_decodes_every_three_straggler_set_of_cluster_d_seed_5() {
    let codec = cluster_d_codec(5);
    let m = codec.workers();
    assert_eq!((m, codec.partitions()), (58, PARTITIONS));
    let mut session = codec.session();
    let (mut sets, mut stalled) = (0_usize, Vec::new());
    for_each_straggler_set(m, |dead| {
        sets += 1;
        if !session_decodes(&mut session, dead) {
            stalled.push(dead);
            return;
        }
        // Spot-check the full-width contract on a thin slice of the sets
        // (the vecmat is the expensive part in an unoptimized build).
        if sets % 97 == 0 {
            let plan = session.decoded_plan().expect("decoded");
            assert!(dead.iter().all(|w| !plan.workers().contains(w)));
            let product = codec.code().matrix().vecmat(&plan.to_dense()).unwrap();
            for (j, v) in product.iter().enumerate() {
                assert!((v - 1.0).abs() < 1e-6, "{dead:?}: aB[{j}] = {v}");
            }
        }
    });
    assert_eq!(sets, 30_856);
    assert!(
        stalled.is_empty(),
        "session stalled on {} of {sets} sets, e.g. {:?}",
        stalled.len(),
        &stalled[..stalled.len().min(5)]
    );
}

/// Code seeds 0–40: the session decodes every straggler set the dense
/// `decode_plan` solve decodes. (Sets *neither* solves exist — seeds
/// 19 / 26 / 27 have one or two each, a conditioning problem of the drawn
/// code rather than of either elimination — and are not this test's
/// business.) ~41 × 30 856 sessions plus a dense solve per stall: slow
/// suite only.
#[test]
#[ignore = "slow: exhaustive over 41 Cluster-D codes; run by the nightly slow-suite job"]
fn session_decodes_every_set_decode_plan_decodes_seeds_0_to_40() {
    for code_seed in 0..=40 {
        let codec = cluster_d_codec(code_seed);
        let m = codec.workers();
        let mut session = codec.session();
        let mut session_only_stalls = Vec::new();
        for_each_straggler_set(m, |dead| {
            if session_decodes(&mut session, dead) {
                return;
            }
            let survivors: Vec<usize> = (0..m).filter(|w| !dead.contains(w)).collect();
            // The uncompiled path: no plan cache to churn through.
            if codec.code().decode_plan(&survivors).is_ok() {
                session_only_stalls.push(dead);
            }
        });
        assert!(
            session_only_stalls.is_empty(),
            "code seed {code_seed}: session stalled on {} sets decode_plan solves, e.g. {:?}",
            session_only_stalls.len(),
            &session_only_stalls[..session_only_stalls.len().min(5)]
        );
    }
}
