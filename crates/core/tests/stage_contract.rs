//! What every `CodecBackend` × escalation budget answers, frozen as
//! values. The backend is each codec's escalation ceiling: only `Approx`
//! has the fallback, and a budget only replaces that stage's own.
//!
//! The constants were recorded on `d90ee7e` — the last commit with an
//! escalation ceiling, where a policy budget stacked on the stage's own —
//! through each cell's equivalent there: `(X, no budget)` is itself,
//! `(Approx, budget b)` was the Exact backend under an Approx ceiling
//! with budget `b`, and `(Exact | Group | Auto, budget b)` was `X` under
//! the backend-following ceiling with budget `b`. Every earlier record
//! (back to `e1c4da9`, when the group and approximate backends were
//! wrapper types) was made with this file's fold, which reaches the
//! codecs only through `SchemeInstance::compile_backend`,
//! `EscalatingCodec::new`, `hetgc_runtime::build_codec` and the
//! `GradientCodec` trait. (`base().as_compiled()`, the one accessor the
//! frozen `benchmark/` also calls, is used to read the plan-cache
//! counters.)
//!
//! Like `tests/golden_contract.rs`, the values move with the vendored
//! `rand` stream (scheme coefficients) and with nothing else.

use hetgc::{
    ClusterSpec, CodecBackend, EscalatingCodec, EscalationPolicy, GradientCodec, RuntimeConfig,
    SchemeBuilder, SchemeInstance, SchemeKind,
};
use hetgc_runtime::build_codec;
use rand::rngs::StdRng;
use rand::SeedableRng;

const BACKENDS: [CodecBackend; 4] = [
    CodecBackend::Auto,
    CodecBackend::Exact,
    CodecBackend::Group,
    CodecBackend::Approx,
];

/// `(scheme, fold via compile_backend, fold via build_codec)` over every
/// backend × budget. The two routes differ where `build_codec` derives
/// groups from the matrix that the `SchemeInstance` does not carry (see
/// the second test): visibly for `frac-rep`; `naive`'s derived group is
/// all `m` workers with unit weights, the plan the generic solve finds
/// too.
const STAGES: [(SchemeKind, u64, u64); 5] = [
    (
        SchemeKind::Naive,
        0x201e_d58c_da65_c51b,
        0x201e_d58c_da65_c51b,
    ),
    (
        SchemeKind::Cyclic,
        0xcccf_a2e1_111d_6db6,
        0xcccf_a2e1_111d_6db6,
    ),
    (
        SchemeKind::FractionalRepetition,
        0x4cf6_0628_357a_88bc,
        0x23fe_d8e9_28ee_cdcd,
    ),
    (
        SchemeKind::HeterAware,
        0xa3a1_b71f_3382_b23b,
        0xa3a1_b71f_3382_b23b,
    ),
    (
        SchemeKind::GroupBased,
        0xc5cd_d779_e3f1_fa5b,
        0xc5cd_d779_e3f1_fa5b,
    ),
];

/// 3×1 + 2×2 + 1×3 vCPUs (the cluster of `golden_contract.rs`):
/// heterogeneous, Eq.-5-feasible for `s = 1`, `(s + 1) | m`.
fn cluster() -> ClusterSpec {
    ClusterSpec::from_vcpu_rows("golden", &[(3, 1), (2, 2), (1, 3)], 50.0).unwrap()
}

fn scheme(kind: SchemeKind) -> SchemeInstance {
    SchemeBuilder::new(&cluster(), 1)
        .build(kind, &mut StdRng::seed_from_u64(21))
        .unwrap()
}

/// The budgets: the stage's own `0.75·√k`, and one tighter (1.0) and one
/// looser (5.0) than it. A budget installs on a codec that has the
/// approximate stage and is inert on one that has not.
fn policies() -> [EscalationPolicy; 3] {
    [
        EscalationPolicy::follow_backend(),
        EscalationPolicy::follow_backend().with_max_residual(1.0),
        EscalationPolicy::follow_backend().with_max_residual(5.0),
    ]
}

fn mix(h: u64, v: u64) -> u64 {
    let h = (h ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^ (h >> 32)
}

/// Everything one escalation-wrapped codec answers, folded in a fixed
/// order: the arrival at which a session decodes and the plan it hands
/// back, the in-budget `decode_plan`, `fallback_plan` past the budget
/// (one and two stragglers too many, then a single survivor) and
/// `can_escalate`.
fn observe(codec: &EscalatingCodec, mut h: u64) -> u64 {
    let (m, s) = (codec.workers(), codec.stragglers());
    // A fixed permutation of the workers (5 is coprime to every m here).
    let order: Vec<usize> = (0..m).map(|i| (i * 5 + 3) % m).collect();
    let plan_fold = |h: u64, plan: &hetgc::DecodePlan| {
        let h = plan.workers().iter().fold(h, |h, &w| mix(h, w as u64));
        let h = plan
            .coefficients()
            .iter()
            .fold(h, |h, c| mix(h, c.to_bits()));
        mix(h, plan.residual().to_bits())
    };

    let mut session = codec.session();
    let mut decoded_at = None;
    for (i, &w) in order.iter().enumerate() {
        if let Some(plan) = session.push(w).unwrap() {
            decoded_at = Some(i);
            h = plan_fold(mix(h, i as u64), &plan);
            break;
        }
    }
    assert!(decoded_at.is_some(), "all m workers always decode");

    let within = &order[..m - s];
    h = plan_fold(h, &codec.decode_plan(within).unwrap());

    for beyond in [&order[..m - s - 1], &order[..m - s - 2], &order[..1]] {
        h = match codec.fallback_plan(beyond) {
            Some(plan) => plan_fold(mix(h, 1), &plan),
            None => mix(h, 0),
        };
    }
    mix(h, u64::from(codec.can_escalate()))
}

const SEED: u64 = 0xcbf2_9ce4_8422_2325;

#[test]
fn every_backend_and_ceiling_answers_as_recorded() {
    for (kind, via_scheme, via_runtime) in STAGES {
        let scheme = scheme(kind);
        let m = scheme.code.workers();
        let (mut scheme_fold, mut runtime_fold) = (SEED, SEED);
        for backend in BACKENDS {
            for policy in policies() {
                let base = scheme.compile_backend(backend).unwrap();
                let codec = EscalatingCodec::new(base, policy.clone());
                scheme_fold = observe(&codec, scheme_fold);

                let config = RuntimeConfig::nominal(m)
                    .with_backend(backend)
                    .with_escalation(policy);
                let codec = build_codec(scheme.code.clone(), &config).unwrap();
                runtime_fold = observe(&codec, runtime_fold);
            }
        }
        assert_eq!(
            (scheme_fold, runtime_fold),
            (via_scheme, via_runtime),
            "{kind}: got ({scheme_fold:#018x}, {runtime_fold:#018x})"
        );
    }
}

/// The groups a codec tracks, found from outside. An intact-group answer
/// touches neither plan-cache counter and hands back the smallest intact
/// group's indicator row; tracked groups are pairwise disjoint, so losing
/// one worker of each group found so far exposes the next, until the
/// answer is a cache probe.
fn tracked_groups(codec: &EscalatingCodec) -> Vec<Vec<usize>> {
    let probes = || {
        let compiled = codec.base().as_compiled();
        compiled.cache_hits() + compiled.cache_misses()
    };
    let (mut dead, mut groups) = (Vec::new(), Vec::new());
    loop {
        let survivors: Vec<usize> = (0..codec.workers()).filter(|w| !dead.contains(w)).collect();
        let before = probes();
        let plan = codec.decode_plan(&survivors);
        if probes() > before {
            return groups;
        }
        let plan = plan.expect("an intact group decodes");
        assert!(plan.coefficients().iter().all(|&c| c == 1.0));
        dead.push(plan.workers()[0]);
        groups.push(plan.workers().to_vec());
    }
}

/// The one resolver has two callers and they do not hold the same
/// groups: `SchemeInstance::compile_backend` passes the scheme's own,
/// `build_codec` derives them from the matrix. Equal for `group-based`;
/// for `naive` and `frac-rep` derivation finds groups the scheme does not
/// carry, so under `Auto` the wall-clock master tracks a group where the
/// simulated engine tracks none. Pinned, not papered over.
#[test]
fn known_and_derived_groups_differ_where_recorded() {
    for kind in SchemeKind::ALL {
        let scheme = scheme(kind);
        let m = scheme.code.workers();
        let known = tracked_groups(&EscalatingCodec::new(
            scheme.compile_backend(CodecBackend::Auto).unwrap(),
            EscalationPolicy::follow_backend(),
        ));
        let config = RuntimeConfig::nominal(m).with_backend(CodecBackend::Auto);
        let derived = tracked_groups(&build_codec(scheme.code.clone(), &config).unwrap());
        let mut carried: Vec<Vec<usize>> =
            scheme.groups.iter().map(|g| g.workers().to_vec()).collect();
        carried.sort_by_key(|g| (g.len(), g.clone()));
        assert_eq!(
            known, carried,
            "{kind}: compile_backend tracks the scheme's own"
        );
        let recorded: &[&[usize]] = match kind {
            SchemeKind::Naive => &[&[0, 1, 2, 3, 4, 5]],
            SchemeKind::FractionalRepetition => &[&[0, 4, 5], &[1, 2, 3]],
            SchemeKind::GroupBased => &[&[0, 1, 5], &[2, 3, 4]],
            SchemeKind::Cyclic | SchemeKind::HeterAware => &[],
        };
        assert_eq!(
            derived, recorded,
            "{kind}: build_codec derives from the matrix"
        );
        assert_eq!(
            known == derived,
            !matches!(kind, SchemeKind::Naive | SchemeKind::FractionalRepetition)
        );
    }
}
