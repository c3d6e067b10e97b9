//! Property tests for the escalation-policy invariants (the per-round
//! Exact → Group → Approx ladder):
//!
//! 1. **No gratuitous escalation** — whenever the survivor set decodes
//!    exactly, the round's plan has residual 0 whatever the backend: the
//!    approximate stage is consulted only after exact decoding is
//!    exhausted.
//! 2. **Monotone ladder** — a backend with more stages never makes a
//!    round less decodable:
//!    decodable(Exact) ⊆ decodable(Group) ⊆ decodable(Approx).
//! 3. **Residual-aware step scaling** — the effective learning rate
//!    equals the base rate exactly on exact rounds, and is strictly
//!    positive and strictly below the base on approximate rounds.

use hetgc::{
    residual_step_scale, ClusterSpec, CodecBackend, EscalationPolicy, GradientCodec, SchemeBuilder,
    SchemeKind,
};
use hetgc_coding::EscalatingCodec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Strategy: a small heterogeneous cluster (vCPU counts 1–4), a straggler
/// budget, a survivor-count knob and a seed.
fn scenario() -> impl Strategy<Value = (Vec<u32>, usize, usize, u64)> {
    (4usize..7, 1usize..3, any::<usize>(), any::<u64>()).prop_flat_map(|(m, s, drop, seed)| {
        (
            prop::collection::vec(1u32..5, m),
            Just(s),
            Just(drop),
            Just(seed),
        )
    })
}

/// Builds a scheme (skipping infeasible shapes) and a random survivor
/// set dropping `drop` workers.
fn build_case(
    vcpus: &[u32],
    s: usize,
    drop: usize,
    seed: u64,
    kind: SchemeKind,
) -> Option<(hetgc::SchemeInstance, Vec<usize>)> {
    let rows: Vec<(usize, u32)> = vcpus.iter().map(|&v| (1usize, v)).collect();
    let cluster = ClusterSpec::from_vcpu_rows("esc", &rows, 100.0).ok()?;
    let s = s.min(cluster.len() - 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let scheme = SchemeBuilder::new(&cluster, s).build(kind, &mut rng).ok()?;
    let m = scheme.code.workers();
    let drop = drop % m; // 0..m-1 dropped, at least one survivor
    let mut workers: Vec<usize> = (0..m).collect();
    workers.shuffle(&mut rng);
    let mut survivors = workers[..m - drop].to_vec();
    survivors.sort_unstable();
    Some((scheme, survivors))
}

/// The backends in ladder order.
const BACKENDS: [CodecBackend; 3] = [
    CodecBackend::Exact,
    CodecBackend::Group,
    CodecBackend::Approx,
];

/// Whether a survivor set completes a round on the given codec: exact
/// decode first (the session path), then the fallback.
fn decodable_under(esc: &EscalatingCodec, survivors: &[usize]) -> (bool, f64) {
    if let Ok(plan) = esc.decode_plan(survivors) {
        return (true, plan.residual());
    }
    match esc.fallback_plan(survivors) {
        Some(plan) => (true, plan.residual()),
        None => (false, f64::NAN),
    }
}

fn check_invariants(vcpus: &[u32], s: usize, drop: usize, seed: u64) -> Result<(), String> {
    for kind in [
        SchemeKind::Cyclic,
        SchemeKind::HeterAware,
        SchemeKind::GroupBased,
    ] {
        let Some((scheme, survivors)) = build_case(vcpus, s, drop, seed, kind) else {
            continue;
        };
        let exact_decodable = scheme
            .compile_backend(CodecBackend::Exact)
            .map_err(|e| e.to_string())?
            .decode_plan(&survivors)
            .is_ok();

        let mut prev_decodable = false;
        for (stage, backend) in BACKENDS.iter().enumerate() {
            let base = scheme
                .compile_backend(*backend)
                .map_err(|e| e.to_string())?;
            let esc = EscalatingCodec::new(base, EscalationPolicy::follow_backend());
            let (decodable, residual) = decodable_under(&esc, &survivors);

            // Invariant 1: an exact-decodable survivor set NEVER yields an
            // approximate plan, whatever the backend.
            if exact_decodable {
                if !decodable {
                    return Err(format!(
                        "{kind}: exact-decodable set {survivors:?} undecodable on {backend}"
                    ));
                }
                if residual != 0.0 {
                    return Err(format!(
                        "{kind}: backend {backend} escalated an exact-decodable set \
                         {survivors:?} (residual {residual})"
                    ));
                }
            }

            // Invariant 2: monotone ladder.
            if prev_decodable && !decodable {
                return Err(format!(
                    "{kind}: set {survivors:?} decodable at stage {} but not on {backend}",
                    stage - 1,
                ));
            }
            prev_decodable = decodable;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn never_escalates_when_exact_decodable_and_ladder_is_monotone(
        (vcpus, s, drop, seed) in scenario()
    ) {
        if let Err(msg) = check_invariants(&vcpus, s, drop, seed) {
            prop_assert!(false, "{}", msg);
        }
    }

    #[test]
    fn step_scale_is_identity_on_exact_rounds(
        with_bound in any::<bool>(),
        bound in 0.0f64..100.0,
        norm in 0.0f64..100.0,
        k in 1usize..64,
    ) {
        // residual == 0 ⇒ the base learning rate, bit for bit.
        let bound = with_bound.then_some(bound);
        prop_assert_eq!(residual_step_scale(0.0, bound, norm, k), 1.0);
    }

    #[test]
    fn step_scale_is_positive_and_below_one_on_approx_rounds(
        residual in 1e-12f64..100.0,
        with_bound in any::<bool>(),
        bound in 1e-12f64..1e6,
        norm in 0.0f64..100.0,
        k in 1usize..64,
        base_lr in 1e-6f64..10.0,
    ) {
        let bound = with_bound.then_some(bound);
        let scale = residual_step_scale(residual, bound, norm, k);
        prop_assert!(scale > 0.0, "scale must stay positive: {}", scale);
        prop_assert!(scale < 1.0, "approximate rounds must shrink the step: {}", scale);
        // And therefore the effective rate is in (0, base).
        let lr = base_lr * scale;
        prop_assert!(lr > 0.0 && lr < base_lr);
    }
}

/// The exhaustive variant for the nightly `--release` job.
#[test]
#[ignore = "slow exhaustive sweep; run via `cargo test --release -- --ignored`"]
fn escalation_invariants_exhaustive() {
    let mut rng = StdRng::seed_from_u64(0xE5CA);
    for case in 0..200 {
        let m = 4 + (case % 3);
        let vcpus: Vec<u32> = (0..m).map(|_| rng.gen_range(1u32..5)).collect();
        let s = 1 + (case % 2);
        let drop = rng.gen_range(0usize..m);
        let seed = rng.gen_range(0u64..u64::MAX);
        if let Err(msg) = check_invariants(&vcpus, s, drop, seed) {
            panic!("case {case}: {msg}");
        }
    }
}

// `Rng::gen_range` on StdRng needs the trait in scope for the ignored test.
use rand::Rng;
