//! Cross-backend differential harness: for every `SchemeKind` and random
//! straggler patterns where exact decoding is possible, a `CompiledCodec`
//! with the group or approximate stage on must produce gradients identical
//! to the plain one's.
//!
//! Two strengths of "identical":
//!
//! * **bitwise** — whenever a backend takes the same arithmetic path as
//!   the generic backend (the approximate stage inside the straggler
//!   budget always does; the group stage does when no group is intact),
//!   the decoded gradients must be equal to the last bit;
//! * **ε-identical** — when the group stage answers with a precompiled
//!   indicator row instead of the generic combination, the plan differs
//!   but both decode the same exact gradient, so the results must agree
//!   to floating-point accuracy.
//!
//! The default-cases proptest runs in PR CI; the `#[ignore]`d exhaustive
//! variant re-runs the same checks over a much larger sample and is
//! executed by the nightly `--release` CI job.

use std::collections::HashMap;

use hetgc::{
    ClusterSpec, CodecBackend, CompiledCodec, GradientBlock, GradientCodec, SchemeBuilder,
    SchemeKind,
};
use hetgc_coding::DecodePlan;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Strategy: a small heterogeneous cluster as vCPU counts (1–4 each),
/// a straggler budget, and a seed for scheme construction / data.
fn cluster() -> impl Strategy<Value = (Vec<u32>, usize, u64)> {
    (3usize..7, 0usize..3, any::<u64>())
        .prop_flat_map(|(m, s, seed)| (prop::collection::vec(1u32..5, m), Just(s), Just(seed)))
}

fn partials(k: usize, dim: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    (0..k)
        .map(|_| (0..dim).map(|_| rng.gen_range(-3.0..3.0)).collect())
        .collect()
}

/// Worker `w`'s coded gradient.
fn encode(codec: &CompiledCodec, w: usize, parts: &GradientBlock) -> Result<Vec<f64>, String> {
    let mut out = vec![0.0; parts.dim()];
    codec
        .encode_into(w, parts, &mut out)
        .map_err(|e| e.to_string())?;
    Ok(out)
}

fn combine(plan: &DecodePlan, coded: &HashMap<usize, Vec<f64>>) -> Vec<f64> {
    let dim = coded.values().next().map(Vec::len).unwrap_or(0);
    let mut out = vec![0.0; dim];
    plan.apply_into(|w| coded.get(&w).map(Vec::as_slice), &mut out)
        .expect("plan workers all received");
    out
}

/// One full differential check of every backend over one cluster shape.
/// Returns an error string on the first divergence (proptest- and
/// loop-friendly).
fn check_backends_agree(vcpus: &[u32], s: usize, seed: u64) -> Result<(), String> {
    let rows: Vec<(usize, u32)> = vcpus.iter().map(|&v| (1usize, v)).collect();
    let cluster = ClusterSpec::from_vcpu_rows("diff", &rows, 100.0).map_err(|e| e.to_string())?;
    let s = s.min(cluster.len() - 1);
    let mut rng = StdRng::seed_from_u64(seed);

    for kind in SchemeKind::ALL {
        // Some kinds are legitimately infeasible for some shapes; skip
        // those, test everything buildable.
        let Ok(scheme) = SchemeBuilder::new(&cluster, s).build(kind, &mut rng) else {
            continue;
        };
        let exact = scheme
            .compile_backend(CodecBackend::Exact)
            .map_err(|e| e.to_string())?;
        let grouped = scheme
            .compile_backend(CodecBackend::Group)
            .map_err(|e| e.to_string())?;
        let approx = scheme
            .compile_backend(CodecBackend::Approx)
            .map_err(|e| e.to_string())?;
        let m = exact.workers();
        let k = exact.partitions();
        let s_eff = scheme.stragglers();
        let parts =
            GradientBlock::from_rows(&partials(k, 5, &mut rng)).map_err(|e| e.to_string())?;

        // Encoding is shared CSR state: all backends bitwise-equal.
        for w in 0..m {
            let reference = encode(&exact, w, &parts)?;
            for (label, codec) in [("group", &grouped), ("approx", &approx)] {
                let other = encode(codec, w, &parts)?;
                if other != reference {
                    return Err(format!("{kind}/{label}: encode mismatch at worker {w}"));
                }
            }
        }

        // Random straggler patterns of every size within the budget —
        // exact decoding is possible for all of them (condition C1).
        for pattern_size in 0..=s_eff {
            let mut workers: Vec<usize> = (0..m).collect();
            for i in (1..m).rev() {
                let j = rng.gen_range(0..=i);
                workers.swap(i, j);
            }
            let survivors: Vec<usize> = {
                let dead = &workers[..pattern_size];
                (0..m).filter(|w| !dead.contains(w)).collect()
            };
            let coded: HashMap<usize, Vec<f64>> = survivors
                .iter()
                .map(|&w| (w, encode(&exact, w, &parts).expect("encode")))
                .collect();

            let exact_plan = exact
                .decode_plan(&survivors)
                .map_err(|e| format!("{kind}: exact backend failed a ≤s pattern: {e}"))?;
            let reference = combine(&exact_plan, &coded);

            // The approximate stage within the budget routes through the identical
            // compiled solve (and plan cache): bitwise equality.
            let approx_plan = approx
                .decode_plan(&survivors)
                .map_err(|e| format!("{kind}/approx: {e}"))?;
            if approx_plan != exact_plan {
                return Err(format!("{kind}/approx: plan diverged on {survivors:?}"));
            }
            if combine(&approx_plan, &coded) != reference {
                return Err(format!("{kind}/approx: gradient diverged on {survivors:?}"));
            }
            if !approx_plan.is_exact() {
                return Err(format!("{kind}/approx: nonzero residual on exact pattern"));
            }

            // The group stage: bitwise when no group is intact; ε-identical
            // (1e-9 relative) when it short-circuits to an indicator row.
            let group_plan = grouped
                .decode_plan(&survivors)
                .map_err(|e| format!("{kind}/group: {e}"))?;
            let via_group = combine(&group_plan, &coded);
            let intact = scheme
                .groups
                .iter()
                .any(|g| g.workers().iter().all(|w| survivors.contains(w)));
            if !intact {
                if group_plan != exact_plan {
                    return Err(format!("{kind}/group: plan diverged with no intact group"));
                }
                if via_group != reference {
                    return Err(format!(
                        "{kind}/group: gradient not bitwise on {survivors:?}"
                    ));
                }
            } else {
                // The cheapest-plan guarantee: never more workers than the
                // generic combination, and exactly an intact group's size.
                let smallest_intact = scheme
                    .groups
                    .iter()
                    .filter(|g| g.workers().iter().all(|w| survivors.contains(w)))
                    .map(|g| g.len())
                    .min()
                    .expect("intact");
                if group_plan.len() != smallest_intact {
                    return Err(format!(
                        "{kind}/group: plan has {} nonzeros, smallest intact group has {}",
                        group_plan.len(),
                        smallest_intact
                    ));
                }
                for (a, b) in via_group.iter().zip(&reference) {
                    if (a - b).abs() > 1e-9 * (1.0 + b.abs()) {
                        return Err(format!(
                            "{kind}/group: gradient diverged beyond ε: {a} vs {b}"
                        ));
                    }
                }
            }
            if !group_plan.is_exact() {
                return Err(format!("{kind}/group: nonzero residual on exact pattern"));
            }

            // Streaming sessions: same arrival order ⇒ same decoded
            // gradient across backends (ε-identical; bitwise without an
            // intact group prefix).
            let order: Vec<usize> = survivors.clone();
            let run = |codec: &CompiledCodec| -> Option<DecodePlan> {
                let mut session = codec.session();
                for &w in &order {
                    if let Some(plan) = session.push(w).expect("valid push") {
                        return Some(plan);
                    }
                }
                None
            };
            let exact_session = run(&exact)
                .ok_or_else(|| format!("{kind}: exact session failed to decode {order:?}"))?;
            let group_session = run(&grouped)
                .ok_or_else(|| format!("{kind}/group: session failed on {order:?}"))?;
            let approx_session = run(&approx)
                .ok_or_else(|| format!("{kind}/approx: session failed on {order:?}"))?;
            if approx_session != exact_session {
                return Err(format!("{kind}/approx: session plan diverged"));
            }
            let ref_grad = combine(&exact_session, &coded);
            let group_grad = combine(&group_session, &coded);
            for (a, b) in group_grad.iter().zip(&ref_grad) {
                if (a - b).abs() > 1e-9 * (1.0 + b.abs()) {
                    return Err(format!(
                        "{kind}/group: session gradient diverged: {a} vs {b}"
                    ));
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn backends_agree_on_exact_patterns((vcpus, s, seed) in cluster()) {
        if let Err(msg) = check_backends_agree(&vcpus, s, seed) {
            prop_assert!(false, "{}", msg);
        }
    }
}

/// The nightly-strength variant: same differential checks over a much
/// larger deterministic sample of cluster shapes. Run with
/// `cargo test --release -- --ignored`.
#[test]
#[ignore = "slow: full-case differential sweep, run by the nightly CI job"]
fn backends_agree_exhaustive() {
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    for case in 0..300 {
        let m = rng.gen_range(3..8);
        let vcpus: Vec<u32> = (0..m).map(|_| rng.gen_range(1..5)).collect();
        let s = rng.gen_range(0..3usize);
        let seed: u64 = rng.gen_range(0..u64::MAX);
        if let Err(msg) = check_backends_agree(&vcpus, s, seed) {
            panic!("case {case} (vcpus {vcpus:?}, s {s}, seed {seed}): {msg}");
        }
    }
}
