//! Data-plane equivalence property: the pooled zero-copy entry points
//! (`Model::gradient_into` → `GradientBlock` → `encode_into` →
//! `DecodePlan::apply_block_into`) are **bitwise-identical** to the
//! allocating reference (`partial_gradients` → dense
//! `CodingMatrix::encode` → fresh-`Vec` `apply_into`) across random
//! clusters, every scheme in `SchemeKind::ALL` and every codec backend.
//!
//! Bitwise equality (not approximate) is the point: the data plane is a
//! *storage* refactoring — flat blocks and reused buffers instead of
//! fresh `Vec`s — so it must perform the very same floating-point
//! operations in the very same order.

use std::collections::HashMap;

use hetgc::{
    partial_gradients_into, synthetic, ClusterSpec, CodecBackend, GradientBlock, GradientCodec,
    LinearRegression, Model, SchemeBuilder, SchemeKind,
};
use hetgc_ml::partial_gradients;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BACKENDS: [CodecBackend; 4] = [
    CodecBackend::Auto,
    CodecBackend::Exact,
    CodecBackend::Group,
    CodecBackend::Approx,
];

/// Strategy: a small heterogeneous cluster as vCPU counts (1–4 each),
/// a straggler budget, and a seed for scheme construction / data.
fn cluster() -> impl Strategy<Value = (Vec<u32>, usize, u64)> {
    (3usize..7, 0usize..3, any::<u64>())
        .prop_flat_map(|(m, s, seed)| (prop::collection::vec(1u32..5, m), Just(s), Just(seed)))
}

fn check_case(vcpus: &[u32], s: usize, seed: u64) -> Result<(), String> {
    let rows: Vec<(usize, u32)> = vcpus.iter().map(|&v| (1usize, v)).collect();
    let cluster = ClusterSpec::from_vcpu_rows("prop", &rows, 100.0).unwrap();
    let s = s.min(cluster.len() - 1);
    let mut rng = StdRng::seed_from_u64(seed);

    for kind in SchemeKind::ALL {
        // Some kinds are legitimately infeasible for some shapes; skip
        // those, test everything buildable.
        let Ok(scheme) = SchemeBuilder::new(&cluster, s).build(kind, &mut rng) else {
            continue;
        };
        for backend in BACKENDS {
            // The group backend only exists for group-based matrices.
            let Ok(codec) = scheme.compile_backend(backend) else {
                continue;
            };
            let m = codec.workers();
            let k = codec.partitions();
            let dim = 4usize;
            let model = LinearRegression::new(dim - 1);
            let data = synthetic::linear_regression(k * 3, dim - 1, 0.05, &mut rng);
            let ranges: Vec<(usize, usize)> = (0..k).map(|j| (j * 3, (j + 1) * 3)).collect();
            let params = model.init_params(&mut rng);

            // Partials: pooled block == allocating rows, bitwise.
            let legacy = partial_gradients(&model, &params, &data, &ranges);
            let mut block = GradientBlock::new(0, 0);
            partial_gradients_into(&model, &params, &data, &ranges, &mut block);
            for (j, row) in legacy.iter().enumerate() {
                if block.row(j) != row.as_slice() {
                    return Err(format!("{kind}/{backend}: partial {j} differs"));
                }
            }

            // Encoding: CSR encode_into == the dense reference, bitwise,
            // for every worker.
            let mut arrivals = GradientBlock::new(m, dim);
            for w in 0..m {
                let allocating = scheme.code.encode(w, &legacy).map_err(|e| e.to_string())?;
                codec
                    .encode_into(w, &block, arrivals.row_mut(w))
                    .map_err(|e| e.to_string())?;
                if arrivals.row(w) != allocating.as_slice() {
                    return Err(format!("{kind}/{backend}: encode for worker {w} differs"));
                }
            }

            // Decoding: block == per-`Vec` apply, bitwise, over a random
            // survivable pattern (and the full set).
            let dead = rng.gen_range(0..m);
            let patterns: [Vec<usize>; 2] =
                [(0..m).collect(), (0..m).filter(|&w| w != dead).collect()];
            for survivors in &patterns {
                let Ok(plan) = codec.decode_plan(survivors) else {
                    continue; // s = 0 schemes can't always lose a worker
                };
                let coded: HashMap<usize, Vec<f64>> = plan
                    .workers()
                    .iter()
                    .map(|&w| (w, arrivals.row(w).to_vec()))
                    .collect();
                let mut allocating = vec![0.0; dim];
                plan.apply_into(|w| coded.get(&w).map(Vec::as_slice), &mut allocating)
                    .map_err(|e| e.to_string())?;
                let mut pooled = vec![f64::NAN; dim];
                plan.apply_block_into(&arrivals, &mut pooled)
                    .map_err(|e| e.to_string())?;
                if pooled != allocating {
                    return Err(format!(
                        "{kind}/{backend}: decode over {survivors:?} differs"
                    ));
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn pooled_data_plane_bitwise_matches_allocating_path((vcpus, s, seed) in cluster()) {
        if let Err(e) = check_case(&vcpus, s, seed) {
            prop_assert!(false, "{}", e);
        }
    }
}

/// Full-strength sweep for the nightly `slow-suite` CI job.
#[test]
#[ignore = "slow full sweep; run with --ignored (CI slow-suite)"]
fn pooled_data_plane_sweep() {
    let mut rng = StdRng::seed_from_u64(2024);
    for case in 0..150 {
        let m = rng.gen_range(3..8);
        let vcpus: Vec<u32> = (0..m).map(|_| rng.gen_range(1..5)).collect();
        let s = rng.gen_range(0..3);
        let seed = rng.gen_range(0..u64::MAX);
        if let Err(e) = check_case(&vcpus, s, seed) {
            panic!("case {case} ({vcpus:?}, s={s}, seed={seed}): {e}");
        }
    }
}
