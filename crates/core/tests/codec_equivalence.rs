//! Equivalence property: the compiled codec path (`CompiledCodec` →
//! CSR `encode_into` → cached `decode_plan` → `DecodePlan::apply_into`)
//! returns **bitwise-identical** gradients to the uncompiled dense
//! reference (`CodingMatrix::encode` row scans, a fresh
//! `CodingMatrix::decode_plan` solve per call, its dense vector applied
//! with the same arithmetic) across random clusters, every scheme in
//! `SchemeKind::ALL`, random straggler patterns, and repeated decodes
//! (plan-cache hits must reproduce the miss-path solve exactly).
//!
//! Bitwise equality (not approximate) is the point: compiling is a
//! *refactoring* of the decode pipeline, so it must perform the very same
//! floating-point operations in the very same order.

use std::collections::HashMap;

use hetgc::{ClusterSpec, GradientBlock, GradientCodec, SchemeBuilder, SchemeKind};
use hetgc_coding::DecodePlan;

/// `out = Σ_w a[w] · coded[w]` in ascending worker order: zero-fill, then
/// one `axpy` per nonzero coefficient of the dense decode vector.
fn combine(
    a: &[f64],
    coded: &std::collections::HashMap<usize, Vec<f64>>,
) -> Result<Vec<f64>, String> {
    let dim = coded.values().next().map(Vec::len).unwrap_or(0);
    let mut out = vec![0.0; dim];
    DecodePlan::from_dense(a)
        .apply_into(|w| coded.get(&w).map(Vec::as_slice), &mut out)
        .map_err(|e| e.to_string())?;
    Ok(out)
}
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Strategy: a small heterogeneous cluster as vCPU counts (1–4 each),
/// a straggler budget, and a seed for scheme construction / data.
fn cluster() -> impl Strategy<Value = (Vec<u32>, usize, u64)> {
    (3usize..7, 0usize..3, any::<u64>())
        .prop_flat_map(|(m, s, seed)| (prop::collection::vec(1u32..5, m), Just(s), Just(seed)))
}

/// Deterministic fake partial gradients: `k` vectors of dimension `dim`.
fn partials(k: usize, dim: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    (0..k)
        .map(|_| (0..dim).map(|_| rng.gen_range(-3.0..3.0)).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn compiled_codec_bitwise_matches_legacy_path((vcpus, s, seed) in cluster()) {
        let rows: Vec<(usize, u32)> = vcpus.iter().map(|&v| (1usize, v)).collect();
        let cluster = ClusterSpec::from_vcpu_rows("prop", &rows, 100.0).unwrap();
        let s = s.min(cluster.len() - 1);
        let mut rng = StdRng::seed_from_u64(seed);

        for kind in SchemeKind::ALL {
            // Some kinds are legitimately infeasible for some shapes
            // (fractional repetition needs (s+1) | m; Eq. 5 needs
            // max c/Σc ≤ 1/(s+1)). Skip those, test everything buildable.
            let Ok(scheme) = SchemeBuilder::new(&cluster, s).build(kind, &mut rng) else {
                continue;
            };
            let codec = scheme.compile();
            let m = codec.workers();
            let k = codec.partitions();
            let s_eff = scheme.stragglers();
            let parts = partials(k, 6, &mut rng);

            // Encoding: CSR sparse path == dense-row path, bitwise.
            let block = GradientBlock::from_rows(&parts).unwrap();
            let mut sparse = vec![f64::NAN; 6];
            for w in 0..m {
                codec.encode_into(w, &block, &mut sparse).unwrap();
                prop_assert_eq!(
                    &sparse,
                    &scheme.code.encode(w, &parts).unwrap(),
                    "{} encode mismatch at worker {}", kind, w
                );
            }

            // Decoding: random straggler patterns of every size ≤ s_eff,
            // each decoded twice through the codec (second hit is served
            // from the plan cache) and once through the uncompiled path.
            for pattern_size in 0..=s_eff {
                let mut workers: Vec<usize> = (0..m).collect();
                // Deterministic Fisher–Yates from the test rng.
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
                    .map(|&w| (w, scheme.code.encode(w, &parts).unwrap()))
                    .collect();

                let a = scheme.code.decode_plan(&survivors).unwrap().to_dense();
                let legacy = combine(&a, &coded).unwrap();

                let misses_before = codec.cache_misses();
                let hits_before = codec.cache_hits();
                let plan_fresh = codec.decode_plan(&survivors).unwrap();
                let plan_cached = codec.decode_plan(&survivors).unwrap();
                prop_assert_eq!(codec.cache_misses(), misses_before + 1);
                prop_assert_eq!(codec.cache_hits(), hits_before + 1,
                    "second decode of the same pattern must hit the cache");
                prop_assert_eq!(&plan_fresh, &plan_cached,
                    "{} cache hit diverged from miss", kind);

                let mut via_codec = vec![0.0; legacy.len()];
                plan_fresh
                    .apply_into(|w| coded.get(&w).map(Vec::as_slice), &mut via_codec)
                    .unwrap();
                prop_assert_eq!(&legacy, &via_codec,
                    "{} decode mismatch, {} stragglers", kind, pattern_size);
            }

            // Sessions: the same arrival order replayed after reset()
            // yields the identical plan (buffer reuse must not change
            // the arithmetic), and the plan actually decodes.
            let mut session = codec.session();
            let mut order: Vec<usize> = (0..m).collect();
            for i in (1..m).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            let run = |session: &mut hetgc::CodecSession| {
                session.reset();
                for &w in &order {
                    if let Some(plan) = session.push(w).unwrap() {
                        return plan;
                    }
                }
                panic!("full arrival order must decode");
            };
            let first = run(&mut session);
            let second = run(&mut session);
            prop_assert_eq!(&first, &second, "{} session replay diverged", kind);
            let recovered =
                scheme.code.matrix().vecmat(&first.to_dense()).unwrap();
            for v in &recovered {
                prop_assert!((v - 1.0).abs() < 1e-6, "{kind}: aB = {recovered:?}");
            }
        }
    }
}
