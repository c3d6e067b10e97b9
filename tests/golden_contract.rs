//! The contract of the deleted entry points, frozen as values.
//!
//! `decode_vector`, the allocating `GradientCodec::encode`,
//! `train_bsp_sim` and `train_ssp_sim` are gone; what they computed is
//! not allowed to move. Every constant below was recorded **through those
//! entry points** on the last commit that had them (`fb478f2`), with a
//! recorder identical to this file except for the calls under test:
//!
//! * decoded gradients: `codec.encode(w, &partial_gradients(..))` per
//!   survivor, combined with `decode_vector(&scheme.code, &survivors)`
//!   (Exact) or `codec.decode_plan(&survivors).to_dense()` (Group and
//!   Approx, which never had another entry point);
//! * the runs: `train_bsp_sim(..)` and `train_ssp_sim(..)`, whose `LossCurve`
//!   is all the SSP wrapper ever returned — hence no params fold there.
//!
//! Recorded with `cargo test --offline --release --test golden_record --
//! --nocapture`; the debug profile printed the same bits.
//!
//! One deliberate move since: the BSP run's three hashed constants. The
//! simulated BSP engine now applies the decode plan to `B` and folds each
//! partition once, `Σ_j (Σ_w a_w B_wj) g_j`, where the wrapper encoded
//! every survivor and decoded the coded rows, `Σ_w a_w (Σ_j B_wj g_j)`.
//! The double sum is reassociated, so the final loss moved by 2 ulp
//! (`…cb9c` → `…cb9e`, 2.9e-16 relative) and the parameter and curve
//! hashes with it; the old values are kept beside the new ones. The curve
//! length, the SSP run and `DECODED` did not move: `DECODED` still goes
//! through `encode_into` and the block decode, which the wall-clock
//! master, the perf ledger's probes and the examples still use.
//!
//! The values depend on the vendored `rand` stream (`vendor/rand`: scheme
//! coefficients, straggler choice, parameter init) — a change there moves
//! every constant without any codec being wrong. Nothing else is
//! platform-sensitive: the data is closed-form, the model is
//! `LinearRegression`, and no value passes through libm.

use hetgc::{
    partial_gradients_into, ClusterSpec, CodecBackend, DelayDistribution, DriverConfig,
    EscalationPolicy, GradientBlock, GradientCodec, LinearRegression, Model, SchemeBuilder,
    SchemeKind, Sgd, SimBspEngine, SimSspEngine, SimTrainConfig, StragglerModel, TrainDriver,
};
use hetgc_ml::{Dataset, Targets};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `(scheme, [Exact, Group, Approx])`: folds of the decoded gradient with
/// worker 4 straggling (nobody, for the `s = 0` naive scheme). Only
/// group-based × Group differs within a row: there the intact group
/// `{0, 1, 5}` answers instead of the generic solve.
const DECODED: [(SchemeKind, [u64; 3]); 5] = [
    (SchemeKind::Naive, [0x25ff_ab3b_d747_2aa9; 3]),
    (SchemeKind::Cyclic, [0x2877_fa13_effe_b16d; 3]),
    (SchemeKind::FractionalRepetition, [0x9d14_7b71_138f_d59c; 3]),
    (SchemeKind::HeterAware, [0x6c39_64e9_f97d_0e95; 3]),
    (
        SchemeKind::GroupBased,
        [
            0x6c39_64e9_f97d_0e95,
            0xa254_caff_200a_f424,
            0x6c39_64e9_f97d_0e95,
        ],
    ),
];
const BACKENDS: [CodecBackend; 3] = [
    CodecBackend::Exact,
    CodecBackend::Group,
    CodecBackend::Approx,
];

// Re-recorded when `SimBspEngine` began decoding as `Σ_j (aᵀB)_j · g_j`
// (see the header). The legacy wrapper's values were:
// BSP_FINAL_LOSS_BITS = 0x3f68_494e_b93f_cb9c,
// BSP_PARAMS_FOLD = 0xb22c_7ac9_ff05_3336,
// BSP_CURVE_FOLD = 0xda74_1a91_6a77_7702.
const BSP_FINAL_LOSS_BITS: u64 = 0x3f68_494e_b93f_cb9e;
const BSP_PARAMS_FOLD: u64 = 0x16cc_beaa_4635_269c;
const BSP_CURVE_FOLD: u64 = 0x7e28_3def_a7c0_1250;
const BSP_CURVE_LEN: usize = 25;

const SSP_FINAL_LOSS_BITS: u64 = 0x3f68_4311_94da_0d0d;
const SSP_CURVE_FOLD: u64 = 0x124d_1cc0_a217_b7d1;
const SSP_CURVE_LEN: usize = 38;

/// 3×1 + 2×2 + 1×3 vCPUs: heterogeneous, Eq.-5-feasible for `s = 1`,
/// `(s + 1) | m` for fractional repetition, and its group-based code has
/// the groups `{0, 1, 5}` and `{2, 3, 4}`.
fn cluster() -> ClusterSpec {
    ClusterSpec::from_vcpu_rows("golden", &[(3, 1), (2, 2), (1, 3)], 50.0).unwrap()
}

/// A closed-form regression set: no rng, no libm, and decimal (non-dyadic)
/// values so that every sum rounds and operation order shows in the bits.
fn dataset(n: usize, dim: usize) -> Dataset {
    let x: Vec<f64> = (0..n * dim)
        .map(|t| ((t * 7 + 3) % 31) as f64 / 10.0 - 1.55)
        .collect();
    let y: Vec<f64> = (0..n)
        .map(|i| {
            let signal: f64 = x[i * dim..(i + 1) * dim]
                .iter()
                .enumerate()
                .map(|(j, v)| (j as f64 + 1.0) * 0.3 * v)
                .sum();
            signal + ((i % 5) as f64 - 2.0) / 70.0
        })
        .collect();
    Dataset::new(x, Targets::Regression(y), dim)
}

/// Order-sensitive 64-bit fold of the exact bit patterns.
fn fold(values: impl IntoIterator<Item = f64>) -> u64 {
    values.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        let h = (h ^ v.to_bits()).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^ (h >> 32)
    })
}

fn curve_fold(points: &[(f64, f64)]) -> u64 {
    fold(points.iter().flat_map(|&(t, l)| [t, l]))
}

#[test]
fn decoded_gradients_match_recorded_legacy_decode() {
    let cluster = cluster();
    let model = LinearRegression::new(3);
    let params: Vec<f64> = (0..model.num_params())
        .map(|t| (t as f64 - 1.0) / 7.0)
        .collect();
    for (kind, golden) in DECODED {
        let scheme = SchemeBuilder::new(&cluster, 1)
            .build(kind, &mut StdRng::seed_from_u64(21))
            .unwrap();
        for (backend, golden) in BACKENDS.into_iter().zip(golden) {
            let codec = scheme.compile_backend(backend).unwrap();
            let (m, k) = (codec.workers(), codec.partitions());
            let data = dataset(k * 3, 3);
            let ranges: Vec<(usize, usize)> = (0..k).map(|j| (j * 3, (j + 1) * 3)).collect();
            let mut partials = GradientBlock::new(0, 0);
            partial_gradients_into(&model, &params, &data, &ranges, &mut partials);
            let survivors: Vec<usize> = (0..m)
                .filter(|&w| scheme.stragglers() == 0 || w != 4)
                .collect();
            let mut arrivals = GradientBlock::new(m, model.num_params());
            for &w in &survivors {
                codec
                    .encode_into(w, &partials, arrivals.row_mut(w))
                    .unwrap();
            }
            let mut out = vec![f64::NAN; model.num_params()];
            codec
                .decode_plan(&survivors)
                .unwrap()
                .apply_block_into(&arrivals, &mut out)
                .unwrap();
            assert_eq!(
                fold(out.iter().copied()),
                golden,
                "{kind}/{backend}: decoded {out:?}"
            );
        }
    }
}

#[test]
fn bsp_driver_run_matches_recorded_wrapper_run() {
    let cluster = cluster();
    let rates = cluster.throughputs();
    let data = dataset(80, 3);
    let model = LinearRegression::new(3);
    let scheme = SchemeBuilder::new(&cluster, 1)
        .build(SchemeKind::HeterAware, &mut StdRng::seed_from_u64(22))
        .unwrap();
    let cfg = SimTrainConfig {
        iterations: 25,
        learning_rate: 0.2,
        stragglers: StragglerModel::RandomChoice {
            count: 1,
            delay: DelayDistribution::Constant(1.0),
        },
        ..Default::default()
    };
    let policy = EscalationPolicy::follow_backend();
    let mut engine = SimBspEngine::new(&scheme, &model, &data, &rates, &cfg, policy).unwrap();
    let out = TrainDriver::new(&model, &data, Sgd::new(cfg.learning_rate))
        .with_config(DriverConfig {
            residual_step_scaling: false,
            ..DriverConfig::default()
        })
        .run(&mut engine, cfg.iterations, &mut StdRng::seed_from_u64(23))
        .unwrap();
    assert!(!out.stalled);
    assert_eq!(out.curve.points.len(), BSP_CURVE_LEN);
    assert_eq!(out.final_loss().unwrap().to_bits(), BSP_FINAL_LOSS_BITS);
    assert_eq!(fold(out.params.iter().copied()), BSP_PARAMS_FOLD);
    assert_eq!(curve_fold(&out.curve.points), BSP_CURVE_FOLD);
}

#[test]
fn ssp_driver_run_matches_recorded_wrapper_run() {
    let cluster = cluster();
    let rates = cluster.throughputs();
    let data = dataset(80, 3);
    let model = LinearRegression::new(3);
    let cfg = SimTrainConfig {
        iterations: 25,
        learning_rate: 0.2,
        eval_every: 4,
        ..Default::default()
    };
    let mut engine = SimSspEngine::shard(&model, &data, &rates, 3, &cfg).unwrap();
    let out = TrainDriver::new(&model, &data, Sgd::new(cfg.learning_rate))
        .with_config(DriverConfig {
            eval_every: cfg.eval_every,
            residual_step_scaling: false,
            ..DriverConfig::default()
        })
        .run(
            &mut engine,
            cfg.iterations * rates.len(),
            &mut StdRng::seed_from_u64(24),
        )
        .unwrap();
    assert!(!out.stalled);
    assert_eq!(out.curve.points.len(), SSP_CURVE_LEN);
    assert_eq!(out.final_loss().unwrap().to_bits(), SSP_FINAL_LOSS_BITS);
    assert_eq!(curve_fold(&out.curve.points), SSP_CURVE_FOLD);
}
