//! Cross-crate integration: the full encode → straggle → decode → SGD
//! pipeline recovers exact gradients across schemes, models and backends.

use hetgc::{
    ClusterSpec, GradientBlock, GradientCodec, Mlp, Model, SchemeBuilder, SchemeKind,
    SoftmaxRegression,
};
use hetgc_cluster::PartitionAssignment;
use hetgc_coding::DecodePlan;
use hetgc_ml::{partial_gradients_into, synthetic};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// For every scheme and every straggler pattern of size ≤ s, the decoded
/// gradient equals the direct full-batch gradient of a real model.
#[test]
fn decoded_gradient_exact_for_all_single_straggler_patterns() {
    let cluster = ClusterSpec::cluster_a();
    let mut rng = StdRng::seed_from_u64(1);
    let data = synthetic::gaussian_blobs(96, 4, 3, 4.0, &mut rng);
    let model = SoftmaxRegression::new(4, 3);
    let params = model.init_params(&mut rng);
    let direct = model.gradient(&params, &data, (0, data.len()));

    for kind in [
        SchemeKind::Cyclic,
        SchemeKind::HeterAware,
        SchemeKind::GroupBased,
    ] {
        let scheme = SchemeBuilder::new(&cluster, 1)
            .build(kind, &mut rng)
            .unwrap();
        let codec = scheme.compile();
        let k = codec.partitions();
        let assignment = PartitionAssignment::even(data.len(), k).unwrap();
        let ranges: Vec<(usize, usize)> = assignment.iter().collect();
        let mut partials = GradientBlock::new(0, 0);
        partial_gradients_into(&model, &params, &data, &ranges, &mut partials);

        let mut arrivals = GradientBlock::new(cluster.len(), model.num_params());
        let mut decoded = vec![0.0; model.num_params()];
        for straggler in 0..cluster.len() {
            let survivors: Vec<usize> = (0..cluster.len()).filter(|&w| w != straggler).collect();
            let plan = codec
                .decode_plan(&survivors)
                .unwrap_or_else(|e| panic!("{kind}: pattern {straggler}: {e}"));
            for &w in &survivors {
                codec
                    .encode_into(w, &partials, arrivals.row_mut(w))
                    .unwrap();
            }
            plan.apply_block_into(&arrivals, &mut decoded).unwrap();
            let err = decoded
                .iter()
                .zip(&direct)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0_f64, f64::max);
            assert!(err < 1e-6, "{kind}: straggler {straggler}: max err {err}");
        }
    }
}

/// Two simultaneous stragglers with an s = 2 design, nonconvex model.
#[test]
fn decoded_gradient_exact_with_two_stragglers_mlp() {
    let cluster = ClusterSpec::cluster_a();
    let mut rng = StdRng::seed_from_u64(2);
    let data = synthetic::image_like(120, 12, 4, &mut rng);
    let model = Mlp::new(12, 8, 4);
    let params = model.init_params(&mut rng);
    let direct = model.gradient(&params, &data, (0, data.len()));

    let scheme = SchemeBuilder::new(&cluster, 2)
        .build(SchemeKind::HeterAware, &mut rng)
        .unwrap();
    let codec = scheme.compile();
    let assignment = PartitionAssignment::even(data.len(), codec.partitions()).unwrap();
    let ranges: Vec<(usize, usize)> = assignment.iter().collect();
    let mut partials = GradientBlock::new(0, 0);
    partial_gradients_into(&model, &params, &data, &ranges, &mut partials);

    // Random double-straggler patterns (repeats exercise the plan cache).
    let mut workers: Vec<usize> = (0..cluster.len()).collect();
    let mut arrivals = GradientBlock::new(cluster.len(), model.num_params());
    let mut decoded = vec![0.0; model.num_params()];
    for _ in 0..12 {
        workers.shuffle(&mut rng);
        let mut survivors = workers[2..].to_vec();
        survivors.sort_unstable();
        let plan = codec.decode_plan(&survivors).unwrap();
        for &w in plan.workers() {
            codec
                .encode_into(w, &partials, arrivals.row_mut(w))
                .unwrap();
        }
        plan.apply_block_into(&arrivals, &mut decoded).unwrap();
        let err = decoded
            .iter()
            .zip(&direct)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0_f64, f64::max);
        let scale = direct.iter().map(|x| x.abs()).fold(1.0_f64, f64::max);
        assert!(err < 1e-6 * scale, "survivors {survivors:?}: max err {err}");
    }
}

/// Group-based decoding via an intact group gives the same gradient as the
/// generic decode path.
#[test]
fn group_decode_agrees_with_generic_decode() {
    let mut rng = StdRng::seed_from_u64(3);
    let throughputs = [1.0, 1.0, 1.0, 1.0];
    let g = hetgc::group_based(&throughputs, 4, 1, &mut rng).unwrap();
    assert!(!g.groups().is_empty());

    let data = synthetic::linear_regression(40, 3, 0.1, &mut rng);
    let model = hetgc::LinearRegression::new(3);
    let params = model.init_params(&mut rng);
    let direct = model.gradient(&params, &data, (0, data.len()));

    let assignment = PartitionAssignment::even(40, 4).unwrap();
    let ranges: Vec<(usize, usize)> = assignment.iter().collect();
    let mut partials = GradientBlock::new(0, 0);
    partial_gradients_into(&model, &params, &data, &ranges, &mut partials);

    let group = &g.groups()[0];
    let survivors: Vec<usize> = group.workers().to_vec();
    let a = g.group_decode_vector(&survivors).expect("group intact");
    let plan = DecodePlan::from_dense(&a);
    let mut arrivals = GradientBlock::new(4, model.num_params());
    for &w in &survivors {
        g.code()
            .encode_into(w, &partials, arrivals.row_mut(w))
            .unwrap();
    }
    let mut decoded = vec![0.0; model.num_params()];
    plan.apply_block_into(&arrivals, &mut decoded).unwrap();
    for (x, y) in decoded.iter().zip(&direct) {
        assert!((x - y).abs() < 1e-8, "{x} vs {y}");
    }
}

/// The full Table II inventory builds every paper scheme and verifies C1
/// by sampling (exhaustive blows up at m = 58).
#[test]
fn all_clusters_all_schemes_robust() {
    let mut rng = StdRng::seed_from_u64(4);
    for cluster in ClusterSpec::table2() {
        for kind in [
            SchemeKind::Cyclic,
            SchemeKind::HeterAware,
            SchemeKind::GroupBased,
        ] {
            let scheme = SchemeBuilder::new(&cluster, 1)
                .build(kind, &mut rng)
                .unwrap_or_else(|e| panic!("{} {kind}: {e}", cluster.name()));
            hetgc_coding::verify_condition_c1_sampled(&scheme.code, 25, &mut rng)
                .unwrap_or_else(|e| panic!("{} {kind}: {e}", cluster.name()));
        }
    }
}
