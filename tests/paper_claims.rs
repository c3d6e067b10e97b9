//! The paper's headline claims, asserted as integration tests. Each test
//! names the claim and the section it comes from.

use hetgc::analysis::{optimality_ratio, theorem5_lower_bound};
use hetgc::experiment::{fig2, fig5, Fig2Config, Fig5Config};
use hetgc::{ClusterSpec, SchemeBuilder, SchemeKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Theorem 5 (§IV-B): the heter-aware strategy attains the lower bound
/// `(s+1)k/Σc` exactly when Eq. 5 is integral — on Cluster-A itself.
#[test]
fn theorem5_holds_on_cluster_a() {
    let cluster = ClusterSpec::cluster_a();
    let c = cluster.throughputs();
    let mut rng = StdRng::seed_from_u64(1);
    for s in [1usize, 2] {
        let scheme = SchemeBuilder::new(&cluster, s)
            .build(SchemeKind::HeterAware, &mut rng)
            .unwrap();
        let ratio = optimality_ratio(&scheme.code, &c).unwrap();
        assert!((ratio - 1.0).abs() < 1e-9, "s={s}: ratio {ratio}");
    }
}

/// §I / §VI-A-1: "our heter-aware coding scheme even achieves 3× speedup
/// compared to cyclic coding scheme" in the fault case. We require ≥ 2.5×
/// (the exact factor depends on the vCPU mix).
#[test]
fn fault_case_speedup_approx_3x() {
    let cfg = Fig2Config {
        delays: vec![0.0],
        include_fault: true,
        iterations: 12,
        ..Fig2Config::default()
    };
    let rows = fig2(&cfg).unwrap();
    let fault = rows
        .iter()
        .find(|r| r.delay.is_infinite())
        .expect("fault row");
    let get = |kind: SchemeKind| {
        fault
            .avg_times
            .iter()
            .find(|(k, _)| *k == kind)
            .and_then(|(_, t)| *t)
    };
    let cyclic = get(SchemeKind::Cyclic).expect("cyclic survives faults");
    let heter = get(SchemeKind::HeterAware).expect("heter survives faults");
    let speedup = cyclic / heter;
    assert!(
        speedup > 2.5,
        "expected ≈3x speedup of heter-aware over cyclic at fault, got {speedup:.2}x"
    );
    assert!(
        get(SchemeKind::Naive).is_none(),
        "naive must fail under faults"
    );
}

/// Fig. 2's delay insensitivity: heter-aware and group-based average
/// iteration times move by < 10 % between no delay and a 10 s delay, while
/// naive grows by multiple seconds.
#[test]
fn coded_schemes_are_delay_insensitive() {
    let cfg = Fig2Config {
        delays: vec![0.0, 10.0],
        include_fault: false,
        iterations: 15,
        ..Fig2Config::default()
    };
    let rows = fig2(&cfg).unwrap();
    let get = |row: usize, kind: SchemeKind| {
        rows[row]
            .avg_times
            .iter()
            .find(|(k, _)| *k == kind)
            .unwrap()
            .1
            .unwrap()
    };
    for kind in [SchemeKind::HeterAware, SchemeKind::GroupBased] {
        let (t0, t10) = (get(0, kind), get(1, kind));
        assert!(
            (t10 - t0).abs() / t0 < 0.10,
            "{kind} moved {t0:.2} → {t10:.2} under 10s delays"
        );
    }
    let (n0, n10) = (get(0, SchemeKind::Naive), get(1, SchemeKind::Naive));
    assert!(
        n10 > n0 + 4.0,
        "naive must absorb the delay: {n0:.2} → {n10:.2}"
    );
}

/// §VI-A-2: "traditional cyclic coding scheme even makes performance worse
/// [than naive]" on heterogeneous clusters — the uniform 2× load lands on
/// the slowest machines.
#[test]
fn cyclic_worse_than_naive_without_stragglers() {
    // With no transient stragglers the effect is purely heterogeneity.
    let cluster = ClusterSpec::cluster_b();
    let c = cluster.throughputs();
    let mut rng = StdRng::seed_from_u64(3);
    let cyclic = SchemeBuilder::new(&cluster, 1)
        .build(SchemeKind::Cyclic, &mut rng)
        .unwrap();
    let naive = SchemeBuilder::new(&cluster, 1)
        .build(SchemeKind::Naive, &mut rng)
        .unwrap();
    // Deterministic completion-time comparison at equal dataset size:
    // per-partition work = N/k differs per scheme, so compare normalized
    // worst-case times × (N/k).
    let n = 1000.0;
    let t_cyclic = cyclic.code.worst_case_time(&c).unwrap() * n / cyclic.code.partitions() as f64;
    let t_naive = naive.code.worst_case_time(&c).unwrap() * n / naive.code.partitions() as f64;
    assert!(
        t_cyclic > t_naive,
        "cyclic ({t_cyclic:.2}) should be slower than naive ({t_naive:.2}) on Cluster-B"
    );
}

/// Fig. 5's ordering: naive < cyclic < heter-aware ≈ group-based in
/// resource usage.
#[test]
fn resource_usage_ordering_matches_fig5() {
    let cfg = Fig5Config {
        iterations: 20,
        ..Fig5Config::default()
    };
    let rows = fig5(&cfg).unwrap();
    let get = |kind: SchemeKind| {
        rows.iter()
            .find(|r| r.scheme == kind)
            .unwrap()
            .usage
            .unwrap()
    };
    assert!(get(SchemeKind::Naive) < get(SchemeKind::Cyclic));
    assert!(get(SchemeKind::Cyclic) < get(SchemeKind::HeterAware));
    assert!(get(SchemeKind::Cyclic) < get(SchemeKind::GroupBased));
}

/// Lemma 2's consequence: Alg.-1 strategies decode from exactly m − s
/// workers; group-based strategies can decode from a strict subset when a
/// group is intact (§V's |A| reduction).
#[test]
fn group_based_decodes_from_fewer_workers() {
    let mut rng = StdRng::seed_from_u64(5);
    // Homogeneous 6-worker cluster, k = 6, s = 1: arcs of 2 tile the
    // circle, so groups of 3 workers exist.
    let throughputs = [1.0; 6];
    let group = hetgc::group_based(&throughputs, 6, 1, &mut rng).unwrap();
    assert!(!group.groups().is_empty());

    let order: Vec<usize> = group.groups()[0].workers().to_vec();
    let group_prefix = hetgc_coding::decodable_prefix_len(group.code(), &order).unwrap();
    assert!(group_prefix <= order.len());
    assert!(
        group_prefix < 5,
        "group decode should beat m−s = 5, got {group_prefix}"
    );

    // On a *heterogeneous* allocation with distinct replica sets, Alg. 1
    // needs exactly m − s workers (Example 1 of the paper). (Homogeneous
    // arcs that tile the circle give several partitions identical replica
    // sets, so the code degenerates into a repetition code and can decode
    // earlier — that case is covered by the group assertions above.)
    let heter = hetgc::heter_aware(&[1.0, 2.0, 3.0, 4.0, 4.0], 7, 1, &mut rng).unwrap();
    let full_order: Vec<usize> = (0..5).collect();
    let heter_prefix = hetgc_coding::decodable_prefix_len(&heter, &full_order).unwrap();
    assert_eq!(heter_prefix, 4, "Alg.1 decodes at exactly m−s");
}

/// The bound itself: no replication-(s+1) scheme can beat (s+1)k/Σc — the
/// cyclic and fractional baselines respect it too.
#[test]
fn no_scheme_beats_theorem5_bound() {
    let mut rng = StdRng::seed_from_u64(6);
    let c = [2.0, 2.0, 4.0, 4.0, 8.0, 8.0];
    for (label, code) in [
        ("cyclic", hetgc::cyclic(6, 1, &mut rng).unwrap()),
        (
            "frac",
            hetgc_coding::fractional_repetition(6, 6, 1).unwrap(),
        ),
        ("heter", hetgc::heter_aware(&c, 7, 1, &mut rng).unwrap()),
    ] {
        let t = code.worst_case_time(&c).unwrap();
        let bound = theorem5_lower_bound(code.partitions(), code.stragglers(), &c);
        assert!(t >= bound - 1e-9, "{label}: T(B)={t} < bound {bound}");
    }
}
