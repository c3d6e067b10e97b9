//! Ablations over the design choices DESIGN.md calls out — three studies
//! beyond the paper's own figures:
//!
//! 1. **Communication overlap** (the paper's \[42\] suggestion for its ~50 %
//!    resource-usage ceiling): sweep the number of pipelined gradient
//!    chunks and watch usage climb.
//! 2. **Adaptive re-estimation** (our extension): static vs re-estimated
//!    coding under worker-speed drift — including the case where the
//!    static code wins because the drift fits the straggler budget.
//! 3. **Replication factor** (approximate coding): the exact-tolerance /
//!    load tradeoff of r ∈ {1..s+1} replicas, with the residual bound of
//!    the approximate decoder.
//!
//! ```text
//! cargo run --release -p hetgc-bench --bin ablation
//! ```

use hetgc::adaptive::{compare_static_vs_adaptive, AdaptiveConfig};
use hetgc::report::{fmt_percent, render_table};
use hetgc::RateDrift;
use hetgc::{
    approximate_decode, simulate_bsp_iteration, under_replicated, BspIterationConfig, ClusterSpec,
    NetworkModel, ResourceUsage, SchemeBuilder, SchemeKind, StragglerModel,
};
use hetgc_bench::arg_or;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn overlap_study(iterations: usize, seed: u64) {
    println!("── ablation 1: communication/computation overlap (Poseidon-style [42]) ──\n");
    let cluster = ClusterSpec::cluster_a();
    let rates = cluster.throughputs();
    let mut rng = StdRng::seed_from_u64(seed);
    let scheme = SchemeBuilder::new(&cluster, 1)
        .build(SchemeKind::HeterAware, &mut rng)
        .expect("scheme");
    let k = scheme.code.partitions();

    let mut rows = Vec::new();
    for chunks in [1usize, 2, 4, 8, 16] {
        let cfg = BspIterationConfig::new(&rates)
            .work_per_partition(48.0 / k as f64)
            .network(NetworkModel::lan())
            .payload_bytes(2.4e8) // AlexNet-scale gradient
            .compute_jitter(0.05)
            .overlap_chunks(chunks);
        let (mut times, mut usage) = (Vec::new(), ResourceUsage::default());
        for _ in 0..iterations {
            let events = StragglerModel::None.sample_iteration(cluster.len(), &mut rng);
            let out =
                simulate_bsp_iteration(&scheme.code, &cfg, &events, &mut rng).expect("simulate");
            if let Some(t) = out.completion {
                times.push(t);
                usage.record(t, out.busy.iter().sum(), out.busy.len());
            }
        }
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        rows.push(vec![
            chunks.to_string(),
            format!("{mean:.3}"),
            fmt_percent(usage.ratio()),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["pipelined chunks", "avg time/iter (s)", "resource usage"],
            &rows
        )
    );
}

fn adaptive_study(seed: u64) {
    println!("── ablation 2: adaptive re-estimation under worker-speed drift ──\n");
    let cluster = ClusterSpec::from_vcpu_rows("drift", &[(1, 2), (1, 3), (1, 4), (1, 5)], 10.0)
        .expect("cluster");
    let scenarios: Vec<(&str, RateDrift)> = vec![
        ("no drift", RateDrift::None),
        (
            "1 worker -70% (fits s=1 budget)",
            RateDrift::StepChange {
                at: 15,
                factors: vec![1.0, 1.0, 1.0, 0.3],
            },
        ),
        (
            "2 workers -70% (exceeds budget)",
            RateDrift::StepChange {
                at: 15,
                factors: vec![1.0, 1.0, 0.3, 0.3],
            },
        ),
        (
            "wave ±40%",
            RateDrift::Wave {
                period: 12.0,
                amplitude: 0.4,
            },
        ),
    ];
    let mut rows = Vec::new();
    for (label, drift) in scenarios {
        let cfg = AdaptiveConfig {
            iterations: 60,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let (static_run, adaptive_run) =
            compare_static_vs_adaptive(&cluster, &drift, &cfg, &mut rng).expect("runs");
        let ts = static_run.mean_round_seconds().unwrap_or(f64::NAN);
        let ta = adaptive_run.mean_round_seconds().unwrap_or(f64::NAN);
        let rebuilds = adaptive_run.adaptation.map_or(0, |a| a.recodes());
        rows.push(vec![
            label.to_owned(),
            format!("{ts:.3}"),
            format!("{ta:.3}"),
            format!("{:.2}x", ts / ta),
            rebuilds.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "drift scenario",
                "static (s)",
                "adaptive (s)",
                "speedup",
                "rebuilds"
            ],
            &rows
        )
    );
    println!(
        "note: when the drift fits the straggler budget the static code absorbs it\n\
         for free (the slowed worker just becomes 'the straggler'), so adaptive\n\
         re-balancing only pays off once drift exceeds s workers.\n"
    );
}

fn replication_study(seed: u64) {
    println!("── ablation 3: replication factor r (exact ↔ approximate tradeoff) ──\n");
    let throughputs = [1.0, 2.0, 3.0, 4.0, 4.0];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = Vec::new();
    for r in [1usize, 2, 3] {
        let code = under_replicated(&throughputs, 7, r, &mut rng).expect("construct");
        let total_load: usize = (0..5).map(|w| code.load_of(w)).sum();
        // Residual when one more worker than the design tolerates is lost:
        // drop the r slowest-loaded workers.
        let survivors: Vec<usize> = (r..5).collect();
        let approx = approximate_decode(&code, &survivors).expect("decode");
        rows.push(vec![
            r.to_string(),
            (r - 1).to_string(),
            total_load.to_string(),
            format!("{:.4}", approx.residual),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "replicas r",
                "exact tolerance",
                "total partition copies",
                "residual @ r stragglers"
            ],
            &rows
        )
    );
    println!(
        "r = s+1 restores the paper's exact scheme; smaller r trades gradient\n\
         exactness (bounded by the residual) for proportionally less compute."
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let iterations = arg_or(&args, "--iterations", 30usize);
    let seed = arg_or(&args, "--seed", 4242u64);
    overlap_study(iterations, seed);
    adaptive_study(seed);
    replication_study(seed);
}
