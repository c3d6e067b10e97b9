//! Why the group-based scheme exists (§V of the paper): when throughput
//! estimates are noisy, the heter-aware allocation is no longer perfectly
//! balanced and the master still needs `m − s` generic rows to decode —
//! but a *group* (disjoint exact cover) decodes as soon as its members
//! report. This example sweeps estimation noise and reports how many
//! results the master had to wait for, and the resulting iteration times.
//!
//! ```text
//! cargo run --release --example estimation_noise
//! ```

use hetgc::experiment::run_timing;
use hetgc::{
    ClusterSpec, EstimationNoise, NetworkModel, SchemeBuilder, SchemeKind, StragglerModel,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    let cluster = ClusterSpec::cluster_a();
    let rates = cluster.throughputs();
    let samples = 48;

    println!(
        "Cluster-A, s = 1, no injected stragglers; sweeping throughput-estimation noise.\n\
         avg iteration time (s):\n"
    );
    println!(
        "{:>8}  {:>12}  {:>12}",
        "noise", "heter-aware", "group-based"
    );

    for sigma in [0.0, 0.05, 0.10, 0.20, 0.40] {
        let mut rng = StdRng::seed_from_u64(100 + (sigma * 100.0) as u64);
        let estimates = EstimationNoise::new(sigma).apply(&rates, &mut rng);
        let builder = SchemeBuilder::new(&cluster, 1).estimates(estimates);

        let mut row = format!("{:>7.0}%", sigma * 100.0);
        for kind in [SchemeKind::HeterAware, SchemeKind::GroupBased] {
            let scheme = builder.build(kind, &mut rng)?;
            let run = run_timing(
                &scheme,
                &rates,
                samples,
                &StragglerModel::None,
                NetworkModel::lan(),
                4096.0,
                0.05, // runtime jitter: the "tiny fluctuation" of §V
                60,
                &mut rng,
            )?;
            row.push_str(&format!(
                "  {:>12.3}",
                run.mean_round_seconds().unwrap_or(f64::NAN)
            ));
        }
        println!("{row}");
    }

    println!(
        "\nWith exact estimates both schemes sit at the Theorem-5 optimum; as the\n\
         estimates degrade, the group-based scheme's early group decodes blunt the\n\
         imbalance, so its curve stays flatter (the paper's motivation for Alg. 2/3)."
    );
    Ok(())
}
