//! Fault tolerance: run simulated distributed training on Cluster-A while
//! workers die mid-run, and show that (a) coded schemes keep training with
//! the exact gradient and (b) the naive scheme stalls — the paper's
//! "delay = ∞" case of Fig. 2. Then push past the design budget and let
//! the per-round escalation ladder rescue the run with bounded-error
//! decodes and residual-scaled steps.
//!
//! ```text
//! cargo run --release --example fault_tolerance
//! ```

use hetgc::{
    ClusterSpec, CodecBackend, EscalationPolicy, LinearRegression, SchemeBuilder, SchemeKind, Sgd,
    SimBspEngine, SimTrainConfig, StragglerModel, TrainDriver,
};
use hetgc_ml::synthetic;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    let cluster = ClusterSpec::cluster_a();
    let rates = cluster.throughputs();
    let mut rng = StdRng::seed_from_u64(7);
    let data = synthetic::linear_regression(480, 8, 0.05, &mut rng);
    let model = LinearRegression::new(8);

    // Two workers die: the 12-vCPU node and an 8-vCPU node (the worst case
    // for schemes that leaned on fast machines).
    let faults = StragglerModel::Failures {
        workers: vec![7, 4],
    };
    let cfg = SimTrainConfig {
        iterations: 25,
        learning_rate: 0.3,
        stragglers: faults,
        ..SimTrainConfig::default()
    };

    println!("Cluster-A with workers 4 and 7 dead (s = 2 designed tolerance):\n");
    for kind in SchemeKind::PAPER {
        let scheme = SchemeBuilder::new(&cluster, 2).build(kind, &mut rng)?;
        let mut engine = SimBspEngine::new(
            &scheme,
            &model,
            &data,
            &rates,
            &cfg,
            EscalationPolicy::follow_backend(),
        )?;
        let out = TrainDriver::new(&model, &data, Sgd::new(cfg.learning_rate)).run(
            &mut engine,
            cfg.iterations,
            &mut rng,
        )?;
        if out.stalled {
            println!(
                "{:>12}: STALLED after {} iteration(s) — cannot tolerate faults",
                kind.name(),
                out.rounds()
            );
        } else {
            println!(
                "{:>12}: finished 25 iterations in {:.1} simulated s, final loss {:.4}",
                kind.name(),
                out.curve.duration(),
                out.final_loss().unwrap_or(f64::NAN)
            );
        }
    }

    println!(
        "\nThe coded schemes decode the *exact* batch gradient from the surviving\n\
         workers every iteration (verified internally against the direct gradient),\n\
         so convergence is identical to fault-free training — only wall-clock\n\
         changes. The naive scheme never completes its first iteration."
    );

    // Past the design budget: THREE workers die with s = 2. Exact decoding
    // is impossible — but the escalation ladder keeps training on
    // bounded-error least-squares decodes, shrinking the step by the
    // decode residual's error bound.
    println!("\nCluster-A with workers 4, 6 and 7 dead (one beyond the s = 2 budget —\nevery replica of some partitions is gone, so no exact decode exists):\n");
    let overload = StragglerModel::Failures {
        workers: vec![7, 6, 4],
    };
    let scheme = SchemeBuilder::new(&cluster, 2).build(SchemeKind::HeterAware, &mut rng)?;
    for (label, backend) in [
        ("exact-only", CodecBackend::Exact),
        ("escalated", CodecBackend::Approx),
    ] {
        let cfg = SimTrainConfig {
            iterations: 25,
            learning_rate: 0.3,
            stragglers: overload.clone(),
            backend,
            ..SimTrainConfig::default()
        };
        let policy = EscalationPolicy::follow_backend();
        let mut engine = SimBspEngine::new(&scheme, &model, &data, &rates, &cfg, policy)?;
        let out = TrainDriver::new(&model, &data, Sgd::new(cfg.learning_rate)).run(
            &mut engine,
            cfg.iterations,
            &mut rng,
        )?;
        if out.stalled {
            println!("{label:>12}: STALLED — 3 stragglers exceed s = 2");
        } else {
            let scale = out
                .records
                .first()
                .map(|r| r.step_scale)
                .unwrap_or(f64::NAN);
            println!(
                "{label:>12}: finished 25 iterations ({} approximate, step scaled ×{:.3}), final loss {:.4}",
                out.approx_rounds(),
                scale,
                out.final_loss().unwrap_or(f64::NAN)
            );
        }
    }
    println!(
        "\nThe escalation ladder trades a bounded gradient error (reported as the\n\
         decode residual, with the learning rate shrunk by the error bound) for\n\
         liveness: training continues where every exact scheme gives up."
    );
    Ok(())
}
