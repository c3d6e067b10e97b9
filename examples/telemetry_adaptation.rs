//! The closed heterogeneity loop, live: real SGD training on a drifting
//! cluster, static allocation vs the `hetgc-telemetry` adaptation loop
//! (arrival-history telemetry → drift detection → re-coding + learned
//! escalation deadline).
//!
//! ```text
//! cargo run --release --example telemetry_adaptation
//! ```

use hetgc::{
    synthetic, AdaptationConfig, ClusterSpec, DriverConfig, EscalationPolicy, IterationTrace,
    LinearRegression, RateDrift, SchemeBuilder, SchemeKind, Sgd, SimBspEngine, SimTrainConfig,
    StragglerEvent, TrainDriver, TrainOutcome,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn run(
    cluster: &ClusterSpec,
    drift: &RateDrift,
    adaptation: Option<AdaptationConfig>,
    seed: u64,
) -> Result<TrainOutcome, Box<dyn std::error::Error + Send + Sync>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = synthetic::linear_regression(96, 3, 0.01, &mut rng);
    let model = LinearRegression::new(3);
    let scheme = SchemeBuilder::new(cluster, 1).build(SchemeKind::HeterAware, &mut rng)?;
    let cfg = SimTrainConfig {
        compute_jitter: 0.03,
        ..SimTrainConfig::default()
    };
    let mut engine = SimBspEngine::new(
        &scheme,
        &model,
        &data,
        &cluster.throughputs(),
        &cfg,
        EscalationPolicy::follow_backend(),
    )?
    .with_drift(drift.clone());
    TrainDriver::new(&model, &data, Sgd::new(0.2))
        .with_config(DriverConfig {
            adaptation,
            ..DriverConfig::default()
        })
        .run(&mut engine, 60, &mut rng)
}

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    let cluster = ClusterSpec::from_vcpu_rows("demo", &[(1, 2), (1, 3), (1, 4), (1, 5)], 10.0)?;
    println!(
        "4-worker cluster ({} units/s total); at round 16, workers 2 and 3\n\
         lose 70% of their speed (a noisy neighbour arrives). Real SGD, 60 rounds.\n",
        cluster.total_throughput()
    );
    let drift = RateDrift::StepChange {
        at: 15,
        factors: vec![1.0, 1.0, 0.3, 0.3],
    };

    let static_out = run(&cluster, &drift, None, 11)?;
    let adaptive_out = run(&cluster, &drift, Some(AdaptationConfig::default()), 11)?;

    let ts = static_out.mean_round_seconds().unwrap_or(f64::NAN);
    let ta = adaptive_out.mean_round_seconds().unwrap_or(f64::NAN);
    let report = adaptive_out.adaptation.as_ref().expect("adaptation on");
    println!(
        "static   (allocation never revisited): {ts:.3} s/round, final loss {:.5}",
        static_out.final_loss().unwrap_or(f64::NAN)
    );
    println!(
        "adaptive (telemetry loop):             {ta:.3} s/round, final loss {:.5}  ({:.2}x)",
        adaptive_out.final_loss().unwrap_or(f64::NAN),
        ts / ta
    );
    println!(
        "\nadaptation report: {} re-code(s) at rounds {:?}, {} rejected,\n\
         drift first flagged at rounds {:?}, learned escalation deadline: {}",
        report.recodes(),
        report.recode_rounds,
        report.recode_failures,
        report.drift_rounds,
        report
            .learned_deadline
            .map_or("-".to_owned(), |d| format!("{d:.3} s (p90 est. × 1.25)")),
    );

    // Annotated round trace: one post-drift round rendered with the
    // learned deadline and the re-code event on the timeline.
    if let (Some(&recode_round), Some(deadline)) =
        (report.recode_rounds.first(), report.learned_deadline)
    {
        let mut rng = StdRng::seed_from_u64(3);
        let scheme = SchemeBuilder::new(&cluster, 1).build(SchemeKind::HeterAware, &mut rng)?;
        let codec = scheme.compile();
        let rates = drift.rates_at(&cluster.throughputs(), recode_round);
        let sim = hetgc::BspIterationConfig::new(&rates).work_per_partition(96.0 / 12.0);
        let events = vec![StragglerEvent::Normal; cluster.len()];
        let it = hetgc::simulate_bsp_iteration(&codec, &sim, &events, &mut rng)?;
        println!("\nthe round that triggered the re-code, annotated:\n");
        let mut trace = IterationTrace::new(&it);
        // The deadline only fires in a round still undecoded when it passes.
        if it.completion.is_none_or(|t| deadline < t) {
            trace = trace.with_deadline(deadline, "p90 est.", "escalation ladder consulted");
        }
        print!(
            "{}",
            trace
                .with_note(
                    it.completion.unwrap_or(deadline),
                    format!(
                        "re-code: new allocation installed (drift on workers {:?})",
                        [2, 3]
                    ),
                )
                .render()
        );
    }
    Ok(())
}
