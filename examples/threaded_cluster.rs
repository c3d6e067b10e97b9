//! Real threads, real wall-clock: run coded distributed SGD on actual OS
//! threads (one per worker) through the unified `TrainDriver` loop, with
//! rate throttling emulating a 4-node heterogeneous cluster, an injected
//! straggler *and* a mid-run fault, and per-round records to show what
//! the master decided.
//!
//! ```text
//! cargo run --release --example threaded_cluster
//! ```

use std::sync::Arc;
use std::time::Duration;

use hetgc::{
    heter_aware, naive, EscalationPolicy, LinearRegression, RuntimeConfig, Sgd, ThreadedEngine,
    TrainDriver, WorkerBehavior,
};
use hetgc_ml::synthetic;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    let mut rng = StdRng::seed_from_u64(3);
    let data = Arc::new(synthetic::linear_regression(400, 6, 0.02, &mut rng));
    let model = Arc::new(LinearRegression::new(6));

    // Four workers emulating 1×/1×/2×/4× machines via sample-rate
    // throttling, worker 1 with an extra 80 ms delay per round, and
    // worker 0 failing outright from iteration 6.
    let throughputs = [1.0, 1.0, 2.0, 4.0];
    let base_rate = 4000.0; // samples/second for a 1× machine
    let config = RuntimeConfig::nominal(4)
        .set_behavior(
            0,
            WorkerBehavior::nominal()
                .with_throttle(base_rate)
                .failing_from(6),
        )
        .set_behavior(
            1,
            WorkerBehavior::nominal()
                .with_throttle(base_rate)
                .with_delay(Duration::from_millis(80)),
        )
        .set_behavior(2, WorkerBehavior::nominal().with_throttle(2.0 * base_rate))
        .set_behavior(3, WorkerBehavior::nominal().with_throttle(4.0 * base_rate))
        .with_escalation(EscalationPolicy::follow_backend().with_deadline(Duration::from_secs(5)));

    let code = heter_aware(&throughputs, 8, 1, &mut rng)?;
    println!("running 12 iterations of coded SGD on 4 real threads…");
    let mut engine = ThreadedEngine::new(code, Arc::clone(&model), Arc::clone(&data), &config)?
        .with_label("heter-aware");
    let started = std::time::Instant::now();
    let out = TrainDriver::new(&*model, &data, Sgd::new(0.3)).run(&mut engine, 12, &mut rng)?;
    println!(
        "heter-aware: {:.2}s wall, avg {:.0} ms/iter, loss {:.5} → {:.5}",
        started.elapsed().as_secs_f64(),
        1000.0 * out.mean_round_seconds().unwrap_or(0.0),
        out.records.first().and_then(|r| r.loss).unwrap_or(f64::NAN),
        out.final_loss().unwrap_or(f64::NAN),
    );
    println!(
        "results used per iteration (worker 0 dies at iter 6): {:?}",
        out.records
            .iter()
            .map(|r| r.results_used)
            .collect::<Vec<_>>()
    );
    println!(
        "captured trajectory (JSON, first 120 chars): {}…",
        &out.to_json()[..120]
    );

    // The naive scheme under the same behaviours: it must wait for the
    // delayed worker every round and *cannot* survive the fault — the
    // round after it is undecodable, and the run ends stalled.
    println!("\nsame cluster, naive scheme…");
    let mut engine =
        ThreadedEngine::new(naive(4)?, Arc::clone(&model), Arc::clone(&data), &config)?
            .with_label("naive");
    let out = TrainDriver::new(&*model, &data, Sgd::new(0.3)).run(&mut engine, 12, &mut rng)?;
    if out.stalled {
        println!(
            "naive stalled as expected: {} undecodable round, {} earlier records kept",
            out.failed_rounds,
            out.rounds()
        );
    } else {
        println!("unexpected: naive survived");
    }
    Ok(())
}
