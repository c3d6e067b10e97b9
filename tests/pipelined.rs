//! Acceptance: the double-buffered `PipelinedDriver` beats the
//! sequential `TrainDriver` wall-clock on the real threaded runtime —
//! asserted, not just benched.
//!
//! The workload is built so both sides are sleep-dominated (deterministic
//! under CI load): workers are throttled to a fixed compute time per
//! round, and the master's per-round work is dominated by a loss
//! evaluation with a fixed cost (a wrapper model that sleeps in `loss`,
//! which only the master calls — workers only ever call `gradient`).
//! Sequential rounds cost `compute + loss`; pipelined rounds overlap the
//! two and cost `max(compute, loss)`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hetgc::{
    heter_aware, synthetic, Dataset, LinearRegression, Model, PipelinedDriver, RuntimeConfig, Sgd,
    ThreadedEngine, TrainDriver, WorkerBehavior,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `LinearRegression` with a fixed master-side evaluation cost: `loss`
/// sleeps before delegating. Workers never call `loss`, so the sleep
/// lands exclusively on the driver's critical path.
struct SlowLossModel {
    inner: LinearRegression,
    loss_cost: Duration,
}

impl Model for SlowLossModel {
    fn num_params(&self) -> usize {
        self.inner.num_params()
    }

    fn loss(&self, params: &[f64], data: &Dataset, range: (usize, usize)) -> f64 {
        std::thread::sleep(self.loss_cost);
        self.inner.loss(params, data, range)
    }

    fn gradient(&self, params: &[f64], data: &Dataset, range: (usize, usize)) -> Vec<f64> {
        self.inner.gradient(params, data, range)
    }

    fn gradient_into(
        &self,
        params: &[f64],
        data: &Dataset,
        range: (usize, usize),
        out: &mut [f64],
    ) {
        self.inner.gradient_into(params, data, range, out);
    }

    fn for_each_partial(
        &self,
        params: &[f64],
        data: &Dataset,
        ranges: &[(usize, usize)],
        visit: &mut dyn FnMut(usize, &hetgc::FillPartial<'_>),
    ) {
        self.inner.for_each_partial(params, data, ranges, visit);
    }

    fn init_params(&self, rng: &mut dyn rand::RngCore) -> Vec<f64> {
        self.inner.init_params(rng)
    }
}

const ROUNDS: usize = 16;
const COMPUTE_MS: u64 = 30;
const LOSS_MS: u64 = 15;

fn engine(model: &Arc<SlowLossModel>, data: &Arc<Dataset>) -> ThreadedEngine<SlowLossModel> {
    let mut rng = StdRng::seed_from_u64(77);
    let code = heter_aware(&[1.0; 4], 4, 1, &mut rng).unwrap();
    // Every worker owns load × n/k = 2 × 60 = 120 samples; a throttle of
    // 120 / 0.030 s stretches each round's compute to ~COMPUTE_MS.
    let rate = 120.0 / (COMPUTE_MS as f64 / 1000.0);
    let mut config = RuntimeConfig::nominal(4);
    for w in 0..4 {
        config = config.set_behavior(w, WorkerBehavior::nominal().with_throttle(rate));
    }
    ThreadedEngine::new(code, Arc::clone(model), Arc::clone(data), &config).unwrap()
}

#[test]
fn pipelined_driver_beats_sequential_on_the_threaded_runtime() {
    let mut rng = StdRng::seed_from_u64(5);
    let data = Arc::new(synthetic::linear_regression(240, 3, 0.01, &mut rng));
    let model = Arc::new(SlowLossModel {
        inner: LinearRegression::new(3),
        loss_cost: Duration::from_millis(LOSS_MS),
    });

    // Sequential reference: every round pays compute + loss in series.
    let mut seq_engine = engine(&model, &data);
    let started = Instant::now();
    let sequential = TrainDriver::new(model.as_ref(), data.as_ref(), Sgd::new(0.2))
        .run(&mut seq_engine, ROUNDS, &mut StdRng::seed_from_u64(9))
        .unwrap();
    let seq_elapsed = started.elapsed();

    // Pipelined: round t+1 computes while the master steps/evaluates t.
    let mut pipe_engine = engine(&model, &data);
    let started = Instant::now();
    let pipelined = PipelinedDriver::new(model.as_ref(), data.as_ref(), Sgd::new(0.2))
        .run(&mut pipe_engine, ROUNDS, &mut StdRng::seed_from_u64(9))
        .unwrap();
    let pipe_elapsed = started.elapsed();

    // Both trained for the full run and made real progress (the
    // pipeline's one-round staleness must not break convergence).
    assert_eq!(sequential.rounds(), ROUNDS);
    assert_eq!(pipelined.rounds(), ROUNDS);
    for out in [&sequential, &pipelined] {
        let first = out.records[0].loss.expect("eval_every = 1");
        let last = out.final_loss().unwrap();
        assert!(last < first * 0.5, "{}: {first} → {last}", out.label);
    }

    // The acceptance bar: the sleep-dominated construction puts the
    // sequential run at ≥ ROUNDS × (COMPUTE + LOSS) while the pipelined
    // run hides the loss evaluations behind the next round's compute.
    let floor = Duration::from_millis(ROUNDS as u64 * (COMPUTE_MS + LOSS_MS));
    assert!(
        seq_elapsed >= floor - Duration::from_millis(5),
        "sequential run finished impossibly fast: {seq_elapsed:?}"
    );
    assert!(
        pipe_elapsed < seq_elapsed.mul_f64(0.85),
        "pipelined ({pipe_elapsed:?}) must beat sequential ({seq_elapsed:?}) by ≥ 15%"
    );

    // Data-plane telemetry flows through the pipelined records too: every
    // round consumed coded payloads (one Arc allocation per reply).
    assert!(pipelined.records.iter().all(|r| r.alloc_bytes > 0));
    assert!(pipelined.records.iter().any(|r| r.pool_hits > 0));
}
