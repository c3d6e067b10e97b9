//! The double-buffered round loop: [`PipelinedDriver`] overlaps the
//! master's per-round work (decode bookkeeping, the optimizer step, loss
//! evaluation) with the workers' computation of the *next* round.
//!
//! # How the pipeline works
//!
//! The sequential [`TrainDriver`](crate::TrainDriver) round is
//!
//! ```text
//! dispatch → workers compute → collect/decode → step → evaluate → dispatch → …
//! ```
//!
//! so the master's step/evaluate time adds to every round. The pipelined
//! loop re-dispatches the moment round `t`'s results are in:
//!
//! ```text
//! dispatch(1)
//! collect(1) ── dispatch(2) ── step(1)/evaluate(1)
//!               collect(2) ── dispatch(3) ── step(2)/evaluate(2)
//! ```
//!
//! Workers fill round `t+1`'s gradient block while the master is still
//! consuming round `t`'s — two blocks in flight, which is why the
//! [`hetgc_runtime`] data plane keeps per-worker arrival slots and
//! `Arc`-shared payloads. Steady-state round time drops from
//! `compute + master` to `max(compute, master)`.
//!
//! # The price: one round of gradient staleness
//!
//! Round `t+1` is dispatched *before* round `t`'s gradient is applied, so
//! its gradients are computed at the parameters of step `t−1` — classic
//! one-step-delayed (pipelined) SGD. Loss trajectories therefore differ
//! from the sequential driver's (slightly slower per-round progress,
//! substantially faster wall-clock); `tests/pipelined.rs` asserts both
//! halves of that trade.

use hetgc_ml::{Dataset, Model, Optimizer};
use hetgc_obs::RunObserver;
use rand::RngCore;

use crate::driver::{DriverConfig, TrainDriver, TrainOutcome};
use crate::engine::PipelinedEngine;
use crate::scheme::BoxError;

/// The double-buffered twin of [`TrainDriver`](crate::TrainDriver): same
/// model/optimizer/report contract, but rounds are dispatched one ahead
/// of the master's step/evaluate work via a [`PipelinedEngine`].
///
/// # Example
///
/// ```no_run
/// use std::sync::Arc;
/// use hetgc::{
///     heter_aware, synthetic, LinearRegression, PipelinedDriver, RuntimeConfig, Sgd,
///     ThreadedEngine,
/// };
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let code = heter_aware(&[1.0, 1.0, 2.0], 4, 1, &mut rng)?;
/// let model = Arc::new(LinearRegression::new(3));
/// let data = Arc::new(synthetic::linear_regression(96, 3, 0.01, &mut rng));
/// let mut engine = ThreadedEngine::new(code, Arc::clone(&model), Arc::clone(&data),
///     &RuntimeConfig::default())?;
/// let out = PipelinedDriver::new(model.as_ref(), data.as_ref(), Sgd::new(0.2))
///     .run(&mut engine, 20, &mut rng)?;
/// assert_eq!(out.rounds(), 20);
/// # Ok(())
/// # }
/// ```
pub struct PipelinedDriver<'a, M: Model + ?Sized, O: Optimizer>(TrainDriver<'a, M, O>);

impl<M: Model + ?Sized, O: Optimizer + std::fmt::Debug> std::fmt::Debug
    for PipelinedDriver<'_, M, O>
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("PipelinedDriver").field(&self.0).finish()
    }
}

impl<'a, M: Model + ?Sized, O: Optimizer> PipelinedDriver<'a, M, O> {
    /// A pipelined driver training `model` on `data` with `optimizer` and
    /// default [`DriverConfig`].
    pub fn new(model: &'a M, data: &'a Dataset, optimizer: O) -> Self {
        PipelinedDriver(TrainDriver::new(model, data, optimizer))
    }

    /// Replaces the loop configuration. [`DriverConfig::adaptation`] is
    /// not supported here (the adaptation hooks re-code and re-deadline
    /// between rounds, which would race the in-flight dispatch) —
    /// [`PipelinedDriver::run`] rejects a config that sets it.
    pub fn with_config(self, cfg: DriverConfig) -> Self {
        PipelinedDriver(self.0.with_config(cfg))
    }

    /// Reports every round into `observer` exactly like
    /// `TrainDriver::with_observer` does — round counters, latency and
    /// arrival histograms, wire bytes, and (with a recorder) the
    /// `Phase::Step` span around the overlapped master work.
    pub fn with_observer(self, observer: RunObserver) -> Self {
        PipelinedDriver(self.0.with_observer(observer))
    }

    /// Runs `rounds` double-buffered collect rounds of `engine`: round
    /// `t+1` is dispatched as soon as round `t`'s results are collected,
    /// *before* the optimizer step and loss evaluation for round `t` —
    /// which therefore overlap with the workers' next computation.
    ///
    /// Reports the same [`TrainOutcome`] as the sequential driver; on the
    /// threaded runtime, wall-clock per round drops to
    /// `max(compute, master work)` (asserted in `tests/pipelined.rs`).
    ///
    /// # Errors
    ///
    /// Propagates engine errors, and rejects configurations with
    /// [`DriverConfig::adaptation`] set.
    pub fn run<E: PipelinedEngine + ?Sized>(
        self,
        engine: &mut E,
        rounds: usize,
        rng: &mut dyn RngCore,
    ) -> Result<TrainOutcome, BoxError> {
        if self.0.cfg.adaptation.is_some() {
            return Err(
                "the pipelined driver does not support the adaptation loop; \
                        use TrainDriver for adaptive runs"
                    .into(),
            );
        }
        self.0
            .run_with(engine, rounds, rng, |engine, round, params, _| {
                if round == 1 {
                    engine.dispatch(1, params)?;
                }
                let er = engine.collect(round)?;
                // The pipeline: round t+1 starts computing NOW, at the
                // parameters of step t−1 (one round of staleness), while the
                // master finishes round t in the loop body.
                if round < rounds && !er.stop {
                    engine.dispatch(round + 1, params)?;
                }
                Ok(er)
            })
    }
}
