//! # hetgc — Heterogeneity-aware Gradient Coding for Straggler Tolerance
//!
//! A full Rust reproduction of *"Heterogeneity-aware Gradient Coding for
//! Straggler Tolerance"* (Wang, Guo, Tang, Li, Li — ICDCS 2019): the
//! heter-aware coding scheme (Alg. 1), the group-based variant
//! (Algs. 2–3), the baselines they are evaluated against (naive BSP,
//! cyclic gradient coding, fractional repetition, SSP), a heterogeneous
//! cluster model, a discrete-event simulator, a threaded runtime and a
//! miniature ML stack — each living in its own crate and re-exported here.
//!
//! This crate adds the unifying layer:
//!
//! * [`SchemeKind`] / [`SchemeBuilder`] — one entry point constructing any
//!   scheme for a [`ClusterSpec`], with optional estimation noise.
//! * [`TrainDriver`] + [`RoundEngine`] — **the** training loop: one
//!   round-driver serving the simulated BSP engine ([`SimBspEngine`]),
//!   the SSP event stream ([`SimSspEngine`], the uncoded baseline), and
//!   the real threaded runtime ([`ThreadedEngine`]), all
//!   emitting one unified [`TrainOutcome`] / [`RoundRecord`] report with
//!   per-round backend escalation ([`EscalationPolicy`]) and
//!   residual-aware step scaling built in.
//! * [`DriverConfig::adaptation`] + `hetgc_telemetry` — the
//!   observation-and-adaptation loop: per-round [`RoundSample`] telemetry
//!   feeds drift detection, a learned escalation deadline
//!   ([`RoundEngine::set_deadline`]) and live re-coding
//!   ([`RoundEngine::recode`]) on every engine.
//! * [`experiment`] — runners regenerating every figure of the paper
//!   (Figs. 2, 3, 4, 5 and the Table II inventory).
//! * [`analysis`] — optimality checks against Theorem 5.
//! * [`report`] — plain-text rendering for the bench binaries.
//!
//! # Quick start
//!
//! ```
//! use hetgc::{ClusterSpec, SchemeBuilder, SchemeKind};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cluster = ClusterSpec::cluster_a();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let scheme = SchemeBuilder::new(&cluster, 1).build(SchemeKind::HeterAware, &mut rng)?;
//! // Worker loads are proportional to vCPUs: the 12-vCPU node holds 6×
//! // the partitions of a 2-vCPU node.
//! let loads: Vec<usize> = (0..8).map(|w| scheme.code.load_of(w)).collect();
//! assert_eq!(loads[7] / loads[0], 6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod analysis;
mod driver;
mod engine;
pub mod experiment;
mod pipeline;
pub mod report;
mod scheme;
mod trainer;

pub use driver::{AdaptationReport, DriverConfig, RoundRecord, TrainDriver, TrainOutcome};
pub use engine::{
    residual_step_scale, ClusterEngine, EngineRound, PipelinedEngine, RoundEngine, SimBspEngine,
    SimSspEngine, ThreadedEngine,
};
pub use pipeline::PipelinedDriver;
pub use scheme::{scheme_from_estimates, SchemeBuilder, SchemeInstance, SchemeKind};
pub use trainer::{LossCurve, SimTrainConfig};

// Re-export the sub-crates under stable names so downstream users need a
// single dependency.
pub use hetgc_cluster::{
    ClusterSpec, DelayDistribution, EstimationNoise, PartitionAssignment, StragglerEvent,
    StragglerModel,
};
pub use hetgc_coding::{
    approximate_decode, cyclic, group_based, heter_aware, naive, under_replicated,
    verify_condition_c1, Allocation, BufferPool, CodecBackend, CodecSession, CodingMatrix,
    CompiledCodec, EscalationPolicy, GradientBlock, GradientCodec, SupportMatrix,
};
pub use hetgc_ml::{
    partial_gradients_into, synthetic, Dataset, FillPartial, LinearRegression, Mlp, Model, Sgd,
    SoftmaxRegression,
};
pub use hetgc_runtime::{RuntimeConfig, WorkerBehavior};
pub use hetgc_sim::{
    simulate_bsp_iteration, simulate_bsp_iteration_in, BspIterationConfig, IterationTrace,
    NetworkModel, RateDrift, ResourceUsage, SspEngine,
};
pub use hetgc_telemetry::{AdaptationConfig, RoundSample, TelemetryHub};
