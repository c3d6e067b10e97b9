//! # hetgc-telemetry
//!
//! The observation-and-adaptation subsystem that closes the
//! heterogeneity loop: the paper's schemes allocate work from throughput
//! estimates sampled *once* (§III-C) and hedge against noise (§V); this
//! crate feeds what a training run actually *observes* back into the
//! allocation, the escalation deadline and the codec.
//!
//! The feedback loop, per collect round:
//!
//! ```text
//!             ┌────────────────────────────────────────────────┐
//!             │                 RoundEngine                    │
//!   rounds ──▶│  (sim-BSP, SSP, threaded runtime)              │──▶ RoundSample*
//!             └────────────────────────────────────────────────┘        │
//!        ▲ set_deadline / recode                                        ▼
//!        │                                                    ┌──────────────────┐
//!   ┌──────────────┐   estimates   ┌───────────────┐  rates   │   TelemetryHub   │
//!   │ TrainDriver  │◀──────────────│ DriftDetector │◀─────────│ (EWMA estimator, │
//!   │ (acts on the │               │ (CUSUM + EWMA │          │ quantile window) │
//!   │  decision)   │◀─ deadline ───│  divergence)  │          └──────────────────┘
//!   └──────────────┘               └───────────────┘   ▲ round times     │
//!        ▲                                 │           └──────────────────┘
//!        └──── AdaptationDecision ◀── RecodeController + DeadlineConfig
//! ```
//!
//! * [`RoundSample`] — one worker's compute/arrival observation
//!   (defined in `hetgc-cluster`, re-exported here).
//! * [`TelemetryHub`] — ingestion: an
//!   [`hetgc_cluster::EwmaEstimator`] of throughputs plus a
//!   windowed quantile sketch of round times.
//! * [`DriftDetector`] — per-worker CUSUM step detection and slow-drift
//!   EWMA divergence against the allocation's noise envelope.
//! * [`DeadlineConfig`] — the learned escalation deadline: a target
//!   quantile of the hub's recent round-completion times times a margin,
//!   replacing the static `EscalationPolicy::with_deadline` knob.
//! * `RecodeController` — debounces confirmed drift into re-code
//!   triggers with a cooldown; the consuming engine owns the actual
//!   Eq. 5 → Eq. 6 → Alg. 1/3 rebuild and codec hot-swap.
//! * [`Adaptation`] / [`AdaptationConfig`] — the assembled pipeline a
//!   training driver runs each round.
//!
//! This crate sits *below* the training stack on purpose: it knows
//! workers, rates and rounds — not schemes, codecs or engines — so every
//! execution path (simulated BSP, SSP, the threaded runtime) can
//! feed it without layering cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptation;
mod deadline;
mod drift;
mod hub;
mod quantile;
mod recode;

pub use adaptation::{Adaptation, AdaptationConfig, AdaptationDecision};
pub use deadline::DeadlineConfig;
pub use drift::{DriftConfig, DriftDetector, DriftEvent};
pub use hetgc_cluster::RoundSample;
pub use hub::TelemetryHub;
pub use recode::RecodeConfig;
