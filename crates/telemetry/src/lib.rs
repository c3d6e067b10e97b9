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
//!   ┌──────────────┐   estimates   ┌───────────────┐ rate +   │   TelemetryHub   │
//!   │ TrainDriver  │◀──────────────│ DriftDetector │◀─────────│ (EWMA estimator, │
//!   │ (acts on the │               │ (CUSUM + EWMA │ estimate │ quantile window) │
//!   │  decision)   │◀─ deadline ───│  divergence)  │          └──────────────────┘
//!   └──────────────┘               └───────────────┘   ▲ round times     │
//!        ▲                                 │           └──────────────────┘
//!        └──── AdaptationDecision ◀── RecodeController + learned deadline
//! ```
//!
//! * [`RoundSample`] — one worker's compute/arrival observation
//!   (defined in `hetgc-cluster`, re-exported here).
//! * [`TelemetryHub`] — ingestion: an
//!   [`hetgc_cluster::EwmaEstimator`] of throughputs (α = 0.4 in the
//!   loop) plus a windowed quantile sketch of round times. Only samples
//!   with a positive, finite rate reach the estimator.
//! * `DriftDetector` — per-worker CUSUM step detection and slow-drift
//!   divergence of the hub's estimate from a slow baseline. It keeps no
//!   estimate of its own.
//! * The learned escalation deadline — p90 of the hub's last 64
//!   round-completion times × 1.25, after 8 warm-up rounds. A driver
//!   with learning on installs it through the engine's `set_deadline`;
//!   a fixed deadline set with `EscalationPolicy::with_deadline` stays
//!   until a learned one replaces it.
//! * `RecodeController` — debounces confirmed drift (2 rounds) into
//!   re-code triggers at most every 5 rounds; the consuming engine owns
//!   the actual Eq. 5 → Eq. 6 → Alg. 1/3 rebuild and codec hot-swap.
//! * [`Adaptation`] / [`AdaptationConfig`] — the assembled pipeline a
//!   training driver runs each round; its one option is whether to
//!   learn the deadline.
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
pub use drift::DriftEvent;
pub use hetgc_cluster::RoundSample;
pub use hub::TelemetryHub;
