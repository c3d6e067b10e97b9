//! # hetgc-sim
//!
//! A discrete-event simulator for distributed gradient descent with
//! stragglers — the substrate on which every figure of the paper is
//! regenerated (the paper used QingCloud VMs; see DESIGN.md for the
//! substitution argument).
//!
//! * [`simulate_bsp_iteration`] — one BSP round: workers compute their
//!   coded load (heterogeneous rates × multiplicative jitter × injected
//!   straggler delay), results travel through a [`NetworkModel`], and the
//!   master decodes at the **earliest decodable prefix** through any
//!   `hetgc_coding::GradientCodec` (pass a `CompiledCodec` plus a reused
//!   session via [`simulate_bsp_iteration_in`] on hot paths). Returns
//!   per-worker timings for the Fig. 5 resource-usage metric.
//! * [`SspEngine`] — a stale-synchronous-parallel engine (bounded
//!   staleness) producing the asynchronous update schedule that Fig. 4
//!   compares against.
//! * [`ResourceUsage`] — the Fig. 5 resource-usage sums.
//!
//! ```
//! use hetgc_cluster::StragglerEvent;
//! use hetgc_coding::heter_aware;
//! use hetgc_sim::{simulate_bsp_iteration, BspIterationConfig, NetworkModel};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let rates = [1.0, 2.0, 3.0, 4.0, 4.0];
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let code = heter_aware(&rates, 7, 1, &mut rng)?;
//! let cfg = BspIterationConfig::new(&rates).payload_bytes(4_000.0);
//! let events = vec![StragglerEvent::Normal; 5];
//! let out = simulate_bsp_iteration(&code, &cfg, &events, &mut rng)?;
//! assert!(out.completion.is_some());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bsp;
mod drift;
mod error;
mod metrics;
mod network;
mod queue;
mod ssp;
mod trace;

pub use bsp::{
    simulate_bsp_iteration, simulate_bsp_iteration_in, Arrival, BspIteration, BspIterationConfig,
};
pub use drift::RateDrift;
pub use error::SimError;
pub use metrics::ResourceUsage;
pub use network::NetworkModel;
pub use queue::EventQueue;
pub use ssp::{SspEngine, SspEvent};
pub use trace::IterationTrace;
