//! # hetgc-runtime
//!
//! The wall-clock master of coded distributed gradient descent — the
//! real-time counterpart of the `hetgc-sim` discrete-event simulator.
//!
//! * [`Master`] is the one round loop: broadcast → feed the replies,
//!   ending at the deadline, to `hetgc_coding::collect_round`, the
//!   decision the simulator runs too → combine the gradient. It returns
//!   the same [`EngineRound`] every training engine returns, per-worker
//!   telemetry included. It keeps iterating while injected workers are
//!   dead — the paper's fault-tolerance claim made concrete — and
//!   hot-swaps rebuilt codes between rounds.
//! * [`Transport`] is what differs between worker pools: how a round is
//!   sent, where [`Reply`]s arrive, how workers move to a new code, which
//!   rows can still reply, what a round cost on the wire.
//! * [`ThreadedCluster`] is the in-process pool: workers are OS threads,
//!   one per row, connected to the master by `crossbeam` channels
//!   ([`ChannelTransport`]); heterogeneity is emulated by rate
//!   throttling, stragglers by per-worker delays and fail-stop at a
//!   configured iteration. One worker loop serves the rows of any number
//!   of masters: [`ThreadedCluster::start`] puts one master on threads of
//!   its own, [`ThreadedCluster::start_shared`] several on one set, each
//!   master's rounds counted and its delays run apart. `hetgc-net`'s
//!   `SocketCluster` puts the same master over TCP.
//!
//! ```
//! use std::sync::Arc;
//!
//! use hetgc_coding::heter_aware;
//! use hetgc_ml::{synthetic, LinearRegression, Model};
//! use hetgc_runtime::{RuntimeConfig, ThreadedCluster};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let data = Arc::new(synthetic::linear_regression(120, 4, 0.05, &mut rng));
//! let code = heter_aware(&[1.0, 1.0, 2.0], 4, 1, &mut rng)?;
//! let model = Arc::new(LinearRegression::new(4));
//!
//! // One collect round: broadcast → gather → decode → combined gradient.
//! // (`hetgc::TrainDriver` loops this for you via `ThreadedEngine`.)
//! let mut cluster =
//!     ThreadedCluster::start(code, Arc::clone(&model), Arc::clone(&data), &RuntimeConfig::default())?;
//! let params = model.init_params(&mut rng);
//! let round = cluster.round(&params)?;
//! let gradient = round.gradient.expect("decodable within the budget");
//! assert_eq!(gradient.len(), model.num_params());
//! assert_eq!(round.residual, 0.0, "exact decode within the budget");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
mod executor;
mod master;
mod message;
mod round;
mod worker;

pub use config::{RuntimeConfig, WorkerBehavior};
/// The channels a [`Transport`]'s replies arrive on, for transports
/// implemented outside this crate.
pub use crossbeam::channel;
pub use error::RuntimeError;
pub use executor::{ChannelTransport, ThreadedCluster};
pub use master::{build_codec, row_shards, Master, RowShard, Transport};
pub use message::Reply;
pub use round::EngineRound;
pub use worker::{compute_coded, emulated_deadline};
