//! # hetgc-cluster
//!
//! The heterogeneous cluster model used by the paper's evaluation (§VI):
//!
//! * [`WorkerSpec`] / [`ClusterSpec`] — workers parameterized by vCPU count
//!   with throughput ∝ vCPUs, plus verbatim builders for the paper's
//!   Table II clusters ([`ClusterSpec::cluster_a`] … [`ClusterSpec::cluster_d`]).
//! * [`StragglerModel`] — transient-delay and fail-stop injection, mirroring
//!   the paper's "add extra delay to any s random workers" methodology
//!   (Fig. 2) and its transient-fluctuation model (Fig. 3).
//! * [`EwmaEstimator`] — online estimation of worker throughput `c_i`
//!   from observed rounds, and [`EstimationNoise`] to corrupt the true
//!   rates by a controlled amount (§III-C's sampled estimate, Fig. 3).
//!   Inaccurate estimates are the motivation for the paper's group-based
//!   scheme (§V).
//! * [`RoundSample`] — what one worker did in one collect round, as the
//!   master observed it: the unit the estimators are fed from.
//!
//! The model deliberately contains *no* simulation logic — that lives in
//! `hetgc-sim` (discrete-event) and `hetgc-runtime` (real threads), both of
//! which consume these types.
//!
//! ```
//! use hetgc_cluster::ClusterSpec;
//!
//! let cluster = ClusterSpec::cluster_a();
//! assert_eq!(cluster.len(), 8); // 2+2+3+1 nodes (Table II)
//! let c = cluster.throughputs();
//! assert_eq!(c.len(), 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod estimate;
mod partition;
mod sample;
mod spec;
mod straggler;
mod worker;

pub use error::ClusterError;
pub use estimate::{EstimationNoise, EwmaEstimator};
pub use partition::PartitionAssignment;
pub use sample::RoundSample;
pub use spec::ClusterSpec;
pub use straggler::{DelayDistribution, StragglerEvent, StragglerModel};
pub use worker::WorkerSpec;
