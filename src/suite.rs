//! Workspace umbrella crate: re-exports the public API of every `hetgc`
//! crate so the examples and integration tests in this repository can use a
//! single dependency. Library users should depend on the individual crates
//! (most commonly [`hetgc`]) instead.

pub use hetgc;
pub use hetgc_cluster as cluster;
pub use hetgc_coding as coding;
pub use hetgc_comm as comm;
pub use hetgc_linalg as linalg;
pub use hetgc_ml as ml;
pub use hetgc_net as net;
pub use hetgc_obs as obs;
pub use hetgc_runtime as runtime;
pub use hetgc_sched as sched;
pub use hetgc_sim as sim;
pub use hetgc_telemetry as telemetry;

/// Compiles README's Rust examples as doc tests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
