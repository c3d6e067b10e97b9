//! `hetgc-net`: the real TCP data plane for heterogeneity-aware gradient
//! coding — `hetgc_runtime`'s one master round loop over sockets and
//! worker *processes* instead of channels and threads.
//!
//! Layers, bottom up:
//!
//! * `frame` — the wire protocol: compact length-prefixed binary
//!   frames (handshake, per-round sequence-numbered coded-gradient
//!   chunks, recode/shutdown control). Pure bytes, no I/O.
//! * `conn` — blocking framed transport over `std::net::TcpStream`
//!   with persistent partial-frame buffering and shared byte counters.
//! * `spec` — wire-shippable mirrors of the runtime configuration
//!   (model, dataset, behaviour schedule, shard assignment) so a fresh
//!   worker process can rebuild its entire state from the handshake.
//! * `worker` / the `hetgc-worker` binary — the worker loop:
//!   newest-round fast-forward, the *identical* coded-gradient
//!   arithmetic as the in-process worker thread, chunked streaming
//!   replies.
//! * `cluster` — [`TcpTransport`], the master's TCP transport (per-link
//!   reader threads, peer-loss demotion, re-rowing the surviving
//!   connections, real per-round byte metering), and [`SocketCluster`],
//!   a `hetgc_runtime::Master` over it plus the accept/handshake
//!   constructors and link accessors.
//! * `engine` — [`SocketEngine`]: `hetgc::ClusterEngine` over a
//!   `SocketCluster`, so `hetgc::TrainDriver` and
//!   `hetgc::PipelinedDriver` drive TCP workers with no call-site
//!   changes.
//! * `spawn` — [`WorkerFleet`]: process lifecycle for tests and fault
//!   drills (spawn n workers, kill one mid-run, reap on drop).
//!
//! Because worker compute is operation-for-operation the threaded
//! worker's, a socket run over loopback decodes to **bitwise** the same
//! gradient trajectory as a threaded run under a code whose decode is
//! arrival-order-independent — the loopback tests pin exactly that.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod conn;
mod engine;
mod error;
mod frame;
mod spawn;
mod spec;
mod worker;

pub use cluster::{
    export_link_metrics, LinkStats, SocketCluster, SocketListener, TcpTransport, DEFAULT_CHUNK_LEN,
};
pub use engine::SocketEngine;
pub use error::{NetError, WireError};
pub use frame::{append_gradient_chunk, Frame, FrameRef};
pub use hetgc_comm::PayloadEncoding;
pub use spawn::WorkerFleet;
pub use spec::{BehaviorSpec, DatasetSpec, Handshake, ModelSpec, TargetsSpec};
pub use worker::{run_worker, run_worker_with_metrics};
