//! What one collect round hands back to the training driver, on every
//! engine: the simulators and the wall-clock [`Master`](crate::Master)
//! alike.

use hetgc_cluster::RoundSample;

/// What one engine round hands back to the driver.
#[derive(Debug, Clone)]
pub struct EngineRound {
    /// Seconds this round took (simulated or wall-clock); `None` when the
    /// round could not complete (undecodable and the ladder declined).
    pub elapsed: Option<f64>,
    /// Absolute completion time, for engines whose clock is not the sum
    /// of round durations (the SSP event stream). `None` lets the driver
    /// accumulate `elapsed`.
    pub at: Option<f64>,
    /// The decoded aggregated gradient over the *whole* dataset,
    /// un-normalized (the driver divides by the sample count). `None`
    /// for timing-only engines — the driver then skips the optimizer.
    pub gradient: Option<Vec<f64>>,
    /// Decode residual `‖aᵀB_I − 1‖₂`: 0 for exact rounds.
    pub residual: f64,
    /// Absolute gradient-error bound
    /// ([`hetgc_coding::gradient_error_bound_l2`]) when the engine could
    /// compute it (it needs the per-partition gradient norms); `None`
    /// otherwise — the driver then falls back to a residual-only
    /// estimate.
    pub error_bound: Option<f64>,
    /// Worker results that carried decode weight.
    pub results_used: usize,
    /// Per-worker useful-compute seconds (empty when unknown).
    pub busy: Vec<f64>,
    /// Per-worker telemetry observations of this round (compute time,
    /// arrival time, work units, straggled/failed) — what the adaptation
    /// loop's `TelemetryHub` ingests. Empty when the engine has nothing
    /// to report (e.g. a failed round).
    pub samples: Vec<RoundSample>,
    /// Data-plane bytes allocated this round (coded payload `Arc`s in the
    /// threaded runtime, codec-session pool misses in the simulators);
    /// `0` in steady state on the pooled path.
    pub alloc_bytes: u64,
    /// Buffer-pool hits this round (recycled data-plane buffers).
    pub pool_hits: u64,
    /// Wire bytes the master sent this round (parameter broadcasts and
    /// control frames). `0` for in-process engines — the simulators and
    /// the threaded runtime move `Arc`s, not bytes; only a socket data
    /// plane reports real traffic.
    pub bytes_sent: u64,
    /// Wire bytes the master received this round (coded-gradient frames).
    /// `0` for in-process engines, as with [`EngineRound::bytes_sent`].
    pub bytes_received: u64,
    /// Combined L2 quantization error the wire codecs introduced into
    /// this round's coded results (worker-measured, see
    /// `hetgc_comm::ErrorFeedback`). `0.0` for lossless transports —
    /// in-process engines and full-width `f64` links.
    pub wire_error: f64,
    /// Payload bytes a lossy wire encoding saved this round versus
    /// full-width `f64` traffic. `0` for lossless transports.
    pub bytes_saved: u64,
    /// `true` asks the driver to end the run after this round (a stalled
    /// BSP run, a deterministic-failure timing sweep).
    pub stop: bool,
}

impl EngineRound {
    /// A round that never completed.
    pub fn failed(stop: bool) -> Self {
        EngineRound {
            elapsed: None,
            at: None,
            gradient: None,
            residual: 0.0,
            error_bound: None,
            results_used: 0,
            busy: Vec::new(),
            samples: Vec::new(),
            alloc_bytes: 0,
            pool_hits: 0,
            bytes_sent: 0,
            bytes_received: 0,
            wire_error: 0.0,
            bytes_saved: 0,
            stop,
        }
    }
}
