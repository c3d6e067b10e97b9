//! The master ⇄ worker wire protocol.
//!
//! In the paper's deployment this is the parameter-server push/pull; here
//! it is a pair of `crossbeam` channels per worker. Parameters travel in an
//! `Arc` so an `m`-worker broadcast clones a pointer, not the vector —
//! mirroring the zero-copy broadcast of a real transport.

use std::sync::Arc;
use std::time::Instant;

/// Master → worker messages.
#[derive(Debug, Clone)]
pub(crate) enum ToWorker {
    /// Start one computation round on the given parameters.
    Round {
        /// The global iteration number.
        iteration: usize,
        /// Current model parameters (shared, read-only).
        params: Arc<Vec<f64>>,
    },
    /// Move onto a new row of the code, in place — the channel
    /// counterpart of `hetgc-net`'s `Frame::Recode`. Channel order makes
    /// an acknowledgement unnecessary: the worker applies it before any
    /// round sent after it, and replies to older rounds are filtered by
    /// their sequence tag.
    Recode {
        /// The sample ranges of the partitions the new row holds.
        ranges: Vec<(usize, usize)>,
        /// The non-zero entries of the new row, aligned with `ranges`.
        coefficients: Vec<f64>,
    },
    /// Terminate the worker thread cleanly.
    Shutdown,
}

/// One completed worker reply, as the master's collect loop consumes it —
/// the same shape on every transport. `P` is the transport's payload
/// handle: the threaded workers freeze their scratch into an `Arc<[f64]>`
/// once per round (the master moves the handle into its arrival slot, no
/// clone anywhere), a socket reader hands over its reassembled `Vec<f64>`.
#[derive(Debug, Clone)]
pub struct Reply<P> {
    /// The sending worker's logical row in the current code.
    pub worker: usize,
    /// The round tag the worker echoes back (stale replies carry no
    /// gradient weight).
    pub seq: u64,
    /// The coded gradient `g̃_w = Σ_j b_wj·g_j`.
    pub coded: P,
    /// Effective compute duration from round receipt to reply — native
    /// gradient time stretched by throttle emulation and injected delay.
    /// This is what a master can actually observe, so resource metrics
    /// and throughput telemetry both see the worker's *emulated* speed.
    pub compute_seconds: f64,
    /// When the reply's last byte reached the master, if the transport
    /// has a reader that can stamp it (`None` in-process: arrival is then
    /// approximated by compute end).
    pub arrived: Option<Instant>,
    /// Worker-measured L2 quantization error of this reply (`0.0` on
    /// lossless transports).
    pub wire_error: f64,
    /// Gradient payload bytes this reply occupied on the wire (`0` when
    /// nothing was serialized).
    pub payload_bytes: u64,
}

/// What a worker thread sends back: its coded gradient frozen into a
/// shared payload.
pub(crate) type FromWorker = Reply<Arc<[f64]>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_shares_params() {
        let params = Arc::new(vec![1.0, 2.0]);
        let msg = ToWorker::Round {
            iteration: 1,
            params: Arc::clone(&params),
        };
        if let ToWorker::Round {
            params: p,
            iteration,
        } = msg
        {
            assert_eq!(iteration, 1);
            assert_eq!(*p, vec![1.0, 2.0]);
            assert_eq!(Arc::strong_count(&params), 2);
        } else {
            panic!("wrong variant");
        }
    }

    #[test]
    fn from_worker_fields() {
        let m = FromWorker {
            worker: 2,
            seq: 5,
            coded: Arc::from([0.5].as_slice()),
            compute_seconds: 0.1,
            arrived: None,
            wire_error: 0.0,
            payload_bytes: 0,
        };
        assert_eq!(m.worker, 2);
        assert_eq!(m.seq, 5);
        assert_eq!(&m.coded[..], &[0.5]);
        // Cloning the message shares the payload, it does not copy it.
        let copy = m.clone();
        assert_eq!(Arc::strong_count(&m.coded), 2);
        assert_eq!(&copy.coded[..], &[0.5]);
    }

    #[test]
    fn messages_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ToWorker>();
        assert_send::<FromWorker>();
    }
}
