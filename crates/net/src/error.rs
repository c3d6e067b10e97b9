//! Error taxonomy of the TCP data plane.
//!
//! Two layers: [`WireError`] is the pure protocol layer (a malformed byte
//! sequence — no I/O involved), [`NetError`] wraps it together with
//! transport and set-up failures. Rounds themselves run on
//! `hetgc_runtime::Master` and fail with its `RuntimeError`
//! (`WorkerLost`, …) on every transport — an undecodable round is not an
//! error but a failed `EngineRound`; [`NetError::Runtime`] carries one
//! across a `NetError` boundary (cluster start-up).

use std::error::Error;
use std::fmt;
use std::io;

/// A malformed frame. Decoding never panics and never allocates more
/// than the declared (and bounded) frame length — every bad input maps
/// to one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ends before the declared frame does.
    Truncated,
    /// The frame header declares a payload length above the 64 MiB cap;
    /// rejected *before* any allocation.
    Oversized {
        /// The declared payload length.
        declared: u64,
    },
    /// A `Hello` carried the wrong protocol magic (not a hetgc peer).
    BadMagic {
        /// The magic actually received.
        got: u32,
    },
    /// The frame tag byte names no known frame type.
    UnknownTag {
        /// The offending tag.
        tag: u8,
    },
    /// The payload contradicts itself (inner length prefixes overrun the
    /// frame, trailing garbage, an impossible enum discriminant, …).
    Corrupt {
        /// What was being decoded when the contradiction surfaced.
        what: &'static str,
    },
    /// A handshake or gradient chunk named a payload encoding this
    /// build does not implement. Always a typed rejection — a peer is
    /// never silently fed a misinterpreted payload.
    UnknownEncoding {
        /// The offending encoding byte.
        value: u8,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::Oversized { declared } => {
                write!(f, "declared frame length {declared} exceeds the cap")
            }
            WireError::BadMagic { got } => write!(f, "bad protocol magic {got:#010x}"),
            WireError::UnknownTag { tag } => write!(f, "unknown frame tag {tag:#04x}"),
            WireError::Corrupt { what } => write!(f, "corrupt frame payload: {what}"),
            WireError::UnknownEncoding { value } => {
                write!(f, "unsupported payload encoding {value:#04x}")
            }
        }
    }
}

impl Error for WireError {}

/// Errors of the socket master, worker loop, and transport.
#[derive(Debug)]
pub enum NetError {
    /// A peer sent a malformed frame.
    Wire(WireError),
    /// The underlying socket failed.
    Io(io::Error),
    /// A blocking receive hit its deadline without a complete frame.
    Timeout,
    /// The peer closed the connection.
    Closed,
    /// The handshake phase failed (wrong first frame, accept timeout, …).
    Handshake(String),
    /// The master rejected the cluster's configuration (codec backend,
    /// partitioning, model spec).
    Runtime(hetgc_runtime::RuntimeError),
    /// The wire codec (quantize/dequantize) failed on a payload.
    Payload(hetgc_comm::CommError),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Wire(e) => write!(f, "wire protocol error: {e}"),
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::Timeout => write!(f, "receive deadline passed"),
            NetError::Closed => write!(f, "connection closed by peer"),
            NetError::Handshake(reason) => write!(f, "handshake failed: {reason}"),
            NetError::Runtime(e) => write!(f, "{e}"),
            NetError::Payload(e) => write!(f, "wire codec failure: {e}"),
        }
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<hetgc_comm::CommError> for NetError {
    fn from(e: hetgc_comm::CommError) -> Self {
        NetError::Payload(e)
    }
}

impl From<hetgc_runtime::RuntimeError> for NetError {
    fn from(e: hetgc_runtime::RuntimeError) -> Self {
        NetError::Runtime(e)
    }
}

impl Error for NetError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NetError::Wire(e) => Some(e),
            NetError::Io(e) => Some(e),
            NetError::Runtime(e) => Some(e),
            NetError::Payload(e) => Some(e),
            _ => None,
        }
    }
}
