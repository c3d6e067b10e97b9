//! `hetgc-comm`: quantized wire codecs with error feedback for the
//! coded-gradient data plane.
//!
//! The socket data plane (hetgc-net) ships every coded partial as
//! full-width `f64`; for large models the bytes/round, not compute,
//! become the scaling ceiling. This crate provides the compression
//! layer between a worker's coded scratch and the wire:
//!
//! - [`PayloadEncoding`] — the negotiated per-link wire format,
//! - [`WireCodec`] and its backends [`F64Raw`] and [`Int8Quant`]
//!   (~8x smaller payloads),
//! - [`AnyWireCodec`] — the runtime-selected codec the net layer holds;
//!   [`AnyWireCodec::encode_feedback`] is the worker's whole lossy reply,
//! - [`ErrorFeedback`] — the EF-SGD residual that call carries from round
//!   to round per link, so lossy traffic does not bias convergence.
//!
//! Codecs are deterministic, total over adversarial bytes (typed
//! [`CommError`], never a panic), and allocation-free in steady state:
//! encode appends into a reused `Vec<u8>`, and decode writes a
//! caller-sized `f64` slice — the master dequantizes straight into its
//! arrival row, with no staging buffer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod encoding;
mod error;
mod feedback;

pub use codec::{AnyWireCodec, F64Raw, Int8Quant, WireCodec};
pub use encoding::PayloadEncoding;
pub use error::CommError;
pub use feedback::ErrorFeedback;

#[cfg(test)]
mod testing;
