//! Payload-encoding identifiers negotiated between master and workers.
//!
//! The wire carries the encoding as a single byte; `0` (full-width
//! `f64`) is the implicit default every peer understands, so a frame
//! that omits the byte entirely still means [`PayloadEncoding::F64`].
//! Unknown bytes are a negotiation-time error, never a silent
//! fallback — the net layer maps them to a typed `WireError`.

use core::fmt;

/// How coded gradient payloads are represented on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(u8)]
pub enum PayloadEncoding {
    /// Full-width IEEE-754 `f64`, 8 bytes per element. The baseline
    /// every peer speaks; lossless.
    #[default]
    F64 = 0,
    /// Per-chunk affine int8 quantization with deterministic rounding,
    /// 1 byte per element plus a 16-byte chunk header (~8x). Bytes 1
    /// and 2 are retired and parse as unknown.
    Int8 = 3,
}

impl PayloadEncoding {
    /// Every encoding this build supports, baseline first.
    pub const ALL: [PayloadEncoding; 2] = [PayloadEncoding::F64, PayloadEncoding::Int8];

    /// The wire byte for this encoding.
    pub fn to_byte(self) -> u8 {
        self as u8
    }

    /// Parses a wire byte; `None` for encodings this build does not
    /// know (callers surface that as a typed error).
    pub fn from_byte(byte: u8) -> Option<PayloadEncoding> {
        match byte {
            0 => Some(PayloadEncoding::F64),
            3 => Some(PayloadEncoding::Int8),
            _ => None,
        }
    }

    /// The non-default encodings a worker advertises in its `Hello`
    /// capability set (`F64` is implied and never advertised).
    pub fn advertised() -> Vec<u8> {
        PayloadEncoding::ALL
            .into_iter()
            .filter(|&e| e != PayloadEncoding::F64)
            .map(PayloadEncoding::to_byte)
            .collect()
    }

    /// Stable lower-case name (metric labels, logs, bench output).
    pub fn name(self) -> &'static str {
        match self {
            PayloadEncoding::F64 => "f64",
            PayloadEncoding::Int8 => "int8",
        }
    }
}

impl fmt::Display for PayloadEncoding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_round_trip_and_unknowns_are_none() {
        for enc in PayloadEncoding::ALL {
            assert_eq!(PayloadEncoding::from_byte(enc.to_byte()), Some(enc));
        }
        for byte in [1, 2].into_iter().chain(4u8..=255) {
            assert_eq!(PayloadEncoding::from_byte(byte), None);
        }
    }

    #[test]
    fn advertised_set_excludes_the_baseline() {
        let adv = PayloadEncoding::advertised();
        assert!(!adv.contains(&PayloadEncoding::F64.to_byte()));
        assert_eq!(adv.len(), PayloadEncoding::ALL.len() - 1);
    }
}
