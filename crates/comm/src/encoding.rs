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
    /// Narrowed IEEE-754 `f32`, 4 bytes per element (~2x). Exact for
    /// values representable in single precision; typed error on
    /// finite overflow.
    F32 = 1,
    /// bfloat16 (top 16 bits of the `f32` representation,
    /// round-to-nearest-even), 2 bytes per element (~4x).
    Bf16 = 2,
    /// Per-chunk affine int8 quantization with deterministic rounding,
    /// 1 byte per element plus a 16-byte chunk header (~8x).
    Int8 = 3,
}

impl PayloadEncoding {
    /// Every encoding this build supports, baseline first.
    pub const ALL: [PayloadEncoding; 4] = [
        PayloadEncoding::F64,
        PayloadEncoding::F32,
        PayloadEncoding::Bf16,
        PayloadEncoding::Int8,
    ];

    /// The wire byte for this encoding.
    pub fn to_byte(self) -> u8 {
        self as u8
    }

    /// Parses a wire byte; `None` for encodings this build does not
    /// know (callers surface that as a typed error).
    pub fn from_byte(byte: u8) -> Option<PayloadEncoding> {
        match byte {
            0 => Some(PayloadEncoding::F64),
            1 => Some(PayloadEncoding::F32),
            2 => Some(PayloadEncoding::Bf16),
            3 => Some(PayloadEncoding::Int8),
            _ => None,
        }
    }

    /// The non-default encodings a worker advertises in its `Hello`
    /// capability set (`F64` is implied and never advertised).
    pub fn advertised() -> Vec<u8> {
        vec![
            PayloadEncoding::F32.to_byte(),
            PayloadEncoding::Bf16.to_byte(),
            PayloadEncoding::Int8.to_byte(),
        ]
    }

    /// Stable lower-case name (metric labels, logs, bench output).
    pub fn name(self) -> &'static str {
        match self {
            PayloadEncoding::F64 => "f64",
            PayloadEncoding::F32 => "f32",
            PayloadEncoding::Bf16 => "bf16",
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
        for byte in 4u8..=255 {
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
