//! Worker-side error-feedback accumulator (EF-SGD style).
//!
//! A lossy wire codec introduces a per-round quantization error
//! `e = intended - shipped`. Plain quantization throws `e` away, which
//! biases convergence: a coordinate whose gradient is persistently
//! smaller than the quantization step rounds to the same grid point
//! every round and the model never learns it. Error feedback instead
//! carries `e` into the next round's partial before quantizing, so the
//! error accumulates until it crosses a grid step and ships — the
//! long-run average of what the master sees equals what the worker
//! computed.

/// The quantization residual one link carries from each round into the
/// next round's coded partial.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorFeedback {
    residual: Vec<f64>,
}

impl ErrorFeedback {
    /// A zeroed accumulator for `dim`-element coded partials.
    pub fn new(dim: usize) -> ErrorFeedback {
        ErrorFeedback {
            residual: vec![0.0; dim],
        }
    }

    /// The carried residual, for [`AnyWireCodec::encode_feedback`] to
    /// fold into this round's coded partial and overwrite with what the
    /// round failed to ship. A chunked reply passes matching chunks.
    ///
    /// [`AnyWireCodec::encode_feedback`]: crate::AnyWireCodec::encode_feedback
    pub fn residual_mut(&mut self) -> &mut [f64] {
        &mut self.residual
    }

    /// L2 norm of the carried residual (diagnostics).
    pub fn residual_norm(&self) -> f64 {
        self.residual.iter().map(|r| r * r).sum::<f64>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{AnyWireCodec, Int8Quant, WireCodec};
    use crate::encoding::PayloadEncoding;
    use crate::error::CommError;

    #[test]
    fn residual_is_what_quantization_dropped() {
        let codec = AnyWireCodec::for_encoding(PayloadEncoding::Int8);
        let mut ef = ErrorFeedback::new(3);
        let mut wire = Vec::new();
        let mut coded = [0.31, -0.49, 0.02];
        codec
            .encode_feedback(&mut coded, ef.residual_mut(), &mut wire)
            .unwrap();
        assert_eq!(coded, [0.31, -0.49, 0.02]); // zero residual: no-op
        let mut shipped = [0.0; 3];
        codec.decode_into(&wire, &mut shipped).unwrap();
        let dropped: Vec<f64> = coded.iter().zip(&shipped).map(|(i, s)| i - s).collect();
        assert_eq!(ef.residual_mut(), &dropped[..]);
        // The next round quantizes `coded + dropped`.
        let mut next = [0.0, 0.0, 0.0];
        codec
            .encode_feedback(&mut next, ef.residual_mut(), &mut wire)
            .unwrap();
        assert_eq!(next, dropped[..]);
    }

    #[test]
    fn dimension_mismatch_is_a_typed_error() {
        let codec = AnyWireCodec::for_encoding(PayloadEncoding::Int8);
        let mut ef = ErrorFeedback::new(3);
        let mut wire = Vec::new();
        assert_eq!(
            codec.encode_feedback(&mut [1.0, 2.0], ef.residual_mut(), &mut wire),
            Err(CommError::LengthMismatch {
                expected: 2,
                got: 3
            })
        );
    }

    #[test]
    fn accumulated_error_eventually_ships_a_tiny_coordinate() {
        // One coordinate's per-round gradient (1e-3) is far below the
        // int8 grid step for a chunk spanning [-1, 1] (~7.8e-3): plain
        // quantization ships zero forever, error feedback accumulates
        // until the grid step is crossed.
        let codec = AnyWireCodec::for_encoding(PayloadEncoding::Int8);
        assert_eq!(codec, AnyWireCodec::Int8(Int8Quant));
        let mut ef = ErrorFeedback::new(3);
        let mut wire = Vec::new();
        let mut shipped = vec![0.0; 3];
        let mut total_shipped_tiny = 0.0;
        for _ in 0..32 {
            let mut coded = [1.0, -1.0, 1e-3];
            codec
                .encode_feedback(&mut coded, ef.residual_mut(), &mut wire)
                .unwrap();
            codec.decode_into(&wire, &mut shipped).unwrap();
            total_shipped_tiny += shipped[2];
        }
        // 32 rounds x 1e-3 = 0.032 intended in total; EF must have
        // shipped most of it (within one grid step of the truth).
        assert!(
            (total_shipped_tiny - 0.032).abs() < 0.01,
            "EF shipped {total_shipped_tiny}, wanted ~0.032"
        );
        // The leftover lives in the accumulator, bounded by a step.
        assert!(ef.residual_norm() < 0.02);
    }
}
