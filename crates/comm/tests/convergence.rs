//! Error feedback is what makes int8 wire traffic safe for training:
//! on the same quadratic problem, int8 **with** EF lands within 1e-3 of
//! the exact-f64 loss, while plain int8 (feedback thrown away) sticks
//! at a visibly biased loss floor.
//!
//! The construction mirrors the real data plane: each worker ships its
//! *own* coded partial, and partials carry large data-imbalance
//! components that cancel in the master's sum. The per-chunk affine
//! grid is therefore wide (its range is set by the imbalance, not the
//! shrinking true gradient), so late in training the true gradient is
//! far below one grid step — exactly the regime where plain
//! quantization's rounding bias stops convergence and EF's carried
//! residual keeps shipping the truth on average.

use hetgc_comm::{AnyWireCodec, ErrorFeedback, PayloadEncoding, WireCodec};

const DIM: usize = 8;
const ROUNDS: usize = 600;
const LR: f64 = 0.2;

/// The optimum the descent should find.
const TARGET: [f64; DIM] = [0.9, -0.7, 0.45, -0.3, 0.6, -0.55, 0.2, -0.85];

/// Per-worker data imbalance: worker 0's partial is `g/2 + c`, worker
/// 1's is `g/2 - c`. Irregular magnitudes keep the quantization grid
/// from coincidentally landing on the bias-free points.
const IMBALANCE: [f64; DIM] = [8.13, -7.77, 6.41, -8.92, 7.23, -6.58, 8.67, -7.05];

fn loss(params: &[f64]) -> f64 {
    params
        .iter()
        .zip(&TARGET)
        .map(|(p, t)| 0.5 * (p - t) * (p - t))
        .sum()
}

fn gradient(params: &[f64], out: &mut [f64]) {
    for ((g, p), t) in out.iter_mut().zip(params).zip(&TARGET) {
        *g = p - t;
    }
}

/// Runs the descent with both workers' partials shipped through
/// `codec`, with or without error feedback, and returns the final loss.
fn run(codec: AnyWireCodec, with_feedback: bool) -> f64 {
    let mut params = vec![0.0; DIM];
    let mut grad = vec![0.0; DIM];
    let mut partial = vec![0.0; DIM];
    let mut shipped = vec![0.0; DIM];
    let mut decoded = vec![0.0; DIM];
    let mut wire = Vec::new();
    let mut feedback = [ErrorFeedback::new(DIM), ErrorFeedback::new(DIM)];

    for _ in 0..ROUNDS {
        gradient(&params, &mut grad);
        decoded.iter_mut().for_each(|d| *d = 0.0);
        for (worker, sign) in [(0usize, 1.0), (1usize, -1.0)] {
            for i in 0..DIM {
                partial[i] = 0.5 * grad[i] + sign * IMBALANCE[i];
            }
            if with_feedback {
                codec
                    .encode_feedback(&mut partial, feedback[worker].residual_mut(), &mut wire)
                    .map(drop)
            } else {
                codec.encode_into(&partial, &mut wire)
            }
            .expect("finite partial encodes");
            codec
                .decode_into(&wire, &mut shipped)
                .expect("own bytes decode");
            for (d, s) in decoded.iter_mut().zip(&shipped) {
                *d += s;
            }
        }
        for (p, g) in params.iter_mut().zip(&decoded) {
            *p -= LR * g;
        }
    }
    loss(&params)
}

#[test]
fn int8_with_error_feedback_matches_f64_where_plain_int8_drifts() {
    let exact = run(AnyWireCodec::for_encoding(PayloadEncoding::F64), false);
    let plain = run(AnyWireCodec::for_encoding(PayloadEncoding::Int8), false);
    let ef = run(AnyWireCodec::for_encoding(PayloadEncoding::Int8), true);

    // The exact run solves the quadratic outright.
    assert!(exact < 1e-12, "exact f64 descent did not converge: {exact}");

    // EF-int8 is the acceptance bound: within 1e-3 of the f64 loss.
    assert!(
        (ef - exact).abs() < 1e-3,
        "int8+EF loss {ef} strays more than 1e-3 from f64 loss {exact}"
    );

    // Plain int8 visibly drifts: its rounding bias leaves a loss floor
    // at least an order of magnitude above the EF gap.
    assert!(
        plain - exact > 10.0 * (ef - exact).abs() && plain > 1e-3,
        "plain int8 (loss {plain}) should drift where EF (loss {ef}) holds"
    );
}
