//! Layer probes: single public calls into each layer, timed in isolation
//! on inputs of one workload's shape. They run on the traced run only and
//! explain, layer by layer, what an end-to-end move is made of.

use std::hint::black_box;
use std::time::Instant;

use hetgc_suite::cluster::{PartitionAssignment, StragglerEvent};
use hetgc_suite::comm::{AnyWireCodec, WireCodec};
use hetgc_suite::hetgc::{
    heter_aware, partial_gradients_into, simulate_bsp_iteration_in, synthetic, BspIterationConfig,
    CompiledCodec, GradientBlock, GradientCodec, LinearRegression, Model, RoundSample,
    TelemetryHub,
};
use hetgc_suite::linalg::{kernels, Matrix};
use hetgc_suite::net::{Frame, PayloadEncoding, DEFAULT_CHUNK_LEN};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats;
use crate::workloads::{BoxError, Shape};

/// Each probe is timed in this many batches; the median batch is reported.
const BATCHES: usize = 5;
/// A batch repeats the call until this much time has passed.
const BATCH_SECONDS: f64 = 0.008;

/// Seconds per call of `f`: median over [`BATCHES`] batches, each batch as
/// many calls as fit in [`BATCH_SECONDS`] (at least one), after one
/// untimed call to fault pages in and fill caches.
fn seconds_per_call(mut f: impl FnMut()) -> f64 {
    f();
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let started = Instant::now();
            let mut calls = 0u32;
            loop {
                f();
                calls += 1;
                let elapsed = started.elapsed().as_secs_f64();
                if elapsed >= BATCH_SECONDS {
                    break elapsed / f64::from(calls);
                }
            }
        })
        .collect();
    stats::median(&batches)
}

/// Runs every probe at `shape`, returning `(metric name, value)` pairs.
pub fn run(shape: &Shape, seed: u64) -> Result<Vec<(&'static str, f64)>, BoxError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (m, k, s, n) = (shape.m(), shape.k, shape.s, shape.n);
    let model = LinearRegression::new(shape.d);
    let p = model.num_params();
    let data = synthetic::linear_regression(n, shape.d, 0.01, &mut rng);
    let params = model.init_params(&mut rng);
    let mut out = Vec::new();

    // coding: construction, encode, plan solve (miss), cache probe (hit),
    // decode.
    let construct = seconds_per_call(|| {
        black_box(heter_aware(&shape.rates, k, s, &mut rng).expect("feasible by construction"));
    });
    out.push(("coding.construct_ms", construct * 1e3));
    let code = heter_aware(&shape.rates, k, s, &mut rng)?;
    let ranges: Vec<(usize, usize)> = PartitionAssignment::even(n, k)?.iter().collect();
    let mut partials = GradientBlock::new(0, 0);
    let grads = seconds_per_call(|| {
        partial_gradients_into(&model, &params, &data, &ranges, &mut partials);
    });
    out.push(("ml.grad_us_per_sample", grads * 1e6 / n as f64));
    let loss = seconds_per_call(|| {
        black_box(model.loss(&params, &data, (0, n)));
    });
    out.push(("ml.loss_eval_ms", loss * 1e3));

    let codec = CompiledCodec::new(code.clone());
    let mut arrivals: GradientBlock = GradientBlock::new(m, p);
    let encode = seconds_per_call(|| {
        for w in 0..m {
            codec
                .encode_into(w, &partials, arrivals.row_mut(w))
                .expect("shapes match");
        }
    });
    out.push(("coding.encode_us_per_worker", encode * 1e6 / m as f64));

    // Two survivor sets alternating through a one-entry cache: every
    // lookup is a miss and pays the dense solve.
    let drop_first: Vec<usize> = (s..m).collect();
    let drop_last: Vec<usize> = (0..m - s).collect();
    let missing = CompiledCodec::with_cache_capacity(code.clone(), 1);
    let mut flip = false;
    let solve = seconds_per_call(|| {
        flip = !flip;
        let survivors = if flip { &drop_first } else { &drop_last };
        black_box(missing.decode_plan(survivors).expect("within budget"));
    });
    out.push(("coding.plan_solve_us", solve * 1e6));
    let plan = codec.decode_plan(&drop_last)?;
    let probe = seconds_per_call(|| {
        black_box(codec.decode_plan(&drop_last).expect("cached"));
    });
    out.push(("coding.cache_probe_ns", probe * 1e9));
    let mut gradient = vec![0.0; p];
    let decode = seconds_per_call(|| {
        plan.apply_block_into(&arrivals, &mut gradient)
            .expect("shapes match");
    });
    out.push(("coding.decode_us", decode * 1e6));

    // linalg: the decode kernel as a stream rate, and an LU factor + solve
    // of the survivor-matrix size.
    let rows = m - s;
    let coeffs: Vec<f64> = (0..rows).map(|i| 1.0 + i as f64).collect();
    let kernel = seconds_per_call(|| {
        kernels::block_decode(&coeffs, &|i| arrivals.row(i), &mut gradient);
    });
    out.push((
        "linalg.block_decode_gbps",
        (rows * p * 8) as f64 / kernel / 1e9,
    ));
    let square = Matrix::from_fn(rows, rows, |_, _| rng.gen_range(-1.0..1.0));
    let rhs = vec![1.0; rows];
    let lu = seconds_per_call(|| {
        let factored = square.lu().expect("square");
        black_box(factored.solve(&rhs).ok());
    });
    out.push(("linalg.lu_solve_us", lu * 1e6));

    // sim: one simulated BSP iteration, decode session included.
    let events = vec![StragglerEvent::Normal; m];
    let mut session = codec.session();
    let sim_cfg = BspIterationConfig::new(&shape.rates).work_per_partition(n as f64 / k as f64);
    let sim = seconds_per_call(|| {
        black_box(
            simulate_bsp_iteration_in(&codec, &sim_cfg, &events, &mut rng, &mut session)
                .expect("valid config"),
        );
    });
    out.push(("sim.iteration_us", sim * 1e6));

    // net: one gradient chunk frame, as a worker streams them.
    let chunk: Vec<f64> = gradient.iter().take(DEFAULT_CHUNK_LEN).copied().collect();
    let chunk_mb = (chunk.len() * 8) as f64 / 1e6;
    let frame = Frame::GradientChunk {
        seq: 1,
        worker: 0,
        offset: 0,
        total: p as u32,
        data: chunk.clone(),
    };
    let bytes = frame.encode();
    let frame_encode = seconds_per_call(|| {
        black_box(frame.encode());
    });
    out.push(("net.frame_encode_mbps", chunk_mb / frame_encode));
    let frame_decode = seconds_per_call(|| {
        black_box(Frame::decode(&bytes).expect("round-trips"));
    });
    out.push(("net.frame_decode_mbps", chunk_mb / frame_decode));

    // comm: the wire codecs over the same chunk.
    let mut sizes = [0usize; 2];
    for (i, (encoding, enc_name, dec_name)) in [
        (
            PayloadEncoding::F64,
            "comm.encode_mbps.f64",
            "comm.decode_mbps.f64",
        ),
        (
            PayloadEncoding::Int8,
            "comm.encode_mbps.int8",
            "comm.decode_mbps.int8",
        ),
    ]
    .into_iter()
    .enumerate()
    {
        let wire = AnyWireCodec::for_encoding(encoding);
        let mut payload = Vec::new();
        let enc = seconds_per_call(|| {
            payload.clear();
            wire.encode_into(&chunk, &mut payload)
                .expect("finite input");
        });
        out.push((enc_name, chunk_mb / enc));
        let mut back = vec![0.0; chunk.len()];
        let dec = seconds_per_call(|| {
            wire.decode_into(&payload, &mut back).expect("own output");
        });
        out.push((dec_name, chunk_mb / dec));
        sizes[i] = payload.len();
    }
    out.push((
        "comm.int8_compression_ratio",
        sizes[0] as f64 / sizes[1] as f64,
    ));

    // telemetry: one round's samples into the hub.
    let samples: Vec<RoundSample> = (0..m)
        .map(|w| RoundSample::completed(w, 10.0, 1e-3, 1.1e-3))
        .collect();
    let mut hub = TelemetryHub::new(m, 0.4, 32);
    let ingest = seconds_per_call(|| hub.ingest(1e-3, 0.0, &samples));
    out.push(("telemetry.ingest_ns_per_sample", ingest * 1e9 / m as f64));

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Kind;

    #[test]
    fn every_probe_reports_a_positive_number() {
        let values = run(&Kind::SchedBatch.shape(), 3).unwrap();
        assert_eq!(values.len(), 18);
        for (name, value) in values {
            assert!(value.is_finite() && value > 0.0, "{name} = {value}");
        }
    }
}
