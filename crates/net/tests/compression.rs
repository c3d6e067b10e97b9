//! Cross-encoding differential harness: the same training run over four
//! real `hetgc-worker` processes under `int8` and the full-width `f64`
//! baseline, compared against each other.
//!
//! What this pins, end to end over real sockets:
//!
//! * negotiation — every link lands on the requested encoding (the
//!   workers advertise it in their `Hello`), observable via
//!   [`SocketCluster::link_encodings`];
//! * fidelity — `Int8Quant` **with error feedback** tracks the `f64`
//!   loss to 1e-3;
//! * compression — per-link `bytes_received` drops by ≥ 4x (int8)
//!   against the baseline run;
//! * reporting — the measured quantization error surfaces in each
//!   lossy [`hetgc::RoundRecord`] (and its JSON), and stays exactly
//!   absent from lossless runs.

use std::sync::Arc;

use hetgc::{naive, synthetic, LinearRegression, Sgd, TrainDriver, TrainOutcome};
use hetgc_net::{
    ModelSpec, PayloadEncoding, SocketCluster, SocketEngine, SocketListener, WorkerFleet,
    DEFAULT_CHUNK_LEN,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const DIM: usize = 512;
const SAMPLES: usize = 768;
const WORKERS: usize = 4;
const ROUNDS: usize = 200;
const SEED: u64 = 11;

struct EncodedRun {
    outcome: TrainOutcome,
    /// Per-link bytes received by the master over the whole run
    /// (accept order).
    link_received: Vec<u64>,
    negotiated: Vec<PayloadEncoding>,
}

/// One full training run over four worker processes with `encoding`
/// requested for every link.
fn run(encoding: PayloadEncoding) -> EncodedRun {
    let mut rng = StdRng::seed_from_u64(42);
    let data = Arc::new(synthetic::linear_regression(SAMPLES, DIM, 0.05, &mut rng));
    let model = Arc::new(LinearRegression::new(DIM));
    let config = hetgc::RuntimeConfig::nominal(WORKERS);

    let listener = SocketListener::bind().expect("bind loopback");
    let addr = listener.addr().to_string();
    let _fleet = WorkerFleet::spawn(env!("CARGO_BIN_EXE_hetgc-worker"), &addr, WORKERS)
        .expect("spawn workers");
    let cluster = SocketCluster::start_encoded(
        listener,
        naive(WORKERS).expect("naive code"),
        Arc::clone(&model),
        ModelSpec::Linear { dim: DIM as u32 },
        Arc::clone(&data),
        &config,
        DEFAULT_CHUNK_LEN,
        encoding,
    )
    .expect("socket cluster start");
    let negotiated = cluster.link_encodings().to_vec();
    let links = cluster.link_stats();

    let mut engine = SocketEngine::new(cluster);
    let mut step_rng = StdRng::seed_from_u64(SEED);
    let outcome = TrainDriver::new(model.as_ref(), data.as_ref(), Sgd::new(0.25))
        .run(&mut engine, ROUNDS, &mut step_rng)
        .expect("socket run");
    EncodedRun {
        outcome,
        link_received: links.iter().map(|l| l.received_bytes()).collect(),
        negotiated,
    }
}

#[test]
fn quantized_links_compress_without_losing_the_trajectory() {
    let f64_run = run(PayloadEncoding::F64);
    let int8_run = run(PayloadEncoding::Int8);

    // Negotiation: the spawned workers advertise int8, so each of the
    // four links lands on exactly what was requested.
    assert_eq!(f64_run.negotiated, vec![PayloadEncoding::F64; WORKERS]);
    assert_eq!(int8_run.negotiated, vec![PayloadEncoding::Int8; WORKERS]);

    // Both runs actually trained.
    for (label, r) in [("f64", &f64_run), ("int8", &int8_run)] {
        assert_eq!(r.outcome.rounds(), ROUNDS, "{label} run finished");
        let first = r.outcome.records.first().and_then(|rec| rec.loss).unwrap();
        let last = r.outcome.final_loss().unwrap();
        assert!(last < first, "{label}: no convergence ({first} -> {last})");
    }

    // Fidelity: int8 with worker-side error feedback holds the 1e-3
    // acceptance bound.
    let base = f64_run.outcome.final_loss().unwrap();
    let int8_loss = int8_run.outcome.final_loss().unwrap();
    assert!(
        (int8_loss - base).abs() < 1e-3 * (1.0 + base),
        "int8+EF loss {int8_loss} strays from f64 loss {base}"
    );

    // Compression: every link's total received bytes shrink by at least
    // the int8 floor (frame headers and round-control traffic are
    // part of the measurement — this is real wire footprint, not payload
    // arithmetic).
    assert_eq!(f64_run.link_received.len(), WORKERS);
    for w in 0..WORKERS {
        let base_bytes = f64_run.link_received[w] as f64;
        let int8_ratio = base_bytes / int8_run.link_received[w] as f64;
        assert!(
            int8_ratio >= 4.0,
            "link {w}: int8 saved only {int8_ratio:.2}x ({} -> {})",
            f64_run.link_received[w],
            int8_run.link_received[w]
        );
    }

    // Reporting: every lossy round carries its measured quantization
    // error into the RoundRecord and its JSON line; lossless rounds
    // stay bitwise on the legacy layout (no `wire_error` key at all).
    for rec in &int8_run.outcome.records {
        assert!(
            rec.wire_error > 0.0,
            "round {}: int8 round lost its wire error",
            rec.round
        );
        assert!(rec.to_json().contains("\"wire_error\":"));
    }
    for rec in &f64_run.outcome.records {
        assert_eq!(rec.wire_error, 0.0);
        assert!(!rec.to_json().contains("wire_error"));
    }
    // The quantized runs also gated their steps: a lossy round's step
    // scale dips below the lossless run's on the same round index.
    let gated = int8_run
        .outcome
        .records
        .iter()
        .zip(&f64_run.outcome.records)
        .all(|(i8r, f64r)| i8r.step_scale <= f64r.step_scale);
    assert!(gated, "int8 step scaling never tightened under wire error");
}
