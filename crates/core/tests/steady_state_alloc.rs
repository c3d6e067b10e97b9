//! The zero-allocation guarantee of the pooled data plane, enforced with
//! a counting global allocator: after a short warm-up, the codec
//! encode/decode hot path of a sim-BSP round — arrivals streamed through
//! a reused `CodecSession`, partial gradients written into a reused
//! `GradientBlock` via `gradient_into`, `encode_into` per plan worker,
//! `apply_into` over the arrival block — performs **zero** heap
//! allocations.
//!
//! This file intentionally holds exactly one `#[test]`, and the counter
//! counts only while the *measuring thread* has switched it on: the test
//! harness's own main thread allocates now and then while it waits (about
//! one run in eight on a loaded box), and that is not the codec's doing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use hetgc::{
    heter_aware, partial_gradients_into, synthetic, BufferPool, CompiledCodec, GradientBlock,
    GradientCodec, LinearRegression, Model, PartitionAssignment,
};
use hetgc_comm::{AnyWireCodec, ErrorFeedback, PayloadEncoding, WireCodec};
use hetgc_obs::{CodecMetrics, MetricValue, MetricsRegistry, Phase, Recorder};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Wraps the system allocator, counting allocations while enabled.
struct CountingAlloc;

thread_local! {
    // Const-initialized and without a destructor, so reading it inside the
    // allocator neither allocates nor runs after thread teardown.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn counting() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_round_allocates_nothing_on_the_codec_hot_path() {
    // Example 1's cluster: 5 workers, 7 partitions, s = 1.
    let mut rng = StdRng::seed_from_u64(5);
    let code = heter_aware(&[1.0, 2.0, 3.0, 4.0, 4.0], 7, 1, &mut rng).unwrap();
    let codec = CompiledCodec::new(code);
    let (m, k) = (codec.workers(), codec.partitions());

    let model = LinearRegression::new(5);
    let d = model.num_params();
    let data = synthetic::linear_regression(70, 5, 0.02, &mut rng);
    let assignment = PartitionAssignment::even(data.len(), k).unwrap();
    let ranges: Vec<(usize, usize)> = assignment.iter().collect();
    let params = model.init_params(&mut rng);

    // The pooled round state, held across rounds exactly like the engines
    // hold it: one session, one partial-gradient block, one arrival
    // block, one decoded-gradient buffer.
    let mut session = codec.session();
    let mut partials = GradientBlock::new(k, d);
    let mut arrivals = GradientBlock::new(m, d);
    let mut decoded = vec![0.0; d];

    // Worker 2 straggles every round: the master decodes from the same
    // m − s survivors — the steady state of a consistently slow VM.
    let arrival_order = [4usize, 0, 3, 1];

    let round = |session: &mut hetgc::CodecSession,
                 partials: &mut GradientBlock,
                 arrivals: &mut GradientBlock,
                 decoded: &mut [f64]| {
        session.reset();
        for &w in &arrival_order {
            if session.push_arrival(w).unwrap() {
                break;
            }
        }
        let plan = session.decoded_plan().expect("m − s survivors decode");
        partial_gradients_into(&model, &params, &data, &ranges, partials);
        for (w, _) in plan.iter() {
            // Split-borrow dance: encode into the arrival row directly.
            codec.encode_into(w, partials, arrivals.row_mut(w)).unwrap();
        }
        plan.apply_block_into(arrivals, decoded).unwrap();
    };

    // Warm-up: first rounds grow the session pool, the blocks and the
    // plan slot to their steady-state capacities (the pool's own spine
    // vector doubles for the last time around round four).
    for _ in 0..6 {
        round(&mut session, &mut partials, &mut arrivals, &mut decoded);
    }
    let reference = decoded.clone();

    // Measure: the steady state must not touch the heap at all.
    ALLOCS.store(0, Ordering::SeqCst);
    ALLOC_BYTES.store(0, Ordering::SeqCst);
    COUNTING.set(true);
    for _ in 0..10 {
        round(&mut session, &mut partials, &mut arrivals, &mut decoded);
    }
    COUNTING.set(false);

    let allocs = ALLOCS.load(Ordering::SeqCst);
    let bytes = ALLOC_BYTES.load(Ordering::SeqCst);
    assert_eq!(
        allocs, 0,
        "steady-state rounds allocated {allocs} times ({bytes} bytes) \
         on the codec encode/decode hot path"
    );

    // And it still computes the right thing: the decode is deterministic
    // round over round, and equals the direct full-batch gradient.
    assert_eq!(decoded, reference, "steady-state rounds must agree");
    let direct = model.gradient(&params, &data, (0, data.len()));
    for (a, b) in decoded.iter().zip(&direct) {
        assert!((a - b).abs() <= 1e-6 * (1.0 + b.abs()), "{a} vs {b}");
    }

    // The pool actually served the measured rounds (hits, not misses).
    assert!(session.pool().hits() > 0, "pool must be recycling buffers");

    // The same guarantee with the observability stack attached: a
    // preallocated flight-recorder ring, counter/histogram handles, and
    // the codec's cache-probe hooks record every round without touching
    // the heap. Registration (the only allocating part) happens here,
    // before the counter arms. (Still the single #[test] — see above.)
    let registry = MetricsRegistry::new();
    let recorder = Recorder::new(512);
    let codec_metrics = CodecMetrics::new(&registry, "steady").with_recorder(recorder.clone());
    let rounds_total = registry.counter("rounds_total", "rounds", &[]);
    let round_seconds = registry.histogram("round_seconds", "latency", &[]);
    let observed_round = |session: &mut hetgc::CodecSession,
                          partials: &mut GradientBlock,
                          arrivals: &mut GradientBlock,
                          decoded: &mut [f64]| {
        let started = std::time::Instant::now();
        session.reset();
        for &w in &arrival_order {
            recorder.instant(Phase::Arrival, (w + 1) as u64);
            if session.push_arrival(w).unwrap() {
                break;
            }
        }
        // The session's plan slot is reused round over round — the
        // metrics layer books it exactly as the engine decode path does.
        codec_metrics.hit();
        let plan = session.decoded_plan().expect("m − s survivors decode");
        partial_gradients_into(&model, &params, &data, &ranges, partials);
        let decode_span = recorder.span(Phase::Decode);
        for (w, _) in plan.iter() {
            codec.encode_into(w, partials, arrivals.row_mut(w)).unwrap();
        }
        plan.apply_block_into(arrivals, decoded).unwrap();
        drop(decode_span);
        rounds_total.inc();
        round_seconds.observe(started.elapsed().as_secs_f64());
    };
    for _ in 0..6 {
        observed_round(&mut session, &mut partials, &mut arrivals, &mut decoded);
    }
    ALLOCS.store(0, Ordering::SeqCst);
    ALLOC_BYTES.store(0, Ordering::SeqCst);
    COUNTING.set(true);
    for _ in 0..10 {
        observed_round(&mut session, &mut partials, &mut arrivals, &mut decoded);
    }
    COUNTING.set(false);
    let allocs_obs = ALLOCS.load(Ordering::SeqCst);
    let bytes_obs = ALLOC_BYTES.load(Ordering::SeqCst);
    assert_eq!(
        allocs_obs, 0,
        "metrics-enabled steady-state rounds allocated {allocs_obs} times \
         ({bytes_obs} bytes) on the codec hot path"
    );
    assert_eq!(decoded, reference, "observed rounds must still agree");
    assert_eq!(
        registry
            .snapshot()
            .get("hetgc_plan_cache_hits_total", &[("codec", "steady")]),
        Some(&MetricValue::Counter(16))
    );
    assert!(
        recorder.recorded() >= 16 * 5,
        "recorder captured the rounds"
    );

    // The int8 wire codecs hold the guarantee too: each arrival row is
    // carried through the full worker-side lossy path — carried residual
    // folded in, quantized into a reused wire buffer, what quantization
    // dropped carried on — in a pooled copy from `checkout_copied`.
    // (Still the single #[test] — the counter is process-global.)
    let wire_codec = AnyWireCodec::for_encoding(PayloadEncoding::Int8);
    let mut wire_pool: BufferPool = BufferPool::new(d);
    let mut wire = Vec::new();
    let mut feedback: Vec<ErrorFeedback> = (0..m).map(|_| ErrorFeedback::new(d)).collect();
    let wire_round = |arrivals: &GradientBlock,
                      pool: &mut BufferPool,
                      wire: &mut Vec<u8>,
                      feedback: &mut [ErrorFeedback]| {
        for &w in &arrival_order {
            let mut intended = pool.checkout_copied(arrivals.row(w));
            let err_sq = wire_codec
                .encode_feedback(&mut intended, feedback[w].residual_mut(), wire)
                .expect("finite arrival row quantizes");
            assert!(err_sq.is_finite());
            assert_eq!(wire.len(), wire_codec.encoded_len(d));
            pool.recycle(intended);
        }
    };
    for _ in 0..6 {
        wire_round(&arrivals, &mut wire_pool, &mut wire, &mut feedback);
    }
    ALLOCS.store(0, Ordering::SeqCst);
    ALLOC_BYTES.store(0, Ordering::SeqCst);
    COUNTING.set(true);
    for _ in 0..10 {
        wire_round(&arrivals, &mut wire_pool, &mut wire, &mut feedback);
    }
    COUNTING.set(false);
    let allocs_wire = ALLOCS.load(Ordering::SeqCst);
    let bytes_wire = ALLOC_BYTES.load(Ordering::SeqCst);
    assert_eq!(
        allocs_wire, 0,
        "steady-state int8 wire rounds allocated {allocs_wire} times \
         ({bytes_wire} bytes) on the quantize hot path"
    );
    assert!(wire_pool.hits() > 0, "wire pool must be recycling scratch");
}
