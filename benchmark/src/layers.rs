//! The traced run of one workload: a short untraced pass, a pass with the
//! program's `Recorder` attached through the public observer hook, the
//! comparisons only this run makes (cyclic vs heter-aware, pipelined vs
//! sequential, scheduled vs back-to-back), and the layer probes. Produces
//! the per-layer metrics and `benchmark/out/trace-<workload>.json`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use hetgc_suite::obs::{MetricsRegistry, Phase, RunObserver};

use crate::measure::{target_round, window, RoundStats, WARMUP_ROUNDS};
use crate::probes;
use crate::spec::{self, phase_metric};
use crate::stats;
use crate::timed::Window;
use crate::trace::{
    breakdown, timed_spans, write_chrome_trace, AlignedRecorder, BenchSpan, RING_CAPACITY,
};
use crate::workloads::{
    hetero_optimum_seconds, sched_batch, training_pass, BoxError, Kind, Pass, Plan, RunData,
    Variant, SCHED_ROUNDS, SCHED_TENANTS,
};

/// Shares of the run's `--seconds` given to each pass; the probes and
/// set-up take the rest.
const UNTRACED_SHARE: f64 = 0.25;
const TRACED_SHARE: f64 = 0.40;
const COMPARISON_SHARE: f64 = 0.20;
/// Simulated rounds `sim.round_sim_s` averages over — a fixed count, so
/// the value depends on the seed alone.
const SIM_ROUNDS: usize = 500;

/// One traced run.
#[derive(Debug)]
pub struct Report {
    /// Measured per-layer values by metric name. A metric of a layer the
    /// workload never enters is absent here (and written as 0 in the
    /// result line, which must carry every name).
    pub values: BTreeMap<String, f64>,
    pub attempted: usize,
    pub failed: usize,
    pub violations: Vec<String>,
    pub trace_file: PathBuf,
}

impl Report {
    fn set(&mut self, metric: &str, value: f64) {
        self.values.insert(metric.to_owned(), value);
    }
}

pub fn run(kind: Kind, name: &str, seed: u64, seconds: f64) -> Result<Report, BoxError> {
    let trace_file = PathBuf::from(format!("benchmark/out/trace-{name}.json"));
    let mut report = Report {
        values: BTreeMap::new(),
        attempted: 0,
        failed: 0,
        violations: Vec::new(),
        trace_file,
    };
    if kind == Kind::SchedBatch {
        trace_sched(seed, seconds, &mut report)?;
    } else {
        trace_training(kind, seed, seconds, &mut report)?;
    }
    for (metric, value) in probes::run(&kind.shape(), seed)? {
        report.set(metric, value);
    }
    let known: Vec<String> = spec::per_layer().into_iter().map(|m| m.name).collect();
    for metric in report.values.keys() {
        assert!(known.contains(metric), "{metric} is not in the spec");
    }
    Ok(report)
}

fn windowed(seconds: f64, max_rounds: usize) -> Option<Window> {
    Some(Window {
        max_rounds,
        ..window(seconds)
    })
}

/// Books a pass's rounds and returns its round statistics.
fn account(report: &mut Report, run: &RunData) -> RoundStats {
    let stamps = &run.stamps;
    report.attempted += stamps.starts.len();
    let failed = stamps.starts.len() - run.outcome.rounds();
    if failed > 0 {
        report.failed += failed;
        report
            .violations
            .push(format!("{failed} rounds failed on a traced-run pass"));
    }
    RoundStats::pooled([stamps])
}

fn pass(kind: Kind, seed: u64, plan: Plan) -> Result<(Pass, RunData), BoxError> {
    let mut pass = training_pass(kind, seed, plan)?;
    let run = pass.run.take().expect("a windowed pass runs");
    Ok((pass, run))
}

fn trace_training(
    kind: Kind,
    seed: u64,
    seconds: f64,
    report: &mut Report,
) -> Result<(), BoxError> {
    let shape = kind.shape();

    // Untraced, for the overhead of tracing.
    let plan = Plan {
        window: windowed(seconds * UNTRACED_SHARE, usize::MAX),
        ..Plan::default()
    };
    let (_, untraced_run) = pass(kind, seed, plan)?;
    let untraced = account(report, &untraced_run);
    // What the untraced run measures but cannot hold a bound against.
    report.set("core.round_ms_p50", untraced.p50_ms);
    report.set("core.round_ms_p99", untraced.tail_ms);
    // A miss is not a violation here: this pass is a quarter of the run,
    // and a short smoke run may end before the target.
    if let Ok(round) = target_round(&untraced_run.outcome.records) {
        report.set("core.rounds_to_target", round as f64);
        let wall = untraced_run.stamps.seconds_until_done(round);
        report.set(
            "core.time_to_target_wall_s",
            wall.expect("a recorded round was stamped"),
        );
    }
    drop(untraced_run);

    // Traced: the recorder reaches the engine through the driver's
    // observer, exactly as a user would attach it. The pass ends before
    // the in-memory ring could wrap.
    let aligned = AlignedRecorder::new();
    let observer = RunObserver::new(&MetricsRegistry::new(), "benchmark", shape.m())
        .with_recorder(aligned.recorder.clone());
    let plan = Plan {
        window: windowed(
            seconds * TRACED_SHARE,
            RING_CAPACITY / (shape.m() + 16) - WARMUP_ROUNDS,
        ),
        observer: Some(observer),
        ..Plan::default()
    };
    let (traced_pass, run) = pass(kind, seed, plan)?;
    let traced = account(report, &run);
    let stamps = &run.stamps;
    let rounds = stamps.starts.len() - stamps.warmup;

    let (events, to_ns) = aligned.events();
    let from = to_ns(stamps.starts[stamps.warmup]);
    let to = to_ns(*stamps.ends.last().expect("at least one round"));
    let parts = breakdown(&events, from, to);
    for (phase, stats) in Phase::all().into_iter().zip(parts.phases) {
        report.set(&phase_metric(phase, "share"), stats.share);
        report.set(&phase_metric(phase, "p50_us"), stats.p50_us);
        report.set(&phase_metric(phase, "p99_us"), stats.p99_us);
    }
    report.set("obs.unattributed_share", parts.unattributed_share);
    report.set("obs.events_per_round", parts.events as f64 / rounds as f64);
    report.set("obs.traced_rounds", rounds as f64);
    report.set("obs.traced_rounds_per_s", traced.rounds_per_s);
    report.set("obs.untraced_rounds_per_s", untraced.rounds_per_s);
    report.set(
        "obs.trace_overhead_pct",
        100.0 * (untraced.rounds_per_s - traced.rounds_per_s) / untraced.rounds_per_s,
    );
    write_chrome_trace(&report.trace_file, &events, &timed_spans(stamps), to_ns)?;

    // core: where the round goes between the engine and the driver.
    report.set("core.engine_round_ms", stats::median(&stamps.engine_ms()));
    report.set(
        "core.driver_overhead_ms",
        stats::median(&stamps.driver_gap_ms()),
    );
    let measured = &run.outcome.records[stamps.warmup.min(run.outcome.rounds())..];
    let per_round = |f: &dyn Fn(&hetgc_suite::hetgc::RoundRecord) -> f64| {
        stats::mean(&measured.iter().map(f).collect::<Vec<_>>())
    };
    report.set(
        "core.alloc_bytes_per_round",
        per_round(&|r| r.alloc_bytes as f64),
    );
    report.set(
        "coding.pool_hits_per_round",
        per_round(&|r| r.pool_hits as f64),
    );
    let (hits, misses) = run.plan_cache;
    if hits + misses > 0 {
        report.set(
            "coding.plan_cache_hit_ratio",
            hits as f64 / (hits + misses) as f64,
        );
    }

    if let Some(links) = run.links {
        let all = run.outcome.rounds() as f64;
        report.set(
            "net.bytes_sent_per_round",
            per_round(&|r| r.bytes_sent as f64),
        );
        report.set(
            "net.bytes_received_per_round",
            per_round(&|r| r.bytes_received as f64),
        );
        report.set(
            "net.frames_per_round",
            (links.frames_sent + links.frames_received) as f64 / all,
        );
        report.set(
            "comm.wire_error_p50",
            stats::median(&measured.iter().map(|r| r.wire_error).collect::<Vec<_>>()),
        );
        if let Some(handshake_s) = traced_pass.handshake_s {
            report.set("net.handshake_ms", handshake_s * 1e3);
        }
        if !run.encodings_ok {
            report
                .violations
                .push("a link negotiated another payload encoding than requested".into());
        }
    }

    match kind {
        Kind::HeteroThrottled => {
            let optimum = hetero_optimum_seconds();
            let ratio = traced.p50_ms / 1e3 / optimum;
            report.set("runtime.theorem5_ratio", ratio);
            report.set(
                "runtime.round_over_optimum_ms",
                traced.p50_ms - optimum * 1e3,
            );
            if ratio > 1.10 {
                report.violations.push(format!(
                    "the median round is {ratio:.3}x the Theorem-5 optimum {:.3} ms (allowed 1.10x)",
                    optimum * 1e3
                ));
            }
            // The cyclic scheme's rounds are ~3x longer: a shorter warm-up
            // leaves it a usable window.
            let plan = Plan {
                window: Some(Window {
                    warmup: 10,
                    measure: Duration::from_secs_f64(seconds * COMPARISON_SHARE),
                    min_rounds: 0,
                    max_rounds: usize::MAX,
                }),
                variant: Variant::Cyclic,
                ..Plan::default()
            };
            let (_, cyclic_run) = pass(kind, seed, plan)?;
            let cyclic = account(report, &cyclic_run);
            let speedup = cyclic.p50_ms / traced.p50_ms;
            report.set("runtime.speedup_vs_cyclic", speedup);
            if speedup <= 1.0 {
                report.violations.push(format!(
                    "heter-aware is not faster than cyclic ({speedup:.3}x)"
                ));
            }
        }
        Kind::SimBspMiss => {
            let simulated: Vec<f64> = run
                .outcome
                .records
                .iter()
                .take(SIM_ROUNDS)
                .map(|r| r.elapsed)
                .collect();
            report.set("sim.round_sim_s", stats::mean(&simulated));
        }
        Kind::ThreadedPipelined => {
            let plan = Plan {
                window: windowed(seconds * COMPARISON_SHARE, usize::MAX),
                variant: Variant::Sequential,
                ..Plan::default()
            };
            let (_, sequential_run) = pass(kind, seed, plan)?;
            let sequential = account(report, &sequential_run);
            report.set(
                "core.pipelined_speedup",
                untraced.rounds_per_s / sequential.rounds_per_s,
            );
        }
        Kind::SocketF64 | Kind::SocketInt8 | Kind::SchedBatch => {}
    }
    Ok(())
}

/// `sched-batch` has no engine the benchmark could wrap and the scheduler
/// takes a metrics registry but no recorder, so its traced run has no
/// program spans: it reports the scheduler's own counters, the cost of
/// observing every tenant, and the scheduled-vs-sequential comparison.
fn trace_sched(seed: u64, seconds: f64, report: &mut Report) -> Result<(), BoxError> {
    let per_batch = SCHED_TENANTS * SCHED_ROUNDS;
    let rate = |wall: f64| per_batch as f64 / wall;

    let aligned = AlignedRecorder::new();
    let mut spans: Vec<BenchSpan> = Vec::new();
    let mut batch = |name, rounds, concurrent, metrics| {
        let started = Instant::now();
        let report = sched_batch(seed, rounds, concurrent, metrics);
        spans.push((name, started, Instant::now()));
        report
    };
    let plain = batch("bench.batch", SCHED_ROUNDS, true, None)?;
    let registry = Some(MetricsRegistry::new());
    let observed = batch("bench.batch_observed", SCHED_ROUNDS, true, registry)?;
    let (untraced, traced) = (rate(plain.wall_seconds), rate(observed.wall_seconds));
    report.set("obs.untraced_rounds_per_s", untraced);
    report.set("obs.traced_rounds_per_s", traced);
    report.set(
        "obs.trace_overhead_pct",
        100.0 * (untraced - traced) / untraced,
    );
    report.set("obs.traced_rounds", per_batch as f64);
    report.set("obs.events_per_round", 0.0);
    report.set("obs.unattributed_share", 1.0);

    report.set("sched.makespan_s", plain.wall_seconds);
    report.set("sched.jobs_per_s", plain.jobs_per_sec());
    report.set("sched.peak_active", plain.peak_concurrent as f64);
    report.set(
        "sched.shared_plan_hit_ratio",
        plain.cache_hits as f64 / plain.cache_lookups.max(1) as f64,
    );
    report.set(
        "coding.plan_cache_hit_ratio",
        plain.cache_hits as f64 / plain.cache_lookups.max(1) as f64,
    );
    let records: Vec<&hetgc_suite::hetgc::RoundRecord> =
        plain.outcomes.iter().flat_map(|o| &o.records).collect();
    let per_round = |f: &dyn Fn(&hetgc_suite::hetgc::RoundRecord) -> f64| {
        stats::mean(&records.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    report.set(
        "core.alloc_bytes_per_round",
        per_round(&|r| r.alloc_bytes as f64),
    );
    report.set(
        "coding.pool_hits_per_round",
        per_round(&|r| r.pool_hits as f64),
    );
    let engine_ms = stats::sorted(&records.iter().map(|r| r.elapsed * 1e3).collect::<Vec<_>>());
    report.set(
        "core.engine_round_ms",
        stats::quantile_sorted(&engine_ms, 0.5),
    );
    report.set("core.round_ms_p50", stats::quantile_sorted(&engine_ms, 0.5));
    report.set(
        "core.round_ms_p99",
        stats::quantile_sorted(&engine_ms, 0.99),
    );
    let slowest = plain
        .outcomes
        .iter()
        .filter_map(|o| {
            target_round(&o.records)
                .ok()
                .map(|r| (r, o.records[r - 1].time))
        })
        .max_by_key(|(round, _)| *round);
    if let Some((round, clock)) = slowest {
        report.set("core.rounds_to_target", round as f64);
        report.set("core.time_to_target_wall_s", clock);
    }

    // Back to back, on fewer rounds (it is ~4x slower by design); both
    // makespans are scaled to one round per tenant before comparing.
    let short = ((SCHED_ROUNDS as f64 * seconds / 40.0) as usize).clamp(50, SCHED_ROUNDS);
    let sequential = batch("bench.batch_sequential", short, false, None)?;
    report.set(
        "sched.sequential_speedup",
        (sequential.wall_seconds / short as f64) / (plain.wall_seconds / SCHED_ROUNDS as f64),
    );

    let mut completed = 0;
    for batch in [&plain, &observed, &sequential] {
        if batch.outcomes.len() != SCHED_TENANTS {
            report.violations.push(format!(
                "a batch returned {} outcomes",
                batch.outcomes.len()
            ));
        }
        completed += batch.outcomes.iter().map(|o| o.rounds()).sum::<usize>();
    }
    report.attempted = 2 * per_batch + SCHED_TENANTS * short;
    report.failed = report.attempted - completed;
    if report.failed > 0 {
        report
            .violations
            .push(format!("{} rounds failed", report.failed));
    }
    // No program spans, so the trace file holds the benchmark's own only.
    let (events, to_ns) = aligned.events();
    write_chrome_trace(&report.trace_file, &events, &spans, to_ns)?;
    Ok(())
}
