//! What the ledger measures: the six workloads, the end-to-end metrics
//! with their regression bounds, and the per-layer metrics with the
//! end-to-end metric each is expected to move. `BENCHMARK.json` at the
//! repository root is this module written down (a unit test holds the two
//! together); `--list` prints it.

use hetgc_suite::obs::Phase;

use crate::workloads::Kind;

/// One reference workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    /// Why it exists — one line, as in `BENCHMARK.json`.
    pub why: &'static str,
    /// The layers that do the work in it.
    pub layers: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        kind: Kind::HeteroThrottled,
        name: "hetero-throttled",
        why: "8 threaded workers throttled to Cluster-A rates, s=1, one 50 ms straggler: the paper's \
              headline; workers sleep, so rounds sit on the Theorem-5 time and kernels must not matter",
        layers: "runtime (dispatch, collect wait), core (driver loop)",
    },
    Workload {
        kind: Kind::SimBspMiss,
        name: "sim-bsp-miss",
        why: "single-threaded simulated BSP on Cluster-D (58 workers, s=3, 3 random stragglers a round): \
              the master's codec path is all the wall time and nearly every survivor set is new",
        layers: "coding (streaming solve, encode, decode), ml (partial gradients), sim, linalg",
    },
    Workload {
        kind: Kind::ThreadedPipelined,
        name: "threaded-pipelined",
        why: "4 native-speed threaded workers, d=8192, on the PipelinedDriver: master-side decode, \
              step and loss evaluation are comparable to worker compute, so overlap decides the round",
        layers: "core (pipelined loop, step, loss), linalg (block_decode), runtime, ml",
    },
    Workload {
        kind: Kind::SocketF64,
        name: "socket-f64",
        why: "4 run_worker threads over loopback TCP, d=4096, full-width f64 payloads: framing, \
              per-link reader threads and reassembly copies dominate; nothing sleeps",
        layers: "net (frames, connections, reader threads), comm (f64 codec), runtime codec path",
    },
    Workload {
        kind: Kind::SocketInt8,
        name: "socket-int8",
        why: "socket-f64 with int8 payloads and error feedback: ~8x fewer received bytes bought with \
              quantize/dequantize CPU; a wire change that helps one encoding at the other's cost shows as a pair",
        layers: "comm (int8 codec, error feedback), net",
    },
    Workload {
        kind: Kind::SchedBatch,
        name: "sched-batch",
        why: "JobScheduler::run with 4 equal-seeded tenants on a shared 4-worker pool with 2/2/2/6 ms \
              delays: leases, contention-aware rates and the shared plan cache; overlap of waiting sets throughput",
        layers: "sched (leases, pool ledger), coding (SharedPlanCache), runtime, telemetry",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// By what share of `old` the value `new` is worse (negative: better).
    pub fn worse_by(self, old: f64, new: f64) -> f64 {
        match self {
            Better::Lower => (new - old) / old,
            Better::Higher => (old - new) / old,
        }
    }
}

/// An end-to-end metric: reported by every workload on every untraced
/// run, held to `bound`.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "everything before round 1 (data synthesis, scheme construction, codec compile, engine \
               start, connect + handshake); median of 8-43 builds a run. sched-batch: a one-round batch",
    },
    EndToEnd {
        name: "rounds_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "sustained rounds per second after warm-up: the upper decile of the rates of 120 slices \
               pooled from four passes. sched-batch: all tenants' rounds / makespan, median over batches",
    },
    EndToEnd {
        name: "time_to_target_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        what: "rounds until the loss (evaluated every 10 rounds) first falls to 1 % of its first \
               evaluated value, / rounds_per_s: seconds to target at the sustained rate. sched-batch: \
               the slowest tenant's own round clock",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
        what: "VmHWM of the run's process (one workload per process), read once 1000 rounds have \
               been measured so that it does not grow with the run's speed",
    },
];

/// A per-layer metric: reported on the traced run, no bound.
#[derive(Debug, Clone)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric it should move, and on which workload.
    pub moves: &'static str,
}

use Better::{Higher, Lower};

/// The per-layer metrics with fixed names, grouped by layer (= crate).
#[rustfmt::skip]
const FIXED_LAYERS: [(&str, &str, Better, &str); 48] = [
    // Probes: run in every traced run, on inputs of that workload's shape.
    ("linalg.block_decode_gbps", "GB/s", Higher, "rounds_per_s on threaded-pipelined, socket-*; rounds_per_s on sim-bsp-miss"),
    ("linalg.lu_solve_us", "us", Lower, "rounds_per_s on sim-bsp-miss (survivor-matrix sized LU + solve)"),
    ("coding.construct_ms", "ms", Lower, "setup_s everywhere (heter_aware at the workload's cluster)"),
    ("coding.encode_us_per_worker", "us", Lower, "rounds_per_s on sim-bsp-miss; rounds_per_s on threaded-pipelined"),
    ("coding.plan_solve_us", "us", Lower, "rounds_per_s on sim-bsp-miss (a decode_plan miss)"),
    ("coding.cache_probe_ns", "ns", Lower, "guard: a decode_plan hit; the 4-worker workloads always hit"),
    ("coding.decode_us", "us", Lower, "rounds_per_s on sim-bsp-miss; rounds_per_s on threaded-pipelined (apply_block_into)"),
    ("ml.grad_us_per_sample", "us", Lower, "rounds_per_s on sim-bsp-miss; time_to_target_s everywhere"),
    ("ml.loss_eval_ms", "ms", Lower, "time_to_target_s everywhere; rounds_per_s on sim-bsp-miss"),
    ("sim.iteration_us", "us", Lower, "rounds_per_s on sim-bsp-miss; must not move sim.round_sim_s"),
    ("net.frame_encode_mbps", "MB/s", Higher, "rounds_per_s on socket-*"),
    ("net.frame_decode_mbps", "MB/s", Higher, "rounds_per_s on socket-*"),
    ("comm.encode_mbps.f64", "MB/s", Higher, "rounds_per_s on socket-f64"),
    ("comm.decode_mbps.f64", "MB/s", Higher, "rounds_per_s on socket-f64"),
    ("comm.encode_mbps.int8", "MB/s", Higher, "rounds_per_s, time_to_target_s on socket-int8"),
    ("comm.decode_mbps.int8", "MB/s", Higher, "rounds_per_s, time_to_target_s on socket-int8"),
    ("comm.int8_compression_ratio", "x", Higher, "net.bytes_received_per_round on socket-int8"),
    ("telemetry.ingest_ns_per_sample", "ns", Lower, "guard only (TelemetryHub::ingest; on the round path of sched-batch)"),
    // From the traced pass of the workload itself.
    ("core.round_ms_p50", "ms", Lower, "rounds_per_s everywhere (median wall time between round starts; ungated: spreads 10-20 % here)"),
    ("core.round_ms_p99", "ms", Lower, "none gated (p99 of the same samples; spreads 15-40 % on the socket workloads)"),
    ("core.rounds_to_target", "count", Lower, "time_to_target_s everywhere (its convergence half)"),
    ("core.time_to_target_wall_s", "s", Lower, "time_to_target_s (measured wall time, cold start included; ungated)"),
    ("core.engine_round_ms", "ms", Lower, "core.round_ms_p50 everywhere (p50 inside round()/collect())"),
    ("core.driver_overhead_ms", "ms", Lower, "rounds_per_s on threaded-pipelined, sim-bsp-miss; invisible on hetero-throttled"),
    ("core.alloc_bytes_per_round", "B", Lower, "peak_rss_mb, core.round_ms_p99 (from RoundRecord)"),
    ("core.pipelined_speedup", "x", Higher, "rounds_per_s on threaded-pipelined (PipelinedDriver / TrainDriver)"),
    ("coding.plan_cache_hit_ratio", "ratio", Higher, "guard: plan-cache hits / lookups of the master's codec"),
    ("coding.pool_hits_per_round", "count", Higher, "peak_rss_mb (recycled decode buffers, from RoundRecord)"),
    ("runtime.theorem5_ratio", "ratio", Lower, "rounds_per_s on hetero-throttled (median round / Theorem-5 optimum; must stay <= 1.10)"),
    ("runtime.round_over_optimum_ms", "ms", Lower, "rounds_per_s on hetero-throttled (p50 round minus the optimum)"),
    ("runtime.speedup_vs_cyclic", "x", Higher, "rounds_per_s on hetero-throttled (cyclic median round / heter-aware median round; must stay > 1)"),
    ("sim.round_sim_s", "sim_s", Lower, "none: mean simulated seconds over the first 500 rounds; seeded, repeats exactly"),
    ("net.handshake_ms", "ms", Lower, "setup_s on socket-* (listener bind to last handshake)"),
    ("net.bytes_sent_per_round", "B", Lower, "rounds_per_s on socket-*"),
    ("net.bytes_received_per_round", "B", Lower, "rounds_per_s on socket-* (int8: ~8x fewer)"),
    ("net.frames_per_round", "count", Lower, "rounds_per_s on socket-*"),
    ("comm.wire_error_p50", "l2", Lower, "time_to_target_s on socket-int8 (gates the step size)"),
    ("sched.jobs_per_s", "1/s", Higher, "rounds_per_s on sched-batch (tenants / makespan)"),
    ("sched.makespan_s", "s", Lower, "rounds_per_s on sched-batch"),
    ("sched.sequential_speedup", "x", Higher, "rounds_per_s on sched-batch (run_sequential makespan / run makespan)"),
    ("sched.shared_plan_hit_ratio", "ratio", Higher, "rounds_per_s on sched-batch (SharedPlanCache hits / lookups)"),
    ("sched.peak_active", "count", Higher, "rounds_per_s on sched-batch (tenants holding leases at once)"),
    ("obs.trace_overhead_pct", "%", Lower, "none: untraced vs traced rounds_per_s in the same process"),
    ("obs.events_per_round", "count", Lower, "obs.trace_overhead_pct"),
    ("obs.unattributed_share", "share", Lower, "none: round wall time no program span covers - the to-do list for in-program tracing"),
    ("obs.traced_rounds", "count", Higher, "none: rounds the phase statistics are over"),
    ("obs.traced_rounds_per_s", "1/s", Higher, "rounds_per_s (the traced pass's own rate)"),
    ("obs.untraced_rounds_per_s", "1/s", Higher, "rounds_per_s (the short untraced pass next to it)"),
];

/// Per-phase statistics reported for each of the nine `hetgc_obs::Phase`s.
const PHASE_STATS: [(&str, &str, &str); 3] = [
    (
        "share",
        "share",
        "self time of the phase's spans / traced wall time",
    ),
    ("p50_us", "us", "median span duration"),
    ("p99_us", "us", "p99 span duration"),
];

pub fn phase_metric(phase: Phase, stat: &str) -> String {
    format!("obs.phase.{}.{stat}", phase.name())
}

/// Every per-layer metric, in reporting order.
pub fn per_layer() -> Vec<PerLayer> {
    let mut all: Vec<PerLayer> = FIXED_LAYERS
        .iter()
        .map(|&(name, unit, better, moves)| PerLayer {
            name: name.to_owned(),
            unit,
            better,
            moves,
        })
        .collect();
    for phase in Phase::all() {
        for (stat, unit, moves) in PHASE_STATS {
            all.push(PerLayer {
                name: phase_metric(phase, stat),
                unit,
                better: Lower,
                moves,
            });
        }
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let layers = per_layer();
        assert!(layers.len() <= 128 && END_TO_END.len() <= 16);
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name.to_owned())
            .chain(END_TO_END.iter().map(|m| m.name.to_owned()))
            .chain(layers.iter().map(|m| m.name.clone()))
        {
            assert!(valid_name(&name), "{name}");
            assert!(seen.insert(name.clone()), "{name} used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(layers.iter().map(|m| m.unit))
        {
            assert!(unit.len() <= 16, "{unit}");
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` is this module written down.
    #[test]
    fn benchmark_json_matches_the_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Value::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let field = |v: &Value, key: &str| v.get(key).unwrap().as_str().unwrap().to_owned();

        let workloads = doc.get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (json, spec) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(field(json, "name"), spec.name);
            let why: String = spec.why.split_whitespace().collect::<Vec<_>>().join(" ");
            assert_eq!(field(json, "why"), why);
        }
        let end_to_end = doc.get("end_to_end").unwrap().as_arr().unwrap();
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (json, spec) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(field(json, "name"), spec.name);
            assert_eq!(field(json, "unit"), spec.unit);
            assert_eq!(field(json, "better"), spec.better.as_str());
            assert_eq!(json.get("bound").unwrap().as_f64(), Some(spec.bound));
        }
        let layers = per_layer();
        let per_layer_json = doc.get("per_layer").unwrap().as_arr().unwrap();
        assert_eq!(per_layer_json.len(), layers.len());
        for (json, spec) in per_layer_json.iter().zip(&layers) {
            assert_eq!(field(json, "name"), spec.name);
            assert_eq!(field(json, "unit"), spec.unit);
            assert_eq!(field(json, "better"), spec.better.as_str());
        }
        let paths = doc.get("paths").unwrap().as_arr().unwrap();
        assert_eq!(paths, [Value::Str("benchmark".into())]);
    }

    #[test]
    fn worse_by_respects_direction() {
        assert!((Better::Lower.worse_by(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((Better::Higher.worse_by(10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(Better::Higher.worse_by(10.0, 12.0) < 0.0);
    }
}
