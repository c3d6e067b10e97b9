//! The one training loop: a [`TrainDriver`] owns the model, optimizer,
//! loss evaluation and reporting; a [`RoundEngine`] supplies collect
//! rounds. Every execution style in the workspace — the discrete-event
//! BSP simulator, the SSP event stream, the real threaded runtime —
//! flows through [`TrainDriver::run`] and emits the same
//! [`TrainOutcome`] / [`RoundRecord`] report.
//!
//! Timing-only sweeps (the Figs. 2/3/5 harnesses, the adaptive-recoding
//! comparison) share the loop through [`drive_timing`]: same records,
//! same [`TrainOutcome`], no model.
//!
//! With [`DriverConfig::adaptation`] set, the loop closes the
//! heterogeneity feedback loop each round: engine telemetry
//! ([`EngineRound::samples`]) flows into an `hetgc_telemetry::Adaptation`
//! pipeline, and its decisions flow back — a learned escalation deadline
//! via [`RoundEngine::set_deadline`], a code rebuilt from fresh
//! estimates via [`RoundEngine::recode`]. The run's adaptation history is
//! reported in [`TrainOutcome::adaptation`].

use hetgc_ml::{Dataset, Model, Optimizer};
use hetgc_obs::{Phase, RunObserver};
use hetgc_sim::ResourceUsage;
use hetgc_telemetry::{Adaptation, AdaptationConfig};
use rand::RngCore;

use crate::engine::{combined_step_scale, EngineRound, RoundEngine};
use crate::scheme::BoxError;
use crate::trainer::LossCurve;

/// Knobs of the unified loop (everything engine-independent).
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Evaluate the training loss every this many rounds (the last round
    /// is always evaluated; `0` is treated as `1`). BSP-style engines
    /// conventionally use `1`; per-event SSP runs use a larger stride.
    pub eval_every: usize,
    /// Residual-aware step scaling: shrink the effective step on
    /// approximate rounds by
    /// [`residual_step_scale`](crate::residual_step_scale) — exact rounds
    /// are untouched by construction. Disable to reproduce the legacy
    /// full-step-on-approximate-rounds behaviour.
    pub residual_step_scaling: bool,
    /// The adaptation loop (learned escalation deadline + drift-triggered
    /// re-coding). `None` — the default — runs the engine exactly as
    /// configured, bit for bit.
    pub adaptation: Option<AdaptationConfig>,
    /// Tag every [`RoundRecord`] this run emits with a job identifier.
    /// Multi-tenant schedulers interleave many jobs' records into one
    /// JSONL stream; the tag is what makes those streams attributable.
    /// `None` — the default for solo runs — omits the field entirely.
    pub job_id: Option<String>,
}

impl Default for DriverConfig {
    /// Evaluate every round, scale steps on approximate rounds, no
    /// adaptation, no job tag.
    fn default() -> Self {
        DriverConfig {
            eval_every: 1,
            residual_step_scaling: true,
            adaptation: None,
            job_id: None,
        }
    }
}

impl DriverConfig {
    /// Builder form: tags every emitted record with `job_id`.
    pub fn with_job_id(mut self, job_id: impl Into<String>) -> Self {
        self.job_id = Some(job_id.into());
        self
    }
}

/// What the adaptation loop did over one run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AdaptationReport {
    /// Rounds (1-based) after which a rebuilt code was installed.
    pub recode_rounds: Vec<usize>,
    /// Re-code attempts the rebuild declined (infeasible estimates) —
    /// the run kept the previous code.
    pub recode_failures: usize,
    /// Rounds on which a drift detector newly flagged a worker.
    pub drift_rounds: Vec<usize>,
    /// The escalation deadline in force at the end of the run, if one
    /// was learned.
    pub learned_deadline: Option<f64>,
    /// How many times the learned deadline changed (and was pushed into
    /// the engine).
    pub(crate) deadline_updates: usize,
}

impl AdaptationReport {
    /// Successful re-codes.
    pub fn recodes(&self) -> usize {
        self.recode_rounds.len()
    }
}

/// The driver-side adaptation loop: telemetry in, engine hooks out.
struct AdaptationState {
    pipeline: Adaptation,
    /// Fallback estimates for workers the telemetry has not observed.
    fallback: Vec<f64>,
    report: AdaptationReport,
}

impl AdaptationState {
    fn new<E: RoundEngine + ?Sized>(engine: &E, cfg: &AdaptationConfig) -> Self {
        AdaptationState {
            pipeline: Adaptation::new(engine.workers(), cfg.clone()),
            fallback: engine.initial_estimates().unwrap_or_default(),
            report: AdaptationReport::default(),
        }
    }

    /// Feeds one completed round through the pipeline and applies its
    /// decisions to the engine.
    fn after_round<E: RoundEngine + ?Sized>(
        &mut self,
        round: usize,
        er: &EngineRound,
        elapsed: f64,
        engine: &mut E,
        rng: &mut dyn RngCore,
    ) -> Result<(), BoxError> {
        let decision = self.pipeline.observe_round(elapsed, &er.samples);
        if !decision.drift_events.is_empty() {
            self.report.drift_rounds.push(round);
        }
        if let Some(deadline) = decision.deadline {
            if self.report.learned_deadline != Some(deadline) {
                self.report.learned_deadline = Some(deadline);
                self.report.deadline_updates += 1;
                engine.set_deadline(deadline);
            }
        }
        if decision.recode && engine.supports_recode() {
            let estimates = self.pipeline.estimates_or(&self.fallback);
            if engine.recode(&estimates, rng)? {
                self.report.recode_rounds.push(round);
                self.pipeline.recode_applied();
            } else {
                self.report.recode_failures += 1;
                self.pipeline.recode_rejected();
            }
        }
        Ok(())
    }
}

/// One round of the unified loop, as recorded in [`TrainOutcome`].
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// 1-based round number.
    pub round: usize,
    /// Clock at round completion (simulated or wall-clock seconds).
    pub time: f64,
    /// This round's duration.
    pub elapsed: f64,
    /// Mean training loss after the step, when this round was evaluated.
    pub loss: Option<f64>,
    /// Decode residual (0 = exact).
    pub residual: f64,
    /// The learning-rate multiplier applied
    /// ([`residual_step_scale`](crate::residual_step_scale));
    /// exactly 1 on exact rounds.
    pub step_scale: f64,
    /// Worker results that carried decode weight.
    pub results_used: usize,
    /// Data-plane bytes allocated this round (coded payloads in the
    /// threaded runtime, codec-pool misses in the simulators): the JSONL
    /// stream's view of buffer-reuse health — steady-state rounds on the
    /// pooled path report the payload bill only, with zero pool misses.
    pub alloc_bytes: u64,
    /// Data-plane buffer-pool hits this round (recycled buffers).
    pub pool_hits: u64,
    /// Wire bytes the master sent this round — real traffic on a socket
    /// engine, `0` for the in-process (sim/threaded) engines.
    pub bytes_sent: u64,
    /// Wire bytes the master received this round (`0` in-process).
    pub bytes_received: u64,
    /// Combined L2 quantization error the wire codecs introduced into
    /// this round's coded results (`0.0` on lossless transports, and
    /// omitted from the JSON then — streams predating wire compression
    /// parse with `0.0`).
    pub wire_error: f64,
    /// Which job emitted this record, when the run was tagged
    /// ([`DriverConfig::job_id`]): the attribution key of interleaved
    /// multi-job JSONL streams. `None` for solo runs, and omitted from
    /// the JSON entirely.
    pub job_id: Option<String>,
}

impl RoundRecord {
    /// Serializes the record as one self-contained JSON object — the
    /// line format [`TrainDriver::with_record_writer`] streams and the
    /// element format of [`TrainOutcome::to_json`]'s `records` array. Non-finite floats
    /// become `null`.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        out.push('{');
        if let Some(job) = &self.job_id {
            let _ = write!(out, "\"job_id\":{},", json_str(job));
        }
        let _ = write!(
            out,
            "\"round\":{},\"time\":{},\"elapsed\":{},\"loss\":{},\
             \"residual\":{},\"step_scale\":{},\"results_used\":{},\
             \"alloc_bytes\":{},\"pool_hits\":{},\
             \"bytes_sent\":{},\"bytes_received\":{}}}",
            self.round,
            json_f64(self.time),
            json_f64(self.elapsed),
            json_f64_opt(self.loss),
            json_f64(self.residual),
            json_f64(self.step_scale),
            self.results_used,
            self.alloc_bytes,
            self.pool_hits,
            self.bytes_sent,
            self.bytes_received,
        );
        // Lossy-wire rounds only: lossless streams stay byte-identical
        // to the pre-compression format.
        if self.wire_error > 0.0 {
            out.pop(); // the closing brace
            let _ = write!(out, ",\"wire_error\":{}}}", json_f64(self.wire_error));
        }
        out
    }

    /// Parses one [`RoundRecord::to_json`] line back — the read half of
    /// the JSONL round-trip.
    ///
    /// # Errors
    ///
    /// A description of the first missing or malformed field.
    pub fn from_json(line: &str) -> Result<Self, String> {
        fn field<'s>(s: &'s str, key: &str) -> Result<&'s str, String> {
            let pat = format!("\"{key}\":");
            let start = s
                .find(&pat)
                .ok_or_else(|| format!("missing field {key:?} in {s:?}"))?
                + pat.len();
            let rest = &s[start..];
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            Ok(rest[..end].trim())
        }
        fn num(s: &str, key: &str) -> Result<f64, String> {
            let raw = field(s, key)?;
            raw.parse::<f64>()
                .map_err(|e| format!("field {key:?} = {raw:?}: {e}"))
        }
        let loss = match field(line, "loss")? {
            "null" => None,
            raw => Some(
                raw.parse::<f64>()
                    .map_err(|e| format!("field \"loss\" = {raw:?}: {e}"))?,
            ),
        };
        // The data-plane counters joined the format in a later PR: treat
        // them as 0 when absent so pre-existing JSONL streams still parse.
        let counter = |key: &str| -> Result<u64, String> {
            match field(line, key) {
                Ok(raw) => raw
                    .parse::<u64>()
                    .map_err(|e| format!("field {key:?} = {raw:?}: {e}")),
                Err(_) => Ok(0),
            }
        };
        Ok(RoundRecord {
            round: num(line, "round")? as usize,
            time: num(line, "time")?,
            elapsed: num(line, "elapsed")?,
            loss,
            residual: num(line, "residual")?,
            step_scale: num(line, "step_scale")?,
            results_used: num(line, "results_used")? as usize,
            alloc_bytes: counter("alloc_bytes")?,
            pool_hits: counter("pool_hits")?,
            bytes_sent: counter("bytes_sent")?,
            bytes_received: counter("bytes_received")?,
            // Wire compression joined later still; absent (every
            // lossless round) parses as exactly zero error.
            wire_error: match field(line, "wire_error") {
                Ok(raw) => raw
                    .parse::<f64>()
                    .map_err(|e| format!("field \"wire_error\" = {raw:?}: {e}"))?,
                Err(_) => 0.0,
            },
            // The job tag joined the format with the multi-tenant
            // scheduler: absent means an untagged solo-run stream, same
            // tolerance as the counters above.
            job_id: json_str_field(line, "job_id")?,
        })
    }
}

/// The unified training report every engine produces: every timing
/// figure of a run is read off its records.
#[derive(Debug, Clone)]
pub struct TrainOutcome {
    /// Engine label (scheme name, "ssp", "threaded", …).
    pub label: String,
    /// One record per *completed* round, in order.
    pub records: Vec<RoundRecord>,
    /// Rounds that could not complete (undecodable); they leave no record.
    pub failed_rounds: usize,
    /// Loss over time (only evaluated rounds contribute points).
    pub curve: LossCurve,
    /// Final parameters (empty for timing-only runs).
    pub params: Vec<f64>,
    /// `true` when the run ended on a round that could not complete.
    pub stalled: bool,
    /// What the adaptation loop did, when [`DriverConfig::adaptation`]
    /// was enabled; `None` for plain runs.
    pub adaptation: Option<AdaptationReport>,
    /// The Fig. 5 sums over completed rounds (worker busy time is not on
    /// a record).
    usage: ResourceUsage,
}

impl TrainOutcome {
    /// The last recorded loss, if any round was evaluated.
    pub fn final_loss(&self) -> Option<f64> {
        self.curve.final_loss()
    }

    /// Completed rounds.
    pub fn rounds(&self) -> usize {
        self.records.len()
    }

    /// Rounds decoded through an approximate fallback (any positive
    /// residual).
    pub fn approx_rounds(&self) -> usize {
        self.records.iter().filter(|r| r.residual > 0.0).count()
    }

    /// Mean duration of a completed round — the y-axis of Figs. 2 and 3;
    /// `None` when no round completed.
    pub fn mean_round_seconds(&self) -> Option<f64> {
        (!self.records.is_empty()).then(|| self.total_seconds() / self.records.len() as f64)
    }

    /// Summed duration of the completed rounds.
    pub fn total_seconds(&self) -> f64 {
        self.records.iter().map(|r| r.elapsed).sum()
    }

    /// Resource usage over the completed rounds (Fig. 5).
    pub fn resource_usage(&self) -> ResourceUsage {
        self.usage
    }

    /// Serializes the outcome as a self-contained JSON object — the
    /// cross-PR format for captured bench/figure trajectories. Non-finite
    /// floats become `null` (JSON has no `inf`/`NaN`).
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"label\":{},\"stalled\":{},\"approx_rounds\":{},\"rounds\":{},\
             \"failed_rounds\":{},\"avg_round_seconds\":{},\"total_seconds\":{},\
             \"final_loss\":{},",
            json_str(&self.label),
            self.stalled,
            self.approx_rounds(),
            self.records.len(),
            self.failed_rounds,
            json_f64_opt(self.mean_round_seconds()),
            json_f64(self.total_seconds()),
            json_f64_opt(self.final_loss()),
        );
        if let Some(a) = &self.adaptation {
            let _ = write!(
                out,
                "\"adaptation\":{{\"recodes\":{},\"recode_rounds\":{:?},\
                 \"recode_failures\":{},\"drift_rounds\":{:?},\
                 \"learned_deadline\":{},\"deadline_updates\":{}}},",
                a.recodes(),
                a.recode_rounds,
                a.recode_failures,
                a.drift_rounds,
                json_f64_opt(a.learned_deadline),
                a.deadline_updates,
            );
        }
        out.push_str("\"records\":[");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&r.to_json());
        }
        out.push_str("]}");
        out
    }
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `{}` prints integral floats without a dot; that is still valid
        // JSON, so keep it.
        s
    } else {
        "null".to_owned()
    }
}

fn json_f64_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_owned(), json_f64)
}

/// Extracts an optional JSON string field from a single-line object,
/// undoing the escapes [`json_str`] applies. `Ok(None)` when the field is
/// absent — the tolerant half of the optional-field convention.
fn json_str_field(line: &str, key: &str) -> Result<Option<String>, String> {
    let pat = format!("\"{key}\":\"");
    let Some(start) = line.find(&pat) else {
        return Ok(None);
    };
    let rest = &line[start + pat.len()..];
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Ok(Some(out)),
            '\\' => match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('r') => out.push('\r'),
                Some('u') => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16)
                        .map_err(|e| format!("field {key:?}: bad \\u escape {hex:?}: {e}"))?;
                    out.push(
                        char::from_u32(code)
                            .ok_or_else(|| format!("field {key:?}: invalid codepoint {code}"))?,
                    );
                }
                Some(other) => out.push(other),
                None => return Err(format!("field {key:?}: unterminated escape")),
            },
            c => out.push(c),
        }
    }
    Err(format!("field {key:?}: unterminated string"))
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The ONE place where engine rounds become the run's [`TrainOutcome`].
struct RoundLog {
    out: TrainOutcome,
    /// Job tag stamped on every record ([`DriverConfig::job_id`]).
    job_id: Option<String>,
    clock: f64,
}

impl RoundLog {
    fn tagged(label: String, job_id: Option<String>) -> Self {
        RoundLog {
            out: TrainOutcome {
                curve: LossCurve {
                    label: label.clone(),
                    points: Vec::new(),
                },
                label,
                records: Vec::new(),
                failed_rounds: 0,
                params: Vec::new(),
                stalled: false,
                adaptation: None,
                usage: ResourceUsage::default(),
            },
            job_id,
            clock: 0.0,
        }
    }

    fn failed_round(&mut self) {
        self.out.failed_rounds += 1;
        self.out.stalled = true;
    }

    fn completed_round(
        &mut self,
        round: usize,
        er: &EngineRound,
        elapsed: f64,
        loss: Option<f64>,
        step_scale: f64,
        workers: usize,
    ) {
        let out = &mut self.out;
        out.stalled = false;
        self.clock = er.at.unwrap_or(self.clock + elapsed);
        let (busy, counted) = if er.busy.is_empty() {
            (0.0, workers)
        } else {
            (er.busy.iter().sum(), er.busy.len())
        };
        out.usage.record(elapsed, busy, counted);
        if let Some(l) = loss {
            out.curve.points.push((self.clock, l));
        }
        out.records.push(RoundRecord {
            round,
            time: self.clock,
            elapsed,
            loss,
            residual: er.residual,
            step_scale,
            results_used: er.results_used,
            alloc_bytes: er.alloc_bytes,
            pool_hits: er.pool_hits,
            bytes_sent: er.bytes_sent,
            bytes_received: er.bytes_received,
            wire_error: er.wire_error,
            job_id: self.job_id.clone(),
        });
    }

    fn finish(mut self, params: Vec<f64>, adaptation: Option<AdaptationState>) -> TrainOutcome {
        self.out.params = params;
        self.out.adaptation = adaptation.map(|a| a.report);
        self.out
    }
}

/// The unified round loop: initialize → (round → scale → step → evaluate
/// → record)* → report. One driver serves the simulated BSP engine, the
/// SSP event stream and the threaded runtime.
///
/// # Example
///
/// ```
/// use hetgc::{
///     synthetic, ClusterSpec, DriverConfig, EscalationPolicy, LinearRegression, SchemeBuilder,
///     SchemeKind, Sgd, SimBspEngine, SimTrainConfig, TrainDriver,
/// };
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
/// let cluster = ClusterSpec::cluster_a();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let data = synthetic::linear_regression(96, 3, 0.01, &mut rng);
/// let model = LinearRegression::new(3);
/// let scheme = SchemeBuilder::new(&cluster, 1).build(SchemeKind::HeterAware, &mut rng)?;
///
/// let cfg = SimTrainConfig::default();
/// let mut engine = SimBspEngine::new(
///     &scheme,
///     &model,
///     &data,
///     &cluster.throughputs(),
///     &cfg,
///     EscalationPolicy::follow_backend(),
/// )?;
/// let out = TrainDriver::new(&model, &data, Sgd::new(0.2))
///     .with_config(DriverConfig::default())
///     .run(&mut engine, 20, &mut rng)?;
/// assert_eq!(out.rounds(), 20);
/// assert!(out.final_loss().unwrap() < out.records[0].loss.unwrap());
/// # Ok(())
/// # }
/// ```
pub struct TrainDriver<'a, M: Model + ?Sized, O: Optimizer> {
    /// Model, data and optimizer; `None` only in [`drive_timing_with`].
    training: Option<(&'a M, &'a Dataset, O)>,
    pub(crate) cfg: DriverConfig,
    record_writer: Option<&'a mut dyn std::io::Write>,
    observer: Option<RunObserver>,
}

impl<M: Model + ?Sized, O: Optimizer + std::fmt::Debug> std::fmt::Debug for TrainDriver<'_, M, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrainDriver")
            .field("optimizer", &self.training.as_ref().map(|t| &t.2))
            .field("cfg", &self.cfg)
            .field("streams_records", &self.record_writer.is_some())
            .field("observed", &self.observer.is_some())
            .finish_non_exhaustive()
    }
}

impl<'a, M: Model + ?Sized, O: Optimizer> TrainDriver<'a, M, O> {
    /// A driver training `model` on `data` with `optimizer` and default
    /// [`DriverConfig`].
    pub fn new(model: &'a M, data: &'a Dataset, optimizer: O) -> Self {
        TrainDriver {
            training: Some((model, data, optimizer)),
            cfg: DriverConfig::default(),
            record_writer: None,
            observer: None,
        }
    }

    /// Replaces the loop configuration.
    pub fn with_config(mut self, cfg: DriverConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Streams every completed [`RoundRecord`] to `writer` as one JSON
    /// line ([`RoundRecord::to_json`] + `\n`) the moment the round
    /// completes — long runs persist their history without holding it
    /// hostage to the final report. `hetgc::report::parse_round_records`
    /// reads the stream back.
    pub fn with_record_writer(mut self, writer: &'a mut dyn std::io::Write) -> Self {
        self.record_writer = Some(writer);
        self
    }

    /// Reports every round into `observer`'s metric handles (round
    /// counters/latency, wire bytes, per-worker arrival histograms) and —
    /// when the observer carries a flight recorder — attaches that
    /// recorder to the engine at run start and wraps the optimizer step
    /// in a [`Phase::Step`] span. All of it is atomics on pre-registered
    /// handles: the loop allocates nothing extra per round.
    pub fn with_observer(mut self, observer: RunObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Runs `rounds` collect rounds of `engine`, stepping the optimizer
    /// on each decoded gradient (scaled on approximate rounds when
    /// [`DriverConfig::residual_step_scaling`] is on).
    ///
    /// A round the engine reports as failed (undecodable, on every
    /// engine) is counted in [`TrainOutcome::failed_rounds`]; when the
    /// engine also asks to stop, the outcome is flagged
    /// [`TrainOutcome::stalled`] and keeps every earlier record.
    ///
    /// # Errors
    ///
    /// Propagates engine errors (configuration, infrastructure) and write
    /// errors of the streaming record writer.
    pub fn run<E: RoundEngine + ?Sized>(
        self,
        engine: &mut E,
        rounds: usize,
        rng: &mut dyn RngCore,
    ) -> Result<TrainOutcome, BoxError> {
        self.run_with(engine, rounds, rng, |engine, round, params, rng| {
            engine.round(round, params, rng)
        })
    }

    /// The one round loop. `fetch(engine, round, params, rng)` produces
    /// each round — in sequence here, dispatched one ahead in
    /// `PipelinedDriver` — and the body does everything the master owes
    /// it: step scaling → optimizer → `after_step` → loss → observer →
    /// log → record writer → adaptation.
    pub(crate) fn run_with<E: RoundEngine + ?Sized>(
        mut self,
        engine: &mut E,
        rounds: usize,
        rng: &mut dyn RngCore,
        mut fetch: impl FnMut(&mut E, usize, &[f64], &mut dyn RngCore) -> Result<EngineRound, BoxError>,
    ) -> Result<TrainOutcome, BoxError> {
        let mut params = match &self.training {
            Some((model, ..)) => model.init_params(rng),
            None => Vec::new(),
        };
        let mut log = RoundLog::tagged(engine.label().to_owned(), self.cfg.job_id.clone());
        let eval_every = self.cfg.eval_every.max(1);
        let mut adaptation = self
            .cfg
            .adaptation
            .as_ref()
            .map(|cfg| AdaptationState::new(engine, cfg));
        let recorder = self.observer.as_ref().and_then(|o| o.recorder());
        if let Some(rec) = recorder {
            engine.attach_recorder(rec.clone());
        }
        // The scaled step, one buffer for the whole run.
        let mut step = Vec::new();

        for round in 1..=rounds {
            let er = fetch(engine, round, &params, rng)?;
            let Some(elapsed) = er.elapsed else {
                if let Some(obs) = &self.observer {
                    obs.observe_failed_round();
                }
                log.failed_round();
                if er.stop {
                    break;
                }
                continue;
            };
            let step_span = recorder.map(|r| r.span(Phase::Step));
            let mut step_scale = 1.0;
            let mut loss = None;
            if let Some((model, data, optimizer)) = self.training.as_mut() {
                let n = data.len() as f64;
                if let Some(gradient) = er.gradient.as_ref() {
                    if self.cfg.residual_step_scaling {
                        step_scale = round_step_scale(&er, gradient, engine.partitions());
                    }
                    step.clear();
                    step.extend(gradient.iter().map(|x| step_scale * x / n));
                    optimizer.step(&mut params, &step);
                    engine.after_step(&params);
                }
                loss = (round.is_multiple_of(eval_every) || round == rounds)
                    .then(|| model.loss(&params, data, (0, data.len())) / n);
            }
            drop(step_span);
            if let Some(obs) = &self.observer {
                obs.observe_round(elapsed, er.residual, er.bytes_sent, er.bytes_received);
                if er.bytes_saved > 0 || er.wire_error > 0.0 {
                    obs.observe_wire(er.bytes_saved, er.wire_error);
                }
                for s in &er.samples {
                    if let Some(arrival) = s.arrival_seconds {
                        obs.observe_arrival(s.worker, arrival);
                    }
                }
            }
            log.completed_round(round, &er, elapsed, loss, step_scale, engine.workers());
            if let Some(writer) = self.record_writer.as_deref_mut() {
                let record = log.out.records.last().expect("round just recorded");
                writeln!(writer, "{}", record.to_json())?;
            }
            if let Some(ad) = adaptation.as_mut() {
                ad.after_round(round, &er, elapsed, engine, rng)?;
            }
            if er.stop {
                break;
            }
        }
        Ok(log.finish(params, adaptation))
    }
}

/// [`combined_step_scale`] for a decoded round: lossy wire traffic gates
/// the step exactly like an approximate decode, and lossless rounds
/// reduce to the plain residual scaling bitwise. An exact, lossless round
/// (`residual ≤ 0` and `wire_error ≤ 0`) scales by exactly `1.0` without
/// reading the gradient's norm, so the in-order `Σ g²` fold is skipped
/// there; a NaN in either takes the full path, as before.
fn round_step_scale(er: &EngineRound, gradient: &[f64], partitions: usize) -> f64 {
    if er.residual <= 0.0 && er.wire_error <= 0.0 {
        return 1.0;
    }
    let norm = gradient.iter().map(|x| x * x).sum::<f64>().sqrt();
    combined_step_scale(er.residual, er.error_bound, er.wire_error, norm, partitions)
}

/// The timing-only flavour of the loop: same engine contract, same
/// [`TrainOutcome`], but no model, no optimizer, no loss —
/// engines are expected to return `gradient: None`. This is what the
/// Figs. 2/3/5 harnesses and the adaptive-recoding comparison run on.
///
/// Equivalent to [`drive_timing_with`] under the default
/// [`DriverConfig`] (no adaptation).
///
/// # Errors
///
/// Propagates engine errors.
pub(crate) fn drive_timing<E: RoundEngine + ?Sized>(
    engine: &mut E,
    rounds: usize,
    rng: &mut dyn RngCore,
) -> Result<TrainOutcome, BoxError> {
    drive_timing_with(engine, rounds, rng, &DriverConfig::default())
}

/// [`drive_timing`] with an explicit [`DriverConfig`]: the timing loop
/// honours [`DriverConfig::adaptation`] exactly like [`TrainDriver::run`]
/// does — this is what the adaptive re-coding comparison
/// (`hetgc::adaptive`) runs on.
///
/// # Errors
///
/// Propagates engine errors.
pub(crate) fn drive_timing_with<E: RoundEngine + ?Sized>(
    engine: &mut E,
    rounds: usize,
    rng: &mut dyn RngCore,
    cfg: &DriverConfig,
) -> Result<TrainOutcome, BoxError> {
    // No model: the type parameters only name the absent training half.
    let driver = TrainDriver::<hetgc_ml::LinearRegression, hetgc_ml::Sgd> {
        training: None,
        cfg: cfg.clone(),
        record_writer: None,
        observer: None,
    };
    driver.run(engine, rounds, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FixedEngine {
        rounds: Vec<EngineRound>,
        next: usize,
    }

    impl FixedEngine {
        fn new(rounds: Vec<EngineRound>) -> Self {
            FixedEngine { rounds, next: 0 }
        }
    }

    impl RoundEngine for FixedEngine {
        fn workers(&self) -> usize {
            3
        }
        fn partitions(&self) -> usize {
            4
        }
        fn label(&self) -> &str {
            "fixed"
        }
        fn round(
            &mut self,
            _round: usize,
            _params: &[f64],
            _rng: &mut dyn RngCore,
        ) -> Result<EngineRound, BoxError> {
            let r = self.rounds[self.next].clone();
            self.next += 1;
            Ok(r)
        }
    }

    fn ok_round(elapsed: f64, residual: f64) -> EngineRound {
        EngineRound {
            elapsed: Some(elapsed),
            at: None,
            gradient: None,
            residual,
            error_bound: None,
            results_used: 2,
            busy: vec![elapsed; 3],
            samples: Vec::new(),
            alloc_bytes: 96,
            pool_hits: 4,
            bytes_sent: 0,
            bytes_received: 0,
            wire_error: 0.0,
            bytes_saved: 0,
            stop: false,
        }
    }

    /// Skipping the norm changes no step: over exact, approximate, lossy
    /// and NaN rounds, `round_step_scale` is `combined_step_scale` with
    /// the norm always computed, to the bit.
    #[test]
    fn round_step_scale_is_the_full_path_bit_for_bit() {
        let nan = f64::NAN;
        let gradients = [vec![3.0, -4.0], vec![0.0, -0.0], vec![nan, 1.0], vec![]];
        for residual in [0.0, -0.0, -1.0, 0.3, nan, f64::INFINITY] {
            for wire_error in [0.0, -0.0, 0.02, nan] {
                for error_bound in [None, Some(2.0), Some(f64::INFINITY), Some(nan)] {
                    for gradient in &gradients {
                        let mut er = ok_round(1.0, residual);
                        (er.wire_error, er.error_bound) = (wire_error, error_bound);
                        let norm = gradient.iter().map(|x| x * x).sum::<f64>().sqrt();
                        let want = combined_step_scale(residual, error_bound, wire_error, norm, 4);
                        assert_eq!(
                            round_step_scale(&er, gradient, 4).to_bits(),
                            want.to_bits(),
                            "residual {residual}, wire {wire_error}, bound {error_bound:?}, \
                             gradient {gradient:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn timing_loop_records_and_aggregates() {
        let mut engine = FixedEngine::new(vec![
            ok_round(1.0, 0.0),
            ok_round(3.0, 0.5),
            EngineRound::failed(false),
            ok_round(2.0, 0.0),
        ]);
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let out = drive_timing(&mut engine, 4, &mut rng).unwrap();
        assert_eq!(out.label, "fixed");
        assert_eq!(out.rounds(), 3);
        assert_eq!(out.approx_rounds(), 1);
        assert_eq!(out.failed_rounds, 1);
        assert_eq!(out.mean_round_seconds().unwrap(), 2.0);
        assert_eq!(out.total_seconds(), 6.0);
        // The clock accumulates elapsed times.
        assert_eq!(out.records.last().unwrap().time, 6.0);
        assert!(!out.stalled, "run recovered after the failed round");
        // Full busy occupancy: usage ratio 1.
        assert_eq!(out.resource_usage().ratio().unwrap(), 1.0);
    }

    #[test]
    fn stop_on_failure_marks_stalled() {
        let mut engine = FixedEngine::new(vec![ok_round(1.0, 0.0), EngineRound::failed(true)]);
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let out = drive_timing(&mut engine, 5, &mut rng).unwrap();
        assert!(out.stalled);
        assert_eq!(out.rounds(), 1);
        assert_eq!(out.failed_rounds, 1);
    }

    #[test]
    fn absolute_timestamps_override_the_accumulated_clock() {
        let mut with_at = ok_round(0.5, 0.0);
        with_at.at = Some(10.25);
        let mut engine = FixedEngine::new(vec![ok_round(1.0, 0.0), with_at]);
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let out = drive_timing(&mut engine, 2, &mut rng).unwrap();
        assert_eq!(out.records[1].time, 10.25);
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let mut engine = FixedEngine::new(vec![ok_round(1.0, 0.0), ok_round(2.0, 0.25)]);
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let out = drive_timing(&mut engine, 2, &mut rng).unwrap();
        let json = out.to_json();
        assert!(json.starts_with("{\"label\":\"fixed\""));
        assert!(json.contains("\"approx_rounds\":1"));
        assert!(json.contains("\"rounds\":2"));
        assert!(json.contains("\"records\":[{\"round\":1"));
        assert!(json.contains("\"residual\":0.25"));
        assert!(json.contains("\"loss\":null"));
        assert!(json.ends_with("]}"));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_escapes_and_nulls() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64_opt(None), "null");
    }

    #[test]
    fn round_record_json_round_trips() {
        let records = [
            RoundRecord {
                round: 3,
                time: 6.25,
                elapsed: 2.125,
                loss: Some(0.004_375),
                residual: 0.25,
                step_scale: 0.875,
                results_used: 4,
                alloc_bytes: 1024,
                pool_hits: 7,
                bytes_sent: 2048,
                bytes_received: 512,
                wire_error: 0.125,
                job_id: Some("job-a".to_owned()),
            },
            RoundRecord {
                round: 4,
                time: 7.0,
                elapsed: 0.75,
                loss: None,
                residual: 0.0,
                step_scale: 1.0,
                results_used: 3,
                alloc_bytes: 0,
                pool_hits: 0,
                bytes_sent: 0,
                bytes_received: 0,
                wire_error: 0.0,
                job_id: None,
            },
        ];
        for r in &records {
            let parsed = RoundRecord::from_json(&r.to_json()).unwrap();
            assert_eq!(&parsed, r);
        }
        assert!(RoundRecord::from_json("{\"round\":1}").is_err());
        assert!(RoundRecord::from_json("{\"round\":x,\"time\":1,\"elapsed\":1,\"loss\":null,\"residual\":0,\"step_scale\":1,\"results_used\":1}").is_err());
        // Records written before the data-plane counters existed still
        // parse, with the counters defaulting to zero.
        let legacy = "{\"round\":2,\"time\":1.5,\"elapsed\":0.5,\"loss\":null,\
                      \"residual\":0,\"step_scale\":1,\"results_used\":3}";
        let parsed = RoundRecord::from_json(legacy).unwrap();
        assert_eq!((parsed.alloc_bytes, parsed.pool_hits), (0, 0));
        assert_eq!((parsed.bytes_sent, parsed.bytes_received), (0, 0));
        assert_eq!(parsed.job_id, None, "untagged streams parse to None");
        assert_eq!(parsed.round, 2);
        // A stream with the data-plane counters but not the wire counters
        // (the PR-5 ⟶ PR-6 window) parses the same way.
        let pr5 = "{\"round\":2,\"time\":1.5,\"elapsed\":0.5,\"loss\":null,\
                   \"residual\":0,\"step_scale\":1,\"results_used\":3,\
                   \"alloc_bytes\":96,\"pool_hits\":4}";
        let parsed = RoundRecord::from_json(pr5).unwrap();
        assert_eq!((parsed.alloc_bytes, parsed.pool_hits), (96, 4));
        assert_eq!((parsed.bytes_sent, parsed.bytes_received), (0, 0));
    }

    #[test]
    fn adaptation_report_serialized_when_present() {
        let mut engine = FixedEngine::new(vec![ok_round(1.0, 0.0)]);
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let mut out = drive_timing(&mut engine, 1, &mut rng).unwrap();
        assert!(out.adaptation.is_none(), "no adaptation configured");
        assert!(!out.to_json().contains("\"adaptation\""));
        out.adaptation = Some(AdaptationReport {
            recode_rounds: vec![7, 12],
            recode_failures: 1,
            drift_rounds: vec![5],
            learned_deadline: Some(1.84),
            deadline_updates: 3,
        });
        let json = out.to_json();
        assert!(json.contains("\"adaptation\":{\"recodes\":2"), "{json}");
        assert!(json.contains("\"learned_deadline\":1.84"));
        assert!(json.ends_with("]}"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn timing_loop_with_adaptation_reports() {
        // A fixed engine never drifts and does not support re-coding: the
        // loop must still run, learn a deadline, and report zero recodes.
        let mut engine = FixedEngine::new(vec![ok_round(1.0, 0.0); 12]);
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let cfg = DriverConfig {
            adaptation: Some(AdaptationConfig::default()),
            ..DriverConfig::default()
        };
        let out = drive_timing_with(&mut engine, 12, &mut rng, &cfg).unwrap();
        let report = out.adaptation.expect("adaptation was on");
        assert_eq!(report.recodes(), 0);
        assert_eq!(report.recode_failures, 0);
        // Constant 1.0s rounds: learned deadline = 1.0 × margin (1.25).
        let d = report.learned_deadline.expect("past warmup");
        assert!((d - 1.25).abs() < 1e-9, "{d}");
        assert_eq!(report.deadline_updates, 1);
    }
}
