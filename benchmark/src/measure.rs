//! The untraced run of one workload: repeated set-up, up to four measured
//! passes with no `Recorder` attached, the end-to-end metrics computed
//! from their pooled samples, and the correctness checks that decide the
//! exit code.

use std::time::{Duration, Instant};

use hetgc_suite::hetgc::RoundRecord;

use crate::stats;
use crate::timed::{peak_rss_mb, Stamps, Window};
use crate::workloads::{
    sched_batch, serial_reference_loss, training_pass, BoxError, Kind, Plan, RunData, SCHED_ROUNDS,
    SCHED_TENANTS, TARGET_SHARE,
};

/// Rounds discarded before the measuring window opens.
pub const WARMUP_ROUNDS: usize = 50;
/// A run builds the system at least this many times, and keeps building
/// it until [`SETUP_BUDGET_S`] is spent or [`SETUP_REPS_MAX`] is reached,
/// to report the median set-up: a millisecond set-up needs many more
/// repetitions than a 10 ms one to give a steady median. (A low quantile
/// is no steadier: socket set-up has a fast mode that a tenth to a third
/// of the builds hit.)
const SETUP_REPS_MIN: usize = 5;
const SETUP_REPS_MAX: usize = 40;
const SETUP_BUDGET_S: f64 = 0.25;
/// The round whose evaluated loss is compared against the serial
/// reference (early enough that no workload is near its noise floor).
pub const CHECK_ROUND: usize = 100;
/// Slices each pass's measured window is cut into (0.15 s each on an 18 s
/// run).
const RATE_SLICES: usize = 30;
/// `rounds_per_s` is this quantile of the pooled slice rates: the rate the
/// system sustains in its best tenth of slices. Interference from the
/// rest of the machine only ever slows a slice down, and on a shared
/// 2-vCPU box it does so for seconds at a time, so the median slice moves
/// by 10–20 % from run to run where the upper decile moves by about 5 %.
const SUSTAINED_QUANTILE: f64 = 0.9;
/// A run's measuring time is split over up to this many passes — each a
/// fresh system with its own warm-up — whose samples are pooled: thread
/// placement and memory layout differ from one start of the system to the
/// next, and one start would make that luck part of the reported value.
const MAX_PASSES: usize = 4;
/// No pass is shorter than this (on an undisturbed machine every workload
/// reaches its loss target inside it; `Kind::min_rounds` covers a disturbed
/// one), so a 4 s smoke run is a single pass.
const MIN_PASS_SECONDS: f64 = 4.0;

/// The end-to-end metrics of one run, in `BENCHMARK.json` order.
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub rounds_per_s: f64,
    pub time_to_target_s: f64,
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    /// `(name, value)` pairs in the order `spec::END_TO_END` lists them.
    pub fn values(&self) -> [(&'static str, f64); 4] {
        [
            ("setup_s", self.setup_s),
            ("rounds_per_s", self.rounds_per_s),
            ("time_to_target_s", self.time_to_target_s),
            ("peak_rss_mb", self.peak_rss_mb),
        ]
    }
}

/// What a run also measured and prints, but no bound is held against:
/// their run-to-run spread on this machine is wider than any bound the
/// ledger may set. The traced run reports them as per-layer metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Ungated {
    pub rounds: RoundStats,
    /// Rounds until the loss target (median over passes).
    pub rounds_to_target: f64,
    /// Wall seconds from round 1 to the target, cold start included.
    pub time_to_target_wall_s: f64,
    /// Largest relative distance, over the passes, of the loss at
    /// [`CHECK_ROUND`] from the serial reference (`None` on `sched-batch`,
    /// whose tenants have no reference).
    pub reference_off: Option<f64>,
}

/// One untraced run.
#[derive(Debug)]
pub struct Report {
    pub metrics: EndToEnd,
    pub ungated: Ungated,
    /// Rounds asked of the system, and those that failed, errored or were
    /// never recorded.
    pub attempted: usize,
    pub failed: usize,
    /// One line per failed correctness check; empty means correct.
    pub violations: Vec<String>,
}

/// Round statistics over the measured rounds of one or more passes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundStats {
    /// The sustained rate ([`SUSTAINED_QUANTILE`] of the slice rates).
    pub rounds_per_s: f64,
    /// Median wall time between successive round starts.
    pub p50_ms: f64,
    /// The `tail` percentile of the same samples: the highest one with at
    /// least ten samples beyond it.
    pub tail_ms: f64,
    pub tail: f64,
    pub samples: usize,
}

impl RoundStats {
    /// Pools the measured rounds of `passes`.
    pub fn pooled<'a>(passes: impl IntoIterator<Item = &'a Stamps>) -> RoundStats {
        let (mut round_ms, mut rates) = (Vec::new(), Vec::new());
        for stamps in passes {
            round_ms.extend(stamps.round_ms());
            rates.extend(stats::slice_rates(&stamps.measured_starts(), RATE_SLICES));
        }
        let sorted = stats::sorted(&round_ms);
        let tail = stats::highest_supported_tail(sorted.len());
        RoundStats {
            rounds_per_s: stats::quantile_sorted(&stats::sorted(&rates), SUSTAINED_QUANTILE),
            p50_ms: stats::quantile_sorted(&sorted, 0.5),
            tail_ms: stats::quantile_sorted(&sorted, tail),
            tail,
            samples: sorted.len(),
        }
    }
}

/// The measuring window of a `seconds`-long pass.
pub fn window(seconds: f64) -> Window {
    Window {
        warmup: WARMUP_ROUNDS,
        measure: Duration::from_secs_f64(seconds),
        min_rounds: 0,
        max_rounds: usize::MAX,
    }
}

/// Runs workload `kind` untraced for `seconds` of measuring.
pub fn run(kind: Kind, seed: u64, seconds: f64) -> Result<Report, BoxError> {
    let mut report = if kind == Kind::SchedBatch {
        run_sched(seed, seconds)?
    } else {
        run_training(kind, seed, seconds)?
    };
    if report.metrics.peak_rss_mb == 0.0 {
        // A run too short to reach the mark (or sched-batch, whose batches
        // are a fixed number of rounds each): the peak at the end.
        report.metrics.peak_rss_mb = peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?;
    }
    for (name, value) in report.metrics.values() {
        if !(value.is_finite() && value > 0.0) {
            report
                .violations
                .push(format!("{name} = {value} is not a positive number"));
        }
    }
    Ok(report)
}

fn run_training(kind: Kind, seed: u64, seconds: f64) -> Result<Report, BoxError> {
    let mut setups = Vec::new();
    let passes = ((seconds / MIN_PASS_SECONDS) as usize).clamp(1, MAX_PASSES);
    let mut violations = Vec::new();
    let (mut stamps, mut target_rounds, mut target_walls) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let mut reference_off = 0.0f64;
    for _ in 0..passes {
        let plan = Plan {
            window: Some(Window {
                min_rounds: kind.min_rounds(),
                ..window(seconds / passes as f64)
            }),
            ..Plan::default()
        };
        let pass = training_pass(kind, seed, plan)?;
        setups.push(pass.setup_s);
        let run = pass.run.expect("a windowed pass runs");
        attempted += run.stamps.starts.len();
        failed += run.stamps.starts.len() - run.outcome.rounds();
        match target_round(&run.outcome.records) {
            Ok(round) => {
                target_rounds.push(round as f64);
                target_walls.push(
                    run.stamps
                        .seconds_until_done(round)
                        .expect("a recorded round was stamped"),
                );
            }
            Err(why) => violations.push(why),
        }
        match check_trajectory(kind, seed, &run) {
            Ok(off) => reference_off = reference_off.max(off),
            Err(why) => violations.push(why),
        }
        if !run.encodings_ok {
            violations.push("a link negotiated another payload encoding than requested".into());
        }
        stamps.push(run.stamps);
    }
    if failed > 0 {
        violations.push(format!("{failed} of {attempted} rounds failed"));
    }
    // The repeated builds come after the passes: in a process that has
    // just started, the first builds pay for cold caches and an idle CPU,
    // and how many of them do varies from run to run.
    setups.extend(repeat_setup(|| {
        Ok(training_pass(kind, seed, Plan::default())?.setup_s)
    })?);
    let rounds = RoundStats::pooled(&stamps);
    let rounds_to_target = stats::median(&target_rounds);
    Ok(Report {
        metrics: EndToEnd {
            setup_s: stats::median(&setups),
            rounds_per_s: rounds.rounds_per_s,
            time_to_target_s: rounds_to_target / rounds.rounds_per_s,
            peak_rss_mb: stamps.iter().find_map(|s| s.rss_mb_at_mark).unwrap_or(0.0),
        },
        ungated: Ungated {
            rounds,
            rounds_to_target,
            time_to_target_wall_s: stats::median(&target_walls),
            reference_off: Some(reference_off),
        },
        attempted,
        failed,
        violations,
    })
}

/// Set-up times of repeated builds of the system (see [`SETUP_REPS_MIN`]).
fn repeat_setup(mut setup: impl FnMut() -> Result<f64, BoxError>) -> Result<Vec<f64>, BoxError> {
    let started = Instant::now();
    let mut setups = Vec::new();
    while setups.len() < SETUP_REPS_MIN
        || (setups.len() < SETUP_REPS_MAX && started.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        setups.push(setup()?);
    }
    Ok(setups)
}

/// The first round whose evaluated loss is at most [`TARGET_SHARE`] of the
/// first evaluated loss.
pub fn target_round(records: &[RoundRecord]) -> Result<usize, String> {
    let mut evaluated = records
        .iter()
        .filter_map(|r| r.loss.map(|loss| (r.round, loss)));
    let (_, first) = evaluated
        .next()
        .ok_or("the run ended before its first loss evaluation")?;
    let target = TARGET_SHARE * first;
    let mut last = first;
    for (round, loss) in evaluated {
        if !loss.is_finite() {
            return Err(format!("the loss at round {round} is not finite"));
        }
        if loss <= target {
            return Ok(round);
        }
        last = loss;
    }
    Err(format!(
        "the loss never fell to its target {target:e} (first {first:e}, last {last:e})"
    ))
}

/// Checks the run's loss at [`CHECK_ROUND`] against the serial full-batch
/// reference: to rounding for exact-decode workloads, within 1 % for the
/// quantized wire (which is how `socket-int8` is held to `socket-f64`,
/// itself held to the reference). `Ok` is the relative distance.
fn check_trajectory(kind: Kind, seed: u64, run: &RunData) -> Result<f64, String> {
    let tolerance = if kind.exact_decode() { 1e-9 } else { 1e-2 };
    let records = &run.outcome.records;
    let Some(loss) = records
        .get(CHECK_ROUND - 1)
        .filter(|r| r.round == CHECK_ROUND)
        .and_then(|r| r.loss)
    else {
        return Err(format!("round {CHECK_ROUND} was never evaluated"));
    };
    let scales: Vec<f64> = records[..CHECK_ROUND]
        .iter()
        .map(|r| r.step_scale)
        .collect();
    let reference = serial_reference_loss(kind, seed, &scales);
    let off = ((loss - reference) / reference).abs();
    if off.is_nan() || off > tolerance {
        return Err(format!(
            "loss at round {CHECK_ROUND} is {loss:e}, the serial reference {reference:e}: \
             off by {off:e} relative, allowed {tolerance:e}"
        ));
    }
    Ok(off)
}

/// `sched-batch`: whole batches of [`SCHED_TENANTS`] × [`SCHED_ROUNDS`]
/// rounds, repeated until the measuring time is used up; each metric is
/// the median over batches (the rounds are sleep-dominated and steady, so
/// the median needs no help).
fn run_sched(seed: u64, seconds: f64) -> Result<Report, BoxError> {
    let mut violations = Vec::new();
    let (mut rates, mut target_rounds, mut target_clocks) = (vec![], vec![], vec![]);
    let mut round_ms = Vec::new();
    let (mut attempted, mut completed) = (0, 0);
    let started = Instant::now();
    while attempted == 0 || started.elapsed().as_secs_f64() < seconds {
        let report = sched_batch(seed, SCHED_ROUNDS, true, None)?;
        attempted += SCHED_TENANTS * SCHED_ROUNDS;
        if report.outcomes.len() != SCHED_TENANTS {
            violations.push(format!(
                "a batch returned {} outcomes for {SCHED_TENANTS} tenants",
                report.outcomes.len()
            ));
        }
        let (mut slowest_round, mut slowest_clock) = (0, 0.0f64);
        for outcome in &report.outcomes {
            completed += outcome.rounds();
            round_ms.extend(
                outcome.records[WARMUP_ROUNDS.min(outcome.rounds())..]
                    .iter()
                    .map(|r| r.elapsed * 1e3),
            );
            match target_round(&outcome.records) {
                Ok(round) => {
                    slowest_round = slowest_round.max(round);
                    // The tenant's own clock: the sum of its round times.
                    slowest_clock = slowest_clock.max(outcome.records[round - 1].time);
                }
                Err(why) => violations.push(format!("{}: {why}", outcome.label)),
            }
        }
        rates.push((SCHED_TENANTS * SCHED_ROUNDS) as f64 / report.wall_seconds);
        target_rounds.push(slowest_round as f64);
        target_clocks.push(slowest_clock);
    }
    let failed = attempted - completed;
    if failed > 0 {
        violations.push(format!("{failed} of {attempted} rounds failed"));
    }
    // Set-up (after the batches, in a warm process, as for the other
    // workloads): admission, scheme, data, cluster start and the first round
    // of every tenant happen inside `JobScheduler::run`, so the time to
    // complete a one-round batch is what a tenant waits before training.
    let setups = repeat_setup(|| {
        let started = Instant::now();
        sched_batch(seed, 1, true, None)?;
        Ok(started.elapsed().as_secs_f64())
    })?;

    let sorted = stats::sorted(&round_ms);
    let tail = stats::highest_supported_tail(sorted.len());
    let time_to_target_s = stats::median(&target_clocks);
    Ok(Report {
        metrics: EndToEnd {
            setup_s: stats::median(&setups),
            rounds_per_s: stats::median(&rates),
            time_to_target_s,
            peak_rss_mb: 0.0,
        },
        ungated: Ungated {
            rounds: RoundStats {
                rounds_per_s: stats::median(&rates),
                p50_ms: stats::quantile_sorted(&sorted, 0.5),
                tail_ms: stats::quantile_sorted(&sorted, tail),
                tail,
                samples: sorted.len(),
            },
            rounds_to_target: stats::median(&target_rounds),
            time_to_target_wall_s: time_to_target_s,
            reference_off: None,
        },
        attempted,
        failed,
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(round: usize, loss: Option<f64>) -> RoundRecord {
        RoundRecord {
            round,
            time: round as f64,
            elapsed: 1.0,
            loss,
            residual: 0.0,
            step_scale: 1.0,
            results_used: 1,
            alloc_bytes: 0,
            pool_hits: 0,
            bytes_sent: 0,
            bytes_received: 0,
            wire_error: 0.0,
            job_id: None,
        }
    }

    #[test]
    fn target_is_a_share_of_the_first_evaluated_loss() {
        let records: Vec<RoundRecord> = (1..=50)
            .map(|r| {
                record(
                    r,
                    (r % 10 == 0).then(|| 8.0 * 0.05f64.powi(r as i32 / 10 - 1)),
                )
            })
            .collect();
        // Evaluated losses: 8, 0.4, 0.02, … — 1 % of 8 is passed at 30.
        assert_eq!(target_round(&records), Ok(30));
        assert!(target_round(&records[..25]).is_err(), "never reached");
        assert!(target_round(&records[..5]).is_err(), "never evaluated");
        let mut diverged = records.clone();
        diverged[19].loss = Some(f64::NAN);
        assert!(target_round(&diverged).unwrap_err().contains("not finite"));
    }

    #[test]
    fn peak_rss_reads_this_process() {
        assert!(peak_rss_mb().unwrap() > 0.5);
    }
}
