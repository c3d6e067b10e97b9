//! The repo's perf ledger. One command, three uses:
//!
//! * `-- --workload <name> --seed <n> --seconds <s> --trace <0|1>` — one
//!   run of one workload in this process: the end-to-end metrics
//!   (`--trace 0`, no `Recorder` attached) or the per-layer metrics
//!   (`--trace 1`). Prints every metric by name with its unit, checks the
//!   outputs, and ends with one JSON result line. This is what
//!   `BENCHMARK.json` names and what the ledger re-executes.
//! * `-- --seed <n> [--reps <r>] [--workload <name>] [--quick]` — the
//!   ledger: every workload, `r` interleaved repetitions, each in a child
//!   process, plus one traced run each; medians go to
//!   `benchmark/out/ledger.json`.
//! * `-- --compare <old.json> <new.json>` — holds two ledgers against the
//!   bounds; `-- --list` prints workloads, metrics, units and bounds.
//!
//! See `benchmark/README.md`.

mod json;
mod layers;
mod ledger;
mod measure;
mod probes;
mod spec;
mod stats;
mod timed;
mod trace;
mod workloads;

use std::process::ExitCode;

use json::Value;
use ledger::RunLine;
use spec::{Workload, END_TO_END, WORKLOADS};
use workloads::BoxError;

/// `run_seconds` of `BENCHMARK.json`: how long one run measures.
const DEFAULT_SECONDS: f64 = 18.0;
const DEFAULT_REPS: usize = 3;
/// `--quick`: one repetition of the shortest run in which every workload
/// still reaches its loss target.
const QUICK_SECONDS: f64 = 4.0;
const DEFAULT_OUT: &str = "benchmark/out/ledger.json";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    reps: Option<usize>,
    out: Option<String>,
    quick: bool,
    list: bool,
    compare: Option<(String, String)>,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut argv = argv.into_iter();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                let raw = value("a u64")?;
                args.seed = Some(raw.parse().map_err(|e| format!("--seed {raw:?}: {e}"))?);
            }
            "--seconds" => {
                let raw = value("a number of seconds")?;
                let seconds: f64 = raw.parse().map_err(|e| format!("--seconds {raw:?}: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {raw:?}: want 0 < s <= 600"));
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other:?}: want 0 or 1")),
                });
            }
            "--reps" => {
                let raw = value("a count")?;
                let reps: usize = raw.parse().map_err(|e| format!("--reps {raw:?}: {e}"))?;
                if !(1..=100).contains(&reps) {
                    return Err(format!("--reps {raw:?}: want 1 to 100"));
                }
                args.reps = Some(reps);
            }
            "--out" => args.out = Some(value("a file path")?),
            "--quick" => args.quick = true,
            "--list" => args.list = true,
            "--compare" => args.compare = Some((value("two files")?, value("two files")?)),
            other => {
                return Err(format!(
                    "unknown argument {other:?} (see benchmark/README.md)"
                ))
            }
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// `Ok(false)`: ran to the end, but a check failed or a metric regressed.
fn real_main() -> Result<bool, BoxError> {
    let args = parse_args(std::env::args().skip(1))?;
    if args.list {
        list();
        return Ok(true);
    }
    if let Some((old, new)) = &args.compare {
        let read =
            |path: &String| -> Result<Value, BoxError> {
                Ok(Value::parse(&std::fs::read_to_string(path)?)
                    .map_err(|e| format!("{path}: {e}"))?)
            };
        return Ok(ledger::compare(&read(old)?, &read(new)?)?);
    }
    // An unknown name is an error, never a silent skip.
    let selected = match &args.workload {
        Some(name) => Some(spec::workload(name).ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name:?}; the workloads are {names:?}")
        })?),
        None => None,
    };
    let seed = args.seed.unwrap_or(1);
    if let Some(trace) = args.trace {
        let workload = selected.ok_or("--trace runs one workload: name it with --workload")?;
        let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
        return single_run(workload, seed, seconds, trace);
    }
    let opts = ledger::Options {
        workloads: selected.map_or_else(|| WORKLOADS.iter().collect(), |w| vec![w]),
        seed,
        seconds: args.seconds.unwrap_or(if args.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        }),
        reps: args
            .reps
            .unwrap_or(if args.quick { 1 } else { DEFAULT_REPS }),
        out: args.out.unwrap_or_else(|| DEFAULT_OUT.to_owned()),
    };
    ledger::take(&opts)
}

/// One run of one workload in this process.
fn single_run(workload: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<bool, BoxError> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{}: seed {seed}, {seconds} s, {} run, nproc {nproc}",
        workload.name,
        if trace { "traced" } else { "untraced" }
    );
    let (line, violations) = if trace {
        let report = layers::run(workload.kind, workload.name, seed, seconds)?;
        let metrics = spec::per_layer()
            .into_iter()
            .map(|m| {
                let value = report.values.get(&m.name).copied();
                println!(
                    "  {:<36} {:>16} {:<6} -> {}",
                    m.name,
                    value.map_or("n/a".to_owned(), |v| format!("{v:.4}")),
                    m.unit,
                    m.moves
                );
                (m.name, value.unwrap_or(0.0), m.unit.to_owned())
            })
            .collect();
        println!("  trace file: {}", report.trace_file.display());
        let line = RunLine {
            correct: report.violations.is_empty(),
            attempted: report.attempted,
            failed: report.failed,
            metrics,
        };
        (line, report.violations)
    } else {
        let report = measure::run(workload.kind, seed, seconds)?;
        for (spec, (name, value)) in END_TO_END.iter().zip(report.metrics.values()) {
            debug_assert_eq!(spec.name, name);
            println!(
                "  {name:<18} {value:>14.6} {:<4} ({} is better, bound {:.0} %)",
                spec.unit,
                spec.better.as_str(),
                spec.bound * 100.0
            );
        }
        let ungated = &report.ungated;
        println!(
            "  not held to a bound: round_ms p50 {:.4}, p{} {:.4} ({} samples); \
             {} rounds to target, {:.4} s by the wall clock",
            ungated.rounds.p50_ms,
            ungated.rounds.tail * 100.0,
            ungated.rounds.tail_ms,
            ungated.rounds.samples,
            ungated.rounds_to_target,
            ungated.time_to_target_wall_s
        );
        if let Some(off) = ungated.reference_off {
            println!(
                "  loss at round {} is within {off:.3e} (relative) of the serial reference",
                measure::CHECK_ROUND
            );
        }
        println!(
            "  {:<18} {:>14.6}      ({} of {} rounds; any rise is a regression)",
            "failed_round_share",
            report.failed as f64 / report.attempted.max(1) as f64,
            report.failed,
            report.attempted
        );
        let line = RunLine {
            correct: report.violations.is_empty(),
            attempted: report.attempted,
            failed: report.failed,
            metrics: END_TO_END
                .iter()
                .zip(report.metrics.values())
                .map(|(spec, (_, value))| (spec.name.to_owned(), value, spec.unit.to_owned()))
                .collect(),
        };
        (line, report.violations)
    };
    for violation in &violations {
        println!("  CHECK FAILED: {violation}");
    }
    if violations.is_empty() {
        println!("  checks passed");
    }
    println!("{}", line.to_json());
    Ok(line.correct)
}

fn list() {
    println!("workloads:");
    for w in WORKLOADS {
        println!(
            "  {:<20} {}\n  {:<20} layers: {}",
            w.name, w.why, "", w.layers
        );
    }
    println!("\nend-to-end metrics (every workload, untraced run):");
    for m in END_TO_END {
        println!(
            "  {:<18} {:<5} {:<6} better, bound {:>2.0} %  {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.what
        );
    }
    println!("  failed_round_share       lower  better, any rise     failed / attempted of the result line");
    println!(
        "\nper-layer metrics (traced run, no bound) -> the end-to-end metric each should move:"
    );
    for m in spec::per_layer() {
        println!(
            "  {:<36} {:<6} {:<6} -> {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        parse_args(words.iter().map(|w| (*w).to_owned()))
    }

    #[test]
    fn the_drivers_invocation_parses() {
        let args = parse(&[
            "--workload",
            "socket-int8",
            "--seed",
            "18446744073709551615",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("socket-int8"));
        assert_eq!(args.seed, Some(u64::MAX));
        assert_eq!(args.seconds, Some(10.0));
        assert_eq!(args.trace, Some(true));
    }

    #[test]
    fn malformed_arguments_are_errors() {
        for bad in [
            &["--seed"][..],
            &["--seed", "-1"],
            &["--seconds", "0"],
            &["--seconds", "nan"],
            &["--trace", "2"],
            &["--reps", "0"],
            &["--compare", "only-one.json"],
            &["--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
        assert!(spec::workload("no-such-workload").is_none());
    }
}
