//! The ledger: every workload run `reps` times, interleaved
//! (A B C … A B C …), each run in a child process of its own, medians over
//! repetitions written to one JSON file — and `--compare`, which holds two
//! such files against the bounds in `spec`.

use std::path::Path;
use std::process::{Command, Stdio};

use crate::json::Value;
use crate::spec::{self, Workload, END_TO_END};
use crate::stats;
use crate::workloads::BoxError;

/// The result line a single run prints last: the contract's four keys.
#[derive(Debug, Clone, PartialEq)]
pub struct RunLine {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    /// `(name, value, unit)` in reporting order.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunLine {
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", self.metrics_json()),
        ])
    }

    /// `{name: {"value": …, "unit": …}, …}` in reporting order.
    pub fn metrics_json(&self) -> Value {
        Value::obj(self.metrics.iter().map(|(name, value, unit)| {
            (
                name.clone(),
                Value::obj([
                    ("value", Value::Num(*value)),
                    ("unit", Value::Str(unit.clone())),
                ]),
            )
        }))
    }

    pub fn parse(line: &str) -> Result<RunLine, String> {
        let doc = Value::parse(line)?;
        let count = |key: &str| {
            doc.get(key)
                .and_then(Value::as_f64)
                .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                .map(|n| n as usize)
                .ok_or(format!("{key:?} is not a whole number"))
        };
        let metrics = doc
            .get("metrics")
            .ok_or("no \"metrics\"")?
            .members()
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Value::as_f64);
                let unit = m.get("unit").and_then(Value::as_str);
                match (value, unit) {
                    (Some(value), Some(unit)) => Ok((name.clone(), value, unit.to_owned())),
                    _ => Err(format!("metric {name:?} lacks a value or a unit")),
                }
            })
            .collect::<Result<_, _>>()?;
        Ok(RunLine {
            correct: doc
                .get("correct")
                .and_then(Value::as_bool)
                .ok_or("no \"correct\"")?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

/// How the ledger is to be taken.
#[derive(Debug, Clone)]
pub struct Options {
    pub workloads: Vec<&'static Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub reps: usize,
    pub out: String,
}

/// Runs one workload once in a child process and parses its result line.
fn child(workload: &Workload, opts: &Options, trace: bool) -> Result<RunLine, BoxError> {
    let output = Command::new(std::env::current_exe()?)
        .args(["--workload", workload.name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let line = RunLine::parse(last).map_err(|e| {
        format!(
            "{}: no result line ({e}); exit {}",
            workload.name, output.status
        )
    })?;
    if !output.status.success() || !line.correct {
        // The child explained itself on its standard output.
        eprint!("{stdout}");
    }
    Ok(line)
}

/// Takes the ledger, prints the table, writes `opts.out`. Returns whether
/// every run was correct.
pub fn take(opts: &Options) -> Result<bool, BoxError> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    eprintln!(
        "ledger: {} workloads x {} repetitions x {} s (+ one traced run each), seed {}, nproc {nproc}",
        opts.workloads.len(),
        opts.reps,
        opts.seconds,
        opts.seed
    );
    let mut all_correct = true;
    let mut untraced: Vec<Vec<RunLine>> = vec![Vec::new(); opts.workloads.len()];
    for rep in 0..opts.reps {
        for (i, workload) in opts.workloads.iter().enumerate() {
            eprintln!("  rep {}/{}  {}", rep + 1, opts.reps, workload.name);
            let line = child(workload, opts, false)?;
            all_correct &= line.correct;
            untraced[i].push(line);
        }
    }
    let mut traced = Vec::new();
    for workload in &opts.workloads {
        eprintln!("  traced   {}", workload.name);
        let line = child(workload, opts, true)?;
        all_correct &= line.correct;
        traced.push(line);
    }

    let mut rows = Vec::new();
    for ((workload, runs), layers) in opts.workloads.iter().zip(&untraced).zip(&traced) {
        println!("\n{}", workload.name);
        let mut end_to_end = Vec::new();
        for metric in END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|run| run.metrics.iter().find(|m| m.0 == metric.name))
                .map(|m| m.1)
                .collect();
            let sorted = stats::sorted(&values);
            let median = stats::median(&values);
            println!(
                "  {:<18} {:>12.4} {:<4} (min {:.4}, max {:.4}, IQR {:.1} % of median; {} better, bound {:.0} %)",
                metric.name,
                median,
                metric.unit,
                sorted.first().copied().unwrap_or_default(),
                sorted.last().copied().unwrap_or_default(),
                stats::iqr_share(&values) * 100.0,
                metric.better.as_str(),
                metric.bound * 100.0
            );
            end_to_end.push((
                metric.name,
                Value::obj([
                    ("unit", Value::Str(metric.unit.into())),
                    ("median", Value::Num(median)),
                    (
                        "values",
                        Value::Arr(values.into_iter().map(Value::Num).collect()),
                    ),
                ]),
            ));
        }
        let attempted: usize = runs.iter().map(|r| r.attempted).sum();
        let failed: usize = runs.iter().map(|r| r.failed).sum();
        println!(
            "  {:<18} {:>12.6}      ({failed} of {attempted} rounds)",
            "failed_round_share",
            failed as f64 / attempted.max(1) as f64
        );
        for (name, value, unit) in &layers.metrics {
            println!("    {name:<36} {value:>14.4} {unit}");
        }
        rows.push(Value::obj([
            ("name", Value::Str(workload.name.into())),
            ("attempted", Value::Num(attempted as f64)),
            ("failed", Value::Num(failed as f64)),
            ("end_to_end", Value::obj(end_to_end)),
            ("per_layer", layers.metrics_json()),
        ]));
    }
    let doc = Value::obj([
        ("seed", Value::Num(opts.seed as f64)),
        ("seconds", Value::Num(opts.seconds)),
        ("reps", Value::Num(opts.reps as f64)),
        ("nproc", Value::Num(nproc as f64)),
        ("workloads", Value::Arr(rows)),
    ]);
    if let Some(dir) = Path::new(&opts.out).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(&opts.out, format!("{doc}\n"))?;
    println!("\nwrote {}", opts.out);
    Ok(all_correct)
}

/// The verdict on one workload × end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Improved,
    /// The repetitions of one file range wider than the bound, and the new
    /// runs do not all beat the old ones: the files cannot tell.
    Unresolved,
    Regressed,
}

/// Compares the repetitions of one metric in two ledgers.
pub fn verdict(metric: &spec::EndToEnd, old: &[f64], new: &[f64]) -> Verdict {
    let (old_median, new_median) = (stats::median(old), stats::median(new));
    let worse_by = metric.better.worse_by(old_median, new_median);
    if worse_by > metric.bound {
        return Verdict::Regressed;
    }
    let range = |values: &[f64], median: f64| {
        let s = stats::sorted(values);
        (s[s.len() - 1] - s[0]) / median.abs()
    };
    let every_new_run_wins = new
        .iter()
        .all(|&n| old.iter().all(|&o| metric.better.worse_by(o, n) < 0.0));
    let wide = range(old, old_median) > metric.bound || range(new, new_median) > metric.bound;
    if wide && !every_new_run_wins {
        Verdict::Unresolved
    } else if worse_by < -metric.bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

/// Prints one row per workload × end-to-end metric of two ledger
/// documents; `Ok(false)` on any regression or any rise in
/// `failed_round_share`.
pub fn compare(old: &Value, new: &Value) -> Result<bool, String> {
    let rows = |doc: &Value| -> Result<Vec<Value>, String> {
        Ok(doc
            .get("workloads")
            .and_then(Value::as_arr)
            .ok_or("no \"workloads\" array")?
            .to_vec())
    };
    let values = |row: &Value, metric: &str| -> Option<Vec<f64>> {
        row.get("end_to_end")?
            .get(metric)?
            .get("values")?
            .as_arr()?
            .iter()
            .map(Value::as_f64)
            .collect()
    };
    let failed_share = |row: &Value| {
        let get = |key| row.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        get("failed") / get("attempted").max(1.0)
    };
    let (old_rows, new_rows) = (rows(old)?, rows(new)?);
    let mut pass = true;
    println!(
        "{:<20} {:<18} {:>12} {:>12} {:>9}  verdict",
        "workload", "metric", "old median", "new median", "new/old"
    );
    for new_row in &new_rows {
        let name = new_row.get("name").and_then(Value::as_str).unwrap_or("?");
        let Some(old_row) = old_rows
            .iter()
            .find(|r| r.get("name").and_then(Value::as_str) == Some(name))
        else {
            println!("{name:<20} (not in the old file)");
            continue;
        };
        for metric in &END_TO_END {
            let (Some(o), Some(n)) = (values(old_row, metric.name), values(new_row, metric.name))
            else {
                return Err(format!("{name}: {} missing from a file", metric.name));
            };
            if o.is_empty() || n.is_empty() {
                return Err(format!("{name}: {} has no repetitions", metric.name));
            }
            let v = verdict(metric, &o, &n);
            pass &= v != Verdict::Regressed;
            let (om, nm) = (stats::median(&o), stats::median(&n));
            println!(
                "{name:<20} {:<18} {om:>12.4} {nm:>12.4} {:>9.4}  {}",
                metric.name,
                nm / om,
                match v {
                    Verdict::Ok => "ok".to_owned(),
                    Verdict::Improved => "improved".to_owned(),
                    Verdict::Unresolved =>
                        "unresolved (repetitions range past the bound)".to_owned(),
                    Verdict::Regressed => format!(
                        "REGRESSED (worse by more than {:.0} % of {om:.4})",
                        metric.bound * 100.0
                    ),
                }
            );
        }
        let (of, nf) = (failed_share(old_row), failed_share(new_row));
        let rose = nf > of;
        pass &= !rose;
        println!(
            "{name:<20} {:<18} {of:>12.6} {nf:>12.6} {:>9}  {}",
            "failed_round_share",
            "",
            if rose {
                "REGRESSED (any rise fails)"
            } else {
                "ok"
            }
        );
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static spec::EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn result_line_round_trips() {
        let line = RunLine {
            correct: true,
            attempted: 1250,
            failed: 0,
            metrics: vec![
                ("rounds_per_s".into(), 121.418_889_000_000_01, "1/s".into()),
                ("setup_s".into(), 6.24033e-4, "s".into()),
            ],
        };
        let text = line.to_json().to_string();
        assert!(!text.contains('\n'));
        assert_eq!(RunLine::parse(&text).unwrap(), line);
        let doc = Value::parse(&text).unwrap();
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(RunLine::parse("{\"correct\":true}").is_err());
        assert!(RunLine::parse("not json").is_err());
    }

    #[test]
    fn verdicts_on_hand_made_repetitions() {
        let rps = metric("rounds_per_s"); // higher is better, bound 25 %
        assert_eq!(
            verdict(rps, &[100.0, 101.0, 99.0], &[99.0, 100.0, 98.0]),
            Verdict::Ok
        );
        assert_eq!(
            verdict(rps, &[100.0, 101.0, 99.0], &[70.0, 71.0, 69.0]),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(rps, &[100.0, 101.0, 99.0], &[140.0, 141.0, 139.0]),
            Verdict::Improved
        );
        // One file's repetitions span 60 %: the medians agree, but the
        // files cannot show it.
        assert_eq!(
            verdict(rps, &[100.0, 130.0, 70.0], &[100.0, 101.0, 99.0]),
            Verdict::Unresolved
        );
        // …unless every new run beats every old one.
        assert_eq!(
            verdict(rps, &[100.0, 130.0, 70.0], &[180.0, 181.0, 179.0]),
            Verdict::Improved
        );
        let rss = metric("peak_rss_mb"); // lower is better, bound 15 %
        assert_eq!(
            verdict(rss, &[8.0, 8.1, 8.0], &[9.5, 9.6, 9.5]),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(rss, &[8.0, 8.1, 8.0], &[6.5, 6.6, 6.5]),
            Verdict::Improved
        );
    }

    fn ledger(rps: [f64; 3], failed: f64) -> Value {
        let e2e = END_TO_END.iter().map(|m| {
            let values = if m.name == "rounds_per_s" {
                rps.to_vec()
            } else {
                vec![1.0, 1.0, 1.0]
            };
            (
                m.name,
                Value::obj([(
                    "values",
                    Value::Arr(values.into_iter().map(Value::Num).collect()),
                )]),
            )
        });
        Value::obj([(
            "workloads",
            Value::Arr(vec![Value::obj([
                ("name", Value::Str("sim-bsp-miss".into())),
                ("attempted", Value::Num(1000.0)),
                ("failed", Value::Num(failed)),
                ("end_to_end", Value::obj(e2e)),
            ])]),
        )])
    }

    #[test]
    fn compare_fails_on_regressions_and_failed_rounds() {
        let base = ledger([100.0, 101.0, 99.0], 0.0);
        assert_eq!(compare(&base, &base), Ok(true));
        assert_eq!(compare(&base, &ledger([70.0, 71.0, 69.0], 0.0)), Ok(false));
        assert_eq!(
            compare(&base, &ledger([100.0, 101.0, 99.0], 1.0)),
            Ok(false)
        );
        assert_eq!(compare(&ledger([100.0, 101.0, 99.0], 1.0), &base), Ok(true));
        assert!(compare(&Value::Null, &base).is_err());
    }
}
