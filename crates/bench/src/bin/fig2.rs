//! Regenerates **Fig. 2** of the paper: average time per iteration on
//! Cluster-A as the injected straggler delay grows, for all four schemes,
//! ending with the fault case (delay = ∞).
//!
//! Expected shape (paper §VI-A-1): naive grows with delay and cannot run
//! under faults; cyclic is delay-insensitive but capped by its slowest
//! needed worker; heter-aware and group-based stay flat at the balanced
//! optimum — roughly 3× faster than cyclic in the fault case.
//!
//! ```text
//! cargo run --release -p hetgc-bench --bin fig2 -- --stragglers 1
//! cargo run --release -p hetgc-bench --bin fig2 -- --stragglers 2   # Fig. 2b
//! ```

use hetgc::analysis::speedup;
use hetgc::experiment::{fig2, Fig2Config, Fig2Row};
use hetgc::report::{fmt_opt_secs, render_table};
use hetgc::SchemeKind;
use hetgc_bench::arg_or;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let stragglers = arg_or(&args, "--stragglers", 1usize);
    let iterations = arg_or(&args, "--iterations", 30usize);
    let seed = arg_or(&args, "--seed", 2019u64);

    let cfg = Fig2Config {
        stragglers,
        iterations,
        seed,
        ..Fig2Config::default()
    };
    println!(
        "Fig. 2{}: avg time/iteration vs injected delay on {} (s = {stragglers}, {} iters/point)\n",
        if stragglers == 1 { "a" } else { "b" },
        cfg.cluster.name(),
        cfg.iterations
    );

    let rows = fig2(&cfg).expect("fig2 experiment");
    // One column per scheme, named by the rows themselves.
    let schemes =
        |row: &Fig2Row| -> Vec<&str> { row.avg_times.iter().map(|(k, _)| k.name()).collect() };
    let mut headers = vec!["delay (s)"];
    headers.extend(rows.first().map(schemes).unwrap_or_default());
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            assert_eq!(schemes(row), headers[1..], "one scheme order in every row");
            let mut cells = vec![if row.delay.is_infinite() {
                "fault".to_owned()
            } else {
                format!("{:.1}", row.delay)
            }];
            for (_, t) in &row.avg_times {
                cells.push(fmt_opt_secs(*t));
            }
            cells
        })
        .collect();
    println!("{}", render_table(&headers, &table));

    // The paper's headline: heter-aware vs cyclic at the fault point.
    if let Some(fault_row) = rows.iter().find(|r| r.delay.is_infinite()) {
        let get = |kind: SchemeKind| {
            fault_row
                .avg_times
                .iter()
                .find(|(k, _)| *k == kind)
                .and_then(|(_, t)| *t)
        };
        if let (Some(cyc), Some(het)) = (get(SchemeKind::Cyclic), get(SchemeKind::HeterAware)) {
            if let Some(s) = speedup(cyc, het) {
                println!("fault-case speedup of heter-aware over cyclic: {s:.2}x");
            }
        }
    }
}
