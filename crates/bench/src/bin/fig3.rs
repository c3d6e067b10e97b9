//! Regenerates **Fig. 3** of the paper: average time per iteration on
//! Clusters B, C and D under random transient stragglers, for all four
//! schemes.
//!
//! Expected shape (paper §VI-A-2): heter-aware and group-based win on
//! every cluster; cyclic can be *worse than naive* because it doubles the
//! (uniform) load of already-slow workers.
//!
//! ```text
//! cargo run --release -p hetgc-bench --bin fig3
//! ```

use hetgc::experiment::{fig3, Fig3Config, Fig3Row};
use hetgc::report::{fmt_opt_secs, render_table};
use hetgc_bench::arg_or;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let iterations = arg_or(&args, "--iterations", 50usize);
    let stragglers = arg_or(&args, "--stragglers", 1usize);
    let noise = arg_or(&args, "--noise", 0.10f64);
    let seed = arg_or(&args, "--seed", 2020u64);

    let cfg = Fig3Config {
        iterations,
        stragglers,
        estimation_noise: noise,
        seed,
        ..Fig3Config::default()
    };
    println!(
        "Fig. 3: avg time/iteration under transient stragglers \
         (s = {stragglers}, estimation noise {noise:.0}%, {iterations} iters)\n",
        noise = 100.0 * noise
    );

    let rows = fig3(&cfg).expect("fig3 experiment");
    // One column per scheme, named by the rows themselves.
    let schemes =
        |row: &Fig3Row| -> Vec<&str> { row.avg_times.iter().map(|(k, _)| k.name()).collect() };
    let mut headers = vec!["cluster"];
    headers.extend(rows.first().map(schemes).unwrap_or_default());
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            assert_eq!(schemes(row), headers[1..], "one scheme order in every row");
            let mut cells = vec![row.cluster.clone()];
            for (_, t) in &row.avg_times {
                cells.push(fmt_opt_secs(*t));
            }
            cells
        })
        .collect();
    println!("{}", render_table(&headers, &table));
}
