//! Regenerates **Fig. 5** of the paper: computing-resource usage
//! (`Σ compute time / Σ total worker time`) of each scheme.
//!
//! Expected shape (paper §VI-A-2): naive is the worst (fast workers idle
//! waiting for stragglers and the slowest node); cyclic improves by
//! discarding stragglers but keeps the load imbalance; heter-aware and
//! group-based are best, capped around ~50 % by communication overhead.
//!
//! ```text
//! cargo run --release -p hetgc-bench --bin fig5
//! ```

use hetgc::experiment::{fig5, Fig5Config};
use hetgc::report::{fmt_percent, render_table};
use hetgc::ClusterSpec;
use hetgc_bench::arg_or;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let iterations = arg_or(&args, "--iterations", 50usize);
    let seed = arg_or(&args, "--seed", 2022u64);

    println!("Fig. 5: computing resource usage per scheme\n");
    let clusters = [ClusterSpec::cluster_a(), ClusterSpec::cluster_b()];
    let mut headers = vec!["cluster"];
    let mut table = Vec::new();
    for cluster in clusters {
        let cfg = Fig5Config {
            cluster: cluster.clone(),
            iterations,
            seed,
            ..Fig5Config::default()
        };
        let rows = fig5(&cfg).expect("fig5 experiment");
        // One column per scheme, named by the rows themselves.
        let schemes: Vec<&str> = rows.iter().map(|row| row.scheme.name()).collect();
        if table.is_empty() {
            headers.extend(&schemes);
        }
        assert_eq!(schemes, headers[1..], "one scheme order on every cluster");
        let mut cells = vec![cluster.name().to_owned()];
        for row in rows {
            cells.push(fmt_percent(row.usage));
        }
        table.push(cells);
    }
    println!("{}", render_table(&headers, &table));
    println!(
        "(usage is capped well below 100% by communication overhead — the paper\n\
         attributes its ~50% ceiling to the same cause and cites layer-wise\n\
         overlap [42] as the known fix)"
    );
}
