//! # hetgc-bench
//!
//! The benchmark harness of the hetgc workspace:
//!
//! * **Figure/table binaries** (`src/bin/`): `table2`, `fig2`, `fig3`,
//!   `fig4`, `fig5`, `optimality` — each regenerates one artefact of the
//!   paper's evaluation section. Run e.g.
//!   `cargo run --release -p hetgc-bench --bin fig2 -- --stragglers 1`.
//! * **Criterion micro-benchmarks** (`benches/`): construction cost of the
//!   coding matrices, decode-vector solve cost (the paper's `O(mk²)`
//!   realtime-decoding claim), group search, simulator throughput, and the
//!   linearity of gradient cost in partition size (the load-balancing
//!   premise of Eq. 5).
//!
//! This library target only hosts the tiny CLI-argument helper shared by
//! the binaries.

/// Parses `--key value` style arguments: returns the value following the
/// given flag, parsed, or the default. Malformed values fall back to the
/// default rather than aborting a long benchmark run.
pub fn arg_or<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_present_flag() {
        let a = args(&["--stragglers", "2", "--quick"]);
        assert_eq!(arg_or(&a, "--stragglers", 1usize), 2);
    }

    #[test]
    fn falls_back_to_default() {
        let a = args(&["--other", "x"]);
        assert_eq!(arg_or(&a, "--stragglers", 1usize), 1);
    }

    #[test]
    fn malformed_value_uses_default() {
        let a = args(&["--iters", "abc"]);
        assert_eq!(arg_or(&a, "--iters", 7usize), 7);
    }

    #[test]
    fn flag_at_end_without_value() {
        let a = args(&["--iters"]);
        assert_eq!(arg_or(&a, "--iters", 7usize), 7);
    }
}
