//! Order statistics over timing samples.

/// Sorted copy of `values`. NaN never occurs in a timing sample; if one
/// does it is a bug in the caller, hence the panic.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    v
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of an already sorted slice, by the
/// nearest-rank rule. Returns 0 on an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    // The epsilon keeps 0.9 × 100 = 90.00000000000001 at rank 90.
    let rank = (q * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the two middle samples on even counts).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Arithmetic mean (0 on an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The candidate tail percentiles, highest first. The ledger's tail metric
/// is named `round_ms_p99`, so p99 is the ceiling; shorter (smoke) runs
/// degrade to a lower percentile and say so next to the value.
const TAILS_PER_MILLE: [usize; 4] = [990, 950, 900, 750];

/// The highest tail percentile of a sample of `n` that still has at least
/// ten samples beyond it — the rule the metrics guide sets for reporting a
/// tail. Falls back to the median when even p75 is too thin.
pub fn highest_supported_tail(n: usize) -> f64 {
    TAILS_PER_MILLE
        .into_iter()
        .find(|per_mille| n - (n * per_mille).div_ceil(1000) >= 10)
        .map_or(0.5, |per_mille| per_mille as f64 / 1000.0)
}

/// Interquartile range as a share of the median — the spread the driver
/// holds every end-to-end metric to. Quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (exclusive method).
pub fn iqr_share(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        return 0.0;
    }
    let at = |p: f64| {
        // Exclusive method: position p·(n+1), 1-based, clamped.
        let pos = (p * (n as f64 + 1.0)).clamp(1.0, n as f64);
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        let hi = (lo + 1).min(n);
        s[lo - 1] + frac * (s[hi - 1] - s[lo - 1])
    };
    let med = median(&s);
    if med == 0.0 {
        0.0
    } else {
        (at(0.75) - at(0.25)) / med.abs()
    }
}

/// The rates (rounds per second) of `slices` consecutive equal-count
/// slices of `stamps` (monotone seconds, one per round start). The median
/// of slice rates is what the ledger calls rounds per second: a stall in
/// one slice cannot drag it the way it drags `rounds ÷ wall time`.
pub fn slice_rates(stamps: &[f64], slices: usize) -> Vec<f64> {
    let intervals = stamps.len().saturating_sub(1);
    if intervals == 0 {
        return Vec::new();
    }
    let slices = slices.clamp(1, intervals);
    (0..slices)
        .map(|i| {
            let lo = i * intervals / slices;
            let hi = (i + 1) * intervals / slices;
            (hi - lo) as f64 / (stamps[hi] - stamps[lo])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1200 samples: 1 % is 12 beyond p99.
        assert_eq!(highest_supported_tail(1200), 0.99);
        assert_eq!(highest_supported_tail(100_000), 0.99);
        // 999 samples leave 9.99 beyond p99: not enough, fall to p95.
        assert_eq!(highest_supported_tail(999), 0.95);
        assert_eq!(highest_supported_tail(1000), 0.99);
        assert_eq!(highest_supported_tail(100), 0.90);
        assert_eq!(highest_supported_tail(40), 0.75);
        assert_eq!(highest_supported_tail(12), 0.5);
    }

    #[test]
    fn quantiles_by_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn iqr_matches_python_exclusive_quartiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn slice_rate_ignores_one_stall() {
        // 100 rounds at 10 ms, with a 1 s stall inside the third slice.
        let mut t = 0.0;
        let stamps: Vec<f64> = (0..=100)
            .map(|i| {
                t += if i == 25 { 1.0 } else { 0.01 };
                t
            })
            .collect();
        let rate = median(&slice_rates(&stamps, 10));
        assert!((rate - 100.0).abs() < 1e-6, "{rate}");
    }
}
