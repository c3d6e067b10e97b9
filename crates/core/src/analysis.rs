//! Analytical checks against the paper's theory (§IV-B).

use hetgc_coding::{CodingError, CodingMatrix};

/// The Theorem-5 lower bound on worst-case completion time for *any*
/// strategy replicating each partition `s+1` times:
/// `T(B) ≥ (s+1)·k / Σc` (in units of partitions/throughput).
pub fn theorem5_lower_bound(partitions: usize, stragglers: usize, throughputs: &[f64]) -> f64 {
    let sum: f64 = throughputs.iter().sum();
    (stragglers as f64 + 1.0) * partitions as f64 / sum
}

/// The optimality ratio `T(B) / bound ≥ 1`, with `T(B)` from
/// [`CodingMatrix::worst_case_time`]; equals 1 for the heter-aware
/// scheme when Eq. 5 is integral (Theorem 5).
///
/// # Errors
///
/// Propagates [`CodingError`].
pub fn optimality_ratio(code: &CodingMatrix, throughputs: &[f64]) -> Result<f64, CodingError> {
    let t = code.worst_case_time(throughputs)?;
    let bound = theorem5_lower_bound(code.partitions(), code.stragglers(), throughputs);
    Ok(t / bound)
}

/// Whether Eq. 5 produces exactly integral `n_i` for these parameters
/// (the precondition of Theorem 5's equality case).
fn allocation_is_integral(throughputs: &[f64], partitions: usize, stragglers: usize) -> bool {
    let sum: f64 = throughputs.iter().sum();
    throughputs.iter().all(|&c| {
        let q = (partitions * (stragglers + 1)) as f64 * c / sum;
        (q - q.round()).abs() < 1e-9 && q.round() <= partitions as f64
    })
}

/// Speedup of `fast` over `slow` (e.g. heter-aware over cyclic — the
/// paper's headline is "up to 3×").
///
/// Returns `None` when either time is non-positive.
pub fn speedup(slow: f64, fast: f64) -> Option<f64> {
    if slow > 0.0 && fast > 0.0 {
        Some(slow / fast)
    } else {
        None
    }
}

/// Load-balance quality of a strategy under given throughputs: the ratio
/// of the slowest to the fastest worker's computation time (1.0 = perfectly
/// balanced, as Eq. 5 achieves; large = consistent stragglers). Indexes
/// `throughputs` unchecked: [`optimality_report`] validates its length
/// through `worst_case_time` first.
fn balance_ratio(code: &CodingMatrix, throughputs: &[f64]) -> f64 {
    let times: Vec<f64> = (0..code.workers())
        .filter(|&w| code.load_of(w) > 0)
        .map(|w| code.load_of(w) as f64 / throughputs[w])
        .collect();
    let max = times.iter().cloned().fold(f64::MIN, f64::max);
    let min = times.iter().cloned().fold(f64::MAX, f64::min);
    max / min
}

/// Summary row produced by [`optimality_report`].
#[derive(Debug, Clone, PartialEq)]
pub struct OptimalityRow {
    /// Scheme label.
    pub scheme: String,
    /// Worst-case completion time `T(B)`.
    pub worst_case: f64,
    /// The Theorem-5 lower bound at this scheme's own `(k, s)`.
    pub bound: f64,
    /// `worst_case / bound`.
    pub ratio: f64,
    /// Max/min computation-time balance.
    pub balance: f64,
}

/// Evaluates a set of labelled strategies against Theorem 5 on one
/// cluster.
///
/// # Errors
///
/// Propagates [`CodingError`] from the worst-case enumeration.
pub fn optimality_report(
    schemes: &[(String, &CodingMatrix)],
    throughputs: &[f64],
) -> Result<Vec<OptimalityRow>, CodingError> {
    schemes
        .iter()
        .map(|(label, code)| {
            let worst_case = code.worst_case_time(throughputs)?;
            let bound = theorem5_lower_bound(code.partitions(), code.stragglers(), throughputs);
            Ok(OptimalityRow {
                scheme: label.clone(),
                worst_case,
                bound,
                ratio: worst_case / bound,
                balance: balance_ratio(code, throughputs),
            })
        })
        .collect()
}

/// Sanity helper for Theorem-5 experiments: the canonical `k` making
/// Eq. 5 integral on a vCPU-proportional cluster (Σ vcpus / (s+1) when
/// divisible).
pub fn integral_partition_count(throughputs: &[f64], stragglers: usize) -> Option<usize> {
    let m = throughputs.len();
    (m..=8 * m).find(|&k| allocation_is_integral(throughputs, k, stragglers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgc_coding::{cyclic, heter_aware};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const C: [f64; 5] = [1.0, 2.0, 3.0, 4.0, 4.0];

    #[test]
    fn bound_formula() {
        assert_eq!(theorem5_lower_bound(7, 1, &C), 14.0 / 14.0);
        assert_eq!(theorem5_lower_bound(14, 1, &C), 2.0);
    }

    #[test]
    fn heter_aware_achieves_bound() {
        let mut rng = StdRng::seed_from_u64(1);
        let b = heter_aware(&C, 7, 1, &mut rng).unwrap();
        let ratio = optimality_ratio(&b, &C).unwrap();
        assert!((ratio - 1.0).abs() < 1e-9, "ratio {ratio}");
        assert!((balance_ratio(&b, &C) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cyclic_is_suboptimal_on_heterogeneous_cluster() {
        let mut rng = StdRng::seed_from_u64(2);
        let b = cyclic(5, 1, &mut rng).unwrap();
        let ratio = optimality_ratio(&b, &C).unwrap();
        assert!(
            ratio > 1.5,
            "cyclic should be well above the bound: {ratio}"
        );
        assert!(balance_ratio(&b, &C) > 1.5);
    }

    #[test]
    fn integrality_check() {
        assert!(allocation_is_integral(&C, 7, 1));
        assert!(!allocation_is_integral(&C, 8, 1));
        assert_eq!(integral_partition_count(&C, 1), Some(7));
    }

    #[test]
    fn speedup_helper() {
        assert_eq!(speedup(3.0, 1.0), Some(3.0));
        assert_eq!(speedup(0.0, 1.0), None);
        assert_eq!(speedup(1.0, 0.0), None);
    }

    #[test]
    fn report_rows() {
        let mut rng = StdRng::seed_from_u64(3);
        let h = heter_aware(&C, 7, 1, &mut rng).unwrap();
        let c = cyclic(5, 1, &mut rng).unwrap();
        let rows =
            optimality_report(&[("heter".to_owned(), &h), ("cyclic".to_owned(), &c)], &C).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].ratio <= rows[1].ratio);
        assert!(rows.iter().all(|r| r.worst_case >= r.bound - 1e-9));
    }
}
