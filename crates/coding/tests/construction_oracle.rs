//! A differential oracle for Algorithm 1: `heter_aware_from_support`
//! against the construction it replaced, kept here as a test-only
//! reference — owners found by a binary search per worker, and a fresh
//! `select_cols` + `Matrix::lu` + `Lu::solve` per partition. Both must
//! consume the same draws, take the same redraws and return coding
//! matrices with the same bits, or the same error.

use hetgc_coding::{
    cyclic, cyclic_support, find_all_groups, group_based, heter_aware_from_support, prune_groups,
    suggest_partition_count, Allocation, CodingError, CodingMatrix, SupportMatrix,
};
use hetgc_linalg::Matrix;
use rand::rngs::mock::StepRng;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Alg. 1 as it was built before its owners became a flat index and its
/// blocks one reused factorization.
fn reference_from_support<R: Rng + ?Sized>(
    support: &SupportMatrix,
    rng: &mut R,
) -> Result<CodingMatrix, CodingError> {
    const MAX_REDRAWS: usize = 16;
    const CONDITION_EPS: f64 = 1e-8;
    let (m, k, s) = (
        support.workers(),
        support.partitions(),
        support.stragglers(),
    );
    'redraw: for _attempt in 0..MAX_REDRAWS {
        let c = Matrix::from_fn(s + 1, m, |_, _| rng.gen_range(0.0..1.0));
        let mut b = Matrix::zeros(m, k);
        for p in 0..k {
            let owners: Vec<usize> = (0..m)
                .filter(|&w| support.partitions_of(w).binary_search(&p).is_ok())
                .collect();
            let ci = c.select_cols(&owners)?;
            let lu = ci.lu()?;
            if lu.is_singular() || lu.determinant().abs() < CONDITION_EPS.powi(s as i32 + 1) {
                continue 'redraw;
            }
            let d = match lu.solve(&vec![1.0; s + 1]) {
                Ok(d) => d,
                Err(_) => continue 'redraw,
            };
            for (owner, &value) in owners.iter().zip(&d) {
                b[(*owner, p)] = value;
            }
        }
        return CodingMatrix::from_matrix(b, s);
    }
    Err(CodingError::Numerical {
        message: format!("failed to draw a well-conditioned C after {MAX_REDRAWS} attempts"),
    })
}

fn bits(code: &CodingMatrix) -> Vec<u64> {
    code.matrix()
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

/// Runs both constructions on one support from two copies of `rng` and
/// checks they agree: same bits, same error, same draws consumed.
fn assert_same<R: Rng + Clone>(support: &SupportMatrix, rng: &R, what: &str) {
    let (mut new_rng, mut old_rng) = (rng.clone(), rng.clone());
    let got = heter_aware_from_support(support, &mut new_rng);
    let want = reference_from_support(support, &mut old_rng);
    match (got, want) {
        (Ok(got), Ok(want)) => {
            assert_eq!(bits(&got), bits(&want), "{what}: B differs");
            assert_eq!(got.stragglers(), want.stragglers(), "{what}");
        }
        (got, want) => assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}"),
    }
    assert_eq!(
        new_rng.next_u64(),
        old_rng.next_u64(),
        "{what}: draws differ"
    );
}

/// Returns `0` for the first `stuck` draws — an all-zero `C`, singular
/// for every block — then a real stream.
#[derive(Clone)]
struct StuckThenStd {
    stuck: usize,
    rng: StdRng,
}

impl RngCore for StuckThenStd {
    fn next_u32(&mut self) -> u32 {
        self.next_u64() as u32
    }
    fn next_u64(&mut self) -> u64 {
        if self.stuck > 0 {
            self.stuck -= 1;
            0
        } else {
            self.rng.next_u64()
        }
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.rng.fill_bytes(dest)
    }
}

#[test]
fn alg1_matches_the_reference_on_random_heterogeneous_supports() {
    let mut meta = StdRng::seed_from_u64(41);
    let mut built = 0;
    for s in 0..=4usize {
        for trial in 0..24 {
            let m = meta.gen_range(s + 1..s + 24);
            let rates: Vec<f64> = (0..m).map(|_| meta.gen_range(0.5..4.0)).collect();
            let k = if trial % 2 == 0 {
                suggest_partition_count(&rates, s, m, 6 * m)
            } else {
                meta.gen_range(m..4 * m)
            };
            let Ok(alloc) = Allocation::balanced(&rates, k, s) else {
                continue; // infeasible rates for this s: nothing to build
            };
            let support = SupportMatrix::cyclic(&alloc).unwrap();
            let seed = meta.gen_range(0..u64::MAX);
            assert_same(
                &support,
                &StdRng::seed_from_u64(seed),
                &format!("m={m} k={k} s={s} seed={seed}"),
            );
            built += 1;
        }
    }
    assert!(built > 60, "only {built} feasible draws");
}

#[test]
fn alg1_matches_the_reference_on_the_cyclic_code() {
    for (m, s) in [(2, 1), (5, 0), (5, 2), (8, 3), (12, 4), (58, 3)] {
        let support = cyclic_support(m, s).unwrap();
        for seed in 0..4 {
            assert_same(
                &support,
                &StdRng::seed_from_u64(seed),
                &format!("cyclic m={m} s={s}"),
            );
            // And `cyclic` itself is that support through Alg. 1.
            let got = cyclic(m, s, &mut StdRng::seed_from_u64(seed)).unwrap();
            let want = reference_from_support(&support, &mut StdRng::seed_from_u64(seed)).unwrap();
            assert_eq!(bits(&got), bits(&want));
        }
    }
}

#[test]
fn alg1_matches_the_reference_on_the_group_based_sub_code() {
    // Alg. 3 runs Alg. 1 on the non-group workers at `s − P`: rebuild that
    // sub-support here and hold `group_based`'s non-group rows to the
    // reference on it.
    let cases: [(&[f64], usize, usize); 4] = [
        (&[1.0, 1.0, 1.0, 1.0, 2.0, 2.0], 8, 1),
        (&[1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0], 10, 1),
        (&[1.0, 2.0, 3.0, 3.0, 2.0, 1.0, 2.0, 2.0], 16, 2),
        (&[2.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0, 4.0, 4.0], 28, 3),
    ];
    let mut sub_codes = 0;
    for (rates, k, s) in cases {
        let alloc = Allocation::balanced(rates, k, s).unwrap();
        let support = SupportMatrix::cyclic(&alloc).unwrap();
        let m = support.workers();
        let groups = prune_groups(find_all_groups(&support));
        let others: Vec<usize> = (0..m)
            .filter(|&w| !groups.iter().any(|g| g.workers().contains(&w)))
            .filter(|&w| !support.partitions_of(w).is_empty())
            .collect();
        for seed in 0..4 {
            let code = group_based(rates, k, s, &mut StdRng::seed_from_u64(seed))
                .unwrap()
                .into_code();
            let sub = if groups.is_empty() {
                support.clone()
            } else if others.is_empty() {
                continue;
            } else {
                let rows = others
                    .iter()
                    .map(|&w| support.partitions_of(w).to_vec())
                    .collect();
                SupportMatrix::from_rows(rows, k, s - groups.len()).unwrap()
            };
            assert_same(&sub, &StdRng::seed_from_u64(seed), "group sub-code");
            let want = reference_from_support(&sub, &mut StdRng::seed_from_u64(seed)).unwrap();
            let rows: Vec<usize> = if groups.is_empty() {
                (0..m).collect()
            } else {
                others.clone()
            };
            for (i, &w) in rows.iter().enumerate() {
                let got: Vec<u64> = code.row(w).iter().map(|v| v.to_bits()).collect();
                let want: Vec<u64> = want.row(i).iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "rates={rates:?} worker {w}");
            }
            sub_codes += usize::from(!groups.is_empty());
        }
    }
    assert!(sub_codes > 0, "no case exercised a group-based sub-code");
}

#[test]
fn alg1_takes_the_same_redraws_as_the_reference() {
    for s in 0..=4usize {
        let m = 2 * s + 3;
        let support = cyclic_support(m, s).unwrap();
        // One to three all-zero `C` draws, then a healthy stream.
        for bad in 1..=3 {
            let rng = StuckThenStd {
                stuck: bad * (s + 1) * m,
                rng: StdRng::seed_from_u64(s as u64),
            };
            assert_same(&support, &rng, &format!("s={s} after {bad} redraws"));
            assert!(heter_aware_from_support(&support, &mut rng.clone()).is_ok());
        }
        // Stuck for good: both give up after the same number of draws.
        let rng = StepRng::new(0, 0);
        let err = heter_aware_from_support(&support, &mut rng.clone()).unwrap_err();
        assert!(matches!(err, CodingError::Numerical { .. }), "{err:?}");
        assert_same(&support, &rng, &format!("s={s} never well-conditioned"));
    }
}
