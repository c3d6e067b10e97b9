//! Property-based tests for the coding layer: the invariants here are the
//! paper's core claims, exercised over randomized cluster shapes.

use hetgc_coding::{
    approximate_decode, cyclic, find_all_groups, fractional_repetition, gradient_error_bound_l2,
    group_based, heter_aware, naive, prune_groups, verify_condition_c1, Allocation, CompiledCodec,
    GradientCodec, GroupSearchConfig, SupportMatrix,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Strategy: a feasible heterogeneous cluster description
/// `(throughputs, k, s)` with integral Eq.-5 allocations guaranteed feasible
/// (no worker exceeding the `n_i ≤ k` cap).
fn cluster() -> impl Strategy<Value = (Vec<f64>, usize, usize, u64)> {
    (3usize..7, 0usize..3, any::<u64>()).prop_flat_map(|(m, s, seed)| {
        let s = s.min(m - 1);
        prop::collection::vec(1u32..5, m).prop_map(move |speeds| {
            let throughputs: Vec<f64> = speeds.iter().map(|&x| x as f64).collect();
            // Feasibility of Eq.5 needs max(c)/Σc ≤ 1/(s+1); enforce by
            // clamping the largest speed.
            let sum: f64 = throughputs.iter().sum();
            let max = throughputs.iter().cloned().fold(0.0, f64::max);
            let s = if max / sum > 1.0 / (s as f64 + 1.0) {
                0
            } else {
                s
            };
            // k = Σ speeds keeps Eq.5 integral often; any k works thanks to
            // largest-remainder rounding. Cap for test speed.
            let k = (sum as usize).clamp(m, 24);
            (throughputs, k, s, seed)
        })
    })
}

fn check_decode_row(b: &hetgc_coding::CodingMatrix, a: &[f64]) {
    let prod = b.matrix().vecmat(a).unwrap();
    for v in &prod {
        assert!((v - 1.0).abs() < 1e-5, "aB = {prod:?}");
    }
}

/// Condition ⋆: every group is an exact disjoint cover of the `k`
/// partitions under `support`. Shared by the PR-CI proptests and the
/// nightly sweep so both suites check the identical invariant.
fn check_exact_covers(
    support: &SupportMatrix,
    k: usize,
    groups: &[hetgc_coding::Group],
) -> Result<(), String> {
    for grp in groups {
        let mut covered = vec![false; k];
        for &w in grp.workers() {
            for &p in support.partitions_of(w) {
                if covered[p] {
                    return Err(format!("partition {p} covered twice (⋆ violated)"));
                }
                covered[p] = true;
            }
        }
        if !covered.iter().all(|&x| x) {
            return Err(format!(
                "group {:?} does not cover D (⋆ violated)",
                grp.workers()
            ));
        }
    }
    Ok(())
}

/// Condition ⋆⋆: the groups are pairwise worker-disjoint.
fn check_pairwise_disjoint(groups: &[hetgc_coding::Group]) -> Result<(), String> {
    for (i, a) in groups.iter().enumerate() {
        for b in groups.iter().skip(i + 1) {
            for &w in a.workers() {
                if b.contains(w) {
                    return Err(format!("groups share worker {w} (⋆⋆ violated)"));
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 4: Alg. 1 is robust to any s stragglers.
    #[test]
    fn heter_aware_satisfies_c1((c, k, s, seed) in cluster()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let b = heter_aware(&c, k, s, &mut rng).unwrap();
        prop_assert!(verify_condition_c1(&b).is_ok());
    }

    /// Replication invariant: every partition is held by exactly s+1 workers.
    #[test]
    fn allocation_replicates_s_plus_1((c, k, s, _seed) in cluster()) {
        let alloc = Allocation::balanced(&c, k, s).unwrap();
        let support = SupportMatrix::cyclic(&alloc).unwrap();
        for p in 0..k {
            prop_assert_eq!(support.owners_of(p).len(), s + 1);
        }
        prop_assert_eq!(alloc.total(), k * (s + 1));
    }

    /// Every straggler pattern of size ≤ s yields an exact decode vector.
    #[test]
    fn decode_exact_for_every_pattern((c, k, s, seed) in cluster()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let b = heter_aware(&c, k, s, &mut rng).unwrap();
        let m = c.len();
        // All single-straggler patterns plus the empty pattern.
        let codec = CompiledCodec::new(b.clone());
        let survivors_all: Vec<usize> = (0..m).collect();
        let a = codec.decode_plan(&survivors_all).unwrap().to_dense();
        check_decode_row(&b, &a);
        if s >= 1 {
            for dead in 0..m {
                let survivors: Vec<usize> = (0..m).filter(|&w| w != dead).collect();
                let a = codec.decode_plan(&survivors).unwrap().to_dense();
                prop_assert_eq!(a[dead], 0.0);
                check_decode_row(&b, &a);
            }
        }
    }

    /// Theorem 5: T(B) equals the lower bound (s+1)k/Σc whenever Eq. 5 is
    /// integral.
    #[test]
    fn optimality_when_allocation_integral((c, k, s, seed) in cluster()) {
        let sum: f64 = c.iter().sum();
        let integral = c.iter().all(|&ci| {
            let q = (k * (s + 1)) as f64 * ci / sum;
            (q - q.round()).abs() < 1e-9
        });
        prop_assume!(integral);
        let mut rng = StdRng::seed_from_u64(seed);
        let b = heter_aware(&c, k, s, &mut rng).unwrap();
        let t = b.worst_case_time(&c).unwrap();
        let bound = (s as f64 + 1.0) * k as f64 / sum;
        prop_assert!((t - bound).abs() < 1e-9, "T(B)={t} bound={bound}");
    }

    /// No strategy with s+1 replication beats the bound: cyclic is ≥ the
    /// heter-aware optimum on the same cluster.
    #[test]
    fn cyclic_never_beats_heter_aware((c, _k, s, seed) in cluster()) {
        let m = c.len();
        let mut rng = StdRng::seed_from_u64(seed);
        let cyc = cyclic(m, s, &mut rng).unwrap();
        let t_cyc = cyc.worst_case_time(&c).unwrap();
        // Compare per-partition-normalized times: cyclic uses k=m.
        let bound = (s as f64 + 1.0) * m as f64 / c.iter().sum::<f64>();
        prop_assert!(t_cyc >= bound - 1e-9, "cyclic {t_cyc} < bound {bound}");
    }

    /// The streaming session agrees with the one-shot decoder: pushing
    /// workers in any order decodes exactly when the prefix is decodable,
    /// and the returned plan satisfies aB = 1.
    #[test]
    fn codec_session_consistent((c, k, s, seed) in cluster()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let b = heter_aware(&c, k, s, &mut rng).unwrap();
        let m = c.len();
        let mut order: Vec<usize> = (0..m).collect();
        // Deterministic shuffle from the seed.
        for i in (1..m).rev() {
            order.swap(i, (seed as usize + i * 7) % (i + 1));
        }
        let mut dec = GradientCodec::session(&b);
        let mut decoded_at = None;
        for (idx, &w) in order.iter().enumerate() {
            if let Some(plan) = dec.push(w).unwrap() {
                check_decode_row(&b, &plan.to_dense());
                decoded_at = Some(idx + 1);
                break;
            }
        }
        let n = decoded_at.expect("all workers must decode");
        prop_assert!(n <= m - s + s, "bounded by m");
        prop_assert!(n >= 1);
    }

    /// Group-based codes satisfy C1 and their groups are valid exact covers.
    #[test]
    fn group_based_valid((c, k, s, seed) in cluster()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = group_based(&c, k, s, &mut rng).unwrap();
        prop_assert!(verify_condition_c1(g.code()).is_ok());
        // Groups partition-cover D disjointly.
        let support = g.code().to_support().unwrap();
        for grp in g.groups() {
            let mut covered = vec![false; k];
            for &w in grp.workers() {
                for &p in support.partitions_of(w) {
                    prop_assert!(!covered[p], "group not disjoint");
                    covered[p] = true;
                }
            }
            prop_assert!(covered.iter().all(|&x| x), "group not covering");
        }
        // Pairwise disjoint workers.
        for (i, a) in g.groups().iter().enumerate() {
            for b2 in g.groups().iter().skip(i + 1) {
                for &w in a.workers() {
                    prop_assert!(!b2.contains(w));
                }
            }
        }
    }

    /// Condition ⋆: every group returned by `find_all_groups` covers `D`
    /// exactly and disjointly.
    #[test]
    fn find_all_groups_returns_exact_covers((c, k, s, _seed) in cluster()) {
        let alloc = Allocation::balanced(&c, k, s).unwrap();
        let support = SupportMatrix::cyclic(&alloc).unwrap();
        let groups = find_all_groups(&support, GroupSearchConfig::default());
        let cover = check_exact_covers(&support, k, &groups);
        prop_assert!(cover.is_ok(), "{}", cover.unwrap_err());
        // No duplicate groups out of the DFS.
        for (i, a) in groups.iter().enumerate() {
            for b in groups.iter().skip(i + 1) {
                prop_assert!(a.workers() != b.workers(), "duplicate group");
            }
        }
    }

    /// Condition ⋆⋆: pruning yields pairwise-disjoint groups, each still a
    /// valid exact cover, and never prunes below one group when any exist.
    #[test]
    fn prune_groups_yields_pairwise_disjoint((c, k, s, _seed) in cluster()) {
        let alloc = Allocation::balanced(&c, k, s).unwrap();
        let support = SupportMatrix::cyclic(&alloc).unwrap();
        let all = find_all_groups(&support, GroupSearchConfig::default());
        let had_any = !all.is_empty();
        let pruned = prune_groups(all.clone());
        prop_assert!(pruned.len() <= all.len());
        prop_assert_eq!(pruned.is_empty(), !had_any, "pruning must keep ≥1 group");
        let disjoint = check_pairwise_disjoint(&pruned);
        prop_assert!(disjoint.is_ok(), "{}", disjoint.unwrap_err());
        for a in &pruned {
            // Survivors of pruning come from the original enumeration.
            prop_assert!(all.iter().any(|g| g.workers() == a.workers()));
        }
        // Disjoint exact covers each consume one replica of every
        // partition: at most s+1 of them can coexist.
        prop_assert!(pruned.len() <= s + 1, "{} disjoint covers with s={s}", pruned.len());
    }

    /// Theorem 6: the group-based code survives ≤ s *adversarial*
    /// stragglers — even a straggler set crafted to break one group per
    /// lost worker leaves either an intact group or a decodable `B_Ē`
    /// remainder. Exercised via the worst pattern (one worker from each
    /// group, then arbitrary extras) and a random pattern.
    #[test]
    fn theorem6_adversarial_stragglers((c, k, s, seed) in cluster()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = group_based(&c, k, s, &mut rng).unwrap();
        let codec = g.compile().unwrap();
        let m = codec.workers();
        let s_eff = codec.stragglers();

        // Adversary 1: hit one worker from each group first (cheapest way
        // to break groups), pad with non-group workers.
        let mut stragglers: Vec<usize> = Vec::new();
        for grp in codec.groups() {
            if stragglers.len() < s_eff {
                stragglers.push(grp.workers()[seed as usize % grp.len()]);
            }
        }
        for w in 0..m {
            if stragglers.len() >= s_eff {
                break;
            }
            if !stragglers.contains(&w) {
                stragglers.push(w);
            }
        }
        let survivors: Vec<usize> = (0..m).filter(|w| !stragglers.contains(w)).collect();
        let plan = codec.decode_plan(&survivors);
        prop_assert!(plan.is_ok(), "Theorem 6 violated for stragglers {stragglers:?}");
        let a = plan.unwrap().to_dense();
        check_decode_row(g.code(), &a);

        // Adversary 2: a random ≤s pattern.
        let mut order: Vec<usize> = (0..m).collect();
        for i in (1..m).rev() {
            order.swap(i, (seed as usize + i * 13) % (i + 1));
        }
        let survivors: Vec<usize> = order[s_eff..].to_vec();
        let plan = codec.decode_plan(&survivors);
        prop_assert!(plan.is_ok(), "random pattern {:?} failed", &order[..s_eff]);
    }

    /// Fault injection past the design budget: for arbitrary survivor
    /// sets (including `>s` stragglers) the approximate decode's measured
    /// gradient error respects the residual bound from `approx.rs`, and
    /// exactly-decodable sets report residual ≈ 0.
    #[test]
    fn approximate_decode_error_within_residual_bound((c, k, s, seed) in cluster()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let b = heter_aware(&c, k, s, &mut rng).unwrap();
        let m = c.len();
        let dim = 4;
        let partials: Vec<Vec<f64>> = (0..k)
            .map(|_| (0..dim).map(|_| rng.gen_range(-2.0..2.0)).collect())
            .collect();
        let g_true: Vec<f64> = (0..dim)
            .map(|d| partials.iter().map(|p| p[d]).sum())
            .collect();
        let norms: Vec<f64> = partials
            .iter()
            .map(|p| p.iter().map(|x| x * x).sum::<f64>().sqrt())
            .collect();
        let max_norm = norms.iter().cloned().fold(0.0, f64::max);

        // Survivor sets of every size from 1 to m: sizes below m−s force
        // the approximate path (fault injection beyond the budget).
        let mut order: Vec<usize> = (0..m).collect();
        for i in (1..m).rev() {
            order.swap(i, (seed as usize + i * 31) % (i + 1));
        }
        for size in 1..=m {
            let survivors = &order[..size];
            let approx = approximate_decode(&b, survivors).unwrap();

            // Measured error of ĝ = Σ_w a_w · (b_w · partials).
            let mut g_hat = vec![0.0; dim];
            for &w in survivors {
                let coded = b.encode(w, &partials).unwrap();
                for (gh, cv) in g_hat.iter_mut().zip(&coded) {
                    *gh += approx.vector[w] * cv;
                }
            }
            let err: f64 = g_hat
                .iter()
                .zip(&g_true)
                .map(|(a, t)| (a - t) * (a - t))
                .sum::<f64>()
                .sqrt();

            // The rigorous Cauchy–Schwarz bound, and its loose
            // max-norm-scale form (which exceeds the tight scale by √k).
            let l2_bound = gradient_error_bound_l2(approx.residual, &norms);
            prop_assert!(
                err <= l2_bound + 1e-7,
                "size {size}: err {err} > bound {l2_bound} (residual {})",
                approx.residual
            );
            prop_assert!(
                err <= approx.residual * max_norm * (k as f64).sqrt() + 1e-7,
                "size {size}: err {err} beyond the √k-scaled max-norm scale"
            );

            // Exactly-decodable sets must report residual ≈ 0 (and their
            // measured error vanishes with it).
            if size >= m - s && b.decode_plan(survivors).is_ok() {
                // The 1e-9 ridge biases the least-squares row slightly,
                // so "residual ≈ 0" means small, not bitwise zero.
                prop_assert!(
                    approx.residual < 1e-4,
                    "exact-decodable set reported residual {}",
                    approx.residual
                );
                prop_assert!(err < 1e-3, "exact set decoded with error {err}");
            }
        }
    }

    /// Naive decodes only from the complete worker set.
    #[test]
    fn naive_needs_everyone(m in 2usize..7) {
        let b = naive(m).unwrap();
        let all: Vec<usize> = (0..m).collect();
        prop_assert!(b.decode_plan(&all).is_ok());
        let partial: Vec<usize> = (0..m - 1).collect();
        prop_assert!(b.decode_plan(&partial).is_err());
    }

    /// Fractional repetition is robust whenever its divisibility
    /// constraints are satisfiable.
    #[test]
    fn fractional_repetition_robust(groups in 2usize..4, s in 0usize..3, chunk in 1usize..3) {
        let m = groups * (s + 1);
        let k = groups * chunk;
        let b = fractional_repetition(m, k, s).unwrap();
        prop_assert!(verify_condition_c1(&b).is_ok());
    }
}

/// Nightly-strength sweep of the group invariants (⋆, ⋆⋆, Theorem 6) and
/// the approximate-decode residual bound over a large deterministic sample
/// of cluster shapes. Run with `cargo test --release -- --ignored`.
#[test]
#[ignore = "slow: full-case group/approx property sweep, run by the nightly CI job"]
fn group_and_approx_invariants_exhaustive() {
    let mut rng = StdRng::seed_from_u64(0x6E0);
    for case in 0..400 {
        let m = rng.gen_range(3..8);
        let c: Vec<f64> = (0..m).map(|_| rng.gen_range(1..5) as f64).collect();
        let sum: f64 = c.iter().sum();
        let max = c.iter().cloned().fold(0.0, f64::max);
        let mut s = rng.gen_range(0..3usize).min(m - 1);
        if max / sum > 1.0 / (s as f64 + 1.0) {
            s = 0;
        }
        let k = (sum as usize).clamp(m, 24);

        // ⋆ and ⋆⋆ on the cyclic support, via the same helpers the PR-CI
        // proptests use.
        let alloc = Allocation::balanced(&c, k, s).unwrap();
        let support = SupportMatrix::cyclic(&alloc).unwrap();
        let all = find_all_groups(&support, GroupSearchConfig::default());
        check_exact_covers(&support, k, &all).unwrap_or_else(|e| panic!("case {case}: {e}"));
        let pruned = prune_groups(all);
        check_pairwise_disjoint(&pruned).unwrap_or_else(|e| panic!("case {case}: {e}"));

        // Theorem 6 exhaustively: every straggler pattern of size ≤ s.
        let mut build_rng = StdRng::seed_from_u64(case);
        let g = group_based(&c, k, s, &mut build_rng).unwrap();
        verify_condition_c1(g.code()).unwrap_or_else(|e| panic!("case {case}: {e}"));

        // Residual bound on random survivor sets of every size.
        let b = heter_aware(&c, k, s, &mut build_rng).unwrap();
        let partials: Vec<Vec<f64>> = (0..k)
            .map(|_| (0..3).map(|_| rng.gen_range(-2.0..2.0)).collect())
            .collect();
        let norms: Vec<f64> = partials
            .iter()
            .map(|p| p.iter().map(|x| x * x).sum::<f64>().sqrt())
            .collect();
        let g_true: Vec<f64> = (0..3)
            .map(|d| partials.iter().map(|p| p[d]).sum())
            .collect();
        let mut order: Vec<usize> = (0..m).collect();
        for i in (1..m).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        for size in 1..=m {
            let survivors = &order[..size];
            let approx = approximate_decode(&b, survivors).unwrap();
            let mut g_hat = [0.0; 3];
            for &w in survivors {
                let coded = b.encode(w, &partials).unwrap();
                for (gh, cv) in g_hat.iter_mut().zip(&coded) {
                    *gh += approx.vector[w] * cv;
                }
            }
            let err: f64 = g_hat
                .iter()
                .zip(&g_true)
                .map(|(a, t)| (a - t) * (a - t))
                .sum::<f64>()
                .sqrt();
            let bound = gradient_error_bound_l2(approx.residual, &norms);
            assert!(
                err <= bound + 1e-7,
                "case {case} size {size}: err {err} > bound {bound}"
            );
        }
    }
}

// ------------------------------------------------------------ data plane

proptest! {
    /// The ownership rule of the data plane's scratch pool: whatever
    /// garbage a round writes into a buffer, recycling it and checking it
    /// out again hands back a fully-zeroed `dim`-length vector — stale
    /// gradient data can never leak across rounds (or workers).
    #[test]
    fn buffer_pool_never_leaks_stale_data(
        dim in 1usize..48,
        ops in prop::collection::vec((any::<bool>(), -100.0f64..100.0), 1..64),
    ) {
        let mut pool = hetgc_coding::BufferPool::new(dim);
        let mut held: Vec<Vec<f64>> = Vec::new();
        for (recycle, garbage) in ops {
            if recycle && !held.is_empty() {
                pool.recycle(held.pop().unwrap());
            } else {
                let mut buf = pool.checkout();
                prop_assert_eq!(buf.len(), dim);
                prop_assert!(buf.iter().all(|&x| x == 0.0),
                    "checked-out buffer carries stale data");
                buf.iter_mut().for_each(|x| *x = garbage); // dirty it
                held.push(buf);
            }
        }
        // Conservation: every buffer in existence was allocated by a miss,
        // and every miss allocated exactly `dim` f64s.
        prop_assert_eq!((pool.available() + held.len()) as u64, pool.misses());
        prop_assert_eq!(pool.alloc_bytes(), pool.misses() * (dim as u64) * 8);
    }

    /// `GradientBlock` is an exact flat image of the legacy row layout:
    /// `from_rows` → `row`/`to_rows` round-trips bitwise, and `row_mut`
    /// writes land where `row` reads them.
    #[test]
    fn gradient_block_round_trips_rows(
        rows in prop::collection::vec(prop::collection::vec(-100.0f64..100.0, 5), 1..10),
    ) {
        let mut block = hetgc_coding::GradientBlock::from_rows(&rows).unwrap();
        prop_assert_eq!(block.rows(), rows.len());
        prop_assert_eq!(block.dim(), 5);
        for (j, row) in rows.iter().enumerate() {
            prop_assert_eq!(block.row(j), row.as_slice());
        }
        prop_assert_eq!(&block.to_rows(), &rows);
        // A mutated row reads back exactly; neighbours are untouched.
        let j = rows.len() / 2;
        block.row_mut(j).iter_mut().for_each(|x| *x = -*x);
        for (i, row) in rows.iter().enumerate() {
            if i == j {
                let negated: Vec<f64> = row.iter().map(|x| -x).collect();
                prop_assert_eq!(block.row(i), negated.as_slice());
            } else {
                prop_assert_eq!(block.row(i), row.as_slice());
            }
        }
    }
}
