//! A differential oracle for the streaming session: `CodecSession`'s
//! sparse elimination against the dense forward-only elimination it
//! replaced, kept here as a test-only reference. Both must fire at the
//! same arrival, hold the same rank after every push, and return plans
//! with the same bits — the sparse session performs the dense one's
//! floating-point operations in the same order, less the ones on exact
//! zeros.

use hetgc::{scheme_from_estimates, SchemeBuilder, SchemeKind};
use hetgc_cluster::ClusterSpec;
use hetgc_coding::{
    CodecBackend, CodecSession, CodingMatrix, CompiledCodec, DecodePlan, GradientCodec,
};
use hetgc_linalg::{kernels, Matrix, DEFAULT_TOLERANCE};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashSet;

/// The dense session: every row over all `k′` distinct columns, one
/// `O(r·(k′ + a))` sweep per arrival, and the intact-group fast path of a
/// codec with its group stage on.
struct DenseSession {
    /// Worker rows restricted to the distinct columns (`m × k′`).
    rows: Vec<Vec<f64>>,
    /// The codec's groups (its size-sorted order) and their indicator plans.
    groups: Vec<Vec<usize>>,
    group_plans: Vec<DecodePlan>,
    missing: Vec<usize>,
    intact: Option<usize>,
    basis: Vec<Vec<f64>>,
    combos: Vec<Vec<f64>>,
    pivots: Vec<usize>,
    arrivals: Vec<usize>,
    target: Vec<f64>,
    target_combo: Vec<f64>,
}

impl DenseSession {
    fn new(codec: &CompiledCodec) -> Self {
        let code = codec.code();
        let (m, k) = (code.workers(), code.partitions());
        let mut seen = HashSet::new();
        let kept: Vec<usize> = (0..k)
            .filter(|&j| seen.insert((0..m).map(|w| code.row(w)[j].to_bits()).collect::<Vec<_>>()))
            .collect();
        let groups: Vec<Vec<usize>> = codec
            .groups()
            .iter()
            .map(|g| g.workers().to_vec())
            .collect();
        DenseSession {
            rows: (0..m)
                .map(|w| kept.iter().map(|&j| code.row(w)[j]).collect())
                .collect(),
            group_plans: codec
                .groups()
                .iter()
                .map(|g| DecodePlan::from_dense(&g.decode_row(m)))
                .collect(),
            missing: groups.iter().map(Vec::len).collect(),
            groups,
            intact: None,
            basis: Vec::new(),
            combos: Vec::new(),
            pivots: Vec::new(),
            arrivals: Vec::new(),
            target: vec![1.0; kept.len()],
            target_combo: Vec::new(),
        }
    }

    fn reset(&mut self) {
        for (missing, g) in self.missing.iter_mut().zip(&self.groups) {
            *missing = g.len();
        }
        self.intact = None;
        self.basis.clear();
        self.combos.clear();
        self.pivots.clear();
        self.arrivals.clear();
        self.target.fill(1.0);
        self.target_combo.clear();
    }

    fn rank(&self) -> usize {
        self.basis.len()
    }

    fn push(&mut self, worker: usize) -> Option<DecodePlan> {
        self.arrivals.push(worker);
        let arrival_idx = self.arrivals.len() - 1;
        for (gid, g) in self.groups.iter().enumerate() {
            if g.contains(&worker) {
                self.missing[gid] -= 1;
                if self.missing[gid] == 0 && self.intact.is_none_or(|best| gid < best) {
                    self.intact = Some(gid);
                }
            }
        }
        if let Some(gid) = self.intact {
            return Some(self.group_plans[gid].clone());
        }

        let src = &self.rows[worker];
        let mut row = src.clone();
        let mut combo = vec![0.0; arrival_idx + 1];
        combo[arrival_idx] = 1.0;
        for ((basis_row, basis_combo), &p) in self.basis.iter().zip(&self.combos).zip(&self.pivots)
        {
            let factor = row[p];
            if factor != 0.0 {
                kernels::axpy(-factor, basis_row, &mut row);
                kernels::axpy(-factor, basis_combo, &mut combo[..basis_combo.len()]);
            }
        }
        let tol = DEFAULT_TOLERANCE * kernels::norm_inf(src).max(1.0);
        let (mut pivot, mut best) = (None, tol);
        for (j, &v) in row.iter().enumerate() {
            if v.abs() > best {
                pivot = Some(j);
                best = v.abs();
            }
        }
        if let Some(p) = pivot {
            let inv = 1.0 / row[p];
            for v in row.iter_mut().chain(combo.iter_mut()) {
                *v *= inv;
            }
            row[p] = 1.0;
            let factor = self.target[p];
            if factor != 0.0 {
                kernels::axpy(-factor, &row, &mut self.target);
                self.target_combo.resize(arrival_idx + 1, 0.0);
                kernels::axpy(factor, &combo, &mut self.target_combo);
            }
            self.basis.push(row);
            self.combos.push(combo);
            self.pivots.push(p);
        }
        if kernels::norm_inf(&self.target) > DEFAULT_TOLERANCE {
            return None;
        }
        let mut dense = vec![0.0; self.rows.len()];
        for (&w, &coef) in self.arrivals.iter().zip(&self.target_combo) {
            dense[w] += coef;
        }
        Some(DecodePlan::from_dense(&dense))
    }
}

/// A plan's bits: workers, coefficient bit patterns, residual bits, and
/// the dense vector's length `m`.
fn bits(plan: &DecodePlan) -> (Vec<usize>, Vec<u64>, u64, usize) {
    (
        plan.workers().to_vec(),
        plan.coefficients().iter().map(|c| c.to_bits()).collect(),
        plan.residual().to_bits(),
        plan.to_dense().len(),
    )
}

/// Pushes `order` into both (already reset) sessions, asserting after
/// every push the same decodability, rank and plan bits; stops at the
/// first decode unless `through` is set. The arrival index that fired.
fn agree(
    session: &mut CodecSession,
    oracle: &mut DenseSession,
    order: &[usize],
    through: bool,
) -> Option<usize> {
    let mut fired = None;
    for (idx, &w) in order.iter().enumerate() {
        let decoded = session.push_arrival(w).expect("valid, distinct workers");
        let expected = oracle.push(w);
        assert_eq!(
            decoded,
            expected.is_some(),
            "decodability at arrival {idx} of {order:?}"
        );
        assert_eq!(
            session.rank(),
            oracle.rank(),
            "rank at arrival {idx} of {order:?}"
        );
        if let Some(plan) = expected {
            let got = session.decoded_plan().expect("decoded");
            assert_eq!(bits(got), bits(&plan), "plan at arrival {idx} of {order:?}");
            fired = fired.or(Some(idx));
            if !through {
                break;
            }
        }
    }
    fired
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every buildable `SchemeKind` × {Exact, Group, Approx} on random
    /// small heterogeneous clusters: random arrival orders pushed all the
    /// way through (past the decode, where the elimination goes on), one
    /// session reused across rounds.
    #[test]
    fn sparse_session_matches_the_dense_elimination(
        (vcpus, s, seed) in (3usize..8, 0usize..3, any::<u64>())
            .prop_flat_map(|(m, s, seed)| (prop::collection::vec(1u32..5, m), Just(s), Just(seed)))
    ) {
        let rows: Vec<(usize, u32)> = vcpus.iter().map(|&v| (1usize, v)).collect();
        let cluster = ClusterSpec::from_vcpu_rows("prop", &rows, 100.0).unwrap();
        let s = s.min(cluster.len() - 1);
        let mut rng = StdRng::seed_from_u64(seed);
        for kind in SchemeKind::ALL {
            let Ok(scheme) = SchemeBuilder::new(&cluster, s).build(kind, &mut rng) else {
                continue;
            };
            for backend in [CodecBackend::Exact, CodecBackend::Group, CodecBackend::Approx] {
                let codec = scheme.compile_backend(backend).unwrap();
                let m = codec.workers();
                let mut session = codec.session();
                let mut oracle = DenseSession::new(&codec);
                for _ in 0..3 {
                    let mut order: Vec<usize> = (0..m).collect();
                    order.shuffle(&mut rng);
                    session.reset();
                    oracle.reset();
                    agree(&mut session, &mut oracle, &order, true);
                }
            }
        }
    }
}

/// 2,000 rounds of the pinned Cluster-D code (`m = 58`, `k = 162`,
/// `s = 3`, code seed 2019), each with three random stragglers and a
/// random arrival order of the other 55: the shape `sim-bsp-miss` decodes.
#[test]
fn sparse_session_matches_the_dense_elimination_on_cluster_d() {
    let codec = SchemeBuilder::new(&ClusterSpec::cluster_d(), 3)
        .partitions(162)
        .build(SchemeKind::HeterAware, &mut StdRng::seed_from_u64(2019))
        .expect("Cluster-D admits s = 3")
        .compile();
    let m = codec.workers();
    assert_eq!((m, codec.partitions()), (58, 162));
    let mut rng = StdRng::seed_from_u64(38);
    let mut session = codec.session();
    let mut oracle = DenseSession::new(&codec);
    for round in 0..2000 {
        let mut order: Vec<usize> = (0..m).collect();
        order.shuffle(&mut rng);
        order.truncate(m - 3);
        session.reset();
        oracle.reset();
        let fired = agree(&mut session, &mut oracle, &order, false);
        assert!(fired.is_some(), "round {round}: 55 survivors must decode");
    }
}

/// Hand cases: a dependent row, an empty-support worker and duplicate
/// columns in one code, a tie for the pivot, a session reused across
/// `reset`, and the session of a recoded codec.
#[test]
fn sparse_session_matches_the_dense_elimination_on_hand_cases() {
    // Column 3 duplicates column 0; worker 1 is twice worker 0; worker 2
    // computes nothing. `1` is `½·(b_0 + b_3 + b_4)`, and `b_1 = 2·b_0`.
    let b = Matrix::from_rows(&[
        &[1.0, 1.0, 0.0, 1.0],
        &[2.0, 2.0, 0.0, 2.0],
        &[0.0, 0.0, 0.0, 0.0],
        &[0.0, 1.0, 1.0, 0.0],
        &[1.0, 0.0, 1.0, 1.0],
    ])
    .unwrap();
    let codec = CompiledCodec::new(CodingMatrix::from_matrix(b, 0).unwrap());
    let mut session = codec.session();
    let mut oracle = DenseSession::new(&codec);
    // The dependent row and the empty row leave the rank at 1.
    let order = [1, 2, 0, 3, 4];
    assert_eq!(agree(&mut session, &mut oracle, &order, true), Some(4));
    assert_eq!(session.rank(), 3);
    let plan = session.decoded_plan().expect("decoded");
    assert_eq!(
        plan.iter().collect::<Vec<_>>(),
        [(1, 0.25), (3, 0.5), (4, 0.5)]
    );

    // A tie for the pivot: worker 0's two largest entries are equal, and
    // the plan's bits depend on which of them pivots (the first, in
    // column order).
    let tie = Matrix::from_rows(&[&[3.0, 3.0, 1.0], &[1.0, 7.0, 2.0], &[5.0, 1.0, 3.0]]).unwrap();
    let tied = CompiledCodec::new(CodingMatrix::from_matrix(tie, 0).unwrap());
    for order in [[0, 1, 2], [0, 2, 1]] {
        let fired = agree(
            &mut tied.session(),
            &mut DenseSession::new(&tied),
            &order,
            true,
        );
        assert_eq!(fired, Some(2));
    }

    // One session reused across `reset`, against a fresh oracle and a
    // fresh session per order.
    for order in [
        [4, 3, 2, 1, 0],
        [0, 4, 1, 3, 2],
        [2, 3, 0, 1, 4],
        [1, 2, 0, 3, 4],
    ] {
        session.reset();
        let fired = agree(&mut session, &mut DenseSession::new(&codec), &order, true);
        let mut fresh = codec.session();
        assert_eq!(
            agree(&mut fresh, &mut DenseSession::new(&codec), &order, true),
            fired
        );
        assert_eq!(fresh.decoded_plan(), session.decoded_plan());
    }

    // A recoded codec: the engines rebuild from drifted estimates and
    // hand out a fresh session of the new code.
    let cluster = ClusterSpec::cluster_a();
    let mut rng = StdRng::seed_from_u64(7);
    let mut estimates = cluster.throughputs();
    estimates.reverse();
    for kind in [SchemeKind::HeterAware, SchemeKind::GroupBased] {
        let scheme = scheme_from_estimates(kind, &estimates, 1, None, &mut rng).unwrap();
        let codec = scheme.compile_backend(CodecBackend::Auto).unwrap();
        let m = codec.workers();
        let mut session = codec.session();
        let mut oracle = DenseSession::new(&codec);
        for _ in 0..20 {
            let mut order: Vec<usize> = (0..m).collect();
            order.shuffle(&mut rng);
            session.reset();
            oracle.reset();
            assert!(agree(&mut session, &mut oracle, &order, true).is_some());
        }
    }
}
