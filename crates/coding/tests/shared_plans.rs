//! The multi-tenant contract of [`SharedPlanCache`]:
//!
//! * **singleflight across tenants** — N threads over K independent
//!   codec instances (one per "job") racing M survivor patterns perform
//!   exactly M dense solves fleet-wide;
//! * **bitwise equivalence** — a decode served through the shared cache
//!   is the *same plan* a solo codec (no shared cache) would solve,
//!   coefficient for coefficient, for every backend rung (exact and
//!   ridge least-squares).

use std::sync::Arc;

use hetgc_coding::{heter_aware, CompiledCodec, GradientCodec, SharedPlanCache};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn code(seed: u64) -> hetgc_coding::CodingMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    heter_aware(&[1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0, 4.0], 23, 2, &mut rng).unwrap()
}

/// All `m − 2`-survivor patterns of an 8-worker code: drop two distinct
/// workers. C(8, 2) = 28 distinct patterns.
fn patterns(m: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    for a in 0..m {
        for b in (a + 1)..m {
            out.push((0..m).filter(|&w| w != a && w != b).collect());
        }
    }
    out
}

#[test]
fn stress_n_threads_m_patterns_solve_once_fleet_wide() {
    let shared = Arc::new(SharedPlanCache::new());
    let jobs = 4; // independent codec instances, as a scheduler would hold
    let threads_per_job = 3;
    let codecs: Vec<Arc<CompiledCodec>> = (0..jobs)
        .map(|_| {
            let mut c = CompiledCodec::new(code(7));
            c.attach_shared_plans(Arc::clone(&shared));
            Arc::new(c)
        })
        .collect();
    let pats = patterns(8);

    std::thread::scope(|scope| {
        for codec in &codecs {
            for t in 0..threads_per_job {
                let codec = Arc::clone(codec);
                let pats = pats.clone();
                scope.spawn(move || {
                    // Stagger the traversal so threads collide on
                    // different patterns at different times.
                    for i in 0..pats.len() {
                        let pat = &pats[(i + t * 7) % pats.len()];
                        codec.decode_plan(pat).unwrap();
                    }
                });
            }
        }
    });

    // The singleflight invariant, fleet-wide: one dense solve per
    // distinct pattern, no matter how many jobs and threads raced.
    assert_eq!(shared.solves(), pats.len() as u64);
    let per_instance: u64 = codecs.iter().map(|c| c.plan_solves()).sum();
    assert_eq!(per_instance, pats.len() as u64);

    // Cross-job reuse is visible in the counters: far more demand than
    // solves, and at least 3 of 4 jobs' worth of hits.
    assert!(shared.hits() > 0, "cross-job reuse must register as hits");
    assert!(
        shared.solves() < shared.lookups(),
        "solves {} must stay below lookups {}",
        shared.solves(),
        shared.lookups()
    );
}

#[test]
fn approx_rung_shares_ridge_solves_across_tenants() {
    let shared = Arc::new(SharedPlanCache::new());
    let make = || {
        let mut c = CompiledCodec::new(code(9)).with_approx(Some(4.0));
        c.attach_shared_plans(Arc::clone(&shared));
        c
    };
    let job_a = make();
    let job_b = make();

    // 3 stragglers exceed s = 2: both tenants need the ridge rung on the
    // same survivor set. The second must reuse the first's ridge solve.
    let survivors = [0usize, 1, 3, 5, 7];
    let plan_a = job_a.approximate_plan(&survivors).unwrap();
    let solves_after_a = shared.solves();
    assert_eq!(solves_after_a, 1, "one ridge solve for tenant A");
    let plan_b = job_b.approximate_plan(&survivors).unwrap();
    assert_eq!(plan_a, plan_b, "tenants must see the identical plan");
    assert!(plan_a.residual() > 0.0, "this set needs the approx rung");
    assert_eq!(
        shared.solves(),
        solves_after_a,
        "tenant B must not ridge-solve again"
    );
    assert!(shared.hits() >= 1);

    // Through the full decode_plan ladder the plans agree as well (the
    // failed exact attempt is re-run per tenant — errors are never
    // memoized — but the accepted ridge plan comes from the shared map).
    let via_ladder = job_b.decode_plan(&survivors).unwrap();
    assert_eq!(via_ladder, plan_a);
}

proptest! {
    /// Cross-job bitwise equivalence: for arbitrary survivor patterns,
    /// the plan a shared-cache tenant decodes — whether it solved or
    /// reused another tenant's solve — is identical to the plan a solo
    /// codec over the same matrix solves for itself.
    #[test]
    fn scheduled_decode_equals_solo_decode(
        seed in 0u64..32,
        dead_pair in (0usize..8, 0usize..8),
        order_flip in any::<bool>(),
    ) {
        let matrix = code(seed);
        let solo = CompiledCodec::new(matrix.clone());

        let shared = Arc::new(SharedPlanCache::new());
        let mut tenant_a = CompiledCodec::new(matrix.clone());
        tenant_a.attach_shared_plans(Arc::clone(&shared));
        let mut tenant_b = CompiledCodec::new(matrix);
        tenant_b.attach_shared_plans(Arc::clone(&shared));

        let (a, b) = dead_pair;
        let survivors: Vec<usize> =
            (0..8).filter(|&w| w != a && w != b).collect();

        // Whichever tenant decodes first populates the shared map; the
        // other is served from it. Both must match the solo solve
        // bitwise (DecodePlan: PartialEq over exact f64 coefficients).
        let (first, second) = if order_flip {
            (&tenant_b, &tenant_a)
        } else {
            (&tenant_a, &tenant_b)
        };
        let from_first = first.decode_plan(&survivors).unwrap();
        let from_second = second.decode_plan(&survivors).unwrap();
        let from_solo = solo.decode_plan(&survivors).unwrap();
        prop_assert_eq!(&from_first, &from_solo);
        prop_assert_eq!(&from_second, &from_solo);
        // And the reuse really happened: one solve, not two.
        prop_assert_eq!(shared.solves(), 1);
    }
}
