//! The decode-plan cache: one sharded, concurrent map of solved plans,
//! owned by one codec or shared by *many*.
//!
//! The `O(mk²)` dense solve for a survivor pattern depends only on the
//! coding matrix and the pattern, never on the job. A multi-tenant
//! scheduler admits many jobs whose schemes are often identical (same
//! rates, same seed, same construction), and the
//! approximate-gradient-coding line of work shows decode structure is
//! reusable across runs. [`SharedPlanCache`] exploits that: plans are
//! keyed by **(scheme fingerprint, plan class, sorted survivor set)** in
//! a sharded lock map (the hand-rolled analogue of the
//! `DashMap<Vec<usize>, Matrix>` inverse cache in the reference
//! implementations), so two jobs running the same scheme pay for each
//! straggler pattern once — fleet-wide.
//!
//! # One cache per codec
//!
//! Every [`crate::CompiledCodec`] memoizes through a `SharedPlanCache`
//! and nothing else. By default it is private: one shard of the codec's
//! cache capacity, an LRU. `CompiledCodec::attach_shared_plans` swaps in
//! a fleet cache instead. Either way:
//!
//! 1. the codec sorts and validates the survivors into a reusable
//!    scratch key and probes the map with it — a hit allocates nothing;
//! 2. a miss funnels through the cache's `get_or_solve`, the one
//!    singleflight gate, so N threads (or N tenants) racing on the same
//!    new pattern perform exactly one solve between them.
//!
//! Exact and approximate (ridge least-squares) plans for the same
//! survivor set are distinct cache lines — see [`PlanClass`].

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

use crate::codec::DecodePlan;
use crate::error::CodingError;

/// Default shard count of a [`SharedPlanCache`].
pub const DEFAULT_SHARED_SHARDS: usize = 16;

/// Default number of plans each shard retains (LRU beyond it).
pub const DEFAULT_SHARED_CAPACITY_PER_SHARD: usize = 64;

/// Which rung of the escalation ladder produced a plan. An exact decode
/// vector and the ridge least-squares row for the *same* survivor set are
/// different objects; the class keeps them on separate cache lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanClass {
    /// An exact decode (`a·B = 1` to numerical precision).
    Exact,
    /// A ridge-stabilized least-squares plan with a positive residual.
    Approx,
}

/// Full cache key: which scheme, which ladder rung, which survivors.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SharedKey {
    fingerprint: u64,
    class: PlanClass,
    survivors: Vec<usize>,
}

impl SharedKey {
    fn matches(&self, fingerprint: u64, class: PlanClass, survivors: &[usize]) -> bool {
        self.fingerprint == fingerprint && self.class == class && self.survivors == survivors
    }

    fn shard_index(
        fingerprint: u64,
        class: PlanClass,
        survivors: &[usize],
        shards: usize,
    ) -> usize {
        if shards == 1 {
            return 0; // a codec's private cache: no hash on the probe path
        }
        let mut h = DefaultHasher::new();
        fingerprint.hash(&mut h);
        class.hash(&mut h);
        survivors.hash(&mut h);
        (h.finish() as usize) % shards
    }
}

/// One lock's worth of the map: a small LRU, most recently used last.
#[derive(Debug, Default)]
struct Shard {
    entries: Vec<(SharedKey, DecodePlan)>,
}

impl Shard {
    fn lookup(
        &mut self,
        fingerprint: u64,
        class: PlanClass,
        survivors: &[usize],
    ) -> Option<DecodePlan> {
        let pos = self
            .entries
            .iter()
            .position(|(k, _)| k.matches(fingerprint, class, survivors))?;
        let entry = self.entries.remove(pos);
        self.entries.push(entry);
        Some(self.entries.last().expect("just pushed").1.clone())
    }

    fn insert(&mut self, capacity: usize, key: SharedKey, plan: DecodePlan) {
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            self.entries.remove(pos);
        } else if self.entries.len() == capacity {
            self.entries.remove(0);
        }
        self.entries.push((key, plan));
    }
}

/// The concurrent decode-plan cache: every codec's own, and the fleet's
/// when shared. See the module docs for the probe path and the
/// singleflight guarantee.
///
/// Cheap to share: wrap it in an `Arc` and attach it to any number of
/// codecs via `CompiledCodec::attach_shared_plans` (or through the
/// `EscalatingCodec` wrapper). All counters are atomics; the hot path
/// takes exactly one shard lock per lookup.
#[derive(Debug)]
pub struct SharedPlanCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    /// Keys currently being solved by some tenant (the cross-instance
    /// singleflight gate).
    inflight: Mutex<Vec<SharedKey>>,
    /// Signalled whenever a leader finishes (success or not).
    done: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    solves: AtomicU64,
}

impl Default for SharedPlanCache {
    fn default() -> Self {
        SharedPlanCache::new()
    }
}

impl SharedPlanCache {
    /// A cache with the default shape ([`DEFAULT_SHARED_SHARDS`] shards
    /// of [`DEFAULT_SHARED_CAPACITY_PER_SHARD`] plans each).
    pub fn new() -> Self {
        SharedPlanCache::with_shape(DEFAULT_SHARED_SHARDS, DEFAULT_SHARED_CAPACITY_PER_SHARD)
    }

    /// A cache with `shards` lock shards of `per_shard_capacity` plans.
    ///
    /// # Panics
    ///
    /// Panics if either is zero.
    pub fn with_shape(shards: usize, per_shard_capacity: usize) -> Self {
        assert!(shards > 0, "shared plan cache needs at least one shard");
        assert!(
            per_shard_capacity > 0,
            "shared plan cache shard capacity must be positive"
        );
        SharedPlanCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity,
            inflight: Mutex::new(Vec::new()),
            done: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            solves: AtomicU64::new(0),
        }
    }

    /// Shared-cache hits so far (any tenant).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Shared-cache misses so far (any tenant).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Total lookups: hits + misses. Cross-tenant reuse shows up as
    /// `solves() < lookups()` with `hits() > 0`.
    pub fn lookups(&self) -> u64 {
        self.hits() + self.misses()
    }

    /// Solves actually performed through this cache: with the
    /// singleflight gate, exactly one per distinct (scheme, class,
    /// survivor-pattern) triple however many tenants race on it.
    pub fn solves(&self) -> u64 {
        self.solves.load(Ordering::Relaxed)
    }

    /// Plans currently resident across all shards.
    pub fn cached_plans(&self) -> usize {
        self.shard_occupancy().sum()
    }

    /// Plans resident in each shard, in shard order — the occupancy view
    /// behind `hetgc_shared_cache_shard_plans{shard=...}`. A lopsided
    /// sequence means the survivor-pattern hash is clumping and capacity
    /// is effectively smaller than `shards × per_shard_capacity`.
    fn shard_occupancy(&self) -> impl Iterator<Item = usize> + '_ {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard poisoned").entries.len())
    }

    /// Publishes the cache's live statistics into `registry` as gauges
    /// (hits, misses, solves, resident plans, and per-shard occupancy).
    /// Call it from a scrape refresh hook so `/metrics` reads are
    /// current.
    pub fn export_metrics(&self, registry: &hetgc_obs::MetricsRegistry) {
        registry
            .gauge(
                "hetgc_shared_cache_hits",
                "Shared plan-cache hits (any tenant)",
                &[],
            )
            .set(self.hits() as f64);
        registry
            .gauge(
                "hetgc_shared_cache_misses",
                "Shared plan-cache misses (any tenant)",
                &[],
            )
            .set(self.misses() as f64);
        registry
            .gauge(
                "hetgc_shared_cache_solves",
                "Dense solves performed through the shared cache",
                &[],
            )
            .set(self.solves() as f64);
        registry
            .gauge(
                "hetgc_shared_cache_plans",
                "Decode plans resident across all shards",
                &[],
            )
            .set(self.cached_plans() as f64);
        for (i, occupancy) in self.shard_occupancy().enumerate() {
            registry
                .gauge(
                    "hetgc_shared_cache_shard_plans",
                    "Decode plans resident per shard",
                    &[("shard", &i.to_string())],
                )
                .set(occupancy as f64);
        }
    }

    fn shard_for(&self, fingerprint: u64, class: PlanClass, survivors: &[usize]) -> &Mutex<Shard> {
        let idx = SharedKey::shard_index(fingerprint, class, survivors, self.shards.len());
        &self.shards[idx]
    }

    fn insert(&self, fingerprint: u64, class: PlanClass, survivors: Vec<usize>, plan: DecodePlan) {
        let key = SharedKey {
            fingerprint,
            class,
            survivors,
        };
        self.shard_for(key.fingerprint, key.class, &key.survivors)
            .lock()
            .expect("shard poisoned")
            .insert(self.per_shard_capacity, key, plan);
    }

    /// The miss path in one call: singleflight the `solve` closure across
    /// every user of the cache and publish its result. `survivors` must
    /// already be canonical (sorted, deduplicated, validated), which the
    /// codec's probe guarantees.
    ///
    /// A key is solved once for as long as its plan stays cached. Racing
    /// callers block and reuse the leader's plan. Before leading, a caller
    /// re-probes the map under the in-flight lock, which a finishing
    /// leader takes only after its insert: a caller that missed before
    /// the insert but reaches the gate after the leader left it reuses the
    /// plan instead of solving it again. If the leader fails or panics,
    /// the key is released (via a drop guard) and one waiter retries as
    /// the new leader — solve errors are deterministic per pattern, so the
    /// retry reproduces the error instead of hanging.
    ///
    /// # Errors
    ///
    /// Whatever `solve` returns.
    pub(crate) fn get_or_solve<F>(
        &self,
        fingerprint: u64,
        class: PlanClass,
        survivors: &[usize],
        solve: F,
    ) -> Result<DecodePlan, CodingError>
    where
        F: FnOnce() -> Result<DecodePlan, CodingError>,
    {
        let mut flights = self.inflight.lock().expect("gate poisoned");
        loop {
            if flights
                .iter()
                .any(|k| k.matches(fingerprint, class, survivors))
            {
                // Someone is solving this pattern: wait, then look again.
                flights = self.done.wait(flights).expect("gate poisoned");
                continue;
            }
            if let Some(plan) = self.try_reuse(fingerprint, class, survivors) {
                return Ok(plan);
            }
            flights.push(SharedKey {
                fingerprint,
                class,
                survivors: survivors.to_vec(),
            });
            break;
        }
        drop(flights);
        // This caller leads the solve for the key. The guard removes the
        // key and wakes waiters however the solve exits — success, error,
        // or panic.
        struct FlightGuard<'a> {
            cache: &'a SharedPlanCache,
            fingerprint: u64,
            class: PlanClass,
            survivors: &'a [usize],
        }
        impl Drop for FlightGuard<'_> {
            fn drop(&mut self) {
                let mut flights = self.cache.inflight.lock().expect("gate poisoned");
                if let Some(pos) = flights
                    .iter()
                    .position(|k| k.matches(self.fingerprint, self.class, self.survivors))
                {
                    flights.remove(pos);
                }
                drop(flights);
                self.cache.done.notify_all();
            }
        }
        let _flight = FlightGuard {
            cache: self,
            fingerprint,
            class,
            survivors,
        };
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.solves.fetch_add(1, Ordering::Relaxed);
        let plan = solve()?;
        self.insert(fingerprint, class, survivors.to_vec(), plan.clone());
        Ok(plan)
    }

    /// The counted lookup: one shard lock, and on a hit an LRU refresh
    /// and a booked hit. A non-hit books **no miss**: each logical request
    /// books one hit or miss at its *resolution*, and the miss is booked
    /// by whoever solves — [`SharedPlanCache::get_or_solve`]'s leader, or
    /// [`SharedPlanCache::publish_solved`] for a streaming session. So a
    /// caller that waits out another's in-flight solve and reuses the plan
    /// is a hit, not a miss-then-hit, and a session's mid-round probe
    /// stays speculative while more arrivals may land.
    pub(crate) fn try_reuse(
        &self,
        fingerprint: u64,
        class: PlanClass,
        survivors: &[usize],
    ) -> Option<DecodePlan> {
        let plan = self
            .shard_for(fingerprint, class, survivors)
            .lock()
            .expect("shard poisoned")
            .lookup(fingerprint, class, survivors)?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(plan)
    }

    /// The streaming-session publish: the session's incremental
    /// elimination *was* the round's dense solve, so the round's logical
    /// request books as one miss plus one solve, and the plan is shared
    /// fleet-wide. Tenants racing on the same fresh pattern may each
    /// publish once (the streaming path has no singleflight — each was
    /// already mid-elimination); the insert deduplicates the entry.
    pub(crate) fn publish_solved(
        &self,
        fingerprint: u64,
        class: PlanClass,
        survivors: Vec<usize>,
        plan: DecodePlan,
    ) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.solves.fetch_add(1, Ordering::Relaxed);
        self.insert(fingerprint, class, survivors, plan);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(coeff: f64) -> DecodePlan {
        DecodePlan::from_dense(&[coeff, 0.0, coeff / 2.0])
    }

    #[test]
    fn lookup_miss_then_solve_then_hit() {
        let cache = SharedPlanCache::with_shape(4, 8);
        let got = cache
            .get_or_solve(7, PlanClass::Exact, &[0, 2], || Ok(plan(1.0)))
            .unwrap();
        assert_eq!(got, plan(1.0));
        assert_eq!(cache.solves(), 1);
        assert_eq!(cache.misses(), 1);
        // Second tenant, same key: served without solving.
        let again = cache
            .get_or_solve(7, PlanClass::Exact, &[0, 2], || panic!("must not solve"))
            .unwrap();
        assert_eq!(again, plan(1.0));
        assert_eq!(cache.solves(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.lookups(), 2);
        assert_eq!(cache.cached_plans(), 1);
    }

    #[test]
    fn fingerprint_and_class_isolate_entries() {
        let cache = SharedPlanCache::with_shape(2, 8);
        cache
            .get_or_solve(1, PlanClass::Exact, &[0, 1], || Ok(plan(1.0)))
            .unwrap();
        // Same survivors, different scheme: its own solve.
        let other = cache
            .get_or_solve(2, PlanClass::Exact, &[0, 1], || Ok(plan(2.0)))
            .unwrap();
        assert_eq!(other, plan(2.0));
        // Same scheme and survivors, approximate class: its own solve.
        let approx = cache
            .get_or_solve(1, PlanClass::Approx, &[0, 1], || Ok(plan(3.0)))
            .unwrap();
        assert_eq!(approx, plan(3.0));
        assert_eq!(cache.solves(), 3);
        assert_eq!(cache.cached_plans(), 3);
    }

    #[test]
    fn failed_leader_releases_the_key() {
        let cache = SharedPlanCache::with_shape(1, 4);
        let err = cache.get_or_solve(9, PlanClass::Exact, &[1], || {
            Err(CodingError::NotDecodable { survivors: vec![1] })
        });
        assert!(err.is_err());
        // The key is free again: a retry can lead and succeed.
        let ok = cache
            .get_or_solve(9, PlanClass::Exact, &[1], || Ok(plan(4.0)))
            .unwrap();
        assert_eq!(ok, plan(4.0));
        assert_eq!(cache.solves(), 2);
    }

    #[test]
    fn lru_evicts_within_a_shard() {
        let cache = SharedPlanCache::with_shape(1, 2);
        for s in 0..3u64 {
            cache
                .get_or_solve(s, PlanClass::Exact, &[0], || Ok(plan(s as f64)))
                .unwrap();
        }
        assert_eq!(cache.cached_plans(), 2);
        // The oldest entry (fingerprint 0) was evicted: solving again.
        cache
            .get_or_solve(0, PlanClass::Exact, &[0], || Ok(plan(0.0)))
            .unwrap();
        assert_eq!(cache.solves(), 4);
    }

    #[test]
    fn concurrent_tenants_singleflight_per_pattern() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;

        let cache = Arc::new(SharedPlanCache::new());
        let solved = Arc::new(AtomicUsize::new(0));
        let patterns: Vec<Vec<usize>> = (0..6).map(|p| vec![p, p + 1]).collect();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let cache = Arc::clone(&cache);
                let solved = Arc::clone(&solved);
                let patterns = patterns.clone();
                scope.spawn(move || {
                    for (i, pat) in patterns.iter().enumerate() {
                        let plan = cache
                            .get_or_solve(42, PlanClass::Exact, pat, || {
                                solved.fetch_add(1, Ordering::SeqCst);
                                // Widen the race window so followers
                                // really do arrive mid-solve.
                                std::thread::sleep(std::time::Duration::from_millis(2));
                                Ok(DecodePlan::from_dense(&[i as f64 + 1.0]))
                            })
                            .unwrap();
                        assert_eq!(plan.coefficients(), &[i as f64 + 1.0], "thread {t}");
                    }
                });
            }
        });
        assert_eq!(solved.load(Ordering::SeqCst), patterns.len());
        assert_eq!(cache.solves() as usize, patterns.len());
        assert!(cache.hits() > 0, "racing tenants must observe reuse");
    }

    #[test]
    fn scheme_fingerprint_is_content_addressed() {
        use crate::codec::CompiledCodec;
        use crate::heter_aware::heter_aware;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let rates = [1.0, 2.0, 3.0, 4.0, 4.0];
        let print = |seed| {
            let code = heter_aware(&rates, 7, 1, &mut StdRng::seed_from_u64(seed)).unwrap();
            (CompiledCodec::new(code.clone()).scheme_fingerprint(), code)
        };
        let ((a, code_a), (b, _)) = (print(11), print(11));
        assert_eq!(a, b);

        let (c, code_c) = print(12);
        if code_c.matrix() != code_a.matrix() {
            assert_ne!(a, c);
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = SharedPlanCache::with_shape(0, 1);
    }
}
