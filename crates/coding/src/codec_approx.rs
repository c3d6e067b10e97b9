//! The approximate codec backend: bounded-error decoding past the
//! straggler budget.
//!
//! [`ApproxCodec`] wraps a [`CompiledCodec`] and behaves identically to it
//! as long as the survivor set decodes exactly (same solves, same plan
//! cache — plans are bitwise equal to the generic backend's). The
//! difference is what happens when **more than `s` workers straggle**,
//! where every exact backend returns [`CodingError::NotDecodable`]:
//!
//! * [`GradientCodec::decode_plan`] falls back to the ridge-stabilized
//!   least-squares row of [`approximate_decode`], returning a plan whose
//!   [`DecodePlan::residual`] is `‖aᵀB_I − 1‖₂ > 0`;
//! * [`GradientCodec::fallback_plan`] exposes the same row to the
//!   streaming consumers (BSP simulator, threaded runtime), which invoke
//!   it once all reachable workers have reported without an exact decode;
//! * plans whose residual exceeds [`ApproxCodec::max_residual`] are
//!   rejected (the decode would be worse than the configured error
//!   budget), so a catastrophically depleted survivor set still surfaces
//!   as undecodable instead of silently training on noise.
//!
//! The gradient error of an accepted plan is bounded by
//! `residual · ‖(‖g_1‖, …, ‖g_k‖)‖₂` (Cauchy–Schwarz; see
//! [`crate::gradient_error_bound_l2`]), which SGD tolerates for small
//! residuals — this is the approximate-gradient-coding line of work
//! (Raviv et al.; Charles et al.) grafted onto the paper's exact schemes.

use std::sync::{Arc, Mutex};

use crate::approx::approximate_decode;
use crate::codec::{
    canonical_survivors, CodecSession, CompiledCodec, DecodePlan, GradientCodec, PlanCache,
    DEFAULT_PLAN_CACHE_CAPACITY,
};
use crate::error::CodingError;
use crate::shared_cache::{PlanClass, SharedPlanCache};
use crate::strategy::CodingMatrix;

/// Default residual budget as a fraction of `√k` — the residual of the
/// trivial decode `a = 0` (which recovers nothing). [`ApproxCodec::new`]
/// accepts plans with `residual ≤ 0.75·√k`: anything worse recovers so
/// little of the gradient that SGD progress is no longer credible, and
/// the round is better declared undecodable.
pub const DEFAULT_MAX_RESIDUAL_FRACTION: f64 = 0.75;

/// The approximate [`GradientCodec`] backend. See the module docs.
///
/// # Example
///
/// ```
/// use hetgc_coding::{heter_aware, ApproxCodec, GradientCodec};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), hetgc_coding::CodingError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let b = heter_aware(&[1.0, 2.0, 3.0, 4.0, 4.0], 7, 1, &mut rng)?;
/// let codec = ApproxCodec::new(b);
///
/// // Within the budget: exact, residual 0 — identical to CompiledCodec.
/// let plan = codec.decode_plan(&[0, 1, 3, 4])?;
/// assert!(plan.is_exact());
///
/// // Two stragglers exceed s = 1: the exact backends give up, the
/// // approximate backend returns a bounded-error plan.
/// let plan = codec.decode_plan(&[0, 1, 3])?;
/// assert!(!plan.is_exact());
/// assert!(plan.residual() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ApproxCodec {
    inner: CompiledCodec,
    max_residual: f64,
    /// LRU of *approximate* plans keyed by the sorted survivor set — the
    /// steady-state `>s`-straggler regime repeats the same survivor set
    /// every round, and the ridge least-squares solve is far more
    /// expensive than the exact backend's cached lookup.
    approx_cache: Mutex<PlanCache>,
}

impl Clone for ApproxCodec {
    fn clone(&self) -> Self {
        ApproxCodec {
            inner: self.inner.clone(),
            max_residual: self.max_residual,
            approx_cache: Mutex::new(self.approx_cache.lock().expect("cache poisoned").clone()),
        }
    }
}

impl ApproxCodec {
    /// Wraps `code` with the default residual budget
    /// `DEFAULT_MAX_RESIDUAL_FRACTION · √k`.
    pub fn new(code: CodingMatrix) -> Self {
        let max_residual = DEFAULT_MAX_RESIDUAL_FRACTION * (code.partitions() as f64).sqrt();
        ApproxCodec {
            inner: CompiledCodec::new(code),
            max_residual,
            approx_cache: Mutex::new(PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY)),
        }
    }

    /// Sets the largest acceptable decode residual; plans above it are
    /// rejected as [`CodingError::NotDecodable`].
    ///
    /// # Panics
    ///
    /// Panics if `max_residual` is negative or NaN.
    pub fn with_max_residual(mut self, max_residual: f64) -> Self {
        assert!(
            max_residual >= 0.0,
            "max_residual must be non-negative, got {max_residual}"
        );
        self.max_residual = max_residual;
        self
    }

    /// The configured residual budget.
    pub fn max_residual(&self) -> f64 {
        self.max_residual
    }

    /// The exact compiled backend this codec extends.
    pub fn inner(&self) -> &CompiledCodec {
        &self.inner
    }

    /// Attaches the fleet-wide plan cache to both rungs this codec
    /// serves: exact solves (via the inner compiled backend) and ridge
    /// least-squares solves (under [`PlanClass::Approx`], so the two
    /// plan kinds for one survivor set never collide).
    pub fn attach_shared_plans(&mut self, cache: Arc<SharedPlanCache>) {
        self.inner.attach_shared_plans(cache);
    }

    /// Reports both rungs' plan-cache behaviour (exact probes through
    /// the inner backend, ridge probes and solves here) into `metrics`;
    /// see `CompiledCodec::attach_metrics`.
    pub fn attach_metrics(&mut self, metrics: hetgc_obs::CodecMetrics) {
        self.inner.attach_metrics(metrics);
    }

    /// The least-squares miss path: through the shared cache's
    /// cross-tenant singleflight when one is attached (back-filling the
    /// private memo), a plain local solve-and-insert otherwise.
    fn solve_approx(&self, key: Vec<usize>) -> Result<DecodePlan, CodingError> {
        if let Some(shared) = self.inner.shared_plans() {
            let plan = shared.get_or_solve(
                self.inner.scheme_fingerprint(),
                PlanClass::Approx,
                &key,
                || {
                    let started = std::time::Instant::now();
                    let approx = approximate_decode(self.inner.code(), &key)?;
                    if let Some(obs) = self.inner.metrics() {
                        obs.solved(started.elapsed().as_secs_f64());
                    }
                    Ok(DecodePlan::from_dense_with_residual(
                        &approx.vector,
                        approx.residual,
                    ))
                },
            )?;
            self.approx_cache
                .lock()
                .expect("cache poisoned")
                .insert(key, plan.clone());
            return Ok(plan);
        }
        let started = std::time::Instant::now();
        let approx = approximate_decode(self.inner.code(), &key)?;
        if let Some(obs) = self.inner.metrics() {
            obs.solved(started.elapsed().as_secs_f64());
        }
        let plan = DecodePlan::from_dense_with_residual(&approx.vector, approx.residual);
        self.approx_cache
            .lock()
            .expect("cache poisoned")
            .insert(key, plan.clone());
        Ok(plan)
    }

    /// The least-squares plan for an arbitrary survivor set, regardless of
    /// the residual budget (callers inspect [`DecodePlan::residual`]
    /// themselves). Memoized per sorted survivor set, so a persistent
    /// `>s`-straggler pattern pays the ridge solve once.
    ///
    /// # Errors
    ///
    /// [`CodingError::InvalidParameter`] on bad survivor indices;
    /// [`CodingError::Numerical`] if the SPD solve fails.
    pub fn approximate_plan(&self, survivors: &[usize]) -> Result<DecodePlan, CodingError> {
        // Borrowed-key cache probe: the steady-state `>s` regime repeats
        // the same survivor set every round and pays zero allocations on
        // the hit; only a miss clones the key for the insert.
        let probed = self
            .approx_cache
            .lock()
            .expect("cache poisoned")
            .probe(survivors, self.inner.workers())?;
        match probed {
            Ok(plan) => {
                if let Some(obs) = self.inner.metrics() {
                    obs.hit();
                }
                Ok(plan)
            }
            Err(key) => {
                if let Some(obs) = self.inner.metrics() {
                    obs.miss();
                }
                self.solve_approx(key)
            }
        }
    }

    /// [`ApproxCodec::approximate_plan`] over an already-canonical key.
    fn approximate_plan_canonical(&self, key: Vec<usize>) -> Result<DecodePlan, CodingError> {
        if let Some(plan) = self
            .approx_cache
            .lock()
            .expect("cache poisoned")
            .lookup(&key)
        {
            return Ok(plan);
        }
        self.solve_approx(key)
    }
}

impl GradientCodec for ApproxCodec {
    fn workers(&self) -> usize {
        self.inner.workers()
    }

    fn partitions(&self) -> usize {
        self.inner.partitions()
    }

    fn stragglers(&self) -> usize {
        self.inner.stragglers()
    }

    fn load_of(&self, worker: usize) -> usize {
        self.inner.load_of(worker)
    }

    fn encode_into<E: hetgc_linalg::Element>(
        &self,
        worker: usize,
        partials: &crate::GradientBlock<E>,
        out: &mut [E],
    ) -> Result<(), CodingError> {
        self.inner.encode_into(worker, partials, out)
    }

    /// Exact when possible (bitwise-identical to [`CompiledCodec`],
    /// including its plan cache); least-squares with a reported residual
    /// when not; [`CodingError::NotDecodable`] when even the approximation
    /// exceeds the residual budget.
    fn decode_plan(&self, survivors: &[usize]) -> Result<DecodePlan, CodingError> {
        let key = canonical_survivors(self.inner.code(), survivors)?;
        match self.inner.decode_plan_canonical(key.clone()) {
            Ok(plan) => Ok(plan),
            Err(CodingError::NotDecodable { .. }) => {
                let plan = self.approximate_plan_canonical(key)?;
                if plan.residual() <= self.max_residual && !plan.is_empty() {
                    Ok(plan)
                } else {
                    Err(CodingError::NotDecodable {
                        survivors: survivors.to_vec(),
                    })
                }
            }
            Err(e) => Err(e),
        }
    }

    fn session(&self) -> CodecSession {
        self.inner.session()
    }

    fn fallback_plan(&self, survivors: &[usize]) -> Option<DecodePlan> {
        let plan = self.approximate_plan(survivors).ok()?;
        (plan.residual() <= self.max_residual && !plan.is_empty()).then_some(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heter_aware::heter_aware;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn codec(seed: u64) -> ApproxCodec {
        let mut rng = StdRng::seed_from_u64(seed);
        ApproxCodec::new(heter_aware(&[1.0, 2.0, 3.0, 4.0, 4.0], 7, 1, &mut rng).unwrap())
    }

    #[test]
    fn exact_path_bitwise_matches_compiled() {
        let codec = codec(5);
        for dead in 0..5 {
            let survivors: Vec<usize> = (0..5).filter(|&w| w != dead).collect();
            let approx_side = codec.decode_plan(&survivors).unwrap();
            let exact_side = codec.inner().decode_plan(&survivors).unwrap();
            assert_eq!(approx_side, exact_side, "dead worker {dead}");
            assert!(approx_side.is_exact());
            assert_eq!(approx_side.residual(), 0.0);
        }
    }

    #[test]
    fn beyond_budget_returns_residual_plan() {
        let codec = codec(5).with_max_residual(2.0);
        let plan = codec.decode_plan(&[0, 1, 3]).unwrap();
        assert!(plan.residual() > 0.0);
        assert!(plan.residual() <= 2.0);
        assert!(plan.workers().iter().all(|&w| [0, 1, 3].contains(&w)));
        // The fallback hook hands out the same plan.
        let fallback = codec.fallback_plan(&[0, 1, 3]).unwrap();
        assert_eq!(fallback, plan);
    }

    #[test]
    fn residual_budget_rejects_hopeless_sets() {
        // A single surviving worker of five cannot approximate the sum of
        // 7 partitions within a 0.1 residual.
        let codec = codec(5).with_max_residual(0.1);
        assert!(matches!(
            codec.decode_plan(&[0]),
            Err(CodingError::NotDecodable { .. })
        ));
        assert!(codec.fallback_plan(&[0]).is_none());
    }

    #[test]
    fn approximate_plans_are_memoized() {
        let codec = codec(5).with_max_residual(3.0);
        let first = codec.decode_plan(&[0, 1, 3]).unwrap();
        // Same survivor set in a different order: served from the approx
        // cache, bitwise-identical plan (no second ridge solve).
        let second = codec.decode_plan(&[3, 1, 0]).unwrap();
        assert_eq!(first, second);
        let via_hook = codec.fallback_plan(&[1, 0, 3]).unwrap();
        assert_eq!(first, via_hook);
    }

    #[test]
    fn exact_survivor_sets_report_zero_residual_via_approx_path() {
        let codec = codec(5);
        let plan = codec.approximate_plan(&[0, 1, 3, 4]).unwrap();
        assert!(plan.is_exact(), "residual {}", plan.residual());
    }

    #[test]
    fn invalid_survivors_propagate() {
        let codec = codec(5);
        assert!(matches!(
            codec.decode_plan(&[0, 9]),
            Err(CodingError::InvalidParameter { .. })
        ));
        assert!(matches!(
            codec.decode_plan(&[1, 1]),
            Err(CodingError::InvalidParameter { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_budget_panics() {
        let _ = codec(5).with_max_residual(-1.0);
    }
}
