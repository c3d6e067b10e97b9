//! The approximate stage of [`CompiledCodec`]: bounded-error decoding
//! past the straggler budget.
//!
//! A codec built [`CompiledCodec::with_approx`] answers exactly as it does
//! without the stage as long as the survivor set decodes exactly (same
//! solves, same plan cache — bitwise-equal plans). The difference is what
//! happens when **more than `s` workers straggle**, where an exact codec
//! returns [`CodingError::NotDecodable`]:
//!
//! * [`GradientCodec::decode_plan`] falls back to the ridge-stabilized
//!   least-squares row of [`crate::approximate_decode`], returning a plan
//!   whose [`DecodePlan::residual`] is `‖aᵀB_I − 1‖₂ > 0`;
//! * [`GradientCodec::fallback_plan`] exposes the same row to the
//!   streaming consumers (BSP simulator, wall-clock master), which invoke
//!   it once all reachable workers have reported without an exact decode;
//! * plans whose residual exceeds [`CompiledCodec::max_residual`] are
//!   rejected (the decode would be worse than the configured error
//!   budget), so a catastrophically depleted survivor set still surfaces
//!   as undecodable instead of silently training on noise.
//!
//! The gradient error of an accepted plan is bounded by
//! `residual · ‖(‖g_1‖, …, ‖g_k‖)‖₂` (Cauchy–Schwarz; see
//! [`crate::gradient_error_bound_l2`]), which SGD tolerates for small
//! residuals — this is the approximate-gradient-coding line of work
//! (Raviv et al.; Charles et al.) grafted onto the paper's exact schemes.
//!
//! [`GradientCodec::decode_plan`]: crate::GradientCodec::decode_plan
//! [`GradientCodec::fallback_plan`]: crate::GradientCodec::fallback_plan

use crate::codec::{CompiledCodec, DecodePlan, GradientCodec};
use crate::error::CodingError;
use crate::shared_cache::PlanClass;

/// Default residual budget as a fraction of `√k` — the residual of the
/// trivial decode `a = 0` (which recovers nothing).
/// [`CompiledCodec::with_approx`] accepts plans with `residual ≤ 0.75·√k`
/// unless told otherwise: anything worse recovers so little of the
/// gradient that SGD progress is no longer credible, and the round is
/// better declared undecodable.
pub(crate) const DEFAULT_MAX_RESIDUAL_FRACTION: f64 = 0.75;

/// The approximate stage's state on a [`CompiledCodec`]: its residual
/// budget. Its least-squares plans live in the codec's one plan cache,
/// on their own lines ([`PlanClass::Approx`]) beside the exact plans and
/// under the same capacity, so the steady `>s`-straggler regime — the
/// same survivor set every round — pays the ridge solve once.
#[derive(Debug, Clone)]
pub(crate) struct ApproxStage {
    max_residual: f64,
}

impl ApproxStage {
    /// Whether `plan` is inside the residual budget (and non-trivial).
    pub(crate) fn admits(&self, plan: &DecodePlan) -> bool {
        plan.residual() <= self.max_residual && !plan.is_empty()
    }
}

impl CompiledCodec {
    /// Switches the approximate stage on with the residual budget
    /// `max_residual` (`None`: `DEFAULT_MAX_RESIDUAL_FRACTION · √k`);
    /// plans above it are rejected as [`CodingError::NotDecodable`].
    ///
    /// # Example
    ///
    /// ```
    /// use hetgc_coding::{heter_aware, CompiledCodec, GradientCodec};
    /// use rand::SeedableRng;
    ///
    /// # fn main() -> Result<(), hetgc_coding::CodingError> {
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    /// let b = heter_aware(&[1.0, 2.0, 3.0, 4.0, 4.0], 7, 1, &mut rng)?;
    /// let codec = CompiledCodec::new(b).with_approx(None);
    ///
    /// // Within the budget: exact, residual 0 — as without the stage.
    /// let plan = codec.decode_plan(&[0, 1, 3, 4])?;
    /// assert!(plan.is_exact());
    ///
    /// // Two stragglers exceed s = 1: an exact codec gives up, the
    /// // approximate stage returns a bounded-error plan.
    /// let plan = codec.decode_plan(&[0, 1, 3])?;
    /// assert!(!plan.is_exact());
    /// assert!(plan.residual() > 0.0);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `max_residual` is negative or NaN.
    pub fn with_approx(mut self, max_residual: Option<f64>) -> Self {
        let max_residual = max_residual
            .unwrap_or_else(|| DEFAULT_MAX_RESIDUAL_FRACTION * (self.partitions() as f64).sqrt());
        assert!(
            max_residual >= 0.0,
            "max_residual must be non-negative, got {max_residual}"
        );
        self.approx = Some(ApproxStage { max_residual });
        self
    }

    /// The approximate stage's residual budget (`None` when the stage is
    /// off).
    pub(crate) fn max_residual(&self) -> Option<f64> {
        self.approx.as_ref().map(|stage| stage.max_residual)
    }

    /// The least-squares plan for an arbitrary survivor set, regardless of
    /// the residual budget (callers inspect [`DecodePlan::residual`]
    /// themselves). Memoized per sorted survivor set, so a persistent
    /// `>s`-straggler pattern pays the ridge solve once.
    ///
    /// # Errors
    ///
    /// [`CodingError::InvalidParameter`] on bad survivor indices or when
    /// the approximate stage is off; [`CodingError::Numerical`] if the SPD
    /// solve fails.
    pub fn approximate_plan(&self, survivors: &[usize]) -> Result<DecodePlan, CodingError> {
        if self.approx.is_none() {
            return Err(CodingError::InvalidParameter {
                reason: "codec has no approximate stage (see CompiledCodec::with_approx)".into(),
            });
        }
        self.probe(survivors, PlanClass::Approx, None)?
            .or_else(|key| self.solve(PlanClass::Approx, &key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heter_aware::heter_aware;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn codec(seed: u64) -> CompiledCodec {
        let mut rng = StdRng::seed_from_u64(seed);
        CompiledCodec::new(heter_aware(&[1.0, 2.0, 3.0, 4.0, 4.0], 7, 1, &mut rng).unwrap())
            .with_approx(None)
    }

    #[test]
    fn exact_path_bitwise_matches_compiled() {
        let codec = codec(5);
        for dead in 0..5 {
            let survivors: Vec<usize> = (0..5).filter(|&w| w != dead).collect();
            let approx_side = codec.decode_plan(&survivors).unwrap();
            let exact_side = CompiledCodec::new(codec.code().clone())
                .decode_plan(&survivors)
                .unwrap();
            assert_eq!(approx_side, exact_side, "dead worker {dead}");
            assert!(approx_side.is_exact());
            assert_eq!(approx_side.residual(), 0.0);
        }
    }

    #[test]
    fn beyond_budget_returns_residual_plan() {
        let codec = codec(5).with_approx(Some(2.0));
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
        let codec = codec(5).with_approx(Some(0.1));
        assert!(matches!(
            codec.decode_plan(&[0]),
            Err(CodingError::NotDecodable { .. })
        ));
        assert!(codec.fallback_plan(&[0]).is_none());
    }

    #[test]
    fn approximate_plans_are_memoized() {
        let codec = codec(5).with_approx(Some(3.0));
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
        let _ = codec(5).with_approx(Some(-1.0));
    }
}
