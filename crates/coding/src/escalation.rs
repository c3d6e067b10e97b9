//! Per-round backend escalation: one shared decision point for every
//! consumer that must answer *"the exact decode did not materialize —
//! now what?"*.
//!
//! Before this module, that decision was duplicated: the BSP simulator
//! invoked [`GradientCodec::fallback_plan`] ad hoc at the end of a round,
//! and the threaded runtime re-implemented the same call at its iteration
//! timeout. [`EscalationPolicy`] centralizes the *decision* (how far up
//! the ladder a round may climb, under what residual budget, after what
//! deadline) and [`EscalatingCodec`] packages it with a concrete codec so
//! both execution paths — simulated and threaded — share the identical
//! fallback code.
//!
//! # The ladder
//!
//! A round escalates through the backends in a fixed order:
//!
//! 1. **Exact** — the streaming [`CodecSession`] decodes at the earliest
//!    decodable prefix (always active).
//! 2. **Group** — for group-aware codecs the same session short-circuits
//!    the moment a tracked group is intact (active whenever the base
//!    codec is a `GroupCodec`; it never *adds* decodability, it only
//!    completes rounds sooner).
//! 3. **Approx** — when no exact decode exists for the workers the caller
//!    is still willing to wait for, the ridge-stabilized least-squares
//!    row rescues the round with a bounded-error plan. With a ceiling of
//!    [`CodecBackend::Approx`] this stage is available *even when the
//!    base codec is exact or group-aware*: [`EscalatingCodec`] compiles a
//!    dedicated approximate arm over the same matrix, so escalation
//!    happens inside a single round without re-configuring the session.
//!
//! The ladder is monotone: raising the ceiling never makes a round less
//! decodable, and the approximate stage is consulted only after exact
//! decoding has been exhausted (a decodable survivor set always yields a
//! zero-residual plan).

use std::time::Duration;

use crate::backend::{AnyCodec, CodecBackend};
use crate::codec::{CodecSession, DecodePlan, GradientCodec};
use crate::codec_approx::ApproxCodec;
use crate::error::CodingError;

/// How far a round may escalate when the exact decode does not
/// materialize, and under what budget.
///
/// # Example
///
/// ```
/// use hetgc_coding::{CodecBackend, EscalationPolicy};
///
/// // Full ladder: rescue >s-straggler rounds approximately, but only
/// // when the decode residual stays below 0.5.
/// let policy = EscalationPolicy::escalate_to(CodecBackend::Approx).with_max_residual(0.5);
/// assert!(policy.allows_approx_for(CodecBackend::Exact));
///
/// // The conservative default follows the configured backend: only an
/// // Approx-backed codec may fall back.
/// let default = EscalationPolicy::default();
/// assert!(!default.allows_approx_for(CodecBackend::Exact));
/// assert!(default.allows_approx_for(CodecBackend::Approx));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EscalationPolicy {
    /// Highest rung of the ladder a round may reach.
    ceiling: CodecBackend,
    /// Residual budget for the approximate stage, applied on top of the
    /// approximate codec's own budget. `None` keeps the backend default.
    max_residual: Option<f64>,
    /// How long the master waits for an exact decode before escalating:
    /// wall-clock in the threaded runtime, simulated seconds in the
    /// discrete-event simulator. `None` waits for every reachable worker.
    deadline: Option<Duration>,
}

impl Default for EscalationPolicy {
    /// Follow the configured backend: only an approximate-backed codec
    /// escalates — the pre-policy behaviour of both execution paths.
    fn default() -> Self {
        EscalationPolicy {
            ceiling: CodecBackend::Auto,
            max_residual: None,
            deadline: None,
        }
    }
}

impl EscalationPolicy {
    /// The default policy: the ladder stops wherever the configured
    /// backend stops ([`CodecBackend::Auto`] ceiling).
    pub fn follow_backend() -> Self {
        EscalationPolicy::default()
    }

    /// Never escalate: an undecodable round stays undecodable even on an
    /// approximate-backed codec.
    pub fn exact_only() -> Self {
        EscalationPolicy::escalate_to(CodecBackend::Exact)
    }

    /// A policy whose ladder tops out at `ceiling`:
    ///
    /// * [`CodecBackend::Exact`] / [`CodecBackend::Group`] — exact decodes
    ///   only (the group stage is a latency fast path, not extra
    ///   decodability, so the two ceilings admit the same rounds);
    /// * [`CodecBackend::Approx`] — the full ladder, with a dedicated
    ///   approximate arm compiled even for exact/group base codecs;
    /// * [`CodecBackend::Auto`] — follow the base codec's own fallback.
    pub fn escalate_to(ceiling: CodecBackend) -> Self {
        EscalationPolicy {
            ceiling,
            ..EscalationPolicy::default()
        }
    }

    /// Caps the decode residual the approximate stage may accept.
    ///
    /// # Panics
    ///
    /// Panics if `max_residual` is negative or NaN.
    pub fn with_max_residual(mut self, max_residual: f64) -> Self {
        assert!(
            max_residual >= 0.0,
            "max_residual must be non-negative, got {max_residual}"
        );
        self.max_residual = Some(max_residual);
        self
    }

    /// Sets the deadline after which the master stops waiting for an
    /// exact decode and escalates with whatever arrived — the one round
    /// deadline of the wall-clock master and of the simulator (which reads
    /// it as simulated seconds).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Replaces the deadline in place (`None` clears it) — the hook the
    /// adaptive `DeadlineController` uses to feed a *learned* deadline
    /// into the policy each round instead of a static knob.
    pub fn update_deadline(&mut self, deadline: Option<Duration>) {
        self.deadline = deadline;
    }

    /// The configured ceiling.
    pub fn ceiling(&self) -> CodecBackend {
        self.ceiling
    }

    /// The configured residual budget, if any.
    pub fn max_residual(&self) -> Option<f64> {
        self.max_residual
    }

    /// The configured escalation deadline, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// Whether the approximate stage is reachable for a codec of the
    /// given base backend.
    pub fn allows_approx_for(&self, base: CodecBackend) -> bool {
        match self.ceiling {
            CodecBackend::Approx => true,
            CodecBackend::Auto => base == CodecBackend::Approx,
            CodecBackend::Exact | CodecBackend::Group => false,
        }
    }

    /// Whether a fallback plan passes the policy's residual budget.
    fn admits(&self, plan: &DecodePlan) -> bool {
        match self.max_residual {
            Some(budget) => plan.residual() <= budget,
            None => true,
        }
    }
}

/// A codec with the escalation ladder compiled in: the base backend
/// serves the exact (and group) stages, and — when the policy's ceiling
/// allows — a dedicated [`ApproxCodec`] arm over the same matrix serves
/// the approximate stage.
///
/// Implements [`GradientCodec`] by delegation, overriding only
/// [`GradientCodec::fallback_plan`] with the policy decision, so it drops
/// into every consumer of the trait (the BSP simulator's end-of-round and
/// deadline hooks, the threaded runtime's timeout path) unchanged: both
/// paths now share this single piece of fallback code.
#[derive(Debug, Clone)]
pub struct EscalatingCodec {
    base: AnyCodec,
    policy: EscalationPolicy,
    /// The approximate stage for exact/group base codecs (an
    /// approximate base serves its own fallback).
    approx_arm: Option<ApproxCodec>,
}

impl EscalatingCodec {
    /// Wires `policy` onto `base`, compiling the approximate arm when the
    /// ladder needs one the base cannot provide.
    pub fn new(base: AnyCodec, policy: EscalationPolicy) -> Self {
        let needs_arm =
            policy.allows_approx_for(base.backend()) && !matches!(base, AnyCodec::Approx(_));
        let approx_arm = needs_arm.then(|| {
            let arm = ApproxCodec::new(base.as_compiled().code().clone());
            match policy.max_residual {
                Some(budget) => arm.with_max_residual(budget),
                None => arm,
            }
        });
        EscalatingCodec {
            base,
            policy,
            approx_arm,
        }
    }

    /// The wrapped backend.
    pub fn base(&self) -> &AnyCodec {
        &self.base
    }

    /// The policy in force.
    pub fn policy(&self) -> &EscalationPolicy {
        &self.policy
    }

    /// Whether the approximate stage is actually reachable (policy allows
    /// it and an arm or approximate base exists to serve it).
    pub fn can_escalate(&self) -> bool {
        self.approx_arm.is_some()
            || (self.policy.allows_approx_for(self.base.backend())
                && matches!(self.base, AnyCodec::Approx(_)))
    }

    /// Attaches the fleet-wide plan cache to every rung of the ladder:
    /// the base backend and — when one was compiled — the dedicated
    /// approximate arm, so escalated rounds reuse cross-tenant ridge
    /// solves exactly like exact rounds reuse exact solves.
    pub fn attach_shared_plans(&mut self, cache: std::sync::Arc<crate::SharedPlanCache>) {
        self.base.attach_shared_plans(std::sync::Arc::clone(&cache));
        if let Some(arm) = &mut self.approx_arm {
            arm.attach_shared_plans(cache);
        }
    }

    /// Reports every rung of the ladder into `metrics`: the base backend
    /// and — when one was compiled — the approximate arm record onto the
    /// same shared handles, so one counter family covers the whole
    /// escalation path.
    pub fn attach_metrics(&mut self, metrics: hetgc_obs::CodecMetrics) {
        self.base.attach_metrics(metrics.clone());
        if let Some(arm) = &mut self.approx_arm {
            arm.attach_metrics(metrics);
        }
    }

    /// The attached metric bundle, if any.
    pub fn metrics(&self) -> Option<&hetgc_obs::CodecMetrics> {
        self.base.metrics()
    }

    /// The attached fleet-wide plan cache, if any.
    pub fn shared_plans(&self) -> Option<&std::sync::Arc<crate::SharedPlanCache>> {
        self.base.shared_plans()
    }
}

impl GradientCodec for EscalatingCodec {
    fn workers(&self) -> usize {
        self.base.workers()
    }

    fn partitions(&self) -> usize {
        self.base.partitions()
    }

    fn stragglers(&self) -> usize {
        self.base.stragglers()
    }

    fn load_of(&self, worker: usize) -> usize {
        self.base.load_of(worker)
    }

    fn encode_into<E: hetgc_linalg::Element>(
        &self,
        worker: usize,
        partials: &crate::GradientBlock<E>,
        out: &mut [E],
    ) -> Result<(), CodingError> {
        self.base.encode_into(worker, partials, out)
    }

    fn decode_plan(&self, survivors: &[usize]) -> Result<DecodePlan, CodingError> {
        self.base.decode_plan(survivors)
    }

    fn session(&self) -> CodecSession {
        self.base.session()
    }

    /// The one shared escalation decision: consulted by callers only once
    /// no exact decode exists for the workers they still wait for.
    fn fallback_plan(&self, survivors: &[usize]) -> Option<DecodePlan> {
        if matches!(
            self.policy.ceiling,
            CodecBackend::Exact | CodecBackend::Group
        ) {
            return None;
        }
        // The base's own fallback first (an approximate backend already
        // gates on its residual budget); the policy budget stacks on top.
        if let Some(plan) = self.base.fallback_plan(survivors) {
            return self.policy.admits(&plan).then_some(plan);
        }
        let plan = self.approx_arm.as_ref()?.fallback_plan(survivors)?;
        self.policy.admits(&plan).then_some(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::CompiledCodec;
    use crate::codec_group::GroupCodec;
    use crate::group::group_based;
    use crate::heter_aware::heter_aware;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn exact_base(seed: u64) -> AnyCodec {
        let mut rng = StdRng::seed_from_u64(seed);
        let b = heter_aware(&[1.0, 2.0, 3.0, 4.0, 4.0], 7, 1, &mut rng).unwrap();
        AnyCodec::Exact(CompiledCodec::new(b))
    }

    #[test]
    fn default_policy_follows_backend() {
        let esc = EscalatingCodec::new(exact_base(1), EscalationPolicy::follow_backend());
        // Exact base + Auto ceiling: no arm, no fallback.
        assert!(!esc.can_escalate());
        assert!(esc.fallback_plan(&[0, 1, 3]).is_none());
    }

    #[test]
    fn approx_ceiling_escalates_an_exact_base() {
        let esc = EscalatingCodec::new(
            exact_base(1),
            EscalationPolicy::escalate_to(CodecBackend::Approx),
        );
        assert!(esc.can_escalate());
        // Two stragglers exceed s = 1: the exact base has no fallback,
        // the dedicated arm rescues the round.
        let plan = esc.fallback_plan(&[0, 1, 3]).expect("arm must fire");
        assert!(plan.residual() > 0.0);
        // Exact-decodable sets stay with the session/decode_plan path:
        // the fallback is only *consulted* when exact decoding failed,
        // and even then it reports the exact row (residual 0) if one
        // exists.
        let plan = esc.decode_plan(&[0, 1, 3, 4]).unwrap();
        assert_eq!(plan.residual(), 0.0);
    }

    #[test]
    fn exact_and_group_ceilings_never_escalate() {
        for ceiling in [CodecBackend::Exact, CodecBackend::Group] {
            let esc = EscalatingCodec::new(exact_base(2), EscalationPolicy::escalate_to(ceiling));
            assert!(!esc.can_escalate());
            assert!(esc.fallback_plan(&[0, 1, 3]).is_none());
        }
        // Even over an approximate base, an Exact ceiling wins.
        let mut rng = StdRng::seed_from_u64(3);
        let b = heter_aware(&[1.0, 2.0, 3.0, 4.0, 4.0], 7, 1, &mut rng).unwrap();
        let base = AnyCodec::Approx(ApproxCodec::new(b).with_max_residual(3.0));
        let esc = EscalatingCodec::new(base, EscalationPolicy::exact_only());
        assert!(esc.fallback_plan(&[0, 1, 3]).is_none());
    }

    #[test]
    fn policy_budget_stacks_on_the_backend_budget() {
        let mut rng = StdRng::seed_from_u64(4);
        let b = heter_aware(&[1.0, 2.0, 3.0, 4.0, 4.0], 7, 1, &mut rng).unwrap();
        let base = AnyCodec::Approx(ApproxCodec::new(b).with_max_residual(3.0));
        let loose = EscalatingCodec::new(base.clone(), EscalationPolicy::follow_backend());
        let plan = loose.fallback_plan(&[0, 1, 3]).expect("within 3.0");
        assert!(plan.residual() > 0.0);
        // A tighter policy budget rejects the same plan.
        let tight = EscalatingCodec::new(
            base,
            EscalationPolicy::follow_backend().with_max_residual(plan.residual() / 2.0),
        );
        assert!(tight.fallback_plan(&[0, 1, 3]).is_none());
    }

    #[test]
    fn group_base_with_approx_ceiling_gets_an_arm() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = group_based(&[1.0; 6], 6, 1, &mut rng).unwrap();
        let base = AnyCodec::Group(GroupCodec::new(g).unwrap());
        let esc = EscalatingCodec::new(
            base,
            EscalationPolicy::escalate_to(CodecBackend::Approx).with_max_residual(3.0),
        );
        assert!(esc.can_escalate());
        // Group sessions keep their fast path through delegation.
        let session = esc.session();
        assert_eq!(session.workers(), 6);
        // A hopeless survivor set still escalates through the arm.
        assert!(esc.fallback_plan(&[0, 1]).is_some());
    }

    #[test]
    fn delegation_is_transparent() {
        let base = exact_base(6);
        let esc = EscalatingCodec::new(base.clone(), EscalationPolicy::default());
        assert_eq!(esc.workers(), base.workers());
        assert_eq!(esc.partitions(), base.partitions());
        assert_eq!(esc.stragglers(), base.stragglers());
        assert_eq!(esc.load_of(2), base.load_of(2));
        let partials: Vec<Vec<f64>> = (0..7).map(|j| vec![j as f64, 1.0]).collect();
        let block = crate::GradientBlock::from_rows(&partials).unwrap();
        let (mut via_esc, mut via_base) = ([f64::NAN; 2], [f64::NAN; 2]);
        esc.encode_into(1, &block, &mut via_esc).unwrap();
        base.encode_into(1, &block, &mut via_base).unwrap();
        assert_eq!(via_esc, via_base);
        assert_eq!(
            esc.decode_plan(&[0, 1, 3, 4]).unwrap(),
            base.decode_plan(&[0, 1, 3, 4]).unwrap()
        );
    }

    #[test]
    fn policy_accessors_and_builders() {
        let p = EscalationPolicy::escalate_to(CodecBackend::Approx)
            .with_max_residual(1.5)
            .with_deadline(Duration::from_millis(250));
        assert_eq!(p.ceiling(), CodecBackend::Approx);
        assert_eq!(p.max_residual(), Some(1.5));
        assert_eq!(p.deadline(), Some(Duration::from_millis(250)));
    }

    #[test]
    fn update_deadline_replaces_and_clears() {
        let mut p = EscalationPolicy::default();
        assert_eq!(p.deadline(), None);
        p.update_deadline(Some(Duration::from_millis(125)));
        assert_eq!(p.deadline(), Some(Duration::from_millis(125)));
        p.update_deadline(None);
        assert_eq!(p.deadline(), None);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_budget_panics() {
        let _ = EscalationPolicy::default().with_max_residual(-0.1);
    }
}
