//! The one round decision, [`collect_round`]: the simulator and the
//! wall-clock master differ only in the clock that feeds it arrivals and
//! ends them at the deadline. A round ends [`RoundEnd::Exact`] the moment
//! its arrivals decode. A round not decoded by its deadline, or once no
//! more results can come, asks the fallback once over the arrivals it
//! holds: [`RoundEnd::Escalated`] when it accepts, [`RoundEnd::Stalled`]
//! when it declines. A master cannot tell a straggler from a dead worker,
//! so no other rule terminates without knowing which workers are alive.
//!
//! [`EscalationPolicy`] says how far up the ladder a round may climb,
//! under what residual budget, after what deadline, and
//! [`EscalatingCodec`] wires it onto a codec:
//!
//! 1. **Exact** — the streaming [`CodecSession`] decodes at the earliest
//!    decodable prefix (always active).
//! 2. **Group** — the same session short-circuits the moment a tracked
//!    group is intact (when the codec has its intact-group stage on; it
//!    never *adds* decodability, it only completes rounds sooner).
//! 3. **Approx** — the ridge-stabilized least-squares row rescues an
//!    undecoded round with a bounded-error plan. A
//!    [`CodecBackend::Approx`] ceiling switches this stage on in place
//!    even on a codec compiled exact or group-aware.
//!
//! The ladder is monotone: raising the ceiling never makes a round less
//! decodable, and a decodable survivor set always yields a zero-residual
//! plan.

use std::time::Duration;

use crate::backend::CodecBackend;
use crate::codec::{CodecSession, CompiledCodec, DecodePlan, GradientCodec};
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
/// assert_eq!(policy.ceiling(), CodecBackend::Approx);
///
/// // The conservative default follows the configured backend: only a
/// // codec compiled with its approximate stage on may fall back.
/// assert_eq!(EscalationPolicy::default().ceiling(), CodecBackend::Auto);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EscalationPolicy {
    /// Highest rung of the ladder a round may reach.
    ceiling: CodecBackend,
    /// Residual budget for the approximate stage, applied on top of the
    /// codec's own budget. `None` keeps the codec's.
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
    /// * [`CodecBackend::Approx`] — the full ladder, the approximate stage
    ///   switched on even for codecs compiled exact or group-aware;
    /// * [`CodecBackend::Auto`] — follow the codec's own fallback.
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

    /// Sets the deadline after which a round not yet decoded asks the
    /// fallback once and otherwise stalls — wall-clock on the master,
    /// simulated seconds in the simulator.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
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

    /// Whether the ceiling stops below the approximate stage.
    fn exact_only_ceiling(&self) -> bool {
        matches!(self.ceiling, CodecBackend::Exact | CodecBackend::Group)
    }

    /// Whether a fallback plan passes the policy's residual budget.
    fn admits(&self, plan: &DecodePlan) -> bool {
        match self.max_residual {
            Some(budget) => plan.residual() <= budget,
            None => true,
        }
    }
}

/// A codec with the escalation ladder wired on: the codec's own stages
/// serve the exact, group and approximate rungs, and the policy decides
/// whether — and under what residual budget — a round may reach the last.
/// Implements [`GradientCodec`] by delegation, overriding only
/// [`GradientCodec::fallback_plan`] with the policy decision.
#[derive(Debug, Clone)]
pub struct EscalatingCodec {
    codec: CompiledCodec,
    policy: EscalationPolicy,
}

impl EscalatingCodec {
    /// Wires `policy` onto `codec`. An [`CodecBackend::Approx`] ceiling
    /// switches the codec's approximate stage on in place when it has
    /// none, under the policy's residual budget (or the stage default);
    /// a codec that already has the stage keeps its own budget.
    pub fn new(mut codec: CompiledCodec, policy: EscalationPolicy) -> Self {
        if policy.ceiling == CodecBackend::Approx && codec.max_residual().is_none() {
            codec = codec.with_approx(policy.max_residual);
        }
        EscalatingCodec { codec, policy }
    }

    /// The wrapped codec.
    pub fn base(&self) -> &CompiledCodec {
        &self.codec
    }

    /// The policy in force.
    pub fn policy(&self) -> &EscalationPolicy {
        &self.policy
    }

    /// Whether the approximate stage is actually reachable (the ceiling
    /// allows it and the codec has the stage on).
    pub fn can_escalate(&self) -> bool {
        !self.policy.exact_only_ceiling() && self.codec.max_residual().is_some()
    }

    /// Installs every engine's learned deadline, `seconds` from round
    /// start. Ignores a non-finite or non-positive value, and any value
    /// unless [`EscalatingCodec::can_escalate`]: a deadline the ladder
    /// cannot act on would turn slow rounds into stalled ones.
    pub fn set_deadline(&mut self, seconds: f64) {
        if seconds > 0.0 && self.can_escalate() {
            if let Ok(deadline) = Duration::try_from_secs_f64(seconds) {
                self.policy.deadline = Some(deadline);
            }
        }
    }

    /// Attaches the fleet-wide plan cache to the codec, so escalated
    /// rounds reuse cross-tenant ridge solves exactly like exact rounds
    /// reuse exact solves.
    pub fn attach_shared_plans(&mut self, cache: std::sync::Arc<crate::SharedPlanCache>) {
        self.codec.attach_shared_plans(cache);
    }

    /// Reports the codec's plan-cache behaviour into `metrics`: one
    /// counter family covers the whole escalation path.
    pub fn attach_metrics(&mut self, metrics: hetgc_obs::CodecMetrics) {
        self.codec.attach_metrics(metrics);
    }
}

impl GradientCodec for EscalatingCodec {
    fn workers(&self) -> usize {
        self.codec.workers()
    }

    fn partitions(&self) -> usize {
        self.codec.partitions()
    }

    fn stragglers(&self) -> usize {
        self.codec.stragglers()
    }

    fn load_of(&self, worker: usize) -> usize {
        self.codec.load_of(worker)
    }

    fn encode_into(
        &self,
        worker: usize,
        partials: &crate::GradientBlock,
        out: &mut [f64],
    ) -> Result<(), CodingError> {
        self.codec.encode_into(worker, partials, out)
    }

    fn decode_plan(&self, survivors: &[usize]) -> Result<DecodePlan, CodingError> {
        self.codec.decode_plan(survivors)
    }

    fn session(&self) -> CodecSession {
        self.codec.session()
    }

    /// The one shared escalation decision: consulted by callers only once
    /// no exact decode exists for the workers they still wait for. The
    /// stage gates on its own residual budget; the policy budget stacks
    /// on top.
    fn fallback_plan(&self, survivors: &[usize]) -> Option<DecodePlan> {
        if self.policy.exact_only_ceiling() {
            return None;
        }
        let plan = self.codec.fallback_plan(survivors)?;
        self.policy.admits(&plan).then_some(plan)
    }
}

/// How a round collected by [`collect_round`] ended.
#[derive(Debug, Clone, PartialEq)]
pub enum RoundEnd {
    /// The arrivals decode; the plan is [`CodecSession::decoded_plan`].
    Exact,
    /// Not decoded when the arrivals ran out; the fallback accepted this
    /// plan over them.
    Escalated(DecodePlan),
    /// Not decoded when the arrivals ran out, and the fallback declined.
    Stalled,
}

/// Decides one round (see the [module docs](self)): resets `session` and
/// pushes `arrivals` in order until they decode. The iterator ends where
/// the round expires — at its deadline, or when no more results can come
/// — and the fallback is then asked once over the session's arrivals.
///
/// # Errors
///
/// [`CodingError::InvalidParameter`] on an out-of-range or duplicate
/// arrival.
pub fn collect_round<C: GradientCodec + ?Sized>(
    codec: &C,
    session: &mut CodecSession,
    arrivals: impl IntoIterator<Item = usize>,
) -> Result<RoundEnd, CodingError> {
    session.reset();
    for worker in arrivals {
        if session.push_arrival(worker)? {
            return Ok(RoundEnd::Exact);
        }
    }
    Ok(codec
        .fallback_plan(session.arrivals())
        .map_or(RoundEnd::Stalled, RoundEnd::Escalated))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::group_based;
    use crate::heter_aware::heter_aware;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn exact_base(seed: u64) -> CompiledCodec {
        let mut rng = StdRng::seed_from_u64(seed);
        let b = heter_aware(&[1.0, 2.0, 3.0, 4.0, 4.0], 7, 1, &mut rng).unwrap();
        CompiledCodec::new(b)
    }

    #[test]
    fn default_policy_follows_backend() {
        let esc = EscalatingCodec::new(exact_base(1), EscalationPolicy::follow_backend());
        // Exact base + Auto ceiling: no approximate stage, no fallback.
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
        // Two stragglers exceed s = 1: the exact base had no fallback,
        // the stage the ceiling switched on rescues the round.
        let plan = esc.fallback_plan(&[0, 1, 3]).expect("stage must fire");
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
        let base = CompiledCodec::new(b).with_approx(Some(3.0));
        let esc = EscalatingCodec::new(base, EscalationPolicy::exact_only());
        assert!(esc.fallback_plan(&[0, 1, 3]).is_none());
    }

    #[test]
    fn policy_budget_stacks_on_the_backend_budget() {
        let mut rng = StdRng::seed_from_u64(4);
        let b = heter_aware(&[1.0, 2.0, 3.0, 4.0, 4.0], 7, 1, &mut rng).unwrap();
        let base = CompiledCodec::new(b).with_approx(Some(3.0));
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
        let base = g.compile().unwrap();
        let esc = EscalatingCodec::new(
            base,
            EscalationPolicy::escalate_to(CodecBackend::Approx).with_max_residual(3.0),
        );
        assert!(esc.can_escalate());
        // Group sessions keep their fast path through delegation.
        let session = esc.session();
        assert_eq!(session.workers(), 6);
        // A hopeless survivor set still escalates, on the same compile.
        assert!(!esc.base().groups().is_empty());
        assert_eq!(esc.base().max_residual(), Some(3.0));
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
    fn set_deadline_ignores_bad_values_and_exact_ceilings() {
        let mut exact = EscalatingCodec::new(exact_base(7), EscalationPolicy::exact_only());
        exact.set_deadline(0.125);
        assert_eq!(exact.policy().deadline(), None, "the ladder cannot act");

        let policy = EscalationPolicy::escalate_to(CodecBackend::Approx);
        let mut esc = EscalatingCodec::new(exact_base(7), policy);
        esc.set_deadline(0.125);
        assert_eq!(esc.policy().deadline(), Some(Duration::from_millis(125)));
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::MAX] {
            esc.set_deadline(bad);
            assert_eq!(esc.policy().deadline(), Some(Duration::from_millis(125)));
        }
    }

    #[test]
    fn collect_round_decides_exact_escalated_or_stalled() {
        let approx = EscalatingCodec::new(
            exact_base(8),
            EscalationPolicy::escalate_to(CodecBackend::Approx),
        );
        let exact = EscalatingCodec::new(exact_base(8), EscalationPolicy::exact_only());
        let mut session = approx.session();
        // m − s = 4 arrivals decode; an arrival after the decode is never
        // pushed.
        let end = collect_round(&approx, &mut session, [4, 0, 1, 3, 2]).unwrap();
        assert_eq!(end, RoundEnd::Exact);
        assert_eq!(session.arrivals(), &[4, 0, 1, 3]);
        assert_eq!(session.decoded_plan().unwrap().residual(), 0.0);
        // The arrivals end after three: the fallback is asked once over
        // them.
        let Ok(RoundEnd::Escalated(plan)) = collect_round(&approx, &mut session, [3, 1, 0]) else {
            panic!("the Approx ceiling escalates");
        };
        assert_eq!(plan, approx.fallback_plan(&[0, 1, 3]).unwrap());
        // A decline stalls.
        let end = collect_round(&exact, &mut session, [3, 1]).unwrap();
        assert_eq!(end, RoundEnd::Stalled);
        let end = collect_round(&approx, &mut session, []).unwrap();
        assert_eq!(end, RoundEnd::Stalled, "nothing arrived");
        assert!(collect_round(&approx, &mut session, [9]).is_err());
        assert!(collect_round(&approx, &mut session, [1, 1]).is_err());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_budget_panics() {
        let _ = EscalationPolicy::default().with_max_residual(-0.1);
    }
}
