//! The one round decision, [`collect_round`]: the simulator and the
//! wall-clock master differ only in the clock that feeds it arrivals and
//! ends them at the deadline. A round ends [`RoundEnd::Exact`] the moment
//! its arrivals decode. A round not decoded by its deadline, or once no
//! more results can come, asks the fallback once over the arrivals it
//! holds: [`RoundEnd::Escalated`] when it accepts, [`RoundEnd::Stalled`]
//! when it declines. A master cannot tell a straggler from a dead worker,
//! so no other rule terminates without knowing which workers are alive.
//!
//! [`EscalationPolicy`] says after what deadline a round stops waiting
//! and under what residual budget, and [`EscalatingCodec`] wires it onto
//! a codec. Whether a round may escalate at all is the codec's: the
//! ladder is the codec's own stages, and the [`CodecBackend`] it was
//! compiled with is the ladder's ceiling.
//!
//! 1. **Exact** — the streaming [`CodecSession`] decodes at the earliest
//!    decodable prefix (always active).
//! 2. **Group** — the same session short-circuits the moment a tracked
//!    group is intact (when the codec has its intact-group stage on; it
//!    never *adds* decodability, it only completes rounds sooner).
//! 3. **Approx** — the ridge-stabilized least-squares row rescues an
//!    undecoded round with a bounded-error plan (when the codec has its
//!    approximate stage on: [`CodecBackend::Approx`]). The policy's
//!    budget, when set, replaces the stage's own.
//!
//! The ladder is monotone: a codec with more stages never makes a round
//! less decodable, and a decodable survivor set always yields a
//! zero-residual plan.
//!
//! [`CodecBackend`]: crate::CodecBackend
//! [`CodecBackend::Approx`]: crate::CodecBackend::Approx

use std::time::Duration;

use crate::codec::{CodecSession, CompiledCodec, DecodePlan, GradientCodec};
use crate::error::CodingError;

/// When a round stops waiting for an exact decode, and under what
/// residual budget its fallback may answer.
///
/// # Example
///
/// ```
/// use std::time::Duration;
/// use hetgc_coding::EscalationPolicy;
///
/// // Give up waiting after 250 ms, and accept an approximate decode
/// // only while its residual stays below 0.5.
/// let policy = EscalationPolicy::follow_backend()
///     .with_deadline(Duration::from_millis(250))
///     .with_max_residual(0.5);
/// assert_eq!(policy.deadline(), Some(Duration::from_millis(250)));
///
/// // The default waits for every reachable worker and keeps the
/// // codec's own budget.
/// assert_eq!(EscalationPolicy::default().deadline(), None);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EscalationPolicy {
    /// Residual budget for the approximate stage, replacing the codec's
    /// own. `None` keeps the codec's.
    max_residual: Option<f64>,
    /// How long the master waits for an exact decode before escalating:
    /// wall-clock in the threaded runtime, simulated seconds in the
    /// discrete-event simulator. `None` waits for every reachable worker.
    deadline: Option<Duration>,
}

impl EscalationPolicy {
    /// The default policy: no deadline, and the codec's own residual
    /// budget. Only a codec compiled with its approximate stage on
    /// escalates.
    pub fn follow_backend() -> Self {
        EscalationPolicy::default()
    }

    /// Sets the approximate stage's residual budget, replacing the
    /// codec's own. Inert on a codec without the stage.
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

    /// The configured escalation deadline, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }
}

/// A codec with the escalation policy wired on: the codec's own stages
/// serve the exact, group and approximate rungs, and the policy's budget,
/// when set, is the approximate stage's. Implements [`GradientCodec`] by
/// delegation.
#[derive(Debug, Clone)]
pub struct EscalatingCodec {
    codec: CompiledCodec,
    policy: EscalationPolicy,
}

impl EscalatingCodec {
    /// Wires `policy` onto `codec`. A policy budget replaces the budget
    /// of the codec's approximate stage; a codec without the stage stays
    /// without it.
    pub fn new(mut codec: CompiledCodec, policy: EscalationPolicy) -> Self {
        if let (Some(budget), Some(_)) = (policy.max_residual, codec.max_residual()) {
            codec = codec.with_approx(Some(budget));
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

    /// Whether the codec has its approximate stage on.
    pub fn can_escalate(&self) -> bool {
        self.codec.max_residual().is_some()
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

    fn fallback_plan(&self, survivors: &[usize]) -> Option<DecodePlan> {
        self.codec.fallback_plan(survivors)
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

/// Decides one round: resets `session` and
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
    use crate::backend::CodecBackend;
    use crate::group::group_based;
    use crate::heter_aware::heter_aware;
    use crate::strategy::CodingMatrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Five workers at rates 1–4, `k = 7`, `s = 1`: at seed 1 the
    /// survivors `[0, 1, 3]` have the approximate residual √3 ≈ 1.732,
    /// under the stage's default budget 0.75·√7 ≈ 1.984.
    fn code(seed: u64) -> CodingMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        heter_aware(&[1.0, 2.0, 3.0, 4.0, 4.0], 7, 1, &mut rng).unwrap()
    }

    fn wired(backend: CodecBackend, seed: u64, policy: EscalationPolicy) -> EscalatingCodec {
        EscalatingCodec::new(backend.compile(code(seed), Some(&[])).unwrap(), policy)
    }

    #[test]
    fn default_policy_follows_backend() {
        let exact = wired(CodecBackend::Exact, 1, EscalationPolicy::follow_backend());
        assert!(!exact.can_escalate());
        assert!(exact.fallback_plan(&[0, 1, 3]).is_none());

        // Two stragglers exceed s = 1: the approximate stage rescues the
        // round, under its own budget.
        let approx = wired(CodecBackend::Approx, 1, EscalationPolicy::follow_backend());
        assert!(approx.can_escalate());
        let plan = approx.fallback_plan(&[0, 1, 3]).expect("stage must fire");
        assert!(plan.residual() > 0.0);
        assert_eq!(approx.base().max_residual(), Some(0.75 * 7f64.sqrt()));
        // An exact-decodable set decodes with residual 0 on either codec.
        let plan = approx.decode_plan(&[0, 1, 3, 4]).unwrap();
        assert_eq!(plan.residual(), 0.0);
    }

    #[test]
    fn exact_and_group_ceilings_never_escalate() {
        // A policy budget is inert on a codec without the stage: it does
        // not switch the stage on.
        let policy = EscalationPolicy::follow_backend().with_max_residual(100.0);
        for backend in [CodecBackend::Exact, CodecBackend::Group, CodecBackend::Auto] {
            let esc = wired(backend, 2, policy.clone());
            assert!(!esc.can_escalate());
            assert_eq!(esc.base().max_residual(), None);
            assert!(esc.fallback_plan(&[0, 1, 3]).is_none());
            assert!(esc.decode_plan(&[0, 1, 3]).is_err());
        }
        let g = group_based(&[1.0; 6], 6, 1, &mut StdRng::seed_from_u64(5)).unwrap();
        let esc = EscalatingCodec::new(g.compile().unwrap(), policy);
        assert!(!esc.base().groups().is_empty());
        assert!(!esc.can_escalate());
        assert!(esc.fallback_plan(&[0, 1]).is_none());
    }

    #[test]
    fn policy_budget_replaces_the_stage_budget() {
        let default = 0.75 * 7f64.sqrt();
        let ridge = wired(CodecBackend::Approx, 1, EscalationPolicy::follow_backend())
            .base()
            .approximate_plan(&[0, 1])
            .unwrap();
        assert!(ridge.residual() > default, "{}", ridge.residual());
        // Tighter than the default declines the probe set; looser than
        // the default accepts a set the default declines.
        for budget in [0.866, ridge.residual(), default, 17.3] {
            let policy = EscalationPolicy::follow_backend().with_max_residual(budget);
            let esc = wired(CodecBackend::Approx, 1, policy);
            assert_eq!(esc.base().max_residual(), Some(budget));
            let plan = esc.fallback_plan(&[0, 1, 3]);
            assert_eq!(plan.is_some(), budget >= 3f64.sqrt(), "budget {budget}");
            assert_eq!(
                esc.fallback_plan(&[0, 1]).is_some(),
                budget >= ridge.residual()
            );
        }
    }

    /// Every survivor set the exact decode declines: `decode_plan` and
    /// `fallback_plan` accept the same ones with the same plan, whatever
    /// the backend and the budget.
    #[test]
    fn decode_plan_and_fallback_plan_agree_under_a_policy_budget() {
        let backends = [
            CodecBackend::Auto,
            CodecBackend::Exact,
            CodecBackend::Group,
            CodecBackend::Approx,
        ];
        let budgets = [None, Some(0.866), Some(1.8), Some(17.3)];
        let exact = wired(CodecBackend::Exact, 1, EscalationPolicy::follow_backend());
        for backend in backends {
            for budget in budgets {
                let mut policy = EscalationPolicy::follow_backend();
                if let Some(budget) = budget {
                    policy = policy.with_max_residual(budget);
                }
                let esc = wired(backend, 1, policy);
                for mask in 1u32..(1 << 5) {
                    let survivors: Vec<usize> = (0..5).filter(|w| mask >> w & 1 == 1).collect();
                    if exact.decode_plan(&survivors).is_ok() {
                        continue;
                    }
                    assert_eq!(
                        esc.decode_plan(&survivors).ok(),
                        esc.fallback_plan(&survivors),
                        "{backend} {budget:?} {survivors:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn delegation_is_transparent() {
        let base = CompiledCodec::new(code(6)).with_approx(Some(3.0));
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
        assert_eq!(esc.fallback_plan(&[0, 1]), base.fallback_plan(&[0, 1]));
    }

    #[test]
    fn policy_accessors_and_builders() {
        let p = EscalationPolicy::follow_backend()
            .with_max_residual(1.5)
            .with_deadline(Duration::from_millis(250));
        assert_eq!(p.max_residual, Some(1.5));
        assert_eq!(p.deadline(), Some(Duration::from_millis(250)));
        assert_eq!(
            EscalationPolicy::default(),
            EscalationPolicy::follow_backend()
        );
    }

    #[test]
    fn set_deadline_ignores_bad_values_and_exact_ceilings() {
        let policy = EscalationPolicy::follow_backend();
        let mut exact = wired(CodecBackend::Exact, 7, policy.clone());
        exact.set_deadline(0.125);
        assert_eq!(exact.policy().deadline(), None, "the ladder cannot act");

        let mut esc = wired(CodecBackend::Approx, 7, policy);
        esc.set_deadline(0.125);
        assert_eq!(esc.policy().deadline(), Some(Duration::from_millis(125)));
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::MAX] {
            esc.set_deadline(bad);
            assert_eq!(esc.policy().deadline(), Some(Duration::from_millis(125)));
        }
    }

    #[test]
    fn collect_round_decides_exact_escalated_or_stalled() {
        let approx = wired(CodecBackend::Approx, 8, EscalationPolicy::follow_backend());
        let exact = wired(CodecBackend::Exact, 8, EscalationPolicy::follow_backend());
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
            panic!("the Approx backend escalates");
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
