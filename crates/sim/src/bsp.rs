//! One BSP (bulk-synchronous parallel) iteration under a coding strategy.
//!
//! The timeline of a round, per worker `w`:
//!
//! ```text
//! t=0          round starts (the parameter push is not modelled)
//! compute      load_w / rate_w × jitter   (the paper's t_w = ‖b_w‖₀ / c_w)
//! + delay      injected straggler delay (∞ for failures)
//! + network    latency + payload/bandwidth
//! = arrival    result lands at the master
//! ```
//!
//! The master feeds arrivals in time order to
//! [`hetgc_coding::collect_round`], the same decision the wall-clock
//! master runs: the round finishes at the earliest decodable prefix —
//! which is what makes the group-based scheme profitable, as an intact
//! group decodes long before `m−s` generic rows do — or at the deadline.
//!
//! Everything is parameterized over [`hetgc_coding::GradientCodec`]: pass
//! a `CompiledCodec` (and reuse one session across iterations via
//! [`simulate_bsp_iteration_in`]) on hot paths, or a raw `CodingMatrix`
//! for one-off analysis.

use hetgc_cluster::StragglerEvent;
use hetgc_coding::{collect_round, CodecSession, DecodePlan, GradientCodec, RoundEnd};
use rand::Rng;

use crate::error::SimError;
use crate::network::NetworkModel;

/// Static configuration of a BSP iteration (everything except the
/// per-iteration straggler events, which change every round).
#[derive(Debug, Clone)]
pub struct BspIterationConfig<'a> {
    rates: &'a [f64],
    work_per_partition: f64,
    network: NetworkModel,
    payload_bytes: f64,
    compute_jitter: f64,
    overlap_chunks: usize,
    fallback_deadline: Option<f64>,
}

impl<'a> BspIterationConfig<'a> {
    /// A configuration over true worker rates (work-units per second).
    ///
    /// Defaults: one work-unit per partition, LAN network, 4 KB payload,
    /// no jitter.
    pub fn new(rates: &'a [f64]) -> Self {
        BspIterationConfig {
            rates,
            work_per_partition: 1.0,
            network: NetworkModel::lan(),
            payload_bytes: 4096.0,
            compute_jitter: 0.0,
            overlap_chunks: 1,
            fallback_deadline: None,
        }
    }

    /// Sets the work units one partition costs (e.g. samples per
    /// partition). Worker `w`'s compute time becomes
    /// `load_w × work_per_partition / rate_w`.
    pub fn work_per_partition(mut self, units: f64) -> Self {
        self.work_per_partition = units;
        self
    }

    /// Sets the network model for result upload.
    pub fn network(mut self, network: NetworkModel) -> Self {
        self.network = network;
        self
    }

    /// Sets the coded-gradient payload size in bytes.
    pub fn payload_bytes(mut self, bytes: f64) -> Self {
        self.payload_bytes = bytes;
        self
    }

    /// Sets the relative σ of multiplicative compute-time jitter
    /// (`time × max(0.05, 1 + σ·z)`), the paper's "tiny fluctuation in
    /// runtime" that breaks exact throughput estimates.
    pub fn compute_jitter(mut self, sigma: f64) -> Self {
        self.compute_jitter = sigma;
        self
    }

    /// Enables layer-wise communication/computation overlap à la Poseidon
    /// (the paper's reference \[42\], cited as the fix for its ~50 %
    /// resource-usage ceiling): the gradient is streamed in `chunks`
    /// pieces as they are produced, so only the *last* chunk's transfer
    /// time remains on the critical path —
    /// `arrival = compute_end + latency + payload/(chunks·bandwidth)`.
    ///
    /// `chunks = 1` (the default) is the unoverlapped model used by the
    /// paper's own evaluation.
    ///
    /// # Panics
    ///
    /// Panics if `chunks == 0`.
    pub fn overlap_chunks(mut self, chunks: usize) -> Self {
        assert!(chunks > 0, "need at least one chunk");
        self.overlap_chunks = chunks;
        self
    }

    /// Sets the round deadline (simulated seconds), the simulator's side
    /// of `EscalationPolicy::with_deadline`: a round not decoded by this
    /// time asks the codec's [`GradientCodec::fallback_plan`] once over
    /// the workers that arrived, completes *at the deadline* when it
    /// accepts, and stalls when it declines. The default (`None`) waits
    /// for every reachable worker.
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is not positive and finite.
    pub fn fallback_deadline(mut self, deadline: f64) -> Self {
        assert!(
            deadline.is_finite() && deadline > 0.0,
            "fallback deadline must be positive and finite"
        );
        self.fallback_deadline = Some(deadline);
        self
    }
}

/// One worker's timing inside an iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// The worker.
    pub worker: usize,
    /// When its local computation finished (before network), seconds.
    pub compute_end: f64,
    /// When its result reached the master, seconds. `+∞` for failures.
    pub arrive: f64,
}

/// Outcome of one simulated BSP iteration.
#[derive(Debug, Clone)]
pub struct BspIteration {
    /// Time at which the master decoded, or `None` if the round can never
    /// complete (e.g. naive scheme with a failed worker).
    pub completion: Option<f64>,
    /// All arrivals, sorted by arrival time (failures last, at `+∞`).
    pub arrivals: Vec<Arrival>,
    /// The round's decode plan: its residual is `0.0` for exact decodes
    /// and positive when the fallback rescued the round. Empty when
    /// `completion` is `None`.
    pub plan: DecodePlan,
    /// How many arrivals the master took in before it decided: the first
    /// `absorbed` of `arrivals`. On an exact decode the last of them
    /// completed the set.
    pub absorbed: usize,
    /// Per-worker *useful compute* seconds, capped at the completion time
    /// (workers are cancelled when the master moves on) — the numerator of
    /// the paper's resource-usage metric (Fig. 5).
    pub busy: Vec<f64>,
}

impl BspIteration {
    /// Resource usage of this iteration:
    /// `Σ_w busy_w / (m × completion)` (Fig. 5's metric). Returns `None`
    /// for incomplete rounds.
    pub fn resource_usage(&self) -> Option<f64> {
        let t = self.completion?;
        if t <= 0.0 {
            return None;
        }
        Some(self.busy.iter().sum::<f64>() / (self.busy.len() as f64 * t))
    }
}

/// Simulates one BSP iteration of `codec` under the given straggler
/// events, spawning a fresh decode session.
///
/// When simulating many iterations of the same codec, hold one session
/// and call [`simulate_bsp_iteration_in`] instead: the session's
/// elimination buffers are then reused round over round.
///
/// # Errors
///
/// [`SimError::InvalidConfig`] when `rates`/`events` lengths disagree with
/// the code's worker count, a rate or `work_per_partition` is not
/// positive, `payload_bytes` or `compute_jitter` is negative or not
/// finite, or a [`StragglerEvent::Delayed`] delay is NaN
/// or negative (`+∞` is valid: the worker never arrives).
pub fn simulate_bsp_iteration<C: GradientCodec + ?Sized, R: Rng + ?Sized>(
    codec: &C,
    cfg: &BspIterationConfig<'_>,
    events: &[StragglerEvent],
    rng: &mut R,
) -> Result<BspIteration, SimError> {
    let mut session = codec.session();
    simulate_bsp_iteration_in(codec, cfg, events, rng, &mut session)
}

/// [`simulate_bsp_iteration`] decoding through a caller-owned session
/// (reset here before use), the zero-allocation steady-state path.
///
/// # Errors
///
/// [`SimError::InvalidConfig`] under the same conditions as
/// [`simulate_bsp_iteration`].
pub fn simulate_bsp_iteration_in<C: GradientCodec + ?Sized, R: Rng + ?Sized>(
    codec: &C,
    cfg: &BspIterationConfig<'_>,
    events: &[StragglerEvent],
    rng: &mut R,
    session: &mut CodecSession,
) -> Result<BspIteration, SimError> {
    let m = codec.workers();
    if cfg.rates.len() != m {
        return Err(SimError::InvalidConfig {
            reason: format!("rates len {} != m={m}", cfg.rates.len()),
        });
    }
    if events.len() != m {
        return Err(SimError::InvalidConfig {
            reason: format!("events len {} != m={m}", events.len()),
        });
    }
    if cfg.rates.iter().any(|&r| !(r.is_finite() && r > 0.0)) {
        return Err(SimError::InvalidConfig {
            reason: "rates must be positive".into(),
        });
    }
    let work_ok = cfg.work_per_partition > 0.0; // false for NaN too
    if !work_ok {
        return Err(SimError::InvalidConfig {
            reason: "work_per_partition must be positive".into(),
        });
    }
    let knobs = [cfg.payload_bytes, cfg.compute_jitter];
    if !knobs.iter().all(|v| v.is_finite() && *v >= 0.0) {
        return Err(SimError::InvalidConfig {
            reason: "payload and jitter must be finite, ≥ 0".into(),
        });
    }
    // `Delayed(+∞)` is a worker that never arrives; a NaN or negative delay
    // would stall the round silently or complete it before it started.
    let bad_delay =
        |e: &StragglerEvent| matches!(*e, StragglerEvent::Delayed(d) if d.is_nan() || d < 0.0);
    if events.iter().any(bad_delay) {
        return Err(SimError::InvalidConfig {
            reason: "straggler delays must be ≥ 0 (+∞ never arrives)".into(),
        });
    }

    let comm = cfg
        .network
        .transfer_time(cfg.payload_bytes / cfg.overlap_chunks as f64);
    let mut arrivals: Vec<Arrival> = (0..m)
        .map(|w| {
            let base = codec.load_of(w) as f64 * cfg.work_per_partition / cfg.rates[w];
            let jitter = if cfg.compute_jitter > 0.0 {
                (1.0 + cfg.compute_jitter * standard_normal(rng)).max(0.05)
            } else {
                1.0
            };
            let delay = events[w].extra_delay();
            let compute_end = base * jitter + delay;
            let arrive = if compute_end.is_finite() {
                compute_end + comm
            } else {
                f64::INFINITY
            };
            Arrival {
                worker: w,
                compute_end,
                arrive,
            }
        })
        .collect();
    arrivals.sort_by(|a, b| a.arrive.partial_cmp(&b.arrive).expect("no NaN times"));

    // The simulator's clock: the reachable results in time order, ending
    // at the deadline.
    let in_time = arrivals.iter().take_while(|a| {
        a.arrive.is_finite() && cfg.fallback_deadline.is_none_or(|d| a.arrive <= d)
    });
    let end = collect_round(codec, session, in_time.map(|a| a.worker))?;
    // An exact decode completes at the arrival that completed the set. An
    // escalation waits out the deadline (a master cannot know the missing
    // workers are dead), or, without one, every reachable worker.
    let absorbed = session.received();
    let last = absorbed.checked_sub(1).map(|i| arrivals[i].arrive);
    let (completion, plan) = match end {
        RoundEnd::Exact => (last, session.decoded_plan().expect("decoded").clone()),
        RoundEnd::Escalated(plan) => (cfg.fallback_deadline.or(last), plan),
        RoundEnd::Stalled => (None, DecodePlan::from_dense(&[])),
    };
    let busy = match completion {
        Some(t) => arrivals_busy(&arrivals, t, m),
        None => vec![0.0; m],
    };
    Ok(BspIteration {
        completion,
        arrivals,
        plan,
        absorbed,
        busy,
    })
}

/// Useful compute time per worker, capped at iteration completion.
fn arrivals_busy(arrivals: &[Arrival], completion: f64, m: usize) -> Vec<f64> {
    let mut busy = vec![0.0; m];
    for arr in arrivals {
        busy[arr.worker] = arr.compute_end.min(completion);
    }
    busy
}

fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgc_coding::{cyclic, heter_aware, naive, CodingMatrix, CompiledCodec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const RATES: [f64; 5] = [1.0, 2.0, 3.0, 4.0, 4.0];

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn heter_code(seed: u64) -> CodingMatrix {
        heter_aware(&RATES, 7, 1, &mut rng(seed)).unwrap()
    }

    fn no_events(m: usize) -> Vec<StragglerEvent> {
        vec![StragglerEvent::Normal; m]
    }

    #[test]
    fn noiseless_heter_aware_completes_at_optimum() {
        let code = heter_code(1);
        let cfg = BspIterationConfig::new(&RATES).network(NetworkModel::instantaneous());
        let out = simulate_bsp_iteration(&code, &cfg, &no_events(5), &mut rng(2)).unwrap();
        // All workers finish at exactly (s+1)k/Σc = 1.0; master decodes at
        // the (m−s)-th arrival = 1.0.
        let t = out.completion.unwrap();
        assert!((t - 1.0).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn naive_waits_for_slowest() {
        let code = naive(5).unwrap();
        let cfg = BspIterationConfig::new(&RATES).network(NetworkModel::instantaneous());
        let out = simulate_bsp_iteration(&code, &cfg, &no_events(5), &mut rng(3)).unwrap();
        // Naive: every worker computes 1 of 5 partitions; slowest (rate 1)
        // takes 1.0. (k = m = 5, load 1 each.)
        let t = out.completion.unwrap();
        assert!((t - 1.0).abs() < 1e-9, "t = {t}");
        assert_eq!(out.plan.len(), 5);
    }

    #[test]
    fn naive_with_failure_never_completes() {
        let code = naive(3).unwrap();
        let rates = [1.0, 1.0, 1.0];
        let cfg = BspIterationConfig::new(&rates);
        let mut events = no_events(3);
        events[1] = StragglerEvent::Failed;
        let out = simulate_bsp_iteration(&code, &cfg, &events, &mut rng(4)).unwrap();
        assert!(out.completion.is_none());
        assert!(out.plan.is_empty());
        assert!(out.resource_usage().is_none());
    }

    #[test]
    fn coded_scheme_survives_failure() {
        let code = heter_code(5);
        let cfg = BspIterationConfig::new(&RATES).network(NetworkModel::instantaneous());
        let mut events = no_events(5);
        events[4] = StragglerEvent::Failed; // fastest worker dies
        let out = simulate_bsp_iteration(&code, &cfg, &events, &mut rng(6)).unwrap();
        let t = out.completion.unwrap();
        assert!(t.is_finite());
        assert!(!out.plan.workers().contains(&4));
    }

    #[test]
    fn delay_on_unneeded_worker_is_free() {
        // Heter-aware decodes from any m−s = 4 workers; delaying one worker
        // shifts completion to the 4th-fastest arrival only.
        let code = heter_code(7);
        let cfg = BspIterationConfig::new(&RATES).network(NetworkModel::instantaneous());
        let mut events = no_events(5);
        events[0] = StragglerEvent::Delayed(100.0);
        let out = simulate_bsp_iteration(&code, &cfg, &events, &mut rng(8)).unwrap();
        let t = out.completion.unwrap();
        // The other four all finish at 1.0.
        assert!((t - 1.0).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn cyclic_suffers_from_heterogeneity() {
        // Cyclic assigns s+1 = 2 partitions (of k = m = 5) to everyone; the
        // slow worker (rate 1, but partitions are sized the same dataset
        // fraction) bounds decode when the adversary isn't even present:
        // completion is the (m−s)-th arrival = worker 1's 2/2 = 1.0 vs
        // heter-aware's balanced… with these *absolute* numbers cyclic's
        // 4th arrival is max over the four fastest of 2/c_w = 1.0. The key
        // comparison (same dataset) appears in the core crate's experiments
        // where work-per-partition is normalized by k; here we just check
        // ordering logic.
        let code = cyclic(5, 1, &mut rng(9)).unwrap();
        let cfg = BspIterationConfig::new(&RATES).network(NetworkModel::instantaneous());
        let out = simulate_bsp_iteration(&code, &cfg, &no_events(5), &mut rng(10)).unwrap();
        let t = out.completion.unwrap();
        assert!((t - 1.0).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn arrivals_sorted_and_complete() {
        let code = heter_code(11);
        let cfg = BspIterationConfig::new(&RATES);
        let out = simulate_bsp_iteration(&code, &cfg, &no_events(5), &mut rng(12)).unwrap();
        assert_eq!(out.arrivals.len(), 5);
        for pair in out.arrivals.windows(2) {
            assert!(pair[0].arrive <= pair[1].arrive);
        }
    }

    #[test]
    fn compiled_codec_with_reused_session_matches_fresh_runs() {
        let code = heter_code(33);
        let codec = CompiledCodec::new(code.clone());
        let cfg = BspIterationConfig::new(&RATES).network(NetworkModel::instantaneous());
        let mut session = codec.session();
        for seed in 40..44 {
            let mut events = no_events(5);
            events[(seed % 5) as usize] = StragglerEvent::Delayed(2.0);
            let fresh = simulate_bsp_iteration(&code, &cfg, &events, &mut rng(seed)).unwrap();
            let reused =
                simulate_bsp_iteration_in(&codec, &cfg, &events, &mut rng(seed), &mut session)
                    .unwrap();
            assert_eq!(fresh.completion, reused.completion);
            assert_eq!(fresh.plan, reused.plan);
            assert_eq!(fresh.absorbed, reused.absorbed);
        }
    }

    #[test]
    fn network_adds_latency() {
        let code = heter_code(13);
        let slow_net = NetworkModel::new(0.5, 1e9);
        let cfg = BspIterationConfig::new(&RATES)
            .network(slow_net)
            .payload_bytes(0.0);
        let out = simulate_bsp_iteration(&code, &cfg, &no_events(5), &mut rng(14)).unwrap();
        let t = out.completion.unwrap();
        assert!((t - 1.5).abs() < 1e-9, "compute 1.0 + latency 0.5, got {t}");
    }

    #[test]
    fn busy_capped_at_completion() {
        let code = heter_code(17);
        let cfg = BspIterationConfig::new(&RATES).network(NetworkModel::instantaneous());
        let mut events = no_events(5);
        events[0] = StragglerEvent::Delayed(10.0); // finishes long after
        let out = simulate_bsp_iteration(&code, &cfg, &events, &mut rng(18)).unwrap();
        let t = out.completion.unwrap();
        for (w, &b) in out.busy.iter().enumerate() {
            assert!(b <= t + 1e-9, "worker {w} busy {b} > completion {t}");
        }
        let usage = out.resource_usage().unwrap();
        assert!(usage > 0.0 && usage <= 1.0, "usage {usage}");
    }

    #[test]
    fn perfect_balance_has_high_usage() {
        let code = heter_code(19);
        let cfg = BspIterationConfig::new(&RATES).network(NetworkModel::instantaneous());
        let out = simulate_bsp_iteration(&code, &cfg, &no_events(5), &mut rng(20)).unwrap();
        // All workers busy until completion ⇒ usage ≈ 1.
        assert!(out.resource_usage().unwrap() > 0.999);
    }

    #[test]
    fn jitter_varies_completion() {
        let code = heter_code(21);
        let cfg = BspIterationConfig::new(&RATES)
            .network(NetworkModel::instantaneous())
            .compute_jitter(0.1);
        let mut r = rng(22);
        let t1 = simulate_bsp_iteration(&code, &cfg, &no_events(5), &mut r)
            .unwrap()
            .completion
            .unwrap();
        let t2 = simulate_bsp_iteration(&code, &cfg, &no_events(5), &mut r)
            .unwrap()
            .completion
            .unwrap();
        assert_ne!(t1, t2);
    }

    #[test]
    fn config_validation() {
        let code = heter_code(23);
        let bad_rates = [1.0; 3];
        let cfg = BspIterationConfig::new(&bad_rates);
        assert!(matches!(
            simulate_bsp_iteration(&code, &cfg, &no_events(5), &mut rng(24)),
            Err(SimError::InvalidConfig { .. })
        ));
        let cfg = BspIterationConfig::new(&RATES);
        assert!(simulate_bsp_iteration(&code, &cfg, &no_events(3), &mut rng(25)).is_err());
        let neg = [1.0, -1.0, 1.0, 1.0, 1.0];
        let cfg = BspIterationConfig::new(&neg);
        assert!(simulate_bsp_iteration(&code, &cfg, &no_events(5), &mut rng(26)).is_err());
        // Unchecked, each would panic on sorting, complete at a negative
        // time, or stall the round silently.
        let base = || BspIterationConfig::new(&RATES);
        let instantaneous = || base().network(NetworkModel::instantaneous());
        for cfg in [
            base().payload_bytes(f64::NAN),
            instantaneous().payload_bytes(f64::INFINITY),
            base().payload_bytes(-1e9),
            base().compute_jitter(f64::INFINITY),
        ] {
            assert!(matches!(
                simulate_bsp_iteration(&code, &cfg, &no_events(5), &mut rng(27)),
                Err(SimError::InvalidConfig { .. })
            ));
        }
        // A negative delay on four workers would complete the round at
        // −4 s; NaN or −∞ on two would stall it. `+∞` is a worker that
        // never arrives, which `s = 1` tolerates.
        let delayed = |workers: &[usize], d: f64| {
            let mut events = no_events(5);
            for &w in workers {
                events[w] = StragglerEvent::Delayed(d);
            }
            simulate_bsp_iteration(&code, &instantaneous(), &events, &mut rng(28))
        };
        for (workers, d) in [
            (&[0, 1, 2, 3][..], -5.0),
            (&[1, 3][..], f64::NAN),
            (&[1, 3][..], f64::NEG_INFINITY),
        ] {
            assert!(matches!(
                delayed(workers, d),
                Err(SimError::InvalidConfig { .. })
            ));
        }
        let never = delayed(&[1], f64::INFINITY).unwrap();
        assert!(never.completion.is_some_and(|t| t.is_finite() && t > 0.0));
    }

    #[test]
    fn overlap_hides_communication() {
        let code = heter_code(29);
        let slow_net = NetworkModel::new(0.0, 1000.0); // 1 KB/s
                                                       // 4000-byte payload → 4 s exposed without overlap.
        let plain = BspIterationConfig::new(&RATES)
            .network(slow_net)
            .payload_bytes(4000.0);
        let t_plain = simulate_bsp_iteration(&code, &plain, &no_events(5), &mut rng(30))
            .unwrap()
            .completion
            .unwrap();
        let overlapped = BspIterationConfig::new(&RATES)
            .network(slow_net)
            .payload_bytes(4000.0)
            .overlap_chunks(8);
        let t_over = simulate_bsp_iteration(&code, &overlapped, &no_events(5), &mut rng(31))
            .unwrap()
            .completion
            .unwrap();
        // Compute is 1 s; exposed comm shrinks from 4 s to 0.5 s.
        assert!((t_plain - 5.0).abs() < 1e-9, "{t_plain}");
        assert!((t_over - 1.5).abs() < 1e-9, "{t_over}");
    }

    #[test]
    #[should_panic(expected = "at least one chunk")]
    fn zero_chunks_rejected() {
        let _ = BspIterationConfig::new(&RATES).overlap_chunks(0);
    }

    #[test]
    fn group_codec_decodes_from_intact_group_before_m_minus_s() {
        use hetgc_coding::group_based;
        // Homogeneous 6-worker cluster, s = 1 → two 3-worker groups
        // {0,4,5} and {1,2,3}. Make group {1,2,3} fast and everyone else
        // slow: the master decodes the moment that group is intact — 3
        // survivors, fewer than m − s = 5.
        let g = group_based(&[1.0; 6], 6, 1, &mut rng(50)).unwrap();
        assert!(g
            .groups()
            .iter()
            .any(|gr| gr.workers() == [1usize, 2, 3].as_slice()));
        let codec = g.compile().unwrap();
        let rates = [1.0, 10.0, 10.0, 10.0, 1.0, 1.0];
        let cfg = BspIterationConfig::new(&rates).network(NetworkModel::instantaneous());
        let out = simulate_bsp_iteration(&codec, &cfg, &no_events(6), &mut rng(51)).unwrap();
        let t = out.completion.unwrap();
        // Fast group finishes at 2/10 = 0.2; the slow workers need 2.0.
        assert!((t - 0.2).abs() < 1e-9, "t = {t}");
        assert_eq!(out.plan.workers(), [1, 2, 3], "indicator of {{1,2,3}}");
        assert_eq!(out.absorbed, 3, "fewer than m − s = 5 arrivals");
        assert_eq!(out.plan.residual(), 0.0);
    }

    #[test]
    fn approx_codec_completes_beyond_straggler_budget() {
        // Two failures exceed s = 1: the exact backend never completes,
        // the approximate backend decodes (with a reported residual) at
        // the last surviving arrival.
        let code = heter_code(52);
        let cfg = BspIterationConfig::new(&RATES).network(NetworkModel::instantaneous());
        let mut events = no_events(5);
        events[2] = StragglerEvent::Failed;
        events[4] = StragglerEvent::Failed;

        let exact = simulate_bsp_iteration(&code, &cfg, &events, &mut rng(53)).unwrap();
        assert!(exact.completion.is_none(), "exact must reject >s failures");

        let codec = CompiledCodec::new(code.clone()).with_approx(Some(3.0));
        let out = simulate_bsp_iteration(&codec, &cfg, &events, &mut rng(53)).unwrap();
        let t = out.completion.unwrap();
        assert!(t.is_finite());
        assert!(out.plan.residual() > 0.0);
        assert!(out.plan.workers().iter().all(|w| ![2, 4].contains(w)));
        // Completion waits for every survivor (the master must exhaust
        // exact decoding first).
        let last_survivor = out
            .arrivals
            .iter()
            .rev()
            .find(|a| a.arrive.is_finite())
            .unwrap();
        assert_eq!(t, last_survivor.arrive);
    }

    #[test]
    fn approx_fallback_respects_residual_budget() {
        let code = heter_code(54);
        let cfg = BspIterationConfig::new(&RATES).network(NetworkModel::instantaneous());
        // Kill everyone but the slowest worker: the surviving row cannot
        // approximate the full gradient within a tight budget.
        let mut events = no_events(5);
        for e in events.iter_mut().skip(1) {
            *e = StragglerEvent::Failed;
        }
        let codec = CompiledCodec::new(code).with_approx(Some(0.1));
        let out = simulate_bsp_iteration(&codec, &cfg, &events, &mut rng(55)).unwrap();
        assert!(out.completion.is_none(), "budget must reject the round");
        assert!(out.plan.is_empty());
    }

    #[test]
    fn fallback_deadline_escalates_or_stalls_instead_of_waiting() {
        // Worker 0 is delayed by 100 s. The exact decode needs m − s = 4
        // arrivals... kill another worker so exact decoding is impossible
        // and the master would otherwise wait for the delayed worker
        // (the last reachable one) before falling back.
        let code = heter_code(60);
        let mut events = no_events(5);
        events[0] = StragglerEvent::Delayed(100.0);
        events[2] = StragglerEvent::Failed;

        let codec = CompiledCodec::new(code).with_approx(Some(3.0));
        let waits = BspIterationConfig::new(&RATES).network(NetworkModel::instantaneous());
        let out = simulate_bsp_iteration(&codec, &waits, &events, &mut rng(61)).unwrap();
        // Without a deadline the approximate fallback fires only after the
        // delayed straggler reports.
        assert!(out.completion.unwrap() > 100.0);

        let impatient = BspIterationConfig::new(&RATES)
            .network(NetworkModel::instantaneous())
            .fallback_deadline(5.0);
        let out = simulate_bsp_iteration(&codec, &impatient, &events, &mut rng(61)).unwrap();
        assert_eq!(out.completion, Some(5.0), "escalates at the deadline");
        assert!(out.plan.residual() > 0.0);
        assert!(!out.plan.workers().contains(&0), "straggler not waited for");
        // Busy time is capped at the (deadline) completion.
        assert!(out.busy.iter().all(|&b| b <= 5.0 + 1e-9));

        // An exact codec has no fallback: the round stalls at the
        // deadline, as on the wall-clock master, although the delayed
        // straggler would complete an exact decode later (worker 2 is
        // dead, making worker 0 necessary for it).
        let exact = simulate_bsp_iteration(
            &CompiledCodec::new(heter_code(60)),
            &impatient,
            &events,
            &mut rng(61),
        )
        .unwrap();
        assert_eq!(exact.completion, None);
    }

    #[test]
    fn fallback_deadline_sets_completion_when_stragglers_are_failures() {
        // Two FAILURES (not delays) with s = 1: survivors all arrive by
        // t = 1, but a master with a 5 s deadline cannot know the missing
        // workers are dead — it waits out the deadline, then escalates.
        // Completion must be the deadline, matching the threaded runtime.
        let code = heter_code(70);
        let mut events = no_events(5);
        events[2] = StragglerEvent::Failed;
        events[4] = StragglerEvent::Failed;
        let codec = CompiledCodec::new(code).with_approx(Some(3.0));

        let cfg = BspIterationConfig::new(&RATES)
            .network(NetworkModel::instantaneous())
            .fallback_deadline(5.0);
        let out = simulate_bsp_iteration(&codec, &cfg, &events, &mut rng(71)).unwrap();
        assert_eq!(
            out.completion,
            Some(5.0),
            "escalation fires at the deadline"
        );
        assert!(out.plan.residual() > 0.0);

        // Without a deadline the round completes at the last finite
        // arrival (the master waited for every reachable worker).
        let patient = BspIterationConfig::new(&RATES).network(NetworkModel::instantaneous());
        let out = simulate_bsp_iteration(&codec, &patient, &events, &mut rng(71)).unwrap();
        let last = out
            .arrivals
            .iter()
            .rev()
            .find(|a| a.arrive.is_finite())
            .unwrap()
            .arrive;
        assert_eq!(out.completion, Some(last));
    }

    #[test]
    fn absorbed_arrivals_end_at_the_completing_one() {
        // Worker 0 is delayed: the four others decode, the last of them
        // completes the set, and the straggler is never taken in.
        let code = heter_code(62);
        let cfg = BspIterationConfig::new(&RATES).network(NetworkModel::instantaneous());
        let mut events = no_events(5);
        events[0] = StragglerEvent::Delayed(3.0);
        let out = simulate_bsp_iteration(&code, &cfg, &events, &mut rng(63)).unwrap();
        assert_eq!(out.absorbed, 4);
        assert_eq!(out.completion, Some(out.arrivals[3].arrive));
        assert_eq!(out.arrivals[4].worker, 0);
        assert!(!out.plan.workers().contains(&0));
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn non_positive_deadline_rejected() {
        let _ = BspIterationConfig::new(&RATES).fallback_deadline(0.0);
    }

    #[test]
    fn work_per_partition_scales_time() {
        let code = heter_code(27);
        let cfg = BspIterationConfig::new(&RATES)
            .network(NetworkModel::instantaneous())
            .work_per_partition(3.0);
        let out = simulate_bsp_iteration(&code, &cfg, &no_events(5), &mut rng(28)).unwrap();
        assert!((out.completion.unwrap() - 3.0).abs() < 1e-9);
    }
}
