//! The simulator and the wall-clock master decide a round with one
//! function, `collect_round`, on two clocks. Each case here feeds the same
//! arrival order and the same deadline crossing to
//! `simulate_bsp_iteration_in` (simulated seconds) and to a `Master` over
//! a scripted in-memory transport (wall-clock), both holding one codec, and
//! asserts the same ending and the same plan.
//!
//! The master's replies are unit vectors `e_w`, so the gradient it decodes,
//! `Σ_w a_w e_w`, is the dense decode vector itself, bit for bit.

use std::sync::Arc;
use std::time::Duration;

use hetgc::{
    group_based, heter_aware, simulate_bsp_iteration_in, synthetic, BspIterationConfig,
    CodecBackend, DecodePlan, EscalatingCodec, EscalationPolicy, GradientCodec, LinearRegression,
    NetworkModel, RuntimeConfig, RuntimeError, StragglerEvent,
};
use hetgc_runtime::channel::{unbounded, Receiver};
use hetgc_runtime::{Master, Reply, RowShard, Transport};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The wall-clock deadline; the simulator reads the same number as
/// simulated seconds.
const DEADLINE: Duration = Duration::from_millis(20);

/// Rounds go nowhere; the test queues the replies by hand.
struct Scripted {
    replies: Receiver<Reply<Vec<f64>>>,
    rows: usize,
}

impl Transport for Scripted {
    type Payload = Vec<f64>;

    fn send_round(&mut self, _seq: u64, _params: &[f64]) -> Result<(), RuntimeError> {
        Ok(())
    }

    fn replies(&self) -> &Receiver<Reply<Vec<f64>>> {
        &self.replies
    }

    fn rerow(&mut self, shards: Vec<RowShard>) -> Result<(), RuntimeError> {
        self.rows = shards.len();
        Ok(())
    }

    fn live_rows(&self) -> Vec<usize> {
        (0..self.rows).collect()
    }

    fn round_traffic(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// How a round ended, with its plan, as either engine reports it.
#[derive(Debug, PartialEq)]
enum Ending {
    Exact(DecodePlan),
    Escalated(DecodePlan),
    Stalled,
}

/// When each worker's result arrives, in fractions of the deadline
/// (`None`: it never does).
type Arrivals<'a> = &'a [Option<f64>];

fn simulated(codec: &EscalatingCodec, arrive: Arrivals<'_>) -> Ending {
    let m = codec.workers();
    let rates = vec![1.0; m];
    let deadline = DEADLINE.as_secs_f64();
    let cfg = BspIterationConfig::new(&rates)
        .work_per_partition(1e-12)
        .network(NetworkModel::instantaneous())
        .fallback_deadline(deadline);
    let events: Vec<StragglerEvent> = arrive
        .iter()
        .map(|at| {
            at.map_or(StragglerEvent::Failed, |f| {
                StragglerEvent::Delayed(f * deadline)
            })
        })
        .collect();
    let mut session = codec.session();
    let mut rng = StdRng::seed_from_u64(0);
    let out = simulate_bsp_iteration_in(codec, &cfg, &events, &mut rng, &mut session).unwrap();
    match out.completion {
        None => Ending::Stalled,
        Some(_) if out.plan.residual() > 0.0 => Ending::Escalated(out.plan),
        Some(_) => Ending::Exact(out.plan),
    }
}

/// The master's view of the same round: the replies that land before
/// the deadline, in time order. Later ones would land after it decided.
/// With every worker dead, they all hang up instead.
fn mastered(codec: &EscalatingCodec, arrive: Arrivals<'_>) -> Ending {
    let m = codec.workers();
    let config = RuntimeConfig::nominal(m);
    let model = Arc::new(LinearRegression::new(m - 1));
    let data = Arc::new(synthetic::linear_regression(
        4 * m,
        m - 1,
        0.0,
        &mut StdRng::seed_from_u64(1),
    ));
    let (queue, replies) = unbounded();
    let transport = Scripted { replies, rows: m };
    let mut master = Master::new(codec.clone(), model, data, &config, transport);
    master.dispatch(&vec![0.0; m]).unwrap();
    let mut in_time: Vec<(f64, usize)> = arrive
        .iter()
        .enumerate()
        .filter_map(|(w, at)| at.filter(|&f| f <= 1.0).map(|f| (f, w)))
        .collect();
    in_time.sort_by(|a, b| a.0.total_cmp(&b.0));
    for (_, worker) in in_time {
        let mut coded = vec![0.0; m];
        coded[worker] = 1.0;
        queue
            .send(Reply {
                worker,
                seq: 1,
                coded,
                compute_seconds: 0.001,
                arrived: None,
                wire_error: 0.0,
                payload_bytes: 0,
            })
            .unwrap();
    }
    if arrive.iter().all(Option::is_none) {
        drop(queue);
    }
    let r = master.collect().unwrap();
    match r.gradient {
        None => Ending::Stalled,
        Some(gradient) => {
            let plan = DecodePlan::from_dense_with_residual(&gradient, r.residual);
            if r.residual > 0.0 {
                Ending::Escalated(plan)
            } else {
                Ending::Exact(plan)
            }
        }
    }
}

/// Both engines' ending for one script; they must agree.
fn decide(codec: &EscalatingCodec, arrive: Arrivals<'_>) -> Ending {
    let sim = simulated(codec, arrive);
    assert_eq!(sim, mastered(codec, arrive), "arrivals {arrive:?}");
    sim
}

/// A five-worker `s = 1` code compiled `backend`, under `policy` with the
/// shared deadline.
fn five(backend: CodecBackend, policy: EscalationPolicy) -> EscalatingCodec {
    let code = heter_aware(&[1.0; 5], 5, 1, &mut StdRng::seed_from_u64(7)).unwrap();
    let base = backend.compile(code, None).unwrap();
    EscalatingCodec::new(base, policy.with_deadline(DEADLINE))
}

#[test]
fn exact_before_the_deadline() {
    let codec = five(CodecBackend::Exact, EscalationPolicy::follow_backend());
    let arrive = [Some(0.4), Some(0.1), None, Some(0.3), Some(0.2)];
    let Ending::Exact(plan) = decide(&codec, &arrive) else {
        panic!("m − s arrivals decode");
    };
    assert_eq!(plan.workers(), [0, 1, 3, 4]);
}

#[test]
fn deadline_crossed_with_approx_accepting() {
    let approx = EscalationPolicy::follow_backend().with_max_residual(100.0);
    let codec = five(CodecBackend::Approx, approx);
    // Three arrive in time; the fourth, which would decode exactly, is late.
    let arrive = [Some(0.1), Some(0.5), Some(3.0), Some(0.2), None];
    let Ending::Escalated(plan) = decide(&codec, &arrive) else {
        panic!("the Approx backend escalates at the deadline");
    };
    assert!(plan.workers().iter().all(|w| [0, 1, 3].contains(w)));
    assert_eq!(plan, codec.fallback_plan(&[0, 1, 3]).unwrap());
}

#[test]
fn approx_over_budget_stalls_though_a_later_arrival_would_decode() {
    let tight = EscalationPolicy::follow_backend().with_max_residual(1e-3);
    let codec = five(CodecBackend::Approx, tight);
    let arrive = [Some(0.1), Some(0.2), Some(1.5), Some(2.0), Some(2.5)];
    assert_eq!(decide(&codec, &arrive), Ending::Stalled);
    // An exact backend stalls the same round the same way.
    let exact = five(CodecBackend::Exact, EscalationPolicy::follow_backend());
    assert_eq!(decide(&exact, &arrive), Ending::Stalled);
}

#[test]
fn all_workers_dead() {
    let approx = EscalationPolicy::follow_backend().with_max_residual(100.0);
    let codec = five(CodecBackend::Approx, approx);
    assert_eq!(decide(&codec, &[None; 5]), Ending::Stalled);
}

#[test]
fn group_fast_path_decode() {
    // Homogeneous 6-worker cluster, s = 1: groups {0,4,5} and {1,2,3}. The
    // second is intact after three arrivals, fewer than m − s = 5.
    let g = group_based(&[1.0; 6], 6, 1, &mut StdRng::seed_from_u64(50)).unwrap();
    let policy = EscalationPolicy::follow_backend().with_deadline(DEADLINE);
    let codec = EscalatingCodec::new(g.compile().unwrap(), policy);
    let arrive = [Some(2.0), Some(0.3), Some(0.1), Some(0.2), Some(0.5), None];
    let Ending::Exact(plan) = decide(&codec, &arrive) else {
        panic!("the intact group decodes");
    };
    assert_eq!(plan.workers(), [1, 2, 3]);
}
