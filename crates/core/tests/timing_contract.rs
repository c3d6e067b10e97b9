//! Golden values for the two timing harnesses, `experiment::run_timing`
//! (Figs. 2/3/5) and `adaptive::run_with_drift` (the static-vs-adaptive
//! comparison). They were recorded on the parent of the commit that made
//! `SimBspEngine` the only simulated BSP engine, while each harness still
//! ran a private engine of its own, and are asserted through that one
//! engine's round: every value is a bit pattern, so the merge moved no
//! random draw and no arithmetic.
//!
//! They depend on the vendored `rand` stream and on the simulator and codec
//! arithmetic only. To re-record after a deliberate change to either, run
//! `cargo test -p hetgc --test timing_contract -- --nocapture` and paste the
//! printed tables.

use hetgc::adaptive::{compare_static_vs_adaptive, AdaptiveConfig};
use hetgc::experiment::run_timing;
use hetgc::{
    ClusterSpec, DelayDistribution, NetworkModel, RateDrift, SchemeBuilder, SchemeKind,
    StragglerModel, TrainOutcome,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `(avg_iteration_time, total_time, failed_iterations, resource usage)`,
/// floats as `to_bits`.
type MetricBits = (Option<u64>, u64, usize, Option<u64>);

fn metric_bits(m: &TrainOutcome) -> MetricBits {
    (
        m.mean_round_seconds().map(f64::to_bits),
        m.total_seconds().to_bits(),
        m.failed_rounds,
        m.resource_usage().ratio().map(f64::to_bits),
    )
}

/// Prints the recorded table in paste-able form before comparing, so a
/// deliberate re-record is one run.
fn assert_table<T: std::fmt::Debug + PartialEq>(name: &str, actual: &[T], expected: &[T]) {
    if actual != expected {
        println!("const {name}: [_; {}] = [", actual.len());
        for row in actual {
            println!("    {row:?},");
        }
        println!("];");
    }
    assert_eq!(actual, expected, "{name} moved");
}

#[test]
fn run_timing_is_pinned_on_cluster_a() {
    let cluster = ClusterSpec::cluster_a();
    let rates = cluster.throughputs();
    let schemes = SchemeBuilder::new(&cluster, 1)
        .build_paper_schemes(&mut StdRng::seed_from_u64(2019))
        .unwrap();
    let models = [
        StragglerModel::FixedDelay {
            workers: vec![2],
            delay: 3.0,
        },
        StragglerModel::Failures { workers: vec![2] },
        StragglerModel::RandomChoice {
            count: 1,
            delay: DelayDistribution::Uniform {
                low: 0.5,
                high: 3.0,
            },
        },
    ];
    let mut actual = Vec::new();
    for (i, model) in models.iter().enumerate() {
        for (j, scheme) in schemes.iter().enumerate() {
            assert_eq!(scheme.kind, SchemeKind::PAPER[j]);
            let mut rng = StdRng::seed_from_u64(100 + (4 * i + j) as u64);
            let metrics = run_timing(
                scheme,
                &rates,
                48,
                model,
                NetworkModel::lan(),
                4096.0 * 64.0,
                0.05,
                25,
                &mut rng,
            )
            .unwrap();
            actual.push(metric_bits(&metrics));
        }
    }
    assert_table("TIMING", &actual, &TIMING);
}

/// `(metrics, rebuilds, rebuild_failures)` of one policy's run.
type DriftBits = (MetricBits, usize, usize);

fn drift_bits(out: &TrainOutcome) -> DriftBits {
    let report = out.adaptation.clone().unwrap_or_default();
    (metric_bits(out), report.recodes(), report.recode_failures)
}

#[test]
fn run_with_drift_is_pinned_on_the_ablation_scenarios() {
    let drifty =
        ClusterSpec::from_vcpu_rows("drift", &[(1, 2), (1, 3), (1, 4), (1, 5)], 10.0).unwrap();
    let skew = ClusterSpec::from_vcpu_rows("skew", &[(3, 2), (1, 4)], 10.0).unwrap();
    let step = |at, factors: &[f64]| RateDrift::StepChange {
        at,
        factors: factors.to_vec(),
    };
    let heter = AdaptiveConfig {
        iterations: 60,
        ..Default::default()
    };
    let group = AdaptiveConfig {
        kind: SchemeKind::GroupBased,
        ..heter.clone()
    };
    // The four scenarios of `hetgc-bench --bin ablation`, then the same
    // over-budget drift on a group-based code (the `Auto` backend's other
    // arm), then a drift whose every rebuild fails.
    let scenarios = [
        (&drifty, RateDrift::None, &heter),
        (&drifty, step(15, &[1.0, 1.0, 1.0, 0.3]), &heter),
        (&drifty, step(15, &[1.0, 1.0, 0.3, 0.3]), &heter),
        (
            &drifty,
            RateDrift::Wave {
                period: 12.0,
                amplitude: 0.4,
            },
            &heter,
        ),
        (&drifty, step(15, &[1.0, 1.0, 0.3, 0.3]), &group),
        (&skew, step(2, &[0.05, 0.05, 0.05, 1.0]), &heter),
    ];
    let mut actual = Vec::new();
    for (i, (cluster, drift, cfg)) in scenarios.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(200 + i as u64);
        let (fixed, adaptive) = compare_static_vs_adaptive(cluster, drift, cfg, &mut rng).unwrap();
        actual.push(drift_bits(&fixed));
        actual.push(drift_bits(&adaptive));
    }
    assert_table("DRIFT", &actual, &DRIFT);
}

/// Model-major (`FixedDelay`, `Failures`, `RandomChoice`), then
/// [`SchemeKind::PAPER`] order. The `None` row is naive under a failure.
#[rustfmt::skip]
const TIMING: [MetricBits; 12] = [
    (Some(4616739682880429085), 4637596767644746734, 0, Some(4601064454668812808)),
    (Some(4618431108787806355), 4639473618408317299, 0, Some(4603120625480891992)),
    (Some(4611934453393472090), 4632621871361772332, 0, Some(4606776170186126455)),
    (Some(4611842881604505838), 4632478790441512564, 0, Some(4606827597291839319)),
    (None, 9223372036854775808, 1, None),
    (Some(4618606755783073039), 4639610842623369396, 0, Some(4603043650097266274)),
    (Some(4611918556337652956), 4632597032212054935, 0, Some(4606800064908542493)),
    (Some(4611800949470869032), 4632413271482705055, 0, Some(4606902444708199845)),
    (Some(4615628830811753706), 4636299176321038871, 0, Some(4601788487480440122)),
    (Some(4618336377003194193), 4639399609201589047, 0, Some(4602807880306304475)),
    (Some(4611888440166132796), 4632549975694054685, 0, Some(4606813963889800717)),
    (Some(4611848040973059309), 4632486851954877362, 0, Some(4606882439798876276)),
];

/// Scenario-major, static run then adaptive run.
#[rustfmt::skip]
const DRIFT: [DriftBits; 12] = [
    ((Some(4604421042460545646), 4631052276292564295, 0, Some(4607042459317123492)), 0, 0),
    ((Some(4604424809413892581), 4631055807811327047, 0, Some(4607049893027396313)), 0, 0),
    ((Some(4604508949462810572), 4631134689107187663, 0, Some(4607003792732503867)), 0, 0),
    ((Some(4605877994364576284), 4632418168702593018, 0, Some(4607014799701145294)), 2, 0),
    ((Some(4611026275531285718), 4637526157273093769, 0, Some(4604334743900082274)), 0, 0),
    ((Some(4608170309598375706), 4634848689210990632, 0, Some(4606425379873412982)), 2, 0),
    ((Some(4605397000567686877), 4631967237018009199, 0, Some(4605786203054428502)), 0, 0),
    ((Some(4605953642719400877), 4632489089035241074, 0, Some(4605266206791033916)), 11, 0),
    ((Some(4611024450279189662), 4637524446099253716, 0, Some(4604341338810979550)), 0, 0),
    ((Some(4608139673810710981), 4634819968160054953, 0, Some(4606479998936375682)), 2, 0),
    ((Some(4625913019879410806), 4652608380006303663, 0, Some(4604990013834671998)), 0, 0),
    ((Some(4625917685706601364), 4652612754219294811, 0, Some(4604989430727075925)), 0, 11),
];
