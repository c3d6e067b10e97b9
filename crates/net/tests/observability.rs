//! End-to-end observability: a real socket-cluster training run with the
//! full `hetgc-obs` stack attached — per-job round counters and
//! per-worker arrival histograms from the driver's [`RunObserver`],
//! shared-plan-cache and per-link gauges published through a scrape
//! refresh hook, and the flight recorder's Chrome trace — all read back
//! over live HTTP from a `MetricsServer`, including a scrape taken
//! *mid-run* (between two halves of the training, with the cluster and
//! worker processes still up).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use hetgc::{
    heter_aware, naive, synthetic, LinearRegression, RuntimeConfig, Sgd, ThreadedEngine,
    TrainDriver,
};
use hetgc_coding::SharedPlanCache;
use hetgc_net::{
    export_link_metrics, LinkStats, ModelSpec, SocketEngine, SocketListener, WorkerFleet,
};
use hetgc_net::{NetError, SocketCluster};
use hetgc_obs::{
    expo, CodecMetrics, MetricValue, MetricsRegistry, MetricsServer, Phase, Recorder, RunObserver,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const DIM: usize = 5;
const SAMPLES: usize = 96;
const WORKERS: usize = 4;
const JOB: &str = "obs-e2e";
const HALF_ROUNDS: usize = 5;

/// One blocking HTTP GET against the exposition endpoint; returns the
/// response body.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect metrics endpoint");
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").as_bytes())
        .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    assert!(head.starts_with("HTTP/1.0 200"), "non-200 response: {head}");
    body.to_string()
}

fn counter(snap: &hetgc_obs::MetricsSnapshot, name: &str, labels: &[(&str, &str)]) -> u64 {
    match snap.get(name, labels) {
        Some(MetricValue::Counter(v)) => *v,
        other => panic!("{name}{labels:?}: expected a counter, got {other:?}"),
    }
}

fn gauge(snap: &hetgc_obs::MetricsSnapshot, name: &str, labels: &[(&str, &str)]) -> f64 {
    match snap.get(name, labels) {
        Some(MetricValue::Gauge(v)) => *v,
        other => panic!("{name}{labels:?}: expected a gauge, got {other:?}"),
    }
}

fn histogram_count(snap: &hetgc_obs::MetricsSnapshot, name: &str, labels: &[(&str, &str)]) -> u64 {
    match snap.get(name, labels) {
        Some(MetricValue::Histogram(h)) => h.count,
        other => panic!("{name}{labels:?}: expected a histogram, got {other:?}"),
    }
}

/// Arrivals are stamped where the master absorbs them — inside the
/// collect loop — on every transport.
fn assert_arrivals_inside_collect(recorder: &Recorder) {
    let events = recorder.events();
    let collects: Vec<(u64, u64)> = events
        .iter()
        .filter(|e| e.phase == Phase::Collect)
        .map(|e| (e.start_ns, e.start_ns + e.dur_ns))
        .collect();
    let arrivals: Vec<u64> = events
        .iter()
        .filter(|e| e.phase == Phase::Arrival)
        .map(|e| e.start_ns)
        .collect();
    assert!(!arrivals.is_empty(), "the run recorded no arrival instants");
    for at in arrivals {
        assert!(
            collects
                .iter()
                .any(|&(start, end)| start <= at && at <= end),
            "arrival instant at {at} ns lies outside every collect span {collects:?}"
        );
    }
}

fn start_cluster(
    model: &Arc<LinearRegression>,
    data: &Arc<hetgc::Dataset>,
    config: &RuntimeConfig,
) -> Result<(SocketCluster<LinearRegression>, WorkerFleet), NetError> {
    let listener = SocketListener::bind()?;
    let addr = listener.addr().to_string();
    let fleet = WorkerFleet::spawn(env!("CARGO_BIN_EXE_hetgc-worker"), &addr, WORKERS)?;
    let cluster = SocketCluster::start(
        listener,
        naive(WORKERS).expect("naive code"),
        Arc::clone(model),
        ModelSpec::Linear { dim: DIM as u32 },
        Arc::clone(data),
        config,
    )?;
    Ok((cluster, fleet))
}

#[test]
fn socket_training_exposes_live_metrics_and_trace() {
    let mut rng = StdRng::seed_from_u64(11);
    let model = Arc::new(LinearRegression::new(DIM));
    let data = Arc::new(synthetic::linear_regression(SAMPLES, DIM, 0.05, &mut rng));
    let cache = Arc::new(SharedPlanCache::new());
    let config = RuntimeConfig {
        shared_plans: Some(Arc::clone(&cache)),
        ..RuntimeConfig::nominal(WORKERS)
    };
    let (mut cluster, _fleet) = start_cluster(&model, &data, &config).expect("cluster up");

    // The full observability stack: registry + flight recorder, codec
    // metric handles on the decode path, and a refresh hook that
    // publishes the pull-model sources (shared cache, per-link traffic)
    // at scrape time.
    let registry = MetricsRegistry::new();
    let recorder = Recorder::new(4096);
    cluster.attach_codec_metrics(
        CodecMetrics::new(&registry, "socket").with_recorder(recorder.clone()),
    );
    let links: Vec<LinkStats> = cluster.link_stats();
    let mut engine = SocketEngine::new(cluster);
    assert_eq!(links.len(), WORKERS);
    let refresh = {
        let registry = registry.clone();
        let cache = Arc::clone(&cache);
        let links = links.clone();
        move || {
            cache.export_metrics(&registry);
            export_link_metrics(&registry, &links);
        }
    };
    let server = MetricsServer::start_with(
        "127.0.0.1:0",
        registry.clone(),
        Some(recorder.clone()),
        Some(Box::new(refresh)),
    )
    .expect("metrics endpoint up");
    let observer = RunObserver::new(&registry, JOB, WORKERS).with_recorder(recorder.clone());

    // First half of the training run.
    let mut rng = StdRng::seed_from_u64(3);
    TrainDriver::new(model.as_ref(), data.as_ref(), Sgd::new(0.1))
        .with_observer(observer.clone())
        .run(&mut engine, HALF_ROUNDS, &mut rng)
        .expect("first half");

    // Mid-run scrape: cluster and worker processes still live, a second
    // half still to come. The counters must reflect exactly the rounds
    // completed so far.
    let mid = expo::parse(&http_get(server.addr(), "/metrics")).expect("mid-run scrape parses");
    let job = [("job", JOB)];
    assert_eq!(
        counter(&mid, "hetgc_rounds_total", &job),
        HALF_ROUNDS as u64
    );
    assert_eq!(
        histogram_count(&mid, "hetgc_round_seconds", &job),
        HALF_ROUNDS as u64
    );
    for w in 0..WORKERS {
        let worker = w.to_string();
        // naive(m) needs every worker each round, so each arrival
        // histogram saw every completed round.
        assert_eq!(
            histogram_count(
                &mid,
                "hetgc_arrival_seconds",
                &[("job", JOB), ("worker", &worker)],
            ),
            HALF_ROUNDS as u64,
            "worker {w} arrival histogram not live"
        );
    }
    assert!(counter(&mid, "hetgc_bytes_sent_total", &job) > 0);
    assert!(counter(&mid, "hetgc_bytes_received_total", &job) > 0);

    // Second half over the same cluster, same observer handles.
    TrainDriver::new(model.as_ref(), data.as_ref(), Sgd::new(0.1))
        .with_observer(observer)
        .run(&mut engine, HALF_ROUNDS, &mut rng)
        .expect("second half");

    let total_rounds = 2 * HALF_ROUNDS as u64;
    let body = http_get(server.addr(), "/metrics");
    let snap = expo::parse(&body).expect("final scrape parses");
    assert_eq!(counter(&snap, "hetgc_rounds_total", &job), total_rounds);
    assert_eq!(counter(&snap, "hetgc_failed_rounds_total", &job), 0);

    // Shared-cache gauges published by the refresh hook must agree with
    // what the SharedPlanCache itself reports (nothing is running, so
    // the two reads see the same state). With one scheme and one
    // survivor pattern, at most one dense solve happened.
    assert_eq!(
        gauge(&snap, "hetgc_shared_cache_hits", &[]),
        cache.hits() as f64
    );
    assert_eq!(
        gauge(&snap, "hetgc_shared_cache_misses", &[]),
        cache.misses() as f64
    );
    assert_eq!(
        gauge(&snap, "hetgc_shared_cache_solves", &[]),
        cache.solves() as f64
    );
    assert_eq!(cache.hits() + cache.misses(), cache.lookups());
    assert!(cache.solves() <= 1, "one pattern, at most one solve");

    // Per-link byte/frame counters: every physical link moved real
    // traffic both ways, and the gauges equal the live handles.
    for (i, link) in links.iter().enumerate() {
        let label = i.to_string();
        let sent = gauge(&snap, "hetgc_link_sent_bytes", &[("link", &label)]);
        let received = gauge(&snap, "hetgc_link_received_bytes", &[("link", &label)]);
        assert!(sent > 0.0, "link {i} sent nothing");
        assert!(received > 0.0, "link {i} received nothing");
        assert_eq!(sent, link.sent_bytes() as f64);
        assert_eq!(received, link.received_bytes() as f64);
        assert!(
            link.frames_sent() >= total_rounds,
            "link {i} sent {} frames over {total_rounds} rounds",
            link.frames_sent()
        );
        assert!(link.frames_received() >= total_rounds);
    }
    // Aggregate == sum of links, on the cluster's own accessors.
    let sent_sum: u64 = links.iter().map(LinkStats::sent_bytes).sum();
    assert_eq!(engine.cluster().bytes_sent(), sent_sum);

    // The flight recorder saw the whole cross-layer round anatomy:
    // dispatch/collect/decode from the cluster, per-worker arrival
    // instants, and the driver's step span.
    let trace = http_get(server.addr(), "/trace");
    let distinct: Vec<&str> = Phase::all()
        .iter()
        .map(|p| p.name())
        .filter(|name| trace.contains(&format!("\"name\":\"{name}\"")))
        .collect();
    assert!(
        distinct.len() >= 5,
        "expected ≥5 distinct phases in the trace, saw {distinct:?}"
    );
    for phase in ["dispatch", "collect", "decode", "arrival", "step"] {
        assert!(
            distinct.contains(&phase),
            "phase {phase} missing from trace (saw {distinct:?})"
        );
    }
    assert_arrivals_inside_collect(&recorder);

    server.stop();
}

#[test]
fn threaded_arrival_instants_lie_inside_collect_spans() {
    let mut rng = StdRng::seed_from_u64(7);
    let model = Arc::new(LinearRegression::new(DIM));
    let data = Arc::new(synthetic::linear_regression(SAMPLES, DIM, 0.05, &mut rng));
    let code = heter_aware(&[1.0; WORKERS], WORKERS, 1, &mut rng).expect("scheme");
    let recorder = Recorder::new(4096);
    let observer = RunObserver::new(&MetricsRegistry::new(), "threaded", WORKERS)
        .with_recorder(recorder.clone());
    let mut engine = ThreadedEngine::new(
        code,
        Arc::clone(&model),
        Arc::clone(&data),
        &RuntimeConfig::nominal(WORKERS),
    )
    .expect("threaded engine");
    TrainDriver::new(model.as_ref(), data.as_ref(), Sgd::new(0.1))
        .with_observer(observer)
        .run(&mut engine, 8, &mut rng)
        .expect("train");
    assert_arrivals_inside_collect(&recorder);
}

#[test]
fn worker_process_serves_its_own_metrics_endpoint() {
    // A worker given --metrics-addr exposes its own endpoint; after a
    // few rounds it reports the rounds it computed.
    let mut rng = StdRng::seed_from_u64(5);
    let model = Arc::new(LinearRegression::new(DIM));
    let data = Arc::new(synthetic::linear_regression(SAMPLES, DIM, 0.05, &mut rng));
    let config = RuntimeConfig::nominal(WORKERS);

    let listener = SocketListener::bind().expect("bind master");
    let master_addr = listener.addr().to_string();
    // Reserve a port for the worker's endpoint, then release it.
    let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
    let worker_metrics_addr = probe.local_addr().expect("probe addr").to_string();
    drop(probe);

    let mut fleet = WorkerFleet::spawn(
        env!("CARGO_BIN_EXE_hetgc-worker"),
        &master_addr,
        WORKERS - 1,
    )
    .expect("plain workers");
    fleet
        .spawn_with_args(&[&master_addr, "--metrics-addr", &worker_metrics_addr])
        .expect("observed worker");

    let cluster = SocketCluster::start(
        listener,
        naive(WORKERS).expect("naive code"),
        Arc::clone(&model),
        ModelSpec::Linear { dim: DIM as u32 },
        Arc::clone(&data),
        &config,
    )
    .expect("cluster up");
    let mut engine = SocketEngine::new(cluster);
    let mut rng = StdRng::seed_from_u64(3);
    TrainDriver::new(model.as_ref(), data.as_ref(), Sgd::new(0.1))
        .run(&mut engine, 4, &mut rng)
        .expect("train");

    // The worker's endpoint may take a moment to come up; poll briefly.
    let addr: std::net::SocketAddr = worker_metrics_addr.parse().expect("addr parses");
    let mut body = String::new();
    for _ in 0..100 {
        if let Ok(mut stream) = TcpStream::connect(addr) {
            if stream
                .write_all(b"GET /metrics HTTP/1.0\r\nHost: t\r\n\r\n")
                .is_ok()
            {
                let mut response = String::new();
                if stream.read_to_string(&mut response).is_ok() {
                    if let Some((_, b)) = response.split_once("\r\n\r\n") {
                        body = b.to_string();
                        if body.contains("hetgc_worker_rounds_total") {
                            break;
                        }
                    }
                }
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let snap = expo::parse(&body).expect("worker scrape parses");
    // A family's counter value, or histogram sample count, over workers.
    let total = |name: &str| -> u64 {
        (0..WORKERS as u32)
            .map(|w| match snap.get(name, &[("worker", &w.to_string())]) {
                Some(MetricValue::Counter(v)) => *v,
                Some(MetricValue::Histogram(h)) => h.count,
                _ => 0,
            })
            .sum()
    };
    let rounds = total("hetgc_worker_rounds_total");
    assert_eq!(rounds, 4, "observed worker served all four rounds");
    // The last reply's sample lands after its `write`, which the master
    // may already have acted on: three are certain.
    let replies = total("hetgc_worker_reply_seconds");
    assert!((3..=4).contains(&replies), "reply histogram saw {replies}");
}
