//! Fault-injection suite for the serving stack: every test drives real
//! TCP connections through failures — seeded chaos proxies, scripted
//! torn frames, duplicated resumes, abandoned leases, slow subscribers
//! — and asserts the served output is *byte-identical* to
//! `QueryGraph::run_batched` over the same input (or that the declared
//! degradation is exactly the one configured).
//!
//! The matrix tests (`chaos_seed_*`) are the headline: three publishers
//! behind independent seeded [`ChaosProxy`]s suffer deterministic
//! delays, frame-boundary resets, and mid-frame cuts while a clean
//! subscriber watches. Exactly-once resume/replay means the chaos must
//! be *invisible* in the output: same tuples, same order, same floats,
//! same lineage, no duplicates, no holes.

use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use uncertain_streams::core::ops::aggregate::{
    AggFunc, AggSpec, Strategy, WindowKind, WindowedAggregate,
};
use uncertain_streams::core::ops::project::{Derivation, Project};
use uncertain_streams::core::ops::select::{Predicate, Select};
use uncertain_streams::core::ops::Passthrough;
use uncertain_streams::core::query::{NodeId, QueryGraph};
use uncertain_streams::core::schema::{DataType, Field, Schema};
use uncertain_streams::core::{GroupKey, Tuple, Updf, Value};
use uncertain_streams::prob::dist::Dist;
use uncertain_streams::server::protocol::{self, Request, Response};
use uncertain_streams::server::{
    ChaosProxy, Client, ClientConfig, ErrorCode, Fault, ServedQuery, Server, ServerConfig,
    ServerError, Severity, SubscriberPolicy,
};
use uncertain_streams::telemetry::{MetricSnapshot, MetricValue, TraceDetail};

const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Sum a counter family across label sets (optionally filtered to one
/// label pair) from a metrics snapshot.
fn counter_total(metrics: &[MetricSnapshot], family: &str, label: Option<(&str, &str)>) -> u64 {
    metrics
        .iter()
        .filter(|m| m.family == family)
        .filter(|m| match label {
            Some((k, v)) => m.labels.iter().any(|(lk, lv)| lk == k && lv == v),
            None => true,
        })
        .map(|m| match &m.value {
            MetricValue::Counter(v) => *v,
            other => panic!("{family} must be a counter, got {other:?}"),
        })
        .sum()
}

fn schema() -> Arc<Schema> {
    Schema::builder()
        .field("g", DataType::Int)
        .field("tag", DataType::Int)
        .field("x", DataType::Uncertain)
        .build()
}

/// Unique-timestamp input (ts = index): the merged order is fully
/// determined, so byte-equality with the batched reference is exact.
fn inputs(n: usize) -> Vec<Tuple> {
    let s = schema();
    (0..n)
        .map(|i| {
            Tuple::new(
                s.clone(),
                vec![
                    Value::Int((i % 4) as i64),
                    Value::Int((i % 17) as i64),
                    Value::from(Updf::Parametric(Dist::gaussian(
                        (i % 10) as f64,
                        1.0 + (i % 3) as f64 * 0.25,
                    ))),
                ],
                i as u64,
            )
        })
        .collect()
}

/// Q1-style pipeline: select(P(x > 2)) → project → tumbling SUM → sink.
fn q1_graph() -> (QueryGraph, NodeId) {
    let select =
        Select::new(Predicate::UncertainAbove("x".into(), 2.0), 0.05).without_conditioning();
    let project = Project::new(vec![
        Derivation::Certain {
            out: Field::new("weight", DataType::Float),
            f: Box::new(|t: &Tuple| Value::Float(t.int("tag").unwrap() as f64 * 2.5)),
        },
        Derivation::Linear {
            input: "x".into(),
            a: 0.5,
            b: 1.0,
            out: "y".into(),
        },
    ]);
    let agg = WindowedAggregate::new(
        WindowKind::Tumbling(100),
        |t: &Tuple| GroupKey::from_value(t.get("g").unwrap()).unwrap(),
        vec![AggSpec {
            field: "y".into(),
            func: AggFunc::Sum,
            out: "total".into(),
            strategy: Strategy::Clt,
        }],
    );
    let mut g = QueryGraph::new();
    let select = g.add(Box::new(select));
    let project = g.add(Box::new(project));
    let agg = g.add(Box::new(agg));
    let sink = g.add(Box::new(Passthrough::new("sink")));
    g.connect(select, project, 0).unwrap();
    g.connect(project, agg, 0).unwrap();
    g.connect(agg, sink, 0).unwrap();
    g.source("in", select);
    g.sink(sink);
    (g, sink)
}

/// Trivial marker pipeline (source → sink verbatim) for tests that care
/// about delivery mechanics rather than query semantics.
fn passthrough_graph() -> (QueryGraph, NodeId) {
    let mut g = QueryGraph::new();
    let sink = g.add(Box::new(Passthrough::new("sink")));
    g.source("in", sink);
    g.sink(sink);
    (g, sink)
}

fn marker_schema() -> Arc<Schema> {
    Schema::builder().field("m", DataType::Int).build()
}

fn markers(range: std::ops::Range<u64>) -> Vec<Tuple> {
    let s = marker_schema();
    range
        .map(|i| Tuple::new(s.clone(), vec![Value::Int(i as i64)], i))
        .collect()
}

/// Exact tuple fingerprint (timestamp, existence bits, lineage, full
/// `Debug` of every value — lossless for floats).
fn fingerprint(t: &Tuple) -> String {
    format!(
        "ts={} ex={:016x} lin={:?} vals={:?}",
        t.ts,
        t.existence.to_bits(),
        t.lineage.ids(),
        t.values()
    )
}

fn assert_streams_equal(got: &[Tuple], want: &[Tuple]) {
    assert_eq!(got.len(), want.len(), "tuple count mismatch");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(fingerprint(g), fingerprint(w));
    }
}

// --- raw-protocol helpers (for tests that need frame-level control) ---

fn raw_conn(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    s
}

fn raw_hello(stream: &mut TcpStream, publisher: bool) -> (u64, Option<u64>) {
    protocol::write_request(stream, &Request::Hello { publisher }).unwrap();
    match protocol::read_response(stream).unwrap() {
        Response::HelloAck { client_id, token } => (client_id, token),
        other => panic!("expected HelloAck, got {other:?}"),
    }
}

fn raw_expect_ack(stream: &mut TcpStream) -> u32 {
    match protocol::read_response(stream).unwrap() {
        Response::Ack { count } => count,
        other => panic!("expected Ack, got {other:?}"),
    }
}

fn raw_publish(stream: &mut TcpStream, seq: u64, tuples: &[Tuple]) {
    protocol::write_publish(stream, "in", 0, Some(seq), tuples).unwrap();
    assert_eq!(raw_expect_ack(stream) as usize, tuples.len());
}

/// A client config tuned for tests: fast deterministic backoff, plenty
/// of retries (chaos can kill several consecutive connections).
fn chaotic_client_config(seed: u64) -> ClientConfig {
    ClientConfig {
        read_timeout: Some(READ_TIMEOUT),
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(100),
        backoff_seed: Some(seed),
        max_retries: 20,
        ..ClientConfig::default()
    }
}

// --- the seeded chaos matrix -----------------------------------------

/// One manual-heartbeat publisher per proxy, all joined before any
/// publishes: the merge cannot wait for a publisher it has not met, so a
/// late joiner's tuples would land behind windows the others already
/// sealed. (Frame 0, the `Hello`, is never cut by a seeded proxy.)
fn join_all(proxies: &[ChaosProxy], seed: u64) -> Vec<Client> {
    proxies
        .iter()
        .enumerate()
        .map(|(p, proxy)| {
            let config = chaotic_client_config(seed.wrapping_add(p as u64));
            Client::publisher_manual_with(proxy.addr(), config).unwrap()
        })
        .collect()
}

/// Three publishers behind independent seeded chaos proxies; the
/// subscriber connects directly. Whatever the proxies do — delay,
/// reset at a frame boundary, tear a frame in half — the streamed
/// output must be byte-identical to the batched reference, and every
/// scar the server records must be `Transient`.
fn run_seed_matrix(seed: u64) {
    let n = 900;
    let all = inputs(n);
    let (mut ref_graph, sink) = q1_graph();
    let expected = ref_graph
        .run_batched(vec![("in".into(), 0, all.clone())], 512)
        .unwrap()
        .remove(&sink)
        .unwrap();
    assert!(!expected.is_empty(), "reference run must produce windows");

    let handle = Server::serve_with(
        "127.0.0.1:0",
        ServedQuery::new(q1_graph().0),
        ServerConfig {
            // Resumes land within milliseconds; a generous lease keeps
            // this test about replay, not expiry (expiry has its own).
            lease: Duration::from_secs(30),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    let mut subscriber = Client::subscriber(addr).unwrap();
    subscriber.set_read_timeout(Some(READ_TIMEOUT)).unwrap();

    let proxies: Vec<ChaosProxy> = (0..3)
        .map(|p| ChaosProxy::seeded(addr, seed.wrapping_mul(1009).wrapping_add(p)).unwrap())
        .collect();

    let threads: Vec<_> = join_all(&proxies, seed)
        .into_iter()
        .enumerate()
        .map(|(p, mut client)| {
            let slice: Vec<Tuple> = all.iter().skip(p).step_by(3).cloned().collect();
            std::thread::spawn(move || {
                for chunk in slice.chunks(37) {
                    let accepted = client.publish("in", 0, chunk).unwrap();
                    assert_eq!(accepted, chunk.len());
                }
                client.finish().unwrap();
            })
        })
        .collect();

    let collected = subscriber.collect_until_eos().unwrap();
    for t in threads {
        t.join().unwrap();
    }

    assert_eq!(collected.len(), 1, "one sink");
    assert_eq!(collected[0].0, sink.index());
    assert_streams_equal(&collected[0].1, &expected);

    // The always-on telemetry surface, fetched over the wire exactly as
    // an operator would: exactly-once must be visible in the counters,
    // not just in the output bytes.
    let (metrics, text) = subscriber.stats_v2().unwrap();
    assert_eq!(
        counter_total(&metrics, "server_publish_tuples_total", None),
        n as u64,
        "chaos must not duplicate or drop a single applied tuple"
    );
    assert_eq!(
        counter_total(&metrics, "engine_tuples_pushed_total", None),
        n as u64,
        "everything published must have reached the engine by EOS"
    );
    assert!(counter_total(&metrics, "server_eos_total", None) >= 1);
    let lag = metrics
        .iter()
        .find(|m| m.family == "engine_watermark_lag")
        .expect("the watermark-lag sketch is registered");
    match &lag.value {
        MetricValue::Sketch(s) => {
            assert!(s.count > 0, "serving must have sealed watermarks");
            assert!(
                s.p99 > 0.0 && s.max > 0.0,
                "lag quantiles are non-zero over a real event-time feed: {s:?}"
            );
        }
        other => panic!("engine_watermark_lag must be a sketch, got {other:?}"),
    }
    assert!(text.contains("# TYPE engine_watermark_lag summary"));
    assert!(text.contains("server_publish_tuples_total"));
    assert!(text.contains("server_subscriber_queue_depth"));

    for proxy in &proxies {
        proxy.shutdown();
    }
    let registry = handle.registry();
    let journal = handle.journal();
    let errors = handle.shutdown();
    assert!(
        errors.iter().all(|e| e.severity() == Severity::Transient),
        "chaos must leave only transient scars, got {errors:?}"
    );

    // The severity-split error counters reconcile exactly with the scar
    // list the handle drained — every recorded error was counted once.
    let snap = registry.snapshot();
    assert_eq!(
        counter_total(
            &snap,
            "server_errors_total",
            Some(("severity", "transient"))
        ),
        errors.len() as u64,
    );
    assert_eq!(
        counter_total(&snap, "server_errors_total", Some(("severity", "fatal"))),
        0
    );

    // Lease ledger: counters, journal events, and scars agree. Every
    // chaos-forced park was resumed (the publishers all finished), and
    // nothing expired under the generous lease.
    let events = journal.all();
    let parked = events
        .iter()
        .filter(|e| matches!(e.detail, TraceDetail::LeaseParked { .. }))
        .count() as u64;
    let resumed = events
        .iter()
        .filter(|e| matches!(e.detail, TraceDetail::LeaseResumed { .. }))
        .count() as u64;
    assert_eq!(
        counter_total(&snap, "server_lease_parked_total", None),
        parked
    );
    assert_eq!(
        counter_total(&snap, "server_lease_resumed_total", None),
        resumed
    );
    assert_eq!(parked, resumed, "every park must have been resumed");
    assert_eq!(counter_total(&snap, "server_lease_expired_total", None), 0);
    assert!(
        !events
            .iter()
            .any(|e| matches!(e.detail, TraceDetail::LeaseExpired { .. })),
        "no lease expiry under a 30 s lease"
    );
    assert_eq!(
        counter_total(&snap, "server_gap_frames_total", None),
        0,
        "a clean subscriber never sees a gap"
    );
}

// The CI seed matrix: four fixed seeds, each a different deterministic
// storm of delays/resets/torn frames across the three publishers.
#[test]
fn chaos_seed_1() {
    run_seed_matrix(1);
}

#[test]
fn chaos_seed_2() {
    run_seed_matrix(2);
}

#[test]
fn chaos_seed_3() {
    run_seed_matrix(3);
}

#[test]
fn chaos_seed_4() {
    run_seed_matrix(4);
}

/// A seeded chaos storm over a *staged* sharded query: the serving path
/// runs pipelined exchange delivery by default, so the torn frames,
/// resets, and replays all land on the eager path — sealed windows
/// crossing the exchange ahead of the drain barrier while publishers
/// reconnect mid-stream. The output must still be exactly equal to
/// `run_batched` (compared sorted: a staged stream releases per
/// watermark interval), and the eager forward counter must prove the
/// pipelined path actually ran.
#[test]
fn chaos_storm_over_pipelined_staged_serving() {
    let n = 900;
    let all = inputs(n);
    let mk_graph = || {
        let mut g = QueryGraph::new();
        let agg = g.add(Box::new(WindowedAggregate::new(
            WindowKind::Tumbling(100),
            |t: &Tuple| GroupKey::from_value(t.get("g").unwrap()).unwrap(),
            vec![AggSpec {
                field: "x".into(),
                func: AggFunc::Sum,
                out: "total".into(),
                strategy: Strategy::ExactParametric,
            }],
        )));
        let reagg = g.add(Box::new(
            WindowedAggregate::new(
                WindowKind::Tumbling(400),
                |t: &Tuple| GroupKey::from_value(t.get("n_tuples").unwrap()).unwrap(),
                vec![AggSpec {
                    field: "total".into(),
                    func: AggFunc::Sum,
                    out: "grand".into(),
                    strategy: Strategy::ExactParametric,
                }],
            )
            .named("reagg"),
        ));
        let sink = g.add(Box::new(Passthrough::new("sink")));
        g.connect(agg, reagg, 0).unwrap();
        g.connect(reagg, sink, 0).unwrap();
        g.source("in", agg);
        g.sink(sink);
        g
    };
    let sink = NodeId::from_index(2);
    let mut ref_graph = mk_graph();
    let expected = ref_graph
        .run_batched(vec![("in".into(), 0, all.clone())], 512)
        .unwrap()
        .remove(&sink)
        .unwrap();
    assert!(!expected.is_empty(), "staged reference produced windows");

    let handle = Server::serve_with(
        "127.0.0.1:0",
        ServedQuery::sharded(mk_graph, 4),
        ServerConfig {
            lease: Duration::from_secs(30),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();
    let mut subscriber = Client::subscriber(addr).unwrap();
    subscriber.set_read_timeout(Some(READ_TIMEOUT)).unwrap();

    let proxies: Vec<ChaosProxy> = (0..3)
        .map(|p| ChaosProxy::seeded(addr, 0xEA6EF_u64.wrapping_mul(1009).wrapping_add(p)).unwrap())
        .collect();
    let threads: Vec<_> = join_all(&proxies, 0xEA6EF)
        .into_iter()
        .enumerate()
        .map(|(p, mut client)| {
            let slice: Vec<Tuple> = all.iter().skip(p).step_by(3).cloned().collect();
            std::thread::spawn(move || {
                for chunk in slice.chunks(37) {
                    let accepted = client.publish("in", 0, chunk).unwrap();
                    assert_eq!(accepted, chunk.len());
                }
                client.finish().unwrap();
            })
        })
        .collect();

    let collected = subscriber.collect_until_eos().unwrap();
    for t in threads {
        t.join().unwrap();
    }

    assert_eq!(collected.len(), 1, "one sink");
    assert_eq!(collected[0].0, sink.index());
    let mut got: Vec<String> = collected[0].1.iter().map(fingerprint).collect();
    let mut want: Vec<String> = expected.iter().map(fingerprint).collect();
    got.sort();
    want.sort();
    assert_eq!(got, want, "chaos over the eager path must stay exact");

    // The wire-served counters prove pipelining actually engaged: the
    // exchange stage forwarded intervals ahead of its drain barrier.
    let (metrics, _) = subscriber.stats_v2().unwrap();
    assert!(
        counter_total(
            &metrics,
            "engine_exchange_eager_forwards_total",
            Some(("stage", "1"))
        ) > 0,
        "eager delivery must have run during the storm"
    );
    assert!(
        counter_total(
            &metrics,
            "engine_exchange_forwarded_tuples_total",
            Some(("stage", "1"))
        ) > 0,
        "window rows crossed the exchange"
    );

    for proxy in &proxies {
        proxy.shutdown();
    }
    let errors = handle.shutdown();
    assert!(
        errors.iter().all(|e| e.severity() == Severity::Transient),
        "chaos must leave only transient scars, got {errors:?}"
    );
}

/// Randomized variant for soak runs: `cargo test -- --ignored` picks a
/// fresh seed each time (printed for reproduction via the fixed-seed
/// path above).
#[test]
#[ignore = "randomized chaos soak; run explicitly with -- --ignored"]
fn chaos_random_seed_soak() {
    let seed = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0xC0FFEE);
    eprintln!("chaos soak seed: {seed} (rerun via run_seed_matrix({seed}))");
    run_seed_matrix(seed);
}

// --- scripted faults --------------------------------------------------

#[test]
fn torn_publish_frame_is_replayed_exactly_once() {
    // Connection 0 is cut in the middle of its second publish frame
    // (frame 0 = Hello, 1 = first publish, 2 = torn): the server sees a
    // half-written frame, the client never sees the ack. The resumed
    // connection must replay that exact batch — once.
    let (graph, sink) = passthrough_graph();
    let all = markers(0..50);
    let handle = Server::serve("127.0.0.1:0", ServedQuery::new(graph)).unwrap();
    let mut subscriber = Client::subscriber(handle.addr()).unwrap();
    subscriber.set_read_timeout(Some(READ_TIMEOUT)).unwrap();

    let proxy = ChaosProxy::scripted(
        handle.addr(),
        vec![vec![Fault::CutMidFrame { frame: 2 }], vec![]],
    )
    .unwrap();
    let mut publisher =
        Client::publisher_manual_with(proxy.addr(), chaotic_client_config(7)).unwrap();
    for chunk in all.chunks(10) {
        assert_eq!(publisher.publish("in", 0, chunk).unwrap(), chunk.len());
    }
    publisher.finish().unwrap();

    let collected = subscriber.collect_until_eos().unwrap();
    let (mut ref_graph, _) = passthrough_graph();
    let expected = ref_graph
        .run_batched(vec![("in".into(), 0, all)], 512)
        .unwrap()
        .remove(&sink)
        .unwrap();
    assert_streams_equal(&collected[0].1, &expected);

    assert!(
        proxy.connections() >= 2,
        "the cut must have forced a reconnect"
    );
    proxy.shutdown();
    let registry = handle.registry();
    let errors = handle.shutdown();
    // The scripted cut parks the session exactly once, and the healed
    // resume pairs with it — visible in the lease counters.
    let snap = registry.snapshot();
    assert_eq!(
        counter_total(&snap, "server_lease_parked_total", None),
        1,
        "one mid-stream cut, one park"
    );
    assert_eq!(counter_total(&snap, "server_lease_resumed_total", None), 1);
    assert!(counter_total(&snap, "server_resumes_total", None) >= 1);
    assert_eq!(
        counter_total(&snap, "server_publish_tuples_total", None),
        50,
        "the torn batch replays once, never twice"
    );
    assert!(
        errors.iter().any(|e| matches!(
            e,
            ServerError::ClientDisconnected {
                role: "publisher",
                ..
            }
        )),
        "the cut connection must be recorded, got {errors:?}"
    );
    assert!(
        errors.iter().all(|e| e.severity() == Severity::Transient),
        "a healed cut is transient, got {errors:?}"
    );
}

#[test]
fn duplicated_resume_usurps_without_duplicating_data() {
    // Two connections present the same session token; both get
    // `ResumeOk`, both replay the same sequence. The epoch mechanism
    // lets the newest own the session and the sequence dedup makes the
    // stale replay a harmless re-ack — the merge sees each batch once.
    let (graph, sink) = passthrough_graph();
    let handle = Server::serve("127.0.0.1:0", ServedQuery::new(graph)).unwrap();
    let addr = handle.addr();
    let mut subscriber = Client::subscriber(addr).unwrap();
    subscriber.set_read_timeout(Some(READ_TIMEOUT)).unwrap();

    let chunk1 = markers(0..20);
    let chunk2 = markers(20..40);

    let mut a = raw_conn(addr);
    let (_, token) = raw_hello(&mut a, true);
    let token = token.expect("publisher hello must return a session token");
    raw_publish(&mut a, 1, &chunk1);

    // Two rival resumes of the same session.
    let mut b = raw_conn(addr);
    protocol::write_request(
        &mut b,
        &Request::Resume {
            token,
            last_acked_seq: 1,
        },
    )
    .unwrap();
    match protocol::read_response(&mut b).unwrap() {
        Response::ResumeOk { last_seq, .. } => assert_eq!(last_seq, 1),
        other => panic!("expected ResumeOk, got {other:?}"),
    }
    let mut c = raw_conn(addr);
    protocol::write_request(
        &mut c,
        &Request::Resume {
            token,
            last_acked_seq: 1,
        },
    )
    .unwrap();
    match protocol::read_response(&mut c).unwrap() {
        Response::ResumeOk { last_seq, .. } => assert_eq!(last_seq, 1),
        other => panic!("expected ResumeOk, got {other:?}"),
    }

    // Both replay sequence 2. The first applies; the second must be
    // re-acked, not re-applied.
    raw_publish(&mut b, 2, &chunk2);
    raw_publish(&mut c, 2, &chunk2);

    protocol::write_request(&mut c, &Request::Finish).unwrap();
    raw_expect_ack(&mut c);

    let collected = subscriber.collect_until_eos().unwrap();
    let (mut ref_graph, _) = passthrough_graph();
    let mut all = chunk1;
    all.extend(chunk2);
    let expected = ref_graph
        .run_batched(vec![("in".into(), 0, all)], 512)
        .unwrap()
        .remove(&sink)
        .unwrap();
    assert_streams_equal(&collected[0].1, &expected);

    drop(a);
    drop(b);
    let errors = handle.shutdown();
    assert!(
        errors.iter().all(|e| e.severity() == Severity::Transient),
        "usurped connections are transient noise, got {errors:?}"
    );
}

// --- lease lifecycle --------------------------------------------------

#[test]
fn lease_expiry_without_resume_escalates_and_still_reaches_eos() {
    // A publisher vanishes and never resumes: its disconnect is
    // Transient (the lease may yet be resumed), the expiry that follows
    // is Fatal (its slot degraded to finished — data may be missing),
    // and the query still drains to a clean EOS for everyone else.
    let all = inputs(600);
    let (mut ref_graph, sink) = q1_graph();
    let expected = ref_graph
        .run_batched(vec![("in".into(), 0, all.clone())], 512)
        .unwrap()
        .remove(&sink)
        .unwrap();

    let handle = Server::serve_with(
        "127.0.0.1:0",
        ServedQuery::new(q1_graph().0),
        ServerConfig {
            lease: Duration::from_millis(150),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();
    let mut subscriber = Client::subscriber(addr).unwrap();
    subscriber.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    let mut steady = Client::publisher_manual(addr).unwrap();
    steady.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    let mut flaky = Client::publisher_manual(addr).unwrap();
    flaky.set_read_timeout(Some(READ_TIMEOUT)).unwrap();

    flaky.publish("in", 0, &all[0..100]).unwrap();
    drop(flaky); // vanish mid-stream; the lease runs out unresumed

    steady.publish("in", 0, &all[100..600]).unwrap();
    steady.finish().unwrap();

    // EOS still arrives (the expired slot degrades to finished instead
    // of wedging the merge), and — since every published batch was
    // acked before the vanish — the output is still byte-exact.
    let collected = subscriber.collect_until_eos().unwrap();
    assert_streams_equal(&collected[0].1, &expected);
    assert!(handle.is_finished());

    let registry = handle.registry();
    let journal = handle.journal();
    let errors = handle.shutdown();
    let disconnect = errors.iter().find(|e| {
        matches!(
            e,
            ServerError::ClientDisconnected {
                role: "publisher",
                ..
            }
        )
    });
    let expiry = errors
        .iter()
        .find(|e| matches!(e, ServerError::LeaseExpired { .. }));
    assert_eq!(
        disconnect.map(|e| e.severity()),
        Some(Severity::Transient),
        "disconnect is transient while the lease runs: {errors:?}"
    );
    assert_eq!(
        expiry.map(|e| e.severity()),
        Some(Severity::Fatal),
        "unresumed expiry must escalate to fatal: {errors:?}"
    );

    // The expiry is visible in the counters and the journal, and the
    // severity split reconciles exactly with the scar list.
    let snap = registry.snapshot();
    let expired_scars = errors
        .iter()
        .filter(|e| matches!(e, ServerError::LeaseExpired { .. }))
        .count() as u64;
    assert_eq!(
        counter_total(&snap, "server_lease_expired_total", None),
        expired_scars
    );
    assert_eq!(counter_total(&snap, "server_lease_parked_total", None), 1);
    assert_eq!(counter_total(&snap, "server_lease_resumed_total", None), 0);
    assert_eq!(
        counter_total(&snap, "server_errors_total", Some(("severity", "fatal"))),
        errors
            .iter()
            .filter(|e| e.severity() == Severity::Fatal)
            .count() as u64
    );
    assert_eq!(
        counter_total(
            &snap,
            "server_errors_total",
            Some(("severity", "transient"))
        ),
        errors
            .iter()
            .filter(|e| e.severity() == Severity::Transient)
            .count() as u64
    );
    let events = journal.all();
    assert!(events
        .iter()
        .any(|e| matches!(e.detail, TraceDetail::LeaseParked { .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e.detail, TraceDetail::LeaseExpired { .. })));
}

#[test]
fn lease_expiry_after_eos_flush_is_inert() {
    // Regression (shutdown/lease-expiry race): once the query has
    // flushed, an abrupt publisher disconnect must not start a lease,
    // and no timer may fire a `LeaseExpired` that re-opens the merge
    // gate or pollutes the error log.
    let (graph, sink) = passthrough_graph();
    let all = markers(0..80);
    let handle = Server::serve_with(
        "127.0.0.1:0",
        ServedQuery::new(graph),
        ServerConfig {
            lease: Duration::from_millis(100),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();
    let mut subscriber = Client::subscriber(addr).unwrap();
    subscriber.set_read_timeout(Some(READ_TIMEOUT)).unwrap();

    let mut publisher = Client::publisher_manual(addr).unwrap();
    publisher.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    publisher.publish("in", 0, &all).unwrap();
    publisher.finish().unwrap();
    drop(publisher); // clean disconnect after Finish: no lease

    let collected = subscriber.collect_until_eos().unwrap();
    for _ in 0..200 {
        if handle.is_finished() {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(handle.is_finished());

    // A *post-EOS* publisher that publishes (rejected) and vanishes:
    // the park must see the flushed query and skip the lease entirely.
    let mut late = raw_conn(addr);
    raw_hello(&mut late, true);
    protocol::write_publish(&mut late, "in", 0, Some(1), &markers(0..1)).unwrap();
    match protocol::read_response(&mut late).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Finished),
        other => panic!("expected Finished error after EOS, got {other:?}"),
    }
    drop(late);

    // Sleep past the lease: if any timer was (wrongly) armed, it fires
    // inside this window and the assertions below catch it.
    std::thread::sleep(Duration::from_millis(350));
    assert!(handle.is_finished(), "the merge gate must stay closed");

    let (mut ref_graph, _) = passthrough_graph();
    let expected = ref_graph
        .run_batched(vec![("in".into(), 0, all)], 512)
        .unwrap()
        .remove(&sink)
        .unwrap();
    assert_streams_equal(&collected[0].1, &expected);

    let errors = handle.shutdown();
    assert!(
        !errors
            .iter()
            .any(|e| matches!(e, ServerError::LeaseExpired { .. })),
        "no lease may expire after the query flushed, got {errors:?}"
    );
}

#[test]
fn shutdown_with_parked_lease_returns_promptly() {
    // Regression (the other half of the race): shutting the server down
    // while a session sits parked under a long lease must not wait for
    // the lease, and the orphaned timer must be inert when it fires.
    let (graph, _) = passthrough_graph();
    let handle = Server::serve_with(
        "127.0.0.1:0",
        ServedQuery::new(graph),
        ServerConfig {
            lease: Duration::from_secs(10),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut publisher = Client::publisher_manual(handle.addr()).unwrap();
    publisher.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    publisher.publish("in", 0, &markers(0..10)).unwrap();
    drop(publisher); // park the session under the 10 s lease
    std::thread::sleep(Duration::from_millis(100));

    let started = Instant::now();
    let errors = handle.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown must not wait out the lease"
    );
    assert!(
        !errors
            .iter()
            .any(|e| matches!(e, ServerError::LeaseExpired { .. })),
        "shutdown preempts expiry, got {errors:?}"
    );
}

// --- slow-subscriber degradation --------------------------------------

/// Flood a deliberately unread subscriber connection. Returns what the
/// raw subscriber saw once it finally reads: (frames, gap notices,
/// severed-with-Lagging flag, seq consistency verified).
fn flood_slow_subscriber(policy: SubscriberPolicy) -> (usize, u64, bool) {
    let (graph, _) = passthrough_graph();
    let handle = Server::serve_with(
        "127.0.0.1:0",
        ServedQuery::new(graph),
        ServerConfig {
            subscriber_capacity: 1,
            subscriber_policy: policy,
            replay_frames: 0,
            batch_size: 512,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    // Raw subscriber that subscribes and then refuses to read: the
    // relay blocks on the socket, the queue (capacity 1) fills, and the
    // policy decides what happens next.
    let mut sub = raw_conn(addr);
    raw_hello(&mut sub, false);
    protocol::write_request(&mut sub, &Request::Subscribe { from: None }).unwrap();
    raw_expect_ack(&mut sub);

    let mut publisher = Client::publisher_manual(addr).unwrap();
    publisher.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    // ~200 result frames of 1000 tuples each — far beyond what the
    // kernel socket buffers can absorb for the unread subscriber.
    for i in 0..200u64 {
        let chunk = markers(i * 1000..(i + 1) * 1000);
        publisher.publish("in", 0, &chunk).unwrap();
    }
    publisher.finish().unwrap();

    // Now drain the subscriber and audit the sequence ledger: every
    // received frame's sequence must match the running counter, with
    // gaps accounting for exactly the shed frames.
    let mut expect_seq = 0u64;
    let mut frames = 0usize;
    let mut missed_total = 0u64;
    let mut severed = false;
    loop {
        match protocol::read_response(&mut sub).unwrap() {
            Response::Results { seq, .. } => {
                let seq = seq.expect("served results are sequenced");
                assert_eq!(seq, expect_seq, "no reordering, no duplicates");
                expect_seq += 1;
                frames += 1;
            }
            Response::Gap { missed } => {
                assert!(missed > 0);
                expect_seq += missed;
                missed_total += missed;
            }
            Response::Eos => break,
            Response::Error { code, .. } => {
                assert_eq!(code, ErrorCode::Lagging);
                severed = true;
                break;
            }
            other => panic!("unexpected frame for slow subscriber: {other:?}"),
        }
    }

    let registry = handle.registry();
    let journal = handle.journal();
    let errors = handle.shutdown();
    match policy {
        SubscriberPolicy::DropOldest => {
            assert!(
                errors
                    .iter()
                    .any(|e| matches!(e, ServerError::SubscriberLagged { .. })),
                "shed frames must be recorded, got {errors:?}"
            );
            // The gap ledger closes three ways at once: the frames the
            // subscriber was told it missed, the frames the scars say
            // were shed, and the gap counters — all the same number.
            let snap = registry.snapshot();
            let scarred: u64 = errors
                .iter()
                .filter_map(|e| match e {
                    ServerError::SubscriberLagged { dropped, .. } => Some(*dropped),
                    _ => None,
                })
                .sum();
            assert_eq!(scarred, missed_total, "scars account for every shed frame");
            assert_eq!(
                counter_total(&snap, "server_gap_missed_total", None),
                missed_total
            );
            assert!(counter_total(&snap, "server_gap_frames_total", None) > 0);
            let journal_missed: u64 = journal
                .all()
                .iter()
                .filter_map(|e| match e.detail {
                    TraceDetail::GapEmitted { missed, .. } => Some(missed),
                    _ => None,
                })
                .sum();
            assert_eq!(journal_missed, missed_total);
        }
        SubscriberPolicy::Disconnect => assert!(
            errors
                .iter()
                .any(|e| matches!(e, ServerError::SubscriberDropped { .. })),
            "the severed subscriber must be recorded, got {errors:?}"
        ),
        SubscriberPolicy::Block => {}
    }
    assert!(
        errors.iter().all(|e| e.severity() == Severity::Transient),
        "shedding is transient by design, got {errors:?}"
    );
    (frames, missed_total, severed)
}

#[test]
fn drop_oldest_policy_sheds_oldest_frames_and_reports_gaps() {
    let (frames, missed, severed) = flood_slow_subscriber(SubscriberPolicy::DropOldest);
    assert!(!severed, "DropOldest keeps the subscriber connected");
    assert!(missed > 0, "the flood must overflow capacity 1");
    assert!(frames > 0, "some frames still get through");
}

#[test]
fn disconnect_policy_severs_lagging_subscriber_with_typed_error() {
    let (_, _, severed) = flood_slow_subscriber(SubscriberPolicy::Disconnect);
    assert!(severed, "Disconnect must end with a typed Lagging error");
}

// --- subscriber resume over the replay ring ---------------------------

/// Publish `chunk` and then read `sub` until its cumulative tuple count
/// reaches `upto` — forcing the engine to have broadcast (and ringed)
/// every frame for the chunk before the test proceeds. Returns the
/// frames' sequences in arrival order.
fn publish_and_drain(
    publisher: &mut Client,
    sub: &mut TcpStream,
    chunk: &[Tuple],
    tuples_seen: &mut usize,
    upto: usize,
) -> Vec<u64> {
    publisher.publish("in", 0, chunk).unwrap();
    let mut seqs = Vec::new();
    while *tuples_seen < upto {
        match protocol::read_response(sub).unwrap() {
            Response::Ack { .. } => {}
            Response::Results { seq, tuples, .. } => {
                seqs.push(seq.expect("served results are sequenced"));
                *tuples_seen += tuples.len();
            }
            other => panic!("unexpected frame while draining: {other:?}"),
        }
    }
    seqs
}

#[test]
fn reconnecting_subscriber_resumes_from_replay_ring() {
    // Read part of the stream, vanish mid-stream, reconnect with
    // `from:` the next expected sequence: the ring replays what the
    // dead connection missed, with no duplicates and no holes — the
    // concatenation across both connections is byte-equal to the
    // reference.
    let (graph, sink) = passthrough_graph();
    let all = markers(0..200);
    let chunks: Vec<&[Tuple]> = all.chunks(20).collect();
    let handle = Server::serve_with(
        "127.0.0.1:0",
        ServedQuery::new(graph),
        ServerConfig {
            replay_frames: 64,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    let mut first = raw_conn(addr);
    raw_hello(&mut first, false);
    protocol::write_request(&mut first, &Request::Subscribe { from: None }).unwrap();
    // The ack means the subscription is queued to the engine ahead of
    // any publish that follows.
    raw_expect_ack(&mut first);

    let mut publisher = Client::publisher_manual(addr).unwrap();
    publisher.set_read_timeout(Some(READ_TIMEOUT)).unwrap();

    // First five chunks: read back lock-step, so every frame is
    // confirmed broadcast (and in the ring) as it happens.
    let mut tuples: Vec<Tuple> = Vec::new();
    let mut seen = 0usize;
    let mut next_from = 0u64;
    for (i, chunk) in chunks[..5].iter().enumerate() {
        let mut collected_here = 0;
        publisher.publish("in", 0, chunk).unwrap();
        while seen < (i + 1) * 20 {
            match protocol::read_response(&mut first).unwrap() {
                Response::Ack { .. } => {}
                Response::Results { seq, tuples: t, .. } => {
                    let seq = seq.expect("served results are sequenced");
                    assert_eq!(seq, next_from, "live stream is densely sequenced");
                    next_from = seq + 1;
                    seen += t.len();
                    collected_here += t.len();
                    tuples.extend(t);
                }
                other => panic!("unexpected frame: {other:?}"),
            }
        }
        assert_eq!(collected_here, 20);
    }
    drop(first); // abrupt, mid-stream

    // Keep publishing into the subscriber-less window: these frames go
    // to the ring only.
    for chunk in &chunks[5..] {
        publisher.publish("in", 0, chunk).unwrap();
    }
    publisher.finish().unwrap();
    for _ in 0..200 {
        if handle.is_finished() {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(handle.is_finished());

    // Second connection resumes exactly where the first left off; the
    // ring (64 ≫ frame count) must cover the whole hole.
    let mut second = raw_conn(addr);
    raw_hello(&mut second, false);
    protocol::write_request(
        &mut second,
        &Request::Subscribe {
            from: Some(next_from),
        },
    )
    .unwrap();
    loop {
        match protocol::read_response(&mut second).unwrap() {
            Response::Ack { .. } => {}
            Response::Results { seq, tuples: t, .. } => {
                let seq = seq.expect("served results are sequenced");
                assert_eq!(seq, next_from, "replay must not duplicate or skip");
                next_from = seq + 1;
                tuples.extend(t);
            }
            Response::Gap { missed } => {
                panic!("ring of 64 holds this whole stream; spurious gap of {missed}")
            }
            Response::Eos => break,
            other => panic!("unexpected frame: {other:?}"),
        }
    }

    let (mut ref_graph, _) = passthrough_graph();
    let expected = ref_graph
        .run_batched(vec![("in".into(), 0, all)], 512)
        .unwrap()
        .remove(&sink)
        .unwrap();
    assert_streams_equal(&tuples, &expected);
    handle.shutdown();
}

#[test]
fn stale_subscriber_resume_gets_gap_for_evicted_frames() {
    // Subscribe from sequence 0 against a 2-frame ring after several
    // frames have been broadcast: the evicted prefix surfaces as one
    // honest Gap, then the retained tail replays in order — the ledger
    // (gap + replayed sequences) accounts for every frame ever sent.
    let (graph, _) = passthrough_graph();
    let all = markers(0..200);
    let chunks: Vec<&[Tuple]> = all.chunks(20).collect();
    let handle = Server::serve_with(
        "127.0.0.1:0",
        ServedQuery::new(graph),
        ServerConfig {
            replay_frames: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    // A live subscriber reads the first five chunks lock-step, proving
    // at least five frames were broadcast (the ring keeps only 2).
    let mut live = raw_conn(addr);
    raw_hello(&mut live, false);
    protocol::write_request(&mut live, &Request::Subscribe { from: None }).unwrap();
    raw_expect_ack(&mut live); // subscribed before the first publish
    let mut publisher = Client::publisher_manual(addr).unwrap();
    publisher.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    let mut seen = 0usize;
    let mut frames_broadcast = 0u64;
    for (i, chunk) in chunks[..5].iter().enumerate() {
        let seqs = publish_and_drain(&mut publisher, &mut live, chunk, &mut seen, (i + 1) * 20);
        frames_broadcast += seqs.len() as u64;
    }
    assert!(frames_broadcast >= 5);

    // The stale resume: from sequence 0, long since evicted.
    let mut stale = raw_conn(addr);
    raw_hello(&mut stale, false);
    protocol::write_request(&mut stale, &Request::Subscribe { from: Some(0) }).unwrap();
    let mut gap_missed = None;
    let mut replayed = Vec::new();
    // Read exactly the gap + the two ring frames (everything available
    // before new publishes).
    while replayed.len() < 2 {
        match protocol::read_response(&mut stale).unwrap() {
            Response::Ack { .. } => {}
            Response::Gap { missed } => {
                assert!(gap_missed.is_none(), "exactly one gap notice");
                assert!(replayed.is_empty(), "the gap precedes the replay");
                gap_missed = Some(missed);
            }
            Response::Results { seq, .. } => {
                replayed.push(seq.expect("served results are sequenced"));
            }
            other => panic!("unexpected frame: {other:?}"),
        }
    }
    let missed = gap_missed.expect("the evicted prefix must be declared");
    assert_eq!(
        missed,
        frames_broadcast - 2,
        "the gap declares exactly the evicted frames"
    );
    assert_eq!(replayed, vec![missed, missed + 1]);

    publisher.finish().unwrap();
    handle.shutdown();
}
