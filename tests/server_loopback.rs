//! Loopback integration suite for the ingest server: concurrent
//! publishers, streaming subscribers, EOS semantics, typed failure
//! paths, and exact equivalence with the in-process batched engine.
//!
//! The headline test drives a Q1-style query (probabilistic select →
//! project → tumbling group-by SUM) with three concurrent publisher
//! clients pushing interleaved slices over TCP and asserts the
//! subscriber's streamed results are exactly equal — values,
//! timestamps, existence probabilities, lineage — to
//! `QueryGraph::run_batched` over the same merged input.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
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
use uncertain_streams::server::{Client, ClientError, ErrorCode, ServedQuery, Server, ServerError};
use uncertain_streams::telemetry::MetricValue;

const READ_TIMEOUT: Duration = Duration::from_secs(30);

fn schema() -> Arc<Schema> {
    Schema::builder()
        .field("g", DataType::Int)
        .field("tag", DataType::Int)
        .field("x", DataType::Uncertain)
        .build()
}

/// Unique-timestamp input stream (ts = index), so the merged arrival
/// order at the server is fully determined and matches the feed
/// `run_batched` sorts out of the same tuples.
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

/// The Q1-style graph: select(P(x > 2)) → project → 100ms tumbling
/// group-by SUM (CLT) → sink.
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

/// Exact tuple fingerprint: timestamp, existence bits, lineage ids, and
/// the full `Debug` rendering of every value (lossless for floats —
/// Rust's `{:?}` prints the shortest roundtripping decimal).
fn fingerprint(t: &Tuple) -> String {
    format!(
        "ts={} ex={:016x} lin={:?} vals={:?}",
        t.ts,
        t.existence.to_bits(),
        t.lineage.ids(),
        t.values()
    )
}

#[test]
fn three_publishers_one_subscriber_match_run_batched() {
    let n = 1500;
    let all_inputs = inputs(n);

    // Reference: the in-process batched engine over the merged input.
    // Clones share lineage ids with the tuples sent over the wire, so
    // lineage equality is meaningful.
    let (mut ref_graph, sink) = q1_graph();
    let expected = ref_graph
        .run_batched(vec![("in".into(), 0, all_inputs.clone())], 512)
        .unwrap()
        .remove(&sink)
        .unwrap();
    assert!(!expected.is_empty(), "reference run must produce windows");

    let handle = Server::serve("127.0.0.1:0", ServedQuery::new(q1_graph().0)).unwrap();
    let addr = handle.addr();

    // Subscriber first (subscriptions stream results from subscribe
    // time onward), then all publishers join before anyone publishes,
    // so no publisher can reach EOS before the slowest connects.
    let mut subscriber = Client::subscriber(addr).unwrap();
    subscriber.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    let mut publishers: Vec<Client> = (0..3).map(|_| Client::publisher(addr).unwrap()).collect();

    // Interleaved slices: publisher p owns tuples with index % 3 == p,
    // shipped concurrently in many small ts-ordered chunks.
    let threads: Vec<_> = publishers
        .drain(..)
        .enumerate()
        .map(|(p, mut client)| {
            let slice: Vec<Tuple> = all_inputs.iter().skip(p).step_by(3).cloned().collect();
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
    assert!(handle.is_finished(), "EOS must mark the query finished");

    assert_eq!(collected.len(), 1, "one sink");
    let (sink_idx, received) = &collected[0];
    assert_eq!(*sink_idx, sink.index());
    assert_eq!(received.len(), expected.len());
    for (got, want) in received.iter().zip(&expected) {
        assert_eq!(fingerprint(got), fingerprint(want));
    }

    let errors = handle.shutdown();
    assert!(errors.is_empty(), "clean run records no errors: {errors:?}");
}

/// Q1 from declarative parts — a linear projection and a field-keyed
/// aggregate — so every operator has a columnar kernel to stay on.
fn q1_columnar_graph() -> (QueryGraph, NodeId) {
    let select =
        Select::new(Predicate::UncertainAbove("x".into(), 2.0), 0.05).without_conditioning();
    let project = Project::new(vec![
        Derivation::CertainLinear {
            input: "tag".into(),
            a: 2.5,
            b: 0.0,
            out: "weight".into(),
        },
        Derivation::Linear {
            input: "x".into(),
            a: 0.5,
            b: 1.0,
            out: "y".into(),
        },
    ]);
    let agg = WindowedAggregate::keyed_by_field(
        WindowKind::Tumbling(100),
        "g",
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

/// Serve `graph` over `frames` 512-tuple frames, frame `k` published by
/// publisher `k % publishers` (all on source `in`), check the streamed
/// sink byte-equal to `run_batched`, and return the aggregate's row
/// windows as EXPLAIN ANALYZE and the registry both report them,
/// together with the number of windows emitted.
fn served_row_windows(
    graph: fn() -> (QueryGraph, NodeId),
    publishers: usize,
    frames: usize,
) -> (u64, usize) {
    const FRAME: usize = 512;
    let all_inputs = inputs(frames * FRAME);
    let (mut ref_graph, sink) = graph();
    let expected = ref_graph
        .run_batched(vec![("in".into(), 0, all_inputs.clone())], FRAME)
        .unwrap()
        .remove(&sink)
        .unwrap();

    let handle = Server::serve("127.0.0.1:0", ServedQuery::new(graph().0)).unwrap();
    let mut subscriber = Client::subscriber(handle.addr()).unwrap();
    subscriber.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    let clients: Vec<Client> = (0..publishers)
        .map(|_| Client::publisher(handle.addr()).unwrap())
        .collect();
    let threads: Vec<_> = clients
        .into_iter()
        .enumerate()
        .map(|(p, mut client)| {
            let frames: Vec<Vec<Tuple>> = all_inputs
                .chunks(FRAME)
                .skip(p)
                .step_by(publishers)
                .map(|f| f.to_vec())
                .collect();
            std::thread::spawn(move || {
                client.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
                for frame in &frames {
                    assert_eq!(client.publish("in", 0, frame).unwrap(), frame.len());
                }
                client.finish().unwrap();
                client
            })
        })
        .collect();
    let collected = subscriber.collect_until_eos().unwrap();
    let mut clients: Vec<Client> = threads.into_iter().map(|t| t.join().unwrap()).collect();

    assert_eq!(collected.len(), 1, "one sink");
    let received = &collected[0].1;
    assert_eq!(received.len(), expected.len());
    for (got, want) in received.iter().zip(&expected) {
        assert_eq!(fingerprint(got), fingerprint(want));
    }

    let report = clients[0].explain().unwrap();
    let agg_ops: Vec<_> = report
        .stages
        .iter()
        .flat_map(|s| &s.ops)
        .filter(|o| o.op == "aggregate")
        .collect();
    assert_eq!(agg_ops.len(), 1, "one aggregate instance");
    let row_windows = agg_ops[0].row_windows;
    let (metrics, _) = clients[0].stats_v2().unwrap();
    let exported = metrics
        .iter()
        .find(|m| {
            m.family == "engine_op_row_windows_total"
                && m.labels.iter().any(|(k, v)| k == "op" && v == "aggregate")
        })
        .map(|m| m.value.clone());
    assert_eq!(exported, Some(MetricValue::Counter(row_windows)));
    let errors = handle.shutdown();
    assert!(errors.is_empty(), "clean run records no errors: {errors:?}");
    let windows = expected
        .iter()
        .map(|t| t.ts)
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    (row_windows, windows)
}

#[test]
fn served_q1_emits_every_window_through_the_columnar_path() {
    // Frames decode to one interned schema `Arc`, so the caches keyed
    // on it hold across frames and publishers, and the aggregate never
    // falls to its row path.
    for publishers in [1, 2] {
        let (row_windows, windows) = served_row_windows(q1_columnar_graph, publishers, 10);
        assert!(windows >= 50, "{windows} windows");
        assert_eq!(row_windows, 0, "{publishers} publisher(s)");
    }
    // The counter is live: a closure-keyed aggregate has no columnar
    // emit, and every one of its windows is counted.
    let (row_windows, windows) = served_row_windows(q1_graph, 1, 10);
    assert_eq!(row_windows, windows as u64);
}

#[test]
fn one_connection_can_publish_and_subscribe_at_once() {
    // A single duplex connection: subscribe, then keep publishing and
    // finish on the same socket while results stream back interleaved
    // with the acks.
    let handle = Server::serve("127.0.0.1:0", ServedQuery::new(q1_graph().0)).unwrap();
    let mut client = Client::publisher(handle.addr()).unwrap();
    client.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    client.subscribe().unwrap();

    let all = inputs(600);
    for chunk in all.chunks(100) {
        client.publish("in", 0, chunk).unwrap();
    }
    client.finish().unwrap();
    let collected = client.collect_until_eos().unwrap();
    assert_eq!(collected.len(), 1);

    let (mut ref_graph, sink) = q1_graph();
    let expected = ref_graph
        .run_batched(vec![("in".into(), 0, all)], 512)
        .unwrap()
        .remove(&sink)
        .unwrap();
    assert_eq!(collected[0].1.len(), expected.len());
    for (got, want) in collected[0].1.iter().zip(&expected) {
        assert_eq!(fingerprint(got), fingerprint(want));
    }
    let errors = handle.shutdown();
    assert!(errors.is_empty(), "clean duplex run: {errors:?}");
}

#[test]
fn equal_timestamps_across_publishers_merge_by_connection_id() {
    // Two publishers racing tuples with IDENTICAL timestamps: the merge
    // must order ties by connection id, not by arrival — publisher 2's
    // ts=5 tuples may not overtake a ts=5 tuple publisher 1 can still
    // send. Sequenced publishes make the arrival order adversarial.
    let marked = |marker: i64, ts: u64| {
        let s = Schema::builder().field("m", DataType::Int).build();
        Tuple::new(s, vec![Value::Int(marker)], ts)
    };
    let mk_graph = || {
        let mut g = QueryGraph::new();
        let sink = g.add(Box::new(Passthrough::new("sink")));
        g.source("in", sink);
        g.sink(sink);
        g
    };
    let handle = Server::serve("127.0.0.1:0", ServedQuery::new(mk_graph())).unwrap();
    let addr = handle.addr();

    let mut subscriber = Client::subscriber(addr).unwrap();
    subscriber.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    let mut p1 = Client::publisher(addr).unwrap();
    p1.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    let mut p2 = Client::publisher(addr).unwrap();
    p2.set_read_timeout(Some(READ_TIMEOUT)).unwrap();

    // Arrival order: p1 [ts5], p2 [ts5, ts5], p1 [ts5] — yet the
    // canonical (ts, connection id) order puts both p1 tuples first.
    p1.publish("in", 0, &[marked(11, 5)]).unwrap();
    p2.publish("in", 0, &[marked(21, 5), marked(22, 5)])
        .unwrap();
    p1.publish("in", 0, &[marked(12, 5)]).unwrap();
    p1.finish().unwrap();
    p2.finish().unwrap();

    let collected = subscriber.collect_until_eos().unwrap();
    let markers: Vec<i64> = collected[0].1.iter().map(|t| t.int("m").unwrap()).collect();
    assert_eq!(
        markers,
        vec![11, 12, 21, 22],
        "ties must order by connection id"
    );
    handle.shutdown();
}

#[test]
fn out_of_range_port_and_publish_after_finish_are_typed_errors() {
    let handle = Server::serve("127.0.0.1:0", ServedQuery::new(q1_graph().0)).unwrap();
    let mut publisher = Client::publisher(handle.addr()).unwrap();
    publisher.set_read_timeout(Some(READ_TIMEOUT)).unwrap();

    // The Q1 entry (select) has one input port: port 1 must be rejected
    // before it can trip an operator assert on the engine thread.
    match publisher.publish("in", 1, &inputs(1)) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Protocol),
        other => panic!("expected Protocol error for bad port, got {other:?}"),
    }

    publisher.publish("in", 0, &inputs(20)).unwrap();
    publisher.finish().unwrap();
    // Publishing again on a finished connection is a protocol error —
    // silently merging it behind the released watermark would break the
    // deterministic-merge guarantee.
    match publisher.publish("in", 0, &inputs(1)) {
        Err(ClientError::Server { code, .. }) => {
            assert!(code == ErrorCode::Protocol || code == ErrorCode::Finished);
        }
        other => panic!("expected typed error after finish, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn operator_panic_on_remote_input_is_contained() {
    // Publish tuples that survive the selection (they carry "x") but
    // lack the fields the projection's closure unwraps ("tag"): the
    // closure panics on the engine thread. The engine must contain it —
    // subscribers get Eos (no hang), the handle records a typed
    // QueryPanicked error, and later publishes get typed rejections.
    let handle = Server::serve("127.0.0.1:0", ServedQuery::new(q1_graph().0)).unwrap();
    let mut subscriber = Client::subscriber(handle.addr()).unwrap();
    subscriber.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    let mut publisher = Client::publisher(handle.addr()).unwrap();
    publisher.set_read_timeout(Some(READ_TIMEOUT)).unwrap();

    let bad_schema = Schema::builder().field("x", DataType::Uncertain).build();
    let bad: Vec<Tuple> = (0..8)
        .map(|i| {
            Tuple::new(
                bad_schema.clone(),
                vec![Value::from(Updf::Parametric(Dist::gaussian(5.0, 1.0)))],
                i as u64,
            )
        })
        .collect();
    publisher.publish("in", 0, &bad).unwrap();

    // Subscriber must be released with Eos, not left hanging.
    let collected = subscriber.collect_until_eos().unwrap();
    assert!(collected.is_empty() || collected[0].1.is_empty());

    // The dead query rejects further publishes with a typed error.
    let mut late = Client::publisher(handle.addr()).unwrap();
    late.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    match late.publish("in", 0, &inputs(1)) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Finished),
        other => panic!("expected Finished error from dead query, got {other:?}"),
    }

    let errors = handle.shutdown();
    assert!(
        errors
            .iter()
            .any(|e| matches!(e, ServerError::QueryPanicked { .. })),
        "expected a QueryPanicked record, got {errors:?}"
    );
}

#[test]
fn late_publish_after_eos_is_typed_error() {
    let handle = Server::serve("127.0.0.1:0", ServedQuery::new(q1_graph().0)).unwrap();
    let addr = handle.addr();

    let mut publisher = Client::publisher(addr).unwrap();
    publisher.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    publisher.publish("in", 0, &inputs(50)).unwrap();
    publisher.finish().unwrap();

    // EOS is asynchronous; wait for the engine to flush.
    for _ in 0..200 {
        if handle.is_finished() {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(handle.is_finished());

    // The existing connection and a brand-new one both get a typed
    // Finished error, not a hang or a panic.
    match publisher.publish("in", 0, &inputs(1)) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Finished),
        other => panic!("expected Finished error, got {other:?}"),
    }
    let mut late = Client::publisher(addr).expect("hello still answered");
    late.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    match late.publish("in", 0, &inputs(1)) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Finished),
        other => panic!("expected Finished error, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn unknown_source_is_typed_error() {
    let handle = Server::serve("127.0.0.1:0", ServedQuery::new(q1_graph().0)).unwrap();
    let mut publisher = Client::publisher(handle.addr()).unwrap();
    publisher.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    match publisher.publish("no-such-stream", 0, &inputs(1)) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::UnknownSource),
        other => panic!("expected UnknownSource error, got {other:?}"),
    }
    // The connection survives a rejected publish.
    publisher.publish("in", 0, &inputs(10)).unwrap();
    publisher.finish().unwrap();
    handle.shutdown();
}

#[test]
fn mid_stream_disconnect_is_typed_error_not_a_hang() {
    let handle = Server::serve("127.0.0.1:0", ServedQuery::new(q1_graph().0)).unwrap();
    let addr = handle.addr();

    let mut subscriber = Client::subscriber(addr).unwrap();
    subscriber.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    let mut steady = Client::publisher(addr).unwrap();
    steady.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    let mut flaky = Client::publisher(addr).unwrap();
    flaky.set_read_timeout(Some(READ_TIMEOUT)).unwrap();

    let all = inputs(600);
    flaky.publish("in", 0, &all[0..100]).unwrap();
    drop(flaky); // vanish mid-stream, no Finish

    steady.publish("in", 0, &all[100..600]).unwrap();
    steady.finish().unwrap();

    // EOS still arrives (the aborted publisher must not wedge the
    // watermark merge), and the abort surfaces as a typed error.
    let collected = subscriber.collect_until_eos().unwrap();
    assert!(!collected.is_empty(), "results still flow after the abort");

    let errors = handle.shutdown();
    assert!(
        errors.iter().any(|e| matches!(
            e,
            ServerError::ClientDisconnected {
                role: "publisher",
                ..
            }
        )),
        "expected a ClientDisconnected record, got {errors:?}"
    );
}

#[test]
fn malformed_frame_gets_error_response_and_is_recorded() {
    use std::io::Write;
    use uncertain_streams::server::{Response, WireError, WIRE_VERSION};

    let handle = Server::serve("127.0.0.1:0", ServedQuery::new(q1_graph().0)).unwrap();
    // A well-framed Publish whose payload is garbage, and a frame of the
    // retired `Stats` request kind. Each ends its connection.
    let frames: [(u8, &[u8]); 2] = [(0x02, &[0xFF, 0xEE, 0xDD, 0xCC]), (0x05, &[])];
    for (kind, payload) in frames {
        let mut raw = TcpStream::connect(handle.addr()).unwrap();
        raw.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
        let mut frame = Vec::new();
        frame.extend_from_slice(b"US");
        frame.push(WIRE_VERSION);
        frame.push(kind);
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        frame.extend_from_slice(payload);
        raw.write_all(&frame).unwrap();

        match uncertain_streams::server::protocol::read_response(&mut raw).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
            other => panic!("expected Malformed error frame for kind {kind:#04x}, got {other:?}"),
        }
    }
    let errors = handle.shutdown();
    let malformed: Vec<&WireError> = errors
        .iter()
        .filter_map(|e| match e {
            ServerError::Malformed { error, .. } => Some(error),
            _ => None,
        })
        .collect();
    assert_eq!(
        malformed.len(),
        2,
        "one Malformed record per frame: {errors:?}"
    );
    assert!(
        malformed.iter().any(|e| matches!(
            e,
            WireError::UnknownTag {
                what: "Request",
                tag: 0x05
            }
        )),
        "the retired kind is an unknown request tag: {errors:?}"
    );
}

#[test]
fn stats_serves_metrics_snapshots() {
    let select =
        Select::new(Predicate::UncertainAbove("x".into(), 2.0), 0.05).without_conditioning();
    let mut g = QueryGraph::new();
    let select = g.add(Box::new(select));
    let sink = g.add(Box::new(Passthrough::new("sink")));
    g.connect(select, sink, 0).unwrap();
    g.source("in", select);
    g.sink(sink);

    let handle = Server::serve("127.0.0.1:0", ServedQuery::new(g)).unwrap();

    let mut publisher = Client::publisher(handle.addr()).unwrap();
    publisher.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    publisher.publish("in", 0, &inputs(200)).unwrap();
    publisher.finish().unwrap();

    for _ in 0..200 {
        if handle.is_finished() {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let (metrics, _) = publisher.stats_v2().unwrap();
    let select_counter = |family: &str| {
        metrics
            .iter()
            .find(|m| {
                m.family == family && m.labels.iter().any(|(k, v)| k == "op" && v == "select")
            })
            .map(|m| m.value.clone())
    };
    assert_eq!(
        select_counter("engine_op_tuples_in_total"),
        Some(MetricValue::Counter(200))
    );
    assert!(matches!(
        select_counter("engine_op_batches_total"),
        Some(MetricValue::Counter(n)) if n > 0
    ));
    handle.shutdown();
}

#[test]
fn sequential_small_publishes_do_not_wait_on_delayed_acks() {
    // Each publish is one request frame answered by one ack frame. If a
    // frame ever leaves in two writes without TCP_NODELAY, every round
    // trip waits out the peer's delayed-ACK timer (~40 ms on Linux):
    // 200 publishes would take ~8.8 s instead of well under a second.
    let all = inputs(200);
    let handle = Server::serve("127.0.0.1:0", ServedQuery::new(q1_graph().0)).unwrap();
    let mut subscriber = Client::subscriber(handle.addr()).unwrap();
    subscriber.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    let mut publisher = Client::publisher(handle.addr()).unwrap();
    publisher.set_read_timeout(Some(READ_TIMEOUT)).unwrap();

    let started = std::time::Instant::now();
    for t in &all {
        assert_eq!(
            publisher.publish("in", 0, std::slice::from_ref(t)).unwrap(),
            1
        );
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "200 one-tuple publishes took {elapsed:?}"
    );

    publisher.finish().unwrap();
    let collected = subscriber.collect_until_eos().unwrap();
    let (mut ref_graph, sink) = q1_graph();
    let expected = ref_graph
        .run_batched(vec![("in".into(), 0, all)], 512)
        .unwrap()
        .remove(&sink)
        .unwrap();
    assert_eq!(collected.len(), 1);
    assert_eq!(collected[0].1.len(), expected.len());
    for (got, want) in collected[0].1.iter().zip(&expected) {
        assert_eq!(fingerprint(got), fingerprint(want));
    }
    let errors = handle.shutdown();
    assert!(errors.is_empty(), "clean run records no errors: {errors:?}");
}
