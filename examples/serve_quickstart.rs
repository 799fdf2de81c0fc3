//! Serving quickstart: run the ingest server and a client on loopback,
//! stream a Q1-style query end to end.
//!
//! One process plays all three roles to stay self-contained: it spawns
//! the server on an ephemeral port, connects a subscriber and a
//! publisher over real TCP, ships 2 000 uncertain temperature readings
//! through the wire codec, and prints each aggregate window as the
//! engine closes it — then the publisher finishes, the subscriber
//! receives EOS, and a `stats_v2` call reports every operator's
//! always-on tuple counters (the `engine_op_*` metric families).
//!
//! Run: `cargo run --release --example serve_quickstart`

use uncertain_streams::core::ops::aggregate::{
    AggFunc, AggSpec, Strategy, WindowKind, WindowedAggregate,
};
use uncertain_streams::core::ops::select::{Predicate, Select};
use uncertain_streams::core::ops::Passthrough;
use uncertain_streams::core::query::QueryGraph;
use uncertain_streams::core::schema::{DataType, Schema};
use uncertain_streams::core::{GroupKey, Tuple, Updf, Value};
use uncertain_streams::prob::dist::Dist;
use uncertain_streams::server::{Client, Event, ServedQuery, Server};

fn main() {
    // Q1 in miniature: probabilistic selection (plausibly hot readings)
    // into a 1-second tumbling per-sensor average.
    let select = Select::new(Predicate::UncertainAbove("temp".into(), 60.0), 0.05);
    let agg = WindowedAggregate::new(
        WindowKind::Tumbling(1_000),
        |t: &Tuple| GroupKey::from_value(t.get("sensor").unwrap()).unwrap(),
        vec![AggSpec {
            field: "temp".into(),
            func: AggFunc::Avg,
            out: "avg_temp".into(),
            strategy: Strategy::Auto,
        }],
    );
    let mut graph = QueryGraph::new();
    let select = graph.add(Box::new(select));
    let agg = graph.add(Box::new(agg));
    let sink = graph.add(Box::new(Passthrough::new("sink")));
    graph.connect(select, agg, 0).unwrap();
    graph.connect(agg, sink, 0).unwrap();
    graph.source("readings", select);
    graph.sink(sink);

    let handle = Server::serve("127.0.0.1:0", ServedQuery::new(graph)).expect("bind loopback");
    println!("serving on {}", handle.addr());

    // Subscribe before publishing: subscriptions stream results from
    // subscribe time onward.
    let mut subscriber = Client::subscriber(handle.addr()).expect("subscribe");
    let mut publisher = Client::publisher(handle.addr()).expect("connect");

    // Publish 2 000 readings from 8 sensors in timestamp order, 100 at
    // a time — each chunk is one framed batch over TCP.
    let schema = Schema::builder()
        .field("sensor", DataType::Int)
        .field("temp", DataType::Uncertain)
        .build();
    let readings: Vec<Tuple> = (0..2_000u64)
        .map(|i| {
            let mean = 55.0 + 10.0 * ((i as f64) / 300.0).sin() + (i % 8) as f64;
            Tuple::new(
                schema.clone(),
                vec![
                    Value::Int((i % 8) as i64),
                    Value::from(Updf::Parametric(Dist::gaussian(mean, 3.0))),
                ],
                i * 10, // one reading per 10 ms
            )
        })
        .collect();
    for chunk in readings.chunks(100) {
        publisher.publish("readings", 0, chunk).expect("publish");
    }
    publisher.finish().expect("finish");

    // Stream windows until EOS.
    let mut windows = 0usize;
    while let Event::Results { tuples, .. } = subscriber.next_event().expect("result stream") {
        for t in &tuples {
            let avg = t.updf("avg_temp").unwrap();
            let (lo, hi) = avg.confidence_interval(0.95);
            println!(
                "window@{:>6}ms  sensor={}  avg={:>5.1}°C  95% CI [{:.1}, {:.1}]  P(exists)={:.2}",
                t.ts,
                t.str("group").unwrap(),
                avg.mean(),
                lo,
                hi,
                t.existence
            );
        }
        windows += tuples.len();
    }
    println!("EOS after {windows} aggregate windows");

    // Per-operator engine counters over the wire.
    let (_, text) = publisher.stats_v2().expect("stats_v2");
    for line in text.lines().filter(|l| l.starts_with("engine_op_tuples_")) {
        println!("{line}");
    }

    let errors = handle.shutdown();
    assert!(errors.is_empty(), "clean run: {errors:?}");
}
