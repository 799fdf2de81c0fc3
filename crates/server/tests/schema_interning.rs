//! Schema interning in the wire decoder: shared-schema frames over
//! value-equal schemas decode to one canonical `Arc`, a different
//! schema keeps its own, and past the intern set's cap decoding and
//! serving still work.
//!
//! The intern set is process-wide, so everything runs in this one test
//! (its own test binary): the order of the steps, and so which schemas
//! are interned, is fixed.

use std::sync::Arc;
use std::time::Duration;
use ustream_core::ops::Passthrough;
use ustream_core::query::QueryGraph;
use ustream_core::schema::{DataType, Schema};
use ustream_core::{Tuple, Updf, Value};
use ustream_prob::dist::Dist;
use ustream_server::wire::{self, Reader, MAX_INTERNED_SCHEMAS};
use ustream_server::{Client, ServedQuery, Server};

/// Row `i` of a test frame over `schema`: `i` in the Int key, N(i, 1)
/// in every uncertain field.
fn values(schema: &Schema, i: u64) -> Vec<Value> {
    schema
        .fields()
        .iter()
        .map(|f| match f.dtype {
            DataType::Int => Value::Int(i as i64),
            _ => Value::from(Updf::Parametric(Dist::gaussian(i as f64, 1.0))),
        })
        .collect()
}

/// The values `frame` encoded for `t`.
fn frame_values(t: &Tuple) -> Vec<Value> {
    values(t.schema(), t.ts)
}

fn frame(schema: &Arc<Schema>, n: u64) -> Vec<u8> {
    let tuples: Vec<Tuple> = (0..n)
        .map(|i| Tuple::new(schema.clone(), values(schema, i), i))
        .collect();
    let mut bytes = Vec::new();
    wire::encode_tuples(&mut bytes, &tuples);
    bytes
}

fn decode(bytes: &[u8]) -> Vec<Tuple> {
    let mut r = Reader::new(bytes);
    let tuples = wire::decode_tuples(&mut r).unwrap();
    r.finish().unwrap();
    tuples
}

fn schema(fields: &[&str]) -> Arc<Schema> {
    let mut b = Schema::builder().field("g", DataType::Int);
    for f in fields {
        b = b.field(*f, DataType::Uncertain);
    }
    b.build()
}

#[test]
fn value_equal_schemas_share_one_arc_up_to_the_cap() {
    // Two frames over value-equal schemas built separately.
    let a = decode(&frame(&schema(&["x"]), 4));
    let b = decode(&frame(&schema(&["x"]), 4));
    assert!(
        Arc::ptr_eq(a[0].schema(), b[3].schema()),
        "one Arc per stream"
    );
    // `decode_batch` (the columnar decode) hands out the same Arc.
    let bytes = frame(&schema(&["x"]), 4);
    let mut r = Reader::new(&bytes);
    let batch = wire::decode_batch(&mut r).unwrap();
    assert!(Arc::ptr_eq(
        batch.columns().unwrap().schema(),
        a[0].schema()
    ));

    // A different schema keeps its own Arc.
    let c = decode(&frame(&schema(&["x", "z"]), 4));
    assert!(!Arc::ptr_eq(a[0].schema(), c[0].schema()));
    assert_eq!(
        format!("{:?}", c[2].values()),
        format!("{:?}", frame_values(&c[2]))
    );

    // Fill the set past its cap: every frame still decodes to exactly
    // what was encoded.
    for i in 0..MAX_INTERNED_SCHEMAS + 8 {
        let s = schema(&[&format!("f{i}")]);
        let back = decode(&frame(&s, 3));
        assert_eq!(back.len(), 3);
        assert_eq!(**back[0].schema(), *s);
        assert_eq!(
            format!("{:?}", back[1].values()),
            format!("{:?}", frame_values(&back[1]))
        );
    }
    // Past the cap a new schema is no longer interned, while the
    // schemas interned before stay shared.
    let late = schema(&["late"]);
    let (l1, l2) = (decode(&frame(&late, 1)), decode(&frame(&late, 1)));
    assert!(
        !Arc::ptr_eq(l1[0].schema(), l2[0].schema()),
        "the set is bounded"
    );
    let again = decode(&frame(&schema(&["x"]), 1));
    assert!(Arc::ptr_eq(again[0].schema(), a[0].schema()));

    // A schema the full set does not hold is still served correctly.
    let mut g = QueryGraph::new();
    let sink = g.add(Box::new(Passthrough::new("sink")));
    g.source("in", sink);
    g.sink(sink);
    let handle = Server::serve("127.0.0.1:0", ServedQuery::new(g)).unwrap();
    let mut subscriber = Client::subscriber(handle.addr()).unwrap();
    subscriber
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut publisher = Client::publisher(handle.addr()).unwrap();
    let sent = decode(&frame(&schema(&["served", "late"]), 700));
    for chunk in sent.chunks(256) {
        assert_eq!(publisher.publish("in", 0, chunk).unwrap(), chunk.len());
    }
    publisher.finish().unwrap();
    let collected = subscriber.collect_until_eos().unwrap();
    assert_eq!(collected.len(), 1);
    let received = &collected[0].1;
    assert_eq!(received.len(), sent.len());
    for (got, want) in received.iter().zip(&sent) {
        assert_eq!(**got.schema(), **want.schema());
        assert_eq!(
            format!("{:?}", got.values()),
            format!("{:?}", want.values())
        );
        assert_eq!((got.ts, got.lineage.ids()), (want.ts, want.lineage.ids()));
    }
    assert!(handle.shutdown().is_empty());
}
