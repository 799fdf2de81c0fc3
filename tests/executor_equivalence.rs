//! The batched executors (single-threaded `run_batched`, and the
//! multi-threaded `ShardedExecutor` with a worker pool) must produce the
//! same results as single-threaded tuple-at-a-time push execution — the
//! Fig. 2 architecture at stream speed, with identical semantics.

use uncertain_streams::core::ops::aggregate::{
    AggFunc, AggSpec, Strategy, WindowKind, WindowedAggregate,
};
use uncertain_streams::core::ops::join::{JoinCondition, WindowJoin};
use uncertain_streams::core::ops::select::{Predicate, Select};
use uncertain_streams::core::ops::Passthrough;
use uncertain_streams::core::schema::{DataType, Schema};
use uncertain_streams::core::{GroupKey, NodeId, QueryGraph, Tuple, Updf, Value};
use uncertain_streams::prob::dist::Dist;
use uncertain_streams::runtime::ShardedExecutor;

fn build_graph() -> (QueryGraph, NodeId) {
    let mut g = QueryGraph::new();
    let select = g.add(Box::new(
        Select::new(Predicate::UncertainAbove("x".into(), 0.0), 0.1).without_conditioning(),
    ));
    let agg = g.add(Box::new(WindowedAggregate::new(
        WindowKind::Tumbling(1_000),
        |t: &Tuple| GroupKey::from_value(t.get("g").unwrap()).unwrap(),
        vec![AggSpec {
            field: "x".into(),
            func: AggFunc::Sum,
            out: "total".into(),
            strategy: Strategy::Clt,
        }],
    )));
    let sink = g.add(Box::new(Passthrough::new("sink")));
    g.connect(select, agg, 0).unwrap();
    g.connect(agg, sink, 0).unwrap();
    g.source("in", select);
    g.sink(sink);
    (g, sink)
}

fn inputs() -> Vec<Tuple> {
    let schema = Schema::builder()
        .field("g", DataType::Int)
        .field("x", DataType::Uncertain)
        .build();
    (0..500u64)
        .map(|i| {
            let mean = (i % 13) as f64 - 4.0; // some tuples mostly below 0
            Tuple::new(
                schema.clone(),
                vec![
                    Value::Int((i % 3) as i64),
                    Value::from(Updf::Parametric(Dist::gaussian(mean, 1.0))),
                ],
                i * 10,
            )
        })
        .collect()
}

/// One sink row in full canonical form: group, window start, member
/// count, scaled mean, timestamp, scaled existence, lineage ids.
type CanonicalRow = (String, u64, i64, i64, u64, i64, Vec<u64>);

/// Full canonical form including timestamps, existence probabilities, and
/// lineage ids — the strict equivalence the batched engine must uphold.
fn canonical(tuples: &[Tuple]) -> Vec<CanonicalRow> {
    let mut rows: Vec<_> = tuples
        .iter()
        .map(|t| {
            let total = t.updf("total").unwrap();
            (
                t.str("group").unwrap().to_string(),
                t.get("window_start").unwrap().as_time().unwrap(),
                t.int("n_tuples").unwrap(),
                (total.mean() * 1e6).round() as i64,
                t.ts,
                (t.existence * 1e9).round() as i64,
                t.lineage.ids().to_vec(),
            )
        })
        .collect();
    rows.sort();
    rows
}

/// The multi-threaded executor: four key-partitioned shard pipelines on a
/// two-thread worker pool.
fn threaded(batch_size: usize) -> ShardedExecutor {
    ShardedExecutor::new(4)
        .with_workers(2)
        .with_batch_size(batch_size)
}

#[test]
fn threaded_executor_matches_single_threaded() {
    let shared_inputs = inputs();
    let (mut g1, sink1) = build_graph();
    let single = g1
        .run(vec![("in".into(), 0, shared_inputs.clone())])
        .unwrap();
    let reference = canonical(&single[&sink1]);
    assert!(!reference.is_empty(), "pipeline produced output");

    let out = threaded(128)
        .run(|| build_graph().0, vec![("in".into(), 0, shared_inputs)])
        .unwrap();
    assert_eq!(
        reference,
        canonical(&out[&sink1]),
        "threaded and single-threaded outputs must match"
    );
}

/// Same feed, same bytes, same order: the worker pool's scheduling never
/// shows in the output.
#[test]
fn threaded_executor_is_repeatable() {
    let shared_inputs = inputs();
    let run = || {
        let (_, sink) = build_graph();
        let out = threaded(64)
            .run(
                || build_graph().0,
                vec![("in".into(), 0, shared_inputs.clone())],
            )
            .unwrap();
        out[&sink]
            .iter()
            .map(|t| {
                format!(
                    "{:?}|{:x}|{:?}",
                    t.values(),
                    t.existence.to_bits(),
                    t.lineage
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

/// Batched single-threaded execution must reproduce tuple-at-a-time
/// output *exactly*: same tuples, timestamps, existence probabilities,
/// and lineage, at every batch size. The same input tuples (cloned, so
/// lineage ids coincide) feed every run.
#[test]
fn batched_run_matches_tuple_at_a_time_exactly() {
    let shared_inputs = inputs();
    let (mut g1, sink1) = build_graph();
    let single = g1
        .run(vec![("in".into(), 0, shared_inputs.clone())])
        .unwrap();
    let reference = canonical(&single[&sink1]);
    assert!(!reference.is_empty());

    for bs in [1usize, 64, 1024] {
        let (mut g2, sink2) = build_graph();
        let batched = g2
            .run_batched(vec![("in".into(), 0, shared_inputs.clone())], bs)
            .unwrap();
        assert_eq!(
            reference,
            canonical(&batched[&sink2]),
            "batch size {bs} diverged from tuple-at-a-time"
        );
    }
}

/// The threaded executor ships routed sub-batches to its workers; every
/// batch size must yield the same sink tuples (incl. existence and
/// lineage).
#[test]
fn threaded_batch_sizes_match_tuple_at_a_time() {
    let shared_inputs = inputs();
    let (mut g1, sink1) = build_graph();
    let single = g1
        .run(vec![("in".into(), 0, shared_inputs.clone())])
        .unwrap();
    let reference = canonical(&single[&sink1]);

    for bs in [1usize, 64, 1024] {
        let out = threaded(bs)
            .run(
                || build_graph().0,
                vec![("in".into(), 0, shared_inputs.clone())],
            )
            .unwrap();
        assert_eq!(
            reference,
            canonical(&out[&sink1]),
            "threaded batch size {bs} diverged"
        );
    }
}

// ---------------------------------------------------------------------
// Multi-port join fed by two driver sources.
// ---------------------------------------------------------------------

fn join_graph() -> (QueryGraph, NodeId) {
    let mut g = QueryGraph::new();
    let join = g.add(Box::new(WindowJoin::new(
        10_000,
        JoinCondition::BandUncertain {
            left_field: "x".into(),
            right_field: "x".into(),
            epsilon: 1.0,
        },
        0.05,
    )));
    let sink = g.add(Box::new(Passthrough::new("sink")));
    g.connect(join, sink, 0).unwrap();
    g.source("left", join);
    g.source("right", join);
    g.sink(sink);
    (g, sink)
}

/// Tuples arrive in bursts of 10 per side (`ts_shift` staggers the two
/// sides), so the merged feed contains genuine per-port runs and the
/// batched executors actually form multi-tuple join batches.
fn join_inputs(offset: f64, ts_shift: u64) -> Vec<Tuple> {
    let schema = Schema::builder()
        .field("id", DataType::Int)
        .field("x", DataType::Uncertain)
        .build();
    (0..60u64)
        .map(|i| {
            Tuple::new(
                schema.clone(),
                vec![
                    Value::Int(i as i64),
                    Value::from(Updf::Parametric(Dist::gaussian(
                        (i % 5) as f64 + offset,
                        0.5,
                    ))),
                ],
                (i / 10) * 1000 + ts_shift + (i % 10),
            )
        })
        .collect()
}

fn join_summary(tuples: &[Tuple]) -> Vec<(i64, i64, u64, i64)> {
    let mut rows: Vec<_> = tuples
        .iter()
        .map(|t| {
            (
                t.int("id").unwrap(),
                t.int("r_id").unwrap(),
                t.ts,
                (t.existence * 1e9).round() as i64,
            )
        })
        .collect();
    rows.sort();
    rows
}

#[test]
fn threaded_join_two_driver_sources_matches_single_threaded() {
    let (left, right) = (join_inputs(0.0, 0), join_inputs(0.25, 500));
    let feeds = |l: &Vec<Tuple>, r: &Vec<Tuple>| {
        vec![
            ("left".to_string(), 0usize, l.clone()),
            ("right".to_string(), 1usize, r.clone()),
        ]
    };

    let (mut g1, sink1) = join_graph();
    let single = g1.run(feeds(&left, &right)).unwrap();
    let reference = join_summary(&single[&sink1]);
    assert!(!reference.is_empty(), "join produced matches");

    for bs in [1usize, 16, 512] {
        let (mut g2, sink2) = join_graph();
        let batched = g2.run_batched(feeds(&left, &right), bs).unwrap();
        assert_eq!(
            reference,
            join_summary(&batched[&sink2]),
            "two-source join, run_batched batch size {bs}"
        );
        let out = threaded(bs)
            .run(|| join_graph().0, feeds(&left, &right))
            .unwrap();
        assert_eq!(
            reference,
            join_summary(&out[&sink2]),
            "two-source join, threaded batch size {bs}"
        );
    }
}

// ---------------------------------------------------------------------
// EOS with fan-out > 1: one upstream feeding two flush-only aggregates.
// ---------------------------------------------------------------------

#[test]
fn threaded_eos_with_fanout_reaches_all_branches() {
    let schema = Schema::builder()
        .field("g", DataType::Int)
        .field("x", DataType::Uncertain)
        .build();
    let mk_agg = || {
        WindowedAggregate::new(
            // Window far larger than the data: emits only on flush, so
            // the result only appears if EOS propagates down both
            // fan-out branches.
            WindowKind::Tumbling(1_000_000),
            |_t: &Tuple| GroupKey::Unit,
            vec![AggSpec {
                field: "x".into(),
                func: AggFunc::Sum,
                out: "total".into(),
                strategy: Strategy::ExactParametric,
            }],
        )
    };
    let build = || {
        let mut g = QueryGraph::new();
        let src = g.add(Box::new(Passthrough::new("src")));
        let agg1 = g.add(Box::new(mk_agg()));
        let agg2 = g.add(Box::new(mk_agg()));
        g.connect(src, agg1, 0).unwrap();
        g.connect(src, agg2, 0).unwrap();
        g.source("in", src);
        g.sink(agg1);
        g.sink(agg2);
        (g, agg1, agg2)
    };

    let tuples: Vec<Tuple> = (0..25u64)
        .map(|i| {
            Tuple::new(
                schema.clone(),
                vec![
                    Value::Int(1),
                    Value::from(Updf::Parametric(Dist::gaussian(2.0, 0.1))),
                ],
                i,
            )
        })
        .collect();

    let (mut g, agg1, agg2) = build();
    let batched = g
        .run_batched(vec![("in".into(), 0, tuples.clone())], 8)
        .unwrap();
    let threaded = threaded(8)
        .run(|| build().0, vec![("in".into(), 0, tuples)])
        .unwrap();
    for (driver, out) in [("run_batched", batched), ("threaded", threaded)] {
        for (label, node) in [("agg1", agg1), ("agg2", agg2)] {
            let results = &out[&node];
            assert_eq!(results.len(), 1, "{driver}: {label} must flush one window");
            assert!(
                (results[0].updf("total").unwrap().mean() - 50.0).abs() < 1e-9,
                "{driver}: {label} total"
            );
        }
    }
}
