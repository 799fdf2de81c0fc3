//! The sharded runtime must reproduce `run_batched` output *exactly* —
//! same tuples, timestamps, existence probabilities, and lineage — at
//! every shard count and worker-pool size, and its merged output must be
//! byte-for-byte deterministic across runs and across shard counts.
//! Graphs whose operators cannot be key-partitioned must degrade to a
//! pinned single-shard plan, never to wrong answers. Panicking operators
//! must surface as `Err` at the driver.

use uncertain_streams::core::batch::Batch;
use uncertain_streams::core::ops::aggregate::{
    AggFunc, AggSpec, Strategy, WindowKind, WindowedAggregate,
};
use uncertain_streams::core::ops::join::{JoinCondition, WindowJoin};
use uncertain_streams::core::ops::project::{Derivation, Project};
use uncertain_streams::core::ops::select::{Predicate, Select};
use uncertain_streams::core::ops::{Operator, Passthrough};
use uncertain_streams::core::schema::{DataType, Schema};
use uncertain_streams::core::{
    canonical_sort, EngineError, GroupKey, NodeId, QueryGraph, Tuple, Updf, Value,
};
use uncertain_streams::prob::dist::Dist;
use uncertain_streams::runtime::ShardedExecutor;
use uncertain_streams::telemetry::{MetricValue, MetricsRegistry, TraceDetail};

// ---------------------------------------------------------------------
// Q1-style keyed aggregation: select → project → tumbling group-by SUM.
// ---------------------------------------------------------------------

fn q1_graph() -> (QueryGraph, NodeId) {
    let mut g = QueryGraph::new();
    let select = g.add(Box::new(
        Select::new(Predicate::UncertainAbove("x".into(), 0.0), 0.1).without_conditioning(),
    ));
    let project = g.add(Box::new(Project::new(vec![Derivation::Linear {
        input: "x".into(),
        a: 0.5,
        b: 1.0,
        out: "y".into(),
    }])));
    let agg = g.add(Box::new(WindowedAggregate::new(
        WindowKind::Tumbling(1_000),
        |t: &Tuple| GroupKey::from_value(t.get("g").unwrap()).unwrap(),
        vec![AggSpec {
            field: "y".into(),
            func: AggFunc::Sum,
            out: "total".into(),
            strategy: Strategy::Clt,
        }],
    )));
    let sink = g.add(Box::new(Passthrough::new("sink")));
    g.connect(select, project, 0).unwrap();
    g.connect(project, agg, 0).unwrap();
    g.connect(agg, sink, 0).unwrap();
    g.source("in", select);
    g.sink(sink);
    (g, sink)
}

fn q1_inputs() -> Vec<Tuple> {
    let schema = Schema::builder()
        .field("g", DataType::Int)
        .field("x", DataType::Uncertain)
        .build();
    (0..700u64)
        .map(|i| {
            let mean = (i % 13) as f64 - 4.0;
            let mut t = Tuple::new(
                schema.clone(),
                vec![
                    Value::Int((i % 7) as i64),
                    Value::from(Updf::Parametric(Dist::gaussian(mean, 1.0))),
                ],
                i * 10,
            );
            // Fractional existences must survive sharding bit-exactly.
            t.existence = 1.0 - (i % 5) as f64 * 0.05;
            t
        })
        .collect()
}

/// One sink row in full canonical form: every field that could diverge
/// under a buggy runtime (values, window metadata, timestamp, existence
/// bits, lineage ids).
type CanonicalRow = (String, u64, i64, i64, u64, u64, Vec<u64>);

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
                t.existence.to_bits(),
                t.lineage.ids().to_vec(),
            )
        })
        .collect();
    rows.sort();
    rows
}

#[test]
fn keyed_plan_describes_as_fully_parallel() {
    let (proto, _) = q1_graph();
    let plan = ShardedExecutor::shard_plan(&proto).unwrap();
    assert!(plan.is_parallel());
    assert_eq!(plan.num_entries(), 1);
    assert_eq!(plan.pinned_entries(), 0, "nothing degrades in Q1");
    let describe = plan.describe();
    assert!(
        describe.contains("keyed on") && describe.contains("0/1 entries pinned"),
        "unexpected describe(): {describe}"
    );
    let rules: Vec<_> = plan.entry_rules().collect();
    assert_eq!(rules.len(), 1);
    assert_eq!(rules[0].0, "in");
}

#[test]
fn sharded_matches_run_batched_across_shard_counts() {
    let inputs = q1_inputs();
    let (mut g, sink) = q1_graph();
    let reference = canonical(
        &g.run_batched(vec![("in".into(), 0, inputs.clone())], 64)
            .unwrap()[&sink],
    );
    assert!(!reference.is_empty(), "pipeline produced output");

    for shards in [1usize, 2, 8] {
        for workers in [1usize, 2] {
            let exec = ShardedExecutor::new(shards)
                .with_workers(workers)
                .with_batch_size(48);
            let out = exec
                .run(|| q1_graph().0, vec![("in".into(), 0, inputs.clone())])
                .unwrap();
            assert_eq!(
                reference,
                canonical(&out[&sink]),
                "shards={shards} workers={workers} diverged from run_batched"
            );
        }
    }
}

/// Byte-for-byte determinism: repeated runs and different shard counts
/// must produce the identical merged output sequence (not just the same
/// multiset) — compared via full Debug rendering, which spells out every
/// distribution parameter.
#[test]
fn sharded_output_is_byte_identical_across_runs_and_shard_counts() {
    let inputs = q1_inputs();
    let render = |shards: usize, workers: usize| -> String {
        let exec = ShardedExecutor::new(shards)
            .with_workers(workers)
            .with_batch_size(32);
        let (_, sink) = q1_graph();
        let out = exec
            .run(|| q1_graph().0, vec![("in".into(), 0, inputs.clone())])
            .unwrap();
        out[&sink]
            .iter()
            .map(|t| {
                format!(
                    "{:?}|{:x}|{:?}\n",
                    t.values(),
                    t.existence.to_bits(),
                    t.lineage
                )
            })
            .collect()
    };
    let reference = render(4, 2);
    assert_eq!(reference, render(4, 2), "same config must be reproducible");
    assert_eq!(reference, render(4, 1), "worker count must not matter");
    assert_eq!(reference, render(2, 2), "shard count must not matter");
    assert_eq!(reference, render(8, 2), "shard count must not matter");
}

// ---------------------------------------------------------------------
// Two-source sharded equi-join.
// ---------------------------------------------------------------------

fn join_graph() -> (QueryGraph, NodeId) {
    let mut g = QueryGraph::new();
    let join = g.add(Box::new(WindowJoin::new(
        5_000,
        JoinCondition::KeyEquals {
            left: Box::new(|t| GroupKey::from_value(t.get("k").ok()?)),
            right: Box::new(|t| GroupKey::from_value(t.get("k").ok()?)),
        },
        0.0,
    )));
    let sink = g.add(Box::new(Passthrough::new("sink")));
    g.connect(join, sink, 0).unwrap();
    g.source("left", join);
    g.source("right", join);
    g.sink(sink);
    (g, sink)
}

fn join_inputs(ts_shift: u64) -> Vec<Tuple> {
    let schema = Schema::builder()
        .field("id", DataType::Int)
        .field("k", DataType::Int)
        .build();
    (0..120u64)
        .map(|i| {
            Tuple::new(
                schema.clone(),
                vec![Value::Int(i as i64), Value::Int((i % 9) as i64)],
                (i / 10) * 700 + ts_shift + (i % 10),
            )
        })
        .collect()
}

fn join_rows(tuples: &[Tuple]) -> Vec<(i64, i64, u64, u64, Vec<u64>)> {
    let mut rows: Vec<_> = tuples
        .iter()
        .map(|t| {
            (
                t.int("id").unwrap(),
                t.int("r_id").unwrap(),
                t.ts,
                t.existence.to_bits(),
                t.lineage.ids().to_vec(),
            )
        })
        .collect();
    rows.sort();
    rows
}

#[test]
fn two_source_sharded_join_matches_run_batched() {
    let (left, right) = (join_inputs(0), join_inputs(350));
    let feeds = || {
        vec![
            ("left".to_string(), 0usize, left.clone()),
            ("right".to_string(), 1usize, right.clone()),
        ]
    };
    let (mut g, sink) = join_graph();
    let reference = join_rows(&g.run_batched(feeds(), 32).unwrap()[&sink]);
    assert!(!reference.is_empty(), "join produced matches");

    for shards in [1usize, 2, 8] {
        let exec = ShardedExecutor::new(shards)
            .with_workers(2)
            .with_batch_size(16);
        let out = exec.run(|| join_graph().0, feeds()).unwrap();
        assert_eq!(
            reference,
            join_rows(&out[&sink]),
            "two-source join, shards={shards}"
        );
    }
}

// ---------------------------------------------------------------------
// Fan-out > 1: one stream feeding a keyed aggregate and a raw sink.
// ---------------------------------------------------------------------

fn fanout_graph() -> (QueryGraph, NodeId, NodeId) {
    let mut g = QueryGraph::new();
    let src = g.add(Box::new(Passthrough::new("src")));
    let agg = g.add(Box::new(WindowedAggregate::new(
        WindowKind::Tumbling(1_000),
        |t: &Tuple| GroupKey::from_value(t.get("g").unwrap()).unwrap(),
        vec![AggSpec {
            field: "x".into(),
            func: AggFunc::Sum,
            out: "total".into(),
            strategy: Strategy::ExactParametric,
        }],
    )));
    let raw = g.add(Box::new(Passthrough::new("raw")));
    g.connect(src, agg, 0).unwrap();
    g.connect(src, raw, 0).unwrap();
    g.source("in", src);
    g.sink(agg);
    g.sink(raw);
    (g, agg, raw)
}

#[test]
fn fanout_branches_match_run_batched() {
    let inputs = q1_inputs();
    let (mut g, agg, raw) = fanout_graph();
    let single = g
        .run_batched(vec![("in".into(), 0, inputs.clone())], 64)
        .unwrap();
    let ref_agg = canonical(&single[&agg]);
    let raw_rows = |ts: &[Tuple]| {
        let mut rows: Vec<_> = ts
            .iter()
            .map(|t| (t.ts, t.int("g").unwrap(), t.existence.to_bits()))
            .collect();
        rows.sort();
        rows
    };
    let ref_raw = raw_rows(&single[&raw]);
    assert!(!ref_agg.is_empty() && !ref_raw.is_empty());

    for shards in [2usize, 8] {
        let exec = ShardedExecutor::new(shards)
            .with_workers(2)
            .with_batch_size(64);
        let out = exec
            .run(|| fanout_graph().0, vec![("in".into(), 0, inputs.clone())])
            .unwrap();
        assert_eq!(
            ref_agg,
            canonical(&out[&agg]),
            "agg branch, shards={shards}"
        );
        assert_eq!(ref_raw, raw_rows(&out[&raw]), "raw branch, shards={shards}");
    }
}

// ---------------------------------------------------------------------
// EOS with empty shards: fewer distinct keys than shards.
// ---------------------------------------------------------------------

#[test]
fn eos_with_empty_shards_completes_and_matches() {
    let schema = Schema::builder()
        .field("g", DataType::Int)
        .field("x", DataType::Uncertain)
        .build();
    // One group only: at 8 shards, at least 7 pipelines see zero tuples
    // and must still flush cleanly through EOS.
    let inputs: Vec<Tuple> = (0..50u64)
        .map(|i| {
            Tuple::new(
                schema.clone(),
                vec![
                    Value::Int(1),
                    Value::from(Updf::Parametric(Dist::gaussian(2.0, 0.1))),
                ],
                i * 10,
            )
        })
        .collect();
    let (mut g, sink) = q1_graph();
    let reference = canonical(
        &g.run_batched(vec![("in".into(), 0, inputs.clone())], 16)
            .unwrap()[&sink],
    );

    let exec = ShardedExecutor::new(8).with_workers(2).with_batch_size(8);
    let out = exec
        .run(|| q1_graph().0, vec![("in".into(), 0, inputs.clone())])
        .unwrap();
    assert_eq!(reference, canonical(&out[&sink]));
}

// ---------------------------------------------------------------------
// Staged plans: chained keyed anchors shard stage-by-stage through an
// exchange instead of collapsing to a pinned single pipeline.
// ---------------------------------------------------------------------

/// Q1/Q2-style chain: select → tumbling group-by SUM → keyed equi-join
/// against a second source entering the join directly. Two keyed
/// anchors in one cone — the configuration the single-stage planner
/// could only pin.
fn agg_join_graph() -> (QueryGraph, NodeId) {
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
            strategy: Strategy::ExactParametric,
        }],
    )));
    // Range far beyond the feed's timespan: the pair set is the full
    // same-key cross product, insensitive to cross-port interleaving.
    let join = g.add(Box::new(WindowJoin::new(
        1_000_000,
        JoinCondition::KeyEquals {
            left: Box::new(|t| GroupKey::from_value(t.get("group").ok()?)),
            right: Box::new(|t| GroupKey::from_value(t.get("gname").ok()?)),
        },
        0.0,
    )));
    let sink = g.add(Box::new(Passthrough::new("sink")));
    g.connect(select, agg, 0).unwrap();
    g.connect(agg, join, 0).unwrap();
    g.connect(join, sink, 0).unwrap();
    g.source("readings", select);
    g.source("refs", join);
    g.sink(sink);
    (g, sink)
}

fn agg_join_inputs() -> (Vec<Tuple>, Vec<Tuple>) {
    let readings = q1_inputs();
    let ref_schema = Schema::builder()
        .field("rid", DataType::Int)
        .field("gname", DataType::Str)
        .build();
    // Reference rows keyed by the aggregate's group rendering, with
    // timestamps interleaving the windows' close times.
    let refs: Vec<Tuple> = (0..40u64)
        .map(|j| {
            Tuple::new(
                ref_schema.clone(),
                vec![Value::Int(j as i64), Value::from(format!("Int({})", j % 7))],
                j * 173,
            )
        })
        .collect();
    (readings, refs)
}

type JoinedRow = (String, u64, i64, i64, i64, u64, u64, Vec<u64>);

fn joined_rows(tuples: &[Tuple]) -> Vec<JoinedRow> {
    let mut rows: Vec<JoinedRow> = tuples
        .iter()
        .map(|t| {
            let total = t.updf("total").unwrap();
            (
                t.str("group").unwrap().to_string(),
                t.get("window_end").unwrap().as_time().unwrap(),
                t.int("n_tuples").unwrap(),
                (total.mean() * 1e6).round() as i64,
                t.int("rid").unwrap(),
                t.ts,
                t.existence.to_bits(),
                t.lineage.ids().to_vec(),
            )
        })
        .collect();
    rows.sort();
    rows
}

#[test]
fn agg_into_keyed_join_stages_with_an_exchange_and_no_pinning() {
    let (proto, _) = agg_join_graph();
    let plan = ShardedExecutor::shard_plan(&proto).unwrap();
    assert_eq!(plan.num_stages(), 2, "cut at the second keyed anchor");
    assert_eq!(plan.cut_edges().len(), 1, "one exchange edge (agg → join)");
    assert!(plan.is_parallel());
    assert_eq!(
        plan.pinned_entries(),
        0,
        "chained keyed anchors must not pin: {}",
        plan.describe()
    );
    let describe = plan.describe();
    assert!(
        describe.contains("stage 0:")
            && describe.contains("stage 1:")
            && describe.contains("exchange `aggregate` -> `join` (port 0)")
            && describe.contains("entry `readings` -> keyed on `aggregate`")
            && describe.contains("entry `refs` -> keyed on `join`")
            && describe.contains("0/2 entries pinned")
            && describe.contains("2 stages, 1 exchange edge"),
        "unexpected describe():\n{describe}"
    );
    assert!(
        !describe.contains("pinned to shard 0") && !describe.contains("degraded"),
        "staged plan must not degrade:\n{describe}"
    );
}

#[test]
fn staged_agg_join_matches_run_batched_across_shard_and_worker_counts() {
    let (readings, refs) = agg_join_inputs();
    let feeds = || {
        vec![
            ("readings".to_string(), 0usize, readings.clone()),
            ("refs".to_string(), 1usize, refs.clone()),
        ]
    };
    let (mut g, sink) = agg_join_graph();
    let reference = joined_rows(&g.run_batched(feeds(), 64).unwrap()[&sink]);
    assert!(!reference.is_empty(), "windows joined against references");

    for shards in [1usize, 2, 8] {
        for workers in [1usize, 2] {
            let exec = ShardedExecutor::new(shards)
                .with_workers(workers)
                .with_batch_size(48);
            let out = exec.run(|| agg_join_graph().0, feeds()).unwrap();
            assert_eq!(
                reference,
                joined_rows(&out[&sink]),
                "staged agg→join diverged at shards={shards} workers={workers}"
            );
        }
    }
}

#[test]
fn staged_output_is_byte_identical_across_runs_and_shard_counts() {
    let (readings, refs) = agg_join_inputs();
    let render = |shards: usize, workers: usize| -> String {
        let exec = ShardedExecutor::new(shards)
            .with_workers(workers)
            .with_batch_size(32);
        let (_, sink) = agg_join_graph();
        let out = exec
            .run(
                || agg_join_graph().0,
                vec![
                    ("readings".to_string(), 0usize, readings.clone()),
                    ("refs".to_string(), 1usize, refs.clone()),
                ],
            )
            .unwrap();
        out[&sink]
            .iter()
            .map(|t| {
                format!(
                    "{:?}|{:x}|{:?}\n",
                    t.values(),
                    t.existence.to_bits(),
                    t.lineage
                )
            })
            .collect()
    };
    let reference = render(4, 2);
    assert_eq!(reference, render(4, 2), "same config must be reproducible");
    assert_eq!(reference, render(4, 1), "worker count must not matter");
    assert_eq!(reference, render(2, 2), "shard count must not matter");
    assert_eq!(reference, render(8, 2), "shard count must not matter");
    assert_eq!(
        reference,
        render(1, 1),
        "single pipeline agrees byte-for-byte"
    );
}

/// Aggregate feeding an aggregate on a *different* key: the window-count
/// distribution re-keys each window row, so the second aggregate's
/// groups cut across the first's — only an exchange can shard this.
fn agg_agg_graph() -> (QueryGraph, NodeId) {
    let mut g = QueryGraph::new();
    let agg1 = g.add(Box::new(WindowedAggregate::new(
        WindowKind::Tumbling(1_000),
        |t: &Tuple| GroupKey::from_value(t.get("g").unwrap()).unwrap(),
        vec![AggSpec {
            field: "x".into(),
            func: AggFunc::Sum,
            out: "total".into(),
            strategy: Strategy::ExactParametric,
        }],
    )));
    let agg2 = g.add(Box::new(
        WindowedAggregate::new(
            WindowKind::Tumbling(4_000),
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
    g.connect(agg1, agg2, 0).unwrap();
    g.connect(agg2, sink, 0).unwrap();
    g.source("in", agg1);
    g.sink(sink);
    (g, sink)
}

#[test]
fn staged_agg_into_agg_on_different_key_matches_run_batched_bit_exactly() {
    let (proto, _) = agg_agg_graph();
    let plan = ShardedExecutor::shard_plan(&proto).unwrap();
    assert_eq!(plan.num_stages(), 2);
    assert_eq!(plan.pinned_entries(), 0);
    let describe = plan.describe();
    assert!(
        describe.contains("exchange `aggregate` -> `reagg` (port 0): keyed on `reagg`")
            && !describe.contains("pinned to shard 0"),
        "unexpected describe():\n{describe}"
    );

    let inputs = q1_inputs();
    let (mut g, sink) = agg_agg_graph();
    let reference: Vec<String> = g
        .run_batched(vec![("in".into(), 0, inputs.clone())], 64)
        .unwrap()[&sink]
        .iter()
        .map(|t| {
            format!(
                "{:?}|{:x}|{:?}",
                t.values(),
                t.existence.to_bits(),
                t.lineage
            )
        })
        .collect();
    assert!(!reference.is_empty());

    for shards in [1usize, 2, 8] {
        for workers in [1usize, 2] {
            let exec = ShardedExecutor::new(shards)
                .with_workers(workers)
                .with_batch_size(48);
            let out = exec
                .run(|| agg_agg_graph().0, vec![("in".into(), 0, inputs.clone())])
                .unwrap();
            let mut got: Vec<String> = out[&sink]
                .iter()
                .map(|t| {
                    format!(
                        "{:?}|{:x}|{:?}",
                        t.values(),
                        t.existence.to_bits(),
                        t.lineage
                    )
                })
                .collect();
            let mut want = reference.clone();
            // The merged order is canonical in both paths; sorting keeps
            // the comparison shape-agnostic while the strings keep every
            // bit of every distribution parameter in play.
            got.sort();
            want.sort();
            assert_eq!(
                want, got,
                "agg→agg re-key diverged at shards={shards} workers={workers}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Pipelined (eager) exchange delivery: sealed watermark intervals cross
// the exchange ahead of the drain barrier — a scheduling choice that
// must never show in the output.
// ---------------------------------------------------------------------

/// The pipelining matrix: shards {1, 2, 8} × workers {1, 2} over the
/// staged agg→join graph, every cell exactly equal
/// (values/ts/existence/lineage) to `run_batched`.
#[test]
fn pipelined_delivery_matrix_matches_run_batched() {
    let (readings, refs) = agg_join_inputs();
    let feeds = || {
        vec![
            ("readings".to_string(), 0usize, readings.clone()),
            ("refs".to_string(), 1usize, refs.clone()),
        ]
    };
    let (mut g, sink) = agg_join_graph();
    let reference = joined_rows(&g.run_batched(feeds(), 64).unwrap()[&sink]);
    assert!(!reference.is_empty(), "windows joined against references");

    for shards in [1usize, 2, 8] {
        for workers in [1usize, 2] {
            let exec = ShardedExecutor::new(shards)
                .with_workers(workers)
                .with_batch_size(48);
            let out = exec.run(|| agg_join_graph().0, feeds()).unwrap();
            assert_eq!(
                reference,
                joined_rows(&out[&sink]),
                "shards={shards} workers={workers} diverged from run_batched"
            );
        }
    }
}

/// Byte-for-byte across configurations and delivery schedules: the
/// merged output rendering (full Debug of every distribution parameter,
/// existence bits, lineage) is the same whether the output is drained
/// after every push (pipelined delivery) or collected only at the
/// finish barrier, at every shard/worker config.
#[test]
fn pipelined_and_barrier_delivery_render_identical_bytes() {
    let (readings, refs) = agg_join_inputs();
    let feeds = || {
        vec![
            ("readings".to_string(), 0usize, readings.clone()),
            ("refs".to_string(), 1usize, refs.clone()),
        ]
    };
    let (_, sink) = agg_join_graph();
    let render = |mut tuples: Vec<Tuple>| -> String {
        canonical_sort(&mut tuples);
        tuples
            .iter()
            .map(|t| {
                format!(
                    "{:?}|{:x}|{:?}\n",
                    t.values(),
                    t.existence.to_bits(),
                    t.lineage
                )
            })
            .collect()
    };
    let exec = |shards: usize, workers: usize| {
        ShardedExecutor::new(shards)
            .with_workers(workers)
            .with_batch_size(32)
    };
    let barrier = |shards: usize, workers: usize| -> String {
        let mut out = exec(shards, workers)
            .run(|| agg_join_graph().0, feeds())
            .unwrap();
        render(out.remove(&sink).unwrap())
    };
    let pipelined = |shards: usize, workers: usize| -> String {
        let mut session = exec(shards, workers)
            .session(|| agg_join_graph().0)
            .unwrap();
        let mut got: Vec<Tuple> = Vec::new();
        for (_, node, port, tuple) in session.ordered_feed(feeds()).unwrap() {
            session.push_batch(node, port, Batch::one(tuple)).unwrap();
            for (n, tuples) in session.drain_collected().unwrap() {
                assert_eq!(n, sink);
                got.extend(tuples);
            }
        }
        got.extend(session.finish().unwrap().remove(&sink).unwrap_or_default());
        render(got)
    };
    let reference = barrier(4, 2);
    assert!(!reference.is_empty());
    for (shards, workers) in [(4usize, 2usize), (2, 1), (8, 2), (1, 1)] {
        assert_eq!(
            reference,
            barrier(shards, workers),
            "barrier, shards={shards} workers={workers}"
        );
        assert_eq!(
            reference,
            pipelined(shards, workers),
            "pipelined, shards={shards} workers={workers}"
        );
    }
}

/// The eager telemetry is honest: a pipelined run ticks `eager_forwards`
/// on the exchange stage, every exchanged tuple is counted once, and the
/// run-ahead depth gauge reads zero once the finish barrier drained
/// everything — while the output stays equal to `run_batched`.
#[test]
fn eager_forward_counters_tick_only_with_pipelining_on() {
    let inputs = q1_inputs();
    let rows = |tuples: &[Tuple]| -> Vec<String> {
        let mut rows: Vec<String> = tuples
            .iter()
            .map(|t| {
                format!(
                    "{:?}|{:x}|{:?}",
                    t.values(),
                    t.existence.to_bits(),
                    t.lineage
                )
            })
            .collect();
        rows.sort();
        rows
    };
    let (mut g, sink) = agg_agg_graph();
    let reference = rows(
        &g.run_batched(vec![("in".into(), 0, inputs.clone())], 48)
            .unwrap()[&sink],
    );
    assert!(!reference.is_empty());

    let exec = ShardedExecutor::new(4).with_workers(2).with_batch_size(48);
    let mut session = exec.session(|| agg_agg_graph().0).unwrap();
    let telem = session.telemetry().clone();
    push_feed(&mut session, vec![("in".into(), 0, inputs)], 48);
    let out = session.finish().unwrap();
    assert_eq!(reference, rows(&out[&sink]));

    assert!(
        telem.eager_forwards(1).get() > 0,
        "pipelined delivery must have forwarded intervals ahead of the barrier"
    );
    let stage0_out: u64 = telem
        .op_entries()
        .iter()
        .filter(|e| e.op == "aggregate" && e.stage == 0)
        .map(|e| e.telem.tuples_out.get())
        .sum();
    assert_eq!(
        telem.exchange_forwarded(1).get(),
        stage0_out,
        "every tuple the cut node emitted crossed the exchange exactly once"
    );
    assert_eq!(
        telem.interval_depth(1).get(),
        0,
        "the finish barrier resets the run-ahead depth"
    );
}

// ---------------------------------------------------------------------
// Keyless tuples at a keyed anchor spread round-robin (not shard 0).
// ---------------------------------------------------------------------

#[test]
fn keyless_tuples_spread_round_robin_and_stay_exact() {
    // The join's key closures return None for Null keys: such tuples
    // never participate in keyed state, so the router spreads them for
    // balance instead of parking them on shard 0 — and results must not
    // change.
    let schema = Schema::builder()
        .field("id", DataType::Int)
        .field("k", DataType::Int)
        .build();
    let mk = |shift: u64, keyless_every: u64| -> Vec<Tuple> {
        (0..120u64)
            .map(|i| {
                let k = if i % keyless_every == 0 {
                    Value::Null
                } else {
                    Value::Int((i % 9) as i64)
                };
                Tuple::new(
                    schema.clone(),
                    vec![Value::Int(i as i64), k],
                    (i / 10) * 700 + shift + (i % 10),
                )
            })
            .collect()
    };
    let (left, right) = (mk(0, 4), mk(350, 5));
    let feeds = || {
        vec![
            ("left".to_string(), 0usize, left.clone()),
            ("right".to_string(), 1usize, right.clone()),
        ]
    };
    let (mut g, sink) = join_graph();
    let reference = join_rows(&g.run_batched(feeds(), 32).unwrap()[&sink]);
    assert!(!reference.is_empty());

    for shards in [2usize, 8] {
        let exec = ShardedExecutor::new(shards)
            .with_workers(2)
            .with_batch_size(16);
        let out = exec.run(|| join_graph().0, feeds()).unwrap();
        assert_eq!(
            reference,
            join_rows(&out[&sink]),
            "keyless spread changed results at shards={shards}"
        );
    }
}

// ---------------------------------------------------------------------
// Non-shardable graphs degrade to a pinned plan, not to wrong answers.
// ---------------------------------------------------------------------

fn band_join_graph() -> (QueryGraph, NodeId) {
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

#[test]
fn probabilistic_join_degrades_to_pinned_plan_and_stays_exact() {
    let (proto, sink) = band_join_graph();
    let plan = ShardedExecutor::shard_plan(&proto).unwrap();
    assert!(
        !plan.is_parallel(),
        "a probabilistic join must pin the whole stream to one shard"
    );
    // Degraded parallelism is observable, not silent.
    assert_eq!(plan.num_entries(), 2);
    assert_eq!(plan.pinned_entries(), 2);
    let describe = plan.describe();
    assert!(
        describe.contains("2/2 entries pinned") && describe.contains("degraded"),
        "describe() must call out the fully pinned plan: {describe}"
    );
    let describe_via_exec = ShardedExecutor::describe_plan(&proto).unwrap();
    assert_eq!(describe, describe_via_exec);

    let schema = Schema::builder()
        .field("id", DataType::Int)
        .field("x", DataType::Uncertain)
        .build();
    let mk = |off: f64, shift: u64| -> Vec<Tuple> {
        (0..40u64)
            .map(|i| {
                Tuple::new(
                    schema.clone(),
                    vec![
                        Value::Int(i as i64),
                        Value::from(Updf::Parametric(Dist::gaussian((i % 5) as f64 + off, 0.5))),
                    ],
                    i * 100 + shift,
                )
            })
            .collect()
    };
    let (left, right) = (mk(0.0, 0), mk(0.25, 50));
    let feeds = || {
        vec![
            ("left".to_string(), 0usize, left.clone()),
            ("right".to_string(), 1usize, right.clone()),
        ]
    };
    let (mut g, _) = band_join_graph();
    let reference = join_rows(&g.run_batched(feeds(), 16).unwrap()[&sink]);
    assert!(!reference.is_empty());

    let exec = ShardedExecutor::new(4).with_workers(2).with_batch_size(16);
    let out = exec.run(|| band_join_graph().0, feeds()).unwrap();
    assert_eq!(reference, join_rows(&out[&sink]));
}

// ---------------------------------------------------------------------
// Worker-thread panics surface as Err at the driver.
// ---------------------------------------------------------------------

struct PanicOn {
    trigger: i64,
}

impl Operator for PanicOn {
    fn name(&self) -> &str {
        "panic-on"
    }

    fn process_batch(&mut self, _port: usize, mut batch: Batch) -> Batch {
        batch.hydrate();
        if batch.iter().any(|t| t.int("v").unwrap() == self.trigger) {
            panic!("injected operator failure at v={}", self.trigger);
        }
        batch
    }

    fn partition_keys(&self) -> uncertain_streams::core::Partitioning {
        uncertain_streams::core::Partitioning::Any
    }
}

fn panic_graph(trigger: i64) -> (QueryGraph, NodeId) {
    let mut g = QueryGraph::new();
    let op = g.add(Box::new(PanicOn { trigger }));
    let sink = g.add(Box::new(Passthrough::new("sink")));
    g.connect(op, sink, 0).unwrap();
    g.source("in", op);
    g.sink(sink);
    (g, sink)
}

fn panic_inputs() -> Vec<Tuple> {
    let schema = Schema::builder().field("v", DataType::Int).build();
    (0..500u64)
        .map(|i| Tuple::new(schema.clone(), vec![Value::Int(i as i64)], i))
        .collect()
}

/// Runs the panicking graph at `shards` × `workers` and checks the typed
/// error names the panicking operator and carries its message.
fn assert_operator_panic_surfaces(shards: usize, workers: usize) {
    let exec = ShardedExecutor::new(shards)
        .with_workers(workers)
        .with_batch_size(8);
    let err = exec
        .run(
            || panic_graph(250).0,
            vec![("in".into(), 0, panic_inputs())],
        )
        .unwrap_err();
    match err {
        EngineError::OperatorPanicked(msg) => {
            assert!(
                msg.contains("`panic-on`"),
                "panicking operator named: {msg}"
            );
            assert!(msg.contains("injected operator failure"), "msg: {msg}");
        }
        other => panic!("expected OperatorPanicked, got {other:?}"),
    }
}

/// Single pipeline and wide sharding alike surface the panic as `Err`.
#[test]
fn sharded_runtime_surfaces_operator_panics() {
    assert_operator_panic_surfaces(1, 1);
    assert_operator_panic_surfaces(8, 2);
}

/// The multi-threaded configuration (four shard pipelines on a
/// two-thread worker pool): a panic on a worker thread reaches the
/// driver as `OperatorPanicked` naming the operator.
#[test]
fn threaded_executor_surfaces_operator_panics() {
    assert_operator_panic_surfaces(4, 2);
}

/// A keyed anchor whose key attribute is minted *downstream* of the
/// source: the router evaluates the key on raw source tuples, so the key
/// closure panics — which must surface as `Err`, not unwind the caller.
#[test]
fn routing_key_panic_surfaces_as_error() {
    let factory = || {
        let mut g = QueryGraph::new();
        let project = g.add(Box::new(Project::new(vec![Derivation::Certain {
            out: uncertain_streams::core::schema::Field::new(
                "g2",
                uncertain_streams::core::schema::DataType::Int,
            ),
            f: Box::new(|t: &Tuple| Value::Int(t.int("g").unwrap() * 2)),
        }])));
        let agg = g.add(Box::new(WindowedAggregate::new(
            WindowKind::Tumbling(1_000),
            |t: &Tuple| GroupKey::from_value(t.get("g2").unwrap()).unwrap(),
            vec![AggSpec {
                field: "x".into(),
                func: AggFunc::Sum,
                out: "total".into(),
                strategy: Strategy::Clt,
            }],
        )));
        g.connect(project, agg, 0).unwrap();
        g.source("in", project);
        g.sink(agg);
        g
    };
    let exec = ShardedExecutor::new(4).with_workers(1);
    let err = exec
        .run(factory, vec![("in".into(), 0, q1_inputs())])
        .unwrap_err();
    match err {
        EngineError::OperatorPanicked(msg) => {
            assert!(msg.contains("routing"), "routing panic labeled: {msg}")
        }
        other => panic!("expected OperatorPanicked, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Telemetry non-perturbation: the always-on counters, sketches, and
// journal — with a registry bound on top — must not change one output
// byte, and what they count must reconcile exactly with the feed.
// ---------------------------------------------------------------------

/// Drive a session over a ts-ordered feed the same way
/// `ShardedExecutor::run` does (coalescing per-(node, port) batches),
/// so telemetry tests observe the production push pattern.
fn push_feed(
    session: &mut uncertain_streams::runtime::session::ShardedSession,
    inputs: Vec<(String, usize, Vec<Tuple>)>,
    batch_size: usize,
) {
    let feed = session.ordered_feed(inputs).unwrap();
    let mut cur: Option<(NodeId, usize, Batch)> = None;
    for (_, node, port, tuple) in feed {
        match &mut cur {
            Some((n, p, b)) if *n == node && *p == port && b.len() < batch_size => b.push(tuple),
            slot => {
                if let Some((n, p, b)) = slot.take() {
                    session.push_batch(n, p, b).unwrap();
                }
                *slot = Some((node, port, Batch::one(tuple)));
            }
        }
    }
    if let Some((n, p, b)) = cur {
        session.push_batch(n, p, b).unwrap();
    }
}

#[test]
fn staged_run_with_registry_bound_is_byte_identical_and_counters_reconcile() {
    let (readings, refs) = agg_join_inputs();
    let feeds = || {
        vec![
            ("readings".to_string(), 0usize, readings.clone()),
            ("refs".to_string(), 1usize, refs.clone()),
        ]
    };
    let (mut g, sink) = agg_join_graph();
    let reference = joined_rows(&g.run_batched(feeds(), 64).unwrap()[&sink]);
    assert!(!reference.is_empty());

    let exec = ShardedExecutor::new(4).with_workers(2).with_batch_size(48);
    let mut session = exec.session(|| agg_join_graph().0).unwrap();
    let registry = MetricsRegistry::new();
    session.bind_registry(&registry);
    let registered = registry.len();
    assert!(registered > 0, "binding must register the engine families");
    session.bind_registry(&registry);
    assert_eq!(
        registry.len(),
        registered,
        "bind_registry must be idempotent (adoption, not duplication)"
    );

    let telem = session.telemetry().clone();
    push_feed(&mut session, feeds(), 48);
    let out = session.finish().unwrap();
    assert_eq!(
        reference,
        joined_rows(&out[&sink]),
        "a bound registry must not perturb output"
    );

    // Ingest counters reconcile exactly with the feed.
    let n_total = (readings.len() + refs.len()) as u64;
    assert_eq!(telem.tuples_pushed.get(), n_total);
    assert!(telem.batches_pushed.get() > 0);
    let routed0: u64 = (0..4).map(|s| telem.routed(0, s).get()).sum();
    assert_eq!(
        routed0,
        readings.len() as u64,
        "every reading routes into exactly one stage-0 shard"
    );
    let routed1: u64 = (0..4).map(|s| telem.routed(1, s).get()).sum();
    assert!(
        routed1 >= refs.len() as u64,
        "stage 1 sees at least the refs entries"
    );
    assert!(
        telem.exchange_forwarded(1).get() > 0,
        "sealed window rows must cross the exchange"
    );

    // Per-operator counters: the stage-0 entry operator sees the whole
    // readings feed, split across shards.
    let select_in: u64 = telem
        .op_entries()
        .iter()
        .filter(|e| e.op == "select" && e.stage == 0)
        .map(|e| e.telem.tuples_in.get())
        .sum();
    assert_eq!(select_in, readings.len() as u64);

    // Watermark-lag sketches: seals happened, lag is non-zero (the feed
    // spans event time), quantiles are ordered.
    assert!(telem.watermark_sealed.get() > 0);
    let lag = telem.watermark_lag(0).snapshot();
    assert!(lag.count > 0, "stage 0 must have sealed at least once");
    assert!(lag.max > 0.0, "lag quantiles must be non-zero");
    assert!(lag.min >= 0.0 && lag.p50 <= lag.p99 && lag.p99 <= lag.max);

    // The journal saw routing, sealing, and exchange traffic.
    let journal = telem.journal();
    assert!(journal.recorded() > 0);
    let events = journal.all();
    assert!(events
        .iter()
        .any(|e| matches!(e.detail, TraceDetail::ShardRouted { stage: 0, .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e.detail, TraceDetail::WindowSealed { .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e.detail, TraceDetail::ExchangeForwarded { stage: 1, .. })));

    // The registry reads the same cells the session bumped.
    let snap = registry.snapshot();
    let pushed = snap
        .iter()
        .find(|m| m.family == "engine_tuples_pushed_total")
        .expect("adopted family");
    assert_eq!(pushed.value, MetricValue::Counter(n_total));
    let routed_via_registry: u64 = snap
        .iter()
        .filter(|m| {
            m.family == "engine_shard_routed_tuples_total"
                && m.labels.iter().any(|(k, v)| k == "stage" && v == "0")
        })
        .map(|m| match &m.value {
            MetricValue::Counter(v) => *v,
            other => panic!("routed must be a counter, got {other:?}"),
        })
        .sum();
    assert_eq!(routed_via_registry, readings.len() as u64);

    let text = registry.render_text();
    assert!(text.contains("# TYPE engine_tuples_pushed_total counter"));
    assert!(text.contains("engine_watermark_lag{stage=\"0\",quantile=\"0.5\"}"));
    assert!(text.contains("engine_op_tuples_in_total{op=\"select\""));
}

#[test]
fn single_pipeline_session_telemetry_reconciles_without_perturbation() {
    let inputs = q1_inputs();
    let (mut g, sink) = q1_graph();
    let reference = canonical(
        &g.run_batched(vec![("in".into(), 0, inputs.clone())], 64)
            .unwrap()[&sink],
    );

    let exec = ShardedExecutor::new(1).with_batch_size(64);
    let mut session = exec.session(|| q1_graph().0).unwrap();
    let registry = MetricsRegistry::new();
    session.bind_registry(&registry);
    let telem = session.telemetry().clone();
    push_feed(&mut session, vec![("in".into(), 0, inputs.clone())], 64);
    // A serving driver seals incrementally; mid-stream seals must not
    // change what finish() ultimately emits.
    session.advance_watermark(3_500).unwrap();
    let out = session.finish().unwrap();
    assert_eq!(reference, canonical(&out[&sink]));

    assert_eq!(telem.tuples_pushed.get(), inputs.len() as u64);
    assert_eq!(telem.routed(0, 0).get(), inputs.len() as u64);
    let lag = telem.watermark_lag(0).snapshot();
    assert!(lag.count > 0 && lag.max > 0.0);
    assert!(telem
        .journal()
        .all()
        .iter()
        .any(|e| matches!(e.detail, TraceDetail::BatchPumped { .. })));
}

// ---------------------------------------------------------------------
// Sink reporting and one-shard release: `finish` names every registered
// sink, and a one-shard session drains exactly what a plain
// `ExecSession` drains after the same pushes, in arrival order.
// ---------------------------------------------------------------------

#[test]
fn finish_reports_empty_sinks_at_every_shard_count() {
    let schema = Schema::builder()
        .field("g", DataType::Int)
        .field("x", DataType::Uncertain)
        .build();
    // P(x > 0) is nil for every reading, so the select drops them all.
    let filtered_out: Vec<Tuple> = (0..40u64)
        .map(|i| {
            Tuple::new(
                schema.clone(),
                vec![
                    Value::Int((i % 3) as i64),
                    Value::from(Updf::Parametric(Dist::gaussian(-50.0, 1.0))),
                ],
                i * 10,
            )
        })
        .collect();
    for (label, inputs) in [("empty feed", Vec::new()), ("filtered feed", filtered_out)] {
        let (mut g, sink) = q1_graph();
        let reference = g
            .run_batched(vec![("in".into(), 0, inputs.clone())], 16)
            .unwrap();
        assert_eq!(reference.get(&sink).map(Vec::len), Some(0), "{label}");
        for shards in [1, 4] {
            let out = ShardedExecutor::new(shards)
                .with_workers(2)
                .run(|| q1_graph().0, vec![("in".into(), 0, inputs.clone())])
                .unwrap();
            assert_eq!(
                out.get(&sink).map(Vec::len),
                Some(0),
                "{label}, shards={shards}: the empty sink must be reported"
            );
            let mut keys: Vec<usize> = out.keys().map(|n| n.index()).collect();
            let mut want: Vec<usize> = reference.keys().map(|n| n.index()).collect();
            keys.sort();
            want.sort();
            assert_eq!(keys, want, "{label}, shards={shards}");
        }
    }
}

/// A stateless pass-through that declares itself `Global`, so any plan
/// containing it is pinned and runs on one shard at every shard count.
struct SerialPass;

impl Operator for SerialPass {
    fn name(&self) -> &str {
        "serial-pass"
    }

    fn process_batch(&mut self, _port: usize, batch: Batch) -> Batch {
        batch
    }

    fn partition_keys(&self) -> uncertain_streams::core::Partitioning {
        uncertain_streams::core::Partitioning::Global
    }
}

fn arrival_graph() -> (QueryGraph, NodeId) {
    let mut g = QueryGraph::new();
    let op = g.add(Box::new(SerialPass));
    let sink = g.add(Box::new(Passthrough::new("sink")));
    g.connect(op, sink, 0).unwrap();
    g.source("in", op);
    g.sink(sink);
    (g, sink)
}

/// Pushes whose arrival order is not the canonical order: each push's
/// same-ts rows arrive in descending content order (lineage ids, which
/// the canonical key compares first, descend with them), and a later
/// push shares the ts of the one before it (a `ts < W` hold would keep
/// both back). The 80-row push is long enough to go columnar on the way
/// in.
fn arrival_feed() -> Vec<Vec<Tuple>> {
    let schema = Schema::builder().field("v", DataType::Int).build();
    let at = |ts: u64, n: i64| {
        let mut rows: Vec<Tuple> = (0..n)
            .map(|v| Tuple::new(schema.clone(), vec![Value::Int(v)], ts))
            .collect();
        rows.reverse();
        rows
    };
    vec![
        at(10, 3),
        at(10, 2),
        at(20, 80),
        at(20, 4),
        at(35, 3),
        at(40, 2),
    ]
}

fn by_node(map: std::collections::HashMap<NodeId, Vec<Tuple>>) -> Vec<(usize, Vec<Tuple>)> {
    let mut v: Vec<(usize, Vec<Tuple>)> = map.into_iter().map(|(n, t)| (n.index(), t)).collect();
    v.sort_by_key(|(n, _)| *n);
    v
}

#[test]
fn one_shard_sessions_release_on_arrival_like_exec_session() {
    use uncertain_streams::runtime::session::ShardedSession;
    assert!(
        !ShardedExecutor::shard_plan(&arrival_graph().0)
            .unwrap()
            .is_parallel(),
        "a global operator pins the plan"
    );
    let sessions = vec![
        ("single", ShardedSession::single(arrival_graph().0).unwrap()),
        (
            "1 shard",
            ShardedExecutor::new(1)
                .session(|| arrival_graph().0)
                .unwrap(),
        ),
        (
            "4 shards, pinned plan",
            ShardedExecutor::new(4)
                .session(|| arrival_graph().0)
                .unwrap(),
        ),
    ];
    for (label, mut session) in sessions {
        let (g, sink) = arrival_graph();
        let mut reference = g.into_session().unwrap();
        let node = session.source_node("in").unwrap();
        let mut feed = arrival_feed().into_iter().peekable();
        let mut push = 0;
        while let Some(rows) = feed.next() {
            reference.push(node, 0, Batch::from(rows.clone()));
            session.push_batch(node, 0, Batch::from(rows)).unwrap();
            if feed.peek().is_none() {
                break; // the last push stays undrained for `finish`
            }
            let want = reference.drain_collected();
            let got = session.drain_collected().unwrap();
            assert_eq!(got.len(), 1, "{label}: push {push} releases at once");
            let mut canonical = got[0].1.clone();
            canonical_sort(&mut canonical);
            assert_ne!(
                format!("{canonical:?}"),
                format!("{:?}", got[0].1),
                "{label}: push {push} must arrive out of canonical order"
            );
            assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "{label}: drain after push {push}"
            );
            push += 1;
        }
        let want = by_node(reference.finish());
        assert_eq!(want.len(), 1);
        assert_eq!(want[0].0, sink.index());
        assert!(!want[0].1.is_empty());
        assert_eq!(
            format!("{:?}", by_node(session.finish().unwrap())),
            format!("{want:?}"),
            "{label}: finish remainder"
        );
    }
}
