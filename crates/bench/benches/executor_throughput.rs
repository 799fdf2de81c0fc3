//! Executor throughput on a Q1-style select → project → aggregate graph:
//! tuple-at-a-time single-threaded execution (`QueryGraph::run`, which is
//! `run_batched` at batch size 1) vs batched single-threaded
//! execution (batch sizes {1, 64, 1024}) vs the incremental session
//! driver vs the sharded runtime at shard counts {1, 2, 4, 8}, plus the
//! **staged exchange pipeline** (`staged/N`: the same Q1 chain feeding a
//! keyed equi-join, a two-stage plan with an exchange at the
//! aggregate→join boundary) and its single-threaded `run_batched`
//! reference (`staged/batched`).
//!
//! This is the perf-trajectory baseline for the execution engine:
//! `BENCH_executor_throughput.json` at the repo root records the
//! medians. The headline comparisons are `single/tuple_at_a_time`
//! against `single/batched/1024` and `single/batched/1024` against
//! `sharded/4/1024`. The sharded worker pool sizes itself to
//! `min(shards, cores)`, so on a single-core box the sharded rows
//! measure routing + merge overhead at zero parallelism.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::collections::HashMap;
use std::sync::Arc;
use ustream_core::batch::Batch;
use ustream_core::ops::aggregate::{AggFunc, AggSpec, Strategy, WindowKind, WindowedAggregate};
use ustream_core::ops::project::{Derivation, Project};
use ustream_core::ops::select::{Predicate, Select};
use ustream_core::ops::{Operator, Passthrough};
use ustream_core::query::{NodeId, QueryGraph};
use ustream_core::schema::{DataType, Schema};
use ustream_core::tuple::Tuple;
use ustream_core::updf::Updf;
use ustream_core::value::Value;
use ustream_prob::dist::Dist;
use ustream_runtime::ShardedExecutor;

const N_TUPLES: usize = 8_192;
const BATCH_SIZES: [usize; 3] = [1, 64, 1024];
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

// ---------------------------------------------------------------------
// Frozen baseline: the tuple-at-a-time executor this engine shipped with
// before the batched, plan-compiled rework — per delivery it re-scans the
// whole edge list into a fresh `Vec`, looks ranks up in a `HashMap`, and
// clones the tuple once per downstream edge *and* once per sink. Kept
// verbatim (over the same `Operator` objects, reached through the
// one-row `Operator::process` adapter) so the perf trajectory always has
// its origin measurable.
// ---------------------------------------------------------------------

struct SeedExecutor {
    nodes: Vec<Box<dyn Operator>>,
    /// (from, to, port)
    edges: Vec<(usize, usize, usize)>,
    sinks: Vec<usize>,
}

impl SeedExecutor {
    fn run(&mut self, feed: Vec<Tuple>, entry: usize) -> HashMap<usize, Vec<Tuple>> {
        let n = self.nodes.len();
        // Seed topo order: Kahn over repeated edge scans.
        let mut indeg = vec![0usize; n];
        for &(_, to, _) in &self.edges {
            indeg[to] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop() {
            order.push(i);
            for &(from, to, _) in &self.edges {
                if from == i {
                    indeg[to] -= 1;
                    if indeg[to] == 0 {
                        queue.push(to);
                    }
                }
            }
        }
        let rank: HashMap<usize, usize> = order.iter().enumerate().map(|(r, &i)| (i, r)).collect();
        let mut collected: HashMap<usize, Vec<Tuple>> = HashMap::new();
        for &s in &self.sinks {
            collected.insert(s, Vec::new());
        }
        for t in feed {
            self.propagate(entry, 0, t, &rank, &mut collected);
        }
        for &i in &order {
            let outs = self.nodes[i].flush();
            for t in outs {
                self.deliver(i, t, &rank, &mut collected);
            }
        }
        collected
    }

    fn propagate(
        &mut self,
        node: usize,
        port: usize,
        tuple: Tuple,
        rank: &HashMap<usize, usize>,
        collected: &mut HashMap<usize, Vec<Tuple>>,
    ) {
        let outs = self.nodes[node].process(port, tuple);
        for t in outs {
            self.deliver(node, t, rank, collected);
        }
    }

    fn deliver(
        &mut self,
        from: usize,
        tuple: Tuple,
        rank: &HashMap<usize, usize>,
        collected: &mut HashMap<usize, Vec<Tuple>>,
    ) {
        if let Some(bucket) = collected.get_mut(&from) {
            bucket.push(tuple.clone());
        }
        let targets: Vec<(usize, usize)> = self
            .edges
            .iter()
            .filter(|(f, _, _)| *f == from)
            .map(|&(_, to, port)| (to, port))
            .collect();
        for (to, port) in targets {
            debug_assert!(rank[&to] > rank[&from]);
            self.propagate(to, port, tuple.clone(), rank, collected);
        }
    }
}

fn schema() -> Arc<Schema> {
    Schema::builder()
        .field("g", DataType::Int)
        .field("tag", DataType::Int)
        .field("x", DataType::Uncertain)
        .build()
}

fn inputs() -> Vec<Tuple> {
    let s = schema();
    (0..N_TUPLES)
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

/// The Q1 operators (§2): probabilistic selection, a projection deriving
/// two attributes (one certain linear lookup, one linear transform of
/// the uncertain attribute), and a windowed group-by SUM (100-tuple
/// windows, as in Table 2). Built from the declarative forms
/// (`CertainLinear`, `keyed_by_field`) so the columnar kernels engage —
/// closure-based derivations and key functions are opaque to the
/// vectorizer and would force the row path.
fn q1_ops() -> (Select, Project, WindowedAggregate) {
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
    (select, project, agg)
}

fn q1_graph() -> (QueryGraph, NodeId) {
    let (select, project, agg) = q1_ops();
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

/// The staged workload: the Q1 chain's windowed aggregate feeding a
/// keyed equi-join against a reference stream — two keyed anchors, so
/// the shard plan cuts the graph into two exchange-connected stages.
fn staged_graph() -> (QueryGraph, NodeId) {
    use ustream_core::ops::join::WindowJoin;
    let (select, project, agg) = q1_ops();
    // Declared key fields, so the join's sorted key index and columnar
    // key extraction engage (bit-identical to the closure form).
    let join = WindowJoin::keyed_by_fields(10_000_000, "group", "gname", 0.0);
    let mut g = QueryGraph::new();
    let select = g.add(Box::new(select));
    let project = g.add(Box::new(project));
    let agg = g.add(Box::new(agg));
    let join = g.add(Box::new(join));
    let sink = g.add(Box::new(Passthrough::new("sink")));
    g.connect(select, project, 0).unwrap();
    g.connect(project, agg, 0).unwrap();
    g.connect(agg, join, 0).unwrap();
    g.connect(join, sink, 0).unwrap();
    g.source("in", select);
    g.source("refs", join);
    g.sink(sink);
    (g, sink)
}

fn ref_inputs() -> Vec<Tuple> {
    let s = Schema::builder()
        .field("rid", DataType::Int)
        .field("gname", DataType::Str)
        .build();
    (0..64u64)
        .map(|j| {
            Tuple::new(
                s.clone(),
                vec![Value::Int(j as i64), Value::from(format!("Int({})", j % 4))],
                j * (N_TUPLES as u64 / 64),
            )
        })
        .collect()
}

fn q1_seed() -> SeedExecutor {
    let (select, project, agg) = q1_ops();
    SeedExecutor {
        nodes: vec![
            Box::new(select),
            Box::new(project),
            Box::new(agg),
            Box::new(Passthrough::new("sink")),
        ],
        edges: vec![(0, 1, 0), (1, 2, 0), (2, 3, 0)],
        sinks: vec![3],
    }
}

fn bench_executor_throughput(c: &mut Criterion) {
    let feed = inputs();
    let mut group = c.benchmark_group("executor_throughput");
    group.sample_size(15);
    group.throughput(Throughput::Elements(N_TUPLES as u64));

    group.bench_function("single/tuple_at_a_time_seed", |b| {
        b.iter_batched(
            || (q1_seed(), feed.clone()),
            |(mut exec, tuples)| {
                let out = exec.run(tuples, 0);
                out[&3].len()
            },
            BatchSize::SmallInput,
        )
    });

    group.bench_function("single/tuple_at_a_time", |b| {
        b.iter_batched(
            || (q1_graph(), feed.clone()),
            |((mut g, sink), tuples)| {
                let out = g.run(vec![("in".into(), 0, tuples)]).unwrap();
                out[&sink].len()
            },
            BatchSize::SmallInput,
        )
    });

    for bs in BATCH_SIZES {
        group.bench_function(format!("single/batched/{bs}"), |b| {
            b.iter_batched(
                || (q1_graph(), feed.clone()),
                |((mut g, sink), tuples)| {
                    let out = g.run_batched(vec![("in".into(), 0, tuples)], bs).unwrap();
                    out[&sink].len()
                },
                BatchSize::SmallInput,
            )
        });
    }

    // NodeIds are positional, so the sink handle from one construction
    // addresses every factory-built copy.
    let sink = q1_graph().1;

    // Trace-sampling A/B over the incremental session driver: the same
    // Q1 feed pushed as pre-built 1024-tuple batches through a one-shard
    // `ShardedSession`, with sampling explicitly off and at 1-in-4.
    // The off row prices the machinery a never-sampled deployment pays
    // (one relaxed atomic load + early return per pushed batch); the
    // 1-in-4 row adds the modulo, clock reads, and span appends for
    // elected batches. Both pre-build their batches in setup, so they
    // compare against each other (sharded/1/1024, the same driver at
    // its untraced default, builds its feed inside the timed region).
    // `session/trace_off/1024` is also the row the
    // ≤9%-overhead-vs-`single/batched/1024` target is read from.
    for (label, every) in [
        ("session/trace_off/1024", 0u64),
        ("session/trace_1in4/1024", 4),
    ] {
        group.bench_function(label, |b| {
            b.iter_batched(
                || {
                    feed.chunks(1024)
                        .map(|chunk| Batch::from(chunk.to_vec()))
                        .collect::<Vec<Batch>>()
                },
                |batches| {
                    let exec = ShardedExecutor::new(1).with_batch_size(1024);
                    let mut session = exec.session(|| q1_graph().0).unwrap();
                    session.telemetry().traces().configure(every, 7);
                    let entry = session.source_node("in").unwrap();
                    for batch in batches {
                        session.push_batch(entry, 0, batch).unwrap();
                    }
                    let out = session.finish().unwrap();
                    out[&sink].len()
                },
                BatchSize::SmallInput,
            )
        });
    }

    for shards in SHARD_COUNTS {
        group.bench_function(format!("sharded/{shards}/1024"), |b| {
            b.iter_batched(
                || feed.clone(),
                |tuples| {
                    let exec = ShardedExecutor::new(shards).with_batch_size(1024);
                    let out = exec
                        .run(|| q1_graph().0, vec![("in".into(), 0, tuples)])
                        .unwrap();
                    out[&sink].len()
                },
                BatchSize::SmallInput,
            )
        });
    }

    // Staged exchange pipeline: aggregate → keyed join, a two-stage
    // plan. `staged/batched` is the single-threaded run_batched
    // reference over the identical graph and feed; `staged/N` pays the
    // exchange (canonical boundary sort, sealed aggregate windows
    // forwarded per watermark interval) in return for two
    // key-partitioned stages.
    let refs = ref_inputs();
    let staged_sink = staged_graph().1;
    group.bench_function("staged/batched/1024", |b| {
        b.iter_batched(
            || (staged_graph(), feed.clone(), refs.clone()),
            |((mut g, sink), tuples, refs)| {
                let out = g
                    .run_batched(
                        vec![("in".into(), 0, tuples), ("refs".into(), 1, refs)],
                        1024,
                    )
                    .unwrap();
                out[&sink].len()
            },
            BatchSize::SmallInput,
        )
    });
    for shards in SHARD_COUNTS {
        group.bench_function(format!("staged/{shards}/1024"), |b| {
            b.iter_batched(
                || (feed.clone(), refs.clone()),
                |(tuples, refs)| {
                    let exec = ShardedExecutor::new(shards).with_batch_size(1024);
                    let out = exec
                        .run(
                            || staged_graph().0,
                            vec![("in".into(), 0, tuples), ("refs".into(), 1, refs)],
                        )
                        .unwrap();
                    out[&staged_sink].len()
                },
                BatchSize::SmallInput,
            )
        });
    }

    group.finish();
}

criterion_group!(benches, bench_executor_throughput);
criterion_main!(benches);
