//! The workloads: which graph runs, how it is served, what feeds it.

use crate::loadgen::{Payload, WINDOW_MS};
use ustream_core::ops::aggregate::{AggFunc, AggSpec, Strategy, WindowKind, WindowedAggregate};
use ustream_core::ops::join::WindowJoin;
use ustream_core::ops::project::{Derivation, Project};
use ustream_core::ops::select::{Predicate, Select};
use ustream_core::ops::Passthrough;
use ustream_core::query::QueryGraph;

/// Tuples per `Client::publish` in the closed-loop phase.
pub const SATURATE_FRAME: usize = 512;
/// Shards of the `join_sharded` serving session.
pub const JOIN_SHARDS: usize = 2;
/// The selection threshold of Q1: keep tuples with P(x > 2) ≥ 0.05.
pub const SELECT_THRESHOLD: f64 = 2.0;
pub const SELECT_MIN_PROB: f64 = 0.05;
/// The projection `y = 0.5·x + 1` whose SUM the aggregate emits.
pub const PROJECT_A: f64 = 0.5;
pub const PROJECT_B: f64 = 1.0;

/// One served workload. `rfid_capture` is not served and lives in
/// [`crate::rfid`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Served {
    pub name: &'static str,
    pub payload: Payload,
    /// Staged aggregate → keyed join over two sources, served sharded.
    pub join: bool,
    /// Open-loop data rate, tuples/s (fixed; see README "Rates").
    pub paced_rate: usize,
}

pub const Q1_GAUSS: Served = Served {
    name: "q1_gauss",
    payload: Payload::Gauss,
    join: false,
    paced_rate: 50_000,
};
pub const Q1_MIXED: Served = Served {
    name: "q1_mixed",
    payload: Payload::Mixed,
    join: false,
    paced_rate: 25_000,
};
pub const JOIN_SHARDED: Served = Served {
    name: "join_sharded",
    payload: Payload::Gauss,
    join: true,
    paced_rate: 20_000,
};
pub const RFID_CAPTURE: &str = "rfid_capture";

/// Every workload name, in the order `--all` runs them.
pub const ALL: [&str; 4] = [
    Q1_GAUSS.name,
    Q1_MIXED.name,
    JOIN_SHARDED.name,
    RFID_CAPTURE,
];

pub fn served(name: &str) -> Option<Served> {
    [Q1_GAUSS, Q1_MIXED, JOIN_SHARDED]
        .into_iter()
        .find(|w| w.name == name)
}

impl Served {
    /// Data tuples per paced frame (one frame per 100 ms).
    pub fn paced_frame(&self) -> usize {
        self.paced_rate * WINDOW_MS as usize / 1000
    }

    fn strategy(&self) -> Strategy {
        match self.payload {
            Payload::Gauss => Strategy::Clt,
            Payload::Mixed => Strategy::Auto,
        }
    }

    /// Q1's operators, built from the declarative forms so the columnar
    /// kernels can engage wherever the payload allows.
    fn q1_ops(&self) -> (Select, Project, WindowedAggregate) {
        let select = Select::new(
            Predicate::UncertainAbove("x".into(), SELECT_THRESHOLD),
            SELECT_MIN_PROB,
        )
        .without_conditioning();
        let project = Project::new(vec![
            Derivation::CertainLinear {
                input: "tag".into(),
                a: 2.5,
                b: 0.0,
                out: "weight".into(),
            },
            Derivation::Linear {
                input: "x".into(),
                a: PROJECT_A,
                b: PROJECT_B,
                out: "y".into(),
            },
        ]);
        let agg = WindowedAggregate::keyed_by_field(
            WindowKind::Tumbling(WINDOW_MS),
            "g",
            vec![AggSpec {
                field: "y".into(),
                func: AggFunc::Sum,
                out: "total".into(),
                strategy: self.strategy(),
            }],
        );
        (select, project, agg)
    }

    /// `select → project → tumbling SUM → sink`, source `in`.
    pub fn q1_graph(&self) -> QueryGraph {
        let (select, project, agg) = self.q1_ops();
        let mut g = QueryGraph::new();
        let select = g.add(Box::new(select));
        let project = g.add(Box::new(project));
        let agg = g.add(Box::new(agg));
        let sink = g.add(Box::new(Passthrough::new("sink")));
        g.connect(select, project, 0).expect("fresh nodes");
        g.connect(project, agg, 0).expect("fresh nodes");
        g.connect(agg, sink, 0).expect("fresh nodes");
        g.source("in", select);
        g.sink(sink);
        g
    }

    /// Q1 feeding a keyed equi-join against the reference stream
    /// (source `refs`, join port 1): two keyed anchors, so the shard
    /// plan cuts the graph into two exchange-connected stages. The join
    /// range is one window, so each aggregate row meets the reference
    /// rows of its own and the neighbouring windows only and join state
    /// stays bounded however long the run.
    fn staged_graph(&self) -> QueryGraph {
        let (select, project, agg) = self.q1_ops();
        let join = WindowJoin::keyed_by_fields(WINDOW_MS, "group", "gname", 0.0);
        let mut g = QueryGraph::new();
        let select = g.add(Box::new(select));
        let project = g.add(Box::new(project));
        let agg = g.add(Box::new(agg));
        let join = g.add(Box::new(join));
        let sink = g.add(Box::new(Passthrough::new("sink")));
        g.connect(select, project, 0).expect("fresh nodes");
        g.connect(project, agg, 0).expect("fresh nodes");
        g.connect(agg, join, 0).expect("fresh nodes");
        g.connect(join, sink, 0).expect("fresh nodes");
        g.source("in", select);
        g.source("refs", join);
        g.sink(sink);
        g
    }

    /// The graph this workload serves.
    pub fn graph(&self) -> QueryGraph {
        if self.join {
            self.staged_graph()
        } else {
            self.q1_graph()
        }
    }
}
