//! Shard planning: cut a compiled graph into exchange-connected stages
//! and decide, per stage entry, how tuples are routed across shards.
//!
//! ## Stages and exchanges
//!
//! A graph whose operators are all `Any`/`Key` partitioning is cut at
//! **keyed-anchor boundaries**: every node gets a *stage index* equal to
//! the number of keyed stateful operators strictly upstream of it, so a
//! chain `select → agg(by g) → join(by k) → sink` splits into stage 0
//! (`select`, `agg`) and stage 1 (`join`, `sink`). Each stage runs
//! key-partitioned across the worker pool; an **exchange** carries every
//! edge that crosses a stage boundary, re-shuffling the producing
//! stage's output by the next stage's partition key (with per-shard
//! watermark/EOS propagation and the canonical `(ts, content)` merge at
//! the boundary). Chained keyed anchors therefore shard stage-by-stage
//! instead of degrading to a single pinned pipeline. A trailing segment
//! with no anchor of its own (the common `… → agg → sink` tail) is
//! folded back into its producing stage — no exchange is needed where
//! no re-keying happens.
//!
//! ## Per-stage routing rules
//!
//! Within each stage, the planner reads each operator's [`Partitioning`]
//! declaration and assigns every stage entry — a registered source node
//! owned by the stage, or the target of a cut edge — one of three rules:
//!
//! - **Keyed** — the entry's within-stage downstream cone contains
//!   exactly one keyed stateful operator (its *anchor*); tuples route by
//!   the anchor's partition key so every group's state lives on one
//!   shard.
//! - **Spread** — no stateful operator in the cone; tuples spread
//!   round-robin (stateless operators replicate freely).
//! - **Pinned** — conflicting anchors or an ambiguous anchor port: the
//!   entry's tuples all go to shard 0, where a single instance sees the
//!   whole sub-stream.
//!
//! Pinning cascades within a stage: a keyed anchor fed by *any* pinned
//! entry would see its per-key state split between shards, so all
//! entries feeding that anchor are pinned with it.
//!
//! ## Global operators
//!
//! A graph containing any [`Partitioning::Global`] operator (count
//! windows, probabilistic joins, sampling aggregates) falls back to the
//! single-stage analysis with the classic cascading-pin rules: a global
//! operator's output stream can be order-sensitive (Monte-Carlo rngs),
//! so re-ordering it through an exchange would not preserve exact
//! equivalence. Degraded configurations lose parallelism, never
//! correctness.

use ustream_core::query::{CompiledPlan, QueryGraph};
use ustream_core::value::GroupKey;
use ustream_core::{NodeId, Partitioning, Tuple};

/// How tuples entering at one stage entry choose a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteRule {
    /// Hash the partition key computed by the anchor operator. `port` is
    /// the anchor input port flows from this entry arrive on; `None`
    /// means the entry node *is* the anchor and the feed's own port is
    /// used.
    Keyed { anchor: NodeId, port: Option<usize> },
    /// Stateless cone: round-robin across shards.
    Spread,
    /// All tuples to shard 0.
    Pinned,
}

/// One graph edge that crosses a stage boundary: the output of `from`
/// (captured as a stage sink) is re-shuffled by `to`'s stage rules and
/// delivered to `to`'s input `port`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CutEdge {
    pub from: NodeId,
    pub to: NodeId,
    pub port: usize,
}

/// The staged routing decision for a compiled graph.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Rule per node index. Only stage-entry indices (registered sources
    /// and cut-edge targets) are ever consulted; everything else
    /// defaults to `Pinned`. A flat table because the driver reads it
    /// once per routed tuple.
    rules: Vec<RouteRule>,
    /// Stage index per node.
    stage_of: Vec<usize>,
    /// Number of stages (≥ 1).
    num_stages: usize,
    /// Edges crossing stage boundaries, in graph edge order.
    cuts: Vec<CutEdge>,
    /// True when at least one entry routes by key or spreads — i.e. the
    /// plan actually uses more than one shard when shards > 1.
    parallel: bool,
    /// Registered source entries as `(stream name, node index)`, sorted
    /// by stream name for stable diagnostics.
    entries: Vec<(String, usize)>,
    /// Operator name per node index (anchor rendering in
    /// [`ShardPlan::describe`]).
    op_names: Vec<String>,
}

impl ShardPlan {
    /// Analyze `graph` (with its compiled `plan`) into stages, cut
    /// edges, and routing rules for every stage entry.
    pub fn analyze(graph: &QueryGraph, plan: &CompiledPlan) -> ShardPlan {
        let n = plan.num_nodes();
        let partitioning: Vec<Partitioning> = (0..n)
            .map(|i| graph.operator(NodeId::from_index(i)).partition_keys())
            .collect();
        let any_global = partitioning.contains(&Partitioning::Global);

        // Stage index = number of keyed anchors strictly upstream. With
        // a global operator anywhere we keep the whole graph in one
        // stage (see module docs); otherwise cut at keyed anchors and
        // fold an anchor-free trailing segment back into its producer.
        let stage_of: Vec<usize> = if any_global {
            vec![0; n]
        } else {
            let mut depth = vec![0usize; n];
            for &i in plan.topo_order() {
                let out_depth = depth[i] + usize::from(partitioning[i] == Partitioning::Key);
                for &(to, _) in plan.downstream_of(NodeId::from_index(i)) {
                    depth[to] = depth[to].max(out_depth);
                }
            }
            let max_depth = depth.iter().copied().max().unwrap_or(0);
            let last_has_anchor =
                (0..n).any(|i| depth[i] == max_depth && partitioning[i] == Partitioning::Key);
            if max_depth > 0 && !last_has_anchor {
                for d in depth.iter_mut() {
                    if *d == max_depth {
                        *d = max_depth - 1;
                    }
                }
            }
            depth
        };
        let num_stages = stage_of.iter().copied().max().unwrap_or(0) + 1;

        // Cut edges: everything crossing a stage boundary.
        let mut cuts: Vec<CutEdge> = Vec::new();
        for i in 0..n {
            for &(to, port) in plan.downstream_of(NodeId::from_index(i)) {
                if stage_of[i] != stage_of[to] {
                    cuts.push(CutEdge {
                        from: NodeId::from_index(i),
                        to: NodeId::from_index(to),
                        port,
                    });
                }
            }
        }

        // Per-stage entries: registered sources owned by the stage plus
        // cut-edge targets.
        let registered: Vec<usize> = graph.source_entries().map(|(_, id)| id.index()).collect();
        let mut stage_entries: Vec<Vec<usize>> = vec![Vec::new(); num_stages];
        for &e in &registered {
            stage_entries[stage_of[e]].push(e);
        }
        for c in &cuts {
            let t = c.to.index();
            if !stage_entries[stage_of[t]].contains(&t) {
                stage_entries[stage_of[t]].push(t);
            }
        }

        // Within-stage reachability (self included), as bitsets over the
        // stage-internal edges. Graphs are tens of nodes, not millions.
        let mut reach: Vec<Vec<bool>> = vec![vec![false; n]; n];
        for &i in plan.topo_order().iter().rev() {
            reach[i][i] = true;
            let succs: Vec<usize> = plan
                .downstream_of(NodeId::from_index(i))
                .iter()
                .filter(|&&(to, _)| stage_of[to] == stage_of[i])
                .map(|&(to, _)| to)
                .collect();
            for s in succs {
                let src = std::mem::take(&mut reach[s]);
                for (x, y) in reach[i].iter_mut().zip(src.iter()) {
                    *x |= *y;
                }
                reach[s] = src;
            }
        }

        // Per-stage rule analysis with cascading pinning.
        let mut rules: Vec<RouteRule> = vec![RouteRule::Pinned; n];
        for entries in &stage_entries {
            for &e in entries {
                let anchors: Vec<usize> = (0..n)
                    .filter(|&i| reach[e][i] && partitioning[i] != Partitioning::Any)
                    .collect();
                let rule = match anchors.as_slice() {
                    [] => RouteRule::Spread,
                    [a] if partitioning[*a] == Partitioning::Key => {
                        match anchor_port(plan, &reach, &stage_of, e, *a) {
                            Some(port) => RouteRule::Keyed {
                                anchor: NodeId::from_index(*a),
                                port,
                            },
                            None => RouteRule::Pinned,
                        }
                    }
                    _ => RouteRule::Pinned,
                };
                rules[e] = rule;
            }
            // Fixpoint: a keyed anchor with any pinned feeder pins all of
            // its feeders (otherwise its per-key state would split across
            // shards).
            loop {
                let mut changed = false;
                let anchors: Vec<usize> = entries
                    .iter()
                    .filter_map(|&e| match rules[e] {
                        RouteRule::Keyed { anchor, .. } => Some(anchor.index()),
                        _ => None,
                    })
                    .collect();
                for a in anchors {
                    let feeders: Vec<usize> =
                        entries.iter().copied().filter(|&e| reach[e][a]).collect();
                    let any_pinned = feeders.iter().any(|&e| rules[e] == RouteRule::Pinned);
                    if any_pinned {
                        for e in feeders {
                            if rules[e] != RouteRule::Pinned {
                                rules[e] = RouteRule::Pinned;
                                changed = true;
                            }
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
        }

        let parallel = stage_entries
            .iter()
            .flatten()
            .any(|&e| rules[e] != RouteRule::Pinned);
        let mut named_entries: Vec<(String, usize)> = graph
            .source_entries()
            .map(|(name, id)| (name.to_string(), id.index()))
            .collect();
        named_entries.sort();
        let op_names = (0..n)
            .map(|i| graph.operator(NodeId::from_index(i)).name().to_string())
            .collect();
        ShardPlan {
            rules,
            stage_of,
            num_stages,
            cuts,
            parallel,
            entries: named_entries,
            op_names,
        }
    }

    /// The plan collapsed to what one shard runs: a single stage, no
    /// exchange edges, every entry pinned. Entry names and operator
    /// names are kept, so [`ShardPlan::describe`] still renders; callers
    /// that want the analyzed topology render it before collapsing.
    pub(crate) fn one_stage(self) -> ShardPlan {
        let n = self.stage_of.len();
        ShardPlan {
            rules: vec![RouteRule::Pinned; n],
            stage_of: vec![0; n],
            num_stages: 1,
            cuts: Vec::new(),
            parallel: false,
            ..self
        }
    }

    /// Routing rule for the stage entry `node` (nodes that are neither
    /// registered sources nor cut-edge targets are pinned).
    pub fn rule(&self, node: NodeId) -> RouteRule {
        self.rules
            .get(node.index())
            .copied()
            .unwrap_or(RouteRule::Pinned)
    }

    /// Number of stages the graph was cut into (1 = no exchange).
    pub fn num_stages(&self) -> usize {
        self.num_stages
    }

    /// Stage index of `node`.
    pub fn stage_of(&self, node: NodeId) -> usize {
        self.stage_of.get(node.index()).copied().unwrap_or(0)
    }

    /// The edges crossing stage boundaries, in graph edge order.
    pub fn cut_edges(&self) -> &[CutEdge] {
        &self.cuts
    }

    /// Whether any entry routes across shards (false ⇒ the graph runs as
    /// a single pipeline regardless of the configured shard count).
    pub fn is_parallel(&self) -> bool {
        self.parallel
    }

    /// The registered entries and their routing rules, sorted by stream
    /// name.
    pub fn entry_rules(&self) -> impl Iterator<Item = (&str, NodeId, RouteRule)> {
        self.entries
            .iter()
            .map(|(name, idx)| (name.as_str(), NodeId::from_index(*idx), self.rules[*idx]))
    }

    /// Number of registered source entries.
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }

    /// How many registered entries are pinned to shard 0 — the
    /// *degraded* portion of the plan. `pinned_entries() ==
    /// num_entries()` means every external stream enters a single
    /// pipeline no matter how many shards are configured.
    pub fn pinned_entries(&self) -> usize {
        self.entries
            .iter()
            .filter(|(_, idx)| self.rules[*idx] == RouteRule::Pinned)
            .count()
    }

    /// Stage-entry node indices of `stage`: registered sources the stage
    /// owns plus cut-edge targets, in the same order the runtime pools
    /// them.
    fn stage_entry_indices(&self, stage: usize) -> Vec<usize> {
        let mut es: Vec<usize> = self
            .entries
            .iter()
            .map(|(_, i)| *i)
            .filter(|&i| self.stage_of[i] == stage)
            .collect();
        for c in &self.cuts {
            let t = c.to.index();
            if self.stage_of[t] == stage && !es.contains(&t) {
                es.push(t);
            }
        }
        es
    }

    /// True when every entry of `stage` routes to shard 0 (all
    /// [`RouteRule::Pinned`]): the stage has exactly one consuming slot
    /// no matter how many shards are configured, so exchange input for
    /// it can be delivered whole to slot `(stage, 0)` without per-tuple
    /// shard routing or builder/pool round-trips.
    pub fn single_consumer(&self, stage: usize) -> bool {
        let es = self.stage_entry_indices(stage);
        !es.is_empty() && es.iter().all(|&e| self.rules[e] == RouteRule::Pinned)
    }

    /// True when `stage`'s producing stage (`stage − 1`) runs on exactly
    /// one slot — sealed-interval output arriving at `stage`'s exchange
    /// comes from a single producer, already in that producer's emission
    /// order, so the canonical exchange sort can be skipped whenever a
    /// linear pre-check confirms the run is ordered.
    pub fn single_producer(&self, stage: usize) -> bool {
        stage > 0 && stage < self.num_stages && self.single_consumer(stage - 1)
    }

    fn rule_text(&self, idx: usize) -> String {
        match self.rules[idx] {
            RouteRule::Keyed { anchor, port } => {
                let port = match port {
                    Some(p) => format!("port {p}"),
                    None => "feed port".to_string(),
                };
                format!("keyed on `{}` ({port})", self.op_names[anchor.index()])
            }
            RouteRule::Spread => "spread (stateless cone)".to_string(),
            RouteRule::Pinned => "pinned to shard 0".to_string(),
        }
    }

    /// Human-readable routing summary. Single-stage plans render one
    /// line per entry naming its [`RouteRule`] (with the anchor operator
    /// for keyed routes); staged plans group the lines per stage and
    /// list each exchange edge with the routing rule its re-shuffle
    /// applies. A pinned-entry footer makes lost parallelism visible
    /// instead of silent — a probabilistic join quietly pinning the plan
    /// shows up as `pinned`.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        if self.num_stages == 1 {
            for (name, idx) in &self.entries {
                out.push_str(&format!("entry `{name}` -> {}\n", self.rule_text(*idx)));
            }
        } else {
            for stage in 0..self.num_stages {
                out.push_str(&format!("stage {stage}:\n"));
                for (name, idx) in &self.entries {
                    if self.stage_of[*idx] == stage {
                        out.push_str(&format!("  entry `{name}` -> {}\n", self.rule_text(*idx)));
                    }
                }
                for c in &self.cuts {
                    if self.stage_of[c.to.index()] == stage {
                        out.push_str(&format!(
                            "  exchange `{}` -> `{}` (port {}): {}\n",
                            self.op_names[c.from.index()],
                            self.op_names[c.to.index()],
                            c.port,
                            self.rule_text(c.to.index())
                        ));
                    }
                }
            }
        }
        let pinned = self.pinned_entries();
        out.push_str(&format!(
            "{pinned}/{} entries pinned{}",
            self.entries.len(),
            if pinned == self.entries.len() && !self.entries.is_empty() {
                " — plan is fully serial (degraded)"
            } else if pinned > 0 {
                " — plan is partially degraded"
            } else {
                ""
            }
        ));
        if self.num_stages > 1 {
            out.push_str(&format!(
                "\n{} stages, {} exchange edge(s)",
                self.num_stages,
                self.cuts.len()
            ));
        }
        out
    }
}

/// The unique within-stage input port of `anchor` that flows from entry
/// `e` arrive on: `Some(None)` when `e` is the anchor itself (feed port
/// applies), `Some(Some(p))` for a unique in-edge port, `None` when
/// paths from `e` enter the anchor on more than one port (ambiguous ⇒
/// pin).
fn anchor_port(
    plan: &CompiledPlan,
    reach: &[Vec<bool>],
    stage_of: &[usize],
    e: usize,
    anchor: usize,
) -> Option<Option<usize>> {
    if e == anchor {
        return Some(None);
    }
    let mut ports: Vec<usize> = Vec::new();
    for (u, reachable) in reach[e].iter().enumerate() {
        if !reachable || stage_of[u] != stage_of[anchor] {
            continue;
        }
        for &(to, port) in plan.downstream_of(NodeId::from_index(u)) {
            if to == anchor && !ports.contains(&port) {
                ports.push(port);
            }
        }
    }
    match ports.as_slice() {
        [p] => Some(Some(*p)),
        _ => None,
    }
}

/// Deterministic 64-bit FNV-1a over a canonical [`GroupKey`] encoding —
/// stable across runs, processes, and platforms (the std `Hasher` default
/// keys are an implementation detail we must not depend on for
/// reproducible shard assignment).
pub fn stable_key_hash(key: &GroupKey) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    fnv_key(&mut h, key);
    h
}

fn fnv_byte(h: &mut u64, b: u8) {
    *h ^= b as u64;
    *h = h.wrapping_mul(0x0000_0100_0000_01b3);
}

fn fnv_key(h: &mut u64, key: &GroupKey) {
    match key {
        GroupKey::Unit => fnv_byte(h, 0),
        GroupKey::Int(i) => {
            fnv_byte(h, 1);
            for b in i.to_le_bytes() {
                fnv_byte(h, b);
            }
        }
        GroupKey::Str(s) => {
            fnv_byte(h, 2);
            for &b in s.as_bytes() {
                fnv_byte(h, b);
            }
            fnv_byte(h, 0xff);
        }
        GroupKey::Pair(a, b) => {
            fnv_byte(h, 3);
            fnv_key(h, a);
            fnv_key(h, b);
        }
    }
}

/// Shard index for a routed tuple under `rule`, given the prototype
/// graph's operators for key computation. `spread` is the driver's
/// running round-robin counter.
pub fn shard_of(
    rule: RouteRule,
    prototype: &QueryGraph,
    feed_port: usize,
    tuple: &Tuple,
    shards: usize,
    spread: &mut usize,
) -> usize {
    match rule {
        RouteRule::Pinned => 0,
        RouteRule::Spread => {
            let s = *spread % shards;
            *spread += 1;
            s
        }
        RouteRule::Keyed { anchor, port } => {
            let port = port.unwrap_or(feed_port);
            match prototype.operator(anchor).partition_key(port, tuple) {
                // Keyless tuples never touch keyed state (a `None` key
                // matches nothing); spread them round-robin so the
                // stateless work they do feed still parallelizes instead
                // of parking on shard 0.
                None => {
                    let s = *spread % shards;
                    *spread += 1;
                    s
                }
                Some(k) => (stable_key_hash(&k) % shards as u64) as usize,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ustream_core::ops::join::{JoinCondition, WindowJoin};
    use ustream_core::ops::Passthrough;
    use ustream_core::schema::{DataType, Schema};
    use ustream_core::Value;

    fn keyed_join_graph() -> (QueryGraph, NodeId) {
        let mut g = QueryGraph::new();
        let join = g.add(Box::new(WindowJoin::new(
            1_000,
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
        (g, join)
    }

    fn tuple_with_key(k: Value) -> Tuple {
        let s = Schema::builder().field("k", DataType::Int).build();
        Tuple::new(s, vec![k], 0)
    }

    #[test]
    fn keyed_tuples_route_by_stable_hash() {
        let (g, join) = keyed_join_graph();
        let plan = ShardPlan::analyze(&g, &g.compile().unwrap()).clone();
        let rule = plan.rule(join);
        assert!(matches!(rule, RouteRule::Keyed { .. }));
        let mut spread = 0usize;
        let t = tuple_with_key(Value::Int(7));
        let a = shard_of(rule, &g, 0, &t, 8, &mut spread);
        let b = shard_of(rule, &g, 0, &t, 8, &mut spread);
        assert_eq!(a, b, "same key, same shard");
        assert_eq!(
            spread, 0,
            "keyed routing does not consume the spread counter"
        );
    }

    #[test]
    fn keyless_tuples_spread_round_robin_not_shard_zero() {
        let (g, join) = keyed_join_graph();
        let plan = ShardPlan::analyze(&g, &g.compile().unwrap());
        let rule = plan.rule(join);
        let mut spread = 0usize;
        let t = tuple_with_key(Value::Null); // key closure yields None
        let shards: Vec<usize> = (0..4)
            .map(|_| shard_of(rule, &g, 0, &t, 4, &mut spread))
            .collect();
        assert_eq!(shards, vec![0, 1, 2, 3], "keyless tuples round-robin");
        assert_eq!(spread, 4);
    }

    #[test]
    fn producer_consumer_annotations_follow_pinning() {
        // Band joins are probabilistic ⇒ Global ⇒ one pinned stage:
        // single consumer at stage 0, and no producing stage above it.
        let mut g = QueryGraph::new();
        let join = g.add(Box::new(WindowJoin::new(
            1_000,
            JoinCondition::BandUncertain {
                left_field: "x".into(),
                right_field: "x".into(),
                epsilon: 1.0,
            },
            0.0,
        )));
        let sink = g.add(Box::new(Passthrough::new("sink")));
        g.connect(join, sink, 0).unwrap();
        g.source("left", join);
        g.source("right", join);
        g.sink(sink);
        let plan = ShardPlan::analyze(&g, &g.compile().unwrap());
        assert!(plan.single_consumer(0), "global join pins every entry");
        assert!(!plan.single_producer(0), "stage 0 has no producing stage");
        assert!(!plan.single_producer(1), "no stage 1 exists");

        // A fully keyed plan has parallel consumers everywhere.
        let (g, _) = keyed_join_graph();
        let plan = ShardPlan::analyze(&g, &g.compile().unwrap());
        assert!(!plan.single_consumer(0));
        assert!(!plan.single_producer(1));
    }

    #[test]
    fn stable_hash_is_platform_stable() {
        // Frozen values: reproducible shard assignment is part of the
        // determinism contract, so the hash must never silently change.
        assert_eq!(stable_key_hash(&GroupKey::Int(0)), 0x529a_2cdc_8ff5_33ac);
        assert_eq!(
            stable_key_hash(&GroupKey::Str("area-51".into())),
            stable_key_hash(&GroupKey::Str("area-51".into()))
        );
        assert_ne!(
            stable_key_hash(&GroupKey::Int(1)),
            stable_key_hash(&GroupKey::Int(2))
        );
    }
}
