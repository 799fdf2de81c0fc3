//! Box-arrow query graphs (§3) and their executors.
//!
//! A [`QueryGraph`] is a DAG of operators ("boxes") connected by
//! dataflow edges ("arrows"), compiled from a query (Q1, Q2) or a
//! scientific workflow (the radar pipeline). Before execution the graph
//! is compiled **once** into a [`CompiledPlan`] — topological order,
//! per-node downstream adjacency, and a sink bitset — so the per-delivery
//! cost is an array index, not an edge-list scan plus hash lookups.
//!
//! Execution entry points:
//!
//! - [`QueryGraph::run_batched`] — single-threaded push execution moving
//!   [`Batch`]es of tuples through [`Operator::process_batch`]; operators
//!   resolve schemas once per batch and skip per-tuple allocations. The
//!   reference every other driver is checked against.
//! - [`QueryGraph::run`] — `run_batched` with batch size 1, the
//!   tuple-at-a-time form used by tests and harnesses.
//! - [`ExecSession`] — the incremental form of `run_batched`, fed batch
//!   by batch; the sharded runtime runs one per stage × shard.
//!
//! Clone-avoidance rule (all modes): a tuple/batch is cloned only when
//! fan-out requires it — once per *extra* downstream edge, plus once if
//! the emitting node is both a sink and has downstream edges. Linear
//! pipelines never clone.

use crate::batch::{Batch, BatchPool};
use crate::error::{panic_message, EngineError, Result};
use crate::metrics::OpTelemetry;
use crate::ops::Operator;
use crate::tuple::Tuple;
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::time::Instant;

/// Node handle in a query graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(usize);

impl NodeId {
    /// Positional index of this node in its graph — the index used by the
    /// adjacency tables [`CompiledPlan`] exposes.
    pub fn index(self) -> usize {
        self.0
    }

    /// Reconstruct a node handle from a positional index (the inverse of
    /// [`NodeId::index`], for walking [`CompiledPlan::downstream_of`]).
    pub fn from_index(i: usize) -> NodeId {
        NodeId(i)
    }
}

/// An edge: output of `from` feeds `to`'s input `port`.
#[derive(Debug, Clone, Copy)]
struct Edge {
    from: NodeId,
    to: NodeId,
    port: usize,
}

/// The execution-ready form of a [`QueryGraph`]: everything the
/// per-delivery hot path needs, resolved once.
///
/// Every executor compiles the same plan, so cycle detection, topological
/// ordering, and adjacency live in exactly one place.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    /// Node indices in a valid topological order.
    order: Vec<usize>,
    /// `rank[i]` = position of node `i` in `order`.
    rank: Vec<usize>,
    /// `downstream[i]` = `(to, port)` pairs fed by node `i`, in edge
    /// insertion order.
    downstream: Vec<Vec<(usize, usize)>>,
    /// Sink membership bitset.
    is_sink: Vec<bool>,
    /// The sink list (collection-map initialization).
    sinks: Vec<NodeId>,
}

impl CompiledPlan {
    /// Number of nodes in the compiled graph.
    pub fn num_nodes(&self) -> usize {
        self.order.len()
    }

    /// The cached topological order.
    pub fn topo_order(&self) -> &[usize] {
        &self.order
    }

    /// Downstream `(node, port)` adjacency of `node`.
    pub fn downstream_of(&self, node: NodeId) -> &[(usize, usize)] {
        &self.downstream[node.0]
    }

    /// Whether `node` is a registered sink.
    pub fn is_sink(&self, node: NodeId) -> bool {
        self.is_sink[node.0]
    }

    /// The registered sinks, in registration order.
    pub fn sinks(&self) -> &[NodeId] {
        &self.sinks
    }

    fn empty_collection(&self) -> HashMap<NodeId, Vec<Tuple>> {
        self.sinks.iter().map(|&s| (s, Vec::new())).collect()
    }
}

/// Kahn's algorithm over the edge list; errors on cycles. The single
/// shared cycle check for every executor.
fn topo_sort(n: usize, edges: &[Edge]) -> Result<Vec<usize>> {
    let mut indeg = vec![0usize; n];
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in edges {
        indeg[e.to.0] += 1;
        adj[e.from.0].push(e.to.0);
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(i) = queue.pop() {
        order.push(i);
        for &to in &adj[i] {
            indeg[to] -= 1;
            if indeg[to] == 0 {
                queue.push(to);
            }
        }
    }
    if order.len() != n {
        return Err(EngineError::InvalidGraph("cycle detected".into()));
    }
    Ok(order)
}

/// A dataflow graph of operators.
pub struct QueryGraph {
    nodes: Vec<Box<dyn Operator>>,
    edges: Vec<Edge>,
    /// Named entry points: external streams push here.
    sources: HashMap<String, NodeId>,
    /// Nodes whose output is collected as query results.
    sinks: Vec<NodeId>,
}

impl Default for QueryGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl QueryGraph {
    pub fn new() -> Self {
        QueryGraph {
            nodes: Vec::new(),
            edges: Vec::new(),
            sources: HashMap::new(),
            sinks: Vec::new(),
        }
    }

    /// Add an operator box.
    pub fn add(&mut self, op: Box<dyn Operator>) -> NodeId {
        self.nodes.push(op);
        NodeId(self.nodes.len() - 1)
    }

    /// Connect `from`'s output to `to`'s input `port`.
    pub fn connect(&mut self, from: NodeId, to: NodeId, port: usize) -> Result<()> {
        if from.0 >= self.nodes.len() || to.0 >= self.nodes.len() {
            return Err(EngineError::InvalidGraph(
                "edge references missing node".into(),
            ));
        }
        if port >= self.nodes[to.0].num_ports() {
            return Err(EngineError::InvalidGraph(format!(
                "operator `{}` has {} ports, edge targets port {port}",
                self.nodes[to.0].name(),
                self.nodes[to.0].num_ports()
            )));
        }
        self.edges.push(Edge { from, to, port });
        Ok(())
    }

    /// Register a named external stream entering at `node` (port 0 unless
    /// the node is a join, in which case use `source_at`).
    pub fn source(&mut self, name: impl Into<String>, node: NodeId) {
        self.sources.insert(name.into(), node);
    }

    /// Mark a node's output as a query result.
    pub fn sink(&mut self, node: NodeId) {
        if !self.sinks.contains(&node) {
            self.sinks.push(node);
        }
    }

    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Compile the graph into its execution-ready form; errors on cycles.
    pub fn compile(&self) -> Result<CompiledPlan> {
        let n = self.nodes.len();
        let order = topo_sort(n, &self.edges)?;
        let mut rank = vec![0usize; n];
        for (r, &i) in order.iter().enumerate() {
            rank[i] = r;
        }
        let mut downstream: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        for e in &self.edges {
            downstream[e.from.0].push((e.to.0, e.port));
        }
        let mut is_sink = vec![false; n];
        for s in &self.sinks {
            is_sink[s.0] = true;
        }
        Ok(CompiledPlan {
            order,
            rank,
            downstream,
            is_sink,
            sinks: self.sinks.clone(),
        })
    }

    /// Named entry node for `name`, if registered via [`Self::source`].
    pub fn source_node(&self, name: &str) -> Option<NodeId> {
        self.sources.get(name).copied()
    }

    /// Iterate the registered `(name, node)` source entries.
    pub fn source_entries(&self) -> impl Iterator<Item = (&str, NodeId)> {
        self.sources.iter().map(|(n, &id)| (n.as_str(), id))
    }

    /// Borrow the operator at `node`.
    ///
    /// Panics if the handle is out of range (handles are only minted by
    /// [`Self::add`], so this means a handle from a different graph).
    pub fn operator(&self, node: NodeId) -> &dyn Operator {
        self.nodes[node.0].as_ref()
    }

    /// Merge the named input streams into one timestamp-ordered feed of
    /// `(ts, node, port, tuple)` entries — the arrival order every
    /// executor (single-threaded and sharded) presents to the graph.
    /// Delegates to [`merged_feed`].
    pub fn ordered_feed(
        &self,
        inputs: Vec<(String, usize, Vec<Tuple>)>,
    ) -> Result<Vec<(u64, NodeId, usize, Tuple)>> {
        merged_feed(&self.sources, inputs)
    }

    /// Single-threaded execution one tuple at a time: exactly
    /// [`Self::run_batched`] with batch size 1. Returns the tuples
    /// collected at each sink.
    ///
    /// `inputs` associates stream names (registered via [`Self::source`])
    /// with (port, tuples).
    pub fn run(
        &mut self,
        inputs: Vec<(String, usize, Vec<Tuple>)>,
    ) -> Result<HashMap<NodeId, Vec<Tuple>>> {
        self.run_batched(inputs, 1)
    }

    /// Single-threaded **batched** execution: the input feed is cut into
    /// runs of up to `batch_size` consecutive tuples addressed to the
    /// same (node, port), and each run moves through the graph as one
    /// [`Batch`] via [`Operator::process_batch`].
    ///
    /// The reference every other executor is checked against. On graphs
    /// where every stateful/sink node has a single upstream path (linear
    /// pipelines and pure fan-out), every batch size produces the same
    /// sink tuples — same values, timestamps, existence probabilities,
    /// lineage. At a fan-*in* node the arrival order of tuples from
    /// different upstream paths differs within a batch window (whole
    /// batches arrive per path instead of per-tuple interleaving); an
    /// order-sensitive fan-in operator — e.g. a join whose match
    /// probability falls back to Monte Carlo draws from the operator's
    /// rng — can then produce different probabilities for individual
    /// pairs, not just a different output order.
    pub fn run_batched(
        &mut self,
        inputs: Vec<(String, usize, Vec<Tuple>)>,
        batch_size: usize,
    ) -> Result<HashMap<NodeId, Vec<Tuple>>> {
        assert!(batch_size > 0, "batch size must be positive");
        let plan = self.compile()?;
        let feed = self.ordered_feed(inputs)?;
        let mut collected = plan.empty_collection();
        let mut pending: Vec<Vec<(usize, Batch)>> = vec![Vec::new(); self.nodes.len()];
        let telem = fresh_telemetry(&mut self.nodes);

        for (node, port, batch) in chunk_feed(feed, batch_size) {
            pump_batch(
                &mut self.nodes,
                &plan,
                &mut pending,
                &mut collected,
                None,
                &telem,
                node,
                port,
                batch,
            );
        }
        flush_cascade(
            &mut self.nodes,
            &plan,
            &mut pending,
            &mut collected,
            None,
            &telem,
        );
        Ok(collected)
    }

    /// Decompose the graph into its raw parts — operators (in node-id
    /// order), edges as `(from, to, port)`, named source entries, and
    /// sinks — for builders that re-assemble subgraphs. The staged
    /// sharded planner uses this to cut one factory-built graph into
    /// per-stage pipelines connected by exchanges.
    #[allow(clippy::type_complexity)]
    pub fn dismantle(
        self,
    ) -> (
        Vec<Box<dyn Operator>>,
        Vec<(NodeId, NodeId, usize)>,
        HashMap<String, NodeId>,
        Vec<NodeId>,
    ) {
        let QueryGraph {
            nodes,
            edges,
            sources,
            sinks,
        } = self;
        let edges = edges.into_iter().map(|e| (e.from, e.to, e.port)).collect();
        (nodes, edges, sources, sinks)
    }

    /// Consume the graph into an incremental batched execution session:
    /// the long-lived form of [`Self::run_batched`] for drivers that
    /// interleave feeding with other work — each shard pipeline of the
    /// sharded runtime is one session on a worker thread.
    pub fn into_session(self) -> Result<ExecSession> {
        let plan = self.compile()?;
        let QueryGraph {
            mut nodes,
            edges: _,
            sources,
            sinks: _,
        } = self;
        let pending = vec![Vec::new(); nodes.len()];
        let collected = plan.empty_collection();
        let telem = fresh_telemetry(&mut nodes);
        Ok(ExecSession {
            nodes,
            plan,
            sources,
            pending,
            collected,
            pool: None,
            telem,
        })
    }
}

/// One independent [`OpTelemetry`] per node, attached to its operator.
/// `vec![default; n]` would clone one handle — every node sharing the
/// same atomic cells — so the cells are allocated per slot.
fn fresh_telemetry(nodes: &mut [Box<dyn Operator>]) -> Vec<OpTelemetry> {
    nodes
        .iter_mut()
        .map(|node| {
            let t = OpTelemetry::default();
            node.attach_telemetry(&t);
            t
        })
        .collect()
}

/// Merge named input streams into one timestamp-ordered feed of
/// `(ts, node, port, tuple)` entries. The **single home** of the feed
/// tiebreak — `(ts, node index, port)`, stable within ties — shared by
/// `run_batched` and the sharded session's driver: if this
/// ordering ever changed in one executor but not another, their outputs
/// would silently diverge.
pub fn merged_feed(
    sources: &HashMap<String, NodeId>,
    inputs: Vec<(String, usize, Vec<Tuple>)>,
) -> Result<Vec<(u64, NodeId, usize, Tuple)>> {
    let mut feed: Vec<(u64, NodeId, usize, Tuple)> = Vec::new();
    for (name, port, tuples) in inputs {
        let node = *sources
            .get(&name)
            .ok_or_else(|| EngineError::InvalidGraph(format!("unknown source `{name}`")))?;
        for t in tuples {
            feed.push((t.ts, node, port, t));
        }
    }
    feed.sort_by_key(|(ts, node, port, _)| (*ts, node.0, *port));
    Ok(feed)
}

/// Call into one operator. A panic unwinding out of it is re-raised with
/// the operator's name in front, so a driver that contains it (the
/// sharded runtime poisons the slot) reports which box failed.
#[inline]
fn call_op<T>(node: &mut Box<dyn Operator>, f: impl FnOnce(&mut dyn Operator) -> T) -> T {
    match std::panic::catch_unwind(AssertUnwindSafe(|| f(node.as_mut()))) {
        Ok(v) => v,
        Err(p) => std::panic::resume_unwind(Box::new(format!(
            "`{}`: {}",
            node.name(),
            panic_message(p.as_ref())
        ))),
    }
}

/// Run one batch through an operator, recording its per-operator
/// counters.
#[inline]
fn run_op_batch(node: &mut Box<dyn Operator>, t: &OpTelemetry, port: usize, batch: Batch) -> Batch {
    let n_in = batch.len() as u64;
    if batch.is_columnar() {
        t.columnar_batches.inc();
    } else {
        t.row_batches.inc();
    }
    let t0 = Instant::now();
    let out = call_op(node, |op| op.process_batch(port, batch));
    t.busy_ns.add(t0.elapsed().as_nanos() as u64);
    t.tuples_in.add(n_in);
    t.tuples_out.add(out.len() as u64);
    t.batches.inc();
    out
}

/// Push one batch into `node` and drain the graph from that node's rank
/// downward (edges only point to higher ranks, so one forward sweep over
/// the cached order fully cascades the batch).
#[allow(clippy::too_many_arguments)]
fn pump_batch(
    nodes: &mut [Box<dyn Operator>],
    plan: &CompiledPlan,
    pending: &mut [Vec<(usize, Batch)>],
    collected: &mut HashMap<NodeId, Vec<Tuple>>,
    pool: Option<&BatchPool>,
    telem: &[OpTelemetry],
    node: usize,
    port: usize,
    batch: Batch,
) {
    pending[node].push((port, batch));
    for idx in plan.rank[node]..plan.order.len() {
        let i = plan.order[idx];
        if pending[i].is_empty() {
            continue;
        }
        for (port, b) in std::mem::take(&mut pending[i]) {
            let out = run_op_batch(&mut nodes[i], &telem[i], port, b);
            if !out.is_empty() {
                deliver_batch(plan, pending, collected, pool, i, out);
            }
        }
    }
}

/// Route one produced batch: collect at sinks (recycling the spent buffer
/// into `pool` where the batch ends its life), clone once per *extra*
/// downstream edge, move into the last.
fn deliver_batch(
    plan: &CompiledPlan,
    pending: &mut [Vec<(usize, Batch)>],
    collected: &mut HashMap<NodeId, Vec<Tuple>>,
    pool: Option<&BatchPool>,
    from: usize,
    batch: Batch,
) {
    let targets = &plan.downstream[from];
    if plan.is_sink[from] {
        let bucket = collected.get_mut(&NodeId(from)).expect("sink bucket");
        if targets.is_empty() {
            let mut v: Vec<Tuple> = batch.into_vec();
            bucket.append(&mut v);
            if let Some(p) = pool {
                p.put(v);
            }
            return;
        }
        // Sink with downstream fan-out: clone, then hydrate the clone
        // (the batch itself continues downstream in whatever form).
        bucket.append(&mut batch.clone().into_vec());
    } else if targets.is_empty() {
        if let Some(p) = pool {
            p.recycle(batch);
        }
        return;
    }
    let (&(last_to, last_port), rest) = targets.split_last().expect("targets non-empty");
    for &(to, port) in rest {
        debug_assert!(plan.rank[to] > plan.rank[from], "edges follow topo order");
        pending[to].push((port, batch.clone()));
    }
    pending[last_to].push((last_port, batch));
}

/// End of stream: process leftover pending batches and flush every node
/// in topological order; flush outputs cascade downstream as batches and
/// are themselves processed before the receiver's own flush.
fn flush_cascade(
    nodes: &mut [Box<dyn Operator>],
    plan: &CompiledPlan,
    pending: &mut [Vec<(usize, Batch)>],
    collected: &mut HashMap<NodeId, Vec<Tuple>>,
    pool: Option<&BatchPool>,
    telem: &[OpTelemetry],
) {
    for idx in 0..plan.order.len() {
        let i = plan.order[idx];
        for (port, b) in std::mem::take(&mut pending[i]) {
            let out = run_op_batch(&mut nodes[i], &telem[i], port, b);
            if !out.is_empty() {
                deliver_batch(plan, pending, collected, pool, i, out);
            }
        }
        let t0 = Instant::now();
        let fl = call_op(&mut nodes[i], |op| op.flush());
        telem[i].busy_ns.add(t0.elapsed().as_nanos() as u64);
        telem[i].tuples_out.add(fl.len() as u64);
        if !fl.is_empty() {
            deliver_batch(plan, pending, collected, pool, i, Batch::from(fl));
        }
    }
}

/// An in-progress batched execution over a consumed [`QueryGraph`]:
/// batches pushed via [`ExecSession::push`] cascade through the compiled
/// plan immediately; [`ExecSession::finish`] flushes open state and
/// returns the per-sink collections.
///
/// Pushing batches in the graph's timestamp order reproduces
/// [`QueryGraph::run_batched`] exactly; any other interleaving gives the
/// semantics of that arrival order (windows close when their closing
/// tuple arrives).
pub struct ExecSession {
    nodes: Vec<Box<dyn Operator>>,
    plan: CompiledPlan,
    sources: HashMap<String, NodeId>,
    pending: Vec<Vec<(usize, Batch)>>,
    collected: HashMap<NodeId, Vec<Tuple>>,
    pool: Option<BatchPool>,
    /// Always-on per-node counters.
    telem: Vec<OpTelemetry>,
}

impl ExecSession {
    /// Recycle spent batch buffers into `pool` wherever this session ends
    /// a batch's life (sink collection, dead-end nodes).
    pub fn with_pool(mut self, pool: BatchPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// The live per-node counters, indexed by [`NodeId::index`].
    /// Handles are cloneable and readable from other threads while the
    /// session runs.
    pub fn node_telemetry(&self) -> &[OpTelemetry] {
        &self.telem
    }

    /// Named entry node for `name`, if the graph registered one.
    pub fn source_node(&self, name: &str) -> Option<NodeId> {
        self.sources.get(name).copied()
    }

    /// Borrow the operator at `node`.
    pub fn operator(&self, node: NodeId) -> &dyn Operator {
        self.nodes[node.0].as_ref()
    }

    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Push one batch into `node`'s input `port` and cascade it through
    /// the graph.
    pub fn push(&mut self, node: NodeId, port: usize, batch: Batch) {
        pump_batch(
            &mut self.nodes,
            &self.plan,
            &mut self.pending,
            &mut self.collected,
            self.pool.as_ref(),
            &self.telem,
            node.0,
            port,
            batch,
        );
    }

    /// Event time reached `watermark` (no future input with
    /// `ts < watermark`): advance every operator in topological order,
    /// cascading whatever windows the punctuation closes — the
    /// session-level form of [`Operator::advance_watermark`]. The
    /// sharded runtime broadcasts this to every shard pipeline so a
    /// shard whose keys went quiet still closes its windows when the
    /// stream's clock passes them.
    pub fn advance_watermark(&mut self, watermark: u64) {
        for idx in 0..self.plan.order.len() {
            let i = self.plan.order[idx];
            for (port, b) in std::mem::take(&mut self.pending[i]) {
                let out = run_op_batch(&mut self.nodes[i], &self.telem[i], port, b);
                if !out.is_empty() {
                    deliver_batch(
                        &self.plan,
                        &mut self.pending,
                        &mut self.collected,
                        self.pool.as_ref(),
                        i,
                        out,
                    );
                }
            }
            let t0 = Instant::now();
            let closed = call_op(&mut self.nodes[i], |op| op.advance_watermark(watermark));
            self.telem[i].busy_ns.add(t0.elapsed().as_nanos() as u64);
            self.telem[i].tuples_out.add(closed.len() as u64);
            if !closed.is_empty() {
                deliver_batch(
                    &self.plan,
                    &mut self.pending,
                    &mut self.collected,
                    self.pool.as_ref(),
                    i,
                    Batch::from(closed),
                );
            }
        }
    }

    /// Drain the tuples collected at each sink since the session started
    /// (or since the previous drain), preserving per-sink arrival order.
    /// Only sinks with new output appear; sink buckets stay registered
    /// for future pushes. This is the incremental-serving surface — a
    /// long-lived driver (e.g. a TCP server streaming results to
    /// subscribers) calls it after [`ExecSession::push`] to forward
    /// closed-window output without waiting for [`ExecSession::finish`],
    /// which then returns only what was collected after the last drain.
    pub fn drain_collected(&mut self) -> Vec<(NodeId, Vec<Tuple>)> {
        let mut drained: Vec<(NodeId, Vec<Tuple>)> = Vec::new();
        for &sink in self.plan.sinks() {
            if let Some(bucket) = self.collected.get_mut(&sink) {
                if !bucket.is_empty() {
                    drained.push((sink, std::mem::take(bucket)));
                }
            }
        }
        drained
    }

    /// Flush all operator state and return the tuples collected per sink.
    pub fn finish(mut self) -> HashMap<NodeId, Vec<Tuple>> {
        flush_cascade(
            &mut self.nodes,
            &self.plan,
            &mut self.pending,
            &mut self.collected,
            self.pool.as_ref(),
            &self.telem,
        );
        self.collected
    }
}

/// Minimum chunk length worth columnarizing before injection: below this
/// the decompose/reassemble overhead outweighs the vectorized operator
/// fast paths. Shared policy for every driver that assembles row runs
/// (the batched executors here, the sharded session's router).
pub const COLUMNAR_MIN_CHUNK: usize = 64;

/// Cut a timestamp-sorted feed into runs of up to `batch_size`
/// consecutive tuples addressed to the same (node, port). Runs long
/// enough to benefit are converted to the columnar layout so operators
/// with vectorized fast paths (select, project, windowed aggregate) get
/// column input; mixed-schema runs stay rows ([`Batch::columnarize`]
/// declines them).
fn chunk_feed(
    feed: Vec<(u64, NodeId, usize, Tuple)>,
    batch_size: usize,
) -> Vec<(usize, usize, Batch)> {
    let mut chunks: Vec<(usize, usize, Batch)> = Vec::new();
    for (_, node, port, t) in feed {
        match chunks.last_mut() {
            Some((n, p, b)) if *n == node.0 && *p == port && b.len() < batch_size => b.push(t),
            _ => {
                let mut b = Batch::with_capacity(batch_size.min(64));
                b.push(t);
                chunks.push((node.0, port, b));
            }
        }
    }
    for (_, _, b) in &mut chunks {
        if b.len() >= COLUMNAR_MIN_CHUNK {
            b.columnarize();
        }
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{MapOperator, Passthrough};
    use crate::schema::{DataType, Schema};
    use crate::value::Value;

    fn t(ts: u64, v: i64) -> Tuple {
        let s = Schema::builder().field("v", DataType::Int).build();
        Tuple::new(s, vec![Value::from(v)], ts)
    }

    fn doubling_graph() -> (QueryGraph, NodeId) {
        let mut g = QueryGraph::new();
        let double = g.add(Box::new(MapOperator::new("double", |t: Tuple| {
            let v = t.int("v").unwrap();
            let s = t.schema().clone();
            vec![Tuple::new(s, vec![Value::from(v * 2)], t.ts)]
        })));
        let sink = g.add(Box::new(Passthrough::new("sink")));
        g.connect(double, sink, 0).unwrap();
        g.source("in", double);
        g.sink(sink);
        (g, sink)
    }

    #[test]
    fn linear_pipeline_runs() {
        let (mut g, sink) = doubling_graph();
        let out = g
            .run(vec![("in".into(), 0, vec![t(1, 1), t(2, 2)])])
            .unwrap();
        let results = &out[&sink];
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].int("v").unwrap(), 2);
        assert_eq!(results[1].int("v").unwrap(), 4);
    }

    #[test]
    fn unknown_source_errors() {
        let (mut g, _) = doubling_graph();
        assert!(matches!(
            g.run(vec![("missing".into(), 0, vec![])]),
            Err(EngineError::InvalidGraph(_))
        ));
    }

    #[test]
    fn cycle_detected() {
        let mut g = QueryGraph::new();
        let a = g.add(Box::new(Passthrough::new("a")));
        let b = g.add(Box::new(Passthrough::new("b")));
        g.connect(a, b, 0).unwrap();
        g.connect(b, a, 0).unwrap();
        g.source("in", a);
        assert!(matches!(
            g.run(vec![("in".into(), 0, vec![t(0, 0)])]),
            Err(EngineError::InvalidGraph(_))
        ));
        assert!(matches!(g.compile(), Err(EngineError::InvalidGraph(_))));
    }

    #[test]
    fn compiled_plan_exposes_structure() {
        let (g, sink) = doubling_graph();
        let plan = g.compile().unwrap();
        assert_eq!(plan.num_nodes(), 2);
        assert_eq!(plan.topo_order().len(), 2);
        assert!(plan.is_sink(sink));
        assert_eq!(plan.downstream_of(NodeId(0)), &[(1, 0)]);
        assert!(plan.downstream_of(sink).is_empty());
    }

    #[test]
    fn bad_port_rejected_at_connect() {
        let mut g = QueryGraph::new();
        let a = g.add(Box::new(Passthrough::new("a")));
        let b = g.add(Box::new(Passthrough::new("b")));
        assert!(g.connect(a, b, 5).is_err());
    }

    #[test]
    fn fanout_duplicates_tuples() {
        let mut g = QueryGraph::new();
        let src = g.add(Box::new(Passthrough::new("src")));
        let s1 = g.add(Box::new(Passthrough::new("s1")));
        let s2 = g.add(Box::new(Passthrough::new("s2")));
        g.connect(src, s1, 0).unwrap();
        g.connect(src, s2, 0).unwrap();
        g.source("in", src);
        g.sink(s1);
        g.sink(s2);
        let out = g.run(vec![("in".into(), 0, vec![t(1, 7)])]).unwrap();
        assert_eq!(out[&s1].len(), 1);
        assert_eq!(out[&s2].len(), 1);
    }

    #[test]
    fn run_batched_matches_run_on_linear_pipeline() {
        let inputs: Vec<Tuple> = (0..100).map(|i| t(i, i as i64)).collect();
        let (mut g1, sink1) = doubling_graph();
        let single = g1
            .run(vec![("in".into(), 0, inputs.clone())])
            .unwrap()
            .remove(&sink1)
            .unwrap();
        for bs in [1usize, 7, 64, 1024] {
            let (mut g2, sink2) = doubling_graph();
            let batched = g2
                .run_batched(vec![("in".into(), 0, inputs.clone())], bs)
                .unwrap()
                .remove(&sink2)
                .unwrap();
            assert_eq!(single.len(), batched.len(), "batch size {bs}");
            for (a, b) in single.iter().zip(&batched) {
                assert_eq!(a.int("v").unwrap(), b.int("v").unwrap());
                assert_eq!(a.ts, b.ts);
            }
        }
    }

    #[test]
    fn run_batched_fanout_and_sinks() {
        let mk = || {
            let mut g = QueryGraph::new();
            let src = g.add(Box::new(Passthrough::new("src")));
            let s1 = g.add(Box::new(Passthrough::new("s1")));
            let s2 = g.add(Box::new(Passthrough::new("s2")));
            g.connect(src, s1, 0).unwrap();
            g.connect(src, s2, 0).unwrap();
            g.source("in", src);
            g.sink(src); // sink with downstream fan-out: forces the clone path
            g.sink(s1);
            g.sink(s2);
            (g, src, s1, s2)
        };
        let (mut g, src, s1, s2) = mk();
        let out = g
            .run_batched(
                vec![("in".into(), 0, (0..10).map(|i| t(i, i as i64)).collect())],
                4,
            )
            .unwrap();
        assert_eq!(out[&src].len(), 10);
        assert_eq!(out[&s1].len(), 10);
        assert_eq!(out[&s2].len(), 10);
    }

    #[test]
    fn session_records_per_node_telemetry() {
        let (g, sink) = doubling_graph();
        let mut s = g.into_session().unwrap();
        let node = s.source_node("in").unwrap();
        let telem: Vec<_> = s.node_telemetry().to_vec();

        // One shared schema Arc so `columnarize` accepts the run.
        let schema = Schema::builder().field("v", DataType::Int).build();
        let mut big = Batch::from(
            (0..100)
                .map(|i| Tuple::new(schema.clone(), vec![Value::from(i as i64)], i))
                .collect::<Vec<_>>(),
        );
        assert!(big.columnarize());
        s.push(node, 0, big);
        s.push(node, 0, Batch::from(vec![t(100, 7)]));
        let out = s.finish();
        assert_eq!(out[&sink].len(), 101);

        let double = &telem[node.index()];
        assert_eq!(double.tuples_in.get(), 101);
        assert_eq!(double.tuples_out.get(), 101);
        assert_eq!(double.batches.get(), 2);
        assert_eq!(double.columnar_batches.get(), 1);
        assert_eq!(double.row_batches.get(), 1);
        assert_eq!(double.columnar_hit_rate(), Some(0.5));
        assert_eq!(telem[sink.index()].tuples_in.get(), 101);
    }

    #[test]
    fn flush_only_window_reaches_sink() {
        // A windowed op that only emits on flush must still reach sinks.
        use crate::ops::aggregate::{AggFunc, AggSpec, Strategy, WindowKind, WindowedAggregate};
        use crate::updf::Updf;
        use ustream_prob::dist::Dist;

        let s = Schema::builder()
            .field("g", DataType::Int)
            .field("w", DataType::Uncertain)
            .build();
        let mk = |ts: u64| {
            Tuple::new(
                s.clone(),
                vec![
                    Value::from(1i64),
                    Value::from(Updf::Parametric(Dist::gaussian(1.0, 0.1))),
                ],
                ts,
            )
        };
        for bs in [1usize, 64] {
            let mut g = QueryGraph::new();
            let agg = g.add(Box::new(WindowedAggregate::new(
                WindowKind::Tumbling(1_000_000),
                |_| crate::value::GroupKey::Unit,
                vec![AggSpec {
                    field: "w".into(),
                    func: AggFunc::Sum,
                    out: "total".into(),
                    strategy: Strategy::ExactParametric,
                }],
            )));
            let sink = g.add(Box::new(Passthrough::new("sink")));
            g.connect(agg, sink, 0).unwrap();
            g.source("in", agg);
            g.sink(sink);

            let out = g
                .run_batched(vec![("in".into(), 0, (0..5).map(mk).collect())], bs)
                .unwrap();
            let results = &out[&sink];
            assert_eq!(results.len(), 1, "window only closes at flush (bs {bs})");
            assert!((results[0].updf("total").unwrap().mean() - 5.0).abs() < 1e-9);
        }
    }
}
