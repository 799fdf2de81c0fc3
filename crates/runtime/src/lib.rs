//! # ustream-runtime — the sharded parallel runtime
//!
//! Scales the batched execution engine across cores without giving up
//! the engine's determinism guarantees. A [`ShardedExecutor`] compiles a
//! query graph into a **staged shard plan** ([`plan::ShardPlan`]): the
//! graph is cut at keyed-anchor boundaries into exchange-connected
//! stages, each stage runs as **N key-partitioned pipelines** (full
//! copies of the stage subgraph built from a graph factory) on a
//! **persistent worker pool**, and every stage boundary re-shuffles by
//! the next stage's partition key with per-shard watermark/EOS
//! propagation and a canonical `(ts, content)` merge. Chained keyed
//! anchors — a windowed aggregate feeding a keyed equi-join, an
//! aggregate feeding an aggregate on a different key — shard
//! stage-by-stage instead of collapsing to a single pinned pipeline.
//!
//! Key design points:
//!
//! - **Logical shards ≠ physical workers.** Shard count fixes the
//!   partitioning (and therefore the output); the worker pool defaults
//!   to `min(shards, available cores)`. The same plan runs unchanged —
//!   and produces identical bytes — on a laptop and a 64-core box.
//! - **Soundness over parallelism.** Graphs containing a
//!   [`ustream_core::Partitioning::Global`] operator (count windows,
//!   probabilistic joins, sampling aggregates) fall back to the
//!   single-stage plan with classic cascading pinning; fully pinned
//!   plans run on one shard. Degraded plans lose speedup, never
//!   equivalence.
//! - **One execution core.** [`session::ShardedSession`] — the
//!   incremental sharded analogue of
//!   [`ustream_core::query::ExecSession`] (`push_batch` / `flush` /
//!   `drain_collected`) — backs both [`ShardedExecutor::run`] and the
//!   ingest server's engine thread, so serving scales with cores too.
//! - **Pooled batches.** Per-shard sub-batches are carved from a shared
//!   [`ustream_core::batch::BatchPool`]; spent buffers are recycled
//!   where batches end their lives, cutting steady-state allocator
//!   traffic.
//! - **Failure surfaces.** A panicking operator poisons its slot; the
//!   driver returns
//!   [`ustream_core::error::EngineError::OperatorPanicked`] naming the
//!   operator — never a hang, never a silently truncated result.

pub mod plan;
pub mod report;
pub mod session;
pub mod telemetry;

pub use report::{OpReport, PlanReport, StageReport};

use plan::ShardPlan;
use session::ShardedSession;
use std::collections::HashMap;
use ustream_core::batch::Batch;
use ustream_core::canon::canonical_sort;
use ustream_core::error::Result;
use ustream_core::query::QueryGraph;
use ustream_core::{NodeId, Tuple};

/// The sharded executor. Construct with [`ShardedExecutor::new`], tune
/// with the `with_*` builders, run to completion with
/// [`ShardedExecutor::run`] or serve incrementally through
/// [`ShardedExecutor::session`].
pub struct ShardedExecutor {
    shards: usize,
    workers: Option<usize>,
    batch_size: usize,
    pool_buffers: usize,
}

impl ShardedExecutor {
    /// An executor with `shards` logical partitions. Worker count
    /// defaults to `min(shards, available cores)`.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        ShardedExecutor {
            shards,
            workers: None,
            batch_size: 512,
            pool_buffers: 4 * shards,
        }
    }

    /// Pin the worker-pool size (otherwise `min(shards, cores)`).
    /// Workers beyond the shard count would sit idle and are clamped.
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0);
        self.workers = Some(workers);
        self
    }

    /// Target tuples per routed sub-batch.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        assert!(batch_size > 0);
        self.batch_size = batch_size;
        self
    }

    /// Routing decision the executor would make for `graph` — exposed
    /// for diagnostics and tests (e.g. asserting that an
    /// aggregate-into-join graph stages with an exchange, or that a
    /// probabilistic join degrades to a pinned single-shard plan). See
    /// [`ShardPlan::describe`] and [`ShardPlan::pinned_entries`] for the
    /// observability surface.
    pub fn shard_plan(graph: &QueryGraph) -> Result<ShardPlan> {
        let plan = graph.compile()?;
        Ok(ShardPlan::analyze(graph, &plan))
    }

    /// [`ShardPlan::describe`] for `graph`: the per-stage entry routing
    /// rules, exchange edges, and the pinned-entry count, rendered for
    /// logs — how an operator deployment notices that a plan change
    /// silently degraded parallelism.
    pub fn describe_plan(graph: &QueryGraph) -> Result<String> {
        Ok(Self::shard_plan(graph)?.describe())
    }

    /// Build an incremental [`ShardedSession`] over the graph produced
    /// by `factory`.
    ///
    /// `factory` is invoked once per shard plus once for the routing
    /// prototype and must build the same graph every time (same
    /// operators in the same order with the same configuration —
    /// enforced structurally, trusted behaviorally). With one shard, or
    /// a plan that cannot parallelize, it is invoked once: the session
    /// runs that graph as one shard and one stage, whose drains equal a
    /// plain [`ustream_core::query::ExecSession`]'s over the same
    /// pushes, sink arrival order included.
    pub fn session(&self, mut factory: impl Fn() -> QueryGraph) -> Result<ShardedSession> {
        ShardedSession::build(
            self.shards,
            self.workers,
            self.batch_size,
            self.pool_buffers,
            &mut factory,
        )
    }

    /// Run the graph produced by `factory` to completion over `inputs`:
    /// build a session, push the timestamp-ordered feed, finish, and
    /// sort each sink into the canonical `(ts, content)` order — byte
    /// identical across runs, worker counts, and shard counts, and
    /// exactly equal (values/ts/existence/lineage) to
    /// [`QueryGraph::run_batched`] over the same inputs.
    pub fn run(
        &self,
        factory: impl Fn() -> QueryGraph,
        inputs: Vec<(String, usize, Vec<Tuple>)>,
    ) -> Result<HashMap<NodeId, Vec<Tuple>>> {
        let mut session = self.session(factory)?;
        let feed = session.ordered_feed(inputs)?;
        let mut cur: Option<(NodeId, usize, Batch)> = None;
        for (_, node, port, tuple) in feed {
            match &mut cur {
                Some((n, p, b)) if *n == node && *p == port && b.len() < self.batch_size => {
                    b.push(tuple)
                }
                slot => {
                    if let Some((n, p, b)) = slot.take() {
                        session.push_batch(n, p, b)?;
                    }
                    *slot = Some((node, port, Batch::one(tuple)));
                }
            }
        }
        if let Some((n, p, b)) = cur {
            session.push_batch(n, p, b)?;
        }
        let mut merged = session.finish()?;
        for tuples in merged.values_mut() {
            canonical_sort(tuples);
        }
        Ok(merged)
    }
}
