//! The incremental sharded execution session.
//!
//! [`ShardedSession`] is the sharded analogue of
//! [`ustream_core::query::ExecSession`]: a long-lived engine that
//! accepts input batches over time ([`ShardedSession::push_batch`]),
//! streams completed sink output between pushes
//! ([`ShardedSession::drain_collected`]), and flushes at end of stream
//! ([`ShardedSession::finish`]). It is the one execution core behind
//! both [`crate::ShardedExecutor::run`] (which pushes a whole feed and
//! finishes) and the ingest server's engine thread (which pumps batches
//! as publishers deliver them) — the serving path is no longer
//! bottlenecked on one single-threaded session.
//!
//! ## Execution model
//!
//! The [`ShardPlan`] cuts the graph into stages (see [`crate::plan`]);
//! every stage × shard pair is one [`ExecSession`] over that stage's
//! subgraph, dealt across a persistent worker pool (the driver
//! participates as worker 0, running its slots inline). Stage-0 input
//! routes immediately; input addressed to later stages (exchange output
//! and external feeds entering downstream of an anchor) is pooled and
//! forwarded during *sweeps*.
//!
//! A sweep walks the stages in order. For each stage it forwards the
//! pooled input whose timestamps the watermark has sealed — sorted into
//! the canonical `(ts, entry, port, content)` order, so the exchange
//! delivery is independent of how the producing stage was partitioned —
//! then broadcasts the watermark to every shard of the stage
//! ([`ExecSession::advance_watermark`]: windows close when the
//! *stream's* clock passes them, not when a shard happens to receive its
//! next tuple), and barriers on a drain of the stage's collected
//! output. Output at a cut node feeds the next stage's pool; output at
//! a real sink is held until the watermark seals its timestamp.
//!
//! One shard — configured, or because the plan cannot parallelize — is
//! the same core over a plan collapsed to one pinned stage
//! (`ShardPlan::one_stage`): one slot, one [`ExecSession`] over the
//! whole graph. Each push reaches it exactly as pushed (long row
//! batches go columnar first), with no per-row routing and no
//! re-batching, so a fan-in operator sees the pushed interleaving.
//!
//! ## Watermark discipline and determinism
//!
//! The session watermark W is the highest timestamp pushed so far; the
//! input contract (shared with `run_batched`'s sorted feed and the
//! server's per-publisher merge) is that pushes are globally
//! ts-nondecreasing. Every operator emission carries `ts ≤ W`, and once
//! W passes a timestamp no new emission at it can appear — so sink
//! tuples with `ts < W` are *complete* and are released in canonical
//! `(ts, content)` order, while `ts == W` tuples are held for the next
//! sweep. Each released interval is therefore a deterministic function
//! of the input stream alone: byte-identical across runs, worker
//! counts, and shard counts, and — for keyed plans whose operators
//! declare their partitioning honestly — exactly equal, in stream
//! order, to what `run_batched` collects over the same feed.
//!
//! The hold and the sort exist to make several shards' output
//! independent of how they interleave. One shard's arrival order
//! already depends on the input alone, so a one-shard session releases
//! everything it collected, as it arrived: each drain equals what a
//! plain [`ExecSession`] drains after the same pushes.
//!
//! ## Failure containment
//!
//! An operator panic (or a panic in a routing key closure) never
//! unwinds into the caller and never hangs the pool: the slot is
//! poisoned, the panic message is captured, and every subsequent call
//! returns [`EngineError::OperatorPanicked`] — the server maps this to
//! a typed `QueryPanicked` serving error.

use crate::plan::{shard_of, stable_key_hash, RouteRule, ShardPlan};
use crate::telemetry::{OpTelemetryEntry, SessionTelemetry};
use crossbeam::channel::{bounded, Receiver, Sender};
use std::collections::{BTreeMap, HashMap};
use std::thread::JoinHandle;
use std::time::Instant;
use ustream_core::batch::{Batch, BatchPool};
use ustream_core::canon;
use ustream_core::columnar::Columns;
use ustream_core::error::{panic_message, EngineError, Result};
use ustream_core::query::{ExecSession, QueryGraph, COLUMNAR_MIN_CHUNK};
use ustream_core::{NodeId, Tuple};
use ustream_telemetry::{MetricsRegistry, SpanKind, TraceDetail};

/// In-flight messages each pool worker's inbox holds before the driver
/// blocks (backpressure depth).
const WORKER_INBOX_CAPACITY: usize = 64;

/// Run a closure, converting a panic into its rendered message.
fn catch<T>(f: impl FnOnce() -> T) -> std::result::Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .map_err(|p| panic_message(p.as_ref()).to_string())
}

/// One unit of work for a pool worker, addressed to a slot it owns.
enum WorkerMsg {
    Push {
        slot: usize,
        node: NodeId,
        port: usize,
        batch: Batch,
    },
    Advance {
        slot: usize,
        watermark: u64,
    },
    /// Drain the slot's collected sink output; reply on the shared
    /// reply channel.
    Drain {
        slot: usize,
    },
    /// Flush and consume the slot's session; reply with its final
    /// collections.
    Finish {
        slot: usize,
    },
}

/// One slot's drained/final output: per-sink tuple runs in stage-local
/// node order.
type SlotOutput = Vec<(NodeId, Vec<Tuple>)>;

/// A worker's answer to `Drain`/`Finish`: the slot's per-sink output in
/// stage-local node order, or the panic message that poisoned it.
struct Reply {
    slot: usize,
    result: std::result::Result<SlotOutput, String>,
}

/// One stage×shard pipeline owned by a worker (or inline by the driver).
struct SlotState {
    session: Option<ExecSession>,
    poisoned: Option<String>,
}

impl SlotState {
    fn run(&mut self, f: impl FnOnce(&mut ExecSession)) {
        if self.poisoned.is_some() {
            return;
        }
        if let Some(session) = self.session.as_mut() {
            if let Err(msg) = catch(std::panic::AssertUnwindSafe(|| f(session))) {
                self.session = None;
                self.poisoned = Some(msg);
            }
        }
    }

    fn drain(&mut self) -> std::result::Result<SlotOutput, String> {
        if let Some(msg) = &self.poisoned {
            return Err(msg.clone());
        }
        match self.session.as_mut() {
            Some(session) => {
                match catch(std::panic::AssertUnwindSafe(|| session.drain_collected())) {
                    Ok(outs) => Ok(outs),
                    Err(msg) => {
                        self.session = None;
                        self.poisoned = Some(msg.clone());
                        Err(msg)
                    }
                }
            }
            None => Ok(Vec::new()),
        }
    }

    fn finish(&mut self) -> std::result::Result<SlotOutput, String> {
        if let Some(msg) = &self.poisoned {
            return Err(msg.clone());
        }
        match self.session.take() {
            Some(session) => match catch(std::panic::AssertUnwindSafe(|| session.finish())) {
                Ok(map) => {
                    let mut outs: Vec<(NodeId, Vec<Tuple>)> = map
                        .into_iter()
                        .filter(|(_, tuples)| !tuples.is_empty())
                        .collect();
                    outs.sort_by_key(|(n, _)| n.index());
                    Ok(outs)
                }
                Err(msg) => {
                    self.poisoned = Some(msg.clone());
                    Err(msg)
                }
            },
            None => Ok(Vec::new()),
        }
    }
}

fn worker_loop(
    rx: Receiver<WorkerMsg>,
    reply_tx: Sender<Reply>,
    mut slots: BTreeMap<usize, SlotState>,
) {
    while let Ok(msg) = rx.recv() {
        match msg {
            WorkerMsg::Push {
                slot,
                node,
                port,
                batch,
            } => {
                if let Some(st) = slots.get_mut(&slot) {
                    st.run(|s| s.push(node, port, batch));
                }
            }
            WorkerMsg::Advance { slot, watermark } => {
                if let Some(st) = slots.get_mut(&slot) {
                    st.run(|s| s.advance_watermark(watermark));
                }
            }
            WorkerMsg::Drain { slot } => {
                let result = match slots.get_mut(&slot) {
                    Some(st) => st.drain(),
                    None => Ok(Vec::new()),
                };
                if reply_tx.send(Reply { slot, result }).is_err() {
                    return;
                }
            }
            WorkerMsg::Finish { slot } => {
                let result = match slots.get_mut(&slot) {
                    Some(st) => st.finish(),
                    None => Ok(Vec::new()),
                };
                if reply_tx.send(Reply { slot, result }).is_err() {
                    return;
                }
            }
        }
    }
}

/// Stage-local view of the original graph: index translation in both
/// directions.
struct StageMeta {
    /// Original node index → stage-local node, for nodes in this stage.
    local_of: Vec<Option<NodeId>>,
    /// Stage-local node index → original node index.
    orig_of: Vec<usize>,
}

/// A pending input run being assembled for one slot.
struct SlotBuilder {
    node: usize,
    port: usize,
    batch: Batch,
}

/// Input waiting at a stage boundary: `(ts, entry node, port, tuple)`.
type PoolEntry = (u64, usize, usize, Tuple);

/// The canonical exchange-delivery sort key: `(ts, entry, port,
/// fast content key)`. Mirrors [`canon::canonical_sort`]; fast-key tie
/// runs are re-ordered by the exhaustive rendering before delivery.
type ForwardKey = (u64, usize, usize, Vec<u8>);

/// The most recent sampled batch's causal trace: later hops (routes
/// during sweeps, seals, the emit) link their spans back to its root.
struct ActiveTrace {
    trace: u64,
    /// The `Pump` root span's sequence number.
    root: u64,
    /// The newest `Seal` span's sequence number (the emit's parent).
    last_seal: Option<u64>,
}

/// A hop observed while a traced batch was live, buffered until the
/// span it parents under exists.
struct PendingSpan {
    kind: SpanKind,
    stage: usize,
    shard: usize,
    tuples: usize,
    elapsed_ns: u64,
}

/// The session core: `shards` pipelines per stage of `plan`.
struct StagedCore {
    /// The graph routing keys are computed against; only a core with
    /// more than one shard routes, so a one-shard core keeps none.
    prototype: Option<QueryGraph>,
    plan: ShardPlan,
    shards: usize,
    n_workers: usize,
    batch_size: usize,
    pool: BatchPool,
    stages: Vec<StageMeta>,
    /// Driver-owned (worker 0) slots, by global slot id.
    inline: BTreeMap<usize, SlotState>,
    senders: Vec<Sender<WorkerMsg>>,
    reply_rx: Receiver<Reply>,
    handles: Vec<JoinHandle<()>>,
    builders: Vec<SlotBuilder>,
    /// Per-stage pending input (exchange output + external feeds for
    /// stages > 0); index 0 is unused.
    pools: Vec<Vec<PoolEntry>>,
    /// Held sink output whose timestamps the watermark has not sealed
    /// yet, by original sink node index.
    held: BTreeMap<usize, Vec<Tuple>>,
    /// Per-stage round-robin spread counters.
    spread: Vec<usize>,
    /// Cut edges out of each original node as `(target, port)`.
    cut_targets: Vec<Vec<(usize, usize)>>,
    is_real_sink: Vec<bool>,
    /// Original sink node indices in registration order.
    sink_order: Vec<usize>,
    watermark: u64,
    failed: Option<String>,
    telem: SessionTelemetry,
    /// Watermark as of the last eager sweep — an eager sweep runs only
    /// when the watermark has moved past it.
    eager_swept: u64,
    /// Eager intervals forwarded into each stage since its last
    /// drain/finish barrier (mirrors the interval-depth gauge).
    eager_depth: Vec<u64>,
    /// Reused forward-sort scratch (see [`StagedCore::sweep`]).
    fwd_buf: Vec<(ForwardKey, PoolEntry)>,
    /// Reused not-yet-sealed partition scratch for the sweep.
    keep_buf: Vec<PoolEntry>,
    /// Reused per-shard partition scratch for direct stage-0 routing.
    direct_scratch: Vec<Vec<Tuple>>,
    /// Watermark most recently broadcast to each stage (seal point for
    /// the per-stage watermark-lag sketches).
    sealed: Vec<u64>,
    /// Causal-trace state for the most recent sampled batch; `None`
    /// between traces (the overwhelmingly common state).
    active_trace: Option<ActiveTrace>,
    /// True while routing activity should buffer `Route` spans (a
    /// sampled push, or a sweep with an active trace).
    trace_live: bool,
    /// Reused span buffer: only touched for sampled batches, and
    /// allocation-free once warm.
    trace_buf: Vec<PendingSpan>,
}

enum BarrierOp {
    Drain,
    Finish,
}

impl StagedCore {
    fn fail(&mut self, msg: String) -> EngineError {
        let e = EngineError::OperatorPanicked(msg.clone());
        self.failed = Some(msg);
        e
    }

    fn guard(&self) -> Result<()> {
        match &self.failed {
            Some(msg) => Err(EngineError::OperatorPanicked(msg.clone())),
            None => Ok(()),
        }
    }

    fn slot_id(&self, stage: usize, shard: usize) -> usize {
        stage * self.shards + shard
    }

    fn worker_of(&self, shard: usize) -> usize {
        shard % self.n_workers
    }

    /// Ship one ready run to `(stage, shard)`'s slot session (inline
    /// for worker-0 slots, via the worker's inbox otherwise), recording
    /// the routing telemetry, journal entry, and `Route` span.
    fn push_run_to_slot(
        &mut self,
        stage: usize,
        shard: usize,
        node: usize,
        port: usize,
        batch: Batch,
    ) -> Result<()> {
        let slot = self.slot_id(stage, shard);
        let local = self.stages[stage].local_of[node].expect("routed node belongs to its stage");
        let tuples = batch.len();
        self.telem.routed(stage, shard).add(tuples as u64);
        self.telem.journal().record(TraceDetail::ShardRouted {
            stage,
            shard,
            tuples,
        });
        let t0 = self.trace_live.then(Instant::now);
        let worker = self.worker_of(shard);
        let result = if worker == 0 {
            let st = self.inline.get_mut(&slot).expect("inline slot exists");
            st.run(|s| s.push(local, port, batch));
            if let Some(msg) = st.poisoned.clone() {
                return Err(self.fail(format!("worker 0 (driver): {msg}")));
            }
            Ok(())
        } else {
            self.senders[worker - 1]
                .send(WorkerMsg::Push {
                    slot,
                    node: local,
                    port,
                    batch,
                })
                .map_err(|_| self.fail("worker disconnected mid-stream".into()))
        };
        if result.is_ok() {
            if let Some(t0) = t0 {
                self.trace_buf.push(PendingSpan {
                    kind: SpanKind::Route,
                    stage,
                    shard,
                    tuples,
                    elapsed_ns: t0.elapsed().as_nanos() as u64,
                });
            }
        }
        result
    }

    /// Ship the slot's pending run to its session. Runs long enough to
    /// benefit go columnar on the way in, so downstream operators keep
    /// their vectorized kernels after the exchange.
    fn flush_builder(&mut self, stage: usize, shard: usize) -> Result<()> {
        let slot = self.slot_id(stage, shard);
        if self.builders[slot].batch.is_empty() {
            return Ok(());
        }
        let replacement = self.pool.take(self.batch_size.min(64));
        let b = &mut self.builders[slot];
        let mut batch = std::mem::replace(&mut b.batch, replacement);
        let (node, port) = (b.node, b.port);
        if !batch.is_columnar() && batch.len() >= COLUMNAR_MIN_CHUNK {
            batch.columnarize();
        }
        self.push_run_to_slot(stage, shard, node, port, batch)
    }

    /// Route one tuple into a stage, merging consecutive same-(node,
    /// port) tuples per shard into batched runs.
    fn route_one(&mut self, stage: usize, node: usize, port: usize, tuple: Tuple) -> Result<()> {
        let rule = self.plan.rule(NodeId::from_index(node));
        // The key computation runs a user closure against the tuple as
        // it exists at the stage boundary; a panic (e.g. the key
        // attribute is minted deeper in the stage) surfaces as an error
        // instead of unwinding through the driver.
        let shard = {
            let prototype = self
                .prototype
                .as_ref()
                .expect("only a multi-shard core routes");
            let shards = self.shards;
            let spread = &mut self.spread[stage];
            match catch(std::panic::AssertUnwindSafe(|| {
                shard_of(rule, prototype, port, &tuple, shards, spread)
            })) {
                Ok(shard) => shard,
                Err(msg) => return Err(self.fail(format!("routing (partition key): {msg}"))),
            }
        };
        let slot = self.slot_id(stage, shard);
        let b = &self.builders[slot];
        if !b.batch.is_empty()
            && (b.node != node || b.port != port || b.batch.len() >= self.batch_size)
        {
            self.flush_builder(stage, shard)?;
        }
        let b = &mut self.builders[slot];
        b.node = node;
        b.port = port;
        b.batch.push(tuple);
        Ok(())
    }

    /// Deliver one columnar run straight to a stage-0 slot, after
    /// flushing any pending row run so per-slot arrival order is
    /// preserved.
    fn push_cols_to_shard(
        &mut self,
        shard: usize,
        node: usize,
        port: usize,
        cols: Columns,
    ) -> Result<()> {
        self.flush_builder(0, shard)?;
        self.push_run_to_slot(0, shard, node, port, Batch::from_columns(cols))
    }

    /// Stage-0 external row batches: compute every
    /// row's shard up front (one panic guard for the whole batch instead
    /// of one per tuple), partition preserving per-shard order, and
    /// deliver each shard's run directly — no `SlotBuilder`
    /// accumulation and no `BatchPool` round-trip. Runs long enough to
    /// benefit go columnar on the way in.
    fn route_rows_direct(&mut self, node: usize, port: usize, batch: Batch) -> Result<()> {
        let rule = self.plan.rule(NodeId::from_index(node));
        let mut row_shard: Vec<usize> = Vec::with_capacity(batch.len());
        {
            let prototype = self
                .prototype
                .as_ref()
                .expect("only a multi-shard core routes");
            let shards = self.shards;
            let spread = &mut self.spread[0];
            let tuples = batch.as_slice();
            if let Err(msg) = catch(std::panic::AssertUnwindSafe(|| {
                for t in tuples {
                    row_shard.push(shard_of(rule, prototype, port, t, shards, spread));
                }
            })) {
                return Err(self.fail(format!("routing (partition key): {msg}")));
            }
        }
        let mut per_shard = std::mem::take(&mut self.direct_scratch);
        per_shard.resize_with(self.shards, Vec::new);
        for (t, &s) in batch.into_vec().into_iter().zip(&row_shard) {
            per_shard[s].push(t);
        }
        for (shard, rows) in per_shard.iter_mut().enumerate() {
            if rows.is_empty() {
                continue;
            }
            self.flush_builder(0, shard)?;
            let mut run = Batch::from(std::mem::take(rows));
            if run.len() >= COLUMNAR_MIN_CHUNK {
                run.columnarize();
            }
            self.push_run_to_slot(0, shard, node, port, run)?;
        }
        self.direct_scratch = per_shard;
        Ok(())
    }

    /// Route a columnar batch at stage 0 without materializing tuples:
    /// whole-batch delivery for pinned entries, per-row key-column
    /// hashing for keyed entries whose anchor declares its key field
    /// ([`ustream_core::Operator::partition_key_field`]). Returns
    /// `false` when the rule or the batch's shape needs the row path —
    /// spread entries (the round-robin counter is per-tuple), closure
    /// keys, a missing key field, or any row whose key cell is not
    /// groupable (the row path's key closure decides what happens
    /// there, e.g. keyless-spread or a routing panic).
    fn route_columns(&mut self, node: usize, port: usize, batch: &mut Batch) -> Result<bool> {
        let rule = self.plan.rule(NodeId::from_index(node));
        match rule {
            RouteRule::Pinned => {
                let cols = batch.take_columns().expect("columnar batch");
                self.push_cols_to_shard(0, node, port, cols)?;
                Ok(true)
            }
            RouteRule::Keyed {
                anchor,
                port: anchor_port,
            } => {
                // The anchor's key field can differ per input port (a
                // field-keyed join names one field per side); resolve
                // against the port the rule pinned down, falling back
                // to the feed port when the entry *is* the anchor.
                let Some(field) = self
                    .prototype
                    .as_ref()
                    .expect("only a multi-shard core routes")
                    .operator(anchor)
                    .partition_key_field(anchor_port.unwrap_or(port))
                    .map(str::to_string)
                else {
                    return Ok(false);
                };
                let Some(cols_ref) = batch.columns() else {
                    return Ok(false);
                };
                let Ok(idx) = cols_ref.schema().index_of(&field) else {
                    return Ok(false);
                };
                let key_col = cols_ref.col(idx);
                let mut row_shard = Vec::with_capacity(cols_ref.len());
                for r in 0..cols_ref.len() {
                    match key_col.group_key_at(r) {
                        Some(k) => {
                            row_shard.push((stable_key_hash(&k) % self.shards as u64) as usize)
                        }
                        None => return Ok(false),
                    }
                }
                let cols = batch.take_columns().expect("columnar batch");
                for shard in 0..self.shards {
                    if !row_shard.contains(&shard) {
                        continue;
                    }
                    let keep: Vec<bool> = row_shard.iter().map(|&s| s == shard).collect();
                    let mut part = cols.clone();
                    part.filter(&keep);
                    self.push_cols_to_shard(shard, node, port, part)?;
                }
                Ok(true)
            }
            RouteRule::Spread => Ok(false),
        }
    }

    fn push_batch(&mut self, node: NodeId, port: usize, batch: Batch) -> Result<()> {
        self.guard()?;
        self.telem.batches_pushed.inc();
        let tuples = batch.len();
        self.telem.tuples_pushed.add(tuples as u64);
        self.telem.journal().record(TraceDetail::BatchPumped {
            node: node.index(),
            port,
            tuples,
        });
        // Causal sampling by publish ordinal: deterministic for the
        // same feed + seed. Unsampled batches pay one relaxed load and
        // a modulo here — no clock read, no allocation.
        let trace = self.telem.traces().sample(self.telem.batches_pushed.get());
        let stage = self.plan.stage_of(node);
        let t0 = trace.map(|_| {
            self.trace_buf.clear();
            self.trace_live = true;
            Instant::now()
        });
        let result = self.ingest(node, port, batch, stage);
        if let Some(trace) = trace {
            self.trace_live = false;
            if result.is_ok() {
                let root = self.telem.traces().record(
                    trace,
                    None,
                    SpanKind::Pump,
                    stage,
                    0,
                    tuples,
                    t0.expect("timed when sampled").elapsed().as_nanos() as u64,
                );
                self.flush_trace_buf(trace, root);
                self.active_trace = Some(ActiveTrace {
                    trace,
                    root,
                    last_seal: None,
                });
            } else {
                self.trace_buf.clear();
            }
        }
        result?;
        self.maybe_eager_sweep()
    }

    /// Pipelined exchange delivery: once a push (or a bare watermark
    /// advance) moves the session watermark, the interval it sealed is
    /// complete — forward it downstream *now* instead of parking it
    /// until the next drain, so stage N+1 consumes interval k while
    /// stage N produces interval k+1. An eager sweep is a regular
    /// drain-mode sweep minus the seal/lag accounting (which stays on
    /// the barrier schedule); held sink output still waits for
    /// [`StagedCore::drain_collected`]/[`StagedCore::finish`]. A
    /// one-stage plan has no next stage to deliver to, so it skips the
    /// sweep.
    fn maybe_eager_sweep(&mut self) -> Result<()> {
        if self.plan.num_stages() == 1 || self.watermark <= self.eager_swept {
            return Ok(());
        }
        self.eager_swept = self.watermark;
        self.sweep(false, true)
    }

    /// The routing body of [`StagedCore::push_batch`]: advance the high
    /// water, then hand the batch as pushed to a one-shard core's only
    /// slot, route stage-0 input (columnar fast path first), or pool
    /// input addressed downstream.
    fn ingest(&mut self, node: NodeId, port: usize, mut batch: Batch, stage: usize) -> Result<()> {
        if let Some(max_ts) = batch.max_ts() {
            self.watermark = self.watermark.max(max_ts);
        }
        if self.shards == 1 {
            if !batch.is_columnar() && batch.len() >= COLUMNAR_MIN_CHUNK {
                batch.columnarize();
            }
            return self.push_run_to_slot(0, 0, node.index(), port, batch);
        }
        if stage == 0 {
            if batch.is_columnar() && self.route_columns(node.index(), port, &mut batch)? {
                return Ok(());
            }
            if !batch.is_columnar() && batch.len() >= COLUMNAR_MIN_CHUNK {
                return self.route_rows_direct(node.index(), port, batch);
            }
            for tuple in batch {
                self.route_one(0, node.index(), port, tuple)?;
            }
        } else {
            // External feeds entering downstream of an anchor join the
            // stage's exchange pool so they interleave with exchange
            // output in one deterministic ts-ordered feed.
            self.pools[stage].extend(batch.into_iter().map(|t| (t.ts, node.index(), port, t)));
        }
        Ok(())
    }

    /// Record the buffered hops of the live trace as children of
    /// `parent`, leaving the buffer warm for reuse.
    fn flush_trace_buf(&mut self, trace: u64, parent: u64) {
        let buf = std::mem::take(&mut self.trace_buf);
        for p in &buf {
            self.telem.traces().record(
                trace,
                Some(parent),
                p.kind,
                p.stage,
                p.shard,
                p.tuples,
                p.elapsed_ns,
            );
        }
        self.trace_buf = buf;
        self.trace_buf.clear();
    }

    /// Advance the watermark on every shard of `stage`.
    fn advance_stage(&mut self, stage: usize, watermark: u64) -> Result<()> {
        for shard in 0..self.shards {
            let slot = self.slot_id(stage, shard);
            let worker = self.worker_of(shard);
            if worker == 0 {
                let st = self.inline.get_mut(&slot).expect("inline slot exists");
                st.run(|s| s.advance_watermark(watermark));
                if let Some(msg) = st.poisoned.clone() {
                    return Err(self.fail(format!("worker 0 (driver): {msg}")));
                }
            } else {
                self.senders[worker - 1]
                    .send(WorkerMsg::Advance { slot, watermark })
                    .map_err(|_| self.fail("worker disconnected mid-stream".into()))?;
            }
        }
        Ok(())
    }

    /// Collect every shard of `stage` (drain or finish), in shard order.
    fn barrier(&mut self, stage: usize, op: BarrierOp) -> Result<Vec<SlotOutput>> {
        let mut results: BTreeMap<usize, SlotOutput> = BTreeMap::new();
        let mut errors: Vec<String> = Vec::new();
        let mut expected_remote = 0usize;
        for shard in 0..self.shards {
            let slot = self.slot_id(stage, shard);
            let worker = self.worker_of(shard);
            if worker == 0 {
                let st = self.inline.get_mut(&slot).expect("inline slot exists");
                let result = match op {
                    BarrierOp::Drain => st.drain(),
                    BarrierOp::Finish => st.finish(),
                };
                match result {
                    Ok(outs) => {
                        results.insert(slot, outs);
                    }
                    Err(msg) => errors.push(format!("worker 0 (driver): {msg}")),
                }
            } else {
                let msg = match op {
                    BarrierOp::Drain => WorkerMsg::Drain { slot },
                    BarrierOp::Finish => WorkerMsg::Finish { slot },
                };
                if self.senders[worker - 1].send(msg).is_err() {
                    errors.push("worker disconnected mid-stream".into());
                } else {
                    expected_remote += 1;
                }
            }
        }
        for _ in 0..expected_remote {
            match self.reply_rx.recv() {
                Ok(Reply { slot, result }) => match result {
                    Ok(outs) => {
                        results.insert(slot, outs);
                    }
                    Err(msg) => {
                        let worker = self.worker_of(slot % self.shards);
                        errors.push(format!("worker {worker}: {msg}"));
                    }
                },
                Err(_) => {
                    errors.push("worker disconnected mid-stream".into());
                    break;
                }
            }
        }
        if !errors.is_empty() {
            return Err(self.fail(errors.join("; ")));
        }
        Ok(results.into_values().collect())
    }

    /// Distribute one stage's collected output: cut-node output feeds
    /// downstream exchange pools, real-sink output joins the held
    /// buffers.
    fn distribute(&mut self, stage: usize, collected: Vec<SlotOutput>) {
        for outs in collected {
            for (local, tuples) in outs {
                let orig = self.stages[stage].orig_of[local.index()];
                // Borrow dance: take the target list so the pools can be
                // indexed mutably, and clone the tuple run one fewer time
                // than there are consumers — the last consumer (or the
                // held sink buffer) takes the run by move.
                let targets = std::mem::take(&mut self.cut_targets[orig]);
                let mut tuples = Some(tuples);
                let consumers = targets.len() + usize::from(self.is_real_sink[orig]);
                for (i, &(to, port)) in targets.iter().enumerate() {
                    let to_stage = self.plan.stage_of(NodeId::from_index(to));
                    if i + 1 == consumers {
                        let run = tuples.take().expect("last consumer takes by move");
                        self.pools[to_stage].extend(run.into_iter().map(|t| (t.ts, to, port, t)));
                    } else {
                        let run = tuples.as_ref().expect("run present until last consumer");
                        self.pools[to_stage]
                            .extend(run.iter().map(|t| (t.ts, to, port, t.clone())));
                    }
                }
                self.cut_targets[orig] = targets;
                if self.is_real_sink[orig] {
                    let run = tuples.take().expect("sink is the final consumer");
                    self.held.entry(orig).or_default().extend(run);
                }
            }
        }
    }

    /// Walk all stages: forward sealed exchange input, advance
    /// watermarks (drain sweeps), and collect each stage's output.
    /// `finish` forwards everything and consumes the sessions. `eager`
    /// marks a pipelined (mid-stream) sweep: the interval is forwarded
    /// and the stages drained exactly as at a barrier — byte-identical
    /// delivery, since intervals are ts-disjoint and ts is the major
    /// canonical sort key — but seal/lag accounting and the
    /// `WindowSealed` journal stay on the barrier schedule, and the
    /// eager counters/gauges tick instead.
    fn sweep(&mut self, finish: bool, eager: bool) -> Result<()> {
        self.guard()?;
        let wm = self.watermark;
        self.trace_live = self.active_trace.is_some();
        for stage in 0..self.plan.num_stages() {
            let mut forwarded = 0usize;
            let fwd_t0 = self.trace_live.then(Instant::now);
            if stage > 0 {
                // Forward pooled input the watermark has sealed (all of
                // it at finish), in canonical (ts, entry, port, content)
                // order — the deterministic exchange delivery order.
                // Scratch buffers are reused sweep-over-sweep, so the
                // per-interval cadence of pipelined delivery stays
                // allocation-free once warm.
                let mut pool = std::mem::take(&mut self.pools[stage]);
                let mut kept = std::mem::take(&mut self.keep_buf);
                let mut keyed = std::mem::take(&mut self.fwd_buf);
                if finish {
                    keyed.extend(
                        pool.drain(..)
                            .map(|e| ((e.0, e.1, e.2, canon::fast_key(&e.3)), e)),
                    );
                } else {
                    for e in pool.drain(..) {
                        if e.0 < wm {
                            keyed.push(((e.0, e.1, e.2, canon::fast_key(&e.3)), e));
                        } else {
                            kept.push(e);
                        }
                    }
                }
                self.keep_buf = std::mem::replace(&mut self.pools[stage], kept);
                // Mirror `canon::canonical_sort`: fast binary keys
                // first, then re-order residual fast-key tie runs by
                // the exhaustive rendering — a distinct-tuple collision
                // on the compact key must not fall back to the
                // partition-dependent pool order. When the producing
                // stage runs on a single slot its output pooled in
                // emission order; a strictly-ascending pre-check skips
                // the sort (and the tie pass) entirely.
                let presorted =
                    self.plan.single_producer(stage) && keyed.windows(2).all(|w| w[0].0 < w[1].0);
                if !presorted {
                    keyed.sort_by(|(a, _), (b, _)| a.cmp(b));
                    let mut i = 0;
                    while i < keyed.len() {
                        let mut j = i + 1;
                        while j < keyed.len() && keyed[j].0 == keyed[i].0 {
                            j += 1;
                        }
                        if j - i > 1 {
                            keyed[i..j].sort_by_cached_key(|(_, e)| canon::exact_key(&e.3));
                        }
                        i = j;
                    }
                }
                forwarded = keyed.len();
                if self.plan.single_consumer(stage) {
                    // Every entry of this stage is pinned: the whole
                    // sealed interval lands on shard 0. Skip the
                    // per-tuple shard computation and builder
                    // accumulation; deliver each consecutive
                    // same-(node, port) run as one batch.
                    self.flush_builder(stage, 0)?;
                    let mut run: Vec<Tuple> = Vec::new();
                    let mut run_at: Option<(usize, usize)> = None;
                    for (_, (_, node, port, tuple)) in keyed.drain(..) {
                        if run_at != Some((node, port)) {
                            if let Some((n, p)) = run_at.take() {
                                self.ship_run(stage, n, p, &mut run)?;
                            }
                            run_at = Some((node, port));
                        }
                        run.push(tuple);
                    }
                    if let Some((n, p)) = run_at {
                        self.ship_run(stage, n, p, &mut run)?;
                    }
                } else {
                    for (_, (_, node, port, tuple)) in keyed.drain(..) {
                        self.route_one(stage, node, port, tuple)?;
                    }
                }
                self.fwd_buf = keyed;
            }
            if stage > 0 {
                if forwarded > 0 {
                    self.telem.exchange_forwarded(stage).add(forwarded as u64);
                    self.telem.journal().record(TraceDetail::ExchangeForwarded {
                        stage,
                        tuples: forwarded,
                    });
                    if eager {
                        self.telem.eager_forwards(stage).inc();
                    }
                    if let Some(t0) = fwd_t0 {
                        self.trace_buf.push(PendingSpan {
                            kind: SpanKind::ExchangeForward,
                            stage,
                            shard: 0,
                            tuples: forwarded,
                            elapsed_ns: t0.elapsed().as_nanos() as u64,
                        });
                    }
                }
                if eager {
                    if forwarded > 0 {
                        self.eager_depth[stage] += 1;
                    }
                } else {
                    self.eager_depth[stage] = 0;
                }
                self.telem
                    .interval_depth(stage)
                    .set(self.eager_depth[stage] as i64);
                self.telem
                    .pool_depth(stage)
                    .set(self.pools[stage].len() as i64);
            }
            for shard in 0..self.shards {
                self.flush_builder(stage, shard)?;
            }
            let seal_t0 = self.trace_live.then(Instant::now);
            let collected = if finish {
                self.barrier(stage, BarrierOp::Finish)?
            } else {
                self.advance_stage(stage, wm)?;
                self.barrier(stage, BarrierOp::Drain)?
            };
            if !eager {
                let prev = self.sealed[stage];
                if wm > prev {
                    self.telem.record_seal(stage, prev, wm);
                    self.sealed[stage] = wm;
                }
                let released: usize = collected
                    .iter()
                    .map(|outs| outs.iter().map(|(_, t)| t.len()).sum::<usize>())
                    .sum();
                self.telem.journal().record(TraceDetail::WindowSealed {
                    stage,
                    watermark: wm,
                    released,
                });
                if let Some(at) = &self.active_trace {
                    let (trace, root) = (at.trace, at.root);
                    self.flush_trace_buf(trace, root);
                    if wm > prev || finish {
                        let seq = self.telem.traces().record(
                            trace,
                            Some(root),
                            SpanKind::Seal,
                            stage,
                            0,
                            released,
                            seal_t0.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0),
                        );
                        self.active_trace.as_mut().expect("just checked").last_seal = Some(seq);
                    }
                }
            } else if let Some(at) = &self.active_trace {
                let (trace, root) = (at.trace, at.root);
                self.flush_trace_buf(trace, root);
            }
            self.distribute(stage, collected);
        }
        self.trace_live = false;
        Ok(())
    }

    /// Deliver one accumulated single-consumer run to `(stage, 0)` as a
    /// single batch, columnar when long enough to benefit.
    fn ship_run(
        &mut self,
        stage: usize,
        node: usize,
        port: usize,
        run: &mut Vec<Tuple>,
    ) -> Result<()> {
        if run.is_empty() {
            return Ok(());
        }
        let mut batch = Batch::from(std::mem::take(run));
        if batch.len() >= COLUMNAR_MIN_CHUNK {
            batch.columnarize();
        }
        self.push_run_to_slot(stage, 0, node, port, batch)
    }

    /// Release held sink output, per sink in registration order: across
    /// shards, everything with `ts < watermark` (or everything at
    /// finish), each interval in canonical (ts, content) order; on one
    /// shard, everything, in arrival order (see the module docs).
    fn release(&mut self, all: bool) -> Vec<(NodeId, Vec<Tuple>)> {
        let wm = self.watermark;
        let on_arrival = self.shards == 1;
        let mut out: Vec<(NodeId, Vec<Tuple>)> = Vec::new();
        for &sink in &self.sink_order {
            let Some(bucket) = self.held.get_mut(&sink) else {
                continue;
            };
            let mut released: Vec<Tuple>;
            if all || on_arrival {
                released = std::mem::take(bucket);
            } else {
                released = Vec::new();
                let mut kept = Vec::new();
                for t in bucket.drain(..) {
                    if t.ts < wm {
                        released.push(t);
                    } else {
                        kept.push(t);
                    }
                }
                *bucket = kept;
            }
            if !released.is_empty() {
                if !on_arrival {
                    canon::canonical_sort(&mut released);
                }
                out.push((NodeId::from_index(sink), released));
            }
        }
        out
    }

    fn drain_collected(&mut self) -> Result<Vec<(NodeId, Vec<Tuple>)>> {
        self.sweep(false, false)?;
        let t0 = self.active_trace.is_some().then(Instant::now);
        let out = self.release(false);
        self.record_emit(out.iter().map(|(_, t)| t.len()).sum(), t0);
        Ok(out)
    }

    fn finish(&mut self) -> Result<HashMap<NodeId, Vec<Tuple>>> {
        self.sweep(true, false)?;
        let t0 = self.active_trace.is_some().then(Instant::now);
        let released = self.release(true);
        self.record_emit(released.iter().map(|(_, t)| t.len()).sum(), t0);
        // Every registered sink gets an entry, empty or not, as
        // `run_batched` and `ExecSession::finish` report them.
        let mut out: HashMap<NodeId, Vec<Tuple>> = self
            .sink_order
            .iter()
            .map(|&sink| (NodeId::from_index(sink), Vec::new()))
            .collect();
        for (sink, tuples) in released {
            out.insert(sink, tuples);
        }
        Ok(out)
    }

    /// Close the live trace (if any) with its `Emit` span, parented
    /// under the newest seal.
    fn record_emit(&mut self, tuples: usize, t0: Option<Instant>) {
        if let Some(at) = self.active_trace.take() {
            self.telem.traces().record(
                at.trace,
                Some(at.last_seal.unwrap_or(at.root)),
                SpanKind::Emit,
                0,
                0,
                tuples,
                t0.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0),
            );
        }
    }

    fn shutdown(&mut self) {
        self.inline.clear();
        self.senders.clear(); // disconnect: workers drain and exit
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for StagedCore {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// An incremental sharded execution session over a query-graph factory.
/// Build one with [`crate::ShardedExecutor::session`]; see the module
/// docs for the execution model.
pub struct ShardedSession {
    sources: HashMap<String, NodeId>,
    core: StagedCore,
}

impl ShardedSession {
    /// Wrap one already-built graph as a one-shard session: exact
    /// [`ExecSession`] semantics (including sink arrival order) behind
    /// the sharded session surface, with the same typed panic
    /// containment. The shape a server uses when it was handed a built
    /// graph rather than a factory.
    pub fn single(graph: QueryGraph) -> Result<ShardedSession> {
        let defaults = crate::ShardedExecutor::new(1);
        let mut graph = Some(graph);
        ShardedSession::build(
            1,
            None,
            defaults.batch_size,
            defaults.pool_buffers,
            &mut || graph.take().expect("a one-shard session builds one graph"),
        )
    }

    pub(crate) fn build(
        shards: usize,
        workers: Option<usize>,
        batch_size: usize,
        pool_buffers: usize,
        factory: &mut dyn FnMut() -> QueryGraph,
    ) -> Result<ShardedSession> {
        let prototype = factory();
        let compiled = prototype.compile()?;
        let plan = ShardPlan::analyze(&prototype, &compiled);
        let sources: HashMap<String, NodeId> = prototype
            .source_entries()
            .map(|(name, id)| (name.to_string(), id))
            .collect();
        let n = compiled.num_nodes();

        // One shard when sharding cannot help: one shard configured, or
        // a fully pinned plan. Its only pipeline is the prototype
        // itself; more shards build one graph per shard and keep the
        // prototype to compute routing keys against.
        let (prototype, graphs) = if shards == 1 || !plan.is_parallel() {
            (None, vec![prototype])
        } else {
            let mut graphs = Vec::with_capacity(shards);
            for _ in 0..shards {
                let g = factory();
                if g.num_nodes() != n
                    || (0..n).any(|i| {
                        g.operator(NodeId::from_index(i)).name()
                            != prototype.operator(NodeId::from_index(i)).name()
                    })
                {
                    return Err(EngineError::InvalidConfig(
                        "shard factory must build identical graphs on every call".into(),
                    ));
                }
                graphs.push(g);
            }
            (Some(prototype), graphs)
        };
        let shards = graphs.len();
        // EXPLAIN renders the analyzed plan, before a one-shard core
        // collapses it to the single pinned stage it runs.
        let plan_text = plan.describe();
        let plan = if shards == 1 { plan.one_stage() } else { plan };

        let num_stages = plan.num_stages();
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let n_workers = workers.unwrap_or(cores).clamp(1, shards);
        let pool = BatchPool::new(pool_buffers);

        let mut is_real_sink = vec![false; n];
        let mut sink_order: Vec<usize> = Vec::new();
        for &s in compiled.sinks() {
            is_real_sink[s.index()] = true;
            sink_order.push(s.index());
        }
        let mut cut_targets: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        for c in plan.cut_edges() {
            cut_targets[c.from.index()].push((c.to.index(), c.port));
        }

        // Build stage metadata once from the plan's shape.
        let stage_nodes: Vec<Vec<usize>> = {
            let mut v: Vec<Vec<usize>> = vec![Vec::new(); num_stages];
            for i in 0..n {
                v[plan.stage_of(NodeId::from_index(i))].push(i);
            }
            v
        };
        let stages: Vec<StageMeta> = stage_nodes
            .iter()
            .map(|nodes| {
                let mut local_of = vec![None; n];
                for (local, &orig) in nodes.iter().enumerate() {
                    local_of[orig] = Some(NodeId::from_index(local));
                }
                StageMeta {
                    local_of,
                    orig_of: nodes.clone(),
                }
            })
            .collect();

        // One full graph per shard, split into per-stage sessions. The
        // per-node counter handles are harvested before the sessions
        // move onto their workers, so the driver (and anything it binds
        // a registry for) reads the same cells the workers bump.
        let mut telem = SessionTelemetry::new(num_stages, shards);
        telem.set_plan(plan_text);
        let mut per_worker: Vec<BTreeMap<usize, SlotState>> =
            (0..n_workers).map(|_| BTreeMap::new()).collect();
        for (shard, g) in graphs.into_iter().enumerate() {
            let stage_sessions = split_stages(g, &plan, &stages, num_stages, &pool)?;
            for (stage, session) in stage_sessions.into_iter().enumerate() {
                let orig_of = &stages[stage].orig_of;
                telem.push_op_entries(session.node_telemetry().iter().enumerate().map(
                    |(local, h)| {
                        OpTelemetryEntry {
                            op: session
                                .operator(NodeId::from_index(local))
                                .name()
                                .to_string(),
                            node: orig_of[local],
                            stage,
                            shard,
                            telem: h.clone(),
                        }
                    },
                ));
                let slot = stage * shards + shard;
                per_worker[shard % n_workers].insert(
                    slot,
                    SlotState {
                        session: Some(session),
                        poisoned: None,
                    },
                );
            }
        }
        let inline = per_worker.remove(0);

        let (reply_tx, reply_rx) = bounded::<Reply>(num_stages * shards + 4);
        let mut senders: Vec<Sender<WorkerMsg>> = Vec::with_capacity(per_worker.len());
        let mut handles = Vec::with_capacity(per_worker.len());
        for slots in per_worker {
            let (tx, rx) = bounded::<WorkerMsg>(WORKER_INBOX_CAPACITY);
            senders.push(tx);
            let reply_tx = reply_tx.clone();
            handles.push(std::thread::spawn(move || worker_loop(rx, reply_tx, slots)));
        }

        let builders = (0..num_stages * shards)
            .map(|_| SlotBuilder {
                node: 0,
                port: 0,
                batch: Batch::new(),
            })
            .collect();
        Ok(ShardedSession {
            sources,
            core: StagedCore {
                prototype,
                plan,
                shards,
                n_workers,
                batch_size,
                pool,
                stages,
                inline,
                senders,
                reply_rx,
                handles,
                builders,
                pools: vec![Vec::new(); num_stages],
                held: BTreeMap::new(),
                spread: vec![0; num_stages],
                cut_targets,
                is_real_sink,
                sink_order,
                watermark: 0,
                failed: None,
                telem,
                eager_swept: 0,
                eager_depth: vec![0; num_stages],
                fwd_buf: Vec::new(),
                keep_buf: Vec::new(),
                direct_scratch: Vec::new(),
                sealed: vec![0; num_stages],
                active_trace: None,
                trace_live: false,
                trace_buf: Vec::new(),
            },
        })
    }

    /// Named entry node for `name`, if the graph registered one.
    pub fn source_node(&self, name: &str) -> Option<NodeId> {
        self.sources.get(name).copied()
    }

    /// Merge named input streams into one timestamp-ordered feed of
    /// `(ts, node, port, tuple)` entries — the arrival order the session
    /// expects pushes to follow. Delegates to
    /// [`ustream_core::query::merged_feed`], the shared home of the feed
    /// tiebreak, so this driver can never order ties differently from
    /// `run_batched`.
    pub fn ordered_feed(
        &self,
        inputs: Vec<(String, usize, Vec<Tuple>)>,
    ) -> Result<Vec<(u64, NodeId, usize, Tuple)>> {
        ustream_core::query::merged_feed(&self.sources, inputs)
    }

    /// Push one batch of input addressed to `node`'s input `port`.
    /// Pushes must be globally ts-nondecreasing (the contract every
    /// driver — `ordered_feed`, the server's watermark merge — already
    /// satisfies). Errors when an operator or routing key panicked.
    pub fn push_batch(&mut self, node: NodeId, port: usize, batch: Batch) -> Result<()> {
        self.core.push_batch(node, port, batch)
    }

    /// The session's live telemetry handles: routing and exchange
    /// counters, stage pool depths, watermark-lag sketches, per-operator
    /// counters, and the structured event journal. Always on; handles
    /// are cloneable and readable from other threads while the session
    /// runs.
    pub fn telemetry(&self) -> &SessionTelemetry {
        &self.core.telem
    }

    /// Adopt every telemetry handle into `registry` under the
    /// `engine_*` metric families (see
    /// [`SessionTelemetry::bind_registry`]).
    pub fn bind_registry(&self, registry: &MetricsRegistry) {
        self.telemetry().bind_registry(registry);
    }

    /// Event time reached `watermark` without (necessarily) data: the
    /// caller promises no future push will carry `ts < watermark`.
    /// Event-time windows the clock has passed close at the next sweep —
    /// at once when the plan has a later stage to deliver them to,
    /// otherwise at the next [`ShardedSession::drain_collected`] — so
    /// results gated only on time still flow. This is how a served
    /// query whose publishers are idle-but-heartbeating keeps
    /// streaming: the server's collective publisher watermark can run
    /// ahead of the last pushed tuple.
    pub fn advance_watermark(&mut self, watermark: u64) -> Result<()> {
        let core = &mut self.core;
        core.guard()?;
        core.watermark = core.watermark.max(watermark);
        // A bare watermark advance seals an interval just like a push
        // does: deliver it downstream now.
        core.maybe_eager_sweep()
    }

    /// Drain the sink output completed since the previous drain, per
    /// sink in registration order: sweep the stages, broadcast the
    /// watermark, and release what is complete. Across shards that is
    /// every sink tuple whose timestamp the watermark sealed, in
    /// canonical `(ts, content)` order; on one shard it is everything
    /// collected, in arrival order — what a plain [`ExecSession`]
    /// drains.
    pub fn drain_collected(&mut self) -> Result<Vec<(NodeId, Vec<Tuple>)>> {
        self.core.drain_collected()
    }

    /// End of stream: flush every stage in order (exchanging the final
    /// windows downstream) and return the undrained remainder per sink,
    /// with an entry for every registered sink.
    pub fn finish(mut self) -> Result<HashMap<NodeId, Vec<Tuple>>> {
        let out = self.core.finish();
        self.core.shutdown();
        out
    }
}

/// Split one factory-built graph into its per-stage [`ExecSession`]s.
fn split_stages(
    graph: QueryGraph,
    plan: &ShardPlan,
    stages: &[StageMeta],
    num_stages: usize,
    pool: &BatchPool,
) -> Result<Vec<ExecSession>> {
    if num_stages == 1 {
        // No cuts: the stage graph is the graph itself (stage-local ids
        // coincide with the original ids).
        return Ok(vec![graph.into_session()?.with_pool(pool.clone())]);
    }
    let (nodes, edges, _sources, sinks) = graph.dismantle();
    let mut stage_graphs: Vec<QueryGraph> = (0..num_stages).map(|_| QueryGraph::new()).collect();
    for (i, op) in nodes.into_iter().enumerate() {
        let stage = plan.stage_of(NodeId::from_index(i));
        let local = stage_graphs[stage].add(op);
        debug_assert_eq!(Some(local), stages[stage].local_of[i], "stable split");
    }
    for (from, to, port) in edges {
        let stage = plan.stage_of(from);
        if stage == plan.stage_of(to) {
            let lf = stages[stage].local_of[from.index()].expect("node in stage");
            let lt = stages[stage].local_of[to.index()].expect("node in stage");
            stage_graphs[stage].connect(lf, lt, port)?;
        }
    }
    // Stage sinks: the query's real sinks plus every cut-edge source
    // (the exchange captures its output there).
    for s in sinks {
        let stage = plan.stage_of(s);
        let local = stages[stage].local_of[s.index()].expect("sink in stage");
        stage_graphs[stage].sink(local);
    }
    for c in plan.cut_edges() {
        let stage = plan.stage_of(c.from);
        let local = stages[stage].local_of[c.from.index()].expect("cut source in stage");
        stage_graphs[stage].sink(local);
    }
    stage_graphs
        .into_iter()
        .map(|g| Ok(g.into_session()?.with_pool(pool.clone())))
        .collect()
}
