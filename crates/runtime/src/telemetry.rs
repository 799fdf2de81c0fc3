//! Always-on telemetry for the sharded session.
//!
//! [`SessionTelemetry`] is the bundle of live handles a
//! [`crate::session::ShardedSession`] updates while it runs: per-stage
//! and per-shard routing counters, exchange forward counts, stage pool
//! depths, the sealed watermark, per-stage **watermark-lag** quantile
//! sketches, the per-operator [`OpTelemetry`] counters harvested from
//! every stage×shard [`ustream_core::query::ExecSession`], and the
//! structured [`EventJournal`]. Every handle is a relaxed atomic cell
//! (or, for the journal, batch-granular), so the session leaves all of
//! it enabled in production.
//!
//! **Watermark-lag semantics.** Each time a stage *seals* (the driver
//! broadcasts the current watermark to the stage's shards during a
//! sweep), the session records `high_water − previously_sealed` into
//! the stage's sketch — the span of event time that had accumulated,
//! unsealed, since the stage's previous seal. A pipeline drained after
//! every batch shows lags near the batch's timestamp span; a pipeline
//! drained rarely (or a stage starved behind a slow exchange) shows
//! the p95/p99 of that distribution growing. A one-shard session is
//! the same core with one stage, so it seals on the same schedule.
//!
//! Nothing here is wired to a server: [`SessionTelemetry::bind_registry`]
//! adopts every handle into a [`MetricsRegistry`] under the
//! `engine_*` families (see the README's Observability section for the
//! naming table), so the same cells the driver bumps feed a served
//! metrics surface.

use std::sync::{Arc, Mutex};
use ustream_core::OpTelemetry;
use ustream_telemetry::{
    Counter, EventJournal, Gauge, MetricsRegistry, QuantileSketch, TraceStore,
};

/// One operator's counters plus its identity in the sharded plan.
#[derive(Debug, Clone)]
pub struct OpTelemetryEntry {
    /// Operator name (as declared by [`ustream_core::Operator::name`]).
    pub op: String,
    /// Original (whole-graph) node index.
    pub node: usize,
    pub stage: usize,
    pub shard: usize,
    pub telem: OpTelemetry,
}

/// Live telemetry handles for one sharded session; `Clone` shares the
/// cells. Built by the session, readable from any thread while it runs.
#[derive(Debug, Clone)]
pub struct SessionTelemetry {
    stages: usize,
    shards: usize,
    /// Batches accepted by `push_batch`.
    pub batches_pushed: Counter,
    /// Tuples accepted by `push_batch`.
    pub tuples_pushed: Counter,
    /// Tuples routed into `[stage][shard]` slot sessions.
    routed: Vec<Vec<Counter>>,
    /// Tuples forwarded across the exchange into each stage (index 0
    /// unused: stage 0 has no upstream exchange).
    exchange_forwarded: Vec<Counter>,
    /// Eager (pipelined) forward rounds per stage that delivered at
    /// least one tuple ahead of a drain/finish barrier (index 0 unused).
    eager_forwards: Vec<Counter>,
    /// Sealed intervals forwarded eagerly into each stage since its last
    /// drain/finish barrier — how deep the pipeline is running ahead
    /// (reset to 0 at every barrier; index 0 unused).
    interval_depth: Vec<Gauge>,
    /// Pending exchange-pool depth per stage, sampled at each sweep.
    pool_depth: Vec<Gauge>,
    /// The most recently sealed watermark.
    pub watermark_sealed: Gauge,
    /// Per-stage watermark-lag sketches (see module docs).
    watermark_lag: Vec<QuantileSketch>,
    /// Per-operator counters harvested from the slot sessions.
    ops: Vec<OpTelemetryEntry>,
    journal: EventJournal,
    /// Causal span store; sampling disabled until
    /// [`ustream_telemetry::TraceStore::configure`] turns it on.
    traces: TraceStore,
    /// The rendered [`crate::plan::ShardPlan::describe`] topology,
    /// captured when the session is built (shared across clones).
    plan: Arc<Mutex<String>>,
}

impl SessionTelemetry {
    /// Fresh handles for a `stages × shards` plan (1×1 for a one-shard
    /// session).
    pub(crate) fn new(stages: usize, shards: usize) -> SessionTelemetry {
        SessionTelemetry {
            stages,
            shards,
            batches_pushed: Counter::new(),
            tuples_pushed: Counter::new(),
            routed: (0..stages)
                .map(|_| (0..shards).map(|_| Counter::new()).collect())
                .collect(),
            exchange_forwarded: (0..stages).map(|_| Counter::new()).collect(),
            eager_forwards: (0..stages).map(|_| Counter::new()).collect(),
            interval_depth: (0..stages).map(|_| Gauge::new()).collect(),
            pool_depth: (0..stages).map(|_| Gauge::new()).collect(),
            watermark_sealed: Gauge::new(),
            watermark_lag: (0..stages).map(|_| QuantileSketch::new()).collect(),
            ops: Vec::new(),
            journal: EventJournal::default(),
            traces: TraceStore::default(),
            plan: Arc::new(Mutex::new(String::new())),
        }
    }

    pub(crate) fn push_op_entries(&mut self, entries: impl IntoIterator<Item = OpTelemetryEntry>) {
        self.ops.extend(entries);
    }

    pub fn num_stages(&self) -> usize {
        self.stages
    }

    pub fn num_shards(&self) -> usize {
        self.shards
    }

    /// Tuples routed into `(stage, shard)` so far.
    pub fn routed(&self, stage: usize, shard: usize) -> &Counter {
        &self.routed[stage][shard]
    }

    /// Tuples forwarded across the exchange into `stage` (always 0 for
    /// stage 0).
    pub fn exchange_forwarded(&self, stage: usize) -> &Counter {
        &self.exchange_forwarded[stage]
    }

    /// Eager forward rounds that delivered tuples into `stage` ahead of
    /// a drain/finish barrier (always 0 for stage 0, and for sessions
    /// running with pipelined delivery disabled).
    pub fn eager_forwards(&self, stage: usize) -> &Counter {
        &self.eager_forwards[stage]
    }

    /// Sealed intervals forwarded eagerly into `stage` since its last
    /// drain/finish barrier.
    pub fn interval_depth(&self, stage: usize) -> &Gauge {
        &self.interval_depth[stage]
    }

    /// Pending exchange-pool depth of `stage` at the last sweep.
    pub fn pool_depth(&self, stage: usize) -> &Gauge {
        &self.pool_depth[stage]
    }

    /// The watermark-lag sketch of `stage`.
    pub fn watermark_lag(&self, stage: usize) -> &QuantileSketch {
        &self.watermark_lag[stage]
    }

    /// Per-operator counters, one entry per (stage, shard, node).
    pub fn op_entries(&self) -> &[OpTelemetryEntry] {
        &self.ops
    }

    /// The session's structured event journal.
    pub fn journal(&self) -> &EventJournal {
        &self.journal
    }

    /// The session's causal span store. Call
    /// [`ustream_telemetry::TraceStore::configure`] on it to turn on
    /// 1-in-N batch sampling; it ships disabled.
    pub fn traces(&self) -> &TraceStore {
        &self.traces
    }

    /// The rendered plan topology this session executes (empty until
    /// the session is built).
    pub fn plan_text(&self) -> String {
        self.plan.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    pub(crate) fn set_plan(&self, text: String) {
        *self.plan.lock().unwrap_or_else(|p| p.into_inner()) = text;
    }

    /// Adopt every handle into `registry` under the `engine_*`
    /// families, labeled by stage/shard/operator. Idempotent for the
    /// same registry; the registered cells are the live ones, so
    /// subsequent session activity is visible through the registry with
    /// no further plumbing.
    pub fn bind_registry(&self, registry: &MetricsRegistry) {
        registry.set_help(
            "engine_batches_pushed_total",
            "Batches accepted by push_batch",
        );
        registry.set_help(
            "engine_tuples_pushed_total",
            "Tuples accepted by push_batch",
        );
        registry.set_help("engine_watermark_sealed", "Most recently sealed watermark");
        registry.set_help(
            "engine_shard_routed_tuples_total",
            "Tuples routed into each (stage, shard) slot session",
        );
        registry.set_help(
            "engine_exchange_forwarded_tuples_total",
            "Tuples forwarded across the exchange into each stage",
        );
        registry.set_help(
            "engine_exchange_eager_forwards_total",
            "Eager (pipelined) forward rounds delivering tuples into each stage ahead of a barrier",
        );
        registry.set_help(
            "engine_exchange_interval_depth",
            "Sealed intervals forwarded eagerly into each stage since its last drain/finish",
        );
        registry.set_help(
            "engine_stage_pool_depth",
            "Pending exchange-pool depth per stage, sampled at each sweep",
        );
        registry.set_help(
            "engine_watermark_lag",
            "Event-time span sealed per stage seal (see README: watermark-lag semantics)",
        );
        registry.set_help(
            "engine_watermark_lag_merged",
            "Cross-stage merge of every stage's watermark-lag sketch",
        );
        registry.adopt_counter("engine_batches_pushed_total", &[], &self.batches_pushed);
        registry.adopt_counter("engine_tuples_pushed_total", &[], &self.tuples_pushed);
        registry.adopt_gauge("engine_watermark_sealed", &[], &self.watermark_sealed);
        for stage in 0..self.stages {
            let s = stage.to_string();
            for shard in 0..self.shards {
                registry.adopt_counter(
                    "engine_shard_routed_tuples_total",
                    &[("stage", &s), ("shard", &shard.to_string())],
                    &self.routed[stage][shard],
                );
            }
            if stage > 0 {
                registry.adopt_counter(
                    "engine_exchange_forwarded_tuples_total",
                    &[("stage", &s)],
                    &self.exchange_forwarded[stage],
                );
                registry.adopt_counter(
                    "engine_exchange_eager_forwards_total",
                    &[("stage", &s)],
                    &self.eager_forwards[stage],
                );
                registry.adopt_gauge(
                    "engine_exchange_interval_depth",
                    &[("stage", &s)],
                    &self.interval_depth[stage],
                );
            }
            registry.adopt_gauge(
                "engine_stage_pool_depth",
                &[("stage", &s)],
                &self.pool_depth[stage],
            );
            registry.adopt_sketch(
                "engine_watermark_lag",
                &[("stage", &s)],
                &self.watermark_lag[stage],
            );
        }
        // One cross-stage lag summary: the per-stage sketches merged at
        // snapshot time, so scrapes see tail lag without client-side
        // folding.
        registry.adopt_merged_sketch("engine_watermark_lag_merged", &[], &self.watermark_lag);
        for e in &self.ops {
            let labels: Vec<(String, String)> = vec![
                ("op".to_string(), e.op.clone()),
                ("node".to_string(), e.node.to_string()),
                ("stage".to_string(), e.stage.to_string()),
                ("shard".to_string(), e.shard.to_string()),
            ];
            let labels: Vec<(&str, &str)> = labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            registry.adopt_counter("engine_op_tuples_in_total", &labels, &e.telem.tuples_in);
            registry.adopt_counter("engine_op_tuples_out_total", &labels, &e.telem.tuples_out);
            registry.adopt_counter("engine_op_batches_total", &labels, &e.telem.batches);
            registry.adopt_counter("engine_op_busy_ns_total", &labels, &e.telem.busy_ns);
            registry.adopt_counter(
                "engine_op_columnar_batches_total",
                &labels,
                &e.telem.columnar_batches,
            );
            registry.adopt_counter("engine_op_row_batches_total", &labels, &e.telem.row_batches);
            registry.adopt_counter("engine_op_row_windows_total", &labels, &e.telem.row_windows);
        }
    }

    /// Record one stage seal: sample the lag since the stage's previous
    /// seal and move the sealed gauge forward.
    pub(crate) fn record_seal(&self, stage: usize, previously_sealed: u64, watermark: u64) {
        self.watermark_lag[stage].record(watermark.saturating_sub(previously_sealed) as f64);
        self.watermark_sealed.fetch_max(watermark as i64);
    }
}
