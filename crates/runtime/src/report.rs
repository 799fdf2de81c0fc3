//! EXPLAIN / EXPLAIN ANALYZE: the live plan report.
//!
//! [`crate::plan::ShardPlan::describe`] renders the *static* topology —
//! which operators run in which stage, where the exchanges sit. A
//! [`PlanReport`] overlays the *live* numbers from a running session's
//! [`crate::telemetry::SessionTelemetry`] onto that topology: per-stage
//! routing counts and skew, exchange forward totals, pool depths,
//! watermark-lag quantiles (per stage and merged across stages), and
//! per-operator tuple/batch/busy counters with the columnar-vs-row
//! input split and the windows an aggregate emitted through its row
//! path. Assembly is read-only — it snapshots the same atomic cells
//! the engine bumps, so an EXPLAIN ANALYZE never perturbs the run.
//!
//! The report is plain data (everything `pub`, `PartialEq`) so it can
//! cross the wire and be reconciled against a registry snapshot in
//! tests.

use crate::telemetry::SessionTelemetry;
use std::fmt::Write as _;
use ustream_telemetry::{QuantileSketch, SketchSnapshot};

/// One operator's live counters inside a [`StageReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct OpReport {
    /// Operator name (e.g. `select`, `windowed_aggregate`).
    pub op: String,
    /// Whole-graph node index.
    pub node: usize,
    pub stage: usize,
    pub shard: usize,
    pub tuples_in: u64,
    pub tuples_out: u64,
    pub batches: u64,
    pub busy_ns: u64,
    pub columnar_batches: u64,
    pub row_batches: u64,
    /// Windows emitted through the aggregate's row path (0 for other
    /// operators).
    pub row_windows: u64,
}

impl OpReport {
    /// Fraction of batches that took the columnar fast path.
    pub fn columnar_hit_rate(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.columnar_batches as f64 / self.batches as f64
        }
    }
}

/// One stage's live counters.
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    pub stage: usize,
    /// Tuples routed into each shard of this stage.
    pub routed: Vec<u64>,
    /// Tuples forwarded across the upstream exchange (0 for stage 0).
    pub exchange_forwarded: u64,
    /// Eager (pipelined) forward rounds that delivered tuples into this
    /// stage ahead of a drain/finish barrier (0 for stage 0, and when
    /// pipelined delivery is disabled).
    pub eager_forwards: u64,
    /// Eager intervals forwarded into this stage since its last
    /// drain/finish barrier — the pipeline's run-ahead depth.
    pub interval_depth: i64,
    /// Pending exchange-pool depth at the last sweep.
    pub pool_depth: i64,
    /// This stage's watermark-lag distribution.
    pub lag: SketchSnapshot,
    /// Max/mean of `routed` (1.0 = perfectly balanced; 0.0 when the
    /// stage has routed nothing).
    pub skew: f64,
    /// Per-operator counters, ordered (shard, node).
    pub ops: Vec<OpReport>,
}

/// The full EXPLAIN ANALYZE payload: static topology plus live
/// per-stage and per-operator counters.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanReport {
    /// [`crate::plan::ShardPlan::describe`] output (empty for a
    /// session built without a plan description).
    pub topology: String,
    pub stages: Vec<StageReport>,
    pub batches_pushed: u64,
    pub tuples_pushed: u64,
    pub watermark_sealed: i64,
    /// Every stage's lag sketch merged into one distribution.
    pub lag_merged: SketchSnapshot,
    /// Spans retained-or-evicted by the trace store so far.
    pub spans_recorded: u64,
    /// Batches the trace sampler has tagged so far.
    pub traces_sampled: u64,
}

impl PlanReport {
    /// Snapshot `telemetry` into a report. Read-only: touches the same
    /// cells the engine updates, never blocks or perturbs it.
    pub fn assemble(telemetry: &SessionTelemetry) -> PlanReport {
        let stages = (0..telemetry.num_stages())
            .map(|stage| {
                let routed: Vec<u64> = (0..telemetry.num_shards())
                    .map(|shard| telemetry.routed(stage, shard).get())
                    .collect();
                let total: u64 = routed.iter().sum();
                let skew = if total == 0 {
                    0.0
                } else {
                    let max = *routed.iter().max().expect("non-empty") as f64;
                    max * routed.len() as f64 / total as f64
                };
                let ops = telemetry
                    .op_entries()
                    .iter()
                    .filter(|e| e.stage == stage)
                    .map(|e| OpReport {
                        op: e.op.clone(),
                        node: e.node,
                        stage: e.stage,
                        shard: e.shard,
                        tuples_in: e.telem.tuples_in.get(),
                        tuples_out: e.telem.tuples_out.get(),
                        batches: e.telem.batches.get(),
                        busy_ns: e.telem.busy_ns.get(),
                        columnar_batches: e.telem.columnar_batches.get(),
                        row_batches: e.telem.row_batches.get(),
                        row_windows: e.telem.row_windows.get(),
                    })
                    .collect();
                StageReport {
                    stage,
                    routed,
                    exchange_forwarded: telemetry.exchange_forwarded(stage).get(),
                    eager_forwards: telemetry.eager_forwards(stage).get(),
                    interval_depth: telemetry.interval_depth(stage).get(),
                    pool_depth: telemetry.pool_depth(stage).get(),
                    lag: telemetry.watermark_lag(stage).snapshot(),
                    skew,
                    ops,
                }
            })
            .collect();
        let lag_merged = (1..telemetry.num_stages())
            .fold(telemetry.watermark_lag(0).clone(), |acc, stage| {
                QuantileSketch::merged(&acc, telemetry.watermark_lag(stage))
            })
            .snapshot();
        PlanReport {
            topology: telemetry.plan_text(),
            stages,
            batches_pushed: telemetry.batches_pushed.get(),
            tuples_pushed: telemetry.tuples_pushed.get(),
            watermark_sealed: telemetry.watermark_sealed.get(),
            lag_merged,
            spans_recorded: telemetry.traces().recorded(),
            traces_sampled: telemetry.traces().sampled(),
        }
    }

    /// Render the annotated tree: the static topology followed by live
    /// per-stage and per-operator annotations.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.topology.is_empty() {
            out.push_str(self.topology.trim_end());
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "analyze: {} batches, {} tuples pushed; sealed watermark {}",
            self.batches_pushed, self.tuples_pushed, self.watermark_sealed
        );
        let _ = writeln!(
            out,
            "analyze: merged lag {}; {} spans from {} sampled batches",
            fmt_lag(&self.lag_merged),
            self.spans_recorded,
            self.traces_sampled
        );
        for s in &self.stages {
            let routed: Vec<String> = s.routed.iter().map(|r| r.to_string()).collect();
            let _ = writeln!(
                out,
                "analyze: stage {}: routed [{}] (skew {:.2}x), forwarded {} \
                 ({} eager rounds, depth {}), pool {}, lag {}",
                s.stage,
                routed.join(", "),
                s.skew,
                s.exchange_forwarded,
                s.eager_forwards,
                s.interval_depth,
                s.pool_depth,
                fmt_lag(&s.lag)
            );
            for op in &s.ops {
                let _ = writeln!(
                    out,
                    "analyze:   {}#{} shard {}: {} in / {} out over {} batches \
                     ({} columnar / {} row), {} row windows, busy {}ns",
                    op.op,
                    op.node,
                    op.shard,
                    op.tuples_in,
                    op.tuples_out,
                    op.batches,
                    op.columnar_batches,
                    op.row_batches,
                    op.row_windows,
                    op.busy_ns
                );
            }
        }
        out
    }
}

fn fmt_lag(s: &SketchSnapshot) -> String {
    if s.count == 0 {
        "(no seals)".to_string()
    } else {
        format!("p50 {:.0} / p99 {:.0} (n={})", s.p50, s.p99, s.count)
    }
}
