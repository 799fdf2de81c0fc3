//! Operator instrumentation: always-on per-operator counters.
//!
//! "Processing of raw data must keep up with stream speed" (§1) — the
//! engine therefore makes per-operator cost observable. Every batched
//! executor records an [`OpTelemetry`] for every node, with no wrapper;
//! the server serves those cells as the `engine_op_*` metric families.
//!
//! The counters are `ustream-telemetry` atomic [`Counter`]s, so the
//! record path is a handful of relaxed `fetch_add`s — no lock is taken
//! anywhere on the hot path.

use ustream_telemetry::Counter;

/// Always-on per-operator execution counters recorded by the batched
/// executors themselves ([`crate::query::ExecSession`],
/// [`crate::query::QueryGraph::run_batched`]) — no wrapper needed, no
/// lock taken: every field is a relaxed atomic cell cheap enough to
/// leave enabled on the hot path.
///
/// `columnar_batches` vs `row_batches` is the input hit rate: how
/// often an operator received column input versus row input. It says
/// nothing about how a stateful operator *emitted*: a windowed
/// aggregate fed only columnar batches can still emit every window
/// through its row path, which `row_windows` counts.
#[derive(Debug, Clone, Default)]
pub struct OpTelemetry {
    pub tuples_in: Counter,
    pub tuples_out: Counter,
    /// Number of `process_batch` invocations.
    pub batches: Counter,
    /// Nanoseconds inside `process_batch`/`flush`/`advance_watermark`.
    pub busy_ns: Counter,
    /// Batches that arrived in the columnar layout.
    pub columnar_batches: Counter,
    /// Batches that arrived as rows.
    pub row_batches: Counter,
    /// Windows a windowed aggregate emitted through its row path
    /// (0 for every other operator), recorded by the operator itself
    /// through [`crate::ops::Operator::attach_telemetry`].
    pub row_windows: Counter,
}

impl OpTelemetry {
    /// Fraction of batches that hit the columnar fast path, or `None`
    /// before any batch has been processed.
    pub fn columnar_hit_rate(&self) -> Option<f64> {
        let c = self.columnar_batches.get();
        let r = self.row_batches.get();
        (c + r > 0).then(|| c as f64 / (c + r) as f64)
    }
}
