//! Windowed group-by aggregation under uncertainty (§5.1).
//!
//! For each window × group the operator computes the *result
//! distribution* of the aggregate. SUM/AVG over independent uncertain
//! tuples supports every algorithm the paper evaluates (Table 2) plus the
//! closed-form fast paths:
//!
//! - [`Strategy::ExactParametric`] — closed-form convolution when one
//!   exists (all-Gaussian, common-scale Gamma, small mixtures).
//! - [`Strategy::CfInversion`] — exact Gil–Pelaez inversion of the
//!   product CF ("CF (inversion)" row).
//! - [`Strategy::CfApprox`] — cumulant-matched Gaussian / CF-grid mixture
//!   fit ("CF (approx.)" row).
//! - [`Strategy::Clt`] — Central Limit Theorem, near-zero cost.
//! - [`Strategy::HistogramSampling`] — the Ge–Zdonik baseline
//!   ("Histogram" row).
//! - [`Strategy::MaClt`] — §4.4/§5.1 correlated path: the window is a
//!   time series of *certain* observations; identify MA(q) and apply the
//!   CLT for MA processes.
//!
//! COUNT over tuples with existence probabilities is the exact
//! Poisson–binomial distribution (DP). MAX/MIN use order statistics.
//! Tuples whose lineage reveals shared ancestry are handled by the
//! lineage-aware path (see `source of truth` note on [`AggFunc::Sum`]).
//!
//! **Columnar and row emit.** A tumbling window fed columnar batches
//! buffers them as columns and emits through a vectorized SUM/AVG path,
//! bit-identical to the row emit. A window takes the row path when:
//!
//! - the configuration has no columnar kernel: a closure group key, a
//!   HAVING clause, COUNT/MAX/MIN, `MaClt`, lineage provenance columns,
//!   count or sliding windows;
//! - its payload column is not all parametric Gaussians;
//! - a row batch, or a columnar batch over a different schema `Arc`,
//!   arrived while it was open. The fallback lasts that one window: the
//!   next columnar batch over the schema of the open row window moves
//!   its tuples back into the column buffer.
//!
//! Every window emitted through the row path is counted in
//! [`crate::OpTelemetry::row_windows`] (exported as
//! `engine_op_row_windows_total` and in EXPLAIN ANALYZE), so a
//! workload whose batches all arrive columnar can still be seen missing
//! the columnar emit.

use crate::batch::Batch;
use crate::columnar::{Column, Columns};
use crate::lineage::Lineage;
use crate::metrics::OpTelemetry;
use crate::ops::Operator;
use crate::schema::{DataType, Schema};
use crate::tuple::Tuple;
use crate::updf::{ConversionPolicy, Updf};
use crate::value::{GroupKey, Value};
use crate::window::{CountWindow, TumblingWindow};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::Arc;
use ustream_prob::cf::{cf_approx_auto, CfSum};
use ustream_prob::convolve::{clt_sum, exact_sum};
use ustream_prob::dist::{Dist, Gaussian};
use ustream_prob::histogram::{histogram_sum, HistogramPdf};
use ustream_prob::order_stats::OrderStatDist;
use ustream_telemetry::Counter;

/// Aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Sum of the uncertain attribute. When input tuples carry a
    /// `<field>__src` provenance column (emitted by lineage-aware joins),
    /// repeated sources are combined *exactly* (coefficient scaling)
    /// instead of being wrongly treated as independent.
    Sum,
    /// Mean (sum scaled by 1/n).
    Avg,
    /// Number of tuples, accounting for existence probabilities
    /// (Poisson–binomial).
    Count,
    Max,
    Min,
}

/// Result-distribution algorithm for SUM/AVG.
#[derive(Debug, Clone)]
pub enum Strategy {
    /// Closed form when available, else CF approximation, else CLT.
    Auto,
    /// Only closed-form convolutions; windows without one fall back to CLT.
    ExactParametric,
    /// Exact characteristic-function inversion onto a histogram.
    CfInversion { bins: usize, span_sigmas: f64 },
    /// CF approximation: Gaussian via cumulants, or a 2-component mixture
    /// CF fit when the sum is visibly non-Gaussian.
    CfApprox {
        skew_threshold: f64,
        kurt_threshold: f64,
    },
    /// Plain CLT (moment matching).
    Clt,
    /// Histogram-based sampling baseline [Ge & Zdonik].
    HistogramSampling { buckets: usize, samples: usize },
    /// Correlated time-series path over a *certain* float attribute.
    MaClt { max_order: usize },
}

/// One aggregate to compute.
pub struct AggSpec {
    /// Input attribute (uncertain, except for `MaClt` which reads floats).
    pub field: String,
    pub func: AggFunc,
    /// Output attribute name.
    pub out: String,
    pub strategy: Strategy,
}

/// Optional HAVING clause: emit the group only when
/// P(aggregate `out` > threshold) ≥ min_prob; the probability is attached
/// as float attribute `p_<out>`.
pub struct Having {
    pub out: String,
    pub threshold: f64,
    pub min_prob: f64,
}

/// Windowing mode.
pub enum WindowKind {
    Tumbling(u64),
    Count(usize),
    /// Overlapping event-time windows: every `slide_ms` emit the window
    /// covering the trailing `range_ms` (the queries' `[Range r]` with a
    /// periodic Rstream).
    Sliding {
        range_ms: u64,
        slide_ms: u64,
    },
}

enum WindowState {
    Tumbling(TumblingWindow),
    Count(CountWindow),
    Sliding {
        range_ms: u64,
        slide_ms: u64,
        /// Event time at which the next window closes.
        next_emit: Option<u64>,
        buf: Vec<Tuple>,
    },
}

/// The windowed group-by aggregation operator.
pub struct WindowedAggregate {
    name: String,
    window: WindowState,
    key_fn: Box<dyn Fn(&Tuple) -> GroupKey + Send>,
    /// Set when the group key is a plain field read
    /// ([`Self::keyed_by_field`]) — unlocks the columnar emit path and
    /// key-column routing at exchanges.
    key_field: Option<String>,
    specs: Vec<AggSpec>,
    having: Option<Having>,
    out_schema: Arc<Schema>,
    /// Columnar tumbling-window buffer: `(window_start, columns)`.
    /// Invariant: when this is non-empty the row window buffer is empty,
    /// and vice versa — [`Self::hydrate_col_window`] restores the row
    /// form before any row-path processing touches the window, and
    /// [`Self::columnarize_row_window`] moves it back.
    col_buf: Option<(u64, Columns)>,
    /// Windows emitted through the row path ([`Self::emit_window`]);
    /// shares the executor's [`OpTelemetry::row_windows`] cell once
    /// attached.
    row_windows: Counter,
    /// Deterministic rng for the sampling strategies.
    rng: StdRng,
}

impl WindowedAggregate {
    pub fn new(
        window: WindowKind,
        key_fn: impl Fn(&Tuple) -> GroupKey + Send + 'static,
        specs: Vec<AggSpec>,
    ) -> Self {
        assert!(!specs.is_empty(), "need at least one aggregate");
        let mut b = Schema::builder()
            .field("group", DataType::Str)
            .field("window_start", DataType::Time)
            .field("window_end", DataType::Time)
            .field("n_tuples", DataType::Int);
        for s in &specs {
            b = b.field(s.out.clone(), DataType::Uncertain);
            b = b.field(format!("p_{}", s.out), DataType::Float);
        }
        let out_schema = b.build();
        WindowedAggregate {
            name: "aggregate".into(),
            window: match window {
                WindowKind::Tumbling(ms) => WindowState::Tumbling(TumblingWindow::new(ms)),
                WindowKind::Count(n) => WindowState::Count(CountWindow::new(n)),
                WindowKind::Sliding { range_ms, slide_ms } => {
                    assert!(
                        range_ms > 0 && slide_ms > 0,
                        "sliding window sizes must be positive"
                    );
                    WindowState::Sliding {
                        range_ms,
                        slide_ms,
                        next_emit: None,
                        buf: Vec::new(),
                    }
                }
            },
            key_fn: Box::new(key_fn),
            key_field: None,
            specs,
            having: None,
            out_schema,
            col_buf: None,
            row_windows: Counter::new(),
            rng: StdRng::seed_from_u64(0xA66),
        }
    }

    /// A windowed aggregate whose group key is the value of one input
    /// field — semantically `GROUP BY field`. Behaves exactly like
    /// [`Self::new`] with a field-lookup closure, but because the key is
    /// declared rather than hidden in the closure, columnar batches can
    /// be grouped by reading the key column (and exchanges can route by
    /// it) without materializing tuples.
    pub fn keyed_by_field(
        window: WindowKind,
        field: impl Into<String>,
        specs: Vec<AggSpec>,
    ) -> Self {
        let field = field.into();
        let lookup = field.clone();
        let mut agg = Self::new(
            window,
            move |t: &Tuple| {
                GroupKey::from_value(t.get(&lookup).expect("group key field present"))
                    .expect("group key field must hold a groupable value")
            },
            specs,
        );
        agg.key_field = Some(field);
        agg
    }

    pub fn with_having(mut self, having: Having) -> Self {
        assert!(
            self.specs.iter().any(|s| s.out == having.out),
            "HAVING references unknown aggregate `{}`",
            having.out
        );
        self.having = Some(having);
        self
    }

    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    fn emit_window(&mut self, start: u64, end: u64, tuples: Vec<Tuple>) -> Vec<Tuple> {
        self.row_windows.inc();
        // Group tuples. Group cardinality per window is usually small
        // (the query's GROUP BY domain), where a linear scan over the
        // group list beats a tree map per member; past a small threshold
        // we spill to a BTreeMap index so high-cardinality keys stay
        // O(members·log groups). The final sort restores the
        // deterministic key-ordered output.
        const LINEAR_GROUP_LIMIT: usize = 16;
        let mut groups: Vec<(GroupKey, Vec<Tuple>)> = Vec::new();
        let mut index: Option<BTreeMap<GroupKey, usize>> = None;
        for t in tuples {
            let key = (self.key_fn)(&t);
            let pos = match &index {
                Some(idx) => idx.get(&key).copied(),
                None => groups.iter().position(|(k, _)| *k == key),
            };
            match pos {
                Some(i) => groups[i].1.push(t),
                None => {
                    if index.is_none() && groups.len() >= LINEAR_GROUP_LIMIT {
                        index = Some(
                            groups
                                .iter()
                                .enumerate()
                                .map(|(i, (k, _))| (k.clone(), i))
                                .collect(),
                        );
                    }
                    if let Some(idx) = &mut index {
                        idx.insert(key.clone(), groups.len());
                    }
                    groups.push((key, vec![t]));
                }
            }
        }
        // Aggregates are computed in key order (deterministic rng draw
        // order for the sampling strategies), but the *emitted* rows are
        // ordered by the engine's canonical (ts, content) key below — so
        // one window's rows read the same whether one instance or eight
        // key-partitioned shard instances produced them.
        groups.sort_by(|(a, _), (b, _)| a.cmp(b));

        let mut out = Vec::new();
        'group: for (key, members) in groups {
            let mut values: Vec<Value> = vec![
                Value::Str(format!("{key:?}")),
                Value::Time(start),
                Value::Time(end),
                Value::Int(members.len() as i64),
            ];
            let lineage = Lineage::union_all(members.iter().map(|m| &m.lineage));

            for spec in &self.specs {
                // Sample payloads are summed through their Gaussian fit.
                let dist = compute_aggregate(
                    spec,
                    &members,
                    &ConversionPolicy::FitGaussian,
                    &mut self.rng,
                );
                let Some(dist) = dist else {
                    continue 'group; // unusable group (e.g. no valid inputs)
                };
                let mut p_field = 1.0;
                if let Some(h) = self.having.as_ref().filter(|h| h.out == spec.out) {
                    p_field = dist.prob_above(h.threshold);
                    if p_field < h.min_prob {
                        continue 'group;
                    }
                }
                values.push(Value::from(dist));
                values.push(Value::Float(p_field));
            }

            out.push(Tuple::derived(
                self.out_schema.clone(),
                values,
                end,
                1.0,
                lineage,
            ));
        }
        // All rows of one window share ts = window end, so this orders
        // purely by content — the partition-independent canonical order.
        crate::canon::canonical_sort(&mut out);
        out
    }

    /// Emit a closed window held in columnar form: the vectorized
    /// SUM/CLT path when the configuration and column layout allow it,
    /// otherwise hydrate the members and run the row emit.
    fn emit_columns(&mut self, start: u64, end: u64, cols: Columns) -> Vec<Tuple> {
        match self.emit_window_columnar(start, end, &cols) {
            Some(out) => out,
            None => self.emit_window(start, end, cols.into_rows()),
        }
    }

    /// Vectorized window emit: group by reading the key column, then for
    /// each group feed the Gaussian column's `(mean, sd)` pairs straight
    /// into the shared SUM strategy core. Returns `None` when anything
    /// needs the row form — a closure key, a HAVING clause, a non-SUM/AVG
    /// aggregate, a time-series strategy, lineage provenance columns, or
    /// a non-Gaussian payload column. Produces bit-identical output to
    /// [`Self::emit_window`]: same grouping order, same rng draw order,
    /// same scalar call chain.
    fn emit_window_columnar(&mut self, start: u64, end: u64, cols: &Columns) -> Option<Vec<Tuple>> {
        if self.having.is_some() {
            return None;
        }
        let schema = cols.schema();
        let key_idx = schema.index_of(self.key_field.as_ref()?).ok()?;
        let key_col = cols.col(key_idx);
        // Typed key columns yield a group key for every row; a row
        // fallback column may hold ungroupable values (which the row
        // path's key closure would reject by panicking, not dropping).
        if !matches!(
            key_col,
            Column::Int(_) | Column::Time(_) | Column::Str { .. }
        ) {
            return None;
        }
        let mut spec_cols = Vec::with_capacity(self.specs.len());
        for spec in &self.specs {
            if !matches!(spec.func, AggFunc::Sum | AggFunc::Avg)
                || matches!(spec.strategy, Strategy::MaClt { .. })
                || schema.index_of(&format!("{}__src", spec.field)).is_ok()
            {
                return None;
            }
            let idx = schema.index_of(&spec.field).ok()?;
            cols.col(idx).as_gaussian()?;
            spec_cols.push(idx);
        }

        // Group rows by key into a vec kept sorted by key (binary-search
        // insert: group counts per window are small, and a contiguous vec
        // beats a node-allocating map). Ascending key order is the same
        // order emit_window computes (and draws the rng) in after its
        // sort, and within a group ascending row index is arrival order,
        // so float accumulation order matches too.
        let mut groups: Vec<(GroupKey, Vec<usize>)> = Vec::new();
        for r in 0..cols.len() {
            let key = key_col.group_key_at(r).expect("typed key column");
            match groups.binary_search_by(|(k, _)| k.cmp(&key)) {
                Ok(i) => groups[i].1.push(r),
                Err(i) => groups.insert(i, (key, vec![r])),
            }
        }

        let existence = cols.existence();
        let mut out = Vec::new();
        'group: for (key, rows) in groups {
            let mut values: Vec<Value> = vec![
                Value::Str(format!("{key:?}")),
                Value::Time(start),
                Value::Time(end),
                Value::Int(rows.len() as i64),
            ];
            let lineage = Lineage::union_all(rows.iter().map(|&r| &cols.lineage()[r]));
            for (spec, &idx) in self.specs.iter().zip(&spec_cols) {
                let (mean, sd) = cols.col(idx).as_gaussian().expect("eligibility checked");
                let Some(mut dist) =
                    sum_gaussian_rows(mean, sd, &rows, existence, &spec.strategy, &mut self.rng)
                else {
                    continue 'group;
                };
                if spec.func == AggFunc::Avg {
                    dist = dist.affine(1.0 / rows.len() as f64, 0.0);
                }
                values.push(Value::from(dist));
                values.push(Value::Float(1.0));
            }
            out.push(Tuple::derived(
                self.out_schema.clone(),
                values,
                end,
                1.0,
                lineage,
            ));
        }
        crate::canon::canonical_sort(&mut out);
        Some(out)
    }

    /// Buffer a columnar batch into the tumbling window without
    /// hydrating, returning every window it closes. Mirrors
    /// [`TumblingWindow::push`] row for row: the first row fixes the open
    /// window's start, late rows fold in, and a row whose window starts
    /// later closes the buffer.
    fn push_columns_tumbling(
        &mut self,
        len_ms: u64,
        mut cols: Columns,
    ) -> Vec<(u64, u64, Columns)> {
        let mut closed = Vec::new();
        if cols.is_empty() {
            return closed;
        }
        // One forward scan finds every row that opens a window after the
        // one currently accumulating; rows whose window start is not past
        // the current one (including late rows) fold into it.
        let mut cur = match &self.col_buf {
            Some((start, _)) => *start,
            None => (cols.ts()[0] / len_ms) * len_ms,
        };
        let mut bounds: Vec<(usize, u64)> = Vec::new();
        for (i, &t) in cols.ts().iter().enumerate() {
            let w = (t / len_ms) * len_ms;
            if w > cur {
                bounds.push((i, w));
                cur = w;
            }
        }
        // Split from the back so each segment's rows move exactly once;
        // splitting forward would recopy the whole tail at every boundary.
        let mut segments: Vec<(u64, Columns)> = Vec::with_capacity(bounds.len());
        for &(at, w) in bounds.iter().rev() {
            segments.push((w, cols.split_off(at)));
        }
        // `cols` is now only the head, which continues the open window.
        match &mut self.col_buf {
            Some((_, buf)) => buf.append(cols),
            None => {
                let start = (cols.ts()[0] / len_ms) * len_ms;
                self.col_buf = Some((start, cols));
            }
        }
        // Each later segment closes whatever window was accumulating.
        for (w, seg) in segments.into_iter().rev() {
            let (start, buf) = self.col_buf.take().expect("buffer filled above");
            closed.push((start, start + len_ms, buf));
            self.col_buf = Some((w, seg));
        }
        closed
    }

    /// Replay the columnar buffer into the row tumbling window before any
    /// row-path processing. Replay reproduces the row window's state
    /// exactly: the buffer's first row opens the window at the buffered
    /// start and every later row folds in, so nothing can close here.
    fn hydrate_col_window(&mut self) {
        let Some((_, buf)) = self.col_buf.take() else {
            return;
        };
        let WindowState::Tumbling(w) = &mut self.window else {
            unreachable!("columnar buffer only exists for tumbling windows");
        };
        for t in buf.into_rows() {
            let closed = w.push(t);
            debug_assert!(closed.is_empty(), "replay must not close windows");
        }
    }

    /// The inverse of [`Self::hydrate_col_window`]: when the open row
    /// window holds only tuples over `schema`'s `Arc`, move them into
    /// the column buffer, so a row batch costs the columnar path at most
    /// the window it lands in. The row window's start is the buffer's
    /// start (its first tuple opened it, later ones folded in), so the
    /// state is the same window in the other layout. Returns whether the
    /// row window is now empty.
    fn columnarize_row_window(&mut self, schema: &Arc<Schema>) -> bool {
        let WindowState::Tumbling(w) = &mut self.window else {
            return false;
        };
        if w.pending().iter().any(|t| !Arc::ptr_eq(t.schema(), schema)) {
            return false;
        }
        if let Some(open) = w.flush() {
            debug_assert!(self.col_buf.is_none(), "one layout holds the window");
            let cols = Columns::from_rows(open.tuples).expect("one schema Arc");
            self.col_buf = Some((open.start, cols));
        }
        true
    }

    /// Advance the sliding-window state by one tuple, appending every
    /// window it closes to `pending` as `(start, end, members)`. The
    /// single home of the close/evict logic.
    fn sliding_push(&mut self, tuple: Tuple, pending: &mut Vec<(u64, u64, Vec<Tuple>)>) {
        let WindowState::Sliding {
            range_ms,
            slide_ms,
            next_emit,
            buf,
        } = &mut self.window
        else {
            unreachable!("sliding_push on a non-sliding window");
        };
        let (range_ms, slide_ms) = (*range_ms, *slide_ms);
        if next_emit.is_none() {
            // First window closes one slide after the first tuple.
            *next_emit = Some((tuple.ts / slide_ms + 1) * slide_ms);
        }
        // Close every slide boundary the new tuple jumps past.
        while next_emit.is_some_and(|boundary| tuple.ts >= boundary) {
            close_sliding_boundary(range_ms, slide_ms, next_emit, buf, pending);
        }
        buf.push(tuple);
    }

    /// Close sliding boundaries an external watermark has passed —
    /// the same trigger [`WindowedAggregate::sliding_push`] applies when
    /// a tuple jumps a boundary, driven by punctuation instead of data.
    fn sliding_advance(&mut self, watermark: u64, pending: &mut Vec<(u64, u64, Vec<Tuple>)>) {
        let WindowState::Sliding {
            range_ms,
            slide_ms,
            next_emit,
            buf,
        } = &mut self.window
        else {
            unreachable!("sliding_advance on a non-sliding window");
        };
        let (range_ms, slide_ms) = (*range_ms, *slide_ms);
        while next_emit.is_some_and(|boundary| boundary <= watermark) {
            close_sliding_boundary(range_ms, slide_ms, next_emit, buf, pending);
        }
    }
}

/// Close the sliding window ending at `next_emit`: collect the grid
/// window's members, advance the boundary by one slide, evict tuples
/// that can never appear in later windows. The one place a sliding
/// boundary closes, shared by the push, watermark, and flush paths.
fn close_sliding_boundary(
    range_ms: u64,
    slide_ms: u64,
    next_emit: &mut Option<u64>,
    buf: &mut Vec<Tuple>,
    pending: &mut Vec<(u64, u64, Vec<Tuple>)>,
) {
    let Some(boundary) = *next_emit else { return };
    let start = boundary.saturating_sub(range_ms);
    let members: Vec<Tuple> = buf
        .iter()
        .filter(|t| t.ts >= start && t.ts < boundary)
        .cloned()
        .collect();
    if !members.is_empty() {
        pending.push((start, boundary, members));
    }
    *next_emit = Some(boundary + slide_ms);
    let keep_from = (boundary + slide_ms).saturating_sub(range_ms);
    buf.retain(|t| t.ts >= keep_from);
}

/// Compute one aggregate's result distribution over the group members.
fn compute_aggregate(
    spec: &AggSpec,
    members: &[Tuple],
    policy: &ConversionPolicy,
    rng: &mut StdRng,
) -> Option<Updf> {
    match spec.func {
        AggFunc::Count => Some(poisson_binomial(members)),
        AggFunc::Sum | AggFunc::Avg => {
            let updf = sum_distribution(spec, members, policy, rng)?;
            if spec.func == AggFunc::Avg {
                Some(updf.affine(1.0 / members.len() as f64, 0.0))
            } else {
                Some(updf)
            }
        }
        AggFunc::Max | AggFunc::Min => {
            let dists = collect_dists(spec, members, policy)?;
            let os = if spec.func == AggFunc::Max {
                OrderStatDist::max_of(dists)
            } else {
                OrderStatDist::min_of(dists)
            };
            Some(Updf::Histogram(os.to_histogram(256)))
        }
    }
}

/// A per-call field-index cursor: resolves `name` against each tuple's
/// schema, re-resolving only when the schema `Arc` changes — one string
/// lookup per schema run instead of per member (the pre-resolved-index
/// discipline of the compiled plan, applied to the emit path).
fn index_cursor(name: &str) -> impl FnMut(&Tuple) -> Option<usize> + '_ {
    let mut cache: Option<(Arc<Schema>, Option<usize>)> = None;
    move |t: &Tuple| match &cache {
        Some((s, idx)) if Arc::ptr_eq(s, t.schema()) => *idx,
        _ => {
            let idx = t.schema().index_of(name).ok();
            cache = Some((t.schema().clone(), idx));
            idx
        }
    }
}

/// Gather the members' attribute distributions as [`Dist`]s (converting
/// sample payloads per policy). Applies existence-probability thinning to
/// the first two moments when existence < 1 would otherwise be ignored.
fn collect_dists(
    spec: &AggSpec,
    members: &[Tuple],
    policy: &ConversionPolicy,
) -> Option<Vec<Dist>> {
    let mut idx_of = index_cursor(&spec.field);
    let mut dists = Vec::with_capacity(members.len());
    for m in members {
        let u = m.at(idx_of(m)?).as_updf()?;
        dists.push(u.to_dist(policy));
    }
    Some(dists)
}

/// Bernoulli-thinned moments: X·B(e) has mean e·μ and variance
/// e·σ² + e(1−e)·μ².
/// SUM over one group's rows of a Gaussian column, indexed by `rows`.
///
/// The existence-thinned branch — the common case once a `Select` has
/// scaled existence below certainty — runs straight off the `(mean, sd)`
/// slices, constructing each `Dist` on the stack and calling the same
/// scalar chain (`thinned_moments`, `Gaussian::from_mean_var`) in the
/// same row order as [`sum_dists_core`], so the result is bit-identical
/// without materializing a `Vec<Dist>` per group. All other branches
/// materialize the dists and defer to [`sum_dists_core`] unchanged.
fn sum_gaussian_rows(
    mean: &[f64],
    sd: &[f64],
    rows: &[usize],
    existence: &[f64],
    strategy: &Strategy,
    rng: &mut StdRng,
) -> Option<Updf> {
    if rows.is_empty() {
        return None;
    }
    if !rows.iter().all(|&r| existence[r] >= 1.0 - 1e-12) {
        let mut m = 0.0;
        let mut v = 0.0;
        for &r in rows {
            let d = Dist::Gaussian(Gaussian::new(mean[r], sd[r]));
            let (tm, tv) = thinned_moments(&d, existence[r]);
            m += tm;
            v += tv;
        }
        return Some(Updf::Parametric(Dist::Gaussian(Gaussian::from_mean_var(
            m,
            v.max(1e-18),
        ))));
    }
    let dists: Vec<Dist> = rows
        .iter()
        .map(|&r| Dist::Gaussian(Gaussian::new(mean[r], sd[r])))
        .collect();
    let ex: Vec<f64> = rows.iter().map(|&r| existence[r]).collect();
    sum_dists_core(dists, &ex, strategy, rng)
}

fn thinned_moments(d: &Dist, existence: f64) -> (f64, f64) {
    let (mu, var) = (d.mean(), d.variance());
    (
        existence * mu,
        existence * var + existence * (1.0 - existence) * mu * mu,
    )
}

/// SUM result distribution under the chosen strategy.
fn sum_distribution(
    spec: &AggSpec,
    members: &[Tuple],
    policy: &ConversionPolicy,
    rng: &mut StdRng,
) -> Option<Updf> {
    if members.is_empty() {
        return None;
    }

    // Correlated-time-series path: certain float attribute.
    if let Strategy::MaClt { max_order } = spec.strategy {
        let mut idx_of = index_cursor(&spec.field);
        let mut pairs: Vec<(u64, f64)> = members
            .iter()
            .map(|m| Some((m.ts, m.at(idx_of(m)?).as_float()?)))
            .collect::<Option<Vec<_>>>()?;
        pairs.sort_by_key(|&(ts, _)| ts);
        let xs: Vec<f64> = pairs.into_iter().map(|(_, x)| x).collect();
        if xs.len() < 2 {
            return Some(Updf::Parametric(Dist::gaussian(xs[0], 1e-9)));
        }
        let res = ustream_ts::clt::ma_clt_pipeline(&xs, max_order, 3.0);
        let n = xs.len() as f64;
        let sum_g = Gaussian::from_mean_var(
            res.mean_dist.mean() * n,
            (res.mean_dist.variance() * n * n).max(1e-18),
        );
        return Some(Updf::Parametric(Dist::Gaussian(sum_g)));
    }

    let dists = collect_dists(spec, members, policy)?;

    // Lineage-aware exact combination: members carrying a provenance
    // column `<field>__src` that repeats are the *same* base variable; a
    // source appearing c times contributes c·X, not c independent copies.
    let src_field = format!("{}__src", spec.field);
    if members[0].get(&src_field).is_ok() {
        return lineage_aware_sum(&src_field, members, &dists);
    }

    let existences: Vec<f64> = members.iter().map(|m| m.existence).collect();
    sum_dists_core(dists, &existences, &spec.strategy, rng)
}

/// Strategy dispatch over per-member distributions + existence
/// probabilities — the SUM core shared by the row emit path and the
/// columnar emit path. The time-series (`MaClt`) and lineage-aware
/// provenance cases are resolved by [`sum_distribution`] before reaching
/// here.
fn sum_dists_core(
    dists: Vec<Dist>,
    existences: &[f64],
    strategy: &Strategy,
    rng: &mut StdRng,
) -> Option<Updf> {
    if dists.is_empty() {
        return None;
    }
    // Existence-probability thinning (uncommon path; moment-based).
    if !existences.iter().all(|&e| e >= 1.0 - 1e-12) {
        let mut mean = 0.0;
        let mut var = 0.0;
        for (&e, d) in existences.iter().zip(&dists) {
            let (tm, tv) = thinned_moments(d, e);
            mean += tm;
            var += tv;
        }
        return Some(Updf::Parametric(Dist::Gaussian(Gaussian::from_mean_var(
            mean,
            var.max(1e-18),
        ))));
    }

    let updf = match strategy {
        Strategy::Auto => match exact_sum(&dists) {
            Some(d) => Updf::Parametric(d),
            None => Updf::Parametric(cf_approx_auto(&CfSum::new(dists), 0.3, 1.0)),
        },
        Strategy::ExactParametric => match exact_sum(&dists) {
            Some(d) => Updf::Parametric(d),
            None => Updf::Parametric(Dist::Gaussian(clt_sum(&dists))),
        },
        Strategy::CfInversion { bins, span_sigmas } => {
            let sum = CfSum::new(dists);
            Updf::Histogram(sum.invert_to_histogram(*bins, *span_sigmas))
        }
        Strategy::CfApprox {
            skew_threshold,
            kurt_threshold,
        } => Updf::Parametric(cf_approx_auto(
            &CfSum::new(dists),
            *skew_threshold,
            *kurt_threshold,
        )),
        Strategy::Clt => Updf::Parametric(Dist::Gaussian(clt_sum(&dists))),
        Strategy::HistogramSampling { buckets, samples } => {
            Updf::Histogram(histogram_sum(&dists, *buckets, *samples, 6.0, rng))
        }
        Strategy::MaClt { .. } => unreachable!("handled by the row layer"),
    };
    Some(updf)
}

/// Exact sum when repeated provenance ids are present: group by source,
/// scale each distinct source's distribution by its multiplicity, then
/// sum the (now independent) scaled terms.
fn lineage_aware_sum(src_field: &str, members: &[Tuple], dists: &[Dist]) -> Option<Updf> {
    let mut idx_of = index_cursor(src_field);
    let mut by_src: BTreeMap<i64, (usize, Dist)> = BTreeMap::new();
    for (m, d) in members.iter().zip(dists) {
        let src = m.at(idx_of(m)?).as_int()?;
        by_src
            .entry(src)
            .and_modify(|(c, _)| *c += 1)
            .or_insert((1, d.clone()));
    }
    let scaled: Vec<Dist> = by_src
        .into_values()
        .map(|(c, d)| d.affine(c as f64, 0.0))
        .collect();
    let result = match exact_sum(&scaled) {
        Some(d) => d,
        None => Dist::Gaussian(clt_sum(&scaled)),
    };
    Some(Updf::Parametric(result))
}

/// Exact Poisson–binomial COUNT distribution from existence
/// probabilities: DP over P(k successes), stored as an integer-grid
/// histogram (bin i ↔ count i).
fn poisson_binomial(members: &[Tuple]) -> Updf {
    let probs: Vec<f64> = members
        .iter()
        .map(|m| m.existence.clamp(0.0, 1.0))
        .collect();
    let n = probs.len();
    let mut pmf = vec![0.0f64; n + 1];
    pmf[0] = 1.0;
    for &p in &probs {
        for k in (1..=n).rev() {
            pmf[k] = pmf[k] * (1.0 - p) + pmf[k - 1] * p;
        }
        pmf[0] *= 1.0 - p;
    }
    Updf::Histogram(HistogramPdf::from_masses(-0.5, 1.0, pmf))
}

impl Operator for WindowedAggregate {
    fn name(&self) -> &str {
        &self.name
    }

    /// Event-time window aggregation shards by group key: tumbling and
    /// sliding window boundaries are grid-aligned (`k·len`, `k·slide`),
    /// so each group's windows have identical spans and members no
    /// matter which other groups share the operator instance — sliding
    /// windows joined the keyed club when the flush remainder stopped
    /// deriving its span from the cross-group union of leftover tuples
    /// (every emitted window is now a pure function of tuple
    /// timestamps). Two configurations still pin the whole stream to one
    /// instance:
    ///
    /// - count windows (window membership depends on the global arrival
    ///   interleaving across groups),
    /// - sampling strategies (draw order from the shared rng depends on
    ///   which groups coexist in the instance).
    fn partition_keys(&self) -> crate::ops::Partitioning {
        let sampling = self
            .specs
            .iter()
            .any(|s| matches!(s.strategy, Strategy::HistogramSampling { .. }));
        match (&self.window, sampling) {
            (WindowState::Tumbling(_) | WindowState::Sliding { .. }, false) => {
                crate::ops::Partitioning::Key
            }
            _ => crate::ops::Partitioning::Global,
        }
    }

    fn partition_key(&self, _port: usize, tuple: &Tuple) -> Option<GroupKey> {
        Some((self.key_fn)(tuple))
    }

    fn partition_key_field(&self, _port: usize) -> Option<&str> {
        match self.partition_keys() {
            crate::ops::Partitioning::Key => self.key_field.as_deref(),
            _ => None,
        }
    }

    fn attach_telemetry(&mut self, telemetry: &OpTelemetry) {
        self.row_windows = telemetry.row_windows.clone();
    }

    /// Buffer the whole batch into the window state with a single
    /// window-kind dispatch, collect every closed window, then run the
    /// (expensive, shared) emit step once per closed window. Sliding
    /// windows take the same bulk shape: one shared pending list across
    /// the batch instead of a per-tuple output `Vec` per member.
    fn process_batch(&mut self, _port: usize, mut batch: Batch) -> Batch {
        if let (WindowState::Tumbling(w), Some(cols)) = (&self.window, batch.columns()) {
            // Columnar fast path: tumbling windows buffer columns as-is
            // (no per-tuple hydration), provided the row window is empty
            // (or moves back into columns) and the batch extends the
            // buffered schema run.
            let len_ms = w.len_ms();
            let schema = cols.schema().clone();
            let schema_ok = match &self.col_buf {
                Some((_, buf)) => Arc::ptr_eq(buf.schema(), &schema),
                None => true,
            };
            if schema_ok && self.columnarize_row_window(&schema) {
                let cols = batch.take_columns().expect("columnar batch");
                let mut out = Batch::new();
                for (start, end, wcols) in self.push_columns_tumbling(len_ms, cols) {
                    out.extend(self.emit_columns(start, end, wcols));
                }
                return out;
            }
        }
        batch.hydrate();
        self.hydrate_col_window();
        let mut closed: Vec<(u64, u64, Vec<Tuple>)> = Vec::new();
        match &mut self.window {
            WindowState::Tumbling(w) => {
                for t in batch {
                    for b in w.push(t) {
                        closed.push((b.start, b.end, b.tuples));
                    }
                }
            }
            WindowState::Count(w) => {
                for t in batch {
                    if let Some(b) = w.push(t) {
                        let (start, end) = batch_span(&b);
                        closed.push((start, end, b));
                    }
                }
            }
            WindowState::Sliding { .. } => {
                for t in batch {
                    self.sliding_push(t, &mut closed);
                }
            }
        }
        let mut out = Batch::new();
        for (start, end, tuples) in closed {
            out.extend(self.emit_window(start, end, tuples));
        }
        out
    }

    fn flush(&mut self) -> Vec<Tuple> {
        if let Some((start, buf)) = self.col_buf.take() {
            let WindowState::Tumbling(w) = &self.window else {
                unreachable!("columnar buffer only exists for tumbling windows");
            };
            let end = start + w.len_ms();
            return self.emit_columns(start, end, buf);
        }
        match &mut self.window {
            WindowState::Tumbling(w) => match w.flush() {
                Some(b) => self.emit_window(b.start, b.end, b.tuples),
                None => Vec::new(),
            },
            WindowState::Count(w) => match w.flush() {
                Some(batch) => {
                    let (start, end) = batch_span(&batch);
                    self.emit_window(start, end, batch)
                }
                None => Vec::new(),
            },
            // Keep closing grid-aligned slide boundaries until eviction
            // drains the buffer, so every emitted window — including at
            // end of stream — is a `[b − range, b)` window whose span and
            // membership are pure functions of tuple timestamps. (The
            // remainder used to be emitted as one window spanning the
            // union of *all* groups' leftover tuples, which coupled each
            // group's output to whichever other groups shared the
            // instance and made sliding windows impossible to
            // key-partition.)
            WindowState::Sliding { .. } => {
                let mut pending: Vec<(u64, u64, Vec<Tuple>)> = Vec::new();
                {
                    let WindowState::Sliding {
                        range_ms,
                        slide_ms,
                        next_emit,
                        buf,
                    } = &mut self.window
                    else {
                        unreachable!()
                    };
                    let (range_ms, slide_ms) = (*range_ms, *slide_ms);
                    while !buf.is_empty() {
                        close_sliding_boundary(range_ms, slide_ms, next_emit, buf, &mut pending);
                    }
                    *next_emit = None;
                }
                let mut out = Vec::new();
                for (start, end, members) in pending {
                    out.extend(self.emit_window(start, end, members));
                }
                out
            }
        }
    }

    /// Tumbling and sliding event-time windows close on punctuation:
    /// `watermark` promises no future tuple with `ts < watermark`, so
    /// every window ending at or before it can emit now. Count windows
    /// ignore watermarks (membership is arrival-count-based).
    fn advance_watermark(&mut self, watermark: u64) -> Vec<Tuple> {
        if let Some((start, _)) = &self.col_buf {
            let WindowState::Tumbling(w) = &self.window else {
                unreachable!("columnar buffer only exists for tumbling windows");
            };
            // Same trigger as TumblingWindow::close_through.
            if start + w.len_ms() > watermark {
                return Vec::new();
            }
            let (start, buf) = self.col_buf.take().expect("just matched");
            let end = start + w.len_ms();
            return self.emit_columns(start, end, buf);
        }
        match &mut self.window {
            WindowState::Tumbling(w) => match w.close_through(watermark) {
                Some(b) => self.emit_window(b.start, b.end, b.tuples),
                None => Vec::new(),
            },
            WindowState::Count(_) => Vec::new(),
            WindowState::Sliding { .. } => {
                let mut pending: Vec<(u64, u64, Vec<Tuple>)> = Vec::new();
                self.sliding_advance(watermark, &mut pending);
                let mut out = Vec::new();
                for (start, end, members) in pending {
                    out.extend(self.emit_window(start, end, members));
                }
                out
            }
        }
    }
}

fn batch_span(batch: &[Tuple]) -> (u64, u64) {
    let start = batch.iter().map(|t| t.ts).min().unwrap_or(0);
    let end = batch.iter().map(|t| t.ts).max().unwrap_or(0);
    (start, end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;

    fn schema() -> Arc<Schema> {
        Schema::builder()
            .field("area", DataType::Int)
            .field("weight", DataType::Uncertain)
            .build()
    }

    fn tup(ts: u64, area: i64, mean: f64, sd: f64) -> Tuple {
        Tuple::new(
            schema(),
            vec![
                Value::from(area),
                Value::from(Updf::Parametric(Dist::gaussian(mean, sd))),
            ],
            ts,
        )
    }

    fn sum_spec(strategy: Strategy) -> Vec<AggSpec> {
        vec![AggSpec {
            field: "weight".into(),
            func: AggFunc::Sum,
            out: "total".into(),
            strategy,
        }]
    }

    fn agg(strategy: Strategy) -> WindowedAggregate {
        WindowedAggregate::new(
            WindowKind::Tumbling(1000),
            |t| GroupKey::from_value(t.get("area").unwrap()).unwrap(),
            sum_spec(strategy),
        )
    }

    #[test]
    fn gaussian_sum_per_group() {
        let mut a = agg(Strategy::ExactParametric);
        assert!(a.process(0, tup(10, 1, 5.0, 1.0)).is_empty());
        assert!(a.process(0, tup(20, 1, 7.0, 1.0)).is_empty());
        assert!(a.process(0, tup(30, 2, 100.0, 2.0)).is_empty());
        // Next window closes the first.
        let out = a.process(0, tup(1500, 1, 0.0, 1.0));
        assert_eq!(out.len(), 2, "two groups in closed window");
        // Rows emit in canonical (ts, content) order, not key order; find
        // the group-1 row by its field.
        let g1 = out
            .iter()
            .find(|t| t.str("group").unwrap() == "Int(1)")
            .expect("group 1 present");
        let total = g1.updf("total").unwrap();
        assert!((total.mean() - 12.0).abs() < 1e-9);
        assert!((total.variance() - 2.0).abs() < 1e-9);
        assert_eq!(g1.int("n_tuples").unwrap(), 2);
    }

    #[test]
    fn strategies_agree_on_gaussian_window() {
        let strategies: Vec<Strategy> = vec![
            Strategy::ExactParametric,
            Strategy::Clt,
            Strategy::CfApprox {
                skew_threshold: 0.3,
                kurt_threshold: 1.0,
            },
            Strategy::CfInversion {
                bins: 256,
                span_sigmas: 8.0,
            },
            Strategy::HistogramSampling {
                buckets: 100,
                samples: 20_000,
            },
        ];
        for strat in strategies {
            let label = format!("{strat:?}");
            let mut a = agg(strat);
            for i in 0..20 {
                a.process(0, tup(10 + i, 1, 2.0, 0.5));
            }
            let out = a.flush();
            assert_eq!(out.len(), 1, "{label}");
            let total = out[0].updf("total").unwrap();
            assert!(
                (total.mean() - 40.0).abs() < 0.3,
                "{label}: mean {}",
                total.mean()
            );
            assert!(
                (total.variance() - 20.0 * 0.25).abs() < 0.6,
                "{label}: var {}",
                total.variance()
            );
        }
    }

    #[test]
    fn high_cardinality_grouping_spills_to_index() {
        // More groups than the linear-scan threshold: the index spill
        // path must still route every member to its group, in key order.
        let mut a = agg(Strategy::ExactParametric);
        for i in 0..200u64 {
            a.process(0, tup(i, (i % 50) as i64, (i % 50) as f64, 1.0));
        }
        let out = a.flush();
        assert_eq!(out.len(), 50, "one output row per distinct group");
        let groups: Vec<String> = out
            .iter()
            .map(|t| t.str("group").unwrap().to_string())
            .collect();
        let expected: Vec<String> = (0..50).map(|i| format!("Int({i})")).collect();
        assert_eq!(groups, expected, "deterministic key-ordered output");
        for t in &out {
            assert_eq!(t.int("n_tuples").unwrap(), 4, "4 members per group");
        }
    }

    #[test]
    fn avg_is_scaled_sum() {
        let mut a = WindowedAggregate::new(
            WindowKind::Tumbling(1000),
            |_| GroupKey::Unit,
            vec![AggSpec {
                field: "weight".into(),
                func: AggFunc::Avg,
                out: "avg_w".into(),
                strategy: Strategy::ExactParametric,
            }],
        );
        a.process(0, tup(1, 1, 10.0, 1.0));
        a.process(0, tup(2, 1, 20.0, 1.0));
        let out = a.flush();
        let avg = out[0].updf("avg_w").unwrap();
        assert!((avg.mean() - 15.0).abs() < 1e-9);
        assert!((avg.variance() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn count_poisson_binomial() {
        let mut a = WindowedAggregate::new(
            WindowKind::Tumbling(1000),
            |_| GroupKey::Unit,
            vec![AggSpec {
                field: "weight".into(),
                func: AggFunc::Count,
                out: "cnt".into(),
                strategy: Strategy::Auto,
            }],
        );
        let mut t1 = tup(1, 1, 0.0, 1.0);
        t1.existence = 0.5;
        let mut t2 = tup(2, 1, 0.0, 1.0);
        t2.existence = 0.5;
        a.process(0, t1);
        a.process(0, t2);
        let out = a.flush();
        let cnt = out[0].updf("cnt").unwrap();
        // Binomial(2, 0.5): mean 1, P(X>1.5) = 0.25.
        assert!((cnt.mean() - 1.0).abs() < 1e-9);
        assert!((cnt.prob_above(1.5) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn max_order_statistics() {
        let mut a = WindowedAggregate::new(
            WindowKind::Tumbling(1000),
            |_| GroupKey::Unit,
            vec![AggSpec {
                field: "weight".into(),
                func: AggFunc::Max,
                out: "mx".into(),
                strategy: Strategy::Auto,
            }],
        );
        a.process(0, tup(1, 1, 0.0, 1.0));
        a.process(0, tup(2, 1, 0.0, 1.0));
        let out = a.flush();
        let mx = out[0].updf("mx").unwrap();
        // E[max of two std normals] = 1/√π ≈ 0.564.
        assert!((mx.mean() - 0.5642).abs() < 0.02, "mean {}", mx.mean());
    }

    #[test]
    fn having_filters_groups_and_reports_probability() {
        let mut a = agg(Strategy::ExactParametric).with_having(Having {
            out: "total".into(),
            threshold: 200.0,
            min_prob: 0.5,
        });
        // Group 1: total N(210, √2) ⇒ P(>200) ≈ 1. Group 2: N(50,..) ⇒ 0.
        a.process(0, tup(1, 1, 105.0, 1.0));
        a.process(0, tup(2, 1, 105.0, 1.0));
        a.process(0, tup(3, 2, 25.0, 1.0));
        a.process(0, tup(4, 2, 25.0, 1.0));
        let out = a.flush();
        assert_eq!(out.len(), 1, "only the violating group passes HAVING");
        let p = out[0].float("p_total").unwrap();
        assert!(p > 0.99);
    }

    #[test]
    fn existence_thinning_adjusts_moments() {
        let mut a = agg(Strategy::Clt);
        let mut t1 = tup(1, 1, 10.0, 1.0);
        t1.existence = 0.5;
        a.process(0, t1);
        a.process(0, tup(2, 1, 10.0, 1.0));
        let out = a.flush();
        let total = out[0].updf("total").unwrap();
        // mean = 0.5·10 + 10 = 15; var = (0.5·1 + 0.25·100) + 1 = 26.5
        assert!((total.mean() - 15.0).abs() < 1e-9);
        assert!((total.variance() - 26.5).abs() < 1e-9);
    }

    #[test]
    fn lineage_aware_sum_scales_repeated_sources() {
        let s = Schema::builder()
            .field("area", DataType::Int)
            .field("weight", DataType::Uncertain)
            .field("weight__src", DataType::Int)
            .build();
        let mk = |ts: u64, src: i64, mean: f64| {
            Tuple::new(
                s.clone(),
                vec![
                    Value::from(1i64),
                    Value::from(Updf::Parametric(Dist::gaussian(mean, 1.0))),
                    Value::from(src),
                ],
                ts,
            )
        };
        let mut a = WindowedAggregate::new(
            WindowKind::Tumbling(1000),
            |_| GroupKey::Unit,
            sum_spec(Strategy::Auto),
        );
        // Source 7 appears twice: contributes 2X (var 4), NOT X+X' (var 2).
        a.process(0, mk(1, 7, 5.0));
        a.process(0, mk(2, 7, 5.0));
        a.process(0, mk(3, 8, 3.0));
        let out = a.flush();
        let total = out[0].updf("total").unwrap();
        assert!((total.mean() - 13.0).abs() < 1e-9);
        assert!(
            (total.variance() - (4.0 + 1.0)).abs() < 1e-9,
            "var {}",
            total.variance()
        );
    }

    #[test]
    fn ma_clt_strategy_on_certain_series() {
        let s = Schema::builder()
            .field("area", DataType::Int)
            .field("v", DataType::Float)
            .build();
        let series = ustream_ts::generator::ma_series(&[0.8], 1.0, 400, 77);
        let mut a = WindowedAggregate::new(
            WindowKind::Count(400),
            |_| GroupKey::Unit,
            vec![AggSpec {
                field: "v".into(),
                func: AggFunc::Avg,
                out: "vbar".into(),
                strategy: Strategy::MaClt { max_order: 3 },
            }],
        );
        let mut out = Vec::new();
        for (i, &x) in series.iter().enumerate() {
            out.extend(a.process(
                0,
                Tuple::new(s.clone(), vec![Value::from(1i64), Value::from(x)], i as u64),
            ));
        }
        assert_eq!(out.len(), 1);
        let vbar = out[0].updf("vbar").unwrap();
        let sample_mean = series.iter().sum::<f64>() / 400.0;
        assert!((vbar.mean() - sample_mean).abs() < 1e-9);
        // Variance must exceed the naive iid estimate (positive θ).
        let naive = ustream_ts::clt::iid_clt_mean(&series);
        assert!(vbar.variance() > naive.variance());
    }

    #[test]
    fn sliding_windows_overlap() {
        // Range 2000 ms, slide 1000 ms: a tuple at t=500 appears in the
        // windows closing at 1000 and 2000.
        let mut a = WindowedAggregate::new(
            WindowKind::Sliding {
                range_ms: 2000,
                slide_ms: 1000,
            },
            |_| GroupKey::Unit,
            sum_spec(Strategy::ExactParametric),
        );
        let mut out = Vec::new();
        out.extend(a.process(0, tup(500, 1, 10.0, 1.0)));
        out.extend(a.process(0, tup(1500, 1, 20.0, 1.0)));
        out.extend(a.process(0, tup(2500, 1, 40.0, 1.0)));
        out.extend(a.process(0, tup(5000, 1, 0.0, 1.0))); // closes 3000/4000
        out.extend(a.flush()); // grid windows @6000/@7000 cover t=5000
                               // Window @1000: {500} → 10. @2000: {500,1500} → 30. @3000:
                               // {1500,2500} → 60. @4000: {2500} → 40. Flush: @6000 {5000}
                               // → 0, @7000 {5000} → 0 (every window grid-aligned).
        let sums: Vec<f64> = out
            .iter()
            .map(|t| t.updf("total").unwrap().mean())
            .collect();
        assert_eq!(sums.len(), 6, "sums: {sums:?}");
        for (got, want) in sums.iter().zip([10.0, 30.0, 60.0, 40.0, 0.0, 0.0]) {
            assert!((got - want).abs() < 1e-9, "sums: {sums:?}");
        }
    }

    #[test]
    fn sliding_batched_path_matches_per_tuple() {
        // The sliding bulk path must reproduce per-tuple processing
        // exactly: same windows, same order, same flush remainder.
        let mk_agg = || {
            WindowedAggregate::new(
                WindowKind::Sliding {
                    range_ms: 2000,
                    slide_ms: 500,
                },
                |t| GroupKey::from_value(t.get("area").unwrap()).unwrap(),
                sum_spec(Strategy::ExactParametric),
            )
        };
        let tuples: Vec<Tuple> = (0..120u64)
            .map(|i| tup(i * 137, (i % 3) as i64, i as f64, 1.0))
            .collect();

        let mut per_tuple = mk_agg();
        let mut expected = Vec::new();
        for t in tuples.clone() {
            expected.extend(per_tuple.process(0, t));
        }
        expected.extend(per_tuple.flush());

        let mut batched = mk_agg();
        let mut got = Vec::new();
        for chunk in tuples.chunks(7) {
            got.extend(batched.process_batch(0, Batch::from(chunk.to_vec())));
        }
        got.extend(batched.flush());

        assert_eq!(expected.len(), got.len());
        for (a, b) in expected.iter().zip(&got) {
            assert_eq!(a.ts, b.ts);
            assert_eq!(a.str("group").unwrap(), b.str("group").unwrap());
            assert_eq!(
                a.get("window_start").unwrap().as_time(),
                b.get("window_start").unwrap().as_time()
            );
            assert_eq!(a.int("n_tuples").unwrap(), b.int("n_tuples").unwrap());
            let (ua, ub) = (a.updf("total").unwrap(), b.updf("total").unwrap());
            assert_eq!(ua.mean().to_bits(), ub.mean().to_bits());
            assert_eq!(ua.variance().to_bits(), ub.variance().to_bits());
        }
    }

    #[test]
    fn sliding_flush_emits_remainder() {
        let mut a = WindowedAggregate::new(
            WindowKind::Sliding {
                range_ms: 1000,
                slide_ms: 1000,
            },
            |_| GroupKey::Unit,
            sum_spec(Strategy::ExactParametric),
        );
        assert!(a.process(0, tup(100, 1, 5.0, 1.0)).is_empty());
        let out = a.flush();
        assert_eq!(out.len(), 1);
        assert!((out[0].updf("total").unwrap().mean() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn watermark_closes_tumbling_window_like_the_closing_tuple() {
        let mut a = agg(Strategy::ExactParametric);
        assert!(a.process(0, tup(10, 1, 5.0, 1.0)).is_empty());
        assert!(a.process(0, tup(20, 1, 7.0, 1.0)).is_empty());
        // Watermark short of the window end: nothing closes (a tuple at
        // ts 999 would not have closed it either).
        assert!(a.advance_watermark(999).is_empty());
        // Watermark at the end closes it, exactly as a ts=1000 tuple
        // arriving elsewhere in the stream would have.
        let out = a.advance_watermark(1000);
        assert_eq!(out.len(), 1);
        let total = out[0].updf("total").unwrap();
        assert!((total.mean() - 12.0).abs() < 1e-9);
        assert_eq!(out[0].ts, 1000);
        // Idempotent: no window is open any more.
        assert!(a.advance_watermark(5000).is_empty());
        // The next tuple starts a fresh window.
        assert!(a.process(0, tup(5100, 1, 1.0, 1.0)).is_empty());
        assert_eq!(a.flush().len(), 1);
    }

    #[test]
    fn watermark_closes_sliding_boundaries() {
        let mut a = WindowedAggregate::new(
            WindowKind::Sliding {
                range_ms: 2000,
                slide_ms: 1000,
            },
            |_| GroupKey::Unit,
            sum_spec(Strategy::ExactParametric),
        );
        assert!(a.process(0, tup(500, 1, 10.0, 1.0)).is_empty());
        let out = a.advance_watermark(2000);
        // Boundaries 1000 and 2000 both close: {500} appears in each.
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].ts, 1000);
        assert_eq!(out[1].ts, 2000);
        // Punctuation-closed windows match the tuple-closed/flushed ones:
        // nothing is left for flush (the t=500 tuple was evicted).
        assert!(a.flush().is_empty());
    }

    #[test]
    fn sliding_windows_partition_by_key() {
        let sliding = || {
            WindowedAggregate::new(
                WindowKind::Sliding {
                    range_ms: 2000,
                    slide_ms: 1000,
                },
                |t: &Tuple| GroupKey::from_value(t.get("area").unwrap()).unwrap(),
                sum_spec(Strategy::ExactParametric),
            )
        };
        assert_eq!(
            sliding().partition_keys(),
            crate::ops::Partitioning::Key,
            "grid-aligned sliding windows shard by group key"
        );
        let sampling = WindowedAggregate::new(
            WindowKind::Sliding {
                range_ms: 2000,
                slide_ms: 1000,
            },
            |_| GroupKey::Unit,
            sum_spec(Strategy::HistogramSampling {
                buckets: 10,
                samples: 100,
            }),
        );
        assert_eq!(
            sampling.partition_keys(),
            crate::ops::Partitioning::Global,
            "shared-rng sampling still pins"
        );
    }

    /// Per-group output of a keyed sliding window must be a pure function
    /// of that group's own tuples — the property key-partitioning relies
    /// on. Run the same per-group streams alone and mixed; the rows for
    /// each group must be identical.
    #[test]
    fn sliding_per_group_output_is_independent_of_cohabiting_groups() {
        let mk = || {
            WindowedAggregate::new(
                WindowKind::Sliding {
                    range_ms: 2000,
                    slide_ms: 500,
                },
                |t: &Tuple| GroupKey::from_value(t.get("area").unwrap()).unwrap(),
                sum_spec(Strategy::ExactParametric),
            )
        };
        let tuples: Vec<Tuple> = (0..60u64)
            .map(|i| tup(i * 171, (i % 3) as i64, i as f64, 1.0))
            .collect();
        let render = |ts: Vec<Tuple>, group: &str| -> Vec<(u64, u64, u64, i64, u64)> {
            ts.iter()
                .filter(|t| t.str("group").unwrap() == group)
                .map(|t| {
                    (
                        t.get("window_start").unwrap().as_time().unwrap(),
                        t.get("window_end").unwrap().as_time().unwrap(),
                        t.ts,
                        t.int("n_tuples").unwrap(),
                        t.updf("total").unwrap().mean().to_bits(),
                    )
                })
                .collect()
        };
        let mut mixed = mk();
        let mut mixed_out = Vec::new();
        for t in tuples.clone() {
            mixed_out.extend(mixed.process(0, t));
        }
        mixed_out.extend(mixed.flush());
        for g in 0..3i64 {
            let mut alone = mk();
            let mut alone_out = Vec::new();
            for t in tuples.iter().filter(|t| t.int("area").unwrap() == g) {
                alone_out.extend(alone.process(0, t.clone()));
            }
            alone_out.extend(alone.flush());
            let group = format!("Int({g})");
            assert_eq!(
                render(mixed_out.clone(), &group),
                render(alone_out, &group),
                "group {g} must not observe its cohabitants"
            );
        }
    }

    fn mixed_existence_feed(n: u64) -> Vec<Tuple> {
        let s = schema();
        (0..n)
            .map(|i| {
                let mut t = Tuple::new(
                    s.clone(),
                    vec![
                        Value::from((i % 4) as i64),
                        Value::from(Updf::Parametric(Dist::gaussian(
                            (i % 10) as f64,
                            1.0 + (i % 3) as f64 * 0.25,
                        ))),
                    ],
                    i * 7,
                );
                // Mix certain and thinned tuples (exercises both SUM
                // branches of the shared core).
                if i % 3 == 0 {
                    t.existence = 0.6 + (i % 5) as f64 * 0.05;
                }
                t
            })
            .collect()
    }

    fn keyed(strategy: Strategy) -> WindowedAggregate {
        WindowedAggregate::keyed_by_field(WindowKind::Tumbling(100), "area", sum_spec(strategy))
    }

    fn run_chunked(mut a: WindowedAggregate, feed: &[Tuple], columnar: bool) -> Vec<Tuple> {
        let mut out = Vec::new();
        for chunk in feed.chunks(13) {
            let mut b = Batch::from(chunk.to_vec());
            if columnar {
                assert!(b.columnarize());
            }
            out.extend(a.process_batch(0, b));
        }
        out.extend(a.flush());
        out
    }

    #[test]
    fn columnar_aggregate_is_bit_identical_to_rows() {
        for strategy in [Strategy::Clt, Strategy::ExactParametric, Strategy::Auto] {
            let label = format!("{strategy:?}");
            let feed = mixed_existence_feed(120);
            let rows = run_chunked(keyed(strategy.clone()), &feed, false);
            let cols = run_chunked(keyed(strategy), &feed, true);
            assert_eq!(rows.len(), cols.len(), "{label}");
            assert!(!rows.is_empty(), "{label}: windows must close");
            for (a, b) in rows.iter().zip(&cols) {
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "{label}");
            }
        }
    }

    #[test]
    fn columnar_buffer_interops_with_row_batches() {
        // Alternate columnar and row batches mid-stream: the buffered
        // columns must replay into the row window losslessly.
        let feed = mixed_existence_feed(90);
        let expected = run_chunked(keyed(Strategy::Clt), &feed, false);
        let mut a = keyed(Strategy::Clt);
        let mut got = Vec::new();
        for (i, chunk) in feed.chunks(13).enumerate() {
            let mut b = Batch::from(chunk.to_vec());
            if i % 2 == 0 {
                assert!(b.columnarize());
            }
            got.extend(a.process_batch(0, b));
        }
        got.extend(a.flush());
        assert_eq!(expected.len(), got.len());
        for (a, b) in expected.iter().zip(&got) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn a_short_row_batch_costs_the_columnar_path_at_most_one_window() {
        // A 10-tuple row batch, then 512-tuple columnar batches: first
        // at the head of the stream, then mid-stream across a window
        // boundary (ts 3584..3647 closes [3500, 3600)). The row window
        // moves back into columns at the next columnar batch, so at most
        // the window the row batch closes takes the row path.
        let feed = mixed_existence_feed(10 + 4 * 512);
        let expected = run_chunked(keyed(Strategy::Clt), &feed, false);
        for (row_at, row_windows) in [(0, 0), (512, 1)] {
            let telemetry = OpTelemetry::default();
            let mut a = keyed(Strategy::Clt);
            a.attach_telemetry(&telemetry);
            let mut got = Vec::new();
            let mut at = 0;
            while at < feed.len() {
                let len = if at == row_at { 10 } else { 512 };
                let end = (at + len).min(feed.len());
                let mut b = Batch::from(feed[at..end].to_vec());
                if at != row_at {
                    assert!(b.columnarize());
                }
                got.extend(a.process_batch(0, b));
                at = end;
            }
            got.extend(a.flush());
            assert_eq!(
                telemetry.row_windows.get(),
                row_windows,
                "row batch at {row_at}"
            );
            assert_eq!(expected.len(), got.len());
            for (a, b) in expected.iter().zip(&got) {
                assert_eq!(format!("{a:?}"), format!("{b:?}"));
            }
        }
        // The all-row reference emits every window through the row path.
        let telemetry = OpTelemetry::default();
        let mut a = keyed(Strategy::Clt);
        a.attach_telemetry(&telemetry);
        for chunk in feed.chunks(512) {
            a.process_batch(0, Batch::from(chunk.to_vec()));
        }
        a.flush();
        let windows = expected
            .iter()
            .map(|t| t.ts)
            .collect::<std::collections::BTreeSet<_>>();
        assert_eq!(telemetry.row_windows.get(), windows.len() as u64);
    }

    #[test]
    fn columnar_ineligible_specs_hydrate_and_match() {
        // Count aggregates and HAVING clauses have no columnar kernel:
        // the batch hydrates and the row emit runs — outputs identical.
        let mk = || {
            WindowedAggregate::keyed_by_field(
                WindowKind::Tumbling(100),
                "area",
                vec![AggSpec {
                    field: "weight".into(),
                    func: AggFunc::Count,
                    out: "cnt".into(),
                    strategy: Strategy::Auto,
                }],
            )
        };
        let feed = mixed_existence_feed(60);
        let rows = run_chunked(mk(), &feed, false);
        let cols = run_chunked(mk(), &feed, true);
        assert_eq!(rows.len(), cols.len());
        for (a, b) in rows.iter().zip(&cols) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn watermark_closes_columnar_buffer() {
        let mut a = keyed(Strategy::Clt);
        let mut b = Batch::from(mixed_existence_feed(5)); // ts 0..28, window [0,100)
        assert!(b.columnarize());
        assert!(a.process_batch(0, b).is_empty());
        assert!(a.advance_watermark(99).is_empty(), "window still open");
        let out = a.advance_watermark(100);
        assert!(!out.is_empty(), "watermark closes the buffered window");
        assert!(a.flush().is_empty(), "nothing left after the close");
    }

    #[test]
    fn keyed_by_field_declares_partition_key_field() {
        let a = keyed(Strategy::Clt);
        assert_eq!(a.partition_key_field(0), Some("area"));
        assert_eq!(a.partition_keys(), crate::ops::Partitioning::Key);
        // Closure-keyed aggregates expose no key field.
        assert_eq!(agg(Strategy::Clt).partition_key_field(0), None);
        // Global-partitioned configurations hide the field: routing by
        // key would split state a single instance must own.
        let count_window = WindowedAggregate::keyed_by_field(
            WindowKind::Count(10),
            "area",
            sum_spec(Strategy::Clt),
        );
        assert_eq!(count_window.partition_key_field(0), None);
    }

    #[test]
    fn count_window_mode() {
        let mut a = WindowedAggregate::new(
            WindowKind::Count(3),
            |_| GroupKey::Unit,
            sum_spec(Strategy::ExactParametric),
        );
        assert!(a.process(0, tup(1, 1, 1.0, 1.0)).is_empty());
        assert!(a.process(0, tup(2, 1, 1.0, 1.0)).is_empty());
        let out = a.process(0, tup(3, 1, 1.0, 1.0));
        assert_eq!(out.len(), 1);
        assert!((out[0].updf("total").unwrap().mean() - 3.0).abs() < 1e-9);
    }
}
