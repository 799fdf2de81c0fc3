//! # ustream-telemetry — always-on observability primitives
//!
//! The paper's premise is that "processing of raw data must keep up
//! with stream speed" (§1); this crate makes that claim *observable*
//! while it happens instead of after the fact. Every primitive is
//! cheap enough to leave enabled in production paths:
//!
//! - [`Counter`] / [`Gauge`] — single atomic cells, wait-free updates.
//! - [`Histogram`] — fixed exponential buckets, one atomic add per
//!   record.
//! - [`QuantileSketch`] — O(1)-memory incremental quantile estimates
//!   (p50/p95/p99) in the style of Chambers, James, Lambert & Vander
//!   Wiel, *Monitoring Networked Applications With Incremental
//!   Quantile Estimation* (Statistical Science, 2006): samples are
//!   buffered in blocks and folded into a fixed set of running marker
//!   estimates by weighted pooling, so no stream of any length ever
//!   stores more than a bounded ring of raw values. The record path is
//!   wait-free for the (single logical) writer; readers never block
//!   writers.
//! - [`EventJournal`] — a bounded ring of typed [`TraceEvent`]s with a
//!   monotonic sequence number.
//! - [`MetricsRegistry`] — names (family + labels) to handles, with
//!   [`MetricsRegistry::snapshot`] for wire transport and
//!   [`MetricsRegistry::render_text`] for Prometheus-style scraping.
//! - [`TraceStore`] — deterministically sampled causal tracing:
//!   1-in-N batches (by publish ordinal, seedable) carry a trace ID,
//!   and their pump/route/exchange/seal/emit hops land as timed
//!   [`Span`]s with parent links in a bounded ring. Unsampled batches
//!   pay one relaxed load.
//! - [`HealthWatchdog`] — a periodic evaluator over a registry
//!   producing typed [`HealthReport`]s (lag-SLO breaches, shard skew,
//!   queue saturation, stuck-stage and silent-publisher detection),
//!   journaling every status transition.
//!
//! The crate is dependency-free on purpose: it sits *below* the engine
//! crates, which thread its handles through their hot paths.

pub mod health;
pub mod journal;
pub mod metric;
pub mod registry;
pub mod sketch;
pub mod trace;

pub use health::{HealthCheck, HealthConfig, HealthReport, HealthStatus, HealthWatchdog};
pub use journal::{EventJournal, TraceDetail, TraceEvent};
pub use metric::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{MetricSnapshot, MetricValue, MetricsRegistry};
pub use sketch::{QuantileSketch, SketchSnapshot};
pub use trace::{Span, SpanKind, TraceStore};
