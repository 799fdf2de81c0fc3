//! # ustream-core — the uncertainty-aware stream engine
//!
//! Reproduction of the core contribution of *Capturing Data Uncertainty
//! in High-Volume Stream Processing* (Diao et al., CIDR 2009): a stream
//! system in which uncertain data items are continuous random variables
//! whose pdfs travel with the tuples, are transformed by relational
//! operators, and surface to applications as result distributions or
//! confidence regions.
//!
//! Architecture (paper §3, Fig. 2):
//!
//! - [`toperator`] — the data capture & transformation (T) operator
//!   contract; concrete implementations live in `ustream-inference`
//!   (RFID particle filter) and `radar-sim` (radar voxel MA-CLT).
//! - [`tuple`](mod@tuple), [`schema`], [`value`], [`updf`] — uncertain tuples: each
//!   uncertain attribute carries a [`updf::Updf`] distribution payload;
//!   tuples carry an existence probability and [`lineage::Lineage`].
//! - [`ops`] — probabilistic selection, projection (linear / monotone /
//!   Delta-method transforms), windowed group-by aggregation with every
//!   Table-2 strategy, and windowed probabilistic joins.
//! - [`query`] — box-arrow query graphs compiled into a [`query::CompiledPlan`]
//!   and executed in [`batch::Batch`]es (of one, for tuple-at-a-time), to
//!   completion or incrementally through an [`query::ExecSession`];
//!   `ustream-runtime` shards that session across cores.
//! - [`confidence`] — intervals, highest-density unions, ellipsoids.
//! - [`window`] — tumbling/count/sliding event-time windows.
//! - [`canon`] — the canonical `(ts, content)` tuple order shared by
//!   window emission, exchange boundaries, and sharded sink merging.

pub mod batch;
pub mod canon;
pub mod columnar;
pub mod confidence;
pub mod error;
pub mod lineage;
pub mod metrics;
pub mod ops;
pub mod query;
pub mod schema;
pub mod toperator;
pub mod tuple;
pub mod updf;
pub mod value;
pub mod window;

pub use batch::{Batch, BatchPool};
pub use canon::canonical_sort;
pub use columnar::{Column, Columns};
pub use confidence::{confidence_region, ConfidenceRegion};
pub use error::{panic_message, EngineError, Result};
pub use lineage::{ApproxLineage, Archive, Lineage};
pub use metrics::OpTelemetry;
pub use ops::{Operator, Partitioning};
pub use query::{CompiledPlan, ExecSession, NodeId, QueryGraph};
pub use schema::{DataType, Field, Schema};
pub use toperator::TransformOperator;
pub use tuple::Tuple;
pub use updf::{ConversionPolicy, Updf};
pub use value::{GroupKey, Value};
