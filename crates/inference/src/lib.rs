//! # ustream-inference — particle-filter T operator for RFID streams
//!
//! Implements §4 of the paper: probabilistic inference over a generative
//! model of mobile-RFID sensing, optimized for stream speed.
//!
//! - [`model`] — motion + observation components of the graphical model.
//! - [`cloud`] — per-object weighted particle clouds.
//! - [`joint_pf`] — the unoptimized joint-state baseline (§4.1's 0.1
//!   readings/second design).
//! - [`factored_pf`] — factorization + spatial indexing + compression +
//!   lazy propagation (the >1000 readings/second design), with a
//!   random stream per object so a scan's clouds update in parallel and
//!   the result does not depend on update order or worker count.
//! - [`spatial`] — the uniform-grid index.
//! - `normal` — the crate's one standard-normal sampler, an exact
//!   ziggurat drawing only from the generator it is handed.
//! - [`adaptive`] — §4.2 reference-tag probe and double-then-decrement
//!   particle-count controller.
//! - [`toperator`] — the end-to-end T operator emitting uncertain
//!   location tuples into `ustream-core`.

pub mod adaptive;
pub mod cloud;
pub mod factored_pf;
pub mod joint_pf;
pub mod model;
mod normal;
pub mod spatial;
pub mod toperator;

pub use adaptive::{AdaptiveController, Phase, ReferenceProbe};
pub use cloud::ParticleCloud;
pub use factored_pf::{CompressionConfig, FactoredConfig, FactoredFilter, ScanStats};
pub use joint_pf::{JointConfig, JointFilter};
pub use model::{MotionModel, ObservationModel};
pub use spatial::SpatialGrid;
pub use toperator::RfidTOperator;
