//! # ustream-server — the continuous-query ingest server
//!
//! The serving subsystem the paper's architecture implies but the
//! engine never had: until now every entry point took a pre-materialized
//! `Vec<Tuple>` in-process. This crate lets uncertain tuples arrive
//! from *outside* the process and results leave it *while the query
//! runs* — the shape edge deployments of this line of work assume
//! (many remote producers pushing uncertain streams at a resident
//! engine that streams answers back).
//!
//! Three layers:
//!
//! - [`wire`] — a versioned, length-prefixed binary codec for
//!   [`ustream_core::Value`], every [`ustream_core::Updf`] variant,
//!   [`ustream_core::Tuple`] (values + timestamp + existence +
//!   lineage), and batches. Decoding untrusted bytes yields typed
//!   [`wire::WireError`]s — never a panic, never an unbounded
//!   allocation — and encode→decode→encode is byte-identical.
//! - [`server`] — a multi-client TCP server (`std::net` threads; the
//!   deployment image has no async runtime) driving one incremental
//!   [`ustream_runtime::session::ShardedSession`]: per-client framed
//!   readers feed bounded channels (backpressure), a per-query engine
//!   thread merges publisher streams in timestamp order and pushes
//!   batches through the session — single-pipeline for
//!   [`server::ServedQuery::new`], key-partitioned across the
//!   session's worker pool for [`server::ServedQuery::sharded`] — and
//!   a subscription protocol streams sink output to any number of
//!   subscribers as windows close.
//! - [`client`] — [`client::Client`] with `publish` / `subscribe` /
//!   `finish` (EOS) / `heartbeat` (idle-publisher watermark) /
//!   `stats_v2` (the metrics registry over the wire, per-operator
//!   counters included as the `engine_op_*` families).
//!
//! See the repo README's *Serving* section for the frame format table
//! and `examples/serve_quickstart.rs` for an end-to-end loopback run.

pub mod chaos;
pub mod client;
mod merge;
pub mod protocol;
pub mod server;
pub mod wire;

pub use chaos::{ChaosProxy, Fault};
pub use client::{Client, ClientConfig, ClientError, Event};
pub use protocol::{ErrorCode, Request, Response};
pub use server::{
    ServeError, ServedQuery, Server, ServerConfig, ServerError, ServerHandle, Severity,
    SubscriberPolicy,
};
pub use wire::{WireError, WireResult, MAX_FRAME_LEN, MIN_WIRE_VERSION, WIRE_VERSION};
