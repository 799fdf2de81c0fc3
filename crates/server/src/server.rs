//! The serving core: a multi-client TCP server running one continuous
//! query on an incremental [`ShardedSession`].
//!
//! Thread layout (all `std::net` + `std::thread`; the deployment
//! environment has no async runtime):
//!
//! - an **accept thread** takes connections and spawns one handler per
//!   client;
//! - each **handler thread** reads framed requests, decodes a publish
//!   payload straight into a columnar [`Batch`] ([`wire::decode_batch`];
//!   a mixed-schema frame stays rows), checks it against the publisher's
//!   timestamp contract, and forwards it whole into the engine's bounded
//!   inbox — a full inbox blocks the handler *before* it acknowledges,
//!   so backpressure reaches the publisher as a delayed `Ack`;
//! - one **engine thread** owns the session — a
//!   [`ustream_runtime::session::ShardedSession`], the incremental
//!   sharded engine. It queues each publisher's batches and merges the
//!   queues into a single timestamp-ordered feed by *ts-run*: from the
//!   publisher whose front tuple is next in `(ts, connection id)` order,
//!   the longest leading run that stays below every other publisher's
//!   front and every idle publisher's watermark goes out at once — the
//!   same tuple sequence a per-tuple k-way merge releases, so a lone
//!   publisher's frames pass through unsplit and a batch is cut only
//!   where another publisher's tuples interleave. Runs are cut (or
//!   coalesced, per destination and schema) into pushes of at most
//!   [`ServerConfig::batch_size`] tuples, pushed through the session
//!   without ever becoming rows, and every newly collected sink batch
//!   streams to all subscribers as windows close.
//!   With [`ServedQuery::new`] the session wraps a single pipeline
//!   (exact `ExecSession` semantics); with [`ServedQuery::sharded`] the
//!   query's graph factory is compiled into a staged shard plan and the
//!   engine thread becomes a *router* — operator work runs
//!   key-partitioned across the session's worker pool, so serving
//!   throughput scales with cores instead of bottlenecking on one
//!   engine thread.
//!
//! **Idle publishers.** The merge can only release a tuple when every
//! unfinished publisher's watermark has passed it; a connected-but-idle
//! publisher therefore stalls results for everyone. Publishers that may
//! go quiet should send periodic watermark heartbeats
//! ([`crate::Client::heartbeat`]) — a promise that nothing older than
//! the advertised timestamp will be published — which advance the merge
//! without data.
//!
//! **Determinism.** Every publisher ships its stream in non-decreasing
//! timestamp order (the natural property of a live feed); the handler
//! enforces this, refusing with [`ErrorCode::Protocol`] — neither
//! applied nor acked — a new publish whose timestamps decrease inside
//! the frame or whose first timestamp is below the publisher's last
//! published timestamp or heartbeat watermark. The merged feed the
//! session sees is therefore the timestamp-sorted union of all
//! published tuples — the same feed [`QueryGraph::run_batched`]
//! builds — so the concatenation of every
//! `Results` frame a subscriber receives equals the `run_batched`
//! output over the merged input, values/timestamps/existence/lineage
//! included (ties across publishers break by connection id). The
//! loopback integration suite asserts exactly this.
//!
//! **End of stream.** Each publisher declares itself via `Hello` and
//! closes with `Finish`. When every publisher has finished, the engine
//! flushes open windows ([`ShardedSession::finish`]), streams the final
//! batches, sends `Eos` to every subscriber, and rejects further
//! publishes with a typed error.
//!
//! **Fault tolerance.** A publisher that disconnects without finishing
//! is *parked*: its merge slot stays open for [`ServerConfig::lease`],
//! waiting for the client to reconnect and `Resume` with its session
//! token. Publishes carry per-session sequence numbers, so the replay a
//! resuming client sends is applied exactly once (duplicates are acked
//! but not re-merged) and the byte-equality guarantee above survives
//! the disconnect. If the lease runs out, the session degrades to
//! finished — the query still terminates cleanly, and the loss is
//! recorded as a `Fatal` [`ServerError::LeaseExpired`] escalating the
//! `Transient` disconnect. Slow subscribers are governed by
//! [`SubscriberPolicy`], and a bounded replay ring lets a reconnecting
//! subscriber catch up via `Subscribe { from }`.
//!
//! **Subscriptions.** A subscriber receives every sink batch produced
//! *after* it subscribes (plus the flush); the server does not replay
//! history — subscribe before publishing to observe a whole run. Each
//! batch is encoded into its `Results` frame exactly once and the bytes
//! are shared across subscribers. A subscribed connection stays fully
//! duplex: a dedicated relay thread writes result frames (one
//! subscription per connection) while the handler keeps serving
//! publishes, `StatsV2`, and `Finish` on the same socket. A subscriber
//! that stops reading backpressures the engine (bounded outbox); server
//! shutdown breaks that wait and drops the stalled subscriber instead
//! of hanging.

use crate::merge::{self, PubState};
use crate::protocol::{self, ErrorCode, Request, Response};
use crate::wire::{self, WireError};
use crossbeam::channel::{bounded, Receiver, Sender};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use ustream_core::query::QueryGraph;
use ustream_core::{Batch, EngineError, NodeId, Tuple};
use ustream_runtime::session::ShardedSession;
use ustream_runtime::telemetry::SessionTelemetry;
use ustream_runtime::{PlanReport, ShardedExecutor};
use ustream_telemetry::{
    Counter, EventJournal, Gauge, HealthConfig, HealthReport, HealthWatchdog, MetricsRegistry,
    TraceDetail,
};

/// Typed server-side failures, readable from the in-process
/// [`ServerHandle`]. Client misbehavior (malformed frames, abrupt
/// disconnects) lands here; it never panics a server thread and never
/// kills the query.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerError {
    /// A client dropped its connection mid-stream (a publisher without
    /// `Finish`, or a subscriber that stopped reading).
    ClientDisconnected { client_id: u64, role: &'static str },
    /// A client sent bytes that did not decode; the server answered
    /// with an error frame and closed the connection.
    Malformed { client_id: u64, error: WireError },
    /// An operator panicked while the engine processed remote input
    /// (e.g. a published tuple whose schema the query's closures cannot
    /// handle). The query is dead: the session was discarded,
    /// subscribers received `Eos`, and further publishes are rejected —
    /// the serving threads never unwind.
    QueryPanicked { message: String },
    /// Publishes acknowledged in the narrow race window while the
    /// engine was flushing at EOS had to be dropped (the session was
    /// already finishing); recorded so the loss is observable.
    PublishDroppedAtEos { client_id: u64, count: usize },
    /// A parked publisher session's lease ran out with no `Resume`: the
    /// merge slot was released as finished and any unreplayed tail of
    /// that publisher's stream is lost. This is the `Fatal` escalation
    /// of the `Transient` [`ServerError::ClientDisconnected`] recorded
    /// when the publisher dropped.
    LeaseExpired { session_id: u64, lease_ms: u64 },
    /// A subscriber under [`SubscriberPolicy::DropOldest`] fell behind
    /// and `dropped` of its queued result frames were discarded; the
    /// subscriber was told via a `Gap` frame.
    SubscriberLagged { client_id: u64, dropped: u64 },
    /// A subscriber under [`SubscriberPolicy::Disconnect`] fell behind
    /// and its result stream was severed with a typed `Lagging` error.
    SubscriberDropped { client_id: u64 },
}

/// How bad a [`ServerError`] is — the alerting split: `Transient`
/// faults are the expected weather of serving over real networks
/// (clients drop, slow subscribers shed load) and the protocol is built
/// to absorb them; `Fatal` faults mean query output was (or may have
/// been) lost or the query itself died.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Absorbed by design: no result data was lost.
    Transient,
    /// Data loss or query death: page somebody.
    Fatal,
}

impl ServerError {
    /// Classify this error for alerting. See [`Severity`].
    pub fn severity(&self) -> Severity {
        match self {
            ServerError::ClientDisconnected { .. }
            | ServerError::SubscriberLagged { .. }
            | ServerError::SubscriberDropped { .. } => Severity::Transient,
            ServerError::Malformed { .. }
            | ServerError::QueryPanicked { .. }
            | ServerError::PublishDroppedAtEos { .. }
            | ServerError::LeaseExpired { .. } => Severity::Fatal,
        }
    }
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::ClientDisconnected { client_id, role } => {
                write!(f, "{role} client {client_id} disconnected mid-stream")
            }
            ServerError::Malformed { client_id, error } => {
                write!(f, "client {client_id} sent a malformed frame: {error}")
            }
            ServerError::QueryPanicked { message } => {
                write!(f, "served query panicked on remote input: {message}")
            }
            ServerError::PublishDroppedAtEos { client_id, count } => {
                write!(
                    f,
                    "dropped {count} tuples from client {client_id} acknowledged during the EOS flush"
                )
            }
            ServerError::LeaseExpired {
                session_id,
                lease_ms,
            } => {
                write!(
                    f,
                    "publisher session {session_id} lease expired after {lease_ms}ms with no resume; \
                     its merge slot was released"
                )
            }
            ServerError::SubscriberLagged { client_id, dropped } => {
                write!(
                    f,
                    "subscriber {client_id} lagged; dropped {dropped} queued result frame(s)"
                )
            }
            ServerError::SubscriberDropped { client_id } => {
                write!(f, "subscriber {client_id} lagged and was disconnected")
            }
        }
    }
}

impl std::error::Error for ServerError {}

/// Failure to start a server.
#[derive(Debug)]
pub enum ServeError {
    /// Binding the listener failed.
    Io(std::io::Error),
    /// The query graph did not compile (cycle, dangling edge).
    Graph(EngineError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "bind failed: {e}"),
            ServeError::Graph(e) => write!(f, "query graph rejected: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A query prepared for serving. Every operator's counters are always
/// on and served by `StatsV2` as the `engine_op_*` families.
pub struct ServedQuery {
    source: QuerySource,
}

/// How the engine session is built: from one already-built graph
/// (single pipeline) or from a graph factory (staged sharded session).
enum QuerySource {
    Graph(QueryGraph),
    Factory {
        factory: Box<dyn Fn() -> QueryGraph + Send>,
        shards: usize,
        workers: Option<usize>,
    },
}

impl ServedQuery {
    /// Serve `graph` on one single-threaded pipeline — the exact
    /// incremental-engine semantics, sink arrival order included.
    pub fn new(graph: QueryGraph) -> Self {
        ServedQuery {
            source: QuerySource::Graph(graph),
        }
    }

    /// Serve the query built by `factory` as a staged sharded session
    /// with `shards` logical partitions: the engine thread routes, the
    /// session's worker pool runs the operator work key-partitioned.
    /// `factory` must build the same graph on every call (the sharded
    /// runtime's factory contract). Results stream in the engine's
    /// canonical `(ts, content)` order per watermark interval — the
    /// same rows `run_batched` would produce over the merged feed.
    pub fn sharded(factory: impl Fn() -> QueryGraph + Send + 'static, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        ServedQuery {
            source: QuerySource::Factory {
                factory: Box::new(factory),
                shards,
                workers: None,
            },
        }
    }

    /// Pin the sharded session's worker-pool size (otherwise
    /// `min(shards, available cores)`); no effect on [`ServedQuery::new`]
    /// single-pipeline serving.
    pub fn with_workers(mut self, n: usize) -> Self {
        assert!(n > 0);
        if let QuerySource::Factory { workers, .. } = &mut self.source {
            *workers = Some(n);
        }
        self
    }
}

/// What to do when a subscriber's bounded send queue fills up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubscriberPolicy {
    /// Backpressure: the engine waits for the subscriber to drain (a
    /// slow subscriber slows everyone, but nobody misses a frame).
    Block,
    /// Shed load: discard the oldest queued frames to make room and
    /// tell the subscriber how many it missed with a `Gap` frame
    /// (recorded as a `Transient` [`ServerError::SubscriberLagged`]).
    DropOldest,
    /// Sever: clear the queue and end the subscription with a typed
    /// `Lagging` error frame
    /// (recorded as a `Transient` [`ServerError::SubscriberDropped`]).
    Disconnect,
}

/// Serving knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Most tuples per [`Batch`] pushed into the session: the merge cuts
    /// a longer run (a large publish frame) into pushes of this size, and
    /// coalesces consecutive short runs to the same source over one
    /// schema up to it. Also the sharded session's batch size.
    pub batch_size: usize,
    /// Bound on in-flight engine messages (publish backpressure depth).
    /// Each message is a whole decoded publish frame (one columnar
    /// [`Batch`], or rows for a mixed-schema frame), so this bounds the
    /// decoded backlog the connection handlers can build ahead of the
    /// engine; the default is small because deeper queues buy no
    /// throughput, only memory.
    pub inbox_capacity: usize,
    /// Bound on undelivered result frames per subscriber (a slow
    /// subscriber triggers [`ServerConfig::subscriber_policy`] rather
    /// than ballooning memory).
    pub subscriber_capacity: usize,
    /// How long a publisher's merge slot stays parked after an abrupt
    /// disconnect, waiting for a `Resume`. Zero disables parking: a
    /// disconnect immediately finishes the publisher (the pre-lease
    /// behavior, minus the grace window).
    pub lease: Duration,
    /// What a full subscriber queue does. Default: [`SubscriberPolicy::Block`].
    pub subscriber_policy: SubscriberPolicy,
    /// How many already-broadcast result frames the engine retains for
    /// replay to reconnecting subscribers (`Subscribe { from }`). Zero
    /// disables the ring.
    pub replay_frames: usize,
    /// How often the background watchdog re-evaluates the health checks
    /// (journaling status transitions). Zero disables the ticker —
    /// `Health` requests still evaluate on demand.
    pub health_interval: Duration,
    /// Thresholds for the health checks (the watchdog fills
    /// [`HealthConfig::subscriber_capacity`] in from
    /// [`ServerConfig::subscriber_capacity`] unless already set).
    pub health: HealthConfig,
    /// Trace 1-in-N ingested batches through the engine (pump → route →
    /// seal → emit spans). Zero (the default) disables tracing.
    pub trace_sample_every: u64,
    /// Seed for the trace sampler's residue class and trace IDs.
    pub trace_seed: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            batch_size: 512,
            inbox_capacity: 8,
            subscriber_capacity: 64,
            lease: Duration::from_secs(5),
            subscriber_policy: SubscriberPolicy::Block,
            replay_frames: 64,
            health_interval: Duration::from_millis(200),
            health: HealthConfig::default(),
            trace_sample_every: 0,
            trace_seed: 0,
        }
    }
}

/// What handler threads send the engine. Publisher-side messages are
/// keyed by *session* id, which survives reconnects — a resumed
/// connection keeps feeding the same merge slot.
enum EngineMsg {
    /// A connection declared itself a publisher (EOS accounting).
    Joined {
        session: u64,
    },
    /// One publish frame, decoded (columnar unless its schemas mix) and
    /// already checked against the publisher's ts contract.
    Publish {
        session: u64,
        node: NodeId,
        port: usize,
        batch: Batch,
    },
    /// The publisher is done (explicit `Finish`, or lease expiry).
    Finished {
        session: u64,
    },
    /// A publisher promises to publish nothing older than `watermark` —
    /// the idle-but-alive signal that keeps the k-way merge moving.
    Heartbeat {
        session: u64,
        watermark: u64,
    },
    Subscribe {
        client: u64,
        queue: Arc<SubQueue>,
        /// Replay already-broadcast result frames from this sequence
        /// number (a reconnecting subscriber's catch-up request).
        from: Option<u64>,
    },
    Shutdown,
}

/// What the engine hands a subscriber's relay thread. Result frames
/// arrive pre-encoded (one encode per batch, shared bytes across
/// subscribers).
enum SubItem {
    Frame(Arc<Vec<u8>>),
    /// `missed` result frames were dropped before the next one.
    Gap {
        missed: u64,
    },
    /// The subscriber fell behind under [`SubscriberPolicy::Disconnect`].
    Lagged,
    Eos,
}

/// What [`SubQueue::push_frame`] reports back to the engine.
enum PushOutcome {
    Delivered,
    /// Delivered, but `dropped` older frames were shed to make room.
    Lagged {
        dropped: u64,
    },
    /// The queue was severed under [`SubscriberPolicy::Disconnect`].
    Severed,
    /// The relay is gone (subscriber socket died or server shutdown).
    Gone,
}

/// A subscriber's bounded outbox: a policy-aware queue between the
/// engine thread and the relay thread writing that subscriber's socket.
/// Replaces a plain bounded channel so a full queue can shed or sever
/// per [`SubscriberPolicy`] instead of only blocking, and so a gap left
/// by shed frames is reported in-order as a [`SubItem::Gap`].
struct SubQueue {
    inner: Mutex<SubQueueInner>,
    not_empty: Condvar,
    not_full: Condvar,
    cap: usize,
}

struct SubQueueInner {
    items: VecDeque<SubItem>,
    /// Frames dropped just behind the current front — delivered as one
    /// `Gap` before the next item. Gaps only ever form at the front:
    /// `DropOldest` pops there, and a replay request older than the
    /// ring starts there.
    front_gap: u64,
    /// No further pushes will be read (relay died, EOS queued, or the
    /// queue was severed).
    closed: bool,
}

impl SubQueue {
    fn new(cap: usize) -> Arc<SubQueue> {
        Arc::new(SubQueue {
            inner: Mutex::new(SubQueueInner {
                items: VecDeque::new(),
                front_gap: 0,
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cap: cap.max(1),
        })
    }

    fn push_frame(
        &self,
        frame: Arc<Vec<u8>>,
        policy: SubscriberPolicy,
        shutdown: &AtomicBool,
    ) -> PushOutcome {
        let mut g = self.inner.lock().expect("subscriber queue poisoned");
        if g.closed {
            return PushOutcome::Gone;
        }
        match policy {
            SubscriberPolicy::Block => {
                while g.items.len() >= self.cap && !g.closed {
                    if shutdown.load(Ordering::SeqCst) {
                        return PushOutcome::Gone;
                    }
                    let (back, _) = self
                        .not_full
                        .wait_timeout(g, Duration::from_millis(5))
                        .expect("subscriber queue poisoned");
                    g = back;
                }
                if g.closed {
                    return PushOutcome::Gone;
                }
                g.items.push_back(SubItem::Frame(frame));
                self.not_empty.notify_one();
                PushOutcome::Delivered
            }
            SubscriberPolicy::DropOldest => {
                let mut dropped = 0u64;
                while g.items.len() >= self.cap {
                    match g.items.pop_front() {
                        Some(SubItem::Frame(_)) => {
                            g.front_gap += 1;
                            dropped += 1;
                        }
                        Some(SubItem::Gap { missed }) => g.front_gap += missed,
                        Some(other) => {
                            // Eos/Lagged never precede a frame push; keep
                            // them rather than corrupt the stream end.
                            g.items.push_front(other);
                            break;
                        }
                        None => break,
                    }
                }
                g.items.push_back(SubItem::Frame(frame));
                self.not_empty.notify_one();
                if dropped > 0 {
                    PushOutcome::Lagged { dropped }
                } else {
                    PushOutcome::Delivered
                }
            }
            SubscriberPolicy::Disconnect => {
                if g.items.len() >= self.cap {
                    g.items.clear();
                    g.front_gap = 0;
                    g.items.push_back(SubItem::Lagged);
                    g.closed = true;
                    self.not_empty.notify_one();
                    PushOutcome::Severed
                } else {
                    g.items.push_back(SubItem::Frame(frame));
                    self.not_empty.notify_one();
                    PushOutcome::Delivered
                }
            }
        }
    }

    /// Record `missed` frames dropped before whatever is pushed next
    /// (the catch-up path: a replay request older than the ring).
    fn push_gap(&self, missed: u64) {
        if missed == 0 {
            return;
        }
        let mut g = self.inner.lock().expect("subscriber queue poisoned");
        if !g.closed {
            g.front_gap += missed;
            self.not_empty.notify_one();
        }
    }

    /// Queue the end-of-stream marker (bypasses the capacity bound so
    /// it can never block the engine) and refuse further pushes.
    fn push_eos(&self) {
        let mut g = self.inner.lock().expect("subscriber queue poisoned");
        if !g.closed {
            g.items.push_back(SubItem::Eos);
            g.closed = true;
            self.not_empty.notify_one();
        }
    }

    /// Relay side: the socket died; unblock and turn away the engine.
    fn sever(&self) {
        let mut g = self.inner.lock().expect("subscriber queue poisoned");
        g.closed = true;
        g.items.clear();
        g.front_gap = 0;
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }

    /// Undelivered items currently queued (the engine samples this into
    /// the subscriber's depth gauge after each broadcast).
    fn depth(&self) -> usize {
        self.inner
            .lock()
            .expect("subscriber queue poisoned")
            .items
            .len()
    }

    /// Relay side: next item, blocking. A closed-and-drained queue
    /// yields `Eos`.
    fn pop(&self) -> SubItem {
        let mut g = self.inner.lock().expect("subscriber queue poisoned");
        loop {
            if g.front_gap > 0 {
                let missed = g.front_gap;
                g.front_gap = 0;
                return SubItem::Gap { missed };
            }
            if let Some(item) = g.items.pop_front() {
                self.not_full.notify_one();
                return item;
            }
            if g.closed {
                return SubItem::Eos;
            }
            g = self.not_empty.wait(g).expect("subscriber queue poisoned");
        }
    }
}

/// A publisher session's lifecycle. Guarded by epoch counters so a
/// stale lease timer or a usurped (replaced-by-resume) connection can
/// never regress the state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lifecycle {
    /// A live connection owns the session.
    Active,
    /// The owning connection dropped; the merge slot is held open until
    /// a `Resume` arrives or the lease expires.
    Parked,
    /// The lease ran out; the merge slot was released as finished.
    Expired,
    /// The publisher sent `Finish` (or the query reached EOS).
    Finished,
}

/// One publisher session: the unit that survives reconnects.
struct SessionEntry {
    /// The merge-slot key (the original connection's client id — stable
    /// across resumes, so reconnection cannot perturb tie-breaking).
    session_id: u64,
    /// The opaque credential handed out in `HelloAck` and presented in
    /// `Resume`.
    token: u64,
    state: Mutex<SessionState>,
}

struct SessionState {
    /// Next publish sequence expected (sequences start at 1). Anything
    /// below it was already applied to the merge and is acked without
    /// re-application — the exactly-once dedup.
    next_seq: u64,
    lifecycle: Lifecycle,
    /// Bumped by every successful `Resume`; a connection or lease timer
    /// acts only while its captured epoch is current.
    epoch: u64,
    /// The publisher's timestamp high-water mark: the highest ts it has
    /// published or heartbeated. A new publish starting below it breaks
    /// the ts-ordered stream contract and is refused. Kept here, not on
    /// the connection, so it survives `Resume`.
    high_water: u64,
}

/// The opaque resume credential for a session id. Injective (odd
/// multiplier), so tokens never collide; not guessable-in-practice
/// without being a secret — the threat model is accidental cross-wiring,
/// not adversaries (the codec itself is unauthenticated).
fn session_token(session_id: u64) -> u64 {
    session_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03
}

/// The server's own always-on counters, registered under `server_*`
/// families in the shared [`MetricsRegistry`] at startup. One relaxed
/// atomic bump per serving event; the registry serves the same cells to
/// `StatsV2` and [`MetricsRegistry::render_text`].
struct ServerMetrics {
    /// Publish frames applied to the merge (dedup replays excluded).
    publish_frames: Counter,
    /// Tuples in those frames.
    publish_tuples: Counter,
    /// Every `Ack` response written, any request kind.
    acks: Counter,
    /// Duplicate sequenced publishes re-acked without re-application
    /// (the exactly-once dedup firing during a replay).
    replay_publishes: Counter,
    /// Successful `Resume` handshakes (`ResumeOk` sent).
    resumes: Counter,
    heartbeats: Counter,
    finishes: Counter,
    subscribes: Counter,
    /// Encoded `Results` frames broadcast (splits count individually).
    results_frames: Counter,
    /// `Eos` markers queued to subscribers.
    eos: Counter,
    /// `Gap` frames written to subscribers, and the frames they report
    /// missing.
    gap_frames: Counter,
    gap_missed: Counter,
    /// Lease lifecycle: sessions parked after an abrupt disconnect,
    /// parked sessions picked back up, leases that ran out.
    lease_parked: Counter,
    lease_resumed: Counter,
    lease_expired: Counter,
    /// [`ServerError`]s recorded, split by [`Severity`]. Always equal
    /// to the count of errors handed out by
    /// [`ServerHandle::take_errors`] over the server's lifetime.
    errors_transient: Counter,
    errors_fatal: Counter,
}

impl ServerMetrics {
    fn register(registry: &MetricsRegistry) -> ServerMetrics {
        ServerMetrics {
            publish_frames: registry.counter("server_publish_frames_total"),
            publish_tuples: registry.counter("server_publish_tuples_total"),
            acks: registry.counter("server_acks_total"),
            replay_publishes: registry.counter("server_replay_publishes_total"),
            resumes: registry.counter("server_resumes_total"),
            heartbeats: registry.counter("server_heartbeats_total"),
            finishes: registry.counter("server_finishes_total"),
            subscribes: registry.counter("server_subscribes_total"),
            results_frames: registry.counter("server_results_frames_total"),
            eos: registry.counter("server_eos_total"),
            gap_frames: registry.counter("server_gap_frames_total"),
            gap_missed: registry.counter("server_gap_missed_total"),
            lease_parked: registry.counter("server_lease_parked_total"),
            lease_resumed: registry.counter("server_lease_resumed_total"),
            lease_expired: registry.counter("server_lease_expired_total"),
            errors_transient: registry
                .counter_with("server_errors_total", &[("severity", "transient")]),
            errors_fatal: registry.counter_with("server_errors_total", &[("severity", "fatal")]),
        }
    }
}

/// State shared between the accept loop and every handler thread.
struct Shared {
    engine_tx: Sender<EngineMsg>,
    /// Named source entries as `(entry node, its input-port count)` —
    /// the port count lets handlers reject out-of-range publish ports
    /// before they can trip an operator's `assert!` on the engine
    /// thread.
    sources: HashMap<String, (NodeId, usize)>,
    errors: Mutex<Vec<ServerError>>,
    finished: AtomicBool,
    /// Set by [`ServerHandle::shutdown`]; breaks the engine out of a
    /// backpressure wait on a stalled subscriber, disarms pending lease
    /// timers, and stops the accept loop.
    shutdown: AtomicBool,
    subscriber_capacity: usize,
    lease: Duration,
    /// Resumable publisher sessions, keyed by token.
    sessions: Mutex<HashMap<u64, Arc<SessionEntry>>>,
    /// The always-on metrics surface: the engine session's handles are
    /// adopted here at startup, the server's own counters live here,
    /// and `StatsV2` serves a snapshot plus the text exposition.
    registry: MetricsRegistry,
    /// Structured serving events (gaps, lease lifecycle), merged with
    /// the engine session's journal.
    journal: EventJournal,
    /// The engine session's telemetry handle — `Clone` shares the
    /// cells, so `Explain` assembles live numbers without touching the
    /// engine thread.
    telemetry: SessionTelemetry,
    /// The health evaluator; shared between the background ticker and
    /// on-demand `Health` requests so both see one transition history.
    watchdog: HealthWatchdog,
    m: ServerMetrics,
}

impl Shared {
    fn record(&self, e: ServerError) {
        match e.severity() {
            Severity::Transient => self.m.errors_transient.inc(),
            Severity::Fatal => self.m.errors_fatal.inc(),
        }
        self.errors.lock().expect("error log poisoned").push(e);
    }
}

/// The ingest server. [`Server::serve`] binds, spawns the thread
/// complex, and returns a handle.
pub struct Server;

impl Server {
    /// Serve `query` on `addr` with default [`ServerConfig`].
    pub fn serve(addr: impl ToSocketAddrs, query: ServedQuery) -> Result<ServerHandle, ServeError> {
        Server::serve_with(addr, query, ServerConfig::default())
    }

    /// Serve with explicit knobs.
    pub fn serve_with(
        addr: impl ToSocketAddrs,
        query: ServedQuery,
        config: ServerConfig,
    ) -> Result<ServerHandle, ServeError> {
        let listener = TcpListener::bind(addr).map_err(ServeError::Io)?;
        let addr = listener.local_addr().map_err(ServeError::Io)?;

        let ServedQuery { source } = query;
        let (sources, session) = match source {
            QuerySource::Graph(graph) => {
                let sources: HashMap<String, (NodeId, usize)> = graph
                    .source_entries()
                    .map(|(name, node)| {
                        (name.to_string(), (node, graph.operator(node).num_ports()))
                    })
                    .collect();
                let session = ShardedSession::single(graph).map_err(ServeError::Graph)?;
                (sources, session)
            }
            QuerySource::Factory {
                factory,
                shards,
                workers,
            } => {
                let prototype = factory();
                let sources: HashMap<String, (NodeId, usize)> = prototype
                    .source_entries()
                    .map(|(name, node)| {
                        (
                            name.to_string(),
                            (node, prototype.operator(node).num_ports()),
                        )
                    })
                    .collect();
                drop(prototype);
                let mut executor = ShardedExecutor::new(shards).with_batch_size(config.batch_size);
                if let Some(w) = workers {
                    executor = executor.with_workers(w);
                }
                let session = executor.session(&*factory).map_err(ServeError::Graph)?;
                (sources, session)
            }
        };

        // One registry serves the whole deployment: the session adopts
        // its engine handles into it here, the server's own counters
        // register beside them, and `StatsV2` snapshots the union. The
        // journal is the session's — serving events (leases, gaps)
        // interleave with engine events (pumps, seals) in one sequence.
        let registry = MetricsRegistry::new();
        session.bind_registry(&registry);
        let telemetry = session.telemetry().clone();
        telemetry
            .traces()
            .configure(config.trace_sample_every, config.trace_seed);
        let journal = telemetry.journal().clone();
        let m = ServerMetrics::register(&registry);
        let mut health = config.health.clone();
        if health.subscriber_capacity == 0 {
            health.subscriber_capacity = config.subscriber_capacity as u64;
        }
        let watchdog = HealthWatchdog::new(health, registry.clone(), journal.clone());

        let (engine_tx, engine_rx) = bounded::<EngineMsg>(config.inbox_capacity);
        let shared = Arc::new(Shared {
            engine_tx: engine_tx.clone(),
            sources,
            errors: Mutex::new(Vec::new()),
            finished: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            subscriber_capacity: config.subscriber_capacity,
            lease: config.lease,
            sessions: Mutex::new(HashMap::new()),
            registry,
            journal,
            telemetry,
            watchdog,
            m,
        });

        let engine_shared = shared.clone();
        let batch_size = config.batch_size;
        let policy = config.subscriber_policy;
        let replay_cap = config.replay_frames;
        let engine = std::thread::spawn(move || {
            Engine {
                rx: engine_rx,
                session: Some(session),
                pubs: BTreeMap::new(),
                subs: Vec::new(),
                batch_size,
                policy,
                next_results_seq: 0,
                replay: VecDeque::new(),
                replay_cap,
                ever_subscribed: false,
                shared: engine_shared,
            }
            .run()
        });

        let accept_shared = shared.clone();
        let accept = std::thread::spawn(move || {
            let next_id = AtomicU64::new(1);
            for stream in listener.incoming() {
                if accept_shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let client_id = next_id.fetch_add(1, Ordering::Relaxed);
                let shared = accept_shared.clone();
                std::thread::spawn(move || handle_client(stream, client_id, shared));
            }
        });

        // The watchdog ticker: re-evaluate on an interval so status
        // transitions are journaled even when nobody is asking. Sleeps
        // in short slices so shutdown is prompt.
        let watchdog_thread = (config.health_interval > Duration::ZERO).then(|| {
            let shared = shared.clone();
            let interval = config.health_interval;
            std::thread::spawn(move || {
                let slice = Duration::from_millis(25).min(interval);
                let mut elapsed = Duration::ZERO;
                while !shared.shutdown.load(Ordering::SeqCst) {
                    std::thread::sleep(slice);
                    elapsed += slice;
                    if elapsed >= interval {
                        elapsed = Duration::ZERO;
                        let _ = shared.watchdog.evaluate();
                    }
                }
            })
        });

        Ok(ServerHandle {
            addr,
            shared,
            engine_tx,
            accept: Some(accept),
            engine: Some(engine),
            watchdog: watchdog_thread,
        })
    }
}

/// In-process handle to a running server.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    engine_tx: Sender<EngineMsg>,
    accept: Option<JoinHandle<()>>,
    engine: Option<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (use with port 0 to serve on an ephemeral
    /// loopback port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether the served query has flushed (EOS reached).
    pub fn is_finished(&self) -> bool {
        self.shared.finished.load(Ordering::SeqCst)
    }

    /// The server's live metrics registry: the engine session's
    /// `engine_*` handles plus the serving-layer `server_*` counters —
    /// the same cells `StatsV2` snapshots remotely. `Clone` shares the
    /// table, so the handle stays valid after [`ServerHandle::shutdown`].
    pub fn registry(&self) -> MetricsRegistry {
        self.shared.registry.clone()
    }

    /// The structured event journal: engine events (batches pumped,
    /// windows sealed, shard routing) interleaved with serving events
    /// (lease lifecycle, subscriber gaps) in one monotonic sequence.
    pub fn journal(&self) -> EventJournal {
        self.shared.journal.clone()
    }

    /// Assemble the live EXPLAIN ANALYZE report in-process — the same
    /// payload a remote [`crate::Client::explain`] receives.
    pub fn explain(&self) -> PlanReport {
        PlanReport::assemble(&self.shared.telemetry)
    }

    /// Evaluate the health checks now (sharing transition history with
    /// the background ticker and remote `Health` requests).
    pub fn health(&self) -> HealthReport {
        self.shared.watchdog.evaluate()
    }

    /// Drain the typed errors recorded so far (malformed frames,
    /// mid-stream disconnects, lease expiries, shed subscribers).
    /// Filter with [`ServerError::severity`] before alerting: the
    /// `Transient` entries are absorbed faults (a disconnected client
    /// whose lease is still running, a lagging subscriber that was told
    /// about its gap); only `Fatal` entries mean result data was lost
    /// or the query died.
    pub fn take_errors(&self) -> Vec<ServerError> {
        std::mem::take(&mut *self.shared.errors.lock().expect("error log poisoned"))
    }

    /// Stop accepting, stop the engine (subscribers receive `Eos` if the
    /// query had not flushed), and join the server threads. Returns any
    /// errors recorded over the server's lifetime.
    pub fn shutdown(mut self) -> Vec<ServerError> {
        // Flag first: an engine parked on a stalled subscriber's full
        // outbox polls this flag and drops the subscriber instead of
        // waiting forever, so the join below cannot hang.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let _ = self.engine_tx.send(EngineMsg::Shutdown);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.engine.take() {
            let _ = h.join();
        }
        if let Some(h) = self.watchdog.take() {
            let _ = h.join();
        }
        self.take_errors()
    }
}

// ---------------------------------------------------------------------
// Engine thread
// ---------------------------------------------------------------------

/// One attached subscriber: its queue plus the live depth gauge the
/// engine refreshes after every broadcast.
struct Sub {
    client: u64,
    queue: Arc<SubQueue>,
    depth: Gauge,
}

struct Engine {
    rx: Receiver<EngineMsg>,
    session: Option<ShardedSession>,
    pubs: BTreeMap<u64, PubState>,
    subs: Vec<Sub>,
    batch_size: usize,
    policy: SubscriberPolicy,
    /// Sequence number of the next broadcast `Results` frame (frames
    /// are numbered consecutively from 0 once the first subscriber has
    /// ever attached).
    next_results_seq: u64,
    /// The bounded replay ring: the last `replay_cap` broadcast frames,
    /// by sequence number, for `Subscribe { from }` catch-up.
    replay: VecDeque<(u64, Arc<Vec<u8>>)>,
    replay_cap: usize,
    /// Until the first subscriber attaches, result frames are neither
    /// encoded nor ringed (a publisher-only server pays no encode tax);
    /// from then on they are, so reconnectors can catch up even while
    /// no subscriber is currently attached.
    ever_subscribed: bool,
    shared: Arc<Shared>,
}

impl Engine {
    fn run(mut self) {
        // The loop ends when every sender handle drops (server torn
        // down) or an early-return arm fires.
        while let Ok(msg) = self.rx.recv() {
            match msg {
                EngineMsg::Joined { session } => {
                    self.pubs.entry(session).or_default();
                }
                EngineMsg::Publish {
                    session,
                    node,
                    port,
                    batch,
                } => self
                    .pubs
                    .entry(session)
                    .or_default()
                    .enqueue(node, port, batch),
                EngineMsg::Finished { session } => {
                    if let Some(p) = self.pubs.get_mut(&session) {
                        p.finished = true;
                    }
                }
                EngineMsg::Heartbeat { session, watermark } => {
                    // Advance the publisher's merge watermark without
                    // data: its queue can stay empty without blocking
                    // other publishers' releases.
                    if let Some(p) = self.pubs.get_mut(&session) {
                        p.heartbeat(watermark);
                    }
                }
                EngineMsg::Subscribe {
                    client,
                    queue,
                    from,
                } => {
                    self.ever_subscribed = true;
                    if self.replay_frames_for(&queue, client, from) {
                        let depth = self.shared.registry.gauge_with(
                            "server_subscriber_queue_depth",
                            &[("client", &client.to_string())],
                        );
                        depth.set(queue.depth() as i64);
                        self.subs.push(Sub {
                            client,
                            queue,
                            depth,
                        });
                    }
                }
                EngineMsg::Shutdown => {
                    self.broadcast_eos();
                    return;
                }
            }
            if let Err(panic) = self.pump() {
                self.fail(panic);
                return;
            }
            if !self.pubs.is_empty() && self.pubs.values().all(|p| p.finished) {
                self.complete();
                return;
            }
        }
    }

    /// Merge the per-publisher queues up to the collective watermark
    /// ([`merge::release`]), push the released runs through the session
    /// in pushes of at most `batch_size` ([`merge::chunk`]), then stream
    /// any newly closed windows to subscribers.
    ///
    /// `Err` carries the panic message when an operator panicked on the
    /// pushed input — the session is then poisoned and the caller must
    /// [`Engine::fail`].
    fn pump(&mut self) -> Result<(), String> {
        let drained = {
            let Some(session) = self.session.as_mut() else {
                return Ok(());
            };
            // Remote tuples run user operator code; the session contains
            // panics (on the engine thread and on its pool workers) and
            // reports them as typed errors — the query dies with Eos'd
            // subscribers, the serving threads never unwind.
            for (node, port, batch) in merge::chunk(merge::release(&mut self.pubs), self.batch_size)
            {
                session
                    .push_batch(node, port, batch)
                    .map_err(|e| e.to_string())?;
            }
            // The collective publisher watermark: every unfinished
            // publisher has promised (via data or heartbeats) nothing
            // older, and everything below it is already pushed — so the
            // session's event-time clock may advance past the last
            // pushed tuple. Windows sealed purely by the clock (idle
            // publishers heartbeating past them) close and stream now
            // instead of stalling until the next data push or EOS.
            let watermark = self
                .pubs
                .values()
                .filter(|p| !p.finished)
                .map(|p| p.last_ts)
                .min();
            if let Some(watermark) = watermark {
                session
                    .advance_watermark(watermark)
                    .map_err(|e| e.to_string())?;
            }
            session.drain_collected().map_err(|e| e.to_string())?
        };
        self.broadcast(drained);
        Ok(())
    }

    /// All publishers finished: feed the stragglers, flush the session,
    /// stream the final windows, and send `Eos` to every subscriber.
    fn complete(&mut self) {
        // Flag first: handlers reject new publishes while the (possibly
        // long) flush runs, so nothing can be acknowledged into an
        // engine that is about to stop reading its inbox.
        self.shared.finished.store(true, Ordering::SeqCst);
        if let Err(panic) = self.pump() {
            // Nothing blocks once every publisher is finished.
            self.fail(panic);
            return;
        }
        if let Some(session) = self.session.take() {
            match session.finish() {
                Ok(collected) => {
                    let mut finals: Vec<(NodeId, Vec<Tuple>)> = collected
                        .into_iter()
                        .filter(|(_, tuples)| !tuples.is_empty())
                        .collect();
                    finals.sort_by_key(|(n, _)| n.index());
                    self.broadcast(finals);
                }
                Err(e) => {
                    self.fail(e.to_string());
                    return;
                }
            }
        }
        self.broadcast_eos();
        self.post_eos_loop();
    }

    /// An operator panicked on remote input: discard the poisoned
    /// session, record the typed error, release subscribers with `Eos`,
    /// and reject everything else — the serving threads keep running.
    fn fail(&mut self, message: String) {
        self.session = None;
        self.shared.record(ServerError::QueryPanicked { message });
        self.shared.finished.store(true, Ordering::SeqCst);
        self.broadcast_eos();
        self.post_eos_loop();
    }

    /// Keep serving the inbox after EOS until shutdown (or teardown):
    /// late subscribers still get a ring replay and their `Eos` (no
    /// hang, no race with the flush), lease expiries for sessions parked
    /// across the flush land here as ignored no-ops instead of re-opening
    /// the merge gate, and acknowledged-but-unprocessable publishes are
    /// recorded instead of vanishing.
    fn post_eos_loop(&mut self) {
        while let Ok(msg) = self.rx.recv() {
            match msg {
                EngineMsg::Subscribe {
                    client,
                    queue,
                    from,
                } => {
                    self.replay_frames_for(&queue, client, from);
                    queue.push_eos();
                }
                EngineMsg::Publish { session, batch, .. } if !batch.is_empty() => {
                    self.shared.record(ServerError::PublishDroppedAtEos {
                        client_id: session,
                        count: batch.len(),
                    });
                }
                EngineMsg::Shutdown => return,
                _ => {}
            }
        }
    }

    /// Serve a new subscriber's `from` catch-up request out of the
    /// replay ring: one `Gap` for whatever aged out, then every retained
    /// frame at or past `from`. Returns whether the subscriber is still
    /// attached (its policy may sever it mid-replay).
    fn replay_frames_for(&self, queue: &Arc<SubQueue>, client: u64, from: Option<u64>) -> bool {
        let Some(from) = from else { return true };
        let ring_start = self
            .replay
            .front()
            .map(|(seq, _)| *seq)
            .unwrap_or(self.next_results_seq);
        // `from` beyond the live sequence is a confused client; nothing
        // to replay and nothing was missed yet.
        if from < ring_start {
            queue.push_gap(ring_start - from);
        }
        for (seq, frame) in &self.replay {
            if *seq >= from && !deliver(&self.shared, self.policy, client, queue, frame.clone()) {
                return false;
            }
        }
        true
    }

    fn broadcast(&mut self, batches: Vec<(NodeId, Vec<Tuple>)>) {
        for (sink, tuples) in batches {
            self.broadcast_batch(sink.index() as u32, &tuples);
        }
    }

    /// Encode one result batch into its sequenced `Results` frame
    /// exactly once, remember it in the replay ring, and fan the shared
    /// bytes out to every subscriber under the configured policy. A
    /// batch whose frame would exceed the payload cap is split in half
    /// recursively (each half gets its own sequence number).
    fn broadcast_batch(&mut self, sink: u32, tuples: &[Tuple]) {
        if tuples.is_empty() || (self.subs.is_empty() && !self.ever_subscribed) {
            return;
        }
        let mut bytes = Vec::new();
        match protocol::write_results(&mut bytes, sink, Some(self.next_results_seq), tuples) {
            Ok(()) => {
                let seq = self.next_results_seq;
                self.next_results_seq += 1;
                self.shared.m.results_frames.inc();
                let frame = Arc::new(bytes);
                if self.replay_cap > 0 {
                    if self.replay.len() == self.replay_cap {
                        self.replay.pop_front();
                    }
                    self.replay.push_back((seq, frame.clone()));
                }
                let shared = self.shared.clone();
                let policy = self.policy;
                self.subs.retain(|sub| {
                    let keep = deliver(&shared, policy, sub.client, &sub.queue, frame.clone());
                    sub.depth.set(sub.queue.depth() as i64);
                    keep
                });
            }
            Err(WireError::FrameTooLarge(_)) if tuples.len() > 1 => {
                let mid = tuples.len() / 2;
                self.broadcast_batch(sink, &tuples[..mid]);
                self.broadcast_batch(sink, &tuples[mid..]);
            }
            Err(_) => {} // a single tuple too large for any frame: drop it
        }
    }

    fn broadcast_eos(&mut self) {
        for sub in self.subs.drain(..) {
            // Count first: a subscriber that reads its `Eos` and then
            // asks for `StatsV2` must find it counted.
            self.shared.m.eos.inc();
            sub.queue.push_eos();
            sub.depth.set(sub.queue.depth() as i64);
        }
    }
}

/// Push one frame into a subscriber's queue, recording the policy
/// outcome. Returns whether the subscriber should stay attached.
fn deliver(
    shared: &Arc<Shared>,
    policy: SubscriberPolicy,
    client: u64,
    queue: &Arc<SubQueue>,
    frame: Arc<Vec<u8>>,
) -> bool {
    match queue.push_frame(frame, policy, &shared.shutdown) {
        PushOutcome::Delivered => true,
        PushOutcome::Lagged { dropped } => {
            shared.record(ServerError::SubscriberLagged {
                client_id: client,
                dropped,
            });
            true
        }
        PushOutcome::Severed => {
            shared.record(ServerError::SubscriberDropped { client_id: client });
            false
        }
        PushOutcome::Gone => false,
    }
}

// ---------------------------------------------------------------------
// Handler threads
// ---------------------------------------------------------------------

/// What became of a publisher connection that stopped cleanly or not:
/// park (or immediately expire) its session so the merge slot either
/// waits for a `Resume` under the lease or degrades to finished.
///
/// Epoch-guarded: if the session was already resumed by a newer
/// connection (usurped), parked, expired, or finished, this is a no-op.
fn park_publisher(
    shared: &Arc<Shared>,
    client_id: u64,
    is_publisher: bool,
    finish_sent: bool,
    session: &Option<Arc<SessionEntry>>,
    my_epoch: u64,
    why: Option<ServerError>,
) {
    if let Some(e) = why {
        shared.record(e);
    }
    if !is_publisher || finish_sent {
        return;
    }
    let Some(entry) = session else {
        // Legacy sessionless publisher: finished immediately (the
        // pre-lease behavior — nothing to resume onto).
        let _ = shared
            .engine_tx
            .send(EngineMsg::Finished { session: client_id });
        return;
    };
    let mut st = entry.state.lock().expect("session state poisoned");
    if st.lifecycle != Lifecycle::Active || st.epoch != my_epoch {
        return;
    }
    if shared.finished.load(Ordering::SeqCst) {
        // EOS already flushed: the merge gate is closed for good; a
        // disconnect after that must not be allowed to re-open it (or
        // to count as a lost lease).
        st.lifecycle = Lifecycle::Finished;
        return;
    }
    if shared.shutdown.load(Ordering::SeqCst) {
        st.lifecycle = Lifecycle::Expired;
        return;
    }
    if shared.lease.is_zero() {
        st.lifecycle = Lifecycle::Expired;
        drop(st);
        expire_session(shared, entry);
        return;
    }
    st.lifecycle = Lifecycle::Parked;
    let epoch = st.epoch;
    drop(st);
    shared.m.lease_parked.inc();
    shared.journal.record(TraceDetail::LeaseParked {
        session: entry.session_id,
    });
    let shared = shared.clone();
    let entry = entry.clone();
    std::thread::spawn(move || {
        std::thread::sleep(shared.lease);
        let mut st = entry.state.lock().expect("session state poisoned");
        if st.lifecycle == Lifecycle::Parked
            && st.epoch == epoch
            && !shared.shutdown.load(Ordering::SeqCst)
            && !shared.finished.load(Ordering::SeqCst)
        {
            st.lifecycle = Lifecycle::Expired;
            drop(st);
            expire_session(&shared, &entry);
        }
    });
}

/// The lease ran out (or was zero): escalate the earlier `Transient`
/// disconnect to a `Fatal` [`ServerError::LeaseExpired`] and release
/// the merge slot as finished so the query still reaches a clean EOS.
fn expire_session(shared: &Arc<Shared>, entry: &Arc<SessionEntry>) {
    shared.m.lease_expired.inc();
    shared.journal.record(TraceDetail::LeaseExpired {
        session: entry.session_id,
    });
    shared.record(ServerError::LeaseExpired {
        session_id: entry.session_id,
        lease_ms: shared.lease.as_millis().min(u64::MAX as u128) as u64,
    });
    let _ = shared.engine_tx.send(EngineMsg::Finished {
        session: entry.session_id,
    });
}

/// Serve one connection until it closes. Malformed frames are answered
/// with a typed error response and the connection is dropped (the length
/// prefix can no longer be trusted); a publisher that vanishes without
/// `Finish` has its session parked under the lease (see
/// [`park_publisher`]) so a `Resume` can pick the stream back up.
///
/// The socket's write half is shared (frame-at-a-time, under a mutex)
/// between this thread's replies and the subscription relay thread, so
/// a subscribed connection stays fully duplex — it can keep publishing
/// and issuing `StatsV2`/`Finish` while results stream back. Replies go
/// out with `TCP_NODELAY`: each is one frame in one write, and Nagle's
/// hold-back would only wait out the client's delayed ACK.
fn handle_client(mut stream: TcpStream, client_id: u64, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let reply_to = |resp: &Response| -> bool {
        let mut w = writer.lock().expect("connection writer poisoned");
        protocol::write_response(&mut *w, resp).is_ok()
    };
    let mut is_publisher = false;
    let mut subscribed = false;
    let mut finish_sent = false;
    // The resumable session this connection owns (every sequenced
    // publisher has one; `my_epoch` proves ownership against resumes).
    let mut session: Option<Arc<SessionEntry>> = None;
    let mut my_epoch = 0u64;
    loop {
        let req = match protocol::read_request_with(&mut stream, wire::decode_batch) {
            Ok(req) => req,
            Err(WireError::Disconnected) | Err(WireError::Io(_)) => {
                let why =
                    (is_publisher && !finish_sent).then_some(ServerError::ClientDisconnected {
                        client_id,
                        role: "publisher",
                    });
                park_publisher(
                    &shared,
                    client_id,
                    is_publisher,
                    finish_sent,
                    &session,
                    my_epoch,
                    why,
                );
                return;
            }
            Err(error) => {
                shared.record(ServerError::Malformed {
                    client_id,
                    error: error.clone(),
                });
                reply_to(&Response::Error {
                    code: ErrorCode::Malformed,
                    message: error.to_string(),
                });
                park_publisher(
                    &shared,
                    client_id,
                    is_publisher,
                    finish_sent,
                    &session,
                    my_epoch,
                    None,
                );
                return;
            }
        };
        let reply = match req {
            Request::Hello { publisher } => {
                // Joining after EOS is allowed (the connection can still
                // query `StatsV2`); only publishes are rejected then.
                if publisher
                    && !is_publisher
                    && shared
                        .engine_tx
                        .send(EngineMsg::Joined { session: client_id })
                        .is_ok()
                {
                    is_publisher = true;
                    session = Some(register_session(&shared, client_id));
                    my_epoch = 0;
                }
                Response::HelloAck {
                    client_id,
                    token: session.as_ref().map(|e| e.token),
                }
            }
            Request::Resume {
                token,
                last_acked_seq: _,
            } => {
                // The server's applied high-water mark is authoritative
                // (the client's view can only lag it); `last_acked_seq`
                // is advisory.
                if is_publisher {
                    Response::Error {
                        code: ErrorCode::Protocol,
                        message: "connection already has a publisher session".into(),
                    }
                } else {
                    let entry = shared
                        .sessions
                        .lock()
                        .expect("session map poisoned")
                        .get(&token)
                        .cloned();
                    match entry {
                        None => Response::Error {
                            code: ErrorCode::Protocol,
                            message: "unknown session token".into(),
                        },
                        Some(entry) => {
                            let mut st = entry.state.lock().expect("session state poisoned");
                            match st.lifecycle {
                                Lifecycle::Expired => Response::Error {
                                    code: ErrorCode::Expired,
                                    message: "session lease expired; its slot was released".into(),
                                },
                                Lifecycle::Finished => {
                                    // Idempotent: a client retrying a
                                    // `Finish` whose ack it never saw may
                                    // resume a finished session; only
                                    // further publishes are refused.
                                    let last_seq = st.next_seq - 1;
                                    let session_id = entry.session_id;
                                    drop(st);
                                    is_publisher = true;
                                    finish_sent = true;
                                    session = Some(entry);
                                    shared.m.resumes.inc();
                                    Response::ResumeOk {
                                        session_id,
                                        last_seq,
                                    }
                                }
                                Lifecycle::Active | Lifecycle::Parked => {
                                    let was_parked = st.lifecycle == Lifecycle::Parked;
                                    // Usurp: the epoch bump turns the
                                    // previous owner's park (and any
                                    // pending lease timer) into a no-op.
                                    st.lifecycle = Lifecycle::Active;
                                    st.epoch += 1;
                                    my_epoch = st.epoch;
                                    let last_seq = st.next_seq - 1;
                                    let session_id = entry.session_id;
                                    drop(st);
                                    is_publisher = true;
                                    finish_sent = false;
                                    session = Some(entry);
                                    shared.m.resumes.inc();
                                    if was_parked {
                                        shared.m.lease_resumed.inc();
                                        shared.journal.record(TraceDetail::LeaseResumed {
                                            session: session_id,
                                        });
                                    }
                                    Response::ResumeOk {
                                        session_id,
                                        last_seq,
                                    }
                                }
                            }
                        }
                    }
                }
            }
            Request::Publish {
                source,
                port,
                seq,
                tuples: batch,
            } => match shared.sources.get(&source) {
                _ if shared.finished.load(Ordering::SeqCst) => Response::Error {
                    code: ErrorCode::Finished,
                    message: "query already finished; publish rejected".into(),
                },
                _ if finish_sent => Response::Error {
                    code: ErrorCode::Protocol,
                    message: "this connection already finished publishing".into(),
                },
                None => Response::Error {
                    code: ErrorCode::UnknownSource,
                    message: format!("unknown source `{source}`"),
                },
                Some(&(_, num_ports)) if port as usize >= num_ports => Response::Error {
                    code: ErrorCode::Protocol,
                    message: format!(
                        "source `{source}` enters an operator with {num_ports} input port(s); \
                         port {port} is out of range"
                    ),
                },
                Some(&(node, _)) => {
                    // Publishing implies publisher role even without a
                    // prior Hello, so EOS accounting stays sound.
                    if !is_publisher {
                        if shared
                            .engine_tx
                            .send(EngineMsg::Joined { session: client_id })
                            .is_err()
                        {
                            reply_to(&Response::Error {
                                code: ErrorCode::Finished,
                                message: "query already finished".into(),
                            });
                            continue;
                        }
                        is_publisher = true;
                        session = Some(register_session(&shared, client_id));
                        my_epoch = 0;
                    }
                    let count = batch.len() as u32;
                    let entry = session.as_ref().expect("a publisher owns a session");
                    // Exactly-once: the state lock is held across the
                    // engine send, so a duplicate of this sequence racing
                    // in from a usurped connection observes the bumped
                    // `next_seq` only after this send is ordered — each
                    // sequence is applied to the merge once, in order, no
                    // matter how many connections replay it. (Unsequenced
                    // legacy publishes bypass the dedup.)
                    let mut st = entry.state.lock().expect("session state poisoned");
                    if st.lifecycle == Lifecycle::Finished {
                        Response::Error {
                            code: ErrorCode::Protocol,
                            message: "session already finished publishing".into(),
                        }
                    } else if seq.is_some_and(|seq| seq < st.next_seq) {
                        // Replay of an already-applied batch: re-ack,
                        // never re-apply (and never re-check).
                        shared.m.replay_publishes.inc();
                        Response::Ack { count }
                    } else if let Some(seq) = seq.filter(|&seq| seq > st.next_seq) {
                        Response::Error {
                            code: ErrorCode::Protocol,
                            message: format!(
                                "publish sequence gap: got {seq}, expected {}",
                                st.next_seq
                            ),
                        }
                    } else if let Some(message) = ts_contract_violation(&batch, st.high_water) {
                        Response::Error {
                            code: ErrorCode::Protocol,
                            message,
                        }
                    } else {
                        let max_ts = batch.max_ts();
                        match shared.engine_tx.send(EngineMsg::Publish {
                            session: entry.session_id,
                            node,
                            port: port as usize,
                            batch,
                        }) {
                            Ok(()) => {
                                if seq.is_some() {
                                    st.next_seq += 1;
                                }
                                st.high_water = st.high_water.max(max_ts.unwrap_or(0));
                                shared.m.publish_frames.inc();
                                shared.m.publish_tuples.add(count as u64);
                                Response::Ack { count }
                            }
                            Err(_) => Response::Error {
                                code: ErrorCode::Finished,
                                message: "query already finished; publish rejected".into(),
                            },
                        }
                    }
                }
            },
            Request::Subscribe { from } => {
                if subscribed {
                    Response::Error {
                        code: ErrorCode::Protocol,
                        message: "connection already has a subscription".into(),
                    }
                } else {
                    let queue = SubQueue::new(shared.subscriber_capacity);
                    if shared
                        .engine_tx
                        .send(EngineMsg::Subscribe {
                            client: client_id,
                            queue: queue.clone(),
                            from,
                        })
                        .is_err()
                    {
                        Response::Error {
                            code: ErrorCode::Finished,
                            message: "query already finished; no further results".into(),
                        }
                    } else {
                        subscribed = true;
                        shared.m.subscribes.inc();
                        let relay_writer = writer.clone();
                        let relay_shared = shared.clone();
                        std::thread::spawn(move || {
                            relay_results(queue, relay_writer, client_id, relay_shared)
                        });
                        Response::Ack { count: 0 }
                    }
                }
            }
            Request::Finish => {
                let sid = session.as_ref().map(|e| e.session_id).unwrap_or(client_id);
                let _ = shared.engine_tx.send(EngineMsg::Finished { session: sid });
                finish_sent = true;
                shared.m.finishes.inc();
                if let Some(entry) = &session {
                    entry
                        .state
                        .lock()
                        .expect("session state poisoned")
                        .lifecycle = Lifecycle::Finished;
                }
                Response::Ack { count: 0 }
            }
            Request::Heartbeat { watermark } => {
                // Only a live publisher's watermark means anything to
                // the merge; after Finish the publisher no longer gates
                // it, and a non-publisher never did.
                if !is_publisher {
                    Response::Error {
                        code: ErrorCode::Protocol,
                        message: "heartbeat from a connection that never published".into(),
                    }
                } else if finish_sent {
                    Response::Error {
                        code: ErrorCode::Protocol,
                        message: "heartbeat after finish".into(),
                    }
                } else {
                    let sid = session.as_ref().map(|e| e.session_id).unwrap_or(client_id);
                    if let Some(entry) = &session {
                        let mut st = entry.state.lock().expect("session state poisoned");
                        st.high_water = st.high_water.max(watermark);
                    }
                    let _ = shared.engine_tx.send(EngineMsg::Heartbeat {
                        session: sid,
                        watermark,
                    });
                    shared.m.heartbeats.inc();
                    Response::Ack { count: 0 }
                }
            }
            Request::StatsV2 => Response::StatsV2 {
                metrics: shared.registry.snapshot(),
                text: shared.registry.render_text(),
            },
            Request::Explain => Response::Explain(PlanReport::assemble(&shared.telemetry)),
            Request::Health => Response::Health(shared.watchdog.evaluate()),
            Request::JournalTail { n } => Response::JournalTail {
                recorded: shared.journal.recorded(),
                events: shared.journal.recent(n as usize),
            },
        };
        if matches!(reply, Response::Ack { .. }) {
            shared.m.acks.inc();
        }
        if !reply_to(&reply) {
            let why = (is_publisher && !finish_sent).then_some(ServerError::ClientDisconnected {
                client_id,
                role: "publisher",
            });
            park_publisher(
                &shared,
                client_id,
                is_publisher,
                finish_sent,
                &session,
                my_epoch,
                why,
            );
            return;
        }
    }
}

/// Why `batch` breaks its publisher's ts-ordered stream contract, if it
/// does: its timestamps decrease inside the frame, or its first one is
/// below `high_water` (the publisher's last published ts or heartbeat
/// watermark). Equal timestamps are fine.
fn ts_contract_violation(batch: &Batch, high_water: u64) -> Option<String> {
    if batch.is_empty() {
        return None;
    }
    let first = batch.ts_at(0);
    if first < high_water {
        return Some(format!(
            "publish starts at ts {first}, below this publisher's high-water mark {high_water} \
             (its last published ts or heartbeat watermark)"
        ));
    }
    let drop_at = match batch.columns() {
        Some(cols) => cols.ts().windows(2).position(|w| w[1] < w[0]),
        None => batch.as_slice().windows(2).position(|w| w[1].ts < w[0].ts),
    }?;
    Some(format!(
        "publish ts decreases inside the frame: ts {} follows ts {} at row {}",
        batch.ts_at(drop_at + 1),
        batch.ts_at(drop_at),
        drop_at + 1
    ))
}

/// Create and index the resumable session for a newly declared
/// publisher connection.
fn register_session(shared: &Arc<Shared>, client_id: u64) -> Arc<SessionEntry> {
    let token = session_token(client_id);
    let entry = Arc::new(SessionEntry {
        session_id: client_id,
        token,
        state: Mutex::new(SessionState {
            next_seq: 1,
            lifecycle: Lifecycle::Active,
            epoch: 0,
            high_water: 0,
        }),
    });
    shared
        .sessions
        .lock()
        .expect("session map poisoned")
        .insert(token, entry.clone());
    entry
}

/// Relay one subscription's engine output onto the shared socket writer
/// until `Eos`, a policy severance, or the subscriber stops reading.
fn relay_results(
    queue: Arc<SubQueue>,
    writer: Arc<Mutex<TcpStream>>,
    client_id: u64,
    shared: Arc<Shared>,
) {
    let write = |resp: &Response| -> bool {
        let mut w = writer.lock().expect("connection writer poisoned");
        protocol::write_response(&mut *w, resp).is_ok()
    };
    loop {
        match queue.pop() {
            SubItem::Frame(bytes) => {
                let mut w = writer.lock().expect("connection writer poisoned");
                let gone = w.write_all(&bytes).and_then(|_| w.flush()).is_err();
                drop(w);
                if gone {
                    shared.record(ServerError::ClientDisconnected {
                        client_id,
                        role: "subscriber",
                    });
                    queue.sever();
                    return;
                }
            }
            SubItem::Gap { missed } => {
                if !write(&Response::Gap { missed }) {
                    shared.record(ServerError::ClientDisconnected {
                        client_id,
                        role: "subscriber",
                    });
                    queue.sever();
                    return;
                }
                shared.m.gap_frames.inc();
                shared.m.gap_missed.add(missed);
                shared.journal.record(TraceDetail::GapEmitted {
                    subscriber: client_id,
                    missed,
                });
            }
            SubItem::Lagged => {
                let _ = write(&Response::Error {
                    code: ErrorCode::Lagging,
                    message: "subscriber fell behind; subscription severed".into(),
                });
                return;
            }
            SubItem::Eos => {
                let _ = write(&Response::Eos);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ustream_core::ops::Passthrough;

    #[test]
    fn accepted_sockets_disable_nagle() {
        let mut g = QueryGraph::new();
        let node = g.add(Box::new(Passthrough::new("sink")));
        g.source("in", node);
        g.sink(node);
        let server = Server::serve("127.0.0.1:0", ServedQuery::new(g)).unwrap();

        // Hand `handle_client` an accepted socket of our own, keeping a
        // clone (same socket, same options) to inspect.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let probe = accepted.try_clone().unwrap();
        assert!(!probe.nodelay().unwrap(), "sockets start with Nagle on");
        let shared = server.shared.clone();
        let handler = std::thread::spawn(move || handle_client(accepted, 99, shared));

        protocol::write_request(&mut peer, &Request::Hello { publisher: false }).unwrap();
        assert!(matches!(
            protocol::read_response(&mut peer).unwrap(),
            Response::HelloAck { client_id: 99, .. }
        ));
        assert!(probe.nodelay().unwrap());

        drop(peer);
        handler.join().unwrap();
        let errors = server.shutdown();
        assert!(errors.is_empty(), "{errors:?}");
    }

    /// A passthrough query on source `in`, with a subscriber attached
    /// before anything is published.
    fn passthrough_server() -> (ServerHandle, crate::Client) {
        let mut g = QueryGraph::new();
        let node = g.add(Box::new(Passthrough::new("sink")));
        g.source("in", node);
        g.sink(node);
        let server = Server::serve("127.0.0.1:0", ServedQuery::new(g)).unwrap();
        let sub = crate::Client::subscriber(server.addr()).unwrap();
        (server, sub)
    }

    fn hello(addr: SocketAddr) -> (TcpStream, u64) {
        let mut stream = TcpStream::connect(addr).unwrap();
        protocol::write_request(&mut stream, &Request::Hello { publisher: true }).unwrap();
        match protocol::read_response(&mut stream).unwrap() {
            Response::HelloAck {
                token: Some(token), ..
            } => (stream, token),
            other => panic!("expected HelloAck, got {other:?}"),
        }
    }

    /// Publish one frame with the given timestamps; the reply.
    fn publish(stream: &mut TcpStream, seq: u64, ts: &[u64]) -> Response {
        let schema = ustream_core::Schema::builder()
            .field("v", ustream_core::DataType::Int)
            .build();
        let rows: Vec<Tuple> = ts
            .iter()
            .map(|&ts| Tuple::new(schema.clone(), vec![ustream_core::Value::from(1)], ts))
            .collect();
        protocol::write_publish(stream, "in", 0, Some(seq), &rows).unwrap();
        protocol::read_response(stream).unwrap()
    }

    fn assert_refused(resp: Response, why: &str) {
        match resp {
            Response::Error {
                code: ErrorCode::Protocol,
                message,
            } => assert!(message.contains(why), "{message}"),
            other => panic!("expected a Protocol refusal, got {other:?}"),
        }
    }

    fn assert_acked(resp: Response, n: u32) {
        assert!(
            matches!(resp, Response::Ack { count } if count == n),
            "{resp:?}"
        );
    }

    /// Finish the publisher and return the timestamps the subscriber saw,
    /// in order, plus the server's applied-tuple count.
    fn finish(
        mut stream: TcpStream,
        server: ServerHandle,
        mut sub: crate::Client,
    ) -> (Vec<u64>, u64) {
        protocol::write_request(&mut stream, &Request::Finish).unwrap();
        assert_acked(protocol::read_response(&mut stream).unwrap(), 0);
        let seen = sub
            .collect_until_eos()
            .unwrap()
            .into_iter()
            .flat_map(|(_, tuples)| tuples.into_iter().map(|t| t.ts))
            .collect();
        let applied = server.shared.m.publish_tuples.get();
        let errors = server.shutdown();
        assert!(
            errors.iter().all(|e| e.severity() == Severity::Transient),
            "{errors:?}"
        );
        (seen, applied)
    }

    #[test]
    fn a_publish_whose_ts_decreases_inside_the_frame_is_refused() {
        let (server, sub) = passthrough_server();
        let (mut stream, _) = hello(server.addr());
        assert_acked(publish(&mut stream, 1, &[1, 2, 2]), 3);
        assert_refused(
            publish(&mut stream, 2, &[4, 6, 5]),
            "decreases inside the frame",
        );
        // Neither applied nor acked: sequence 2 is still the one expected.
        assert_acked(publish(&mut stream, 2, &[4, 5, 6]), 3);
        let (seen, applied) = finish(stream, server, sub);
        assert_eq!(seen, vec![1, 2, 2, 4, 5, 6]);
        assert_eq!(applied, 6);
    }

    #[test]
    fn a_publish_below_the_last_published_ts_is_refused_across_a_resume() {
        let (server, sub) = passthrough_server();
        let (mut stream, token) = hello(server.addr());
        assert_acked(publish(&mut stream, 1, &[10, 20]), 2);
        drop(stream);
        // The high-water mark lives in the session, not the connection.
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let resume = Request::Resume {
            token,
            last_acked_seq: 1,
        };
        protocol::write_request(&mut stream, &resume).unwrap();
        assert!(matches!(
            protocol::read_response(&mut stream).unwrap(),
            Response::ResumeOk { last_seq: 1, .. }
        ));
        assert_refused(publish(&mut stream, 2, &[15, 30]), "high-water mark 20");
        // A duplicate is re-acked unchecked, and equal ts is in order.
        assert_acked(publish(&mut stream, 1, &[10, 20]), 2);
        assert_acked(publish(&mut stream, 2, &[20, 30]), 2);
        let (seen, applied) = finish(stream, server, sub);
        assert_eq!(seen, vec![10, 20, 20, 30]);
        assert_eq!(applied, 4);
    }

    #[test]
    fn a_publish_below_the_heartbeat_watermark_is_refused() {
        let (server, sub) = passthrough_server();
        let (mut stream, _) = hello(server.addr());
        assert_acked(publish(&mut stream, 1, &[1]), 1);
        protocol::write_request(&mut stream, &Request::Heartbeat { watermark: 100 }).unwrap();
        assert_acked(protocol::read_response(&mut stream).unwrap(), 0);
        assert_refused(publish(&mut stream, 2, &[50]), "high-water mark 100");
        assert_acked(publish(&mut stream, 2, &[100, 101]), 2);
        let (seen, applied) = finish(stream, server, sub);
        assert_eq!(seen, vec![1, 100, 101]);
        assert_eq!(applied, 3);
    }
}
