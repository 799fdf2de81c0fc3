//! The client library: a small synchronous API over the framed
//! protocol. One [`Client`] wraps one TCP connection.
//!
//! Publishers: [`Client::publisher`] → [`Client::publish`]… →
//! [`Client::finish`]. Each publish blocks until the server
//! acknowledges, so engine backpressure (a full inbox) reaches the
//! producer as publish latency rather than unbounded buffering.
//!
//! Subscribers: [`Client::subscriber`] → [`Client::next_event`] until
//! [`Event::Eos`]. Result frames that arrive while a different reply is
//! awaited are queued, so a connection may publish and subscribe at
//! once.
//!
//! ## Fault tolerance
//!
//! With [`ClientConfig::reconnect`] (the default), a broken connection
//! heals transparently: publishes are buffered until acked, and on a
//! connection loss the client redials with capped exponential backoff +
//! jitter (deterministic when [`ClientConfig::backoff_seed`] is set),
//! presents its session token via `Resume`, drops whatever the server
//! already applied (the `ResumeOk` high-water mark), and replays the
//! rest — the per-publish sequence numbers make the replay exactly-once
//! on the server. Subscribers resubscribe with `from:` the next result
//! sequence they expect, so the server's replay ring fills the hole (or
//! reports it as [`Event::Gap`]). Read timeouts do *not* trigger
//! reconnection — only genuine connection losses do.
//!
//! ## Auto-heartbeat
//!
//! An idle-but-alive publisher stalls the server's k-way merge: results
//! are gated on every unfinished publisher's watermark, so one quiet
//! connection delays every subscriber's windows. Publisher connections
//! therefore run a background heartbeat timer by default: the client
//! tracks the publisher's event-time clock (the highest timestamp it
//! has published, ratcheted further by [`Client::advance_watermark`])
//! and the timer advertises it to the server whenever it advances — the
//! application no longer has to remember to call [`Client::heartbeat`]
//! on a schedule of its own. The timer never *invents* time: it only
//! repeats what this process has already published or explicitly
//! promised, so synthetic-timestamp streams are never corrupted by a
//! wall clock. Opt out with [`Client::publisher_manual`] when the
//! application owns all watermark advertisement.

use crate::protocol::{self, ErrorCode, Request, Response};
use crate::wire::WireError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, TryLockError, Weak};
use std::time::Duration;
use ustream_core::Tuple;
use ustream_runtime::PlanReport;
use ustream_telemetry::{HealthReport, MetricSnapshot, TraceEvent};

/// How often the background timer checks whether the publisher's clock
/// advanced past the last advertised watermark.
const HEARTBEAT_TICK: Duration = Duration::from_millis(50);

/// Connection-robustness knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Bound on each dial attempt.
    pub connect_timeout: Duration,
    /// Socket read timeout (`None` blocks forever). A read timing out
    /// surfaces as a typed error; it does not trigger reconnection.
    pub read_timeout: Option<Duration>,
    /// Socket write timeout (`None` blocks forever).
    pub write_timeout: Option<Duration>,
    /// Heal broken connections transparently (resume + replay for
    /// publishers, resubscribe-from for subscribers).
    pub reconnect: bool,
    /// Dial attempts per reestablishment before giving up and surfacing
    /// the underlying error.
    pub max_retries: u32,
    /// First backoff delay; attempt `n` waits `base << n`, jittered.
    pub backoff_base: Duration,
    /// Ceiling on the backoff delay.
    pub backoff_cap: Duration,
    /// Seed for the backoff jitter; `None` derives one from the clock.
    /// Set it for deterministic retry timing in tests.
    pub backoff_seed: Option<u64>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            reconnect: true,
            max_retries: 8,
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_secs(1),
            backoff_seed: None,
        }
    }
}

/// Client-side failures.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// Transport or codec failure.
    Wire(WireError),
    /// The server answered with a typed error frame.
    Server { code: ErrorCode, message: String },
    /// The server answered with a frame that makes no sense here.
    UnexpectedResponse(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "transport: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
            ClientError::UnexpectedResponse(what) => {
                write!(f, "unexpected server response: {what}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Wire(WireError::Io(e.kind()))
    }
}

pub type ClientResult<T> = std::result::Result<T, ClientError>;

/// Does this error mean the connection itself is gone (as opposed to a
/// timeout, a typed server refusal, or a codec problem)? Only these
/// trigger auto-reconnection.
fn is_connection_loss(e: &ClientError) -> bool {
    match e {
        ClientError::Wire(WireError::Disconnected) => true,
        ClientError::Wire(WireError::Io(kind)) => !matches!(
            kind,
            std::io::ErrorKind::WouldBlock
                | std::io::ErrorKind::TimedOut
                | std::io::ErrorKind::Interrupted
        ),
        _ => false,
    }
}

/// A streamed server event delivered to subscribers.
#[derive(Debug, Clone)]
pub enum Event {
    /// A batch of result tuples from the sink with node index `sink`.
    Results { sink: usize, tuples: Vec<Tuple> },
    /// `missed` result frames were dropped before the next one (the
    /// server shed them under `DropOldest`, or a reconnect outran the
    /// replay ring).
    Gap { missed: u64 },
    /// The query flushed; no further results will arrive.
    Eos,
}

/// One publish not yet acknowledged: the encoded frame is kept verbatim
/// so a replay after reconnection is byte-identical.
struct PendingPublish {
    seq: u64,
    count: u32,
    frame: Vec<u8>,
}

/// The connection state every request/reply cycle needs: holding the
/// lock for the whole cycle keeps the strict request/response discipline
/// intact when the heartbeat timer shares the stream with the
/// application thread (each party's reply can never be consumed by the
/// other).
struct Conn {
    stream: TcpStream,
    /// Result/Eos frames that arrived while awaiting another reply.
    queued: VecDeque<Event>,
    /// Resolved server addresses, for redialing.
    addrs: Vec<SocketAddr>,
    config: ClientConfig,
    publisher: bool,
    /// The resumable-session credential from `HelloAck`.
    token: Option<u64>,
    /// Next publish sequence number (sequences start at 1).
    next_seq: u64,
    /// Highest sequence the server has acknowledged.
    last_acked: u64,
    /// Publishes written but not yet acked, oldest first.
    unacked: VecDeque<PendingPublish>,
    subscribed: bool,
    /// Next result-frame sequence this subscriber expects — the `from`
    /// of a resubscribe.
    results_from: u64,
    /// Backoff jitter source.
    rng: StdRng,
}

/// Shared state between a publisher [`Client`] and its heartbeat timer.
struct HeartbeatState {
    /// The publisher's event-time clock: the highest timestamp published
    /// on this connection, ratcheted further by
    /// [`Client::advance_watermark`]. Zero means "no clock yet" — the
    /// timer stays silent.
    clock: AtomicU64,
    /// Highest watermark already advertised (by the timer or a manual
    /// [`Client::heartbeat`]); the timer only speaks when the clock
    /// moves past this.
    advertised: AtomicU64,
    /// Set by [`Client::finish`] (and drop) before the Finish frame goes
    /// out, so the timer never heartbeats a finished publisher.
    stop: AtomicBool,
}

/// One connection to an ingest server.
pub struct Client {
    conn: Arc<Mutex<Conn>>,
    client_id: u64,
    /// Present on publisher connections with the background timer.
    heartbeat: Option<Arc<HeartbeatState>>,
}

impl Client {
    /// Connect in the publisher role: this connection participates in
    /// end-of-stream accounting and must eventually [`Client::finish`].
    /// Runs the background heartbeat timer (see the module docs); use
    /// [`Client::publisher_manual`] to opt out.
    pub fn publisher(addr: impl ToSocketAddrs) -> ClientResult<Client> {
        Client::publisher_with(addr, ClientConfig::default())
    }

    /// [`Client::publisher`] with explicit robustness knobs.
    pub fn publisher_with(addr: impl ToSocketAddrs, config: ClientConfig) -> ClientResult<Client> {
        let mut c = Client::connect(addr, true, config)?;
        let state = Arc::new(HeartbeatState {
            clock: AtomicU64::new(0),
            advertised: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });
        let weak = Arc::downgrade(&c.conn);
        let thread_state = state.clone();
        std::thread::spawn(move || heartbeat_loop(weak, thread_state));
        c.heartbeat = Some(state);
        Ok(c)
    }

    /// Connect in the publisher role without the background heartbeat
    /// timer: the application owns all watermark advertisement via
    /// [`Client::heartbeat`].
    pub fn publisher_manual(addr: impl ToSocketAddrs) -> ClientResult<Client> {
        Client::connect(addr, true, ClientConfig::default())
    }

    /// [`Client::publisher_manual`] with explicit robustness knobs.
    pub fn publisher_manual_with(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
    ) -> ClientResult<Client> {
        Client::connect(addr, true, config)
    }

    /// Connect in the subscriber role and subscribe to the query's sink
    /// streams; read with [`Client::next_event`].
    pub fn subscriber(addr: impl ToSocketAddrs) -> ClientResult<Client> {
        Client::subscriber_with(addr, ClientConfig::default())
    }

    /// [`Client::subscriber`] with explicit robustness knobs.
    pub fn subscriber_with(addr: impl ToSocketAddrs, config: ClientConfig) -> ClientResult<Client> {
        let mut c = Client::connect(addr, false, config)?;
        c.subscribe()?;
        Ok(c)
    }

    fn connect(
        addr: impl ToSocketAddrs,
        publisher: bool,
        config: ClientConfig,
    ) -> ClientResult<Client> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let stream = dial(&addrs, &config)?;
        let seed = config.backoff_seed.unwrap_or_else(|| {
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
                .unwrap_or(0x5EED)
        });
        let mut conn = Conn {
            stream,
            queued: VecDeque::new(),
            addrs,
            config,
            publisher,
            token: None,
            next_seq: 1,
            last_acked: 0,
            unacked: VecDeque::new(),
            subscribed: false,
            results_from: 0,
            rng: StdRng::seed_from_u64(seed),
        };
        protocol::write_request(&mut conn.stream, &Request::Hello { publisher })?;
        match await_reply(&mut conn)? {
            Response::HelloAck { client_id, token } => {
                conn.token = token;
                Ok(Client {
                    conn: Arc::new(Mutex::new(conn)),
                    client_id,
                    heartbeat: None,
                })
            }
            other => Err(unexpected(other)),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Conn> {
        // A panic mid-reply on another thread leaves the stream out of
        // frame sync anyway; inheriting the poisoned state's data is the
        // best a sync client can do.
        match self.conn.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The server-assigned connection id (of the first connection; it
    /// does not change across resumes).
    pub fn client_id(&self) -> u64 {
        self.client_id
    }

    /// Bound how long reads may block (tests use this to fail instead of
    /// hanging when a server drops the ball). `None` blocks forever.
    /// Remembered across reconnects.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> ClientResult<()> {
        let mut conn = self.lock();
        conn.config.read_timeout = timeout;
        conn.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    /// Append tuples to the named source stream (input `port` of the
    /// source's entry operator; 0 for unary entries). Blocks until the
    /// server acknowledges; returns the accepted tuple count. Ratchets
    /// the auto-heartbeat clock to the batch's highest timestamp. With
    /// reconnection enabled, a connection loss here is healed by
    /// resume-and-replay — the server applies this batch exactly once.
    pub fn publish(&mut self, source: &str, port: u16, tuples: &[Tuple]) -> ClientResult<usize> {
        let max_ts = tuples.iter().map(|t| t.ts).max();
        let mut conn = self.lock();
        let seq = conn.next_seq;
        conn.next_seq += 1;
        let mut frame = Vec::new();
        protocol::write_publish(&mut frame, source, port, Some(seq), tuples)?;
        conn.unacked.push_back(PendingPublish {
            seq,
            count: tuples.len() as u32,
            frame,
        });
        let count = flush_unacked(&mut conn)?;
        drop(conn);
        if let (Some(state), Some(ts)) = (&self.heartbeat, max_ts) {
            state.clock.fetch_max(ts, Ordering::AcqRel);
            // Published data already carries this watermark to the
            // merge; no need for the timer to repeat it.
            state.advertised.fetch_max(ts, Ordering::AcqRel);
        }
        Ok(count)
    }

    /// Subscribe this connection to the query's sink streams.
    pub fn subscribe(&mut self) -> ClientResult<()> {
        let mut conn = self.lock();
        protocol::write_request(&mut conn.stream, &Request::Subscribe { from: None })?;
        match await_reply(&mut conn)? {
            Response::Ack { .. } => {
                conn.subscribed = true;
                Ok(())
            }
            other => Err(unexpected(other)),
        }
    }

    /// Declare end of stream for this publisher. Once every publisher
    /// has finished, the server flushes the query and streams the final
    /// windows to subscribers. Stops the auto-heartbeat timer first, so
    /// no heartbeat can trail the Finish frame.
    pub fn finish(&mut self) -> ClientResult<()> {
        if let Some(state) = &self.heartbeat {
            state.stop.store(true, Ordering::Release);
        }
        let mut conn = self.lock();
        loop {
            let attempt = (|conn: &mut Conn| -> ClientResult<()> {
                protocol::write_request(&mut conn.stream, &Request::Finish)?;
                match await_reply(conn)? {
                    Response::Ack { .. } => Ok(()),
                    other => Err(unexpected(other)),
                }
            })(&mut conn);
            match attempt {
                Ok(()) => return Ok(()),
                Err(e) if conn.config.reconnect && is_connection_loss(&e) => {
                    reestablish(&mut conn, e)?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Advance this publisher's event-time clock without publishing or
    /// blocking: a promise that nothing older than `watermark` will ever
    /// be published here. The background timer advertises the new clock
    /// to the server on its next tick — the non-blocking analogue of
    /// [`Client::heartbeat`], and the one call an idle publisher needs
    /// so it stops delaying everyone else's results. No-op on
    /// connections without the timer (use [`Client::heartbeat`] there).
    pub fn advance_watermark(&self, watermark: u64) {
        if let Some(state) = &self.heartbeat {
            state.clock.fetch_max(watermark, Ordering::AcqRel);
        }
    }

    /// Promise the server that this publisher will publish nothing
    /// older than `watermark` — the idle-but-alive signal, sent
    /// synchronously. A publisher that goes quiet while others keep
    /// publishing stalls the server's timestamp merge (results are
    /// gated on every unfinished publisher's progress); advertising the
    /// current event-time clock keeps results flowing. Publishing a
    /// tuple older than an advertised watermark afterwards violates the
    /// ts-ordered stream contract, exactly as publishing out of order
    /// would. Publishers with the background timer can use the
    /// non-blocking [`Client::advance_watermark`] instead.
    pub fn heartbeat(&mut self, watermark: u64) -> ClientResult<()> {
        let mut conn = self.lock();
        protocol::write_request(&mut conn.stream, &Request::Heartbeat { watermark })?;
        match await_reply(&mut conn)? {
            Response::Ack { .. } => {
                drop(conn);
                if let Some(state) = &self.heartbeat {
                    state.clock.fetch_max(watermark, Ordering::AcqRel);
                    state.advertised.fetch_max(watermark, Ordering::AcqRel);
                }
                Ok(())
            }
            other => Err(unexpected(other)),
        }
    }

    /// Snapshot the server's full metrics registry: every `engine_*`
    /// and `server_*` counter/gauge/histogram/sketch as typed
    /// [`MetricSnapshot`]s (sorted by family then labels) plus the
    /// Prometheus-style text exposition rendered server-side.
    /// Per-operator counters are the `engine_op_*` families.
    pub fn stats_v2(&mut self) -> ClientResult<(Vec<MetricSnapshot>, String)> {
        let mut conn = self.lock();
        protocol::write_request(&mut conn.stream, &Request::StatsV2)?;
        match await_reply(&mut conn)? {
            Response::StatsV2 { metrics, text } => Ok((metrics, text)),
            other => Err(unexpected(other)),
        }
    }

    /// Fetch the live EXPLAIN ANALYZE report: the static plan topology
    /// annotated with per-stage routing/skew/lag and per-operator
    /// counters, assembled server-side from the same cells the engine
    /// bumps. Render with [`PlanReport::render`].
    pub fn explain(&mut self) -> ClientResult<PlanReport> {
        let mut conn = self.lock();
        protocol::write_request(&mut conn.stream, &Request::Explain)?;
        match await_reply(&mut conn)? {
            Response::Explain(report) => Ok(report),
            other => Err(unexpected(other)),
        }
    }

    /// Evaluate the server's health checks now and fetch the typed
    /// report (overall status, per-check findings, evaluation count).
    pub fn health(&mut self) -> ClientResult<HealthReport> {
        let mut conn = self.lock();
        protocol::write_request(&mut conn.stream, &Request::Health)?;
        match await_reply(&mut conn)? {
            Response::Health(report) => Ok(report),
            other => Err(unexpected(other)),
        }
    }

    /// Fetch the newest `n` structured journal events (oldest first)
    /// plus the journal's lifetime recorded count — the tail of the
    /// merged engine + serving event sequence.
    pub fn journal_tail(&mut self, n: u32) -> ClientResult<(u64, Vec<TraceEvent>)> {
        let mut conn = self.lock();
        protocol::write_request(&mut conn.stream, &Request::JournalTail { n })?;
        match await_reply(&mut conn)? {
            Response::JournalTail { recorded, events } => Ok((recorded, events)),
            other => Err(unexpected(other)),
        }
    }

    /// Next streamed event (subscribers). Blocks until a result batch,
    /// gap notice, or EOS arrives. Holds the connection for the wait, so
    /// a combined publisher+subscriber connection pauses its heartbeat
    /// timer while blocked here (the timer skips contended ticks). With
    /// reconnection enabled, a connection loss here resubscribes from
    /// the next expected result sequence.
    pub fn next_event(&mut self) -> ClientResult<Event> {
        let mut conn = self.lock();
        loop {
            if let Some(ev) = conn.queued.pop_front() {
                return Ok(ev);
            }
            let read = read_event(&mut conn);
            match read {
                Ok(ev) => return Ok(ev),
                Err(e) if conn.subscribed && conn.config.reconnect && is_connection_loss(&e) => {
                    reestablish(&mut conn, e)?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Collect streamed results until EOS, concatenated per sink index
    /// in arrival order — the convenient shape for tests and examples.
    /// [`Event::Gap`] notices are skipped (lossy subscriptions know what
    /// they signed up for); use [`Client::next_event`] to observe them.
    pub fn collect_until_eos(&mut self) -> ClientResult<Vec<(usize, Vec<Tuple>)>> {
        let mut per_sink: Vec<(usize, Vec<Tuple>)> = Vec::new();
        loop {
            match self.next_event()? {
                Event::Results { sink, tuples } => {
                    match per_sink.iter_mut().find(|(s, _)| *s == sink) {
                        Some((_, bucket)) => bucket.extend(tuples),
                        None => per_sink.push((sink, tuples)),
                    }
                }
                Event::Gap { .. } => {}
                Event::Eos => return Ok(per_sink),
            }
        }
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        if let Some(state) = &self.heartbeat {
            state.stop.store(true, Ordering::Release);
        }
    }
}

/// Dial the first reachable address within the configured timeout and
/// apply the socket options: the timeouts, and `TCP_NODELAY` — every
/// request is one frame in one write answered by one frame, so Nagle's
/// hold-back would only ever wait out the server's delayed ACK.
fn dial(addrs: &[SocketAddr], config: &ClientConfig) -> ClientResult<TcpStream> {
    let mut last: Option<std::io::Error> = None;
    for addr in addrs {
        match TcpStream::connect_timeout(addr, config.connect_timeout) {
            Ok(stream) => {
                stream.set_nodelay(true)?;
                stream.set_read_timeout(config.read_timeout)?;
                stream.set_write_timeout(config.write_timeout)?;
                return Ok(stream);
            }
            Err(e) => last = Some(e),
        }
    }
    Err(last
        .map(ClientError::from)
        .unwrap_or(ClientError::Wire(WireError::Io(
            std::io::ErrorKind::AddrNotAvailable,
        ))))
}

/// Write every unacked publish in sequence order and await one ack per
/// frame, healing connection losses by reestablishing (which drops the
/// server-acked prefix) and retrying. Returns the accepted count of the
/// *last* pending publish — the one the caller just queued. When a
/// resume reveals the server already applied that frame (its ack was
/// lost in flight), the locally recorded tuple count stands in for the
/// ack that never arrived.
fn flush_unacked(conn: &mut Conn) -> ClientResult<usize> {
    let own = conn.unacked.back().map(|p| p.count as usize).unwrap_or(0);
    loop {
        let attempt = try_flush(conn);
        match attempt {
            Ok(Some(count)) => return Ok(count),
            Ok(None) => return Ok(own),
            Err(e) if conn.config.reconnect && is_connection_loss(&e) => {
                reestablish(conn, e)?;
            }
            Err(e) => return Err(e),
        }
    }
}

/// One pass over the unacked queue; `Ok(None)` means the queue drained
/// without any ack arriving on this pass (everything was dropped by a
/// resume's high-water mark).
fn try_flush(conn: &mut Conn) -> ClientResult<Option<usize>> {
    let mut count = None;
    while let Some(pending) = conn.unacked.front() {
        let seq = pending.seq;
        conn.stream
            .write_all(&pending.frame)
            .and_then(|_| conn.stream.flush())
            .map_err(ClientError::from)?;
        match await_reply(conn) {
            Ok(Response::Ack { count: c }) => {
                count = Some(c as usize);
                conn.unacked.pop_front();
                conn.last_acked = conn.last_acked.max(seq);
            }
            Ok(other) => return Err(unexpected(other)),
            Err(e) => {
                // A typed server refusal is this publish's final answer:
                // drop the refused frame, and — since a refusal never
                // consumes a sequence number on the server — give the
                // number back so the next publish lines up. (Safe:
                // publish is synchronous, so the refused frame is always
                // the only and newest unacked entry.)
                if matches!(e, ClientError::Server { .. }) {
                    conn.unacked.pop_front();
                    if conn.unacked.is_empty() && seq == conn.next_seq - 1 {
                        conn.next_seq -= 1;
                    }
                }
                return Err(e);
            }
        }
    }
    Ok(count)
}

/// Redial with capped exponential backoff + jitter, resume the
/// publisher session (dropping publishes the server already applied)
/// and/or resubscribe from the next expected result sequence. Returns
/// the original `cause` when every retry fails; a typed server refusal
/// (e.g. an expired lease) surfaces immediately.
fn reestablish(conn: &mut Conn, cause: ClientError) -> ClientResult<()> {
    if conn.publisher && conn.token.is_none() {
        // Nothing to resume onto (a pre-lease server): healing would
        // fork a new merge slot and corrupt EOS accounting.
        return Err(cause);
    }
    let mut last = cause;
    for attempt in 0..conn.config.max_retries {
        std::thread::sleep(backoff_delay(
            &mut conn.rng,
            conn.config.backoff_base,
            conn.config.backoff_cap,
            attempt,
        ));
        match try_reestablish(conn) {
            Ok(()) => return Ok(()),
            Err(e)
                if is_connection_loss(&e) || matches!(e, ClientError::Wire(WireError::Io(_))) =>
            {
                last = e;
            }
            Err(e) => return Err(e),
        }
    }
    Err(last)
}

fn backoff_delay(rng: &mut StdRng, base: Duration, cap: Duration, attempt: u32) -> Duration {
    let exp = base.saturating_mul(1u32 << attempt.min(16));
    let capped = exp.min(cap);
    // Jitter in [0.5, 1.0]× so synchronized clients fan out.
    capped.mul_f64(0.5 + 0.5 * rng.gen::<f64>())
}

fn try_reestablish(conn: &mut Conn) -> ClientResult<()> {
    let mut stream = dial(&conn.addrs, &conn.config)?;
    if conn.publisher {
        let token = conn.token.expect("checked by reestablish");
        protocol::write_request(
            &mut stream,
            &Request::Resume {
                token,
                last_acked_seq: conn.last_acked,
            },
        )?;
        match await_reply_on(&mut stream, conn)? {
            Response::ResumeOk { last_seq, .. } => {
                // Drop what the server already applied (acks lost in
                // flight); everything after it will be replayed.
                while conn.unacked.front().is_some_and(|p| p.seq <= last_seq) {
                    conn.unacked.pop_front();
                }
                conn.last_acked = conn.last_acked.max(last_seq);
            }
            other => return Err(unexpected(other)),
        }
    } else {
        protocol::write_request(&mut stream, &Request::Hello { publisher: false })?;
        match await_reply_on(&mut stream, conn)? {
            Response::HelloAck { .. } => {}
            other => return Err(unexpected(other)),
        }
    }
    if conn.subscribed {
        protocol::write_request(
            &mut stream,
            &Request::Subscribe {
                from: Some(conn.results_from),
            },
        )?;
        match await_reply_on(&mut stream, conn)? {
            Response::Ack { .. } => {}
            other => return Err(unexpected(other)),
        }
    }
    conn.stream = stream;
    Ok(())
}

/// Read frames until a non-stream reply arrives, queueing any
/// `Results`/`Gap`/`Eos` pushed in between.
fn await_reply(conn: &mut Conn) -> ClientResult<Response> {
    let mut stream = conn.stream.try_clone()?;
    await_reply_on(&mut stream, conn)
}

/// [`await_reply`] against an explicit stream (used mid-reestablish,
/// when the replacement socket is not yet installed in `conn`).
fn await_reply_on(stream: &mut TcpStream, conn: &mut Conn) -> ClientResult<Response> {
    loop {
        match protocol::read_response(stream)? {
            Response::Results { sink, seq, tuples } => {
                if let Some(seq) = seq {
                    conn.results_from = conn.results_from.max(seq + 1);
                }
                conn.queued.push_back(Event::Results {
                    sink: sink as usize,
                    tuples,
                });
            }
            Response::Gap { missed } => conn.queued.push_back(Event::Gap { missed }),
            Response::Eos => conn.queued.push_back(Event::Eos),
            Response::Error { code, message } => return Err(ClientError::Server { code, message }),
            reply => return Ok(reply),
        }
    }
}

/// Read the next subscriber event off the wire (no queue check — the
/// caller does that).
fn read_event(conn: &mut Conn) -> ClientResult<Event> {
    let mut stream = conn.stream.try_clone()?;
    match protocol::read_response(&mut stream)? {
        Response::Results { sink, seq, tuples } => {
            if let Some(seq) = seq {
                conn.results_from = conn.results_from.max(seq + 1);
            }
            Ok(Event::Results {
                sink: sink as usize,
                tuples,
            })
        }
        Response::Gap { missed } => Ok(Event::Gap { missed }),
        Response::Eos => Ok(Event::Eos),
        Response::Error { code, message } => Err(ClientError::Server { code, message }),
        other => Err(unexpected(other)),
    }
}

/// The background heartbeat timer: whenever the publisher's clock moves
/// past the last advertised watermark, send one heartbeat. Exits when
/// the client finishes, drops, or the connection errors in a
/// non-recoverable way; a connection loss just skips the tick (the
/// application path owns reconnection, and its next call will heal the
/// stream this timer shares).
fn heartbeat_loop(weak: Weak<Mutex<Conn>>, state: Arc<HeartbeatState>) {
    loop {
        std::thread::sleep(HEARTBEAT_TICK);
        if state.stop.load(Ordering::Acquire) {
            return;
        }
        let clock = state.clock.load(Ordering::Acquire);
        if clock == 0 || clock <= state.advertised.load(Ordering::Acquire) {
            continue;
        }
        let Some(conn) = weak.upgrade() else { return };
        let mut conn = match conn.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => continue,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
        };
        if state.stop.load(Ordering::Acquire) {
            return;
        }
        if protocol::write_request(&mut conn.stream, &Request::Heartbeat { watermark: clock })
            .is_err()
        {
            if conn.config.reconnect {
                continue; // the app path will heal the stream
            }
            return;
        }
        match await_reply(&mut conn) {
            Ok(Response::Ack { .. }) => {
                state.advertised.fetch_max(clock, Ordering::AcqRel);
            }
            Err(e) if conn.config.reconnect && is_connection_loss(&e) => continue,
            // Any other outcome (typed error, timeout) means this
            // connection no longer wants heartbeats; the application's
            // own calls surface the real condition.
            _ => return,
        }
    }
}

fn unexpected(resp: Response) -> ClientError {
    ClientError::UnexpectedResponse(format!("{resp:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChaosProxy, Fault, ServedQuery, Server};
    use ustream_core::ops::Passthrough;
    use ustream_core::query::QueryGraph;
    use ustream_core::schema::{DataType, Schema};
    use ustream_core::Value;

    #[test]
    fn dialled_sockets_disable_nagle_on_connect_and_reconnect() {
        let mut g = QueryGraph::new();
        let node = g.add(Box::new(Passthrough::new("sink")));
        g.source("in", node);
        g.sink(node);
        let server = Server::serve("127.0.0.1:0", ServedQuery::new(g)).unwrap();
        // Connection 0 dies before its second frame (the first publish),
        // so that publish goes out on a redialled socket.
        let proxy = ChaosProxy::scripted(server.addr(), vec![vec![Fault::CutAtFrame { frame: 1 }]])
            .unwrap();
        let config = ClientConfig {
            backoff_seed: Some(7),
            ..ClientConfig::default()
        };
        let mut client = Client::publisher_manual_with(proxy.addr(), config).unwrap();
        assert!(client.lock().stream.nodelay().unwrap(), "connect");

        let schema = Schema::builder().field("v", DataType::Int).build();
        let tuple = Tuple::new(schema, vec![Value::Int(1)], 1);
        assert_eq!(client.publish("in", 0, &[tuple]).unwrap(), 1);
        assert_eq!(proxy.connections(), 2, "the publish must have redialled");
        assert!(client.lock().stream.nodelay().unwrap(), "reconnect");

        client.finish().unwrap();
        drop(client);
        proxy.shutdown();
        server.shutdown();
    }
}
