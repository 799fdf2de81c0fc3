//! The client↔server message layer on top of the wire codec: typed
//! requests and responses, each carried in one framed payload.
//!
//! A connection speaks a strict request/response discipline with one
//! exception: once a client sends [`Request::Subscribe`], the server may
//! push [`Response::Results`] and [`Response::Eos`] frames at any time
//! (the connection becomes a result stream). Clients therefore treat
//! `Results`/`Eos` as events that may arrive while awaiting any reply.

use crate::wire::{self, put_str, read_frame, write_frame, Reader, WireError, WireResult};
use std::io::{Read, Write};
use ustream_core::Tuple;
use ustream_runtime::{OpReport, PlanReport, StageReport};
use ustream_telemetry::{
    HealthCheck, HealthReport, HealthStatus, HistogramSnapshot, MetricSnapshot, MetricValue,
    SketchSnapshot, TraceDetail, TraceEvent,
};

// Frame kinds. Requests have the high bit clear, responses set. 0x05
// and 0x86 (the retired per-operator `Stats` pair) stay unassigned and
// decode as unknown tags.
const KIND_HELLO: u8 = 0x01;
const KIND_PUBLISH: u8 = 0x02;
const KIND_SUBSCRIBE: u8 = 0x03;
const KIND_FINISH: u8 = 0x04;
const KIND_HEARTBEAT: u8 = 0x06;
const KIND_RESUME: u8 = 0x07;
const KIND_PUBLISH_SEQ: u8 = 0x08;
const KIND_STATS_V2: u8 = 0x09;
const KIND_EXPLAIN: u8 = 0x0A;
const KIND_HEALTH: u8 = 0x0B;
const KIND_JOURNAL_TAIL: u8 = 0x0C;
const KIND_HELLO_ACK: u8 = 0x81;
const KIND_ACK: u8 = 0x82;
const KIND_ERROR: u8 = 0x83;
const KIND_RESULTS: u8 = 0x84;
const KIND_EOS: u8 = 0x85;
const KIND_RESUME_OK: u8 = 0x87;
const KIND_GAP: u8 = 0x88;
const KIND_RESULTS_SEQ: u8 = 0x89;
const KIND_STATS_V2_REPLY: u8 = 0x8A;
const KIND_EXPLAIN_REPLY: u8 = 0x8B;
const KIND_HEALTH_REPLY: u8 = 0x8C;
const KIND_JOURNAL_REPLY: u8 = 0x8D;

// Metric-value tags inside a StatsV2 reply.
const METRIC_COUNTER: u8 = 0;
const METRIC_GAUGE: u8 = 1;
const METRIC_HISTOGRAM: u8 = 2;
const METRIC_SKETCH: u8 = 3;

/// What a client asks of the server. `P` is the decoded form of a
/// publish payload: rows for clients and tests ([`read_request`]), a
/// columnar [`Batch`](ustream_core::Batch) on the server
/// ([`read_request_with`] with [`wire::decode_batch`]).
#[derive(Debug, Clone)]
pub enum Request<P = Vec<Tuple>> {
    /// First frame on every connection. Publishers participate in
    /// end-of-stream accounting; subscribers do not.
    Hello { publisher: bool },
    /// Append tuples to the named source stream of the served query.
    ///
    /// `seq` is the per-publisher sequence number (starting at 1) that
    /// makes replay after a reconnect exactly-once: the server acks but
    /// does not re-apply a sequence it has already seen. `None` is the
    /// legacy (version-1) unsequenced publish, which bypasses dedup.
    Publish {
        source: String,
        port: u16,
        seq: Option<u64>,
        tuples: P,
    },
    /// Turn this connection into a result stream: every sink batch the
    /// engine produces from now on is pushed as a [`Response::Results`]
    /// frame, terminated by [`Response::Eos`]. `from: Some(seq)` asks
    /// the server to replay its bounded ring of already-broadcast result
    /// frames starting at that sequence number (a reconnecting
    /// subscriber passes one past the last frame it saw); frames that
    /// have aged out of the ring are summarized by a [`Response::Gap`].
    Subscribe { from: Option<u64> },
    /// This publisher is done; when every publisher has finished, the
    /// server flushes the query and streams the final windows.
    Finish,
    /// A publisher's idle-but-alive promise: it will publish nothing
    /// with `ts < watermark`. Advances the server's k-way timestamp
    /// merge without data, so a quiet publisher does not stall results
    /// for everyone else. Publishers that may go idle should send this
    /// periodically with their current clock.
    Heartbeat { watermark: u64 },
    /// Snapshot the server's full metrics registry: every engine and
    /// serving counter/gauge/histogram/sketch, typed, plus the
    /// Prometheus-style text exposition. Per-operator counters are the
    /// `engine_op_*` families.
    StatsV2,
    /// EXPLAIN ANALYZE the served query: the static shard-plan topology
    /// annotated with live per-stage and per-operator counters
    /// ([`ustream_runtime::PlanReport`]).
    Explain,
    /// Evaluate the server's health watchdog now and return the typed
    /// report (independent of the periodic background evaluation, but
    /// sharing its transition state).
    Health,
    /// The newest `n` events from the server's structured event
    /// journal, oldest first.
    JournalTail { n: u32 },
    /// Re-attach to a parked publisher session after a disconnect. The
    /// `token` came from [`Response::HelloAck`]; `last_acked_seq` is the
    /// highest publish sequence the client saw acked. The server answers
    /// [`Response::ResumeOk`] with its own high-water mark so the client
    /// can drop acked-but-unconfirmed buffered publishes before
    /// replaying the rest.
    Resume { token: u64, last_acked_seq: u64 },
}

/// Error categories a server can answer with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request frame could not be decoded.
    Malformed = 0,
    /// `Publish` named a source the query does not declare.
    UnknownSource = 1,
    /// The query already flushed; no more input is accepted.
    Finished = 2,
    /// The request was well-formed but illegal in this connection state.
    Protocol = 3,
    /// `Resume` presented a token whose lease already expired; the
    /// session's slot was released and cannot be re-attached.
    Expired = 4,
    /// A subscriber fell too far behind under the `Disconnect` policy
    /// and its result stream was severed.
    Lagging = 5,
}

impl ErrorCode {
    fn from_u8(tag: u8) -> WireResult<ErrorCode> {
        match tag {
            0 => Ok(ErrorCode::Malformed),
            1 => Ok(ErrorCode::UnknownSource),
            2 => Ok(ErrorCode::Finished),
            3 => Ok(ErrorCode::Protocol),
            4 => Ok(ErrorCode::Expired),
            5 => Ok(ErrorCode::Lagging),
            tag => Err(WireError::UnknownTag {
                what: "ErrorCode",
                tag,
            }),
        }
    }
}

/// What the server answers.
#[derive(Debug, Clone)]
pub enum Response {
    /// Reply to `Hello`: the server-assigned connection id, plus (for
    /// publishers) a session token to present in [`Request::Resume`]
    /// after a disconnect. Version-1 servers omit the token.
    HelloAck { client_id: u64, token: Option<u64> },
    /// Generic success; `count` echoes how many tuples were accepted for
    /// a publish (0 otherwise).
    Ack { count: u32 },
    /// Typed failure — the server's answer to malformed or illegal
    /// requests (it never just drops the connection, and never panics).
    Error { code: ErrorCode, message: String },
    /// A batch of result tuples from the sink with the given node index.
    /// `seq` numbers broadcast frames consecutively from 0 so a
    /// reconnecting subscriber can ask for a replay; `None` is the
    /// legacy unsequenced form.
    Results {
        sink: u32,
        seq: Option<u64>,
        tuples: Vec<Tuple>,
    },
    /// End of stream: the query flushed; no further results will come.
    Eos,
    /// Reply to `StatsV2`: the registry snapshot (typed, sorted by
    /// family then labels) plus its text exposition rendered
    /// server-side, so a scraper can forward `text` verbatim while a
    /// programmatic client works the typed list.
    StatsV2 {
        metrics: Vec<MetricSnapshot>,
        text: String,
    },
    /// Reply to `Explain`: the live plan report.
    Explain(PlanReport),
    /// Reply to `Health`: the watchdog's fresh evaluation.
    Health(HealthReport),
    /// Reply to `JournalTail`: the retained tail (oldest first) plus
    /// the journal's lifetime event count, so a client can tell how
    /// much history the bounded ring has already evicted.
    JournalTail {
        recorded: u64,
        events: Vec<TraceEvent>,
    },
    /// Reply to `Resume`: the session is re-attached. `last_seq` is the
    /// highest publish sequence the server has applied — the client must
    /// drop buffered publishes at or below it and replay the rest.
    ResumeOk { session_id: u64, last_seq: u64 },
    /// Pushed to a subscriber when result frames were dropped between
    /// the previous frame it saw and the next one (the `DropOldest`
    /// policy, or a replay request older than the ring). `missed` counts
    /// the dropped frames.
    Gap { missed: u64 },
}

/// Serialize and frame one publish without taking ownership of the
/// tuples — the client hot path ([`crate::Client::publish`] takes a
/// borrowed slice; cloning heavyweight `Updf` payloads just to build an
/// owned [`Request`] would dominate the codec cost).
pub fn write_publish<W: Write>(
    w: &mut W,
    source: &str,
    port: u16,
    seq: Option<u64>,
    tuples: &[Tuple],
) -> WireResult<()> {
    let mut payload = Vec::new();
    let kind = match seq {
        Some(seq) => {
            payload.extend_from_slice(&seq.to_be_bytes());
            KIND_PUBLISH_SEQ
        }
        None => KIND_PUBLISH,
    };
    put_str(&mut payload, source);
    payload.extend_from_slice(&port.to_be_bytes());
    wire::encode_tuples(&mut payload, tuples);
    write_frame(w, kind, &payload)
}

/// Serialize and frame one request into `w`.
pub fn write_request<W: Write>(w: &mut W, req: &Request) -> WireResult<()> {
    let mut payload = Vec::new();
    let kind = match req {
        Request::Hello { publisher } => {
            payload.push(*publisher as u8);
            KIND_HELLO
        }
        Request::Publish {
            source,
            port,
            seq,
            tuples,
        } => return write_publish(w, source, *port, *seq, tuples),
        Request::Subscribe { from } => {
            // Length-discriminated: an empty payload is the version-1
            // subscribe; 8 bytes carry the replay-from sequence.
            if let Some(from) = from {
                payload.extend_from_slice(&from.to_be_bytes());
            }
            KIND_SUBSCRIBE
        }
        Request::Finish => KIND_FINISH,
        Request::Heartbeat { watermark } => {
            payload.extend_from_slice(&watermark.to_be_bytes());
            KIND_HEARTBEAT
        }
        Request::StatsV2 => KIND_STATS_V2,
        Request::Explain => KIND_EXPLAIN,
        Request::Health => KIND_HEALTH,
        Request::JournalTail { n } => {
            payload.extend_from_slice(&n.to_be_bytes());
            KIND_JOURNAL_TAIL
        }
        Request::Resume {
            token,
            last_acked_seq,
        } => {
            payload.extend_from_slice(&token.to_be_bytes());
            payload.extend_from_slice(&last_acked_seq.to_be_bytes());
            KIND_RESUME
        }
    };
    write_frame(w, kind, &payload)
}

/// Read and decode one request frame from `r`, publish payloads as
/// rows.
pub fn read_request<R: Read>(r: &mut R) -> WireResult<Request> {
    read_request_with(r, wire::decode_tuples)
}

/// Read and decode one request frame from `r`, decoding a publish
/// payload with `decode` (the server passes [`wire::decode_batch`], so a
/// publish lands in columns straight off the socket). Everything else
/// decodes exactly as in [`read_request`].
pub fn read_request_with<R: Read, P>(
    r: &mut R,
    decode: fn(&mut Reader<'_>) -> WireResult<P>,
) -> WireResult<Request<P>> {
    let (kind, payload) = read_frame(r)?;
    let mut rd = Reader::new(&payload);
    let req = match kind {
        KIND_HELLO => Request::Hello {
            publisher: rd.u8()? != 0,
        },
        KIND_PUBLISH => {
            let source = rd.str()?;
            let port = rd.u16()?;
            let tuples = decode(&mut rd)?;
            Request::Publish {
                source,
                port,
                seq: None,
                tuples,
            }
        }
        KIND_PUBLISH_SEQ => {
            let seq = rd.u64()?;
            let source = rd.str()?;
            let port = rd.u16()?;
            let tuples = decode(&mut rd)?;
            Request::Publish {
                source,
                port,
                seq: Some(seq),
                tuples,
            }
        }
        KIND_SUBSCRIBE => Request::Subscribe {
            from: if rd.remaining() == 0 {
                None
            } else {
                Some(rd.u64()?)
            },
        },
        KIND_FINISH => Request::Finish,
        KIND_HEARTBEAT => Request::Heartbeat {
            watermark: rd.u64()?,
        },
        KIND_STATS_V2 => Request::StatsV2,
        KIND_EXPLAIN => Request::Explain,
        KIND_HEALTH => Request::Health,
        KIND_JOURNAL_TAIL => Request::JournalTail { n: rd.u32()? },
        KIND_RESUME => Request::Resume {
            token: rd.u64()?,
            last_acked_seq: rd.u64()?,
        },
        tag => {
            return Err(WireError::UnknownTag {
                what: "Request",
                tag,
            })
        }
    };
    rd.finish()?;
    Ok(req)
}

/// Append one registry metric: family, labels, then a tagged value.
fn put_metric(out: &mut Vec<u8>, m: &MetricSnapshot) {
    put_str(out, &m.family);
    out.extend_from_slice(&(m.labels.len() as u16).to_be_bytes());
    for (k, v) in &m.labels {
        put_str(out, k);
        put_str(out, v);
    }
    match &m.value {
        MetricValue::Counter(v) => {
            out.push(METRIC_COUNTER);
            out.extend_from_slice(&v.to_be_bytes());
        }
        MetricValue::Gauge(v) => {
            out.push(METRIC_GAUGE);
            out.extend_from_slice(&v.to_be_bytes());
        }
        MetricValue::Histogram(h) => {
            out.push(METRIC_HISTOGRAM);
            out.extend_from_slice(&(h.buckets.len() as u32).to_be_bytes());
            for (bound, count) in &h.buckets {
                out.extend_from_slice(&bound.to_be_bytes());
                out.extend_from_slice(&count.to_be_bytes());
            }
            out.extend_from_slice(&h.overflow.to_be_bytes());
            out.extend_from_slice(&h.sum.to_be_bytes());
            out.extend_from_slice(&h.count.to_be_bytes());
        }
        MetricValue::Sketch(s) => {
            out.push(METRIC_SKETCH);
            put_sketch(out, s);
        }
    }
}

/// Append one sketch snapshot: count + six `f64`s as raw bits (56
/// bytes, fixed).
fn put_sketch(out: &mut Vec<u8>, s: &SketchSnapshot) {
    out.extend_from_slice(&s.count.to_be_bytes());
    for v in [s.min, s.max, s.p50, s.p90, s.p95, s.p99] {
        out.extend_from_slice(&v.to_bits().to_be_bytes());
    }
}

fn read_sketch(rd: &mut Reader<'_>) -> WireResult<SketchSnapshot> {
    Ok(SketchSnapshot {
        count: rd.u64()?,
        min: rd.f64()?,
        max: rd.f64()?,
        p50: rd.f64()?,
        p90: rd.f64()?,
        p95: rd.f64()?,
        p99: rd.f64()?,
    })
}

fn read_metric(rd: &mut Reader<'_>) -> WireResult<MetricSnapshot> {
    let family = rd.str()?;
    let n_labels = rd.u16()? as usize;
    let mut labels = Vec::with_capacity(n_labels.min(64));
    for _ in 0..n_labels {
        labels.push((rd.str()?, rd.str()?));
    }
    let value = match rd.u8()? {
        METRIC_COUNTER => MetricValue::Counter(rd.u64()?),
        METRIC_GAUGE => MetricValue::Gauge(rd.i64()?),
        METRIC_HISTOGRAM => {
            let n = rd.u32()? as usize;
            let floor = n
                .checked_mul(16)
                .ok_or(WireError::InvalidPayload("length overflow"))?;
            if floor > rd.remaining() {
                return Err(WireError::Truncated {
                    needed: floor,
                    have: rd.remaining(),
                });
            }
            let mut buckets = Vec::with_capacity(n);
            for _ in 0..n {
                buckets.push((rd.u64()?, rd.u64()?));
            }
            MetricValue::Histogram(HistogramSnapshot {
                buckets,
                overflow: rd.u64()?,
                sum: rd.u64()?,
                count: rd.u64()?,
            })
        }
        METRIC_SKETCH => MetricValue::Sketch(read_sketch(rd)?),
        tag => {
            return Err(WireError::UnknownTag {
                what: "MetricValue",
                tag,
            })
        }
    };
    Ok(MetricSnapshot {
        family,
        labels,
        value,
    })
}

fn put_plan_report(out: &mut Vec<u8>, r: &PlanReport) {
    put_str(out, &r.topology);
    out.extend_from_slice(&r.batches_pushed.to_be_bytes());
    out.extend_from_slice(&r.tuples_pushed.to_be_bytes());
    out.extend_from_slice(&r.watermark_sealed.to_be_bytes());
    put_sketch(out, &r.lag_merged);
    out.extend_from_slice(&r.spans_recorded.to_be_bytes());
    out.extend_from_slice(&r.traces_sampled.to_be_bytes());
    out.extend_from_slice(&(r.stages.len() as u32).to_be_bytes());
    for s in &r.stages {
        out.extend_from_slice(&(s.stage as u32).to_be_bytes());
        out.extend_from_slice(&(s.routed.len() as u32).to_be_bytes());
        for &n in &s.routed {
            out.extend_from_slice(&n.to_be_bytes());
        }
        out.extend_from_slice(&s.exchange_forwarded.to_be_bytes());
        out.extend_from_slice(&s.eager_forwards.to_be_bytes());
        out.extend_from_slice(&s.interval_depth.to_be_bytes());
        out.extend_from_slice(&s.pool_depth.to_be_bytes());
        put_sketch(out, &s.lag);
        out.extend_from_slice(&s.skew.to_bits().to_be_bytes());
        out.extend_from_slice(&(s.ops.len() as u32).to_be_bytes());
        for op in &s.ops {
            put_str(out, &op.op);
            out.extend_from_slice(&(op.node as u32).to_be_bytes());
            out.extend_from_slice(&(op.stage as u32).to_be_bytes());
            out.extend_from_slice(&(op.shard as u32).to_be_bytes());
            for v in [
                op.tuples_in,
                op.tuples_out,
                op.batches,
                op.busy_ns,
                op.columnar_batches,
                op.row_batches,
                op.row_windows,
            ] {
                out.extend_from_slice(&v.to_be_bytes());
            }
        }
    }
}

fn read_plan_report(rd: &mut Reader<'_>) -> WireResult<PlanReport> {
    let topology = rd.str()?;
    let batches_pushed = rd.u64()?;
    let tuples_pushed = rd.u64()?;
    let watermark_sealed = rd.i64()?;
    let lag_merged = read_sketch(rd)?;
    let spans_recorded = rd.u64()?;
    let traces_sampled = rd.u64()?;
    let n_stages = rd.u32()? as usize;
    // Each stage is at least 108 bytes (ids + counters + one sketch).
    let floor = n_stages
        .checked_mul(108)
        .ok_or(WireError::InvalidPayload("length overflow"))?;
    if floor > rd.remaining() {
        return Err(WireError::Truncated {
            needed: floor,
            have: rd.remaining(),
        });
    }
    let mut stages = Vec::with_capacity(n_stages);
    for _ in 0..n_stages {
        let stage = rd.u32()? as usize;
        let n_shards = rd.u32()? as usize;
        let shard_floor = n_shards
            .checked_mul(8)
            .ok_or(WireError::InvalidPayload("length overflow"))?;
        if shard_floor > rd.remaining() {
            return Err(WireError::Truncated {
                needed: shard_floor,
                have: rd.remaining(),
            });
        }
        let mut routed = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            routed.push(rd.u64()?);
        }
        let exchange_forwarded = rd.u64()?;
        let eager_forwards = rd.u64()?;
        let interval_depth = rd.i64()?;
        let pool_depth = rd.i64()?;
        let lag = read_sketch(rd)?;
        let skew = rd.f64()?;
        let n_ops = rd.u32()? as usize;
        // Each op is at least 72 bytes (empty name + ids + 7 counters).
        let op_floor = n_ops
            .checked_mul(72)
            .ok_or(WireError::InvalidPayload("length overflow"))?;
        if op_floor > rd.remaining() {
            return Err(WireError::Truncated {
                needed: op_floor,
                have: rd.remaining(),
            });
        }
        let mut ops = Vec::with_capacity(n_ops);
        for _ in 0..n_ops {
            ops.push(OpReport {
                op: rd.str()?,
                node: rd.u32()? as usize,
                stage: rd.u32()? as usize,
                shard: rd.u32()? as usize,
                tuples_in: rd.u64()?,
                tuples_out: rd.u64()?,
                batches: rd.u64()?,
                busy_ns: rd.u64()?,
                columnar_batches: rd.u64()?,
                row_batches: rd.u64()?,
                row_windows: rd.u64()?,
            });
        }
        stages.push(StageReport {
            stage,
            routed,
            exchange_forwarded,
            eager_forwards,
            interval_depth,
            pool_depth,
            lag,
            skew,
            ops,
        });
    }
    Ok(PlanReport {
        topology,
        stages,
        batches_pushed,
        tuples_pushed,
        watermark_sealed,
        lag_merged,
        spans_recorded,
        traces_sampled,
    })
}

fn health_status(tag: u8) -> WireResult<HealthStatus> {
    HealthStatus::from_u8(tag).ok_or(WireError::UnknownTag {
        what: "HealthStatus",
        tag,
    })
}

fn put_health_report(out: &mut Vec<u8>, r: &HealthReport) {
    out.push(r.status.as_u8());
    out.extend_from_slice(&r.evaluations.to_be_bytes());
    out.extend_from_slice(&(r.checks.len() as u32).to_be_bytes());
    for c in &r.checks {
        put_str(out, &c.name);
        out.push(c.status.as_u8());
        out.extend_from_slice(&c.value.to_bits().to_be_bytes());
        out.extend_from_slice(&c.threshold.to_bits().to_be_bytes());
        put_str(out, &c.detail);
    }
}

fn read_health_report(rd: &mut Reader<'_>) -> WireResult<HealthReport> {
    let status = health_status(rd.u8()?)?;
    let evaluations = rd.u64()?;
    let n = rd.u32()? as usize;
    // Each check is at least 25 bytes (two empty strings + status +
    // two f64s).
    let floor = n
        .checked_mul(25)
        .ok_or(WireError::InvalidPayload("length overflow"))?;
    if floor > rd.remaining() {
        return Err(WireError::Truncated {
            needed: floor,
            have: rd.remaining(),
        });
    }
    let mut checks = Vec::with_capacity(n);
    for _ in 0..n {
        checks.push(HealthCheck {
            name: rd.str()?,
            status: health_status(rd.u8()?)?,
            value: rd.f64()?,
            threshold: rd.f64()?,
            detail: rd.str()?,
        });
    }
    Ok(HealthReport {
        status,
        checks,
        evaluations,
    })
}

// Journal-event detail tags inside a JournalTail reply.
const EVENT_BATCH_PUMPED: u8 = 0;
const EVENT_WINDOW_SEALED: u8 = 1;
const EVENT_SHARD_ROUTED: u8 = 2;
const EVENT_EXCHANGE_FORWARDED: u8 = 3;
const EVENT_LEASE_PARKED: u8 = 4;
const EVENT_LEASE_RESUMED: u8 = 5;
const EVENT_LEASE_EXPIRED: u8 = 6;
const EVENT_GAP_EMITTED: u8 = 7;
const EVENT_HEALTH_CHANGED: u8 = 8;

fn put_journal_event(out: &mut Vec<u8>, e: &TraceEvent) {
    out.extend_from_slice(&e.seq.to_be_bytes());
    match &e.detail {
        TraceDetail::BatchPumped { node, port, tuples } => {
            out.push(EVENT_BATCH_PUMPED);
            out.extend_from_slice(&(*node as u32).to_be_bytes());
            out.extend_from_slice(&(*port as u32).to_be_bytes());
            out.extend_from_slice(&(*tuples as u64).to_be_bytes());
        }
        TraceDetail::WindowSealed {
            stage,
            watermark,
            released,
        } => {
            out.push(EVENT_WINDOW_SEALED);
            out.extend_from_slice(&(*stage as u32).to_be_bytes());
            out.extend_from_slice(&watermark.to_be_bytes());
            out.extend_from_slice(&(*released as u64).to_be_bytes());
        }
        TraceDetail::ShardRouted {
            stage,
            shard,
            tuples,
        } => {
            out.push(EVENT_SHARD_ROUTED);
            out.extend_from_slice(&(*stage as u32).to_be_bytes());
            out.extend_from_slice(&(*shard as u32).to_be_bytes());
            out.extend_from_slice(&(*tuples as u64).to_be_bytes());
        }
        TraceDetail::ExchangeForwarded { stage, tuples } => {
            out.push(EVENT_EXCHANGE_FORWARDED);
            out.extend_from_slice(&(*stage as u32).to_be_bytes());
            out.extend_from_slice(&(*tuples as u64).to_be_bytes());
        }
        TraceDetail::LeaseParked { session } => {
            out.push(EVENT_LEASE_PARKED);
            out.extend_from_slice(&session.to_be_bytes());
        }
        TraceDetail::LeaseResumed { session } => {
            out.push(EVENT_LEASE_RESUMED);
            out.extend_from_slice(&session.to_be_bytes());
        }
        TraceDetail::LeaseExpired { session } => {
            out.push(EVENT_LEASE_EXPIRED);
            out.extend_from_slice(&session.to_be_bytes());
        }
        TraceDetail::GapEmitted { subscriber, missed } => {
            out.push(EVENT_GAP_EMITTED);
            out.extend_from_slice(&subscriber.to_be_bytes());
            out.extend_from_slice(&missed.to_be_bytes());
        }
        TraceDetail::HealthChanged { from, to } => {
            out.push(EVENT_HEALTH_CHANGED);
            out.push(from.as_u8());
            out.push(to.as_u8());
        }
    }
}

fn read_journal_event(rd: &mut Reader<'_>) -> WireResult<TraceEvent> {
    let seq = rd.u64()?;
    let detail = match rd.u8()? {
        EVENT_BATCH_PUMPED => TraceDetail::BatchPumped {
            node: rd.u32()? as usize,
            port: rd.u32()? as usize,
            tuples: rd.u64()? as usize,
        },
        EVENT_WINDOW_SEALED => TraceDetail::WindowSealed {
            stage: rd.u32()? as usize,
            watermark: rd.u64()?,
            released: rd.u64()? as usize,
        },
        EVENT_SHARD_ROUTED => TraceDetail::ShardRouted {
            stage: rd.u32()? as usize,
            shard: rd.u32()? as usize,
            tuples: rd.u64()? as usize,
        },
        EVENT_EXCHANGE_FORWARDED => TraceDetail::ExchangeForwarded {
            stage: rd.u32()? as usize,
            tuples: rd.u64()? as usize,
        },
        EVENT_LEASE_PARKED => TraceDetail::LeaseParked { session: rd.u64()? },
        EVENT_LEASE_RESUMED => TraceDetail::LeaseResumed { session: rd.u64()? },
        EVENT_LEASE_EXPIRED => TraceDetail::LeaseExpired { session: rd.u64()? },
        EVENT_GAP_EMITTED => TraceDetail::GapEmitted {
            subscriber: rd.u64()?,
            missed: rd.u64()?,
        },
        EVENT_HEALTH_CHANGED => TraceDetail::HealthChanged {
            from: health_status(rd.u8()?)?,
            to: health_status(rd.u8()?)?,
        },
        tag => {
            return Err(WireError::UnknownTag {
                what: "TraceDetail",
                tag,
            })
        }
    };
    Ok(TraceEvent { seq, detail })
}

/// Serialize and frame one `Results` push without taking ownership of
/// the tuples — the server broadcast path encodes each batch exactly
/// once and shares the bytes across subscribers.
pub fn write_results<W: Write>(
    w: &mut W,
    sink: u32,
    seq: Option<u64>,
    tuples: &[Tuple],
) -> WireResult<()> {
    let mut payload = Vec::new();
    let kind = match seq {
        Some(seq) => {
            payload.extend_from_slice(&seq.to_be_bytes());
            KIND_RESULTS_SEQ
        }
        None => KIND_RESULTS,
    };
    payload.extend_from_slice(&sink.to_be_bytes());
    wire::encode_tuples(&mut payload, tuples);
    write_frame(w, kind, &payload)
}

/// Serialize and frame one response into `w`.
pub fn write_response<W: Write>(w: &mut W, resp: &Response) -> WireResult<()> {
    let mut payload = Vec::new();
    let kind = match resp {
        Response::HelloAck { client_id, token } => {
            // Length-discriminated: 8 bytes is the version-1 ack, 16
            // bytes append the publisher session token.
            payload.extend_from_slice(&client_id.to_be_bytes());
            if let Some(token) = token {
                payload.extend_from_slice(&token.to_be_bytes());
            }
            KIND_HELLO_ACK
        }
        Response::Ack { count } => {
            payload.extend_from_slice(&count.to_be_bytes());
            KIND_ACK
        }
        Response::Error { code, message } => {
            payload.push(*code as u8);
            put_str(&mut payload, message);
            KIND_ERROR
        }
        Response::Results { sink, seq, tuples } => return write_results(w, *sink, *seq, tuples),
        Response::Eos => KIND_EOS,
        Response::StatsV2 { metrics, text } => {
            payload.extend_from_slice(&(metrics.len() as u32).to_be_bytes());
            for m in metrics {
                put_metric(&mut payload, m);
            }
            put_str(&mut payload, text);
            KIND_STATS_V2_REPLY
        }
        Response::ResumeOk {
            session_id,
            last_seq,
        } => {
            payload.extend_from_slice(&session_id.to_be_bytes());
            payload.extend_from_slice(&last_seq.to_be_bytes());
            KIND_RESUME_OK
        }
        Response::Gap { missed } => {
            payload.extend_from_slice(&missed.to_be_bytes());
            KIND_GAP
        }
        Response::Explain(report) => {
            put_plan_report(&mut payload, report);
            KIND_EXPLAIN_REPLY
        }
        Response::Health(report) => {
            put_health_report(&mut payload, report);
            KIND_HEALTH_REPLY
        }
        Response::JournalTail { recorded, events } => {
            payload.extend_from_slice(&recorded.to_be_bytes());
            payload.extend_from_slice(&(events.len() as u32).to_be_bytes());
            for e in events {
                put_journal_event(&mut payload, e);
            }
            KIND_JOURNAL_REPLY
        }
    };
    write_frame(w, kind, &payload)
}

/// Read and decode one response frame from `r`.
pub fn read_response<R: Read>(r: &mut R) -> WireResult<Response> {
    let (kind, payload) = read_frame(r)?;
    let mut rd = Reader::new(&payload);
    let resp = match kind {
        KIND_HELLO_ACK => {
            let client_id = rd.u64()?;
            let token = if rd.remaining() == 0 {
                None
            } else {
                Some(rd.u64()?)
            };
            Response::HelloAck { client_id, token }
        }
        KIND_ACK => Response::Ack { count: rd.u32()? },
        KIND_ERROR => Response::Error {
            code: ErrorCode::from_u8(rd.u8()?)?,
            message: rd.str()?,
        },
        KIND_RESULTS => {
            let sink = rd.u32()?;
            let tuples = wire::decode_tuples(&mut rd)?;
            Response::Results {
                sink,
                seq: None,
                tuples,
            }
        }
        KIND_RESULTS_SEQ => {
            let seq = rd.u64()?;
            let sink = rd.u32()?;
            let tuples = wire::decode_tuples(&mut rd)?;
            Response::Results {
                sink,
                seq: Some(seq),
                tuples,
            }
        }
        KIND_EOS => Response::Eos,
        KIND_RESUME_OK => Response::ResumeOk {
            session_id: rd.u64()?,
            last_seq: rd.u64()?,
        },
        KIND_GAP => Response::Gap { missed: rd.u64()? },
        KIND_STATS_V2_REPLY => {
            let n = rd.u32()? as usize;
            // Each metric is at least 15 bytes (empty family, no
            // labels, tag + the smallest 8-byte value).
            let floor = n
                .checked_mul(15)
                .ok_or(WireError::InvalidPayload("length overflow"))?;
            if floor > rd.remaining() {
                return Err(WireError::Truncated {
                    needed: floor,
                    have: rd.remaining(),
                });
            }
            let mut metrics = Vec::with_capacity(n);
            for _ in 0..n {
                metrics.push(read_metric(&mut rd)?);
            }
            let text = rd.str()?;
            Response::StatsV2 { metrics, text }
        }
        KIND_EXPLAIN_REPLY => Response::Explain(read_plan_report(&mut rd)?),
        KIND_HEALTH_REPLY => Response::Health(read_health_report(&mut rd)?),
        KIND_JOURNAL_REPLY => {
            let recorded = rd.u64()?;
            let n = rd.u32()? as usize;
            // Each event is at least 9 bytes (seq + detail tag).
            let floor = n
                .checked_mul(9)
                .ok_or(WireError::InvalidPayload("length overflow"))?;
            if floor > rd.remaining() {
                return Err(WireError::Truncated {
                    needed: floor,
                    have: rd.remaining(),
                });
            }
            let mut events = Vec::with_capacity(n);
            for _ in 0..n {
                events.push(read_journal_event(&mut rd)?);
            }
            Response::JournalTail { recorded, events }
        }
        tag => {
            return Err(WireError::UnknownTag {
                what: "Response",
                tag,
            })
        }
    };
    rd.finish()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use ustream_core::schema::{DataType, Schema};
    use ustream_core::Value;

    fn schema() -> Arc<Schema> {
        Schema::builder().field("v", DataType::Int).build()
    }

    fn roundtrip_req(req: Request) -> Request {
        let mut buf = Vec::new();
        write_request(&mut buf, &req).unwrap();
        read_request(&mut buf.as_slice()).unwrap()
    }

    fn roundtrip_resp(resp: Response) -> Response {
        let mut buf = Vec::new();
        write_response(&mut buf, &resp).unwrap();
        read_response(&mut buf.as_slice()).unwrap()
    }

    #[test]
    fn requests_roundtrip() {
        assert!(matches!(
            roundtrip_req(Request::Hello { publisher: true }),
            Request::Hello { publisher: true }
        ));
        assert!(matches!(
            roundtrip_req(Request::Subscribe { from: None }),
            Request::Subscribe { from: None }
        ));
        assert!(matches!(
            roundtrip_req(Request::Subscribe { from: Some(41) }),
            Request::Subscribe { from: Some(41) }
        ));
        assert!(matches!(roundtrip_req(Request::Finish), Request::Finish));
        assert!(matches!(roundtrip_req(Request::StatsV2), Request::StatsV2));
        assert!(matches!(
            roundtrip_req(Request::Heartbeat { watermark: 12345 }),
            Request::Heartbeat { watermark: 12345 }
        ));
        assert!(matches!(
            roundtrip_req(Request::Resume {
                token: 0xDEAD_BEEF,
                last_acked_seq: 7,
            }),
            Request::Resume {
                token: 0xDEAD_BEEF,
                last_acked_seq: 7,
            }
        ));
        let t = Tuple::new(schema(), vec![Value::Int(3)], 17);
        for seq in [None, Some(9u64)] {
            match roundtrip_req(Request::Publish {
                source: "in".into(),
                port: 1,
                seq,
                tuples: vec![t.clone()],
            }) {
                Request::Publish {
                    source,
                    port,
                    seq: back_seq,
                    tuples,
                } => {
                    assert_eq!(source, "in");
                    assert_eq!(port, 1);
                    assert_eq!(back_seq, seq);
                    assert_eq!(tuples[0].int("v").unwrap(), 3);
                    assert_eq!(tuples[0].lineage, t.lineage);
                }
                other => panic!("wrong decode: {other:?}"),
            }
        }
    }

    #[test]
    fn responses_roundtrip() {
        assert!(matches!(
            roundtrip_resp(Response::HelloAck {
                client_id: 9,
                token: None,
            }),
            Response::HelloAck {
                client_id: 9,
                token: None,
            }
        ));
        assert!(matches!(
            roundtrip_resp(Response::HelloAck {
                client_id: 9,
                token: Some(77),
            }),
            Response::HelloAck {
                client_id: 9,
                token: Some(77),
            }
        ));
        assert!(matches!(
            roundtrip_resp(Response::Ack { count: 4 }),
            Response::Ack { count: 4 }
        ));
        assert!(matches!(roundtrip_resp(Response::Eos), Response::Eos));
        assert!(matches!(
            roundtrip_resp(Response::ResumeOk {
                session_id: 5,
                last_seq: 12,
            }),
            Response::ResumeOk {
                session_id: 5,
                last_seq: 12,
            }
        ));
        assert!(matches!(
            roundtrip_resp(Response::Gap { missed: 3 }),
            Response::Gap { missed: 3 }
        ));
        match roundtrip_resp(Response::Error {
            code: ErrorCode::UnknownSource,
            message: "no such stream".into(),
        }) {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::UnknownSource);
                assert_eq!(message, "no such stream");
            }
            other => panic!("wrong decode: {other:?}"),
        }
        let t = Tuple::new(schema(), vec![Value::Int(1)], 2);
        for seq in [None, Some(6u64)] {
            match roundtrip_resp(Response::Results {
                sink: 3,
                seq,
                tuples: vec![t.clone()],
            }) {
                Response::Results {
                    sink,
                    seq: back_seq,
                    tuples,
                } => {
                    assert_eq!(sink, 3);
                    assert_eq!(back_seq, seq);
                    assert_eq!(tuples.len(), 1);
                }
                other => panic!("wrong decode: {other:?}"),
            }
        }
    }

    #[test]
    fn stats_v2_roundtrips_every_metric_kind() {
        assert!(matches!(roundtrip_req(Request::StatsV2), Request::StatsV2));
        let metrics = vec![
            MetricSnapshot {
                family: "engine_tuples_pushed_total".into(),
                labels: vec![],
                value: MetricValue::Counter(42),
            },
            MetricSnapshot {
                family: "engine_stage_pool_depth".into(),
                labels: vec![("stage".into(), "1".into())],
                value: MetricValue::Gauge(-3),
            },
            MetricSnapshot {
                family: "op_latency_ns".into(),
                labels: vec![("op".into(), "select".into()), ("shard".into(), "0".into())],
                value: MetricValue::Histogram(HistogramSnapshot {
                    buckets: vec![(1_000, 5), (10_000, 2)],
                    overflow: 1,
                    sum: 123_456,
                    count: 8,
                }),
            },
            MetricSnapshot {
                family: "engine_watermark_lag".into(),
                labels: vec![("stage".into(), "0".into())],
                value: MetricValue::Sketch(SketchSnapshot {
                    count: 100,
                    min: 0.5,
                    max: 99.5,
                    p50: 48.0,
                    p90: 90.25,
                    p95: 95.0,
                    p99: 99.0,
                }),
            },
        ];
        let text = "# TYPE engine_tuples_pushed_total counter\n\
                    engine_tuples_pushed_total 42\n";
        match roundtrip_resp(Response::StatsV2 {
            metrics: metrics.clone(),
            text: text.into(),
        }) {
            Response::StatsV2 {
                metrics: back,
                text: back_text,
            } => {
                assert_eq!(back, metrics);
                assert_eq!(back_text, text);
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    fn sample_sketch() -> SketchSnapshot {
        SketchSnapshot {
            count: 12,
            min: 1.0,
            max: 240.0,
            p50: 40.0,
            p90: 200.5,
            p95: 220.0,
            p99: 239.0,
        }
    }

    #[test]
    fn explain_roundtrips_the_full_report() {
        assert!(matches!(roundtrip_req(Request::Explain), Request::Explain));
        let report = PlanReport {
            topology: "stage 0: shard by key(k)\n  exchange -> stage 1\n".into(),
            stages: vec![
                StageReport {
                    stage: 0,
                    routed: vec![500, 480, 20],
                    exchange_forwarded: 0,
                    eager_forwards: 0,
                    interval_depth: 0,
                    pool_depth: 0,
                    lag: sample_sketch(),
                    skew: 1.5,
                    ops: vec![OpReport {
                        op: "select".into(),
                        node: 1,
                        stage: 0,
                        shard: 2,
                        tuples_in: 1000,
                        tuples_out: 700,
                        batches: 4,
                        busy_ns: 98_765,
                        columnar_batches: 3,
                        row_batches: 1,
                        row_windows: 2,
                    }],
                },
                StageReport {
                    stage: 1,
                    routed: vec![],
                    exchange_forwarded: 700,
                    eager_forwards: 9,
                    interval_depth: 3,
                    pool_depth: -2,
                    lag: SketchSnapshot {
                        count: 0,
                        min: 0.0,
                        max: 0.0,
                        p50: 0.0,
                        p90: 0.0,
                        p95: 0.0,
                        p99: 0.0,
                    },
                    skew: 0.0,
                    ops: vec![],
                },
            ],
            batches_pushed: 9,
            tuples_pushed: 1000,
            watermark_sealed: 170,
            lag_merged: sample_sketch(),
            spans_recorded: 31,
            traces_sampled: 3,
        };
        match roundtrip_resp(Response::Explain(report.clone())) {
            Response::Explain(back) => assert_eq!(back, report),
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn health_roundtrips_every_status() {
        assert!(matches!(roundtrip_req(Request::Health), Request::Health));
        let report = HealthReport {
            status: HealthStatus::Critical,
            checks: vec![
                HealthCheck {
                    name: "lag_slo".into(),
                    status: HealthStatus::Degraded,
                    value: 120.0,
                    threshold: 100.0,
                    detail: "stage 1 watermark-lag p99 over SLO".into(),
                },
                HealthCheck {
                    name: "stuck_stage".into(),
                    status: HealthStatus::Critical,
                    value: 5.0,
                    threshold: 0.0,
                    detail: "pool depth 5 with no seal progress".into(),
                },
            ],
            evaluations: 17,
        };
        match roundtrip_resp(Response::Health(report.clone())) {
            Response::Health(back) => assert_eq!(back, report),
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn journal_tail_roundtrips_every_detail_variant() {
        match roundtrip_req(Request::JournalTail { n: 64 }) {
            Request::JournalTail { n } => assert_eq!(n, 64),
            other => panic!("wrong decode: {other:?}"),
        }
        let details = vec![
            TraceDetail::BatchPumped {
                node: 1,
                port: 0,
                tuples: 128,
            },
            TraceDetail::WindowSealed {
                stage: 1,
                watermark: 500,
                released: 42,
            },
            TraceDetail::ShardRouted {
                stage: 0,
                shard: 3,
                tuples: 77,
            },
            TraceDetail::ExchangeForwarded {
                stage: 1,
                tuples: 9,
            },
            TraceDetail::LeaseParked { session: 11 },
            TraceDetail::LeaseResumed { session: 11 },
            TraceDetail::LeaseExpired { session: 12 },
            TraceDetail::GapEmitted {
                subscriber: 4,
                missed: 6,
            },
            TraceDetail::HealthChanged {
                from: HealthStatus::Healthy,
                to: HealthStatus::Degraded,
            },
        ];
        let events: Vec<TraceEvent> = details
            .into_iter()
            .enumerate()
            .map(|(i, detail)| TraceEvent {
                seq: 100 + i as u64,
                detail,
            })
            .collect();
        match roundtrip_resp(Response::JournalTail {
            recorded: 1000,
            events: events.clone(),
        }) {
            Response::JournalTail {
                recorded,
                events: back,
            } => {
                assert_eq!(recorded, 1000);
                assert_eq!(back, events);
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn oversized_counts_are_length_errors_not_allocations() {
        // Each hostile frame claims far more elements than its payload
        // could hold; the decoder must fail on the length floor before
        // reserving anything.
        let cases: [(u8, Vec<u8>); 3] = [
            // Explain: valid prefix, then stage count u32::MAX.
            (KIND_EXPLAIN_REPLY, {
                let mut p = Vec::new();
                put_str(&mut p, "");
                p.extend_from_slice(&[0u8; 24]); // batches/tuples/sealed
                put_sketch(&mut p, &sample_sketch());
                p.extend_from_slice(&[0u8; 16]); // spans/sampled
                p.extend_from_slice(&u32::MAX.to_be_bytes());
                p
            }),
            // Health: status + evaluations, then check count u32::MAX.
            (KIND_HEALTH_REPLY, {
                let mut p = vec![0u8];
                p.extend_from_slice(&[0u8; 8]);
                p.extend_from_slice(&u32::MAX.to_be_bytes());
                p
            }),
            // JournalTail: recorded, then event count u32::MAX.
            (KIND_JOURNAL_REPLY, {
                let mut p = Vec::new();
                p.extend_from_slice(&[0u8; 8]);
                p.extend_from_slice(&u32::MAX.to_be_bytes());
                p
            }),
        ];
        for (kind, payload) in cases {
            let mut buf = Vec::new();
            write_frame(&mut buf, kind, &payload).unwrap();
            assert!(
                matches!(
                    read_response(&mut buf.as_slice()),
                    Err(WireError::Truncated { .. })
                ),
                "kind {kind:#x} should truncate"
            );
        }
    }

    #[test]
    fn unknown_journal_detail_tag_is_typed() {
        let mut p = Vec::new();
        p.extend_from_slice(&[0u8; 8]); // recorded
        p.extend_from_slice(&1u32.to_be_bytes());
        p.extend_from_slice(&[0u8; 8]); // event seq
        p.push(0xEE); // bogus detail tag
        let mut buf = Vec::new();
        write_frame(&mut buf, KIND_JOURNAL_REPLY, &p).unwrap();
        assert!(matches!(
            read_response(&mut buf.as_slice()),
            Err(WireError::UnknownTag {
                what: "TraceDetail",
                tag: 0xEE,
            })
        ));
    }

    #[test]
    fn request_response_kinds_disjoint() {
        // A response frame fed to the request decoder is a typed error.
        let mut buf = Vec::new();
        write_response(&mut buf, &Response::Eos).unwrap();
        assert!(matches!(
            read_request(&mut buf.as_slice()),
            Err(WireError::UnknownTag {
                what: "Request",
                ..
            })
        ));
        // So is the retired `Stats` request kind.
        let mut buf = Vec::new();
        write_frame(&mut buf, 0x05, &[]).unwrap();
        assert!(matches!(
            read_request(&mut buf.as_slice()),
            Err(WireError::UnknownTag {
                what: "Request",
                tag: 5,
            })
        ));
    }
}
