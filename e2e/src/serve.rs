//! Driving a real `Server::serve` over loopback TCP through the real
//! `Client`: bring-up (what `setup_s` times), the two load shapes, and
//! the reconciliation of the generator's counts with the server's own.
//!
//! One sender (the calling thread) and one receiver thread; one
//! publisher connection and one subscriber connection.

use crate::digest::StreamDigest;
use crate::loadgen::{Lane, Pool, WINDOW_MS};
use crate::trace::Recorder;
use crate::workloads::{Served, JOIN_SHARDS, SATURATE_FRAME};
use std::time::{Duration, Instant};
use ustream_runtime::PlanReport;
use ustream_server::{Client, Event, ServedQuery, Server, ServerConfig, ServerHandle};
use ustream_telemetry::{MetricSnapshot, MetricValue};

/// Frames in the closed-loop pool (cycled; re-stamped per use).
const SATURATE_POOL_FRAMES: usize = 64;
/// Frames in the open-loop pool.
const PACED_POOL_FRAMES: usize = 16;
/// A paced frame that starts later than this after its due time counts
/// as late (a tenth of the period).
pub const LATE_MS: f64 = 10.0;

/// Print and leave. Used where a peer thread may be blocked on a socket
/// that will never speak again: unwinding would wait for it.
pub fn die(msg: &str) -> ! {
    eprintln!("e2e: {msg}");
    std::process::exit(1);
}

/// A server with both connections up and both input pools generated.
pub struct Live {
    pub handle: ServerHandle,
    pub publisher: Client,
    pub subscriber: Client,
    pub saturate_pool: Pool,
    pub paced_pool: Pool,
}

/// Everything `setup_s` covers: input generation, graph build,
/// `Server::serve`, and both connects (the subscriber first, so it
/// observes the whole run).
pub fn bring_up(w: &Served, seed: u64, trace_sample_every: u64) -> Result<Live, String> {
    let saturate_pool = Pool::generate(
        w.payload,
        seed,
        Lane::Saturate,
        SATURATE_POOL_FRAMES,
        SATURATE_FRAME,
        w.join,
    );
    let paced_pool = Pool::generate(
        w.payload,
        seed,
        Lane::Paced,
        PACED_POOL_FRAMES,
        w.paced_frame(),
        w.join,
    );
    let query = if w.join {
        let w = *w;
        ServedQuery::sharded(move || w.graph(), JOIN_SHARDS)
    } else {
        ServedQuery::new(w.graph())
    };
    let config = ServerConfig {
        trace_sample_every,
        trace_seed: seed,
        ..ServerConfig::default()
    };
    let handle =
        Server::serve_with("127.0.0.1:0", query, config).map_err(|e| format!("serve: {e}"))?;
    let subscriber =
        Client::subscriber(handle.addr()).map_err(|e| format!("subscriber connect: {e}"))?;
    let publisher =
        Client::publisher(handle.addr()).map_err(|e| format!("publisher connect: {e}"))?;
    Ok(Live {
        handle,
        publisher,
        subscriber,
        saturate_pool,
        paced_pool,
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Closed loop: publish back-to-back until the clock runs out.
    Saturate,
    /// Open loop: one frame per 100 ms of wall clock, timed from its
    /// due time.
    Paced,
}

/// What the sender did.
pub struct Sent {
    /// Frame indices `0..frames` were published.
    pub frames: u64,
    /// Of those, sent during warm-up (not timed).
    pub warm_frames: u64,
    pub publishes: u64,
    pub data_tuples: u64,
    pub ref_tuples: u64,
    /// Tuples acked after warm-up.
    pub timed_tuples: u64,
    /// First post-warm-up publish.
    pub timed_from: Instant,
    /// `Client::publish` round trips after warm-up, µs.
    pub rtts_us: Vec<f64>,
    /// Paced: each frame's due time, by frame index.
    pub due: Vec<Instant>,
    /// Paced: actual minus due send time after warm-up, ms.
    pub lateness_ms: Vec<f64>,
}

/// What the receiver saw.
pub struct Received {
    pub stream: StreamDigest,
    pub results_events: u64,
    pub eos_at: Instant,
    pub depth_max: i64,
}

/// The server's own account of the phase, scraped after `Eos`.
pub struct Scrape {
    /// `Client::stats_v2()` over the publisher connection.
    pub metrics: Vec<MetricSnapshot>,
    /// `ServerHandle::explain()`.
    pub plan: PlanReport,
    /// `ServerHandle::shutdown()`'s error log.
    pub errors: Vec<String>,
}

pub struct PhaseOut {
    pub sent: Sent,
    pub received: Received,
    pub scrape: Scrape,
    pub spans: Recorder,
}

impl PhaseOut {
    /// Wall time from the first post-warm-up publish to `Eos` at the
    /// subscriber.
    pub fn timed_wall_s(&self) -> f64 {
        self.received
            .eos_at
            .saturating_duration_since(self.sent.timed_from)
            .as_secs_f64()
    }

    pub fn tuples(&self) -> u64 {
        self.sent.data_tuples + self.sent.ref_tuples
    }
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// The sender: re-stamp, publish, nothing else inside the timed region.
fn send(
    publisher: &mut Client,
    pool: &mut Pool,
    shape: Shape,
    warmup: Duration,
    timed: Duration,
    rec: &mut Recorder,
) -> Sent {
    let period = Duration::from_millis(WINDOW_MS);
    let begin = Instant::now();
    let mut sent = Sent {
        frames: 0,
        warm_frames: 0,
        publishes: 0,
        data_tuples: 0,
        ref_tuples: 0,
        timed_tuples: 0,
        timed_from: begin,
        rtts_us: Vec::new(),
        due: Vec::new(),
        lateness_ms: Vec::new(),
    };
    let paced_warm = (warmup.as_millis() as u64).div_ceil(WINDOW_MS);
    let paced_total = paced_warm + (timed.as_millis() as u64 / WINDOW_MS).max(1);
    let mut warm = true;
    loop {
        let k = sent.frames;
        match shape {
            Shape::Saturate => {
                if warm && begin.elapsed() >= warmup {
                    warm = false;
                    sent.warm_frames = k;
                    sent.timed_from = Instant::now();
                }
                if !warm && sent.timed_from.elapsed() >= timed {
                    break;
                }
            }
            Shape::Paced => {
                if k == paced_total {
                    break;
                }
                let due = begin + period / 5 + period * k as u32;
                sent.due.push(due);
                sleep_until(due);
                if warm && k == paced_warm {
                    warm = false;
                    sent.warm_frames = k;
                    sent.timed_from = due;
                }
                if !warm {
                    let late = Instant::now().saturating_duration_since(due);
                    sent.lateness_ms.push(late.as_secs_f64() * 1e3);
                }
            }
        }
        let (refs, data) = pool.stamp(k);
        let mut publish = |source: &str, port: u16, tuples: &[ustream_core::Tuple]| {
            let t0 = Instant::now();
            let acked = rec.span("client.publish", None, k, || {
                publisher.publish(source, port, tuples)
            });
            match acked {
                Ok(n) if n == tuples.len() => {}
                Ok(n) => die(&format!("frame {k}: {n} of {} tuples acked", tuples.len())),
                Err(e) => die(&format!("frame {k}: publish failed: {e}")),
            }
            if !warm {
                sent.rtts_us.push(t0.elapsed().as_secs_f64() * 1e6);
                sent.timed_tuples += tuples.len() as u64;
            }
            sent.publishes += 1;
        };
        if let Some(refs) = refs {
            publish("refs", 1, refs);
            sent.ref_tuples += refs.len() as u64;
        }
        publish("in", 0, data);
        sent.data_tuples += data.len() as u64;
        sent.frames += 1;
    }
    if let Err(e) = publisher.finish() {
        die(&format!("finish failed: {e}"));
    }
    sent
}

/// The receiver: decode events as they arrive, fold them into the
/// stream digest, note when each result window landed.
fn receive(
    subscriber: &mut Client,
    depth: &ustream_telemetry::Gauge,
    rec: &mut Recorder,
) -> Received {
    let mut got = Received {
        stream: StreamDigest::default(),
        results_events: 0,
        eos_at: Instant::now(),
        depth_max: 0,
    };
    loop {
        let open = rec.enter("client.next_event", None, got.results_events);
        let event = subscriber.next_event();
        rec.exit(open);
        let at = Instant::now();
        match event {
            Ok(Event::Results { tuples, .. }) => {
                got.results_events += 1;
                got.depth_max = got.depth_max.max(depth.get());
                got.stream.feed(&tuples, at);
            }
            Ok(Event::Gap { missed }) => die(&format!("subscriber missed {missed} result frames")),
            Ok(Event::Eos) => {
                got.eos_at = at;
                return got;
            }
            Err(e) => die(&format!("subscriber stream broke before Eos: {e}")),
        }
    }
}

/// Run one load shape against `live`'s fresh server, to `Eos`, then
/// scrape and shut the server down. Returns the pool it used as well,
/// for the replays.
pub fn run_phase(
    live: Live,
    shape: Shape,
    warmup: Duration,
    timed: Duration,
    record_spans: bool,
) -> (PhaseOut, Pool) {
    let Live {
        handle,
        mut publisher,
        mut subscriber,
        saturate_pool,
        paced_pool,
    } = live;
    let mut pool = match shape {
        Shape::Saturate => saturate_pool,
        Shape::Paced => paced_pool,
    };
    let depth = handle.registry().gauge_with(
        "server_subscriber_queue_depth",
        &[("client", &subscriber.client_id().to_string())],
    );
    let epoch = Instant::now();
    let mut send_rec = Recorder::new(epoch, record_spans);
    let mut recv_rec = Recorder::new(epoch, record_spans);
    let (sent, received) = std::thread::scope(|s| {
        let receiver = s.spawn(|| receive(&mut subscriber, &depth, &mut recv_rec));
        let sent = send(
            &mut publisher,
            &mut pool,
            shape,
            warmup,
            timed,
            &mut send_rec,
        );
        let received = receiver
            .join()
            .unwrap_or_else(|_| die("receiver thread panicked"));
        (sent, received)
    });
    send_rec.absorb(recv_rec);
    let metrics = match publisher.stats_v2() {
        Ok((metrics, _text)) => metrics,
        Err(e) => die(&format!("stats_v2 scrape failed: {e}")),
    };
    let plan = handle.explain();
    drop(publisher);
    drop(subscriber);
    let errors = handle.shutdown().iter().map(|e| e.to_string()).collect();
    (
        PhaseOut {
            sent,
            received,
            scrape: Scrape {
                metrics,
                plan,
                errors,
            },
            spans: send_rec,
        },
        pool,
    )
}

/// Sum of a counter family over all its label sets.
pub fn counter(metrics: &[MetricSnapshot], family: &str) -> u64 {
    metrics
        .iter()
        .filter(|m| m.family == family)
        .map(|m| match m.value {
            MetricValue::Counter(c) => c,
            _ => 0,
        })
        .sum()
}

/// `(tuples_in, tuples_out, busy_ns, batches, columnar_batches)` of the
/// operator named `op`, summed over stages and shards.
pub fn op_totals(plan: &PlanReport, op: &str) -> Option<[u64; 5]> {
    let mut sum: Option<[u64; 5]> = None;
    for o in plan
        .stages
        .iter()
        .flat_map(|s| &s.ops)
        .filter(|o| o.op == op)
    {
        let acc = sum.get_or_insert([0; 5]);
        for (a, v) in acc.iter_mut().zip([
            o.tuples_in,
            o.tuples_out,
            o.busy_ns,
            o.batches,
            o.columnar_batches,
        ]) {
            *a += v;
        }
    }
    sum
}

/// Hold the generator's own counts against the server's. Every line
/// returned is a discrepancy; an empty list reconciles exactly.
pub fn reconcile(out: &PhaseOut) -> Vec<String> {
    let m = &out.scrape.metrics;
    let mut bad = Vec::new();
    let mut want = |what: &str, got: u64, expected: u64| {
        if got != expected {
            bad.push(format!(
                "{what}: server says {got}, generator says {expected}"
            ));
        }
    };
    let count = |family: &str| counter(m, family);
    for (family, expected) in [
        ("server_publish_frames_total", out.sent.publishes),
        ("server_publish_tuples_total", out.tuples()),
        // Every Ack the server wrote: one per publish, subscribe,
        // finish and (auto-)heartbeat.
        (
            "server_acks_total",
            out.sent.publishes
                + count("server_subscribes_total")
                + count("server_finishes_total")
                + count("server_heartbeats_total"),
        ),
        ("server_subscribes_total", 1),
        ("server_finishes_total", 1),
        ("server_results_frames_total", out.received.results_events),
        ("server_errors_total", 0),
        ("server_gap_frames_total", 0),
        ("engine_tuples_pushed_total", out.tuples()),
    ] {
        want(family, count(family), expected);
    }
    let plan = &out.scrape.plan;
    let op_in = |op: &str| op_totals(plan, op).map_or(u64::MAX, |t| t[0]);
    want("select tuples_in", op_in("select"), out.sent.data_tuples);
    if out.sent.ref_tuples > 0 {
        let agg_out = op_totals(plan, "aggregate").map_or(u64::MAX, |t| t[1]);
        want(
            "join tuples_in",
            op_in("join"),
            agg_out.saturating_add(out.sent.ref_tuples),
        );
    }
    for e in &out.scrape.errors {
        bad.push(format!("server error log: {e}"));
    }
    bad
}
