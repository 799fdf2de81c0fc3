//! One run of a served workload: the untraced run that yields the
//! end-to-end metrics, and the traced run that yields the per-layer
//! ones and the budget.

use crate::accuracy;
use crate::digest::{compare, Mismatch};
use crate::loadgen::{closing_frame, Pool, WINDOW_MS};
use crate::replay::{replay, run_batched_oracle, Chain, ReplayOut};
use crate::report::{peak_rss_mb, Outcome};
use crate::serve::{
    bring_up, counter, die, op_totals, reconcile, run_phase, Live, PhaseOut, Shape, LATE_MS,
};
use crate::stats::{highest_supported_percentile, median, percentile, sorted};
use crate::trace::{layer_self_ns, Budget, Recorder};
use crate::workloads::{Served, JOIN_SHARDS};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};
use ustream_server::wire::{read_frame, write_frame};
use ustream_server::Event;

/// Bring-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Cap on the `run_batched` oracle's prefix, in tuples.
const ORACLE_TUPLES: u64 = 100_000;
/// An open-loop result window later than this has failed.
pub const LATENCY_LIMIT_MS: f64 = 250.0;
/// `ServerConfig::trace_sample_every` of the traced phase.
const TRACE_SAMPLE_EVERY: u64 = 16;

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

/// Clean teardown of a bring-up that will not be measured: finish, wait
/// for `Eos`, shut down.
fn tear_down(live: Live) {
    let Live {
        handle,
        mut publisher,
        mut subscriber,
        ..
    } = live;
    if let Err(e) = publisher.finish() {
        die(&format!("teardown finish: {e}"));
    }
    loop {
        match subscriber.next_event() {
            Ok(Event::Eos) => break,
            Ok(_) => {}
            Err(e) => die(&format!("teardown: no Eos: {e}")),
        }
    }
    drop((publisher, subscriber));
    handle.shutdown();
}

fn up(w: &Served, seed: u64, trace_every: u64) -> Live {
    bring_up(w, seed, trace_every).unwrap_or_else(|e| die(&e))
}

/// A phase's outputs held against both references.
struct Verified {
    oracle: Mismatch,
    replay: Mismatch,
    /// Result windows the whole run should have produced.
    expected_windows: u64,
}

impl Verified {
    fn bad_windows(&self) -> u64 {
        self.oracle.bad_windows.max(self.replay.bad_windows)
    }

    fn bad_rows(&self) -> u64 {
        self.oracle.bad_rows.max(self.replay.bad_rows)
    }
}

/// The subscriber stream must equal `run_batched` on a bounded prefix
/// and the in-process session replay on the whole run.
fn verify(w: &Served, pool: &mut Pool, out: &PhaseOut) -> Verified {
    let frames = out.sent.frames;
    let prefix = (ORACLE_TUPLES / pool.tuples_per_frame() as u64).clamp(1, frames);
    let (oracle, _) = run_batched_oracle(w, pool, prefix).unwrap_or_else(|e| die(&e));
    // Beyond its last complete window the prefix run lacks inputs the
    // live run had (the join meets later reference rows).
    let upto = (prefix < frames).then(|| (prefix - 1) * WINDOW_MS);
    let oracle_mismatch = compare(&out.received.stream, &oracle, upto);

    let mut off = Recorder::new(Instant::now(), false);
    let reference =
        replay(w, pool, frames, Chain::SessionOnly, &mut off, None).unwrap_or_else(|e| die(&e));
    Verified {
        oracle: oracle_mismatch,
        replay: compare(&out.received.stream, &reference.stream, None),
        expected_windows: reference.stream.len() as u64,
    }
}

/// Open-loop latency per result window, ms: arrival of the window's
/// last row minus the **due** send time of the frame whose first tuple
/// closes it. Warm-up windows and the windows only the final flush
/// closes are left out.
fn window_latencies_ms(out: &PhaseOut) -> Vec<f64> {
    out.received
        .stream
        .iter()
        .filter_map(|(ts, _, at)| {
            let frame = closing_frame(ts)?;
            let due = *out.sent.due.get(frame as usize)?;
            (frame >= out.sent.warm_frames)
                .then(|| at.saturating_duration_since(due).as_secs_f64() * 1e3)
        })
        .collect()
}

fn note_problems(o: &mut Outcome, phase: &str, out: &PhaseOut, v: &Verified) {
    for line in reconcile(out) {
        o.problems.push(format!("{phase}: {line}"));
    }
    if v.bad_windows() > 0 {
        o.problems.push(format!(
            "{phase}: {} of {} result windows ({} rows) differ from the reference \
             (run_batched prefix: {:?}; session replay: {:?})",
            v.bad_windows(),
            v.expected_windows,
            v.bad_rows(),
            v.oracle,
            v.replay
        ));
    }
}

fn info(workload: &str, line: String) {
    println!("{workload:<14}{line}");
}

/// The untraced run: both load shapes against fresh servers, every
/// end-to-end metric, outputs verified.
pub fn run_untraced(w: &Served, seed: u64, seconds: f64) -> Outcome {
    let warmup = secs(seconds * 0.05);
    let mut setup_s = Vec::new();
    let mut timed_up = || {
        let t0 = Instant::now();
        let live = up(w, seed, 0);
        setup_s.push(t0.elapsed().as_secs_f64());
        live
    };
    for _ in 0..SETUP_REPS - 2 {
        tear_down(timed_up());
    }

    let live = timed_up();
    let (sat, mut sat_pool) = run_phase(live, Shape::Saturate, warmup, secs(seconds * 0.3), false);
    let live = timed_up();
    let (paced, mut paced_pool) = run_phase(live, Shape::Paced, warmup, secs(seconds * 0.6), false);
    // Server plus generator, before the references below allocate.
    let peak_rss = peak_rss_mb();

    let sat_v = verify(w, &mut sat_pool, &sat);
    let paced_v = verify(w, &mut paced_pool, &paced);
    let (accuracy_err, accuracy_n) =
        accuracy::sum_tv_distance(w, &mut sat_pool, seed).unwrap_or_else(|e| die(&e));

    let latencies = sorted(window_latencies_ms(&paced));
    if latencies.is_empty() {
        die("paced phase produced no timed result window");
    }
    let late_windows = latencies.iter().filter(|&&l| l > LATENCY_LIMIT_MS).count() as u64;

    let mut o = Outcome::default();
    note_problems(&mut o, "saturate", &sat, &sat_v);
    note_problems(&mut o, "paced", &paced, &paced_v);
    o.correct = o.problems.is_empty();
    o.attempted = sat.sent.publishes
        + sat_v.expected_windows
        + paced.sent.publishes
        + paced_v.expected_windows;
    o.failed = sat_v.bad_windows() + paced_v.bad_windows() + late_windows;

    o.set(
        "throughput_per_s",
        sat.sent.timed_tuples as f64 / sat.timed_wall_s(),
        sat.sent.rtts_us.len(),
    );
    o.set(
        "latency_p50_ms",
        percentile(&latencies, 50.0),
        latencies.len(),
    );
    o.set(
        "latency_p90_ms",
        percentile(&latencies, 90.0),
        latencies.len(),
    );
    o.set("accuracy_err", accuracy_err, accuracy_n);
    o.set("setup_s", median(&setup_s), setup_s.len());
    o.set("peak_rss_mb", peak_rss, 1);

    // Context a reader needs next to the headline numbers.
    let name = w.name;
    let rtts = sorted(sat.sent.rtts_us.clone());
    info(
        name,
        format!(
            "saturate: {} tuples in {} publishes over {:.3} s; publish rtt p50 {:.1} us",
            sat.sent.timed_tuples,
            rtts.len(),
            sat.timed_wall_s(),
            percentile(&rtts, 50.0),
        ),
    );
    let late = paced
        .sent
        .lateness_ms
        .iter()
        .filter(|&&l| l > LATE_MS)
        .count();
    info(
        name,
        format!(
            "paced: {} tuples/s, {} timed windows; generator late on {late} of {} frames; \
         highest percentile this sample supports: p{}",
            w.paced_rate,
            latencies.len(),
            paced.sent.lateness_ms.len(),
            highest_supported_percentile(latencies.len()).map_or("-".into(), |p| p.to_string()),
        ),
    );
    info(
        name,
        format!(
            "mismatched_rows={} late_windows={late_windows} (limit {LATENCY_LIMIT_MS} ms) \
         verified {}+{} windows against run_batched, {}+{} against session replay",
            sat_v.bad_rows() + paced_v.bad_rows(),
            sat_v.oracle.windows,
            paced_v.oracle.windows,
            sat_v.replay.windows,
            paced_v.replay.windows,
        ),
    );
    o
}

/// Median round trip, µs, of a 16-byte `write_frame`/`read_frame`
/// ping-pong over a bare loopback pair — the wire layer with no engine
/// behind it. Bounded by `budget`.
fn frame_rtt_us(budget: Duration) -> (f64, usize) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap_or_else(|e| die(&format!("bind: {e}")));
    let addr = listener.local_addr().expect("bound socket has an address");
    let echo = std::thread::spawn(move || {
        let Ok((mut peer, _)) = listener.accept() else {
            return;
        };
        while let Ok((kind, payload)) = read_frame(&mut peer) {
            if write_frame(&mut peer, kind, &payload).is_err() {
                return;
            }
        }
    });
    let mut stream = TcpStream::connect(addr).unwrap_or_else(|e| die(&format!("connect: {e}")));
    let started = Instant::now();
    let mut rtts = Vec::new();
    while rtts.len() < 200 && (rtts.len() < 5 || started.elapsed() < budget) {
        let t0 = Instant::now();
        let ok = write_frame(&mut stream, 0x7E, &[0xA5; 16]).is_ok()
            && read_frame(&mut stream).is_ok_and(|(_, p)| p.len() == 16);
        if !ok {
            die("frame ping-pong broke");
        }
        rtts.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    // Closing our end ends the echo thread's read loop.
    drop(stream);
    echo.join().unwrap_or_else(|_| die("echo thread panicked"));
    (median(&rtts), rtts.len())
}

/// Sum of the durations of the spans named `name`, seconds.
fn span_total_s(rec: &Recorder, name: &str) -> f64 {
    rec.spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end_ns.saturating_sub(s.start_ns))
        .sum::<u64>() as f64
        / 1e9
}

/// The traced saturate's budget: per-tuple layer costs from the replay,
/// scaled to the tuples the live phase shipped, against its wall clock.
fn budget(live: &PhaseOut, rep: &ReplayOut, rec: &Recorder) -> Budget {
    let scale = live.sent.timed_tuples as f64 / rep.tuples.max(1) as f64;
    let layers = layer_self_ns(rec.spans(), "replay.");
    let self_s = |layer: &str| layers.get(layer).copied().unwrap_or(0) as f64 / 1e9;
    // The session spans contain the operator kernels; the session's own
    // counters say how much of that was operator time (`core`). On the
    // sharded session that is CPU time summed over workers and may
    // exceed the router thread's wall clock — `runtime` then reads 0.
    let op_busy_s: f64 = rep
        .plan
        .stages
        .iter()
        .flat_map(|s| &s.ops)
        .map(|o| o.busy_ns as f64 / 1e9)
        .sum();
    let parts = [
        ("client (encode+decode)", self_s("client")),
        ("wire (decode rows)", self_s("wire")),
        ("server (results encode)", self_s("server")),
        (
            "runtime (session)",
            (self_s("runtime") - op_busy_s).max(0.0),
        ),
        ("core (kernels+columnarize)", self_s("core") + op_busy_s),
    ];
    Budget {
        parts: parts
            .into_iter()
            .map(|(layer, s)| (layer.to_string(), s * scale))
            .collect(),
        whole_s: live.timed_wall_s(),
    }
}

/// The traced run: an untraced and a traced closed-loop phase (their
/// throughput gap is the tracing overhead), an open-loop phase for the
/// generator's own lateness, then the layer replay of the traced
/// phase's frames. Writes the spans to `trace_path`.
pub fn run_traced(w: &Served, seed: u64, seconds: f64, trace_path: &Path) -> Outcome {
    let warmup = secs(seconds * 0.05);
    let phase = secs(seconds * 0.25);

    let live = up(w, seed, 0);
    let (plain, _) = run_phase(live, Shape::Saturate, warmup, phase, false);
    let live = up(w, seed, TRACE_SAMPLE_EVERY);
    let (traced, mut pool) = run_phase(live, Shape::Saturate, warmup, phase, true);
    let live = up(w, seed, 0);
    let (paced, mut paced_pool) = run_phase(live, Shape::Paced, warmup, phase, false);

    // Layer replay of the traced phase's identical frames.
    let mut rec = Recorder::new(traced.spans.epoch(), true);
    let cap = secs(seconds * 0.1);
    let rep = replay(
        w,
        &mut pool,
        traced.sent.frames,
        Chain::Full,
        &mut rec,
        Some(cap),
    )
    .unwrap_or_else(|e| die(&e));
    let upto = (rep.frames < traced.sent.frames).then(|| (rep.frames.max(1) - 1) * WINDOW_MS);
    let replay_mismatch = compare(&traced.received.stream, &rep.stream, upto);
    let baseline_frames = (ORACLE_TUPLES / pool.tuples_per_frame() as u64).clamp(1, rep.frames);
    let (_, baseline) =
        run_batched_oracle(w, &mut pool, baseline_frames).unwrap_or_else(|e| die(&e));
    let baseline_tuples = baseline_frames * pool.tuples_per_frame() as u64;
    let (prob_ns, prob_fallback) =
        accuracy::prob_sum_path(w, &mut paced_pool, secs(seconds * 0.025));
    let (frame_rtt, frame_rtt_n) = frame_rtt_us(secs(seconds * 0.05));

    let mut o = Outcome::default();
    for (phase, out) in [
        ("saturate", &plain),
        ("saturate+trace", &traced),
        ("paced", &paced),
    ] {
        for line in reconcile(out) {
            o.problems.push(format!("{phase}: {line}"));
        }
    }
    if replay_mismatch.bad_windows > 0 {
        o.problems.push(format!(
            "saturate+trace: stream differs from the full-chain replay: {replay_mismatch:?}"
        ));
    }
    o.correct = o.problems.is_empty();
    o.attempted = traced.sent.publishes + replay_mismatch.windows;
    o.failed = replay_mismatch.bad_windows;

    let per_tuple_ns = |name: &str, n: u64| span_total_s(&rec, name) * 1e9 / n.max(1) as f64;
    let n_frames = rep.frames as usize;
    let tuples = rep.tuples;

    // loadgen
    let lateness = sorted(paced.sent.lateness_ms.clone());
    let late = lateness.iter().filter(|&&l| l > LATE_MS).count();
    o.set(
        "loadgen.late_frac",
        late as f64 / lateness.len().max(1) as f64,
        lateness.len(),
    );
    o.set(
        "loadgen.lateness_ms_p95",
        percentile(&lateness, 95.0),
        lateness.len(),
    );
    // client
    let rtts = sorted(traced.sent.rtts_us.clone());
    o.set(
        "client.publish_rtt_us_p50",
        percentile(&rtts, 50.0),
        rtts.len(),
    );
    o.set(
        "client.publish_rtt_us_p95",
        percentile(&rtts, 95.0),
        rtts.len(),
    );
    o.set(
        "client.encode_ns_per_tuple",
        per_tuple_ns("replay.client.encode", tuples),
        n_frames,
    );
    o.set(
        "client.results_decode_ns_per_tuple",
        per_tuple_ns("replay.client.results_decode", rep.result_rows),
        n_frames,
    );
    // wire
    o.set("wire.frame_rtt_us_p50", frame_rtt, frame_rtt_n);
    o.set(
        "wire.decode_rows_ns_per_tuple",
        per_tuple_ns("replay.wire.decode_rows", tuples),
        n_frames,
    );
    o.set(
        "wire.decode_columnar_ns_per_tuple",
        per_tuple_ns("probe.wire.decode_columnar", tuples),
        n_frames,
    );
    o.set(
        "wire.bytes_per_tuple",
        rep.publish_bytes as f64 / tuples.max(1) as f64,
        n_frames,
    );
    // server
    let m = &traced.scrape.metrics;
    for (name, family) in [
        ("server.publish_frames", "server_publish_frames_total"),
        ("server.publish_tuples", "server_publish_tuples_total"),
        ("server.acks", "server_acks_total"),
        ("server.results_frames", "server_results_frames_total"),
        ("server.errors_total", "server_errors_total"),
    ] {
        o.set(name, counter(m, family) as f64, 1);
    }
    o.set(
        "server.subscriber_queue_depth_max",
        traced.received.depth_max as f64,
        traced.received.results_events as usize,
    );
    o.set(
        "server.results_encode_ns_per_tuple",
        per_tuple_ns("replay.server.results_encode", rep.result_rows),
        n_frames,
    );
    let budget = budget(&traced, &rep, &rec);
    o.set(
        "server.unexplained_frac",
        budget.unexplained_frac(),
        n_frames,
    );
    // runtime
    let session_s = [
        "replay.core.columnarize",
        "replay.runtime.push",
        "replay.runtime.advance",
        "replay.runtime.drain",
    ]
    .iter()
    .map(|n| span_total_s(&rec, n))
    .sum::<f64>();
    let session_ns = session_s * 1e9 / tuples.max(1) as f64;
    let baseline_ns = baseline.as_secs_f64() * 1e9 / baseline_tuples as f64;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = if w.join { JOIN_SHARDS.min(cores) } else { 1 };
    let plan = &traced.scrape.plan;
    o.set("runtime.session_ns_per_tuple", session_ns, n_frames);
    o.set(
        "runtime.vs_run_batched_ratio",
        session_ns / baseline_ns,
        n_frames,
    );
    o.set("runtime.workers", workers as f64, 1);
    o.set(
        "runtime.routed_skew",
        plan.stages.iter().map(|s| s.skew).fold(0.0, f64::max),
        1,
    );
    o.set(
        "runtime.exchange_forwarded_tuples",
        plan.stages
            .iter()
            .map(|s| s.exchange_forwarded)
            .sum::<u64>() as f64,
        1,
    );
    o.set(
        "runtime.eager_forwards",
        plan.stages.iter().map(|s| s.eager_forwards).sum::<u64>() as f64,
        1,
    );
    let lag = &plan.lag_merged;
    if lag.count > 0 {
        o.set("runtime.watermark_lag_p50", lag.p50, lag.count as usize);
        o.set("runtime.watermark_lag_p99", lag.p99, lag.count as usize);
    }
    o.set("runtime.spans_sampled", plan.traces_sampled as f64, 1);
    // core
    o.set(
        "core.run_batched_ns_per_tuple",
        baseline_ns,
        baseline_frames as usize,
    );
    o.set(
        "core.columnarize_ns_per_tuple",
        per_tuple_ns("replay.core.columnarize", tuples),
        n_frames,
    );
    for op in ["select", "project", "aggregate", "join"] {
        if let Some([t_in, t_out, busy_ns, batches, columnar_batches]) = op_totals(plan, op) {
            let (t_in, n) = (t_in.max(1) as f64, batches as usize);
            o.set(
                &format!("core.op.{op}.busy_ns_per_tuple"),
                busy_ns as f64 / t_in,
                n,
            );
            o.set(&format!("core.op.{op}.selectivity"), t_out as f64 / t_in, n);
            o.set(
                &format!("core.op.{op}.columnar_batch_frac"),
                columnar_batches as f64 / batches.max(1) as f64,
                n,
            );
        }
    }
    // prob
    o.set("prob.sum_ns_per_window", prob_ns, 1);
    o.set("prob.sum_fallback_frac", prob_fallback, 1);
    // telemetry
    let tput = |p: &PhaseOut| p.sent.timed_tuples as f64 / p.timed_wall_s();
    o.set(
        "telemetry.trace_overhead_frac",
        1.0 - tput(&traced) / tput(&plain),
        1,
    );

    print!(
        "{}",
        budget.render(&format!(
            "{} closed loop, traced: {} tuples shipped, replay of {} frames scaled to them",
            w.name, traced.sent.timed_tuples, rep.frames
        ))
    );
    info(
        w.name,
        format!(
            "throughput untraced {:.1} /s, traced {:.1} /s; available_parallelism {cores}{}",
            tput(&plain),
            tput(&traced),
            if cores == 1 {
                " — one core: no scaling claim can be read from this run"
            } else {
                ""
            },
        ),
    );

    let mut all = traced.spans;
    all.absorb(rec);
    match all.write_json(trace_path, w.name) {
        Ok(()) => info(
            w.name,
            format!(
                "{} spans written to {}",
                all.spans().len(),
                trace_path.display()
            ),
        ),
        Err(e) => die(&format!("writing {}: {e}", trace_path.display())),
    }
    o
}
