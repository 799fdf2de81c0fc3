//! In-process replay of a served run's frames.
//!
//! Two uses of one loop:
//!
//! - **Verification** (`Chain::SessionOnly`): push the identical frames
//!   through a [`ShardedSession`] exactly as the server's engine thread
//!   does (512-tuple chunks, columnarized from 64 up, watermark advance
//!   and drain after every publish) and digest the output — the
//!   whole-run reference the subscriber stream must equal. It streams
//!   frame by frame; nothing but the open windows is retained.
//! - **Layer replay** (`Chain::Full`): additionally take each frame
//!   through the codec calls either side of the socket — the client's
//!   `write_publish`, the handler's `read_request`, the engine's
//!   `write_results`, the subscriber's `read_response` — with a span
//!   around every call. The socket itself, the channel hops and the
//!   k-way merge are the only steps of the serving path not replayed;
//!   they are what the budget's residual measures.
//!
//! Plus the two references: the `run_batched` oracle on a bounded prefix
//! and the single-thread baseline timing on the same frames.

use crate::digest::StreamDigest;
use crate::loadgen::Pool;
use crate::trace::Recorder;
use crate::workloads::{Served, JOIN_SHARDS};
use std::time::{Duration, Instant};
use ustream_core::query::COLUMNAR_MIN_CHUNK;
use ustream_core::{Batch, NodeId, Tuple};
use ustream_runtime::session::ShardedSession;
use ustream_runtime::{PlanReport, ShardedExecutor};
use ustream_server::protocol::{self, Request, Response};
use ustream_server::wire::{self, Reader, FRAME_HEADER_LEN};

/// `ServerConfig::default().batch_size`: the chunk the engine pushes.
pub const ENGINE_BATCH: usize = 512;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Chain {
    SessionOnly,
    Full,
}

pub struct ReplayOut {
    pub stream: StreamDigest,
    /// Frame indices replayed (the whole run unless the time cap hit).
    pub frames: u64,
    /// Tuples pushed into the session over those frames.
    pub tuples: u64,
    /// Result rows drained over those frames (the final flush excluded).
    pub result_rows: u64,
    /// Encoded publish bytes over those frames (`Chain::Full`).
    pub publish_bytes: u64,
    /// The replay session's EXPLAIN ANALYZE at the end.
    pub plan: PlanReport,
}

/// The session a served workload runs on, built the way `Server` does.
fn session_for(w: &Served) -> Result<ShardedSession, String> {
    if w.join {
        ShardedExecutor::new(JOIN_SHARDS)
            .with_batch_size(ENGINE_BATCH)
            .session(|| w.graph())
    } else {
        ShardedSession::single(w.graph())
    }
    .map_err(|e| format!("replay session: {e}"))
}

struct Replayer<'a> {
    /// `None` once finished.
    session: Option<ShardedSession>,
    rec: &'a mut Recorder,
    chain: Chain,
    out: ReplayOut,
    seq: u64,
    wire_buf: Vec<u8>,
}

impl Replayer<'_> {
    /// One `Client::publish` worth of work, end to end.
    fn publish(
        &mut self,
        root: Option<u32>,
        frame: u64,
        source: &str,
        node: NodeId,
        port: usize,
        tuples: &[Tuple],
    ) -> Result<(), String> {
        let err = |e: &dyn std::fmt::Display| format!("replay of frame {frame}: {e}");
        let owned: Vec<Tuple> = match self.chain {
            Chain::SessionOnly => tuples.to_vec(),
            Chain::Full => {
                self.seq += 1;
                let seq = self.seq;
                let buf = &mut self.wire_buf;
                buf.clear();
                self.rec
                    .span("replay.client.encode", root, frame, || {
                        protocol::write_publish(buf, source, port as u16, Some(seq), tuples)
                    })
                    .map_err(|e| err(&e))?;
                self.out.publish_bytes += buf.len() as u64;
                // The headroom probe: the same payload decoded straight
                // into columns. Not on the serving path, so it is
                // recorded outside the budget's `replay.` scope.
                self.rec
                    .span("probe.wire.decode_columnar", root, frame, || {
                        let mut r = Reader::new(&buf[FRAME_HEADER_LEN..]);
                        r.u64()?;
                        r.str()?;
                        r.u16()?;
                        wire::decode_batch(&mut r).map(|b| std::hint::black_box(b.len()))
                    })
                    .map_err(|e| err(&e))?;
                let req = self
                    .rec
                    .span("replay.wire.decode_rows", root, frame, || {
                        protocol::read_request(&mut &buf[..])
                    })
                    .map_err(|e| err(&e))?;
                match req {
                    Request::Publish { tuples, .. } => tuples,
                    other => return Err(err(&format!("decoded {other:?}"))),
                }
            }
        };
        let watermark = owned.iter().map(|t| t.ts).max();
        self.out.tuples += owned.len() as u64;
        let mut rest = owned.into_iter().peekable();
        while rest.peek().is_some() {
            let mut batch: Batch = rest.by_ref().take(ENGINE_BATCH).collect();
            if batch.len() >= COLUMNAR_MIN_CHUNK {
                self.rec.span("replay.core.columnarize", root, frame, || {
                    batch.columnarize()
                });
            }
            let session = self.session.as_mut().expect("session live until finish");
            self.rec
                .span("replay.runtime.push", root, frame, || {
                    session.push_batch(node, port, batch)
                })
                .map_err(|e| err(&e))?;
        }
        let session = self.session.as_mut().expect("session live until finish");
        if let Some(watermark) = watermark {
            self.rec
                .span("replay.runtime.advance", root, frame, || {
                    session.advance_watermark(watermark)
                })
                .map_err(|e| err(&e))?;
        }
        let drained = self
            .rec
            .span("replay.runtime.drain", root, frame, || {
                session.drain_collected()
            })
            .map_err(|e| err(&e))?;
        for (sink, rows) in drained {
            self.out.result_rows += rows.len() as u64;
            self.results(root, frame, sink, rows)?;
        }
        Ok(())
    }

    /// One broadcast result batch: encode once, decode at the subscriber.
    fn results(
        &mut self,
        root: Option<u32>,
        frame: u64,
        sink: NodeId,
        rows: Vec<Tuple>,
    ) -> Result<(), String> {
        if rows.is_empty() {
            return Ok(());
        }
        let rows = match self.chain {
            Chain::SessionOnly => rows,
            Chain::Full => {
                let buf = &mut self.wire_buf;
                buf.clear();
                let sink = sink.index() as u32;
                self.rec
                    .span("replay.server.results_encode", root, frame, || {
                        protocol::write_results(buf, sink, Some(frame), &rows)
                    })
                    .map_err(|e| format!("results encode: {e}"))?;
                let resp = self
                    .rec
                    .span("replay.client.results_decode", root, frame, || {
                        protocol::read_response(&mut &buf[..])
                    })
                    .map_err(|e| format!("results decode: {e}"))?;
                match resp {
                    Response::Results { tuples, .. } => tuples,
                    other => return Err(format!("results decoded as {other:?}")),
                }
            }
        };
        self.out.stream.feed(&rows, Instant::now());
        Ok(())
    }
}

/// Replay frames `0..frames` of `pool`. With a `cap`, stop starting new
/// frames once it has elapsed (per-tuple figures stay valid; the digest
/// then covers a prefix, and the final flush is skipped).
pub fn replay(
    w: &Served,
    pool: &mut Pool,
    frames: u64,
    chain: Chain,
    rec: &mut Recorder,
    cap: Option<Duration>,
) -> Result<ReplayOut, String> {
    let session = session_for(w)?;
    let telemetry = session.telemetry().clone();
    let data_node = session
        .source_node("in")
        .ok_or("graph has no `in` source")?;
    let refs_node = session.source_node("refs");
    let mut r = Replayer {
        session: Some(session),
        rec,
        chain,
        out: ReplayOut {
            stream: StreamDigest::default(),
            frames: 0,
            tuples: 0,
            result_rows: 0,
            publish_bytes: 0,
            plan: PlanReport::assemble(&telemetry),
        },
        seq: 0,
        wire_buf: Vec::new(),
    };
    let started = Instant::now();
    for k in 0..frames {
        if cap.is_some_and(|c| started.elapsed() >= c) {
            break;
        }
        let root = r.rec.enter("replay.frame", None, k);
        let (refs, data) = pool.stamp(k);
        if let Some(refs) = refs {
            let node = refs_node.ok_or("pool has refs but the graph has no `refs` source")?;
            r.publish(root, k, "refs", node, 1, refs)?;
        }
        r.publish(root, k, "in", data_node, 0, data)?;
        r.rec.exit(root);
        r.out.frames = k + 1;
    }
    let finals = r
        .session
        .take()
        .expect("session live until finish")
        .finish()
        .map_err(|e| format!("replay finish: {e}"))?;
    if r.out.frames == frames {
        let mut finals: Vec<(NodeId, Vec<Tuple>)> = finals.into_iter().collect();
        finals.sort_by_key(|(n, _)| n.index());
        for (sink, rows) in finals {
            r.results(None, frames, sink, rows)?;
        }
    }
    r.out.plan = PlanReport::assemble(&telemetry);
    Ok(r.out)
}

/// The feed of frames `0..frames`, materialized for `run_batched`.
fn feed(pool: &mut Pool, frames: u64) -> Vec<(String, usize, Vec<Tuple>)> {
    let mut data_feed = Vec::with_capacity(frames as usize * pool.frame_len());
    let mut refs_feed = Vec::new();
    for k in 0..frames {
        let (refs, data) = pool.stamp(k);
        data_feed.extend_from_slice(data);
        if let Some(refs) = refs {
            refs_feed.extend_from_slice(refs);
        }
    }
    let mut inputs = vec![("in".to_string(), 0, data_feed)];
    if pool.has_refs() {
        inputs.push(("refs".to_string(), 1, refs_feed));
    }
    inputs
}

/// `QueryGraph::run_batched` over frames `0..frames`: the reference
/// oracle's digest, and how long the run took (the single-threaded
/// baseline of the same job).
pub fn run_batched_oracle(
    w: &Served,
    pool: &mut Pool,
    frames: u64,
) -> Result<(StreamDigest, Duration), String> {
    let inputs = feed(pool, frames);
    let mut graph = w.graph();
    let t0 = Instant::now();
    let out = graph
        .run_batched(inputs, ENGINE_BATCH)
        .map_err(|e| format!("run_batched oracle: {e}"))?;
    let took = t0.elapsed();
    let mut digest = StreamDigest::default();
    let now = Instant::now();
    for rows in out.values() {
        digest.feed(rows, now);
    }
    Ok((digest, took))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::compare;
    use crate::loadgen::{Lane, Pool};
    use crate::workloads::{JOIN_SHARDED, Q1_GAUSS, Q1_MIXED};

    /// Session replay (both chains) agrees with `run_batched` on every
    /// served workload, whole run including the final flush.
    #[test]
    fn replay_matches_the_oracle() {
        for w in [Q1_GAUSS, Q1_MIXED, JOIN_SHARDED] {
            let mut pool = Pool::generate(w.payload, 5, Lane::Saturate, 3, 256, w.join);
            let (oracle, _) = run_batched_oracle(&w, &mut pool, 7).unwrap();
            assert!(oracle.rows() > 0, "{}", w.name);
            for chain in [Chain::SessionOnly, Chain::Full] {
                let mut rec = Recorder::new(Instant::now(), chain == Chain::Full);
                let out = replay(&w, &mut pool, 7, chain, &mut rec, None).unwrap();
                let m = compare(&out.stream, &oracle, None);
                assert_eq!(m.bad_windows, 0, "{} {chain:?}: {m:?}", w.name);
                assert_eq!(m.windows as usize, oracle.len());
                assert_eq!(out.frames, 7);
            }
        }
    }
}
