//! The engine thread's timestamp merge: per-publisher queues of decoded
//! publish batches in, one ts-ordered run of session pushes out.
//!
//! The merge's contract is the per-tuple k-way merge it replaces: the
//! next tuple released is the one with the smallest `(ts, publisher id)`
//! key among every publisher's queue front, and nothing is released
//! while an unfinished publisher with an empty queue could still send a
//! tuple that precedes it (its watermark — the highest ts it published
//! or heartbeated — is below the tuple's ts, or equal with a lower id,
//! since ties break by id). [`release`] produces exactly that tuple
//! sequence, but a *run* at a time: each publisher's stream is
//! ts-nondecreasing (the handler refuses a publish that breaks this),
//! so from the best publisher's front, every tuple whose key stays
//! below the smallest key any other publisher could release next goes
//! out back to back. A lone publisher therefore passes whole frames
//! through, and a batch is split only where another publisher's tuples
//! interleave. [`chunk`] then cuts the runs into session pushes of at
//! most `batch_size` tuples.

use std::collections::{BTreeMap, VecDeque};
use ustream_core::{Batch, NodeId};

/// One publisher's merge state.
#[derive(Default)]
pub(crate) struct PubState {
    /// Decoded publish batches, oldest first, each addressed to a
    /// `(node, port)`; never empty batches.
    pub(crate) queue: VecDeque<(NodeId, usize, Batch)>,
    /// Highest timestamp enqueued or heartbeated so far — the
    /// publisher's watermark: a ts-ordered stream cannot later deliver
    /// anything older.
    pub(crate) last_ts: u64,
    pub(crate) finished: bool,
}

impl PubState {
    /// Queue one decoded publish. A finished publisher's tuples would
    /// slip in behind the watermark its `Finish` released, so they are
    /// dropped (the handler already refuses them; reaching here means a
    /// racing abort).
    pub(crate) fn enqueue(&mut self, node: NodeId, port: usize, batch: Batch) {
        if self.finished {
            return;
        }
        if let Some(max_ts) = batch.max_ts() {
            self.last_ts = self.last_ts.max(max_ts);
            self.queue.push_back((node, port, batch));
        }
    }

    /// A watermark promise without data (same contract as a publish at
    /// `watermark`: nothing older may follow).
    pub(crate) fn heartbeat(&mut self, watermark: u64) {
        if !self.finished {
            self.last_ts = self.last_ts.max(watermark);
        }
    }
}

/// Release every queued tuple the per-tuple merge would release now, as
/// runs in merge order: each run is one contiguous piece of one
/// publisher's batch, addressed as that batch was. Released tuples leave
/// the queues; a partly released batch keeps its unreleased tail at the
/// front of its queue.
///
/// Works in two passes so that every tuple moves at most once: the first
/// plans the runs over timestamps alone, the second cuts each touched
/// batch from the back at its planned run ends.
pub(crate) fn release(pubs: &mut BTreeMap<u64, PubState>) -> Vec<(NodeId, usize, Batch)> {
    let plan = plan_runs(pubs);
    if plan.is_empty() {
        return Vec::new();
    }
    // Cut pass: per publisher, each touched batch in queue order, split
    // from the back at the ends planned for it.
    let mut pieces: Vec<VecDeque<(NodeId, usize, Batch)>> =
        (0..pubs.len()).map(|_| VecDeque::new()).collect();
    for (i, p) in pubs.values_mut().enumerate() {
        let mut ends = plan.iter().filter(|r| r.publisher == i).peekable();
        while let Some(first) = ends.next() {
            let batch_ends: Vec<usize> = std::iter::once(first.end)
                .chain(std::iter::from_fn(|| {
                    ends.next_if(|r| r.batch == first.batch).map(|r| r.end)
                }))
                .collect();
            let (node, port, mut batch) = p.queue.pop_front().expect("planned batch is queued");
            let last = *batch_ends.last().expect("at least one run");
            let remainder = (last < batch.len()).then(|| batch.split_off(last));
            let mut cut: Vec<Batch> = batch_ends
                .windows(2)
                .rev()
                .map(|w| batch.split_off(w[0]))
                .collect();
            cut.push(batch);
            pieces[i].extend(cut.into_iter().rev().map(|b| (node, port, b)));
            if let Some(rest) = remainder {
                p.queue.push_front((node, port, rest));
            }
        }
    }
    plan.iter()
        .map(|r| pieces[r.publisher].pop_front().expect("one piece per run"))
        .collect()
}

/// One planned run: the tuples of publisher `publisher`'s (position in
/// the map) queued batch `batch` from where its previous run ended up
/// to `end`.
struct Run {
    publisher: usize,
    batch: usize,
    end: usize,
}

/// The plan pass of [`release`]: walk virtual cursors through the
/// queues, one run per step.
fn plan_runs(pubs: &BTreeMap<u64, PubState>) -> Vec<Run> {
    let states: Vec<(u64, &PubState)> = pubs.iter().map(|(&id, p)| (id, p)).collect();
    // Per publisher: (batch index, offset) of the next unplanned tuple.
    let mut cursor = vec![(0usize, 0usize); states.len()];
    let front = |cursor: &[(usize, usize)], i: usize| -> Option<u64> {
        let (b, o) = cursor[i];
        states[i].1.queue.get(b).map(|(_, _, batch)| batch.ts_at(o))
    };
    let mut plan = Vec::new();
    loop {
        let best = (0..states.len())
            .filter_map(|i| front(&cursor, i).map(|ts| (ts, states[i].0, i)))
            .min();
        let Some((ts, id, i)) = best else { break };
        // The smallest key any other publisher could release next: its
        // queue front, or — queue drained but unfinished — its watermark
        // (its next tuple may tie it, and ties break by id).
        let bound = (0..states.len())
            .filter(|&j| j != i)
            .filter_map(|j| match front(&cursor, j) {
                Some(ts) => Some((ts, states[j].0)),
                None if !states[j].1.finished => Some((states[j].1.last_ts, states[j].0)),
                None => None,
            })
            .min();
        if bound.is_some_and(|bound| (ts, id) > bound) {
            break; // an idle publisher may still send something older
        }
        let (b, o) = cursor[i];
        let batch = &states[i].1.queue[b].2;
        let end = match bound {
            None => batch.len(),
            Some(bound) => partition_point(o, batch.len(), |k| (batch.ts_at(k), id) < bound),
        };
        plan.push(Run {
            publisher: i,
            batch: b,
            end,
        });
        cursor[i] = if end == batch.len() {
            (b + 1, 0)
        } else {
            (b, end)
        };
    }
    plan
}

/// The first index in `lo..hi` where `pred` turns false (`pred` holds on
/// a prefix of the range; `hi` when it holds throughout).
fn partition_point(mut lo: usize, mut hi: usize, pred: impl Fn(usize) -> bool) -> usize {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Cut released runs into session pushes of at most `batch_size`
/// tuples, in order. A run joins the push before it when both address
/// the same `(node, port)`, their layouts agree (both columnar over one
/// schema `Arc`, or both rows) and the sum fits; a longer run is cut
/// from the back, so each tuple moves at most once, and its short last
/// piece stays open for the runs after it.
pub(crate) fn chunk(
    runs: Vec<(NodeId, usize, Batch)>,
    batch_size: usize,
) -> Vec<(NodeId, usize, Batch)> {
    let batch_size = batch_size.max(1);
    let mut out: Vec<(NodeId, usize, Batch)> = Vec::with_capacity(runs.len());
    for (node, port, mut run) in runs {
        if let Some((n, p, open)) = out.last_mut() {
            if *n == node
                && *p == port
                && open.len() + run.len() <= batch_size
                && open.can_append(&run)
            {
                open.append(run);
                continue;
            }
        }
        let first = out.len();
        while run.len() > batch_size {
            let at = (run.len() - 1) / batch_size * batch_size;
            out.push((node, port, run.split_off(at)));
        }
        out.push((node, port, run));
        out[first..].reverse();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;
    use ustream_core::schema::{DataType, Schema};
    use ustream_core::{Tuple, Value};

    /// The per-tuple merge the ts-run merge replaced, kept as the
    /// oracle: one tuple per step, every publisher's queue front
    /// rescanned each time.
    #[derive(Default)]
    struct OraclePub {
        queue: VecDeque<(NodeId, usize, Tuple)>,
        last_ts: u64,
        finished: bool,
    }

    fn oracle_release(pubs: &mut BTreeMap<u64, OraclePub>) -> Vec<(NodeId, usize, Tuple)> {
        let mut out = Vec::new();
        loop {
            let mut best: Option<(u64, u64)> = None;
            for (&id, p) in pubs.iter() {
                if let Some((_, _, t)) = p.queue.front() {
                    let key = (t.ts, id);
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                }
            }
            let Some((ts, pid)) = best else { break };
            let blocked = pubs.iter().any(|(&id, p)| {
                id != pid
                    && !p.finished
                    && p.queue.is_empty()
                    && (p.last_ts < ts || (p.last_ts == ts && id < pid))
            });
            if blocked {
                break;
            }
            let entry = pubs.get_mut(&pid).unwrap().queue.pop_front().unwrap();
            out.push(entry);
        }
        out
    }

    /// A comparable rendering of one released tuple and its address.
    fn render(node: NodeId, port: usize, t: &Tuple) -> String {
        format!("{}:{port}:{t:?}", node.index())
    }

    fn flatten(runs: Vec<(NodeId, usize, Batch)>) -> Vec<String> {
        runs.into_iter()
            .flat_map(|(n, p, b)| {
                b.into_vec()
                    .iter()
                    .map(|t| render(n, p, t))
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    enum Step {
        Publish {
            id: u64,
            node: NodeId,
            port: usize,
            rows: Vec<Tuple>,
            columnar: bool,
        },
        Heartbeat {
            id: u64,
            watermark: u64,
        },
        Finish {
            id: u64,
        },
    }

    /// A seeded script: 1–4 publishers, each with a ts-nondecreasing
    /// stream (steps of 0–2 so equal-ts ties across publishers are
    /// common), frames of 1–24 tuples to one of two destinations, some
    /// publishers only ever heartbeating, some finishing mid-script.
    fn script(seed: u64) -> Vec<Step> {
        let mut rng = StdRng::seed_from_u64(seed);
        let schemas = [
            Schema::builder().field("v", DataType::Int).build(),
            Schema::builder().field("w", DataType::Float).build(),
        ];
        let n_pubs = rng.gen_range(1..=4u64);
        let heartbeat_only: Vec<bool> = (0..n_pubs).map(|_| rng.gen_bool(0.2)).collect();
        let mut clock = vec![rng.gen_range(0..4u64); n_pubs as usize];
        let mut finished = vec![false; n_pubs as usize];
        let mut steps = Vec::new();
        let mut serial = 0i64;
        for _ in 0..rng.gen_range(4..40usize) {
            let k = rng.gen_range(0..n_pubs) as usize;
            if finished[k] {
                continue;
            }
            let id = k as u64 + 1;
            let roll = rng.gen_range(0..20u32);
            if roll == 0 {
                finished[k] = true;
                steps.push(Step::Finish { id });
            } else if heartbeat_only[k] || roll < 4 {
                clock[k] += rng.gen_range(0..3u64);
                steps.push(Step::Heartbeat {
                    id,
                    watermark: clock[k],
                });
            } else {
                let dest = rng.gen_range(0..2usize);
                let schema = &schemas[dest];
                let rows: Vec<Tuple> = (0..rng.gen_range(1..=24usize))
                    .map(|_| {
                        clock[k] += rng.gen_range(0..3u64);
                        serial += 1;
                        let v = if dest == 0 {
                            Value::from(serial)
                        } else {
                            Value::Float(serial as f64)
                        };
                        Tuple::new(schema.clone(), vec![v], clock[k])
                    })
                    .collect();
                steps.push(Step::Publish {
                    id,
                    node: NodeId::from_index(dest),
                    port: dest,
                    rows,
                    columnar: rng.gen_bool(0.7),
                });
            }
        }
        // Every publisher finishes in the end, so the tail drains fully.
        for (k, done) in finished.iter().enumerate() {
            if !done {
                steps.push(Step::Finish { id: k as u64 + 1 });
            }
        }
        steps
    }

    #[test]
    fn ts_run_merge_matches_the_per_tuple_merge() {
        let (mut split_runs, mut multi_pub_cases) = (0usize, 0usize);
        for seed in 0..600u64 {
            let steps = script(seed);
            let mut pubs: BTreeMap<u64, PubState> = BTreeMap::new();
            let mut oracle: BTreeMap<u64, OraclePub> = BTreeMap::new();
            let batch_size = StdRng::seed_from_u64(seed ^ 0xBA7C).gen_range(1..=32usize);
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for step in steps {
                match step {
                    Step::Publish {
                        id,
                        node,
                        port,
                        rows,
                        columnar,
                    } => {
                        let o = oracle.entry(id).or_default();
                        if !o.finished {
                            for t in &rows {
                                o.last_ts = o.last_ts.max(t.ts);
                                o.queue.push_back((node, port, t.clone()));
                            }
                        }
                        let mut batch = Batch::from(rows);
                        if columnar {
                            assert!(batch.columnarize());
                        }
                        pubs.entry(id).or_default().enqueue(node, port, batch);
                    }
                    Step::Heartbeat { id, watermark } => {
                        pubs.entry(id).or_default().heartbeat(watermark);
                        let o = oracle.entry(id).or_default();
                        if !o.finished {
                            o.last_ts = o.last_ts.max(watermark);
                        }
                    }
                    Step::Finish { id } => {
                        pubs.entry(id).or_default().finished = true;
                        oracle.entry(id).or_default().finished = true;
                    }
                }
                let queued = |pubs: &BTreeMap<u64, PubState>| -> usize {
                    pubs.values().map(|p| p.queue.len()).sum()
                };
                let before = queued(&pubs);
                let runs = release(&mut pubs);
                // Runs beyond the batches that left the queues whole are
                // mid-batch splits.
                split_runs += runs.len() - (before - queued(&pubs));
                let chunks = chunk(runs, batch_size);
                assert!(chunks
                    .iter()
                    .all(|(_, _, b)| b.len() <= batch_size && !b.is_empty()));
                got.extend(flatten(chunks));
                want.extend(
                    oracle_release(&mut oracle)
                        .iter()
                        .map(|(n, p, t)| render(*n, *p, t)),
                );
                assert_eq!(got, want, "seed {seed}: released sequences diverge");
                // The queues hold exactly what the oracle still holds.
                for (id, p) in &pubs {
                    let left: usize = p.queue.iter().map(|(_, _, b)| b.len()).sum();
                    assert_eq!(left, oracle[id].queue.len(), "seed {seed}, publisher {id}");
                    assert_eq!(p.last_ts, oracle[id].last_ts);
                }
            }
            assert!(pubs.values().all(|p| p.queue.is_empty()), "seed {seed}");
            if pubs.len() > 1 {
                multi_pub_cases += 1;
            }
        }
        assert!(
            multi_pub_cases > 300,
            "{multi_pub_cases} multi-publisher cases"
        );
        assert!(split_runs > 200, "{split_runs} mid-batch splits");
    }

    #[test]
    fn a_lone_publisher_passes_whole_frames_through() {
        let schema = Schema::builder().field("v", DataType::Int).build();
        let frame = |from: u64| {
            let mut b: Batch = (from..from + 512)
                .map(|ts| Tuple::new(schema.clone(), vec![Value::from(ts as i64)], ts))
                .collect();
            b.columnarize();
            b
        };
        let mut pubs: BTreeMap<u64, PubState> = BTreeMap::new();
        let p = pubs.entry(7).or_default();
        p.enqueue(NodeId::from_index(0), 0, frame(0));
        p.enqueue(NodeId::from_index(0), 0, frame(512));
        let runs = release(&mut pubs);
        assert_eq!(runs.len(), 2, "one run per frame, no split");
        assert!(runs
            .iter()
            .all(|(_, _, b)| b.len() == 512 && b.is_columnar()));
        assert!(Arc::ptr_eq(runs[0].2.shared_schema().unwrap(), &schema));
        // A paced 5,000-tuple run cuts into full pushes and a short tail.
        let mut big = frame(1024);
        for k in 1..10 {
            big.append(frame(1024 + 512 * k));
        }
        let big = big.split_off(120);
        assert_eq!(big.len(), 5000);
        let sizes: Vec<usize> = chunk(vec![(NodeId::from_index(0), 0, big)], 512)
            .iter()
            .map(|(_, _, b)| b.len())
            .collect();
        assert_eq!(sizes, [vec![512; 9], vec![392]].concat());
    }
}
