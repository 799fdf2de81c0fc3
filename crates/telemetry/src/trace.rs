//! Causal batch tracing: deterministically sampled trace IDs with
//! bounded span storage.
//!
//! Counters aggregate and the journal orders events, but neither can
//! answer *why this result was slow*: that needs one batch followed
//! causally through pump → route → exchange-forward → seal → emit with
//! nanosecond timings at each hop. [`TraceStore`] is that layer's
//! substrate:
//!
//! - **Deterministic sampling.** [`TraceStore::sample`] elects 1-in-N
//!   batches by their publish ordinal (`(ordinal + seed) % every == 0`),
//!   so the *same* batches are traced on every run of the same feed —
//!   a reproduction run traces the same work the incident did. The
//!   trace ID itself is a seeded hash of the ordinal, stable for the
//!   same `(ordinal, seed)` pair.
//! - **Zero cost when off or unsampled.** An unsampled batch pays one
//!   relaxed load and a modulo — no allocation, no clock read, no
//!   lock. With `every == 0` (the default) the store is inert.
//! - **Bounded.** Spans land in a mutex-guarded ring that retains the
//!   newest `capacity` entries; [`TraceStore::recorded`] keeps the
//!   lifetime total so evictions are visible.
//!
//! The engine only ever touches the store at batch granularity
//! (pump/route/seal), never per tuple, so the ring lock stays far off
//! the hot path even for sampled batches.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Where in the pipeline a span was recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A sampled batch entered the engine (`push_batch`). The root of
    /// its trace.
    Pump,
    /// A routed run was delivered into one `(stage, shard)` slot.
    Route,
    /// Sealed exchange-pool input was forwarded into a stage.
    ExchangeForward,
    /// A stage's watermark broadcast + drain barrier (windows closing).
    Seal,
    /// Completed sink output was released to the caller.
    Emit,
}

/// One recorded span: a timed hop of a sampled batch's journey.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Store-assigned, monotonic across the store's lifetime.
    pub seq: u64,
    /// The owning trace (nonzero; shared by every span of one sampled
    /// batch's journey).
    pub trace: u64,
    /// Parent span's `seq` (`None` for the `Pump` root).
    pub parent: Option<u64>,
    pub kind: SpanKind,
    pub stage: usize,
    /// Shard the span is attributed to (0 where the hop is not
    /// shard-specific, e.g. `Seal` covers a whole stage).
    pub shard: usize,
    /// Tuples the hop moved (routed, forwarded, released, ...).
    pub tuples: usize,
    /// Wall time the hop took.
    pub elapsed_ns: u64,
}

/// Bounded span store handle; `Clone` shares the ring and the sampling
/// configuration.
#[derive(Debug, Clone)]
pub struct TraceStore {
    inner: Arc<StoreInner>,
}

#[derive(Debug)]
struct StoreInner {
    /// Sample 1-in-`every` batches; 0 disables tracing entirely.
    every: AtomicU64,
    seed: AtomicU64,
    /// Next span sequence number.
    seq: AtomicU64,
    /// Batches elected by `sample` over the store's lifetime.
    sampled: AtomicU64,
    capacity: usize,
    ring: Mutex<VecDeque<Span>>,
}

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit hash.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl TraceStore {
    /// A store retaining the newest `capacity` spans, sampling
    /// disabled.
    pub fn new(capacity: usize) -> TraceStore {
        TraceStore {
            inner: Arc::new(StoreInner {
                every: AtomicU64::new(0),
                seed: AtomicU64::new(0),
                seq: AtomicU64::new(0),
                sampled: AtomicU64::new(0),
                capacity: capacity.max(1),
                ring: Mutex::new(VecDeque::new()),
            }),
        }
    }

    /// Sample 1-in-`every` batches (by publish ordinal), seeded so the
    /// elected residue class — and the trace IDs — are reproducible.
    /// `every == 0` turns tracing off.
    pub fn configure(&self, every: u64, seed: u64) {
        self.inner.seed.store(seed, Ordering::Relaxed);
        self.inner.every.store(every, Ordering::Relaxed);
    }

    /// Elect or pass over the batch with publish ordinal `ordinal`.
    /// Returns the batch's trace ID when elected. The unsampled path
    /// is one relaxed load plus a modulo: no allocation, no lock.
    #[inline]
    pub fn sample(&self, ordinal: u64) -> Option<u64> {
        let every = self.inner.every.load(Ordering::Relaxed);
        if every == 0 {
            return None;
        }
        let seed = self.inner.seed.load(Ordering::Relaxed);
        if !ordinal.wrapping_add(seed).is_multiple_of(every) {
            return None;
        }
        self.inner.sampled.fetch_add(1, Ordering::Relaxed);
        // Nonzero by construction so 0 can mean "no trace" on wires.
        Some(mix(ordinal ^ seed.rotate_left(32)) | 1)
    }

    /// Record one span; returns its store-assigned sequence number
    /// (the value children pass as `parent`).
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        trace: u64,
        parent: Option<u64>,
        kind: SpanKind,
        stage: usize,
        shard: usize,
        tuples: usize,
        elapsed_ns: u64,
    ) -> u64 {
        let inner = &*self.inner;
        let mut ring = inner.ring.lock().unwrap_or_else(|p| p.into_inner());
        // Claimed under the lock: retained spans are always seq-ordered.
        let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
        let span = Span {
            seq,
            trace,
            parent,
            kind,
            stage,
            shard,
            tuples,
            elapsed_ns,
        };
        if ring.len() == inner.capacity {
            ring.pop_front();
        }
        ring.push_back(span);
        seq
    }

    /// Spans recorded over the store's lifetime (≥ the ring's length).
    pub fn recorded(&self) -> u64 {
        self.inner.seq.load(Ordering::Relaxed)
    }

    /// Batches elected by [`TraceStore::sample`] over the lifetime.
    pub fn sampled(&self) -> u64 {
        self.inner.sampled.load(Ordering::Relaxed)
    }

    /// The newest retained spans, oldest first.
    pub fn recent(&self, n: usize) -> Vec<Span> {
        let ring = self.inner.ring.lock().unwrap_or_else(|p| p.into_inner());
        ring.iter().rev().take(n).rev().cloned().collect()
    }

    /// Every retained span, oldest first.
    pub fn all(&self) -> Vec<Span> {
        let ring = self.inner.ring.lock().unwrap_or_else(|p| p.into_inner());
        ring.iter().cloned().collect()
    }

    /// Two handles over the same ring?
    pub fn same_cell(&self, other: &TraceStore) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl Default for TraceStore {
    /// 4096 spans: several hundred fully-spanned traced batches.
    fn default() -> Self {
        TraceStore::new(4096)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_store_samples_nothing() {
        let t = TraceStore::new(16);
        for i in 0..100 {
            assert!(t.sample(i).is_none());
        }
        assert_eq!(t.sampled(), 0);
        assert_eq!(t.recorded(), 0);
    }

    #[test]
    fn sampling_is_one_in_n_and_deterministic() {
        let t = TraceStore::new(16);
        t.configure(4, 7);
        let elected: Vec<u64> = (0..32).filter(|&i| t.sample(i).is_some()).collect();
        assert_eq!(elected.len(), 8, "1-in-4 over 32 ordinals");
        // Same residue class every time: consecutive elections 4 apart.
        for w in elected.windows(2) {
            assert_eq!(w[1] - w[0], 4);
        }
        // Same (ordinal, seed) → same trace id; different seed → a
        // different residue class or different ids.
        let t2 = TraceStore::new(16);
        t2.configure(4, 7);
        for &i in &elected {
            assert_eq!(t.sample(i), t2.sample(i));
        }
    }

    #[test]
    fn trace_ids_are_nonzero_and_distinct() {
        let t = TraceStore::new(16);
        t.configure(1, 99);
        let ids: Vec<u64> = (0..64).filter_map(|i| t.sample(i)).collect();
        assert_eq!(ids.len(), 64);
        assert!(ids.iter().all(|&id| id != 0));
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "ids collide");
    }

    #[test]
    fn ring_is_bounded_with_monotonic_seq() {
        let t = TraceStore::new(4);
        for i in 0..10 {
            t.record(1, None, SpanKind::Route, 0, i, 1, 5);
        }
        let spans = t.all();
        assert_eq!(spans.len(), 4);
        let seqs: Vec<u64> = spans.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert_eq!(t.recorded(), 10);
    }

    #[test]
    fn parent_links_roundtrip() {
        let t = TraceStore::default();
        let root = t.record(42, None, SpanKind::Pump, 0, 0, 128, 1_000);
        let child = t.record(42, Some(root), SpanKind::Seal, 0, 0, 64, 2_000);
        let spans = t.all();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(root));
        assert!(child > root);
    }
}
