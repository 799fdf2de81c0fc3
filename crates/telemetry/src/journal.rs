//! A bounded, structured event journal: the engine's flight recorder.
//!
//! Counters say *how much*; the journal says *what happened, in what
//! order*. Each [`TraceEvent`] carries a monotonic sequence number
//! assigned at record time, so interleavings across subsystems are
//! reconstructible even after the bounded ring has evicted older
//! entries.
//!
//! The ring itself is a mutex-guarded deque: events are batch-, window-
//! and session-granular (never per-tuple), so the lock is touched a few
//! times per engine pump, far off any per-tuple path.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceDetail {
    /// A batch entered the engine at `(node, port)`.
    BatchPumped {
        node: usize,
        port: usize,
        tuples: usize,
    },
    /// A watermark advance sealed windows and released output.
    WindowSealed {
        stage: usize,
        watermark: u64,
        released: usize,
    },
    /// A batch was routed to `(stage, shard)`.
    ShardRouted {
        stage: usize,
        shard: usize,
        tuples: usize,
    },
    /// Sealed exchange output was forwarded downstream to `stage`.
    ExchangeForwarded { stage: usize, tuples: usize },
    /// A publisher vanished; its session parked under a lease.
    LeaseParked { session: u64 },
    /// A parked session was resumed before its lease ran out.
    LeaseResumed { session: u64 },
    /// A parked session's lease expired unresumed.
    LeaseExpired { session: u64 },
    /// A subscriber was told it missed `missed` result frames.
    GapEmitted { subscriber: u64, missed: u64 },
    /// The health watchdog's overall status transitioned.
    HealthChanged {
        from: crate::health::HealthStatus,
        to: crate::health::HealthStatus,
    },
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotonic across the journal; gaps mean the ring evicted
    /// entries.
    pub seq: u64,
    pub detail: TraceDetail,
}

/// Bounded journal handle; `Clone` shares the ring.
#[derive(Debug, Clone)]
pub struct EventJournal {
    inner: Arc<JournalInner>,
}

#[derive(Debug)]
struct JournalInner {
    seq: AtomicU64,
    capacity: usize,
    ring: Mutex<VecDeque<TraceEvent>>,
}

impl EventJournal {
    /// A journal retaining the newest `capacity` events.
    pub fn new(capacity: usize) -> EventJournal {
        EventJournal {
            inner: Arc::new(JournalInner {
                seq: AtomicU64::new(0),
                capacity: capacity.max(1),
                ring: Mutex::new(VecDeque::new()),
            }),
        }
    }

    /// Record an event; returns its sequence number.
    pub fn record(&self, detail: TraceDetail) -> u64 {
        let inner = &*self.inner;
        let mut ring = inner.ring.lock().unwrap_or_else(|p| p.into_inner());
        // Sequence numbers are claimed under the ring lock so retained
        // events are always in seq order, even with concurrent writers.
        let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
        if ring.len() == inner.capacity {
            ring.pop_front();
        }
        ring.push_back(TraceEvent { seq, detail });
        seq
    }

    /// Total events ever recorded (≥ the ring's current length).
    pub fn recorded(&self) -> u64 {
        self.inner.seq.load(Ordering::Relaxed)
    }

    /// The newest retained events, oldest first.
    pub fn recent(&self, n: usize) -> Vec<TraceEvent> {
        let ring = self.inner.ring.lock().unwrap_or_else(|p| p.into_inner());
        ring.iter().rev().take(n).rev().cloned().collect()
    }

    /// Every retained event, oldest first.
    pub fn all(&self) -> Vec<TraceEvent> {
        let ring = self.inner.ring.lock().unwrap_or_else(|p| p.into_inner());
        ring.iter().cloned().collect()
    }
}

impl Default for EventJournal {
    fn default() -> Self {
        EventJournal::new(1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_is_monotonic_and_ring_bounded() {
        let j = EventJournal::new(4);
        for i in 0..10 {
            j.record(TraceDetail::BatchPumped {
                node: i,
                port: 0,
                tuples: 1,
            });
        }
        let events = j.all();
        assert_eq!(events.len(), 4, "ring keeps the newest 4");
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert_eq!(j.recorded(), 10);
    }

    #[test]
    fn recent_returns_newest_in_order() {
        let j = EventJournal::new(16);
        for i in 0..6 {
            j.record(TraceDetail::ExchangeForwarded {
                stage: i,
                tuples: 1,
            });
        }
        let last2 = j.recent(2);
        assert_eq!(last2.len(), 2);
        assert_eq!(last2[0].seq, 4);
        assert_eq!(last2[1].seq, 5);
    }
}
