//! `EventJournal` ring semantics under wraparound and concurrency:
//! sequence continuity across evictions, `recent(n)` ordering, and
//! concurrent writers.

use std::thread;
use ustream_telemetry::{EventJournal, TraceDetail};

fn pump(node: usize) -> TraceDetail {
    TraceDetail::BatchPumped {
        node,
        port: 0,
        tuples: 1,
    }
}

#[test]
fn wraparound_keeps_seq_continuity() {
    let capacity = 8;
    let j = EventJournal::new(capacity);
    // 10x the capacity: the ring wraps many times over.
    for i in 0..capacity * 10 {
        j.record(pump(i));
    }
    let events = j.all();
    assert_eq!(events.len(), capacity, "ring bounded at capacity");
    // The retained window is exactly the newest `capacity` events,
    // consecutive with no gaps and no duplicates.
    let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
    let expect: Vec<u64> = ((capacity * 9) as u64..(capacity * 10) as u64).collect();
    assert_eq!(seqs, expect);
    assert_eq!(j.recorded(), (capacity * 10) as u64);
    // The payloads track the sequence numbers (eviction never
    // reorders or mixes entries).
    for e in &events {
        assert_eq!(e.detail, pump(e.seq as usize));
    }
}

#[test]
fn recent_n_is_the_newest_suffix_oldest_first() {
    let j = EventJournal::new(16);
    for i in 0..40 {
        j.record(pump(i));
    }
    // Asking for more than retained returns everything retained.
    assert_eq!(j.recent(999).len(), 16);
    for n in [1usize, 2, 5, 16] {
        let r = j.recent(n);
        assert_eq!(r.len(), n);
        let seqs: Vec<u64> = r.iter().map(|e| e.seq).collect();
        let expect: Vec<u64> = (40 - n as u64..40).collect();
        assert_eq!(
            seqs, expect,
            "recent({n}) is the newest suffix, oldest first"
        );
    }
    assert!(j.recent(0).is_empty());
}

#[test]
fn concurrent_writers_never_tear_the_sequence() {
    let j = EventJournal::new(256);
    let writers = 4;
    let per_writer = 2_000usize;
    let handles: Vec<_> = (0..writers)
        .map(|w| {
            let j = j.clone();
            thread::spawn(move || {
                for i in 0..per_writer {
                    j.record(pump(w * per_writer + i));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(j.recorded(), (writers * per_writer) as u64);
    // Retained events are strictly increasing with no duplicates:
    // eviction under contention loses only the oldest entries.
    let seqs: Vec<u64> = j.all().iter().map(|e| e.seq).collect();
    assert_eq!(seqs.len(), 256);
    assert!(
        seqs.windows(2).all(|w| w[0] < w[1]),
        "seq order torn: {seqs:?}"
    );
}
