//! Time-based windows (CQL-style, matching the paper's queries:
//! `[Now]`, `[Range 5 seconds]` with `Rstream` semantics).

use crate::tuple::Tuple;
use std::collections::VecDeque;

/// A tumbling (non-overlapping) event-time window. Tuples are assigned to
/// `[k·len, (k+1)·len)`; when a tuple from a later window arrives, the
/// finished window's contents are emitted as a batch — the paper's
/// "tumbling window of size 100 tuples / Range 5 seconds" aggregations
/// operate on these batches.
#[derive(Debug)]
pub struct TumblingWindow {
    len_ms: u64,
    current_start: Option<u64>,
    buf: Vec<Tuple>,
}

/// A closed window batch: its time span and contents.
#[derive(Debug)]
pub struct WindowBatch {
    pub start: u64,
    pub end: u64,
    pub tuples: Vec<Tuple>,
}

impl TumblingWindow {
    pub fn new(len_ms: u64) -> Self {
        assert!(len_ms > 0, "window length must be positive");
        TumblingWindow {
            len_ms,
            current_start: None,
            buf: Vec::new(),
        }
    }

    fn window_start(&self, ts: u64) -> u64 {
        (ts / self.len_ms) * self.len_ms
    }

    /// Insert a tuple; returns any window(s) that closed. Late tuples
    /// (before the current window) are folded into the current window —
    /// a simple, documented lateness policy.
    pub fn push(&mut self, t: Tuple) -> Vec<WindowBatch> {
        let ws = self.window_start(t.ts);
        match self.current_start {
            None => {
                self.current_start = Some(ws);
                self.buf.push(t);
                Vec::new()
            }
            Some(cur) if ws <= cur => {
                self.buf.push(t);
                Vec::new()
            }
            Some(cur) => {
                let batch = WindowBatch {
                    start: cur,
                    end: cur + self.len_ms,
                    tuples: std::mem::take(&mut self.buf),
                };
                self.current_start = Some(ws);
                self.buf.push(t);
                vec![batch]
            }
        }
    }

    /// Close the open window if event time has advanced past its end —
    /// the same trigger [`TumblingWindow::push`] applies when a tuple
    /// from a later window arrives, driven by an external watermark
    /// instead of a tuple. A caller advancing to `watermark` promises no
    /// future tuple with `ts < watermark`; a tuple at exactly
    /// `watermark` would start the next window, so `end ≤ watermark`
    /// closes.
    pub fn close_through(&mut self, watermark: u64) -> Option<WindowBatch> {
        let cur = self.current_start?;
        if cur + self.len_ms > watermark {
            return None;
        }
        self.current_start = None;
        if self.buf.is_empty() {
            return None;
        }
        Some(WindowBatch {
            start: cur,
            end: cur + self.len_ms,
            tuples: std::mem::take(&mut self.buf),
        })
    }

    /// Flush the open window (end of stream).
    pub fn flush(&mut self) -> Option<WindowBatch> {
        let cur = self.current_start.take()?;
        if self.buf.is_empty() {
            return None;
        }
        Some(WindowBatch {
            start: cur,
            end: cur + self.len_ms,
            tuples: std::mem::take(&mut self.buf),
        })
    }

    pub fn pending_len(&self) -> usize {
        self.buf.len()
    }

    /// The open window's tuples, in arrival order.
    pub fn pending(&self) -> &[Tuple] {
        &self.buf
    }

    pub fn len_ms(&self) -> u64 {
        self.len_ms
    }
}

/// A count-based tumbling window (the paper's Table 2 uses "a tumbling
/// window of size of 100 tuples").
#[derive(Debug)]
pub struct CountWindow {
    size: usize,
    buf: Vec<Tuple>,
}

impl CountWindow {
    pub fn new(size: usize) -> Self {
        assert!(size > 0);
        CountWindow {
            size,
            buf: Vec::new(),
        }
    }

    pub fn push(&mut self, t: Tuple) -> Option<Vec<Tuple>> {
        self.buf.push(t);
        if self.buf.len() >= self.size {
            Some(std::mem::take(&mut self.buf))
        } else {
            None
        }
    }

    pub fn flush(&mut self) -> Option<Vec<Tuple>> {
        if self.buf.is_empty() {
            None
        } else {
            Some(std::mem::take(&mut self.buf))
        }
    }

    pub fn pending_len(&self) -> usize {
        self.buf.len()
    }
}

/// A sliding event-time buffer keeping the last `range_ms` of tuples —
/// the `[Range 3 seconds]` join windows of Q2.
#[derive(Debug)]
pub struct SlidingBuffer {
    range_ms: u64,
    buf: VecDeque<Tuple>,
}

impl SlidingBuffer {
    pub fn new(range_ms: u64) -> Self {
        assert!(range_ms > 0);
        SlidingBuffer {
            range_ms,
            buf: VecDeque::new(),
        }
    }

    /// Insert a tuple and evict everything older than `ts − range`.
    /// Returns how many tuples fell off the front, so an index kept
    /// alongside the buffer (e.g. a join key index) can realign.
    pub fn push(&mut self, t: Tuple) -> usize {
        let cutoff = t.ts.saturating_sub(self.range_ms);
        self.buf.push_back(t);
        self.evict_cutoff(cutoff)
    }

    /// Evict against an externally-advanced watermark (e.g. the other
    /// join input's clock), without inserting. Returns the evicted count.
    pub fn evict_before(&mut self, watermark: u64) -> usize {
        let cutoff = watermark.saturating_sub(self.range_ms);
        self.evict_cutoff(cutoff)
    }

    fn evict_cutoff(&mut self, cutoff: u64) -> usize {
        let mut evicted = 0;
        while let Some(front) = self.buf.front() {
            if front.ts < cutoff {
                self.buf.pop_front();
                evicted += 1;
            } else {
                break;
            }
        }
        evicted
    }

    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.buf.iter()
    }

    /// The tuple at position `i` from the front (insertion order), if
    /// still buffered.
    pub fn get(&self, i: usize) -> Option<&Tuple> {
        self.buf.get(i)
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Schema};
    use crate::value::Value;

    fn t(ts: u64) -> Tuple {
        let s = Schema::builder().field("v", DataType::Int).build();
        Tuple::new(s, vec![Value::from(ts as i64)], ts)
    }

    #[test]
    fn tumbling_assigns_and_closes() {
        let mut w = TumblingWindow::new(1000);
        assert!(w.push(t(100)).is_empty());
        assert!(w.push(t(900)).is_empty());
        let closed = w.push(t(1500));
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].start, 0);
        assert_eq!(closed[0].end, 1000);
        assert_eq!(closed[0].tuples.len(), 2);
        assert_eq!(w.pending_len(), 1);
    }

    #[test]
    fn tumbling_flush_emits_open_window() {
        let mut w = TumblingWindow::new(1000);
        w.push(t(100));
        let b = w.flush().unwrap();
        assert_eq!(b.tuples.len(), 1);
        assert!(w.flush().is_none());
    }

    #[test]
    fn tumbling_late_tuples_fold_into_current() {
        let mut w = TumblingWindow::new(1000);
        w.push(t(1500));
        assert!(w.push(t(200)).is_empty()); // late, folded in
        let b = w.flush().unwrap();
        assert_eq!(b.tuples.len(), 2);
    }

    #[test]
    fn tumbling_skips_empty_windows() {
        let mut w = TumblingWindow::new(1000);
        w.push(t(100));
        // Jump several windows ahead: only one close for the old window.
        let closed = w.push(t(5500));
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].start, 0);
    }

    #[test]
    fn count_window_batches() {
        let mut w = CountWindow::new(3);
        assert!(w.push(t(1)).is_none());
        assert!(w.push(t(2)).is_none());
        let batch = w.push(t(3)).unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(w.pending_len(), 0);
        w.push(t(4));
        assert_eq!(w.flush().unwrap().len(), 1);
    }

    #[test]
    fn sliding_buffer_evicts_by_range() {
        let mut b = SlidingBuffer::new(3000);
        assert_eq!(b.push(t(1000)), 0);
        assert_eq!(b.push(t(2000)), 0);
        assert_eq!(b.push(t(4500)), 1, "t=1000 evicted by 4500−3000 cutoff");
        assert_eq!(b.len(), 2);
        assert_eq!(b.get(0).unwrap().ts, 2000);
        assert_eq!(b.evict_before(10_000), 2);
        assert!(b.is_empty());
        assert!(b.get(0).is_none());
    }

    #[test]
    fn sliding_buffer_keeps_in_range() {
        let mut b = SlidingBuffer::new(3000);
        for ts in [0u64, 1000, 2000, 3000] {
            b.push(t(ts));
        }
        assert_eq!(b.len(), 4, "all within 3 s of the newest");
    }
}
