//! Batches: the unit of data movement in the batched execution engine.
//!
//! A [`Batch`] is a run of tuples shipped through the query graph
//! together. Moving tuples in batches amortizes per-delivery costs
//! (dispatch and allocation in every executor, worker-inbox
//! synchronization in the sharded runtime) roughly batch-size-fold,
//! which is what high-volume stream processing needs (§1's "must keep up
//! with stream speed").
//!
//! The key fast path is [`Batch::shared_schema`]: input streams build
//! every tuple against one `Arc<Schema>`, so operators can resolve field
//! names to indices **once per batch** instead of once per tuple.
//!
//! A batch carries its tuples in one of two layouts:
//!
//! - **rows** — the original `Vec<Tuple>`;
//! - **columnar** — a [`Columns`] decomposition into per-field typed
//!   arrays (see [`crate::columnar`]), produced by the feed chunker and
//!   the wire decoder for same-schema runs.
//!
//! At most one layout is populated. Row-oriented accessors that can take
//! `&mut self` or `self` ([`Batch::iter_mut`], [`Batch::retain_mut`],
//! [`Batch::into_vec`], the owned iterator) transparently *hydrate* a
//! columnar batch back to rows — losslessly, so an operator without a
//! vectorized path behaves exactly as before. The shared-reference
//! accessors ([`Batch::iter`], [`Batch::as_slice`]) cannot hydrate and
//! panic on columnar batches; engine code that may see columnar input
//! either takes the columns ([`Batch::take_columns`]) or hydrates first.

use crate::columnar::Columns;
use crate::schema::Schema;
use crate::tuple::Tuple;
use std::sync::{Arc, Mutex};

/// An ordered run of tuples moving through the graph together.
///
/// Order within a batch is significant — operators see tuples in exactly
/// the sequence they would have arrived one at a time.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    tuples: Vec<Tuple>,
    /// Columnar layout, populated only while `tuples` is empty.
    cols: Option<Columns>,
}

impl Batch {
    pub fn new() -> Self {
        Batch {
            tuples: Vec::new(),
            cols: None,
        }
    }

    pub fn with_capacity(n: usize) -> Self {
        Batch {
            tuples: Vec::with_capacity(n),
            cols: None,
        }
    }

    /// A batch of one (tuple-at-a-time execution is batch-size-1).
    pub fn one(tuple: Tuple) -> Self {
        Batch {
            tuples: vec![tuple],
            cols: None,
        }
    }

    /// Wrap a columnar decomposition as a batch.
    pub fn from_columns(cols: Columns) -> Self {
        Batch {
            tuples: Vec::new(),
            cols: Some(cols),
        }
    }

    /// Whether this batch currently holds columnar data.
    pub fn is_columnar(&self) -> bool {
        self.cols.as_ref().is_some_and(|c| !c.is_empty())
    }

    /// The columnar layout, when populated.
    pub fn columns(&self) -> Option<&Columns> {
        self.cols.as_ref().filter(|c| !c.is_empty())
    }

    /// Take the columnar layout out, leaving an empty batch.
    pub fn take_columns(&mut self) -> Option<Columns> {
        self.cols.take().filter(|c| !c.is_empty())
    }

    /// Convert rows to the columnar layout when every tuple shares one
    /// schema `Arc`; no-op (returning false) otherwise.
    pub fn columnarize(&mut self) -> bool {
        if self.is_columnar() {
            return true;
        }
        if self.tuples.is_empty() {
            return false;
        }
        match Columns::from_rows(std::mem::take(&mut self.tuples)) {
            Ok(cols) => {
                self.cols = Some(cols);
                true
            }
            Err(rows) => {
                self.tuples = rows;
                false
            }
        }
    }

    /// Hydrate a columnar batch back to rows (lossless); no-op on rows.
    pub fn hydrate(&mut self) {
        if let Some(cols) = self.cols.take() {
            debug_assert!(self.tuples.is_empty(), "dual-layout batch");
            if self.tuples.is_empty() {
                self.tuples = cols.into_rows();
            } else {
                self.tuples.extend(cols.into_rows());
            }
        }
    }

    pub fn len(&self) -> usize {
        self.tuples.len() + self.cols.as_ref().map_or(0, |c| c.len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The highest timestamp in the batch, layout-independent.
    pub fn max_ts(&self) -> Option<u64> {
        match self.columns() {
            Some(c) => c.max_ts(),
            None => self.tuples.iter().map(|t| t.ts).max(),
        }
    }

    pub fn push(&mut self, t: Tuple) {
        match &mut self.cols {
            Some(cols) if Arc::ptr_eq(cols.schema(), t.schema()) => cols.push_row(t),
            _ => {
                self.hydrate();
                self.tuples.push(t);
            }
        }
    }

    /// Row iterator. Panics on a columnar batch — a `&self` borrow
    /// cannot hydrate; use [`Batch::hydrate`] (or an owning accessor)
    /// first.
    pub fn iter(&self) -> std::slice::Iter<'_, Tuple> {
        assert!(
            !self.is_columnar(),
            "Batch::iter on a columnar batch — hydrate first"
        );
        self.tuples.iter()
    }

    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, Tuple> {
        self.hydrate();
        self.tuples.iter_mut()
    }

    /// Row slice. Panics on a columnar batch (see [`Batch::iter`]).
    pub fn as_slice(&self) -> &[Tuple] {
        assert!(
            !self.is_columnar(),
            "Batch::as_slice on a columnar batch — hydrate first"
        );
        &self.tuples
    }

    pub fn into_vec(mut self) -> Vec<Tuple> {
        self.hydrate();
        self.tuples
    }

    /// Keep only tuples for which `f` returns true, mutating in place —
    /// the allocation-free shape of a batched filter.
    pub fn retain_mut(&mut self, f: impl FnMut(&mut Tuple) -> bool) {
        self.hydrate();
        self.tuples.retain_mut(f);
    }

    /// The schema shared by **every** tuple in the batch, when there is
    /// one (pointer equality on the `Arc`). `None` for empty or
    /// mixed-schema batches; operators then fall back to per-tuple
    /// resolution. Columnar batches always have one.
    pub fn shared_schema(&self) -> Option<&Arc<Schema>> {
        if let Some(cols) = self.columns() {
            return Some(cols.schema());
        }
        let first = self.tuples.first()?.schema();
        if self
            .tuples
            .iter()
            .skip(1)
            .all(|t| Arc::ptr_eq(t.schema(), first))
        {
            Some(first)
        } else {
            None
        }
    }

    /// The timestamp of tuple `i`, layout-independent. Panics when `i`
    /// is out of range.
    pub fn ts_at(&self, i: usize) -> u64 {
        match self.columns() {
            Some(c) => c.ts()[i],
            None => self.tuples[i].ts,
        }
    }

    /// Split off the tail starting at tuple `at`, keeping the layout
    /// (cf. `Vec::split_off`): only the tail moves.
    pub fn split_off(&mut self, at: usize) -> Batch {
        match &mut self.cols {
            Some(cols) if !cols.is_empty() => Batch::from_columns(cols.split_off(at)),
            _ => Batch::from(self.tuples.split_off(at)),
        }
    }

    /// Whether [`Batch::append`] accepts `other`: the layouts agree
    /// (both rows, or both columnar over one schema `Arc`), or either
    /// side is empty.
    pub fn can_append(&self, other: &Batch) -> bool {
        if self.is_empty() || other.is_empty() {
            return true;
        }
        match (self.columns(), other.columns()) {
            (Some(mine), Some(theirs)) => Arc::ptr_eq(mine.schema(), theirs.schema()),
            (None, None) => true,
            _ => false,
        }
    }

    /// Moving append of `other`, keeping the layout. Panics unless
    /// [`Batch::can_append`] holds.
    pub fn append(&mut self, mut other: Batch) {
        assert!(self.can_append(&other), "Batch::append across layouts");
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = other;
            return;
        }
        match self.cols.as_mut() {
            Some(mine) => mine.append(other.take_columns().expect("checked columnar")),
            None => self.tuples.append(&mut other.tuples),
        }
    }
}

/// A shared free list of tuple buffers, cutting allocator traffic where
/// the engine itself creates and retires batches on the hot path: the
/// feed chunker that cuts input streams into batches, the sharded
/// runtime's router that splits chunks into per-shard sub-batches, and
/// the sink-collection step that drains arrived batches into result
/// vectors.
///
/// Cloning is cheap (`Arc`); the same pool may be shared by a driver
/// thread taking buffers and worker threads returning them. Buffers keep
/// their capacity across reuse; at most `max_buffers` are retained so a
/// burst cannot pin memory forever.
#[derive(Debug, Clone)]
pub struct BatchPool {
    free: Arc<Mutex<Vec<Vec<Tuple>>>>,
    max_buffers: usize,
}

impl Default for BatchPool {
    fn default() -> Self {
        BatchPool::new(64)
    }
}

impl BatchPool {
    pub fn new(max_buffers: usize) -> Self {
        BatchPool {
            free: Arc::new(Mutex::new(Vec::new())),
            max_buffers,
        }
    }

    /// An empty batch backed by a recycled buffer when one is available,
    /// or a fresh allocation of `capacity` otherwise.
    pub fn take(&self, capacity: usize) -> Batch {
        let buf = self.free.lock().expect("batch pool poisoned").pop();
        match buf {
            Some(buf) => Batch {
                tuples: buf,
                cols: None,
            },
            None => Batch::with_capacity(capacity),
        }
    }

    /// Return a spent buffer to the pool. Tuples still inside are
    /// dropped; the allocation survives for the next [`BatchPool::take`].
    pub fn put(&self, mut buf: Vec<Tuple>) {
        if buf.capacity() == 0 {
            return;
        }
        buf.clear();
        let mut free = self.free.lock().expect("batch pool poisoned");
        if free.len() < self.max_buffers {
            free.push(buf);
        }
    }

    /// [`BatchPool::put`] for a whole batch. Columnar storage is simply
    /// dropped — only row buffers are worth pooling.
    pub fn recycle(&self, batch: Batch) {
        self.put(batch.tuples);
    }

    /// Number of buffers currently pooled.
    pub fn free_buffers(&self) -> usize {
        self.free.lock().expect("batch pool poisoned").len()
    }
}

impl From<Vec<Tuple>> for Batch {
    fn from(tuples: Vec<Tuple>) -> Self {
        Batch { tuples, cols: None }
    }
}

impl From<Batch> for Vec<Tuple> {
    fn from(b: Batch) -> Self {
        b.into_vec()
    }
}

impl Extend<Tuple> for Batch {
    fn extend<I: IntoIterator<Item = Tuple>>(&mut self, iter: I) {
        self.hydrate();
        self.tuples.extend(iter);
    }
}

impl IntoIterator for Batch {
    type Item = Tuple;
    type IntoIter = std::vec::IntoIter<Tuple>;

    fn into_iter(self) -> Self::IntoIter {
        self.into_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Batch {
    type Item = &'a Tuple;
    type IntoIter = std::slice::Iter<'a, Tuple>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl FromIterator<Tuple> for Batch {
    fn from_iter<I: IntoIterator<Item = Tuple>>(iter: I) -> Self {
        Batch {
            tuples: iter.into_iter().collect(),
            cols: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Schema};
    use crate::value::Value;

    fn t(schema: &Arc<Schema>, v: i64) -> Tuple {
        Tuple::new(schema.clone(), vec![Value::from(v)], v as u64)
    }

    #[test]
    fn shared_schema_fast_path() {
        let s = Schema::builder().field("v", DataType::Int).build();
        let b: Batch = vec![t(&s, 1), t(&s, 2), t(&s, 3)].into();
        assert!(Arc::ptr_eq(b.shared_schema().unwrap(), &s));
    }

    #[test]
    fn mixed_schemas_disable_fast_path() {
        let s1 = Schema::builder().field("v", DataType::Int).build();
        let s2 = Schema::builder().field("v", DataType::Int).build();
        let b: Batch = vec![t(&s1, 1), t(&s2, 2)].into();
        assert!(b.shared_schema().is_none(), "distinct Arcs, no fast path");
        assert!(Batch::new().shared_schema().is_none());
    }

    #[test]
    fn retain_mut_filters_in_place() {
        let s = Schema::builder().field("v", DataType::Int).build();
        let mut b: Batch = (0..10).map(|i| t(&s, i)).collect();
        b.retain_mut(|t| t.int("v").unwrap() % 2 == 0);
        assert_eq!(b.len(), 5);
    }

    #[test]
    fn pool_reuses_buffers_and_bounds_retention() {
        let s = Schema::builder().field("v", DataType::Int).build();
        let pool = BatchPool::new(2);
        let mut b = pool.take(8);
        assert_eq!(b.len(), 0);
        b.push(t(&s, 1));
        let cap = {
            let v: Vec<Tuple> = b.into_vec();
            let cap = v.capacity();
            pool.put(v);
            cap
        };
        assert_eq!(pool.free_buffers(), 1);
        // Reuse keeps the allocation and hands back an empty batch.
        let b2 = pool.take(0);
        assert!(b2.is_empty());
        assert!(b2.tuples.capacity() >= cap.min(1));
        // Retention is bounded by max_buffers.
        pool.put(Vec::with_capacity(4));
        pool.put(Vec::with_capacity(4));
        pool.put(Vec::with_capacity(4));
        assert_eq!(pool.free_buffers(), 2);
        // Capacity-0 buffers are not worth pooling.
        pool.recycle(Batch::new());
        assert_eq!(pool.free_buffers(), 2);
    }

    #[test]
    fn round_trips_vec() {
        let s = Schema::builder().field("v", DataType::Int).build();
        let mut b = Batch::one(t(&s, 7));
        b.push(t(&s, 8));
        let v: Vec<Tuple> = b.into_vec();
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn columnarize_and_hydrate_round_trip() {
        let s = Schema::builder().field("v", DataType::Int).build();
        let rows: Vec<Tuple> = (0..5).map(|i| t(&s, i)).collect();
        let rendered: Vec<String> = rows.iter().map(|t| format!("{t:?}")).collect();
        let mut b: Batch = rows.into();
        assert!(b.columnarize());
        assert!(b.is_columnar());
        assert_eq!(b.len(), 5);
        assert_eq!(b.max_ts(), Some(4));
        assert!(Arc::ptr_eq(b.shared_schema().unwrap(), &s));
        let back = b.into_vec();
        let back_rendered: Vec<String> = back.iter().map(|t| format!("{t:?}")).collect();
        assert_eq!(back_rendered, rendered);
    }

    #[test]
    fn push_into_columnar_batch_keeps_order() {
        let s = Schema::builder().field("v", DataType::Int).build();
        let mut b: Batch = (0..3).map(|i| t(&s, i)).collect();
        b.columnarize();
        b.push(t(&s, 3));
        assert!(b.is_columnar(), "same-schema push stays columnar");
        let vs: Vec<i64> = b.into_vec().iter().map(|t| t.int("v").unwrap()).collect();
        assert_eq!(vs, vec![0, 1, 2, 3]);
    }

    fn values(b: Batch) -> Vec<i64> {
        b.into_vec().iter().map(|t| t.int("v").unwrap()).collect()
    }

    #[test]
    fn split_off_and_append_keep_layout_and_order() {
        let s = Schema::builder().field("v", DataType::Int).build();
        for columnar in [false, true] {
            let mut b: Batch = (0..6).map(|i| t(&s, i)).collect();
            if columnar {
                b.columnarize();
            }
            assert_eq!(b.ts_at(4), 4);
            let tail = b.split_off(4);
            assert_eq!((b.is_columnar(), tail.is_columnar()), (columnar, columnar));
            assert_eq!(tail.ts_at(0), 4);
            let mut head = b.clone();
            head.append(tail);
            assert_eq!(head.is_columnar(), columnar);
            assert_eq!(values(head), vec![0, 1, 2, 3, 4, 5]);
            b.append(Batch::new());
            assert_eq!(b.len(), 4);
        }
        // Layouts that disagree do not append.
        let rows: Batch = (0..2).map(|i| t(&s, i)).collect();
        let mut cols: Batch = (2..4).map(|i| t(&s, i)).collect();
        cols.columnarize();
        assert!(!rows.can_append(&cols) && !cols.can_append(&rows));
        // Nor do columnar batches over different schema Arcs.
        let other = Schema::builder().field("v", DataType::Int).build();
        let mut theirs: Batch = (4..6).map(|i| t(&other, i)).collect();
        theirs.columnarize();
        assert!(!cols.can_append(&theirs));
        let mut empty = Batch::new();
        assert!(empty.can_append(&cols));
        empty.append(cols);
        assert_eq!(values(empty), vec![2, 3]);
    }

    #[test]
    #[should_panic(expected = "hydrate first")]
    fn iter_refuses_columnar() {
        let s = Schema::builder().field("v", DataType::Int).build();
        let mut b: Batch = (0..3).map(|i| t(&s, i)).collect();
        b.columnarize();
        let _ = b.iter();
    }
}
