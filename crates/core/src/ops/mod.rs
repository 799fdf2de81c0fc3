//! Query operators (the "boxes" of the box-arrow architecture, §3).
//!
//! Every operator is push-based: `process_batch(port, batch)` returns the
//! output tuples produced so far; `flush` drains state at end of stream
//! (closing open windows). Multi-input operators (join) distinguish inputs
//! by `port`. `process(port, tuple)` is a one-row adapter over
//! `process_batch`, so every operator has exactly one data path.

pub mod aggregate;
pub mod join;
pub mod project;
pub mod select;

use crate::batch::Batch;
use crate::metrics::OpTelemetry;
use crate::tuple::Tuple;
use crate::value::GroupKey;

/// How an operator's internal state constrains key-based sharding — the
/// declaration the sharded runtime reads when it compiles a plan into N
/// parallel shard pipelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partitioning {
    /// Per-tuple operator with no cross-tuple state: its input may be
    /// split across shards arbitrarily and the union of the shard outputs
    /// equals the unsharded output (selection, projection, pass-through).
    Any,
    /// State is partitioned by a key (group-by key, equi-join key):
    /// tuples that map to the same [`Operator::partition_key`] must be
    /// processed by the same shard instance, but distinct keys may run in
    /// parallel.
    Key,
    /// State spans the whole stream (count windows, non-equi joins,
    /// sampling strategies with a shared rng): a single instance must see
    /// every input tuple, so the operator cannot be sharded.
    Global,
}

/// A streaming query operator.
pub trait Operator: Send {
    /// Human-readable operator name (diagnostics, graph dumps).
    fn name(&self) -> &str;

    /// Number of input ports (1 for unary operators, 2 for joins).
    fn num_ports(&self) -> usize {
        1
    }

    /// Push a batch of tuples into `port`; returns everything produced.
    ///
    /// The one data method every operator implements. Its output must
    /// equal the concatenation of what the same tuples produce when
    /// pushed one at a time, as one-row batches — the property the
    /// per-operator batch-1 vs batch-N tests check. Operators resolve
    /// field indices once per batch ([`Batch::shared_schema`]) and
    /// filter/transform in place.
    fn process_batch(&mut self, port: usize, batch: Batch) -> Batch;

    /// Push one tuple into `port`; returns any output produced. A
    /// one-row adapter over [`Self::process_batch`].
    fn process(&mut self, port: usize, tuple: Tuple) -> Vec<Tuple> {
        self.process_batch(port, Batch::one(tuple)).into_vec()
    }

    /// End-of-stream: drain buffered state (open windows etc.).
    fn flush(&mut self) -> Vec<Tuple> {
        Vec::new()
    }

    /// Event time has advanced to `watermark` without (necessarily) a
    /// tuple arriving at this instance: no future input on any port will
    /// carry `ts < watermark`, though `ts == watermark` may still come.
    /// Operators with event-time windows emit every window the watermark
    /// closes, exactly as if the closing tuple had arrived here.
    ///
    /// This is how the sharded runtime keeps window-close timing global:
    /// a shard that never receives the stream's latest tuples still
    /// learns that time moved on, so its windows close when the
    /// single-threaded engine's would — the punctuation that makes a
    /// key-partitioned instance's *stream* (not just its final state)
    /// match the unsharded run. The default is a no-op: operators
    /// without event-time windows have nothing to close.
    fn advance_watermark(&mut self, watermark: u64) -> Vec<Tuple> {
        let _ = watermark;
        Vec::new()
    }

    /// Declare how this operator's state constrains sharding. The default
    /// is [`Partitioning::Global`] — the safe answer for stateful
    /// operators the runtime knows nothing about; stateless operators
    /// override to `Any`, keyed operators to `Key`.
    fn partition_keys(&self) -> Partitioning {
        Partitioning::Global
    }

    /// The partition key for `tuple` arriving on `port`, for operators
    /// declaring [`Partitioning::Key`]. `None` means the key cannot be
    /// derived from this tuple (the runtime then routes it to a fixed
    /// shard; such tuples never participate in keyed state anyway).
    fn partition_key(&self, port: usize, tuple: &Tuple) -> Option<GroupKey> {
        let _ = (port, tuple);
        None
    }

    /// The input field this operator's partition key is read from for
    /// tuples arriving on `port`, when [`Self::partition_key`] is a
    /// plain field lookup (an equi-join names one field per port). Lets
    /// the sharded runtime route columnar batches by reading the key
    /// column directly instead of materializing tuples; `None` (the
    /// default) means the key needs the row form.
    fn partition_key_field(&self, port: usize) -> Option<&str> {
        let _ = port;
        None
    }

    /// The batched executors hand every operator its node's counters
    /// once, before any input, so it can record what only the operator
    /// sees (the aggregate counts the windows it emits through its row
    /// path into [`OpTelemetry::row_windows`]). The default keeps none.
    fn attach_telemetry(&mut self, telemetry: &OpTelemetry) {
        let _ = telemetry;
    }
}

/// A trivial pass-through operator; useful as a graph sink and in tests.
pub struct Passthrough {
    name: String,
}

impl Passthrough {
    pub fn new(name: impl Into<String>) -> Self {
        Passthrough { name: name.into() }
    }
}

impl Operator for Passthrough {
    fn name(&self) -> &str {
        &self.name
    }

    fn process_batch(&mut self, _port: usize, batch: Batch) -> Batch {
        batch
    }

    fn partition_keys(&self) -> Partitioning {
        Partitioning::Any
    }
}

/// Operator from a closure `Tuple -> Vec<Tuple>`; the escape hatch for
/// application-specific certain-data transforms.
pub struct MapOperator {
    name: String,
    f: Box<dyn FnMut(Tuple) -> Vec<Tuple> + Send>,
    /// `FnMut` closures may carry cross-tuple state, so maps declare
    /// [`Partitioning::Global`] unless the caller promises otherwise via
    /// [`MapOperator::stateless`].
    stateless: bool,
}

impl MapOperator {
    pub fn new(
        name: impl Into<String>,
        f: impl FnMut(Tuple) -> Vec<Tuple> + Send + 'static,
    ) -> Self {
        MapOperator {
            name: name.into(),
            f: Box::new(f),
            stateless: false,
        }
    }

    /// Promise that the closure keeps no cross-tuple state, letting the
    /// sharded runtime split this operator's input across shards.
    ///
    /// When a keyed operator (aggregate, equi-join) sits downstream, the
    /// closure must also leave that operator's key attribute unchanged:
    /// the runtime routes by the key evaluated on the *source* tuple, so
    /// a map that rewrites the key field would split one group's state
    /// across shard instances.
    pub fn stateless(mut self) -> Self {
        self.stateless = true;
        self
    }
}

impl Operator for MapOperator {
    fn name(&self) -> &str {
        &self.name
    }

    fn process_batch(&mut self, _port: usize, batch: Batch) -> Batch {
        let mut out = Batch::with_capacity(batch.len());
        for t in batch {
            out.extend((self.f)(t));
        }
        out
    }

    fn partition_keys(&self) -> Partitioning {
        if self.stateless {
            Partitioning::Any
        } else {
            Partitioning::Global
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Schema};
    use crate::value::Value;

    fn t(v: i64) -> Tuple {
        let s = Schema::builder().field("v", DataType::Int).build();
        Tuple::new(s, vec![Value::from(v)], 0)
    }

    #[test]
    fn passthrough_forwards() {
        let mut p = Passthrough::new("sink");
        let out = p.process(0, t(1));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].int("v").unwrap(), 1);
        assert!(p.flush().is_empty());
        assert_eq!(p.num_ports(), 1);
    }

    #[test]
    fn map_operator_applies_closure() {
        let mut m = MapOperator::new("dup", |t: Tuple| vec![t.clone(), t]);
        assert_eq!(m.process(0, t(2)).len(), 2);
    }

    #[test]
    fn partitioning_declarations() {
        assert_eq!(
            Passthrough::new("sink").partition_keys(),
            Partitioning::Any,
            "pass-through is stateless"
        );
        let m = MapOperator::new("m", |t: Tuple| vec![t]);
        assert_eq!(
            m.partition_keys(),
            Partitioning::Global,
            "FnMut maps are conservatively global"
        );
        assert_eq!(m.stateless().partition_keys(), Partitioning::Any);
        assert!(
            Passthrough::new("sink").partition_key(0, &t(1)).is_none(),
            "non-keyed operators have no partition key"
        );
    }
}
