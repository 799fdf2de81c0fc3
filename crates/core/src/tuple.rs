//! Tuples: schema-indexed rows with certain and uncertain attributes,
//! a timestamp, an existence probability, and lineage.

use crate::error::{EngineError, Result};
use crate::lineage::{next_tuple_id, Lineage};
use crate::schema::Schema;
use crate::updf::Updf;
use crate::value::Value;
use std::sync::Arc;

/// A stream tuple.
///
/// `existence` is the probability that the tuple exists at all — it is
/// 1.0 for raw data and shrinks as probabilistic selections/joins apply
/// (the continuous-domain analogue of tuple-existence probability in
/// discrete probabilistic databases, which the paper contrasts with).
#[derive(Debug, Clone)]
pub struct Tuple {
    schema: Arc<Schema>,
    values: Vec<Value>,
    /// Event time in milliseconds.
    pub ts: u64,
    /// Probability that this tuple exists.
    pub existence: f64,
    /// Base tuples this tuple derives from.
    pub lineage: Lineage,
}

impl Tuple {
    /// Create a tuple, validating value count against the schema. Assigns
    /// a fresh base-tuple id to the lineage.
    pub fn new(schema: Arc<Schema>, values: Vec<Value>, ts: u64) -> Tuple {
        assert_eq!(
            values.len(),
            schema.len(),
            "value count {} != schema arity {}",
            values.len(),
            schema.len()
        );
        Tuple {
            schema,
            values,
            ts,
            existence: 1.0,
            lineage: Lineage::base(next_tuple_id()),
        }
    }

    /// Create a derived tuple with explicit lineage and existence.
    pub fn derived(
        schema: Arc<Schema>,
        values: Vec<Value>,
        ts: u64,
        existence: f64,
        lineage: Lineage,
    ) -> Tuple {
        assert_eq!(values.len(), schema.len());
        assert!(
            (0.0..=1.0).contains(&existence),
            "existence must be a probability"
        );
        Tuple {
            schema,
            values,
            ts,
            existence,
            lineage,
        }
    }

    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value by field name.
    pub fn get(&self, name: &str) -> Result<&Value> {
        Ok(&self.values[self.schema.index_of(name)?])
    }

    /// Value by position.
    pub fn at(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// Float accessor (accepts Int, widened).
    pub fn float(&self, name: &str) -> Result<f64> {
        let v = self.get(name)?;
        v.as_float().ok_or_else(|| EngineError::TypeMismatch {
            field: name.to_string(),
            expected: "Float",
            actual: v.type_name(),
        })
    }

    pub fn int(&self, name: &str) -> Result<i64> {
        let v = self.get(name)?;
        v.as_int().ok_or_else(|| EngineError::TypeMismatch {
            field: name.to_string(),
            expected: "Int",
            actual: v.type_name(),
        })
    }

    pub fn str(&self, name: &str) -> Result<&str> {
        let v = self.get(name)?;
        v.as_str().ok_or_else(|| EngineError::TypeMismatch {
            field: name.to_string(),
            expected: "Str",
            actual: v.type_name(),
        })
    }

    /// Uncertain-attribute accessor.
    pub fn updf(&self, name: &str) -> Result<&Updf> {
        let v = self.get(name)?;
        v.as_updf().ok_or_else(|| EngineError::TypeMismatch {
            field: name.to_string(),
            expected: "Uncertain",
            actual: v.type_name(),
        })
    }

    /// Replace one value in place (the batched operators' mutation path —
    /// no move, no clone).
    pub fn set_value(&mut self, idx: usize, v: Value) {
        self.values[idx] = v;
    }

    /// Append values under a wider schema, mutating in place — the
    /// allocation-free counterpart of [`Self::extended`] used by batched
    /// projection (the existing values vector is reused, not cloned).
    /// `extra` is drained, so the caller can reuse its buffer across
    /// tuples.
    pub fn extend_in_place(&mut self, schema: Arc<Schema>, extra: &mut Vec<Value>) {
        self.values.append(extra);
        assert_eq!(self.values.len(), schema.len());
        self.schema = schema;
    }

    /// Append values under a wider schema (projection/derivation output).
    pub fn extended(&self, schema: Arc<Schema>, extra: Vec<Value>) -> Tuple {
        let mut values = self.values.clone();
        values.extend(extra);
        assert_eq!(values.len(), schema.len());
        Tuple {
            schema,
            values,
            ts: self.ts,
            existence: self.existence,
            lineage: self.lineage.clone(),
        }
    }

    /// Decompose into owned parts — the columnar batch layout takes the
    /// values vector without cloning.
    pub fn into_parts(self) -> (Arc<Schema>, Vec<Value>, u64, f64, Lineage) {
        (
            self.schema,
            self.values,
            self.ts,
            self.existence,
            self.lineage,
        )
    }

    /// Total approximate payload size (bytes) of uncertain attributes —
    /// used to measure the stream-volume effect of §4.3 conversions.
    pub fn uncertain_payload_bytes(&self) -> usize {
        self.values
            .iter()
            .filter_map(|v| v.as_updf())
            .map(|u| u.payload_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;
    use ustream_prob::dist::Dist;

    fn schema() -> Arc<Schema> {
        Schema::builder()
            .field("tag_id", DataType::Int)
            .field("weight", DataType::Float)
            .field("loc_x", DataType::Uncertain)
            .build()
    }

    fn tuple() -> Tuple {
        Tuple::new(
            schema(),
            vec![
                Value::from(42i64),
                Value::from(17.5),
                Value::from(Updf::Parametric(Dist::gaussian(3.0, 0.5))),
            ],
            1000,
        )
    }

    #[test]
    fn accessors() {
        let t = tuple();
        assert_eq!(t.int("tag_id").unwrap(), 42);
        assert_eq!(t.float("weight").unwrap(), 17.5);
        assert!((t.updf("loc_x").unwrap().mean() - 3.0).abs() < 1e-12);
        assert_eq!(t.ts, 1000);
        assert_eq!(t.existence, 1.0);
        assert_eq!(t.lineage.len(), 1);
    }

    #[test]
    fn type_mismatch_errors() {
        let t = tuple();
        assert!(matches!(
            t.float("tag_id"),
            Ok(42.0) // Int widens to Float by design
        ));
        assert!(matches!(
            t.str("weight"),
            Err(EngineError::TypeMismatch { .. })
        ));
        assert!(matches!(t.get("nope"), Err(EngineError::UnknownField(_))));
    }

    #[test]
    #[should_panic(expected = "value count")]
    fn arity_checked() {
        Tuple::new(schema(), vec![Value::from(1i64)], 0);
    }

    #[test]
    fn fresh_tuples_have_distinct_lineage() {
        let a = tuple();
        let b = tuple();
        assert!(!a.lineage.overlaps(&b.lineage));
    }

    #[test]
    fn extended_keeps_metadata() {
        let t = tuple();
        let wider = t
            .schema()
            .extend(vec![crate::schema::Field::new("area", DataType::Int)]);
        let e = t.extended(wider, vec![Value::from(7i64)]);
        assert_eq!(e.int("area").unwrap(), 7);
        assert_eq!(e.ts, t.ts);
        assert_eq!(e.lineage, t.lineage);
    }

    #[test]
    fn extend_in_place_matches_extended() {
        let t = tuple();
        let wider = t
            .schema()
            .extend(vec![crate::schema::Field::new("area", DataType::Int)]);
        let by_clone = t.extended(wider.clone(), vec![Value::from(7i64)]);
        let mut in_place = t;
        let mut extra = vec![Value::from(7i64)];
        in_place.extend_in_place(wider, &mut extra);
        assert!(extra.is_empty(), "extra buffer is drained for reuse");
        assert_eq!(in_place.int("area").unwrap(), by_clone.int("area").unwrap());
        assert_eq!(in_place.ts, by_clone.ts);
        assert_eq!(in_place.lineage, by_clone.lineage);
    }

    #[test]
    fn payload_accounting() {
        let t = tuple();
        assert_eq!(t.uncertain_payload_bytes(), 16); // one Gaussian
    }

    #[test]
    #[should_panic(expected = "existence must be a probability")]
    fn derived_validates_existence() {
        Tuple::derived(
            schema(),
            tuple().values().to_vec(),
            0,
            1.5,
            Lineage::empty(),
        );
    }
}
