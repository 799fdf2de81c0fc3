//! Columnar batch storage: per-field typed columns behind the row
//! [`crate::batch::Batch`] API.
//!
//! A [`Columns`] holds one batch's worth of tuples decomposed into
//! per-field arrays — `Vec<i64>`/`Vec<f64>` for certain scalars, a
//! dictionary column for strings, a struct-of-arrays `(mean, sd)` pair
//! for the dominant parametric-Gaussian `Updf` payload — plus the
//! batch-level `ts`/`existence`/`lineage` vectors. Heterogeneous or
//! non-columnar payloads fall back to a row column ([`Column::Rows`])
//! so *any* run of same-schema tuples has a columnar form.
//!
//! The contract that makes this safe to slide underneath the existing
//! engine is **lossless round-tripping**: `Columns::from_rows` followed
//! by `Columns::into_rows` reproduces every tuple exactly — same
//! schema `Arc`, same `Value` variants (an `Int` stays an `Int`), the
//! same Gaussian `(mean, sd)` bits, timestamps, existence, and lineage.
//! Operators with vectorized fast paths read the typed arrays directly;
//! everything else hydrates back to rows and runs unchanged.

use crate::lineage::Lineage;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::updf::Updf;
use crate::value::{GroupKey, Value};
use std::sync::Arc;
use ustream_prob::dist::{Dist, Gaussian};

/// Extract the `(mean, sd)` of a compact parametric-Gaussian payload,
/// the one `Updf` shape that gets a struct-of-arrays column.
fn gaussian_params(v: &Value) -> Option<(f64, f64)> {
    match v {
        Value::Uncertain(u) => match &**u {
            Updf::Parametric(Dist::Gaussian(g)) => Some((g.mean(), g.std_dev())),
            _ => None,
        },
        _ => None,
    }
}

/// Rebuild the exact `Value` a Gaussian column row decomposed from.
pub fn gaussian_value(mean: f64, sd: f64) -> Value {
    Value::Uncertain(Box::new(Updf::Parametric(Dist::Gaussian(Gaussian::new(
        mean, sd,
    )))))
}

/// Drop the entries of `v` whose mask slot is false, in place.
fn retain_by_mask<T>(v: &mut Vec<T>, keep: &[bool]) {
    debug_assert_eq!(v.len(), keep.len());
    let mut i = 0;
    v.retain(|_| {
        let k = keep[i];
        i += 1;
        k
    });
}

/// One field's storage inside a [`Columns`] batch.
///
/// A fresh column is `Rows(vec![])`; the first pushed value picks the
/// typed variant, and any later value the variant cannot hold demotes
/// the whole column back to rows (exactly reconstructing the prefix).
#[derive(Debug, Clone)]
pub enum Column {
    /// Exact 64-bit integers (`Value::Int`).
    Int(Vec<i64>),
    /// `Value::Float`.
    Float(Vec<f64>),
    /// `Value::Time` (event-time milliseconds).
    Time(Vec<u64>),
    /// Dictionary-encoded strings (`Value::Str`).
    Str { codes: Vec<u32>, dict: Vec<String> },
    /// Struct-of-arrays for parametric-Gaussian `Updf` payloads: the
    /// stored `(mean, sd)` pair of every row, bit-exact.
    Gaussian { mean: Vec<f64>, sd: Vec<f64> },
    /// Row fallback: heterogeneous or non-columnar values, verbatim.
    Rows(Vec<Value>),
}

impl Default for Column {
    fn default() -> Self {
        Column::new()
    }
}

impl Column {
    /// A fresh column with no variant picked yet.
    pub fn new() -> Column {
        Column::Rows(Vec::new())
    }

    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Time(v) => v.len(),
            Column::Str { codes, .. } => codes.len(),
            Column::Gaussian { mean, .. } => mean.len(),
            Column::Rows(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The typed variant a first value seeds.
    fn empty_for(v: &Value) -> Column {
        match v {
            Value::Int(_) => Column::Int(Vec::new()),
            Value::Float(_) => Column::Float(Vec::new()),
            Value::Time(_) => Column::Time(Vec::new()),
            Value::Str(_) => Column::Str {
                codes: Vec::new(),
                dict: Vec::new(),
            },
            Value::Uncertain(_) if gaussian_params(v).is_some() => Column::Gaussian {
                mean: Vec::new(),
                sd: Vec::new(),
            },
            _ => Column::Rows(Vec::new()),
        }
    }

    fn accepts(&self, v: &Value) -> bool {
        match (self, v) {
            (Column::Int(_), Value::Int(_)) => true,
            (Column::Float(_), Value::Float(_)) => true,
            (Column::Time(_), Value::Time(_)) => true,
            (Column::Str { .. }, Value::Str(_)) => true,
            (Column::Gaussian { .. }, _) => gaussian_params(v).is_some(),
            (Column::Rows(_), _) => true,
            _ => false,
        }
    }

    /// Demote a typed column to rows, reconstructing the prefix exactly.
    fn demote(&mut self) {
        let rows = std::mem::replace(self, Column::Rows(Vec::new())).into_values();
        *self = Column::Rows(rows);
    }

    /// Append one value, picking/demoting the variant as needed.
    pub fn push_value(&mut self, v: Value) {
        if matches!(self, Column::Rows(rows) if rows.is_empty()) {
            *self = Column::empty_for(&v);
        } else if !self.accepts(&v) {
            self.demote();
        }
        match (self, v) {
            (Column::Int(xs), Value::Int(i)) => xs.push(i),
            (Column::Float(xs), Value::Float(f)) => xs.push(f),
            (Column::Time(xs), Value::Time(t)) => xs.push(t),
            (Column::Str { codes, dict }, Value::Str(s)) => {
                let code = match dict.iter().position(|d| *d == s) {
                    Some(i) => i as u32,
                    None => {
                        dict.push(s);
                        (dict.len() - 1) as u32
                    }
                };
                codes.push(code);
            }
            (Column::Gaussian { mean, sd }, v) => {
                let (m, s) = gaussian_params(&v).expect("accepts() checked");
                mean.push(m);
                sd.push(s);
            }
            (Column::Rows(rows), v) => rows.push(v),
            _ => unreachable!("push_value: variant prepared above"),
        }
    }

    /// Append one parametric-Gaussian payload without materializing a
    /// `Value` — the wire decoder's in-place path.
    pub fn push_gaussian(&mut self, mean: f64, sd: f64) {
        if matches!(self, Column::Rows(rows) if rows.is_empty()) {
            *self = Column::Gaussian {
                mean: Vec::new(),
                sd: Vec::new(),
            };
        }
        match self {
            Column::Gaussian { mean: ms, sd: ss } => {
                ms.push(mean);
                ss.push(sd);
            }
            _ => self.push_value(gaussian_value(mean, sd)),
        }
    }

    /// Consume the column into its exact row values.
    pub fn into_values(self) -> Vec<Value> {
        match self {
            Column::Int(v) => v.into_iter().map(Value::Int).collect(),
            Column::Float(v) => v.into_iter().map(Value::Float).collect(),
            Column::Time(v) => v.into_iter().map(Value::Time).collect(),
            Column::Str { codes, dict } => codes
                .into_iter()
                .map(|c| Value::Str(dict[c as usize].clone()))
                .collect(),
            Column::Gaussian { mean, sd } => mean
                .into_iter()
                .zip(sd)
                .map(|(m, s)| gaussian_value(m, s))
                .collect(),
            Column::Rows(v) => v,
        }
    }

    /// Keep only the rows whose mask slot is true.
    pub fn filter(&mut self, keep: &[bool]) {
        match self {
            Column::Int(v) => retain_by_mask(v, keep),
            Column::Float(v) => retain_by_mask(v, keep),
            Column::Time(v) => retain_by_mask(v, keep),
            Column::Str { codes, .. } => retain_by_mask(codes, keep),
            Column::Gaussian { mean, sd } => {
                retain_by_mask(mean, keep);
                retain_by_mask(sd, keep);
            }
            Column::Rows(v) => retain_by_mask(v, keep),
        }
    }

    /// Moving append: `other`'s rows follow this column's, demoting to
    /// rows when the variants cannot merge.
    pub fn append(&mut self, other: Column) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = other;
            return;
        }
        match (&mut *self, other) {
            (Column::Int(a), Column::Int(b)) => a.extend(b),
            (Column::Float(a), Column::Float(b)) => a.extend(b),
            (Column::Time(a), Column::Time(b)) => a.extend(b),
            (
                Column::Str { codes, dict },
                Column::Str {
                    codes: bc,
                    dict: bd,
                },
            ) => {
                // Re-encode against this column's dictionary, moving
                // the other dictionary's strings where they are new.
                let mut remap = Vec::with_capacity(bd.len());
                for s in bd {
                    match dict.iter().position(|d| *d == s) {
                        Some(i) => remap.push(i as u32),
                        None => {
                            dict.push(s);
                            remap.push((dict.len() - 1) as u32);
                        }
                    }
                }
                codes.extend(bc.into_iter().map(|c| remap[c as usize]));
            }
            (Column::Gaussian { mean, sd }, Column::Gaussian { mean: bm, sd: bs }) => {
                mean.extend(bm);
                sd.extend(bs);
            }
            (Column::Rows(a), b) => a.extend(b.into_values()),
            (_, b) => {
                self.demote();
                match self {
                    Column::Rows(a) => a.extend(b.into_values()),
                    _ => unreachable!("demote yields rows"),
                }
            }
        }
    }

    /// Split off the tail starting at row `at` (cf. `Vec::split_off`).
    pub fn split_off(&mut self, at: usize) -> Column {
        match self {
            Column::Int(v) => Column::Int(v.split_off(at)),
            Column::Float(v) => Column::Float(v.split_off(at)),
            Column::Time(v) => Column::Time(v.split_off(at)),
            Column::Str { codes, dict } => Column::Str {
                codes: codes.split_off(at),
                dict: dict.clone(),
            },
            Column::Gaussian { mean, sd } => Column::Gaussian {
                mean: mean.split_off(at),
                sd: sd.split_off(at),
            },
            Column::Rows(v) => Column::Rows(v.split_off(at)),
        }
    }

    /// The `(mean, sd)` arrays of a Gaussian column.
    pub fn as_gaussian(&self) -> Option<(&[f64], &[f64])> {
        match self {
            Column::Gaussian { mean, sd } => Some((mean, sd)),
            _ => None,
        }
    }

    pub fn as_int(&self) -> Option<&[i64]> {
        match self {
            Column::Int(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_float(&self) -> Option<&[f64]> {
        match self {
            Column::Float(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_time(&self) -> Option<&[u64]> {
        match self {
            Column::Time(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_str_dict(&self) -> Option<(&[u32], &[String])> {
        match self {
            Column::Str { codes, dict } => Some((codes, dict)),
            _ => None,
        }
    }

    pub fn as_rows(&self) -> Option<&[Value]> {
        match self {
            Column::Rows(v) => Some(v),
            _ => None,
        }
    }

    /// The group key of row `i`, mirroring `GroupKey::from_value`.
    pub fn group_key_at(&self, i: usize) -> Option<GroupKey> {
        match self {
            Column::Int(v) => Some(GroupKey::Int(v[i])),
            Column::Time(v) => Some(GroupKey::Int(v[i] as i64)),
            Column::Str { codes, dict } => Some(GroupKey::Str(dict[codes[i] as usize].clone())),
            Column::Rows(v) => GroupKey::from_value(&v[i]),
            Column::Float(_) | Column::Gaussian { .. } => None,
        }
    }
}

/// A batch of same-schema tuples in columnar form: one [`Column`] per
/// schema field plus the tuple-level metadata vectors.
#[derive(Debug, Clone)]
pub struct Columns {
    schema: Arc<Schema>,
    cols: Vec<Column>,
    ts: Vec<u64>,
    existence: Vec<f64>,
    lineage: Vec<Lineage>,
}

impl Columns {
    /// An empty columnar batch over `schema`.
    pub fn new(schema: Arc<Schema>) -> Columns {
        let cols = (0..schema.len()).map(|_| Column::new()).collect();
        Columns {
            schema,
            cols,
            ts: Vec::new(),
            existence: Vec::new(),
            lineage: Vec::new(),
        }
    }

    pub fn with_capacity(schema: Arc<Schema>, n: usize) -> Columns {
        let mut c = Columns::new(schema);
        c.ts.reserve(n);
        c.existence.reserve(n);
        c.lineage.reserve(n);
        c
    }

    pub fn len(&self) -> usize {
        self.ts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    pub fn ts(&self) -> &[u64] {
        &self.ts
    }

    pub fn existence(&self) -> &[f64] {
        &self.existence
    }

    pub fn existence_mut(&mut self) -> &mut [f64] {
        &mut self.existence
    }

    pub fn lineage(&self) -> &[Lineage] {
        &self.lineage
    }

    pub fn col(&self, i: usize) -> &Column {
        &self.cols[i]
    }

    /// Mutable column access — the in-place wire decoder and the
    /// vectorized operators use this; callers must keep every column at
    /// the metadata length (checked by `debug_assert_consistent`).
    pub fn col_mut(&mut self, i: usize) -> &mut Column {
        &mut self.cols[i]
    }

    pub fn num_cols(&self) -> usize {
        self.cols.len()
    }

    /// Append tuple-level metadata for one row whose values were pushed
    /// through [`Columns::col_mut`] (the wire decoder's shape).
    pub fn push_meta(&mut self, ts: u64, existence: f64, lineage: Lineage) {
        self.ts.push(ts);
        self.existence.push(existence);
        self.lineage.push(lineage);
    }

    #[cfg(debug_assertions)]
    pub fn debug_assert_consistent(&self) {
        for c in &self.cols {
            debug_assert_eq!(c.len(), self.ts.len());
        }
        debug_assert_eq!(self.existence.len(), self.ts.len());
        debug_assert_eq!(self.lineage.len(), self.ts.len());
    }

    /// Decompose a run of tuples. Every tuple must share the schema
    /// `Arc`; the run is handed back untouched otherwise.
    pub fn from_rows(tuples: Vec<Tuple>) -> std::result::Result<Columns, Vec<Tuple>> {
        let Some(first) = tuples.first() else {
            return Err(tuples);
        };
        let schema = first.schema().clone();
        if !tuples.iter().all(|t| Arc::ptr_eq(t.schema(), &schema)) {
            return Err(tuples);
        }
        let mut out = Columns::with_capacity(schema, tuples.len());
        for t in tuples {
            out.push_row(t);
        }
        Ok(out)
    }

    /// Append one tuple (must share the batch's schema `Arc`).
    pub fn push_row(&mut self, t: Tuple) {
        debug_assert!(Arc::ptr_eq(t.schema(), &self.schema));
        let (_, values, ts, existence, lineage) = t.into_parts();
        for (col, v) in self.cols.iter_mut().zip(values) {
            col.push_value(v);
        }
        self.push_meta(ts, existence, lineage);
    }

    /// Hydrate back to rows — the exact tuples this batch decomposed
    /// from, in order.
    pub fn into_rows(self) -> Vec<Tuple> {
        let n = self.ts.len();
        let mut iters: Vec<std::vec::IntoIter<Value>> = self
            .cols
            .into_iter()
            .map(|c| c.into_values().into_iter())
            .collect();
        let mut out = Vec::with_capacity(n);
        let mut ts = self.ts.into_iter();
        let mut existence = self.existence.into_iter();
        let mut lineage = self.lineage.into_iter();
        for _ in 0..n {
            let values: Vec<Value> = iters
                .iter_mut()
                .map(|it| it.next().expect("column length"))
                .collect();
            out.push(Tuple::derived(
                self.schema.clone(),
                values,
                ts.next().expect("ts length"),
                existence.next().expect("existence length"),
                lineage.next().expect("lineage length"),
            ));
        }
        out
    }

    /// Moving append of another batch over the same schema `Arc`.
    pub fn append(&mut self, other: Columns) {
        assert!(
            Arc::ptr_eq(&self.schema, &other.schema),
            "Columns::append requires the same schema Arc"
        );
        if self.is_empty() {
            *self = other;
            return;
        }
        for (a, b) in self.cols.iter_mut().zip(other.cols) {
            a.append(b);
        }
        self.ts.extend(other.ts);
        self.existence.extend(other.existence);
        self.lineage.extend(other.lineage);
    }

    /// Split off the tail starting at row `at`.
    pub fn split_off(&mut self, at: usize) -> Columns {
        Columns {
            schema: self.schema.clone(),
            cols: self.cols.iter_mut().map(|c| c.split_off(at)).collect(),
            ts: self.ts.split_off(at),
            existence: self.existence.split_off(at),
            lineage: self.lineage.split_off(at),
        }
    }

    /// Keep only the rows whose mask slot is true.
    pub fn filter(&mut self, keep: &[bool]) {
        for c in &mut self.cols {
            c.filter(keep);
        }
        retain_by_mask(&mut self.ts, keep);
        retain_by_mask(&mut self.existence, keep);
        retain_by_mask(&mut self.lineage, keep);
    }

    /// Widen the batch with several derived columns at once under the
    /// final widened schema.
    pub fn add_columns(&mut self, schema: Arc<Schema>, cols: Vec<Column>) {
        for col in &cols {
            assert_eq!(col.len(), self.len(), "derived column length");
        }
        assert_eq!(schema.len(), self.cols.len() + cols.len(), "schema arity");
        self.cols.extend(cols);
        self.schema = schema;
    }

    pub fn max_ts(&self) -> Option<u64> {
        self.ts.iter().copied().max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;

    fn schema() -> Arc<Schema> {
        Schema::builder()
            .field("g", DataType::Int)
            .field("name", DataType::Str)
            .field("x", DataType::Uncertain)
            .build()
    }

    fn tuples() -> Vec<Tuple> {
        let s = schema();
        (0..6u64)
            .map(|i| {
                let mut t = Tuple::new(
                    s.clone(),
                    vec![
                        Value::Int(i as i64 % 3),
                        Value::Str(format!("n{}", i % 2)),
                        Value::from(Updf::Parametric(Dist::gaussian(i as f64, 1.0 + i as f64))),
                    ],
                    i * 10,
                );
                t.existence = 1.0 - i as f64 * 0.05;
                t
            })
            .collect()
    }

    fn assert_same(a: &Tuple, b: &Tuple) {
        assert!(Arc::ptr_eq(a.schema(), b.schema()));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn round_trip_is_lossless() {
        let rows = tuples();
        let cols = Columns::from_rows(rows.clone()).unwrap();
        assert_eq!(cols.len(), rows.len());
        assert!(cols.col(0).as_int().is_some());
        assert!(cols.col(1).as_str_dict().is_some());
        assert!(cols.col(2).as_gaussian().is_some());
        let back = cols.into_rows();
        assert_eq!(back.len(), rows.len());
        for (a, b) in rows.iter().zip(&back) {
            assert_same(a, b);
        }
    }

    #[test]
    fn heterogeneous_payloads_demote_to_rows() {
        let s = Schema::builder().field("x", DataType::Uncertain).build();
        let g = Tuple::new(
            s.clone(),
            vec![Value::from(Updf::Parametric(Dist::gaussian(1.0, 2.0)))],
            0,
        );
        let u = Tuple::new(
            s.clone(),
            vec![Value::from(Updf::Parametric(Dist::uniform(0.0, 1.0)))],
            1,
        );
        let rows = vec![g, u];
        let cols = Columns::from_rows(rows.clone()).unwrap();
        assert!(cols.col(0).as_rows().is_some(), "mixed payloads fall back");
        for (a, b) in rows.iter().zip(&cols.into_rows()) {
            assert_same(a, b);
        }
    }

    #[test]
    fn mixed_schema_runs_are_rejected() {
        let s1 = Schema::builder().field("v", DataType::Int).build();
        let s2 = Schema::builder().field("v", DataType::Int).build();
        let rows = vec![
            Tuple::new(s1, vec![Value::Int(1)], 0),
            Tuple::new(s2, vec![Value::Int(2)], 1),
        ];
        assert!(Columns::from_rows(rows).is_err());
    }

    #[test]
    fn filter_compacts_all_columns() {
        let mut cols = Columns::from_rows(tuples()).unwrap();
        let keep = [true, false, true, false, true, false];
        cols.filter(&keep);
        assert_eq!(cols.len(), 3);
        assert_eq!(cols.ts(), &[0, 20, 40]);
        let back = cols.into_rows();
        assert_eq!(back[2].int("g").unwrap(), 1);
    }

    #[test]
    fn append_and_split_round_trip() {
        let rows = tuples();
        let mut a = Columns::from_rows(rows[..3].to_vec()).unwrap();
        // Rebuild the tail against the same schema Arc.
        let mut b = Columns::with_capacity(a.schema().clone(), 3);
        for t in &rows[3..] {
            let mut t = t.clone();
            // push_row requires pointer-equal schemas.
            t = Tuple::derived(
                a.schema().clone(),
                t.values().to_vec(),
                t.ts,
                t.existence,
                t.lineage.clone(),
            );
            b.push_row(t);
        }
        a.append(b);
        assert_eq!(a.len(), 6);
        let tail = a.split_off(4);
        assert_eq!(a.len(), 4);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail.ts(), &[40, 50]);
    }

    #[test]
    fn dictionary_merges_across_appends() {
        let s = Schema::builder().field("name", DataType::Str).build();
        let mk = |names: &[&str], base: u64| -> Columns {
            let rows: Vec<Tuple> = names
                .iter()
                .enumerate()
                .map(|(i, n)| Tuple::new(s.clone(), vec![Value::from(*n)], base + i as u64))
                .collect();
            Columns::from_rows(rows).unwrap()
        };
        let mut a = mk(&["x", "y", "x"], 0);
        let b = mk(&["y", "z"], 10);
        a.append(b);
        let (codes, dict) = a.col(0).as_str_dict().unwrap();
        assert_eq!(dict.len(), 3, "shared entries dedup");
        assert_eq!(codes.len(), 5);
        let back = a.into_rows();
        assert_eq!(back[3].str("name").unwrap(), "y");
        assert_eq!(back[4].str("name").unwrap(), "z");
    }

    #[test]
    fn group_keys_read_without_tuples() {
        let cols = Columns::from_rows(tuples()).unwrap();
        assert_eq!(cols.col(0).group_key_at(4), Some(GroupKey::Int(1)));
        assert_eq!(
            cols.col(1).group_key_at(1),
            Some(GroupKey::Str("n1".into()))
        );
        assert_eq!(cols.col(2).group_key_at(0), None, "uncertain keys refuse");
    }
}
