//! Probabilistic selection.
//!
//! Selection over a certain attribute is classical filtering. Selection
//! over an *uncertain* attribute X with predicate π computes P(π(X)),
//! multiplies it into the tuple's existence probability, and — when
//! configured — replaces X's distribution by its conditional given π
//! (truncation), so downstream operators see the distribution "in the
//! certain worlds where the tuple survived". Tuples whose survival
//! probability falls below `min_prob` are dropped.

use crate::batch::Batch;
use crate::columnar::{Column, Columns};
use crate::ops::Operator;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::updf::Updf;
use crate::value::Value;
use std::sync::Arc;
use ustream_prob::dist::{Dist, Gaussian};

/// Comparison operators for certain numeric predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

impl CmpOp {
    fn eval(&self, a: f64, b: f64) -> bool {
        match self {
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
        }
    }
}

/// A predicate over one tuple.
#[derive(Debug, Clone)]
pub enum Predicate {
    /// Certain string equality (e.g. `object_type(tag_id) = 'flammable'`).
    StrEq(String, String),
    /// Certain numeric comparison.
    NumCmp(String, CmpOp, f64),
    /// P(X > c) on an uncertain scalar attribute.
    UncertainAbove(String, f64),
    /// P(X ≤ c).
    UncertainBelow(String, f64),
    /// P(lo < X ≤ hi).
    UncertainBetween(String, f64, f64),
    /// Conjunction (probabilities multiply — attributes assumed
    /// independent within a tuple, the paper's tuple model).
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction under the same independence assumption
    /// (inclusion–exclusion: p₁ + p₂ − p₁p₂).
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation (1 − p).
    Not(Box<Predicate>),
}

impl Predicate {
    /// The (field, interval) this predicate conditions on, when it is a
    /// simple interval constraint on one uncertain attribute — the case
    /// where Select can truncate the distribution.
    fn conditioning_interval(&self) -> Option<(&str, f64, f64)> {
        match self {
            Predicate::UncertainAbove(f, c) => Some((f, *c, f64::INFINITY)),
            Predicate::UncertainBelow(f, c) => Some((f, f64::NEG_INFINITY, *c)),
            Predicate::UncertainBetween(f, lo, hi) => Some((f, *lo, *hi)),
            _ => None,
        }
    }

    /// Resolve every field reference against `schema`, producing an
    /// index-addressed predicate — one string lookup per field per
    /// **batch** instead of per tuple. `None` when a field is missing
    /// (every tuple of that schema then drops).
    fn compile(&self, schema: &Schema) -> Option<CompiledPredicate> {
        Some(match self {
            Predicate::StrEq(f, want) => {
                CompiledPredicate::StrEq(schema.index_of(f).ok()?, want.clone())
            }
            Predicate::NumCmp(f, op, c) => {
                CompiledPredicate::NumCmp(schema.index_of(f).ok()?, *op, *c)
            }
            Predicate::UncertainAbove(f, c) => {
                CompiledPredicate::UncertainAbove(schema.index_of(f).ok()?, *c)
            }
            Predicate::UncertainBelow(f, c) => {
                CompiledPredicate::UncertainBelow(schema.index_of(f).ok()?, *c)
            }
            Predicate::UncertainBetween(f, lo, hi) => {
                CompiledPredicate::UncertainBetween(schema.index_of(f).ok()?, *lo, *hi)
            }
            Predicate::And(a, b) => {
                CompiledPredicate::And(Box::new(a.compile(schema)?), Box::new(b.compile(schema)?))
            }
            Predicate::Or(a, b) => {
                CompiledPredicate::Or(Box::new(a.compile(schema)?), Box::new(b.compile(schema)?))
            }
            Predicate::Not(p) => CompiledPredicate::Not(Box::new(p.compile(schema)?)),
        })
    }
}

/// A [`Predicate`] with field names resolved to value indices.
#[derive(Debug, Clone)]
enum CompiledPredicate {
    StrEq(usize, String),
    NumCmp(usize, CmpOp, f64),
    UncertainAbove(usize, f64),
    UncertainBelow(usize, f64),
    UncertainBetween(usize, f64, f64),
    And(Box<CompiledPredicate>, Box<CompiledPredicate>),
    Or(Box<CompiledPredicate>, Box<CompiledPredicate>),
    Not(Box<CompiledPredicate>),
}

impl CompiledPredicate {
    /// Probability that the predicate holds for this tuple. Certain
    /// predicates return exactly 0.0 or 1.0; `None` on a type mismatch
    /// (the tuple is then dropped).
    fn probability(&self, t: &Tuple) -> Option<f64> {
        match self {
            CompiledPredicate::StrEq(idx, want) => {
                Some((t.at(*idx).as_str()? == want.as_str()) as u8 as f64)
            }
            CompiledPredicate::NumCmp(idx, op, c) => {
                Some(op.eval(t.at(*idx).as_float()?, *c) as u8 as f64)
            }
            CompiledPredicate::UncertainAbove(idx, c) => Some(t.at(*idx).as_updf()?.prob_above(*c)),
            CompiledPredicate::UncertainBelow(idx, c) => {
                Some(1.0 - t.at(*idx).as_updf()?.prob_above(*c))
            }
            CompiledPredicate::UncertainBetween(idx, lo, hi) => {
                Some(t.at(*idx).as_updf()?.prob_in(*lo, *hi))
            }
            CompiledPredicate::And(a, b) => Some(a.probability(t)? * b.probability(t)?),
            CompiledPredicate::Or(a, b) => {
                let (pa, pb) = (a.probability(t)?, b.probability(t)?);
                Some(pa + pb - pa * pb)
            }
            CompiledPredicate::Not(p) => Some(1.0 - p.probability(t)?),
        }
    }

    /// Columnar counterpart of [`CompiledPredicate::probability`]: one
    /// probability per row, with `NaN` standing for `None` (missing or
    /// mistyped value ⇒ drop). Leaves over typed columns run as tight
    /// loops — the Gaussian case bottoms out in the same Cody erf
    /// kernel, called in the same order as the row path, so surviving
    /// probabilities are bit-identical.
    fn probabilities(&self, cols: &Columns) -> Vec<f64> {
        let n = cols.len();
        let nan = f64::NAN;
        match self {
            CompiledPredicate::StrEq(idx, want) => match cols.col(*idx) {
                Column::Str { codes, dict } => {
                    // One comparison per dictionary entry, then a lookup
                    // per row.
                    let hits: Vec<f64> = dict.iter().map(|d| (d == want) as u8 as f64).collect();
                    codes.iter().map(|&c| hits[c as usize]).collect()
                }
                Column::Rows(rows) => rows
                    .iter()
                    .map(|v| {
                        v.as_str()
                            .map_or(nan, |s| (s == want.as_str()) as u8 as f64)
                    })
                    .collect(),
                _ => vec![nan; n],
            },
            CompiledPredicate::NumCmp(idx, op, c) => match cols.col(*idx) {
                Column::Int(xs) => xs
                    .iter()
                    .map(|&x| op.eval(x as f64, *c) as u8 as f64)
                    .collect(),
                Column::Float(xs) => xs.iter().map(|&x| op.eval(x, *c) as u8 as f64).collect(),
                Column::Rows(rows) => rows
                    .iter()
                    .map(|v| v.as_float().map_or(nan, |x| op.eval(x, *c) as u8 as f64))
                    .collect(),
                _ => vec![nan; n],
            },
            CompiledPredicate::UncertainAbove(idx, c) => match cols.col(*idx) {
                Column::Gaussian { mean, sd } => mean
                    .iter()
                    .zip(sd)
                    .map(|(&m, &s)| {
                        Updf::Parametric(Dist::Gaussian(Gaussian::new(m, s))).prob_above(*c)
                    })
                    .collect(),
                Column::Rows(rows) => rows
                    .iter()
                    .map(|v| v.as_updf().map_or(nan, |u| u.prob_above(*c)))
                    .collect(),
                _ => vec![nan; n],
            },
            CompiledPredicate::UncertainBelow(idx, c) => match cols.col(*idx) {
                Column::Gaussian { mean, sd } => mean
                    .iter()
                    .zip(sd)
                    .map(|(&m, &s)| {
                        1.0 - Updf::Parametric(Dist::Gaussian(Gaussian::new(m, s))).prob_above(*c)
                    })
                    .collect(),
                Column::Rows(rows) => rows
                    .iter()
                    .map(|v| v.as_updf().map_or(nan, |u| 1.0 - u.prob_above(*c)))
                    .collect(),
                _ => vec![nan; n],
            },
            CompiledPredicate::UncertainBetween(idx, lo, hi) => match cols.col(*idx) {
                Column::Gaussian { mean, sd } => mean
                    .iter()
                    .zip(sd)
                    .map(|(&m, &s)| {
                        Updf::Parametric(Dist::Gaussian(Gaussian::new(m, s))).prob_in(*lo, *hi)
                    })
                    .collect(),
                Column::Rows(rows) => rows
                    .iter()
                    .map(|v| v.as_updf().map_or(nan, |u| u.prob_in(*lo, *hi)))
                    .collect(),
                _ => vec![nan; n],
            },
            CompiledPredicate::And(a, b) => {
                let mut pa = a.probabilities(cols);
                let pb = b.probabilities(cols);
                for (x, y) in pa.iter_mut().zip(pb) {
                    *x *= y;
                }
                pa
            }
            CompiledPredicate::Or(a, b) => {
                let mut pa = a.probabilities(cols);
                let pb = b.probabilities(cols);
                for (x, y) in pa.iter_mut().zip(pb) {
                    *x = *x + y - *x * y;
                }
                pa
            }
            CompiledPredicate::Not(p) => {
                let mut ps = p.probabilities(cols);
                for x in &mut ps {
                    *x = 1.0 - *x;
                }
                ps
            }
        }
    }
}

/// Everything Select resolves once per input schema: the compiled
/// predicate (`None` ⇒ a referenced field is missing ⇒ drop all) and the
/// conditioning target index, if conditioning applies.
struct CompiledSelect {
    schema: Arc<Schema>,
    predicate: Option<CompiledPredicate>,
    conditioning: Option<(usize, f64, f64)>,
}

/// The probabilistic selection operator.
pub struct Select {
    name: String,
    predicate: Predicate,
    /// Drop tuples whose survival probability is below this.
    min_prob: f64,
    /// Replace the conditioned attribute by its truncated distribution.
    condition_distribution: bool,
    /// Per-schema compilation cache.
    compiled: Option<CompiledSelect>,
}

impl Select {
    pub fn new(predicate: Predicate, min_prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&min_prob));
        Select {
            name: "select".to_string(),
            predicate,
            min_prob,
            condition_distribution: true,
            compiled: None,
        }
    }

    /// Disable distribution conditioning (keep the prior distribution on
    /// survivors; only existence is scaled).
    pub fn without_conditioning(mut self) -> Self {
        self.condition_distribution = false;
        self
    }

    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Compile (or fetch the cached compilation of) the predicate for
    /// `schema`.
    fn compiled_for(&mut self, schema: &Arc<Schema>) -> &CompiledSelect {
        let stale = match &self.compiled {
            Some(c) => !Arc::ptr_eq(&c.schema, schema),
            None => true,
        };
        if stale {
            let predicate = self.predicate.compile(schema);
            let conditioning = if self.condition_distribution {
                self.predicate
                    .conditioning_interval()
                    .and_then(|(f, lo, hi)| Some((schema.index_of(f).ok()?, lo, hi)))
            } else {
                None
            };
            self.compiled = Some(CompiledSelect {
                schema: schema.clone(),
                predicate,
                conditioning,
            });
        }
        self.compiled.as_ref().expect("just compiled")
    }
}

impl Operator for Select {
    fn name(&self) -> &str {
        &self.name
    }

    /// Selection is per-tuple (the compiled-predicate cache is derived
    /// state, identical on every shard), so its input may be split freely.
    fn partition_keys(&self) -> crate::ops::Partitioning {
        crate::ops::Partitioning::Any
    }

    /// Compile the predicate once for the batch's shared schema, then
    /// filter/condition in place — no per-tuple string lookups, no
    /// per-tuple `Vec` allocations. Columnar batches run a vectorized
    /// filter over the typed columns (unless conditioning applies, which
    /// needs per-tuple distribution rewrites — those hydrate and take the
    /// row path).
    fn process_batch(&mut self, port: usize, mut batch: Batch) -> Batch {
        let Some(schema) = batch.shared_schema().cloned() else {
            // Mixed-schema batch: run each tuple as a one-row batch.
            let mut out = Batch::with_capacity(batch.len());
            for t in batch {
                out.extend(self.process(port, t));
            }
            return out;
        };
        let min_prob = self.min_prob;
        let compiled = self.compiled_for(&schema);
        let Some(pred) = &compiled.predicate else {
            return Batch::new(); // missing field: every tuple drops
        };
        if compiled.conditioning.is_none() {
            if let Some(mut cols) = batch.take_columns() {
                let probs = pred.probabilities(&cols);
                let existence = cols.existence_mut();
                let mut keep = Vec::with_capacity(probs.len());
                for (i, &p) in probs.iter().enumerate() {
                    let survival = existence[i] * p;
                    let ok = !p.is_nan() && survival >= min_prob && survival > 0.0;
                    if ok {
                        existence[i] = survival.min(1.0);
                    }
                    keep.push(ok);
                }
                cols.filter(&keep);
                return Batch::from_columns(cols);
            }
        }
        batch.hydrate();
        let conditioning = compiled.conditioning;
        batch.retain_mut(|t| {
            let Some(p) = pred.probability(t) else {
                return false;
            };
            let survival = t.existence * p;
            if survival < min_prob || survival <= 0.0 {
                return false;
            }
            t.existence = survival.min(1.0);
            if let Some((idx, lo, hi)) = conditioning {
                if let Some(u) = t.at(idx).as_updf() {
                    if let Some(conditioned) = condition_updf(u, lo, hi) {
                        t.set_value(idx, Value::from(conditioned));
                    }
                }
            }
            true
        });
        batch
    }
}

/// Condition a scalar Updf on (lo, hi): parametric forms truncate exactly;
/// sample forms re-weight; histograms re-normalize over the interval.
fn condition_updf(u: &Updf, lo: f64, hi: f64) -> Option<Updf> {
    match u {
        Updf::Parametric(d) => d.truncate(lo, hi).map(|(t, _)| Updf::Parametric(t)),
        Updf::Samples(s) => {
            let mut xs = Vec::new();
            let mut ws = Vec::new();
            for (x, w) in s.iter() {
                if x > lo && x <= hi {
                    xs.push(x);
                    ws.push(w);
                }
            }
            if xs.is_empty() {
                None
            } else {
                Some(Updf::Samples(ustream_prob::samples::WeightedSamples::new(
                    xs, ws,
                )))
            }
        }
        Updf::Histogram(h) => {
            // Keep overlapping bins, renormalize.
            let mut masses = Vec::new();
            let mut new_lo = None;
            for (i, &m) in h.masses().iter().enumerate() {
                let a = h.lo() + i as f64 * h.bin_width();
                let b = a + h.bin_width();
                if b <= lo || a > hi {
                    continue;
                }
                if new_lo.is_none() {
                    new_lo = Some(a);
                }
                masses.push(m);
            }
            let total: f64 = masses.iter().sum();
            if total <= 0.0 {
                None
            } else {
                Some(Updf::Histogram(
                    ustream_prob::histogram::HistogramPdf::from_masses(
                        new_lo?,
                        h.bin_width(),
                        masses,
                    ),
                ))
            }
        }
        // Multivariate conditioning is interval-free here; leave as is.
        other => Some(other.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Schema};
    use std::sync::Arc;
    use ustream_prob::dist::Dist;

    fn schema() -> Arc<Schema> {
        Schema::builder()
            .field("kind", DataType::Str)
            .field("temp", DataType::Uncertain)
            .build()
    }

    fn tuple(kind: &str, mean: f64, sd: f64) -> Tuple {
        Tuple::new(
            schema(),
            vec![
                Value::from(kind),
                Value::from(Updf::Parametric(Dist::gaussian(mean, sd))),
            ],
            0,
        )
    }

    #[test]
    fn certain_predicate_passes_or_drops() {
        let mut s = Select::new(Predicate::StrEq("kind".into(), "flammable".into()), 0.5);
        assert_eq!(s.process(0, tuple("flammable", 0.0, 1.0)).len(), 1);
        assert_eq!(s.process(0, tuple("inert", 0.0, 1.0)).len(), 0);
    }

    #[test]
    fn uncertain_predicate_scales_existence() {
        // P(N(60, 5) > 60) = 0.5
        let mut s =
            Select::new(Predicate::UncertainAbove("temp".into(), 60.0), 0.1).without_conditioning();
        let out = s.process(0, tuple("x", 60.0, 5.0));
        assert_eq!(out.len(), 1);
        assert!((out[0].existence - 0.5).abs() < 1e-9);
    }

    #[test]
    fn below_threshold_dropped() {
        // P(N(0,1) > 60) ≈ 0 < 0.1 ⇒ dropped.
        let mut s = Select::new(Predicate::UncertainAbove("temp".into(), 60.0), 0.1);
        assert!(s.process(0, tuple("x", 0.0, 1.0)).is_empty());
    }

    #[test]
    fn conditioning_truncates_distribution() {
        let mut s = Select::new(Predicate::UncertainAbove("temp".into(), 60.0), 0.01);
        let out = s.process(0, tuple("x", 60.0, 5.0));
        let u = out[0].updf("temp").unwrap();
        // Mean of upper-half truncation is above the threshold.
        assert!(u.mean() > 60.0);
        assert!((out[0].existence - 0.5).abs() < 1e-9);
    }

    #[test]
    fn and_multiplies_probabilities() {
        let pred = Predicate::And(
            Box::new(Predicate::StrEq("kind".into(), "flammable".into())),
            Box::new(Predicate::UncertainAbove("temp".into(), 60.0)),
        );
        let mut s = Select::new(pred, 0.0).without_conditioning();
        let out = s.process(0, tuple("flammable", 60.0, 5.0));
        assert!((out[0].existence - 0.5).abs() < 1e-9);
        assert!(s.process(0, tuple("inert", 60.0, 5.0)).is_empty());
    }

    #[test]
    fn not_inverts() {
        let pred = Predicate::Not(Box::new(Predicate::UncertainAbove("temp".into(), 60.0)));
        let mut s = Select::new(pred, 0.0).without_conditioning();
        let out = s.process(0, tuple("x", 65.0, 5.0));
        let p_above = Dist::gaussian(65.0, 5.0).prob_above(60.0);
        assert!((out[0].existence - (1.0 - p_above)).abs() < 1e-9);
    }

    #[test]
    fn or_uses_inclusion_exclusion() {
        let pred = Predicate::Or(
            Box::new(Predicate::UncertainAbove("temp".into(), 60.0)),
            Box::new(Predicate::UncertainBelow("temp".into(), 60.0)),
        );
        // P(A) + P(B) − P(A)P(B) with P(A) = P(B) = 0.5 ⇒ 0.75 (the
        // independence approximation; exact would be 1 for complements).
        let mut s = Select::new(pred, 0.0).without_conditioning();
        let out = s.process(0, tuple("x", 60.0, 5.0));
        assert!((out[0].existence - 0.75).abs() < 1e-9);
        // De-Morgan-ish sanity: Or of impossible events is impossible.
        let never = Predicate::Or(
            Box::new(Predicate::StrEq("kind".into(), "a".into())),
            Box::new(Predicate::StrEq("kind".into(), "b".into())),
        );
        let mut s2 = Select::new(never, 0.0);
        assert!(s2.process(0, tuple("x", 0.0, 1.0)).is_empty());
    }

    #[test]
    fn between_predicate_conditions_to_interval() {
        let mut s = Select::new(Predicate::UncertainBetween("temp".into(), 55.0, 65.0), 0.0);
        let out = s.process(0, tuple("x", 60.0, 5.0));
        let u = out[0].updf("temp").unwrap();
        let (lo, hi) = u.confidence_interval(0.999);
        assert!(lo >= 54.9 && hi <= 65.1, "truncated to ({lo}, {hi})");
    }

    #[test]
    fn existence_compounds_across_selects() {
        let mut s1 =
            Select::new(Predicate::UncertainAbove("temp".into(), 60.0), 0.0).without_conditioning();
        let mut s2 =
            Select::new(Predicate::UncertainAbove("temp".into(), 60.0), 0.0).without_conditioning();
        let out1 = s1.process(0, tuple("x", 60.0, 5.0));
        let out2 = s2.process(0, out1.into_iter().next().unwrap());
        assert!((out2[0].existence - 0.25).abs() < 1e-9);
    }

    #[test]
    fn missing_field_drops_tuple() {
        let mut s = Select::new(Predicate::UncertainAbove("nope".into(), 0.0), 0.0);
        assert!(s.process(0, tuple("x", 0.0, 1.0)).is_empty());
    }

    #[test]
    fn batched_select_matches_tuple_at_a_time() {
        use crate::batch::Batch;
        let pred = Predicate::And(
            Box::new(Predicate::StrEq("kind".into(), "flammable".into())),
            Box::new(Predicate::UncertainAbove("temp".into(), 60.0)),
        );
        let inputs: Vec<Tuple> = (0..40)
            .map(|i| {
                tuple(
                    if i % 3 == 0 { "flammable" } else { "inert" },
                    50.0 + i as f64,
                    5.0,
                )
            })
            .collect();
        let mut one = Select::new(pred.clone(), 0.05);
        let mut per_tuple = Vec::new();
        for t in inputs.clone() {
            per_tuple.extend(one.process(0, t));
        }
        let mut two = Select::new(pred, 0.05);
        let batched = two.process_batch(0, Batch::from(inputs)).into_vec();
        assert_eq!(per_tuple.len(), batched.len());
        for (a, b) in per_tuple.iter().zip(&batched) {
            assert_eq!(a.ts, b.ts);
            assert!((a.existence - b.existence).abs() < 1e-15);
            assert_eq!(a.lineage, b.lineage);
            assert!(
                (a.updf("temp").unwrap().mean() - b.updf("temp").unwrap().mean()).abs() < 1e-12
            );
        }
    }

    #[test]
    fn columnar_select_is_bit_identical_to_rows() {
        use crate::batch::Batch;
        let pred = Predicate::And(
            Box::new(Predicate::StrEq("kind".into(), "flammable".into())),
            Box::new(Predicate::UncertainAbove("temp".into(), 60.0)),
        );
        let s = schema();
        let inputs: Vec<Tuple> = (0..64)
            .map(|i| {
                Tuple::new(
                    s.clone(),
                    vec![
                        Value::from(if i % 3 == 0 { "flammable" } else { "inert" }),
                        Value::from(Updf::Parametric(Dist::gaussian(50.0 + i as f64, 5.0))),
                    ],
                    i,
                )
            })
            .collect();
        let mut row_op = Select::new(pred.clone(), 0.05).without_conditioning();
        let row_out = row_op
            .process_batch(0, Batch::from(inputs.clone()))
            .into_vec();
        let mut col_op = Select::new(pred, 0.05).without_conditioning();
        let mut cb = Batch::from(inputs);
        assert!(cb.columnarize());
        let col_batch = col_op.process_batch(0, cb);
        assert!(col_batch.is_columnar(), "fast path keeps columns");
        let col_out = col_batch.into_vec();
        assert_eq!(row_out.len(), col_out.len());
        for (a, b) in row_out.iter().zip(&col_out) {
            assert_eq!(a.ts, b.ts);
            assert_eq!(a.existence.to_bits(), b.existence.to_bits(), "bit-exact");
            assert_eq!(a.lineage, b.lineage);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn columnar_select_with_conditioning_hydrates_and_matches() {
        use crate::batch::Batch;
        let pred = Predicate::UncertainAbove("temp".into(), 60.0);
        let inputs: Vec<Tuple> = (0..16).map(|i| tuple("x", 55.0 + i as f64, 5.0)).collect();
        let mut row_op = Select::new(pred.clone(), 0.05);
        let row_out = row_op
            .process_batch(0, Batch::from(inputs.clone()))
            .into_vec();
        let mut col_op = Select::new(pred, 0.05);
        let cb = Batch::from(inputs);
        // Mixed-schema inputs (every `tuple()` call builds a fresh Arc)
        // refuse to columnarize; rebuild against one schema.
        let shared = schema();
        let rows: Vec<Tuple> = cb
            .into_vec()
            .into_iter()
            .map(|t| {
                Tuple::derived(
                    shared.clone(),
                    t.values().to_vec(),
                    t.ts,
                    t.existence,
                    t.lineage.clone(),
                )
            })
            .collect();
        let mut cb = Batch::from(rows);
        assert!(cb.columnarize());
        let col_out = col_op.process_batch(0, cb).into_vec();
        assert_eq!(row_out.len(), col_out.len());
        for (a, b) in row_out.iter().zip(&col_out) {
            assert_eq!(a.existence.to_bits(), b.existence.to_bits());
            let (am, bm) = (
                a.updf("temp").unwrap().mean(),
                b.updf("temp").unwrap().mean(),
            );
            assert_eq!(am.to_bits(), bm.to_bits(), "conditioning identical");
        }
    }

    #[test]
    fn batched_select_missing_field_drops_all() {
        use crate::batch::Batch;
        let mut s = Select::new(Predicate::UncertainAbove("nope".into(), 0.0), 0.0);
        let batch = Batch::from(vec![tuple("x", 0.0, 1.0), tuple("y", 1.0, 1.0)]);
        assert!(s.process_batch(0, batch).is_empty());
    }

    #[test]
    fn mixed_schema_batch_matches_per_tuple_and_drops_missing_field() {
        use crate::batch::Batch;
        // `temp` sits at index 1 in `a`, at index 0 in `b`, and is
        // absent from `c`: a row batch cycling through all three has no
        // shared schema, so it takes the per-tuple fallback.
        let a = schema();
        let b = Schema::builder()
            .field("temp", DataType::Uncertain)
            .field("kind", DataType::Str)
            .build();
        let c = Schema::builder().field("kind", DataType::Str).build();
        let gauss = |m: f64| Value::from(Updf::Parametric(Dist::gaussian(m, 5.0)));
        let inputs: Vec<Tuple> = (0..30u64)
            .map(|i| {
                let m = 50.0 + i as f64;
                match i % 3 {
                    0 => Tuple::new(a.clone(), vec![Value::from("x"), gauss(m)], i),
                    1 => Tuple::new(b.clone(), vec![gauss(m), Value::from("x")], i),
                    _ => Tuple::new(c.clone(), vec![Value::from("x")], i),
                }
            })
            .collect();
        let batch = Batch::from(inputs.clone());
        assert!(batch.shared_schema().is_none(), "exercises the fallback");

        // Conditioning stays on (the default).
        let pred = Predicate::UncertainAbove("temp".into(), 60.0);
        let mut one = Select::new(pred.clone(), 0.05);
        let mut per_tuple = Vec::new();
        for t in inputs {
            per_tuple.extend(one.process(0, t));
        }
        let mut two = Select::new(pred, 0.05);
        let batched = two.process_batch(0, batch).into_vec();
        assert_eq!(format!("{per_tuple:?}"), format!("{batched:?}"));

        // Every survivor came from `a` or `b`, with P(temp > 60) read at
        // its own schema's index and `temp` truncated above 60.
        assert!(batched.iter().any(|t| t.ts % 3 == 0));
        assert!(batched.iter().any(|t| t.ts % 3 == 1));
        for t in &batched {
            assert_ne!(t.ts % 3, 2, "tuples without `temp` drop");
            let prior = Dist::gaussian(50.0 + t.ts as f64, 5.0);
            assert!((t.existence - prior.prob_above(60.0)).abs() < 1e-12);
            assert!(t.updf("temp").unwrap().mean() > 60.0, "conditioned");
        }
    }
}
