//! Probabilistic windowed join (§5, Q2's `loc_equals` join).
//!
//! Two sliding event-time buffers (the `[Range r]` windows of Q2); each
//! arriving tuple probes the opposite buffer. For uncertain join
//! predicates the operator computes the **match probability** — e.g.
//! P(‖X − Y‖ ≤ ε) for two uncertain locations — multiplies it into the
//! output's existence, unions lineage, and (optionally) emits provenance
//! columns so a downstream aggregation can detect and exactly handle the
//! correlation a one-to-many join creates (§5.2).
//!
//! `loc_equals` runs at a small fixed cost per candidate pair. Most pairs
//! in a window are far apart, so before any box probability is computed
//! a pair of multivariate Gaussians is tested against a sound upper
//! bound: P(‖X − Y‖∞ ≤ ε) is at most the smallest per-axis band
//! probability of X − Y. A pair whose bound times both existences cannot
//! reach `min_prob` is skipped; it could not have passed the existence
//! filter, so the output is unchanged. Survivors get the closed-form 2-d
//! box probability of [`MvGaussian::prob_in_box`].

use crate::batch::Batch;
use crate::lineage::Archive;
use crate::ops::Operator;
use crate::schema::{DataType, Field, Schema};
use crate::tuple::Tuple;
use crate::updf::Updf;
use crate::value::{GroupKey, Value};
use crate::window::SlidingBuffer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use ustream_prob::dist::{Dist, Gaussian, MvGaussian};
use ustream_prob::special::std_normal_cdf;

/// Key-extraction closure for certain equi-joins.
pub type KeyFn = Box<dyn Fn(&Tuple) -> Option<GroupKey> + Send>;

/// Sorted key index over one side's sliding window: `(key, seq)` pairs in
/// lexicographic order, where `seq` is a monotone per-side counter aligned
/// with buffer positions (`position = seq − head_seq`; evictions only pop
/// the front, in seq order, so the alignment is exact). Probing binary
/// searches the equal-key range instead of scanning the whole window; the
/// range's seqs ascend, which IS the buffer's insertion order, so the
/// indexed probe emits matches in exactly the order the row scan would.
#[derive(Default)]
struct KeyIndex {
    entries: Vec<(GroupKey, u64)>,
    next_seq: u64,
    head_seq: u64,
}

impl KeyIndex {
    /// Account for one tuple pushed to the back of the buffer; index it
    /// when it has a key (unkeyed tuples still consume a seq so positions
    /// stay aligned — the row scan skips them, and so does an index that
    /// never holds them).
    fn pushed(&mut self, key: Option<GroupKey>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(k) = key {
            let at = self
                .entries
                .partition_point(|(ek, es)| (ek, *es) < (&k, seq));
            self.entries.insert(at, (k, seq));
        }
    }

    /// The buffer evicted `count` tuples from its front.
    fn evicted(&mut self, count: usize) {
        if count == 0 {
            return;
        }
        self.head_seq += count as u64;
        let head = self.head_seq;
        self.entries.retain(|&(_, s)| s >= head);
    }

    /// Buffer positions (front-relative, ascending = insertion order) of
    /// live tuples whose key equals `key`.
    fn probe<'a>(&'a self, key: &'a GroupKey) -> impl Iterator<Item = usize> + 'a {
        let lo = self.entries.partition_point(|(k, _)| k < key);
        let hi = lo + self.entries[lo..].partition_point(|(k, _)| k == key);
        let head = self.head_seq;
        self.entries[lo..hi]
            .iter()
            .map(move |&(_, s)| (s - head) as usize)
    }
}

/// Candidate-pair prefilter (cheap certain-attribute pruning).
type PairFilter = Box<dyn Fn(&Tuple, &Tuple) -> bool + Send>;

/// Join predicate.
pub enum JoinCondition {
    /// Certain equi-join on extracted keys (probability 0 or 1).
    KeyEquals { left: KeyFn, right: KeyFn },
    /// P(|X − Y| ≤ ε) over two uncertain scalar attributes.
    BandUncertain {
        left_field: String,
        right_field: String,
        epsilon: f64,
    },
    /// Q2's `loc_equals`: P(‖X − Y‖∞ ≤ ε) over multivariate attributes.
    LocEquals {
        left_field: String,
        right_field: String,
        epsilon: f64,
    },
}

/// The windowed join operator (port 0 = left, port 1 = right).
pub struct WindowJoin {
    name: String,
    left: SlidingBuffer,
    right: SlidingBuffer,
    condition: JoinCondition,
    /// Drop matches whose joint probability falls below this.
    min_prob: f64,
    /// Optional certain-attribute prefilter applied before probability
    /// computation (cheap pruning).
    prefilter: Option<PairFilter>,
    /// Output fields `<field>__src` carrying the base-tuple id of the
    /// given side's field — enables lineage-aware aggregation.
    provenance: Vec<(String, usize)>,
    /// Archive incoming base distributions (Fig. 2: A4 "archives these
    /// input tuples for later computation of the query result
    /// distributions"): (shared archive, port, field).
    archive: Option<(Archive, usize, String)>,
    out_schema: Option<(Arc<Schema>, Arc<Schema>, Arc<Schema>)>,
    rng: StdRng,
    /// Declared key fields (left, right) for field-based equi-joins built
    /// via [`WindowJoin::keyed_by_fields`]: enables the indexed probe and
    /// key-column routing of columnar batches.
    key_fields: Option<(String, String)>,
    left_index: KeyIndex,
    right_index: KeyIndex,
}

impl WindowJoin {
    pub fn new(range_ms: u64, condition: JoinCondition, min_prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&min_prob));
        WindowJoin {
            name: "join".into(),
            left: SlidingBuffer::new(range_ms),
            right: SlidingBuffer::new(range_ms),
            condition,
            min_prob,
            prefilter: None,
            provenance: Vec::new(),
            archive: None,
            out_schema: None,
            rng: StdRng::seed_from_u64(0x701A),
            key_fields: None,
            left_index: KeyIndex::default(),
            right_index: KeyIndex::default(),
        }
    }

    /// Certain equi-join keyed on plain field lookups: equivalent to
    /// [`JoinCondition::KeyEquals`] with `GroupKey::from_value` closures
    /// over the named fields, but because the fields are *declared*, the
    /// join maintains a sorted key index per window (probes binary-search
    /// the equal-key range instead of scanning every buffered tuple) and
    /// columnar batches have their keys read straight off the key column.
    /// Output is bit-identical to the closure form — same matches, same
    /// order, same existence arithmetic.
    pub fn keyed_by_fields(
        range_ms: u64,
        left_field: impl Into<String>,
        right_field: impl Into<String>,
        min_prob: f64,
    ) -> Self {
        let lf: String = left_field.into();
        let rf: String = right_field.into();
        let (lc, rc) = (lf.clone(), rf.clone());
        let mut j = WindowJoin::new(
            range_ms,
            JoinCondition::KeyEquals {
                left: Box::new(move |t| GroupKey::from_value(t.get(&lc).ok()?)),
                right: Box::new(move |t| GroupKey::from_value(t.get(&rc).ok()?)),
            },
            min_prob,
        );
        j.key_fields = Some((lf, rf));
        j
    }

    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    pub fn with_prefilter(mut self, f: impl Fn(&Tuple, &Tuple) -> bool + Send + 'static) -> Self {
        self.prefilter = Some(Box::new(f));
        self
    }

    /// Emit `<field>__src` provenance for `field` taken from `port`
    /// (0 = left, 1 = right).
    pub fn with_provenance(mut self, field: impl Into<String>, port: usize) -> Self {
        assert!(port < 2);
        self.provenance.push((field.into(), port));
        self
    }

    /// Archive each incoming tuple's `field` distribution (from `port`)
    /// into `archive`, keyed by the tuple's base id — so a later operator
    /// can recompute exact result distributions from lineage even if the
    /// joined tuples only carried summaries (Fig. 2's A4 → J1 pattern).
    pub fn archive_to(mut self, archive: Archive, port: usize, field: impl Into<String>) -> Self {
        assert!(port < 2);
        self.archive = Some((archive, port, field.into()));
        self
    }

    fn output_schema(&mut self, l: &Arc<Schema>, r: &Arc<Schema>) -> Arc<Schema> {
        if let Some((cl, cr, out)) = &self.out_schema {
            if Arc::ptr_eq(cl, l) && Arc::ptr_eq(cr, r) {
                return out.clone();
            }
        }
        let mut joined = l.join(r, "r_");
        let extra: Vec<Field> = self
            .provenance
            .iter()
            .map(|(f, _)| Field::new(format!("{f}__src"), DataType::Int))
            .collect();
        if !extra.is_empty() {
            joined = joined.extend(extra);
        }
        self.out_schema = Some((l.clone(), r.clone(), joined.clone()));
        joined
    }

    fn emit(&mut self, l: &Tuple, r: &Tuple, p: f64) -> Tuple {
        let schema = self.output_schema(l.schema(), r.schema());
        let mut values: Vec<Value> = l.values().to_vec();
        values.extend(r.values().iter().cloned());
        for (field, port) in &self.provenance {
            let src_tuple = if *port == 0 { l } else { r };
            let id = src_tuple.lineage.ids().first().copied().unwrap_or(0);
            let _ = field;
            values.push(Value::Int(id as i64));
        }
        let existence = (l.existence * r.existence * p).clamp(0.0, 1.0);
        Tuple::derived(
            schema,
            values,
            l.ts.max(r.ts),
            existence,
            l.lineage.union(&r.lineage),
        )
    }

    /// Probe the opposite buffer with `t`, appending matches to `out`.
    /// Only *matching* candidates are cloned (to release the buffer
    /// borrow before `emit`'s schema-cache mutation) — probing no longer
    /// copies the whole window per arriving tuple. A `LocEquals` pair of
    /// multivariate Gaussians whose per-axis band bound
    /// ([`loc_equals_rejects`]) cannot reach `min_prob` is skipped before
    /// its box probability is computed; no skipped pair could pass the
    /// `p·lₑ·rₑ ≥ min_prob` filter below, and `min_prob` = 0 skips none.
    fn probe_into(&mut self, incoming_port: usize, t: &Tuple, out: &mut Vec<Tuple>) {
        let mut matched: Vec<(Tuple, f64)> = Vec::new();
        {
            let WindowJoin {
                left,
                right,
                condition,
                min_prob,
                prefilter,
                rng,
                ..
            } = self;
            let buf = if incoming_port == 0 { &*right } else { &*left };
            for other in buf.iter() {
                let (l, r) = if incoming_port == 0 {
                    (t, other)
                } else {
                    (other, t)
                };
                if let Some(f) = prefilter {
                    if !f(l, r) {
                        continue;
                    }
                }
                let Some(p) = match_probability(condition, rng, l, r, *min_prob) else {
                    continue;
                };
                if p * l.existence * r.existence >= *min_prob && p > 0.0 {
                    matched.push((other.clone(), p));
                }
            }
        }
        out.reserve(matched.len());
        for (other, p) in matched {
            let (l, r) = if incoming_port == 0 {
                (t, &other)
            } else {
                (&other, t)
            };
            out.push(self.emit(l, r, p));
        }
    }

    /// Indexed probe for declared-key equi-joins: binary search the
    /// opposite window's key index instead of scanning the buffer. The
    /// equal-key seqs ascend (insertion order), and the existence filter
    /// and `emit` arithmetic are written to match the row scan exactly
    /// (`p == 1.0` for every indexed candidate), so output is
    /// bit-identical to [`Self::probe_into`].
    fn probe_indexed(
        &mut self,
        incoming_port: usize,
        t: &Tuple,
        key: Option<&GroupKey>,
        out: &mut Vec<Tuple>,
    ) {
        let Some(key) = key else { return };
        let mut matched: Vec<Tuple> = Vec::new();
        {
            let (buf, index) = if incoming_port == 0 {
                (&self.right, &self.right_index)
            } else {
                (&self.left, &self.left_index)
            };
            for pos in index.probe(key) {
                let other = buf.get(pos).expect("key index aligned with buffer");
                // Row-scan filter `p * l.e * r.e >= min_prob && p > 0.0`
                // with p = 1.0, in the same multiplication order.
                let (le, re) = if incoming_port == 0 {
                    (t.existence, other.existence)
                } else {
                    (other.existence, t.existence)
                };
                if 1.0 * le * re >= self.min_prob {
                    matched.push(other.clone());
                }
            }
        }
        out.reserve(matched.len());
        for other in matched {
            let (l, r) = if incoming_port == 0 {
                (t, &other)
            } else {
                (&other, t)
            };
            out.push(self.emit(l, r, 1.0));
        }
    }

    /// The incoming tuple's declared join key, when field-keyed.
    fn extract_key(&self, port: usize, t: &Tuple) -> Option<GroupKey> {
        let (lf, rf) = self.key_fields.as_ref()?;
        let field = if port == 0 { lf } else { rf };
        GroupKey::from_value(t.get(field).ok()?)
    }

    /// Full per-tuple ingest (archive → evict → probe → buffer), with the
    /// declared key already extracted (`None` when the join is not
    /// field-keyed, or the tuple has no key).
    fn ingest_with_key(
        &mut self,
        port: usize,
        tuple: Tuple,
        key: Option<GroupKey>,
        out: &mut Vec<Tuple>,
    ) {
        assert!(port < 2, "join has two ports");
        // Archive the base distribution before anything else (A4's role).
        if let Some((archive, a_port, field)) = &self.archive {
            if *a_port == port {
                if let (Some(&id), Ok(u)) = (tuple.lineage.ids().first(), tuple.updf(field)) {
                    archive.insert(id, u.clone());
                }
            }
        }
        let indexed = self.key_fields.is_some();
        // Evict the opposite buffer against the incoming event time first
        // so stale tuples cannot match.
        if port == 0 {
            let n = self.right.evict_before(tuple.ts);
            if indexed {
                self.right_index.evicted(n);
            }
        } else {
            let n = self.left.evict_before(tuple.ts);
            if indexed {
                self.left_index.evicted(n);
            }
        }
        if indexed && self.prefilter.is_none() {
            self.probe_indexed(port, &tuple, key.as_ref(), out);
        } else {
            self.probe_into(port, &tuple, out);
        }
        if port == 0 {
            let n = self.left.push(tuple);
            if indexed {
                self.left_index.evicted(n);
                self.left_index.pushed(key);
            }
        } else {
            let n = self.right.push(tuple);
            if indexed {
                self.right_index.evicted(n);
                self.right_index.pushed(key);
            }
        }
    }
}

/// Match probability for a candidate pair (free function so the probe
/// loop can borrow the window buffers and the rng disjointly); `None`
/// when the pair cannot match, including a `LocEquals` pair the band
/// bound rejects against `min_prob`.
fn match_probability(
    condition: &JoinCondition,
    rng: &mut StdRng,
    l: &Tuple,
    r: &Tuple,
    min_prob: f64,
) -> Option<f64> {
    match condition {
        JoinCondition::KeyEquals { left, right } => {
            let (a, b) = (left(l)?, right(r)?);
            Some((a == b) as u8 as f64)
        }
        JoinCondition::BandUncertain {
            left_field,
            right_field,
            epsilon,
        } => {
            let lu = l.updf(left_field).ok()?;
            let ru = r.updf(right_field).ok()?;
            Some(band_probability(lu, ru, *epsilon, rng))
        }
        JoinCondition::LocEquals {
            left_field,
            right_field,
            epsilon,
        } => {
            let lu = l.updf(left_field).ok()?;
            let ru = r.updf(right_field).ok()?;
            // min_prob = 0 rejects nothing, so the bound is not computed.
            if let (Updf::Mv(a), Updf::Mv(b)) = (lu, ru) {
                let existence = l.existence * r.existence;
                if min_prob > 0.0
                    && a.dim() == b.dim()
                    && loc_equals_rejects(a, b, *epsilon, existence, min_prob)
                {
                    return None;
                }
            }
            Some(loc_equals_probability(lu, ru, *epsilon, rng))
        }
    }
}

/// Added to the band bound before it is held against `min_prob`: above
/// the largest tested error of `MvGaussian::prob_in_box` in any dimension
/// (≤ 1e-12 for the 2-d closed form, ~1e-8 for the quadrature in 3-d and
/// up), so the kernel could never have returned more than bound + slack.
const BAND_BOUND_SLACK: f64 = 1e-6;

/// Sound rejection for `loc_equals` over independent X ~ `a`, Y ~ `b`:
/// P(‖X − Y‖∞ ≤ ε) ≤ minᵢ P(|Xᵢ − Yᵢ| ≤ ε) = Φ((ε − mᵢ)/sᵢ) − Φ((−ε − mᵢ)/sᵢ),
/// with mᵢ = μᵃᵢ − μᵇᵢ and sᵢ² = Σᵃᵢᵢ + Σᵇᵢᵢ floored as in
/// `MvGaussian::marginal`. True when some axis's band plus
/// [`BAND_BOUND_SLACK`], times `existence` (= lₑ·rₑ), is below
/// `min_prob`. Builds no difference distribution and draws no random
/// number; a non-finite input never rejects.
fn loc_equals_rejects(
    a: &MvGaussian,
    b: &MvGaussian,
    epsilon: f64,
    existence: f64,
    min_prob: f64,
) -> bool {
    (0..a.dim()).any(|i| {
        let m = a.mean()[i] - b.mean()[i];
        let s = (a.cov_at(i, i) + b.cov_at(i, i)).max(1e-18).sqrt();
        let band = (std_normal_cdf((epsilon - m) / s) - std_normal_cdf((-epsilon - m) / s))
            .clamp(0.0, 1.0);
        (band + BAND_BOUND_SLACK) * existence < min_prob
    })
}

/// P(|X − Y| ≤ ε) for independent scalar uncertain attributes.
/// Closed form when both reduce to Gaussians; Monte-Carlo otherwise.
fn band_probability(lu: &Updf, ru: &Updf, epsilon: f64, rng: &mut StdRng) -> f64 {
    let as_gaussian = |u: &Updf| -> Option<Gaussian> {
        match u {
            Updf::Parametric(Dist::Gaussian(g)) => Some(*g),
            _ => None,
        }
    };
    if let (Some(a), Some(b)) = (as_gaussian(lu), as_gaussian(ru)) {
        let diff = Gaussian::from_mean_var(
            a.mean() - b.mean(),
            (a.variance() + b.variance()).max(1e-18),
        );
        return (diff.cdf(epsilon) - diff.cdf(-epsilon)).clamp(0.0, 1.0);
    }
    // Monte Carlo on both payloads (deterministic seed per operator).
    let n = 512;
    let mut hits = 0usize;
    for _ in 0..n {
        let x = sample_scalar(lu, rng);
        let y = sample_scalar(ru, rng);
        if (x - y).abs() <= epsilon {
            hits += 1;
        }
    }
    hits as f64 / n as f64
}

/// Q2 `loc_equals`: P(‖X − Y‖∞ ≤ ε) for multivariate attributes.
fn loc_equals_probability(lu: &Updf, ru: &Updf, epsilon: f64, rng: &mut StdRng) -> f64 {
    match (lu, ru) {
        (Updf::Mv(a), Updf::Mv(b)) if a.dim() == b.dim() => {
            let diff = a.difference(b);
            let lo = vec![-epsilon; a.dim()];
            let hi = vec![epsilon; a.dim()];
            diff.prob_in_box(&lo, &hi)
        }
        _ => {
            // Monte Carlo fallback over mean-vec dimensionality.
            let d = lu.dim();
            if d != ru.dim() {
                return 0.0;
            }
            let n = 512;
            let mut hits = 0usize;
            for _ in 0..n {
                let x = sample_vec(lu, rng);
                let y = sample_vec(ru, rng);
                if x.iter()
                    .zip(y.iter())
                    .all(|(a, b)| (a - b).abs() <= epsilon)
                {
                    hits += 1;
                }
            }
            hits as f64 / n as f64
        }
    }
}

fn sample_scalar(u: &Updf, rng: &mut StdRng) -> f64 {
    match u {
        Updf::Parametric(d) => d.sample(rng),
        Updf::Samples(s) => s.sample(rng),
        Updf::Histogram(h) => h.sample(rng),
        _ => panic!("scalar sample on multivariate Updf"),
    }
}

fn sample_vec(u: &Updf, rng: &mut StdRng) -> Vec<f64> {
    match u {
        Updf::Mv(mv) => mv.sample(rng),
        Updf::MvSamples(s) => {
            use rand::Rng;
            let i = rng.gen_range(0..s.len());
            s.point(i).to_vec()
        }
        scalar => vec![sample_scalar(scalar, rng)],
    }
}

impl Operator for WindowJoin {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_ports(&self) -> usize {
        2
    }

    /// Certain equi-joins shard by join key: a pair can only match when
    /// both keys are equal, so routing each side by its key keeps every
    /// candidate pair on one shard (window eviction is purely
    /// timestamp-based and unaffected by which other keys share the
    /// buffers). Probabilistic conditions (`BandUncertain`, `LocEquals`)
    /// must compare every cross pair, so they stay global.
    fn partition_keys(&self) -> crate::ops::Partitioning {
        match self.condition {
            JoinCondition::KeyEquals { .. } => crate::ops::Partitioning::Key,
            _ => crate::ops::Partitioning::Global,
        }
    }

    fn partition_key(&self, port: usize, tuple: &Tuple) -> Option<GroupKey> {
        match &self.condition {
            JoinCondition::KeyEquals { left, right } => {
                if port == 0 {
                    left(tuple)
                } else {
                    right(tuple)
                }
            }
            _ => None,
        }
    }

    fn partition_key_field(&self, port: usize) -> Option<&str> {
        let (lf, rf) = self.key_fields.as_ref()?;
        Some(if port == 0 { lf } else { rf })
    }

    /// Ingest each tuple in order, accumulating all matches into one
    /// output batch (no per-tuple output `Vec`s). Field-keyed joins read
    /// columnar batches' keys straight off the key column before
    /// hydrating, skipping the per-row field lookup.
    fn process_batch(&mut self, port: usize, batch: Batch) -> Batch {
        let mut out = Vec::new();
        let col_keys: Option<Vec<Option<GroupKey>>> = match (&self.key_fields, batch.columns()) {
            (Some((lf, rf)), Some(cols)) => {
                let field = if port == 0 { lf } else { rf };
                cols.schema().index_of(field).ok().map(|idx| {
                    let col = cols.col(idx);
                    (0..cols.len()).map(|i| col.group_key_at(i)).collect()
                })
            }
            _ => None,
        };
        let mut col_keys = col_keys.map(Vec::into_iter);
        for tuple in batch {
            let key = match &mut col_keys {
                Some(keys) => keys.next().expect("one key per row"),
                None => self.extract_key(port, &tuple),
            };
            self.ingest_with_key(port, tuple, key, &mut out);
        }
        Batch::from(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;
    use ustream_prob::dist::MvGaussian;

    fn loc_schema() -> Arc<Schema> {
        Schema::builder()
            .field("tag_id", DataType::Int)
            .field("loc", DataType::UncertainVec(2))
            .build()
    }

    fn temp_schema() -> Arc<Schema> {
        Schema::builder()
            .field("sensor", DataType::Int)
            .field("loc", DataType::UncertainVec(2))
            .field("temp", DataType::Uncertain)
            .build()
    }

    fn obj(ts: u64, id: i64, x: f64, y: f64, sd: f64) -> Tuple {
        Tuple::new(
            loc_schema(),
            vec![
                Value::from(id),
                Value::from(Updf::Mv(MvGaussian::isotropic(vec![x, y], sd))),
            ],
            ts,
        )
    }

    fn temp(ts: u64, id: i64, x: f64, y: f64, sd: f64, t_mean: f64) -> Tuple {
        Tuple::new(
            temp_schema(),
            vec![
                Value::from(id),
                Value::from(Updf::Mv(MvGaussian::isotropic(vec![x, y], sd))),
                Value::from(Updf::Parametric(Dist::gaussian(t_mean, 1.0))),
            ],
            ts,
        )
    }

    fn loc_join(eps: f64, min_prob: f64) -> WindowJoin {
        WindowJoin::new(
            3000,
            JoinCondition::LocEquals {
                left_field: "loc".into(),
                right_field: "loc".into(),
                epsilon: eps,
            },
            min_prob,
        )
    }

    #[test]
    fn colocated_tuples_join_with_high_probability() {
        let mut j = loc_join(2.0, 0.2);
        assert!(j.process(0, obj(100, 1, 0.0, 0.0, 0.3)).is_empty());
        let out = j.process(1, temp(200, 9, 0.1, -0.1, 0.3, 65.0));
        assert_eq!(out.len(), 1);
        assert!(out[0].existence > 0.8, "p = {}", out[0].existence);
        // Joined schema carries both sides (clash prefixed).
        assert!(out[0].get("r_loc").is_ok());
        assert!(out[0].get("temp").is_ok());
    }

    #[test]
    fn distant_tuples_do_not_join() {
        let mut j = loc_join(2.0, 0.2);
        j.process(0, obj(100, 1, 0.0, 0.0, 0.3));
        let out = j.process(1, temp(200, 9, 50.0, 50.0, 0.3, 65.0));
        assert!(out.is_empty());
    }

    #[test]
    fn match_probability_multiplies_existences() {
        let mut j = loc_join(2.0, 0.0);
        let mut l = obj(100, 1, 0.0, 0.0, 0.1);
        l.existence = 0.5;
        j.process(0, l);
        let out = j.process(1, temp(200, 9, 0.0, 0.0, 0.1, 65.0));
        assert_eq!(out.len(), 1);
        assert!(out[0].existence <= 0.5);
        assert!(out[0].existence > 0.45, "≈ 0.5 × ~1.0 match prob");
    }

    #[test]
    fn window_eviction_limits_matches() {
        let mut j = loc_join(2.0, 0.2);
        j.process(0, obj(100, 1, 0.0, 0.0, 0.3));
        // 10 s later: left tuple is out of the 3 s range.
        let out = j.process(1, temp(10_100, 9, 0.0, 0.0, 0.3, 65.0));
        assert!(out.is_empty());
    }

    #[test]
    fn lineage_union_on_output() {
        let mut j = loc_join(2.0, 0.0);
        let l = obj(100, 1, 0.0, 0.0, 0.3);
        let l_lin = l.lineage.clone();
        j.process(0, l);
        let r = temp(200, 9, 0.0, 0.0, 0.3, 65.0);
        let r_lin = r.lineage.clone();
        let out = j.process(1, r);
        assert_eq!(out[0].lineage, l_lin.union(&r_lin));
    }

    #[test]
    fn one_to_many_join_shares_provenance() {
        // One temperature tuple matches two objects → two outputs carrying
        // the SAME temp__src id (the correlation §5.2 warns about).
        let mut j = loc_join(2.0, 0.1).with_provenance("temp", 1);
        j.process(0, obj(100, 1, 0.0, 0.0, 0.2));
        j.process(0, obj(150, 2, 0.2, 0.1, 0.2));
        let out = j.process(1, temp(200, 9, 0.1, 0.0, 0.2, 65.0));
        assert_eq!(out.len(), 2);
        let s1 = out[0].int("temp__src").unwrap();
        let s2 = out[1].int("temp__src").unwrap();
        assert_eq!(s1, s2, "both outputs derive temp from the same base tuple");
        assert!(out[0].lineage.overlaps(&out[1].lineage));
    }

    #[test]
    fn archive_records_base_distributions_for_downstream_recompute() {
        use crate::lineage::Archive;
        let archive = Archive::new();
        let mut j =
            loc_join(2.0, 0.1)
                .with_provenance("temp", 1)
                .archive_to(archive.clone(), 1, "temp");
        j.process(0, obj(100, 1, 0.0, 0.0, 0.2));
        let t = temp(200, 9, 0.1, 0.0, 0.2, 65.0);
        let base_id = *t.lineage.ids().first().unwrap();
        let out = j.process(1, t);
        assert_eq!(out.len(), 1);
        // J1's pattern: resolve the provenance id against the archive and
        // recover the base pdf exactly.
        let src = out[0].int("temp__src").unwrap() as u64;
        assert_eq!(src, base_id);
        let archived = archive.get(src).expect("base tuple archived");
        assert!((archived.mean() - 65.0).abs() < 1e-9);
        assert!((archived.std_dev() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn band_join_gaussian_closed_form() {
        let s = Schema::builder()
            .field("id", DataType::Int)
            .field("x", DataType::Uncertain)
            .build();
        let mk = |ts: u64, mean: f64| {
            Tuple::new(
                s.clone(),
                vec![
                    Value::from(1i64),
                    Value::from(Updf::Parametric(Dist::gaussian(mean, 1.0))),
                ],
                ts,
            )
        };
        let mut j = WindowJoin::new(
            1000,
            JoinCondition::BandUncertain {
                left_field: "x".into(),
                right_field: "x".into(),
                epsilon: 1.0,
            },
            0.0,
        );
        j.process(0, mk(10, 0.0));
        let out = j.process(1, mk(20, 0.0));
        // D ~ N(0, 2); P(|D| ≤ 1) = 2Φ(1/√2) − 1 ≈ 0.5205.
        assert_eq!(out.len(), 1);
        assert!(
            (out[0].existence - 0.5205).abs() < 0.01,
            "p = {}",
            out[0].existence
        );
    }

    #[test]
    fn key_equals_certain_join() {
        let s = Schema::builder().field("k", DataType::Int).build();
        let mk = |ts: u64, k: i64| Tuple::new(s.clone(), vec![Value::from(k)], ts);
        let mut j = WindowJoin::new(
            1000,
            JoinCondition::KeyEquals {
                left: Box::new(|t| GroupKey::from_value(t.get("k").ok()?)),
                right: Box::new(|t| GroupKey::from_value(t.get("k").ok()?)),
            },
            0.5,
        );
        j.process(0, mk(1, 7));
        j.process(0, mk(2, 8));
        let out = j.process(1, mk(3, 7));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].existence, 1.0);
    }

    #[test]
    fn keyed_by_fields_matches_closure_form_bit_for_bit() {
        let s = Schema::builder()
            .field("k", DataType::Int)
            .field("v", DataType::Int)
            .build();
        let mk = |ts: u64, k: i64, v: i64, e: f64| {
            let mut t = Tuple::new(s.clone(), vec![Value::from(k), Value::from(v)], ts);
            t.existence = e;
            t
        };
        let mut closure_j = WindowJoin::new(
            5000,
            JoinCondition::KeyEquals {
                left: Box::new(|t| GroupKey::from_value(t.get("k").ok()?)),
                right: Box::new(|t| GroupKey::from_value(t.get("k").ok()?)),
            },
            0.3,
        );
        let mut field_j = WindowJoin::keyed_by_fields(5000, "k", "k", 0.3);
        let feed: Vec<(usize, Tuple)> = (0..200)
            .map(|i| {
                let port = (i % 3 == 0) as usize;
                (
                    port,
                    mk(
                        i as u64 * 40,
                        (i % 5) as i64,
                        i as i64,
                        1.0 - (i % 4) as f64 * 0.2,
                    ),
                )
            })
            .collect();
        let render = |t: &Tuple| {
            format!(
                "ts={} e={:016x} lin={:?} vals={:?}",
                t.ts,
                t.existence.to_bits(),
                t.lineage.ids(),
                t.values()
            )
        };
        let mut a = Vec::new();
        let mut b = Vec::new();
        for (port, t) in feed {
            for o in closure_j.process(port, t.clone()) {
                a.push(render(&o));
            }
            for o in field_j.process(port, t) {
                b.push(render(&o));
            }
        }
        assert!(!a.is_empty(), "feed produces matches");
        assert_eq!(a, b, "indexed probe is bit-identical to the row scan");
    }

    #[test]
    fn keyed_by_fields_survives_window_eviction() {
        let mut field_j = WindowJoin::keyed_by_fields(1000, "k", "k", 0.0);
        let mut closure_j = WindowJoin::new(
            1000,
            JoinCondition::KeyEquals {
                left: Box::new(|t| GroupKey::from_value(t.get("k").ok()?)),
                right: Box::new(|t| GroupKey::from_value(t.get("k").ok()?)),
            },
            0.0,
        );
        let s = Schema::builder().field("k", DataType::Int).build();
        let mk = |ts: u64, k: i64| Tuple::new(s.clone(), vec![Value::from(k)], ts);
        // Stretch timestamps so the 1 s window evicts repeatedly; the
        // index must stay aligned with the shrinking buffer.
        let mut a = Vec::new();
        let mut b = Vec::new();
        for i in 0..60u64 {
            let t = mk(i * 97, (i % 3) as i64);
            a.extend(
                field_j
                    .process((i % 2) as usize, t.clone())
                    .iter()
                    .map(|o| format!("{} {:?}", o.ts, o.values())),
            );
            b.extend(
                closure_j
                    .process((i % 2) as usize, t)
                    .iter()
                    .map(|o| format!("{} {:?}", o.ts, o.values())),
            );
        }
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }

    #[test]
    fn keyed_by_fields_declares_per_port_key_fields() {
        let j = WindowJoin::keyed_by_fields(1000, "group", "gname", 0.0);
        assert_eq!(j.partition_keys(), crate::ops::Partitioning::Key);
        assert_eq!(j.partition_key_field(0), Some("group"));
        assert_eq!(j.partition_key_field(1), Some("gname"));
    }

    /// A seeded correlated 2- or 3-d location: sd 0.05–6 per axis,
    /// pairwise correlation up to ±0.95 (3-d built from an AR(1)-style
    /// correlation so it stays positive definite).
    fn random_location(rng: &mut StdRng, d: usize) -> MvGaussian {
        use rand::Rng;
        let mean: Vec<f64> = (0..d).map(|_| rng.gen_range(-20.0..20.0)).collect();
        let sd: Vec<f64> = (0..d).map(|_| rng.gen_range(0.05..6.0)).collect();
        let rho: f64 = rng.gen_range(-0.95..0.95);
        let mut cov = vec![0.0; d * d];
        for i in 0..d {
            for j in 0..d {
                cov[i * d + j] = sd[i] * sd[j] * rho.powi((i as i32 - j as i32).abs());
            }
        }
        MvGaussian::new(mean, cov)
    }

    #[test]
    fn loc_equals_rejection_is_sound() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(0x10CE);
        let eps = 8.0;
        let mut rejected = [0usize; 3];
        let mut kept_passing = 0usize;
        for pair in 0..3000 {
            let d = if pair % 10 == 9 { 3 } else { 2 };
            let (a, b) = (random_location(&mut rng, d), random_location(&mut rng, d));
            // Existences in (0, 1], every fourth pair certain.
            let mut existence = || match pair % 4 {
                0 => 1.0,
                _ => 1.0 - rng.gen_range(0.0..0.99),
            };
            let (le, re) = (existence(), existence());
            let p = a.difference(&b).prob_in_box(&vec![-eps; d], &vec![eps; d]);
            for (slot, min_prob) in [0.0, 0.25, 0.9].into_iter().enumerate() {
                if loc_equals_rejects(&a, &b, eps, le * re, min_prob) {
                    rejected[slot] += 1;
                    assert!(
                        p * le * re < min_prob,
                        "rejected a passing pair: p = {p}, lₑ = {le}, rₑ = {re}, min_prob = {min_prob}"
                    );
                } else if min_prob > 0.0 && p * le * re >= min_prob {
                    kept_passing += 1;
                }
            }
        }
        assert_eq!(rejected[0], 0, "min_prob = 0 rejects nothing");
        assert!(
            rejected[1] > 1000 && rejected[2] > rejected[1],
            "{rejected:?}"
        );
        assert!(
            kept_passing > 50,
            "the feed has passing pairs too: {kept_passing}"
        );
    }

    #[test]
    fn loc_equals_join_emits_exactly_the_passing_pairs() {
        // A window of fitted-looking clouds, most of them far from the
        // probe: the join's output must be every pair whose exact
        // p·lₑ·rₑ reaches min_prob, with the same existence bits.
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(0x0F17);
        let mut j = loc_join(8.0, 0.25);
        let mut left = Vec::new();
        for i in 0..200 {
            let mut t = Tuple::new(
                loc_schema(),
                vec![
                    Value::from(i as i64),
                    Value::from(Updf::Mv(random_location(&mut rng, 2))),
                ],
                i,
            );
            t.existence = 1.0 - rng.gen_range(0.0..0.7);
            assert!(j.process(0, t.clone()).is_empty());
            left.push(t);
        }
        let mut emitted = 0;
        for k in 0..20 {
            let mut probe = Tuple::new(
                temp_schema(),
                vec![
                    Value::from(k as i64),
                    Value::from(Updf::Mv(random_location(&mut rng, 2))),
                    Value::from(Updf::Parametric(Dist::gaussian(65.0, 1.0))),
                ],
                300,
            );
            probe.existence = 1.0 - rng.gen_range(0.0..0.7);
            let want: Vec<u64> = left
                .iter()
                .filter_map(|l| {
                    let (Ok(Updf::Mv(a)), Ok(Updf::Mv(b))) = (l.updf("loc"), probe.updf("loc"))
                    else {
                        unreachable!("Mv payloads on both sides")
                    };
                    let p = a.difference(b).prob_in_box(&[-8.0; 2], &[8.0; 2]);
                    (p * l.existence * probe.existence >= 0.25 && p > 0.0).then(|| {
                        (l.existence * probe.existence * p)
                            .clamp(0.0, 1.0)
                            .to_bits()
                    })
                })
                .collect();
            let got: Vec<u64> = j
                .process(1, probe)
                .iter()
                .map(|o| o.existence.to_bits())
                .collect();
            emitted += got.len();
            assert_eq!(got, want);
        }
        assert!(emitted > 0, "the feed produces alerts");
    }

    #[test]
    fn prefilter_prunes_candidates() {
        let mut j = loc_join(2.0, 0.0)
            .with_prefilter(|l, r| l.int("tag_id").unwrap_or(0) == r.int("sensor").unwrap_or(1));
        j.process(0, obj(100, 9, 0.0, 0.0, 0.2));
        j.process(0, obj(100, 5, 0.0, 0.0, 0.2));
        let out = j.process(1, temp(200, 9, 0.0, 0.0, 0.2, 65.0));
        assert_eq!(out.len(), 1, "prefilter keeps only matching ids");
    }
}
