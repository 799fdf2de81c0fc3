//! Projection / derivation of new attributes.
//!
//! Q1's inner query "simply adds two attributes to each tuple" — one
//! computed from an uncertain location, one looked up from a certain tag
//! id. This module provides:
//!
//! - certain derivations (closures over certain fields),
//! - exact linear transforms of uncertain attributes (`a·X + b`),
//! - exact monotone change-of-variables onto a histogram,
//! - the **Delta method** (§5.2): Y = h(X) ≈ N(h(μ), h′(μ)²σ²) for
//!   differentiable h — the cheap approximation for composed complex
//!   functions.

use crate::batch::Batch;
use crate::columnar::Column;
use crate::ops::Operator;
use crate::schema::{DataType, Field, Schema};
use crate::tuple::Tuple;
use crate::updf::Updf;
use crate::value::Value;
use std::sync::Arc;
use ustream_prob::dist::{Dist, Gaussian};
use ustream_prob::histogram::HistogramPdf;

/// One derived output attribute.
pub enum Derivation {
    /// New certain value from the tuple's certain attributes.
    Certain {
        out: Field,
        f: Box<dyn Fn(&Tuple) -> Value + Send>,
    },
    /// Certain linear transform `a·x + b` of a certain numeric attribute
    /// (Int widens to Float). The declarative sibling of [`Self::Certain`]:
    /// because the transform is visible to the engine instead of hidden
    /// in a closure, the columnar path runs it as one tight loop over the
    /// input column.
    CertainLinear {
        input: String,
        a: f64,
        b: f64,
        out: String,
    },
    /// Exact linear transform of an uncertain scalar attribute.
    Linear {
        input: String,
        a: f64,
        b: f64,
        out: String,
    },
    /// Exact monotone transform via change of variables, materialized on
    /// a histogram grid: f_Y(y) = f_X(h⁻¹(y))·|dh⁻¹/dy|.
    Monotone {
        input: String,
        out: String,
        h: Box<dyn Fn(f64) -> f64 + Send>,
        h_inv: Box<dyn Fn(f64) -> f64 + Send>,
        /// d h⁻¹ / dy.
        dh_inv: Box<dyn Fn(f64) -> f64 + Send>,
        bins: usize,
    },
    /// First-order Delta-method Gaussian approximation of h(X).
    Delta {
        input: String,
        out: String,
        h: Box<dyn Fn(f64) -> f64 + Send>,
        /// h′.
        dh: Box<dyn Fn(f64) -> f64 + Send>,
    },
    /// Multivariate Delta method for h(X, Y) of two *independent*
    /// uncertain attributes (§5.2: "the multivariate Delta method to
    /// approximate the result distribution for efficiency"):
    /// Y ≈ N(h(μ₁, μ₂), h₁′²σ₁² + h₂′²σ₂²).
    DeltaBinary {
        input1: String,
        input2: String,
        out: String,
        h: Box<dyn Fn(f64, f64) -> f64 + Send>,
        /// ∂h/∂x evaluated at the means.
        dh1: Box<dyn Fn(f64, f64) -> f64 + Send>,
        /// ∂h/∂y evaluated at the means.
        dh2: Box<dyn Fn(f64, f64) -> f64 + Send>,
    },
}

impl Derivation {
    fn out_field(&self) -> Field {
        match self {
            Derivation::Certain { out, .. } => out.clone(),
            Derivation::CertainLinear { out, .. } => Field::new(out.clone(), DataType::Float),
            Derivation::Linear { out, .. }
            | Derivation::Monotone { out, .. }
            | Derivation::Delta { out, .. }
            | Derivation::DeltaBinary { out, .. } => Field::new(out.clone(), DataType::Uncertain),
        }
    }
}

/// Input indices a derivation reads, resolved once per schema. `Missing`
/// marks an unresolvable field reference: every tuple of that schema
/// drops.
#[derive(Debug, Clone, Copy)]
enum ResolvedInputs {
    /// Certain derivations look fields up through their own closure.
    Closure,
    One(usize),
    Two(usize, usize),
    Missing,
}

/// Per-schema compilation of the projection: output schema plus resolved
/// input indices per derivation.
struct ResolvedProject {
    input_schema: Arc<Schema>,
    out_schema: Arc<Schema>,
    inputs: Vec<ResolvedInputs>,
}

/// The projection operator: appends derived attributes to each tuple.
pub struct Project {
    name: String,
    derivations: Vec<Derivation>,
    /// Per-schema resolution cache.
    resolved: Option<ResolvedProject>,
}

impl Project {
    pub fn new(derivations: Vec<Derivation>) -> Self {
        assert!(!derivations.is_empty(), "Project needs ≥1 derivation");
        Project {
            name: "project".into(),
            derivations,
            resolved: None,
        }
    }

    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Resolve (or fetch the cached resolution of) every derivation's
    /// input fields against `input` — the once-per-schema compilation
    /// step.
    fn ensure_resolved(&mut self, input: &Arc<Schema>) {
        let stale = match &self.resolved {
            Some(r) => !Arc::ptr_eq(&r.input_schema, input),
            None => true,
        };
        if stale {
            let extra: Vec<Field> = self.derivations.iter().map(|d| d.out_field()).collect();
            let out_schema = input.extend(extra);
            let inputs = self
                .derivations
                .iter()
                .map(|d| {
                    let resolve = |name: &str| input.index_of(name).ok();
                    match d {
                        Derivation::Certain { .. } => ResolvedInputs::Closure,
                        Derivation::CertainLinear { input: f, .. }
                        | Derivation::Linear { input: f, .. }
                        | Derivation::Monotone { input: f, .. }
                        | Derivation::Delta { input: f, .. } => match resolve(f) {
                            Some(i) => ResolvedInputs::One(i),
                            None => ResolvedInputs::Missing,
                        },
                        Derivation::DeltaBinary { input1, input2, .. } => {
                            match (resolve(input1), resolve(input2)) {
                                (Some(i), Some(j)) => ResolvedInputs::Two(i, j),
                                _ => ResolvedInputs::Missing,
                            }
                        }
                    }
                })
                .collect();
            self.resolved = Some(ResolvedProject {
                input_schema: input.clone(),
                out_schema,
                inputs,
            });
        }
    }

    /// One derived value for `t`, with its input fields already resolved
    /// to indices — no field-name lookups. `None` drops the tuple.
    fn derive_value_at(d: &Derivation, inputs: ResolvedInputs, t: &Tuple) -> Option<Value> {
        match (d, inputs) {
            (Derivation::Certain { f, .. }, _) => Some(f(t)),
            (Derivation::CertainLinear { a, b, .. }, ResolvedInputs::One(i)) => {
                let x = t.at(i).as_float()?;
                Some(Value::Float(x * a + b))
            }
            (Derivation::Linear { a, b, .. }, ResolvedInputs::One(i)) => {
                let u = t.at(i).as_updf()?;
                Some(Value::from(u.affine(*a, *b)))
            }
            (
                Derivation::Monotone {
                    h,
                    h_inv,
                    dh_inv,
                    bins,
                    ..
                },
                ResolvedInputs::One(i),
            ) => {
                let u = t.at(i).as_updf()?;
                Some(Value::from(monotone_transform(u, h, h_inv, dh_inv, *bins)))
            }
            (Derivation::Delta { h, dh, .. }, ResolvedInputs::One(i)) => {
                let u = t.at(i).as_updf()?;
                let (mu, var) = (u.mean(), u.variance());
                let slope = dh(mu);
                let out_var = (slope * slope * var).max(1e-18);
                Some(Value::from(Updf::Parametric(Dist::Gaussian(
                    Gaussian::from_mean_var(h(mu), out_var),
                ))))
            }
            (Derivation::DeltaBinary { h, dh1, dh2, .. }, ResolvedInputs::Two(i, j)) => {
                let u1 = t.at(i).as_updf()?;
                let u2 = t.at(j).as_updf()?;
                let (m1, v1) = (u1.mean(), u1.variance());
                let (m2, v2) = (u2.mean(), u2.variance());
                let (g1, g2) = (dh1(m1, m2), dh2(m1, m2));
                let out_var = (g1 * g1 * v1 + g2 * g2 * v2).max(1e-18);
                Some(Value::from(Updf::Parametric(Dist::Gaussian(
                    Gaussian::from_mean_var(h(m1, m2), out_var),
                ))))
            }
            _ => unreachable!("resolution shape matches derivation shape"),
        }
    }

    /// Vectorized column-at-a-time derivation. Returns `true` when the
    /// batch is columnar, every derivation had a columnar kernel for its
    /// input column's layout, and the batch was widened in place; `false`
    /// asks the caller to hydrate and run the row path. The kernels call
    /// the exact same scalar functions as the row path, so outputs are
    /// bit-identical.
    fn columnar_derive(&self, batch: &mut Batch, out_schema: &Arc<Schema>) -> bool {
        let resolved = self.resolved.as_ref().expect("resolved before columnar");
        let Some(cols) = batch.columns() else {
            return false;
        };
        for (d, &idx) in self.derivations.iter().zip(&resolved.inputs) {
            let ok = match (d, idx) {
                (Derivation::Linear { .. }, ResolvedInputs::One(i)) => {
                    cols.col(i).as_gaussian().is_some()
                }
                (Derivation::CertainLinear { .. }, ResolvedInputs::One(i)) => {
                    cols.col(i).as_int().is_some() || cols.col(i).as_float().is_some()
                }
                _ => false,
            };
            if !ok {
                return false;
            }
        }
        let mut cols = batch.take_columns().expect("checked columnar above");
        let mut derived = Vec::with_capacity(self.derivations.len());
        for (d, &idx) in self.derivations.iter().zip(&resolved.inputs) {
            match (d, idx) {
                (Derivation::Linear { a, b, .. }, ResolvedInputs::One(i)) => {
                    let (mean, sd) = cols.col(i).as_gaussian().expect("eligibility checked");
                    // Route each row through the same scalar affine as
                    // the row path (`Dist::affine` on a Gaussian, which
                    // always yields a Gaussian), but keep the result in
                    // column form — no per-row `Updf` boxing.
                    let mut om = Vec::with_capacity(mean.len());
                    let mut os = Vec::with_capacity(sd.len());
                    for r in 0..mean.len() {
                        let g = match Dist::Gaussian(Gaussian::new(mean[r], sd[r])).affine(*a, *b) {
                            Dist::Gaussian(g) => g,
                            _ => unreachable!("affine of a Gaussian is Gaussian"),
                        };
                        om.push(g.mean());
                        os.push(g.std_dev());
                    }
                    derived.push(Column::Gaussian { mean: om, sd: os });
                }
                (Derivation::CertainLinear { a, b, .. }, ResolvedInputs::One(i)) => {
                    let col = cols.col(i);
                    let ys: Vec<f64> = if let Some(xs) = col.as_int() {
                        xs.iter().map(|&x| x as f64 * a + b).collect()
                    } else {
                        let xs = col.as_float().expect("eligibility checked");
                        xs.iter().map(|&x| x * a + b).collect()
                    };
                    derived.push(Column::Float(ys));
                }
                _ => unreachable!("eligibility checked above"),
            }
        }
        cols.add_columns(out_schema.clone(), derived);
        *batch = Batch::from_columns(cols);
        true
    }
}

/// Exact change of variables for a monotone h, evaluated on a grid.
fn monotone_transform(
    u: &Updf,
    h: &(dyn Fn(f64) -> f64 + Send),
    h_inv: &(dyn Fn(f64) -> f64 + Send),
    dh_inv: &(dyn Fn(f64) -> f64 + Send),
    bins: usize,
) -> Updf {
    // Map the effective input range through h (monotone ⇒ endpoints map
    // to endpoints, possibly swapped).
    let (in_lo, in_hi) = (u.quantile(1e-9), u.quantile(1.0 - 1e-9));
    let (mut lo, mut hi) = (h(in_lo), h(in_hi));
    if lo > hi {
        std::mem::swap(&mut lo, &mut hi);
    }
    if hi.partial_cmp(&lo) != Some(std::cmp::Ordering::Greater) {
        // Degenerate (or NaN) h: collapse to a point mass approximation.
        return Updf::Parametric(Dist::gaussian(lo, 1e-9));
    }
    let width = (hi - lo) / bins as f64;
    let pdf_x = |x: f64| -> f64 {
        match u {
            Updf::Parametric(d) => d.pdf(x),
            Updf::Histogram(hh) => hh.pdf(x),
            // For samples: fit-free kernel-less density is noisy; use the
            // KL Gaussian as the density surrogate.
            Updf::Samples(s) => s.fit_gaussian().pdf(x),
            _ => panic!("monotone transform on multivariate Updf"),
        }
    };
    let mut masses = Vec::with_capacity(bins);
    for i in 0..bins {
        let y = lo + (i as f64 + 0.5) * width;
        let x = h_inv(y);
        let dens = pdf_x(x) * dh_inv(y).abs();
        masses.push((dens * width).max(0.0));
    }
    Updf::Histogram(HistogramPdf::from_masses(lo, width, masses))
}

impl Operator for Project {
    fn name(&self) -> &str {
        &self.name
    }

    /// Projection derives attributes per tuple (schema caches are derived
    /// state), so its input may be split freely across shards.
    fn partition_keys(&self) -> crate::ops::Partitioning {
        crate::ops::Partitioning::Any
    }

    /// Resolve the output schema and every input index once per batch,
    /// then widen each tuple in place (no values-vector clone, no
    /// per-tuple `Vec` allocation).
    fn process_batch(&mut self, port: usize, mut batch: Batch) -> Batch {
        let Some(schema) = batch.shared_schema().cloned() else {
            // Mixed-schema batch: run each tuple as a one-row batch.
            let mut out = Batch::with_capacity(batch.len());
            for t in batch {
                out.extend(self.process(port, t));
            }
            return out;
        };
        self.ensure_resolved(&schema);
        let resolved = self.resolved.as_ref().expect("just resolved");
        if resolved
            .inputs
            .iter()
            .any(|i| matches!(i, ResolvedInputs::Missing))
        {
            // An unresolvable input field drops every tuple of this
            // schema, without hydrating.
            return Batch::new();
        }
        let out_schema = resolved.out_schema.clone();
        if self.columnar_derive(&mut batch, &out_schema) {
            return batch;
        }
        batch.hydrate();
        let resolved = self.resolved.as_ref().expect("just resolved");
        let derivations = &self.derivations;
        let inputs = &resolved.inputs;
        // One scratch buffer for all tuples (extend_in_place drains it).
        let mut extra: Vec<Value> = Vec::with_capacity(derivations.len());
        batch.retain_mut(|t| {
            extra.clear();
            for (d, &idx) in derivations.iter().zip(inputs) {
                match Self::derive_value_at(d, idx, t) {
                    Some(v) => extra.push(v),
                    None => return false, // malformed input: drop
                }
            }
            t.extend_in_place(out_schema.clone(), &mut extra);
            true
        });
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;
    use ustream_prob::dist::ContinuousDist;

    fn schema() -> Arc<Schema> {
        Schema::builder()
            .field("tag_id", DataType::Int)
            .field("x", DataType::Uncertain)
            .build()
    }

    fn tuple(mean: f64, sd: f64) -> Tuple {
        Tuple::new(
            schema(),
            vec![
                Value::from(7i64),
                Value::from(Updf::Parametric(Dist::gaussian(mean, sd))),
            ],
            0,
        )
    }

    #[test]
    fn certain_derivation_lookup() {
        let mut p = Project::new(vec![Derivation::Certain {
            out: Field::new("weight", DataType::Float),
            f: Box::new(|t: &Tuple| Value::from(t.int("tag_id").unwrap() as f64 * 2.0)),
        }]);
        let out = p.process(0, tuple(0.0, 1.0));
        assert_eq!(out[0].float("weight").unwrap(), 14.0);
        // Original fields still present.
        assert_eq!(out[0].int("tag_id").unwrap(), 7);
    }

    #[test]
    fn linear_transform_exact() {
        let mut p = Project::new(vec![Derivation::Linear {
            input: "x".into(),
            a: 3.0,
            b: -1.0,
            out: "y".into(),
        }]);
        let out = p.process(0, tuple(2.0, 1.0));
        let y = out[0].updf("y").unwrap();
        assert!((y.mean() - 5.0).abs() < 1e-12);
        assert!((y.variance() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn monotone_exp_transform_matches_lognormal() {
        // Y = exp(X), X ~ N(0, 0.25) ⇒ Y ~ LogNormal(0, 0.5).
        let mut p = Project::new(vec![Derivation::Monotone {
            input: "x".into(),
            out: "y".into(),
            h: Box::new(|x| x.exp()),
            h_inv: Box::new(|y: f64| y.ln()),
            dh_inv: Box::new(|y: f64| 1.0 / y),
            bins: 512,
        }]);
        let out = p.process(0, tuple(0.0, 0.5));
        let y = out[0].updf("y").unwrap();
        let exact = ustream_prob::dist::LogNormal::new(0.0, 0.5);
        assert!((y.mean() - exact.mean()).abs() < 0.01, "mean {}", y.mean());
        assert!((y.quantile(0.5) - 1.0).abs() < 0.01);
    }

    #[test]
    fn delta_method_close_for_small_variance() {
        // h(x) = x², X ~ N(3, 0.1²): Delta gives N(9, (6·0.1)²).
        let mut p = Project::new(vec![Derivation::Delta {
            input: "x".into(),
            out: "y".into(),
            h: Box::new(|x| x * x),
            dh: Box::new(|x| 2.0 * x),
        }]);
        let out = p.process(0, tuple(3.0, 0.1));
        let y = out[0].updf("y").unwrap();
        assert!((y.mean() - 9.0).abs() < 1e-9);
        assert!((y.std_dev() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn delta_vs_monotone_agree_in_small_variance_regime() {
        let mk = |deriv| Project::new(vec![deriv]);
        let mut delta = mk(Derivation::Delta {
            input: "x".into(),
            out: "y".into(),
            h: Box::new(|x: f64| x.exp()),
            dh: Box::new(|x: f64| x.exp()),
        });
        let mut exact = mk(Derivation::Monotone {
            input: "x".into(),
            out: "y".into(),
            h: Box::new(|x: f64| x.exp()),
            h_inv: Box::new(|y: f64| y.ln()),
            dh_inv: Box::new(|y: f64| 1.0 / y),
            bins: 512,
        });
        let t = tuple(1.0, 0.05);
        let yd = delta.process(0, t.clone())[0].updf("y").unwrap().clone();
        let ye = exact.process(0, t)[0].updf("y").unwrap().clone();
        assert!((yd.mean() - ye.mean()).abs() < 0.01);
        assert!((yd.std_dev() - ye.std_dev()).abs() < 0.01);
    }

    #[test]
    fn delta_binary_independent_product() {
        // h(x, y) = x·y at independent X ~ N(3, 0.1²), Y ~ N(2, 0.2²):
        // Delta gives N(6, (2·0.1)² + (3·0.2)²) = N(6, 0.04 + 0.36).
        let s = Schema::builder()
            .field("x", DataType::Uncertain)
            .field("y", DataType::Uncertain)
            .build();
        let t = Tuple::new(
            s,
            vec![
                Value::from(Updf::Parametric(Dist::gaussian(3.0, 0.1))),
                Value::from(Updf::Parametric(Dist::gaussian(2.0, 0.2))),
            ],
            0,
        );
        let mut p = Project::new(vec![Derivation::DeltaBinary {
            input1: "x".into(),
            input2: "y".into(),
            out: "xy".into(),
            h: Box::new(|x, y| x * y),
            dh1: Box::new(|_, y| y),
            dh2: Box::new(|x, _| x),
        }]);
        let out = p.process(0, t);
        let xy = out[0].updf("xy").unwrap();
        assert!((xy.mean() - 6.0).abs() < 1e-12);
        assert!((xy.variance() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn delta_binary_matches_monte_carlo_small_variance() {
        // h(x, y) = x·exp(y/10) with small variances: Delta ≈ MC truth.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let gx = Dist::gaussian(4.0, 0.05);
        let gy = Dist::gaussian(1.0, 0.05);
        let s = Schema::builder()
            .field("x", DataType::Uncertain)
            .field("y", DataType::Uncertain)
            .build();
        let t = Tuple::new(
            s,
            vec![
                Value::from(Updf::Parametric(gx.clone())),
                Value::from(Updf::Parametric(gy.clone())),
            ],
            0,
        );
        let mut p = Project::new(vec![Derivation::DeltaBinary {
            input1: "x".into(),
            input2: "y".into(),
            out: "z".into(),
            h: Box::new(|x, y: f64| x * (y / 10.0).exp()),
            dh1: Box::new(|_, y: f64| (y / 10.0).exp()),
            dh2: Box::new(|x, y: f64| x * (y / 10.0).exp() / 10.0),
        }]);
        let z = p.process(0, t)[0].updf("z").unwrap().clone();
        let mut rng = StdRng::seed_from_u64(9);
        let n = 50_000;
        let mut acc = 0.0;
        let mut acc2 = 0.0;
        for _ in 0..n {
            let v = gx.sample(&mut rng) * (gy.sample(&mut rng) / 10.0).exp();
            acc += v;
            acc2 += v * v;
        }
        let mc_mean = acc / n as f64;
        let mc_var = acc2 / n as f64 - mc_mean * mc_mean;
        assert!(
            (z.mean() - mc_mean).abs() < 0.01,
            "mean {} vs {}",
            z.mean(),
            mc_mean
        );
        assert!((z.variance() - mc_var).abs() < 0.2 * mc_var);
    }

    #[test]
    fn multiple_derivations_in_one_pass() {
        let mut p = Project::new(vec![
            Derivation::Certain {
                out: Field::new("const", DataType::Int),
                f: Box::new(|_| Value::from(1i64)),
            },
            Derivation::Linear {
                input: "x".into(),
                a: 1.0,
                b: 10.0,
                out: "shifted".into(),
            },
        ]);
        let out = p.process(0, tuple(0.0, 1.0));
        assert_eq!(out[0].schema().len(), 4);
        assert!((out[0].updf("shifted").unwrap().mean() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn batched_project_matches_tuple_at_a_time() {
        use crate::batch::Batch;
        let mk_proj = || {
            Project::new(vec![
                Derivation::Certain {
                    out: Field::new("double_id", DataType::Int),
                    f: Box::new(|t: &Tuple| Value::from(t.int("tag_id").unwrap() * 2)),
                },
                Derivation::Linear {
                    input: "x".into(),
                    a: 2.0,
                    b: 1.0,
                    out: "y".into(),
                },
            ])
        };
        let shared = schema();
        let inputs: Vec<Tuple> = (0..20)
            .map(|i| {
                Tuple::new(
                    shared.clone(),
                    vec![
                        Value::from(i as i64),
                        Value::from(Updf::Parametric(Dist::gaussian(i as f64, 1.0))),
                    ],
                    i as u64,
                )
            })
            .collect();
        let mut one = mk_proj();
        let mut per_tuple = Vec::new();
        for t in inputs.clone() {
            per_tuple.extend(one.process(0, t));
        }
        let mut two = mk_proj();
        let batched = two.process_batch(0, Batch::from(inputs)).into_vec();
        assert_eq!(per_tuple.len(), batched.len());
        for (a, b) in per_tuple.iter().zip(&batched) {
            assert_eq!(a.int("double_id").unwrap(), b.int("double_id").unwrap());
            assert_eq!(a.ts, b.ts);
            assert_eq!(a.lineage, b.lineage);
            assert!((a.updf("y").unwrap().mean() - b.updf("y").unwrap().mean()).abs() < 1e-12);
            assert_eq!(a.schema().fields(), b.schema().fields());
        }
    }

    #[test]
    fn batched_project_drops_malformed_inputs() {
        use crate::batch::Batch;
        let mut p = Project::new(vec![Derivation::Linear {
            input: "missing".into(),
            a: 1.0,
            b: 0.0,
            out: "y".into(),
        }]);
        let batch = Batch::from(vec![tuple(0.0, 1.0), tuple(1.0, 1.0)]);
        assert!(p.process_batch(0, batch).is_empty());
    }

    #[test]
    fn columnar_project_is_bit_identical_to_rows() {
        use crate::batch::Batch;
        let mk_proj = || {
            Project::new(vec![
                Derivation::CertainLinear {
                    input: "tag_id".into(),
                    a: 2.5,
                    b: 0.0,
                    out: "weight".into(),
                },
                Derivation::Linear {
                    input: "x".into(),
                    a: 0.5,
                    b: 1.0,
                    out: "y".into(),
                },
            ])
        };
        let shared = schema();
        let inputs: Vec<Tuple> = (0..32)
            .map(|i| {
                Tuple::new(
                    shared.clone(),
                    vec![
                        Value::from(i as i64),
                        Value::from(Updf::Parametric(Dist::gaussian(
                            i as f64,
                            1.0 + (i % 3) as f64 * 0.25,
                        ))),
                    ],
                    i as u64,
                )
            })
            .collect();
        let rows = mk_proj()
            .process_batch(0, Batch::from(inputs.clone()))
            .into_vec();
        let mut col_batch = Batch::from(inputs);
        assert!(col_batch.columnarize());
        let out = mk_proj().process_batch(0, col_batch);
        assert!(out.is_columnar(), "fast path keeps the batch columnar");
        let cols = out.columns().unwrap();
        assert!(cols.col(2).as_float().is_some(), "weight is a Float column");
        assert!(cols.col(3).as_gaussian().is_some(), "y stays Gaussian");
        let back = out.into_vec();
        assert_eq!(rows.len(), back.len());
        for (a, b) in rows.iter().zip(&back) {
            assert_eq!(a.schema().fields(), b.schema().fields());
            assert_eq!(
                a.float("weight").unwrap().to_bits(),
                b.float("weight").unwrap().to_bits()
            );
            let (ya, yb) = (a.updf("y").unwrap(), b.updf("y").unwrap());
            assert_eq!(ya.mean().to_bits(), yb.mean().to_bits());
            assert_eq!(ya.std_dev().to_bits(), yb.std_dev().to_bits());
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn columnar_project_hydrates_for_closure_derivations() {
        use crate::batch::Batch;
        let shared = schema();
        let inputs: Vec<Tuple> = (0..8)
            .map(|i| {
                Tuple::new(
                    shared.clone(),
                    vec![
                        Value::from(i as i64),
                        Value::from(Updf::Parametric(Dist::gaussian(i as f64, 1.0))),
                    ],
                    i as u64,
                )
            })
            .collect();
        let mut p = Project::new(vec![Derivation::Certain {
            out: Field::new("double_id", DataType::Int),
            f: Box::new(|t: &Tuple| Value::from(t.int("tag_id").unwrap() * 2)),
        }]);
        let mut b = Batch::from(inputs);
        assert!(b.columnarize());
        let out = p.process_batch(0, b);
        assert!(!out.is_columnar(), "closure derivations hydrate");
        assert_eq!(out.len(), 8);
        assert_eq!(out.as_slice()[3].int("double_id").unwrap(), 6);
    }

    #[test]
    fn columnar_project_missing_input_drops_all() {
        use crate::batch::Batch;
        let mut p = Project::new(vec![Derivation::Linear {
            input: "missing".into(),
            a: 1.0,
            b: 0.0,
            out: "y".into(),
        }]);
        let mut b = Batch::from(vec![tuple(0.0, 1.0), tuple(1.0, 1.0)]);
        b.columnarize();
        assert!(p.process_batch(0, b).is_empty());
    }

    #[test]
    fn certain_linear_matches_certain_closure() {
        let mut closure = Project::new(vec![Derivation::Certain {
            out: Field::new("w", DataType::Float),
            f: Box::new(|t: &Tuple| Value::from(t.int("tag_id").unwrap() as f64 * 2.5 + 1.0)),
        }]);
        let mut linear = Project::new(vec![Derivation::CertainLinear {
            input: "tag_id".into(),
            a: 2.5,
            b: 1.0,
            out: "w".into(),
        }]);
        let t = tuple(0.0, 1.0);
        let a = closure.process(0, t.clone());
        let b = linear.process(0, t);
        assert_eq!(
            a[0].float("w").unwrap().to_bits(),
            b[0].float("w").unwrap().to_bits()
        );
    }

    #[test]
    fn schema_cache_reused_across_tuples() {
        let mut p = Project::new(vec![Derivation::Linear {
            input: "x".into(),
            a: 1.0,
            b: 0.0,
            out: "y".into(),
        }]);
        // Tuples must share one schema Arc for the cache to hit.
        let shared = schema();
        let mk = |mean: f64| {
            Tuple::new(
                shared.clone(),
                vec![
                    Value::from(7i64),
                    Value::from(Updf::Parametric(Dist::gaussian(mean, 1.0))),
                ],
                0,
            )
        };
        let a = p.process(0, mk(0.0));
        let b = p.process(0, mk(1.0));
        assert!(Arc::ptr_eq(a[0].schema(), b[0].schema()));
    }

    #[test]
    fn mixed_schema_batch_matches_per_tuple_and_drops_missing_field() {
        use crate::batch::Batch;
        let mk_proj = || {
            Project::new(vec![
                Derivation::Linear {
                    input: "x".into(),
                    a: 3.0,
                    b: -1.0,
                    out: "y".into(),
                },
                Derivation::CertainLinear {
                    input: "tag_id".into(),
                    a: 2.0,
                    b: 0.5,
                    out: "w".into(),
                },
            ])
        };
        // `x` and `tag_id` swap indices between `a` and `b`; `c` has no
        // `x`. A row batch cycling through all three has no shared
        // schema, so it takes the per-tuple fallback.
        let a = schema();
        let b = Schema::builder()
            .field("x", DataType::Uncertain)
            .field("tag_id", DataType::Int)
            .build();
        let c = Schema::builder().field("tag_id", DataType::Int).build();
        let gauss = |m: f64| Value::from(Updf::Parametric(Dist::gaussian(m, 1.0)));
        let inputs: Vec<Tuple> = (0..12u64)
            .map(|i| {
                let id = Value::from(i as i64);
                match i % 3 {
                    0 => Tuple::new(a.clone(), vec![id, gauss(i as f64)], i),
                    1 => Tuple::new(b.clone(), vec![gauss(i as f64), id], i),
                    _ => Tuple::new(c.clone(), vec![id], i),
                }
            })
            .collect();
        let batch = Batch::from(inputs.clone());
        assert!(batch.shared_schema().is_none(), "exercises the fallback");

        let mut one = mk_proj();
        let mut per_tuple = Vec::new();
        for t in inputs {
            per_tuple.extend(one.process(0, t));
        }
        let mut two = mk_proj();
        let batched = two.process_batch(0, batch).into_vec();
        assert_eq!(format!("{per_tuple:?}"), format!("{batched:?}"));

        // 4 tuples each of `a` and `b` survive; every `c` tuple drops.
        assert_eq!(batched.len(), 8);
        for t in &batched {
            assert_ne!(t.ts % 3, 2, "tuples without `x` drop");
            let i = t.ts as f64;
            assert!((t.updf("y").unwrap().mean() - (3.0 * i - 1.0)).abs() < 1e-12);
            assert_eq!(t.float("w").unwrap(), 2.0 * i + 0.5);
        }
    }
}
