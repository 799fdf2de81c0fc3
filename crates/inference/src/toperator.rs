//! The RFID data capture & transformation (T) operator (§3, §4):
//! consumes raw scans, runs the factored particle filter, and emits an
//! object-location tuple stream where every tuple carries its pdf.
//!
//! Output schema: `(time, tag_id, loc, loc_x, loc_y)` —
//! `loc` is the 2-D location distribution (multivariate Gaussian after
//! §4.3 conversion), `loc_x`/`loc_y` are scalar marginals converted under
//! the configured policy (so a recently-moved object's bimodal cloud
//! becomes an AIC/BIC-selected mixture). Under
//! [`ConversionPolicy::FitGaussian`] all three come from one weighted
//! mean and covariance computed straight from the cloud (two passes, no
//! sample copies); `loc_x`/`loc_y` are its diagonal.

use crate::cloud::ParticleCloud;
use crate::factored_pf::{FactoredConfig, FactoredFilter};
use rfid_sim::{Scan, TagRef};
use std::sync::Arc;
use ustream_core::schema::{DataType, Schema};
use ustream_core::toperator::TransformOperator;
use ustream_core::tuple::Tuple;
use ustream_core::updf::{ConversionPolicy, Updf};
use ustream_core::value::Value;
use ustream_prob::dist::{Dist, Gaussian, MvGaussian};

/// The RFID T operator.
pub struct RfidTOperator {
    filter: FactoredFilter,
    policy: ConversionPolicy,
    schema: Arc<Schema>,
    /// Total tuples emitted (diagnostics).
    pub emitted: u64,
}

impl RfidTOperator {
    pub fn new(num_objects: usize, cfg: FactoredConfig, policy: ConversionPolicy) -> Self {
        let schema = Schema::builder()
            .field("time", DataType::Time)
            .field("tag_id", DataType::Int)
            .field("loc", DataType::UncertainVec(2))
            .field("loc_x", DataType::Uncertain)
            .field("loc_y", DataType::Uncertain)
            .build();
        RfidTOperator {
            filter: FactoredFilter::new(num_objects, cfg),
            policy,
            schema,
            emitted: 0,
        }
    }

    pub fn filter(&self) -> &FactoredFilter {
        &self.filter
    }

    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn tuple_for(&self, ts: u64, id: u32) -> Tuple {
        let cloud = self.filter.cloud(id);
        let (loc, loc_x, loc_y) = match self.policy {
            ConversionPolicy::FitGaussian => fit_gaussian(cloud),
            _ => {
                let nd = cloud.to_samples();
                let loc_x = Updf::Samples(nd.marginal(0)).compact(&self.policy);
                let loc_y = Updf::Samples(nd.marginal(1)).compact(&self.policy);
                (Updf::MvSamples(nd).compact(&self.policy), loc_x, loc_y)
            }
        };
        Tuple::new(
            self.schema.clone(),
            vec![
                Value::Time(ts),
                Value::Int(id as i64),
                Value::from(loc),
                Value::from(loc_x),
                Value::from(loc_y),
            ],
            ts,
        )
    }
}

/// `(loc, loc_x, loc_y)` under [`ConversionPolicy::FitGaussian`], from
/// the cloud itself: the KL-optimal Gaussian fits (§4.3) are the
/// weighted mean and covariance. `loc` repeats the sample path's
/// `fit_mv_gaussian` operation for operation (same weight
/// normalisation, both off-diagonal products, the `1e-12` diagonal
/// floor), so it is bit-identical; the marginals take the unfloored
/// diagonal, as `fit_gaussian` does, and differ from the sample path
/// only by its second weight normalisation (≤ 1e-12 relative).
fn fit_gaussian(cloud: &ParticleCloud) -> (Updf, Updf, Updf) {
    let (xs, ws) = (cloud.particles(), cloud.weights());
    let total: f64 = ws.iter().sum();
    let mut mean = [0.0f64; 2];
    for (p, w) in xs.iter().zip(ws) {
        let w = w / total;
        mean[0] += w * p[0];
        mean[1] += w * p[1];
    }
    let [mut sxx, mut sxy, mut syx, mut syy] = [0.0f64; 4];
    for (p, w) in xs.iter().zip(ws) {
        let w = w / total;
        let (dx, dy) = (p[0] - mean[0], p[1] - mean[1]);
        sxx += w * dx * dx;
        sxy += w * dx * dy;
        syx += w * dy * dx;
        syy += w * dy * dy;
    }
    let marginal = |m: f64, var: f64| {
        Updf::Parametric(Dist::Gaussian(Gaussian::from_mean_var(m, var.max(1e-18))))
    };
    let loc = MvGaussian::new(mean.to_vec(), vec![sxx + 1e-12, sxy, syx, syy + 1e-12]);
    (
        Updf::Mv(loc),
        marginal(mean[0], sxx),
        marginal(mean[1], syy),
    )
}

impl TransformOperator for RfidTOperator {
    type Raw = Scan;

    fn ingest(&mut self, scan: Scan) -> Vec<Tuple> {
        let read_objects: Vec<u32> = scan
            .readings
            .iter()
            .filter_map(|r| match r.tag {
                TagRef::Object(id) => Some(id),
                TagRef::Shelf(_) => None,
            })
            .collect();
        // Prefer the reported pose; fall back to truth's reader position
        // only if every reading omitted it (pose dropout).
        let reader_pos = scan
            .readings
            .iter()
            .find_map(|r| r.reader_pos)
            .unwrap_or(scan.truth.reader_pos);
        self.filter.process_scan(reader_pos, &read_objects);

        // One tuple per object read in the scan.
        let ts = scan.truth.ts;
        let mut ids = read_objects;
        ids.sort_unstable();
        ids.dedup();
        let out: Vec<Tuple> = ids.into_iter().map(|id| self.tuple_for(ts, id)).collect();
        self.emitted += out.len() as u64;
        out
    }

    fn name(&self) -> &str {
        "rfid-t-operator"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{MotionModel, ObservationModel};
    use rfid_sim::{SensingModel, TraceConfig, TraceGenerator, WorldConfig};
    use ustream_prob::fit::ModelSelection;

    fn setup(policy: ConversionPolicy) -> (TraceGenerator, RfidTOperator) {
        let tc = TraceConfig {
            world: WorldConfig {
                shelf_rows: 4,
                shelf_cols: 4,
                num_objects: 30,
                move_prob: 0.0,
                seed: 21,
                ..Default::default()
            },
            sensing: SensingModel::clean(),
            seed: 23,
            ..Default::default()
        };
        let gen = TraceGenerator::new(tc);
        let shelf_xy: Vec<[f64; 2]> = gen
            .world
            .shelves()
            .iter()
            .map(|s| [s.pos[0], s.pos[1]])
            .collect();
        let cfg = FactoredConfig {
            num_particles: 150,
            extent: gen.world.extent(),
            motion: MotionModel {
                diffusion: 0.05,
                move_prob: 0.0,
                shelf_xy,
                placement_jitter: 0.8,
            },
            obs: ObservationModel::new(*gen.sensing()),
            use_spatial_index: true,
            compression: None,
            negative_evidence: true,
            resample_fraction: 0.5,
            seed: 29,
        };
        let t_op = RfidTOperator::new(30, cfg, policy);
        (gen, t_op)
    }

    #[test]
    fn emits_tuples_with_distributions() {
        let (mut gen, mut t_op) = setup(ConversionPolicy::FitGaussian);
        let mut total = 0usize;
        for _ in 0..100 {
            let out = t_op.ingest(gen.next_scan());
            for tuple in &out {
                let loc = tuple.updf("loc").unwrap();
                assert_eq!(loc.dim(), 2);
                assert!(matches!(loc, Updf::Mv(_)), "compact per policy");
                let lx = tuple.updf("loc_x").unwrap();
                assert!(!lx.is_sample_based());
            }
            total += out.len();
        }
        assert!(total > 50, "T operator emitted {total} tuples");
        assert_eq!(t_op.emitted as usize, total);
    }

    #[test]
    fn direct_gaussian_fit_matches_the_sample_path() {
        // Marginals within 1e-12 relative, `loc` exactly.
        let close = |a: f64, b: f64, what: &str| {
            assert!(
                (a - b).abs() <= 1e-12 * b.abs().max(1e-300),
                "{what}: direct {a:e} vs sample path {b:e}"
            );
        };
        let (mut gen, mut t_op) = setup(ConversionPolicy::FitGaussian);
        let mut checked = 0usize;
        for _ in 0..100 {
            for tuple in t_op.ingest(gen.next_scan()) {
                let id = tuple.int("tag_id").unwrap() as u32;
                let nd = t_op.filter().cloud(id).to_samples();
                let policy = ConversionPolicy::FitGaussian;
                for (axis, field) in [(0, "loc_x"), (1, "loc_y")] {
                    let want = Updf::Samples(nd.marginal(axis)).compact(&policy);
                    let got = tuple.updf(field).unwrap();
                    close(got.mean(), want.mean(), field);
                    close(got.variance(), want.variance(), field);
                }
                let (Updf::Mv(got), Updf::Mv(want)) = (
                    tuple.updf("loc").unwrap(),
                    Updf::MvSamples(nd).compact(&policy),
                ) else {
                    panic!("FitGaussian emits a multivariate Gaussian `loc`");
                };
                // `loc` is what Q2's `loc_equals` reads: bit for bit.
                assert_eq!(got.mean(), want.mean(), "loc mean");
                assert_eq!(got.cov(), want.cov(), "loc cov");
                checked += 1;
            }
        }
        assert!(checked > 50, "only {checked} tuples compared");
    }

    #[test]
    fn keep_samples_policy_ships_particles() {
        let (mut gen, mut t_op) = setup(ConversionPolicy::KeepSamples);
        let mut found = false;
        for _ in 0..50 {
            for tuple in t_op.ingest(gen.next_scan()) {
                let loc = tuple.updf("loc").unwrap();
                assert!(loc.is_sample_based());
                // Sample payloads are enormously larger (§4.3).
                assert!(tuple.uncertain_payload_bytes() > 1000);
                found = true;
            }
        }
        assert!(found);
    }

    #[test]
    fn estimates_track_truth_for_observed_objects() {
        let (mut gen, mut t_op) = setup(ConversionPolicy::FitGaussian);
        let mut last_scan = None;
        for _ in 0..400 {
            let scan = gen.next_scan();
            t_op.ingest(scan.clone());
            last_scan = Some(scan);
        }
        let truth = &last_scan.unwrap().truth;
        let err = t_op.filter().rmse(&truth.object_xy, &[]);
        assert!(err < 6.0, "post-patrol RMSE {err:.2} ft");
    }

    #[test]
    fn mixture_policy_available_for_marginals() {
        let (mut gen, mut t_op) = setup(ConversionPolicy::FitMixture {
            max_k: 2,
            criterion: ModelSelection::Bic,
        });
        // Just verify the pipeline runs and emits parametric payloads.
        for _ in 0..30 {
            for tuple in t_op.ingest(gen.next_scan()) {
                let lx = tuple.updf("loc_x").unwrap();
                assert!(!lx.is_sample_based());
            }
        }
    }
}
