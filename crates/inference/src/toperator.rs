//! The RFID data capture & transformation (T) operator (§3, §4):
//! consumes raw scans, runs the factored particle filter, and emits an
//! object-location tuple stream where every tuple carries its pdf.
//!
//! Output schema: `(time, tag_id, loc, loc_x, loc_y)` —
//! `loc` is the 2-D location distribution (multivariate Gaussian after
//! §4.3 conversion), `loc_x`/`loc_y` are scalar marginals converted under
//! the configured policy (so a recently-moved object's bimodal cloud
//! becomes an AIC/BIC-selected mixture).

use crate::factored_pf::{FactoredConfig, FactoredFilter};
use rfid_sim::{Scan, TagRef};
use std::sync::Arc;
use ustream_core::schema::{DataType, Schema};
use ustream_core::toperator::TransformOperator;
use ustream_core::tuple::Tuple;
use ustream_core::updf::{ConversionPolicy, Updf};
use ustream_core::value::Value;

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
        let nd = cloud.to_samples();
        let loc = Updf::MvSamples(nd.clone()).compact(&self.policy);
        let loc_x = Updf::Samples(nd.marginal(0)).compact(&self.policy);
        let loc_y = Updf::Samples(nd.marginal(1)).compact(&self.policy);
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
