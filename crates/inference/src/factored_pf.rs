//! The factored particle filter with spatial indexing and particle
//! compression — the optimization ladder of §4.1 that takes inference
//! "from processing 0.1 reading per second given 20 objects to over 1000
//! readings per second … given 20,000 objects".
//!
//! - **Factorization**: one independent particle cloud per object instead
//!   of a joint particle over all objects.
//! - **Spatial indexing**: only objects whose estimated position is near
//!   the reader receive (negative) evidence for a scan.
//! - **Compression**: clouds that have stabilized in a small region are
//!   resampled down to a fraction of the particle budget.
//! - **Lazy propagation**: an object's motion model is applied only when
//!   the object is touched, folding the elapsed scans into one step.
//! - **Parallel update**: each object draws from its own random stream,
//!   seeded from the filter seed and the object's id, so its update reads
//!   only its own state and the scan. A scan's candidate clouds are
//!   therefore updated on every core, and the result is the same whatever
//!   the update order or worker count.
//! - **Normals**: motion draws its Gaussians from an exact ziggurat
//!   sampler fed only by the object's own stream, usually one `next_u64`
//!   and a multiply per draw. A jump that cannot happen (`move_prob` of
//!   0) draws nothing, and the likelihood skips `sqrt` and `exp` for a
//!   particle that is provably beyond the reader's range.

use crate::cloud::ParticleCloud;
use crate::model::{MotionModel, ObservationModel, ScanLikelihood};
use crate::spatial::SpatialGrid;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Compression settings (§4.1).
#[derive(Debug, Clone, Copy)]
pub struct CompressionConfig {
    /// Compress when the cloud spread falls below this (ft).
    pub spread_threshold: f64,
    /// Compressed particle count.
    pub min_particles: usize,
}

/// Filter configuration.
#[derive(Debug, Clone)]
pub struct FactoredConfig {
    /// Particle budget per object.
    pub num_particles: usize,
    /// Floor extent (ft).
    pub extent: (f64, f64),
    pub motion: MotionModel,
    pub obs: ObservationModel,
    /// Enable the spatial index (ablation knob).
    pub use_spatial_index: bool,
    /// Enable particle compression (ablation knob).
    pub compression: Option<CompressionConfig>,
    /// Apply negative evidence to unread candidates.
    pub negative_evidence: bool,
    /// Resample when ESS falls below this fraction of the cloud size.
    pub resample_fraction: f64,
    pub seed: u64,
}

/// Per-scan work statistics (ablation measurements).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    pub candidates: usize,
    pub clouds_updated: usize,
    pub particles_touched: usize,
}

/// One object's filter state: everything its update reads or writes
/// besides the scan itself.
struct Track {
    cloud: ParticleCloud,
    /// This object's own random stream.
    rng: StdRng,
    /// Scan index at which the cloud was last propagated.
    last_step: u64,
    /// Posterior mean after the last update (the index is keyed on it).
    mean: [f64; 2],
}

/// What every update of one scan shares, read-only.
struct ScanContext<'a> {
    step: u64,
    obs: ScanLikelihood,
    cfg: &'a FactoredConfig,
}

impl Track {
    /// Apply one scan's evidence; returns the particles touched.
    fn update(&mut self, was_read: bool, scan: &ScanContext) -> usize {
        let cfg = scan.cfg;
        // Lazy propagation: fold the scans elapsed since the cloud was
        // last touched into one motion step.
        let elapsed = scan.step - self.last_step;
        if elapsed > 0 {
            self.last_step = scan.step;
            let k = elapsed as f64;
            let motion = &cfg.motion;
            let diffusion = motion.diffusion * k.sqrt();
            let move_prob = 1.0 - (1.0 - motion.move_prob).powf(k);
            let rng = &mut self.rng;
            self.cloud
                .propagate(|p| motion.propagate_scaled(p, diffusion, move_prob, rng));
        }
        let cloud = &mut self.cloud;
        let touched = cloud.len();
        if was_read {
            cloud.reweight(|p| scan.obs.read(p));
        } else {
            cloud.reweight(|p| scan.obs.missed(p));
        }
        // Resample on degeneracy.
        if cloud.ess() < cfg.resample_fraction * cloud.len() as f64 {
            let n = cloud.len();
            cloud.resample(n, &mut self.rng);
        }
        // Compression / decompression.
        if let Some(comp) = cfg.compression {
            let spread = cloud.spread();
            if spread < comp.spread_threshold && cloud.len() > comp.min_particles {
                cloud.resample(comp.min_particles, &mut self.rng);
            } else if spread > 2.0 * comp.spread_threshold && cloud.len() < cfg.num_particles {
                cloud.resample(cfg.num_particles, &mut self.rng);
            }
        }
        self.mean = cloud.mean();
        touched
    }
}

/// Update `batch` — each track with its read flag — split into `workers`
/// chunks, the calling thread running the first; returns the particles
/// touched. Tracks share nothing, so the chunking cannot change a result.
fn update_tracks(batch: &mut [(&mut Track, bool)], scan: &ScanContext, workers: usize) -> usize {
    let run = |chunk: &mut [(&mut Track, bool)]| -> usize {
        chunk
            .iter_mut()
            .map(|(t, read)| t.update(*read, scan))
            .sum()
    };
    let size = batch.len().div_ceil(workers).max(1);
    let mut chunks = batch.chunks_mut(size);
    let Some(own) = chunks.next() else {
        return 0;
    };
    std::thread::scope(|s| {
        let others: Vec<_> = chunks.map(|c| s.spawn(move || run(c))).collect();
        let mut touched = run(own);
        for h in others {
            touched += h.join().expect("a cloud update panicked");
        }
        touched
    })
}

/// The factored filter over `num_objects` hidden positions.
pub struct FactoredFilter {
    tracks: Vec<Track>,
    /// Scan index at which each object was last a candidate, and last
    /// read: per-scan membership without searching the scan's lists.
    candidate_at: Vec<u64>,
    read_at: Vec<u64>,
    step: u64,
    grid: Option<SpatialGrid>,
    cfg: FactoredConfig,
    /// Chunks a scan's update is split into: the cores available.
    workers: usize,
}

impl FactoredFilter {
    pub fn new(num_objects: usize, cfg: FactoredConfig) -> Self {
        assert!(num_objects >= 1 && cfg.num_particles >= 2);
        // Object i's stream is seeded by the i-th draw of the filter's.
        let mut seeds = StdRng::seed_from_u64(cfg.seed);
        let tracks: Vec<Track> = (0..num_objects)
            .map(|_| {
                let mut rng = StdRng::seed_from_u64(seeds.next_u64());
                let cloud = ParticleCloud::uniform(cfg.num_particles, cfg.extent, &mut rng);
                Track {
                    mean: cloud.mean(),
                    cloud,
                    rng,
                    last_step: 0,
                }
            })
            .collect();
        let grid = cfg.use_spatial_index.then(|| {
            let mut g = SpatialGrid::new(cfg.extent, cfg.obs.sensing.max_range / 2.0, num_objects);
            for (i, t) in tracks.iter().enumerate() {
                g.update(i as u32, &t.mean);
            }
            g
        });
        FactoredFilter {
            tracks,
            candidate_at: vec![0; num_objects],
            read_at: vec![0; num_objects],
            step: 0,
            grid,
            cfg,
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    pub fn num_objects(&self) -> usize {
        self.tracks.len()
    }

    pub fn config(&self) -> &FactoredConfig {
        &self.cfg
    }

    /// Posterior mean of an object's position.
    pub fn estimate(&self, id: u32) -> [f64; 2] {
        self.tracks[id as usize].cloud.mean()
    }

    pub fn cloud(&self, id: u32) -> &ParticleCloud {
        &self.tracks[id as usize].cloud
    }

    /// Change the per-object particle budget (adaptive control, §4.2).
    /// Existing clouds are resampled to the new count.
    pub fn set_particle_count(&mut self, n: usize) {
        assert!(n >= 2);
        self.cfg.num_particles = n;
        for t in self.tracks.iter_mut() {
            t.cloud.resample(n, &mut t.rng);
        }
    }

    /// Process one scan: the reader at `reader_pos` read exactly the
    /// objects in `read_objects` (ids). Returns work statistics.
    pub fn process_scan(&mut self, reader_pos: [f64; 3], read_objects: &[u32]) -> ScanStats {
        self.step += 1;
        let step = self.step;

        // Candidate set: near the reader per the index, or everyone.
        let mut candidates: Vec<u32> = match &self.grid {
            Some(g) => g.candidates(
                &[reader_pos[0], reader_pos[1]],
                self.cfg.obs.sensing.max_range * 1.25,
            ),
            None => (0..self.tracks.len() as u32).collect(),
        };
        for &id in &candidates {
            self.candidate_at[id as usize] = step;
        }
        // Read objects are always updated, even if mis-indexed.
        for &r in read_objects {
            let r_idx = r as usize;
            self.read_at[r_idx] = step;
            if self.candidate_at[r_idx] != step {
                self.candidate_at[r_idx] = step;
                candidates.push(r);
            }
        }

        // Unread candidates get negative evidence, if enabled. The batch
        // is in id order, which borrows each track once; the order does
        // not matter to the result.
        let negative = self.cfg.negative_evidence;
        let mut batch: Vec<(&mut Track, bool)> = self
            .tracks
            .iter_mut()
            .zip(self.candidate_at.iter().zip(&self.read_at))
            .filter(|&(_, (&cand, &read))| cand == step && (read == step || negative))
            .map(|(t, (_, &read))| (t, read == step))
            .collect();
        let scan = ScanContext {
            step,
            obs: self.cfg.obs.at(&reader_pos),
            cfg: &self.cfg,
        };
        let stats = ScanStats {
            candidates: candidates.len(),
            clouds_updated: batch.len(),
            particles_touched: update_tracks(&mut batch, &scan, self.workers),
        };

        // Keep the index keyed on fresh estimates.
        if let Some(g) = &mut self.grid {
            for id in candidates {
                let idx = id as usize;
                if self.read_at[idx] == step || negative {
                    g.update(id, &self.tracks[idx].mean);
                }
            }
        }
        stats
    }

    /// XY RMSE of the posterior means against ground truth (Figure 3a's
    /// metric), restricted to `ids` (or all objects when empty).
    pub fn rmse(&self, truth: &[[f64; 2]], ids: &[u32]) -> f64 {
        let all: Vec<u32>;
        let ids = if ids.is_empty() {
            all = (0..self.tracks.len() as u32).collect();
            &all
        } else {
            ids
        };
        let mut acc = 0.0;
        for &id in ids {
            let est = self.estimate(id);
            let t = truth[id as usize];
            acc += (est[0] - t[0]).powi(2) + (est[1] - t[1]).powi(2);
        }
        (acc / ids.len() as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_sim::{SensingModel, TagRef, TraceConfig, TraceGenerator, WorldConfig};

    fn run_filter(
        n_objects: usize,
        particles: usize,
        scans: usize,
        spatial: bool,
        compression: Option<CompressionConfig>,
    ) -> (FactoredFilter, Vec<[f64; 2]>) {
        run_filter_world(n_objects, particles, scans, spatial, compression, 5)
    }

    fn run_filter_world(
        n_objects: usize,
        particles: usize,
        scans: usize,
        spatial: bool,
        compression: Option<CompressionConfig>,
        shelf_grid: usize,
    ) -> (FactoredFilter, Vec<[f64; 2]>) {
        let tc = TraceConfig {
            world: WorldConfig {
                shelf_rows: shelf_grid,
                shelf_cols: shelf_grid,
                num_objects: n_objects,
                move_prob: 0.0,
                seed: 11,
                ..Default::default()
            },
            sensing: SensingModel::clean(),
            seed: 13,
            ..Default::default()
        };
        let mut gen = TraceGenerator::new(tc);
        let shelf_xy: Vec<[f64; 2]> = gen
            .world
            .shelves()
            .iter()
            .map(|s| [s.pos[0], s.pos[1]])
            .collect();
        let cfg = FactoredConfig {
            num_particles: particles,
            extent: gen.world.extent(),
            motion: MotionModel {
                diffusion: 0.05,
                move_prob: 0.0,
                shelf_xy,
                placement_jitter: 0.8,
            },
            obs: ObservationModel::new(*gen.sensing()),
            use_spatial_index: spatial,
            compression,
            negative_evidence: true,
            resample_fraction: 0.5,
            seed: 17,
        };
        let mut filter = FactoredFilter::new(n_objects, cfg);
        let mut last_truth = Vec::new();
        for _ in 0..scans {
            let scan = gen.next_scan();
            let read: Vec<u32> = scan
                .readings
                .iter()
                .filter_map(|r| match r.tag {
                    TagRef::Object(id) => Some(id),
                    TagRef::Shelf(_) => None,
                })
                .collect();
            filter.process_scan(scan.truth.reader_pos, &read);
            last_truth = scan.truth.object_xy.clone();
        }
        (filter, last_truth)
    }

    const DET_OBJECTS: usize = 120;
    const DET_COMPRESSED: usize = 15;
    /// One scan as the filter sees it: reader position and the ids read.
    type ScanInput = ([f64; 3], Vec<u32>);

    /// A 200-scan trace and a config that reaches shelf jumps,
    /// resampling and compression.
    fn determinism_setup() -> (FactoredConfig, Vec<ScanInput>) {
        let mut gen = TraceGenerator::new(TraceConfig {
            world: WorldConfig {
                shelf_rows: 6,
                shelf_cols: 6,
                num_objects: DET_OBJECTS,
                move_prob: 0.01,
                seed: 21,
                ..Default::default()
            },
            sensing: SensingModel::clean(),
            seed: 23,
            ..Default::default()
        });
        let cfg = FactoredConfig {
            num_particles: 60,
            extent: gen.world.extent(),
            motion: MotionModel {
                diffusion: 0.05,
                move_prob: 0.01,
                shelf_xy: gen
                    .world
                    .shelves()
                    .iter()
                    .map(|s| [s.pos[0], s.pos[1]])
                    .collect(),
                placement_jitter: 0.8,
            },
            obs: ObservationModel::new(*gen.sensing()),
            use_spatial_index: true,
            compression: Some(CompressionConfig {
                spread_threshold: 2.5,
                min_particles: DET_COMPRESSED,
            }),
            negative_evidence: true,
            resample_fraction: 0.5,
            seed: 29,
        };
        let scans = (0..200)
            .map(|_| {
                let scan = gen.next_scan();
                let read = scan
                    .readings
                    .iter()
                    .filter_map(|r| match r.tag {
                        TagRef::Object(id) => Some(id),
                        TagRef::Shelf(_) => None,
                    })
                    .collect();
                (scan.truth.reader_pos, read)
            })
            .collect();
        (cfg, scans)
    }

    fn assert_same_tracks(a: &FactoredFilter, b: &FactoredFilter, what: &str) {
        for (id, (ta, tb)) in a.tracks.iter().zip(&b.tracks).enumerate() {
            assert_eq!(
                ta.cloud.particles(),
                tb.cloud.particles(),
                "{what}: object {id}"
            );
            assert_eq!(
                ta.cloud.weights(),
                tb.cloud.weights(),
                "{what}: object {id}"
            );
            assert_eq!(ta.mean, tb.mean, "{what}: object {id}");
        }
    }

    #[test]
    fn parallel_update_is_independent_of_worker_count() {
        let (cfg, scans) = determinism_setup();
        let run = |workers| {
            let mut f = FactoredFilter::new(DET_OBJECTS, cfg.clone());
            f.workers = workers;
            let stats: Vec<ScanStats> = scans
                .iter()
                .map(|(pos, read)| f.process_scan(*pos, read))
                .collect();
            (f, stats)
        };
        let (one, stats_one) = run(1);
        assert!(
            one.tracks.iter().any(|t| t.cloud.len() == DET_COMPRESSED),
            "the trace compresses some cloud"
        );
        for workers in [2, 4] {
            let (f, stats) = run(workers);
            assert_eq!(stats, stats_one, "{workers} workers");
            assert_same_tracks(&f, &one, &format!("{workers} workers"));
        }
    }

    #[test]
    fn update_order_does_not_change_clouds() {
        let (cfg, scans) = determinism_setup();
        let (pos, _) = scans[100];
        let update = |reversed: bool| {
            let mut f = FactoredFilter::new(DET_OBJECTS, cfg.clone());
            for (pos, read) in &scans[..100] {
                f.process_scan(*pos, read);
            }
            let scan = ScanContext {
                step: f.step + 1,
                obs: f.cfg.obs.at(&pos),
                cfg: &f.cfg,
            };
            let mut batch: Vec<(&mut Track, bool)> = f
                .tracks
                .iter_mut()
                .enumerate()
                .map(|(id, t)| (t, id % 3 == 0))
                .collect();
            if reversed {
                batch.reverse();
            }
            let touched = update_tracks(&mut batch, &scan, 1);
            (f, touched)
        };
        let (forward, touched_forward) = update(false);
        let (backward, touched_backward) = update(true);
        assert_eq!(touched_forward, touched_backward);
        assert_same_tracks(&forward, &backward, "reversed order");
    }

    #[test]
    fn error_decreases_with_observation() {
        let (filter, truth) = run_filter(30, 150, 400, true, None);
        let err = filter.rmse(&truth, &[]);
        // Uniform prior over a 30×30 ft floor would give ~12 ft RMSE;
        // after a full patrol the filter should be far better.
        assert!(err < 6.0, "converged error {err:.2} ft");
    }

    #[test]
    fn more_particles_do_not_hurt() {
        let (f_small, truth_s) = run_filter(20, 30, 300, true, None);
        let (f_large, truth_l) = run_filter(20, 400, 300, true, None);
        let e_small = f_small.rmse(&truth_s, &[]);
        let e_large = f_large.rmse(&truth_l, &[]);
        assert!(
            e_large <= e_small * 1.5,
            "large={e_large:.2} small={e_small:.2}"
        );
    }

    #[test]
    fn spatial_index_limits_candidates() {
        // 15×15 shelves ⇒ a 90×90 ft floor: the 20 ft read range covers
        // only a corner, so the index must prune most objects.
        let (mut filter, _) = run_filter_world(100, 50, 200, true, None, 15);
        let stats = filter.process_scan([5.0, 5.0, 4.0], &[]);
        assert!(
            stats.candidates < 80,
            "index should prune: {} candidates",
            stats.candidates
        );
        let (mut unindexed, _) = run_filter_world(100, 50, 200, false, None, 15);
        let stats2 = unindexed.process_scan([5.0, 5.0, 4.0], &[]);
        assert_eq!(stats2.candidates, 100, "no index ⇒ all candidates");
    }

    #[test]
    fn compression_shrinks_stable_clouds() {
        let comp = CompressionConfig {
            spread_threshold: 2.0,
            min_particles: 25,
        };
        let (filter, _) = run_filter(30, 200, 400, true, Some(comp));
        let compressed = (0..30u32)
            .filter(|&id| filter.cloud(id).len() <= 25)
            .count();
        assert!(
            compressed > 5,
            "{compressed} clouds compressed after convergence"
        );
    }

    #[test]
    fn set_particle_count_resizes_all() {
        let (mut filter, _) = run_filter(10, 100, 50, true, None);
        filter.set_particle_count(40);
        for id in 0..10u32 {
            assert_eq!(filter.cloud(id).len(), 40);
        }
    }

    #[test]
    fn unread_objects_keep_wide_uncertainty() {
        // With no readings at all, clouds stay wide (only negative
        // evidence shapes them).
        let (filter, _) = run_filter(10, 100, 5, true, None);
        let wide = (0..10u32)
            .filter(|&id| filter.cloud(id).spread() > 3.0)
            .count();
        assert!(wide >= 5, "{wide}/10 clouds still wide after 5 scans");
    }
}

#[cfg(test)]
mod failure_injection {
    use super::*;
    use crate::model::{MotionModel, ObservationModel};
    use rfid_sim::SensingModel;

    /// A filter whose sensor model is grossly wrong (believes the reader
    /// range is 3 ft when it is really 20 ft) must degrade gracefully:
    /// estimates stay finite and inside the floor, and the degenerate-
    /// evidence reset path keeps clouds alive.
    #[test]
    fn wrong_sensor_model_degrades_gracefully() {
        let mut wrong_sensing = SensingModel::clean();
        wrong_sensing.max_range = 3.0; // severe mismatch
        let cfg = FactoredConfig {
            num_particles: 80,
            extent: (60.0, 60.0),
            motion: MotionModel {
                diffusion: 0.05,
                move_prob: 0.0,
                shelf_xy: vec![],
                placement_jitter: 0.5,
            },
            obs: ObservationModel::new(wrong_sensing),
            use_spatial_index: true,
            compression: None,
            negative_evidence: true,
            resample_fraction: 0.5,
            seed: 99,
        };
        let mut filter = FactoredFilter::new(20, cfg);
        // Readings claim objects visible from far away — impossible under
        // the filter's (wrong) model.
        for step in 0..100u64 {
            let reader = [30.0 + (step % 7) as f64, 30.0, 4.0];
            let read: Vec<u32> = (0..5).map(|k| (step as u32 + k) % 20).collect();
            filter.process_scan(reader, &read);
        }
        for id in 0..20u32 {
            let est = filter.estimate(id);
            assert!(est[0].is_finite() && est[1].is_finite());
            assert!((-10.0..=70.0).contains(&est[0]), "estimate {est:?}");
            assert!((-10.0..=70.0).contains(&est[1]));
            assert!(filter.cloud(id).ess() >= 1.0);
        }
    }

    /// Readings for a non-existent candidate region (reader outside the
    /// floor) must not panic or corrupt the index.
    #[test]
    fn out_of_floor_reader_positions_are_tolerated() {
        let cfg = FactoredConfig {
            num_particles: 50,
            extent: (30.0, 30.0),
            motion: MotionModel {
                diffusion: 0.05,
                move_prob: 0.0,
                shelf_xy: vec![],
                placement_jitter: 0.5,
            },
            obs: ObservationModel::new(SensingModel::clean()),
            use_spatial_index: true,
            compression: None,
            negative_evidence: true,
            resample_fraction: 0.5,
            seed: 5,
        };
        let mut filter = FactoredFilter::new(5, cfg);
        let stats = filter.process_scan([-100.0, 500.0, 4.0], &[0, 4]);
        assert!(stats.clouds_updated >= 2, "read objects always updated");
        let est = filter.estimate(0);
        assert!(est[0].is_finite());
    }
}
