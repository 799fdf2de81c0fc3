//! The probabilistic model (§4.1): motion and observation components of
//! the graphical model, shared by all particle-filter variants.
//!
//! The graphical model factors into (i) how the state of the world
//! changes — objects mostly stay, occasionally jump to another shelf —
//! and (ii) how the sensor generates data from the state — a logistic
//! read-probability over distance/angle. The filter's model deliberately
//! does not know the reader's facing direction (the trace generator
//! does), a realistic model mismatch.

use crate::normal::standard_normal;
use rand::rngs::StdRng;
use rand::Rng;
use rfid_sim::SensingModel;

/// Object motion: small diffusion plus rare shelf jumps.
#[derive(Debug, Clone)]
pub struct MotionModel {
    /// Per-scan positional diffusion std-dev (ft).
    pub diffusion: f64,
    /// Per-scan probability of a shelf-to-shelf jump.
    pub move_prob: f64,
    /// Known shelf (x, y) positions — jump targets.
    pub shelf_xy: Vec<[f64; 2]>,
    /// Placement jitter around the target shelf (ft).
    pub placement_jitter: f64,
}

impl MotionModel {
    /// Propagate one particle by one scan step.
    pub fn propagate(&self, p: &mut [f64; 2], rng: &mut StdRng) {
        self.propagate_scaled(p, self.diffusion, self.move_prob, rng);
    }

    /// Propagate one particle with `diffusion` and `move_prob` in place
    /// of the per-scan ones — the folded multi-scan step of lazy
    /// propagation.
    pub(crate) fn propagate_scaled(
        &self,
        p: &mut [f64; 2],
        diffusion: f64,
        move_prob: f64,
        rng: &mut StdRng,
    ) {
        // A jump that cannot happen draws nothing: objects that hold
        // still pay for two normals per particle and no uniform.
        if move_prob > 0.0 && !self.shelf_xy.is_empty() && rng.gen::<f64>() < move_prob {
            let s = self.shelf_xy[rng.gen_range(0..self.shelf_xy.len())];
            p[0] = s[0] + self.placement_jitter * standard_normal(rng);
            p[1] = s[1] + self.placement_jitter * standard_normal(rng);
        } else {
            p[0] += diffusion * standard_normal(rng);
            p[1] += diffusion * standard_normal(rng);
        }
    }
}

/// Observation model: the filter's belief about the sensing process.
#[derive(Debug, Clone, Copy)]
pub struct ObservationModel {
    pub sensing: SensingModel,
    /// Assumed vertical offset between reader and tags (ft) — the filter
    /// tracks (x, y) only.
    pub z_offset: f64,
    /// Angle (rad) the filter assumes for the unknown reader orientation.
    pub assumed_angle: f64,
}

impl ObservationModel {
    pub fn new(sensing: SensingModel) -> Self {
        ObservationModel {
            sensing,
            z_offset: 1.5,
            assumed_angle: 0.6,
        }
    }

    /// The model for one reader position, with the angle term — the
    /// same for every particle — evaluated once.
    #[inline]
    pub(crate) fn at(&self, reader: &[f64; 3]) -> ScanLikelihood {
        let range_sq = self.sensing.max_range * self.sensing.max_range;
        ScanLikelihood {
            obs: *self,
            reader: *reader,
            angle_logit: self.sensing.angle_logit(self.assumed_angle),
            out_of_range_sq: (0..4).fold(range_sq, |g, _| g.next_up()),
        }
    }

    /// P(tag read | particle at `p`, reader at `reader`).
    #[inline]
    pub fn p_read(&self, p: &[f64; 2], reader: &[f64; 3]) -> f64 {
        self.at(reader).p_read(p)
    }

    /// Positive-evidence likelihood (tag WAS read).
    #[inline]
    pub fn likelihood_read(&self, p: &[f64; 2], reader: &[f64; 3]) -> f64 {
        self.at(reader).read(p)
    }

    /// Negative-evidence likelihood (tag in range was NOT read).
    #[inline]
    pub fn likelihood_missed(&self, p: &[f64; 2], reader: &[f64; 3]) -> f64 {
        self.at(reader).missed(p)
    }
}

/// [`ObservationModel`] at one reader position (see
/// [`ObservationModel::at`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScanLikelihood {
    obs: ObservationModel,
    reader: [f64; 3],
    angle_logit: f64,
    /// Four ulps above `max_range²`: a squared distance past it rounds,
    /// through `sqrt`, to a distance past `max_range`, where the read
    /// probability is exactly 0. Nearer the boundary the full path
    /// decides, so every likelihood is the un-gated one bit for bit.
    out_of_range_sq: f64,
}

impl ScanLikelihood {
    /// The read zone: the disk around the reader's (x, y), of radius
    /// √(max_range² − z_offset²), outside which the read probability is
    /// 0 (radius 0 when the range does not reach the tags' plane).
    pub(crate) fn read_zone(&self) -> ([f64; 2], f64) {
        let (range, z) = (self.obs.sensing.max_range, self.obs.z_offset);
        let radius = (range * range - z * z).max(0.0).sqrt();
        ([self.reader[0], self.reader[1]], radius)
    }

    #[inline]
    fn p_read(&self, p: &[f64; 2]) -> f64 {
        let dx = p[0] - self.reader[0];
        let dy = p[1] - self.reader[1];
        let d_sq = dx * dx + dy * dy + self.obs.z_offset * self.obs.z_offset;
        if d_sq > self.out_of_range_sq {
            return 0.0;
        }
        self.obs
            .sensing
            .read_probability_with(d_sq.sqrt(), self.angle_logit)
    }

    /// Positive-evidence likelihood (tag WAS read).
    #[inline]
    pub(crate) fn read(&self, p: &[f64; 2]) -> f64 {
        self.p_read(p).max(1e-9)
    }

    /// Negative-evidence likelihood (tag in range was NOT read).
    #[inline]
    pub(crate) fn missed(&self, p: &[f64; 2]) -> f64 {
        (1.0 - self.p_read(p)).max(1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn motion() -> MotionModel {
        MotionModel {
            diffusion: 0.05,
            move_prob: 0.0,
            shelf_xy: vec![[0.0, 0.0], [30.0, 30.0]],
            placement_jitter: 0.5,
        }
    }

    #[test]
    fn diffusion_is_small_and_unbiased() {
        let m = motion();
        let mut rng = StdRng::seed_from_u64(1);
        let mut mean = [0.0f64; 2];
        let n = 10_000;
        for _ in 0..n {
            let mut p = [5.0, 5.0];
            m.propagate(&mut p, &mut rng);
            mean[0] += p[0];
            mean[1] += p[1];
        }
        assert!((mean[0] / n as f64 - 5.0).abs() < 0.01);
        assert!((mean[1] / n as f64 - 5.0).abs() < 0.01);
    }

    #[test]
    fn jumps_reach_other_shelves() {
        let mut m = motion();
        m.move_prob = 1.0;
        let mut rng = StdRng::seed_from_u64(2);
        let mut far = 0;
        for _ in 0..100 {
            let mut p = [5.0, 5.0];
            m.propagate(&mut p, &mut rng);
            let d0 = (p[0].powi(2) + p[1].powi(2)).sqrt();
            let d1 = ((p[0] - 30.0).powi(2) + (p[1] - 30.0).powi(2)).sqrt();
            assert!(d0 < 3.0 || d1 < 3.0, "jump lands near a shelf");
            if d1 < 3.0 {
                far += 1;
            }
        }
        assert!(far > 20 && far < 80, "both shelves used ({far})");
    }

    #[test]
    fn likelihoods_favor_correct_geometry() {
        let obs = ObservationModel::new(SensingModel::noisy());
        let reader = [10.0, 10.0, 4.0];
        let near = [11.0, 10.0];
        let far = [28.0, 10.0];
        assert!(obs.likelihood_read(&near, &reader) > obs.likelihood_read(&far, &reader));
        assert!(obs.likelihood_missed(&far, &reader) > obs.likelihood_missed(&near, &reader));
    }

    /// `read` and `missed` through the range gate equal the un-gated
    /// formula bit for bit, on a ring of points a few ulps either side of
    /// `max_range` and on random points near and far.
    #[test]
    fn range_gate_keeps_likelihoods_bit_identical() {
        let ungated = |obs: &ObservationModel, p: &[f64; 2], reader: &[f64; 3]| {
            let (dx, dy) = (p[0] - reader[0], p[1] - reader[1]);
            let d = (dx * dx + dy * dy + obs.z_offset * obs.z_offset).sqrt();
            let p_read = obs
                .sensing
                .read_probability_with(d, obs.sensing.angle_logit(obs.assumed_angle));
            (p_read.max(1e-9), (1.0 - p_read).max(1e-9))
        };
        let mut rng = StdRng::seed_from_u64(3);
        let (mut gated, mut full_path) = (0, 0);
        for max_range in [20.0, 7.3, 0.1, 1e3] {
            let mut sensing = SensingModel::noisy();
            sensing.max_range = max_range;
            let obs = ObservationModel::new(sensing);
            let reader = [4.25, -1.5, 4.0];
            let scan = obs.at(&reader);
            let z_sq = obs.z_offset * obs.z_offset;
            let check = |p: [f64; 2]| {
                let got = (scan.read(&p), scan.missed(&p));
                let want = ungated(&obs, &p, &reader);
                assert_eq!(got.0.to_bits(), want.0.to_bits(), "read at {p:?}");
                assert_eq!(got.1.to_bits(), want.1.to_bits(), "missed at {p:?}");
                let (dx, dy) = (p[0] - reader[0], p[1] - reader[1]);
                dx * dx + dy * dy + z_sq > scan.out_of_range_sq
            };
            // The ring: horizontal radius such that the 3-D distance is
            // max_range ± k ulps.
            for k in -8i64..=8 {
                let d = f64::from_bits((max_range.to_bits() as i64 + k) as u64);
                let h = (d * d - z_sq).max(0.0).sqrt();
                for j in 0..64 {
                    let theta = j as f64 * std::f64::consts::TAU / 64.0;
                    let p = [reader[0] + h * theta.cos(), reader[1] + h * theta.sin()];
                    if check(p) {
                        gated += 1;
                    } else {
                        full_path += 1;
                    }
                }
            }
            for _ in 0..100_000 / 4 {
                let scale = 3.0 * max_range;
                let p = [
                    reader[0] + scale * (2.0 * rng.gen::<f64>() - 1.0),
                    reader[1] + scale * (2.0 * rng.gen::<f64>() - 1.0),
                ];
                check(p);
            }
        }
        assert!(gated > 0 && full_path > 0, "the ring straddles the gate");
    }

    #[test]
    fn likelihoods_bounded_away_from_zero() {
        let obs = ObservationModel::new(SensingModel::noisy());
        let reader = [0.0, 0.0, 4.0];
        let very_far = [500.0, 500.0];
        assert!(obs.likelihood_read(&very_far, &reader) >= 1e-9);
        assert!(obs.likelihood_missed(&[0.0, 0.0], &reader) >= 1e-9);
    }
}
