//! The probabilistic model (§4.1): motion and observation components of
//! the graphical model, shared by all particle-filter variants.
//!
//! The graphical model factors into (i) how the state of the world
//! changes — objects mostly stay, occasionally jump to another shelf —
//! and (ii) how the sensor generates data from the state — a logistic
//! read-probability over distance/angle. The filter's model deliberately
//! does not know the reader's facing direction (the trace generator
//! does), a realistic model mismatch.

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
        if !self.shelf_xy.is_empty() && rng.gen::<f64>() < move_prob {
            let s = self.shelf_xy[rng.gen_range(0..self.shelf_xy.len())];
            p[0] = s[0] + self.placement_jitter * gauss(rng);
            p[1] = s[1] + self.placement_jitter * gauss(rng);
        } else {
            p[0] += diffusion * gauss(rng);
            p[1] += diffusion * gauss(rng);
        }
    }
}

#[inline]
fn gauss(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
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
        ScanLikelihood {
            obs: *self,
            reader: *reader,
            angle_logit: self.sensing.angle_logit(self.assumed_angle),
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
}

impl ScanLikelihood {
    #[inline]
    fn p_read(&self, p: &[f64; 2]) -> f64 {
        let dx = p[0] - self.reader[0];
        let dy = p[1] - self.reader[1];
        let d = (dx * dx + dy * dy + self.obs.z_offset * self.obs.z_offset).sqrt();
        self.obs.sensing.read_probability_with(d, self.angle_logit)
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

    #[test]
    fn likelihoods_bounded_away_from_zero() {
        let obs = ObservationModel::new(SensingModel::noisy());
        let reader = [0.0, 0.0, 4.0];
        let very_far = [500.0, 500.0];
        assert!(obs.likelihood_read(&very_far, &reader) >= 1e-9);
        assert!(obs.likelihood_missed(&[0.0, 0.0], &reader) >= 1e-9);
    }
}
