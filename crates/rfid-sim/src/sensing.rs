//! The RFID sensing model: logistic read probability over distance and
//! angle (§4.1: "a distribution for RFID sensing can be devised using
//! logistic regression over factors such as the distance and angle
//! between the reader and an object").

use rand::rngs::StdRng;
use rand::Rng;

/// Logistic detection model:
/// P(read | d, θ) = σ(b0 + b_dist·d + b_angle·(1 − cos θ)) · (1 − ambient).
///
/// `d` is reader–tag distance (ft), θ the angle between the reader's
/// facing direction and the tag bearing. Negative `b_dist`/`b_angle` make
/// detection fall off with distance and off-axis reads — "read rate …
/// far less than 100% … mobile readers may read objects from arbitrary
/// angles and distances, hence particularly susceptible to variable read
/// rates".
#[derive(Debug, Clone, Copy)]
pub struct SensingModel {
    pub b0: f64,
    pub b_dist: f64,
    pub b_angle: f64,
    /// Extra multiplicative miss factor from environment noise in [0, 1).
    pub ambient_miss: f64,
    /// Hard cutoff beyond which nothing is read (ft).
    pub max_range: f64,
}

impl SensingModel {
    /// A benign model: high read rates within range.
    pub fn clean() -> Self {
        SensingModel {
            b0: 3.5,
            b_dist: -0.25,
            b_angle: -1.0,
            ambient_miss: 0.02,
            max_range: 20.0,
        }
    }

    /// The "highly noisy trace" regime of Figure 3: steep distance decay,
    /// strong angular sensitivity, heavy ambient misses.
    pub fn noisy() -> Self {
        SensingModel {
            b0: 1.8,
            b_dist: -0.35,
            b_angle: -2.0,
            ambient_miss: 0.25,
            max_range: 20.0,
        }
    }

    /// Read probability for geometry (distance ft, angle rad).
    pub fn read_probability(&self, dist: f64, angle: f64) -> f64 {
        self.read_probability_with(dist, self.angle_logit(angle))
    }

    /// The angle's share `b_angle·(1 − cos θ)` of the logit, for a caller
    /// that evaluates many distances at one angle.
    pub fn angle_logit(&self, angle: f64) -> f64 {
        self.b_angle * (1.0 - angle.cos())
    }

    /// [`read_probability`](Self::read_probability) given the angle's
    /// share of the logit from [`angle_logit`](Self::angle_logit).
    pub fn read_probability_with(&self, dist: f64, angle_logit: f64) -> f64 {
        if dist > self.max_range {
            return 0.0;
        }
        let z = self.b0 + self.b_dist * dist + angle_logit;
        let p = 1.0 / (1.0 + (-z).exp());
        p * (1.0 - self.ambient_miss)
    }

    /// Bernoulli draw of a read event.
    pub fn draw(&self, dist: f64, angle: f64, rng: &mut StdRng) -> bool {
        rng.gen::<f64>() < self.read_probability(dist, angle)
    }

    /// Convenience: probability from reader position, facing direction
    /// (unit-ish vector), and tag position.
    pub fn read_probability_at(&self, reader: &[f64; 3], facing: &[f64; 3], tag: &[f64; 3]) -> f64 {
        let dx = tag[0] - reader[0];
        let dy = tag[1] - reader[1];
        let dz = tag[2] - reader[2];
        let dist = (dx * dx + dy * dy + dz * dz).sqrt();
        if dist < 1e-9 {
            return self.read_probability(0.0, 0.0);
        }
        let fn_norm = (facing[0] * facing[0] + facing[1] * facing[1] + facing[2] * facing[2])
            .sqrt()
            .max(1e-12);
        let cos = (dx * facing[0] + dy * facing[1] + dz * facing[2]) / (dist * fn_norm);
        self.read_probability(dist, cos.clamp(-1.0, 1.0).acos())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn probability_decreases_with_distance() {
        let m = SensingModel::clean();
        let p1 = m.read_probability(1.0, 0.0);
        let p10 = m.read_probability(10.0, 0.0);
        let p19 = m.read_probability(19.0, 0.0);
        assert!(p1 > p10 && p10 > p19, "{p1} > {p10} > {p19}");
        assert_eq!(m.read_probability(25.0, 0.0), 0.0, "hard range cutoff");
    }

    #[test]
    fn probability_decreases_off_axis() {
        let m = SensingModel::noisy();
        let on_axis = m.read_probability(5.0, 0.0);
        let off = m.read_probability(5.0, std::f64::consts::FRAC_PI_2);
        let behind = m.read_probability(5.0, std::f64::consts::PI);
        assert!(on_axis > off && off > behind);
    }

    #[test]
    fn noisy_regime_is_noisier() {
        let clean = SensingModel::clean();
        let noisy = SensingModel::noisy();
        for d in [2.0, 8.0, 15.0] {
            assert!(noisy.read_probability(d, 0.3) < clean.read_probability(d, 0.3));
        }
    }

    #[test]
    fn draws_match_probability() {
        let m = SensingModel::clean();
        let mut rng = StdRng::seed_from_u64(3);
        let p = m.read_probability(5.0, 0.2);
        let n = 20_000;
        let hits = (0..n).filter(|_| m.draw(5.0, 0.2, &mut rng)).count();
        assert!(((hits as f64 / n as f64) - p).abs() < 0.02);
    }

    #[test]
    fn geometric_helper_consistent() {
        let m = SensingModel::clean();
        // Tag straight ahead at 5 ft.
        let p_ahead = m.read_probability_at(&[0.0, 0.0, 4.0], &[1.0, 0.0, 0.0], &[5.0, 0.0, 4.0]);
        assert!((p_ahead - m.read_probability(5.0, 0.0)).abs() < 1e-12);
        // Tag directly behind.
        let p_behind = m.read_probability_at(&[0.0, 0.0, 4.0], &[1.0, 0.0, 0.0], &[-5.0, 0.0, 4.0]);
        assert!(p_behind < p_ahead);
    }
}
