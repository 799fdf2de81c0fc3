//! Streaming moment accumulators (Welford-style) up to fourth order.
//!
//! Used by estimators, the Monte-Carlo ground-truth harnesses, and the
//! moment-data averaging path in the radar simulator.

/// Numerically-stable running mean/variance/skewness/kurtosis.
#[derive(Debug, Clone, Default)]
pub struct RunningMoments {
    n: u64,
    mean: f64,
    m2: f64,
    m3: f64,
    m4: f64,
}

impl RunningMoments {
    pub fn new() -> Self {
        Self::default()
    }

    /// Incorporate one observation.
    pub fn push(&mut self, x: f64) {
        let n1 = self.n as f64;
        self.n += 1;
        let n = self.n as f64;
        let delta = x - self.mean;
        let delta_n = delta / n;
        let delta_n2 = delta_n * delta_n;
        let term1 = delta * delta_n * n1;
        self.mean += delta_n;
        self.m4 += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) + 6.0 * delta_n2 * self.m2
            - 4.0 * delta_n * self.m3;
        self.m3 += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * self.m2;
        self.m2 += term1;
    }

    /// Incorporate a batch.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, xs: I) {
        for x in xs {
            self.push(x);
        }
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &RunningMoments) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let (na, nb) = (self.n as f64, other.n as f64);
        let n = na + nb;
        let delta = other.mean - self.mean;
        let d2 = delta * delta;
        let d3 = d2 * delta;
        let d4 = d2 * d2;

        let m4 = self.m4
            + other.m4
            + d4 * na * nb * (na * na - na * nb + nb * nb) / (n * n * n)
            + 6.0 * d2 * (na * na * other.m2 + nb * nb * self.m2) / (n * n)
            + 4.0 * delta * (na * other.m3 - nb * self.m3) / n;
        let m3 = self.m3
            + other.m3
            + d3 * na * nb * (na - nb) / (n * n)
            + 3.0 * delta * (na * other.m2 - nb * self.m2) / n;
        let m2 = self.m2 + other.m2 + d2 * na * nb / n;
        let mean = self.mean + delta * nb / n;

        self.n += other.n;
        self.mean = mean;
        self.m2 = m2;
        self.m3 = m3;
        self.m4 = m4;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (divides by n).
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Population skewness.
    pub fn skewness(&self) -> f64 {
        if self.n == 0 || self.m2 == 0.0 {
            return 0.0;
        }
        let n = self.n as f64;
        n.sqrt() * self.m3 / self.m2.powf(1.5)
    }

    /// Excess kurtosis (0 for a Gaussian).
    pub fn excess_kurtosis(&self) -> f64 {
        if self.n == 0 || self.m2 == 0.0 {
            return 0.0;
        }
        let n = self.n as f64;
        n * self.m4 / (self.m2 * self.m2) - 3.0
    }

    /// Third central moment.
    pub fn central_moment3(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m3 / self.n as f64
        }
    }

    /// Fourth central moment.
    pub fn central_moment4(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m4 / self.n as f64
        }
    }
}

/// First four cumulants (κ₁..κ₄) of a distribution, used by the
/// characteristic-function approximation: cumulants of independent sums
/// add, so per-tuple accumulation is O(1).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cumulants {
    pub k1: f64,
    pub k2: f64,
    pub k3: f64,
    pub k4: f64,
}

impl Cumulants {
    /// Extract cumulants from any distribution.
    pub fn of<D: crate::dist::ContinuousDist + ?Sized>(d: &D) -> Cumulants {
        Cumulants {
            k1: d.mean(),
            k2: d.variance(),
            k3: d.cumulant3(),
            k4: d.cumulant4(),
        }
    }

    /// Cumulants of the sum of independent variables: component-wise add.
    pub fn add(&self, other: &Cumulants) -> Cumulants {
        Cumulants {
            k1: self.k1 + other.k1,
            k2: self.k2 + other.k2,
            k3: self.k3 + other.k3,
            k4: self.k4 + other.k4,
        }
    }

    /// Skewness implied by the cumulants.
    pub fn skewness(&self) -> f64 {
        if self.k2 <= 0.0 {
            0.0
        } else {
            self.k3 / self.k2.powf(1.5)
        }
    }

    /// Excess kurtosis implied by the cumulants.
    pub fn excess_kurtosis(&self) -> f64 {
        if self.k2 <= 0.0 {
            0.0
        } else {
            self.k4 / (self.k2 * self.k2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{ContinuousDist, Exponential, Gaussian};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "expected {b}, got {a}");
    }

    #[test]
    fn matches_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut rm = RunningMoments::new();
        rm.extend(xs.iter().copied());
        close(rm.mean(), 5.0, 1e-12);
        close(rm.variance(), 4.0, 1e-12);
        close(rm.std_dev(), 2.0, 1e-12);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..50)
            .map(|i| (i as f64 * 0.77).sin() * 3.0 + 1.0)
            .collect();
        let mut all = RunningMoments::new();
        all.extend(xs.iter().copied());
        let mut a = RunningMoments::new();
        let mut b = RunningMoments::new();
        a.extend(xs[..20].iter().copied());
        b.extend(xs[20..].iter().copied());
        a.merge(&b);
        close(a.mean(), all.mean(), 1e-12);
        close(a.variance(), all.variance(), 1e-12);
        close(a.central_moment3(), all.central_moment3(), 1e-10);
        close(a.central_moment4(), all.central_moment4(), 1e-10);
        assert_eq!(a.count(), all.count());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = RunningMoments::new();
        a.extend([1.0, 2.0, 3.0]);
        let before = a.clone();
        a.merge(&RunningMoments::new());
        close(a.mean(), before.mean(), 0.0);
        let mut e = RunningMoments::new();
        e.merge(&before);
        close(e.variance(), before.variance(), 0.0);
    }

    #[test]
    fn gaussian_samples_have_zero_skew_kurtosis() {
        let g = Gaussian::new(0.0, 2.0);
        let mut rng = StdRng::seed_from_u64(6);
        let mut rm = RunningMoments::new();
        for _ in 0..50_000 {
            rm.push(g.sample(&mut rng));
        }
        close(rm.skewness(), 0.0, 0.05);
        close(rm.excess_kurtosis(), 0.0, 0.12);
    }

    #[test]
    fn exponential_skewness_is_two() {
        let e = Exponential::new(1.0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut rm = RunningMoments::new();
        for _ in 0..200_000 {
            rm.push(e.sample(&mut rng));
        }
        close(rm.skewness(), 2.0, 0.1);
    }

    #[test]
    fn cumulants_add_for_sums() {
        let a = Cumulants::of(&Exponential::new(2.0));
        let b = Cumulants::of(&Gaussian::new(1.0, 1.0));
        let s = a.add(&b);
        close(s.k1, 0.5 + 1.0, 1e-12);
        close(s.k2, 0.25 + 1.0, 1e-12);
        close(s.k3, 2.0 / 8.0, 1e-12); // Gaussian κ3 = 0
    }

    #[test]
    fn cumulant_shape_stats() {
        let c = Cumulants::of(&Exponential::new(1.0));
        close(c.skewness(), 2.0, 1e-9);
        close(c.excess_kurtosis(), 6.0, 1e-9);
    }
}
