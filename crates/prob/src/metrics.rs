//! Distances between distributions.
//!
//! Table 2 reports a "variance distance ∈ [0, 1]" (per the formula of Ge &
//! Zdonik \[25\]) between each algorithm's output and the exact result
//! distribution. \[25\]'s exact formula is not reproduced in the paper; we
//! use total-variation distance — also bounded in [0, 1], zero iff equal —
//! as the stand-in, and document the substitution in EXPERIMENTS.md. The
//! module also provides KS distance and KL divergences used by tests and
//! the §4.3 conversion quality checks.

use crate::dist::{ContinuousDist, Dist, Gaussian};
use crate::histogram::HistogramPdf;
use crate::samples::WeightedSamples;

/// Shared evaluation grid for comparing a parametric distribution to a
/// histogram (or to another parametric distribution).
fn common_grid(lo: f64, hi: f64, n: usize) -> impl Iterator<Item = (f64, f64)> {
    let step = (hi - lo) / n as f64;
    (0..n).map(move |i| (lo + (i as f64 + 0.5) * step, step))
}

/// Total-variation distance ½∫|p−q| between two parametric distributions,
/// evaluated on a grid spanning both supports. Bounded in [0, 1].
pub fn tv_distance_grid_dists(p: &Dist, q: &Dist) -> f64 {
    let lo = (p.mean() - 10.0 * p.std_dev()).min(q.mean() - 10.0 * q.std_dev());
    let hi = (p.mean() + 10.0 * p.std_dev()).max(q.mean() + 10.0 * q.std_dev());
    let mut acc = 0.0;
    for (x, w) in common_grid(lo, hi, 4096) {
        acc += (p.pdf(x) - q.pdf(x)).abs() * w;
    }
    (0.5 * acc).min(1.0)
}

/// Total-variation distance between a parametric distribution and a
/// histogram ("variance distance" stand-in for Table 2). Bounded [0, 1].
pub fn tv_distance_grid(p: &Dist, hist: &HistogramPdf) -> f64 {
    let lo = (p.mean() - 10.0 * p.std_dev()).min(hist.lo());
    let hi = (p.mean() + 10.0 * p.std_dev()).max(hist.hi());
    let n = (4 * hist.num_bins()).max(1024);
    let mut acc = 0.0;
    for (x, w) in common_grid(lo, hi, n) {
        acc += (p.pdf(x) - hist.pdf(x)).abs() * w;
    }
    (0.5 * acc).min(1.0)
}

/// Kolmogorov–Smirnov distance sup|F_p − F_q| on a grid.
pub fn ks_distance(p: &Dist, q: &Dist) -> f64 {
    let lo = (p.mean() - 10.0 * p.std_dev()).min(q.mean() - 10.0 * q.std_dev());
    let hi = (p.mean() + 10.0 * p.std_dev()).max(q.mean() + 10.0 * q.std_dev());
    let mut sup: f64 = 0.0;
    for (x, _) in common_grid(lo, hi, 2048) {
        sup = sup.max((p.cdf(x) - q.cdf(x)).abs());
    }
    sup
}

/// Closed-form KL divergence KL(p‖q) between two Gaussians.
pub fn kl_gaussian(p: &Gaussian, q: &Gaussian) -> f64 {
    let (m0, s0) = (p.mean(), p.std_dev());
    let (m1, s1) = (q.mean(), q.std_dev());
    (s1 / s0).ln() + (s0 * s0 + (m0 - m1) * (m0 - m1)) / (2.0 * s1 * s1) - 0.5
}

/// Monte-Carlo-free sample KL: KL(p̂‖q) up to the entropy constant of p̂ —
/// i.e. the weighted cross-entropy −Σ wᵢ ln q(xᵢ). Differences between
/// candidate q's equal true KL differences (the §4.3 objective).
pub fn cross_entropy_vs_dist(samples: &WeightedSamples, q: &Dist) -> f64 {
    samples.cross_entropy(|x| q.ln_pdf(x).max(-745.0))
}

/// Relative error between the means of two distributions, normalized by
/// the reference's standard deviation (scale-free location error).
pub fn standardized_mean_error<A: ContinuousDist, B: ContinuousDist>(
    est: &A,
    reference: &B,
) -> f64 {
    (est.mean() - reference.mean()).abs() / reference.std_dev().max(1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::GaussianMixture;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "expected {b}, got {a}");
    }

    #[test]
    fn tv_zero_for_identical() {
        let p = Dist::gaussian(0.0, 1.0);
        let q = Dist::gaussian(0.0, 1.0);
        close(tv_distance_grid_dists(&p, &q), 0.0, 1e-10);
    }

    #[test]
    fn tv_one_for_disjoint() {
        let p = Dist::gaussian(0.0, 0.1);
        let q = Dist::gaussian(100.0, 0.1);
        close(tv_distance_grid_dists(&p, &q), 1.0, 1e-3);
    }

    #[test]
    fn tv_symmetric_and_monotone_in_separation() {
        let p = Dist::gaussian(0.0, 1.0);
        let near = Dist::gaussian(0.5, 1.0);
        let far = Dist::gaussian(2.0, 1.0);
        let d_near = tv_distance_grid_dists(&p, &near);
        let d_far = tv_distance_grid_dists(&p, &far);
        assert!(d_near < d_far);
        close(tv_distance_grid_dists(&near, &p), d_near, 1e-9);
    }

    #[test]
    fn tv_hist_matches_dist_version() {
        let p = Dist::gaussian(0.0, 1.0);
        let q = Dist::gaussian(1.0, 1.0);
        let hist = HistogramPdf::discretize_auto(&q, 1024, 10.0);
        let via_hist = tv_distance_grid(&p, &hist);
        let direct = tv_distance_grid_dists(&p, &q);
        close(via_hist, direct, 0.01);
    }

    #[test]
    fn ks_known_value_for_shifted_gaussians() {
        // KS of N(0,1) vs N(δ,1) is 2Φ(δ/2)−1.
        let p = Dist::gaussian(0.0, 1.0);
        let q = Dist::gaussian(1.0, 1.0);
        let expected = 2.0 * crate::special::std_normal_cdf(0.5) - 1.0;
        close(ks_distance(&p, &q), expected, 1e-3);
    }

    #[test]
    fn kl_gaussian_properties() {
        let p = Gaussian::new(0.0, 1.0);
        close(kl_gaussian(&p, &p), 0.0, 1e-15);
        let q = Gaussian::new(1.0, 1.0);
        close(kl_gaussian(&p, &q), 0.5, 1e-12);
        assert!(kl_gaussian(&p, &Gaussian::new(0.0, 2.0)) > 0.0);
    }

    #[test]
    fn cross_entropy_prefers_true_model() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(2);
        let truth = GaussianMixture::from_triples(&[(0.5, -3.0, 0.5), (0.5, 3.0, 0.5)]);
        let xs: Vec<f64> = (0..2000).map(|_| truth.sample(&mut rng)).collect();
        let s = WeightedSamples::unweighted(xs);
        let good = Dist::Mixture(truth.clone());
        let bad = Dist::gaussian(0.0, truth.variance().sqrt());
        assert!(cross_entropy_vs_dist(&s, &good) < cross_entropy_vs_dist(&s, &bad));
    }

    #[test]
    fn standardized_mean_error_scale_free() {
        let a = Gaussian::new(1.0, 1.0);
        let b = Gaussian::new(0.0, 2.0);
        close(standardized_mean_error(&a, &b), 0.5, 1e-12);
    }
}
