//! A per-object particle cloud: the factored unit of §4.1's
//! "factorization breaks a large particle over all hidden variables into
//! smaller particles over individual hidden variables".

use crate::normal::standard_normal;
use rand::rngs::StdRng;
use rand::Rng;
use ustream_prob::samples::WeightedSamplesNd;

/// Proposals [`ParticleCloud::redraw_in_disk`] makes per particle.
const DISK_TRIES: usize = 64;

fn uniform_point(extent: (f64, f64), rng: &mut StdRng) -> [f64; 2] {
    [rng.gen::<f64>() * extent.0, rng.gen::<f64>() * extent.1]
}

/// Weighted particles over one object's (x, y) position.
#[derive(Debug, Clone)]
pub struct ParticleCloud {
    xs: Vec<[f64; 2]>,
    /// Unnormalized log-free weights (kept normalized after updates).
    ws: Vec<f64>,
}

impl ParticleCloud {
    /// Initialize uniformly over the floor extent.
    pub fn uniform(n: usize, extent: (f64, f64), rng: &mut StdRng) -> Self {
        assert!(n >= 1);
        let xs = (0..n).map(|_| uniform_point(extent, rng)).collect();
        ParticleCloud {
            xs,
            ws: vec![1.0 / n as f64; n],
        }
    }

    /// Initialize from a known point with jitter (reference tags).
    pub fn around(n: usize, center: [f64; 2], jitter: f64, rng: &mut StdRng) -> Self {
        assert!(n >= 1);
        let xs = (0..n)
            .map(|_| {
                [
                    center[0] + jitter * standard_normal(rng),
                    center[1] + jitter * standard_normal(rng),
                ]
            })
            .collect();
        ParticleCloud {
            xs,
            ws: vec![1.0 / n as f64; n],
        }
    }

    /// Redraw every particle, in place and with equal weights, uniformly
    /// over the disk of `radius` around `center` intersected with the
    /// floor `[0, extent.0] × [0, extent.1]`; over the whole floor when
    /// the disk misses it.
    ///
    /// Proposals come from the disk's bounding box clipped to the floor,
    /// which the disk fills by at least π/4 whenever the centre is on the
    /// floor. A particle gets at most 64 proposals; one that misses
    /// the disk every time (only when the disk barely grazes the floor)
    /// keeps its last, a floor point just outside the disk.
    pub(crate) fn redraw_in_disk(
        &mut self,
        center: [f64; 2],
        radius: f64,
        extent: (f64, f64),
        rng: &mut StdRng,
    ) {
        let r_sq = radius * radius;
        // The floor point nearest the centre: the disk meets the floor
        // iff it lies inside the disk.
        let gap = [
            center[0].clamp(0.0, extent.0) - center[0],
            center[1].clamp(0.0, extent.1) - center[1],
        ];
        if gap[0] * gap[0] + gap[1] * gap[1] < r_sq {
            let x0 = (center[0] - radius).max(0.0);
            let y0 = (center[1] - radius).max(0.0);
            let box_extent = (
                (center[0] + radius).min(extent.0) - x0,
                (center[1] + radius).min(extent.1) - y0,
            );
            for x in self.xs.iter_mut() {
                for _ in 0..DISK_TRIES {
                    let p = uniform_point(box_extent, rng);
                    *x = [x0 + p[0], y0 + p[1]];
                    let (dx, dy) = (x[0] - center[0], x[1] - center[1]);
                    if dx * dx + dy * dy < r_sq {
                        break;
                    }
                }
            }
        } else {
            for x in self.xs.iter_mut() {
                *x = uniform_point(extent, rng);
            }
        }
        let w = 1.0 / self.ws.len() as f64;
        self.ws.fill(w);
    }

    pub fn len(&self) -> usize {
        self.xs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    pub fn particles(&self) -> &[[f64; 2]] {
        &self.xs
    }

    pub fn weights(&self) -> &[f64] {
        &self.ws
    }

    /// Apply a likelihood function to every particle and renormalize.
    /// Returns the (pre-normalization) total weight — near-zero totals
    /// signal that the cloud is inconsistent with the evidence.
    pub fn reweight<F: Fn(&[f64; 2]) -> f64>(&mut self, likelihood: F) -> f64 {
        let mut total = 0.0;
        for (x, w) in self.xs.iter().zip(self.ws.iter_mut()) {
            *w *= likelihood(x);
            total += *w;
        }
        if total > 0.0 {
            for w in self.ws.iter_mut() {
                *w /= total;
            }
        } else {
            // Degenerate: reset to uniform (evidence contradicts cloud).
            let n = self.ws.len() as f64;
            for w in self.ws.iter_mut() {
                *w = 1.0 / n;
            }
        }
        total
    }

    /// Propagate every particle through a motion step.
    pub fn propagate<F: FnMut(&mut [f64; 2])>(&mut self, mut step: F) {
        for x in self.xs.iter_mut() {
            step(x);
        }
    }

    /// Effective sample size 1/Σw².
    pub fn ess(&self) -> f64 {
        1.0 / self.ws.iter().map(|w| w * w).sum::<f64>()
    }

    /// Systematic resampling to `n` equally-weighted particles.
    ///
    /// Works in place: the weights are the scratch buffer (each is
    /// overwritten by its particle's copy count once the systematic sweep
    /// has passed it), so a cloud that does not grow past its capacity
    /// allocates nothing.
    pub fn resample(&mut self, n: usize, rng: &mut StdRng) {
        assert!(n >= 1);
        let step = 1.0 / n as f64;
        let start: f64 = rng.gen::<f64>() * step;
        let m = self.xs.len();
        let mut acc = self.ws[0];
        let mut i = 0usize;
        let mut copies = 0.0;
        for k in 0..n {
            let u = start + k as f64 * step;
            while acc < u && i + 1 < m {
                self.ws[i] = copies;
                copies = 0.0;
                i += 1;
                acc += self.ws[i];
            }
            copies += 1.0;
        }
        self.ws[i] = copies;
        self.ws[i + 1..].fill(0.0);
        // Survivors to the front, in order (writes never pass reads).
        let mut kept = 0;
        for j in 0..m {
            if self.ws[j] > 0.0 {
                self.xs[kept] = self.xs[j];
                self.ws[kept] = self.ws[j];
                kept += 1;
            }
        }
        // Expand back to front: survivor j's copies land at or after
        // index j, since every survivor before it has at least one copy,
        // so no survivor is overwritten before it is copied.
        self.xs.resize(n.max(m), [0.0; 2]);
        let mut end = n;
        for j in (0..kept).rev() {
            let x = self.xs[j];
            let c = self.ws[j] as usize;
            self.xs[end - c..end].fill(x);
            end -= c;
        }
        self.xs.truncate(n);
        self.ws.clear();
        self.ws.resize(n, 1.0 / n as f64);
    }

    /// Posterior mean (x, y).
    pub fn mean(&self) -> [f64; 2] {
        let mut m = [0.0f64; 2];
        for (x, w) in self.xs.iter().zip(self.ws.iter()) {
            m[0] += w * x[0];
            m[1] += w * x[1];
        }
        m
    }

    /// Isotropic spread: √(tr(cov)/2) — the compression trigger (§4.1:
    /// "after object particles stabilize in a small region, compression
    /// can further reduce the number of particles").
    pub fn spread(&self) -> f64 {
        let m = self.mean();
        let mut acc = 0.0;
        for (x, w) in self.xs.iter().zip(self.ws.iter()) {
            let dx = x[0] - m[0];
            let dy = x[1] - m[1];
            acc += w * (dx * dx + dy * dy);
        }
        (acc / 2.0).sqrt()
    }

    /// Export as weighted N-d samples for tuple-level conversion (§4.3).
    pub fn to_samples(&self) -> WeightedSamplesNd {
        let mut flat = Vec::with_capacity(self.xs.len() * 2);
        for x in &self.xs {
            flat.extend_from_slice(x);
        }
        WeightedSamplesNd::new(flat, self.ws.clone(), 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn uniform_covers_extent() {
        let mut rng = StdRng::seed_from_u64(1);
        let c = ParticleCloud::uniform(2000, (60.0, 40.0), &mut rng);
        let m = c.mean();
        assert!((m[0] - 30.0).abs() < 1.5);
        assert!((m[1] - 20.0).abs() < 1.0);
        assert!(c.spread() > 10.0, "uniform cloud is wide");
    }

    #[test]
    fn reweight_concentrates_on_likely_region() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut c = ParticleCloud::uniform(5000, (60.0, 60.0), &mut rng);
        // Evidence: object is near (10, 10).
        c.reweight(|p| (-((p[0] - 10.0).powi(2) + (p[1] - 10.0).powi(2)) / 8.0).exp());
        let m = c.mean();
        assert!((m[0] - 10.0).abs() < 1.0, "mean {m:?}");
        assert!((m[1] - 10.0).abs() < 1.0);
        assert!(c.ess() < 5000.0 * 0.5, "evidence reduces ESS");
    }

    #[test]
    fn degenerate_evidence_resets_to_uniform() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut c = ParticleCloud::around(100, [0.0, 0.0], 0.1, &mut rng);
        let total = c.reweight(|_| 0.0);
        assert_eq!(total, 0.0);
        assert!((c.ess() - 100.0).abs() < 1e-9, "reset to uniform weights");
    }

    #[test]
    fn resampling_preserves_posterior_mean() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut c = ParticleCloud::uniform(4000, (60.0, 60.0), &mut rng);
        c.reweight(|p| (-((p[0] - 20.0).powi(2) + (p[1] - 30.0).powi(2)) / 18.0).exp());
        let before = c.mean();
        c.resample(4000, &mut rng);
        let after = c.mean();
        assert!((before[0] - after[0]).abs() < 0.5);
        assert!((before[1] - after[1]).abs() < 0.5);
        assert!(
            (c.ess() - 4000.0).abs() < 1e-6,
            "equal weights after resample"
        );
    }

    #[test]
    fn in_place_resample_matches_systematic_gather() {
        for (m, n) in [(100, 100), (100, 25), (25, 100), (7, 1), (1, 9)] {
            let mut rng = StdRng::seed_from_u64(8);
            let mut c = ParticleCloud::uniform(m, (60.0, 60.0), &mut rng);
            c.reweight(|p| (-((p[0] - 20.0).powi(2) + (p[1] - 30.0).powi(2)) / 50.0).exp());
            let (xs, ws) = (c.xs.clone(), c.ws.clone());
            let mut rng = StdRng::seed_from_u64(9);
            let mut reference_rng = rng.clone();
            c.resample(n, &mut rng);
            // The textbook form: gather into a fresh buffer.
            let step = 1.0 / n as f64;
            let start = reference_rng.gen::<f64>() * step;
            let (mut acc, mut i) = (ws[0], 0);
            let expected: Vec<[f64; 2]> = (0..n)
                .map(|k| {
                    while acc < start + k as f64 * step && i + 1 < m {
                        i += 1;
                        acc += ws[i];
                    }
                    xs[i]
                })
                .collect();
            assert_eq!(c.particles(), &expected[..], "{m} -> {n}");
            assert!(c.weights().iter().all(|&w| w == 1.0 / n as f64));
        }
    }

    #[test]
    fn redraw_in_disk_stays_on_the_floor() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut c = ParticleCloud::uniform(500, (60.0, 40.0), &mut rng);
        c.reweight(|p| p[0]);
        // Inside, at a corner, grazing a corner from outside, and missing.
        for (center, radius, in_disk) in [
            ([30.0, 20.0], 10.0, true),
            ([0.0, 40.0], 10.0, true),
            ([-7.07, -7.07], 10.0, false),
            ([100.0, 20.0], 10.0, false),
        ] {
            c.redraw_in_disk(center, radius, (60.0, 40.0), &mut rng);
            assert_eq!(c.len(), 500);
            assert!(c.weights().iter().all(|&w| w == 1.0 / 500.0));
            for p in c.particles() {
                assert!((0.0..=60.0).contains(&p[0]) && (0.0..=40.0).contains(&p[1]));
                let d = ((p[0] - center[0]).powi(2) + (p[1] - center[1]).powi(2)).sqrt();
                if in_disk {
                    assert!(d < radius, "{p:?} outside the disk at {center:?}");
                }
            }
        }
        // The disk that misses leaves the whole floor.
        assert!(c.spread() > 10.0);
    }

    #[test]
    fn resample_down_compresses() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut c = ParticleCloud::around(500, [5.0, 5.0], 0.3, &mut rng);
        c.resample(50, &mut rng);
        assert_eq!(c.len(), 50);
        let m = c.mean();
        assert!((m[0] - 5.0).abs() < 0.3);
    }

    #[test]
    fn spread_shrinks_with_evidence() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut c = ParticleCloud::uniform(3000, (60.0, 60.0), &mut rng);
        let s0 = c.spread();
        c.reweight(|p| (-((p[0] - 10.0).powi(2) + (p[1] - 10.0).powi(2)) / 2.0).exp());
        assert!(c.spread() < s0 / 3.0);
    }

    #[test]
    fn to_samples_roundtrip() {
        let mut rng = StdRng::seed_from_u64(7);
        let c = ParticleCloud::around(300, [3.0, -2.0], 0.5, &mut rng);
        let s = c.to_samples();
        let m = s.mean();
        assert!((m[0] - 3.0).abs() < 0.15);
        assert!((m[1] + 2.0).abs() < 0.15);
    }
}
