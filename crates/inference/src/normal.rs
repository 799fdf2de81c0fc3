//! The crate's one standard-normal sampler: an exact 128-layer ziggurat
//! (Marsaglia & Tsang, 2000, in Doornik's 2005 ZIGNOR form).
//!
//! Every Gaussian draw the filters make — motion diffusion, shelf-jump
//! placement, reference-tag clouds — comes from [`standard_normal`],
//! which takes its bits only from the generator it is handed, so an
//! object's own stream stays its own. A draw usually costs one
//! `next_u64`, a table lookup and a multiply; the wedge and tail steps
//! are exact rejection samplers, so the output is exactly N(0, 1) rather
//! than an approximation of it.
//!
//! `ustream_prob::dist::standard_normal` and the Box–Muller samplers in
//! `rfid-sim` (`reader.rs`, `world.rs`, `temperature.rs`) are left as
//! they are on purpose: they generate the benchmark's traces and the Q1
//! accuracy reference, and a different sampler there would re-seed that
//! data.

use rand::{Rng, RngCore};
use std::sync::OnceLock;

const LAYERS: usize = 128;
/// Where the tail starts: the half-width of the lowest layer's rectangle.
const R: f64 = 3.442619855899;
/// The area every layer covers (the lowest one together with the tail),
/// under the unnormalized density `exp(-x²/2)`.
const V: f64 = 9.91256303526217e-3;

struct Tables {
    /// `x[i]` is layer i's half-width. `x[0] = V / f(R)` widens the
    /// lowest layer to carry the tail's area, `x[1] = R`, `x[LAYERS] = 0`.
    x: [f64; LAYERS + 1],
    /// `x[i + 1] / x[i]`: a `|u|` below it lands under the curve in
    /// layer i without evaluating the density.
    r: [f64; LAYERS],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut x = [0.0; LAYERS + 1];
        let mut f = (-0.5 * R * R).exp();
        x[0] = V / f;
        x[1] = R;
        for i in 2..LAYERS {
            x[i] = (-2.0 * (V / x[i - 1] + f).ln()).sqrt();
            f = (-0.5 * x[i] * x[i]).exp();
        }
        let mut r = [0.0; LAYERS];
        for i in 0..LAYERS {
            r[i] = x[i + 1] / x[i];
        }
        Tables { x, r }
    })
}

/// One N(0, 1) draw from `rng`.
#[inline]
pub(crate) fn standard_normal<G: RngCore + ?Sized>(rng: &mut G) -> f64 {
    let t = tables();
    loop {
        // One draw gives both the layer (low 7 bits) and a uniform on
        // [-1, 1) (top 53 bits); the two share no bit.
        let bits = rng.next_u64();
        let i = (bits & (LAYERS as u64 - 1)) as usize;
        let u = (bits >> 11) as f64 * (2.0 / (1u64 << 53) as f64) - 1.0;
        if u.abs() < t.r[i] {
            return u * t.x[i];
        }
        if i == 0 {
            return tail(rng, u < 0.0);
        }
        // Wedge: accept x when a uniform height in layer i falls under
        // the density, each side scaled by 1/f(x).
        let x = u * t.x[i];
        let f0 = (-0.5 * (t.x[i] * t.x[i] - x * x)).exp();
        let f1 = (-0.5 * (t.x[i + 1] * t.x[i + 1] - x * x)).exp();
        if f1 + rng.gen::<f64>() * (f0 - f1) < 1.0 {
            return x;
        }
    }
}

/// A draw from the normal tail beyond `R` (Marsaglia, 1964), on the side
/// `negative` names.
#[cold]
fn tail<G: RngCore + ?Sized>(rng: &mut G, negative: bool) -> f64 {
    loop {
        // Uniforms on (0, 1], so the logarithms are finite.
        let x = (1.0 - rng.gen::<f64>()).ln() / R;
        let y = (1.0 - rng.gen::<f64>()).ln();
        if -2.0 * y >= x * x {
            return if negative { x - R } else { R - x };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// P(|Z| > z) for Z ~ N(0, 1).
    fn two_sided_tail(z: f64) -> f64 {
        ustream_prob::special::erfc(z / std::f64::consts::SQRT_2)
    }

    #[test]
    fn ziggurat_matches_the_standard_normal() {
        let n = 2_000_000usize;
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let (mut s1, mut s2, mut s4) = (0.0f64, 0.0f64, 0.0f64);
        let (mut beyond_1, mut beyond_3, mut beyond_r) = (0usize, 0usize, 0usize);
        for _ in 0..n {
            let z = standard_normal(&mut rng);
            let z2 = z * z;
            s1 += z;
            s2 += z2;
            s4 += z2 * z2;
            beyond_1 += (z.abs() > 1.0) as usize;
            beyond_3 += (z.abs() > 3.0) as usize;
            beyond_r += (z.abs() > R) as usize;
        }
        let nf = n as f64;
        let mean = s1 / nf;
        let var = s2 / nf - mean * mean;
        let kurtosis = (s4 / nf) / (var * var);
        // Asymptotic standard errors at N(0, 1): 1/√n, √(2/n), √(24/n).
        assert!(mean.abs() < 4.0 / nf.sqrt(), "mean {mean}");
        assert!(
            (var - 1.0).abs() < 4.0 * (2.0 / nf).sqrt(),
            "variance {var}"
        );
        assert!(
            (kurtosis - 3.0).abs() < 4.0 * (24.0 / nf).sqrt(),
            "kurtosis {kurtosis}"
        );
        for (z, hits) in [(1.0, beyond_1), (3.0, beyond_3), (R, beyond_r)] {
            let p = two_sided_tail(z);
            let sd = (p * (1.0 - p) / nf).sqrt();
            let got = hits as f64 / nf;
            assert!(
                (got - p).abs() < 4.0 * sd,
                "P(|z| > {z}) = {got}, expected {p} ± {sd}"
            );
        }
        // Only the tail step returns |z| > R: every layer is narrower.
        assert!(beyond_r > 0, "the tail branch was never taken");
    }

    /// The tail step alone, which the full sampler reaches too rarely to
    /// test its shape: it must follow N(0, 1) conditioned on |z| > R.
    #[test]
    fn tail_matches_the_conditioned_normal() {
        let n = 200_000usize;
        let mut rng = StdRng::seed_from_u64(0x7A11);
        let draws: Vec<f64> = (0..n).map(|k| tail(&mut rng, k % 2 == 1)).collect();
        assert!(draws.iter().all(|z| z.abs() > R));
        assert_eq!(draws.iter().filter(|z| **z < 0.0).count(), n / 2);
        for z in [3.6, 4.0, 4.5] {
            let p = two_sided_tail(z) / two_sided_tail(R);
            let sd = (p * (1.0 - p) / n as f64).sqrt();
            let got = draws.iter().filter(|d| d.abs() > z).count() as f64 / n as f64;
            assert!(
                (got - p).abs() < 4.0 * sd,
                "P(|z| > {z} | |z| > R) = {got}, expected {p} ± {sd}"
            );
        }
    }
}
