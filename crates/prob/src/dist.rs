//! The continuous-distribution zoo: the parametric tuple-level pdfs the
//! engine ships inside uncertain tuples (§3, §4.3).
//!
//! [`Dist`] is the closed storage enum — Gaussian, Uniform, Exponential,
//! Gamma, LogNormal, Triangular, Gaussian mixtures, and truncations —
//! and [`MvGaussian`] is the multivariate Gaussian used for object
//! locations. Every scalar form implements [`ContinuousDist`]:
//! pdf/cdf/quantile, exact first two moments, third/fourth cumulants
//! (consumed by the CF-approximation path), closed-form characteristic
//! functions where they exist (numeric quadrature otherwise), and
//! deterministic-seed sampling.

use crate::complex::Complex64;
use crate::quadrature::{adaptive_simpson, filon_cos_sin, gauss_legendre};
use crate::special::{gamma_p, ln_gamma, std_normal_cdf, std_normal_pdf, std_normal_quantile};
use rand::{Rng, RngCore};

/// Common interface of every scalar continuous distribution.
pub trait ContinuousDist {
    fn pdf(&self, x: f64) -> f64;
    fn cdf(&self, x: f64) -> f64;
    fn quantile(&self, p: f64) -> f64;
    fn mean(&self) -> f64;
    fn variance(&self) -> f64;
    /// Interval outside which the density is exactly zero (may be
    /// infinite).
    fn support(&self) -> (f64, f64);
    /// Interior points where the density is not smooth (kinks, corners),
    /// sorted ascending. Piecewise quadrature splits its segments here so
    /// every piece sees a smooth integrand. Default: none.
    fn breakpoints(&self) -> Vec<f64> {
        Vec::new()
    }
    fn sample(&self, rng: &mut dyn RngCore) -> f64;
    /// Characteristic function φ(t) = E[e^{itX}].
    fn cf(&self, t: f64) -> Complex64;

    fn std_dev(&self) -> f64 {
        self.variance().max(0.0).sqrt()
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        self.pdf(x).ln()
    }

    /// P(X > x).
    fn prob_above(&self, x: f64) -> f64 {
        (1.0 - self.cdf(x)).clamp(0.0, 1.0)
    }

    /// P(lo < X ≤ hi).
    fn prob_in(&self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            0.0
        } else {
            (self.cdf(hi) - self.cdf(lo)).clamp(0.0, 1.0)
        }
    }

    /// Third cumulant κ₃ (default: numeric central-moment quadrature).
    fn cumulant3(&self) -> f64 {
        let mu = self.mean();
        let (lo, hi) = quantile_bounds(self);
        adaptive_simpson(&|x| (x - mu).powi(3) * self.pdf(x), lo, hi, 1e-10)
    }

    /// Fourth cumulant κ₄ = μ₄ − 3σ⁴ (default: numeric quadrature).
    fn cumulant4(&self) -> f64 {
        let mu = self.mean();
        let v = self.variance();
        let (lo, hi) = quantile_bounds(self);
        let m4 = adaptive_simpson(&|x| (x - mu).powi(4) * self.pdf(x), lo, hi, 1e-10);
        m4 - 3.0 * v * v
    }
}

/// Effective finite integration range for numeric trait defaults.
fn quantile_bounds<D: ContinuousDist + ?Sized>(d: &D) -> (f64, f64) {
    (d.quantile(1e-10), d.quantile(1.0 - 1e-10))
}

/// Bisection inverse of a monotone cdf: the x with `cdf(x) = p`, searched
/// inside `[lo, hi]` (bounds are widened automatically if they do not
/// bracket `p`).
pub fn bisect_quantile<F: Fn(f64) -> f64>(cdf: F, p: f64, mut lo: f64, mut hi: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&p));
    let mut span = (hi - lo).max(1e-9);
    for _ in 0..200 {
        if cdf(lo) <= p {
            break;
        }
        lo -= span;
        span *= 2.0;
    }
    span = (hi - lo).max(1e-9);
    for _ in 0..200 {
        if cdf(hi) >= p {
            break;
        }
        hi += span;
        span *= 2.0;
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if hi - lo <= 1e-13 * (1.0 + mid.abs()) {
            return mid;
        }
        if cdf(mid) < p {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Numeric characteristic function by a single composite Filon pass per
/// smooth segment: the density is sampled once per grid point and the
/// oscillatory factors cos(tx), sin(tx) are integrated exactly against
/// its piecewise-quadratic fit ([`filon_cos_sin`]), so the grid only has
/// to resolve the *density*, never the oscillation. Interior density
/// kinks ([`ContinuousDist::breakpoints`]) cut the support so every
/// segment is smooth; the grid doubles until two refinements agree. Used
/// by the families without a closed-form CF (LogNormal, Triangular,
/// truncations). Replaces the old nested adaptive-Simpson-per-half-period
/// scheme, which re-integrated the density adaptively inside every
/// half-oscillation panel (kept below as the test reference).
fn numeric_cf<D: ContinuousDist + ?Sized>(d: &D, t: f64) -> Complex64 {
    if t == 0.0 {
        return Complex64::ONE;
    }
    if t < 0.0 {
        // φ(−t) = conj(φ(t)) for a real-valued density.
        return numeric_cf(d, -t).conj();
    }
    let (lo, hi) = quantile_bounds(d);
    let mut cuts = vec![lo];
    for bp in d.breakpoints() {
        if bp > lo && bp < hi {
            cuts.push(bp);
        }
    }
    cuts.push(hi);
    cuts.sort_by(f64::total_cmp);
    let (mut re, mut im) = (0.0, 0.0);
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        if b <= a {
            continue;
        }
        let (r, i) = filon_segment(&|x| d.pdf(x), a, b, t);
        re += r;
        im += i;
    }
    Complex64::new(re, im)
}

/// One smooth segment of the CF integral: composite Filon with grid
/// doubling until two successive refinements agree.
fn filon_segment<F: Fn(f64) -> f64>(f: &F, a: f64, b: f64, t: f64) -> (f64, f64) {
    let mut n = 128usize;
    let (mut re, mut im) = filon_cos_sin(f, a, b, t, n);
    while n < 16_384 {
        n *= 2;
        let (re2, im2) = filon_cos_sin(f, a, b, t, n);
        let delta = (re2 - re).abs() + (im2 - im).abs();
        re = re2;
        im = im2;
        if delta <= 1e-11 {
            break;
        }
    }
    (re, im)
}

/// The retired oscillation-aware Simpson-panel CF: the effective support
/// cut into half-period panels, each integrated adaptively — two nested
/// quadratures per panel. Kept only as the agreement reference for the
/// Filon path.
#[cfg(test)]
fn numeric_cf_reference<D: ContinuousDist + ?Sized>(d: &D, t: f64) -> Complex64 {
    if t == 0.0 {
        return Complex64::ONE;
    }
    let (lo, hi) = quantile_bounds(d);
    let seg = (std::f64::consts::PI / t.abs())
        .min((hi - lo) / 8.0)
        .max(1e-12);
    let n_seg = (((hi - lo) / seg).ceil() as usize).clamp(8, 200_000);
    let h = (hi - lo) / n_seg as f64;
    let (mut re, mut im) = (0.0, 0.0);
    for s in 0..n_seg {
        let a = lo + s as f64 * h;
        let b = a + h;
        re += adaptive_simpson(&|x| (t * x).cos() * d.pdf(x), a, b, 1e-11);
        im += adaptive_simpson(&|x| (t * x).sin() * d.pdf(x), a, b, 1e-11);
    }
    Complex64::new(re, im)
}

/// One uniform draw in (0, 1] (never exactly zero, safe for ln).
#[inline]
fn unit_open(rng: &mut dyn RngCore) -> f64 {
    let u: f64 = rng.gen::<f64>();
    u.max(1e-300)
}

/// One standard normal draw (Box–Muller).
fn standard_normal(rng: &mut dyn RngCore) -> f64 {
    let u1 = unit_open(rng);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

// ---------------------------------------------------------------------
// Gaussian
// ---------------------------------------------------------------------

/// Normal distribution N(mean, sd²).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gaussian {
    mean: f64,
    sd: f64,
}

impl Gaussian {
    pub fn new(mean: f64, sd: f64) -> Self {
        assert!(
            sd > 0.0 && sd.is_finite(),
            "Gaussian sd must be > 0, got {sd}"
        );
        assert!(mean.is_finite());
        Gaussian { mean, sd }
    }

    pub fn from_mean_var(mean: f64, var: f64) -> Self {
        assert!(
            var > 0.0 && var.is_finite(),
            "Gaussian variance must be > 0, got {var}"
        );
        Gaussian::new(mean, var.sqrt())
    }

    /// Exact distribution of the sum of independent Gaussians.
    pub fn sum_of(gs: &[Gaussian]) -> Option<Gaussian> {
        if gs.is_empty() {
            return None;
        }
        let mean = gs.iter().map(|g| g.mean).sum();
        let var: f64 = gs.iter().map(|g| g.sd * g.sd).sum();
        Some(Gaussian::from_mean_var(mean, var))
    }

    pub fn mean(&self) -> f64 {
        self.mean
    }

    pub fn variance(&self) -> f64 {
        self.sd * self.sd
    }

    pub fn std_dev(&self) -> f64 {
        self.sd
    }

    pub fn pdf(&self, x: f64) -> f64 {
        std_normal_pdf((x - self.mean) / self.sd) / self.sd
    }

    pub fn ln_pdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / self.sd;
        -0.5 * z * z - self.sd.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln()
    }

    pub fn cdf(&self, x: f64) -> f64 {
        std_normal_cdf((x - self.mean) / self.sd)
    }

    pub fn quantile(&self, p: f64) -> f64 {
        self.mean + self.sd * std_normal_quantile(p)
    }

    pub fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        self.mean + self.sd * standard_normal(rng)
    }

    pub fn cf(&self, t: f64) -> Complex64 {
        let decay = (-0.5 * self.sd * self.sd * t * t).exp();
        Complex64::cis(self.mean * t) * decay
    }
}

impl ContinuousDist for Gaussian {
    fn pdf(&self, x: f64) -> f64 {
        Gaussian::pdf(self, x)
    }
    fn cdf(&self, x: f64) -> f64 {
        Gaussian::cdf(self, x)
    }
    fn quantile(&self, p: f64) -> f64 {
        Gaussian::quantile(self, p)
    }
    fn mean(&self) -> f64 {
        Gaussian::mean(self)
    }
    fn variance(&self) -> f64 {
        Gaussian::variance(self)
    }
    fn support(&self) -> (f64, f64) {
        (f64::NEG_INFINITY, f64::INFINITY)
    }
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        Gaussian::sample(self, rng)
    }
    fn cf(&self, t: f64) -> Complex64 {
        Gaussian::cf(self, t)
    }
    fn ln_pdf(&self, x: f64) -> f64 {
        Gaussian::ln_pdf(self, x)
    }
    fn std_dev(&self) -> f64 {
        self.sd
    }
    fn cumulant3(&self) -> f64 {
        0.0
    }
    fn cumulant4(&self) -> f64 {
        0.0
    }
}

// ---------------------------------------------------------------------
// Uniform
// ---------------------------------------------------------------------

/// Uniform distribution on [a, b].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    a: f64,
    b: f64,
}

impl Uniform {
    pub fn new(a: f64, b: f64) -> Self {
        assert!(b > a, "Uniform needs b > a, got [{a}, {b}]");
        Uniform { a, b }
    }

    pub fn lo(&self) -> f64 {
        self.a
    }

    pub fn hi(&self) -> f64 {
        self.b
    }
}

impl ContinuousDist for Uniform {
    fn pdf(&self, x: f64) -> f64 {
        if x < self.a || x > self.b {
            0.0
        } else {
            1.0 / (self.b - self.a)
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        ((x - self.a) / (self.b - self.a)).clamp(0.0, 1.0)
    }

    fn quantile(&self, p: f64) -> f64 {
        self.a + p * (self.b - self.a)
    }

    fn mean(&self) -> f64 {
        0.5 * (self.a + self.b)
    }

    fn variance(&self) -> f64 {
        let w = self.b - self.a;
        w * w / 12.0
    }

    fn support(&self) -> (f64, f64) {
        (self.a, self.b)
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        self.a + rng.gen::<f64>() * (self.b - self.a)
    }

    fn cf(&self, t: f64) -> Complex64 {
        if t == 0.0 {
            return Complex64::ONE;
        }
        // e^{it(a+b)/2} · sinc(t(b−a)/2), numerically stable at small t.
        let half_w = 0.5 * (self.b - self.a);
        let arg = t * half_w;
        let sinc = if arg.abs() < 1e-8 {
            1.0 - arg * arg / 6.0
        } else {
            arg.sin() / arg
        };
        Complex64::cis(t * self.mean()) * sinc
    }

    fn cumulant3(&self) -> f64 {
        0.0
    }

    fn cumulant4(&self) -> f64 {
        let w = self.b - self.a;
        -w.powi(4) / 120.0
    }
}

// ---------------------------------------------------------------------
// Exponential
// ---------------------------------------------------------------------

/// Exponential distribution with the given rate λ (mean 1/λ).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    pub fn new(rate: f64) -> Self {
        assert!(
            rate > 0.0 && rate.is_finite(),
            "rate must be > 0, got {rate}"
        );
        Exponential { rate }
    }

    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl ContinuousDist for Exponential {
    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            self.rate * (-self.rate * x).exp()
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            1.0 - (-self.rate * x).exp()
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        if p >= 1.0 {
            f64::INFINITY
        } else {
            -(1.0 - p).ln() / self.rate
        }
    }

    fn mean(&self) -> f64 {
        1.0 / self.rate
    }

    fn variance(&self) -> f64 {
        1.0 / (self.rate * self.rate)
    }

    fn support(&self) -> (f64, f64) {
        (0.0, f64::INFINITY)
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        -unit_open(rng).ln() / self.rate
    }

    fn cf(&self, t: f64) -> Complex64 {
        // λ / (λ − it)
        Complex64::real(self.rate) / Complex64::new(self.rate, -t)
    }

    fn cumulant3(&self) -> f64 {
        2.0 / self.rate.powi(3)
    }

    fn cumulant4(&self) -> f64 {
        6.0 / self.rate.powi(4)
    }
}

// ---------------------------------------------------------------------
// Gamma
// ---------------------------------------------------------------------

/// Gamma distribution with shape k and scale θ (mean kθ).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GammaDist {
    shape: f64,
    scale: f64,
}

impl GammaDist {
    pub fn new(shape: f64, scale: f64) -> Self {
        assert!(shape > 0.0 && shape.is_finite(), "shape must be > 0");
        assert!(scale > 0.0 && scale.is_finite(), "scale must be > 0");
        GammaDist { shape, scale }
    }

    pub fn shape(&self) -> f64 {
        self.shape
    }

    pub fn scale(&self) -> f64 {
        self.scale
    }
}

impl ContinuousDist for GammaDist {
    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        self.ln_pdf(x).exp()
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return f64::NEG_INFINITY;
        }
        (self.shape - 1.0) * x.ln()
            - x / self.scale
            - ln_gamma(self.shape)
            - self.shape * self.scale.ln()
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            gamma_p(self.shape, x / self.scale)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        if p <= 0.0 {
            return 0.0;
        }
        if p >= 1.0 {
            return f64::INFINITY;
        }
        let hi = self.mean() + 10.0 * self.std_dev();
        bisect_quantile(|x| self.cdf(x), p, 0.0, hi).max(0.0)
    }

    fn mean(&self) -> f64 {
        self.shape * self.scale
    }

    fn variance(&self) -> f64 {
        self.shape * self.scale * self.scale
    }

    fn support(&self) -> (f64, f64) {
        (0.0, f64::INFINITY)
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        // Marsaglia–Tsang squeeze; the k < 1 case boosts to k + 1.
        let k = self.shape;
        if k < 1.0 {
            let boosted = GammaDist::new(k + 1.0, self.scale);
            let u = unit_open(rng);
            return boosted.sample(rng) * u.powf(1.0 / k);
        }
        let d = k - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let z = standard_normal(rng);
            let v = (1.0 + c * z).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u = unit_open(rng);
            if u.ln() < 0.5 * z * z + d - d * v + d * v.ln() {
                return d * v * self.scale;
            }
        }
    }

    fn cf(&self, t: f64) -> Complex64 {
        // (1 − iθt)^{−k}
        Complex64::new(1.0, -self.scale * t).powf(-self.shape)
    }

    fn cumulant3(&self) -> f64 {
        2.0 * self.shape * self.scale.powi(3)
    }

    fn cumulant4(&self) -> f64 {
        6.0 * self.shape * self.scale.powi(4)
    }
}

// ---------------------------------------------------------------------
// LogNormal
// ---------------------------------------------------------------------

/// Log-normal: ln X ~ N(mu, sigma²).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma > 0.0 && sigma.is_finite(), "sigma must be > 0");
        assert!(mu.is_finite());
        LogNormal { mu, sigma }
    }

    pub fn mu(&self) -> f64 {
        self.mu
    }

    pub fn sigma(&self) -> f64 {
        self.sigma
    }
}

impl ContinuousDist for LogNormal {
    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let z = (x.ln() - self.mu) / self.sigma;
        (-0.5 * z * z).exp() / (x * self.sigma * (2.0 * std::f64::consts::PI).sqrt())
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return f64::NEG_INFINITY;
        }
        let z = (x.ln() - self.mu) / self.sigma;
        -0.5 * z * z - x.ln() - self.sigma.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln()
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            std_normal_cdf((x.ln() - self.mu) / self.sigma)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        if p <= 0.0 {
            return 0.0;
        }
        if p >= 1.0 {
            return f64::INFINITY;
        }
        (self.mu + self.sigma * std_normal_quantile(p)).exp()
    }

    fn mean(&self) -> f64 {
        (self.mu + 0.5 * self.sigma * self.sigma).exp()
    }

    fn variance(&self) -> f64 {
        let w = (self.sigma * self.sigma).exp();
        (w - 1.0) * (2.0 * self.mu + self.sigma * self.sigma).exp()
    }

    fn support(&self) -> (f64, f64) {
        (0.0, f64::INFINITY)
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }

    fn cf(&self, t: f64) -> Complex64 {
        // No closed form exists; integrate numerically.
        numeric_cf(self, t)
    }

    fn cumulant3(&self) -> f64 {
        let w = (self.sigma * self.sigma).exp();
        let skew = (w + 2.0) * (w - 1.0).sqrt();
        skew * self.variance().powf(1.5)
    }

    fn cumulant4(&self) -> f64 {
        let w = (self.sigma * self.sigma).exp();
        let ex_kurt = w * w * w * w + 2.0 * w * w * w + 3.0 * w * w - 6.0;
        let v = self.variance();
        ex_kurt * v * v
    }
}

// ---------------------------------------------------------------------
// Triangular
// ---------------------------------------------------------------------

/// Triangular distribution on [a, b] with mode c.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triangular {
    a: f64,
    c: f64,
    b: f64,
}

impl Triangular {
    pub fn new(a: f64, c: f64, b: f64) -> Self {
        assert!(
            a <= c && c <= b && a < b,
            "need a ≤ c ≤ b with a < b, got ({a}, {c}, {b})"
        );
        Triangular { a, c, b }
    }

    pub fn lo(&self) -> f64 {
        self.a
    }

    pub fn mode(&self) -> f64 {
        self.c
    }

    pub fn hi(&self) -> f64 {
        self.b
    }
}

impl ContinuousDist for Triangular {
    fn pdf(&self, x: f64) -> f64 {
        let (a, c, b) = (self.a, self.c, self.b);
        if x < a || x > b {
            0.0
        } else if x < c {
            2.0 * (x - a) / ((b - a) * (c - a))
        } else if x > c {
            2.0 * (b - x) / ((b - a) * (b - c))
        } else {
            // x == c: the peak (left/right limits agree when a < c < b).
            2.0 / (b - a)
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        let (a, c, b) = (self.a, self.c, self.b);
        if x <= a {
            0.0
        } else if x >= b {
            1.0
        } else if x <= c {
            (x - a) * (x - a) / ((b - a) * (c - a).max(1e-300))
        } else {
            1.0 - (b - x) * (b - x) / ((b - a) * (b - c).max(1e-300))
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        let (a, c, b) = (self.a, self.c, self.b);
        let pc = (c - a) / (b - a);
        if p <= pc {
            a + (p * (b - a) * (c - a)).sqrt()
        } else {
            b - ((1.0 - p) * (b - a) * (b - c)).sqrt()
        }
    }

    fn mean(&self) -> f64 {
        (self.a + self.b + self.c) / 3.0
    }

    fn variance(&self) -> f64 {
        let (a, c, b) = (self.a, self.c, self.b);
        (a * a + b * b + c * c - a * b - a * c - b * c) / 18.0
    }

    fn support(&self) -> (f64, f64) {
        (self.a, self.b)
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        self.quantile(rng.gen::<f64>())
    }

    fn cf(&self, t: f64) -> Complex64 {
        numeric_cf(self, t)
    }

    fn breakpoints(&self) -> Vec<f64> {
        vec![self.c]
    }

    fn cumulant3(&self) -> f64 {
        let (a, c, b) = (self.a, self.c, self.b);
        let q = a * a + b * b + c * c - a * b - a * c - b * c;
        if q <= 0.0 {
            return 0.0;
        }
        let skew =
            std::f64::consts::SQRT_2 * (a + b - 2.0 * c) * (2.0 * a - b - c) * (a - 2.0 * b + c)
                / (5.0 * q.powf(1.5));
        skew * self.variance().powf(1.5)
    }

    fn cumulant4(&self) -> f64 {
        // Excess kurtosis of every triangular distribution is −3/5.
        let v = self.variance();
        -0.6 * v * v
    }
}

// ---------------------------------------------------------------------
// Gaussian mixture
// ---------------------------------------------------------------------

/// One weighted Gaussian component of a mixture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixtureComponent {
    pub weight: f64,
    pub dist: Gaussian,
}

/// Finite mixture of Gaussians — the paper's §4.3 representation for
/// multi-modal tuple distributions ("an object may have moved shelves").
#[derive(Debug, Clone, PartialEq)]
pub struct GaussianMixture {
    comps: Vec<MixtureComponent>,
}

impl GaussianMixture {
    /// Build from components; weights are normalized to sum to 1.
    pub fn new(comps: Vec<MixtureComponent>) -> Self {
        assert!(!comps.is_empty(), "mixture needs at least one component");
        let total: f64 = comps.iter().map(|c| c.weight).sum();
        assert!(
            total > 0.0 && total.is_finite(),
            "weights must sum to a positive value"
        );
        let comps = comps
            .into_iter()
            .map(|c| {
                assert!(c.weight >= 0.0, "negative mixture weight");
                MixtureComponent {
                    weight: c.weight / total,
                    dist: c.dist,
                }
            })
            .collect();
        GaussianMixture { comps }
    }

    /// Build from `(weight, mean, sd)` triples.
    pub fn from_triples(triples: &[(f64, f64, f64)]) -> Self {
        GaussianMixture::new(
            triples
                .iter()
                .map(|&(w, m, s)| MixtureComponent {
                    weight: w,
                    dist: Gaussian::new(m, s),
                })
                .collect(),
        )
    }

    /// Rebuild from component weights that are **already normalized**
    /// (sum ≈ 1), bit-for-bit — the wire-codec decode path, where
    /// re-normalizing would perturb the low bits and break byte-exact
    /// roundtrips. `None` on any invariant violation instead of a panic.
    pub fn from_normalized(comps: Vec<MixtureComponent>) -> Option<Self> {
        if comps.is_empty() {
            return None;
        }
        if !crate::samples::weights_are_normalized(comps.iter().map(|c| c.weight)) {
            return None;
        }
        Some(GaussianMixture { comps })
    }

    /// A one-component mixture.
    pub fn single(g: Gaussian) -> Self {
        GaussianMixture::new(vec![MixtureComponent {
            weight: 1.0,
            dist: g,
        }])
    }

    pub fn components(&self) -> &[MixtureComponent] {
        &self.comps
    }

    pub fn num_components(&self) -> usize {
        self.comps.len()
    }

    pub fn weights(&self) -> impl Iterator<Item = f64> + '_ {
        self.comps.iter().map(|c| c.weight)
    }

    pub fn mean(&self) -> f64 {
        self.comps.iter().map(|c| c.weight * c.dist.mean()).sum()
    }

    pub fn variance(&self) -> f64 {
        let mu = self.mean();
        self.comps
            .iter()
            .map(|c| {
                let d = c.dist.mean() - mu;
                c.weight * (c.dist.variance() + d * d)
            })
            .sum()
    }

    pub fn pdf(&self, x: f64) -> f64 {
        self.comps.iter().map(|c| c.weight * c.dist.pdf(x)).sum()
    }

    pub fn cdf(&self, x: f64) -> f64 {
        self.comps.iter().map(|c| c.weight * c.dist.cdf(x)).sum()
    }

    pub fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        let u: f64 = rng.gen::<f64>();
        let mut acc = 0.0;
        for c in &self.comps {
            acc += c.weight;
            if u <= acc {
                return c.dist.sample(rng);
            }
        }
        self.comps.last().expect("non-empty").dist.sample(rng)
    }

    pub fn cf(&self, t: f64) -> Complex64 {
        let mut z = Complex64::ZERO;
        for c in &self.comps {
            z += c.dist.cf(t) * c.weight;
        }
        z
    }
}

impl ContinuousDist for GaussianMixture {
    fn pdf(&self, x: f64) -> f64 {
        GaussianMixture::pdf(self, x)
    }

    fn cdf(&self, x: f64) -> f64 {
        GaussianMixture::cdf(self, x)
    }

    fn quantile(&self, p: f64) -> f64 {
        let lo = self
            .comps
            .iter()
            .map(|c| c.dist.mean() - 12.0 * c.dist.std_dev())
            .fold(f64::INFINITY, f64::min);
        let hi = self
            .comps
            .iter()
            .map(|c| c.dist.mean() + 12.0 * c.dist.std_dev())
            .fold(f64::NEG_INFINITY, f64::max);
        bisect_quantile(|x| self.cdf(x), p, lo, hi)
    }

    fn mean(&self) -> f64 {
        GaussianMixture::mean(self)
    }

    fn variance(&self) -> f64 {
        GaussianMixture::variance(self)
    }

    fn support(&self) -> (f64, f64) {
        (f64::NEG_INFINITY, f64::INFINITY)
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        GaussianMixture::sample(self, rng)
    }

    fn cf(&self, t: f64) -> Complex64 {
        GaussianMixture::cf(self, t)
    }

    fn cumulant3(&self) -> f64 {
        // Central moments of a Gaussian mixture in closed form.
        let mu = self.mean();
        self.comps
            .iter()
            .map(|c| {
                let d = c.dist.mean() - mu;
                let v = c.dist.variance();
                c.weight * (d * d * d + 3.0 * d * v)
            })
            .sum()
    }

    fn cumulant4(&self) -> f64 {
        let mu = self.mean();
        let var = self.variance();
        let m4: f64 = self
            .comps
            .iter()
            .map(|c| {
                let d = c.dist.mean() - mu;
                let v = c.dist.variance();
                c.weight * (d.powi(4) + 6.0 * d * d * v + 3.0 * v * v)
            })
            .sum();
        m4 - 3.0 * var * var
    }
}

// ---------------------------------------------------------------------
// Truncation
// ---------------------------------------------------------------------

/// A [`Dist`] conditioned on lying inside `[lo, hi]` (renormalized).
#[derive(Debug, Clone)]
pub struct Truncated {
    inner: Box<Dist>,
    lo: f64,
    hi: f64,
    /// cdf of the inner distribution at `lo`.
    f_lo: f64,
    /// Probability mass the inner distribution places on `[lo, hi]`.
    mass: f64,
    /// Moments are fixed at construction; cached so the per-tuple
    /// conditioning path (select) doesn't re-integrate on every read.
    mean: f64,
    variance: f64,
}

impl Truncated {
    /// Returns `None` when the inner distribution puts (numerically) no
    /// mass on the interval.
    pub fn new(inner: Dist, lo: f64, hi: f64) -> Option<Truncated> {
        assert!(hi > lo, "truncation needs hi > lo");
        let f_lo = inner.cdf(lo);
        let mass = inner.cdf(hi) - f_lo;
        if mass <= 1e-12 || !mass.is_finite() {
            return None;
        }
        let (mean, variance) = truncated_moments(&inner, lo, hi, f_lo, mass);
        Some(Truncated {
            inner: Box::new(inner),
            lo,
            hi,
            f_lo,
            mass,
            mean,
            variance,
        })
    }

    pub fn bounds(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    /// Mass of the parent distribution inside the bounds.
    pub fn mass(&self) -> f64 {
        self.mass
    }

    pub fn inner(&self) -> &Dist {
        &self.inner
    }
}

/// Mean and variance of `inner` conditioned on `[lo, hi]`: closed form
/// for a Gaussian parent, one-time quadrature over the finite effective
/// range otherwise (the bounds themselves may be infinite).
fn truncated_moments(inner: &Dist, lo: f64, hi: f64, f_lo: f64, mass: f64) -> (f64, f64) {
    if let Dist::Gaussian(g) = inner {
        // Standard truncated-normal moments via the hazard terms.
        let (mu, sd) = (g.mean(), g.std_dev());
        let a = (lo - mu) / sd;
        let b = (hi - mu) / sd;
        let phi_a = if a.is_finite() {
            std_normal_pdf(a)
        } else {
            0.0
        };
        let phi_b = if b.is_finite() {
            std_normal_pdf(b)
        } else {
            0.0
        };
        let d_phi = phi_a - phi_b;
        let a_phi = if a.is_finite() { a * phi_a } else { 0.0 };
        let b_phi = if b.is_finite() { b * phi_b } else { 0.0 };
        let mean = mu + sd * d_phi / mass;
        let var = sd * sd * (1.0 + (a_phi - b_phi) / mass - (d_phi / mass) * (d_phi / mass));
        return (mean, var.max(0.0));
    }
    // Finite effective range through the inner quantile map.
    let eff_lo = inner.quantile(f_lo + 1e-12 * mass).max(lo);
    let eff_hi = inner.quantile(f_lo + (1.0 - 1e-12) * mass).min(hi);
    let pdf = |x: f64| inner.pdf(x) / mass;
    let mean = adaptive_simpson(&|x| x * pdf(x), eff_lo, eff_hi, 1e-10);
    let var = adaptive_simpson(&|x| (x - mean) * (x - mean) * pdf(x), eff_lo, eff_hi, 1e-10);
    (mean, var.max(0.0))
}

impl ContinuousDist for Truncated {
    fn pdf(&self, x: f64) -> f64 {
        if x < self.lo || x > self.hi {
            0.0
        } else {
            self.inner.pdf(x) / self.mass
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= self.lo {
            0.0
        } else if x >= self.hi {
            1.0
        } else {
            ((self.inner.cdf(x) - self.f_lo) / self.mass).clamp(0.0, 1.0)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        self.inner
            .quantile(self.f_lo + p.clamp(0.0, 1.0) * self.mass)
            .clamp(self.lo, self.hi)
    }

    fn mean(&self) -> f64 {
        self.mean
    }

    fn variance(&self) -> f64 {
        self.variance
    }

    fn support(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        self.quantile(rng.gen::<f64>())
    }

    fn cf(&self, t: f64) -> Complex64 {
        numeric_cf(self, t)
    }

    fn breakpoints(&self) -> Vec<f64> {
        // The parent's kinks survive truncation wherever they fall
        // strictly inside the bounds.
        self.inner
            .breakpoints()
            .into_iter()
            .filter(|&x| x > self.lo && x < self.hi)
            .collect()
    }
}

// ---------------------------------------------------------------------
// The storage enum
// ---------------------------------------------------------------------

/// The closed set of parametric scalar distributions a tuple can carry.
#[derive(Debug, Clone)]
pub enum Dist {
    Gaussian(Gaussian),
    Uniform(Uniform),
    Exponential(Exponential),
    Gamma(GammaDist),
    LogNormal(LogNormal),
    Triangular(Triangular),
    Mixture(GaussianMixture),
    Truncated(Truncated),
}

macro_rules! dist_delegate {
    ($self:ident, $d:ident => $body:expr) => {
        match $self {
            Dist::Gaussian($d) => $body,
            Dist::Uniform($d) => $body,
            Dist::Exponential($d) => $body,
            Dist::Gamma($d) => $body,
            Dist::LogNormal($d) => $body,
            Dist::Triangular($d) => $body,
            Dist::Mixture($d) => $body,
            Dist::Truncated($d) => $body,
        }
    };
}

impl Dist {
    /// N(mean, sd²).
    pub fn gaussian(mean: f64, sd: f64) -> Dist {
        Dist::Gaussian(Gaussian::new(mean, sd))
    }

    /// Uniform on [a, b].
    pub fn uniform(a: f64, b: f64) -> Dist {
        Dist::Uniform(Uniform::new(a, b))
    }

    pub fn pdf(&self, x: f64) -> f64 {
        dist_delegate!(self, d => ContinuousDist::pdf(d, x))
    }

    pub fn ln_pdf(&self, x: f64) -> f64 {
        dist_delegate!(self, d => ContinuousDist::ln_pdf(d, x))
    }

    pub fn cdf(&self, x: f64) -> f64 {
        dist_delegate!(self, d => ContinuousDist::cdf(d, x))
    }

    pub fn quantile(&self, p: f64) -> f64 {
        dist_delegate!(self, d => ContinuousDist::quantile(d, p))
    }

    pub fn mean(&self) -> f64 {
        dist_delegate!(self, d => ContinuousDist::mean(d))
    }

    pub fn variance(&self) -> f64 {
        dist_delegate!(self, d => ContinuousDist::variance(d))
    }

    pub fn std_dev(&self) -> f64 {
        dist_delegate!(self, d => ContinuousDist::std_dev(d))
    }

    pub fn support(&self) -> (f64, f64) {
        dist_delegate!(self, d => ContinuousDist::support(d))
    }

    pub fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        dist_delegate!(self, d => ContinuousDist::sample(d, rng))
    }

    pub fn cf(&self, t: f64) -> Complex64 {
        dist_delegate!(self, d => ContinuousDist::cf(d, t))
    }

    pub fn prob_above(&self, x: f64) -> f64 {
        dist_delegate!(self, d => ContinuousDist::prob_above(d, x))
    }

    pub fn prob_in(&self, lo: f64, hi: f64) -> f64 {
        dist_delegate!(self, d => ContinuousDist::prob_in(d, lo, hi))
    }

    pub fn cumulant3(&self) -> f64 {
        dist_delegate!(self, d => ContinuousDist::cumulant3(d))
    }

    pub fn cumulant4(&self) -> f64 {
        dist_delegate!(self, d => ContinuousDist::cumulant4(d))
    }

    pub fn breakpoints(&self) -> Vec<f64> {
        dist_delegate!(self, d => ContinuousDist::breakpoints(d))
    }

    /// The distribution of aX + b.
    ///
    /// Exact (stays in-family) for location-scale families, mixtures, and
    /// positive scalings of the scale families; otherwise a moment-matched
    /// Gaussian with the exact transformed mean and variance.
    pub fn affine(&self, a: f64, b: f64) -> Dist {
        if a == 0.0 {
            // Degenerate: a point mass at b, represented as a tight Gaussian.
            return Dist::gaussian(b, 1e-9);
        }
        match self {
            Dist::Gaussian(g) => Dist::gaussian(a * g.mean() + b, a.abs() * g.std_dev()),
            Dist::Uniform(u) => {
                let (x, y) = (a * u.lo() + b, a * u.hi() + b);
                Dist::uniform(x.min(y), x.max(y))
            }
            Dist::Triangular(t) => {
                let (x, y, z) = (a * t.lo() + b, a * t.mode() + b, a * t.hi() + b);
                if a > 0.0 {
                    Dist::Triangular(Triangular::new(x, y, z))
                } else {
                    Dist::Triangular(Triangular::new(z, y, x))
                }
            }
            Dist::Exponential(e) if b == 0.0 && a > 0.0 => {
                Dist::Exponential(Exponential::new(e.rate() / a))
            }
            Dist::Gamma(g) if b == 0.0 && a > 0.0 => {
                Dist::Gamma(GammaDist::new(g.shape(), g.scale() * a))
            }
            Dist::LogNormal(l) if b == 0.0 && a > 0.0 => {
                Dist::LogNormal(LogNormal::new(l.mu() + a.ln(), l.sigma()))
            }
            Dist::Mixture(m) => Dist::Mixture(GaussianMixture::new(
                m.components()
                    .iter()
                    .map(|c| MixtureComponent {
                        weight: c.weight,
                        dist: Gaussian::new(a * c.dist.mean() + b, a.abs() * c.dist.std_dev()),
                    })
                    .collect(),
            )),
            Dist::Truncated(t) => {
                // aX + b of a truncation is the truncation of the
                // transformed parent at the transformed bounds (exact when
                // the parent's affine is exact, e.g. a Gaussian parent).
                let (blo, bhi) = t.bounds();
                let (x, y) = (a * blo + b, a * bhi + b);
                let (lo, hi) = if a > 0.0 { (x, y) } else { (y, x) };
                match Truncated::new(t.inner().affine(a, b), lo, hi) {
                    Some(tt) => Dist::Truncated(tt),
                    None => Dist::Gaussian(Gaussian::from_mean_var(
                        a * t.mean() + b,
                        (a * a * t.variance()).max(1e-18),
                    )),
                }
            }
            other => {
                // Moment match: mean and variance transform exactly.
                Dist::Gaussian(Gaussian::from_mean_var(
                    a * other.mean() + b,
                    (a * a * other.variance()).max(1e-18),
                ))
            }
        }
    }

    /// Condition on `lo ≤ X ≤ hi`: the renormalized truncation plus the
    /// mass the original distribution placed on the interval. `None` if
    /// the interval carries (numerically) no mass.
    pub fn truncate(&self, lo: f64, hi: f64) -> Option<(Dist, f64)> {
        if hi <= lo {
            return None;
        }
        let t = Truncated::new(self.clone(), lo, hi)?;
        let mass = t.mass();
        Some((Dist::Truncated(t), mass))
    }
}

impl ContinuousDist for Dist {
    fn pdf(&self, x: f64) -> f64 {
        Dist::pdf(self, x)
    }
    fn cdf(&self, x: f64) -> f64 {
        Dist::cdf(self, x)
    }
    fn quantile(&self, p: f64) -> f64 {
        Dist::quantile(self, p)
    }
    fn mean(&self) -> f64 {
        Dist::mean(self)
    }
    fn variance(&self) -> f64 {
        Dist::variance(self)
    }
    fn support(&self) -> (f64, f64) {
        Dist::support(self)
    }
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        Dist::sample(self, rng)
    }
    fn cf(&self, t: f64) -> Complex64 {
        Dist::cf(self, t)
    }
    fn ln_pdf(&self, x: f64) -> f64 {
        Dist::ln_pdf(self, x)
    }
    fn std_dev(&self) -> f64 {
        Dist::std_dev(self)
    }
    fn cumulant3(&self) -> f64 {
        Dist::cumulant3(self)
    }
    fn cumulant4(&self) -> f64 {
        Dist::cumulant4(self)
    }
    fn breakpoints(&self) -> Vec<f64> {
        Dist::breakpoints(self)
    }
}

// ---------------------------------------------------------------------
// Multivariate Gaussian
// ---------------------------------------------------------------------

/// Multivariate Gaussian with dense row-major covariance, used for
/// uncertain object locations (x, y[, z]).
#[derive(Debug, Clone, PartialEq)]
pub struct MvGaussian {
    mean: Vec<f64>,
    /// Row-major d×d covariance.
    cov: Vec<f64>,
    /// Row-major lower-triangular Cholesky factor (for sampling).
    chol: Vec<f64>,
}

impl MvGaussian {
    pub fn new(mean: Vec<f64>, cov: Vec<f64>) -> Self {
        let d = mean.len();
        assert!(d >= 1, "need at least one dimension");
        assert_eq!(cov.len(), d * d, "covariance must be d×d");
        for a in 0..d {
            for b in (a + 1)..d {
                let asym = (cov[a * d + b] - cov[b * d + a]).abs();
                assert!(
                    asym <= 1e-9 * (1.0 + cov[a * d + a].abs() + cov[b * d + b].abs()),
                    "covariance must be symmetric"
                );
            }
        }
        let chol = cholesky(&cov, d);
        MvGaussian { mean, cov, chol }
    }

    /// Fallible construction for untrusted inputs (the wire-codec decode
    /// path): every panic in [`MvGaussian::new`] — asymmetric covariance,
    /// non-finite entries, a matrix that stays indefinite through the
    /// jitter schedule — becomes `None` instead.
    pub fn try_new(mean: Vec<f64>, cov: Vec<f64>) -> Option<Self> {
        let d = mean.len();
        if d == 0 || cov.len() != d * d {
            return None;
        }
        if mean.iter().any(|m| !m.is_finite()) || cov.iter().any(|c| !c.is_finite()) {
            return None;
        }
        for a in 0..d {
            for b in (a + 1)..d {
                let asym = (cov[a * d + b] - cov[b * d + a]).abs();
                if asym > 1e-9 * (1.0 + cov[a * d + a].abs() + cov[b * d + b].abs()) {
                    return None;
                }
            }
        }
        let chol = cholesky_jittered(&cov, d)?;
        Some(MvGaussian { mean, cov, chol })
    }

    /// Diagonal covariance sd²·I.
    pub fn isotropic(mean: Vec<f64>, sd: f64) -> Self {
        assert!(sd > 0.0);
        let d = mean.len();
        let mut cov = vec![0.0; d * d];
        for a in 0..d {
            cov[a * d + a] = sd * sd;
        }
        MvGaussian::new(mean, cov)
    }

    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    pub fn cov(&self) -> &[f64] {
        &self.cov
    }

    pub fn cov_at(&self, a: usize, b: usize) -> f64 {
        self.cov[a * self.dim() + b]
    }

    /// Scalar marginal along `axis`.
    pub fn marginal(&self, axis: usize) -> Gaussian {
        assert!(axis < self.dim());
        Gaussian::from_mean_var(self.mean[axis], self.cov_at(axis, axis).max(1e-18))
    }

    /// Distribution of X − Y for independent X ~ self, Y ~ other.
    pub fn difference(&self, other: &MvGaussian) -> MvGaussian {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        let mean = self
            .mean
            .iter()
            .zip(other.mean.iter())
            .map(|(a, b)| a - b)
            .collect();
        let cov = self
            .cov
            .iter()
            .zip(other.cov.iter())
            .map(|(a, b)| a + b)
            .collect();
        MvGaussian::new(mean, cov)
    }

    pub fn sample(&self, rng: &mut dyn RngCore) -> Vec<f64> {
        let d = self.dim();
        let z: Vec<f64> = (0..d).map(|_| standard_normal(rng)).collect();
        let mut out = self.mean.clone();
        for (a, o) in out.iter_mut().enumerate() {
            for (b, &zb) in z.iter().enumerate().take(a + 1) {
                *o += self.chol[a * d + b] * zb;
            }
        }
        out
    }

    /// Squared Mahalanobis distance (x−μ)ᵀΣ⁻¹(x−μ) of a point, computed
    /// by forward/back substitution through the Cholesky factor.
    pub fn mahalanobis_sq(&self, x: &[f64]) -> f64 {
        let d = self.dim();
        assert_eq!(x.len(), d, "dimension mismatch");
        // Solve L y = (x − μ); then the distance is ‖y‖².
        let mut y = vec![0.0; d];
        for a in 0..d {
            let mut sum = x[a] - self.mean[a];
            for (k, &yk) in y.iter().enumerate().take(a) {
                sum -= self.chol[a * d + k] * yk;
            }
            y[a] = sum / self.chol[a * d + a];
        }
        y.iter().map(|v| v * v).sum()
    }

    /// Squared Mahalanobis radius of the central `level`-probability
    /// ellipsoid: (x−μ)ᵀΣ⁻¹(x−μ) is χ²(d), so this is the χ²(d) quantile.
    pub fn confidence_radius_sq(&self, level: f64) -> f64 {
        assert!((0.0..1.0).contains(&level), "level must be in (0,1)");
        let d = self.dim() as f64;
        if level == 0.0 {
            return 0.0;
        }
        let hi = d + 10.0 * (2.0 * d).sqrt() + 50.0;
        bisect_quantile(|x| crate::special::chi_square_cdf(x, d), level, 0.0, hi).max(0.0)
    }

    /// Largest absolute off-diagonal correlation.
    fn max_abs_correlation(&self) -> f64 {
        let d = self.dim();
        let mut worst = 0.0f64;
        for a in 0..d {
            for b in (a + 1)..d {
                let denom = (self.cov_at(a, a) * self.cov_at(b, b)).sqrt().max(1e-300);
                worst = worst.max((self.cov_at(a, b) / denom).abs());
            }
        }
        worst
    }

    /// P(lo ≤ X ≤ hi component-wise).
    ///
    /// Exact (product of marginal probabilities) when the covariance is
    /// (numerically) diagonal — the case produced by [`Self::isotropic`]
    /// and differences thereof. A correlated 2-d box is four upper-orthant
    /// probabilities by inclusion–exclusion, each from Genz's closed-form
    /// bivariate-normal algorithm (`bvn_upper`; ~1e-14 absolute at a
    /// fixed cost per call). Correlated boxes in 3 or more dimensions use
    /// the deterministic Genz sequentially-conditioned quadrature below
    /// (~1e-8 for the engine's low-dimensional location boxes).
    pub fn prob_in_box(&self, lo: &[f64], hi: &[f64]) -> f64 {
        let d = self.dim();
        assert_eq!(lo.len(), d);
        assert_eq!(hi.len(), d);
        if self.max_abs_correlation() < 1e-12 {
            let mut p = 1.0;
            for a in 0..d {
                let m = self.marginal(a);
                p *= (m.cdf(hi[a]) - m.cdf(lo[a])).clamp(0.0, 1.0);
            }
            return p;
        }
        if d == 2 {
            // Standardize with the same variance floor as `marginal`, so
            // the box never exceeds either marginal band.
            let s0 = self.cov_at(0, 0).max(1e-18).sqrt();
            let s1 = self.cov_at(1, 1).max(1e-18).sqrt();
            let rho = (self.cov_at(0, 1) / (s0 * s1)).clamp(-1.0, 1.0);
            let (h0, h1) = ((lo[0] - self.mean[0]) / s0, (hi[0] - self.mean[0]) / s0);
            let (k0, k1) = ((lo[1] - self.mean[1]) / s1, (hi[1] - self.mean[1]) / s1);
            // Empty (or NaN) boxes hold nothing; inclusion–exclusion would
            // return the mass of the reflected box instead.
            if !(h0 < h1 && k0 < k1) {
                return 0.0;
            }
            let p = bvn_upper(h0, k0, rho) - bvn_upper(h1, k0, rho) - bvn_upper(h0, k1, rho)
                + bvn_upper(h1, k1, rho);
            return p.clamp(0.0, 1.0);
        }
        // d > 2 correlated: deterministic Genz quadrature.
        self.genz_prob_in_box(lo, hi)
    }

    /// Genz's sequentially conditioned transform (1992): with L the
    /// Cholesky factor, the box probability becomes a *smooth* integral
    /// over the (d−1)-dimensional unit cube — each coordinate is
    /// conditioned on the previous ones through Φ and Φ⁻¹, and the
    /// integrand is the product of the conditional band masses. The cube
    /// is then integrated with a tensor Gauss–Legendre rule in low
    /// dimension (the engine's location boxes: d ≤ 4) and a
    /// deterministic Richtmyer lattice above. Fully deterministic — no
    /// RNG, no seed, no sampling noise.
    fn genz_prob_in_box(&self, lo: &[f64], hi: &[f64]) -> f64 {
        let d = self.dim();
        let l = &self.chol;
        let a: Vec<f64> = (0..d).map(|i| lo[i] - self.mean[i]).collect();
        let b: Vec<f64> = (0..d).map(|i| hi[i] - self.mean[i]).collect();
        let l00 = l[0].max(1e-300);
        let d1 = std_normal_cdf(a[0] / l00);
        let e1 = std_normal_cdf(b[0] / l00);
        let f1 = (e1 - d1).max(0.0);
        if f1 <= 0.0 {
            return 0.0;
        }
        let m = d - 1;
        let mut y = vec![0.0; m];
        let integrand = |w: &[f64], y: &mut [f64]| -> f64 {
            let (mut dd, mut ee, mut f) = (d1, e1, f1);
            for i in 1..d {
                let u = (dd + w[i - 1] * (ee - dd)).clamp(1e-16, 1.0 - 1e-16);
                y[i - 1] = std_normal_quantile(u);
                let mut shift = 0.0;
                for (j, &yj) in y.iter().enumerate().take(i) {
                    shift += l[i * d + j] * yj;
                }
                let lii = l[i * d + i].max(1e-300);
                dd = std_normal_cdf((a[i] - shift) / lii);
                ee = std_normal_cdf((b[i] - shift) / lii);
                let fi = (ee - dd).max(0.0);
                f *= fi;
                if f <= 0.0 {
                    return 0.0;
                }
            }
            f
        };
        let p = if m <= 3 {
            let order = [48, 24][m - 2];
            tensor_gl_unit_cube(&integrand, &mut y, m, order)
        } else {
            richtmyer_unit_cube(&integrand, &mut y, m, 32_768)
        };
        p.clamp(0.0, 1.0)
    }
}

/// Upper orthant P(X > h, Y > k) of a standard bivariate normal with
/// correlation `r` — Genz's BVND (Genz 2004, *Statistics and Computing*
/// 14:251–260): Drezner–Wesolowsky's integral over arcsin ρ with 6, 12
/// or 20 Gauss–Legendre points by |ρ| below 0.925, and Genz's expansion
/// about |ρ| = 1 above, its remainder integrated on the same rules
/// (built once). A fixed cost per call, no tolerance, no RNG; a box
/// built from four calls is within 2e-14 of a brute-force reference in
/// the tests. Limits are clamped to ±40, past which Φ is 0 or 1 in f64,
/// so infinite limits need no case of their own.
fn bvn_upper(h: f64, k: f64, r: f64) -> f64 {
    use std::f64::consts::PI;
    static RULES: std::sync::OnceLock<[(Vec<f64>, Vec<f64>); 3]> = std::sync::OnceLock::new();
    let [gl6, gl12, gl20] = RULES.get_or_init(|| [6, 12, 20].map(gauss_legendre));
    let (h, k) = (h.clamp(-40.0, 40.0), k.clamp(-40.0, 40.0));
    let (nodes, weights) = if r.abs() < 0.3 {
        gl6
    } else if r.abs() < 0.75 {
        gl12
    } else {
        gl20
    };
    let gl = nodes.iter().zip(weights);
    let hk = h * k;
    if r.abs() < 0.925 {
        let hs = (h * h + k * k) / 2.0;
        let asr = r.asin();
        let mut sum = 0.0;
        for (&x, &w) in gl {
            let sn = (asr * (1.0 + x) / 2.0).sin();
            sum += w * ((sn * hk - hs) / (1.0 - sn * sn)).exp();
        }
        let p = sum * asr / (4.0 * PI) + std_normal_cdf(-h) * std_normal_cdf(-k);
        return p.clamp(0.0, 1.0);
    }
    // |ρ| ≥ 0.925: reflect ρ < 0 onto ρ > 0 through Y → −Y.
    let (k, hk) = if r < 0.0 { (-k, -hk) } else { (k, hk) };
    let mut bvn = 0.0;
    if r.abs() < 1.0 {
        let a_s = (1.0 - r) * (1.0 + r);
        let mut a = a_s.sqrt();
        let bs = (h - k) * (h - k);
        let c = (4.0 - hk) / 8.0;
        let d = (12.0 - hk) / 16.0;
        bvn = a
            * (-(bs / a_s + hk) / 2.0).exp()
            * (1.0 - c * (bs - a_s) * (1.0 - d * bs / 5.0) / 3.0 + c * d * a_s * a_s / 5.0);
        if hk > -160.0 {
            let b = bs.sqrt();
            bvn -= (-hk / 2.0).exp()
                * (2.0 * PI).sqrt()
                * std_normal_cdf(-b / a)
                * b
                * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0);
        }
        a /= 2.0;
        for (&x, &w) in gl {
            let xs = (a * (1.0 + x)) * (a * (1.0 + x));
            let rs = (1.0 - xs).sqrt();
            bvn += a
                * w
                * ((-bs / (2.0 * xs) - hk / (1.0 + rs)).exp() / rs
                    - (-(bs / xs + hk) / 2.0).exp() * (1.0 + c * xs * (1.0 + d * xs)));
        }
        bvn = -bvn / (2.0 * PI);
    }
    let p = if r > 0.0 {
        bvn + std_normal_cdf(-h.max(k))
    } else if k > h {
        // P(h < X < −k_original) minus the expansion.
        let band = if h < 0.0 {
            std_normal_cdf(k) - std_normal_cdf(h)
        } else {
            std_normal_cdf(-h) - std_normal_cdf(-k)
        };
        band - bvn
    } else {
        -bvn
    };
    p.clamp(0.0, 1.0)
}

/// Tensor-product Gauss–Legendre cubature of `f` over the unit cube
/// [0,1]^m with `order` nodes per axis (`order^m` evaluations).
/// `scratch` is the reusable conditioning buffer the integrand fills.
fn tensor_gl_unit_cube<F: Fn(&[f64], &mut [f64]) -> f64>(
    f: &F,
    scratch: &mut [f64],
    m: usize,
    order: usize,
) -> f64 {
    let (nodes, weights) = gauss_legendre(order);
    let un: Vec<f64> = nodes.iter().map(|x| 0.5 * (x + 1.0)).collect();
    let uw: Vec<f64> = weights.iter().map(|w| 0.5 * w).collect();
    let mut idx = vec![0usize; m];
    let mut w = vec![0.0; m];
    let mut total = 0.0;
    loop {
        let mut weight = 1.0;
        for k in 0..m {
            w[k] = un[idx[k]];
            weight *= uw[idx[k]];
        }
        total += weight * f(&w, scratch);
        let mut k = 0;
        loop {
            idx[k] += 1;
            if idx[k] < order {
                break;
            }
            idx[k] = 0;
            k += 1;
            if k == m {
                return total;
            }
        }
    }
}

/// Deterministic equal-weight Richtmyer (Kronecker) lattice over the
/// unit cube: point k has coordinates frac(k·√pⱼ) for distinct primes
/// pⱼ — a fixed low-discrepancy sequence, no RNG involved.
fn richtmyer_unit_cube<F: Fn(&[f64], &mut [f64]) -> f64>(
    f: &F,
    scratch: &mut [f64],
    m: usize,
    n: usize,
) -> f64 {
    const PRIMES: [f64; 12] = [
        2.0, 3.0, 5.0, 7.0, 11.0, 13.0, 17.0, 19.0, 23.0, 29.0, 31.0, 37.0,
    ];
    let alphas: Vec<f64> = (0..m)
        .map(|j| PRIMES[j % PRIMES.len()].sqrt().fract())
        .collect();
    let mut w = vec![0.0; m];
    let mut total = 0.0;
    for k in 1..=n {
        for (wj, &aj) in w.iter_mut().zip(&alphas) {
            *wj = (k as f64 * aj).fract();
        }
        total += f(&w, scratch);
    }
    total / n as f64
}

/// Dense Cholesky factorization with a diagonal jitter retry, returning
/// the lower-triangular factor row-major.
fn cholesky(cov: &[f64], d: usize) -> Vec<f64> {
    match cholesky_jittered(cov, d) {
        Some(l) => l,
        None => panic!("covariance matrix is not positive definite"),
    }
}

/// The shared jitter/retry schedule behind both [`cholesky`] (panicking,
/// in-process construction) and [`MvGaussian::try_new`] (fallible,
/// wire-decode) — one definition so the two paths cannot diverge in
/// what they accept.
fn cholesky_jittered(cov: &[f64], d: usize) -> Option<Vec<f64>> {
    let scale: f64 = (0..d).map(|a| cov[a * d + a].abs()).fold(0.0, f64::max);
    let mut jitter = 0.0;
    for _ in 0..6 {
        if let Some(l) = try_cholesky(cov, d, jitter) {
            return Some(l);
        }
        jitter = if jitter == 0.0 {
            1e-12 * scale.max(1e-12)
        } else {
            jitter * 100.0
        };
    }
    None
}

fn try_cholesky(cov: &[f64], d: usize, jitter: f64) -> Option<Vec<f64>> {
    let mut l = vec![0.0; d * d];
    for a in 0..d {
        for b in 0..=a {
            let mut sum = cov[a * d + b] + if a == b { jitter } else { 0.0 };
            for k in 0..b {
                sum -= l[a * d + k] * l[b * d + k];
            }
            if a == b {
                if sum <= 0.0 {
                    return None;
                }
                l[a * d + a] = sum.sqrt();
            } else {
                l[a * d + b] = sum / l[b * d + b];
            }
        }
    }
    Some(l)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "expected {b}, got {a}");
    }

    #[test]
    fn gaussian_basics() {
        let g = Gaussian::new(2.0, 3.0);
        close(g.mean(), 2.0, 0.0);
        close(g.variance(), 9.0, 0.0);
        close(g.cdf(2.0), 0.5, 1e-14);
        close(g.quantile(g.cdf(4.0)), 4.0, 1e-9);
        close(
            g.pdf(2.0),
            1.0 / (3.0 * (2.0 * std::f64::consts::PI).sqrt()),
            1e-12,
        );
        close(g.ln_pdf(5.0), g.pdf(5.0).ln(), 1e-12);
    }

    #[test]
    fn exponential_gamma_consistency() {
        // Exp(λ) == Gamma(1, 1/λ).
        let e = Exponential::new(2.0);
        let g = GammaDist::new(1.0, 0.5);
        for &x in &[0.1, 0.5, 1.0, 3.0] {
            close(e.pdf(x), g.pdf(x), 1e-10);
            close(e.cdf(x), g.cdf(x), 1e-10);
        }
        close(e.cumulant3(), g.cumulant3(), 1e-12);
    }

    #[test]
    fn lognormal_moments() {
        let l = LogNormal::new(0.5, 0.4);
        // E[X] = exp(μ + σ²/2)
        close(l.mean(), (0.5f64 + 0.08).exp(), 1e-12);
        let mut rng = StdRng::seed_from_u64(5);
        let n = 100_000;
        let m = (0..n).map(|_| l.sample(&mut rng)).sum::<f64>() / n as f64;
        close(m, l.mean(), 0.02);
    }

    #[test]
    fn triangular_shape() {
        let t = Triangular::new(0.0, 1.0, 4.0);
        close(t.cdf(0.0), 0.0, 0.0);
        close(t.cdf(4.0), 1.0, 0.0);
        close(t.cdf(1.0), 0.25, 1e-12);
        close(t.mean(), 5.0 / 3.0, 1e-12);
        for &p in &[0.1, 0.25, 0.7, 0.95] {
            close(t.cdf(t.quantile(p)), p, 1e-12);
        }
    }

    #[test]
    fn mixture_moments_and_quantile() {
        let m = GaussianMixture::from_triples(&[(0.25, -4.0, 1.0), (0.75, 4.0, 2.0)]);
        close(m.mean(), 0.25 * -4.0 + 0.75 * 4.0, 1e-12);
        // Var = Σw(σ²+μ²) − μ̄²
        let want_var = 0.25 * (1.0 + 16.0) + 0.75 * (4.0 + 16.0) - 2.0 * 2.0;
        close(m.variance(), want_var, 1e-12);
        for &p in &[0.05, 0.3, 0.5, 0.9] {
            close(m.cdf(ContinuousDist::quantile(&m, p)), p, 1e-9);
        }
    }

    #[test]
    fn dist_affine_gaussian_exact() {
        let d = Dist::gaussian(1.0, 2.0);
        let t = d.affine(-3.0, 5.0);
        close(t.mean(), 2.0, 1e-12);
        close(t.variance(), 36.0, 1e-9);
        assert!(matches!(t, Dist::Gaussian(_)));
    }

    #[test]
    fn dist_truncate_renormalizes() {
        let d = Dist::gaussian(0.0, 1.0);
        let (t, mass) = d.truncate(-1.0, 1.0).unwrap();
        close(mass, d.prob_in(-1.0, 1.0), 1e-12);
        close(t.cdf(-1.0), 0.0, 1e-12);
        close(t.cdf(1.0), 1.0, 1e-12);
        close(t.mean(), 0.0, 1e-9);
        assert!(d.truncate(50.0, 60.0).is_none());
    }

    #[test]
    fn gamma_sampling_mean() {
        for &(k, theta) in &[(0.5, 2.0), (3.0, 1.5)] {
            let g = GammaDist::new(k, theta);
            let mut rng = StdRng::seed_from_u64(11);
            let n = 50_000;
            let m = (0..n).map(|_| g.sample(&mut rng)).sum::<f64>() / n as f64;
            close(m, g.mean(), 6.0 * g.std_dev() / (n as f64).sqrt() + 0.01);
        }
    }

    #[test]
    fn cf_matches_moments_at_origin() {
        // φ'(0) = iμ numerically, via finite difference.
        let dists = [
            Dist::gaussian(1.5, 0.7),
            Dist::uniform(-1.0, 3.0),
            Dist::Exponential(Exponential::new(1.3)),
            Dist::Gamma(GammaDist::new(2.0, 0.8)),
            Dist::LogNormal(LogNormal::new(0.2, 0.3)),
            Dist::Triangular(Triangular::new(-1.0, 0.5, 2.0)),
        ];
        for d in &dists {
            let h = 1e-4;
            let deriv = (d.cf(h) - d.cf(-h)) / (2.0 * h);
            close(deriv.im, d.mean(), 1e-3);
            close(d.cf(0.0).re, 1.0, 1e-12);
        }
    }

    #[test]
    fn mv_gaussian_marginals_and_box() {
        let mv = MvGaussian::isotropic(vec![1.0, -1.0], 2.0);
        assert_eq!(mv.dim(), 2);
        close(mv.marginal(0).mean(), 1.0, 0.0);
        close(mv.cov_at(0, 1), 0.0, 0.0);
        // Independent ⇒ product of marginal probabilities.
        let p = mv.prob_in_box(&[-1.0, -3.0], &[3.0, 1.0]);
        let px = mv.marginal(0).prob_in(-1.0, 3.0);
        let py = mv.marginal(1).prob_in(-3.0, 1.0);
        close(p, px * py, 1e-12);
    }

    #[test]
    fn affine_of_truncation_keeps_bounds() {
        // select-then-project: °C conditioned above 60, mapped to °F.
        let (t, _) = Dist::gaussian(60.0, 5.0)
            .truncate(60.0, f64::INFINITY)
            .unwrap();
        let f = t.affine(1.8, 32.0);
        assert!(matches!(f, Dist::Truncated(_)), "must stay truncated");
        // No mass below the transformed bound 60·1.8+32 = 140 °F.
        assert!(f.cdf(139.9) == 0.0, "cdf below bound must be 0");
        assert!(f.pdf(139.0) == 0.0);
        close(f.mean(), 1.8 * t.mean() + 32.0, 1e-6);
        close(f.variance(), 1.8 * 1.8 * t.variance(), 1e-6);
        // Negative scale flips the bound to an upper one.
        let neg = t.affine(-2.0, 0.0);
        assert!(
            neg.prob_above(-119.9) == 0.0,
            "flipped bound must cap above"
        );
    }

    #[test]
    fn filon_cf_agrees_with_nested_adaptive_reference() {
        // The single-pass Filon CF must reproduce the retired nested
        // adaptive-quadrature scheme to 1e-9 across every family that
        // integrates numerically, including kinked densities
        // (Triangular) and truncations thereof.
        let families: Vec<Dist> = vec![
            Dist::LogNormal(LogNormal::new(0.2, 0.5)),
            Dist::LogNormal(LogNormal::new(-0.5, 0.25)),
            Dist::Triangular(Triangular::new(-1.0, 0.5, 2.0)),
            Dist::Triangular(Triangular::new(0.0, 0.0, 3.0)),
            Dist::Truncated(Truncated::new(Dist::gaussian(1.0, 2.0), -0.5, 3.0).unwrap()),
            Dist::Truncated(
                Truncated::new(Dist::Triangular(Triangular::new(0.0, 1.0, 4.0)), 0.5, 3.0).unwrap(),
            ),
        ];
        for d in &families {
            for &t in &[0.1, 0.7, 3.0, 11.0, -2.5, 40.0] {
                let got = d.cf(t);
                let want = numeric_cf_reference(d, t);
                assert!(
                    (got.re - want.re).abs() <= 1e-9 && (got.im - want.im).abs() <= 1e-9,
                    "cf disagreement for {d:?} at t={t}: got {got:?}, want {want:?}"
                );
            }
        }
    }

    #[test]
    fn filon_cf_matches_gaussian_closed_form() {
        // Absolute ground truth: run the numeric path on a family whose
        // CF is known exactly.
        let g = Gaussian::new(0.7, 1.3);
        for &t in &[0.2, 1.0, 2.5, -1.7] {
            let got = numeric_cf(&g, t);
            let want = g.cf(t);
            close(got.re, want.re, 1e-9);
            close(got.im, want.im, 1e-9);
        }
    }

    #[test]
    fn prob_in_box_genz_matches_block_diagonal_factorization() {
        // A correlated 2×2 block plus an independent third axis: the 3-d
        // Genz quadrature must equal (exact 2-d conditional quadrature) ×
        // (marginal band) to quadrature accuracy — far beyond the ~1e-2
        // the Monte-Carlo fallback could certify.
        let cov3 = vec![
            1.0, 0.6, 0.0, //
            0.6, 2.0, 0.0, //
            0.0, 0.0, 1.5,
        ];
        let mv3 = MvGaussian::new(vec![0.5, -0.5, 1.0], cov3);
        let p3 = mv3.prob_in_box(&[-1.0, -2.0, 0.0], &[1.5, 1.0, 2.5]);
        let mv2 = MvGaussian::new(vec![0.5, -0.5], vec![1.0, 0.6, 0.6, 2.0]);
        let p2 = mv2.prob_in_box(&[-1.0, -2.0], &[1.5, 1.0]);
        let band = mv3.marginal(2).prob_in(0.0, 2.5);
        close(p3, p2 * band, 1e-8);
    }

    #[test]
    fn prob_in_box_genz_is_deterministic_and_bounded() {
        let cov = vec![
            1.0, 0.5, 0.3, //
            0.5, 1.5, 0.2, //
            0.3, 0.2, 2.0,
        ];
        let mv = MvGaussian::new(vec![0.0, 0.0, 0.0], cov);
        let p1 = mv.prob_in_box(&[-1.0, -1.0, -1.0], &[1.0, 1.0, 1.0]);
        let p2 = mv.prob_in_box(&[-1.0, -1.0, -1.0], &[1.0, 1.0, 1.0]);
        assert_eq!(p1, p2, "deterministic quadrature must be bit-stable");
        assert!((0.0..=1.0).contains(&p1));
        // Whole-space box → probability 1; empty overlap → 0.
        let all = mv.prob_in_box(&[-60.0, -60.0, -60.0], &[60.0, 60.0, 60.0]);
        close(all, 1.0, 1e-9);
        let none = mv.prob_in_box(&[50.0, 50.0, 50.0], &[60.0, 60.0, 60.0]);
        close(none, 0.0, 1e-12);
        // Against a fresh Monte-Carlo reference (sampling is independent
        // of the quadrature now, so this is a real cross-check).
        let mut rng = StdRng::seed_from_u64(13);
        let n = 400_000;
        let (lo, hi) = ([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]);
        let mut hits = 0usize;
        for _ in 0..n {
            let v = mv.sample(&mut rng);
            if (0..3).all(|k| v[k] >= lo[k] && v[k] <= hi[k]) {
                hits += 1;
            }
        }
        close(p1, hits as f64 / n as f64, 5e-3);
    }

    #[test]
    fn prob_in_box_correlated_2d_matches_monte_carlo() {
        let mv = MvGaussian::new(vec![0.5, -0.5], vec![1.0, 0.6, 0.6, 2.0]);
        let (lo, hi) = ([-1.0, -2.0], [1.5, 1.0]);
        let p = mv.prob_in_box(&lo, &hi);
        let mut rng = StdRng::seed_from_u64(77);
        let n = 200_000;
        let mut hits = 0usize;
        for _ in 0..n {
            let v = mv.sample(&mut rng);
            if v[0] >= lo[0] && v[0] <= hi[0] && v[1] >= lo[1] && v[1] <= hi[1] {
                hits += 1;
            }
        }
        close(p, hits as f64 / n as f64, 0.01);
        assert!((0.0..=1.0).contains(&p));
    }

    /// Brute-force P(lo ≤ X ≤ hi) for a correlated 2-d Gaussian: the
    /// conditional band of the second axis given the first, integrated
    /// over the first with composite 20-point Gauss–Legendre on pieces
    /// cut at every unit of φ and around each place the band turns.
    fn bvn_box_reference(
        mean: [f64; 2],
        sd: [f64; 2],
        rho: f64,
        lo: [f64; 2],
        hi: [f64; 2],
    ) -> f64 {
        let (a, b) = (
            ((lo[0] - mean[0]) / sd[0]).max(-40.0),
            ((hi[0] - mean[0]) / sd[0]).min(40.0),
        );
        let (k0, k1) = ((lo[1] - mean[1]) / sd[1], (hi[1] - mean[1]) / sd[1]);
        if b <= a {
            return 0.0;
        }
        let s = ((1.0 - rho) * (1.0 + rho)).sqrt();
        let f = |x: f64| {
            std_normal_pdf(x)
                * (std_normal_cdf((k1 - rho * x) / s) - std_normal_cdf((k0 - rho * x) / s))
        };
        let mut cuts: Vec<f64> = vec![a, b];
        cuts.extend((-9..=9).map(f64::from));
        for kj in [k0, k1].into_iter().filter(|k| k.is_finite()) {
            for t in [
                -40.0, -20.0, -10.0, -6.0, -4.0, -3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0,
                4.0, 6.0, 10.0, 20.0, 40.0,
            ] {
                cuts.push((kj + t * s) / rho);
            }
        }
        cuts.retain(|c| *c >= a && *c <= b);
        cuts.sort_by(f64::total_cmp);
        cuts.dedup();
        let (nodes, weights) = gauss_legendre(20);
        let mut total = 0.0;
        for pair in cuts.windows(2) {
            let step = (pair[1] - pair[0]) / 16.0;
            for piece in 0..16 {
                let x0 = pair[0] + piece as f64 * step;
                for (x, w) in nodes.iter().zip(&weights) {
                    total += 0.5 * step * w * f(x0 + 0.5 * step * (x + 1.0));
                }
            }
        }
        total
    }

    #[test]
    fn prob_in_box_2d_matches_brute_force_in_every_regime() {
        // One row per regime of the bivariate kernel: the 6-, 12- and
        // 20-point arcsin rules (|ρ| < 0.3, < 0.75, < 0.925), the
        // expansion about |ρ| = 1 (≥ 0.925), negative ρ, |ρ| → 1, a tiny
        // sd, boxes deep in a tail and infinite bounds.
        let inf = f64::INFINITY;
        let rows = [
            (
                [0.5, -0.5],
                [1.0, 2.0f64.sqrt()],
                0.1,
                [-1.0, -2.0],
                [1.5, 1.0],
            ),
            ([0.0, 0.0], [1.0, 1.0], 0.29, [-0.3, -2.5], [0.7, 0.1]),
            ([1.0, 2.0], [2.0, 0.5], -0.2, [-1.0, 1.5], [3.0, 2.2]),
            ([0.0, 0.0], [1.0, 1.0], 0.5, [-1.0, -1.0], [1.0, 1.0]),
            ([3.0, -1.0], [1.5, 3.0], -0.6, [0.0, -8.0], [8.0, 8.0]),
            ([0.0, 0.0], [1.0, 1.0], 0.74, [-8.0, -1.0], [0.5, 8.0]),
            ([0.2, 0.1], [1.0, 1.0], 0.8, [-1.0, -1.0], [1.0, 1.0]),
            ([0.0, 1.0], [4.0, 2.0], -0.9, [-8.0, -3.0], [8.0, 0.0]),
            ([0.0, 0.0], [1.0, 1.0], 0.924, [-0.5, 0.0], [2.0, 3.0]),
            ([0.0, 0.0], [1.0, 1.0], 0.925, [-0.5, 0.0], [2.0, 3.0]),
            ([1.0, -1.0], [2.0, 1.0], 0.95, [-8.0, -8.0], [2.0, -0.5]),
            ([0.0, 0.0], [1.0, 1.0], -0.95, [-1.0, -0.5], [0.5, 2.0]),
            ([0.0, 0.0], [1.0, 3.0], 0.99, [-2.0, -2.0], [1.0, 4.0]),
            ([0.0, 0.0], [1.0, 1.0], -0.999, [-1.0, -1.0], [1.0, 1.0]),
            ([0.3, -0.2], [1.0, 1.0], 0.999_999, [-1.0, -0.5], [0.5, 1.0]),
            (
                [0.3, -0.2],
                [1.0, 1.0],
                -0.999_999,
                [-1.0, -1.0],
                [0.5, 1.0],
            ),
            (
                [0.0, 0.0],
                [1.0, 1.0],
                1.0 - 1e-10,
                [-0.25, -0.5],
                [2.0, 0.75],
            ),
            // A narrow, strongly correlated cloud in a wide box (a fitted
            // RFID location against ε = 8): the band is nonzero only near
            // the cloud, so a quadrature's first samples all see no mass.
            (
                [-4.66, 3.25],
                [0.555, 13.13],
                -0.9836,
                [-8.0, -8.0],
                [8.0, 8.0],
            ),
            // Tiny sd: the box spans a few sd of a 1e-4-wide cloud.
            (
                [7.0, -3.0],
                [1e-4, 2e-4],
                0.6,
                [7.0 - 1e-4, -3.0 - 3e-4],
                [7.0 + 2e-4, -3.0],
            ),
            ([7.0, -3.0], [1e-4, 2e-4], -0.97, [6.9, -3.1], [7.1, -2.9]),
            // Deep in a tail (probabilities 1e-9 .. 1e-20).
            ([0.0, 0.0], [1.0, 1.0], 0.5, [5.0, 4.5], [7.0, 9.0]),
            ([0.0, 0.0], [1.0, 1.0], -0.5, [-9.0, 5.5], [-4.0, 9.0]),
            ([0.0, 0.0], [1.0, 1.0], 0.96, [6.0, 6.0], [8.0, 8.0]),
            ([0.0, 0.0], [1.0, 1.0], -0.96, [-8.0, 6.0], [-6.0, 8.0]),
            ([0.0, 0.0], [1.0, 1.0], 0.2, [8.0, -inf], [inf, inf]),
            // Infinite bounds.
            ([0.0, 0.0], [1.0, 1.0], 0.4, [-inf, -inf], [0.0, 0.0]),
            ([1.0, -2.0], [2.0, 1.0], -0.7, [-inf, -1.0], [inf, inf]),
            ([0.0, 0.0], [1.0, 1.0], 0.97, [0.5, -inf], [inf, 0.25]),
            ([0.0, 0.0], [1.0, 1.0], -0.97, [-inf, -inf], [inf, inf]),
            ([0.0, 0.0], [1.0, 1.0], 0.6, [-inf, -inf], [inf, inf]),
        ];
        for (mean, sd, rho, lo, hi) in rows {
            let c = rho * sd[0] * sd[1];
            let mv = MvGaussian::new(mean.to_vec(), vec![sd[0] * sd[0], c, c, sd[1] * sd[1]]);
            let got = mv.prob_in_box(&lo, &hi);
            let want = bvn_box_reference(mean, sd, rho, lo, hi);
            assert!(
                (got - want).abs() <= 1e-12,
                "ρ = {rho}, box {lo:?}..{hi:?}: got {got:e}, want {want:e}"
            );
        }
        // Seeded random boxes across every regime, ρ up to ±0.999.
        let mut rng = StdRng::seed_from_u64(0xB0C5);
        for _ in 0..300 {
            let sd = [rng.gen_range(0.05..6.0), rng.gen_range(0.05..6.0)];
            let rho = rng.gen_range(-0.999..0.999);
            let mean = [rng.gen_range(-10.0..10.0), rng.gen_range(-10.0..10.0)];
            let (lo, hi) = ([-8.0, -8.0], [8.0, 8.0]);
            let c = rho * sd[0] * sd[1];
            let mv = MvGaussian::new(mean.to_vec(), vec![sd[0] * sd[0], c, c, sd[1] * sd[1]]);
            let got = mv.prob_in_box(&lo, &hi);
            let want = bvn_box_reference(mean, sd, rho, lo, hi);
            assert!(
                (got - want).abs() <= 1e-12,
                "ρ = {rho}, sd {sd:?}, mean {mean:?}: got {got:e}, want {want:e}"
            );
        }
    }

    #[test]
    fn prob_in_box_2d_rejects_empty_boxes() {
        let mv = MvGaussian::new(vec![0.0, 0.0], vec![1.0, 0.5, 0.5, 1.0]);
        assert_eq!(mv.prob_in_box(&[1.0, -1.0], &[-1.0, 1.0]), 0.0);
        assert_eq!(mv.prob_in_box(&[-1.0, 1.0], &[1.0, -1.0]), 0.0);
        assert_eq!(mv.prob_in_box(&[0.5, -1.0], &[0.5, 1.0]), 0.0);
        // Both axes reversed: inclusion–exclusion alone would return the
        // mass of the box [-1, 1]².
        assert_eq!(mv.prob_in_box(&[1.0, 1.0], &[-1.0, -1.0]), 0.0);
    }

    #[test]
    fn mv_gaussian_correlated_sampling() {
        let mv = MvGaussian::new(vec![0.0, 0.0], vec![1.0, 0.8, 0.8, 1.0]);
        let mut rng = StdRng::seed_from_u64(21);
        let n = 40_000;
        let mut cxy = 0.0;
        for _ in 0..n {
            let v = mv.sample(&mut rng);
            cxy += v[0] * v[1];
        }
        close(cxy / n as f64, 0.8, 0.03);
        let d = mv.difference(&mv);
        close(d.cov_at(0, 1), 1.6, 1e-12);
        close(d.mean()[0], 0.0, 0.0);
    }
}
