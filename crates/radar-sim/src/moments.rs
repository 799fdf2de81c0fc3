//! Moment estimation: raw pulses → averaged moment data (§2.2).
//!
//! "Moment data is generated by averaging over the data items from N
//! consecutive pulses but for the same gate" — the knob of Table 1. The
//! pulse-pair estimators are standard:
//!
//! - power  P = mean(|V|²)              → reflectivity ∝ 10·log₁₀ P
//! - R₁ = mean(V₀* · V₁)                → velocity v = arg(R₁)·λ·PRF/4π
//! - width σ_v ∝ √|ln(P/|R₁|)|          (spectrum-width estimator)
//!
//! Because the antenna keeps rotating during the N pulses, large N smears
//! the azimuthal structure — exactly the information loss that makes the
//! tornado couplet undetectable at coarse averaging.

use crate::radar::{Pulse, RadarParams};

/// One averaged moment cell (a "voxel" in polar coordinates).
#[derive(Debug, Clone, Copy)]
pub struct MomentCell {
    /// Mean azimuth of the contributing pulses (rad).
    pub azimuth: f64,
    /// Gate centre range (m).
    pub range: f64,
    /// Scenario time of the group centre (s).
    pub t: f64,
    /// Reflectivity (dB, uncalibrated).
    pub reflectivity: f32,
    /// Radial velocity (m/s, positive away).
    pub velocity: f32,
    /// Spectrum width (m/s).
    pub spectral_width: f32,
}

/// A radial group of moment cells: all gates for one averaging group.
#[derive(Debug, Clone)]
pub struct MomentRadial {
    pub azimuth: f64,
    pub t: f64,
    pub cells: Vec<MomentCell>,
}

/// The moment field of one sector scan at a given averaging size.
#[derive(Debug, Clone)]
pub struct MomentScan {
    pub radials: Vec<MomentRadial>,
    pub averaging_size: usize,
    pub gate_spacing: f64,
}

impl MomentScan {
    /// Size of the moment data in bytes: 3 × f32 per cell (the paper's
    /// Table 1 column 2 metric).
    pub fn size_bytes(&self) -> usize {
        self.radials.iter().map(|r| r.cells.len() * 12).sum()
    }

    pub fn size_mb(&self) -> f64 {
        self.size_bytes() as f64 / 1.0e6
    }
}

/// Compute moment data from a sector scan's pulses, averaging over
/// non-overlapping groups of `n_avg` consecutive pulses.
pub fn compute_moments(pulses: &[Pulse], params: &RadarParams, n_avg: usize) -> MomentScan {
    assert!(n_avg >= 2, "pulse-pair needs at least 2 pulses");
    let gates = params
        .gates
        .min(pulses.first().map_or(0, |p| p.gates.len()));
    let mut radials = Vec::with_capacity(pulses.len() / n_avg);
    let vel_scale = params.wavelength * params.prf / (4.0 * std::f64::consts::PI);
    // Intra-item sample pair spacing is one PRT, same as pulse spacing.
    for group in pulses.chunks_exact(n_avg) {
        let az = group.iter().map(|p| p.azimuth).sum::<f64>() / n_avg as f64;
        let t = group.iter().map(|p| p.t).sum::<f64>() / n_avg as f64;
        let mut cells = Vec::with_capacity(gates);
        for g in 0..gates {
            let mut power = 0.0f64;
            let mut r1_re = 0.0f64;
            let mut r1_im = 0.0f64;
            for p in group {
                let v = p.gates[g];
                let (i0, q0, i1, q1) = (v[0] as f64, v[1] as f64, v[2] as f64, v[3] as f64);
                power += 0.5 * (i0 * i0 + q0 * q0 + i1 * i1 + q1 * q1);
                // conj(s0)·s1 accumulates the pulse-pair phase.
                r1_re += i0 * i1 + q0 * q1;
                r1_im += i0 * q1 - q0 * i1;
            }
            power /= n_avg as f64;
            let r1_mag = (r1_re * r1_re + r1_im * r1_im).sqrt() / n_avg as f64;
            let velocity = r1_im.atan2(r1_re) * vel_scale;
            let width = if r1_mag > 1e-12 && power > r1_mag {
                let ratio = (power / r1_mag).ln().max(0.0);
                (params.wavelength * params.prf / (2.0 * std::f64::consts::PI * 2f64.sqrt()))
                    * ratio.sqrt()
            } else {
                0.0
            };
            cells.push(MomentCell {
                azimuth: az,
                range: (g as f64 + 0.5) * params.gate_spacing,
                t,
                reflectivity: (10.0 * power.max(1e-12).log10()) as f32,
                velocity: velocity as f32,
                spectral_width: width as f32,
            });
        }
        radials.push(MomentRadial {
            azimuth: az,
            t,
            cells,
        });
    }
    MomentScan {
        radials,
        averaging_size: n_avg,
        gate_spacing: params.gate_spacing,
    }
}

/// Per-pulse instantaneous velocity series for one gate — the observed
/// sequence O₁..O_t that the §4.4 T operator models with an MA process.
pub fn per_pulse_velocity_series(pulses: &[Pulse], params: &RadarParams, gate: usize) -> Vec<f64> {
    let vel_scale = params.wavelength * params.prf / (4.0 * std::f64::consts::PI);
    pulses
        .iter()
        .filter_map(|p| {
            let v = p.gates.get(gate)?;
            let (i0, q0, i1, q1) = (v[0] as f64, v[1] as f64, v[2] as f64, v[3] as f64);
            let re = i0 * i1 + q0 * q1;
            let im = i0 * q1 - q0 * i1;
            Some(im.atan2(re) * vel_scale)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radar::RadarNode;
    use crate::weather::WeatherField;

    fn scan_with_wind(vx: f64) -> (Vec<Pulse>, RadarParams) {
        let mut field = WeatherField::quiet();
        field.ambient_wind = [vx, 0.0];
        field.cells[0].center = [5_000.0, 0.0];
        field.cells[0].motion = [0.0, 0.0];
        field.cells[0].peak_dbz = 55.0;
        let params = RadarParams {
            gates: 128,
            gate_spacing: 100.0,
            noise_sd: 0.05,
            phase_jitter: 0.1,
            ..Default::default()
        };
        let node = RadarNode::new(0, [0.0, 0.0], params);
        // Narrow sector across the +x axis.
        (node.sector_scan(&field, -0.02, 0.02, 0.0, 5), params)
    }

    #[test]
    fn velocity_estimate_matches_wind() {
        let (pulses, params) = scan_with_wind(8.0);
        let scan = compute_moments(&pulses, &params, 64);
        // Gates inside the storm (range ≈ 5 km ⇒ gate 50).
        let mut est = Vec::new();
        for r in &scan.radials {
            for c in &r.cells[45..55] {
                est.push(c.velocity as f64);
            }
        }
        let mean = est.iter().sum::<f64>() / est.len() as f64;
        assert!((mean - 8.0).abs() < 0.8, "velocity {mean:.2} m/s");
    }

    #[test]
    fn moment_size_scales_inversely_with_averaging() {
        let (pulses, params) = scan_with_wind(5.0);
        let s40 = compute_moments(&pulses, &params, 40);
        let s200 = compute_moments(&pulses, &params, 200);
        assert!(s40.size_bytes() > 4 * s200.size_bytes());
        assert_eq!(s40.averaging_size, 40);
        // Cells per radial = gates.
        assert_eq!(s40.radials[0].cells.len(), 128);
    }

    #[test]
    fn reflectivity_higher_inside_storm() {
        let (pulses, params) = scan_with_wind(5.0);
        let scan = compute_moments(&pulses, &params, 64);
        let r = &scan.radials[0];
        let storm = r.cells[50].reflectivity;
        let clear = r.cells[120].reflectivity;
        assert!(
            storm > clear + 10.0,
            "storm {storm:.1} vs clear {clear:.1} dB"
        );
    }

    #[test]
    fn spectral_width_nonnegative_and_larger_with_jitter() {
        let mut field = WeatherField::quiet();
        field.cells[0].center = [5_000.0, 0.0];
        field.cells[0].motion = [0.0, 0.0];
        field.cells[0].peak_dbz = 55.0;
        let mk = |jitter: f64, seed: u64| {
            let params = RadarParams {
                gates: 64,
                gate_spacing: 100.0,
                noise_sd: 0.05,
                phase_jitter: jitter,
                ..Default::default()
            };
            let node = RadarNode::new(0, [0.0, 0.0], params);
            let pulses = node.sector_scan(&field, -0.01, 0.01, 0.0, seed);
            let scan = compute_moments(&pulses, &params, 64);
            scan.radials[0].cells[49].spectral_width as f64
        };
        let narrow = mk(0.02, 6);
        let wide = mk(0.6, 6);
        assert!(narrow >= 0.0 && wide >= 0.0);
        assert!(
            wide > narrow,
            "jitter broadens the spectrum: {narrow} vs {wide}"
        );
    }

    #[test]
    fn per_pulse_series_has_correct_length_and_mean() {
        let (pulses, params) = scan_with_wind(6.0);
        let series = per_pulse_velocity_series(&pulses, &params, 50);
        assert_eq!(series.len(), pulses.len());
        let mean = series.iter().sum::<f64>() / series.len() as f64;
        assert!((mean - 6.0).abs() < 1.5, "noisy per-pulse mean {mean:.2}");
    }

    #[test]
    fn leftover_pulses_dropped_by_chunking() {
        let (pulses, params) = scan_with_wind(5.0);
        let n = pulses.len();
        let scan = compute_moments(&pulses, &params, 150);
        assert_eq!(scan.radials.len(), n / 150);
    }
}
