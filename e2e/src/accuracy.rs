//! Are the emitted distributions right? — `accuracy_err` for the served
//! workloads, and the direct `prob` timings of the traced run.
//!
//! Byte-equality to `run_batched` proves the serving path agrees with
//! the reference executor; it cannot tell whether the reference's SUM
//! distribution is any good. So a fixed sample of windows is also held
//! against a Monte-Carlo ground truth drawn from the *inputs*: for one
//! group-window, `Σ Bᵢ·(a·Xᵢ + b)` over the members the selection keeps,
//! with `Xᵢ` drawn from the member's own payload (Gaussian, mixture,
//! histogram or weighted samples) and `Bᵢ ~ Bernoulli(P(Xᵢ > 2))` drawn
//! independently — the engine's documented semantics for a selection
//! without conditioning. The metric is the mean total-variation
//! distance (`prob::metrics::tv_distance_grid`) between the emitted
//! `total` and the histogram of those draws. It is a pure function of
//! `--seed`: a change that trades accuracy for speed moves it exactly.

use crate::loadgen::{Pool, CERTAIN_GROUPS, GROUPS, WINDOW_MS};
use crate::replay::ENGINE_BATCH;
use crate::workloads::{Served, PROJECT_A, PROJECT_B, SELECT_MIN_PROB, SELECT_THRESHOLD};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};
use ustream_core::{ConversionPolicy, Tuple, Updf};
use ustream_prob::cf::{cf_approx_auto, CfSum};
use ustream_prob::convolve::exact_sum;
use ustream_prob::dist::Dist;
use ustream_prob::histogram::histogram_from_samples;
use ustream_prob::metrics::tv_distance_grid;

/// Windows sampled (frames `0..16` of the closed-loop pool).
pub const ACCURACY_WINDOWS: u64 = 16;
/// Every fourth group is sampled: on `q1_mixed` twelve of the
/// always-selected kind and four straddling the threshold (its 48:16
/// split); on the Gaussian workloads all sixteen straddle.
const ACCURACY_GROUP_STEP: usize = 4;
/// Monte-Carlo draws per group-window, and bins of their histogram.
const DRAWS: usize = 10_000;
const BINS: usize = 48;

/// The members of one group-window as the aggregate sees them: the
/// projected payload and the existence the selection left.
struct Member {
    y: Updf,
    existence: f64,
}

/// Apply Q1's selection and projection to one frame's tuples of `group`.
fn members(frame: &[Tuple], group: u64) -> Vec<Member> {
    frame
        .iter()
        .filter(|t| t.int("g").expect("data schema") as u64 == group)
        .filter_map(|t| {
            let x = t.updf("x").expect("data schema");
            let p = x.prob_above(SELECT_THRESHOLD);
            (p >= SELECT_MIN_PROB).then(|| Member {
                y: x.affine(PROJECT_A, PROJECT_B),
                existence: p.min(1.0),
            })
        })
        .collect()
}

fn draw(u: &Updf, rng: &mut StdRng) -> f64 {
    match u {
        Updf::Parametric(d) => d.sample(rng),
        Updf::Histogram(h) => h.sample(rng),
        Updf::Samples(s) => s.sample(rng),
        Updf::Mv(_) | Updf::MvSamples(_) => unreachable!("scalar payloads only"),
    }
}

/// Mean TV distance of the emitted SUMs to Monte-Carlo ground truth
/// over the sampled group-windows, and how many were compared.
pub fn sum_tv_distance(w: &Served, pool: &mut Pool, seed: u64) -> Result<(f64, usize), String> {
    let mut frames: Vec<Vec<Tuple>> = Vec::new();
    for k in 0..ACCURACY_WINDOWS {
        frames.push(pool.stamp(k).1.to_vec());
    }
    let feed: Vec<Tuple> = frames.iter().flatten().cloned().collect();
    let mut graph = w.q1_graph();
    let out = graph
        .run_batched(vec![("in".to_string(), 0, feed)], ENGINE_BATCH)
        .map_err(|e| format!("accuracy run: {e}"))?;
    let rows: Vec<&Tuple> = out.values().flatten().collect();

    let mut total = 0.0;
    let mut compared = 0usize;
    for (k, frame) in frames.iter().enumerate() {
        for group in (0..GROUPS).step_by(ACCURACY_GROUP_STEP) {
            let members = members(frame, group);
            if members.is_empty() {
                continue;
            }
            let name = format!("Int({group})");
            let start = k as u64 * WINDOW_MS;
            let row = rows
                .iter()
                .find(|r| {
                    r.str("group").is_ok_and(|g| g == name)
                        && r.get("window_start")
                            .is_ok_and(|v| v.as_time() == Some(start))
                })
                .ok_or_else(|| format!("no result row for group {group} of window {k}"))?;
            let emitted = match row.updf("total").map_err(|e| e.to_string())? {
                Updf::Parametric(d) => d.clone(),
                other => return Err(format!("SUM emitted as {other:?}, expected parametric")),
            };
            let mut rng = StdRng::seed_from_u64(seed ^ ((k as u64) << 32) ^ (group << 8) ^ 0xACC);
            let sums: Vec<f64> = (0..DRAWS)
                .map(|_| {
                    members
                        .iter()
                        .map(|m| {
                            let y = draw(&m.y, &mut rng);
                            if m.existence >= 1.0 || rng.gen::<f64>() < m.existence {
                                y
                            } else {
                                0.0
                            }
                        })
                        .sum()
                })
                .collect();
            total += tv_distance_grid(&emitted, &histogram_from_samples(&sums, BINS));
            compared += 1;
        }
    }
    if compared == 0 {
        return Err("no group-window to compare".into());
    }
    Ok((total / compared as f64, compared))
}

/// Direct timing of the SUM path the aggregate's `Strategy::Auto` takes
/// in `prob` — `exact_sum`, else `CfSum` + `cf_approx_auto` — on this
/// workload's own group-windows: `(ns per group-window that reached
/// prob, share of all group-windows that left closed form)`. Workloads
/// whose aggregate never calls into `prob` (CLT over existence-thinned
/// Gaussians) report zero work.
pub fn prob_sum_path(w: &Served, pool: &mut Pool, budget: Duration) -> (f64, f64) {
    if w.payload != crate::loadgen::Payload::Mixed {
        return (0.0, 0.0);
    }
    let policy = ConversionPolicy::FitGaussian;
    let started = Instant::now();
    let (mut all, mut reached, mut fallback, mut busy) = (0u64, 0u64, 0u64, Duration::ZERO);
    let mut k = 0;
    while started.elapsed() < budget {
        let frame = pool.stamp(k).1.to_vec();
        k += 1;
        for group in 0..GROUPS {
            let members = members(&frame, group);
            if members.is_empty() {
                continue;
            }
            all += 1;
            if group >= CERTAIN_GROUPS || members.iter().any(|m| m.existence < 1.0 - 1e-12) {
                continue; // existence-thinned: moment matching, no prob call
            }
            let dists: Vec<Dist> = members.iter().map(|m| m.y.to_dist(&policy)).collect();
            reached += 1;
            let t0 = Instant::now();
            let left_closed_form = match exact_sum(&dists) {
                Some(d) => {
                    std::hint::black_box(d);
                    false
                }
                None => {
                    std::hint::black_box(cf_approx_auto(&CfSum::new(dists), 0.3, 1.0));
                    true
                }
            };
            busy += t0.elapsed();
            fallback += left_closed_form as u64;
        }
    }
    (
        busy.as_nanos() as f64 / reached.max(1) as f64,
        fallback as f64 / all.max(1) as f64,
    )
}
