//! E2 — Table 2: "Algorithm comparison for performing sum over a tuple
//! stream. A tumbling window of size of 100 tuples is used for
//! aggregation."
//!
//! Three algorithms over identical windows of random-mixture inputs:
//! the histogram-based sampling baseline \[25\], exact CF inversion, and
//! CF approximation. Reports throughput (tuples/s) and the distance of
//! each output to the exact result distribution. The paper's column is
//! \[25\]'s "variance distance", whose formula the paper does not give;
//! this binary reports total-variation distance in its place (also in
//! [0, 1], zero iff equal), so its accuracy column is a TV distance.
//!
//! Run: `cargo run -p ustream-bench --release --bin table2`

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use ustream_bench::{print_table, table2_inputs};
use ustream_prob::cf::{cf_approx_auto, CfSum};
use ustream_prob::dist::Dist;
use ustream_prob::histogram::{histogram_sum, HistogramPdf};
use ustream_prob::metrics::tv_distance_grid;

const WINDOW: usize = 100;
/// Windows timed per algorithm.
const TIMED_WINDOWS: usize = 30;
/// Windows used for the accuracy column (inversion is slow; keep small).
const ACCURACY_WINDOWS: usize = 8;

/// Ge–Zdonik parameters: buckets per input pdf and samples per window.
const HIST_BUCKETS: usize = 100;
const HIST_SAMPLES: usize = 2_000;
/// Inversion resolution.
const INV_BINS: usize = 512;
const INV_SPAN: f64 = 8.0;

fn windows(n: usize, seed0: u64) -> Vec<Vec<Dist>> {
    (0..n)
        .map(|w| table2_inputs(WINDOW, seed0 + w as u64))
        .collect()
}

fn main() {
    println!("Reproducing Table 2 (window = {WINDOW} tuples, mixture-Gaussian inputs)");

    // --- Accuracy: compare each algorithm to the exact inversion. ---
    let acc_windows = windows(ACCURACY_WINDOWS, 1000);
    let mut rng = StdRng::seed_from_u64(77);
    let mut tv_hist = 0.0;
    let mut tv_approx = 0.0;
    for w in &acc_windows {
        let sum = CfSum::new(w.clone());
        let exact: HistogramPdf = sum.invert_to_histogram(1024, 10.0);
        let h = histogram_sum(w, HIST_BUCKETS, HIST_SAMPLES, 6.0, &mut rng);
        // Express the histogram output as a Dist-like comparison via its
        // own grid: reuse tv on a Gaussian moment-matched wrapper is
        // unfair; compare histogram pdf to exact directly.
        tv_hist += h.tv_distance(&exact);
        let approx = cf_approx_auto(&sum, 0.15, 0.5);
        tv_approx += tv_distance_grid(&approx, &exact);
    }
    tv_hist /= ACCURACY_WINDOWS as f64;
    tv_approx /= ACCURACY_WINDOWS as f64;

    // --- Throughput ---
    let tw = windows(TIMED_WINDOWS, 2000);

    let t0 = Instant::now();
    let mut rng2 = StdRng::seed_from_u64(78);
    for w in &tw {
        let h = histogram_sum(w, HIST_BUCKETS, HIST_SAMPLES, 6.0, &mut rng2);
        std::hint::black_box(h.mean());
    }
    let hist_tput = (TIMED_WINDOWS * WINDOW) as f64 / t0.elapsed().as_secs_f64();

    // Paper-literal inversion (one full integral per output point) —
    // this is Table 2's "CF (inversion)" contender. Time fewer windows;
    // it is deliberately the slow algorithm.
    let inv_windows = 4usize;
    let t0 = Instant::now();
    for w in tw.iter().take(inv_windows) {
        let sum = CfSum::new(w.clone());
        let h = sum.invert_pointwise(INV_BINS, INV_SPAN);
        std::hint::black_box(h.mean());
    }
    let inv_tput = (inv_windows * WINDOW) as f64 / t0.elapsed().as_secs_f64();

    // Our engineering improvement: sharing CF evaluations across the
    // output grid (reported as an extra row, not in the paper).
    let t0 = Instant::now();
    for w in &tw {
        let sum = CfSum::new(w.clone());
        let h = sum.invert_to_histogram(INV_BINS, INV_SPAN);
        std::hint::black_box(h.mean());
    }
    let inv_shared_tput = (TIMED_WINDOWS * WINDOW) as f64 / t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    for w in &tw {
        let sum = CfSum::new(w.clone());
        let d = cf_approx_auto(&sum, 0.15, 0.5);
        std::hint::black_box(&d);
    }
    let approx_tput = (TIMED_WINDOWS * WINDOW) as f64 / t0.elapsed().as_secs_f64();

    let rows = vec![
        vec![
            "Histogram [25]".to_string(),
            format!("{hist_tput:.0}"),
            format!("{tv_hist:.3}"),
        ],
        vec![
            "CF (inversion)".to_string(),
            format!("{inv_tput:.0}"),
            "0.000 (exact)".to_string(),
        ],
        vec![
            "CF (approx.)".to_string(),
            format!("{approx_tput:.0}"),
            format!("{tv_approx:.3}"),
        ],
        vec![
            "CF (inversion, shared grid)*".to_string(),
            format!("{inv_shared_tput:.0}"),
            "0.000 (exact)".to_string(),
        ],
    ];
    print_table(
        "Table 2 — SUM over a tuple stream (tumbling window of 100 tuples)",
        &[
            "Algorithm",
            "Throughput (tuples/s)",
            "Variance distance [0,1]",
        ],
        &rows,
    );

    println!("\n* extra row: our implementation can share CF evaluations across the");
    println!("  output grid, which is not one of the paper's contenders.");
    println!("\nPaper reference (absolute numbers differ; shape should hold):");
    println!(
        "  Histogram 3382 t/s @ 0.083 | CF inversion 466 t/s @ 0 | CF approx 10593 t/s @ 0.012"
    );
    println!("Shape checks:");
    println!(
        "  approx fastest: {} | inversion slowest: {} | approx more accurate than histogram: {}",
        approx_tput > hist_tput,
        inv_tput < hist_tput && inv_tput < approx_tput,
        tv_approx < tv_hist
    );
}
