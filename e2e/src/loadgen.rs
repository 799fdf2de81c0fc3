//! The seeded load generator.
//!
//! Every tuple is a pure function of `(seed, index)`: no generator state
//! survives between tuples, so two processes given the same seed build
//! byte-identical frames and a different seed changes every payload.
//! Frames are generated into a pool before any clock starts; inside a
//! timed region the sender only re-stamps timestamps ([`Pool::stamp`])
//! and calls `Client::publish`.
//!
//! **Event time.** Frame `k` carries event time `[100k, 100k + 100)` ms:
//! exactly one tumbling window. Reference tuples (the join workload's
//! second source) sit at `100k`; data tuples are spread over
//! `100k + 1 ..= 100k + 99`, so one publisher connection can ship the
//! reference frame and then the data frame in timestamp order and no two
//! sources ever tie (the engine's feed tiebreak is then irrelevant).
//! The first data tuple of frame `k` closes window `k - 1`, whose result
//! rows carry `ts = 100k` — [`closing_frame`] is that mapping.

use std::sync::Arc;
use ustream_core::{DataType, Lineage, Schema, Tuple, Updf, Value};
use ustream_prob::dist::{Dist, GaussianMixture};
use ustream_prob::histogram::HistogramPdf;
use ustream_prob::samples::WeightedSamples;

/// Tumbling window length and frame period, in event-time ms.
pub const WINDOW_MS: u64 = 100;
/// GROUP BY cardinality.
pub const GROUPS: u64 = 64;
/// Reference tuples per window (one per group).
pub const REFS_PER_WINDOW: usize = GROUPS as usize;
/// Groups below this index keep every payload far above the selection
/// threshold in `q1_mixed`, so existence stays 1 and the aggregate's
/// `Strategy::Auto` is reached; the rest straddle the threshold and take
/// the existence-thinned (moment-matched) path like `q1_gauss`.
pub const CERTAIN_GROUPS: u64 = 48;
/// Bins of a histogram payload / points of a weighted-sample payload.
const PAYLOAD_POINTS: usize = 24;

/// Payload mix of a data stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Payload {
    /// Parametric Gaussians only (the columnar fast path end to end).
    Gauss,
    /// Rotating Gaussian / 2–3 component mixture / histogram / weighted
    /// samples by `index % 4` (wire decode falls back to row columns).
    Mixed,
}

/// SplitMix64 finalizer over `(seed, index, lane)`: the only source of
/// randomness in the generator.
fn mix(seed: u64, index: u64, lane: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(lane.wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in `[0, 1)`.
fn unit(seed: u64, index: u64, lane: u64) -> f64 {
    (mix(seed, index, lane) >> 11) as f64 / (1u64 << 53) as f64
}

pub fn data_schema() -> Arc<Schema> {
    Schema::builder()
        .field("g", DataType::Int)
        .field("tag", DataType::Int)
        .field("x", DataType::Uncertain)
        .build()
}

pub fn ref_schema() -> Arc<Schema> {
    Schema::builder()
        .field("rid", DataType::Int)
        .field("gname", DataType::Str)
        .build()
}

/// The uncertain payload of data tuple `index`.
fn payload(kind: Payload, seed: u64, index: u64, group: u64) -> Updf {
    let u = |lane: u64| unit(seed, index, lane);
    // Location and scale of the payload: straddling groups put a good
    // part of their mass on either side of the threshold (x > 2).
    let certain = kind == Payload::Mixed && group < CERTAIN_GROUPS;
    let (centre, sd) = if certain {
        (10.0 + 3.0 * u(1), 0.3 + 0.5 * u(2))
    } else {
        (10.0 * u(1), 1.0 + 0.5 * u(2))
    };
    let shape = if kind == Payload::Gauss { 0 } else { index % 4 };
    match shape {
        0 => Updf::Parametric(Dist::gaussian(centre, sd)),
        1 => {
            let k = 2 + (u(3) < 0.5) as usize;
            let triples: Vec<(f64, f64, f64)> = (0..k as u64)
                .map(|c| {
                    (
                        0.2 + u(10 + c),
                        centre + (u(20 + c) - 0.5) * 2.0 * sd,
                        sd * (0.4 + 0.6 * u(30 + c)),
                    )
                })
                .collect();
            Updf::Parametric(Dist::Mixture(GaussianMixture::from_triples(&triples)))
        }
        2 => {
            let lo = centre - 2.0 * sd;
            let width = 4.0 * sd / PAYLOAD_POINTS as f64;
            let masses = (0..PAYLOAD_POINTS as u64)
                .map(|b| 0.05 + u(40 + b))
                .collect();
            Updf::Histogram(HistogramPdf::from_masses(lo, width, masses))
        }
        _ => {
            let xs = (0..PAYLOAD_POINTS as u64)
                .map(|p| centre + (u(70 + p) - 0.5) * 4.0 * sd)
                .collect();
            let ws = (0..PAYLOAD_POINTS as u64)
                .map(|p| 0.1 + u(100 + p))
                .collect();
            Updf::Samples(WeightedSamples::new(xs, ws))
        }
    }
}

/// Data tuple `index` of stream `(kind, seed)`. The timestamp is a
/// placeholder until [`Pool::stamp`]; the lineage id is `index + 1`
/// (deterministic, unlike `Tuple::new`'s process-global counter).
pub fn data_tuple(schema: &Arc<Schema>, kind: Payload, seed: u64, index: u64) -> Tuple {
    let group = mix(seed, index, 0) % GROUPS;
    Tuple::derived(
        schema.clone(),
        vec![
            Value::Int(group as i64),
            Value::Int((mix(seed, index, 4) % 17) as i64),
            Value::from(payload(kind, seed, index, group)),
        ],
        0,
        1.0,
        Lineage::base(index + 1),
    )
}

/// Reference tuple `j` (one per group; certain attributes only).
fn ref_tuple(schema: &Arc<Schema>, j: u64) -> Tuple {
    Tuple::derived(
        schema.clone(),
        vec![
            Value::Int(j as i64),
            // The aggregate renders its group key with `{:?}`.
            Value::from(format!("Int({j})")),
        ],
        0,
        1.0,
        // Disjoint from every data tuple's lineage id.
        Lineage::base(u64::MAX - j),
    )
}

/// Pre-generated frames, cycled and re-stamped by the sender.
pub struct Pool {
    frames: Vec<Vec<Tuple>>,
    refs: Option<Vec<Tuple>>,
}

/// Which index lane a pool draws from, so the saturate and paced pools
/// of one seed share no tuple.
#[derive(Debug, Clone, Copy)]
pub enum Lane {
    Saturate = 0,
    Paced = 1,
}

impl Pool {
    /// `frames` data frames of `frame_len` tuples each, plus one
    /// reference frame when `with_refs`.
    pub fn generate(
        kind: Payload,
        seed: u64,
        lane: Lane,
        frames: usize,
        frame_len: usize,
        with_refs: bool,
    ) -> Pool {
        let schema = data_schema();
        let base = (lane as u64) << 40;
        let frames = (0..frames)
            .map(|f| {
                (0..frame_len)
                    .map(|j| data_tuple(&schema, kind, seed, base + (f * frame_len + j) as u64))
                    .collect()
            })
            .collect();
        let refs = with_refs.then(|| {
            let schema = ref_schema();
            (0..REFS_PER_WINDOW as u64)
                .map(|j| ref_tuple(&schema, j))
                .collect()
        });
        Pool { frames, refs }
    }

    pub fn frame_len(&self) -> usize {
        self.frames[0].len()
    }

    pub fn has_refs(&self) -> bool {
        self.refs.is_some()
    }

    /// Tuples one frame index publishes (data + reference).
    pub fn tuples_per_frame(&self) -> usize {
        self.frame_len() + self.refs.as_ref().map_or(0, Vec::len)
    }

    /// Re-stamp the tuples frame `k` ships and hand them out:
    /// `(reference frame, data frame)`. This is all the sender does to
    /// its inputs inside a timed region.
    pub fn stamp(&mut self, k: u64) -> (Option<&[Tuple]>, &[Tuple]) {
        let base = k * WINDOW_MS;
        if let Some(refs) = &mut self.refs {
            for t in refs.iter_mut() {
                t.ts = base;
            }
        }
        let n = self.frames.len();
        let frame = &mut self.frames[(k % n as u64) as usize];
        let len = frame.len() as u64;
        for (j, t) in frame.iter_mut().enumerate() {
            t.ts = base + 1 + (j as u64 * (WINDOW_MS - 1)) / len;
        }
        (self.refs.as_deref(), frame)
    }
}

/// The frame whose first data tuple closes the window that result rows
/// stamped `result_ts` belong to (`None` for rows no frame can close:
/// `ts = 0` never occurs).
pub fn closing_frame(result_ts: u64) -> Option<u64> {
    (result_ts >= WINDOW_MS && result_ts.is_multiple_of(WINDOW_MS)).then_some(result_ts / WINDOW_MS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(pool: &mut Pool, k: u64) -> String {
        let (refs, data) = pool.stamp(k);
        format!("{refs:?}{data:?}")
    }

    #[test]
    fn same_seed_same_frames_different_seed_different() {
        for kind in [Payload::Gauss, Payload::Mixed] {
            let mut a = Pool::generate(kind, 7, Lane::Saturate, 3, 32, true);
            let mut b = Pool::generate(kind, 7, Lane::Saturate, 3, 32, true);
            let mut c = Pool::generate(kind, 8, Lane::Saturate, 3, 32, true);
            for k in 0..5 {
                let ra = render(&mut a, k);
                assert_eq!(ra, render(&mut b, k));
                assert_ne!(ra, render(&mut c, k));
            }
        }
    }

    #[test]
    fn lanes_share_no_payload() {
        let mut a = Pool::generate(Payload::Gauss, 7, Lane::Saturate, 1, 16, false);
        let mut b = Pool::generate(Payload::Gauss, 7, Lane::Paced, 1, 16, false);
        assert_ne!(render(&mut a, 0), render(&mut b, 0));
    }

    #[test]
    fn stamps_are_window_aligned_and_ordered() {
        let mut pool = Pool::generate(Payload::Gauss, 1, Lane::Paced, 2, 500, true);
        let mut last = 0;
        for k in 0..4u64 {
            let (refs, data) = pool.stamp(k);
            for t in refs.unwrap() {
                assert_eq!(t.ts, k * WINDOW_MS);
            }
            assert!(refs.unwrap()[0].ts >= last);
            assert_eq!(data[0].ts, k * WINDOW_MS + 1);
            for w in data.windows(2) {
                assert!(w[0].ts <= w[1].ts);
            }
            last = data.last().unwrap().ts;
            assert!(last < (k + 1) * WINDOW_MS);
        }
    }

    #[test]
    fn window_maps_to_the_frame_that_closes_it() {
        // Window k = [100k, 100k+100) emits rows stamped 100(k+1); the
        // first tuple of frame k+1 is what closes it.
        assert_eq!(closing_frame(100), Some(1));
        assert_eq!(closing_frame(2_000), Some(20));
        assert_eq!(closing_frame(0), None);
        assert_eq!(closing_frame(150), None);
    }

    #[test]
    fn certain_groups_sit_far_above_the_threshold() {
        let schema = data_schema();
        for index in 0..2_000u64 {
            let t = data_tuple(&schema, Payload::Mixed, 3, index);
            let g = t.int("g").unwrap() as u64;
            let p = t.updf("x").unwrap().prob_above(2.0);
            if g < CERTAIN_GROUPS {
                assert!(p >= 1.0 - 1e-12, "index {index}: P(x>2) = {p}");
            }
        }
    }
}
