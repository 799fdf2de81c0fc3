//! Streaming result digests: O(windows) memory however long the feed.
//!
//! Every result row is reduced to a 64-bit fingerprint of its **full**
//! content — timestamp, existence bits, lineage ids and the `Debug`
//! rendering of its values (which prints every float digit) — and the
//! rows of one result timestamp are folded into a commutative window
//! digest. Order inside a window is not compared: the single pipeline
//! streams rows in arrival order, the sharded session in canonical
//! order, and `run_batched` in its own; all three agree on the set.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use ustream_core::Tuple;

/// One result timestamp's rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    pub rows: u64,
    /// Wrapping sum of the rows' mixed fingerprints.
    pub digest: u64,
}

/// FNV-1a, then a SplitMix finalizer so that the commutative fold does
/// not cancel structured differences.
fn fingerprint(t: &Tuple, scratch: &mut String) -> u64 {
    scratch.clear();
    write!(scratch, "{:?}", t.values()).expect("string write");
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(&t.ts.to_le_bytes());
    eat(&t.existence.to_bits().to_le_bytes());
    for id in t.lineage.ids() {
        eat(&id.to_le_bytes());
    }
    eat(scratch.as_bytes());
    let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Digest of a result stream, keyed by result timestamp, with the
/// arrival time of each timestamp's last row.
#[derive(Default)]
pub struct StreamDigest {
    windows: BTreeMap<u64, (Window, Instant)>,
    scratch: String,
}

impl StreamDigest {
    /// Fold in rows that arrived at `at`.
    pub fn feed(&mut self, rows: &[Tuple], at: Instant) {
        for t in rows {
            let fp = fingerprint(t, &mut self.scratch);
            let entry = self
                .windows
                .entry(t.ts)
                .or_insert((Window { rows: 0, digest: 0 }, at));
            entry.0.rows += 1;
            entry.0.digest = entry.0.digest.wrapping_add(fp);
            entry.1 = at;
        }
    }

    #[cfg(test)]
    pub fn rows(&self) -> u64 {
        self.windows.values().map(|(w, _)| w.rows).sum()
    }

    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// `(result ts, window, arrival of its last row)`, ascending by ts.
    pub fn iter(&self) -> impl Iterator<Item = (u64, Window, Instant)> + '_ {
        self.windows.iter().map(|(&ts, &(w, at))| (ts, w, at))
    }

    pub fn get(&self, ts: u64) -> Option<Window> {
        self.windows.get(&ts).map(|(w, _)| *w)
    }
}

/// Result of holding a live stream against a reference.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Mismatch {
    /// Result windows compared.
    pub windows: u64,
    /// Windows missing on either side or differing in digest.
    pub bad_windows: u64,
    /// Rows in those windows (the larger side's count).
    pub bad_rows: u64,
}

/// Compare every window with `ts <= upto` (all when `None`) of `live`
/// against `reference`, both ways.
pub fn compare(live: &StreamDigest, reference: &StreamDigest, upto: Option<u64>) -> Mismatch {
    let within = |ts: u64| upto.is_none_or(|u| ts <= u);
    let mut m = Mismatch::default();
    for (ts, want, _) in reference.iter().filter(|(ts, ..)| within(*ts)) {
        m.windows += 1;
        match live.get(ts) {
            Some(got) if got == want => {}
            Some(got) => {
                m.bad_windows += 1;
                m.bad_rows += got.rows.max(want.rows);
            }
            None => {
                m.bad_windows += 1;
                m.bad_rows += want.rows;
            }
        }
    }
    for (ts, got, _) in live.iter().filter(|(ts, ..)| within(*ts)) {
        if reference.get(ts).is_none() {
            m.windows += 1;
            m.bad_windows += 1;
            m.bad_rows += got.rows;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::{data_schema, data_tuple, Payload};

    fn rows(seed: u64, n: u64, ts: u64) -> Vec<Tuple> {
        let schema = data_schema();
        (0..n)
            .map(|i| {
                let mut t = data_tuple(&schema, Payload::Mixed, seed, i);
                t.ts = ts;
                t
            })
            .collect()
    }

    #[test]
    fn order_inside_a_window_does_not_matter_content_does() {
        let now = Instant::now();
        let mut a = StreamDigest::default();
        let mut b = StreamDigest::default();
        let mut r = rows(1, 20, 100);
        a.feed(&r, now);
        r.reverse();
        // Split across two arrivals, reversed.
        b.feed(&r[..7], now);
        b.feed(&r[7..], now);
        assert_eq!(
            compare(&a, &b, None),
            Mismatch {
                windows: 1,
                ..Default::default()
            }
        );

        let mut c = StreamDigest::default();
        let mut changed = rows(1, 20, 100);
        changed[3].existence = 0.999_999_999;
        c.feed(&changed, now);
        let m = compare(&a, &c, None);
        assert_eq!((m.bad_windows, m.bad_rows), (1, 20));
    }

    #[test]
    fn missing_and_extra_windows_count_and_prefix_limits_scope() {
        let now = Instant::now();
        let mut live = StreamDigest::default();
        let mut reference = StreamDigest::default();
        live.feed(&rows(1, 4, 100), now);
        live.feed(&rows(2, 4, 300), now);
        reference.feed(&rows(1, 4, 100), now);
        reference.feed(&rows(3, 5, 200), now);
        let m = compare(&live, &reference, None);
        assert_eq!((m.windows, m.bad_windows, m.bad_rows), (3, 2, 9));
        assert_eq!(compare(&live, &reference, Some(100)).bad_windows, 0);
    }
}
