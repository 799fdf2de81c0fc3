//! Harness-side span recorder and the per-layer budget.
//!
//! Spans are recorded from the benchmark's own code, around each call
//! into a layer of the system (`client.publish`, `wire.decode_rows`,
//! `runtime.push`, …): `{name, start, end, parent, frame}`. They stay in
//! memory and are written once, at exit. A span's **self time** is its
//! duration minus the part its children cover; a layer's self time is
//! the sum over the spans whose name starts with `<layer>.`.
//!
//! One [`Recorder`] per thread (no locks on the timed path);
//! [`Recorder::absorb`] merges them before the file is written.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Spans kept per recorder; beyond this they are counted, not stored.
const MAX_SPANS: usize = 400_000;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// The frame (or scan) the span belongs to: spans of one request
    /// share it.
    pub frame: u64,
}

pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    dropped: u64,
}

impl Recorder {
    /// A recorder measuring from `epoch`; a disabled one records
    /// nothing and never reads the clock.
    pub fn new(epoch: Instant, enabled: bool) -> Recorder {
        Recorder {
            epoch,
            enabled,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// The instant span times count from; recorders to be merged share it.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; the id it returns (none when nothing is recorded)
    /// closes it and parents its children.
    pub fn enter(&mut self, name: &'static str, parent: Option<u32>, frame: u64) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            frame,
        });
        Some(self.spans.len() as u32 - 1)
    }

    pub fn exit(&mut self, open: Option<u32>) {
        if let Some(id) = open {
            self.spans[id as usize].end_ns = self.now();
        }
    }

    /// Record `f` as one span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        frame: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.enter(name, parent, frame);
        let out = f();
        self.exit(open);
        out
    }

    /// Append another thread's spans (same epoch), re-basing their
    /// parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len() as u32;
        self.dropped += other.dropped;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON document.
    pub fn write_json(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            w,
            "{{\"workload\":\"{workload}\",\"dropped_spans\":{},\"spans\":[",
            self.dropped
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                w.write_all(b",")?;
            }
            write!(
                w,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"frame\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.frame
            )?;
        }
        w.write_all(b"\n]}\n")?;
        w.flush()
    }
}

/// Self time per span: duration minus what its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans
        .iter()
        .map(|s| s.end_ns.saturating_sub(s.start_ns))
        .collect();
    for s in spans {
        if let Some(p) = s.parent {
            let d = s.end_ns.saturating_sub(s.start_ns);
            own[p as usize] = own[p as usize].saturating_sub(d);
        }
    }
    own
}

/// Self time summed per layer (the part of the name before the dot),
/// over spans whose name starts with `scope`.
pub fn layer_self_ns(spans: &[Span], scope: &str) -> BTreeMap<&'static str, u64> {
    let own = self_times(spans);
    let mut layers = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        if let Some(rest) = s.name.strip_prefix(scope) {
            let layer = &rest[..rest.find('.').unwrap_or(rest.len())];
            *layers.entry(layer).or_insert(0) += ns;
        }
    }
    layers
}

/// One served workload's budget: each layer's self time, their sum, the
/// wall-clock whole, and the residual nobody's work explains.
#[derive(Debug, Clone, PartialEq)]
pub struct Budget {
    /// `(layer, self seconds)`.
    pub parts: Vec<(String, f64)>,
    pub whole_s: f64,
}

impl Budget {
    pub fn explained_s(&self) -> f64 {
        self.parts.iter().map(|(_, s)| s).sum()
    }

    /// Wall time no layer's work accounts for: channel hops, socket
    /// waits, the k-way merge, scheduling. May be negative when layers
    /// overlap on separate cores.
    pub fn residual_s(&self) -> f64 {
        self.whole_s - self.explained_s()
    }

    pub fn unexplained_frac(&self) -> f64 {
        self.residual_s() / self.whole_s
    }

    pub fn render(&self, title: &str) -> String {
        let mut out = format!("budget: {title}\n");
        let pct = |s: f64| 100.0 * s / self.whole_s;
        for (layer, s) in &self.parts {
            out += &format!("  {layer:<22}{:>12.3} ms{:>8.2} %\n", s * 1e3, pct(*s));
        }
        let sum = self.explained_s();
        out += &format!(
            "  {:<22}{:>12.3} ms{:>8.2} %\n",
            "sum of layers",
            sum * 1e3,
            pct(sum)
        );
        out += &format!(
            "  {:<22}{:>12.3} ms{:>8.2} %\n",
            "residual (waiting)",
            self.residual_s() * 1e3,
            pct(self.residual_s())
        );
        out += &format!(
            "  {:<22}{:>12.3} ms{:>8.2} %\n",
            "wall-clock whole",
            self.whole_s * 1e3,
            100.0
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            frame: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span("replay.frame", 0, 100, None),
            span("replay.wire.decode_rows", 10, 40, Some(0)),
            span("replay.runtime.push", 40, 90, Some(0)),
            span("replay.core.columnarize", 45, 55, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 40, 10]);
        let layers = layer_self_ns(&spans, "replay.");
        assert_eq!(layers["wire"], 30);
        assert_eq!(layers["runtime"], 40);
        assert_eq!(layers["core"], 10);
        assert_eq!(layers["frame"], 20);
    }

    #[test]
    fn budget_parts_plus_residual_equal_the_whole() {
        let b = Budget {
            parts: vec![("wire".into(), 0.25), ("core".into(), 0.5)],
            whole_s: 2.0,
        };
        assert!((b.explained_s() + b.residual_s() - b.whole_s).abs() < 1e-12);
        assert!((b.unexplained_frac() - 0.625).abs() < 1e-12);
        assert!(b.render("x").contains("residual"));
    }

    #[test]
    fn disabled_recorder_records_nothing_and_absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut off = Recorder::new(epoch, false);
        let o = off.enter("a.b", None, 1);
        off.exit(o);
        assert!(off.spans().is_empty());

        let mut a = Recorder::new(epoch, true);
        a.span("a.x", None, 0, || ());
        let mut b = Recorder::new(epoch, true);
        let root = b.enter("b.root", None, 1);
        b.span("b.child", root, 1, || ());
        b.exit(root);
        a.absorb(b);
        assert_eq!(a.spans().len(), 3);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
