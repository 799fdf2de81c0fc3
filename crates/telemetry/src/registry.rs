//! The metrics registry: names to handles, snapshots, text exposition.
//!
//! A metric is identified by a *family* (e.g.
//! `engine_operator_tuples_in_total`) plus a label set (e.g.
//! `op="select", node="0"`). Registration hands back a cheap cloneable
//! handle; the hot path only ever touches the handle's atomics — the
//! registry lock guards registration and snapshotting, which happen at
//! setup time and on scrape.
//!
//! Handles created elsewhere (e.g. a session that instruments itself
//! before any server exists) can be *adopted* under a name with the
//! `adopt_*` methods, so one set of atomics serves both the local
//! accessor API and the registry's wire/text surface.

use crate::metric::{Counter, Gauge, Histogram, HistogramSnapshot};
use crate::sketch::{QuantileSketch, SketchSnapshot};
use std::sync::{Arc, Mutex, MutexGuard};

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
    Sketch(QuantileSketch),
    /// A read-time merge of several live sketches
    /// ([`QuantileSketch::merged`]): one summary series over e.g. every
    /// stage's lag sketch, with no write-path coordination.
    Merged(Vec<QuantileSketch>),
}

#[derive(Debug, Clone)]
struct Entry {
    family: String,
    labels: Vec<(String, String)>,
    metric: Metric,
}

/// A registry handle; `Clone` shares the underlying table.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    entries: Arc<Mutex<Vec<Entry>>>,
    /// Per-family `# HELP` text for the exposition.
    help: Arc<Mutex<Vec<(String, String)>>>,
}

/// One metric's point-in-time value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(i64),
    Histogram(HistogramSnapshot),
    Sketch(SketchSnapshot),
}

/// One named metric in a registry snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    pub family: String,
    pub labels: Vec<(String, String)>,
    pub value: MetricValue,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Entry>> {
        self.entries.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn find_or_insert<T: Clone>(
        &self,
        family: &str,
        labels: &[(&str, &str)],
        extract: impl Fn(&Metric) -> Option<T>,
        make: impl FnOnce() -> (T, Metric),
    ) -> T {
        debug_assert!(valid_family(family), "invalid metric family {family:?}");
        let mut entries = self.lock();
        if let Some(e) = entries
            .iter()
            .find(|e| e.family == family && label_eq(&e.labels, labels))
        {
            if let Some(t) = extract(&e.metric) {
                return t;
            }
            panic!("metric {family:?} re-registered with a different kind");
        }
        let (handle, metric) = make();
        entries.push(Entry {
            family: family.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            metric,
        });
        handle
    }

    /// Get or register an unlabeled counter.
    pub fn counter(&self, family: &str) -> Counter {
        self.counter_with(family, &[])
    }

    /// Get or register a labeled counter.
    pub fn counter_with(&self, family: &str, labels: &[(&str, &str)]) -> Counter {
        self.find_or_insert(
            family,
            labels,
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
            || {
                let c = Counter::new();
                (c.clone(), Metric::Counter(c))
            },
        )
    }

    /// Get or register an unlabeled gauge.
    pub fn gauge(&self, family: &str) -> Gauge {
        self.gauge_with(family, &[])
    }

    /// Get or register a labeled gauge.
    pub fn gauge_with(&self, family: &str, labels: &[(&str, &str)]) -> Gauge {
        self.find_or_insert(
            family,
            labels,
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
            || {
                let g = Gauge::new();
                (g.clone(), Metric::Gauge(g))
            },
        )
    }

    /// Get or register a labeled histogram (default latency layout).
    pub fn histogram_with(&self, family: &str, labels: &[(&str, &str)]) -> Histogram {
        self.find_or_insert(
            family,
            labels,
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
            || {
                let h = Histogram::latency_ns();
                (h.clone(), Metric::Histogram(h))
            },
        )
    }

    /// Get or register a labeled quantile sketch.
    pub fn sketch_with(&self, family: &str, labels: &[(&str, &str)]) -> QuantileSketch {
        self.find_or_insert(
            family,
            labels,
            |m| match m {
                Metric::Sketch(s) => Some(s.clone()),
                _ => None,
            },
            || {
                let s = QuantileSketch::new();
                (s.clone(), Metric::Sketch(s))
            },
        )
    }

    /// Register an existing counter handle under a name (idempotent
    /// when the same cell is already registered under that name).
    pub fn adopt_counter(&self, family: &str, labels: &[(&str, &str)], handle: &Counter) {
        let h = handle.clone();
        self.find_or_insert(
            family,
            labels,
            |m| match m {
                Metric::Counter(c) if c.same_cell(handle) => Some(()),
                _ => None,
            },
            move || ((), Metric::Counter(h)),
        );
    }

    /// Register an existing gauge handle under a name.
    pub fn adopt_gauge(&self, family: &str, labels: &[(&str, &str)], handle: &Gauge) {
        let h = handle.clone();
        self.find_or_insert(
            family,
            labels,
            |m| match m {
                Metric::Gauge(g) if g.same_cell(handle) => Some(()),
                _ => None,
            },
            move || ((), Metric::Gauge(h)),
        );
    }

    /// Register an existing sketch handle under a name.
    pub fn adopt_sketch(&self, family: &str, labels: &[(&str, &str)], handle: &QuantileSketch) {
        let h = handle.clone();
        self.find_or_insert(
            family,
            labels,
            |m| match m {
                Metric::Sketch(s) if s.same_cell(handle) => Some(()),
                _ => None,
            },
            move || ((), Metric::Sketch(h)),
        );
    }

    /// Register a read-time merged view over several live sketches
    /// (e.g. every stage's watermark-lag sketch as one cross-stage
    /// summary). Snapshots fold the parts with
    /// [`QuantileSketch::merged`]; the parts keep recording
    /// independently. Idempotent for the same cells in the same order.
    pub fn adopt_merged_sketch(
        &self,
        family: &str,
        labels: &[(&str, &str)],
        parts: &[QuantileSketch],
    ) {
        assert!(!parts.is_empty(), "merged sketch needs at least one part");
        let owned: Vec<QuantileSketch> = parts.to_vec();
        self.find_or_insert(
            family,
            labels,
            |m| match m {
                Metric::Merged(have)
                    if have.len() == parts.len()
                        && have.iter().zip(parts).all(|(a, b)| a.same_cell(b)) =>
                {
                    Some(())
                }
                _ => None,
            },
            move || ((), Metric::Merged(owned)),
        );
    }

    /// Attach `# HELP` text to a family for the text exposition.
    /// Families without help render their own name as the help line.
    pub fn set_help(&self, family: &str, help: &str) {
        let mut table = self.help.lock().unwrap_or_else(|p| p.into_inner());
        match table.iter_mut().find(|(f, _)| f == family) {
            Some((_, h)) => *h = help.to_string(),
            None => table.push((family.to_string(), help.to_string())),
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// A point-in-time copy of every registered metric, sorted by
    /// family then labels (stable across calls, friendly to diffing
    /// and to the wire encoding).
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let mut out: Vec<MetricSnapshot> = self
            .lock()
            .iter()
            .map(|e| MetricSnapshot {
                family: e.family.clone(),
                labels: e.labels.clone(),
                value: match &e.metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    Metric::Sketch(s) => MetricValue::Sketch(s.snapshot()),
                    Metric::Merged(parts) => {
                        let mut it = parts.iter();
                        let first = it.next().expect("merged sketch non-empty").clone();
                        let merged = it.fold(first, |acc, part| QuantileSketch::merged(&acc, part));
                        MetricValue::Sketch(merged.snapshot())
                    }
                },
            })
            .collect();
        out.sort_by(|a, b| (&a.family, &a.labels).cmp(&(&b.family, &b.labels)));
        out
    }

    /// Prometheus-style text exposition of the whole registry:
    /// counters and gauges as single samples, histograms as cumulative
    /// `_bucket{le=...}` series plus `_sum`/`_count`, sketches as
    /// summary `{quantile=...}` series plus `_count`. Sketch extremes
    /// ride along as `_min`/`_max` gauges. Conforms to the exposition
    /// format: `# HELP` then `# TYPE` once per family (help text set
    /// via [`MetricsRegistry::set_help`], defaulting to the family
    /// name), label values escaped, and non-finite floats rendered as
    /// `+Inf`/`-Inf`/`NaN`.
    pub fn render_text(&self) -> String {
        let help_table = self.help.lock().unwrap_or_else(|p| p.into_inner()).clone();
        let mut out = String::new();
        let mut last_family: Option<String> = None;
        for m in self.snapshot() {
            let kind = match &m.value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "histogram",
                MetricValue::Sketch(_) => "summary",
            };
            let family = m.family.clone();
            if last_family.as_ref() != Some(&family) {
                let help = help_table
                    .iter()
                    .find(|(f, _)| *f == family)
                    .map(|(_, h)| h.as_str())
                    .unwrap_or(family.as_str());
                out.push_str(&format!("# HELP {family} {}\n", escape_help(help)));
                out.push_str(&format!("# TYPE {family} {kind}\n"));
                last_family = Some(family.clone());
            }
            match &m.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("{}{} {v}\n", m.family, label_str(&m.labels, &[])));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("{}{} {v}\n", m.family, label_str(&m.labels, &[])));
                }
                MetricValue::Histogram(h) => {
                    let mut cum = 0u64;
                    for (bound, count) in &h.buckets {
                        cum += count;
                        out.push_str(&format!(
                            "{}_bucket{} {cum}\n",
                            m.family,
                            label_str(&m.labels, &[("le", &bound.to_string())])
                        ));
                    }
                    cum += h.overflow;
                    out.push_str(&format!(
                        "{}_bucket{} {cum}\n",
                        m.family,
                        label_str(&m.labels, &[("le", "+Inf")])
                    ));
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        m.family,
                        label_str(&m.labels, &[]),
                        h.sum
                    ));
                    out.push_str(&format!(
                        "{}_count{} {}\n",
                        m.family,
                        label_str(&m.labels, &[]),
                        h.count
                    ));
                }
                MetricValue::Sketch(s) => {
                    if s.count > 0 {
                        for (q, v) in [(0.5, s.p50), (0.9, s.p90), (0.95, s.p95), (0.99, s.p99)] {
                            out.push_str(&format!(
                                "{}{} {}\n",
                                m.family,
                                label_str(&m.labels, &[("quantile", &q.to_string())]),
                                fmt_f64(v)
                            ));
                        }
                        out.push_str(&format!(
                            "{}_min{} {}\n",
                            m.family,
                            label_str(&m.labels, &[]),
                            fmt_f64(s.min)
                        ));
                        out.push_str(&format!(
                            "{}_max{} {}\n",
                            m.family,
                            label_str(&m.labels, &[]),
                            fmt_f64(s.max)
                        ));
                    }
                    out.push_str(&format!(
                        "{}_count{} {}\n",
                        m.family,
                        label_str(&m.labels, &[]),
                        s.count
                    ));
                }
            }
        }
        out
    }
}

fn valid_family(family: &str) -> bool {
    !family.is_empty()
        && family
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && family
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn label_eq(have: &[(String, String)], want: &[(&str, &str)]) -> bool {
    have.len() == want.len()
        && have
            .iter()
            .zip(want)
            .all(|((hk, hv), (wk, wv))| hk == wk && hv == wv)
}

/// Render a label set (base labels plus extras) as
/// `{k="v",...}`, escaping `\`, `"` and newlines; empty when there are
/// no labels at all.
fn label_str(labels: &[(String, String)], extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut parts: Vec<String> = Vec::with_capacity(labels.len() + extra.len());
    for (k, v) in labels {
        parts.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    for (k, v) in extra {
        parts.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    format!("{{{}}}", parts.join(","))
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// `# HELP` escaping per the exposition format: backslash and newline
/// only (quotes are legal in help text).
fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

/// A float sample value in exposition syntax: Rust's `{}` renders
/// `inf`/`-inf`/`NaN`, Prometheus requires `+Inf`/`-Inf`/`NaN`.
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_register_returns_the_same_cell() {
        let r = MetricsRegistry::new();
        let a = r.counter("requests_total");
        let b = r.counter("requests_total");
        a.inc();
        assert_eq!(b.get(), 1);
        assert!(a.same_cell(&b));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn labels_distinguish_metrics() {
        let r = MetricsRegistry::new();
        let a = r.counter_with("routed_total", &[("stage", "0")]);
        let b = r.counter_with("routed_total", &[("stage", "1")]);
        a.add(3);
        b.add(5);
        assert_eq!(r.len(), 2);
        let snap = r.snapshot();
        assert_eq!(snap[0].value, MetricValue::Counter(3));
        assert_eq!(snap[1].value, MetricValue::Counter(5));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflict_panics() {
        let r = MetricsRegistry::new();
        r.counter("thing");
        r.gauge("thing");
    }

    #[test]
    fn adopted_handle_shows_up_in_snapshot() {
        let r = MetricsRegistry::new();
        let c = Counter::new();
        c.add(7);
        r.adopt_counter("external_total", &[("id", "x")], &c);
        // Idempotent for the same cell.
        r.adopt_counter("external_total", &[("id", "x")], &c);
        assert_eq!(r.len(), 1);
        assert_eq!(r.snapshot()[0].value, MetricValue::Counter(7));
    }

    #[test]
    fn snapshot_is_sorted_and_stable() {
        let r = MetricsRegistry::new();
        r.counter("zebra_total");
        r.gauge("alpha_depth");
        let snap = r.snapshot();
        assert_eq!(snap[0].family, "alpha_depth");
        assert_eq!(snap[1].family, "zebra_total");
        assert_eq!(r.snapshot(), snap);
    }

    #[test]
    fn render_text_formats_each_kind() {
        let r = MetricsRegistry::new();
        r.counter_with("pumped_total", &[("stage", "0")]).add(2);
        r.gauge("depth").set(-3);
        let h = r.histogram_with("lat_ns", &[]);
        h.record(100);
        h.record(u64::MAX);
        let s = r.sketch_with("lag", &[("stage", "0")]);
        for i in 0..100 {
            s.record(i as f64);
        }
        let text = r.render_text();
        assert!(text.contains("# TYPE pumped_total counter"));
        assert!(text.contains("pumped_total{stage=\"0\"} 2"));
        assert!(text.contains("# TYPE depth gauge"));
        assert!(text.contains("depth -3"));
        assert!(text.contains("# TYPE lat_ns histogram"));
        assert!(text.contains("lat_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("lat_ns_count 2"));
        assert!(text.contains("# TYPE lag summary"));
        assert!(text.contains("lag{stage=\"0\",quantile=\"0.5\"}"));
        assert!(text.contains("lag_count{stage=\"0\"} 100"));
    }

    #[test]
    fn empty_sketch_renders_count_only() {
        let r = MetricsRegistry::new();
        r.sketch_with("idle_lag", &[]);
        let text = r.render_text();
        assert!(text.contains("idle_lag_count 0"));
        assert!(!text.contains("quantile"));
    }

    #[test]
    fn label_escaping() {
        let r = MetricsRegistry::new();
        r.counter_with("c_total", &[("msg", "a\"b\\c\nd")]).inc();
        let text = r.render_text();
        assert!(text.contains(r#"msg="a\"b\\c\nd""#));
    }

    /// The exposition-format conformance suite: HELP+TYPE per family,
    /// escaped help and label values, non-finite floats in Prometheus
    /// spelling.
    #[test]
    fn exposition_conformance() {
        let r = MetricsRegistry::new();
        r.counter_with("jobs_total", &[("q", "a")]).add(1);
        r.counter_with("jobs_total", &[("q", "b")]).add(2);
        r.set_help("jobs_total", "jobs processed\nby queue \\ path");
        r.gauge("depth").set(5);
        let s = r.sketch_with("lag", &[]);
        for i in 0..100 {
            s.record(i as f64);
        }
        let text = r.render_text();

        // HELP precedes TYPE, once per family even with several label
        // sets, with backslash/newline escaped in the help text.
        assert_eq!(text.matches("# TYPE jobs_total counter").count(), 1);
        assert_eq!(
            text.matches(r"# HELP jobs_total jobs processed\nby queue \\ path")
                .count(),
            1
        );
        let help_at = text.find("# HELP jobs_total").unwrap();
        let type_at = text.find("# TYPE jobs_total").unwrap();
        assert!(help_at < type_at, "HELP must precede TYPE");
        // Families without set_help fall back to the family name.
        assert!(text.contains("# HELP depth depth"));
        assert!(text.contains("# TYPE depth gauge"));
        // Sketch extremes render, and Rust's `inf` spelling never
        // leaks into sample values (non-finite spelling is pinned by
        // `fmt_f64_spells_non_finite_values`).
        assert!(text.contains("lag_max "));
        assert!(text.contains("lag_min "));
        assert!(
            !text.contains(" inf\n"),
            "Rust float formatting leaked:\n{text}"
        );
        // Every non-comment line is `name{labels} value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split(' ').count(), 2, "malformed sample line: {line}");
        }
    }

    #[test]
    fn fmt_f64_spells_non_finite_values() {
        assert_eq!(fmt_f64(f64::NAN), "NaN");
        assert_eq!(fmt_f64(f64::INFINITY), "+Inf");
        assert_eq!(fmt_f64(f64::NEG_INFINITY), "-Inf");
        assert_eq!(fmt_f64(2.5), "2.5");
        assert_eq!(fmt_f64(-0.0), "-0");
    }

    #[test]
    fn merged_sketch_folds_parts_at_snapshot_time() {
        let r = MetricsRegistry::new();
        let a = QuantileSketch::new();
        let b = QuantileSketch::new();
        for i in 0..500 {
            a.record(i as f64); // 0..500
            b.record(1_000.0 + i as f64); // 1000..1500
        }
        r.adopt_merged_sketch("lag_merged", &[], &[a.clone(), b.clone()]);
        // Idempotent for the same cells.
        r.adopt_merged_sketch("lag_merged", &[], &[a.clone(), b.clone()]);
        assert_eq!(r.len(), 1);
        let snap = r.snapshot();
        let MetricValue::Sketch(s) = &snap[0].value else {
            panic!("merged view snapshots as a sketch");
        };
        assert_eq!(s.count, 1_000);
        assert!(s.min < 10.0 && s.max > 1_400.0);
        assert!(
            (400.0..1_100.0).contains(&s.p50),
            "merged p50 between the parts, was {}",
            s.p50
        );
        // Live: the parts keep recording, the view keeps up.
        for _ in 0..500 {
            b.record(2_000.0);
        }
        let MetricValue::Sketch(s2) = &r.snapshot()[0].value else {
            panic!("still a sketch");
        };
        assert_eq!(s2.count, 1_500);
        // Renders as a summary family.
        assert!(r.render_text().contains("# TYPE lag_merged summary"));
    }
}
