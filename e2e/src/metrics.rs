//! The benchmark's metric and workload tables — the single source
//! `BENCHMARK.json` is generated from (`e2e manifest`) and `e2e compare`
//! reads its bounds from. README.md defines every name in prose.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// What a user of the system sees. Every workload reports every one
/// (README.md says what each means per workload).
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "latency_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "accuracy_err",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Single-layer numbers from the traced run; no bounds. The prefix is
/// the layer (a module of this repo, or the harness's own `loadgen`).
pub const PER_LAYER: [PerLayer; 52] = [
    layer("loadgen.late_frac", "ratio", Lower),
    layer("loadgen.lateness_ms_p95", "ms", Lower),
    layer("client.publish_rtt_us_p50", "us", Lower),
    layer("client.publish_rtt_us_p95", "us", Lower),
    layer("client.encode_ns_per_tuple", "ns", Lower),
    layer("client.results_decode_ns_per_tuple", "ns", Lower),
    layer("wire.frame_rtt_us_p50", "us", Lower),
    layer("wire.decode_rows_ns_per_tuple", "ns", Lower),
    layer("wire.decode_columnar_ns_per_tuple", "ns", Lower),
    layer("wire.bytes_per_tuple", "B", Lower),
    layer("server.publish_frames", "count", Higher),
    layer("server.publish_tuples", "count", Higher),
    layer("server.acks", "count", Higher),
    layer("server.results_frames", "count", Higher),
    layer("server.errors_total", "count", Lower),
    layer("server.subscriber_queue_depth_max", "count", Lower),
    layer("server.results_encode_ns_per_tuple", "ns", Lower),
    layer("server.unexplained_frac", "ratio", Lower),
    layer("runtime.session_ns_per_tuple", "ns", Lower),
    layer("runtime.vs_run_batched_ratio", "ratio", Lower),
    layer("runtime.workers", "count", Higher),
    layer("runtime.routed_skew", "ratio", Lower),
    layer("runtime.exchange_forwarded_tuples", "count", Lower),
    layer("runtime.eager_forwards", "count", Higher),
    layer("runtime.watermark_lag_p50", "ms", Lower),
    layer("runtime.watermark_lag_p99", "ms", Lower),
    layer("runtime.spans_sampled", "count", Higher),
    layer("core.run_batched_ns_per_tuple", "ns", Lower),
    layer("core.columnarize_ns_per_tuple", "ns", Lower),
    layer("core.op.select.busy_ns_per_tuple", "ns", Lower),
    layer("core.op.select.selectivity", "ratio", Lower),
    layer("core.op.select.columnar_batch_frac", "ratio", Higher),
    layer("core.op.project.busy_ns_per_tuple", "ns", Lower),
    layer("core.op.project.selectivity", "ratio", Lower),
    layer("core.op.project.columnar_batch_frac", "ratio", Higher),
    layer("core.op.aggregate.busy_ns_per_tuple", "ns", Lower),
    layer("core.op.aggregate.selectivity", "ratio", Lower),
    layer("core.op.aggregate.columnar_batch_frac", "ratio", Higher),
    layer("core.op.join.busy_ns_per_tuple", "ns", Lower),
    layer("core.op.join.selectivity", "ratio", Lower),
    layer("core.op.join.columnar_batch_frac", "ratio", Higher),
    layer("prob.sum_ns_per_window", "ns", Lower),
    layer("prob.sum_fallback_frac", "ratio", Lower),
    layer("inference.scan_us_p50", "us", Lower),
    layer("inference.scan_us_p95", "us", Lower),
    layer("inference.candidates_per_scan", "count", Lower),
    layer("inference.particles_touched_per_scan", "count", Lower),
    layer("inference.clouds_updated_per_candidate", "ratio", Higher),
    layer("inference.convert_ns_per_tuple", "ns", Lower),
    layer("inference.emitted_tuples", "count", Higher),
    layer("inference.rmse_ft", "ft", Lower),
    layer("telemetry.trace_overhead_frac", "ratio", Lower),
];

/// `(name, why)` per workload; the `why` is the one line BENCHMARK.json
/// carries.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "q1_gauss",
        "Q1 served single-pipeline with Gaussian payloads: server/wire do most of the work, core little, runtime exchange and prob none; a socket/merge fix must show here and a CF fix must not.",
    ),
    (
        "q1_mixed",
        "Same graph, payload rotating Gaussian/mixture/histogram/samples, Strategy::Auto: wire decode falls to row columns (3x bytes) and the aggregate reaches prob's CF approximation.",
    ),
    (
        "join_sharded",
        "Staged Q1 agg -> keyed join over two sources, served on 2 shards: key routing, stage exchange and canonical merge in runtime do the work; the only workload where shard overlap can appear.",
    ),
    (
        "rfid_capture",
        "In-process capture: rfid-sim trace -> RfidTOperator (factored PF) -> Q2 loc_equals join; inference+prob+core do all the work and server/runtime/wire none, so a serving change must not move it.",
    ),
];

/// What one run measures for, seconds (BENCHMARK.json `run_seconds`).
pub const RUN_SECONDS: u64 = 20;

/// The benchmark directory, relative to the repo root.
pub const BENCH_DIR: &str = "e2e";

/// Names are used as JSON keys and file-name parts.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let s = |v: &str| Json::Str(v.to_string());
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "e2e/Cargo.toml",
        "--",
    ];
    Json::Obj(vec![
        (
            "command".into(),
            Json::Arr(command.iter().map(|c| s(c)).collect()),
        ),
        ("paths".into(), Json::Arr(vec![s(BENCH_DIR)])),
        ("run_seconds".into(), Json::Num(RUN_SECONDS as f64)),
        (
            "workloads".into(),
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::Obj(vec![("name".into(), s(name)), ("why".into(), s(why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::Obj(vec![
                            ("name".into(), s(m.name)),
                            ("unit".into(), s(m.unit)),
                            ("better".into(), s(m.better.as_str())),
                            ("bound".into(), Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer".into(),
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::Obj(vec![
                            ("name".into(), s(m.name)),
                            ("unit".into(), s(m.unit)),
                            ("better".into(), s(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// `manifest()` laid out one entry per line, for a readable diff.
pub fn manifest_text() -> String {
    let m = manifest();
    let mut out = String::from("{\n");
    let fields = m.as_obj().expect("manifest is an object");
    for (i, (key, value)) in fields.iter().enumerate() {
        let last = i + 1 == fields.len();
        match value {
            Json::Arr(items) if matches!(items.first(), Some(Json::Obj(_))) => {
                out += &format!("  \"{key}\": [\n");
                for (j, item) in items.iter().enumerate() {
                    let comma = if j + 1 == items.len() { "" } else { "," };
                    out += &format!("    {}{comma}\n", item.render());
                }
                out += "  ]";
            }
            other => out += &format!("  \"{key}\": {}", other.render()),
        }
        out += if last { "\n" } else { ",\n" };
    }
    out + "}\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_fit_the_charset_and_are_unique() {
        let mut seen = HashSet::new();
        for name in END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(WORKLOADS.iter().map(|w| w.0))
        {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(!valid_name("has space"));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("slash/y"));
        assert!(!valid_name(""));
    }

    #[test]
    fn tables_stay_inside_the_contract() {
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(end_to_end("setup_s").is_some_and(|m| m.unit == "s" && m.better == Better::Lower));
        assert!(PER_LAYER.len() <= 128);
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        assert_eq!(
            WORKLOADS.map(|w| w.0).to_vec(),
            crate::workloads::ALL.to_vec()
        );
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, manifest_text(), "regenerate with `e2e manifest`");
        assert_eq!(Json::parse(&committed).unwrap(), manifest());
    }
}
