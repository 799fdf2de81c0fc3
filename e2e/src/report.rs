//! What one run reports, and how it is printed.

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    /// Samples the value summarizes (1 for a count or a ratio of counts).
    pub n: usize,
}

/// The outcome of one `--workload` run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Outputs equal to the references, counts reconciled, `Eos` seen,
    /// no server error.
    pub correct: bool,
    /// Operations attempted: publishes (or scans) plus expected result
    /// windows.
    pub attempted: u64,
    /// Of those, failed: a result window missing, different from the
    /// reference, or (open loop) later than the latency limit.
    pub failed: u64,
    pub values: Vec<Measured>,
    /// Why `correct` is false, one line each.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Record a metric of the tables in `metrics.rs`; any other name is
    /// a harness bug.
    pub fn set(&mut self, name: &str, value: f64, n: usize) {
        let name = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .find(|known| *known == name)
            .unwrap_or_else(|| panic!("unknown metric {name}"));
        self.values.retain(|m| m.name != name);
        self.values.push(Measured { name, value, n });
    }

    /// The metrics a run of this kind must print, in table order, with
    /// their units. A per-layer metric the workload never touches is a
    /// measured zero (that layer did no work); a missing end-to-end
    /// metric is a harness bug.
    fn table(&self, traced: bool) -> Vec<(&'static str, &'static str, f64, usize)> {
        let find = |name: &str| self.values.iter().find(|m| m.name == name);
        if traced {
            PER_LAYER
                .iter()
                .map(|d| {
                    let (v, n) = find(d.name).map_or((0.0, 0), |m| (m.value, m.n));
                    (d.name, d.unit, v, n)
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|d| {
                    let m = find(d.name)
                        .unwrap_or_else(|| panic!("end-to-end metric {} not measured", d.name));
                    (d.name, d.unit, m.value, m.n)
                })
                .collect()
        }
    }

    /// Human-readable block: every metric by name with unit, sample
    /// count and workload.
    pub fn render(&self, workload: &str, traced: bool) -> String {
        let mut out = String::new();
        for (name, unit, value, n) in self.table(traced) {
            out += &format!("{workload:<14}{name:<42}{value:>18.6} {unit:<6} n={n}\n");
        }
        out += &format!(
            "{workload:<14}correct={} attempted={} failed={} ops_failed_frac={:.6}\n",
            self.correct,
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for p in &self.problems {
            out += &format!("{workload:<14}PROBLEM: {p}\n");
        }
        out
    }

    /// The result object: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn to_json(&self, traced: bool) -> Json {
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::Num(self.attempted.max(1) as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            (
                "metrics".into(),
                Json::Obj(
                    self.table(traced)
                        .into_iter()
                        .map(|(name, unit, value, _)| {
                            (
                                name.to_string(),
                                Json::Obj(vec![
                                    ("value".into(), Json::Num(value)),
                                    ("unit".into(), Json::Str(unit.into())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Peak resident set of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_object_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            correct: true,
            attempted: 10,
            ..Default::default()
        };
        for m in END_TO_END {
            o.set(m.name, 1.5, 3);
        }
        let j = o.to_json(false);
        let keys: Vec<&str> = j
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = j.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics[0].1.get("unit"), Some(&Json::Str("1/s".into())));
        // A traced run prints every per-layer metric, untouched ones as 0.
        let traced = o.to_json(true);
        assert_eq!(
            traced.get("metrics").unwrap().as_obj().unwrap().len(),
            PER_LAYER.len()
        );
        assert!(peak_rss_mb() > 0.0);
    }
}
