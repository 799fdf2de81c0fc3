//! Result sets and `e2e compare`.
//!
//! `e2e --all --runs N` writes one **set**: for every workload, the
//! values each end-to-end metric took over the N runs. `e2e compare
//! A.json B.json` reads two sets — A the base, B the candidate — and
//! prints one row per (metric, workload): both medians, the ratio with
//! its base, and a verdict against the bound the benchmark fixed.

use crate::json::Json;
use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats::{median, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// Either set's own run-to-run spread is wider than the bound, so
    /// the comparison cannot tell a regression from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much, as a share of the base median, `candidate` is worse
/// than `base` (negative when better).
pub fn worsening(metric: &EndToEnd, base: f64, candidate: f64) -> f64 {
    let delta = match metric.better {
        Better::Lower => candidate - base,
        Better::Higher => base - candidate,
    };
    if base == 0.0 {
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / base.abs()
    }
}

/// Verdict for one (metric, workload) from the two sets' values.
pub fn verdict(metric: &EndToEnd, base: &[f64], candidate: &[f64]) -> Verdict {
    let noisy = |v: &[f64]| v.len() >= 2 && spread(v) > metric.bound;
    if noisy(base) || noisy(candidate) {
        Verdict::Unresolved
    } else if worsening(metric, median(base), median(candidate)) > metric.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// `workload → metric → values` of one set file.
fn values(set: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    set.get("workloads")?
        .get(workload)?
        .get(metric)?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

/// Compare two set files; returns the report and whether every row is
/// `ok`.
pub fn compare_sets(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("base set has no `workloads` object")?;
    let mut out = format!(
        "{:<14}{:<18}{:>15}{:>15}  {:<26}{:>9}{:>9}  verdict\n",
        "workload", "metric", "median A", "median B", "B/A (base)", "spread A", "spread B"
    );
    let mut all_ok = true;
    for (workload, _) in workloads {
        for metric in &END_TO_END {
            let va = values(a, workload, metric.name)
                .ok_or_else(|| format!("base set lacks {workload}/{}", metric.name))?;
            let vb = values(b, workload, metric.name)
                .ok_or_else(|| format!("candidate set lacks {workload}/{}", metric.name))?;
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{workload}/{} has no runs", metric.name));
            }
            let (ma, mb) = (median(&va), median(&vb));
            let v = verdict(metric, &va, &vb);
            all_ok &= v == Verdict::Ok;
            let sp = |v: &[f64]| {
                if v.len() >= 2 {
                    format!("{:.2}%", 100.0 * spread(v))
                } else {
                    "n=1".to_string()
                }
            };
            let ratio = format!("{:.4} (A = {ma:.4e})", mb / ma);
            out += &format!(
                "{workload:<14}{:<18}{ma:>15.6}{mb:>15.6}  {ratio:<26}{:>9}{:>9}  {} (bound {:.0}%, {} is better)\n",
                metric.name,
                sp(&va),
                sp(&vb),
                v.as_str(),
                100.0 * metric.bound,
                metric.better.as_str(),
            );
        }
    }
    Ok((out, all_ok))
}

/// A set file from per-workload run results (each the `metrics` object
/// of a run's result line).
pub fn set_json(label: &str, seconds: f64, runs: &[(String, Vec<Json>)]) -> Json {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::Obj(vec![
        ("label".into(), Json::Str(label.into())),
        ("run_seconds".into(), Json::Num(seconds)),
        ("available_parallelism".into(), Json::Num(cores as f64)),
        (
            "workloads".into(),
            Json::Obj(
                runs.iter()
                    .map(|(workload, results)| {
                        let per_metric = END_TO_END
                            .iter()
                            .map(|m| {
                                let vals = results
                                    .iter()
                                    .filter_map(|r| r.get(m.name)?.get("value")?.as_f64())
                                    .map(Json::Num)
                                    .collect();
                                (m.name.to_string(), Json::Arr(vals))
                            })
                            .collect();
                        (workload.clone(), Json::Obj(per_metric))
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;

    #[test]
    fn verdicts() {
        let tput = end_to_end("throughput_per_s").unwrap(); // higher, 20%
        let lat = end_to_end("latency_p50_ms").unwrap(); // lower, 20%
        assert_eq!(verdict(tput, &[100.0, 101.0], &[85.0, 86.0]), Verdict::Ok);
        assert_eq!(
            verdict(tput, &[100.0, 101.0], &[70.0, 71.0]),
            Verdict::Regressed
        );
        assert_eq!(verdict(tput, &[100.0, 101.0], &[150.0, 151.0]), Verdict::Ok);
        assert_eq!(
            verdict(lat, &[10.0, 10.1], &[12.5, 12.6]),
            Verdict::Regressed
        );
        assert_eq!(verdict(lat, &[10.0, 10.1], &[10.5, 10.6]), Verdict::Ok);
        // Spread wider than the bound on either side: cannot tell.
        assert_eq!(
            verdict(lat, &[10.0, 14.0], &[30.0, 30.1]),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(lat, &[10.0, 10.1], &[9.0, 12.0]),
            Verdict::Unresolved
        );
        // Single runs have no spread to hold against.
        assert_eq!(verdict(lat, &[10.0], &[11.9]), Verdict::Ok);
        assert_eq!(verdict(lat, &[10.0], &[12.1]), Verdict::Regressed);
    }

    #[test]
    fn compare_reads_what_set_json_writes() {
        let result = |v: f64| {
            Json::Obj(
                END_TO_END
                    .iter()
                    .map(|m| {
                        (
                            m.name.to_string(),
                            Json::Obj(vec![
                                ("value".into(), Json::Num(v)),
                                ("unit".into(), Json::Str(m.unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            )
        };
        let a = set_json(
            "a",
            20.0,
            &[("q1_gauss".into(), vec![result(10.0), result(10.1)])],
        );
        let b = set_json(
            "b",
            20.0,
            &[("q1_gauss".into(), vec![result(13.0), result(13.1)])],
        );
        let a = Json::parse(&a.render()).unwrap();
        let (same, ok) = compare_sets(&a, &a).unwrap();
        assert!(ok, "{same}");
        let (report, ok) = compare_sets(&a, &b).unwrap();
        assert!(!ok);
        // Lower-is-better metrics regressed, higher-is-better improved.
        assert!(report.contains("regressed"), "{report}");
        assert!(report
            .lines()
            .any(|l| l.contains("throughput_per_s") && l.contains(" ok ")));
        assert!(compare_sets(&a, &Json::Obj(vec![])).is_err());
    }
}
