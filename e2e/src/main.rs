//! `e2e` — the repo's end-to-end benchmark. See README.md beside the
//! manifest for what is measured and how to read it.
//!
//! ```text
//! e2e --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1>] [--quick]
//! e2e --all [--runs <n>] [--seed <u64>] [--seconds <n>] [--quick] [--label <name>]
//! e2e compare <A.json> <B.json>
//! e2e manifest
//! ```

mod accuracy;
mod compare;
mod digest;
mod json;
mod loadgen;
mod metrics;
mod replay;
mod report;
mod rfid;
mod serve;
mod served;
mod stats;
mod trace;
mod workloads;

use json::Json;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  e2e --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1>] [--quick]
  e2e --all [--runs <n>] [--seed <u64>] [--seconds <n>] [--quick] [--label <name>]
  e2e compare <A.json> <B.json>
  e2e manifest";

/// Run length of `--quick`: one-second load phases, a smoke test.
const QUICK_SECONDS: f64 = 2.5;

struct Args {
    workload: Option<String>,
    all: bool,
    runs: usize,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    quick: bool,
    label: Option<String>,
}

impl Args {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick {
            QUICK_SECONDS
        } else {
            metrics::RUN_SECONDS as f64
        })
    }
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        all: false,
        runs: 1,
        seed: 1,
        seconds: None,
        traced: false,
        quick: false,
        label: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let bad = |what: &str, v: &str| format!("{flag}: `{v}` is not {what}");
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.to_string()),
            "--all" => a.all = true,
            "--quick" => a.quick = true,
            "--label" => a.label = Some(value()?.to_string()),
            "--runs" => {
                let v = value()?;
                a.runs = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| bad("a count", v))?;
            }
            "--seed" => {
                let v = value()?;
                a.seed = v.parse().map_err(|_| bad("a u64", v))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| bad("a number", v))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(bad("in (0, 60]", v));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.traced = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad("0 or 1", v)),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.all == a.workload.is_some() {
        return Err("give exactly one of --workload <name> and --all".into());
    }
    if let Some(label) = &a.label {
        if !metrics::valid_name(label) {
            return Err(format!(
                "--label `{label}`: letters, digits, `_`, `.`, `-` only"
            ));
        }
    }
    Ok(a)
}

/// Where trace and set files go: under cargo's target directory.
fn out_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("e2e")
}

/// One `--workload` run: print every metric by name, then the result
/// object as the last line.
fn run_workload(name: &str, a: &Args) -> ExitCode {
    let seconds = a.seconds();
    let trace_path = out_dir().join(format!("{name}.trace.json"));
    let outcome = if let Some(w) = workloads::served(name) {
        if a.traced {
            served::run_traced(&w, a.seed, seconds, &trace_path)
        } else {
            served::run_untraced(&w, a.seed, seconds)
        }
    } else if name == workloads::RFID_CAPTURE {
        rfid::run(
            a.seed,
            seconds,
            a.quick,
            a.traced.then_some(trace_path.as_path()),
        )
    } else {
        eprintln!(
            "e2e: unknown workload `{name}`; the benchmark defines {:?}",
            workloads::ALL
        );
        return ExitCode::from(2);
    };
    print!("{}", outcome.render(name, a.traced));
    println!("{}", outcome.to_json(a.traced).render());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--all`: every workload, untraced then traced, `runs` times, one
/// process per run; the end-to-end values land in one set file.
fn run_all(a: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut sets: Vec<(String, Vec<Json>)> = workloads::ALL
        .iter()
        .map(|w| (w.to_string(), Vec::new()))
        .collect();
    let mut all_correct = true;
    let started = std::time::Instant::now();
    for run in 0..a.runs {
        for (workload, results) in &mut sets {
            for traced in [false, true] {
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", workload.as_str()])
                    .args(["--seed", &(a.seed + run as u64).to_string()])
                    .args(["--trace", if traced { "1" } else { "0" }]);
                if let Some(s) = a.seconds {
                    cmd.args(["--seconds", &s.to_string()]);
                }
                if a.quick {
                    cmd.arg("--quick");
                }
                let out = match cmd.output() {
                    Ok(out) => out,
                    Err(e) => {
                        eprintln!("e2e: cannot start {}: {e}", exe.display());
                        return ExitCode::FAILURE;
                    }
                };
                let stdout = String::from_utf8_lossy(&out.stdout);
                print!("{stdout}");
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
                let result = stdout.lines().last().and_then(|l| Json::parse(l).ok());
                let correct = out.status.success()
                    && result.as_ref().and_then(|r| r.get("correct")) == Some(&Json::Bool(true));
                all_correct &= correct;
                if !traced {
                    if let Some(metrics) = result.as_ref().and_then(|r| r.get("metrics")) {
                        results.push(metrics.clone());
                    }
                }
            }
        }
    }
    let seconds = a.seconds();
    let label = a.label.clone().unwrap_or_else(|| {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs())
            .to_string()
    });
    let path = out_dir().join(format!("set-{label}.json"));
    let text = compare::set_json(&label, seconds, &sets).render();
    if let Err(e) =
        std::fs::create_dir_all(out_dir()).and_then(|_| std::fs::write(&path, text + "\n"))
    {
        eprintln!("e2e: writing {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!(
        "full pass x{} over {} workloads took {:.1} s; set written to {}",
        a.runs,
        sets.len(),
        started.elapsed().as_secs_f64(),
        path.display()
    );
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("e2e: at least one run was incorrect");
        ExitCode::FAILURE
    }
}

fn run_compare(a: &str, b: &str) -> ExitCode {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|t| Json::parse(&t))
            .map_err(|e| format!("{path}: {e}"))
    };
    match load(a).and_then(|a| load(b).and_then(|b| compare::compare_sets(&a, &b))) {
        Ok((report, all_ok)) => {
            print!("{report}");
            if all_ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("e2e compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => run_compare(&args[1], &args[2]),
        Some("manifest") if args.len() == 1 => {
            print!("{}", metrics::manifest_text());
            ExitCode::SUCCESS
        }
        _ => match parse(&args) {
            Ok(a) if a.all => run_all(&a),
            Ok(a) => run_workload(a.workload.as_deref().expect("checked by parse"), &a),
            Err(e) => {
                eprintln!("e2e: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
    }
}
