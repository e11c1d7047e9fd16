//! Command line of the closed-loop benchmark.
//!
//! ```text
//! optbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]
//! optbench [--seed <n>] [--seconds <s>] [--trace <0|1>] [--out <file>]   # every workload, one child each
//! optbench --compare <base.jsonl> <head.jsonl>
//! ```
//!
//! A single-workload run prints `workload metric value unit` lines and, as
//! its last line, `{"correct", "attempted", "failed", "metrics"}`; with
//! `--out` it also appends that run's record to a JSON-lines file for
//! `--compare`.  Run it from the repository root: scratch files go to
//! `.optbench/`.

use optbench::json::quote;
use optbench::setup::Sizes;
use optbench::{compare, json, spec, Report, RunConfig, Workload};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

const OUT_DIR: &str = ".optbench";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
    compare: Option<(String, String)>,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: None, seed: 1, seconds: 10, trace: false, out: None, compare: None, setup_only: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=3600).contains(&args.seconds) {
                    return Err("--seconds must be between 1 and 3600".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--setup-only" => args.setup_only = true,
            "--compare" => {
                let base = value()?;
                args.compare = Some((base, it.next().ok_or("--compare needs two files")?));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn metrics_json(report: &Report) -> String {
    let fields: Vec<String> = report
        .metrics
        .iter()
        .map(|&(name, value)| {
            let unit = spec::find(name).expect("every reported metric is specified").unit;
            format!("{}:{{\"value\":{value},\"unit\":{}}}", quote(name), quote(unit))
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn run_one(workload: Workload, args: &Args) -> ExitCode {
    let config = RunConfig {
        workload,
        seed: args.seed,
        duration: Duration::from_secs(args.seconds),
        trace: args.trace,
        sizes: Sizes::FULL,
        out_dir: PathBuf::from(OUT_DIR),
    };
    if args.setup_only {
        println!("{}", optbench::time_setup(&config));
        return ExitCode::SUCCESS;
    }
    let mut earlier_setups = Vec::with_capacity(optbench::SETUP_REPS - 1);
    for _ in 1..optbench::SETUP_REPS {
        match setup_in_child(workload, args.seed) {
            Ok(secs) => earlier_setups.push(secs),
            Err(e) => {
                eprintln!("set-up repetition failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let report = optbench::run(&config, &earlier_setups);
    let name = workload.name();
    for &(metric, value) in &report.metrics {
        println!("{name} {metric} {value} {}", spec::find(metric).expect("specified").unit);
    }
    for (metric, value, unit) in &report.diagnostics {
        println!("{name} {metric} {value} {unit}");
    }
    let metrics = metrics_json(&report);
    let (correct, attempted, failed) = (report.correct(), report.attempted, report.failed);
    if let Some(path) = &args.out {
        let record = format!(
            "{{\"workload\":{},\"seed\":{},\"trace\":{},\"correct\":{correct},\"attempted\":{attempted},\
             \"failed\":{failed},\"metrics\":{metrics}}}",
            quote(name),
            args.seed,
            u8::from(args.trace)
        );
        let appended =
            std::fs::OpenOptions::new().create(true).append(true).open(path).and_then(|mut f| writeln!(f, "{record}"));
        if let Err(e) = appended {
            eprintln!("cannot append to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{metrics}}}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Time one set-up repetition in a child process.
fn setup_in_child(workload: Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name(), "--seed", &seed.to_string(), "--setup-only"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    match stdout.lines().last().map(str::parse::<f64>) {
        Some(Ok(secs)) if output.status.success() => Ok(secs),
        _ => Err(format!("child exited with {} and printed {stdout:?}", output.status)),
    }
}

/// Every workload in turn, each in a child process of its own so that no
/// workload's memory or caches carry into the next.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let out = args.out.clone().unwrap_or_else(|| PathBuf::from(OUT_DIR).join("results.jsonl"));
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    let mut all_correct = true;
    for workload in Workload::ALL {
        let child = Command::new(&exe)
            .args(["--workload", workload.name(), "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string(), "--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&out)
            .stderr(Stdio::inherit())
            .output();
        let correct = match child {
            Ok(output) => {
                let stdout = String::from_utf8_lossy(&output.stdout);
                print!("{stdout}");
                let last = stdout.lines().last().and_then(|l| json::parse(l).ok());
                output.status.success()
                    && last.and_then(|r| r.get("correct").and_then(json::Json::as_bool)) == Some(true)
            }
            Err(e) => {
                eprintln!("cannot run {}: {e}", workload.name());
                false
            }
        };
        if !correct {
            eprintln!("{}: correctness check failed", workload.name());
        }
        all_correct &= correct;
    }
    println!("results appended to {}", out.display());
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Some((base, head)) = &args.compare {
        return match compare::compare(base, head) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    match args.workload {
        Some(workload) => run_one(workload, &args),
        None => run_all(&args),
    }
}
