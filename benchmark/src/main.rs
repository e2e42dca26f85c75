//! The benchmark of record for π_ba. See `README.md` beside this crate.
//!
//! `--workload W` runs one workload in this process and ends with the
//! result line `BENCHMARK.json` describes. Without it, every workload is
//! run in a child process of its own (so `VmHWM` is per workload): an
//! untraced pass, with `--trace` a traced pass whose counts must equal
//! the untraced ones, and with `--repeat N` N untraced sets that must
//! agree within the metric bounds (counts and failures exactly).
#![deny(warnings)]

mod json;
mod kernels;
mod metrics;
mod run;
mod stats;
mod trace;
mod workloads;

use metrics::{Better, END_TO_END};
use run::{counts_line, result_line, run_workload, Options};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use workloads::{Spec, WORKLOADS};

/// Default `--seed`.
const DEFAULT_SEED: &str = "1";
/// Default `--seconds`; equals `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;
/// Floor on each layer kernel's measuring time in the traced pass.
const KERNEL_SECONDS: f64 = 0.2;
/// Where the traced pass writes its spans, relative to the repo root.
const TRACE_DIR: &str = "benchmark/out";

const USAGE: &str = "usage: pba-benchmark [--workload <name>] [--seed <s>] [--seconds <n>] \
[--trace [0|1]] [--repeat <n>] [--smoke]";

#[derive(Clone, Debug)]
struct Cli {
    workload: Option<String>,
    seed: String,
    seconds: f64,
    trace: bool,
    repeat: usize,
    smoke: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED.to_string(),
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: 1,
        smoke: false,
    };
    let mut args = args.iter().peekable();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => cli.seed = value("a seed")?,
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?;
            }
            "--repeat" => {
                cli.repeat = value("a count")?
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or("--repeat needs a positive count")?;
            }
            "--trace" => {
                cli.trace = match args.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(name) = &cli.workload {
        if workloads::find(name).is_none() {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {name:?}; one of {names:?}"));
        }
        if cli.repeat > 1 {
            return Err("--repeat compares whole sets; drop --workload".to_string());
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match &cli.workload {
        Some(name) => single(workloads::find(name).expect("validated"), &cli),
        None => all(&cli),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One workload in this process.
fn single(spec: &Spec, cli: &Cli) -> Result<(), String> {
    let (spec, seconds, kernel_seconds) = if cli.smoke {
        (spec.smoke(), 0.0, 0.0)
    } else {
        (*spec, cli.seconds, KERNEL_SECONDS)
    };
    let host_cores = std::thread::available_parallelism().map_or(1, |v| v.get());
    println!(
        "workload {} seed {} trace {} n {} threads {} host_cores {host_cores} sha256_lanes {}",
        spec.name,
        cli.seed,
        cli.trace as u8,
        spec.n,
        spec.threads,
        pba_crypto::sha256::LANES,
    );
    let outcome = run_workload(
        &spec,
        &Options {
            seed: cli.seed.clone(),
            seconds,
            trace: cli.trace,
            kernel_seconds,
        },
    );
    for m in &outcome.metrics {
        println!("{} {} {} n={}", m.def.name, m.value, m.def.unit, m.samples);
    }
    if cli.trace {
        let path = format!("{TRACE_DIR}/trace-{}.json", spec.name);
        std::fs::create_dir_all(TRACE_DIR)
            .and_then(|()| std::fs::write(&path, outcome.tracer.to_json(spec.name)))
            .map_err(|e| format!("writing {path} (run from the repository root): {e}"))?;
        println!("spans written to {path}");
    }
    println!("counts {}", counts_line(&outcome.counts));
    println!("{}", result_line(&outcome));
    Ok(())
}

/// What a child process reported.
struct Report {
    failed: f64,
    attempted: f64,
    metrics: BTreeMap<String, f64>,
    counts: BTreeMap<String, f64>,
}

fn numbers(
    value: &json::Value,
    pick: impl Fn(&json::Value) -> Option<f64>,
) -> BTreeMap<String, f64> {
    value
        .as_object()
        .into_iter()
        .flatten()
        .filter_map(|(name, v)| Some((name.clone(), pick(v)?)))
        .collect()
}

/// Runs one workload in a child process and parses what it printed.
fn child(spec: &Spec, cli: &Cli, trace: bool) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", spec.name, "--seed", &cli.seed])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if cli.smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for line in &lines {
        println!("  {line}");
    }
    if !output.status.success() {
        return Err(format!("{} exited with {}", spec.name, output.status));
    }
    let result = json::parse(last).map_err(|e| format!("{}: result line: {e}", spec.name))?;
    let counts = lines
        .iter()
        .find_map(|l| l.strip_prefix("counts "))
        .ok_or_else(|| format!("{}: no counts line", spec.name))
        .and_then(|c| json::parse(c).map_err(|e| format!("{}: counts line: {e}", spec.name)))?;
    let field = |key: &str| {
        result
            .get(key)
            .and_then(json::Value::as_f64)
            .ok_or_else(|| format!("{}: result line has no {key}", spec.name))
    };
    Ok(Report {
        failed: field("failed")?,
        attempted: field("attempted")?,
        metrics: numbers(result.get("metrics").unwrap_or(&json::Value::Null), |m| {
            m.get("value").and_then(json::Value::as_f64)
        }),
        counts: numbers(&counts, json::Value::as_f64),
    })
}

/// Every workload, each in its own process; `--trace` and `--repeat`
/// checks on top.
fn all(cli: &Cli) -> Result<(), String> {
    let mut sets: Vec<Vec<Report>> = Vec::new();
    for set in 0..cli.repeat {
        let mut reports = Vec::new();
        for spec in &WORKLOADS {
            let spec = &if cli.smoke { spec.smoke() } else { *spec };
            println!(
                "== {} (set {} of {}, untraced): {}",
                spec.name,
                set + 1,
                cli.repeat,
                spec.why
            );
            let untraced = child(spec, cli, false)?;
            if cli.trace && set == 0 {
                println!("== {} (traced)", spec.name);
                let traced = child(spec, cli, true)?;
                if traced.counts != untraced.counts {
                    return Err(format!(
                        "{}: counts differ between the untraced and traced passes of seed {}:\n  {:?}\n  {:?}",
                        spec.name, cli.seed, untraced.counts, traced.counts
                    ));
                }
                let (t, u) = (&traced.metrics, &untraced.metrics);
                let traced_s = t["core.fanin_s"]
                    + t["core.committee_ba_s"]
                    + t["core.coin_s"]
                    + t["core.certify_s"]
                    + t["core.stream_s"];
                println!(
                    "  counts equal across passes; traced step spans are {:+.2}% of untraced decision_s x decisions",
                    (traced_s / (u["decision_s"] * spec.decisions() as f64) - 1.0) * 100.0
                );
            }
            println!(
                "  {} of {} decisions failed",
                untraced.failed, untraced.attempted
            );
            reports.push(untraced);
        }
        sets.push(reports);
    }

    let mut disagreements = 0;
    for (set, reports) in sets.iter().enumerate().skip(1) {
        println!("== set 1 against set {}", set + 1);
        for (w, spec) in WORKLOADS.iter().enumerate() {
            // Same seed, same inputs: the counts and the failures must
            // repeat exactly, whatever bound the metric carries.
            let (first, again) = (&sets[0][w], &reports[w]);
            if first.counts != again.counts || first.failed != again.failed {
                disagreements += 1;
                println!(
                    "  {} counts or failures differ at the same seed DISAGREE\n    {:?} failed {}\n    {:?} failed {}",
                    spec.name, first.counts, first.failed, again.counts, again.failed
                );
            }
            for def in &END_TO_END {
                let (a, b) = (sets[0][w].metrics[def.name], reports[w].metrics[def.name]);
                let worse = match def.better {
                    Better::Lower => (b - a) / a,
                    Better::Higher => (a - b) / a,
                };
                let verdict = if worse.abs() > def.bound {
                    disagreements += 1;
                    "DISAGREE"
                } else {
                    "ok"
                };
                println!(
                    "  {} {} {a} {b} {} ({} is better) worse by {:+.2}% bound {:.0}% {verdict}",
                    spec.name,
                    def.name,
                    def.unit,
                    def.better.label(),
                    worse * 100.0,
                    def.bound * 100.0,
                );
            }
        }
    }
    if disagreements > 0 {
        return Err(format!(
            "{disagreements} (workload, metric) pairs disagree beyond their bound"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests;
