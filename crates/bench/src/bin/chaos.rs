//! Chaos sweep CLI: runs the fault-injection matrix and prints a verdict
//! table. Exits non-zero when any invariant is violated.
//!
//! ```text
//! cargo run -p pba-bench --bin chaos --release -- [SEED]
//! ```
//!
//! `SEED` (optional, default `chaos-cli`) is mixed into every case's
//! execution seed, so two invocations with the same seed produce
//! identical sweeps. Violations print a `CHAOS-REPRO` line with the
//! exact configuration to replay.
#![forbid(unsafe_code)]

use pba_bench::chaos::{
    default_cases, default_stream_cases, render_sweep, run_case, run_stream_case, ChaosReport,
};

fn main() {
    let seed = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "chaos-cli".into());
    let cases = default_cases(seed.as_bytes());
    eprintln!(
        "chaos sweep: {} cases (seed base {seed:?}); each line prints as it finishes",
        cases.len()
    );
    let mut reports = Vec::with_capacity(cases.len());
    for case in &cases {
        let verdict = run_case(case);
        eprintln!(
            "  {:>4}  {:<11}  {:<16}  {:<34}  {}",
            case.n,
            case.establishment.label(),
            case.plan.label(),
            case.spec.label(),
            verdict.label()
        );
        reports.push(ChaosReport {
            case: case.clone(),
            verdict,
        });
    }
    print!("{}", render_sweep(&reports));

    // Mid-stream arming: a strategy switched on between instances of a
    // long-lived service (the golden rows of tests/chaos_sweep.rs).
    let stream_cases = default_stream_cases(seed.as_bytes());
    eprintln!(
        "chaos stream: {} mid-stream arming cases",
        stream_cases.len()
    );
    let mut stream_violation = false;
    for case in &stream_cases {
        let report = run_stream_case(case);
        println!("{:<50}  {}", report.case.key(), report.verdicts);
        stream_violation |= report.verdicts.contains("VIOLATION");
    }

    if reports.iter().any(|r| r.verdict.is_violation()) || stream_violation {
        std::process::exit(1);
    }
}
