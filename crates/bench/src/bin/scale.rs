//! Million-party scaling sweep — emits `BENCH_8.json` (max/avg bits per
//! party, wall time, peak RSS, sparse-metrics cell counts, and the
//! King–Saia `√n` baseline column, per size).
//!
//! ```sh
//! cargo run -p pba-bench --bin scale --release [-- --smoke] [-- --out PATH]
//! ```
//!
//! The full sweep runs one honest `π_ba` round at n = 2^10 … 2^20;
//! `--smoke` restricts it to n ∈ {2^10, 2^16} and arms the peak-RSS
//! budget assertion (the CI memory regression gate).
#![forbid(unsafe_code)]

use pba_bench::scale::{parse_args, run_scale, ScaleConfig};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (smoke, out_path) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("usage: scale [--smoke] [--out <path>]");
            return ExitCode::from(64);
        }
    };
    let config = if smoke {
        ScaleConfig::smoke()
    } else {
        ScaleConfig::full()
    };

    eprintln!(
        "scale: sizes {:?}, rss budget {:?} MiB, host_cores {}, sha256_backend {}",
        config.sizes,
        config.rss_budget_mib,
        std::thread::available_parallelism().map_or(1, |v| v.get()),
        pba_crypto::sha256::backend(),
    );
    let report = run_scale(&config, smoke);

    eprintln!(
        "scale: polylog fit k={:.2} (R²={:.3}); power fit alpha={:.3} (R²={:.3})",
        report.polylog_fit.0, report.polylog_fit.1, report.power_fit.0, report.power_fit.1
    );
    let json = report.to_json();
    std::fs::write(&out_path, &json).expect("write BENCH_8.json");
    eprintln!("scale: wrote {out_path}");
    println!("{json}");
    ExitCode::SUCCESS
}
