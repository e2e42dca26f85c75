//! Pipelined BA-as-a-service throughput — emits `BENCH_9.json`
//! (decisions/sec and setup amortization per `(n, k)` cell, streamed vs.
//! independent, plus the rounds hidden by certification chaining).
//!
//! ```sh
//! cargo run -p pba-bench --bin pipeline --release [-- --smoke] [-- --out PATH]
//! ```
//!
//! `--smoke` restricts the grid to n = 64, k ∈ {1, 4} for the CI
//! `pipeline-smoke` job. The ≥ 2× amortization gate is asserted only on
//! the full grid's n = 1024, k = 16 cell.
#![forbid(unsafe_code)]

use pba_bench::pipeline::{run_pipeline, PipelineConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_9.json".to_string());
    let config = if smoke {
        PipelineConfig::smoke()
    } else {
        PipelineConfig::full()
    };

    eprintln!(
        "pipeline: sizes {:?} x streams {:?}",
        config.sizes, config.streams
    );
    let report = run_pipeline(&config, smoke);

    if !smoke {
        let headline = report
            .cells
            .iter()
            .find(|c| c.n == 1024 && c.k == 16)
            .expect("full grid contains the n=1024, k=16 cell");
        assert!(
            headline.amortized_speedup >= 2.0,
            "amortization target missed: x{:.2} at n=1024, k=16",
            headline.amortized_speedup
        );
        eprintln!(
            "pipeline: headline n=1024 k=16 — {:.2} decisions/sec streamed, x{:.2} amortized",
            headline.streamed_decisions_per_sec, headline.amortized_speedup
        );
    }

    let json = report.to_json();
    std::fs::write(&out_path, format!("{json}\n")).expect("write BENCH_9.json");
    println!("{json}");
    eprintln!("pipeline: wrote {out_path}");
}
