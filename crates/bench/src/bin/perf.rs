//! Perf baseline of the deterministic parallel round engine — emits
//! `BENCH_3.json` (wall time per `(n, threads)` cell, rounds/sec,
//! sequential-vs-parallel speedup, cache hit rates).
//!
//! ```sh
//! cargo run -p pba-bench --bin perf --release [-- --smoke] [-- --out PATH]
//! ```
//!
//! `--smoke` restricts the sweep to n = 64 for CI. All timings are
//! measured, never synthesized: on single-core hosts only the sequential
//! cell exists and the reported speedup is 1.0 by definition; the ≥ 2×
//! parallel target is only asserted where it is physically attainable
//! (4+ hardware threads, full sweep).
#![forbid(unsafe_code)]

use pba_bench::perf::{run_perf, PerfConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_3.json".to_string());
    let config = if smoke {
        PerfConfig::smoke()
    } else {
        PerfConfig::full()
    };

    eprintln!(
        "perf: sizes {:?}, {} rounds/case, host parallelism {}",
        config.sizes,
        config.rounds,
        std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(1)
    );
    let report = run_perf(&config, smoke);

    for case in &report.cases {
        eprintln!(
            "perf: n={:<5} threads={:<3} wall={:>9.2}ms rounds/s={:>8.1}",
            case.n, case.threads, case.wall_ms, case.rounds_per_sec
        );
    }
    for s in &report.speedups {
        eprintln!(
            "perf: n={:<5} speedup x{:.2} ({} threads)",
            s.n, s.speedup, s.threads
        );
    }
    eprintln!(
        "perf: merkle cache {:.1}% hit, cert cache {:.1}% hit, deterministic={}",
        report.merkle_cache.hit_rate() * 100.0,
        report.cert_cache.hit_rate() * 100.0,
        report.deterministic
    );

    assert!(report.deterministic, "thread counts diverged — engine bug");
    for s in &report.speedups {
        assert!(
            s.speedup >= 0.9,
            "parallel engine slower than sequential at n={} (x{:.2})",
            s.n,
            s.speedup
        );
        if !report.smoke && report.host_cores >= 4 && s.n >= 1024 {
            assert!(
                s.speedup >= 2.0,
                "expected >= 2x at n={} with {} threads, got x{:.2}",
                s.n,
                report.host_cores,
                s.speedup
            );
        }
    }

    let json = report.to_json();
    std::fs::write(&out_path, format!("{json}\n")).expect("write BENCH_3.json");
    println!("{json}");
    eprintln!("perf: wrote {out_path}");
}
