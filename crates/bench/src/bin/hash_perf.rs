//! Scalar-vs-batched baseline of the multi-lane SHA-256 engine — emits
//! `BENCH_5.json` (per-primitive microbenches, end-to-end rounds/sec with
//! scalar and batched hashing, bit-identity gate).
//!
//! ```sh
//! cargo run -p pba-bench --bin hash_perf --release [-- --smoke] [-- --out PATH]
//! ```
//!
//! `--smoke` shrinks every dimension for CI but keeps the equivalence
//! gates: the run fails if the batched engine and the one-at-a-time path
//! ever disagree on a single digest or transcript, on whichever
//! compression backend the host selected (printed, and stamped into the
//! JSON as `sha256_backend`). The ≥ 1.5× speedup bar is asserted only on
//! full runs (smoke sizes are too small to time meaningfully) and only on
//! the `portable-cores` row — the portable scalar core against the
//! portable 8-lane core, called directly: through the dispatching APIs a
//! SHA-NI host runs one kernel on both sides, so a ratio there says
//! nothing about the lane engine.
#![forbid(unsafe_code)]

use pba_bench::hash_perf::{run_hash_perf, HashPerfConfig};

/// The measured BENCH_3 end-to-end baseline at n=1024 (chained scalar
/// grind, one worker): the batched engine must beat it.
const BENCH3_N1024_ROUNDS_PER_SEC: f64 = 11.627;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_5.json".to_string());
    let config = if smoke {
        HashPerfConfig::smoke()
    } else {
        HashPerfConfig::full()
    };

    eprintln!(
        "hash_perf: sha256_backend {}, e2e sizes {:?}, {} rounds/case, {} digests/round, micro reps {}",
        pba_crypto::sha256::backend(),
        config.sizes,
        config.rounds,
        config.hash_iters,
        config.micro_reps
    );
    let report = run_hash_perf(&config, smoke);

    for m in &report.micro {
        eprintln!(
            "hash_perf: {:<16} scalar={:>9.2}ms batched={:>9.2}ms x{:.2} identical={}",
            m.name,
            m.scalar_ms,
            m.batched_ms,
            m.speedup(),
            m.identical
        );
    }
    for c in &report.e2e {
        eprintln!(
            "hash_perf: n={:<5} scalar={:>8.2} r/s batched={:>8.2} r/s x{:.2} identical={}",
            c.n,
            c.scalar_rounds_per_sec,
            c.batched_rounds_per_sec,
            c.speedup(),
            c.identical
        );
    }

    // The hard gate, smoke or full: batched output must be bit-identical
    // to the one-at-a-time path everywhere it was compared, on the backend
    // this host runs.
    assert!(
        report.digests_identical(),
        "batched and scalar digests diverged on the {} backend — engine bug",
        report.sha256_backend
    );

    if !smoke {
        let portable = report
            .micro
            .iter()
            .find(|m| m.name == "portable-cores")
            .expect("the portable-cores row is always measured");
        assert!(
            portable.speedup() >= 1.5,
            "portable lane core below the 1.5x acceptance bar over the portable scalar core (x{:.2})",
            portable.speedup()
        );
        for c in &report.e2e {
            if c.n >= 1024 {
                assert!(
                    c.batched_rounds_per_sec > BENCH3_N1024_ROUNDS_PER_SEC,
                    "n={} batched {:.3} r/s not above the BENCH_3 baseline {:.3}",
                    c.n,
                    c.batched_rounds_per_sec,
                    BENCH3_N1024_ROUNDS_PER_SEC
                );
            }
        }
    }

    let json = report.to_json();
    std::fs::write(&out_path, format!("{json}\n")).expect("write BENCH_5.json");
    println!("{json}");
    eprintln!("hash_perf: wrote {out_path}");
}
