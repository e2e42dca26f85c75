//! `pba node` — runs `π_ba` endpoints over real TCP sockets, with the
//! deterministic in-process simulation as differential oracle (§E-socket;
//! see DESIGN.md §3c).
//!
//! ```sh
//! # oracle run (in-process, LocalTransport): prints the transcript digest
//! cargo run -p pba-bench --bin node --release -- sim --n 16
//!
//! # one socket endpoint of a multi-process deployment
//! cargo run -p pba-bench --bin node --release -- run \
//!     --n 16 --endpoints 127.0.0.1:9101,127.0.0.1:9102 --self-idx 0
//!
//! # launch a k-process deployment over loopback and diff vs the oracle
//! cargo run -p pba-bench --bin node --release -- launch --n 16 --k 2
//!
//! # the §E-socket sim-vs-socket measurement table
//! cargo run -p pba-bench --bin node --release -- table --sizes 16,64,256
//! ```
//!
//! `run` prints one JSON line on stdout (see
//! [`pba_bench::socket::endpoint_json`]) and exits nonzero on transport
//! or protocol failure — never hangs (every socket wait is bounded by
//! [`pba_net::TransportOpts`] timeouts).
#![forbid(unsafe_code)]

use pba_bench::socket::{
    endpoint_json, launch_processes, parse_establishment, render_socket_table, socket_table,
    SchemeKind, SocketSpec,
};
use pba_net::PeerMap;
use std::process::ExitCode;

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn spec_from_args(args: &[String], k: usize) -> Result<SocketSpec, String> {
    let n: usize = flag(args, "--n").and_then(|v| v.parse().ok()).unwrap_or(16);
    let seed = flag(args, "--seed").unwrap_or_else(|| "e-socket".into());
    let mut spec = SocketSpec::new(n, k, &seed);
    if let Some(s) = flag(args, "--scheme") {
        spec.scheme = SchemeKind::parse(&s).ok_or(format!("unknown scheme {s} (snark|owf)"))?;
    }
    if let Some(e) = flag(args, "--establishment") {
        spec.establishment = parse_establishment(&e)
            .ok_or(format!("unknown establishment {e} (charged|interactive)"))?;
    }
    if let Some(t) = flag(args, "--tick-base") {
        spec.tick_base = t
            .parse()
            .map_err(|_| format!("--tick-base: not a number: {t}"))?;
    }
    Ok(spec)
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("run `node` with no arguments for usage");
    ExitCode::from(64)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    match cmd {
        "sim" => {
            let spec = match spec_from_args(&args, 1) {
                Ok(spec) => spec,
                Err(e) => return usage_error(&e),
            };
            let run = spec.run_sim();
            println!("{}", endpoint_json(0, &run));
            if run.outcome.is_completed() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            }
        }
        "run" => {
            let endpoints: Vec<String> = match flag(&args, "--endpoints") {
                Some(list) => list.split(',').map(str::to_string).collect(),
                None => return usage_error("--endpoints a,b,... is required"),
            };
            let self_idx: usize = match flag(&args, "--self-idx").map(|v| v.parse()) {
                Some(Ok(i)) if i < endpoints.len() => i,
                _ => return usage_error("--self-idx must name one of the --endpoints"),
            };
            let spec = match spec_from_args(&args, endpoints.len()) {
                Ok(spec) => spec,
                Err(e) => return usage_error(&e),
            };
            let map = PeerMap::contiguous(spec.n, endpoints, self_idx);
            match spec.run_endpoint(map) {
                Ok(run) => {
                    println!("{}", endpoint_json(self_idx, &run));
                    if run.outcome.is_completed() {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::from(2)
                    }
                }
                Err(e) => {
                    eprintln!("endpoint {self_idx}: {e}");
                    ExitCode::from(3)
                }
            }
        }
        "launch" => {
            let k: usize = flag(&args, "--k").and_then(|v| v.parse().ok()).unwrap_or(2);
            let spec = match spec_from_args(&args, k) {
                Ok(spec) => spec,
                Err(e) => return usage_error(&e),
            };
            let exe = std::env::current_exe().expect("current exe");
            let summary = launch_processes(&spec, &exe);
            for line in &summary.lines {
                println!("{line}");
            }
            println!(
                "oracle={} processes={} attempts={} verdict={}",
                summary.sim_digest,
                summary.process_digests.len(),
                summary.attempts,
                if summary.all_match {
                    "MATCH"
                } else {
                    "DIVERGED"
                }
            );
            if summary.all_match {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(4)
            }
        }
        "table" => {
            let raw = flag(&args, "--sizes").unwrap_or_else(|| "16,64,256".into());
            let sizes: Vec<usize> = match raw.split(',').map(str::parse).collect() {
                Ok(sizes) => sizes,
                Err(_) => return usage_error(&format!("--sizes: not a number list: {raw}")),
            };
            let k: usize = flag(&args, "--k").and_then(|v| v.parse().ok()).unwrap_or(2);
            let rows = socket_table(&sizes, k, "e-socket-table");
            println!("== E-socket: sim oracle vs loopback-TCP deployment (k={k}) ==\n");
            print!("{}", render_socket_table(&rows));
            if rows.iter().all(|r| r.digests_match) {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(4)
            }
        }
        _ => {
            eprintln!("usage: node <sim|run|launch|table> [flags]");
            eprintln!("  sim    --n N [--seed S] [--scheme snark|owf] [--establishment charged|interactive]");
            eprintln!(
                "  run    --n N --endpoints a,b,.. --self-idx I [shared flags] [--tick-base T]"
            );
            eprintln!("  launch --n N --k K [shared flags]");
            eprintln!("  table  [--sizes 16,64,256] [--k 2]");
            ExitCode::from(64)
        }
    }
}
