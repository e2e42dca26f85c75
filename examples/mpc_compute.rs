//! The MPC corollary (Cor. 1.2(2)) in action: a large set of parties
//! computes a joint statistic over private inputs — here, the sum and
//! maximum of private sensor readings — with total communication
//! `n · polylog(n) · poly(κ) · (ℓin + ℓout)` and certified delivery of the
//! output to everyone.
//!
//! ```sh
//! cargo run --release --example mpc_compute
//! ```

use pba_core::mpc::run_mpc;
use polylog_ba::prelude::*;
use std::collections::BTreeMap;

fn main() {
    let n = 128;
    let t = 10;
    println!("== FHE-based MPC over pi_ba: n = {n}, t = {t} Byzantine ==\n");

    // Private inputs: each party holds a 2-byte sensor reading.
    let inputs: Vec<Vec<u8>> = (0..n)
        .map(|i| {
            let reading = (37 * i as u64 % 1000) as u16;
            reading.to_le_bytes().to_vec()
        })
        .collect();

    // The public functional: (sum, max) over included readings.
    let stats = |map: &BTreeMap<u64, Vec<u8>>| -> Vec<u8> {
        let readings: Vec<u16> = map
            .values()
            .filter(|v| v.len() == 2)
            .map(|v| u16::from_le_bytes([v[0], v[1]]))
            .collect();
        let sum: u64 = readings.iter().map(|&r| r as u64).sum();
        let max = readings.iter().copied().max().unwrap_or(0);
        let mut out = sum.to_le_bytes().to_vec();
        out.extend_from_slice(&max.to_le_bytes());
        out
    };

    let scheme = SnarkSrds::with_defaults();
    let config = BaConfig::byzantine(n, t, b"mpc-example");
    let outcome = run_mpc(&scheme, &config, &inputs, stats).expect("mpc below the fault bound");

    let sum = u64::from_le_bytes(outcome.output[..8].try_into().unwrap());
    let max = u16::from_le_bytes(outcome.output[8..10].try_into().unwrap());
    println!("inputs included:   {}/{n}", outcome.inputs_included);
    println!("computed sum:      {sum}");
    println!("computed max:      {max}");
    println!(
        "output certificate: {} bytes",
        outcome.certificate_len.unwrap_or(0)
    );
    println!(
        "total communication: {} bytes ({} per party on average)",
        outcome.report.total_bytes,
        outcome.report.total_bytes / n as u64
    );
    let delivered = outcome.outputs.iter().flatten().count();
    println!("parties with certified output: {delivered}/{n}");
    assert!(delivered >= n - t, "delivery failed");
    println!("\nno party — including the supreme committee — saw any individual reading:");
    println!("inputs travel encrypted, merge homomorphically, and only the");
    println!("threshold-decrypted public output leaves the committee.");
}
