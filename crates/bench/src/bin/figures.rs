//! Regenerates the paper's figures as executable measurements:
//!
//! * `fig1` — the SRDS robustness experiment (Figure 1) across schemes,
//!   sizes and adversaries: accept rate (must be 1.0) and certificate size;
//! * `fig2` — the SRDS forgery experiment (Figure 2): forgery rate (must
//!   be 0.0);
//! * `fig3` — the `π_ba` protocol (Figure 3): per-step communication
//!   breakdown;
//! * `cor12` — the broadcast corollary (Cor. 1.2(1)): amortization over ℓ
//!   executions;
//! * `lb` — the lower-bound isolation attack (Theorems 1.3/1.4);
//! * `e9` — the FHE-based MPC corollary (Cor. 1.2(2)): total communication
//!   vs input length.
//!
//! ```sh
//! cargo run -p pba-bench --bin figures --release -- fig1 fig2 fig3 cor12 lb e9
//! ```
#![forbid(unsafe_code)]

use pba_bench::bench_owf;
use pba_core::lowerbound::{isolation_attack_crs, isolation_attack_with_srds};
use pba_core::protocol::{run_ba, BaConfig};
use pba_net::corruption::max_corruptions;
use pba_net::PartyId;
use pba_srds::experiments::{
    run_forgery, run_robustness, AggregateForgeryAdversary, DefaultRobustnessAdversary,
    ReplayRobustnessAdversary,
};
use pba_srds::snark::{SnarkSrds, SnarkSrdsConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let wanted = |name: &str| args.is_empty() || args.iter().any(|a| a == name);

    if wanted("fig1") {
        fig1();
    }
    if wanted("fig2") {
        fig2();
    }
    if wanted("fig3") {
        fig3();
    }
    if wanted("cor12") {
        cor12();
    }
    if wanted("lb") {
        lb();
    }
    if wanted("e9") {
        e9();
    }
}

fn fig1() {
    println!("== Figure 1: SRDS robustness experiment Expt^robust ==\n");
    println!(
        "{:<14} {:>6} {:>4} {:<10} {:>8} {:>9} {:>9} {:>8}",
        "scheme", "n", "t", "adversary", "verified", "isolated", "goodleaf", "cert(B)"
    );
    for n in [128usize, 256, 512] {
        let t = max_corruptions(n, 0.10);
        for (adv_name, replay) in [("default", false), ("replay", true)] {
            let seed = format!("fig1/{n}/{adv_name}");
            let owf = bench_owf();
            let out = if replay {
                run_robustness(&owf, n, t, &mut ReplayRobustnessAdversary, seed.as_bytes())
            } else {
                run_robustness(&owf, n, t, &mut DefaultRobustnessAdversary, seed.as_bytes())
            }
            .expect("well-posed robustness run");
            print_fig1_row("owf", n, t, adv_name, &out);

            let snark = SnarkSrds::with_defaults();
            let out = if replay {
                run_robustness(
                    &snark,
                    n,
                    t,
                    &mut ReplayRobustnessAdversary,
                    seed.as_bytes(),
                )
            } else {
                run_robustness(
                    &snark,
                    n,
                    t,
                    &mut DefaultRobustnessAdversary,
                    seed.as_bytes(),
                )
            }
            .expect("well-posed robustness run");
            print_fig1_row("snark", n, t, adv_name, &out);
        }
    }
    println!("\nexpected: verified = true on every row (accept rate 1.0).\n");
}

fn print_fig1_row(
    scheme: &str,
    n: usize,
    t: usize,
    adv: &str,
    out: &pba_srds::experiments::RobustnessOutcome,
) {
    println!(
        "{:<14} {:>6} {:>4} {:<10} {:>8} {:>9} {:>9.3} {:>8}",
        scheme,
        n,
        t,
        adv,
        out.verified,
        out.isolated_honest,
        out.good_leaf_fraction,
        out.root_signature_len.unwrap_or(0)
    );
}

fn fig2() {
    println!("== Figure 2: SRDS forgery experiment Expt^forge ==\n");
    println!(
        "{:<14} {:>6} {:>4} {:>8} {:>8}",
        "scheme", "n", "t", "seduced", "forged"
    );
    for n in [120usize, 240, 480] {
        let t = n / 10;
        let seed = format!("fig2/{n}");
        let owf = bench_owf();
        let out = run_forgery(
            &owf,
            n,
            t,
            &mut AggregateForgeryAdversary::default(),
            seed.as_bytes(),
        )
        .expect("well-posed forgery run");
        println!(
            "{:<14} {:>6} {:>4} {:>8} {:>8}",
            "owf", n, t, out.seduced, out.forged
        );
        let snark = SnarkSrds::with_defaults();
        let out = run_forgery(
            &snark,
            n,
            t,
            &mut AggregateForgeryAdversary::default(),
            seed.as_bytes(),
        )
        .expect("well-posed forgery run");
        println!(
            "{:<14} {:>6} {:>4} {:>8} {:>8}",
            "snark", n, t, out.seduced, out.forged
        );
    }
    println!("\nexpected: forged = false on every row (forgery rate 0.0).\n");
}

fn fig3() {
    println!("== Figure 3: pi_ba per-step communication breakdown ==\n");
    for n in [256usize, 1024] {
        let t = max_corruptions(n, 0.10);
        let scheme = SnarkSrds::new(SnarkSrdsConfig::default());
        let config = BaConfig::byzantine(n, t, format!("fig3/{n}").as_bytes());
        let out = run_ba(&scheme, &config, &vec![1u8; n]);
        assert!(out.agreement && out.validity);
        println!(
            "--- SNARK SRDS, n = {n}, t = {t} Byzantine: max bytes/party = {} ---",
            out.report.max_bytes_per_party
        );
        println!(
            "{:<30} {:>14} {:>18}",
            "step", "total bytes", "max/party so far"
        );
        for step in &out.steps {
            println!(
                "{:<30} {:>14} {:>18}",
                step.label, step.total_bytes, step.max_bytes_after
            );
        }
        println!();
    }
}

fn cor12() {
    println!("== Corollary 1.2(1): broadcast amortization over one session ==\n");
    let n = 256;
    let t = max_corruptions(n, 0.10);
    println!("n = {n}, t = {t} Byzantine, sender = P18\n");
    println!(
        "{:<6} {:>18} {:>22}",
        "ell", "max bytes/party", "amortized per exec"
    );
    for ell in [1usize, 2, 4, 8] {
        let scheme = SnarkSrds::new(SnarkSrdsConfig {
            mss_bits: 32,
            mss_height: 3,
        });
        let config = BaConfig::byzantine(n, t, format!("cor12/{ell}").as_bytes());
        let values: Vec<u8> = (0..ell).map(|i| (i % 2) as u8).collect();
        let out = pba_core::broadcast::run_broadcasts(&scheme, &config, PartyId(17), &values);
        assert!(out.all_delivered, "broadcast failed at ell={ell}");
        println!(
            "{:<6} {:>18} {:>22.0}",
            ell,
            out.final_report.max_bytes_per_party,
            out.amortized_max_bytes_per_party()
        );
    }
    println!("\nexpected: amortized per-execution cost roughly flat in ell.\n");
}

fn e9() {
    println!("== Corollary 1.2(2): FHE-based MPC — total communication vs input length ==\n");
    let n = 96;
    let t = max_corruptions(n, 0.10);
    println!("n = {n}, t = {t} Byzantine, XOR functional\n");
    println!(
        "{:<12} {:>16} {:>16} {:>10}",
        "ell_in (B)", "total bytes", "max bytes/party", "included"
    );
    for len in [4usize, 32, 256, 1024] {
        let scheme = SnarkSrds::with_defaults();
        let config = BaConfig::byzantine(n, t, format!("e9/{len}").as_bytes());
        let inputs: Vec<Vec<u8>> = (0..n).map(|i| vec![(i % 251) as u8; len]).collect();
        let out = pba_core::mpc::run_mpc(&scheme, &config, &inputs, |map| {
            let mut acc = vec![0u8; len];
            for v in map.values() {
                for (a, b) in acc.iter_mut().zip(v) {
                    *a ^= b;
                }
            }
            acc
        })
        .expect("mpc below the fault bound");
        println!(
            "{:<12} {:>16} {:>16} {:>9}/{n}",
            len, out.report.total_bytes, out.report.max_bytes_per_party, out.inputs_included
        );
    }
    println!("\nexpected: total grows ~linearly in ell_in on top of the polylog\nmachinery floor — the n*polylog*(ell_in+ell_out) bound.\n");
}

fn lb() {
    println!("== Theorems 1.3/1.4: isolation attack on a one-shot o(n) boost ==\n");
    let n = 300;
    let t = 90;
    println!("n = {n}, t = {t}; victim isolated; honest parties send to k peers\n");
    println!("--- CRS model (no PKI) ---");
    println!(
        "{:<6} {:>8} {:>12} {:>8}",
        "k", "honest", "adversarial", "fooled"
    );
    for k in [4usize, 8, 16, 64, 250] {
        let out = isolation_attack_crs(n, t, k, b"lb");
        println!(
            "{:<6} {:>8} {:>12} {:>8}",
            k, out.honest_msgs, out.adversarial_msgs, out.victim_fooled
        );
    }
    println!("\n--- with SRDS certificates (PKI + OWF) ---");
    println!(
        "{:<6} {:>8} {:>12} {:>8}",
        "k", "verified", "forged-ok", "fooled"
    );
    let scheme = bench_owf();
    for k in [4usize, 8] {
        let out = isolation_attack_with_srds(&scheme, n, t, k, b"lb");
        println!(
            "{:<6} {:>8} {:>12} {:>8}",
            k, out.honest_msgs, out.adversarial_msgs, out.victim_fooled
        );
    }
    println!("\nexpected: fooled = true in the CRS model for k << t; never with SRDS.\n");
}
