//! Ablations over the design choices DESIGN.md calls out: what each knob
//! of the construction buys, measured.
//!
//! ```sh
//! cargo run -p pba-bench --bin ablations --release
//! ```
//!
//! * **A1 — repeated leaf membership (`z`, Def. 3.4):** how many honest
//!   parties end up isolated as `z` grows, under random corruption. This
//!   is the reason the paper assigns each party to `O(log⁴n)` leaves
//!   instead of one.
//! * **A2 — committee size:** the probability that some committee loses
//!   its 2/3-honest majority, as a function of the size factor — the
//!   concentration reality behind the β = 0.1 benchmarking regime.
//! * **A3 — OWF sortition size (`s`):** empirical forgery rate of the
//!   sortition SRDS against a maximal `n/3` coalition vs the expected
//!   signer count — the concrete-security margin finding (DESIGN.md §4b).
//! * **A4 — base-signature size (κ knob):** SRDS base/aggregate signature
//!   sizes vs the signed digest width of the W-OTS keys.
#![forbid(unsafe_code)]

use pba_aetree::analysis::TreeAnalysis;
use pba_aetree::params::TreeParams;
use pba_aetree::tree::Tree;
use pba_crypto::prg::Prg;
use pba_net::corruption::CorruptionPlan;
use pba_srds::experiments::{run_forgery, AggregateForgeryAdversary};
use pba_srds::owf::{OwfSrds, OwfSrdsConfig};
use pba_srds::snark::{SnarkSrds, SnarkSrdsConfig};
use pba_srds::traits::{PkiBoard, Srds};

fn main() {
    ablation_z();
    ablation_committee_size();
    ablation_sortition();
    ablation_kappa();
}

fn ablation_z() {
    println!("== A1: repeated leaf membership z (Def. 3.4) ==\n");
    println!("n = 1024, beta = 0.15 random corruption, 10 trials per cell\n");
    println!(
        "{:<4} {:>18} {:>22}",
        "z", "avg bad-leaf frac", "avg isolated honest"
    );
    let n = 1024;
    let t = (n as f64 * 0.15) as usize;
    for z in [1usize, 2, 4, 8] {
        let params = TreeParams::scaled(n, z);
        let mut bad_frac = 0.0;
        let mut isolated = 0usize;
        let trials = 10;
        for trial in 0..trials {
            let seed = format!("ablation-z/{z}/{trial}");
            let tree = Tree::build(&params, seed.as_bytes());
            let mut prg = Prg::from_seed_bytes(seed.as_bytes());
            let corrupt = CorruptionPlan::Random { t }.materialize(n, &mut prg);
            let analysis = TreeAnalysis::analyze(&tree, &corrupt);
            bad_frac += 1.0 - analysis.good_leaf_fraction();
            isolated += analysis
                .isolated()
                .iter()
                .filter(|p| !corrupt.contains(p))
                .count();
        }
        println!(
            "{:<4} {:>18.4} {:>22.1}",
            z,
            bad_frac / trials as f64,
            isolated as f64 / trials as f64
        );
    }
    println!(
        "\nexpected: isolated honest parties drop rapidly with z once past the\n\
         parity artifact — Def. 3.4's criterion is a STRICT majority of good\n\
         leaf memberships, so even z is harsher than z-1 (at z = 2 a single\n\
         bad leaf already isolates). The protocol recovers isolated parties\n\
         in steps 7-8 regardless; z buys them the direct certified path.\n"
    );
}

fn ablation_committee_size() {
    println!("== A2: committee size vs honest-supermajority failure ==\n");
    println!("n = 1024, 40 trees per cell; \"fail\" = any internal committee >= 1/3 corrupt\n");
    println!(
        "{:<10} {:>10} {:>16} {:>16}",
        "factor", "size", "fail @ beta=0.10", "fail @ beta=0.25"
    );
    let n = 1024usize;
    let logn = 11usize; // ceil(log2 1024) + 1 margin matches scaled()
    for factor in [1usize, 2, 3, 5, 8] {
        let mut params = TreeParams::scaled(n, 2);
        params.committee_size = (factor * logn).min(n);
        let mut fails = [0usize; 2];
        let trials = 40;
        for (bi, beta) in [0.10f64, 0.25].into_iter().enumerate() {
            let t = (n as f64 * beta) as usize;
            for trial in 0..trials {
                let seed = format!("ablation-c/{factor}/{beta}/{trial}");
                let tree = Tree::build(&params, seed.as_bytes());
                let mut prg = Prg::from_seed_bytes(seed.as_bytes());
                let corrupt = CorruptionPlan::Random { t }.materialize(n, &mut prg);
                let analysis = TreeAnalysis::analyze(&tree, &corrupt);
                let any_bad = (1..tree.height())
                    .any(|lvl| (0..tree.nodes_at_level(lvl)).any(|nd| !analysis.is_good(lvl, nd)));
                if any_bad {
                    fails[bi] += 1;
                }
            }
        }
        println!(
            "{:<10} {:>10} {:>15.0}% {:>15.0}%",
            factor,
            params.committee_size,
            100.0 * fails[0] as f64 / trials as f64,
            100.0 * fails[1] as f64 / trials as f64
        );
    }
    println!("\nexpected: failures vanish with committee size at beta = 0.10 but\npersist at beta = 0.25 — the asymptotic-vs-concrete gap of DESIGN.md §4b.\n");
}

fn ablation_sortition() {
    println!("== A3: OWF sortition size s vs forgery margin ==\n");
    println!("n = 240, maximal n/3 coalition, 30 forgery games per cell\n");
    println!(
        "{:<18} {:>12} {:>14} {:>14}",
        "signer config", "s (approx)", "forgeries", "cert bytes"
    );
    let n = 240;
    let t = n / 10;
    for (factor, min_s) in [(2usize, 8usize), (4, 16), (6, 24), (10, 48), (20, 120)] {
        let scheme = OwfSrds::new(OwfSrdsConfig {
            lamport_bits: 16,
            signer_factor: factor,
            min_signers: min_s,
        });
        let mut forged = 0usize;
        let trials = 30;
        for trial in 0..trials {
            let seed = format!("ablation-s/{factor}/{trial}");
            let out = run_forgery(
                &scheme,
                n,
                t,
                &mut AggregateForgeryAdversary::default(),
                seed.as_bytes(),
            )
            .expect("well-posed");
            if out.forged {
                forged += 1;
            }
        }
        // Certificate size from a flat aggregation.
        let cert = pba_bench::certificate_size(&scheme, n, b"ablation-s-cert");
        let s_approx = (factor * 8).max(min_s); // log2(240) ~ 8
        println!(
            "{:<18} {:>12} {:>11}/{trials} {:>14}",
            format!("factor={factor},min={min_s}"),
            s_approx,
            forged,
            cert
        );
    }
    println!("\nexpected: forgeries at small s (the √(3s)/6-sigma margin), zero at\nthe widened defaults — certificate size is the price.\n");
}

fn ablation_kappa() {
    println!("== A4: W-OTS digest width (kappa knob) vs signature sizes ==\n");
    println!(
        "{:<8} {:>20} {:>20} {:>22}",
        "bits", "owf base sig (B)", "owf cert (B)", "snark base sig (B)"
    );
    for bits in [16usize, 32, 64, 128] {
        let owf = OwfSrds::new(OwfSrdsConfig {
            lamport_bits: bits,
            signer_factor: 6,
            min_signers: 24,
        });
        let mut prg = Prg::from_seed_bytes(b"ablation-k");
        let board = PkiBoard::establish(&owf, 128, &mut prg);
        let base = (0..128u64)
            .find_map(|i| owf.sign(&board.pp, i, &board.sks[i as usize], b"m"))
            .expect("a signer exists");
        let owf_base = owf.signature_len(&base);
        let owf_cert = pba_bench::certificate_size(&owf, 128, b"ablation-k-cert");

        let snark = SnarkSrds::new(SnarkSrdsConfig {
            mss_bits: bits,
            mss_height: 1,
        });
        let sboard = PkiBoard::establish(&snark, 16, &mut prg);
        let ssig = snark
            .sign(&sboard.pp, 0, &sboard.sks[0], b"m")
            .expect("snark signs");
        println!(
            "{:<8} {:>20} {:>20} {:>22}",
            bits,
            owf_base,
            owf_cert,
            snark.signature_len(&ssig)
        );
    }
    println!("\nexpected: base signatures carry one 32-byte chain value per base-16 digit\n(bits/4 plus 2-3 checksum digits); the SNARK *aggregate* stays 121 B\nregardless (not shown: it is constant).\n");
}
