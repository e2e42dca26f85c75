//! Regenerates **Table 1** of the paper as measured quantities:
//! max communication per party across almost-everywhere → everywhere
//! protocols, with empirical growth exponents.
//!
//! ```sh
//! cargo run -p pba-bench --bin table1 --release [-- --max-n 2048]
//! ```
#![forbid(unsafe_code)]

use pba_bench::{
    bench_owf, certificate_size, growth_exponent, measure, polylog_fit, power_fit,
    render_breakdown, render_table, Protocol, Row, BETA,
};
use pba_srds::multisig::MultisigSrds;
use pba_srds::snark::SnarkSrds;
use std::process::ExitCode;

const SIZES: [usize; 13] = [
    64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096,
];

/// `--max-n <n>` (default 2048), refused unless it is a number that leaves
/// the fits the two sizes they need.
fn max_n_from(args: &[String]) -> Result<usize, String> {
    let Some(at) = args.iter().position(|a| a == "--max-n") else {
        return Ok(2048);
    };
    let value = args.get(at + 1).ok_or("--max-n needs a value")?;
    let max_n: usize = value
        .parse()
        .map_err(|_| format!("--max-n: not a number: {value}"))?;
    if max_n < SIZES[1] {
        return Err(format!(
            "--max-n {max_n}: the fits need two sizes, so at least {}",
            SIZES[1]
        ));
    }
    Ok(max_n)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let max_n = match max_n_from(&args) {
        Ok(max_n) => max_n,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(64);
        }
    };
    let sizes: Vec<usize> = SIZES.into_iter().filter(|&n| n <= max_n).collect();

    println!("== Table 1 (measured): almost-everywhere -> everywhere agreement ==");
    println!("   corruption: beta = {BETA} random; honest inputs unanimous\n");

    type Fit = (Protocol, (f64, f64), (f64, f64), f64);
    let mut all_rows: Vec<Row> = Vec::new();
    let mut fits: Vec<Fit> = Vec::new();
    for protocol in Protocol::ALL {
        let mut rows = Vec::new();
        for &n in &sizes {
            // The OWF scheme is compute-heavy; cap its sweep.
            if protocol == Protocol::PiBaOwf && n > 2048 {
                continue;
            }
            let seed = format!("table1/{}/{}", protocol.label(), n);
            rows.push(measure(protocol, n, seed.as_bytes()));
        }
        let max_points: Vec<(usize, u64)> = rows
            .iter()
            .map(|r| (r.n, r.report.max_bytes_per_party))
            .collect();
        let total_points: Vec<(usize, u64)> =
            rows.iter().map(|r| (r.n, r.report.total_bytes)).collect();
        fits.push((
            protocol,
            power_fit(&max_points),
            polylog_fit(&max_points),
            growth_exponent(&total_points),
        ));
        all_rows.extend(rows);
    }

    println!("{}", render_table(&all_rows));

    println!("== model fits for max bytes/party ==\n");
    println!("   power model:   bytes ~ c * n^alpha          (right for sqrt/linear protocols)");
    println!("   polylog model: bytes ~ c * (log2 n)^k       (right for this work's protocols)\n");
    println!(
        "{:<26} {:>18} {:>12} {:>10} {:>12} {:>10} {:>12}",
        "protocol", "paper", "alpha", "R2", "k(polylog)", "R2", "alpha(total)"
    );
    for (protocol, (a_max, r2_max), (k_poly, r2_poly), a_total) in &fits {
        println!(
            "{:<26} {:>18} {:>12.3} {:>10.3} {:>12.2} {:>10.3} {:>12.3}",
            protocol.label(),
            protocol.paper_asymptotic(),
            a_max,
            r2_max,
            k_poly,
            r2_poly,
            a_total
        );
    }
    breakdown_table(&all_rows);
    certificate_table(max_n);

    println!(
        "\nreference rows (lower bounds, not protocols):\n\
           HKK'08:    >= Omega(n^(1/3)) messages for some party, crs, static filtering\n\
           this work: >= Omega(n) for one-shot boost in crs model (Thm 1.3); owf needed with pki (Thm 1.4)\n\
         \nexpected shape: the two SRDS rows stay near-flat (polylog), the\n\
         sqrt-sampling row grows ~n^0.5, multisig boost and all-to-all grow ~n."
    );
    ExitCode::SUCCESS
}

/// Where the bytes of the Table 1 totals go: the per-(Fig. 3 step) wire
/// attribution of the SNARK and multisig `π_ba` stacks at the largest
/// measured size. Step rows sum exactly to the `total bytes` column —
/// conservation against the untyped per-party counters is asserted at
/// measurement time.
fn breakdown_table(all_rows: &[Row]) {
    println!("\n== per-step byte attribution (honest sent bytes, Fig. 3 steps) ==\n");
    for protocol in [Protocol::PiBaSnark, Protocol::MultisigBoost] {
        let row = all_rows
            .iter()
            .filter(|r| r.protocol == protocol.label() && r.breakdown.is_some())
            .max_by_key(|r| r.n);
        if let Some(row) = row {
            println!("{}", render_breakdown(std::slice::from_ref(row)));
        }
    }
    println!(
        "expected shape: step 5 (tree aggregation) dominates both stacks --\n\
         every internal node's committee runs the aggregation exchange; the\n\
         multisig stack's 6:certify bytes grow faster with n (the Theta(n)\n\
         bitmap certificate descends the tree) while the SNARK stack's\n\
         track the constant 121 B proof."
    );
}

/// The certificate is the object whose description length drives the
/// asymptotic separation; sweep it to larger n than full protocol runs.
fn certificate_table(max_n: usize) {
    println!("\n== certificate sizes (bytes) vs n ==\n");
    let sizes: Vec<usize> = [64usize, 256, 1024, 4096, 16384]
        .into_iter()
        .filter(|&n| n <= max_n.max(4096) * 16)
        .collect();
    println!(
        "{:<10} {:>14} {:>14} {:>14}",
        "n", "OWF SRDS", "SNARK SRDS", "multisig"
    );
    let mut owf_points = Vec::new();
    let mut snark_points = Vec::new();
    let mut multi_points = Vec::new();
    for &n in &sizes {
        let seed = format!("cert/{n}");
        let owf = certificate_size(&bench_owf(), n, seed.as_bytes());
        let snark = certificate_size(&SnarkSrds::with_defaults(), n, seed.as_bytes());
        let multi = certificate_size(&MultisigSrds::with_defaults(), n, seed.as_bytes());
        println!("{:<10} {:>14} {:>14} {:>14}", n, owf, snark, multi);
        owf_points.push((n, owf as u64));
        snark_points.push((n, snark as u64));
        multi_points.push((n, multi as u64));
    }
    println!(
        "\nfitted certificate growth alpha: owf {:.3} (polylog*poly(kappa)), \
         snark {:.3} (constant), multisig {:.3} (-> 1, the Theta(n) signer set)",
        growth_exponent(&owf_points),
        growth_exponent(&snark_points),
        growth_exponent(&multi_points)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_n_is_a_number_that_leaves_two_sizes() {
        let parse =
            |args: &[&str]| max_n_from(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>());
        assert_eq!(parse(&[]), Ok(2048));
        assert_eq!(parse(&["--max-n", "96"]), Ok(96));
        // `abc` used to run at 2048 without a word; `0` used to panic in
        // `power_fit` ("need at least two points").
        for bad in [&["--max-n", "abc"][..], &["--max-n"], &["--max-n", "0"]] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
