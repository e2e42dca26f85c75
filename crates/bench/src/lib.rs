#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # pba-bench
//!
//! The measurement harness that regenerates the paper's evaluation
//! artifacts as *measured* quantities (see DESIGN.md §4 for the
//! experiment index):
//!
//! * **Table 1** (`cargo run -p pba-bench --bin table1 --release`) — max
//!   communication per party, rounds, and locality for the paper's two
//!   protocols and the baselines, across an `n` sweep, with fitted growth
//!   exponents;
//! * **Figures 1–3 and the corollaries**
//!   (`cargo run -p pba-bench --bin figures --release -- <fig1|fig2|fig3|cor12|lb>`);
//! * **the ablations** (`cargo run -p pba-bench --bin ablations --release`)
//!   — what each knob of the construction buys (leaf multiplicity `z`,
//!   committee size, OWF sortition size, base-signature width);
//! * **the chaos sweep** (`cargo run -p pba-bench --bin chaos --release`)
//!   — fault-injection strategies × corruption placements × sizes, with
//!   agreement/validity invariants checked per case (see [`chaos`]);
//! * **the socket deployment harness**
//!   (`cargo run -p pba-bench --bin node --release -- <sim|run|launch|table>`)
//!   — real-TCP endpoints diffed against the deterministic in-process
//!   oracle by transcript digest, and the §E-socket sim-vs-socket byte
//!   table (see [`socket`]);
//! * **the million-party scaling sweep**
//!   (`cargo run -p pba-bench --bin scale --release [-- --smoke]`) —
//!   full honest `π_ba` rounds up to `n = 2^20` with sparse metrics and
//!   lazy keygen, bits/party vs. the King–Saia `√n` baseline (anchored by
//!   measured runs at every power of two n ∈ {2^6 … 2^10}), wall time,
//!   and peak RSS,
//!   emitted as `BENCH_8.json` (see [`scale`]).
//!
//! Those six bins are the paper's artefacts plus the safety, socket and
//! memory gates. Wall-clock is reported by the benchmark of record under
//! `benchmark/` (see `BENCHMARK.json`), per decision and per layer, and by
//! `scale`'s `wall_ms` column; no other bin times anything.

pub mod chaos;
pub mod scale;
pub mod socket;

use pba_core::baselines::{all_to_all_ba, committee_flood_ba, sqrt_sampling_boost};
use pba_core::protocol::{run_ba, BaConfig};
use pba_crypto::codec::{Decode, Encode};
use pba_net::{Report, TagBreakdown};
use pba_srds::multisig::MultisigSrds;
use pba_srds::owf::{OwfSrds, OwfSrdsConfig};
use pba_srds::snark::SnarkSrds;
use pba_srds::traits::Srds;

/// One measured row: protocol name, `n`, and the honest-party report.
#[derive(Clone, Debug)]
pub struct Row {
    /// Protocol label.
    pub protocol: &'static str,
    /// Setup assumption column of Table 1.
    pub setup: &'static str,
    /// Cryptographic assumption column of Table 1.
    pub assumptions: &'static str,
    /// Number of parties.
    pub n: usize,
    /// The measured communication report.
    pub report: Report,
    /// Certificate size, when the protocol produces one.
    pub certificate: Option<usize>,
    /// Per-(wire tag) honest byte attribution — populated for the `π_ba`
    /// stacks, `None` for the analytic baselines.
    pub breakdown: Option<TagBreakdown>,
}

/// The protocols measured for Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// `π_ba` with the OWF/trusted-PKI SRDS (this work, Cor. 3.2).
    PiBaOwf,
    /// `π_ba` with the SNARK/bare-PKI SRDS (this work, Cor. 3.3).
    PiBaSnark,
    /// `π_ba` with the Θ(n) multisignature certificate (BGT'13-style).
    MultisigBoost,
    /// King–Saia'09-style √n sampling boost.
    SqrtSampling,
    /// CM'19-style committee flood: amortized Õ(1), max Θ(n) (unbalanced).
    CommitteeFlood,
    /// Phase-king over the complete graph.
    AllToAll,
}

impl Protocol {
    /// All measured protocols.
    pub const ALL: [Protocol; 6] = [
        Protocol::PiBaOwf,
        Protocol::PiBaSnark,
        Protocol::MultisigBoost,
        Protocol::SqrtSampling,
        Protocol::CommitteeFlood,
        Protocol::AllToAll,
    ];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Protocol::PiBaOwf => "this work (OWF SRDS)",
            Protocol::PiBaSnark => "this work (SNARK SRDS)",
            Protocol::MultisigBoost => "BGT'13-style multisig",
            Protocol::SqrtSampling => "KS'09-style sqrt-sampling",
            Protocol::CommitteeFlood => "CM'19-style committee flood",
            Protocol::AllToAll => "all-to-all phase-king",
        }
    }

    /// Table 1 "setup" column.
    pub fn setup(&self) -> &'static str {
        match self {
            Protocol::PiBaOwf => "trusted pki",
            Protocol::PiBaSnark => "pki+crs",
            Protocol::MultisigBoost => "pki",
            Protocol::SqrtSampling => "-",
            Protocol::CommitteeFlood => "trusted pki",
            Protocol::AllToAll => "-",
        }
    }

    /// Table 1 "cryptographic assumptions" column.
    pub fn assumptions(&self) -> &'static str {
        match self {
            Protocol::PiBaOwf => "owf",
            Protocol::PiBaSnark => "snarks*+crh",
            Protocol::MultisigBoost => "multisig (owf here)",
            Protocol::SqrtSampling => "-",
            Protocol::CommitteeFlood => "unique-sig (owf here)",
            Protocol::AllToAll => "-",
        }
    }

    /// The paper's asymptotic max-communication-per-party for this row.
    pub fn paper_asymptotic(&self) -> &'static str {
        match self {
            Protocol::PiBaOwf | Protocol::PiBaSnark => "~O(1) (polylog)",
            Protocol::MultisigBoost => "~O(n)",
            Protocol::SqrtSampling => "~O(sqrt n)",
            Protocol::CommitteeFlood => "~O(n) max, ~O(1) avg",
            Protocol::AllToAll => "~O(n t)",
        }
    }
}

/// Corruption fraction used across the sweep (see EXPERIMENTS.md for why
/// 0.1 and not 1/3 − ε at simulation scale).
pub const BETA: f64 = 0.10;

/// The OWF scheme configuration `table1`, `figures` and the socket harness
/// run: W-OTS keys signing 16 digest bits keep the (polylog but κ-heavy)
/// certificates small enough to sweep.
pub fn bench_owf() -> OwfSrds {
    OwfSrds::new(OwfSrdsConfig {
        lamport_bits: 16,
        signer_factor: 8,
        min_signers: 40,
    })
}

fn run_pi_ba<S>(scheme: &S, protocol: Protocol, n: usize, seed: &[u8]) -> Row
where
    S: Srds,
    S::Signature: Encode + Decode,
{
    let t = pba_net::corruption::max_corruptions(n, BETA);
    let mut config = BaConfig::honest(n, seed);
    config.corruption = pba_net::corruption::CorruptionPlan::Random { t };
    let inputs = vec![1u8; n];
    let out = run_ba(scheme, &config, &inputs);
    assert!(
        out.agreement,
        "{} n={n}: agreement failed",
        protocol.label()
    );
    assert!(out.validity, "{} n={n}: validity failed", protocol.label());
    assert!(
        out.tags_conserved,
        "{} n={n}: per-tag attribution drifted from per-party totals",
        protocol.label()
    );
    Row {
        protocol: protocol.label(),
        setup: protocol.setup(),
        assumptions: protocol.assumptions(),
        n,
        report: out.report,
        certificate: out.certificate_len,
        breakdown: Some(out.breakdown),
    }
}

/// Measures one protocol at one size.
pub fn measure(protocol: Protocol, n: usize, seed: &[u8]) -> Row {
    let t = pba_net::corruption::max_corruptions(n, BETA);
    match protocol {
        Protocol::PiBaOwf => run_pi_ba(&bench_owf(), protocol, n, seed),
        Protocol::PiBaSnark => run_pi_ba(&SnarkSrds::with_defaults(), protocol, n, seed),
        Protocol::MultisigBoost => run_pi_ba(&MultisigSrds::with_defaults(), protocol, n, seed),
        Protocol::SqrtSampling => {
            let out = sqrt_sampling_boost(n, t, 0.05, 3.0, seed);
            assert!(out.correct_fraction > 0.98, "sqrt boost failed at n={n}");
            Row {
                protocol: protocol.label(),
                setup: protocol.setup(),
                assumptions: protocol.assumptions(),
                n,
                report: out.report,
                certificate: None,
                breakdown: None,
            }
        }
        Protocol::CommitteeFlood => {
            let out = committee_flood_ba(n, t, 1, seed);
            assert!(
                out.correct_fraction > 0.98,
                "committee flood failed at n={n}"
            );
            Row {
                protocol: protocol.label(),
                setup: protocol.setup(),
                assumptions: protocol.assumptions(),
                n,
                report: out.report,
                certificate: None,
                breakdown: None,
            }
        }
        Protocol::AllToAll => Row {
            protocol: protocol.label(),
            setup: protocol.setup(),
            assumptions: protocol.assumptions(),
            n,
            report: all_to_all_ba(n, 0, 1),
            certificate: None,
            breakdown: None,
        },
    }
}

/// Least-squares fit of `ln y = a + b·x` returning `(slope b, R²)`.
fn linear_fit(xy: &[(f64, f64)]) -> (f64, f64) {
    let n = xy.len() as f64;
    let sx: f64 = xy.iter().map(|(x, _)| x).sum();
    let sy: f64 = xy.iter().map(|(_, y)| y).sum();
    let sxx: f64 = xy.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = xy.iter().map(|(x, y)| x * y).sum();
    let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let intercept = (sy - slope * sx) / n;
    let mean_y = sy / n;
    let ss_tot: f64 = xy.iter().map(|(_, y)| (y - mean_y).powi(2)).sum();
    let ss_res: f64 = xy
        .iter()
        .map(|(x, y)| (y - (intercept + slope * x)).powi(2))
        .sum();
    let r2 = if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    (slope, r2)
}

/// Least-squares slope of `ln(bytes)` against `ln(n)` — the empirical
/// growth exponent `alpha` in `bytes ≈ c·n^alpha`. Polylog protocols show
/// `alpha` near 0 (and shrinking with scale); √n shows ~0.5; linear ~1.
pub fn growth_exponent(points: &[(usize, u64)]) -> f64 {
    power_fit(points).0
}

/// Fits `bytes ≈ c·n^alpha`, returning `(alpha, R²)` of the log-log
/// regression.
pub fn power_fit(points: &[(usize, u64)]) -> (f64, f64) {
    assert!(points.len() >= 2, "need at least two points to fit");
    let logs: Vec<(f64, f64)> = points
        .iter()
        .map(|&(n, b)| ((n as f64).ln(), (b.max(1) as f64).ln()))
        .collect();
    linear_fit(&logs)
}

/// Fits the *polylog* model `bytes ≈ c·(log₂ n)^k`, returning `(k, R²)`.
/// For the paper's protocols this is the right model — the measured
/// per-party cost tracks the `(c·log n)²` committee exchanges, so `k ≈ 2`
/// with high R² while the power fit degrades; for √n/linear baselines the
/// power model wins instead.
pub fn polylog_fit(points: &[(usize, u64)]) -> (f64, f64) {
    assert!(points.len() >= 2, "need at least two points to fit");
    let logs: Vec<(f64, f64)> = points
        .iter()
        .map(|&(n, b)| (((n as f64).log2()).ln(), (b.max(1) as f64).ln()))
        .collect();
    linear_fit(&logs)
}

/// Renders a measured sweep as a Table 1-style text table.
pub fn render_table(rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<26} {:>6} {:>16} {:>14} {:>16} {:>7} {:>9} {:>9}\n",
        "protocol",
        "n",
        "max bytes/party",
        "avg bytes/pty",
        "total bytes",
        "rounds",
        "locality",
        "cert(B)"
    ));
    for row in rows {
        let avg = row.report.total_bytes / row.report.parties.max(1);
        out.push_str(&format!(
            "{:<26} {:>6} {:>16} {:>14} {:>16} {:>7} {:>9} {:>9}\n",
            row.protocol,
            row.n,
            row.report.max_bytes_per_party,
            avg,
            row.report.total_bytes,
            row.report.rounds,
            row.report.max_locality,
            row.certificate
                .map(|c| c.to_string())
                .unwrap_or_else(|| "-".into()),
        ));
    }
    out
}

/// Renders the per-step byte attribution of the `π_ba` rows: for every
/// row carrying a [`TagBreakdown`], one block of Fig. 3-step lines with
/// the honest sent bytes and their share of the row's total. The step
/// rows sum exactly to the row's `total bytes` column (conservation is
/// asserted when the row is measured).
pub fn render_breakdown(rows: &[Row]) -> String {
    let mut out = String::new();
    for row in rows {
        let Some(breakdown) = &row.breakdown else {
            continue;
        };
        let total = breakdown.total_sent().max(1);
        out.push_str(&format!("{}, n={}:\n", row.protocol, row.n));
        for (label, bytes) in breakdown.sent_by_step_label() {
            out.push_str(&format!(
                "  {:<16} {:>14} B  ({:>5.1}%)\n",
                label,
                bytes,
                100.0 * bytes as f64 / total as f64
            ));
        }
        out.push_str(&format!(
            "  {:<16} {:>14} B\n",
            "total",
            breakdown.total_sent()
        ));
    }
    out
}

/// Measures the *certificate size* (the object whose description length is
/// what separates the Table 1 rows asymptotically) by flat tree-style
/// aggregation outside the protocol: everyone signs, batches of 16
/// aggregate, then the batches join.
///
/// Returns the wire size of the verified root certificate.
pub fn certificate_size<S>(scheme: &S, n: usize, seed: &[u8]) -> usize
where
    S: Srds,
{
    let mut prg = pba_crypto::prg::Prg::from_seed_label(seed, "cert-sweep");
    let board = pba_srds::traits::PkiBoard::establish(scheme, n, &mut prg);
    let keys = board.prepare(scheme);
    let message = b"certificate-sweep";
    let sigs: Vec<S::Signature> = (0..n as u64)
        .filter_map(|i| scheme.sign(&board.pp, i, &board.sks[i as usize], message))
        .collect();
    let leaf_aggs: Vec<S::Signature> = sigs
        .chunks(16)
        .filter_map(|chunk| scheme.aggregate(&board.pp, &keys, message, chunk))
        .collect();
    let mut level = leaf_aggs;
    while level.len() > 1 {
        level = level
            .chunks(16)
            .filter_map(|chunk| scheme.aggregate(&board.pp, &keys, message, chunk))
            .collect();
    }
    let root = level.pop().expect("root certificate");
    assert!(
        scheme.verify(&board.pp, &keys, message, &root),
        "certificate failed to verify at n={n}"
    );
    scheme.signature_len(&root)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growth_exponent_recovers_known_shapes() {
        let linear: Vec<(usize, u64)> = (1..=5).map(|k| (100 * k, (100 * k) as u64)).collect();
        assert!((growth_exponent(&linear) - 1.0).abs() < 1e-9);
        let sqrt: Vec<(usize, u64)> = (1..=5)
            .map(|k| {
                let n = 100 * k;
                (n, ((n as f64).sqrt() * 1000.0) as u64)
            })
            .collect();
        assert!((growth_exponent(&sqrt) - 0.5).abs() < 0.01);
        let flat: Vec<(usize, u64)> = (1..=5).map(|k| (100 * k, 42)).collect();
        assert!(growth_exponent(&flat).abs() < 1e-9);
    }

    #[test]
    fn polylog_fit_recovers_log_square() {
        let logsq: Vec<(usize, u64)> = (6..=13)
            .map(|e| {
                let n = 1usize << e;
                (n, ((e * e) as u64) * 1000)
            })
            .collect();
        let (k, r2) = polylog_fit(&logsq);
        assert!((k - 2.0).abs() < 0.01, "k = {k}");
        assert!(r2 > 0.999);
        // The power fit of a log-square curve has a poor exponent near 0.3
        // but the polylog fit is exact — R² tells them apart.
        let (alpha, _) = power_fit(&logsq);
        assert!(alpha < 0.5);
    }

    #[test]
    fn measure_small_rows() {
        for protocol in [
            Protocol::PiBaSnark,
            Protocol::SqrtSampling,
            Protocol::AllToAll,
        ] {
            let row = measure(protocol, 64, b"bench-test");
            assert!(row.report.max_bytes_per_party > 0, "{:?}", protocol);
        }
    }

    #[test]
    fn render_contains_rows() {
        let row = measure(Protocol::AllToAll, 64, b"bench-test");
        let table = render_table(&[row]);
        assert!(table.contains("all-to-all"));
        assert!(table.contains("64"));
    }

    #[test]
    fn pi_ba_rows_carry_step_breakdown() {
        let row = measure(Protocol::PiBaSnark, 64, b"bench-test");
        let breakdown = row.breakdown.as_ref().expect("pi_ba row has breakdown");
        assert_eq!(breakdown.total_sent(), row.report.total_bytes);
        let rendered = render_breakdown(std::slice::from_ref(&row));
        for label in ["1:establish", "3:disseminate", "5:aggregate", "7-8:spread"] {
            assert!(rendered.contains(label), "missing step row {label}");
        }
        // Baseline rows carry no breakdown and render to nothing.
        let a2a = measure(Protocol::AllToAll, 64, b"bench-test");
        assert!(a2a.breakdown.is_none());
        assert!(render_breakdown(std::slice::from_ref(&a2a)).is_empty());
    }
}
