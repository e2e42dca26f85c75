//! Million-party scaling harness (§E-scale).
//!
//! Runs one full honest `π_ba` round (SNARK SRDS, charged establishment,
//! lazy key instantiation) at party counts up to `n = 2^20` and records,
//! per size: max/avg bits per party, wall time, the process peak RSS
//! after the case, how many sparse metrics cells actually materialized,
//! how many peer groups the metrics table interned (the number that
//! explains the RSS column: a party's peers are references into those
//! groups, not a list of its own) and how many bytes of public key residue
//! the lazy signer keeps (the RSS that signing without a whole keygen
//! costs). A King–Saia'09-style `√n` column — the *measured*
//! bits/party of [`sqrt_sampling_boost`] at the anchor size `n₀ = 2^10`,
//! extrapolated by `√(n/n₀)` — rides along so the polylog bend is visible
//! against the barrier the paper breaks. The binary
//! (`cargo run -p pba-bench --bin scale --release`) renders the result as
//! `BENCH_8.json`.
//!
//! `--smoke` restricts the sweep to n ∈ {2^10, 2^16} and asserts a peak
//! RSS budget at the top size — the memory regression gate of the CI
//! `scale-smoke` job: a reintroduced dense per-party table or held
//! signing keys blow the budget long before they reach 2^20.
//!
//! The √n column is anchored by *measurement*, not by formula: the
//! King–Saia boost actually runs at every power of two n ∈ {2^6 … 2^10}
//! and the measured bits/party of each anchor land in the JSON
//! (`sqrt_anchors`), so the ~0.5 growth exponent of the baseline is
//! itself a measured quantity; only sizes above the largest anchor are
//! extrapolated by `√(n/n₀)`.

use pba_core::baselines::sqrt_sampling_boost;
use pba_core::protocol::{BaConfig, KeyPolicy, Service};
use pba_srds::snark::SnarkSrds;
use std::time::Instant;

/// Parameters of one scaling sweep.
#[derive(Clone, Debug)]
pub struct ScaleConfig {
    /// Party counts to run (ascending).
    pub sizes: Vec<usize>,
    /// Peak-RSS budget in MiB asserted after the *largest* size, when
    /// set. `None` disables the gate (full sweep: measurement, not CI).
    pub rss_budget_mib: Option<f64>,
}

impl ScaleConfig {
    /// The full sweep of ISSUE 8: n = 2^10 … 2^20 in ×4 steps.
    pub fn full() -> Self {
        ScaleConfig {
            sizes: (5..=10).map(|e| 1usize << (2 * e)).collect(),
            rss_budget_mib: None,
        }
    }

    /// CI smoke variant: n ∈ {2^10, 2^16} with the memory regression
    /// budget armed: 224 MiB against the 164 MiB measured peak on the
    /// reference host (8 MiB of it the lazy signer's key residue, 128 B a
    /// party), i.e. ≈ 36 % headroom. The gate is tight enough to catch a
    /// per-key heap object: the memoised proof map every `MerkleTree`
    /// used to carry measured 247 MiB on the same host. An O(n²) metrics
    /// table, held signing keys or a private peer list per party (1,236.5
    /// MiB before peers were held by reference) overshoot it several
    /// times over.
    pub fn smoke() -> Self {
        ScaleConfig {
            sizes: vec![1 << 10, 1 << 16],
            rss_budget_mib: Some(224.0),
        }
    }
}

/// Parses the `scale` binary's arguments (program name already dropped)
/// into `(smoke, out_path)`. Anything but `--smoke` and `--out <path>` is
/// an error: an unrecognised flag must not fall through to the full sweep,
/// which takes minutes and gigabytes and overwrites `BENCH_8.json`.
pub fn parse_args(args: &[String]) -> Result<(bool, String), String> {
    let (mut smoke, mut out) = (false, "BENCH_8.json".to_string());
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => match args.next() {
                Some(path) if !path.starts_with("--") => out = path.clone(),
                _ => return Err("--out needs a path".to_string()),
            },
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok((smoke, out))
}

/// One measured size.
#[derive(Clone, Debug)]
pub struct ScaleCase {
    /// Number of parties.
    pub n: usize,
    /// Max honest bits sent+received per party.
    pub max_bits_per_party: u64,
    /// Average honest bits per party.
    pub avg_bits_per_party: u64,
    /// Total honest bytes on the wire.
    pub total_bytes: u64,
    /// Synchronous rounds.
    pub rounds: u64,
    /// Wall-clock milliseconds for the whole case (establishment + round).
    pub wall_ms: f64,
    /// Process peak RSS in MiB *after* this case (`VmHWM`, monotone
    /// across the ascending sweep — the largest size dominates).
    pub peak_rss_mib: f64,
    /// Sparse metrics cells that materialized (parties actually charged).
    pub metrics_cells: usize,
    /// Distinct peer groups the metrics table interned
    /// ([`pba_net::MetricsTable::peer_groups`]): the committees of the
    /// tree, which every cell's peers are references into.
    pub peer_groups: usize,
    /// Bytes of public key residue the lazy signer holds
    /// ([`Service::key_residue_bytes`]): z = 2 slots a party × 2^1 one-time
    /// verification keys × 32 B = 128 · n, in one flat vector.
    pub key_residue_bytes: usize,
    /// King–Saia √n baseline bits/party: measured at the anchor size and
    /// extrapolated as `anchor · √(n/n₀)`.
    pub sqrt_baseline_bits: u64,
}

/// One *measured* King–Saia √n-sampling anchor: the boost protocol
/// actually ran at this size and this is what an honest party paid.
#[derive(Clone, Copy, Debug)]
pub struct SqrtAnchor {
    /// Party count the baseline ran at.
    pub n: usize,
    /// Measured max bits per party.
    pub bits_per_party: u64,
}

/// The full scaling report rendered into `BENCH_8.json`.
#[derive(Clone, Debug)]
pub struct ScaleReport {
    /// Whether this was the `--smoke` variant.
    pub smoke: bool,
    /// Engine lane width ([`pba_crypto::sha256::LANES`]) of the build.
    pub lanes: usize,
    /// `std::thread::available_parallelism()` of the measuring host.
    pub host_cores: usize,
    /// [`pba_crypto::sha256::backend`] of the measuring host: every wall
    /// time in the report was hashed on this compression core.
    pub sha256_backend: &'static str,
    /// Measured √n anchors at n ∈ {2^6, 2^7, 2^8, 2^9, 2^10} (ascending).
    pub sqrt_anchors: Vec<SqrtAnchor>,
    /// Measured √n-baseline bits/party at the anchor size `n₀ = 2^10`
    /// (the last entry of [`Self::sqrt_anchors`]).
    pub anchor_sqrt_bits: u64,
    /// All measured sizes.
    pub cases: Vec<ScaleCase>,
    /// `(k, R²)` of the polylog fit `bits ≈ c·(log₂ n)^k` over max
    /// bits/party.
    pub polylog_fit: (f64, f64),
    /// `(α, R²)` of the power fit `bits ≈ c·n^α` — near 0 for `π_ba`,
    /// 0.5 by construction for the baseline column.
    pub power_fit: (f64, f64),
}

impl ScaleReport {
    /// Hand-rolled JSON (no serde in the tree — same convention as
    /// [`pba_net::Report::to_json`]).
    pub fn to_json(&self) -> String {
        let cases: Vec<String> = self
            .cases
            .iter()
            .map(|c| {
                format!(
                    concat!(
                        "{{\"n\":{},\"max_bits_per_party\":{},",
                        "\"avg_bits_per_party\":{},\"total_bytes\":{},",
                        "\"rounds\":{},\"wall_ms\":{:.1},\"peak_rss_mib\":{:.1},",
                        "\"metrics_cells\":{},\"peer_groups\":{},",
                        "\"key_residue_bytes\":{},\"sqrt_baseline_bits\":{}}}"
                    ),
                    c.n,
                    c.max_bits_per_party,
                    c.avg_bits_per_party,
                    c.total_bytes,
                    c.rounds,
                    c.wall_ms,
                    c.peak_rss_mib,
                    c.metrics_cells,
                    c.peer_groups,
                    c.key_residue_bytes,
                    c.sqrt_baseline_bits,
                )
            })
            .collect();
        let anchors: Vec<String> = self
            .sqrt_anchors
            .iter()
            .map(|a| format!("{{\"n\":{},\"bits_per_party\":{}}}", a.n, a.bits_per_party))
            .collect();
        format!(
            concat!(
                "{{\"bench\":\"million-party-scaling\",",
                "\"smoke\":{},",
                "\"lanes\":{},",
                "\"host_cores\":{},",
                "\"sha256_backend\":\"{}\",",
                "\"sqrt_anchors\":[{}],",
                "\"anchor_sqrt_bits\":{},",
                "\"polylog_fit\":{{\"k\":{:.4},\"r2\":{:.4}}},",
                "\"power_fit\":{{\"alpha\":{:.4},\"r2\":{:.4}}},",
                "\"cases\":[{}]}}"
            ),
            self.smoke,
            self.lanes,
            self.host_cores,
            self.sha256_backend,
            anchors.join(","),
            self.anchor_sqrt_bits,
            self.polylog_fit.0,
            self.polylog_fit.1,
            self.power_fit.0,
            self.power_fit.1,
            cases.join(","),
        )
    }
}

/// Process peak RSS (`VmHWM`) in MiB, from `/proc/self/status`; 0.0 where
/// procfs is unavailable (non-Linux hosts — the budget gate is skipped
/// there rather than asserted against a fabricated number).
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kib: f64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0.0);
            return kib / 1024.0;
        }
    }
    0.0
}

/// Anchor size for the √n baseline column (the largest measured anchor).
const SQRT_ANCHOR_N: usize = 1 << 10;

/// Sizes the King–Saia baseline is actually *run* at: every power of two
/// from 2^6 up to the 2^10 anchor, so the √n fit rests on five measured
/// points rather than three.
const SQRT_ANCHOR_SIZES: [usize; 5] = [64, 128, 256, 512, SQRT_ANCHOR_N];

/// Runs the King–Saia √n-sampling boost at each anchor size and records
/// the measured max bits/party.
pub fn measure_sqrt_anchors() -> Vec<SqrtAnchor> {
    SQRT_ANCHOR_SIZES
        .iter()
        .map(|&n| {
            let t = pba_net::corruption::max_corruptions(n, crate::BETA);
            let ks = sqrt_sampling_boost(n, t, 0.05, 3.0, b"scale-ks-anchor");
            assert!(
                ks.correct_fraction > 0.98,
                "sqrt-sampling anchor failed at n={n}"
            );
            SqrtAnchor {
                n,
                bits_per_party: ks.report.max_bytes_per_party * 8,
            }
        })
        .collect()
}

/// Runs one honest `π_ba` case at size `n` and measures it.
fn run_case(n: usize, anchor_sqrt_bits: u64) -> ScaleCase {
    let config = BaConfig::honest(n, b"scale-sweep").with_key_policy(KeyPolicy::Lazy);
    let scheme = SnarkSrds::with_defaults();
    let inputs = vec![1u8; n];
    let start = Instant::now();
    let mut session = Service::try_establish(&scheme, &config).expect("honest establishment");
    let committee_inputs = session.robust_committee_inputs(&inputs);
    let round = session
        .try_certified_round(&committee_inputs)
        .expect("honest certified round");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    assert!(
        round.outputs.iter().all(|o| *o == Some(1)),
        "honest run at n={n} failed to deliver the unanimous input to everyone"
    );
    let report = session.report();
    let metrics_cells = session.net.metrics().allocated_cells();
    let peer_groups = session.net.metrics().peer_groups();
    let key_residue_bytes = session.key_residue_bytes();
    let parties = report.parties.max(1);
    ScaleCase {
        n,
        max_bits_per_party: report.max_bytes_per_party * 8,
        avg_bits_per_party: report.total_bytes / parties * 8,
        total_bytes: report.total_bytes,
        rounds: report.rounds,
        wall_ms,
        peak_rss_mib: peak_rss_mib(),
        metrics_cells,
        peer_groups,
        key_residue_bytes,
        sqrt_baseline_bits: ((anchor_sqrt_bits as f64) * (n as f64 / SQRT_ANCHOR_N as f64).sqrt())
            as u64,
    }
}

/// Runs the sweep.
///
/// # Panics
///
/// Panics when any case fails to reach unanimous agreement, or — with a
/// budget armed — when the process peak RSS after the largest size
/// exceeds it (the memory regression gate).
pub fn run_scale(config: &ScaleConfig, smoke: bool) -> ScaleReport {
    let sqrt_anchors = measure_sqrt_anchors();
    for a in &sqrt_anchors {
        eprintln!(
            "scale: sqrt-anchor n={:<5} measured {:>9} bits/party",
            a.n, a.bits_per_party
        );
    }
    let anchor_sqrt_bits = sqrt_anchors
        .last()
        .expect("at least one anchor")
        .bits_per_party;

    let mut cases = Vec::new();
    for &n in &config.sizes {
        let case = run_case(n, anchor_sqrt_bits);
        eprintln!(
            "scale: n=2^{:<2} max {:>9} bits/party (sqrt-baseline {:>10})  wall {:>9.0}ms  rss {:>7.1}MiB  cells {}/{}  groups {}  key-residue {}B",
            n.trailing_zeros(),
            case.max_bits_per_party,
            case.sqrt_baseline_bits,
            case.wall_ms,
            case.peak_rss_mib,
            case.metrics_cells,
            n,
            case.peer_groups,
            case.key_residue_bytes,
        );
        cases.push(case);
    }

    if let Some(budget) = config.rss_budget_mib {
        let peak = cases.last().map(|c| c.peak_rss_mib).unwrap_or(0.0);
        if peak > 0.0 {
            assert!(
                peak <= budget,
                "memory regression: peak RSS {peak:.1} MiB exceeds the {budget:.1} MiB budget \
                 at n={}",
                cases.last().map(|c| c.n).unwrap_or(0),
            );
        }
    }

    let points: Vec<(usize, u64)> = cases
        .iter()
        .map(|c| (c.n, c.max_bits_per_party / 8))
        .collect();
    ScaleReport {
        smoke,
        lanes: pba_crypto::sha256::LANES,
        host_cores: std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(1),
        sha256_backend: pba_crypto::sha256::backend(),
        sqrt_anchors,
        anchor_sqrt_bits,
        polylog_fit: crate::polylog_fit(&points),
        power_fit: crate::power_fit(&points),
        cases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arguments_are_smoke_and_out_and_nothing_else() {
        let parse =
            |args: &[&str]| parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>());
        assert_eq!(parse(&[]), Ok((false, "BENCH_8.json".into())));
        assert_eq!(parse(&["--smoke"]), Ok((true, "BENCH_8.json".into())));
        assert_eq!(parse(&["--out", "x", "--smoke"]), Ok((true, "x".into())));
        // Each of these used to start the full 2^20 sweep.
        assert_eq!(parse(&["--smok"]), Err("unknown argument --smok".into()));
        assert_eq!(parse(&["--bogus"]), Err("unknown argument --bogus".into()));
        assert_eq!(parse(&["--out"]), Err("--out needs a path".into()));
        assert!(parse(&["--out", "--smoke"]).is_err());
    }

    #[test]
    fn smoke_case_is_polylog_sized_and_sparse() {
        let case = run_case(1 << 10, 1_000_000);
        assert!(case.max_bits_per_party > 0);
        // Lazy keygen + sparse metrics: a full honest run still touches
        // every party (dissemination reaches everyone), so cells == n —
        // the sparsity win is at the *table construction* and in partial
        // runs; what we pin here is that the count is exact, not padded.
        assert!(case.metrics_cells <= 1 << 10);
        // Peers are held by reference to the tree's committees: fewer
        // groups than parties, however many exchanges ran over them.
        assert!((1..1 << 10).contains(&case.peer_groups));
        // What Lazy keeps to sign without a whole keygen: one flat stride
        // of 2^1 one-time verification keys for each of the z = 2 slots a
        // party owns, and nothing per-slot beside it.
        assert_eq!(case.key_residue_bytes, 128 << 10);
        assert_eq!(case.sqrt_baseline_bits, 1_000_000);
    }

    #[test]
    fn report_renders_json() {
        let report = ScaleReport {
            smoke: true,
            lanes: pba_crypto::sha256::LANES,
            host_cores: 1,
            sha256_backend: "portable",
            sqrt_anchors: vec![SqrtAnchor {
                n: 64,
                bits_per_party: 512,
            }],
            anchor_sqrt_bits: 8,
            cases: vec![],
            polylog_fit: (2.0, 0.99),
            power_fit: (0.1, 0.9),
        };
        let json = report.to_json();
        assert!(json.contains("\"bench\":\"million-party-scaling\""));
        assert!(json.contains("\"lanes\":8"));
        assert!(json.contains("\"host_cores\":1"));
        assert!(json.contains("\"sha256_backend\":\"portable\""));
        assert!(json.contains("\"polylog_fit\""));
        assert!(json.contains("\"sqrt_anchors\":[{\"n\":64,\"bits_per_party\":512}]"));
    }

    #[test]
    fn measured_anchors_grow_like_sqrt() {
        let anchors = measure_sqrt_anchors();
        assert_eq!(
            anchors.iter().map(|a| a.n).collect::<Vec<_>>(),
            vec![64, 128, 256, 512, 1024]
        );
        let points: Vec<(usize, u64)> = anchors
            .iter()
            .map(|a| (a.n, a.bits_per_party / 8))
            .collect();
        let (alpha, _) = crate::power_fit(&points);
        assert!(
            (0.25..=0.75).contains(&alpha),
            "measured King-Saia growth exponent {alpha:.3} strayed from ~0.5"
        );
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mib() > 0.0);
        }
    }
}
