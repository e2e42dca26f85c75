//! `pba` — the command-line entry point of the `polylog-ba` reproduction.
//!
//! ```text
//! pba ba        --n 256 --t 25 --scheme snark --byzantine     # run π_ba
//! pba broadcast --n 128 --t 12 --ell 4 --sender 7             # Cor. 1.2(1)
//! pba mpc       --n 128 --t 10                                # Cor. 1.2(2)
//! pba srds      --n 300 --t 30 --scheme owf                   # Figs. 1–2 games
//! pba isolation --n 300 --t 90 --k 8                          # Thms 1.3/1.4
//! ```
//!
//! Flags are `--key value` pairs with sensible defaults; `--help` prints
//! usage. Argument parsing is hand-rolled to keep the dependency set to the
//! approved list.
#![forbid(unsafe_code)]

use pba_core::broadcast::run_broadcasts;
use pba_core::lowerbound::{isolation_attack_crs, isolation_attack_with_srds};
use pba_core::mpc::run_mpc;
use polylog_ba::prelude::*;
use std::collections::BTreeMap;
use std::process::ExitCode;

struct Args {
    flags: BTreeMap<String, String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut flags = BTreeMap::new();
        let mut it = raw.iter();
        while let Some(key) = it.next() {
            if let Some(name) = key.strip_prefix("--") {
                if name == "byzantine" || name == "help" {
                    flags.insert(name.to_string(), "true".to_string());
                } else {
                    let value = it
                        .next()
                        .ok_or_else(|| format!("--{name} expects a value"))?;
                    flags.insert(name.to_string(), value.clone());
                }
            } else {
                return Err(format!("unexpected argument {key}"));
            }
        }
        Ok(Args { flags })
    }

    fn usize_or(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: not a number: {v}")),
        }
    }

    fn str_or(&self, key: &str, default: &str) -> String {
        self.flags
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    fn bool(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }
}

const USAGE: &str = "\
pba — Byzantine agreement with polylog bits per party (Boyle–Cohen–Goel, PODC 2021)

USAGE:
    pba <command> [--key value ...]

COMMANDS:
    ba          run the balanced BA protocol pi_ba (Fig. 3)
                  --n <parties=256> --t <corruptions=n/10> --scheme <snark|owf|multisig>
                  --input <bit=1> --seed <string> [--byzantine]
    broadcast   run ell broadcast executions over one session (Cor. 1.2(1))
                  --n --t --ell <executions=4> --sender <id=0> [--byzantine]
    mpc         compute XOR of private inputs via threshold FHE (Cor. 1.2(2))
                  --n --t --len <input bytes=4> [--byzantine]
    srds        run the Figure 1/2 security games
                  --n <srds parties=300> --t --scheme <snark|owf>
    isolation   the Theorem 1.3/1.4 isolation attack
                  --n --t --k <messages per honest party=8>

Growth sweeps and tables: use the pba-bench binaries (table1, figures, ablations).
";

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("--help") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let Some((command, rest)) = raw.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let args = match Args::parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if args.bool("help") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let result = match command.as_str() {
        "ba" => cmd_ba(&args),
        "broadcast" => cmd_broadcast(&args),
        "mpc" => cmd_mpc(&args),
        "srds" => cmd_srds(&args),
        "isolation" => cmd_isolation(&args),
        other => Err(format!("unknown command {other}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn config_from(args: &Args) -> Result<BaConfig, String> {
    let n = args.usize_or("n", 256)?;
    if n < 4 {
        return Err(format!("--n {n}: need at least 4 parties"));
    }
    let t = args.usize_or("t", n / 10)?;
    if 3 * t >= n {
        return Err(format!("t = {t} must be below n/3 = {}", n / 3));
    }
    let seed = args.str_or("seed", "pba-cli");
    let mut config = if t == 0 {
        BaConfig::honest(n, seed.as_bytes())
    } else {
        BaConfig::byzantine(n, t, seed.as_bytes())
    };
    if !args.bool("byzantine") {
        config.profile = AdversaryProfile::Passive;
    }
    Ok(config)
}

fn print_report(report: &Report) {
    println!("  rounds:            {}", report.rounds);
    println!("  max bytes/party:   {}", report.max_bytes_per_party);
    println!(
        "  avg bytes/party:   {}",
        report.total_bytes / report.parties.max(1)
    );
    println!("  total bytes:       {}", report.total_bytes);
    println!("  max locality:      {}", report.max_locality);
}

/// A protocol-level failure (stall, disagreement, timeout, corruption past
/// the bound) is an `error:` line and a failing exit code, never a panic.
fn completed(outcome: RunOutcome) -> Result<BaOutcome, String> {
    match outcome {
        RunOutcome::Completed(out) => Ok(out),
        RunOutcome::Failed { phase, reason } => Err(format!("pi_ba failed in {phase}: {reason}")),
    }
}

fn run_ba_with(scheme_name: &str, config: &BaConfig, inputs: &[u8]) -> Result<BaOutcome, String> {
    completed(match scheme_name {
        "snark" => try_run_ba(&SnarkSrds::with_defaults(), config, inputs),
        "owf" => try_run_ba(&OwfSrds::with_defaults(), config, inputs),
        "multisig" => try_run_ba(&MultisigSrds::with_defaults(), config, inputs),
        other => return Err(format!("unknown scheme {other} (snark|owf|multisig)")),
    })
}

fn cmd_ba(args: &Args) -> Result<(), String> {
    let config = config_from(args)?;
    let input = args.usize_or("input", 1)? as u8;
    let scheme = args.str_or("scheme", "snark");
    println!(
        "pi_ba: n = {}, corruption = {:?}, profile = {:?}, scheme = {scheme}, \
         host_cores = {}, sha256_backend = {}",
        config.n,
        config.corruption,
        config.profile,
        std::thread::available_parallelism().map_or(1, |v| v.get()),
        pba_crypto::sha256::backend(),
    );
    let inputs = vec![input; config.n];
    let out = run_ba_with(&scheme, &config, &inputs)?;
    println!("  agreement:         {}", out.agreement);
    println!(
        "  output:            {:?} (validity: {})",
        out.output, out.validity
    );
    println!(
        "  certificate:       {} bytes",
        out.certificate_len.unwrap_or(0)
    );
    print_report(&out.report);
    println!("  per-step bytes:");
    for step in &out.steps {
        println!("    {:<28} {:>14}", step.label, step.total_bytes);
    }
    if out.agreement {
        Ok(())
    } else {
        Err("agreement failed".into())
    }
}

fn cmd_broadcast(args: &Args) -> Result<(), String> {
    let config = config_from(args)?;
    let ell = args.usize_or("ell", 4)?;
    if ell == 0 {
        return Err("--ell 0: need at least one broadcast execution".into());
    }
    // One one-time key per execution, with a spare level of headroom.
    let mss_height = (usize::BITS - (ell - 1).leading_zeros()) as usize + 1;
    let max_height = pba_crypto::mss::MssParams::MAX_HEIGHT;
    if mss_height > max_height {
        return Err(format!(
            "--ell {ell}: needs an MSS tree of height {mss_height}, above the \
             simulator's limit of {max_height} (at most {} executions)",
            1usize << (max_height - 1)
        ));
    }
    let sender_idx = args.usize_or("sender", 0)?;
    if sender_idx >= config.n {
        return Err(format!(
            "--sender {sender_idx} out of range for n = {}",
            config.n
        ));
    }
    let sender = PartyId(sender_idx as u64);
    let scheme = pba_srds::snark::SnarkSrds::new(pba_srds::snark::SnarkSrdsConfig {
        mss_bits: 32,
        mss_height,
    });
    println!(
        "broadcast: n = {}, sender = {sender}, ell = {ell} executions",
        config.n
    );
    let values: Vec<u8> = (0..ell).map(|i| (i % 2) as u8).collect();
    let out = run_broadcasts(&scheme, &config, sender, &values);
    println!("  all delivered:     {}", out.all_delivered);
    println!(
        "  amortized max bytes/party/exec: {:.0}",
        out.amortized_max_bytes_per_party()
    );
    print_report(&out.final_report);
    Ok(())
}

fn cmd_mpc(args: &Args) -> Result<(), String> {
    let config = config_from(args)?;
    let len = args.usize_or("len", 4)?;
    println!("mpc: n = {}, XOR over {len}-byte private inputs", config.n);
    let inputs: Vec<Vec<u8>> = (0..config.n)
        .map(|i| (0..len).map(|j| (i * 31 + j) as u8).collect())
        .collect();
    let out = run_mpc(&SnarkSrds::with_defaults(), &config, &inputs, |map| {
        let mut acc = vec![0u8; len];
        for v in map.values() {
            for (a, b) in acc.iter_mut().zip(v) {
                *a ^= b;
            }
        }
        acc
    });
    println!("  inputs included:   {}/{}", out.inputs_included, config.n);
    println!("  output:            {:02x?}", out.output);
    println!(
        "  delivered to:      {}/{} parties",
        out.outputs.iter().flatten().count(),
        config.n
    );
    print_report(&out.report);
    Ok(())
}

fn cmd_srds(args: &Args) -> Result<(), String> {
    let n = args.usize_or("n", 300)?;
    if n < 12 {
        return Err(format!("--n {n}: need at least 12 SRDS parties"));
    }
    let t = args.usize_or("t", n / 10)?;
    if 3 * t >= n {
        return Err(format!("t = {t} must be below n/3 = {}", n / 3));
    }
    let scheme_name = args.str_or("scheme", "snark");
    println!("SRDS security games: n = {n}, t = {t}, scheme = {scheme_name}");
    let (robust, forged, cert) = match scheme_name.as_str() {
        "snark" => {
            let s = SnarkSrds::with_defaults();
            let r = run_robustness(&s, n, t, &mut DefaultRobustnessAdversary, b"cli")
                .map_err(|e| e.to_string())?;
            let f = run_forgery(&s, n, t, &mut AggregateForgeryAdversary::default(), b"cli")
                .map_err(|e| e.to_string())?;
            (r.verified, f.forged, r.root_signature_len)
        }
        "owf" => {
            let s = OwfSrds::with_defaults();
            let r = run_robustness(&s, n, t, &mut DefaultRobustnessAdversary, b"cli")
                .map_err(|e| e.to_string())?;
            let f = run_forgery(&s, n, t, &mut AggregateForgeryAdversary::default(), b"cli")
                .map_err(|e| e.to_string())?;
            (r.verified, f.forged, r.root_signature_len)
        }
        other => return Err(format!("unknown scheme {other} (snark|owf)")),
    };
    println!("  Fig.1 robustness:  verified = {robust} (expect true)");
    println!("  Fig.2 forgery:     forged = {forged} (expect false)");
    println!("  certificate:       {} bytes", cert.unwrap_or(0));
    if robust && !forged {
        Ok(())
    } else {
        Err("security game failed".into())
    }
}

fn cmd_isolation(args: &Args) -> Result<(), String> {
    let n = args.usize_or("n", 300)?;
    let t = args.usize_or("t", 90)?;
    let k = args.usize_or("k", 8)?;
    if 3 * t >= n {
        return Err(format!("t = {t} must be below n/3 = {}", n / 3));
    }
    if k >= n {
        return Err(format!("--k {k} must be below n = {n} (o(n) messages)"));
    }
    println!("isolation attack: n = {n}, t = {t}, k = {k}");
    let crs = isolation_attack_crs(n, t, k, b"cli");
    println!(
        "  CRS model:   victim saw {} honest vs {} adversarial -> fooled = {}",
        crs.honest_msgs, crs.adversarial_msgs, crs.victim_fooled
    );
    let srds = isolation_attack_with_srds(&OwfSrds::with_defaults(), n, t, k, b"cli");
    println!(
        "  with SRDS:   {} verified certificates, {} forged -> fooled = {}",
        srds.honest_msgs, srds.adversarial_msgs, srds.victim_fooled
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_run_maps_to_an_error_line() {
        let stalled = ProtocolError::Stalled {
            phase: ProtocolPhase::Certification,
            delivered: 7,
            honest: 40,
        };
        assert_eq!(
            completed(stalled.into()).unwrap_err(),
            "pi_ba failed in certification: certification stalled: \
             only 7 of 40 honest parties obtained output"
        );
    }

    #[test]
    fn over_bound_run_is_an_error_not_a_panic() {
        // 3 * 16 = 48: establishment refuses the corruption plan.
        let config = BaConfig::byzantine(48, 16, b"cli-over-bound");
        let err = run_ba_with("owf", &config, &[1u8; 48]).unwrap_err();
        assert!(err.starts_with("pi_ba failed in establishment"), "{err}");
    }
}
