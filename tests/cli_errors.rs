//! Every bad invocation of the `pba` binary ends in an `error:` line and
//! exit code 1 — never a panic (exit 101). The rows are the probe list of
//! `.claude/skills/verify/SKILL.md`.

use std::process::Command;

const PROBES: &[&[&str]] = &[
    &["frobnicate"],
    &["ba", "--n", "many"],
    &["ba", "--n"],
    &["ba", "--n", "3"],
    &["ba", "--n", "30", "--t", "10"],
    &["ba", "--n", "16", "--scheme", "rsa"],
    &["ba", "--n", "16", "--input", "2"],
    &["ba", "--n", "16", "--input", "256"],
    &["ba", "--n", "16", "--input", "abc"],
    &["srds", "--n", "30", "--scheme", "multisig"],
    &["broadcast", "--n", "16", "--sender", "16"],
    &["broadcast", "--n", "16", "--ell", "0"],
    &["broadcast", "--n", "16", "--ell", "70000"],
    &["isolation", "--n", "30", "--t", "3", "--k", "30"],
];

#[test]
fn bad_invocations_fail_cleanly() {
    let mut failures = Vec::new();
    for probe in PROBES {
        let out = Command::new(env!("CARGO_BIN_EXE_pba"))
            .args(*probe)
            .output()
            .expect("spawn pba");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let clean = out.status.code() == Some(1)
            && stderr.lines().any(|l| l.starts_with("error: "))
            && !stderr.contains("panicked");
        if !clean {
            failures.push(format!(
                "pba {}: exit {:?}, stderr starts {:?}",
                probe.join(" "),
                out.status.code(),
                stderr.lines().next().unwrap_or("")
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
