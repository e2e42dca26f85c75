//! Chaos sweep as a regression gate: every case in the default
//! fault-injection matrix must either complete with agreement + validity
//! or degrade gracefully to a structured failure. Honest-side panics,
//! disagreement, and validity breaks are violations and fail the test
//! with a `CHAOS-REPRO` line that replays the offending case.
//!
//! On top of the invariants, [`golden_outcome_table`] pins the exact
//! verdict of every case under the CI seed. The table documents the
//! robust-aggregation upgrade: the committee-takeover and structured
//! placements that used to stall certification (σ_root never formed over
//! the single-copy ascent) now reach agreement over redundant paths,
//! while over-bound plans — including the adaptive one — are still
//! rejected at the establishment bound check. The timing rows pin the
//! partial-synchrony driver: bounded latency and healed partitions are
//! absorbed, whole-run churn times out gracefully, and nothing violates.

use pba_bench::chaos::{
    default_cases, default_stream_cases, render_sweep, run_case, run_stream_case, run_sweep,
    ChaosReport, ChaosVerdict,
};
use pba_net::corruption::CorruptionPlan;
use std::sync::OnceLock;

/// The full CI-seed sweep, run once and shared by every test in this file
/// (a debug-mode sweep is ~1 min; running it per-test would dominate
/// tier-1 time).
fn sweep() -> &'static [ChaosReport] {
    static SWEEP: OnceLock<Vec<ChaosReport>> = OnceLock::new();
    SWEEP.get_or_init(|| run_sweep(&default_cases(b"chaos-ci")))
}

/// Expected verdict per case under seed `chaos-ci`, keyed by
/// `n establishment plan strategy`. Regenerate with
/// `cargo run --release -p pba-bench --bin chaos -- chaos-ci`.
const GOLDEN: &[(&str, &str)] = &[
    ("48 charged random-4 silent", "agreed(Some(1))"),
    ("48 charged explicit-10 silent", "agreed(Some(1))"),
    ("48 charged random-4 equivocate", "agreed(Some(1))"),
    ("48 charged explicit-12 equivocate", "agreed(Some(1))"),
    ("48 charged random-4 equivocate-typed", "agreed(Some(1))"),
    ("48 charged explicit-11 equivocate-typed", "agreed(Some(1))"),
    ("48 charged random-4 garble-bitflip", "agreed(Some(1))"),
    ("48 charged explicit-12 garble-bitflip", "agreed(Some(1))"),
    ("48 charged random-4 garble-truncate", "agreed(Some(1))"),
    ("48 charged explicit-11 garble-truncate", "agreed(Some(1))"),
    ("48 charged random-4 garble-both", "agreed(Some(1))"),
    ("48 charged explicit-11 garble-both", "agreed(Some(1))"),
    ("48 charged random-4 garble-field", "agreed(Some(1))"),
    ("48 charged explicit-12 garble-field", "agreed(Some(1))"),
    ("48 charged random-4 replay-3", "agreed(Some(1))"),
    ("48 charged explicit-11 replay-3", "agreed(Some(1))"),
    ("48 charged random-4 flood-512x8", "agreed(Some(1))"),
    ("48 charged explicit-11 flood-512x8", "agreed(Some(1))"),
    ("48 charged random-4 crash@4(equivocate)", "agreed(Some(1))"),
    (
        "48 charged explicit-12 crash@4(equivocate)",
        "agreed(Some(1))",
    ),
    (
        "48 charged random-4 compose[equivocate+flood-256x4]",
        "agreed(Some(1))",
    ),
    (
        "48 charged explicit-12 compose[equivocate+flood-256x4]",
        "agreed(Some(1))",
    ),
    (
        "48 charged random-4 phased[0:garble-bitflip,3:equivocate,8:replay-2]",
        "agreed(Some(1))",
    ),
    (
        "48 charged explicit-11 phased[0:garble-bitflip,3:equivocate,8:replay-2]",
        "agreed(Some(1))",
    ),
    ("48 charged random-4 delay-uni1-b2", "agreed(Some(1))"),
    ("48 charged explicit-12 delay-uni1-b2", "agreed(Some(1))"),
    ("48 charged random-4 delay-uni3-b4", "agreed(Some(1))"),
    ("48 charged explicit-11 delay-uni3-b4", "agreed(Some(1))"),
    ("48 charged random-4 delay-geo1of2c3-b4", "agreed(Some(1))"),
    (
        "48 charged explicit-11 delay-geo1of2c3-b4",
        "agreed(Some(1))",
    ),
    ("48 charged random-4 partition-24-heal4", "agreed(Some(1))"),
    (
        "48 charged explicit-12 partition-24-heal4",
        "agreed(Some(1))",
    ),
    ("48 charged random-4 churn-2@2-10", "agreed(Some(1))"),
    ("48 charged explicit-11 churn-2@2-10", "agreed(Some(1))"),
    ("64 charged suffix-16 equivocate", "agreed(Some(1))"),
    ("64 charged stride-16x3+1 equivocate", "agreed(Some(1))"),
    ("64 charged suffix-16 garble-both", "agreed(Some(1))"),
    ("64 charged stride-16x3+1 garble-both", "agreed(Some(1))"),
    ("64 charged suffix-16 flood-512x8", "agreed(Some(1))"),
    ("64 charged stride-16x3+1 flood-512x8", "agreed(Some(1))"),
    (
        "64 charged suffix-16 compose[equivocate+replay-2]",
        "agreed(Some(1))",
    ),
    (
        "64 charged stride-16x3+1 compose[equivocate+replay-2]",
        "agreed(Some(1))",
    ),
    ("48 interactive random-4 silent", "agreed(Some(1))"),
    ("48 interactive suffix-4 silent", "agreed(Some(1))"),
    ("48 interactive stride-4x3+1 silent", "agreed(Some(1))"),
    ("48 interactive adaptive-8 silent", "agreed(Some(1))"),
    ("48 interactive random-4 equivocate", "agreed(Some(1))"),
    ("48 interactive suffix-4 equivocate", "agreed(Some(1))"),
    ("48 interactive stride-4x3+1 equivocate", "agreed(Some(1))"),
    ("48 interactive adaptive-8 equivocate", "agreed(Some(1))"),
    ("48 interactive random-4 garble-both", "agreed(Some(1))"),
    ("48 interactive suffix-4 garble-both", "agreed(Some(1))"),
    ("48 interactive stride-4x3+1 garble-both", "agreed(Some(1))"),
    ("48 interactive adaptive-8 garble-both", "agreed(Some(1))"),
    ("48 charged adaptive-8 silent", "agreed(Some(1))"),
    ("48 charged adaptive-8 equivocate", "agreed(Some(1))"),
    ("48 charged adaptive-8 garble-both", "agreed(Some(1))"),
    (
        "48 charged adaptive-15 equivocate",
        "degraded(certification)",
    ),
    ("48 charged random-16 silent", "degraded(establishment)"),
    ("48 charged random-16 equivocate", "degraded(establishment)"),
    ("48 charged adaptive-16 silent", "degraded(establishment)"),
    ("48 charged random-4 delay-fix1-b2", "agreed(Some(1))"),
    (
        "48 charged random-4 partition-24-forever",
        "agreed(Some(1))",
    ),
    ("48 charged random-4 churn-4@6-18", "agreed(Some(1))"),
    (
        "48 charged random-4 churn-20@0-4096",
        "degraded(committee-ba)",
    ),
    (
        "48 charged random-4 compose[delay-uni1-b2+equivocate]",
        "agreed(Some(1))",
    ),
    ("48 interactive random-4 delay-uni1-b2", "agreed(Some(1))"),
];

/// Cases that stalled certification (`only 0 of N honest parties obtained
/// output`) before redundant-path aggregation, under the same CI seed.
/// They must now reach agreement — the headline regression this gate
/// protects.
const FORMERLY_STALLED: &[&str] = &[
    "48 charged explicit-12 garble-bitflip",
    "48 charged explicit-11 garble-truncate",
    "48 charged explicit-11 flood-512x8",
    "48 charged explicit-12 crash@4(equivocate)",
    "48 charged explicit-12 compose[equivocate+flood-256x4]",
    "48 charged explicit-11 phased[0:garble-bitflip,3:equivocate,8:replay-2]",
    "64 charged suffix-16 equivocate",
    "64 charged suffix-16 garble-both",
    "64 charged stride-16x3+1 garble-both",
    "64 charged suffix-16 flood-512x8",
    "64 charged stride-16x3+1 flood-512x8",
    "64 charged suffix-16 compose[equivocate+replay-2]",
    "64 charged stride-16x3+1 compose[equivocate+replay-2]",
];

#[test]
fn chaos_sweep_holds_invariants() {
    let reports = sweep();
    assert!(
        reports.len() >= 30,
        "sweep matrix shrank to {} combos",
        reports.len()
    );
    let table = render_sweep(reports);

    let violations: Vec<_> = reports
        .iter()
        .filter(|r| r.verdict.is_violation())
        .collect();
    assert!(
        violations.is_empty(),
        "chaos sweep found {} violation(s):\n{}\n{}",
        violations.len(),
        violations
            .iter()
            .map(|r| r.case.repro())
            .collect::<Vec<_>>()
            .join("\n"),
        table
    );

    // Under-bound cases must keep SAFETY: either full agreement, or a
    // structured stall/timeout (chaos strategies exceed the modeled
    // adversary, so liveness may be jammed — gracefully). Over-bound
    // plans must be rejected at the establishment bound check.
    for r in reports {
        if r.case.honest_majority() {
            assert!(
                matches!(
                    r.verdict,
                    ChaosVerdict::Agreed { .. } | ChaosVerdict::Degraded { .. }
                ),
                "under-bound case broke safety: {} -> {}\n{}",
                r.case.repro(),
                r.verdict.label(),
                table
            );
        } else {
            assert!(
                matches!(r.verdict, ChaosVerdict::Degraded { .. }),
                "over-bound case must degrade gracefully: {} -> {}",
                r.case.repro(),
                r.verdict.label()
            );
        }
    }
    // The sweep exercises both sides of the bound, and a healthy slice of
    // the matrix still reaches full agreement under active faults.
    assert!(reports.iter().any(|r| !r.case.honest_majority()));
    let agreed = reports
        .iter()
        .filter(|r| matches!(r.verdict, ChaosVerdict::Agreed { .. }))
        .count();
    assert!(
        agreed >= 5,
        "only {agreed} cases reached agreement under chaos:\n{table}"
    );
}

#[test]
fn interactive_establishment_never_violates_within_bound() {
    // Satellite invariant for the interactive column specifically: the
    // tournament election plus chaos strategies must never break safety
    // for a bound-respecting placement.
    let mut interactive = 0;
    for r in sweep() {
        if r.case.establishment != pba_core::protocol::Establishment::Interactive {
            continue;
        }
        interactive += 1;
        assert!(
            r.case.honest_majority(),
            "interactive column is under-bound"
        );
        assert!(
            !r.verdict.is_violation(),
            "interactive case violated: {} -> {}",
            r.case.repro(),
            r.verdict.label()
        );
    }
    assert!(
        interactive >= 12,
        "interactive column shrank to {interactive} cases"
    );
}

#[test]
fn golden_outcome_table() {
    let reports = sweep();
    let actual: Vec<(String, String)> = reports
        .iter()
        .map(|r| (r.case.key(), r.verdict.label()))
        .collect();
    assert_eq!(
        actual.len(),
        GOLDEN.len(),
        "matrix size changed — regenerate the golden table:\n{}",
        render_sweep(reports)
    );
    for (i, ((key, verdict), (want_key, want_verdict))) in actual
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .zip(GOLDEN.iter())
        .enumerate()
    {
        assert_eq!(
            (key, verdict),
            (*want_key, *want_verdict),
            "golden table row {i} diverged (repro: {})",
            reports[i].case.repro()
        );
    }
}

/// Expected per-instance verdicts (`;`-joined, instance order) of the
/// mid-stream arming cases under seed `chaos-ci`: a 4-instance stream
/// over one establishment, clean until instance 2 (0-based), then the
/// strategy is armed via `Service::set_chaos`. Regenerate with
/// `cargo run --release -p pba-bench --bin chaos -- chaos-ci`.
const STREAM_GOLDEN: &[(&str, &str)] = &[
    (
        "48 stream-4 arm@2 equivocate",
        "agreed(Some(1));agreed(Some(1));agreed(Some(1));agreed(Some(1))",
    ),
    (
        "48 stream-4 arm@2 garble-both",
        "agreed(Some(1));agreed(Some(1));agreed(Some(1));agreed(Some(1))",
    ),
    (
        "48 stream-4 arm@2 replay-3",
        "agreed(Some(1));agreed(Some(1));agreed(Some(1));agreed(Some(1))",
    ),
    (
        "48 stream-4 arm@2 flood-512x8",
        "agreed(Some(1));agreed(Some(1));agreed(Some(1));agreed(Some(1))",
    ),
];

#[test]
fn golden_mid_stream_arming_table() {
    let cases = default_stream_cases(b"chaos-ci");
    assert_eq!(
        cases.len(),
        STREAM_GOLDEN.len(),
        "stream matrix size changed — regenerate the golden table"
    );
    for (case, (want_key, want_verdicts)) in cases.iter().zip(STREAM_GOLDEN) {
        let report = run_stream_case(case);
        assert_eq!(
            (report.case.key().as_str(), report.verdicts.as_str()),
            (*want_key, *want_verdicts),
            "mid-stream golden row diverged"
        );
        // Earlier instances settled before the adversary was armed: their
        // verdicts must be agreement regardless of what the late strategy
        // does to the rest of the stream.
        let per_instance: Vec<&str> = report.verdicts.split(';').collect();
        assert_eq!(per_instance.len(), case.k);
        for (i, verdict) in per_instance.iter().take(case.arm_at).enumerate() {
            assert!(
                verdict.starts_with("agreed"),
                "{}: pre-arming instance {i} lost its verdict: {verdict}",
                report.case.key()
            );
        }
    }
}

#[test]
fn formerly_stalled_takeovers_now_agree() {
    let reports = sweep();
    assert!(FORMERLY_STALLED.len() >= 5);
    for key in FORMERLY_STALLED {
        let report = reports
            .iter()
            .find(|r| r.case.key() == *key)
            .unwrap_or_else(|| panic!("case {key} missing from the matrix"));
        assert!(
            matches!(report.verdict, ChaosVerdict::Agreed { .. }),
            "{key} stalled before robust aggregation and must now agree, got {}",
            report.verdict.label()
        );
    }
}

#[test]
fn structure_aware_modes_are_exercised_and_safe() {
    // The typed wire layer's fault modes — schema-driven field garbling
    // and typed equivocation — produce lies that *pass* the hardened
    // decoder, so they probe the semantic checks (signatures, quorums)
    // rather than the codec. Each must appear in the matrix and reach
    // agreement under the light random placement.
    let reports = sweep();
    for label in ["garble-field", "equivocate-typed"] {
        let cases: Vec<_> = reports
            .iter()
            .filter(|r| r.case.spec.label() == label)
            .collect();
        assert!(!cases.is_empty(), "{label} missing from the chaos matrix");
        assert!(
            cases
                .iter()
                .any(|r| matches!(r.verdict, ChaosVerdict::Agreed { .. })),
            "{label} never reached agreement"
        );
    }
}

#[test]
fn timing_faults_are_absorbed_or_degrade_gracefully() {
    // Timing gate: under the light random placement, pure-latency rows stay
    // within the partial-synchrony round budget, so every one of them must
    // agree, and partitions that heal within the granted slack must agree;
    // no timing row — including the permanent partition, whole-run churn
    // and the leaf takeover — may ever violate safety. A one-way partition
    // cannot forge a conflicting vote under unanimous input, so even
    // `partition-*-forever` agrees; graceful degradation is exercised by
    // churn that outlives the run. Takeover rows are held to their golden
    // verdicts only: over 240 base seeds each takeover delay/heal row
    // degrades on 1–4 of them, whichever way internal committees are drawn,
    // while the random-placement ones agree on all 240.
    let reports = sweep();
    let timing: Vec<_> = reports
        .iter()
        .filter(|r| {
            let l = r.case.spec.label();
            l.contains("delay") || l.contains("partition") || l.contains("churn")
        })
        .collect();
    assert!(
        timing.len() >= 10,
        "timing block shrank to {} rows",
        timing.len()
    );
    let mut must_agree = 0;
    for r in &timing {
        let label = r.case.spec.label();
        assert!(
            !r.verdict.is_violation(),
            "timing case broke safety: {} -> {}",
            r.case.repro(),
            r.verdict.label()
        );
        let random = matches!(r.case.plan, CorruptionPlan::Random { .. });
        if random && (label.starts_with("delay") || label.contains("heal")) {
            must_agree += 1;
            assert!(
                matches!(r.verdict, ChaosVerdict::Agreed { .. }),
                "recoverable timing fault failed to agree: {} -> {}",
                r.case.repro(),
                r.verdict.label()
            );
        }
    }
    assert!(
        must_agree >= 6,
        "only {must_agree} random-placement delay/heal rows"
    );
    assert!(
        timing
            .iter()
            .any(|r| matches!(r.verdict, ChaosVerdict::Degraded { .. })),
        "no timing case exercises graceful degradation"
    );
}

#[test]
fn chaos_cases_are_deterministic() {
    // Same case, run twice: identical classification (the repro-line
    // contract depends on this).
    let case = default_cases(b"chaos-ci")
        .into_iter()
        .find(|c| c.honest_majority())
        .expect("matrix has under-bound cases");
    let (a, b) = (run_case(&case), run_case(&case));
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert!(!a.is_violation());
}
