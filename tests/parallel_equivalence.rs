//! Differential test of the deterministic parallel round engine (a
//! phase-persistent worker pool claiming `PartyId`-ordered chunks from one
//! shared queue, effects merged in `PartyId` order): every chaos-matrix
//! strategy × placement at n = 48 is executed sequentially and with 0, 2,
//! 4, 7, and 64 workers from the same seed, and the runs must be
//! *bit-identical* — same
//! [`RoundOutcome`]/[`ProtocolError`], same staged envelope transcript
//! (compared round by round, so a divergence names the first differing
//! round), and the same [`pba_net::Report`] snapshot. The degenerate
//! knob values are deliberate: `threads = 0` must alias the sequential
//! path, and `threads = 64 > n` must cap at one machine per worker
//! rather than spawning workers with nothing to claim.
//!
//! The threads knob reaches both threaded sub-protocols
//! ([`pba_core::protocol::Service::try_committee_ba`] and the VSS coin),
//! and the adversaries here include rushing, equivocating, flooding, and
//! adaptive strategies — exactly the observers that would notice a
//! schedule change. The timing strategies (seeded latency, partitions,
//! churn) flow in from the same catalogue: link delays are a pure
//! function of `(seed, link, tick)`, so the delay queue and the
//! partial-synchrony driver must be thread-count-invariant too.
//!
//! [`RoundOutcome`]: pba_core::protocol::RoundOutcome
//! [`ProtocolError`]: pba_core::protocol::ProtocolError

use pba_bench::chaos::{default_cases, ChaosCase};
use pba_core::protocol::{AdversaryProfile, BaConfig, Establishment, KeyPolicy, Service};
use pba_crypto::sha256::Digest;
use pba_srds::snark::SnarkSrds;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Everything observable about one run: the structured outcome (or panic
/// payload), the per-round staged-envelope transcript, and the metrics
/// report.
struct RunRecord {
    outcome: String,
    transcript: Vec<Digest>,
    report: String,
}

/// Runs one chaos case through the `Service` API with the given worker
/// count, recording the transcript of every delivered round after
/// establishment (the threaded region).
fn run_with_threads(case: &ChaosCase, threads: usize) -> RunRecord {
    let config = BaConfig {
        n: case.n,
        z: 2,
        corruption: case.plan.clone(),
        profile: AdversaryProfile::Byzantine,
        seed: case.seed.clone(),
        establishment: case.establishment,
        chaos: Some(case.spec.clone()),
        threads,
        key_policy: KeyPolicy::Eager,
        dense_shadow: false,
    };
    let scheme = SnarkSrds::with_defaults();
    let inputs = vec![1u8; case.n];
    let run = catch_unwind(AssertUnwindSafe(|| {
        let mut session = match Service::try_establish(&scheme, &config) {
            Ok(session) => session,
            Err(e) => {
                return RunRecord {
                    outcome: format!("establish failed: {e:?}"),
                    transcript: Vec::new(),
                    report: String::new(),
                }
            }
        };
        session.net.enable_transcript();
        let committee_inputs = session.robust_committee_inputs(&inputs);
        let result = session.try_certified_round(&committee_inputs);
        RunRecord {
            outcome: format!("{result:?}"),
            transcript: session
                .net
                .transcript()
                .expect("transcript enabled")
                .to_vec(),
            report: format!("{:?}", session.net.report()),
        }
    }));
    match run {
        Ok(record) => record,
        Err(payload) => {
            let detail = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".into());
            RunRecord {
                outcome: format!("panic: {detail}"),
                transcript: Vec::new(),
                report: String::new(),
            }
        }
    }
}

/// Compares two transcripts, naming the first diverging round on failure.
fn assert_same_transcript(case: &ChaosCase, threads: usize, seq: &[Digest], par: &[Digest]) {
    if seq == par {
        return;
    }
    let first_diff = seq
        .iter()
        .zip(par.iter())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| seq.len().min(par.len()));
    panic!(
        "case [{}] threads={}: transcript diverges at round {} \
         (sequential has {} rounds, parallel has {})\n{}",
        case.key(),
        threads,
        first_diff,
        seq.len(),
        par.len(),
        case.repro(),
    );
}

/// The differential core: the sequential run is the reference, and every
/// parallel worker count must reproduce it exactly.
fn check_cases(cases: &[ChaosCase]) {
    for case in cases {
        let reference = run_with_threads(case, 1);
        assert!(
            !reference.transcript.is_empty() || !reference.outcome.starts_with("Ok"),
            "case [{}]: reference run recorded no rounds",
            case.key()
        );
        for threads in [0usize, 2, 4, 7, 64] {
            let parallel = run_with_threads(case, threads);
            assert_same_transcript(case, threads, &reference.transcript, &parallel.transcript);
            assert_eq!(
                reference.outcome,
                parallel.outcome,
                "case [{}] threads={}: outcome diverged\n{}",
                case.key(),
                threads,
                case.repro(),
            );
            assert_eq!(
                reference.report,
                parallel.report,
                "case [{}] threads={}: metrics diverged\n{}",
                case.key(),
                threads,
                case.repro(),
            );
        }
    }
}

/// The full strategy catalogue × {random placement, leaf-committee
/// takeover} at n = 48, plus the dedicated timing rows — every charged
/// n = 48 case of the chaos matrix.
fn equivalence_cases() -> Vec<ChaosCase> {
    let cases: Vec<ChaosCase> = default_cases(b"parallel-eq")
        .into_iter()
        .filter(|c| c.n == 48 && c.establishment == Establishment::Charged)
        .collect();
    assert!(
        cases.len() >= 20,
        "expected the full catalogue x placement block, got {}",
        cases.len()
    );
    cases
}

// The block is split into four chunks so the test harness can run them on
// separate threads; together they cover every case exactly once.

#[test]
fn parallel_equivalence_chunk_0() {
    let cases = equivalence_cases();
    check_cases(&cases.iter().step_by(4).cloned().collect::<Vec<_>>());
}

#[test]
fn parallel_equivalence_chunk_1() {
    let cases = equivalence_cases();
    check_cases(&cases.iter().skip(1).step_by(4).cloned().collect::<Vec<_>>());
}

#[test]
fn parallel_equivalence_chunk_2() {
    let cases = equivalence_cases();
    check_cases(&cases.iter().skip(2).step_by(4).cloned().collect::<Vec<_>>());
}

#[test]
fn parallel_equivalence_chunk_3() {
    let cases = equivalence_cases();
    check_cases(&cases.iter().skip(3).step_by(4).cloned().collect::<Vec<_>>());
}
