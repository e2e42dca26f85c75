//! Key instantiation policy is observationally invisible. Eager (all
//! n·(z+2) keypairs at establishment) and Lazy (re-derived from the same
//! pure PRG children at the moment of signing) must produce bit-identical
//! transcripts, outcomes, reports and tag breakdowns, on both
//! establishments, under Byzantine corruption.

use pba_core::protocol::{AdversaryProfile, BaConfig, Establishment, KeyPolicy, Service};
use pba_crypto::sha256::Digest;
use pba_net::corruption::CorruptionPlan;
use pba_srds::snark::SnarkSrds;

fn config(n: usize, establishment: Establishment, policy: KeyPolicy) -> BaConfig {
    BaConfig {
        n,
        z: 2,
        corruption: CorruptionPlan::Random { t: n / 8 },
        profile: AdversaryProfile::Byzantine,
        seed: b"lazy-keygen-equivalence".to_vec(),
        establishment,
        chaos: None,
        threads: 1,
        key_policy: policy,
        dense_shadow: false,
    }
}

struct RunRecord {
    outcome: String,
    transcript: Vec<Digest>,
    report: String,
    breakdown: String,
}

/// One full run (establishment + certified round) through the `Service`
/// API with the staged-delivery transcript recorded.
fn run(config: &BaConfig) -> RunRecord {
    let scheme = SnarkSrds::with_defaults();
    let mut session = Service::try_establish(&scheme, config).expect("establishment");
    session.net.enable_transcript();
    let inputs = vec![1u8; config.n];
    let committee_inputs = session.robust_committee_inputs(&inputs);
    let round = session.try_certified_round(&committee_inputs);
    RunRecord {
        outcome: format!("{round:?}"),
        transcript: session
            .net
            .transcript()
            .map(|t| t.to_vec())
            .unwrap_or_default(),
        report: format!("{:?}", session.report()),
        breakdown: format!("{:?}", session.breakdown()),
    }
}

#[test]
fn eager_and_lazy_are_bit_identical() {
    for n in [64usize, 256] {
        for establishment in [Establishment::Charged, Establishment::Interactive] {
            let eager = run(&config(n, establishment, KeyPolicy::Eager));
            let lazy = run(&config(n, establishment, KeyPolicy::Lazy));
            assert!(
                !eager.transcript.is_empty(),
                "n={n} {establishment:?}: no rounds delivered"
            );
            assert_eq!(
                eager.transcript, lazy.transcript,
                "n={n} {establishment:?}: transcripts diverge"
            );
            assert_eq!(
                eager.outcome, lazy.outcome,
                "n={n} {establishment:?}: outcomes diverge"
            );
            assert_eq!(
                eager.report, lazy.report,
                "n={n} {establishment:?}: reports diverge"
            );
            assert_eq!(
                eager.breakdown, lazy.breakdown,
                "n={n} {establishment:?}: tag breakdowns diverge"
            );
        }
    }
}
