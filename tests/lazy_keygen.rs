//! ISSUE 8 satellite: key instantiation policy is observationally
//! invisible. Eager (all n·(z+2) keypairs at establishment) and Lazy
//! (re-derived from the same pure PRG children at the moment of signing)
//! must produce bit-identical transcripts, outcomes, and reports; the
//! Sampled policy — which withholds key material from parties whose
//! every leaf path crosses a majority-corrupted committee — must fail
//! with a structured [`KeyError`], never a panic, when such a party's
//! key is touched.

use pba_aetree::robust::dedup_committee;
use pba_core::protocol::{AdversaryProfile, BaConfig, Establishment, KeyError, KeyPolicy, Service};
use pba_crypto::sha256::Digest;
use pba_net::corruption::CorruptionPlan;
use pba_net::PartyId;
use pba_srds::snark::SnarkSrds;
use std::collections::BTreeSet;

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

/// The Sampled policy skips signing for seats whose leaf path is already
/// lost to a corrupt committee majority — votes the robust ascent would
/// discard anyway — so the protocol *verdict* must match Eager even
/// though the metering differs.
#[test]
fn sampled_policy_preserves_the_verdict() {
    let n = 64;
    let eager = run(&config(n, Establishment::Charged, KeyPolicy::Eager));
    let sampled = run(&config(n, Establishment::Charged, KeyPolicy::Sampled));
    assert_eq!(
        eager.outcome, sampled.outcome,
        "withheld off-path keys changed the round outcome"
    );
}

#[test]
fn sampled_off_path_key_is_a_structured_error() {
    let n = 64;
    let scheme = SnarkSrds::with_defaults();

    // The charged tree depends only on the seed, never on the corruption
    // plan, so a corruption-free probe session exposes the committees the
    // adversarial session below will have.
    let mut probe_config = config(n, Establishment::Charged, KeyPolicy::Eager);
    probe_config.corruption = CorruptionPlan::None;
    probe_config.profile = AdversaryProfile::Passive;
    let probe = Service::try_establish(&scheme, &probe_config).expect("probe establishment");
    let root_level = probe.tree().height() - 1;
    let supreme = dedup_committee(probe.tree().committee(root_level, 0));

    // Corrupt a (non-strict-minority) half of the supreme committee: every
    // leaf path crosses the root, so no leaf is viable and *no* party is
    // instantiable under Sampled.
    let bad: BTreeSet<PartyId> = supreme
        .iter()
        .take(supreme.len().div_ceil(2))
        .copied()
        .collect();
    assert!(
        3 * bad.len() < n,
        "test construction: {} corruptions exceed the n/3 bound at n={n}",
        bad.len()
    );
    let mut cfg = config(n, Establishment::Charged, KeyPolicy::Sampled);
    cfg.corruption = CorruptionPlan::Explicit(bad);
    let session = Service::try_establish(&scheme, &cfg).expect("establishment");

    let err = session
        .signing_key(PartyId(0), 0)
        .expect_err("party 0 must be uninstantiated when the root is majority-corrupt");
    assert_eq!(
        err,
        KeyError::NotInstantiated {
            party: PartyId(0),
            key_index: 0
        }
    );
    assert!(
        err.to_string().contains("not instantiated"),
        "error display: {err}"
    );

    // Positive control: the same run under Lazy derives the key fine.
    let mut lazy_cfg = cfg.clone();
    lazy_cfg.key_policy = KeyPolicy::Lazy;
    let lazy_session = Service::try_establish(&scheme, &lazy_cfg).expect("establishment");
    assert!(lazy_session.signing_key(PartyId(0), 0).is_ok());
}
