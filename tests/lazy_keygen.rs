//! Key instantiation policy is observationally invisible. Eager (every
//! slot's signing key held from establishment) and Lazy (only each key's
//! public residue held; the one one-time key an epoch spends re-derived
//! from the same pure PRG child at the moment of signing) must produce
//! bit-identical transcripts, outcomes, reports and tag breakdowns, on
//! both establishments, under Byzantine corruption — for every scheme,
//! and at every one-time index a stream reaches, not only epoch 0.

use pba_core::protocol::{
    AdversaryProfile, BaConfig, Establishment, KeyError, KeyPolicy, ProtocolError, Service,
    StreamMode,
};
use pba_crypto::codec::{Decode, Encode};
use pba_crypto::sha256::Digest;
use pba_net::corruption::CorruptionPlan;
use pba_srds::multisig::MultisigSrds;
use pba_srds::owf::OwfSrds;
use pba_srds::snark::{SnarkSrds, SnarkSrdsConfig};
use pba_srds::traits::Srds;

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

/// Establishes over `scheme`, drives the service with `act` while the
/// staged-delivery transcript is recorded, and captures every observable
/// beside what `act` returned.
fn record<S, O>(
    scheme: &S,
    config: &BaConfig,
    act: impl FnOnce(&mut Service<'_, S>) -> O,
) -> (RunRecord, O)
where
    S: Srds,
    S::Signature: Encode + Decode,
    O: std::fmt::Debug,
{
    let mut session = Service::try_establish(scheme, config).expect("establishment");
    session.net.enable_transcript();
    let outcome = act(&mut session);
    let record = RunRecord {
        outcome: format!("{outcome:?}"),
        transcript: session
            .net
            .transcript()
            .map(|t| t.to_vec())
            .unwrap_or_default(),
        report: format!("{:?}", session.report()),
        breakdown: format!("{:?}", session.breakdown()),
    };
    (record, outcome)
}

/// One full run (establishment + certified round) through the `Service`
/// API.
fn run<S>(scheme: &S, config: &BaConfig) -> RunRecord
where
    S: Srds,
    S::Signature: Encode + Decode,
{
    record(scheme, config, |session| {
        let inputs = vec![1u8; config.n];
        let committee_inputs = session.robust_committee_inputs(&inputs);
        session.try_certified_round(&committee_inputs)
    })
    .0
}

/// One round at epoch 0 under both policies, over fresh instances of one
/// scheme (cold caches on both sides).
fn one_round_rows<S>(label: &str, sizes: &[usize], scheme: impl Fn() -> S)
where
    S: Srds,
    S::Signature: Encode + Decode,
{
    for &n in sizes {
        for establishment in [Establishment::Charged, Establishment::Interactive] {
            let eager = run(&scheme(), &config(n, establishment, KeyPolicy::Eager));
            let lazy = run(&scheme(), &config(n, establishment, KeyPolicy::Lazy));
            assert!(
                !eager.transcript.is_empty(),
                "{label} n={n} {establishment:?}: no rounds delivered"
            );
            assert_eq!(
                eager.transcript, lazy.transcript,
                "{label} n={n} {establishment:?}: transcripts diverge"
            );
            assert_eq!(
                eager.outcome, lazy.outcome,
                "{label} n={n} {establishment:?}: outcomes diverge"
            );
            assert_eq!(
                eager.report, lazy.report,
                "{label} n={n} {establishment:?}: reports diverge"
            );
            assert_eq!(
                eager.breakdown, lazy.breakdown,
                "{label} n={n} {establishment:?}: tag breakdowns diverge"
            );
        }
    }
}

#[test]
fn eager_and_lazy_are_bit_identical() {
    one_round_rows("snark", &[64, 256], SnarkSrds::with_defaults);
}

/// The scheme with no residue (Lazy signs through the trait's default:
/// regenerate the key) and the other MSS-backed one.
#[test]
fn eager_and_lazy_are_bit_identical_on_the_other_schemes() {
    one_round_rows("owf", &[64], OwfSrds::with_defaults);
    one_round_rows("multisig", &[64], MultisigSrds::with_defaults);
}

/// A stream spends one-time index `i` in instance `i`, so four instances
/// over a height-2 key cross the lazy signer at indices 0–3 — and the
/// fifth asks for an index the key does not have.
#[test]
fn streamed_epochs_are_bit_identical_and_overdraw_alike() {
    let scheme = || {
        SnarkSrds::new(SnarkSrdsConfig {
            mss_bits: 32,
            mss_height: 2,
        })
    };
    let n = 64;
    let instances = vec![vec![vec![1u8]; n]; 5];
    for mode in [StreamMode::Sequential, StreamMode::Pipelined] {
        let stream = |policy| {
            record(
                &scheme(),
                &config(n, Establishment::Charged, policy),
                |session| session.try_run_stream(&instances, mode),
            )
        };
        let (eager, eager_out) = stream(KeyPolicy::Eager);
        let (lazy, lazy_out) = stream(KeyPolicy::Lazy);
        assert_eq!(
            eager.transcript, lazy.transcript,
            "{mode:?}: transcripts diverge"
        );
        assert_eq!(eager.outcome, lazy.outcome, "{mode:?}: outcomes diverge");
        assert_eq!(eager.report, lazy.report, "{mode:?}: reports diverge");
        assert_eq!(
            eager.breakdown, lazy.breakdown,
            "{mode:?}: tag breakdowns diverge"
        );
        for out in [eager_out, lazy_out] {
            assert_eq!(out.decisions, 4, "{mode:?}");
            assert_eq!(out.instances.len(), 5, "{mode:?}");
            assert!(
                out.instances[..4].iter().all(|i| i.result.is_ok()),
                "{mode:?}"
            );
            assert_eq!(
                out.instances[4].result.as_ref().err(),
                Some(&ProtocolError::KeyBudget {
                    error: KeyError::BudgetExhausted {
                        instance: 4,
                        capacity: 4,
                    },
                }),
                "{mode:?}"
            );
        }
    }
}
