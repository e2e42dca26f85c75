//! Cross-crate integration tests for the corollaries: multi-execution
//! broadcast (Cor. 1.2(1)) and FHE-based MPC (Cor. 1.2(2)), plus the
//! Dolev–Strong contrast baseline.

use pba_core::dolev_strong::run_dolev_strong;
use pba_core::mpc::run_mpc;
use pba_srds::snark::{SnarkSrds, SnarkSrdsConfig};
use polylog_ba::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;

#[test]
fn broadcast_with_rotating_senders() {
    // Corollary 1.2(1) allows different senders per execution; emulate by
    // running separate sessions and checking each delivers its sender's bit.
    let scheme = SnarkSrds::new(SnarkSrdsConfig {
        mss_bits: 32,
        mss_height: 2,
    });
    for (sender, value) in [(PartyId(0), 1u8), (PartyId(31), 0), (PartyId(63), 1)] {
        let config = BaConfig::honest(64, format!("rot-{sender}").as_bytes());
        let out = run_broadcasts(&scheme, &config, sender, &[value]);
        assert!(out.all_delivered, "sender {sender} failed");
        assert_eq!(out.executions[0].y, value);
    }
}

#[test]
fn mpc_majority_function() {
    // A realistic functional: majority vote over private bits — MPC
    // subsumes BA itself (the paper's framing).
    let n = 64;
    let scheme = SnarkSrds::with_defaults();
    let config = BaConfig::honest(n, b"mpc-majority");
    let inputs: Vec<Vec<u8>> = (0..n).map(|i| vec![u8::from(i % 3 != 0)]).collect();
    let majority = |map: &BTreeMap<u64, Vec<u8>>| -> Vec<u8> {
        let ones = map.values().filter(|v| v == &&vec![1u8]).count();
        vec![u8::from(2 * ones > map.len())]
    };
    let out = run_mpc(&scheme, &config, &inputs, majority).expect("mpc below the fault bound");
    assert_eq!(out.output, vec![1], "two thirds voted 1");
    assert!(out.outputs.iter().all(|o| o.as_deref() == Some(&[1u8][..])));
}

/// The corollaries' metering, pinned: the honest report of a Byzantine
/// MPC run and of a two-execution broadcast whose sender sits on the
/// supreme committee (so it also charges its own copy), at n = 64.
/// Restated once when step 5b became hash-first (both corollaries run
/// π_ba's certification, so its step-5 exchange is in both reports):
/// MPC `max_bytes_per_party` 197,992 → 170,222, `max_bytes_sent` 98,880 →
/// 85,170, `total_bytes` 5,339,985 → 4,630,377, `total_msgs` 33,828 →
/// 34,160, `max_msgs_per_party` 1,448 → 1,453; broadcast 278,006 →
/// 225,268, 144,728 → 119,398, 6,970,316 → 5,705,512, 58,312 → 58,950,
/// 3,284 → 3,294. The new messages are the honest → corrupt hashes;
/// `parties`, `max_locality` and `rounds` are unchanged. Restated a second
/// time when the step 7–8 spread stopped charging a holder that draws
/// itself a copy to itself (only `SPREAD` bytes and messages moved): MPC
/// `total_bytes` 4,630,377 → 4,627,555, `total_msgs` 34,160 → 34,143;
/// broadcast `total_bytes` 5,705,512 → 5,699,370, `total_msgs` 58,950 →
/// 58,913, `max_msgs_per_party` 3,294 → 3,292. Both byte maxima,
/// `parties`, `max_locality` and `rounds` are unchanged.
#[test]
fn corollary_reports_are_pinned() {
    let scheme = SnarkSrds::with_defaults();
    let config = BaConfig::byzantine(64, 6, b"golden-mpc");
    let inputs: Vec<Vec<u8>> = (0..64).map(|i| vec![i as u8; 4]).collect();
    let count = |map: &BTreeMap<u64, Vec<u8>>| vec![map.len() as u8];
    let mpc = run_mpc(&scheme, &config, &inputs, count).expect("mpc below the fault bound");
    assert_eq!(mpc.report.to_json(), GOLDEN_MPC_64);

    let scheme = SnarkSrds::new(SnarkSrdsConfig {
        mss_bits: 32,
        mss_height: 1,
    });
    let config = BaConfig::byzantine(64, 6, b"golden-broadcast");
    let session = Service::try_establish(&scheme, &config).expect("establishment");
    let honest = |p: &&PartyId| !session.corrupt().contains(p);
    let sender = *session.supreme_committee().iter().find(honest).unwrap();
    let out = run_broadcasts(&scheme, &config, sender, &[1, 0]);
    assert!(out.all_delivered);
    assert_eq!(out.final_report.to_json(), GOLDEN_BROADCAST_64);
}

const GOLDEN_MPC_64: &str = r#"{"parties":58,"max_bytes_per_party":170222,"max_bytes_sent":85170,"total_bytes":4627555,"total_msgs":34143,"max_msgs_per_party":1453,"max_locality":64,"rounds":44}"#;

const GOLDEN_BROADCAST_64: &str = r#"{"parties":58,"max_bytes_per_party":225268,"max_bytes_sent":119398,"total_bytes":5699370,"total_msgs":58913,"max_msgs_per_party":3292,"max_locality":64,"rounds":114}"#;

#[test]
fn dolev_strong_vs_certified_broadcast_resilience() {
    // Dolev–Strong survives t corruptions out of t+1 chain rounds even when
    // t is a large fraction — resilience the committee protocols cannot
    // offer — at quadratic cost. Here: 4 of 13 silent (> n/4).
    let corrupt: std::collections::BTreeSet<PartyId> = (9..13u64).map(PartyId).collect();
    let out = run_dolev_strong(13, 4, PartyId(0), 1, &corrupt, b"ds-vs");
    for i in 0..9 {
        assert_eq!(out.outputs[i], Some(1));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn broadcast_delivers_under_random_byzantine(seed in any::<[u8; 8]>(), sender_idx in 0u64..64, ell in 1usize..4) {
        let scheme = SnarkSrds::new(SnarkSrdsConfig { mss_bits: 32, mss_height: 2 });
        let mut config = BaConfig::byzantine(64, 6, &seed);
        // Ensure the sender is honest for the delivery check by retrying the
        // profile when the sampled corrupt set contains it: simplest is to
        // accept both cases — corrupt senders only require agreement.
        config.profile = AdversaryProfile::Byzantine;
        let values: Vec<u8> = (0..ell).map(|i| (i % 2) as u8).collect();
        let out = run_broadcasts(&scheme, &config, PartyId(sender_idx), &values);
        prop_assert!(out.all_delivered, "delivery/agreement failed");
    }

    #[test]
    fn mpc_xor_correct_over_random_inputs(seed in any::<[u8; 8]>(), len in 1usize..8) {
        let n = 48;
        let scheme = SnarkSrds::with_defaults();
        let config = BaConfig::honest(n, &seed);
        let mut prg = Prg::from_seed_bytes(&seed);
        let inputs: Vec<Vec<u8>> = (0..n)
            .map(|_| {
                let mut v = vec![0u8; len];
                rand::RngCore::fill_bytes(&mut prg, &mut v);
                v
            })
            .collect();
        let expected = inputs.iter().fold(vec![0u8; len], |mut acc, v| {
            for (a, b) in acc.iter_mut().zip(v) {
                *a ^= b;
            }
            acc
        });
        let out = run_mpc(&scheme, &config, &inputs, |map| {
            let mut acc = vec![0u8; len];
            for v in map.values() {
                for (a, b) in acc.iter_mut().zip(v) {
                    *a ^= b;
                }
            }
            acc
        })
        .expect("mpc below the fault bound");
        prop_assert_eq!(out.inputs_included, n);
        prop_assert_eq!(out.output, expected);
    }
}
