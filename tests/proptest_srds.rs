//! Property-based tests over the SRDS schemes: aggregation is
//! order-insensitive and duplicate-proof, verification thresholds are
//! exact, and the security games hold over random corruption patterns.

use pba_crypto::codec::{encode_to_vec, Encode};
use pba_crypto::prg::Prg;
use pba_srds::experiments::{
    run_forgery, run_robustness, AggregateForgeryAdversary, DefaultRobustnessAdversary,
};
use pba_srds::multisig::MultisigSrds;
use pba_srds::owf::{OwfSignature, OwfSrds};
use pba_srds::snark::{SnarkSignature, SnarkSrds};
use pba_srds::traits::{PkiBoard, Srds};
use proptest::prelude::*;

/// A board of `n` parties and every base signature on `prop-m` (OWF
/// sortition losers sign nothing).
fn signed_board<S: Srds>(scheme: &S, n: usize, seed: &[u8]) -> (PkiBoard<S>, Vec<S::Signature>) {
    let mut prg = Prg::from_seed_bytes(seed);
    let board = PkiBoard::establish(scheme, n, &mut prg);
    let sigs = (0..n as u64)
        .filter_map(|i| scheme.sign(&board.pp, i, &board.sks[i as usize], b"prop-m"))
        .collect();
    (board, sigs)
}

fn owf_board(n: usize, seed: &[u8]) -> (OwfSrds, PkiBoard<OwfSrds>, Vec<OwfSignature>) {
    let scheme = OwfSrds::with_defaults();
    let (board, sigs) = signed_board(&scheme, n, seed);
    (scheme, board, sigs)
}

fn snark_board(n: usize, seed: &[u8]) -> (SnarkSrds, PkiBoard<SnarkSrds>, Vec<SnarkSignature>) {
    let scheme = SnarkSrds::with_defaults();
    let (board, sigs) = signed_board(&scheme, n, seed);
    (scheme, board, sigs)
}

/// `signature_len` is arithmetic: for base signatures, `Aggregate₁`'s
/// attested hand-offs and an aggregate over the first `take` signers it
/// must equal the length of the actual encoding.
fn arithmetic_lengths_match_encodings<S>(scheme: &S, seed: &[u8], take: usize)
where
    S: Srds,
    S::Signature: Encode,
{
    let (board, base) = signed_board(scheme, 96, seed);
    let keys = board.prepare(scheme);
    let take = take.min(base.len());
    let attested = scheme.aggregate1(&board.pp, &keys, b"prop-m", &base[..take]);
    let aggregate = scheme.aggregate2(&board.pp, b"prop-m", &attested);
    for sig in base.iter().chain(&attested).chain(&aggregate) {
        let encoded = encode_to_vec(sig).len();
        assert_eq!(sig.encoded_len(), encoded);
        assert_eq!(scheme.signature_len(sig), encoded);
    }
}

/// Aggregation keys its inputs by signer identity, so their order never
/// reaches the output: the same base signatures, permuted by `swaps`,
/// aggregate to identical bytes. Step 4 of π_ba leans on this when it
/// submits a leaf's signatures in slot order.
fn aggregation_ignores_input_order<S>(scheme: &S, seed: &[u8], swaps: &[(usize, usize)])
where
    S: Srds,
    S::Signature: Encode,
{
    let (board, sigs) = signed_board(scheme, 96, seed);
    let keys = board.prepare(scheme);
    let mut shuffled = sigs.clone();
    let len = shuffled.len();
    if len > 1 {
        for &(a, b) in swaps {
            shuffled.swap(a % len, b % len);
        }
    }
    let aggregate = |sigs: &[S::Signature]| {
        let agg = scheme.aggregate(&board.pp, &keys, b"prop-m", sigs);
        encode_to_vec(&agg.expect("96 parties always yield signatures to aggregate"))
    };
    assert_eq!(aggregate(&shuffled), aggregate(&sigs));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn encoded_len_matches_encoding_for_every_scheme(seed in any::<[u8; 8]>(), take in 0usize..97) {
        arithmetic_lengths_match_encodings(&SnarkSrds::with_defaults(), &seed, take);
        arithmetic_lengths_match_encodings(&OwfSrds::with_defaults(), &seed, take);
        arithmetic_lengths_match_encodings(&MultisigSrds::with_defaults(), &seed, take);
    }

    #[test]
    fn aggregation_order_insensitive_for_every_scheme(seed in any::<[u8; 8]>(), swaps in proptest::collection::vec((0usize..96, 0usize..96), 0..24)) {
        aggregation_ignores_input_order(&SnarkSrds::with_defaults(), &seed, &swaps);
        aggregation_ignores_input_order(&OwfSrds::with_defaults(), &seed, &swaps);
        aggregation_ignores_input_order(&MultisigSrds::with_defaults(), &seed, &swaps);
    }

    #[test]
    fn owf_duplicates_never_inflate(seed in any::<[u8; 8]>(), dup_factor in 2usize..5) {
        let (scheme, board, sigs) = owf_board(256, &seed);
        prop_assume!(!sigs.is_empty());
        let keys = board.prepare(&scheme);
        let base = scheme.aggregate(&board.pp, &keys, b"prop-m", &sigs).unwrap();
        let mut dup = Vec::new();
        for _ in 0..dup_factor {
            dup.extend(sigs.iter().cloned());
        }
        let agg = scheme.aggregate(&board.pp, &keys, b"prop-m", &dup).unwrap();
        prop_assert_eq!(agg.entries.len(), base.entries.len());
    }

    #[test]
    fn snark_count_is_exact_for_any_subset(seed in any::<[u8; 8]>(), keep_mask in any::<u64>()) {
        let (scheme, board, sigs) = snark_board(48, &seed);
        let keys = board.prepare(&scheme);
        let subset: Vec<SnarkSignature> = sigs
            .iter()
            .enumerate()
            .filter(|(i, _)| keep_mask >> (i % 64) & 1 == 1)
            .map(|(_, s)| s.clone())
            .collect();
        prop_assume!(!subset.is_empty());
        let agg = scheme.aggregate(&board.pp, &keys, b"prop-m", &subset).unwrap();
        if let SnarkSignature::Agg(cert) = &agg {
            prop_assert_eq!(cert.count as usize, subset.len());
        } else {
            prop_assert!(false, "expected aggregate");
        }
    }

    #[test]
    fn snark_split_aggregation_counts_match_flat(seed in any::<[u8; 8]>(), split in 1usize..47) {
        let (scheme, board, sigs) = snark_board(48, &seed);
        let keys = board.prepare(&scheme);
        let a = scheme.aggregate(&board.pp, &keys, b"prop-m", &sigs[..split]).unwrap();
        let b = scheme.aggregate(&board.pp, &keys, b"prop-m", &sigs[split..]).unwrap();
        let joined = scheme.aggregate(&board.pp, &keys, b"prop-m", &[a, b]).unwrap();
        if let SnarkSignature::Agg(cert) = &joined {
            prop_assert_eq!(cert.count, 48);
            prop_assert!(scheme.verify(&board.pp, &keys, b"prop-m", &joined));
        } else {
            prop_assert!(false, "expected aggregate");
        }
    }

    #[test]
    fn robustness_holds_over_random_seeds(seed in any::<[u8; 8]>(), n in 120usize..260) {
        let scheme = SnarkSrds::with_defaults();
        let t = n / 12;
        let out = run_robustness(&scheme, n, t, &mut DefaultRobustnessAdversary, &seed)
            .expect("well-posed");
        prop_assert!(out.verified);
    }

    #[test]
    fn forgery_never_succeeds_over_random_seeds(seed in any::<[u8; 8]>(), n in 120usize..260) {
        // The sortition scheme's unforgeability is a concentration bound
        // (see the margin analysis in pba_srds::owf); against the game's
        // maximal n/3 coalition, a ~4sigma margin needs s ~ 150+ signers.
        let scheme = OwfSrds::new(pba_srds::owf::OwfSrdsConfig {
            lamport_bits: 32,
            signer_factor: 20,
            min_signers: 150,
        });
        let t = n / 12;
        let out = run_forgery(&scheme, n, t, &mut AggregateForgeryAdversary::default(), &seed)
            .expect("well-posed");
        prop_assert!(!out.forged);
    }

    #[test]
    fn forgery_never_succeeds_snark(seed in any::<[u8; 8]>(), n in 90usize..200) {
        // The SNARK scheme counts exactly (no concentration slack): a
        // sub-majority coalition can never reach the n/2+1 threshold.
        let scheme = SnarkSrds::with_defaults();
        let t = n / 12;
        let out = run_forgery(&scheme, n, t, &mut AggregateForgeryAdversary::default(), &seed)
            .expect("well-posed");
        prop_assert!(!out.forged);
    }

    #[test]
    fn min_max_indices_bound_all_aggregated(seed in any::<[u8; 8]>(), lo in 0usize..20, width in 5usize..28) {
        let (scheme, board, sigs) = snark_board(48, &seed);
        let keys = board.prepare(&scheme);
        let hi = (lo + width).min(sigs.len());
        let slice = &sigs[lo..hi];
        let agg = scheme.aggregate(&board.pp, &keys, b"prop-m", slice).unwrap();
        prop_assert_eq!(scheme.min_index(&agg), lo as u64);
        prop_assert_eq!(scheme.max_index(&agg), (hi - 1) as u64);
    }
}

/// Triage of the checked-in `proptest-regressions` seed
/// `seed = [24, 211, 221, 89, 199, 208, 31, 165], n = 127`: the shrunken
/// input is in range for all three `(seed, n)` security games above, so
/// it is pinned against each of them as a named case (replacing the
/// regressions file, which could not say which property it once failed).
/// All three now pass — in particular the SNARK paths exercise the
/// verified-certificate cache, which must not change any verdict.
mod pinned_regressions {
    use super::*;

    const SEED: [u8; 8] = [24, 211, 221, 89, 199, 208, 31, 165];
    const N: usize = 127;

    #[test]
    fn regression_seed_robustness_snark_n127() {
        let scheme = SnarkSrds::with_defaults();
        let out = run_robustness(&scheme, N, N / 12, &mut DefaultRobustnessAdversary, &SEED)
            .expect("well-posed");
        assert!(out.verified, "robustness regression re-fired at n={N}");
    }

    #[test]
    fn regression_seed_forgery_owf_n127() {
        let scheme = OwfSrds::new(pba_srds::owf::OwfSrdsConfig {
            lamport_bits: 32,
            signer_factor: 20,
            min_signers: 150,
        });
        let out = run_forgery(
            &scheme,
            N,
            N / 12,
            &mut AggregateForgeryAdversary::default(),
            &SEED,
        )
        .expect("well-posed");
        assert!(!out.forged, "owf forgery regression re-fired at n={N}");
    }

    #[test]
    fn regression_seed_forgery_snark_n127() {
        let scheme = SnarkSrds::with_defaults();
        let out = run_forgery(
            &scheme,
            N,
            N / 12,
            &mut AggregateForgeryAdversary::default(),
            &SEED,
        )
        .expect("well-posed");
        assert!(!out.forged, "snark forgery regression re-fired at n={N}");
    }
}
