//! Hostile-input robustness: decoding arbitrary attacker-controlled bytes
//! must never panic, over-allocate, or mis-verify — for every wire type a
//! receiver processes.

use pba_core::dolev_strong::DsMessage;
use pba_core::phase_king::PkMsg;
use pba_core::vss_coin::VssCoinMsg;
use pba_crypto::codec::decode_from_slice;
use pba_crypto::mss::MssSignature;
use pba_crypto::prg::Prg;
use pba_crypto::sha256::Digest;
use pba_srds::multisig::MultisigSignature;
use pba_srds::owf::{OwfSignature, OwfSrds};
use pba_srds::snark::{SnarkSignature, SnarkSrds};
use pba_srds::traits::{PkiBoard, Srds};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn decoding_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Every receiver-facing message type must decode defensively.
        let _ = decode_from_slice::<PkMsg<u8>>(&bytes);
        let _ = decode_from_slice::<PkMsg<Digest>>(&bytes);
        let _ = decode_from_slice::<VssCoinMsg>(&bytes);
        let _ = decode_from_slice::<DsMessage>(&bytes);
        let _ = decode_from_slice::<MssSignature>(&bytes);
        let _ = decode_from_slice::<OwfSignature>(&bytes);
        let _ = decode_from_slice::<SnarkSignature>(&bytes);
        let _ = decode_from_slice::<MultisigSignature>(&bytes);
    }

    #[test]
    fn bitflipped_signatures_never_verify(
        seed in any::<[u8; 8]>(),
        flip_byte in 0usize..4096,
        flip_bit in 0u8..8,
    ) {
        // Flip one bit anywhere in a valid encoded aggregate: the decoded
        // result must either fail to decode or fail to verify (SNARK
        // scheme; the certificate binds every byte).
        let scheme = SnarkSrds::with_defaults();
        let mut prg = Prg::from_seed_bytes(&seed);
        let board = PkiBoard::establish(&scheme, 24, &mut prg);
        let keys = board.prepare(&scheme);
        let sigs: Vec<_> = (0..24u64)
            .filter_map(|i| scheme.sign(&board.pp, i, &board.sks[i as usize], b"m"))
            .collect();
        let agg = scheme.aggregate(&board.pp, &keys, b"m", &sigs).unwrap();
        let mut bytes = pba_crypto::codec::encode_to_vec(&agg);
        let pos = flip_byte % bytes.len();
        bytes[pos] ^= 1 << flip_bit;
        if let Ok(mangled) = decode_from_slice::<SnarkSignature>(&bytes) {
            prop_assert!(
                !scheme.verify(&board.pp, &keys, b"m", &mangled),
                "bit flip at byte {pos} still verified"
            );
        }
    }

    #[test]
    fn owf_mangled_aggregates_never_overcount(
        seed in any::<[u8; 8]>(),
        drop_mask in any::<u64>(),
    ) {
        // Arbitrarily drop entries from a valid OWF aggregate: the count of
        // *valid* entries can only shrink, so verification never accepts a
        // sub-threshold mangle.
        let scheme = OwfSrds::with_defaults();
        let mut prg = Prg::from_seed_bytes(&seed);
        let board = PkiBoard::establish(&scheme, 256, &mut prg);
        let keys = board.prepare(&scheme);
        let sigs: Vec<_> = (0..256u64)
            .filter_map(|i| scheme.sign(&board.pp, i, &board.sks[i as usize], b"m"))
            .collect();
        prop_assume!(!sigs.is_empty());
        let agg = scheme.aggregate(&board.pp, &keys, b"m", &sigs).unwrap();
        let kept: Vec<_> = agg
            .entries
            .iter()
            .enumerate()
            .filter(|(i, _)| drop_mask >> (i % 64) & 1 == 1)
            .map(|(_, e)| e.clone())
            .collect();
        let threshold = board.pp.threshold;
        let mangled = OwfSignature { entries: kept };
        let verified = scheme.verify(&board.pp, &keys, b"m", &mangled);
        prop_assert_eq!(verified, mangled.entries.len() >= threshold);
    }
}
