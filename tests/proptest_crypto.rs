//! Property-based tests over the cryptographic substrate.

use pba_crypto::codec::{decode_from_slice, encode_to_vec};
use pba_crypto::field::{Fp, MODULUS};
use pba_crypto::lamport::{LamportKeyPair, LamportParams};
use pba_crypto::merkle::MerkleTree;
use pba_crypto::mss::{MssKeyPair, MssParams};
use pba_crypto::poly::{interpolate_at_zero, Polynomial};
use pba_crypto::prg::Prg;
use pba_crypto::reed_solomon::{self, Decoder, RsError};
use pba_crypto::sha256::{Digest, Sha256, LANES};
use pba_crypto::shamir::{reconstruct, share};
use proptest::prelude::*;
use rand::RngCore;

#[path = "oracle/berlekamp_welch.rs"]
mod berlekamp_welch;

/// How the wrong values of a Reed–Solomon word are chosen.
#[derive(Clone, Copy, Debug)]
enum Lies {
    /// Independent uniform field elements.
    Uniform,
    /// Every liar reports the same small constant.
    Constant,
    /// Every liar reports a second degree-`< k` polynomial — a competing
    /// codeword, the hardest word once more than `e` values are wrong.
    Codeword,
}

/// `m` distinct x-coordinates in no particular order: a shuffled subset
/// of `1 ..= 3m` (committee positions with gaps) or uniform elements.
fn evaluation_set(m: usize, dense: bool, prg: &mut Prg) -> Vec<Fp> {
    if dense {
        prg.sample_distinct(3 * m as u64, m)
            .into_iter()
            .map(|v| Fp::new(v + 1))
            .collect()
    } else {
        let mut xs = Vec::with_capacity(m);
        while xs.len() < m {
            let x = Fp::random(prg);
            if !xs.contains(&x) {
                xs.push(x);
            }
        }
        xs
    }
}

/// A codeword of a random degree-`< k` polynomial over `xs` with `errors`
/// of its values replaced by lies that differ from the truth.
fn corrupted_word(xs: &[Fp], k: usize, errors: usize, lies: Lies, prg: &mut Prg) -> Vec<Fp> {
    let random_poly =
        |prg: &mut Prg| Polynomial::new((0..k).map(|_| Fp::random(prg)).collect::<Vec<_>>());
    let truth = random_poly(prg);
    let rival = random_poly(prg);
    let constant = Fp::new(prg.gen_range(3));
    let mut ys: Vec<Fp> = xs.iter().map(|&x| truth.eval(x)).collect();
    for pos in prg.sample_distinct(xs.len() as u64, errors.min(xs.len())) {
        let pos = pos as usize;
        let lie = match lies {
            Lies::Uniform => Fp::random(prg),
            Lies::Constant => constant,
            Lies::Codeword => rival.eval(xs[pos]),
        };
        ys[pos] = if lie == ys[pos] { lie + Fp::ONE } else { lie };
    }
    ys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The per-evaluation-set decoder returns, on every input, exactly the
    /// `Result` (coefficients included) of the Berlekamp–Welch search it
    /// replaced — through the clean path, the error-correcting path, a
    /// reused decoder, and the one-shot wrapper's input checks.
    #[test]
    fn decoder_matches_berlekamp_welch(
        k in 1usize..16,
        e in 0usize..8,
        surplus in 0usize..4,
        budget_cut in 0usize..3,
        errors in proptest::collection::vec(0usize..10, 3),
        lies in prop_oneof![Just(Lies::Uniform), Just(Lies::Constant), Just(Lies::Codeword)],
        dense in any::<bool>(),
        malformed in 0usize..10,
        seed in any::<[u8; 8]>(),
    ) {
        let mut prg = Prg::from_seed_bytes(&seed);
        let m = k + 2 * e + surplus;
        let xs = evaluation_set(m, dense, &mut prg);
        // Capacity is ⌊(m − k)/2⌋ ≥ e; the caller may allow fewer.
        let budget = e.saturating_sub(budget_cut);

        let decoder = Decoder::new(&xs, k).expect("distinct xs, m >= k");
        for &errors in &errors {
            let ys = corrupted_word(&xs, k, errors % (e + 3), lies, &mut prg);
            let points: Vec<(Fp, Fp)> = xs.iter().copied().zip(ys.iter().copied()).collect();
            let expected = berlekamp_welch::decode(&points, k, budget);
            prop_assert_eq!(&decoder.decode(&ys, budget), &expected);
            prop_assert_eq!(&reed_solomon::decode(&points, k, budget), &expected);
        }

        // Inputs the one-shot wrapper must reject the way the old one did.
        let ys = corrupted_word(&xs, k, 0, lies, &mut prg);
        let mut points: Vec<(Fp, Fp)> = xs.iter().copied().zip(ys).collect();
        match malformed {
            0 if m >= 2 => {
                points[m - 1].0 = points[0].0;
                let repeated: Vec<Fp> = points.iter().map(|p| p.0).collect();
                prop_assert_eq!(Decoder::new(&repeated, k).unwrap_err(), RsError::DuplicateX);
            }
            1 => points.truncate((k + 2 * budget).saturating_sub(1)),
            2 => points.truncate(k.saturating_sub(1)),
            _ => {}
        }
        prop_assert_eq!(
            reed_solomon::decode(&points, k, budget),
            berlekamp_welch::decode(&points, k, budget)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sha256_incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..512), split in 0usize..512) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn digest_hex_roundtrip(bytes in any::<[u8; 32]>()) {
        let d = Digest::new(bytes);
        prop_assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
    }

    #[test]
    fn field_axioms(a in 0..MODULUS, b in 0..MODULUS, c in 0..MODULUS) {
        let (a, b, c) = (Fp::new(a), Fp::new(b), Fp::new(c));
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!((a * b) * c, a * (b * c));
        prop_assert_eq!(a * (b + c), a * b + a * c);
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!(a * b, b * a);
        prop_assert_eq!(a - a, Fp::ZERO);
        if !a.is_zero() {
            prop_assert_eq!(a * a.inverse(), Fp::ONE);
        }
    }

    #[test]
    fn shamir_reconstructs_from_any_quorum(
        secret in 0..MODULUS,
        threshold in 1usize..5,
        extra in 0usize..4,
        seed in any::<[u8; 8]>(),
    ) {
        let n = threshold + 1 + extra;
        let mut prg = Prg::from_seed_bytes(&seed);
        let shares = share(Fp::new(secret), threshold, n, &mut prg);
        // Take an arbitrary (threshold+1)-subset: the last one.
        let subset = &shares[extra..];
        prop_assert_eq!(reconstruct(subset).unwrap(), Fp::new(secret));
    }

    #[test]
    fn lagrange_interpolation_is_exact(
        secret in 0..MODULUS,
        degree in 0usize..6,
        seed in any::<[u8; 8]>(),
    ) {
        let mut prg = Prg::from_seed_bytes(&seed);
        let poly = pba_crypto::poly::Polynomial::random_with_constant(Fp::new(secret), degree, &mut prg);
        let points: Vec<(Fp, Fp)> = (1..=degree as u64 + 1)
            .map(|x| (Fp::new(x), poly.eval(Fp::new(x))))
            .collect();
        prop_assert_eq!(interpolate_at_zero(&points), Fp::new(secret));
    }

    #[test]
    fn merkle_proofs_verify_and_bind(
        leaves in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..32), 1..40),
        index in 0usize..40,
        tamper in any::<u8>(),
    ) {
        let index = index % leaves.len();
        let tree = MerkleTree::from_leaves(leaves.iter());
        let proof = tree.prove(index);
        prop_assert!(proof.verify(&tree.root(), &leaves[index]));
        // Tampered leaf fails (unless the tamper is a no-op).
        let mut tampered = leaves[index].clone();
        tampered.push(tamper);
        prop_assert!(!proof.verify(&tree.root(), &tampered));
    }

    #[test]
    fn codec_roundtrip_nested(
        v in proptest::collection::vec((any::<u64>(), proptest::collection::vec(any::<u8>(), 0..16)), 0..16),
    ) {
        let encoded = encode_to_vec(&v);
        let decoded: Vec<(u64, Vec<u8>)> = decode_from_slice(&encoded).unwrap();
        prop_assert_eq!(decoded, v);
    }

    #[test]
    fn codec_rejects_any_truncation(value in any::<u64>(), tail in proptest::collection::vec(any::<u8>(), 1..8)) {
        let mut bytes = encode_to_vec(&(value, tail));
        bytes.pop();
        let r: Result<(u64, Vec<u8>), _> = decode_from_slice(&bytes);
        prop_assert!(r.is_err());
    }

    #[test]
    fn lamport_signs_only_its_message(seed in any::<[u8; 8]>(), m1 in any::<[u8; 12]>(), m2 in any::<[u8; 12]>()) {
        prop_assume!(m1 != m2);
        let params = LamportParams::new(32);
        let mut prg = Prg::from_seed_bytes(&seed);
        let kp = LamportKeyPair::generate(&params, &mut prg);
        let sig = kp.sign(&m1);
        prop_assert!(params.verify(&kp.verification_key(), &m1, &sig));
        // 32-bit truncated digests collide with prob 2^-32: negligible for
        // the case count here.
        prop_assert!(!params.verify(&kp.verification_key(), &m2, &sig));
    }

    #[test]
    fn prg_streams_are_deterministic_and_label_separated(
        seed in any::<[u8; 16]>(),
        la in "[a-z]{1,8}",
        lb in "[a-z]{1,8}",
    ) {
        let mut a1 = Prg::from_seed_label(&seed, &la);
        let mut a2 = Prg::from_seed_label(&seed, &la);
        prop_assert_eq!(a1.next_digest(), a2.next_digest());
        if la != lb {
            let mut b = Prg::from_seed_label(&seed, &lb);
            let mut a3 = Prg::from_seed_label(&seed, &la);
            prop_assert_ne!(a3.next_digest(), b.next_digest());
        }
    }

    #[test]
    fn sample_distinct_is_distinct_and_in_range(seed in any::<[u8; 8]>(), n in 1u64..500, k_frac in 0.0f64..1.0) {
        let k = ((n as f64 * k_frac) as usize).min(n as usize);
        let mut prg = Prg::from_seed_bytes(&seed);
        let sample = prg.sample_distinct(n, k);
        prop_assert_eq!(sample.len(), k);
        let set: std::collections::HashSet<_> = sample.iter().collect();
        prop_assert_eq!(set.len(), k);
        prop_assert!(sample.iter().all(|&v| v < n));
    }

    /// `Prg::skip(k)` is drawing `k` bytes and discarding them — from a
    /// block-aligned position and from inside a block, across the bulk
    /// path's group width, and whichever reader continues the stream.
    #[test]
    fn prg_skip_is_draw_and_discard(seed in any::<[u8; 8]>(), drawn_first in 0usize..=70) {
        let group = 32 * LANES as u64;
        for k in [0, 1, 31, 32, 33, group - 1, group + 1, 4096] {
            for scalar_reader in [false, true] {
                let mut skipped = Prg::from_seed_bytes(&seed);
                skipped.fill_bytes(&mut vec![0u8; drawn_first]);
                let mut drawn = skipped.clone();
                skipped.skip(k);
                drawn.fill_bytes(&mut vec![0u8; k as usize]);
                let (mut a, mut b) = ([0u8; 100], [0u8; 100]);
                if scalar_reader {
                    skipped.fill_bytes_scalar(&mut a);
                    drawn.fill_bytes_scalar(&mut b);
                } else {
                    skipped.fill_bytes(&mut a);
                    drawn.fill_bytes(&mut b);
                }
                prop_assert_eq!(a, b, "k={} scalar_reader={}", k, scalar_reader);
                prop_assert_eq!(skipped.next_u64(), drawn.next_u64());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The signer that re-derives one one-time key from the keygen stream
    /// emits, for every index of every key shape, exactly the signature of
    /// the fully generated key pair — wherever in its stream the keygen PRG
    /// stands — and refuses an index past capacity instead of wrapping.
    #[test]
    fn mss_rederived_signature_is_the_generated_keys(
        seed in any::<[u8; 8]>(),
        drawn_first in 0usize..=70,
        message in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        for bits in [1usize, 7, 32, 128] {
            for height in 0usize..=4 {
                let params = MssParams::new(bits, height);
                let mut keygen_prg = Prg::from_seed_bytes(&seed);
                keygen_prg.fill_bytes(&mut vec![0u8; drawn_first]);
                let kp = MssKeyPair::generate(&params, &mut keygen_prg.clone());
                let one_time_vks: Vec<Digest> = kp.one_time_vks().collect();
                prop_assert_eq!(one_time_vks.len(), params.capacity());
                for index in 0..params.capacity() {
                    let sig = params
                        .sign_rederived(&keygen_prg, &one_time_vks, &message, index as u64)
                        .expect("index within capacity");
                    prop_assert_eq!(
                        &sig,
                        &kp.sign_with_index(&message, index),
                        "bits={} height={} index={}", bits, height, index
                    );
                    prop_assert!(params.verify(&kp.verification_key(), &message, &sig));
                }
                for past in [params.capacity() as u64, u64::MAX] {
                    prop_assert!(params
                        .sign_rederived(&keygen_prg, &one_time_vks, &message, past)
                        .is_none());
                }
                // The caller's PRG was only ever read.
                let mut untouched = Prg::from_seed_bytes(&seed);
                untouched.fill_bytes(&mut vec![0u8; drawn_first]);
                prop_assert_eq!(keygen_prg.next_digest(), untouched.next_digest());
            }
        }
    }
}
