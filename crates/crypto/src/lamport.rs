//! Lamport one-time signatures with **oblivious key generation**.
//!
//! This is the exact primitive the paper's OWF-based SRDS needs (§2.2,
//! Theorem 2.7): a signature scheme where a verification key can be sampled
//! *without* learning a corresponding signing key, and where keys generated
//! obliviously are indistinguishable from keys generated with a signing key.
//!
//! Construction (Lamport '79 with hash-compressed public keys):
//!
//! * the message is hashed and truncated to `bits` bits;
//! * the signing key is `2·bits` random 32-byte preimages;
//! * the verification key is `SHA256(H(x_{0,0}) ‖ H(x_{0,1}) ‖ …)` — a single
//!   digest;
//! * a signature reveals, per position, the preimage selected by the message
//!   bit and the *hash* of the complementary preimage, letting the verifier
//!   recompute the key digest.
//!
//! Oblivious key generation samples the verification key uniformly at random:
//! since `H` outputs are pseudorandom, oblivious keys are indistinguishable
//! from real ones, which is what lets the SRDS sortition hide who can sign.
//!
//! # Examples
//!
//! ```
//! use pba_crypto::lamport::{LamportParams, LamportKeyPair};
//! use pba_crypto::prg::Prg;
//!
//! let params = LamportParams::new(64);
//! let mut prg = Prg::from_seed_bytes(b"keygen");
//! let kp = LamportKeyPair::generate(&params, &mut prg);
//! let sig = kp.sign(b"message");
//! assert!(params.verify(&kp.verification_key(), b"message", &sig));
//! assert!(!params.verify(&kp.verification_key(), b"other", &sig));
//! ```

use crate::prg::Prg;
use crate::sha256::{batch_digest, Digest, Sha256, DIGEST_LEN};

/// Parameters for the Lamport scheme: how many message-digest bits are signed.
///
/// `bits` trades signature size (`bits · 64` bytes) against the concrete
/// hardness of finding a second message with a colliding truncated digest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LamportParams {
    bits: usize,
}

impl Default for LamportParams {
    fn default() -> Self {
        Self::new(128)
    }
}

impl LamportParams {
    /// Creates parameters signing `bits` digest bits.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= bits <= 256`.
    pub fn new(bits: usize) -> Self {
        assert!((1..=256).contains(&bits), "bits must be in 1..=256");
        LamportParams { bits }
    }

    /// Number of signed digest bits.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Signature size in bytes on the wire (including the codec's two
    /// varint sequence-length prefixes).
    pub fn signature_len(&self) -> usize {
        2 * crate::codec::varint_len(self.bits as u64) + self.bits * 2 * DIGEST_LEN
    }

    /// Truncated message digest as a bit vector (LSB-first within bytes).
    fn message_bits(&self, message: &[u8]) -> Vec<bool> {
        let d = Sha256::digest(message);
        (0..self.bits)
            .map(|i| (d.as_bytes()[i / 8] >> (i % 8)) & 1 == 1)
            .collect()
    }

    /// Verifies `sig` on `message` under `vk`.
    pub fn verify(
        &self,
        vk: &LamportVerificationKey,
        message: &[u8],
        sig: &LamportSignature,
    ) -> bool {
        if sig.revealed.len() != self.bits || sig.complement_hashes.len() != self.bits {
            return false;
        }
        let bits = self.message_bits(message);
        // The revealed preimages are independent 32-byte messages: one
        // batch through the hash engine instead of one digest each.
        let revealed: Vec<&[u8]> = sig.revealed.iter().map(|x| x.as_slice()).collect();
        let revealed_hashes = batch_digest(&revealed);
        let mut key_hasher = Sha256::new();
        for ((&bit, revealed_hash), complement_hash) in
            bits.iter().zip(revealed_hashes).zip(&sig.complement_hashes)
        {
            let (h0, h1) = if bit {
                (*complement_hash, revealed_hash)
            } else {
                (revealed_hash, *complement_hash)
            };
            key_hasher.update(h0.as_bytes());
            key_hasher.update(h1.as_bytes());
        }
        key_hasher.finalize() == vk.0
    }
}

/// A Lamport verification key: a single 32-byte digest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LamportVerificationKey(pub Digest);

impl LamportVerificationKey {
    /// **Oblivious key generation**: samples a verification key uniformly,
    /// with no corresponding signing key in existence.
    ///
    /// Indistinguishable from a real key under the pseudorandomness of the
    /// hash; this is the heart of the sortition-based trusted PKI.
    pub fn generate_oblivious(prg: &mut Prg) -> Self {
        LamportVerificationKey(prg.next_digest())
    }

    /// Raw digest of the key.
    pub fn digest(&self) -> Digest {
        self.0
    }
}

/// A Lamport signing/verification key pair.
#[derive(Clone, Debug)]
pub struct LamportKeyPair {
    params: LamportParams,
    // preimages[i] = (x_{i,0}, x_{i,1})
    preimages: Vec<([u8; DIGEST_LEN], [u8; DIGEST_LEN])>,
    vk: LamportVerificationKey,
}

impl LamportKeyPair {
    /// Generates a fresh key pair from `prg`.
    ///
    /// Routes through [`LamportKeyPair::generate_many`], so all `2·bits`
    /// preimage hashes of the key go through the multi-lane engine in one
    /// batch. Byte-identical to [`LamportKeyPair::generate_scalar`].
    pub fn generate(params: &LamportParams, prg: &mut Prg) -> Self {
        Self::generate_many(params, prg, 1)
            .pop()
            .expect("generate_many(1) yields one key")
    }

    /// Generates `count` key pairs from `prg`, batching *all* preimage
    /// hashes across keys through the multi-lane engine.
    ///
    /// Equivalent to calling [`LamportKeyPair::generate_scalar`] `count`
    /// times on the same `prg`: the preimage material is drawn in one
    /// [`rand::RngCore::fill_bytes`] call (the PRG stream is position-based,
    /// so one large fill emits the same bytes as many small fills in order),
    /// and the per-preimage hashes are bit-identical to the scalar core.
    /// This is the MSS keygen fast path — `capacity` keys hash
    /// `2·bits·capacity` preimages in lane-width groups.
    pub fn generate_many(params: &LamportParams, prg: &mut Prg, count: usize) -> Vec<Self> {
        let preimages_per_key = 2 * params.bits;
        let mut material = vec![0u8; count * preimages_per_key * DIGEST_LEN];
        rand::RngCore::fill_bytes(prg, &mut material);
        let refs: Vec<&[u8]> = material.chunks_exact(DIGEST_LEN).collect();
        let hashes = batch_digest(&refs);
        (0..count)
            .map(|k| {
                let base = k * preimages_per_key;
                let mut preimages = Vec::with_capacity(params.bits);
                let mut key_hasher = Sha256::new();
                for b in 0..params.bits {
                    let i0 = base + 2 * b;
                    let x0: [u8; DIGEST_LEN] =
                        refs[i0].try_into().expect("exact digest-length chunk");
                    let x1: [u8; DIGEST_LEN] =
                        refs[i0 + 1].try_into().expect("exact digest-length chunk");
                    key_hasher.update(hashes[i0].as_bytes());
                    key_hasher.update(hashes[i0 + 1].as_bytes());
                    preimages.push((x0, x1));
                }
                LamportKeyPair {
                    params: *params,
                    preimages,
                    vk: LamportVerificationKey(key_hasher.finalize()),
                }
            })
            .collect()
    }

    /// The scalar reference keygen: one streaming hash per preimage, drawn
    /// two fills per bit. Kept as the equivalence baseline for
    /// [`LamportKeyPair::generate_many`]; tests assert both paths produce
    /// identical keys from the same PRG state.
    pub fn generate_scalar(params: &LamportParams, prg: &mut Prg) -> Self {
        let mut preimages = Vec::with_capacity(params.bits);
        let mut key_hasher = Sha256::new();
        for _ in 0..params.bits {
            let mut x0 = [0u8; DIGEST_LEN];
            let mut x1 = [0u8; DIGEST_LEN];
            prg.fill_bytes_scalar(&mut x0);
            prg.fill_bytes_scalar(&mut x1);
            key_hasher.update(Sha256::digest(&x0).as_bytes());
            key_hasher.update(Sha256::digest(&x1).as_bytes());
            preimages.push((x0, x1));
        }
        let vk = LamportVerificationKey(key_hasher.finalize());
        LamportKeyPair {
            params: *params,
            preimages,
            vk,
        }
    }

    /// The verification key.
    pub fn verification_key(&self) -> LamportVerificationKey {
        self.vk
    }

    /// Signs a message. **One-time**: signing two distinct messages with the
    /// same key reveals enough preimages to forge.
    pub fn sign(&self, message: &[u8]) -> LamportSignature {
        self.params
            .sign_with_preimages(self.preimages.iter().map(|(x0, x1)| (x0, x1)), message)
    }
}

impl LamportParams {
    /// [`LamportKeyPair::sign`] over bare preimage pairs `(x_{i,0}, x_{i,1})`
    /// in key order: what a signer that re-derives its preimages from the
    /// keygen stream ([`crate::mss::MssParams::sign_rederived`]) calls
    /// without first hashing them into a verification key.
    pub(crate) fn sign_with_preimages<'a>(
        &self,
        preimages: impl Iterator<Item = (&'a [u8; DIGEST_LEN], &'a [u8; DIGEST_LEN])>,
        message: &[u8],
    ) -> LamportSignature {
        let bits = self.message_bits(message);
        let (revealed, complements): (Vec<[u8; DIGEST_LEN]>, Vec<&[u8]>) = bits
            .iter()
            .zip(preimages)
            .map(|(&bit, (x0, x1))| if bit { (*x1, &x0[..]) } else { (*x0, &x1[..]) })
            .unzip();
        // Independent 32-byte messages: one batch through the hash engine.
        let complement_hashes = batch_digest(&complements);
        LamportSignature {
            revealed,
            complement_hashes,
        }
    }
}

/// A Lamport signature: one revealed preimage and one complementary hash per
/// signed bit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LamportSignature {
    revealed: Vec<[u8; DIGEST_LEN]>,
    complement_hashes: Vec<Digest>,
}

impl LamportSignature {
    /// Wire size in bytes (including the codec's two varint sequence-length
    /// prefixes).
    pub fn encoded_len(&self) -> usize {
        crate::codec::varint_len(self.revealed.len() as u64)
            + crate::codec::varint_len(self.complement_hashes.len() as u64)
            + (self.revealed.len() + self.complement_hashes.len()) * DIGEST_LEN
    }

    /// Accessors used by codecs.
    pub fn into_parts(self) -> (Vec<[u8; DIGEST_LEN]>, Vec<Digest>) {
        (self.revealed, self.complement_hashes)
    }

    /// Rebuilds a signature from codec parts.
    pub fn from_parts(revealed: Vec<[u8; DIGEST_LEN]>, complement_hashes: Vec<Digest>) -> Self {
        LamportSignature {
            revealed,
            complement_hashes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    fn setup() -> (LamportParams, LamportKeyPair) {
        let params = LamportParams::new(64);
        let mut prg = Prg::from_seed_bytes(b"test-keygen");
        let kp = LamportKeyPair::generate(&params, &mut prg);
        (params, kp)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let (params, kp) = setup();
        let sig = kp.sign(b"hello");
        assert!(params.verify(&kp.verification_key(), b"hello", &sig));
    }

    #[test]
    fn wrong_message_rejected() {
        let (params, kp) = setup();
        let sig = kp.sign(b"hello");
        assert!(!params.verify(&kp.verification_key(), b"hellO", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let (params, kp) = setup();
        let mut prg = Prg::from_seed_bytes(b"other");
        let other = LamportKeyPair::generate(&params, &mut prg);
        let sig = kp.sign(b"hello");
        assert!(!params.verify(&other.verification_key(), b"hello", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let (params, kp) = setup();
        let sig = kp.sign(b"hello");
        let (mut revealed, complements) = sig.into_parts();
        revealed[0][0] ^= 1;
        let bad = LamportSignature::from_parts(revealed, complements);
        assert!(!params.verify(&kp.verification_key(), b"hello", &bad));
    }

    #[test]
    fn truncated_signature_rejected() {
        let (params, kp) = setup();
        let sig = kp.sign(b"hello");
        let (mut revealed, mut complements) = sig.into_parts();
        revealed.pop();
        complements.pop();
        let bad = LamportSignature::from_parts(revealed, complements);
        assert!(!params.verify(&kp.verification_key(), b"hello", &bad));
    }

    #[test]
    fn oblivious_key_cannot_verify_anything_sensible() {
        let (params, kp) = setup();
        let mut prg = Prg::from_seed_bytes(b"obliv");
        let ovk = LamportVerificationKey::generate_oblivious(&mut prg);
        let sig = kp.sign(b"m");
        assert!(!params.verify(&ovk, b"m", &sig));
    }

    #[test]
    fn oblivious_keys_look_like_real_keys() {
        // Both are 32-byte digests; a trivial distinguisher (first byte bias)
        // should see none. This is a smoke test of the format, not a proof.
        let params = LamportParams::new(16);
        let mut prg = Prg::from_seed_bytes(b"dist");
        let mut real_first = Vec::new();
        let mut obliv_first = Vec::new();
        for _ in 0..64 {
            real_first.push(LamportKeyPair::generate(&params, &mut prg).vk.0.as_bytes()[0]);
            obliv_first.push(
                LamportVerificationKey::generate_oblivious(&mut prg)
                    .0
                    .as_bytes()[0],
            );
        }
        let avg = |v: &[u8]| v.iter().map(|&b| b as f64).sum::<f64>() / v.len() as f64;
        assert!((avg(&real_first) - avg(&obliv_first)).abs() < 64.0);
    }

    #[test]
    fn signature_len_matches_params() {
        let (params, kp) = setup();
        let sig = kp.sign(b"x");
        assert_eq!(sig.encoded_len(), params.signature_len());
    }

    #[test]
    fn deterministic_keygen_from_seed() {
        let params = LamportParams::new(32);
        let k1 = LamportKeyPair::generate(&params, &mut Prg::from_seed_bytes(b"s"));
        let k2 = LamportKeyPair::generate(&params, &mut Prg::from_seed_bytes(b"s"));
        assert_eq!(k1.verification_key(), k2.verification_key());
    }

    #[test]
    fn batched_keygen_matches_scalar_reference() {
        for bits in [1usize, 7, 64, 128] {
            let params = LamportParams::new(bits);
            let mut batched_prg = Prg::from_seed_bytes(b"equiv");
            let mut scalar_prg = Prg::from_seed_bytes(b"equiv");
            let batched = LamportKeyPair::generate(&params, &mut batched_prg);
            let scalar = LamportKeyPair::generate_scalar(&params, &mut scalar_prg);
            assert_eq!(
                batched.verification_key(),
                scalar.verification_key(),
                "vk diverged at bits={bits}"
            );
            assert_eq!(batched.preimages, scalar.preimages, "preimages diverged");
            // PRG state must also agree so downstream draws are unchanged.
            assert_eq!(batched_prg.next_u64(), scalar_prg.next_u64());
        }
    }

    #[test]
    fn generate_many_matches_sequential_generate() {
        let params = LamportParams::new(16);
        let mut many_prg = Prg::from_seed_bytes(b"cross-key");
        let mut seq_prg = Prg::from_seed_bytes(b"cross-key");
        let many = LamportKeyPair::generate_many(&params, &mut many_prg, 5);
        let seq: Vec<_> = (0..5)
            .map(|_| LamportKeyPair::generate_scalar(&params, &mut seq_prg))
            .collect();
        assert_eq!(many.len(), 5);
        for (m, s) in many.iter().zip(&seq) {
            assert_eq!(m.verification_key(), s.verification_key());
            assert_eq!(m.preimages, s.preimages);
        }
        assert_eq!(many_prg.next_u64(), seq_prg.next_u64());
    }

    #[test]
    fn batched_sign_and_verify_match_one_digest_at_a_time() {
        // The per-position loops `sign` and `verify` ran before they were
        // batched, kept here as the reference.
        fn sign_one_by_one(kp: &LamportKeyPair, message: &[u8]) -> LamportSignature {
            let (mut revealed, mut complement_hashes) = (Vec::new(), Vec::new());
            for (&bit, (x0, x1)) in kp.params.message_bits(message).iter().zip(&kp.preimages) {
                let (shown, hidden) = if bit { (x1, x0) } else { (x0, x1) };
                revealed.push(*shown);
                complement_hashes.push(Sha256::digest(hidden));
            }
            LamportSignature::from_parts(revealed, complement_hashes)
        }
        fn verify_one_by_one(
            params: &LamportParams,
            vk: &LamportVerificationKey,
            message: &[u8],
            sig: &LamportSignature,
        ) -> bool {
            if sig.revealed.len() != params.bits || sig.complement_hashes.len() != params.bits {
                return false;
            }
            let mut key_hasher = Sha256::new();
            for (i, &bit) in params.message_bits(message).iter().enumerate() {
                let revealed_hash = Sha256::digest(&sig.revealed[i]);
                let (h0, h1) = if bit {
                    (sig.complement_hashes[i], revealed_hash)
                } else {
                    (revealed_hash, sig.complement_hashes[i])
                };
                key_hasher.update(h0.as_bytes());
                key_hasher.update(h1.as_bytes());
            }
            key_hasher.finalize() == vk.0
        }
        // Widths below, at and above the engine's group size, so both the
        // one-at-a-time and the grouped hashing paths sign and verify.
        for bits in [1usize, 7, 8, 9, 32, 128] {
            let params = LamportParams::new(bits);
            let kp = LamportKeyPair::generate(&params, &mut Prg::from_seed_bytes(b"sign-equiv"));
            let vk = kp.verification_key();
            for message in [&b"agree on 1"[..], b"", &[0xa5; 200]] {
                let sig = kp.sign(message);
                assert_eq!(sig, sign_one_by_one(&kp, message), "bits={bits}");
                let (mut revealed, complements) = sig.clone().into_parts();
                revealed[bits / 2][3] ^= 0x40;
                let tampered = LamportSignature::from_parts(revealed, complements);
                for (candidate, text) in
                    [(&sig, message), (&sig, &b"other"[..]), (&tampered, message)]
                {
                    assert_eq!(
                        params.verify(&vk, text, candidate),
                        verify_one_by_one(&params, &vk, text, candidate),
                        "bits={bits}"
                    );
                }
                assert!(params.verify(&vk, message, &sig));
                assert!(!params.verify(&vk, message, &tampered));
            }
        }
    }

    #[test]
    fn generate_many_zero_is_empty_and_state_neutral() {
        let params = LamportParams::new(8);
        let mut a = Prg::from_seed_bytes(b"zero");
        let mut b = Prg::from_seed_bytes(b"zero");
        assert!(LamportKeyPair::generate_many(&params, &mut a, 0).is_empty());
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
