//! Winternitz one-time signatures (W-OTS, `w = 16`) with **oblivious key
//! generation**.
//!
//! This is the one-time signature the paper's OWF-based SRDS needs (§2.2,
//! Theorem 2.7) — a scheme whose verification key can be sampled *without*
//! a signing key, indistinguishably from a real one — and the one-time key
//! under every leaf of the Merkle signature scheme ([`crate::mss`]).
//!
//! Construction (Winternitz, as in Merkle '89, with a hash-compressed
//! public key):
//!
//! * the message is hashed and truncated to `bits` bits, read as
//!   `⌈bits/4⌉` base-16 digits `dᵢ` (LSB-first within bytes), followed by
//!   the base-16 digits of the checksum `Σ(15 − dᵢ)`; each digit owns one
//!   hash chain;
//! * the signing key is one random 32-byte seed per chain; a chain step is
//!   `x ↦ SHA256(chain ‖ step ‖ x)` (two tweak bytes, so every step is one
//!   compression), and the chain end is the value after 15 steps;
//! * the verification key is `SHA256(end₀ ‖ end₁ ‖ …)` — a single digest;
//! * a signature is, per chain, the value after `dᵢ` steps; the verifier
//!   walks each chain the remaining `15 − dᵢ` steps and recomputes the key.
//!
//! Raising a message digit means walking its chain forward, which anyone
//! can do; the checksum then falls, and lowering a checksum digit would
//! mean inverting the hash. At 32 bits a signature is 10 chain values
//! (320 B) against Lamport's 64 digests (2,048 B).
//!
//! `w = 16` is a constant, not a knob: it is the largest base whose keygen
//! (seeds, `15 · chains` steps, the key hash) costs about as many
//! compressions as a Lamport key over the same bits — 166 against 161 at
//! 32 bits; w = 256 would cost 1,540 (EXPERIMENTS.md §E-wots).
//!
//! Oblivious key generation samples the verification key uniformly at
//! random: `H` outputs are pseudorandom, so oblivious keys are
//! indistinguishable from real ones, which is what lets the SRDS sortition
//! hide who can sign.
//!
//! All chains advance in lockstep through
//! [`batch_digest_tweaked_in_place`]: key generation steps every chain of
//! every key together, signing and verification every live chain of one
//! key, one engine call per step.
//!
//! # Examples
//!
//! ```
//! use pba_crypto::wots::{WotsKeyPair, WotsParams};
//! use pba_crypto::prg::Prg;
//!
//! let params = WotsParams::new(32);
//! let mut prg = Prg::from_seed_bytes(b"keygen");
//! let kp = WotsKeyPair::generate(&params, &mut prg);
//! let sig = kp.sign(b"message");
//! assert_eq!(sig.encoded_len(), 1 + 10 * 32);
//! assert!(params.verify(&kp.verification_key(), b"message", &sig));
//! assert!(!params.verify(&kp.verification_key(), b"other", &sig));
//! ```

use crate::prg::Prg;
use crate::sha256::{batch_digest, batch_digest_tweaked_in_place, Digest, Sha256, DIGEST_LEN};

/// Bits per Winternitz digit: `w = 2^LOG_W = 16`.
pub const LOG_W: usize = 4;

/// The largest digit, and the number of steps from a seed to its chain end.
pub const MAX_DIGIT: u8 = (1 << LOG_W) - 1;

/// A chain value: a seed, an intermediate link, or an end.
type Link = [u8; DIGEST_LEN];

/// Parameters of the scheme: how many message-digest bits are signed.
///
/// `bits` trades signature size (`chains · 32` bytes) against the concrete
/// hardness of finding a second message with a colliding truncated digest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WotsParams {
    bits: usize,
    message_digits: usize,
    checksum_digits: usize,
}

impl WotsParams {
    /// Creates parameters signing `bits` digest bits.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= bits <= 256`.
    pub fn new(bits: usize) -> Self {
        assert!((1..=256).contains(&bits), "bits must be in 1..=256");
        let message_digits = bits.div_ceil(LOG_W);
        let max_checksum = message_digits * MAX_DIGIT as usize;
        let mut checksum_digits = 1;
        while max_checksum >> (LOG_W * checksum_digits) > 0 {
            checksum_digits += 1;
        }
        WotsParams {
            bits,
            message_digits,
            checksum_digits,
        }
    }

    /// Number of signed digest bits.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Number of hash chains: message digits plus checksum digits (10 at
    /// 32 bits, 6 at 16, 35 at 128).
    pub fn chains(&self) -> usize {
        self.message_digits + self.checksum_digits
    }

    /// Signature size in bytes on the wire (including the codec's varint
    /// sequence-length prefix).
    pub fn signature_len(&self) -> usize {
        crate::codec::varint_len(self.chains() as u64) + self.chains() * DIGEST_LEN
    }

    /// The base-16 digits `message` signs, one per chain: the digits of its
    /// truncated digest, then those of the checksum `Σ(15 − dᵢ)`, least
    /// significant first.
    pub fn digits(&self, message: &[u8]) -> Vec<u8> {
        let d = Sha256::digest(message);
        let mut digits: Vec<u8> = (0..self.message_digits)
            .map(|i| {
                let nibble = (d.as_bytes()[i / 2] >> (LOG_W * (i % 2))) & MAX_DIGIT;
                let width = (self.bits - LOG_W * i).min(LOG_W);
                nibble & ((1 << width) - 1)
            })
            .collect();
        let checksum: usize = digits.iter().map(|&d| (MAX_DIGIT - d) as usize).sum();
        digits.extend(
            (0..self.checksum_digits).map(|j| ((checksum >> (LOG_W * j)) as u8) & MAX_DIGIT),
        );
        digits
    }

    /// Verifies `sig` on `message` under `vk`.
    pub fn verify(&self, vk: &WotsVerificationKey, message: &[u8], sig: &WotsSignature) -> bool {
        self.recover_key(message, sig) == Some(*vk)
    }

    /// The verification key under which `sig` signs `message`: every chain
    /// walked to its end, then hashed. `None` when `sig` has the wrong
    /// number of chains. A Merkle signature checks this key against its
    /// authentication path instead of carrying it.
    pub fn recover_key(&self, message: &[u8], sig: &WotsSignature) -> Option<WotsVerificationKey> {
        if sig.chains.len() != self.chains() {
            return None;
        }
        let digits = self.digits(message);
        let mut links = sig.chains.clone();
        advance(self.chains(), &mut links, |i| digits[i], |_| MAX_DIGIT);
        Some(WotsVerificationKey(Sha256::digest(links.as_flattened())))
    }

    /// Signs `message` with the key whose chain seeds are `seeds`: what
    /// [`WotsKeyPair::sign`] and a signer that re-derives its seeds from
    /// the keygen stream ([`crate::mss::MssParams::sign_rederived`]) both
    /// call.
    pub(crate) fn sign_with_seeds(&self, seeds: &[Link], message: &[u8]) -> WotsSignature {
        debug_assert_eq!(seeds.len(), self.chains());
        let digits = self.digits(message);
        let mut chains = seeds.to_vec();
        advance(self.chains(), &mut chains, |_| 0, |i| digits[i]);
        WotsSignature { chains }
    }
}

/// Walks `links[i]`, a link of chain `i % chains`, from position `from(i)`
/// to position `to(i)`, all chains in lockstep.
///
/// Links are ordered by decreasing remaining steps once, so the chains
/// still live at step `s` are a prefix of one buffer: each step is one
/// [`batch_digest_tweaked_in_place`] call with no allocation.
fn advance(
    chains: usize,
    links: &mut [Link],
    from: impl Fn(usize) -> u8,
    to: impl Fn(usize) -> u8,
) {
    let steps = |i: usize| to(i) - from(i);
    let mut order: Vec<usize> = (0..links.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(steps(i)));
    let mut lockstep: Vec<Link> = order.iter().map(|&i| links[i]).collect();
    let mut live = lockstep.len();
    for s in 0..order.first().map_or(0, |&i| steps(i)) {
        while steps(order[live - 1]) <= s {
            live -= 1;
        }
        batch_digest_tweaked_in_place(&mut lockstep[..live], |p| {
            let i = order[p];
            [(i % chains) as u8, from(i) + s]
        });
    }
    for (&i, link) in order.iter().zip(lockstep) {
        links[i] = link;
    }
}

/// A W-OTS verification key: a single 32-byte digest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WotsVerificationKey(pub Digest);

impl WotsVerificationKey {
    /// **Oblivious key generation**: samples a verification key uniformly,
    /// with no corresponding signing key in existence.
    ///
    /// Indistinguishable from a real key under the pseudorandomness of the
    /// hash; this is the heart of the sortition-based trusted PKI.
    pub fn generate_oblivious(prg: &mut Prg) -> Self {
        WotsVerificationKey(prg.next_digest())
    }

    /// Raw digest of the key.
    pub fn digest(&self) -> Digest {
        self.0
    }
}

/// A W-OTS signing/verification key pair: one seed per chain.
#[derive(Clone, Debug)]
pub struct WotsKeyPair {
    params: WotsParams,
    seeds: Vec<Link>,
    vk: WotsVerificationKey,
}

impl WotsKeyPair {
    /// Generates a fresh key pair from `prg`: draws `chains · 32` seed
    /// bytes and walks every chain to its end.
    pub fn generate(params: &WotsParams, prg: &mut Prg) -> Self {
        Self::generate_many(params, prg, 1)
            .pop()
            .expect("generate_many(1) yields one key")
    }

    /// Generates `count` key pairs from `prg`, walking step `j` of every
    /// chain of every key in one engine call.
    ///
    /// Equivalent to calling [`WotsKeyPair::generate`] `count` times on the
    /// same `prg`: the seeds are drawn in one [`rand::RngCore::fill_bytes`]
    /// call (the PRG stream is position-based, so one large fill emits the
    /// same bytes as many small fills in order). This is the MSS keygen
    /// fast path.
    pub fn generate_many(params: &WotsParams, prg: &mut Prg, count: usize) -> Vec<Self> {
        let chains = params.chains();
        let mut seeds = vec![[0u8; DIGEST_LEN]; count * chains];
        rand::RngCore::fill_bytes(prg, seeds.as_flattened_mut());
        let mut ends = seeds.clone();
        advance(chains, &mut ends, |_| 0, |_| MAX_DIGIT);
        let key_inputs: Vec<&[u8]> = ends
            .chunks_exact(chains)
            .map(|key| key.as_flattened())
            .collect();
        batch_digest(&key_inputs)
            .into_iter()
            .zip(seeds.chunks_exact(chains))
            .map(|(vk, seeds)| WotsKeyPair {
                params: *params,
                seeds: seeds.to_vec(),
                vk: WotsVerificationKey(vk),
            })
            .collect()
    }

    /// The verification key.
    pub fn verification_key(&self) -> WotsVerificationKey {
        self.vk
    }

    /// Signs a message. **One-time**: signing two distinct messages with the
    /// same key reveals links from which a third message's signature may be
    /// walked.
    pub fn sign(&self, message: &[u8]) -> WotsSignature {
        self.params.sign_with_seeds(&self.seeds, message)
    }
}

/// A W-OTS signature: one chain value per digit, in chain order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WotsSignature {
    chains: Vec<Link>,
}

impl WotsSignature {
    /// Wire size in bytes (including the codec's varint sequence-length
    /// prefix).
    pub fn encoded_len(&self) -> usize {
        crate::codec::varint_len(self.chains.len() as u64) + self.chains.len() * DIGEST_LEN
    }

    /// The chain values, in chain order.
    pub fn chains(&self) -> &[[u8; DIGEST_LEN]] {
        &self.chains
    }

    /// Rebuilds a signature from its chain values (used by codecs).
    pub fn from_chains(chains: Vec<[u8; DIGEST_LEN]>) -> Self {
        WotsSignature { chains }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_counts_match_the_digit_arithmetic() {
        for (bits, chains) in [
            (1, 2),
            (4, 2),
            (8, 4),
            (16, 6),
            (32, 10),
            (64, 18),
            (128, 35),
            (256, 67),
        ] {
            assert_eq!(WotsParams::new(bits).chains(), chains, "bits={bits}");
        }
        assert_eq!(WotsParams::new(32).signature_len(), 321);
        assert_eq!(WotsParams::new(16).signature_len(), 193);
    }

    #[test]
    fn digits_carry_their_checksum() {
        for bits in [1usize, 3, 16, 32, 255] {
            let params = WotsParams::new(bits);
            for message in [&b"a"[..], b"b", b""] {
                let digits = params.digits(message);
                assert_eq!(digits.len(), params.chains());
                let (msg, sum) = digits.split_at(params.message_digits);
                let checksum: usize = msg.iter().map(|&d| (MAX_DIGIT - d) as usize).sum();
                let encoded: usize = sum
                    .iter()
                    .enumerate()
                    .map(|(j, &d)| (d as usize) << (LOG_W * j))
                    .sum();
                assert_eq!(encoded, checksum, "bits={bits}");
                assert!(digits.iter().all(|&d| d <= MAX_DIGIT));
            }
        }
    }

    #[test]
    fn signs_only_its_message_under_its_key() {
        let params = WotsParams::new(64);
        let kp = WotsKeyPair::generate(&params, &mut Prg::from_seed_bytes(b"test-keygen"));
        let sig = kp.sign(b"hello");
        assert!(params.verify(&kp.verification_key(), b"hello", &sig));
        assert!(!params.verify(&kp.verification_key(), b"hellO", &sig));
        let other = WotsKeyPair::generate(&params, &mut Prg::from_seed_bytes(b"other"));
        assert!(!params.verify(&other.verification_key(), b"hello", &sig));
        let oblivious = WotsVerificationKey::generate_oblivious(&mut Prg::from_seed_bytes(b"o"));
        assert!(!params.verify(&oblivious, b"hello", &sig));
    }
}
