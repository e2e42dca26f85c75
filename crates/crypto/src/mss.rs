//! Merkle signature scheme (MSS): a many-time signature built from
//! Winternitz one-time keys ([`crate::wots`]) under a Merkle root
//! (Merkle '89).
//!
//! This is a *real* OWF-based signature — not a simulation — and serves as the
//! "standard EUF-CMA signature with bare PKI" that the paper's SNARK-based
//! SRDS and the multi-signature baseline assume. Each party locally generates
//! its own key (bare PKI), the verification key is one digest, and up to
//! `2^height` messages can be signed.
//!
//! A signature carries the key index, the W-OTS signature and the
//! authentication path, but not the one-time verification key: verifying
//! the W-OTS signature recomputes that key, and the path checks it against
//! the root.
//!
//! # Examples
//!
//! ```
//! use pba_crypto::mss::{MssParams, MssKeyPair};
//! use pba_crypto::prg::Prg;
//!
//! let params = MssParams::new(64, 3); // 64 signed digest bits, 8 one-time keys
//! let mut prg = Prg::from_seed_bytes(b"keygen");
//! let mut kp = MssKeyPair::generate(&params, &mut prg);
//! let sig = kp.sign(b"tx-1").unwrap();
//! assert!(params.verify(&kp.verification_key(), b"tx-1", &sig));
//! ```

use crate::merkle::{MerkleProof, MerkleTree};
use crate::prg::Prg;
use crate::sha256::{Digest, DIGEST_LEN};
use crate::wots::{WotsKeyPair, WotsParams, WotsSignature};
use std::fmt;

/// Parameters: signed digest bits of the W-OTS keys and Merkle tree height.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MssParams {
    wots: WotsParams,
    height: usize,
}

impl Default for MssParams {
    fn default() -> Self {
        Self::new(128, 4)
    }
}

impl MssParams {
    /// The tallest tree [`MssParams::new`] accepts: a simulator guard
    /// against huge keygen, for callers that size a key from outside input.
    pub const MAX_HEIGHT: usize = 16;

    /// Creates parameters for `2^height` W-OTS one-time keys signing `bits`
    /// digest bits.
    ///
    /// # Panics
    ///
    /// Panics if `height > MAX_HEIGHT` or if the W-OTS parameters are
    /// invalid.
    pub fn new(bits: usize, height: usize) -> Self {
        assert!(
            height <= Self::MAX_HEIGHT,
            "height {height} unreasonably large for simulation"
        );
        MssParams {
            wots: WotsParams::new(bits),
            height,
        }
    }

    /// Underlying one-time signature parameters.
    pub fn wots(&self) -> &WotsParams {
        &self.wots
    }

    /// Maximum number of signatures per key.
    pub fn capacity(&self) -> usize {
        1 << self.height
    }

    /// Verifies an MSS signature: recomputes the one-time key from the
    /// W-OTS signature and checks it against the root along the
    /// authentication path of leaf `key_index`.
    pub fn verify(&self, vk: &MssVerificationKey, message: &[u8], sig: &MssSignature) -> bool {
        let Some(one_time_vk) = self.wots.recover_key(message, &sig.wots_sig) else {
            return false;
        };
        sig.auth_path.leaf_index() == sig.key_index
            && sig.auth_path.verify_leaf_digest(
                &vk.0,
                &crate::merkle::hash_leaf(one_time_vk.digest().as_bytes()),
            )
    }

    /// Signs with one-time key `index` of the key pair
    /// [`MssKeyPair::generate`] builds from `keygen_prg`, deriving that one
    /// key alone: byte-identical to
    /// `MssKeyPair::generate(self, &mut keygen_prg.clone()).sign_with_index(message, index)`
    /// at the cost of one W-OTS key's chains instead of all `2^height`
    /// key pairs (the XMSS arrangement: a seed plus the kept bottom row).
    ///
    /// `one_time_vks` is that key pair's [`MssKeyPair::one_time_vks`] — public
    /// material, every entry of which a verifier recomputes from some
    /// signature. The keygen stream is position-based, so [`Prg::skip`]
    /// seeks to the key's `chains · 32` seed bytes; the authentication path
    /// comes from `one_time_vks`. `keygen_prg` is left untouched.
    ///
    /// Returns `None` when `index` is past the `2^height` capacity — never a
    /// wrap onto another key's chains.
    ///
    /// # Panics
    ///
    /// Panics unless `one_time_vks` holds exactly `2^height` digests.
    pub fn sign_rederived(
        &self,
        keygen_prg: &Prg,
        one_time_vks: &[Digest],
        message: &[u8],
        index: u64,
    ) -> Option<MssSignature> {
        assert_eq!(
            one_time_vks.len(),
            self.capacity(),
            "one verification key per one-time slot"
        );
        let slot = usize::try_from(index)
            .ok()
            .filter(|&i| i < self.capacity())?;
        let chains = self.wots.chains();
        let mut prg = keygen_prg.clone();
        prg.skip(index * (chains * DIGEST_LEN) as u64);
        debug_assert_eq!(
            WotsKeyPair::generate(&self.wots, &mut prg.clone())
                .verification_key()
                .digest(),
            one_time_vks[slot],
            "one_time_vks do not belong to this keygen stream"
        );
        let mut seeds = vec![[0u8; DIGEST_LEN]; chains];
        rand::RngCore::fill_bytes(&mut prg, seeds.as_flattened_mut());
        let tree = MerkleTree::from_leaves(one_time_vks.iter().map(Digest::as_bytes));
        Some(MssSignature {
            key_index: index,
            wots_sig: self.wots.sign_with_seeds(&seeds, message),
            auth_path: tree.prove(slot),
        })
    }
}

/// An MSS verification key: the Merkle root over the one-time keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MssVerificationKey(pub Digest);

impl MssVerificationKey {
    /// Raw digest of the key.
    pub fn digest(&self) -> Digest {
        self.0
    }
}

/// An MSS signing key: all one-time key pairs plus the Merkle tree and a
/// counter of the next unused leaf.
#[derive(Clone)]
pub struct MssKeyPair {
    params: MssParams,
    one_time: Vec<WotsKeyPair>,
    tree: MerkleTree,
    next: usize,
}

impl fmt::Debug for MssKeyPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MssKeyPair")
            .field("capacity", &self.one_time.len())
            .field("used", &self.next)
            .finish_non_exhaustive()
    }
}

impl MssKeyPair {
    /// Generates a key pair: `2^height` W-OTS keys and their Merkle tree.
    ///
    /// Keygen is the hash-heaviest operation in the workspace
    /// (`2^height · 15 · chains` chain steps plus the tree build), so both
    /// stages go through the multi-lane engine:
    /// [`WotsKeyPair::generate_many`] walks the chains of all one-time keys
    /// in lockstep, and [`MerkleTree::from_leaves`] batches each tree
    /// level. The resulting keys, root, and PRG state are byte-identical
    /// to generating the keys one at a time.
    pub fn generate(params: &MssParams, prg: &mut Prg) -> Self {
        let one_time = WotsKeyPair::generate_many(&params.wots, prg, params.capacity());
        let tree = MerkleTree::from_leaves(
            one_time
                .iter()
                .map(|kp| kp.verification_key().digest().into_bytes()),
        );
        MssKeyPair {
            params: *params,
            one_time,
            tree,
            next: 0,
        }
    }

    /// The parameters this key pair was generated with.
    pub fn params(&self) -> &MssParams {
        &self.params
    }

    /// The public verification key (Merkle root).
    pub fn verification_key(&self) -> MssVerificationKey {
        MssVerificationKey(self.tree.root())
    }

    /// The verification keys of the `2^height` one-time keys, in leaf
    /// order — the bottom row under the Merkle root. Public: a verifier
    /// recomputes each from the signature its key produces. What
    /// [`MssParams::sign_rederived`] needs in place of this key pair.
    pub fn one_time_vks(&self) -> impl Iterator<Item = Digest> + '_ {
        self.one_time
            .iter()
            .map(|kp| kp.verification_key().digest())
    }

    /// Signs with the next unused one-time key.
    ///
    /// # Errors
    ///
    /// Returns [`MssExhausted`] once all `2^height` one-time keys are spent.
    pub fn sign(&mut self, message: &[u8]) -> Result<MssSignature, MssExhausted> {
        if self.next >= self.one_time.len() {
            return Err(MssExhausted);
        }
        let idx = self.next;
        self.next += 1;
        Ok(self.sign_with_index(message, idx))
    }

    /// Signs with a specific one-time key index (deterministic; reusing an
    /// index for two *different* messages breaks one-time security — callers
    /// own that discipline).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn sign_with_index(&self, message: &[u8], index: usize) -> MssSignature {
        let kp = &self.one_time[index];
        MssSignature {
            key_index: index as u64,
            wots_sig: kp.sign(message),
            auth_path: self.tree.prove(index),
        }
    }
}

/// Error: every one-time key in the MSS pair has been used.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MssExhausted;

impl fmt::Display for MssExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("merkle signature key exhausted: all one-time keys used")
    }
}

impl std::error::Error for MssExhausted {}

/// A disjoint-slice allocator over the `2^height` one-time signing slots
/// of an MSS key generation.
///
/// Protocols that stream several executions over one key establishment
/// (each execution consuming one slot per key, via deterministic
/// [`MssKeyPair::sign_with_index`]) reserve their slice *before* starting,
/// so exhaustion is a structured, pre-flight [`LeafBudgetExceeded`] — not
/// a mid-protocol panic or, worse, a silent wrap onto an already-spent
/// one-time key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeafBudget {
    capacity: u64,
    next: u64,
}

impl LeafBudget {
    /// A budget over `capacity` one-time slots (typically
    /// [`MssParams::capacity`]), none consumed yet.
    pub fn new(capacity: u64) -> Self {
        LeafBudget { capacity, next: 0 }
    }

    /// Total slots the budget started with.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Slots handed out so far.
    pub fn consumed(&self) -> u64 {
        self.next
    }

    /// Slots still available.
    pub fn remaining(&self) -> u64 {
        self.capacity - self.next
    }

    /// Reserves the next `count` slots and returns their index range, or a
    /// structured [`LeafBudgetExceeded`] (consuming nothing) when fewer
    /// than `count` remain.
    pub fn reserve(&mut self, count: u64) -> Result<std::ops::Range<u64>, LeafBudgetExceeded> {
        if count > self.remaining() {
            return Err(LeafBudgetExceeded {
                requested: count,
                remaining: self.remaining(),
                capacity: self.capacity,
            });
        }
        let start = self.next;
        self.next += count;
        Ok(start..self.next)
    }
}

/// Error: a [`LeafBudget`] reservation asked for more one-time slots than
/// remain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeafBudgetExceeded {
    /// Slots the reservation asked for.
    pub requested: u64,
    /// Slots that were still available.
    pub remaining: u64,
    /// Total slots of the budget.
    pub capacity: u64,
}

impl fmt::Display for LeafBudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mss leaf budget exceeded: requested {} one-time slot(s) with {} of {} remaining",
            self.requested, self.remaining, self.capacity
        )
    }
}

impl std::error::Error for LeafBudgetExceeded {}

/// An MSS signature: one-time key index, the W-OTS signature, and the
/// Merkle authentication path. The one-time verification key is not sent:
/// [`MssParams::verify`] recomputes it from the W-OTS signature.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MssSignature {
    key_index: u64,
    wots_sig: WotsSignature,
    auth_path: MerkleProof,
}

impl MssSignature {
    /// Wire size in bytes.
    pub fn encoded_len(&self) -> usize {
        8 + self.wots_sig.encoded_len() + self.auth_path.encoded_len()
    }

    /// Decomposes into codec parts.
    pub fn into_parts(self) -> (u64, WotsSignature, MerkleProof) {
        (self.key_index, self.wots_sig, self.auth_path)
    }

    /// Rebuilds from codec parts.
    pub fn from_parts(key_index: u64, wots_sig: WotsSignature, auth_path: MerkleProof) -> Self {
        MssSignature {
            key_index,
            wots_sig,
            auth_path,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (MssParams, MssKeyPair) {
        let params = MssParams::new(32, 3);
        let mut prg = Prg::from_seed_bytes(b"mss");
        let kp = MssKeyPair::generate(&params, &mut prg);
        (params, kp)
    }

    #[test]
    fn sign_verify_many() {
        let (params, mut kp) = setup();
        let vk = kp.verification_key();
        for i in 0..params.capacity() {
            let msg = format!("msg-{i}");
            let sig = kp.sign(msg.as_bytes()).unwrap();
            assert!(params.verify(&vk, msg.as_bytes(), &sig));
        }
    }

    #[test]
    fn exhaustion() {
        let (_, mut kp) = setup();
        for i in 0..8 {
            kp.sign(format!("m{i}").as_bytes()).unwrap();
        }
        assert_eq!(kp.sign(b"one-too-many"), Err(MssExhausted));
    }

    #[test]
    fn wrong_message_rejected() {
        let (params, mut kp) = setup();
        let vk = kp.verification_key();
        let sig = kp.sign(b"a").unwrap();
        assert!(!params.verify(&vk, b"b", &sig));
    }

    #[test]
    fn cross_key_rejected() {
        let (params, mut kp1) = setup();
        let mut prg = Prg::from_seed_bytes(b"other");
        let kp2 = MssKeyPair::generate(&params, &mut prg);
        let sig = kp1.sign(b"a").unwrap();
        assert!(!params.verify(&kp2.verification_key(), b"a", &sig));
    }

    #[test]
    fn spliced_index_rejected() {
        // Take a valid signature and claim it came from a different leaf:
        // either the index alone, or the index and the path's leaf index
        // together (the recomputed key then hashes up a different branch).
        let (params, mut kp) = setup();
        let vk = kp.verification_key();
        let sig = kp.sign(b"a").unwrap();
        let (_, wsig, path) = sig.into_parts();
        let forged = MssSignature::from_parts(5, wsig.clone(), path.clone());
        assert!(!params.verify(&vk, b"a", &forged));
        let moved = MerkleProof::from_parts(5, path.path().to_vec());
        let forged = MssSignature::from_parts(5, wsig, moved);
        assert!(!params.verify(&vk, b"a", &forged));
    }

    #[test]
    fn deterministic_same_seed_same_root() {
        let params = MssParams::new(32, 2);
        let a = MssKeyPair::generate(&params, &mut Prg::from_seed_bytes(b"s"));
        let b = MssKeyPair::generate(&params, &mut Prg::from_seed_bytes(b"s"));
        assert_eq!(a.verification_key(), b.verification_key());
    }

    #[test]
    fn sign_with_index_is_deterministic() {
        let (params, kp) = setup();
        let s1 = kp.sign_with_index(b"m", 2);
        let s2 = kp.sign_with_index(b"m", 2);
        assert_eq!(s1, s2);
        assert!(params.verify(&kp.verification_key(), b"m", &s1));
    }

    #[test]
    fn leaf_budget_hands_out_disjoint_slices() {
        let mut budget = LeafBudget::new(8);
        assert_eq!(budget.reserve(3).unwrap(), 0..3);
        assert_eq!(budget.reserve(5).unwrap(), 3..8);
        assert_eq!(budget.remaining(), 0);
        assert_eq!(budget.consumed(), 8);
    }

    #[test]
    fn leaf_budget_overdraw_is_structured_and_consumes_nothing() {
        let mut budget = LeafBudget::new(4);
        budget.reserve(3).unwrap();
        let err = budget.reserve(2).expect_err("only one slot left");
        assert_eq!(
            err,
            LeafBudgetExceeded {
                requested: 2,
                remaining: 1,
                capacity: 4
            }
        );
        assert!(err.to_string().contains("leaf budget exceeded"));
        // The failed reservation consumed nothing: the last slot is intact.
        assert_eq!(budget.reserve(1).unwrap(), 3..4);
    }
}
