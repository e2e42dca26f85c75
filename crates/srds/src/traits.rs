//! The SRDS abstraction — Definition 2.1 of the paper, with the
//! succinctness decomposition of Definition 2.2.
//!
//! A *succinctly reconstructed distributed signature* scheme lets `n`
//! parties jointly produce a short certificate that a **majority** of them
//! signed a message, where:
//!
//! * aggregation happens incrementally in polylog-size batches
//!   (`Aggregate₁` deterministically filters inputs against the PKI;
//!   `Aggregate₂` combines the survivors without touching the `n`
//!   verification keys);
//! * every signature — base or aggregated — carries the minimum and maximum
//!   virtual index it covers (the paper's `min(σ)` / `max(σ)`), which is
//!   what lets the tree protocol prevent double-aggregation without
//!   tracking contributor sets;
//! * the final signature plus everything needed to verify it is `Õ(1)`.

use pba_crypto::prg::Prg;
use pba_crypto::sha256::Digest;
use std::fmt;

/// The PKI flavour a scheme is secure under (§1.2 "On the different PKI
/// models").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PkiMode {
    /// Honestly generated keys; corrupted parties cannot replace theirs.
    Trusted,
    /// Parties generate keys locally; the adversary may substitute corrupted
    /// parties' keys after seeing all public information.
    Bare,
}

impl fmt::Display for PkiMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PkiMode::Trusted => f.write_str("trusted-pki"),
            PkiMode::Bare => f.write_str("bare-pki"),
        }
    }
}

// The return type of [`Srds::cache_stats`], kept with it for its one caller.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub warm_hits: u64,
}

/// A succinctly reconstructed distributed signature scheme
/// (Setup, KeyGen, Sign, Aggregate, Verify).
///
/// `n` here is the number of *SRDS parties* — in the BA protocol this is
/// the number of virtual identities `n · z`, not the number of protocol
/// participants (see the "Notation n" remark under Definition 2.1).
pub trait Srds {
    /// Public parameters `pp` output by `Setup`.
    type PublicParams: Clone;
    /// A verification key.
    type VerificationKey: Clone + PartialEq + fmt::Debug;
    /// A signing key (may internally be "no key" for sortition schemes —
    /// `Sign` then returns `None`, the paper's `⊥`).
    type SigningKey: Clone;
    /// Base and aggregated signatures (the space `X`); `⊥` is modelled by
    /// `Option` at call sites.
    type Signature: Clone + PartialEq + fmt::Debug;

    /// A prepared view of the public key board `{vk_1 … vk_n}`.
    ///
    /// Verification and `Aggregate₁` are defined over the full key list;
    /// schemes that need derived structure over it (e.g. a Merkle index)
    /// build it once in [`Srds::prepare`] instead of per call.
    type KeyBoard;

    /// Which PKI model the scheme is secure in.
    fn mode(&self) -> PkiMode;

    /// Prepares the published key list for repeated aggregation and
    /// verification.
    fn prepare(&self, pp: &Self::PublicParams, vks: &[Self::VerificationKey]) -> Self::KeyBoard;

    /// `Setup(1^κ, 1^n) → pp`.
    fn setup(&self, n: usize, prg: &mut Prg) -> Self::PublicParams;

    /// `KeyGen(pp) → (vk, sk)`.
    fn keygen(
        &self,
        pp: &Self::PublicParams,
        prg: &mut Prg,
    ) -> (Self::VerificationKey, Self::SigningKey);

    /// `Sign(pp, i, sk, m) → σ ∈ X ∪ {⊥}`.
    fn sign(
        &self,
        pp: &Self::PublicParams,
        index: u64,
        sk: &Self::SigningKey,
        message: &[u8],
    ) -> Option<Self::Signature>;

    /// Signs within a numbered execution (epoch) of the surrounding
    /// protocol. SRDS security is defined for one-time signatures; schemes
    /// whose keys support several one-time slots (e.g. the Merkle-signature
    /// based construction) override this to consume a fresh slot per epoch,
    /// enabling the multi-execution broadcast corollary. The default
    /// ignores the epoch.
    fn sign_epoch(
        &self,
        pp: &Self::PublicParams,
        index: u64,
        sk: &Self::SigningKey,
        epoch: u64,
        message: &[u8],
    ) -> Option<Self::Signature> {
        let _ = epoch;
        self.sign(pp, index, sk, message)
    }

    /// How many digests of *public residue* [`Srds::key_residue`] keeps per
    /// key; `0` (the default) for schemes with nothing worth keeping.
    fn key_residue_len(&self, pp: &Self::PublicParams) -> usize {
        let _ = pp;
        0
    }

    /// Appends to `out` the [`Srds::key_residue_len`] digests of `sk` that a
    /// signer holding only the key's generation seed wants back at signing
    /// time. The residue is public — derivable from signatures the key
    /// issues — so a caller that keeps it still holds no secret.
    fn key_residue(&self, pp: &Self::PublicParams, sk: &Self::SigningKey, out: &mut Vec<Digest>) {
        let _ = (pp, sk, out);
    }

    /// [`Srds::sign_epoch`] for a signer that kept no signing key: signs as
    /// the key `keygen(pp, &mut keygen_prg.clone())` generates would, given
    /// that key's [`Srds::key_residue`]. The default regenerates the whole
    /// key; schemes whose keys hold many one-time slots override it to
    /// derive only the slot `epoch` spends. Either way the signature is
    /// bit-identical to the held key's and `keygen_prg` is left untouched.
    fn sign_epoch_rederived(
        &self,
        pp: &Self::PublicParams,
        index: u64,
        keygen_prg: &Prg,
        residue: &[Digest],
        epoch: u64,
        message: &[u8],
    ) -> Option<Self::Signature> {
        let _ = residue;
        let (_, sk) = self.keygen(pp, &mut keygen_prg.clone());
        self.sign_epoch(pp, index, &sk, epoch, message)
    }

    /// How many numbered executions (epochs) one key generation supports
    /// before [`Srds::sign_epoch`] runs out of one-time signing slots —
    /// `None` when the scheme places no epoch bound (e.g. sortition
    /// schemes whose `sign_epoch` ignores the epoch). Callers that stream
    /// instances over one establishment use this to budget disjoint
    /// capacity slices instead of discovering exhaustion mid-protocol.
    fn epoch_capacity(&self, pp: &Self::PublicParams) -> Option<u64> {
        let _ = pp;
        None
    }

    // Residue of the deleted certificate cache: `benchmark/src/workloads.rs`
    // — a frozen consumer, the one caller — still reads this signature. No
    // scheme overrides it. Removal is ROADMAP item 7.
    #[doc(hidden)]
    fn cache_stats(&self) -> Option<CacheStats> {
        None
    }

    /// `Aggregate₁(pp, {vk}, m, {σ}) → S_sig` — the deterministic,
    /// key-dependent filter. Output is the polylog-size subset of
    /// signatures that will actually be combined.
    fn aggregate1(
        &self,
        pp: &Self::PublicParams,
        board: &Self::KeyBoard,
        message: &[u8],
        sigs: &[Self::Signature],
    ) -> Vec<Self::Signature>;

    /// `Aggregate₂(pp, m, S_sig) → σ` — the key-independent combiner whose
    /// circuit is `Õ(1)`.
    fn aggregate2(
        &self,
        pp: &Self::PublicParams,
        message: &[u8],
        s_sig: &[Self::Signature],
    ) -> Option<Self::Signature>;

    /// `Verify(pp, {vk}, m, σ) → {0, 1}`.
    fn verify(
        &self,
        pp: &Self::PublicParams,
        board: &Self::KeyBoard,
        message: &[u8],
        sig: &Self::Signature,
    ) -> bool;

    /// The paper's `min(σ)`: smallest virtual index aggregated in `σ`.
    fn min_index(&self, sig: &Self::Signature) -> u64;

    /// The paper's `max(σ)`: largest virtual index aggregated in `σ`.
    fn max_index(&self, sig: &Self::Signature) -> u64;

    /// Wire size of a signature in bytes (for succinctness checks and
    /// communication accounting).
    fn signature_len(&self, sig: &Self::Signature) -> usize;

    /// Full `Aggregate = Aggregate₂ ∘ Aggregate₁` (Definition 2.1).
    fn aggregate(
        &self,
        pp: &Self::PublicParams,
        board: &Self::KeyBoard,
        message: &[u8],
        sigs: &[Self::Signature],
    ) -> Option<Self::Signature> {
        let s_sig = self.aggregate1(pp, board, message, sigs);
        self.aggregate2(pp, message, &s_sig)
    }
}

/// The result of a full PKI establishment for `n` SRDS parties: every
/// party's keys plus the public board of verification keys.
///
/// The experiments mutate `vks` for corrupted parties in bare-PKI mode
/// (Figure 1, step A.4b).
#[derive(Clone)]
pub struct PkiBoard<S: Srds> {
    /// Public parameters.
    pub pp: S::PublicParams,
    /// The bulletin board of verification keys, indexed by SRDS party.
    pub vks: Vec<S::VerificationKey>,
    /// Signing keys, indexed by SRDS party (the experiment hands corrupted
    /// ones to the adversary).
    pub sks: Vec<S::SigningKey>,
}

impl<S: Srds> fmt::Debug for PkiBoard<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PkiBoard")
            .field("n", &self.vks.len())
            .finish_non_exhaustive()
    }
}

impl<S: Srds> PkiBoard<S> {
    /// Runs `Setup` and `KeyGen` for all `n` parties.
    pub fn establish(scheme: &S, n: usize, prg: &mut Prg) -> Self {
        let pp = scheme.setup(n, prg);
        let mut vks = Vec::with_capacity(n);
        let mut sks = Vec::with_capacity(n);
        for i in 0..n {
            let mut kprg = prg.child("keygen", i as u64);
            let (vk, sk) = scheme.keygen(&pp, &mut kprg);
            vks.push(vk);
            sks.push(sk);
        }
        PkiBoard { pp, vks, sks }
    }

    /// Prepares the key board for aggregation/verification. Call again
    /// after any bare-PKI key replacement.
    pub fn prepare(&self, scheme: &S) -> S::KeyBoard {
        scheme.prepare(&self.pp, &self.vks)
    }

    /// Number of SRDS parties.
    pub fn len(&self) -> usize {
        self.vks.len()
    }

    /// True if the board is empty.
    pub fn is_empty(&self) -> bool {
        self.vks.is_empty()
    }
}

/// Checks the succinctness bound of Definition 2.2(1): signature size at
/// most `alpha(n, κ)` for a polylog bound — instantiated as
/// `cap_bytes = base · (log₂ n)^2` with a scheme-provided `base`.
pub fn check_succinctness(sig_len: usize, n: usize, base: usize) -> bool {
    let logn = (usize::BITS - n.max(2).saturating_sub(1).leading_zeros()) as usize;
    sig_len <= base * logn * logn
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pki_mode_display() {
        assert_eq!(PkiMode::Trusted.to_string(), "trusted-pki");
        assert_eq!(PkiMode::Bare.to_string(), "bare-pki");
    }

    #[test]
    fn succinctness_bound() {
        // 1 KiB base: at n=1024 (log=10) the cap is 100 KiB.
        assert!(check_succinctness(50_000, 1024, 1024));
        assert!(!check_succinctness(200_000, 1024, 1024));
        // Degenerate small n uses log >= 1.
        assert!(check_succinctness(100, 2, 1024));
    }
}
