//! The multi-signature baseline: what the paper's §1.2 calls "the culprit
//! for the large Θ(n) per-party communication within the low-locality
//! protocol of [BGT'13]".
//!
//! Multi-signatures aggregate succinctly, but **verification requires the
//! set of contributing parties** — information that takes `Θ(n)` bits to
//! describe. This scheme makes that cost explicit: an aggregated signature
//! carries an `n`-bit contributor bitmap next to a constant-size combined
//! tag, so its wire size is `n/8 + O(1)` bytes. Plugged into the same
//! `π_ba` driver, it reproduces the Θ(n)-per-party row of Table 1 that the
//! paper's SRDS constructions beat.
//!
//! The combined tag is attested through the same designated-setup
//! simulation as the SNARK system (DESIGN.md §2): aggregation verifies the
//! base signatures and MACs `(m, bitmap)`. A real pairing-based
//! multi-signature would have the same sizes and the same
//! contributor-bitmap verification interface, which is all the baseline
//! measures.

use crate::traits::{PkiMode, Srds};
use pba_crypto::codec::{CodecError, Decode, Encode, Reader};
use pba_crypto::mss::{MssKeyPair, MssParams, MssSignature, MssVerificationKey};
use pba_crypto::prg::Prg;
use pba_crypto::sha256::{Digest, Sha256, DIGEST_LEN};
use pba_snark::system::{Attestor, SnarkCrs};

/// Tunables of the multi-signature baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MultisigConfig {
    /// Lamport digest bits inside the MSS base signatures.
    pub mss_bits: usize,
    /// MSS tree height.
    pub mss_height: usize,
}

impl Default for MultisigConfig {
    fn default() -> Self {
        MultisigConfig {
            mss_bits: 32,
            mss_height: 1,
        }
    }
}

/// The multi-signature baseline scheme (bare PKI).
#[derive(Clone, Debug, Default)]
pub struct MultisigSrds {
    config: MultisigConfig,
}

impl MultisigSrds {
    /// Creates the scheme with explicit tunables.
    pub fn new(config: MultisigConfig) -> Self {
        MultisigSrds { config }
    }

    /// Creates the scheme with default tunables.
    pub fn with_defaults() -> Self {
        Self::default()
    }

    fn message_digest(message: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update(b"multisig-message");
        h.update(message);
        h.finalize()
    }

    fn tag(pp: &MultisigPublicParams, message: &[u8], bitmap: &[u8]) -> Digest {
        let mut payload = Vec::with_capacity(32 + bitmap.len());
        payload.extend_from_slice(Self::message_digest(message).as_bytes());
        payload.extend_from_slice(bitmap);
        let d = Sha256::digest(&payload);
        Attestor::new(pp.crs.clone(), "multisig-combine").attest(&d)
    }
}

/// Public parameters.
#[derive(Clone, Debug)]
pub struct MultisigPublicParams {
    /// Number of SRDS parties.
    pub n: usize,
    /// Base signature parameters.
    pub mss: MssParams,
    /// Attestation setup for the combined tag.
    pub crs: SnarkCrs,
    /// Majority threshold on the bitmap popcount.
    pub threshold: u64,
}

/// A multi-signature-baseline signature.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MultisigSignature {
    /// One base signature.
    Base {
        /// SRDS party index of the signer.
        id: u64,
        /// The base signature.
        mss: MssSignature,
    },
    /// A combined signature: constant-size tag + `Θ(n)` contributor bitmap.
    Combined {
        /// Contributor bitmap over all `n` SRDS parties (the Θ(n) part).
        bitmap: Vec<u8>,
        /// The combined tag.
        tag: Digest,
    },
    /// `Aggregate₁`'s output for a **verified** base signature — the local
    /// hand-off between the key-dependent filter and the key-independent
    /// combiner. Never travels on the wire: `Aggregate₁` drops incoming
    /// `Attested` values (it cannot re-validate them), and `Aggregate₂`
    /// refuses raw `Base` inputs, so minting a `Combined` requires passing
    /// the signature checks — mirroring the real multisig, where combining
    /// garbage yields an aggregate the verification equation rejects.
    Attested {
        /// SRDS party index of the verified signer.
        id: u64,
    },
}

impl MultisigSignature {
    fn bitmap_bounds(bitmap: &[u8]) -> Option<(u64, u64)> {
        let mut lo = None;
        let mut hi = None;
        for (byte_idx, &b) in bitmap.iter().enumerate() {
            if b == 0 {
                continue;
            }
            for bit in 0..8 {
                if b >> bit & 1 == 1 {
                    let idx = (byte_idx * 8 + bit) as u64;
                    if lo.is_none() {
                        lo = Some(idx);
                    }
                    hi = Some(idx);
                }
            }
        }
        Some((lo?, hi?))
    }

    fn popcount(bitmap: &[u8]) -> u64 {
        bitmap.iter().map(|b| b.count_ones() as u64).sum()
    }
}

impl Encode for MultisigSignature {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            MultisigSignature::Base { id, mss } => {
                buf.push(0);
                id.encode(buf);
                mss.encode(buf);
            }
            MultisigSignature::Combined { bitmap, tag } => {
                buf.push(1);
                (bitmap.len() as u64).encode(buf);
                buf.extend_from_slice(bitmap);
                tag.encode(buf);
            }
            MultisigSignature::Attested { id } => {
                buf.push(2);
                id.encode(buf);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        1 + match self {
            MultisigSignature::Base { mss, .. } => 8 + mss.encoded_len(),
            MultisigSignature::Combined { bitmap, .. } => 8 + bitmap.len() + DIGEST_LEN,
            MultisigSignature::Attested { .. } => 8,
        }
    }
}

impl Decode for MultisigSignature {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(MultisigSignature::Base {
                id: u64::decode(r)?,
                mss: MssSignature::decode(r)?,
            }),
            1 => {
                let len = u64::decode(r)?;
                if len > pba_crypto::codec::MAX_SEQ_LEN {
                    return Err(CodecError::LengthOverflow(len));
                }
                let bitmap = r.take(len as usize)?.to_vec();
                Ok(MultisigSignature::Combined {
                    bitmap,
                    tag: Digest::decode(r)?,
                })
            }
            2 => Ok(MultisigSignature::Attested {
                id: u64::decode(r)?,
            }),
            t => Err(CodecError::InvalidTag(t)),
        }
    }
}

impl Srds for MultisigSrds {
    type PublicParams = MultisigPublicParams;
    type VerificationKey = MssVerificationKey;
    type SigningKey = MssKeyPair;
    type Signature = MultisigSignature;
    type KeyBoard = Vec<MssVerificationKey>;

    fn mode(&self) -> PkiMode {
        PkiMode::Bare
    }

    fn prepare(
        &self,
        _pp: &MultisigPublicParams,
        vks: &[MssVerificationKey],
    ) -> Vec<MssVerificationKey> {
        vks.to_vec()
    }

    fn setup(&self, n: usize, prg: &mut Prg) -> MultisigPublicParams {
        let crs_seed = {
            use rand::RngCore;
            let mut bytes = [0u8; 32];
            prg.fill_bytes(&mut bytes);
            bytes
        };
        MultisigPublicParams {
            n,
            mss: MssParams::new(self.config.mss_bits, self.config.mss_height),
            crs: SnarkCrs::setup(&crs_seed),
            threshold: (n as u64) / 2 + 1,
        }
    }

    fn keygen(&self, pp: &MultisigPublicParams, prg: &mut Prg) -> (MssVerificationKey, MssKeyPair) {
        let kp = MssKeyPair::generate(&pp.mss, prg);
        (kp.verification_key(), kp)
    }

    fn sign(
        &self,
        pp: &MultisigPublicParams,
        index: u64,
        sk: &MssKeyPair,
        message: &[u8],
    ) -> Option<MultisigSignature> {
        let _ = pp;
        let m_digest = Self::message_digest(message);
        Some(MultisigSignature::Base {
            id: index,
            mss: sk.sign_with_index(m_digest.as_bytes(), 0),
        })
    }

    fn sign_epoch(
        &self,
        pp: &MultisigPublicParams,
        index: u64,
        sk: &MssKeyPair,
        epoch: u64,
        message: &[u8],
    ) -> Option<MultisigSignature> {
        // ⊥ past capacity — mirrors `SnarkSrds::sign_epoch`: wrapping onto
        // a spent one-time slot would silently break the MSS security
        // argument, so exhaustion is surfaced instead.
        if epoch >= pp.mss.capacity() as u64 {
            return None;
        }
        let m_digest = Self::message_digest(message);
        Some(MultisigSignature::Base {
            id: index,
            mss: sk.sign_with_index(m_digest.as_bytes(), epoch as usize),
        })
    }

    fn key_residue_len(&self, pp: &MultisigPublicParams) -> usize {
        pp.mss.capacity()
    }

    fn key_residue(&self, _pp: &MultisigPublicParams, sk: &MssKeyPair, out: &mut Vec<Digest>) {
        out.extend(sk.one_time_vks());
    }

    fn sign_epoch_rederived(
        &self,
        pp: &MultisigPublicParams,
        index: u64,
        keygen_prg: &Prg,
        residue: &[Digest],
        epoch: u64,
        message: &[u8],
    ) -> Option<MultisigSignature> {
        // `keygen` hands its PRG straight to `MssKeyPair::generate`, so the
        // key's generation stream starts where `keygen_prg` stands; ⊥ past
        // capacity as in `sign_epoch`.
        let m_digest = Self::message_digest(message);
        let mss = pp
            .mss
            .sign_rederived(keygen_prg, residue, m_digest.as_bytes(), epoch)?;
        Some(MultisigSignature::Base { id: index, mss })
    }

    fn epoch_capacity(&self, pp: &MultisigPublicParams) -> Option<u64> {
        Some(pp.mss.capacity() as u64)
    }

    fn aggregate1(
        &self,
        pp: &MultisigPublicParams,
        board: &Vec<MssVerificationKey>,
        message: &[u8],
        sigs: &[MultisigSignature],
    ) -> Vec<MultisigSignature> {
        let m_digest = Self::message_digest(message);
        let mut out = Vec::new();
        let mut seen_base = std::collections::BTreeSet::new();
        for sig in sigs {
            match sig {
                MultisigSignature::Base { id, mss } => {
                    if seen_base.contains(id) {
                        continue;
                    }
                    if let Some(vk) = board.get(*id as usize) {
                        if pp.mss.verify(vk, m_digest.as_bytes(), mss) {
                            seen_base.insert(*id);
                            out.push(MultisigSignature::Attested { id: *id });
                        }
                    }
                }
                MultisigSignature::Combined { bitmap, tag } => {
                    if bitmap.len() == pp.n.div_ceil(8) && Self::tag(pp, message, bitmap) == *tag {
                        out.push(sig.clone());
                    }
                }
                // Attested values are Aggregate₁'s own output: they carry no
                // verifiable material, so ones arriving from outside are
                // dropped (cannot be re-validated).
                MultisigSignature::Attested { .. } => {}
            }
        }
        out
    }

    fn aggregate2(
        &self,
        pp: &MultisigPublicParams,
        message: &[u8],
        s_sig: &[MultisigSignature],
    ) -> Option<MultisigSignature> {
        // Combine: OR the bitmaps of Aggregate₁-verified inputs. Raw Base
        // signatures must pass through Aggregate₁ first (Aggregate₂ has no
        // key access to validate them) and incoming Combined tags are
        // re-checked — so minting a tag requires verified contributions.
        if s_sig.is_empty() {
            return None;
        }
        let mut bitmap = vec![0u8; pp.n.div_ceil(8)];
        for sig in s_sig {
            match sig {
                MultisigSignature::Base { .. } => return None,
                MultisigSignature::Attested { id } => {
                    let idx = *id as usize;
                    if idx < pp.n {
                        bitmap[idx / 8] |= 1 << (idx % 8);
                    }
                }
                MultisigSignature::Combined { bitmap: other, tag } => {
                    if other.len() != bitmap.len() || Self::tag(pp, message, other) != *tag {
                        return None;
                    }
                    for (b, o) in bitmap.iter_mut().zip(other) {
                        *b |= o;
                    }
                }
            }
        }
        let tag = Self::tag(pp, message, &bitmap);
        Some(MultisigSignature::Combined { bitmap, tag })
    }

    fn verify(
        &self,
        pp: &MultisigPublicParams,
        _board: &Vec<MssVerificationKey>,
        message: &[u8],
        sig: &MultisigSignature,
    ) -> bool {
        match sig {
            MultisigSignature::Base { .. } | MultisigSignature::Attested { .. } => false,
            MultisigSignature::Combined { bitmap, tag } => {
                bitmap.len() == pp.n.div_ceil(8)
                    && Self::tag(pp, message, bitmap) == *tag
                    && MultisigSignature::popcount(bitmap) >= pp.threshold
            }
        }
    }

    fn min_index(&self, sig: &MultisigSignature) -> u64 {
        match sig {
            MultisigSignature::Base { id, .. } | MultisigSignature::Attested { id } => *id,
            MultisigSignature::Combined { bitmap, .. } => MultisigSignature::bitmap_bounds(bitmap)
                .map(|(lo, _)| lo)
                .unwrap_or(u64::MAX),
        }
    }

    fn max_index(&self, sig: &MultisigSignature) -> u64 {
        match sig {
            MultisigSignature::Base { id, .. } | MultisigSignature::Attested { id } => *id,
            MultisigSignature::Combined { bitmap, .. } => MultisigSignature::bitmap_bounds(bitmap)
                .map(|(_, hi)| hi)
                .unwrap_or(0),
        }
    }

    fn signature_len(&self, sig: &MultisigSignature) -> usize {
        sig.encoded_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::PkiBoard;
    use pba_crypto::codec::encode_to_vec;

    fn setup(
        n: usize,
    ) -> (
        MultisigSrds,
        PkiBoard<MultisigSrds>,
        Vec<MssVerificationKey>,
    ) {
        let scheme = MultisigSrds::with_defaults();
        let mut prg = Prg::from_seed_bytes(b"multisig");
        let board = PkiBoard::establish(&scheme, n, &mut prg);
        let keys = board.prepare(&scheme);
        (scheme, board, keys)
    }

    fn all_sigs(
        scheme: &MultisigSrds,
        board: &PkiBoard<MultisigSrds>,
        msg: &[u8],
    ) -> Vec<MultisigSignature> {
        (0..board.len() as u64)
            .filter_map(|i| scheme.sign(&board.pp, i, &board.sks[i as usize], msg))
            .collect()
    }

    #[test]
    fn aggregate_and_verify() {
        let (scheme, board, keys) = setup(64);
        let sigs = all_sigs(&scheme, &board, b"m");
        let agg = scheme.aggregate(&board.pp, &keys, b"m", &sigs).unwrap();
        assert!(scheme.verify(&board.pp, &keys, b"m", &agg));
    }

    #[test]
    fn signature_size_is_theta_n() {
        // The point of the baseline: combined size grows linearly with n.
        let mut sizes = Vec::new();
        for n in [64usize, 256, 1024] {
            let (scheme, board, keys) = setup(n);
            let sigs = all_sigs(&scheme, &board, b"m");
            let agg = scheme.aggregate(&board.pp, &keys, b"m", &sigs).unwrap();
            sizes.push(scheme.signature_len(&agg));
        }
        // Growth is exactly n/8 bytes of bitmap on top of a constant tag.
        assert_eq!(sizes[1] - sizes[0], (256 - 64) / 8, "sizes {sizes:?}");
        assert_eq!(sizes[2] - sizes[1], (1024 - 256) / 8, "sizes {sizes:?}");
    }

    #[test]
    fn below_majority_rejected() {
        let (scheme, board, keys) = setup(64);
        let sigs = all_sigs(&scheme, &board, b"m");
        let agg = scheme
            .aggregate(&board.pp, &keys, b"m", &sigs[..20])
            .unwrap();
        assert!(!scheme.verify(&board.pp, &keys, b"m", &agg));
    }

    #[test]
    fn tampered_bitmap_rejected() {
        let (scheme, board, keys) = setup(64);
        let sigs = all_sigs(&scheme, &board, b"m");
        let agg = scheme
            .aggregate(&board.pp, &keys, b"m", &sigs[..20])
            .unwrap();
        if let MultisigSignature::Combined { mut bitmap, tag } = agg {
            bitmap[7] = 0xff; // claim more contributors
            let forged = MultisigSignature::Combined { bitmap, tag };
            assert!(!scheme.verify(&board.pp, &keys, b"m", &forged));
        } else {
            panic!("expected combined");
        }
    }

    #[test]
    fn wrong_message_sigs_filtered() {
        let (scheme, board, keys) = setup(64);
        let bad = all_sigs(&scheme, &board, b"other");
        assert!(scheme.aggregate1(&board.pp, &keys, b"m", &bad).is_empty());
    }

    #[test]
    fn min_max_from_bitmap() {
        let (scheme, board, keys) = setup(64);
        let sigs = all_sigs(&scheme, &board, b"m");
        let agg = scheme
            .aggregate(&board.pp, &keys, b"m", &sigs[5..10])
            .unwrap();
        assert_eq!(scheme.min_index(&agg), 5);
        assert_eq!(scheme.max_index(&agg), 9);
    }

    #[test]
    fn recursive_aggregation() {
        let (scheme, board, keys) = setup(64);
        let sigs = all_sigs(&scheme, &board, b"m");
        let a = scheme
            .aggregate(&board.pp, &keys, b"m", &sigs[..32])
            .unwrap();
        let b = scheme
            .aggregate(&board.pp, &keys, b"m", &sigs[32..])
            .unwrap();
        let ab = scheme.aggregate(&board.pp, &keys, b"m", &[a, b]).unwrap();
        assert!(scheme.verify(&board.pp, &keys, b"m", &ab));
        if let MultisigSignature::Combined { bitmap, .. } = &ab {
            assert_eq!(MultisigSignature::popcount(bitmap), 64);
        }
    }

    #[test]
    fn aggregate2_refuses_unverified_base_inputs() {
        // Regression for the bitmap-inflation exploit: fabricating Base
        // entries for every party and calling Aggregate₂ directly must NOT
        // mint a majority certificate.
        let (scheme, board, keys) = setup(64);
        let own = scheme.sign(&board.pp, 0, &board.sks[0], b"forged").unwrap();
        let mut fabricated = vec![own.clone()];
        if let MultisigSignature::Base { mss, .. } = &own {
            for i in 1..64u64 {
                fabricated.push(MultisigSignature::Base {
                    id: i,
                    mss: mss.clone(),
                });
            }
        }
        assert_eq!(scheme.aggregate2(&board.pp, b"forged", &fabricated), None);
        // The full pipeline (Aggregate₁ + Aggregate₂) filters the garbage:
        // only the one genuine signature survives — far below threshold.
        let agg = scheme
            .aggregate(&board.pp, &keys, b"forged", &fabricated)
            .unwrap();
        assert!(!scheme.verify(&board.pp, &keys, b"forged", &agg));
        if let MultisigSignature::Combined { bitmap, .. } = &agg {
            assert_eq!(MultisigSignature::popcount(bitmap), 1);
        }
    }

    #[test]
    fn foreign_attested_values_dropped_by_aggregate1() {
        let (scheme, board, keys) = setup(64);
        let fake: Vec<MultisigSignature> = (0..64)
            .map(|id| MultisigSignature::Attested { id })
            .collect();
        assert!(scheme.aggregate1(&board.pp, &keys, b"m", &fake).is_empty());
    }

    #[test]
    fn tampered_combined_input_rejected_by_aggregate2() {
        let (scheme, board, keys) = setup(64);
        let sigs = all_sigs(&scheme, &board, b"m");
        let agg = scheme
            .aggregate(&board.pp, &keys, b"m", &sigs[..10])
            .unwrap();
        if let MultisigSignature::Combined { mut bitmap, tag } = agg {
            bitmap[7] = 0xff;
            let forged = MultisigSignature::Combined { bitmap, tag };
            assert_eq!(scheme.aggregate2(&board.pp, b"m", &[forged]), None);
        } else {
            panic!("expected combined");
        }
    }

    #[test]
    fn codec_roundtrip() {
        let (scheme, board, keys) = setup(64);
        let sigs = all_sigs(&scheme, &board, b"m");
        let agg = scheme.aggregate(&board.pp, &keys, b"m", &sigs).unwrap();
        let bytes = encode_to_vec(&agg);
        let back: MultisigSignature = pba_crypto::codec::decode_from_slice(&bytes).unwrap();
        assert!(scheme.verify(&board.pp, &keys, b"m", &back));
    }
}
