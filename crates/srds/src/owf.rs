//! SRDS from one-way functions in the trusted-PKI model (Theorem 2.7).
//!
//! The construction follows the paper's "sortition approach":
//!
//! * the trusted key generation tosses a biased coin per party so that, in
//!   expectation, only `s = Θ(polylog n)` parties receive a real
//!   Winternitz (W-OTS) signing key; everyone else's verification key is
//!   sampled **obliviously** (no signing key exists);
//! * oblivious keys are indistinguishable from real ones, so an adversary
//!   corrupting after seeing the PKI cannot bias the signer set — corrupt
//!   parties hold a `< 1/3` fraction of signing keys w.h.p.;
//! * `Sign` outputs `⊥` for parties without a signing key;
//! * aggregation is concatenation (deduplicated by signer index, sorted);
//! * verification counts distinct valid base signatures on the message and
//!   accepts at the majority-of-expected-signers threshold `⌈s/2⌉`.
//!
//! Honest parties contribute ≈ `(2/3)s` valid signatures ≥ threshold
//! (robustness); the adversary controls ≈ `s/3 <` threshold
//! (unforgeability). Signatures carry `O(s)` W-OTS signatures —
//! `polylog(n) · poly(κ)` bits, satisfying succinctness. An entry is the
//! signer id and `chains · 32` bytes of chain values: 201 B at the 16
//! signed bits the benches use.
//!
//! **Concrete-security margin.** Both bounds are concentration arguments:
//! a maximal `n/3` coalition holds `Binomial(n/3, s/n)` signing keys
//! (mean `s/3`, σ ≈ `√(s/3)`), so the distance to the `s/2` threshold is
//! `(s/6)/√(s/3) = √(3s)/6` standard deviations. The paper's asymptotic
//! `s = polylog(n)` makes this overwhelming; at simulation scale the
//! margin is what `signer_factor`/`min_signers` buy — the defaults give
//! ≈ 3σ against a maximal coalition (property-tested), and
//! security-critical deployments should scale `s` like a security
//! parameter, exactly as the committee-size discussion in EXPERIMENTS.md.
//!
//! # Examples
//!
//! ```
//! use pba_srds::owf::OwfSrds;
//! use pba_srds::traits::{PkiBoard, Srds};
//! use pba_crypto::prg::Prg;
//!
//! let scheme = OwfSrds::with_defaults();
//! let mut prg = Prg::from_seed_bytes(b"demo");
//! let board = PkiBoard::establish(&scheme, 64, &mut prg);
//! let sigs: Vec<_> = (0..64u64)
//!     .filter_map(|i| scheme.sign(&board.pp, i, &board.sks[i as usize], b"msg"))
//!     .collect();
//! let agg = scheme.aggregate(&board.pp, &board.vks, b"msg", &sigs).unwrap();
//! assert!(scheme.verify(&board.pp, &board.vks, b"msg", &agg));
//! ```

use crate::traits::{PkiMode, Srds};
use pba_crypto::codec::{CodecError, Decode, Encode, Reader};
use pba_crypto::prg::Prg;
use pba_crypto::wots::{WotsKeyPair, WotsParams, WotsSignature, WotsVerificationKey};
use std::collections::BTreeMap;

/// Tunables of the OWF-based SRDS.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OwfSrdsConfig {
    /// Signed digest bits of the W-OTS key (κ knob; smaller = fewer
    /// chains, smaller signatures).
    pub lamport_bits: usize,
    /// Expected signers as `signer_factor · log₂ n`, floored at
    /// `min_signers`.
    pub signer_factor: usize,
    /// Lower bound on the expected signer count.
    pub min_signers: usize,
}

impl Default for OwfSrdsConfig {
    fn default() -> Self {
        OwfSrdsConfig {
            lamport_bits: 32,
            signer_factor: 10,
            min_signers: 48,
        }
    }
}

/// The OWF / trusted-PKI SRDS scheme.
#[derive(Clone, Copy, Debug, Default)]
pub struct OwfSrds {
    config: OwfSrdsConfig,
}

impl OwfSrds {
    /// Creates the scheme with explicit tunables.
    pub fn new(config: OwfSrdsConfig) -> Self {
        OwfSrds { config }
    }

    /// Creates the scheme with default tunables.
    pub fn with_defaults() -> Self {
        Self::default()
    }

    /// The configuration.
    pub fn config(&self) -> &OwfSrdsConfig {
        &self.config
    }
}

/// Public parameters: party count, sortition rate, W-OTS parameters, and
/// the acceptance threshold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OwfPublicParams {
    /// Number of SRDS parties.
    pub n: usize,
    /// Expected number of parties holding signing keys.
    pub expected_signers: usize,
    /// Count of distinct valid base signatures required to accept.
    pub threshold: usize,
    /// Underlying one-time signature parameters.
    pub wots: WotsParams,
}

/// A signing key: present only for sortition winners.
#[derive(Clone, Debug, Default)]
pub struct OwfSigningKey(Option<WotsKeyPair>);

impl OwfSigningKey {
    /// Whether this party can sign.
    pub fn can_sign(&self) -> bool {
        self.0.is_some()
    }
}

/// One aggregated entry: signer index and W-OTS signature.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OwfEntry {
    /// SRDS party index of the signer.
    pub id: u64,
    /// The base one-time signature.
    pub sig: WotsSignature,
}

impl Encode for OwfEntry {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.id.encode(buf);
        self.sig.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        8 + self.sig.encoded_len()
    }
}

impl Decode for OwfEntry {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(OwfEntry {
            id: u64::decode(r)?,
            sig: WotsSignature::decode(r)?,
        })
    }
}

/// An OWF-SRDS signature: a sorted, id-distinct list of base signatures.
/// A base (`Sign`) signature is the single-entry case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OwfSignature {
    /// Entries sorted by increasing signer id.
    pub entries: Vec<OwfEntry>,
}

impl Encode for OwfSignature {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.entries.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.entries.encoded_len()
    }
}

impl Decode for OwfSignature {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(OwfSignature {
            entries: Vec::<OwfEntry>::decode(r)?,
        })
    }
}

impl Srds for OwfSrds {
    type PublicParams = OwfPublicParams;
    type VerificationKey = WotsVerificationKey;
    type SigningKey = OwfSigningKey;
    type Signature = OwfSignature;
    type KeyBoard = Vec<WotsVerificationKey>;

    fn prepare(
        &self,
        _pp: &OwfPublicParams,
        vks: &[WotsVerificationKey],
    ) -> Vec<WotsVerificationKey> {
        vks.to_vec()
    }

    fn mode(&self) -> PkiMode {
        PkiMode::Trusted
    }

    fn setup(&self, n: usize, _prg: &mut Prg) -> OwfPublicParams {
        let logn = (usize::BITS - n.max(2).saturating_sub(1).leading_zeros()) as usize;
        let expected_signers = (self.config.signer_factor * logn)
            .max(self.config.min_signers)
            .min(n);
        OwfPublicParams {
            n,
            expected_signers,
            threshold: expected_signers.div_ceil(2),
            wots: WotsParams::new(self.config.lamport_bits),
        }
    }

    fn keygen(&self, pp: &OwfPublicParams, prg: &mut Prg) -> (WotsVerificationKey, OwfSigningKey) {
        // Biased sortition coin: real key with probability s/n. This is the
        // honestly-executed trusted key generation; in tr-pki mode the
        // adversary cannot re-run it.
        if prg.gen_bool_ratio(pp.expected_signers as u64, pp.n as u64) {
            let kp = WotsKeyPair::generate(&pp.wots, prg);
            (kp.verification_key(), OwfSigningKey(Some(kp)))
        } else {
            (
                WotsVerificationKey::generate_oblivious(prg),
                OwfSigningKey(None),
            )
        }
    }

    fn sign(
        &self,
        _pp: &OwfPublicParams,
        index: u64,
        sk: &OwfSigningKey,
        message: &[u8],
    ) -> Option<OwfSignature> {
        let kp = sk.0.as_ref()?;
        Some(OwfSignature {
            entries: vec![OwfEntry {
                id: index,
                sig: kp.sign(message),
            }],
        })
    }

    fn aggregate1(
        &self,
        pp: &OwfPublicParams,
        vks: &Vec<WotsVerificationKey>,
        message: &[u8],
        sigs: &[OwfSignature],
    ) -> Vec<OwfSignature> {
        // Deterministic filter: flatten, verify each entry against its key,
        // deduplicate by id (first valid wins). Output as single-entry
        // signatures so Aggregate₂ is key-independent.
        let mut seen: BTreeMap<u64, OwfEntry> = BTreeMap::new();
        for sig in sigs {
            for entry in &sig.entries {
                if seen.contains_key(&entry.id) {
                    continue;
                }
                let Some(vk) = vks.get(entry.id as usize) else {
                    continue;
                };
                if pp.wots.verify(vk, message, &entry.sig) {
                    seen.insert(entry.id, entry.clone());
                }
            }
        }
        // Succinctness cap: keep the lowest 4s ids (never binds w.h.p. —
        // there are only ~s signers in the entire system).
        let cap = 4 * pp.expected_signers;
        seen.into_values()
            .take(cap)
            .map(|entry| OwfSignature {
                entries: vec![entry],
            })
            .collect()
    }

    fn aggregate2(
        &self,
        _pp: &OwfPublicParams,
        _message: &[u8],
        s_sig: &[OwfSignature],
    ) -> Option<OwfSignature> {
        // Key-independent merge: concatenate and sort by id. Inputs come
        // from Aggregate₁, so they are valid and id-distinct.
        if s_sig.is_empty() {
            return None;
        }
        let mut entries: Vec<OwfEntry> = s_sig
            .iter()
            .flat_map(|s| s.entries.iter().cloned())
            .collect();
        entries.sort_by_key(|e| e.id);
        entries.dedup_by_key(|e| e.id);
        Some(OwfSignature { entries })
    }

    fn verify(
        &self,
        pp: &OwfPublicParams,
        vks: &Vec<WotsVerificationKey>,
        message: &[u8],
        sig: &OwfSignature,
    ) -> bool {
        // Count distinct valid signers; accept at the majority threshold.
        let mut valid = 0usize;
        let mut last_id: Option<u64> = None;
        for entry in &sig.entries {
            if let Some(prev) = last_id {
                if entry.id <= prev {
                    return false; // not sorted/distinct: malformed
                }
            }
            last_id = Some(entry.id);
            let Some(vk) = vks.get(entry.id as usize) else {
                return false;
            };
            if pp.wots.verify(vk, message, &entry.sig) {
                valid += 1;
            }
        }
        valid >= pp.threshold
    }

    fn min_index(&self, sig: &OwfSignature) -> u64 {
        sig.entries.first().map(|e| e.id).unwrap_or(u64::MAX)
    }

    fn max_index(&self, sig: &OwfSignature) -> u64 {
        sig.entries.last().map(|e| e.id).unwrap_or(0)
    }

    fn signature_len(&self, sig: &OwfSignature) -> usize {
        sig.encoded_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::PkiBoard;

    fn board(n: usize) -> (OwfSrds, PkiBoard<OwfSrds>) {
        let scheme = OwfSrds::with_defaults();
        let mut prg = Prg::from_seed_bytes(b"owf-test");
        let board = PkiBoard::establish(&scheme, n, &mut prg);
        (scheme, board)
    }

    fn all_signatures(
        scheme: &OwfSrds,
        board: &PkiBoard<OwfSrds>,
        msg: &[u8],
    ) -> Vec<OwfSignature> {
        (0..board.len() as u64)
            .filter_map(|i| scheme.sign(&board.pp, i, &board.sks[i as usize], msg))
            .collect()
    }

    #[test]
    fn sortition_rate_close_to_expected() {
        let (_, board) = board(2048);
        let signers = board.sks.iter().filter(|sk| sk.can_sign()).count();
        let expected = board.pp.expected_signers;
        assert!(
            signers as f64 > 0.5 * expected as f64 && (signers as f64) < 2.0 * expected as f64,
            "signers={signers} expected={expected}"
        );
    }

    #[test]
    fn full_honest_aggregate_verifies() {
        let (scheme, board) = board(512);
        let sigs = all_signatures(&scheme, &board, b"m");
        assert!(sigs.len() >= board.pp.threshold, "not enough signers");
        let agg = scheme
            .aggregate(&board.pp, &board.vks, b"m", &sigs)
            .unwrap();
        assert!(scheme.verify(&board.pp, &board.vks, b"m", &agg));
    }

    #[test]
    fn below_threshold_rejected() {
        let (scheme, board) = board(512);
        let sigs = all_signatures(&scheme, &board, b"m");
        let few = &sigs[..board.pp.threshold - 1];
        let agg = scheme.aggregate(&board.pp, &board.vks, b"m", few).unwrap();
        assert!(!scheme.verify(&board.pp, &board.vks, b"m", &agg));
    }

    #[test]
    fn wrong_message_signatures_filtered() {
        let (scheme, board) = board(512);
        let good = all_signatures(&scheme, &board, b"m");
        let bad = all_signatures(&scheme, &board, b"other");
        // Aggregating the other-message signatures as if on "m" filters all.
        let filtered = scheme.aggregate1(&board.pp, &board.vks, b"m", &bad);
        assert!(filtered.is_empty());
        // Mixed: only the good ones survive.
        let mut mixed = good.clone();
        mixed.extend(bad);
        let agg = scheme
            .aggregate(&board.pp, &board.vks, b"m", &mixed)
            .unwrap();
        assert!(scheme.verify(&board.pp, &board.vks, b"m", &agg));
        assert_eq!(agg.entries.len(), good.len());
    }

    #[test]
    fn duplicate_signatures_counted_once() {
        let (scheme, board) = board(512);
        let sigs = all_signatures(&scheme, &board, b"m");
        // Duplicate every signature 3 times.
        let mut dup = Vec::new();
        for s in &sigs {
            dup.push(s.clone());
            dup.push(s.clone());
            dup.push(s.clone());
        }
        let agg = scheme.aggregate(&board.pp, &board.vks, b"m", &dup).unwrap();
        assert_eq!(agg.entries.len(), sigs.len());
    }

    #[test]
    fn incremental_aggregation_matches_flat() {
        let (scheme, board) = board(512);
        let sigs = all_signatures(&scheme, &board, b"m");
        let flat = scheme
            .aggregate(&board.pp, &board.vks, b"m", &sigs)
            .unwrap();
        // Aggregate in two halves, then combine.
        let mid = sigs.len() / 2;
        let a = scheme
            .aggregate(&board.pp, &board.vks, b"m", &sigs[..mid])
            .unwrap();
        let b = scheme
            .aggregate(&board.pp, &board.vks, b"m", &sigs[mid..])
            .unwrap();
        let combined = scheme
            .aggregate(&board.pp, &board.vks, b"m", &[a, b])
            .unwrap();
        assert_eq!(combined, flat);
    }

    #[test]
    fn min_max_indices() {
        let (scheme, board) = board(512);
        let sigs = all_signatures(&scheme, &board, b"m");
        let first = &sigs[0];
        assert_eq!(scheme.min_index(first), scheme.max_index(first));
        let agg = scheme
            .aggregate(&board.pp, &board.vks, b"m", &sigs)
            .unwrap();
        assert!(scheme.min_index(&agg) < scheme.max_index(&agg));
        assert_eq!(scheme.min_index(&agg), agg.entries[0].id);
    }

    #[test]
    fn unsorted_aggregate_rejected_by_verify() {
        let (scheme, board) = board(512);
        let sigs = all_signatures(&scheme, &board, b"m");
        let mut agg = scheme
            .aggregate(&board.pp, &board.vks, b"m", &sigs)
            .unwrap();
        agg.entries.swap(0, 1);
        assert!(!scheme.verify(&board.pp, &board.vks, b"m", &agg));
    }

    #[test]
    fn duplicated_entry_in_final_signature_rejected() {
        let (scheme, board) = board(512);
        let sigs = all_signatures(&scheme, &board, b"m");
        let mut agg = scheme
            .aggregate(&board.pp, &board.vks, b"m", &sigs)
            .unwrap();
        // Adversarial final signature: repeat one entry to inflate count.
        let dup = agg.entries[0].clone();
        agg.entries.insert(0, dup);
        assert!(!scheme.verify(&board.pp, &board.vks, b"m", &agg));
    }

    #[test]
    fn signature_is_succinct() {
        let (scheme, board) = board(2048);
        let sigs = all_signatures(&scheme, &board, b"m");
        let agg = scheme
            .aggregate(&board.pp, &board.vks, b"m", &sigs)
            .unwrap();
        let len = scheme.signature_len(&agg);
        // Õ(1): bounded by signers * per-sig size, independent of n beyond log.
        let per_sig = board.pp.wots.signature_len() + 16;
        assert!(len <= 4 * board.pp.expected_signers * per_sig, "len={len}");
    }

    #[test]
    fn codec_roundtrip() {
        let (scheme, board) = board(256);
        let sigs = all_signatures(&scheme, &board, b"m");
        let agg = scheme
            .aggregate(&board.pp, &board.vks, b"m", &sigs)
            .unwrap();
        let bytes = pba_crypto::codec::encode_to_vec(&agg);
        let back: OwfSignature = pba_crypto::codec::decode_from_slice(&bytes).unwrap();
        assert_eq!(back, agg);
        assert!(scheme.verify(&board.pp, &board.vks, b"m", &back));
    }

    #[test]
    fn oblivious_parties_cannot_sign() {
        let (scheme, board) = board(256);
        for i in 0..board.len() as u64 {
            let sk = &board.sks[i as usize];
            if !sk.can_sign() {
                assert!(scheme.sign(&board.pp, i, sk, b"m").is_none());
            }
        }
    }
}
