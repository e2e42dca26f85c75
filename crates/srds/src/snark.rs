//! SRDS from CRH + SNARKs (with linear extraction) in the bare-PKI + CRS
//! model (Theorem 2.8).
//!
//! The construction follows §2.2: base signatures are standard (bare-PKI)
//! signatures — our Merkle signature scheme — and aggregation carries a
//! **proof-carrying-data certificate** up the communication tree:
//!
//! * the public keys are indexed by a Merkle tree (built from the bulletin
//!   board after key publication — the CRH in the theorem statement);
//! * a leaf aggregator proves, via a PCD source step, that it knows `c`
//!   **distinct** valid base signatures on `m` from keys at positions
//!   `lo ≤ id₁ < … < id_c ≤ hi` under the key root;
//! * an internal aggregator proves a PCD join step: its children's
//!   certificates have pairwise **disjoint, increasing index ranges**, and
//!   its count is their sum — this is the CRH-based defence (together with
//!   the min/max range encoding of Definition 2.1) against the
//!   same-signature-aggregated-twice attack the paper highlights;
//! * the final certificate is `(count, lo, hi, accumulator, π)` — a few
//!   dozen bytes — and verification accepts iff `π` is valid and
//!   `count ≥ ⌈n/2⌉` (a majority of all SRDS parties signed).
//!
//! # Examples
//!
//! ```
//! use pba_srds::snark::SnarkSrds;
//! use pba_srds::traits::{PkiBoard, Srds};
//! use pba_crypto::prg::Prg;
//!
//! let scheme = SnarkSrds::with_defaults();
//! let mut prg = Prg::from_seed_bytes(b"demo");
//! let board = PkiBoard::establish(&scheme, 32, &mut prg);
//! let keys = board.prepare(&scheme);
//! let sigs: Vec<_> = (0..32u64)
//!     .filter_map(|i| scheme.sign(&board.pp, i, &board.sks[i as usize], b"msg"))
//!     .collect();
//! let agg = scheme.aggregate(&board.pp, &keys, b"msg", &sigs).unwrap();
//! assert!(scheme.verify(&board.pp, &keys, b"msg", &agg));
//! ```

use crate::traits::{PkiMode, Srds};
use pba_crypto::codec::{CodecError, Decode, Encode, Reader};
use pba_crypto::merkle::{MerkleProof, MerkleTree};
use pba_crypto::mss::{MssKeyPair, MssParams, MssSignature, MssVerificationKey};
use pba_crypto::prg::Prg;
use pba_crypto::sha256::{Digest, Sha256, DIGEST_LEN};
use pba_snark::pcd::{CompliancePredicate, PcdProof, PcdSystem};
use pba_snark::system::SnarkCrs;

/// Tunables of the SNARK-based SRDS.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnarkSrdsConfig {
    /// Signed digest bits of the W-OTS key under each MSS base signature.
    pub mss_bits: usize,
    /// MSS tree height (2^height one-time keys per SRDS party).
    pub mss_height: usize,
}

impl Default for SnarkSrdsConfig {
    fn default() -> Self {
        SnarkSrdsConfig {
            mss_bits: 32,
            mss_height: 1,
        }
    }
}

/// The CRH + SNARK / bare-PKI SRDS scheme.
#[derive(Clone, Debug, Default)]
pub struct SnarkSrds {
    config: SnarkSrdsConfig,
}

impl SnarkSrds {
    /// Creates the scheme with explicit tunables.
    pub fn new(config: SnarkSrdsConfig) -> Self {
        SnarkSrds { config }
    }

    /// Creates the scheme with default tunables.
    pub fn with_defaults() -> Self {
        Self::default()
    }
}

/// Public parameters: the CRS (common random string + SNARK setup), base
/// signature parameters, and the majority threshold.
#[derive(Clone, Debug)]
pub struct SnarkPublicParams {
    /// Number of SRDS parties.
    pub n: usize,
    /// Base-signature parameters.
    pub mss: MssParams,
    /// The SNARK common reference string.
    pub crs: SnarkCrs,
    /// Accepting count: a majority of all SRDS parties.
    pub threshold: u64,
}

/// The prepared key board: the published keys plus their Merkle index.
#[derive(Clone, Debug)]
pub struct SnarkKeyBoard {
    /// The verification keys as published.
    pub vks: Vec<MssVerificationKey>,
    /// Merkle tree over the key digests.
    pub tree: MerkleTree,
}

impl SnarkKeyBoard {
    /// The key-board commitment all certificates bind to.
    pub fn root(&self) -> Digest {
        self.tree.root()
    }
}

/// The aggregation certificate: what flows up the tree and what the final
/// verifier sees. Constant-size.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AggCertificate {
    /// Number of distinct base signatures aggregated.
    pub count: u64,
    /// Smallest covered SRDS index (`min(σ)`).
    pub lo: u64,
    /// Largest covered SRDS index (`max(σ)`).
    pub hi: u64,
    /// CRH accumulator binding the aggregation transcript.
    pub acc: Digest,
    /// Key-board commitment this certificate is relative to.
    pub vk_root: Digest,
    /// The PCD proof.
    pub proof: PcdProof,
}

impl Encode for AggCertificate {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.count.encode(buf);
        self.lo.encode(buf);
        self.hi.encode(buf);
        self.acc.encode(buf);
        self.vk_root.encode(buf);
        self.proof.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        3 * 8 + 2 * DIGEST_LEN + self.proof.encoded_len()
    }
}

impl Decode for AggCertificate {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(AggCertificate {
            count: u64::decode(r)?,
            lo: u64::decode(r)?,
            hi: u64::decode(r)?,
            acc: Digest::decode(r)?,
            vk_root: Digest::decode(r)?,
            proof: PcdProof::decode(r)?,
        })
    }
}

/// A SNARK-SRDS signature.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnarkSignature {
    /// Output of `Sign`: one base signature.
    Base {
        /// SRDS party index of the signer.
        id: u64,
        /// The base signature on the message.
        mss: MssSignature,
    },
    /// Output of `Aggregate₁` for base inputs: a verified base signature
    /// enriched with its key's Merkle path (the key-dependent data
    /// `Aggregate₂` needs, precomputed so `Aggregate₂` never touches the
    /// key board). A maximal run of these is the PCD witness of
    /// `Aggregate₂`'s source step, which the predicate reads in place.
    Attested {
        /// SRDS party index of the signer.
        id: u64,
        /// The base signature.
        mss: MssSignature,
        /// The signer's verification key.
        vk: Digest,
        /// Merkle path of `vk` at position `id` under the key root.
        path: MerkleProof,
        /// The key root the path verifies against.
        vk_root: Digest,
    },
    /// An aggregated certificate.
    Agg(AggCertificate),
}

impl Encode for SnarkSignature {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            SnarkSignature::Base { id, mss } => {
                buf.push(0);
                id.encode(buf);
                mss.encode(buf);
            }
            SnarkSignature::Attested {
                id,
                mss,
                vk,
                path,
                vk_root,
            } => {
                buf.push(1);
                id.encode(buf);
                mss.encode(buf);
                vk.encode(buf);
                path.encode(buf);
                vk_root.encode(buf);
            }
            SnarkSignature::Agg(cert) => {
                buf.push(2);
                cert.encode(buf);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        1 + match self {
            SnarkSignature::Base { mss, .. } => 8 + mss.encoded_len(),
            SnarkSignature::Attested { mss, path, .. } => {
                8 + mss.encoded_len() + path.encoded_len() + 2 * DIGEST_LEN
            }
            SnarkSignature::Agg(cert) => cert.encoded_len(),
        }
    }
}

impl Decode for SnarkSignature {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(SnarkSignature::Base {
                id: u64::decode(r)?,
                mss: MssSignature::decode(r)?,
            }),
            1 => Ok(SnarkSignature::Attested {
                id: u64::decode(r)?,
                mss: MssSignature::decode(r)?,
                vk: Digest::decode(r)?,
                path: MerkleProof::decode(r)?,
                vk_root: Digest::decode(r)?,
            }),
            2 => Ok(SnarkSignature::Agg(AggCertificate::decode(r)?)),
            t => Err(CodecError::InvalidTag(t)),
        }
    }
}

/// The PCD message: the public statement a certificate proof binds to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AggStatement {
    /// Digest of the signed message `m`.
    pub m_digest: Digest,
    /// Key-board commitment.
    pub vk_root: Digest,
    /// Distinct base signatures aggregated.
    pub count: u64,
    /// Covered index range.
    pub lo: u64,
    /// Covered index range.
    pub hi: u64,
    /// Transcript accumulator.
    pub acc: Digest,
}

/// The compliance predicate of the SRDS aggregation DAG.
#[derive(Clone, Debug)]
pub struct SrdsPredicate {
    mss: MssParams,
}

/// The id of `sig` when it is an attested entry that holds under
/// `vk_root`: its key sits at position `id` under the root and its base
/// signature verifies on `m_digest`. Aggregate₁'s re-validation and the
/// PCD source step both check entries with it.
fn attested_id(
    mss_params: &MssParams,
    m_digest: &Digest,
    vk_root: &Digest,
    sig: &SnarkSignature,
) -> Option<u64> {
    let SnarkSignature::Attested {
        id, mss, vk, path, ..
    } = sig
    else {
        return None;
    };
    let holds = path.leaf_index() == *id
        && path.verify_leaf_digest(vk_root, &pba_crypto::merkle::hash_leaf(vk.as_bytes()))
        && mss_params.verify(&MssVerificationKey(*vk), m_digest.as_bytes(), mss);
    holds.then_some(*id)
}

fn ids_accumulator(ids: &[u64]) -> Digest {
    let mut h = Sha256::new();
    h.update(b"srds-acc-ids");
    for id in ids {
        h.update(&id.to_le_bytes());
    }
    h.finalize()
}

fn join_accumulator<'a>(children: impl IntoIterator<Item = &'a AggStatement>) -> Digest {
    let mut h = Sha256::new();
    h.update(b"srds-acc-join");
    for c in children {
        h.update(c.acc.as_bytes());
        h.update(&c.count.to_le_bytes());
        h.update(&c.lo.to_le_bytes());
        h.update(&c.hi.to_le_bytes());
    }
    h.finalize()
}

impl CompliancePredicate for SrdsPredicate {
    type Message = AggStatement;
    /// A source step's run of attested base signatures; join steps take an
    /// empty run.
    type Witness = [SnarkSignature];

    fn id(&self) -> &'static str {
        "srds-aggregation-v1"
    }

    fn check(
        &self,
        output: &AggStatement,
        inputs: &[&AggStatement],
        local: &[SnarkSignature],
    ) -> bool {
        if output.lo > output.hi || output.count == 0 {
            return false;
        }
        if inputs.is_empty() {
            // Source step: every entry holds under the committed board.
            if local.len() as u64 != output.count {
                return false;
            }
            let mut ids = Vec::with_capacity(local.len());
            for sig in local {
                let Some(id) = attested_id(&self.mss, &output.m_digest, &output.vk_root, sig)
                else {
                    return false;
                };
                // Strictly increasing ids => distinctness.
                if ids.last().is_some_and(|&prev| id <= prev) || id < output.lo || id > output.hi {
                    return false;
                }
                ids.push(id);
            }
            output.acc == ids_accumulator(&ids)
        } else {
            // Join step: disjoint increasing ranges, matching context.
            let mut count = 0u64;
            for (i, c) in inputs.iter().enumerate() {
                if c.m_digest != output.m_digest || c.vk_root != output.vk_root {
                    return false;
                }
                if c.lo > c.hi || c.count == 0 {
                    return false;
                }
                if i > 0 && c.lo <= inputs[i - 1].hi {
                    return false; // overlap or disorder: double-count risk
                }
                count = count.saturating_add(c.count);
            }
            output.count == count
                && output.lo == inputs[0].lo
                && output.hi == inputs.last().expect("nonempty").hi
                && output.acc == join_accumulator(inputs.iter().copied())
        }
    }

    fn encode_message(&self, m: &AggStatement, buf: &mut Vec<u8>) {
        m.m_digest.encode(buf);
        m.vk_root.encode(buf);
        m.count.encode(buf);
        m.lo.encode(buf);
        m.hi.encode(buf);
        m.acc.encode(buf);
    }
}

impl SnarkSrds {
    fn pcd(&self, pp: &SnarkPublicParams) -> PcdSystem<SrdsPredicate> {
        PcdSystem::new(pp.crs.clone(), SrdsPredicate { mss: pp.mss })
    }

    fn message_digest(message: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update(b"srds-message");
        h.update(message);
        h.finalize()
    }

    /// Builds a source certificate from a run of attested entries, the run
    /// itself being the PCD witness (helper for `Aggregate₂`).
    fn source_certificate(
        &self,
        pp: &SnarkPublicParams,
        m_digest: Digest,
        vk_root: Digest,
        run: &[SnarkSignature],
    ) -> Option<AggCertificate> {
        let ids: Vec<u64> = run.iter().map(|sig| self.min_index(sig)).collect();
        let statement = AggStatement {
            m_digest,
            vk_root,
            count: run.len() as u64,
            lo: *ids.first()?,
            hi: *ids.last()?,
            acc: ids_accumulator(&ids),
        };
        let proof = self.pcd(pp).prove(&statement, &[], run).ok()?;
        Some(AggCertificate {
            count: statement.count,
            lo: statement.lo,
            hi: statement.hi,
            acc: statement.acc,
            vk_root,
            proof,
        })
    }

    fn join_certificates(
        &self,
        pp: &SnarkPublicParams,
        m_digest: Digest,
        certs: &[AggCertificate],
    ) -> Option<AggCertificate> {
        if certs.is_empty() {
            return None;
        }
        if certs.len() == 1 {
            return Some(certs[0].clone());
        }
        let vk_root = certs[0].vk_root;
        let pcd = self.pcd(pp);
        let statements: Vec<AggStatement> = certs
            .iter()
            .map(|c| AggStatement {
                m_digest,
                vk_root: c.vk_root,
                count: c.count,
                lo: c.lo,
                hi: c.hi,
                acc: c.acc,
            })
            .collect();
        let output = AggStatement {
            m_digest,
            vk_root,
            count: statements.iter().map(|s| s.count).sum(),
            lo: statements[0].lo,
            hi: statements.last().expect("nonempty").hi,
            acc: join_accumulator(&statements),
        };
        let inputs: Vec<(&AggStatement, &PcdProof)> = statements
            .iter()
            .zip(certs.iter().map(|c| &c.proof))
            .collect();
        let proof = pcd.prove(&output, &inputs, &[]).ok()?;
        Some(AggCertificate {
            count: output.count,
            lo: output.lo,
            hi: output.hi,
            acc: output.acc,
            vk_root,
            proof,
        })
    }
}

impl Srds for SnarkSrds {
    type PublicParams = SnarkPublicParams;
    type VerificationKey = MssVerificationKey;
    type SigningKey = MssKeyPair;
    type Signature = SnarkSignature;
    type KeyBoard = SnarkKeyBoard;

    fn mode(&self) -> PkiMode {
        PkiMode::Bare
    }

    fn prepare(&self, _pp: &SnarkPublicParams, vks: &[MssVerificationKey]) -> SnarkKeyBoard {
        let tree = MerkleTree::from_leaves(vks.iter().map(|vk| vk.digest().into_bytes()));
        SnarkKeyBoard {
            vks: vks.to_vec(),
            tree,
        }
    }

    fn setup(&self, n: usize, prg: &mut Prg) -> SnarkPublicParams {
        // The CRS: a common random string expanded into the SNARK setup.
        let crs_seed = {
            use rand::RngCore;
            let mut bytes = [0u8; 32];
            prg.fill_bytes(&mut bytes);
            bytes
        };
        SnarkPublicParams {
            n,
            mss: MssParams::new(self.config.mss_bits, self.config.mss_height),
            crs: SnarkCrs::setup(&crs_seed),
            threshold: (n as u64) / 2 + 1,
        }
    }

    fn keygen(&self, pp: &SnarkPublicParams, prg: &mut Prg) -> (MssVerificationKey, MssKeyPair) {
        // Bare PKI: each party generates locally; corrupted parties may
        // publish arbitrary keys instead (handled by the experiments).
        let kp = MssKeyPair::generate(&pp.mss, prg);
        (kp.verification_key(), kp)
    }

    fn sign(
        &self,
        _pp: &SnarkPublicParams,
        index: u64,
        sk: &MssKeyPair,
        message: &[u8],
    ) -> Option<SnarkSignature> {
        // One-time discipline per SRDS instance (the paper's definition is
        // for one-time SRDS): each key signs a single message, with the
        // deterministic first one-time key.
        let m_digest = Self::message_digest(message);
        Some(SnarkSignature::Base {
            id: index,
            mss: sk.sign_with_index(m_digest.as_bytes(), 0),
        })
    }

    fn sign_epoch(
        &self,
        pp: &SnarkPublicParams,
        index: u64,
        sk: &MssKeyPair,
        epoch: u64,
        message: &[u8],
    ) -> Option<SnarkSignature> {
        // One one-time slot per epoch; past capacity the answer is ⊥, never
        // a silent wrap onto an already-spent key (which would break the
        // one-time discipline the MSS security argument rests on). Streamed
        // callers budget epochs up front via `epoch_capacity`.
        if epoch >= pp.mss.capacity() as u64 {
            return None;
        }
        let m_digest = Self::message_digest(message);
        Some(SnarkSignature::Base {
            id: index,
            mss: sk.sign_with_index(m_digest.as_bytes(), epoch as usize),
        })
    }

    fn key_residue_len(&self, pp: &SnarkPublicParams) -> usize {
        pp.mss.capacity()
    }

    fn key_residue(&self, _pp: &SnarkPublicParams, sk: &MssKeyPair, out: &mut Vec<Digest>) {
        out.extend(sk.one_time_vks());
    }

    fn sign_epoch_rederived(
        &self,
        pp: &SnarkPublicParams,
        index: u64,
        keygen_prg: &Prg,
        residue: &[Digest],
        epoch: u64,
        message: &[u8],
    ) -> Option<SnarkSignature> {
        // `keygen` hands its PRG straight to `MssKeyPair::generate`, so the
        // key's generation stream starts where `keygen_prg` stands; ⊥ past
        // capacity as in `sign_epoch`.
        let m_digest = Self::message_digest(message);
        let mss = pp
            .mss
            .sign_rederived(keygen_prg, residue, m_digest.as_bytes(), epoch)?;
        Some(SnarkSignature::Base { id: index, mss })
    }

    fn epoch_capacity(&self, pp: &SnarkPublicParams) -> Option<u64> {
        Some(pp.mss.capacity() as u64)
    }

    fn aggregate1(
        &self,
        pp: &SnarkPublicParams,
        board: &SnarkKeyBoard,
        message: &[u8],
        sigs: &[SnarkSignature],
    ) -> Vec<SnarkSignature> {
        // Deterministic key-dependent filter:
        //  * Base signatures: verify against the board, attach Merkle paths
        //    (→ Attested), dedup by id;
        //  * Agg certificates: check proof validity and keep a maximal
        //    prefix of range-disjoint certificates (sorted by lo).
        let m_digest = Self::message_digest(message);
        let vk_root = board.root();
        let pcd = self.pcd(pp);

        let mut attested: std::collections::BTreeMap<u64, SnarkSignature> = Default::default();
        let mut certs: Vec<AggCertificate> = Vec::new();
        for sig in sigs {
            match sig {
                SnarkSignature::Base { id, mss } => {
                    if attested.contains_key(id) {
                        continue;
                    }
                    let Some(vk) = board.vks.get(*id as usize) else {
                        continue;
                    };
                    if pp.mss.verify(vk, m_digest.as_bytes(), mss) {
                        attested.insert(
                            *id,
                            SnarkSignature::Attested {
                                id: *id,
                                mss: mss.clone(),
                                vk: vk.digest(),
                                path: board.tree.prove(*id as usize),
                                vk_root,
                            },
                        );
                    }
                }
                SnarkSignature::Attested {
                    id, vk_root: root, ..
                } => {
                    // Re-validate attested inputs (they may come from the
                    // adversary): path + signature must check out.
                    if attested.contains_key(id) || *root != vk_root {
                        continue;
                    }
                    if attested_id(&pp.mss, &m_digest, &vk_root, sig).is_some() {
                        attested.insert(*id, sig.clone());
                    }
                }
                SnarkSignature::Agg(cert) => {
                    if cert.vk_root != vk_root {
                        continue;
                    }
                    let statement = AggStatement {
                        m_digest,
                        vk_root: cert.vk_root,
                        count: cert.count,
                        lo: cert.lo,
                        hi: cert.hi,
                        acc: cert.acc,
                    };
                    if pcd.verify(&statement, &cert.proof) {
                        certs.push(cert.clone());
                    }
                }
            }
        }

        // Greedy disjoint selection over everything, ordered by lo; on a
        // tied lo, prefer the certificate carrying more base signatures
        // (attested entries count 1).
        let count_of = |s: &SnarkSignature| match s {
            SnarkSignature::Agg(c) => c.count,
            _ => 1,
        };
        let mut items: Vec<(u64, u64, SnarkSignature)> = attested
            .into_values()
            .map(|s| (self.min_index(&s), self.max_index(&s), s))
            .chain(
                certs
                    .into_iter()
                    .map(|c| (c.lo, c.hi, SnarkSignature::Agg(c))),
            )
            .collect();
        items.sort_by_key(|(lo, _, s)| (*lo, u64::MAX - count_of(s)));
        let mut out = Vec::new();
        let mut watermark: Option<u64> = None;
        for (lo, hi, sig) in items {
            if watermark.is_none_or(|w| lo > w) {
                watermark = Some(hi);
                out.push(sig);
            }
        }
        out
    }

    fn aggregate2(
        &self,
        pp: &SnarkPublicParams,
        message: &[u8],
        s_sig: &[SnarkSignature],
    ) -> Option<SnarkSignature> {
        // Key-independent combiner: turn each maximal run of attested
        // signatures into a source certificate under the run's first key
        // root, then join everything. Inputs come from Aggregate₁:
        // validated, deduplicated, range-disjoint, sorted.
        let m_digest = Self::message_digest(message);
        let attested = |s: &SnarkSignature| matches!(s, SnarkSignature::Attested { .. });
        let mut certs: Vec<AggCertificate> = Vec::new();
        for run in s_sig.chunk_by(|a, b| attested(a) && attested(b)) {
            match &run[0] {
                SnarkSignature::Attested { vk_root, .. } => {
                    certs.push(self.source_certificate(pp, m_digest, *vk_root, run)?);
                }
                SnarkSignature::Agg(cert) => certs.push(cert.clone()),
                // Base signatures must pass through Aggregate₁ first —
                // Aggregate₂ has no key access to validate them.
                SnarkSignature::Base { .. } => return None,
            }
        }
        certs.sort_by_key(|c| c.lo);
        self.join_certificates(pp, m_digest, &certs)
            .map(SnarkSignature::Agg)
    }

    fn verify(
        &self,
        pp: &SnarkPublicParams,
        board: &SnarkKeyBoard,
        message: &[u8],
        sig: &SnarkSignature,
    ) -> bool {
        let SnarkSignature::Agg(cert) = sig else {
            return false; // a single base signature is never a majority
        };
        if cert.vk_root != board.root() || cert.count < pp.threshold {
            return false;
        }
        if cert.hi >= pp.n as u64 || cert.lo > cert.hi {
            return false;
        }
        let statement = AggStatement {
            m_digest: Self::message_digest(message),
            vk_root: cert.vk_root,
            count: cert.count,
            lo: cert.lo,
            hi: cert.hi,
            acc: cert.acc,
        };
        self.pcd(pp).verify(&statement, &cert.proof)
    }

    fn min_index(&self, sig: &SnarkSignature) -> u64 {
        match sig {
            SnarkSignature::Base { id, .. } | SnarkSignature::Attested { id, .. } => *id,
            SnarkSignature::Agg(cert) => cert.lo,
        }
    }

    fn max_index(&self, sig: &SnarkSignature) -> u64 {
        match sig {
            SnarkSignature::Base { id, .. } | SnarkSignature::Attested { id, .. } => *id,
            SnarkSignature::Agg(cert) => cert.hi,
        }
    }

    fn signature_len(&self, sig: &SnarkSignature) -> usize {
        sig.encoded_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::PkiBoard;
    use pba_crypto::codec::encode_to_vec;

    fn board(n: usize) -> (SnarkSrds, PkiBoard<SnarkSrds>, SnarkKeyBoard) {
        let scheme = SnarkSrds::with_defaults();
        let mut prg = Prg::from_seed_bytes(b"snark-srds");
        let b = PkiBoard::establish(&scheme, n, &mut prg);
        let keys = b.prepare(&scheme);
        (scheme, b, keys)
    }

    fn all_sigs(scheme: &SnarkSrds, b: &PkiBoard<SnarkSrds>, msg: &[u8]) -> Vec<SnarkSignature> {
        (0..b.len() as u64)
            .filter_map(|i| scheme.sign(&b.pp, i, &b.sks[i as usize], msg))
            .collect()
    }

    #[test]
    fn flat_aggregate_verifies() {
        let (scheme, b, keys) = board(48);
        let sigs = all_sigs(&scheme, &b, b"m");
        let agg = scheme.aggregate(&b.pp, &keys, b"m", &sigs).unwrap();
        assert!(scheme.verify(&b.pp, &keys, b"m", &agg));
        // Final certificate is constant-size succinct.
        assert!(
            scheme.signature_len(&agg) < 200,
            "len={}",
            scheme.signature_len(&agg)
        );
    }

    #[test]
    fn tree_aggregation_matches_protocol_shape() {
        // Aggregate in 4 leaf groups, then join pairwise, then the root.
        let (scheme, b, keys) = board(64);
        let sigs = all_sigs(&scheme, &b, b"m");
        let leaf_aggs: Vec<SnarkSignature> = sigs
            .chunks(16)
            .map(|chunk| scheme.aggregate(&b.pp, &keys, b"m", chunk).unwrap())
            .collect();
        let mid: Vec<SnarkSignature> = leaf_aggs
            .chunks(2)
            .map(|pair| scheme.aggregate(&b.pp, &keys, b"m", pair).unwrap())
            .collect();
        let root = scheme.aggregate(&b.pp, &keys, b"m", &mid).unwrap();
        assert!(scheme.verify(&b.pp, &keys, b"m", &root));
        if let SnarkSignature::Agg(cert) = &root {
            assert_eq!(cert.count, 64);
            assert_eq!(cert.lo, 0);
            assert_eq!(cert.hi, 63);
        } else {
            panic!("expected aggregate");
        }
    }

    #[test]
    fn below_majority_rejected() {
        let (scheme, b, keys) = board(48);
        let sigs = all_sigs(&scheme, &b, b"m");
        let half = &sigs[..20]; // < 25 = threshold
        let agg = scheme.aggregate(&b.pp, &keys, b"m", half).unwrap();
        assert!(!scheme.verify(&b.pp, &keys, b"m", &agg));
    }

    #[test]
    fn duplicate_base_signature_not_double_counted() {
        let (scheme, b, keys) = board(32);
        let sigs = all_sigs(&scheme, &b, b"m");
        let mut dup = sigs.clone();
        dup.extend(sigs.iter().cloned());
        let agg = scheme.aggregate(&b.pp, &keys, b"m", &dup).unwrap();
        if let SnarkSignature::Agg(cert) = &agg {
            assert_eq!(cert.count, 32);
        } else {
            panic!("expected aggregate");
        }
    }

    #[test]
    fn overlapping_aggregates_not_double_counted() {
        // The replay attack from §2.2: feed the same sub-aggregate twice.
        let (scheme, b, keys) = board(32);
        let sigs = all_sigs(&scheme, &b, b"m");
        let sub = scheme.aggregate(&b.pp, &keys, b"m", &sigs[..16]).unwrap();
        let twice = vec![sub.clone(), sub.clone()];
        let agg = scheme.aggregate(&b.pp, &keys, b"m", &twice).unwrap();
        if let SnarkSignature::Agg(cert) = &agg {
            assert_eq!(cert.count, 16, "duplicate sub-aggregate was double counted");
        } else {
            panic!("expected aggregate");
        }
    }

    #[test]
    fn invalid_base_signatures_filtered() {
        let (scheme, b, keys) = board(32);
        let good = all_sigs(&scheme, &b, b"m");
        let bad = all_sigs(&scheme, &b, b"other");
        let filtered = scheme.aggregate1(&b.pp, &keys, b"m", &bad);
        assert!(filtered.is_empty());
        let mut mixed = good;
        mixed.extend(bad);
        let agg = scheme.aggregate(&b.pp, &keys, b"m", &mixed).unwrap();
        if let SnarkSignature::Agg(cert) = &agg {
            assert_eq!(cert.count, 32);
        } else {
            panic!("expected aggregate");
        }
    }

    #[test]
    fn forged_certificate_rejected() {
        let (scheme, b, keys) = board(32);
        let sigs = all_sigs(&scheme, &b, b"m");
        let agg = scheme.aggregate(&b.pp, &keys, b"m", &sigs).unwrap();
        if let SnarkSignature::Agg(mut cert) = agg {
            cert.count = 32_000; // inflate
            let forged = SnarkSignature::Agg(cert);
            assert!(!scheme.verify(&b.pp, &keys, b"m", &forged));
        } else {
            panic!("expected aggregate");
        }
    }

    #[test]
    fn certificate_bound_to_message() {
        let (scheme, b, keys) = board(32);
        let sigs = all_sigs(&scheme, &b, b"m");
        let agg = scheme.aggregate(&b.pp, &keys, b"m", &sigs).unwrap();
        assert!(!scheme.verify(&b.pp, &keys, b"m2", &agg));
    }

    #[test]
    fn certificate_bound_to_key_board() {
        let (scheme, b, keys) = board(32);
        let sigs = all_sigs(&scheme, &b, b"m");
        let agg = scheme.aggregate(&b.pp, &keys, b"m", &sigs).unwrap();
        // A different board (one key replaced) must reject.
        let mut vks2 = b.vks.clone();
        vks2.swap(0, 1);
        let keys2 = scheme.prepare(&b.pp, &vks2);
        assert!(!scheme.verify(&b.pp, &keys2, b"m", &agg));
    }

    #[test]
    fn base_signature_alone_never_verifies() {
        let (scheme, b, keys) = board(32);
        let sigs = all_sigs(&scheme, &b, b"m");
        assert!(!scheme.verify(&b.pp, &keys, b"m", &sigs[0]));
    }

    #[test]
    fn aggregate2_refuses_raw_base_inputs() {
        let (scheme, b, _) = board(32);
        let sigs = all_sigs(&scheme, &b, b"m");
        assert_eq!(scheme.aggregate2(&b.pp, b"m", &sigs[..4]), None);
    }

    /// The source step proves only runs whose every entry holds: starting
    /// from Aggregate₁'s output, one tampered entry makes Aggregate₂ refuse,
    /// whichever condition of the entry check or the id order it breaks.
    #[test]
    fn aggregate2_refuses_tampered_attested_runs() {
        /// An attested entry's base signature, key and path.
        fn parts(sig: &mut SnarkSignature) -> (&mut MssSignature, &mut Digest, &mut MerkleProof) {
            let SnarkSignature::Attested { mss, vk, path, .. } = sig else {
                panic!("Aggregate₁ attests base signatures");
            };
            (mss, vk, path)
        }
        let (scheme, b, keys) = board(32);
        let run = scheme.aggregate1(&b.pp, &keys, b"m", &all_sigs(&scheme, &b, b"m"));
        assert_eq!(run.len(), 32);
        let agg = scheme
            .aggregate2(&b.pp, b"m", &run)
            .expect("untampered run");
        assert!(scheme.verify(&b.pp, &keys, b"m", &agg));

        let k = 5;
        let mut repeated = run.clone();
        repeated[k] = repeated[k - 1].clone();
        let mut disordered = run.clone();
        disordered.swap(k, k + 1);
        // Index k + 32 has k's low bits, so its path still verifies under
        // the root of the 32-leaf board.
        let mut aliased = run.clone();
        let (_, _, path) = parts(&mut aliased[k]);
        *path = MerkleProof::from_parts(path.leaf_index() + 32, path.path().to_vec());
        // Key k is the same on a board with keys 0 and 1 swapped; its root
        // is not.
        let mut vks = b.vks.clone();
        vks.swap(0, 1);
        let mut foreign_root = run.clone();
        *parts(&mut foreign_root[k]).2 = scheme.prepare(&b.pp, &vks).tree.prove(k);
        let mut other_message = run.clone();
        let other = SnarkSrds::message_digest(b"other");
        *parts(&mut other_message[k]).0 = b.sks[k].sign_with_index(other.as_bytes(), 0);
        let mut other_vk = run.clone();
        *parts(&mut other_vk[k]).1 = b.vks[k + 1].digest();
        for (case, run) in [
            ("a repeated id", repeated),
            ("ids out of order", disordered),
            ("a path for another index", aliased),
            ("a path under another board's root", foreign_root),
            ("an MSS signature over another message", other_message),
            ("the vk of another slot", other_vk),
        ] {
            assert_eq!(scheme.aggregate2(&b.pp, b"m", &run), None, "{case}");
        }
    }

    #[test]
    fn codec_roundtrip() {
        let (scheme, b, keys) = board(32);
        let sigs = all_sigs(&scheme, &b, b"m");
        for sig in sigs.iter().take(2) {
            let bytes = encode_to_vec(sig);
            let back: SnarkSignature = pba_crypto::codec::decode_from_slice(&bytes).unwrap();
            assert_eq!(&back, sig);
        }
        let agg = scheme.aggregate(&b.pp, &keys, b"m", &sigs).unwrap();
        let bytes = encode_to_vec(&agg);
        let back: SnarkSignature = pba_crypto::codec::decode_from_slice(&bytes).unwrap();
        assert!(scheme.verify(&b.pp, &keys, b"m", &back));
    }

    #[test]
    fn min_max_indices() {
        let (scheme, b, keys) = board(32);
        let sigs = all_sigs(&scheme, &b, b"m");
        assert_eq!(scheme.min_index(&sigs[5]), 5);
        assert_eq!(scheme.max_index(&sigs[5]), 5);
        let agg = scheme.aggregate(&b.pp, &keys, b"m", &sigs).unwrap();
        assert_eq!(scheme.min_index(&agg), 0);
        assert_eq!(scheme.max_index(&agg), 31);
    }

    #[test]
    fn greedy_selection_prefers_higher_count_on_tied_ranges() {
        // Two certificates starting at the same lo: the one aggregating
        // more signatures must win the disjoint selection.
        let (scheme, b, keys) = board(32);
        let sigs = all_sigs(&scheme, &b, b"m");
        let small = scheme.aggregate(&b.pp, &keys, b"m", &sigs[..4]).unwrap();
        let large = scheme.aggregate(&b.pp, &keys, b"m", &sigs[..20]).unwrap();
        let merged = scheme
            .aggregate(&b.pp, &keys, b"m", &[small, large])
            .unwrap();
        if let SnarkSignature::Agg(cert) = &merged {
            assert_eq!(cert.count, 20, "greedy kept the smaller certificate");
        } else {
            panic!("expected aggregate");
        }
    }

    #[test]
    fn gaps_in_coverage_allowed() {
        // Missing signers leave gaps; counting must stay exact.
        let (scheme, b, keys) = board(48);
        let sigs = all_sigs(&scheme, &b, b"m");
        let sparse: Vec<SnarkSignature> = sigs
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 3 != 1)
            .map(|(_, s)| s.clone())
            .collect();
        let agg = scheme.aggregate(&b.pp, &keys, b"m", &sparse).unwrap();
        if let SnarkSignature::Agg(cert) = &agg {
            assert_eq!(cert.count, sparse.len() as u64);
        } else {
            panic!("expected aggregate");
        }
    }
}
