//! The signature-aggregation functionality `f_aggr-sig` of §3.1.
//!
//! The paper realizes `f_aggr-sig` with the constant-round MPC of
//! Damgård–Ishai so that `Aggregate₂`'s randomness can stay private.
//! Neither of our SRDS constructions uses secret randomness in
//! `Aggregate₂`, so we realize the functionality directly at its interface
//! (DESIGN.md §2, substitution 4): every committee member submits its
//! signature set; the functionality keeps exactly the signatures submitted
//! by a **strict majority** of members (the paper: "determines the set of
//! signatures received from a majority of the parties"), aggregates them
//! with `Aggregate₁`/`Aggregate₂`, and hands the same output to everyone.
//!
//! The input exchange that realizes it (Fig. 3 step 5b) is hash-first:
//!
//! 0. every member multicasts an [`AggrListHash`] — the SHA-256 of its
//!    sorted digest list, one digest per signature it holds (the SHA-256
//!    of the signature's canonical encoding);
//! 1. every member sends its [`AggrDigests`] list only to the peers whose
//!    hash differed from its own (a silent peer gets nothing);
//! 2. every member keeps the digests a strict majority (`|C|/2 + 1`) of
//!    the lists attest — a peer whose hash matched attests exactly the
//!    member's own list, a peer whose hash differed sent its list in
//!    round 1 — and pushes the body of each one it holds, as an
//!    [`AggrBody`], to every member whose list lacked it;
//! 3. a receiver keeps a pushed body only if it hashes to an attested
//!    digest it lacks.
//!
//! A majority-attested digest has an honest attester whenever corrupted
//! members are a strict minority, so the body reaches everyone who lacks
//! it. Every call in π_ba is the uniform case — step 4 sent each leaf
//! signature to every leaf member and `robust::ascend` sends each child
//! aggregate to every parent member — so every honest hash matches, and
//! the list and push rounds are empty. [`charge_aggr_round`] meters
//! exactly that, one hash from each honest member to every other member
//! of the distinct committee (corrupt members included) plus the MPC
//! output, for every node once π_ba's network-free aggregation has
//! ascended the tree. The exchange is executed, adversaries included, by
//! the `Machine` under `tests/oracle/aggr_exchange.rs`, whose fault-free
//! bytes equal this closed form per (party, tag).

use pba_crypto::codec::{CodecError, Decode, Encode, Reader};
use pba_crypto::sha256::{Digest, Sha256, DIGEST_LEN};
use pba_net::wire::{self, step, tag};
use pba_net::{Network, PartyId, WireMsg};
use pba_srds::traits::Srds;
use std::collections::BTreeMap;

/// Step 5b, round 0: the hash of one committee member's digest list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AggrListHash {
    /// Service epoch (certified-round counter) the exchange belongs to.
    pub epoch: u64,
    /// The tree node whose committee runs the exchange.
    pub node: u64,
    /// SHA-256 of the concatenated digests of the member's list, in
    /// ascending order.
    pub hash: Digest,
}

/// Wire length (header included) of every [`AggrListHash`]: the closed
/// form [`charge_aggr_round`] charges per link.
const LIST_HASH_LEN: usize = wire::HEADER_LEN + 8 + 8 + DIGEST_LEN;

impl AggrListHash {
    /// The hash message of the list `digests`, given in ascending order —
    /// the order an [`AggrDigests`] list carries them in.
    pub fn new<'a>(epoch: u64, node: u64, digests: impl IntoIterator<Item = &'a Digest>) -> Self {
        let mut hasher = Sha256::new();
        for d in digests {
            hasher.update(d.as_bytes());
        }
        AggrListHash {
            epoch,
            node,
            hash: hasher.finalize(),
        }
    }
}

impl Encode for AggrListHash {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.epoch.encode(buf);
        self.node.encode(buf);
        self.hash.encode(buf);
    }
}

impl Decode for AggrListHash {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(AggrListHash {
            epoch: u64::decode(r)?,
            node: u64::decode(r)?,
            hash: Digest::decode(r)?,
        })
    }
}

impl WireMsg for AggrListHash {
    const TAG: u8 = tag::AGGR_LIST_HASH;
    const STEP: u8 = step::AGGREGATE;
}

/// Step 5b, round 1: the digests of the signatures one committee member
/// holds, sent only to the members whose list hash differed from its own.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AggrDigests {
    /// Service epoch (certified-round counter) the exchange belongs to.
    pub epoch: u64,
    /// The tree node whose committee runs the exchange.
    pub node: u64,
    /// SHA-256 of each held signature's canonical encoding.
    pub digests: Vec<Digest>,
}

impl Encode for AggrDigests {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.epoch.encode(buf);
        self.node.encode(buf);
        self.digests.encode(buf);
    }
}

impl Decode for AggrDigests {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(AggrDigests {
            epoch: u64::decode(r)?,
            node: u64::decode(r)?,
            digests: Vec::<Digest>::decode(r)?,
        })
    }
}

impl WireMsg for AggrDigests {
    const TAG: u8 = tag::AGGR_DIGESTS;
    const STEP: u8 = step::AGGREGATE;
}

/// Step 5b, round 2: one majority-attested signature, pushed by a
/// holder to a member whose digest list lacked it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AggrBody {
    /// Service epoch the exchange belongs to.
    pub epoch: u64,
    /// The tree node whose committee runs the exchange.
    pub node: u64,
    /// The signature's canonical encoding.
    pub sig: Vec<u8>,
}

impl Encode for AggrBody {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.epoch.encode(buf);
        self.node.encode(buf);
        self.sig.encode(buf);
    }
}

impl Decode for AggrBody {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(AggrBody {
            epoch: u64::decode(r)?,
            node: u64::decode(r)?,
            sig: Vec::<u8>::decode(r)?,
        })
    }
}

impl WireMsg for AggrBody {
    const TAG: u8 = tag::AGGR_BODY;
    const STEP: u8 = step::AGGREGATE;
}

/// Computes `f_aggr-sig` over the members' submitted signature sets.
///
/// `inputs` maps each committee member to the set it submitted (corrupted
/// members' entries come from the adversary; missing entries model
/// silence). A signature qualifies for aggregation iff submitted by more
/// than half of `committee`.
pub fn f_aggr_sig<S: Srds>(
    scheme: &S,
    pp: &S::PublicParams,
    keys: &S::KeyBoard,
    message: &[u8],
    committee: &[PartyId],
    inputs: &BTreeMap<PartyId, Vec<S::Signature>>,
) -> Option<S::Signature> {
    let quorum = committee.len() / 2 + 1;
    // Count submissions per distinct signature.
    let mut pool: Vec<(S::Signature, usize)> = Vec::new();
    for member in committee {
        let Some(set) = inputs.get(member) else {
            continue;
        };
        let mut seen_this_member: Vec<&S::Signature> = Vec::new();
        for sig in set {
            // A member submitting the same signature twice counts once.
            if seen_this_member.contains(&sig) {
                continue;
            }
            seen_this_member.push(sig);
            if let Some(entry) = pool.iter_mut().find(|(s, _)| s == sig) {
                entry.1 += 1;
            } else {
                pool.push((sig.clone(), 1));
            }
        }
    }
    let majority: Vec<S::Signature> = pool
        .into_iter()
        .filter(|(_, c)| *c >= quorum)
        .map(|(s, _)| s)
        .collect();
    if majority.is_empty() {
        return None;
    }
    scheme.aggregate(pp, keys, message, &majority)
}

/// The common uniform case of [`f_aggr_sig`]: `submitters` members (the
/// honest ones) all submitted the identical `inputs` set and the remaining
/// members submitted nothing. Equivalent to the general function but avoids
/// materializing per-member copies.
pub fn f_aggr_sig_uniform<S: Srds>(
    scheme: &S,
    pp: &S::PublicParams,
    keys: &S::KeyBoard,
    message: &[u8],
    committee_len: usize,
    submitters: usize,
    inputs: &[S::Signature],
) -> Option<S::Signature> {
    let quorum = committee_len / 2 + 1;
    if submitters < quorum || inputs.is_empty() {
        return None;
    }
    scheme.aggregate(pp, keys, message, inputs)
}

/// Meters the communication of one uniform `f_aggr-sig` invocation for
/// the distinct `committee` of a node whose `honest` members all hold the
/// same signature set (Fig. 3 step 5b): each honest member multicasts its
/// [`AggrListHash`] to every other member, corrupt ones included; the
/// hashes all match, so no [`AggrDigests`] list and no [`AggrBody`] moves;
/// then the honest members take part in the constant-round aggregation
/// protocol, whose output of `output_bytes` (the aggregate's size) each
/// sends to every other honest member. Corrupt members are silent.
pub fn charge_aggr_round(
    net: &mut Network,
    committee: &[PartyId],
    honest: &[PartyId],
    output_bytes: usize,
) {
    let metrics = net.metrics_mut();
    metrics.charge_exchange(honest, committee, LIST_HASH_LEN, tag::AGGR_LIST_HASH, true);
    // Constant-round MPC output delivery, charged over the concrete links
    // so the aggregate's fan-out is visible in locality and in the
    // receivers' totals (an addressee-less synthetic charge would keep
    // this traffic out of both — the silent-metrics gap).
    metrics.charge_exchange(honest, honest, output_bytes, tag::AGGR_MPC, true);
    // Charges bytes only. π_ba's step 5 counts two rounds for this call at
    // the leaves (`aggregate_up`: the hash and the output) and none at an
    // internal node, whose level's one round is `robust::ascend`'s
    // child → parent copy. That undercounts step 5 by the internal levels'
    // hash rounds (ROADMAP item 15).
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_crypto::prg::Prg;
    use pba_srds::owf::OwfSrds;
    use pba_srds::traits::PkiBoard;

    fn setup(n: usize) -> (OwfSrds, PkiBoard<OwfSrds>) {
        let scheme = OwfSrds::with_defaults();
        let mut prg = Prg::from_seed_bytes(b"aggr");
        let board = PkiBoard::establish(&scheme, n, &mut prg);
        (scheme, board)
    }

    #[test]
    fn unanimous_submission_aggregates_everything() {
        let (scheme, board) = setup(256);
        let keys = board.prepare(&scheme);
        let sigs: Vec<_> = (0..256u64)
            .filter_map(|i| scheme.sign(&board.pp, i, &board.sks[i as usize], b"m"))
            .collect();
        let committee: Vec<PartyId> = (0..7u64).map(PartyId).collect();
        let inputs: BTreeMap<PartyId, Vec<_>> =
            committee.iter().map(|&m| (m, sigs.clone())).collect();
        let agg = f_aggr_sig(&scheme, &board.pp, &keys, b"m", &committee, &inputs).unwrap();
        assert!(scheme.verify(&board.pp, &keys, b"m", &agg));
    }

    #[test]
    fn minority_submissions_filtered() {
        let (scheme, board) = setup(256);
        let keys = board.prepare(&scheme);
        let sigs: Vec<_> = (0..256u64)
            .filter_map(|i| scheme.sign(&board.pp, i, &board.sks[i as usize], b"m"))
            .collect();
        let committee: Vec<PartyId> = (0..7u64).map(PartyId).collect();
        // Members 0..4 submit everything; 5 and 6 submit one extra sig that
        // only they saw — that one must be filtered (but here all sigs are
        // valid, so check by count instead).
        let mut inputs: BTreeMap<PartyId, Vec<_>> = committee
            .iter()
            .take(5)
            .map(|&m| (m, sigs[..sigs.len() - 1].to_vec()))
            .collect();
        inputs.insert(PartyId(5), vec![sigs[sigs.len() - 1].clone()]);
        inputs.insert(PartyId(6), vec![sigs[sigs.len() - 1].clone()]);
        let agg = f_aggr_sig(&scheme, &board.pp, &keys, b"m", &committee, &inputs).unwrap();
        // The minority signature (count 2 < 4) is excluded.
        assert_eq!(agg.entries.len(), sigs.len() - 1);
    }

    #[test]
    fn empty_inputs_yield_none() {
        let (scheme, board) = setup(64);
        let keys = board.prepare(&scheme);
        let committee: Vec<PartyId> = (0..5u64).map(PartyId).collect();
        let inputs = BTreeMap::new();
        assert!(f_aggr_sig(&scheme, &board.pp, &keys, b"m", &committee, &inputs).is_none());
    }

    #[test]
    fn duplicate_submission_by_one_member_counts_once() {
        let (scheme, board) = setup(256);
        let keys = board.prepare(&scheme);
        let sigs: Vec<_> = (0..256u64)
            .filter_map(|i| scheme.sign(&board.pp, i, &board.sks[i as usize], b"m"))
            .collect();
        let committee: Vec<PartyId> = (0..5u64).map(PartyId).collect();
        // Only member 0 submits (repeating the set 10 times): no majority.
        let mut repeated = Vec::new();
        for _ in 0..10 {
            repeated.extend(sigs.iter().cloned());
        }
        let inputs: BTreeMap<PartyId, Vec<_>> = [(PartyId(0), repeated)].into();
        assert!(f_aggr_sig(&scheme, &board.pp, &keys, b"m", &committee, &inputs).is_none());
    }

    #[test]
    fn uniform_matches_general() {
        let (scheme, board) = setup(256);
        let keys = board.prepare(&scheme);
        let sigs: Vec<_> = (0..256u64)
            .filter_map(|i| scheme.sign(&board.pp, i, &board.sks[i as usize], b"m"))
            .collect();
        let committee: Vec<PartyId> = (0..7u64).map(PartyId).collect();
        let inputs: BTreeMap<PartyId, Vec<_>> =
            committee.iter().map(|&m| (m, sigs.clone())).collect();
        let general = f_aggr_sig(&scheme, &board.pp, &keys, b"m", &committee, &inputs);
        let uniform = f_aggr_sig_uniform(&scheme, &board.pp, &keys, b"m", 7, 7, &sigs);
        assert_eq!(general, uniform);
        // Below quorum: both None.
        let few: BTreeMap<PartyId, Vec<_>> = committee
            .iter()
            .take(3)
            .map(|&m| (m, sigs.clone()))
            .collect();
        assert_eq!(
            f_aggr_sig(&scheme, &board.pp, &keys, b"m", &committee, &few),
            None
        );
        assert_eq!(
            f_aggr_sig_uniform(&scheme, &board.pp, &keys, b"m", 7, 3, &sigs),
            None
        );
    }

    /// Honest members send one hash to every other member and the MPC
    /// output to every other honest member; corrupt members only receive
    /// hashes, and parties outside the committee see nothing.
    #[test]
    fn charge_aggr_round_meters_members_only() {
        let mut net = Network::new(20);
        let committee: Vec<PartyId> = (0..7u64).map(PartyId).collect();
        let honest = &committee[..5];
        charge_aggr_round(&mut net, &committee, honest, 64);
        let hashes = LIST_HASH_LEN as u64;
        for &p in honest {
            let m = net.metrics().party(p);
            assert_eq!(m.sent_by_tag.get(&tag::AGGR_LIST_HASH), Some(&(6 * hashes)));
            assert_eq!(m.recv_by_tag.get(&tag::AGGR_LIST_HASH), Some(&(4 * hashes)));
            assert_eq!(m.sent_by_tag.get(&tag::AGGR_MPC), Some(&(4 * 64)));
            assert_eq!(
                m.peers_out,
                committee.iter().copied().filter(|&q| q != p).collect()
            );
        }
        for p in &committee[5..] {
            let m = net.metrics().party(*p);
            assert_eq!(m.bytes_sent, 0);
            assert_eq!(m.recv_by_tag.get(&tag::AGGR_LIST_HASH), Some(&(5 * hashes)));
            assert_eq!(m.recv_by_tag.get(&tag::AGGR_MPC), None);
        }
        for i in 7..20u64 {
            assert_eq!(net.metrics().party(PartyId(i)).bytes_total(), 0);
        }
        // Bytes only: step 5's round count is `aggregate_up`'s (two at the
        // leaves) and `robust::ascend`'s (one copy round per internal
        // level), none for internal hashes (ROADMAP item 15).
        assert_eq!(net.report().rounds, 0);
    }

    /// The closed form is one encoded hash message per link, whatever the
    /// list it hashes: each of `c` members sends and receives `c - 1` of
    /// them, and nothing else under the exchange's tags.
    #[test]
    fn closed_form_is_one_encoded_hash_per_link() {
        let c = 7u64;
        let committee: Vec<PartyId> = (0..c).map(PartyId).collect();
        for k in [0usize, 1, 32] {
            let list = vec![Digest::ZERO; k];
            let msg = AggrListHash::new(u64::MAX, 3, &list);
            let len = wire::encoded_msg_len(&msg) as u64;
            assert_eq!(len, LIST_HASH_LEN as u64, "k = {k}");
            let per_member = Some(len * (c - 1));
            let mut net = Network::new(c as usize);
            charge_aggr_round(&mut net, &committee, &committee, 0);
            for &p in &committee {
                let m = net.metrics().party(p);
                assert_eq!(m.sent_by_tag.get(&tag::AGGR_LIST_HASH).copied(), per_member);
                assert_eq!(m.recv_by_tag.get(&tag::AGGR_LIST_HASH).copied(), per_member);
                assert_eq!(m.sent_by_tag.get(&tag::AGGR_DIGESTS), None);
                assert_eq!(m.sent_by_tag.get(&tag::AGGR_BODY), None);
                assert_eq!(m.sent_by_tag.get(&tag::AGGR_SHARE), None);
            }
        }
    }

    /// The hash binds the list: equal lists hash alike, and a list that
    /// differs in one digest, in length or in order hashes apart.
    #[test]
    fn list_hash_binds_the_list() {
        let a = [Digest([1; 32]), Digest([2; 32])];
        let of = |list: &[Digest]| AggrListHash::new(0, 0, list).hash;
        assert_eq!(of(&a), of(&a.clone()));
        assert_ne!(of(&a), of(&a[..1]));
        assert_ne!(of(&a), of(&[a[0], Digest([3; 32])]));
        assert_ne!(of(&a), of(&[a[1], a[0]]));
        assert_ne!(of(&[]), of(&[Digest::ZERO]));
    }
}
