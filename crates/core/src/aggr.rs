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
//! [`charge_aggr_round`] meters the communication the realizing protocol
//! costs: the intra-committee exchange of the input sets plus the
//! constant-round MPC traffic, all `polylog(n) · poly(κ)` per member.

use pba_net::wire::tag;
use pba_net::{Network, PartyId};
use pba_srds::traits::Srds;
use std::collections::BTreeMap;

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

/// Meters the communication of one `f_aggr-sig` invocation for a committee:
/// each member broadcasts its input set to every other member (Fig. 3 step
/// 5b) and participates in the constant-round aggregation protocol.
///
/// `input_bytes` is each member's total submitted signature bytes (the
/// members hold the same majority-exchanged set); `output_bytes` the size
/// of the aggregate (exchanged during the MPC output phase).
pub fn charge_aggr_round(
    net: &mut Network,
    committee: &[PartyId],
    input_bytes: usize,
    output_bytes: usize,
) {
    let metrics = net.metrics_mut();
    // Step 5b exchange: signature-share sets between members.
    metrics.charge_exchange(committee, committee, input_bytes, tag::AGGR_SHARE, true);
    // Constant-round MPC output delivery, charged over the concrete links
    // so the aggregate's fan-out is visible in locality and in the
    // receivers' totals (an addressee-less synthetic charge would keep
    // this traffic out of both — the silent-metrics gap).
    metrics.charge_exchange(committee, committee, output_bytes, tag::AGGR_MPC, true);
    // Round accounting is the caller's: all nodes of a tree level run their
    // f_aggr-sig invocations in parallel, so the caller bumps once per level.
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_crypto::prg::Prg;
    use pba_srds::owf::OwfSrds;
    use pba_srds::traits::PkiBoard;

    fn setup(n: usize) -> (OwfSrds, PkiBoard<OwfSrds>, Vec<LamportKeys>) {
        let scheme = OwfSrds::with_defaults();
        let mut prg = Prg::from_seed_bytes(b"aggr");
        let board = PkiBoard::establish(&scheme, n, &mut prg);
        (scheme, board, Vec::new())
    }

    // Alias to keep the helper signature readable.
    type LamportKeys = ();

    #[test]
    fn unanimous_submission_aggregates_everything() {
        let (scheme, board, _) = setup(256);
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
        let (scheme, board, _) = setup(256);
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
        let (scheme, board, _) = setup(64);
        let keys = board.prepare(&scheme);
        let committee: Vec<PartyId> = (0..5u64).map(PartyId).collect();
        let inputs = BTreeMap::new();
        assert!(f_aggr_sig(&scheme, &board.pp, &keys, b"m", &committee, &inputs).is_none());
    }

    #[test]
    fn duplicate_submission_by_one_member_counts_once() {
        let (scheme, board, _) = setup(256);
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
        let (scheme, board, _) = setup(256);
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

    #[test]
    fn charge_aggr_round_meters_members_only() {
        let mut net = Network::new(20);
        let committee: Vec<PartyId> = (0..5u64).map(PartyId).collect();
        charge_aggr_round(&mut net, &committee, 100, 64);
        for i in 0..5u64 {
            assert!(net.metrics().party(PartyId(i)).bytes_sent >= 400);
        }
        for i in 5..20u64 {
            assert_eq!(net.metrics().party(PartyId(i)).bytes_sent, 0);
        }
        // Rounds are bumped by the caller (per level), not per invocation.
        assert_eq!(net.report().rounds, 0);
    }
}
