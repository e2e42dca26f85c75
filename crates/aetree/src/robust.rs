//! Byzantine-robust redundant-path aggregation up the tree.
//!
//! The single-copy ascent (one representative per node forwards one
//! aggregate to the parent) lets a corrupted node *withhold* and erase its
//! whole subtree from the final certificate: a third of one committee
//! silences `leaf_slots · branching^level` virtual identities. This module
//! implements the King–Saia-style fix — **redundant-path routing**:
//!
//! * every distinct member of a node's committee carries its own copy of
//!   the node's value;
//! * a child's full committee transmits its copies to the parent's full
//!   committee (a metered bipartite exchange — the *communication
//!   dilution* of the redundancy factor);
//! * each honest parent member takes, per child, the value held by a
//!   **strict majority** of the child's distinct members, then combines
//!   the per-child winners with a caller-supplied closure (SRDS
//!   aggregation in `π_ba`, another strict-majority vote for plain
//!   values).
//!
//! Goodness is thereby upgraded from the 1/3 threshold of
//! [`crate::analysis::committee_good`] to a strict-minority bound: a
//! node's honest value survives whenever corrupted members are **fewer
//! than half** of its distinct committee, and a fully-corrupted node can
//! still only withhold or inject copies that the caller's `combine`
//! validation drops — never forge consensus on its own.
//!
//! The engine is generic over the carried value `T` so the same machinery
//! ascends SRDS signatures (certification, Fig. 3 step 5) and plain bytes
//! (committee-input fan-in).

use crate::tree::Tree;
use pba_net::wire::tag;
use pba_net::{Network, PartyId};
use std::collections::BTreeSet;

/// Outcome of one robust ascent.
#[derive(Clone, Debug)]
pub struct AscentOutcome<T> {
    /// The value a strict majority of the root's distinct committee
    /// members hold after the ascent (`None` when no strict majority
    /// exists — e.g. the adversary split or silenced the root).
    pub root_value: Option<T>,
    /// `honest_values[level][node]`: the value honest members of that node
    /// hold (level 0 = the caller-supplied leaf values).
    pub honest_values: Vec<Vec<Option<T>>>,
    /// Total redundant copies transmitted child→parent — the dilution
    /// factor the metrics table was charged for.
    pub copies_sent: u64,
}

/// The distinct members of a committee, in sorted order (leaf committees
/// list one entry per virtual slot, so parties holding several slots
/// repeat; votes are counted per distinct member).
pub fn dedup_committee(members: &[PartyId]) -> Vec<PartyId> {
    let mut distinct = members.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    distinct
}

/// The value held by a **strict majority** of `copies` (`None` entries are
/// silent members and count against every value).
pub fn strict_majority<T: Clone + PartialEq>(copies: &[Option<T>]) -> Option<T> {
    let total = copies.len();
    let mut tally: Vec<(&T, usize)> = Vec::new();
    for copy in copies.iter().flatten() {
        if let Some(entry) = tally.iter_mut().find(|(v, _)| *v == copy) {
            entry.1 += 1;
        } else {
            tally.push((copy, 1));
        }
    }
    tally
        .into_iter()
        .find(|(_, count)| 2 * count > total)
        .map(|(v, _)| v.clone())
}

/// Ascends per-leaf values to the root over redundant committee paths.
///
/// * `leaf_honest[leaf]` — the value every *honest* member of that leaf's
///   committee holds (`None` = the leaf produced nothing);
/// * `combine(net, level, node, winners)` — computes the node's honest
///   value from the per-child strict-majority winners (`winners[i]`
///   corresponds to the `i`-th child; the network handle is passed through
///   so the closure can meter its own sub-protocol cost);
/// * `corrupt_copy(level, node, member)` — the copy a corrupted member of
///   node `(level, node)` transmits upward (`None` = withhold);
/// * `len_of` — the metered wire size of a copy;
/// * `copy_tag` — the wire tag the child→parent copies are charged under
///   ([`tag::AGGR_SHARE`] for the SRDS signature ascent,
///   [`tag::FANIN`] for the plain input fan-in).
///
/// Every honest member's copy travels to every distinct parent-committee
/// member and is charged on the metrics table as a real envelope, so the
/// locality and max-bytes columns reflect the redundancy factor.
///
/// # Panics
///
/// Panics if `leaf_honest` does not have one entry per leaf.
#[allow(clippy::too_many_arguments)] // the ascent is parameterized over value, adversary, metering, and wire tag
pub fn ascend<T, F, G, L>(
    net: &mut Network,
    tree: &Tree,
    corrupt: &BTreeSet<PartyId>,
    leaf_honest: Vec<Option<T>>,
    mut combine: F,
    mut corrupt_copy: G,
    len_of: L,
    copy_tag: u8,
) -> AscentOutcome<T>
where
    T: Clone + PartialEq,
    F: FnMut(&mut Network, usize, usize, &[Option<T>]) -> Option<T>,
    G: FnMut(usize, usize, PartyId) -> Option<T>,
    L: Fn(&T) -> usize,
{
    assert_eq!(
        leaf_honest.len(),
        tree.nodes_at_level(0),
        "one honest value per leaf"
    );
    let height = tree.height();
    let mut honest_values: Vec<Vec<Option<T>>> = Vec::with_capacity(height);
    honest_values.push(leaf_honest);
    let mut copies_sent = 0u64;

    for level in 1..height {
        let mut row: Vec<Option<T>> = Vec::with_capacity(tree.nodes_at_level(level));
        for node in 0..tree.nodes_at_level(level) {
            let parent_committee = dedup_committee(tree.committee(level, node));
            let mut winners: Vec<Option<T>> = Vec::new();
            for child in tree.children(level, node) {
                let child_committee = dedup_committee(tree.committee(level - 1, child));
                let child_value = &honest_values[level - 1][child];
                let copies: Vec<Option<T>> = child_committee
                    .iter()
                    .map(|&member| {
                        if corrupt.contains(&member) {
                            corrupt_copy(level - 1, child, member)
                        } else {
                            child_value.clone()
                        }
                    })
                    .collect();
                // Honest members all transmit the node's value: one
                // child-committee → parent-committee exchange.
                if let Some(value) = child_value {
                    let senders: Vec<PartyId> = child_committee
                        .iter()
                        .filter(|p| !corrupt.contains(p))
                        .copied()
                        .collect();
                    copies_sent += net.metrics_mut().charge_exchange(
                        &senders,
                        &parent_committee,
                        len_of(value),
                        copy_tag,
                        true,
                    );
                }
                winners.push(strict_majority(&copies));
            }
            row.push(combine(net, level, node, &winners));
        }
        // One synchronous round per level for the copy transmission.
        net.bump_round();
        honest_values.push(row);
    }

    let root_level = height - 1;
    let root_committee = dedup_committee(tree.committee(root_level, 0));
    let root_honest = &honest_values[root_level][0];
    let root_copies: Vec<Option<T>> = root_committee
        .iter()
        .map(|&member| {
            if corrupt.contains(&member) {
                corrupt_copy(root_level, 0, member)
            } else {
                root_honest.clone()
            }
        })
        .collect();
    let root_value = strict_majority(&root_copies);

    AscentOutcome {
        root_value,
        honest_values,
        copies_sent,
    }
}

/// Robust fan-in of one byte per party: each leaf takes the strict
/// majority over its distinct members' inputs, and internal nodes combine
/// child winners again by **strict majority** — for an adversarial value
/// to ascend, the adversary must out-vote a majority of committees on a
/// majority of sibling branches at every level, not just poison one
/// subtree. Corrupted parties uniformly vote `corrupt_value`
/// (`None` = silent) — the colluding worst case for a vote.
///
/// This is the `certification/coin fan-in` path of `π_ba`: the supreme
/// committee's inputs arrive through the same redundant routing as the
/// certificates, instead of each member trusting its own local view.
pub fn robust_input_fanin(
    net: &mut Network,
    tree: &Tree,
    corrupt: &BTreeSet<PartyId>,
    inputs: &[u8],
    corrupt_value: Option<u8>,
) -> AscentOutcome<u8> {
    robust_input_fanin_with(net, tree, corrupt, inputs, corrupt_value, |_| 1, tag::FANIN)
}

/// [`robust_input_fanin`] generalised over the voted value type, the
/// per-copy wire size, and the charge tag.
///
/// The bit fan-in is the `T = u8`, one-byte-per-copy, [`tag::FANIN`]
/// instantiation. Multi-value BA routes each party's ℓ-byte input through
/// the same strict-majority ascent with `T = Vec<u8>`, copies charged at
/// their framed `MvInput` size under [`tag::MV_INPUT`] — whole values are
/// voted, not individual bytes, so a winner is always some party's input.
pub fn robust_input_fanin_with<T: Clone + PartialEq>(
    net: &mut Network,
    tree: &Tree,
    corrupt: &BTreeSet<PartyId>,
    inputs: &[T],
    corrupt_value: Option<T>,
    len_of: impl Fn(&T) -> usize,
    copy_tag: u8,
) -> AscentOutcome<T> {
    assert_eq!(inputs.len(), tree.params().n, "one input value per party");
    let leaf_honest: Vec<Option<T>> = (0..tree.nodes_at_level(0))
        .map(|leaf| {
            let members = dedup_committee(tree.committee(0, leaf));
            let copies: Vec<Option<T>> = members
                .iter()
                .map(|&m| {
                    if corrupt.contains(&m) {
                        corrupt_value.clone()
                    } else {
                        Some(inputs[m.index()].clone())
                    }
                })
                .collect();
            strict_majority(&copies)
        })
        .collect();
    let corrupt_copy = corrupt_value;
    ascend(
        net,
        tree,
        corrupt,
        leaf_honest,
        |_net, _level, _node, winners| strict_majority(winners),
        move |_, _, _| corrupt_copy.clone(),
        len_of,
        copy_tag,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::TreeParams;

    fn tree(n: usize, z: usize) -> Tree {
        Tree::build(&TreeParams::scaled(n, z), b"robust-seed")
    }

    /// Median over *present* child winners — models the SRDS combine,
    /// which keeps whatever valid children delivered and drops the rest
    /// (partial coverage instead of failure). Only sound when evil copies
    /// cannot survive to this point (the SRDS combine validates and drops
    /// them), so tests using it model Byzantine members as withholding.
    fn median_combine(
        _net: &mut Network,
        _level: usize,
        _node: usize,
        winners: &[Option<u64>],
    ) -> Option<u64> {
        let mut present: Vec<u64> = winners.iter().flatten().copied().collect();
        if present.is_empty() {
            return None;
        }
        present.sort_unstable();
        Some(present[present.len() / 2])
    }

    /// Strict-majority vote over child winners — the plain-value combine
    /// of [`robust_input_fanin`], safe against unvalidated evil copies.
    fn vote_combine(
        _net: &mut Network,
        _level: usize,
        _node: usize,
        winners: &[Option<u64>],
    ) -> Option<u64> {
        strict_majority(winners)
    }

    #[test]
    fn strict_majority_thresholds() {
        // 2-of-3 is a strict majority; 2-of-4 is not.
        assert_eq!(strict_majority(&[Some(7u64), Some(7), None]), Some(7));
        assert_eq!(strict_majority(&[Some(7u64), Some(7), None, None]), None);
        // A silent-majority committee elects nothing.
        assert_eq!(strict_majority::<u64>(&[None, None, Some(1)]), None);
        // Splits elect nothing.
        assert_eq!(
            strict_majority(&[Some(1u64), Some(2), Some(1), Some(2)]),
            None
        );
        assert_eq!(strict_majority::<u64>(&[]), None);
    }

    #[test]
    fn honest_ascent_delivers_leaf_value() {
        let t = tree(64, 2);
        let mut net = Network::new(64);
        let leaves = t.nodes_at_level(0);
        let out = ascend(
            &mut net,
            &t,
            &BTreeSet::new(),
            vec![Some(42u64); leaves],
            median_combine,
            |_, _, _| None,
            |_| 8,
            tag::FANIN,
        );
        assert_eq!(out.root_value, Some(42));
        for row in &out.honest_values {
            assert!(row.iter().all(|v| *v == Some(42)));
        }
        assert!(out.copies_sent > 0);
    }

    #[test]
    fn ascent_meters_redundant_copies() {
        let t = tree(64, 2);
        let mut net = Network::new(64);
        let leaves = t.nodes_at_level(0);
        let out = ascend(
            &mut net,
            &t,
            &BTreeSet::new(),
            vec![Some(1u64); leaves],
            median_combine,
            |_, _, _| None,
            |_| 8,
            tag::FANIN,
        );
        // Every copy was charged as a real envelope: totals and locality
        // both reflect the dilution factor.
        let report = net.report();
        assert_eq!(report.total_bytes, out.copies_sent * 8);
        assert!(report.max_locality > 1, "copies invisible to locality");
        assert_eq!(report.rounds, (t.height() - 1) as u64);
    }

    #[test]
    fn minority_corruption_cannot_flip_or_withhold() {
        let t = tree(96, 2);
        // A quarter of all parties collude and vote an evil value at
        // every node they sit on.
        let corrupt: BTreeSet<PartyId> = (0..24).map(PartyId).collect();
        let mut net = Network::new(96);
        let leaves = t.nodes_at_level(0);
        let out = ascend(
            &mut net,
            &t,
            &corrupt,
            vec![Some(5u64); leaves],
            vote_combine,
            |_, _, _| Some(666), // colluding evil copy everywhere
            |_| 8,
            tag::FANIN,
        );
        // Under the voting combine the evil value can never become the
        // root's value: forging it requires out-voting a majority of
        // committees on *every* sibling branch of some level, far beyond
        // a quarter of the parties. The worst the minority achieves is a
        // split (`None`), which callers resolve by falling back to each
        // member's own view.
        assert!(
            matches!(out.root_value, Some(5) | None),
            "evil minority forged the root: {:?}",
            out.root_value
        );
    }

    #[test]
    fn majority_corrupted_leaf_is_contained() {
        let t = tree(64, 2);
        // Fully corrupt leaf 0's distinct members. In the SRDS ascent
        // their forged copies fail validation at the parent (modeled here
        // as withholding), so the leaf's subtree is simply absent and the
        // siblings carry the combine — the run loses coverage, not the
        // certificate.
        let corrupt: BTreeSet<PartyId> = dedup_committee(t.committee(0, 0)).into_iter().collect();
        let mut net = Network::new(64);
        let leaves = t.nodes_at_level(0);
        let mut leaf_honest = vec![Some(9u64); leaves];
        leaf_honest[0] = None; // honest members of leaf 0 are outvoted anyway
        let out = ascend(
            &mut net,
            &t,
            &corrupt,
            leaf_honest,
            median_combine,
            |_, _, _| None,
            |_| 8,
            tag::FANIN,
        );
        assert_eq!(
            out.root_value,
            Some(9),
            "one lost leaf must not break the root under redundant paths"
        );
    }

    #[test]
    fn withholding_minority_does_not_silence_a_node() {
        let t = tree(64, 2);
        // Corrupt a strict minority of leaf 3's members; they withhold.
        let members = dedup_committee(t.committee(0, 3));
        let take = (members.len() - 1) / 2; // strictly below half
        let corrupt: BTreeSet<PartyId> = members.into_iter().take(take).collect();
        let mut net = Network::new(64);
        let leaves = t.nodes_at_level(0);
        let out = ascend(
            &mut net,
            &t,
            &corrupt,
            vec![Some(3u64); leaves],
            median_combine,
            |_, _, _| None,
            |_| 8,
            tag::FANIN,
        );
        assert_eq!(out.root_value, Some(3));
        // The level-1 parent of leaf 3 still computed the honest value.
        assert_eq!(out.honest_values[1][3 / t.params().branching], Some(3));
    }

    #[test]
    fn input_fanin_carries_unanimous_byte() {
        let t = tree(48, 2);
        let mut net = Network::new(48);
        let corrupt: BTreeSet<PartyId> = (0..4).map(PartyId).collect();
        let out = robust_input_fanin(&mut net, &t, &corrupt, &[1u8; 48], Some(0xaa));
        assert_eq!(out.root_value, Some(1));
    }

    #[test]
    fn input_fanin_is_deterministic() {
        let t = tree(48, 2);
        let corrupt: BTreeSet<PartyId> = (10..16).map(PartyId).collect();
        let inputs: Vec<u8> = (0..48).map(|i| (i % 2) as u8).collect();
        let run = || {
            let mut net = Network::new(48);
            robust_input_fanin(&mut net, &t, &corrupt, &inputs, None).root_value
        };
        assert_eq!(run(), run());
    }
}
