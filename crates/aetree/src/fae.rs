//! The `f_ae-comm` functionality: supreme-committee → almost-everywhere
//! message dissemination down the communication tree, executed as real
//! metered network traffic with Byzantine committee members.
//!
//! This realizes the reactive functionality of §3.1 at its interface: after
//! the tree is established (see [`charge_establishment`] for how the KSSV
//! build cost is accounted), the root committee can push a value to all
//! parties except those isolated by bad paths. Each committee member relays
//! the value to every member of each child committee; receivers take the
//! **majority** over the copies they process. A good path (all committees
//! `< 1/3` corrupt) therefore delivers the correct value; parties whose leaf
//! memberships all sit under bad paths may receive garbage or nothing —
//! exactly the `o(1)` isolated set the paper tolerates.
//!
//! # Examples
//!
//! ```
//! use pba_aetree::params::TreeParams;
//! use pba_aetree::tree::Tree;
//! use pba_aetree::fae::{disseminate, honest_adversary};
//! use pba_net::Network;
//! use std::collections::BTreeSet;
//!
//! let tree = Tree::build(&TreeParams::scaled(128, 2), b"seed");
//! let mut net = Network::new(128);
//! let result = disseminate(
//!     &mut net,
//!     &tree,
//!     &BTreeSet::new(),
//!     &|_member| Some(b"(y, s)".to_vec()),
//!     &mut honest_adversary(),
//! );
//! assert!((0..128).all(|p| result.party_value(p) == Some(b"(y, s)".as_slice())));
//! ```

use crate::tree::Tree;
use pba_net::wire;
use pba_net::{Network, PartyId};
use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;

/// What a corrupted committee member sends toward one child committee:
/// `None` = stays silent, `Some(bytes)` = sends those bytes (possibly
/// different per child — equivocation).
pub type AdversaryFn<'a> = dyn FnMut(DisseminationStep<'_>) -> Option<Vec<u8>> + 'a;

/// Context handed to the dissemination adversary for each corrupt relay
/// decision.
#[derive(Clone, Copy, Debug)]
pub struct DisseminationStep<'a> {
    /// Level of the relaying node (root level … 1).
    pub level: usize,
    /// Node index within the level.
    pub node: usize,
    /// The corrupted member doing the relaying.
    pub member: PartyId,
    /// Child node index (at `level − 1`) being addressed.
    pub child: usize,
    /// The value the member *would* relay if honest (its current majority
    /// view), if any.
    pub honest_value: Option<&'a [u8]>,
}

/// An adversary whose corrupt members behave honestly (relay their view).
pub fn honest_adversary() -> impl FnMut(DisseminationStep<'_>) -> Option<Vec<u8>> {
    |step: DisseminationStep<'_>| step.honest_value.map(|v| v.to_vec())
}

/// An adversary whose corrupt members always push `garbage`.
pub fn constant_adversary(
    garbage: Vec<u8>,
) -> impl FnMut(DisseminationStep<'_>) -> Option<Vec<u8>> {
    move |_| Some(garbage.clone())
}

/// An adversary whose corrupt members stay silent.
pub fn silent_adversary() -> impl FnMut(DisseminationStep<'_>) -> Option<Vec<u8>> {
    |_| None
}

/// Outcome of one dissemination.
///
/// Values are `Rc`-shared: most slots and parties receive the same handful
/// of distinct payloads, so deep-copying one `Vec<u8>` per slot would cost
/// memory linear in `total_slots × payload` (hundreds of MB at n = 2^20).
#[derive(Clone, Debug)]
pub struct DisseminationResult {
    /// Value received at each virtual slot (leaf-committee seat).
    pub per_slot: Vec<Option<Rc<Vec<u8>>>>,
    /// Majority value per real party across its slots.
    pub per_party: Vec<Option<Rc<Vec<u8>>>>,
}

impl DisseminationResult {
    /// The value party `p` received, as a byte slice.
    pub fn party_value(&self, p: usize) -> Option<&[u8]> {
        self.per_party[p].as_deref().map(|v| v.as_slice())
    }
}

/// Strict-majority vote over byte strings; `None` on no strict majority.
fn majority(values: &[Rc<Vec<u8>>]) -> Option<Rc<Vec<u8>>> {
    if values.is_empty() {
        return None;
    }
    let mut counts: HashMap<&[u8], (usize, &Rc<Vec<u8>>)> = HashMap::new();
    for v in values {
        let entry = counts.entry(v.as_slice()).or_insert((0, v));
        entry.0 += 1;
    }
    let (count, best) = counts.values().max_by_key(|(c, _)| *c)?;
    if 2 * count > values.len() {
        Some(Rc::clone(best))
    } else {
        None
    }
}

/// The copies addressed to one child committee: one entry per *distinct*
/// payload, in order of first appearance, with the members relaying it (a
/// member holding several seats of the relaying committee appears once per
/// seat). Every relay reaches every seat of the child, so this is both the
/// list of committee exchanges to meter and each seat's vote tally.
type Relays = Vec<(Rc<Vec<u8>>, Vec<PartyId>)>;

/// Records that `member` relays `value`.
fn relay_push(relays: &mut Relays, value: Rc<Vec<u8>>, member: PartyId) {
    if let Some(entry) = relays
        .iter_mut()
        .find(|(v, _)| Rc::ptr_eq(v, &value) || v.as_slice() == value.as_slice())
    {
        entry.1.push(member);
    } else {
        relays.push((value, vec![member]));
    }
}

/// Strict-majority vote over the relayed copies — same semantics as
/// [`majority`] over the expanded copy list: a value wins iff its relay
/// count exceeds half the total copy count (at most one value can, so the
/// winner is independent of entry order).
fn majority_relayed(relays: &Relays) -> Option<Rc<Vec<u8>>> {
    let total: usize = relays.iter().map(|(_, from)| from.len()).sum();
    let (best, from) = relays.iter().max_by_key(|(_, from)| from.len())?;
    if 2 * from.len() > total {
        Some(Rc::clone(best))
    } else {
        None
    }
}

/// Runs one top-down dissemination from the supreme committee.
///
/// `root_values` gives each root-committee member its initial value (honest
/// members of the supreme committee hold the agreed `(y, s)`; `None` models
/// a member that has nothing). `adversary` chooses what corrupted relays
/// send at every step.
///
/// All traffic is staged on `net` and charged to senders; receivers are
/// charged for every copy they process (they must read all copies to take
/// the majority — this is the `polylog(n)` per-party cost of Fig. 3
/// steps 3/6).
#[allow(clippy::needless_range_loop)] // node/seat indices address parallel per-level tables
pub fn disseminate(
    net: &mut Network,
    tree: &Tree,
    corrupt: &BTreeSet<PartyId>,
    root_values: &dyn Fn(PartyId) -> Option<Vec<u8>>,
    adversary: &mut AdversaryFn<'_>,
) -> DisseminationResult {
    let h = tree.height();
    let root_level = h - 1;

    // views[node][member_idx] = current value at that committee seat.
    // Values are Rc-shared: dissemination fan-out would otherwise clone the
    // payload once per recipient seat.
    let mut views: Vec<Vec<Option<Rc<Vec<u8>>>>> = (0..tree.nodes_at_level(root_level))
        .map(|node| {
            tree.committee(root_level, node)
                .iter()
                .map(|&m| root_values(m).map(Rc::new))
                .collect()
        })
        .collect();

    for level in (1..=root_level).rev() {
        let child_level = level - 1;

        let mut next_views: Vec<Vec<Option<Rc<Vec<u8>>>>> =
            Vec::with_capacity(tree.nodes_at_level(child_level));

        // Relay: every member of every node sends its value to every seat of
        // each child committee, and receivers process all copies to
        // majority-vote. The message is addressed to the *seat*; routing is
        // by seat so a party holding several seats receives one copy per
        // seat. Relay values are computed member-major (the order a stateful
        // adversary observes), then metered as one committee exchange per
        // (child, distinct payload).
        for node in 0..tree.nodes_at_level(level) {
            let children = tree.children(level, node);
            let mut relays: Vec<Relays> = vec![Vec::new(); children.len()];
            for (mi, &member) in tree.committee(level, node).iter().enumerate() {
                for (ci, child) in children.clone().enumerate() {
                    let value: Option<Rc<Vec<u8>>> = if corrupt.contains(&member) {
                        adversary(DisseminationStep {
                            level,
                            node,
                            member,
                            child,
                            honest_value: views[node][mi].as_ref().map(|v| v.as_slice()),
                        })
                        .map(Rc::new)
                    } else {
                        views[node][mi].clone()
                    };
                    if let Some(bytes) = value {
                        relay_push(&mut relays[ci], bytes, member);
                    }
                }
            }
            for (child, relays) in children.zip(&relays) {
                let committee = tree.committee(child_level, child);
                for (bytes, from) in relays {
                    // Relay copies keep their typed headers, so the charge
                    // lands in the payload's own tag/step bucket
                    // (ValueSeed → step 3, Certificate → step 6,
                    // headerless → untyped).
                    net.metrics_mut().charge_exchange(
                        from,
                        committee,
                        bytes.len(),
                        wire::peek_tag(bytes),
                        false,
                    );
                }
                debug_assert_eq!(child, next_views.len(), "children partition the level");
                next_views.push(vec![majority_relayed(relays); committee.len()]);
            }
        }
        net.bump_round();
        views = next_views;
    }

    // Leaf seats are the virtual slots, in order.
    let leaf_slots = tree.params().leaf_slots;
    let mut per_slot_rc: Vec<Option<Rc<Vec<u8>>>> = Vec::with_capacity(tree.params().total_slots());
    for leaf in 0..tree.params().leaf_count {
        for seat in 0..leaf_slots {
            per_slot_rc.push(views[leaf][seat].clone());
        }
    }

    let per_party: Vec<Option<Rc<Vec<u8>>>> = (0..tree.params().n)
        .map(|p| {
            let slots = tree.party_slots(PartyId::from(p));
            let values: Vec<Rc<Vec<u8>>> = slots
                .iter()
                .filter_map(|&s| per_slot_rc[s as usize].clone())
                .collect();
            if values.len() * 2 <= slots.len() {
                return None; // fewer than half the seats delivered anything
            }
            majority(&values)
        })
        .collect();

    DisseminationResult {
        per_slot: per_slot_rc,
        per_party,
    }
}

/// Charges every party the communication cost of establishing the tree via
/// the interactive KSSV'06 protocol, which this crate realizes structurally
/// rather than message-by-message (DESIGN.md §2, substitution 5).
///
/// The charge is the documented per-party cost of KSSV \[48\]: `polylog(n)`
/// bits and messages — instantiated as
/// `committee_size · height · 64` bytes and `committee_size · height`
/// messages per party.
pub fn charge_establishment(net: &mut Network, tree: &Tree) {
    let params = tree.params();
    let bytes = (params.committee_size * params.height * 64) as u64;
    let msgs = (params.committee_size * params.height) as u64;
    for p in 0..params.n {
        net.metrics_mut().charge_synthetic_tagged(
            PartyId::from(p),
            bytes,
            msgs,
            wire::tag::ESTABLISH,
        );
    }
    for _ in 0..params.height {
        net.bump_round();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::TreeAnalysis;
    use crate::params::TreeParams;
    use pba_crypto::prg::Prg;
    use pba_net::corruption::{max_corruptions, CorruptionPlan};

    fn setup(n: usize, z: usize) -> (Tree, Network) {
        let tree = Tree::build(&TreeParams::scaled(n, z), b"fae-seed");
        let net = Network::new(n);
        (tree, net)
    }

    #[test]
    fn honest_dissemination_reaches_everyone() {
        let (tree, mut net) = setup(128, 2);
        let result = disseminate(
            &mut net,
            &tree,
            &BTreeSet::new(),
            &|_| Some(b"value".to_vec()),
            &mut honest_adversary(),
        );
        for p in 0..128 {
            assert_eq!(
                result.party_value(p),
                Some(b"value".as_slice()),
                "party {p}"
            );
        }
        assert!(net.report().total_bytes > 0);
    }

    #[test]
    fn per_party_cost_is_balanced() {
        let (tree, mut net) = setup(256, 2);
        disseminate(
            &mut net,
            &tree,
            &BTreeSet::new(),
            &|_| Some(vec![7u8; 40]),
            &mut honest_adversary(),
        );
        let report = net.report();
        let avg = report.total_bytes as f64 / 256.0;
        // No party should carry more than ~a polylog multiple of the mean.
        assert!(
            (report.max_bytes_per_party as f64) < 200.0 * avg.max(1.0),
            "max {} vs avg {avg}",
            report.max_bytes_per_party
        );
    }

    #[test]
    fn byzantine_minority_cannot_corrupt_good_paths() {
        let mut prg = Prg::from_seed_bytes(b"byz");
        let (tree, mut net) = setup(256, 3);
        let t = max_corruptions(256, 0.2);
        let corrupt = CorruptionPlan::Random { t }.materialize(256, &mut prg);
        let analysis = TreeAnalysis::analyze(&tree, &corrupt);
        let result = disseminate(
            &mut net,
            &tree,
            &corrupt,
            &|_| Some(b"true-value".to_vec()),
            &mut constant_adversary(b"evil-value".to_vec()),
        );
        // Every non-isolated honest party must receive the true value.
        for p in 0..256u64 {
            let party = PartyId(p);
            if corrupt.contains(&party) || analysis.isolated().contains(&party) {
                continue;
            }
            assert_eq!(
                result.party_value(p as usize),
                Some(b"true-value".as_slice()),
                "party {party} on good paths got wrong value"
            );
        }
    }

    #[test]
    fn silent_adversary_still_delivers_on_good_paths() {
        let mut prg = Prg::from_seed_bytes(b"sil");
        let (tree, mut net) = setup(128, 2);
        let corrupt = CorruptionPlan::Random { t: 20 }.materialize(128, &mut prg);
        let analysis = TreeAnalysis::analyze(&tree, &corrupt);
        let result = disseminate(
            &mut net,
            &tree,
            &corrupt,
            &|_| Some(b"v".to_vec()),
            &mut silent_adversary(),
        );
        for p in 0..128u64 {
            let party = PartyId(p);
            if corrupt.contains(&party) || analysis.isolated().contains(&party) {
                continue;
            }
            assert_eq!(result.party_value(p as usize), Some(b"v".as_slice()));
        }
    }

    #[test]
    fn equivocating_adversary_cannot_split_good_path_parties() {
        let mut prg = Prg::from_seed_bytes(b"eq");
        let (tree, mut net) = setup(128, 2);
        let corrupt = CorruptionPlan::Random { t: 15 }.materialize(128, &mut prg);
        let analysis = TreeAnalysis::analyze(&tree, &corrupt);
        // Equivocate: different junk per child.
        let mut adversary = |step: DisseminationStep<'_>| Some(vec![step.child as u8; 8]);
        let result = disseminate(
            &mut net,
            &tree,
            &corrupt,
            &|_| Some(b"agreed".to_vec()),
            &mut adversary,
        );
        let mut delivered: BTreeSet<Vec<u8>> = BTreeSet::new();
        for p in 0..128u64 {
            let party = PartyId(p);
            if corrupt.contains(&party) || analysis.isolated().contains(&party) {
                continue;
            }
            if let Some(v) = result.party_value(p as usize) {
                delivered.insert(v.to_vec());
            }
        }
        assert_eq!(
            delivered.len(),
            1,
            "good-path parties disagree: {delivered:?}"
        );
        assert!(delivered.contains(b"agreed".as_slice()));
    }

    #[test]
    fn adversary_is_called_in_node_member_child_order() {
        // A stateful adversary must observe the relay decisions in the
        // order the per-copy loop made them — level down, node, committee
        // seat, child — however the copies are grouped for metering.
        let mut prg = Prg::from_seed_bytes(b"order");
        let (tree, mut net) = setup(128, 2);
        let corrupt = CorruptionPlan::Random { t: 20 }.materialize(128, &mut prg);
        let mut calls: Vec<(usize, usize, PartyId, usize)> = Vec::new();
        let mut counting = |step: DisseminationStep<'_>| {
            calls.push((step.level, step.node, step.member, step.child));
            // State-dependent output: equivocates by call parity.
            Some(vec![(calls.len() % 2) as u8; 4])
        };
        disseminate(
            &mut net,
            &tree,
            &corrupt,
            &|_| Some(b"v".to_vec()),
            &mut counting,
        );
        let mut expected = Vec::new();
        for level in (1..tree.height()).rev() {
            for node in 0..tree.nodes_at_level(level) {
                for &member in tree.committee(level, node) {
                    if corrupt.contains(&member) {
                        for child in tree.children(level, node) {
                            expected.push((level, node, member, child));
                        }
                    }
                }
            }
        }
        assert!(!expected.is_empty());
        assert_eq!(calls, expected);
    }

    #[test]
    fn majority_helper() {
        let rc = |v: Vec<u8>| std::rc::Rc::new(v);
        assert_eq!(majority(&[]), None);
        assert_eq!(
            majority(&[rc(vec![1]), rc(vec![1]), rc(vec![2])]).map(|r| (*r).clone()),
            Some(vec![1])
        );
        assert_eq!(majority(&[rc(vec![1]), rc(vec![2])]), None); // tie
        assert_eq!(
            majority(&[rc(vec![3])]).map(|r| (*r).clone()),
            Some(vec![3])
        );
    }

    #[test]
    fn relayed_vote_matches_expanded_majority() {
        // The per-payload relay lists must agree with the naive copy-list
        // vote on every mix of strict-majority / tie / minority outcomes.
        let rc = |v: Vec<u8>| std::rc::Rc::new(v);
        let cases: Vec<Vec<Rc<Vec<u8>>>> = vec![
            vec![],
            vec![rc(vec![1])],
            vec![rc(vec![1]), rc(vec![1]), rc(vec![2])],
            vec![rc(vec![1]), rc(vec![2])],
            vec![
                rc(vec![1]),
                rc(vec![2]),
                rc(vec![2]),
                rc(vec![2]),
                rc(vec![3]),
            ],
            vec![rc(vec![1]), rc(vec![1]), rc(vec![2]), rc(vec![2])],
        ];
        for copies in cases {
            let mut relays = Relays::new();
            for (i, c) in copies.iter().enumerate() {
                relay_push(&mut relays, Rc::clone(c), PartyId(i as u64));
            }
            assert_eq!(
                majority_relayed(&relays).map(|r| (*r).clone()),
                majority(&copies).map(|r| (*r).clone()),
                "copies: {copies:?}"
            );
        }
    }

    #[test]
    fn establishment_charge_is_polylog_per_party() {
        let (tree, mut net) = setup(1024, 2);
        charge_establishment(&mut net, &tree);
        let report = net.report();
        assert!(report.max_bytes_per_party > 0);
        // polylog: far below n bytes for n=1024.
        assert!(
            report.max_bytes_per_party < 1024 * 32,
            "establishment charge too large: {}",
            report.max_bytes_per_party
        );
        assert_eq!(report.rounds, tree.height() as u64);
    }
}
