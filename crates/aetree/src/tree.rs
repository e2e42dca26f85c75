//! The `(n, I)`-party almost-everywhere communication tree (Def. 2.3) and
//! its repeated-parties variant (Def. 3.4).
//!
//! This is the combinatorial object of King–Saia–Sanwalani–Vee (SODA '06)
//! that both the SRDS robustness experiment (Fig. 1) and the BA protocol
//! (Fig. 3) are built on:
//!
//! * a `branching`-ary rooted tree of `height` levels; level 0 holds the
//!   leaf nodes, the top level the root;
//! * every internal node is assigned a committee of distinct parties,
//!   dealt so that the seat counts of any two parties differ by at most 1;
//! * every leaf is assigned `leaf_slots` **virtual slots**; virtual IDs are
//!   laid out contiguously left-to-right, so the virtual IDs under any node
//!   form one contiguous range (the planar/increasing-ID property the
//!   paper's `range(v)` checks rely on);
//! * each real party occupies `z` virtual slots (`z = 1` is Def. 2.3's
//!   one-leaf-per-party assignment).
//!
//! # Examples
//!
//! ```
//! use pba_aetree::params::TreeParams;
//! use pba_aetree::tree::Tree;
//!
//! let params = TreeParams::scaled(256, 2);
//! let tree = Tree::build(&params, b"setup-seed");
//! assert_eq!(tree.node_range(tree.height() - 1, 0), 0..params.total_slots() as u64);
//! assert!(!tree.root_committee().is_empty());
//! ```

use crate::params::TreeParams;
use pba_crypto::prg::Prg;
use pba_net::PartyId;

/// A node address: `(level, index)` with level 0 = leaves.
pub type NodeAddr = (usize, usize);

/// A built almost-everywhere communication tree.
#[derive(Clone, Debug)]
pub struct Tree {
    params: TreeParams,
    /// `committees[level - 1][node]` → members of internal node
    /// `(level, node)`, for levels ≥ 1. A leaf's committee is not stored:
    /// it is the leaf's range of `slot_party`.
    committees: Vec<Vec<Vec<PartyId>>>,
    /// Virtual slot → real party; length `params.total_slots()`. Read in
    /// `leaf_slots`-long chunks, it is also every leaf committee (the
    /// multiset of parties occupying the leaf's virtual slots).
    slot_party: Vec<PartyId>,
    /// Real party → its virtual slots (sorted), CSR layout: party `p`
    /// owns `party_slot_values[offsets[p] .. offsets[p+1]]`. One flat
    /// arena instead of `n` tiny `Vec`s — at n = 2^20 the per-party
    /// `Vec<Vec<u64>>` layout costs a million allocations plus 24 bytes
    /// of header each, which dominated the tree's footprint.
    party_slot_offsets: Vec<u32>,
    party_slot_values: Vec<u64>,
}

/// Builds the CSR `(offsets, values)` arena mapping each party to its
/// sorted slot list, by counting sort over the slot assignment (two
/// passes, zero per-party allocations). Values come out sorted per party
/// because slots are visited in increasing order.
fn party_slots_csr(n: usize, slot_party: &[PartyId]) -> (Vec<u32>, Vec<u64>) {
    assert!(
        u32::try_from(slot_party.len()).is_ok(),
        "slot count exceeds CSR offset width"
    );
    let mut offsets = vec![0u32; n + 1];
    for &p in slot_party {
        offsets[p.index() + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut cursor: Vec<u32> = offsets[..n].to_vec();
    let mut values = vec![0u64; slot_party.len()];
    for (slot, &p) in slot_party.iter().enumerate() {
        let c = &mut cursor[p.index()];
        values[*c as usize] = slot as u64;
        *c += 1;
    }
    (offsets, values)
}

impl Tree {
    /// Builds the tree from setup randomness.
    ///
    /// The slot assignment is a PRG shuffle of each party repeated `z`
    /// times (padded round-robin up to `total_slots`). Internal committees
    /// are *dealt*, level 1 to the root, from one child stream: each seat
    /// draws a party without replacement from a deck of all `n` parties
    /// (refilled when empty), and a party that already sits in the
    /// committee being filled is held over to the next committee. Members
    /// stay distinct and every party holds ⌊S/n⌋ or ⌈S/n⌉ of the `S`
    /// internal seats, where an independent sample per committee would
    /// give the busiest party a balls-into-bins surplus. Each committee is
    /// still a uniform draw from what is left of a random permutation, so
    /// its corrupt count is hypergeometric as before. Crucially — matching
    /// the paper's corruption model — callers must derive `seed` from
    /// randomness fixed *after* the adversary commits to its corruption set
    /// (the tree is built online by the KSSV protocol, not by the trusted
    /// setup).
    ///
    /// # Panics
    ///
    /// Panics if `params` fails validation.
    pub fn build(params: &TreeParams, seed: &[u8]) -> Self {
        params.validate().expect("invalid tree parameters");
        let mut prg = Prg::from_seed_label(seed, "aetree-build");

        // Virtual slot assignment: each party z times, padding round-robin.
        let total = params.total_slots();
        let mut slot_party: Vec<PartyId> = Vec::with_capacity(total);
        for _ in 0..params.z {
            slot_party.extend((0..params.n).map(PartyId::from));
        }
        let mut pad = 0usize;
        while slot_party.len() < total {
            slot_party.push(PartyId::from(pad % params.n));
            pad += 1;
        }
        prg.shuffle(&mut slot_party);

        let (party_slot_offsets, party_slot_values) = party_slots_csr(params.n, &slot_party);

        // Internal committees dealt from all parties. A draw can repeat a
        // member only across a deck refill, so every held party came from
        // the newest deck, is held once, and fewer than `size` are held:
        // the next committee seats all of them first. A party still held
        // after the root counts as undrawn by the last deck, so every party
        // has one seat per full deck plus one if the last deck seated it:
        // ⌊S/n⌋ or ⌈S/n⌉.
        let size = params.committee_size.min(params.n);
        let mut dealer = prg.child("committees", 0);
        let mut deck: Vec<PartyId> = Vec::with_capacity(params.n);
        let mut held: Vec<PartyId> = Vec::new();
        // `seated_in[p]` is the serial of the last committee `p` sits in.
        let mut seated_in = vec![0usize; params.n];
        let mut serial = 0usize;
        let mut committees: Vec<Vec<Vec<PartyId>>> = Vec::with_capacity(params.height - 1);
        for level in 1..params.height {
            let count = params.nodes_at_level(level);
            let mut level_committees = Vec::with_capacity(count);
            for _ in 0..count {
                serial += 1;
                let mut members = Vec::with_capacity(size);
                for p in held.drain(..) {
                    seated_in[p.index()] = serial;
                    members.push(p);
                }
                while members.len() < size {
                    if deck.is_empty() {
                        deck.extend((0..params.n).map(PartyId::from));
                    }
                    let p = deck.swap_remove(dealer.gen_range(deck.len() as u64) as usize);
                    if seated_in[p.index()] == serial {
                        held.push(p);
                    } else {
                        seated_in[p.index()] = serial;
                        members.push(p);
                    }
                }
                level_committees.push(members);
            }
            committees.push(level_committees);
        }

        Tree {
            params: *params,
            committees,
            slot_party,
            party_slot_offsets,
            party_slot_values,
        }
    }

    /// Builds a tree whose slot assignment is the **identity**: slot `i` is
    /// party `i`. This is the layout of the SRDS security experiments
    /// (Figures 1–2), where "level-0 nodes are indexed and ordered by the
    /// parties … in increasing order". Internal committees are still
    /// dealt from `seed` exactly as [`Tree::build`] deals them.
    ///
    /// # Panics
    ///
    /// Panics unless `params.z == 1` and `params.total_slots() == params.n`
    /// (use [`crate::params::TreeParams::for_slots`]).
    pub fn build_identity(params: &TreeParams, seed: &[u8]) -> Self {
        assert_eq!(params.z, 1, "identity layout requires z = 1");
        assert_eq!(
            params.total_slots(),
            params.n,
            "identity layout requires exactly one slot per party"
        );
        let random = Self::build(params, seed);
        let slot_party: Vec<PartyId> = (0..params.n).map(PartyId::from).collect();
        Tree::from_parts(params, random.committees, slot_party)
    }

    /// Builds a tree with **explicit committees and slot assignment** — the
    /// constructor adversaries use in the Fig. 1 robustness experiment,
    /// where the adversary chooses the tree (subject to Def. 2.3, which the
    /// experiment validates separately via [`crate::analysis`]).
    ///
    /// `internal[level - 1][node]` is the committee of internal node
    /// `(level, node)`, for levels 1 to the root; leaf committees are the
    /// leaves' chunks of `slot_party`, so they cannot disagree with it.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches (level/node counts, slot counts).
    pub fn from_parts(
        params: &TreeParams,
        internal: Vec<Vec<Vec<PartyId>>>,
        slot_party: Vec<PartyId>,
    ) -> Self {
        params.validate().expect("invalid tree parameters");
        assert_eq!(internal.len(), params.height - 1, "level count mismatch");
        for (level, nodes) in (1..).zip(&internal) {
            assert_eq!(
                nodes.len(),
                params.nodes_at_level(level),
                "node count mismatch at level {level}"
            );
        }
        assert_eq!(
            slot_party.len(),
            params.total_slots(),
            "slot count mismatch"
        );
        let (party_slot_offsets, party_slot_values) = party_slots_csr(params.n, &slot_party);
        Tree {
            params: *params,
            committees: internal,
            slot_party,
            party_slot_offsets,
            party_slot_values,
        }
    }

    /// The parameters this tree was built with.
    pub fn params(&self) -> &TreeParams {
        &self.params
    }

    /// Number of node levels (level 0 = leaves, `height−1` = root).
    pub fn height(&self) -> usize {
        self.params.height
    }

    /// Number of nodes at `level`.
    pub fn nodes_at_level(&self, level: usize) -> usize {
        self.params.nodes_at_level(level)
    }

    /// Committee of node `(level, node)`. A leaf's committee is the
    /// parties of its virtual slots, in slot order (one entry per slot).
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn committee(&self, level: usize, node: usize) -> &[PartyId] {
        match level {
            0 => {
                let width = self.params.leaf_slots;
                &self.slot_party[node * width..(node + 1) * width]
            }
            _ => &self.committees[level - 1][node],
        }
    }

    /// The supreme committee (root).
    pub fn root_committee(&self) -> &[PartyId] {
        self.committee(self.params.height - 1, 0)
    }

    /// Children of an internal node, as indices at `level − 1`.
    ///
    /// # Panics
    ///
    /// Panics if `level == 0` (leaves have no node children).
    pub fn children(&self, level: usize, node: usize) -> std::ops::Range<usize> {
        assert!(level > 0, "leaves have no children nodes");
        let b = self.params.branching;
        node * b..(node + 1) * b
    }

    /// Parent index (at `level + 1`) of a non-root node.
    ///
    /// # Panics
    ///
    /// Panics if `level` is the root level.
    pub fn parent(&self, level: usize, node: usize) -> usize {
        assert!(level + 1 < self.params.height, "root has no parent");
        node / self.params.branching
    }

    /// Contiguous range of virtual slot IDs under node `(level, node)` —
    /// the paper's `range(v)`.
    pub fn node_range(&self, level: usize, node: usize) -> std::ops::Range<u64> {
        let leaves_under = self.params.branching.pow(level as u32);
        let first_leaf = node * leaves_under;
        let start = (first_leaf * self.params.leaf_slots) as u64;
        let end = start + (leaves_under * self.params.leaf_slots) as u64;
        start..end
    }

    /// Virtual-slot range of a single leaf.
    pub fn leaf_range(&self, leaf: usize) -> std::ops::Range<u64> {
        self.node_range(0, leaf)
    }

    /// The leaf containing a virtual slot.
    pub fn slot_leaf(&self, slot: u64) -> usize {
        slot as usize / self.params.leaf_slots
    }

    /// Real party occupying a virtual slot.
    pub fn slot_party(&self, slot: u64) -> PartyId {
        self.slot_party[slot as usize]
    }

    /// All virtual slots of a real party (its `z` leaf memberships).
    pub fn party_slots(&self, party: PartyId) -> &[u64] {
        let i = party.index();
        let (start, end) = (
            self.party_slot_offsets[i] as usize,
            self.party_slot_offsets[i + 1] as usize,
        );
        &self.party_slot_values[start..end]
    }

    /// The distinct leaves a party belongs to.
    pub fn party_leaves(&self, party: PartyId) -> Vec<usize> {
        let mut leaves: Vec<usize> = self
            .party_slots(party)
            .iter()
            .map(|&s| self.slot_leaf(s))
            .collect();
        leaves.sort_unstable();
        leaves.dedup();
        leaves
    }

    /// A committee-takeover corruption plan: corrupt up to `max` of the
    /// distinct parties serving in `leaf`'s committee (slot order, so the
    /// choice is deterministic for a given tree).
    ///
    /// This is the structured placement the chaos sweep uses to
    /// concentrate the adversary's budget on one a.e.-tree leaf — the
    /// attack the tree's goodness analysis is supposed to absorb.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is out of range.
    pub fn leaf_takeover(&self, leaf: usize, max: usize) -> pba_net::corruption::CorruptionPlan {
        let mut chosen: Vec<PartyId> = Vec::new();
        for &member in self.committee(0, leaf) {
            if chosen.len() == max {
                break;
            }
            if !chosen.contains(&member) {
                chosen.push(member);
            }
        }
        pba_net::corruption::CorruptionPlan::Explicit(chosen.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(n: usize, z: usize) -> Tree {
        Tree::build(&TreeParams::scaled(n, z), b"test-seed")
    }

    #[test]
    fn every_party_has_z_slots() {
        let t = tree(100, 3);
        let mut total = 0;
        for p in 0..100 {
            let slots = t.party_slots(PartyId(p));
            assert!(slots.len() >= 3, "party {p} has {} slots", slots.len());
            total += slots.len();
        }
        assert_eq!(total, t.params().total_slots());
    }

    #[test]
    fn party_slots_are_sorted() {
        // The CSR arena must preserve the documented sorted-ascending
        // order the per-party Vec layout produced.
        let t = tree(100, 3);
        for p in 0..100u64 {
            let slots = t.party_slots(PartyId(p));
            assert!(slots.windows(2).all(|w| w[0] < w[1]), "party {p}");
        }
    }

    #[test]
    fn slot_party_consistency() {
        let t = tree(64, 2);
        for p in 0..64u64 {
            for &s in t.party_slots(PartyId(p)) {
                assert_eq!(t.slot_party(s), PartyId(p));
            }
        }
    }

    #[test]
    fn node_ranges_are_contiguous_and_nested() {
        let t = tree(256, 2);
        let h = t.height();
        // Root covers everything.
        assert_eq!(t.node_range(h - 1, 0), 0..t.params().total_slots() as u64);
        // Children partition parents.
        for level in 1..h {
            for node in 0..t.nodes_at_level(level) {
                let parent_range = t.node_range(level, node);
                let mut cursor = parent_range.start;
                for child in t.children(level, node) {
                    let cr = t.node_range(level - 1, child);
                    assert_eq!(cr.start, cursor, "gap at level {level} node {node}");
                    cursor = cr.end;
                }
                assert_eq!(cursor, parent_range.end);
            }
        }
    }

    #[test]
    fn parent_child_inverse() {
        let t = tree(256, 1);
        for level in 1..t.height() {
            for node in 0..t.nodes_at_level(level) {
                for child in t.children(level, node) {
                    assert_eq!(t.parent(level - 1, child), node);
                }
            }
        }
    }

    #[test]
    fn leaf_committees_match_slots() {
        let random = tree(128, 2);
        let identity = Tree::build_identity(&TreeParams::for_slots(128), b"test-seed");
        let mut rotated = random.slot_party.clone();
        rotated.rotate_left(1);
        let parts = Tree::from_parts(random.params(), random.committees.clone(), rotated);
        for t in [&random, &identity, &parts] {
            for leaf in 0..t.params().leaf_count {
                let committee = t.committee(0, leaf);
                let range = t.leaf_range(leaf);
                assert_eq!(committee.len(), t.params().leaf_slots);
                for (i, slot) in range.enumerate() {
                    assert_eq!(committee[i], t.slot_party(slot));
                }
            }
        }
    }

    #[test]
    fn leaf_takeover_targets_leaf_committee() {
        use pba_net::corruption::CorruptionPlan;
        let t = tree(128, 2);
        let leaf = 3;
        let plan = t.leaf_takeover(leaf, 4);
        let CorruptionPlan::Explicit(set) = &plan else {
            panic!("takeover plan must be explicit");
        };
        assert!(!set.is_empty());
        assert!(set.len() <= 4);
        let committee: std::collections::BTreeSet<PartyId> =
            t.committee(0, leaf).iter().copied().collect();
        assert!(
            set.iter().all(|p| committee.contains(p)),
            "takeover corrupted a party outside the leaf committee"
        );
        // Uncapped: every distinct committee member.
        let full = t.leaf_takeover(leaf, usize::MAX);
        let CorruptionPlan::Explicit(full_set) = &full else {
            panic!("takeover plan must be explicit");
        };
        assert_eq!(full_set, &committee);
    }

    #[test]
    fn internal_committees_have_distinct_members() {
        let t = tree(512, 1);
        for level in 1..t.height() {
            for node in 0..t.nodes_at_level(level) {
                let c = t.committee(level, node);
                let set: std::collections::HashSet<_> = c.iter().collect();
                assert_eq!(set.len(), c.len());
            }
        }
    }

    #[test]
    fn deterministic_build() {
        let p = TreeParams::scaled(64, 2);
        let a = Tree::build(&p, b"s");
        let b = Tree::build(&p, b"s");
        assert_eq!(a.root_committee(), b.root_committee());
        let c = Tree::build(&p, b"other");
        // Different seeds give different assignments (overwhelmingly).
        assert_ne!(
            (0..p.total_slots() as u64)
                .map(|s| a.slot_party(s))
                .collect::<Vec<_>>(),
            (0..p.total_slots() as u64)
                .map(|s| c.slot_party(s))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn party_leaves_dedup() {
        let t = tree(64, 4);
        for p in 0..64u64 {
            let leaves = t.party_leaves(PartyId(p));
            let mut sorted = leaves.clone();
            sorted.dedup();
            assert_eq!(leaves, sorted);
            assert!(!leaves.is_empty());
        }
    }

    #[test]
    fn from_parts_roundtrip() {
        let t = tree(64, 1);
        let rebuilt = Tree::from_parts(t.params(), t.committees.clone(), t.slot_party.clone());
        assert_eq!(rebuilt.root_committee(), t.root_committee());
    }

    #[test]
    #[should_panic(expected = "slot count mismatch")]
    fn from_parts_validates_slots() {
        let t = tree(64, 1);
        Tree::from_parts(t.params(), t.committees.clone(), vec![PartyId(0)]);
    }
}
