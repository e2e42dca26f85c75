//! Property-based tests over the almost-everywhere communication tree:
//! the structural invariants of Definitions 2.3 and 3.4 must hold for any
//! size, membership multiplicity, seed, and corruption set.

use pba_aetree::analysis::TreeAnalysis;
use pba_aetree::params::TreeParams;
use pba_aetree::tree::Tree;
use pba_crypto::prg::Prg;
use pba_net::corruption::CorruptionPlan;
use pba_net::PartyId;
use proptest::prelude::*;
use std::collections::BTreeSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn structural_invariants(n in 8usize..600, z in 1usize..4, seed in any::<[u8; 8]>()) {
        let params = TreeParams::scaled(n, z);
        prop_assert!(params.validate().is_ok());
        let tree = Tree::build(&params, &seed);

        // Every party occupies at least z slots; slots partition exactly.
        let mut total = 0usize;
        for p in 0..n as u64 {
            let slots = tree.party_slots(PartyId(p));
            prop_assert!(slots.len() >= z);
            total += slots.len();
        }
        prop_assert_eq!(total, params.total_slots());

        // Children ranges partition parents (planar contiguous IDs).
        for level in 1..tree.height() {
            for node in 0..tree.nodes_at_level(level) {
                let parent_range = tree.node_range(level, node);
                let mut cursor = parent_range.start;
                for child in tree.children(level, node) {
                    let cr = tree.node_range(level - 1, child);
                    prop_assert_eq!(cr.start, cursor);
                    cursor = cr.end;
                }
                prop_assert_eq!(cursor, parent_range.end);
            }
        }

        // Leaf committees are exactly the slot owners.
        for leaf in 0..params.leaf_count {
            let committee = tree.committee(0, leaf);
            prop_assert_eq!(committee.len(), params.leaf_slots);
            for (i, slot) in tree.leaf_range(leaf).enumerate() {
                prop_assert_eq!(committee[i], tree.slot_party(slot));
            }
        }
    }

    #[test]
    fn analysis_consistency(
        n in 30usize..400,
        z in 1usize..4,
        beta_pct in 0usize..25,
        seed in any::<[u8; 8]>(),
    ) {
        let params = TreeParams::scaled(n, z);
        let tree = Tree::build(&params, &seed);
        let t = n * beta_pct / 100;
        let mut prg = Prg::from_seed_bytes(&seed);
        let corrupt = CorruptionPlan::Random { t }.materialize(n, &mut prg);
        let analysis = TreeAnalysis::analyze(&tree, &corrupt);

        // Goodness is monotone: no corruption => all good.
        if corrupt.is_empty() {
            prop_assert!(analysis.root_good());
            prop_assert_eq!(analysis.good_leaf_fraction(), 1.0);
            prop_assert!(analysis.isolated().is_empty());
        }
        // Def. 2.3 after a light random corruption (0 of 40,000 dealt trees
        // over this range of n and z fail it at β = 5 %).
        if beta_pct <= 5 {
            prop_assert!(analysis.check_ae_guarantees(0.5).is_ok());
        }

        // A leaf with a good path must itself be good and have a good root.
        for leaf in 0..params.leaf_count {
            if analysis.leaf_has_good_path(leaf) {
                prop_assert!(analysis.is_good(0, leaf));
                prop_assert!(analysis.root_good());
            }
        }

        // Isolated parties: every non-isolated honest party has a strict
        // majority of good-path leaf memberships.
        for p in 0..n as u64 {
            let party = PartyId(p);
            if corrupt.contains(&party) || analysis.isolated().contains(&party) {
                continue;
            }
            let slots = tree.party_slots(party);
            let good = slots
                .iter()
                .filter(|&&s| analysis.leaf_has_good_path(tree.slot_leaf(s)))
                .count();
            prop_assert!(2 * good > slots.len());
        }
    }

    #[test]
    fn corrupting_more_never_helps(n in 60usize..300, seed in any::<[u8; 8]>()) {
        // Good-leaf fraction is monotone non-increasing in the corrupt set.
        let params = TreeParams::scaled(n, 2);
        let tree = Tree::build(&params, &seed);
        let mut prg = Prg::from_seed_bytes(&seed);
        let small = CorruptionPlan::Random { t: n / 20 }.materialize(n, &mut prg);
        let mut big: BTreeSet<PartyId> = small.clone();
        for extra in (CorruptionPlan::Random { t: n / 10 }).materialize(n, &mut prg) {
            big.insert(extra);
        }
        let a_small = TreeAnalysis::analyze(&tree, &small);
        let a_big = TreeAnalysis::analyze(&tree, &big);
        prop_assert!(a_small.check_ae_guarantees(0.5).is_ok());
        prop_assert!(a_big.good_leaf_fraction() <= a_small.good_leaf_fraction());
        prop_assert!(a_small.isolated().iter().filter(|p| !big.contains(p)).all(|p| a_big.isolated().contains(p)));
    }

    #[test]
    fn identity_layout_matches_for_slots(n in 16usize..400, seed in any::<[u8; 8]>()) {
        let params = TreeParams::for_slots(n);
        let tree = Tree::build_identity(&params, &seed);
        for s in 0..params.total_slots() as u64 {
            prop_assert_eq!(tree.slot_party(s), PartyId(s));
        }
    }

    #[test]
    fn paper_exact_structure_holds(n in 8usize..80) {
        let params = TreeParams::paper_exact(n);
        prop_assert!(params.validate().is_ok());
        prop_assert!(params.total_slots() >= n * params.z);
    }

    #[test]
    fn internal_seats_are_dealt_evenly(
        n in 4usize..600,
        z in 1usize..4,
        paper in any::<bool>(),
        seed in any::<[u8; 8]>(),
    ) {
        // `scaled` up to n = 12 and `paper_exact` at every size here give
        // committee_size ≥ n: every internal committee is everyone.
        let params = if paper { TreeParams::paper_exact(n.min(80)) } else { TreeParams::scaled(n, z) };
        let tree = Tree::build(&params, &seed);
        let again = Tree::build(&params, &seed);
        let mut seats = vec![0usize; params.n];
        for level in 1..tree.height() {
            for node in 0..tree.nodes_at_level(level) {
                let committee = tree.committee(level, node);
                prop_assert_eq!(committee, again.committee(level, node));
                prop_assert_eq!(committee.len(), params.committee_size.min(params.n));
                let distinct: BTreeSet<_> = committee.iter().collect();
                prop_assert_eq!(distinct.len(), committee.len());
                for p in committee {
                    seats[p.index()] += 1;
                }
            }
        }
        let (min, max) = (seats.iter().min().unwrap(), seats.iter().max().unwrap());
        prop_assert!(max - min <= 1, "{:?}", seats);
    }
}
