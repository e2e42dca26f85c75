//! Property tests for the adaptive post-setup adversary and the
//! byzantine-robust redundant-path aggregation.
//!
//! * Adaptive target selection is a pure function of the established tree
//!   and the PRG seed, and never exceeds its corruption budget.
//! * The robust ascent delivers the honest value whenever corrupted
//!   members are a strict minority of every committee, for arbitrary
//!   sizes, placements, and garbled adversarial copies.

use pba_aetree::analysis::adaptive_targets;
use pba_aetree::params::TreeParams;
use pba_aetree::robust::{ascend, dedup_committee, robust_input_fanin, strict_majority};
use pba_aetree::tree::Tree;
use pba_crypto::prg::Prg;
use pba_net::{Network, PartyId};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// True when `corrupt` is a strict minority of every committee's distinct
/// members — the tolerance bound of the robust ascent.
fn strict_minority_everywhere(tree: &Tree, corrupt: &BTreeSet<PartyId>) -> bool {
    (0..tree.height()).all(|level| {
        (0..tree.nodes_at_level(level)).all(|node| {
            let members = dedup_committee(tree.committee(level, node));
            let bad = members.iter().filter(|m| corrupt.contains(m)).count();
            2 * bad < members.len()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn adaptive_targets_deterministic_and_bounded(
        n in 32usize..160,
        z in 2usize..4,
        budget in 0usize..64,
        seed in any::<[u8; 8]>(),
    ) {
        let tree = Tree::build(&TreeParams::scaled(n, z), &seed);
        let a = adaptive_targets(&tree, budget, &mut Prg::from_seed_bytes(&seed));
        let b = adaptive_targets(&tree, budget, &mut Prg::from_seed_bytes(&seed));
        prop_assert_eq!(&a, &b, "adaptive targets not deterministic per seed");
        // The plan spends its budget exactly (capped by the party count)
        // and never names a party outside the run.
        prop_assert_eq!(a.len(), budget.min(n));
        prop_assert!(a.iter().all(|p| p.index() < n));
        // A different seed may pick different filler targets, but the
        // budget discipline is seed-independent.
        let mut other_seed = seed;
        other_seed[0] ^= 0xff;
        let c = adaptive_targets(&tree, budget, &mut Prg::from_seed_bytes(&other_seed));
        prop_assert_eq!(c.len(), budget.min(n));
    }

    #[test]
    fn ascent_delivers_honest_value_under_strict_minority(
        n in 48usize..128,
        t in 0usize..5,
        honest_value in any::<u64>(),
        garble in any::<u64>(),
        seed in any::<[u8; 8]>(),
    ) {
        let tree = Tree::build(&TreeParams::scaled(n, 2), &seed);
        let corrupt = CorruptionSample { n, t, seed }.materialize();
        prop_assume!(strict_minority_everywhere(&tree, &corrupt));

        let mut net = Network::new(n);
        let leaves = tree.nodes_at_level(0);
        // Corrupted members inject arbitrary garbage (or withhold when the
        // garbage collides with the honest value — the worst they can do).
        let evil = if garble == honest_value { None } else { Some(garble) };
        let out = ascend(
            &mut net,
            &tree,
            &corrupt,
            vec![Some(honest_value); leaves],
            |_level, _node, winners: &[Option<u64>]| strict_majority(winners),
            |_, _, _| evil,
            |_| 8,
            pba_net::wire::tag::FANIN,
        );
        prop_assert_eq!(out.root_value, Some(honest_value),
            "strict-minority corruption altered the root");
        let root_level = tree.height() - 1;
        prop_assert_eq!(out.honest_values[root_level][0], Some(honest_value));
    }

    #[test]
    fn input_fanin_delivers_unanimous_byte_under_strict_minority(
        n in 48usize..128,
        t in 0usize..5,
        input in any::<u8>(),
        evil in any::<u8>(),
        seed in any::<[u8; 8]>(),
    ) {
        let tree = Tree::build(&TreeParams::scaled(n, 2), &seed);
        let corrupt = CorruptionSample { n, t, seed }.materialize();
        prop_assume!(strict_minority_everywhere(&tree, &corrupt));

        let mut net = Network::new(n);
        let out = robust_input_fanin(&mut net, &tree, &corrupt, &vec![input; n], Some(evil));
        prop_assert_eq!(out.root_value, Some(input));
    }

    #[test]
    fn strict_majority_matches_specification(
        raw in proptest::collection::vec(0u8..8, 0..24),
    ) {
        // Values 0..4 are votes, 4..8 model silent members.
        let copies: Vec<Option<u8>> = raw
            .iter()
            .map(|&v| if v < 4 { Some(v) } else { None })
            .collect();
        let winner = strict_majority(&copies);
        match winner {
            Some(v) => {
                let count = copies.iter().filter(|c| **c == Some(v)).count();
                prop_assert!(2 * count > copies.len(),
                    "winner {v} lacks a strict majority");
            }
            None => {
                for v in 0u8..4 {
                    let count = copies.iter().filter(|c| **c == Some(v)).count();
                    prop_assert!(2 * count <= copies.len(),
                        "missed a strict-majority winner {v}");
                }
            }
        }
    }
}

/// A deterministic pseudorandom corruption sample used by the ascent
/// properties (kept outside the `proptest!` strategies so the rejection
/// filter sees the same set the test body uses).
struct CorruptionSample {
    n: usize,
    t: usize,
    seed: [u8; 8],
}

impl CorruptionSample {
    fn materialize(&self) -> BTreeSet<PartyId> {
        let mut prg = Prg::from_seed_label(&self.seed, "proptest-corrupt");
        let mut set = BTreeSet::new();
        while set.len() < self.t.min(self.n) {
            set.insert(PartyId(prg.gen_range(self.n as u64)));
        }
        set
    }
}
