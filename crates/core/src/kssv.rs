//! Interactive establishment of the almost-everywhere communication tree —
//! a simplified King–Saia–Sanwalani–Vee (SODA '06) committee election,
//! realizing the *establishment* half of `f_ae-comm` with real metered
//! messages instead of the analytically-charged cost model
//! ([`pba_aetree::fae::charge_establishment`]).
//!
//! Structure (a tournament of group elections):
//!
//! 1. parties are partitioned by index into groups of `polylog(n)` size;
//! 2. each group runs the robust committee coin toss
//!    ([`crate::vss_coin`]) and agrees on a group seed;
//! 3. the seed pseudorandomly elects half the group as *representatives*;
//! 4. representatives form the next round's population; repeat until one
//!    group remains, whose coin becomes the **master seed**;
//! 5. the tree (committees + slot assignment) is derived from the master
//!    seed — randomness fixed *after* corruption, by an interactive
//!    protocol, exactly the property the paper's model requires of
//!    `f_ae-comm` (and the reason tree randomness cannot live in the
//!    trusted setup; see §1.2's "trivialized settings" remark).
//!
//! **Fidelity note** (DESIGN.md §2, substitution 5): full KSSV runs in the
//! full-information model with averaging samplers and survives *adversarial*
//! group placement. This election is the standard simplified tournament:
//! under the benchmarked random-corruption model, honest-majority groups
//! keep every seed unpredictable-to-the-adversary and representative sets
//! near-proportional (validated by the tests below); the per-party cost is
//! `polylog(n)` as in KSSV \[48\].
//!
//! Round accounting caveat: groups at the same tournament level run in
//! parallel in the real protocol but sequentially through the simulator's
//! phase runner, so the network's `rounds` counter upper-bounds the true
//! (per-level-parallel) round count by a `#groups` factor. Byte and
//! message accounting are unaffected.

use crate::vss_coin::try_toss_coin_vss;
use pba_aetree::params::TreeParams;
use pba_aetree::tree::Tree;
use pba_crypto::prg::Prg;
use pba_crypto::sha256::{Digest, Sha256};
use pba_net::runner::{Adversary, PhaseOutcome};
use pba_net::{Network, PartyId};
use std::collections::BTreeSet;

/// Outcome of the interactive establishment.
#[derive(Clone, Debug)]
pub struct Election {
    /// The elected master seed.
    pub master_seed: Digest,
    /// The established tree.
    pub tree: Tree,
    /// Election rounds (tournament levels) executed.
    pub levels: usize,
}

/// Group size for the tournament (the paper's `polylog`; we reuse the
/// tree's committee size).
fn group_size(params: &TreeParams) -> usize {
    params.committee_size.max(4)
}

/// Partitions `population` into groups of at least `g` members (the last
/// group absorbs the remainder).
fn partition(population: &[PartyId], g: usize) -> Vec<Vec<PartyId>> {
    if population.len() <= 2 * g {
        return vec![population.to_vec()];
    }
    let mut groups: Vec<Vec<PartyId>> = population.chunks(g).map(|c| c.to_vec()).collect();
    if let Some(last) = groups.last() {
        if last.len() < g && groups.len() >= 2 {
            let tail = groups.pop().expect("nonempty");
            groups.last_mut().expect("nonempty").extend(tail);
        }
    }
    groups
}

/// Runs the tournament election over `net` and derives the tree.
///
/// The adversary participates through the committee-level coin tosses
/// (its corrupted members can misbehave there); representatives are then
/// determined by the group seeds. A group toss that cannot converge — a
/// dead transport, a phase budget blown by faults — surfaces as `Err`
/// with the failing phase's [`PhaseOutcome`] instead of a panic, so the
/// protocol layer can attribute it (e.g. to a recorded transport error).
///
/// # Errors
///
/// The [`PhaseOutcome`] of the first group toss that left a member
/// without a phase-king output.
pub fn try_establish_interactive(
    net: &mut Network,
    params: &TreeParams,
    adversary: &mut dyn Adversary,
    prg: &mut Prg,
) -> Result<Election, PhaseOutcome> {
    let corrupt: BTreeSet<PartyId> = adversary.corrupted().clone();
    let mut population: Vec<PartyId> = (0..params.n as u64).map(PartyId).collect();
    let g = group_size(params);
    let mut levels = 0usize;

    loop {
        levels += 1;
        let groups = partition(&population, g);
        let mut next_population: Vec<PartyId> = Vec::new();
        let mut level_acc = Sha256::new();
        level_acc.update(b"kssv-level");
        level_acc.update(&(levels as u64).to_le_bytes());

        for (gi, group) in groups.iter().enumerate() {
            // Fully corrupt groups cannot toss: their representatives are
            // adversarial regardless; elect the first half deterministically.
            let honest_in_group = group.iter().filter(|p| !corrupt.contains(p)).count();
            let seed = if honest_in_group == 0 {
                Sha256::digest(b"fully-corrupt-group")
            } else {
                let seeds = try_toss_coin_vss(
                    net,
                    group,
                    adversary,
                    &mut prg.child("kssv-group", (levels * 1_000_003 + gi) as u64),
                    1,
                )?;
                *seeds.values().next().expect("honest member decided")
            };
            level_acc.update(seed.as_bytes());

            if groups.len() == 1 {
                // Final group: its seed is the master seed.
                let master_seed = level_acc.finalize();
                let mut tree_seed = Vec::with_capacity(40);
                tree_seed.extend_from_slice(b"kssv-tree");
                tree_seed.extend_from_slice(master_seed.as_bytes());
                let tree = Tree::build(params, &tree_seed);
                return Ok(Election {
                    master_seed,
                    tree,
                    levels,
                });
            }

            // Elect half the group as representatives, by the group seed.
            let mut elect_prg = Prg::from_digest(&seed);
            let k = (group.len() / 2).max(1);
            let mut chosen: Vec<usize> = elect_prg
                .sample_distinct(group.len() as u64, k)
                .into_iter()
                .map(|v| v as usize)
                .collect();
            chosen.sort_unstable();
            next_population.extend(chosen.into_iter().map(|i| group[i]));
        }
        population = next_population;
        assert!(!population.is_empty(), "election population vanished");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_aetree::analysis::TreeAnalysis;
    use pba_net::corruption::CorruptionPlan;
    use pba_net::SilentAdversary;

    fn run(n: usize, t: usize, seed: &[u8]) -> (Election, Network, BTreeSet<PartyId>) {
        let params = TreeParams::scaled(n, 2);
        let mut prg = Prg::from_seed_label(seed, "kssv-test");
        let corrupt = CorruptionPlan::Random { t }.materialize(n, &mut prg);
        let mut adversary = SilentAdversary::new(corrupt.clone());
        let mut net = Network::new(n);
        let election = try_establish_interactive(&mut net, &params, &mut adversary, &mut prg)
            .expect("honest-majority election converges");
        (election, net, corrupt)
    }

    #[test]
    fn election_terminates_and_builds_valid_tree() {
        let (election, _, _) = run(256, 0, b"k1");
        assert!(election.levels >= 2);
        assert_eq!(election.tree.params().n, 256);
        let analysis = TreeAnalysis::analyze(&election.tree, &BTreeSet::new());
        assert!(analysis.root_good());
    }

    #[test]
    fn tree_guarantees_hold_under_random_corruption() {
        let (election, _, corrupt) = run(384, 38, b"k2");
        let analysis = TreeAnalysis::analyze(&election.tree, &corrupt);
        assert!(analysis.root_good(), "supreme committee corrupted");
        assert!(analysis.good_leaf_fraction() > 0.7);
    }

    #[test]
    fn per_party_cost_is_polylog_shaped() {
        // The per-party cost is dominated by the O(g^2)-bytes group
        // election a party attends (plus later levels for representatives):
        // it must stay essentially flat as n doubles, far from Θ(n) growth.
        let (_, net_small, _) = run(128, 12, b"k3a");
        let (_, net_large, _) = run(256, 25, b"k3b");
        let max_small = net_small.report().max_bytes_per_party.max(1);
        let max_large = net_large.report().max_bytes_per_party;
        assert!(
            max_large < 2 * max_small,
            "per-party cost doubled with n: {max_small} -> {max_large}"
        );
    }

    #[test]
    fn master_seed_depends_on_corruption_free_randomness() {
        let (e1, _, _) = run(128, 0, b"kA");
        let (e2, _, _) = run(128, 0, b"kB");
        assert_ne!(e1.master_seed, e2.master_seed);
    }

    #[test]
    fn master_seed_matches_the_berlekamp_welch_reconstruction() {
        // Values printed by the commit whose group tosses still decoded
        // with the Berlekamp–Welch search; the silent-corruption run has
        // groups whose words are short by their corrupt members.
        assert_eq!(
            run(128, 0, b"kA").0.master_seed.to_hex(),
            "f1ed5c5800ed886edb1151dff5549c59a989eb6bb3073f6ee033cf6c675da53b"
        );
        assert_eq!(
            run(128, 12, b"k3a").0.master_seed.to_hex(),
            "51f7b5d5bbe38897ac4bd262d141ac39d004ac2421d7c562a7254f0498dc4b20"
        );
    }

    #[test]
    fn representative_fraction_stays_proportional() {
        // Random corruption must not let corrupt parties dominate the
        // final population (here proxied by the supreme committee).
        let (election, _, corrupt) = run(300, 30, b"k4");
        let committee = election.tree.root_committee();
        let bad = committee.iter().filter(|p| corrupt.contains(p)).count();
        assert!(
            3 * bad < committee.len(),
            "{bad}/{} corrupt in supreme committee",
            committee.len()
        );
    }

    #[test]
    fn partition_shapes() {
        let pop: Vec<PartyId> = (0..100u64).map(PartyId).collect();
        let groups = partition(&pop, 24);
        assert!(groups.iter().all(|g| g.len() >= 24));
        let total: usize = groups.iter().map(|g| g.len()).sum();
        assert_eq!(total, 100);
        // Small populations collapse to one group.
        assert_eq!(partition(&pop[..30], 24).len(), 1);
    }
}
