// The vendored proptest macro expands deeply for multi-assert blocks.
#![recursion_limit = "512"]
//! ISSUE 8 differential gate: the sparse [`MetricsTable`] is
//! observationally identical to the dense reference implementation
//! ([`DenseMetricsTable`], the pre-sparse table kept verbatim) — every
//! per-party counter, peer set, tag marginal, report, breakdown, and
//! conservation verdict — over (a) random charge sequences and (b) full
//! `π_ba` runs across the whole chaos catalogue with the in-session
//! dense shadow armed.

use pba_bench::chaos::default_cases;
use pba_core::protocol::{AdversaryProfile, BaConfig, KeyPolicy, Service};
use pba_net::metrics::DenseMetricsTable;
use pba_net::{MetricsTable, PartyId};
use pba_srds::snark::SnarkSrds;
use proptest::prelude::*;
use proptest::TestRng;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One metrics mutation, mirroring the table's full mutating surface.
#[derive(Clone, Debug)]
enum Op {
    Send {
        from: usize,
        to: usize,
        bytes: usize,
        tag: Option<u8>,
    },
    Receive {
        to: usize,
        from: usize,
        bytes: usize,
        tag: Option<u8>,
    },
    Synthetic {
        party: usize,
        bytes: u64,
        msgs: u64,
        tag: Option<u8>,
    },
    Link {
        from: usize,
        to: usize,
        bytes: u64,
        msgs: u64,
        tag: Option<u8>,
    },
    BumpRound,
}

/// One random op over `n` parties, drawn from a seeded [`TestRng`] (the
/// vendored proptest stand-in has no combinators, so the op shape is
/// expanded here instead of via `prop_oneof`).
fn random_op(rng: &mut TestRng, n: usize) -> Op {
    let n = n as u64;
    fn tag(rng: &mut TestRng) -> Option<u8> {
        if rng.below(2) == 0 {
            None
        } else {
            Some(rng.below(8) as u8)
        }
    }
    match rng.below(5) {
        0 => Op::Send {
            from: rng.below(n) as usize,
            to: rng.below(n) as usize,
            bytes: rng.below(4096) as usize,
            tag: tag(rng),
        },
        1 => Op::Receive {
            to: rng.below(n) as usize,
            from: rng.below(n) as usize,
            bytes: rng.below(4096) as usize,
            tag: tag(rng),
        },
        2 => Op::Synthetic {
            party: rng.below(n) as usize,
            bytes: rng.below(4096),
            msgs: rng.below(8),
            tag: tag(rng),
        },
        3 => Op::Link {
            from: rng.below(n) as usize,
            to: rng.below(n) as usize,
            bytes: rng.below(4096),
            msgs: rng.below(8),
            tag: tag(rng),
        },
        _ => Op::BumpRound,
    }
}

/// The parties an op touches (cells it may materialize).
fn touched(op: &Op) -> Vec<usize> {
    match *op {
        Op::Send { from, to, .. } | Op::Receive { to, from, .. } | Op::Link { from, to, .. } => {
            vec![from, to]
        }
        Op::Synthetic { party, .. } => vec![party],
        Op::BumpRound => vec![],
    }
}

fn apply_sparse(table: &mut MetricsTable, op: &Op) {
    match *op {
        Op::Send {
            from,
            to,
            bytes,
            tag,
        } => match tag {
            Some(t) => table.record_send_tagged(PartyId(from as u64), PartyId(to as u64), bytes, t),
            None => table.record_send(PartyId(from as u64), PartyId(to as u64), bytes),
        },
        Op::Receive {
            to,
            from,
            bytes,
            tag,
        } => match tag {
            Some(t) => {
                table.record_receive_tagged(PartyId(to as u64), PartyId(from as u64), bytes, t)
            }
            None => table.record_receive(PartyId(to as u64), PartyId(from as u64), bytes),
        },
        Op::Synthetic {
            party,
            bytes,
            msgs,
            tag,
        } => match tag {
            Some(t) => table.charge_synthetic_tagged(PartyId(party as u64), bytes, msgs, t),
            None => table.charge_synthetic(PartyId(party as u64), bytes, msgs),
        },
        Op::Link {
            from,
            to,
            bytes,
            msgs,
            tag,
        } => match tag {
            Some(t) => table.charge_synthetic_link_tagged(
                PartyId(from as u64),
                PartyId(to as u64),
                bytes,
                msgs,
                t,
            ),
            None => {
                table.charge_synthetic_link(PartyId(from as u64), PartyId(to as u64), bytes, msgs)
            }
        },
        Op::BumpRound => table.bump_round(),
    }
}

fn apply_dense(table: &mut DenseMetricsTable, op: &Op) {
    match *op {
        Op::Send {
            from,
            to,
            bytes,
            tag,
        } => match tag {
            Some(t) => table.record_send_tagged(PartyId(from as u64), PartyId(to as u64), bytes, t),
            None => table.record_send(PartyId(from as u64), PartyId(to as u64), bytes),
        },
        Op::Receive {
            to,
            from,
            bytes,
            tag,
        } => match tag {
            Some(t) => {
                table.record_receive_tagged(PartyId(to as u64), PartyId(from as u64), bytes, t)
            }
            None => table.record_receive(PartyId(to as u64), PartyId(from as u64), bytes),
        },
        Op::Synthetic {
            party,
            bytes,
            msgs,
            tag,
        } => match tag {
            Some(t) => table.charge_synthetic_tagged(PartyId(party as u64), bytes, msgs, t),
            None => table.charge_synthetic(PartyId(party as u64), bytes, msgs),
        },
        Op::Link {
            from,
            to,
            bytes,
            msgs,
            tag,
        } => match tag {
            Some(t) => table.charge_synthetic_link_tagged(
                PartyId(from as u64),
                PartyId(to as u64),
                bytes,
                msgs,
                t,
            ),
            None => {
                table.charge_synthetic_link(PartyId(from as u64), PartyId(to as u64), bytes, msgs)
            }
        },
        Op::BumpRound => table.bump_round(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The sparse table and an *independently maintained* dense reference
    /// agree on every observable after an arbitrary charge sequence —
    /// and the built-in shadow (which mirrors each mutation internally)
    /// reports no divergence either.
    #[test]
    fn sparse_matches_dense_on_random_charges(
        n in 2usize..48,
        ops_seed in any::<u64>(),
        len in 0usize..160,
    ) {
        let mut rng = TestRng::new(ops_seed, "metrics-ops", 0);
        let ops: Vec<Op> = (0..len).map(|_| random_op(&mut rng, n)).collect();
        let mut sparse = MetricsTable::new(n);
        sparse.enable_shadow();
        let mut dense = DenseMetricsTable::new(n);
        let mut touched_parties: BTreeSet<usize> = BTreeSet::new();
        for op in &ops {
            apply_sparse(&mut sparse, op);
            apply_dense(&mut dense, op);
            touched_parties.extend(touched(op));
        }

        // The built-in differential oracle.
        prop_assert_eq!(sparse.shadow_divergence(), None);

        // Independent comparison against the reference maintained here.
        prop_assert_eq!(sparse.len(), dense.len());
        prop_assert_eq!(sparse.rounds(), dense.rounds());
        for i in 0..n {
            let id = PartyId(i as u64);
            prop_assert_eq!(sparse.party(id), dense.party(id).clone(), "party {}", i);
        }
        prop_assert_eq!(sparse.report(), dense.report());
        let ids: Vec<PartyId> = (0..n as u64).map(PartyId).collect();
        prop_assert_eq!(
            sparse.report_for(ids.iter().copied()),
            dense.report_for(ids.iter().copied())
        );
        let evens = ids.iter().copied().filter(|p| p.0 % 2 == 0);
        prop_assert_eq!(
            sparse.breakdown_for(evens.clone()),
            dense.breakdown_for(evens)
        );
        prop_assert_eq!(sparse.tags_conserve_totals(), dense.tags_conserve_totals());

        // Sparsity: only charged parties materialize cells.
        prop_assert!(sparse.allocated_cells() <= touched_parties.len());
    }
}

/// Full `π_ba` runs over the whole chaos catalogue with the in-session
/// dense shadow armed: every mutation the protocol performs is mirrored
/// into the dense reference, and the tables must be indistinguishable at
/// the end — the ISSUE 8 acceptance gate.
#[test]
fn chaos_catalogue_runs_without_sparse_dense_divergence() {
    let mut checked = 0usize;
    for case in default_cases(b"chaos-ci") {
        let config = BaConfig {
            n: case.n,
            z: 2,
            corruption: case.plan.clone(),
            profile: AdversaryProfile::Byzantine,
            seed: case.seed.clone(),
            establishment: case.establishment,
            chaos: Some(case.spec.clone()),
            threads: 1,
            key_policy: KeyPolicy::Eager,
            dense_shadow: true,
        };
        let scheme = SnarkSrds::with_defaults();
        let inputs = vec![1u8; case.n];
        let run = catch_unwind(AssertUnwindSafe(|| {
            let mut session = match Service::try_establish(&scheme, &config) {
                Ok(session) => session,
                // Structured establishment failure (corruption bound,
                // timing): no session, nothing to diff.
                Err(_) => return None,
            };
            let committee_inputs = session.robust_committee_inputs(&inputs);
            // The round may fail structurally under chaos; the metrics
            // tables must agree either way.
            let _ = session.try_certified_round(&committee_inputs);
            Some(session.net.metrics().shadow_divergence())
        }));
        match run {
            Ok(Some(None)) => checked += 1,
            Ok(Some(Some(divergence))) => {
                panic!(
                    "case `{}`: sparse/dense divergence: {divergence}",
                    case.key()
                )
            }
            Ok(None) => {}
            // Honest-side panics are chaos_sweep's invariant to flag.
            Err(_) => {}
        }
    }
    assert!(
        checked >= 40,
        "only {checked} catalogue cases produced a shadowed session"
    );
}
