// The vendored proptest macro expands deeply for multi-assert blocks.
#![recursion_limit = "512"]
//! ISSUE 8 differential gate: the sparse [`MetricsTable`] is
//! observationally identical to the dense reference implementation
//! ([`DenseMetricsTable`], the pre-sparse table kept verbatim) — every
//! per-party counter, peer set, tag marginal, report, breakdown, and
//! conservation verdict — over (a) random charge sequences, the bulk
//! committee charges interleaved with the per-link ones they are defined
//! by, and (b) full `π_ba` runs across the whole chaos catalogue with the
//! in-session dense shadow armed. A golden test pins the reports of two
//! small runs to the values the per-link metering produced.

use pba_bench::chaos::default_cases;
use pba_core::protocol::{AdversaryProfile, BaConfig, KeyPolicy, Service};
use pba_net::metrics::DenseMetricsTable;
use pba_net::{MetricsTable, PartyId};
use pba_srds::owf::OwfSrds;
use pba_srds::snark::SnarkSrds;
use pba_srds::traits::Srds;
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
        tag: u8,
    },
    /// [`MetricsTable::charge_exchange`]; seats may repeat and overlap.
    Exchange {
        senders: Vec<usize>,
        receivers: Vec<usize>,
        bytes: usize,
        tag: u8,
        skip_self: bool,
    },
    /// [`MetricsTable::record_sends_tagged`].
    Sends {
        from: usize,
        to: Vec<usize>,
        bytes: usize,
        tag: u8,
    },
    BumpRound,
}

/// One random op over `n` parties, drawn from a seeded [`TestRng`] (the
/// vendored proptest stand-in has no combinators, so the op shape is
/// expanded here instead of via `prop_oneof`). `earlier` is the sequence
/// so far: one draw in seven replays an exchange from it.
fn random_op(rng: &mut TestRng, n: usize, earlier: &[Op]) -> Op {
    let n = n as u64;
    fn tag(rng: &mut TestRng) -> Option<u8> {
        if rng.below(2) == 0 {
            None
        } else {
            Some(rng.below(8) as u8)
        }
    }
    // Up to 48 seats drawn with replacement: duplicates, overlap between
    // the two sides, whole-table committees and empty slices all occur.
    fn seats(rng: &mut TestRng, n: u64) -> Vec<usize> {
        (0..rng.below(49)).map(|_| rng.below(n) as usize).collect()
    }
    match rng.below(7) {
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
            tag: rng.below(8) as u8,
        },
        3 => Op::Exchange {
            senders: seats(rng, n),
            receivers: seats(rng, n),
            bytes: rng.below(3) as usize * 100,
            tag: rng.below(8) as u8,
            skip_self: rng.below(2) == 0,
        },
        4 => Op::Sends {
            from: rng.below(n) as usize,
            to: seats(rng, n),
            bytes: rng.below(3) as usize * 100,
            tag: rng.below(8) as u8,
        },
        5 => replay(rng, earlier),
        _ => Op::BumpRound,
    }
}

/// An earlier [`Op::Exchange`] again — the same two sides, as they were or
/// mirrored, under a fresh size, tag and `skip_self`. Two random sides
/// almost never repeat by chance, and a repeat is what takes the table's
/// "this group is already referenced" branch; the protocol repeats every
/// committee exchange per step, tag and epoch. A round bump while the
/// sequence has no exchange yet.
fn replay(rng: &mut TestRng, earlier: &[Op]) -> Op {
    let exchanges: Vec<&Op> = earlier
        .iter()
        .filter(|op| matches!(op, Op::Exchange { .. }))
        .collect();
    if exchanges.is_empty() {
        return Op::BumpRound;
    }
    let Op::Exchange {
        senders, receivers, ..
    } = exchanges[rng.below(exchanges.len() as u64) as usize]
    else {
        unreachable!("filtered to exchanges")
    };
    let (senders, receivers) = if rng.below(2) == 0 {
        (senders.clone(), receivers.clone())
    } else {
        (receivers.clone(), senders.clone())
    };
    Op::Exchange {
        senders,
        receivers,
        bytes: rng.below(3) as usize * 100,
        tag: rng.below(8) as u8,
        skip_self: rng.below(2) == 0,
    }
}

fn ids(seats: &[usize]) -> Vec<PartyId> {
    seats.iter().map(|&p| PartyId(p as u64)).collect()
}

/// The parties an op touches (cells it may materialize).
fn touched(op: &Op) -> Vec<usize> {
    match op {
        &Op::Send { from, to, .. } | &Op::Receive { to, from, .. } => vec![from, to],
        &Op::Synthetic { party, .. } => vec![party],
        // An upper bound: seats with no link (k = 0) stay unmaterialized.
        Op::Exchange {
            senders, receivers, ..
        } => [senders.as_slice(), receivers].concat(),
        Op::Sends { from, to, .. } if !to.is_empty() => vec![*from],
        Op::Sends { .. } | Op::BumpRound => vec![],
    }
}

fn apply_sparse(table: &mut MetricsTable, op: &Op) {
    match *op {
        Op::Exchange {
            ref senders,
            ref receivers,
            bytes,
            tag,
            skip_self,
        } => {
            table.charge_exchange(&ids(senders), &ids(receivers), bytes, tag, skip_self);
        }
        Op::Sends {
            from,
            ref to,
            bytes,
            tag,
        } => table.record_sends_tagged(PartyId(from as u64), &ids(to), bytes, tag),
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
        } => table.charge_synthetic_tagged(PartyId(party as u64), bytes, msgs, tag),
        Op::BumpRound => table.bump_round(),
    }
}

fn apply_dense(table: &mut DenseMetricsTable, op: &Op) {
    match *op {
        // The bulk charges' definitions: the per-link expansion.
        Op::Exchange {
            ref senders,
            ref receivers,
            bytes,
            tag,
            skip_self,
        } => {
            for &s in &ids(senders) {
                for &r in &ids(receivers) {
                    if skip_self && r == s {
                        continue;
                    }
                    table.record_send_tagged(s, r, bytes, tag);
                    table.record_receive_tagged(r, s, bytes, tag);
                }
            }
        }
        Op::Sends {
            from,
            ref to,
            bytes,
            tag,
        } => {
            for &r in &ids(to) {
                table.record_send_tagged(PartyId(from as u64), r, bytes, tag);
            }
        }
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
        } => table.charge_synthetic_tagged(PartyId(party as u64), bytes, msgs, tag),
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
        let mut ops: Vec<Op> = Vec::with_capacity(len);
        for _ in 0..len {
            let op = random_op(&mut rng, n, &ops);
            ops.push(op);
        }
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

        // Sparsity: only charged parties materialize cells — exactly the
        // ones with a non-default row in the per-link reference.
        prop_assert!(sparse.allocated_cells() <= touched_parties.len());
        let charged = (0..n)
            .filter(|&i| *dense.party(PartyId(i as u64)) != Default::default())
            .count();
        prop_assert_eq!(sparse.allocated_cells(), charged);
    }
}

/// Everything a finished run reports about its communication, one line
/// per observable: [`Service::report`], [`Service::breakdown`] and
/// [`Service::steps`].
fn run_fingerprint<S>(scheme: &S, config: &BaConfig, inputs: &[u8]) -> Vec<String>
where
    S: Srds,
    S::Signature: pba_crypto::codec::Encode + pba_crypto::codec::Decode,
{
    let mut session = Service::try_establish(scheme, config).expect("establishes");
    let committee_inputs = session.robust_committee_inputs(inputs);
    session
        .try_certified_round(&committee_inputs)
        .expect("certified round");
    assert!(session.tags_conserve_totals());
    let breakdown = session.breakdown();
    let mut lines = vec![
        session.report().to_json(),
        format!("sent {:?}", breakdown.sent),
        format!("received {:?}", breakdown.received),
    ];
    lines.extend(
        session
            .steps()
            .iter()
            .map(|s| format!("{} {} {}", s.label, s.total_bytes, s.max_bytes_after)),
    );
    lines
}

/// The committee-granular metering is a pure re-expression of the
/// per-link charges: the reports of an honest SNARK run and a Byzantine
/// OWF run are pinned to the values the per-link loops produced (commit
/// 90f367a, the parent of the bulk primitive).
#[test]
fn golden_reports_match_per_link_metering() {
    let snark = run_fingerprint(
        &SnarkSrds::with_defaults(),
        &BaConfig::honest(128, b"golden-metering"),
        &[1u8; 128],
    );
    assert_eq!(snark, GOLDEN_SNARK_128, "snark n=128: {snark:#?}");
    let owf = run_fingerprint(
        &OwfSrds::with_defaults(),
        &BaConfig::byzantine(128, 12, b"golden-metering-byz"),
        &[0u8; 128],
    );
    assert_eq!(owf, GOLDEN_OWF_BYZ_128, "owf byzantine n=128: {owf:#?}");
}

const GOLDEN_SNARK_128: &[&str] = &[
    r#"{"parties":128,"max_bytes_per_party":2417218,"max_bytes_sent":1213690,"total_bytes":143691302,"total_msgs":98658,"max_msgs_per_party":3769,"max_locality":127,"rounds":72}"#,
    "sent {1: 24080, 2: 210700, 4: 147420, 6: 508200, 7: 1917300, 8: 8080640, 9: 130272807, 10: 1212420, 11: 446208, 12: 860160, 13: 11367}",
    "received {1: 24080, 2: 210700, 4: 147420, 6: 508200, 7: 1917300, 8: 8080640, 9: 130272807, 10: 1212420, 11: 446208, 13: 11367}",
    "1:ae-comm-establish 860160 6720",
    "2:committee-ba+coin 393567 44018",
    "3:disseminate-(y,s) 508200 62146",
    "4:sign-and-submit 8080640 188406",
    "5:tree-aggregation 131485227 2346492",
    "6:disseminate-certificate 1917300 2409572",
    "7-8:prf-spread+output 446208 2417218",
];

const GOLDEN_OWF_BYZ_128: &[&str] = &[
    r#"{"parties":116,"max_bytes_per_party":91391480,"max_bytes_sent":50736940,"total_bytes":2547988100,"total_msgs":88418,"max_msgs_per_party":3120,"max_locality":127,"rounds":72}"#,
    "sent {1: 24080, 2: 210700, 4: 147420, 6: 476168, 7: 1514993424, 8: 2087826, 9: 451374098, 10: 236863848, 11: 341020512, 12: 779520, 13: 10504}",
    "received {0: 94634592, 1: 24080, 2: 210700, 4: 147420, 6: 468468, 7: 1395860232, 8: 1900457, 9: 438650871, 10: 236863848, 11: 307142448, 13: 9833}",
    "1:ae-comm-establish 779520 6720",
    "2:committee-ba+coin 392704 43909",
    "3:disseminate-(y,s) 476168 57813",
    "4:sign-and-submit 2087826 124245",
    "5:tree-aggregation 688237946 29795000",
    "6:disseminate-certificate 1514993424 85791800",
    "7-8:prf-spread+output 341020512 91391480",
];

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
