// The vendored proptest macro expands deeply for multi-assert blocks.
#![recursion_limit = "512"]
//! The sparse [`MetricsTable`] is observationally identical to the dense
//! reference implementation ([`DenseMetricsTable`], the pre-sparse table
//! kept verbatim) — every per-party counter, peer set, tag marginal,
//! report, breakdown, and conservation verdict — over random charge
//! sequences, the bulk committee charges interleaved with the per-link
//! ones they are defined by — and over full `π_ba` runs across the whole
//! chaos catalogue with the dense shadow armed, the shadow variant of the
//! differential oracle (`support/differential.rs`). A golden test pins the
//! reports of two small runs to the values the per-link metering produced.

#[path = "support/differential.rs"]
mod differential;

use differential::{observe, Context, Variant};
use pba_bench::chaos::default_cases;
use pba_core::protocol::{BaConfig, Service};
use pba_net::metrics::DenseMetricsTable;
use pba_net::wire::tag::RAW;
use pba_net::{MetricsTable, PartyId};
use pba_srds::owf::OwfSrds;
use pba_srds::snark::SnarkSrds;
use pba_srds::traits::Srds;
use proptest::prelude::*;
use proptest::TestRng;
use std::collections::BTreeSet;

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
    /// [`MetricsTable::record_sends_tagged`]; targets may repeat.
    Sends {
        from: usize,
        to: Vec<usize>,
        bytes: usize,
        tag: u8,
    },
    /// [`MetricsTable::record_receives_tagged`]; senders may repeat.
    Receives {
        to: usize,
        from: Vec<usize>,
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
    // Seats of a bulk per-link call: one in sixteen is an id past `u32`,
    // which the table keeps apart from the `u32` peer ids.
    fn peers(rng: &mut TestRng, n: u64) -> Vec<usize> {
        let wide = |p: usize| (1usize << 32) + p % 3;
        let mut peers = seats(rng, n);
        for p in &mut peers {
            if rng.below(16) == 0 {
                *p = wide(*p);
            }
        }
        peers
    }
    match rng.below(8) {
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
            to: peers(rng, n),
            bytes: rng.below(3) as usize * 100,
            tag: rng.below(8) as u8,
        },
        5 => Op::Receives {
            to: rng.below(n) as usize,
            from: peers(rng, n),
            bytes: rng.below(3) as usize * 100,
            tag: rng.below(8) as u8,
        },
        6 => replay(rng, earlier),
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
        Op::Receives { to, from, .. } if !from.is_empty() => vec![*to],
        Op::Sends { .. } | Op::Receives { .. } | Op::BumpRound => vec![],
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
        Op::Receives {
            to,
            ref from,
            bytes,
            tag,
        } => table.record_receives_tagged(PartyId(to as u64), &ids(from), bytes, tag),
        Op::Send {
            from,
            to,
            bytes,
            tag,
        } => table.record_send_tagged(
            PartyId(from as u64),
            PartyId(to as u64),
            bytes,
            tag.unwrap_or(RAW),
        ),
        Op::Receive {
            to,
            from,
            bytes,
            tag,
        } => table.record_receive_tagged(
            PartyId(to as u64),
            PartyId(from as u64),
            bytes,
            tag.unwrap_or(RAW),
        ),
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
        Op::Receives {
            to,
            ref from,
            bytes,
            tag,
        } => {
            for &s in &ids(from) {
                table.record_receive_tagged(PartyId(to as u64), s, bytes, tag);
            }
        }
        Op::Send {
            from,
            to,
            bytes,
            tag,
        } => table.record_send_tagged(
            PartyId(from as u64),
            PartyId(to as u64),
            bytes,
            tag.unwrap_or(RAW),
        ),
        Op::Receive {
            to,
            from,
            bytes,
            tag,
        } => table.record_receive_tagged(
            PartyId(to as u64),
            PartyId(from as u64),
            bytes,
            tag.unwrap_or(RAW),
        ),
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
/// 90f367a, the parent of the bulk primitive), restated once where the
/// bytes were meant to move — by the PR 25 commit (digest-first
/// `f_aggr-sig`, child of 5cee048), which printed the rows below. It moved
/// only step 5's member exchange: tag 9 (`AGGR_SHARE`) shrank to the
/// `robust::ascend` copies, tag 18 (0x12, `AggrDigests`) is new, and the
/// byte totals, maxima and `max_after` of steps 5–8 follow; every message
/// count, locality, round and other tag is 5cee048's. Restated a second
/// time when `Tree::build` began dealing internal committee seats evenly
/// instead of sampling each committee: the SNARK maximum fell 408,088 →
/// 310,812 B with tags 1–8, 10–12 and 18 unchanged (tags 9 `AGGR_SHARE`
/// and 13 `FANIN` +0.19 % each: a party seated at both ends of a tree edge
/// does not charge itself, and the deal seats such pairs less often);
/// the Byzantine OWF maximum fell 81,712,128 → 50,575,500 B, and there the
/// corrupt members sit in other committees, so honest bytes move in every
/// step but establishment and signing. Restated a third time when base
/// signatures became Winternitz (W-OTS) one-time signatures instead of
/// Lamport ones and `MssSignature` stopped carrying the one-time key: only
/// tags that carry base signatures or OWF entries moved. SNARK: tag 8
/// `SIG_SUBMIT` 8,080,640 → 1,431,104 B and the maximum 310,812 → 205,152
/// (`max_bytes_sent` 159,534 → 106,704); every other tag, count, locality
/// and round identical. Byzantine OWF: tags 7 `CERTIFICATE`, 8, 9
/// `AGGR_SHARE`, 10 `AGGR_MPC`, 11 `SPREAD` and the received-only 0 `RAW`
/// (corrupt relays' step-6 garbage, sized like the certificate) fell
/// ×6.24–6.25, the maximum 50,575,500 → 8,125,092 B (`max_bytes_sent`
/// 26,318,142 → 4,230,167); tags 1, 2, 4, 6, 12, 13 and 18, message
/// counts, locality and rounds identical. Restated a fourth time when step
/// 5b became hash-first: each honest member sends one 50-byte
/// `AggrListHash` (tag 20, 0x14) to every other member of a node's
/// distinct committee, corrupt ones included, and no digest list (tag 18
/// is gone). SNARK: tag 18 2,498,220 → tag 20 501,000 B both ways, step
/// 5's total 5,088,709 → 3,091,489, `max_after` of steps 5–8 163,154 /
/// 196,354 / 205,152 → 130,334 / 163,534 / 172,332, the maximum 205,152 →
/// 172,332 (`max_bytes_sent` 106,704 → 90,294, `total_bytes` 10,645,270 →
/// 8,648,050); message counts unchanged (one hash per former list).
/// Byzantine OWF: tag 18 960,536 B both ways → tag 20 457,750 B sent and
/// 416,400 received (the honest → corrupt hashes are sent, not received,
/// by honest parties), step 5's total 71,515,183 → 71,012,397,
/// `max_after` of steps 5–8 2,642,607 / 7,144,792 / 8,125,092 →
/// 2,633,895 / 7,136,388 / 8,116,072, the maximum 8,125,092 → 8,116,072
/// (`max_bytes_sent` 4,230,167 → 4,226,165, `total_bytes` 365,416,571 →
/// 364,913,785); the only new messages are the 827 honest → corrupt
/// hashes (`total_msgs` 86,466 → 87,293, `max_msgs_per_party` 2,534 →
/// 2,539). Every other tag, locality and round is identical in both rows.
/// Restated a fifth time when the step 7–8 spread stopped charging a
/// holder that draws itself (`p ∈ F_s(p)`) a copy to itself: only tag 11
/// `SPREAD` and message counts moved. SNARK: tag 11 446,208 → 443,054 B
/// both ways (19 self-links of 166 B), step 7–8 446,208 → 443,054,
/// `total_bytes` 8,648,050 → 8,644,896, `total_msgs` 98,702 → 98,683.
/// Byzantine OWF: tag 11 sent 54,615,120 → 54,211,560 and received
/// 49,548,200 → 49,144,640 (18 self-links of 22,420 B), step 7–8
/// 54,615,120 → 54,211,560, `total_bytes` 364,913,785 → 364,510,225,
/// `total_msgs` 87,293 → 87,275. Maxima, locality and rounds identical.
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
    r#"{"parties":128,"max_bytes_per_party":172332,"max_bytes_sent":90294,"total_bytes":8644896,"total_msgs":98683,"max_msgs_per_party":2630,"max_locality":127,"rounds":72}"#,
    "sent {1: 24080, 2: 210700, 4: 147420, 6: 508200, 7: 1917300, 8: 1431104, 9: 1378069, 10: 1212420, 11: 443054, 12: 860160, 13: 11389, 20: 501000}",
    "received {1: 24080, 2: 210700, 4: 147420, 6: 508200, 7: 1917300, 8: 1431104, 9: 1378069, 10: 1212420, 11: 443054, 13: 11389, 20: 501000}",
    "1:ae-comm-establish 860160 6720",
    "2:committee-ba+coin 393589 43814",
    "3:disseminate-(y,s) 508200 52614",
    "4:sign-and-submit 1431104 75354",
    "5:tree-aggregation 3091489 130334",
    "6:disseminate-certificate 1917300 163534",
    "7-8:prf-spread+output 443054 172332",
];

const GOLDEN_OWF_BYZ_128: &[&str] = &[
    r#"{"parties":116,"max_bytes_per_party":8116072,"max_bytes_sent":4226165,"total_bytes":364510225,"total_msgs":87275,"max_msgs_per_party":2539,"max_locality":127,"rounds":72}"#,
    "sent {1: 22960, 2: 200900, 4: 134000, 6: 465784, 7: 237338120, 8: 334620, 9: 33849001, 10: 36705646, 11: 54211560, 12: 779520, 13: 10364, 20: 457750}",
    "received {0: 19460560, 1: 24212, 2: 190855, 4: 127300, 6: 462000, 7: 215949440, 8: 304590, 9: 31440189, 10: 36705646, 11: 49144640, 13: 9503, 20: 416400}",
    "1:ae-comm-establish 779520 6720",
    "2:committee-ba+coin 368224 42404",
    "3:disseminate-(y,s) 465784 51204",
    "4:sign-and-submit 334620 62670",
    "5:tree-aggregation 71012397 2633895",
    "6:disseminate-certificate 237338120 7136388",
    "7-8:prf-spread+output 54211560 8116072",
];

/// Full `π_ba` runs over the whole chaos catalogue with the dense shadow
/// armed right after establishment: every mutation the protocol performs
/// is mirrored into the dense reference, and the tables must be
/// indistinguishable at the end, whether the round delivered or failed
/// structurally. A failed establishment leaves nothing to diff; a panic is
/// `chaos_sweep`'s invariant to flag.
#[test]
fn chaos_catalogue_runs_without_sparse_dense_divergence() {
    let mut checked = 0usize;
    for case in default_cases(b"chaos-ci") {
        let shadowed = Variant::REFERENCE.with(|v| v.shadow = true);
        let run = observe(&Context::chaos(&case), shadowed).remove(0);
        match run.shadow {
            Some(None) => checked += 1,
            Some(Some(divergence)) => panic!(
                "case `{}`: sparse/dense divergence: {divergence}",
                case.key()
            ),
            None => {}
        }
    }
    assert!(
        checked >= 40,
        "only {checked} catalogue cases produced a shadowed session"
    );
}
