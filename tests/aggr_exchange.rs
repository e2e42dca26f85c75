//! Step 5b of `f_aggr-sig` executed, not only charged. The `Machine` in
//! `tests/oracle/aggr_exchange.rs` runs the hash-first exchange through
//! `run_phase_threaded` at committee sizes 7–42, and:
//!
//! * on uniform runs — every honest member holding the same set, which is
//!   every call π_ba makes, with a silent corrupt minority — its
//!   per-(party, tag) bytes equal the closed form `charge_aggr_round`
//!   charges, honest → corrupt links included, and a mismatch names the
//!   first differing (party, tag);
//! * under a corrupt strict minority running the `pba_net::faults`
//!   adversaries, or attesting digests it never serves, or pushing bodies
//!   that match no digest, or sending a hash no honest list has, every
//!   honest output holds every signature all honest members held and only
//!   majority-attested ones, and no honest member sends more than the
//!   full-set exchange it replaced;
//! * a member whose hash mismatches draws lists and bodies on its own
//!   links only: the honest outputs and every honest → honest link are
//!   byte for byte those of the run where it stays silent.

#[path = "oracle/aggr_exchange.rs"]
mod aggr_exchange;

use aggr_exchange::AggrExchange;
use pba_core::aggr::{charge_aggr_round, AggrBody, AggrDigests, AggrListHash};
use pba_crypto::prg::Prg;
use pba_crypto::sha256::{Digest, Sha256};
use pba_net::faults::{GarbleMode, StrategySpec};
use pba_net::runner::{run_phase_threaded, AdvSender, Adversary, SilentAdversary};
use pba_net::wire::{self, tag};
use pba_net::{Envelope, Machine, Network, PartyId};
use proptest::prelude::*;
use rand::RngCore;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

const EPOCH: u64 = 5;
const NODE: u64 = 9;
/// The exchange's own tags; `AGGR_MPC` (the ideal functionality's output
/// phase) is charged beside them and not executed here.
const EXCHANGE_TAGS: [u8; 3] = [tag::AGGR_LIST_HASH, tag::AGGR_DIGESTS, tag::AGGR_BODY];

/// Per (party, tag, direction) bytes under [`EXCHANGE_TAGS`].
type TagBytes = BTreeMap<(PartyId, u8, &'static str), u64>;

fn tag_bytes(net: &Network) -> TagBytes {
    let mut out = TagBytes::new();
    for id in (0..net.len() as u64).map(PartyId) {
        let m = net.metrics().party(id);
        for (dir, by_tag) in [("sent", &m.sent_by_tag), ("received", &m.recv_by_tag)] {
            for t in EXCHANGE_TAGS {
                if let Some(&bytes) = by_tag.get(&t) {
                    out.insert((id, t, dir), bytes);
                }
            }
        }
    }
    out
}

/// The executed bytes: the network's rows, plus what honest members
/// addressed to each corrupted one (a corrupted party runs no machine, so
/// nothing reads, and the network charges no receipt for, its inbox).
fn executed_bytes(net: &Network, members: &BTreeMap<PartyId, AggrExchange>) -> TagBytes {
    let mut out = tag_bytes(net);
    for m in members.values() {
        for (&(to, t), &bytes) in m.sent() {
            if !members.contains_key(&to) {
                *out.entry((to, t, "received")).or_default() += bytes;
            }
        }
    }
    out
}

/// The first (party, tag, direction) whose bytes differ, named.
fn first_divergence(executed: &TagBytes, charged: &TagBytes) -> Option<String> {
    let keys: BTreeSet<_> = executed.keys().chain(charged.keys()).collect();
    keys.into_iter().find_map(|key| {
        let (a, b) = (executed.get(key), charged.get(key));
        (a != b).then(|| {
            let (party, t, dir) = key;
            format!("party {party} tag {t:#04x} {dir}: executed {a:?}, charged {b:?}")
        })
    })
}

/// `count` opaque signature encodings of 128–2047 bytes.
fn signatures(count: usize, prg: &mut Prg) -> Vec<Vec<u8>> {
    (0..count)
        .map(|_| {
            let mut sig = vec![0u8; 128 + prg.gen_range(1920) as usize];
            prg.fill_bytes(&mut sig);
            sig
        })
        .collect()
}

/// `c` distinct members of an `n`-party network, ascending.
fn committee(n: usize, c: usize, prg: &mut Prg) -> Vec<PartyId> {
    let mut ids: Vec<PartyId> = prg
        .sample_distinct(n as u64, c)
        .into_iter()
        .map(PartyId)
        .collect();
    ids.sort_unstable();
    ids
}

/// `bad` members of `committee`, drawn at random.
fn corrupt(committee: &[PartyId], bad: usize, prg: &mut Prg) -> BTreeSet<PartyId> {
    prg.sample_distinct(committee.len() as u64, bad)
        .into_iter()
        .map(|i| committee[i as usize])
        .collect()
}

/// Runs one exchange among the honest members of `holdings` against
/// `adversary`; returns the network and each honest member's machine.
fn execute(
    n: usize,
    committee: &[PartyId],
    holdings: &BTreeMap<PartyId, Vec<Vec<u8>>>,
    adversary: &mut dyn Adversary,
    threads: usize,
) -> (Network, BTreeMap<PartyId, AggrExchange>) {
    let mut net = Network::new(n);
    let mut members: BTreeMap<PartyId, AggrExchange> = holdings
        .iter()
        .map(|(&p, sigs)| {
            (
                p,
                AggrExchange::new(committee.to_vec(), p, EPOCH, NODE, sigs),
            )
        })
        .collect();
    let outcome = {
        let mut erased: BTreeMap<PartyId, Box<dyn Machine + Send + '_>> = members
            .iter_mut()
            .map(|(&id, m)| (id, Box::new(m) as Box<dyn Machine + Send + '_>))
            .collect();
        run_phase_threaded(&mut net, &mut erased, adversary, 5, threads)
    };
    assert!(outcome.completed, "exchange did not finish: {outcome:?}");
    (net, members)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every honest member holds the same `k` signatures and a corrupt
    /// minority stays silent: the executed exchange sends one list hash
    /// from each honest member to every other member and no list or body,
    /// byte for byte what `charge_aggr_round` charges — and the
    /// digest-first closed form it replaced, one digest list per honest
    /// member pair, is caught as a divergence.
    #[test]
    fn executed_exchange_matches_charged_closed_form(
        c in 7usize..=42,
        k in 0usize..=40,
        bad in 0usize..=20,
        threads in 1usize..=2,
        seed in any::<u64>(),
    ) {
        let mut prg = Prg::from_seed_bytes(&seed.to_le_bytes());
        let n = c + 3;
        let committee = committee(n, c, &mut prg);
        let corrupted = corrupt(&committee, bad.min((c - 1) / 2), &mut prg);
        let honest: Vec<PartyId> =
            committee.iter().copied().filter(|p| !corrupted.contains(p)).collect();
        let sigs = signatures(k, &mut prg);
        let holdings = honest.iter().map(|&p| (p, sigs.clone())).collect();
        let mut silent = SilentAdversary::new(corrupted.iter().copied());
        let (net, members) = execute(n, &committee, &holdings, &mut silent, threads);
        for (p, m) in &members {
            prop_assert_eq!(m.output().map(|o| o.len()), Some(k), "member {}", p);
            prop_assert_eq!(m.matched().len(), honest.len() - 1, "member {}", p);
        }

        let executed = executed_bytes(&net, &members);
        let mut charged = Network::new(n);
        charge_aggr_round(&mut charged, &committee, &honest, 0);
        let divergence = first_divergence(&executed, &tag_bytes(&charged));
        prop_assert!(divergence.is_none(), "{}", divergence.unwrap_or_default());

        let list = AggrDigests { epoch: EPOCH, node: NODE, digests: vec![Digest::ZERO; k] };
        let mut digest_first = Network::new(n);
        digest_first.metrics_mut().charge_exchange(
            &honest,
            &honest,
            wire::encoded_msg_len(&list),
            tag::AGGR_DIGESTS,
            true,
        );
        prop_assert!(first_divergence(&executed, &tag_bytes(&digest_first)).is_some());
    }
}

/// Corrupted members `liars` send `hash` to every honest member in round
/// 0, `list` in round 1 and each of `push` in round 2; the other
/// corrupted members stay silent.
struct Liar {
    corrupted: BTreeSet<PartyId>,
    liars: BTreeSet<PartyId>,
    honest: Vec<PartyId>,
    hash: Digest,
    list: Vec<Digest>,
    push: Vec<Vec<u8>>,
}

impl Adversary for Liar {
    fn corrupted(&self) -> &BTreeSet<PartyId> {
        &self.corrupted
    }

    fn on_round(
        &mut self,
        round: u64,
        _rushed: &BTreeMap<PartyId, Vec<Envelope>>,
        sender: &mut AdvSender<'_>,
    ) {
        for &bad in &self.liars {
            for &to in &self.honest {
                match round {
                    0 => sender.send_msg(
                        bad,
                        to,
                        &AggrListHash {
                            epoch: EPOCH,
                            node: NODE,
                            hash: self.hash,
                        },
                    ),
                    1 => sender.send_msg(
                        bad,
                        to,
                        &AggrDigests {
                            epoch: EPOCH,
                            node: NODE,
                            digests: self.list.clone(),
                        },
                    ),
                    2 => {
                        for sig in &self.push {
                            let body = AggrBody {
                                epoch: EPOCH,
                                node: NODE,
                                sig: sig.clone(),
                            };
                            sender.send_msg(bad, to, &body);
                        }
                    }
                    _ => {}
                }
            }
        }
    }
}

/// The adversaries a faulty run is checked against, by label, and whether
/// each is a hash mismatcher: the `pba_net::faults` strategies; two liars
/// of the hash-first exchange — one attests every signature some honest
/// member holds (lifting minority-held ones toward the quorum) plus a
/// digest of nothing and serves no body, the other also pushes every
/// signature with one byte flipped (the right length, the wrong hash);
/// then one corrupted member sending a hash no honest list has, with an
/// empty list or a list of digests of nothing behind it, while the rest
/// stay silent.
fn adversaries(
    corrupted: &BTreeSet<PartyId>,
    honest: &[PartyId],
    universe: &[Vec<u8>],
    n: usize,
    prg: &mut Prg,
) -> Vec<(String, bool, Box<dyn Adversary>)> {
    use StrategySpec::*;
    let specs = [
        Silent,
        Equivocate,
        EquivocateTyped,
        Garble(GarbleMode::BitFlip),
        Garble(GarbleMode::Truncate),
        Garble(GarbleMode::Both),
        Garble(GarbleMode::Field),
        Replay { per_round: 3 },
        Flood {
            victim: None,
            payload_len: 512,
            per_round: 8,
        },
    ];
    let mut out: Vec<(String, bool, Box<dyn Adversary>)> = specs
        .iter()
        .map(|spec| {
            let adv = spec.build(corrupted.clone(), n, &prg.child("adversary", 0));
            (spec.label(), false, adv)
        })
        .collect();
    let mut fake = || {
        let mut bytes = [0u8; 32];
        prg.fill_bytes(&mut bytes);
        Digest(bytes)
    };
    let mut attest: Vec<Digest> = universe.iter().map(|s| Sha256::digest(s)).collect();
    attest.push(fake());
    attest.sort_unstable();
    let forged = universe
        .iter()
        .map(|s| {
            let mut forged = s.clone();
            forged[0] ^= 1;
            forged
        })
        .collect();
    let liar = |liars: BTreeSet<PartyId>, hash, list, push| Liar {
        corrupted: corrupted.clone(),
        liars,
        honest: honest.to_vec(),
        hash,
        list,
        push,
    };
    let attest_hash = AggrListHash::new(EPOCH, NODE, &attest).hash;
    for (label, push) in [
        ("attest-never-serve", Vec::new()),
        ("push-mismatched-body", forged),
    ] {
        let adv = liar(corrupted.clone(), attest_hash, attest.clone(), push);
        out.push((label.to_string(), false, Box::new(adv)));
    }
    let first: BTreeSet<PartyId> = corrupted.iter().take(1).copied().collect();
    let mut nothing = vec![fake(), fake()];
    nothing.sort_unstable();
    for (label, list) in [
        ("mismatched-hash-empty-list", Vec::new()),
        ("mismatched-hash-forged-list", nothing),
    ] {
        let adv = liar(first.clone(), fake(), list, Vec::new());
        out.push((label.to_string(), true, Box::new(adv)));
    }
    out
}

/// What honest members sent each other, by (sender, addressee, tag).
fn honest_links(
    members: &BTreeMap<PartyId, AggrExchange>,
) -> BTreeMap<(PartyId, PartyId, u8), u64> {
    members
        .iter()
        .flat_map(|(&from, m)| {
            m.sent()
                .iter()
                .filter(|((to, _), _)| members.contains_key(to))
                .map(move |(&(to, t), &bytes)| ((from, to, t), bytes))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A corrupt strict minority, every adversary: honest outputs contain
    /// every signature all honest members held, contain only signatures a
    /// strict majority attested, and no honest member sends more than the
    /// `(|C| − 1) · Σ signature_len` of the full-set exchange. Against a
    /// hash mismatcher the honest outputs and honest → honest links equal
    /// the silent run's, and lists and bodies go to corrupted members only
    /// on the mismatcher's links, one list from each honest member.
    #[test]
    fn faulty_exchange_keeps_the_honest_set_and_only_the_majority(
        c in 7usize..=42,
        common in 1usize..=12,
        extra in 0usize..=12,
        seed in any::<u64>(),
    ) {
        let mut prg = Prg::from_seed_bytes(&seed.to_le_bytes());
        let n = c + 3;
        let committee = committee(n, c, &mut prg);
        let bad_count = 1 + prg.gen_range(((c - 1) / 2) as u64) as usize;
        let corrupted = corrupt(&committee, bad_count, &mut prg);
        let honest: Vec<PartyId> =
            committee.iter().copied().filter(|p| !corrupted.contains(p)).collect();
        // Every honest member holds the common set; each extra signature
        // is held by a random subset of them.
        let shared = signatures(common, &mut prg);
        let extras = signatures(extra, &mut prg);
        let mut holdings: BTreeMap<PartyId, Vec<Vec<u8>>> =
            honest.iter().map(|&p| (p, shared.clone())).collect();
        for sig in &extras {
            let holders = 1 + prg.gen_range(honest.len() as u64) as usize;
            for i in prg.sample_distinct(honest.len() as u64, holders) {
                holdings.get_mut(&honest[i as usize]).expect("honest").push(sig.clone());
            }
        }
        let universe: Vec<Vec<u8>> = shared.iter().chain(&extras).cloned().collect();
        let held_by = |sig: &[u8]| holdings.values().filter(|h| h.iter().any(|s| s == sig)).count();
        let everyone: BTreeSet<Digest> = universe
            .iter()
            .filter(|s| held_by(s) == honest.len())
            .map(|s| Sha256::digest(s))
            .collect();
        // A digest on a strict majority of lists has at least this many
        // honest attesters, and an honest attester holds the signature.
        let min_honest = (c / 2 + 1).saturating_sub(bad_count).max(1);
        let mismatcher = *corrupted.first().expect("a corrupted member");
        let mut silent = SilentAdversary::new(corrupted.iter().copied());
        let (_, quiet) = execute(n, &committee, &holdings, &mut silent, 1);

        for (label, mismatches, mut adv) in adversaries(&corrupted, &honest, &universe, n, &mut prg) {
            let run = catch_unwind(AssertUnwindSafe(|| {
                execute(n, &committee, &holdings, adv.as_mut(), 1)
            }));
            let Ok((net, members)) = run else {
                panic!("{label}: an honest member panicked (c = {c}, t = {bad_count})");
            };
            for (p, m) in &members {
                let out = m.output().expect("done");
                for d in &everyone {
                    prop_assert!(out.contains_key(d), "{}: {} lost a signature every honest member held", label, p);
                }
                for (d, sig) in &out {
                    prop_assert!(m.attested().contains(d), "{}: {} output an unattested digest", label, p);
                    prop_assert_eq!(Sha256::digest(sig), *d, "{}: {} kept a body under the wrong digest", label, p);
                    prop_assert!(held_by(sig) >= min_honest, "{}: {} output a signature only {} honest members held", label, p, held_by(sig));
                }
                let metered = net.metrics().party(*p);
                let sent: u64 = EXCHANGE_TAGS.iter().filter_map(|t| metered.sent_by_tag.get(t)).sum();
                let full_set: usize = holdings[p].iter().map(Vec::len).sum();
                prop_assert!(
                    sent <= ((c - 1) * full_set) as u64,
                    "{}: {} sent {} B, the full-set exchange {} B", label, p, sent, (c - 1) * full_set
                );
            }
            if !mismatches {
                continue;
            }
            for (p, m) in &members {
                prop_assert_eq!(m.output(), quiet[p].output(), "{}: {}'s output moved", label, p);
                let forced: Vec<_> = m
                    .sent()
                    .iter()
                    .filter(|((to, t), _)| corrupted.contains(to) && *t != tag::AGGR_LIST_HASH)
                    .collect();
                for ((to, t), _) in &forced {
                    prop_assert_eq!(*to, mismatcher, "{}: {} sent tag {:#04x} to a silent member", label, p, t);
                }
                let list = AggrDigests { epoch: EPOCH, node: NODE, digests: holdings[p].iter().map(|s| Sha256::digest(s)).collect() };
                prop_assert_eq!(
                    m.sent().get(&(mismatcher, tag::AGGR_DIGESTS)).copied(),
                    Some(wire::encoded_msg_len(&list) as u64),
                    "{}: {} did not send the mismatcher its list", label, p
                );
            }
            prop_assert_eq!(honest_links(&members), honest_links(&quiet), "{}: honest links moved", label);
        }
    }
}
