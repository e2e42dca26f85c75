//! Step 5b of `f_aggr-sig` executed, not only charged. The `Machine` in
//! `tests/oracle/aggr_exchange.rs` runs the digest-first exchange through
//! `run_phase_threaded` at committee sizes 7–42, and:
//!
//! * on fault-free uniform runs — every member holding the same set, which
//!   is every call π_ba makes — its per-(party, tag) bytes equal the
//!   closed form `charge_aggr_round` charges, and a mismatch names the
//!   first differing (party, tag);
//! * under a corrupt strict minority running the `pba_net::faults`
//!   adversaries, or attesting digests it never serves, or pushing bodies
//!   that match no digest, every honest output holds every signature all
//!   honest members held and only majority-attested ones, and no honest
//!   member sends more than the full-set exchange it replaced.

#[path = "oracle/aggr_exchange.rs"]
mod aggr_exchange;

use aggr_exchange::AggrExchange;
use pba_core::aggr::{charge_aggr_round, AggrBody, AggrDigests};
use pba_crypto::prg::Prg;
use pba_crypto::sha256::{Digest, Sha256};
use pba_net::faults::{GarbleMode, StrategySpec};
use pba_net::runner::{run_phase_threaded, AdvSender, Adversary, SilentAdversary};
use pba_net::wire::tag;
use pba_net::{Envelope, Machine, Network, PartyId};
use proptest::prelude::*;
use rand::RngCore;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

const EPOCH: u64 = 5;
const NODE: u64 = 9;
/// The exchange's own tags; `AGGR_MPC` (the ideal functionality's output
/// phase) is charged beside them and not executed here.
const EXCHANGE_TAGS: [u8; 2] = [tag::AGGR_DIGESTS, tag::AGGR_BODY];

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
        run_phase_threaded(&mut net, &mut erased, adversary, 4, threads)
    };
    assert!(outcome.completed, "exchange did not finish: {outcome:?}");
    (net, members)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every member holds the same `k` signatures: the executed exchange
    /// sends one digest list per member pair and no body, byte for byte
    /// what `charge_aggr_round` charges — and the `Σ signature_len` form
    /// it replaced is caught as a divergence.
    #[test]
    fn executed_exchange_matches_charged_closed_form(
        c in 7usize..=42,
        k in 0usize..=40,
        threads in 1usize..=2,
        seed in any::<u64>(),
    ) {
        let mut prg = Prg::from_seed_bytes(&seed.to_le_bytes());
        let n = c + 3;
        let committee = committee(n, c, &mut prg);
        let sigs = signatures(k, &mut prg);
        let holdings = committee.iter().map(|&p| (p, sigs.clone())).collect();
        let (net, members) =
            execute(n, &committee, &holdings, &mut SilentAdversary::default(), threads);
        for (p, m) in &members {
            prop_assert_eq!(m.output().map(|o| o.len()), Some(k), "member {}", p);
        }

        let executed = tag_bytes(&net);
        let mut charged = Network::new(n);
        charge_aggr_round(&mut charged, &committee, k, 0);
        let divergence = first_divergence(&executed, &tag_bytes(&charged));
        prop_assert!(divergence.is_none(), "{}", divergence.unwrap_or_default());

        if k > 0 {
            let full_set: usize = sigs.iter().map(Vec::len).sum();
            let mut old = Network::new(n);
            old.metrics_mut()
                .charge_exchange(&committee, &committee, full_set, tag::AGGR_DIGESTS, true);
            prop_assert!(first_divergence(&executed, &tag_bytes(&old)).is_some());
        }
    }
}

/// Corrupted members attest `attest` to every honest member in round 0
/// and push `push` to every honest member in round 1.
struct Liar {
    corrupted: BTreeSet<PartyId>,
    honest: Vec<PartyId>,
    attest: Vec<Digest>,
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
        for &bad in &self.corrupted {
            for &to in &self.honest {
                match round {
                    0 => sender.send_msg(
                        bad,
                        to,
                        &AggrDigests {
                            epoch: EPOCH,
                            node: NODE,
                            digests: self.attest.clone(),
                        },
                    ),
                    1 => {
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

/// The adversaries a faulty run is checked against, by label: the
/// `pba_net::faults` strategies, then the two liars of the digest-first
/// exchange — one attests every signature some honest member holds
/// (lifting minority-held ones toward the quorum) plus a digest of nothing
/// and serves no body, the other also pushes every signature with one byte
/// flipped (the right length, the wrong hash).
fn adversaries(
    corrupted: &BTreeSet<PartyId>,
    honest: &[PartyId],
    universe: &[Vec<u8>],
    n: usize,
    prg: &mut Prg,
) -> Vec<(String, Box<dyn Adversary>)> {
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
    let mut out: Vec<(String, Box<dyn Adversary>)> = specs
        .iter()
        .map(|spec| {
            let adv = spec.build(corrupted.clone(), n, &prg.child("adversary", 0));
            (spec.label(), adv)
        })
        .collect();
    let mut fake = [0u8; 32];
    prg.fill_bytes(&mut fake);
    let mut attest: Vec<Digest> = universe.iter().map(|s| Sha256::digest(s)).collect();
    attest.push(Digest(fake));
    let forged = universe
        .iter()
        .map(|s| {
            let mut forged = s.clone();
            forged[0] ^= 1;
            forged
        })
        .collect();
    for (label, push) in [
        ("attest-never-serve", Vec::new()),
        ("push-mismatched-body", forged),
    ] {
        let liar = Liar {
            corrupted: corrupted.clone(),
            honest: honest.to_vec(),
            attest: attest.clone(),
            push,
        };
        out.push((label.to_string(), Box::new(liar)));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A corrupt strict minority, every adversary: honest outputs contain
    /// every signature all honest members held, contain only signatures a
    /// strict majority attested, and no honest member sends more than the
    /// `(|C| − 1) · Σ signature_len` of the full-set exchange.
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
        let corrupted: BTreeSet<PartyId> = prg
            .sample_distinct(c as u64, bad_count)
            .into_iter()
            .map(|i| committee[i as usize])
            .collect();
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

        for (label, mut adv) in adversaries(&corrupted, &honest, &universe, n, &mut prg) {
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
        }
    }
}
