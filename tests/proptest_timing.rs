//! Property tests for the timing-fault subsystem: seeded link delays are
//! pure functions of `(key, link, tick)`, partitions that heal within the
//! model's own slack never cost agreement, the delay queue conserves every
//! staged message (delivered, expired, or still in flight — never silently
//! lost), and the sequential and threaded round engines produce identical
//! delivery transcripts under every timing strategy in the catalogue.

use pba_core::phase_king::{rounds_for, PhaseKing};
use pba_crypto::prg::Prg;
use pba_crypto::sha256::Digest;
use pba_net::faults::{LatencyDist, StrategySpec, TimingModel};
use pba_net::runner::{run_phase, run_phase_threaded, SilentAdversary};
use pba_net::{Ctx, Envelope, Machine, Network, PartyId};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// A machine that broadcasts its round number to every peer for `quota`
/// rounds, then stops — enough traffic to exercise the delay queue from
/// every link each round.
struct Chatter {
    id: PartyId,
    n: u64,
    quota: u64,
    rounds: u64,
}

impl Machine for Chatter {
    fn on_round(&mut self, ctx: &mut Ctx<'_>, inbox: &[Envelope]) {
        for env in inbox {
            ctx.charge_receive(env);
        }
        let round = ctx.round();
        if round < self.quota {
            for to in (0..self.n).map(PartyId) {
                if to != self.id {
                    ctx.send(to, &round);
                }
            }
        }
        self.rounds += 1;
    }
    fn is_done(&self) -> bool {
        self.rounds >= self.quota
    }
}

fn phase_king_committee(
    c: usize,
    corrupted: &BTreeSet<PartyId>,
) -> BTreeMap<PartyId, PhaseKing<u8>> {
    let committee: Vec<PartyId> = (0..c as u64).map(PartyId).collect();
    committee
        .iter()
        .filter(|p| !corrupted.contains(p))
        .map(|&p| (p, PhaseKing::new(committee.clone(), p, (p.0 % 2) as u8)))
        .collect()
}

/// Engine selector for the transcript-equality property.
#[derive(Clone, Copy, Debug)]
enum Engine {
    Seq,
    Threaded(usize),
}

/// Runs a phase-king committee under `spec`'s timing model on a fresh
/// transcript-enabled network and returns (transcript, honest outputs).
/// The round engine reads the window and slack off the installed model.
fn run_committee_under(
    spec: &StrategySpec,
    c: usize,
    seed: &[u8],
    engine: Engine,
) -> (Vec<Digest>, BTreeMap<PartyId, u8>) {
    let corrupted = BTreeSet::new();
    let mut net = Network::new(c);
    net.enable_transcript();
    let prg = Prg::from_seed_bytes(seed);
    if let Some(model) = spec.timing_model(&corrupted, c, &prg) {
        net.set_timing(model);
    }
    let budget = rounds_for(c) as u64 + 6;
    let mut adversary = SilentAdversary::new(corrupted.clone());
    let mut machines = phase_king_committee(c, &corrupted);
    {
        let mut erased: BTreeMap<PartyId, Box<dyn Machine + Send + '_>> = machines
            .iter_mut()
            .map(|(&id, m)| (id, Box::new(m) as Box<dyn Machine + Send + '_>))
            .collect();
        match engine {
            Engine::Seq => {
                run_phase(&mut net, &mut erased, &mut adversary, budget);
            }
            Engine::Threaded(threads) => {
                run_phase_threaded(&mut net, &mut erased, &mut adversary, budget, threads);
            }
        }
    }
    let transcript = net.transcript().expect("transcript enabled").to_vec();
    let outputs = machines
        .iter()
        .filter_map(|(&id, m)| m.output().map(|&v| (id, v)))
        .collect();
    (transcript, outputs)
}

/// The timing strategies of the built-in catalogue.
fn timing_catalogue() -> Vec<StrategySpec> {
    StrategySpec::catalogue()
        .into_iter()
        .filter(|s| {
            let l = s.label();
            l.contains("delay") || l.contains("partition") || l.contains("churn")
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn delay_schedules_are_pure_and_seed_deterministic(
        key in any::<[u8; 32]>(),
        other_key in any::<[u8; 32]>(),
        max in 1u64..4,
    ) {
        let dist = LatencyDist::Uniform { max };
        let model = TimingModel::new(key, Some((dist, 1)), None, vec![]);
        let again = TimingModel::new(key, Some((dist, 1)), None, vec![]);
        let sibling = TimingModel::new(other_key, Some((dist, 1)), None, vec![]);
        let mut differs = false;
        for from in (0..8u64).map(PartyId) {
            for to in (0..8u64).map(PartyId) {
                for tick in 0..4u64 {
                    let d = model.delay(from, to, tick);
                    // Pure in (key, link, tick): recomputation and an
                    // identically-keyed model agree call after call.
                    prop_assert_eq!(d, model.delay(from, to, tick));
                    prop_assert_eq!(d, again.delay(from, to, tick));
                    prop_assert!(d <= dist.max_delay());
                    if key != other_key && d != sibling.delay(from, to, tick) {
                        differs = true;
                    }
                }
            }
        }
        // A different seed reshuffles the schedule somewhere (256
        // uniform samples can only collide with negligible probability).
        if key != other_key {
            prop_assert!(differs, "link schedule ignored the timing key");
        }
    }

    #[test]
    fn healed_partitions_never_cost_agreement(
        c in 7usize..14,
        t_frac in 0usize..3,
        split in 1u64..13,
        heal in 0u64..6,
        seed in any::<[u8; 32]>(),
    ) {
        // t < c/3 corrupted (silent) members plus a one-way partition
        // that heals at `heal`: with only the slack the model grants
        // itself, phase-king must still complete in agreement — the
        // post-heal phases realign whatever the blocked links did early on.
        let t = (c - 1) / 3;
        let corrupt_count = (t * t_frac) / 2;
        let corrupted: BTreeSet<PartyId> =
            ((c - corrupt_count)..c).map(|p| PartyId(p as u64)).collect();
        let split = split.min(c as u64 - 1);
        let mut net = Network::new(c);
        net.set_timing(TimingModel::new(
            seed,
            None,
            Some((split, Some(heal))),
            vec![],
        ));
        let mut adversary = SilentAdversary::new(corrupted.clone());
        let mut machines = phase_king_committee(c, &corrupted);
        let outcome = {
            let mut erased: BTreeMap<PartyId, Box<dyn Machine + Send + '_>> = machines
                .iter_mut()
                .map(|(&id, m)| (id, Box::new(m) as Box<dyn Machine + Send + '_>))
                .collect();
            run_phase(&mut net, &mut erased, &mut adversary, rounds_for(c) as u64 + 6)
        };
        prop_assert!(outcome.completed, "phase-king hung past the heal");
        let outputs: BTreeSet<u8> = machines
            .values()
            .map(|m| *m.output().expect("terminated"))
            .collect();
        prop_assert_eq!(outputs.len(), 1, "healed partition cost agreement");
    }

    #[test]
    fn every_staged_message_is_delivered_expired_or_in_flight(
        n in 3usize..8,
        max in 0u64..3,
        ticks in 1u64..4,
        split_raw in 0u64..8,
        churned in 0usize..3,
        up in 1u64..12,
        seed in any::<[u8; 32]>(),
        quota in 2u64..6,
    ) {
        // A composed timing model — latency, optional one-way partition,
        // and churn — against all-to-all chatter: the delay queue must
        // account for every staged envelope exactly once.
        let split = (split_raw > 0).then_some(split_raw);
        let churn: Vec<(PartyId, u64, u64)> = (0..churned.min(n - 1))
            .map(|p| (PartyId(p as u64), 1, 1 + up))
            .collect();
        let mut net = Network::new(n);
        net.set_timing(TimingModel::new(
            seed,
            Some((LatencyDist::Uniform { max }, ticks)),
            split.map(|s| (s.min(n as u64 - 1), Some(3))),
            churn,
        ));
        let mut adversary = SilentAdversary::new(BTreeSet::new());
        let mut machines: BTreeMap<PartyId, Box<dyn Machine + Send>> = (0..n as u64)
            .map(PartyId)
            .map(|id| {
                (
                    id,
                    Box::new(Chatter {
                        id,
                        n: n as u64,
                        quota,
                        rounds: 0,
                    }) as Box<dyn Machine + Send>,
                )
            })
            .collect();
        run_phase(&mut net, &mut machines, &mut adversary, quota + max + 4);
        let stats = net.timing_stats();
        prop_assert_eq!(
            stats.staged,
            stats.delivered
                + stats.expired_partition
                + stats.expired_offline
                + net.in_flight_len() as u64,
            "delay queue lost or duplicated a message: {:?}",
            stats
        );
        prop_assert!(stats.staged > 0, "chatter generated no traffic");
    }

    #[test]
    fn engines_agree_under_every_timing_spec(seed in any::<[u8; 8]>()) {
        // For every timing strategy in the catalogue: the sequential
        // runner and the threaded runner, both under the window and slack
        // of the installed model, produce identical delivery transcripts
        // at every thread count — the determinism anchor that keeps chaos
        // repro lines exact.
        let specs = timing_catalogue();
        prop_assert!(specs.len() >= 5, "timing catalogue shrank");
        for spec in &specs {
            let (t_seq, o_seq) = run_committee_under(spec, 12, &seed, Engine::Seq);
            let (t_thr, o_thr) = run_committee_under(spec, 12, &seed, Engine::Threaded(4));
            prop_assert_eq!(&t_seq, &t_thr, "seq vs threaded diverged on {}", spec.label());
            prop_assert_eq!(&o_seq, &o_thr, "outputs diverged on {}", spec.label());
            let (t_thr2, o_thr2) = run_committee_under(spec, 12, &seed, Engine::Threaded(2));
            prop_assert_eq!(&t_thr, &t_thr2, "2 vs 4 threads diverged on {}", spec.label());
            prop_assert_eq!(&o_thr, &o_thr2, "outputs diverged on {}", spec.label());
        }
    }
}
