//! Adversarial fuzzing: random Byzantine message-injection strategies
//! against the committee sub-protocols. Whatever bytes the adversary
//! throws, honest parties must terminate in agreement.

use pba_core::phase_king::{rounds_for, PhaseKing, PkMsg};
use pba_core::vss_coin::{toss_coin_vss, VssCoinMsg};
use pba_crypto::codec::decode_from_slice;
use pba_crypto::prg::Prg;
use pba_net::corruption::CorruptionPlan;
use pba_net::faults::{GarbleMode, StrategySpec};
use pba_net::runner::{run_phase, AdvSender, Adversary};
use pba_net::wire;
use pba_net::{Ctx, Envelope, Machine, Network, PartyId};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// An adversary that sends arbitrary attacker-chosen byte strings from
/// every corrupted party to pseudorandom honest targets each round.
struct FuzzAdversary {
    corrupted: BTreeSet<PartyId>,
    n: u64,
    prg: Prg,
    max_len: usize,
    messages_per_round: usize,
}

impl Adversary for FuzzAdversary {
    fn corrupted(&self) -> &BTreeSet<PartyId> {
        &self.corrupted
    }
    fn on_round(
        &mut self,
        _round: u64,
        _rushed: &BTreeMap<PartyId, Vec<Envelope>>,
        sender: &mut AdvSender<'_>,
    ) {
        for &bad in self.corrupted.clone().iter() {
            for _ in 0..self.messages_per_round {
                let target = PartyId(self.prg.gen_range(self.n));
                if self.corrupted.contains(&target) {
                    continue;
                }
                let len = self.prg.gen_range(self.max_len as u64 + 1) as usize;
                let mut payload = vec![0u8; len];
                rand::RngCore::fill_bytes(&mut self.prg, &mut payload);
                sender.send_raw(bad, target, payload);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn phase_king_survives_fuzzing(
        c in 7usize..16,
        t_frac in 0usize..3,
        seed in any::<[u8; 8]>(),
        max_len in 1usize..64,
        rate in 1usize..6,
    ) {
        let t = (c - 1) / 3;
        let corrupt_count = (t * t_frac) / 2; // 0..=t
        let committee: Vec<PartyId> = (0..c as u64).map(PartyId).collect();
        let corrupted: BTreeSet<PartyId> =
            committee[c - corrupt_count..].iter().copied().collect();
        let mut adversary = FuzzAdversary {
            corrupted: corrupted.clone(),
            n: c as u64,
            prg: Prg::from_seed_bytes(&seed),
            max_len,
            messages_per_round: rate,
        };
        let mut net = Network::new(c);
        let mut machines: BTreeMap<PartyId, PhaseKing<u8>> = committee
            .iter()
            .filter(|p| !corrupted.contains(p))
            .map(|&p| (p, PhaseKing::new(committee.clone(), p, (p.0 % 2) as u8)))
            .collect();
        {
            let mut erased: BTreeMap<PartyId, Box<dyn Machine + Send + '_>> = machines
                .iter_mut()
                .map(|(&id, m)| (id, Box::new(m) as Box<dyn Machine + Send + '_>))
                .collect();
            let outcome = run_phase(&mut net, &mut erased, &mut adversary, rounds_for(c) + 6);
            prop_assert!(outcome.completed, "phase-king hung under fuzzing");
        }
        let outputs: BTreeSet<u8> = machines
            .values()
            .map(|m| *m.output().expect("terminated"))
            .collect();
        prop_assert_eq!(outputs.len(), 1, "honest disagreement under fuzzing");
    }

    #[test]
    fn vss_coin_survives_fuzzing(
        // Up to 43 seats, so both benchmark committee sizes (30, 42) run.
        c in 7usize..44,
        seed in any::<[u8; 8]>(),
        max_len in 1usize..128,
    ) {
        let t = (c - 1) / 3;
        let committee: Vec<PartyId> = (0..c as u64).map(PartyId).collect();
        let corrupted: BTreeSet<PartyId> = committee[c - t..].iter().copied().collect();
        let mut adversary = FuzzAdversary {
            corrupted: corrupted.clone(),
            n: c as u64,
            prg: Prg::from_seed_bytes(&seed),
            max_len,
            messages_per_round: 3,
        };
        let mut net = Network::new(c);
        let mut prg = Prg::from_seed_bytes(&seed);
        let seeds = toss_coin_vss(&mut net, &committee, &mut adversary, &mut prg);
        let distinct: BTreeSet<_> = seeds.values().copied().collect();
        prop_assert_eq!(distinct.len(), 1, "coin split under fuzzing");
    }

    #[test]
    fn receivers_never_pay_for_filtered_floods(
        seed in any::<[u8; 8]>(),
        flood_len in 100usize..1000,
    ) {
        // A flooded party that filters by sender processes nothing: its
        // received-bytes counter stays zero however large the flood.
        struct Mute;
        impl Machine for Mute {
            fn on_round(&mut self, _: &mut pba_net::Ctx<'_>, _: &[Envelope]) {}
            fn is_done(&self) -> bool {
                false
            }
        }
        let mut net = Network::new(2);
        let mut machines: BTreeMap<PartyId, Box<dyn Machine + Send>> =
            [(PartyId(0), Box::new(Mute) as Box<dyn Machine + Send>)].into();
        let mut adversary = FuzzAdversary {
            corrupted: [PartyId(1)].into(),
            n: 2,
            prg: Prg::from_seed_bytes(&seed),
            max_len: flood_len,
            messages_per_round: 10,
        };
        run_phase(&mut net, &mut machines, &mut adversary, 5);
        prop_assert_eq!(net.metrics().party(PartyId(0)).bytes_received, 0);
        prop_assert!(net.metrics().party(PartyId(1)).bytes_sent > 0);
    }

    #[test]
    fn corruption_plans_deterministic_and_in_range(
        n in 4usize..200,
        t_pct in 0usize..34,
        step in 1usize..5,
        offset in 0usize..4,
        seed in any::<[u8; 8]>(),
    ) {
        let t = n * t_pct / 100;
        for plan in [
            CorruptionPlan::None,
            CorruptionPlan::Random { t },
            CorruptionPlan::Prefix { t },
            CorruptionPlan::Suffix { t },
        ] {
            let a = plan.materialize(n, &mut Prg::from_seed_bytes(&seed));
            let b = plan.materialize(n, &mut Prg::from_seed_bytes(&seed));
            prop_assert_eq!(&a, &b, "plan {} not deterministic per seed", plan.label());
            let expected = if plan == CorruptionPlan::None { 0 } else { t };
            prop_assert_eq!(a.len(), expected, "plan {} wrong size", plan.label());
            prop_assert!(a.iter().all(|p| p.index() < n), "plan {} out of range", plan.label());
        }
        // Stride, clamped so the placement fits in [0, n).
        if offset < n {
            let available = (n - offset).div_ceil(step);
            let plan = CorruptionPlan::Stride { t: t.min(available), step, offset };
            let a = plan.materialize(n, &mut Prg::from_seed_bytes(&seed));
            prop_assert_eq!(a.len(), t.min(available));
            prop_assert!(a.iter().all(
                |p| p.index() < n && p.index() >= offset && (p.index() - offset) % step == 0
            ));
        }
    }

    #[test]
    fn message_types_survive_arbitrary_bytes(
        len in 0usize..256,
        seed in any::<[u8; 8]>(),
    ) {
        // Decoding attacker-chosen bytes must reject cleanly (Err), never
        // panic, for every protocol wire type.
        let mut prg = Prg::from_seed_bytes(&seed);
        let mut bytes = vec![0u8; len];
        rand::RngCore::fill_bytes(&mut prg, &mut bytes);
        let _ = decode_from_slice::<PkMsg<u8>>(&bytes);
        let _ = decode_from_slice::<VssCoinMsg>(&bytes);
        let _ = wire::decode_msg::<pba_core::protocol::ValueSeed>(&bytes);
        let _ = wire::decode_msg::<pba_core::protocol::Certificate>(&bytes);
        let _ = wire::decode_msg::<PkMsg<u8>>(&bytes);
    }

    #[test]
    fn ctx_read_survives_fault_strategies(
        seed in any::<[u8; 8]>(),
        strategy in 0usize..6,
    ) {
        // Honest receivers running `Ctx::read` on traffic produced by the
        // fault-injection combinators (garbled replays of real messages,
        // equivocations, floods) must terminate without panicking.
        struct Probe {
            rounds: u64,
        }
        impl Machine for Probe {
            fn on_round(&mut self, ctx: &mut Ctx<'_>, inbox: &[Envelope]) {
                // Feed the adversary real typed traffic to mutate/replay/fork.
                let victim = PartyId(ctx.n() as u64 - 1);
                ctx.send_msg(victim, &PkMsg::Value(self.rounds as u8));
                for env in inbox {
                    let _ = ctx.recv_msg::<PkMsg<u8>>(env);
                    let _ = ctx.read::<PkMsg<u8>>(env);
                    let _ = ctx.read::<VssCoinMsg>(env);
                }
                self.rounds += 1;
            }
            fn is_done(&self) -> bool {
                self.rounds >= 6
            }
        }
        let n = 6;
        let corrupted: BTreeSet<PartyId> = [PartyId(4), PartyId(5)].into();
        let spec = [
            StrategySpec::Garble(GarbleMode::Both),
            StrategySpec::Equivocate,
            StrategySpec::Replay { per_round: 2 },
            StrategySpec::Flood { victim: None, payload_len: 64, per_round: 4 },
            StrategySpec::Garble(GarbleMode::Field),
            StrategySpec::EquivocateTyped,
        ][strategy].clone();
        let mut adversary = spec.build(corrupted, n, &Prg::from_seed_bytes(&seed));
        let mut net = Network::new(n);
        let mut machines: BTreeMap<PartyId, Box<dyn Machine + Send>> = (0..4u64)
            .map(|i| (PartyId(i), Box::new(Probe { rounds: 0 }) as Box<dyn Machine + Send>))
            .collect();
        let outcome = run_phase(&mut net, &mut machines, adversary.as_mut(), 8);
        prop_assert!(outcome.completed, "probes hung under {}", spec.label());
    }
}
