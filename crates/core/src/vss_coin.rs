//! Robust committee coin tossing via verifiable-secret-sharing-style
//! deal/echo/reconstruct — the Chor–Goldwasser–Micali–Awerbuch
//! instantiation of `f_ct` that §3.1 cites, strengthened over a plain
//! commit–reveal coin by **error-corrected reconstruction**:
//!
//! 1. **deal** — every member Shamir-shares a random field element with
//!    threshold `t = ⌊(c−1)/3⌋` over private channels;
//! 2. **echo** — every member broadcasts all shares it received;
//! 3. **reconstruct** — each dealer's polynomial is decoded from the `c`
//!    echoed shares, correcting up to `t` Byzantine echoes (`c ≥ 3t + 1`);
//!    undecodable dealers are excluded;
//! 4. **agree** — phase-king on the candidate seed handles residual
//!    divergence from equivocating echoes of inconsistent corrupt dealers.
//!
//! Unlike commit–reveal, the adversary **cannot withhold**: once dealt,
//! its contributions reconstruct without its cooperation, and rushing in
//! the deal round only shows it `t` shares of each honest dealer — below
//! the threshold, revealing nothing. The coin is therefore unbiased, not
//! merely bounded-influence.
//!
//! **Which decoder runs, and what a toss costs.** Step 3 asks, per dealer,
//! for *the* degree-`≤ t` polynomial within distance `e` of the echoed
//! word, `e = min(t, ⌊(m − t − 1)/2⌋)` for `m` echoes — unique because two
//! such polynomials would agree on `m − 2e ≥ t + 1` points. Dealers echoed
//! by the same members share an evaluation set, so they share one
//! [`reed_solomon::Decoder`]: one table build (tens of µs), then an honest
//! word costs `m − t − 1` parity dot-products plus a `(t + 1)²` mat-vec,
//! and a word with lies one `O(m²)` key-equation solve. Per member and
//! toss that is `O(c³)` field multiplications; there is one evaluation set
//! whenever no echoer omits a dealer, and never more than `c` even when
//! corrupt echoers omit dealers to split them.

use crate::phase_king::{rounds_for, PhaseKing};
use pba_crypto::codec::{CodecError, Decode, Encode, Reader};
use pba_crypto::field::Fp;
use pba_crypto::prg::Prg;
use pba_crypto::reed_solomon;
use pba_crypto::sha256::{Digest, Sha256};
use pba_crypto::shamir;
use pba_net::runner::{run_phase_threaded, Adversary, PhaseOutcome};
use pba_net::wire::{step, tag};
use pba_net::{Ctx, Envelope, Machine, Network, PartyId, WireMsg};
use std::collections::BTreeMap;

/// Messages of the deal/echo phases.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VssCoinMsg {
    /// Round 0: the dealer's share for this recipient.
    Deal(Fp),
    /// Round 1: echo of every received share, `(dealer position, share)`.
    Echo(Vec<(u64, Fp)>),
}

impl Encode for VssCoinMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            VssCoinMsg::Deal(v) => {
                buf.push(0);
                v.encode(buf);
            }
            VssCoinMsg::Echo(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
}

impl Decode for VssCoinMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(VssCoinMsg::Deal(Fp::decode(r)?)),
            1 => Ok(VssCoinMsg::Echo(Vec::<(u64, Fp)>::decode(r)?)),
            t => Err(CodecError::InvalidTag(t)),
        }
    }
}

impl WireMsg for VssCoinMsg {
    const TAG: u8 = tag::VSS_COIN;
    const STEP: u8 = step::COMMITTEE_BA;
}

/// The deal/echo/reconstruct machine for one committee member.
#[derive(Debug)]
pub struct VssCoin {
    committee: Vec<PartyId>,
    me: PartyId,
    my_pos: usize,
    t: usize,
    my_poly_shares: Vec<Fp>,   // shares of this member's own secret, per seat
    received: Vec<Option<Fp>>, // dealer position -> my share
    /// `echoes[echoer position · c + dealer position]` = echoed share.
    echoes: Vec<Option<Fp>>,
    /// Echoers whose vector has been taken: the first non-empty one wins.
    echoed: Vec<bool>,
    candidate: Option<Digest>,
    done: bool,
}

impl VssCoin {
    /// Creates the machine for `me` with fresh randomness from `prg`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is not in the committee.
    pub fn new(committee: Vec<PartyId>, me: PartyId, prg: &mut Prg) -> Self {
        let my_pos = committee
            .iter()
            .position(|&p| p == me)
            .expect("member not in committee");
        let c = committee.len();
        let t = c.saturating_sub(1) / 3;
        let my_poly_shares: Vec<Fp> = shamir::share(Fp::random(prg), t, c, prg)
            .into_iter()
            .map(|s| s.value)
            .collect();
        VssCoin {
            committee,
            me,
            my_pos,
            t,
            my_poly_shares,
            received: vec![None; c],
            echoes: vec![None; c * c],
            echoed: vec![false; c],
            candidate: None,
            done: false,
        }
    }

    /// The candidate seed, once reconstructed.
    pub fn candidate(&self) -> Option<Digest> {
        self.candidate
    }

    fn position_of(&self, p: PartyId) -> Option<usize> {
        self.committee.iter().position(|&m| m == p)
    }
}

impl Machine for VssCoin {
    fn on_round(&mut self, ctx: &mut Ctx<'_>, inbox: &[Envelope]) {
        if self.done {
            return;
        }
        let c = self.committee.len();
        match ctx.round() {
            0 => {
                // Deal: private share to every member.
                self.received[self.my_pos] = Some(self.my_poly_shares[self.my_pos]);
                for (&peer, &share) in self.committee.iter().zip(&self.my_poly_shares) {
                    if peer != self.me {
                        ctx.send_msg(peer, &VssCoinMsg::Deal(share));
                    }
                }
            }
            1 => {
                // Collect dealt shares; echo everything.
                for env in inbox {
                    let Some(pos) = self.position_of(env.from) else {
                        continue;
                    };
                    if self.received[pos].is_some() {
                        continue;
                    }
                    if let Some(VssCoinMsg::Deal(v)) = ctx.recv_msg(env) {
                        self.received[pos] = Some(v);
                    }
                }
                let vector: Vec<(u64, Fp)> = self
                    .received
                    .iter()
                    .enumerate()
                    .filter_map(|(d, v)| v.map(|v| (d as u64, v)))
                    .collect();
                self.echoes[self.my_pos * c..][..c].copy_from_slice(&self.received);
                self.echoed[self.my_pos] = !vector.is_empty();
                let echo = VssCoinMsg::Echo(vector);
                for &peer in &self.committee {
                    if peer != self.me {
                        ctx.send_msg(peer, &echo);
                    }
                }
            }
            _ => {
                // Collect echoes. A sender's vector is untrusted: dealer
                // indices outside the committee are dropped, a repeated
                // index keeps its last value.
                for env in inbox {
                    let Some(pos) = self.position_of(env.from) else {
                        continue;
                    };
                    if self.echoed[pos] {
                        continue;
                    }
                    if let Some(VssCoinMsg::Echo(vector)) = ctx.recv_msg(env) {
                        self.echoed[pos] = !vector.is_empty();
                        for (d, v) in vector {
                            if d < c as u64 {
                                self.echoes[pos * c + d as usize] = Some(v);
                            }
                        }
                    }
                }
                // Reconstruct every dealer, one decoder per distinct set of
                // echoers (x-coordinates).
                let k = self.t + 1;
                let mut decoders: Vec<(Vec<Fp>, reed_solomon::Decoder)> = Vec::new();
                let mut seed_acc = Sha256::new();
                seed_acc.update(b"pba-vss-coin");
                let mut included = 0u64;
                for dealer in 0..c {
                    // Points: echoer position -> echoed share of this dealer.
                    let (xs, ys): (Vec<Fp>, Vec<Fp>) = (0..c)
                        .filter_map(|echoer| {
                            self.echoes[echoer * c + dealer]
                                .map(|v| (Fp::new(echoer as u64 + 1), v))
                        })
                        .unzip();
                    if xs.len() < k {
                        continue;
                    }
                    let budget = ((xs.len() - k) / 2).min(self.t);
                    let known = decoders.iter().position(|(set, _)| *set == xs);
                    let at = known.unwrap_or_else(|| {
                        let decoder = reed_solomon::Decoder::new(&xs, k)
                            .expect("distinct seats, at least k of them");
                        decoders.push((xs, decoder));
                        decoders.len() - 1
                    });
                    if let Ok(poly) = decoders[at].1.decode(&ys, budget) {
                        seed_acc.update(&(dealer as u64).to_le_bytes());
                        seed_acc.update(&poly.eval(Fp::ZERO).value().to_le_bytes());
                        included += 1;
                    }
                }
                seed_acc.update(&included.to_le_bytes());
                self.candidate = Some(seed_acc.finalize());
                self.done = true;
            }
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

/// Runs the full robust `f_ct` realization: deal/echo/reconstruct, then
/// phase-king on the candidate seed. Returns each honest member's seed.
///
/// # Panics
///
/// Panics if phase-king fails to terminate (impossible below the fault
/// bound).
pub fn toss_coin_vss(
    net: &mut Network,
    committee: &[PartyId],
    adversary: &mut dyn Adversary,
    prg: &mut Prg,
) -> BTreeMap<PartyId, Digest> {
    try_toss_coin_vss(net, committee, adversary, prg, 1).expect("phase-king terminated")
}

/// [`toss_coin_vss`] on `threads` workers (any count yields a
/// bit-identical run — see [`pba_net::run_phase_threaded`]), fallible:
/// timing faults (churned members offline past the phase budget, delays
/// beyond the model's window) can leave a member without a phase-king
/// output, which surfaces as `Err` with the failing phase's
/// [`PhaseOutcome`] instead of a panic. Both phase budgets grow by the
/// installed timing model's slack inside the round engine.
///
/// A member that produced no candidate (e.g. it was offline through
/// reconstruction) enters phase-king with [`Digest::ZERO`], exactly like a
/// member whose dealer set was emptied by faults — the king agreement then
/// decides whether the committee still converges.
pub fn try_toss_coin_vss(
    net: &mut Network,
    committee: &[PartyId],
    adversary: &mut dyn Adversary,
    prg: &mut Prg,
    threads: usize,
) -> Result<BTreeMap<PartyId, Digest>, PhaseOutcome> {
    let mut machines: BTreeMap<PartyId, VssCoin> = BTreeMap::new();
    for &id in committee {
        if !adversary.corrupted().contains(&id) {
            let mut member_prg = prg.child("vss-coin-member", id.0);
            machines.insert(id, VssCoin::new(committee.to_vec(), id, &mut member_prg));
        }
    }
    {
        let mut erased: BTreeMap<PartyId, Box<dyn Machine + Send + '_>> = machines
            .iter_mut()
            .map(|(&id, m)| (id, Box::new(m) as Box<dyn Machine + Send + '_>))
            .collect();
        // The deal/echo outcome is advisory: a member that missed
        // reconstruction enters agreement with a zero candidate.
        run_phase_threaded(net, &mut erased, adversary, 8, threads);
    }

    let mut kings: BTreeMap<PartyId, PhaseKing<Digest>> = machines
        .iter()
        .map(|(&id, m)| {
            let candidate = m.candidate().unwrap_or(Digest::ZERO);
            (id, PhaseKing::new(committee.to_vec(), id, candidate))
        })
        .collect();
    let outcome = {
        let mut erased: BTreeMap<PartyId, Box<dyn Machine + Send + '_>> = kings
            .iter_mut()
            .map(|(&id, m)| (id, Box::new(m) as Box<dyn Machine + Send + '_>))
            .collect();
        run_phase_threaded(
            net,
            &mut erased,
            adversary,
            rounds_for(committee.len()) + 6,
            threads,
        )
    };

    let mut seeds = BTreeMap::new();
    for (id, m) in kings {
        match m.output() {
            Some(seed) => {
                seeds.insert(id, *seed);
            }
            None => return Err(outcome),
        }
    }
    Ok(seeds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_net::runner::AdvSender;
    use pba_net::SilentAdversary;
    use std::collections::BTreeSet;

    fn committee(c: usize) -> Vec<PartyId> {
        (0..c).map(PartyId::from).collect()
    }

    #[test]
    fn all_honest_agree() {
        let c = committee(10);
        let mut net = Network::new(10);
        let mut adv = SilentAdversary::default();
        let mut prg = Prg::from_seed_bytes(b"vss1");
        let seeds = toss_coin_vss(&mut net, &c, &mut adv, &mut prg);
        let distinct: BTreeSet<Digest> = seeds.values().copied().collect();
        assert_eq!(distinct.len(), 1);
        assert_ne!(*distinct.iter().next().unwrap(), Digest::ZERO);
    }

    #[test]
    fn silent_third_cannot_block_or_bias_reconstruction() {
        // 10 members, 3 silent corrupt: every honest dealer's secret still
        // reconstructs (the corrupt members' absence just removes points).
        let c = committee(10);
        let corrupt: BTreeSet<PartyId> = [PartyId(7), PartyId(8), PartyId(9)].into();
        let mut adv = SilentAdversary::new(corrupt);
        let mut net = Network::new(10);
        let mut prg = Prg::from_seed_bytes(b"vss2");
        let seeds = toss_coin_vss(&mut net, &c, &mut adv, &mut prg);
        let distinct: BTreeSet<Digest> = seeds.values().copied().collect();
        assert_eq!(distinct.len(), 1);
        assert_eq!(seeds.len(), 7);
    }

    /// Corrupt members echo garbage shares for every dealer.
    struct LyingEchoer {
        corrupted: BTreeSet<PartyId>,
        committee: Vec<PartyId>,
    }

    impl Adversary for LyingEchoer {
        fn corrupted(&self) -> &BTreeSet<PartyId> {
            &self.corrupted
        }
        fn on_round(
            &mut self,
            round: u64,
            _rushed: &BTreeMap<PartyId, Vec<Envelope>>,
            sender: &mut AdvSender<'_>,
        ) {
            if round != 1 {
                return;
            }
            for &bad in &self.corrupted {
                for (j, &peer) in self.committee.iter().enumerate() {
                    if self.corrupted.contains(&peer) {
                        continue;
                    }
                    // Garbage echo: different per recipient (equivocation).
                    let vector: Vec<(u64, Fp)> = (0..self.committee.len() as u64)
                        .map(|d| (d, Fp::new(d * 7919 + j as u64 + 1)))
                        .collect();
                    sender.send_msg(bad, peer, &VssCoinMsg::Echo(vector));
                }
            }
        }
    }

    #[test]
    fn lying_echoes_are_error_corrected() {
        let c = committee(10); // t = 3, c = 3t + 1
        let corrupt: BTreeSet<PartyId> = [PartyId(0), PartyId(1), PartyId(2)].into();
        let mut adv = LyingEchoer {
            corrupted: corrupt.clone(),
            committee: c.clone(),
        };
        let mut net = Network::new(10);
        let mut prg = Prg::from_seed_bytes(b"vss3");
        let seeds = toss_coin_vss(&mut net, &c, &mut adv, &mut prg);
        let distinct: BTreeSet<Digest> = seeds.values().copied().collect();
        assert_eq!(distinct.len(), 1, "lying echoes split the committee");
    }

    #[test]
    fn two_runs_differ() {
        let c = committee(7);
        let mut adv = SilentAdversary::default();
        let mut n1 = Network::new(7);
        let mut p1 = Prg::from_seed_bytes(b"vssA");
        let s1 = toss_coin_vss(&mut n1, &c, &mut adv, &mut p1);
        let mut n2 = Network::new(7);
        let mut p2 = Prg::from_seed_bytes(b"vssB");
        let s2 = toss_coin_vss(&mut n2, &c, &mut adv, &mut p2);
        assert_ne!(s1.values().next(), s2.values().next());
    }

    #[test]
    fn message_codec_roundtrip() {
        for msg in [
            VssCoinMsg::Deal(Fp::new(123)),
            VssCoinMsg::Echo(vec![(0, Fp::new(5)), (3, Fp::new(9))]),
        ] {
            let bytes = pba_crypto::codec::encode_to_vec(&msg);
            let back: VssCoinMsg = pba_crypto::codec::decode_from_slice(&bytes).unwrap();
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn communication_stays_committee_local() {
        let c = committee(7);
        let mut net = Network::new(50);
        let mut adv = SilentAdversary::default();
        let mut prg = Prg::from_seed_bytes(b"vss4");
        toss_coin_vss(&mut net, &c, &mut adv, &mut prg);
        for outsider in 7..50u64 {
            let m = net.metrics().party(PartyId(outsider));
            assert_eq!(m.bytes_sent + m.bytes_received, 0);
        }
    }

    /// Corrupt members echo garbage for some dealers and omit the rest, a
    /// different subset each, so the dealers' echoer sets differ and one
    /// reconstruction decodes over several evaluation sets.
    struct PartialEchoer {
        corrupted: BTreeSet<PartyId>,
        committee: Vec<PartyId>,
    }

    impl Adversary for PartialEchoer {
        fn corrupted(&self) -> &BTreeSet<PartyId> {
            &self.corrupted
        }
        fn on_round(
            &mut self,
            round: u64,
            _rushed: &BTreeMap<PartyId, Vec<Envelope>>,
            sender: &mut AdvSender<'_>,
        ) {
            if round != 1 {
                return;
            }
            let c = self.committee.len() as u64;
            for (i, &bad) in self.corrupted.iter().enumerate() {
                let vector: Vec<(u64, Fp)> = (0..c)
                    .filter(|d| !(d + i as u64).is_multiple_of(3))
                    .map(|d| (d, Fp::new(d * 31 + i as u64)))
                    .collect();
                for &peer in &self.committee {
                    if !self.corrupted.contains(&peer) {
                        sender.send_msg(bad, peer, &VssCoinMsg::Echo(vector.clone()));
                    }
                }
            }
        }
    }

    /// Corrupt dealers hand out a degree-`t` sharing with a growing number
    /// of wrong shares, then stay silent: with only the `c − t` honest
    /// echoes the error budget is `(c − 2t − 1) / 2`, and the dealers sit
    /// just below, at and just above it.
    struct SloppyDealer {
        corrupted: BTreeSet<PartyId>,
        committee: Vec<PartyId>,
    }

    impl Adversary for SloppyDealer {
        fn corrupted(&self) -> &BTreeSet<PartyId> {
            &self.corrupted
        }
        fn on_round(
            &mut self,
            round: u64,
            _rushed: &BTreeMap<PartyId, Vec<Envelope>>,
            sender: &mut AdvSender<'_>,
        ) {
            if round != 0 {
                return;
            }
            let c = self.committee.len();
            let t = (c - 1) / 3;
            let budget = (c - 2 * t - 1) / 2;
            for (i, &bad) in self.corrupted.iter().enumerate() {
                let poly = pba_crypto::poly::Polynomial::new(
                    (0..=t as u64)
                        .map(|d| Fp::new(1000 * (i as u64 + 1) + d))
                        .collect(),
                );
                let wrong = budget - 1 + i % 3;
                let honest = self
                    .committee
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| !self.corrupted.contains(p));
                for (nth, (pos, &peer)) in honest.enumerate() {
                    let share = poly.eval(Fp::new(pos as u64 + 1));
                    let dealt = if nth < wrong { share + Fp::ONE } else { share };
                    sender.send_msg(bad, peer, &VssCoinMsg::Deal(dealt));
                }
            }
        }
    }

    /// The one seed every honest member of a `c`-seat toss ends with.
    fn agreed_seed(c: usize, adv: &mut dyn Adversary) -> String {
        let members = committee(c);
        let mut net = Network::new(c);
        let mut prg = Prg::from_seed_bytes(b"vss-pin");
        let seeds = toss_coin_vss(&mut net, &members, adv, &mut prg);
        let distinct: BTreeSet<Digest> = seeds.values().copied().collect();
        assert_eq!(distinct.len(), 1, "committee split");
        distinct.iter().next().unwrap().to_hex()
    }

    fn first_seats(count: usize) -> BTreeSet<PartyId> {
        (0..count).map(PartyId::from).collect()
    }

    #[test]
    fn partial_echoes_still_converge() {
        // t corrupt echoers each omit a different third of the dealers and
        // lie about the rest. They deal nothing, so the seed every honest
        // member must reach is the honest dealers' (values printed by the
        // Berlekamp–Welch commit, equal to the `LyingEchoer` pins below).
        for (c, seed) in [
            (
                10usize,
                "12f4b6c862812d41d47a493600420256f2688864cb52ed105695a42e7d464bb9",
            ),
            (
                30,
                "f254510544c38b444831dced9fa18dd113bbd3678756a3699dcdb6016a7256f4",
            ),
            (
                42,
                "2eb5f76d17ba03a29b5a830f2b28541e158213c041c9ed9495311c3baf2664c1",
            ),
        ] {
            let mut adv = PartialEchoer {
                corrupted: first_seats((c - 1) / 3),
                committee: committee(c),
            };
            assert_eq!(agreed_seed(c, &mut adv), seed, "c={c}");
        }
    }

    /// Seeds printed by the commit that still reconstructed with the
    /// Berlekamp–Welch search: the decoder swap must not move a bit of
    /// them, through honest words, short words, corrected lies and dealers
    /// beyond the error budget.
    #[test]
    fn coin_seeds_match_the_berlekamp_welch_reconstruction() {
        assert_eq!(
            agreed_seed(30, &mut SilentAdversary::default()),
            "ff2122f0c267aee1ee60db43c226157c021994dc1f36b67fb4ac12fa93c60225"
        );
        let silent: BTreeSet<PartyId> = [PartyId(7), PartyId(8), PartyId(9)].into();
        assert_eq!(
            agreed_seed(10, &mut SilentAdversary::new(silent)),
            "2fa75647a6390b64b52cf9fb757c95feb0fd2fefc0a3fe75313c1d78770db7e5"
        );
        for (c, liars, sloppy) in [
            (
                10usize,
                "12f4b6c862812d41d47a493600420256f2688864cb52ed105695a42e7d464bb9",
                "4b8f00978c5e317a412b7a648fa77f7617b4d1856f0e9dc4b899ece8826b71d7",
            ),
            (
                42,
                "2eb5f76d17ba03a29b5a830f2b28541e158213c041c9ed9495311c3baf2664c1",
                "d980b4d9efac2a2abb74992c4cfbd2e649dde227a14063c0b8e1eb1e84656e23",
            ),
        ] {
            let (corrupted, committee) = (first_seats((c - 1) / 3), committee(c));
            let mut adv = LyingEchoer {
                corrupted: corrupted.clone(),
                committee: committee.clone(),
            };
            assert_eq!(agreed_seed(c, &mut adv), liars, "lying echoers, c={c}");
            let mut adv = SloppyDealer {
                corrupted,
                committee,
            };
            assert_eq!(agreed_seed(c, &mut adv), sloppy, "sloppy dealers, c={c}");
        }
    }

    /// Seat 0 of a `c`-seat committee on a 16-party network, advanced
    /// through the deal and echo rounds with no mail: ready for echoes.
    fn awaiting_echoes(c: usize) -> (VssCoin, Network) {
        let mut net = Network::new(16);
        let mut prg = Prg::from_seed_bytes(b"vss-machine");
        let mut machine = VssCoin::new(committee(c), PartyId(0), &mut prg);
        machine.on_round(&mut net.ctx(PartyId(0), 0), &[]);
        machine.on_round(&mut net.ctx(PartyId(0), 1), &[]);
        (machine, net)
    }

    fn echo_from(seat: u64, vector: Vec<(u64, Fp)>) -> Envelope {
        let payload = pba_net::wire::encode_msg(&VssCoinMsg::Echo(vector));
        Envelope::new(PartyId(seat), PartyId(0), payload)
    }

    fn row(machine: &VssCoin, echoer: usize) -> &[Option<Fp>] {
        let c = machine.committee.len();
        &machine.echoes[echoer * c..][..c]
    }

    #[test]
    fn dealer_indices_outside_the_committee_are_dropped() {
        let (mut machine, mut net) = awaiting_echoes(7);
        let capacity = machine.echoes.capacity();
        let vector = vec![
            (7, Fp::new(1)),
            (2, Fp::new(5)),
            (u64::MAX, Fp::new(1)),
            (1 << 32, Fp::new(1)),
        ];
        machine.on_round(&mut net.ctx(PartyId(0), 2), &[echo_from(3, vector)]);
        let mut expected = [None; 7];
        expected[2] = Some(Fp::new(5));
        assert_eq!(row(&machine, 3), expected);
        assert_eq!(machine.echoes.len(), 49);
        assert_eq!(machine.echoes.capacity(), capacity);
        assert!(machine.candidate().is_some());
    }

    #[test]
    fn repeated_dealer_entry_keeps_its_last_value() {
        let (mut machine, mut net) = awaiting_echoes(7);
        let vector = vec![(4, Fp::new(1)), (5, Fp::new(2)), (4, Fp::new(3))];
        machine.on_round(&mut net.ctx(PartyId(0), 2), &[echo_from(2, vector)]);
        assert_eq!(row(&machine, 2)[4], Some(Fp::new(3)));
        assert_eq!(row(&machine, 2)[5], Some(Fp::new(2)));
    }

    #[test]
    fn first_non_empty_echo_per_sender_wins_and_later_ones_are_not_read() {
        let (mut machine, mut net) = awaiting_echoes(7);
        let inbox = [
            echo_from(3, vec![]),
            echo_from(3, vec![(1, Fp::new(10))]),
            echo_from(3, vec![(1, Fp::new(20)), (2, Fp::new(20))]),
            // Non-empty even though nothing in it is usable.
            echo_from(4, vec![(u64::MAX, Fp::new(30))]),
            echo_from(4, vec![(1, Fp::new(40))]),
        ];
        machine.on_round(&mut net.ctx(PartyId(0), 2), &inbox);
        assert_eq!(row(&machine, 3)[1], Some(Fp::new(10)));
        assert_eq!(row(&machine, 3)[2], None);
        assert_eq!(row(&machine, 4), [None; 7]);
        // Skipped envelopes are dropped before `recv_msg`: never metered.
        let read: usize = [&inbox[0], &inbox[1], &inbox[3]]
            .iter()
            .map(|env| env.len())
            .sum();
        assert_eq!(net.metrics().party(PartyId(0)).bytes_received, read as u64);
    }

    #[test]
    fn non_members_and_own_seat_are_ignored_unread() {
        let (mut machine, mut net) = awaiting_echoes(7);
        let before = machine.echoes.clone();
        let inbox = [
            echo_from(7, vec![(1, Fp::new(1))]),
            echo_from(15, vec![(1, Fp::new(1))]),
            echo_from(0, vec![(1, Fp::new(1))]),
        ];
        machine.on_round(&mut net.ctx(PartyId(0), 2), &inbox);
        assert_eq!(machine.echoes, before);
        assert_eq!(net.metrics().party(PartyId(0)).bytes_received, 0);
    }
}
