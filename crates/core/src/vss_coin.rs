//! Robust committee coin tossing via verifiable-secret-sharing-style
//! deal/echo/reconstruct — the Chor–Goldwasser–Micali–Awerbuch
//! instantiation of `f_ct` that §3.1 cites, strengthened over the
//! commit–reveal variant in [`crate::coin`] by **error-corrected
//! reconstruction**:
//!
//! 1. **deal** — every member Shamir-shares a random field element with
//!    threshold `t = ⌊(c−1)/3⌋` over private channels;
//! 2. **echo** — every member broadcasts all shares it received;
//! 3. **reconstruct** — each dealer's polynomial is decoded from the `c`
//!    echoed shares with Berlekamp–Welch, correcting up to `t` Byzantine
//!    echoes (`c ≥ 3t + 1`); undecodable dealers are excluded;
//! 4. **agree** — phase-king on the candidate seed handles residual
//!    divergence from equivocating echoes of inconsistent corrupt dealers.
//!
//! Unlike commit–reveal, the adversary **cannot withhold**: once dealt,
//! its contributions reconstruct without its cooperation, and rushing in
//! the deal round only shows it `t` shares of each honest dealer — below
//! the threshold, revealing nothing. The coin is therefore unbiased, not
//! merely bounded-influence.

use crate::phase_king::{rounds_for, PhaseKing};
use pba_crypto::codec::{CodecError, Decode, Encode, Reader};
use pba_crypto::field::Fp;
use pba_crypto::prg::Prg;
use pba_crypto::reed_solomon;
use pba_crypto::sha256::{Digest, Sha256};
use pba_crypto::shamir;
use pba_net::runner::{run_phase_driven, Adversary, PhaseOutcome, RoundDriver};
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
    my_poly_shares: Vec<Fp>, // shares of this member's own secret, per seat
    received: BTreeMap<usize, Fp>, // dealer position -> my share
    /// `echoes[echoer position][dealer position]` = echoed share.
    echoes: Vec<BTreeMap<usize, Fp>>,
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
        let secret = Fp::random(prg);
        let my_poly_shares: Vec<Fp> = shamir::share(secret, t, c, prg)
            .into_iter()
            .map(|s| s.value)
            .collect();
        let _ = secret; // fully encoded in the shares
        VssCoin {
            echoes: vec![BTreeMap::new(); c],
            committee,
            me,
            my_pos,
            t,
            my_poly_shares,
            received: BTreeMap::new(),
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
                self.received
                    .insert(self.my_pos, self.my_poly_shares[self.my_pos]);
                for (pos, &peer) in self.committee.clone().iter().enumerate() {
                    if peer != self.me {
                        ctx.send_msg(peer, &VssCoinMsg::Deal(self.my_poly_shares[pos]));
                    }
                }
            }
            1 => {
                // Collect dealt shares; echo everything.
                for env in inbox {
                    let Some(pos) = self.position_of(env.from) else {
                        continue;
                    };
                    if self.received.contains_key(&pos) {
                        continue;
                    }
                    if let Some(VssCoinMsg::Deal(v)) = ctx.recv_msg(env) {
                        self.received.insert(pos, v);
                    }
                }
                let vector: Vec<(u64, Fp)> =
                    self.received.iter().map(|(&d, &v)| (d as u64, v)).collect();
                self.echoes[self.my_pos] = self.received.clone();
                for &peer in &self.committee.clone() {
                    if peer != self.me {
                        ctx.send_msg(peer, &VssCoinMsg::Echo(vector.clone()));
                    }
                }
            }
            _ => {
                // Collect echoes; reconstruct every dealer with BW decoding.
                for env in inbox {
                    let Some(pos) = self.position_of(env.from) else {
                        continue;
                    };
                    if !self.echoes[pos].is_empty() {
                        continue;
                    }
                    if let Some(VssCoinMsg::Echo(vector)) = ctx.recv_msg(env) {
                        for (d, v) in vector {
                            self.echoes[pos].insert(d as usize, v);
                        }
                    }
                }
                let mut seed_acc = Sha256::new();
                seed_acc.update(b"pba-vss-coin");
                let mut included = 0u64;
                for dealer in 0..c {
                    // Points: echoer position -> echoed share of this dealer.
                    let points: Vec<(Fp, Fp)> = (0..c)
                        .filter_map(|echoer| {
                            self.echoes[echoer]
                                .get(&dealer)
                                .map(|&v| (Fp::new(echoer as u64 + 1), v))
                        })
                        .collect();
                    let k = self.t + 1;
                    if points.len() < k {
                        continue;
                    }
                    let budget = ((points.len() - k) / 2).min(self.t);
                    if let Ok(poly) = reed_solomon::decode(&points, k, budget) {
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
    toss_coin_vss_driven(net, committee, adversary, prg, RoundDriver::Lockstep, 0, 1)
        .expect("phase-king terminated")
}

/// [`toss_coin_vss`] under an explicit [`RoundDriver`] and thread count
/// (any count yields a bit-identical run — see
/// [`pba_net::run_phase_threaded`]), fallible:
/// timing faults (churned members offline past the phase budget, delays
/// beyond the driver window) can leave a member without a phase-king
/// output, which surfaces as `Err` with the failing phase's
/// [`PhaseOutcome`] instead of a panic. `slack` extends both phase budgets
/// by that many machine rounds so heal/rejoin events scheduled in tick
/// time can land inside the phase.
///
/// A member that produced no candidate (e.g. it was offline through
/// reconstruction) enters phase-king with [`Digest::ZERO`], exactly like a
/// member whose dealer set was emptied by faults — the king agreement then
/// decides whether the committee still converges.
pub fn toss_coin_vss_driven(
    net: &mut Network,
    committee: &[PartyId],
    adversary: &mut dyn Adversary,
    prg: &mut Prg,
    driver: RoundDriver,
    slack: u64,
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
        run_phase_driven(net, &mut erased, adversary, 8 + slack, driver, threads);
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
        run_phase_driven(
            net,
            &mut erased,
            adversary,
            rounds_for(committee.len()) + 6 + slack,
            driver,
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
}
