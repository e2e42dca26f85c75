//! Committee Byzantine agreement: the **phase-king** protocol
//! (Berman–Garay–Perry), realizing the `f_ba` functionality of §3.1 for
//! `t < n/3` inside polylog-size committees.
//!
//! The paper invokes Garay–Moses `f_ba` inside committees; phase-king has
//! the same resilience (`t < n/3`) and round/communication asymptotics at
//! committee scale (see DESIGN.md §2, substitution 3). The protocol is
//! generic over the agreed value type, which also lets the coin-tossing
//! functionality agree on 32-byte seeds.
//!
//! Structure: `t + 1` phases of three rounds each —
//!
//! 1. **value**: everyone broadcasts its current value; a value seen
//!    `≥ n − t` times becomes the party's *proposal*;
//! 2. **propose**: proposals are broadcast; a proposal seen `> t` times is
//!    adopted; the count of matching proposals is remembered;
//! 3. **king**: the phase's king broadcasts its value; parties that saw
//!    `< n − t` matching proposals adopt the king's value.
//!
//! With `t < n/3`, at most one value can gather a proposal quorum per
//! phase, and any phase with an honest king ends with all honest parties
//! agreed; `t + 1` phases guarantee an honest king.

use pba_crypto::codec::{CodecError, Decode, Encode, Reader};
use pba_crypto::Digest;
use pba_net::runner::{AdvSender, Adversary};
use pba_net::wire::{step, tag};
use pba_net::{Ctx, Envelope, Machine, PartyId, WireMsg};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::hash::Hash;

/// Value types phase-king can agree on.
pub trait PkValue: Clone + Eq + Hash + Debug + Encode + Decode {}
impl<T: Clone + Eq + Hash + Debug + Encode + Decode> PkValue for T {}

/// A phase-king message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PkMsg<V> {
    /// Round-1 value broadcast.
    Value(V),
    /// Round-2 proposal broadcast.
    Propose(V),
    /// Round-3 king broadcast.
    King(V),
}

impl<V: Encode> Encode for PkMsg<V> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            PkMsg::Value(v) => {
                buf.push(0);
                v.encode(buf);
            }
            PkMsg::Propose(v) => {
                buf.push(1);
                v.encode(buf);
            }
            PkMsg::King(v) => {
                buf.push(2);
                v.encode(buf);
            }
        }
    }
}

impl<V: Decode> Decode for PkMsg<V> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(PkMsg::Value(V::decode(r)?)),
            1 => Ok(PkMsg::Propose(V::decode(r)?)),
            2 => Ok(PkMsg::King(V::decode(r)?)),
            t => Err(CodecError::InvalidTag(t)),
        }
    }
}

impl WireMsg for PkMsg<u8> {
    const TAG: u8 = tag::PK_MSG_U8;
    const STEP: u8 = step::COMMITTEE_BA;
}

impl WireMsg for PkMsg<Digest> {
    const TAG: u8 = tag::PK_MSG_DIGEST;
    const STEP: u8 = step::COMMITTEE_BA;
}

/// Number of synchronous rounds a committee of size `c` needs.
pub fn rounds_for(c: usize) -> u64 {
    let t = max_faults(c);
    3 * (t as u64 + 1) + 1
}

/// Maximum Byzantine faults tolerated by a committee of size `c`.
pub fn max_faults(c: usize) -> usize {
    c.saturating_sub(1) / 3
}

/// The phase-king state machine for one committee member.
///
/// Committee members address each other through the *global* party ids in
/// `committee`; a party appearing multiple times in a committee acts once
/// per seat through separate machines in the caller's bookkeeping (the BA
/// protocol's committees have distinct members, so this does not arise
/// there).
#[derive(Debug)]
pub struct PhaseKing<V> {
    committee: Vec<PartyId>,
    me: PartyId,
    t: usize,
    value: V,
    proposal: Option<V>,
    propose_count: usize,
    decided: bool,
    done: bool,
}

impl<V: PkValue> PhaseKing<V> {
    /// Creates the machine for member `me` of `committee` with input
    /// `value`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is not in the committee or the committee is empty.
    pub fn new(committee: Vec<PartyId>, me: PartyId, value: V) -> Self {
        assert!(!committee.is_empty(), "empty committee");
        assert!(committee.contains(&me), "{me} not in committee");
        let t = max_faults(committee.len());
        PhaseKing {
            committee,
            me,
            t,
            value,
            proposal: None,
            propose_count: 0,
            decided: false,
            done: false,
        }
    }

    /// The decided value, once the protocol has terminated.
    pub fn output(&self) -> Option<&V> {
        self.decided.then_some(&self.value)
    }

    fn broadcast(&self, ctx: &mut Ctx<'_>, msg: &PkMsg<V>)
    where
        PkMsg<V>: WireMsg,
    {
        for &peer in &self.committee {
            if peer != self.me {
                ctx.send_msg(peer, msg);
            }
        }
    }

    /// Tallies one message per committee peer from the inbox, plus the
    /// party's own contribution: each distinct value with its count, in
    /// order of first appearance (delivery order, then the party's own), so
    /// a tie resolves the same way in every run.
    fn tally<F>(
        &mut self,
        ctx: &mut Ctx<'_>,
        inbox: &[Envelope],
        mine: Option<V>,
        pick: F,
    ) -> Vec<(V, usize)>
    where
        F: Fn(PkMsg<V>) -> Option<V>,
        PkMsg<V>: WireMsg,
    {
        let mut counts: Vec<(V, usize)> = Vec::new();
        let mut count = |v: V| match counts.iter_mut().find(|(u, _)| *u == v) {
            Some((_, c)) => *c += 1,
            None => counts.push((v, 1)),
        };
        let mut seen: std::collections::HashSet<PartyId> = Default::default();
        for env in inbox {
            // Dynamic filtering: one message per committee peer per round.
            if !self.committee.contains(&env.from) || !seen.insert(env.from) {
                continue;
            }
            if let Some(msg) = ctx.recv_msg::<PkMsg<V>>(env) {
                if let Some(v) = pick(msg) {
                    count(v);
                }
            }
        }
        if let Some(v) = mine {
            count(v);
        }
        counts
    }
}

impl<V: PkValue> Machine for PhaseKing<V>
where
    PkMsg<V>: WireMsg,
{
    fn on_round(&mut self, ctx: &mut Ctx<'_>, inbox: &[Envelope]) {
        if self.done {
            return;
        }
        let n = self.committee.len();
        let round = ctx.round();
        let phase = (round / 3) as usize;

        // Phase boundary: the previous phase's king message is in the inbox.
        if round % 3 == 0 && phase >= 1 {
            let prev_king = self.committee[(phase - 1) % n];
            if prev_king != self.me {
                for env in inbox {
                    if env.from != prev_king {
                        continue;
                    }
                    if let Some(PkMsg::King(v)) = ctx.recv_msg::<PkMsg<V>>(env) {
                        if self.propose_count < n - self.t {
                            self.value = v;
                        }
                        break;
                    }
                }
            }
        }

        if phase > self.t {
            // All t + 1 phases complete: decide.
            self.decided = true;
            self.done = true;
            return;
        }

        match round % 3 {
            0 => {
                // Round 1 of the phase: broadcast value.
                self.broadcast(ctx, &PkMsg::Value(self.value.clone()));
            }
            1 => {
                // Tally values; propose any (n - t)-quorum value.
                let mine = Some(self.value.clone());
                let counts = self.tally(ctx, inbox, mine, |m| match m {
                    PkMsg::Value(v) => Some(v),
                    _ => None,
                });
                self.proposal = counts
                    .into_iter()
                    .find(|(_, c)| *c >= n - self.t)
                    .map(|(v, _)| v);
                if let Some(p) = &self.proposal {
                    let msg = PkMsg::Propose(p.clone());
                    self.broadcast(ctx, &msg);
                }
            }
            _ => {
                // Tally proposals; adopt a (> t)-supported one; king speaks.
                let counts = self.tally(ctx, inbox, self.proposal.clone(), |m| match m {
                    PkMsg::Propose(v) => Some(v),
                    _ => None,
                });
                // The first value to reach the highest count.
                let (best, best_count) = counts.into_iter().fold((None, 0), |best, (v, c)| {
                    if c > best.1 {
                        (Some(v), c)
                    } else {
                        best
                    }
                });
                if best_count > self.t {
                    self.value = best.expect("count > 0 implies value");
                }
                self.propose_count = best_count;

                let king = self.committee[phase % n];
                if king == self.me {
                    self.broadcast(ctx, &PkMsg::King(self.value.clone()));
                }
            }
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

/// The Byzantine committee strategy: every corrupt committee member
/// equivocates values and proposals and lies as king, sending 0 to
/// even-index peers and 1 to odd ones (and junk to the coin toss rounds).
pub(crate) struct PkEquivocator {
    pub(crate) corrupted: BTreeSet<PartyId>,
    pub(crate) committee: Vec<PartyId>,
}

impl Adversary for PkEquivocator {
    fn corrupted(&self) -> &BTreeSet<PartyId> {
        &self.corrupted
    }
    fn on_round(
        &mut self,
        round: u64,
        _rushed: &BTreeMap<PartyId, Vec<Envelope>>,
        sender: &mut AdvSender<'_>,
    ) {
        for &bad in self.corrupted.iter() {
            if !self.committee.contains(&bad) {
                continue;
            }
            for (j, &peer) in self.committee.iter().enumerate() {
                if self.corrupted.contains(&peer) {
                    continue;
                }
                // Conflicting values per peer in every sub-protocol round.
                let v = (j % 2) as u8;
                let msg = match round % 3 {
                    0 => PkMsg::Value(v),
                    1 => PkMsg::Propose(v),
                    _ => PkMsg::King(v),
                };
                sender.send_msg(bad, peer, &msg);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_net::runner::{run_phase, SilentAdversary};
    use pba_net::Network;

    /// Concrete runner that keeps typed access to the machines.
    fn run_committee_concrete(
        c: usize,
        inputs: &[u8],
        adversary: &mut dyn Adversary,
    ) -> (Vec<Option<u8>>, pba_net::Report) {
        let committee: Vec<PartyId> = (0..c).map(PartyId::from).collect();
        let mut net = Network::new(c);
        let mut typed: BTreeMap<PartyId, PhaseKing<u8>> = BTreeMap::new();
        for (i, &id) in committee.iter().enumerate() {
            if !adversary.corrupted().contains(&id) {
                typed.insert(id, PhaseKing::new(committee.clone(), id, inputs[i]));
            }
        }
        {
            let mut machines: BTreeMap<PartyId, Box<dyn Machine + Send + '_>> = typed
                .iter_mut()
                .map(|(&id, m)| (id, Box::new(m) as Box<dyn Machine + Send + '_>))
                .collect();
            let outcome = run_phase(&mut net, &mut machines, adversary, rounds_for(c) + 6);
            assert!(outcome.completed, "phase-king did not terminate");
        }
        let outputs = committee
            .iter()
            .map(|id| typed.get(id).and_then(|m| m.output().copied()))
            .collect();
        (outputs, net.report())
    }

    #[test]
    fn all_honest_unanimous() {
        let mut adv = SilentAdversary::default();
        let (out, _) = run_committee_concrete(7, &[1; 7], &mut adv);
        assert!(out.iter().all(|o| *o == Some(1)));
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn all_honest_mixed_inputs_agree() {
        let mut adv = SilentAdversary::default();
        let inputs = [0u8, 1, 0, 1, 0, 1, 0, 1, 0, 1];
        let (out, _) = run_committee_concrete(10, &inputs, &mut adv);
        let decided: BTreeSet<u8> = out.iter().flatten().copied().collect();
        assert_eq!(decided.len(), 1, "honest parties disagree: {out:?}");
    }

    #[test]
    fn validity_with_silent_faults() {
        // All honest parties hold 1; t silent corrupt parties.
        for c in [4usize, 7, 10, 13] {
            let t = max_faults(c);
            let corrupt: BTreeSet<PartyId> = (0..t).map(PartyId::from).collect();
            let mut adv = SilentAdversary::new(corrupt.clone());
            let inputs = vec![1u8; c];
            let (out, _) = run_committee_concrete(c, &inputs, &mut adv);
            for (i, o) in out.iter().enumerate() {
                if !corrupt.contains(&PartyId::from(i)) {
                    assert_eq!(*o, Some(1), "c={c} party {i}");
                }
            }
        }
    }

    #[test]
    fn agreement_under_equivocation() {
        for c in [7usize, 10, 13] {
            let t = max_faults(c);
            let committee: Vec<PartyId> = (0..c).map(PartyId::from).collect();
            // Corrupt the *last* t (kings are taken from the front, so the
            // first kings are honest — adversarial kings tested next).
            let corrupted: BTreeSet<PartyId> = (c - t..c).map(PartyId::from).collect();
            let mut adv = PkEquivocator {
                corrupted: corrupted.clone(),
                committee: committee.clone(),
            };
            let inputs: Vec<u8> = (0..c).map(|i| (i % 2) as u8).collect();
            let (out, _) = run_committee_concrete(c, &inputs, &mut adv);
            let decided: BTreeSet<u8> = committee
                .iter()
                .filter(|id| !corrupted.contains(id))
                .map(|id| out[id.index()].expect("honest decided"))
                .collect();
            assert_eq!(decided.len(), 1, "c={c}: honest disagree {out:?}");
        }
    }

    #[test]
    fn agreement_with_corrupt_kings_first() {
        // Corrupt the first t members (the first t kings are Byzantine).
        for c in [7usize, 13] {
            let t = max_faults(c);
            let committee: Vec<PartyId> = (0..c).map(PartyId::from).collect();
            let corrupted: BTreeSet<PartyId> = (0..t).map(PartyId::from).collect();
            let mut adv = PkEquivocator {
                corrupted: corrupted.clone(),
                committee: committee.clone(),
            };
            let inputs: Vec<u8> = (0..c).map(|i| (i % 2) as u8).collect();
            let (out, _) = run_committee_concrete(c, &inputs, &mut adv);
            let decided: BTreeSet<u8> = committee
                .iter()
                .filter(|id| !corrupted.contains(id))
                .map(|id| out[id.index()].expect("honest decided"))
                .collect();
            assert_eq!(decided.len(), 1, "c={c}: honest disagree {out:?}");
        }
    }

    #[test]
    fn validity_under_equivocation_with_unanimous_honest() {
        let c = 10;
        let t = max_faults(c);
        let committee: Vec<PartyId> = (0..c).map(PartyId::from).collect();
        let corrupted: BTreeSet<PartyId> = (c - t..c).map(PartyId::from).collect();
        let mut adv = PkEquivocator {
            corrupted: corrupted.clone(),
            committee,
        };
        let (out, _) = run_committee_concrete(c, &[1u8; 10], &mut adv);
        for (i, o) in out.iter().enumerate().take(c - t) {
            assert_eq!(*o, Some(1), "validity violated at {i}");
        }
    }

    #[test]
    fn communication_quadratic_in_committee_not_more() {
        let mut adv = SilentAdversary::default();
        let c = 13;
        let (_, report) = run_committee_concrete(c, &vec![1u8; c], &mut adv);
        // Each round every member sends ≤ c messages of 4 bytes (2-byte
        // wire header + variant byte + value): total ≤ rounds * c^2 * msg.
        let bound = rounds_for(c) * (c * c) as u64 * 4;
        assert!(
            report.total_bytes <= bound,
            "{} > {bound}",
            report.total_bytes
        );
    }

    #[test]
    fn rounds_and_faults_helpers() {
        assert_eq!(max_faults(4), 1);
        assert_eq!(max_faults(7), 2);
        assert_eq!(max_faults(3), 0);
        assert!(rounds_for(7) >= 9);
    }

    #[test]
    #[should_panic(expected = "not in committee")]
    fn outsider_rejected() {
        PhaseKing::new(vec![PartyId(0)], PartyId(9), 1u8);
    }
}
