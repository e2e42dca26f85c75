//! Composable Byzantine fault-injection strategies.
//!
//! Every strategy here implements [`Adversary`] and is driven by a
//! [`Prg`], so a failing chaos configuration replays bit-for-bit from its
//! seed. Strategies compose: [`Composed`] runs several side by side over a
//! partition of the corrupt set, [`Schedule`] switches strategies per
//! round window, and [`CrashAt`] silences any inner strategy mid-phase.
//!
//! Two layers of API:
//!
//! * the concrete combinators ([`Equivocator`], [`FieldEquivocator`],
//!   [`Garbler`], [`Replayer`], [`Flooder`], [`CrashAt`], [`Composed`],
//!   [`Schedule`]) for hand-assembled attacks;
//! * the declarative [`StrategySpec`] — a cloneable, printable description
//!   that [`StrategySpec::build`]s the combinator tree. Harnesses sweep
//!   over specs, and a violation report prints the spec + seed as the
//!   complete reproduction recipe.
//!
//! Strategies say *how* corrupted parties misbehave; *which* parties are
//! corrupted is the orthogonal [`crate::corruption::CorruptionPlan`] axis.
//! That axis includes an **adaptive post-setup** placement
//! ([`crate::corruption::CorruptionPlan::Adaptive`]) that picks its targets
//! from the established communication tree (ranking nodes by takeover
//! value); because target selection needs the tree, the ranking itself
//! lives in `pba_aetree::analysis` and protocol sessions resolve the plan
//! after establishment — any strategy here can then drive the
//! adaptively-chosen set.

use crate::envelope::{Envelope, PartyId};
use crate::runner::{AdvSender, Adversary, SilentAdversary};
use crate::wire;
use pba_crypto::prg::Prg;
use rand::RngCore;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Sends *different* payloads to different receivers from every corrupted
/// party — the classic equivocation attack against committee broadcast
/// steps.
///
/// Payloads come from a palette cycled by receiver index; with an empty
/// palette, pseudorandom short payloads are drawn from the [`Prg`] (still
/// distinct per receiver with overwhelming probability).
#[derive(Debug)]
pub struct Equivocator {
    corrupted: BTreeSet<PartyId>,
    palette: Vec<Vec<u8>>,
    prg: Prg,
}

impl Equivocator {
    /// Creates an equivocator with pseudorandom payloads.
    pub fn new(corrupted: BTreeSet<PartyId>, prg: Prg) -> Self {
        Equivocator {
            corrupted,
            palette: Vec::new(),
            prg,
        }
    }

    /// Creates an equivocator cycling through the given payload palette
    /// (e.g. the two encodings of conflicting protocol values).
    pub fn with_palette(corrupted: BTreeSet<PartyId>, palette: Vec<Vec<u8>>, prg: Prg) -> Self {
        Equivocator {
            corrupted,
            palette,
            prg,
        }
    }
}

impl Adversary for Equivocator {
    fn corrupted(&self) -> &BTreeSet<PartyId> {
        &self.corrupted
    }

    fn on_round(
        &mut self,
        _round: u64,
        _rushed: &BTreeMap<PartyId, Vec<Envelope>>,
        sender: &mut AdvSender<'_>,
    ) {
        let n = sender.n() as u64;
        let senders: Vec<PartyId> = self.corrupted.iter().copied().collect();
        for bad in senders {
            for to in (0..n).map(PartyId) {
                if self.corrupted.contains(&to) {
                    continue;
                }
                let payload = if self.palette.is_empty() {
                    let len = 1 + self.prg.gen_range(16) as usize;
                    let mut p = vec![0u8; len];
                    self.prg.fill_bytes(&mut p);
                    p
                } else {
                    self.palette[to.index() % self.palette.len()].clone()
                };
                sender.send_raw(bad, to, payload);
            }
        }
    }
}

/// How [`Garbler`] mutates an intercepted payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GarbleMode {
    /// Flip one pseudorandom bit (payload stays almost well-formed).
    BitFlip,
    /// Drop a pseudorandom suffix (stresses length/truncation checks).
    Truncate,
    /// Alternate between bit flips and truncations by round parity.
    Both,
    /// Structure-aware: decode the payload against its registered wire
    /// schema, mutate exactly one typed field, and re-encode
    /// ([`wire::mutate_field`]). The mutant passes the hardened decoder as
    /// the *same* message type with a wrong value, so only semantic checks
    /// (signatures, echo quorums, epoch numbers) can reject it. Untyped or
    /// unparseable payloads fall back to a bit flip.
    Field,
}

/// Intercepts the honest messages rushed to corrupted parties, mutates
/// them (bit-flip / truncate / typed-field), and forwards the mutants to
/// honest receivers — *almost*-well-formed bytes that exercise every
/// decode surface far more sharply than uniform noise.
#[derive(Debug)]
pub struct Garbler {
    corrupted: BTreeSet<PartyId>,
    mode: GarbleMode,
    prg: Prg,
}

impl Garbler {
    /// Creates a garbler with the given mutation mode.
    pub fn new(corrupted: BTreeSet<PartyId>, mode: GarbleMode, prg: Prg) -> Self {
        Garbler {
            corrupted,
            mode,
            prg,
        }
    }

    fn mutate(&mut self, payload: &[u8], round: u64) -> Vec<u8> {
        let mut out = payload.to_vec();
        if out.is_empty() {
            return vec![self.prg.gen_range(256) as u8];
        }
        let flip = match self.mode {
            GarbleMode::BitFlip => true,
            GarbleMode::Truncate => false,
            GarbleMode::Both => round.is_multiple_of(2),
            GarbleMode::Field => match wire::mutate_field(&out, &mut self.prg) {
                Some(mutant) => return mutant,
                // Untyped / unparseable payload: no schema to aim at.
                None => true,
            },
        };
        if flip {
            let byte = self.prg.gen_range(out.len() as u64) as usize;
            let bit = self.prg.gen_range(8) as u8;
            out[byte] ^= 1 << bit;
        } else {
            let keep = self.prg.gen_range(out.len() as u64) as usize;
            out.truncate(keep);
        }
        out
    }
}

impl Adversary for Garbler {
    fn corrupted(&self) -> &BTreeSet<PartyId> {
        &self.corrupted
    }

    fn on_round(
        &mut self,
        round: u64,
        rushed: &BTreeMap<PartyId, Vec<Envelope>>,
        sender: &mut AdvSender<'_>,
    ) {
        let n = sender.n() as u64;
        let intercepted: Vec<Envelope> = rushed.values().flatten().cloned().collect();
        for env in intercepted {
            // `rushed` keys are the corrupted receivers; the interceptor
            // re-sends under its own (authenticated) identity.
            let bad = env.to;
            if !self.corrupted.contains(&bad) {
                continue;
            }
            let mutant = self.mutate(&env.payload, round);
            // Reflect the mutant back at the honest sender and at one
            // pseudorandom other honest party.
            sender.send_raw(bad, env.from, mutant.clone());
            let other = PartyId(self.prg.gen_range(n));
            if !self.corrupted.contains(&other) && other != env.from {
                sender.send_raw(bad, other, mutant);
            }
        }
    }
}

/// Typed equivocation: intercepts a rushed typed message and *forks* it —
/// one pseudorandom honest party receives the original encoding, another
/// receives a structure-aware mutant of it ([`wire::mutate_field`]): the
/// same message type with exactly one field changed. Both sides of the
/// fork pass the hardened decoder, so unlike the byte-level
/// [`Equivocator`] the lie survives until a semantic check (signature,
/// echo quorum, epoch) compares values across receivers. Untyped payloads
/// are forked against pseudorandom bytes instead.
#[derive(Debug)]
pub struct FieldEquivocator {
    corrupted: BTreeSet<PartyId>,
    prg: Prg,
}

impl FieldEquivocator {
    /// Creates a typed equivocator.
    pub fn new(corrupted: BTreeSet<PartyId>, prg: Prg) -> Self {
        FieldEquivocator { corrupted, prg }
    }
}

impl Adversary for FieldEquivocator {
    fn corrupted(&self) -> &BTreeSet<PartyId> {
        &self.corrupted
    }

    fn on_round(
        &mut self,
        _round: u64,
        rushed: &BTreeMap<PartyId, Vec<Envelope>>,
        sender: &mut AdvSender<'_>,
    ) {
        let honest: Vec<PartyId> = (0..sender.n() as u64)
            .map(PartyId)
            .filter(|p| !self.corrupted.contains(p))
            .collect();
        if honest.len() < 2 {
            return;
        }
        let intercepted: Vec<Envelope> = rushed.values().flatten().cloned().collect();
        for env in intercepted {
            // `rushed` keys are the corrupted receivers; the interceptor
            // re-sends under its own (authenticated) identity.
            let bad = env.to;
            if !self.corrupted.contains(&bad) {
                continue;
            }
            let fork = wire::mutate_field(&env.payload, &mut self.prg).unwrap_or_else(|| {
                // No schema to fork against: equivocate with pseudorandom
                // bytes, as the byte-level Equivocator would.
                let len = 1 + self.prg.gen_range(16) as usize;
                let mut p = vec![0u8; len];
                self.prg.fill_bytes(&mut p);
                p
            });
            // Two distinct honest receivers see the two sides of the fork.
            let a = self.prg.gen_range(honest.len() as u64) as usize;
            let b = (a + 1 + self.prg.gen_range(honest.len() as u64 - 1) as usize) % honest.len();
            sender.send_raw(bad, honest[a], env.payload.clone());
            sender.send_raw(bad, honest[b], fork);
        }
    }
}

/// Records every payload rushed through corrupted parties and replays a
/// pseudorandom sample of the backlog each later round — stale-state /
/// cross-round replay attacks (epoch and freshness checks must hold).
#[derive(Debug)]
pub struct Replayer {
    corrupted: BTreeSet<PartyId>,
    backlog: Vec<Vec<u8>>,
    per_round: usize,
    prg: Prg,
}

impl Replayer {
    /// Creates a replayer resending up to `per_round` stale payloads per
    /// corrupted party per round.
    pub fn new(corrupted: BTreeSet<PartyId>, per_round: usize, prg: Prg) -> Self {
        Replayer {
            corrupted,
            backlog: Vec::new(),
            per_round,
            prg,
        }
    }
}

impl Adversary for Replayer {
    fn corrupted(&self) -> &BTreeSet<PartyId> {
        &self.corrupted
    }

    fn on_round(
        &mut self,
        _round: u64,
        rushed: &BTreeMap<PartyId, Vec<Envelope>>,
        sender: &mut AdvSender<'_>,
    ) {
        let honest: Vec<PartyId> = (0..sender.n() as u64)
            .map(PartyId)
            .filter(|p| !self.corrupted.contains(p))
            .collect();
        let senders: Vec<PartyId> = self.corrupted.iter().copied().collect();
        for bad in senders {
            for _ in 0..self.per_round {
                if self.backlog.is_empty() || honest.is_empty() {
                    break;
                }
                let idx = self.prg.gen_range(self.backlog.len() as u64) as usize;
                let target = honest[self.prg.gen_range(honest.len() as u64) as usize];
                sender.send_raw(bad, target, self.backlog[idx].clone());
            }
        }
        // Record *after* replaying: payloads resurface in later rounds,
        // never in the round they were first seen.
        for env in rushed.values().flatten() {
            self.backlog.push(env.payload.clone());
        }
        // Bound adversary memory.
        if self.backlog.len() > 4096 {
            let excess = self.backlog.len() - 4096;
            self.backlog.drain(..excess);
        }
    }
}

/// Targeted bandwidth exhaustion: every corrupted party slams one honest
/// victim with `per_round` payloads of `payload_len` bytes each round.
/// Under dynamic filtering the victim must stay cheap — the chaos sweep
/// asserts its *processed* bytes stay bounded.
#[derive(Debug)]
pub struct Flooder {
    corrupted: BTreeSet<PartyId>,
    victim: PartyId,
    payload_len: usize,
    per_round: usize,
    prg: Prg,
}

impl Flooder {
    /// Creates a flooder aimed at `victim`.
    pub fn new(
        corrupted: BTreeSet<PartyId>,
        victim: PartyId,
        payload_len: usize,
        per_round: usize,
        prg: Prg,
    ) -> Self {
        Flooder {
            corrupted,
            victim,
            payload_len,
            per_round,
            prg,
        }
    }

    /// The flooded party.
    pub fn victim(&self) -> PartyId {
        self.victim
    }
}

impl Adversary for Flooder {
    fn corrupted(&self) -> &BTreeSet<PartyId> {
        &self.corrupted
    }

    fn on_round(
        &mut self,
        _round: u64,
        _rushed: &BTreeMap<PartyId, Vec<Envelope>>,
        sender: &mut AdvSender<'_>,
    ) {
        if self.corrupted.contains(&self.victim) || self.victim.index() >= sender.n() {
            return;
        }
        let senders: Vec<PartyId> = self.corrupted.iter().copied().collect();
        for bad in senders {
            for _ in 0..self.per_round {
                let mut payload = vec![0u8; self.payload_len];
                self.prg.fill_bytes(&mut payload);
                sender.send_raw(bad, self.victim, payload);
            }
        }
    }
}

/// Runs an inner strategy until round `round`, then the corrupted parties
/// crash (fall permanently silent) — fail-stop mid-phase.
#[derive(Debug)]
pub struct CrashAt<A> {
    inner: A,
    round: u64,
}

impl<A: Adversary> CrashAt<A> {
    /// Crashes `inner`'s parties at the start of `round` (0-based within
    /// each phase).
    pub fn new(inner: A, round: u64) -> Self {
        CrashAt { inner, round }
    }
}

impl<A: Adversary> Adversary for CrashAt<A> {
    fn corrupted(&self) -> &BTreeSet<PartyId> {
        self.inner.corrupted()
    }

    fn on_round(
        &mut self,
        round: u64,
        rushed: &BTreeMap<PartyId, Vec<Envelope>>,
        sender: &mut AdvSender<'_>,
    ) {
        if round < self.round {
            self.inner.on_round(round, rushed, sender);
        }
    }
}

/// Runs several strategies side by side; the corrupt set is their union.
///
/// Each sub-strategy only observes rushed traffic addressed to *its own*
/// corrupted parties and only speaks through them, so e.g. half the
/// corrupt set can equivocate while the other half floods a victim.
pub struct Composed {
    parts: Vec<Box<dyn Adversary>>,
    union: BTreeSet<PartyId>,
}

impl Composed {
    /// Composes the given strategies.
    pub fn new(parts: Vec<Box<dyn Adversary>>) -> Self {
        let union = parts
            .iter()
            .flat_map(|p| p.corrupted().iter().copied())
            .collect();
        Composed { parts, union }
    }
}

impl fmt::Debug for Composed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Composed")
            .field("parts", &self.parts.len())
            .field("union", &self.union)
            .finish()
    }
}

impl Adversary for Composed {
    fn corrupted(&self) -> &BTreeSet<PartyId> {
        &self.union
    }

    fn on_round(
        &mut self,
        round: u64,
        rushed: &BTreeMap<PartyId, Vec<Envelope>>,
        sender: &mut AdvSender<'_>,
    ) {
        for part in &mut self.parts {
            let own: BTreeMap<PartyId, Vec<Envelope>> = rushed
                .iter()
                .filter(|(id, _)| part.corrupted().contains(id))
                .map(|(&id, envs)| (id, envs.clone()))
                .collect();
            part.on_round(round, &own, sender);
        }
    }
}

/// Activates strategies by round window: entry `(start, strategy)` runs
/// for rounds `start..next_start` (entries sorted by `start`; the last
/// runs to the end of the phase). Rounds before the first entry are
/// silent.
pub struct Schedule {
    entries: Vec<(u64, Box<dyn Adversary>)>,
    union: BTreeSet<PartyId>,
}

impl Schedule {
    /// Creates a schedule; entries need not be pre-sorted.
    pub fn new(mut entries: Vec<(u64, Box<dyn Adversary>)>) -> Self {
        entries.sort_by_key(|(start, _)| *start);
        let union = entries
            .iter()
            .flat_map(|(_, a)| a.corrupted().iter().copied())
            .collect();
        Schedule { entries, union }
    }
}

impl fmt::Debug for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let starts: Vec<u64> = self.entries.iter().map(|(s, _)| *s).collect();
        f.debug_struct("Schedule")
            .field("starts", &starts)
            .field("union", &self.union)
            .finish()
    }
}

impl Adversary for Schedule {
    fn corrupted(&self) -> &BTreeSet<PartyId> {
        &self.union
    }

    fn on_round(
        &mut self,
        round: u64,
        rushed: &BTreeMap<PartyId, Vec<Envelope>>,
        sender: &mut AdvSender<'_>,
    ) {
        let active = self
            .entries
            .iter_mut()
            .take_while(|(start, _)| *start <= round)
            .last();
        if let Some((_, strategy)) = active {
            strategy.on_round(round, rushed, sender);
        }
    }
}

/// A seeded per-link latency distribution: how many *ticks* (delivery
/// sub-rounds of the partial-synchrony driver) a message spends in
/// flight. Sampling is a pure function of the [`Prg`] handed in, so the
/// schedule replays bit-for-bit from the timing key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LatencyDist {
    /// Every message takes exactly `delay` ticks.
    Fixed {
        /// The constant delay.
        delay: u64,
    },
    /// Uniform over `0..=max` ticks.
    Uniform {
        /// The inclusive maximum delay.
        max: u64,
    },
    /// Geometric: each extra tick of delay occurs with probability
    /// `num/den`, capped at `cap` ticks (the heavy-tail shape of queueing
    /// delay, truncated so schedules stay bounded).
    Geometric {
        /// Numerator of the per-tick continuation probability.
        num: u64,
        /// Denominator of the per-tick continuation probability (`>= 1`).
        den: u64,
        /// Inclusive maximum delay.
        cap: u64,
    },
}

impl LatencyDist {
    /// Draws one delay from the distribution.
    pub fn sample(&self, prg: &mut Prg) -> u64 {
        match self {
            LatencyDist::Fixed { delay } => *delay,
            LatencyDist::Uniform { max } => prg.gen_range(max + 1),
            LatencyDist::Geometric { num, den, cap } => {
                let mut d = 0;
                while d < *cap && prg.gen_range((*den).max(1)) < *num {
                    d += 1;
                }
                d
            }
        }
    }

    /// The largest delay the distribution can produce.
    pub fn max_delay(&self) -> u64 {
        match self {
            LatencyDist::Fixed { delay } => *delay,
            LatencyDist::Uniform { max } => *max,
            LatencyDist::Geometric { cap, .. } => *cap,
        }
    }

    fn label(&self) -> String {
        match self {
            LatencyDist::Fixed { delay } => format!("fix{delay}"),
            LatencyDist::Uniform { max } => format!("uni{max}"),
            LatencyDist::Geometric { num, den, cap } => format!("geo{num}of{den}c{cap}"),
        }
    }
}

/// The *timing* half of a fault strategy, extracted by
/// [`StrategySpec::timing_model`] and installed on the
/// [`crate::network::Network`] ([`crate::network::Network::set_timing`]).
///
/// All three axes are pure functions of `(key, link, tick)` — the model
/// holds no mutable state — so the delay queue behaves identically under
/// the sequential and threaded round engines:
///
/// * **latency** — per-link delays drawn from a [`LatencyDist`] through a
///   per-`(from, to, tick)` child PRG of the timing key;
/// * **partition** — an *asymmetric* cut: messages from parties
///   `>= split` to parties `< split` are dropped until the heal tick
///   (`None` = never heals). The reverse direction stays up, modelling
///   one-way reachability loss;
/// * **churn** — crash-recovery windows `(party, down, up)`: the party is
///   offline for ticks `down..up` (not stepped; mail expiring there is
///   lost) and rejoins at `up` with whatever state it had, resyncing from
///   the traffic and certificates it receives afterwards.
///
/// The model also owns the round engine's partial-synchrony parameters,
/// so they stay with the delay queue they describe:
///
/// * **window** — delivery ticks per machine round, given with the
///   latency axis (1, lockstep, without one). A delay `<= window - 1`
///   arrives in the next machine round; longer ones straggle or expire;
/// * **slack** — extra machine rounds every phase is granted so heal and
///   rejoin events scheduled in tick time land inside it:
///   `max(heal, rejoin)` ticks over the window, rounded up, capped at 64.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimingModel {
    key: [u8; 32],
    latency: Option<LatencyDist>,
    window: u64,
    partition: Option<(u64, Option<u64>)>,
    churn: Vec<(PartyId, u64, u64)>,
}

impl TimingModel {
    /// Assembles a model directly (harness/test entry point —
    /// [`StrategySpec::timing_model`] is the production path). `latency`
    /// pairs the delay distribution with its delivery window in ticks per
    /// machine round (a window of 0 counts as 1).
    pub fn new(
        key: [u8; 32],
        latency: Option<(LatencyDist, u64)>,
        partition: Option<(u64, Option<u64>)>,
        churn: Vec<(PartyId, u64, u64)>,
    ) -> Self {
        TimingModel {
            key,
            latency: latency.map(|(dist, _)| dist),
            window: latency.map_or(1, |(_, window)| window.max(1)),
            partition,
            churn,
        }
    }

    /// Delivery ticks the round engine opens per machine round.
    pub(crate) fn window(&self) -> u64 {
        self.window
    }

    /// Extra machine rounds the round engine grants every phase, so a
    /// healing partition or a rejoining churn victim can still catch up.
    pub(crate) fn slack(&self) -> u64 {
        let heal = self.partition.and_then(|(_, heal)| heal).unwrap_or(0);
        let rejoin = self.churn.iter().map(|&(_, _, up)| up).max().unwrap_or(0);
        heal.max(rejoin).div_ceil(self.window).min(64)
    }

    /// The delay (in ticks) of a message staged on `from -> to` at `tick`
    /// — a pure function of `(key, from, to, tick)`, identical however
    /// many worker threads ran the machines.
    pub fn delay(&self, from: PartyId, to: PartyId, tick: u64) -> u64 {
        let Some(dist) = &self.latency else {
            return 0;
        };
        let mut seed = Vec::with_capacity(56);
        seed.extend_from_slice(&self.key);
        seed.extend_from_slice(&from.0.to_le_bytes());
        seed.extend_from_slice(&to.0.to_le_bytes());
        seed.extend_from_slice(&tick.to_le_bytes());
        let mut prg = Prg::from_seed_label(&seed, "link-delay");
        dist.sample(&mut prg)
    }

    /// True when the partition drops `from -> to` traffic at `tick`.
    pub fn blocked(&self, from: PartyId, to: PartyId, tick: u64) -> bool {
        match self.partition {
            Some((split, heal)) => from.0 >= split && to.0 < split && heal.is_none_or(|h| tick < h),
            None => false,
        }
    }

    /// True when `p` is inside one of its crash windows at `tick`.
    pub fn offline(&self, p: PartyId, tick: u64) -> bool {
        self.churn
            .iter()
            .any(|&(q, down, up)| q == p && down <= tick && tick < up)
    }

    /// Every party offline at `tick`.
    pub fn offline_parties(&self, tick: u64) -> BTreeSet<PartyId> {
        self.churn
            .iter()
            .filter(|&&(_, down, up)| down <= tick && tick < up)
            .map(|&(p, _, _)| p)
            .collect()
    }

    /// The largest latency the model can assign (0 without a latency
    /// axis).
    pub fn max_delay(&self) -> u64 {
        self.latency.as_ref().map_or(0, |d| d.max_delay())
    }
}

/// A declarative, printable description of a fault-injection strategy —
/// the unit the chaos sweep enumerates. `Debug`-printing a spec together
/// with the seed and corruption plan is a complete reproduction recipe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StrategySpec {
    /// Corrupted parties stay silent (crash faults from round 0).
    Silent,
    /// [`Equivocator`] with pseudorandom payloads.
    Equivocate,
    /// [`FieldEquivocator`] forking one typed field of rushed messages.
    EquivocateTyped,
    /// [`Garbler`] with the given mutation mode.
    Garble(GarbleMode),
    /// [`Replayer`] with the given replay rate.
    Replay {
        /// Stale payloads re-sent per corrupted party per round.
        per_round: usize,
    },
    /// [`Flooder`] aimed at the honest party with the lowest id unless a
    /// victim is pinned.
    Flood {
        /// Victim party (ignored if corrupted; `None` = lowest honest id).
        victim: Option<PartyId>,
        /// Payload size per flood message.
        payload_len: usize,
        /// Flood messages per corrupted party per round.
        per_round: usize,
    },
    /// [`CrashAt`] wrapping an inner spec.
    CrashAt {
        /// The behaviour before the crash.
        inner: Box<StrategySpec>,
        /// Crash round (0-based within each phase).
        round: u64,
    },
    /// [`Composed`] over the sub-specs, splitting the corrupt set evenly
    /// between them (round-robin by corrupted-party rank).
    Compose(Vec<StrategySpec>),
    /// [`Schedule`] switching specs at the given round offsets.
    Phased(Vec<(u64, StrategySpec)>),
    /// Timing fault: seeded per-link latency. Content-side the corrupted
    /// parties stay silent; the timing side installs `dist` as the
    /// [`TimingModel`] latency axis with a partial-synchrony window of
    /// `budget` ticks per machine round — delays `<= budget - 1` arrive in
    /// the next machine round, longer ones straggle into later rounds or
    /// expire. The window belongs to the installed model, so it holds for
    /// the establishment's lifetime whatever spec is armed later.
    Delay {
        /// Per-link delay distribution.
        dist: LatencyDist,
        /// Delivery ticks per machine round (`>= 1`).
        budget: u64,
    },
    /// Timing fault: an asymmetric partition. Messages from parties
    /// `>= split` to parties `< split` are dropped until tick `heal_at`
    /// (`None` = the cut never heals).
    Partition {
        /// Boundary party id of the cut.
        split: u64,
        /// Healing tick, or `None` for a permanent cut.
        heal_at: Option<u64>,
    },
    /// Timing fault: crash-recovery churn. The first `count` *honest*
    /// parties crash at tick `down` and rejoin at tick `up` with stale
    /// state, resyncing from the traffic and certificates they receive
    /// after rejoining.
    Churn {
        /// How many honest parties churn.
        count: usize,
        /// Crash tick (inclusive).
        down: u64,
        /// Rejoin tick (exclusive end of the offline window).
        up: u64,
    },
}

impl StrategySpec {
    /// A canonical catalogue of single and composed strategies for
    /// sweeps.
    pub fn catalogue() -> Vec<StrategySpec> {
        use StrategySpec::*;
        vec![
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
            CrashAt {
                inner: Box::new(Equivocate),
                round: 4,
            },
            Compose(vec![
                Equivocate,
                Flood {
                    victim: None,
                    payload_len: 256,
                    per_round: 4,
                },
            ]),
            Phased(vec![
                (0, Garble(GarbleMode::BitFlip)),
                (3, Equivocate),
                (8, Replay { per_round: 2 }),
            ]),
            Delay {
                dist: LatencyDist::Uniform { max: 1 },
                budget: 2,
            },
            Delay {
                dist: LatencyDist::Uniform { max: 3 },
                budget: 4,
            },
            Delay {
                dist: LatencyDist::Geometric {
                    num: 1,
                    den: 2,
                    cap: 3,
                },
                budget: 4,
            },
            Partition {
                split: 24,
                heal_at: Some(4),
            },
            Churn {
                count: 2,
                down: 2,
                up: 10,
            },
        ]
    }

    /// Builds the adversary controlling `corrupted` on an `n`-party
    /// network, deterministically from `prg`.
    pub fn build(&self, corrupted: BTreeSet<PartyId>, n: usize, prg: &Prg) -> Box<dyn Adversary> {
        match self {
            StrategySpec::Silent => Box::new(SilentAdversary::new(corrupted)),
            StrategySpec::Equivocate => {
                Box::new(Equivocator::new(corrupted, prg.child("equivocate", 0)))
            }
            StrategySpec::EquivocateTyped => Box::new(FieldEquivocator::new(
                corrupted,
                prg.child("equivocate-typed", 0),
            )),
            StrategySpec::Garble(mode) => {
                Box::new(Garbler::new(corrupted, *mode, prg.child("garble", 0)))
            }
            StrategySpec::Replay { per_round } => {
                Box::new(Replayer::new(corrupted, *per_round, prg.child("replay", 0)))
            }
            StrategySpec::Flood {
                victim,
                payload_len,
                per_round,
            } => {
                let victim = (*victim)
                    .filter(|v| !corrupted.contains(v) && v.index() < n)
                    .or_else(|| (0..n as u64).map(PartyId).find(|p| !corrupted.contains(p)))
                    .unwrap_or(PartyId(0));
                Box::new(Flooder::new(
                    corrupted,
                    victim,
                    *payload_len,
                    *per_round,
                    prg.child("flood", 0),
                ))
            }
            StrategySpec::CrashAt { inner, round } => Box::new(CrashAt::new(
                BoxedAdversary(inner.build(corrupted, n, &prg.child("crash-inner", 0))),
                *round,
            )),
            StrategySpec::Compose(parts) => {
                let ids: Vec<PartyId> = corrupted.iter().copied().collect();
                let built = parts
                    .iter()
                    .enumerate()
                    .map(|(i, spec)| {
                        let share: BTreeSet<PartyId> = ids
                            .iter()
                            .enumerate()
                            .filter(|(rank, _)| rank % parts.len() == i)
                            .map(|(_, &p)| p)
                            .collect();
                        spec.build(share, n, &prg.child("compose", i as u64))
                    })
                    .collect();
                Box::new(Composed::new(built))
            }
            StrategySpec::Phased(entries) => {
                let built = entries
                    .iter()
                    .enumerate()
                    .map(|(i, (start, spec))| {
                        (
                            *start,
                            spec.build(corrupted.clone(), n, &prg.child("phased", i as u64)),
                        )
                    })
                    .collect();
                Box::new(Schedule::new(built))
            }
            // Pure timing strategies have no content-side behaviour: their
            // corrupted share (if any) stays silent, and the timing axes
            // are installed on the network via [`StrategySpec::timing_model`].
            StrategySpec::Delay { .. }
            | StrategySpec::Partition { .. }
            | StrategySpec::Churn { .. } => Box::new(SilentAdversary::new(corrupted)),
        }
    }

    /// Extracts the timing half of the spec, or `None` when the spec has
    /// no timing axis. `corrupted` and `n` resolve churn victims (the
    /// first `count` honest ids — churn models *honest* crash-recovery,
    /// never extra adversarial power), and `prg` derives the timing key
    /// that seeds every per-link delay draw. [`StrategySpec::CrashAt`] and
    /// [`StrategySpec::Compose`] recurse; [`StrategySpec::Phased`] does
    /// not (its schedule already reinterprets rounds, and nesting the two
    /// clocks would make windows unreadable). The last
    /// [`StrategySpec::Delay`] in the tree supplies the latency axis
    /// together with its window.
    pub fn timing_model(
        &self,
        corrupted: &BTreeSet<PartyId>,
        n: usize,
        prg: &Prg,
    ) -> Option<TimingModel> {
        let mut latency = None;
        let mut partition = None;
        let mut churn = Vec::new();
        self.collect_timing(corrupted, n, &mut latency, &mut partition, &mut churn);
        if latency.is_none() && partition.is_none() && churn.is_empty() {
            return None;
        }
        let mut key = [0u8; 32];
        prg.child("timing-key", 0).fill_bytes(&mut key);
        Some(TimingModel::new(key, latency, partition, churn))
    }

    fn collect_timing(
        &self,
        corrupted: &BTreeSet<PartyId>,
        n: usize,
        latency: &mut Option<(LatencyDist, u64)>,
        partition: &mut Option<(u64, Option<u64>)>,
        churn: &mut Vec<(PartyId, u64, u64)>,
    ) {
        match self {
            StrategySpec::Delay { dist, budget } => *latency = Some((*dist, *budget)),
            StrategySpec::Partition { split, heal_at } => *partition = Some((*split, *heal_at)),
            StrategySpec::Churn { count, down, up } => {
                let victims = (0..n as u64)
                    .map(PartyId)
                    .filter(|p| !corrupted.contains(p))
                    .take(*count);
                churn.extend(victims.map(|p| (p, *down, *up)));
            }
            StrategySpec::CrashAt { inner, .. } => {
                inner.collect_timing(corrupted, n, latency, partition, churn);
            }
            StrategySpec::Compose(parts) => {
                for part in parts {
                    part.collect_timing(corrupted, n, latency, partition, churn);
                }
            }
            _ => {}
        }
    }

    /// A short stable label for tables and repro lines.
    pub fn label(&self) -> String {
        match self {
            StrategySpec::Silent => "silent".into(),
            StrategySpec::Equivocate => "equivocate".into(),
            StrategySpec::EquivocateTyped => "equivocate-typed".into(),
            StrategySpec::Garble(GarbleMode::BitFlip) => "garble-bitflip".into(),
            StrategySpec::Garble(GarbleMode::Truncate) => "garble-truncate".into(),
            StrategySpec::Garble(GarbleMode::Both) => "garble-both".into(),
            StrategySpec::Garble(GarbleMode::Field) => "garble-field".into(),
            StrategySpec::Replay { per_round } => format!("replay-{per_round}"),
            StrategySpec::Flood {
                payload_len,
                per_round,
                ..
            } => format!("flood-{payload_len}x{per_round}"),
            StrategySpec::CrashAt { inner, round } => {
                format!("crash@{round}({})", inner.label())
            }
            StrategySpec::Compose(parts) => {
                let labels: Vec<String> = parts.iter().map(|p| p.label()).collect();
                format!("compose[{}]", labels.join("+"))
            }
            StrategySpec::Phased(entries) => {
                let labels: Vec<String> = entries
                    .iter()
                    .map(|(r, s)| format!("{r}:{}", s.label()))
                    .collect();
                format!("phased[{}]", labels.join(","))
            }
            StrategySpec::Delay { dist, budget } => {
                format!("delay-{}-b{budget}", dist.label())
            }
            StrategySpec::Partition { split, heal_at } => match heal_at {
                Some(h) => format!("partition-{split}-heal{h}"),
                None => format!("partition-{split}-forever"),
            },
            StrategySpec::Churn { count, down, up } => {
                format!("churn-{count}@{down}-{up}")
            }
        }
    }
}

/// Adapter giving a boxed adversary a by-value [`Adversary`] impl (for
/// wrapping inside generic combinators like [`CrashAt`]).
struct BoxedAdversary(Box<dyn Adversary>);

impl fmt::Debug for BoxedAdversary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("BoxedAdversary")
            .field(self.0.corrupted())
            .finish()
    }
}

impl Adversary for BoxedAdversary {
    fn corrupted(&self) -> &BTreeSet<PartyId> {
        self.0.corrupted()
    }
    fn on_round(
        &mut self,
        round: u64,
        rushed: &BTreeMap<PartyId, Vec<Envelope>>,
        sender: &mut AdvSender<'_>,
    ) {
        self.0.on_round(round, rushed, sender);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use crate::runner::{run_phase, Machine};
    use pba_crypto::codec::encode_to_vec;

    /// An honest machine: broadcasts its id every round, records the
    /// distinct payloads it processed, done after 5 rounds.
    struct Echo {
        id: PartyId,
        n: u64,
        seen: BTreeSet<Vec<u8>>,
        rounds: u64,
    }

    impl Machine for Echo {
        fn on_round(&mut self, ctx: &mut crate::network::Ctx<'_>, inbox: &[Envelope]) {
            for env in inbox {
                if let Some(v) = ctx.read::<Vec<u8>>(env) {
                    self.seen.insert(v);
                }
            }
            for to in (0..self.n).map(PartyId) {
                if to != self.id {
                    ctx.send(to, &vec![self.id.0 as u8]);
                }
            }
            self.rounds += 1;
        }
        fn is_done(&self) -> bool {
            self.rounds >= 5
        }
    }

    fn run_spec(spec: &StrategySpec, n: u64, corrupt: &[u64]) -> Network {
        let corrupted: BTreeSet<PartyId> = corrupt.iter().copied().map(PartyId).collect();
        let mut adversary = spec.build(corrupted.clone(), n as usize, &Prg::from_seed_bytes(b"f"));
        let mut net = Network::new(n as usize);
        let mut machines: BTreeMap<PartyId, Box<dyn Machine + Send>> = (0..n)
            .map(PartyId)
            .filter(|i| !corrupted.contains(i))
            .map(|i| {
                (
                    i,
                    Box::new(Echo {
                        id: i,
                        n,
                        seen: BTreeSet::new(),
                        rounds: 0,
                    }) as Box<dyn Machine + Send>,
                )
            })
            .collect();
        let out = run_phase(&mut net, &mut machines, adversary.as_mut(), 10);
        assert!(out.completed, "{} hung the echo phase", spec.label());
        net
    }

    #[test]
    fn catalogue_runs_against_echo_machines() {
        for spec in StrategySpec::catalogue() {
            run_spec(&spec, 6, &[4, 5]);
        }
    }

    #[test]
    fn equivocator_sends_distinct_payloads() {
        let corrupted: BTreeSet<PartyId> = [PartyId(3)].into();
        let mut adv = Equivocator::new(corrupted.clone(), Prg::from_seed_bytes(b"e"));
        let mut net = Network::new(4);
        {
            let mut sender = AdvSender::new(&mut net, &corrupted);
            adv.on_round(0, &BTreeMap::new(), &mut sender);
        }
        let staged = net.take_staged();
        assert_eq!(staged.len(), 3);
        let payloads: BTreeSet<&[u8]> = staged.iter().map(|e| e.payload.as_slice()).collect();
        assert!(payloads.len() > 1, "equivocator sent uniform payloads");
    }

    #[test]
    fn equivocator_palette_cycles_by_receiver() {
        let corrupted: BTreeSet<PartyId> = [PartyId(3)].into();
        let palette = vec![vec![0u8], vec![1u8]];
        let mut adv =
            Equivocator::with_palette(corrupted.clone(), palette, Prg::from_seed_bytes(b"e"));
        let mut net = Network::new(4);
        {
            let mut sender = AdvSender::new(&mut net, &corrupted);
            adv.on_round(0, &BTreeMap::new(), &mut sender);
        }
        for env in net.take_staged() {
            assert_eq!(env.payload, vec![(env.to.index() % 2) as u8]);
        }
    }

    #[test]
    fn garbler_mutants_differ_from_original() {
        let corrupted: BTreeSet<PartyId> = [PartyId(2)].into();
        let mut adv = Garbler::new(
            corrupted.clone(),
            GarbleMode::Both,
            Prg::from_seed_bytes(b"g"),
        );
        let original = encode_to_vec(&42u64);
        let mut net = Network::new(3);
        let rushed: BTreeMap<PartyId, Vec<Envelope>> = [(
            PartyId(2),
            vec![Envelope::new(PartyId(0), PartyId(2), original.clone())],
        )]
        .into();
        {
            let mut sender = AdvSender::new(&mut net, &corrupted);
            adv.on_round(0, &rushed, &mut sender);
        }
        let staged = net.take_staged();
        assert!(!staged.is_empty());
        for env in &staged {
            assert_ne!(env.payload, original, "garbler forwarded unmodified bytes");
        }
    }

    /// A wire-valid `SampleResponse` payload: `{tag, step}` header plus a
    /// one-byte body — the smallest registered schema to mutate against.
    fn typed_payload() -> Vec<u8> {
        vec![
            crate::wire::tag::SAMPLE_RESPONSE,
            crate::wire::step::NONE,
            0x07,
        ]
    }

    #[test]
    fn field_garbler_mutants_stay_wire_valid() {
        let corrupted: BTreeSet<PartyId> = [PartyId(2)].into();
        let mut adv = Garbler::new(
            corrupted.clone(),
            GarbleMode::Field,
            Prg::from_seed_bytes(b"gf"),
        );
        let original = typed_payload();
        let mut net = Network::new(4);
        let rushed: BTreeMap<PartyId, Vec<Envelope>> = [(
            PartyId(2),
            vec![Envelope::new(PartyId(0), PartyId(2), original.clone())],
        )]
        .into();
        {
            let mut sender = AdvSender::new(&mut net, &corrupted);
            adv.on_round(0, &rushed, &mut sender);
        }
        let staged = net.take_staged();
        assert!(!staged.is_empty());
        for env in &staged {
            assert_ne!(
                env.payload, original,
                "field garbler forwarded unmodified bytes"
            );
            assert_eq!(
                &env.payload[..2],
                &original[..2],
                "field mutation must keep the wire header"
            );
            assert_eq!(
                crate::wire::peek_tag(&env.payload),
                crate::wire::tag::SAMPLE_RESPONSE,
                "field mutant no longer classifies as its message type"
            );
        }
    }

    #[test]
    fn field_garbler_falls_back_to_bitflip_on_untyped_bytes() {
        let corrupted: BTreeSet<PartyId> = [PartyId(2)].into();
        let mut adv = Garbler::new(
            corrupted.clone(),
            GarbleMode::Field,
            Prg::from_seed_bytes(b"gu"),
        );
        let original = vec![0xffu8, 0xff, 0xff]; // unknown tag: no schema
        let mut net = Network::new(3);
        let rushed: BTreeMap<PartyId, Vec<Envelope>> = [(
            PartyId(2),
            vec![Envelope::new(PartyId(0), PartyId(2), original.clone())],
        )]
        .into();
        {
            let mut sender = AdvSender::new(&mut net, &corrupted);
            adv.on_round(0, &rushed, &mut sender);
        }
        let staged = net.take_staged();
        assert!(!staged.is_empty());
        for env in &staged {
            assert_ne!(env.payload, original);
            assert_eq!(env.payload.len(), original.len(), "fallback is a bit flip");
        }
    }

    #[test]
    fn field_equivocator_forks_typed_payloads() {
        let corrupted: BTreeSet<PartyId> = [PartyId(3)].into();
        let mut adv = FieldEquivocator::new(corrupted.clone(), Prg::from_seed_bytes(b"fe"));
        let original = typed_payload();
        let mut net = Network::new(4);
        let rushed: BTreeMap<PartyId, Vec<Envelope>> = [(
            PartyId(3),
            vec![Envelope::new(PartyId(0), PartyId(3), original.clone())],
        )]
        .into();
        {
            let mut sender = AdvSender::new(&mut net, &corrupted);
            adv.on_round(0, &rushed, &mut sender);
        }
        let staged = net.take_staged();
        assert_eq!(staged.len(), 2, "one fork = exactly two sends");
        assert_ne!(
            staged[0].to, staged[1].to,
            "fork must target distinct parties"
        );
        let payloads: Vec<&Vec<u8>> = staged.iter().map(|e| &e.payload).collect();
        assert!(
            payloads.contains(&&original),
            "one side of the fork keeps the original encoding"
        );
        let mutant = payloads
            .iter()
            .find(|p| ***p != original)
            .expect("other side of the fork is mutated");
        assert_eq!(
            crate::wire::peek_tag(mutant),
            crate::wire::tag::SAMPLE_RESPONSE,
            "forked payload must still be wire-valid"
        );
        for env in &staged {
            assert!(!corrupted.contains(&env.to));
        }
    }

    #[test]
    fn replayer_only_replays_previously_seen() {
        let corrupted: BTreeSet<PartyId> = [PartyId(2)].into();
        let mut adv = Replayer::new(corrupted.clone(), 2, Prg::from_seed_bytes(b"r"));
        let mut net = Network::new(3);
        let payload = vec![7u8; 9];
        let rushed: BTreeMap<PartyId, Vec<Envelope>> = [(
            PartyId(2),
            vec![Envelope::new(PartyId(0), PartyId(2), payload.clone())],
        )]
        .into();
        {
            let mut sender = AdvSender::new(&mut net, &corrupted);
            adv.on_round(0, &rushed, &mut sender);
        }
        assert!(net.take_staged().is_empty(), "replayed before recording");
        {
            let mut sender = AdvSender::new(&mut net, &corrupted);
            adv.on_round(1, &BTreeMap::new(), &mut sender);
        }
        let staged = net.take_staged();
        assert!(!staged.is_empty());
        assert!(staged.iter().all(|e| e.payload == payload));
        assert!(staged.iter().all(|e| !corrupted.contains(&e.to)));
    }

    #[test]
    fn crash_at_silences_inner() {
        let corrupted: BTreeSet<PartyId> = [PartyId(1)].into();
        let flood = Flooder::new(
            corrupted.clone(),
            PartyId(0),
            16,
            2,
            Prg::from_seed_bytes(b"c"),
        );
        let mut adv = CrashAt::new(flood, 2);
        let mut net = Network::new(2);
        for round in 0..4 {
            {
                let mut sender = AdvSender::new(&mut net, &corrupted);
                adv.on_round(round, &BTreeMap::new(), &mut sender);
            }
            let sent = net.take_staged().len();
            if round < 2 {
                assert_eq!(sent, 2, "pre-crash round {round}");
            } else {
                assert_eq!(sent, 0, "post-crash round {round}");
            }
        }
    }

    #[test]
    fn composed_partitions_and_unions() {
        let spec = StrategySpec::Compose(vec![StrategySpec::Equivocate, StrategySpec::Silent]);
        let corrupted: BTreeSet<PartyId> = [PartyId(4), PartyId(5)].into();
        let adv = spec.build(corrupted.clone(), 6, &Prg::from_seed_bytes(b"u"));
        assert_eq!(adv.corrupted(), &corrupted);
    }

    #[test]
    fn schedule_switches_by_round() {
        let corrupted: BTreeSet<PartyId> = [PartyId(1)].into();
        let loud = Flooder::new(
            corrupted.clone(),
            PartyId(0),
            8,
            1,
            Prg::from_seed_bytes(b"s1"),
        );
        let mut adv = Schedule::new(vec![(2, Box::new(loud) as Box<dyn Adversary>)]);
        let mut net = Network::new(2);
        for round in 0..4u64 {
            {
                let mut sender = AdvSender::new(&mut net, &corrupted);
                adv.on_round(round, &BTreeMap::new(), &mut sender);
            }
            let sent = net.take_staged().len();
            assert_eq!(sent, usize::from(round >= 2), "round {round}");
        }
    }

    #[test]
    fn builds_are_deterministic_per_seed() {
        let spec = StrategySpec::Equivocate;
        let run = |seed: &[u8]| {
            let corrupted: BTreeSet<PartyId> = [PartyId(3)].into();
            let mut adv = spec.build(corrupted.clone(), 4, &Prg::from_seed_bytes(seed));
            let mut net = Network::new(4);
            {
                let mut sender = AdvSender::new(&mut net, &corrupted);
                adv.on_round(0, &BTreeMap::new(), &mut sender);
            }
            net.take_staged()
        };
        assert_eq!(run(b"a"), run(b"a"));
        assert_ne!(run(b"a"), run(b"b"));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(StrategySpec::Equivocate.label(), "equivocate");
        assert_eq!(StrategySpec::EquivocateTyped.label(), "equivocate-typed");
        assert_eq!(
            StrategySpec::Garble(GarbleMode::Field).label(),
            "garble-field"
        );
        assert_eq!(
            StrategySpec::CrashAt {
                inner: Box::new(StrategySpec::Garble(GarbleMode::Both)),
                round: 3
            }
            .label(),
            "crash@3(garble-both)"
        );
        assert_eq!(
            StrategySpec::Delay {
                dist: LatencyDist::Fixed { delay: 1 },
                budget: 2
            }
            .label(),
            "delay-fix1-b2"
        );
        assert_eq!(
            StrategySpec::Delay {
                dist: LatencyDist::Uniform { max: 3 },
                budget: 4
            }
            .label(),
            "delay-uni3-b4"
        );
        assert_eq!(
            StrategySpec::Delay {
                dist: LatencyDist::Geometric {
                    num: 1,
                    den: 2,
                    cap: 3
                },
                budget: 4
            }
            .label(),
            "delay-geo1of2c3-b4"
        );
        assert_eq!(
            StrategySpec::Partition {
                split: 24,
                heal_at: Some(4)
            }
            .label(),
            "partition-24-heal4"
        );
        assert_eq!(
            StrategySpec::Partition {
                split: 24,
                heal_at: None
            }
            .label(),
            "partition-24-forever"
        );
        assert_eq!(
            StrategySpec::Churn {
                count: 2,
                down: 2,
                up: 10
            }
            .label(),
            "churn-2@2-10"
        );
        let labels: BTreeSet<String> = StrategySpec::catalogue()
            .iter()
            .map(|s| s.label())
            .collect();
        assert_eq!(
            labels.len(),
            StrategySpec::catalogue().len(),
            "catalogue labels collide"
        );
        // Labels stay space-free: the chaos case key is space-separated.
        for spec in StrategySpec::catalogue() {
            assert!(
                !spec.label().contains(' '),
                "label {:?} contains a space",
                spec.label()
            );
        }
    }

    #[test]
    fn link_delays_are_pure_and_seed_deterministic() {
        let spec = StrategySpec::Delay {
            dist: LatencyDist::Uniform { max: 3 },
            budget: 4,
        };
        let model = |seed: &[u8]| {
            spec.timing_model(&BTreeSet::new(), 8, &Prg::from_seed_bytes(seed))
                .expect("delay spec has a timing axis")
        };
        let (a, b) = (model(b"t"), model(b"t"));
        let mut saw_nonzero = false;
        for from in (0..8).map(PartyId) {
            for to in (0..8).map(PartyId) {
                for tick in 0..16 {
                    let d = a.delay(from, to, tick);
                    // Pure in (link, tick): resampling never diverges.
                    assert_eq!(d, a.delay(from, to, tick));
                    assert_eq!(d, b.delay(from, to, tick));
                    assert!(d <= 3);
                    saw_nonzero |= d > 0;
                }
            }
        }
        assert!(saw_nonzero, "uniform(0..=3) never drew a delay");
        // A different timing key reshuffles the schedule.
        let c = model(b"u");
        let differs = (0..16).any(|tick| {
            a.delay(PartyId(0), PartyId(1), tick) != c.delay(PartyId(0), PartyId(1), tick)
        });
        assert!(differs, "delay schedule ignores the timing key");
    }

    #[test]
    fn geometric_delays_respect_the_cap() {
        let dist = LatencyDist::Geometric {
            num: 9,
            den: 10,
            cap: 5,
        };
        let mut prg = Prg::from_seed_bytes(b"geo");
        let mut hit_cap = false;
        for _ in 0..200 {
            let d = dist.sample(&mut prg);
            assert!(d <= 5);
            hit_cap |= d == 5;
        }
        assert!(hit_cap, "9/10 geometric never reached its cap in 200 draws");
    }

    #[test]
    fn partition_blocks_one_direction_until_heal() {
        let spec = StrategySpec::Partition {
            split: 4,
            heal_at: Some(3),
        };
        let model = spec
            .timing_model(&BTreeSet::new(), 8, &Prg::from_seed_bytes(b"t"))
            .expect("partition spec has a timing axis");
        let (low, high) = (PartyId(1), PartyId(5));
        for tick in 0..3 {
            assert!(model.blocked(high, low, tick), "cut is down at tick {tick}");
            assert!(!model.blocked(low, high, tick), "cut must be asymmetric");
            assert!(!model.blocked(high, PartyId(6), tick));
        }
        for tick in 3..8 {
            assert!(!model.blocked(high, low, tick), "cut healed at tick 3");
        }
        let forever = StrategySpec::Partition {
            split: 4,
            heal_at: None,
        }
        .timing_model(&BTreeSet::new(), 8, &Prg::from_seed_bytes(b"t"))
        .expect("partition spec has a timing axis");
        assert!(forever.blocked(high, low, 1_000_000));
    }

    #[test]
    fn churn_victims_are_honest_and_windows_close() {
        let corrupted: BTreeSet<PartyId> = [PartyId(0), PartyId(2)].into();
        let spec = StrategySpec::Churn {
            count: 2,
            down: 3,
            up: 7,
        };
        let model = spec
            .timing_model(&corrupted, 8, &Prg::from_seed_bytes(b"t"))
            .expect("churn spec has a timing axis");
        // Victims skip corrupted ids: the first two honest are 1 and 3.
        for victim in [PartyId(1), PartyId(3)] {
            assert!(!model.offline(victim, 2));
            assert!(model.offline(victim, 3));
            assert!(model.offline(victim, 6));
            assert!(!model.offline(victim, 7), "rejoined at tick 7");
        }
        assert!(!model.offline(PartyId(0), 4), "corrupted never churns");
        assert!(!model.offline(PartyId(4), 4), "only `count` victims churn");
        assert_eq!(
            model.offline_parties(5),
            [PartyId(1), PartyId(3)].into_iter().collect()
        );
        assert!(model.offline_parties(9).is_empty());
    }

    #[test]
    fn timing_extraction_recurses_and_reports_window_and_slack() {
        let composed = StrategySpec::Compose(vec![
            StrategySpec::Equivocate,
            StrategySpec::CrashAt {
                inner: Box::new(StrategySpec::Delay {
                    dist: LatencyDist::Fixed { delay: 1 },
                    budget: 3,
                }),
                round: 5,
            },
            StrategySpec::Churn {
                count: 1,
                down: 0,
                up: 12,
            },
        ]);
        let model = composed
            .timing_model(&BTreeSet::new(), 6, &Prg::from_seed_bytes(b"t"))
            .expect("composed spec carries timing axes");
        assert_eq!(model.max_delay(), 1);
        assert!(model.offline(PartyId(0), 11));
        assert_eq!(model.window(), 3);
        assert_eq!(model.slack(), 4); // ceil(12 / 3)
        let lockstep = TimingModel::new([0; 32], None, None, vec![(PartyId(0), 0, 12)]);
        assert_eq!((lockstep.window(), lockstep.slack()), (1, 12));
        // Content-only specs have no timing half at all.
        assert!(StrategySpec::Equivocate
            .timing_model(&BTreeSet::new(), 6, &Prg::from_seed_bytes(b"t"))
            .is_none());
    }

    /// `(window, slack)` for every timing spec of the catalogue and of the
    /// chaos matrix's extra timing rows, at n = 48 with 4 corrupted
    /// parties. The literals are the spec's own `Delay` budget and
    /// `max(heal, rejoin)` ticks over it (rounded up, capped at 64), so a
    /// service that keeps the spec it was established with runs every
    /// timing row under the same window and phase budgets.
    #[test]
    fn window_and_slack_are_pinned_per_timing_spec() {
        use StrategySpec::*;
        let extra_rows = [
            Delay {
                dist: LatencyDist::Fixed { delay: 1 },
                budget: 2,
            },
            Partition {
                split: 24,
                heal_at: None,
            },
            Churn {
                count: 4,
                down: 6,
                up: 18,
            },
            Churn {
                count: 20,
                down: 0,
                up: 4096,
            },
            Compose(vec![
                Delay {
                    dist: LatencyDist::Uniform { max: 1 },
                    budget: 2,
                },
                Equivocate,
            ]),
        ];
        let pinned: BTreeMap<&str, (u64, u64)> = [
            ("delay-uni1-b2", (2, 0)),
            ("delay-uni3-b4", (4, 0)),
            ("delay-geo1of2c3-b4", (4, 0)),
            ("delay-fix1-b2", (2, 0)),
            ("partition-24-heal4", (1, 4)),
            ("partition-24-forever", (1, 0)),
            ("churn-2@2-10", (1, 10)),
            ("churn-4@6-18", (1, 18)),
            ("churn-20@0-4096", (1, 64)),
            ("compose[delay-uni1-b2+equivocate]", (2, 0)),
        ]
        .into();
        let corrupted: BTreeSet<PartyId> = (44..48).map(PartyId).collect();
        let mut seen = BTreeSet::new();
        for spec in StrategySpec::catalogue().into_iter().chain(extra_rows) {
            let prg = Prg::from_seed_bytes(b"pinned");
            let Some(model) = spec.timing_model(&corrupted, 48, &prg) else {
                continue;
            };
            let label = spec.label();
            assert_eq!(
                pinned.get(label.as_str()),
                Some(&(model.window(), model.slack())),
                "{label}"
            );
            seen.insert(label);
        }
        assert_eq!(seen.len(), pinned.len(), "a pinned spec lost its model");
    }
}
