//! The synchronous phase runner: drives honest protocol machines and a
//! Byzantine adversary round by round.
//!
//! A protocol execution is a sequence of *phases* (e.g., in the BA protocol:
//! tree setup, committee BA, coin toss, aggregation sweep, dissemination).
//! Each phase runs a set of [`Machine`]s for the honest parties against one
//! [`Adversary`] controlling all corrupted parties, over a shared
//! [`Network`] whose metrics accumulate across phases.
//!
//! The adversary is **rushing**: within each round it observes the honest
//! messages addressed to corrupted parties *before* choosing its own
//! messages for that round. Corruption is static during the online phase
//! (chosen adaptively during setup, per the paper's model — that choice
//! happens before the runner is invoked).
//!
//! # Parallel execution
//!
//! Within a round, honest parties are independent: each machine sees only
//! its own inbox (delivered last round) and its own state, and its effects
//! on the network (sends, receive charges) commute with nothing until the
//! round boundary. [`run_phase_threaded`] exploits this: machines run on a
//! phase-persistent pool of [`std::thread::scope`] workers (the pool in
//! `sched`) with *buffered* contexts ([`crate::network::RoundEffects`]),
//! and the per-party effect logs are replayed against the network in
//! ascending [`PartyId`] order — the same order the sequential engine steps
//! parties in. Each round is cut into more equal-count chunks than workers
//! and idle workers claim trailing chunks, but claim order does not
//! influence the merge order, so the result is byte-identical to
//! [`run_phase`]: identical staged-envelope order, identical metrics, and
//! an identical rushing view for the adversary, which always runs on the
//! calling thread after the merge.
//!
//! Thread-level parallelism composes with *lane-level* hash batching:
//! [`pba_crypto::sha256::batch_digest`] (the multi-lane SHA-256 engine) is
//! pure — each worker batches its own machines' digests with no shared
//! state, so `BaConfig::threads` and the engine's lanes multiply rather
//! than contend.

use crate::envelope::{Envelope, PartyId};
use crate::network::Network;
use crate::sched;
use std::collections::{BTreeMap, BTreeSet};

/// A per-party protocol state machine for one phase.
pub trait Machine {
    /// Executes one synchronous round. `inbox` holds the envelopes delivered
    /// to this party at the beginning of the round (sent in the previous
    /// round). The machine sends via `ctx` and reads via [`crate::network::Ctx::read`]
    /// (which is what charges its reception budget).
    fn on_round(&mut self, ctx: &mut crate::network::Ctx<'_>, inbox: &[Envelope]);

    /// True once the machine has produced its output and will ignore
    /// further rounds.
    fn is_done(&self) -> bool;
}

impl<M: Machine + ?Sized> Machine for &mut M {
    fn on_round(&mut self, ctx: &mut crate::network::Ctx<'_>, inbox: &[Envelope]) {
        (**self).on_round(ctx, inbox);
    }
    fn is_done(&self) -> bool {
        (**self).is_done()
    }
}

/// The adversary's interface for one phase: full control of all corrupted
/// parties, rushing observation, arbitrary (byte-level) message injection.
///
/// Adversaries always run on the phase-driving thread (they need no `Send`
/// bound), after every honest machine's effects have been merged — the
/// rushing view is therefore identical under sequential and parallel honest
/// execution.
pub trait Adversary {
    /// The set of statically corrupted parties.
    fn corrupted(&self) -> &BTreeSet<PartyId>;

    /// One round of adversarial behaviour. `rushed` maps each corrupted
    /// party to the envelopes honest parties addressed to it *this* round
    /// (rushing) together with last round's deliveries. `sender` stages
    /// messages from any corrupted identity.
    fn on_round(
        &mut self,
        round: u64,
        rushed: &BTreeMap<PartyId, Vec<Envelope>>,
        sender: &mut AdvSender<'_>,
    );
}

/// Staging interface for adversarial sends: may claim any corrupted identity
/// as the sender (channels are authenticated, so honest identities cannot be
/// spoofed).
#[derive(Debug)]
pub struct AdvSender<'a> {
    net: &'a mut Network,
    corrupted: &'a BTreeSet<PartyId>,
}

impl<'a> AdvSender<'a> {
    /// Creates a sender staging into `net` on behalf of `corrupted`.
    ///
    /// [`run_phase`] constructs one per round internally; this is public so
    /// adversary implementations (e.g. the fault-injection strategies in
    /// [`crate::faults`]) can be unit-tested round by round.
    pub fn new(net: &'a mut Network, corrupted: &'a BTreeSet<PartyId>) -> Self {
        AdvSender { net, corrupted }
    }

    /// Sends raw bytes from corrupted party `from` to `to`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not a corrupted party (authenticated channels).
    pub fn send_raw(&mut self, from: PartyId, to: PartyId, payload: Vec<u8>) {
        assert!(
            self.corrupted.contains(&from),
            "adversary cannot spoof honest party {from}"
        );
        self.net.stage(Envelope::new(from, to, payload));
    }

    /// Sends an encodable message from corrupted party `from` to `to`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not corrupted.
    pub fn send<T: pba_crypto::codec::Encode + ?Sized>(
        &mut self,
        from: PartyId,
        to: PartyId,
        msg: &T,
    ) {
        self.send_raw(from, to, pba_crypto::codec::encode_to_vec(msg));
    }

    /// Sends a typed wire message (with its `{tag, step}` header) from
    /// corrupted party `from` to `to` — required for a corrupted party's
    /// lies to pass the honest receivers' hardened header checks.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not corrupted.
    pub fn send_msg<T: crate::wire::WireMsg>(&mut self, from: PartyId, to: PartyId, msg: &T) {
        self.send_raw(from, to, crate::wire::encode_msg(msg));
    }

    /// Number of parties on the network.
    pub fn n(&self) -> usize {
        self.net.len()
    }
}

/// An adversary that controls a (possibly empty) set of parties but never
/// sends anything — crash/silent faults.
#[derive(Clone, Debug, Default)]
pub struct SilentAdversary {
    corrupted: BTreeSet<PartyId>,
}

impl SilentAdversary {
    /// Creates a silent adversary corrupting `corrupted`.
    pub fn new<I: IntoIterator<Item = PartyId>>(corrupted: I) -> Self {
        SilentAdversary {
            corrupted: corrupted.into_iter().collect(),
        }
    }
}

impl Adversary for SilentAdversary {
    fn corrupted(&self) -> &BTreeSet<PartyId> {
        &self.corrupted
    }

    fn on_round(
        &mut self,
        _round: u64,
        _rushed: &BTreeMap<PartyId, Vec<Envelope>>,
        _sender: &mut AdvSender<'_>,
    ) {
    }
}

/// Outcome of running a phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseOutcome {
    /// Rounds executed in this phase.
    pub rounds: u64,
    /// Whether all honest machines reported completion (vs. hitting the
    /// round limit).
    pub completed: bool,
}

/// How the runner turns machine rounds into network delivery ticks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoundDriver {
    /// The classic synchronous schedule: one delivery tick per machine
    /// round — everything staged in round `r` is on the wire for round
    /// `r + 1`.
    Lockstep,
    /// Partial synchrony: each machine round opens a delivery window of
    /// `ticks` network ticks and fires on that *timeout budget* rather
    /// than on quiescence. A message delayed `d <= ticks - 1` ticks still
    /// arrives in the next machine round (the window absorbs it); longer
    /// delays straggle into later rounds or expire, and machines that run
    /// out of phase budget waiting report an incomplete
    /// [`PhaseOutcome`] — timing pressure becomes a real timeout.
    PartialSynchrony {
        /// Delivery ticks per machine round (`>= 1`).
        ticks: u64,
    },
}

impl RoundDriver {
    /// Delivery ticks opened per machine round.
    pub fn ticks(&self) -> u64 {
        match self {
            RoundDriver::Lockstep => 1,
            RoundDriver::PartialSynchrony { ticks } => (*ticks).max(1),
        }
    }
}

/// Runs one phase sequentially — equivalent to [`run_phase_threaded`] with
/// one worker.
///
/// `machines` holds the honest parties' state machines keyed by identity;
/// corrupted identities must not appear in it.
///
/// # Panics
///
/// Panics if a corrupted identity appears among the honest machines.
pub fn run_phase(
    net: &mut Network,
    machines: &mut BTreeMap<PartyId, Box<dyn Machine + Send + '_>>,
    adversary: &mut dyn Adversary,
    max_rounds: u64,
) -> PhaseOutcome {
    run_phase_threaded(net, machines, adversary, max_rounds, 1)
}

/// Runs one phase to completion (all honest machines done) or `max_rounds`,
/// stepping honest machines on a pool of up to `threads` scoped workers.
///
/// `threads <= 1` (including `0`) is the plain sequential engine. For
/// `threads > 1`, the phase spawns a persistent worker pool (capped at the
/// machine count, so `threads > n` is safe); each round's honest machines
/// are split into equal-count contiguous ascending-id chunks, three per
/// worker, idle workers claim trailing chunks from a shared queue, and
/// every worker runs its chunks against buffered contexts. The buffered
/// effects are merged in ascending [`PartyId`] order before the adversary
/// acts — claim order may vary run to run, the merge order may not — so
/// the execution (outcome, staged-envelope transcript, metrics, adversary
/// observations) is bit-identical for every thread count.
///
/// # Panics
///
/// Panics if a corrupted identity appears among the honest machines, or if
/// a machine panics on a worker thread (the payload is resumed on the
/// calling thread).
pub fn run_phase_threaded(
    net: &mut Network,
    machines: &mut BTreeMap<PartyId, Box<dyn Machine + Send + '_>>,
    adversary: &mut dyn Adversary,
    max_rounds: u64,
    threads: usize,
) -> PhaseOutcome {
    run_phase_driven(
        net,
        machines,
        adversary,
        max_rounds,
        RoundDriver::Lockstep,
        threads,
    )
}

/// Runs one phase under an explicit [`RoundDriver`] — the engine's one
/// full-form entry; [`run_phase`] and [`run_phase_threaded`] forward here
/// with `Lockstep` (and one thread) filled in.
///
/// [`RoundDriver::Lockstep`] is exactly [`run_phase_threaded`]. Under
/// [`RoundDriver::PartialSynchrony`] each machine round drains a window of
/// `ticks` delivery ticks from the network before the machines act: late
/// messages surface in the machine round whose window covers their
/// deliver-at tick, and parties the network's timing model reports offline
/// are not stepped (their state freezes; their inbox for that round is
/// dropped — the delay queue has already accounted those messages as
/// delivered). A phase whose machines are still waiting on straggling or
/// expired traffic at `max_rounds` reports `completed = false`, which the
/// protocol layer surfaces as a timeout.
///
/// # Panics
///
/// Panics if a corrupted identity appears among the honest machines, or if
/// a machine panics on a worker thread.
pub fn run_phase_driven<'m>(
    net: &mut Network,
    machines: &mut BTreeMap<PartyId, Box<dyn Machine + Send + 'm>>,
    adversary: &mut dyn Adversary,
    max_rounds: u64,
    driver: RoundDriver,
    threads: usize,
) -> PhaseOutcome {
    for id in machines.keys() {
        assert!(
            !adversary.corrupted().contains(id),
            "party {id} is both honest and corrupted"
        );
    }
    if threads <= 1 || machines.len() <= 1 {
        // Sequential engine: step machines in map order against the live
        // network. This is the reference schedule the parallel path must
        // reproduce bit for bit.
        return phase_loop(
            net,
            machines,
            adversary,
            max_rounds,
            driver,
            &mut |net, machines, inboxes, round, offline| {
                for (&id, machine) in machines.iter_mut() {
                    let inbox = inboxes.remove(&id).unwrap_or_default();
                    if offline.contains(&id) {
                        continue;
                    }
                    let mut ctx = net.ctx(id, round);
                    machine.on_round(&mut ctx, &inbox);
                }
            },
        );
    }
    // Parallel engine: one scoped worker pool for the whole phase.
    let workers = threads.min(machines.len());
    sched::with_pool(workers, |pool| {
        phase_loop(
            net,
            machines,
            adversary,
            max_rounds,
            driver,
            &mut |net, machines, inboxes, round, offline| {
                pool.step_round(net, machines, inboxes, round, offline);
            },
        )
    })
}

/// One honest step of a round: consumes the honest inboxes (leaving the
/// corrupted parties' entries for the rushing view) and steps every online
/// machine, sequentially or via the worker pool.
type StepFn<'a, 'm> = &'a mut dyn FnMut(
    &mut Network,
    &mut BTreeMap<PartyId, Box<dyn Machine + Send + 'm>>,
    &mut BTreeMap<PartyId, Vec<Envelope>>,
    u64,
    &BTreeSet<PartyId>,
);

/// The phase loop shared by the sequential and pooled engines: delivery
/// ticks, the honest step (via `step`), rushing adversary, and completion
/// detection.
fn phase_loop<'m>(
    net: &mut Network,
    machines: &mut BTreeMap<PartyId, Box<dyn Machine + Send + 'm>>,
    adversary: &mut dyn Adversary,
    max_rounds: u64,
    driver: RoundDriver,
    step: StepFn<'_, 'm>,
) -> PhaseOutcome {
    // Drop any stale cross-phase messages that are *due*. Traffic still in
    // the delay queue survives into this phase and arrives in the machine
    // round whose window covers its deliver-at tick.
    net.take_staged();

    let ticks = driver.ticks();
    let mut rounds = 0;
    let mut completed = false;
    while rounds < max_rounds {
        let mut delivered = net.take_staged();
        net.bump_round();
        for _ in 1..ticks {
            delivered.extend(net.take_staged());
            net.bump_round();
        }
        rounds += 1;

        // A transport failure means this round's delivery is incomplete:
        // stepping machines against it would diverge every replica from
        // the oracle. Abort the phase; the protocol layer reads the
        // recorded error off the network and reports it structurally.
        if net.transport_error().is_some() {
            return PhaseOutcome {
                rounds,
                completed: false,
            };
        }

        // Partition deliveries per receiver.
        let mut inboxes: BTreeMap<PartyId, Vec<Envelope>> = BTreeMap::new();
        for env in delivered {
            inboxes.entry(env.to).or_default().push(env);
        }

        // Crash-recovery churn: parties offline at this tick keep their
        // (stale) state and miss the round entirely.
        let offline: BTreeSet<PartyId> = if net.timing().is_some() {
            machines
                .keys()
                .filter(|&&id| net.offline_now(id))
                .copied()
                .collect()
        } else {
            BTreeSet::new()
        };

        // Honest parties act first.
        step(net, machines, &mut inboxes, rounds - 1, &offline);

        // Rushing: adversary sees this round's honest messages to corrupted
        // parties (they are in `net.staged` now) plus last round's deliveries
        // to corrupted parties still in `inboxes`.
        let mut rushed: BTreeMap<PartyId, Vec<Envelope>> = BTreeMap::new();
        for (&id, envs) in inboxes.iter() {
            if adversary.corrupted().contains(&id) {
                rushed.entry(id).or_default().extend(envs.iter().cloned());
            }
        }
        let corrupted = adversary.corrupted().clone();
        // Peek at staged (this-round) messages in place: only envelopes
        // addressed to corrupted parties are cloned.
        for env in net.staged() {
            if corrupted.contains(&env.to) {
                rushed.entry(env.to).or_default().push(env.clone());
            }
        }

        {
            let mut sender = AdvSender {
                net,
                corrupted: &corrupted,
            };
            adversary.on_round(rounds - 1, &rushed, &mut sender);
        }

        if machines.values().all(|m| m.is_done()) {
            completed = true;
            break;
        }
    }
    PhaseOutcome { rounds, completed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Ctx;

    /// Relays a counter: party 0 starts at value 1; each round every party
    /// forwards (value+1) to the next party in a ring; done at value 5.
    struct Ring {
        id: PartyId,
        n: u64,
        value: Option<u64>,
        done: bool,
    }

    impl Machine for Ring {
        fn on_round(&mut self, ctx: &mut Ctx<'_>, inbox: &[Envelope]) {
            if self.done {
                return;
            }
            if ctx.round() == 0 && self.id == PartyId(0) {
                self.value = Some(1);
            }
            for env in inbox {
                if let Some(v) = ctx.read::<u64>(env) {
                    self.value = Some(v);
                }
            }
            if let Some(v) = self.value.take() {
                if v >= 5 {
                    self.done = true;
                } else {
                    let next = PartyId((self.id.0 + 1) % self.n);
                    ctx.send(next, &(v + 1));
                    self.done = true;
                }
            }
        }

        fn is_done(&self) -> bool {
            self.done
        }
    }

    fn ring_machines(n: u64) -> BTreeMap<PartyId, Box<dyn Machine + Send>> {
        (0..n)
            .map(|i| {
                (
                    PartyId(i),
                    Box::new(Ring {
                        id: PartyId(i),
                        n,
                        value: None,
                        done: false,
                    }) as Box<dyn Machine + Send>,
                )
            })
            .collect()
    }

    #[test]
    fn ring_relay_terminates() {
        let n = 4u64;
        let mut net = Network::new(n as usize);
        let mut machines = ring_machines(n);
        let mut adv = SilentAdversary::default();
        let out = run_phase(&mut net, &mut machines, &mut adv, 20);
        assert!(out.completed);
        // 0 sends 2 to 1 (r0), 1 sends 3 to 2 (r1), 2 sends 4 to 3 (r2),
        // 3 sends 5 to 0 (r3), 0 is already done → all done detected r4.
        assert!(out.rounds <= 6);
        assert_eq!(net.report().total_msgs, 4);
    }

    #[test]
    fn parallel_ring_matches_sequential() {
        // 0 is the sequential engine spelled differently; 7 > n exercises
        // a pool capped at the machine count; the rest run the pool.
        for threads in [0, 2, 3, 7, 64] {
            let n = 6u64;
            let mut seq_net = Network::new(n as usize);
            seq_net.enable_transcript();
            let mut seq_machines = ring_machines(n);
            let mut adv = SilentAdversary::default();
            let seq_out = run_phase(&mut seq_net, &mut seq_machines, &mut adv, 20);

            let mut par_net = Network::new(n as usize);
            par_net.enable_transcript();
            let mut par_machines = ring_machines(n);
            let mut adv = SilentAdversary::default();
            let par_out =
                run_phase_threaded(&mut par_net, &mut par_machines, &mut adv, 20, threads);

            assert_eq!(seq_out, par_out, "threads={threads}");
            assert_eq!(seq_net.report(), par_net.report(), "threads={threads}");
            assert_eq!(
                seq_net.transcript(),
                par_net.transcript(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn round_limit_reported() {
        struct Never;
        impl Machine for Never {
            fn on_round(&mut self, _: &mut Ctx<'_>, _: &[Envelope]) {}
            fn is_done(&self) -> bool {
                false
            }
        }
        let mut net = Network::new(1);
        let mut machines: BTreeMap<PartyId, Box<dyn Machine + Send>> =
            [(PartyId(0), Box::new(Never) as Box<dyn Machine + Send>)].into();
        let mut adv = SilentAdversary::default();
        let out = run_phase(&mut net, &mut machines, &mut adv, 3);
        assert!(!out.completed);
        assert_eq!(out.rounds, 3);
    }

    struct Flooder {
        corrupted: BTreeSet<PartyId>,
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
            let from = *self.corrupted.iter().next().unwrap();
            sender.send_raw(from, PartyId(0), vec![0u8; 100]);
        }
    }

    #[test]
    fn adversary_messages_delivered_but_filterable() {
        struct Selective {
            got_junk: bool,
        }
        impl Machine for Selective {
            fn on_round(&mut self, _ctx: &mut Ctx<'_>, inbox: &[Envelope]) {
                // Filters by sender: refuses to process P2's messages.
                for env in inbox {
                    if env.from == PartyId(1) {
                        self.got_junk = true; // seen but NOT processed (no read)
                    }
                }
            }
            fn is_done(&self) -> bool {
                self.got_junk
            }
        }
        let mut net = Network::new(2);
        let mut machines: BTreeMap<PartyId, Box<dyn Machine + Send>> = [(
            PartyId(0),
            Box::new(Selective { got_junk: false }) as Box<dyn Machine + Send>,
        )]
        .into();
        let mut adv = Flooder {
            corrupted: [PartyId(1)].into(),
        };
        let out = run_phase(&mut net, &mut machines, &mut adv, 5);
        assert!(out.completed);
        // Receiver processed nothing: zero received bytes despite floods.
        assert_eq!(net.metrics().party(PartyId(0)).bytes_received, 0);
        assert!(net.metrics().party(PartyId(1)).bytes_sent >= 100);
    }

    #[test]
    #[should_panic(expected = "cannot spoof")]
    fn adversary_cannot_spoof_honest() {
        struct Spoofer {
            corrupted: BTreeSet<PartyId>,
        }
        impl Adversary for Spoofer {
            fn corrupted(&self) -> &BTreeSet<PartyId> {
                &self.corrupted
            }
            fn on_round(
                &mut self,
                _r: u64,
                _i: &BTreeMap<PartyId, Vec<Envelope>>,
                s: &mut AdvSender<'_>,
            ) {
                s.send_raw(PartyId(0), PartyId(1), vec![]);
            }
        }
        struct Idle;
        impl Machine for Idle {
            fn on_round(&mut self, _: &mut Ctx<'_>, _: &[Envelope]) {}
            fn is_done(&self) -> bool {
                false
            }
        }
        let mut net = Network::new(3);
        let mut machines: BTreeMap<PartyId, Box<dyn Machine + Send>> =
            [(PartyId(0), Box::new(Idle) as Box<dyn Machine + Send>)].into();
        let mut adv = Spoofer {
            corrupted: [PartyId(2)].into(),
        };
        run_phase(&mut net, &mut machines, &mut adv, 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn worker_panic_payload_is_preserved() {
        // A machine panicking on a worker thread must surface the original
        // message on the caller, exactly as in sequential mode.
        struct BadSender;
        impl Machine for BadSender {
            fn on_round(&mut self, ctx: &mut Ctx<'_>, _: &[Envelope]) {
                ctx.send_raw(PartyId(99), vec![]);
            }
            fn is_done(&self) -> bool {
                false
            }
        }
        let mut net = Network::new(2);
        let mut machines: BTreeMap<PartyId, Box<dyn Machine + Send>> = (0..2)
            .map(|i| (PartyId(i), Box::new(BadSender) as Box<dyn Machine + Send>))
            .collect();
        let mut adv = SilentAdversary::default();
        run_phase_threaded(&mut net, &mut machines, &mut adv, 2, 2);
    }

    #[test]
    #[should_panic(expected = "machine 4 gave up")]
    fn lone_panic_in_a_later_chunk_is_reraised() {
        // Two workers cut six machines into six one-machine chunks; only
        // the fifth panics. The five clean chunks must not mask it.
        struct Fragile(PartyId);
        impl Machine for Fragile {
            fn on_round(&mut self, ctx: &mut Ctx<'_>, _: &[Envelope]) {
                assert!(self.0 != PartyId(4), "machine 4 gave up");
                ctx.send_raw(self.0, vec![1]);
            }
            fn is_done(&self) -> bool {
                false
            }
        }
        let mut net = Network::new(6);
        let mut machines: BTreeMap<PartyId, Box<dyn Machine + Send>> = (0..6)
            .map(|i| {
                let id = PartyId(i);
                (id, Box::new(Fragile(id)) as Box<dyn Machine + Send>)
            })
            .collect();
        let mut adv = SilentAdversary::default();
        run_phase_threaded(&mut net, &mut machines, &mut adv, 2, 2);
    }

    /// A hash-bound machine that routes its per-round workload through the
    /// lane engine, XOR-folding the digests into a gossip payload so any
    /// divergence — wrong digest, wrong order — corrupts the transcript.
    struct HashGrind {
        id: PartyId,
        n: u64,
        iters: usize,
        rounds: u64,
        quota: u64,
    }

    impl HashGrind {
        fn workload(&self, inbox: &[Envelope]) -> Vec<Vec<u8>> {
            let mut acc: u64 = self.rounds.wrapping_mul(0x9e37_79b9) ^ self.id.0;
            for env in inbox {
                acc ^= (env.payload.len() as u64).rotate_left(17) ^ env.from.0;
            }
            (0..self.iters)
                .map(|i| {
                    let mut input = Vec::with_capacity(20);
                    input.extend_from_slice(&acc.to_le_bytes());
                    input.extend_from_slice(&(i as u64).to_le_bytes());
                    input.extend_from_slice(&(self.id.0 as u32).to_le_bytes());
                    input
                })
                .collect()
        }
    }

    impl Machine for HashGrind {
        fn on_round(&mut self, ctx: &mut Ctx<'_>, inbox: &[Envelope]) {
            let inputs = self.workload(inbox);
            let refs: Vec<&[u8]> = inputs.iter().map(|v| v.as_slice()).collect();
            let fold = pba_crypto::sha256::batch_digest(&refs)
                .iter()
                .fold(pba_crypto::Digest::ZERO, |acc, d| acc.xor(d));
            let to = PartyId((self.id.0 + 1) % self.n);
            ctx.send_raw(to, fold.as_bytes().to_vec());
            self.rounds += 1;
        }
        fn is_done(&self) -> bool {
            self.rounds >= self.quota
        }
    }

    fn grind_machines(n: u64) -> BTreeMap<PartyId, Box<dyn Machine + Send>> {
        (0..n)
            .map(|i| {
                (
                    PartyId(i),
                    Box::new(HashGrind {
                        id: PartyId(i),
                        n,
                        // Ragged on purpose: 13 % LANES != 0, so every
                        // batch takes both the lane and the scalar path.
                        iters: 13,
                        rounds: 0,
                        quota: 4,
                    }) as Box<dyn Machine + Send>,
                )
            })
            .collect()
    }

    #[test]
    fn hash_bound_machines_match_sequential() {
        let n = 9u64;
        let mut seq_net = Network::new(n as usize);
        seq_net.enable_transcript();
        let mut seq_machines = grind_machines(n);
        let mut adv = SilentAdversary::default();
        let seq_out = run_phase(&mut seq_net, &mut seq_machines, &mut adv, 10);
        assert!(seq_out.completed);

        for threads in [2, 4, 7] {
            let mut net = Network::new(n as usize);
            net.enable_transcript();
            let mut machines = grind_machines(n);
            let mut adv = SilentAdversary::default();
            let out = run_phase_threaded(&mut net, &mut machines, &mut adv, 10, threads);
            assert_eq!(seq_out, out, "threads={threads}");
            assert_eq!(seq_net.report(), net.report(), "threads={threads}");
            assert_eq!(seq_net.transcript(), net.transcript(), "threads={threads}");
        }
    }

    use crate::faults::{LatencyDist, TimingModel};

    /// Broadcasts its round number every round and records every payload
    /// it processed, tagged with the round it arrived in.
    struct Recorder {
        id: PartyId,
        n: u64,
        got: Vec<(u64, u64)>, // (arrival round, payload value)
        rounds: u64,
        quota: u64,
    }

    impl Machine for Recorder {
        fn on_round(&mut self, ctx: &mut Ctx<'_>, inbox: &[Envelope]) {
            let round = ctx.round();
            for env in inbox {
                if let Some(v) = ctx.read::<u64>(env) {
                    self.got.push((round, v));
                }
            }
            for to in (0..self.n).map(PartyId) {
                if to != self.id {
                    ctx.send(to, &round);
                }
            }
            self.rounds += 1;
        }
        fn is_done(&self) -> bool {
            self.rounds >= self.quota
        }
    }

    fn recorders(n: u64, quota: u64) -> BTreeMap<PartyId, Recorder> {
        (0..n)
            .map(|i| {
                (
                    PartyId(i),
                    Recorder {
                        id: PartyId(i),
                        n,
                        got: Vec::new(),
                        rounds: 0,
                        quota,
                    },
                )
            })
            .collect()
    }

    /// Runs one driven phase over concrete [`Recorder`] machines, keeping
    /// them inspectable afterwards.
    fn drive_recorders(
        net: &mut Network,
        machines: &mut BTreeMap<PartyId, Recorder>,
        max_rounds: u64,
        driver: RoundDriver,
        threads: usize,
    ) -> PhaseOutcome {
        let mut adv = SilentAdversary::default();
        let mut erased: BTreeMap<PartyId, Box<dyn Machine + Send + '_>> = machines
            .iter_mut()
            .map(|(&id, m)| (id, Box::new(m) as Box<dyn Machine + Send + '_>))
            .collect();
        run_phase_driven(net, &mut erased, &mut adv, max_rounds, driver, threads)
    }

    #[test]
    fn delayed_message_crosses_phase_boundary() {
        // Regression for the all-messages-consumed-same-round assumption:
        // with a one-tick delay, traffic sent in phase 1's last round is
        // still in flight at the phase boundary. The next phase's
        // stale-drop must NOT discard it — it arrives in phase 2.
        let mut net = Network::new(2);
        net.set_timing(TimingModel::new(
            [3u8; 32],
            Some(LatencyDist::Fixed { delay: 1 }),
            None,
            Vec::new(),
        ));
        let driver = RoundDriver::PartialSynchrony { ticks: 2 };

        let mut phase1 = recorders(2, 1); // sends once, then done
        drive_recorders(&mut net, &mut phase1, 4, driver, 1);
        // The last round's sends are still sitting at the boundary.
        assert_eq!(net.staged().len(), 2, "phase-1 traffic still pending");

        let mut phase2 = recorders(2, 3);
        drive_recorders(&mut net, &mut phase2, 4, driver, 1);
        // The delayed phase-1 payload (round value 0) crossed the boundary
        // and was processed by the phase-2 machines.
        assert!(
            phase2[&PartyId(0)].got.iter().any(|&(_, value)| value == 0),
            "phase-1 traffic lost at the phase boundary: got {:?}",
            phase2[&PartyId(0)].got
        );
        // Nothing in flight or silently lost: the ledger closes.
        let stats = net.timing_stats();
        assert_eq!(net.in_flight_len(), 0);
        assert_eq!(stats.staged, stats.delivered, "no expiry axes configured");
    }

    #[test]
    fn stale_drop_still_discards_due_messages() {
        // The other half of the phase-boundary contract: with zero delay,
        // cross-phase messages are due at the boundary and the stale-drop
        // swallows them, exactly as the lockstep engine always has.
        let mut net = Network::new(2);
        net.set_timing(TimingModel::new(
            [3u8; 32],
            Some(LatencyDist::Fixed { delay: 0 }),
            None,
            Vec::new(),
        ));
        let mut phase1 = recorders(2, 1);
        drive_recorders(&mut net, &mut phase1, 4, RoundDriver::Lockstep, 1);
        assert_eq!(net.in_flight_len(), 0);

        let mut phase2 = recorders(2, 2);
        drive_recorders(&mut net, &mut phase2, 4, RoundDriver::Lockstep, 1);
        for recorder in phase2.values() {
            // Phase-2 round 0 delivers nothing: the phase-1 messages were
            // due at the boundary and the stale-drop swallowed them.
            assert!(
                recorder.got.iter().all(|&(round, _)| round > 0),
                "stale cross-phase traffic must be dropped, got {:?}",
                recorder.got
            );
        }
    }

    #[test]
    fn partial_synchrony_window_absorbs_delays_within_budget() {
        // delay <= ticks - 1: the window absorbs the latency and machines
        // observe the classic next-round delivery schedule.
        let run = |delay: u64, ticks: u64| {
            let mut net = Network::new(3);
            net.set_timing(TimingModel::new(
                [5u8; 32],
                Some(LatencyDist::Fixed { delay }),
                None,
                Vec::new(),
            ));
            let mut machines = recorders(3, 4);
            let out = drive_recorders(
                &mut net,
                &mut machines,
                8,
                RoundDriver::PartialSynchrony { ticks },
                1,
            );
            assert!(out.completed);
            machines[&PartyId(0)].got.clone()
        };
        let lockstep = run(0, 2);
        let delayed = run(1, 2);
        assert_eq!(
            lockstep, delayed,
            "a 1-tick delay inside a 2-tick window must be invisible"
        );
        assert!(
            lockstep.iter().any(|&(round, value)| round == value + 1),
            "messages arrive the machine round after they were sent"
        );
    }

    #[test]
    fn over_budget_delay_jams_completion() {
        // delay == ticks: every message misses its window and arrives a
        // machine round late. A machine waiting for round-r traffic at
        // round r + 1 never sees it in time; the phase must time out
        // rather than hang or panic — this is ProtocolError::Timeout's
        // runner-level source under real timing pressure.
        struct NeedsPrompt {
            id: PartyId,
            heard: bool,
            rounds: u64,
        }
        impl Machine for NeedsPrompt {
            fn on_round(&mut self, ctx: &mut Ctx<'_>, inbox: &[Envelope]) {
                // Expect the peer's round-(r-1) message at round r.
                let round = ctx.round();
                for env in inbox {
                    if let Some(v) = ctx.read::<u64>(env) {
                        if v + 1 == round {
                            self.heard = true;
                        }
                    }
                }
                let peer = PartyId(1 - self.id.0);
                ctx.send(peer, &round);
                self.rounds += 1;
            }
            fn is_done(&self) -> bool {
                self.heard
            }
        }
        let mut net = Network::new(2);
        net.set_timing(TimingModel::new(
            [5u8; 32],
            Some(LatencyDist::Fixed { delay: 2 }),
            None,
            Vec::new(),
        ));
        let mut adv = SilentAdversary::default();
        let mut machines: BTreeMap<PartyId, Box<dyn Machine + Send>> = (0..2)
            .map(|i| {
                (
                    PartyId(i),
                    Box::new(NeedsPrompt {
                        id: PartyId(i),
                        heard: false,
                        rounds: 0,
                    }) as Box<dyn Machine + Send>,
                )
            })
            .collect();
        let out = run_phase_driven(
            &mut net,
            &mut machines,
            &mut adv,
            6,
            RoundDriver::PartialSynchrony { ticks: 2 },
            1,
        );
        assert!(!out.completed, "over-budget delay must surface as timeout");
        assert_eq!(out.rounds, 6);
    }

    #[test]
    fn offline_machines_freeze_and_resume() {
        // Party 1 crashes for ticks 2..4: it misses those rounds entirely
        // (state frozen), then resumes and still reaches its quota if the
        // budget allows. Identical under sequential and threaded stepping.
        let run = |threads: usize| {
            let mut net = Network::new(3);
            net.enable_transcript();
            net.set_timing(TimingModel::new(
                [9u8; 32],
                None,
                None,
                vec![(PartyId(1), 2, 4)],
            ));
            let mut machines = recorders(3, 5);
            let out = drive_recorders(&mut net, &mut machines, 12, RoundDriver::Lockstep, threads);
            assert!(out.completed);
            let m1 = &machines[&PartyId(1)];
            (
                out,
                m1.got.clone(),
                m1.rounds,
                net.transcript().unwrap().to_vec(),
            )
        };
        let (out, got, stepped, transcript) = run(1);
        // The two offline rounds were missed: 5 quota rounds need 7 wall
        // rounds.
        assert_eq!(stepped, 5);
        assert!(out.rounds > 5, "offline rounds cost wall-clock rounds");
        assert!(
            got.iter().all(|&(round, _)| !(2..4).contains(&round)),
            "inbox during the crash window must be dropped"
        );
        let threaded = run(3);
        assert_eq!((out, got, stepped, transcript), threaded);
    }

    #[test]
    #[should_panic(expected = "both honest and corrupted")]
    fn overlap_detected() {
        struct Idle;
        impl Machine for Idle {
            fn on_round(&mut self, _: &mut Ctx<'_>, _: &[Envelope]) {}
            fn is_done(&self) -> bool {
                true
            }
        }
        let mut net = Network::new(1);
        let mut machines: BTreeMap<PartyId, Box<dyn Machine + Send>> =
            [(PartyId(0), Box::new(Idle) as Box<dyn Machine + Send>)].into();
        let mut adv = SilentAdversary::new([PartyId(0)]);
        run_phase(&mut net, &mut machines, &mut adv, 1);
    }
}
