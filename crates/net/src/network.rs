//! The synchronous network: staged envelopes, round delivery, and the
//! per-party sending/receiving context with exact accounting.
//!
//! Model (standard synchronous point-to-point network with authenticated
//! channels, as in the paper):
//!
//! * messages sent in round `r` are delivered at the beginning of round
//!   `r + 1` — unless a [`TimingModel`] is installed
//!   ([`Network::set_timing`]), in which case staged traffic passes
//!   through a deterministic delay queue: each message is stamped with a
//!   deliver-at tick drawn from the seeded per-link latency distribution,
//!   dropped by the partition cut, or expired when its receiver is
//!   offline at delivery (see [`Network::take_staged`]);
//! * channels are authenticated — the `from` field of an [`Envelope`] is
//!   trustworthy for honest receivers;
//! * receivers perform **dynamic message filtering**: a message costs its
//!   receiver communication only when the receiver *processes* it (reads the
//!   payload via [`Ctx::read`]); filtered messages are dropped for free, as
//!   in the message-filtering model the paper builds on.
//!
//! # Buffered contexts and deterministic parallelism
//!
//! A [`Ctx`] normally mutates the [`Network`] directly. For the parallel
//! round engine ([`crate::runner::run_phase_threaded`]) a context can
//! instead *buffer* its effects — sends and receive charges — into a
//! [`RoundEffects`] value owned by the calling worker thread. Replaying the
//! per-party effect logs against the network in ascending [`PartyId`] order
//! performs **exactly the same `Network` mutations in exactly the same
//! order** as the sequential schedule (which also steps parties in
//! ascending id order), so staged-envelope order, metric totals, and the
//! adversary's rushing view are byte-identical regardless of how many
//! worker threads ran the machines.

use crate::envelope::{Envelope, PartyId};
use crate::faults::TimingModel;
use crate::metrics::{MetricsTable, Report};
use crate::transport::{Transport, TransportError};
use crate::wire::{self, WireMsg};
use pba_crypto::codec::{decode_from_slice, Decode, Encode};
use pba_crypto::{Digest, Sha256};
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// One buffered network mutation (see [`RoundEffects`]).
#[derive(Clone, Debug, PartialEq, Eq)]
enum Effect {
    /// A staged envelope (sender pays on replay, exactly as in
    /// [`Network::stage`]).
    Send(Envelope),
    /// A receiver-side processing charge, exactly as in
    /// [`Ctx::charge_receive`]. The wire tag is captured at charge time so
    /// replay attributes the bytes identically.
    Receive {
        to: PartyId,
        from: PartyId,
        bytes: usize,
        tag: u8,
    },
}

/// The ordered effect log of one party's round, produced by a buffered
/// [`Ctx`] and replayed with [`Network::apply_effects`].
///
/// The log preserves the exact interleaving of sends and receive charges
/// the machine performed, so replaying it is indistinguishable from having
/// run the machine against the network directly.
#[derive(Clone, Debug, Default)]
pub struct RoundEffects {
    ops: Vec<Effect>,
    /// Per-worker encode scratch reused across this log's sends; carries no
    /// observable state (see the manual [`PartialEq`]).
    scratch: Vec<u8>,
}

/// Equality is over the buffered operations only: the encode scratch is a
/// capacity-reuse optimization whose leftover bytes are not part of the
/// effect log's meaning.
impl PartialEq for RoundEffects {
    fn eq(&self, other: &Self) -> bool {
        self.ops == other.ops
    }
}

impl Eq for RoundEffects {}

impl RoundEffects {
    /// An empty effect log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of buffered operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when no operations were buffered.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Counters kept by the delay queue while a [`TimingModel`] is installed.
/// They satisfy the conservation law checked in `tests/proptest_timing.rs`:
///
/// `staged == delivered + expired_partition + expired_offline + in flight`
///
/// — a message is never silently lost; it is delivered (possibly late) or
/// expires for a named reason.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimingStats {
    /// Messages that entered the delay queue.
    pub staged: u64,
    /// Messages handed to the runner (on time or late).
    pub delivered: u64,
    /// Messages dropped by the partition cut.
    pub expired_partition: u64,
    /// Messages whose receiver was offline at the delivery tick.
    pub expired_offline: u64,
}

/// The simulated synchronous network for one protocol execution.
#[derive(Debug)]
pub struct Network {
    n: usize,
    metrics: MetricsTable,
    /// Envelopes sent this round, delivered next round.
    staged: Vec<Envelope>,
    /// When enabled, a chained per-round digest of every delivered batch —
    /// entry `i` commits to rounds `0..=i`, so the first index at which two
    /// transcripts differ names the first diverging round.
    transcript: Option<Vec<Digest>>,
    /// Encode scratch reused by every direct-backend [`Ctx`] send; keeps
    /// its high-water capacity so message encoding never reallocates on
    /// the hot path.
    encode_scratch: Vec<u8>,
    /// Delivery ticks elapsed: one per [`Network::bump_round`].
    now: u64,
    /// The delay queue: messages keyed by their deliver-at tick. Only
    /// populated while a timing model is installed.
    in_flight: BTreeMap<u64, Vec<Envelope>>,
    /// The installed timing faults, if any (see [`Network::set_timing`]).
    timing: Option<TimingModel>,
    /// Tick zero of the timing model — set lazily at the first
    /// [`Network::take_staged`] after installation, so the model's tick
    /// coordinates start at the first delivery it governs regardless of
    /// how many synthetic rounds (establishment, fan-in) preceded it.
    timing_base: Option<u64>,
    stats: TimingStats,
    /// The delivery backend, if one is attached: every
    /// [`Network::take_staged`] routes the staged batch through
    /// [`Transport::exchange`] (see [`Network::attach_transport`]).
    transport: Option<Box<dyn Transport>>,
    /// The first transport failure, if any. Once set, delivery stops —
    /// every later `take_staged` returns an empty batch so the runner can
    /// wind the phase down and report a structured error instead of
    /// stepping machines against a half-exchanged round.
    transport_error: Option<TransportError>,
    /// Exchanges performed so far; becomes the sequence number stamped on
    /// the round markers of the next exchange.
    exchange_seq: u64,
    /// Open round-overlap window, if any (see
    /// [`Network::begin_round_overlap`]): while `Some`, `bump_round`
    /// increments this absorbed-round counter instead of advancing the
    /// clock — the rounds ride on machine rounds being counted elsewhere.
    absorbed_rounds: Option<u64>,
}

impl Network {
    /// Creates a network for `n` parties.
    pub fn new(n: usize) -> Self {
        Network {
            n,
            metrics: MetricsTable::new(n),
            staged: Vec::new(),
            transcript: None,
            encode_scratch: Vec::new(),
            now: 0,
            in_flight: BTreeMap::new(),
            timing: None,
            timing_base: None,
            stats: TimingStats::default(),
            transport: None,
            transport_error: None,
            exchange_seq: 0,
            absorbed_rounds: None,
        }
    }

    /// Number of parties.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the network has no parties.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Read access to the metrics table.
    pub fn metrics(&self) -> &MetricsTable {
        &self.metrics
    }

    /// Mutable access to the metrics table (for synthetic charges).
    pub fn metrics_mut(&mut self) -> &mut MetricsTable {
        &mut self.metrics
    }

    /// Attaches the dense reference table as a differential shadow behind
    /// the sparse metrics (see [`MetricsTable::enable_shadow`]); must be
    /// called before any traffic is metered. Check divergence afterwards
    /// with `net.metrics().shadow_divergence()`.
    pub fn enable_metrics_shadow(&mut self) {
        self.metrics.enable_shadow();
    }

    /// Aggregate report over all parties.
    pub fn report(&self) -> Report {
        self.metrics.report()
    }

    /// Starts recording the delivery transcript: every subsequent
    /// [`Network::take_staged`] appends a digest chaining the previous
    /// entry with the full delivered batch (sender, receiver, payload).
    pub fn enable_transcript(&mut self) {
        if self.transcript.is_none() {
            self.transcript = Some(Vec::new());
        }
    }

    /// The recorded delivery transcript (`None` unless
    /// [`Network::enable_transcript`] was called). Entry `i` is a running
    /// hash over all batches delivered up to and including the `i`-th
    /// [`Network::take_staged`].
    pub fn transcript(&self) -> Option<&[Digest]> {
        self.transcript.as_deref()
    }

    /// Stages an envelope for next-round delivery, charging the sender.
    /// The sender's bytes are attributed to the wire tag sniffed from the
    /// payload header ([`wire::peek_tag`]; [`wire::tag::RAW`] for untyped
    /// payloads).
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn stage(&mut self, env: Envelope) {
        assert!(
            env.from.index() < self.n,
            "sender {} out of range",
            env.from
        );
        assert!(env.to.index() < self.n, "receiver {} out of range", env.to);
        let tag = wire::peek_tag(&env.payload);
        self.metrics
            .record_send_tagged(env.from, env.to, env.len(), tag);
        self.staged.push(env);
    }

    /// Replays a buffered effect log against the network, in the exact
    /// order the operations were performed. Sends go through
    /// [`Network::stage`] (range checks and sender charges included);
    /// receive charges hit the metrics table directly, as
    /// [`Ctx::charge_receive`] does.
    pub fn apply_effects(&mut self, effects: RoundEffects) {
        for op in effects.ops {
            match op {
                Effect::Send(env) => self.stage(env),
                Effect::Receive {
                    to,
                    from,
                    bytes,
                    tag,
                } => self.metrics.record_receive_tagged(to, from, bytes, tag),
            }
        }
    }

    /// Takes the deliverable envelopes (the runner calls this at each tick
    /// boundary).
    ///
    /// Without a timing model this is the classic synchronous semantics:
    /// everything staged since the last call, byte-identical to the
    /// pre-timing network. With a model installed, staged envelopes are
    /// first admitted to the delay queue — dropped if the partition blocks
    /// the link, stamped `deliver_at = now + delay(from, to, tick)`
    /// otherwise, and expired if the receiver is offline at that tick —
    /// and then every queue bucket due at or before `now` is drained in
    /// tick order (insertion order within a tick). Delays are a pure
    /// function of `(timing key, link, tick)`, so this sequence is
    /// identical under the sequential and threaded round engines.
    pub fn take_staged(&mut self) -> Vec<Envelope> {
        let batch = if let Some(transport) = &mut self.transport {
            let staged = std::mem::take(&mut self.staged);
            if self.transport_error.is_some() {
                // Already failed: deliver nothing and let the runner
                // observe the recorded error.
                Vec::new()
            } else {
                let seq = self.exchange_seq;
                self.exchange_seq += 1;
                match transport.exchange(seq, staged) {
                    Ok(batch) => batch,
                    Err(e) => {
                        self.transport_error = Some(e);
                        Vec::new()
                    }
                }
            }
        } else if self.timing.is_some() {
            let model = self.timing.take().expect("timing model present");
            let base = *self.timing_base.get_or_insert(self.now);
            let tick = self.now - base;
            for env in std::mem::take(&mut self.staged) {
                self.stats.staged += 1;
                if model.blocked(env.from, env.to, tick) {
                    self.stats.expired_partition += 1;
                    continue;
                }
                let deliver_at = self.now + model.delay(env.from, env.to, tick);
                if model.offline(env.to, deliver_at - base) {
                    self.stats.expired_offline += 1;
                    continue;
                }
                self.in_flight.entry(deliver_at).or_default().push(env);
            }
            let due: Vec<u64> = self
                .in_flight
                .range(..=self.now)
                .map(|(&at, _)| at)
                .collect();
            let mut batch = Vec::new();
            for at in due {
                batch.extend(self.in_flight.remove(&at).expect("bucket exists"));
            }
            self.stats.delivered += batch.len() as u64;
            self.timing = Some(model);
            batch
        } else {
            std::mem::take(&mut self.staged)
        };
        if let Some(entries) = &mut self.transcript {
            let mut h = Sha256::new();
            h.update(b"net-transcript");
            h.update(entries.last().map_or(&[0u8; 32][..], |d| d.as_bytes()));
            for env in &batch {
                h.update(&env.from.0.to_le_bytes());
                h.update(&env.to.0.to_le_bytes());
                h.update(&(env.len() as u64).to_le_bytes());
                h.update(&env.payload);
            }
            entries.push(h.finalize());
        }
        batch
    }

    /// Peeks at the staged envelopes without consuming them — used by the
    /// runner for rushing observation, so only envelopes addressed to
    /// corrupted parties are cloned (rather than cloning and re-staging the
    /// whole round's traffic).
    pub fn staged(&self) -> &[Envelope] {
        &self.staged
    }

    /// Advances the round counter and the delivery tick — unless a
    /// round-overlap window is open, in which case the round is *absorbed*
    /// (counted in the window, not on the clock): it executes concurrently
    /// with machine rounds that are already being counted elsewhere.
    pub fn bump_round(&mut self) {
        if let Some(absorbed) = &mut self.absorbed_rounds {
            *absorbed += 1;
            return;
        }
        self.now += 1;
        self.metrics.bump_round();
    }

    /// Opens a round-overlap window: until [`Network::end_round_overlap`],
    /// `bump_round` calls are absorbed instead of advancing the clock.
    /// Used by the pipelined driver to run charge-only background work
    /// (e.g. a previous instance's certification) *during* the machine
    /// rounds of the current phase — bytes are still metered in full;
    /// only the round count overlaps.
    ///
    /// # Panics
    ///
    /// Panics if a window is already open (windows do not nest) or a
    /// timing model is installed (absorbed rounds would desynchronize the
    /// delay queue's tick coordinates).
    pub fn begin_round_overlap(&mut self) {
        assert!(
            self.absorbed_rounds.is_none(),
            "round-overlap windows do not nest"
        );
        assert!(
            self.timing.is_none(),
            "round overlap and timing faults are mutually exclusive"
        );
        self.absorbed_rounds = Some(0);
    }

    /// Closes the round-overlap window and returns how many `bump_round`
    /// calls it absorbed.
    ///
    /// # Panics
    ///
    /// Panics if no window is open.
    pub fn end_round_overlap(&mut self) -> u64 {
        self.absorbed_rounds
            .take()
            .expect("no round-overlap window open")
    }

    /// Installs timing faults: subsequent [`Network::take_staged`] calls
    /// route staged traffic through the delay queue. The model's tick zero
    /// is the first `take_staged` after this call.
    ///
    /// # Panics
    ///
    /// Panics if a transport is attached — timing faults reorder delivery
    /// locally, which a socket backend cannot replicate remotely (see
    /// [`crate::transport`]).
    pub fn set_timing(&mut self, model: TimingModel) {
        assert!(
            self.transport.is_none(),
            "timing faults and a transport are mutually exclusive"
        );
        self.timing = Some(model);
        self.timing_base = None;
    }

    /// Attaches a delivery backend: every subsequent
    /// [`Network::take_staged`] routes the staged batch through
    /// [`Transport::exchange`]. Recording of the delivery transcript is
    /// enabled as a side effect, so the oracle and every socket endpoint
    /// chain their digests from the same point.
    ///
    /// # Panics
    ///
    /// Panics if a timing model is installed (see [`Network::set_timing`]).
    pub fn attach_transport(&mut self, transport: Box<dyn Transport>) {
        assert!(
            self.timing.is_none(),
            "timing faults and a transport are mutually exclusive"
        );
        self.enable_transcript();
        self.transport = Some(transport);
    }

    /// Removes and returns the attached transport (its sockets close when
    /// the returned value is dropped).
    pub fn detach_transport(&mut self) -> Option<Box<dyn Transport>> {
        self.transport.take()
    }

    /// The attached transport, if any.
    pub fn transport(&self) -> Option<&dyn Transport> {
        self.transport.as_deref()
    }

    /// The first transport failure, if any. Set once; all delivery after
    /// it is empty.
    pub fn transport_error(&self) -> Option<&TransportError> {
        self.transport_error.as_ref()
    }

    /// The installed timing model, if any.
    pub fn timing(&self) -> Option<&TimingModel> {
        self.timing.as_ref()
    }

    /// Delay-queue counters (all zero without a timing model).
    pub fn timing_stats(&self) -> TimingStats {
        self.stats
    }

    /// Messages currently sitting in the delay queue.
    pub fn in_flight_len(&self) -> usize {
        self.in_flight.values().map(Vec::len).sum()
    }

    /// Ticks elapsed since the network was created (one per
    /// [`Network::bump_round`]).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The current tick in the timing model's coordinates (0 before the
    /// model's clock starts).
    fn timing_tick(&self) -> u64 {
        self.now - self.timing_base.unwrap_or(self.now)
    }

    /// True when the timing model has `p` crashed at the current tick.
    pub fn offline_now(&self, p: PartyId) -> bool {
        self.timing
            .as_ref()
            .is_some_and(|m| m.offline(p, self.timing_tick()))
    }

    /// Every party the timing model has crashed at the current tick.
    pub fn offline_set(&self) -> BTreeSet<PartyId> {
        self.timing
            .as_ref()
            .map(|m| m.offline_parties(self.timing_tick()))
            .unwrap_or_default()
    }

    /// Creates the per-party context for sending/receiving in a round.
    pub fn ctx(&mut self, id: PartyId, round: u64) -> Ctx<'_> {
        Ctx {
            id,
            round,
            backend: Backend::Direct(self),
        }
    }
}

/// How a [`Ctx`] realizes its operations: against the live network, or
/// into a thread-local effect buffer.
#[derive(Debug)]
enum Backend<'a> {
    Direct(&'a mut Network),
    Buffered {
        n: usize,
        effects: &'a mut RoundEffects,
    },
}

/// Per-party, per-round API handed to protocol machines.
///
/// All communication flows through this context so that accounting is exact:
/// [`Ctx::send`] charges the sender; [`Ctx::read`] charges the receiver.
///
/// The context never exposes intermediate network state (staged traffic or
/// running metrics) to the machine, which is what makes the buffered
/// backend observationally identical to the direct one.
#[derive(Debug)]
pub struct Ctx<'a> {
    id: PartyId,
    round: u64,
    backend: Backend<'a>,
}

impl<'a> Ctx<'a> {
    /// A buffering context for `id`: sends and receive charges accumulate
    /// into `effects` instead of mutating a network. `n` is the party
    /// count of the network the effects will later be applied to.
    pub fn buffered(id: PartyId, round: u64, n: usize, effects: &'a mut RoundEffects) -> Self {
        Ctx {
            id,
            round,
            backend: Backend::Buffered { n, effects },
        }
    }
}

impl Ctx<'_> {
    /// The party this context belongs to.
    pub fn id(&self) -> PartyId {
        self.id
    }

    /// The current round (within the running phase).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Number of parties on the network.
    pub fn n(&self) -> usize {
        match &self.backend {
            Backend::Direct(net) => net.len(),
            Backend::Buffered { n, .. } => *n,
        }
    }

    /// The backend's reusable encode buffer (cleared by the wire encoders;
    /// retains capacity across sends).
    fn scratch(&mut self) -> &mut Vec<u8> {
        match &mut self.backend {
            Backend::Direct(net) => &mut net.encode_scratch,
            Backend::Buffered { effects, .. } => &mut effects.scratch,
        }
    }

    /// Sends an encodable message to `to`, charged to this party. The
    /// payload is *untagged*: its bytes land in the [`wire::tag::RAW`]
    /// attribution bucket. Protocol machines should prefer
    /// [`Ctx::send_msg`].
    ///
    /// Encoding reuses the backend's scratch buffer; the staged envelope
    /// carries an exact-size copy, byte-for-byte identical to encoding
    /// into a fresh `Vec` (asserted in `tests/wire.rs`).
    pub fn send<T: Encode + ?Sized>(&mut self, to: PartyId, msg: &T) {
        let scratch = self.scratch();
        scratch.clear();
        msg.encode(scratch);
        let payload = scratch.as_slice().to_vec();
        self.send_raw(to, payload);
    }

    /// Sends a typed wire message to `to` with its `{tag, step}` header,
    /// charged to this party and attributed to the message's tag.
    ///
    /// Encoding reuses the backend's scratch buffer (see [`Ctx::send`]).
    pub fn send_msg<T: WireMsg>(&mut self, to: PartyId, msg: &T) {
        let scratch = self.scratch();
        wire::encode_msg_into(msg, scratch);
        let payload = scratch.as_slice().to_vec();
        self.send_raw(to, payload);
    }

    /// Sends raw payload bytes to `to`.
    ///
    /// # Panics
    ///
    /// Panics if `to` is out of range (in buffered mode the check runs
    /// eagerly so the failure surfaces in the machine's own round, exactly
    /// as it would against the live network).
    pub fn send_raw(&mut self, to: PartyId, payload: Vec<u8>) {
        let env = Envelope::new(self.id, to, payload);
        match &mut self.backend {
            Backend::Direct(net) => net.stage(env),
            Backend::Buffered { n, effects } => {
                assert!(env.from.index() < *n, "sender {} out of range", env.from);
                assert!(env.to.index() < *n, "receiver {} out of range", env.to);
                effects.ops.push(Effect::Send(env));
            }
        }
    }

    /// Processes an incoming envelope: charges this party for receiving it
    /// and decodes the payload.
    ///
    /// Returns `None` when decoding fails (the bytes were still paid for —
    /// the party had to read the message to discover it was garbage).
    pub fn read<T: Decode>(&mut self, env: &Envelope) -> Option<T> {
        self.charge_receive(env);
        decode_from_slice(&env.payload).ok()
    }

    /// Processes an incoming typed envelope through the hardened wire
    /// decoder: charges this party for receiving it (attributed to the
    /// sniffed tag) and decodes via [`wire::decode_msg`].
    ///
    /// Returns `None` when the payload is over-cap, mis-tagged, carries a
    /// wrong step byte, or has a malformed body (the bytes were still paid
    /// for — the party had to read the message to discover that).
    pub fn recv_msg<T: WireMsg>(&mut self, env: &Envelope) -> Option<T> {
        self.charge_receive(env);
        wire::decode_msg(&env.payload).ok()
    }

    /// Charges this party for processing `env` without decoding. The
    /// bytes are attributed to the wire tag sniffed from the payload.
    pub fn charge_receive(&mut self, env: &Envelope) {
        debug_assert_eq!(env.to, self.id, "processing someone else's mail");
        let tag = wire::peek_tag(&env.payload);
        match &mut self.backend {
            Backend::Direct(net) => {
                net.metrics
                    .record_receive_tagged(self.id, env.from, env.len(), tag)
            }
            Backend::Buffered { effects, .. } => effects.ops.push(Effect::Receive {
                to: self.id,
                from: env.from,
                bytes: env.len(),
                tag,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_crypto::codec::{CodecError, Reader};

    /// A minimal typed message for wire-layer tests, matching the
    /// registered `SampleQuery` schema (`[U64]`).
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct TestQuery(u64);

    impl Encode for TestQuery {
        fn encode(&self, buf: &mut Vec<u8>) {
            self.0.encode(buf);
        }
    }

    impl Decode for TestQuery {
        fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
            Ok(TestQuery(u64::decode(r)?))
        }
    }

    impl WireMsg for TestQuery {
        const TAG: u8 = wire::tag::SAMPLE_QUERY;
        const STEP: u8 = wire::step::NONE;
    }

    #[test]
    fn typed_send_and_recv_attribute_tagged_bytes() {
        let mut net = Network::new(2);
        {
            let mut ctx = net.ctx(PartyId(0), 0);
            ctx.send_msg(PartyId(1), &TestQuery(42));
        }
        let envs = net.take_staged();
        {
            let mut ctx = net.ctx(PartyId(1), 1);
            assert_eq!(ctx.recv_msg::<TestQuery>(&envs[0]), Some(TestQuery(42)));
        }
        let len = (wire::HEADER_LEN + 8) as u64;
        let sender = net.metrics().party(PartyId(0));
        let receiver = net.metrics().party(PartyId(1));
        assert_eq!(sender.sent_by_tag[&wire::tag::SAMPLE_QUERY], len);
        assert_eq!(receiver.recv_by_tag[&wire::tag::SAMPLE_QUERY], len);
        assert!(net.metrics().tags_conserve_totals());
    }

    #[test]
    fn recv_msg_rejects_malformed_but_still_charges() {
        let mut net = Network::new(2);
        // Wrong step byte in the header: hardened decode refuses it.
        let mut payload = wire::encode_msg(&TestQuery(7));
        payload[1] ^= 0x55;
        let env = Envelope::new(PartyId(0), PartyId(1), payload);
        net.stage(env.clone());
        net.take_staged();
        {
            let mut ctx = net.ctx(PartyId(1), 0);
            assert_eq!(ctx.recv_msg::<TestQuery>(&env), None);
        }
        // Charged, but attributed to the raw bucket (header implausible).
        let receiver = net.metrics().party(PartyId(1));
        assert_eq!(receiver.bytes_received, env.len() as u64);
        assert_eq!(receiver.recv_by_tag[&wire::tag::RAW], env.len() as u64);
    }

    #[test]
    fn stage_and_take() {
        let mut net = Network::new(2);
        net.stage(Envelope::new(PartyId(0), PartyId(1), vec![1, 2, 3]));
        assert_eq!(net.metrics().party(PartyId(0)).bytes_sent, 3);
        let staged = net.take_staged();
        assert_eq!(staged.len(), 1);
        assert!(net.take_staged().is_empty());
    }

    #[test]
    fn ctx_send_and_read_charges_both_sides() {
        let mut net = Network::new(2);
        {
            let mut ctx = net.ctx(PartyId(0), 0);
            ctx.send(PartyId(1), &42u64);
        }
        let envs = net.take_staged();
        {
            let mut ctx = net.ctx(PartyId(1), 1);
            let v: u64 = ctx.read(&envs[0]).unwrap();
            assert_eq!(v, 42);
        }
        assert_eq!(net.metrics().party(PartyId(0)).bytes_sent, 8);
        assert_eq!(net.metrics().party(PartyId(1)).bytes_received, 8);
    }

    #[test]
    fn unprocessed_messages_are_free_for_receiver() {
        let mut net = Network::new(2);
        net.stage(Envelope::new(PartyId(0), PartyId(1), vec![0u8; 1000]));
        let _ = net.take_staged(); // receiver filters it out, never reads
        assert_eq!(net.metrics().party(PartyId(1)).bytes_received, 0);
        assert_eq!(net.metrics().party(PartyId(0)).bytes_sent, 1000);
    }

    #[test]
    fn malformed_payload_read_returns_none_but_charges() {
        let mut net = Network::new(2);
        let env = Envelope::new(PartyId(0), PartyId(1), vec![9]);
        net.stage(env.clone());
        net.take_staged();
        let mut ctx = net.ctx(PartyId(1), 0);
        assert_eq!(ctx.read::<u64>(&env), None);
        let _ = ctx;
        assert_eq!(net.metrics().party(PartyId(1)).bytes_received, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_receiver_panics() {
        let mut net = Network::new(1);
        net.stage(Envelope::new(PartyId(0), PartyId(5), vec![]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn buffered_out_of_range_receiver_panics() {
        let mut fx = RoundEffects::new();
        let mut ctx = Ctx::buffered(PartyId(0), 0, 1, &mut fx);
        ctx.send_raw(PartyId(5), vec![]);
    }

    #[test]
    fn buffered_effects_replay_identically() {
        // One party performing the same interleaved ops directly and via a
        // buffer must leave the network in an identical state.
        let inbox = Envelope::new(PartyId(1), PartyId(0), vec![7; 5]);
        let typed_inbox = Envelope::new(PartyId(1), PartyId(0), wire::encode_msg(&TestQuery(9)));
        let script = |ctx: &mut Ctx<'_>| {
            ctx.send(PartyId(1), &1u64);
            ctx.charge_receive(&inbox);
            ctx.send_raw(PartyId(1), vec![9; 3]);
            ctx.send_msg(PartyId(1), &TestQuery(4));
            let _ = ctx.recv_msg::<TestQuery>(&typed_inbox);
        };

        let mut direct = Network::new(2);
        script(&mut direct.ctx(PartyId(0), 0));

        let mut buffered = Network::new(2);
        let mut fx = RoundEffects::new();
        script(&mut Ctx::buffered(PartyId(0), 0, 2, &mut fx));
        assert_eq!(fx.len(), 5);
        buffered.apply_effects(fx);

        assert_eq!(direct.staged(), buffered.staged());
        assert_eq!(direct.report(), buffered.report());
        for id in [PartyId(0), PartyId(1)] {
            assert_eq!(
                direct.metrics().party(id).sent_by_tag,
                buffered.metrics().party(id).sent_by_tag
            );
            assert_eq!(
                direct.metrics().party(id).recv_by_tag,
                buffered.metrics().party(id).recv_by_tag
            );
        }
    }

    #[test]
    fn scratch_reuse_produces_identical_payloads() {
        // Interleave typed and untyped sends of different lengths so stale
        // scratch bytes would surface as payload corruption if the clear /
        // exact-size-copy discipline broke.
        let mut net = Network::new(2);
        {
            let mut ctx = net.ctx(PartyId(0), 0);
            ctx.send_msg(PartyId(1), &TestQuery(7));
            ctx.send(PartyId(1), &0xAABBCCDDu32);
            ctx.send_msg(PartyId(1), &TestQuery(u64::MAX));
            ctx.send(PartyId(1), &vec![1u8, 2, 3]);
        }
        let staged = net.take_staged();
        assert_eq!(staged[0].payload, wire::encode_msg(&TestQuery(7)));
        assert_eq!(
            staged[1].payload,
            pba_crypto::codec::encode_to_vec(&0xAABBCCDDu32)
        );
        assert_eq!(staged[2].payload, wire::encode_msg(&TestQuery(u64::MAX)));
        assert_eq!(
            staged[3].payload,
            pba_crypto::codec::encode_to_vec(&vec![1u8, 2, 3])
        );
        // Exact-size copies: no scratch capacity leaks into envelopes.
        for env in &staged {
            assert_eq!(env.payload.len(), env.payload.capacity());
        }
    }

    #[test]
    fn round_effects_equality_ignores_scratch() {
        let mut a = RoundEffects::new();
        let mut b = RoundEffects::new();
        Ctx::buffered(PartyId(0), 0, 2, &mut a).send_msg(PartyId(1), &TestQuery(1));
        Ctx::buffered(PartyId(0), 0, 2, &mut b).send_msg(PartyId(1), &TestQuery(1));
        // Dirty one scratch differently: logs must still compare equal.
        Ctx::buffered(PartyId(0), 0, 2, &mut b)
            .scratch()
            .extend([9u8; 40]);
        assert_eq!(a, b);
    }

    /// A timing model with a single fixed-latency axis and no partition or
    /// churn, on a throwaway key.
    fn fixed_delay_model(delay: u64) -> TimingModel {
        TimingModel::new(
            [7u8; 32],
            Some(crate::faults::LatencyDist::Fixed { delay }),
            None,
            Vec::new(),
        )
    }

    #[test]
    fn zero_delay_model_is_byte_identical_to_no_model() {
        let run = |timed: bool| {
            let mut net = Network::new(2);
            net.enable_transcript();
            if timed {
                net.set_timing(fixed_delay_model(0));
            }
            let mut batches = Vec::new();
            for round in 0..3u8 {
                net.stage(Envelope::new(PartyId(0), PartyId(1), vec![round]));
                batches.push(net.take_staged());
                net.bump_round();
            }
            (batches, net.transcript().unwrap().to_vec())
        };
        assert_eq!(run(false), run(true));
        let mut net = Network::new(2);
        net.set_timing(fixed_delay_model(0));
        net.stage(Envelope::new(PartyId(0), PartyId(1), vec![1]));
        net.take_staged();
        let stats = net.timing_stats();
        assert_eq!((stats.staged, stats.delivered), (1, 1));
        assert_eq!(net.in_flight_len(), 0);
    }

    #[test]
    fn one_tick_delay_delivers_one_round_late() {
        let mut net = Network::new(2);
        net.set_timing(fixed_delay_model(1));
        net.stage(Envelope::new(PartyId(0), PartyId(1), vec![9]));
        // Staged at tick 0 with delay 1: not due yet.
        assert!(net.take_staged().is_empty());
        assert_eq!(net.in_flight_len(), 1);
        net.bump_round();
        let late = net.take_staged();
        assert_eq!(late.len(), 1);
        assert_eq!(late[0].payload, vec![9]);
        assert_eq!(net.in_flight_len(), 0);
        assert_eq!(net.timing_stats().delivered, 1);
    }

    #[test]
    fn timing_base_is_lazy() {
        // Rounds bumped before the first delivery do not consume model
        // ticks: the clock starts at the first `take_staged`.
        let mut net = Network::new(2);
        net.set_timing(TimingModel::new(
            [7u8; 32],
            None,
            None,
            vec![(PartyId(1), 0, 2)],
        ));
        for _ in 0..10 {
            net.bump_round(); // synthetic pre-phase rounds
        }
        assert!(net.offline_now(PartyId(1)), "window starts at tick 0");
        net.take_staged(); // clock starts: tick 0
        assert!(net.offline_now(PartyId(1)));
        net.bump_round();
        net.bump_round();
        assert!(!net.offline_now(PartyId(1)), "rejoined at tick 2");
        assert!(net.offline_set().is_empty());
    }

    #[test]
    fn expired_messages_are_counted_not_lost() {
        // Receiver 0 is offline for ticks 0..2; the partition blocks
        // 1 -> 0 is not configured here, so expiry is all churn.
        let mut net = Network::new(2);
        net.set_timing(TimingModel::new(
            [7u8; 32],
            None,
            Some((1, Some(1))),
            vec![(PartyId(0), 0, 2)],
        ));
        // Tick 0: 1 -> 0 is blocked by the partition (from >= 1, to < 1).
        net.stage(Envelope::new(PartyId(1), PartyId(0), vec![1]));
        // 0 -> 1 passes (partition is asymmetric).
        net.stage(Envelope::new(PartyId(0), PartyId(1), vec![2]));
        let batch = net.take_staged();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].payload, vec![2]);
        net.bump_round();
        // Tick 1: the cut healed, but the receiver is offline until tick 2.
        net.stage(Envelope::new(PartyId(1), PartyId(0), vec![3]));
        assert!(net.take_staged().is_empty());
        net.bump_round();
        // Tick 2: receiver is back; delivery resumes.
        net.stage(Envelope::new(PartyId(1), PartyId(0), vec![4]));
        assert_eq!(net.take_staged().len(), 1);
        let stats = net.timing_stats();
        assert_eq!(stats.staged, 4);
        assert_eq!(stats.delivered, 2);
        assert_eq!(stats.expired_partition, 1);
        assert_eq!(stats.expired_offline, 1);
        assert_eq!(
            stats.staged,
            stats.delivered
                + stats.expired_partition
                + stats.expired_offline
                + net.in_flight_len() as u64
        );
    }

    /// A transport that fails every exchange — exercises the network's
    /// error latch.
    #[derive(Debug)]
    struct FailingTransport;

    impl crate::transport::Transport for FailingTransport {
        fn exchange(
            &mut self,
            seq: u64,
            _staged: Vec<Envelope>,
        ) -> Result<Vec<Envelope>, crate::transport::TransportError> {
            Err(crate::transport::TransportError::PeerClosed { peer: 1, seq })
        }
        fn kind(&self) -> &'static str {
            "failing"
        }
    }

    #[test]
    fn local_transport_matches_bare_network_transcript() {
        let run = |attach: bool| {
            let mut net = Network::new(2);
            if attach {
                net.attach_transport(Box::new(crate::transport::LocalTransport::new()));
            } else {
                net.enable_transcript();
            }
            let mut batches = Vec::new();
            for round in 0..3u8 {
                net.stage(Envelope::new(PartyId(0), PartyId(1), vec![round]));
                batches.push(net.take_staged());
                net.bump_round();
            }
            (batches, net.transcript().unwrap().to_vec())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn round_overlap_absorbs_bumps_and_nothing_else() {
        // Three rounds of traffic; with `overlap`, two extra bumps land
        // inside a window after the first round (the deferred-certification
        // shape). They must be counted by the window and by nothing else.
        let run = |overlap: bool| {
            let mut net = Network::new(2);
            net.enable_transcript();
            let mut absorbed = 0;
            for round in 0..3u8 {
                net.stage(Envelope::new(PartyId(0), PartyId(1), vec![round]));
                net.metrics_mut().record_send(PartyId(0), PartyId(1), 1);
                net.take_staged();
                net.bump_round();
                if round == 0 {
                    if overlap {
                        net.begin_round_overlap();
                        net.bump_round();
                        net.bump_round();
                    }
                    // Bytes are never absorbed: the charge lands in full,
                    // window or not.
                    net.metrics_mut().record_send(PartyId(1), PartyId(0), 7);
                    if overlap {
                        absorbed = net.end_round_overlap();
                    }
                }
            }
            (
                absorbed,
                net.now(),
                net.report(),
                net.transcript().unwrap().to_vec(),
            )
        };
        let (absorbed, now, report, transcript) = run(true);
        assert_eq!(absorbed, 2);
        assert_eq!((0, now, report, transcript), run(false));
    }

    #[test]
    fn transport_failure_latches_and_empties_delivery() {
        let mut net = Network::new(2);
        net.attach_transport(Box::new(FailingTransport));
        net.stage(Envelope::new(PartyId(0), PartyId(1), vec![1]));
        assert!(net.transport_error().is_none());
        assert!(net.take_staged().is_empty());
        assert_eq!(
            net.transport_error(),
            Some(&crate::transport::TransportError::PeerClosed { peer: 1, seq: 0 })
        );
        // Later rounds stay empty and keep the *first* error.
        net.stage(Envelope::new(PartyId(0), PartyId(1), vec![2]));
        assert!(net.take_staged().is_empty());
        assert_eq!(
            net.transport_error(),
            Some(&crate::transport::TransportError::PeerClosed { peer: 1, seq: 0 })
        );
        assert_eq!(net.transport().unwrap().kind(), "failing");
        assert!(net.detach_transport().is_some());
    }

    #[test]
    #[should_panic(expected = "mutually exclusive")]
    fn transport_after_timing_panics() {
        let mut net = Network::new(2);
        net.set_timing(fixed_delay_model(0));
        net.attach_transport(Box::new(crate::transport::LocalTransport::new()));
    }

    #[test]
    #[should_panic(expected = "mutually exclusive")]
    fn timing_after_transport_panics() {
        let mut net = Network::new(2);
        net.attach_transport(Box::new(crate::transport::LocalTransport::new()));
        net.set_timing(fixed_delay_model(0));
    }

    #[test]
    fn transcript_chains_delivered_batches() {
        let mut a = Network::new(2);
        let mut b = Network::new(2);
        a.enable_transcript();
        b.enable_transcript();
        for net in [&mut a, &mut b] {
            net.stage(Envelope::new(PartyId(0), PartyId(1), vec![1]));
            net.take_staged();
            net.stage(Envelope::new(PartyId(1), PartyId(0), vec![2]));
            net.take_staged();
        }
        assert_eq!(a.transcript(), b.transcript());
        assert_eq!(a.transcript().unwrap().len(), 2);

        // A divergence in round 1 shows up at index 1, not index 0.
        let mut c = Network::new(2);
        c.enable_transcript();
        c.stage(Envelope::new(PartyId(0), PartyId(1), vec![1]));
        c.take_staged();
        c.stage(Envelope::new(PartyId(1), PartyId(0), vec![3]));
        c.take_staged();
        let (ta, tc) = (a.transcript().unwrap(), c.transcript().unwrap());
        assert_eq!(ta[0], tc[0]);
        assert_ne!(ta[1], tc[1]);
    }
}
