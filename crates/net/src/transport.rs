//! The transport seam: one trait, two backends, one oracle.
//!
//! Every replica of a deployment runs the *full* deterministic execution
//! — all `n` machines, all phases — because every piece of protocol state
//! derives from `(seed, config)`. What a real deployment adds is
//! authority: each endpoint *owns* a slice of the parties (its
//! [`PeerMap`] range), and bytes from an owned sender are authoritative.
//! A [`Transport`] plugs into the network's single delivery boundary
//! ([`crate::network::Network::take_staged`]): at each exchange the
//! network hands the transport the round's staged batch, and the
//! transport returns the batch that will actually be delivered.
//!
//! * [`LocalTransport`] is the identity: the staged batch *is* the
//!   delivered batch. This is the classic in-process simulator, and the
//!   **golden oracle** for everything else.
//! * [`TcpTransport`] ships every staged envelope whose sender is owned
//!   locally and whose receiver is owned remotely to the receiver's
//!   endpoint, then *substitutes* the authoritative socket bytes it
//!   receives into its own locally-computed batch — at the exact staged
//!   index the sender stamped on the frame ([`Frame::Envelope`]), never
//!   by reordering heuristics. Delivery order is therefore the sim's
//!   emission order on every backend, and the chained transcript digest
//!   the network already records is directly comparable across backends:
//!   the first differing index names the first diverging round.
//!
//! Substituted bytes are load-bearing — they feed the machines' inboxes —
//! so a byte corrupted in flight genuinely diverges the replica instead
//! of being papered over by the local copy. That is what makes the
//! differential gate in `tests/transport_differential.rs` an end-to-end
//! check of the socket path, not a checksum of the simulator against
//! itself.
//!
//! Every network exchanges through a transport ([`LocalTransport`] until
//! another is attached), and timing faults compose with it: a
//! [`crate::faults::TimingModel`] acts on the *exchanged* batch, after the
//! substitution. The batch a socket returns is the batch the oracle
//! exchanged, in the same order, and every delay, partition cut and
//! churn window is a pure function of `(timing key, link, tick)`, so every
//! replica queues, drops and releases the same envelopes at the same
//! tick.

use crate::discovery::{Hello, PeerMap};
use crate::envelope::Envelope;
use crate::framing::{frame_to_vec, write_frame, Frame, FrameReader};
use pba_crypto::Digest;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A structured transport failure. Every socket misbehavior — timeouts,
/// peers vanishing, handshake mismatches, frame corruption — surfaces as
/// one of these (recorded on the network, propagated as
/// `ProtocolError::Transport` by the protocol layer), never as a hang or
/// a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// Could not reach (or accept) a peer within the connect window.
    ConnectTimeout {
        /// The address being dialed, or `accept` for the listening side.
        addr: String,
    },
    /// A connection was established but the peer's hello never arrived.
    HelloTimeout {
        /// The peer's address.
        addr: String,
    },
    /// The peer's hello failed validation (wrong genesis, version, party
    /// range, or tick base).
    Hello {
        /// The peer's endpoint index.
        peer: usize,
        /// The first mismatching field.
        mismatch: crate::discovery::HelloMismatch,
    },
    /// The peer's connection closed while traffic was still expected.
    PeerClosed {
        /// The peer's endpoint index.
        peer: usize,
        /// The exchange during which the close surfaced.
        seq: u64,
    },
    /// The watchdog expired while gathering an exchange.
    RecvTimeout {
        /// The exchange being gathered.
        seq: u64,
        /// Peers whose round marker was still outstanding.
        waiting_on: Vec<usize>,
    },
    /// A peer's round marker named a different exchange — the replicas'
    /// round clocks disagree.
    SeqMismatch {
        /// The peer's endpoint index.
        peer: usize,
        /// The exchange this endpoint is gathering.
        expected: u64,
        /// The exchange the peer announced.
        found: u64,
    },
    /// A peer sent an envelope this replica's deterministic execution
    /// did not predict (bad index, wrong endpoints) — the replicas have
    /// diverged.
    Divergence {
        /// The peer's endpoint index.
        peer: usize,
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// The peer's byte stream failed to parse as frames.
    Frame {
        /// The peer's endpoint index.
        peer: usize,
        /// The framing error.
        detail: String,
    },
    /// A socket operation failed.
    Io {
        /// What was being attempted.
        context: String,
        /// The OS error.
        detail: String,
    },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::ConnectTimeout { addr } => write!(f, "connect timeout: {addr}"),
            TransportError::HelloTimeout { addr } => write!(f, "hello timeout from {addr}"),
            TransportError::Hello { peer, mismatch } => {
                write!(f, "handshake with endpoint {peer} failed: {mismatch}")
            }
            TransportError::PeerClosed { peer, seq } => {
                write!(f, "endpoint {peer} closed during exchange {seq}")
            }
            TransportError::RecvTimeout { seq, waiting_on } => {
                write!(
                    f,
                    "exchange {seq} timed out waiting on endpoints {waiting_on:?}"
                )
            }
            TransportError::SeqMismatch {
                peer,
                expected,
                found,
            } => write!(
                f,
                "endpoint {peer} is at exchange {found}, expected {expected}"
            ),
            TransportError::Divergence { peer, detail } => {
                write!(f, "divergence with endpoint {peer}: {detail}")
            }
            TransportError::Frame { peer, detail } => {
                write!(f, "bad frame from endpoint {peer}: {detail}")
            }
            TransportError::Io { context, detail } => write!(f, "{context}: {detail}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Raw socket-level counters kept by a transport.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SocketStats {
    /// Exchanges performed ([`Transport::exchange`] calls).
    pub exchanges: u64,
    /// Envelope frames shipped to peers.
    pub frames_sent: u64,
    /// Envelope frames substituted from peers.
    pub frames_received: u64,
    /// Total bytes written to sockets (frames + round markers).
    pub bytes_sent: u64,
    /// Total bytes read from sockets.
    pub bytes_received: u64,
}

/// The delivery backend behind [`crate::network::Network::take_staged`].
pub trait Transport: std::fmt::Debug + Send {
    /// Performs exchange `seq`: publishes the locally-owned traffic in
    /// `staged`, gathers the remotely-owned traffic, and returns the
    /// batch to deliver — same length, same order, remote-sender entries
    /// carrying authoritative peer bytes.
    ///
    /// # Errors
    ///
    /// A [`TransportError`] on any socket failure or replica divergence;
    /// the network records it and delivers nothing further.
    fn exchange(
        &mut self,
        seq: u64,
        staged: Vec<Envelope>,
    ) -> Result<Vec<Envelope>, TransportError>;

    /// A short backend label for reports (`"sim"`, `"tcp"`).
    fn kind(&self) -> &'static str;

    /// Socket-level counters (all zero for in-process backends).
    fn stats(&self) -> SocketStats {
        SocketStats::default()
    }
}

/// The identity transport: delivers the staged batch unchanged. This is
/// the in-process simulator expressed through the trait, and the golden
/// oracle the socket backends are diffed against.
#[derive(Debug, Default)]
pub struct LocalTransport {
    exchanges: u64,
}

impl LocalTransport {
    /// A fresh passthrough transport.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Transport for LocalTransport {
    fn exchange(
        &mut self,
        _seq: u64,
        staged: Vec<Envelope>,
    ) -> Result<Vec<Envelope>, TransportError> {
        self.exchanges += 1;
        Ok(staged)
    }

    fn kind(&self) -> &'static str {
        "sim"
    }

    fn stats(&self) -> SocketStats {
        SocketStats {
            exchanges: self.exchanges,
            ..SocketStats::default()
        }
    }
}

/// Knobs for socket establishment and the exchange watchdog.
#[derive(Clone, Copy, Debug)]
pub struct TransportOpts {
    /// How long to keep dialing (or accepting) before giving up.
    pub connect_timeout: Duration,
    /// How long to wait for a connected peer's hello.
    pub hello_timeout: Duration,
    /// Watchdog on each receive while gathering an exchange: the
    /// guarantee that a dead or diverged peer surfaces as
    /// [`TransportError::RecvTimeout`] instead of a hang.
    pub recv_timeout: Duration,
}

impl Default for TransportOpts {
    fn default() -> Self {
        TransportOpts {
            connect_timeout: Duration::from_secs(10),
            hello_timeout: Duration::from_secs(10),
            recv_timeout: Duration::from_secs(30),
        }
    }
}

/// What a reader thread feeds the exchange loop.
enum Event {
    /// A parsed frame from a peer.
    Frame(usize, Frame),
    /// The peer's stream ended (EOF, orderly bye, or socket error).
    Closed(usize),
    /// The peer's stream stopped parsing as frames.
    Bad(usize, String),
}

/// The TCP backend: blocking `std::net` sockets, one reader thread per
/// peer, length-delimited frames ([`crate::framing`]). See the module
/// docs for the substitution protocol.
#[derive(Debug)]
pub struct TcpTransport {
    map: PeerMap,
    opts: TransportOpts,
    /// Write halves, indexed by endpoint; `None` at `self_idx` and for
    /// peers that have said goodbye.
    streams: Vec<Option<TcpStream>>,
    rx: Receiver<Event>,
    /// Frames that arrived ahead of the exchange being gathered.
    pending: Vec<VecDeque<Frame>>,
    /// Peers whose stream has closed (orderly or not).
    closed: Vec<bool>,
    stats: SocketStats,
    bytes_received: Arc<AtomicU64>,
}

impl TcpTransport {
    /// Binds this endpoint's listen address and connects the full mesh:
    /// higher-index endpoints dial lower-index ones, hellos are exchanged
    /// both ways and validated before any protocol byte flows.
    ///
    /// # Errors
    ///
    /// [`TransportError`] on bind/dial/accept failure, hello timeout, or
    /// hello mismatch.
    pub fn connect(
        map: PeerMap,
        genesis: Digest,
        tick_base: u64,
        opts: TransportOpts,
    ) -> Result<Self, TransportError> {
        let listener =
            TcpListener::bind(map.addr(map.self_idx())).map_err(|e| TransportError::Io {
                context: format!("bind {}", map.addr(map.self_idx())),
                detail: e.to_string(),
            })?;
        Self::with_listener(map, genesis, tick_base, opts, listener)
    }

    /// Like [`TcpTransport::connect`] but over a pre-bound listener —
    /// tests bind port 0 first, learn the OS-assigned ports, and build
    /// the peer map from the actual addresses.
    ///
    /// # Errors
    ///
    /// See [`TcpTransport::connect`].
    pub fn with_listener(
        map: PeerMap,
        genesis: Digest,
        tick_base: u64,
        opts: TransportOpts,
        listener: TcpListener,
    ) -> Result<Self, TransportError> {
        let k = map.k();
        let me = map.self_idx();
        let hello = Hello::for_map(&map, genesis, tick_base);
        let hello_frame = frame_to_vec(&Frame::Hello(hello));
        let mut streams: Vec<Option<TcpStream>> = (0..k).map(|_| None).collect();
        let mut leftovers: Vec<Vec<u8>> = vec![Vec::new(); k];

        // Dial every lower-index peer: send our hello, read theirs,
        // validate. Validation happens after both hellos are on the wire,
        // so a mismatch (wrong genesis, skewed tick base) surfaces as a
        // structured error on *both* sides.
        for j in 0..me {
            let mut stream = dial(map.addr(j), opts.connect_timeout)?;
            stream
                .write_all(&hello_frame)
                .map_err(|e| io_err("send hello", &e))?;
            let (peer_hello, leftover) = read_hello(&stream, map.addr(j), opts.hello_timeout)?;
            peer_hello
                .validate(&map, &genesis, tick_base, j)
                .map_err(|mismatch| TransportError::Hello { peer: j, mismatch })?;
            streams[j] = Some(stream);
            leftovers[j] = leftover;
        }

        // Accept every higher-index peer: read its hello to learn who it
        // is, reply with ours, then validate.
        let deadline = Instant::now() + opts.connect_timeout;
        listener
            .set_nonblocking(true)
            .map_err(|e| io_err("listener nonblocking", &e))?;
        for _ in me + 1..k {
            let mut stream = accept_until(&listener, deadline)?;
            let addr = stream
                .peer_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "<unknown>".into());
            let (peer_hello, leftover) = read_hello(&stream, &addr, opts.hello_timeout)?;
            let e = peer_hello.endpoint as usize;
            if e <= me || e >= k || streams[e].is_some() {
                return Err(TransportError::Divergence {
                    peer: e.min(k),
                    detail: format!("unexpected hello from endpoint index {e}"),
                });
            }
            stream
                .write_all(&hello_frame)
                .map_err(|err| io_err("send hello", &err))?;
            peer_hello
                .validate(&map, &genesis, tick_base, e)
                .map_err(|mismatch| TransportError::Hello { peer: e, mismatch })?;
            streams[e] = Some(stream);
            leftovers[e] = leftover;
        }

        // Hand each read half to a detached reader thread feeding one
        // shared channel. Per-peer frame order is preserved (TCP +
        // dedicated thread); cross-peer interleaving does not matter
        // because substitution is by staged index.
        let (tx, rx) = mpsc::channel();
        let bytes_received = Arc::new(AtomicU64::new(0));
        for (peer, slot) in streams.iter().enumerate() {
            if let Some(stream) = slot {
                stream.set_nodelay(true).ok();
                stream
                    .set_read_timeout(None)
                    .map_err(|e| io_err("clear read timeout", &e))?;
                let read_half = stream.try_clone().map_err(|e| io_err("clone stream", &e))?;
                let tx = tx.clone();
                let counter = Arc::clone(&bytes_received);
                let leftover = std::mem::take(&mut leftovers[peer]);
                counter.fetch_add(leftover.len() as u64, Ordering::Relaxed);
                std::thread::Builder::new()
                    .name(format!("pba-net-read-{peer}"))
                    .spawn(move || reader_loop(peer, read_half, tx, counter, leftover))
                    .map_err(|e| io_err("spawn reader", &e))?;
            }
        }

        Ok(TcpTransport {
            opts,
            streams,
            rx,
            pending: (0..k).map(|_| VecDeque::new()).collect(),
            closed: vec![false; k],
            stats: SocketStats::default(),
            bytes_received,
            map,
        })
    }

    /// The party-to-peer map this transport was built with.
    pub fn peer_map(&self) -> &PeerMap {
        &self.map
    }

    /// The next event for exchange gathering: replayed pending frames of
    /// still-awaited peers first, then the live channel under the
    /// watchdog.
    fn next_event(&mut self, seq: u64, done: &[bool]) -> Result<Event, TransportError> {
        for (peer, queue) in self.pending.iter_mut().enumerate() {
            if !done[peer] {
                if let Some(frame) = queue.pop_front() {
                    return Ok(Event::Frame(peer, frame));
                }
            }
        }
        match self.rx.recv_timeout(self.opts.recv_timeout) {
            Ok(event) => Ok(event),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                Err(TransportError::RecvTimeout {
                    seq,
                    waiting_on: done
                        .iter()
                        .enumerate()
                        .filter(|&(_, d)| !d)
                        .map(|(p, _)| p)
                        .collect(),
                })
            }
        }
    }

    /// Substitutes one peer envelope into the staged batch at its stamped
    /// index, after checking the peer was entitled to send exactly that
    /// entry.
    fn substitute(
        &mut self,
        peer: usize,
        seq: u64,
        staged: &mut [Envelope],
        staged_idx: u64,
        env: Envelope,
    ) -> Result<(), TransportError> {
        let diverged = |detail: String| TransportError::Divergence { peer, detail };
        let staged_len = staged.len();
        let slot = staged.get_mut(staged_idx as usize).ok_or_else(|| {
            diverged(format!(
                "exchange {seq}: staged index {staged_idx} out of range ({staged_len} staged)"
            ))
        })?;
        if slot.from != env.from || slot.to != env.to {
            return Err(diverged(format!(
                "exchange {seq}: staged[{staged_idx}] is {} -> {}, peer sent {} -> {}",
                slot.from, slot.to, env.from, env.to
            )));
        }
        if self.map.owner(env.from) != peer || !self.map.is_local(env.to) {
            return Err(diverged(format!(
                "exchange {seq}: endpoint {peer} not entitled to {} -> {}",
                env.from, env.to
            )));
        }
        slot.payload = env.payload;
        self.stats.frames_received += 1;
        Ok(())
    }
}

impl Transport for TcpTransport {
    fn exchange(
        &mut self,
        seq: u64,
        mut staged: Vec<Envelope>,
    ) -> Result<Vec<Envelope>, TransportError> {
        self.stats.exchanges += 1;
        let k = self.map.k();
        let me = self.map.self_idx();
        if k == 1 {
            return Ok(staged);
        }

        // Publish: envelopes we own the sender of, addressed off-endpoint,
        // batched into one buffer per peer, closed with the round marker.
        let mut out: Vec<Vec<u8>> = vec![Vec::new(); k];
        for (i, env) in staged.iter().enumerate() {
            if self.map.is_local(env.from) && !self.map.is_local(env.to) {
                write_frame(
                    &mut out[self.map.owner(env.to)],
                    &Frame::Envelope {
                        staged_idx: i as u64,
                        env: env.clone(),
                    },
                );
                self.stats.frames_sent += 1;
            }
        }
        for (peer, buf) in out.iter_mut().enumerate() {
            if peer == me {
                continue;
            }
            if self.closed[peer] {
                return Err(TransportError::PeerClosed { peer, seq });
            }
            write_frame(buf, &Frame::Round { seq });
            let stream = self
                .streams
                .get_mut(peer)
                .and_then(Option::as_mut)
                .ok_or(TransportError::PeerClosed { peer, seq })?;
            stream
                .write_all(buf)
                .map_err(|_| TransportError::PeerClosed { peer, seq })?;
            self.stats.bytes_sent += buf.len() as u64;
        }

        // Gather until every peer's round marker for `seq` has arrived,
        // substituting authoritative bytes as they come in. Frames from
        // peers already done this exchange belong to a later one and are
        // stashed.
        let mut done: Vec<bool> = (0..k).map(|p| p == me).collect();
        while done.iter().any(|d| !d) {
            match self.next_event(seq, &done)? {
                Event::Frame(peer, frame) => {
                    if done[peer] {
                        self.pending[peer].push_back(frame);
                        continue;
                    }
                    match frame {
                        Frame::Round { seq: found } if found == seq => done[peer] = true,
                        Frame::Round { seq: found } => {
                            return Err(TransportError::SeqMismatch {
                                peer,
                                expected: seq,
                                found,
                            })
                        }
                        Frame::Envelope { staged_idx, env } => {
                            self.substitute(peer, seq, &mut staged, staged_idx, env)?;
                        }
                        Frame::Hello(_) => {
                            return Err(TransportError::Divergence {
                                peer,
                                detail: format!("exchange {seq}: repeated hello"),
                            })
                        }
                        Frame::Bye => {
                            return Err(TransportError::PeerClosed { peer, seq });
                        }
                    }
                }
                Event::Closed(peer) => {
                    self.closed[peer] = true;
                    self.streams[peer] = None;
                    if !done[peer] {
                        return Err(TransportError::PeerClosed { peer, seq });
                    }
                }
                Event::Bad(peer, detail) => {
                    self.closed[peer] = true;
                    return Err(TransportError::Frame { peer, detail });
                }
            }
        }
        self.stats.bytes_received = self.bytes_received.load(Ordering::Relaxed);
        Ok(staged)
    }

    fn kind(&self) -> &'static str {
        "tcp"
    }

    fn stats(&self) -> SocketStats {
        let mut stats = self.stats;
        stats.bytes_received = self.bytes_received.load(Ordering::Relaxed);
        stats
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // Orderly goodbye; reader threads exit when the streams close.
        let bye = frame_to_vec(&Frame::Bye);
        for stream in self.streams.iter_mut().flatten() {
            let _ = stream.write_all(&bye);
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

fn io_err(context: &str, e: &std::io::Error) -> TransportError {
    TransportError::Io {
        context: context.to_string(),
        detail: e.to_string(),
    }
}

/// Dials `addr`, retrying on refusal until the deadline — peers of a
/// deployment start in arbitrary order, so early refusals are expected.
fn dial(addr: &str, timeout: Duration) -> Result<TcpStream, TransportError> {
    let deadline = Instant::now() + timeout;
    let timeout_err = || TransportError::ConnectTimeout {
        addr: addr.to_string(),
    };
    loop {
        let remaining = deadline
            .checked_duration_since(Instant::now())
            .ok_or_else(timeout_err)?;
        let target = addr
            .to_socket_addrs()
            .map_err(|e| io_err(&format!("resolve {addr}"), &e))?
            .next()
            .ok_or_else(|| TransportError::Io {
                context: format!("resolve {addr}"),
                detail: "no addresses".into(),
            })?;
        match TcpStream::connect_timeout(&target, remaining.min(Duration::from_millis(250))) {
            Ok(stream) => return Ok(stream),
            Err(_) => {
                if Instant::now() >= deadline {
                    return Err(timeout_err());
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// Accepts one connection from a nonblocking listener before `deadline`.
fn accept_until(listener: &TcpListener, deadline: Instant) -> Result<TcpStream, TransportError> {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream
                    .set_nonblocking(false)
                    .map_err(|e| io_err("stream blocking", &e))?;
                return Ok(stream);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(TransportError::ConnectTimeout {
                        addr: "accept".into(),
                    });
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(io_err("accept", &e)),
        }
    }
}

/// Reads exactly one hello frame from a freshly-connected stream. Also
/// returns any bytes read past the hello — the peer may already be
/// streaming its first exchange — so they can seed the connection's
/// long-lived reader instead of being lost.
fn read_hello(
    stream: &TcpStream,
    addr: &str,
    timeout: Duration,
) -> Result<(Hello, Vec<u8>), TransportError> {
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| io_err("set read timeout", &e))?;
    let deadline = Instant::now() + timeout;
    let mut reader = FrameReader::new();
    let mut stream_ref = stream;
    let mut buf = [0u8; 1024];
    loop {
        match reader.pop() {
            Ok(Some(Frame::Hello(h))) => return Ok((h, reader.into_buffered())),
            Ok(Some(_)) => {
                return Err(TransportError::Frame {
                    peer: usize::MAX,
                    detail: format!("{addr}: first frame was not a hello"),
                })
            }
            Ok(None) => {}
            Err(e) => {
                return Err(TransportError::Frame {
                    peer: usize::MAX,
                    detail: format!("{addr}: {e}"),
                })
            }
        }
        if Instant::now() >= deadline {
            return Err(TransportError::HelloTimeout {
                addr: addr.to_string(),
            });
        }
        match stream_ref.read(&mut buf) {
            Ok(0) => {
                return Err(TransportError::HelloTimeout {
                    addr: addr.to_string(),
                })
            }
            Ok(n) => reader.push(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                return Err(TransportError::HelloTimeout {
                    addr: addr.to_string(),
                })
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(io_err(&format!("read hello from {addr}"), &e)),
        }
    }
}

/// One peer's read half: parse frames, forward them, report the close.
/// `leftover` carries bytes the hello reader consumed past the hello.
fn reader_loop(
    peer: usize,
    mut stream: TcpStream,
    tx: Sender<Event>,
    bytes: Arc<AtomicU64>,
    leftover: Vec<u8>,
) {
    let mut reader = FrameReader::new();
    reader.push(&leftover);
    let mut buf = [0u8; 16 * 1024];
    loop {
        loop {
            match reader.pop() {
                Ok(Some(Frame::Bye)) => {
                    let _ = tx.send(Event::Closed(peer));
                    return;
                }
                Ok(Some(frame)) => {
                    if tx.send(Event::Frame(peer, frame)).is_err() {
                        return; // transport dropped; nobody is listening
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    let _ = tx.send(Event::Bad(peer, e.to_string()));
                    return;
                }
            }
        }
        match stream.read(&mut buf) {
            Ok(0) => {
                let _ = tx.send(Event::Closed(peer));
                return;
            }
            Ok(n) => {
                bytes.fetch_add(n as u64, Ordering::Relaxed);
                reader.push(&buf[..n]);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                let _ = tx.send(Event::Closed(peer));
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discovery::genesis_digest;
    use crate::envelope::PartyId;

    fn quick_opts() -> TransportOpts {
        TransportOpts {
            connect_timeout: Duration::from_secs(5),
            hello_timeout: Duration::from_secs(5),
            recv_timeout: Duration::from_secs(5),
        }
    }

    /// Binds `k` port-0 listeners and builds the shared peer map from
    /// the OS-assigned addresses.
    fn listeners_and_map(n: usize, k: usize) -> (Vec<TcpListener>, PeerMap) {
        let listeners: Vec<TcpListener> = (0..k)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
            .collect();
        let addrs: Vec<String> = listeners
            .iter()
            .map(|l| l.local_addr().expect("addr").to_string())
            .collect();
        (listeners, PeerMap::contiguous(n, addrs, 0))
    }

    /// Spawns one thread per endpoint, each building a transport and
    /// running `rounds` staged batches through it; returns each
    /// endpoint's delivered batches.
    fn run_mesh(
        n: usize,
        k: usize,
        rounds: usize,
        make_staged: impl Fn(u64) -> Vec<Envelope> + Clone + Send + 'static,
    ) -> Vec<Vec<Vec<Envelope>>> {
        let (listeners, map) = listeners_and_map(n, k);
        let genesis = genesis_digest(b"mesh", "charged", "snark", &map);
        let mut handles = Vec::new();
        for (e, listener) in listeners.into_iter().enumerate() {
            let map = map.for_endpoint(e);
            let make = make_staged.clone();
            handles.push(std::thread::spawn(move || {
                let mut t = TcpTransport::with_listener(map, genesis, 0, quick_opts(), listener)
                    .expect("connect");
                (0..rounds as u64)
                    .map(|seq| t.exchange(seq, make(seq)).expect("exchange"))
                    .collect::<Vec<_>>()
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    }

    #[test]
    fn local_transport_is_identity() {
        let mut t = LocalTransport::new();
        let staged = vec![Envelope::new(PartyId(0), PartyId(1), vec![1, 2])];
        assert_eq!(t.exchange(0, staged.clone()).unwrap(), staged);
        assert_eq!(t.kind(), "sim");
        assert_eq!(t.stats().exchanges, 1);
    }

    #[test]
    fn two_endpoint_exchange_substitutes_identically() {
        // All-to-all traffic, 4 parties over 2 endpoints: every endpoint
        // must deliver the same full batch, in staged order.
        let n = 4u64;
        let make = move |seq: u64| {
            let mut staged = Vec::new();
            for from in 0..n {
                for to in 0..n {
                    staged.push(Envelope::new(
                        PartyId(from),
                        PartyId(to),
                        vec![seq as u8, from as u8, to as u8],
                    ));
                }
            }
            staged
        };
        let results = run_mesh(n as usize, 2, 3, make);
        for seq in 0..3u64 {
            let expected = make(seq);
            for (e, per_endpoint) in results.iter().enumerate() {
                assert_eq!(
                    per_endpoint[seq as usize], expected,
                    "endpoint {e} seq {seq}"
                );
            }
        }
    }

    #[test]
    fn three_endpoint_empty_rounds_stay_in_lockstep() {
        let results = run_mesh(6, 3, 5, |_| Vec::new());
        for per_endpoint in &results {
            assert_eq!(per_endpoint.len(), 5);
            assert!(per_endpoint.iter().all(Vec::is_empty));
        }
    }

    #[test]
    fn wrong_genesis_hello_is_structured_on_both_sides() {
        let (listeners, map) = listeners_and_map(4, 2);
        let mut handles = Vec::new();
        for (e, listener) in listeners.into_iter().enumerate() {
            let map = map.for_endpoint(e);
            // Endpoint 1 disagrees about the seed.
            let seed: &[u8] = if e == 0 { b"seed-a" } else { b"seed-b" };
            let genesis = genesis_digest(seed, "charged", "snark", &map);
            handles.push(std::thread::spawn(move || {
                TcpTransport::with_listener(map, genesis, 0, quick_opts(), listener).err()
            }));
        }
        for h in handles {
            let err = h.join().expect("join").expect("must fail");
            match err {
                TransportError::Hello { mismatch, .. } => {
                    assert_eq!(mismatch.field, crate::discovery::HelloField::Genesis)
                }
                other => panic!("expected hello mismatch, got {other}"),
            }
        }
    }

    #[test]
    fn tick_base_skew_is_structured() {
        let (listeners, map) = listeners_and_map(4, 2);
        let genesis = genesis_digest(b"tick", "charged", "snark", &map);
        let mut handles = Vec::new();
        for (e, listener) in listeners.into_iter().enumerate() {
            let map = map.for_endpoint(e);
            handles.push(std::thread::spawn(move || {
                TcpTransport::with_listener(map, genesis, e as u64 * 3, quick_opts(), listener)
                    .err()
            }));
        }
        for h in handles {
            let err = h.join().expect("join").expect("must fail");
            match err {
                TransportError::Hello { mismatch, .. } => {
                    assert_eq!(mismatch.field, crate::discovery::HelloField::TickBase)
                }
                other => panic!("expected tick-base mismatch, got {other}"),
            }
        }
    }

    #[test]
    fn connect_timeout_is_structured_not_a_hang() {
        // Endpoint 1 dials endpoint 0's address, but nothing listens
        // there: loopback port 1 is privileged and outside the ephemeral
        // range, so nothing can be listening and concurrent tests' port-0
        // binds can never collide with it — every dial is refused until
        // the window expires.
        let dead_addr = "127.0.0.1:1".to_string();
        let live = TcpListener::bind("127.0.0.1:0").expect("bind");
        let live_addr = live.local_addr().expect("addr").to_string();
        let map = PeerMap::contiguous(4, vec![dead_addr.clone(), live_addr], 1);
        let genesis = genesis_digest(b"ct", "charged", "snark", &map);
        let opts = TransportOpts {
            connect_timeout: Duration::from_millis(300),
            ..quick_opts()
        };
        let err = TcpTransport::with_listener(map, genesis, 0, opts, live).unwrap_err();
        assert_eq!(err, TransportError::ConnectTimeout { addr: dead_addr });
    }

    #[test]
    fn peer_drop_mid_round_is_structured_not_a_hang() {
        let (listeners, map) = listeners_and_map(4, 2);
        let genesis = genesis_digest(b"drop", "charged", "snark", &map);
        let opts = TransportOpts {
            recv_timeout: Duration::from_secs(10),
            ..quick_opts()
        };
        let mut handles = Vec::new();
        for (e, listener) in listeners.into_iter().enumerate() {
            let map = map.for_endpoint(e);
            handles.push(std::thread::spawn(move || {
                let mut t =
                    TcpTransport::with_listener(map, genesis, 0, opts, listener).expect("connect");
                if e == 1 {
                    // Endpoint 1 completes exchange 0 and then vanishes.
                    t.exchange(0, Vec::new()).expect("exchange 0");
                    drop(t);
                    return None;
                }
                t.exchange(0, Vec::new()).expect("exchange 0");
                t.exchange(1, Vec::new()).err()
            }));
        }
        let errs: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect();
        assert_eq!(
            errs[0],
            Some(TransportError::PeerClosed { peer: 1, seq: 1 }),
        );
    }
}
