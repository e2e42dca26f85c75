#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # pba-net
//!
//! A synchronous, round-based network simulator with **exact per-party
//! communication accounting** — the measurement substrate for reproducing
//! the communication-complexity claims of *Boyle–Cohen–Goel (PODC 2021)*.
//!
//! The model matches the paper's: a complete synchronous point-to-point
//! network of authenticated channels; a static Byzantine adversary (chosen
//! adaptively during setup) that is **rushing** within each round; and
//! **dynamic message filtering** — receivers pay communication only for
//! messages they choose to process.
//!
//! * [`envelope`] — party identities and messages;
//! * [`metrics`] — per-party bytes/messages/locality counters and the
//!   aggregate [`metrics::Report`] (the measured Table 1 columns);
//! * [`network`] — staging, delivery, and the per-party [`network::Ctx`];
//! * [`runner`] — the phase runner driving honest [`runner::Machine`]s
//!   against an [`runner::Adversary`];
//! * [`par`] — scoped jobs joined in order, which every compute pass
//!   (the round engine, Fig. 3 step 4, establishment's keygen) runs on;
//! * [`corruption`] — corruption-set sampling plans;
//! * [`faults`] — composable Byzantine fault-injection strategies
//!   ([`faults::StrategySpec`]) for chaos testing, covering both message
//!   *content* (equivocation, garbling, floods, …) and *timing*: seeded
//!   per-link latency, healing partitions, and crash-recovery churn
//!   ([`faults::TimingModel`]), delivered through the network's
//!   deterministic delay queue. The installed model also carries the
//!   round engine's partial-synchrony window and slack, so they belong to
//!   whoever installed it and no phase passes them around;
//! * [`wire`] — the typed wire protocol: stable tag registry, `{tag, step}`
//!   headers, the hardened [`wire::decode_msg`] entry point, and the
//!   schema-driven [`wire::mutate_field`] used by structure-aware faults;
//! * [`transport`] — the delivery backend seam: the [`transport::Transport`]
//!   trait behind [`network::Network::take_staged`], with the in-process
//!   [`transport::LocalTransport`] oracle and the real-socket
//!   [`transport::TcpTransport`];
//! * [`framing`] — length-delimited socket framing (magic ‖ LEB128 len ‖
//!   body) with torn-read buffering and garbage resync;
//! * [`discovery`] — the party-to-peer [`discovery::PeerMap`] and the
//!   genesis-bound [`discovery::Hello`] handshake.
//!
//! # Examples
//!
//! ```
//! use pba_net::network::Network;
//! use pba_net::envelope::PartyId;
//!
//! let mut net = Network::new(4);
//! let mut ctx = net.ctx(PartyId(0), 0);
//! ctx.send(PartyId(1), &7u64);
//! drop(ctx);
//! assert_eq!(net.report().total_bytes, 8);
//! ```

pub mod corruption;
pub mod discovery;
pub mod envelope;
pub mod faults;
pub mod framing;
pub mod metrics;
pub mod network;
pub mod par;
pub mod runner;
pub mod transport;
pub mod wire;

pub use discovery::{genesis_digest, Hello, HelloField, HelloMismatch, PeerMap};
pub use envelope::{Envelope, PartyId};
pub use faults::{LatencyDist, TimingModel};
pub use metrics::{MetricsTable, Report, TagBreakdown};
pub use network::{Ctx, Network, RoundEffects, TimingStats};
pub use runner::{
    run_phase, run_phase_threaded, AdvSender, Adversary, Machine, PhaseOutcome, SilentAdversary,
};
pub use transport::{
    LocalTransport, SocketStats, TcpTransport, Transport, TransportError, TransportOpts,
};
pub use wire::WireMsg;
