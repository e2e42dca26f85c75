#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # polylog-ba
//!
//! A production-quality Rust reproduction of
//! *Boyle, Cohen, Goel — "Breaking the O(√n)-Bit Barrier: Byzantine
//! Agreement with Polylog Bits Per Party"* (PODC 2021).
//!
//! The paper constructs the first Byzantine agreement protocols in which
//! **every** party communicates only `polylog(n) · poly(κ)` bits, via a new
//! primitive — *succinctly reconstructed distributed signatures (SRDS)* —
//! that certifies majority agreement with an `Õ(1)`-size certificate
//! aggregated up an almost-everywhere communication tree.
//!
//! This crate is a facade over the workspace:
//!
//! * [`crypto`] ([`pba_crypto`]) — from-scratch SHA-256, HMAC, PRF/PRG,
//!   Merkle trees, Lamport/Merkle signatures, field/Shamir, codecs;
//! * [`snark`] ([`pba_snark`]) — simulated SNARKs, proof-carrying data,
//!   and the generalized subset task of §1.2;
//! * [`net`] ([`pba_net`]) — the synchronous metered network simulator;
//! * [`aetree`] ([`pba_aetree`]) — almost-everywhere communication trees
//!   (Definitions 2.3/3.4) and `f_ae-comm`;
//! * [`srds`] ([`pba_srds`]) — the SRDS primitive, the OWF/trusted-PKI and
//!   SNARK/bare-PKI constructions, the multisignature baseline, and the
//!   Figure 1/2 security experiments;
//! * [`core`] ([`pba_core`]) — `π_ba` (Figure 3), the sub-functionalities,
//!   the broadcast corollary, the Table 1 baselines, and the lower-bound
//!   isolation experiment.
//!
//! # Quickstart
//!
//! ```
//! use polylog_ba::prelude::*;
//!
//! // 64 parties agree on a bit using the OWF/trusted-PKI SRDS.
//! let scheme = OwfSrds::with_defaults();
//! let config = BaConfig::honest(64, b"quickstart");
//! let inputs = vec![1u8; 64];
//! let outcome = run_ba(&scheme, &config, &inputs);
//! assert!(outcome.agreement);
//! assert_eq!(outcome.output, Some(1));
//! // Per-party communication is polylog — far below n bytes each:
//! println!("max bytes/party: {}", outcome.report.max_bytes_per_party);
//! ```

pub use pba_aetree as aetree;
pub use pba_core as core;
pub use pba_crypto as crypto;
pub use pba_net as net;
pub use pba_snark as snark;
pub use pba_srds as srds;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use pba_aetree::{analysis::TreeAnalysis, params::TreeParams, tree::Tree};
    pub use pba_core::baselines::{all_to_all_ba, sqrt_sampling_boost};
    pub use pba_core::broadcast::{run_broadcasts, BroadcastOutcome};
    pub use pba_core::protocol::{
        run_ba, try_run_ba, AdversaryProfile, BaConfig, BaOutcome, KeyError, KeyPolicy,
        ProtocolError, ProtocolPhase, RoundOutcome, RunOutcome, Service,
    };
    pub use pba_crypto::prg::Prg;
    pub use pba_crypto::sha256::{Digest, Sha256};
    pub use pba_net::corruption::CorruptionPlan;
    pub use pba_net::faults::{GarbleMode, StrategySpec};
    pub use pba_net::{Network, PartyId, Report, TagBreakdown, WireMsg};
    pub use pba_srds::experiments::{
        run_forgery, run_robustness, AggregateForgeryAdversary, DefaultRobustnessAdversary,
    };
    pub use pba_srds::multisig::MultisigSrds;
    pub use pba_srds::owf::OwfSrds;
    pub use pba_srds::snark::SnarkSrds;
    pub use pba_srds::traits::{PkiBoard, PkiMode, Srds};
}
