#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # pba-core
//!
//! Balanced Byzantine agreement with polylog bits per party — the protocol
//! layer of the *Boyle–Cohen–Goel (PODC 2021)* reproduction:
//!
//! * [`phase_king`] — committee BA (`f_ba`, t < n/3);
//! * [`vss_coin`] — the coin `f_ct`: Shamir deal/echo + Reed–Solomon
//!   error-corrected reconstruction through one table-driven decoder per
//!   evaluation set (the Chor et al. instantiation), then phase-king on the
//!   candidate seed;
//! * [`aggr`] — the signature-aggregation functionality (`f_aggr-sig`);
//! * [`protocol`] — `π_ba` (Fig. 3), generic over the SRDS scheme;
//! * [`baselines`] — the Table 1 comparison protocols (all-to-all
//!   phase-king, BGT'13-style multisignature boost, KS'09-style √n
//!   sampling);
//! * [`broadcast`] — the broadcast corollary (Cor. 1.2(1));
//! * [`lowerbound`] — the isolation attack behind Theorems 1.3/1.4;
//! * [`mpc`] — the FHE-based MPC corollary (Cor. 1.2(2));
//! * [`kssv`] — interactive tree establishment (tournament election);
//! * [`dolev_strong`] — the classic authenticated broadcast baseline.
pub mod aggr;
pub mod baselines;
pub mod broadcast;
pub mod dolev_strong;
pub mod kssv;
pub mod lowerbound;
pub mod mpc;
pub mod phase_king;
pub mod protocol;
pub mod vss_coin;

pub use broadcast::{run_broadcasts, BroadcastOutcome};
pub use protocol::{
    run_ba, try_run_ba, AdversaryProfile, BaConfig, BaOutcome, ProtocolError, ProtocolPhase,
    RunOutcome, Service,
};
