#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # pba-srds
//!
//! **Succinctly reconstructed distributed signatures (SRDS)** — the new
//! cryptographic primitive of *Boyle–Cohen–Goel (PODC 2021)* — with both of
//! the paper's constructions and the security experiments of Figures 1–2.
//!
//! * [`traits`] — the SRDS definition (Def. 2.1) with the
//!   `Aggregate₁`/`Aggregate₂` succinctness decomposition (Def. 2.2);
//! * [`owf`] — SRDS from one-way functions in the trusted-PKI model
//!   (Theorem 2.7): sortition + oblivious-keygen Winternitz (W-OTS)
//!   one-time signatures;
//! * [`snark`] — SRDS from CRH + SNARKs in the bare-PKI + CRS model
//!   (Theorem 2.8): Merkle-indexed keys + proof-carrying-data counting;
//! * [`experiments`] — executable robustness (Fig. 1) and forgery (Fig. 2)
//!   games against pluggable adversaries.
pub mod experiments;
pub mod multisig;
pub mod owf;
pub mod snark;
pub mod traits;

pub use multisig::MultisigSrds;
pub use owf::OwfSrds;
pub use snark::SnarkSrds;
pub use traits::{PkiBoard, PkiMode, Srds};
