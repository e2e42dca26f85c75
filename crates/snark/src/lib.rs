#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # pba-snark
//!
//! Succinct-argument machinery for the `polylog-ba` workspace: a simulated
//! SNARK with CRS setup, proof-carrying data (PCD) for bounded-depth DAGs,
//! and the generalized subset task (average-case SNARG target) from §1.2 of
//! *Boyle–Cohen–Goel (PODC 2021)*.
//!
//! The SNARK is a **designated-setup simulation** — see [`system`] and
//! DESIGN.md §2 for precisely what it preserves (proof sizes, communication,
//! in-simulation knowledge soundness) and what it does not (security against
//! a CRS-trapdoor holder, of which this workspace has none).
//!
//! * [`system`] — the simulated SNARK: relations, CRS, 32-byte proofs;
//! * [`fhe`] — simulated threshold FHE (for the MPC corollary);
//! * [`pcd`] — recursive proof composition over DAGs (Bitansky et al.);
//! * [`subset`] — generalized Subset-Sum/Subset-Product + SNARG.
pub mod fhe;
pub mod pcd;
pub mod subset;
pub mod system;

pub use pcd::{CompliancePredicate, PcdProof, PcdSystem};
pub use system::{Proof, Relation, SnarkCrs, SnarkSystem};
