#![warn(missing_docs)]
// `unsafe` is allowed in exactly one module, `sha256::shani` (the SHA-NI
// intrinsics); every other crate in the workspace forbids it outright.
#![deny(unsafe_code, unsafe_op_in_unsafe_fn)]
//! # pba-crypto
//!
//! The from-scratch cryptographic substrate for the `polylog-ba` workspace —
//! a reproduction of *Boyle, Cohen, Goel: "Breaking the O(√n)-Bit Barrier:
//! Byzantine Agreement with Polylog Bits Per Party"* (PODC 2021).
//!
//! Everything here is implemented from first principles on top of our own
//! SHA-256; no external cryptography crates are used:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256 (the workspace CRH);
//! * [`hmac`] — HMAC-SHA256 (PRF/MAC);
//! * [`prg`] — deterministic counter-mode PRG implementing [`rand::RngCore`];
//! * [`prf`] — the subset-valued PRF `F_s` from step 7 of the BA protocol;
//! * [`merkle`] — Merkle trees with inclusion proofs;
//! * [`wots`] — Winternitz one-time signatures (`w = 16`) **with oblivious
//!   key generation** (the primitive behind the OWF-based SRDS, and the
//!   one-time key under every MSS leaf);
//! * [`lamport`] — Lamport one-time signatures, the reference one-time
//!   scheme for tests and benchmark kernels (no protocol signs with it);
//! * [`mss`] — Merkle many-time signatures over W-OTS keys (the "standard
//!   signature with bare PKI" for the SNARK-based SRDS and baselines);
//! * [`field`], [`poly`], [`shamir`] — `F_{2^61-1}` arithmetic and Shamir
//!   sharing for committee coin tossing;
//! * [`reed_solomon`] — error-corrected share decoding, one table-driven
//!   decoder per evaluation set (robust reconstruction against Byzantine
//!   echoes);
//! * [`vss`] — committed verifiable secret sharing (Merkle-bound shares);
//! * [`codec`] — the deterministic wire format used for exact communication
//!   accounting.
//!
//! # Examples
//!
//! ```
//! use pba_crypto::prg::Prg;
//! use pba_crypto::wots::{WotsKeyPair, WotsParams};
//!
//! let params = WotsParams::new(64);
//! let mut prg = Prg::from_seed_bytes(b"demo");
//! let kp = WotsKeyPair::generate(&params, &mut prg);
//! let sig = kp.sign(b"agree on 1");
//! assert!(params.verify(&kp.verification_key(), b"agree on 1", &sig));
//! ```

pub mod codec;
pub mod field;
pub mod hmac;
pub mod lamport;
pub mod merkle;
pub mod mss;
pub mod poly;
pub mod prf;
pub mod prg;
pub mod reed_solomon;
pub mod sha256;
pub mod shamir;
pub mod vss;
pub mod wots;

pub use sha256::{Digest, Sha256};
