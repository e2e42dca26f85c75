#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # pba-aetree
//!
//! Almost-everywhere communication trees — the combinatorial substrate of
//! *Boyle–Cohen–Goel (PODC 2021)*, originally from King–Saia–Sanwalani–Vee
//! (SODA '06):
//!
//! * [`params`] — the polylog constants of Definitions 2.3/3.4 (scaled and
//!   paper-exact variants);
//! * [`tree`] — the `(n, I)`-party almost-everywhere communication tree
//!   with contiguous virtual-ID ranges and repeated-party assignment;
//! * [`analysis`] — good nodes, good paths, isolated parties;
//! * [`fae`] — the `f_ae-comm` functionality: metered Byzantine-tolerant
//!   dissemination from the supreme committee, plus KSSV establishment
//!   accounting;
//! * [`robust`] — byzantine-robust redundant-path aggregation: node values
//!   ascend via full committees with per-child strict-majority voting.
pub mod analysis;
pub mod fae;
pub mod params;
pub mod robust;
pub mod tree;

pub use analysis::TreeAnalysis;
pub use params::TreeParams;
pub use tree::Tree;
