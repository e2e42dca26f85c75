//! Proof-carrying data (PCD) for bounded-depth DAGs, in the style of
//! Chiesa–Tromer and Bitansky–Canetti–Chiesa–Tromer (STOC '13).
//!
//! A PCD system lets distributed parties pass messages up a communication
//! DAG while maintaining a succinct, publicly verifiable proof that the
//! entire history of the computation is *compliant* with a predicate. The
//! paper uses PCD (obtainable from SNARKs with linear extraction) to let
//! tree nodes prove "my count aggregates this many distinct valid base
//! signatures" without shipping the signatures themselves.
//!
//! Built on the simulated SNARK of [`crate::system`] (see that module and
//! DESIGN.md §2 for exactly what the simulation preserves): proving for
//! message `z` requires PCD-verifying every input proof and checking the
//! compliance predicate `Π(z; inputs, local)` — so an accepted proof
//! inductively attests a fully compliant transcript — and proofs stay
//! 32 bytes at every depth, which is the succinctness property the SRDS
//! construction consumes. The witness `local` is a typed value, as in
//! [`crate::system::Relation`]: the prover holds it and the predicate
//! reads it in place; it is never encoded, and never reaches the wire.
//!
//! # Examples
//!
//! ```
//! use pba_snark::pcd::{CompliancePredicate, PcdSystem};
//! use pba_snark::system::SnarkCrs;
//!
//! /// Messages are counters; a step may increase the sum of inputs by at
//! /// most 1 (sources start at ≤ 1).
//! struct Counting;
//! impl CompliancePredicate for Counting {
//!     type Message = u64;
//!     type Witness = ();
//!     fn id(&self) -> &'static str { "counting" }
//!     fn check(&self, output: &u64, inputs: &[&u64], _local: &()) -> bool {
//!         *output <= inputs.iter().copied().sum::<u64>() + 1
//!     }
//!     fn encode_message(&self, m: &u64, buf: &mut Vec<u8>) {
//!         buf.extend_from_slice(&m.to_le_bytes());
//!     }
//! }
//!
//! let pcd = PcdSystem::new(SnarkCrs::setup(b"crs"), Counting);
//! let p1 = pcd.prove(&1, &[], &())?;          // source: count 1
//! let p2 = pcd.prove(&1, &[], &())?;          // source: count 1
//! let joined = pcd.prove(&3, &[(&1, &p1), (&1, &p2)], &())?; // 1+1+1
//! assert!(pcd.verify(&3, &joined));
//! assert!(pcd.prove(&5, &[(&1, &p1)], &()).is_err()); // over-counting
//! # Ok::<(), pba_snark::pcd::PcdError>(())
//! ```

use crate::system::SnarkCrs;
use pba_crypto::codec::{CodecError, Decode, Encode, Reader};
use pba_crypto::sha256::{Digest, Sha256};
use std::fmt;

/// A compliance predicate `Π(z_out; z_in*, local)` over DAG messages.
pub trait CompliancePredicate {
    /// The message type carried on DAG edges.
    type Message;
    /// The prover's private auxiliary data for one step (`()` when a step
    /// needs none). It is read in place by [`CompliancePredicate::check`]
    /// and never encoded.
    type Witness: ?Sized;

    /// Stable identifier, mixed into every proof.
    fn id(&self) -> &'static str;

    /// Whether `output` is a compliant successor of `inputs` with private
    /// auxiliary data `local`.
    fn check(
        &self,
        output: &Self::Message,
        inputs: &[&Self::Message],
        local: &Self::Witness,
    ) -> bool;

    /// Canonical message encoding (what proofs bind to).
    fn encode_message(&self, message: &Self::Message, buf: &mut Vec<u8>);
}

/// A succinct PCD proof — 32 bytes at every DAG depth.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PcdProof(Digest);

impl PcdProof {
    /// Wire size of any PCD proof.
    pub const LEN: usize = 32;

    /// Raw bytes (adversarial mangling in experiments).
    pub fn as_bytes(&self) -> &[u8] {
        self.0.as_bytes()
    }

    /// Builds a (candidate) proof from raw bytes; verification will reject
    /// anything not produced by [`PcdSystem::prove`].
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        PcdProof(Digest::new(bytes))
    }
}

impl fmt::Debug for PcdProof {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PcdProof({}..)", &self.0.to_hex()[..8])
    }
}

impl Encode for PcdProof {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        Self::LEN
    }
}

impl Decode for PcdProof {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(PcdProof(Digest::decode(r)?))
    }
}

/// Errors from [`PcdSystem::prove`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PcdError {
    /// Input proof at the given position failed verification.
    InvalidInputProof(usize),
    /// The compliance predicate rejected the step.
    NotCompliant,
}

impl fmt::Display for PcdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PcdError::InvalidInputProof(i) => write!(f, "input proof {i} failed verification"),
            PcdError::NotCompliant => f.write_str("compliance predicate rejected the step"),
        }
    }
}

impl std::error::Error for PcdError {}

/// A PCD system for a fixed compliance predicate under a fixed CRS.
#[derive(Clone, Debug)]
pub struct PcdSystem<C> {
    crs: SnarkCrs,
    predicate: C,
}

impl<C: CompliancePredicate> PcdSystem<C> {
    /// Binds a compliance predicate to a CRS.
    pub fn new(crs: SnarkCrs, predicate: C) -> Self {
        PcdSystem { crs, predicate }
    }

    /// The predicate.
    pub fn predicate(&self) -> &C {
        &self.predicate
    }

    /// The CRS.
    pub fn crs(&self) -> &SnarkCrs {
        &self.crs
    }

    fn message_digest(&self, message: &C::Message) -> Digest {
        let mut buf = Vec::new();
        self.predicate.encode_message(message, &mut buf);
        let mut h = Sha256::new();
        h.update(b"pba-pcd-msg");
        h.update(self.crs.public_id().as_bytes());
        h.update(self.predicate.id().as_bytes());
        h.update(&[0]);
        h.update(&buf);
        h.finalize()
    }

    /// Proves that `output` is the result of a compliant DAG step consuming
    /// `inputs` (message/proof pairs) with auxiliary data `local`.
    ///
    /// Source nodes pass an empty `inputs` slice.
    ///
    /// # Errors
    ///
    /// * [`PcdError::InvalidInputProof`] — some input proof does not verify;
    /// * [`PcdError::NotCompliant`] — the predicate rejects the step.
    pub fn prove(
        &self,
        output: &C::Message,
        inputs: &[(&C::Message, &PcdProof)],
        local: &C::Witness,
    ) -> Result<PcdProof, PcdError> {
        for (i, (msg, proof)) in inputs.iter().enumerate() {
            if !self.verify(msg, proof) {
                return Err(PcdError::InvalidInputProof(i));
            }
        }
        let input_msgs: Vec<&C::Message> = inputs.iter().map(|&(m, _)| m).collect();
        if !self.predicate.check(output, &input_msgs, local) {
            return Err(PcdError::NotCompliant);
        }
        let d = self.message_digest(output);
        Ok(PcdProof(self.crs.attest(self.predicate.id(), &d)))
    }

    /// Verifies that `message` carries a compliant-history proof.
    pub fn verify(&self, message: &C::Message, proof: &PcdProof) -> bool {
        self.crs
            .attest(self.predicate.id(), &self.message_digest(message))
            == proof.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test predicate: message is (depth, sum); a step's sum must equal the
    /// sum of input sums (+1 for sources), depth must exceed input depths.
    struct SumDag;

    impl CompliancePredicate for SumDag {
        type Message = (u64, u64);
        type Witness = ();
        fn id(&self) -> &'static str {
            "sum-dag"
        }
        fn check(&self, output: &(u64, u64), inputs: &[&(u64, u64)], _local: &()) -> bool {
            if inputs.is_empty() {
                return output.0 == 0 && output.1 == 1;
            }
            let sum: u64 = inputs.iter().map(|m| m.1).sum();
            let max_depth = inputs.iter().map(|m| m.0).max().unwrap_or(0);
            output.1 == sum && output.0 == max_depth + 1
        }
        fn encode_message(&self, m: &(u64, u64), buf: &mut Vec<u8>) {
            buf.extend_from_slice(&m.0.to_le_bytes());
            buf.extend_from_slice(&m.1.to_le_bytes());
        }
    }

    fn pcd() -> PcdSystem<SumDag> {
        PcdSystem::new(SnarkCrs::setup(b"pcd-test"), SumDag)
    }

    #[test]
    fn deep_composition() {
        let pcd = pcd();
        // 8 sources, binary tree of depth 3.
        let mut layer: Vec<((u64, u64), PcdProof)> = (0..8)
            .map(|_| {
                let m = (0u64, 1u64);
                let p = pcd.prove(&m, &[], &()).unwrap();
                (m, p)
            })
            .collect();
        let mut depth = 1;
        while layer.len() > 1 {
            layer = layer
                .chunks(2)
                .map(|pair| {
                    let msg = (depth, pair.iter().map(|(m, _)| m.1).sum());
                    let inputs: Vec<(&(u64, u64), &PcdProof)> =
                        pair.iter().map(|(m, p)| (m, p)).collect();
                    let proof = pcd.prove(&msg, &inputs, &()).unwrap();
                    (msg, proof)
                })
                .collect();
            depth += 1;
        }
        let (root_msg, root_proof) = &layer[0];
        assert_eq!(*root_msg, (3, 8));
        assert!(pcd.verify(root_msg, root_proof));
    }

    #[test]
    fn bad_source_rejected() {
        let pcd = pcd();
        assert_eq!(pcd.prove(&(0, 2), &[], &()), Err(PcdError::NotCompliant));
    }

    #[test]
    fn inflated_sum_rejected() {
        let pcd = pcd();
        let m = (0u64, 1u64);
        let p = pcd.prove(&m, &[], &()).unwrap();
        assert_eq!(
            pcd.prove(&(1, 5), &[(&m, &p)], &()),
            Err(PcdError::NotCompliant)
        );
    }

    #[test]
    fn invalid_input_proof_rejected() {
        let pcd = pcd();
        let m = (0u64, 1u64);
        let forged = PcdProof::from_bytes([7u8; 32]);
        assert_eq!(
            pcd.prove(&(1, 1), &[(&m, &forged)], &()),
            Err(PcdError::InvalidInputProof(0))
        );
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let pcd = pcd();
        let m = (0u64, 1u64);
        let p = pcd.prove(&m, &[], &()).unwrap();
        assert!(pcd.verify(&m, &p));
        assert!(!pcd.verify(&(0, 2), &p));
    }

    #[test]
    fn cross_predicate_isolation() {
        struct OtherDag;
        impl CompliancePredicate for OtherDag {
            type Message = (u64, u64);
            type Witness = ();
            fn id(&self) -> &'static str {
                "other-dag"
            }
            fn check(&self, _: &(u64, u64), _: &[&(u64, u64)], _: &()) -> bool {
                true
            }
            fn encode_message(&self, m: &(u64, u64), buf: &mut Vec<u8>) {
                buf.extend_from_slice(&m.0.to_le_bytes());
                buf.extend_from_slice(&m.1.to_le_bytes());
            }
        }
        let crs = SnarkCrs::setup(b"shared");
        let a = PcdSystem::new(crs.clone(), SumDag);
        let b = PcdSystem::new(crs, OtherDag);
        let m = (0u64, 1u64);
        let p = a.prove(&m, &[], &()).unwrap();
        assert!(!b.verify(&m, &p));
    }

    /// A predicate whose witness is real data: a step's message is the
    /// hash of its input messages followed by the witness bytes, so a
    /// source must hold a preimage of its message.
    struct Preimage;

    impl CompliancePredicate for Preimage {
        type Message = Digest;
        type Witness = [u8];
        fn id(&self) -> &'static str {
            "preimage"
        }
        fn check(&self, output: &Digest, inputs: &[&Digest], witness: &[u8]) -> bool {
            let mut h = Sha256::new();
            for input in inputs {
                h.update(input.as_bytes());
            }
            h.update(witness);
            h.finalize() == *output
        }
        fn encode_message(&self, m: &Digest, buf: &mut Vec<u8>) {
            buf.extend_from_slice(m.as_bytes());
        }
    }

    #[test]
    fn typed_witness_must_satisfy_the_predicate() {
        let pcd = PcdSystem::new(SnarkCrs::setup(b"pcd-test"), Preimage);
        let source = Sha256::digest(b"preimage");
        assert_eq!(
            pcd.prove(&source, &[], b"another preimage"),
            Err(PcdError::NotCompliant)
        );
        let proof = pcd.prove(&source, &[], b"preimage").unwrap();
        assert!(pcd.verify(&source, &proof));

        let mut joined = source.as_bytes().to_vec();
        joined.extend_from_slice(b"step");
        let output = Sha256::digest(&joined);
        assert_eq!(
            pcd.prove(&output, &[(&source, &proof)], b"stop"),
            Err(PcdError::NotCompliant)
        );
        let step = pcd.prove(&output, &[(&source, &proof)], b"step").unwrap();
        assert!(pcd.verify(&output, &step));
    }

    #[test]
    fn proofs_are_constant_size() {
        let pcd = pcd();
        let m = (0u64, 1u64);
        let p = pcd.prove(&m, &[], &()).unwrap();
        assert_eq!(pba_crypto::codec::encode_to_vec(&p).len(), PcdProof::LEN);
    }
}
