//! The broadcast corollary (Corollary 1.2(1)): `ℓ` broadcast executions —
//! potentially with different senders — over **one** established session
//! cost `ℓ · polylog(n) · poly(κ)` bits per party.
//!
//! A broadcast execution reuses the session's tree and PKI: the sender
//! transfers its value to the supreme committee, the committee runs `f_ba`
//! on the received values (fixing equivocation by a corrupt sender), and
//! the certified dissemination of Fig. 3 steps 3–8 delivers the value to
//! everyone. The expensive establishment (KSSV tree + key setup) is paid
//! once; each additional broadcast costs only the certified round.
//!
//! One-time-signature caveat: SRDS security is defined for one-time
//! signatures. Schemes whose keys carry multiple one-time slots (the
//! MSS-based [`pba_srds::snark::SnarkSrds`] and
//! [`pba_srds::multisig::MultisigSrds`]) consume a fresh slot per execution
//! via [`pba_srds::traits::Srds::sign_epoch`]; configure `mss_height ≥
//! ⌈log₂ ℓ⌉`. The W-OTS-based OWF scheme supports a single certified
//! execution per key generation.

use crate::protocol::{BaConfig, RoundOutcome, Service};
use pba_crypto::codec::{CodecError, Decode, Encode, Reader};
use pba_net::wire::{self, step, tag};
use pba_net::{PartyId, Report, WireMsg};
use pba_srds::traits::Srds;
use std::collections::BTreeMap;

/// The sender's input transfer to a supreme-committee member: one
/// broadcast execution's value, as a typed wire message so the transfer
/// is charged at its real encoded size and attributed to its own tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BroadcastInput {
    /// The value being broadcast.
    pub value: u8,
}

impl Encode for BroadcastInput {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.value.encode(buf);
    }
}

impl Decode for BroadcastInput {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(BroadcastInput {
            value: u8::decode(r)?,
        })
    }
}

impl WireMsg for BroadcastInput {
    const TAG: u8 = tag::BCAST_INPUT;
    const STEP: u8 = step::NONE;
}

/// Outcome of a multi-execution broadcast run.
#[derive(Clone, Debug)]
pub struct BroadcastOutcome {
    /// Per-execution results (sender value, per-party outputs, certificate).
    pub executions: Vec<RoundOutcome>,
    /// Whether every execution delivered the sender's value to all honest
    /// parties (with an honest sender).
    pub all_delivered: bool,
    /// Honest communication after establishment only (the one-time cost).
    pub setup_report: Report,
    /// Honest communication after all executions.
    pub final_report: Report,
}

impl BroadcastOutcome {
    /// Amortized per-execution increase of the max-per-party byte count.
    pub fn amortized_max_bytes_per_party(&self) -> f64 {
        let delta = self
            .final_report
            .max_bytes_per_party
            .saturating_sub(self.setup_report.max_bytes_per_party);
        delta as f64 / self.executions.len().max(1) as f64
    }
}

/// Runs `values.len()` broadcast executions with `sender` over one session.
///
/// # Panics
///
/// Panics if `values` is empty or `sender` is out of range, if the
/// corruption plan reaches `n/3`, or if an execution's committee phase
/// fails or overdraws the scheme's one-time signing budget (impossible
/// below the fault bound with a scheme sized for `values.len()` epochs).
pub fn run_broadcasts<S>(
    scheme: &S,
    config: &BaConfig,
    sender: PartyId,
    values: &[u8],
) -> BroadcastOutcome
where
    S: Srds,
    S::Signature: Encode + Decode,
{
    assert!(!values.is_empty(), "need at least one broadcast");
    assert!(sender.index() < config.n, "sender out of range");
    let mut session = Service::try_establish(scheme, config).unwrap_or_else(|e| panic!("{e}"));
    let setup_report = session.report();
    let supreme = session.supreme_committee();
    let sender_honest = !session.corrupt().contains(&sender);

    let mut executions = Vec::with_capacity(values.len());
    let mut all_delivered = true;
    for &value in values {
        // The sender transfers its value to every supreme-committee member,
        // charged as real traffic at the typed message's encoded size.
        let input_bytes = wire::encoded_msg_len(&BroadcastInput { value });
        if sender_honest {
            // A sender seated on the supreme committee charges itself too.
            let metrics = session.net.metrics_mut();
            metrics.charge_exchange(&[sender], &supreme, input_bytes, tag::BCAST_INPUT, false);
        }
        // A corrupt sender equivocates: alternate bits per member.
        let input = |m: PartyId| {
            if sender_honest {
                value
            } else {
                (m.0 % 2) as u8
            }
        };
        let committee_inputs: BTreeMap<PartyId, u8> =
            supreme.iter().map(|&m| (m, input(m))).collect();
        session.net.bump_round();

        let round = session
            .try_certified_round(&committee_inputs)
            .unwrap_or_else(|e| panic!("broadcast execution failed: {e}"));
        if sender_honest {
            for &p in session.honest() {
                if round.outputs[p.index()] != Some(value) {
                    all_delivered = false;
                }
            }
        } else {
            // Corrupt sender: agreement still required, delivery of *some*
            // common value.
            let mut honest_values = session.honest().iter().map(|p| round.outputs[p.index()]);
            let first = honest_values.next().flatten();
            if first.is_none() || honest_values.any(|v| v != first) {
                all_delivered = false;
            }
        }
        executions.push(round);
    }

    let final_report = session.report();
    BroadcastOutcome {
        executions,
        all_delivered,
        setup_report,
        final_report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::AdversaryProfile;
    use pba_net::corruption::CorruptionPlan;
    use pba_srds::snark::{SnarkSrds, SnarkSrdsConfig};

    fn scheme_for(executions: usize) -> SnarkSrds {
        let height = (usize::BITS - executions.saturating_sub(1).leading_zeros()) as usize;
        SnarkSrds::new(SnarkSrdsConfig {
            mss_bits: 32,
            mss_height: height.max(1),
        })
    }

    #[test]
    fn honest_sender_delivers_all_executions() {
        let scheme = scheme_for(3);
        let config = BaConfig::honest(64, b"bc-1");
        let out = run_broadcasts(&scheme, &config, PartyId(5), &[1, 0, 1]);
        assert!(out.all_delivered);
        assert_eq!(out.executions.len(), 3);
        for (i, exec) in out.executions.iter().enumerate() {
            assert_eq!(exec.y, [1, 0, 1][i]);
        }
    }

    #[test]
    fn amortization_kicks_in() {
        let scheme = scheme_for(4);
        let config = BaConfig::honest(64, b"bc-2");
        let one = run_broadcasts(&scheme, &config, PartyId(0), &[1]);
        let four = run_broadcasts(&scheme, &config, PartyId(0), &[1, 1, 1, 1]);
        // Four executions cost strictly less than 4x one full run (shared
        // establishment) and the amortized per-execution cost is similar.
        assert!(four.final_report.max_bytes_per_party < 4 * one.final_report.max_bytes_per_party);
        let a1 = one.amortized_max_bytes_per_party();
        let a4 = four.amortized_max_bytes_per_party();
        assert!(a4 < 2.0 * a1, "amortized cost grew: {a1} -> {a4}");
    }

    #[test]
    fn corrupt_sender_still_agrees() {
        let scheme = scheme_for(1);
        let mut config = BaConfig::honest(64, b"bc-3");
        config.corruption = CorruptionPlan::Explicit([PartyId(7)].into());
        config.profile = AdversaryProfile::Byzantine;
        let out = run_broadcasts(&scheme, &config, PartyId(7), &[1]);
        // Agreement on some value despite the equivocating sender.
        assert!(out.all_delivered, "honest parties disagreed");
    }
}
