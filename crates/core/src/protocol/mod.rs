//! The balanced Byzantine agreement protocol `π_ba` (Figure 3): boosting
//! almost-everywhere agreement to full agreement with `polylog(n)` bits per
//! party, generic over the SRDS scheme.
//!
//! The protocol runs in the hybrid model of §3.1 and this implementation
//! realizes each functionality as documented in DESIGN.md:
//!
//! | Fig. 3 step | realization |
//! |---|---|
//! | setup | per-virtual-identity SRDS keys (`idmap` = tree slots) |
//! | 1 | `f_ae-comm`: tree built post-corruption + KSSV cost accounting |
//! | 2 | `f_ba` = phase-king among the supreme committee; `f_ct` = VSS coin (Shamir deal/echo + error-corrected reconstruction, [`crate::vss_coin`]) + phase-king |
//! | 3 | metered tree dissemination of `(y, s)` |
//! | 4 | every virtual identity signs its received `(y_i, s_i)` and submits to its leaf committee |
//! | 5 | per-node: step-5b exchange (metered), step-5c range filter, `f_aggr-sig` majority aggregation |
//! | 6 | metered tree dissemination of `(y, s, σ_root)` |
//! | 7–8 | PRF-subset spread `F_s(i)` + receiver-side filter and SRDS verification |
//!
//! All communication — real envelopes or metered functionality calls — is
//! charged through [`pba_net::metrics`], which is what the Table 1 harness
//! measures. The execution is factored into a long-lived [`Service`]
//! (establishment happens once: tree, keys, CRS, peer state) and the
//! agreement instances it runs — each instance draws one slot of the
//! establishment's one-time signing budget. Every decision takes one path:
//! [`Service::try_run_stream`] runs many instances over one establishment
//! (sequentially, or pipelined in the Fast-HotStuff chaining shape), and
//! the single-shot [`try_run_ba`] is a one-instance sequential stream.
//!
//! The module is split along that seam — `config` (configuration and
//! errors), `service` (establishment, accessors, shared helpers), `steps`
//! (Fig. 3 steps 2–8), `stream` (the instance loop), `run` (single-shot
//! entry points) — and every public item is re-exported from here.

mod config;
mod run;
mod service;
mod steps;
mod stream;

pub use config::{
    AdversaryProfile, BaConfig, Establishment, KeyError, KeyPolicy, ProtocolError, ProtocolPhase,
};
pub use run::{run_ba, try_run_ba, try_run_ba_over, BaOutcome, RunOutcome, TransportRun};
pub use service::{charged_tree, StepReport};
pub use steps::{BytesRoundOutcome, Certificate, MvInput, RoundOutcome, ValueSeed};
pub use stream::{InstanceOutcome, InstanceReport, MultiValueOutcome, StreamMode, StreamOutcome};

use pba_aetree::analysis::TreeAnalysis;
use pba_aetree::tree::Tree;
use pba_crypto::mss::LeafBudget;
use pba_crypto::prg::Prg;
use pba_crypto::sha256::Digest;
use pba_net::{Network, PartyId};
use pba_srds::traits::Srds;
use std::collections::BTreeSet;

/// Per-slot signing material, governed by [`KeyPolicy`].
enum KeyStore<S: Srds> {
    /// The signing key of every slot, indexed by slot.
    Eager(Vec<S::SigningKey>),
    /// No signing key and no secret: each slot's [`Srds::key_residue`] —
    /// public digests — at a fixed `stride` in one flat vector, which with
    /// the slot's keygen PRG (a pure child of the session PRG) is what
    /// [`Srds::sign_epoch_rederived`] signs from.
    Lazy { residue: Vec<Digest>, stride: usize },
}

/// An established `π_ba` service: everything establishment builds once —
/// SRDS setup, per-virtual-identity keys, the `f_ae-comm` tree with its
/// CSR layout, corruption state, and the metered network.
///
/// One service supports many agreement instances
/// ([`Service::try_run_stream`], or [`Service::try_certified_round`] on
/// pre-fanned-in committee inputs) — the amortization behind the broadcast
/// corollary (Cor. 1.2(1)) and the decisions/sec benchmark. Each instance
/// draws one slot of the establishment's one-time signing budget
/// ([`Service::budget`]); overdrawing is the structured
/// [`ProtocolError::KeyBudget`], never a silent key reuse.
pub struct Service<'a, S: Srds> {
    scheme: &'a S,
    /// The configuration the service was established with.
    pub config: BaConfig,
    pp: S::PublicParams,
    keys: KeyStore<S>,
    /// slot → (party index, key occurrence index)
    slot_sk: Vec<(usize, usize)>,
    keyboard: S::KeyBoard,
    tree: Tree,
    analysis: TreeAnalysis,
    corrupt: BTreeSet<PartyId>,
    honest: Vec<PartyId>,
    /// The metered network (public so harnesses can read metrics).
    pub net: Network,
    prg: Prg,
    steps: Vec<StepReport>,
    epoch: u64,
    /// One-time signing capacity, when the scheme's is bounded (MSS).
    budget: Option<LeafBudget>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_net::corruption::CorruptionPlan;
    use pba_srds::owf::OwfSrds;
    use pba_srds::snark::SnarkSrds;
    use std::collections::BTreeMap;

    #[test]
    fn honest_run_owf_agrees() {
        let scheme = OwfSrds::with_defaults();
        let config = BaConfig::honest(96, b"ba-owf-1");
        let inputs = vec![1u8; 96];
        let out = run_ba(&scheme, &config, &inputs);
        assert!(out.agreement, "no agreement: {:?}", out.outputs);
        assert_eq!(out.output, Some(1));
        assert!(out.validity);
        assert!(out.certificate_len.is_some());
    }

    #[test]
    fn honest_run_snark_agrees() {
        let scheme = SnarkSrds::with_defaults();
        let config = BaConfig::honest(64, b"ba-snark-1");
        let inputs = vec![0u8; 64];
        let out = run_ba(&scheme, &config, &inputs);
        assert!(out.agreement, "no agreement: {:?}", out.outputs);
        assert_eq!(out.output, Some(0));
        // SNARK certificates are tiny.
        assert!(out.certificate_len.unwrap() < 250);
    }

    #[test]
    fn mixed_inputs_still_agree() {
        let scheme = SnarkSrds::with_defaults();
        let config = BaConfig::honest(64, b"ba-mixed");
        let inputs: Vec<u8> = (0..64).map(|i| (i % 2) as u8).collect();
        let out = run_ba(&scheme, &config, &inputs);
        assert!(out.agreement);
        assert!(out.validity); // vacuous without unanimity
    }

    #[test]
    fn byzantine_corruption_owf() {
        let scheme = OwfSrds::with_defaults();
        let config = BaConfig::byzantine(128, 12, b"ba-byz-owf");
        let inputs = vec![1u8; 128];
        let out = run_ba(&scheme, &config, &inputs);
        assert!(out.agreement, "agreement broken: {:?}", out.outputs);
        assert_eq!(out.output, Some(1), "validity broken");
    }

    #[test]
    fn byzantine_corruption_snark() {
        let scheme = SnarkSrds::with_defaults();
        let config = BaConfig::byzantine(96, 9, b"ba-byz-snark");
        let inputs = vec![0u8; 96];
        let out = run_ba(&scheme, &config, &inputs);
        assert!(out.agreement, "agreement broken: {:?}", out.outputs);
        assert_eq!(out.output, Some(0));
    }

    #[test]
    fn per_party_cost_stays_balanced() {
        let scheme = SnarkSrds::with_defaults();
        let config = BaConfig::honest(128, b"ba-balance");
        let inputs = vec![1u8; 128];
        let out = run_ba(&scheme, &config, &inputs);
        let avg = out.report.total_bytes as f64 / 128.0;
        assert!(
            (out.report.max_bytes_per_party as f64) < 60.0 * avg,
            "imbalance: max {} vs avg {avg}",
            out.report.max_bytes_per_party
        );
    }

    #[test]
    fn step_reports_cover_all_steps() {
        let scheme = OwfSrds::with_defaults();
        let config = BaConfig::honest(64, b"ba-steps");
        let out = run_ba(&scheme, &config, &[1u8; 64]);
        assert_eq!(out.steps.len(), 7);
        assert!(out.steps.iter().any(|s| s.label.starts_with("5:")));
    }

    #[test]
    fn interactive_establishment_agrees() {
        let scheme = SnarkSrds::with_defaults();
        let mut config = BaConfig::byzantine(96, 9, b"ba-interactive");
        config.establishment = Establishment::Interactive;
        let out = run_ba(&scheme, &config, &[1u8; 96]);
        assert!(out.agreement, "interactive establishment broke agreement");
        assert_eq!(out.output, Some(1));
        // The election really cost something.
        assert!(out.steps[0].total_bytes > 0);
    }

    #[test]
    fn over_bound_corruption_fails_gracefully() {
        let scheme = OwfSrds::with_defaults();
        let mut config = BaConfig::byzantine(48, 16, b"ba-over-bound");
        config.corruption = CorruptionPlan::Random { t: 16 }; // 3*16 = 48
        let out = try_run_ba(&scheme, &config, &[1u8; 48]);
        match out {
            RunOutcome::Failed { phase, reason } => {
                assert_eq!(phase, ProtocolPhase::Establishment);
                assert_eq!(
                    reason,
                    ProtocolError::CorruptionBound { corrupt: 16, n: 48 }
                );
            }
            RunOutcome::Completed(_) => panic!("over-bound run completed"),
        }
    }

    #[test]
    fn try_run_matches_run_on_honest_config() {
        let scheme = OwfSrds::with_defaults();
        let config = BaConfig::honest(64, b"ba-try-honest");
        let out = try_run_ba(&scheme, &config, &[1u8; 64]);
        let completed = out.completed().expect("honest run must complete");
        assert!(completed.agreement);
        assert_eq!(completed.output, Some(1));
    }

    #[test]
    fn chaos_strategy_hook_drives_committee_adversary() {
        use pba_net::faults::StrategySpec;
        let scheme = SnarkSrds::with_defaults();
        let mut config = BaConfig::byzantine(96, 9, b"ba-chaos-hook");
        config.chaos = Some(StrategySpec::Equivocate);
        let out = try_run_ba(&scheme, &config, &[1u8; 96]);
        // Below the fault bound the protocol must still complete and agree
        // under pure equivocation.
        let completed = out.completed().expect("equivocation under bound");
        assert!(completed.agreement, "outputs: {:?}", completed.outputs);
        assert_eq!(completed.output, Some(1));
    }

    #[test]
    fn protocol_error_display_is_structured() {
        let e = ProtocolError::Timeout {
            phase: ProtocolPhase::CommitteeBa,
            rounds: 40,
        };
        assert_eq!(e.phase(), ProtocolPhase::CommitteeBa);
        assert_eq!(
            e.to_string(),
            "committee-ba hit its round limit after 40 rounds"
        );
        let d = ProtocolError::Disagreement {
            phase: ProtocolPhase::CommitteeCoin,
            distinct: 3,
        };
        assert_eq!(
            d.to_string(),
            "committee-coin ended with 3 distinct honest values"
        );
        let s = ProtocolError::Stalled {
            phase: ProtocolPhase::Certification,
            delivered: 7,
            honest: 40,
        };
        assert_eq!(s.phase(), ProtocolPhase::Certification);
        assert_eq!(
            s.to_string(),
            "certification stalled: only 7 of 40 honest parties obtained output"
        );
    }

    #[test]
    fn session_supports_multiple_rounds() {
        // Three rounds need a 3-slot one-time budget: height 2 gives 4.
        // (The default height-1 scheme would refuse round 3 with a
        // structured KeyBudget error — see the budget test below.)
        let scheme = SnarkSrds::new(pba_srds::snark::SnarkSrdsConfig {
            mss_bits: 32,
            mss_height: 2,
        });
        let config = BaConfig::honest(64, b"ba-multi");
        let mut session = Service::try_establish(&scheme, &config).expect("establishment");
        let committee = session.supreme_committee();
        for round in 0..3u8 {
            let inputs: BTreeMap<PartyId, u8> = committee.iter().map(|&p| (p, round % 2)).collect();
            let out = session.try_certified_round(&inputs).expect("within budget");
            assert_eq!(out.y, round % 2);
            for &p in session.honest() {
                assert_eq!(out.outputs[p.index()], Some(round % 2), "round {round}");
            }
        }
        let budget = session.budget().expect("snark scheme has a bounded budget");
        assert_eq!(budget.capacity(), 4);
        assert_eq!(budget.consumed(), 3);
    }

    #[test]
    fn exhausted_budget_is_a_structured_error_not_a_panic() {
        // Default height 1 = capacity 2: the third certified round must be
        // refused with the failing instance named, and the session must
        // remain usable for inspection.
        let scheme = SnarkSrds::with_defaults();
        let config = BaConfig::honest(64, b"ba-budget");
        let mut session = Service::try_establish(&scheme, &config).expect("establishment");
        let committee = session.supreme_committee();
        let inputs: BTreeMap<PartyId, u8> = committee.iter().map(|&p| (p, 1)).collect();
        for _ in 0..2 {
            let out = session.try_certified_round(&inputs).expect("within budget");
            assert_eq!(out.y, 1);
        }
        let err = session
            .try_certified_round(&inputs)
            .expect_err("third round exceeds the capacity-2 budget");
        assert_eq!(
            err,
            ProtocolError::KeyBudget {
                error: KeyError::BudgetExhausted {
                    instance: 2,
                    capacity: 2,
                },
            }
        );
        assert_eq!(err.phase(), ProtocolPhase::Certification);
        assert!(err.to_string().contains("instance 2"), "{err}");
        assert_eq!(session.budget().map(|b| b.remaining()), Some(0));
    }
}
