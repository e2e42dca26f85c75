//! The instance loop: one establishment serving a stream of agreement
//! instances — open, agree, certify, judge, settle — sequentially or with
//! each certification's rounds hidden by the successor's committee phase.

use super::{BytesRoundOutcome, ProtocolError, ProtocolPhase, Service, StepReport};
use pba_crypto::codec::{Decode, Encode};
use pba_crypto::sha256::Digest;
use pba_srds::traits::Srds;
use std::collections::BTreeSet;

/// How [`Service::try_run_stream`] schedules consecutive instances.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamMode {
    /// Instances run back-to-back: instance `i` certifies and spreads
    /// before instance `i+1` starts. The first instance of a sequential
    /// stream is transcript-identical to a single-shot [`super::try_run_ba`] at
    /// the same `(seed, config)`.
    Sequential,
    /// Fast-HotStuff-style chaining: instance `i`'s certification
    /// (steps 3–8) runs under an overlap window
    /// ([`pba_net::Network::begin_round_overlap`]) and its rounds are
    /// hidden by the committee rounds of instance `i+1` that cover them.
    /// Pipelining is an accounting rule on the metered round count: the
    /// execution, its delivery ticks (timing faults included) and every
    /// charge are the sequential stream's.
    Pipelined,
}

/// Per-instance slice of a [`Service`]'s cumulative accounting: deltas of
/// the honest byte totals, the round clock and the step snapshots, taken
/// between the instance's open and its settlement.
#[derive(Clone, Debug)]
pub struct InstanceReport {
    /// The instance's index (the service epoch it ran as).
    pub index: u64,
    /// Honest bytes charged during the instance.
    pub total_bytes: u64,
    /// Metered rounds consumed by the instance. Under pipelining, the
    /// uncovered remainder of a predecessor's certification is metered in
    /// the successor's slice.
    pub rounds: u64,
    /// Rounds the instance's certification ran under the overlap window
    /// (0 when not pipelined, and for a stream's last instance).
    pub overlapped_rounds: u64,
    /// Step snapshots recorded during the instance.
    pub steps: Vec<StepReport>,
    /// The delivery-transcript digest after the instance settled (only
    /// when a transport is attached): chained, so instance `k`'s digest
    /// commits the whole stream through instance `k`.
    pub transcript_digest: Option<Digest>,
}

/// Verdicts of one streamed instance over an ℓ-byte value.
#[derive(Clone, Debug)]
pub struct MultiValueOutcome {
    /// The value the supreme committee agreed on and certified.
    pub value: Vec<u8>,
    /// Per-party received values (`None` = no verified certificate).
    pub outputs: Vec<Option<Vec<u8>>>,
    /// Whether every honest party received the same value.
    pub agreement: bool,
    /// Whether validity held (unanimous honest inputs forced the value).
    pub validity: bool,
    /// Size of the certificate, if one was produced.
    pub certificate_len: Option<usize>,
}

/// One instance of a stream: verdicts or a structured failure, plus the
/// instance-scoped accounting slice.
#[derive(Clone, Debug)]
pub struct InstanceOutcome {
    /// The instance's index.
    pub index: u64,
    /// Verdicts, or the structured reason the instance failed.
    pub result: Result<MultiValueOutcome, ProtocolError>,
    /// The instance's accounting slice.
    pub report: InstanceReport,
}

/// Outcome of [`Service::try_run_stream`]: every instance in order, plus
/// stream-level round accounting.
#[derive(Clone, Debug)]
pub struct StreamOutcome {
    /// Per-instance outcomes, in execution order.
    pub instances: Vec<InstanceOutcome>,
    /// Instances whose honest parties all agreed.
    pub decisions: usize,
    /// Metered rounds the whole stream consumed (excludes establishment).
    pub total_rounds: u64,
    /// Certification rounds hidden inside successor committee phases by
    /// pipelining (0 for sequential streams).
    pub overlapped_rounds: u64,
}

/// Cumulative-counter snapshot an [`InstanceReport`] is a delta of.
#[derive(Clone, Copy, Debug)]
struct InstanceBaseline {
    index: u64,
    bytes: u64,
    rounds: u64,
    steps_len: usize,
}

impl<'a, S> Service<'a, S>
where
    S: Srds,
    S::Signature: Encode + Decode,
{
    /// Streams `k` agreement instances over this one establishment — the
    /// BA-as-a-service entry point behind the decisions/sec benchmark.
    /// `instances[i][p]` is party `p`'s input value for instance `i`
    /// (width 1 = bit agreement; wider values run multi-value BA).
    ///
    /// Both modes run one loop, in one program order: open the instance
    /// (accounting baseline, budget slot), fan in and agree (step 2),
    /// certify and spread (steps 3–8). Pipelined mode certifies every
    /// instance but the last inside an overlap window and settles the
    /// absorbed rounds against the next instance's committee phase: as
    /// many as that phase's metered rounds cover are hidden, the rest are
    /// metered. Only the metered round count differs between the modes —
    /// deliveries, the delivery tick and every charge are the same, so
    /// timing faults act identically on both.
    ///
    /// An instance that fails leaves the stream running (its verdict is
    /// recorded and the epoch slot is retried), except
    /// [`ProtocolError::KeyBudget`], which ends the stream with the
    /// failing instance named.
    ///
    /// # Panics
    ///
    /// Panics if any instance's input slice length differs from `n`.
    pub fn try_run_stream(
        &mut self,
        instances: &[Vec<Vec<u8>>],
        mode: StreamMode,
    ) -> StreamOutcome {
        let rounds_start = self.net.metrics().rounds();
        let mut outcomes: Vec<InstanceOutcome> = Vec::new();
        let mut overlapped_total = 0u64;
        // Rounds the previous certification ran under its overlap window,
        // still to be settled against a committee phase.
        let mut absorbed = 0u64;
        for (i, inputs) in instances.iter().enumerate() {
            let baseline = match self.open_instance() {
                Ok(baseline) => baseline,
                Err(reason) => {
                    // No committee phase will cover the absorbed rounds:
                    // they are metered after all.
                    for _ in 0..absorbed {
                        self.net.metrics_mut().bump_round();
                    }
                    outcomes.push(self.refused_instance(reason));
                    break;
                }
            };
            let rounds_before = self.net.metrics().rounds();
            let agreed = self.agree_values(inputs);
            // Rounds the committee phase actually ran bound how much of
            // the previous certification it hides; the uncovered remainder
            // is metered (the delivery tick counted it when it ran).
            let covered = self.net.metrics().rounds() - rounds_before;
            overlapped_total += absorbed.min(covered);
            for _ in 0..absorbed.saturating_sub(covered) {
                self.net.metrics_mut().bump_round();
            }
            let outcome = match agreed {
                Ok(agreed) => {
                    let overlap = mode == StreamMode::Pipelined && i + 1 < instances.len();
                    self.certify_instance(baseline, agreed, inputs, overlap)
                }
                Err(reason) => InstanceOutcome {
                    index: baseline.index,
                    result: Err(reason),
                    report: self.finish_instance(baseline, 0),
                },
            };
            absorbed = outcome.report.overlapped_rounds;
            outcomes.push(outcome);
        }
        let decisions = outcomes
            .iter()
            .filter(|o| o.result.as_ref().map(|m| m.agreement).unwrap_or(false))
            .count();
        StreamOutcome {
            instances: outcomes,
            decisions,
            total_rounds: self.net.metrics().rounds() - rounds_start,
            overlapped_rounds: overlapped_total,
        }
    }

    /// Opens the next agreement instance: captures its accounting
    /// baseline, reserves one slot of the establishment's one-time signing
    /// budget (structured [`ProtocolError::KeyBudget`] when spent — never a
    /// panic, and the service stays usable for inspection).
    fn open_instance(&mut self) -> Result<InstanceBaseline, ProtocolError> {
        let baseline = InstanceBaseline {
            index: self.epoch,
            bytes: self.honest_bytes_sent(),
            rounds: self.net.metrics().rounds(),
            steps_len: self.steps.len(),
        };
        self.reserve_epoch()?;
        Ok(baseline)
    }

    /// Fan-in + step 2 for one instance's ℓ-byte inputs. Width-1 instances
    /// fan in as bits (identical charges to a single-shot run); wider
    /// values ride the ascent whole ([`super::MvInput`]) and agree per byte.
    fn agree_values(&mut self, inputs: &[Vec<u8>]) -> Result<(Vec<u8>, Digest), ProtocolError> {
        let width = inputs.iter().map(Vec::len).max().unwrap_or(0);
        let committee_values = if width <= 1 {
            let bits: Vec<u8> = inputs
                .iter()
                .map(|v| v.first().copied().unwrap_or(0))
                .collect();
            self.robust_committee_inputs(&bits)
                .into_iter()
                .map(|(p, b)| (p, vec![b]))
                .collect()
        } else {
            self.robust_committee_values(inputs)
        };
        self.committee_agree(&committee_values, width.max(1))
    }

    /// Steps 3–8 for an instance agreed on `(value, seed)`, then its
    /// verdicts (against `inputs`) and accounting slice. With `overlap`,
    /// the certification runs inside a network overlap window and the
    /// absorbed count is reported as the instance's `overlapped_rounds`.
    fn certify_instance(
        &mut self,
        baseline: InstanceBaseline,
        (value, seed): (Vec<u8>, Digest),
        inputs: &[Vec<u8>],
        overlap: bool,
    ) -> InstanceOutcome {
        if overlap {
            self.net.begin_round_overlap();
        }
        let round = self.certify_bytes(value, seed);
        let absorbed = if overlap {
            self.net.end_round_overlap()
        } else {
            0
        };
        let result = self.judge_values(self.unanimous_value(inputs), round);
        InstanceOutcome {
            index: baseline.index,
            result,
            report: self.finish_instance(baseline, absorbed),
        }
    }

    /// The honest parties' unanimous input value, when one exists — the
    /// reference for the validity verdict.
    fn unanimous_value(&self, inputs: &[Vec<u8>]) -> Option<Vec<u8>> {
        let honest_inputs: BTreeSet<&Vec<u8>> =
            self.honest.iter().map(|p| &inputs[p.index()]).collect();
        (honest_inputs.len() == 1)
            .then(|| (*honest_inputs.iter().next().expect("nonempty")).clone())
    }

    /// Agreement/validity/stall verdicts over one instance's outputs — the
    /// one verdict oracle (single-shot runs narrow its result to a bit).
    /// Undelivered outputs with no conflicting delivered values are a
    /// liveness stall, reported as a structured certification failure;
    /// conflicting delivered values fall through with `agreement = false`
    /// so harnesses see the safety violation itself.
    fn judge_values(
        &self,
        unanimous_input: Option<Vec<u8>>,
        round: BytesRoundOutcome,
    ) -> Result<MultiValueOutcome, ProtocolError> {
        let honest_outputs: Vec<Option<&Vec<u8>>> = self
            .honest
            .iter()
            .map(|p| round.outputs[p.index()].as_ref())
            .collect();
        let delivered: BTreeSet<&Vec<u8>> = honest_outputs.iter().copied().flatten().collect();
        if honest_outputs.iter().any(|o| o.is_none()) && delivered.len() <= 1 {
            return Err(ProtocolError::Stalled {
                phase: ProtocolPhase::Certification,
                delivered: honest_outputs.iter().flatten().count(),
                honest: honest_outputs.len(),
            });
        }
        let agreement = honest_outputs.iter().all(|o| o.is_some())
            && honest_outputs.windows(2).all(|w| w[0] == w[1]);
        let output = if agreement {
            honest_outputs.first().copied().flatten()
        } else {
            None
        };
        let validity = match &unanimous_input {
            Some(v) => output == Some(v),
            None => true,
        };
        Ok(MultiValueOutcome {
            value: round.value,
            outputs: round.outputs,
            agreement,
            validity,
            certificate_len: round.certificate_len,
        })
    }

    /// Settles an instance: computes its accounting slice against the
    /// baseline.
    fn finish_instance(
        &self,
        baseline: InstanceBaseline,
        overlapped_rounds: u64,
    ) -> InstanceReport {
        InstanceReport {
            index: baseline.index,
            total_bytes: self.honest_bytes_sent() - baseline.bytes,
            rounds: self.net.metrics().rounds() - baseline.rounds,
            overlapped_rounds,
            steps: self.steps[baseline.steps_len..].to_vec(),
            transcript_digest: self.net.transcript().and_then(|t| t.last().copied()),
        }
    }

    /// The zero-work outcome of an instance the signing budget refused.
    fn refused_instance(&self, reason: ProtocolError) -> InstanceOutcome {
        InstanceOutcome {
            index: self.epoch,
            result: Err(reason),
            report: InstanceReport {
                index: self.epoch,
                total_bytes: 0,
                rounds: 0,
                overlapped_rounds: 0,
                steps: Vec::new(),
                transcript_digest: self.net.transcript().and_then(|t| t.last().copied()),
            },
        }
    }
}
