//! The instance loop: one establishment serving a stream of agreement
//! instances — open, agree, certify, judge, settle — sequentially or with
//! certification pipelined into the successor's committee phase.

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
    /// (steps 3–8) is deferred into instance `i+1`'s committee phase and
    /// its rounds are absorbed by the committee rounds that cover them
    /// ([`pba_net::Network::begin_round_overlap`]). Pipelining hides round
    /// latency, never bytes — every charge lands in full.
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
    /// Clock rounds consumed by the instance. Under pipelining, the
    /// uncovered remainder of a predecessor's deferred certification is
    /// charged to the successor's window.
    pub rounds: u64,
    /// Rounds the instance's deferred certification ran under the overlap
    /// window (0 when not pipelined).
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
    /// Clock rounds the whole stream consumed (excludes establishment).
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

/// An instance past step 2: the agreed `(value, seed)` awaiting
/// certification (immediately, or deferred under pipelining), with what
/// its verdicts and report will be judged against.
struct Agreed {
    index: u64,
    value: Vec<u8>,
    seed: Digest,
    unanimous: Option<Vec<u8>>,
    baseline: InstanceBaseline,
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
    /// Both modes run one loop: open the instance (accounting baseline,
    /// budget slot), fan in and agree (step 2), certify and spread
    /// (steps 3–8).
    /// Sequential mode certifies at once. Pipelined mode defers instance
    /// `i`'s certification into instance `i+1`'s committee phase: its
    /// rounds run under an overlap window and only the remainder the
    /// successor's committee rounds could not cover advances the clock.
    /// Charges always land in full — pipelining hides round latency,
    /// never bytes.
    ///
    /// An instance that fails leaves the stream running (its verdict is
    /// recorded and the epoch slot is retried), except
    /// [`ProtocolError::KeyBudget`], which ends the stream with the
    /// failing instance named.
    ///
    /// # Panics
    ///
    /// Panics if any instance's input slice length differs from `n`, or
    /// if pipelined mode is combined with timing-fault chaos (the overlap
    /// window and the delay queue are mutually exclusive).
    pub fn try_run_stream(
        &mut self,
        instances: &[Vec<Vec<u8>>],
        mode: StreamMode,
    ) -> StreamOutcome {
        let defer = mode == StreamMode::Pipelined;
        assert!(
            !defer || self.net.timing().is_none(),
            "pipelined streaming is mutually exclusive with timing-fault chaos"
        );
        let rounds_start = self.net.metrics().rounds();
        let mut outcomes: Vec<InstanceOutcome> = Vec::new();
        let mut overlapped_total = 0u64;
        // Instance i, agreed, parked while its certification waits for
        // instance i+1's committee phase.
        let mut pending: Option<Agreed> = None;
        for (i, inputs) in instances.iter().enumerate() {
            // Settle the predecessor: its certification runs now, inside
            // an overlap window. The rounds it would cost are absorbed;
            // whatever this instance's committee phase cannot cover
            // re-surfaces below.
            let mut absorbed = 0u64;
            if let Some(predecessor) = pending.take() {
                let outcome = self.certify_instance(predecessor, true);
                absorbed = outcome.report.overlapped_rounds;
                outcomes.push(outcome);
            }
            let baseline = match self.open_instance() {
                Ok(baseline) => baseline,
                Err(reason) => {
                    // No successor phase will cover the absorbed rounds:
                    // they land on the clock after all.
                    for _ in 0..absorbed {
                        self.net.bump_round();
                    }
                    outcomes.push(self.refused_instance(reason));
                    break;
                }
            };
            let rounds_before = self.net.metrics().rounds();
            let agreed = self.agree_values(inputs);
            // Rounds the committee phase actually ran bound how much
            // deferred certification it can hide; the uncovered remainder
            // advances the clock for real.
            let covered = self.net.metrics().rounds() - rounds_before;
            overlapped_total += absorbed.min(covered);
            for _ in 0..absorbed.saturating_sub(covered) {
                self.net.bump_round();
            }
            let index = self.epoch;
            match agreed {
                Ok((value, seed)) => {
                    let agreed = Agreed {
                        index,
                        value,
                        seed,
                        unanimous: self.unanimous_value(inputs),
                        baseline,
                    };
                    // Certification is pinned to `index`; the successor's
                    // committee phase keys off its own epoch even while
                    // this certification is still pending.
                    self.epoch += 1;
                    if defer && i + 1 < instances.len() {
                        pending = Some(agreed);
                    } else {
                        outcomes.push(self.certify_instance(agreed, false));
                    }
                }
                Err(reason) => {
                    let report = self.finish_instance(baseline, 0);
                    outcomes.push(InstanceOutcome {
                        index,
                        result: Err(reason),
                        report,
                    });
                }
            }
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

    /// Steps 3–8 for an agreed instance, then its verdicts and accounting
    /// slice. With `overlap`, the certification's rounds run inside a
    /// network overlap window and the absorbed count is reported as the
    /// instance's `overlapped_rounds`.
    fn certify_instance(&mut self, agreed: Agreed, overlap: bool) -> InstanceOutcome {
        if overlap {
            self.net.begin_round_overlap();
        }
        let round = self.certify_bytes_at(agreed.index, agreed.value, agreed.seed);
        let absorbed = if overlap {
            self.net.end_round_overlap()
        } else {
            0
        };
        let result = self.judge_values(agreed.unanimous, round);
        let report = self.finish_instance(agreed.baseline, absorbed);
        InstanceOutcome {
            index: agreed.index,
            result,
            report,
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
