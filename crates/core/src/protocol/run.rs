//! Single-shot entry points: establish, run one instance, report — in
//! process ([`try_run_ba`]) or over an explicit delivery backend
//! ([`try_run_ba_over`]).

use super::{BaConfig, ProtocolError, ProtocolPhase, Service, StepReport, StreamMode};
use pba_crypto::codec::{Decode, Encode};
use pba_crypto::sha256::Digest;
use pba_net::{PartyId, Report, TagBreakdown, Transport};
use pba_srds::traits::Srds;
use std::collections::BTreeSet;

/// Outcome of a fallible `π_ba` execution ([`try_run_ba`]).
#[derive(Clone, Debug)]
pub enum RunOutcome {
    /// The protocol ran to completion (agreement/validity flags inside may
    /// still be false — that distinction is the harness's to judge).
    Completed(BaOutcome),
    /// The protocol detected an unrecoverable condition and stopped.
    Failed {
        /// The phase that failed.
        phase: ProtocolPhase,
        /// The structured reason.
        reason: ProtocolError,
    },
}

impl From<ProtocolError> for RunOutcome {
    fn from(reason: ProtocolError) -> Self {
        RunOutcome::Failed {
            phase: reason.phase(),
            reason,
        }
    }
}

impl RunOutcome {
    /// The completed outcome, if any.
    pub fn completed(&self) -> Option<&BaOutcome> {
        match self {
            RunOutcome::Completed(out) => Some(out),
            RunOutcome::Failed { .. } => None,
        }
    }

    /// True when the execution ran to completion.
    pub fn is_completed(&self) -> bool {
        matches!(self, RunOutcome::Completed(_))
    }
}

/// Outcome of one `π_ba` execution.
#[derive(Clone, Debug)]
pub struct BaOutcome {
    /// Per-party outputs (`None` = no output; corrupt parties are `None`).
    pub outputs: Vec<Option<u8>>,
    /// Whether every honest party produced the same output.
    pub agreement: bool,
    /// The common honest output, when agreement holds.
    pub output: Option<u8>,
    /// Whether validity held (all-honest-equal inputs forced that output).
    pub validity: bool,
    /// Aggregate communication report over honest parties.
    pub report: Report,
    /// Per-step communication breakdown.
    pub steps: Vec<StepReport>,
    /// Per-(wire tag) honest byte attribution — the exact dimension behind
    /// `report`'s totals (see [`BaOutcome::tags_conserved`]).
    pub breakdown: TagBreakdown,
    /// Whether every party's per-tag marginals summed exactly to its
    /// untyped byte totals at the end of the run.
    pub tags_conserved: bool,
    /// The corrupt set used.
    pub corrupt: BTreeSet<PartyId>,
    /// Size of the final certificate in bytes.
    pub certificate_len: Option<usize>,
}

/// Runs `π_ba` with the given SRDS scheme.
///
/// `inputs[i]` is party `i`'s input bit (values other than 0/1 are allowed
/// but the protocol agrees on a `u8`).
///
/// # Panics
///
/// Panics if `inputs.len() != config.n` or the configuration is internally
/// inconsistent (e.g. more corruptions than parties). Use [`try_run_ba`]
/// for a variant that reports such failures as [`RunOutcome::Failed`].
pub fn run_ba<S>(scheme: &S, config: &BaConfig, inputs: &[u8]) -> BaOutcome
where
    S: Srds,
    S::Signature: Encode + Decode,
{
    match try_run_ba(scheme, config, inputs) {
        RunOutcome::Completed(out) => out,
        RunOutcome::Failed { phase, reason } => panic!("pi_ba failed in {phase}: {reason}"),
    }
}

/// Runs `π_ba`, reporting protocol-level failures (corruption past the
/// design bound, committee timeouts, honest divergence) as structured
/// [`RunOutcome::Failed`] values instead of panicking — the entry point
/// for fault-injection harnesses that deliberately exceed fault bounds.
///
/// # Panics
///
/// Panics only on caller errors (`inputs.len() != config.n`).
pub fn try_run_ba<S>(scheme: &S, config: &BaConfig, inputs: &[u8]) -> RunOutcome
where
    S: Srds,
    S::Signature: Encode + Decode,
{
    assert_eq!(inputs.len(), config.n, "one input per party");
    match Service::try_establish(scheme, config) {
        Ok(mut service) => run_established(&mut service, inputs),
        Err(reason) => reason.into(),
    }
}

/// One backend's view of a full `π_ba` run over a [`Transport`]: the
/// protocol outcome plus the evidence the differential oracle compares —
/// the chained per-exchange delivery transcript and the backend's socket
/// statistics.
#[derive(Clone, Debug)]
pub struct TransportRun {
    /// Protocol-level outcome (success or structured failure).
    pub outcome: RunOutcome,
    /// Chained delivery-transcript digests, one per `take_staged` batch.
    /// Entry `i` commits the entire delivery history through batch `i`,
    /// so equality of the final entries proves byte-identical delivery.
    pub transcript: Vec<Digest>,
    /// Socket-layer counters (zero for the in-process backend).
    pub stats: pba_net::SocketStats,
    /// The backend's [`Transport::kind`] label.
    pub kind: &'static str,
}

impl TransportRun {
    /// The final transcript digest — the single value two backends must
    /// agree on for their runs to be byte-identical.
    pub fn final_digest(&self) -> Option<Digest> {
        self.transcript.last().copied()
    }
}

/// Runs `π_ba` end-to-end over an explicit delivery backend and returns
/// the outcome together with the delivery transcript — the entry point
/// for differential sim-vs-socket testing. Pass
/// [`pba_net::LocalTransport`] to produce the in-process oracle run and a
/// [`pba_net::TcpTransport`] for a socket-backed replica; identical
/// `(seed, config, inputs)` must yield identical transcripts.
///
/// # Panics
///
/// Panics on caller errors (`inputs.len() != config.n`) or if the config
/// also carries timing-fault chaos (mutually exclusive with a transport).
pub fn try_run_ba_over<S>(
    scheme: &S,
    config: &BaConfig,
    inputs: &[u8],
    transport: Box<dyn Transport>,
) -> TransportRun
where
    S: Srds,
    S::Signature: Encode + Decode,
{
    assert_eq!(inputs.len(), config.n, "one input per party");
    let mut session = match Service::try_establish_over(scheme, config, Some(transport)) {
        Ok(session) => session,
        Err(reason) => {
            return TransportRun {
                outcome: reason.into(),
                transcript: Vec::new(),
                stats: pba_net::SocketStats::default(),
                kind: "failed-establishment",
            }
        }
    };
    let outcome = run_established(&mut session, inputs);
    let transcript = session
        .net
        .transcript()
        .map(|t| t.to_vec())
        .unwrap_or_default();
    let (kind, stats) = match session.net.transport() {
        Some(t) => (t.kind(), t.stats()),
        None => ("none", pba_net::SocketStats::default()),
    };
    TransportRun {
        outcome,
        transcript,
        stats,
        kind,
    }
}

/// Shared post-establishment body of [`try_run_ba`] /
/// [`try_run_ba_over`]: one sequential instance through
/// [`Service::try_run_stream`], its multi-value verdicts narrowed to the
/// bit-agreement [`BaOutcome`].
fn run_established<S>(service: &mut Service<'_, S>, inputs: &[u8]) -> RunOutcome
where
    S: Srds,
    S::Signature: Encode + Decode,
{
    let values: Vec<Vec<u8>> = inputs.iter().map(|&b| vec![b]).collect();
    let mut stream = service.try_run_stream(&[values], StreamMode::Sequential);
    let instance = stream
        .instances
        .pop()
        .expect("one instance in, one outcome out");
    let round = match instance.result {
        Ok(round) => round,
        Err(reason) => return reason.into(),
    };
    let bit = |o: &Option<Vec<u8>>| o.as_ref().and_then(|v| v.first().copied());
    // Agreement means every honest party holds the same output: the first
    // honest party's is the common one.
    let output = match service.honest().first() {
        Some(p) if round.agreement => bit(&round.outputs[p.index()]),
        _ => None,
    };
    RunOutcome::Completed(BaOutcome {
        outputs: round.outputs.iter().map(bit).collect(),
        agreement: round.agreement,
        output,
        validity: round.validity,
        report: service.report(),
        steps: service.steps().to_vec(),
        breakdown: service.breakdown(),
        tags_conserved: service.tags_conserve_totals(),
        corrupt: service.corrupt().clone(),
        certificate_len: round.certificate_len,
    })
}
