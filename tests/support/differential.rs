//! The differential oracle. [`observe`] runs a [`Context`] under a
//! [`Variant`] and records every observable the run exposes;
//! [`differential`] names the first one two runs disagree on.
//!
//! Every [`Variant`] axis must be invisible: worker `threads`, Eager or
//! Lazy `keys`, the `entry` point, the dense metrics `shadow` (armed right
//! after establishment; its verdict must be "no divergence") and the
//! `backend`, in process or a loopback TCP fleet whose every endpoint
//! replicates the run. Pipelining hides rounds: across it the reports
//! lose their rounds and the law `total + overlapped` (pipelined)
//! `= total` (sequential) is checked instead. Every run is established
//! over a transport (the in-process one, or a fleet endpoint's socket),
//! so every transcript starts at genesis, timing faults included: their
//! delay queue acts on the exchanged batch. Pipelining moves the metered
//! round count, never the delivery tick, so it composes with them too:
//! every variant runs on every context.
#![allow(dead_code)]

use pba_bench::chaos::ChaosCase;
use pba_bench::socket::loopback_fleet;
use pba_core::protocol::{
    try_run_ba_over, BaConfig, InstanceReport, KeyPolicy, ProtocolError, ProtocolPhase, RunOutcome,
    Service, StepReport, StreamMode,
};
use pba_crypto::codec::{Decode, Encode};
use pba_crypto::prg::Prg;
use pba_crypto::sha256::Digest;
use pba_net::faults::StrategySpec;
use pba_net::{genesis_digest, LocalTransport, PartyId, Report, TagBreakdown, Transport};
use pba_srds::multisig::{MultisigConfig, MultisigSrds};
use pba_srds::owf::OwfSrds;
use pba_srds::snark::{SnarkSrds, SnarkSrdsConfig};
use pba_srds::traits::Srds;
use std::collections::BTreeSet;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// An SRDS scheme; the MSS-backed ones carry their tree height.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    Snark(usize),
    Owf,
    Multisig(usize),
}

/// What a run is: everything but the variant, whose `threads` and `keys`
/// replace the config's.
#[derive(Clone, Debug)]
pub struct Context {
    pub config: BaConfig,
    pub scheme: Scheme,
    /// `instances[i][p]` is party `p`'s input to instance `i`.
    pub instances: Vec<Vec<Vec<u8>>>,
}

/// `k` instances of unanimous input `1` over `n` parties.
pub fn ones(n: usize, k: usize) -> Vec<Vec<Vec<u8>>> {
    vec![vec![vec![1u8]; n]; k]
}

impl Context {
    /// `n / 8` random Byzantine corruptions and one instance of input `1`
    /// under the default SNARK scheme.
    pub fn byzantine(n: usize, seed: &[u8]) -> Self {
        Context {
            config: BaConfig::byzantine(n, n / 8, seed),
            scheme: Scheme::Snark(1),
            instances: ones(n, 1),
        }
    }

    /// No corruption, one instance of mixed inputs (`p % 2`).
    pub fn honest(n: usize, seed: &[u8]) -> Self {
        let mut ctx = Context::byzantine(n, seed);
        ctx.config = BaConfig::honest(n, seed);
        ctx.instances = vec![(0..n).map(|p| vec![(p % 2) as u8]).collect()];
        ctx
    }

    /// A chaos-catalogue case, as the sweep runs it.
    pub fn chaos(case: &ChaosCase) -> Self {
        let mut ctx = Context::byzantine(case.n, &case.seed);
        ctx.config.corruption = case.plan.clone();
        ctx.config.establishment = case.establishment;
        ctx.config.chaos = Some(case.spec.clone());
        ctx
    }

    /// True when the chaos spec installs a delay queue.
    pub fn has_timing(&self) -> bool {
        let probe = Prg::from_seed_label(b"differential", "timing-probe");
        let timing = |s: &StrategySpec| s.timing_model(&BTreeSet::new(), self.config.n, &probe);
        self.config.chaos.as_ref().and_then(timing).is_some()
    }
}

/// How the instances are driven.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Entry {
    /// `robust_committee_inputs` + `try_certified_round` per instance
    /// (bits, within the signing budget).
    Round,
    Stream(StreamMode),
    /// `try_run_ba_over`: one instance of bits.
    Single,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    Sim,
    Fleet { endpoints: usize, tick_base: u64 },
}

/// How a run executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Variant {
    pub threads: usize,
    pub keys: KeyPolicy,
    pub entry: Entry,
    pub shadow: bool,
    pub backend: Backend,
}

impl Variant {
    pub const REFERENCE: Variant = Variant {
        threads: 1,
        keys: KeyPolicy::Eager,
        entry: Entry::Stream(StreamMode::Sequential),
        shadow: false,
        backend: Backend::Sim,
    };

    pub fn with(mut self, set: impl FnOnce(&mut Variant)) -> Variant {
        set(&mut self);
        self
    }
}

/// One instance's verdict, in the shape every entry point produces:
/// per-party outputs and the certificate size, or the failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    Delivered(Vec<Option<Vec<u8>>>, Option<usize>),
    Failed(ProtocolError),
    /// The run panicked (one verdict for the whole run).
    Panicked(String),
}

/// Everything a run exposes. `None` marks what its entry point does not
/// (`try_run_ba_over` hands back no service) or what a failed
/// establishment never built; it is compared only against a run that
/// exposes it.
#[derive(Clone, Debug, Default)]
pub struct Observed {
    /// One verdict per instance; a failed establishment is one verdict.
    pub results: Vec<Verdict>,
    pub transcript: Vec<Digest>,
    /// `net.report()`, corrupt parties included.
    pub net_report: Option<Report>,
    /// `Service::report()`, honest parties only.
    pub report: Option<Report>,
    pub breakdown: Option<TagBreakdown>,
    pub steps: Option<Vec<StepReport>>,
    pub instances: Option<Vec<InstanceReport>>,
    pub decisions: Option<usize>,
    /// Clock rounds after establishment, and how many pipelining hid.
    pub rounds: Option<(u64, u64)>,
    pub tags_conserve: Option<bool>,
    pub cells: Option<usize>,
    pub peer_groups: Option<usize>,
    /// The dense shadow's divergence, when armed.
    pub shadow: Option<Option<String>>,
    pub pipelined: bool,
    /// Bytes written to sockets: not compared, zero in process.
    pub socket_bytes: u64,
}

/// The reference run of `ctx`.
pub fn reference(ctx: &Context) -> Observed {
    observe(ctx, Variant::REFERENCE).remove(0)
}

/// Runs `ctx` under `variant`: one [`Observed`] per endpoint.
pub fn observe(ctx: &Context, variant: Variant) -> Vec<Observed> {
    match variant.backend {
        Backend::Sim => vec![observe_endpoint(
            ctx,
            variant,
            Box::new(LocalTransport::new()),
        )],
        Backend::Fleet {
            endpoints,
            tick_base,
        } => {
            let (seed, label) = (&ctx.config.seed, ctx.config.establishment.label());
            let scheme = format!("{:?}", ctx.scheme);
            let genesis = |map: &_| genesis_digest(seed, label, &scheme, map);
            let run = |transport| observe_endpoint(ctx, variant, transport);
            loopback_fleet(ctx.config.n, endpoints, tick_base, genesis, run)
        }
    }
}

/// [`observe`], then [`differential`] against `reference` per endpoint.
pub fn matches(reference: &Observed, ctx: &Context, variant: Variant) -> Result<(), String> {
    for (e, run) in observe(ctx, variant).iter().enumerate() {
        differential(reference, run).map_err(|d| format!("{variant:?}, endpoint {e}: {d}"))?;
    }
    Ok(())
}

fn observe_endpoint(ctx: &Context, v: Variant, transport: Box<dyn Transport>) -> Observed {
    let run = catch_unwind(AssertUnwindSafe(|| match ctx.scheme {
        Scheme::Snark(mss_height) => {
            let scheme = SnarkSrds::new(SnarkSrdsConfig {
                mss_height,
                ..Default::default()
            });
            run(&scheme, ctx, v, transport)
        }
        Scheme::Owf => run(&OwfSrds::with_defaults(), ctx, v, transport),
        Scheme::Multisig(mss_height) => {
            let scheme = MultisigSrds::new(MultisigConfig {
                mss_height,
                ..Default::default()
            });
            run(&scheme, ctx, v, transport)
        }
    }));
    let observed = run.unwrap_or_else(|payload| {
        let text = payload.downcast_ref::<&str>().map(|s| s.to_string());
        let text = text.or_else(|| payload.downcast_ref::<String>().cloned());
        let results = vec![Verdict::Panicked(text.unwrap_or_default())];
        Observed {
            results,
            ..Observed::default()
        }
    });
    // Per instance, the step snapshots book every byte the instance
    // charged: the whole-run conservation law, sliced by instance.
    for instance in observed.instances.iter().flatten() {
        let steps: u64 = instance.steps.iter().map(|s| s.total_bytes).sum();
        assert_eq!(
            steps, instance.total_bytes,
            "{v:?}: instance {} steps sum to {steps} B of its {} B",
            instance.index, instance.total_bytes
        );
    }
    observed
}

fn bits(inputs: &[Vec<u8>]) -> Vec<u8> {
    inputs
        .iter()
        .map(|v| v.first().copied().unwrap_or(0))
        .collect()
}

fn widen(outputs: Vec<Option<u8>>) -> Vec<Option<Vec<u8>>> {
    outputs.into_iter().map(|o| o.map(|b| vec![b])).collect()
}

fn run<S>(scheme: &S, ctx: &Context, v: Variant, transport: Box<dyn Transport>) -> Observed
where
    S: Srds,
    S::Signature: Encode + Decode,
{
    let mut config = ctx.config.clone();
    (config.threads, config.key_policy) = (v.threads, v.keys);
    let mut o = Observed::default();
    if v.entry == Entry::Single {
        let inputs = bits(&ctx.instances[0]);
        let single = try_run_ba_over(scheme, &config, &inputs, transport);
        (o.transcript, o.socket_bytes) = (single.transcript, single.stats.bytes_sent);
        match single.outcome {
            RunOutcome::Failed { reason, .. } => o.results.push(Verdict::Failed(reason)),
            RunOutcome::Completed(out) => {
                o.results
                    .push(Verdict::Delivered(widen(out.outputs), out.certificate_len));
                (o.report, o.breakdown) = (Some(out.report), Some(out.breakdown));
                (o.steps, o.tags_conserve) = (Some(out.steps), Some(out.tags_conserved));
            }
        }
        return o;
    }
    let mut service = match Service::try_establish_over(scheme, &config, Some(transport)) {
        Ok(service) => service,
        Err(e) => {
            o.results.push(Verdict::Failed(e));
            return o;
        }
    };
    if v.shadow {
        service.net.metrics_mut().enable_shadow();
    }
    let start = service.net.metrics().rounds();
    if let Entry::Stream(mode) = v.entry {
        let out = service.try_run_stream(&ctx.instances, mode);
        (o.decisions, o.pipelined) = (Some(out.decisions), mode == StreamMode::Pipelined);
        o.rounds = Some((out.total_rounds, out.overlapped_rounds));
        let mut reports = Vec::new();
        for instance in out.instances {
            o.results.push(match instance.result {
                Ok(mv) => Verdict::Delivered(mv.outputs, mv.certificate_len),
                Err(e) => Verdict::Failed(e),
            });
            reports.push(instance.report);
        }
        o.instances = Some(reports);
    } else {
        for inputs in &ctx.instances {
            let committee = service.robust_committee_inputs(&bits(inputs));
            o.results
                .push(match service.try_certified_round(&committee) {
                    Ok(round) => judged(
                        service.honest(),
                        widen(round.outputs),
                        round.certificate_len,
                    ),
                    Err(e) => Verdict::Failed(e),
                });
        }
        o.rounds = Some((service.net.metrics().rounds() - start, 0));
    }
    let metrics = service.net.metrics();
    Observed {
        transcript: service.net.transcript().unwrap_or_default().to_vec(),
        net_report: Some(metrics.report()),
        report: Some(service.report()),
        breakdown: Some(service.breakdown()),
        steps: Some(service.steps().to_vec()),
        tags_conserve: Some(service.tags_conserve_totals()),
        cells: Some(metrics.allocated_cells()),
        peer_groups: Some(metrics.peer_groups()),
        shadow: v.shadow.then(|| metrics.shadow_divergence()),
        socket_bytes: service.net.transport().stats().bytes_sent,
        ..o
    }
}

/// A certified round's outputs judged as a streamed instance is: an
/// honest party without output, while no two delivered values conflict,
/// is a certification stall.
fn judged(honest: &[PartyId], outputs: Vec<Option<Vec<u8>>>, len: Option<usize>) -> Verdict {
    let held: Vec<_> = honest
        .iter()
        .filter_map(|p| outputs[p.index()].as_ref())
        .collect();
    if held.len() == honest.len() || held.iter().collect::<BTreeSet<_>>().len() > 1 {
        return Verdict::Delivered(outputs, len);
    }
    let (phase, delivered, honest) = (ProtocolPhase::Certification, held.len(), honest.len());
    Verdict::Failed(ProtocolError::Stalled {
        phase,
        delivered,
        honest,
    })
}

/// Every compared observable: its name, what one position of it is
/// (empty for a single value) and its positions, rendered.
type Fields = [(&'static str, &'static str, Option<Vec<String>>); 12];

impl Observed {
    /// Across pipelining, reports lose their rounds and `rounds` holds
    /// `total + overlapped`.
    fn fields(&self, pipelining: bool) -> Fields {
        fn all<T: Debug>(items: &[T]) -> Vec<String> {
            items.iter().map(|x| format!("{x:?}")).collect()
        }
        fn one<T: Debug>(x: T) -> Vec<String> {
            vec![format!("{x:?}")]
        }
        let clock = |rounds: u64| if pipelining { 0 } else { rounds };
        let report = |r: &Report| {
            one(Report {
                rounds: clock(r.rounds),
                ..*r
            })
        };
        let instance = |r: &InstanceReport| {
            let (rounds, overlapped_rounds) = (clock(r.rounds), clock(r.overlapped_rounds));
            format!(
                "{:?}",
                InstanceReport {
                    rounds,
                    overlapped_rounds,
                    ..r.clone()
                }
            )
        };
        let rounds = |(total, hidden): (u64, u64)| {
            if pipelining {
                one(total + hidden)
            } else {
                one((total, hidden))
            }
        };
        let instances = self
            .instances
            .as_ref()
            .map(|v| v.iter().map(instance).collect());
        [
            ("results", "instance", Some(all(&self.results))),
            ("transcript", "batch", Some(all(&self.transcript))),
            ("steps()", "step", self.steps.as_deref().map(all)),
            ("InstanceReport", "instance", instances),
            ("Service::report()", "", self.report.as_ref().map(report)),
            ("net.report()", "", self.net_report.as_ref().map(report)),
            ("breakdown()", "", self.breakdown.as_ref().map(one)),
            ("decisions", "", self.decisions.map(one)),
            ("rounds", "", self.rounds.map(rounds)),
            ("tags_conserve_totals()", "", self.tags_conserve.map(one)),
            ("allocated_cells()", "", self.cells.map(one)),
            ("peer_groups()", "", self.peer_groups.map(one)),
        ]
    }
}

/// `Ok` when `a` and `b` agree on every observable both expose; else the
/// first difference, naming the field and the position within it.
pub fn differential(a: &Observed, b: &Observed) -> Result<(), String> {
    let pipelining = a.pipelined != b.pipelined;
    for ((field, at, x), (.., y)) in a.fields(pipelining).into_iter().zip(b.fields(pipelining)) {
        let (Some(x), Some(y)) = (x, y) else { continue };
        if let Some(i) = (0..x.len().max(y.len())).find(|&i| x.get(i) != y.get(i)) {
            let at = if at.is_empty() {
                String::new()
            } else {
                format!(" {at} {i}")
            };
            return Err(format!("{field}{at}: {:?} != {:?}", x.get(i), y.get(i)));
        }
    }
    match (&a.shadow, &b.shadow) {
        (Some(Some(d)), _) | (_, Some(Some(d))) => Err(format!("dense shadow: {d}")),
        _ => Ok(()),
    }
}
