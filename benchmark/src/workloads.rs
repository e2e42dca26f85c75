//! The four workloads: configuration, seeded input generation, one
//! repetition of each through the public `Service` API, and the
//! correctness oracle that judges every decision before its time counts.

use crate::trace::{SpanId, Tracer};
use pba_aetree::params::TreeParams;
use pba_core::protocol::{
    BaConfig, Establishment, KeyPolicy, ProtocolError, Service, StepReport, StreamMode,
};
use pba_crypto::codec::{Decode, Encode};
use pba_net::PartyId;
use pba_srds::owf::{OwfSrds, OwfSrdsConfig};
use pba_srds::snark::{SnarkSrds, SnarkSrdsConfig};
use pba_srds::traits::Srds;
use std::time::Instant;

/// Which SRDS construction a workload runs over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    Snark(SnarkSrdsConfig),
    Owf(OwfSrdsConfig),
}

/// One workload: a fixed protocol configuration. Only the seed varies.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Why the workload exists (mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    pub n: usize,
    pub scheme: Scheme,
    pub establishment: Establishment,
    pub key_policy: KeyPolicy,
    pub threads: usize,
    /// Random Byzantine corruptions (`0` = honest run).
    pub corrupt: usize,
    /// Instances streamed per establishment; `0` = one-shot (one
    /// establishment, one decision, driven step by step).
    pub stream: usize,
    /// Repetitions every run makes regardless of `--seconds`; the count
    /// metrics are taken over exactly these, so they depend on the seed
    /// only.
    pub min_reps: usize,
}

const SNARK_DEFAULT: Scheme = Scheme::Snark(SnarkSrdsConfig {
    mss_bits: 32,
    mss_height: 1,
});

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "stream-1k",
        why: "BA-as-a-service steady state: eager MSS keygen is all of setup, the VSS coin is a third of a decision, the cert cache is warm, and it is the only run on the 2-thread scheduler",
        n: 1024,
        scheme: Scheme::Snark(SnarkSrdsConfig {
            mss_bits: 32,
            mss_height: 4,
        }),
        establishment: Establishment::Charged,
        key_policy: KeyPolicy::Eager,
        threads: 2,
        corrupt: 0,
        stream: 16,
        min_reps: 2,
    },
    Spec {
        name: "scale-16k",
        why: "n = 16384 one-shot with lazy keys: steps 3-8 are most of the decision and memory is first-order; keygen moves from setup into signing",
        n: 16384,
        scheme: SNARK_DEFAULT,
        establishment: Establishment::Charged,
        key_policy: KeyPolicy::Lazy,
        threads: 1,
        corrupt: 0,
        stream: 0,
        min_reps: 2,
    },
    Spec {
        name: "kssv-512",
        why: "interactive KSSV establishment is real message passing: the run is the round engine, wire codec, metrics table and phase-king, which are about 1% of every other workload",
        n: 512,
        scheme: SNARK_DEFAULT,
        establishment: Establishment::Interactive,
        key_policy: KeyPolicy::Eager,
        threads: 1,
        corrupt: 0,
        stream: 0,
        min_reps: 3,
    },
    Spec {
        name: "byz-owf-1k",
        why: "OWF certificates of tens of KB under 10% Byzantine faults: step 6 carries the bytes instead of step 5, setup is oblivious keygen, and the failure counter is live",
        n: 1024,
        scheme: Scheme::Owf(OwfSrdsConfig {
            lamport_bits: 16,
            signer_factor: 8,
            min_signers: 40,
        }),
        establishment: Establishment::Charged,
        key_policy: KeyPolicy::Eager,
        threads: 1,
        corrupt: 102,
        stream: 0,
        min_reps: 15,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Spec {
    /// The `--smoke` variant: same configuration at n = 64, one
    /// repetition, a 4-instance stream.
    pub fn smoke(&self) -> Spec {
        Spec {
            n: 64,
            corrupt: self.corrupt * 64 / self.n,
            stream: self.stream.min(4),
            min_reps: 1,
            ..*self
        }
    }

    /// Decisions one repetition attempts.
    pub fn decisions(&self) -> usize {
        self.stream.max(1)
    }

    /// The configuration of repetition `rep`. The benchmark seed reaches
    /// the program only here: as the execution seed bytes (which also
    /// drive the random corruption plan) and, via [`Spec::inputs`], as
    /// the party inputs.
    pub fn config(&self, seed: &str, rep: usize) -> BaConfig {
        let seed = format!("{seed}/{}/{rep}", self.name);
        let mut config = if self.corrupt == 0 {
            BaConfig::honest(self.n, seed.as_bytes())
        } else {
            BaConfig::byzantine(self.n, self.corrupt, seed.as_bytes())
        };
        config.establishment = self.establishment;
        config
            .with_threads(self.threads)
            .with_key_policy(self.key_policy)
    }

    /// Party inputs of one-shot repetition `rep`: unanimous 1 on even
    /// repetitions (validity must force the output), `i mod 2` on odd ones
    /// (agreement only).
    pub fn inputs(&self, rep: usize) -> Vec<u8> {
        if rep.is_multiple_of(2) {
            vec![1; self.n]
        } else {
            (0..self.n).map(|i| (i % 2) as u8).collect()
        }
    }

    /// Streamed inputs: instance `j` is unanimous on bit `j mod 2`.
    pub fn stream_inputs(&self) -> Vec<Vec<Vec<u8>>> {
        (0..self.stream)
            .map(|j| vec![vec![(j % 2) as u8]; self.n])
            .collect()
    }

    /// The tree shape the layer kernels are sized by — the same
    /// `TreeParams` the service derives (checked in every repetition); its
    /// `committee_size` is the supreme-committee size.
    pub fn tree_params(&self) -> TreeParams {
        TreeParams::scaled(self.n, self.config("", 0).z)
    }
}

/// Honest bytes per Fig. 3 step over one repetition, indexed like
/// [`STEP_NAMES`].
pub type StepBytes = [u64; 7];

/// The per-step byte metrics and the `Service::steps()` label prefix each
/// is read from.
pub const STEP_NAMES: [(&str, &str); 7] = [
    ("core.bytes.establish", "1:"),
    ("core.bytes.committee", "2:"),
    ("core.bytes.disseminate", "3:"),
    ("core.bytes.sign", "4:"),
    ("core.bytes.aggregate", "5:"),
    ("core.bytes.certificate", "6:"),
    ("core.bytes.spread", "7-8:"),
];

fn add_steps(bytes: &mut StepBytes, steps: &[StepReport]) {
    for step in steps {
        let slot = STEP_NAMES
            .iter()
            .position(|(_, prefix)| step.label.starts_with(prefix))
            .unwrap_or_else(|| panic!("unknown step label {:?}", step.label));
        bytes[slot] += step.total_bytes;
    }
}

/// What one repetition measured.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Wall time of `Service::try_establish`.
    pub setup_s: f64,
    /// Wall time from handing inputs to the established service until
    /// every party's output is returned, over all decisions of the rep.
    pub decide_s: f64,
    pub attempted: usize,
    pub failed: usize,
    /// `Service::report().max_bits_per_party()` at the end (setup included).
    pub max_bits: u64,
    /// Metered rounds after establishment.
    pub rounds: u64,
    pub bytes: StepBytes,
    pub overlapped_rounds: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_warm_hits: u64,
    /// `MetricsTable::allocated_cells()` at the end.
    pub cells: usize,
    pub certificate_len: usize,
}

/// The oracle's agreement/validity rule: every honest party has an
/// output, all are equal, and they equal `forced` when the honest inputs
/// were unanimous.
pub fn judge<T: PartialEq>(honest: &[PartyId], outputs: &[Option<T>], forced: Option<&T>) -> bool {
    let mut honest_outputs = honest.iter().map(|p| outputs[p.index()].as_ref());
    let Some(Some(first)) = honest_outputs.next() else {
        return false;
    };
    honest_outputs.all(|o| o == Some(first)) && forced.is_none_or(|v| v == first)
}

/// Runs repetition `rep` of `spec` on a fresh scheme instance (cold
/// caches), recording spans when `tracer` is enabled.
pub fn run_rep(spec: &Spec, seed: &str, rep: usize, tracer: &mut Tracer) -> Rep {
    match spec.scheme {
        Scheme::Snark(config) => run_rep_with(&SnarkSrds::new(config), spec, seed, rep, tracer),
        Scheme::Owf(config) => run_rep_with(&OwfSrds::new(config), spec, seed, rep, tracer),
    }
}

fn run_rep_with<S>(scheme: &S, spec: &Spec, seed: &str, rep: usize, tracer: &mut Tracer) -> Rep
where
    S: Srds,
    S::Signature: Encode + Decode,
{
    let config = spec.config(seed, rep);
    let mut out = Rep {
        attempted: spec.decisions(),
        ..Rep::default()
    };
    let rep_span = tracer.begin("rep", None, rep);

    let clock = Instant::now();
    let established = tracer.scope("establish", rep_span, rep, || {
        Service::try_establish(scheme, &config)
    });
    out.setup_s = clock.elapsed().as_secs_f64();
    let mut svc = match established {
        Ok(svc) => svc,
        Err(e) => {
            eprintln!("{} rep {rep}: establishment failed: {e}", spec.name);
            out.failed = out.attempted;
            tracer.end(rep_span);
            return out;
        }
    };
    let params = spec.tree_params();
    assert_eq!(svc.params(), &params, "kernel shape is not the service's");
    assert_eq!(svc.supreme_committee().len(), params.committee_size);
    let rounds_established = svc.net.metrics().rounds();
    add_steps(&mut out.bytes, svc.steps());

    if spec.stream == 0 {
        one_shot(&mut svc, spec, rep, tracer, rep_span, &mut out);
    } else {
        stream(&mut svc, spec, rep, tracer, rep_span, &mut out);
    }

    if !svc.tags_conserve_totals() {
        eprintln!(
            "{} rep {rep}: per-tag bytes do not sum to totals",
            spec.name
        );
        out.failed = out.attempted;
    }
    out.max_bits = svc.report().max_bits_per_party();
    out.rounds = svc.net.metrics().rounds() - rounds_established;
    out.cells = svc.net.metrics().allocated_cells();
    // The scheme is fresh per repetition, so its cache counters are the
    // repetition's own (`None` for the cache-less OWF scheme).
    if let Some(cache) = scheme.cache_stats() {
        out.cache_hits = cache.hits;
        out.cache_misses = cache.misses;
        out.cache_warm_hits = cache.warm_hits;
    }
    tracer.end(rep_span);
    out
}

/// One decision driven through the public Fig. 3 step functions, one span
/// per step.
fn one_shot<S>(
    svc: &mut Service<'_, S>,
    spec: &Spec,
    rep: usize,
    tracer: &mut Tracer,
    rep_span: SpanId,
    out: &mut Rep,
) where
    S: Srds,
    S::Signature: Encode + Decode,
{
    let inputs = spec.inputs(rep);
    let forced = rep.is_multiple_of(2).then_some(1u8);
    let setup_bytes = out.bytes[0];

    let decision = tracer.begin("decision", rep_span, rep);
    let clock = Instant::now();
    let committee_inputs = tracer.scope("fanin", decision, rep, || {
        svc.robust_committee_inputs(&inputs)
    });
    let agreed = tracer
        .scope("committee_ba", decision, rep, || {
            svc.try_committee_ba(&committee_inputs)
        })
        .and_then(|y| {
            let s = tracer.scope("coin", decision, rep, || svc.try_committee_coin())?;
            Ok::<_, ProtocolError>((y, s))
        });
    // `Service::steps()` has no step-2 snapshot on this path (it is taken
    // by `try_certified_round`, which would hide the step boundaries), so
    // its step-3 delta would absorb fan-in + committee bytes: read the
    // honest total at the boundary and split them out.
    let committee_bytes = svc.report().total_bytes - setup_bytes;
    let round = agreed
        .map(|(y, s)| tracer.scope("certify", decision, rep, || svc.certify_and_spread(y, s)));
    out.decide_s = clock.elapsed().as_secs_f64();
    tracer.end(decision);

    match round {
        Ok(round) => {
            add_steps(&mut out.bytes, &svc.steps()[1..]);
            out.bytes[1] += committee_bytes;
            out.bytes[2] -= committee_bytes;
            out.certificate_len = round.certificate_len.unwrap_or(0);
            if !judge(svc.honest(), &round.outputs, forced.as_ref())
                || round.certificate_len.is_none()
            {
                eprintln!("{} rep {rep}: decision failed the oracle", spec.name);
                out.failed = 1;
            }
        }
        Err(e) => {
            eprintln!("{} rep {rep}: {e}", spec.name);
            out.bytes[1] += committee_bytes;
            out.failed = 1;
        }
    }
}

/// `spec.stream` pipelined instances over the one establishment.
fn stream<S>(
    svc: &mut Service<'_, S>,
    spec: &Spec,
    rep: usize,
    tracer: &mut Tracer,
    rep_span: SpanId,
    out: &mut Rep,
) where
    S: Srds,
    S::Signature: Encode + Decode,
{
    let instances = spec.stream_inputs();
    let clock = Instant::now();
    let outcome = tracer.scope("stream", rep_span, rep, || {
        svc.try_run_stream(&instances, StreamMode::Pipelined)
    });
    out.decide_s = clock.elapsed().as_secs_f64();

    out.overlapped_rounds = outcome.overlapped_rounds;
    // Instances the stream never reached (a refused budget ends it) have
    // no outcome and count as failed.
    out.failed = out.attempted - outcome.instances.len().min(out.attempted);
    for (j, instance) in outcome.instances.iter().enumerate() {
        add_steps(&mut out.bytes, &instance.report.steps);
        let forced = instances.get(j).map(|inputs| &inputs[0]);
        let ok = match &instance.result {
            Ok(mv) => {
                out.certificate_len = mv.certificate_len.unwrap_or(0);
                judge(svc.honest(), &mv.outputs, forced) && mv.certificate_len.is_some()
            }
            Err(e) => {
                eprintln!("{} rep {rep} instance {j}: {e}", spec.name);
                false
            }
        };
        if !ok {
            out.failed += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_rules() {
        let honest = [PartyId(0), PartyId(2)];
        // Party 1 is corrupt: its missing output is ignored.
        assert!(judge(&honest, &[Some(1u8), None, Some(1)], Some(&1)));
        assert!(judge(&honest, &[Some(0u8), None, Some(0)], None));
        // Validity violated on a unanimous repetition.
        assert!(!judge(&honest, &[Some(0u8), None, Some(0)], Some(&1)));
        // Honest outputs differ.
        assert!(!judge(&honest, &[Some(0u8), None, Some(1)], None));
        // An honest party has no output.
        assert!(!judge(&honest, &[Some(1u8), Some(1), None], None));
        assert!(!judge(&honest, &[None, Some(1u8), Some(1)], None));
    }

    #[test]
    fn seed_reaches_the_program_as_config_and_inputs_only() {
        let spec = find("byz-owf-1k").unwrap();
        let a = spec.config("1", 0);
        let b = spec.config("2", 0);
        assert_ne!(a.seed, b.seed);
        assert_eq!(a.seed, spec.config("1", 0).seed, "same seed, same inputs");
        assert_ne!(a.seed, spec.config("1", 1).seed, "repetitions differ");
        assert_eq!(spec.inputs(0), vec![1; spec.n]);
        assert_eq!(&spec.inputs(1)[..4], &[0, 1, 0, 1]);
    }

    #[test]
    fn step_labels_map_to_metric_suffixes() {
        let mut bytes = StepBytes::default();
        let step = |label, total_bytes| StepReport {
            label,
            total_bytes,
            max_bytes_after: 0,
        };
        add_steps(
            &mut bytes,
            &[
                step("1:ae-comm-establish", 1),
                step("2:committee-ba+coin", 2),
                step("5:tree-aggregation", 5),
                step("7-8:prf-spread+output", 7),
                step("5:tree-aggregation", 5),
            ],
        );
        assert_eq!(bytes, [1, 2, 0, 0, 10, 0, 7]);
    }
}
