//! The establish-once `Service` and the pipelined decision stream.
//!
//! * **Entry points** — the first instance of a stream is the
//!   single-shot [`pba_core::protocol::try_run_ba_over`] run at the same
//!   `(seed, config)`, for both Charged and Interactive establishment.
//! * **Mode equivalence** — pipelined and sequential streams agree on
//!   every observable but the rounds; pipelining only hides round latency
//!   (`overlapped_rounds > 0`, strictly fewer clock rounds) — timing faults
//!   included, since pipelining never moves the delivery tick.
//! * **Leaf budgeting** — a stream outliving the establishment's MSS
//!   capacity ends with a structured [`ProtocolError::KeyBudget`] naming
//!   the failing instance; it never panics.
//! * **Timing stays with the establishment** — the delivery window and
//!   slack belong to the timing model installed at establishment, so
//!   [`Service::set_chaos`] neither shrinks them (disarming) nor conjures
//!   them without a delay queue (arming a timing spec later).
//!
//! The two equivalences are rows of the differential oracle
//! (`support/differential.rs`).

#[path = "support/differential.rs"]
mod differential;

use differential::{
    differential, matches, observe, ones, reference, Context, Entry, Scheme, Variant, Verdict,
};
use pba_bench::chaos::default_cases;
use pba_core::protocol::{BaConfig, Establishment, KeyError, ProtocolError, Service, StreamMode};
use pba_net::faults::{LatencyDist, StrategySpec};
use pba_srds::snark::{SnarkSrds, SnarkSrdsConfig};

const SEED: &[u8] = b"service-stream";

/// A SNARK scheme with 2^3 = 8 one-time epoch slots.
fn snark_deep() -> SnarkSrds {
    SnarkSrds::new(SnarkSrdsConfig {
        mss_bits: 32,
        mss_height: 3,
    })
}

/// `k` instances over [`snark_deep`], `n / 8` random Byzantine parties.
fn context(establishment: Establishment, k: usize) -> Context {
    let mut ctx = Context::byzantine(64, SEED);
    (ctx.scheme, ctx.instances) = (Scheme::Snark(3), ones(64, k));
    ctx.config.establishment = establishment;
    ctx
}

/// A one-instance stream matches the single shot on every observable
/// both expose; a three-instance stream's instance 1 has the single
/// shot's final transcript digest, which commits every delivery so far.
#[test]
fn streamed_first_instance_is_transcript_identical_to_single_shot() {
    for establishment in [Establishment::Charged, Establishment::Interactive] {
        let single = Variant::REFERENCE.with(|v| v.entry = Entry::Single);
        let single_shot = observe(&context(establishment, 1), single).remove(0);
        let digest = single_shot.transcript.last().copied();
        assert!(digest.is_some(), "single-shot run has a transcript");
        for mode in [StreamMode::Sequential, StreamMode::Pipelined] {
            let stream = Variant::REFERENCE.with(|v| v.entry = Entry::Stream(mode));
            if let Err(d) = matches(&single_shot, &context(establishment, 1), stream) {
                panic!("{establishment:?} {mode:?}: {d}");
            }
            let out = observe(&context(establishment, 3), stream).remove(0);
            assert_eq!(out.decisions, Some(3), "{establishment:?} {mode:?}");
            let first = out.instances.expect("a stream reports instances")[0].transcript_digest;
            assert_eq!(
                first, digest,
                "{establishment:?} {mode:?}: instance 1 diverged"
            );
        }
    }
}

/// Pipelining re-books rounds and reorders nothing: every other
/// observable agrees, and `pipelined total + overlapped = sequential
/// total` while strictly fewer clock rounds pass.
#[test]
fn pipelined_stream_matches_sequential_and_hides_rounds() {
    let ctx = context(Establishment::Charged, 4);
    let pipelined = Variant::REFERENCE.with(|v| v.entry = Entry::Stream(StreamMode::Pipelined));
    let (sequential, pipe) = (reference(&ctx), observe(&ctx, pipelined).remove(0));
    differential(&sequential, &pipe).unwrap_or_else(|d| panic!("{d}"));
    assert_eq!(sequential.decisions, Some(4));
    let ((total, seq_hidden), (pipe_total, hidden)) =
        (sequential.rounds.unwrap(), pipe.rounds.unwrap());
    assert_eq!(seq_hidden, 0);
    assert!(hidden > 0, "pipelining hid no certification rounds");
    assert!(
        pipe_total < total,
        "pipelined stream not faster in rounds: {pipe_total} vs {total}"
    );
}

/// The same law under timing faults: every `chaos-ci` timing row at
/// charged n = 48, as a 3-instance stream, delivers in pipelined mode
/// exactly what it delivers in sequential mode (transcripts included),
/// and every row that decided hid certification rounds.
#[test]
fn pipelined_stream_matches_sequential_under_timing_faults() {
    let pipelined = Variant::REFERENCE.with(|v| v.entry = Entry::Stream(StreamMode::Pipelined));
    let mut rows = 0;
    for case in default_cases(b"chaos-ci") {
        let mut ctx = Context::chaos(&case);
        if case.n != 48 || case.establishment != Establishment::Charged || !ctx.has_timing() {
            continue;
        }
        (ctx.scheme, ctx.instances) = (Scheme::Snark(2), ones(48, 3));
        let (sequential, pipe) = (reference(&ctx), observe(&ctx, pipelined).remove(0));
        let at = format!("[{}]", case.key());
        differential(&sequential, &pipe).unwrap_or_else(|d| panic!("{at}: {d}\n{}", case.repro()));
        let hidden = pipe.rounds.map_or(0, |(_, hidden)| hidden);
        assert!(
            pipe.decisions.unwrap_or(0) == 0 || hidden > 0,
            "{at}: decided but hid no rounds"
        );
        rows += 1;
    }
    assert_eq!(rows, 15, "the charged n = 48 timing block changed size");
}

/// A churned committee phase fails instances 0–3 of this stream, and
/// each keeps its fan-in and committee bytes in its own step-2 snapshot
/// instead of passing them to instance 4, the first to agree. (The
/// harness asserts every observed instance's steps sum to its total.)
#[test]
fn failed_instance_keeps_its_committee_bytes() {
    let mut ctx = Context::byzantine(48, b"leak-0");
    ctx.config = BaConfig::byzantine(48, 4, b"leak-0");
    ctx.config.chaos = Some(StrategySpec::Churn {
        count: 6,
        down: 0,
        up: 400,
    });
    (ctx.scheme, ctx.instances) = (Scheme::Snark(3), ones(48, 5));
    let out = reference(&ctx);
    assert_eq!(out.decisions, Some(1));
    for (i, instance) in out.instances.expect("a stream").iter().enumerate().take(4) {
        assert!(matches!(out.results[i], Verdict::Failed(_)), "instance {i}");
        let labels: Vec<_> = instance.steps.iter().map(|s| s.label).collect();
        assert_eq!(labels, ["2:committee-ba+coin"], "instance {i}");
        assert!(instance.total_bytes > 0, "instance {i}");
    }
}

#[test]
fn budget_exhaustion_names_the_failing_instance() {
    // Default height-1 MSS tree: 2 one-time epoch slots; the third
    // instance must be refused, structurally, in both modes.
    for mode in [StreamMode::Sequential, StreamMode::Pipelined] {
        let scheme = SnarkSrds::with_defaults();
        let cfg = BaConfig::byzantine(64, 8, SEED);
        let mut service = Service::try_establish(&scheme, &cfg).expect("establishment");
        let out = service.try_run_stream(&ones(cfg.n, 4), mode);
        assert_eq!(
            out.decisions, 2,
            "{mode:?}: capacity-2 scheme decides twice"
        );
        assert_eq!(
            out.instances.len(),
            3,
            "{mode:?}: the refusal ends the stream"
        );
        let refused = &out.instances[2];
        match &refused.result {
            Err(ProtocolError::KeyBudget {
                error: KeyError::BudgetExhausted { instance, capacity },
            }) => {
                assert_eq!(*instance, 2, "{mode:?}: wrong instance named");
                assert_eq!(*capacity, 2, "{mode:?}");
            }
            other => panic!("{mode:?}: expected a budget refusal, got {other:?}"),
        }
        let display = refused.result.as_ref().unwrap_err().to_string();
        assert!(
            display.contains("instance 2"),
            "{mode:?}: display must name the failing instance: {display}"
        );
        let budget = service.budget().expect("snark scheme has a budget");
        assert_eq!(budget.remaining(), 0, "{mode:?}");
    }
}

#[test]
fn multi_value_payloads_reach_agreement() {
    let scheme = snark_deep();
    let cfg = BaConfig::byzantine(64, 8, SEED);
    let mut service = Service::try_establish(&scheme, &cfg).expect("establishment");
    // Unanimous 5-byte honest input: validity must force it through.
    let value = b"hello".to_vec();
    let instances = vec![vec![value.clone(); cfg.n]; 2];
    let out = service.try_run_stream(&instances, StreamMode::Pipelined);
    assert_eq!(out.decisions, 2);
    for inst in &out.instances {
        let mv = inst.result.as_ref().expect("instance decided");
        assert_eq!(mv.value, value, "validity: unanimous input must win");
        assert!(mv.agreement && mv.validity);
        assert!(mv.certificate_len.is_some());
    }
}

/// ℓ is public, so a corrupt party's longer input must not widen the
/// agreed value: with every honest input `[1]` and one corrupt `[9, 9]`,
/// a width taken over all n inputs zero-padded the decision to `[1, 0]`.
#[test]
fn corrupt_input_length_does_not_widen_the_agreed_value() {
    let scheme = SnarkSrds::with_defaults();
    let cfg = BaConfig::byzantine(64, 6, b"width-probe");
    let mut service = Service::try_establish(&scheme, &cfg).expect("establishment");
    let mut inputs = vec![vec![1u8]; cfg.n];
    let liar = *service.corrupt().first().expect("a corrupt party");
    inputs[liar.index()] = vec![9, 9];
    let out = service.try_run_stream(&[inputs], StreamMode::Sequential);
    let decided = out.instances[0].result.as_ref().expect("instance decided");
    assert_eq!(decided.value, [1]);
    assert!(decided.agreement && decided.validity);
}

/// The metrics table interns peer groups by content, so what it holds is
/// bounded by the tree — one list per node's committee — and not by how
/// many epochs exchanged over it. The spread's PRF-chosen targets are
/// fresh individuals every epoch; were they interned, the pool would grow
/// by n lists per instance and this fails.
#[test]
fn peer_groups_are_bounded_by_the_tree_not_the_epochs() {
    let scheme = snark_deep();
    let cfg = BaConfig::honest(256, SEED);
    let mut service = Service::try_establish(&scheme, &cfg).expect("establishment");
    let mut run = |k: usize| {
        let out = service.try_run_stream(&ones(cfg.n, k), StreamMode::Sequential);
        assert_eq!(out.decisions, k);
        service.net.metrics().peer_groups()
    };
    let after_first = run(1);
    let after_fourth = run(3);
    assert_eq!(after_first, after_fourth, "the pool grew with the epochs");
    let tree = service.tree();
    let nodes: usize = (0..tree.height()).map(|l| tree.nodes_at_level(l)).sum();
    assert_eq!(after_first, nodes, "one group per committee of the tree");
}

/// What the set_chaos rows compare of one instance: its verdict, metered
/// rounds and the honest bytes each step sent. (A step's
/// `max_bytes_after` also counts what honest members read from the
/// committee adversary, and disarming brings back the profile's.)
type InstanceView = (String, u64, Vec<(&'static str, u64)>);

/// Runs instance 1 on a 48-party `service`, applies `arm`, and returns
/// what instance 2 shows.
fn next_instance_after(
    service: &mut Service<'_, SnarkSrds>,
    arm: Option<StrategySpec>,
) -> InstanceView {
    service.try_run_stream(&ones(48, 1), StreamMode::Sequential);
    service.set_chaos(arm);
    let out = service
        .try_run_stream(&ones(48, 1), StreamMode::Sequential)
        .instances
        .remove(0);
    let verdict = match &out.result {
        Ok(mv) => format!("{:?} {} {}", mv.value, mv.agreement, mv.validity),
        Err(e) => e.to_string(),
    };
    let steps = out.report.steps.iter();
    let steps = steps.map(|s| (s.label, s.total_bytes));
    (verdict, out.report.rounds, steps.collect())
}

/// The uniform-delay spec both set_chaos rows arm.
const UNIFORM_DELAY: StrategySpec = StrategySpec::Delay {
    dist: LatencyDist::Uniform { max: 3 },
    budget: 4,
};

/// Disarming chaos on a service established under a delay spec keeps the
/// installed delay queue's window: the next instance is the instance
/// re-arming the same spec would run. A window read off the spec in
/// force would drop to lockstep under a live delay queue here, metering
/// 57 rounds instead of 180, and 10 of these 16 pairs would end step 2
/// with two distinct honest values.
#[test]
fn disarming_chaos_keeps_the_established_delivery_window() {
    let geometric = StrategySpec::Delay {
        dist: LatencyDist::Geometric {
            num: 1,
            den: 2,
            cap: 3,
        },
        budget: 4,
    };
    let scheme = SnarkSrds::with_defaults();
    for spec in [UNIFORM_DELAY, geometric] {
        for s in 0..8 {
            let mut cfg = BaConfig::byzantine(48, 4, format!("mid-{s}").as_bytes());
            cfg.chaos = Some(spec.clone());
            let establish = || Service::try_establish(&scheme, &cfg).expect("establishment");
            let disarmed = next_instance_after(&mut establish(), None);
            let rearmed = next_instance_after(&mut establish(), Some(spec.clone()));
            assert_eq!(disarmed, rearmed, "{} mid-{s}", spec.label());
        }
    }
}

/// Arming a delay spec mid-stream on a service established without one
/// installs no delay queue, so it grants no partial-synchrony window
/// either: instance 2 meters what arming `Silent` meters (57 rounds, not
/// the 180 a four-tick window taken from the armed spec would meter).
#[test]
fn arming_a_timing_spec_mid_stream_adds_no_rounds() {
    let scheme = SnarkSrds::with_defaults();
    let cfg = BaConfig::honest(48, b"arm-timing");
    let establish = || Service::try_establish(&scheme, &cfg).expect("establishment");
    let silent = next_instance_after(&mut establish(), Some(StrategySpec::Silent));
    let delayed = next_instance_after(&mut establish(), Some(UNIFORM_DELAY));
    assert_eq!(silent, delayed);
}
