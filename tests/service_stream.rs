//! ISSUE 9: the establish-once `Service` and the pipelined decision
//! stream.
//!
//! * **Transcript identity** — the first instance of a stream is
//!   byte-identical (chained delivery-transcript digest) to a single-shot
//!   [`try_run_ba_over`] at the same `(seed, config)`, for both Charged
//!   and Interactive establishment.
//! * **Mode equivalence** — pipelined and sequential streams reach the
//!   same verdicts with the same deliveries; pipelining only hides round
//!   latency (`overlapped_rounds > 0`, strictly fewer clock rounds).
//! * **Leaf budgeting** — a stream outliving the establishment's MSS
//!   capacity ends with a structured [`ProtocolError::KeyBudget`] naming
//!   the failing instance; it never panics.

use pba_core::protocol::{
    try_run_ba_over, AdversaryProfile, BaConfig, Establishment, KeyError, ProtocolError, Service,
    StreamMode, StreamOutcome,
};
use pba_crypto::codec::{Decode, Encode};
use pba_net::corruption::CorruptionPlan;
use pba_net::LocalTransport;
use pba_srds::snark::{SnarkSrds, SnarkSrdsConfig};
use pba_srds::traits::Srds;

fn config(n: usize, establishment: Establishment) -> BaConfig {
    BaConfig {
        n,
        z: 2,
        corruption: CorruptionPlan::Random { t: n / 8 },
        profile: AdversaryProfile::Byzantine,
        seed: b"service-stream".to_vec(),
        establishment,
        chaos: None,
        threads: 1,
        key_policy: pba_core::protocol::KeyPolicy::Eager,
        dense_shadow: false,
    }
}

/// A SNARK scheme with 2^3 = 8 one-time epoch slots.
fn snark_deep() -> SnarkSrds {
    SnarkSrds::new(SnarkSrdsConfig {
        mss_bits: 32,
        mss_height: 3,
    })
}

fn bit_instances(n: usize, k: usize) -> Vec<Vec<Vec<u8>>> {
    vec![vec![vec![1u8]; n]; k]
}

fn stream<'a, S>(
    scheme: &'a S,
    cfg: &BaConfig,
    k: usize,
    mode: StreamMode,
) -> (StreamOutcome, Service<'a, S>)
where
    S: Srds,
    S::Signature: Encode + Decode,
{
    let mut service =
        Service::try_establish_over(scheme, cfg, Some(Box::new(LocalTransport::new())))
            .expect("establishment");
    let out = service.try_run_stream(&bit_instances(cfg.n, k), mode);
    (out, service)
}

#[test]
fn streamed_first_instance_is_transcript_identical_to_single_shot() {
    for establishment in [Establishment::Charged, Establishment::Interactive] {
        let cfg = config(64, establishment);
        let scheme = snark_deep();

        let single = try_run_ba_over(
            &scheme,
            &cfg,
            &vec![1u8; cfg.n],
            Box::new(LocalTransport::new()),
        );
        let single_digest = single
            .final_digest()
            .expect("single-shot run has a transcript");

        for mode in [StreamMode::Sequential, StreamMode::Pipelined] {
            let (out, _service) = stream(&snark_deep(), &cfg, 3, mode);
            assert_eq!(out.decisions, 3, "{establishment:?} {mode:?}");
            let first = out.instances[0]
                .report
                .transcript_digest
                .expect("transport attached");
            assert_eq!(
                first, single_digest,
                "{establishment:?} {mode:?}: streamed instance 1 diverged from single-shot"
            );
        }
    }
}

#[test]
fn pipelined_stream_matches_sequential_and_hides_rounds() {
    let cfg = config(64, Establishment::Charged);
    let (seq, _s1) = stream(&snark_deep(), &cfg, 4, StreamMode::Sequential);
    let (pipe, _s2) = stream(&snark_deep(), &cfg, 4, StreamMode::Pipelined);

    assert_eq!(seq.decisions, 4);
    assert_eq!(pipe.decisions, 4);
    for (a, b) in seq.instances.iter().zip(&pipe.instances) {
        let (va, vb) = (
            a.result.as_ref().expect("sequential instance decided"),
            b.result.as_ref().expect("pipelined instance decided"),
        );
        assert_eq!(va.value, vb.value, "instance {} values diverge", a.index);
        assert_eq!(
            va.outputs, vb.outputs,
            "instance {} outputs diverge",
            a.index
        );
        // Deliveries are identical — pipelining reorders nothing, it only
        // re-books the rounds — so the chained digests must agree too.
        assert_eq!(
            a.report.transcript_digest, b.report.transcript_digest,
            "instance {} transcripts diverge",
            a.index
        );
        // Bytes and step snapshots agree per instance.
        assert_eq!(
            a.report.total_bytes, b.report.total_bytes,
            "instance {} bytes",
            a.index
        );
        assert_eq!(
            a.report.steps.len(),
            b.report.steps.len(),
            "instance {} steps",
            a.index
        );
    }
    assert_eq!(seq.overlapped_rounds, 0);
    assert!(
        pipe.overlapped_rounds > 0,
        "pipelining hid no certification rounds"
    );
    assert!(
        pipe.total_rounds < seq.total_rounds,
        "pipelined stream not faster in rounds: {} vs {}",
        pipe.total_rounds,
        seq.total_rounds
    );
    assert_eq!(
        pipe.total_rounds + pipe.overlapped_rounds,
        seq.total_rounds,
        "every hidden round must be accounted for"
    );
}

#[test]
fn budget_exhaustion_names_the_failing_instance() {
    // Default height-1 MSS tree: 2 one-time epoch slots; the third
    // instance must be refused, structurally, in both modes.
    for mode in [StreamMode::Sequential, StreamMode::Pipelined] {
        let scheme = SnarkSrds::with_defaults();
        let cfg = config(64, Establishment::Charged);
        let mut service = Service::try_establish(&scheme, &cfg).expect("establishment");
        let out = service.try_run_stream(&bit_instances(cfg.n, 4), mode);
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
    let cfg = config(64, Establishment::Charged);
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

/// The metrics table interns peer groups by content, so what it holds is
/// bounded by the tree — one list per node's committee — and not by how
/// many epochs exchanged over it. The spread's PRF-chosen targets are
/// fresh individuals every epoch; were they interned, the pool would grow
/// by n lists per instance and this fails.
#[test]
fn peer_groups_are_bounded_by_the_tree_not_the_epochs() {
    let scheme = snark_deep();
    let cfg = BaConfig::honest(256, b"service-stream");
    let mut service = Service::try_establish(&scheme, &cfg).expect("establishment");
    let mut run = |k: usize| {
        let out = service.try_run_stream(&bit_instances(cfg.n, k), StreamMode::Sequential);
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
