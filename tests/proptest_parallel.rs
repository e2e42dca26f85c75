//! Property-based checks of the parallel round engine: for *arbitrary*
//! seeds, thread counts, committee sizes, and fault-injection strategies,
//! [`pba_net::run_phase_threaded`] must be observationally identical to
//! the sequential engine (same outputs, same staged-envelope transcript,
//! same metrics report).

use pba_core::phase_king::{rounds_for, PhaseKing};
use pba_crypto::prg::Prg;
use pba_crypto::sha256::Digest;
use pba_net::faults::StrategySpec;
use pba_net::runner::run_phase_threaded;
use pba_net::{Machine, Network, PartyId};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// One phase-king run against a chaos adversary, returning everything an
/// observer could compare: per-party outputs, the delivered-round
/// transcript, and the metrics report (with phase outcome folded in).
fn run_once(
    n: usize,
    t: usize,
    spec: &StrategySpec,
    seed: &[u8],
    threads: usize,
) -> (Vec<Option<u8>>, Vec<Digest>, String) {
    let prg = Prg::from_seed_label(seed, "proptest-parallel");
    let committee: Vec<PartyId> = (0..n as u64).map(PartyId).collect();
    // Deterministic structured placement: every third party, up to `t`.
    let corrupted: BTreeSet<PartyId> = (0..n as u64)
        .filter(|i| i % 3 == 1)
        .take(t)
        .map(PartyId)
        .collect();
    let mut adversary = spec.build(corrupted.clone(), n, &prg.child("adv", 0));
    let mut machines: BTreeMap<PartyId, PhaseKing<u8>> = committee
        .iter()
        .filter(|p| !corrupted.contains(p))
        .map(|&p| (p, PhaseKing::new(committee.clone(), p, (p.0 % 2) as u8)))
        .collect();
    let mut net = Network::new(n);
    net.enable_transcript();
    let outcome = {
        let mut erased: BTreeMap<PartyId, Box<dyn Machine + Send + '_>> = machines
            .iter_mut()
            .map(|(&id, m)| (id, Box::new(m) as Box<dyn Machine + Send + '_>))
            .collect();
        run_phase_threaded(
            &mut net,
            &mut erased,
            adversary.as_mut(),
            rounds_for(n) + 6,
            threads,
        )
    };
    let outputs: Vec<Option<u8>> = committee
        .iter()
        .map(|p| machines.get(p).and_then(|m| m.output().copied()))
        .collect();
    let report = format!(
        "{:?} rounds={} completed={}",
        net.report(),
        outcome.rounds,
        outcome.completed
    );
    (
        outputs,
        net.transcript().expect("transcript enabled").to_vec(),
        report,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Thread-count invariance: any worker count reproduces the
    /// sequential run bit for bit, under every catalogue strategy — the
    /// degenerate knobs included (`threads = 0` aliases the sequential
    /// path; `threads = 33 > n` caps at one machine per worker instead
    /// of spawning workers with nothing to claim).
    #[test]
    fn thread_count_invariance(
        n in 6usize..24,
        t_raw in 0usize..6,
        spec_idx in 0usize..10,
        threads in prop_oneof![Just(0usize), 2usize..9, Just(33usize)],
        seed in any::<[u8; 8]>(),
    ) {
        let t = t_raw.min((n - 1) / 3);
        let catalogue = StrategySpec::catalogue();
        let spec = &catalogue[spec_idx % catalogue.len()];
        let (seq_out, seq_tr, seq_rep) = run_once(n, t, spec, &seed, 1);
        let (par_out, par_tr, par_rep) = run_once(n, t, spec, &seed, threads);
        let first_diff = seq_tr
            .iter()
            .zip(par_tr.iter())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| seq_tr.len().min(par_tr.len()));
        prop_assert!(
            seq_tr == par_tr,
            "n={} t={} spec={} threads={}: transcript diverges at round {}",
            n, t, spec.label(), threads, first_diff
        );
        prop_assert_eq!(seq_out, par_out);
        prop_assert_eq!(seq_rep, par_rep);
    }
}
