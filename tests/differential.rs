//! The equivalences the reproduction rests on, each one variant axis of
//! the differential oracle (`support/differential.rs`): named rows pin
//! the chaos catalogue's threads variants and the key policies, one
//! property samples the product of every context axis with every variant
//! axis, every cell of it reachable (Pipelined × timing included). The
//! fleet rows live in `transport_differential.rs`, the
//! stream-mode and entry-point rows in `service_stream.rs`, the chaos
//! catalogue's dense-shadow row in `proptest_metrics_sparse.rs`.

#[path = "support/differential.rs"]
mod differential;

use differential::*;
use pba_bench::chaos::{default_cases, ChaosCase};
use pba_core::protocol::{Establishment, KeyError, KeyPolicy, ProtocolError, StreamMode};
use pba_net::corruption::CorruptionPlan;
use pba_net::faults::StrategySpec;
use proptest::{ProptestConfig, TestRng};

/// One reference run per chaos case serves 0, 2, 4, 7 and 64 workers on
/// every charged n = 48 case (the whole strategy catalogue × {random,
/// leaf-committee takeover}, timing rows included: delays are a pure
/// function of `(seed, link, tick)`). `threads = 0` aliases the sequential
/// engine; `64 > n` caps at one machine per worker. Four chunks, run in
/// parallel. The dense-shadow variant of the whole catalogue is
/// `proptest_metrics_sparse::chaos_catalogue_runs_without_sparse_dense_divergence`.
fn chaos_rows(chunk: usize) {
    let cases = default_cases(b"chaos-ci");
    let charged_48 = |c: &&ChaosCase| c.n == 48 && c.establishment == Establishment::Charged;
    let cases: Vec<_> = cases
        .iter()
        .filter(charged_48)
        .skip(chunk)
        .step_by(4)
        .collect();
    let mut established = 0;
    for case in &cases {
        let ctx = Context::chaos(case);
        let reference = reference(&ctx);
        if reference.steps.is_some() {
            established += 1;
            assert!(
                !reference.transcript.is_empty(),
                "[{}] no rounds",
                case.key()
            );
        }
        for threads in [0, 2, 4, 7, 64] {
            let variant = Variant::REFERENCE.with(|v| v.threads = threads);
            if let Err(d) = matches(&reference, &ctx, variant) {
                panic!("case [{}]: {d}\n{}", case.key(), case.repro());
            }
        }
    }
    assert!(
        established >= 10,
        "{established} of {} established",
        cases.len()
    );
}

macro_rules! chaos_chunks {
    ($($name:ident: $chunk:literal),*) => {$(
        #[test]
        fn $name() {
            chaos_rows($chunk);
        }
    )*};
}

chaos_chunks!(chaos_chunk_0: 0, chaos_chunk_1: 1, chaos_chunk_2: 2, chaos_chunk_3: 3);

/// Eager against Lazy keys, under both establishments and Byzantine
/// corruption: `k` instances in `mode`. Returns the last Eager run.
fn key_policy(scheme: Scheme, n: usize, k: usize, mode: StreamMode) -> Observed {
    let mut ctx = Context::byzantine(n, b"lazy-keygen-equivalence");
    (ctx.scheme, ctx.instances) = (scheme, ones(n, k));
    let eager = Variant::REFERENCE.with(|v| v.entry = Entry::Stream(mode));
    let mut last = Observed::default();
    for establishment in [Establishment::Charged, Establishment::Interactive] {
        ctx.config.establishment = establishment;
        last = observe(&ctx, eager).remove(0);
        assert!(!last.transcript.is_empty(), "{scheme:?} n={n}: no rounds");
        if let Err(d) = matches(&last, &ctx, eager.with(|v| v.keys = KeyPolicy::Lazy)) {
            panic!("{scheme:?} n={n} {establishment:?} {mode:?}: {d}");
        }
    }
    last
}

#[test]
fn key_policy_snark() {
    key_policy(Scheme::Snark(1), 64, 1, StreamMode::Sequential);
    key_policy(Scheme::Snark(1), 256, 1, StreamMode::Sequential);
}

/// The scheme with no residue (Lazy signs through the trait's default:
/// regenerate the key) and the other MSS-backed one.
#[test]
fn key_policy_owf_and_multisig() {
    key_policy(Scheme::Owf, 64, 1, StreamMode::Sequential);
    key_policy(Scheme::Multisig(1), 64, 1, StreamMode::Sequential);
}

/// Instance `i` spends one-time index `i`: five instances over a height-2
/// key cross the lazy signer at indices 0–3, and the fifth asks for an
/// index the key does not have — refused alike.
#[test]
fn key_policy_streamed_epochs_overdraw_alike() {
    for mode in [StreamMode::Sequential, StreamMode::Pipelined] {
        let run = key_policy(Scheme::Snark(2), 64, 5, mode);
        assert_eq!(run.decisions, Some(4), "{mode:?}");
        let delivered = |r: &Verdict| matches!(r, Verdict::Delivered(..));
        assert!(
            run.results[..4].iter().all(delivered),
            "{mode:?}: {:?}",
            run.results
        );
        let error = KeyError::BudgetExhausted {
            instance: 4,
            capacity: 4,
        };
        let refused = Verdict::Failed(ProtocolError::KeyBudget { error });
        assert_eq!(run.results[4..], [refused], "{mode:?}");
    }
}

/// The catalogue's faulty strategies with a timing axis (`timing`), or
/// with content-side faults and none.
fn faults(timing: bool) -> Vec<StrategySpec> {
    let mut probe = Context::byzantine(16, b"");
    let mut keep = |s: &StrategySpec| {
        probe.config.chaos = Some(s.clone());
        *s != StrategySpec::Silent && probe.has_timing() == timing
    };
    StrategySpec::catalogue()
        .into_iter()
        .filter(|s| keep(s))
        .collect()
}

/// One cell of the product as indices into the axis lists (the vendored
/// proptest has no `select`). Case 0 pins Lazy keys × the adaptive
/// adversary, case 1 a pipelined stream × more than one worker × a
/// content fault, case 2 a timing fault × a socket fleet, case 3 a
/// pipelined stream of 2–3 instances × a timing fault: the combinations
/// no suite had run. A single shot runs one instance with no service to
/// shadow; bare rounds and single shots take bits.
fn draw(rng: &mut TestRng, case: usize) -> (Context, Variant) {
    let mut pick = |len: usize| rng.below(len as u64) as usize;
    let n = [16, 32, 48, 64][pick(4)];
    let t = n / 8;
    let plans = [
        CorruptionPlan::None,
        CorruptionPlan::Random { t },
        CorruptionPlan::Suffix { t },
        CorruptionPlan::Stride {
            t,
            step: 3,
            offset: 1,
        },
        CorruptionPlan::Adaptive { t },
    ];
    let (specs, content, timing) = (StrategySpec::catalogue(), faults(false), faults(true));
    let (sequential, pipelined) = (StreamMode::Sequential, StreamMode::Pipelined);
    let entries = [
        Entry::Round,
        Entry::Stream(sequential),
        Entry::Stream(pipelined),
        Entry::Single,
    ];
    let threads = [0, 1, 2, 4, 7, 64];
    let fleet = Backend::Fleet {
        endpoints: 2,
        tick_base: 0,
    };

    let mut ctx = Context::byzantine(n, b"differential-product");
    ctx.scheme = [Scheme::Snark(2), Scheme::Owf, Scheme::Multisig(2)][pick(3)];
    ctx.config.establishment = [Establishment::Charged, Establishment::Interactive][pick(2)];
    ctx.config.corruption = plans[pick(plans.len())].clone();
    ctx.config.chaos = pick(specs.len() + 1)
        .checked_sub(1)
        .map(|i| specs[i].clone());
    let (mut k, width, mixed) = (1 + pick(3), [1, 3][pick(2)], pick(2) == 1);
    let mut variant = Variant {
        threads: threads[pick(threads.len())],
        keys: [KeyPolicy::Eager, KeyPolicy::Lazy][pick(2)],
        entry: entries[pick(entries.len())],
        shadow: pick(2) == 1,
        backend: [Backend::Sim, fleet][pick(2)],
    };
    if case == 0 {
        variant.keys = KeyPolicy::Lazy;
        ctx.config.corruption = CorruptionPlan::Adaptive { t };
    } else if case == 1 {
        (variant.entry, variant.threads) = (Entry::Stream(pipelined), threads[2 + pick(4)]);
        (ctx.config.chaos, k) = (Some(content[pick(content.len())].clone()), 2 + pick(2));
    } else if case == 2 {
        (ctx.config.chaos, variant.backend) = (Some(timing[pick(timing.len())].clone()), fleet);
    } else if case == 3 {
        variant.entry = Entry::Stream(pipelined);
        (ctx.config.chaos, k) = (Some(timing[pick(timing.len())].clone()), 2 + pick(2));
    }
    if variant.entry == Entry::Single {
        (k, variant.shadow) = (1, false);
    }
    let width = if matches!(variant.entry, Entry::Stream(_)) {
        width
    } else {
        1
    };
    let input = |p: usize| vec![if mixed { (p % 2) as u8 } else { 1 }; width];
    ctx.instances = vec![(0..n).map(input).collect(); k];
    ctx.config
        .seed
        .extend_from_slice(&rng.next_u64().to_le_bytes());
    (ctx, variant)
}

/// Every variant is invisible on every context: a drawn context's
/// reference run against a drawn variant, on every endpoint. 24 cases
/// keep the debug build's run near a minute; CI's differential step runs
/// 256 (`PROPTEST_CASES`).
#[test]
fn variant_product_is_invisible() {
    let mut case = 0;
    let (mut lazy_adaptive, mut pipelined_faults, mut timing_fleet) = (0, 0, 0);
    // Pipelined × timing draws that ran, in process and over sockets.
    let mut pipelined_timing = [0, 0];
    let content = faults(false);
    proptest::run_cases(ProptestConfig::with_cases(24), "variant_product", |rng| {
        let (ctx, variant) = draw(rng, case);
        case += 1;
        let repro = format!("{ctx:?} {variant:?}");
        let reference = reference(&ctx);
        if let Err(d) = matches(&reference, &ctx, variant) {
            panic!("{d}\n{repro}");
        }
        let ran = reference.steps.is_some();
        let adaptive = matches!(ctx.config.corruption, CorruptionPlan::Adaptive { .. });
        lazy_adaptive += usize::from(ran && adaptive && variant.keys == KeyPolicy::Lazy);
        let fault = ctx
            .config
            .chaos
            .as_ref()
            .is_some_and(|s| content.contains(s));
        let pipelined = variant.entry == Entry::Stream(StreamMode::Pipelined);
        let many = variant.threads > 1 && ctx.instances.len() > 1;
        pipelined_faults += usize::from(ran && fault && pipelined && many);
        let fleet = variant.backend != Backend::Sim;
        let timing = ran && ctx.has_timing();
        timing_fleet += usize::from(timing && fleet);
        pipelined_timing[usize::from(fleet)] += usize::from(timing && pipelined);
        repro
    });
    let [sim, sockets] = pipelined_timing;
    eprintln!(
        "{case} cases; Lazy × Adaptive ran {lazy_adaptive}, Pipelined × threads > 1 × content \
         fault ran {pipelined_faults}, timing × transport ran {timing_fleet}, Pipelined × timing \
         ran {sim} in process and {sockets} over sockets"
    );
    let pinned = [lazy_adaptive, pipelined_faults, timing_fleet, sim + sockets];
    assert!(case < 4 || pinned.iter().all(|&ran| ran > 0), "{pinned:?}");
}

/// A real observation exposing every field: a two-instance stream with
/// the shadow armed.
fn full() -> Observed {
    let mut ctx = Context::byzantine(16, b"fields");
    ctx.instances = ones(16, 2);
    observe(&ctx, Variant::REFERENCE.with(|v| v.shadow = true)).remove(0)
}

/// The oracle can fail, and says where: observations differing in
/// exactly one field are told apart by that field's name (and the
/// instance, batch or step label).
#[test]
fn differential_names_the_differing_field() {
    let a = full();
    assert_eq!(differential(&a, &a), Ok(()));
    type Mutation = fn(&mut Observed);
    let mutations: [(&str, Mutation); 13] = [
        ("results instance 1", |o| {
            o.results[1] = Verdict::Panicked("injected".into())
        }),
        ("transcript batch 0", |o| o.transcript.swap(0, 1)),
        ("steps() step 2", |o| {
            o.steps.as_mut().unwrap()[2].total_bytes += 1
        }),
        ("InstanceReport instance 1", |o| {
            o.instances.as_mut().unwrap()[1].total_bytes += 1
        }),
        ("Service::report()", |o| {
            o.report.as_mut().unwrap().max_locality += 1
        }),
        ("net.report()", |o| {
            o.net_report.as_mut().unwrap().total_msgs += 1
        }),
        ("breakdown()", |o| {
            o.breakdown.as_mut().unwrap().sent.clear()
        }),
        ("decisions", |o| o.decisions = Some(0)),
        ("rounds", |o| o.rounds.as_mut().unwrap().0 += 1),
        ("tags_conserve_totals()", |o| o.tags_conserve = Some(false)),
        ("allocated_cells()", |o| o.cells = Some(0)),
        ("peer_groups()", |o| o.peer_groups = Some(0)),
        ("dense shadow", |o| o.shadow = Some(Some("party 3".into()))),
    ];
    for (field, mutate) in mutations {
        let mut b = a.clone();
        mutate(&mut b);
        let message = differential(&a, &b).expect_err(field);
        assert!(message.starts_with(field), "{field}: {message}");
        assert!(
            !field.starts_with("steps") || message.contains("3:disseminate"),
            "{message}"
        );
    }
}

/// Across pipelining the rounds fields are left out and the pipelining
/// law checked in their place.
#[test]
fn differential_checks_the_pipelining_law() {
    let sequential = full();
    let mut pipelined = sequential.clone();
    let (total, _) = sequential.rounds.unwrap();
    (pipelined.pipelined, pipelined.rounds) = (true, Some((total - 5, 5)));
    for report in [&mut pipelined.report, &mut pipelined.net_report] {
        report.as_mut().unwrap().rounds -= 5;
    }
    let instance = &mut pipelined.instances.as_mut().unwrap()[0];
    (instance.rounds, instance.overlapped_rounds) = (instance.rounds - 5, 5);
    assert_eq!(differential(&sequential, &pipelined), Ok(()));
    pipelined.rounds = Some((total - 5, 4));
    let message = differential(&sequential, &pipelined).unwrap_err();
    assert!(message.starts_with("rounds"), "{message}");
}
