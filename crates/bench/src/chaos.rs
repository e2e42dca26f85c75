//! The chaos sweep engine: drives `π_ba` through a matrix of
//! fault-injection strategies × corruption placements × network sizes and
//! classifies every outcome.
//!
//! The invariants checked per case:
//!
//! * **no honest-side panic** — any panic escaping the protocol is a
//!   [`ChaosVerdict::Violation`];
//! * **agreement + validity on completion** — a run that completes with
//!   honest parties disagreeing (or violating unanimous-input validity)
//!   is a violation;
//! * **graceful degradation** — runs past the design fault bound (or
//!   jammed by the adversary) must end as structured
//!   [`RunOutcome::Failed`] values, classified here as
//!   [`ChaosVerdict::Degraded`].
//!
//! The matrix covers content faults (equivocation, garbling, floods, …)
//! and timing faults (seeded per-link latency, healing and permanent
//! partitions, crash-recovery churn). The pinned expectations: every
//! latency-only row and every partition-that-heals row agrees; permanent
//! partitions and churn past the catch-up window degrade gracefully; no
//! timing row ever violates safety.
//!
//! Every case carries its exact seed and configuration;
//! [`ChaosCase::repro`] prints a one-line recipe that reproduces the run
//! bit-for-bit.

use pba_aetree::params::TreeParams;
use pba_aetree::tree::Tree;
use pba_core::protocol::{
    try_run_ba, AdversaryProfile, BaConfig, Establishment, KeyPolicy, ProtocolError, ProtocolPhase,
    RunOutcome,
};
use pba_net::corruption::{max_corruptions, CorruptionPlan};
use pba_net::faults::{GarbleMode, LatencyDist, StrategySpec};
use pba_srds::snark::SnarkSrds;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One cell of the sweep matrix.
#[derive(Clone, Debug)]
pub struct ChaosCase {
    /// Number of parties.
    pub n: usize,
    /// How the communication tree is established.
    pub establishment: Establishment,
    /// Corruption placement.
    pub plan: CorruptionPlan,
    /// Fault-injection strategy.
    pub spec: StrategySpec,
    /// Execution seed (drives the whole run, adversary included).
    pub seed: Vec<u8>,
}

impl ChaosCase {
    /// A single line that fully reproduces this case.
    pub fn repro(&self) -> String {
        let seed_hex: String = self.seed.iter().map(|b| format!("{b:02x}")).collect();
        format!(
            "CHAOS-REPRO n={} est={} plan={} spec={} seed=0x{} spec_debug={:?} plan_debug={:?}",
            self.n,
            self.establishment.label(),
            self.plan.label(),
            self.spec.label(),
            seed_hex,
            self.spec,
            self.plan,
        )
    }

    /// True when this case stays strictly below the `n/3` design bound
    /// (so the protocol is *required* to complete with agreement).
    pub fn honest_majority(&self) -> bool {
        3 * self.plan.budget() < self.n
    }

    /// The `n plan strategy` key used by the golden outcome table.
    pub fn key(&self) -> String {
        format!(
            "{} {} {} {}",
            self.n,
            self.establishment.label(),
            self.plan.label(),
            self.spec.label()
        )
    }
}

/// Classification of one chaos run.
#[derive(Clone, Debug)]
pub enum ChaosVerdict {
    /// The protocol completed with agreement and validity intact.
    Agreed {
        /// The common honest output.
        output: Option<u8>,
        /// Max per-honest-party bytes (flood-resistance signal).
        max_bytes_per_party: u64,
    },
    /// The protocol stopped with a structured failure — the graceful
    /// path for runs past the fault bound or jammed sub-protocols.
    Degraded {
        /// The phase that failed.
        phase: ProtocolPhase,
        /// The structured reason.
        reason: ProtocolError,
    },
    /// An invariant was broken: honest-side panic, disagreement, or a
    /// validity violation. `detail` explains which; the case's
    /// [`ChaosCase::repro`] line reproduces it.
    Violation {
        /// What went wrong.
        detail: String,
    },
}

impl ChaosVerdict {
    /// True for [`ChaosVerdict::Violation`].
    pub fn is_violation(&self) -> bool {
        matches!(self, ChaosVerdict::Violation { .. })
    }

    /// Short label for tables.
    pub fn label(&self) -> String {
        match self {
            ChaosVerdict::Agreed { output, .. } => format!("agreed({output:?})"),
            ChaosVerdict::Degraded { phase, .. } => format!("degraded({phase})"),
            ChaosVerdict::Violation { .. } => "VIOLATION".into(),
        }
    }
}

/// A case together with its verdict.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// The executed case.
    pub case: ChaosCase,
    /// Its classification.
    pub verdict: ChaosVerdict,
}

fn panic_detail(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Runs one case with the SNARK-based SRDS (the cheaper scheme) on
/// unanimous input `1` and classifies the outcome.
pub fn run_case(case: &ChaosCase) -> ChaosVerdict {
    let config = BaConfig {
        n: case.n,
        z: 2,
        corruption: case.plan.clone(),
        profile: AdversaryProfile::Byzantine,
        seed: case.seed.clone(),
        establishment: case.establishment,
        chaos: Some(case.spec.clone()),
        threads: 1,
        key_policy: KeyPolicy::Eager,
        dense_shadow: false,
    };
    let inputs = vec![1u8; case.n];
    let scheme = SnarkSrds::with_defaults();
    let run = catch_unwind(AssertUnwindSafe(|| try_run_ba(&scheme, &config, &inputs)));
    match run {
        Err(payload) => ChaosVerdict::Violation {
            detail: format!("honest-side panic: {}", panic_detail(payload)),
        },
        Ok(RunOutcome::Failed { phase, reason }) => {
            if case.honest_majority() && matches!(reason, ProtocolError::CorruptionBound { .. }) {
                // An under-bound plan must never trip the bound check.
                ChaosVerdict::Violation {
                    detail: format!("spurious corruption-bound failure: {reason}"),
                }
            } else {
                ChaosVerdict::Degraded { phase, reason }
            }
        }
        Ok(RunOutcome::Completed(out)) => {
            if !out.agreement {
                ChaosVerdict::Violation {
                    detail: format!("honest disagreement: outputs {:?}", out.outputs),
                }
            } else if !out.validity {
                ChaosVerdict::Violation {
                    detail: format!("validity broken: output {:?} on unanimous 1", out.output),
                }
            } else {
                ChaosVerdict::Agreed {
                    output: out.output,
                    max_bytes_per_party: out.report.max_bytes_per_party,
                }
            }
        }
    }
}

/// The committee-takeover corruption plan for the tree this case's seed
/// will build: corrupt (up to the fault bound) the distinct members of
/// leaf 0's committee.
pub fn takeover_plan(n: usize, seed: &[u8]) -> CorruptionPlan {
    let params = TreeParams::scaled(n, 2);
    // Mirror Service::try_establish's tree derivation exactly.
    let mut tree_seed = seed.to_vec();
    tree_seed.extend_from_slice(b"/ae-tree");
    let tree = Tree::build(&params, &tree_seed);
    tree.leaf_takeover(0, (n - 1) / 3)
}

fn case_seed(
    base: &[u8],
    n: usize,
    establishment: Establishment,
    plan: &CorruptionPlan,
    spec: &StrategySpec,
) -> Vec<u8> {
    let mut seed = base.to_vec();
    seed.extend_from_slice(format!("/{n}").as_bytes());
    // The charged column predates the establishment axis; its seeds keep
    // the legacy shape so the golden table stays comparable run-over-run.
    if establishment == Establishment::Interactive {
        seed.extend_from_slice(b"/interactive");
    }
    seed.extend_from_slice(format!("/{}/{}", plan.label(), spec.label()).as_bytes());
    seed
}

/// The default sweep matrix: ≥ 30 strategy × placement × establishment ×
/// size combos, including structured placements (suffix/stride), a
/// committee takeover of an a.e.-tree leaf, the [`Adaptive`] post-setup
/// adversary, interactive establishment, and over-bound plans that must
/// degrade gracefully.
///
/// [`Adaptive`]: CorruptionPlan::Adaptive
pub fn default_cases(base_seed: &[u8]) -> Vec<ChaosCase> {
    let mut cases = Vec::new();

    // Full strategy catalogue at n = 48 against a light random placement
    // (agreement expected despite active faults) and the leaf-committee
    // takeover (an aggressive placement that may stall — gracefully).
    let n = 48;
    let est = Establishment::Charged;
    let t = max_corruptions(n, 0.10).max(1);
    for spec in StrategySpec::catalogue() {
        for plan in [
            CorruptionPlan::Random { t },
            takeover_plan(
                n,
                &case_seed(base_seed, n, est, &CorruptionPlan::None, &spec),
            ),
        ] {
            let seed = case_seed(base_seed, n, est, &plan, &spec);
            cases.push(ChaosCase {
                n,
                establishment: est,
                plan,
                spec: spec.clone(),
                seed,
            });
        }
    }

    // A lighter cross at n = 64 stressing the structured placements.
    let n = 64;
    let t = max_corruptions(n, 0.25).max(1);
    for spec in [
        StrategySpec::Equivocate,
        StrategySpec::Garble(GarbleMode::Both),
        StrategySpec::Flood {
            victim: None,
            payload_len: 512,
            per_round: 8,
        },
        StrategySpec::Compose(vec![
            StrategySpec::Equivocate,
            StrategySpec::Replay { per_round: 2 },
        ]),
    ] {
        for plan in [
            CorruptionPlan::Suffix { t },
            CorruptionPlan::Stride {
                t,
                step: 3,
                offset: 1,
            },
        ] {
            let seed = case_seed(base_seed, n, est, &plan, &spec);
            cases.push(ChaosCase {
                n,
                establishment: est,
                plan,
                spec: spec.clone(),
                seed,
            });
        }
    }

    // Interactive-establishment column at n = 48: the tournament election
    // runs with real metered messages, then the same chaos strategies hit
    // the committee sub-protocols. Crossed with every placement family —
    // random, structured, and adaptive — so no strategy axis exists only
    // under charged establishment.
    let n = 48;
    let est = Establishment::Interactive;
    let t = max_corruptions(n, 0.10).max(1);
    for spec in [
        StrategySpec::Silent,
        StrategySpec::Equivocate,
        StrategySpec::Garble(GarbleMode::Both),
    ] {
        for plan in [
            CorruptionPlan::Random { t },
            CorruptionPlan::Suffix { t },
            CorruptionPlan::Stride {
                t,
                step: 3,
                offset: 1,
            },
            CorruptionPlan::Adaptive { t: 8 },
        ] {
            let seed = case_seed(base_seed, n, est, &plan, &spec);
            cases.push(ChaosCase {
                n,
                establishment: est,
                plan,
                spec: spec.clone(),
                seed,
            });
        }
    }

    // Adaptive post-setup adversary under charged establishment. Budget 8
    // affords a majority of the cheapest leaf committee; budget 15 buys
    // the most load-bearing internal node yet stays under the n/3 bound —
    // both must stay safe (agree or degrade, never violate).
    let est = Establishment::Charged;
    for (spec, t) in [
        (StrategySpec::Silent, 8),
        (StrategySpec::Equivocate, 8),
        (StrategySpec::Garble(GarbleMode::Both), 8),
        (StrategySpec::Equivocate, 15),
    ] {
        let plan = CorruptionPlan::Adaptive { t };
        let seed = case_seed(base_seed, n, est, &plan, &spec);
        cases.push(ChaosCase {
            n,
            establishment: est,
            plan,
            spec,
            seed,
        });
    }

    // Over-bound plans: the protocol must fail gracefully, never panic.
    // The adaptive plan at t = n/3 is rejected before it ever ranks a
    // target — the bound check cannot depend on placement cleverness.
    let n = 48;
    for (spec, plan) in [
        (StrategySpec::Silent, CorruptionPlan::Random { t: n / 3 }),
        (
            StrategySpec::Equivocate,
            CorruptionPlan::Random { t: n / 3 },
        ),
        (StrategySpec::Silent, CorruptionPlan::Adaptive { t: n / 3 }),
    ] {
        let seed = case_seed(base_seed, n, est, &plan, &spec);
        cases.push(ChaosCase {
            n,
            establishment: est,
            plan,
            spec,
            seed,
        });
    }

    // Timing faults beyond the catalogue sweep above (which already runs
    // every timing strategy against the random and takeover placements):
    // a fixed-lag link model, a partition that never heals (must degrade,
    // never violate), churn that rejoins too late to catch up, churn that
    // keeps a supermajority-threatening slice of honest parties dark for
    // the whole run, and latency composed with content equivocation.
    let t = max_corruptions(n, 0.10).max(1);
    for spec in [
        StrategySpec::Delay {
            dist: LatencyDist::Fixed { delay: 1 },
            budget: 2,
        },
        StrategySpec::Partition {
            split: 24,
            heal_at: None,
        },
        StrategySpec::Churn {
            count: 4,
            down: 6,
            up: 18,
        },
        StrategySpec::Churn {
            count: 20,
            down: 0,
            up: 4096,
        },
        StrategySpec::Compose(vec![
            StrategySpec::Delay {
                dist: LatencyDist::Uniform { max: 1 },
                budget: 2,
            },
            StrategySpec::Equivocate,
        ]),
    ] {
        let plan = CorruptionPlan::Random { t };
        let seed = case_seed(base_seed, n, est, &plan, &spec);
        cases.push(ChaosCase {
            n,
            establishment: est,
            plan,
            spec,
            seed,
        });
    }

    // Timing under interactive establishment: the delay queue installs
    // after the metered election, and the lazy tick base keeps the link
    // schedule identical to the charged column.
    let spec = StrategySpec::Delay {
        dist: LatencyDist::Uniform { max: 1 },
        budget: 2,
    };
    let plan = CorruptionPlan::Random { t };
    let seed = case_seed(base_seed, n, Establishment::Interactive, &plan, &spec);
    cases.push(ChaosCase {
        n,
        establishment: Establishment::Interactive,
        plan,
        spec,
        seed,
    });

    cases
}

/// One mid-stream arming case: a `k`-instance sequential stream over a
/// single establishment that runs clean until instance `arm_at`, at which
/// point `spec` is armed via [`Service::set_chaos`] — the adversary shows
/// up *between* decisions of a long-lived service. Earlier instances have
/// already settled; their verdicts must be unaffected.
///
/// [`Service::set_chaos`]: pba_core::protocol::Service::set_chaos
#[derive(Clone, Debug)]
pub struct StreamChaosCase {
    /// Number of parties.
    pub n: usize,
    /// Instances in the stream.
    pub k: usize,
    /// Instance index the spec is armed before (0-based).
    pub arm_at: usize,
    /// The strategy armed mid-stream.
    pub spec: StrategySpec,
    /// Execution seed.
    pub seed: Vec<u8>,
}

impl StreamChaosCase {
    /// The `n stream-k arm@i strategy` key used by the golden table.
    pub fn key(&self) -> String {
        format!(
            "{} stream-{} arm@{} {}",
            self.n,
            self.k,
            self.arm_at,
            self.spec.label()
        )
    }
}

/// A stream case with its per-instance verdict labels, joined by `;` in
/// instance order.
#[derive(Clone, Debug)]
pub struct StreamChaosReport {
    /// The executed case.
    pub case: StreamChaosCase,
    /// One verdict label per instance, `;`-joined.
    pub verdicts: String,
}

/// The default mid-stream arming cases: content-fault strategies only
/// (timing axes are establishment-scoped and cannot be re-armed on a
/// running service), each arming at instance 2 of a 4-instance stream.
pub fn default_stream_cases(base_seed: &[u8]) -> Vec<StreamChaosCase> {
    let specs = [
        StrategySpec::Equivocate,
        StrategySpec::Garble(GarbleMode::Both),
        StrategySpec::Replay { per_round: 3 },
        StrategySpec::Flood {
            victim: None,
            payload_len: 512,
            per_round: 8,
        },
    ];
    specs
        .into_iter()
        .map(|spec| {
            let mut seed = base_seed.to_vec();
            seed.extend_from_slice(format!("/stream/{}", spec.label()).as_bytes());
            StreamChaosCase {
                n: 48,
                k: 4,
                arm_at: 2,
                spec,
                seed,
            }
        })
        .collect()
}

/// Runs one mid-stream arming case: establishes a [`Service`] with no
/// chaos, streams instances sequentially, and swaps the strategy in via
/// [`Service::set_chaos`] immediately before instance `arm_at`.
///
/// [`Service`]: pba_core::protocol::Service
/// [`Service::set_chaos`]: pba_core::protocol::Service::set_chaos
pub fn run_stream_case(case: &StreamChaosCase) -> StreamChaosReport {
    use pba_core::protocol::{Service, StreamMode};
    use pba_srds::snark::SnarkSrdsConfig;

    let config = BaConfig {
        n: case.n,
        z: 2,
        corruption: CorruptionPlan::Random { t: case.n / 8 },
        profile: AdversaryProfile::Byzantine,
        seed: case.seed.clone(),
        establishment: Establishment::Charged,
        chaos: None,
        threads: 1,
        key_policy: KeyPolicy::Eager,
        dense_shadow: false,
    };
    let mss_height = usize::max(1, case.k.next_power_of_two().trailing_zeros() as usize);
    let scheme = SnarkSrds::new(SnarkSrdsConfig {
        mss_bits: 32,
        mss_height,
    });
    let inputs = vec![vec![1u8]; case.n];
    let run = catch_unwind(AssertUnwindSafe(|| {
        let mut service = match Service::try_establish(&scheme, &config) {
            Ok(s) => s,
            Err(reason) => return vec![format!("establishment-failed({reason})")],
        };
        let mut labels = Vec::with_capacity(case.k);
        for i in 0..case.k {
            if i == case.arm_at {
                service.set_chaos(Some(case.spec.clone()));
            }
            let out = service.try_run_stream(std::slice::from_ref(&inputs), StreamMode::Sequential);
            let inst = out.instances.into_iter().next().expect("one instance ran");
            labels.push(match inst.result {
                Ok(mv) if mv.agreement && mv.validity => {
                    format!("agreed({:?})", mv.value.first().copied())
                }
                Ok(mv) => format!(
                    "VIOLATION(agreement={}, validity={})",
                    mv.agreement, mv.validity
                ),
                Err(reason) => format!("degraded({})", reason.phase()),
            });
        }
        labels
    }));
    let verdicts = match run {
        Ok(labels) => labels.join(";"),
        Err(payload) => format!("VIOLATION(panic: {})", panic_detail(payload)),
    };
    StreamChaosReport {
        case: case.clone(),
        verdicts,
    }
}

/// Runs every case and returns the reports, in order.
pub fn run_sweep(cases: &[ChaosCase]) -> Vec<ChaosReport> {
    cases
        .iter()
        .map(|case| ChaosReport {
            case: case.clone(),
            verdict: run_case(case),
        })
        .collect()
}

/// Renders the sweep as an aligned text table with repro lines for every
/// violation.
pub fn render_sweep(reports: &[ChaosReport]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>4}  {:<11}  {:<16}  {:<34}  {}\n",
        "n", "est", "plan", "strategy", "verdict"
    ));
    for r in reports {
        out.push_str(&format!(
            "{:>4}  {:<11}  {:<16}  {:<34}  {}\n",
            r.case.n,
            r.case.establishment.label(),
            r.case.plan.label(),
            r.case.spec.label(),
            r.verdict.label()
        ));
        if let ChaosVerdict::Violation { detail } = &r.verdict {
            out.push_str(&format!("      !! {detail}\n      !! {}\n", r.case.repro()));
        }
    }
    let violations = reports.iter().filter(|r| r.verdict.is_violation()).count();
    let degraded = reports
        .iter()
        .filter(|r| matches!(r.verdict, ChaosVerdict::Degraded { .. }))
        .count();
    out.push_str(&format!(
        "{} cases: {} agreed, {} degraded gracefully, {} violations\n",
        reports.len(),
        reports.len() - violations - degraded,
        degraded,
        violations
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_required_combos() {
        let cases = default_cases(b"chaos-unit");
        assert!(cases.len() >= 30, "only {} combos", cases.len());
        // Strategy diversity.
        let specs: std::collections::BTreeSet<String> =
            cases.iter().map(|c| c.spec.label()).collect();
        assert!(specs.len() >= 8, "only {} distinct strategies", specs.len());
        // Placement diversity, including a takeover (explicit) plan and
        // the adaptive post-setup plan.
        let plans: std::collections::BTreeSet<String> =
            cases.iter().map(|c| c.plan.label()).collect();
        assert!(plans.len() >= 5, "only {} distinct plans", plans.len());
        assert!(cases
            .iter()
            .any(|c| matches!(c.plan, CorruptionPlan::Explicit(_))));
        assert!(cases
            .iter()
            .any(|c| matches!(c.plan, CorruptionPlan::Adaptive { .. })));
        // Both establishment modes, and adaptive under both of them.
        for est in [Establishment::Charged, Establishment::Interactive] {
            assert!(
                cases
                    .iter()
                    .any(|c| c.establishment == est
                        && matches!(c.plan, CorruptionPlan::Adaptive { .. })),
                "no adaptive case under {}",
                est.label()
            );
        }
        // Size diversity and over-bound coverage (three over-bound cases,
        // one of them adaptive).
        let sizes: std::collections::BTreeSet<usize> = cases.iter().map(|c| c.n).collect();
        assert!(sizes.len() >= 2);
        let over: Vec<_> = cases.iter().filter(|c| !c.honest_majority()).collect();
        assert_eq!(over.len(), 3, "expected exactly three over-bound cases");
        assert!(over
            .iter()
            .any(|c| matches!(c.plan, CorruptionPlan::Adaptive { .. })));
        // Timing coverage: ≥ 10 timing rows spanning latency, healing and
        // permanent partitions, churn, a timing × content composition, and
        // at least one timing row under interactive establishment.
        let timing: Vec<_> = cases
            .iter()
            .filter(|c| {
                let l = c.spec.label();
                l.contains("delay") || l.contains("partition") || l.contains("churn")
            })
            .collect();
        assert!(timing.len() >= 10, "only {} timing rows", timing.len());
        assert!(timing.iter().any(|c| c.spec.label().contains("heal")));
        assert!(timing.iter().any(|c| c.spec.label().contains("forever")));
        assert!(timing.iter().any(|c| c.spec.label().starts_with("churn")));
        assert!(timing
            .iter()
            .any(|c| c.spec.label().contains("compose") && c.spec.label().contains("delay")));
        assert!(timing
            .iter()
            .any(|c| c.establishment == Establishment::Interactive));
    }

    #[test]
    fn takeover_plan_is_under_bound_and_deterministic() {
        let p1 = takeover_plan(48, b"s");
        let p2 = takeover_plan(48, b"s");
        assert_eq!(p1, p2);
        let CorruptionPlan::Explicit(set) = &p1 else {
            panic!("takeover must be explicit")
        };
        assert!(!set.is_empty());
        assert!(3 * set.len() < 48);
    }

    #[test]
    fn over_bound_case_degrades() {
        for plan in [
            CorruptionPlan::Random { t: 16 },
            CorruptionPlan::Adaptive { t: 16 },
        ] {
            let case = ChaosCase {
                n: 48,
                establishment: Establishment::Charged,
                plan,
                spec: StrategySpec::Silent,
                seed: b"chaos-over".to_vec(),
            };
            match run_case(&case) {
                ChaosVerdict::Degraded { phase, .. } => {
                    assert_eq!(phase, ProtocolPhase::Establishment)
                }
                other => panic!("expected graceful degradation, got {other:?}"),
            }
        }
    }

    #[test]
    fn repro_line_is_complete() {
        let case = ChaosCase {
            n: 48,
            establishment: Establishment::Interactive,
            plan: CorruptionPlan::Suffix { t: 4 },
            spec: StrategySpec::Garble(GarbleMode::Truncate),
            seed: vec![0xab, 0xcd],
        };
        let line = case.repro();
        assert!(line.contains("n=48"));
        assert!(line.contains("est=interactive"));
        assert!(line.contains("suffix-4"));
        assert!(line.contains("garble-truncate"));
        assert!(line.contains("seed=0xabcd"));
    }
}
