//! One workload in one process: the repetition loop, the metric
//! arithmetic, and the result line.

use crate::metrics::{Def, Metric, END_TO_END, PER_LAYER};
use crate::stats::{median, tail};
use crate::trace::{Counters, Tracer};
use crate::workloads::{run_rep, Rep, Spec, STEP_NAMES};
use crate::{json, kernels};
use std::time::Instant;

/// How one workload is run.
#[derive(Clone, Debug)]
pub struct Options {
    pub seed: String,
    /// Keep repeating until this much time has been measured (the
    /// workload's `min_reps` are made regardless).
    pub seconds: f64,
    pub trace: bool,
    /// Floor on each layer kernel's measuring time.
    pub kernel_seconds: f64,
}

/// Samples beyond the reported tail order statistic (choosing-metrics §1).
const TAIL_BEYOND: usize = 10;

#[derive(Debug)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// Every end-to-end metric (untraced) or every per-layer metric
    /// (traced), in table order.
    pub metrics: Vec<Metric>,
    /// The seed-determined counts, printed by both passes so they can be
    /// held equal: `max_bits_per_party`, `rounds_per_decision`, and the
    /// per-step bytes.
    pub counts: Vec<(&'static str, f64)>,
    pub tracer: Tracer,
}

pub fn run_workload(spec: &Spec, opts: &Options) -> Outcome {
    let mut tracer = Tracer::new(opts.trace);
    let clock = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        reps.push(run_rep(spec, &opts.seed, reps.len(), &mut tracer));
        // The traced pass makes exactly the counted repetitions and spends
        // the rest of its time in the layer kernels.
        let enough = opts.trace || clock.elapsed().as_secs_f64() >= opts.seconds;
        if reps.len() >= spec.min_reps && enough {
            break;
        }
    }
    let attempted: usize = reps.iter().map(|r| r.attempted).sum();
    let failed: usize = reps.iter().map(|r| r.failed).sum();
    let decisions = spec.decisions() as f64;
    // Medians over the fixed repetitions only, so they depend on nothing
    // but the seed.
    let per_rep = |f: &dyn Fn(&Rep) -> f64| -> f64 {
        let values: Vec<f64> = reps[..spec.min_reps].iter().map(f).collect();
        median(&values).expect("min_reps >= 1")
    };
    let mut counts = vec![
        (
            "max_bits_per_party",
            per_rep(&|r| r.max_bits as f64) / decisions,
        ),
        (
            "rounds_per_decision",
            per_rep(&|r| r.rounds as f64) / decisions,
        ),
    ];
    for (slot, (name, _)) in STEP_NAMES.iter().enumerate() {
        counts.push((*name, per_rep(&|r| r.bytes[slot] as f64) / decisions));
    }
    let counted = spec.min_reps as u64;

    let n_reps = reps.len() as u64;
    let decision_s: Vec<f64> = reps.iter().map(|r| r.decide_s / decisions).collect();
    let mut values: Vec<(&str, f64, u64)> = Vec::new();
    if !opts.trace {
        let setup_s: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
        let decide_total: f64 = reps.iter().map(|r| r.decide_s).sum();
        values.extend([
            ("decision_s", median(&decision_s).expect("reps"), n_reps),
            ("decisions_per_s", attempted as f64 / decide_total, n_reps),
            ("setup_s", median(&setup_s).expect("reps"), n_reps),
            (counts[0].0, counts[0].1, counted),
            (counts[1].0, counts[1].1, counted),
            ("peak_rss_mib", peak_rss_mib(), 1),
            (
                "decision_success_share",
                (attempted - failed) as f64 / attempted as f64,
                attempted as u64,
            ),
        ]);
    } else {
        let span_median = |name: &str| median(&tracer.durations(name)).unwrap_or(0.0);
        for (metric, span) in [
            ("core.establish_s", "establish"),
            ("core.fanin_s", "fanin"),
            ("core.committee_ba_s", "committee_ba"),
            ("core.coin_s", "coin"),
            ("core.certify_s", "certify"),
            ("core.stream_s", "stream"),
        ] {
            values.push((metric, span_median(span), n_reps));
        }
        // Σ step spans ÷ the untraced clock's decision time, per rep.
        let ratios: Vec<f64> = reps
            .iter()
            .enumerate()
            .map(|(r, rep)| {
                let steps: f64 = tracer
                    .spans()
                    .iter()
                    .filter(|s| {
                        s.rep == r
                            && matches!(
                                s.name,
                                "fanin" | "committee_ba" | "coin" | "certify" | "stream"
                            )
                    })
                    .map(|s| s.seconds())
                    .sum();
                steps / rep.decide_s
            })
            .collect();
        values.push((
            "core.span_sum_ratio",
            median(&ratios).expect("reps"),
            n_reps,
        ));
        let measured: f64 = reps.iter().map(|r| r.setup_s + r.decide_s).sum();
        values.push((
            "core.trace_overhead",
            tracer.bookkeeping_seconds() / measured,
            n_reps,
        ));
        // With ten or fewer samples no percentile has ten beyond it: the
        // maximum is reported instead (rank = sample count).
        let (rank, tail_s) =
            tail(&decision_s, TAIL_BEYOND).unwrap_or_else(|| tail(&decision_s, 0).expect("reps"));
        println!("core.decision_tail_s is rank {rank} of {n_reps} decision_s samples");
        values.push(("core.decision_tail_s", tail_s, n_reps));
        values.extend(counts[2..].iter().map(|(name, v)| (*name, *v, counted)));

        let sum = |f: &dyn Fn(&Rep) -> u64| -> f64 { reps.iter().map(f).sum::<u64>() as f64 };
        let ratio = |hits: f64, misses: f64| {
            if hits + misses == 0.0 {
                0.0
            } else {
                hits / (hits + misses)
            }
        };
        let mut hashed = Counters::default();
        for span in tracer.spans().iter().filter(|s| s.name == "rep") {
            hashed.add(&span.counters);
        }
        let digests = (hashed.lane_digests + hashed.scalar_digests) as f64;
        values.extend([
            (
                "core.stream.overlapped_rounds",
                per_rep(&|r| r.overlapped_rounds as f64),
                n_reps,
            ),
            (
                "srds.cert_cache.warm_hits",
                per_rep(&|r| r.cache_warm_hits as f64),
                n_reps,
            ),
            (
                "srds.cert_cache.hit_ratio",
                ratio(sum(&|r| r.cache_hits), sum(&|r| r.cache_misses)),
                n_reps,
            ),
            ("crypto.sha256.digests", digests / attempted as f64, n_reps),
            (
                "crypto.sha256.lane_occupancy",
                ratio(hashed.lane_digests as f64, hashed.scalar_digests as f64),
                n_reps,
            ),
            (
                "crypto.merkle.proof_cache_hit_ratio",
                ratio(hashed.proof_hits as f64, hashed.proof_misses as f64),
                n_reps,
            ),
            ("net.metrics.cells", per_rep(&|r| r.cells as f64), n_reps),
            (
                "core.failure_share",
                failed as f64 / attempted as f64,
                attempted as u64,
            ),
        ]);
        let kernels = kernels::run(spec, opts.kernel_seconds, &mut tracer);
        let cert_bytes = kernels.iter().find(|k| k.name == "srds.cert_bytes");
        println!(
            "certificate: {} bytes in the workload, {} in the scheme kernel",
            reps.last().expect("reps").certificate_len,
            cert_bytes.map_or(0.0, |k| k.value),
        );
        values.extend(kernels.iter().map(|k| (k.name, k.value, k.ops)));
    }

    let table: &[Def] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    assert_eq!(values.len(), table.len(), "a metric is missing or extra");
    let metrics = table
        .iter()
        .map(|def| {
            let (_, value, samples) = values
                .iter()
                .find(|(name, _, _)| *name == def.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", def.name));
            Metric {
                def,
                value: *value,
                samples: *samples,
            }
        })
        .collect();
    Outcome {
        attempted,
        failed,
        metrics,
        counts,
        tracer,
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// `{"name": value, ...}` of the seed-determined counts.
pub fn counts_line(counts: &[(&str, f64)]) -> String {
    let fields: Vec<String> = counts
        .iter()
        .map(|(name, value)| format!("{}:{}", json::string(name), json::number(*value)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::string(m.def.name),
                json::number(m.value),
                json::string(m.def.unit),
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(","),
    )
}
