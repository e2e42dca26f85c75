//! The metric tables: every name the benchmark prints, with its unit and
//! direction, and for end-to-end metrics the regression bound. The source
//! of truth for `BENCHMARK.json` (a unit test holds the two equal).

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference median by which the metric may worsen before
    /// it is a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    e2e(name, unit, better, 0.0)
}

use Better::{Higher, Lower};

/// Measured with tracing off.
///
/// One bound per metric has to hold on every workload and across seeds:
/// each is at least three times the widest quartile spread seen over ten
/// seeds on the noisiest workload (README, "Steadiness"). The counts
/// (`max_bits_per_party`, `rounds_per_decision`) repeat exactly at a fixed
/// seed; their spread is the seed's alone (tree shape, corruption
/// placement, sortition).
pub const END_TO_END: [Def; 7] = [
    e2e("decision_s", "s", Lower, 0.25),
    e2e("decisions_per_s", "1/s", Higher, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("max_bits_per_party", "bits", Lower, 0.20),
    e2e("rounds_per_decision", "rounds", Lower, 0.02),
    e2e("peak_rss_mib", "MiB", Lower, 0.15),
    // 1 − failure_share: a metric may never read 0, so the failure share
    // is reported as its complement. One failed decision moves it by more
    // than the bound on every workload.
    e2e("decision_success_share", "fraction", Higher, 0.01),
];

/// Measured in the traced pass: span durations, counters read at span
/// boundaries, then the layer kernels.
pub const PER_LAYER: [Def; 59] = [
    // Spans around the public `Service` calls.
    layer("core.establish_s", "s", Lower),
    layer("core.fanin_s", "s", Lower),
    layer("core.committee_ba_s", "s", Lower),
    layer("core.coin_s", "s", Lower),
    layer("core.certify_s", "s", Lower),
    layer("core.stream_s", "s", Lower),
    layer("core.span_sum_ratio", "ratio", Higher),
    layer("core.trace_overhead", "fraction", Lower),
    layer("core.decision_tail_s", "s", Lower),
    // Honest bytes per decision by Fig. 3 step.
    layer("core.bytes.establish", "bytes", Lower),
    layer("core.bytes.committee", "bytes", Lower),
    layer("core.bytes.disseminate", "bytes", Lower),
    layer("core.bytes.sign", "bytes", Lower),
    layer("core.bytes.aggregate", "bytes", Lower),
    layer("core.bytes.certificate", "bytes", Lower),
    layer("core.bytes.spread", "bytes", Lower),
    // Counters read at the span boundaries.
    layer("core.stream.overlapped_rounds", "rounds", Higher),
    layer("srds.cert_cache.warm_hits", "count", Higher),
    layer("srds.cert_cache.hit_ratio", "ratio", Higher),
    layer("crypto.sha256.digests", "count", Lower),
    layer("crypto.sha256.lane_occupancy", "ratio", Higher),
    layer("crypto.merkle.proof_cache_hit_ratio", "ratio", Higher),
    layer("net.metrics.cells", "count", Lower),
    // Layer kernels.
    layer("crypto.sha256.batch_ns_per_digest", "ns", Lower),
    layer("crypto.sha256.scalar_ns_per_digest", "ns", Lower),
    layer("crypto.merkle.build_ns_per_leaf", "ns", Lower),
    layer("crypto.prg.fill_mib_per_s", "MiB/s", Higher),
    layer("crypto.lamport.keygen_ns_per_key", "ns", Lower),
    layer("crypto.lamport.sign_us", "us", Lower),
    layer("crypto.lamport.verify_us", "us", Lower),
    layer("crypto.mss.keygen_ms", "ms", Lower),
    layer("crypto.mss.sign_us", "us", Lower),
    layer("crypto.mss.verify_us", "us", Lower),
    layer("crypto.vss.deal_us", "us", Lower),
    layer("crypto.vss.reconstruct_us", "us", Lower),
    layer("crypto.reed_solomon.decode_us", "us", Lower),
    layer("crypto.codec.cert_encode_ns_per_kib", "ns", Lower),
    layer("crypto.codec.cert_decode_ns_per_kib", "ns", Lower),
    layer("net.wire.encode_ns_per_msg", "ns", Lower),
    layer("net.wire.decode_ns_per_msg", "ns", Lower),
    layer("snark.prove_us", "us", Lower),
    layer("snark.verify_us", "us", Lower),
    layer("srds.sign_us", "us", Lower),
    layer("srds.aggregate_us_per_sig", "us", Lower),
    layer("srds.verify_us", "us", Lower),
    layer("srds.cert_bytes", "bytes", Lower),
    layer("aetree.tree.build_ns_per_party", "ns", Lower),
    layer("aetree.fae.disseminate_ns_per_party", "ns", Lower),
    layer("aetree.robust.fanin_ns_per_party", "ns", Lower),
    layer("net.metrics.charge_ns", "ns", Lower),
    layer("net.metrics.report_us", "us", Lower),
    layer("net.runner.rounds_per_s", "1/s", Higher),
    layer("net.sched.rounds_per_s", "1/s", Higher),
    layer("net.sched.speedup", "ratio", Higher),
    layer("net.framing.mib_per_s", "MiB/s", Higher),
    layer("net.transport.exchange_us", "us", Lower),
    layer("core.phase_king.run_ms", "ms", Lower),
    layer("core.vss_coin.toss_ms", "ms", Lower),
    // The failure share itself (may read 0 here: no bound applies).
    layer("core.failure_share", "fraction", Lower),
];

/// One printed metric: a definition, its value, and how many samples the
/// value summarises (repetitions for a median, operations for a kernel).
#[derive(Clone, Debug)]
pub struct Metric {
    pub def: &'static Def,
    pub value: f64,
    pub samples: u64,
}
