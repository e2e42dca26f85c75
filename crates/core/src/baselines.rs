//! The comparison protocols of Table 1.
//!
//! * [`all_to_all_ba`] — Byzantine agreement over the complete graph
//!   (phase-king among all `n` parties): `Θ(n·t)` bits per party,
//!   `Θ(n²·t)` total. Run with real state machines at small `n`; above
//!   [`REAL_SIMULATION_LIMIT`] the *exact deterministic traffic* of the
//!   honest execution is metered analytically (validated against the real
//!   run by tests — see `metered_matches_real`).
//! * [`sqrt_sampling_boost`] — the King–Saia'09-style boost from
//!   almost-everywhere to everywhere agreement: every party polls
//!   `Θ̃(√n)` random peers and takes the majority, giving `Θ̃(√n)` bits per
//!   party — the bound the paper breaks.
//! * The BGT'13-style multisignature boost is `π_ba` instantiated with
//!   [`pba_srds::multisig::MultisigSrds`] (the Θ(n) certificate makes the
//!   per-party cost linear); see the bench harness.

use crate::phase_king::{max_faults, rounds_for, PhaseKing, PkMsg};
use pba_crypto::codec::{CodecError, Decode, Encode, Reader};
use pba_crypto::mss::{MssKeyPair, MssParams, MssVerificationKey};
use pba_crypto::prg::Prg;
use pba_net::runner::{run_phase, SilentAdversary};
use pba_net::wire::{self, step, tag};
use pba_net::{Machine, Network, PartyId, Report, WireMsg};
use std::collections::{BTreeMap, BTreeSet};

/// Above this size, [`all_to_all_ba`] switches from real state machines to
/// exact analytic metering of the same execution.
pub const REAL_SIMULATION_LIMIT: usize = 150;

/// Wire size of one phase-king message, measured off the real typed
/// encoding (`{tag, step}` header + variant byte + value) so the analytic
/// meter can never drift from what [`all_to_all_ba_real`] charges.
fn pk_msg_bytes() -> u64 {
    wire::encoded_msg_len(&PkMsg::Value(0u8)) as u64
}

/// Runs (or meters) all-to-all phase-king BA with unanimous honest inputs
/// and `t_silent` crash-faulty parties, returning the communication report.
///
/// For `n ≤ REAL_SIMULATION_LIMIT` the protocol executes for real; above,
/// the deterministic honest-case traffic of the same implementation is
/// charged directly (every round of every phase: one `Value` and one
/// `Propose` broadcast per honest party, plus the king's broadcast).
pub fn all_to_all_ba(n: usize, t_silent: usize, input: u8) -> Report {
    assert!(3 * t_silent < n, "faults must stay below n/3");
    if n <= REAL_SIMULATION_LIMIT {
        let (report, outputs) = all_to_all_ba_real(n, t_silent, input);
        debug_assert!(outputs.iter().flatten().all(|&o| o == input));
        report
    } else {
        all_to_all_ba_metered(n, t_silent)
    }
}

/// The real execution (exposed for validation tests).
pub fn all_to_all_ba_real(n: usize, t_silent: usize, input: u8) -> (Report, Vec<Option<u8>>) {
    let committee: Vec<PartyId> = (0..n as u64).map(PartyId).collect();
    let corrupt: BTreeSet<PartyId> = committee[n - t_silent..].iter().copied().collect();
    let mut net = Network::new(n);
    let mut machines: BTreeMap<PartyId, PhaseKing<u8>> = committee
        .iter()
        .filter(|p| !corrupt.contains(p))
        .map(|&p| (p, PhaseKing::new(committee.clone(), p, input)))
        .collect();
    let mut adversary = SilentAdversary::new(corrupt.clone());
    {
        let mut erased: BTreeMap<PartyId, Box<dyn Machine + Send + '_>> = machines
            .iter_mut()
            .map(|(&id, m)| (id, Box::new(m) as Box<dyn Machine + Send + '_>))
            .collect();
        let outcome = run_phase(&mut net, &mut erased, &mut adversary, rounds_for(n) + 6);
        assert!(outcome.completed, "all-to-all BA did not terminate");
    }
    let honest: Vec<PartyId> = committee
        .iter()
        .filter(|p| !corrupt.contains(p))
        .copied()
        .collect();
    let outputs = committee
        .iter()
        .map(|id| machines.get(id).and_then(|m| m.output().copied()))
        .collect();
    (net.metrics().report_for(honest), outputs)
}

/// Exact analytic metering of the honest-case traffic of
/// [`all_to_all_ba_real`] with `t_silent` silent faults.
fn all_to_all_ba_metered(n: usize, t_silent: usize) -> Report {
    let pk_msg_bytes = pk_msg_bytes();
    let t = max_faults(n);
    let phases = (t + 1) as u64;
    let honest = (n - t_silent) as u64;
    let peers = (n - 1) as u64;
    // Per phase, every honest party broadcasts Value then Propose
    // (unanimous inputs ⇒ the (n − t)-quorum always exists); the phase's
    // king additionally broadcasts King. Receivers process one message per
    // honest peer in each of those rounds.
    let per_party_sent_base = phases * 2 * peers * pk_msg_bytes;
    // A king (honest, in the first t + 1 positions — silent parties are
    // placed last) sends one extra broadcast in its phase.
    let king_extra = peers * pk_msg_bytes;
    // Received: value+propose from every honest peer per phase, plus the
    // king message (when the king is another party).
    let per_party_recv = phases * 2 * (honest - 1) * pk_msg_bytes + phases * pk_msg_bytes;

    let max_bytes_sent = per_party_sent_base + king_extra;
    let total_bytes = honest * per_party_sent_base + phases.min(honest) * king_extra;
    let rounds = 3 * phases + 1;
    // The maximal party is a king: it sends one extra broadcast but does
    // not process its own phase's king message (one fewer receive).
    let max_combined = max_bytes_sent + per_party_recv - pk_msg_bytes;
    Report {
        parties: honest,
        max_bytes_per_party: max_combined,
        max_bytes_sent,
        total_bytes,
        total_msgs: total_bytes / pk_msg_bytes,
        max_msgs_per_party: max_combined / pk_msg_bytes,
        max_locality: peers,
        rounds,
    }
}

/// Outcome of the committee-flood baseline.
#[derive(Clone, Debug)]
pub struct CommitteeFloodOutcome {
    /// Communication report over honest parties.
    pub report: Report,
    /// Fraction of honest parties that accepted the committee's value.
    pub correct_fraction: f64,
    /// The committee size used.
    pub committee_size: usize,
    /// Max-over-avg sent-bytes ratio — the *imbalance* the paper's
    /// introduction criticizes (Θ(n/polylog) for this family).
    pub imbalance: f64,
}

/// The "amortized Õ(1), unbalanced" family of Table 1 (CM'19 / ACD⁺'19 /
/// CKS'20-style): a sortition committee of `polylog(n)` parties agrees and
/// then **each member sends the signed result directly to all `n`
/// parties**. Receivers accept on a majority of valid committee
/// signatures.
///
/// Average per-party cost is `Õ(1)` (most parties only receive `polylog`
/// signatures) but committee members each send `Θ(n · poly(κ))` bits — the
/// "central parties" imbalance that motivates the paper's question. The
/// measured `max/avg` ratio in the output exhibits it directly.
pub fn committee_flood_ba(n: usize, t: usize, input: u8, seed: &[u8]) -> CommitteeFloodOutcome {
    assert!(3 * t < n, "faults must stay below n/3");
    let mut prg = Prg::from_seed_label(seed, "committee-flood");
    let corrupt: BTreeSet<PartyId> = prg
        .sample_distinct(n as u64, t)
        .into_iter()
        .map(PartyId)
        .collect();

    // Trusted PKI (the family's standard assumption).
    let params = MssParams::new(16, 1);
    let keys: Vec<MssKeyPair> = (0..n)
        .map(|i| MssKeyPair::generate(&params, &mut prg.child("key", i as u64)))
        .collect();
    let vks: Vec<MssVerificationKey> = keys.iter().map(|k| k.verification_key()).collect();

    // Sortition committee from post-corruption randomness.
    let logn = (usize::BITS - n.saturating_sub(1).leading_zeros()) as usize;
    let c = (3 * logn).min(n);
    let committee: Vec<PartyId> = prg
        .sample_distinct(n as u64, c)
        .into_iter()
        .map(PartyId)
        .collect();

    let mut net = Network::new(n);

    // Committee BA (phase-king among the committee, real messages).
    let mut machines: BTreeMap<PartyId, PhaseKing<u8>> = committee
        .iter()
        .filter(|p| !corrupt.contains(p))
        .map(|&p| (p, PhaseKing::new(committee.clone(), p, input)))
        .collect();
    let mut adversary = SilentAdversary::new(corrupt.iter().copied());
    {
        let mut erased: BTreeMap<PartyId, Box<dyn Machine + Send + '_>> = machines
            .iter_mut()
            .map(|(&id, m)| (id, Box::new(m) as Box<dyn Machine + Send + '_>))
            .collect();
        run_phase(&mut net, &mut erased, &mut adversary, rounds_for(c) + 6);
    }
    let y = machines
        .values()
        .find_map(|m| m.output().copied())
        .expect("committee decided");

    // The flood: every honest committee member signs y and sends it to all.
    // Receivers verify and count; accept at a committee majority.
    let payload = [y];
    let mut sig_count = vec![0usize; n];
    for &member in &committee {
        if corrupt.contains(&member) {
            continue; // worst case for delivery: corrupt members withhold
        }
        let sig = keys[member.index()].sign_with_index(&payload, 0);
        let len = 1 + pba_crypto::codec::encode_to_vec(&sig).len();
        for i in 0..n as u64 {
            let receiver = PartyId(i);
            if receiver == member {
                sig_count[receiver.index()] += 1;
                continue;
            }
            let metrics = net.metrics_mut();
            metrics.record_send_tagged(member, receiver, len, tag::RAW);
            // Receivers must process committee signatures to count them.
            metrics.record_receive_tagged(receiver, member, len, tag::RAW);
            if params.verify(&vks[member.index()], &payload, &sig) {
                sig_count[receiver.index()] += 1;
            }
        }
    }
    net.bump_round();

    let honest: Vec<PartyId> = (0..n as u64)
        .map(PartyId)
        .filter(|p| !corrupt.contains(p))
        .collect();
    let accepted = honest
        .iter()
        .filter(|p| 2 * sig_count[p.index()] > c)
        .count();
    let report = net.metrics().report_for(honest.iter().copied());
    let avg_sent = report.total_bytes as f64 / report.parties.max(1) as f64;
    CommitteeFloodOutcome {
        imbalance: report.max_bytes_sent as f64 / avg_sent.max(1.0),
        correct_fraction: accepted as f64 / honest.len() as f64,
        committee_size: c,
        report,
    }
}

/// A √n-boost poll: "what value do you hold?", carrying the sampler's
/// nonce so responses can be matched to queries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SampleQuery {
    /// Fresh per-query nonce.
    pub nonce: u64,
}

impl Encode for SampleQuery {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.nonce.encode(buf);
    }
}

impl Decode for SampleQuery {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(SampleQuery {
            nonce: u64::decode(r)?,
        })
    }
}

impl WireMsg for SampleQuery {
    const TAG: u8 = tag::SAMPLE_QUERY;
    const STEP: u8 = step::NONE;
}

/// A √n-boost response: the responder's held value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SampleResponse {
    /// The value the responder holds.
    pub value: u8,
}

impl Encode for SampleResponse {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.value.encode(buf);
    }
}

impl Decode for SampleResponse {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(SampleResponse {
            value: u8::decode(r)?,
        })
    }
}

impl WireMsg for SampleResponse {
    const TAG: u8 = tag::SAMPLE_RESPONSE;
    const STEP: u8 = step::NONE;
}

/// Outcome of the √n-sampling boost.
#[derive(Clone, Debug)]
pub struct SqrtBoostOutcome {
    /// Communication report over honest parties.
    pub report: Report,
    /// Fraction of honest parties that decided the correct value.
    pub correct_fraction: f64,
    /// The sample size each party used.
    pub sample_size: usize,
}

/// The King–Saia'09-style boost: starting from almost-everywhere agreement
/// (a `1 − ae_gap` fraction of honest parties hold `value`), every party
/// polls `⌈sample_factor · √n⌉` random peers and outputs the majority
/// response. Corrupt responders always lie; honest non-holders answer
/// nothing.
///
/// Per-party communication is `Θ̃(√n)` — the barrier the paper's title
/// refers to.
pub fn sqrt_sampling_boost(
    n: usize,
    t: usize,
    ae_gap: f64,
    sample_factor: f64,
    seed: &[u8],
) -> SqrtBoostOutcome {
    assert!(3 * t < n, "faults must stay below n/3");
    let mut prg = Prg::from_seed_label(seed, "sqrt-boost");
    let corrupt: BTreeSet<PartyId> = prg
        .sample_distinct(n as u64, t)
        .into_iter()
        .map(PartyId)
        .collect();
    // Almost-everywhere agreement state: honest parties hold the value
    // except an ae_gap fraction of stragglers.
    let value = 1u8;
    let holders: Vec<bool> = (0..n as u64)
        .map(|i| {
            let p = PartyId(i);
            !corrupt.contains(&p) && !prg.gen_bool_ratio((ae_gap * 1000.0) as u64, 1000)
        })
        .collect();

    let sample_size = ((n as f64).sqrt() * sample_factor).ceil() as usize;
    let sample_size = sample_size.clamp(1, n - 1);
    let mut net = Network::new(n);
    // Real typed wire sizes: header + nonce, header + value.
    let query_bytes = wire::encoded_msg_len(&SampleQuery { nonce: 0 });
    let response_bytes = wire::encoded_msg_len(&SampleResponse { value: 0 });

    let mut correct = 0usize;
    let mut honest_count = 0usize;
    for i in 0..n as u64 {
        let p = PartyId(i);
        if corrupt.contains(&p) {
            continue;
        }
        honest_count += 1;
        let mut votes = 0i64;
        let mut responses = 0usize;
        for target in prg.sample_distinct(n as u64, sample_size) {
            let q = PartyId(target);
            net.metrics_mut()
                .record_send_tagged(p, q, query_bytes, tag::SAMPLE_QUERY);
            net.metrics_mut()
                .record_receive_tagged(q, p, query_bytes, tag::SAMPLE_QUERY);
            let answer: Option<u8> = if corrupt.contains(&q) {
                Some(value ^ 1) // corrupt responders lie
            } else if holders[q.index()] {
                Some(value)
            } else {
                None // honest straggler: no answer
            };
            if let Some(a) = answer {
                net.metrics_mut()
                    .record_send_tagged(q, p, response_bytes, tag::SAMPLE_RESPONSE);
                net.metrics_mut()
                    .record_receive_tagged(p, q, response_bytes, tag::SAMPLE_RESPONSE);
                responses += 1;
                votes += if a == value { 1 } else { -1 };
            }
        }
        let decided = if responses > 0 && votes > 0 {
            Some(value)
        } else {
            None
        };
        if decided == Some(value) || holders[p.index()] {
            correct += 1;
        }
    }
    // All queries happen in one round, all responses in the next.
    net.bump_round();
    net.bump_round();

    let honest: Vec<PartyId> = (0..n as u64)
        .map(PartyId)
        .filter(|p| !corrupt.contains(p))
        .collect();
    SqrtBoostOutcome {
        report: net.metrics().report_for(honest),
        correct_fraction: correct as f64 / honest_count as f64,
        sample_size,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_all_to_all_agrees() {
        let (report, outputs) = all_to_all_ba_real(16, 3, 1);
        assert!(outputs.iter().take(13).all(|&o| o == Some(1)));
        assert!(report.total_bytes > 0);
    }

    #[test]
    fn metered_matches_real() {
        for (n, t_silent) in [(16usize, 0usize), (31, 4), (40, 8)] {
            let (real, _) = all_to_all_ba_real(n, t_silent, 1);
            let metered = all_to_all_ba_metered(n, t_silent);
            assert_eq!(
                metered.max_bytes_sent, real.max_bytes_sent,
                "n={n} t={t_silent} sent mismatch"
            );
            assert_eq!(
                metered.total_bytes, real.total_bytes,
                "n={n} t={t_silent} total mismatch"
            );
            assert_eq!(
                metered.max_bytes_per_party, real.max_bytes_per_party,
                "n={n} t={t_silent} max-per-party mismatch"
            );
        }
    }

    #[test]
    fn all_to_all_scales_quadratically_total() {
        let r64 = all_to_all_ba(64, 0, 1);
        let r256 = all_to_all_ba(256, 0, 1);
        // total ~ n^2 * t ~ n^3: growing n by 4 grows total by ≥ 16.
        assert!(r256.total_bytes > 16 * r64.total_bytes);
        // per-party ~ n * t ~ n^2: grows by ≥ 8.
        assert!(r256.max_bytes_per_party > 8 * r64.max_bytes_per_party);
    }

    #[test]
    fn sqrt_boost_correct_and_sqrt_scaling() {
        let o256 = sqrt_sampling_boost(256, 25, 0.05, 3.0, b"sq1");
        assert!(o256.correct_fraction > 0.99, "{}", o256.correct_fraction);
        let o4096 = sqrt_sampling_boost(4096, 400, 0.05, 3.0, b"sq2");
        assert!(o4096.correct_fraction > 0.99);
        // √n scaling: n grew 16×, per-party cost should grow ~4× (within slop).
        let ratio =
            o4096.report.max_bytes_per_party as f64 / o256.report.max_bytes_per_party as f64;
        assert!(
            (2.0..8.0).contains(&ratio),
            "per-party ratio {ratio} not ~sqrt"
        );
    }

    #[test]
    fn committee_flood_accepts_and_is_unbalanced() {
        let out = committee_flood_ba(512, 51, 1, b"cf1");
        assert!(out.correct_fraction > 0.99, "{}", out.correct_fraction);
        // The imbalance is the point: committee members send Θ(n·poly(κ))
        // while the average party sends almost nothing.
        assert!(
            out.imbalance > 5.0,
            "expected strong imbalance, got {}",
            out.imbalance
        );
    }

    #[test]
    fn committee_flood_average_is_flat_max_is_linear() {
        let small = committee_flood_ba(128, 12, 1, b"cf2");
        let large = committee_flood_ba(512, 51, 1, b"cf2");
        // Max sent grows ~linearly with n (the flood); note receivers' cost
        // grows only with the committee size.
        assert!(
            large.report.max_bytes_sent > 3 * small.report.max_bytes_sent,
            "max {} vs {}",
            small.report.max_bytes_sent,
            large.report.max_bytes_sent
        );
        let avg_small = small.report.total_bytes / small.report.parties;
        let avg_large = large.report.total_bytes / large.report.parties;
        // Average grows far slower than 4x.
        assert!(avg_large < 3 * avg_small, "avg {avg_small} -> {avg_large}");
    }

    #[test]
    fn sqrt_boost_sample_size_is_sqrt() {
        let o = sqrt_sampling_boost(1024, 100, 0.05, 2.0, b"sq3");
        assert_eq!(o.sample_size, 64);
    }

    #[test]
    #[should_panic(expected = "below n/3")]
    fn too_many_faults_rejected() {
        all_to_all_ba(9, 3, 1);
    }
}
