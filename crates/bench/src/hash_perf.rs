//! Scalar-vs-batched baseline of the multi-lane SHA-256 engine (§E-hash).
//!
//! Three layers of measurement, all *measured* (never synthesized), all
//! hard-gated on bit-identical output between the one-at-a-time path and
//! the batched lane engine, on whichever compression backend
//! ([`pba_crypto::sha256::backend`], stamped into the report) the host
//! selected:
//!
//! * **per-primitive microbenches** — Merkle tree build, Lamport keygen,
//!   PRG expansion, and leaf hashing, each timed through its scalar
//!   reference path and its batched path over identical inputs;
//! * **the portable cores called directly** — the scalar core against the
//!   8-lane core on [`Backend::PORTABLE`], whatever backend is active. This
//!   is the row the ≥ 1.5× bar is stated on: through the dispatching APIs a
//!   SHA-NI host runs the same kernel on both sides, and a ratio there
//!   measures batching overhead, not the lane engine;
//! * **end-to-end round engine** — the [`BatchGrind`] workload (one inbox
//!   digest plus `hash_iters` *independent* per-round digests per party,
//!   XOR-folded; unlike `perf::HashGrind`'s chained grind, the per-round
//!   digests carry no data dependency, which is exactly the workload shape
//!   π_ba produces and the engine batches) at n ∈ {64, 256, 1024}, run
//!   once hashing through the scalar core and once through
//!   [`pba_crypto::sha256::batch_digest`], with transcript equality asserted.
//!
//! The binary (`cargo run -p pba-bench --bin hash_perf --release`) renders
//! the result as `BENCH_5.json`.

use pba_crypto::lamport::{LamportKeyPair, LamportParams};
use pba_crypto::merkle::{hash_leaf, hash_leaf_batch, MerkleTree};
use pba_crypto::prg::Prg;
use pba_crypto::sha256::{batch_digest, Backend, Digest, Sha256, DIGEST_LEN, LANES};
use pba_net::runner::run_phase_threaded;
use pba_net::{Envelope, Machine, Network, PartyId, SilentAdversary};
use rand::RngCore;
use std::collections::BTreeMap;
use std::time::Instant;

/// Parameters of one scalar-vs-batched sweep.
#[derive(Clone, Debug)]
pub struct HashPerfConfig {
    /// Party counts for the end-to-end cells.
    pub sizes: Vec<usize>,
    /// Synchronous rounds per end-to-end cell.
    pub rounds: u64,
    /// Independent digests each party computes per round.
    pub hash_iters: u32,
    /// Leaf count for the Merkle-build microbench.
    pub merkle_leaves: usize,
    /// Key count for the Lamport-keygen microbench (128-bit params).
    pub lamport_keys: usize,
    /// Byte count for the PRG-expansion microbench.
    pub prg_bytes: usize,
    /// Repetitions of each microbench (totals are reported).
    pub micro_reps: usize,
}

impl HashPerfConfig {
    /// The full sweep of ISSUE 5: e2e n ∈ {64, 256, 1024}, microbenches
    /// sized so each side runs long enough to time stably on one core.
    pub fn full() -> Self {
        HashPerfConfig {
            sizes: vec![64, 256, 1024],
            rounds: 12,
            hash_iters: 256,
            merkle_leaves: 4096,
            lamport_keys: 64,
            prg_bytes: 1 << 22,
            micro_reps: 8,
        }
    }

    /// CI smoke variant: small sizes, same equivalence gates.
    pub fn smoke() -> Self {
        HashPerfConfig {
            sizes: vec![64],
            rounds: 6,
            hash_iters: 128,
            merkle_leaves: 512,
            lamport_keys: 8,
            prg_bytes: 1 << 18,
            micro_reps: 2,
        }
    }
}

/// One scalar-vs-batched microbench result.
#[derive(Clone, Debug)]
pub struct MicroBench {
    /// Primitive label (`merkle-build`, `lamport-keygen`, …).
    pub name: &'static str,
    /// Total wall milliseconds through the scalar reference path.
    pub scalar_ms: f64,
    /// Total wall milliseconds through the batched engine.
    pub batched_ms: f64,
    /// True when both paths produced bit-identical output (hard gate).
    pub identical: bool,
}

impl MicroBench {
    /// `scalar_ms / batched_ms`.
    pub fn speedup(&self) -> f64 {
        self.scalar_ms / self.batched_ms
    }
}

/// One end-to-end `(n)` cell: the same deterministic workload timed with
/// scalar hashing and with batched hashing.
#[derive(Clone, Debug)]
pub struct E2eCase {
    /// Number of parties.
    pub n: usize,
    /// Rounds executed (identical for both runs by construction).
    pub rounds: u64,
    /// Rounds per second hashing through the scalar core.
    pub scalar_rounds_per_sec: f64,
    /// Rounds per second hashing through the multi-lane engine.
    pub batched_rounds_per_sec: f64,
    /// True when the two runs produced identical network transcripts.
    pub identical: bool,
}

impl E2eCase {
    /// `batched / scalar` throughput ratio.
    pub fn speedup(&self) -> f64 {
        self.batched_rounds_per_sec / self.scalar_rounds_per_sec
    }
}

/// The full report rendered into `BENCH_5.json`.
#[derive(Clone, Debug)]
pub struct HashPerfReport {
    /// Whether this was the `--smoke` variant.
    pub smoke: bool,
    /// Engine lane width ([`pba_crypto::sha256::LANES`]).
    pub lanes: usize,
    /// `std::thread::available_parallelism()` of the measuring host.
    pub host_cores: usize,
    /// [`pba_crypto::sha256::backend`] of the measuring host — the core
    /// every row but `portable-cores` ran on.
    pub sha256_backend: &'static str,
    /// Sweep parameters.
    pub config: HashPerfConfig,
    /// Per-primitive microbench rows.
    pub micro: Vec<MicroBench>,
    /// End-to-end cells.
    pub e2e: Vec<E2eCase>,
}

impl HashPerfReport {
    /// True only when *every* micro and e2e comparison was bit-identical
    /// between the scalar and batched paths — the report-level hard gate.
    pub fn digests_identical(&self) -> bool {
        self.micro.iter().all(|m| m.identical) && self.e2e.iter().all(|c| c.identical)
    }

    /// Renders the report as a JSON object (serde-free, like
    /// [`crate::perf::PerfReport::to_json`]).
    pub fn to_json(&self) -> String {
        let micro: Vec<String> = self
            .micro
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\":\"{}\",\"scalar_ms\":{:.3},\"batched_ms\":{:.3},\"speedup\":{:.3},\"identical\":{}}}",
                    m.name, m.scalar_ms, m.batched_ms, m.speedup(), m.identical
                )
            })
            .collect();
        let e2e: Vec<String> = self
            .e2e
            .iter()
            .map(|c| {
                format!(
                    "{{\"n\":{},\"rounds\":{},\"scalar_rounds_per_sec\":{:.3},\"batched_rounds_per_sec\":{:.3},\"speedup\":{:.3},\"identical\":{}}}",
                    c.n, c.rounds, c.scalar_rounds_per_sec, c.batched_rounds_per_sec, c.speedup(), c.identical
                )
            })
            .collect();
        format!(
            concat!(
                "{{\"bench\":\"multi-lane-hash-engine\",",
                "\"smoke\":{},",
                "\"lanes\":{},",
                "\"host_cores\":{},",
                "\"sha256_backend\":\"{}\",",
                "\"rounds_per_case\":{},",
                "\"hash_iters_per_round\":{},",
                "\"digests_identical\":{},",
                "\"micro\":[{}],",
                "\"e2e\":[{}]}}"
            ),
            self.smoke,
            self.lanes,
            self.host_cores,
            self.sha256_backend,
            self.config.rounds,
            self.config.hash_iters,
            self.digests_identical(),
            micro.join(","),
            e2e.join(","),
        )
    }
}

fn time_ms(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}

/// Merkle build: `from_leaf_digests_scalar` vs the batched
/// `from_leaf_digests`, same leaf digests, roots compared per rep.
fn bench_merkle_build(config: &HashPerfConfig) -> MicroBench {
    let digests: Vec<Digest> = (0..config.merkle_leaves as u64)
        .map(|i| Sha256::digest(&i.to_le_bytes()))
        .collect();
    let mut scalar_roots = Vec::with_capacity(config.micro_reps);
    let mut batched_roots = Vec::with_capacity(config.micro_reps);
    let scalar_ms = time_ms(|| {
        for _ in 0..config.micro_reps {
            scalar_roots.push(MerkleTree::from_leaf_digests_scalar(digests.clone()).root());
        }
    });
    let batched_ms = time_ms(|| {
        for _ in 0..config.micro_reps {
            batched_roots.push(MerkleTree::from_leaf_digests(digests.clone()).root());
        }
    });
    MicroBench {
        name: "merkle-build",
        scalar_ms,
        batched_ms,
        identical: scalar_roots == batched_roots,
    }
}

/// Lamport keygen: per-key `generate_scalar` loop vs the cross-key
/// `generate_many` batch, same PRG seed, keys compared in full.
fn bench_lamport_keygen(config: &HashPerfConfig) -> MicroBench {
    let params = LamportParams::new(128);
    let mut scalar_keys = Vec::new();
    let mut batched_keys = Vec::new();
    let scalar_ms = time_ms(|| {
        for rep in 0..config.micro_reps {
            let mut prg = Prg::from_seed_label(&(rep as u64).to_le_bytes(), "hash-perf-keygen");
            for _ in 0..config.lamport_keys {
                scalar_keys.push(LamportKeyPair::generate_scalar(&params, &mut prg));
            }
        }
    });
    let batched_ms = time_ms(|| {
        for rep in 0..config.micro_reps {
            let mut prg = Prg::from_seed_label(&(rep as u64).to_le_bytes(), "hash-perf-keygen");
            batched_keys.extend(LamportKeyPair::generate_many(
                &params,
                &mut prg,
                config.lamport_keys,
            ));
        }
    });
    let identical = scalar_keys.len() == batched_keys.len()
        && scalar_keys
            .iter()
            .zip(&batched_keys)
            .all(|(a, b)| a.verification_key() == b.verification_key());
    MicroBench {
        name: "lamport-keygen",
        scalar_ms,
        batched_ms,
        identical,
    }
}

/// PRG expansion: `fill_bytes_scalar` vs the bulk lane path in
/// `fill_bytes`, same seed, streams compared byte-for-byte.
fn bench_prg_expand(config: &HashPerfConfig) -> MicroBench {
    let mut scalar_out = vec![0u8; config.prg_bytes];
    let mut batched_out = vec![0u8; config.prg_bytes];
    let mut identical = true;
    let mut scalar_ms = 0.0;
    let mut batched_ms = 0.0;
    for rep in 0..config.micro_reps {
        let seed = (rep as u64).to_le_bytes();
        let mut scalar_prg = Prg::from_seed_label(&seed, "hash-perf-prg");
        let mut batched_prg = Prg::from_seed_label(&seed, "hash-perf-prg");
        scalar_ms += time_ms(|| scalar_prg.fill_bytes_scalar(&mut scalar_out));
        batched_ms += time_ms(|| batched_prg.fill_bytes(&mut batched_out));
        identical &= scalar_out == batched_out;
    }
    MicroBench {
        name: "prg-expand",
        scalar_ms,
        batched_ms,
        identical,
    }
}

/// Leaf hashing: per-leaf `hash_leaf` vs `hash_leaf_batch` over the same
/// payload set.
fn bench_leaf_hash(config: &HashPerfConfig) -> MicroBench {
    let payloads: Vec<Vec<u8>> = (0..config.merkle_leaves as u64)
        .map(|i| {
            let mut p = i.to_le_bytes().to_vec();
            p.resize(DIGEST_LEN, 0x5a);
            p
        })
        .collect();
    let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
    let mut scalar_digests = Vec::new();
    let mut batched_digests = Vec::new();
    let scalar_ms = time_ms(|| {
        for _ in 0..config.micro_reps {
            scalar_digests = refs.iter().map(|p| hash_leaf(p)).collect();
        }
    });
    let batched_ms = time_ms(|| {
        for _ in 0..config.micro_reps {
            batched_digests = hash_leaf_batch(&refs);
        }
    });
    MicroBench {
        name: "leaf-hash",
        scalar_ms,
        batched_ms,
        identical: scalar_digests == batched_digests,
    }
}

/// The portable cores called directly: 32-byte messages (the Lamport /
/// Merkle shape) one at a time through the scalar core against the same
/// messages through the 8-lane core, both on [`Backend::PORTABLE`]. The
/// identity check also covers the active backend's batch path, so on a
/// SHA-NI host this row compares the hardware core against the oracle.
fn bench_portable_cores(config: &HashPerfConfig) -> MicroBench {
    let messages: Vec<[u8; DIGEST_LEN]> = (0..config.merkle_leaves as u64)
        .map(|i| Sha256::digest(&i.to_le_bytes()).into_bytes())
        .collect();
    let refs: Vec<&[u8]> = messages.iter().map(|m| m.as_slice()).collect();
    let mut scalar_digests = Vec::new();
    let mut batched_digests = Vec::new();
    let scalar_ms = time_ms(|| {
        for _ in 0..config.micro_reps {
            scalar_digests = refs.iter().map(|m| Backend::PORTABLE.digest(m)).collect();
        }
    });
    let batched_ms = time_ms(|| {
        for _ in 0..config.micro_reps {
            batched_digests = Backend::PORTABLE.batch_digest(&refs);
        }
    });
    MicroBench {
        name: "portable-cores",
        scalar_ms,
        batched_ms,
        identical: scalar_digests == batched_digests && batched_digests == batch_digest(&refs),
    }
}

/// The end-to-end workload: every party digests its inbox into a round
/// seed, computes `iters` *independent* digests `H(seed ‖ i)` (batched
/// through [`batch_digest`] or one by one through the scalar
/// core), XOR-folds them into its state, and gossips the state to two
/// ring neighbours. Identical message traffic in both modes — only the
/// hashing engine differs, so transcript equality is exactly the
/// scalar-equivalence gate.
struct BatchGrind {
    id: PartyId,
    n: usize,
    iters: u32,
    rounds_left: u64,
    state: Digest,
    batched: bool,
}

impl Machine for BatchGrind {
    fn on_round(&mut self, ctx: &mut pba_net::Ctx<'_>, inbox: &[Envelope]) {
        let mut h = Sha256::new();
        h.update(self.state.as_bytes());
        for env in inbox {
            if let Some(d) = ctx.read::<Digest>(env) {
                h.update(d.as_bytes());
            }
        }
        let seed = h.finalize();
        let msgs: Vec<[u8; DIGEST_LEN + 4]> = (0..self.iters)
            .map(|i| {
                let mut m = [0u8; DIGEST_LEN + 4];
                m[..DIGEST_LEN].copy_from_slice(seed.as_bytes());
                m[DIGEST_LEN..].copy_from_slice(&i.to_le_bytes());
                m
            })
            .collect();
        let digests: Vec<Digest> = if self.batched {
            let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
            batch_digest(&refs)
        } else {
            msgs.iter().map(|m| Sha256::digest(m)).collect()
        };
        let mut acc = [0u8; DIGEST_LEN];
        for d in &digests {
            for (a, b) in acc.iter_mut().zip(d.as_bytes()) {
                *a ^= b;
            }
        }
        self.state = Digest::new(acc);
        if self.rounds_left > 1 {
            let next = PartyId(((self.id.0 as usize + 1) % self.n) as u64);
            let far = PartyId(((self.id.0 as usize + 7) % self.n) as u64);
            ctx.send(next, &self.state);
            ctx.send(far, &self.state);
        }
        self.rounds_left = self.rounds_left.saturating_sub(1);
    }

    fn is_done(&self) -> bool {
        self.rounds_left == 0
    }
}

/// Runs one `(n, batched)` cell and returns `(wall_ms, rounds, transcript)`.
fn run_cell(n: usize, batched: bool, rounds: u64, iters: u32) -> (f64, u64, Vec<Digest>) {
    let mut net = Network::new(n);
    net.enable_transcript();
    let mut machines: Vec<BatchGrind> = (0..n)
        .map(|i| BatchGrind {
            id: PartyId(i as u64),
            n,
            iters,
            rounds_left: rounds,
            state: Sha256::digest(&(i as u64).to_le_bytes()),
            batched,
        })
        .collect();
    let mut adversary = SilentAdversary::new([]);
    let start = Instant::now();
    let outcome = {
        let mut erased: BTreeMap<PartyId, Box<dyn Machine + Send + '_>> = machines
            .iter_mut()
            .map(|m| (m.id, Box::new(m) as Box<dyn Machine + Send + '_>))
            .collect();
        run_phase_threaded(&mut net, &mut erased, &mut adversary, rounds + 2, 1)
    };
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    assert!(outcome.completed, "hash-perf workload must terminate");
    let transcript = net.transcript().expect("transcript enabled").to_vec();
    (wall_ms, outcome.rounds, transcript)
}

/// Runs the full scalar-vs-batched sweep.
pub fn run_hash_perf(config: &HashPerfConfig, smoke: bool) -> HashPerfReport {
    let host_cores = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1);
    let micro = vec![
        bench_merkle_build(config),
        bench_lamport_keygen(config),
        bench_prg_expand(config),
        bench_leaf_hash(config),
        bench_portable_cores(config),
    ];
    let mut e2e = Vec::new();
    for &n in &config.sizes {
        let (scalar_ms, scalar_rounds, scalar_t) =
            run_cell(n, false, config.rounds, config.hash_iters);
        let (batched_ms, batched_rounds, batched_t) =
            run_cell(n, true, config.rounds, config.hash_iters);
        e2e.push(E2eCase {
            n,
            rounds: batched_rounds,
            scalar_rounds_per_sec: scalar_rounds as f64 / (scalar_ms / 1e3),
            batched_rounds_per_sec: batched_rounds as f64 / (batched_ms / 1e3),
            identical: scalar_t == batched_t && scalar_rounds == batched_rounds,
        });
    }
    HashPerfReport {
        smoke,
        lanes: LANES,
        host_cores,
        sha256_backend: pba_crypto::sha256::backend(),
        config: config.clone(),
        micro,
        e2e,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_is_identical_and_renders_json() {
        let config = HashPerfConfig {
            sizes: vec![8],
            rounds: 3,
            hash_iters: 16,
            merkle_leaves: 64,
            lamport_keys: 2,
            prg_bytes: 4096,
            micro_reps: 1,
        };
        let report = run_hash_perf(&config, true);
        assert!(
            report.digests_identical(),
            "batched and scalar paths diverged: {report:?}"
        );
        assert_eq!(report.micro.len(), 5);
        assert_eq!(report.e2e.len(), 1);
        let json = report.to_json();
        for key in [
            "\"bench\":\"multi-lane-hash-engine\"",
            "\"digests_identical\":true",
            "\"merkle-build\"",
            "\"lamport-keygen\"",
            "\"prg-expand\"",
            "\"leaf-hash\"",
            "\"portable-cores\"",
            "\"sha256_backend\":\"",
            "\"e2e\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn e2e_modes_share_one_transcript() {
        let (_, r_s, t_s) = run_cell(12, false, 4, 32);
        let (_, r_b, t_b) = run_cell(12, true, 4, 32);
        assert_eq!(r_s, r_b);
        assert_eq!(t_s, t_b, "hash engine changed the protocol transcript");
    }
}
