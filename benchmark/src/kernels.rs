//! Layer kernels: each times one layer's public function directly, on
//! inputs shaped by the workload (its `TreeParams`, supreme-committee
//! size, SRDS scheme and certificate), and reports time per operation
//! together with the operation count.

use crate::trace::{SpanId, Tracer};
use crate::workloads::{Scheme, Spec};
use pba_aetree::fae::{disseminate, honest_adversary};
use pba_aetree::params::TreeParams;
use pba_aetree::robust::robust_input_fanin;
use pba_aetree::tree::Tree;
use pba_core::phase_king::{rounds_for, PhaseKing, PkMsg};
use pba_core::protocol::{Certificate, ValueSeed};
use pba_core::vss_coin::toss_coin_vss;
use pba_crypto::codec::{decode_from_slice, encode_to_vec, Decode, Encode};
use pba_crypto::field::Fp;
use pba_crypto::lamport::{LamportKeyPair, LamportParams};
use pba_crypto::merkle::MerkleTree;
use pba_crypto::mss::{MssKeyPair, MssParams};
use pba_crypto::prg::Prg;
use pba_crypto::reed_solomon;
use pba_crypto::sha256::{batch_digest, Digest, Sha256};
use pba_crypto::vss::{reconstruct_committed, CommittedShares};
use pba_net::framing::{write_frame, Frame, FrameReader};
use pba_net::runner::{run_phase, run_phase_threaded};
use pba_net::wire::{self, tag};
use pba_net::{
    genesis_digest, Ctx, Envelope, Machine, MetricsTable, Network, PartyId, PeerMap,
    SilentAdversary, TcpTransport, Transport, TransportOpts,
};
use pba_snark::system::{Relation, SnarkCrs, SnarkSystem};
use pba_srds::owf::OwfSrds;
use pba_srds::snark::SnarkSrds;
use pba_srds::traits::{PkiBoard, Srds};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::net::TcpListener;
use std::time::{Duration, Instant};

/// One kernel result: the metric value and how many operations it is the
/// average over.
#[derive(Clone, Debug)]
pub struct Kernel {
    pub name: &'static str,
    pub value: f64,
    pub ops: u64,
}

/// SRDS parties the scheme kernels establish at most. Covers every slot of
/// the three n ≤ 1024 workloads; at n = 16384 it bounds keygen time, and
/// the SNARK certificate there is constant-size anyway.
const MAX_KERNEL_SLOTS: usize = 4096;

struct Bench<'a> {
    tracer: &'a mut Tracer,
    parent: SpanId,
    min_seconds: f64,
    out: Vec<Kernel>,
}

impl Bench<'_> {
    /// Repeats `op` in doubling batches until `min_seconds` have passed
    /// (at least once); returns seconds per operation and the count.
    fn time(&mut self, name: &'static str, mut op: impl FnMut()) -> (f64, u64) {
        let span = self.tracer.begin(name, self.parent, 0);
        let start = Instant::now();
        let (mut ops, mut batch) = (0u64, 1u64);
        let per_op = loop {
            for _ in 0..batch {
                op();
            }
            ops += batch;
            let elapsed = start.elapsed().as_secs_f64();
            if elapsed >= self.min_seconds {
                break elapsed / ops as f64;
            }
            batch *= 2;
        };
        self.tracer.end(span);
        (per_op, ops)
    }

    /// Times `op` and records `scale ÷ units-per-op` seconds as the value
    /// — e.g. `scale = 1e9, units = digests per call` gives ns per digest.
    fn per_unit(&mut self, name: &'static str, scale: f64, units: f64, op: impl FnMut()) {
        let (per_op, ops) = self.time(name, op);
        self.record(name, per_op * scale / units, ops);
    }

    /// Records a rate: `units` of work per operation, per second.
    fn rate(&mut self, name: &'static str, units: f64, op: impl FnMut()) -> f64 {
        let (per_op, ops) = self.time(name, op);
        self.record(name, units / per_op, ops);
        units / per_op
    }

    fn record(&mut self, name: &'static str, value: f64, ops: u64) {
        self.out.push(Kernel { name, value, ops });
    }
}

const NS: f64 = 1e9;
const US: f64 = 1e6;
const MS: f64 = 1e3;
const MIB: f64 = 1024.0 * 1024.0;

/// Runs every layer kernel for `spec`. `min_seconds` is the floor on each
/// kernel's measuring time (`0` = one batch each, for the smoke grid).
pub fn run(spec: &Spec, min_seconds: f64, tracer: &mut Tracer) -> Vec<Kernel> {
    let params = spec.tree_params();
    let parent = tracer.begin("kernels", None, 0);
    let mut b = Bench {
        tracer,
        parent,
        min_seconds,
        out: Vec::new(),
    };
    crypto(&mut b, spec, params);
    match spec.scheme {
        Scheme::Snark(config) => srds(&mut b, &|| SnarkSrds::new(config), params),
        Scheme::Owf(config) => srds(&mut b, &|| OwfSrds::new(config), params),
    }
    snark(&mut b);
    aetree(&mut b, params);
    net(&mut b, params);
    core(&mut b, params);
    let out = b.out;
    tracer.end(parent);
    out
}

/// The `(lamport bits, MSS height)` the workload's scheme signs with.
fn signature_params(scheme: Scheme) -> (usize, usize) {
    match scheme {
        Scheme::Snark(c) => (c.mss_bits, c.mss_height),
        Scheme::Owf(c) => (c.lamport_bits, 1),
    }
}

fn crypto(b: &mut Bench<'_>, spec: &Spec, params: TreeParams) {
    let mut prg = Prg::from_seed_label(b"kernels", "crypto");

    // SHA-256: 32-byte preimages, the Lamport/Merkle shape.
    let blocks: Vec<[u8; 32]> = (0..1024).map(|_| prg.next_digest().into_bytes()).collect();
    let refs: Vec<&[u8]> = blocks.iter().map(|x| x.as_slice()).collect();
    b.per_unit(
        "crypto.sha256.batch_ns_per_digest",
        NS,
        refs.len() as f64,
        || {
            black_box(batch_digest(black_box(&refs)));
        },
    );
    b.per_unit(
        "crypto.sha256.scalar_ns_per_digest",
        NS,
        refs.len() as f64,
        || {
            for r in &refs {
                black_box(Sha256::digest(black_box(r)));
            }
        },
    );

    // Merkle: one tree over a leaf committee's worth of slots times the
    // branching — the per-node shape the key board and VSS commit to.
    let leaves: Vec<Digest> = (0..params.leaf_slots * params.branching)
        .map(|_| prg.next_digest())
        .collect();
    b.per_unit(
        "crypto.merkle.build_ns_per_leaf",
        NS,
        leaves.len() as f64,
        || {
            black_box(MerkleTree::from_leaf_digests(black_box(leaves.clone())));
        },
    );

    let mut buf = vec![0u8; 64 * 1024];
    b.rate("crypto.prg.fill_mib_per_s", buf.len() as f64 / MIB, || {
        rand::RngCore::fill_bytes(&mut prg, black_box(&mut buf));
    });

    let (bits, height) = signature_params(spec.scheme);
    let lamport = LamportParams::new(bits);
    let many = 16usize;
    b.per_unit("crypto.lamport.keygen_ns_per_key", NS, many as f64, || {
        black_box(LamportKeyPair::generate_many(&lamport, &mut prg, many));
    });
    let key = LamportKeyPair::generate(&lamport, &mut prg);
    let message = b"layer-kernel-message";
    b.per_unit("crypto.lamport.sign_us", US, 1.0, || {
        black_box(key.sign(black_box(message)));
    });
    let sig = key.sign(message);
    let vk = key.verification_key();
    b.per_unit("crypto.lamport.verify_us", US, 1.0, || {
        assert!(lamport.verify(&vk, black_box(message), &sig));
    });

    let mss = MssParams::new(bits, height);
    b.per_unit("crypto.mss.keygen_ms", MS, 1.0, || {
        black_box(MssKeyPair::generate(&mss, &mut prg));
    });
    let key = MssKeyPair::generate(&mss, &mut prg);
    b.per_unit("crypto.mss.sign_us", US, 1.0, || {
        black_box(key.sign_with_index(black_box(message), 0));
    });
    let sig = key.sign_with_index(message, 0);
    let vk = key.verification_key();
    b.per_unit("crypto.mss.verify_us", US, 1.0, || {
        assert!(mss.verify(&vk, black_box(message), &sig));
    });

    // The coin at the supreme-committee size.
    let c = params.committee_size;
    let t = (c - 1) / 3;
    b.per_unit("crypto.vss.deal_us", US, 1.0, || {
        black_box(CommittedShares::deal(Fp::new(7), t, c, &mut prg));
    });
    let dealt = CommittedShares::deal(Fp::new(7), t, c, &mut prg);
    let packets: Vec<_> = (0..c).map(|i| dealt.packet(i)).collect();
    let root = dealt.root();
    b.per_unit("crypto.vss.reconstruct_us", US, 1.0, || {
        assert_eq!(
            reconstruct_committed(&root, t, c, black_box(&packets)),
            Ok(Fp::new(7))
        );
    });
    let points: Vec<(Fp, Fp)> = (0..c)
        .map(|i| {
            let share = dealt.share(i);
            (Fp::new(share.index), share.value)
        })
        .collect();
    b.per_unit("crypto.reed_solomon.decode_us", US, 1.0, || {
        black_box(reed_solomon::decode(black_box(&points), t + 1, t).expect("clean codeword"));
    });
}

/// Scheme kernels plus the certificate codec, on a key board of the
/// workload's slot count aggregated in the tree's own shape (leaf ranges
/// of `leaf_slots`, then `branching` children per node).
fn srds<S>(b: &mut Bench<'_>, make: &dyn Fn() -> S, params: TreeParams)
where
    S: Srds,
    S::Signature: Encode + Decode,
{
    let slots = params.total_slots().min(MAX_KERNEL_SLOTS);
    let scheme = make();
    let mut prg = Prg::from_seed_label(b"kernels", "srds");
    let board = PkiBoard::establish(&scheme, slots, &mut prg);
    let keys = board.prepare(&scheme);
    let value_seed = ValueSeed {
        epoch: 0,
        value: vec![1],
        seed: Digest::ZERO,
    };
    let message = wire::encode_msg(&value_seed);

    let mut next = 0usize;
    b.per_unit("srds.sign_us", US, 1.0, || {
        let i = next % slots;
        next += 1;
        black_box(scheme.sign_epoch(&board.pp, i as u64, &board.sks[i], 0, &message));
    });
    let sigs: Vec<Option<S::Signature>> = (0..slots)
        .map(|i| scheme.sign_epoch(&board.pp, i as u64, &board.sks[i], 0, &message))
        .collect();

    // One ascent on a fresh scheme per operation, so the certificate cache
    // is as cold as at the start of a decision.
    let ascend = |scheme: &S| -> Option<S::Signature> {
        let mut level: Vec<Option<S::Signature>> = sigs
            .chunks(params.leaf_slots)
            .map(|leaf| {
                let present: Vec<S::Signature> = leaf.iter().flatten().cloned().collect();
                scheme.aggregate(&board.pp, &keys, &message, &present)
            })
            .collect();
        while level.len() > 1 {
            level = level
                .chunks(params.branching)
                .map(|children| {
                    let present: Vec<S::Signature> = children.iter().flatten().cloned().collect();
                    scheme.aggregate(&board.pp, &keys, &message, &present)
                })
                .collect();
        }
        level.pop().flatten()
    };
    let signed = sigs.iter().flatten().count();
    b.per_unit("srds.aggregate_us_per_sig", US, signed as f64, || {
        black_box(ascend(&make()));
    });
    let root = ascend(&scheme).expect("kernel ascent forms a root certificate");
    b.per_unit("srds.verify_us", US, 1.0, || {
        assert!(make().verify(&board.pp, &keys, black_box(&message), &root));
    });
    b.record("srds.cert_bytes", scheme.signature_len(&root) as f64, 1);

    // The certificate codec path of steps 6-8: the wire `Certificate`
    // around the scheme-encoded signature, and back.
    let certificate = |sig: &S::Signature| Certificate {
        epoch: value_seed.epoch,
        value: value_seed.value.clone(),
        seed: value_seed.seed,
        sig: encode_to_vec(sig),
    };
    let encoded = wire::encode_msg(&certificate(&root));
    let kib = encoded.len() as f64 / 1024.0;
    b.per_unit("crypto.codec.cert_encode_ns_per_kib", NS, kib, || {
        black_box(wire::encode_msg(&certificate(black_box(&root))));
    });
    b.per_unit("crypto.codec.cert_decode_ns_per_kib", NS, kib, || {
        let cert = wire::decode_msg::<Certificate>(black_box(&encoded)).expect("own encoding");
        black_box(decode_from_slice::<S::Signature>(&cert.sig).expect("own encoding"));
    });
}

/// Knowledge of a SHA-256 preimage: the smallest real relation, so the
/// kernel times the proof system rather than a predicate.
struct Preimage;

impl Relation for Preimage {
    type Statement = Digest;
    type Witness = Vec<u8>;
    fn id(&self) -> &'static str {
        "benchmark-preimage"
    }
    fn check(&self, statement: &Digest, witness: &Vec<u8>) -> bool {
        Sha256::digest(witness) == *statement
    }
    fn encode_statement(&self, statement: &Digest, buf: &mut Vec<u8>) {
        buf.extend_from_slice(statement.as_bytes());
    }
}

fn snark(b: &mut Bench<'_>) {
    let system = SnarkSystem::new(SnarkCrs::setup(b"kernels"), Preimage);
    let witness = b"layer-kernel-witness".to_vec();
    let statement = Sha256::digest(&witness);
    b.per_unit("snark.prove_us", US, 1.0, || {
        black_box(
            system
                .prove(black_box(&statement), &witness)
                .expect("satisfied"),
        );
    });
    let proof = system.prove(&statement, &witness).expect("satisfied");
    b.per_unit("snark.verify_us", US, 1.0, || {
        assert!(system.verify(black_box(&statement), &proof));
    });
}

fn aetree(b: &mut Bench<'_>, params: TreeParams) {
    let n = params.n as f64;
    b.per_unit("aetree.tree.build_ns_per_party", NS, n, || {
        black_box(Tree::build(black_box(&params), b"kernels/tree"));
    });
    let tree = Tree::build(&params, b"kernels/tree");
    let corrupt = BTreeSet::new();
    let payload = wire::encode_msg(&ValueSeed {
        epoch: 0,
        value: vec![1],
        seed: Digest::ZERO,
    });
    b.per_unit("aetree.fae.disseminate_ns_per_party", NS, n, || {
        let mut net = Network::new(params.n);
        let result = disseminate(
            &mut net,
            &tree,
            &corrupt,
            &|_| Some(payload.clone()),
            &mut honest_adversary(),
        );
        assert!(result.per_party.iter().all(Option::is_some));
    });
    let inputs = vec![1u8; params.n];
    b.per_unit("aetree.robust.fanin_ns_per_party", NS, n, || {
        let mut net = Network::new(params.n);
        let outcome = robust_input_fanin(&mut net, &tree, &corrupt, &inputs, None);
        assert_eq!(outcome.root_value, Some(1));
    });
}

/// Ring gossip with a hash chain per round: enough compute per party
/// that the scheduler has something to balance.
struct Ring {
    id: PartyId,
    n: usize,
    rounds_left: u64,
    state: Digest,
}

impl Machine for Ring {
    fn on_round(&mut self, ctx: &mut Ctx<'_>, inbox: &[Envelope]) {
        let mut h = Sha256::new();
        h.update(self.state.as_bytes());
        for env in inbox {
            if let Some(d) = ctx.read::<Digest>(env) {
                h.update(d.as_bytes());
            }
        }
        let mut acc = h.finalize();
        for _ in 0..RING_HASHES {
            acc = Sha256::digest(acc.as_bytes());
        }
        self.state = acc;
        if self.rounds_left > 1 {
            ctx.send(PartyId(((self.id.0 as usize + 1) % self.n) as u64), &acc);
        }
        self.rounds_left = self.rounds_left.saturating_sub(1);
    }

    fn is_done(&self) -> bool {
        self.rounds_left == 0
    }
}

const RING_ROUNDS: u64 = 8;
const RING_HASHES: usize = 64;
/// Ring size cap: keeps one phase near a tenth of a second at n = 16384.
const RING_MAX: usize = 1024;

fn ring_phase(n: usize, threads: usize) {
    let mut net = Network::new(n);
    let mut machines: Vec<Ring> = (0..n)
        .map(|i| Ring {
            id: PartyId(i as u64),
            n,
            rounds_left: RING_ROUNDS,
            state: Sha256::digest(&(i as u64).to_le_bytes()),
        })
        .collect();
    let mut erased: BTreeMap<PartyId, Box<dyn Machine + Send + '_>> = machines
        .iter_mut()
        .map(|m| (m.id, Box::new(m) as Box<dyn Machine + Send + '_>))
        .collect();
    let mut adversary = SilentAdversary::new([]);
    let outcome = if threads <= 1 {
        run_phase(&mut net, &mut erased, &mut adversary, RING_ROUNDS + 2)
    } else {
        run_phase_threaded(
            &mut net,
            &mut erased,
            &mut adversary,
            RING_ROUNDS + 2,
            threads,
        )
    };
    assert!(outcome.completed, "ring phase must terminate");
}

fn net(b: &mut Bench<'_>, params: TreeParams) {
    let n = params.n;
    let c = params.committee_size as u64;

    // Metrics table: the tagged send/receive pair every charged byte pays,
    // over committee-sized neighbourhoods.
    let mut table = MetricsTable::new(n);
    let mut i = 0u64;
    b.per_unit("net.metrics.charge_ns", NS, 1.0, || {
        let from = PartyId(i % n as u64);
        let to = PartyId((i / c * 31 + i % c) % n as u64);
        table.record_send_tagged(from, to, 121, tag::AGGR_SHARE);
        table.record_receive_tagged(to, from, 121, tag::AGGR_SHARE);
        i += 1;
    });
    b.per_unit("net.metrics.report_us", US, 1.0, || {
        black_box(table.report());
    });

    let ring = n.min(RING_MAX);
    let runner = b.rate("net.runner.rounds_per_s", RING_ROUNDS as f64, || {
        ring_phase(ring, 1)
    });
    let sched = b.rate("net.sched.rounds_per_s", RING_ROUNDS as f64, || {
        ring_phase(ring, 2)
    });
    b.record("net.sched.speedup", sched / runner, 1);

    // Wire codec: the three phase-king messages, the bulk of committee
    // traffic.
    let messages = [PkMsg::Value(1u8), PkMsg::Propose(0), PkMsg::King(1)];
    b.per_unit(
        "net.wire.encode_ns_per_msg",
        NS,
        messages.len() as f64,
        || {
            for m in &messages {
                black_box(wire::encode_msg(black_box(m)));
            }
        },
    );
    let encoded: Vec<Vec<u8>> = messages.iter().map(wire::encode_msg).collect();
    b.per_unit(
        "net.wire.decode_ns_per_msg",
        NS,
        encoded.len() as f64,
        || {
            for e in &encoded {
                black_box(wire::decode_msg::<PkMsg<u8>>(black_box(e)).expect("own encoding"));
            }
        },
    );

    // Framing: envelope frames written to a buffer and parsed back.
    let frames: Vec<Frame> = (0..64u64)
        .map(|k| Frame::Envelope {
            staged_idx: k,
            env: Envelope::new(PartyId(k), PartyId(k + 1), vec![k as u8; 256]),
        })
        .collect();
    let mut wire_bytes = Vec::new();
    frames.iter().for_each(|f| write_frame(&mut wire_bytes, f));
    let mib = wire_bytes.len() as f64 / MIB;
    b.rate("net.framing.mib_per_s", mib, || {
        let mut buf = Vec::with_capacity(wire_bytes.len());
        frames.iter().for_each(|f| write_frame(&mut buf, f));
        let mut reader = FrameReader::new();
        reader.push(&buf);
        let mut parsed = 0;
        while let Ok(Some(frame)) = reader.pop() {
            black_box(frame);
            parsed += 1;
        }
        assert_eq!(parsed, frames.len());
    });

    transport(b);
}

const TRANSPORT_EXCHANGES: u64 = 2000;

/// Two `TcpTransport` endpoints over loopback, each on its own thread,
/// exchanging a 4-party all-to-all batch in lockstep. Recorded as 0 when
/// the sandbox has no loopback networking.
fn transport(b: &mut Bench<'_>) {
    let name = "net.transport.exchange_us";
    let span = b.tracer.begin(name, b.parent, 0);
    let per_exchange = loopback_exchange_seconds();
    b.tracer.end(span);
    match per_exchange {
        Ok(seconds) => b.record(name, seconds * US, TRANSPORT_EXCHANGES),
        Err(e) => {
            eprintln!("{name}: loopback transport unavailable ({e}); recorded as 0");
            b.record(name, 0.0, 0);
        }
    }
}

fn loopback_exchange_seconds() -> Result<f64, String> {
    let parties = 4u64;
    let listeners: Vec<TcpListener> = (0..2)
        .map(|_| TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let addrs: Vec<String> = listeners
        .iter()
        .map(|l| {
            l.local_addr()
                .map(|a| a.to_string())
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let map = PeerMap::contiguous(parties as usize, addrs, 0);
    let genesis = genesis_digest(b"kernels", "charged", "snark", &map);
    let opts = TransportOpts {
        connect_timeout: Duration::from_secs(5),
        hello_timeout: Duration::from_secs(5),
        recv_timeout: Duration::from_secs(5),
    };
    let staged = |seq: u64| -> Vec<Envelope> {
        (0..parties)
            .flat_map(|from| {
                (0..parties)
                    .map(move |to| Envelope::new(PartyId(from), PartyId(to), vec![seq as u8; 64]))
            })
            .collect()
    };
    let endpoint = |e: usize, listener: TcpListener| -> Result<f64, String> {
        let mut transport =
            TcpTransport::with_listener(map.for_endpoint(e), genesis, 0, opts, listener)
                .map_err(|e| e.to_string())?;
        let start = Instant::now();
        for seq in 0..TRANSPORT_EXCHANGES {
            black_box(
                transport
                    .exchange(seq, staged(seq))
                    .map_err(|e| e.to_string())?,
            );
        }
        Ok(start.elapsed().as_secs_f64() / TRANSPORT_EXCHANGES as f64)
    };
    std::thread::scope(|scope| {
        let mut listeners = listeners.into_iter();
        let (first, second) = (
            listeners.next().expect("two"),
            listeners.next().expect("two"),
        );
        let peer = scope.spawn(|| endpoint(1, second));
        let mine = endpoint(0, first);
        let peer = peer
            .join()
            .map_err(|_| "peer endpoint panicked".to_string())?;
        peer.and(mine)
    })
}

fn core(b: &mut Bench<'_>, params: TreeParams) {
    let committee: Vec<PartyId> = (0..params.committee_size as u64).map(PartyId).collect();
    b.per_unit("core.phase_king.run_ms", MS, 1.0, || {
        let mut net = Network::new(committee.len());
        let mut machines: Vec<PhaseKing<u8>> = committee
            .iter()
            .map(|&p| PhaseKing::new(committee.clone(), p, (p.0 % 2) as u8))
            .collect();
        let mut erased: BTreeMap<PartyId, Box<dyn Machine + Send + '_>> = committee
            .iter()
            .zip(machines.iter_mut())
            .map(|(&p, m)| (p, Box::new(m) as Box<dyn Machine + Send + '_>))
            .collect();
        let outcome = run_phase(
            &mut net,
            &mut erased,
            &mut SilentAdversary::new([]),
            rounds_for(committee.len()) + 6,
        );
        assert!(outcome.completed, "phase-king must terminate");
    });
    let prg = Prg::from_seed_label(b"kernels", "coin");
    let mut toss = 0u64;
    b.per_unit("core.vss_coin.toss_ms", MS, 1.0, || {
        let mut net = Network::new(committee.len());
        toss += 1;
        let seeds = toss_coin_vss(
            &mut net,
            &committee,
            &mut SilentAdversary::new([]),
            &mut prg.child("toss", toss),
        );
        assert_eq!(seeds.len(), committee.len());
    });
}
