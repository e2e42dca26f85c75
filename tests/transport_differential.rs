//! Differential sim-vs-socket suite (fast tier; see DESIGN.md §3c).
//!
//! Every socket endpoint runs the full deterministic simulation and
//! substitutes authoritative socket bytes at each exchange, so the
//! in-process run over [`pba_net::LocalTransport`] is a golden oracle:
//! a correct deployment reproduces it **exactly** — the chained delivery
//! transcript and every other observable the differential oracle
//! (`support/differential.rs`) compares. This tier runs `k`-endpoint
//! fleets as loopback-TCP threads, honest runs and the chaos catalogue's
//! timing rows (whose delay queue acts on the exchanged batch), two of
//! them also as a pipelined stream;
//! `crates/bench/tests/transport_full.rs` repeats the diff with real
//! `node` processes.
//!
//! The negative half checks the never-hang/never-panic contract: peer
//! drop mid-round, connect timeout, wrong-genesis hello, and tick-base
//! skew each surface as a structured [`pba_net::TransportError`] (or a
//! [`ProtocolError::Transport`] once the protocol is running), bounded
//! by the transport watchdog timeouts.

#[path = "support/differential.rs"]
mod differential;

use differential::{
    differential, observe, ones, reference, Backend, Context, Entry, Scheme, Variant, Verdict,
};
use pba_bench::chaos::default_cases;
use pba_bench::socket::SocketSpec;
use pba_core::protocol::{Establishment, ProtocolError, RunOutcome, StreamMode};
use pba_net::{HelloField, PeerMap, TcpTransport, Transport, TransportError, TransportOpts};
use std::net::TcpListener;
use std::time::Duration;

/// The honest single shot of `(n, seed)` over a `k`-endpoint loopback
/// fleet agreeing on `tick_base` matches the in-process oracle on every
/// observable, and the oracle agrees and conserves its tag bytes.
/// Returns the bytes each endpoint wrote to its sockets.
fn fleet_matches_oracle(
    n: usize,
    k: usize,
    est: Establishment,
    seed: &str,
    tick_base: u64,
) -> Vec<u64> {
    let mut ctx = Context::honest(n, seed.as_bytes());
    ctx.config.establishment = est;
    let single = Variant::REFERENCE.with(|v| v.entry = Entry::Single);
    let oracle = observe(&ctx, single).remove(0);
    let [Verdict::Delivered(outputs, _)] = &oracle.results[..] else {
        panic!("oracle failed: {:?}", oracle.results);
    };
    assert!(
        outputs.iter().all(|o| o.is_some() && *o == outputs[0]),
        "{outputs:?}"
    );
    assert!(!oracle.transcript.is_empty(), "oracle records a transcript");
    assert_eq!(oracle.tags_conserve, Some(true));
    let runs = observe(
        &ctx,
        single.with(|v| {
            v.backend = Backend::Fleet {
                endpoints: k,
                tick_base,
            }
        }),
    );
    for (e, run) in runs.iter().enumerate() {
        differential(&oracle, run).unwrap_or_else(|d| panic!("n={n} {est:?} endpoint {e}: {d}"));
    }
    runs.iter().map(|run| run.socket_bytes).collect()
}

fn diff_cell(n: usize, k: usize, est: Establishment) {
    let seed = format!("diff/{n}/{k}/{}", est.label());
    let bytes = fleet_matches_oracle(n, k, est, &seed, 0);
    assert!(
        bytes.iter().all(|&b| b > 0),
        "every endpoint sent real bytes: {bytes:?}"
    );
}

#[test]
fn diff_n16_charged_two_endpoints() {
    diff_cell(16, 2, Establishment::Charged);
}

#[test]
fn diff_n16_interactive_two_endpoints() {
    diff_cell(16, 2, Establishment::Interactive);
}

#[test]
fn diff_n64_charged_three_endpoints() {
    diff_cell(64, 3, Establishment::Charged);
}

#[test]
fn diff_n64_interactive_two_endpoints() {
    diff_cell(64, 2, Establishment::Interactive);
}

/// The `chaos-ci` catalogue's 16 timing rows (every timing strategy
/// against the random and leaf-takeover placements, and six dedicated
/// rows: fixed lag, a permanent partition, two churn shapes, latency ×
/// equivocation, latency under interactive establishment) as single shots
/// over a 2-endpoint loopback fleet: every endpoint exchanges through its
/// socket and then delays, drops and expires what the in-process oracle
/// does, so each matches it on every observable and wrote socket bytes.
#[test]
fn timing_fleet_rows_match_the_oracle() {
    let cases: Vec<_> = default_cases(b"chaos-ci")
        .into_iter()
        .filter(|case| Context::chaos(case).has_timing())
        .collect();
    assert_eq!(cases.len(), 16, "the timing block changed size");
    let single = Variant::REFERENCE.with(|v| v.entry = Entry::Single);
    let fleet = single.with(|v| {
        v.backend = Backend::Fleet {
            endpoints: 2,
            tick_base: 0,
        }
    });
    for case in &cases {
        let ctx = Context::chaos(case);
        let oracle = observe(&ctx, single).remove(0);
        for (e, run) in observe(&ctx, fleet).iter().enumerate() {
            let at = format!("[{}] endpoint {e}", case.key());
            differential(&oracle, run).unwrap_or_else(|d| panic!("{at}: {d}\n{}", case.repro()));
            assert!(run.socket_bytes > 0, "{at}: no socket bytes");
        }
        let verdict = match &oracle.results[..] {
            [Verdict::Delivered(..)] => "delivered".to_string(),
            other => format!("{other:?}"),
        };
        eprintln!("timing fleet row [{}]: {verdict}", case.key());
    }
}

/// Two of those rows — a healing partition and short churn, under both
/// placements — as a 3-instance pipelined stream over a 2-endpoint
/// loopback fleet: pipelining moves no delivery tick, so every endpoint
/// matches the in-process sequential stream under the pipelining law,
/// transcripts included.
#[test]
fn timing_fleet_pipelined_rows_match_the_sequential_oracle() {
    let labels = ["partition-24-heal4", "churn-2@2-10"];
    let cases: Vec<_> = default_cases(b"chaos-ci")
        .into_iter()
        .filter(|case| labels.contains(&case.spec.label().as_str()))
        .collect();
    assert_eq!(cases.len(), 4, "two specs × two placements");
    let pipelined = Variant::REFERENCE.with(|v| {
        v.entry = Entry::Stream(StreamMode::Pipelined);
        v.backend = Backend::Fleet {
            endpoints: 2,
            tick_base: 0,
        }
    });
    for case in &cases {
        let mut ctx = Context::chaos(case);
        (ctx.scheme, ctx.instances) = (Scheme::Snark(2), ones(case.n, 3));
        let oracle = reference(&ctx);
        for (e, run) in observe(&ctx, pipelined).iter().enumerate() {
            let at = format!("[{}] endpoint {e}", case.key());
            differential(&oracle, run).unwrap_or_else(|d| panic!("{at}: {d}\n{}", case.repro()));
            assert!(run.socket_bytes > 0, "{at}: no socket bytes");
        }
        let (key, decided) = (case.key(), oracle.decisions.unwrap_or(0));
        eprintln!("pipelined fleet row [{key}]: {decided} of 3 decided");
    }
}

/// A single-endpoint "deployment" degenerates to the oracle: no sockets,
/// same observables — the base case of the substitution argument.
#[test]
fn single_endpoint_fleet_equals_oracle() {
    let bytes = fleet_matches_oracle(16, 1, Establishment::Charged, "diff/single", 0);
    assert_eq!(bytes, [0], "no cross-endpoint traffic");
}

/// Binds `k` loopback listeners and returns (addrs, listeners) — the
/// race-free way to assemble a test mesh.
fn bind_endpoints(k: usize) -> (Vec<String>, Vec<TcpListener>) {
    let listeners: Vec<TcpListener> = (0..k)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
        .collect();
    let addrs = listeners
        .iter()
        .map(|l| l.local_addr().expect("addr").to_string())
        .collect();
    (addrs, listeners)
}

fn short_opts() -> TransportOpts {
    TransportOpts {
        connect_timeout: Duration::from_millis(2000),
        hello_timeout: Duration::from_millis(2000),
        recv_timeout: Duration::from_millis(500),
    }
}

/// A peer that completes the handshake and then vanishes mid-round: the
/// running protocol reports a structured `ProtocolError::Transport`
/// (peer-closed or watchdog) instead of hanging or panicking.
#[test]
fn peer_drop_mid_round_is_structured() {
    let spec = SocketSpec::new(16, 2, "diff/drop");
    let (addrs, listeners) = bind_endpoints(2);
    let mut listeners = listeners.into_iter();
    let l0 = listeners.next().expect("l0");
    let l1 = listeners.next().expect("l1");

    let spec1 = spec.clone();
    let addrs1 = addrs.clone();
    let quitter = std::thread::spawn(move || {
        let map = PeerMap::contiguous(spec1.n, addrs1, 1);
        let genesis = spec1.genesis(&map);
        // Handshake fully, then drop the transport: a Bye goes out and
        // the stream closes before the first exchange completes.
        let transport =
            TcpTransport::with_listener(map, genesis, spec1.tick_base, short_opts(), l1)
                .expect("mesh");
        drop(transport);
    });

    let map = PeerMap::contiguous(spec.n, addrs, 0);
    let genesis = spec.genesis(&map);
    let transport =
        TcpTransport::with_listener(map, genesis, spec.tick_base, short_opts(), l0).expect("mesh");
    let run = spec.run_over(Box::new(transport));
    quitter.join().expect("quitter");

    match &run.outcome {
        RunOutcome::Failed { reason, .. } => {
            assert!(
                matches!(
                    reason,
                    ProtocolError::Transport {
                        error: TransportError::PeerClosed { .. }
                            | TransportError::RecvTimeout { .. },
                        ..
                    }
                ),
                "expected structured transport failure, got {reason}"
            );
        }
        RunOutcome::Completed(_) => panic!("run completed over a dead peer"),
    }
}

/// A peer that meshes but never participates in exchanges: the watchdog
/// converts the silence into a bounded `RecvTimeout`.
#[test]
fn silent_peer_trips_watchdog() {
    let spec = SocketSpec::new(16, 2, "diff/silent");
    let (addrs, listeners) = bind_endpoints(2);
    let mut listeners = listeners.into_iter();
    let l0 = listeners.next().expect("l0");
    let l1 = listeners.next().expect("l1");

    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let spec1 = spec.clone();
    let addrs1 = addrs.clone();
    let silent = std::thread::spawn(move || {
        let map = PeerMap::contiguous(spec1.n, addrs1, 1);
        let genesis = spec1.genesis(&map);
        let transport =
            TcpTransport::with_listener(map, genesis, spec1.tick_base, short_opts(), l1)
                .expect("mesh");
        // Hold the connection open without ever exchanging until the
        // driving endpoint has observed the timeout.
        let _ = done_rx.recv_timeout(Duration::from_secs(30));
        drop(transport);
    });

    let map = PeerMap::contiguous(spec.n, addrs, 0);
    let genesis = spec.genesis(&map);
    let mut transport =
        TcpTransport::with_listener(map, genesis, spec.tick_base, short_opts(), l0).expect("mesh");
    let started = std::time::Instant::now();
    let staged = Vec::new();
    let err = transport.exchange(0, staged).expect_err("watchdog fires");
    assert!(
        matches!(err, TransportError::RecvTimeout { seq: 0, .. }),
        "expected RecvTimeout, got {err}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "watchdog unbounded"
    );
    done_tx.send(()).ok();
    silent.join().expect("silent peer");
}

/// Nothing listens on the target: a bounded `ConnectTimeout`, not a hang.
#[test]
fn connect_timeout_is_bounded() {
    // Port 1 is privileged and unassigned: every dial is refused, and
    // nothing can race to bind it.
    let dead_addr = "127.0.0.1:1".to_string();
    let live = TcpListener::bind("127.0.0.1:0").expect("bind");
    let live_addr = live.local_addr().expect("addr").to_string();
    let map = PeerMap::contiguous(16, vec![dead_addr.clone(), live_addr], 1);
    let spec = SocketSpec::new(16, 2, "diff/connect-timeout");
    let genesis = spec.genesis(&map);
    let started = std::time::Instant::now();
    let err = TcpTransport::with_listener(
        map,
        genesis,
        0,
        TransportOpts {
            connect_timeout: Duration::from_millis(400),
            ..short_opts()
        },
        live,
    )
    .expect_err("nothing listens");
    assert_eq!(err, TransportError::ConnectTimeout { addr: dead_addr });
    assert!(started.elapsed() < Duration::from_secs(10));
}

/// Endpoints configured with different seeds derive different genesis
/// digests and reject each other at hello time — on *both* sides.
#[test]
fn wrong_genesis_hello_rejected_both_sides() {
    let (addrs, listeners) = bind_endpoints(2);
    let specs = [
        SocketSpec::new(16, 2, "diff/genesis-a"),
        SocketSpec::new(16, 2, "diff/genesis-b"),
    ];
    let handles: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(e, listener)| {
            let spec = specs[e].clone();
            let addrs = addrs.clone();
            std::thread::spawn(move || {
                let map = PeerMap::contiguous(spec.n, addrs, e);
                let genesis = spec.genesis(&map);
                TcpTransport::with_listener(map, genesis, spec.tick_base, short_opts(), listener)
                    .err()
            })
        })
        .collect();
    for handle in handles {
        let err = handle.join().expect("endpoint").expect("hello must fail");
        match err {
            TransportError::Hello { mismatch, .. } => {
                assert_eq!(mismatch.field, HelloField::Genesis)
            }
            other => panic!("expected genesis mismatch, got {other}"),
        }
    }
}

/// The tick-base handshake (round-numbering agreement for cross-process
/// partial-synchrony drivers): endpoints whose drivers would number
/// rounds differently are rejected at hello time instead of drifting
/// mid-run.
#[test]
fn tick_base_skew_rejected_at_hello() {
    let (addrs, listeners) = bind_endpoints(2);
    let handles: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(e, listener)| {
            let addrs = addrs.clone();
            std::thread::spawn(move || {
                let spec = SocketSpec::new(16, 2, "diff/tickbase");
                let map = PeerMap::contiguous(spec.n, addrs, e);
                let genesis = spec.genesis(&map);
                // Endpoint 1 believes rounds start at tick 7.
                let tick_base = if e == 0 { 0 } else { 7 };
                TcpTransport::with_listener(map, genesis, tick_base, short_opts(), listener).err()
            })
        })
        .collect();
    for handle in handles {
        let err = handle.join().expect("endpoint").expect("hello must fail");
        match err {
            TransportError::Hello { mismatch, .. } => {
                assert_eq!(mismatch.field, HelloField::TickBase)
            }
            other => panic!("expected tick-base mismatch, got {other}"),
        }
    }
}

/// Agreeing tick bases pass the handshake and leave the run untouched:
/// the tick base feeds round numbering, not delivery bytes.
#[test]
fn agreed_tick_base_preserves_transcript() {
    fleet_matches_oracle(16, 2, Establishment::Charged, "diff/tickbase-ok", 7);
}
