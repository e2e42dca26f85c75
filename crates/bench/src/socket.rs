//! Multi-process socket deployment of `π_ba` (§E-socket).
//!
//! Every endpoint runs the *full* deterministic simulation — all protocol
//! state derives from the shared `(seed, config)` — and a
//! [`pba_net::TcpTransport`] substitutes authoritative socket bytes for
//! the locally staged envelopes at every exchange. The in-process run
//! over [`pba_net::LocalTransport`] is therefore a golden oracle: a
//! correct deployment produces the **same chained delivery-transcript
//! digest** on every backend, and any in-flight divergence (corruption,
//! reordering, version skew) changes the digest at the first affected
//! exchange.
//!
//! Three deployment shapes, all driven from the `node` binary
//! (`cargo run -p pba-bench --bin node -- <sim|run|launch|table>`):
//!
//! * **sim** — the oracle: one process, [`pba_net::LocalTransport`];
//! * **loopback fleet** — `k` endpoints as threads of one process, real
//!   TCP over `127.0.0.1` ([`run_loopback_fleet`]);
//! * **multi-process** — `k` `node run` processes launched by
//!   [`launch_processes`], digests diffed against the oracle.

use pba_core::protocol::{try_run_ba_over, BaConfig, Establishment, RunOutcome, TransportRun};
use pba_crypto::sha256::Digest;
use pba_net::{
    genesis_digest, LocalTransport, PeerMap, TcpTransport, Transport, TransportError, TransportOpts,
};
use pba_srds::snark::SnarkSrds;
use std::net::TcpListener;
use std::process::{Command, Stdio};

/// SRDS scheme selector for socket runs (string-addressable so it can
/// cross a process boundary on the command line).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchemeKind {
    /// SNARK/bare-PKI SRDS — the default: cheap enough to replicate the
    /// full simulation per endpoint.
    Snark,
    /// OWF/trusted-PKI SRDS (compute-heavy; small `n` only).
    Owf,
}

impl SchemeKind {
    /// Short label (also the genesis-binding scheme string).
    pub fn label(&self) -> &'static str {
        match self {
            SchemeKind::Snark => "snark",
            SchemeKind::Owf => "owf",
        }
    }

    /// Parses a label produced by [`SchemeKind::label`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "snark" => Some(SchemeKind::Snark),
            "owf" => Some(SchemeKind::Owf),
            _ => None,
        }
    }
}

/// Parses an establishment label (`charged` / `interactive`).
pub fn parse_establishment(s: &str) -> Option<Establishment> {
    match s {
        "charged" => Some(Establishment::Charged),
        "interactive" => Some(Establishment::Interactive),
        _ => None,
    }
}

/// The shared deployment contract: everything every endpoint must agree
/// on for the replicas to stay in lockstep. Bound into the genesis digest
/// exchanged in the transport hello, so a misconfigured endpoint is
/// rejected at connection time instead of diverging mid-run.
#[derive(Clone, Debug)]
pub struct SocketSpec {
    /// Parties in the simulated protocol.
    pub n: usize,
    /// Deployment endpoints (processes or threads).
    pub k: usize,
    /// Protocol seed (UTF-8; crosses the command line).
    pub seed: String,
    /// SRDS scheme.
    pub scheme: SchemeKind,
    /// Establishment mode.
    pub establishment: Establishment,
    /// Agreed tick base for round numbering (hello-validated so
    /// partial-synchrony drivers in different processes cannot skew).
    pub tick_base: u64,
}

impl SocketSpec {
    /// A fault-free spec with the default scheme and establishment.
    pub fn new(n: usize, k: usize, seed: &str) -> Self {
        SocketSpec {
            n,
            k,
            seed: seed.to_string(),
            scheme: SchemeKind::Snark,
            establishment: Establishment::Charged,
            tick_base: 0,
        }
    }

    /// The `π_ba` configuration every replica runs.
    pub fn config(&self) -> BaConfig {
        let mut config = BaConfig::honest(self.n, self.seed.as_bytes());
        config.establishment = self.establishment;
        config
    }

    /// Deterministic per-party inputs (mixed, so the certified value is
    /// data-dependent and a diverged replica cannot agree by accident).
    pub fn inputs(&self) -> Vec<u8> {
        (0..self.n).map(|i| (i % 2) as u8).collect()
    }

    /// The genesis digest endpoints must present in their hello.
    pub fn genesis(&self, map: &PeerMap) -> Digest {
        genesis_digest(
            self.seed.as_bytes(),
            self.establishment.label(),
            self.scheme.label(),
            map,
        )
    }

    /// Runs the full protocol over an explicit transport.
    pub fn run_over(&self, transport: Box<dyn Transport>) -> TransportRun {
        let config = self.config();
        let inputs = self.inputs();
        match self.scheme {
            SchemeKind::Snark => {
                try_run_ba_over(&SnarkSrds::with_defaults(), &config, &inputs, transport)
            }
            SchemeKind::Owf => try_run_ba_over(&crate::bench_owf(), &config, &inputs, transport),
        }
    }

    /// The in-process oracle run.
    pub fn run_sim(&self) -> TransportRun {
        self.run_over(Box::new(LocalTransport::new()))
    }

    /// Runs one socket endpoint: binds `map.addr(map.self_idx())`,
    /// meshes with the peers, and executes the full protocol.
    ///
    /// # Errors
    ///
    /// [`TransportError`] if the mesh cannot be established (bind/dial
    /// failure, hello timeout or mismatch). Protocol-level failures are
    /// reported inside the returned [`TransportRun`].
    pub fn run_endpoint(&self, map: PeerMap) -> Result<TransportRun, TransportError> {
        let genesis = self.genesis(&map);
        let transport =
            TcpTransport::connect(map, genesis, self.tick_base, TransportOpts::default())?;
        Ok(self.run_over(Box::new(transport)))
    }
}

/// Reserves `k` distinct loopback addresses by binding OS-assigned ports
/// and immediately releasing them. There is an inherent reuse window
/// between release and the endpoint's own bind; [`launch_processes`]
/// retries the whole deployment on a bind failure.
pub fn reserve_loopback_addrs(k: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> = (0..k)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr").to_string())
        .collect()
}

/// Runs a `k`-endpoint deployment as threads of this process over real
/// loopback TCP. Listeners are bound *before* the threads start (no
/// reuse race), and the peer map is built from the OS-assigned ports.
/// Returns one [`TransportRun`] per endpoint, in endpoint order.
pub fn run_loopback_fleet(spec: &SocketSpec) -> Vec<TransportRun> {
    loopback_fleet(
        spec.n,
        spec.k,
        spec.tick_base,
        |map| spec.genesis(map),
        |transport| spec.run_over(transport),
    )
}

/// The loopback fleet behind [`run_loopback_fleet`], for any run: `k`
/// endpoints of an `n`-party deployment, each meshing over TCP under the
/// genesis digest `genesis` gives its peer map and agreeing on
/// `tick_base`, then handing its transport to `run`. Returns what `run`
/// returned on each endpoint, in endpoint order.
pub fn loopback_fleet<T: Send>(
    n: usize,
    k: usize,
    tick_base: u64,
    genesis: impl Fn(&PeerMap) -> Digest + Sync,
    run: impl Fn(Box<dyn Transport>) -> T + Sync,
) -> Vec<T> {
    let listeners: Vec<TcpListener> = (0..k)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    let addrs: Vec<String> = listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr").to_string())
        .collect();
    let (genesis, run) = (&genesis, &run);
    std::thread::scope(|scope| {
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(e, listener)| {
                let addrs = addrs.clone();
                std::thread::Builder::new()
                    .name(format!("pba-endpoint-{e}"))
                    .spawn_scoped(scope, move || {
                        let map = PeerMap::contiguous(n, addrs, e);
                        let genesis = genesis(&map);
                        let transport = TcpTransport::with_listener(
                            map,
                            genesis,
                            tick_base,
                            TransportOpts::default(),
                            listener,
                        )
                        .expect("loopback mesh");
                        run(Box::new(transport))
                    })
                    .expect("spawn endpoint thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("endpoint thread"))
            .collect()
    })
}

/// Renders one endpoint's run as a single JSON line (the `node run`
/// stdout contract parsed by [`launch_processes`]).
pub fn endpoint_json(endpoint: usize, run: &TransportRun) -> String {
    let digest = run.final_digest().map(|d| d.to_hex()).unwrap_or_default();
    match &run.outcome {
        RunOutcome::Completed(out) => format!(
            concat!(
                "{{\"endpoint\":{},\"backend\":\"{}\",\"completed\":true,",
                "\"digest\":\"{}\",\"agreement\":{},\"output\":{},",
                "\"logical_total_bytes\":{},\"logical_max_bytes_per_party\":{},",
                "\"rounds\":{},\"tags_conserved\":{},",
                "\"exchanges\":{},\"socket_bytes_sent\":{},\"socket_bytes_received\":{},",
                "\"frames_sent\":{},\"frames_received\":{}}}"
            ),
            endpoint,
            run.kind,
            digest,
            out.agreement,
            out.output
                .map(|b| b.to_string())
                .unwrap_or_else(|| "null".into()),
            out.report.total_bytes,
            out.report.max_bytes_per_party,
            out.report.rounds,
            out.tags_conserved,
            run.stats.exchanges,
            run.stats.bytes_sent,
            run.stats.bytes_received,
            run.stats.frames_sent,
            run.stats.frames_received,
        ),
        RunOutcome::Failed { phase, reason } => format!(
            concat!(
                "{{\"endpoint\":{},\"backend\":\"{}\",\"completed\":false,",
                "\"digest\":\"{}\",\"phase\":\"{}\",\"reason\":\"{}\"}}"
            ),
            endpoint,
            run.kind,
            digest,
            phase,
            reason.to_string().replace('"', "'"),
        ),
    }
}

/// Extracts a string field from a one-line JSON object produced by
/// [`endpoint_json`] (hand-rolled like the rest of the repo's JSON — the
/// values it reads back never contain escapes).
pub fn json_str_field(line: &str, field: &str) -> Option<String> {
    let needle = format!("\"{field}\":\"");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

/// Extracts an unsigned integer field from a one-line JSON object.
pub fn json_u64_field(line: &str, field: &str) -> Option<u64> {
    let needle = format!("\"{field}\":");
    let start = line.find(&needle)? + needle.len();
    let digits: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Result of a multi-process deployment.
#[derive(Clone, Debug)]
pub struct LaunchSummary {
    /// The oracle's final transcript digest (hex).
    pub sim_digest: String,
    /// Every process's final transcript digest (hex), endpoint order.
    pub process_digests: Vec<String>,
    /// One raw JSON report line per endpoint.
    pub lines: Vec<String>,
    /// Whether every process digest equals the oracle digest.
    pub all_match: bool,
    /// Deployment attempts used (bind races retry the whole fleet).
    pub attempts: usize,
}

/// Launches `spec.k` real `node run` processes over loopback TCP, waits
/// for them, and diffs every process's transcript digest against the
/// in-process oracle. `node_exe` is the path to the `node` binary
/// (typically `std::env::current_exe()` or `CARGO_BIN_EXE_node`).
///
/// Port reservation is racy by nature (the listener is released before
/// the child binds it), so a deployment where any child fails to bind is
/// retried with fresh ports, up to three attempts.
///
/// # Panics
///
/// Panics if the children cannot be spawned or a child fails for a
/// non-bind reason (those are deployment bugs, not races).
pub fn launch_processes(spec: &SocketSpec, node_exe: &std::path::Path) -> LaunchSummary {
    let sim_digest = spec
        .run_sim()
        .final_digest()
        .map(|d| d.to_hex())
        .unwrap_or_default();

    let mut attempts = 0;
    loop {
        attempts += 1;
        let addrs = reserve_loopback_addrs(spec.k);
        let endpoints = addrs.join(",");
        let children: Vec<std::process::Child> = (0..spec.k)
            .map(|e| {
                Command::new(node_exe)
                    .args([
                        "run",
                        "--n",
                        &spec.n.to_string(),
                        "--seed",
                        &spec.seed,
                        "--scheme",
                        spec.scheme.label(),
                        "--establishment",
                        spec.establishment.label(),
                        "--tick-base",
                        &spec.tick_base.to_string(),
                        "--endpoints",
                        &endpoints,
                        "--self-idx",
                        &e.to_string(),
                    ])
                    .stdout(Stdio::piped())
                    .stderr(Stdio::piped())
                    .spawn()
                    .expect("spawn node run")
            })
            .collect();

        let mut lines = Vec::with_capacity(spec.k);
        let mut bind_race = false;
        for child in children {
            let out = child.wait_with_output().expect("wait node run");
            let stdout = String::from_utf8_lossy(&out.stdout).trim().to_string();
            let stderr = String::from_utf8_lossy(&out.stderr);
            if !out.status.success() && stderr.contains("bind ") {
                bind_race = true;
            } else if !out.status.success() {
                panic!("node run failed (not a bind race): {stdout}\n{stderr}");
            }
            lines.push(stdout);
        }
        if bind_race {
            assert!(attempts < 3, "loopback port reservation lost 3 races");
            continue;
        }

        let process_digests: Vec<String> = lines
            .iter()
            .map(|l| json_str_field(l, "digest").unwrap_or_default())
            .collect();
        let all_match = !sim_digest.is_empty() && process_digests.iter().all(|d| *d == sim_digest);
        return LaunchSummary {
            sim_digest,
            process_digests,
            lines,
            all_match,
            attempts,
        };
    }
}

/// One row of the §E-socket sim-vs-socket measurement table.
#[derive(Clone, Debug)]
pub struct SocketRow {
    /// Parties simulated.
    pub n: usize,
    /// Deployment endpoints.
    pub k: usize,
    /// Logical (metered) max bytes per simulated party — the paper's
    /// headline measure, identical on both backends by construction.
    pub logical_max_bytes_per_party: u64,
    /// Logical total bytes across all parties.
    pub logical_total_bytes: u64,
    /// Physical bytes written to sockets, summed over endpoints (framed
    /// envelopes + round markers; only cross-endpoint traffic).
    pub socket_bytes: u64,
    /// Frames carried on the wire, summed over endpoints.
    pub socket_frames: u64,
    /// Whether every endpoint's transcript digest matched the oracle.
    pub digests_match: bool,
}

/// Measures the §E-socket table: for each `n`, one oracle run and one
/// `k`-endpoint loopback-TCP fleet, diffing transcript digests and
/// recording logical vs physical bytes.
pub fn socket_table(sizes: &[usize], k: usize, seed: &str) -> Vec<SocketRow> {
    sizes
        .iter()
        .map(|&n| {
            let spec = SocketSpec::new(n, k, &format!("{seed}/n{n}"));
            let sim = spec.run_sim();
            let fleet = run_loopback_fleet(&spec);
            let sim_digest = sim.final_digest();
            let digests_match =
                sim_digest.is_some() && fleet.iter().all(|r| r.final_digest() == sim_digest);
            let out = match &sim.outcome {
                RunOutcome::Completed(out) => out,
                RunOutcome::Failed { phase, reason } => {
                    panic!("oracle run failed at n={n} in {phase}: {reason}")
                }
            };
            SocketRow {
                n,
                k,
                logical_max_bytes_per_party: out.report.max_bytes_per_party,
                logical_total_bytes: out.report.total_bytes,
                socket_bytes: fleet.iter().map(|r| r.stats.bytes_sent).sum(),
                socket_frames: fleet.iter().map(|r| r.stats.frames_sent).sum(),
                digests_match,
            }
        })
        .collect()
}

/// Renders the §E-socket table.
pub fn render_socket_table(rows: &[SocketRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<6} {:<3} {:>18} {:>16} {:>14} {:>12} {:>8}\n",
        "n", "k", "logical max B/pty", "logical total B", "socket B", "frames", "digest"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<6} {:<3} {:>18} {:>16} {:>14} {:>12} {:>8}\n",
            row.n,
            row.k,
            row.logical_max_bytes_per_party,
            row.logical_total_bytes,
            row.socket_bytes,
            row.socket_frames,
            if row.digests_match { "match" } else { "DIFF" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_oracle_is_deterministic() {
        let spec = SocketSpec::new(16, 2, "socket-unit");
        let a = spec.run_sim();
        let b = spec.run_sim();
        assert_eq!(a.final_digest(), b.final_digest());
        assert!(a.final_digest().is_some());
        assert_eq!(a.kind, "sim");
        assert_eq!(a.stats.bytes_sent, 0, "sim backend touches no socket");
    }

    #[test]
    fn loopback_fleet_matches_oracle() {
        let spec = SocketSpec::new(16, 2, "socket-unit-fleet");
        let sim = spec.run_sim();
        let fleet = run_loopback_fleet(&spec);
        assert_eq!(fleet.len(), 2);
        for run in &fleet {
            assert_eq!(run.kind, "tcp");
            assert_eq!(run.final_digest(), sim.final_digest());
            assert!(run.stats.bytes_sent > 0, "cross-endpoint traffic flowed");
        }
    }

    #[test]
    fn endpoint_json_roundtrips_fields() {
        let spec = SocketSpec::new(16, 1, "socket-unit-json");
        let run = spec.run_sim();
        let line = endpoint_json(0, &run);
        assert_eq!(
            json_str_field(&line, "digest").as_deref(),
            Some(run.final_digest().expect("digest").to_hex().as_str())
        );
        assert_eq!(json_u64_field(&line, "endpoint"), Some(0));
        assert_eq!(
            json_u64_field(&line, "logical_total_bytes"),
            Some(match &run.outcome {
                RunOutcome::Completed(out) => out.report.total_bytes,
                _ => panic!("completed"),
            })
        );
    }
}
