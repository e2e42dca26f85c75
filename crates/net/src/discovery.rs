//! Peer discovery and party-to-peer mapping for multi-endpoint
//! deployments.
//!
//! A *deployment* splits the `n` protocol parties across `k` transport
//! endpoints (processes or in-process loopback endpoints). The
//! [`PeerMap`] is the explicit, validated description of that split —
//! following the sparse-network BA line (Augustine et al.), the mapping is
//! a first-class object rather than an assumed clique: every endpoint
//! knows exactly which parties every other endpoint speaks for, and the
//! [`Hello`] handshake re-verifies the whole map before any protocol byte
//! flows.
//!
//! The handshake also carries the **tick base** — the network tick at
//! which the endpoints' round clocks start. The deterministic simulator
//! always ran `take_staged` callers and the round driver in one process,
//! so "everyone agrees what round it is" held by construction; across
//! processes it is an *assumption*, and the round engine under a timing
//! model numbers its delivery windows from this base.
//! The hello makes the assumption checkable: endpoints with different
//! tick bases refuse to pair instead of silently running skewed windows
//! (see `HelloField::TickBase` rejections in [`crate::transport`]).

use crate::envelope::PartyId;
use pba_crypto::codec::{CodecError, Decode, Encode, Reader};
use pba_crypto::sha256::{Digest, Sha256};
use std::collections::BTreeSet;

/// Version byte of the transport handshake; bumped on incompatible frame
/// or hello layout changes so mismatched builds fail fast at the hello.
pub const PROTOCOL_VERSION: u32 = 1;

/// The party-to-peer mapping of one deployment: `n` parties split into
/// `k` contiguous ranges, one per endpoint, plus the endpoint addresses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PeerMap {
    n: usize,
    /// `ranges[e] = (first, count)` — endpoint `e` hosts parties
    /// `first .. first + count`.
    ranges: Vec<(u64, u64)>,
    /// Endpoint addresses (`host:port`), indexed like `ranges`.
    addrs: Vec<String>,
    /// This endpoint's index.
    self_idx: usize,
}

impl PeerMap {
    /// Builds a map splitting `n` parties contiguously and near-evenly
    /// over `addrs.len()` endpoints (the first `n % k` endpoints take one
    /// extra party). `self_idx` names the local endpoint.
    ///
    /// # Panics
    ///
    /// Panics if `addrs` is empty, `self_idx` is out of range, or there
    /// are more endpoints than parties.
    pub fn contiguous(n: usize, addrs: Vec<String>, self_idx: usize) -> Self {
        let k = addrs.len();
        assert!(k > 0, "a deployment needs at least one endpoint");
        assert!(self_idx < k, "endpoint index {self_idx} out of range");
        assert!(k <= n, "more endpoints ({k}) than parties ({n})");
        let base = (n / k) as u64;
        let extra = (n % k) as u64;
        let mut ranges = Vec::with_capacity(k);
        let mut first = 0u64;
        for e in 0..k as u64 {
            let count = base + u64::from(e < extra);
            ranges.push((first, count));
            first += count;
        }
        PeerMap {
            n,
            ranges,
            addrs,
            self_idx,
        }
    }

    /// Number of protocol parties.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of endpoints.
    pub fn k(&self) -> usize {
        self.ranges.len()
    }

    /// This endpoint's index.
    pub fn self_idx(&self) -> usize {
        self.self_idx
    }

    /// The address of endpoint `e`.
    pub fn addr(&self, e: usize) -> &str {
        &self.addrs[e]
    }

    /// The `(first, count)` party range of endpoint `e`.
    pub fn range(&self, e: usize) -> (u64, u64) {
        self.ranges[e]
    }

    /// The endpoint that hosts (speaks for) party `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn owner(&self, p: PartyId) -> usize {
        assert!(p.index() < self.n, "party {p} out of range");
        self.ranges
            .partition_point(|&(first, _)| first <= p.0)
            .saturating_sub(1)
    }

    /// True when this endpoint hosts party `p`.
    pub fn is_local(&self, p: PartyId) -> bool {
        self.owner(p) == self.self_idx
    }

    /// The set of parties hosted by this endpoint.
    pub fn local_parties(&self) -> BTreeSet<PartyId> {
        let (first, count) = self.ranges[self.self_idx];
        (first..first + count).map(PartyId).collect()
    }

    /// Returns the map re-rooted at another endpoint index (used by
    /// launchers that build one map and derive every node's view).
    pub fn for_endpoint(&self, self_idx: usize) -> Self {
        assert!(self_idx < self.k(), "endpoint index out of range");
        PeerMap {
            self_idx,
            ..self.clone()
        }
    }

    /// Digest of the partition (party ranges only, not addresses): part of
    /// the genesis so endpoints with different splits refuse to pair.
    pub fn partition_digest(&self) -> Digest {
        let mut h = Sha256::new();
        h.update(b"pba-peer-map");
        h.update(&(self.n as u64).to_le_bytes());
        h.update(&(self.k() as u64).to_le_bytes());
        for &(first, count) in &self.ranges {
            h.update(&first.to_le_bytes());
            h.update(&count.to_le_bytes());
        }
        h.finalize()
    }
}

/// Computes the deployment genesis: a digest binding the execution seed,
/// the party count, the establishment label, the SRDS scheme label, and
/// the partition. Two endpoints agree on the genesis iff they would run
/// the *same deterministic execution* — a peer speaking a wrong-genesis
/// hello is refused before any protocol traffic.
pub fn genesis_digest(seed: &[u8], establishment: &str, scheme: &str, map: &PeerMap) -> Digest {
    let mut h = Sha256::new();
    h.update(b"pba-genesis");
    h.update(&(seed.len() as u64).to_le_bytes());
    h.update(seed);
    h.update(establishment.as_bytes());
    h.update(&[0u8]);
    h.update(scheme.as_bytes());
    h.update(&[0u8]);
    h.update(map.partition_digest().as_bytes());
    h.finalize()
}

/// The handshake message each endpoint sends (and validates) once per
/// connection, before any envelope flows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hello {
    /// Handshake/frame layout version ([`PROTOCOL_VERSION`]).
    pub version: u32,
    /// Deployment genesis ([`genesis_digest`]).
    pub genesis: Digest,
    /// Total protocol parties.
    pub n: u64,
    /// The sender's endpoint index.
    pub endpoint: u64,
    /// First party the sender speaks for.
    pub first_party: u64,
    /// Number of parties the sender speaks for.
    pub party_count: u64,
    /// The network tick the sender's round clock starts at. Endpoints
    /// must agree, or partial-synchrony delivery windows would be
    /// numbered against different origins (see the module docs).
    pub tick_base: u64,
}

impl Encode for Hello {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.version as u64).encode(buf);
        self.genesis.encode(buf);
        self.n.encode(buf);
        self.endpoint.encode(buf);
        self.first_party.encode(buf);
        self.party_count.encode(buf);
        self.tick_base.encode(buf);
    }
}

impl Decode for Hello {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Hello {
            version: u64::decode(r)? as u32,
            genesis: Digest::decode(r)?,
            n: u64::decode(r)?,
            endpoint: u64::decode(r)?,
            first_party: u64::decode(r)?,
            party_count: u64::decode(r)?,
            tick_base: u64::decode(r)?,
        })
    }
}

impl Hello {
    /// The hello this endpoint introduces itself with.
    pub fn for_map(map: &PeerMap, genesis: Digest, tick_base: u64) -> Self {
        let (first_party, party_count) = map.range(map.self_idx());
        Hello {
            version: PROTOCOL_VERSION,
            genesis,
            n: map.n() as u64,
            endpoint: map.self_idx() as u64,
            first_party,
            party_count,
            tick_base,
        }
    }

    /// Validates a peer's hello against the local view: the peer must be
    /// `expected_endpoint`, speak for exactly the range the map assigns
    /// it, and agree on version, genesis, `n`, and the tick base.
    ///
    /// # Errors
    ///
    /// The first mismatching field.
    pub fn validate(
        &self,
        map: &PeerMap,
        genesis: &Digest,
        tick_base: u64,
        expected_endpoint: usize,
    ) -> Result<(), HelloMismatch> {
        let check = |field: HelloField, expected: u64, found: u64| {
            if expected == found {
                Ok(())
            } else {
                Err(HelloMismatch {
                    field,
                    expected,
                    found,
                })
            }
        };
        check(
            HelloField::Version,
            PROTOCOL_VERSION as u64,
            self.version as u64,
        )?;
        if self.genesis != *genesis {
            // Digests don't fit the numeric mismatch shape; report their
            // 64-bit prefixes (enough to tell two genesis values apart in
            // an error message).
            return Err(HelloMismatch {
                field: HelloField::Genesis,
                expected: genesis.prefix_u64(),
                found: self.genesis.prefix_u64(),
            });
        }
        check(HelloField::N, map.n() as u64, self.n)?;
        check(
            HelloField::Endpoint,
            expected_endpoint as u64,
            self.endpoint,
        )?;
        let (first, count) = map.range(expected_endpoint);
        check(HelloField::FirstParty, first, self.first_party)?;
        check(HelloField::PartyCount, count, self.party_count)?;
        check(HelloField::TickBase, tick_base, self.tick_base)?;
        Ok(())
    }
}

/// Which [`Hello`] field failed validation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HelloField {
    /// Protocol/frame layout version.
    Version,
    /// Deployment genesis digest (compared by 64-bit prefix in errors).
    Genesis,
    /// Total party count.
    N,
    /// Endpoint index.
    Endpoint,
    /// First hosted party.
    FirstParty,
    /// Hosted party count.
    PartyCount,
    /// Round-clock tick base.
    TickBase,
}

impl std::fmt::Display for HelloField {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            HelloField::Version => "version",
            HelloField::Genesis => "genesis",
            HelloField::N => "n",
            HelloField::Endpoint => "endpoint",
            HelloField::FirstParty => "first-party",
            HelloField::PartyCount => "party-count",
            HelloField::TickBase => "tick-base",
        };
        f.write_str(s)
    }
}

/// A failed hello validation: the field plus both views of it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HelloMismatch {
    /// The first mismatching field.
    pub field: HelloField,
    /// The local expectation.
    pub expected: u64,
    /// What the peer claimed.
    pub found: u64,
}

impl std::fmt::Display for HelloMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hello {}: expected {}, peer claims {}",
            self.field, self.expected, self.found
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(k: usize) -> Vec<String> {
        (0..k).map(|i| format!("127.0.0.1:{}", 9000 + i)).collect()
    }

    #[test]
    fn contiguous_split_covers_all_parties_once() {
        for (n, k) in [(16, 1), (16, 2), (17, 3), (64, 5)] {
            let map = PeerMap::contiguous(n, addrs(k), 0);
            let mut seen = BTreeSet::new();
            for e in 0..k {
                let (first, count) = map.range(e);
                for p in first..first + count {
                    assert!(seen.insert(p), "party {p} hosted twice");
                    assert_eq!(map.owner(PartyId(p)), e, "n={n} k={k}");
                }
            }
            assert_eq!(seen.len(), n, "n={n} k={k}");
            // Near-even: ranges differ by at most one party.
            let counts: Vec<u64> = (0..k).map(|e| map.range(e).1).collect();
            let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
            assert!(max - min <= 1);
        }
    }

    #[test]
    fn local_parties_match_range() {
        let map = PeerMap::contiguous(10, addrs(3), 1);
        // 10 over 3: ranges are 4, 3, 3.
        assert_eq!(map.range(0), (0, 4));
        assert_eq!(map.range(1), (4, 3));
        assert_eq!(map.range(2), (7, 3));
        assert_eq!(
            map.local_parties(),
            [PartyId(4), PartyId(5), PartyId(6)].into()
        );
        assert!(map.is_local(PartyId(5)));
        assert!(!map.is_local(PartyId(0)));
        let other = map.for_endpoint(2);
        assert!(other.is_local(PartyId(9)));
        assert_eq!(other.partition_digest(), map.partition_digest());
    }

    #[test]
    fn genesis_binds_seed_and_partition() {
        let map2 = PeerMap::contiguous(16, addrs(2), 0);
        let map3 = PeerMap::contiguous(16, addrs(3), 0);
        let g = genesis_digest(b"seed-a", "charged", "snark", &map2);
        assert_eq!(g, genesis_digest(b"seed-a", "charged", "snark", &map2));
        assert_ne!(g, genesis_digest(b"seed-b", "charged", "snark", &map2));
        assert_ne!(g, genesis_digest(b"seed-a", "interactive", "snark", &map2));
        assert_ne!(g, genesis_digest(b"seed-a", "charged", "owf", &map2));
        assert_ne!(g, genesis_digest(b"seed-a", "charged", "snark", &map3));
    }

    #[test]
    fn hello_roundtrip_and_validation() {
        let map = PeerMap::contiguous(16, addrs(2), 0);
        let peer_map = map.for_endpoint(1);
        let genesis = genesis_digest(b"s", "charged", "snark", &map);
        let hello = Hello::for_map(&peer_map, genesis, 0);
        let bytes = pba_crypto::codec::encode_to_vec(&hello);
        let back: Hello = pba_crypto::codec::decode_from_slice(&bytes).unwrap();
        assert_eq!(back, hello);
        assert!(back.validate(&map, &genesis, 0, 1).is_ok());
        // Wrong expected endpoint.
        assert_eq!(
            back.validate(&map, &genesis, 0, 0).unwrap_err().field,
            HelloField::Endpoint
        );
        // Wrong genesis.
        let other = genesis_digest(b"other", "charged", "snark", &map);
        assert_eq!(
            back.validate(&map, &other, 0, 1).unwrap_err().field,
            HelloField::Genesis
        );
        // Tick-base skew: the cross-process round-numbering check.
        let skewed = Hello {
            tick_base: 7,
            ..hello
        };
        let err = skewed.validate(&map, &genesis, 0, 1).unwrap_err();
        assert_eq!(err.field, HelloField::TickBase);
        assert_eq!((err.expected, err.found), (0, 7));
        assert_eq!(
            err.to_string(),
            "hello tick-base: expected 0, peer claims 7"
        );
    }

    #[test]
    #[should_panic(expected = "more endpoints")]
    fn too_many_endpoints_rejected() {
        PeerMap::contiguous(2, addrs(3), 0);
    }
}
