//! The step-5b input exchange of `f_aggr-sig`, executed: one committee
//! member as a round-engine [`Machine`], exchanging the typed
//! [`AggrListHash`] / [`AggrDigests`] / [`AggrBody`] wire messages over
//! `Network`. It is the reference the closed-form charge
//! (`pba_core::aggr::charge_aggr_round`) is proptested against in
//! `tests/aggr_exchange.rs`; test support only, never part of a release
//! crate.
//!
//! * Round 0: multicast the hash of the sorted digest list of the held
//!   signatures.
//! * Round 1: read one hash per committee peer; send the digest list to
//!   every peer whose hash differed from the member's own. A peer whose
//!   hash was garbled, mis-scoped or absent is silent and gets nothing.
//! * Round 2: read one list per differing peer (a garbled or mis-scoped
//!   one, or none, reads as empty). A matching peer attests exactly the
//!   member's own list. A digest on at least `|C|/2 + 1` lists (the
//!   member's own included) is *attested*; push the body of every
//!   attested digest held to every non-silent peer whose list lacked it.
//! * Round 3: keep a pushed body only if it hashes to an attested digest
//!   still missing, then output the attested signatures held.
//!
//! Signatures are opaque canonical encodings here: the exchange hashes and
//! forwards them and never interprets one.

use pba_core::aggr::{AggrBody, AggrDigests, AggrListHash};
use pba_crypto::sha256::{Digest, Sha256};
use pba_net::wire::{self, WireMsg};
use pba_net::{Ctx, Envelope, Machine, PartyId};
use std::collections::{BTreeMap, BTreeSet};

/// Bytes one member sent, by (addressee, tag).
pub type LinkBytes = BTreeMap<(PartyId, u8), u64>;

/// One committee member's state for one exchange.
#[derive(Debug)]
pub struct AggrExchange {
    committee: Vec<PartyId>,
    me: PartyId,
    epoch: u64,
    node: u64,
    /// Held signatures by digest: the member's own, then accepted pushes.
    held: BTreeMap<Digest, Vec<u8>>,
    /// Peers whose hash matched the member's own.
    matched: BTreeSet<PartyId>,
    /// The list each peer whose hash differed sent (empty if garbled,
    /// mis-scoped or never sent).
    lists: BTreeMap<PartyId, BTreeSet<Digest>>,
    attested: BTreeSet<Digest>,
    sent: LinkBytes,
    done: bool,
}

impl AggrExchange {
    /// Member `me` of `committee` holding `sigs` for the exchange of tree
    /// node `node` in `epoch`.
    pub fn new(
        committee: Vec<PartyId>,
        me: PartyId,
        epoch: u64,
        node: u64,
        sigs: &[Vec<u8>],
    ) -> Self {
        assert!(committee.contains(&me), "{me} not in committee");
        AggrExchange {
            committee,
            me,
            epoch,
            node,
            held: sigs
                .iter()
                .map(|s| (Sha256::digest(s), s.clone()))
                .collect(),
            matched: BTreeSet::new(),
            lists: BTreeMap::new(),
            attested: BTreeSet::new(),
            sent: LinkBytes::new(),
            done: false,
        }
    }

    /// The digests a strict majority of lists attested, as this member saw
    /// them.
    pub fn attested(&self) -> &BTreeSet<Digest> {
        &self.attested
    }

    /// The attested signatures this member holds, by digest, once done.
    pub fn output(&self) -> Option<BTreeMap<Digest, &[u8]>> {
        self.done.then(|| {
            self.attested
                .iter()
                .filter_map(|d| self.held.get(d).map(|s| (*d, s.as_slice())))
                .collect()
        })
    }

    /// The peers whose hash matched the member's own.
    pub fn matched(&self) -> &BTreeSet<PartyId> {
        &self.matched
    }

    /// Every byte this member sent, by (addressee, tag).
    pub fn sent(&self) -> &LinkBytes {
        &self.sent
    }

    fn peers(&self) -> impl Iterator<Item = PartyId> + '_ {
        self.committee.iter().copied().filter(|&p| p != self.me)
    }

    fn is_peer(&self, p: PartyId) -> bool {
        p != self.me && self.committee.contains(&p)
    }

    fn scoped(&self, epoch: u64, node: u64) -> bool {
        epoch == self.epoch && node == self.node
    }

    fn own_hash(&self) -> AggrListHash {
        AggrListHash::new(self.epoch, self.node, self.held.keys())
    }

    fn send<T: WireMsg>(&mut self, ctx: &mut Ctx<'_>, to: PartyId, msg: &T) {
        ctx.send_msg(to, msg);
        *self.sent.entry((to, T::TAG)).or_default() += wire::encoded_msg_len(msg) as u64;
    }

    /// Whether `peer` holds `d`: a matching peer holds the member's own
    /// list, a differing one the list it sent, a silent one is skipped.
    fn lacks(&self, peer: PartyId, d: &Digest) -> bool {
        !self.matched.contains(&peer) && self.lists.get(&peer).is_some_and(|l| !l.contains(d))
    }
}

impl Machine for AggrExchange {
    fn on_round(&mut self, ctx: &mut Ctx<'_>, inbox: &[Envelope]) {
        if self.done {
            return;
        }
        match ctx.round() {
            0 => {
                let hash = self.own_hash();
                let peers: Vec<PartyId> = self.peers().collect();
                for peer in peers {
                    self.send(ctx, peer, &hash);
                }
            }
            1 => {
                let own = self.own_hash().hash;
                let mut read = BTreeSet::new();
                for env in inbox {
                    // Dynamic filtering: one hash per committee peer; the
                    // first envelope is read whatever it holds.
                    if !self.is_peer(env.from) || !read.insert(env.from) {
                        continue;
                    }
                    let Some(h) = ctx
                        .recv_msg::<AggrListHash>(env)
                        .filter(|h| self.scoped(h.epoch, h.node))
                    else {
                        continue;
                    };
                    if h.hash == own {
                        self.matched.insert(env.from);
                    } else {
                        self.lists.insert(env.from, BTreeSet::new());
                    }
                }
                let list = AggrDigests {
                    epoch: self.epoch,
                    node: self.node,
                    digests: self.held.keys().copied().collect(),
                };
                let differing: Vec<PartyId> = self.lists.keys().copied().collect();
                for peer in differing {
                    self.send(ctx, peer, &list);
                }
            }
            2 => {
                let mut read = BTreeSet::new();
                for env in inbox {
                    // One list per differing peer, first envelope read.
                    if !self.lists.contains_key(&env.from) || !read.insert(env.from) {
                        continue;
                    }
                    if let Some(l) = ctx
                        .recv_msg::<AggrDigests>(env)
                        .filter(|l| self.scoped(l.epoch, l.node))
                    {
                        self.lists.insert(env.from, l.digests.into_iter().collect());
                    }
                }
                let quorum = self.committee.len() / 2 + 1;
                let own_votes = 1 + self.matched.len();
                let mut tally: BTreeMap<Digest, usize> =
                    self.held.keys().map(|&d| (d, own_votes)).collect();
                for &d in self.lists.values().flatten() {
                    *tally.entry(d).or_default() += 1;
                }
                self.attested = tally
                    .into_iter()
                    .filter(|&(_, count)| count >= quorum)
                    .map(|(d, _)| d)
                    .collect();
                let peers: Vec<PartyId> = self.peers().collect();
                let attested: Vec<Digest> = self.attested.iter().copied().collect();
                for d in attested {
                    let Some(sig) = self.held.get(&d) else {
                        continue;
                    };
                    let body = AggrBody {
                        epoch: self.epoch,
                        node: self.node,
                        sig: sig.clone(),
                    };
                    for &peer in &peers {
                        if self.lacks(peer, &d) {
                            self.send(ctx, peer, &body);
                        }
                    }
                }
            }
            _ => {
                let mut missing: BTreeSet<Digest> = self
                    .attested
                    .iter()
                    .filter(|d| !self.held.contains_key(d))
                    .copied()
                    .collect();
                for env in inbox {
                    // Nothing left to wait for: the rest is never read.
                    if missing.is_empty() {
                        break;
                    }
                    if !self.is_peer(env.from) {
                        continue;
                    }
                    let Some(body) = ctx.recv_msg::<AggrBody>(env) else {
                        continue;
                    };
                    if !self.scoped(body.epoch, body.node) {
                        continue;
                    }
                    let d = Sha256::digest(&body.sig);
                    if missing.remove(&d) {
                        self.held.insert(d, body.sig);
                    }
                }
                self.done = true;
            }
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}
