//! The step-5b input exchange of `f_aggr-sig`, executed: one committee
//! member as a round-engine [`Machine`], exchanging the typed
//! [`AggrDigests`] / [`AggrBody`] wire messages over `Network`. It is the
//! reference the closed-form charge (`pba_core::aggr::charge_aggr_round`)
//! is proptested against in `tests/aggr_exchange.rs`; test support only,
//! never part of a release crate.
//!
//! * Round 0: multicast the digests of the held signatures.
//! * Round 1: read one list per committee peer; a digest on at least
//!   `|C|/2 + 1` lists (the member's own included) is *attested*; push the
//!   body of every attested digest held to every peer whose list lacked it.
//! * Round 2: keep a pushed body only if it hashes to an attested digest
//!   still missing, then output the attested signatures held.
//!
//! Signatures are opaque canonical encodings here: the exchange hashes and
//! forwards them and never interprets one.

use pba_core::aggr::{AggrBody, AggrDigests};
use pba_crypto::sha256::{Digest, Sha256};
use pba_net::{Ctx, Envelope, Machine, PartyId};
use std::collections::{BTreeMap, BTreeSet};

/// One committee member's state for one exchange.
#[derive(Debug)]
pub struct AggrExchange {
    committee: Vec<PartyId>,
    me: PartyId,
    epoch: u64,
    node: u64,
    /// Held signatures by digest: the member's own, then accepted pushes.
    held: BTreeMap<Digest, Vec<u8>>,
    /// The list each peer sent (a garbled or mis-scoped one reads as
    /// empty); a silent peer has no entry and lacks everything.
    lists: BTreeMap<PartyId, BTreeSet<Digest>>,
    attested: BTreeSet<Digest>,
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
            lists: BTreeMap::new(),
            attested: BTreeSet::new(),
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

    fn peers(&self) -> impl Iterator<Item = PartyId> + '_ {
        self.committee.iter().copied().filter(|&p| p != self.me)
    }

    fn is_peer(&self, p: PartyId) -> bool {
        p != self.me && self.committee.contains(&p)
    }

    fn scoped(&self, epoch: u64, node: u64) -> bool {
        epoch == self.epoch && node == self.node
    }
}

impl Machine for AggrExchange {
    fn on_round(&mut self, ctx: &mut Ctx<'_>, inbox: &[Envelope]) {
        if self.done {
            return;
        }
        match ctx.round() {
            0 => {
                let list = AggrDigests {
                    epoch: self.epoch,
                    node: self.node,
                    digests: self.held.keys().copied().collect(),
                };
                for peer in self.peers() {
                    ctx.send_msg(peer, &list);
                }
            }
            1 => {
                for env in inbox {
                    // Dynamic filtering: one list per committee peer; the
                    // first envelope is read whatever it holds.
                    if !self.is_peer(env.from) || self.lists.contains_key(&env.from) {
                        continue;
                    }
                    let list = ctx
                        .recv_msg::<AggrDigests>(env)
                        .filter(|l| self.scoped(l.epoch, l.node))
                        .map(|l| l.digests.into_iter().collect())
                        .unwrap_or_default();
                    self.lists.insert(env.from, list);
                }
                let quorum = self.committee.len() / 2 + 1;
                let mut tally: BTreeMap<Digest, usize> =
                    self.held.keys().map(|&d| (d, 1)).collect();
                for &d in self.lists.values().flatten() {
                    *tally.entry(d).or_default() += 1;
                }
                self.attested = tally
                    .into_iter()
                    .filter(|&(_, count)| count >= quorum)
                    .map(|(d, _)| d)
                    .collect();
                for d in &self.attested {
                    let Some(sig) = self.held.get(d) else {
                        continue;
                    };
                    let body = AggrBody {
                        epoch: self.epoch,
                        node: self.node,
                        sig: sig.clone(),
                    };
                    for peer in self.peers() {
                        if !self.lists.get(&peer).is_some_and(|l| l.contains(d)) {
                            ctx.send_msg(peer, &body);
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
