//! Establishment: everything a [`Service`] builds once — SRDS setup, keys
//! under the [`KeyPolicy`], corruption, the `f_ae-comm` tree — plus the
//! accessors and the small helpers every later step leans on.

use super::{
    AdversaryProfile, BaConfig, Establishment, KeyError, KeyPolicy, KeyStore, ProtocolError,
    ProtocolPhase, Service,
};
use crate::phase_king::PkMsg;
use pba_aetree::analysis::{adaptive_targets, TreeAnalysis};
use pba_aetree::fae::charge_establishment;
use pba_aetree::params::TreeParams;
use pba_aetree::tree::Tree;
use pba_crypto::codec::{Decode, Encode};
use pba_crypto::mss::LeafBudget;
use pba_crypto::prg::Prg;
use pba_net::corruption::CorruptionPlan;
use pba_net::faults::StrategySpec;
use pba_net::runner::{AdvSender, Adversary, SilentAdversary};
use pba_net::{Envelope, Network, PartyId, Report, TagBreakdown, Transport};
use pba_srds::traits::Srds;
use std::collections::{BTreeMap, BTreeSet};

/// Per-step communication snapshot (honest parties only).
#[derive(Clone, Debug)]
pub struct StepReport {
    /// Step label (mirrors Fig. 3 numbering).
    pub label: &'static str,
    /// Total honest bytes sent during this step.
    pub total_bytes: u64,
    /// Maximum per-honest-party cumulative bytes after this step.
    pub max_bytes_after: u64,
}

/// Byzantine strategy for the committee sub-protocols: equivocate
/// phase-king values (also disturbing the coin-toss rounds with junk).
struct CommitteeByzantine {
    corrupted: BTreeSet<PartyId>,
    committee: Vec<PartyId>,
}

impl Adversary for CommitteeByzantine {
    fn corrupted(&self) -> &BTreeSet<PartyId> {
        &self.corrupted
    }
    fn on_round(
        &mut self,
        round: u64,
        _rushed: &BTreeMap<PartyId, Vec<Envelope>>,
        sender: &mut AdvSender<'_>,
    ) {
        for &bad in self.corrupted.iter() {
            if !self.committee.contains(&bad) {
                continue;
            }
            for (j, &peer) in self.committee.iter().enumerate() {
                if self.corrupted.contains(&peer) {
                    continue;
                }
                // Conflicting values per peer in every sub-protocol round.
                let v = (j % 2) as u8;
                let msg = match round % 3 {
                    0 => PkMsg::Value(v),
                    1 => PkMsg::Propose(v),
                    _ => PkMsg::King(v),
                };
                sender.send_msg(bad, peer, &msg);
            }
        }
    }
}

/// The `f_ae-comm` tree [`Establishment::Charged`] builds for `n` parties
/// with `z` leaf slots each under `seed`: [`TreeParams::scaled`] dealt from
/// the seed's `/ae-tree` extension. A caller that needs the tree a run will
/// stand on before running it (a placement aimed at one committee) derives
/// it here.
pub fn charged_tree(n: usize, z: usize, seed: &[u8]) -> Tree {
    let mut tree_seed = seed.to_vec();
    tree_seed.extend_from_slice(b"/ae-tree");
    Tree::build(&TreeParams::scaled(n, z), &tree_seed)
}

/// The PRG that generates `owner`'s `j`-th key: a pure child of the session
/// PRG, so a slot's key is the same key whenever it is (re)generated.
fn slot_keygen_prg(session_prg: &Prg, owner: usize, j: usize) -> Prg {
    session_prg
        .child("party-keys", owner as u64)
        .child("slot", j as u64)
}

impl<'a, S> Service<'a, S>
where
    S: Srds,
    S::Signature: Encode + Decode,
{
    /// Fallible establishment: returns
    /// [`ProtocolError::CorruptionBound`] instead of panicking when the
    /// corruption plan reaches `n/3`.
    pub fn try_establish(scheme: &'a S, config: &BaConfig) -> Result<Self, ProtocolError> {
        Self::try_establish_over(scheme, config, None)
    }

    /// [`Service::try_establish`] over an explicit delivery backend: when
    /// `transport` is given, it is attached to the session's network
    /// before any traffic flows, so even interactive (KSSV) establishment
    /// crosses the transport — and the delivery transcript is recorded
    /// from the very first exchange, making the whole run comparable
    /// against an in-process oracle ([`pba_net::transport`]). Timing-fault
    /// chaos composes with it: the delay queue acts on the exchanged batch.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::CorruptionBound`] as in [`Service::try_establish`];
    /// [`ProtocolError::Transport`] if the backend fails during interactive
    /// establishment.
    pub fn try_establish_over(
        scheme: &'a S,
        config: &BaConfig,
        transport: Option<Box<dyn Transport>>,
    ) -> Result<Self, ProtocolError> {
        let params = TreeParams::scaled(config.n, config.z);
        let n = config.n;
        let total_slots = params.total_slots();
        let prg = Prg::from_seed_label(&config.seed, "pi-ba");
        let mut net = Network::new(n);
        if let Some(transport) = transport {
            net.attach_transport(transport);
        }

        // Setup: SRDS public parameters. Keys are generated per occupied
        // slot in the idmap loop below, once the tree says who sits where.
        let pp = scheme.setup(total_slots, &mut prg.child("setup", 0));

        // Corruption: adaptive during setup — the model shows the adversary
        // every public key first. Here the keys are only materialized in
        // the idmap loop below, which no run can observe: no plan reads a
        // key, and each key is a pure function of its own PRG child, the
        // same key whenever it is generated. Or, for
        // [`CorruptionPlan::Adaptive`], adaptive *post-setup*: the
        // adversary watches the tree being established and only then
        // spends its budget on the highest-takeover-value committees
        // ([`pba_aetree::analysis::adaptive_targets`]).
        let mut pre_corrupt: BTreeSet<PartyId> = BTreeSet::new();
        let adaptive_budget = match &config.corruption {
            CorruptionPlan::Adaptive { t } => {
                if 3 * t >= n {
                    return Err(ProtocolError::CorruptionBound { corrupt: *t, n });
                }
                Some(*t)
            }
            plan => {
                pre_corrupt = plan.materialize(n, &mut prg.child("corrupt", 0));
                if 3 * pre_corrupt.len() >= n {
                    return Err(ProtocolError::CorruptionBound {
                        corrupt: pre_corrupt.len(),
                        n,
                    });
                }
                None
            }
        };

        // Step 1: f_ae-comm — the tree, from post-corruption randomness.
        // A post-setup adaptive adversary is empty during establishment
        // (it observes honestly and corrupts only once the tree stands).
        let tree = match config.establishment {
            Establishment::Charged => {
                let tree = charged_tree(n, config.z, &config.seed);
                charge_establishment(&mut net, &tree);
                tree
            }
            Establishment::Interactive => {
                // Committee-level misbehaviour during the election is
                // exercised by the vss_coin/kssv adversarial tests; the
                // session-level profiles act from step 2 on.
                let mut adversary = SilentAdversary::new(pre_corrupt.iter().copied());
                match crate::kssv::try_establish_interactive(
                    &mut net,
                    &params,
                    &mut adversary,
                    &mut prg.child("kssv-establish", 0),
                ) {
                    Ok(election) => election.tree,
                    Err(outcome) => {
                        // A failed group toss: a dead transport if one is
                        // attached and recorded an error, a round-budget
                        // timeout otherwise.
                        if let Some(error) = net.transport_error() {
                            return Err(ProtocolError::Transport {
                                phase: ProtocolPhase::Establishment,
                                error: error.clone(),
                            });
                        }
                        return Err(ProtocolError::Timeout {
                            phase: ProtocolPhase::Establishment,
                            rounds: outcome.rounds,
                        });
                    }
                }
            }
        };
        let corrupt = match adaptive_budget {
            Some(t) => adaptive_targets(&tree, t, &mut prg.child("adaptive-corrupt", 0)),
            None => pre_corrupt,
        };
        let honest: Vec<PartyId> = (0..n as u64)
            .map(PartyId)
            .filter(|p| !corrupt.contains(p))
            .collect();
        let analysis = TreeAnalysis::analyze(&tree, &corrupt);

        // Timing faults: if the chaos spec carries a timing axis (latency,
        // partition, churn), install the seeded delay-queue model now — the
        // tick clock starts lazily at the first committee phase, so charged
        // and interactive establishment see the same timing schedule.
        if let Some(spec) = &config.chaos {
            if let Some(model) = spec.timing_model(&corrupt, n, &prg.child("timing", 0)) {
                net.set_timing(model);
            }
        }

        // idmap: slot s ↔ owner's j-th key, generated here — one keygen per
        // occupied slot. The board keeps the verification key; the policy
        // decides what stays of the signing half.
        let stride = scheme.key_residue_len(&pp);
        let mut occurrence: Vec<usize> = vec![0; n];
        let mut vks: Vec<S::VerificationKey> = Vec::with_capacity(total_slots);
        let mut slot_sk: Vec<(usize, usize)> = Vec::with_capacity(total_slots);
        let mut keys = match config.key_policy {
            KeyPolicy::Eager => KeyStore::Eager(Vec::with_capacity(total_slots)),
            KeyPolicy::Lazy => KeyStore::Lazy {
                residue: Vec::with_capacity(total_slots * stride),
                stride,
            },
        };
        for s in 0..total_slots as u64 {
            let owner = tree.slot_party(s).index();
            let j = occurrence[owner];
            occurrence[owner] += 1;
            let (vk, sk) = scheme.keygen(&pp, &mut slot_keygen_prg(&prg, owner, j));
            match &mut keys {
                KeyStore::Eager(sks) => sks.push(sk),
                KeyStore::Lazy { residue, stride } => {
                    scheme.key_residue(&pp, &sk, residue);
                    assert_eq!(
                        residue.len(),
                        (s as usize + 1) * *stride,
                        "key residue is one fixed stride per slot"
                    );
                }
            }
            vks.push(vk);
            slot_sk.push((owner, j));
        }
        let keyboard = scheme.prepare(&pp, &vks);

        let budget = scheme.epoch_capacity(&pp).map(LeafBudget::new);
        let mut session = Service {
            scheme,
            config: config.clone(),
            pp,
            keys,
            slot_sk,
            keyboard,
            tree,
            analysis,
            corrupt,
            honest,
            net,
            prg,
            steps: Vec::new(),
            epoch: 0,
            budget,
        };
        session.snap("1:ae-comm-establish");
        Ok(session)
    }

    /// The supreme committee.
    pub fn supreme_committee(&self) -> Vec<PartyId> {
        self.tree.root_committee().to_vec()
    }

    /// The corrupt set.
    pub fn corrupt(&self) -> &BTreeSet<PartyId> {
        &self.corrupt
    }

    /// The honest parties.
    pub fn honest(&self) -> &[PartyId] {
        &self.honest
    }

    /// The communication tree.
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// The tree parameters.
    pub fn params(&self) -> &TreeParams {
        self.tree.params()
    }

    /// The goodness analysis of the tree under the session's corrupt set.
    pub fn analysis(&self) -> &TreeAnalysis {
        &self.analysis
    }

    /// Per-step communication snapshots so far.
    pub fn steps(&self) -> &[StepReport] {
        &self.steps
    }

    /// Aggregate honest-party communication report.
    pub fn report(&self) -> Report {
        self.net.metrics().report_for(self.honest.iter().copied())
    }

    /// Per-(wire tag) honest byte attribution — the per-step dimension
    /// behind [`Service::report`]'s totals.
    pub fn breakdown(&self) -> TagBreakdown {
        self.net
            .metrics()
            .breakdown_for(self.honest.iter().copied())
    }

    /// Exact conservation of the per-tag attribution: for every party the
    /// per-tag sent/received marginals sum to the untyped byte totals.
    pub fn tags_conserve_totals(&self) -> bool {
        self.net.metrics().tags_conserve_totals()
    }

    /// Bytes of public key residue the service holds for
    /// [`KeyPolicy::Lazy`] signing (one-time verification-key digests, one
    /// fixed stride per slot); 0 under [`KeyPolicy::Eager`], which holds
    /// the signing keys themselves.
    pub fn key_residue_bytes(&self) -> usize {
        match &self.keys {
            KeyStore::Eager(_) => 0,
            KeyStore::Lazy { residue, .. } => std::mem::size_of_val(residue.as_slice()),
        }
    }

    /// Signs `message` as virtual identity `slot` in execution `epoch`,
    /// under the session's [`KeyPolicy`]: with the held key, or from the
    /// slot's keygen PRG and kept residue. Bit-identical either way; `None`
    /// is the scheme's `⊥` (sortition loser, epoch past capacity).
    pub(super) fn sign_slot(&self, slot: u64, epoch: u64, message: &[u8]) -> Option<S::Signature> {
        match &self.keys {
            KeyStore::Eager(sks) => {
                self.scheme
                    .sign_epoch(&self.pp, slot, &sks[slot as usize], epoch, message)
            }
            KeyStore::Lazy { residue, stride } => {
                let (owner, j) = self.slot_sk[slot as usize];
                let at = slot as usize * stride;
                self.scheme.sign_epoch_rederived(
                    &self.pp,
                    slot,
                    &slot_keygen_prg(&self.prg, owner, j),
                    &residue[at..at + stride],
                    epoch,
                    message,
                )
            }
        }
    }

    pub(super) fn snap(&mut self, label: &'static str) {
        let (total, max_bytes_after) = self.honest_sent_and_max_total();
        let prior: u64 = self.steps.iter().map(|s| s.total_bytes).sum();
        self.steps.push(StepReport {
            label,
            total_bytes: total - prior,
            max_bytes_after,
        });
    }

    /// The session's recorded transport failure, attributed to `phase` —
    /// checked before mapping an incomplete phase to a generic timeout,
    /// so socket deaths report as what they are.
    pub(super) fn transport_failure(&self, phase: ProtocolPhase) -> Option<ProtocolError> {
        self.net
            .transport_error()
            .map(|error| ProtocolError::Transport {
                phase,
                error: error.clone(),
            })
    }

    pub(super) fn committee_adversary(&self, committee: &[PartyId]) -> Box<dyn Adversary> {
        if let Some(spec) = &self.config.chaos {
            return spec.build(
                self.corrupt.clone(),
                self.config.n,
                &self.prg.child("chaos", self.epoch),
            );
        }
        match self.config.profile {
            AdversaryProfile::Passive => Box::new(SilentAdversary::new(self.corrupt.clone())),
            AdversaryProfile::Byzantine => Box::new(CommitteeByzantine {
                corrupted: self.corrupt.clone(),
                committee: committee.to_vec(),
            }),
        }
    }

    /// Honest `(Σ bytes_sent, max bytes_total)` so far, counters only.
    fn honest_sent_and_max_total(&self) -> (u64, u64) {
        self.net
            .metrics()
            .sent_and_max_total_for(self.honest.iter().copied())
    }

    /// Honest bytes sent so far (the cumulative figure step snapshots and
    /// instance baselines are deltas of).
    pub(super) fn honest_bytes_sent(&self) -> u64 {
        self.honest_sent_and_max_total().0
    }

    /// Reserves the current epoch's one-time signing slot against the
    /// establishment's leaf budget. Schemes without a bounded epoch
    /// capacity (sortition) carry no budget and always succeed; an epoch
    /// whose slot is already reserved (a retry after a failed committee
    /// phase) is a no-op.
    pub(super) fn reserve_epoch(&mut self) -> Result<(), ProtocolError> {
        let Some(budget) = &mut self.budget else {
            return Ok(());
        };
        if budget.consumed() > self.epoch {
            return Ok(());
        }
        match budget.reserve(1) {
            Ok(_) => Ok(()),
            Err(e) => Err(ProtocolError::KeyBudget {
                error: KeyError::BudgetExhausted {
                    instance: self.epoch,
                    capacity: e.capacity,
                },
            }),
        }
    }

    /// The establishment's one-time signing budget, when the scheme's
    /// epoch capacity is bounded (MSS-backed schemes; `None` for
    /// sortition).
    pub fn budget(&self) -> Option<&LeafBudget> {
        self.budget.as_ref()
    }

    /// Replaces the committee fault-injection strategy between instances —
    /// the mid-stream chaos knob. The next instance's committee phases
    /// build their adversary from the new spec. Timing faults are
    /// establishment-scoped: the timing model installed at establishment
    /// keeps its delay queue, delivery window and slack whatever is armed
    /// here, and a timing spec armed later adds none of them. Disarming
    /// (`None`) therefore leaves an installed model's window in force.
    pub fn set_chaos(&mut self, spec: Option<StrategySpec>) {
        self.config.chaos = spec;
    }
}
