//! Establishment: everything a [`Service`] builds once — SRDS setup, keys
//! under the [`KeyPolicy`], corruption, the `f_ae-comm` tree — plus the
//! accessors and the small helpers every later step leans on.

use super::{
    AdversaryProfile, BaConfig, Established, Establishment, KeyError, KeyPolicy, KeyStore,
    ProtocolError, ProtocolPhase, Service,
};
use crate::phase_king::PkEquivocator;
use pba_aetree::analysis::adaptive_targets;
use pba_aetree::fae::charge_establishment;
use pba_aetree::params::TreeParams;
use pba_aetree::tree::Tree;
use pba_crypto::codec::{Decode, Encode};
use pba_crypto::mss::LeafBudget;
use pba_crypto::prg::Prg;
use pba_crypto::sha256::Digest;
use pba_net::corruption::CorruptionPlan;
use pba_net::faults::StrategySpec;
use pba_net::par::{chunks, par_jobs};
use pba_net::runner::{Adversary, SilentAdversary};
use pba_net::{Network, PartyId, Report, TagBreakdown, Transport};
use pba_srds::traits::Srds;
use std::collections::BTreeSet;

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

/// The PRG that generates virtual identity `slot`'s key: its owner's `j`-th
/// key, `j` the slot's rank among the owner's (sorted) slots. A pure child
/// of the session PRG read off the tree alone, so a slot's key is the same
/// key whenever, and on whichever thread, it is (re)generated.
pub(super) fn slot_keygen_prg(session_prg: &Prg, tree: &Tree, slot: u64) -> Prg {
    let owner = tree.slot_party(slot);
    let j = tree
        .party_slots(owner)
        .binary_search(&slot)
        .expect("a slot is among its owner's slots");
    session_prg
        .child("party-keys", owner.0)
        .child("slot", j as u64)
}

/// Establishment's keygen pass: every slot's verification key, and what
/// `policy` keeps of its signing half. Under [`KeyPolicy::Lazy`] the slots
/// are cut into one contiguous chunk per worker and run by [`par_jobs`]: a
/// worker drops each signing key as soon as its residue is taken, writes
/// the residue into its chunk's own disjoint run of the preallocated flat
/// store, and the chunks' verification keys join in slot order.
/// [`KeyPolicy::Eager`] runs on the calling thread whatever `workers` says:
/// its store keeps every signing key on the heap, and a key built on a
/// worker would stay in that thread's malloc arena (DESIGN.md "Keys that
/// sign"). Keys, residue and their order are the same at every worker
/// count.
pub(super) fn generate_keys<S: Srds>(
    scheme: &S,
    pp: &S::PublicParams,
    prg: &Prg,
    tree: &Tree,
    policy: KeyPolicy,
    workers: usize,
) -> (Vec<S::VerificationKey>, KeyStore<S>) {
    let total_slots = tree.params().total_slots();
    let keygen = |slot: usize| scheme.keygen(pp, &mut slot_keygen_prg(prg, tree, slot as u64));
    match policy {
        KeyPolicy::Eager => {
            let (vks, sks) = (0..total_slots).map(keygen).unzip();
            (vks, KeyStore::Eager(sks))
        }
        KeyPolicy::Lazy => {
            let stride = scheme.key_residue_len(pp);
            let mut residue = vec![Digest::ZERO; total_slots * stride];
            let mut unclaimed = residue.as_mut_slice();
            let jobs: Vec<_> = chunks(total_slots, workers)
                .map(|slots| {
                    let (run, rest) =
                        std::mem::take(&mut unclaimed).split_at_mut(slots.len() * stride);
                    unclaimed = rest;
                    (slots, run)
                })
                .collect();
            let chunk_vks = par_jobs(jobs, |(slots, run)| {
                let mut digests = Vec::with_capacity(stride);
                let first = slots.start;
                slots
                    .map(|slot| {
                        let (vk, sk) = keygen(slot);
                        digests.clear();
                        scheme.key_residue(pp, &sk, &mut digests);
                        let at = (slot - first) * stride;
                        run[at..at + stride].copy_from_slice(&digests);
                        vk
                    })
                    .collect::<Vec<_>>()
            });
            let mut vks = Vec::with_capacity(total_slots);
            for chunk in chunk_vks {
                vks.extend(chunk);
            }
            (vks, KeyStore::Lazy { residue, stride })
        }
    }
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
        // slot in the keygen pass below, once the tree says who sits where.
        let pp = scheme.setup(total_slots, &mut prg.child("setup", 0));

        // Corruption: adaptive during setup — the model shows the adversary
        // every public key first. Here the keys are only materialized in
        // the keygen pass below, which no run can observe: no plan reads a
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
        let workers = std::thread::available_parallelism().map_or(1, |w| w.get());
        let (vks, keys) = generate_keys(scheme, &pp, &prg, &tree, config.key_policy, workers);
        let keyboard = scheme.prepare(&pp, &vks);

        let budget = scheme.epoch_capacity(&pp).map(LeafBudget::new);
        let mut session = Service {
            est: Established {
                scheme,
                pp,
                keys,
                keyboard,
                tree,
                corrupt,
                honest,
                prg,
                profile: config.profile,
                threads: config.threads,
            },
            net,
            chaos: config.chaos.clone(),
            steps: Vec::new(),
            epoch: 0,
            budget,
        };
        session.snap("1:ae-comm-establish");
        Ok(session)
    }

    /// The supreme committee.
    pub fn supreme_committee(&self) -> Vec<PartyId> {
        self.est.tree.root_committee().to_vec()
    }

    /// The corrupt set.
    pub fn corrupt(&self) -> &BTreeSet<PartyId> {
        &self.est.corrupt
    }

    /// The honest parties.
    pub fn honest(&self) -> &[PartyId] {
        &self.est.honest
    }

    /// The communication tree.
    pub fn tree(&self) -> &Tree {
        &self.est.tree
    }

    /// The tree parameters.
    pub fn params(&self) -> &TreeParams {
        self.est.tree.params()
    }

    /// Per-step communication snapshots so far.
    pub fn steps(&self) -> &[StepReport] {
        &self.steps
    }

    /// Aggregate honest-party communication report.
    pub fn report(&self) -> Report {
        self.net
            .metrics()
            .report_for(self.est.honest.iter().copied())
    }

    /// Per-(wire tag) honest byte attribution — the per-step dimension
    /// behind [`Service::report`]'s totals.
    pub fn breakdown(&self) -> TagBreakdown {
        self.net
            .metrics()
            .breakdown_for(self.est.honest.iter().copied())
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
        match &self.est.keys {
            KeyStore::Eager(_) => 0,
            KeyStore::Lazy { residue, .. } => std::mem::size_of_val(residue.as_slice()),
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
        let est = &self.est;
        if let Some(spec) = &self.chaos {
            let n = est.tree.params().n;
            return spec.build(est.corrupt.clone(), n, &est.prg.child("chaos", self.epoch));
        }
        match est.profile {
            AdversaryProfile::Passive => Box::new(SilentAdversary::new(est.corrupt.clone())),
            AdversaryProfile::Byzantine => Box::new(PkEquivocator {
                corrupted: est.corrupt.clone(),
                committee: committee.to_vec(),
            }),
        }
    }

    /// Honest `(Σ bytes_sent, max bytes_total)` so far, counters only — the
    /// cumulative figures step snapshots and instance baselines are deltas of.
    pub(super) fn honest_sent_and_max_total(&self) -> (u64, u64) {
        self.net
            .metrics()
            .sent_and_max_total_for(self.est.honest.iter().copied())
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
        self.chaos = spec;
    }
}
