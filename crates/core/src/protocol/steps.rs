//! The Fig. 3 steps on an established [`Service`]: step 2 (`f_ba`, `f_ct`)
//! among the supreme committee, the robust input fan-in feeding it, and
//! steps 3–8 (disseminate, sign, aggregate, certify, spread).

use super::service::slot_keygen_prg;
use super::{AdversaryProfile, Established, KeyStore, ProtocolError, ProtocolPhase, Service};
use crate::aggr::{charge_aggr_round, f_aggr_sig_uniform};
use crate::phase_king::{rounds_for, PhaseKing};
use crate::vss_coin::try_toss_coin_vss;
use pba_aetree::fae::{
    constant_adversary, disseminate, honest_adversary, AdversaryFn, DisseminationResult,
};
use pba_aetree::robust::{
    ascend, dedup_committee, robust_input_fanin, robust_input_fanin_with, AscentOutcome,
};
use pba_crypto::codec::{decode_from_slice, encode_to_vec, CodecError, Decode, Encode, Reader};
use pba_crypto::prf::SubsetPrf;
use pba_crypto::sha256::Digest;
use pba_net::par::par_map;
use pba_net::runner::{run_phase_threaded, PhaseOutcome};
use pba_net::wire::{self, step, tag};
use pba_net::{Machine, PartyId, WireMsg};
use pba_srds::traits::Srds;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// Outcome of one certified round within a [`Service`].
#[derive(Clone, Debug)]
pub struct RoundOutcome {
    /// The value the supreme committee agreed on.
    pub y: u8,
    /// Per-party outputs.
    pub outputs: Vec<Option<u8>>,
    /// Size of the certificate, if one was produced.
    pub certificate_len: Option<usize>,
}

/// Outcome of one certified round over an arbitrary byte value.
#[derive(Clone, Debug)]
pub struct BytesRoundOutcome {
    /// The certified value.
    pub value: Vec<u8>,
    /// Per-party received values (`None` = no verified certificate).
    pub outputs: Vec<Option<Vec<u8>>>,
    /// Size of the certificate, if one was produced.
    pub certificate_len: Option<usize>,
}

/// The multi-value fan-in payload: one party's ℓ-byte input ascending the
/// tree toward the supreme committee as a whole framed value (the fan-in
/// of a multi-byte [`Service::try_run_stream`] instance).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MvInput {
    /// Instance (service epoch) the input belongs to.
    pub epoch: u64,
    /// The party's input value.
    pub value: Vec<u8>,
}

impl Encode for MvInput {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.epoch.encode(buf);
        self.value.encode(buf);
    }
}

impl Decode for MvInput {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(MvInput {
            epoch: u64::decode(r)?,
            value: Vec::<u8>::decode(r)?,
        })
    }
}

impl WireMsg for MvInput {
    const TAG: u8 = tag::MV_INPUT;
    const STEP: u8 = step::NONE;
}

/// The step-3 dissemination payload: the agreed value and coin seed,
/// bound to the session epoch (Fig. 3 step 3's `(y, s)` pair).
///
/// This is what every virtual identity signs in step 4, so the wire
/// encoding (including the `{tag, step}` header) *is* the signed message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ValueSeed {
    /// Service epoch (certified-round counter) — binds signatures to one
    /// execution and blocks cross-epoch replay.
    pub epoch: u64,
    /// The value the supreme committee agreed on.
    pub value: Vec<u8>,
    /// The coin seed `s` driving the PRF spread.
    pub seed: Digest,
}

impl Encode for ValueSeed {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.epoch.encode(buf);
        self.value.encode(buf);
        self.seed.encode(buf);
    }
}

impl Decode for ValueSeed {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ValueSeed {
            epoch: u64::decode(r)?,
            value: Vec::<u8>::decode(r)?,
            seed: Digest::decode(r)?,
        })
    }
}

impl WireMsg for ValueSeed {
    const TAG: u8 = tag::VALUE_SEED;
    const STEP: u8 = step::DISSEMINATE;
}

/// The step-6 dissemination payload: the certified `(y, s)` plus the
/// aggregate root signature `σ_root` (Fig. 3 step 6's triple).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Certificate {
    /// Service epoch the certificate was produced in.
    pub epoch: u64,
    /// The certified value.
    pub value: Vec<u8>,
    /// The coin seed `s`.
    pub seed: Digest,
    /// The scheme-encoded aggregate signature `σ_root`.
    pub sig: Vec<u8>,
}

impl Encode for Certificate {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.epoch.encode(buf);
        self.value.encode(buf);
        self.seed.encode(buf);
        self.sig.encode(buf);
    }
}

impl Decode for Certificate {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Certificate {
            epoch: u64::decode(r)?,
            value: Vec::<u8>::decode(r)?,
            seed: Digest::decode(r)?,
            sig: Vec::<u8>::decode(r)?,
        })
    }
}

impl WireMsg for Certificate {
    const TAG: u8 = tag::CERTIFICATE;
    const STEP: u8 = step::CERTIFY;
}

/// One node's step-5 charge `(level, node, out_len)`:
/// [`charge_aggr_round`] over the node's distinct committee and honest
/// members, with an `out_len`-byte aggregate.
type AggrCharge = (usize, usize, usize);

impl<'a, S> Service<'a, S>
where
    S: Srds,
    S::Signature: Encode + Decode,
{
    /// Fallible step 2a: phase-king under the session's committee
    /// adversary, with the phase round limit surfaced as
    /// [`ProtocolError::Timeout`] and honest divergence as
    /// [`ProtocolError::Disagreement`].
    pub fn try_committee_ba(
        &mut self,
        committee_inputs: &BTreeMap<PartyId, u8>,
    ) -> Result<u8, ProtocolError> {
        let supreme = self.supreme_committee();
        let mut adversary = self.committee_adversary(&supreme);
        let mut machines: BTreeMap<PartyId, PhaseKing<u8>> = supreme
            .iter()
            .filter(|p| !self.est.corrupt.contains(p))
            .map(|&p| {
                let input = committee_inputs.get(&p).copied().unwrap_or(0);
                (p, PhaseKing::new(supreme.clone(), p, input))
            })
            .collect();
        let outcome = {
            let mut erased: BTreeMap<PartyId, Box<dyn Machine + Send + '_>> = machines
                .iter_mut()
                .map(|(&id, m)| (id, Box::new(m) as Box<dyn Machine + Send + '_>))
                .collect();
            run_phase_threaded(
                &mut self.net,
                &mut erased,
                adversary.as_mut(),
                rounds_for(supreme.len()) + 6,
                self.est.threads,
            )
        };
        let outputs = machines.values().filter_map(|m| m.output().copied());
        let run = outcome.completed.then(|| outputs.collect()).ok_or(outcome);
        self.unanimous(ProtocolPhase::CommitteeBa, run)
    }

    /// Fallible step 2b: the robust VSS coin toss
    /// ([`crate::vss_coin::try_toss_coin_vss`] — Shamir deal/echo,
    /// error-corrected reconstruction, phase-king on the candidate seed),
    /// with the phase round limit surfaced as [`ProtocolError::Timeout`]
    /// and honest seed divergence as [`ProtocolError::Disagreement`].
    pub fn try_committee_coin(&mut self) -> Result<Digest, ProtocolError> {
        let supreme = self.supreme_committee();
        let mut adversary = self.committee_adversary(&supreme);
        let epoch = self.epoch;
        let run = try_toss_coin_vss(
            &mut self.net,
            &supreme,
            adversary.as_mut(),
            &mut self.est.prg.child("coin", epoch),
            self.est.threads,
        )
        .map(|seeds| seeds.into_values().collect());
        self.unanimous(ProtocolPhase::CommitteeCoin, run)
    }

    /// Step 2's verdict on a committee phase: the one value every honest
    /// member output, an incomplete phase as a transport failure (if the
    /// transport recorded one) or else a [`ProtocolError::Timeout`], and
    /// anything but exactly one distinct value as a
    /// [`ProtocolError::Disagreement`].
    fn unanimous<T: Copy>(
        &self,
        phase: ProtocolPhase,
        run: Result<BTreeSet<T>, PhaseOutcome>,
    ) -> Result<T, ProtocolError> {
        let values = run.map_err(|outcome| {
            self.transport_failure(phase)
                .unwrap_or(ProtocolError::Timeout {
                    phase,
                    rounds: outcome.rounds,
                })
        })?;
        match values.iter().next() {
            Some(&value) if values.len() == 1 => Ok(value),
            _ => Err(ProtocolError::Disagreement {
                phase,
                distinct: values.len(),
            }),
        }
    }

    /// Steps 3–8 for an already-agreed `(y, s)`: certified dissemination,
    /// SRDS aggregation up the tree, certificate dissemination, and the
    /// PRF spread.
    pub fn certify_and_spread(&mut self, y: u8, s: Digest) -> RoundOutcome {
        let bytes_outcome = self.certify_bytes(vec![y], s);
        RoundOutcome {
            y,
            outputs: bytes_outcome
                .outputs
                .iter()
                .map(|o| o.as_ref().and_then(|v| v.first().copied()))
                .collect(),
            certificate_len: bytes_outcome.certificate_len,
        }
    }

    /// The byte-value core of steps 3–8, shared by bit agreement, streamed
    /// instances, multi-execution broadcast, and the MPC corollary: certify
    /// an arbitrary `value` the supreme committee already agreed on and
    /// deliver it to everyone. Everything keys off the current service
    /// epoch (dissemination payloads, signatures, replay filters), which
    /// advances once the value is delivered.
    /// Steps 4, 5 and 7–8 compute without the network, then charge.
    pub fn certify_bytes(&mut self, value: Vec<u8>, s: Digest) -> BytesRoundOutcome {
        let epoch = self.epoch;
        let value_seed = |value, seed| wire::encode_msg(&ValueSeed { epoch, value, seed });

        // ---- Step 3: disseminate (epoch, value, s). ----
        let payload = value_seed(value.clone(), s);
        // Wire-valid but wrong content: survives the hardened decode and
        // dies at signature verification, like a real equivocation would.
        let garbage = value_seed(vec![0xee; value.len()], Digest::ZERO);
        // What corrupt slots sign in step 4 under the Byzantine profile.
        let evil_payload = value_seed(vec![9; value.len().max(1)], Digest::ZERO);
        // Crash-recovery churn: a party offline while (y, s) travels the
        // tree receives nothing here — it also signs nothing in step 4 and
        // resyncs from the step 7–8 certificate spread once it rejoins.
        let received = self.disseminate_from_root(&payload, garbage);
        self.snap("3:disseminate-(y,s)");

        let (leaves, evil_sigs, charges) = self.sign_and_submit(&payload, &evil_payload, &received);
        let sigma_root = self.aggregate_up(&payload, &evil_payload, leaves, evil_sigs, charges);
        let certificate_len = sigma_root
            .as_ref()
            .map(|s| self.est.scheme.signature_len(s));

        // ---- Step 6: disseminate (value, s, σ_root). ----
        let certificate = sigma_root.as_ref().map(|sig| {
            wire::encode_msg(&Certificate {
                epoch,
                value: value.clone(),
                seed: s,
                sig: encode_to_vec(sig),
            })
        });
        // Fresh offline set: the tick advanced since step 3, so a party
        // that rejoined in between participates here normally.
        let holders = certificate
            .as_ref()
            .map(|cert| self.disseminate_from_root(cert, vec![0xbb; cert.len()]));
        self.snap("6:disseminate-certificate");

        let outputs = self.spread(certificate.as_deref().zip(holders));
        self.epoch += 1;
        BytesRoundOutcome {
            value,
            outputs,
            certificate_len,
        }
    }

    /// Fig. 3 step 4 in two passes. The compute pass signs and aggregates
    /// every leaf, the leaves split across the host's cores; a worker
    /// holds one leaf's signatures at a time, so peak signature storage is
    /// one committee per worker. The charge pass then charges the leaves'
    /// submissions in leaf order on the calling thread, so the output, the
    /// charges and their order are the same at every worker count. The
    /// leaves' step-5a charges go to step 5.
    #[allow(clippy::type_complexity)] // step 5's three inputs
    fn sign_and_submit(
        &mut self,
        payload: &[u8],
        evil_payload: &[u8],
        received: &DisseminationResult,
    ) -> (
        Vec<Option<S::Signature>>,
        Vec<S::Signature>,
        Vec<AggrCharge>,
    ) {
        // Isolated parties and malformed payloads sign nothing.
        let received: Vec<Option<&[u8]>> = (0..received.per_party.len())
            .map(|p| received.party_value(p))
            .map(|r| r.filter(|b| wire::decode_msg::<ValueSeed>(b).is_ok()))
            .collect();
        let (est, epoch) = (&self.est, self.epoch);
        let leaf_count = est.tree.params().leaf_count;
        let workers = std::thread::available_parallelism().map_or(1, |w| w.get());
        let signed = par_map(leaf_count, workers, |leaf| {
            est.sign_leaf(leaf, epoch, payload, evil_payload, &received)
        });
        let (mut leaves, mut evil_sigs, mut charges) = (Vec::new(), Vec::new(), Vec::new());
        for (leaf, (aggregate, charge, corrupt, submits)) in signed.into_iter().enumerate() {
            let (committee, _) = est.members(0, leaf);
            for (len, signers) in &submits {
                let metrics = self.net.metrics_mut();
                metrics.charge_exchange(signers, &committee, *len, tag::SIG_SUBMIT, true);
            }
            leaves.push(aggregate);
            charges.push(charge);
            evil_sigs.extend(corrupt);
        }
        self.net.bump_round();
        self.snap("4:sign-and-submit");
        (leaves, evil_sigs, charges)
    }

    /// Fig. 3 step 5: robust redundant-path aggregation up the tree. Every
    /// node's aggregate ascends via its full committee; parents vote per
    /// child over the redundant copies (DESIGN.md §4b), so a node
    /// contributes while corrupted members are a strict minority of its
    /// distinct committee. Every node's `f_aggr-sig` is charged at the end.
    fn aggregate_up(
        &mut self,
        payload: &[u8],
        evil_payload: &[u8],
        leaves: Vec<Option<S::Signature>>,
        evil_sigs: Vec<S::Signature>,
        mut charges: Vec<AggrCharge>,
    ) -> Option<S::Signature> {
        // All leaves aggregated in parallel: one list-hash + MPC round pair
        // (the list and body-push rounds are empty when every hash matches).
        self.net.bump_round();
        self.net.bump_round();
        let est = &self.est;
        // The colluding copy corrupted members vote for at every node: an
        // aggregate over the adversary's divergent message. It can win the
        // vote at a majority-corrupted node, but aggregate1's validation
        // drops it at the next honest combine — withholding in disguise.
        let evil_copy = (!evil_sigs.is_empty())
            .then(|| {
                est.scheme
                    .aggregate(&est.pp, &est.keyboard, evil_payload, &evil_sigs)
            })
            .flatten();
        let outcome = ascend(
            &mut self.net,
            &est.tree,
            &est.corrupt,
            leaves,
            |level, node, winners| {
                // Each child's winner, held to the child's range.
                let ranges = est
                    .tree
                    .children(level, node)
                    .map(|child| est.tree.node_range(level - 1, child));
                let candidates = ranges
                    .zip(winners)
                    .filter_map(|(range, w)| Some((range, w.clone()?)));
                let (aggregate, charge) = est.aggregate_node(level, node, payload, candidates);
                charges.push(charge);
                aggregate
            },
            |_, _, _| evil_copy.clone(),
            |sig| est.scheme.signature_len(sig),
            tag::AGGR_SHARE,
        );
        for (level, node, out_len) in charges {
            let (committee, honest) = est.members(level, node);
            charge_aggr_round(&mut self.net, &committee, &honest, out_len);
        }
        self.snap("5:tree-aggregation");
        outcome.root_value
    }

    /// Fig. 3 steps 7–8, holder by holder: a holder's PRF targets, the
    /// outputs they settle and its send charge. The receive side is charged
    /// after the last holder, one call per receiver and holder byte length.
    pub(super) fn spread(
        &mut self,
        certified: Option<(&[u8], DisseminationResult)>,
    ) -> Vec<Option<Vec<u8>>> {
        let est = &self.est;
        let n = est.tree.params().n;
        let mut outputs: Vec<Option<Vec<u8>>> = vec![None; n];
        if let Some((certificate, holders)) = certified {
            let epoch = self.epoch;
            // Step 6 hands every honest holder the same bytes, so the
            // verdict on that one payload is computed once and a holder of
            // identical bytes takes it; any other bytes (relayed garbage, a
            // spliced certificate) get the full decode-and-verify.
            let verdict = est.verify_certificate(epoch, certificate);
            let verify = |bytes: &[u8]| {
                if bytes == certificate {
                    verdict.clone()
                } else {
                    est.verify_certificate(epoch, bytes)
                }
            };
            let offline = self.net.offline_set();
            // A corrupt party ignores a copy and an offline one lets it
            // expire unread; an honest party offline now neither outputs
            // nor sends.
            let processes = |p: &PartyId| !est.corrupt.contains(p) && !offline.contains(p);
            let held: Vec<(PartyId, &[u8])> = est
                .honest
                .iter()
                .filter(|p| processes(p))
                .filter_map(|&p| Some((p, holders.party_value(p.index())?)))
                .collect();
            for &(p, bytes) in &held {
                outputs[p.index()] = verify(bytes);
            }
            let committee_size = est.tree.params().committee_size;
            let subset_size = committee_size.min(n.saturating_sub(1)).max(1);
            // Every processed copy as `receiver << 32 | holder index`
            // (both < n), charged per receiver once all holders have sent.
            // Reserved once: a growing vector would double past the step's
            // peak.
            debug_assert!(u32::try_from(n).is_ok(), "receipts pack ids in 32 bits");
            let mut receipts: Vec<u64> = Vec::with_capacity(held.len() * subset_size);
            for (holder, &(p, bytes)) in held.iter().enumerate() {
                let Ok(cert) = wire::decode_msg::<Certificate>(bytes) else {
                    continue;
                };
                let prf = SubsetPrf::new(cert.seed, n as u64, subset_size);
                // F_s(p) may draw p itself (the PRF samples all of [n]): a
                // holder has its copy, so like every committee exchange it
                // charges no link to itself.
                let targets: Vec<PartyId> = prf
                    .eval(p.0)
                    .into_iter()
                    .map(PartyId)
                    .filter(|&r| r != p)
                    .collect();
                // j ∈ F_s(i) holds by construction of the targets; the
                // receiver still verifies the certificate in full.
                for r in targets.iter().filter(|r| processes(r)) {
                    if outputs[r.index()].is_none() {
                        outputs[r.index()] = verify(bytes);
                    }
                }
                let metrics = self.net.metrics_mut();
                metrics.record_sends_tagged(p, &targets, bytes.len(), tag::SPREAD);
                let processed = targets.iter().filter(|r| processes(r));
                receipts.extend(processed.map(|r| r.0 << 32 | holder as u64));
            }
            // One receive charge per receiver and holder byte length: under
            // the Byzantine profile holders may hold bytes of different
            // lengths.
            receipts.sort_unstable();
            let receiver = |receipt: u64| PartyId(receipt >> 32);
            let holder = |receipt: u64| held[receipt as u32 as usize];
            let same_charge = |a: &u64, b: &u64| {
                receiver(*a) == receiver(*b) && holder(*a).1.len() == holder(*b).1.len()
            };
            let metrics = self.net.metrics_mut();
            let mut senders = Vec::new();
            for run in receipts.chunk_by(same_charge) {
                senders.clear();
                senders.extend(run.iter().map(|&receipt| holder(receipt).0));
                let (to, len) = (receiver(run[0]), holder(run[0]).1.len());
                metrics.record_receives_tagged(to, &senders, len, tag::SPREAD);
            }
            self.net.bump_round();
        }
        self.snap("7-8:prf-spread+output");
        outputs
    }

    /// Fig. 3 steps 3 and 6: the honest supreme committee members hand
    /// `payload` down the tree, corrupt relays pushing `garbage` under the
    /// Byzantine profile; a party offline at the current tick receives
    /// nothing.
    fn disseminate_from_root(&mut self, payload: &[u8], garbage: Vec<u8>) -> DisseminationResult {
        let mut adv: Box<AdversaryFn<'static>> = match self.est.profile {
            AdversaryProfile::Passive => Box::new(honest_adversary()),
            AdversaryProfile::Byzantine => Box::new(constant_adversary(garbage)),
        };
        let corrupt = &self.est.corrupt;
        let root_values = |member: PartyId| (!corrupt.contains(&member)).then(|| payload.to_vec());
        let mut result = disseminate(
            &mut self.net,
            &self.est.tree,
            corrupt,
            &root_values,
            adv.as_mut(),
        );
        for p in self.net.offline_set() {
            result.per_party[p.index()] = None;
        }
        result
    }

    /// Fallible certified round: any committee-phase failure — including
    /// an exhausted one-time signing budget
    /// ([`ProtocolError::KeyBudget`]) — is returned as a
    /// [`ProtocolError`] instead of panicking, leaving the session
    /// reusable (metrics intact, epoch advanced only on success).
    pub fn try_certified_round(
        &mut self,
        committee_inputs: &BTreeMap<PartyId, u8>,
    ) -> Result<RoundOutcome, ProtocolError> {
        self.reserve_epoch()?;
        let committee_values = committee_inputs
            .iter()
            .map(|(&p, &b)| (p, vec![b]))
            .collect();
        let (value, s) = self.committee_agree(&committee_values, 1)?;
        Ok(self.certify_and_spread(value[0], s))
    }

    /// Step 2 on fanned-in committee values — per-byte `f_ba`, `f_ct`, the
    /// step-2 snapshot: the one sequence behind
    /// [`Service::try_certified_round`] and every streamed instance. The
    /// snapshot is taken on failure too, so the bytes a failed committee
    /// phase charged stay with its instance.
    pub(super) fn committee_agree(
        &mut self,
        committee_values: &BTreeMap<PartyId, Vec<u8>>,
        width: usize,
    ) -> Result<(Vec<u8>, Digest), ProtocolError> {
        let agreed = self
            .try_committee_ba_bytes(committee_values, width)
            .and_then(|value| Ok((value, self.try_committee_coin()?)));
        self.snap("2:committee-ba+coin");
        agreed
    }

    /// Robust fan-in of every party's input for the committee
    /// sub-protocols: inputs ascend the tree over redundant committee
    /// paths ([`pba_aetree::robust::robust_input_fanin`]) and each supreme
    /// committee member adopts the value it computed over the redundant
    /// paths, falling back to its own local input when the ascent produced
    /// no strict-majority value (the safe default — a jammed fan-in never
    /// substitutes an adversarial value).
    pub fn robust_committee_inputs(&mut self, inputs: &[u8]) -> BTreeMap<PartyId, u8> {
        assert_eq!(inputs.len(), self.params().n, "one input per party");
        let corrupt_value = match self.est.profile {
            AdversaryProfile::Passive => None,
            AdversaryProfile::Byzantine => Some(0xaa),
        };
        let outcome = robust_input_fanin(
            &mut self.net,
            &self.est.tree,
            &self.est.corrupt,
            inputs,
            corrupt_value,
        );
        self.adopt_root(outcome, inputs)
    }

    /// Every supreme committee member adopts the value the fan-in left the
    /// root's honest members with, or keeps its own input when none formed.
    fn adopt_root<T: Clone>(
        &self,
        outcome: AscentOutcome<T>,
        inputs: &[T],
    ) -> BTreeMap<PartyId, T> {
        let ascended = &outcome.honest_values[self.est.tree.height() - 1][0];
        let adopt = |p: PartyId| {
            ascended
                .clone()
                .unwrap_or_else(|| inputs[p.index()].clone())
        };
        self.supreme_committee()
            .into_iter()
            .map(|p| (p, adopt(p)))
            .collect()
    }

    /// Multi-value analogue of [`Service::robust_committee_inputs`]: each
    /// party's ℓ-byte value rides the redundant-path ascent as a whole
    /// (framed as [`MvInput`], charged under [`tag::MV_INPUT`]); whole
    /// values are voted at every node, so an ascended winner is always
    /// some party's actual input, never a byte-wise chimera. Supreme
    /// committee members adopt the winner, falling back to their own
    /// input when no strict majority formed. Corrupt parties vote a
    /// `width`-byte value.
    pub(super) fn robust_committee_values(
        &mut self,
        inputs: &[Vec<u8>],
        width: usize,
    ) -> BTreeMap<PartyId, Vec<u8>> {
        assert_eq!(inputs.len(), self.params().n, "one input value per party");
        let corrupt_value = match self.est.profile {
            AdversaryProfile::Passive => None,
            AdversaryProfile::Byzantine => Some(vec![0xaa; width]),
        };
        let epoch = self.epoch;
        let outcome = robust_input_fanin_with(
            &mut self.net,
            &self.est.tree,
            &self.est.corrupt,
            inputs,
            corrupt_value,
            |v: &Vec<u8>| {
                wire::encode_msg(&MvInput {
                    epoch,
                    value: v.clone(),
                })
                .len()
            },
            tag::MV_INPUT,
        );
        self.adopt_root(outcome, inputs)
    }

    /// Multi-value `f_ba`: the supreme committee agrees on an ℓ-byte
    /// value by per-byte composition — one phase-king instance per byte
    /// position over the same committee. A leader-value design would trade
    /// these rounds for validation complexity; composition keeps every byte
    /// under the same proven agreement engine.
    fn try_committee_ba_bytes(
        &mut self,
        committee_values: &BTreeMap<PartyId, Vec<u8>>,
        width: usize,
    ) -> Result<Vec<u8>, ProtocolError> {
        let mut value = Vec::with_capacity(width);
        for pos in 0..width {
            let byte_inputs: BTreeMap<PartyId, u8> = committee_values
                .iter()
                .map(|(&p, v)| (p, v.get(pos).copied().unwrap_or(0)))
                .collect();
            value.push(self.try_committee_ba(&byte_inputs)?);
        }
        Ok(value)
    }
}

impl<S> Established<'_, S>
where
    S: Srds,
    S::Signature: Encode + Decode,
{
    /// Signs `message` as virtual identity `slot` in execution `epoch`,
    /// under the session's [`super::KeyPolicy`]: with the held key, or from the
    /// slot's keygen PRG and kept residue. Bit-identical either way; `None`
    /// is the scheme's `⊥` (sortition loser, epoch past capacity).
    pub(super) fn sign_slot(&self, slot: u64, epoch: u64, message: &[u8]) -> Option<S::Signature> {
        match &self.keys {
            KeyStore::Eager(sks) => {
                self.scheme
                    .sign_epoch(&self.pp, slot, &sks[slot as usize], epoch, message)
            }
            KeyStore::Lazy { residue, stride } => {
                let at = slot as usize * stride;
                self.scheme.sign_epoch_rederived(
                    &self.pp,
                    slot,
                    &slot_keygen_prg(&self.prg, &self.tree, slot),
                    &residue[at..at + stride],
                    epoch,
                    message,
                )
            }
        }
    }

    /// One leaf's step 4 and step 5a, without the network: every slot
    /// signs — an honest owner what it received, a corrupt one (Byzantine
    /// profile only) `evil_payload` — and the leaf committee aggregates.
    /// Also returns the corrupt slots' signatures and the honest
    /// submitters grouped by signature length, one entry per signature.
    #[allow(clippy::type_complexity)] // named where step 4 destructures it
    fn sign_leaf(
        &self,
        leaf: usize,
        epoch: u64,
        payload: &[u8],
        evil_payload: &[u8],
        received: &[Option<&[u8]>],
    ) -> (
        Option<S::Signature>,
        AggrCharge,
        Vec<S::Signature>,
        Vec<(usize, Vec<PartyId>)>,
    ) {
        let byzantine = self.profile == AdversaryProfile::Byzantine;
        let (mut sigs, mut corrupt) = (Vec::new(), Vec::new());
        let mut submits: Vec<(usize, Vec<PartyId>)> = Vec::new();
        for slot in self.tree.leaf_range(leaf) {
            let owner = self.tree.slot_party(slot);
            if self.corrupt.contains(&owner) {
                if !byzantine {
                    continue;
                }
                if let Some(sig) = self.sign_slot(slot, epoch, evil_payload) {
                    corrupt.push(sig.clone());
                    sigs.push(sig);
                }
                continue;
            }
            let Some(sig) =
                received[owner.index()].and_then(|mine| self.sign_slot(slot, epoch, mine))
            else {
                continue; // nothing received, or a sortition loser (OWF)
            };
            let len = self.scheme.signature_len(&sig);
            match submits.iter_mut().find(|(l, _)| *l == len) {
                Some((_, signers)) => signers.push(owner),
                None => submits.push((len, vec![owner])),
            }
            sigs.push(sig);
        }
        let range = self.tree.leaf_range(leaf);
        let candidates = sigs.into_iter().map(|sig| (range.clone(), sig));
        let (aggregate, charge) = self.aggregate_node(0, leaf, payload, candidates);
        (aggregate, charge, corrupt, submits)
    }

    /// Fig. 3 step 5a at node `(level, node)`, without the network: the
    /// uniform `f_aggr-sig` (every member was handed every candidate) over
    /// the candidates whose signers lie inside the range each came for.
    fn aggregate_node(
        &self,
        level: usize,
        node: usize,
        payload: &[u8],
        candidates: impl Iterator<Item = (Range<u64>, S::Signature)>,
    ) -> (Option<S::Signature>, AggrCharge) {
        let (committee, honest) = self.members(level, node);
        let scheme = self.scheme;
        let held: Vec<S::Signature> = candidates
            .filter(|(r, sig)| {
                r.contains(&scheme.min_index(sig)) && r.contains(&scheme.max_index(sig))
            })
            .map(|(_, sig)| sig)
            .collect();
        let aggregate = f_aggr_sig_uniform(
            scheme,
            &self.pp,
            &self.keyboard,
            payload,
            committee.len(),
            honest.len(),
            &held,
        );
        let out_len = aggregate.as_ref().map_or(0, |a| scheme.signature_len(a));
        (aggregate, (level, node, out_len))
    }

    /// Node `(level, node)`'s distinct committee and its honest members.
    pub(crate) fn members(&self, level: usize, node: usize) -> (Vec<PartyId>, Vec<PartyId>) {
        let committee = dedup_committee(self.tree.committee(level, node));
        let mut honest = committee.clone();
        honest.retain(|p| !self.corrupt.contains(p));
        (committee, honest)
    }

    /// Fig. 3 step 8's receiver check on `bytes`: the certified value, when
    /// they decode as an `epoch` certificate whose `σ_root` verifies.
    fn verify_certificate(&self, epoch: u64, bytes: &[u8]) -> Option<Vec<u8>> {
        let cert = wire::decode_msg::<Certificate>(bytes).ok()?;
        if cert.epoch != epoch {
            return None; // cross-epoch replay
        }
        let sig: S::Signature = decode_from_slice(&cert.sig).ok()?;
        let signed = wire::encode_msg(&ValueSeed {
            epoch: cert.epoch,
            value: cert.value.clone(),
            seed: cert.seed,
        });
        self.scheme
            .verify(&self.pp, &self.keyboard, &signed, &sig)
            .then_some(cert.value)
    }
}
