//! The Fig. 3 steps on an established [`Service`]: step 2 (`f_ba`, `f_ct`)
//! among the supreme committee, the robust input fan-in feeding it, and
//! steps 3–8 (disseminate, sign, aggregate, certify, spread).

use super::{AdversaryProfile, ProtocolError, ProtocolPhase, Service};
use crate::aggr::{charge_aggr_round, f_aggr_sig_uniform};
use crate::phase_king::{rounds_for, PhaseKing};
use crate::vss_coin::try_toss_coin_vss;
use pba_aetree::fae::{
    constant_adversary, disseminate, honest_adversary, AdversaryFn, DisseminationResult,
};
use pba_aetree::robust::{ascend, dedup_committee, robust_input_fanin, robust_input_fanin_with};
use pba_crypto::codec::{decode_from_slice, encode_to_vec, CodecError, Decode, Encode, Reader};
use pba_crypto::prf::SubsetPrf;
use pba_crypto::sha256::Digest;
use pba_net::runner::{run_phase_threaded, PhaseOutcome};
use pba_net::wire::{self, step, tag};
use pba_net::{Machine, PartyId, WireMsg};
use pba_srds::traits::Srds;
use std::collections::{BTreeMap, BTreeSet};

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
            .filter(|p| !self.corrupt.contains(p))
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
                self.config.threads,
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
            &mut self.prg.child("coin", epoch),
            self.config.threads,
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
    pub fn certify_bytes(&mut self, value: Vec<u8>, s: Digest) -> BytesRoundOutcome {
        let epoch = self.epoch;
        let n = self.config.n;
        let params = *self.tree.params();

        // ---- Step 3: disseminate (epoch, value, s). ----
        let ys_payload = wire::encode_msg(&ValueSeed {
            epoch,
            value: value.clone(),
            seed: s,
        });
        // Wire-valid but wrong content: survives the hardened decode and
        // dies at signature verification, like a real equivocation would.
        let garbage = wire::encode_msg(&ValueSeed {
            epoch,
            value: vec![0xeeu8; value.len()],
            seed: Digest::ZERO,
        });
        // Crash-recovery churn: a party offline while (y, s) travels the
        // tree receives nothing here — it also signs nothing in step 4 and
        // resyncs from the step 7–8 certificate spread once it rejoins.
        let ys_result = self.disseminate_from_root(&ys_payload, garbage);
        self.snap("3:disseminate-(y,s)");
        let corrupt = self.corrupt.clone();

        // ---- Step 4: sign per virtual identity, submit to leaf committees. ----
        // Streaming leaf-major pass: one leaf's signatures are produced,
        // filtered, and folded into the leaf aggregate before the next
        // leaf's exist, so peak signature storage is one committee's worth
        // instead of all `total_slots` at once.
        let evil_payload = wire::encode_msg(&ValueSeed {
            epoch,
            value: vec![9u8; value.len().max(1)],
            seed: Digest::ZERO,
        });
        let byzantine = self.config.profile == AdversaryProfile::Byzantine;
        let signable: Vec<bool> = (0..n)
            .map(|i| {
                !corrupt.contains(&PartyId(i as u64))
                    && ys_result.per_party[i]
                        .as_ref()
                        .is_some_and(|b| wire::decode_msg::<ValueSeed>(b).is_ok())
            })
            .collect();
        let mut evil_sigs: Vec<S::Signature> = Vec::new();
        let mut leaf_honest: Vec<Option<S::Signature>> = Vec::with_capacity(params.leaf_count);
        // (signatures held, out_len) per leaf: the step-5 aggregation
        // charges, deferred so they land after the step-4 snapshot boundary
        // exactly as in the two-pass formulation.
        let mut leaf_charges: Vec<(usize, usize)> = Vec::with_capacity(params.leaf_count);
        for leaf in 0..params.leaf_count {
            let range = self.tree.leaf_range(leaf);
            let committee = dedup_committee(self.tree.committee(0, leaf));
            let honest_members: Vec<PartyId> = committee
                .iter()
                .filter(|p| !corrupt.contains(p))
                .copied()
                .collect();
            let mut sigs: Vec<S::Signature> = Vec::new();
            // Honest submitters grouped by signature length (one entry per
            // signature): each group is one signer-set → committee exchange.
            let mut submits: Vec<(usize, Vec<PartyId>)> = Vec::new();
            for slot in range.clone() {
                let (owner, _) = self.slot_sk[slot as usize];
                if corrupt.contains(&PartyId(owner as u64)) {
                    if !byzantine {
                        continue;
                    }
                    if let Some(sig) = self.sign_slot(slot, epoch, &evil_payload) {
                        evil_sigs.push(sig.clone());
                        sigs.push(sig);
                    }
                    continue;
                }
                if !signable[owner] {
                    continue; // isolated or malformed payload: signs nothing
                }
                let my_payload = ys_result.per_party[owner]
                    .as_ref()
                    .expect("signable implies payload");
                let Some(sig) = self.sign_slot(slot, epoch, my_payload) else {
                    continue; // sortition loser (OWF scheme)
                };
                let len = self.scheme.signature_len(&sig);
                let p = PartyId(owner as u64);
                match submits.iter_mut().find(|(l, _)| *l == len) {
                    Some((_, signers)) => signers.push(p),
                    None => submits.push((len, vec![p])),
                }
                sigs.push(sig);
            }
            for (len, signers) in &submits {
                self.net.metrics_mut().charge_exchange(
                    signers,
                    &committee,
                    *len,
                    tag::SIG_SUBMIT,
                    true,
                );
            }
            // Step 5a for this leaf: step 4 handed every submitted signature
            // to every leaf member, so all honest members hold the same set
            // (their digest lists agree and nothing is pushed in step 5b);
            // it is aggregated iff the honest members form the f_aggr-sig
            // quorum.
            let filtered: Vec<S::Signature> = sigs
                .into_iter()
                .filter(|sig| {
                    self.scheme.min_index(sig) == self.scheme.max_index(sig)
                        && range.contains(&self.scheme.min_index(sig))
                })
                .collect();
            let agg = f_aggr_sig_uniform(
                self.scheme,
                &self.pp,
                &self.keyboard,
                &ys_payload,
                committee.len(),
                honest_members.len(),
                &filtered,
            );
            let out_len = agg
                .as_ref()
                .map(|a| self.scheme.signature_len(a))
                .unwrap_or(0);
            leaf_charges.push((filtered.len(), out_len));
            leaf_honest.push(agg);
        }
        self.net.bump_round();
        self.snap("4:sign-and-submit");

        // ---- Step 5: robust redundant-path aggregation up the tree. ----
        // Every node's aggregate ascends via its full committee; parents
        // vote per child over the redundant copies (DESIGN.md §4b), so a
        // node contributes as long as corrupted members stay a strict
        // minority of its distinct committee — the 1/3 goodness threshold
        // only matters for the classical analysis now.
        for (leaf, &(held, out_len)) in leaf_charges.iter().enumerate() {
            let committee = dedup_committee(self.tree.committee(0, leaf));
            let honest_members: Vec<PartyId> = committee
                .iter()
                .filter(|p| !corrupt.contains(p))
                .copied()
                .collect();
            charge_aggr_round(&mut self.net, &honest_members, held, out_len);
        }
        // All leaves aggregated in parallel: one digest-exchange + MPC round
        // pair (the body-push round is empty when nobody lacks a body).
        self.net.bump_round();
        self.net.bump_round();

        // The colluding copy corrupted members vote for at every node: an
        // aggregate over the adversary's divergent message. It can win the
        // vote at a majority-corrupted node, but aggregate1's validation
        // drops it at the next honest combine — withholding in disguise.
        let evil_copy: Option<S::Signature> = if evil_sigs.is_empty() {
            None
        } else {
            self.scheme
                .aggregate(&self.pp, &self.keyboard, &evil_payload, &evil_sigs)
        };

        let scheme = self.scheme;
        let pp = &self.pp;
        let keyboard = &self.keyboard;
        let tree = &self.tree;
        let corrupt_ref = &corrupt;
        let payload_ref = &ys_payload;
        let outcome = ascend(
            &mut self.net,
            tree,
            corrupt_ref,
            leaf_honest,
            |net, level, node, winners| {
                let committee = dedup_committee(tree.committee(level, node));
                let honest_members: Vec<PartyId> = committee
                    .iter()
                    .filter(|p| !corrupt_ref.contains(p))
                    .copied()
                    .collect();
                let mut children_sigs: Vec<S::Signature> = Vec::new();
                for (i, child) in tree.children(level, node).enumerate() {
                    let Some(sig) = winners[i].clone() else {
                        continue;
                    };
                    let child_range = tree.node_range(level - 1, child);
                    if child_range.contains(&scheme.min_index(&sig))
                        && child_range.contains(&scheme.max_index(&sig))
                    {
                        children_sigs.push(sig);
                    }
                }
                let agg = f_aggr_sig_uniform(
                    scheme,
                    pp,
                    keyboard,
                    payload_ref,
                    committee.len(),
                    honest_members.len(),
                    &children_sigs,
                );
                let out_len = agg.as_ref().map(|a| scheme.signature_len(a)).unwrap_or(0);
                charge_aggr_round(net, &honest_members, children_sigs.len(), out_len);
                agg
            },
            |_, _, _| evil_copy.clone(),
            |sig| scheme.signature_len(sig),
            tag::AGGR_SHARE,
        );
        let sigma_root = outcome.root_value;
        let certificate_len = sigma_root.as_ref().map(|s| self.scheme.signature_len(s));
        self.snap("5:tree-aggregation");

        // ---- Step 6: disseminate (value, s, σ_root). ----
        let triple_payload = sigma_root.as_ref().map(|sig| {
            wire::encode_msg(&Certificate {
                epoch,
                value: value.clone(),
                seed: s,
                sig: encode_to_vec(sig),
            })
        });
        // Fresh offline set: the tick advanced since step 3, so a party
        // that rejoined in between participates here normally.
        let triple_result = triple_payload
            .as_ref()
            .map(|payload| self.disseminate_from_root(payload, vec![0xbb; payload.len()]));
        self.snap("6:disseminate-certificate");

        // ---- Steps 7–8: PRF spread and output. ----
        let subset_size = params.committee_size.min(n.saturating_sub(1)).max(1);
        let mut outputs: Vec<Option<Vec<u8>>> = vec![None; n];
        let scheme = self.scheme;
        let pp = &self.pp;
        let keyboard = &self.keyboard;
        let decode_and_verify = |bytes: &[u8]| -> Option<Vec<u8>> {
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
            scheme
                .verify(pp, keyboard, &signed, &sig)
                .then_some(cert.value)
        };
        // Step 6 hands every honest holder the same bytes, so the verdict
        // on that one payload is computed once and a holder of identical
        // bytes takes it; any other bytes (relayed garbage, a spliced
        // certificate) get the full decode-and-verify.
        let disseminated = triple_payload
            .as_deref()
            .map(|payload| (payload, decode_and_verify(payload)));
        let verify_triple = |bytes: &[u8]| match &disseminated {
            Some((payload, verdict)) if *payload == bytes => verdict.clone(),
            _ => decode_and_verify(bytes),
        };

        if let Some(result) = &triple_result {
            let offline = self.net.offline_set();
            for &p in &self.honest {
                if offline.contains(&p) {
                    continue; // down: cannot produce an output this epoch
                }
                if let Some(bytes) = &result.per_party[p.index()] {
                    if let Some(v_out) = verify_triple(bytes) {
                        outputs[p.index()] = Some(v_out);
                    }
                }
            }
            for &p in &self.honest {
                if offline.contains(&p) {
                    continue; // down: sends nothing into the spread
                }
                let Some(bytes) = &result.per_party[p.index()] else {
                    continue;
                };
                let Ok(cert) = wire::decode_msg::<Certificate>(bytes) else {
                    continue;
                };
                let prf = SubsetPrf::new(cert.seed, n as u64, subset_size);
                let targets: Vec<PartyId> = prf.eval(p.0).into_iter().map(PartyId).collect();
                self.net
                    .metrics_mut()
                    .record_sends_tagged(p, &targets, bytes.len(), tag::SPREAD);
                for receiver in targets {
                    if corrupt.contains(&receiver) || offline.contains(&receiver) {
                        continue; // corrupt ignores; offline expires unread
                    }
                    // Receiver-side dynamic filter (j ∈ F_s(i) holds by
                    // construction of the sender's target set; the receiver
                    // recomputes it from the message's own seed), then full
                    // SRDS verification.
                    self.net.metrics_mut().record_receive_tagged(
                        receiver,
                        p,
                        bytes.len(),
                        tag::SPREAD,
                    );
                    if outputs[receiver.index()].is_none() {
                        if let Some(v_out) = verify_triple(bytes) {
                            outputs[receiver.index()] = Some(v_out);
                        }
                    }
                }
            }
            self.net.bump_round();
        }
        self.snap("7-8:prf-spread+output");

        self.epoch += 1;
        BytesRoundOutcome {
            value,
            outputs,
            certificate_len,
        }
    }

    /// Fig. 3 steps 3 and 6: the honest supreme committee members hand
    /// `payload` down the tree, corrupt relays pushing `garbage` under the
    /// Byzantine profile; a party offline at the current tick receives
    /// nothing.
    fn disseminate_from_root(&mut self, payload: &[u8], garbage: Vec<u8>) -> DisseminationResult {
        let mut adv: Box<AdversaryFn<'static>> = match self.config.profile {
            AdversaryProfile::Passive => Box::new(honest_adversary()),
            AdversaryProfile::Byzantine => Box::new(constant_adversary(garbage)),
        };
        let corrupt = &self.corrupt;
        let root_values = |member: PartyId| (!corrupt.contains(&member)).then(|| payload.to_vec());
        let mut result = disseminate(
            &mut self.net,
            &self.tree,
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
    /// [`Service::try_certified_round`] and every streamed instance.
    pub(super) fn committee_agree(
        &mut self,
        committee_values: &BTreeMap<PartyId, Vec<u8>>,
        width: usize,
    ) -> Result<(Vec<u8>, Digest), ProtocolError> {
        let value = self.try_committee_ba_bytes(committee_values, width)?;
        let s = self.try_committee_coin()?;
        self.snap("2:committee-ba+coin");
        Ok((value, s))
    }

    /// Robust fan-in of every party's input for the committee
    /// sub-protocols: inputs ascend the tree over redundant committee
    /// paths ([`pba_aetree::robust::robust_input_fanin`]) and each supreme
    /// committee member adopts the value it computed over the redundant
    /// paths, falling back to its own local input when the ascent produced
    /// no strict-majority value (the safe default — a jammed fan-in never
    /// substitutes an adversarial value).
    pub fn robust_committee_inputs(&mut self, inputs: &[u8]) -> BTreeMap<PartyId, u8> {
        assert_eq!(inputs.len(), self.config.n, "one input per party");
        let corrupt_value = match self.config.profile {
            AdversaryProfile::Passive => None,
            AdversaryProfile::Byzantine => Some(0xaa),
        };
        let corrupt = self.corrupt.clone();
        let outcome =
            robust_input_fanin(&mut self.net, &self.tree, &corrupt, inputs, corrupt_value);
        let root_level = self.tree.height() - 1;
        let ascended = outcome.honest_values[root_level][0];
        self.supreme_committee()
            .iter()
            .map(|&p| (p, ascended.unwrap_or(inputs[p.index()])))
            .collect()
    }

    /// Multi-value analogue of [`Service::robust_committee_inputs`]: each
    /// party's ℓ-byte value rides the redundant-path ascent as a whole
    /// (framed as [`MvInput`], charged under [`tag::MV_INPUT`]); whole
    /// values are voted at every node, so an ascended winner is always
    /// some party's actual input, never a byte-wise chimera. Supreme
    /// committee members adopt the winner, falling back to their own
    /// input when no strict majority formed.
    pub(super) fn robust_committee_values(
        &mut self,
        inputs: &[Vec<u8>],
    ) -> BTreeMap<PartyId, Vec<u8>> {
        assert_eq!(inputs.len(), self.config.n, "one input value per party");
        let width = inputs.iter().map(Vec::len).max().unwrap_or(0);
        let corrupt_value = match self.config.profile {
            AdversaryProfile::Passive => None,
            AdversaryProfile::Byzantine => Some(vec![0xaa; width]),
        };
        let corrupt = self.corrupt.clone();
        let epoch = self.epoch;
        let outcome = robust_input_fanin_with(
            &mut self.net,
            &self.tree,
            &corrupt,
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
        let root_level = self.tree.height() - 1;
        let ascended = outcome.honest_values[root_level][0].clone();
        self.supreme_committee()
            .iter()
            .map(|&p| {
                (
                    p,
                    ascended
                        .clone()
                        .unwrap_or_else(|| inputs[p.index()].clone()),
                )
            })
            .collect()
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
