//! The MPC corollary (Corollary 1.2(2)): assuming (threshold) FHE, any
//! function `f : ({0,1}^ℓin)^n → {0,1}^ℓout` can be securely computed with
//! guaranteed output delivery and **total** communication
//! `n · polylog(n) · poly(κ) · (ℓin + ℓout)` bits.
//!
//! The construction rides the `π_ba` session infrastructure:
//!
//! 1. threshold-FHE keys are dealt to the supreme committee at setup
//!    (decryption threshold = majority — above the corrupt third, below
//!    the honest two-thirds);
//! 2. every party encrypts its input and submits the ciphertext to its
//!    leaf committees — `polylog` recipients of `ℓin + O(κ)` bytes;
//! 3. ciphertexts are **homomorphically merged up the tree**: each good
//!    node evaluates the union of its children's encrypted input maps
//!    (never seeing a plaintext); Byzantine-controlled bad nodes may drop
//!    their subtree — the inputs they lose are the protocol's `⊥` inputs,
//!    as in any guaranteed-output-delivery definition;
//! 4. the supreme committee evaluates `f` under encryption, exchanges
//!    decryption shares, and reconstructs the output;
//! 5. the output is delivered to everyone through the certified
//!    dissemination of Fig. 3 (steps 3–8) via
//!    [`crate::protocol::Service::certify_bytes`].
//!
//! Communication: step 2 is `n · polylog · ℓin`; step 3 sums to
//! `n · ℓin` ciphertext bytes per level across `polylog` copies and
//! `O(log n)` levels; step 5 is `n · polylog · ℓout` — matching the
//! corollary's bound. (Parties near the root carry more than `Õ(ℓin)` —
//! the corollary bounds *total*, not per-party, communication.)

use crate::protocol::{AdversaryProfile, BaConfig, ProtocolError, ProtocolPhase, Service};
use pba_aetree::analysis::TreeAnalysis;
use pba_aetree::robust::dedup_committee;
use pba_crypto::codec::{decode_from_slice, encode_to_vec, Decode, Encode};
use pba_net::wire::tag;
use pba_net::{PartyId, Report};
use pba_snark::fhe::{Ciphertext, FheSystem};
use pba_srds::traits::Srds;
use std::collections::BTreeMap;

/// Outcome of one MPC execution.
#[derive(Clone, Debug)]
pub struct MpcOutcome {
    /// The function output computed by the supreme committee.
    pub output: Vec<u8>,
    /// Per-party delivered outputs (`None` = no verified certificate).
    pub outputs: Vec<Option<Vec<u8>>>,
    /// How many parties' inputs reached the evaluation.
    pub inputs_included: usize,
    /// Honest-party communication report.
    pub report: Report,
    /// Certificate size for the output delivery.
    pub certificate_len: Option<usize>,
}

type InputMap = Vec<(u64, Vec<u8>)>; // sorted by party id

fn merge_maps(maps: &[Vec<u8>]) -> Vec<u8> {
    let mut merged: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    for encoded in maps {
        if let Ok(entries) = decode_from_slice::<InputMap>(encoded) {
            for (id, input) in entries {
                merged.entry(id).or_insert(input);
            }
        }
    }
    let out: InputMap = merged.into_iter().collect();
    encode_to_vec(&out)
}

/// Runs the FHE-based MPC over one `π_ba` session.
///
/// `inputs[i]` is party `i`'s private input; `f` receives the map of
/// included inputs (missing parties = `⊥`) and returns the public output.
///
/// # Errors
///
/// [`ProtocolError::CorruptionBound`] (or an interactive establishment's
/// failure) when establishment refuses the configuration; a
/// [`ProtocolError::Stalled`] certification with `delivered: 0` when no
/// output can form — the merge reaches no root ciphertext (a supreme
/// committee that is not good drops it) or the honest members hold fewer
/// decryption shares than the threshold; the coin's error when the
/// supreme committee cannot toss it.
///
/// # Panics
///
/// Panics if `inputs.len() != config.n`.
pub fn run_mpc<S, F>(
    scheme: &S,
    config: &BaConfig,
    inputs: &[Vec<u8>],
    f: F,
) -> Result<MpcOutcome, ProtocolError>
where
    S: Srds,
    S::Signature: Encode + Decode,
    F: Fn(&BTreeMap<u64, Vec<u8>>) -> Vec<u8>,
{
    assert_eq!(inputs.len(), config.n, "one input per party");
    let mut session = Service::try_establish(scheme, config)?;
    // Nothing to deliver: every honest party ends without output.
    let no_output = ProtocolError::Stalled {
        phase: ProtocolPhase::Certification,
        delivered: 0,
        honest: session.honest().len(),
    };
    let supreme = session.supreme_committee();
    // Read beside the network's charges: the established half is fixed.
    let est = &session.est;
    let (tree, corrupt) = (&est.tree, &est.corrupt);
    let params = *tree.params();
    let analysis = TreeAnalysis::analyze(tree, corrupt);

    // 1. Threshold-FHE setup for the supreme committee (majority threshold:
    //    above the corrupt third, within the honest two-thirds).
    let mut fhe_seed = config.seed.clone();
    fhe_seed.extend_from_slice(b"/fhe");
    let fhe = FheSystem::setup(&fhe_seed, supreme.len(), supreme.len() / 2 + 1);

    // 2. Input submission: every party encrypts its (id, input) singleton
    //    map and sends the ciphertext to each of its leaf committees.
    let mut leaf_cts: Vec<Vec<Ciphertext>> = vec![Vec::new(); params.leaf_count];
    for i in 0..config.n as u64 {
        let p = PartyId(i);
        let honest = !corrupt.contains(&p);
        let input = match (honest, config.profile) {
            (true, _) => inputs[i as usize].clone(),
            // Byzantine parties may submit arbitrary inputs — the
            // functionality computes over whatever they choose.
            (false, AdversaryProfile::Byzantine) => vec![0xff; inputs[i as usize].len()],
            (false, AdversaryProfile::Passive) => continue,
        };
        let singleton: InputMap = vec![(i, input)];
        let ct = fhe.encrypt(&encode_to_vec(&singleton));
        for leaf in tree.party_leaves(p) {
            if honest {
                let recipients = dedup_committee(tree.committee(0, leaf));
                let metrics = session.net.metrics_mut();
                metrics.charge_exchange(&[p], &recipients, ct.encoded_len(), tag::RAW, true);
            }
            leaf_cts[leaf].push(ct.clone());
        }
    }
    session.net.bump_round();

    // 3. Homomorphic merge up the tree (good nodes only — Byzantine bad
    //    nodes drop their subtree's inputs).
    let eval_merge = |fhe: &FheSystem, cts: &[Ciphertext]| -> Option<Ciphertext> {
        let valid: Vec<Ciphertext> = cts.iter().filter(|ct| fhe.validate(ct)).cloned().collect();
        if valid.is_empty() {
            return None;
        }
        Some(fhe.eval(&valid, merge_maps))
    };
    let node_alive = |level: usize, node: usize| -> bool {
        analysis.is_good(level, node) || config.profile == AdversaryProfile::Passive
    };

    let mut current: Vec<Option<Ciphertext>> = leaf_cts
        .iter()
        .enumerate()
        .map(|(leaf, cts)| node_alive(0, leaf).then(|| eval_merge(&fhe, cts)).flatten())
        .collect();
    for level in 1..params.height {
        let mut next = Vec::with_capacity(tree.nodes_at_level(level));
        for node in 0..tree.nodes_at_level(level) {
            let committee = dedup_committee(tree.committee(level, node));
            let mut children = Vec::new();
            for child in tree.children(level, node) {
                if let Some(ct) = &current[child] {
                    // Each honest child member forwards to each parent member.
                    let (_, senders) = est.members(level - 1, child);
                    let metrics = session.net.metrics_mut();
                    metrics.charge_exchange(&senders, &committee, ct.encoded_len(), tag::RAW, true);
                    children.push(ct.clone());
                }
            }
            next.push(
                node_alive(level, node)
                    .then(|| eval_merge(&fhe, &children))
                    .flatten(),
            );
        }
        session.net.bump_round();
        current = next;
    }
    let Some(ct_root) = current.pop().flatten() else {
        return Err(no_output);
    };

    // 4. The supreme committee evaluates f under encryption and threshold-
    //    decrypts the output.
    let ct_out = fhe.eval(std::slice::from_ref(&ct_root), |plains| {
        let entries: InputMap = decode_from_slice(&plains[0]).unwrap_or_default();
        let map: BTreeMap<u64, Vec<u8>> = entries.into_iter().collect();
        let out = f(&map);
        // Prepend the inclusion count for reporting.
        let mut framed = encode_to_vec(&(map.len() as u64));
        framed.extend_from_slice(&out);
        framed
    });

    // Share exchange within the committee (honest members only).
    let honest_members: Vec<PartyId> = supreme
        .iter()
        .filter(|p| !corrupt.contains(p))
        .copied()
        .collect();
    // Byzantine/silent members withhold shares.
    let shares: Vec<_> = supreme
        .iter()
        .enumerate()
        .filter(|(_, member)| !corrupt.contains(member))
        .map(|(pos, _)| fhe.partial_decrypt(pos, &ct_out).expect("valid ciphertext"))
        .collect();
    let share_len = shares.first().map_or(0, |share| share.encoded_len());
    let metrics = session.net.metrics_mut();
    metrics.charge_exchange(&honest_members, &honest_members, share_len, tag::RAW, true);
    session.net.bump_round();
    let Ok(framed) = fhe.combine(&ct_out, &shares) else {
        return Err(no_output);
    };
    let (inputs_included, output): (u64, Vec<u8>) = {
        let count: u64 = decode_from_slice(&framed[..8]).expect("count frame");
        (count, framed[8..].to_vec())
    };

    // 5. Certified delivery of the public output to everyone.
    let s = session.try_committee_coin()?;
    let delivered = session.certify_bytes(output.clone(), s);

    Ok(MpcOutcome {
        output,
        outputs: delivered.outputs,
        inputs_included: inputs_included as usize,
        report: session.report(),
        certificate_len: delivered.certificate_len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_srds::snark::SnarkSrds;

    fn xor_all(map: &BTreeMap<u64, Vec<u8>>) -> Vec<u8> {
        let mut acc = vec![0u8; 4];
        for v in map.values() {
            for (a, b) in acc.iter_mut().zip(v) {
                *a ^= b;
            }
        }
        acc
    }

    #[test]
    fn honest_mpc_computes_xor() {
        let n = 64;
        let scheme = SnarkSrds::with_defaults();
        let config = BaConfig::honest(n, b"mpc-1");
        let inputs: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8, 1, 2, 3]).collect();
        let expected = {
            let map: BTreeMap<u64, Vec<u8>> = inputs
                .iter()
                .cloned()
                .enumerate()
                .map(|(i, v)| (i as u64, v))
                .collect();
            xor_all(&map)
        };
        let out = run_mpc(&scheme, &config, &inputs, xor_all).expect("honest run");
        assert_eq!(out.inputs_included, n);
        assert_eq!(out.output, expected);
        // Every party received the certified output.
        for (i, o) in out.outputs.iter().enumerate() {
            assert_eq!(o.as_ref(), Some(&expected), "party {i}");
        }
    }

    #[test]
    fn byzantine_mpc_still_delivers() {
        let n = 96;
        let scheme = SnarkSrds::with_defaults();
        let config = BaConfig::byzantine(n, 9, b"mpc-2");
        let inputs: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 4]).collect();
        let out = run_mpc(&scheme, &config, &inputs, xor_all).expect("under the bound");
        // All honest parties get the same output...
        let corrupt = {
            // recompute corruption from the outcome's delivered slots
            (0..n).filter(|&i| out.outputs[i].is_none()).count()
        };
        assert!(corrupt <= 9, "honest parties missing output");
        let honest_values: std::collections::BTreeSet<Vec<u8>> =
            out.outputs.iter().flatten().cloned().collect();
        assert_eq!(honest_values.len(), 1);
        // ...and most inputs made it through the tree.
        assert!(out.inputs_included >= n - 2 * 9, "{}", out.inputs_included);
    }

    #[test]
    fn sum_function_with_larger_outputs() {
        let n = 64;
        let scheme = SnarkSrds::with_defaults();
        let config = BaConfig::honest(n, b"mpc-3");
        let inputs: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8]).collect();
        let sum_fn = |map: &BTreeMap<u64, Vec<u8>>| -> Vec<u8> {
            let total: u64 = map.values().map(|v| v[0] as u64).sum();
            total.to_le_bytes().to_vec()
        };
        let expected: u64 = (0..n as u64).sum();
        let out = run_mpc(&scheme, &config, &inputs, sum_fn).expect("honest run");
        assert_eq!(out.output, expected.to_le_bytes().to_vec());
    }

    #[test]
    fn total_communication_scales_with_input_size() {
        let n = 64;
        let scheme = SnarkSrds::with_defaults();
        let run = |len: usize, seed: &[u8]| {
            let config = BaConfig::honest(n, seed);
            let inputs: Vec<Vec<u8>> = (0..n).map(|_| vec![7u8; len]).collect();
            run_mpc(&scheme, &config, &inputs, |m| {
                m.values().next().cloned().unwrap_or_default()
            })
            .expect("honest run")
            .report
            .total_bytes
        };
        let small = run(8, b"mpc-4a");
        let large = run(512, b"mpc-4b");
        // Total communication grows with ℓin but far less than 64x (the
        // polylog machinery dominates at small n).
        assert!(large > small);
        assert!(large < small * 64);
    }

    #[test]
    fn failures_are_structured_errors_not_panics() {
        let scheme = SnarkSrds::with_defaults();
        let inputs: Vec<Vec<u8>> = vec![vec![1u8]; 48];
        let over_bound = BaConfig::byzantine(48, 16, b"mpc-over-bound");
        assert_eq!(
            run_mpc(&scheme, &over_bound, &inputs, xor_all).unwrap_err(),
            ProtocolError::CorruptionBound { corrupt: 16, n: 48 }
        );
        // Near the fault bound the supreme committee is not good, the
        // merge yields no root ciphertext, and nothing can be delivered.
        let inputs: Vec<Vec<u8>> = vec![vec![1u8]; 16];
        let config = BaConfig::byzantine(16, 5, b"pba-cli");
        match run_mpc(&scheme, &config, &inputs, xor_all) {
            Err(ProtocolError::Stalled {
                phase: ProtocolPhase::Certification,
                delivered: 0,
                honest: 11,
            }) => {}
            other => panic!("expected a stall with nothing delivered, got {other:?}"),
        }
    }
}
