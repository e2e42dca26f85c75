//! Executable intuition for the lower bounds (Theorems 1.3 and 1.4): a
//! **single-round boost** from almost-everywhere to everywhere agreement in
//! which every party sends `o(n)` messages *cannot* work without
//! private-coin setup — and the SRDS certificate is exactly what repairs it.
//!
//! The experiment stages the adversary from the paper's proof sketch:
//! an isolated honest party (outside the almost-everywhere agreement)
//! receives a few messages from honest parties carrying the agreed value,
//! but the adversary — whose corrupted parties are unconstrained — floods
//! it with more messages carrying the opposite value. With only a common
//! reference string (no PKI), incoming messages are distinguishable only by
//! count, so the victim is outvoted and decides wrong. With an SRDS
//! certificate attached (which needs the PKI the theorem shows necessary,
//! plus one-way functions), the flood fails verification and the victim
//! decides correctly.

use pba_crypto::prg::Prg;
use pba_net::wire::tag;
use pba_net::{Network, PartyId};
use pba_srds::traits::{PkiBoard, Srds};
use std::collections::BTreeSet;

/// Outcome of one isolation attack.
#[derive(Clone, Debug)]
pub struct IsolationOutcome {
    /// Honest messages (true value) the victim processed.
    pub honest_msgs: usize,
    /// Adversarial messages (false value) the victim processed.
    pub adversarial_msgs: usize,
    /// What the victim decided (`None` = tie / no decision).
    pub victim_output: Option<u8>,
    /// Whether the adversary succeeded in flipping the victim.
    pub victim_fooled: bool,
    /// Bytes the victim processed.
    pub victim_bytes: u64,
}

/// The CRS-model strawman: each of the `n − t − 1` agreeing honest parties
/// sends the value `1` to `k` random parties (so each sends `o(n)`
/// messages); every corrupted party sends `0` directly to the victim.
/// The victim takes the majority of what it received.
///
/// With `t ≫ k` the adversary wins — the content of honest messages cannot
/// be distinguished from corrupt ones without keys.
pub fn isolation_attack_crs(n: usize, t: usize, k: usize, seed: &[u8]) -> IsolationOutcome {
    assert!(3 * t < n, "corruptions below n/3");
    assert!(k < n, "k must be o(n), certainly < n");
    let mut prg = Prg::from_seed_label(seed, "isolation");
    let victim = PartyId((n - 1) as u64);
    let corrupt: BTreeSet<PartyId> = (0..t as u64).map(PartyId).collect();
    let mut net = Network::new(n);

    const MSG_BYTES: usize = 2;
    let mut honest_msgs = 0usize;
    // Honest parties (holding the a.e.-agreed value 1) spread to k random targets.
    for i in t as u64..(n - 1) as u64 {
        let p = PartyId(i);
        for target in prg.sample_distinct(n as u64, k) {
            let q = PartyId(target);
            let metrics = net.metrics_mut();
            metrics.record_send_tagged(p, q, MSG_BYTES, tag::RAW);
            if q == victim {
                metrics.record_receive_tagged(victim, p, MSG_BYTES, tag::RAW);
                honest_msgs += 1;
            }
        }
    }
    // Every corrupt party targets the victim with the flipped value.
    let mut adversarial_msgs = 0usize;
    for &p in &corrupt {
        let metrics = net.metrics_mut();
        metrics.record_send_tagged(p, victim, MSG_BYTES, tag::RAW);
        metrics.record_receive_tagged(victim, p, MSG_BYTES, tag::RAW);
        adversarial_msgs += 1;
    }
    net.bump_round();

    let victim_output = match honest_msgs.cmp(&adversarial_msgs) {
        std::cmp::Ordering::Greater => Some(1),
        std::cmp::Ordering::Less => Some(0),
        std::cmp::Ordering::Equal => None,
    };
    IsolationOutcome {
        honest_msgs,
        adversarial_msgs,
        victim_output,
        victim_fooled: victim_output != Some(1),
        victim_bytes: net.metrics().party(victim).bytes_received,
    }
}

/// The SRDS-repaired variant: the same flood, but honest messages carry a
/// valid SRDS certificate on the value and the victim verifies before
/// counting. The adversary (controlling `< n/3` keys) cannot attach a
/// certificate to the flipped value, so a *single* honest message suffices.
pub fn isolation_attack_with_srds<S>(
    scheme: &S,
    n: usize,
    t: usize,
    k: usize,
    seed: &[u8],
) -> IsolationOutcome
where
    S: Srds,
{
    assert!(3 * t < n, "corruptions below n/3");
    let mut prg = Prg::from_seed_label(seed, "isolation-srds");
    let board = PkiBoard::<S>::establish(scheme, n, &mut prg);
    let keys = board.prepare(scheme);
    let message = b"agreed-value:1";
    let wrong = b"agreed-value:0";

    // Honest majority signs and aggregates the true value's certificate.
    let honest_sigs: Vec<S::Signature> = (t as u64..n as u64)
        .filter_map(|i| scheme.sign(&board.pp, i, &board.sks[i as usize], message))
        .collect();
    let certificate = scheme
        .aggregate(&board.pp, &keys, message, &honest_sigs)
        .expect("honest certificate");
    let cert_len = scheme.signature_len(&certificate);

    // The adversary's best effort on the wrong value: its own signatures.
    let corrupt_sigs: Vec<S::Signature> = (0..t as u64)
        .filter_map(|i| scheme.sign(&board.pp, i, &board.sks[i as usize], wrong))
        .collect();
    let forged = scheme.aggregate(&board.pp, &keys, wrong, &corrupt_sigs);

    let victim = PartyId((n - 1) as u64);
    let mut net = Network::new(n);
    let mut honest_msgs = 0usize;
    for i in t as u64..(n - 1) as u64 {
        let p = PartyId(i);
        for target in prg.sample_distinct(n as u64, k.min(n - 1)) {
            let q = PartyId(target);
            let metrics = net.metrics_mut();
            metrics.record_send_tagged(p, q, cert_len + 2, tag::RAW);
            if q == victim {
                metrics.record_receive_tagged(victim, p, cert_len + 2, tag::RAW);
                // Victim verifies the certificate before accepting.
                if scheme.verify(&board.pp, &keys, message, &certificate) {
                    honest_msgs += 1;
                }
            }
        }
    }
    let mut adversarial_msgs = 0usize;
    for i in 0..t as u64 {
        let p = PartyId(i);
        let len = forged
            .as_ref()
            .map(|f| scheme.signature_len(f))
            .unwrap_or(2)
            + 2;
        let metrics = net.metrics_mut();
        metrics.record_send_tagged(p, victim, len, tag::RAW);
        metrics.record_receive_tagged(victim, p, len, tag::RAW);
        // Victim verifies: the sub-third coalition's aggregate never passes.
        if let Some(f) = &forged {
            if scheme.verify(&board.pp, &keys, wrong, f) {
                adversarial_msgs += 1;
            }
        }
    }
    net.bump_round();

    // Certified decision: any verified certificate wins outright.
    let victim_output = if honest_msgs > 0 {
        Some(1)
    } else if adversarial_msgs > 0 {
        Some(0)
    } else {
        None
    };
    IsolationOutcome {
        honest_msgs,
        adversarial_msgs,
        victim_output,
        victim_fooled: victim_output == Some(0),
        victim_bytes: net.metrics().party(victim).bytes_received,
    }
}

/// The Theorem 1.4 demonstration: in the *trusted-PKI* model, one-way
/// functions are **necessary** for a single-round `o(n)`-message boost.
///
/// We model "OWF do not exist" by a key-generation function the adversary
/// can invert: verification keys are `vk = G(sk)` for an *invertible* `G`
/// (here: the identity — any efficiently invertible injection behaves the
/// same). "Signatures" are `H(sk ‖ m)` and certificates count distinct
/// signatures, mirroring the OWF-SRDS shape. Because the adversary can
/// recover every honest party's `sk` from the public board, it forges a
/// full certificate on the flipped value — the victim sees two valid
/// majority certificates and cannot decide correctly, exactly the attack
/// in the theorem's proof sketch.
pub fn isolation_attack_invertible_pki(n: usize, t: usize, seed: &[u8]) -> IsolationOutcome {
    assert!(3 * t < n, "corruptions below n/3");
    let mut prg = Prg::from_seed_label(seed, "isolation-no-owf");
    use pba_crypto::sha256::Sha256;

    // Trusted PKI with invertible keygen: vk = identity(sk).
    let sks: Vec<[u8; 32]> = (0..n)
        .map(|_| {
            let mut sk = [0u8; 32];
            rand::RngCore::fill_bytes(&mut prg, &mut sk);
            sk
        })
        .collect();
    let vks: Vec<[u8; 32]> = sks.clone(); // G = identity: publicly invertible

    let sign = |sk: &[u8; 32], m: &[u8]| {
        let mut h = Sha256::new();
        h.update(sk);
        h.update(m);
        h.finalize()
    };
    let verify = |vk: &[u8; 32], m: &[u8], sig: &pba_crypto::sha256::Digest| {
        // Verification must work from the public key alone; with an
        // invertible G the verifier recomputes sk = G^{-1}(vk) = vk.
        sign(vk, m) == *sig
    };
    let threshold = n / 2 + 1;
    let certificate_valid = |m: &[u8], sigs: &[(usize, pba_crypto::sha256::Digest)]| {
        let mut seen = BTreeSet::new();
        sigs.iter()
            .filter(|(i, sig)| seen.insert(*i) && verify(&vks[*i], m, sig))
            .count()
            >= threshold
    };

    // Honest certificate on the agreed value.
    let honest_cert: Vec<(usize, pba_crypto::sha256::Digest)> =
        (t..n).map(|i| (i, sign(&sks[i], b"value:1"))).collect();
    assert!(certificate_valid(b"value:1", &honest_cert));

    // The adversary INVERTS the PKI and forges everyone's signature on 0.
    let forged_cert: Vec<(usize, pba_crypto::sha256::Digest)> = (0..n)
        .map(|i| {
            let recovered_sk = vks[i]; // G^{-1}
            (i, sign(&recovered_sk, b"value:0"))
        })
        .collect();
    let forged_ok = certificate_valid(b"value:0", &forged_cert);

    // The victim receives both certificates (one honest message suffices
    // for each side) and cannot break the tie.
    IsolationOutcome {
        honest_msgs: 1,
        adversarial_msgs: usize::from(forged_ok),
        victim_output: if forged_ok { None } else { Some(1) },
        victim_fooled: forged_ok,
        victim_bytes: (honest_cert.len() + forged_cert.len()) as u64 * 40,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_srds::owf::OwfSrds;
    use pba_srds::snark::SnarkSrds;

    #[test]
    fn crs_model_victim_is_outvoted() {
        // n = 300, t = 90, k = 8: victim expects ~8 honest messages versus
        // 90 adversarial ones.
        let out = isolation_attack_crs(300, 90, 8, b"iso-1");
        assert!(out.adversarial_msgs > out.honest_msgs);
        assert!(out.victim_fooled, "{out:?}");
    }

    #[test]
    fn crs_model_large_k_would_save_victim_but_is_not_sublinear() {
        // With k close to n the victim survives — but then parties send
        // Θ(n) messages, which is exactly what the lower bound permits.
        let out = isolation_attack_crs(300, 60, 250, b"iso-2");
        assert!(!out.victim_fooled, "{out:?}");
    }

    #[test]
    fn srds_certificate_repairs_the_boost_owf() {
        let scheme = OwfSrds::with_defaults();
        let out = isolation_attack_with_srds(&scheme, 300, 90, 8, b"iso-3");
        assert!(!out.victim_fooled, "{out:?}");
        assert_eq!(out.adversarial_msgs, 0, "forged certificate verified!");
    }

    #[test]
    fn srds_certificate_repairs_the_boost_snark() {
        let scheme = SnarkSrds::with_defaults();
        let out = isolation_attack_with_srds(&scheme, 120, 36, 8, b"iso-4");
        assert!(!out.victim_fooled, "{out:?}");
        assert_eq!(out.adversarial_msgs, 0, "forged certificate verified!");
    }

    #[test]
    fn theorem_1_4_invertible_pki_breaks_the_boost() {
        // Without OWF (invertible keygen) the adversary forges a full
        // majority certificate on the flipped value: the boost fails even
        // WITH a trusted PKI — cryptography, not just setup, is necessary.
        let out = isolation_attack_invertible_pki(300, 90, b"no-owf");
        assert!(out.victim_fooled, "{out:?}");
        // Contrast: with the (one-way) W-OTS-based SRDS the same budget
        // forges nothing (see srds_certificate_repairs_the_boost_owf).
    }

    #[test]
    fn victim_processing_stays_sublinear_with_srds() {
        let scheme = SnarkSrds::with_defaults();
        let out = isolation_attack_with_srds(&scheme, 120, 36, 8, b"iso-5");
        // The victim processed ~t + k messages of Õ(1) size — flooding costs
        // the adversary, not the victim (certificates are small).
        assert!(out.victim_bytes < 120 * 200);
    }
}
