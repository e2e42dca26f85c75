//! Fig. 3 steps 6–8 verify the one certificate step 6 disseminated once,
//! not once per party that holds a copy of it: an `Srds` that counts its
//! `verify` calls sees a constant, and every honest party still outputs.
//!
//! `Service` calls `Srds::verify` nowhere but in steps 6–8 (aggregation
//! verifies inside the scheme, behind the newtype), so the run's count is
//! those steps' count.

use pba_core::protocol::{BaConfig, Service, StreamMode};
use pba_crypto::prg::Prg;
use pba_net::corruption::CorruptionPlan;
use pba_net::wire::tag;
use pba_net::PartyId;
use pba_srds::owf::OwfSrds;
use pba_srds::traits::{PkiMode, Srds};
use std::cell::Cell;
use std::collections::BTreeSet;

const N: usize = 96;
const SEED: &[u8] = b"verify-once";

/// `OwfSrds` — the scheme whose `verify` is dearest — counting `verify`.
/// `OwfSrds` overrides no provided method, so delegating the required ones
/// is the whole scheme.
struct CountingOwf {
    inner: OwfSrds,
    verifies: Cell<usize>,
}

impl CountingOwf {
    fn new() -> Self {
        CountingOwf {
            inner: OwfSrds::with_defaults(),
            verifies: Cell::new(0),
        }
    }
}

type Pp = <OwfSrds as Srds>::PublicParams;
type Vk = <OwfSrds as Srds>::VerificationKey;
type Sk = <OwfSrds as Srds>::SigningKey;
type Sig = <OwfSrds as Srds>::Signature;
type Board = <OwfSrds as Srds>::KeyBoard;

impl Srds for CountingOwf {
    type PublicParams = Pp;
    type VerificationKey = Vk;
    type SigningKey = Sk;
    type Signature = Sig;
    type KeyBoard = Board;

    fn mode(&self) -> PkiMode {
        self.inner.mode()
    }
    fn prepare(&self, pp: &Pp, vks: &[Vk]) -> Board {
        self.inner.prepare(pp, vks)
    }
    fn setup(&self, n: usize, prg: &mut Prg) -> Pp {
        self.inner.setup(n, prg)
    }
    fn keygen(&self, pp: &Pp, prg: &mut Prg) -> (Vk, Sk) {
        self.inner.keygen(pp, prg)
    }
    fn sign(&self, pp: &Pp, index: u64, sk: &Sk, message: &[u8]) -> Option<Sig> {
        self.inner.sign(pp, index, sk, message)
    }
    fn aggregate1(&self, pp: &Pp, board: &Board, message: &[u8], sigs: &[Sig]) -> Vec<Sig> {
        self.inner.aggregate1(pp, board, message, sigs)
    }
    fn aggregate2(&self, pp: &Pp, message: &[u8], s_sig: &[Sig]) -> Option<Sig> {
        self.inner.aggregate2(pp, message, s_sig)
    }
    fn verify(&self, pp: &Pp, board: &Board, message: &[u8], sig: &Sig) -> bool {
        self.verifies.set(self.verifies.get() + 1);
        self.inner.verify(pp, board, message, sig)
    }
    fn min_index(&self, sig: &Sig) -> u64 {
        self.inner.min_index(sig)
    }
    fn max_index(&self, sig: &Sig) -> u64 {
        self.inner.max_index(sig)
    }
    fn signature_len(&self, sig: &Sig) -> usize {
        self.inner.signature_len(sig)
    }
}

/// One decision on all-ones inputs. Every honest party must output 1 and
/// every corrupt seat nothing. Returns how often `verify` ran, and how many
/// honest parties sent nothing into the spread — those that step 6 left
/// with no decodable certificate.
fn decide(config: &BaConfig) -> (usize, usize) {
    let scheme = CountingOwf::new();
    let mut service = Service::try_establish(&scheme, config).expect("establishment");
    let stream = service.try_run_stream(&[vec![vec![1u8]; N]], StreamMode::Sequential);
    let decided = stream.instances[0].result.as_ref().expect("decided");
    assert!(decided.agreement && decided.validity);
    for (i, output) in decided.outputs.iter().enumerate() {
        let honest = !service.corrupt().contains(&PartyId(i as u64));
        assert_eq!(*output, honest.then(|| vec![1u8]), "party {i}");
    }
    let silent = service
        .honest()
        .iter()
        .filter(|&&p| {
            let sent = service.net.metrics().breakdown_for([p]).sent;
            sent.get(&tag::SPREAD).copied().unwrap_or(0) == 0
        })
        .count();
    (scheme.verifies.get(), silent)
}

#[test]
fn honest_decision_verifies_the_certificate_once() {
    assert_eq!(decide(&BaConfig::honest(N, SEED)), (1, 0));
}

/// A strict majority of one level-1 committee is corrupt and relays
/// `0xbb…` in step 6, so the leaves under it receive garbage: an honest
/// party seated only there holds those bytes, one seated half there holds
/// nothing. Neither is handed the payload's verdict — other bytes are
/// decoded, and refused — so they stay silent in the spread, and they
/// output once it brings them the valid copy: the disseminated payload
/// again, so the count stays where it was.
#[test]
fn relayed_garbage_is_refused_and_the_spread_still_delivers() {
    let scheme = OwfSrds::with_defaults();
    let layout = Service::try_establish(&scheme, &BaConfig::honest(N, SEED)).expect("layout");
    let committee: BTreeSet<PartyId> = layout.tree().committee(1, 5).iter().copied().collect();
    let takeover: BTreeSet<PartyId> = committee
        .iter()
        .copied()
        .take(committee.len() / 2 + 1)
        .collect();
    let mut config = BaConfig::byzantine(N, takeover.len(), SEED);
    config.corruption = CorruptionPlan::Explicit(takeover);

    let (verifies, silent) = decide(&config);
    assert_eq!(verifies, 1);
    assert!(
        silent > 0,
        "step 6 reached every honest party: nothing tested"
    );
}
