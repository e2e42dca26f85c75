//! Executable SRDS security experiments: the robustness game of **Figure 1**
//! and the forgery game of **Figure 2**, generic over the SRDS scheme and a
//! pluggable adversary.
//!
//! The experiments follow the figures step by step:
//!
//! * **Setup and corruption** — the challenger runs `Setup`/`KeyGen`; the
//!   adversary corrupts up to `t` parties *after* seeing `pp` and all
//!   verification keys, and (in bare-PKI mode) may replace corrupted keys;
//! * **Robustness challenge** — signatures of honest parties (isolated ones
//!   on adversarially chosen messages `m_i`) are aggregated up an
//!   `(n, I)`-almost-everywhere communication tree; good nodes are
//!   aggregated by the challenger with the range filter of Fig. 3 step 5c,
//!   bad nodes by the adversary; the adversary wins if the root signature
//!   fails to verify;
//! * **Forgery challenge** — the adversary receives honest signatures
//!   (a set `S` with `|S ∪ I| < n/3` on chosen messages) and wins by
//!   producing a verifying signature on any `m' ≠ m`.
//!
//! SRDS party indices coincide with tree slots (identity layout,
//! [`pba_aetree::tree::Tree::build_identity`]) — the paper's requirement
//! that level-0 nodes appear in increasing ID order.

use crate::traits::{PkiBoard, PkiMode, Srds};
use pba_aetree::analysis::TreeAnalysis;
use pba_aetree::params::TreeParams;
use pba_aetree::tree::Tree;
use pba_crypto::prg::Prg;
use pba_net::wire::MAX_WIRE_BYTES;
use pba_net::PartyId;
use std::collections::{BTreeMap, BTreeSet};

/// The adversary interface of the robustness experiment (Fig. 1).
///
/// Default implementations realize the strongest *generic* adversary
/// (silent bad nodes, isolated parties signing a divergent message);
/// scheme-specific attacks override individual hooks.
pub trait RobustnessAdversary<S: Srds> {
    /// Phase A: adaptively choose up to `t` corruptions given the public
    /// setup information.
    fn corrupt(
        &mut self,
        pp: &S::PublicParams,
        vks: &[S::VerificationKey],
        t: usize,
        prg: &mut Prg,
    ) -> BTreeSet<u64> {
        let _ = (pp, vks);
        prg.sample_distinct(vks.len() as u64, t)
            .into_iter()
            .collect()
    }

    /// Phase A (bare PKI only): replace corrupted parties' published keys.
    fn replace_keys(
        &mut self,
        scheme: &S,
        corrupt: &BTreeSet<u64>,
        board: &mut PkiBoard<S>,
        prg: &mut Prg,
    ) {
        let _ = (scheme, corrupt, board, prg);
    }

    /// Phase B.1: the adversary may choose the `(n, I)` tree itself (the
    /// full strength of Fig. 1). The returned tree must keep the identity
    /// slot layout ("level-0 nodes in increasing ID order") and satisfy the
    /// Def. 2.3 guarantees for `I` — the challenger validates both and an
    /// invalid choice makes the run ill-posed. `None` (the default) lets
    /// the challenger build the tree from post-corruption randomness.
    fn choose_tree(
        &mut self,
        params: &TreeParams,
        corrupt: &BTreeSet<u64>,
        prg: &mut Prg,
    ) -> Option<Tree> {
        let _ = (params, corrupt, prg);
        None
    }

    /// Phase B.2: the challenge message `m`.
    fn message(&mut self) -> Vec<u8> {
        b"robustness-challenge-m".to_vec()
    }

    /// Phase B.2: messages for the isolated honest parties `N`.
    fn isolated_messages(&mut self, isolated: &BTreeSet<u64>) -> BTreeMap<u64, Vec<u8>> {
        isolated
            .iter()
            .map(|&i| (i, format!("isolated-divergent-{i}").into_bytes()))
            .collect()
    }

    /// Phase B.4: signatures of the corrupted parties, given all honest
    /// signatures. Returning no entry for a party models withholding.
    fn corrupt_signatures(
        &mut self,
        scheme: &S,
        board: &PkiBoard<S>,
        corrupt: &BTreeSet<u64>,
        message: &[u8],
        honest: &BTreeMap<u64, S::Signature>,
    ) -> BTreeMap<u64, S::Signature> {
        let _ = honest;
        // Default: corrupted parties sign honestly — combined with silent
        // bad nodes below, this exercises both withholding (aggregation
        // side) and maximal-participation (counting side) pressure.
        corrupt
            .iter()
            .filter_map(|&i| {
                scheme
                    .sign(&board.pp, i, &board.sks[i as usize], message)
                    .map(|s| (i, s))
            })
            .collect()
    }

    /// Phase B.5: the aggregate emitted by a bad node, given the child
    /// signatures it received. `None` models withholding/garbage (which
    /// honest parents filter out).
    fn bad_aggregate(
        &mut self,
        scheme: &S,
        board: &PkiBoard<S>,
        level: usize,
        node: usize,
        children: &[S::Signature],
    ) -> Option<S::Signature> {
        let _ = (scheme, board, level, node, children);
        None
    }
}

/// The generic worst-case adversary with every default hook.
#[derive(Clone, Copy, Debug, Default)]
pub struct DefaultRobustnessAdversary;

impl<S: Srds> RobustnessAdversary<S> for DefaultRobustnessAdversary {}

/// A robustness adversary that exercises its Fig. 1 right to **choose the
/// tree**: it corrupts a prefix of parties (so whole leaves go bad) and
/// packs its corrupted parties into as few internal committees as the
/// Def. 2.3 guarantees allow, maximizing dropped subtrees.
#[derive(Clone, Copy, Debug, Default)]
pub struct TreePackingAdversary;

impl<S: Srds> RobustnessAdversary<S> for TreePackingAdversary {
    fn corrupt(
        &mut self,
        _pp: &S::PublicParams,
        vks: &[S::VerificationKey],
        t: usize,
        _prg: &mut Prg,
    ) -> BTreeSet<u64> {
        // Contiguous prefix: concentrates corruption in the leftmost leaves.
        (0..(t as u64).min(vks.len() as u64)).collect()
    }

    #[allow(clippy::needless_range_loop)] // committees are addressed by (level, node)
    fn choose_tree(
        &mut self,
        params: &TreeParams,
        corrupt: &BTreeSet<u64>,
        prg: &mut Prg,
    ) -> Option<Tree> {
        // Start from an honest tree, then overwrite internal committees:
        // fill as many level-1 committees as possible entirely with
        // corrupted parties (their subtrees die), keeping the root honest.
        let base = Tree::build_identity(params, b"packing-base");
        // `committees[level - 1]`: the internal levels 1 to the root.
        let mut committees: Vec<Vec<Vec<PartyId>>> = (1..params.height)
            .map(|level| {
                (0..base.nodes_at_level(level))
                    .map(|node| base.committee(level, node).to_vec())
                    .collect()
            })
            .collect();
        let honest: Vec<PartyId> = (0..params.n as u64)
            .map(PartyId)
            .filter(|p| !corrupt.contains(&p.0))
            .collect();
        let c = params.committee_size.min(params.n);
        // Root: all honest (the guarantee requires a good root anyway). A
        // height-1 tree's root is its one leaf, whose members are its slots.
        if let Some(root) = committees.last_mut() {
            root[0] = honest[..c.min(honest.len())].to_vec();
        }
        // Re-sample other internal committees from honest parties, then
        // corrupt a budgeted number of level-1 nodes outright.
        for level in 1..params.height - 1 {
            for node in 0..committees[level - 1].len() {
                let picks = prg.sample_distinct(honest.len() as u64, c.min(honest.len()));
                committees[level - 1][node] =
                    picks.into_iter().map(|i| honest[i as usize]).collect();
            }
        }
        if params.height > 2 {
            let corrupt_vec: Vec<PartyId> = corrupt.iter().map(|&i| PartyId(i)).collect();
            // Keep the bad-leaf fraction within the validated slack: each
            // bad level-1 node kills `branching` leaves.
            let max_bad_nodes = (params.leaf_count / params.branching) / 5;
            let budget = (corrupt_vec.len() / c).min(max_bad_nodes);
            for node in 0..budget {
                committees[0][node] = corrupt_vec[node * c..(node + 1) * c].to_vec();
            }
        }
        let slot_party: Vec<PartyId> = (0..params.n as u64).map(PartyId).collect();
        Some(Tree::from_parts(params, committees, slot_party))
    }
}

/// A robustness adversary whose bad nodes *replay* one child signature
/// (attempting the duplicate-aggregation attack of §2.2).
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayRobustnessAdversary;

impl<S: Srds> RobustnessAdversary<S> for ReplayRobustnessAdversary {
    fn bad_aggregate(
        &mut self,
        _scheme: &S,
        _board: &PkiBoard<S>,
        _level: usize,
        _node: usize,
        children: &[S::Signature],
    ) -> Option<S::Signature> {
        children.first().cloned()
    }
}

/// Outcome of one robustness game.
#[derive(Clone, Debug)]
pub struct RobustnessOutcome {
    /// Whether the root signature verified (`true` ⇒ robustness held).
    pub verified: bool,
    /// Number of corrupted parties.
    pub corrupted: usize,
    /// Number of isolated honest parties (the set `N`).
    pub isolated_honest: usize,
    /// Fraction of leaves on good paths.
    pub good_leaf_fraction: f64,
    /// Wire size of the root signature in bytes, if one was produced.
    pub root_signature_len: Option<usize>,
    /// Maximum batch size passed to any single `Aggregate` call.
    pub max_batch: usize,
}

/// Errors making a run ill-posed (the adversary must present a valid
/// `(n, I)` tree; a failed guarantee is a configuration error, not an
/// adversary win).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExperimentError {
    /// The tree failed the Def. 2.3 guarantees for the corruption set.
    InvalidTree(String),
    /// `t` is not below a third of `n`.
    TooManyCorruptions {
        /// Number of SRDS parties.
        n: usize,
        /// Requested corruptions (or `|S ∪ I|` in the forgery game).
        t: usize,
    },
    /// An adversary-chosen message exceeds the wire-layer size cap
    /// ([`MAX_WIRE_BYTES`]) — in `π_ba` such a payload would be rejected
    /// by the hardened decoder before any party signed it, so a game
    /// built on one is ill-posed rather than an adversary win.
    OversizedMessage {
        /// The offending message length.
        len: usize,
    },
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::InvalidTree(why) => write!(f, "invalid (n, I) tree: {why}"),
            ExperimentError::TooManyCorruptions { n, t } => {
                write!(f, "t = {t} not below n/3 for n = {n}")
            }
            ExperimentError::OversizedMessage { len } => {
                write!(
                    f,
                    "message of {len} bytes exceeds the wire cap {MAX_WIRE_BYTES}"
                )
            }
        }
    }
}

impl std::error::Error for ExperimentError {}

/// Runs the robustness experiment `Expt^robust` (Fig. 1).
///
/// # Errors
///
/// [`ExperimentError`] if the run is ill-posed (corruptions ≥ n/3 or the
/// resulting tree violates the Def. 2.3 guarantees).
pub fn run_robustness<S: Srds, A: RobustnessAdversary<S>>(
    scheme: &S,
    n_requested: usize,
    t: usize,
    adversary: &mut A,
    seed: &[u8],
) -> Result<RobustnessOutcome, ExperimentError> {
    let params = TreeParams::for_slots(n_requested);
    let n = params.n;
    if 3 * t >= n {
        return Err(ExperimentError::TooManyCorruptions { n, t });
    }
    let mut prg = Prg::from_seed_label(seed, "robustness");

    // A. Setup and corruption.
    let mut board = PkiBoard::<S>::establish(scheme, n, &mut prg);
    let corrupt = adversary.corrupt(&board.pp, &board.vks, t, &mut prg);
    assert!(corrupt.len() <= t, "adversary exceeded corruption budget");
    if scheme.mode() == PkiMode::Bare {
        adversary.replace_keys(scheme, &corrupt, &mut board, &mut prg);
    }
    let keys = board.prepare(scheme);

    // B.1: the tree — adversary-chosen if it exercises that right, else
    // built from post-corruption randomness; identity slot layout either
    // way, and the challenger validates the (n, I) guarantees.
    let corrupt_parties: BTreeSet<PartyId> = corrupt.iter().map(|&i| PartyId(i)).collect();
    let tree = match adversary.choose_tree(&params, &corrupt, &mut prg) {
        Some(tree) => {
            if tree.params() != &params {
                return Err(ExperimentError::InvalidTree("wrong parameters".into()));
            }
            for s in 0..params.total_slots() as u64 {
                if tree.slot_party(s) != PartyId(s) {
                    return Err(ExperimentError::InvalidTree(
                        "level-0 IDs not in increasing order".into(),
                    ));
                }
            }
            tree
        }
        None => {
            let mut tree_seed = seed.to_vec();
            tree_seed.extend_from_slice(b"/tree");
            Tree::build_identity(&params, &tree_seed)
        }
    };
    let analysis = TreeAnalysis::analyze(&tree, &corrupt_parties);
    analysis
        .check_ae_guarantees(0.3)
        .map_err(ExperimentError::InvalidTree)?;

    // B.2: messages. N = honest parties on leaves without good paths.
    // Adversary-chosen payloads obey the same wire-layer size cap the
    // hardened decoder enforces on real traffic.
    let message = adversary.message();
    if message.len() > MAX_WIRE_BYTES {
        return Err(ExperimentError::OversizedMessage { len: message.len() });
    }
    let isolated: BTreeSet<u64> = (0..n as u64)
        .filter(|i| !corrupt.contains(i) && !analysis.leaf_has_good_path(tree.slot_leaf(*i)))
        .collect();
    let divergent = adversary.isolated_messages(&isolated);
    if let Some(big) = divergent.values().find(|m| m.len() > MAX_WIRE_BYTES) {
        return Err(ExperimentError::OversizedMessage { len: big.len() });
    }

    // B.3: honest signatures.
    let mut signatures: BTreeMap<u64, S::Signature> = BTreeMap::new();
    for i in 0..n as u64 {
        if corrupt.contains(&i) {
            continue;
        }
        let msg: &[u8] = divergent.get(&i).map(|m| m.as_slice()).unwrap_or(&message);
        if let Some(sig) = scheme.sign(&board.pp, i, &board.sks[i as usize], msg) {
            signatures.insert(i, sig);
        }
    }

    // B.4: adversary's signatures.
    let adv_sigs = adversary.corrupt_signatures(scheme, &board, &corrupt, &message, &signatures);
    for (i, sig) in adv_sigs {
        assert!(corrupt.contains(&i), "adversary signed for honest party");
        signatures.insert(i, sig);
    }

    // B.5: aggregate up the tree. Level 0 aggregates base signatures of the
    // leaf's slots; higher levels aggregate child signatures with the
    // range-containment filter of Fig. 3 step 5c.
    let mut max_batch = 0usize;
    let mut current: Vec<Option<S::Signature>> = Vec::with_capacity(params.leaf_count);
    for leaf in 0..params.leaf_count {
        let range = tree.leaf_range(leaf);
        let base: Vec<S::Signature> = range
            .clone()
            .filter_map(|slot| signatures.get(&slot).cloned())
            // Step 5c for leaves: base signatures carry a single index
            // inside the leaf's range.
            .filter(|sig| {
                scheme.min_index(sig) == scheme.max_index(sig)
                    && range.contains(&scheme.min_index(sig))
            })
            .collect();
        max_batch = max_batch.max(base.len());
        let agg = if base.is_empty() {
            None
        } else if analysis.is_good(0, leaf) {
            scheme.aggregate(&board.pp, &keys, &message, &base)
        } else {
            adversary.bad_aggregate(scheme, &board, 0, leaf, &base)
        };
        current.push(agg);
    }

    for level in 1..params.height {
        let mut next: Vec<Option<S::Signature>> = Vec::with_capacity(tree.nodes_at_level(level));
        for node in 0..tree.nodes_at_level(level) {
            let children: Vec<S::Signature> = tree
                .children(level, node)
                .filter_map(|child| {
                    let sig = current[child].clone()?;
                    // Step 5c: the child's covered range must fall within
                    // that child's slot range.
                    let child_range = tree.node_range(level - 1, child);
                    (child_range.contains(&scheme.min_index(&sig))
                        && child_range.contains(&scheme.max_index(&sig)))
                    .then_some(sig)
                })
                .collect();
            max_batch = max_batch.max(children.len());
            let agg = if children.is_empty() {
                None
            } else if analysis.is_good(level, node) {
                scheme.aggregate(&board.pp, &keys, &message, &children)
            } else {
                adversary.bad_aggregate(scheme, &board, level, node, &children)
            };
            next.push(agg);
        }
        current = next;
    }

    // C. Output phase.
    let root_sig = current.pop().flatten();
    let verified = root_sig
        .as_ref()
        .map(|sig| scheme.verify(&board.pp, &keys, &message, sig))
        .unwrap_or(false);

    Ok(RobustnessOutcome {
        verified,
        corrupted: corrupt.len(),
        isolated_honest: isolated.len(),
        good_leaf_fraction: analysis.good_leaf_fraction(),
        root_signature_len: root_sig.as_ref().map(|s| scheme.signature_len(s)),
        max_batch,
    })
}

/// The adversary interface of the forgery experiment (Fig. 2).
pub trait ForgeryAdversary<S: Srds> {
    /// Phase A: corruptions (as in the robustness game).
    fn corrupt(
        &mut self,
        pp: &S::PublicParams,
        vks: &[S::VerificationKey],
        t: usize,
        prg: &mut Prg,
    ) -> BTreeSet<u64> {
        let _ = (pp, vks);
        prg.sample_distinct(vks.len() as u64, t)
            .into_iter()
            .collect()
    }

    /// Phase A (bare PKI): key replacement.
    fn replace_keys(
        &mut self,
        scheme: &S,
        corrupt: &BTreeSet<u64>,
        board: &mut PkiBoard<S>,
        prg: &mut Prg,
    ) {
        let _ = (scheme, corrupt, board, prg);
    }

    /// Phase B.a: the target message `m`, the seduced honest set `S`
    /// (must satisfy `|S ∪ I| < n/3`), and the messages `{m_i}` those
    /// parties will sign.
    fn choose_challenge(
        &mut self,
        n: usize,
        corrupt: &BTreeSet<u64>,
        prg: &mut Prg,
    ) -> (Vec<u8>, BTreeMap<u64, Vec<u8>>);

    /// Phase B.d: given all honest signatures, output a claimed forgery
    /// `(m', σ')` with `m' ≠ m`.
    fn forge(
        &mut self,
        scheme: &S,
        board: &PkiBoard<S>,
        keys: &S::KeyBoard,
        corrupt: &BTreeSet<u64>,
        message: &[u8],
        honest: &BTreeMap<u64, S::Signature>,
    ) -> Option<(Vec<u8>, S::Signature)>;
}

/// Outcome of one forgery game.
#[derive(Clone, Debug)]
pub struct ForgeryOutcome {
    /// Whether the adversary produced a verifying `(m', σ')`, `m' ≠ m`.
    pub forged: bool,
    /// Number of corrupted parties.
    pub corrupted: usize,
    /// Size of the seduced honest set `S`.
    pub seduced: usize,
}

/// Runs the forgery experiment `Expt^forge` (Fig. 2).
///
/// # Errors
///
/// [`ExperimentError::TooManyCorruptions`] if `|S ∪ I| ≥ n/3`.
pub fn run_forgery<S: Srds, A: ForgeryAdversary<S>>(
    scheme: &S,
    n: usize,
    t: usize,
    adversary: &mut A,
    seed: &[u8],
) -> Result<ForgeryOutcome, ExperimentError> {
    let mut prg = Prg::from_seed_label(seed, "forgery");

    // A. Setup and corruption.
    let mut board = PkiBoard::<S>::establish(scheme, n, &mut prg);
    let corrupt = adversary.corrupt(&board.pp, &board.vks, t, &mut prg);
    assert!(corrupt.len() <= t, "adversary exceeded corruption budget");
    if scheme.mode() == PkiMode::Bare {
        adversary.replace_keys(scheme, &corrupt, &mut board, &mut prg);
    }
    let keys = board.prepare(scheme);

    // B.a: challenge choice. Adversary-chosen payloads obey the wire cap.
    let (message, seduced) = adversary.choose_challenge(n, &corrupt, &mut prg);
    if message.len() > MAX_WIRE_BYTES {
        return Err(ExperimentError::OversizedMessage { len: message.len() });
    }
    if let Some(big) = seduced.values().find(|m| m.len() > MAX_WIRE_BYTES) {
        return Err(ExperimentError::OversizedMessage { len: big.len() });
    }
    let mut union = corrupt.clone();
    union.extend(seduced.keys().copied());
    if 3 * union.len() >= n {
        return Err(ExperimentError::TooManyCorruptions { n, t: union.len() });
    }
    for i in seduced.keys() {
        assert!(!corrupt.contains(i), "seduced set must be honest");
    }

    // B.b–c: honest signatures.
    let mut honest: BTreeMap<u64, S::Signature> = BTreeMap::new();
    for i in 0..n as u64 {
        if corrupt.contains(&i) {
            continue;
        }
        let msg: &[u8] = seduced.get(&i).map(|m| m.as_slice()).unwrap_or(&message);
        if let Some(sig) = scheme.sign(&board.pp, i, &board.sks[i as usize], msg) {
            honest.insert(i, sig);
        }
    }

    // B.d: forgery attempt.
    let attempt = adversary.forge(scheme, &board, &keys, &corrupt, &message, &honest);

    // C. Output phase.
    let forged = match attempt {
        Some((m_prime, sig)) => {
            m_prime != message && scheme.verify(&board.pp, &keys, &m_prime, &sig)
        }
        None => false,
    };

    Ok(ForgeryOutcome {
        forged,
        corrupted: corrupt.len(),
        seduced: seduced.len(),
    })
}

/// The canonical forgery strategy: seduce a maximal honest set onto the
/// forgery target `m'`, add all corrupt signatures on `m'`, and aggregate —
/// the strongest generic attack (anything stronger must break the
/// underlying signatures or proofs).
#[derive(Clone, Debug)]
pub struct AggregateForgeryAdversary {
    /// The forgery target.
    pub target: Vec<u8>,
}

impl Default for AggregateForgeryAdversary {
    fn default() -> Self {
        AggregateForgeryAdversary {
            target: b"forged-message".to_vec(),
        }
    }
}

impl<S: Srds> ForgeryAdversary<S> for AggregateForgeryAdversary {
    fn choose_challenge(
        &mut self,
        n: usize,
        corrupt: &BTreeSet<u64>,
        _prg: &mut Prg,
    ) -> (Vec<u8>, BTreeMap<u64, Vec<u8>>) {
        // Seduce as many honest parties as the n/3 budget allows.
        let budget = (n - 1) / 3;
        let room = budget.saturating_sub(corrupt.len());
        let seduced: BTreeMap<u64, Vec<u8>> = (0..n as u64)
            .filter(|i| !corrupt.contains(i))
            .take(room)
            .map(|i| (i, self.target.clone()))
            .collect();
        (b"honest-message".to_vec(), seduced)
    }

    fn forge(
        &mut self,
        scheme: &S,
        board: &PkiBoard<S>,
        keys: &S::KeyBoard,
        corrupt: &BTreeSet<u64>,
        _message: &[u8],
        honest: &BTreeMap<u64, S::Signature>,
    ) -> Option<(Vec<u8>, S::Signature)> {
        // Corrupt parties sign the target; combine with every honest
        // signature in sight (the ones on m get filtered by Aggregate₁ —
        // that is the point of the attack).
        let mut pool: Vec<S::Signature> = honest.values().cloned().collect();
        for &i in corrupt {
            if let Some(sig) = scheme.sign(&board.pp, i, &board.sks[i as usize], &self.target) {
                pool.push(sig);
            }
        }
        let sig = scheme.aggregate(&board.pp, keys, &self.target, &pool)?;
        Some((self.target.clone(), sig))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::owf::OwfSrds;
    use crate::snark::SnarkSrds;

    #[test]
    fn robustness_holds_owf_default_adversary() {
        let scheme = OwfSrds::with_defaults();
        let out = run_robustness(&scheme, 200, 20, &mut DefaultRobustnessAdversary, b"r1").unwrap();
        assert!(out.verified, "robustness broken: {out:?}");
        assert!(out.root_signature_len.is_some());
    }

    #[test]
    fn robustness_holds_snark_default_adversary() {
        let scheme = SnarkSrds::with_defaults();
        let out = run_robustness(&scheme, 150, 15, &mut DefaultRobustnessAdversary, b"r2").unwrap();
        assert!(out.verified, "robustness broken: {out:?}");
        // SNARK certificates are constant-size.
        assert!(out.root_signature_len.unwrap() < 200);
    }

    #[test]
    fn robustness_holds_under_replay_adversary() {
        let snark = SnarkSrds::with_defaults();
        let out = run_robustness(&snark, 150, 15, &mut ReplayRobustnessAdversary, b"r3").unwrap();
        assert!(out.verified, "replay adversary broke robustness: {out:?}");

        let owf = OwfSrds::with_defaults();
        let out = run_robustness(&owf, 200, 20, &mut ReplayRobustnessAdversary, b"r4").unwrap();
        assert!(out.verified, "replay adversary broke robustness: {out:?}");
    }

    #[test]
    fn robustness_survives_adversarial_tree_choice() {
        // The adversary picks the tree (packing its corruption into whole
        // level-1 subtrees); the surviving good paths must still carry a
        // majority of base signatures.
        let scheme = SnarkSrds::with_defaults();
        let out = run_robustness(&scheme, 400, 40, &mut TreePackingAdversary, b"pack1").unwrap();
        assert!(out.verified, "adversarial tree broke robustness: {out:?}");

        let owf = OwfSrds::with_defaults();
        let out = run_robustness(&owf, 400, 40, &mut TreePackingAdversary, b"pack2").unwrap();
        assert!(out.verified, "adversarial tree broke robustness: {out:?}");
    }

    #[test]
    fn invalid_adversarial_tree_rejected() {
        // A tree that shuffles the slot layout violates the increasing-ID
        // requirement and must be rejected as ill-posed.
        struct ShuffledTree;
        impl RobustnessAdversary<SnarkSrds> for ShuffledTree {
            fn choose_tree(
                &mut self,
                params: &TreeParams,
                _corrupt: &BTreeSet<u64>,
                _prg: &mut Prg,
            ) -> Option<Tree> {
                Some(Tree::build(params, b"shuffled")) // random, not identity
            }
        }
        let scheme = SnarkSrds::with_defaults();
        let err = run_robustness(&scheme, 200, 20, &mut ShuffledTree, b"pack3");
        assert!(matches!(err, Err(ExperimentError::InvalidTree(_))));
    }

    #[test]
    fn aggregation_batches_stay_polylog() {
        let scheme = SnarkSrds::with_defaults();
        let out = run_robustness(&scheme, 300, 30, &mut DefaultRobustnessAdversary, b"r5").unwrap();
        // Batch = leaf slots or branching-many children: polylog, far below n.
        assert!(out.max_batch < 150, "batch {} too large", out.max_batch);
    }

    #[test]
    fn too_many_corruptions_rejected() {
        let scheme = OwfSrds::with_defaults();
        let err = run_robustness(&scheme, 100, 60, &mut DefaultRobustnessAdversary, b"r6");
        assert!(matches!(
            err,
            Err(ExperimentError::TooManyCorruptions { .. })
        ));
    }

    #[test]
    fn forgery_fails_owf() {
        let scheme = OwfSrds::with_defaults();
        let out = run_forgery(
            &scheme,
            240,
            24,
            &mut AggregateForgeryAdversary::default(),
            b"f1",
        )
        .unwrap();
        assert!(!out.forged, "OWF SRDS forged: {out:?}");
        assert!(out.seduced > 0);
    }

    #[test]
    fn forgery_fails_snark() {
        let scheme = SnarkSrds::with_defaults();
        let out = run_forgery(
            &scheme,
            120,
            12,
            &mut AggregateForgeryAdversary::default(),
            b"f2",
        )
        .unwrap();
        assert!(!out.forged, "SNARK SRDS forged: {out:?}");
    }

    #[test]
    fn oversized_adversarial_message_is_ill_posed() {
        struct Oversized;
        impl RobustnessAdversary<OwfSrds> for Oversized {
            fn message(&mut self) -> Vec<u8> {
                vec![0u8; MAX_WIRE_BYTES + 1]
            }
        }
        let scheme = OwfSrds::with_defaults();
        let err = run_robustness(&scheme, 200, 0, &mut Oversized, b"big1");
        assert!(matches!(err, Err(ExperimentError::OversizedMessage { .. })));
    }

    #[test]
    fn honest_majority_on_true_message_verifies() {
        // Sanity: with zero corruption the root certificate verifies — the
        // games only forbid verifying on m' ≠ m with a sub-third coalition.
        let scheme = OwfSrds::with_defaults();
        let out = run_robustness(&scheme, 200, 0, &mut DefaultRobustnessAdversary, b"f3").unwrap();
        assert!(out.verified);
        assert_eq!(out.corrupted, 0);
        assert_eq!(out.isolated_honest, 0);
    }
}
