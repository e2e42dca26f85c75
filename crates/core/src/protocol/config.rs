//! Configuration of a `π_ba` execution and the structured errors it can
//! end in.

use pba_net::corruption::CorruptionPlan;
use pba_net::faults::StrategySpec;
use std::fmt;

/// How the `f_ae-comm` tree is established.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Establishment {
    /// Build the tree from post-corruption randomness and charge every
    /// party the documented polylog cost of the KSSV protocol
    /// ([`pba_aetree::fae::charge_establishment`]). Fast; the default.
    Charged,
    /// Run the interactive tournament election ([`crate::kssv`]) with real
    /// metered messages.
    Interactive,
}

impl Establishment {
    /// Short label for tables and seed derivation.
    pub fn label(&self) -> &'static str {
        match self {
            Establishment::Charged => "charged",
            Establishment::Interactive => "interactive",
        }
    }
}

/// How per-virtual-identity signing keys are instantiated.
///
/// Key *derivation* is a pure function of the session PRG — party `i`'s
/// `j`-th key pair always comes from `prg.child("party-keys", i).child("slot", j)`
/// — so both policies yield bit-identical verification keys, transcripts
/// and outcomes; they differ only in *what* of the signing half stays in
/// memory between establishment and signing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeyPolicy {
    /// Hold the signing key of every occupied slot (`n · z` of them, one
    /// keygen each) from establishment on. Signing is then a lookup, which
    /// is what a stream that signs with every key every instance wants —
    /// but the held MSS preimages dominate memory at large `n`
    /// (EXPERIMENTS.md §E-scale: the reason the `scale` sweep runs Lazy).
    Eager,
    /// Hold no signing key and no secret. Establishment still runs each
    /// slot's keygen once (the keyboard needs every verification key) and
    /// keeps only the key's *public residue* ([`Srds::key_residue`]: for
    /// the MSS-backed schemes the `2^h` one-time verification-key digests,
    /// each of which some signature publishes) in one flat vector; at the
    /// moment of signing the one one-time key the epoch spends is
    /// re-derived from the session PRG ([`Srds::sign_epoch_rederived`]).
    /// Bit-identical to [`KeyPolicy::Eager`] in every observable.
    ///
    /// [`Srds::key_residue`]: pba_srds::traits::Srds::key_residue
    /// [`Srds::sign_epoch_rederived`]: pba_srds::traits::Srds::sign_epoch_rederived
    Lazy,
}

/// Structured error for signing-key material the service cannot provide:
/// an instance the establishment's one-time signing capacity cannot cover.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KeyError {
    /// The establishment's one-time signing budget (the MSS leaf
    /// capacity, one epoch slot per agreement instance) is spent.
    BudgetExhausted {
        /// The instance that requested a slot.
        instance: u64,
        /// The establishment's total one-time signing capacity.
        capacity: u64,
    },
}

impl fmt::Display for KeyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyError::BudgetExhausted { instance, capacity } => write!(
                f,
                "instance {instance} exceeds the establishment's one-time signing budget of {capacity} epoch slot(s)"
            ),
        }
    }
}

impl std::error::Error for KeyError {}

/// How corrupted parties behave during the protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdversaryProfile {
    /// Corrupted parties are silent (crash faults).
    Passive,
    /// Corrupted parties equivocate in committee protocols, push garbage
    /// during dissemination, sign divergent messages, and withhold
    /// aggregates at bad nodes.
    Byzantine,
}

/// Configuration of one `π_ba` execution.
#[derive(Clone, Debug)]
pub struct BaConfig {
    /// Number of protocol parties.
    pub n: usize,
    /// Leaf memberships per party (Def. 3.4's `z`).
    pub z: usize,
    /// How the corrupt set is chosen.
    pub corruption: CorruptionPlan,
    /// Behaviour of corrupted parties.
    pub profile: AdversaryProfile,
    /// Execution seed (drives setup, tree, and all honest randomness).
    pub seed: Vec<u8>,
    /// How the communication tree is established.
    pub establishment: Establishment,
    /// Optional fault-injection strategy for the committee sub-protocols.
    /// When set, it replaces the [`AdversaryProfile`]-derived committee
    /// adversary (the profile still governs dissemination/aggregation
    /// misbehaviour). Built deterministically from the execution seed.
    pub chaos: Option<StrategySpec>,
    /// Worker threads for the committee sub-protocol round engine
    /// (`0` and `1` both mean sequential). Larger values run honest
    /// machines on a phase-persistent worker pool that claims
    /// equal-count chunks from one queue; any value — including more
    /// threads than parties — yields a bit-identical execution (see
    /// [`pba_net::run_phase_threaded`]; the committee phases reach the same
    /// engine through [`pba_net::run_phase_driven`]), so this is purely a
    /// wall-clock knob.
    pub threads: usize,
    /// When signing-key material is instantiated (see [`KeyPolicy`]).
    pub key_policy: KeyPolicy,
    /// Attach the dense metrics reference as a differential shadow behind
    /// the sparse table ([`pba_net::Network::enable_metrics_shadow`]).
    /// Test-only knob: doubles metering cost and restores the dense
    /// table's O(n) memory.
    pub dense_shadow: bool,
}

impl BaConfig {
    /// An honest-run configuration.
    pub fn honest(n: usize, seed: &[u8]) -> Self {
        BaConfig {
            n,
            z: 2,
            corruption: CorruptionPlan::None,
            profile: AdversaryProfile::Passive,
            seed: seed.to_vec(),
            establishment: Establishment::Charged,
            chaos: None,
            threads: 1,
            key_policy: KeyPolicy::Eager,
            dense_shadow: false,
        }
    }

    /// A run with `t` random Byzantine corruptions.
    pub fn byzantine(n: usize, t: usize, seed: &[u8]) -> Self {
        BaConfig {
            n,
            z: 2,
            corruption: CorruptionPlan::Random { t },
            profile: AdversaryProfile::Byzantine,
            seed: seed.to_vec(),
            establishment: Establishment::Charged,
            chaos: None,
            threads: 1,
            key_policy: KeyPolicy::Eager,
            dense_shadow: false,
        }
    }

    /// Returns the configuration with the round-engine thread count set.
    /// `0` is accepted and runs the sequential engine, as does `1`; the
    /// runner caps the pool at the machine count, so over-subscription is
    /// safe too.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Returns the configuration with the given key policy.
    pub fn with_key_policy(mut self, policy: KeyPolicy) -> Self {
        self.key_policy = policy;
        self
    }
}

/// The phase of `π_ba` a failure is attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ProtocolPhase {
    /// Service establishment (setup, corruption, `f_ae-comm`).
    Establishment,
    /// Step 2a: `f_ba` among the supreme committee.
    CommitteeBa,
    /// Step 2b: `f_ct` among the supreme committee.
    CommitteeCoin,
    /// Steps 3–8: certification and spread.
    Certification,
}

impl fmt::Display for ProtocolPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProtocolPhase::Establishment => "establishment",
            ProtocolPhase::CommitteeBa => "committee-ba",
            ProtocolPhase::CommitteeCoin => "committee-coin",
            ProtocolPhase::Certification => "certification",
        };
        f.write_str(s)
    }
}

/// Why a `π_ba` execution could not complete.
///
/// These conditions were previously mid-run panics; they are now
/// structured outcomes so chaos harnesses can drive the protocol past its
/// design fault bound and observe *graceful* failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// The corruption plan produced `corrupt >= n/3` parties.
    CorruptionBound {
        /// Number of corrupted parties.
        corrupt: usize,
        /// Total parties.
        n: usize,
    },
    /// A sub-protocol hit its round limit without all honest machines
    /// completing.
    Timeout {
        /// The phase that timed out.
        phase: ProtocolPhase,
        /// Rounds executed before giving up.
        rounds: u64,
    },
    /// Honest committee members finished with differing values (or none).
    Disagreement {
        /// The phase that disagreed.
        phase: ProtocolPhase,
        /// Number of distinct honest output values observed.
        distinct: usize,
    },
    /// A phase ended without delivering output to every honest party,
    /// but the parties that *did* receive output all agree — a liveness
    /// loss with safety intact (e.g., a fault-injection adversary jammed
    /// certificate aggregation so `σ_root` never formed).
    Stalled {
        /// The phase that stalled.
        phase: ProtocolPhase,
        /// Honest parties that obtained an output.
        delivered: usize,
        /// Total honest parties.
        honest: usize,
    },
    /// The delivery backend failed (socket closed, exchange watchdog,
    /// replica divergence) during a phase. Only possible when a
    /// [`pba_net::transport::Transport`] is attached to the session's
    /// network.
    Transport {
        /// The phase running when the transport failed.
        phase: ProtocolPhase,
        /// The recorded transport failure.
        error: pba_net::TransportError,
    },
    /// Another instance would overdraw the establishment's one-time
    /// signing material (MSS leaf capacity). The service stays usable for
    /// inspection; agreeing again requires a fresh establishment.
    KeyBudget {
        /// The structured key error ([`KeyError::BudgetExhausted`],
        /// naming the refused instance).
        error: KeyError,
    },
}

impl ProtocolError {
    /// The phase this error is attributed to.
    pub fn phase(&self) -> ProtocolPhase {
        match self {
            ProtocolError::CorruptionBound { .. } => ProtocolPhase::Establishment,
            ProtocolError::Timeout { phase, .. } => *phase,
            ProtocolError::Disagreement { phase, .. } => *phase,
            ProtocolError::Stalled { phase, .. } => *phase,
            ProtocolError::Transport { phase, .. } => *phase,
            ProtocolError::KeyBudget { .. } => ProtocolPhase::Certification,
        }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::CorruptionBound { corrupt, n } => {
                write!(f, "corruption {corrupt} not below n/3 = {}", n / 3)
            }
            ProtocolError::Timeout { phase, rounds } => {
                write!(f, "{phase} hit its round limit after {rounds} rounds")
            }
            ProtocolError::Disagreement { phase, distinct } => {
                write!(f, "{phase} ended with {distinct} distinct honest values")
            }
            ProtocolError::Stalled {
                phase,
                delivered,
                honest,
            } => {
                write!(
                    f,
                    "{phase} stalled: only {delivered} of {honest} honest parties obtained output"
                )
            }
            ProtocolError::Transport { phase, error } => {
                write!(f, "{phase} aborted by transport failure: {error}")
            }
            ProtocolError::KeyBudget { error } => {
                write!(f, "certification refused: {error}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}
