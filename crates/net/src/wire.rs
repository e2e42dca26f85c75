//! The typed wire protocol: a stable one-byte tag registry, a tagged
//! `{tag, step}` envelope header, and a single hardened decode entry point.
//!
//! Every typed payload on the simulated network is self-describing: its
//! first byte names the message type ([`tag`]), its second byte names the
//! Figure 3 step the traffic belongs to ([`step`]). This buys three things:
//!
//! 1. **Per-step byte attribution.** [`Network::stage`](crate::network::Network::stage)
//!    and [`Ctx::charge_receive`](crate::network::Ctx::charge_receive) peek
//!    at the header ([`peek_tag`]) and bin every byte into the per-(party,
//!    tag) dimension of [`crate::metrics::MetricsTable`], whose marginals
//!    sum exactly to the pre-existing per-party totals.
//! 2. **Structure-aware fault injection.** The registry carries a
//!    declarative body schema per tag ([`FieldSpec`]), so
//!    [`mutate_field`] can decode an honest payload, mutate exactly one
//!    typed field, and re-encode a well-formed — but wrong — message.
//! 3. **Uniform hardening.** [`decode_msg`] is the single decode entry
//!    point for typed traffic: length caps, unknown-tag, wrong-step, and
//!    trailing-byte rejection happen once, not per call site.
//!
//! Tags are a compatibility surface: **adding** a tag is fine, renumbering
//! an existing one breaks recorded attributions (a golden snapshot test
//! pins the registry). Tag `0x00` is reserved for raw/untyped traffic and
//! never carries a typed body.

use pba_crypto::codec::{self, read_varint, write_varint, CodecError, Decode, Encode, Reader};
use pba_crypto::prg::Prg;

/// Upper bound on any single typed payload (header + body), enforced by
/// [`decode_msg`]. Generously above every honest message while stopping
/// hostile multi-gigabyte envelopes at the door.
pub const MAX_WIRE_BYTES: usize = 1 << 20;

/// Length of the `{tag, step}` wire header.
pub const HEADER_LEN: usize = 2;

/// The stable one-byte tag registry. Values are append-only: renumbering
/// an existing tag fails the golden registry snapshot test.
pub mod tag {
    /// Raw / untyped traffic (reserved; never a typed body).
    pub const RAW: u8 = 0x00;
    /// `PkMsg<u8>` — phase-king BA over bit values.
    pub const PK_MSG_U8: u8 = 0x01;
    /// `PkMsg<Digest>` — phase-king BA over digest values (coin agreement).
    pub const PK_MSG_DIGEST: u8 = 0x02;
    // 0x03 is retired (the commit/echo/reveal `CoinMsg`) and never
    // reassigned; `lookup` is by value, so the gap is harmless.
    /// `VssCoinMsg` — VSS-based common-coin toss (deal/echo).
    pub const VSS_COIN: u8 = 0x04;
    /// `DsMessage` — Dolev–Strong signature-chain broadcast.
    pub const DOLEV_STRONG: u8 = 0x05;
    /// `ValueSeed` — Fig. 3 step 3 `(epoch, value, seed)` dissemination.
    pub const VALUE_SEED: u8 = 0x06;
    /// `Certificate` — Fig. 3 step 6 certified `(epoch, value, seed, sig)`.
    pub const CERTIFICATE: u8 = 0x07;
    /// Attribution-only: Fig. 3 step 4 signature submission.
    pub const SIG_SUBMIT: u8 = 0x08;
    /// Attribution-only: Fig. 3 step 5 `robust::ascend` child → parent
    /// copies of each node's aggregate.
    pub const AGGR_SHARE: u8 = 0x09;
    /// Attribution-only: Fig. 3 step 5 constant-round MPC output delivery.
    pub const AGGR_MPC: u8 = 0x0a;
    /// Attribution-only: Fig. 3 steps 7–8 PRF-based certificate spreading.
    pub const SPREAD: u8 = 0x0b;
    /// Attribution-only: Fig. 3 step 1 tree/committee establishment.
    pub const ESTABLISH: u8 = 0x0c;
    /// Attribution-only: robust tree input fan-in.
    pub const FANIN: u8 = 0x0d;
    /// `SampleQuery` — √n-sampling baseline query.
    pub const SAMPLE_QUERY: u8 = 0x0e;
    /// `SampleResponse` — √n-sampling baseline response.
    pub const SAMPLE_RESPONSE: u8 = 0x0f;
    /// `BroadcastInput` — broadcast sender's input transfer to the supreme
    /// committee.
    pub const BCAST_INPUT: u8 = 0x10;
    /// `MvInput` — multi-value (ℓ-byte) input fan-in up the tree.
    pub const MV_INPUT: u8 = 0x11;
    /// `AggrDigests` — Fig. 3 step 5b: a committee member's digests of the
    /// signatures it holds, sent to the members whose list hash differed.
    pub const AGGR_DIGESTS: u8 = 0x12;
    /// `AggrBody` — Fig. 3 step 5b: one majority-attested signature pushed
    /// to a member whose digest list lacked it.
    pub const AGGR_BODY: u8 = 0x13;
    /// `AggrListHash` — Fig. 3 step 5b: the SHA-256 of a committee
    /// member's sorted digest list, multicast before any list moves.
    pub const AGGR_LIST_HASH: u8 = 0x14;
}

/// Nominal Figure 3 step numbers carried in the header's second byte.
pub mod step {
    /// Not part of Fig. 3 (baselines, raw traffic).
    pub const NONE: u8 = 0;
    /// Step 1: tree/committee establishment.
    pub const ESTABLISH: u8 = 1;
    /// Step 2: supreme-committee BA (phase king + common coin).
    pub const COMMITTEE_BA: u8 = 2;
    /// Step 3: value/seed dissemination down the tree.
    pub const DISSEMINATE: u8 = 3;
    /// Step 4: signature submission up the tree.
    pub const SIG_SUBMIT: u8 = 4;
    /// Step 5: signature aggregation (`f_aggr-sig`).
    pub const AGGREGATE: u8 = 5;
    /// Step 6: certificate formation and descent.
    pub const CERTIFY: u8 = 6;
    /// Steps 7–8: PRF-based spreading and output.
    pub const SPREAD: u8 = 7;
}

/// One typed field inside a message body — the declarative schema the
/// structure-aware fault layer mutates against. Lengths and enum variant
/// selectors are *structural* (never mutated); leaves are fair game.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FieldSpec {
    /// Fixed-width raw bytes (digests, hash preimages).
    Bytes(usize),
    /// A canonical prime-field element (8 bytes LE, value < modulus).
    Fp,
    /// A canonical LEB128 varint (party ids).
    Varint,
    /// A fixed-width little-endian `u64`.
    U64,
    /// A single byte value.
    Byte,
    /// A varint-length-prefixed byte string.
    VarBytes,
    /// A varint-count-prefixed sequence; each element is the given field
    /// list in order.
    Seq(&'static [FieldSpec]),
}

/// The body layout behind a tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BodySchema {
    /// A struct: the fields in order.
    Struct(&'static [FieldSpec]),
    /// An enum: a leading variant byte selects one field list.
    Enum(&'static [&'static [FieldSpec]]),
    /// No typed body — attribution-only tags and raw traffic.
    Opaque,
}

/// One registry row: the stable tag, its message, its Fig. 3 step, the
/// crate that owns the message type, and the body schema.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TagInfo {
    /// Stable one-byte tag.
    pub tag: u8,
    /// Message type name (or attribution bucket name).
    pub name: &'static str,
    /// Nominal Fig. 3 step (see [`step`]); `0` when outside Fig. 3.
    pub step: u8,
    /// Human-readable step label used in breakdown tables.
    pub step_label: &'static str,
    /// Crate owning the message type.
    pub crate_name: &'static str,
    /// Declarative body layout for structure-aware mutation.
    pub schema: BodySchema,
}

use FieldSpec as F;

const PK_U8_VARIANTS: &[&[FieldSpec]] = &[&[F::Byte], &[F::Byte], &[F::Byte]];
const PK_DIGEST_VARIANTS: &[&[FieldSpec]] = &[&[F::Bytes(32)], &[F::Bytes(32)], &[F::Bytes(32)]];
const VSS_COIN_VARIANTS: &[&[FieldSpec]] = &[
    // Deal(Fp)
    &[F::Fp],
    // Echo(Vec<(u64, Fp)>) — positions are u64 *values*, not ids.
    &[F::Seq(&[F::U64, F::Fp])],
];
// DsMessage { value: u8, chain: Vec<ChainLink> }, ChainLink flattened:
// signer PartyId, then MssSignature { idx, wots { chains }, merkle {
// leaf_index, path } } — no one-time key: verification recomputes it.
const DS_FIELDS: &[FieldSpec] = &[
    F::Byte,
    F::Seq(&[
        F::Varint,
        F::U64,
        F::Seq(&[F::Bytes(32)]),
        F::U64,
        F::Seq(&[F::Bytes(32)]),
    ]),
];
const VALUE_SEED_FIELDS: &[FieldSpec] = &[F::U64, F::VarBytes, F::Bytes(32)];
const CERTIFICATE_FIELDS: &[FieldSpec] = &[F::U64, F::VarBytes, F::Bytes(32), F::VarBytes];
const SAMPLE_QUERY_FIELDS: &[FieldSpec] = &[F::U64];
const SAMPLE_RESPONSE_FIELDS: &[FieldSpec] = &[F::Byte];
const BCAST_INPUT_FIELDS: &[FieldSpec] = &[F::Byte];
const MV_INPUT_FIELDS: &[FieldSpec] = &[F::U64, F::VarBytes];
const AGGR_DIGESTS_FIELDS: &[FieldSpec] = &[F::U64, F::U64, F::Seq(&[F::Bytes(32)])];
const AGGR_BODY_FIELDS: &[FieldSpec] = &[F::U64, F::U64, F::VarBytes];
const AGGR_LIST_HASH_FIELDS: &[FieldSpec] = &[F::U64, F::U64, F::Bytes(32)];

/// The full tag registry, ordered by tag. The golden snapshot test in
/// `tests/wire.rs` pins every row; append new tags at the end.
pub const REGISTRY: &[TagInfo] = &[
    TagInfo {
        tag: tag::RAW,
        name: "raw",
        step: step::NONE,
        step_label: "untyped",
        crate_name: "pba-net",
        schema: BodySchema::Opaque,
    },
    TagInfo {
        tag: tag::PK_MSG_U8,
        name: "PkMsg<u8>",
        step: step::COMMITTEE_BA,
        step_label: "2:committee-ba",
        crate_name: "pba-core",
        schema: BodySchema::Enum(PK_U8_VARIANTS),
    },
    TagInfo {
        tag: tag::PK_MSG_DIGEST,
        name: "PkMsg<Digest>",
        step: step::COMMITTEE_BA,
        step_label: "2:committee-ba",
        crate_name: "pba-core",
        schema: BodySchema::Enum(PK_DIGEST_VARIANTS),
    },
    TagInfo {
        tag: tag::VSS_COIN,
        name: "VssCoinMsg",
        step: step::COMMITTEE_BA,
        step_label: "2:committee-ba",
        crate_name: "pba-core",
        schema: BodySchema::Enum(VSS_COIN_VARIANTS),
    },
    TagInfo {
        tag: tag::DOLEV_STRONG,
        name: "DsMessage",
        step: step::NONE,
        step_label: "baseline",
        crate_name: "pba-core",
        schema: BodySchema::Struct(DS_FIELDS),
    },
    TagInfo {
        tag: tag::VALUE_SEED,
        name: "ValueSeed",
        step: step::DISSEMINATE,
        step_label: "3:disseminate",
        crate_name: "pba-core",
        schema: BodySchema::Struct(VALUE_SEED_FIELDS),
    },
    TagInfo {
        tag: tag::CERTIFICATE,
        name: "Certificate",
        step: step::CERTIFY,
        step_label: "6:certify",
        crate_name: "pba-core",
        schema: BodySchema::Struct(CERTIFICATE_FIELDS),
    },
    TagInfo {
        tag: tag::SIG_SUBMIT,
        name: "sig-submit",
        step: step::SIG_SUBMIT,
        step_label: "4:sig-submit",
        crate_name: "pba-core",
        schema: BodySchema::Opaque,
    },
    TagInfo {
        tag: tag::AGGR_SHARE,
        name: "aggr-share",
        step: step::AGGREGATE,
        step_label: "5:aggregate",
        crate_name: "pba-core",
        schema: BodySchema::Opaque,
    },
    TagInfo {
        tag: tag::AGGR_MPC,
        name: "aggr-mpc",
        step: step::AGGREGATE,
        step_label: "5:aggregate",
        crate_name: "pba-core",
        schema: BodySchema::Opaque,
    },
    TagInfo {
        tag: tag::SPREAD,
        name: "spread",
        step: step::SPREAD,
        step_label: "7-8:spread",
        crate_name: "pba-core",
        schema: BodySchema::Opaque,
    },
    TagInfo {
        tag: tag::ESTABLISH,
        name: "establish",
        step: step::ESTABLISH,
        step_label: "1:establish",
        crate_name: "pba-aetree",
        schema: BodySchema::Opaque,
    },
    TagInfo {
        tag: tag::FANIN,
        name: "fanin",
        step: step::NONE,
        step_label: "tree-fanin",
        crate_name: "pba-aetree",
        schema: BodySchema::Opaque,
    },
    TagInfo {
        tag: tag::SAMPLE_QUERY,
        name: "SampleQuery",
        step: step::NONE,
        step_label: "baseline",
        crate_name: "pba-core",
        schema: BodySchema::Struct(SAMPLE_QUERY_FIELDS),
    },
    TagInfo {
        tag: tag::SAMPLE_RESPONSE,
        name: "SampleResponse",
        step: step::NONE,
        step_label: "baseline",
        crate_name: "pba-core",
        schema: BodySchema::Struct(SAMPLE_RESPONSE_FIELDS),
    },
    TagInfo {
        tag: tag::BCAST_INPUT,
        name: "BroadcastInput",
        step: step::NONE,
        step_label: "bcast-input",
        crate_name: "pba-core",
        schema: BodySchema::Struct(BCAST_INPUT_FIELDS),
    },
    TagInfo {
        tag: tag::MV_INPUT,
        name: "MvInput",
        step: step::NONE,
        step_label: "mv-input",
        crate_name: "pba-core",
        schema: BodySchema::Struct(MV_INPUT_FIELDS),
    },
    TagInfo {
        tag: tag::AGGR_DIGESTS,
        name: "AggrDigests",
        step: step::AGGREGATE,
        step_label: "5:aggregate",
        crate_name: "pba-core",
        schema: BodySchema::Struct(AGGR_DIGESTS_FIELDS),
    },
    TagInfo {
        tag: tag::AGGR_BODY,
        name: "AggrBody",
        step: step::AGGREGATE,
        step_label: "5:aggregate",
        crate_name: "pba-core",
        schema: BodySchema::Struct(AGGR_BODY_FIELDS),
    },
    TagInfo {
        tag: tag::AGGR_LIST_HASH,
        name: "AggrListHash",
        step: step::AGGREGATE,
        step_label: "5:aggregate",
        crate_name: "pba-core",
        schema: BodySchema::Struct(AGGR_LIST_HASH_FIELDS),
    },
];

/// Looks a tag up in the registry.
pub fn lookup(t: u8) -> Option<&'static TagInfo> {
    REGISTRY.iter().find(|info| info.tag == t)
}

/// The breakdown-table step label for a tag ([`TagInfo::step_label`], or
/// `"untyped"` for unregistered tags).
pub fn step_label_for(t: u8) -> &'static str {
    lookup(t).map_or("untyped", |info| info.step_label)
}

/// A typed wire message: an encodable/decodable value with a registered
/// tag and a nominal Fig. 3 step. Implementations live next to the message
/// type and must reference the [`tag`]/[`step`] constants (so renumbering
/// is caught by the registry snapshot test, not silently re-derived).
pub trait WireMsg: Encode + Decode {
    /// The registered one-byte tag ([`tag`]).
    const TAG: u8;
    /// The nominal Fig. 3 step carried in the header ([`step`]).
    const STEP: u8;
}

/// Errors raised by the hardened decode entry point [`decode_msg`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Payload shorter than the `{tag, step}` header.
    TooShort,
    /// Payload exceeds [`MAX_WIRE_BYTES`].
    OverCap(usize),
    /// Header tag is not in the registry.
    UnknownTag(u8),
    /// Header tag is registered but is not the expected message's tag.
    WrongTag {
        /// The decoder's expected tag.
        expected: u8,
        /// The tag found in the header.
        found: u8,
    },
    /// Header step byte does not match the tag's registered step.
    WrongStep {
        /// The registered step for this tag.
        expected: u8,
        /// The step found in the header.
        found: u8,
    },
    /// The body failed to decode (including trailing-byte rejection).
    Body(CodecError),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::TooShort => f.write_str("payload shorter than wire header"),
            WireError::OverCap(n) => write!(f, "payload of {n} bytes exceeds wire cap"),
            WireError::UnknownTag(t) => write!(f, "unknown wire tag {t:#04x}"),
            WireError::WrongTag { expected, found } => {
                write!(f, "wire tag {found:#04x}, expected {expected:#04x}")
            }
            WireError::WrongStep { expected, found } => {
                write!(f, "wire step {found}, expected {expected}")
            }
            WireError::Body(e) => write!(f, "wire body: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encodes a typed message with its `{tag, step}` header.
pub fn encode_msg<T: WireMsg>(msg: &T) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + msg.encoded_len());
    encode_msg_into(msg, &mut buf);
    buf
}

/// Encodes a typed message with its header into a caller-owned buffer.
///
/// The buffer is cleared first, so the result is byte-for-byte the
/// [`encode_msg`] output; reusing one buffer across sends keeps its
/// high-water capacity and avoids per-message growth reallocations (the
/// `Ctx` send paths use this with a per-backend scratch buffer).
pub fn encode_msg_into<T: WireMsg>(msg: &T, buf: &mut Vec<u8>) {
    buf.clear();
    buf.push(T::TAG);
    buf.push(T::STEP);
    msg.encode(buf);
}

/// Encoded wire length of a typed message (header included) — the
/// replacement for hand-computed wire-size constants.
pub fn encoded_msg_len<T: WireMsg>(msg: &T) -> usize {
    HEADER_LEN + msg.encoded_len()
}

/// The single hardened decode entry point for typed traffic.
///
/// Rejects, in order: payloads over [`MAX_WIRE_BYTES`]; payloads shorter
/// than the header; unregistered tags; registered-but-unexpected tags;
/// step bytes that contradict the registry; and malformed bodies
/// (truncation, hostile lengths, trailing bytes — via the strict
/// [`codec::decode_from_slice`]).
///
/// # Errors
///
/// A [`WireError`] naming the first failed check.
pub fn decode_msg<T: WireMsg>(payload: &[u8]) -> Result<T, WireError> {
    if payload.len() > MAX_WIRE_BYTES {
        return Err(WireError::OverCap(payload.len()));
    }
    if payload.len() < HEADER_LEN {
        return Err(WireError::TooShort);
    }
    let (found_tag, found_step) = (payload[0], payload[1]);
    let info = lookup(found_tag).ok_or(WireError::UnknownTag(found_tag))?;
    if found_tag != T::TAG {
        return Err(WireError::WrongTag {
            expected: T::TAG,
            found: found_tag,
        });
    }
    if found_step != info.step {
        return Err(WireError::WrongStep {
            expected: info.step,
            found: found_step,
        });
    }
    debug_assert_eq!(info.step, T::STEP, "WireMsg STEP disagrees with registry");
    codec::decode_from_slice(&payload[HEADER_LEN..]).map_err(WireError::Body)
}

/// Classifies a payload for byte attribution: returns the header tag when
/// the payload carries a plausible wire header (registered tag whose
/// registered step matches the header's step byte), else [`tag::RAW`].
///
/// This is a 16-bit heuristic, not authentication: honest traffic is all
/// typed after the wire migration, so misclassification is confined to
/// adversarial bytes (which honest reports exclude anyway). Conservation
/// of the per-tag marginals holds regardless of how bytes are binned.
pub fn peek_tag(payload: &[u8]) -> u8 {
    if payload.len() >= HEADER_LEN {
        if let Some(info) = lookup(payload[0]) {
            if info.tag != tag::RAW && info.step == payload[1] {
                return info.tag;
            }
        }
    }
    tag::RAW
}

/// Structural parse bound: honest sequences are committee-sized, so a
/// schema walk never needs more elements than this.
const MAX_WALK_ELEMS: u64 = 1 << 16;

#[derive(Clone, Copy, Debug)]
enum LeafKind {
    Raw,
    Fp,
    Varint,
}

#[derive(Clone, Copy, Debug)]
struct Leaf {
    start: usize,
    end: usize,
    kind: LeafKind,
}

struct Walker<'a> {
    r: Reader<'a>,
    consumed: usize,
    leaves: Vec<Leaf>,
}

impl<'a> Walker<'a> {
    fn new(body: &'a [u8]) -> Self {
        Walker {
            r: Reader::new(body),
            consumed: 0,
            leaves: Vec::new(),
        }
    }

    fn pos(&self) -> usize {
        self.consumed
    }

    fn take(&mut self, n: usize) -> Option<()> {
        self.r.take(n).ok()?;
        self.consumed += n;
        Some(())
    }

    fn leaf(&mut self, n: usize, kind: LeafKind) -> Option<()> {
        let start = self.pos();
        self.take(n)?;
        self.leaves.push(Leaf {
            start,
            end: self.pos(),
            kind,
        });
        Some(())
    }

    fn varint(&mut self) -> Option<u64> {
        let before = self.r.remaining();
        let v = read_varint(&mut self.r).ok()?;
        self.consumed += before - self.r.remaining();
        Some(v)
    }

    fn field(&mut self, spec: &FieldSpec) -> Option<()> {
        match spec {
            FieldSpec::Bytes(n) => self.leaf(*n, LeafKind::Raw),
            FieldSpec::Fp => self.leaf(8, LeafKind::Fp),
            FieldSpec::U64 => self.leaf(8, LeafKind::Raw),
            FieldSpec::Byte => self.leaf(1, LeafKind::Raw),
            FieldSpec::Varint => {
                let start = self.pos();
                self.varint()?;
                self.leaves.push(Leaf {
                    start,
                    end: self.pos(),
                    kind: LeafKind::Varint,
                });
                Some(())
            }
            FieldSpec::VarBytes => {
                let len = self.varint()?;
                if len > MAX_WALK_ELEMS {
                    return None;
                }
                if len > 0 {
                    self.leaf(len as usize, LeafKind::Raw)?;
                }
                Some(())
            }
            FieldSpec::Seq(elem) => {
                let count = self.varint()?;
                if count > MAX_WALK_ELEMS {
                    return None;
                }
                for _ in 0..count {
                    for f in *elem {
                        self.field(f)?;
                    }
                }
                Some(())
            }
        }
    }
}

/// Parses `payload` (header included) against its registered schema and
/// collects the mutable leaf fields. `None` when the payload is untyped,
/// opaque, or does not parse cleanly against its schema.
fn leaves_of(payload: &[u8]) -> Option<Vec<Leaf>> {
    let t = peek_tag(payload);
    if t == tag::RAW {
        return None;
    }
    let info = lookup(t)?;
    let body = &payload[HEADER_LEN..];
    let mut w = Walker::new(body);
    match info.schema {
        BodySchema::Opaque => return None,
        BodySchema::Struct(fields) => {
            for f in fields {
                w.field(f)?;
            }
        }
        BodySchema::Enum(variants) => {
            let variant = *body.first()? as usize;
            w.take(1)?;
            for f in *variants.get(variant)? {
                w.field(f)?;
            }
        }
    }
    if w.r.remaining() != 0 || w.leaves.is_empty() {
        return None;
    }
    // Offset body positions to full-payload positions.
    Some(
        w.leaves
            .into_iter()
            .map(|l| Leaf {
                start: l.start + HEADER_LEN,
                end: l.end + HEADER_LEN,
                kind: l.kind,
            })
            .collect(),
    )
}

/// Structure-aware mutation: decodes `payload` against its registered
/// schema, mutates exactly one typed leaf field, and re-encodes. The
/// result decodes successfully as the *same* message type but carries a
/// wrong value — the adversarial counterpart of a well-formed lie, as
/// opposed to the bit-flips honest machines reject at the codec layer.
///
/// Returns `None` for untyped/opaque payloads or payloads that do not
/// parse against their schema (callers fall back to byte-level garbling).
pub fn mutate_field(payload: &[u8], prg: &mut Prg) -> Option<Vec<u8>> {
    let leaves = leaves_of(payload)?;
    let leaf = leaves[prg.gen_range(leaves.len() as u64) as usize];
    let span = &payload[leaf.start..leaf.end];
    let replacement: Vec<u8> = match leaf.kind {
        LeafKind::Raw => {
            let mut out = span.to_vec();
            let at = prg.gen_range(out.len() as u64) as usize;
            out[at] ^= (prg.gen_range(255) + 1) as u8;
            out
        }
        LeafKind::Fp => {
            let old = u64::from_le_bytes(span.try_into().expect("Fp leaf is 8 bytes"));
            let modulus = pba_crypto::field::MODULUS;
            // Adding r ∈ [1, modulus) to a canonical value stays canonical
            // after reduction and never maps back to the original.
            let delta = prg.gen_range(modulus - 1) + 1;
            let new = (old % modulus + delta) % modulus;
            new.to_le_bytes().to_vec()
        }
        LeafKind::Varint => {
            let mut r = Reader::new(span);
            let old = read_varint(&mut r).ok()?;
            let new = old.wrapping_add(prg.gen_range(7) + 1);
            let mut out = Vec::new();
            write_varint(&mut out, new);
            out
        }
    };
    let mut out = Vec::with_capacity(payload.len());
    out.extend_from_slice(&payload[..leaf.start]);
    out.extend_from_slice(&replacement);
    out.extend_from_slice(&payload[leaf.end..]);
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_tags_are_unique_and_sorted() {
        for pair in REGISTRY.windows(2) {
            assert!(pair[0].tag < pair[1].tag, "registry must stay sorted");
        }
        assert_eq!(REGISTRY[0].tag, tag::RAW);
    }

    #[test]
    fn registry_steps_are_consistent() {
        for info in REGISTRY {
            assert!(lookup(info.tag) == Some(info));
        }
        assert!(lookup(0xfe).is_none());
    }

    #[test]
    fn retired_tag_is_unregistered() {
        assert!(lookup(0x03).is_none());
        assert_eq!(peek_tag(&[0x03, step::COMMITTEE_BA, 1, 2]), tag::RAW);
    }

    #[test]
    fn peek_tag_requires_both_header_bytes_to_agree() {
        assert_eq!(peek_tag(&[]), tag::RAW);
        assert_eq!(peek_tag(&[tag::VALUE_SEED]), tag::RAW);
        // Right tag, wrong step byte → raw.
        assert_eq!(peek_tag(&[tag::VALUE_SEED, step::CERTIFY]), tag::RAW);
        assert_eq!(
            peek_tag(&[tag::VALUE_SEED, step::DISSEMINATE]),
            tag::VALUE_SEED
        );
        // Unregistered first byte → raw.
        assert_eq!(peek_tag(&[0x7f, 0]), tag::RAW);
        // The raw tag itself never classifies as typed.
        assert_eq!(peek_tag(&[tag::RAW, step::NONE, 1, 2]), tag::RAW);
    }

    #[test]
    fn opaque_and_raw_payloads_are_not_field_mutable() {
        let mut prg = Prg::from_seed_bytes(b"wire");
        assert!(mutate_field(&[], &mut prg).is_none());
        assert!(mutate_field(&[0xab, 0xcd, 1, 2, 3], &mut prg).is_none());
        // Attribution-only tag: plausible header, opaque schema.
        assert!(mutate_field(&[tag::SPREAD, step::SPREAD, 9, 9], &mut prg).is_none());
    }
}
