//! A compact, deterministic wire format for protocol messages.
//!
//! Communication complexity is *the* measured quantity in this reproduction,
//! so every message crosses the simulated network as explicit bytes produced
//! by this codec — no in-memory hand-waving. The format is little-endian
//! fixed-width integers, canonical LEB128 varint length prefixes for
//! sequences, and a one-byte tag for options/enums.
//!
//! # Examples
//!
//! ```
//! use pba_crypto::codec::{Decode, Encode, decode_from_slice, encode_to_vec};
//!
//! let v: Vec<u32> = vec![1, 2, 3];
//! let bytes = encode_to_vec(&v);
//! let back: Vec<u32> = decode_from_slice(&bytes)?;
//! assert_eq!(back, v);
//! # Ok::<(), pba_crypto::codec::CodecError>(())
//! ```

use crate::field::Fp;
use crate::lamport::LamportSignature;
use crate::merkle::MerkleProof;
use crate::mss::MssSignature;
use crate::sha256::{Digest, DIGEST_LEN};
use std::fmt;

/// Errors raised while decoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the value was complete.
    UnexpectedEnd,
    /// A tag byte had no corresponding variant.
    InvalidTag(u8),
    /// A length prefix exceeded the sanity bound.
    LengthOverflow(u64),
    /// Trailing bytes remained after a complete decode.
    TrailingBytes(usize),
    /// A domain-specific invariant failed.
    Invalid(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEnd => f.write_str("unexpected end of input"),
            CodecError::InvalidTag(t) => write!(f, "invalid tag byte {t}"),
            CodecError::LengthOverflow(n) => write!(f, "length prefix {n} exceeds sanity bound"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after decode"),
            CodecError::Invalid(what) => write!(f, "invalid encoding: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Sanity bound on decoded sequence lengths (items), to stop hostile inputs
/// from triggering huge allocations.
pub const MAX_SEQ_LEN: u64 = 1 << 24;

/// Maximum byte length of a LEB128-encoded `u64` (⌈64 / 7⌉ groups).
pub const MAX_VARINT_LEN: usize = 10;

/// Appends the canonical LEB128 (base-128, little-endian groups) encoding
/// of `v` to `buf`. Small values — sequence lengths, party indices — cost
/// one byte instead of the eight a fixed-width `u64` costs.
pub fn write_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let group = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(group);
            return;
        }
        buf.push(group | 0x80);
    }
}

/// Byte length of the canonical LEB128 encoding of `v`.
pub fn varint_len(v: u64) -> usize {
    ((64 - v.leading_zeros()).max(1) as usize).div_ceil(7)
}

/// Reads a canonical LEB128-encoded `u64`.
///
/// # Errors
///
/// [`CodecError::UnexpectedEnd`] on truncation; [`CodecError::Invalid`] on
/// encodings that overflow 64 bits or are non-canonical (a redundant
/// trailing zero group).
pub fn read_varint(r: &mut Reader<'_>) -> Result<u64, CodecError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = r.take(1)?[0];
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(CodecError::Invalid("varint overflow"));
        }
        if byte == 0 && shift != 0 {
            return Err(CodecError::Invalid("non-canonical varint"));
        }
        value |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// A cursor over encoded bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Takes exactly `n` bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEnd`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEnd);
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
}

/// Serialization into the wire format.
pub trait Encode {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Encoded size in bytes (default: encode into a scratch buffer).
    fn encoded_len(&self) -> usize {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf.len()
    }
}

/// Deserialization from the wire format.
pub trait Decode: Sized {
    /// Decodes a value, advancing the reader.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] on malformed input.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

/// Encodes a value into a fresh byte vector.
pub fn encode_to_vec<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    let mut buf = Vec::new();
    value.encode(&mut buf);
    buf
}

/// Decodes a value from a slice, requiring the input be fully consumed.
///
/// # Errors
///
/// Any [`CodecError`], including [`CodecError::TrailingBytes`].
pub fn decode_from_slice<T: Decode>(data: &[u8]) -> Result<T, CodecError> {
    let mut r = Reader::new(data);
    let v = T::decode(&mut r)?;
    if r.remaining() > 0 {
        return Err(CodecError::TrailingBytes(r.remaining()));
    }
    Ok(v)
}

macro_rules! impl_int {
    ($($ty:ty),*) => {
        $(
            impl Encode for $ty {
                fn encode(&self, buf: &mut Vec<u8>) {
                    buf.extend_from_slice(&self.to_le_bytes());
                }
                fn encoded_len(&self) -> usize {
                    std::mem::size_of::<$ty>()
                }
            }
            impl Decode for $ty {
                fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                    let bytes = r.take(std::mem::size_of::<$ty>())?;
                    Ok(<$ty>::from_le_bytes(bytes.try_into().expect("sized take")))
                }
            }
        )*
    };
}

impl_int!(u8, u16, u32, u64, i64);

impl Encode for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self as u8);
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(CodecError::InvalidTag(t)),
        }
    }
}

impl Encode for Fp {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.value().encode(buf);
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Decode for Fp {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let v = u64::decode(r)?;
        if v >= crate::field::MODULUS {
            return Err(CodecError::Invalid("non-canonical field element"));
        }
        Ok(Fp::new(v))
    }
}

impl Encode for Digest {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self.as_bytes());
    }
    fn encoded_len(&self) -> usize {
        DIGEST_LEN
    }
}

impl Decode for Digest {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let bytes = r.take(DIGEST_LEN)?;
        Ok(Digest::new(bytes.try_into().expect("sized take")))
    }
}

impl Encode for [u8; 32] {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self);
    }
    fn encoded_len(&self) -> usize {
        32
    }
}

impl Decode for [u8; 32] {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(r.take(32)?.try_into().expect("sized take"))
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_varint(buf, self.len() as u64);
        for item in self {
            item.encode(buf);
        }
    }
    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64) + self.iter().map(Encode::encoded_len).sum::<usize>()
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = read_varint(r)?;
        if len > MAX_SEQ_LEN {
            return Err(CodecError::LengthOverflow(len));
        }
        let mut out = Vec::with_capacity((len as usize).min(1024));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take(1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            t => Err(CodecError::InvalidTag(t)),
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Encode, B: Encode, C: Encode> Encode for (A, B, C) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
    }
}

impl<A: Decode, B: Decode, C: Decode> Decode for (A, B, C) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl Encode for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_varint(buf, self.len() as u64);
        buf.extend_from_slice(self.as_bytes());
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = read_varint(r)?;
        if len > MAX_SEQ_LEN {
            return Err(CodecError::LengthOverflow(len));
        }
        let bytes = r.take(len as usize)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Invalid("utf-8"))
    }
}

impl Encode for MerkleProof {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.leaf_index().encode(buf);
        self.path().to_vec().encode(buf);
    }
    fn encoded_len(&self) -> usize {
        MerkleProof::encoded_len(self)
    }
}

impl Decode for MerkleProof {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let leaf_index = u64::decode(r)?;
        let path = Vec::<Digest>::decode(r)?;
        Ok(MerkleProof::from_parts(leaf_index, path))
    }
}

impl Encode for LamportSignature {
    fn encode(&self, buf: &mut Vec<u8>) {
        let (revealed, complements) = self.clone().into_parts();
        revealed.encode(buf);
        complements.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        LamportSignature::encoded_len(self)
    }
}

impl Decode for LamportSignature {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let revealed = Vec::<[u8; 32]>::decode(r)?;
        let complements = Vec::<Digest>::decode(r)?;
        Ok(LamportSignature::from_parts(revealed, complements))
    }
}

impl Encode for MssSignature {
    fn encode(&self, buf: &mut Vec<u8>) {
        let (idx, vk, sig, path) = self.clone().into_parts();
        idx.encode(buf);
        vk.encode(buf);
        sig.encode(buf);
        path.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        MssSignature::encoded_len(self)
    }
}

impl Decode for MssSignature {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let idx = u64::decode(r)?;
        let vk = Digest::decode(r)?;
        let sig = LamportSignature::decode(r)?;
        let path = MerkleProof::decode(r)?;
        Ok(MssSignature::from_parts(idx, vk, sig, path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lamport::LamportParams;
    use crate::mss::{MssKeyPair, MssParams};
    use crate::prg::Prg;
    use crate::sha256::Sha256;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = encode_to_vec(&v);
        let back: T = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, v);
        assert_eq!(v.encoded_len(), bytes.len());
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(0xdeadu16);
        roundtrip(0xdeadbeefu32);
        roundtrip(u64::MAX);
        roundtrip(-42i64);
        roundtrip(true);
        roundtrip(false);
        roundtrip(Sha256::digest(b"d"));
        roundtrip([9u8; 32]);
        roundtrip("hello world".to_string());
        roundtrip(String::new());
    }

    #[test]
    fn composites_roundtrip() {
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(Some(7u64));
        roundtrip(None::<u64>);
        roundtrip((1u8, 2u64));
        roundtrip((1u8, "x".to_string(), vec![true, false]));
        roundtrip(vec![Some(vec![1u16]), None]);
    }

    #[test]
    fn crypto_types_roundtrip() {
        let mut prg = Prg::from_seed_bytes(b"cdc");
        let lparams = LamportParams::new(16);
        let kp = crate::lamport::LamportKeyPair::generate(&lparams, &mut prg);
        roundtrip(kp.sign(b"m"));

        let mparams = MssParams::new(16, 2);
        let mut mkp = MssKeyPair::generate(&mparams, &mut prg);
        let sig = mkp.sign(b"m").unwrap();
        let bytes = encode_to_vec(&sig);
        assert_eq!(bytes.len(), sig.encoded_len());
        let back: MssSignature = decode_from_slice(&bytes).unwrap();
        assert!(mparams.verify(&mkp.verification_key(), b"m", &back));
    }

    #[test]
    fn truncated_input_errors() {
        let bytes = encode_to_vec(&vec![1u64, 2, 3]);
        for cut in 0..bytes.len() {
            let r: Result<Vec<u64>, _> = decode_from_slice(&bytes[..cut]);
            assert!(r.is_err(), "cut={cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_to_vec(&7u64);
        bytes.push(0);
        assert_eq!(
            decode_from_slice::<u64>(&bytes),
            Err(CodecError::TrailingBytes(1))
        );
    }

    #[test]
    fn invalid_bool_tag() {
        assert_eq!(
            decode_from_slice::<bool>(&[2]),
            Err(CodecError::InvalidTag(2))
        );
    }

    #[test]
    fn hostile_length_rejected() {
        let mut bytes = Vec::new();
        write_varint(&mut bytes, MAX_SEQ_LEN + 1);
        assert_eq!(
            decode_from_slice::<Vec<u8>>(&bytes),
            Err(CodecError::LengthOverflow(MAX_SEQ_LEN + 1))
        );
    }

    #[test]
    fn varint_roundtrips_at_group_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v), "v={v}");
            assert!(buf.len() <= MAX_VARINT_LEN);
            let mut r = Reader::new(&buf);
            assert_eq!(read_varint(&mut r).unwrap(), v);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn varint_rejects_truncation_overflow_and_redundancy() {
        // Truncated: continuation bit set but input ends.
        let mut r = Reader::new(&[0x80]);
        assert_eq!(read_varint(&mut r), Err(CodecError::UnexpectedEnd));
        // Overflow: an 11th group, or bits past the 64th.
        let mut r = Reader::new(&[0xff; 11]);
        assert!(read_varint(&mut r).is_err());
        let mut r = Reader::new(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02]);
        assert_eq!(
            read_varint(&mut r),
            Err(CodecError::Invalid("varint overflow"))
        );
        // Non-canonical: redundant trailing zero group for the value 0.
        let mut r = Reader::new(&[0x80, 0x00]);
        assert_eq!(
            read_varint(&mut r),
            Err(CodecError::Invalid("non-canonical varint"))
        );
    }

    #[test]
    fn field_element_roundtrip_and_canonicality() {
        roundtrip(Fp::new(12345));
        roundtrip(Fp::ZERO);
        let bytes = encode_to_vec(&crate::field::MODULUS);
        assert_eq!(
            decode_from_slice::<Fp>(&bytes),
            Err(CodecError::Invalid("non-canonical field element"))
        );
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut bytes = Vec::new();
        write_varint(&mut bytes, 2);
        bytes.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(
            decode_from_slice::<String>(&bytes),
            Err(CodecError::Invalid("utf-8"))
        );
    }
}
