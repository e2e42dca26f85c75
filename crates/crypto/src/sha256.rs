//! A from-scratch implementation of SHA-256 (FIPS 180-4).
//!
//! This is the collision-resistant hash underlying every other primitive in
//! the workspace: HMAC, the PRF/PRG, Merkle trees, W-OTS/Merkle signatures,
//! and commitments. It supports incremental (streaming) hashing through
//! [`Sha256`], one-shot hashing through [`Sha256::digest`], and batched
//! hashing of independent messages through [`batch_digest`].
//!
//! # Compression backends
//!
//! Everything above the compression function — padding, buffering, batch
//! grouping, Merkle/W-OTS/PRG/HMAC — is written once and reaches the
//! function through two calls, [`Backend::compress`] (one chaining state, a
//! run of blocks) and [`Backend::compress_group`] (one block into each of
//! [`LANES`] states). Two backends implement them:
//!
//! * **portable** — a scalar core and an 8-lane structure-of-arrays core in
//!   plain integer Rust. The only backend on CPUs without the SHA
//!   extensions, and the reference every equivalence test compares against.
//! * **sha-ni** — the x86 SHA extensions, in the private `shani` module
//!   (the only `unsafe` in the workspace).
//!
//! [`Backend::active`] picks once per process from what the CPU reports;
//! there is nothing to configure. Both backends compute the FIPS 180-4
//! function on 32-bit words, so every digest is bit-identical whichever one
//! ran; [`backend`] names the choice for results files.
//!
//! # Examples
//!
//! ```
//! use pba_crypto::sha256::Sha256;
//!
//! let d = Sha256::digest(b"abc");
//! assert_eq!(
//!     d.to_hex(),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
//! );
//! ```

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod shani;

/// Number of bytes in a SHA-256 digest.
pub const DIGEST_LEN: usize = 32;

/// SHA-256 block size in bytes.
pub const BLOCK_LEN: usize = 64;

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// A 32-byte SHA-256 digest.
///
/// Digests are the universal "value" type of the crate: Merkle roots, PRF
/// keys, commitments and node identifiers are all `Digest`s.
///
/// # Examples
///
/// ```
/// use pba_crypto::sha256::{Digest, Sha256};
///
/// let d: Digest = Sha256::digest(b"hello");
/// assert_eq!(d.as_bytes().len(), 32);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Digest(pub [u8; DIGEST_LEN]);

impl Digest {
    /// The all-zero digest; used as a sentinel for "empty".
    pub const ZERO: Digest = Digest([0u8; DIGEST_LEN]);

    /// Creates a digest from raw bytes.
    pub const fn new(bytes: [u8; DIGEST_LEN]) -> Self {
        Digest(bytes)
    }

    /// Returns the digest as a byte slice.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Consumes the digest, returning the underlying array.
    pub fn into_bytes(self) -> [u8; DIGEST_LEN] {
        self.0
    }

    /// Lowercase hexadecimal rendering of the digest.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(DIGEST_LEN * 2);
        for b in self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// Parses a digest from a 64-character hex string.
    ///
    /// # Errors
    ///
    /// Returns `None` if the string is not exactly 64 hex characters.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != DIGEST_LEN * 2 || !s.is_ascii() {
            return None;
        }
        let mut out = [0u8; DIGEST_LEN];
        for (i, chunk) in s.as_bytes().chunks(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            out[i] = ((hi << 4) | lo) as u8;
        }
        Some(Digest(out))
    }

    /// Interprets the first 8 bytes as a big-endian `u64`.
    ///
    /// Handy for deriving pseudorandom integers from digests.
    pub fn prefix_u64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("digest has >= 8 bytes"))
    }

    /// XOR of two digests, byte-wise.
    pub fn xor(&self, other: &Digest) -> Digest {
        let mut out = [0u8; DIGEST_LEN];
        for (o, (a, b)) in out.iter_mut().zip(self.0.iter().zip(&other.0)) {
            *o = a ^ b;
        }
        Digest(out)
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}..)", &self.to_hex()[..12])
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; DIGEST_LEN]> for Digest {
    fn from(bytes: [u8; DIGEST_LEN]) -> Self {
        Digest(bytes)
    }
}

/// A SHA-256 compression core: the portable integer cores or the x86 SHA
/// extensions (see the [module docs](self#compression-backends)).
///
/// Production code never names a backend — [`Sha256`] and the batch APIs
/// run on [`Backend::active`]. The explicit constructors exist so
/// equivalence tests and the `hash_engine` bench can run one input through
/// each core and compare.
///
/// # Examples
///
/// ```
/// use pba_crypto::sha256::{Backend, Sha256};
///
/// let portable = Backend::PORTABLE.digest(b"abc");
/// assert_eq!(portable, Sha256::digest(b"abc"));
/// if let Some(sha_ni) = Backend::sha_ni() {
///     assert_eq!(sha_ni.digest(b"abc"), portable);
/// }
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Backend(Core);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Core {
    Portable,
    #[cfg(target_arch = "x86_64")]
    ShaNi(shani::ShaNi),
}

impl Backend {
    /// The portable cores: available everywhere, and the oracle.
    pub const PORTABLE: Backend = Backend(Core::Portable);

    /// The SHA-extension core, if this CPU has it.
    pub fn sha_ni() -> Option<Backend> {
        #[cfg(target_arch = "x86_64")]
        if let Some(detected) = shani::ShaNi::detect() {
            return Some(Backend(Core::ShaNi(detected)));
        }
        None
    }

    /// The backend every dispatching API uses: SHA-NI where the CPU has it,
    /// portable otherwise. Detected on first use, fixed for the process.
    pub fn active() -> Backend {
        static ACTIVE: OnceLock<Backend> = OnceLock::new();
        *ACTIVE.get_or_init(|| Backend::sha_ni().unwrap_or(Backend::PORTABLE))
    }

    /// `"sha-ni"` or `"portable"`.
    pub fn name(self) -> &'static str {
        match self.0 {
            Core::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Core::ShaNi(_) => "sha-ni",
        }
    }

    /// Compresses a run of consecutive blocks (possibly none) into one
    /// chaining state.
    pub fn compress(self, state: &mut [u32; 8], blocks: &[[u8; BLOCK_LEN]]) {
        if blocks.is_empty() {
            return;
        }
        match self.0 {
            Core::Portable => {
                for block in blocks {
                    compress_scalar(state, block);
                }
            }
            #[cfg(target_arch = "x86_64")]
            Core::ShaNi(core) => core.compress(state, blocks),
        }
    }

    /// Compresses `blocks[l]` into `states[l]` for [`LANES`] independent
    /// chaining states at once.
    pub fn compress_group(self, states: &mut [[u32; 8]; LANES], blocks: &[[u8; BLOCK_LEN]; LANES]) {
        match self.0 {
            Core::Portable => {
                // The 8-lane core wants structure-of-arrays state.
                let mut soa: [[u32; LANES]; 8] =
                    std::array::from_fn(|k| std::array::from_fn(|l| states[l][k]));
                compress_lanes(&mut soa, blocks);
                *states = std::array::from_fn(|l| std::array::from_fn(|k| soa[k][l]));
            }
            #[cfg(target_arch = "x86_64")]
            Core::ShaNi(core) => core.compress_group(states, blocks),
        }
    }

    /// [`Sha256::digest`] on this backend.
    pub fn digest(self, data: &[u8]) -> Digest {
        let mut state = H0;
        let (blocks, tail) = data.as_chunks::<BLOCK_LEN>();
        self.compress(&mut state, blocks);
        self.finish(state, tail, data.len() as u64)
    }

    /// [`batch_digest`] on this backend (one-at-a-time and grouped paths
    /// both).
    pub fn batch_digest(self, inputs: &[&[u8]]) -> Vec<Digest> {
        let views: Vec<View<'_>> = inputs.iter().map(|i| View::new([i, &[], &[]])).collect();
        batch_views(self, &views)
    }

    /// Pads and compresses the last `tail.len() < BLOCK_LEN` bytes of a
    /// `total_len`-byte message: `0x80`, zeros, 8-byte big-endian bit
    /// length — one block when the tail leaves room for the length, two
    /// otherwise.
    fn finish(self, mut state: [u32; 8], tail: &[u8], total_len: u64) -> Digest {
        let mut block = [0u8; BLOCK_LEN];
        block[..tail.len()].copy_from_slice(tail);
        block[tail.len()] = 0x80;
        if tail.len() >= BLOCK_LEN - 8 {
            self.compress(&mut state, std::slice::from_ref(&block));
            block = [0u8; BLOCK_LEN];
        }
        block[BLOCK_LEN - 8..].copy_from_slice(&total_len.wrapping_mul(8).to_be_bytes());
        self.compress(&mut state, std::slice::from_ref(&block));
        state_digest(&state)
    }
}

/// Name of the compression backend this process hashes with — `"sha-ni"`
/// or `"portable"` — for stamping into results files.
pub fn backend() -> &'static str {
    Backend::active().name()
}

/// Serializes a chaining state as the big-endian digest.
fn state_digest(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; DIGEST_LEN];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    Digest(out)
}

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use pba_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), Sha256::digest(b"abc"));
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Sha256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sha256")
            .field("total_len", &self.total_len)
            .finish_non_exhaustive()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; BLOCK_LEN],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// One-shot convenience: hash `data` and return the digest.
    ///
    /// Skips the streaming buffer: whole blocks are compressed in place and
    /// the tail is padded on the stack, so an input of at most 55 bytes is
    /// one padded block and one compression.
    pub fn digest(data: &[u8]) -> Digest {
        Backend::active().digest(data)
    }

    /// Feeds more data into the hasher.
    pub fn update(&mut self, mut data: &[u8]) {
        let backend = Backend::active();
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < BLOCK_LEN {
                return;
            }
            backend.compress(&mut self.state, std::slice::from_ref(&self.buf));
            self.buf_len = 0;
        }
        let (blocks, tail) = data.as_chunks::<BLOCK_LEN>();
        backend.compress(&mut self.state, blocks);
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Completes the hash and returns the digest, consuming the hasher.
    pub fn finalize(self) -> Digest {
        Backend::active().finish(self.state, &self.buf[..self.buf_len], self.total_len)
    }
}

/// The portable scalar compression function (FIPS 180-4 §6.2.2).
fn compress_scalar(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

// ---------------------------------------------------------------------------
// Multi-lane batched engine
// ---------------------------------------------------------------------------

/// Number of independent messages the batched engine compresses per group.
///
/// Eight `u32` lanes advanced in lockstep fill one 256-bit vector register
/// per working variable, so on the portable core the compiler can turn every
/// round statement into a single SIMD instruction (two on 128-bit-only
/// targets); the SHA-NI core splits the same group into interleaved
/// sub-batches. The value is a tuning constant, not a correctness parameter:
/// every batch API accepts any input count and hashes ragged tails one at a
/// time.
pub const LANES: usize = 8;

/// Digests the batch APIs produced in full groups of [`LANES`]
/// (process-wide, monotone; see [`engine_stats`]).
static LANE_DIGESTS: AtomicU64 = AtomicU64::new(0);
/// Digests the batch APIs hashed one at a time (ragged run tails and
/// sub-[`LANES`] batches).
static SCALAR_DIGESTS: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the batch engine's dispatch counters: how many digests the
/// batch APIs computed in full groups of [`LANES`] versus one at a time. The
/// split depends on batch shapes only, not on the [`Backend`] that ran.
///
/// Counters are process-wide and monotone (`Relaxed` atomics: each is an
/// independent event count that publishes no other memory), so concurrent
/// hashing from worker threads is counted without synchronization; a
/// snapshot is two independent loads, exact only while no worker is
/// hashing. Measure a workload by diffing two snapshots with
/// [`EngineStats::since`]; *lane occupancy* is the fraction of batched
/// digests that took the group path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Digests computed through [`Backend::compress_group`] (counted in
    /// groups of [`LANES`]).
    pub lane_digests: u64,
    /// Digests computed one at a time inside a batch call.
    pub scalar_digests: u64,
}

impl EngineStats {
    /// Total digests the batch APIs produced.
    pub fn total(&self) -> u64 {
        self.lane_digests + self.scalar_digests
    }

    /// Fraction of batched digests that took the lane path (0.0 when no
    /// batched digests were produced).
    pub fn occupancy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.lane_digests as f64 / total as f64
        }
    }

    /// Counter deltas relative to an `earlier` snapshot.
    pub fn since(&self, earlier: &EngineStats) -> EngineStats {
        EngineStats {
            lane_digests: self.lane_digests - earlier.lane_digests,
            scalar_digests: self.scalar_digests - earlier.scalar_digests,
        }
    }
}

/// Current process-wide batch-engine dispatch counters.
pub fn engine_stats() -> EngineStats {
    EngineStats {
        lane_digests: LANE_DIGESTS.load(Ordering::Relaxed),
        scalar_digests: SCALAR_DIGESTS.load(Ordering::Relaxed),
    }
}

/// A message presented to the lane engine as up to three concatenated
/// segments (`prefix ‖ a ‖ b`), viewed through its FIPS 180-4 padding.
///
/// Keeping segments separate lets callers batch domain-prefixed hashes
/// (Merkle leaves/nodes, PRG counter blocks) without concatenating into
/// per-message buffers first.
#[derive(Clone, Copy)]
struct View<'a> {
    segs: [&'a [u8]; 3],
}

impl<'a> View<'a> {
    fn new(segs: [&'a [u8]; 3]) -> Self {
        View { segs }
    }

    /// Total message length in bytes (before padding).
    fn len(&self) -> usize {
        self.segs.iter().map(|s| s.len()).sum()
    }

    /// Number of 64-byte blocks in the padded message.
    fn nblocks(&self) -> usize {
        (self.len() + 9).div_ceil(BLOCK_LEN)
    }

    /// Materializes the `b`-th padded block (data, then `0x80`, zeros, and —
    /// in the final block — the big-endian bit length).
    fn fill_block(&self, b: usize, out: &mut [u8; BLOCK_LEN]) {
        out.fill(0);
        let start = b * BLOCK_LEN;
        let mut off = 0;
        for seg in self.segs {
            let lo = start.max(off);
            let hi = (start + BLOCK_LEN).min(off + seg.len());
            if lo < hi {
                out[lo - start..hi - start].copy_from_slice(&seg[lo - off..hi - off]);
            }
            off += seg.len();
        }
        if (start..start + BLOCK_LEN).contains(&off) {
            out[off - start] = 0x80;
        }
        if b + 1 == self.nblocks() {
            let bits = (off as u64).wrapping_mul(8);
            out[BLOCK_LEN - 8..].copy_from_slice(&bits.to_be_bytes());
        }
    }

    /// Digest of the viewed message alone, one padded block at a time
    /// through the single-stream core.
    fn single_digest(&self, backend: Backend) -> Digest {
        let mut state = H0;
        let mut block = [0u8; BLOCK_LEN];
        for b in 0..self.nblocks() {
            self.fill_block(b, &mut block);
            backend.compress(&mut state, std::slice::from_ref(&block));
        }
        state_digest(&state)
    }
}

/// The portable 8-lane core: compresses one block into each of the `LANES`
/// states, in lockstep.
///
/// The structure-of-arrays layout (`state[var][lane]`, `w[round][lane]`)
/// keeps every statement an elementwise loop over the lane dimension, which
/// is exactly the shape LLVM's loop vectorizer turns into packed `u32`
/// arithmetic. The scalar semantics of each lane are literally those of
/// [`compress_scalar`]'s loop, so its output is bit-identical to the scalar
/// core by construction.
// Out of line on purpose: inlined into `Backend::compress_group` next to
// the layout transposes, the vectorizer gives up on the round loops
// (242 ns/digest against 68–86 measured through `batch_digest`).
#[inline(never)]
fn compress_lanes(state: &mut [[u32; LANES]; 8], blocks: &[[u8; BLOCK_LEN]; LANES]) {
    let mut w = [[0u32; LANES]; 64];
    for t in 0..16 {
        for l in 0..LANES {
            w[t][l] = u32::from_be_bytes([
                blocks[l][t * 4],
                blocks[l][t * 4 + 1],
                blocks[l][t * 4 + 2],
                blocks[l][t * 4 + 3],
            ]);
        }
    }
    for i in 16..64 {
        let (w15, w2, w16, w7) = (w[i - 15], w[i - 2], w[i - 16], w[i - 7]);
        let wi = &mut w[i];
        for l in 0..LANES {
            let s0 = w15[l].rotate_right(7) ^ w15[l].rotate_right(18) ^ (w15[l] >> 3);
            let s1 = w2[l].rotate_right(17) ^ w2[l].rotate_right(19) ^ (w2[l] >> 10);
            wi[l] = w16[l].wrapping_add(s0).wrapping_add(w7[l]).wrapping_add(s1);
        }
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let mut t1 = [0u32; LANES];
        let mut t2 = [0u32; LANES];
        for l in 0..LANES {
            let s1 = e[l].rotate_right(6) ^ e[l].rotate_right(11) ^ e[l].rotate_right(25);
            let ch = (e[l] & f[l]) ^ (!e[l] & g[l]);
            t1[l] = h[l]
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i][l]);
            let s0 = a[l].rotate_right(2) ^ a[l].rotate_right(13) ^ a[l].rotate_right(22);
            let maj = (a[l] & b[l]) ^ (a[l] & c[l]) ^ (b[l] & c[l]);
            t2[l] = s0.wrapping_add(maj);
        }
        h = g;
        g = f;
        f = e;
        for l in 0..LANES {
            e[l] = d[l].wrapping_add(t1[l]);
        }
        d = c;
        c = b;
        b = a;
        for l in 0..LANES {
            a[l] = t1[l].wrapping_add(t2[l]);
        }
    }
    let upd = [a, b, c, d, e, f, g, h];
    for k in 0..8 {
        for l in 0..LANES {
            state[k][l] = state[k][l].wrapping_add(upd[k][l]);
        }
    }
}

/// Runs `LANES` equal-block-count views through the group core, scattering
/// the digests to `out[indices[l]]`.
fn digest_lane_group(
    backend: Backend,
    views: &[View<'_>; LANES],
    indices: &[usize; LANES],
    out: &mut [Digest],
) {
    LANE_DIGESTS.fetch_add(LANES as u64, Ordering::Relaxed);
    let nblocks = views[0].nblocks();
    debug_assert!(views.iter().all(|v| v.nblocks() == nblocks));
    let mut states = [H0; LANES];
    let mut blocks = [[0u8; BLOCK_LEN]; LANES];
    for b in 0..nblocks {
        for l in 0..LANES {
            views[l].fill_block(b, &mut blocks[l]);
        }
        backend.compress_group(&mut states, &blocks);
    }
    for l in 0..LANES {
        out[indices[l]] = state_digest(&states[l]);
    }
}

/// Digests a batch of views, preserving input order in the output.
///
/// Views are grouped by padded block count (lockstep lanes must compress
/// the same number of blocks); full groups of [`LANES`] run through
/// [`Backend::compress_group`], every leftover runs alone through
/// [`Backend::compress`] — so ragged batches are handled without
/// dummy-lane waste and the result is bit-identical to per-input
/// [`Sha256::digest`] in all cases.
fn batch_views(backend: Backend, views: &[View<'_>]) -> Vec<Digest> {
    let mut out = vec![Digest::ZERO; views.len()];
    if views.len() < LANES {
        SCALAR_DIGESTS.fetch_add(views.len() as u64, Ordering::Relaxed);
        for (o, v) in out.iter_mut().zip(views) {
            *o = v.single_digest(backend);
        }
        return out;
    }
    let mut order: Vec<usize> = (0..views.len()).collect();
    order.sort_by_key(|&i| views[i].nblocks());
    let mut run_start = 0;
    while run_start < order.len() {
        let nb = views[order[run_start]].nblocks();
        let mut run_end = run_start + 1;
        while run_end < order.len() && views[order[run_end]].nblocks() == nb {
            run_end += 1;
        }
        let run = &order[run_start..run_end];
        let mut chunks = run.chunks_exact(LANES);
        for chunk in &mut chunks {
            let indices: [usize; LANES] = chunk.try_into().expect("exact chunk");
            let group: [View<'_>; LANES] = std::array::from_fn(|l| views[indices[l]]);
            digest_lane_group(backend, &group, &indices, &mut out);
        }
        let tail = chunks.remainder();
        SCALAR_DIGESTS.fetch_add(tail.len() as u64, Ordering::Relaxed);
        for &i in tail {
            out[i] = views[i].single_digest(backend);
        }
        run_start = run_end;
    }
    out
}

/// Hashes many independent inputs through the multi-lane engine.
///
/// Output `i` is bit-identical to `Sha256::digest(inputs[i])` for every
/// batch shape — empty inputs, padding-boundary lengths, and batches
/// smaller than [`LANES`] included (those are hashed one at a time).
///
/// # Examples
///
/// ```
/// use pba_crypto::sha256::{batch_digest, Sha256};
///
/// let inputs: Vec<&[u8]> = vec![b"a", b"bc", b""];
/// let digests = batch_digest(&inputs);
/// assert_eq!(digests[1], Sha256::digest(b"bc"));
/// ```
pub fn batch_digest(inputs: &[&[u8]]) -> Vec<Digest> {
    Backend::active().batch_digest(inputs)
}

/// Hashes `prefix ‖ input` for each input, batched. Used for domain-prefixed
/// hashing (Merkle leaves, PRG counter blocks) without concatenating into
/// per-message buffers.
///
/// Output `i` equals `Sha256::digest(prefix ‖ inputs[i])`.
pub fn batch_digest_prefixed(prefix: &[u8], inputs: &[&[u8]]) -> Vec<Digest> {
    let views: Vec<View<'_>> = inputs.iter().map(|i| View::new([prefix, i, &[]])).collect();
    batch_views(Backend::active(), &views)
}

/// The fixed-input fast path: digests of `prefix ‖ a ‖ b` for digest pairs —
/// the 65-byte Merkle-node shape. Every message is exactly two padded blocks
/// with a precomputed padding schedule (the second block carries one data
/// byte, the `0x80` marker, and the constant 520-bit length), so no
/// streaming buffer or per-message length bookkeeping is involved.
///
/// Output `i` equals `Sha256::digest([prefix] ‖ pairs[i].0 ‖ pairs[i].1)`.
pub fn batch_digest_pairs(prefix: u8, pairs: &[(Digest, Digest)]) -> Vec<Digest> {
    let backend = Backend::active();
    let mut out = vec![Digest::ZERO; pairs.len()];
    let scalar_pair = |(a, b): &(Digest, Digest)| {
        let mut h = Sha256::new();
        h.update(&[prefix]);
        h.update(a.as_bytes());
        h.update(b.as_bytes());
        h.finalize()
    };
    let mut chunks = pairs.chunks_exact(LANES);
    let mut base = 0;
    for chunk in &mut chunks {
        LANE_DIGESTS.fetch_add(LANES as u64, Ordering::Relaxed);
        let mut states = [H0; LANES];
        // Block 0: prefix byte, the full left digest, 31 bytes of the right.
        let mut blocks = [[0u8; BLOCK_LEN]; LANES];
        for (l, (a, b)) in chunk.iter().enumerate() {
            blocks[l][0] = prefix;
            blocks[l][1..33].copy_from_slice(a.as_bytes());
            blocks[l][33..64].copy_from_slice(&b.as_bytes()[..31]);
        }
        backend.compress_group(&mut states, &blocks);
        // Block 1: last right byte, 0x80, zeros, 520-bit length. Constant
        // except for the first byte.
        let mut pad = [0u8; BLOCK_LEN];
        pad[1] = 0x80;
        pad[BLOCK_LEN - 8..].copy_from_slice(&(65u64 * 8).to_be_bytes());
        let mut blocks = [pad; LANES];
        for (l, (_, b)) in chunk.iter().enumerate() {
            blocks[l][0] = b.as_bytes()[31];
        }
        backend.compress_group(&mut states, &blocks);
        for (o, state) in out[base..base + LANES].iter_mut().zip(&states) {
            *o = state_digest(state);
        }
        base += LANES;
    }
    let tail = chunks.remainder();
    SCALAR_DIGESTS.fetch_add(tail.len() as u64, Ordering::Relaxed);
    for (o, pair) in out[base..].iter_mut().zip(tail) {
        *o = scalar_pair(pair);
    }
    out
}

/// Length of the tweak [`batch_digest_tweaked_in_place`] prepends.
pub const TWEAK_LEN: usize = 2;

/// The one-block hash-chain fast path: replaces every `values[i]` with
/// `SHA256(tweak(i) ‖ values[i])`, in place and without allocating.
///
/// Every message is `TWEAK_LEN + 32 = 34` bytes, so it pads to exactly one
/// block with a constant length field; full groups of [`LANES`] go through
/// [`Backend::compress_group`], the ragged tail through
/// [`Backend::compress`]. This is the Winternitz chain step
/// ([`crate::wots`]): callers advance many chains in lockstep, one call per
/// step, reusing their buffers across steps.
///
/// Output `i` equals `Sha256::digest(tweak(i) ‖ values[i])`.
pub fn batch_digest_tweaked_in_place(
    values: &mut [[u8; DIGEST_LEN]],
    tweak: impl Fn(usize) -> [u8; TWEAK_LEN],
) {
    const MSG_LEN: usize = TWEAK_LEN + DIGEST_LEN;
    let backend = Backend::active();
    let mut template = [0u8; BLOCK_LEN];
    template[MSG_LEN] = 0x80;
    template[BLOCK_LEN - 8..].copy_from_slice(&(MSG_LEN as u64 * 8).to_be_bytes());
    let block_of = |i: usize, value: &[u8; DIGEST_LEN]| {
        let mut block = template;
        block[..TWEAK_LEN].copy_from_slice(&tweak(i));
        block[TWEAK_LEN..MSG_LEN].copy_from_slice(value);
        block
    };
    let mut chunks = values.chunks_exact_mut(LANES);
    let mut base = 0;
    for chunk in &mut chunks {
        let mut states = [H0; LANES];
        let blocks: [[u8; BLOCK_LEN]; LANES] =
            std::array::from_fn(|l| block_of(base + l, &chunk[l]));
        backend.compress_group(&mut states, &blocks);
        for (value, state) in chunk.iter_mut().zip(&states) {
            *value = state_digest(state).into_bytes();
        }
        base += LANES;
    }
    let tail = chunks.into_remainder();
    // One counter update per call, not per group: a chain walk makes
    // many small calls.
    if base > 0 {
        LANE_DIGESTS.fetch_add(base as u64, Ordering::Relaxed);
    }
    if !tail.is_empty() {
        SCALAR_DIGESTS.fetch_add(tail.len() as u64, Ordering::Relaxed);
    }
    for (l, value) in tail.iter_mut().enumerate() {
        let mut state = H0;
        backend.compress(&mut state, &[block_of(base + l, value)]);
        *value = state_digest(&state).into_bytes();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // NIST FIPS 180-4 / standard test vectors.
    const VECTORS: &[(&[u8], &str)] = &[
        (
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        ),
    ];

    /// Every core this host can run. On a CPU without the SHA extensions
    /// the SHA-NI arm says so instead of passing silently.
    fn cores() -> Vec<Backend> {
        let mut cores = vec![Backend::PORTABLE];
        match Backend::sha_ni() {
            Some(sha_ni) => cores.push(sha_ni),
            None => eprintln!("note: no SHA extensions on this CPU; sha-ni core not exercised"),
        }
        cores
    }

    #[test]
    fn nist_vectors() {
        for (input, expected) in VECTORS {
            assert_eq!(Sha256::digest(input).to_hex(), *expected);
            for core in cores() {
                assert_eq!(core.digest(input).to_hex(), *expected, "{}", core.name());
                // The same vector eight times over goes through the group
                // core (portable lanes / SHA-NI interleaved).
                for d in core.batch_digest(&[*input; LANES]) {
                    assert_eq!(d.to_hex(), *expected, "{} group", core.name());
                }
            }
        }
    }

    #[test]
    fn million_a() {
        const EXPECTED: &str = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
        let mut h = Sha256::new();
        for _ in 0..1000 {
            h.update(&[b'a'; 1000]);
        }
        assert_eq!(h.finalize().to_hex(), EXPECTED);
        let message = vec![b'a'; 1_000_000];
        for core in cores() {
            assert_eq!(core.digest(&message).to_hex(), EXPECTED, "{}", core.name());
        }
    }

    #[test]
    fn backend_name_reports_sha_ni_exactly_when_detected() {
        let expected = if Backend::sha_ni().is_some() {
            "sha-ni"
        } else {
            "portable"
        };
        assert_eq!(backend(), expected);
    }

    #[test]
    fn incremental_equals_oneshot_at_block_boundaries() {
        let data: Vec<u8> = (0..257u32).map(|i| i as u8).collect();
        for split in [0, 1, 55, 56, 63, 64, 65, 127, 128, 200, 256, 257] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split={split}");
        }
    }

    #[test]
    fn three_way_split_incremental() {
        let data = vec![0xabu8; 300];
        let mut h = Sha256::new();
        h.update(&data[..10]);
        h.update(&data[10..150]);
        h.update(&data[150..]);
        assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn digest_hex_roundtrip() {
        let d = Sha256::digest(b"roundtrip");
        assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
        assert_eq!(Digest::from_hex("zz"), None);
        assert_eq!(Digest::from_hex(&"0".repeat(63)), None);
    }

    #[test]
    fn digest_xor_properties() {
        let a = Sha256::digest(b"a");
        let b = Sha256::digest(b"b");
        assert_eq!(a.xor(&b), b.xor(&a));
        assert_eq!(a.xor(&a), Digest::ZERO);
        assert_eq!(a.xor(&Digest::ZERO), a);
    }

    #[test]
    fn prefix_u64_is_big_endian() {
        let mut bytes = [0u8; 32];
        bytes[7] = 1;
        assert_eq!(Digest(bytes).prefix_u64(), 1);
        bytes[0] = 1;
        assert_eq!(Digest(bytes).prefix_u64(), (1u64 << 56) | 1);
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        // Smoke test, not a collision search.
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000u32 {
            assert!(seen.insert(Sha256::digest(&i.to_le_bytes())));
        }
    }

    #[test]
    fn batch_digest_matches_scalar_on_uniform_batches() {
        for len in [0usize, 1, 31, 32, 55, 56, 63, 64, 65, 127, 128, 300] {
            let msgs: Vec<Vec<u8>> = (0..2 * LANES + 3)
                .map(|i| (0..len).map(|j| (i * 31 + j) as u8).collect())
                .collect();
            let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
            let batched = batch_digest(&refs);
            for (i, m) in msgs.iter().enumerate() {
                assert_eq!(batched[i], Sha256::digest(m), "len={len} i={i}");
            }
        }
    }

    #[test]
    fn batch_digest_matches_scalar_on_ragged_batches() {
        // Lengths straddling every padding boundary, shuffled together so
        // the engine has to group by block count and scalar-fallback tails.
        let lens = [
            0usize, 55, 56, 63, 64, 65, 119, 120, 128, 7, 200, 55, 64, 1, 2, 3, 65,
        ];
        let msgs: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| (0..len).map(|j| (i * 17 + j * 3) as u8).collect())
            .collect();
        let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
        let batched = batch_digest(&refs);
        for (i, m) in msgs.iter().enumerate() {
            assert_eq!(batched[i], Sha256::digest(m), "i={i}");
        }
    }

    #[test]
    fn batch_smaller_than_lane_width_uses_scalar_reference() {
        for count in 0..LANES {
            let msgs: Vec<Vec<u8>> = (0..count).map(|i| vec![i as u8; i * 13]).collect();
            let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
            let batched = batch_digest(&refs);
            assert_eq!(batched.len(), count);
            for (i, m) in msgs.iter().enumerate() {
                assert_eq!(batched[i], Sha256::digest(m));
            }
        }
    }

    #[test]
    fn batch_digest_prefixed_matches_concatenation() {
        let prefix = [0x42u8, 0x99];
        let msgs: Vec<Vec<u8>> = (0..LANES + 2).map(|i| vec![i as u8; 5 + i * 9]).collect();
        let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
        let batched = batch_digest_prefixed(&prefix, &refs);
        for (i, m) in msgs.iter().enumerate() {
            let mut concat = prefix.to_vec();
            concat.extend_from_slice(m);
            assert_eq!(batched[i], Sha256::digest(&concat), "i={i}");
        }
    }

    #[test]
    fn engine_stats_count_lane_and_scalar_dispatch() {
        // Counters are process-wide and monotone; concurrent tests can only
        // add, so assert lower bounds on the deltas.
        let msgs: Vec<Vec<u8>> = (0..LANES + 3).map(|i| vec![i as u8; 20]).collect();
        let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
        let before = engine_stats();
        let _ = batch_digest(&refs);
        let delta = engine_stats().since(&before);
        assert!(delta.lane_digests >= LANES as u64, "{delta:?}");
        assert!(delta.scalar_digests >= 3, "{delta:?}");
        assert!(delta.occupancy() > 0.0 && delta.occupancy() < 1.0);
        assert_eq!(EngineStats::default().occupancy(), 0.0);
    }

    #[test]
    fn batch_digest_pairs_matches_streaming() {
        let pairs: Vec<(Digest, Digest)> = (0..2 * LANES + 5)
            .map(|i| {
                (
                    Sha256::digest(&(i as u64).to_le_bytes()),
                    Sha256::digest(&(i as u64 + 1000).to_le_bytes()),
                )
            })
            .collect();
        for prefix in [0x00u8, 0x01, 0xff] {
            let batched = batch_digest_pairs(prefix, &pairs);
            for (i, (a, b)) in pairs.iter().enumerate() {
                let mut h = Sha256::new();
                h.update(&[prefix]);
                h.update(a.as_bytes());
                h.update(b.as_bytes());
                assert_eq!(batched[i], h.finalize(), "prefix={prefix} i={i}");
            }
        }
    }

    #[test]
    fn batch_digest_tweaked_in_place_matches_streaming() {
        // Below, at and above one lane group, so both paths run.
        for count in [0usize, 1, LANES - 1, LANES, 2 * LANES + 3] {
            let mut values: Vec<[u8; DIGEST_LEN]> = (0..count)
                .map(|i| Sha256::digest(&(i as u64).to_le_bytes()).into_bytes())
                .collect();
            let before = values.clone();
            let tweak = |i: usize| [i as u8, 0xc0 ^ i as u8];
            batch_digest_tweaked_in_place(&mut values, tweak);
            for (i, (after, value)) in values.iter().zip(&before).enumerate() {
                let mut h = Sha256::new();
                h.update(&tweak(i));
                h.update(value);
                assert_eq!(*after, h.finalize().into_bytes(), "count={count} i={i}");
            }
        }
    }
}
