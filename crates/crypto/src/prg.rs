//! A deterministic pseudorandom generator (SHA-256 in counter mode) that
//! implements [`rand::RngCore`], so every piece of protocol randomness in the
//! workspace can be derived reproducibly from a seed and a domain label.
//!
//! Determinism matters here twice over: the simulator must be replayable for
//! debugging, and the paper's trusted-setup phase ("public-coin sampling")
//! is modelled by seeding per-party PRGs from a master setup seed.
//!
//! # Examples
//!
//! ```
//! use pba_crypto::prg::Prg;
//! use rand::RngCore;
//!
//! let mut a = Prg::from_seed_label(b"seed", "setup");
//! let mut b = Prg::from_seed_label(b"seed", "setup");
//! assert_eq!(a.next_u64(), b.next_u64());
//!
//! let mut c = Prg::from_seed_label(b"seed", "other-domain");
//! assert_ne!(Prg::from_seed_label(b"seed", "setup").next_u64(), c.next_u64());
//! ```

use crate::sha256::{Digest, Sha256, DIGEST_LEN};
use rand::{CryptoRng, RngCore, SeedableRng};

/// SHA-256 counter-mode PRG.
///
/// The stream is `SHA256(key || ctr=0) || SHA256(key || ctr=1) || ...` where
/// `key` is itself a digest of the seed material. This is the classic
/// hash-based PRG; under the random-oracle heuristic for SHA-256 the output
/// is pseudorandom.
#[derive(Clone, Debug)]
pub struct Prg {
    key: Digest,
    counter: u64,
    buf: [u8; DIGEST_LEN],
    buf_pos: usize,
}

impl Prg {
    /// Creates a PRG from arbitrary seed bytes.
    pub fn from_seed_bytes(seed: &[u8]) -> Self {
        let mut h = Sha256::new();
        h.update(b"pba-prg-v1");
        h.update(seed);
        Prg {
            key: h.finalize(),
            counter: 0,
            buf: [0u8; DIGEST_LEN],
            buf_pos: DIGEST_LEN,
        }
    }

    /// Creates a PRG from seed bytes and a domain-separation label.
    ///
    /// Two PRGs with the same seed but different labels produce independent
    /// streams; this is how per-party / per-subprotocol randomness is split
    /// off a single master seed.
    pub fn from_seed_label(seed: &[u8], label: &str) -> Self {
        let mut h = Sha256::new();
        h.update(b"pba-prg-v1");
        h.update(&(label.len() as u64).to_le_bytes());
        h.update(label.as_bytes());
        h.update(seed);
        Prg {
            key: h.finalize(),
            counter: 0,
            buf: [0u8; DIGEST_LEN],
            buf_pos: DIGEST_LEN,
        }
    }

    /// Creates a PRG keyed by a digest (e.g. a coin-tossing output `s`).
    pub fn from_digest(d: &Digest) -> Self {
        Self::from_seed_bytes(d.as_bytes())
    }

    /// Derives a child PRG for subdomain `label` and index `index`.
    ///
    /// Children are independent of each other and of the parent stream.
    pub fn child(&self, label: &str, index: u64) -> Prg {
        let mut h = Sha256::new();
        h.update(b"pba-prg-child");
        h.update(self.key.as_bytes());
        h.update(&(label.len() as u64).to_le_bytes());
        h.update(label.as_bytes());
        h.update(&index.to_le_bytes());
        Prg {
            key: h.finalize(),
            counter: 0,
            buf: [0u8; DIGEST_LEN],
            buf_pos: DIGEST_LEN,
        }
    }

    fn refill(&mut self) {
        let mut h = Sha256::new();
        h.update(self.key.as_bytes());
        h.update(&self.counter.to_le_bytes());
        self.buf = h.finalize().into_bytes();
        self.counter += 1;
        self.buf_pos = 0;
    }

    /// The scalar reference expansion: byte-identical to [`RngCore::fill_bytes`]
    /// (which routes large requests through the multi-lane SHA-256 engine).
    /// Kept public so equivalence tests and the `hash_engine` bench can
    /// compare the two paths on the same stream position.
    pub fn fill_bytes_scalar(&mut self, dest: &mut [u8]) {
        let mut filled = 0;
        while filled < dest.len() {
            if self.buf_pos == DIGEST_LEN {
                self.refill();
            }
            let take = (DIGEST_LEN - self.buf_pos).min(dest.len() - filled);
            dest[filled..filled + take]
                .copy_from_slice(&self.buf[self.buf_pos..self.buf_pos + take]);
            self.buf_pos += take;
            filled += take;
        }
    }

    /// Advances the stream by `count` bytes without producing them:
    /// equivalent to drawing `count` bytes and discarding them, at the cost
    /// of at most one block. The stream is `SHA256(key ‖ ctr)`, so seeking
    /// is counter arithmetic — whole skipped blocks are never hashed.
    pub fn skip(&mut self, count: u64) {
        let buffered = (DIGEST_LEN - self.buf_pos) as u64;
        if count <= buffered {
            self.buf_pos += count as usize;
            return;
        }
        let past_buffer = count - buffered;
        self.counter += past_buffer / DIGEST_LEN as u64;
        self.buf_pos = DIGEST_LEN;
        let into_block = (past_buffer % DIGEST_LEN as u64) as usize;
        if into_block > 0 {
            self.refill();
            self.buf_pos = into_block;
        }
    }

    /// Returns a uniformly random value in `[0, bound)`.
    ///
    /// Uses rejection sampling to avoid modulo bias.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        if bound.is_power_of_two() {
            return self.next_u64() & (bound - 1);
        }
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Samples a Bernoulli trial that succeeds with probability `num/den`.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0` or `num > den`.
    pub fn gen_bool_ratio(&mut self, num: u64, den: u64) -> bool {
        assert!(den > 0 && num <= den, "invalid ratio {num}/{den}");
        self.gen_range(den) < num
    }

    /// Samples `k` distinct values from `[0, n)` (Floyd's algorithm).
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_distinct(&mut self, n: u64, k: usize) -> Vec<u64> {
        assert!((k as u64) <= n, "cannot sample {k} distinct from {n}");
        let mut chosen = std::collections::HashSet::with_capacity(k);
        let mut out = Vec::with_capacity(k);
        for j in (n - k as u64)..n {
            let t = self.gen_range(j + 1);
            let v = if chosen.contains(&t) { j } else { t };
            chosen.insert(v);
            out.push(v);
        }
        out
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.gen_range(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Returns a fresh 32-byte digest from the stream.
    pub fn next_digest(&mut self) -> Digest {
        let mut bytes = [0u8; DIGEST_LEN];
        self.fill_bytes(&mut bytes);
        Digest::new(bytes)
    }
}

impl RngCore for Prg {
    fn next_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.fill_bytes(&mut b);
        u32::from_le_bytes(b)
    }

    fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill_bytes(&mut b);
        u64::from_le_bytes(b)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        use crate::sha256::{batch_digest_prefixed, LANES};
        let mut filled = 0;
        // Drain the buffered tail of the previous counter block first, so
        // the stream position is block-aligned for the bulk path.
        if self.buf_pos < DIGEST_LEN && filled < dest.len() {
            let take = (DIGEST_LEN - self.buf_pos).min(dest.len() - filled);
            dest[filled..filled + take]
                .copy_from_slice(&self.buf[self.buf_pos..self.buf_pos + take]);
            self.buf_pos += take;
            filled += take;
        }
        // Bulk expansion: whole counter blocks are hashed [`LANES`] at a
        // time through the batched engine and written straight into `dest`
        // — the stream is `SHA256(key ‖ ctr_i)` concatenated either way,
        // so the bytes are identical to [`Prg::fill_bytes_scalar`].
        while dest.len() - filled >= DIGEST_LEN * LANES {
            let ctrs: [[u8; 8]; LANES] =
                std::array::from_fn(|i| (self.counter + i as u64).to_le_bytes());
            let bodies: [&[u8]; LANES] = std::array::from_fn(|i| &ctrs[i][..]);
            let digests = batch_digest_prefixed(self.key.as_bytes(), &bodies);
            for (i, d) in digests.iter().enumerate() {
                dest[filled + i * DIGEST_LEN..filled + (i + 1) * DIGEST_LEN]
                    .copy_from_slice(d.as_bytes());
            }
            self.counter += LANES as u64;
            filled += DIGEST_LEN * LANES;
        }
        self.fill_bytes_scalar(&mut dest[filled..]);
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl CryptoRng for Prg {}

impl SeedableRng for Prg {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        Prg::from_seed_bytes(&seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = Prg::from_seed_bytes(b"s");
        let mut b = Prg::from_seed_bytes(b"s");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn label_separation() {
        let mut a = Prg::from_seed_label(b"s", "x");
        let mut b = Prg::from_seed_label(b"s", "y");
        assert_ne!(a.next_digest(), b.next_digest());
    }

    #[test]
    fn child_independence() {
        let parent = Prg::from_seed_bytes(b"s");
        let mut c0 = parent.child("lbl", 0);
        let mut c1 = parent.child("lbl", 1);
        let mut c0b = parent.child("lbl", 0);
        assert_ne!(c0.next_u64(), c1.next_u64());
        let mut c0_again = parent.child("lbl", 0);
        assert_eq!(c0b.next_u64(), c0_again.next_u64());
    }

    #[test]
    fn fill_bytes_cross_boundary() {
        let mut a = Prg::from_seed_bytes(b"s");
        let mut b = Prg::from_seed_bytes(b"s");
        let mut big = [0u8; 100];
        a.fill_bytes(&mut big);
        let mut parts = [0u8; 100];
        b.fill_bytes(&mut parts[..33]);
        b.fill_bytes(&mut parts[33..70]);
        b.fill_bytes(&mut parts[70..]);
        assert_eq!(big, parts);
    }

    #[test]
    fn bulk_fill_matches_scalar_reference() {
        // Large requests take the multi-lane path; the emitted stream and the
        // post-call PRG state must both match the scalar reference exactly.
        for len in [0usize, 1, 31, 32, 255, 256, 257, 1024, 4096 + 7] {
            let mut bulk = Prg::from_seed_bytes(b"equiv");
            let mut scalar = Prg::from_seed_bytes(b"equiv");
            // Desynchronise the block boundary so the drain path is exercised.
            let mut skew = [0u8; 5];
            bulk.fill_bytes(&mut skew);
            scalar.fill_bytes_scalar(&mut skew);
            let mut a = vec![0u8; len];
            let mut b = vec![0u8; len];
            bulk.fill_bytes(&mut a);
            scalar.fill_bytes_scalar(&mut b);
            assert_eq!(a, b, "stream diverged at len={len}");
            // Follow-up draws must also agree (state equivalence).
            assert_eq!(
                bulk.next_u64(),
                scalar.next_u64(),
                "state diverged at len={len}"
            );
        }
    }

    #[test]
    fn gen_range_bounds() {
        let mut p = Prg::from_seed_bytes(b"r");
        for bound in [1u64, 2, 3, 7, 100, 1 << 33] {
            for _ in 0..50 {
                assert!(p.gen_range(bound) < bound);
            }
        }
    }

    #[test]
    fn gen_range_covers_small_domain() {
        let mut p = Prg::from_seed_bytes(b"c");
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[p.gen_range(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "gen_range bound must be positive")]
    fn gen_range_zero_panics() {
        Prg::from_seed_bytes(b"z").gen_range(0);
    }

    #[test]
    fn sample_distinct_properties() {
        let mut p = Prg::from_seed_bytes(b"d");
        let sample = p.sample_distinct(100, 30);
        assert_eq!(sample.len(), 30);
        let set: std::collections::HashSet<_> = sample.iter().collect();
        assert_eq!(set.len(), 30);
        assert!(sample.iter().all(|&v| v < 100));
        // Full sample is a permutation of the domain.
        let full = p.sample_distinct(10, 10);
        let mut sorted = full.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut p = Prg::from_seed_bytes(b"sh");
        let mut v: Vec<u32> = (0..50).collect();
        p.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn gen_bool_ratio_extremes() {
        let mut p = Prg::from_seed_bytes(b"b");
        for _ in 0..20 {
            assert!(p.gen_bool_ratio(1, 1));
            assert!(!p.gen_bool_ratio(0, 5));
        }
    }

    #[test]
    fn bernoulli_roughly_calibrated() {
        let mut p = Prg::from_seed_bytes(b"cal");
        let trials = 10_000;
        let hits = (0..trials).filter(|_| p.gen_bool_ratio(1, 4)).count();
        let frac = hits as f64 / trials as f64;
        assert!((frac - 0.25).abs() < 0.02, "frac={frac}");
    }
}
