//! SHA-256 compression on the x86 SHA extensions (`sha256rnds2`,
//! `sha256msg1`, `sha256msg2`) — the only module in the workspace that
//! contains `unsafe`.
//!
//! The module's one invariant is carried by a type: a [`ShaNi`] value exists
//! only if [`ShaNi::detect`] saw the CPU report every target feature the
//! kernel below is compiled with. The kernel is reachable only through
//! methods on that value, so safe code cannot execute an instruction the
//! CPU lacks. The other `unsafe` blocks are unaligned 16-byte loads and
//! stores through references to fixed-size arrays.
//!
//! One kernel serves both shapes the seam needs. [`compress_streams`] runs
//! `W` independent chaining states over `W` equally long runs of blocks:
//! `W = 1` is the streaming core (state stays in registers across the whole
//! run), `W = `[`INTERLEAVE`] with one block per stream is the lane engine's
//! group. Interleaving is what the batch path is for: one message's 32
//! `sha256rnds2` form a single dependency chain (each needs the previous
//! one's output), so a lone stream leaves the SHA unit idle for most of
//! every instruction's latency, and independent streams fill those slots.

use super::{BLOCK_LEN, K, LANES};
use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
    _mm_setzero_si128, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
    _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
};

/// Independent messages per kernel call on the batch path.
///
/// Picked by measurement on the benchmark host (Xeon @ 2.10 GHz, `sha_ni`):
/// one block into each of eight states, the four widths alternated in one
/// process, best of 3000 rounds, ns per block — W = 1 → 34.9, W = 2 → 33.6,
/// W = 4 → 34.0, W = 8 → 35.0, the same to ±0.1 on five runs. This CPU's
/// SHA unit is throughput-bound (a lone dependent chain already runs at
/// 35 ns per block), so interleaving buys 4 %, not the 30 % it buys where
/// `sha256rnds2` latency is several times its issue rate. Two streams keep
/// that 4 %, cover a latency of twice the issue rate elsewhere, and their
/// twelve live vectors fit the sixteen `xmm` registers; W = 8 spills.
const INTERLEAVE: usize = 2;
const _: () = assert!(LANES.is_multiple_of(INTERLEAVE));

/// Proof that this CPU executes the SHA-NI kernel. Constructed only by
/// [`ShaNi::detect`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct ShaNi(());

impl ShaNi {
    /// `Some` iff the CPU reports every feature [`compress_streams`] enables.
    pub(super) fn detect() -> Option<ShaNi> {
        let supported = is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1");
        supported.then_some(ShaNi(()))
    }

    /// Compresses a run of consecutive blocks into one chaining state.
    pub(super) fn compress(self, state: &mut [u32; 8], blocks: &[[u8; BLOCK_LEN]]) {
        // SAFETY: `self` exists, so `detect` saw sha, sse2, ssse3 and sse4.1.
        unsafe { compress_streams::<1>(std::array::from_mut(state), [blocks]) }
    }

    /// Compresses one block into each of `LANES` independent states,
    /// [`INTERLEAVE`] at a time.
    pub(super) fn compress_group(
        self,
        states: &mut [[u32; 8]; LANES],
        blocks: &[[u8; BLOCK_LEN]; LANES],
    ) {
        let (states, _) = states.as_chunks_mut::<INTERLEAVE>();
        let (blocks, _) = blocks.as_chunks::<INTERLEAVE>();
        for (states, blocks) in states.iter_mut().zip(blocks) {
            let streams = std::array::from_fn(|j| std::slice::from_ref(&blocks[j]));
            // SAFETY: `self` exists, so `detect` saw sha, sse2, ssse3 and sse4.1.
            unsafe { compress_streams::<INTERLEAVE>(states, streams) }
        }
    }
}

#[inline(always)]
fn load_bytes(src: &[u8; 16]) -> __m128i {
    // SAFETY: `src` is 16 readable bytes and `_mm_loadu_si128` has no
    // alignment requirement; SSE2 is part of the x86-64 baseline.
    unsafe { _mm_loadu_si128(src.as_ptr().cast()) }
}

#[inline(always)]
fn load_words(src: &[u32; 4]) -> __m128i {
    // SAFETY: `src` is 16 readable bytes and `_mm_loadu_si128` has no
    // alignment requirement; SSE2 is part of the x86-64 baseline.
    unsafe { _mm_loadu_si128(src.as_ptr().cast()) }
}

#[inline(always)]
fn store_words(dst: &mut [u32; 4], v: __m128i) {
    // SAFETY: `dst` is 16 writable bytes and `_mm_storeu_si128` has no
    // alignment requirement; SSE2 is part of the x86-64 baseline.
    unsafe { _mm_storeu_si128(dst.as_mut_ptr().cast(), v) }
}

/// Runs `W` chaining states over `W` runs of blocks, round-interleaved.
///
/// `sha256rnds2` wants the state as `ABEF`/`CDGH` register pairs (A in the
/// top lane) and performs two rounds per issue, taking `W[t] + K[t]` for
/// those rounds from the low two lanes of its third operand; the schedule
/// words come four at a time from `sha256msg1`/`msg2` over a ring of the
/// last four message vectors. Word arithmetic is the FIPS 180-4 definition
/// executed by the hardware, so each stream's output is bit-identical to
/// the portable core's.
///
/// # Panics
///
/// Panics unless every stream has the same number of blocks.
#[allow(clippy::needless_range_loop)] // `j` and `b` index several per-stream arrays in step
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_streams<const W: usize>(states: &mut [[u32; 8]; W], blocks: [&[[u8; BLOCK_LEN]]; W]) {
    let nblocks = blocks[0].len();
    assert!(
        blocks.iter().all(|b| b.len() == nblocks),
        "interleaved streams must be equally long"
    );
    let (round_keys, _) = K.as_chunks::<4>();
    // Byte shuffle that turns four little-endian lane loads into the
    // big-endian message words FIPS 180-4 specifies.
    let big_endian = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    let mut abef = [_mm_setzero_si128(); W];
    let mut cdgh = [_mm_setzero_si128(); W];
    for j in 0..W {
        let (halves, _) = states[j].as_chunks::<4>();
        let cdab = _mm_shuffle_epi32::<0xB1>(load_words(&halves[0]));
        let efgh = _mm_shuffle_epi32::<0x1B>(load_words(&halves[1]));
        abef[j] = _mm_alignr_epi8::<8>(cdab, efgh);
        cdgh[j] = _mm_blend_epi16::<0xF0>(efgh, cdab);
    }

    for b in 0..nblocks {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let mut w = [[_mm_setzero_si128(); 4]; W];
        for j in 0..W {
            let (quarters, _) = blocks[j][b].as_chunks::<16>();
            for (word, quarter) in w[j].iter_mut().zip(quarters) {
                *word = _mm_shuffle_epi8(load_bytes(quarter), big_endian);
            }
        }

        // Rounds 4r .. 4r+3 of every stream. The literal `r` keeps every
        // index into the four-vector schedule ring a constant.
        macro_rules! four_rounds {
            ($($r:literal)*) => {$(
                let k = load_words(&round_keys[$r]);
                for j in 0..W {
                    if $r >= 4 {
                        let (w0, w1, w2, w3) = (
                            w[j][$r % 4],
                            w[j][($r + 1) % 4],
                            w[j][($r + 2) % 4],
                            w[j][($r + 3) % 4],
                        );
                        let partial = _mm_add_epi32(
                            _mm_sha256msg1_epu32(w0, w1),
                            _mm_alignr_epi8::<4>(w3, w2),
                        );
                        w[j][$r % 4] = _mm_sha256msg2_epu32(partial, w3);
                    }
                    let wk = _mm_add_epi32(w[j][$r % 4], k);
                    cdgh[j] = _mm_sha256rnds2_epu32(cdgh[j], abef[j], wk);
                    abef[j] =
                        _mm_sha256rnds2_epu32(abef[j], cdgh[j], _mm_shuffle_epi32::<0x0E>(wk));
                }
            )*};
        }
        four_rounds!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15);

        for j in 0..W {
            abef[j] = _mm_add_epi32(abef[j], abef_in[j]);
            cdgh[j] = _mm_add_epi32(cdgh[j], cdgh_in[j]);
        }
    }

    for j in 0..W {
        let (halves, _) = states[j].as_chunks_mut::<4>();
        let feba = _mm_shuffle_epi32::<0x1B>(abef[j]);
        let dchg = _mm_shuffle_epi32::<0xB1>(cdgh[j]);
        store_words(&mut halves[0], _mm_blend_epi16::<0xF0>(feba, dchg));
        store_words(&mut halves[1], _mm_alignr_epi8::<8>(dchg, feba));
    }
}
