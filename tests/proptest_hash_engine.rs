//! Property-based scalar-equivalence tests for the multi-lane batched
//! SHA-256 engine (ISSUE 5): over arbitrary batch shapes, every batched
//! API must produce output bit-identical to the scalar streaming core it
//! replaces — that identity is what keeps transcript digests, golden
//! chaos verdicts, and cert-cache keys unchanged.
//!
//! The same identity is checked across compression backends (ISSUE 16):
//! the portable scalar and 8-lane cores are the oracle, and on a CPU with
//! the SHA extensions the SHA-NI single-stream and interleaved cores must
//! agree with them bit for bit, on raw compressions and on whole messages.

use pba_crypto::merkle::{hash_leaf, hash_leaf_batch, hash_node, hash_node_batch, MerkleTree};
use pba_crypto::prg::Prg;
use pba_crypto::sha256::{
    batch_digest, batch_digest_prefixed, Backend, Digest, Sha256, BLOCK_LEN, LANES,
};
use proptest::prelude::*;
use rand::RngCore;

/// The SHA-NI backend, or `None` with a note (printed once per test binary)
/// on a CPU without the extension — so a run there visibly skipped the
/// SHA-NI arms instead of passing them silently.
fn sha_ni_or_note() -> Option<Backend> {
    static NOTE: std::sync::Once = std::sync::Once::new();
    let sha_ni = Backend::sha_ni();
    if sha_ni.is_none() {
        NOTE.call_once(|| {
            eprintln!(
                "note: no SHA extensions on this CPU; SHA-NI arms skipped, portable cores only"
            );
        });
    }
    sha_ni
}

/// One batch hashed every way this host can: portable scalar, portable
/// lanes, and — where available — SHA-NI single-stream and SHA-NI
/// interleaved. The first entry is the oracle.
fn every_way(inputs: &[&[u8]]) -> Vec<(&'static str, Vec<Digest>)> {
    let one_by_one = |core: Backend| inputs.iter().map(|i| core.digest(i)).collect();
    let mut ways = vec![
        ("portable scalar", one_by_one(Backend::PORTABLE)),
        ("portable lanes", Backend::PORTABLE.batch_digest(inputs)),
    ];
    if let Some(sha_ni) = sha_ni_or_note() {
        ways.push(("sha-ni single", one_by_one(sha_ni)));
        ways.push(("sha-ni interleaved", sha_ni.batch_digest(inputs)));
    }
    ways
}

fn words(bytes: &[u8]) -> [u32; 8] {
    std::array::from_fn(|k| u32::from_le_bytes(bytes[4 * k..4 * k + 4].try_into().unwrap()))
}

/// Arbitrary ragged batches: between 0 and 3× the lane width inputs, each
/// up to a few blocks long so single-block, boundary, and multi-block
/// schedules all appear.
fn ragged_batches() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..200),
        0..(3 * LANES),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn batch_digest_equals_scalar_on_ragged_batches(inputs in ragged_batches()) {
        let refs: Vec<&[u8]> = inputs.iter().map(|v| v.as_slice()).collect();
        let batched = batch_digest(&refs);
        let scalar: Vec<Digest> = refs.iter().map(|i| Sha256::digest(i)).collect();
        prop_assert_eq!(batched, scalar);
    }

    #[test]
    fn batch_digest_equals_scalar_on_uniform_batches(
        len in 0usize..300,
        count in 0usize..(2 * LANES + 1),
        byte in any::<u8>(),
    ) {
        // Uniform lengths exercise the full-lane-group path (all inputs
        // share one padded block count), including the 55/56/64/65-byte
        // padding boundaries when `len` lands there.
        let inputs: Vec<Vec<u8>> = (0..count)
            .map(|i| vec![byte.wrapping_add(i as u8); len])
            .collect();
        let refs: Vec<&[u8]> = inputs.iter().map(|v| v.as_slice()).collect();
        let batched = batch_digest(&refs);
        let scalar: Vec<Digest> = refs.iter().map(|i| Sha256::digest(i)).collect();
        prop_assert_eq!(batched, scalar);
    }

    #[test]
    fn padding_boundaries_survive_batching(byte in any::<u8>()) {
        // One input at every FIPS 180-4 boundary length, hashed as one
        // ragged batch: empty, one-below/at/above the 55-byte single-block
        // padding limit, and the 64/65-byte block edges.
        let inputs: Vec<Vec<u8>> = [0usize, 1, 54, 55, 56, 63, 64, 65, 119, 120, 128]
            .iter()
            .map(|&len| vec![byte; len])
            .collect();
        let refs: Vec<&[u8]> = inputs.iter().map(|v| v.as_slice()).collect();
        let batched = batch_digest(&refs);
        let scalar: Vec<Digest> = refs.iter().map(|i| Sha256::digest(i)).collect();
        prop_assert_eq!(batched, scalar);
    }

    #[test]
    fn single_stream_cores_agree_on_random_state_and_blocks(
        state in any::<[u8; 32]>(),
        blocks in proptest::collection::vec(any::<[u8; BLOCK_LEN]>(), 1..5),
    ) {
        // An arbitrary chaining state, not just the IV: mid-message states
        // are what multi-block hashing feeds back in.
        let mut expected = words(&state);
        Backend::PORTABLE.compress(&mut expected, &blocks);
        // A run of blocks is the same as the blocks one call at a time.
        let mut stepped = words(&state);
        for block in &blocks {
            Backend::PORTABLE.compress(&mut stepped, std::slice::from_ref(block));
        }
        prop_assert_eq!(stepped, expected);
        if let Some(sha_ni) = sha_ni_or_note() {
            let mut got = words(&state);
            sha_ni.compress(&mut got, &blocks);
            prop_assert_eq!(got, expected);
        }
    }

    #[test]
    fn group_cores_agree_with_single_stream_on_random_states(
        states in any::<[u8; 32 * LANES]>(),
        blocks in any::<[u8; BLOCK_LEN * LANES]>(),
    ) {
        let states: [[u32; 8]; LANES] = std::array::from_fn(|l| words(&states[32 * l..]));
        let blocks: [[u8; BLOCK_LEN]; LANES] =
            std::array::from_fn(|l| blocks[BLOCK_LEN * l..][..BLOCK_LEN].try_into().unwrap());
        let mut expected = states;
        for (state, block) in expected.iter_mut().zip(&blocks) {
            Backend::PORTABLE.compress(state, std::slice::from_ref(block));
        }
        let mut lanes = states;
        Backend::PORTABLE.compress_group(&mut lanes, &blocks);
        prop_assert_eq!(lanes, expected);
        if let Some(sha_ni) = sha_ni_or_note() {
            let mut single = states;
            for (state, block) in single.iter_mut().zip(&blocks) {
                sha_ni.compress(state, std::slice::from_ref(block));
            }
            prop_assert_eq!(single, expected);
            let mut interleaved = states;
            sha_ni.compress_group(&mut interleaved, &blocks);
            prop_assert_eq!(interleaved, expected);
        }
    }

    #[test]
    fn multi_block_boundaries_agree_every_way(whole_blocks in 0usize..4, byte in any::<u8>()) {
        // 55/56 is where the length field stops fitting the last block,
        // 64/65 where the data itself spills — after 0 to 3 whole blocks.
        // Nine messages per length: one full group plus a one-at-a-time tail.
        for edge in [0usize, 1, 54, 55, 56, 57, 63, 64, 65] {
            let len = whole_blocks * BLOCK_LEN + edge;
            let inputs: Vec<Vec<u8>> = (0..=LANES)
                .map(|i| (0..len).map(|j| byte.wrapping_add((i * 31 + j) as u8)).collect())
                .collect();
            let refs: Vec<&[u8]> = inputs.iter().map(|v| v.as_slice()).collect();
            let ways = every_way(&refs);
            for (name, digests) in &ways[1..] {
                prop_assert_eq!(digests, &ways[0].1, "{} at len {}", name, len);
            }
            prop_assert_eq!(&batch_digest(&refs), &ways[0].1);
        }
    }

    #[test]
    fn ragged_batches_agree_every_way(inputs in ragged_batches()) {
        let refs: Vec<&[u8]> = inputs.iter().map(|v| v.as_slice()).collect();
        let ways = every_way(&refs);
        for (name, digests) in &ways[1..] {
            prop_assert_eq!(digests, &ways[0].1, "{}", name);
        }
    }

    #[test]
    fn prefixed_batches_equal_concatenated_scalar(
        prefix in proptest::collection::vec(any::<u8>(), 0..70),
        inputs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..100), 0..(2 * LANES)),
    ) {
        let refs: Vec<&[u8]> = inputs.iter().map(|v| v.as_slice()).collect();
        let batched = batch_digest_prefixed(&prefix, &refs);
        let scalar: Vec<Digest> = refs
            .iter()
            .map(|body| {
                let mut h = Sha256::new();
                h.update(&prefix);
                h.update(body);
                h.finalize()
            })
            .collect();
        prop_assert_eq!(batched, scalar);
    }

    #[test]
    fn batched_merkle_build_equals_scalar_roots(leaf_count in 1usize..=257) {
        let digests: Vec<Digest> = (0..leaf_count as u64)
            .map(|i| Sha256::digest(&i.to_le_bytes()))
            .collect();
        let batched = MerkleTree::from_leaf_digests(digests.clone());
        let scalar = MerkleTree::from_leaf_digests_scalar(digests);
        prop_assert_eq!(batched.root(), scalar.root());
        // Proofs from either tree verify against the other's root.
        let idx = leaf_count / 2;
        prop_assert_eq!(batched.prove(idx), scalar.prove(idx));
    }

    #[test]
    fn batched_leaf_and_node_hashing_equal_scalar(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..60), 1..20)
    ) {
        let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
        let leaves = hash_leaf_batch(&refs);
        let scalar_leaves: Vec<Digest> = refs.iter().map(|p| hash_leaf(p)).collect();
        prop_assert_eq!(&leaves, &scalar_leaves);

        let pairs: Vec<(Digest, Digest)> = leaves
            .iter()
            .zip(leaves.iter().rev())
            .map(|(a, b)| (*a, *b))
            .collect();
        let nodes = hash_node_batch(&pairs);
        let scalar_nodes: Vec<Digest> = pairs.iter().map(|(a, b)| hash_node(a, b)).collect();
        prop_assert_eq!(nodes, scalar_nodes);
    }

    #[test]
    fn prg_bulk_expansion_equals_scalar(
        seed in any::<[u8; 16]>(),
        skew in 0usize..40,
        len in 0usize..2000,
    ) {
        let mut bulk = Prg::from_seed_bytes(&seed);
        let mut scalar = Prg::from_seed_bytes(&seed);
        let mut pre = vec![0u8; skew];
        bulk.fill_bytes(&mut pre);
        scalar.fill_bytes_scalar(&mut pre);
        let mut a = vec![0u8; len];
        let mut b = vec![0u8; len];
        bulk.fill_bytes(&mut a);
        scalar.fill_bytes_scalar(&mut b);
        prop_assert_eq!(a, b);
        // Post-call states agree: the next draw is identical.
        prop_assert_eq!(bulk.next_u64(), scalar.next_u64());
    }
}
