//! Merkle hash trees with inclusion proofs.
//!
//! Used by the Merkle signature scheme ([`crate::mss`]) to certify many
//! W-OTS one-time keys under one verification root, and by the SNARK-based
//! SRDS to commit succinctly to sets of contributed signatures.
//!
//! Leaves and internal nodes are domain-separated (`0x00` / `0x01` prefixes)
//! to rule out second-preimage splicing between levels.
//!
//! # Examples
//!
//! ```
//! use pba_crypto::merkle::MerkleTree;
//!
//! let leaves: Vec<&[u8]> = vec![b"a", b"b", b"c"];
//! let tree = MerkleTree::from_leaves(leaves.iter());
//! let proof = tree.prove(1);
//! assert!(proof.verify(&tree.root(), b"b"));
//! assert!(!proof.verify(&tree.root(), b"x"));
//! ```

use crate::sha256::{batch_digest_pairs, batch_digest_prefixed, Digest, Sha256};

const LEAF_PREFIX: u8 = 0x00;
const NODE_PREFIX: u8 = 0x01;

// Residue of the deleted proof memo: `benchmark/src/trace.rs` — a frozen
// consumer, the one caller — still reads this signature. Removal is
// ROADMAP item 9.
#[doc(hidden)]
pub fn proof_cache_stats() -> (u64, u64) {
    (0, 0)
}

/// Hashes a leaf payload with the leaf domain prefix.
pub fn hash_leaf(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(&[LEAF_PREFIX]);
    h.update(data);
    h.finalize()
}

/// Hashes two child digests into a parent with the node domain prefix.
pub fn hash_node(left: &Digest, right: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(&[NODE_PREFIX]);
    h.update(left.as_bytes());
    h.update(right.as_bytes());
    h.finalize()
}

/// Hashes many leaf payloads through the multi-lane engine.
///
/// Bit-identical to mapping [`hash_leaf`] over `data` (the engine's lanes
/// run the same compression function in lockstep; ragged or sub-lane-width
/// batches fall back to the scalar core).
pub fn hash_leaf_batch(data: &[&[u8]]) -> Vec<Digest> {
    batch_digest_prefixed(&[LEAF_PREFIX], data)
}

/// Hashes many `(left, right)` child pairs into parents through the
/// multi-lane engine's fixed-shape two-block fast path.
///
/// Bit-identical to mapping [`hash_node`] over `pairs`.
pub fn hash_node_batch(pairs: &[(Digest, Digest)]) -> Vec<Digest> {
    batch_digest_pairs(NODE_PREFIX, pairs)
}

/// A complete Merkle tree over a list of byte-string leaves.
///
/// Odd levels are padded by duplicating the last digest, so any positive
/// number of leaves is supported.
#[derive(Clone, Debug)]
pub struct MerkleTree {
    // levels[0] = leaf digests, levels.last() = [root]
    levels: Vec<Vec<Digest>>,
}

impl MerkleTree {
    /// Builds a tree from an iterator of leaf payloads.
    ///
    /// Leaf hashing goes through the multi-lane engine ([`hash_leaf_batch`]);
    /// the resulting digests — and hence the root — are identical to hashing
    /// each leaf with [`hash_leaf`].
    ///
    /// # Panics
    ///
    /// Panics if the iterator is empty.
    pub fn from_leaves<I, T>(leaves: I) -> Self
    where
        I: IntoIterator<Item = T>,
        T: AsRef<[u8]>,
    {
        let payloads: Vec<T> = leaves.into_iter().collect();
        let refs: Vec<&[u8]> = payloads.iter().map(|l| l.as_ref()).collect();
        Self::from_leaf_digests(hash_leaf_batch(&refs))
    }

    /// Builds a tree from pre-hashed leaf digests.
    ///
    /// Each level is hashed with one [`hash_node_batch`] call, so the
    /// engine compresses up to [`crate::sha256::LANES`] parent nodes per
    /// pass. The levels are bit-identical to
    /// [`MerkleTree::from_leaf_digests_scalar`].
    ///
    /// # Panics
    ///
    /// Panics if `digests` is empty.
    pub fn from_leaf_digests(digests: Vec<Digest>) -> Self {
        assert!(!digests.is_empty(), "merkle tree needs at least one leaf");
        let mut levels = vec![digests];
        while levels.last().expect("nonempty").len() > 1 {
            let prev = levels.last().expect("nonempty");
            let pairs: Vec<(Digest, Digest)> = prev
                .chunks(2)
                .map(|pair| (pair[0], *pair.get(1).unwrap_or(&pair[0])))
                .collect();
            levels.push(hash_node_batch(&pairs));
        }
        MerkleTree { levels }
    }

    /// The scalar reference build: one streaming [`hash_node`] per parent.
    ///
    /// Kept as the equivalence baseline for the batched
    /// [`MerkleTree::from_leaf_digests`]; property tests assert the two
    /// produce identical levels for all shapes, and the `hash_engine`
    /// bench times them against each other.
    pub fn from_leaf_digests_scalar(digests: Vec<Digest>) -> Self {
        assert!(!digests.is_empty(), "merkle tree needs at least one leaf");
        let mut levels = vec![digests];
        while levels.last().expect("nonempty").len() > 1 {
            let prev = levels.last().expect("nonempty");
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            for pair in prev.chunks(2) {
                let left = &pair[0];
                let right = pair.get(1).unwrap_or(left);
                next.push(hash_node(left, right));
            }
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// The Merkle root.
    pub fn root(&self) -> Digest {
        self.levels.last().expect("nonempty")[0]
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.levels[0].len()
    }

    /// Returns true if the tree has exactly one (trivial) leaf level entry.
    pub fn is_empty(&self) -> bool {
        false // construction forbids empty trees
    }

    /// Digest of the `index`-th leaf.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn leaf(&self, index: usize) -> Digest {
        self.levels[0][index]
    }

    /// Produces an inclusion proof for the `index`-th leaf.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn prove(&self, index: usize) -> MerkleProof {
        assert!(index < self.len(), "leaf index {index} out of bounds");
        let mut path = Vec::with_capacity(self.levels.len().saturating_sub(1));
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling_idx = idx ^ 1;
            let sibling = *level.get(sibling_idx).unwrap_or(&level[idx]);
            path.push(sibling);
            idx >>= 1;
        }
        MerkleProof {
            leaf_index: index as u64,
            path,
        }
    }
}

/// An inclusion proof: the sibling path from a leaf to the root.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleProof {
    leaf_index: u64,
    path: Vec<Digest>,
}

impl MerkleProof {
    /// Creates a proof from raw parts (used by codecs).
    pub fn from_parts(leaf_index: u64, path: Vec<Digest>) -> Self {
        MerkleProof { leaf_index, path }
    }

    /// The index of the proven leaf.
    pub fn leaf_index(&self) -> u64 {
        self.leaf_index
    }

    /// The sibling digests, leaf level first.
    pub fn path(&self) -> &[Digest] {
        &self.path
    }

    /// Size of the proof in bytes on the wire (index + varint-length-prefixed
    /// path digests).
    pub fn encoded_len(&self) -> usize {
        8 + crate::codec::varint_len(self.path.len() as u64) + self.path.len() * 32
    }

    /// Verifies the proof for a raw leaf payload against `root`.
    pub fn verify(&self, root: &Digest, leaf_data: &[u8]) -> bool {
        self.verify_leaf_digest(root, &hash_leaf(leaf_data))
    }

    /// Verifies the proof for a pre-hashed leaf digest against `root`.
    pub fn verify_leaf_digest(&self, root: &Digest, leaf: &Digest) -> bool {
        let mut acc = *leaf;
        let mut idx = self.leaf_index;
        for sibling in &self.path {
            acc = if idx & 1 == 0 {
                hash_node(&acc, sibling)
            } else {
                hash_node(sibling, &acc)
            };
            idx >>= 1;
        }
        acc == *root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("leaf-{i}").into_bytes()).collect()
    }

    #[test]
    fn single_leaf_tree() {
        let tree = MerkleTree::from_leaves([b"only"]);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.root(), hash_leaf(b"only"));
        let proof = tree.prove(0);
        assert!(proof.verify(&tree.root(), b"only"));
        assert_eq!(proof.path().len(), 0);
    }

    #[test]
    fn all_proofs_verify_various_sizes() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33] {
            let ls = leaves(n);
            let tree = MerkleTree::from_leaves(ls.iter());
            for (i, l) in ls.iter().enumerate() {
                let p = tree.prove(i);
                assert!(p.verify(&tree.root(), l), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn wrong_leaf_rejected() {
        let ls = leaves(8);
        let tree = MerkleTree::from_leaves(ls.iter());
        let p = tree.prove(3);
        assert!(!p.verify(&tree.root(), b"not-the-leaf"));
    }

    #[test]
    fn wrong_index_rejected() {
        let ls = leaves(8);
        let tree = MerkleTree::from_leaves(ls.iter());
        let mut p = tree.prove(3);
        p.leaf_index = 4;
        assert!(!p.verify(&tree.root(), &ls[3]));
    }

    #[test]
    fn wrong_root_rejected() {
        let ls = leaves(8);
        let tree = MerkleTree::from_leaves(ls.iter());
        let p = tree.prove(0);
        let other = MerkleTree::from_leaves(leaves(9).iter()).root();
        assert!(!p.verify(&other, &ls[0]));
    }

    #[test]
    fn leaf_node_domain_separation() {
        // A leaf whose payload mimics an internal-node encoding must not
        // collide with that node.
        let a = hash_leaf(b"x");
        let b = hash_leaf(b"y");
        let node = hash_node(&a, &b);
        let mut forged = Vec::new();
        forged.extend_from_slice(a.as_bytes());
        forged.extend_from_slice(b.as_bytes());
        assert_ne!(hash_leaf(&forged), node);
    }

    #[test]
    fn root_changes_with_any_leaf() {
        let ls = leaves(10);
        let base = MerkleTree::from_leaves(ls.iter()).root();
        for i in 0..10 {
            let mut modified = ls.clone();
            modified[i].push(b'!');
            assert_ne!(MerkleTree::from_leaves(modified.iter()).root(), base);
        }
    }

    #[test]
    #[should_panic(expected = "at least one leaf")]
    fn empty_tree_panics() {
        MerkleTree::from_leaves(Vec::<Vec<u8>>::new());
    }

    #[test]
    fn proof_encoded_len() {
        let tree = MerkleTree::from_leaves(leaves(16).iter());
        let p = tree.prove(5);
        assert_eq!(p.encoded_len(), 8 + 1 + 4 * 32);
    }

    #[test]
    fn batched_build_matches_scalar_reference() {
        for n in [1usize, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33, 64, 100] {
            let digests: Vec<Digest> = (0..n)
                .map(|i| hash_leaf(format!("leaf-{i}").as_bytes()))
                .collect();
            let batched = MerkleTree::from_leaf_digests(digests.clone());
            let scalar = MerkleTree::from_leaf_digests_scalar(digests);
            assert_eq!(batched.levels, scalar.levels, "levels diverged at n={n}");
        }
    }

    #[test]
    fn batched_leaf_hashing_matches_scalar() {
        let ls = leaves(37);
        let refs: Vec<&[u8]> = ls.iter().map(|l| l.as_slice()).collect();
        let batched = hash_leaf_batch(&refs);
        let scalar: Vec<Digest> = ls.iter().map(|l| hash_leaf(l)).collect();
        assert_eq!(batched, scalar);
    }

    #[test]
    fn batched_node_hashing_matches_scalar() {
        let base: Vec<Digest> = (0..21).map(|i| hash_leaf(&[i as u8])).collect();
        let pairs: Vec<(Digest, Digest)> = base.windows(2).map(|w| (w[0], w[1])).collect();
        let batched = hash_node_batch(&pairs);
        let scalar: Vec<Digest> = pairs.iter().map(|(a, b)| hash_node(a, b)).collect();
        assert_eq!(batched, scalar);
    }

    #[test]
    fn clone_proves_what_the_tree_proves() {
        let ls = leaves(13);
        let tree = MerkleTree::from_leaves(ls.iter());
        let clone = tree.clone();
        for (i, l) in ls.iter().enumerate() {
            let proof = tree.prove(i);
            assert_eq!(proof, clone.prove(i), "i={i}");
            assert_eq!(proof, tree.prove(i), "i={i}");
            assert!(proof.verify(&clone.root(), l), "i={i}");
        }
    }
}
