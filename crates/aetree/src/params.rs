//! Tree parameters: the polylog constants of Definitions 2.3 and 3.4.
//!
//! The paper's constants (`log n` branching, `log³n` committees, `log⁵n`
//! parties per leaf, `z = O(log⁴n)` leaf memberships) only separate
//! asymptotically at astronomically large `n` — `log₂⁵(4096) ≈ 248k > n`.
//! As any implementation of this protocol family must, we expose the
//! constants as parameters:
//!
//! * [`TreeParams::scaled`] — defaults usable at simulation scale, chosen so
//!   every *structural* invariant of Def. 2.3/3.4 holds exactly; committee
//!   honest majority holds at `β ≈ 0.1` (its doc gives the failure rates);
//! * [`TreeParams::paper_exact`] — the literal log-power constants, used by
//!   structural property tests.

/// Parameters of an almost-everywhere communication tree.
///
/// Level numbering follows the implementation convention: level `0` holds
/// the leaf nodes (the paper's level 1), level `height − 1` is the root.
/// The paper's "level 0" (the parties themselves) is represented by the
/// virtual-slot assignment, not by tree nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TreeParams {
    /// Number of real parties `n`.
    pub n: usize,
    /// Leaf memberships per party (`z` in Def. 3.4; `1` recovers Def. 2.3).
    pub z: usize,
    /// Children per internal node (the paper's `log n`).
    pub branching: usize,
    /// Parties per internal-node committee (the paper's `log³ n`).
    pub committee_size: usize,
    /// Virtual slots (= assigned parties) per leaf (the paper's `log⁵ n`).
    pub leaf_slots: usize,
    /// Number of leaf nodes (the paper's `n / log⁵ n`), a power of
    /// `branching`.
    pub leaf_count: usize,
    /// Number of node levels including leaves and root:
    /// `branching^(height−1) = leaf_count`.
    pub height: usize,
}

fn log2_ceil(n: usize) -> usize {
    (usize::BITS - n.saturating_sub(1).leading_zeros()) as usize
}

impl TreeParams {
    /// Scaled-down defaults for simulation-size `n` with `z` leaf
    /// memberships per party.
    ///
    /// Committee sizes grow as `Θ(log n)`: `|C| = 3·⌈log₂ n⌉`. That is
    /// sized for a random corruption of `β ≈ 0.1`, not for every `β < 1/3`.
    /// The binomial tail of a bad supreme committee (`≥ ⌈|C|/3⌉` corrupt):
    ///
    /// | n | \|C\| | β = 0.1 | β = 0.2 | β = 0.25 |
    /// |---|---|---|---|---|
    /// | 2^10 | 30 | 4.5·10⁻⁴ | 0.061 | 0.20 |
    /// | 2^20 | 60 | 7.8·10⁻⁷ | 0.011 | 0.092 |
    ///
    /// So at `β = 0.1` the root is bad in well under one run in a thousand.
    /// At `β = 0.2` it is bad in one run in 16 (2^10) to one in 94 (2^20),
    /// and at `β = 0.25` in one in 5 to one in 11. Sizing committees from a
    /// failure budget is ROADMAP item 5.
    ///
    /// # Panics
    ///
    /// Panics if `n < 4` or `z == 0`.
    pub fn scaled(n: usize, z: usize) -> Self {
        assert!(n >= 4, "need at least 4 parties, got {n}");
        assert!(z >= 1, "z must be positive");
        let logn = log2_ceil(n).max(2);
        // Binary branching keeps leaf committees within 2x of the target;
        // a larger arity would let power-of-b quantization inflate them by
        // up to b x (and the step-5b exchange is quadratic in leaf size).
        // Heights stay O(log n).
        let branching = 2;
        let committee_size = (3 * logn).min(n);
        // Aim for leaf committees comparable to internal committees.
        let leaf_target = committee_size.max(4);
        let total_slots = n * z;
        // Smallest power of `branching` with per-leaf slots <= leaf_target.
        let mut leaf_count = 1usize;
        while total_slots.div_ceil(leaf_count) > leaf_target {
            leaf_count *= branching;
        }
        let leaf_slots = total_slots.div_ceil(leaf_count);
        let height = {
            let mut h = 1;
            let mut c = 1;
            while c < leaf_count {
                c *= branching;
                h += 1;
            }
            h
        };
        TreeParams {
            n,
            z,
            branching,
            committee_size,
            leaf_slots,
            leaf_count,
            height,
        }
    }

    /// The paper's literal constants: branching `⌈log₂n⌉`, committees
    /// `⌈log₂³n⌉`, leaf slots `⌈log₂⁵n⌉`, `z = ⌈log₂⁴n⌉`.
    ///
    /// At simulation scales these degenerate (one or two tree levels, leaf
    /// committees larger than `n`); they exist so property tests can check
    /// the structural invariants under the exact parameterization.
    ///
    /// # Panics
    ///
    /// Panics if `n < 4`.
    pub fn paper_exact(n: usize) -> Self {
        assert!(n >= 4, "need at least 4 parties, got {n}");
        let logn = log2_ceil(n).max(2);
        let branching = logn;
        let committee_size = logn.pow(3).min(n * logn.pow(4));
        let z = logn.pow(4);
        let leaf_slots_target = logn.pow(5);
        let total_slots = n * z;
        let mut leaf_count = 1usize;
        while leaf_count * branching * leaf_slots_target <= total_slots {
            leaf_count *= branching;
        }
        let leaf_slots = total_slots.div_ceil(leaf_count);
        let mut height = 1;
        let mut c = 1;
        while c < leaf_count {
            c *= branching;
            height += 1;
        }
        TreeParams {
            n,
            z,
            branching,
            committee_size,
            leaf_slots,
            leaf_count,
            height,
        }
    }

    /// Total virtual slots `leaf_count · leaf_slots` (≥ `n · z`; the excess
    /// is padded round-robin).
    pub fn total_slots(&self) -> usize {
        self.leaf_count * self.leaf_slots
    }

    /// Parameters for the SRDS security experiments (Figures 1–2), where
    /// every tree slot *is* an SRDS party laid out in identity order:
    /// `n = total_slots`, `z = 1`, shape taken from [`TreeParams::scaled`]
    /// at the requested size.
    pub fn for_slots(n_requested: usize) -> Self {
        let base = Self::scaled(n_requested, 1);
        TreeParams {
            n: base.total_slots(),
            z: 1,
            ..base
        }
    }

    /// Number of nodes at a level (level 0 = leaves).
    ///
    /// # Panics
    ///
    /// Panics if `level >= height`.
    pub fn nodes_at_level(&self, level: usize) -> usize {
        assert!(level < self.height, "level {level} out of range");
        let mut count = self.leaf_count;
        for _ in 0..level {
            count /= self.branching;
        }
        count
    }

    /// Validates internal consistency (power-of-branching leaf count, slot
    /// coverage, etc.).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.branching < 2 {
            return Err(format!("branching {} < 2", self.branching));
        }
        let expected_leaves = self.branching.pow(self.height as u32 - 1);
        if expected_leaves != self.leaf_count {
            return Err(format!(
                "leaf_count {} != branching^(height-1) = {expected_leaves}",
                self.leaf_count
            ));
        }
        if self.total_slots() < self.n * self.z {
            return Err(format!(
                "total slots {} cannot host {} parties x {} memberships",
                self.total_slots(),
                self.n,
                self.z
            ));
        }
        if self.committee_size == 0 || self.leaf_slots == 0 {
            return Err("empty committees".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_params_valid_across_sizes() {
        for n in [4usize, 8, 16, 64, 100, 256, 1000, 1024, 4096, 10_000, 16384] {
            for z in [1usize, 3, 8] {
                let p = TreeParams::scaled(n, z);
                p.validate().unwrap_or_else(|e| panic!("n={n} z={z}: {e}"));
                assert!(p.total_slots() >= n * z);
                assert_eq!(p.nodes_at_level(p.height - 1), 1, "single root");
            }
        }
    }

    #[test]
    fn paper_exact_params_valid() {
        for n in [16usize, 64, 256] {
            let p = TreeParams::paper_exact(n);
            p.validate().unwrap_or_else(|e| panic!("n={n}: {e}"));
            let logn = log2_ceil(n);
            assert_eq!(p.branching, logn);
            assert_eq!(p.z, logn.pow(4));
        }
    }

    #[test]
    fn committee_sizes_are_polylog() {
        // committee_size / log2(n) bounded by a constant across a sweep.
        for n in [64usize, 256, 1024, 4096, 16384] {
            let p = TreeParams::scaled(n, 1);
            let logn = log2_ceil(n) as f64;
            assert!((p.committee_size as f64) <= 3.0 * logn + 1.0);
            assert!((p.branching as f64) <= logn);
        }
    }

    #[test]
    fn nodes_at_level_partition() {
        let p = TreeParams::scaled(1024, 4);
        let mut total = 0;
        for level in 0..p.height {
            total += p.nodes_at_level(level);
        }
        // Geometric series: strictly fewer than 2x leaves.
        assert!(total < 2 * p.leaf_count + p.height);
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn tiny_n_panics() {
        TreeParams::scaled(3, 1);
    }

    #[test]
    fn log2_ceil_values() {
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(4), 2);
        assert_eq!(log2_ceil(5), 3);
        assert_eq!(log2_ceil(1024), 10);
        assert_eq!(log2_ceil(1025), 11);
    }
}
