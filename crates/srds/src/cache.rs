//! A verified-certificate cache for SRDS aggregation.
//!
//! During a `π_ba` session the *same* aggregation certificate is verified
//! many times: [`crate::snark::SnarkSrds`] re-checks every incoming
//! `Agg` certificate inside `Aggregate₁` at **every** tree level, and the
//! final root certificate is verified once per receiving party during the
//! PRF spread — Θ(n) verifications of byte-identical input. PCD
//! verification is deterministic for a fixed CRS, so its verdict can be
//! memoized: the cache maps a digest of (CRS id, statement, proof) to the
//! boolean verdict.
//!
//! The cache lives inside the scheme value (one per session in practice),
//! so neither verdicts nor the hit/miss counters ([`CertCache::stats`],
//! surfaced as `Srds::cache_stats`) leak across CRS instances.

use pba_crypto::sha256::Digest;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A snapshot of one cache's counters: hits and misses since construction,
/// plus the *warm* hits — hits on entries inserted in an **earlier
/// generation** than the one current at lookup time.
///
/// A BA service advances the generation at every instance boundary, so
/// `warm_hits` counts exactly the cross-instance reuse: verdicts cached by
/// a previous instance (e.g. the chained predecessor certificate) and
/// consumed by a later one. A cold single-shot run never advances the
/// generation, so its `warm_hits` is zero by construction even though
/// within-run memoization produces plenty of plain `hits`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that ran the verifier.
    pub misses: u64,
    /// Hits whose entry predates the current generation.
    pub warm_hits: u64,
}

/// Memoizes deterministic verification verdicts keyed by an input digest.
///
/// The caller is responsible for making the key collision-resistantly
/// cover *everything* the verdict depends on (for SNARK-SRDS: the CRS
/// public id, the full statement, and the proof bytes).
///
/// Each cache tracks its own [`CacheStats`] and a monotone *generation*:
/// entries remember the generation they were inserted in, and a hit on an
/// entry from an older generation counts as a warm (cross-generation) hit.
/// Callers that reuse one cache across protocol instances bump the
/// generation at each boundary via [`CertCache::advance_generation`].
#[derive(Debug, Default)]
pub struct CertCache {
    verdicts: Mutex<HashMap<Digest, (bool, u64)>>,
    generation: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    warm_hits: AtomicU64,
}

impl CertCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached verdicts.
    pub fn len(&self) -> usize {
        self.verdicts.lock().expect("cache poisoned").len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current generation (0 until the first
    /// [`CertCache::advance_generation`]).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Starts a new generation and returns its number. Entries inserted
    /// from now on are "fresh"; hits on older entries count as warm.
    pub fn advance_generation(&self) -> u64 {
        self.generation.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// This cache's counters. Same memory-ordering contract as the Merkle
    /// proof-cache counters (`pba_crypto::merkle`): relaxed, independently
    /// monotone event counts, not an atomic snapshot of the triple.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            warm_hits: self.warm_hits.load(Ordering::Relaxed),
        }
    }

    /// Returns the cached verdict for `key`, or runs `verify`, caches its
    /// verdict, and returns it.
    pub fn get_or_verify(&self, key: Digest, verify: impl FnOnce() -> bool) -> bool {
        let generation = self.generation.load(Ordering::Relaxed);
        if let Some(&(verdict, born)) = self.verdicts.lock().expect("cache poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            if born < generation {
                self.warm_hits.fetch_add(1, Ordering::Relaxed);
            }
            return verdict;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let verdict = verify();
        self.verdicts
            .lock()
            .expect("cache poisoned")
            .insert(key, (verdict, generation));
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_crypto::sha256::Sha256;

    #[test]
    fn caches_both_verdicts_and_counts() {
        let cache = CertCache::new();
        let yes = Sha256::digest(b"good");
        let no = Sha256::digest(b"bad");
        let mut calls = 0;

        assert!(cache.get_or_verify(yes, || {
            calls += 1;
            true
        }));
        assert!(!cache.get_or_verify(no, || {
            calls += 1;
            false
        }));
        assert_eq!(calls, 2);

        // Second lookups never re-run the verifier, for either verdict.
        assert!(cache.get_or_verify(yes, || unreachable!("cached")));
        assert!(!cache.get_or_verify(no, || unreachable!("cached")));
        assert_eq!(cache.len(), 2);

        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 2,
                misses: 2,
                warm_hits: 0
            }
        );
    }

    #[test]
    fn generations_distinguish_warm_hits() {
        let cache = CertCache::new();
        let old = Sha256::digest(b"old-entry");
        let fresh = Sha256::digest(b"fresh-entry");

        assert!(cache.get_or_verify(old, || true)); // miss, generation 0
        assert!(cache.get_or_verify(old, || unreachable!())); // same-generation hit
        assert_eq!(cache.stats().warm_hits, 0);

        assert_eq!(cache.advance_generation(), 1);
        assert!(cache.get_or_verify(fresh, || true)); // miss, generation 1
        assert!(cache.get_or_verify(fresh, || unreachable!())); // same-generation hit
        assert_eq!(cache.stats().warm_hits, 0);

        // Only the hit on the generation-0 entry is warm.
        assert!(cache.get_or_verify(old, || unreachable!()));
        let stats = cache.stats();
        assert_eq!(stats.warm_hits, 1);
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 2);
    }
}
