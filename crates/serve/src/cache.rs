//! Shard-local factor cache with ABFT-verified reads.
//!
//! Entries are keyed by the problem digest ([`crate::jobs::problem_digest`])
//! and carry a Huang–Abraham GF(2) checksum taken at insert time.  Every
//! read re-verifies the entry against that checksum: a single flipped
//! element (cosmic-ray at rest, or a chaos-plan injection) is healed
//! bit-exactly; multi-element corruption is detected, the entry evicted,
//! and the read reported as a miss — a corrupted cache can cost a
//! refactorization but can never serve wrong bits.
//!
//! An entry holds everything a hit answers with, so serving one
//! materialises nothing: the factor, its `lower_digest`, and the
//! problem's right-hand side.  The key determines the problem, so the
//! right-hand side is as much a function of the key as the factor is.
//! The stored digest stays valid because the only writes to a cached
//! factor are the flips applied in [`FactorCache::read`], and a struck
//! read either evicts the entry or heals it and digests it again.
//!
//! The cache is owned by its shard's worker thread (requests for a key
//! always land on the same shard), so it needs no locking and its state
//! evolves deterministically with the shard's request sequence.

use cholcomm_matrix::{lower_digest, strike, Matrix, TileChecksum, TileHealth};
use std::collections::HashMap;
use std::collections::VecDeque;

/// One cached factor and what is served with it.
struct Entry {
    factor: Matrix<f64>,
    checksum: TileChecksum,
    lower_digest: u64,
    /// The problem's right-hand side (inner `None` for kinds without
    /// one).  Outer `None` until first use for an entry adopted from the
    /// durable journal, which records factors only.
    rhs: Option<Option<Vec<f64>>>,
}

/// What a servable read answers with, borrowed from the entry.
#[derive(Debug, Clone, Copy)]
pub struct Served<'a> {
    /// The cached factor.
    pub factor: &'a Matrix<f64>,
    /// `lower_digest` of the factor.
    pub lower_digest: u64,
    /// The problem's right-hand side, when its kind has one.
    pub rhs: Option<&'a [f64]>,
}

/// What a verified cache read found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheRead {
    /// No entry for this key.
    Miss,
    /// Entry present and checksum-clean.
    Hit,
    /// Entry had a single corrupted element; healed bit-exactly, served.
    Healed,
    /// Entry was corrupted beyond repair; evicted, treated as a miss.
    Corrupt,
}

/// Counters the shard folds into the service metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Clean hits served.
    pub hits: u64,
    /// Misses (no entry).
    pub misses: u64,
    /// Hits that needed (and got) single-element healing.
    pub healed: u64,
    /// Entries dropped as unrecoverably corrupt.
    pub corrupt_evictions: u64,
    /// Entries dropped by capacity (LRU).
    pub capacity_evictions: u64,
}

/// A bounded LRU map from problem digest to ABFT-guarded factor.
pub struct FactorCache {
    entries: HashMap<u64, Entry>,
    order: VecDeque<u64>,
    capacity: usize,
    stats: CacheStats,
}

impl FactorCache {
    /// Cache holding at most `capacity` factors (0 disables caching).
    pub fn new(capacity: usize) -> FactorCache {
        FactorCache {
            entries: HashMap::new(),
            order: VecDeque::new(),
            capacity,
            stats: CacheStats::default(),
        }
    }

    /// Insert (or refresh) the factor for `key` with its `lower_digest`
    /// and the problem's right-hand side, snapshotting its checksum.
    /// Evicts the least-recently-used entry when full.
    pub fn insert(
        &mut self,
        key: u64,
        factor: Matrix<f64>,
        lower_digest: u64,
        rhs: Option<Vec<f64>>,
    ) {
        self.store(key, factor, lower_digest, Some(rhs));
    }

    /// Insert a factor adopted from the durable journal with its
    /// `lower_digest`; its right-hand side is left for the first
    /// [`FactorCache::served`].
    pub fn insert_recovered(&mut self, key: u64, factor: Matrix<f64>, lower_digest: u64) {
        self.store(key, factor, lower_digest, None);
    }

    fn store(
        &mut self,
        key: u64,
        factor: Matrix<f64>,
        lower_digest: u64,
        rhs: Option<Option<Vec<f64>>>,
    ) {
        if self.capacity == 0 {
            return;
        }
        if self.entries.contains_key(&key) {
            self.order.retain(|&k| k != key);
        } else if self.entries.len() >= self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.entries.remove(&old);
                self.stats.capacity_evictions += 1;
            }
        }
        let checksum = TileChecksum::of(&factor);
        self.entries.insert(
            key,
            Entry {
                factor,
                checksum,
                lower_digest,
                rhs,
            },
        );
        self.order.push_back(key);
    }

    /// Look up `key`, after applying `flips` (the chaos plan's at-rest
    /// corruptions for this read) to the stored bits, and verify against
    /// the insert-time checksum.  After a `Hit` or `Healed` outcome the
    /// (possibly healed) entry is served by [`FactorCache::served`].
    pub fn read(&mut self, key: u64, flips: &[((usize, usize), u64)]) -> CacheRead {
        let Some(entry) = self.entries.get_mut(&key) else {
            self.stats.misses += 1;
            return CacheRead::Miss;
        };
        match strike(&mut entry.factor, &entry.checksum, flips) {
            TileHealth::Clean => {
                self.touch(key);
                self.stats.hits += 1;
                CacheRead::Hit
            }
            TileHealth::Corrected { .. } => {
                entry.lower_digest = lower_digest(&entry.factor);
                self.touch(key);
                self.stats.healed += 1;
                CacheRead::Healed
            }
            TileHealth::Unrecoverable { .. } => {
                self.entries.remove(&key);
                self.order.retain(|&k| k != key);
                self.stats.corrupt_evictions += 1;
                CacheRead::Corrupt
            }
        }
    }

    /// What the entry under `key` serves, if there is one.  Clones
    /// nothing and does not count as a read.  `fill` materialises the
    /// right-hand side of a recovered entry on its first use and is not
    /// called otherwise.
    pub fn served(
        &mut self,
        key: u64,
        fill: impl FnOnce() -> Option<Vec<f64>>,
    ) -> Option<Served<'_>> {
        let entry = self.entries.get_mut(&key)?;
        let rhs = entry.rhs.get_or_insert_with(fill).as_deref();
        Some(Served {
            factor: &entry.factor,
            lower_digest: entry.lower_digest,
            rhs,
        })
    }

    /// Digest of the factor stored under `key`, if any, computed from
    /// its bits (test hook).
    pub fn stored_digest(&self, key: u64) -> Option<u64> {
        self.entries.get(&key).map(|e| lower_digest(&e.factor))
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn touch(&mut self, key: u64) {
        self.order.retain(|&k| k != key);
        self.order.push_back(key);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use cholcomm_matrix::spd;

    fn sample_factor(seed: u64) -> Matrix<f64> {
        let mut a = spd::random_spd(8, &mut spd::test_rng(seed));
        cholcomm_matrix::kernels::potf2(&mut a).unwrap();
        a
    }

    fn insert_sample(c: &mut FactorCache, key: u64, seed: u64) -> u64 {
        let f = sample_factor(seed);
        let digest = lower_digest(&f);
        c.insert(key, f, digest, Some(vec![seed as f64; 8]));
        digest
    }

    fn never_filled() -> Option<Vec<f64>> {
        panic!("only a recovered entry's first use fills its right-hand side")
    }

    #[test]
    fn hit_after_insert_and_lru_eviction() {
        let mut c = FactorCache::new(2);
        insert_sample(&mut c, 1, 1);
        insert_sample(&mut c, 2, 2);
        assert_eq!(c.read(1, &[]), CacheRead::Hit);
        insert_sample(&mut c, 3, 3); // evicts 2 (1 was touched)
        assert_eq!(c.read(2, &[]), CacheRead::Miss);
        assert_eq!(c.read(1, &[]), CacheRead::Hit);
        assert_eq!(c.read(3, &[]), CacheRead::Hit);
        assert_eq!(c.stats().capacity_evictions, 1);
    }

    #[test]
    fn a_hit_serves_the_stored_digest_and_rhs() {
        let mut c = FactorCache::new(2);
        let want = insert_sample(&mut c, 1, 6);
        assert_eq!(c.read(1, &[]), CacheRead::Hit);
        let served = c.served(1, never_filled).unwrap();
        assert_eq!(served.lower_digest, want);
        assert_eq!(lower_digest(served.factor), want);
        assert_eq!(served.rhs, Some(&[6.0; 8][..]));
    }

    #[test]
    fn a_recovered_entry_fills_its_rhs_on_first_use_only() {
        let mut c = FactorCache::new(2);
        let f = sample_factor(4);
        let want = lower_digest(&f);
        c.insert_recovered(1, f, want);
        assert_eq!(c.read(1, &[]), CacheRead::Hit);
        let first = c.served(1, || Some(vec![1.5; 8])).unwrap();
        assert_eq!(first.lower_digest, want);
        assert_eq!(first.rhs, Some(&[1.5; 8][..]));
        let again = c.served(1, never_filled).unwrap();
        assert_eq!(again.rhs, Some(&[1.5; 8][..]));
    }

    #[test]
    fn single_flip_is_healed_bit_exactly() {
        let mut c = FactorCache::new(4);
        let want = insert_sample(&mut c, 9, 7);
        assert_eq!(c.read(9, &[((3, 1), 1 << 52)]), CacheRead::Healed);
        let served = c.served(9, never_filled).unwrap();
        assert_eq!(lower_digest(served.factor), want);
        assert_eq!(served.lower_digest, want, "a healed entry is digested again");
        // The stored entry is healed too: the next read is clean.
        assert_eq!(c.read(9, &[]), CacheRead::Hit);
        assert_eq!(c.stored_digest(9), Some(want));
    }

    #[test]
    fn multi_flip_is_detected_and_evicted_never_served() {
        let mut c = FactorCache::new(4);
        insert_sample(&mut c, 5, 3);
        let read = c.read(5, &[((0, 0), 1 << 51), ((4, 2), 1 << 50)]);
        assert_eq!(read, CacheRead::Corrupt);
        assert!(c.served(5, never_filled).is_none());
        assert_eq!(c.read(5, &[]), CacheRead::Miss);
        assert_eq!(c.stats().corrupt_evictions, 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = FactorCache::new(0);
        insert_sample(&mut c, 1, 1);
        assert!(c.is_empty());
        assert_eq!(c.read(1, &[]), CacheRead::Miss);
    }
}
