//! Durable factor cache: the journaled commit protocol of the ooc
//! checkpoints, applied to a shard's [`FactorCache`].
//!
//! Each shard owns one `cache-<shard>.journal` plus one entry file per
//! committed factor.  An insert commits through the same write-ahead
//! sequence the checkpoints use — **intent record, entry data, barrier,
//! commit record, barrier** — so at no crash point can a commit be
//! durable while its entry bytes are not.  Journal records
//! self-authenticate with a trailing FNV (`rec_fnv=`), so a torn tail
//! parses as a shorter valid prefix rather than garbage.
//!
//! Recovery is *lossy-safe*: a cache may silently forget entries (the
//! cost is a refactorization), but it may never serve wrong bits.  So
//! replay adopts only generations with both an intent and a commit
//! record whose entry file exists, has the recorded length, and hashes
//! to the recorded FNV; everything else — uncommitted intents, torn
//! entries, stray files — is dropped and swept.  Adopted factors still
//! pass through [`FactorCache`]'s ABFT-verified reads afterwards.

use crate::cache::FactorCache;
use cholcomm_faults::Store;
use cholcomm_matrix::digest::fnv1a;
use cholcomm_matrix::{lower_digests, Matrix};
use std::collections::BTreeMap;

/// Recovered entries digested (and held outside the cache) at a time.
const RECOVERY_CHUNK: usize = 32;

/// Append `rec_fnv=` self-authentication to a record body.
fn journal_line(body: &str) -> String {
    format!("{body} rec_fnv={:016x}\n", fnv1a(body.as_bytes()))
}

/// One parsed journal record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rec {
    Intent {
        gen: u64,
        key: u64,
        n: usize,
        len: usize,
        fnv: u64,
    },
    Commit {
        gen: u64,
    },
}

/// Parse the longest valid prefix of the journal: stop at the first
/// line that is torn, tampered, or unparseable.
fn parse_journal(text: &str) -> Vec<Rec> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some((body, fnv_hex)) = line.rsplit_once(" rec_fnv=") else {
            break;
        };
        let Ok(recorded) = u64::from_str_radix(fnv_hex, 16) else {
            break;
        };
        if fnv1a(body.as_bytes()) != recorded {
            break;
        }
        let mut fields = body.split_whitespace();
        let rec = match fields.next() {
            Some("intent") => {
                let mut gen = None;
                let mut key = None;
                let mut n = None;
                let mut len = None;
                let mut fnv = None;
                for field in fields {
                    match field.split_once('=') {
                        Some(("gen", v)) => gen = v.parse().ok(),
                        Some(("key", v)) => key = v.parse().ok(),
                        Some(("n", v)) => n = v.parse().ok(),
                        Some(("len", v)) => len = v.parse().ok(),
                        Some(("fnv", v)) => fnv = u64::from_str_radix(v, 16).ok(),
                        _ => {}
                    }
                }
                match (gen, key, n, len, fnv) {
                    (Some(gen), Some(key), Some(n), Some(len), Some(fnv)) => Rec::Intent {
                        gen,
                        key,
                        n,
                        len,
                        fnv,
                    },
                    _ => break,
                }
            }
            Some("commit") => {
                let gen = fields
                    .find_map(|f| f.strip_prefix("gen=").and_then(|v| v.parse().ok()));
                match gen {
                    Some(gen) => Rec::Commit { gen },
                    None => break,
                }
            }
            _ => break,
        };
        out.push(rec);
    }
    out
}

/// Serialize a factor as little-endian f64 words in storage order.
fn to_bytes(factor: &Matrix<f64>) -> Vec<u8> {
    let mut out = Vec::with_capacity(factor.as_slice().len() * 8);
    for v in factor.as_slice() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Rebuild an `n x n` factor from its serialized bytes.
fn from_bytes(n: usize, bytes: &[u8]) -> Option<Matrix<f64>> {
    if bytes.len() != n * n * 8 {
        return None;
    }
    let mut m = Matrix::zeros(n, n);
    for (slot, chunk) in m.as_mut_slice().iter_mut().zip(bytes.chunks_exact(8)) {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        *slot = f64::from_le_bytes(word);
    }
    Some(m)
}

/// What a recovery replay found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Committed entries adopted into the cache.
    pub recovered: u64,
    /// Committed entries dropped (missing, truncated, or hash-mismatched
    /// entry file) — safe to lose, loud to count.
    pub dropped: u64,
}

/// A shard's journaled persistence for its factor cache.
pub struct DurableCache {
    store: Box<dyn Store + Send>,
    journal: String,
    prefix: String,
    next_gen: u64,
    /// Latest committed generation per key, for pruning superseded
    /// entry files.
    by_key: BTreeMap<u64, u64>,
}

impl DurableCache {
    /// Open shard `shard`'s durable cache over `store`.  No I/O happens
    /// until [`recover_into`](DurableCache::recover_into) or
    /// [`record`](DurableCache::record).
    pub fn open(shard: usize, store: Box<dyn Store + Send>) -> DurableCache {
        let prefix = format!("cache-{shard}");
        DurableCache {
            store,
            journal: format!("{prefix}.journal"),
            prefix,
            next_gen: 1,
            by_key: BTreeMap::new(),
        }
    }

    /// Name of generation `gen`'s entry file.
    pub fn entry_file(&self, gen: u64) -> String {
        format!("{}.e{}", self.prefix, gen)
    }

    /// Replay the journal, adopting every validated committed entry into
    /// `cache` (ascending generation order, so the newest factor for a
    /// key wins) and sweeping every file the replay did not adopt.
    pub fn recover_into(&mut self, cache: &mut FactorCache) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        let text = if self.store.exists(&self.journal) {
            String::from_utf8_lossy(&self.store.read(&self.journal).unwrap_or_default())
                .into_owned()
        } else {
            String::new()
        };
        let records = parse_journal(&text);

        let mut intents = BTreeMap::new();
        let mut committed = Vec::new();
        let mut max_gen = 0;
        for rec in records {
            match rec {
                Rec::Intent { gen, .. } => {
                    max_gen = max_gen.max(gen);
                    intents.insert(gen, rec);
                }
                Rec::Commit { gen } => {
                    max_gen = max_gen.max(gen);
                    if intents.contains_key(&gen) {
                        committed.push(gen);
                    }
                }
            }
        }
        committed.sort_unstable();

        // A chunk of entries is validated, then digested in one call (the
        // digests advance together, see `lower_digests`), then adopted in
        // generation order; the chunk bounds what recovery holds outside
        // the cache.
        for chunk in committed.chunks(RECOVERY_CHUNK) {
            let mut adopted = Vec::with_capacity(chunk.len());
            for &gen in chunk {
                let Some(Rec::Intent { key, n, len, fnv, .. }) = intents.get(&gen).copied() else {
                    continue;
                };
                let factor = self
                    .store
                    .read(&self.entry_file(gen))
                    .ok()
                    .filter(|bytes| bytes.len() == len && fnv1a(bytes) == fnv)
                    .and_then(|bytes| from_bytes(n, &bytes));
                match factor {
                    Some(factor) => adopted.push((key, gen, factor)),
                    None => report.dropped += 1,
                }
            }
            let factors: Vec<&Matrix<f64>> = adopted.iter().map(|(.., factor)| factor).collect();
            let digests = lower_digests(&factors);
            for ((key, gen, factor), digest) in adopted.into_iter().zip(digests) {
                cache.insert_recovered(key, factor, digest);
                self.by_key.insert(key, gen);
                report.recovered += 1;
            }
        }
        self.next_gen = max_gen + 1;
        self.sweep();
        report
    }

    /// Remove every entry file that is not some key's latest committed
    /// generation (uncommitted strays, superseded or invalid entries).
    fn sweep(&mut self) {
        let keep: std::collections::BTreeSet<String> =
            self.by_key.values().map(|&g| self.entry_file(g)).collect();
        let listed = self
            .store
            .list_prefix(&format!("{}.e", self.prefix))
            .unwrap_or_default();
        for name in listed {
            if !keep.contains(&name) {
                let _ = self.store.remove(&name);
            }
        }
    }

    /// Journal-commit `factor` for `key`: intent, entry bytes, barrier,
    /// commit, barrier, then prune the key's superseded entry.
    pub fn record(&mut self, key: u64, factor: &Matrix<f64>) -> std::io::Result<()> {
        let gen = self.next_gen;
        self.next_gen += 1;
        let bytes = to_bytes(factor);
        let intent = journal_line(&format!(
            "intent gen={gen} key={key} n={} len={} fnv={:016x}",
            factor.rows(),
            bytes.len(),
            fnv1a(&bytes)
        ));
        self.store.append(&self.journal, intent.as_bytes())?;
        self.store.write_file(&self.entry_file(gen), &bytes)?;
        self.store.barrier()?;
        self.store
            .append(&self.journal, journal_line(&format!("commit gen={gen}")).as_bytes())?;
        self.store.barrier()?;
        if let Some(old) = self.by_key.insert(key, gen) {
            // Superseded entry: removing it is pure hygiene — recovery
            // adopts the highest committed generation per key anyway.
            self.store.remove(&self.entry_file(old))?;
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use cholcomm_faults::{SimDisk, SimStore, DEFAULT_SECTOR};
    use cholcomm_matrix::{lower_digest, spd};
    use std::sync::{Arc, Mutex};

    fn sample_factor(seed: u64, n: usize) -> Matrix<f64> {
        let mut a = spd::random_spd(n, &mut spd::test_rng(seed));
        cholcomm_matrix::kernels::potf2(&mut a).unwrap();
        a
    }

    fn sim_pair() -> (Arc<Mutex<SimDisk>>, DurableCache) {
        let disk = Arc::new(Mutex::new(SimDisk::new(DEFAULT_SECTOR)));
        let cache = DurableCache::open(0, Box::new(SimStore::new(Arc::clone(&disk))));
        (disk, cache)
    }

    #[test]
    fn record_then_recover_is_bit_identical() {
        let (disk, mut d) = sim_pair();
        let f1 = sample_factor(1, 8);
        let f2 = sample_factor(2, 16);
        d.record(10, &f1).unwrap();
        d.record(20, &f2).unwrap();

        let mut fresh = DurableCache::open(0, Box::new(SimStore::new(disk)));
        let mut cache = FactorCache::new(8);
        let report = fresh.recover_into(&mut cache);
        assert_eq!(report, RecoveryReport { recovered: 2, dropped: 0 });
        assert_eq!(cache.stored_digest(10), Some(lower_digest(&f1)));
        assert_eq!(cache.stored_digest(20), Some(lower_digest(&f2)));
    }

    #[test]
    fn newer_generation_for_a_key_wins_and_prunes_the_old_entry() {
        let (disk, mut d) = sim_pair();
        let old = sample_factor(3, 8);
        let new = sample_factor(4, 8);
        d.record(5, &old).unwrap();
        d.record(5, &new).unwrap();
        {
            let guard = disk.lock().unwrap();
            assert!(!guard.exists(&d.entry_file(1)), "superseded entry pruned");
            assert!(guard.exists(&d.entry_file(2)));
        }
        let mut fresh = DurableCache::open(0, Box::new(SimStore::new(disk)));
        let mut cache = FactorCache::new(8);
        let report = fresh.recover_into(&mut cache);
        // Gen 1's file is gone (pruned), so it counts as dropped; gen 2
        // supplies the key.
        assert_eq!(report.recovered, 1);
        assert_eq!(cache.stored_digest(5), Some(lower_digest(&new)));
    }

    /// More entries than one recovery chunk, of mixed orders, one of
    /// them tampered and one key recorded again two chunks later: every
    /// adopted entry carries the digest of its own bits, and entries are
    /// adopted in generation order (the oldest is the one evicted).
    #[test]
    fn recovery_across_chunks_digests_each_entry_and_keeps_generation_order() {
        let (disk, mut d) = sim_pair();
        let count = 2 * RECOVERY_CHUNK as u64 + 3;
        let factor_of = |key: u64| sample_factor(100 + key, [4, 8, 13, 16][key as usize % 4]);
        for key in 0..count {
            d.record(key, &factor_of(key)).unwrap();
        }
        let again = sample_factor(999, 8);
        d.record(1, &again).unwrap(); // supersedes generation 2
        {
            let mut guard = disk.lock().unwrap();
            let mut bytes = guard.read(&d.entry_file(6)).unwrap(); // key 5
            bytes[9] ^= 0x40;
            guard.write_file(&d.entry_file(6), &bytes);
            guard.barrier();
        }
        let mut fresh = DurableCache::open(0, Box::new(SimStore::new(disk)));
        // Room for all but one of the recovered entries.
        let mut cache = FactorCache::new(count as usize - 2);
        let report = fresh.recover_into(&mut cache);
        // Dropped: key 5's tampered entry and key 1's pruned generation 2.
        assert_eq!(report, RecoveryReport { recovered: count - 1, dropped: 2 });
        assert_eq!(cache.stored_digest(0), None, "the oldest generation was evicted");
        assert_eq!(cache.stored_digest(5), None);
        for key in (1..count).filter(|&k| k != 5) {
            let want = lower_digest(&if key == 1 { again.clone() } else { factor_of(key) });
            let served = cache.served(key, || None).unwrap();
            assert_eq!(served.lower_digest, want, "key {key}");
            assert_eq!(lower_digest(served.factor), want, "key {key}");
        }
    }

    #[test]
    fn tampered_entry_is_dropped_never_served() {
        let (disk, mut d) = sim_pair();
        let f = sample_factor(6, 8);
        d.record(9, &f).unwrap();
        {
            let mut guard = disk.lock().unwrap();
            let mut bytes = guard.read(&d.entry_file(1)).unwrap();
            bytes[17] ^= 0x01;
            guard.write_file(&d.entry_file(1), &bytes);
            guard.barrier();
        }
        let mut fresh = DurableCache::open(0, Box::new(SimStore::new(disk)));
        let mut cache = FactorCache::new(8);
        let report = fresh.recover_into(&mut cache);
        assert_eq!(report, RecoveryReport { recovered: 0, dropped: 1 });
        assert!(cache.is_empty());
    }

    #[test]
    fn power_cut_mid_record_loses_only_the_uncommitted_entry() {
        let (disk, mut d) = sim_pair();
        let committed = sample_factor(7, 8);
        d.record(1, &committed).unwrap();
        // Start a second record but cut power before any barrier: the
        // intent and entry bytes sit in the volatile window.
        let doomed = sample_factor(8, 8);
        let bytes = to_bytes(&doomed);
        {
            let mut guard = disk.lock().unwrap();
            guard.append(
                "cache-0.journal",
                journal_line(&format!(
                    "intent gen=2 key=2 n=8 len={} fnv={:016x}",
                    bytes.len(),
                    fnv1a(&bytes)
                ))
                .as_bytes(),
            );
            guard.write_file("cache-0.e2", &bytes);
            guard.power_cut();
        }
        let mut fresh = DurableCache::open(0, Box::new(SimStore::new(disk.clone())));
        let mut cache = FactorCache::new(8);
        let report = fresh.recover_into(&mut cache);
        assert_eq!(report, RecoveryReport { recovered: 1, dropped: 0 });
        assert_eq!(cache.stored_digest(1), Some(lower_digest(&committed)));
        assert_eq!(cache.stored_digest(2), None);
        // The uncommitted stray entry was swept.
        assert!(!disk.lock().unwrap().exists("cache-0.e2"));
    }

    #[test]
    fn torn_journal_tail_parses_as_a_valid_prefix() {
        let full = format!(
            "{}{}",
            journal_line("intent gen=1 key=3 n=4 len=128 fnv=0000000000000000"),
            journal_line("commit gen=1")
        );
        let whole = parse_journal(&full);
        assert_eq!(whole.len(), 2);
        for cut in 0..full.len() {
            let recs = parse_journal(&full[..cut]);
            assert!(recs.len() <= whole.len());
            assert_eq!(recs, whole[..recs.len()]);
        }
    }
}
