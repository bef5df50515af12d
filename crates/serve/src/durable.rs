//! Durable factor cache: a shard's [`FactorCache`] committed through
//! the write-ahead journal of [`cholcomm_faults::journal`], the one the
//! ooc checkpoints use.
//!
//! Each shard owns one `cache-<shard>.journal` plus one entry file per
//! committed factor; an insert is one journal commit whose payload is
//! the entry file.  Recovery is the journal's *lossy* policy: a cache
//! may silently forget entries (the cost is a refactorization), but it
//! may never serve wrong bits.  So replay adopts every committed entry
//! whose file exists, has the recorded length, and hashes to the
//! recorded FNV; everything else is dropped, counted and swept.
//! Adopted factors still pass through [`FactorCache`]'s ABFT-verified
//! reads afterwards.

use crate::cache::FactorCache;
use cholcomm_faults::journal::{self, Fields, Intent, Replay};
use cholcomm_faults::{CommitDiscipline, Store};
use cholcomm_matrix::digest::fnv1a;
use cholcomm_matrix::{lower_digests, Matrix};
use std::collections::{BTreeMap, BTreeSet};

/// Recovered entries digested (and held outside the cache) at a time.
const RECOVERY_CHUNK: usize = 32;

/// An entry's intent record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    key: u64,
    n: usize,
    len: usize,
    fnv: u64,
}

impl Intent for Entry {
    fn fields(&self) -> String {
        format!("key={} n={} len={} fnv={:016x}", self.key, self.n, self.len, self.fnv)
    }

    fn decode(fields: &Fields<'_>) -> Option<Self> {
        Some(Entry {
            key: fields.get("key")?,
            n: fields.get("n")?,
            len: fields.get("len")?,
            fnv: fields.hex("fnv")?,
        })
    }
}

/// Serialize a factor as little-endian f64 words in storage order.
fn to_bytes(factor: &Matrix<f64>) -> Vec<u8> {
    factor.as_slice().iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Rebuild an `n x n` factor from its serialized bytes.
fn from_bytes(n: usize, bytes: &[u8]) -> Option<Matrix<f64>> {
    if bytes.len() != n * n * 8 {
        return None;
    }
    let mut m = Matrix::zeros(n, n);
    for (slot, word) in m.as_mut_slice().iter_mut().zip(bytes.chunks_exact(8)) {
        *slot = f64::from_le_bytes(word.try_into().ok()?);
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
    /// Recovery could not read the journal: nothing was adopted or
    /// swept, and [`record`](DurableCache::record) refuses.
    unreadable: bool,
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
            unreadable: false,
        }
    }

    /// Name of generation `gen`'s entry file.
    pub fn entry_file(&self, gen: u64) -> String {
        format!("{}.e{}", self.prefix, gen)
    }

    /// Whether [`record`](DurableCache::record) still journals: false
    /// once recovery found the journal unreadable.
    pub fn journaling(&self) -> bool {
        !self.unreadable
    }

    /// Replay the journal, adopting every validated committed entry into
    /// `cache` (ascending generation order, so the newest factor for a
    /// key wins) and sweeping every file the replay did not adopt.
    ///
    /// A journal that exists but cannot be read is not an empty one:
    /// sweeping would delete committed entries and numbering from 1
    /// would reuse generations.  Recovery then adopts and deletes
    /// nothing, and journaling stops.
    pub fn recover_into(&mut self, cache: &mut FactorCache) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        let Ok(replay) = Replay::<Entry>::recover(&mut *self.store, &self.journal) else {
            self.unreadable = true;
            return report;
        };
        let committed: Vec<(u64, Entry)> = replay.committed.into_iter().collect();

        // A chunk of entries is validated, then digested in one call (the
        // digests advance together, see `lower_digests`), then adopted in
        // generation order; the chunk bounds what recovery holds outside
        // the cache.
        for chunk in committed.chunks(RECOVERY_CHUNK) {
            let mut adopted = Vec::with_capacity(chunk.len());
            for &(gen, Entry { key, n, len, fnv }) in chunk {
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
        self.next_gen = replay.max_gen + 1;
        // Keep only each key's latest adopted entry.  Sweeping is hygiene
        // for a cache, so a failed removal is left to the next recovery.
        let keep: BTreeSet<String> = self.by_key.values().map(|&g| self.entry_file(g)).collect();
        let entries = format!("{}.e", self.prefix);
        let _ = journal::sweep(&mut *self.store, &entries, |name| keep.contains(name));
        report
    }

    /// Journal-commit `factor` for `key` (intent, entry bytes, barrier,
    /// commit, barrier), then prune the key's superseded entry.
    pub fn record(&mut self, key: u64, factor: &Matrix<f64>) -> std::io::Result<()> {
        if self.unreadable {
            return Err(std::io::Error::other(
                "the cache journal was unreadable at recovery: journaling stopped",
            ));
        }
        let gen = self.next_gen;
        self.next_gen += 1;
        let bytes = to_bytes(factor);
        let entry = Entry {
            key,
            n: factor.rows(),
            len: bytes.len(),
            fnv: fnv1a(&bytes),
        };
        let payload: [(&str, &[u8]); 1] = [(&self.entry_file(gen), &bytes)];
        let discipline = CommitDiscipline::Barriered;
        journal::commit(&mut *self.store, &self.journal, gen, &entry, &payload, discipline)?;
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
    use cholcomm_faults::journal::journal_line;
    use cholcomm_faults::{
        crash_sites_exhaustive, crash_state, schedule_digest, shrink_site, CrashSite, SimDisk,
        SimOp, SimStore, DEFAULT_SECTOR,
    };
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
    fn an_entry_recorded_after_a_torn_journal_tail_is_adopted() {
        let (disk, mut d) = sim_pair();
        let first = sample_factor(9, 8);
        d.record(1, &first).unwrap();
        {
            // A crash tore gen 2's intent: no newline, no rec_fnv.
            let mut guard = disk.lock().unwrap();
            guard.append("cache-0.journal", b"intent gen=2 key=2 n=");
            guard.barrier();
        }
        let mut resumed = DurableCache::open(0, Box::new(SimStore::new(disk.clone())));
        let mut cache = FactorCache::new(8);
        assert_eq!(resumed.recover_into(&mut cache).recovered, 1);
        let second = sample_factor(10, 8);
        resumed.record(2, &second).unwrap();

        let mut fresh = DurableCache::open(0, Box::new(SimStore::new(disk)));
        let mut cache = FactorCache::new(8);
        let report = fresh.recover_into(&mut cache);
        assert_eq!(report, RecoveryReport { recovered: 2, dropped: 0 });
        assert_eq!(cache.stored_digest(1), Some(lower_digest(&first)));
        assert_eq!(cache.stored_digest(2), Some(lower_digest(&second)));
    }

    /// `(key, seed, n)` of a fixed insert sequence: five inserts, the
    /// third superseding the first's key.  Generation `g` is entry
    /// `g - 1`.
    const SEQUENCE: [(u64, u64, usize); 5] =
        [(10, 1, 8), (20, 2, 12), (10, 3, 8), (30, 4, 4), (40, 5, 6)];

    fn sequence_factors() -> Vec<Matrix<f64>> {
        SEQUENCE
            .iter()
            .map(|&(_, seed, n)| sample_factor(seed, n))
            .collect()
    }

    /// [`SEQUENCE`] through `DurableCache::record` on a fresh disk.
    fn recorded_sequence() -> Arc<Mutex<SimDisk>> {
        let (disk, mut d) = sim_pair();
        for (&(key, ..), factor) in SEQUENCE.iter().zip(sequence_factors()) {
            d.record(key, &factor).unwrap();
        }
        disk
    }

    #[test]
    fn recorded_schedule_and_files_are_pinned() {
        // Taken on the journal's two hand-written copies before they
        // became one module: op count, schedule digest, and every file
        // the sequence leaves as (name, length, FNV-1a).
        let disk = recorded_sequence();
        let guard = disk.lock().unwrap();
        assert_eq!(guard.schedule().len(), 26);
        assert_eq!(schedule_digest(guard.schedule()), 0x811c_f56c_f669_0e51);
        let files: Vec<(String, usize, u64)> = guard
            .list_prefix("cache-0")
            .into_iter()
            .map(|name| {
                let bytes = guard.read(&name).unwrap();
                (name, bytes.len(), fnv1a(&bytes))
            })
            .collect();
        let want = [
            ("cache-0.e2", 1152, 0x9d70_4b99_e5e7_ea37),
            ("cache-0.e3", 512, 0x726f_2a31_20b0_589d),
            ("cache-0.e4", 128, 0xd016_fff0_98d5_fd0a),
            ("cache-0.e5", 288, 0x507a_c538_03ed_076f),
            ("cache-0.journal", 582, 0x6e29_22df_03c5_ddb5),
        ]
        .map(|(name, len, fnv)| (name.to_string(), len, fnv));
        assert_eq!(files, want);
    }

    /// Why recovering a fresh cache from the durable image at `site`
    /// breaks the journal's contract, or `None`.  The contract, for
    /// every key: the adopted generation is the newest one whose commit
    /// record is durable, and its factor is bit-identical to the one
    /// recorded.  So nothing uncommitted is adopted, and every entry
    /// whose commit is durable — in particular every entry whose
    /// post-commit barrier completed — is adopted unless superseded.
    fn violation(schedule: &[SimOp], factors: &[Matrix<f64>], site: &CrashSite) -> Option<String> {
        let state = crash_state(schedule, site, DEFAULT_SECTOR);
        let disk = Arc::new(Mutex::new(SimDisk::from_state(state, DEFAULT_SECTOR)));
        let mut d = DurableCache::open(0, Box::new(SimStore::new(disk)));
        let mut cache = FactorCache::new(SEQUENCE.len());
        d.recover_into(&mut cache);
        let commit_durable = |gen: u64| {
            let line = journal_line(&format!("commit gen={gen}")).into_bytes();
            let op = schedule
                .iter()
                .position(|op| matches!(op, SimOp::Append { bytes, .. } if *bytes == line));
            op.is_some_and(|op| {
                op < site.crash_index
                    && !site.dropped.contains(&op)
                    && !site.torn.iter().any(|&(torn, _)| torn == op)
            })
        };
        for &(key, ..) in &SEQUENCE {
            let want = (1..=SEQUENCE.len() as u64)
                .filter(|&gen| SEQUENCE[gen as usize - 1].0 == key && commit_durable(gen))
                .max();
            let got = d.by_key.get(&key).copied();
            if got != want {
                return Some(format!(
                    "key {key}: adopted generation {got:?}, committed {want:?}"
                ));
            }
            let served = cache.served(key, || None).map(|s| s.factor.clone());
            if served.as_ref() != want.map(|gen| &factors[gen as usize - 1]) {
                return Some(format!(
                    "key {key}: served bits differ from generation {want:?}"
                ));
            }
        }
        None
    }

    #[test]
    fn every_crash_state_of_the_cache_journal_recovers_its_committed_entries() {
        let disk = recorded_sequence();
        let schedule = disk.lock().unwrap().schedule().to_vec();
        let factors = sequence_factors();
        let sites = crash_sites_exhaustive(&schedule, DEFAULT_SECTOR);
        assert!(sites.len() > 2 * schedule.len(), "{} sites", sites.len());
        let failing: Vec<String> = sites
            .iter()
            .filter_map(|site| Some(format!("{site}: {}", violation(&schedule, &factors, site)?)))
            .collect();
        assert!(
            failing.is_empty(),
            "{} of {} states: {failing:?}",
            failing.len(),
            sites.len()
        );
        println!(
            "cache journal: {} ops, {} crash states, 0 violations",
            schedule.len(),
            sites.len()
        );
    }

    #[test]
    fn an_unbarriered_cache_commit_is_caught_and_shrunk() {
        // The same sequence committed through the journal with the
        // commit record in its entry's un-barriered window.
        let disk = Arc::new(Mutex::new(SimDisk::new(DEFAULT_SECTOR)));
        let mut store = SimStore::new(Arc::clone(&disk));
        let factors = sequence_factors();
        let mut latest = BTreeMap::new();
        for (gen, (&(key, ..), factor)) in (1u64..).zip(SEQUENCE.iter().zip(&factors)) {
            let bytes = to_bytes(factor);
            let entry = Entry {
                key,
                n: factor.rows(),
                len: bytes.len(),
                fnv: fnv1a(&bytes),
            };
            let file = format!("cache-0.e{gen}");
            let payload: [(&str, &[u8]); 1] = [(&file, &bytes)];
            let broken = CommitDiscipline::UnbarrieredCommit;
            journal::commit(&mut store, "cache-0.journal", gen, &entry, &payload, broken).unwrap();
            if let Some(old) = latest.insert(key, gen) {
                store.remove(&format!("cache-0.e{old}")).unwrap();
            }
        }
        let schedule = disk.lock().unwrap().schedule().to_vec();

        // It is DurableCache's schedule less each barrier before a commit.
        let correct = recorded_sequence().lock().unwrap().schedule().to_vec();
        let before_commit = |i: usize| {
            let next = correct.get(i + 1);
            matches!(next, Some(SimOp::Append { bytes, .. }) if bytes.starts_with(b"commit"))
        };
        let expect: Vec<SimOp> = (0..correct.len())
            .filter(|&i| !(correct[i] == SimOp::Barrier && before_commit(i)))
            .map(|i| correct[i].clone())
            .collect();
        assert_eq!(schedule, expect);

        let sites = crash_sites_exhaustive(&schedule, DEFAULT_SECTOR);
        let fails = |site: &CrashSite| violation(&schedule, &factors, site).is_some();
        let failing: Vec<&CrashSite> = sites.iter().filter(|&site| fails(site)).collect();
        let first = failing.first().expect("the broken protocol is caught");
        let minimal = shrink_site(first, fails);
        assert!(fails(&minimal));
        for i in 0..minimal.dropped.len() {
            let mut weaker = minimal.clone();
            weaker.dropped.remove(i);
            assert!(
                !fails(&weaker),
                "drop {} is load-bearing in {minimal}",
                minimal.dropped[i]
            );
        }
        assert!(minimal.to_string().starts_with("crash@"), "{minimal}");
        println!(
            "unbarriered cache commit: {} of {} crash states caught, minimal repro: {minimal}",
            failing.len(),
            sites.len()
        );
    }
}
