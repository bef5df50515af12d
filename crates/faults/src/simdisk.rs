//! A deterministic simulated block device with a volatile write-back
//! buffer — the storage half of the crash-consistency engine.
//!
//! [`SimDisk`] models the part of a real disk stack that checkpoint code
//! has to survive: mutating operations land in a *volatile* buffer and
//! become durable only at an explicit [`barrier`](SimDisk::barrier)
//! (fsync).  A power cut discards everything not yet flushed, and the
//! un-barriered window is where the adversary lives — any *subset* of
//! the buffered operations may have reached the platter (applied in
//! program order, which subsumes reordering of independent writes), and
//! a data-carrying write may additionally be **torn** at sector
//! granularity, leaving only a prefix of its sectors durable.
//!
//! Every mutating operation is recorded in an *op schedule*, so crash
//! exploration is record-once/replay-many (the durability analogue of
//! the trace/replay simulation engine): run the workload once against
//! the live disk, then materialize the durable state at every
//! [`CrashSite`] with [`crash_state`] — a pure function of the schedule
//! — and re-drive recovery from it.  [`crash_sites_exhaustive`]
//! enumerates every crash prefix times every adversarial choice (small
//! runs), [`crash_sites_sampled`] draws seeded samples (large runs), and
//! [`shrink_site`] greedily minimizes a failing site to the smallest
//! fault plan that still breaks the protocol under test.

use crate::coord_hash;
use cholcomm_matrix::digest::{fnv1a, fnv1a_update};
use std::collections::BTreeMap;

/// Default sector size (bytes) for torn-write granularity.  Small on
/// purpose: test matrices are small, and tearing must be able to split
/// their files into many pieces.
pub const DEFAULT_SECTOR: usize = 64;

/// Exhaustive exploration refuses un-barriered windows larger than this
/// (2^cap subsets per crash point).  A sane commit protocol keeps its
/// windows far smaller; hitting the cap usually means a missing barrier.
pub const EXHAUSTIVE_PENDING_CAP: usize = 16;

/// One recorded mutating operation against the simulated disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimOp {
    /// Create (or truncate) `name` with exactly `bytes` as content.
    WriteFile {
        /// File name.
        name: String,
        /// Full new content.
        bytes: Vec<u8>,
    },
    /// Write `bytes` at `offset` into `name` (zero-fill any gap).
    WriteAt {
        /// File name.
        name: String,
        /// Byte offset of the write.
        offset: u64,
        /// Bytes written.
        bytes: Vec<u8>,
    },
    /// Append `bytes` to `name` (creating it if missing).
    Append {
        /// File name.
        name: String,
        /// Bytes appended.
        bytes: Vec<u8>,
    },
    /// Rename `from` to `to` (atomic as a metadata operation: it either
    /// survives a crash entirely or not at all).
    Rename {
        /// Source name.
        from: String,
        /// Destination name.
        to: String,
    },
    /// Remove `name` (atomic metadata operation).
    Remove {
        /// File name.
        name: String,
    },
    /// Flush: everything buffered before this point is durable.
    Barrier,
}

impl SimOp {
    /// Bytes of payload this operation carries (0 for metadata ops).
    pub fn payload_len(&self) -> usize {
        match self {
            SimOp::WriteFile { bytes, .. }
            | SimOp::WriteAt { bytes, .. }
            | SimOp::Append { bytes, .. } => bytes.len(),
            _ => 0,
        }
    }

    /// Number of whole-or-partial sectors the payload spans.
    pub fn sectors(&self, sector: usize) -> usize {
        self.payload_len().div_ceil(sector.max(1))
    }
}

/// FNV-1a over a recorded schedule: each op's tag byte, then its fields,
/// strings and payloads length-prefixed.  Pins a schedule, op for op and
/// byte for byte, in one word.
pub fn schedule_digest(ops: &[SimOp]) -> u64 {
    let field = |h: u64, bytes: &[u8]| {
        fnv1a_update(fnv1a_update(h, &(bytes.len() as u64).to_le_bytes()), bytes)
    };
    ops.iter().fold(fnv1a(b""), |h, op| match op {
        SimOp::WriteFile { name, bytes } => {
            field(field(fnv1a_update(h, &[0]), name.as_bytes()), bytes)
        }
        SimOp::WriteAt {
            name,
            offset,
            bytes,
        } => {
            let h = field(fnv1a_update(h, &[1]), name.as_bytes());
            field(fnv1a_update(h, &offset.to_le_bytes()), bytes)
        }
        SimOp::Append { name, bytes } => {
            field(field(fnv1a_update(h, &[2]), name.as_bytes()), bytes)
        }
        SimOp::Rename { from, to } => {
            field(field(fnv1a_update(h, &[3]), from.as_bytes()), to.as_bytes())
        }
        SimOp::Remove { name } => field(fnv1a_update(h, &[4]), name.as_bytes()),
        SimOp::Barrier => fnv1a_update(h, &[5]),
    })
}

/// A complete durable filesystem image (file name to content).
pub type SimState = BTreeMap<String, Vec<u8>>;

/// Apply one operation to a state image.  `torn_keep` limits a
/// data-carrying op to its first `k` sectors (a torn write); metadata
/// ops ignore it.
fn apply_op(state: &mut SimState, op: &SimOp, sector: usize, torn_keep: Option<usize>) {
    let clip = |bytes: &[u8]| -> Vec<u8> {
        match torn_keep {
            Some(k) => bytes[..(k * sector.max(1)).min(bytes.len())].to_vec(),
            None => bytes.to_vec(),
        }
    };
    match op {
        SimOp::WriteFile { name, bytes } => {
            state.insert(name.clone(), clip(bytes));
        }
        SimOp::WriteAt {
            name,
            offset,
            bytes,
        } => {
            let file = state.entry(name.clone()).or_default();
            let bytes = clip(bytes);
            let off = *offset as usize;
            if file.len() < off + bytes.len() {
                file.resize(off + bytes.len(), 0);
            }
            file[off..off + bytes.len()].copy_from_slice(&bytes);
        }
        SimOp::Append { name, bytes } => {
            state
                .entry(name.clone())
                .or_default()
                .extend_from_slice(&clip(bytes));
        }
        SimOp::Rename { from, to } => {
            if let Some(content) = state.remove(from) {
                state.insert(to.clone(), content);
            }
        }
        SimOp::Remove { name } => {
            state.remove(name);
        }
        SimOp::Barrier => {}
    }
}

/// The simulated device: a live (page-cache) view, a durable image, and
/// the recorded op schedule.  Reads observe the live view — buffered
/// writes are visible to the process that issued them, exactly as a real
/// page cache behaves; only a power cut reveals the difference.
#[derive(Debug)]
pub struct SimDisk {
    sector: usize,
    view: SimState,
    durable: SimState,
    /// Schedule indices of operations buffered since the last barrier.
    pending: Vec<usize>,
    schedule: Vec<SimOp>,
}

impl SimDisk {
    /// A fresh, empty disk with the given sector size.
    pub fn new(sector: usize) -> SimDisk {
        assert!(sector >= 1);
        SimDisk {
            sector,
            view: SimState::new(),
            durable: SimState::new(),
            pending: Vec::new(),
            schedule: Vec::new(),
        }
    }

    /// A disk powered back on over a durable image (e.g. one produced by
    /// [`crash_state`]).  The schedule starts empty: recovery runs are
    /// themselves recordable.
    pub fn from_state(state: SimState, sector: usize) -> SimDisk {
        assert!(sector >= 1);
        SimDisk {
            sector,
            view: state.clone(),
            durable: state,
            pending: Vec::new(),
            schedule: Vec::new(),
        }
    }

    /// Sector size in bytes.
    pub fn sector(&self) -> usize {
        self.sector
    }

    /// The recorded mutating-op schedule so far (barriers included).
    pub fn schedule(&self) -> &[SimOp] {
        &self.schedule
    }

    /// Number of buffered (un-barriered) operations.
    pub fn pending_ops(&self) -> usize {
        self.pending.len()
    }

    /// The current durable image (what a power cut right now preserves).
    pub fn durable_state(&self) -> SimState {
        self.durable.clone()
    }

    fn record(&mut self, op: SimOp) {
        apply_op(&mut self.view, &op, self.sector, None);
        let idx = self.schedule.len();
        self.schedule.push(op);
        self.pending.push(idx);
    }

    // --- reads (live view) ---

    /// Whole-file read.
    pub fn read(&self, name: &str) -> std::io::Result<Vec<u8>> {
        self.view.get(name).cloned().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotFound, format!("simdisk: no file {name}"))
        })
    }

    /// Fill `buf` with the bytes at `offset`.
    pub fn read_at(&self, name: &str, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        let file = self.view.get(name).ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotFound, format!("simdisk: no file {name}"))
        })?;
        let (off, len) = (offset as usize, buf.len());
        if off + len > file.len() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!(
                    "simdisk: read {len}@{off} past end of {name} ({} bytes)",
                    file.len()
                ),
            ));
        }
        buf.copy_from_slice(&file[off..off + len]);
        Ok(())
    }

    /// Does `name` exist (in the live view)?
    pub fn exists(&self, name: &str) -> bool {
        self.view.contains_key(name)
    }

    /// Length of `name`, if it exists.
    pub fn len_of(&self, name: &str) -> Option<u64> {
        self.view.get(name).map(|f| f.len() as u64)
    }

    /// All live file names starting with `prefix`, sorted.
    pub fn list_prefix(&self, prefix: &str) -> Vec<String> {
        self.view
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect()
    }

    // --- recorded mutations ---

    /// Create-or-truncate `name` with `bytes`.
    pub fn write_file(&mut self, name: &str, bytes: &[u8]) {
        self.record(SimOp::WriteFile {
            name: name.to_string(),
            bytes: bytes.to_vec(),
        });
    }

    /// Write `bytes` at `offset` into `name`.
    pub fn write_at(&mut self, name: &str, offset: u64, bytes: &[u8]) {
        self.record(SimOp::WriteAt {
            name: name.to_string(),
            offset,
            bytes: bytes.to_vec(),
        });
    }

    /// Append `bytes` to `name`.
    pub fn append(&mut self, name: &str, bytes: &[u8]) {
        self.record(SimOp::Append {
            name: name.to_string(),
            bytes: bytes.to_vec(),
        });
    }

    /// Rename `from` to `to`.
    pub fn rename(&mut self, from: &str, to: &str) {
        self.record(SimOp::Rename {
            from: from.to_string(),
            to: to.to_string(),
        });
    }

    /// Remove `name` (no error if missing, matching checkpoint sweeps).
    pub fn remove(&mut self, name: &str) {
        self.record(SimOp::Remove {
            name: name.to_string(),
        });
    }

    /// Flush the write-back buffer: everything issued so far is durable.
    pub fn barrier(&mut self) {
        self.schedule.push(SimOp::Barrier);
        self.durable = self.view.clone();
        self.pending.clear();
    }

    /// Power cut *now*: the live view collapses to the durable image and
    /// all buffered operations are lost.  (For adversarial subsets and
    /// torn writes, materialize a [`CrashSite`] with [`crash_state`]
    /// instead.)
    pub fn power_cut(&mut self) {
        self.view = self.durable.clone();
        self.pending.clear();
    }
}

/// One crash scenario against a recorded schedule: the process dies
/// just before issuing op `crash_index`; of the operations still in the
/// volatile buffer at that instant, those in `dropped` never reached the
/// platter, and each `(op, keep)` in `torn` reached it torn — only its
/// first `keep` sectors are durable.
///
/// The `Display` form is the reproducible fault plan the explorer prints
/// for a failing schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashSite {
    /// Ops `0..crash_index` were issued; the crash lands before the next.
    pub crash_index: usize,
    /// Buffered op indices that are entirely lost.
    pub dropped: Vec<usize>,
    /// Buffered op indices torn to a sector-prefix: `(index, sectors kept)`.
    pub torn: Vec<(usize, usize)>,
}

impl std::fmt::Display for CrashSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "crash@{} drop={:?} torn={:?}",
            self.crash_index, self.dropped, self.torn
        )
    }
}

impl CrashSite {
    /// A clean crash at `crash_index`: every buffered op survives whole.
    pub fn clean(crash_index: usize) -> CrashSite {
        CrashSite {
            crash_index,
            dropped: Vec::new(),
            torn: Vec::new(),
        }
    }

    /// Number of adversarial perturbations (drops plus tears).
    pub fn perturbations(&self) -> usize {
        self.dropped.len() + self.torn.len()
    }
}

/// Materialize the durable filesystem image at `site` — a pure function
/// of the recorded schedule, so every crash state is replayable.
///
/// Semantics: walking ops `0..crash_index`, a [`SimOp::Barrier`] makes
/// everything before it durable in program order.  Of the final
/// un-barriered window, ops in `site.dropped` are discarded and ops in
/// `site.torn` keep only a sector prefix; the survivors apply in program
/// order.  Applying an arbitrary *subset* in program order is exactly as
/// expressive as applying a reordering: any prefix-closed reordering of
/// independent writes produces a state some subset also produces.
pub fn crash_state(schedule: &[SimOp], site: &CrashSite, sector: usize) -> SimState {
    let end = site.crash_index.min(schedule.len());
    let mut durable = SimState::new();
    let mut window: Vec<usize> = Vec::new();
    for (i, op) in schedule.iter().take(end).enumerate() {
        if matches!(op, SimOp::Barrier) {
            for &j in &window {
                apply_op(&mut durable, &schedule[j], sector, None);
            }
            window.clear();
        } else {
            window.push(i);
        }
    }
    for &j in &window {
        if site.dropped.contains(&j) {
            continue;
        }
        let torn_keep = site.torn.iter().find(|&&(i, _)| i == j).map(|&(_, k)| k);
        apply_op(&mut durable, &schedule[j], sector, torn_keep);
    }
    durable
}

/// Indices of the un-barriered (buffered) ops at the instant just before
/// op `crash_index` is issued.
fn window_before(schedule: &[SimOp], crash_index: usize) -> Vec<usize> {
    let end = crash_index.min(schedule.len());
    let mut window = Vec::new();
    for (i, op) in schedule.iter().take(end).enumerate() {
        if matches!(op, SimOp::Barrier) {
            window.clear();
        } else {
            window.push(i);
        }
    }
    window
}

/// Every crash prefix of `schedule` times every adversarial choice:
/// all `2^w` survive/drop subsets of each crash point's un-barriered
/// window, plus every strict sector-prefix tear of each buffered
/// data-carrying op (with the rest of the window intact — a tear
/// combined with drops of *other* ops is dominated by one of the subset
/// states for detection purposes, and the combination space would be
/// exponential twice over).
///
/// # Panics
/// If any un-barriered window exceeds [`EXHAUSTIVE_PENDING_CAP`]: that
/// many buffered ops means the protocol under test barely barriers, and
/// exhaustive enumeration would be astronomically large.
pub fn crash_sites_exhaustive(schedule: &[SimOp], sector: usize) -> Vec<CrashSite> {
    let mut sites = Vec::new();
    for k in 0..=schedule.len() {
        let window = window_before(schedule, k);
        assert!(
            window.len() <= EXHAUSTIVE_PENDING_CAP,
            "un-barriered window of {} ops at crash point {k} exceeds the exhaustive cap {} — \
             is the protocol missing barriers?",
            window.len(),
            EXHAUSTIVE_PENDING_CAP
        );
        for mask in 0u32..(1u32 << window.len()) {
            let dropped: Vec<usize> = window
                .iter()
                .enumerate()
                .filter(|&(bit, _)| mask & (1 << bit) != 0)
                .map(|(_, &idx)| idx)
                .collect();
            sites.push(CrashSite {
                crash_index: k,
                dropped,
                torn: Vec::new(),
            });
        }
        for &w in &window {
            let sectors = schedule[w].sectors(sector);
            for keep in 1..sectors {
                sites.push(CrashSite {
                    crash_index: k,
                    dropped: Vec::new(),
                    torn: vec![(w, keep)],
                });
            }
        }
    }
    sites
}

/// `count` seeded crash sites: crash index, survive/drop subset, and an
/// optional tear, all pure functions of `(seed, sample index)` — the
/// large-`n` sampling mode.  Printing a failing sample's `CrashSite`
/// (or just `(seed, index)`) reproduces it exactly.
pub fn crash_sites_sampled(
    schedule: &[SimOp],
    sector: usize,
    seed: u64,
    count: usize,
) -> Vec<CrashSite> {
    let mut sites = Vec::with_capacity(count);
    for s in 0..count {
        let s64 = s as u64;
        let k = (coord_hash(seed, &[s64, 0]) % (schedule.len() as u64 + 1)) as usize;
        let window = window_before(schedule, k);
        let mut dropped = Vec::new();
        if !window.is_empty() {
            let bits = coord_hash(seed, &[s64, 1]);
            for (bit, &idx) in window.iter().enumerate() {
                if bits & (1 << (bit % 64)) != 0 {
                    dropped.push(idx);
                }
            }
        }
        let mut torn = Vec::new();
        if !window.is_empty() && coord_hash(seed, &[s64, 2]).is_multiple_of(2) {
            let w = window[(coord_hash(seed, &[s64, 3]) % window.len() as u64) as usize];
            let sectors = schedule[w].sectors(sector);
            if sectors > 1 {
                let keep = 1 + (coord_hash(seed, &[s64, 4]) % (sectors as u64 - 1)) as usize;
                dropped.retain(|&d| d != w);
                torn.push((w, keep));
            }
        }
        sites.push(CrashSite {
            crash_index: k,
            dropped,
            torn,
        });
    }
    sites
}

/// Greedily shrink a failing crash site to a minimal one: remove drops,
/// un-tear writes, and pull the crash point earlier, keeping each step
/// only while `fails` still reports the failure.  The result is
/// 1-minimal — removing any single remaining perturbation makes the
/// failure disappear — and its `Display` form is the reproducible
/// minimal fault plan.
pub fn shrink_site(site: &CrashSite, mut fails: impl FnMut(&CrashSite) -> bool) -> CrashSite {
    let mut cur = site.clone();
    loop {
        let mut progressed = false;
        for i in (0..cur.dropped.len()).rev() {
            let mut cand = cur.clone();
            cand.dropped.remove(i);
            if fails(&cand) {
                cur = cand;
                progressed = true;
            }
        }
        for i in (0..cur.torn.len()).rev() {
            let mut cand = cur.clone();
            cand.torn.remove(i);
            if fails(&cand) {
                cur = cand;
                progressed = true;
            }
        }
        // The crash point cannot move below the highest op it perturbs.
        let floor = cur
            .dropped
            .iter()
            .copied()
            .chain(cur.torn.iter().map(|&(i, _)| i))
            .max()
            .map_or(0, |m| m + 1);
        while cur.crash_index > floor {
            let mut cand = cur.clone();
            cand.crash_index -= 1;
            if fails(&cand) {
                cur = cand;
                progressed = true;
            } else {
                break;
            }
        }
        if !progressed {
            return cur;
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn reads_observe_buffered_writes_but_power_cut_discards_them() {
        let mut d = SimDisk::new(4);
        d.write_file("a", b"hello");
        assert_eq!(d.read("a").unwrap(), b"hello");
        d.power_cut();
        assert!(!d.exists("a"), "un-barriered write dies with the power");

        d.write_file("a", b"hello");
        d.barrier();
        d.append("a", b" world");
        assert_eq!(d.read("a").unwrap(), b"hello world");
        d.power_cut();
        assert_eq!(d.read("a").unwrap(), b"hello", "barriered prefix survives");
    }

    #[test]
    fn write_at_zero_fills_and_roundtrips() {
        let mut d = SimDisk::new(4);
        d.write_at("f", 8, b"xy");
        assert_eq!(d.read("f").unwrap(), vec![0, 0, 0, 0, 0, 0, 0, 0, b'x', b'y']);
        let mut buf = [0u8; 2];
        d.read_at("f", 8, &mut buf).unwrap();
        assert_eq!(&buf, b"xy");
        assert!(d.read_at("f", 9, &mut buf).is_err(), "read past end");
    }

    #[test]
    fn crash_state_applies_subsets_in_program_order() {
        let mut d = SimDisk::new(4);
        d.write_file("f", b"AAAA"); // op 0
        d.barrier(); // op 1
        d.write_file("f", b"BBBB"); // op 2
        d.write_file("f", b"CCCC"); // op 3
        let sched = d.schedule().to_vec();

        // Crash before op 2: only the barriered content.
        let s = crash_state(&sched, &CrashSite::clean(2), 4);
        assert_eq!(s["f"], b"AAAA");
        // All buffered ops survive: last writer wins.
        let s = crash_state(&sched, &CrashSite::clean(4), 4);
        assert_eq!(s["f"], b"CCCC");
        // Drop the later write: the earlier buffered one shows through —
        // this is exactly "reordered past a missing barrier".
        let s = crash_state(
            &sched,
            &CrashSite {
                crash_index: 4,
                dropped: vec![3],
                torn: vec![],
            },
            4,
        );
        assert_eq!(s["f"], b"BBBB");
    }

    #[test]
    fn torn_writes_keep_a_sector_prefix() {
        let mut d = SimDisk::new(2);
        d.write_file("f", b"abcdef"); // 3 sectors of 2 bytes
        let sched = d.schedule().to_vec();
        let s = crash_state(
            &sched,
            &CrashSite {
                crash_index: 1,
                dropped: vec![],
                torn: vec![(0, 2)],
            },
            2,
        );
        assert_eq!(s["f"], b"abcd", "two of three sectors survive");
    }

    #[test]
    fn metadata_ops_are_atomic_but_individually_losable() {
        let mut d = SimDisk::new(4);
        d.write_file("a", b"data"); // 0
        d.barrier(); // 1
        d.rename("a", "b"); // 2
        let sched = d.schedule().to_vec();
        let s = crash_state(&sched, &CrashSite::clean(3), 4);
        assert!(s.contains_key("b") && !s.contains_key("a"));
        let s = crash_state(
            &sched,
            &CrashSite {
                crash_index: 3,
                dropped: vec![2],
                torn: vec![],
            },
            4,
        );
        assert!(s.contains_key("a") && !s.contains_key("b"));
    }

    #[test]
    fn exhaustive_sites_cover_every_prefix_and_subset() {
        let mut d = SimDisk::new(4);
        d.write_file("a", b"12345678"); // 2 sectors
        d.write_file("b", b"1234"); // 1 sector
        d.barrier();
        d.write_file("c", b"1234");
        let sched = d.schedule().to_vec();
        let sites = crash_sites_exhaustive(&sched, 4);
        // Crash points 0..=4; window sizes 0,1,2,0,1 -> subsets 1+2+4+1+2;
        // tears: op 0 has 2 sectors -> 1 tear site, visible at k=1 and k=2.
        let subsets = 1 + 2 + 4 + 1 + 2;
        let tears = 2;
        assert_eq!(sites.len(), subsets + tears);
        // Every materialization is well-formed (no panics, pure).
        for site in &sites {
            let a = crash_state(&sched, site, 4);
            let b = crash_state(&sched, site, 4);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn sampled_sites_are_deterministic_per_seed() {
        let mut d = SimDisk::new(4);
        for i in 0..10 {
            d.write_file(&format!("f{i}"), b"0123456789abcdef");
            if i % 3 == 0 {
                d.barrier();
            }
        }
        let sched = d.schedule().to_vec();
        let a = crash_sites_sampled(&sched, 4, 7, 50);
        let b = crash_sites_sampled(&sched, 4, 7, 50);
        assert_eq!(a, b);
        let c = crash_sites_sampled(&sched, 4, 8, 50);
        assert_ne!(a, c, "different seed, different sites");
    }

    #[test]
    fn shrinker_reaches_a_one_minimal_site() {
        // Failure model: the site fails iff op 5 is dropped (the "data
        // write the broken protocol forgot to barrier").
        let noisy = CrashSite {
            crash_index: 9,
            dropped: vec![3, 5, 7],
            torn: vec![(6, 1)],
        };
        let fails = |s: &CrashSite| s.dropped.contains(&5);
        let min = shrink_site(&noisy, fails);
        assert_eq!(min.dropped, vec![5]);
        assert!(min.torn.is_empty());
        assert_eq!(min.crash_index, 6, "crash point pulled to just past op 5");
        assert_eq!(min.perturbations(), 1);
    }
}
