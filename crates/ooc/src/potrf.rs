//! Out-of-core blocked Cholesky: Algorithm 4 against the backing store,
//! through a bounded tile cache.

use crate::backend::IoBackend;
use crate::checkpoint::{simulated_crash, unhealable, Checkpointing, MAX_RESTORE_RETRIES};
use cholcomm_faults::{FsStore, Store};
use cholcomm_matrix::schedule::{self, TileGrid, TileStore, WORKING_SET};
use cholcomm_matrix::{KernelImpl, Matrix, MatrixError};
use std::collections::HashMap;
use std::sync::Arc;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct LruSlot {
    key: (usize, usize),
    prev: usize,
    next: usize,
}

/// Recency order over tile keys: a doubly-linked list threaded through
/// a slot arena with a key → slot map, so *touch* and *evict-oldest*
/// are both O(1).  Same intrusive-list pattern as the cachesim crate's
/// LRU tracer; replaces the old per-eviction O(resident) min-tick scan.
/// Pure bookkeeping — which tile is least recent is exactly what the
/// tick ordering said, so resident-set behavior is unchanged (the
/// regression test below drives both models side by side).
#[derive(Debug)]
pub(crate) struct LruIndex {
    map: HashMap<(usize, usize), usize>,
    slots: Vec<LruSlot>,
    /// Most recently used.
    head: usize,
    /// Least recently used — the eviction candidate.
    tail: usize,
    free: Vec<usize>,
}

impl LruIndex {
    pub(crate) fn new() -> Self {
        LruIndex {
            map: HashMap::new(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
        }
    }

    fn unlink(&mut self, s: usize) {
        let (prev, next) = (self.slots[s].prev, self.slots[s].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next].prev = prev;
        }
    }

    fn push_front(&mut self, s: usize) {
        self.slots[s].prev = NIL;
        self.slots[s].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = s;
        }
        self.head = s;
        if self.tail == NIL {
            self.tail = s;
        }
    }

    /// Mark `key` as just used (inserting it if new).
    pub(crate) fn touch(&mut self, key: (usize, usize)) {
        if let Some(&s) = self.map.get(&key) {
            if self.head != s {
                self.unlink(s);
                self.push_front(s);
            }
            return;
        }
        let s = match self.free.pop() {
            Some(s) => {
                self.slots[s].key = key;
                s
            }
            None => {
                self.slots.push(LruSlot {
                    key,
                    prev: NIL,
                    next: NIL,
                });
                self.slots.len() - 1
            }
        };
        self.map.insert(key, s);
        self.push_front(s);
    }

    /// Forget `key` (no-op if absent).
    pub(crate) fn remove(&mut self, key: (usize, usize)) {
        if let Some(s) = self.map.remove(&key) {
            self.unlink(s);
            self.free.push(s);
        }
    }

    /// The least recently used key, if any.
    pub(crate) fn lru(&self) -> Option<(usize, usize)> {
        (self.tail != NIL).then(|| self.slots[self.tail].key)
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

/// A resident tile: shared with the walk by [`TileStore::get`], empty
/// between a [`TileStore::take`] and the `put` that refills it.
pub(crate) type Slot = Option<Arc<Matrix<f64>>>;

/// What a resident slot hands the walk: a share of its tile, or — for a
/// take — the tile itself, leaving the slot empty.
pub(crate) fn hand_out(slot: &mut Slot, take: bool) -> Arc<Matrix<f64>> {
    if take { slot.take() } else { slot.clone() }
        .expect("a taken tile is put back before it is fetched again")
}

/// An LRU cache of tiles standing in for fast memory: at most
/// `capacity_tiles` tiles resident; dirty tiles are written back on
/// eviction and at the end.  Tiles cross to the walk by reference: a
/// `get` shares the resident `Arc`, a `take` moves it out until its
/// `put`, so no tile is copied inside fast memory.
///
/// # Error guarantee
///
/// If a write-back fails (eviction or [`flush`](Self::flush)), the
/// cache **poisons itself**: the failed tile and every other dirty tile
/// stay marked dirty, and all further operations return
/// [`OocError::CachePoisoned`].  Nothing is silently dropped — the
/// caller knows the file no longer matches the computation and must
/// discard or re-create it.  Errors in the *computation* (a
/// [`NotSpd`](OocError::NotSpd) pivot) do not
/// poison the cache; [`ooc_potrf`] flushes before reporting them, so
/// the file then holds every update completed before the bad pivot.
#[derive(Debug)]
pub struct TileCache {
    capacity_tiles: usize,
    tiles: HashMap<(usize, usize), (Slot, bool)>, // (tile, dirty)
    order: LruIndex,
    poisoned: bool,
}

impl TileCache {
    /// Cache holding at most `capacity_tiles` tiles.
    pub fn new(capacity_tiles: usize) -> Self {
        assert!(
            capacity_tiles >= WORKING_SET,
            "Algorithm 4 needs three tiles resident"
        );
        TileCache {
            capacity_tiles,
            tiles: HashMap::new(),
            order: LruIndex::new(),
            poisoned: false,
        }
    }

    fn check_poison(&self) -> Result<(), OocError> {
        if self.poisoned {
            Err(OocError::CachePoisoned)
        } else {
            Ok(())
        }
    }

    fn evict_if_full<B: IoBackend>(&mut self, fm: &mut B) -> Result<(), OocError> {
        while self.tiles.len() >= self.capacity_tiles {
            let key = self.order.lru().ok_or(OocError::CachePoisoned)?;
            // Write back *before* removing: if the write fails the tile
            // stays resident and dirty, and the cache is poisoned.  (A
            // taken tile is never the oldest: its put follows its take.)
            if let Some((Some(tile), dirty)) = self.tiles.get(&key) {
                if *dirty {
                    if let Err(e) = fm.write_tile(key.0, key.1, tile) {
                        self.poisoned = true;
                        return Err(OocError::Io(e));
                    }
                }
            }
            self.tiles.remove(&key);
            self.order.remove(key);
        }
        Ok(())
    }

    /// Fetch a tile (from cache or the backing store), shared with the
    /// cache.
    pub fn get<B: IoBackend>(
        &mut self,
        fm: &mut B,
        bi: usize,
        bj: usize,
    ) -> Result<Arc<Matrix<f64>>, OocError> {
        self.fetch(fm, bi, bj, false)
    }

    /// Fetch a tile to overwrite it: its slot stays resident, and dirty
    /// if it was, but empty until the tile is [`put`](Self::put) back.
    pub fn take<B: IoBackend>(
        &mut self,
        fm: &mut B,
        bi: usize,
        bj: usize,
    ) -> Result<Arc<Matrix<f64>>, OocError> {
        self.fetch(fm, bi, bj, true)
    }

    fn fetch<B: IoBackend>(
        &mut self,
        fm: &mut B,
        bi: usize,
        bj: usize,
        take: bool,
    ) -> Result<Arc<Matrix<f64>>, OocError> {
        self.check_poison()?;
        let key = (bi, bj);
        if !self.tiles.contains_key(&key) {
            self.evict_if_full(fm)?;
            let t = fm.read_tile(bi, bj)?;
            self.tiles.insert(key, (Some(Arc::new(t)), false));
        }
        self.order.touch(key);
        let (slot, _) = self
            .tiles
            .get_mut(&key)
            .expect("the tile was just made resident");
        Ok(hand_out(slot, take))
    }

    /// Install an updated tile (marks it dirty).
    pub fn put<B: IoBackend>(
        &mut self,
        fm: &mut B,
        bi: usize,
        bj: usize,
        tile: Arc<Matrix<f64>>,
    ) -> Result<(), OocError> {
        self.check_poison()?;
        if let Some(slot) = self.tiles.get_mut(&(bi, bj)) {
            *slot = (Some(tile), true);
            self.order.touch((bi, bj));
            return Ok(());
        }
        self.evict_if_full(fm)?;
        self.tiles.insert((bi, bj), (Some(tile), true));
        self.order.touch((bi, bj));
        Ok(())
    }

    /// Write every dirty tile back.  On failure the cache is poisoned
    /// and every not-yet-written tile remains dirty.
    pub fn flush<B: IoBackend>(&mut self, fm: &mut B) -> Result<(), OocError> {
        self.check_poison()?;
        let mut keys: Vec<(usize, usize)> = self.tiles.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            if let Some((Some(tile), dirty)) = self.tiles.get(&key) {
                if *dirty {
                    if let Err(e) = fm.write_tile(key.0, key.1, tile) {
                        self.poisoned = true;
                        return Err(OocError::Io(e));
                    }
                }
            }
            if let Some(slot) = self.tiles.get_mut(&key) {
                slot.1 = false;
            }
        }
        Ok(())
    }

    /// Currently resident tiles.
    pub fn resident(&self) -> usize {
        self.tiles.len()
    }

    /// Currently resident *dirty* (not yet written back) tiles.
    pub fn dirty(&self) -> usize {
        self.tiles.values().filter(|(_, d)| *d).count()
    }

    /// Has a failed write-back poisoned this cache?
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Drop all cached state — but refuse if doing so would silently
    /// lose un-flushed updates: a poisoned cache, or any dirty tile,
    /// makes this an error ([`OocError::WouldDiscardDirty`]).  Callers
    /// who *mean* to throw dirty state away (checkpoint restore, where
    /// everything in RAM is stale by definition) must say so with
    /// [`clear_discarding`](Self::clear_discarding).
    pub fn clear(&mut self) -> Result<(), OocError> {
        let dirty = self.dirty();
        if self.poisoned || dirty > 0 {
            return Err(OocError::WouldDiscardDirty { dirty });
        }
        self.clear_discarding();
        Ok(())
    }

    /// Drop all cached state unconditionally, discarding dirty tiles
    /// and un-poisoning the cache.  The recovery path: correct only
    /// when the backing store is about to be (or was just) rewritten
    /// from an authoritative copy.
    pub fn clear_discarding(&mut self) {
        self.tiles.clear();
        self.order.clear();
        self.poisoned = false;
    }
}

/// What the one driver loop ([`drive`]) needs from a tile front beyond
/// the schedule's gets and puts.
///
/// The arithmetic and its order are [`cholcomm_matrix::schedule`]'s; how
/// tiles actually move — synchronously through a [`TileCache`], or
/// prefetched ahead of the compute front by the
/// [`pipeline`](crate::pipeline) — is the front's business.  Because
/// every front sees the *same* logical get/put sequence and the schedule
/// is data-oblivious, any two fronts that deliver the stored tile values
/// produce bit-identical factors by construction.
pub(crate) trait Front: TileStore<Tile = Arc<Matrix<f64>>, Error = OocError> {
    /// The backend under the front.
    type Backend: IoBackend;
    /// Run `f` on the backend, serialized with any tile traffic the
    /// front has in flight.
    fn with_backend<R>(&mut self, f: impl FnOnce(&mut Self::Backend) -> R) -> R;
    /// Write every dirty tile back: the end of a run, or the
    /// leave-a-well-defined-file answer to a bad pivot.
    fn flush_final(&mut self) -> Result<(), OocError>;
    /// The flush at a panel boundary: every update of the finished panel
    /// must be in the backend before the checkpoint snapshots it.
    fn flush_boundary(&mut self) -> Result<(), OocError> {
        self.flush_final()
    }
    /// Forget everything in RAM ahead of a checkpoint restore; compute
    /// resumes at panel `k`.  Discarding dirty tiles is deliberate —
    /// they are exactly what the restore rolls back.
    fn reset(&mut self, k: usize);
}

/// The synchronous front: a backend behind a [`TileCache`], tile moves
/// blocking the compute thread — the baseline the paper's sequential
/// I/O counts describe, and the only front for backends that cannot
/// cross threads.
pub(crate) struct CachedFront<'a, B: IoBackend> {
    pub(crate) fm: &'a mut B,
    pub(crate) cache: TileCache,
}

impl<B: IoBackend> TileStore for CachedFront<'_, B> {
    type Tile = Arc<Matrix<f64>>;
    type Error = OocError;

    fn begin_panel(&mut self, k: usize) {
        self.fm.begin_panel(k);
    }
    fn get(&mut self, bi: usize, bj: usize) -> Result<Arc<Matrix<f64>>, OocError> {
        self.cache.get(self.fm, bi, bj)
    }
    fn take(&mut self, bi: usize, bj: usize) -> Result<Arc<Matrix<f64>>, OocError> {
        self.cache.take(self.fm, bi, bj)
    }
    fn put(&mut self, bi: usize, bj: usize, tile: Arc<Matrix<f64>>) -> Result<(), OocError> {
        self.cache.put(self.fm, bi, bj, tile)
    }
}

impl<B: IoBackend> Front for CachedFront<'_, B> {
    type Backend = B;

    fn with_backend<R>(&mut self, f: impl FnOnce(&mut B) -> R) -> R {
        f(self.fm)
    }
    fn flush_final(&mut self) -> Result<(), OocError> {
        self.cache.flush(self.fm)
    }
    fn reset(&mut self, _k: usize) {
        self.cache.clear_discarding();
    }
}

/// The out-of-core driver loop: panels `start..nb` of the right-looking
/// schedule through `front`, with the panel-granularity checkpoint
/// protocol when `ck` is given.  Tile gets and puts (the I/O the
/// out-of-core analysis counts) are identical under every engine and
/// every front; only the in-memory tile arithmetic changes with the
/// engine, and only the tile *transport* changes with the front.
pub(crate) fn drive<F: Front, St: Store>(
    front: &mut F,
    kernel: KernelImpl,
    start: usize,
    mut ck: Option<Checkpointing<'_, St>>,
) -> Result<(), OocError> {
    let grid = front.with_backend(|be| TileGrid::new(be.n(), be.b()));
    let nb = grid.nb();
    for k in start..nb {
        let mut retries = 0;
        loop {
            match schedule::factor(front, grid, k..k + 1, kernel) {
                Ok(()) => break,
                Err(e @ OocError::NotSpd { .. }) => {
                    // Leave the file in a well-defined state: everything
                    // up to the bad pivot is written back.  A flush
                    // failure outranks the pivot failure.
                    front.flush_final()?;
                    return Err(e);
                }
                Err(e) => roll_back(front, &mut ck, &mut retries, k, e)?,
            }
        }
        if let Some(ck) = ck.as_mut() {
            if front.with_backend(|be| be.crash_after_panel(k)) {
                // The plan kills us after the panel but before its
                // checkpoint: dirty tiles and queued write-backs die
                // with the process.
                return Err(simulated_crash());
            }
            front.flush_boundary()?;
            ck.report.checkpoint_bytes +=
                front.with_backend(|be| ck.ckpt.save_in(ck.store, be, k + 1))?;
            ck.report.checkpoints_written += 1;
            ck.report.panels_done += 1;
        }
    }
    if ck.is_none() {
        front.flush_final()?;
    }

    // Integrity scrub: a checksumming backend re-verifies every stored
    // tile, so a corruption landing after a tile's last algorithmic
    // read still cannot escape into the output.  Unhealable corruption
    // surfaces as an I/O error here; a checkpointed run answers it like
    // any other — the last checkpoint (written after the final panel)
    // holds the finished factor, so rolling back and re-scrubbing
    // converges.
    let mut retries = 0;
    while let Err(e) = front.with_backend(|be| be.scrub()) {
        roll_back(front, &mut ck, &mut retries, nb, e.into())?;
    }

    if let Some(ck) = ck {
        // The factor must be durable in the data file *before* the
        // checkpoint that could rebuild it is deleted.
        front.with_backend(|be| be.barrier())?;
        ck.ckpt.remove_in(ck.store)?;
    }
    Ok(())
}

/// Answer `err` by rolling the file back to the last committed
/// checkpoint so the caller can retry from panel `k` — if the run has
/// checkpoints, the error is unhealable corruption, and the retry
/// budget allows.  Otherwise hand the error back.
fn roll_back<F: Front, St: Store>(
    front: &mut F,
    ck: &mut Option<Checkpointing<'_, St>>,
    retries: &mut usize,
    k: usize,
    err: OocError,
) -> Result<(), OocError> {
    let Some(ck) = ck
        .as_mut()
        .filter(|_| unhealable(&err) && *retries < MAX_RESTORE_RETRIES)
    else {
        return Err(err);
    };
    *retries += 1;
    ck.report.restores += 1;
    // Reset *before* the restore: everything in RAM reflects the
    // poisoned panel run, no stale read may be consumed and no stale
    // write-back may land on the freshly restored file.
    front.reset(k);
    ck.report.checkpoint_bytes += front.with_backend(|be| ck.ckpt.restore_in(ck.store, be))?;
    Ok(())
}

/// Out-of-core blocked right-looking Cholesky on the backing store,
/// with a cache of `capacity_tiles` tiles.  Returns the I/O-visible
/// error or the factorization error.
///
/// On [`OocError::NotSpd`] the cache is flushed before the
/// error is returned, so the file holds every update that completed
/// before the failing pivot (a partially factored matrix, documented —
/// not a torn one).
pub fn ooc_potrf<B: IoBackend>(fm: &mut B, capacity_tiles: usize) -> Result<(), OocError> {
    ooc_potrf_with(fm, capacity_tiles, KernelImpl::Reference)
}

/// [`ooc_potrf`] with an explicit kernel engine (same tile I/O, same
/// bits; see [`cholcomm_matrix::kernels_fast`]).
pub fn ooc_potrf_with<B: IoBackend>(
    fm: &mut B,
    capacity_tiles: usize,
    kernel: KernelImpl,
) -> Result<(), OocError> {
    let cache = TileCache::new(capacity_tiles);
    drive::<_, FsStore>(&mut CachedFront { fm, cache }, kernel, 0, None)
}

/// Errors from the out-of-core factorization.
#[derive(Debug)]
pub enum OocError {
    /// Not positive definite at the given global pivot.
    NotSpd {
        /// 0-based failing pivot.
        pivot: usize,
        /// The non-positive pivot value.
        value: f64,
    },
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// A numerical kernel failed for a reason other than definiteness.
    Matrix(MatrixError),
    /// A previous dirty write-back failed; cached state no longer
    /// matches the file and all further cache operations are refused.
    CachePoisoned,
    /// [`TileCache::clear`] was asked to drop un-flushed updates; the
    /// caller must flush first or opt in with
    /// [`TileCache::clear_discarding`].
    WouldDiscardDirty {
        /// Dirty tiles that would have been lost.
        dirty: usize,
    },
}

impl From<std::io::Error> for OocError {
    fn from(e: std::io::Error) -> Self {
        OocError::Io(e)
    }
}

impl From<MatrixError> for OocError {
    fn from(e: MatrixError) -> Self {
        match e {
            MatrixError::NotSpd { pivot, value } => OocError::NotSpd { pivot, value },
            other => OocError::Matrix(other),
        }
    }
}

impl std::fmt::Display for OocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OocError::NotSpd { pivot, value } => {
                write!(f, "not positive definite at pivot {pivot} (value {value})")
            }
            OocError::Io(e) => write!(f, "I/O error: {e}"),
            OocError::Matrix(e) => write!(f, "matrix error: {e}"),
            OocError::CachePoisoned => {
                write!(f, "tile cache poisoned by an earlier failed write-back")
            }
            OocError::WouldDiscardDirty { dirty } => {
                write!(
                    f,
                    "refusing to clear a cache holding {dirty} dirty tile(s); \
                     flush first or use clear_discarding()"
                )
            }
        }
    }
}

impl std::error::Error for OocError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OocError::Io(e) => Some(e),
            OocError::Matrix(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::filemat::{scratch_path, FileMatrix};
    use cholcomm_matrix::{kernels, norms, spd};

    #[test]
    fn ooc_factors_match_in_memory() {
        let mut rng = spd::test_rng(195);
        for (n, b, cap) in [(32usize, 8usize, 4usize), (24, 8, 3), (40, 8, 6)] {
            let a = spd::random_spd(n, &mut rng);
            let path = scratch_path("factor");
            let mut fm = FileMatrix::create(&path, &a, b).unwrap();
            ooc_potrf(&mut fm, cap).unwrap();
            let got = fm.to_matrix().unwrap().lower_triangle().unwrap();
            let mut want = a.clone();
            kernels::potf2(&mut want).unwrap();
            let want = want.lower_triangle().unwrap();
            let diff = norms::max_abs_diff(&got, &want);
            assert!(diff < 1e-9, "n={n} b={b} cap={cap}: {diff}");
        }
    }

    #[test]
    fn smaller_cache_means_more_real_io() {
        let mut rng = spd::test_rng(196);
        let n = 64;
        let b = 8;
        let a = spd::random_spd(n, &mut rng);

        let mut io = Vec::new();
        for cap in [3usize, 8, 40] {
            let path = scratch_path(&format!("cap{cap}"));
            let mut fm = FileMatrix::create(&path, &a, b).unwrap();
            ooc_potrf(&mut fm, cap).unwrap();
            io.push(fm.stats().bytes_read);
        }
        assert!(io[0] > io[1], "cap 3 reads {} > cap 8 reads {}", io[0], io[1]);
        assert!(io[1] > io[2], "cap 8 reads {} > cap 40 reads {}", io[1], io[2]);
        // With the whole matrix cached, reads are compulsory only.
        let tiles = (n / b) * (n / b);
        assert!(io[2] <= (tiles * b * b * 8) as u64);
    }

    #[test]
    fn seeks_follow_the_latency_story() {
        // Block-contiguous on disk: tile moves are one seek + one stream,
        // so seeks track the simulator's message counts.
        let mut rng = spd::test_rng(197);
        let n = 48;
        let a = spd::random_spd(n, &mut rng);
        let path = scratch_path("seeks");
        let mut fm = FileMatrix::create(&path, &a, 8).unwrap();
        ooc_potrf(&mut fm, 4).unwrap();
        let s = fm.stats();
        assert!(
            s.seeks <= s.reads + s.writes + 1,
            "each transfer is at most one seek: {s:?}"
        );
        assert!(s.reads > 0 && s.writes > 0);
    }

    #[test]
    fn indefinite_detected_through_the_file() {
        let mut m = cholcomm_matrix::Matrix::<f64>::identity(16);
        m[(9, 9)] = -4.0;
        let path = scratch_path("indef");
        let mut fm = FileMatrix::create(&path, &m, 4).unwrap();
        match ooc_potrf(&mut fm, 4) {
            Err(OocError::NotSpd { pivot, value }) => {
                assert_eq!(pivot, 9);
                assert!(value < 0.0);
            }
            other => panic!("expected pivot failure, got {other:?}"),
        }
    }

    #[test]
    fn indefinite_leaves_completed_updates_on_disk() {
        // The documented guarantee: on a pivot failure the cache is
        // flushed, so the first panels (factored before the bad pivot)
        // are on disk, not lost in RAM.
        let n = 16;
        let mut m = cholcomm_matrix::Matrix::<f64>::identity(n);
        for i in 0..n {
            m[(i, i)] = 4.0;
        }
        m[(12, 12)] = -1.0; // tile (3,3) with b=4 goes bad
        let path = scratch_path("indef-flush");
        let mut fm = FileMatrix::create(&path, &m, 4).unwrap();
        match ooc_potrf(&mut fm, 3) {
            Err(OocError::NotSpd { pivot, .. }) => assert_eq!(pivot, 12),
            other => panic!("expected pivot failure, got {other:?}"),
        }
        let back = fm.to_matrix().unwrap();
        assert_eq!(back[(0, 0)], 2.0, "first diagonal tile was factored and flushed");
    }

    #[test]
    fn ragged_sizes_work() {
        let mut rng = spd::test_rng(198);
        let a = spd::random_spd(21, &mut rng);
        let path = scratch_path("ragged");
        let mut fm = FileMatrix::create(&path, &a, 8).unwrap();
        ooc_potrf(&mut fm, 5).unwrap();
        let got = fm.to_matrix().unwrap();
        let r = norms::cholesky_residual(&a, &got);
        assert!(r < norms::residual_tolerance(21), "residual {r}");
    }

    #[test]
    fn poisoned_cache_refuses_everything() {
        use crate::backend::FaultyBackend;
        use cholcomm_faults::{DiskFault, FaultPlan};

        let mut rng = spd::test_rng(199);
        let a = spd::random_spd(16, &mut rng);
        let path = scratch_path("poison");
        let fm = FileMatrix::create(&path, &a, 8).unwrap();
        // Ops 0..=2 are the three cache-fill reads; op 3 is the first
        // flush write-back.  Fail it on every attempt up to the cap so
        // the flush error is permanent.
        let mut builder = FaultPlan::builder(0).max_fault_attempts(3);
        for attempt in 1..=4 {
            builder = builder.inject_disk_fault(3, attempt, DiskFault::TransientEio);
        }
        let mut fb = FaultyBackend::new(fm, builder.build());
        let mut cache = TileCache::new(3);
        for (bi, bj) in [(0, 0), (1, 0), (0, 1)] {
            let t = cache.get(&mut fb, bi, bj).unwrap();
            cache.put(&mut fb, bi, bj, t).unwrap();
        }
        assert!(matches!(cache.flush(&mut fb), Err(OocError::Io(_))));
        assert!(cache.is_poisoned());
        assert!(matches!(
            cache.get(&mut fb, 0, 0),
            Err(OocError::CachePoisoned)
        ));
        assert!(matches!(
            cache.flush(&mut fb),
            Err(OocError::CachePoisoned)
        ));
        assert!(
            matches!(cache.clear(), Err(OocError::WouldDiscardDirty { .. })),
            "a poisoned cache still holds dirty tiles; clear() must refuse"
        );
        cache.clear_discarding();
        assert!(!cache.is_poisoned(), "clear_discarding() is the recovery path");
    }

    #[test]
    fn clear_refuses_dirty_tiles_but_not_clean_ones() {
        let mut rng = spd::test_rng(200);
        let a = spd::random_spd(16, &mut rng);
        let path = scratch_path("clear");
        let mut fm = FileMatrix::create(&path, &a, 8).unwrap();
        let mut cache = TileCache::new(3);
        let t = cache.get(&mut fm, 0, 0).unwrap();
        cache.clear().unwrap(); // clean resident tiles may be dropped
        assert_eq!(cache.resident(), 0);
        cache.put(&mut fm, 0, 0, t).unwrap();
        match cache.clear() {
            Err(OocError::WouldDiscardDirty { dirty }) => assert_eq!(dirty, 1),
            other => panic!("expected WouldDiscardDirty, got {other:?}"),
        }
        assert_eq!(cache.resident(), 1, "refused clear must not drop anything");
        cache.flush(&mut fm).unwrap();
        cache.clear().unwrap(); // flushed tiles are clean again
    }

    /// A backend over RAM that records the order of its tile writes, for
    /// observing eviction / write-back behavior precisely.
    struct LoggingMem {
        n: usize,
        b: usize,
        nb: usize,
        tiles: HashMap<(usize, usize), Matrix<f64>>,
        reads: Vec<(usize, usize)>,
        writes: Vec<(usize, usize)>,
    }

    impl LoggingMem {
        fn new(a: &Matrix<f64>, b: usize) -> Self {
            let n = a.rows();
            let nb = n.div_ceil(b);
            let mut tiles = HashMap::new();
            for bj in 0..nb {
                for bi in 0..nb {
                    tiles.insert(
                        (bi, bj),
                        Matrix::from_fn(b, b, |i, j| {
                            let (gi, gj) = (bi * b + i, bj * b + j);
                            if gi < n && gj < n {
                                a[(gi, gj)]
                            } else {
                                0.0
                            }
                        }),
                    );
                }
            }
            LoggingMem {
                n,
                b,
                nb,
                tiles,
                reads: Vec::new(),
                writes: Vec::new(),
            }
        }
    }

    impl IoBackend for LoggingMem {
        fn n(&self) -> usize {
            self.n
        }
        fn b(&self) -> usize {
            self.b
        }
        fn nb(&self) -> usize {
            self.nb
        }
        fn read_tile(&mut self, bi: usize, bj: usize) -> std::io::Result<Matrix<f64>> {
            self.reads.push((bi, bj));
            Ok(self.tiles[&(bi, bj)].clone())
        }
        fn write_tile(&mut self, bi: usize, bj: usize, t: &Matrix<f64>) -> std::io::Result<()> {
            self.writes.push((bi, bj));
            self.tiles.insert((bi, bj), t.clone());
            Ok(())
        }
        fn stats(&self) -> crate::IoStats {
            crate::IoStats::default()
        }
        fn path(&self) -> Option<&std::path::Path> {
            None
        }
    }

    /// The pre-LRU-index model: per-tile last-use ticks, evict the
    /// minimum.  The intrusive list must reproduce its behavior exactly.
    struct TickModel {
        capacity: usize,
        tiles: HashMap<(usize, usize), (bool, u64)>, // (dirty, last use)
        tick: u64,
        evict_writes: Vec<(usize, usize)>,
        misses: Vec<(usize, usize)>,
    }

    impl TickModel {
        fn new(capacity: usize) -> Self {
            TickModel {
                capacity,
                tiles: HashMap::new(),
                tick: 0,
                evict_writes: Vec::new(),
                misses: Vec::new(),
            }
        }
        fn evict_if_full(&mut self) {
            while self.tiles.len() >= self.capacity {
                let key = self
                    .tiles
                    .iter()
                    .min_by_key(|(_, (_, t))| *t)
                    .map(|(&k, _)| k)
                    .expect("non-empty");
                if self.tiles[&key].0 {
                    self.evict_writes.push(key);
                }
                self.tiles.remove(&key);
            }
        }
        fn get(&mut self, key: (usize, usize)) {
            self.tick += 1;
            if let Some(slot) = self.tiles.get_mut(&key) {
                slot.1 = self.tick;
                return;
            }
            self.evict_if_full();
            self.misses.push(key);
            self.tiles.insert(key, (false, self.tick));
        }
        fn put(&mut self, key: (usize, usize)) {
            self.tick += 1;
            if let Some(slot) = self.tiles.get_mut(&key) {
                *slot = (true, self.tick);
                return;
            }
            self.evict_if_full();
            self.tiles.insert(key, (true, self.tick));
        }
    }

    #[test]
    fn lru_index_reproduces_the_tick_model_exactly() {
        // Drive the real cache and the old tick model through the same
        // access stream (a seeded mix of gets and puts, plus the real
        // Algorithm 4 stream) and require identical miss sequences,
        // eviction write-back order, and final resident sets.
        let mut rng = spd::test_rng(201);
        let a = spd::random_spd(40, &mut rng);
        let b = 8;
        let nb = a.rows().div_ceil(b);
        for cap in [3usize, 4, 6] {
            let mut mem = LoggingMem::new(&a, b);
            let mut cache = TileCache::new(cap);
            let mut model = TickModel::new(cap);
            // Seeded pseudo-random access stream over the lower triangle.
            let mut state = 0x5EEDu64 ^ (cap as u64);
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 33
            };
            for _ in 0..400 {
                let bj = (next() as usize) % nb;
                let bi = bj + (next() as usize) % (nb - bj);
                if next().is_multiple_of(3) {
                    let t = cache.get(&mut mem, bi, bj).unwrap();
                    cache.put(&mut mem, bi, bj, t).unwrap();
                    model.get((bi, bj));
                    model.put((bi, bj));
                } else {
                    cache.get(&mut mem, bi, bj).unwrap();
                    model.get((bi, bj));
                }
            }
            assert_eq!(mem.reads, model.misses, "cap {cap}: miss sequence");
            assert_eq!(mem.writes, model.evict_writes, "cap {cap}: write-back order");
            let mut resident: Vec<_> = cache.tiles.keys().copied().collect();
            resident.sort_unstable();
            let mut model_resident: Vec<_> = model.tiles.keys().copied().collect();
            model_resident.sort_unstable();
            assert_eq!(resident, model_resident, "cap {cap}: resident set");
        }
        // And the real factorization stream, where eviction order shapes
        // the on-disk write pattern end to end.
        for cap in [3usize, 5] {
            let mut mem = LoggingMem::new(&a, b);
            let mut model = TickModel::new(cap);
            let mut front = CachedFront {
                fm: &mut mem,
                cache: TileCache::new(cap),
            };
            schedule::factor(&mut front, TileGrid::new(a.rows(), b), 0..nb, KernelImpl::Reference)
                .unwrap();
            // Replay the same logical schedule into the model.
            for k in 0..nb {
                model.get((k, k));
                model.put((k, k));
                for i in (k + 1)..nb {
                    model.get((i, k));
                    model.put((i, k));
                }
                for j in (k + 1)..nb {
                    model.get((j, k));
                    for i in j..nb {
                        model.get((i, k));
                        model.get((i, j));
                        model.put((i, j));
                    }
                }
            }
            assert_eq!(mem.reads, model.misses, "cap {cap}: factor miss sequence");
            assert_eq!(
                mem.writes, model.evict_writes,
                "cap {cap}: factor write-back order"
            );
        }
    }
}
