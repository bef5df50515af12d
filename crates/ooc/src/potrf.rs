//! Out-of-core blocked Cholesky: Algorithm 4 against the backing store,
//! through a bounded set of resident tiles — the driver loop every run
//! goes through, the LRU order the planner replays, and the error type.

use crate::backend::IoBackend;
use crate::checkpoint::{simulated_crash, unhealable, Checkpointing, MAX_RESTORE_RETRIES};
use crate::pipeline::{ooc_potrf_pipelined_with, PipelineConfig};
use cholcomm_faults::Store;
use cholcomm_matrix::schedule::{self, TileGrid, TileStore};
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
/// regression test below drives the factorization and the tick model
/// side by side).
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
}

/// What the one driver loop ([`drive`]) needs from a tile front beyond
/// the schedule's gets and puts.
///
/// The arithmetic and its order are [`cholcomm_matrix::schedule`]'s; how
/// tiles actually move — inline on the compute thread or prefetched by
/// I/O workers ahead of it, see [`pipeline`](crate::pipeline) — is the
/// front's business.  Because every front sees the *same* logical
/// get/put sequence and the schedule is data-oblivious, any two fronts
/// that deliver the stored tile values produce bit-identical factors by
/// construction.
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
    fn flush_boundary(&mut self) -> Result<(), OocError>;
    /// Forget everything in RAM ahead of a checkpoint restore; compute
    /// resumes at panel `k`.  Discarding dirty tiles is deliberate —
    /// they are exactly what the restore rolls back.
    fn reset(&mut self, k: usize);
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
                front.with_backend(|be| ck.ckpt.save(ck.store, be, k + 1))?;
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
        ck.ckpt.remove(ck.store)?;
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
    ck.report.checkpoint_bytes += front.with_backend(|be| ck.ckpt.restore(ck.store, be))?;
    Ok(())
}

/// Out-of-core blocked right-looking Cholesky on the backing store,
/// with `capacity_tiles` tiles resident and every tile move blocking the
/// compute thread: the pipeline at zero I/O workers (see
/// [`PipelineConfig::with_io_workers`]), the baseline the paper's
/// sequential I/O counts describe.  The tile I/O is the same under every
/// kernel engine (see [`cholcomm_matrix::kernels_fast`]).
///
/// On [`OocError::NotSpd`] every dirty tile is written back before the
/// error is returned, so the file holds every update that completed
/// before the failing pivot (a partially factored matrix, documented —
/// not a torn one).
pub fn ooc_potrf_with<B: IoBackend>(
    fm: &mut B,
    capacity_tiles: usize,
    kernel: KernelImpl,
) -> Result<(), OocError> {
    let cfg = PipelineConfig::new(capacity_tiles)
        .with_io_workers(0)
        .with_kernel(kernel);
    ooc_potrf_pipelined_with(fm, &cfg).map(drop)
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
    use crate::tilefile::{scratch_path, FileMatrix};
    use cholcomm_matrix::digest::fnv1a;
    use cholcomm_matrix::{kernels, norms, spd};

    #[test]
    fn ooc_factors_match_in_memory() {
        let mut rng = spd::test_rng(195);
        for (n, b, cap) in [(32usize, 8usize, 4usize), (24, 8, 3), (40, 8, 6)] {
            let a = spd::random_spd(n, &mut rng);
            let path = scratch_path("factor");
            let mut fm = FileMatrix::create(&path, &a, b).unwrap();
            ooc_potrf_with(&mut fm, cap, KernelImpl::Reference).unwrap();
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
            ooc_potrf_with(&mut fm, cap, KernelImpl::Reference).unwrap();
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
        ooc_potrf_with(&mut fm, 4, KernelImpl::Reference).unwrap();
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
        match ooc_potrf_with(&mut fm, 4, KernelImpl::Reference) {
            Err(OocError::NotSpd { pivot, value }) => {
                assert_eq!(pivot, 9);
                assert!(value < 0.0);
            }
            other => panic!("expected pivot failure, got {other:?}"),
        }
    }

    #[test]
    fn indefinite_leaves_completed_updates_on_disk() {
        // The documented guarantee: on a pivot failure every dirty tile
        // is written back, so the first panels (factored before the bad pivot)
        // are on disk, not lost in RAM.
        let n = 16;
        let mut m = cholcomm_matrix::Matrix::<f64>::identity(n);
        for i in 0..n {
            m[(i, i)] = 4.0;
        }
        m[(12, 12)] = -1.0; // tile (3,3) with b=4 goes bad
        let path = scratch_path("indef-flush");
        let mut fm = FileMatrix::create(&path, &m, 4).unwrap();
        match ooc_potrf_with(&mut fm, 3, KernelImpl::Reference) {
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
        ooc_potrf_with(&mut fm, 5, KernelImpl::Reference).unwrap();
        let got = fm.to_matrix().unwrap();
        let r = norms::cholesky_residual(&a, &got);
        assert!(r < norms::residual_tolerance(21), "residual {r}");
    }

    /// One backend call, spelled the way the pinned op-log digests
    /// spell it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Call {
        Read(usize, usize),
        Write(usize, usize),
        Panel(usize),
    }

    impl std::fmt::Display for Call {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                Call::Read(bi, bj) => write!(f, "R{bi},{bj}"),
                Call::Write(bi, bj) => write!(f, "W{bi},{bj}"),
                Call::Panel(k) => write!(f, "P{k}"),
            }
        }
    }

    /// A backend over RAM that logs every call that reaches it, in
    /// order, for observing eviction / write-back behavior precisely.
    struct LoggingMem {
        n: usize,
        b: usize,
        nb: usize,
        tiles: HashMap<(usize, usize), Matrix<f64>>,
        log: Vec<Call>,
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
                log: Vec::new(),
            }
        }

        /// The tile transfers, without the panel markers.
        fn transfers(&self) -> Vec<Call> {
            self.log
                .iter()
                .copied()
                .filter(|c| !matches!(c, Call::Panel(_)))
                .collect()
        }

        fn reads(&self) -> Vec<(usize, usize)> {
            let reads = self.log.iter().filter_map(|c| match *c {
                Call::Read(bi, bj) => Some((bi, bj)),
                _ => None,
            });
            reads.collect()
        }

        fn writes(&self) -> Vec<(usize, usize)> {
            let writes = self.log.iter().filter_map(|c| match *c {
                Call::Write(bi, bj) => Some((bi, bj)),
                _ => None,
            });
            writes.collect()
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
            self.log.push(Call::Read(bi, bj));
            Ok(self.tiles[&(bi, bj)].clone())
        }
        fn write_tile(&mut self, bi: usize, bj: usize, t: &Matrix<f64>) -> std::io::Result<()> {
            self.log.push(Call::Write(bi, bj));
            self.tiles.insert((bi, bj), t.clone());
            Ok(())
        }
        fn stats(&self) -> crate::IoStats {
            crate::IoStats::default()
        }
        fn path(&self) -> Option<&std::path::Path> {
            None
        }
        fn begin_panel(&mut self, k: usize) {
            self.log.push(Call::Panel(k));
        }
    }

    #[test]
    fn permanent_write_back_failure_stops_the_disk() {
        use crate::backend::FaultyBackend;
        use crate::pipeline::{ooc_potrf_pipelined_with, PipelineConfig};
        use cholcomm_faults::{DiskFault, FaultPlan};

        let a = spd::random_spd(24, &mut spd::test_rng(199));
        let mut clean = LoggingMem::new(&a, 8);
        ooc_potrf_with(&mut clean, 3, KernelImpl::Reference).unwrap();
        let clean = clean.transfers();
        // The first eviction write-back, failed on every attempt up to
        // the cap so the failure is permanent.
        let op = clean
            .iter()
            .position(|c| matches!(c, Call::Write(..)))
            .unwrap();
        assert!(
            clean[op..].iter().any(|c| matches!(c, Call::Read(..))),
            "an eviction, with reads behind it: {clean:?}"
        );
        let mut builder = FaultPlan::builder(0).max_fault_attempts(3);
        for attempt in 1..=4 {
            builder = builder.inject_disk_fault(op as u64, attempt, DiskFault::TransientEio);
        }
        let plan = builder.build();
        for workers in [0usize, 1] {
            let mut fb = FaultyBackend::new(LoggingMem::new(&a, 8), plan.clone());
            let cfg = PipelineConfig::new(3).with_io_workers(workers);
            let done = ooc_potrf_pipelined_with(&mut fb, &cfg);
            assert!(matches!(done, Err(OocError::Io(_))), "W={workers}: {done:?}");
            // Nothing was attempted after the failed write, and exactly
            // the transfers before it landed.
            assert_eq!(fb.ops(), op as u64 + 1, "W={workers}");
            assert_eq!(fb.inner().transfers(), clean[..op], "W={workers}");
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
        /// The final flush: every dirty tile, in key order.
        fn flush(&self) -> Vec<(usize, usize)> {
            let mut dirty: Vec<_> = self
                .tiles
                .iter()
                .filter(|(_, (d, _))| *d)
                .map(|(&k, _)| k)
                .collect();
            dirty.sort_unstable();
            dirty
        }
    }

    #[test]
    fn lru_index_reproduces_the_tick_model_exactly() {
        // The factorization stream through the inline (W = 0) front,
        // where eviction order shapes the on-disk write pattern end to
        // end: miss sequence and write-backs equal the tick model's.
        let a = spd::random_spd(40, &mut spd::test_rng(201));
        let b = 8;
        let nb = a.rows().div_ceil(b);
        for cap in [3usize, 5] {
            let mut mem = LoggingMem::new(&a, b);
            ooc_potrf_with(&mut mem, cap, KernelImpl::Reference).unwrap();
            // Replay the same logical schedule into the model.
            let mut model = TickModel::new(cap);
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
            assert_eq!(mem.reads(), model.misses, "cap {cap}: factor miss sequence");
            let want = [model.evict_writes.clone(), model.flush()].concat();
            assert_eq!(mem.writes(), want, "cap {cap}: factor write-back order");
        }
    }

    #[test]
    fn zero_workers_replay_the_synchronous_drivers_io() {
        use crate::checkpoint::Checkpoint;
        use crate::pipeline::{ooc_potrf_checkpointed, PipelineConfig};
        use cholcomm_faults::FsStore;

        // Pinned from the synchronous driver that W = 0 replaced: the
        // digest of its backend call log (tile transfers interleaved
        // with `begin_panel`), and its `IoStats` on a real file, plain
        // and checkpointed, as (reads, writes, bytes read, bytes
        // written, seeks, seek distance).
        const OP_LOGS: [(usize, usize, usize, u64); 3] = [
            (40, 8, 3, 0x657769a15b73a5dc),
            (40, 8, 5, 0xe16864690c753b26),
            (37, 8, 4, 0x5ebf0652278a3de1),
        ];
        type Io = (u64, u64, u64, u64, u64, u64);
        const IO_STATS: [(usize, usize, usize, Io, Io); 4] = [
            (40, 8, 3, (46, 33, 23552, 16896, 74, 209408), (46, 35, 23552, 17920, 73, 196096)),
            (40, 8, 5, (36, 31, 18432, 15872, 62, 220672), (36, 35, 18432, 17920, 59, 195072)),
            (37, 8, 4, (38, 31, 19456, 15872, 64, 192000), (38, 35, 19456, 17920, 62, 166400)),
            (64, 8, 12, (105, 104, 53760, 53248, 197, 1734144), (105, 120, 53760, 61440, 181, 1469952)),
        ];
        for (n, b, cap, want) in OP_LOGS {
            let mut mem = LoggingMem::new(&spd::random_spd(n, &mut spd::test_rng(901)), b);
            ooc_potrf_with(&mut mem, cap, KernelImpl::Reference).unwrap();
            let log: Vec<String> = mem.log.iter().map(Call::to_string).collect();
            assert_eq!(fnv1a(log.join(" ").as_bytes()), want, "n={n} b={b} cap={cap}");
        }
        let io = |fm: &FileMatrix| {
            let s = fm.stats();
            (s.reads, s.writes, s.bytes_read, s.bytes_written, s.seeks, s.seek_distance)
        };
        for (n, b, cap, plain, checkpointed) in IO_STATS {
            let a = spd::random_spd(n, &mut spd::test_rng(900));
            let mut fm = FileMatrix::create(&scratch_path("w0-io"), &a, b).unwrap();
            ooc_potrf_with(&mut fm, cap, KernelImpl::Reference).unwrap();
            assert_eq!(io(&fm), plain, "n={n} b={b} cap={cap}, plain");
            let path = scratch_path("w0-io-ck");
            let mut fm = FileMatrix::create(&path, &a, b).unwrap();
            let ckpt = Checkpoint::at(&path.with_extension("ckpt"));
            let cfg = PipelineConfig::new(cap).with_io_workers(0);
            ooc_potrf_checkpointed(&mut fm, &ckpt, &mut FsStore::new(), &cfg).unwrap();
            assert_eq!(io(&fm), checkpointed, "n={n} b={b} cap={cap}, checkpointed");
        }
    }
}
