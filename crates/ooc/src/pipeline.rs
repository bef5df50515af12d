//! The out-of-core front: the schedule's tile I/O planned ahead, and
//! run either inline on the compute thread or overlapped with compute on
//! dedicated I/O workers.
//!
//! The blocked tile schedule is *data-oblivious* — the sequence of gets
//! and puts of the left-looking walk of the paper's Algorithm 4
//! ([`walk_left`], which writes
//! each lower tile once), run in super-columns of `w` block columns per
//! checkpoint step with `w` = [`super_column_width`]`(capacity)`, is a
//! pure function of `(nb, capacity)` — which means the entire miss
//! stream, every eviction victim, and every write-back is known before
//! the factorization starts.  This module exploits that:
//!
//! 1. A deterministic **planner** (`Plan`) replays an LRU cache of
//!    `capacity_tiles` tiles over the walk's accesses (never evicting a
//!    tile the walk holds between its get and its put) and emits one
//!    `PlannedFetch` per miss: the tile to read, the victims to evict
//!    (with their dirtiness), `ready_at` — the earliest compute
//!    position at which issuing the fetch is safe (one past the last
//!    compute access of every victim) — and whether the read is an
//!    update operand: a finished off-diagonal panel tile, which the read
//!    job packs into the update kernels' micro-panel layout where it
//!    lands (on the I/O worker at W ≥ 1, inline at W = 0), so the
//!    arithmetic uses it as it is.
//! 2. The **front** (`PipelineFront`) runs that plan on
//!    `io_workers = W` dedicated I/O threads ([`cholcomm_par::io_scope`]).
//!    At **W = 0** there are none: each fetch, with its evictions, runs
//!    inline at its own miss, and each write-back where it is issued, so
//!    every tile move blocks the compute thread and wall time is
//!    `compute + I/O` — the synchronous driver
//!    ([`ooc_potrf_with`](crate::ooc_potrf_with)).  At W ≥ 1 the front
//!    walks the plan ahead of compute, issuing up to `lookahead`
//!    outstanding reads on the workers and deferring dirty write-backs
//!    onto the same workers; compute only stalls when it reaches a miss
//!    whose read has not landed yet.
//! 3. An **epoch barrier** at each super-column boundary
//!    (`PipelineFront::flush_boundary`) drains every deferred
//!    write-back before the checkpoint layer snapshots the data file,
//!    so the journaled commit protocol of
//!    [`checkpoint`](crate::checkpoint) is preserved unchanged.
//!
//! # Why the factor is bit-identical
//!
//! The front reorders *transport*, never *arithmetic*: the compute loop
//! is the same schedule walk ([`cholcomm_matrix::schedule`]) under the
//! same driver loop at every W, and every get returns the same stored
//! values it returns at W = 0 — plain or packed, which the update
//! kernels read to the same bits.  The walk hands each tile its updates
//! in ascending `k`, as the in-memory walks do, so its factor is theirs.
//! Three hazards could break that, and each is closed structurally:
//!
//! * **Evict-before-last-use** — a victim may not leave the in-RAM set
//!   while compute still needs it.  Closed by `ready_at`: the planner
//!   knows each victim's final access position, and the front never
//!   issues a fetch (hence never evicts) before compute has passed it.
//! * **Read-after-write** — a prefetch of a tile with a pending
//!   deferred write-back must observe the write.  Closed in
//!   `PipeIo`: a read job blocks until no write of its tile is
//!   queued or in flight (the conflicting write is always *submitted*
//!   earlier, so this never deadlocks, even with one worker).
//! * **Write-after-write** — two write-backs of one tile must not
//!   race.  Closed by ordering: a second eviction of tile `X` can only
//!   be issued after compute re-fetched and re-dirtied `X`, and that
//!   re-fetch read already waited out the first write.  The front
//!   asserts this invariant at enqueue.
//!
//! At W = 0 the backend sees the plan's ops in plan order, with
//! `begin_panel` exactly where the schedule reaches each panel: the op
//! order, the I/O counts and the peak residency of an LRU cache driven
//! access by access.  With one I/O worker the submitted job order is the
//! same op order, so even per-op fault plans
//! ([`FaultyBackend`](crate::FaultyBackend)) fire at identical op indices
//! at W = 0 and W = 1.  With more workers only the completion order
//! changes; the bytes never do.  The first failed op stops the disk at
//! every W: no job queued behind it touches the backend.
//!
//! # What is charged where
//!
//! Latency is *modeled*, not measured: the backend advertises a
//! [`LatencyModel`] and the front samples it per enqueued op into
//! [`PipelineStats::modeled_io_us`].  [`model_overlap`] runs the same
//! plan through a deterministic event simulator — a synchronous leg
//! (every op serialized on one timeline) against a pipelined leg
//! (reads/writes on `io_workers` timelines, stalls only at unready
//! misses) — which is what `ooc_bench` gates the overlap claim on.
//! Set [`PipelineConfig::sleep_latency`] to make every op really sleep
//! its sampled cost where it runs: on the I/O workers, or inline on the
//! compute thread at W = 0 — the measured synchronous leg.

use crate::backend::{IoBackend, LatencyModel};
use crate::checkpoint::{Checkpoint, CheckpointReport, Checkpointing};
use crate::potrf::{drive, Front, LruIndex, OocError};
use cholcomm_faults::{DiskOp, FsStore, Store};
use cholcomm_matrix::schedule::{super_columns, walk_left, MatrixTile, TileOp, TileStore, Work};
use cholcomm_matrix::{KernelImpl, Matrix, Operand, PackedTile};
use cholcomm_par::io::{io_scope, IoScope};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::convert::Infallible;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A tile in RAM, shared between the resident set, the walk and a
/// pending write-back: as stored, or — a finished panel tile fetched as
/// an update operand — in the micro-panel layout the update kernels read
/// (see [`PlannedFetch::operand`]).  A packed tile is final and clean:
/// it is never a target, so never written.
#[derive(Debug, Clone)]
pub(crate) struct Tile(pub(crate) Arc<Form>);

/// The two forms of a [`Tile`].
#[derive(Debug, Clone)]
pub(crate) enum Form {
    Plain(Matrix<f64>),
    Packed(PackedTile),
}

impl MatrixTile<f64> for Tile {
    fn matrix(&self) -> &Matrix<f64> {
        match &*self.0 {
            Form::Plain(m) => m,
            Form::Packed(_) => unreachable!("a packed tile is read only as an update operand"),
        }
    }
    fn matrix_mut(&mut self) -> &mut Matrix<f64> {
        match Arc::make_mut(&mut self.0) {
            Form::Plain(m) => m,
            Form::Packed(_) => unreachable!("a packed tile is final, never a target"),
        }
    }
    fn operand(&self) -> Operand<'_, f64> {
        match &*self.0 {
            Form::Plain(m) => Operand::Plain(m),
            Form::Packed(p) => Operand::Packed(p),
        }
    }
}

impl Tile {
    /// A tile just read: packed in its own storage when `pack` (see
    /// [`PackedTile::replacing`]: in place for whole 16-row strips), kept
    /// as read otherwise.
    fn landed(tile: Matrix<f64>, pack: bool) -> Tile {
        Tile(Arc::new(if pack {
            Form::Packed(PackedTile::replacing(tile))
        } else {
            Form::Plain(tile)
        }))
    }
}

/// A resident tile: shared with the walk by [`TileStore::get`], empty
/// between a [`TileStore::take`] and the `put` that refills it.
type Slot = Option<Tile>;

/// What a resident slot hands the walk: a share of its tile, or — for a
/// take — the tile itself, leaving the slot empty.
fn hand_out(slot: &mut Slot, take: bool) -> Tile {
    if take { slot.take() } else { slot.clone() }
        .expect("a taken tile is put back before it is fetched again")
}

/// Tiles the schedule holds live at once inside one trailing-update
/// step (`lj`, `li`, and the updated tile) — the floor under the
/// default lookahead so prefetch depth never cannibalizes the working
/// set.
pub use cholcomm_matrix::schedule::WORKING_SET;

/// The super-column width the out-of-core driver runs the left-looking
/// walk at, a pure function of the cache capacity: the largest `w` with
/// `w (w + 2) + WORKING_SET <= capacity_tiles`, and 1 below 11 tiles.
///
/// A chunk of [`walk_left`] holds `w^2` targets from their first update
/// to their put and fetches `2w` operands per panel step; the rest of
/// the cache keeps a [`WORKING_SET`] free for the tiles passing through,
/// so a chunk's operands are never evicted while it still reads them.
/// That makes the block `w b = Theta(sqrt(M))` for `M` = `capacity_tiles`
/// tiles of `b^2` words, the block size at which the paper's Algorithm 4
/// moves `O(n^3 / sqrt(M))` words: `w = 4` at `ooc_file`'s 36 tiles,
/// against `sqrt(M / 3) = 3.5` tiles.  The widths run 1 (up to 10
/// tiles), 2 (11–17), 3 (18–26), 4 (27–37), 5 (38–50).
pub fn super_column_width(capacity_tiles: usize) -> usize {
    let mut w = 1;
    while (w + 1) * (w + 3) + WORKING_SET <= capacity_tiles {
        w += 1;
    }
    w
}

/// I/O workers from `CHOLCOMM_IO_WORKERS`, clamped to `1..=8`;
/// defaults to 2 (one read stream, one write-back stream).
pub fn io_workers_from_env() -> usize {
    std::env::var("CHOLCOMM_IO_WORKERS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .map_or(2, |w| w.clamp(1, 8))
}

/// Configuration for the out-of-core drivers.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// In-RAM tile budget of the (planned) LRU cache.
    pub capacity_tiles: usize,
    /// Dedicated I/O worker threads (see [`io_workers_from_env`]).  Zero
    /// runs every tile move inline on the compute thread: the
    /// synchronous driver.
    pub io_workers: usize,
    /// Maximum outstanding (issued but unconsumed) prefetches.  Peak
    /// RAM is `capacity_tiles + lookahead` tiles plus pending
    /// write-backs.  Moot at zero workers, where each fetch is issued at
    /// its own miss.
    pub lookahead: usize,
    /// Kernel engine for the tile arithmetic.
    pub kernel: KernelImpl,
    /// Make each op really sleep its sampled latency where it runs — on
    /// the I/O workers, or on the compute thread at zero workers (for
    /// measured overlap benches).  Off, latency is only tallied.
    pub sleep_latency: bool,
}

/// The default prefetch depth at most.  It pays when transfers are fast
/// — about as long as the compute between two misses, as from a
/// page-cached file — so a window of 8 already hides them, and a
/// prefetched tile (packed, if it is an update operand) is consumed a
/// few tiles after it lands, while it is still in cache: at
/// `ooc_file`'s shape a depth of 8 read 13% less CPU time per pass than
/// the whole spare capacity (33), with as few stalls (EXPERIMENTS.md,
/// E23).  On a slow device a deeper window hides more latency: set it
/// with [`PipelineConfig::with_lookahead`].
const MAX_DEFAULT_LOOKAHEAD: usize = 8;

impl PipelineConfig {
    /// Defaults: workers from the environment, lookahead =
    /// `capacity_tiles - WORKING_SET` clamped to `1..=8`, reference
    /// kernels, latency tallied but not slept.
    pub fn new(capacity_tiles: usize) -> Self {
        assert!(
            capacity_tiles >= WORKING_SET,
            "Algorithm 4 needs three tiles resident"
        );
        PipelineConfig {
            capacity_tiles,
            io_workers: io_workers_from_env(),
            lookahead: (capacity_tiles - WORKING_SET).clamp(1, MAX_DEFAULT_LOOKAHEAD),
            kernel: KernelImpl::Reference,
            sleep_latency: false,
        }
    }

    /// Set the I/O worker count; 0 is the synchronous driver.
    pub fn with_io_workers(mut self, workers: usize) -> Self {
        self.io_workers = workers;
        self
    }

    /// Set the prefetch depth.
    pub fn with_lookahead(mut self, lookahead: usize) -> Self {
        self.lookahead = lookahead.max(1);
        self
    }

    /// Set the kernel engine.
    pub fn with_kernel(mut self, kernel: KernelImpl) -> Self {
        self.kernel = kernel;
        self
    }

    /// Sleep sampled latency where each op runs.
    pub fn with_sleep_latency(mut self, sleep: bool) -> Self {
        self.sleep_latency = sleep;
        self
    }
}

/// What a run did (transport-side; the factor itself is bit-identical
/// at every worker count by construction).
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineStats {
    /// Tile reads issued (= the plan's misses, at every worker count).
    pub fetches: u64,
    /// Misses whose read had already landed when compute arrived.
    pub prefetch_hits: u64,
    /// Misses compute had to block on (every miss at zero workers).
    pub prefetch_stalls: u64,
    /// Dirty evictions written back.
    pub evict_writes: u64,
    /// Boundary/final flush writes.
    pub flush_writes: u64,
    /// Reads packed into the update kernels' layout where they landed
    /// (on an I/O worker, or inline at zero workers).
    pub packed_fetches: u64,
    /// Total modeled latency of every enqueued op, µs (what a
    /// synchronous run would have blocked on).
    pub modeled_io_us: u64,
    /// Tile updates an I/O worker ran between transfers (none at zero
    /// workers).  It depends on timing, so it is no count of the run:
    /// no digest or `results/` file holds it.
    pub helped_updates: u64,
}

impl PipelineStats {
    /// Fraction of misses served without a stall.
    pub fn hit_rate(&self) -> f64 {
        if self.fetches == 0 {
            1.0
        } else {
            self.prefetch_hits as f64 / self.fetches as f64
        }
    }
}

/// One logical tile access of the schedule, plus the super-column
/// boundary marker the checkpointed driver flushes at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Access {
    Get(usize, usize),
    /// The op whose result is installed (in its target tile).
    Put(TileOp),
    /// A super-column just finished; checkpointed runs flush here.
    Boundary,
}

/// The store that carries no tiles: walking the schedule over it
/// records the access stream every real front will see.
struct Recorder<'a> {
    /// Shared with the walk's `apply`, which notes where each op runs.
    ops: &'a RefCell<Vec<Access>>,
}

impl TileStore for Recorder<'_> {
    type Tile = ();
    type Error = Infallible;

    fn get(&mut self, bi: usize, bj: usize) -> Result<(), Infallible> {
        self.ops.borrow_mut().push(Access::Get(bi, bj));
        Ok(())
    }
    /// Every put of the left-looking walk is final: it installs the
    /// tile's factor or solve.
    fn put(&mut self, bi: usize, bj: usize, _tile: ()) -> Result<(), Infallible> {
        self.ops
            .borrow_mut()
            .push(Access::Put(TileOp::of(bi, bj, bj)));
        Ok(())
    }
}

/// One planned miss: what to read, what must leave the cache to make
/// room, and when it is safe to do so.
#[derive(Debug, Clone)]
struct PlannedFetch {
    tile: (usize, usize),
    /// Op position of the miss this fetch serves.
    miss_pos: usize,
    /// Earliest op position at which the fetch (and its evictions) may
    /// be issued: one past the last compute access of every victim.
    ready_at: usize,
    /// Victims in eviction order, with planned dirtiness.
    evict: Vec<((usize, usize), bool)>,
    /// The miss reads a finished off-diagonal panel tile `(i, k)` as an
    /// update operand (of a tile in a column `j > k`): it is final, so
    /// every later access reads it the same way, and the front converts
    /// it to the update kernels' packed layout where it lands.
    operand: bool,
}

/// The deterministic lookahead plan: the access stream of the walk over
/// block columns `start..nb`, super-column by super-column, with the LRU
/// cache simulated over it.
#[derive(Debug)]
struct Plan {
    ops: Vec<Access>,
    /// Every applied op, at the position of the access that follows it.
    applied: Vec<(usize, TileOp)>,
    fetches: Vec<PlannedFetch>,
    /// Per [`Access::Boundary`], the dirty tiles its flush writes, in
    /// the sorted order the front writes them.
    boundary_writes: Vec<Vec<(usize, usize)>>,
    /// Sorted dirty tiles the final flush writes (plain mode).
    final_writes: Vec<(usize, usize)>,
    /// Dirty evictions across all fetches.
    evict_writes: u64,
}

impl Plan {
    fn new(
        nb: usize,
        capacity: usize,
        width: usize,
        start: usize,
        flush_at_boundaries: bool,
    ) -> Plan {
        assert!(
            capacity >= WORKING_SET,
            "Algorithm 4 needs three tiles resident"
        );
        let ops = RefCell::new(Vec::new());
        let mut rec = Recorder { ops: &ops };
        let mut applied = Vec::new();
        for cols in super_columns(start..nb, width) {
            let Ok(()) = walk_left(&mut rec, nb, cols, width, |op, _, _| {
                applied.push((ops.borrow().len(), op));
                Ok(())
            });
            if flush_at_boundaries {
                ops.borrow_mut().push(Access::Boundary);
            }
        }
        let ops = ops.into_inner();

        // The walk holds a tile from a get whose next access is its put
        // (a chunk's targets, across their updates): the cache keeps it
        // while held.
        let mut held_from = vec![false; ops.len()];
        let mut next_is_put: HashMap<(usize, usize), bool> = HashMap::new();
        for (pos, op) in ops.iter().enumerate().rev() {
            match *op {
                Access::Get(bi, bj) => {
                    held_from[pos] = next_is_put.insert((bi, bj), false) == Some(true);
                }
                Access::Put(op) => {
                    next_is_put.insert(op.target(), true);
                }
                Access::Boundary => {}
            }
        }

        // Replay an LRU cache of `capacity` tiles over the schedule: a
        // miss evicts least-recently-used tiles the walk does not hold
        // until one slot is free.
        let mut lru = LruIndex::new();
        let mut resident: HashMap<(usize, usize), bool> = HashMap::new(); // key -> dirty
        let mut held: HashSet<(usize, usize)> = HashSet::new();
        let mut last_access: HashMap<(usize, usize), usize> = HashMap::new();
        // Tiles put: each put is a factor or a solve, final from then on.
        // Every column before `start` was finished by an earlier run.
        let mut finished: HashSet<(usize, usize)> = HashSet::new();
        // Position of the boundary flush that last cleaned each tile
        // (dirty -> clean without an access).  A victim the planner saw
        // *clean* only because a boundary flushed it must not be
        // evicted before that flush runs, or the front would evict it
        // dirty — `ready_at` is clamped past the boundary below.
        let mut cleaned_at: HashMap<(usize, usize), usize> = HashMap::new();
        let mut fetches: Vec<PlannedFetch> = Vec::new();
        let mut boundary_writes = Vec::new();
        let mut evict_writes = 0u64;
        for (pos, op) in ops.iter().enumerate() {
            match *op {
                Access::Get(bi, bj) => {
                    let key = (bi, bj);
                    if resident.contains_key(&key) {
                        lru.touch(key);
                    } else {
                        let mut evict = Vec::new();
                        let mut ready_at = 0usize;
                        while lru.len() >= capacity {
                            let victim = lru
                                .oldest(|key| !held.contains(&key))
                                .expect("a full cache holds a tile the walk does not");
                            let vd = resident.remove(&victim).expect("victim is resident");
                            lru.remove(victim);
                            ready_at = ready_at.max(last_access[&victim] + 1);
                            if vd {
                                evict_writes += 1;
                            } else if let Some(&cp) = cleaned_at.get(&victim) {
                                // Clean only by virtue of a boundary
                                // flush after its last access: the
                                // eviction must wait the flush out.
                                if cp > last_access[&victim] {
                                    ready_at = ready_at.max(cp + 1);
                                }
                            }
                            cleaned_at.remove(&victim);
                            evict.push((victim, vd));
                        }
                        let operand = bi != bj && (bj < start || finished.contains(&key));
                        fetches.push(PlannedFetch {
                            tile: key,
                            miss_pos: pos,
                            ready_at,
                            evict,
                            operand,
                        });
                        resident.insert(key, false);
                        lru.touch(key);
                    }
                    if held_from[pos] {
                        held.insert(key);
                    }
                    last_access.insert(key, pos);
                }
                Access::Put(op) => {
                    let key = op.target();
                    // Every put follows a get of the same tile in the
                    // schedule, and the tile is held in between, so puts
                    // never miss.
                    debug_assert!(resident.contains_key(&key), "put of a non-resident tile");
                    resident.insert(key, true);
                    held.remove(&key);
                    finished.insert(key);
                    lru.touch(key);
                    last_access.insert(key, pos);
                }
                Access::Boundary => {
                    let mut keys: Vec<(usize, usize)> = resident
                        .iter()
                        .filter(|&(_, d)| *d)
                        .map(|(&key, _)| key)
                        .collect();
                    keys.sort_unstable();
                    for &key in &keys {
                        resident.insert(key, false);
                        cleaned_at.insert(key, pos);
                    }
                    boundary_writes.push(keys);
                }
            }
        }
        let mut final_writes: Vec<(usize, usize)> = resident
            .iter()
            .filter(|&(_, d)| *d)
            .map(|(&key, _)| key)
            .collect();
        final_writes.sort_unstable();
        if flush_at_boundaries {
            debug_assert!(final_writes.is_empty(), "boundary flushes leave nothing dirty");
        }
        Plan {
            ops,
            applied,
            fetches,
            boundary_writes,
            final_writes,
            evict_writes,
        }
    }
}

/// Shared state between the compute thread and the I/O workers.
#[derive(Debug)]
struct IoShared {
    /// Completed prefetch reads awaiting consumption.
    fetched: HashMap<(usize, usize), Tile>,
    /// Read jobs enqueued or running.
    reads_inflight: usize,
    /// `begin_panel` jobs enqueued or running.
    panels_inflight: usize,
    /// Write-back payloads enqueued but not yet picked up.
    write_data: HashMap<(usize, usize), Tile>,
    /// Write jobs currently executing.
    write_inflight: HashSet<(usize, usize)>,
    /// First I/O error observed, surfaced to the compute thread.
    error: Option<std::io::Error>,
    /// The run is dead or an op failed: jobs must not touch the disk any
    /// more (until a restore resets the front).
    abort: bool,
}

impl IoShared {
    /// Record a failed op: compute sees the first error, and no job
    /// queued behind it reaches the backend.
    fn fail_with(&mut self, e: std::io::Error) {
        self.error.get_or_insert(e);
        self.abort = true;
    }
}

/// The pipeline's I/O hub: the backend behind a mutex, the shared job
/// state, and the condvar everything rendezvouses on.
#[derive(Debug)]
struct PipeIo<'fm, B: IoBackend> {
    backend: Mutex<&'fm mut B>,
    st: Mutex<IoShared>,
    cv: Condvar,
    model: LatencyModel,
    sleep: bool,
}

impl<'fm, B: IoBackend> PipeIo<'fm, B> {
    fn new(fm: &'fm mut B, sleep: bool) -> Self {
        let model = fm.latency_model();
        PipeIo {
            backend: Mutex::new(fm),
            st: Mutex::new(IoShared {
                fetched: HashMap::new(),
                reads_inflight: 0,
                panels_inflight: 0,
                write_data: HashMap::new(),
                write_inflight: HashSet::new(),
                error: None,
                abort: false,
            }),
            cv: Condvar::new(),
            model,
            sleep,
        }
    }

    /// Run `f` holding the backend lock (begin_panel, checkpoint
    /// save/restore, scrub, barrier — everything that must serialize
    /// with the worker jobs).
    fn with_backend<R>(&self, f: impl FnOnce(&mut B) -> R) -> R {
        let mut be = lock(&self.backend);
        f(&mut **be)
    }

    fn pay(&self, us: u64) {
        if self.sleep && us > 0 {
            std::thread::sleep(std::time::Duration::from_micros(us));
        }
    }

    fn wait<'a>(&self, st: MutexGuard<'a, IoShared>) -> MutexGuard<'a, IoShared> {
        self.cv
            .wait(st)
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Run one backend op, a panic in it becoming an I/O error.
    fn on_backend<T>(&self, op: impl FnOnce(&mut B) -> std::io::Result<T>) -> std::io::Result<T> {
        let mut be = lock(&self.backend);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| op(&mut **be)))
            .unwrap_or_else(|_| Err(std::io::Error::other("a tile transfer panicked")))
    }

    /// Body of a prefetch-read job: the read, then — for an update
    /// operand — the packing, off the compute thread at W ≥ 1.
    fn read_job(&self, tile: (usize, usize), us: u64, pack: bool) {
        self.pay(us);
        let mut st = lock(&self.st);
        // Read-after-write hazard: a pending deferred write-back of this
        // very tile must land first.  The conflicting write job was
        // always submitted before this read, so it is running or done —
        // never queued behind us — and this wait terminates.
        while !st.abort && (st.write_data.contains_key(&tile) || st.write_inflight.contains(&tile))
        {
            st = self.wait(st);
        }
        if st.abort {
            st.reads_inflight -= 1;
            self.cv.notify_all();
            return;
        }
        drop(st);
        let result = self.on_backend(|be| be.read_tile(tile.0, tile.1));
        let result = result.map(|t| Tile::landed(t, pack));
        let mut st = lock(&self.st);
        st.reads_inflight -= 1;
        match result {
            Ok(t) if !st.abort => {
                st.fetched.insert(tile, t);
            }
            Ok(_) => {}
            Err(e) => st.fail_with(e),
        }
        self.cv.notify_all();
    }

    /// Body of a `begin_panel` job: the backend learns that the walk
    /// reached panel `k` behind every read submitted before it.
    fn panel_job(&self, k: usize) {
        if !lock(&self.st).abort {
            self.with_backend(|be| be.begin_panel(k));
        }
        lock(&self.st).panels_inflight -= 1;
        self.cv.notify_all();
    }

    /// Body of a deferred write-back job.
    fn write_job(&self, tile: (usize, usize), us: u64) {
        self.pay(us);
        let data = {
            let mut st = lock(&self.st);
            if st.abort {
                // A dead process's queued write-backs never reach disk,
                // nor do those queued behind a failed op.
                st.write_data.remove(&tile);
                self.cv.notify_all();
                return;
            }
            let Some(data) = st.write_data.remove(&tile) else {
                self.cv.notify_all();
                return;
            };
            st.write_inflight.insert(tile);
            data
        };
        let result = self.on_backend(|be| be.write_tile(tile.0, tile.1, data.matrix()));
        // Let go of the payload before the write counts as landed: the
        // compute thread may still share it (a boundary flush), and once
        // it has waited the write out it takes the tile without a copy.
        drop(data);
        let mut st = lock(&self.st);
        st.write_inflight.remove(&tile);
        if let Err(e) = result {
            st.fail_with(e);
        }
        self.cv.notify_all();
    }

    /// Kill the run: queued jobs become no-ops (crash semantics — a
    /// dead process's buffered write-backs must not land post-mortem).
    fn fail(&self) {
        let mut st = lock(&self.st);
        st.abort = true;
        self.cv.notify_all();
    }

    /// Wait until every deferred write-back (and `begin_panel`) has
    /// landed (the epoch barrier the checkpoint snapshot requires).
    fn drain_writes(&self) -> Result<(), OocError> {
        let mut st = lock(&self.st);
        loop {
            if let Some(e) = st.error.take() {
                return Err(OocError::Io(e));
            }
            if st.write_data.is_empty() && st.write_inflight.is_empty() && st.panels_inflight == 0
            {
                return Ok(());
            }
            st = self.wait(st);
        }
    }

    /// Wait for *every* in-flight job to finish, ignoring errors — the
    /// restore path, where whatever the jobs were doing is moot.
    fn quiesce(&self) {
        let mut st = lock(&self.st);
        while st.reads_inflight > 0
            || st.panels_inflight > 0
            || !st.write_data.is_empty()
            || !st.write_inflight.is_empty()
        {
            st = self.wait(st);
        }
    }
}

/// The one out-of-core [`Front`]: resident tiles in RAM, the plan's
/// fetch stream issued at each miss (W = 0) or ahead of `pos` (W ≥ 1),
/// write-backs run inline or deferred to the I/O workers.
struct PipelineFront<'s, 'env, 'fm, B: IoBackend> {
    io: &'env PipeIo<'fm, B>,
    scope: &'s IoScope<'s, 'env>,
    plan: Plan,
    capacity: usize,
    /// Prefetch window; 0 at W = 0, where each fetch is issued at its
    /// own miss.
    lookahead: usize,
    /// key -> (tile, dirty); mirrors the planned cache exactly, except
    /// victims leave at fetch-*issue* time (provably past their last
    /// use) instead of miss time — the same time at W = 0.
    resident: HashMap<(usize, usize), (Slot, bool)>,
    /// Compute position in `plan.ops`.
    pos: usize,
    /// Next fetch to issue.
    next_fetch: usize,
    /// Fetches consumed by compute.
    fetch_consumed: usize,
    /// Boundary flushes performed.
    boundaries_done: usize,
    /// Backend op sequence number for latency sampling (the W = 0 op
    /// order: evictions before their read, in fetch order).
    op_seq: u64,
    stats: PipelineStats,
    nb: usize,
    /// The run checkpoints: plans carry panel-boundary flushes.
    boundaries: bool,
    /// The engine reads update operands packed: planned operand fetches
    /// are packed where they land.
    pack_operands: bool,
}

impl<'s, 'env, 'fm: 'env, B: IoBackend> PipelineFront<'s, 'env, 'fm, B> {
    fn new(
        io: &'env PipeIo<'fm, B>,
        scope: &'s IoScope<'s, 'env>,
        plan: Plan,
        cfg: &PipelineConfig,
        nb: usize,
        b: usize,
        boundaries: bool,
    ) -> Self {
        PipelineFront {
            io,
            scope,
            plan,
            capacity: cfg.capacity_tiles,
            lookahead: if cfg.io_workers == 0 {
                0
            } else {
                cfg.lookahead.max(1)
            },
            resident: HashMap::new(),
            pos: 0,
            next_fetch: 0,
            fetch_consumed: 0,
            boundaries_done: 0,
            op_seq: 0,
            stats: PipelineStats::default(),
            nb,
            boundaries,
            pack_operands: cfg.kernel.packs_tiles::<f64>(b),
        }
    }

    fn enqueue_read(&mut self, tile: (usize, usize), pack: bool) {
        let us = self.io.model.sample(DiskOp::Read, self.op_seq);
        self.op_seq += 1;
        self.stats.modeled_io_us += us;
        lock(&self.io.st).reads_inflight += 1;
        let io = self.io;
        self.scope.submit(move || io.read_job(tile, us, pack));
    }

    fn enqueue_write(&mut self, tile: (usize, usize), data: Tile) {
        let us = self.io.model.sample(DiskOp::Write, self.op_seq);
        self.op_seq += 1;
        self.stats.modeled_io_us += us;
        {
            let mut st = lock(&self.io.st);
            let prev = st.write_data.insert(tile, data);
            assert!(
                prev.is_none(),
                "write-write hazard: tile {tile:?} enqueued twice"
            );
        }
        let io = self.io;
        self.scope.submit(move || io.write_job(tile, us));
    }

    /// Issue the next planned fetch: its evictions, then its read.
    fn issue(&mut self) {
        let f = &mut self.plan.fetches[self.next_fetch];
        let (tile, pack) = (f.tile, f.operand && self.pack_operands);
        for (victim, planned_dirty) in std::mem::take(&mut f.evict) {
            let (data, dirty) = self
                .resident
                .remove(&victim)
                .expect("planned victim is resident at issue time");
            debug_assert_eq!(dirty, planned_dirty, "planned dirtiness of {victim:?}");
            if dirty {
                let data = data.expect("a held tile is never evicted");
                self.enqueue_write(victim, data);
                self.stats.evict_writes += 1;
            }
        }
        self.enqueue_read(tile, pack);
        self.stats.fetches += 1;
        self.stats.packed_fetches += u64::from(pack);
        self.next_fetch += 1;
    }

    /// Issue every fetch that is within the lookahead window and whose
    /// `ready_at` the compute front has passed.
    fn pump(&mut self) {
        while self.next_fetch < self.plan.fetches.len()
            && self.next_fetch - self.fetch_consumed < self.lookahead
            && self.plan.fetches[self.next_fetch].ready_at <= self.pos
        {
            self.issue();
        }
    }

    /// Block until the prefetch of `tile` lands (or the run errors).
    fn wait_fetched(&mut self, tile: (usize, usize)) -> Result<Tile, OocError> {
        let mut st = lock(&self.io.st);
        // At W = 0 the read ran inline: compute blocked on all of it.
        let mut stalled = self.lookahead == 0;
        loop {
            if let Some(e) = st.error.take() {
                return Err(OocError::Io(e));
            }
            if let Some(t) = st.fetched.remove(&tile) {
                if stalled {
                    self.stats.prefetch_stalls += 1;
                } else {
                    self.stats.prefetch_hits += 1;
                }
                return Ok(t);
            }
            stalled = true;
            st = self.io.wait(st);
        }
    }

    /// Enqueue a write-back of every dirty resident tile, sorted by key,
    /// and mark them clean.  The tiles stay resident, shared with their
    /// write-backs until those land.
    fn enqueue_dirty(&mut self) -> Vec<(usize, usize)> {
        let mut dirty: Vec<_> = self
            .resident
            .iter_mut()
            .filter(|(_, (_, d))| *d)
            .map(|(&key, (t, d))| {
                *d = false;
                (key, hand_out(t, false))
            })
            .collect();
        dirty.sort_unstable_by_key(|&(key, _)| key);
        let keys = dirty.iter().map(|&(key, _)| key).collect();
        for (key, tile) in dirty {
            self.enqueue_write(key, tile);
            self.stats.flush_writes += 1;
        }
        keys
    }

    /// Serve the access at `pos` — from the resident set, or by waiting
    /// out the prefetch of a miss — and advance the front past it.
    fn fetch(&mut self, key: (usize, usize), take: bool) -> Result<Tile, OocError> {
        if !self.resident.contains_key(&key) {
            debug_assert_eq!(
                self.plan.fetches.get(self.fetch_consumed).map(|f| f.tile),
                Some(key),
                "miss stream diverged from the plan"
            );
            if self.next_fetch == self.fetch_consumed {
                // Not prefetched (W = 0 never prefetches): issue it at
                // its own miss, which is at or past its ready_at.
                self.issue();
            }
            self.pump();
            let tile = self.wait_fetched(key)?;
            self.fetch_consumed += 1;
            self.resident.insert(key, (Some(tile), false));
        }
        let (slot, _) = self
            .resident
            .get_mut(&key)
            .expect("the tile was just made resident");
        let tile = hand_out(slot, take);
        self.pos += 1;
        self.pump();
        Ok(tile)
    }
}

impl<'fm: 'env, 'env, B: IoBackend> TileStore for PipelineFront<'_, 'env, 'fm, B> {
    type Tile = Tile;
    type Error = OocError;

    /// Queued like a transfer (inline at W = 0), so a prefetch issued
    /// before the walk reached panel `k` reaches the backend before it:
    /// with one worker the backend sees one op order on every run, and a
    /// fault plan keyed to the panel (`AbftBackend`'s flips) strikes the
    /// same reads.
    fn begin_panel(&mut self, k: usize) {
        lock(&self.io.st).panels_inflight += 1;
        let io = self.io;
        self.scope.submit(move || io.panel_job(k));
    }
    fn get(&mut self, bi: usize, bj: usize) -> Result<Tile, OocError> {
        self.fetch((bi, bj), false)
    }
    /// An I/O worker with no transfer waiting runs the walk's updates
    /// (see [`cholcomm_par::io::IoScope::lend`]); at W = 0 there is none.
    fn lend<R>(
        &mut self,
        work: &Work<'_>,
        body: impl FnOnce(&mut Self, Option<&dyn Fn()>) -> R,
    ) -> R {
        let scope = self.scope;
        if scope.workers() == 0 {
            return body(self, None);
        }
        scope.lend(work, || body(self, Some(&|| scope.help())))
    }
    fn take(&mut self, bi: usize, bj: usize) -> Result<Tile, OocError> {
        self.fetch((bi, bj), true)
    }
    fn put(&mut self, bi: usize, bj: usize, tile: Tile) -> Result<(), OocError> {
        let slot = self
            .resident
            .get_mut(&(bi, bj))
            .expect("the schedule puts only resident tiles");
        *slot = (Some(tile), true);
        self.pos += 1;
        self.pump();
        Ok(())
    }
}

impl<'fm: 'env, 'env, B: IoBackend> Front for PipelineFront<'_, 'env, 'fm, B> {
    type Backend = B;

    fn with_backend<R>(&mut self, f: impl FnOnce(&mut B) -> R) -> R {
        self.io.with_backend(f)
    }

    /// Final flush (plain mode, and the NotSpd leave-a-well-defined-file
    /// path): let every write-back already queued land, then write
    /// every dirty resident tile sorted and drain.
    fn flush_final(&mut self) -> Result<(), OocError> {
        self.io.drain_writes()?;
        self.enqueue_dirty();
        self.io.drain_writes()
    }

    /// The epoch barrier at a super-column boundary: enqueue every
    /// dirty resident tile, and drain the write queue so the checkpoint
    /// snapshot sees the complete super-column.
    fn flush_boundary(&mut self) -> Result<(), OocError> {
        debug_assert!(
            matches!(self.plan.ops.get(self.pos), Some(Access::Boundary)),
            "flush_boundary off the planned boundary"
        );
        let keys = self.enqueue_dirty();
        debug_assert_eq!(
            keys, self.plan.boundary_writes[self.boundaries_done],
            "boundary flush diverged from the plan"
        );
        self.boundaries_done += 1;
        self.pos += 1; // consume the Boundary op
        self.io.drain_writes()?;
        self.pump();
        Ok(())
    }

    /// Roll the front back for a restore-and-retry of panel `k`: wait
    /// out every in-flight job (nothing stale may land after the
    /// restore), drop all transport state, and re-plan from `k`.
    fn reset(&mut self, k: usize) {
        self.io.quiesce();
        {
            let mut st = lock(&self.io.st);
            st.fetched.clear();
            st.error = None;
            st.abort = false;
            debug_assert!(
                st.reads_inflight == 0
                    && st.panels_inflight == 0
                    && st.write_data.is_empty()
                    && st.write_inflight.is_empty(),
                "quiesce left jobs in flight"
            );
        }
        let width = super_column_width(self.capacity);
        self.plan = Plan::new(self.nb, self.capacity, width, k, self.boundaries);
        self.pos = 0;
        self.next_fetch = 0;
        self.fetch_consumed = 0;
        self.boundaries_done = 0;
        self.resident.clear();
        // op_seq keeps counting: latency is a cost model, not a replay.
    }
}

/// Run `body` on a [`PipelineFront`] planned for panels `start..nb`,
/// with `cfg.io_workers` dedicated I/O threads (none at W = 0).  An
/// error return aborts the I/O hub, so the queued write-backs of a dead
/// run never reach the disk.
fn with_front<B: IoBackend, R>(
    fm: &mut B,
    cfg: &PipelineConfig,
    start: usize,
    boundaries: bool,
    body: impl FnOnce(&mut PipelineFront<'_, '_, '_, B>) -> Result<R, OocError>,
) -> Result<R, OocError> {
    let (nb, b) = (fm.nb(), fm.b());
    let width = super_column_width(cfg.capacity_tiles);
    let plan = Plan::new(nb, cfg.capacity_tiles, width, start, boundaries);
    let io = PipeIo::new(fm, cfg.sleep_latency);
    io_scope(cfg.io_workers, |scope| {
        let mut front = PipelineFront::new(&io, scope, plan, cfg, nb, b, boundaries);
        body(&mut front).inspect_err(|_| io.fail())
    })
}

/// Run panels `start..nb` through [`drive`], checkpointing when `ck` is
/// given.
fn run_pipelined<B: IoBackend, St: Store>(
    fm: &mut B,
    cfg: &PipelineConfig,
    start: usize,
    ck: Option<Checkpointing<'_, St>>,
) -> Result<PipelineStats, OocError> {
    with_front(fm, cfg, start, ck.is_some(), |front| {
        drive(front, cfg.kernel, super_column_width(cfg.capacity_tiles), start, ck)?;
        Ok(PipelineStats {
            helped_updates: front.scope.helped(),
            ..front.stats
        })
    })
}

/// Out-of-core Cholesky through the one front: at `cfg.io_workers ≥ 1`,
/// prefetching tile reads and deferred write-backs on dedicated I/O
/// workers, overlapped with the schedule's compute; at zero workers,
/// the synchronous driver.  Produces a factor **bit-identical** to
/// [`ooc_potrf_with`](crate::ooc_potrf_with) at the same capacity and
/// engine, for every worker count and lookahead (see the module docs
/// for why), and the same on-disk state on a
/// [`NotSpd`](OocError::NotSpd) abort.
pub fn ooc_potrf_pipelined_with<B: IoBackend>(
    fm: &mut B,
    cfg: &PipelineConfig,
) -> Result<PipelineStats, OocError> {
    run_pipelined::<_, FsStore>(fm, cfg, 0, None)
}

/// Out-of-core Cholesky with a checkpoint after every super-column
/// (see [`super_column_width`]),
/// through the journaled protocol of
/// [`checkpoint`](crate::checkpoint) over an explicit [`Store`]
/// ([`FsStore`] on the real filesystem; the crash-point explorer drives
/// a `SimStore`, so checkpoint traffic and tile traffic land on the same
/// recorded schedule).  If `ckpt` already holds a (validated) committed
/// generation for this matrix, the data file is restored from the
/// snapshot and the run resumes at the recorded block column, in
/// super-columns starting there; otherwise it
/// starts from scratch.  On success the factor is barriered to stable
/// storage and the checkpoint files are removed.
///
/// A crash injected by the backend surfaces as [`OocError::Io`]; the
/// caller "restarts the process" by reopening the file
/// ([`FileMatrix::open`](crate::FileMatrix::open)) and calling this
/// again with the same `ckpt`.  The resumed run recomputes only the
/// panels after the last checkpoint, and — because the schedule is
/// deterministic — produces a factor bit-identical to an uninterrupted
/// run's.  At `cfg.io_workers = 0` every tile move blocks the compute
/// thread.  At W ≥ 1 the epoch barrier at each super-column boundary drains
/// every deferred write-back *before* the snapshot, so intent → data →
/// barrier → commit sees exactly the states W = 0 commits.  Crash/resume
/// therefore yields the same bit-identical factor at every W, and
/// unhealable ABFT corruption is answered by the same
/// quiesce-restore-retry rollback.
///
/// One ABFT nuance at W ≥ 1: a cross-panel prefetch reads a tile
/// *before* `begin_panel` schedules that panel's corruption against it
/// (`begin_panel` queues behind the reads already issued), so a given
/// flip can land on a later read — or only on the final scrub — instead
/// of the read W = 0 would have caught it on.  Detection and healing
/// guarantees are unchanged (every read is verified and the scrub
/// closes the gap); only the step at which a given flip is *observed*
/// may shift, the same way on every run at one worker.
///
/// The checkpoint/restore protocol and all tile I/O are
/// engine-independent.  `FastStrict` is bit-identical to `Reference`, so
/// a run may even crash under one of those engines and resume under the
/// other; `Fast` contracts multiply-adds through FMA, so mixing it with
/// the others across a restart yields a factor that differs by the
/// (tiny) contraction residual — restart under the engine you crashed
/// with if bit-reproducibility matters.
pub fn ooc_potrf_checkpointed<B: IoBackend>(
    fm: &mut B,
    ckpt: &Checkpoint,
    store: &mut impl Store,
    cfg: &PipelineConfig,
) -> Result<(CheckpointReport, PipelineStats), OocError> {
    let mut report = CheckpointReport::default();
    let mut ck = Checkpointing {
        ckpt,
        store,
        report: &mut report,
    };
    let start = ck.resume_point(fm)?;
    let stats = run_pipelined(fm, cfg, start, Some(ck))?;
    Ok((report, stats))
}

/// Default compute throughput of the modeled-time simulator: tile
/// flops per microsecond (≈ 4 GFLOP/s, a modest scalar core — the
/// point is the *ratio* against the latency model, not absolute time).
pub const DEFAULT_FLOPS_PER_US: f64 = 4096.0;

/// Inputs to [`model_overlap`].
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Matrix order.
    pub n: usize,
    /// Tile size.
    pub b: usize,
    /// Tile-cache capacity.
    pub capacity_tiles: usize,
    /// I/O worker timelines.
    pub io_workers: usize,
    /// Prefetch depth.
    pub lookahead: usize,
    /// Per-op disk latency.
    pub latency: LatencyModel,
    /// Compute throughput (see [`DEFAULT_FLOPS_PER_US`]).
    pub flops_per_us: f64,
}

/// What the modeled-time simulator found.
#[derive(Debug, Clone, Copy)]
pub struct ModelReport {
    /// Synchronous makespan, µs (every op on one timeline).
    pub sync_us: u64,
    /// Pipelined makespan, µs.
    pub pipelined_us: u64,
    /// `sync_us / pipelined_us`.
    pub speedup: f64,
    /// Modeled prefetch hit rate.
    pub hit_rate: f64,
    /// Tile reads (the plan's misses).
    pub reads: u64,
    /// Tile writes (dirty evictions + final flush).
    pub writes: u64,
    /// Total compute, µs.
    pub compute_us: u64,
    /// Total disk latency, µs (identical for both legs: same ops, same
    /// sample sites).
    pub io_us: u64,
}

fn argmin(v: &[u64]) -> usize {
    let mut best = 0;
    for (i, &x) in v.iter().enumerate() {
        if x < v[best] {
            best = i;
        }
    }
    best
}

/// Deterministic event-level model of the overlap: the same `Plan`
/// walked twice — once serialized (the synchronous baseline), once with
/// reads and write-backs on `io_workers` parallel timelines, compute
/// stalling only at misses whose read has not completed.  Every applied
/// op is charged (`potf2` = `b³/3`, `trsm` = `b³`, `gemm` = `2b³` flops,
/// a diagonal update too; edge tiles charged full — it is a model) at
/// the access that follows it.  A pure function of its config:
/// `ooc_bench` gates the overlap claim on it, exactly reproducible in CI.
pub fn model_overlap(cfg: &ModelConfig) -> ModelReport {
    let nb = cfg.n.div_ceil(cfg.b);
    let width = super_column_width(cfg.capacity_tiles);
    let plan = Plan::new(nb, cfg.capacity_tiles, width, 0, false);

    let fb = cfg.b as f64;
    let potf2_us = ((fb * fb * fb / 3.0) / cfg.flops_per_us).round() as u64;
    let trsm_us = ((fb * fb * fb) / cfg.flops_per_us).round() as u64;
    let gemm_us = ((2.0 * fb * fb * fb) / cfg.flops_per_us).round() as u64;
    let mut compute_cost = vec![0u64; plan.ops.len()];
    for &(pos, op) in &plan.applied {
        compute_cost[pos] += match op {
            TileOp::Factor { .. } => potf2_us,
            TileOp::Solve { .. } => trsm_us,
            TileOp::Update { .. } => gemm_us,
        };
    }

    // Synchronous leg: one timeline, ops in execution order (evictions,
    // then the miss read — the order the front also samples in, so both
    // legs draw identical latencies).
    let mut sync_us = 0u64;
    let mut compute_total = 0u64;
    let mut io_total = 0u64;
    let mut writes = 0u64;
    {
        let mut seq = 0u64;
        let mut fp = 0usize;
        for (pos, &cost) in compute_cost.iter().enumerate() {
            if fp < plan.fetches.len() && plan.fetches[fp].miss_pos == pos {
                for &(_, dirty) in &plan.fetches[fp].evict {
                    if dirty {
                        let us = cfg.latency.sample(DiskOp::Write, seq);
                        seq += 1;
                        sync_us += us;
                        io_total += us;
                        writes += 1;
                    }
                }
                let us = cfg.latency.sample(DiskOp::Read, seq);
                seq += 1;
                sync_us += us;
                io_total += us;
                fp += 1;
            }
            sync_us += cost;
            compute_total += cost;
        }
        for _ in &plan.final_writes {
            let us = cfg.latency.sample(DiskOp::Write, seq);
            seq += 1;
            sync_us += us;
            io_total += us;
            writes += 1;
        }
        debug_assert_eq!(
            writes,
            plan.evict_writes + plan.final_writes.len() as u64,
            "sync walk visited every planned write"
        );
    }

    // Pipelined leg: the front's pump/stall discipline as an event sim.
    let workers = cfg.io_workers.max(1);
    let lookahead = cfg.lookahead.max(1);
    let mut clock = 0u64;
    let mut worker_free = vec![0u64; workers];
    let mut fetch_done = vec![0u64; plan.fetches.len()];
    let mut write_done: HashMap<(usize, usize), u64> = HashMap::new();
    let mut next_fetch = 0usize;
    let mut consumed = 0usize;
    let mut hits = 0u64;
    {
        let mut seq = 0u64;
        for (pos, &cost) in compute_cost.iter().enumerate() {
            while next_fetch < plan.fetches.len()
                && next_fetch - consumed < lookahead
                && plan.fetches[next_fetch].ready_at <= pos
            {
                let f = &plan.fetches[next_fetch];
                for &(victim, dirty) in &f.evict {
                    if dirty {
                        let us = cfg.latency.sample(DiskOp::Write, seq);
                        seq += 1;
                        let w = argmin(&worker_free);
                        let done = clock.max(worker_free[w]) + us;
                        worker_free[w] = done;
                        write_done.insert(victim, done);
                    }
                }
                let us = cfg.latency.sample(DiskOp::Read, seq);
                seq += 1;
                let w = argmin(&worker_free);
                // A read of a tile with a pending write-back waits it
                // out on its worker (read-after-write hazard).
                let hazard = write_done.get(&f.tile).copied().unwrap_or(0);
                let done = clock.max(worker_free[w]).max(hazard) + us;
                worker_free[w] = done;
                fetch_done[next_fetch] = done;
                next_fetch += 1;
            }
            if consumed < plan.fetches.len() && plan.fetches[consumed].miss_pos == pos {
                let ready = fetch_done[consumed];
                if ready <= clock {
                    hits += 1;
                } else {
                    clock = ready;
                }
                consumed += 1;
            }
            clock += cost;
        }
        for _ in &plan.final_writes {
            let us = cfg.latency.sample(DiskOp::Write, seq);
            seq += 1;
            let w = argmin(&worker_free);
            worker_free[w] = clock.max(worker_free[w]) + us;
        }
    }
    let pipelined_us = clock.max(worker_free.iter().copied().max().unwrap_or(0));

    let reads = plan.fetches.len() as u64;
    ModelReport {
        sync_us,
        pipelined_us,
        speedup: if pipelined_us == 0 {
            1.0
        } else {
            sync_us as f64 / pipelined_us as f64
        },
        hit_rate: if reads == 0 {
            1.0
        } else {
            hits as f64 / reads as f64
        },
        reads,
        writes,
        compute_us: compute_total,
        io_us: io_total,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::backend::FaultyBackend;
    use crate::tilefile::{scratch_path, FileMatrix};
    use crate::potrf::ooc_potrf_with;
    use cholcomm_faults::{CrashPoint, DiskFault, FaultPlan};
    use cholcomm_matrix::schedule::{factor_left, TileGrid};
    use cholcomm_matrix::{matrix_digest, spd};


    fn checkpointed_on_fs<B: IoBackend>(
        fm: &mut B,
        ckpt: &Checkpoint,
        cfg: &PipelineConfig,
    ) -> Result<(CheckpointReport, PipelineStats), OocError> {
        ooc_potrf_checkpointed(fm, ckpt, &mut FsStore::new(), cfg)
    }

    /// What a `Solve` or `Update` did with its target: the allocation
    /// and holder count of the tile taken for it, if it was taken, and
    /// the allocation put back.
    struct Handoff {
        op: TileOp,
        taken: Option<(*const Form, usize)>,
        put: *const Form,
    }

    /// A real front that also logs the accesses it serves, and how the
    /// target of every `Solve` and `Update` crossed it.
    struct Logged<'a, F> {
        front: &'a mut F,
        seen: Vec<Access>,
        /// The takes not yet put back: allocation and holder count.
        taken: HashMap<(usize, usize), (*const Form, usize)>,
        handoffs: Vec<Handoff>,
    }

    impl<'a, F> Logged<'a, F> {
        fn new(front: &'a mut F) -> Self {
            Logged {
                front,
                seen: Vec::new(),
                taken: HashMap::new(),
                handoffs: Vec::new(),
            }
        }
    }

    impl<F: Front> TileStore for Logged<'_, F> {
        type Tile = Tile;
        type Error = OocError;
        fn begin_panel(&mut self, k: usize) {
            self.front.begin_panel(k);
        }
        fn get(&mut self, bi: usize, bj: usize) -> Result<Tile, OocError> {
            self.seen.push(Access::Get(bi, bj));
            self.front.get(bi, bj)
        }
        fn take(&mut self, bi: usize, bj: usize) -> Result<Tile, OocError> {
            self.seen.push(Access::Get(bi, bj));
            let t = self.front.take(bi, bj)?;
            self.taken.insert((bi, bj), (Arc::as_ptr(&t.0), Arc::strong_count(&t.0)));
            Ok(t)
        }
        fn put(&mut self, bi: usize, bj: usize, tile: Tile) -> Result<(), OocError> {
            let op = TileOp::of(bi, bj, bj);
            self.seen.push(Access::Put(op));
            if !matches!(op, TileOp::Factor { .. }) {
                self.handoffs.push(Handoff {
                    op,
                    taken: self.taken.remove(&(bi, bj)),
                    put: Arc::as_ptr(&tile.0),
                });
            }
            self.front.put(bi, bj, tile)
        }
    }

    impl<F: Front> Front for Logged<'_, F> {
        type Backend = F::Backend;
        fn with_backend<R>(&mut self, f: impl FnOnce(&mut F::Backend) -> R) -> R {
            self.front.with_backend(f)
        }
        fn flush_final(&mut self) -> Result<(), OocError> {
            self.front.flush_final()
        }
        fn flush_boundary(&mut self) -> Result<(), OocError> {
            self.front.flush_boundary()
        }
        fn reset(&mut self, k: usize) {
            self.front.reset(k);
        }
    }

    #[test]
    fn plan_accesses_are_what_a_real_factor_panel_run_performs() {
        let mut rng = spd::test_rng(229);
        let runs = [(40usize, 8usize, 0usize), (37, 8, 2), (8, 8, 0), (24, 8, 3), (64, 8, 3)];
        for ((n, b, start), cap) in runs.into_iter().flat_map(|r| [4usize, 12, 27].map(|c| (r, c))) {
            let a = spd::random_spd(n, &mut rng);
            let mut fm = FileMatrix::create(&scratch_path("planlog"), &a, b).unwrap();
            let grid = TileGrid::new(n, b);
            let width = super_column_width(cap);
            // Block columns before `start` run unlogged and written back,
            // as a resumed run's predecessor would have.
            let before = PipelineConfig::new(4).with_io_workers(0);
            with_front(&mut fm, &before, 0, false, |front| {
                factor_left(front, grid, 0..start, 1, KernelImpl::Reference)?;
                front.flush_final()
            })
            .unwrap();
            let cfg = PipelineConfig::new(cap).with_io_workers(0);
            let seen = with_front(&mut fm, &cfg, start, false, |front| {
                let mut logged = Logged::new(front);
                for cols in super_columns(start..grid.nb(), width) {
                    factor_left(&mut logged, grid, cols, width, KernelImpl::Reference)?;
                    logged.seen.push(Access::Boundary);
                }
                Ok(logged.seen)
            })
            .unwrap();
            let tag = format!("n={n} b={b} start={start} cap={cap}");
            let plan = Plan::new(grid.nb(), cap, width, start, true);
            assert_eq!(plan.ops, seen, "{tag}");
            let plain: Vec<Access> = seen
                .into_iter()
                .filter(|a| *a != Access::Boundary)
                .collect();
            assert_eq!(Plan::new(grid.nb(), cap, width, start, false).ops, plain, "{tag}");
        }
    }

    #[test]
    fn plan_counts_match_the_real_file() {
        let mut rng = spd::test_rng(230);
        let a = spd::random_spd(40, &mut rng);
        let b = 8;
        let nb = a.rows().div_ceil(b);
        for cap in [3usize, 5, 12, 18] {
            let mut fm = FileMatrix::create(&scratch_path(&format!("plan{cap}")), &a, b).unwrap();
            ooc_potrf_with(&mut fm, cap, KernelImpl::Reference).unwrap();
            let s = fm.stats();
            let plan = Plan::new(nb, cap, super_column_width(cap), 0, false);
            assert_eq!(s.reads, plan.fetches.len() as u64, "cap {cap}: reads");
            assert_eq!(
                s.writes,
                plan.evict_writes + plan.final_writes.len() as u64,
                "cap {cap}: writes"
            );
            // Fetches are issuable by their miss, and in miss order.
            for (i, f) in plan.fetches.iter().enumerate() {
                assert!(f.ready_at <= f.miss_pos, "fetch {i} unissuable");
                if i > 0 {
                    assert!(f.miss_pos > plan.fetches[i - 1].miss_pos);
                }
            }
        }
        // Checkpointed-shaped plan: boundary flushes account for every
        // write the checkpointed driver issues.
        let cap = 4;
        let mut fm = FileMatrix::create(&scratch_path("planck"), &a, b).unwrap();
        let ckpt = Checkpoint::at(&scratch_path("planck").with_extension("ckpt"));
        let cfg = PipelineConfig::new(cap).with_io_workers(0);
        checkpointed_on_fs(&mut fm, &ckpt, &cfg).unwrap();
        let s = fm.stats();
        let plan = Plan::new(nb, cap, 1, 0, true);
        assert_eq!(s.reads, plan.fetches.len() as u64);
        let flushes: u64 = plan.boundary_writes.iter().map(|v| v.len() as u64).sum();
        assert_eq!(s.writes, plan.evict_writes + flushes);
        assert!(plan.final_writes.is_empty());
    }

    /// Every tile the plan writes — dirty evictions, boundary and final
    /// flushes — in plan order.
    fn planned_writes(plan: &Plan) -> Vec<(usize, usize)> {
        let evicted = plan
            .fetches
            .iter()
            .flat_map(|f| &f.evict)
            .filter(|(_, dirty)| *dirty);
        let mut writes: Vec<_> = evicted.map(|&(key, _)| key).collect();
        writes.extend(plan.boundary_writes.iter().flatten().copied());
        writes.extend(plan.final_writes.iter().copied());
        writes
    }

    #[test]
    fn the_planner_counts_the_ooc_file_shape_exactly() {
        // The `ooc_file` shape: n = 3072, b = 128 (nb = 24), 36 of the
        // 300 lower tiles resident, so super-columns of 4 block columns.
        // No file: the plan is data-oblivious.
        assert_eq!(super_column_width(36), 4);
        let plan = Plan::new(24, 36, 4, 0, false);
        let counts = (plan.fetches.len(), plan.evict_writes, plan.final_writes.len());
        assert_eq!(counts, (1294, 290, 10));
        // Bytes moved per pass at 128 KiB a tile.
        assert_eq!((1294 + 290 + 10) * 128 * 128 * 8, 208_928_768);
        // Every operand fetch is of a finished off-diagonal tile.
        let operands: Vec<_> = plan.fetches.iter().filter(|f| f.operand).collect();
        assert!(operands.iter().all(|f| f.tile.0 != f.tile.1));
        assert_eq!(operands.len(), 950);
    }

    #[test]
    fn the_derived_width_cuts_the_reads_of_the_cap_ladder() {
        // EXPERIMENTS E24: reads and writes of the nb = 24 walk at width 1
        // and at the width derived from the capacity.
        const LADDER: [(usize, usize, usize, usize); 5] = [
            // (capacity, derived width, reads at width 1, at the derived)
            (6, 1, 4829, 4829),
            (12, 2, 4579, 2487),
            (36, 4, 2901, 1294),
            (100, 8, 2258, 692),
            (300, 16, 300, 300),
        ];
        for (cap, width, unblocked, blocked) in LADDER {
            assert_eq!(super_column_width(cap), width, "cap {cap}");
            for (w, reads) in [(1, unblocked), (width, blocked)] {
                for boundaries in [false, true] {
                    let plan = Plan::new(24, cap, w, 0, boundaries);
                    let flushed: usize = plan.boundary_writes.iter().map(Vec::len).sum();
                    let writes = plan.evict_writes as usize + flushed + plan.final_writes.len();
                    let tag = format!("cap {cap} width {w} boundaries {boundaries}");
                    assert_eq!((plan.fetches.len(), writes), (reads, 300), "{tag}");
                }
            }
        }
    }

    #[test]
    fn left_looking_writes_each_lower_tile_exactly_once() {
        for nb in 1..=9usize {
            let mut lower: Vec<(usize, usize)> =
                (0..nb).flat_map(|i| (0..=i).map(move |j| (i, j))).collect();
            lower.sort_unstable();
            // Widths 1, 1, 1, 2, 3 and 4.
            for cap in [3usize, 4, 6, 12, 18, 27] {
                for boundaries in [false, true] {
                    let plan = Plan::new(nb, cap, super_column_width(cap), 0, boundaries);
                    let mut writes = planned_writes(&plan);
                    writes.sort_unstable();
                    assert_eq!(writes, lower, "nb={nb} cap={cap} boundaries={boundaries}");
                }
            }
        }
    }

    #[test]
    fn pipelined_factor_is_bit_identical_to_sync() {
        let mut rng = spd::test_rng(231);
        let a = spd::random_spd(40, &mut rng);
        let b = 8;
        for kernel in [KernelImpl::Reference, KernelImpl::Fast] {
            for cap in [3usize, 5, 12] {
                let mut sync = FileMatrix::create(
                    &scratch_path(&format!("bits-sync-{kernel:?}-{cap}")),
                    &a,
                    b,
                )
                .unwrap();
                ooc_potrf_with(&mut sync, cap, kernel).unwrap();
                let want = sync.to_matrix().unwrap();
                for workers in [1usize, 2] {
                    for lookahead in [1usize, 4] {
                        let tag = format!("bits-pipe-{kernel:?}-{cap}-{workers}-{lookahead}");
                        let mut fm = FileMatrix::create(&scratch_path(&tag), &a, b).unwrap();
                        let cfg = PipelineConfig::new(cap)
                            .with_kernel(kernel)
                            .with_io_workers(workers)
                            .with_lookahead(lookahead);
                        let stats = ooc_potrf_pipelined_with(&mut fm, &cfg).unwrap();
                        let got = fm.to_matrix().unwrap();
                        assert_eq!(got, want, "{tag}: factor must be bit-identical");
                        assert_eq!(
                            stats.prefetch_hits + stats.prefetch_stalls,
                            stats.fetches,
                            "{tag}: every fetch consumed"
                        );
                        assert_eq!(
                            stats.fetches,
                            sync.stats().reads,
                            "{tag}: same compulsory+capacity misses as sync"
                        );
                        assert_eq!(
                            stats.evict_writes + stats.flush_writes,
                            sync.stats().writes,
                            "{tag}: same write-backs as sync"
                        );
                    }
                }
            }
        }
    }

    /// One logged whole-matrix run of `a` (b = 8) at capacity `cap`,
    /// checkpointed or not, with `(workers, lookahead)`: every target's
    /// hand-off, and the factor.
    fn logged_run(
        a: &Matrix<f64>,
        cap: usize,
        (workers, lookahead): (usize, usize),
        checkpointed: bool,
    ) -> (Vec<Handoff>, Matrix<f64>) {
        let path = scratch_path(&format!("handoff-{cap}-{workers}-{lookahead}-{checkpointed}"));
        let mut fm = FileMatrix::create(&path, a, 8).unwrap();
        let ckpt = Checkpoint::at(&path.with_extension("ckpt"));
        let (mut store, mut report) = (FsStore::new(), CheckpointReport::default());
        let mut ck = checkpointed.then_some(Checkpointing {
            ckpt: &ckpt,
            store: &mut store,
            report: &mut report,
        });
        if let Some(ck) = ck.as_mut() {
            assert_eq!(ck.resume_point(&mut fm).unwrap(), 0);
        }
        let cfg = PipelineConfig::new(cap)
            .with_io_workers(workers)
            .with_lookahead(lookahead);
        let handoffs = with_front(&mut fm, &cfg, 0, checkpointed, |front| {
            let mut logged = Logged::new(front);
            drive(&mut logged, KernelImpl::Reference, super_column_width(cap), 0, ck)?;
            Ok(logged.handoffs)
        })
        .unwrap();
        (handoffs, fm.to_matrix().unwrap())
    }

    #[test]
    fn solve_and_update_targets_cross_the_fronts_by_reference() {
        let a = spd::random_spd(40, &mut spd::test_rng(236));
        let nb = a.rows().div_ceil(8);
        let fronts = [(0, 1), (1, 1), (1, 4), (2, 1), (2, 4)];
        let runs = [false, true].map(|checkpointed| fronts.map(|pipe| (checkpointed, pipe)));
        for cap in [3usize, 5, 12, 18] {
            // Every Solve and Update the walk puts: its solves (the
            // updates run on the taken tile, with no put between).
            let width = super_column_width(cap);
            let writes: Vec<TileOp> = Plan::new(nb, cap, width, 0, false)
                .ops
                .into_iter()
                .filter_map(|access| match access {
                    Access::Put(op @ (TileOp::Solve { .. } | TileOp::Update { .. })) => Some(op),
                    _ => None,
                })
                .collect();
            let mut factors = Vec::new();
            for (checkpointed, pipe) in runs.concat() {
                let tag = format!("cap {cap}, (W, lookahead) {pipe:?}, checkpointed {checkpointed}");
                let (handoffs, factor) = logged_run(&a, cap, pipe, checkpointed);
                let ops: Vec<TileOp> = handoffs.iter().map(|h| h.op).collect();
                assert_eq!(ops, writes, "{tag}");
                for h in &handoffs {
                    // Taken, held by nobody else — no write-back still
                    // holding it either — and put back as the same
                    // allocation: the kernel wrote in place.  A solve on
                    // a super-column's diagonal chunk is the exception:
                    // its target is a get, kept by the cache until the
                    // put, and the kernel writes a copy.
                    let (i, j) = h.op.target();
                    let taken = (i / width != j / width).then_some((h.put, 1));
                    assert_eq!(h.taken, taken, "{tag}: {:?}", h.op);
                }
                factors.push(factor);
            }
            assert!(factors.windows(2).all(|w| w[0] == w[1]), "cap {cap}");
        }
    }

    #[test]
    fn pipelined_not_spd_leaves_the_same_file_state() {
        let n = 16;
        let mut m = cholcomm_matrix::Matrix::<f64>::identity(n);
        for i in 0..n {
            m[(i, i)] = 4.0;
        }
        m[(12, 12)] = -1.0; // tile (3,3) with b=4 goes bad
        let mut sync = FileMatrix::create(&scratch_path("nspd-sync"), &m, 4).unwrap();
        let sync_err = ooc_potrf_with(&mut sync, 3, KernelImpl::Reference).unwrap_err();
        let want = sync.to_matrix().unwrap();
        let mut fm = FileMatrix::create(&scratch_path("nspd-pipe"), &m, 4).unwrap();
        let err = ooc_potrf_pipelined_with(&mut fm, &PipelineConfig::new(3)).unwrap_err();
        match (&sync_err, &err) {
            (
                OocError::NotSpd { pivot: p0, .. },
                OocError::NotSpd { pivot: p1, .. },
            ) => assert_eq!(p0, p1),
            other => panic!("expected matching NotSpd, got {other:?}"),
        }
        let got = fm.to_matrix().unwrap();
        assert_eq!(got, want, "abort must leave the same on-disk state");

        // The bytes themselves, pinned: `matrix_digest` of the file a bad
        // pivot in the first, a middle or the last (ragged) diagonal tile
        // of an order-37, b = 8 matrix leaves, per capacity and engine:
        // the block columns before the failing one's super-column
        // finished, and in it the columns of its diagonal chunk left of
        // the failing one; the rest as input — also what the in-memory
        // left-looking walk at the same width leaves.  The failed tile and
        // the rest of its diagonal chunk keep their input bytes because
        // the walk holds the diagonal chunk's targets as `get`s, never as
        // `take`s.  At capacity 12 (width 2) tile 3 and at 18 (width 3)
        // tile 2 fail inside a super-column: the tiles of the finished
        // columns below the diagonal chunk are still input.
        use cholcomm_matrix::lower_digest;
        use cholcomm_matrix::schedule::MemTiles;
        use KernelImpl::{Fast, Reference};
        const GOLDEN: [(usize, usize, KernelImpl, u64); 16] = [
            (3, 0, Reference, GOLD_0),
            (3, 0, Fast, GOLD_0),
            (3, 2, Reference, GOLD_2R),
            (3, 2, Fast, GOLD_2F),
            (3, 4, Reference, GOLD_4R),
            (3, 4, Fast, GOLD_4F),
            (12, 0, Reference, GOLD_0),
            (12, 0, Fast, GOLD_0),
            (12, 2, Reference, GOLD_2R),
            (12, 2, Fast, GOLD_2F),
            (12, 4, Reference, GOLD_4R),
            (12, 4, Fast, GOLD_4F),
            (12, 3, Reference, 0x6a0716bfc7d0162a),
            (12, 3, Fast, 0x2e097d267ecff492),
            (18, 2, Reference, 0x32bb3164848458e5),
            (18, 2, Fast, 0xfd154c6a112c1ed8),
        ];
        // A bad pivot in the first tile leaves the input untouched.
        const GOLD_0: u64 = 0xda55a5670a383986;
        const GOLD_2R: u64 = 0x9be40f651850aa91;
        const GOLD_2F: u64 = 0x3ae81097c105105e;
        const GOLD_4R: u64 = 0xbc56ab434e557189;
        const GOLD_4F: u64 = 0x4c8edb9b10af8f8c;
        let a = spd::random_spd(37, &mut spd::test_rng(237));
        for (cap, tile, kernel, want) in GOLDEN {
            let pivot = tile * 8 + 2;
            let mut m = a.clone();
            m[(pivot, pivot)] = -1.0;
            let mut mem = MemTiles::from_matrix(&m, 8).unwrap();
            let grid = mem.grid;
            let width = super_column_width(cap);
            assert!(factor_left(&mut mem, grid, 0..grid.nb(), width, kernel).is_err());
            let mut in_memory = m.clone();
            mem.write_back(&mut in_memory);
            for workers in [0usize, 1, 2] {
                let mut fm = FileMatrix::create(&scratch_path("nspd-gold"), &m, 8).unwrap();
                let cfg = PipelineConfig::new(cap)
                    .with_kernel(kernel)
                    .with_io_workers(workers);
                let done = ooc_potrf_pipelined_with(&mut fm, &cfg);
                let tag = format!("cap {cap}, tile {tile}, {kernel:?}, W={workers}");
                assert!(
                    matches!(done, Err(OocError::NotSpd { pivot: p, .. }) if p == pivot),
                    "{tag}: {done:?}"
                );
                let got = fm.to_matrix().unwrap();
                assert_eq!(lower_digest(&got), lower_digest(&in_memory), "{tag}");
                assert_eq!(matrix_digest(&got), want, "{tag}: {:#x}", matrix_digest(&got));
            }
        }
    }

    #[test]
    fn pipelined_rides_transient_disk_faults() {
        let mut rng = spd::test_rng(232);
        let a = spd::random_spd(32, &mut rng);
        let mut clean = FileMatrix::create(&scratch_path("flaky-clean"), &a, 8).unwrap();
        ooc_potrf_with(&mut clean, 4, KernelImpl::Reference).unwrap();
        let want = clean.to_matrix().unwrap();

        // Zero and one worker: the backend sees the same op order, so a
        // per-op plan fires at identical indices, to the same tallies.
        let plan = FaultPlan::builder(60)
            .inject_disk_fault(2, 1, DiskFault::TransientEio)
            .inject_disk_fault(7, 1, DiskFault::ShortRead)
            .inject_disk_fault(7, 2, DiskFault::TransientEio)
            .build();
        for workers in [0usize, 1] {
            let fm = FileMatrix::create(&scratch_path("flaky-w01"), &a, 8).unwrap();
            let mut fb = FaultyBackend::new(fm, plan.clone());
            let cfg = PipelineConfig::new(4).with_io_workers(workers);
            ooc_potrf_pipelined_with(&mut fb, &cfg).unwrap();
            let f = fb.fault_stats();
            let tallies = (f.disk_transients, f.disk_short_reads, f.disk_retries, fb.ops());
            assert_eq!(tallies, (2, 1, 3, 34), "W={workers}");
            let s = fb.stats();
            let io = (s.reads, s.writes, s.bytes_read, s.bytes_written, s.seeks, s.seek_distance);
            assert_eq!(io, (24, 10, 12288, 5120, 30, 68608), "W={workers}");
            assert_eq!(fb.inner_mut().to_matrix().unwrap(), want, "W={workers}");
        }

        // Every worker count under rate faults (at two workers op order
        // may permute): every transient must still be healed below the
        // factorization, to the same bits.
        for workers in [0usize, 1, 2] {
            let rate_plan = FaultPlan::builder(61).disk_transient_rate(0.2).build();
            let fm = FileMatrix::create(&scratch_path("flaky-rate"), &a, 8).unwrap();
            let mut fb = FaultyBackend::new(fm, rate_plan);
            let cfg = PipelineConfig::new(4).with_io_workers(workers);
            ooc_potrf_pipelined_with(&mut fb, &cfg).unwrap();
            assert!(
                fb.fault_stats().disk_faults() > 0,
                "W={workers}: plan should have bitten"
            );
            assert_eq!(fb.inner_mut().to_matrix().unwrap(), want, "W={workers}");
        }
    }

    #[test]
    fn checkpointed_pipeline_resumes_bit_identically_after_a_crash() {
        let mut rng = spd::test_rng(233);
        let a = spd::random_spd(32, &mut rng);
        let mut clean = FileMatrix::create(&scratch_path("pckpt-clean"), &a, 8).unwrap();
        ooc_potrf_with(&mut clean, 4, KernelImpl::Reference).unwrap();
        let want = clean.to_matrix().unwrap();

        let path = scratch_path("pckpt");
        let ckpt = Checkpoint::at(&path.with_extension("ckpt"));
        let cfg = PipelineConfig::new(4)
            .with_io_workers(2)
            .with_lookahead(3);
        {
            let mut fm = FileMatrix::create(&path, &a, 8).unwrap();
            fm.set_persist(true); // the "dead process" leaves its file behind
            let plan = FaultPlan::builder(62)
                .crash_at(CrashPoint::AfterPanel(1))
                .build();
            let mut fb = FaultyBackend::new(fm, plan);
            let err = checkpointed_on_fs(&mut fb, &ckpt, &cfg).unwrap_err();
            assert!(matches!(err, OocError::Io(_)), "crash surfaces as Io");
        }
        // "Restart the process": reopen and resume with the same ckpt.
        let mut fm = FileMatrix::open(&path, 32, 8).unwrap();
        let (rep, stats) = checkpointed_on_fs(&mut fm, &ckpt, &cfg).unwrap();
        // The crash hits after panel 1 completes but *before* its
        // checkpoint commits, so the resume replays panel 1.
        assert_eq!(rep.start_panel, 1, "panel 0's checkpoint was the last committed");
        assert!(stats.fetches > 0);
        assert_eq!(
            fm.to_matrix().unwrap(),
            want,
            "crash + resume must not change a single bit"
        );
        let left = ckpt.load(&mut FsStore::new()).unwrap();
        assert!(left.is_none(), "checkpoint removed after success");
        fm.set_persist(false);
    }

    #[test]
    fn a_crash_after_any_column_of_a_super_column_fires_at_its_end() {
        // Capacity 12 runs super-columns of 2: {0, 1}, {2, 3}, {4}.  A
        // crash planned after column 2 or 3 fires once the super-column
        // {2, 3} has finished, before its checkpoint: the resumed run
        // starts at column 2 and replays both.
        let a = spd::random_spd(40, &mut spd::test_rng(240));
        let mut clean = FileMatrix::create(&scratch_path("sc-crash-clean"), &a, 8).unwrap();
        ooc_potrf_with(&mut clean, 12, KernelImpl::Reference).unwrap();
        let want = clean.to_matrix().unwrap();
        for (panel, workers) in [(2usize, 0usize), (3, 0), (3, 1), (4, 2)] {
            let tag = format!("crash after column {panel}, W={workers}");
            let path = scratch_path(&format!("sc-crash-{panel}-{workers}"));
            let ckpt = Checkpoint::at(&path.with_extension("ckpt"));
            let cfg = PipelineConfig::new(12).with_io_workers(workers);
            {
                let mut fm = FileMatrix::create(&path, &a, 8).unwrap();
                fm.set_persist(true);
                let plan = FaultPlan::builder(66)
                    .crash_at(CrashPoint::AfterPanel(panel))
                    .build();
                let mut fb = FaultyBackend::new(fm, plan);
                let err = checkpointed_on_fs(&mut fb, &ckpt, &cfg).unwrap_err();
                assert!(matches!(err, OocError::Io(_)), "{tag}: {err:?}");
            }
            let committed = ckpt.load(&mut FsStore::new()).unwrap().unwrap();
            let start = panel / 2 * 2;
            assert_eq!(committed.next_panel, start, "{tag}");
            let mut fm = FileMatrix::open(&path, 40, 8).unwrap();
            let (rep, _) = checkpointed_on_fs(&mut fm, &ckpt, &cfg).unwrap();
            assert_eq!((rep.start_panel, rep.panels_done), (start, 5 - start), "{tag}");
            assert_eq!(fm.to_matrix().unwrap(), want, "{tag}");
            fm.set_persist(false);
        }
    }

    #[test]
    fn a_checkpoint_off_the_super_column_grid_resumes_to_the_same_bits() {
        // A `v4` checkpoint records the first unfinished block column,
        // whatever width wrote it: columns before it are final, the rest
        // untouched.  One committed at column 1 by a width-1 run resumes
        // at widths 2 and 4 in super-columns starting at column 1.
        let a = spd::random_spd(40, &mut spd::test_rng(241));
        let mut clean = FileMatrix::create(&scratch_path("off-grid-clean"), &a, 8).unwrap();
        ooc_potrf_with(&mut clean, 4, KernelImpl::Reference).unwrap();
        let want = clean.to_matrix().unwrap();
        for (cap, workers) in [(12usize, 0usize), (12, 1), (27, 0), (27, 2)] {
            let tag = format!("resumed at capacity {cap}, W={workers}");
            let path = scratch_path(&format!("off-grid-{cap}-{workers}"));
            let ckpt = Checkpoint::at(&path.with_extension("ckpt"));
            {
                let mut fm = FileMatrix::create(&path, &a, 8).unwrap();
                fm.set_persist(true);
                let plan = FaultPlan::builder(67)
                    .crash_at(CrashPoint::AfterPanel(1))
                    .build();
                let mut fb = FaultyBackend::new(fm, plan);
                let cfg = PipelineConfig::new(4).with_io_workers(0);
                assert!(checkpointed_on_fs(&mut fb, &ckpt, &cfg).is_err(), "{tag}");
            }
            let mut fm = FileMatrix::open(&path, 40, 8).unwrap();
            let cfg = PipelineConfig::new(cap).with_io_workers(workers);
            let (rep, _) = checkpointed_on_fs(&mut fm, &ckpt, &cfg).unwrap();
            assert_eq!((rep.start_panel, rep.panels_done), (1, 4), "{tag}");
            assert_eq!(fm.to_matrix().unwrap(), want, "{tag}");
            fm.set_persist(false);
        }
    }

    #[test]
    fn checkpointed_pipeline_matches_sync_without_faults() {
        let mut rng = spd::test_rng(234);
        let a = spd::random_spd(40, &mut rng);
        let mut sync = FileMatrix::create(&scratch_path("pck-sync"), &a, 8).unwrap();
        let sync_ckpt = Checkpoint::at(&scratch_path("pck-sync").with_extension("ckpt"));
        let sync_cfg = PipelineConfig::new(4).with_io_workers(0);
        let (sync_rep, _) = checkpointed_on_fs(&mut sync, &sync_ckpt, &sync_cfg).unwrap();
        let want = sync.to_matrix().unwrap();

        let mut fm = FileMatrix::create(&scratch_path("pck-pipe"), &a, 8).unwrap();
        let ckpt = Checkpoint::at(&scratch_path("pck-pipe").with_extension("ckpt"));
        let cfg = PipelineConfig::new(4).with_io_workers(2);
        let (rep, _) = checkpointed_on_fs(&mut fm, &ckpt, &cfg).unwrap();
        assert_eq!(fm.to_matrix().unwrap(), want);
        assert_eq!(rep.checkpoints_written, sync_rep.checkpoints_written);
        assert_eq!(rep.panels_done, sync_rep.panels_done);
        assert_eq!(rep.checkpoint_bytes, sync_rep.checkpoint_bytes);
    }

    #[test]
    fn unhealable_corruption_restores_and_retries_under_the_pipeline() {
        use crate::abft::AbftBackend;

        let mut rng = spd::test_rng(235);
        let a = spd::random_spd(32, &mut rng);
        let mut reference = FileMatrix::create(&scratch_path("pabft-ref"), &a, 8).unwrap();
        ooc_potrf_with(&mut reference, 4, KernelImpl::Reference).unwrap();
        let want = reference.to_matrix().unwrap();

        // Two elements of one tile struck in the same panel: beyond the
        // checksums, so the driver must quiesce, roll back to the panel
        // checkpoint, and retry.
        let plan = FaultPlan::builder(63)
            .inject_bit_flip(1, (2, 1), (0, 0), 1 << 44)
            .inject_bit_flip(1, (2, 1), (6, 3), 1 << 45)
            .build();
        let fm = FileMatrix::create(&scratch_path("pabft"), &a, 8).unwrap();
        let mut ab = AbftBackend::new(fm, plan);
        let ckpt = Checkpoint::at(&scratch_path("pabft").with_extension("ckpt"));
        let cfg = PipelineConfig::new(3)
            .with_io_workers(2)
            .with_lookahead(2);
        let (rep, _) = checkpointed_on_fs(&mut ab, &ckpt, &cfg).unwrap();
        assert!(rep.restores >= 1, "multi-element corruption forced a rollback");
        assert_eq!(ab.abft_stats().unrecoverable, 1);
        assert_eq!(
            ab.inner_mut().to_matrix().unwrap(),
            want,
            "restored-and-retried factor must be bit-identical"
        );
    }

    #[test]
    fn one_factor_across_workers_engines_and_faults() {
        use crate::abft::AbftBackend;
        use cholcomm_matrix::lower_digest;
        use cholcomm_matrix::schedule::{self, MemTiles};

        // Ragged edges, and tile sizes off the 16-row strip, so a packed
        // operand carries padding rows; capacities of width 1, 2 and 3.
        for ((n, b), cap) in [(61usize, 20usize), (45, 8)]
            .into_iter()
            .flat_map(|shape| [3usize, 11, 18].map(|cap| (shape, cap)))
        {
            let a = spd::random_spd(n, &mut spd::test_rng(239));
            for kernel in [
                KernelImpl::Reference,
                KernelImpl::FastStrict,
                KernelImpl::Fast,
            ] {
                // The in-memory right-looking walk's factor.
                let mut tiles = MemTiles::from_matrix(&a, b).unwrap();
                let grid = tiles.grid;
                schedule::factor(&mut tiles, grid, 0..grid.nb(), kernel).unwrap();
                let mut want = a.clone();
                tiles.write_back(&mut want);
                let want = lower_digest(&want);
                let packs = kernel.packs_tiles::<f64>(b);
                for workers in [0usize, 1, 2] {
                    let tag = format!("n={n} b={b} cap={cap} {kernel:?} W={workers}");
                    let cfg = PipelineConfig::new(cap)
                        .with_kernel(kernel)
                        .with_io_workers(workers);

                    let mut fm = FileMatrix::create(&scratch_path("grid"), &a, b).unwrap();
                    let st = ooc_potrf_pipelined_with(&mut fm, &cfg).unwrap();
                    assert_eq!(lower_digest(&fm.to_matrix().unwrap()), want, "{tag}");
                    // A finished panel tile read again arrives packed;
                    // with every tile read once, none is.
                    let lower = (n.div_ceil(b) * (n.div_ceil(b) + 1) / 2) as u64;
                    let again = st.fetches > lower;
                    assert_eq!(st.packed_fetches > 0, packs && again, "{tag}: {st:?}");

                    // A flaky disk, retried below the factorization.
                    let plan = FaultPlan::builder(64).disk_transient_rate(0.2).build();
                    let fm = FileMatrix::create(&scratch_path("grid-flaky"), &a, b).unwrap();
                    let mut fb = FaultyBackend::new(fm, plan);
                    ooc_potrf_pipelined_with(&mut fb, &cfg).unwrap();
                    assert!(fb.fault_stats().disk_faults() > 0, "{tag}");
                    assert_eq!(
                        lower_digest(&fb.inner_mut().to_matrix().unwrap()),
                        want,
                        "{tag}: flaky"
                    );

                    // Silent corruption: single flips healed on read, a
                    // double flip rolled back to the last checkpoint.
                    let plan = FaultPlan::builder(65)
                        .inject_bit_flip(1, (2, 1), (0, 0), 1 << 44)
                        .inject_bit_flip(1, (2, 1), (6, 3), 1 << 45)
                        .inject_bit_flip(2, (3, 0), (1, 2), 1 << 50)
                        .build();
                    let path = scratch_path("grid-abft");
                    let mut ab = AbftBackend::new(FileMatrix::create(&path, &a, b).unwrap(), plan);
                    let ckpt = Checkpoint::at(&path.with_extension("ckpt"));
                    let (rep, _) = checkpointed_on_fs(&mut ab, &ckpt, &cfg).unwrap();
                    let healed = ab.abft_stats();
                    assert!(
                        healed.corrections + healed.unrecoverable > 0,
                        "{tag}: {healed:?}"
                    );
                    assert_eq!(rep.restores as u64, healed.unrecoverable, "{tag}");
                    assert_eq!(
                        lower_digest(&ab.inner_mut().to_matrix().unwrap()),
                        want,
                        "{tag}: abft"
                    );
                }
            }
        }
    }

    #[test]
    fn an_idle_io_worker_runs_updates_and_none_runs_at_zero_workers() {
        // Capacity 27 walks super-columns of 4, whose chunk steps lend
        // their updates; how many an I/O worker takes depends on timing,
        // so a run may (rarely) leave it none: take the best of three.
        let a = spd::random_spd(192, &mut spd::test_rng(242));
        let mut sync = FileMatrix::create(&scratch_path("helped-sync"), &a, 16).unwrap();
        ooc_potrf_with(&mut sync, 27, KernelImpl::Reference).unwrap();
        let want = sync.to_matrix().unwrap();
        for workers in [0usize, 1, 2] {
            let mut helped = 0;
            for _ in 0..3 {
                let mut fm = FileMatrix::create(&scratch_path("helped"), &a, 16).unwrap();
                let cfg = PipelineConfig::new(27).with_io_workers(workers);
                let stats = ooc_potrf_pipelined_with(&mut fm, &cfg).unwrap();
                assert_eq!(fm.to_matrix().unwrap(), want, "W={workers}");
                assert_eq!(stats.fetches, sync.stats().reads, "W={workers}");
                helped = helped.max(stats.helped_updates);
            }
            assert_eq!(helped > 0, workers > 0, "W={workers}: {helped} updates on a worker");
        }
    }

    #[test]
    fn zero_workers_sleep_each_op_inline() {
        // One tile: one read, then the final flush's one write.
        let a = spd::random_spd(8, &mut spd::test_rng(238));
        let mut fm = FileMatrix::create(&scratch_path("sleep-w0"), &a, 8).unwrap();
        fm.set_latency_model(LatencyModel::uniform(200));
        let cfg = PipelineConfig::new(3)
            .with_io_workers(0)
            .with_sleep_latency(true);
        let t0 = std::time::Instant::now();
        let stats = ooc_potrf_pipelined_with(&mut fm, &cfg).unwrap();
        assert!(
            t0.elapsed() >= std::time::Duration::from_micros(400),
            "two ops at 200us each must take >= 400us"
        );
        assert_eq!((stats.fetches, stats.flush_writes), (1, 1));
        assert_eq!(stats.modeled_io_us, 400);
        assert_eq!(stats.prefetch_stalls, 1, "an inline read blocks compute");
    }

    #[test]
    fn model_overlap_is_deterministic_and_reports_overlap() {
        let cfg = ModelConfig {
            n: 512,
            b: 64,
            capacity_tiles: 12,
            io_workers: 2,
            lookahead: 8,
            latency: LatencyModel::uniform(100).with_jitter(10, 42),
            flops_per_us: DEFAULT_FLOPS_PER_US,
        };
        let r1 = model_overlap(&cfg);
        let r2 = model_overlap(&cfg);
        assert_eq!(r1.sync_us, r2.sync_us);
        assert_eq!(r1.pipelined_us, r2.pipelined_us);
        assert!(r1.speedup > 1.0, "overlap must beat sync: {r1:?}");
        assert_eq!(r1.sync_us, r1.compute_us + r1.io_us, "sync = compute + io");
        assert!(
            r1.pipelined_us >= r1.compute_us && r1.pipelined_us >= r1.io_us / 2,
            "pipelined is bounded below by the longer leg per worker: {r1:?}"
        );
        // One worker and zero latency degenerate sensibly.
        let free = ModelConfig {
            latency: LatencyModel::none(),
            ..cfg.clone()
        };
        let rf = model_overlap(&free);
        assert_eq!(rf.sync_us, rf.compute_us);
        assert_eq!(rf.pipelined_us, rf.compute_us);
        assert_eq!(rf.hit_rate, 1.0, "free disk never stalls");
    }

    #[test]
    fn model_overlap_meets_the_issue_gate() {
        // The modeled gate: n=2048, b=64, 100us-latency backend -> the
        // pipelined makespan within 5% of its floor, max(compute, I/O
        // per worker), and >= 90% hit rate at lookahead 4+.  (Sync is
        // only 1.91x compute here, so even a perfect pipeline's speedup
        // over it stays below 2x: the gate is on the floor.)
        let gate = ModelConfig {
            n: 2048,
            b: 64,
            capacity_tiles: 56,
            io_workers: 2,
            lookahead: 8,
            latency: LatencyModel::uniform(100),
            flops_per_us: DEFAULT_FLOPS_PER_US,
        };
        let r = model_overlap(&gate);
        let floor = r.compute_us.max(r.io_us / gate.io_workers as u64);
        assert!(
            floor as f64 >= 0.95 * r.pipelined_us as f64,
            "modeled overlap gate: {r:?}"
        );
        assert_eq!((r.reads, r.writes), (2443, 528), "each lower tile written once");
        for la in [4usize, 8, 16] {
            let cfg = ModelConfig {
                lookahead: la,
                ..gate.clone()
            };
            let r = model_overlap(&cfg);
            assert!(r.hit_rate >= 0.9, "lookahead {la}: hit rate {}", r.hit_rate);
        }
    }
}
