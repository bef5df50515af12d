//! The out-of-core front: the schedule's tile I/O planned ahead, and
//! run either inline on the compute thread or overlapped with compute on
//! dedicated I/O workers.
//!
//! Algorithm 4's tile schedule is *data-oblivious* — the sequence of
//! gets and puts is a pure function of `(nb, capacity)` — which means the
//! entire miss stream, every eviction victim, and every write-back is
//! known before the factorization starts.  This module exploits that:
//!
//! 1. A deterministic **planner** ([`Plan`]) replays an LRU cache of
//!    `capacity_tiles` tiles over the op schedule and emits one
//!    [`PlannedFetch`] per miss: the tile to read, the victims to evict
//!    (with their dirtiness), and `ready_at` — the earliest compute
//!    position at which issuing the fetch is safe (one past the last
//!    compute access of every victim).
//! 2. The **front** ([`PipelineFront`]) runs that plan on
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
//! 3. An **epoch barrier** at each panel boundary
//!    ([`PipelineFront::flush_boundary`]) drains every deferred
//!    write-back before the checkpoint layer snapshots the data file,
//!    so the journaled commit protocol of
//!    [`checkpoint`](crate::checkpoint) is preserved unchanged.
//!
//! # Why the factor is bit-identical
//!
//! The front reorders *transport*, never *arithmetic*: the compute loop
//! is the same schedule walk ([`cholcomm_matrix::schedule`]) under the
//! same driver loop at every W, and every get returns the same stored
//! bytes it returns at W = 0.  Three hazards could break that, and each
//! is closed structurally:
//!
//! * **Evict-before-last-use** — a victim may not leave the in-RAM set
//!   while compute still needs it.  Closed by `ready_at`: the planner
//!   knows each victim's final access position, and the front never
//!   issues a fetch (hence never evicts) before compute has passed it.
//! * **Read-after-write** — a prefetch of a tile with a pending
//!   deferred write-back must observe the write.  Closed in
//!   [`PipeIo`]: a read job blocks until no write of its tile is
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
use cholcomm_matrix::schedule::{self, TileOp, TileStore};
use cholcomm_matrix::{KernelImpl, Matrix};
use cholcomm_par::io::{io_scope, IoScope};
use std::collections::{HashMap, HashSet};
use std::convert::Infallible;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A resident tile: shared with the walk by [`TileStore::get`], empty
/// between a [`TileStore::take`] and the `put` that refills it.
type Slot = Option<Arc<Matrix<f64>>>;

/// What a resident slot hands the walk: a share of its tile, or — for a
/// take — the tile itself, leaving the slot empty.
fn hand_out(slot: &mut Slot, take: bool) -> Arc<Matrix<f64>> {
    if take { slot.take() } else { slot.clone() }
        .expect("a taken tile is put back before it is fetched again")
}

/// Tiles the schedule holds live at once inside one trailing-update
/// step (`lj`, `li`, and the updated tile) — the floor under the
/// default lookahead so prefetch depth never cannibalizes the working
/// set.
pub use cholcomm_matrix::schedule::WORKING_SET;

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

impl PipelineConfig {
    /// Defaults: workers from the environment, lookahead =
    /// `capacity_tiles - WORKING_SET` (at least 1), reference kernels,
    /// latency tallied but not slept.
    pub fn new(capacity_tiles: usize) -> Self {
        assert!(
            capacity_tiles >= WORKING_SET,
            "Algorithm 4 needs three tiles resident"
        );
        PipelineConfig {
            capacity_tiles,
            io_workers: io_workers_from_env(),
            lookahead: capacity_tiles.saturating_sub(WORKING_SET).max(1),
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
    /// Total modeled latency of every enqueued op, µs (what a
    /// synchronous run would have blocked on).
    pub modeled_io_us: u64,
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

/// One logical tile access of the schedule, plus the panel boundary
/// marker the checkpointed driver flushes at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Access {
    Get(usize, usize),
    /// The op whose result is installed (in its target tile).
    Put(TileOp),
    /// A panel just finished; checkpointed runs flush here.
    Boundary,
}

/// The store that carries no tiles: walking the schedule over it
/// records the access stream every real front will see.
struct Recorder {
    ops: Vec<Access>,
    /// Mark panel boundaries (checkpointed runs flush there).
    boundaries: bool,
    k: usize,
}

impl Recorder {
    /// A panel ends where the next begins, and after the last.
    fn end_panel(&mut self) {
        if self.boundaries && !self.ops.is_empty() {
            self.ops.push(Access::Boundary);
        }
    }
}

impl TileStore for Recorder {
    type Tile = ();
    type Error = Infallible;

    fn begin_panel(&mut self, k: usize) {
        self.end_panel();
        self.k = k;
    }
    fn get(&mut self, bi: usize, bj: usize) -> Result<(), Infallible> {
        self.ops.push(Access::Get(bi, bj));
        Ok(())
    }
    fn put(&mut self, bi: usize, bj: usize, _tile: ()) -> Result<(), Infallible> {
        self.ops.push(Access::Put(TileOp::of(bi, bj, self.k)));
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
}

/// The deterministic lookahead plan: the schedule's access stream for
/// panels `start..nb` with the LRU cache simulated over it.
#[derive(Debug)]
struct Plan {
    ops: Vec<Access>,
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
    fn new(nb: usize, capacity: usize, start: usize, flush_at_boundaries: bool) -> Plan {
        assert!(
            capacity >= WORKING_SET,
            "Algorithm 4 needs three tiles resident"
        );
        let mut rec = Recorder {
            ops: Vec::new(),
            boundaries: flush_at_boundaries,
            k: start,
        };
        let Ok(()) = schedule::walk(&mut rec, nb, start..nb, |_, _, _| Ok(()));
        rec.end_panel();
        let ops = rec.ops;

        // Replay an LRU cache of `capacity` tiles over the schedule: a
        // miss evicts least-recently-used tiles until one slot is free.
        let mut order = LruIndex::new();
        let mut resident: HashMap<(usize, usize), bool> = HashMap::new(); // key -> dirty
        let mut last_access: HashMap<(usize, usize), usize> = HashMap::new();
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
                        order.touch(key);
                    } else {
                        let mut evict = Vec::new();
                        let mut ready_at = 0usize;
                        while order.len() >= capacity {
                            let victim = order.lru().expect("full cache has a victim");
                            let vd = resident.remove(&victim).expect("victim is resident");
                            order.remove(victim);
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
                        fetches.push(PlannedFetch {
                            tile: key,
                            miss_pos: pos,
                            ready_at,
                            evict,
                        });
                        resident.insert(key, false);
                        order.touch(key);
                    }
                    last_access.insert(key, pos);
                }
                Access::Put(op) => {
                    let key = op.target();
                    // Every put follows a get of the same tile in the
                    // schedule, so puts never miss.
                    debug_assert!(resident.contains_key(&key), "put of a non-resident tile");
                    resident.insert(key, true);
                    order.touch(key);
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
    fetched: HashMap<(usize, usize), Matrix<f64>>,
    /// Read jobs enqueued or running.
    reads_inflight: usize,
    /// Write-back payloads enqueued but not yet picked up.
    write_data: HashMap<(usize, usize), Arc<Matrix<f64>>>,
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

    /// Body of a prefetch-read job.
    fn read_job(&self, tile: (usize, usize), us: u64) {
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
        let result = self.on_backend(|be| be.write_tile(tile.0, tile.1, &data));
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

    /// Wait until every deferred write-back has landed (the epoch
    /// barrier the checkpoint snapshot requires).
    fn drain_writes(&self) -> Result<(), OocError> {
        let mut st = lock(&self.st);
        loop {
            if let Some(e) = st.error.take() {
                return Err(OocError::Io(e));
            }
            if st.write_data.is_empty() && st.write_inflight.is_empty() {
                return Ok(());
            }
            st = self.wait(st);
        }
    }

    /// Wait for *every* in-flight job to finish, ignoring errors — the
    /// restore path, where whatever the jobs were doing is moot.
    fn quiesce(&self) {
        let mut st = lock(&self.st);
        while st.reads_inflight > 0 || !st.write_data.is_empty() || !st.write_inflight.is_empty() {
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
}

impl<'s, 'env, 'fm: 'env, B: IoBackend> PipelineFront<'s, 'env, 'fm, B> {
    fn new(
        io: &'env PipeIo<'fm, B>,
        scope: &'s IoScope<'s, 'env>,
        plan: Plan,
        cfg: &PipelineConfig,
        nb: usize,
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
        }
    }

    fn enqueue_read(&mut self, tile: (usize, usize)) {
        let us = self.io.model.sample(DiskOp::Read, self.op_seq);
        self.op_seq += 1;
        self.stats.modeled_io_us += us;
        lock(&self.io.st).reads_inflight += 1;
        let io = self.io;
        self.scope.submit(move || io.read_job(tile, us));
    }

    fn enqueue_write(&mut self, tile: (usize, usize), data: Arc<Matrix<f64>>) {
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
        let tile = f.tile;
        for (victim, planned_dirty) in std::mem::take(&mut f.evict) {
            let (data, dirty) = self
                .resident
                .remove(&victim)
                .expect("planned victim is resident at issue time");
            debug_assert_eq!(dirty, planned_dirty, "planned dirtiness of {victim:?}");
            if dirty {
                let data = data.expect("a taken tile's put comes before its eviction");
                self.enqueue_write(victim, data);
                self.stats.evict_writes += 1;
            }
        }
        self.enqueue_read(tile);
        self.stats.fetches += 1;
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
    fn wait_fetched(&mut self, tile: (usize, usize)) -> Result<Matrix<f64>, OocError> {
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
    fn fetch(&mut self, key: (usize, usize), take: bool) -> Result<Arc<Matrix<f64>>, OocError> {
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
            self.resident.insert(key, (Some(Arc::new(tile)), false));
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
    type Tile = Arc<Matrix<f64>>;
    type Error = OocError;

    fn begin_panel(&mut self, k: usize) {
        self.io.with_backend(|be| be.begin_panel(k));
    }
    fn get(&mut self, bi: usize, bj: usize) -> Result<Arc<Matrix<f64>>, OocError> {
        self.fetch((bi, bj), false)
    }
    fn take(&mut self, bi: usize, bj: usize) -> Result<Arc<Matrix<f64>>, OocError> {
        self.fetch((bi, bj), true)
    }
    fn put(&mut self, bi: usize, bj: usize, tile: Arc<Matrix<f64>>) -> Result<(), OocError> {
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

    /// The epoch barrier at a panel boundary: enqueue every dirty
    /// resident tile, and drain the write queue so the checkpoint
    /// snapshot sees the complete panel.
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
                    && st.write_data.is_empty()
                    && st.write_inflight.is_empty(),
                "quiesce left jobs in flight"
            );
        }
        self.plan = Plan::new(self.nb, self.capacity, k, self.boundaries);
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
    let nb = fm.nb();
    let plan = Plan::new(nb, cfg.capacity_tiles, start, boundaries);
    let io = PipeIo::new(fm, cfg.sleep_latency);
    io_scope(cfg.io_workers, |scope| {
        let mut front = PipelineFront::new(&io, scope, plan, cfg, nb, boundaries);
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
        drive(front, cfg.kernel, start, ck)?;
        Ok(front.stats)
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

/// Out-of-core Cholesky with the panel-granularity journaled checkpoint
/// protocol of [`checkpoint`](crate::checkpoint), over an explicit
/// [`Store`] — the entry point the crash-point explorer drives with a
/// `SimStore`, so checkpoint traffic and tile traffic land on the same
/// recorded schedule.  [`ooc_potrf_checkpointed`](crate::ooc_potrf_checkpointed)
/// is its W = 0 case on the real filesystem.  The epoch barrier at each
/// panel boundary drains every deferred write-back *before* the
/// snapshot, so intent → data → barrier → commit sees exactly the
/// states W = 0 commits.  Crash/resume therefore yields the same
/// bit-identical factor at every W, and unhealable ABFT corruption is
/// answered by the same quiesce-restore-retry rollback.
///
/// One ABFT nuance at W ≥ 1: a cross-panel prefetch may read a tile
/// *before* `begin_panel` schedules that panel's corruption against it,
/// so a given flip can land on a later read — or only on the final
/// scrub — instead of the read W = 0 would have caught it on.
/// Detection and healing guarantees are unchanged (every read is
/// verified and the scrub closes the gap); only the step at which a
/// given flip is *observed* may shift.
///
/// The checkpoint/restore protocol and all tile I/O are
/// engine-independent.  `FastStrict` is bit-identical to `Reference`, so
/// a run may even crash under one of those engines and resume under the
/// other; `Fast` contracts multiply-adds through FMA, so mixing it with
/// the others across a restart yields a factor that differs by the
/// (tiny) contraction residual — restart under the engine you crashed
/// with if bit-reproducibility matters.
pub fn ooc_potrf_checkpointed_pipelined_in<B: IoBackend>(
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

/// Deterministic event-level model of the overlap: the same [`Plan`]
/// walked twice — once serialized (the synchronous baseline), once with
/// reads and write-backs on `io_workers` parallel timelines, compute
/// stalling only at misses whose read has not completed.  Compute is
/// charged at puts (`potf2` = `b³/3`, `trsm` = `b³`, `gemm` = `2b³`
/// flops; edge tiles charged full — it is a model).  Pure function of
/// its config: this is what `ooc_bench` gates the ≥2x overlap claim on,
/// exactly reproducible in CI.
pub fn model_overlap(cfg: &ModelConfig) -> ModelReport {
    let nb = cfg.n.div_ceil(cfg.b);
    let plan = Plan::new(nb, cfg.capacity_tiles, 0, false);

    // Compute is charged where its result is put.
    let fb = cfg.b as f64;
    let potf2_us = ((fb * fb * fb / 3.0) / cfg.flops_per_us).round() as u64;
    let trsm_us = ((fb * fb * fb) / cfg.flops_per_us).round() as u64;
    let gemm_us = ((2.0 * fb * fb * fb) / cfg.flops_per_us).round() as u64;
    let compute_cost: Vec<u64> = plan
        .ops
        .iter()
        .map(|access| match access {
            Access::Put(TileOp::Factor { .. }) => potf2_us,
            Access::Put(TileOp::Solve { .. }) => trsm_us,
            Access::Put(TileOp::Update { .. }) => gemm_us,
            Access::Get(..) | Access::Boundary => 0,
        })
        .collect();

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
    use crate::filemat::{scratch_path, FileMatrix};
    use crate::potrf::ooc_potrf_with;
    use cholcomm_faults::{CrashPoint, DiskFault, FaultPlan};
    use cholcomm_matrix::schedule::TileGrid;
    use cholcomm_matrix::{matrix_digest, spd};

    fn ooc_potrf_checkpointed_pipelined<B: IoBackend>(
        fm: &mut B,
        ckpt: &Checkpoint,
        cfg: &PipelineConfig,
    ) -> Result<(CheckpointReport, PipelineStats), OocError> {
        ooc_potrf_checkpointed_pipelined_in(fm, ckpt, &mut FsStore::new(), cfg)
    }

    /// What a `Solve` or `Update` did with its target: the allocation
    /// and holder count of the tile taken for it, if it was taken, and
    /// the allocation put back.
    struct Handoff {
        op: TileOp,
        taken: Option<(*const Matrix<f64>, usize)>,
        put: *const Matrix<f64>,
    }

    /// A real front that also logs the accesses it serves, and how the
    /// target of every `Solve` and `Update` crossed it.
    struct Logged<'a, F> {
        front: &'a mut F,
        k: usize,
        seen: Vec<Access>,
        /// The last take: its tile, allocation and holder count.
        taken: Option<((usize, usize), *const Matrix<f64>, usize)>,
        handoffs: Vec<Handoff>,
    }

    impl<'a, F> Logged<'a, F> {
        fn new(front: &'a mut F, k: usize) -> Self {
            Logged {
                front,
                k,
                seen: Vec::new(),
                taken: None,
                handoffs: Vec::new(),
            }
        }
    }

    impl<F: Front> TileStore for Logged<'_, F> {
        type Tile = Arc<Matrix<f64>>;
        type Error = OocError;
        fn begin_panel(&mut self, k: usize) {
            self.k = k;
            self.front.begin_panel(k);
        }
        fn get(&mut self, bi: usize, bj: usize) -> Result<Arc<Matrix<f64>>, OocError> {
            self.seen.push(Access::Get(bi, bj));
            self.front.get(bi, bj)
        }
        fn take(&mut self, bi: usize, bj: usize) -> Result<Arc<Matrix<f64>>, OocError> {
            self.seen.push(Access::Get(bi, bj));
            let t = self.front.take(bi, bj)?;
            self.taken = Some(((bi, bj), Arc::as_ptr(&t), Arc::strong_count(&t)));
            Ok(t)
        }
        fn put(&mut self, bi: usize, bj: usize, tile: Arc<Matrix<f64>>) -> Result<(), OocError> {
            let op = TileOp::of(bi, bj, self.k);
            self.seen.push(Access::Put(op));
            if !matches!(op, TileOp::Factor { .. }) {
                let taken = self.taken.take().filter(|&(key, ..)| key == (bi, bj));
                self.handoffs.push(Handoff {
                    op,
                    taken: taken.map(|(_, at, holders)| (at, holders)),
                    put: Arc::as_ptr(&tile),
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
        for (n, b, start) in [(40usize, 8usize, 0usize), (37, 8, 2), (8, 8, 0), (24, 8, 3)] {
            let a = spd::random_spd(n, &mut rng);
            let mut fm = FileMatrix::create(&scratch_path("planlog"), &a, b).unwrap();
            let grid = TileGrid::new(n, b);
            let cfg = PipelineConfig::new(4).with_io_workers(0);
            let seen = with_front(&mut fm, &cfg, 0, false, |front| {
                // Panels before `start` run unlogged, as a resumed run's
                // predecessor would have.
                schedule::factor(front, grid, 0..start, KernelImpl::Reference)?;
                let mut logged = Logged::new(front, start);
                for k in start..grid.nb() {
                    schedule::factor(&mut logged, grid, k..k + 1, KernelImpl::Reference)?;
                    logged.seen.push(Access::Boundary);
                }
                Ok(logged.seen)
            })
            .unwrap();
            let plan = Plan::new(grid.nb(), 4, start, true);
            assert_eq!(plan.ops, seen, "n={n} b={b} start={start}");
            let plain: Vec<Access> = seen
                .into_iter()
                .filter(|a| *a != Access::Boundary)
                .collect();
            assert_eq!(Plan::new(grid.nb(), 4, start, false).ops, plain);
        }
    }

    #[test]
    fn plan_counts_match_the_real_file() {
        let mut rng = spd::test_rng(230);
        let a = spd::random_spd(40, &mut rng);
        let b = 8;
        let nb = a.rows().div_ceil(b);
        for cap in [3usize, 5, 12] {
            let mut fm = FileMatrix::create(&scratch_path(&format!("plan{cap}")), &a, b).unwrap();
            ooc_potrf_with(&mut fm, cap, KernelImpl::Reference).unwrap();
            let s = fm.stats();
            let plan = Plan::new(nb, cap, 0, false);
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
        crate::checkpoint::ooc_potrf_checkpointed(&mut fm, cap, &ckpt).unwrap();
        let s = fm.stats();
        let plan = Plan::new(nb, cap, 0, true);
        assert_eq!(s.reads, plan.fetches.len() as u64);
        let flushes: u64 = plan.boundary_writes.iter().map(|v| v.len() as u64).sum();
        assert_eq!(s.writes, plan.evict_writes + flushes);
        assert!(plan.final_writes.is_empty());
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
            let mut logged = Logged::new(front, 0);
            drive(&mut logged, KernelImpl::Reference, 0, ck)?;
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
        for cap in [3usize, 5, 12] {
            let writes: Vec<TileOp> = Plan::new(nb, cap, 0, false)
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
                    // allocation: the kernel wrote in place.
                    assert_eq!(h.taken, Some((h.put, 1)), "{tag}: {:?}", h.op);
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
        // of an order-37, b = 8 matrix leaves, per capacity and engine,
        // captured before tiles crossed the fronts by reference.  The
        // failed tile keeps its pre-factor bytes because a `Factor` target
        // is a `get`, never a `take`.
        use KernelImpl::{Fast, Reference};
        const GOLDEN: [(usize, usize, KernelImpl, u64); 12] = [
            (3, 0, Reference, 0xda55a5670a383986),
            (3, 0, Fast, 0xda55a5670a383986),
            (3, 2, Reference, 0x3568be49431f4293),
            (3, 2, Fast, 0x8400ebaefb214740),
            (3, 4, Reference, 0x83c3e50d0c92e0e6),
            (3, 4, Fast, 0x613b215b5710de29),
            (12, 0, Reference, 0xda55a5670a383986),
            (12, 0, Fast, 0xda55a5670a383986),
            (12, 2, Reference, 0x3568be49431f4293),
            (12, 2, Fast, 0x8400ebaefb214740),
            (12, 4, Reference, 0x83c3e50d0c92e0e6),
            (12, 4, Fast, 0x613b215b5710de29),
        ];
        let a = spd::random_spd(37, &mut spd::test_rng(237));
        for (cap, tile, kernel, want) in GOLDEN {
            let pivot = tile * 8 + 2;
            let mut m = a.clone();
            m[(pivot, pivot)] = -1.0;
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
                assert_eq!(matrix_digest(&fm.to_matrix().unwrap()), want, "{tag}");
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
        // per-op plan fires at identical indices, and the tallies equal
        // those pinned on the synchronous driver that W = 0 replaced.
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
            assert_eq!(tallies, (2, 1, 3, 33), "W={workers}");
            let s = fb.stats();
            let io = (s.reads, s.writes, s.bytes_read, s.bytes_written, s.seeks, s.seek_distance);
            assert_eq!(io, (17, 16, 8704, 8192, 29, 76288), "W={workers}");
            assert_eq!(fb.inner_mut().to_matrix().unwrap(), want, "W={workers}");
        }

        // Two workers: op order may permute, so use rate faults; every
        // transient must still be healed below the factorization.
        let rate_plan = FaultPlan::builder(61).disk_transient_rate(0.2).build();
        let fm = FileMatrix::create(&scratch_path("flaky-w2"), &a, 8).unwrap();
        let mut fb = FaultyBackend::new(fm, rate_plan);
        let cfg = PipelineConfig::new(4).with_io_workers(2);
        ooc_potrf_pipelined_with(&mut fb, &cfg).unwrap();
        assert!(fb.fault_stats().disk_faults() > 0, "plan should have bitten");
        assert_eq!(fb.inner_mut().to_matrix().unwrap(), want);
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
        let cfg = PipelineConfig::new(4).with_io_workers(2).with_lookahead(3);
        {
            let mut fm = FileMatrix::create(&path, &a, 8).unwrap();
            fm.set_persist(true); // the "dead process" leaves its file behind
            let plan = FaultPlan::builder(62)
                .crash_at(CrashPoint::AfterPanel(1))
                .build();
            let mut fb = FaultyBackend::new(fm, plan);
            let err = ooc_potrf_checkpointed_pipelined(&mut fb, &ckpt, &cfg).unwrap_err();
            assert!(matches!(err, OocError::Io(_)), "crash surfaces as Io");
        }
        // "Restart the process": reopen and resume with the same ckpt.
        let mut fm = FileMatrix::open(&path, 32, 8).unwrap();
        let (rep, stats) = ooc_potrf_checkpointed_pipelined(&mut fm, &ckpt, &cfg).unwrap();
        // The crash hits after panel 1 completes but *before* its
        // checkpoint commits, so the resume replays panel 1.
        assert_eq!(rep.start_panel, 1, "panel 0's checkpoint was the last committed");
        assert!(stats.fetches > 0);
        assert_eq!(
            fm.to_matrix().unwrap(),
            want,
            "crash + resume must not change a single bit"
        );
        assert!(ckpt.load().unwrap().is_none(), "checkpoint removed after success");
    }

    #[test]
    fn checkpointed_pipeline_matches_sync_without_faults() {
        let mut rng = spd::test_rng(234);
        let a = spd::random_spd(40, &mut rng);
        let mut sync = FileMatrix::create(&scratch_path("pck-sync"), &a, 8).unwrap();
        let sync_ckpt = Checkpoint::at(&scratch_path("pck-sync").with_extension("ckpt"));
        let sync_rep =
            crate::checkpoint::ooc_potrf_checkpointed(&mut sync, 4, &sync_ckpt).unwrap();
        let want = sync.to_matrix().unwrap();

        let mut fm = FileMatrix::create(&scratch_path("pck-pipe"), &a, 8).unwrap();
        let ckpt = Checkpoint::at(&scratch_path("pck-pipe").with_extension("ckpt"));
        let cfg = PipelineConfig::new(4).with_io_workers(2);
        let (rep, _) = ooc_potrf_checkpointed_pipelined(&mut fm, &ckpt, &cfg).unwrap();
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
        let cfg = PipelineConfig::new(3).with_io_workers(2).with_lookahead(2);
        let (rep, _) = ooc_potrf_checkpointed_pipelined(&mut ab, &ckpt, &cfg).unwrap();
        assert!(rep.restores >= 1, "multi-element corruption forced a rollback");
        assert_eq!(ab.abft_stats().unrecoverable, 1);
        assert_eq!(
            ab.inner_mut().to_matrix().unwrap(),
            want,
            "restored-and-retried factor must be bit-identical"
        );
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
        // The ISSUE's modeled gate: n=2048, b=64, 100us-latency backend
        // -> >= 2x overlap speedup, and >= 90% hit rate at lookahead 4+.
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
        assert!(r.speedup >= 2.0, "modeled overlap gate: {r:?}");
        for la in [4usize, 8, 16] {
            let r = model_overlap(&ModelConfig {
                lookahead: la,
                ..gate.clone()
            });
            assert!(r.hit_rate >= 0.9, "lookahead {la}: hit rate {}", r.hit_rate);
        }
    }
}

