//! Task-DAG Cholesky on the work-stealing pool.
//!
//! The tiled right-looking factorization of
//! [`cholcomm_matrix::schedule`], executed as its true dependence DAG —
//!
//! * `FACTOR(k)`      — `potf2` on diagonal tile `(k, k)`;
//! * `SOLVE(i, k)`    — `trsm` of panel tile `(i, k)` against `FACTOR(k)`;
//! * `UPDATE(i, j, k)` — rank-`b` `gemm_nt` of panel `k` into tile `(i, j)`
//!
//! — instead of in the sequential walk's order.  Tasks are scheduled
//! with [`rayon::scope`]: every task carries an atomic countdown of its
//! unmet dependencies, and whichever worker completes the last
//! dependency spawns the task right there.  Panel solves of step `k+1`
//! overlap trailing updates of step `k`; no worker ever waits at a
//! barrier.
//!
//! **The life of a tile.**  The column-major <-> tile conversion is work
//! like any other, so it runs on the pool, not around it, and every
//! element moves once each way.  The mapping itself is
//! [`TileGrid::cut_tile`] and [`TileGrid::write_block_column`], the two
//! primitives the serial [`MemTiles`](schedule::MemTiles) store is made
//! of.
//!
//! * *Uncut.*  The caller reserves every tile's storage (capacity only:
//!   no page is touched, and each buffer is later freed by the thread
//!   that allocated it) and the graph starts.  Until it has succeeded the
//!   input matrix is only read.
//! * *Plain.*  A tile's first op — `UPDATE(i, j, 0)`, or its
//!   `FACTOR`/`SOLVE` in block column 0 — cuts it from the input into
//!   that storage, on the worker about to update it, and the tile stays
//!   plain while it is written.
//! * *Packed.*  A solved panel tile `L(i, k)` is final and is read by up
//!   to `nb - k` updates.  Under an engine that
//!   [packs](KernelImpl::packs_tiles) this grid's tiles, `SOLVE(i, k)`
//!   ends by replacing the tile with its packed form — the layout the
//!   update micro-kernel streams — so no update re-packs an operand, and
//!   the store holds each tile once, in whichever form its next reader
//!   wants (diagonal tiles stay plain: only `trsm` reads them).
//! * *Written back.*  Once the graph has succeeded, one pool task per
//!   block column copies or unpacks that column's tiles into its
//!   contiguous slice of the matrix and zeroes the part above the
//!   diagonal in the same sweep.  It waits for the whole graph because a
//!   failing `FACTOR(k)` must leave the input untouched.
//!
//! **Bit-identity.**  Each tile `(i, j)` receives exactly the same kernel
//! calls in exactly the same order as under the sequential walk
//! (ascending-`k` updates, then its final `trsm`/`potf2`, all through the
//! one [`schedule::apply`]), and every operand tile is read only after it
//! is fully factored.  Per-element arithmetic is therefore identical
//! operation-for-operation, so the DAG schedule is *bitwise* equal to the
//! walk over in-memory tiles — for every kernel engine, at every thread
//! count, under every steal order.  The tests pin this down.
//!
//! **Model.**  [`simulate`] runs a deterministic greedy list scheduler over
//! the same DAG (the successor/dependency functions are the schedule's,
//! shared with the real executor) with flop-count task weights.  It
//! reports the serial work, the greedy makespan on `p` workers, and their
//! ratio — the machine-independent speedup the schedule admits.
//! A unit test gates on this model (>= 2.5x on 4 workers at n = 1024,
//! b = 64) so the scaling claim is checkable even on a single-core CI
//! host; perfbench's `dag_fine` and `dag_large` report the wall clock.

use std::cell::UnsafeCell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use cholcomm_matrix::schedule::{self, tile_idx, TileGrid, TileOp};
use cholcomm_matrix::{KernelImpl, Matrix, MatrixError, Operand, PackedTile};

/// A tile of the in-flight factorization (see "The life of a tile"):
/// reserved storage until its first op cuts it from the input, plain
/// while it is written, packed once it is a final panel tile under a
/// packing engine.
enum Tile {
    Uncut(Vec<f64>),
    Plain(Matrix<f64>),
    Packed(PackedTile),
}

impl Tile {
    fn operand(&self) -> Operand<'_, f64> {
        match self {
            Tile::Uncut(_) => unreachable!("a final tile has been written, so it was cut"),
            Tile::Plain(t) => Operand::Plain(t),
            Tile::Packed(t) => Operand::Packed(t),
        }
    }

    /// Copy the tile into a window of the matrix (leading dimension `ld`).
    fn write_to_cols(&self, window: &mut [f64], ld: usize) {
        match self {
            Tile::Uncut(_) => unreachable!("every tile has an op, and the graph succeeded"),
            Tile::Plain(t) => t.copy_to_cols(window, ld),
            Tile::Packed(t) => t.unpack_to_cols(window, ld),
        }
    }
}

/// Shared-by-reference tile storage for the in-flight factorization.
///
/// Soundness: the dependence DAG guarantees that a task has exclusive
/// access to the one tile it writes (tasks of a tile are chained) and that
/// the tiles it reads are final (their last writer is a transitive
/// dependency), so the `&mut`/`&` pairs handed out below never alias a
/// concurrent writer.  `schedule`'s
/// `walk_order_is_a_linear_extension_of_the_dag` checks the graph those
/// two claims are read off.
struct Tiles {
    cells: Vec<UnsafeCell<Tile>>,
}

// SAFETY: `Tile` is `Send`, and every cross-thread hand-over of a cell
// goes through the `AcqRel` countdown in `notify`: a tile's writer
// decrements before the next toucher is spawned, so accesses to one cell
// are ordered, never concurrent.  A torn or stale tile would change the
// factor's digest, which
// `dag_is_bitwise_equal_to_the_sequential_walk_at_every_pool_size` holds
// to the sequential walk's on 1, 2, 4 and 8 workers (and CI repeats
// under AddressSanitizer).
unsafe impl Sync for Tiles {}

impl Tiles {
    /// Exclusive view of the tile a task writes.
    ///
    /// # Safety
    /// The caller must be the unique in-flight task of tile `t`.
    #[allow(clippy::mut_from_ref)]
    unsafe fn tile_mut(&self, t: usize) -> &mut Tile {
        // SAFETY: by the caller's contract nothing else holds a reference
        // into cell `t`; the index is bounds-checked.  Every task of
        // every test in this module comes through here.
        &mut *self.cells[t].get()
    }

    /// Shared view of a fully-factored operand tile.
    ///
    /// # Safety
    /// Tile `t`'s final task must be a (transitive) dependency of the
    /// caller, so no writer is concurrent.
    unsafe fn tile(&self, t: usize) -> Operand<'_, f64> {
        // SAFETY: by the caller's contract the cell has no writer left, so
        // shared references to it (several updates read one panel tile at
        // once) are all there is.  Exercised by every SOLVE and UPDATE of
        // the bit-identity test above.
        (*self.cells[t].get()).operand()
    }
}

/// Everything the task bodies share.
struct Ctx<'a> {
    /// The matrix being factored.  Tiles are cut from it; nothing is
    /// written to it until the graph has succeeded.
    input: &'a Matrix<f64>,
    tiles: Tiles,
    /// Dependency countdowns, indexed by [`TileOp::id`].
    deps: Vec<AtomicUsize>,
    failed: AtomicBool,
    error: Mutex<Option<MatrixError>>,
    kernel: KernelImpl,
    grid: TileGrid,
    nb: usize,
}

/// Decrement a successor's dependency counter; spawn it if this was the
/// last unmet dependency.
fn notify<'s>(ctx: &'s Ctx<'_>, s: &rayon::Scope<'s>, op: TileOp) {
    if ctx.deps[op.id(ctx.nb)].fetch_sub(1, Ordering::AcqRel) == 1 {
        s.spawn(move |s| run_task(ctx, s, op));
    }
}

/// Execute `op` and unlock its successors.
fn run_task<'s>(ctx: &'s Ctx<'_>, s: &rayon::Scope<'s>, op: TileOp) {
    if ctx.failed.load(Ordering::Acquire) {
        // A pivot already failed: drain without spawning successors.
        return;
    }
    let (bi, bj) = op.target();
    // SAFETY: the ops of a tile are chained (`dep_count` counts the
    // previous op of the same tile) and this one's predecessors are done,
    // so (bi, bj) is exclusively ours.  Two tasks in one tile would break
    // `dag_is_bitwise_equal_to_the_sequential_walk_at_every_pool_size`
    // (b = 4 on 8 workers is the many-tiny-tasks stress) and
    // `tests/parallel_threads.rs`.
    let tile = unsafe { ctx.tiles.tile_mut(tile_idx(bi, bj)) };
    if let Tile::Uncut(buf) = tile {
        // First touch: this worker is about to stream the tile through
        // its cache anyway.
        *tile = Tile::Plain(ctx.grid.cut_tile(ctx.input, bi, bj, std::mem::take(buf)));
    }
    let Tile::Plain(target) = tile else {
        unreachable!("{op:?} writes a tile that was already packed as final");
    };
    let done = match op {
        TileOp::Factor { .. } => schedule::apply(op, ctx.kernel, ctx.grid, target, &[]),
        TileOp::Solve { k, .. } => {
            // SAFETY: FACTOR(k) is a dependency, so the diagonal is final
            // (and stays plain).  A solve that read it early would see an
            // unfactored tile: the bit-identity test above runs every
            // solve of every panel at four pool sizes.
            let diag = unsafe { ctx.tiles.tile(tile_idx(k, k)) };
            schedule::apply(op, ctx.kernel, ctx.grid, target, &[diag])
        }
        TileOp::Update { i, j, k } => {
            // SAFETY: SOLVE(i, k) is a dependency, so panel tile (i, k) is
            // final — and already packed, if it ever will be: the
            // replacement below precedes the solve's `notify`.  The
            // packed-vs-plain digests of the bit-identity test (b = 128
            // packs, b = 136 does not) cover both forms.
            let li = unsafe { ctx.tiles.tile(tile_idx(i, k)) };
            // SAFETY: likewise SOLVE(j, k) for the column operand; on the
            // diagonal (i == j) it is the same tile, shared twice.
            let lj = unsafe { ctx.tiles.tile(tile_idx(j, k)) };
            schedule::apply(op, ctx.kernel, ctx.grid, target, &[li, lj])
        }
    };
    let packs = ctx.kernel.packs_tiles::<f64>(ctx.grid.b);
    if done.is_ok() && matches!(op, TileOp::Solve { .. }) && packs {
        // The tile is final and every reader from here on is an update:
        // keep only the form they consume.
        let plain = std::mem::replace(target, Matrix::zeros(0, 0));
        *tile = Tile::Packed(PackedTile::replacing(plain));
    }
    if let Err(e) = done {
        let mut slot = ctx.error.lock().expect("error mutex poisoned");
        slot.get_or_insert(e);
        ctx.failed.store(true, Ordering::Release);
        return; // no successors: the factorization is abandoned.
    }
    op.for_each_successor(ctx.nb, |succ| notify(ctx, s, succ));
}

/// DAG-scheduled tiled right-looking Cholesky with tile size `b`.
/// Bitwise equal to the sequential walk over in-memory tiles at every
/// thread count (run it inside a sized `ThreadPool::install` to pick
/// one).
///
/// On failure the matrix is left untouched; the returned
/// [`MatrixError::NotSpd`] pivot is in whole-matrix coordinates.
pub fn potrf_dag_with(
    a: &mut Matrix<f64>,
    b: usize,
    kernel: KernelImpl,
) -> Result<(), MatrixError> {
    let grid = TileGrid::of(a, b)?;
    let nb = grid.nb();
    if nb == 0 {
        return Ok(());
    }

    let mut deps = vec![0usize; TileOp::id_space(nb)];
    for op in TileOp::all(nb) {
        deps[op.id(nb)] = op.dep_count();
    }
    // Reserved here, filled by each tile's first op, freed here again:
    // a worker that allocated the tile it cuts would do so from its own
    // malloc arena and leave this thread to free it across arenas.
    let uncut = (0..nb)
        .flat_map(|bi| (0..=bi).map(move |bj| grid.tile_len(bi, bj)))
        .map(|len| UnsafeCell::new(Tile::Uncut(Vec::with_capacity(len))));
    let ctx = Ctx {
        input: a,
        tiles: Tiles {
            cells: uncut.collect(),
        },
        deps: deps.into_iter().map(AtomicUsize::new).collect(),
        failed: AtomicBool::new(false),
        error: Mutex::new(None),
        kernel,
        grid,
        nb,
    };

    // FACTOR(0) is the unique root; everything else follows by
    // dependency-completion spawning.  scope() returns once every spawned
    // task has run.
    rayon::scope(|s| run_task(&ctx, s, TileOp::Factor { k: 0 }));

    let Ctx { tiles, error, .. } = ctx;
    if let Some(err) = error.into_inner().expect("error mutex poisoned") {
        return Err(err);
    }

    // The graph succeeded, so the input may be overwritten: one task per
    // block column, each with its own contiguous slice of the matrix.
    let tiles: Vec<Tile> = tiles.cells.into_iter().map(UnsafeCell::into_inner).collect();
    let tiles = &tiles;
    rayon::scope(|s| {
        for (bj, cols) in grid.block_columns_mut(a).enumerate() {
            s.spawn(move |_| {
                grid.write_block_column(bj, cols, |bi, window, ld| {
                    tiles[tile_idx(bi, bj)].write_to_cols(window, ld)
                })
            });
        }
    });
    Ok(())
}

/// What the greedy list-scheduler model reports for one `(n, b, p)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DagModel {
    /// Number of tasks in the DAG.
    pub tasks: usize,
    /// Serial work: the sum of all task weights (flops).
    pub serial_flops: u64,
    /// Greedy makespan on `threads` workers (flops of the longest
    /// worker timeline).
    pub parallel_flops: u64,
    /// `serial_flops / parallel_flops` — the model speedup.
    pub speedup: f64,
}

/// Deterministic greedy list scheduling of the POTRF task DAG.
///
/// Event-driven simulation: `threads` workers, each ready task started as
/// soon as a worker frees up (lowest task id first among equally-ready
/// tasks), task durations equal to their flop counts.  The result is a
/// machine-independent account of how much parallelism the *schedule*
/// exposes — the quantity the scaling gate checks, since wall-clock
/// scaling cannot be measured on a single-core host.
pub fn simulate(n: usize, b: usize, threads: usize) -> DagModel {
    let p = threads.max(1);
    let grid = TileGrid::new(n, b);
    let nb = grid.nb();

    // Per-task indegree and weight; the unused ids keep weight 0 and are
    // never released.
    let slots = TileOp::id_space(nb);
    let mut indeg = vec![0usize; slots];
    let mut cost = vec![0u64; slots];
    let mut total: u64 = 0;
    let mut tasks = 0usize;
    let mut ready: BTreeSet<usize> = BTreeSet::new();
    for op in TileOp::all(nb) {
        let id = op.id(nb);
        indeg[id] = op.dep_count();
        cost[id] = op.flops(grid);
        total += cost[id];
        tasks += 1;
        if indeg[id] == 0 {
            ready.insert(id);
        }
    }

    let mut running: BTreeSet<(u64, usize)> = BTreeSet::new();
    let mut free = p;
    let mut now: u64 = 0;

    while !ready.is_empty() || !running.is_empty() {
        while free > 0 {
            let Some(id) = ready.pop_first() else { break };
            running.insert((now + cost[id], id));
            free -= 1;
        }
        let Some((t, id)) = running.pop_first() else {
            break;
        };
        now = t;
        free += 1;
        let op = TileOp::from_id(nb, id).expect("only valid ids are ever released");
        op.for_each_successor(nb, |succ| {
            let succ = succ.id(nb);
            indeg[succ] -= 1;
            if indeg[succ] == 0 {
                ready.insert(succ);
            }
        });
    }

    let parallel = now.max(1);
    DagModel {
        tasks,
        serial_flops: total,
        parallel_flops: parallel,
        speedup: total as f64 / parallel as f64,
    }
}

/// Run `tasks` independent closures on the work-stealing pool and
/// collect their results in task order.
///
/// This is the pool entry point for *embarrassingly parallel* fan-out —
/// no DAG, no barriers inside, just recursive binary [`rayon::join`]
/// splitting so idle workers steal halves.  The serve batcher uses it to
/// spread the members of one size bucket across the pool: each member is
/// an independent per-request factorization, and results come back in
/// submission order so downstream accounting stays deterministic
/// regardless of steal order.
///
/// With one worker (or `tasks == 1`) this degenerates to a sequential
/// in-order loop, so results are identical at every pool size for
/// deterministic `f`.
pub fn scatter<T, F>(tasks: usize, f: &F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    fn go<T, F>(lo: usize, hi: usize, f: &F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if hi - lo == 1 {
            return vec![f(lo)];
        }
        let mid = lo + (hi - lo) / 2;
        let (mut left, right) = rayon::join(|| go(lo, mid, f), || go(mid, hi, f));
        left.extend(right);
        left
    }
    if tasks == 0 {
        return Vec::new();
    }
    go(0, tasks, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cholcomm_matrix::schedule::{tile_coords, MemTiles};
    use cholcomm_matrix::{lower_digest, matrix_digest, norms, spd};

    fn engines() -> [KernelImpl; 3] {
        [
            KernelImpl::Reference,
            KernelImpl::Fast,
            KernelImpl::FastStrict,
        ]
    }

    fn in_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool")
            .install(f)
    }

    /// The reference: the sequential walk over the same in-memory tiles,
    /// written back one element at a time — what the block-column tasks
    /// must reproduce bit for bit, strict upper triangle (+0.0) included.
    fn walk_potrf(a: &mut Matrix<f64>, b: usize, kernel: KernelImpl) -> Result<(), MatrixError> {
        let mut tiles = MemTiles::from_matrix(a, b)?;
        let grid = tiles.grid;
        schedule::factor(&mut tiles, grid, 0..grid.nb(), kernel)?;
        for (t, tile) in tiles.tiles.iter().enumerate() {
            let (bi, bj) = tile_coords(t);
            for j in 0..tile.cols() {
                for i in 0..tile.rows() {
                    a[(bi * b + i, bj * b + j)] = tile[(i, j)];
                }
            }
        }
        for j in 0..a.cols() {
            for i in 0..j {
                a[(i, j)] = 0.0;
            }
        }
        Ok(())
    }

    #[test]
    fn dag_is_bitwise_equal_to_the_sequential_walk_at_every_pool_size() {
        // Ragged n (against the tile size and against the 16-row strips of
        // the packed layout: the last block column is narrower than b), a
        // single tile (b > n, b == n), b=4 many-tiny-tiles stress, tiles of
        // exactly one packed block (b=128) and past it (b=136, written
        // back plain under every engine) ride along with the square cases.
        let cases = [
            (1usize, 1usize),
            (8, 3),
            (32, 8),
            (32, 32),
            (96, 32),
            (61, 16),
            (33, 7),
            (8, 16),
            (64, 4),
            (50, 4),
            (100, 24),
            (77, 32),
            (300, 128),
            (280, 136),
        ];
        for &(n, b) in &cases {
            let a0 = spd::random_spd(n, &mut spd::test_rng(7 + n as u64));
            let mut reference_digest = 0;
            for kernel in engines() {
                let mut walked = a0.clone();
                walk_potrf(&mut walked, b, kernel).expect("walk potrf");
                let r = norms::cholesky_residual(&a0, &walked);
                assert!(r < norms::residual_tolerance(n), "n={n} b={b}: residual {r}");
                // Reference never packs a tile, so this also holds the
                // packed updates to the plain ones.
                match kernel {
                    KernelImpl::Reference => reference_digest = lower_digest(&walked),
                    KernelImpl::FastStrict => {
                        assert_eq!(lower_digest(&walked), reference_digest, "n={n} b={b}")
                    }
                    KernelImpl::Fast => {}
                }
                for threads in [1usize, 2, 4, 8] {
                    let mut dag = a0.clone();
                    in_pool(threads, || potrf_dag_with(&mut dag, b, kernel)).expect("dag potrf");
                    assert_eq!(
                        matrix_digest(&dag),
                        matrix_digest(&walked),
                        "n={n} b={b} kernel={kernel:?} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn dag_is_deterministic_across_repeated_runs() {
        let a0 = spd::random_spd(64, &mut spd::test_rng(11));
        for kernel in engines() {
            let mut first = a0.clone();
            potrf_dag_with(&mut first, 16, kernel).expect("first run");
            for _ in 0..3 {
                let mut again = a0.clone();
                potrf_dag_with(&mut again, 16, kernel).expect("repeat run");
                assert_eq!(matrix_digest(&first), matrix_digest(&again));
            }
        }
    }

    #[test]
    fn not_spd_reports_the_whole_matrix_pivot() {
        // A pivot poisoned in the first, a middle and the last diagonal
        // tile (the last: every write-back-ready tile but one is final
        // when the graph fails).  Whatever ran before the failure, the
        // error is the walk's and the input is bitwise untouched.
        for (n, b) in [(24usize, 8usize), (96, 32), (77, 32), (300, 128)] {
            let nb = n.div_ceil(b);
            for p in [b / 2, (nb / 2) * b + 1, n - 1] {
                let mut a = spd::random_spd(n, &mut spd::test_rng(3 + n as u64));
                a[(p, p)] = -1e6;
                for kernel in engines() {
                    let walk_err = walk_potrf(&mut a.clone(), b, kernel).expect_err("must fail");
                    assert!(
                        matches!(walk_err, MatrixError::NotSpd { pivot, .. } if pivot == p),
                        "n={n} b={b} p={p} {kernel:?}: {walk_err:?}"
                    );
                    for threads in [1usize, 2, 4, 8] {
                        let mut work = a.clone();
                        let dag_err = in_pool(threads, || potrf_dag_with(&mut work, b, kernel))
                            .expect_err("must fail");
                        let case = format!("n={n} b={b} p={p} {kernel:?} threads={threads}");
                        assert_eq!(dag_err, walk_err, "{case}");
                        assert_eq!(matrix_digest(&work), matrix_digest(&a), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn indefinite_input_aborts_the_dag_without_hanging() {
        // A failed pivot leaves tasks that are never released; the scope
        // must still drain at every pool size.
        let mut m = Matrix::<f64>::identity(16);
        m[(9, 9)] = -5.0;
        for threads in [1usize, 2, 4, 8] {
            let err = in_pool(threads, || {
                potrf_dag_with(&mut m.clone(), 4, KernelImpl::Reference)
            })
            .expect_err("must fail");
            assert!(
                matches!(err, MatrixError::NotSpd { pivot: 9, value } if value < 0.0),
                "threads={threads}: {err:?}"
            );
        }
    }

    #[test]
    fn non_square_is_rejected() {
        let mut a = Matrix::<f64>::zeros(3, 4);
        assert!(matches!(
            potrf_dag_with(&mut a, 2, KernelImpl::Reference),
            Err(MatrixError::NotSquare { rows: 3, cols: 4 })
        ));
    }

    #[test]
    fn model_is_sane_and_clears_the_scaling_gate() {
        let m1 = simulate(1024, 64, 1);
        assert!((m1.speedup - 1.0).abs() < 1e-12, "p=1 speedup {}", m1.speedup);

        let m4 = simulate(1024, 64, 4);
        assert_eq!(m4.serial_flops, m1.serial_flops);
        assert!(m4.parallel_flops <= m1.parallel_flops);
        assert!(m4.speedup <= 4.0 + 1e-9);
        assert!(
            m4.speedup >= 2.5,
            "DAG schedule models only {:.2}x on 4 threads",
            m4.speedup
        );

        // More workers never slow the greedy schedule down on this DAG.
        let m8 = simulate(1024, 64, 8);
        assert!(m8.parallel_flops <= m4.parallel_flops);
    }

    #[test]
    fn model_counts_every_task_once() {
        let nb = 1024usize.div_ceil(64);
        let expected: usize = (0..nb)
            .map(|bi| (0..=bi).map(|bj| bj + 1).sum::<usize>())
            .sum();
        assert_eq!(simulate(1024, 64, 4).tasks, expected);
    }

    #[test]
    fn scatter_preserves_task_order_and_handles_edges() {
        assert_eq!(scatter(0, &|i| i), Vec::<usize>::new());
        assert_eq!(scatter(1, &|i| i * 10), vec![0]);
        let got = scatter(37, &|i| i * i);
        let want: Vec<usize> = (0..37).map(|i| i * i).collect();
        assert_eq!(got, want);
    }
}
