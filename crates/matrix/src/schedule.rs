//! The tile schedule of the blocked Cholesky, written once.
//!
//! The blocked factorization the paper analyses is *data-oblivious*:
//! which tile is factored, solved or updated next — and which tiles that
//! touches — depends only on the tile-grid dimension `nb`.  This module
//! owns that fact in three forms:
//!
//! * **the walks** — two sequential orders of the same ops, each driving
//!   a [`TileStore`] with one fixed access sequence: [`walk`], the
//!   right-looking order the ABFT drivers perform (the diagonal tile held
//!   across the panel solves, the column operand of a trailing update
//!   fetched once per block column), and [`walk_left`], the left-looking
//!   order of the paper's Algorithm 4, which the traced LAPACK schedule,
//!   the serve engine, the batch-kernel probe and the out-of-core driver
//!   perform (every tile written once, the diagonal tile re-read per
//!   panel solve), blocked in super-columns of a given width — one block
//!   column in memory, `Theta(sqrt(M))` out of core;
//! * **the arithmetic** ([`apply`]) — the one place a [`TileOp`] becomes a
//!   kernel call and a tile-local `NotSpd` pivot becomes a global one —
//!   with [`Arithmetic`], the walks' form of it, which uses an update
//!   operand a store hands over packed ([`MatrixTile::operand`]) as it is
//!   and packs the column operand the right-looking walk holds once per
//!   block column instead of once per update;
//! * **the DAG** ([`TileOp::dep_count`], [`TileOp::for_each_successor`],
//!   [`TileOp::flops`] and the flat task-id coding) — the same ops as a
//!   dependence graph, for the work-stealing executor and its scheduler
//!   model in `cholcomm-par`.
//!
//! It also owns the tile <-> matrix mapping of a column-major matrix in
//! memory ([`TileGrid::cut_tile`], [`TileGrid::write_block_column`]):
//! [`MemTiles`] runs it serially, the DAG executor from its tasks.
//!
//! A [`TileStore`] says where tiles live and what moving one costs: a
//! traced layout (`seq::lapack`), a checksum-carrying matrix
//! (`seq::abft`), a tile cache over a file or a prefetching pipeline
//! (`ooc`), a recorder that only notes the accesses (`ooc::pipeline`'s
//! planner), a checkpoint updated in place (`serve::engine`), the lanes
//! of a perfbench probe's batch (`kernels_fast::batch`), or plain memory
//! ([`MemTiles`]).  A
//! walk never looks inside a tile — the `apply` closure it is handed does
//! — so two stores that return the stored values produce bit-identical
//! factors by construction, and a store that carries no data at all
//! (`Tile = ()`) observes the schedule without running it.
//!
//! Both walks are linear extensions of the one DAG and hand each tile its
//! updates in ascending `k`, and every kernel applies the per-element
//! chain `c <- c - a * b` in ascending `k` too: the factor's bits are a
//! function of the matrix and the engine, not of the order
//! (`tests/order_independence.rs`).

use crate::dense::Matrix;
use crate::engine::{KernelImpl, Operand};
use crate::error::MatrixError;
use crate::kernels_fast::PackedTile;
use crate::scalar::Scalar;
use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard};

/// Tiles the walk holds live at once: the two panel operands and the
/// tile being updated.  The floor under every tile cache's capacity and
/// the `3 b^2 <= M` precondition of the blocked schedule.
pub const WORKING_SET: usize = 3;

/// Geometry of a square matrix of order `n` cut into `b x b` tiles
/// (ragged at the bottom/right edge).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileGrid {
    /// Matrix order.
    pub n: usize,
    /// Tile size.
    pub b: usize,
}

impl TileGrid {
    /// Grid of an order-`n` matrix with tile size `b`.
    pub fn new(n: usize, b: usize) -> Self {
        assert!(b > 0, "tile size must be positive");
        TileGrid { n, b }
    }

    /// Tile-grid dimension.
    pub fn nb(&self) -> usize {
        self.n.div_ceil(self.b)
    }

    /// Live rows (equally, columns) of tile row `t`.
    pub fn dim(&self, t: usize) -> usize {
        (self.n - t * self.b).min(self.b)
    }

    /// The grid `a` is cut on with tile size `b`; `a` must be square.
    pub fn of<S: Scalar>(a: &Matrix<S>, b: usize) -> Result<Self, MatrixError> {
        if !a.is_square() {
            return Err(MatrixError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        Ok(TileGrid::new(a.rows(), b))
    }

    /// Elements of tile `(bi, bj)`.
    pub fn tile_len(&self, bi: usize, bj: usize) -> usize {
        self.dim(bi) * self.dim(bj)
    }

    /// Cut tile `(bi, bj)` out of `a`, into the storage of `buf` (see
    /// [`Matrix::submatrix_into`]).  With [`write_block_column`] this is
    /// the whole tile <-> matrix mapping; [`MemTiles`] runs the two in a
    /// loop, the DAG executor of `cholcomm-par` from its tasks.
    ///
    /// [`write_block_column`]: Self::write_block_column
    pub fn cut_tile<S: Scalar>(
        &self,
        a: &Matrix<S>,
        bi: usize,
        bj: usize,
        buf: Vec<S>,
    ) -> Matrix<S> {
        let b = self.b;
        a.submatrix_into(bi * b, bj * b, self.dim(bi), self.dim(bj), buf)
    }

    /// The block columns of `a`, left to right.  A block column of a
    /// column-major matrix is one contiguous run of `dim(bj) * n`
    /// elements, so these are disjoint `&mut` slices: each can be handed
    /// to its own task.
    pub fn block_columns_mut<'a, S: Scalar>(
        &self,
        a: &'a mut Matrix<S>,
    ) -> std::slice::ChunksMut<'a, S> {
        assert!(a.rows() == self.n && a.cols() == self.n, "matrix is not this grid's");
        // (An empty matrix has no block column; `chunks_mut(0)` panics.)
        a.as_mut_slice().chunks_mut((self.b * self.n).max(1))
    }

    /// Write block column `bj` of the factor into `cols`, its slice of
    /// the matrix (see [`block_columns_mut`](Self::block_columns_mut)), in
    /// one sweep: `write_tile(bi, window, ld)` is called for each lower
    /// tile `(bi, bj)`, top down, and copies that tile to `window` — the
    /// slice from the tile's top-left corner on, leading dimension `ld`
    /// ([`Matrix::copy_to_cols`], [`PackedTile::unpack_to_cols`]) — and
    /// everything strictly above the diagonal is zeroed, whatever the
    /// diagonal tile held there.
    pub fn write_block_column<S: Scalar>(
        &self,
        bj: usize,
        cols: &mut [S],
        mut write_tile: impl FnMut(usize, &mut [S], usize),
    ) {
        let (n, b) = (self.n, self.b);
        assert!(bj < self.nb() && cols.len() == self.dim(bj) * n, "not block column {bj}");
        for bi in bj..self.nb() {
            write_tile(bi, &mut cols[bi * b..], n);
        }
        for (c, col) in cols.chunks_exact_mut(n).enumerate() {
            col[..bj * b + c].fill(S::zero());
        }
    }
}

/// One tile operation of the blocked Cholesky.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileOp {
    /// `potf2` on diagonal tile `(k, k)`.
    Factor {
        /// Panel step.
        k: usize,
    },
    /// `trsm` of panel tile `(i, k)` against the factored `(k, k)`.
    Solve {
        /// Tile row, `i > k`.
        i: usize,
        /// Panel step.
        k: usize,
    },
    /// Rank-`b` update `A(i,j) -= L(i,k) L(j,k)^T`, `k < j <= i`.
    Update {
        /// Tile row.
        i: usize,
        /// Tile column.
        j: usize,
        /// Panel step.
        k: usize,
    },
}

/// Triangular index of lower tile `(bi, bj)`, `bj <= bi`.
#[inline]
pub fn tile_idx(bi: usize, bj: usize) -> usize {
    bi * (bi + 1) / 2 + bj
}

/// Inverse of [`tile_idx`].
pub fn tile_coords(t_idx: usize) -> (usize, usize) {
    // Largest bi with bi(bi+1)/2 <= t_idx.
    let mut bi = ((((8 * t_idx + 1) as f64).sqrt() - 1.0) / 2.0) as usize;
    while (bi + 1) * (bi + 2) / 2 <= t_idx {
        bi += 1;
    }
    while bi * (bi + 1) / 2 > t_idx {
        bi -= 1;
    }
    (bi, t_idx - bi * (bi + 1) / 2)
}

impl TileOp {
    /// The op that writes tile `(bi, bj)` at step `k <= bj`: an update
    /// while `k < bj`, then the tile's final factor or solve.
    #[inline]
    pub fn of(bi: usize, bj: usize, k: usize) -> TileOp {
        debug_assert!(k <= bj && bj <= bi);
        if k < bj {
            TileOp::Update { i: bi, j: bj, k }
        } else if bi == bj {
            TileOp::Factor { k }
        } else {
            TileOp::Solve { i: bi, k }
        }
    }

    /// The tile this op writes.
    #[inline]
    pub fn target(self) -> (usize, usize) {
        match self {
            TileOp::Factor { k } => (k, k),
            TileOp::Solve { i, k } => (i, k),
            TileOp::Update { i, j, .. } => (i, j),
        }
    }

    /// The panel step this op belongs to.
    #[inline]
    pub fn step(self) -> usize {
        match self {
            TileOp::Factor { k } | TileOp::Solve { k, .. } | TileOp::Update { k, .. } => k,
        }
    }

    /// Flat task id: tile `(bi, bj)` owns the `bj + 1` consecutive ids
    /// `tile_idx * (nb + 1) + k`, `k <= bj`.  Ascending ids follow each
    /// tile's update chain, which is the tie-break order of the
    /// scheduler model.
    #[inline]
    pub fn id(self, nb: usize) -> usize {
        let (bi, bj) = self.target();
        tile_idx(bi, bj) * (nb + 1) + self.step()
    }

    /// Inverse of [`id`](Self::id), or `None` for the unused slots
    /// (`k > bj`) of the flat id space.
    #[inline]
    pub fn from_id(nb: usize, id: usize) -> Option<TileOp> {
        let (bi, bj) = tile_coords(id / (nb + 1));
        let k = id % (nb + 1);
        (k <= bj).then(|| TileOp::of(bi, bj, k))
    }

    /// Size of the flat id space for an `nb x nb` tile grid.
    pub fn id_space(nb: usize) -> usize {
        tile_idx(nb, 0) * (nb + 1)
    }

    /// Every op of an `nb x nb` tile grid, in ascending [`id`](Self::id)
    /// order — the way to fill a table indexed by id (decoding each slot
    /// with [`from_id`](Self::from_id) costs a square root per slot).
    pub fn all(nb: usize) -> impl Iterator<Item = TileOp> {
        (0..nb).flat_map(move |bi| {
            (0..=bi).flat_map(move |bj| (0..=bj).map(move |k| TileOp::of(bi, bj, k)))
        })
    }

    /// Number of ops that must complete before this one may start.
    ///
    /// * `Update(i, j, k)` waits for `Solve(i, k)` and `Solve(j, k)` (one
    ///   solve on the diagonal, where `i == j`), plus the previous update
    ///   of the same tile when `k >= 1`.
    /// * `Factor(k)` waits for `Update(k, k, k-1)` when `k >= 1`.
    /// * `Solve(i, k)` waits for `Factor(k)`, plus `Update(i, k, k-1)`
    ///   when `k >= 1`.
    pub fn dep_count(self) -> usize {
        let prior = usize::from(self.step() >= 1);
        match self {
            TileOp::Update { i, j, .. } => prior + if i == j { 1 } else { 2 },
            TileOp::Factor { .. } => prior,
            TileOp::Solve { .. } => prior + 1,
        }
    }

    /// Visit every op unlocked (in part) by the completion of this one.
    /// Shared by the executor and its scheduler model, so the two walk
    /// the same graph by construction.
    pub fn for_each_successor(self, nb: usize, mut visit: impl FnMut(TileOp)) {
        match self {
            // The next op of the same tile's chain.
            TileOp::Update { i, j, k } => visit(TileOp::of(i, j, k + 1)),
            // Every panel tile below the factored diagonal.
            TileOp::Factor { k } => {
                for i in (k + 1)..nb {
                    visit(TileOp::Solve { i, k });
                }
            }
            // Every update that reads panel tile (i, k): as the row
            // operand of tiles (i, j) with k < j <= i, and as the column
            // operand of tiles (i2, i) with i2 > i.  The diagonal tile
            // (i, i) appears once, matching its dependency count.
            TileOp::Solve { i, k } => {
                for j in (k + 1)..=i {
                    visit(TileOp::Update { i, j, k });
                }
                for i2 in (i + 1)..nb {
                    visit(TileOp::Update { i: i2, j: i, k });
                }
            }
        }
    }

    /// Flop weight of this op on `grid` (ragged edge tiles get their true
    /// dimensions).
    pub fn flops(self, grid: TileGrid) -> u64 {
        let h = |t: usize| grid.dim(t) as u64;
        match self {
            TileOp::Update { i, j, k } => 2 * h(i) * h(j) * h(k),
            TileOp::Factor { k } => (h(k) * h(k) * h(k)).div_ceil(3),
            TileOp::Solve { i, k } => h(i) * h(k) * h(k),
        }
    }
}

/// Where the walk gets and puts its tiles.
pub trait TileStore {
    /// What a tile is to this store — a matrix for stores that compute,
    /// `()` for one that only observes the schedule.
    type Tile: Clone;
    /// What moving a tile can fail with.
    type Error;

    /// Panel step `k` is about to run (integrity layers hook this); in
    /// [`walk_left`], each column of a super-column as it starts.
    fn begin_panel(&mut self, _k: usize) {}
    /// Fetch tile `(i, j)`.
    fn get(&mut self, i: usize, j: usize) -> Result<Self::Tile, Self::Error>;
    /// Fetch tile `(i, j)` to overwrite it: the walk hands it back with
    /// [`put`](Self::put) before it touches the store again for that
    /// tile.  A store that shares its tiles hands this one over instead,
    /// so the write needs no copy; the walks take only targets whose put
    /// no failing factor can stand between: of `Solve` and `Update`, and
    /// in [`walk_left`] only off its diagonal chunk.
    fn take(&mut self, i: usize, j: usize) -> Result<Self::Tile, Self::Error> {
        self.get(i, j)
    }
    /// Install the updated tile `(i, j)`.
    fn put(&mut self, i: usize, j: usize, tile: Self::Tile) -> Result<(), Self::Error>;
    /// Run `body` with `work` lent to a thread of this store that would
    /// otherwise idle (an I/O worker between transfers).  `body` gets
    /// the store and, if it has such a thread, `help`: after a call, the
    /// thread calls `work` until it returns `false`, whenever it has
    /// nothing of its own to do.  No call of `work` is running or starts
    /// once `lend` has returned.  The default has no such thread: `body`
    /// gets `None`, and [`factor_left`] applies every update on the
    /// calling thread.
    fn lend<R>(
        &mut self,
        work: &Work<'_>,
        body: impl FnOnce(&mut Self, Option<&dyn Fn()>) -> R,
    ) -> R
    where
        Self: Sized,
    {
        let _ = work;
        body(self, None)
    }
}

/// Work a walk lends a store's idle thread ([`TileStore::lend`]): each
/// call runs at most one queued update and says whether it ran one.
pub type Work<'a> = dyn Fn() -> bool + Sync + 'a;

/// The right-looking order over `panels` of an `nb x nb` tile grid: per
/// panel step `k`, factor the diagonal tile, solve the panel below it,
/// update the trailing submatrix.
///
/// `apply(op, target, operands)` performs `op` on `target`; `operands` is
/// empty for a factor, `[diag]` for a solve and `[L(i,k), L(j,k)]` for an
/// update.  The target of a solve or an update is
/// [taken](TileStore::take); that of a factor, which can fail, is a
/// [`get`](TileStore::get), so the store keeps what it held before.
pub fn walk<St, F>(
    store: &mut St,
    nb: usize,
    panels: Range<usize>,
    mut apply: F,
) -> Result<(), St::Error>
where
    St: TileStore,
    F: FnMut(TileOp, &mut St::Tile, &[&St::Tile]) -> Result<(), St::Error>,
{
    for k in panels {
        store.begin_panel(k);

        let mut diag = store.get(k, k)?;
        apply(TileOp::Factor { k }, &mut diag, &[])?;
        store.put(k, k, diag.clone())?;

        for i in (k + 1)..nb {
            let mut t = store.take(i, k)?;
            apply(TileOp::Solve { i, k }, &mut t, &[&diag])?;
            store.put(i, k, t)?;
        }

        for j in (k + 1)..nb {
            let lj = store.get(j, k)?;
            for i in j..nb {
                let li = store.get(i, k)?;
                let mut t = store.take(i, j)?;
                apply(TileOp::Update { i, j, k }, &mut t, &[&li, &lj])?;
                store.put(i, j, t)?;
            }
        }
    }
    Ok(())
}

/// Factor `panels` over a store of real tiles: [`walk`] with
/// [`Arithmetic`].
pub fn factor<S, St>(
    store: &mut St,
    grid: TileGrid,
    panels: Range<usize>,
    kernel: KernelImpl,
) -> Result<(), St::Error>
where
    S: Scalar,
    St: TileStore,
    St::Tile: MatrixTile<S>,
    St::Error: From<MatrixError>,
{
    let mut arith = Arithmetic::new(kernel, grid);
    walk(store, grid.nb(), panels, |op, target, operands| {
        arith.apply(op, target.matrix_mut(), operands).map_err(St::Error::from)
    })
}

/// [`factor`] in the left-looking order: [`walk_left`] with
/// [`Arithmetic`], over block columns `panels` in super-columns of
/// `width`.  The same bits at every width.
///
/// Wider than one block column, the walk [lends](TileStore::lend) the
/// updates of each chunk step to the store's idle thread, if it has
/// one.  Each off-diagonal update becomes a task once its target and
/// operands are fetched.  The calling thread runs the queued tasks but
/// one, which it keeps for the helper, and ends the step only when
/// every task of it has finished; it runs a diagonal tile's updates
/// itself.  A thread takes first the targets it updated at the step
/// before, so a tile moves between cores only where the load asks for
/// it, and each thread computes with an [`Arithmetic`] of its own.  The
/// store calls are the inline walk's, in its order, and each target
/// still gets its updates in ascending `k`: the same bits and the same
/// traffic.  A helper's task that fails or panics settles its step and
/// surfaces from here, as does an error of the walk's own.
pub fn factor_left<S, St>(
    store: &mut St,
    grid: TileGrid,
    panels: Range<usize>,
    width: usize,
    kernel: KernelImpl,
) -> Result<(), St::Error>
where
    S: Scalar,
    St: TileStore,
    St::Tile: MatrixTile<S> + Send + Sync,
    St::Error: From<MatrixError> + Send,
{
    let mut arith = Arithmetic::new(kernel, grid);
    let apply = |op, target: &mut St::Tile, operands: &[&St::Tile]| {
        arith.apply(op, target.matrix_mut(), operands).map_err(St::Error::from)
    };
    if width == 1 {
        return walk_left(store, grid.nb(), panels, width, apply);
    }
    let mut helper = Arithmetic::new(kernel, grid);
    let helper_apply = move |op, target: &mut St::Tile, operands: &[&St::Tile]| {
        helper.apply(op, target.matrix_mut(), operands).map_err(St::Error::from)
    };
    walk_left_lent(store, grid.nb(), panels, width, apply, helper_apply)
}

/// [`walk_left`] with the updates of each chunk step lent to the
/// store's idle thread ([`TileStore::lend`]), which runs them with
/// `helper_apply`, as [`factor_left`] describes; a store with no such
/// thread gets the inline walk.
fn walk_left_lent<St, F, G>(
    store: &mut St,
    nb: usize,
    panels: Range<usize>,
    width: usize,
    apply: F,
    helper_apply: G,
) -> Result<(), St::Error>
where
    St: TileStore,
    St::Tile: Send + Sync,
    St::Error: Send,
    F: FnMut(TileOp, &mut St::Tile, &[&St::Tile]) -> Result<(), St::Error>,
    G: FnMut(TileOp, &mut St::Tile, &[&St::Tile]) -> Result<(), St::Error> + Send,
{
    let lent = OnceLock::new();
    let work = || lent.get().is_some_and(Lent::help);
    store.lend(&work, |store, help| match help {
        None => walk_left(store, nb, panels, width, apply),
        Some(help) => {
            let lent = lent.get_or_init(|| Lent::new(width, helper_apply));
            let window = Window::new(0..0, 0..0, width);
            walk_chunks(store, nb, panels, width, &mut Shared { lent, help, apply, window })
        }
    })
}

/// The left-looking order (the paper's Algorithm 4) over block columns
/// `panels` of an `nb x nb` tile grid, blocked: the columns run in
/// super-columns of `width` block columns, `panels.start` first, and
/// each super-column `j0..j0 + w` in row chunks — its diagonal chunk
/// (rows `j0..j0 + w`, lower tiles only), then chunks of `width` tile
/// rows down to `nb`.  A chunk is brought up to date against every
/// earlier panel `k < j0` — each of its targets `(I, J)` from the
/// operands `(I, k)` and `(J, k)`, fetched once per `k` for the whole
/// chunk, `w + w` tiles (`w` on the diagonal chunk, whose rows are its
/// columns) — and then finished column by column: the updates from the
/// panels inside the super-column, then the factor or the solve, then
/// one put per tile.  Each target is fetched at its first op and held
/// until its put.  The same ops with the same operands as [`walk`] —
/// another linear extension of the same DAG — so `apply` is the same
/// closure; a diagonal update is handed `L(j,k)` as both operands.
///
/// Every tile is put once, final, after its updates in ascending `k`,
/// so the bits do not depend on `width`.  The factored diagonal tile is
/// fetched again for each solve below it: the `(n/b - j) * Theta(b^2)`
/// term of the paper's analysis.
///
/// Why a width: a panel `k` finished left of the super-column is read
/// once per chunk rather than once per target, so the walk reads about
/// `n^3 / (3 b^3 w)` operand tiles, `1/w` of the unblocked walk's.  Its
/// resident set is a chunk's `w^2` targets and `2w` operands, so with
/// `M` words of fast memory the widest block is `w b = Theta(sqrt(M))`,
/// the block size at which the paper proves Algorithm 4 attains the
/// `Omega(n^3 / sqrt(M))` bandwidth bound.  At `width = 1` this is the
/// unblocked walk, access for access: per block column the diagonal,
/// then each tile below.
///
/// A target on the diagonal chunk is fetched with
/// [`get`](TileStore::get): a factor on that chunk can fail with it
/// fetched and not yet put, and the store keeps what it held.  Every
/// other target is [taken](TileStore::take).
pub fn walk_left<St, F>(
    store: &mut St,
    nb: usize,
    panels: Range<usize>,
    width: usize,
    apply: F,
) -> Result<(), St::Error>
where
    St: TileStore,
    F: FnMut(TileOp, &mut St::Tile, &[&St::Tile]) -> Result<(), St::Error>,
{
    assert!(width >= 1, "a super-column is at least one block column wide");
    // A chunk's targets, row-major over a `width x width` window, and the
    // operands of one panel step — the row operands `(I, k)` in the first
    // `width` slots, the column operands `(J, k)` of an off-diagonal
    // chunk in the last `width`.  On the stack at width 1, where the
    // serve engine walks one block column of a small system per call.
    let (mut one, mut two) = ([None], [None, None]);
    let (mut wide_targets, mut wide_operands);
    let (targets, operands) = if width == 1 {
        (&mut one[..], &mut two[..])
    } else {
        wide_targets = vec![None; width * width];
        wide_operands = vec![None; 2 * width];
        (&mut wide_targets[..], &mut wide_operands[..])
    };
    let mut steps = Inline {
        window: Window::new(0..0, 0..0, width),
        targets,
        operands,
        apply,
    };
    walk_chunks(store, nb, panels, width, &mut steps)
}

/// The loop [`walk_left`] and [`factor_left`] share: super-columns, row
/// chunks, and per chunk its steps against the earlier panels and its
/// columns, each finished after the steps against the super-column's
/// own panels left of it.
fn walk_chunks<St: TileStore>(
    store: &mut St,
    nb: usize,
    panels: Range<usize>,
    width: usize,
    steps: &mut impl Steps<St>,
) -> Result<(), St::Error> {
    for cols in super_columns(panels, width) {
        let j0 = cols.start;
        for j in cols.clone() {
            store.begin_panel(j);
        }
        let mut rows = cols.clone();
        while rows.start < nb {
            steps.start(Window::new(rows.clone(), cols.clone(), width));
            for k in 0..j0 {
                steps.update(store, cols.clone(), k)?;
            }
            for j in cols.clone() {
                for k in j0..j {
                    steps.update(store, j..j + 1, k)?;
                }
                steps.finish(store, j)?;
            }
            rows = rows.end..(rows.end + width).min(nb);
        }
    }
    Ok(())
}

/// Block columns `panels` in super-columns of `width`, left to right,
/// the first starting at `panels.start` and the last possibly narrower:
/// the order [`walk_left`] takes them in.
pub fn super_columns(panels: Range<usize>, width: usize) -> impl Iterator<Item = Range<usize>> {
    let end = panels.end;
    panels.step_by(width).map(move |j0| j0..(j0 + width).min(end))
}

/// One row chunk of a super-column and where its tiles sit in the
/// walk's slots: targets row-major over a `width x width` window; the
/// row operands `(I, k)` of a panel step in the first `width` operand
/// slots, the column operands `(J, k)` of an off-diagonal chunk in the
/// last `width`.
struct Window {
    rows: Range<usize>,
    cols: Range<usize>,
    width: usize,
}

impl Window {
    fn new(rows: Range<usize>, cols: Range<usize>, width: usize) -> Self {
        Window { rows, cols, width }
    }

    /// The diagonal chunk: its rows are the super-column's columns.
    fn diagonal(&self) -> bool {
        self.rows.start == self.cols.start
    }

    /// The chunk's rows in block column `j`: its lower tiles.
    fn rows_in(&self, j: usize) -> Range<usize> {
        self.rows.start.max(j)..self.rows.end
    }

    /// Slot of target `(i, j)`.
    fn target(&self, i: usize, j: usize) -> usize {
        (i - self.rows.start) * self.width + (j - self.cols.start)
    }

    /// Slot of operand `(i, k)`: a row operand, or with `column` the
    /// column operand of block column `i`.
    fn operand(&self, i: usize, column: bool) -> usize {
        if column && !self.diagonal() {
            self.width + i - self.cols.start
        } else {
            i - self.rows.start
        }
    }

    /// Fetch target `(i, j)` at its first op: a get on the diagonal
    /// chunk, whose factor can fail before the put; a take elsewhere.
    fn fetch_target<St: TileStore>(&self, store: &mut St, i: usize, j: usize) -> Result<St::Tile, St::Error> {
        if self.diagonal() {
            store.get(i, j)
        } else {
            store.take(i, j)
        }
    }
}

/// What the walk does with a row chunk.
trait Steps<St: TileStore> {
    /// A new chunk starts; every slot is empty.
    fn start(&mut self, window: Window);
    /// Apply panel `k` to every target of the chunk in block columns
    /// `js`, column by column, each operand fetched once and let go when
    /// the step ends.
    fn update(&mut self, store: &mut St, js: Range<usize>, k: usize) -> Result<(), St::Error>;
    /// Finish block column `j`, whose updates are all applied: each
    /// tile's factor or solve, and its put.
    fn finish(&mut self, store: &mut St, j: usize) -> Result<(), St::Error>;
}

/// [`finish`](Steps::finish) over the tile taken out of target slot
/// `(i, j)`: the diagonal chunk's first column has no update before its
/// factor, so its targets are fetched here.
fn finish_tile<St, F>(
    store: &mut St,
    apply: &mut F,
    i: usize,
    j: usize,
    held: Option<St::Tile>,
    window: &Window,
) -> Result<(), St::Error>
where
    St: TileStore,
    F: FnMut(TileOp, &mut St::Tile, &[&St::Tile]) -> Result<(), St::Error>,
{
    let mut t = match held {
        Some(t) => t,
        None => window.fetch_target(store, i, j)?,
    };
    if i == j {
        apply(TileOp::Factor { k: j }, &mut t, &[])?;
    } else {
        let diag = store.get(j, j)?;
        apply(TileOp::Solve { i, k: j }, &mut t, &[&diag])?;
    }
    store.put(i, j, t)
}

/// The walk's own steps: every update applied where it is fetched.
struct Inline<'a, T, F> {
    window: Window,
    targets: &'a mut [Option<T>],
    operands: &'a mut [Option<T>],
    apply: F,
}

impl<St, F> Steps<St> for Inline<'_, St::Tile, F>
where
    St: TileStore,
    F: FnMut(TileOp, &mut St::Tile, &[&St::Tile]) -> Result<(), St::Error>,
{
    fn start(&mut self, window: Window) {
        self.window = window;
    }

    fn update(&mut self, store: &mut St, js: Range<usize>, k: usize) -> Result<(), St::Error> {
        let w = &self.window;
        for j in js {
            for i in w.rows_in(j) {
                let t = &mut self.targets[w.target(i, j)];
                if t.is_none() {
                    *t = Some(w.fetch_target(store, i, j)?);
                }
                for (at, r) in [(w.operand(i, false), i), (w.operand(j, true), j)] {
                    if self.operands[at].is_none() {
                        self.operands[at] = Some(store.get(r, k)?);
                    }
                }
                let li = &self.operands[w.operand(i, false)];
                let lj = &self.operands[w.operand(j, true)];
                let (Some(li), Some(lj), Some(t)) = (li, lj, &mut self.targets[w.target(i, j)]) else {
                    unreachable!("fetched above");
                };
                (self.apply)(TileOp::Update { i, j, k }, t, &[li, lj])?;
            }
        }
        self.operands.iter_mut().for_each(|slot| *slot = None);
        Ok(())
    }

    fn finish(&mut self, store: &mut St, j: usize) -> Result<(), St::Error> {
        for i in self.window.rows_in(j) {
            let held = self.targets[self.window.target(i, j)].take();
            finish_tile(store, &mut self.apply, i, j, held, &self.window)?;
        }
        Ok(())
    }
}

/// One update of a chunk step, queued for whichever thread takes it.
#[derive(Debug, Clone, Copy)]
struct Task {
    op: TileOp,
    target: usize,
    li: usize,
    lj: usize,
}

/// Why a helper's task did not finish.
enum Failure<E> {
    Error(E),
    Panic(Box<dyn Any + Send>),
}

/// The queue of a chunk step, under one lock.
struct Queue<E> {
    /// Tasks no thread has taken yet, in the walk's order.
    waiting: Vec<Task>,
    /// Tasks the helper has taken and not finished.
    running: usize,
    /// The helper has been asked for and has not run dry since.
    engaged: bool,
    /// The walk waits for `running` to fall to zero.
    settling: bool,
    /// Per target slot: the helper ran the slot's last update.
    helper_ran: Vec<bool>,
    /// The first task of the helper's that failed.
    failed: Option<Failure<E>>,
}

/// What [`factor_left`] shares with the helper: the chunk's slots, the
/// queue of its step, and the helper's own `apply`.  A slot is written
/// only by the walk's thread, between steps or before it queues the
/// tasks that read it; a target is updated only by the one task that
/// took it.
struct Lent<T, E, G> {
    targets: Vec<Mutex<Option<T>>>,
    operands: Vec<RwLock<Option<T>>>,
    queue: Mutex<Queue<E>>,
    settled: Condvar,
    apply: Mutex<G>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<T, E, G> Lent<T, E, G>
where
    G: FnMut(TileOp, &mut T, &[&T]) -> Result<(), E>,
{
    fn new(width: usize, apply: G) -> Self {
        Lent {
            targets: (0..width * width).map(|_| Mutex::new(None)).collect(),
            operands: (0..2 * width).map(|_| RwLock::new(None)).collect(),
            queue: Mutex::new(Queue {
                waiting: Vec::with_capacity(width * width),
                running: 0,
                engaged: false,
                settling: false,
                helper_ran: vec![false; width * width],
                failed: None,
            }),
            settled: Condvar::new(),
            apply: Mutex::new(apply),
        }
    }

    fn read(&self, at: usize) -> RwLockReadGuard<'_, Option<T>> {
        self.operands[at].read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Run `task` with `apply`.
    fn run(&self, task: Task, apply: &mut impl FnMut(TileOp, &mut T, &[&T]) -> Result<(), E>) -> Result<(), E> {
        let mut target = lock(&self.targets[task.target]);
        let (li, lj) = (self.read(task.li), self.read(task.lj));
        let (Some(t), Some(li), Some(lj)) = (target.as_mut(), li.as_ref(), lj.as_ref()) else {
            unreachable!("a task is queued after its tiles are fetched");
        };
        apply(task.op, t, &[li, lj])
    }

    /// The helper's side, one call of the lent [`Work`]: take the newest
    /// waiting task whose target the helper updated last (else the
    /// newest), run it, and say whether there was one.
    fn help(&self) -> bool {
        let task = {
            let mut q = lock(&self.queue);
            let own = q.waiting.iter().rposition(|t| q.helper_ran[t.target]);
            let (Some(at), None) = (own.or(q.waiting.len().checked_sub(1)), &q.failed) else {
                q.engaged = false;
                return false;
            };
            let task = q.waiting.remove(at);
            q.helper_ran[task.target] = true;
            q.running += 1;
            task
        };
        let done = catch_unwind(AssertUnwindSafe(|| self.run(task, &mut *lock(&self.apply))));
        let mut q = lock(&self.queue);
        q.running -= 1;
        match done {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                q.failed.get_or_insert(Failure::Error(e));
            }
            Err(panic) => {
                q.failed.get_or_insert(Failure::Panic(panic));
            }
        }
        if q.running == 0 && q.settling {
            self.settled.notify_one();
        }
        true
    }

    /// The walk's side: queue `task`, and say whether the helper must be
    /// asked for.
    fn queue(&self, task: Task) -> bool {
        let mut q = lock(&self.queue);
        q.waiting.push(task);
        !std::mem::replace(&mut q.engaged, true)
    }

    /// Run waiting tasks on the walk's thread while more than `reserve`
    /// wait — the oldest first, and while any are kept for the helper
    /// only those whose target it did not update last.
    fn run_waiting(
        &self,
        reserve: usize,
        apply: &mut impl FnMut(TileOp, &mut T, &[&T]) -> Result<(), E>,
    ) -> Result<(), E> {
        loop {
            let task = {
                let mut q = lock(&self.queue);
                if q.waiting.len() <= reserve || q.failed.is_some() {
                    return Ok(());
                }
                let own = q.waiting.iter().position(|t| !q.helper_ran[t.target]);
                let Some(at) = own.or((reserve == 0).then_some(0)) else {
                    return Ok(());
                };
                let task = q.waiting.remove(at);
                q.helper_ran[task.target] = false;
                task
            };
            self.run(task, apply)?;
        }
    }

    /// End a step however it ends: drop the tasks nobody took, wait out
    /// the helper's, and let go of the operands.  Hands back the first
    /// failure of the helper's tasks.
    fn settle(&self) -> Option<Failure<E>> {
        let mut q = lock(&self.queue);
        q.waiting.clear();
        q.settling = true;
        while q.running > 0 {
            q = self.settled.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
        q.settling = false;
        let failed = q.failed.take();
        drop(q);
        for slot in &self.operands {
            *slot.write().unwrap_or_else(PoisonError::into_inner) = None;
        }
        failed
    }
}

/// Settles a step when dropped, so a step that unwinds still waits out
/// the helper's tasks.
struct Settle<'a, T, E, G: FnMut(TileOp, &mut T, &[&T]) -> Result<(), E>>(&'a Lent<T, E, G>);

impl<T, E, G: FnMut(TileOp, &mut T, &[&T]) -> Result<(), E>> Drop for Settle<'_, T, E, G> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.settle();
        }
    }
}

/// [`factor_left`]'s steps with a helper: the updates of a step run as
/// [`Task`]s on both threads.
struct Shared<'a, T, E, G, F> {
    lent: &'a Lent<T, E, G>,
    help: &'a dyn Fn(),
    apply: F,
    window: Window,
}

impl<St, G, F> Steps<St> for Shared<'_, St::Tile, St::Error, G, F>
where
    St: TileStore,
    G: FnMut(TileOp, &mut St::Tile, &[&St::Tile]) -> Result<(), St::Error>,
    F: FnMut(TileOp, &mut St::Tile, &[&St::Tile]) -> Result<(), St::Error>,
{
    fn start(&mut self, window: Window) {
        self.window = window;
    }

    fn update(&mut self, store: &mut St, js: Range<usize>, k: usize) -> Result<(), St::Error> {
        let (lent, w) = (self.lent, &self.window);
        let settle = Settle(lent);
        let fetched = (|| {
            for j in js {
                for i in w.rows_in(j) {
                    let target = w.target(i, j);
                    let mut slot = lock(&lent.targets[target]);
                    if slot.is_none() {
                        *slot = Some(w.fetch_target(store, i, j)?);
                    }
                    drop(slot);
                    for (at, r) in [(w.operand(i, false), i), (w.operand(j, true), j)] {
                        // Only this thread writes a slot: look with a
                        // read lock, which the helper's tasks share.
                        if lent.read(at).is_none() {
                            let tile = store.get(r, k)?;
                            *lent.operands[at].write().unwrap_or_else(PoisonError::into_inner) = Some(tile);
                        }
                    }
                    let (li, lj) = (w.operand(i, false), w.operand(j, true));
                    let task = Task { op: TileOp::Update { i, j, k }, target, li, lj };
                    if i == j {
                        // The diagonal chain stays on this thread: a
                        // diagonal tile's updates lead to its factor, and
                        // over a plain operand they pack in the running
                        // thread's kernel scratch, which a helper would
                        // have to grow.
                        lent.run(task, &mut self.apply)?;
                    } else if lent.queue(task) {
                        (self.help)();
                    }
                    lent.run_waiting(1, &mut self.apply)?;
                }
            }
            lent.run_waiting(0, &mut self.apply)
        })();
        drop(settle);
        match lent.settle() {
            Some(Failure::Panic(panic)) => resume_unwind(panic),
            Some(Failure::Error(e)) => fetched.and(Err(e)),
            None => fetched,
        }
    }

    fn finish(&mut self, store: &mut St, j: usize) -> Result<(), St::Error> {
        for i in self.window.rows_in(j) {
            let held = lock(&self.lent.targets[self.window.target(i, j)]).take();
            finish_tile(store, &mut self.apply, i, j, held, &self.window)?;
        }
        Ok(())
    }
}

/// Perform `op` on `target` with `kernel`.
///
/// Tiles may be ragged (their live size) or zero-padded to `b x b` (the
/// on-disk format): only the factor of a padded last diagonal tile has to
/// tell the two apart, and works on the live leading block.  A failing
/// pivot is reported in whole-matrix coordinates.  The operands of an
/// update may be packed (see [`KernelImpl::packs_tiles`]); the bits are
/// the same.  A diagonal update (`i == j`) touches the lower triangle
/// only, packed or not, so the strict upper triangle of a diagonal tile
/// keeps its input values.
pub fn apply<S: Scalar>(
    op: TileOp,
    kernel: KernelImpl,
    grid: TileGrid,
    target: &mut Matrix<S>,
    operands: &[Operand<'_, S>],
) -> Result<(), MatrixError> {
    match (op, operands) {
        (TileOp::Factor { k }, []) => {
            let live = grid.dim(k);
            let done = if target.rows() == live {
                kernel.potf2(target)
            } else {
                let mut part = target.submatrix(0, 0, live, live);
                let done = kernel.potf2(&mut part);
                target.set_submatrix(0, 0, &part);
                done
            };
            done.map_err(|e| match e {
                MatrixError::NotSpd { pivot, value } => MatrixError::NotSpd {
                    pivot: k * grid.b + pivot,
                    value,
                },
                other => other,
            })
        }
        (TileOp::Solve { .. }, [Operand::Plain(diag)]) => {
            kernel.trsm_right_lower_transpose(target, diag);
            Ok(())
        }
        (TileOp::Update { i, j, .. }, [li, _]) if i == j => {
            kernel.update_diag(target, *li);
            Ok(())
        }
        (TileOp::Update { .. }, [li, lj]) => {
            kernel.update(target, *li, *lj);
            Ok(())
        }
        _ => unreachable!("{op:?} handed {} operand tile(s)", operands.len()),
    }
}

/// [`apply`] as the sequential walks call it, plus what it keeps between
/// calls.  An update operand that arrives packed (see
/// [`MatrixTile::operand`]) is used as it is.  Under an engine that
/// [packs](KernelImpl::packs_tiles) this grid's tiles, a plain operand of
/// an off-diagonal update is packed here: the column operand `L(j, k)`
/// the right-looking walk holds across the updates of block column `j`
/// once, when that column starts, and the row operand into a second
/// reused buffer.  Both are scratch beside the walk's [`WORKING_SET`],
/// like the kernels' own packing buffers.  A diagonal update is never
/// packed for — it reads its one operand once — but runs on a packed
/// operand when it is handed one.
pub struct Arithmetic {
    kernel: KernelImpl,
    grid: TileGrid,
    /// `(j, k)` of the column operand `lj` holds.
    held: Option<(usize, usize)>,
    lj: PackedTile,
    li: PackedTile,
}

impl Arithmetic {
    /// The arithmetic of one walk over `grid` with `kernel`.
    pub fn new(kernel: KernelImpl, grid: TileGrid) -> Self {
        Arithmetic {
            kernel,
            grid,
            held: None,
            lj: PackedTile::default(),
            li: PackedTile::default(),
        }
    }

    /// Perform `op` on `target`; `operands` as the walks hand them over.
    pub fn apply<S: Scalar, T: MatrixTile<S>>(
        &mut self,
        op: TileOp,
        target: &mut Matrix<S>,
        operands: &[&T],
    ) -> Result<(), MatrixError> {
        let Arithmetic { kernel, grid, .. } = *self;
        match (op, operands) {
            (TileOp::Update { i, j, k }, [li, lj]) => {
                let (li, lj) = (li.operand(), lj.operand());
                let packed = |o: &Operand<'_, S>| matches!(o, Operand::Packed(_));
                if i == j || !(kernel.packs_tiles::<S>(grid.b) || packed(&li) || packed(&lj)) {
                    return apply(op, kernel, grid, target, &[li, lj]);
                }
                // The right-looking walk runs the updates of block column
                // j back to back, and L(j, k) is final: pack it on the
                // first.
                let lj = match lj {
                    Operand::Plain(m) => {
                        if self.held != Some((j, k)) {
                            kernel.pack_tile(m, &mut self.lj);
                            self.held = Some((j, k));
                        }
                        Operand::Packed(&self.lj)
                    }
                    packed => packed,
                };
                let li = match li {
                    Operand::Plain(m) => {
                        kernel.pack_tile(m, &mut self.li);
                        Operand::Packed(&self.li)
                    }
                    packed => packed,
                };
                apply(op, kernel, grid, target, &[li, lj])
            }
            (_, []) => apply(op, kernel, grid, target, &[]),
            (_, [a]) => apply(op, kernel, grid, target, &[Operand::Plain(a.matrix())]),
            _ => unreachable!("{op:?} handed {} operand tile(s)", operands.len()),
        }
    }
}

/// A tile [`factor`] computes on: it reads as a [`Matrix`] and can be
/// made unique for writing.  A `Matrix` is one; a store that shares
/// its tiles makes one unique by copying only while another holder still
/// shares it (the out-of-core front, through `Arc::make_mut`).
pub trait MatrixTile<S: Scalar>: Clone {
    /// The tile's values.
    fn matrix(&self) -> &Matrix<S>;
    /// The tile's values, for writing.
    fn matrix_mut(&mut self) -> &mut Matrix<S>;
    /// The tile as an update reads it: plain, or — for a store that keeps
    /// a finished panel tile in micro-panel layout — already packed.
    fn operand(&self) -> Operand<'_, S> {
        Operand::Plain(self.matrix())
    }
}

impl<S: Scalar> MatrixTile<S> for Matrix<S> {
    fn matrix(&self) -> &Matrix<S> {
        self
    }
    fn matrix_mut(&mut self) -> &mut Matrix<S> {
        self
    }
}

/// The lower-triangle tiles of a square matrix in memory — the plain
/// store, cut and written back serially: through the sequential walk,
/// the reference every other store's factor is compared against.  (The
/// DAG executor shares its two mapping primitives,
/// [`TileGrid::cut_tile`] and [`TileGrid::write_block_column`], not the
/// store.)
#[derive(Debug, Clone)]
pub struct MemTiles<S: Scalar> {
    /// The grid the tiles were cut on.
    pub grid: TileGrid,
    /// The tiles in [`tile_idx`] order, ragged edge tiles at their true
    /// size.
    pub tiles: Vec<Matrix<S>>,
}

impl<S: Scalar> MemTiles<S> {
    /// Cut the lower triangle of `a` into `b x b` tiles.
    pub fn from_matrix(a: &Matrix<S>, b: usize) -> Result<Self, MatrixError> {
        let grid = TileGrid::of(a, b)?;
        let mut tiles = Vec::with_capacity(tile_idx(grid.nb(), 0));
        for bi in 0..grid.nb() {
            for bj in 0..=bi {
                tiles.push(grid.cut_tile(a, bi, bj, Vec::new()));
            }
        }
        Ok(MemTiles { grid, tiles })
    }

    /// Write the tiles back over the lower triangle of `a` and zero its
    /// strict upper triangle, block column by block column.
    pub fn write_back(&self, a: &mut Matrix<S>) {
        let grid = self.grid;
        for (bj, cols) in grid.block_columns_mut(a).enumerate() {
            grid.write_block_column(bj, cols, |bi, window, ld| {
                self.tiles[tile_idx(bi, bj)].copy_to_cols(window, ld)
            });
        }
    }
}

impl<S: Scalar> TileStore for MemTiles<S> {
    type Tile = Matrix<S>;
    type Error = MatrixError;

    fn get(&mut self, i: usize, j: usize) -> Result<Matrix<S>, MatrixError> {
        Ok(self.tiles[tile_idx(i, j)].clone())
    }

    fn put(&mut self, i: usize, j: usize, tile: Matrix<S>) -> Result<(), MatrixError> {
        self.tiles[tile_idx(i, j)] = tile;
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::{kernels, norms, spd};
    use std::convert::Infallible;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Access {
        Get(usize, usize),
        Put(usize, usize),
    }
    use Access::{Get, Put};

    /// A store with no data: logs the access stream.
    #[derive(Default)]
    struct AccessLog(Vec<Access>);

    impl TileStore for AccessLog {
        type Tile = ();
        type Error = Infallible;
        fn get(&mut self, i: usize, j: usize) -> Result<(), Infallible> {
            self.0.push(Get(i, j));
            Ok(())
        }
        fn put(&mut self, i: usize, j: usize, _: ()) -> Result<(), Infallible> {
            self.0.push(Put(i, j));
            Ok(())
        }
    }

    /// The ops one of the walks applies over `panels` — the left-looking
    /// one at super-column `width`, the right-looking one at `None` —
    /// and its accesses.
    fn observe(width: Option<usize>, nb: usize, panels: Range<usize>) -> (Vec<TileOp>, Vec<Access>) {
        let mut log = AccessLog::default();
        let mut ops = Vec::new();
        let apply = |op, _: &mut (), _: &[&()]| {
            ops.push(op);
            Ok(())
        };
        let Ok(()) = match width {
            Some(w) => walk_left(&mut log, nb, panels, w, apply),
            None => walk(&mut log, nb, panels, apply),
        };
        (ops, log.0)
    }

    #[test]
    fn walk_order_is_a_linear_extension_of_the_dag() {
        let orders = [None, Some(1), Some(2), Some(3), Some(4), Some(9)];
        for (nb, width) in (0..=9usize).flat_map(|nb| orders.map(|w| (nb, w))) {
            let left = width.is_some();
            let (ops, accesses) = observe(width, nb, 0..nb);
            assert_eq!(ops.len(), nb * (nb + 1) * (nb + 2) / 6, "nb={nb} width={width:?}");
            let puts = accesses.iter().filter(|a| matches!(a, Put(..)));
            if left {
                // Every tile is put once, final; the ops are the
                // right-looking walk's, reordered.
                assert_eq!(puts.count(), tile_idx(nb, 0), "nb={nb} width={width:?}");
                let ids = |ops: &[TileOp]| {
                    let mut ids: Vec<usize> = ops.iter().map(|op| op.id(nb)).collect();
                    ids.sort_unstable();
                    ids
                };
                assert_eq!(ids(&ops), ids(&observe(None, nb, 0..nb).0), "nb={nb} width={width:?}");
            } else {
                // Every applied op is put, in order.
                let targets: Vec<Access> = ops.iter().map(|op| op.target()).map(|(i, j)| Put(i, j)).collect();
                assert_eq!(puts.copied().collect::<Vec<_>>(), targets, "nb={nb}");
            }

            // Each tile's ops come in ascending k and end in its factor
            // or solve; the id coding round-trips.
            let mut pos = vec![usize::MAX; TileOp::id_space(nb)];
            let mut next_k = vec![0usize; tile_idx(nb, 0)];
            for (p, &op) in ops.iter().enumerate() {
                let (bi, bj) = op.target();
                assert_eq!(tile_coords(tile_idx(bi, bj)), (bi, bj));
                assert_eq!(op.step(), next_k[tile_idx(bi, bj)], "nb={nb} width={width:?}: {op:?}");
                assert_eq!(matches!(op, TileOp::Update { .. }), op.step() < bj);
                next_k[tile_idx(bi, bj)] += 1;
                assert_eq!(TileOp::from_id(nb, op.id(nb)), Some(op));
                pos[op.id(nb)] = p;
            }
            let valid = (0..pos.len()).filter(|&id| TileOp::from_id(nb, id).is_some());
            assert_eq!(valid.count(), ops.len(), "nb={nb}: no other id decodes");

            // Every DAG edge points forward in walk order, and indegrees
            // are what dep_count promises.
            let mut indegree = vec![0usize; pos.len()];
            for &op in &ops {
                op.for_each_successor(nb, |succ| {
                    let forward = pos[op.id(nb)] < pos[succ.id(nb)];
                    assert!(forward, "nb={nb} width={width:?}: {op:?} -> {succ:?}");
                    indegree[succ.id(nb)] += 1;
                });
            }
            for op in &ops {
                assert_eq!(op.dep_count(), indegree[op.id(nb)], "nb={nb}: {op:?}");
            }
        }
    }

    #[test]
    fn walk_left_moves_tiles_in_algorithm_4s_order_panel_by_panel() {
        for nb in 0..=9usize {
            // The load/store order of the hand-written Algorithm 4 nests
            // this walk replaced.
            let mut nest = Vec::new();
            for jb in 0..nb {
                nest.push(Get(jb, jb));
                nest.extend((0..jb).map(|kb| Get(jb, kb)));
                nest.push(Put(jb, jb));
                for ib in (jb + 1)..nb {
                    nest.push(Get(ib, jb));
                    nest.extend((0..jb).flat_map(|kb| [Get(ib, kb), Get(jb, kb)]));
                    nest.push(Get(jb, jb));
                    nest.push(Put(ib, jb));
                }
            }
            let (ops, accesses) = observe(Some(1), nb, 0..nb);
            assert_eq!(accesses, nest, "nb={nb}");

            // One block column at a time is the same walk.
            let (mut step_ops, mut step_accesses) = (Vec::new(), Vec::new());
            for k in 0..nb {
                let (o, a) = observe(Some(1), nb, k..k + 1);
                step_ops.extend(o);
                step_accesses.extend(a);
            }
            assert_eq!((step_ops, step_accesses), (ops, accesses), "nb={nb}");
        }
    }

    #[test]
    fn walk_left_reads_each_earlier_panel_once_per_chunk() {
        for (nb, width) in (0..=9usize).flat_map(|nb| (1..=4usize).map(move |w| (nb, w))) {
            let (ops, accesses) = observe(Some(width), nb, 0..nb);
            let (mut step_ops, mut step_accesses) = (Vec::new(), Vec::new());
            for cols in super_columns(0..nb, width) {
                let j0 = cols.start;
                let (o, a) = observe(Some(width), nb, cols.clone());
                // Per panel k < j0, a chunk reads its row operands and
                // its column operands once: the diagonal chunk's rows are
                // its columns, and every other chunk has `width` rows (the
                // last, what is left).
                let cw = cols.len();
                let below = nb - cols.end;
                let per_k = cw + below + below.div_ceil(width) * cw;
                let earlier = a.iter().filter(|x| matches!(x, Get(_, k) if *k < j0));
                assert_eq!(earlier.count(), j0 * per_k, "nb={nb} width={width} j0={j0}");
                step_ops.extend(o);
                step_accesses.extend(a);
            }
            // One super-column at a time is the same walk.
            assert_eq!((step_ops, step_accesses), (ops, accesses), "nb={nb} width={width}");
        }
    }

    #[test]
    fn mem_tiles_factor_matches_unblocked_on_ragged_and_padded_tiles() {
        let mut rng = spd::test_rng(77);
        for (n, b) in [(1usize, 1usize), (8, 3), (21, 8), (24, 8), (5, 16)] {
            let a = spd::random_spd(n, &mut rng);
            let mut tiles = MemTiles::from_matrix(&a, b).unwrap();
            let grid = tiles.grid;
            factor(&mut tiles, grid, 0..grid.nb(), KernelImpl::Reference).unwrap();
            let mut got = a.clone();
            tiles.write_back(&mut got);
            let mut want = a.clone();
            kernels::potf2(&mut want).unwrap();
            let d = norms::max_abs_diff(&got, &want.lower_triangle().unwrap());
            assert!(d < 1e-10, "n={n} b={b}: {d}");

            // A zero-padded last diagonal tile factors to the same bits in
            // its live block.
            let k = grid.nb() - 1;
            let live = grid.dim(k);
            let mut exact = a.submatrix(k * b, k * b, live, live);
            let mut padded = Matrix::zeros(b, b);
            padded.set_submatrix(0, 0, &exact);
            apply(TileOp::Factor { k }, KernelImpl::Reference, grid, &mut exact, &[]).unwrap();
            apply(TileOp::Factor { k }, KernelImpl::Reference, grid, &mut padded, &[]).unwrap();
            assert_eq!(padded.submatrix(0, 0, live, live), exact);
        }
    }

    #[test]
    fn mem_tiles_cut_and_write_back_move_exactly_the_lower_tiles() {
        // n % b != 0 (a narrower last block column), n % b == 0, n == b,
        // n < b (one ragged tile), n == 1, and tiles past one 16-row strip
        // of the packed layout.
        let shapes = [
            (1usize, 1usize),
            (7, 3),
            (21, 8),
            (24, 8),
            (16, 16),
            (5, 16),
            (37, 16),
            (50, 24),
        ];
        for (n, b) in shapes {
            // Negative zeros below the diagonal must survive the round
            // trip; above it everything becomes +0.0.
            let a = Matrix::<f64>::from_fn(n, n, |i, j| {
                if (i + j) % 5 == 4 {
                    -0.0
                } else {
                    (1 + i + 100 * j) as f64
                }
            });
            let tiles = MemTiles::from_matrix(&a, b).unwrap();
            let grid = tiles.grid;
            assert_eq!(tiles.tiles.len(), tile_idx(grid.nb(), 0));
            for (t, tile) in tiles.tiles.iter().enumerate() {
                let (bi, bj) = tile_coords(t);
                let want = Matrix::from_fn(grid.dim(bi), grid.dim(bj), |i, j| {
                    a[(bi * b + i, bj * b + j)]
                });
                assert_eq!(tile, &want, "n={n} b={b} tile ({bi},{bj})");
                // Cutting into reserved storage is the same cut, in place.
                let buf = Vec::with_capacity(grid.tile_len(bi, bj));
                let at = buf.as_ptr();
                let cut = grid.cut_tile(&a, bi, bj, buf);
                assert_eq!((&cut, cut.as_slice().as_ptr()), (&want, at), "n={n} b={b} ({bi},{bj})");
            }

            // Written back over other contents: the lower triangle
            // restored and +0.0 above it, bit for bit.
            let want = Matrix::from_fn(n, n, |i, j| if i < j { 0.0 } else { a[(i, j)] });
            let bits = |m: &Matrix<f64>| -> Vec<u64> {
                m.as_slice().iter().map(|x| x.to_bits()).collect()
            };

            let mut back = Matrix::from_fn(n, n, |_, _| -1.0);
            tiles.write_back(&mut back);
            assert_eq!(bits(&back), bits(&want), "n={n} b={b}: plain tiles");

            // The same block columns from packed tiles, one column at a
            // time and right to left: a block column's write touches
            // nothing outside its slice.
            let mut back = Matrix::from_fn(n, n, |_, _| -1.0);
            let columns: Vec<&mut [f64]> = grid.block_columns_mut(&mut back).collect();
            assert_eq!(columns.len(), grid.nb(), "n={n} b={b}");
            for (bj, cols) in columns.into_iter().enumerate().rev() {
                grid.write_block_column(bj, cols, |bi, window, ld| {
                    let mut packed = PackedTile::default();
                    packed.pack(&tiles.tiles[tile_idx(bi, bj)]);
                    packed.unpack_to_cols(window, ld);
                });
            }
            assert_eq!(bits(&back), bits(&want), "n={n} b={b}: packed tiles");
        }

        // An empty matrix has no block column to write.
        let mut empty = Matrix::<f64>::zeros(0, 0);
        let none = MemTiles::from_matrix(&empty, 4).unwrap();
        assert_eq!(none.grid.block_columns_mut(&mut empty).count(), 0);
        none.write_back(&mut empty);
        assert!(matches!(
            TileGrid::of(&Matrix::<f64>::zeros(3, 4), 2),
            Err(MatrixError::NotSquare { rows: 3, cols: 4 })
        ));
    }

    #[test]
    fn all_lists_every_op_once_in_id_order() {
        for nb in 0..=9usize {
            let by_decoding: Vec<TileOp> = (0..TileOp::id_space(nb))
                .filter_map(|id| TileOp::from_id(nb, id))
                .collect();
            assert_eq!(TileOp::all(nb).collect::<Vec<_>>(), by_decoding, "nb={nb}");
        }
    }

    /// A store call, as [`Helped`] logs it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Call {
        Begin(usize),
        Get(usize, usize),
        Take(usize, usize),
        Put(usize, usize),
    }

    /// Plain tiles in memory that log every store call, with — when
    /// `helper` — a real helper thread behind [`TileStore::lend`].  After
    /// each help request the next fetch waits until the helper has made
    /// its first call: the walk keeps the newest task for the helper, so
    /// that call takes it, and every helped step runs a task on the
    /// helper.  The store call `fail` errs.
    struct Helped {
        tiles: MemTiles<f64>,
        log: Vec<Call>,
        helper: bool,
        fail: Option<Call>,
        /// Help requests made, and answered by a first call of the work.
        requests: Arc<(AtomicUsize, AtomicUsize)>,
        /// Calls of the lent work that ran a task.
        helped: Arc<AtomicUsize>,
    }

    impl Helped {
        fn new(tiles: MemTiles<f64>, helper: bool) -> Self {
            Helped {
                tiles,
                log: Vec::new(),
                helper,
                fail: None,
                requests: Arc::default(),
                helped: Arc::default(),
            }
        }

        fn fetch(&mut self, call: Call, i: usize, j: usize) -> Result<Matrix<f64>, MatrixError> {
            let (made, answered) = &*self.requests;
            while answered.load(Ordering::SeqCst) < made.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            self.log.push(call);
            if self.fail == Some(call) {
                return Err(MatrixError::NotSquare { rows: i, cols: j });
            }
            self.tiles.get(i, j)
        }
    }

    impl TileStore for Helped {
        type Tile = Matrix<f64>;
        type Error = MatrixError;
        fn begin_panel(&mut self, k: usize) {
            self.log.push(Call::Begin(k));
        }
        fn get(&mut self, i: usize, j: usize) -> Result<Matrix<f64>, MatrixError> {
            self.fetch(Call::Get(i, j), i, j)
        }
        fn take(&mut self, i: usize, j: usize) -> Result<Matrix<f64>, MatrixError> {
            self.fetch(Call::Take(i, j), i, j)
        }
        fn put(&mut self, i: usize, j: usize, tile: Matrix<f64>) -> Result<(), MatrixError> {
            self.log.push(Call::Put(i, j));
            self.tiles.put(i, j, tile)
        }
        fn lend<R>(&mut self, work: &Work<'_>, body: impl FnOnce(&mut Self, Option<&dyn Fn()>) -> R) -> R {
            if !self.helper {
                return body(self, None);
            }
            let (tx, rx) = std::sync::mpsc::channel::<()>();
            let (requests, helped) = (Arc::clone(&self.requests), Arc::clone(&self.helped));
            std::thread::scope(|s| {
                let answers = Arc::clone(&requests);
                s.spawn(move || {
                    while rx.recv().is_ok() {
                        let mut more = work();
                        answers.1.fetch_add(1, Ordering::SeqCst);
                        while more {
                            helped.fetch_add(1, Ordering::SeqCst);
                            more = work();
                        }
                    }
                });
                let help = move || {
                    requests.0.fetch_add(1, Ordering::SeqCst);
                    tx.send(()).unwrap();
                };
                body(self, Some(&help))
            })
        }
    }

    #[test]
    fn a_helper_thread_leaves_the_factor_and_the_store_calls_as_they_are() {
        let a = spd::random_spd(45, &mut spd::test_rng(78));
        for kernel in [KernelImpl::Reference, KernelImpl::FastStrict, KernelImpl::Fast] {
            for (b, width) in [8usize, 16].into_iter().flat_map(|b| (1..=4usize).map(move |w| (b, w))) {
                let tiles = MemTiles::from_matrix(&a, b).unwrap();
                let grid = tiles.grid;
                let run = |helper: bool| {
                    let mut store = Helped::new(tiles.clone(), helper);
                    factor_left(&mut store, grid, 0..grid.nb(), width, kernel).unwrap();
                    let helped = store.helped.load(Ordering::SeqCst);
                    (store.tiles.tiles, store.log, helped)
                };
                let (inline, helped) = (run(false), run(true));
                let tag = format!("{kernel:?} b={b} width={width}");
                assert_eq!(helped.0, inline.0, "{tag}: the factor");
                assert_eq!(helped.1, inline.1, "{tag}: the store calls");
                // One block column wide the walk lends nothing; wider, on
                // 6 x 6 tiles, the helper runs some of the updates.
                assert_eq!(inline.2, 0, "{tag}");
                if width == 1 || b == 8 {
                    assert_eq!(helped.2 > 0, width > 1, "{tag}");
                }
            }
        }
    }

    /// The walk of `store` with a plain `apply` on the walk's thread and
    /// `helper_apply` on the helper's, both run through the [`Arithmetic`]
    /// of the reference engine.
    fn walk_lent_with(
        store: &mut Helped,
        width: usize,
        helper_apply: impl FnMut(TileOp, &mut Matrix<f64>, &[&Matrix<f64>]) -> Result<(), MatrixError> + Send,
    ) -> Result<(), MatrixError> {
        let grid = store.tiles.grid;
        let mut arith = Arithmetic::new(KernelImpl::Reference, grid);
        let apply = |op, t: &mut Matrix<f64>, o: &[&Matrix<f64>]| arith.apply(op, t, o);
        walk_left_lent(store, grid.nb(), 0..grid.nb(), width, apply, helper_apply)
    }

    #[test]
    fn a_panicking_helper_task_surfaces_as_a_panic() {
        let a = spd::random_spd(48, &mut spd::test_rng(79));
        let mut store = Helped::new(MemTiles::from_matrix(&a, 8).unwrap(), true);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            walk_lent_with(&mut store, 2, |_, _, _| panic!("helper task failed"))
        }));
        let payload = caught.expect_err("the helper's panic must surface");
        assert_eq!(payload.downcast_ref::<&str>().copied(), Some("helper task failed"));
    }

    #[test]
    fn a_fetch_error_mid_step_returns_once_the_helpers_task_has_settled() {
        // n = 48, b = 8, width 2: the chunk of rows 4..6 in columns 2..4
        // queues the update (4, 2, 1), asks for help, and fails fetching
        // (5, 1) while the helper runs that update.
        let a = spd::random_spd(48, &mut spd::test_rng(80));
        let mut store = Helped::new(MemTiles::from_matrix(&a, 8).unwrap(), true);
        store.fail = Some(Call::Get(5, 1));
        let (started, finished) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let mut arith = Arithmetic::new(KernelImpl::Reference, store.tiles.grid);
        let done = walk_lent_with(&mut store, 2, |op, t, o| {
            started.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(2));
            let done = arith.apply(op, t, o);
            finished.fetch_add(1, Ordering::SeqCst);
            done
        });
        assert!(matches!(done, Err(MatrixError::NotSquare { rows: 5, cols: 1 })), "{done:?}");
        let (started, finished) = (started.load(Ordering::SeqCst), finished.load(Ordering::SeqCst));
        assert!(started > 0 && started == finished, "{started} started, {finished} finished");
        assert_eq!(store.log.last(), Some(&Call::Get(5, 1)), "nothing after the failed fetch");
    }
}
