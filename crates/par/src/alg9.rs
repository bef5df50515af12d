//! Algorithm 9 — ScaLAPACK's `PxPOTRF` — written once.
//!
//! The schedule is data-oblivious: who factors, solves or updates which
//! tile, and who broadcasts which tiles to whom, is a function of the
//! tile grid, the processor grid and the ownership map alone.
//! [`Schedule::panel`] lists panel step `k` as [`Step`]s: factor the
//! diagonal tile and broadcast it down its processor column; per
//! processor row, solve that row's panel tiles and broadcast them across
//! the row in one message; per diagonal owner of a trailing block row
//! (ascending logical rank), re-broadcast those panel tiles down its
//! column; every trailing update on the owner of its target, in the
//! right-looking walk's order; end of panel.
//!
//! Two executors run the list, every tile op through
//! [`schedule::apply`](cholcomm_matrix::schedule::apply):
//! [`run_machine`] interprets it globally over a [`DistMatrix`] on the
//! sequential [`Machine`] simulator (which cannot host `P` blocking rank
//! programs), and [`run_rank`] is one rank's program over [`ProcCtx`],
//! walking the same list through a `logical -> physical` ownership map
//! ([`Schedule::rank_view`]).  A [`Hook`] adds a driver's work at fixed
//! points of the list.
//!
//! Each transport keeps its word convention: the simulator charges a
//! diagonal broadcast the `h(h+1)/2` words of its triangle, as the paper
//! counts it; [`ProcCtx`] counts the `h^2` words it ships.

use crate::blockcyclic::DistMatrix;
use crate::pxpotrf::BroadcastKind;
use crate::spmd::SpmdError;
use cholcomm_distsim::threaded::{DistError, ProcCtx};
use cholcomm_distsim::{Machine, ProcGrid};
use cholcomm_matrix::schedule::{apply, TileGrid, TileOp};
use cholcomm_matrix::{KernelImpl, Matrix, MatrixError, Operand};
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;

/// The tiles one rank holds, keyed `(bi, bj)`.
pub(crate) type Tiles = HashMap<(usize, usize), Matrix<f64>>;

/// Which of Algorithm 9's three broadcasts a [`Bcast`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// The factored diagonal tile, down its processor column.
    Diag,
    /// One processor's solved panel tiles, across its processor row.
    Panel,
    /// A diagonal owner's panel tiles, down its processor column.
    Rebroadcast,
}

/// One broadcast of the schedule.
#[derive(Debug)]
pub(crate) struct Bcast {
    pub(crate) phase: Phase,
    pub(crate) root: usize,
    /// Every rank taking part, the root included, ascending.
    pub(crate) members: Vec<usize>,
    /// The tiles shipped, in payload order.
    pub(crate) tiles: Vec<(usize, usize)>,
    /// Words the simulator charges.
    pub(crate) words: usize,
}

/// One step of a panel.
#[derive(Debug)]
pub(crate) enum Step {
    /// `rank` performs `op` on the tile it owns.
    Op { op: TileOp, rank: usize },
    Bcast(Bcast),
    /// Panel `k` is done: drop the copies of its tiles that were received.
    EndPanel(usize),
}

/// The tiles `op` reads besides its target.
pub(crate) fn operands(op: TileOp) -> Vec<(usize, usize)> {
    match op {
        TileOp::Factor { .. } => vec![],
        TileOp::Solve { k, .. } => vec![(k, k)],
        TileOp::Update { i, j, k } => vec![(i, k), (j, k)],
    }
}

/// Algorithm 9 over one tile grid and one square processor grid, tiles
/// owned block-cyclically (Figure 6).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Schedule {
    pub(crate) tiles: TileGrid,
    pub(crate) procs: ProcGrid,
}

impl Schedule {
    /// The input contract of every Algorithm 9 entry point: `a` square,
    /// `b` positive (a block larger than `a` is one tile), `p` a perfect
    /// square.
    pub(crate) fn new(a: &Matrix<f64>, b: usize, p: usize) -> Result<Self, MatrixError> {
        if b == 0 {
            let context = "block size must be positive";
            return Err(MatrixError::DimensionMismatch { context });
        }
        let tiles = TileGrid::of(a, b.min(a.rows().max(1)))?;
        Ok(Schedule { tiles, procs: ProcGrid::square(p) })
    }

    /// Logical owner of tile `(bi, bj)`.
    pub(crate) fn owner(&self, bi: usize, bj: usize) -> usize {
        self.procs.block_owner(bi, bj)
    }

    /// The lower tiles whose owner `phys` maps to `me`.
    pub(crate) fn owned(&self, phys: &[usize], me: usize) -> Vec<(usize, usize)> {
        let nb = self.tiles.nb();
        let lower = (0..nb).flat_map(|bj| (bj..nb).map(move |bi| (bi, bj)));
        lower.filter(|&(bi, bj)| phys[self.owner(bi, bj)] == me).collect()
    }

    /// Flops charged for `op`: [`TileOp::flops`], except that a factor
    /// charges `h^3/3 + h^2` (integer division), Table 2's count.
    pub(crate) fn flops(&self, op: TileOp) -> u64 {
        let h = self.tiles.dim(op.step()) as u64;
        match op {
            TileOp::Factor { .. } => h * h * h / 3 + h * h,
            _ => op.flops(self.tiles),
        }
    }

    /// Panel step `k`, with logical ranks.
    pub(crate) fn panel(&self, k: usize) -> Vec<Step> {
        let (nb, pr, pc) = (self.tiles.nb(), self.procs.rows(), self.procs.cols());
        let grid = self.tiles;
        let tile_words = |ts: &[(usize, usize)]| ts.iter().map(|&(i, j)| grid.tile_len(i, j)).sum();
        let (root, h) = (self.owner(k, k), grid.dim(k));
        let (members, tiles, words) = (self.procs.col_ranks(k % pc), vec![(k, k)], h * (h + 1) / 2);
        let mut steps = vec![
            Step::Op { op: TileOp::Factor { k }, rank: root },
            Step::Bcast(Bcast { phase: Phase::Diag, root, members, tiles, words }),
        ];
        for r in 0..pr {
            let tiles: Vec<_> = ((k + 1)..nb).filter(|i| i % pr == r).map(|i| (i, k)).collect();
            if tiles.is_empty() {
                continue;
            }
            let root = self.procs.rank(r, k % pc);
            let solve = |&(i, _): &(usize, usize)| Step::Op { op: TileOp::Solve { i, k }, rank: root };
            steps.extend(tiles.iter().map(solve));
            let (members, words) = (self.procs.row_ranks(r), tile_words(&tiles));
            steps.push(Step::Bcast(Bcast { phase: Phase::Panel, root, members, tiles, words }));
        }
        let mut regroups: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
        for l in (k + 1)..nb {
            regroups.entry(self.owner(l, l)).or_default().push((l, k));
        }
        for (root, tiles) in regroups {
            let (members, words) = (self.procs.col_ranks(tiles[0].0 % pc), tile_words(&tiles));
            let phase = Phase::Rebroadcast;
            steps.push(Step::Bcast(Bcast { phase, root, members, tiles, words }));
        }
        for j in (k + 1)..nb {
            for i in j..nb {
                steps.push(Step::Op { op: TileOp::Update { i, j, k }, rank: self.owner(i, j) });
            }
        }
        steps.push(Step::EndPanel(k));
        steps
    }

    /// The steps of panel `k` that physical rank `me` takes part in, each
    /// logical rank mapped through `phys`.  A broadcast whose members map
    /// to fewer than two physical ranks is satisfied locally and dropped.
    pub(crate) fn rank_view(&self, k: usize, phys: &[usize], me: usize) -> Vec<Step> {
        let view = |step| match step {
            Step::Op { op, rank } => (phys[rank] == me).then_some(Step::Op { op, rank: me }),
            Step::Bcast(mut bc) => {
                bc.root = phys[bc.root];
                bc.members = bc.members.iter().map(|&m| phys[m]).collect();
                bc.members.sort_unstable();
                bc.members.dedup();
                (bc.members.len() > 1 && bc.members.contains(&me)).then_some(Step::Bcast(bc))
            }
            end @ Step::EndPanel(_) => Some(end),
        };
        self.panel(k).into_iter().filter_map(view).collect()
    }
}

/// A driver's additions to the schedule; every method defaults to none.
pub(crate) trait Hook {
    /// Rank executor: panel step `k` starts on this rank, which now holds
    /// exactly the tiles it owns.
    fn begin_panel(&mut self, _k: usize, _tiles: &mut Tiles) -> Result<(), DistError> {
        Ok(())
    }
    /// Both executors: `rank` performed `op`, writing `target`.
    fn after_op(&mut self, _rank: usize, _op: TileOp, _target: &Matrix<f64>) {}
    /// Machine executor: `bc` delivered its tiles.
    fn after_bcast(&mut self, _bc: &Bcast) {}
}

impl Hook for () {}

/// The machine executor: Algorithm 9 on `a` over `machine`, every
/// processor's tiles in one [`DistMatrix`].  Stops at the first pivot
/// that is not positive.
pub(crate) fn run_machine(
    s: &Schedule,
    a: &Matrix<f64>,
    machine: &mut Machine,
    kind: BroadcastKind,
    hook: &mut impl Hook,
) -> Result<DistMatrix, MatrixError> {
    let mut dist = DistMatrix::distribute(a, s.tiles.b, s.procs);
    for step in (0..s.tiles.nb()).flat_map(|k| s.panel(k)) {
        match step {
            Step::Op { op, rank } => {
                let held: Vec<Matrix<f64>> =
                    operands(op).iter().map(|&(i, j)| dist.visible(rank, i, j).clone()).collect();
                let (i, j) = op.target();
                let target = dist.block_mut(i, j);
                let held: Vec<Operand<'_, f64>> = held.iter().map(Operand::Plain).collect();
                apply(op, KernelImpl::Reference, s.tiles, target, &held)?;
                machine.compute(rank, s.flops(op));
                hook.after_op(rank, op, target);
            }
            Step::Bcast(bc) => {
                match kind {
                    BroadcastKind::Tree => machine.broadcast(bc.root, &bc.members, bc.words),
                    BroadcastKind::Ring => machine.ring_broadcast(bc.root, &bc.members, bc.words),
                };
                for &(i, j) in &bc.tiles {
                    let tile = dist.visible(bc.root, i, j).clone();
                    for &m in bc.members.iter().filter(|&&m| m != bc.root) {
                        dist.deposit(m, i, j, tile.clone());
                    }
                }
                hook.after_bcast(&bc);
            }
            Step::EndPanel(k) => dist.evict_received_panel(k),
        }
    }
    Ok(dist)
}

/// What one rank's program leaves: the tiles it owns, and the first
/// pivot it found not positive (whole-matrix index, value).
#[derive(Debug, Default)]
pub(crate) struct RankOut {
    pub(crate) tiles: Tiles,
    pub(crate) failed: Option<(usize, f64)>,
}

/// The rank executor: panels `panels` of Algorithm 9 as physical rank
/// `ctx.rank()` under the ownership map `phys`, starting from the tiles
/// it owns.  A pivot that is not positive is recorded and the program
/// runs on, so no peer blocks on a broadcast that never comes.
pub(crate) fn run_rank(
    ctx: &mut ProcCtx,
    s: &Schedule,
    phys: &[usize],
    mut tiles: Tiles,
    panels: Range<usize>,
    kernel: KernelImpl,
    hook: &mut impl Hook,
) -> Result<RankOut, DistError> {
    let me = ctx.rank();
    let mut failed = None;
    // The whole view up front, so deriving the schedule never stands
    // between a rank and its next message.
    let views: Vec<(usize, Vec<Step>)> = panels.map(|k| (k, s.rank_view(k, phys, me))).collect();
    for (k, view) in views {
        hook.begin_panel(k, &mut tiles)?;
        for step in view {
            match step {
                Step::Op { op, .. } => {
                    let key = op.target();
                    let target = tiles.remove(&key);
                    let mut target = target.ok_or(DistError::Protocol("owner holds its tile"))?;
                    let held: Option<Vec<_>> =
                        operands(op).iter().map(|t| tiles.get(t).map(Operand::Plain)).collect();
                    let held = held.ok_or(DistError::Protocol("operand tiles were delivered"))?;
                    let done = apply(op, kernel, s.tiles, &mut target, &held);
                    if let Err(MatrixError::NotSpd { pivot, value }) = done {
                        failed.get_or_insert((pivot, value));
                    }
                    ctx.compute(s.flops(op));
                    hook.after_op(me, op, &target);
                    tiles.insert(key, target);
                }
                Step::Bcast(bc) if bc.root == me => {
                    let mut payload = Vec::new();
                    for t in &bc.tiles {
                        let tile = tiles.get(t).ok_or(DistError::Protocol("root holds its tiles"))?;
                        payload.extend_from_slice(tile.as_slice());
                    }
                    ctx.bcast(me, &bc.members, Some(payload))?;
                }
                Step::Bcast(bc) => {
                    let data = ctx.bcast(bc.root, &bc.members, None)?;
                    let mut off = 0;
                    for &(i, j) in &bc.tiles {
                        let (h, w) = (s.tiles.dim(i), s.tiles.dim(j));
                        tiles.insert((i, j), Matrix::from_fn(h, w, |r, c| data[off + r + c * h]));
                        off += h * w;
                    }
                }
                Step::EndPanel(k) => tiles.retain(|&(i, j), _| j != k || phys[s.owner(i, j)] == me),
            }
        }
    }
    Ok(RankOut { tiles, failed })
}

/// The factor from every rank's [`RankOut`]: the first rank's loss or
/// the lowest failing pivot as an error, else the lower tiles in place
/// under a zero upper triangle.
pub(crate) fn gather<'a>(
    s: &Schedule,
    ranks: impl Iterator<Item = Result<&'a RankOut, &'a DistError>>,
) -> Result<Matrix<f64>, SpmdError> {
    let ranks: Vec<&RankOut> = ranks.collect::<Result<_, _>>().map_err(|e| SpmdError::Dist(*e))?;
    if let Some((pivot, value)) = ranks.iter().filter_map(|r| r.failed).min_by_key(|f| f.0) {
        return Err(MatrixError::NotSpd { pivot, value }.into());
    }
    let (n, b) = (s.tiles.n, s.tiles.b);
    let mut factor = Matrix::zeros(n, n);
    for (&(bi, bj), tile) in ranks.iter().flat_map(|r| &r.tiles) {
        factor.set_submatrix(bi * b, bj * b, tile);
    }
    factor.zero_strict_upper();
    Ok(factor)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::spmd::SpmdError;
    use crate::{abft_spmd_pxpotrf, pxpotrf, pxpotrf_hier, spmd_pxpotrf};
    use cholcomm_distsim::CostModel;
    use cholcomm_faults::FaultPlan;
    use cholcomm_matrix::spd;
    use std::collections::HashSet;

    fn schedule(n: usize, b: usize, p: usize) -> Schedule {
        Schedule::new(&Matrix::identity(n), b, p).unwrap()
    }

    /// The logical-to-physical maps a rank executor runs under: the
    /// identity, and each rank in turn adopted by its successor.
    fn maps(p: usize) -> Vec<Vec<usize>> {
        let identity: Vec<usize> = (0..p).collect();
        let adopted = (0..p).filter(|_| p > 1).map(|dead| {
            let mut phys = identity.clone();
            phys[dead] = (dead + 1) % p;
            phys
        });
        std::iter::once(identity.clone()).chain(adopted).collect()
    }

    #[test]
    fn the_step_list_holds_every_tile_op_once_in_ascending_k() {
        for p in [1, 4, 9, 16] {
            for (n, b) in [(23, 4), (37, 8), (10, 3)] {
                let s = schedule(n, b, p);
                let nb = s.tiles.nb();
                let ops: Vec<TileOp> = (0..nb)
                    .flat_map(|k| s.panel(k))
                    .filter_map(|step| match step {
                        Step::Op { op, rank } => {
                            assert_eq!(rank, s.owner(op.target().0, op.target().1), "{op:?} runs on its owner");
                            Some(op)
                        }
                        _ => None,
                    })
                    .collect();
                let mut sorted = ops.clone();
                sorted.sort_by_key(|op| op.id(nb));
                assert_eq!(sorted, TileOp::all(nb).collect::<Vec<_>>(), "n={n} b={b} p={p}");
                let mut next_k: HashMap<(usize, usize), usize> = HashMap::new();
                for op in ops {
                    let k = next_k.entry(op.target()).or_default();
                    assert_eq!(op.step(), *k, "n={n} b={b} p={p}: {op:?} out of order");
                    *k += 1;
                }
            }
        }
    }

    #[test]
    fn each_rank_runs_exactly_the_ops_it_owns_and_holds_every_operand() {
        for p in [1, 4, 9, 16] {
            for (n, b) in [(23, 4), (37, 8)] {
                let s = schedule(n, b, p);
                let nb = s.tiles.nb();
                for phys in maps(p) {
                    let mut ran: Vec<usize> = Vec::new();
                    for me in 0..p {
                        // Which tiles the rank holds, with no data: its own,
                        // plus what was delivered since the panel began.
                        let owned: HashSet<(usize, usize)> = s.owned(&phys, me).into_iter().collect();
                        let mut held = owned.clone();
                        for step in (0..nb).flat_map(|k| s.rank_view(k, &phys, me)) {
                            match step {
                                Step::Op { op, rank } => {
                                    let (i, j) = op.target();
                                    assert_eq!((rank, phys[s.owner(i, j)]), (me, me), "{op:?} on {me} under {phys:?}");
                                    assert!(operands(op).iter().all(|t| held.contains(t)), "{op:?} on {me}");
                                    ran.push(op.id(nb));
                                }
                                Step::Bcast(bc) => {
                                    assert!(bc.members.len() > 1 && bc.members.contains(&me));
                                    if bc.root == me {
                                        assert!(bc.tiles.iter().all(|t| held.contains(t)), "{bc:?}");
                                    }
                                    held.extend(bc.tiles);
                                }
                                Step::EndPanel(k) => held.retain(|t| t.1 != k || owned.contains(t)),
                            }
                        }
                        assert_eq!(held, owned, "rank {me} keeps only its own tiles");
                    }
                    ran.sort_unstable();
                    let all: Vec<usize> = TileOp::all(nb).map(|op| op.id(nb)).collect();
                    assert_eq!(ran, all, "n={n} b={b} p={p} phys={phys:?}: every op on exactly one rank");
                }
            }
        }
    }

    #[test]
    fn every_entry_point_rejects_a_non_square_matrix() {
        let a = Matrix::<f64>::zeros(6, 8);
        let want = MatrixError::NotSquare { rows: 6, cols: 8 };
        let m = CostModel::counting();
        assert_eq!(pxpotrf(&a, 2, 4, m).unwrap_err(), want);
        assert_eq!(pxpotrf_hier(&a, 2, 4, m, 12).unwrap_err(), want);
        assert_eq!(spmd_pxpotrf(&a, 2, 4, m).unwrap_err(), SpmdError::Matrix(want.clone()));
        let abft = abft_spmd_pxpotrf(&a, 2, 4, m, FaultPlan::none()).unwrap_err();
        assert_eq!(abft, SpmdError::Matrix(want));
    }

    #[test]
    fn every_entry_point_rejects_a_zero_block_size() {
        let a = Matrix::<f64>::identity(8);
        let want = MatrixError::DimensionMismatch { context: "block size must be positive" };
        let m = CostModel::counting();
        assert_eq!(pxpotrf(&a, 0, 4, m).unwrap_err(), want);
        assert_eq!(pxpotrf_hier(&a, 0, 4, m, 12).unwrap_err(), want);
        assert_eq!(spmd_pxpotrf(&a, 0, 4, m).unwrap_err(), SpmdError::Matrix(want.clone()));
        let abft = abft_spmd_pxpotrf(&a, 0, 4, m, FaultPlan::none()).unwrap_err();
        assert_eq!(abft, SpmdError::Matrix(want));
    }

    #[test]
    fn every_entry_point_runs_a_block_larger_than_n_as_one_tile() {
        let a = spd::random_spd(10, &mut spd::test_rng(400));
        let m = CostModel::typical();

        let (big, one) = (pxpotrf(&a, 16, 4, m).unwrap(), pxpotrf(&a, 10, 4, m).unwrap());
        assert_eq!((big.factor, big.critical, big.makespan), (one.factor, one.critical, one.makespan));
        assert_eq!((big.max_proc_flops, big.peak_resident_words), (one.max_proc_flops, one.peak_resident_words));

        let (big, one) = (pxpotrf_hier(&a, 16, 4, m, 300).unwrap(), pxpotrf_hier(&a, 10, 4, m, 300).unwrap());
        assert_eq!((big.factor, big.critical), (one.factor, one.critical));
        assert_eq!((big.max_local_words, big.max_local_messages), (one.max_local_words, one.max_local_messages));

        let (big, one) = (spmd_pxpotrf(&a, 16, 4, m).unwrap(), spmd_pxpotrf(&a, 10, 4, m).unwrap());
        assert_eq!((big.factor, big.critical, big.makespan), (one.factor, one.critical, one.makespan));

        let big = abft_spmd_pxpotrf(&a, 16, 4, m, FaultPlan::none()).unwrap();
        let one = abft_spmd_pxpotrf(&a, 10, 4, m, FaultPlan::none()).unwrap();
        assert_eq!((big.factor, big.abft), (one.factor, one.abft));
    }
}
