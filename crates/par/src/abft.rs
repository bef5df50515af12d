//! ABFT-protected SPMD `PxPOTRF`: the rank executor of `crate::alg9`
//! with resilience hooks, hardened against silent data corruption and
//! fail-stop rank loss.
//!
//! Three mechanisms compose:
//!
//! 1. **Huang–Abraham checksums per block.**  Every rank keeps a GF(2)
//!    checksum row/column ([`TileChecksum`](cholcomm_matrix::TileChecksum)) beside each block it owns,
//!    refreshed after every tile operation.  At the start of each panel
//!    step, after the fault plan's [`BitFlip`](cholcomm_faults::BitFlip)s
//!    land, every struck block is verified: a single corrupted element is
//!    *located and corrected in place* (bit-exactly — the encoding is over
//!    bit patterns, see `cholcomm_matrix::abft`), and a multi-element
//!    corruption falls back to the epoch checkpoint.
//! 2. **Epoch checkpoints.**  At the start of panel step `k` (the
//!    *epoch*), each rank deposits its owned blocks into a shared store
//!    keyed `(block, epoch)`.  History is kept, not overwritten: ranks
//!    skew, so recovery needs every block at one common epoch.
//! 3. **Survivor-side rank-loss recovery.**  A
//!    [`RankKill`] makes the victim checkpoint
//!    its epoch, then drop its channel endpoints ([`ProcCtx::die`]).
//!    Survivors observe typed [`DistError::RankLost`] errors (never a
//!    panic) and die in cascade.  One recovery round follows, with the
//!    dead rank's *logical role* adopted by a survivor through the
//!    executor's `logical -> physical` ownership map and every block
//!    reloaded from the kill epoch's checkpoints.  Each block undergoes
//!    the same kernel operations in the same order whichever physical
//!    rank runs them, so the recovered factor is **bit-identical** to a
//!    fault-free run's.
//!
//! All ABFT work — checksum words and flops, verifications, corrections,
//! checkpoint traffic — is tallied in [`AbftStats`], strictly separate
//! from the clean algorithmic traffic of [`FaultReport`], so the *cost
//! of resilience* is measurable against the paper's lower bounds.
//!
//! Determinism: under message-fault-only plans everything (factor bits,
//! clocks, traffic) is reproducible.  Under a `RankKill`, the aborted
//! round's traffic depends on send-vs-death races, so only the *factor*
//! (and the recovery outcome) is guaranteed deterministic.

use crate::alg9::{gather, run_rank, Hook, RankOut, Schedule, Tiles};
use crate::spmd::SpmdError;
use cholcomm_distsim::threaded::{run_spmd_faulty, DistError, FaultReport, ProcCtx, SpmdOutcome};
use cholcomm_distsim::CostModel;
use cholcomm_faults::{FaultPlan, RankKill};
use cholcomm_matrix::abft::{land, AbftStats, Guard, TileHealth};
use cholcomm_matrix::schedule::TileOp;
use cholcomm_matrix::{KernelImpl, Matrix};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Shared epoch-checkpoint store: block `(bi, bj)` as it stood at the
/// start of panel step `epoch`, keyed `(bi, bj, epoch)`.  History is
/// retained because ranks skew; recovery reads one common epoch.
type BlockStore = Arc<Mutex<Checkpoints>>;
type Checkpoints = HashMap<(usize, usize, usize), Matrix<f64>>;

/// Per-rank outcome of one round: the rank executor's result and the
/// rank's ABFT tallies — or the typed reason the rank aborted.
type RoundOut = Result<(RankOut, AbftStats), DistError>;

/// Outcome of an ABFT-protected SPMD run.
#[derive(Debug)]
pub struct AbftSpmdReport {
    /// The gathered factor (bit-identical to a fault-free run's).
    pub factor: Matrix<f64>,
    /// Simulated makespan, summed over rounds (a recovery round runs
    /// after the aborted one).
    pub makespan: f64,
    /// Clean vs. wire traffic across *all* rounds, aborted work
    /// included.
    pub fault: FaultReport,
    /// ABFT work (checksums, verifications, corrections, checkpoint
    /// traffic), kept separate from the clean counts above.
    pub abft: AbftStats,
    /// Recovery rounds run (0 when no rank was lost).
    pub recovery_rounds: usize,
    /// The rank that died, if any.
    pub lost_rank: Option<usize>,
}

fn lock(store: &BlockStore) -> Result<MutexGuard<'_, Checkpoints>, DistError> {
    store.lock().map_err(|_| DistError::Protocol("checkpoint store poisoned"))
}

/// One rank's resilience layer: the hooks it hangs on the rank executor.
struct Abft<'a> {
    me: usize,
    kill: Option<RankKill>,
    plan: &'a FaultPlan,
    store: &'a BlockStore,
    guard: Guard,
}

impl Hook for Abft<'_> {
    /// Checkpoint the epoch, die if the plan says so, then let the
    /// epoch's flips land and detect, locate and heal them.
    fn begin_panel(&mut self, k: usize, tiles: &mut Tiles) -> Result<(), DistError> {
        let mut keys: Vec<(usize, usize)> = tiles.keys().copied().collect();
        keys.sort_unstable();
        // Written before the kill and before any flip lands, so the store
        // always holds clean state.
        let mut ckpts = lock(self.store)?;
        for key in &keys {
            let blk = &tiles[key];
            self.guard.checkpoint((blk.rows() * blk.cols()) as u64);
            ckpts.insert((key.0, key.1, k), blk.clone());
        }
        drop(ckpts);

        // Fail-stop kill (the round's wrapper drops our endpoints).
        if self.kill.is_some_and(|kill| kill.rank == self.me && kill.step == k) {
            return Err(DistError::RankLost { rank: self.me });
        }

        for key in keys {
            let blk = tiles.get_mut(&key).ok_or(DistError::Protocol("owned block missing"))?;
            let flips = self.plan.tile_flips(k, key, blk.rows(), blk.cols());
            if land(blk, &flips)
                && matches!(self.guard.verify(key, blk), TileHealth::Unrecoverable { .. })
            {
                // Multi-element corruption: recompute-from-checkpoint
                // fallback, reading this epoch's (pre-flip) snapshot.
                let snapshot = lock(self.store)?.get(&(key.0, key.1, k)).cloned();
                *blk = snapshot.ok_or(DistError::Protocol("missing epoch snapshot"))?;
                self.guard.restored((blk.rows() * blk.cols()) as u64);
            }
        }
        Ok(())
    }

    /// Every tile op is followed by a checksum refresh of its target.
    fn after_op(&mut self, _: usize, op: TileOp, target: &Matrix<f64>) {
        self.guard.refresh(op.target(), target);
    }
}

/// Run one round of the program on `s.procs.len()` threads, with
/// ownership remapped through `phys`: from the input at panel 0, or, with
/// `restart = Some(epoch)`, from that epoch's checkpoints (charged as
/// checkpoint traffic).
#[allow(clippy::too_many_arguments)]
fn run_round(
    s: &Schedule,
    a: &Matrix<f64>,
    model: CostModel,
    plan: &FaultPlan,
    store: &BlockStore,
    phys: &[usize],
    restart: Option<usize>,
    kill: Option<RankKill>,
) -> SpmdOutcome<RoundOut> {
    let program = |ctx: &mut ProcCtx| -> RoundOut {
        let me = ctx.rank();
        if restart.is_some() && !phys.contains(&me) {
            // The dead physical rank stays dead in the recovery round:
            // it owns no role and exchanges nothing.
            return Ok((RankOut::default(), AbftStats::new()));
        }
        let mut hook = Abft { me, kill, plan, store, guard: Guard::new() };
        let mut load = || -> Result<Tiles, DistError> {
            let mut tiles = Tiles::new();
            for (i, j) in s.owned(phys, me) {
                let blk = match restart {
                    None => s.tiles.cut_tile(a, i, j, Vec::new()),
                    Some(epoch) => {
                        let blk = lock(store)?.get(&(i, j, epoch)).cloned();
                        let blk = blk.ok_or(DistError::Protocol("missing restart checkpoint"))?;
                        hook.guard.checkpoint((blk.rows() * blk.cols()) as u64);
                        blk
                    }
                };
                hook.guard.encode((i, j), &blk);
                tiles.insert((i, j), blk);
            }
            Ok(tiles)
        };
        let panels = restart.unwrap_or(0)..s.tiles.nb();
        let kernel = KernelImpl::Reference;
        match load().and_then(|tiles| run_rank(ctx, s, phys, tiles, panels, kernel, &mut hook)) {
            Ok(out) => Ok((out, hook.guard.stats())),
            Err(e) => {
                // Abort cascade: drop our endpoints so peers blocked on us
                // observe `RankLost` instead of hanging.
                ctx.die();
                Err(e)
            }
        }
    };
    run_spmd_faulty(s.procs.len(), model, plan.clone(), program)
}

/// ABFT-protected SPMD `PxPOTRF` on `p` threads under `plan`.
///
/// Handles every fault kind the plan can carry: message faults are
/// absorbed by the reliable transport, [`BitFlip`](cholcomm_faults::BitFlip)s
/// are detected/located/corrected by the per-block checksums (multi-error
/// tiles restored from the epoch checkpoint), and a
/// [`RankKill`] triggers one survivor-side
/// recovery round.  In every case the returned factor is bit-identical
/// to a fault-free run's.
pub fn abft_spmd_pxpotrf(
    a: &Matrix<f64>,
    b: usize,
    p: usize,
    model: CostModel,
    plan: FaultPlan,
) -> Result<AbftSpmdReport, SpmdError> {
    let s = Schedule::square(a, b, p)?;
    let kill = plan.rank_kill().filter(|k| k.rank < p && k.step < s.tiles.nb());
    assert!(kill.is_none() || p > 1, "rank-loss recovery needs at least one survivor");

    let store = BlockStore::default();
    let identity: Vec<usize> = (0..p).collect();
    let mut rounds = vec![run_round(&s, a, model, &plan, &store, &identity, None, kill)];
    let mut lost_rank = None;
    if rounds[0].results.iter().any(|r| r.is_err()) {
        // Ranks are lost only through the plan's RankKill (message
        // faults are absorbed by the transport), so the victim and the
        // restart epoch are known.  A survivor adopts the dead rank's
        // logical role.
        let k = kill.ok_or(DistError::Protocol("rank lost without a scheduled kill"))?;
        let mut phys = identity;
        phys[k.rank] = (k.rank + 1) % p;
        rounds.push(run_round(&s, a, model, &plan, &store, &phys, Some(k.step), None));
        lost_rank = Some(k.rank);
    }

    let mut abft = AbftStats::new();
    for (_, stats) in rounds.iter().flat_map(|o| o.results.iter().flatten()) {
        abft.merge(stats);
    }
    let last = &rounds[rounds.len() - 1].results;
    let factor = gather(&s, last.iter().map(|r| r.as_ref().map(|(out, _)| out)))?;
    // Clean and wire traffic summed over every round's clocks (aborted
    // rounds included — wasted retransmissions are part of the cost of
    // the fault).
    let clocks = rounds.iter().flat_map(|o| o.clocks.iter().cloned()).collect();
    Ok(AbftSpmdReport {
        factor,
        makespan: rounds.iter().map(|o| o.makespan()).sum(),
        fault: SpmdOutcome::<()> { results: Vec::new(), clocks }.fault_report(),
        abft,
        recovery_rounds: rounds.len() - 1,
        lost_rank,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::spmd::spmd_pxpotrf;
    use cholcomm_matrix::{norms, spd, MatrixError};

    #[test]
    fn abft_clean_run_matches_plain_spmd_bit_for_bit() {
        let mut rng = spd::test_rng(300);
        for (n, b, p) in [(16usize, 4usize, 4usize), (24, 4, 9), (20, 6, 4)] {
            let a = spd::random_spd(n, &mut rng);
            let plain = spmd_pxpotrf(
                &a,
                b,
                p,
                CostModel::typical(),
                FaultPlan::none(),
                KernelImpl::Reference,
            )
            .unwrap();
            let abft = abft_spmd_pxpotrf(&a, b, p, CostModel::typical(), FaultPlan::none()).unwrap();
            assert_eq!(
                norms::max_abs_diff(&plain.factor, &abft.factor),
                0.0,
                "n={n} b={b} p={p}: ABFT must not perturb the dataflow"
            );
            assert_eq!(abft.recovery_rounds, 0);
            assert!(abft.abft.encodes > 0 && abft.abft.checksum_updates > 0);
            assert_eq!(abft.abft.corrections, 0);
        }
    }

    #[test]
    fn single_bit_flips_are_corrected_bit_exactly() {
        let mut rng = spd::test_rng(301);
        let a = spd::random_spd(24, &mut rng);
        let clean = abft_spmd_pxpotrf(&a, 6, 4, CostModel::typical(), FaultPlan::none()).unwrap();
        // One flip on a diagonal tile about to be factored, one on a
        // trailing tile, one on an already-finished panel tile.
        let plan = FaultPlan::builder(7)
            .inject_bit_flip(1, (1, 1), (2, 3), 1 << 50)
            .inject_bit_flip(2, (3, 2), (0, 0), 1 << 63)
            .inject_bit_flip(3, (1, 0), (4, 1), 0b1)
            .build();
        let hit = abft_spmd_pxpotrf(&a, 6, 4, CostModel::typical(), plan).unwrap();
        assert_eq!(
            norms::max_abs_diff(&clean.factor, &hit.factor),
            0.0,
            "healed factor must be bit-identical"
        );
        assert_eq!(hit.abft.corrections, 3, "each flip located and corrected");
        assert_eq!(hit.abft.unrecoverable, 0);
        assert_eq!(hit.recovery_rounds, 0);
    }

    #[test]
    fn multi_element_corruption_restores_from_the_epoch_checkpoint() {
        let mut rng = spd::test_rng(302);
        let a = spd::random_spd(24, &mut rng);
        let clean = abft_spmd_pxpotrf(&a, 6, 4, CostModel::typical(), FaultPlan::none()).unwrap();
        // Two elements of the same tile at the same step: uncorrectable
        // from one checksum pair, must fall back to the checkpoint.
        let plan = FaultPlan::builder(8)
            .inject_bit_flip(2, (2, 2), (0, 1), 1 << 40)
            .inject_bit_flip(2, (2, 2), (3, 4), 1 << 41)
            .build();
        let hit = abft_spmd_pxpotrf(&a, 6, 4, CostModel::typical(), plan).unwrap();
        assert_eq!(norms::max_abs_diff(&clean.factor, &hit.factor), 0.0);
        assert_eq!(hit.abft.unrecoverable, 1);
        assert_eq!(hit.abft.restores, 1);
    }

    #[test]
    fn rank_kill_is_survived_bit_identically() {
        let mut rng = spd::test_rng(303);
        let a = spd::random_spd(24, &mut rng);
        let clean = abft_spmd_pxpotrf(&a, 6, 4, CostModel::typical(), FaultPlan::none()).unwrap();
        for (victim, step) in [(0usize, 1usize), (2, 0), (3, 2), (1, 3)] {
            let plan = FaultPlan::builder(9).inject_rank_kill(victim, step).build();
            let rep = abft_spmd_pxpotrf(&a, 6, 4, CostModel::typical(), plan).unwrap();
            assert_eq!(
                norms::max_abs_diff(&clean.factor, &rep.factor),
                0.0,
                "victim {victim} at step {step}: survivors must finish to the same bits"
            );
            assert_eq!(rep.recovery_rounds, 1);
            assert_eq!(rep.lost_rank, Some(victim));
        }
    }

    #[test]
    fn rank_kill_plus_message_faults_plus_flips_all_compose() {
        let mut rng = spd::test_rng(304);
        let a = spd::random_spd(24, &mut rng);
        let clean = abft_spmd_pxpotrf(&a, 6, 4, CostModel::typical(), FaultPlan::none()).unwrap();
        let plan = FaultPlan::builder(10)
            .drop_rate(0.3)
            .corrupt_rate(0.1)
            .bit_flip_rate(0.05)
            .inject_rank_kill(2, 2)
            .build();
        let rep = abft_spmd_pxpotrf(&a, 6, 4, CostModel::typical(), plan).unwrap();
        assert_eq!(
            norms::max_abs_diff(&clean.factor, &rep.factor),
            0.0,
            "everything at once must still converge to the same bits"
        );
        assert_eq!(rep.recovery_rounds, 1);
        assert!(rep.fault.stats.drops > 0, "message plan should have bitten");
    }

    #[test]
    fn abft_overhead_is_reported_separately_from_clean_traffic() {
        let mut rng = spd::test_rng(305);
        let a = spd::random_spd(24, &mut rng);
        let plain = spmd_pxpotrf(
            &a,
            6,
            4,
            CostModel::typical(),
            FaultPlan::none(),
            KernelImpl::Reference,
        )
        .unwrap();
        let abft = abft_spmd_pxpotrf(&a, 6, 4, CostModel::typical(), FaultPlan::none()).unwrap();
        // The clean algorithmic traffic is untouched by ABFT ...
        assert_eq!(abft.fault.clean_words, plain.fault.clean_words);
        assert_eq!(abft.fault.clean_messages, plain.fault.clean_messages);
        // ... and the resilience cost shows up only in the ABFT counters.
        assert!(abft.abft.checksum_words > 0);
        assert!(abft.abft.checkpoint_words > 0);
        assert!(abft.abft.word_overhead(abft.fault.clean_words) > 1.0);
    }

    #[test]
    fn indefinite_input_still_surfaces_not_spd() {
        let mut m = Matrix::<f64>::identity(16);
        m[(5, 5)] = -1.0;
        let err = abft_spmd_pxpotrf(&m, 4, 4, CostModel::typical(), FaultPlan::none()).unwrap_err();
        assert!(matches!(
            err,
            SpmdError::Matrix(MatrixError::NotSpd { pivot: 5, .. })
        ));
    }
}
