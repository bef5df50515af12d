//! `PxPOTRF` as a true SPMD program: every rank runs the same
//! per-processor code on its own OS thread, exchanging real block
//! payloads through the channel mesh of
//! [`cholcomm_distsim::threaded`] — the Algorithm 9 schedule of
//! `crate::alg9`, run by its rank executor under the identity ownership
//! map, with genuine concurrency instead of a sequential simulation.
//!
//! Every rank derives the global communication schedule independently
//! from `(n, b, P)` (who owns which block, who broadcasts when), which is
//! exactly how a ScaLAPACK process behaves: the schedule is a pure
//! function of the problem geometry, so no coordination messages are
//! needed beyond the data itself.

use crate::alg9::{gather, run_rank, Schedule};
use cholcomm_distsim::threaded::{run_spmd_faulty, DistError, FaultReport, ProcCtx};
use cholcomm_distsim::CostModel;
use cholcomm_faults::FaultPlan;
use cholcomm_matrix::{KernelImpl, Matrix, MatrixError};

/// Errors from the SPMD driver: numerical failures of the
/// factorization, or a lost rank the plain driver cannot recover from
/// (the ABFT driver in [`crate::abft`] can).
#[derive(Debug, Clone, PartialEq)]
pub enum SpmdError {
    /// The factorization itself failed (non-SPD input, bad shapes).
    Matrix(MatrixError),
    /// The message path failed: a rank died mid-run.
    Dist(DistError),
}

impl From<MatrixError> for SpmdError {
    fn from(e: MatrixError) -> Self {
        SpmdError::Matrix(e)
    }
}

impl From<DistError> for SpmdError {
    fn from(e: DistError) -> Self {
        SpmdError::Dist(e)
    }
}

impl std::fmt::Display for SpmdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpmdError::Matrix(e) => write!(f, "{e}"),
            SpmdError::Dist(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SpmdError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpmdError::Matrix(e) => Some(e),
            SpmdError::Dist(e) => Some(e),
        }
    }
}

/// Outcome of the SPMD run.
#[derive(Debug)]
pub struct SpmdReport {
    /// The gathered factor.
    pub factor: Matrix<f64>,
    /// Critical path of the slowest rank.
    pub critical: cholcomm_distsim::CriticalPath,
    /// Simulated makespan.
    pub makespan: f64,
    /// Clean vs. faulted traffic totals for the run (overheads are 1.0
    /// on a perfect network).
    pub fault: FaultReport,
}

/// Run Algorithm 9 as an SPMD program on `p` threads (perfect network).
pub fn spmd_pxpotrf(
    a: &Matrix<f64>,
    b: usize,
    p: usize,
    model: CostModel,
) -> Result<SpmdReport, SpmdError> {
    spmd_pxpotrf_faulty_with(a, b, p, model, FaultPlan::none(), KernelImpl::Reference)
}

/// [`spmd_pxpotrf`] with an explicit kernel engine.  The per-rank
/// program's sends, broadcasts and `ctx.compute` charges are decided by
/// the schedule alone, so the critical-path word/message counts are
/// identical under every engine (asserted in `tests/cross_algorithm.rs`).
pub fn spmd_pxpotrf_with(
    a: &Matrix<f64>,
    b: usize,
    p: usize,
    model: CostModel,
    kernel: KernelImpl,
) -> Result<SpmdReport, SpmdError> {
    spmd_pxpotrf_faulty_with(a, b, p, model, FaultPlan::none(), kernel)
}

/// Run Algorithm 9 as an SPMD program on `p` threads with every link
/// subjected to `plan`.  The reliable transport in
/// [`cholcomm_distsim::threaded`] recovers from drops, duplicates,
/// corruption, and delays, so the returned factor is bit-identical to
/// the clean run's; only the clocks and the traffic totals differ.
pub fn spmd_pxpotrf_faulty(
    a: &Matrix<f64>,
    b: usize,
    p: usize,
    model: CostModel,
    plan: FaultPlan,
) -> Result<SpmdReport, SpmdError> {
    spmd_pxpotrf_faulty_with(a, b, p, model, plan, KernelImpl::Reference)
}

/// [`spmd_pxpotrf_faulty`] with an explicit kernel engine.
pub fn spmd_pxpotrf_faulty_with(
    a: &Matrix<f64>,
    b: usize,
    p: usize,
    model: CostModel,
    plan: FaultPlan,
    kernel: KernelImpl,
) -> Result<SpmdReport, SpmdError> {
    let s = Schedule::new(a, b, p)?;
    assert!(
        plan.rank_kill().is_none(),
        "this driver has no rank-loss recovery; use abft::abft_spmd_pxpotrf for RankKill plans"
    );
    let identity: Vec<usize> = (0..p).collect();
    let out = run_spmd_faulty(p, model, plan, |ctx: &mut ProcCtx| {
        let tiles = s.owned(&identity, ctx.rank()).into_iter();
        let tiles = tiles.map(|(i, j)| ((i, j), s.tiles.cut_tile(a, i, j, Vec::new()))).collect();
        run_rank(ctx, &s, &identity, tiles, 0..s.tiles.nb(), kernel, &mut ())
    });
    // A dead peer surfaces as `Err(RankLost)` for a rank instead of a
    // panic poisoning the whole mesh.
    Ok(SpmdReport {
        factor: gather(&s, out.results.iter().map(Result::as_ref))?,
        critical: out.critical_path(),
        makespan: out.makespan(),
        fault: out.fault_report(),
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::pxpotrf::pxpotrf;
    use cholcomm_matrix::{kernels, norms, spd};

    #[test]
    fn spmd_matches_sequential_reference() {
        let mut rng = spd::test_rng(170);
        for (n, b, p) in [(16usize, 4usize, 4usize), (24, 4, 9), (32, 8, 16), (20, 6, 4)] {
            let a = spd::random_spd(n, &mut rng);
            let rep = spmd_pxpotrf(&a, b, p, CostModel::counting()).unwrap();
            let mut want = a.clone();
            kernels::potf2(&mut want).unwrap();
            let want = want.lower_triangle().unwrap();
            let diff = norms::max_abs_diff(&rep.factor, &want);
            assert!(diff < 1e-8, "n={n} b={b} p={p}: {diff}");
        }
    }

    #[test]
    fn spmd_and_simulated_machines_agree_numerically() {
        let mut rng = spd::test_rng(171);
        let n = 32;
        let a = spd::random_spd(n, &mut rng);
        let spmd = spmd_pxpotrf(&a, 8, 16, CostModel::typical()).unwrap();
        let sim = pxpotrf(&a, 8, 16, CostModel::typical()).unwrap();
        assert_eq!(
            norms::max_abs_diff(&spmd.factor, &sim.factor),
            0.0,
            "same dataflow, bit-identical factors"
        );
        // Clock models differ (rendezvous vs postal) but stay in the
        // same ballpark.
        let ratio = spmd.critical.messages as f64 / sim.critical.messages.max(1) as f64;
        assert!(ratio > 0.2 && ratio < 5.0, "message ratio {ratio}");
    }

    #[test]
    fn spmd_single_processor_works() {
        let mut rng = spd::test_rng(172);
        let a = spd::random_spd(12, &mut rng);
        let rep = spmd_pxpotrf(&a, 4, 1, CostModel::typical()).unwrap();
        assert_eq!(rep.critical.messages, 0);
        let r = norms::cholesky_residual(&a, &rep.factor);
        assert!(r < norms::residual_tolerance(12));
    }

    #[test]
    fn spmd_detects_indefinite_inputs() {
        let mut m = Matrix::<f64>::identity(16);
        m[(5, 5)] = -1.0;
        let err = spmd_pxpotrf(&m, 4, 4, CostModel::counting()).unwrap_err();
        assert!(matches!(
            err,
            SpmdError::Matrix(MatrixError::NotSpd { pivot: 5, value }) if value == -1.0
        ));
    }

    #[test]
    fn spmd_faulty_factor_is_bit_identical_to_clean() {
        let mut rng = spd::test_rng(174);
        let a = spd::random_spd(24, &mut rng);
        let clean = spmd_pxpotrf(&a, 6, 4, CostModel::typical()).unwrap();
        let plan = FaultPlan::builder(99)
            .drop_rate(0.15)
            .duplicate_rate(0.05)
            .corrupt_rate(0.05)
            .delay(0.05, 1000.0)
            .build();
        let lossy = spmd_pxpotrf_faulty(&a, 6, 4, CostModel::typical(), plan).unwrap();
        assert_eq!(
            norms::max_abs_diff(&clean.factor, &lossy.factor),
            0.0,
            "recovery must not perturb the dataflow"
        );
        assert!(lossy.fault.stats.drops > 0, "plan should have bitten");
        assert!(lossy.fault.word_overhead > 1.0);
        assert!(lossy.makespan > clean.makespan, "retries cost simulated time");
        assert_eq!(clean.fault.word_overhead, 1.0);
    }

    #[test]
    fn spmd_faulty_is_deterministic() {
        let mut rng = spd::test_rng(175);
        let a = spd::random_spd(20, &mut rng);
        let mk = || {
            let plan = FaultPlan::builder(7).drop_rate(0.25).corrupt_rate(0.1).build();
            spmd_pxpotrf_faulty(&a, 5, 4, CostModel::typical(), plan).unwrap()
        };
        let (r1, r2) = (mk(), mk());
        assert_eq!(r1.factor, r2.factor);
        assert_eq!(r1.makespan, r2.makespan);
        assert_eq!(r1.fault.faulted_words, r2.fault.faulted_words);
        assert_eq!(r1.fault.stats, r2.fault.stats);
    }

    #[test]
    fn spmd_is_deterministic() {
        let mut rng = spd::test_rng(173);
        let a = spd::random_spd(24, &mut rng);
        let r1 = spmd_pxpotrf(&a, 6, 4, CostModel::typical()).unwrap();
        let r2 = spmd_pxpotrf(&a, 6, 4, CostModel::typical()).unwrap();
        assert_eq!(r1.factor, r2.factor);
        assert_eq!(r1.makespan, r2.makespan);
        assert_eq!(r1.critical, r2.critical);
    }
}
