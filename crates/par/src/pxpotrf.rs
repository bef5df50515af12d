//! Algorithm 9: ScaLAPACK's `PxPOTRF` on the simulated machine.
//!
//! Per block column: factor the diagonal block, broadcast it down its
//! processor column; panel owners solve their blocks and broadcast them
//! across their processor rows (one aggregated message per processor, as
//! in the paper's analysis); diagonal owners re-broadcast down columns;
//! everyone applies the rank-`b` update to the trailing blocks it owns.
//!
//! Table 2's upper bounds fall out of this schedule: `(3/2)(n/b) log P`
//! messages and `(nb/4 + n^2/sqrt(P)) log P` words on the critical path,
//! so choosing `b = n/sqrt(P)` attains the 2D lower bounds to within the
//! `log P` factor.
//!
//! The 1D block-column baseline, the distribution the 2D lower bound
//! exists to beat, is the same schedule on a `1 × P` grid: block-columns
//! are dealt cyclically, and each panel's owner broadcasts its solved
//! tiles to everyone for the trailing update.  Its critical path carries
//! `~ (n^2 / 2) log P` words, `(2/5) sqrt(P)` times the 2D algorithm's
//! `(5/4)(n^2/sqrt(P)) log P` at `b = n/sqrt(P)` ([`paper_word_bound`])
//! and far above the `Omega(n^2/sqrt(P))` lower bound, which is why
//! ScaLAPACK uses the 2D block-cyclic layout of Figure 6.
//!
//! The schedule itself is `crate::alg9`'s; this module runs it with the
//! machine executor and reports what the simulator metered.

use crate::alg9::{run_machine, Schedule};
use cholcomm_distsim::{CostModel, CriticalPath, Machine};
use cholcomm_matrix::{Matrix, MatrixError};

/// Outcome of one simulated `PxPOTRF` run.
#[derive(Debug, Clone)]
pub struct PxPotrfReport {
    /// The gathered factor (lower triangle holds `L`).
    pub factor: Matrix<f64>,
    /// Words/messages/flops along the critical path (the slowest chain).
    pub critical: CriticalPath,
    /// Modelled finishing time under the run's [`CostModel`].
    pub makespan: f64,
    /// Busiest-processor totals `(words, messages)`.
    pub max_proc: (u64, u64),
    /// Flops on the busiest processor (Table 2's parallel flop count).
    pub max_proc_flops: u64,
    /// Aggregate flops over all processors.
    pub total_flops: u64,
    /// Peak words resident on any processor (owned blocks plus received
    /// copies alive at the same time).  The 2D model requires this to be
    /// `O(n^2 / P)`; the schedule evicts each panel's received copies
    /// after its trailing update.
    pub peak_resident_words: usize,
}

/// Which collective implementation the broadcasts use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BroadcastKind {
    /// Binomial tree — `ceil(log2 k)` critical-path messages (the
    /// ScaLAPACK assumption behind every `log P` in Table 2).
    Tree,
    /// Ring — `k - 1` critical-path messages (ablation baseline).
    Ring,
}

/// Run Algorithm 9 on `a` with block size `b` over a square grid of `p`
/// processors (`p` a positive perfect square, else `DimensionMismatch`),
/// under `model`, broadcasting along `bcast` trees.
///
/// ```
/// use cholcomm_distsim::CostModel;
/// use cholcomm_matrix::spd;
/// use cholcomm_par::pxpotrf::{pxpotrf, BroadcastKind};
///
/// let mut rng = spd::test_rng(1);
/// let a = spd::random_spd(16, &mut rng);
/// let report = pxpotrf(&a, 8, 4, CostModel::typical(), BroadcastKind::Tree).unwrap();
/// assert!(report.critical.messages > 0);
/// assert!(report.factor[(0, 0)] > 0.0);
/// ```
pub fn pxpotrf(
    a: &Matrix<f64>,
    b: usize,
    p: usize,
    model: CostModel,
    bcast: BroadcastKind,
) -> Result<PxPotrfReport, MatrixError> {
    simulate(&Schedule::square(a, b, p)?, a, model, bcast)
}

/// The 1D block-column baseline: Algorithm 9 on `a` with block size `b`
/// over a `1 × p` grid (`p` positive, else `DimensionMismatch`), block
/// column `bj` owned by processor `bj mod p`, under `model`, broadcasting
/// along binomial trees.
pub fn pxpotrf_1d(
    a: &Matrix<f64>,
    b: usize,
    p: usize,
    model: CostModel,
) -> Result<PxPotrfReport, MatrixError> {
    simulate(&Schedule::new(a, b, (1, p))?, a, model, BroadcastKind::Tree)
}

/// Run `s` on `a` with the machine executor and report what it metered.
fn simulate(
    s: &Schedule,
    a: &Matrix<f64>,
    model: CostModel,
    bcast: BroadcastKind,
) -> Result<PxPotrfReport, MatrixError> {
    let mut machine = Machine::new(s.procs.len(), model);
    let dist = run_machine(s, a, &mut machine, bcast, &mut ())?;
    Ok(PxPotrfReport {
        factor: dist.gather(),
        critical: machine.critical_path(),
        makespan: machine.makespan(),
        max_proc: machine.max_proc_totals(),
        max_proc_flops: machine.max_proc_flops(),
        total_flops: machine.total_flops(),
        peak_resident_words: dist.peak_resident_words(),
    })
}

/// The paper's closed-form message bound: `(3/2) (n/b) log2 P`.
pub fn paper_message_bound(n: usize, b: usize, p: usize) -> f64 {
    1.5 * (n as f64 / b as f64) * (p as f64).log2()
}

/// The paper's closed-form word bound: `(n b / 4 + n^2 / sqrt(P)) log2 P`.
pub fn paper_word_bound(n: usize, b: usize, p: usize) -> f64 {
    ((n * b) as f64 / 4.0 + (n * n) as f64 / (p as f64).sqrt()) * (p as f64).log2()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use cholcomm_matrix::kernels::potf2 as seq_potf2;
    use cholcomm_matrix::{norms, spd};

    fn sequential_factor(a: &Matrix<f64>) -> Matrix<f64> {
        let mut f = a.clone();
        seq_potf2(&mut f).unwrap();
        f.lower_triangle().unwrap()
    }

    #[test]
    fn matches_sequential_factor_various_configs() {
        let mut rng = spd::test_rng(110);
        for (n, b, p) in [(16, 4, 4), (24, 4, 9), (24, 6, 16), (32, 8, 4), (30, 4, 9)] {
            let a = spd::random_spd(n, &mut rng);
            let rep = pxpotrf(&a, b, p, CostModel::counting(), BroadcastKind::Tree).unwrap();
            let want = sequential_factor(&a);
            let diff = norms::max_abs_diff(&rep.factor, &want);
            assert!(diff < 1e-9, "n={n} b={b} p={p}: diff {diff}");
        }
    }

    #[test]
    fn single_processor_has_no_communication() {
        let mut rng = spd::test_rng(111);
        let a = spd::random_spd(16, &mut rng);
        let rep = pxpotrf(&a, 4, 1, CostModel::typical(), BroadcastKind::Tree).unwrap();
        assert_eq!(rep.critical.words, 0);
        assert_eq!(rep.critical.messages, 0);
        assert!(rep.total_flops > 0);
    }

    #[test]
    fn critical_path_messages_track_the_paper_formula() {
        // messages ~ (3/2)(n/b) log2 P; check within a small constant.
        let mut rng = spd::test_rng(112);
        let n = 32;
        let a = spd::random_spd(n, &mut rng);
        for (b, p) in [(4usize, 4usize), (8, 4), (4, 16), (8, 16)] {
            let rep = pxpotrf(&a, b, p, CostModel::typical(), BroadcastKind::Tree).unwrap();
            let bound = paper_message_bound(n, b, p);
            let got = rep.critical.messages as f64;
            assert!(
                got <= 3.0 * bound + 10.0,
                "b={b} p={p}: {got} messages vs bound {bound}"
            );
        }
    }

    #[test]
    fn big_blocks_cut_latency_small_blocks_cut_nothing() {
        // The Table 2 trade: latency falls as b grows toward n/sqrt(P).
        let mut rng = spd::test_rng(113);
        let n = 64;
        let p = 16;
        let a = spd::random_spd(n, &mut rng);
        let small = pxpotrf(&a, 4, p, CostModel::typical(), BroadcastKind::Tree).unwrap();
        // b = n/sqrt(P)
        let big = pxpotrf(&a, n / 4, p, CostModel::typical(), BroadcastKind::Tree).unwrap();
        assert!(
            big.critical.messages * 2 < small.critical.messages,
            "b=n/sqrt(P) gives {} messages, b=4 gives {}",
            big.critical.messages,
            small.critical.messages
        );
    }

    #[test]
    fn flops_balance_at_the_scalable_block_size() {
        // With b = n/sqrt(P): max processor flops = O(n^3 / P).
        let mut rng = spd::test_rng(114);
        let n = 64;
        let p = 16;
        let a = spd::random_spd(n, &mut rng);
        let rep = pxpotrf(&a, n / 4, p, CostModel::counting(), BroadcastKind::Tree).unwrap();
        let n3 = (n as f64).powi(3);
        let per_proc = n3 / p as f64;
        assert!(
            (rep.max_proc_flops as f64) < 3.0 * per_proc,
            "max proc flops {} vs n^3/P = {per_proc}",
            rep.max_proc_flops
        );
    }

    #[test]
    fn ring_broadcast_ablation_costs_sqrt_p_over_log_p_more() {
        // Replace every log P tree with a P-1... actually sqrt(P)-1 ring
        // (broadcasts span grid rows/columns): messages should inflate by
        // ~ (sqrt(P)-1)/log2(P).
        let mut rng = spd::test_rng(115);
        let n = 64;
        let p = 16;
        let a = spd::random_spd(n, &mut rng);
        let tree = pxpotrf(&a, 16, p, CostModel::typical(), BroadcastKind::Tree).unwrap();
        let ring = pxpotrf(&a, 16, p, CostModel::typical(), BroadcastKind::Ring).unwrap();
        assert!(
            ring.critical.messages > tree.critical.messages,
            "ring {} vs tree {}",
            ring.critical.messages,
            tree.critical.messages
        );
        // Results identical either way.
        assert!(cholcomm_matrix::norms::max_abs_diff(&ring.factor, &tree.factor) == 0.0);
    }

    #[test]
    fn memory_stays_near_the_2d_budget() {
        // M = O(n^2 / P): peak residency should be within a small
        // constant of n^2/P at the memory-scalable block size.
        let mut rng = spd::test_rng(116);
        let n = 64;
        let p = 16;
        let a = spd::random_spd(n, &mut rng);
        let rep = pxpotrf(&a, n / 4, p, CostModel::counting(), BroadcastKind::Tree).unwrap();
        let budget = n * n / p;
        assert!(
            rep.peak_resident_words <= 8 * budget,
            "peak {} vs n^2/P = {budget}",
            rep.peak_resident_words
        );
    }

    #[test]
    fn one_dim_matches_sequential() {
        let mut rng = spd::test_rng(180);
        for (n, b, p) in [(24usize, 4usize, 3usize), (32, 8, 4), (20, 4, 7)] {
            let a = spd::random_spd(n, &mut rng);
            let rep = pxpotrf_1d(&a, b, p, CostModel::counting()).unwrap();
            let mut want = a.clone();
            seq_potf2(&mut want).unwrap();
            let diff = norms::max_abs_diff(&rep.factor, &want.lower_triangle().unwrap());
            assert!(diff < 1e-9, "n={n} b={b} p={p}: {diff}");
        }
    }

    #[test]
    fn one_dim_bandwidth_does_not_scale() {
        // Same n, same P: the 1D critical path carries far more words
        // than the 2D block-cyclic algorithm at `b = n/sqrt(P)` — the
        // raison d'etre of Figure 6 — and the gap widens with P.
        let mut rng = spd::test_rng(181);
        let n = 64;
        let a = spd::random_spd(n, &mut rng);
        let words = |p: usize| {
            let d1 = pxpotrf_1d(&a, 4, p, CostModel::typical()).unwrap();
            let d2 = pxpotrf(&a, n / p.isqrt(), p, CostModel::typical(), BroadcastKind::Tree).unwrap();
            (d1.critical.words, d2.critical.words)
        };
        // Pinned at P = 16, the shape E15 quotes.
        assert_eq!(words(16), (7680, 4160));
        // The model puts 1D at `(n^2/2) log P` and 2D (`paper_word_bound`
        // at `b = n/sqrt(P)`) at `(5/4)(n^2/sqrt(P)) log P`: the ratio
        // `(2/5) sqrt(P)` grows with P.
        let ratios = [4, 16, 64].map(|p| {
            let (d1, d2) = words(p);
            d1 as f64 / d2 as f64
        });
        assert!(ratios.windows(2).all(|w| w[1] > w[0]), "1D/2D word ratios over P = 4, 16, 64: {ratios:?}");
    }

    #[test]
    fn one_dim_detects_indefinite() {
        let mut m = Matrix::<f64>::identity(12);
        m[(7, 7)] = -1.0;
        let err = pxpotrf_1d(&m, 4, 3, CostModel::counting()).unwrap_err();
        assert!(matches!(err, MatrixError::NotSpd { pivot: 7, .. }));
    }

    #[test]
    fn indefinite_matrix_reports_global_pivot() {
        let mut m = Matrix::<f64>::identity(16);
        m[(10, 10)] = -1.0;
        let err = pxpotrf(&m, 4, 4, CostModel::counting(), BroadcastKind::Tree).unwrap_err();
        assert!(matches!(err, MatrixError::NotSpd { pivot: 10, .. }));
    }
}
