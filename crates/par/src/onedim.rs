//! The 1D block-column baseline: the distribution the 2D lower bound
//! exists to beat.
//!
//! Block-columns are dealt cyclically to `P` processors; each iteration
//! the owner factors its panel (diagonal block + TRSM below) and
//! broadcasts the whole panel to everyone for the trailing update.  The
//! critical path then carries `~ (n^2 / 2) log P` words — a factor
//! `sqrt(P)` above the 2D algorithm's `(n^2/sqrt(P)) log P` and the
//! `Omega(n^2/sqrt(P))` lower bound, which is exactly why ScaLAPACK uses
//! the 2D block-cyclic layout of Figure 6.

use cholcomm_distsim::{CostModel, CriticalPath, Machine};
use cholcomm_matrix::kernels::{gemm_nt, potf2, trsm_right_lower_transpose};
use cholcomm_matrix::{Matrix, MatrixError};

/// Outcome of the 1D run.
#[derive(Debug, Clone)]
pub struct OneDimReport {
    /// The factor.
    pub factor: Matrix<f64>,
    /// Critical-path costs.
    pub critical: CriticalPath,
    /// Modelled makespan.
    pub makespan: f64,
}

/// 1D block-column-cyclic Cholesky on `p` processors with block size `b`.
pub fn pxpotrf_1d(
    a: &Matrix<f64>,
    b: usize,
    p: usize,
    model: CostModel,
) -> Result<OneDimReport, MatrixError> {
    let n = a.rows();
    if !a.is_square() {
        return Err(MatrixError::NotSquare {
            rows: n,
            cols: a.cols(),
        });
    }
    assert!(b > 0 && p > 0);
    let nb = n.div_ceil(b);
    let owner = |bj: usize| bj % p;
    let mut machine = Machine::new(p, model);

    // Work on a full dense copy; ownership governs who is *charged*.
    let mut w = a.clone();
    let members: Vec<usize> = (0..p).collect();

    for bj in 0..nb {
        let c0 = bj * b;
        let bw = (n - c0).min(b);
        let me = owner(bj);

        // Factor the diagonal block.
        {
            let mut diag = w.submatrix(c0, c0, bw, bw);
            if let Err(MatrixError::NotSpd { pivot, value }) = potf2(&mut diag) {
                return Err(MatrixError::NotSpd {
                    pivot: c0 + pivot,
                    value,
                });
            }
            w.set_submatrix(c0, c0, &diag);
            machine.compute(me, (bw as u64).pow(3) / 3 + (bw as u64).pow(2));
        }
        // TRSM the whole panel below (owner holds the full block column).
        let below = n - (c0 + bw);
        if below > 0 {
            let diag = w.submatrix(c0, c0, bw, bw);
            let mut panel = w.submatrix(c0 + bw, c0, below, bw);
            trsm_right_lower_transpose(&mut panel, &diag);
            w.set_submatrix(c0 + bw, c0, &panel);
            machine.compute(me, (below as u64) * (bw as u64).pow(2));
        }

        // Broadcast the factored panel (diag + below) to everyone.
        if p > 1 {
            let words = (n - c0) * bw;
            machine.broadcast(me, &members, words);
        }

        // Trailing update: block-column bl is updated by its owner.
        for bl in (bj + 1)..nb {
            let l0 = bl * b;
            let lw = (n - l0).min(b);
            let q = owner(bl);
            // A(l0.., l0..l0+lw) -= L(l0.., c0..) * L(l0..l0+lw, c0..)^T
            let lk = w.submatrix(l0, c0, n - l0, bw);
            let lj = w.submatrix(l0, c0, lw, bw);
            let mut blk = w.submatrix(l0, l0, n - l0, lw);
            gemm_nt(&mut blk, -1.0, &lk, &lj);
            w.set_submatrix(l0, l0, &blk);
            machine.compute(q, 2 * (n - l0) as u64 * lw as u64 * bw as u64);
        }
    }

    let factor = w.lower_triangle()?;
    Ok(OneDimReport {
        factor,
        critical: machine.critical_path(),
        makespan: machine.makespan(),
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::pxpotrf::{pxpotrf, BroadcastKind};
    use cholcomm_matrix::{kernels, norms, spd};

    #[test]
    fn matches_sequential() {
        let mut rng = spd::test_rng(180);
        for (n, b, p) in [(24usize, 4usize, 3usize), (32, 8, 4), (20, 4, 7)] {
            let a = spd::random_spd(n, &mut rng);
            let rep = pxpotrf_1d(&a, b, p, CostModel::counting()).unwrap();
            let mut want = a.clone();
            kernels::potf2(&mut want).unwrap();
            let diff = norms::max_abs_diff(&rep.factor, &want.lower_triangle().unwrap());
            assert!(diff < 1e-9, "n={n} b={b} p={p}: {diff}");
        }
    }

    #[test]
    fn one_dim_bandwidth_does_not_scale() {
        // Same P, same n: the 1D critical path carries far more words
        // than the 2D block-cyclic algorithm — the raison d'etre of
        // Figure 6.
        let mut rng = spd::test_rng(181);
        let n = 64;
        let p = 16;
        let a = spd::random_spd(n, &mut rng);
        let d1 = pxpotrf_1d(&a, 4, p, CostModel::typical()).unwrap();
        let d2 = pxpotrf(&a, n / 4, p, CostModel::typical(), BroadcastKind::Tree).unwrap();
        assert!(
            d1.critical.words > 2 * d2.critical.words,
            "1D {} words vs 2D {}",
            d1.critical.words,
            d2.critical.words
        );
    }

    #[test]
    fn detects_indefinite() {
        let mut m = Matrix::<f64>::identity(12);
        m[(7, 7)] = -1.0;
        let err = pxpotrf_1d(&m, 4, 3, CostModel::counting()).unwrap_err();
        assert!(matches!(err, MatrixError::NotSpd { pivot: 7, .. }));
    }
}
