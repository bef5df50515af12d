//! Algorithm 5: the rectangular recursive (right-looking) Cholesky
//! modelled on Toledo's LU — recursion over *column panels*, always down
//! to single columns.
//!
//! Bandwidth is `Theta(n^3 / sqrt(M) + n^2 log n)` (Claim 3.1) — optimal
//! except in the narrow band `n^2 / log^2 n < M < n^2`.  Latency is *not*
//! optimal (Conclusion 3/4): the single-column base cases cost `Omega(n)`
//! messages each on the recursive layout (`Omega(n^2)` total), and the
//! half-matrix multiply costs `Omega(n^3 / M)` messages on column-major
//! storage.

use crate::ap00::gemm_nt_rec;
use crate::naive::check_pivot;
use cholcomm_cachesim::{touch, Access, Tracer};
use cholcomm_layout::{cells_col_segment, Laid, Layout};
use cholcomm_matrix::{MatrixError, Scalar};

/// Algorithm 5 on the full `n x n` matrix (the `m x n` panel recursion
/// starts with `m = n`).  `gemm_leaf` sets the base-case size of the inner
/// recursive multiplications; the *panel* recursion always reaches single
/// columns, as in the paper.
pub fn rectangular_rchol<S: Scalar, L: Layout, T: Tracer>(
    a: &mut Laid<S, L>,
    tracer: &mut T,
    gemm_leaf: usize,
) -> Result<(), MatrixError> {
    let n = a.layout().rows();
    if a.layout().cols() != n {
        return Err(MatrixError::NotSquare {
            rows: n,
            cols: a.layout().cols(),
        });
    }
    panel_rec(a, tracer, 0, n, n, gemm_leaf)
}

/// Factor the trapezoidal panel: columns `c0 .. c0 + w`, rows `c0 .. n`.
fn panel_rec<S: Scalar, L: Layout, T: Tracer>(
    a: &mut Laid<S, L>,
    tracer: &mut T,
    c0: usize,
    w: usize,
    n: usize,
    gemm_leaf: usize,
) -> Result<(), MatrixError> {
    if w == 0 {
        return Ok(());
    }
    if w == 1 {
        // Base case: L = A / sqrt(A(1,1)) on one column.
        touch(tracer, a.layout(), cells_col_segment(c0, c0, n), Access::Read);
        let d = a.get(c0, c0);
        check_pivot(d, c0)?;
        let ljj = d.sqrt();
        a.set(c0, c0, ljj);
        for i in (c0 + 1)..n {
            let v = a.get(i, c0);
            a.set(i, c0, v / ljj);
        }
        touch(tracer, a.layout(), cells_col_segment(c0, c0, n), Access::Write);
        return Ok(());
    }
    let w1 = w / 2;
    // [L11; L21; L31] = RectangularRChol(left half of the panel)
    panel_rec(a, tracer, c0, w1, n, gemm_leaf)?;
    // [A22; A32] -= [L21; L31] * L21^T  (recursive multiplication)
    let mid = c0 + w1;
    gemm_nt_rec(
        a,
        tracer,
        (mid, mid),
        (mid, c0),
        (mid, c0),
        n - mid,
        w - w1,
        w1,
        true,
        gemm_leaf,
    );
    // [L22; L32] = RectangularRChol(right half)
    panel_rec(a, tracer, mid, w - w1, n, gemm_leaf)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use cholcomm_cachesim::{LruTracer, NullTracer};
    use cholcomm_layout::{ColMajor, Morton};
    use cholcomm_matrix::kernels::potf2;
    use cholcomm_matrix::{norms, spd};

    #[test]
    fn factors_correctly() {
        for n in [1usize, 2, 7, 16, 23] {
            let mut rng = spd::test_rng(80 + n as u64);
            let a = spd::random_spd(n, &mut rng);
            let mut laid = Laid::from_matrix(&a, ColMajor::square(n));
            rectangular_rchol(&mut laid, &mut NullTracer, 4).unwrap();
            let r = norms::cholesky_residual(&a, &laid.to_matrix());
            assert!(r < norms::residual_tolerance(n.max(2)), "n = {n}: {r}");
        }
    }

    #[test]
    fn agrees_with_reference_factor() {
        let n = 19;
        let mut rng = spd::test_rng(81);
        let a = spd::random_spd(n, &mut rng);
        let mut reference = a.clone();
        potf2(&mut reference).unwrap();
        let mut laid = Laid::from_matrix(&a, Morton::square(n));
        rectangular_rchol(&mut laid, &mut NullTracer, 4).unwrap();
        let got = laid.to_matrix();
        for j in 0..n {
            for i in j..n {
                assert!((got[(i, j)] - reference[(i, j)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn latency_on_recursive_layout_is_quadratic() {
        // Conclusion 4: the single-column base cases make Toledo's latency
        // Omega(n^2) on the recursive layout — the columns are scattered,
        // so each base case costs ~n/2 messages even with a huge cache.
        let n = 32;
        let m = 4096; // far larger than needed: latency is structural
        let mut rng = spd::test_rng(82);
        let a = spd::random_spd(n, &mut rng);
        let mut laid = Laid::from_matrix(&a, Morton::square(n));
        let mut tr = LruTracer::new(m);
        rectangular_rchol(&mut laid, &mut tr, 4).unwrap();
        tr.flush();
        let msgs = tr.stats().messages as f64;
        assert!(
            msgs >= (n * n) as f64 / 8.0,
            "expected Omega(n^2) messages, got {msgs}"
        );
    }

    #[test]
    fn ap00_beats_toledo_on_latency_morton() {
        let n = 32;
        let m = 256;
        let mut rng = spd::test_rng(83);
        let a = spd::random_spd(n, &mut rng);

        let mut t1 = LruTracer::new(m);
        let mut laid1 = Laid::from_matrix(&a, Morton::square(n));
        rectangular_rchol(&mut laid1, &mut t1, 4).unwrap();
        t1.flush();

        let mut t2 = LruTracer::new(m);
        let mut laid2 = Laid::from_matrix(&a, Morton::square(n));
        crate::ap00::square_rchol(&mut laid2, &mut t2, 4).unwrap();
        t2.flush();

        assert!(
            t2.stats().messages * 2 < t1.stats().messages,
            "AP00 {} should decisively beat Toledo {}",
            t2.stats(),
            t1.stats()
        );
    }

    #[test]
    fn bandwidth_tracks_ap00_within_log_factor() {
        // Claim 3.1: Toledo's bandwidth is optimal up to the n^2 log n
        // term, so it should be within a small factor of AP00's.
        let n = 48;
        let m = 96;
        let mut rng = spd::test_rng(84);
        let a = spd::random_spd(n, &mut rng);

        let mut t1 = LruTracer::new(m);
        let mut laid1 = Laid::from_matrix(&a, ColMajor::square(n));
        rectangular_rchol(&mut laid1, &mut t1, 4).unwrap();
        t1.flush();

        let mut t2 = LruTracer::new(m);
        let mut laid2 = Laid::from_matrix(&a, ColMajor::square(n));
        crate::ap00::square_rchol(&mut laid2, &mut t2, 4).unwrap();
        t2.flush();

        let ratio = t1.stats().words as f64 / t2.stats().words as f64;
        assert!(
            ratio < (n as f64).log2(),
            "Toledo/AP00 bandwidth ratio {ratio:.2} should be < log n"
        );
    }
}
