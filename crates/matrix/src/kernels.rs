//! Reference BLAS-3-like kernels, written directly from the paper.
//!
//! These are the building blocks the blocked and recursive Cholesky
//! algorithms call (Algorithm 4 lines 3–6, Algorithm 6 lines 5–6), and the
//! oracle every optimized/instrumented variant is tested against.  They are
//! deliberately straightforward triple loops: the paper's claims concern
//! *communication schedules*, which live in `cholcomm-seq`; arithmetic
//! fidelity is what matters here.

use crate::dense::Matrix;
use crate::error::MatrixError;
use crate::scalar::Scalar;

/// `C <- C + alpha * A * B` (general matrix multiply, no transpose).
///
/// The inner loop runs over column slices (`Matrix::col`), not the
/// bounds-checked `Index` path, but performs the identical sequence of
/// floating-point operations per element: `j` outer, `k` middle, `i`
/// inner, each update `c + a * (alpha * b)`.
pub fn gemm_nn<S: Scalar>(c: &mut Matrix<S>, alpha: S, a: &Matrix<S>, b: &Matrix<S>) {
    assert_eq!(a.cols(), b.rows(), "gemm_nn: inner dimensions");
    assert_eq!(c.rows(), a.rows(), "gemm_nn: C rows");
    assert_eq!(c.cols(), b.cols(), "gemm_nn: C cols");
    for j in 0..c.cols() {
        let cj = c.col_mut(j);
        for k in 0..a.cols() {
            let bkj = alpha * b[(k, j)];
            for (ci, &aik) in cj.iter_mut().zip(a.col(k)) {
                *ci = *ci + aik * bkj;
            }
        }
    }
}

/// `C <- C + alpha * A * B^T`, the update shape of the LAPACK panel step
/// (Algorithm 4 line 5: `A32 <- A32 - A31 * A21^T`).
pub fn gemm_nt<S: Scalar>(c: &mut Matrix<S>, alpha: S, a: &Matrix<S>, b: &Matrix<S>) {
    assert_eq!(a.cols(), b.cols(), "gemm_nt: inner dimensions");
    assert_eq!(c.rows(), a.rows(), "gemm_nt: C rows");
    assert_eq!(c.cols(), b.rows(), "gemm_nt: C cols");
    for j in 0..c.cols() {
        let cj = c.col_mut(j);
        for k in 0..a.cols() {
            let bjk = alpha * b[(j, k)];
            for (ci, &aik) in cj.iter_mut().zip(a.col(k)) {
                *ci = *ci + aik * bjk;
            }
        }
    }
}

/// Symmetric rank-k update on the lower triangle:
/// `C <- C - A * A^T` restricted to `i >= j` (Algorithm 4 line 3, SYRK).
pub fn syrk_lower<S: Scalar>(c: &mut Matrix<S>, a: &Matrix<S>) {
    assert!(c.is_square(), "syrk_lower: C square");
    assert_eq!(c.rows(), a.rows(), "syrk_lower: dimensions");
    for j in 0..c.cols() {
        let cj = &mut c.col_mut(j)[j..];
        for k in 0..a.cols() {
            let ak = &a.col(k)[j..];
            let ajk = ak[0];
            for (ci, &aik) in cj.iter_mut().zip(ak) {
                *ci = *ci - aik * ajk;
            }
        }
    }
}

/// Triangular solve `X <- B * L^{-T}` with `L` lower triangular, i.e. solve
/// `X * L^T = B` for `X` (Algorithm 4 line 6, TRSM with the Cholesky
/// diagonal block).  Overwrites `b` with the solution.
pub fn trsm_right_lower_transpose<S: Scalar>(b: &mut Matrix<S>, l: &Matrix<S>) {
    assert!(l.is_square(), "trsm: L square");
    assert_eq!(b.cols(), l.rows(), "trsm: dimensions");
    let n = l.rows();
    let rows = b.rows();
    for j in 0..n {
        // X[:, j] = (B[:, j] - sum_{k<j} X[:, k] * L[j, k]) / L[j, j]
        let (done, rest) = b.split_cols_mut(j);
        let bj = &mut rest[..rows];
        for (k, bk) in done.chunks_exact(rows.max(1)).take(j).enumerate() {
            let ljk = l[(j, k)];
            for (x, &xik) in bj.iter_mut().zip(bk) {
                *x = *x - xik * ljk;
            }
        }
        let ljj = l[(j, j)];
        for x in bj.iter_mut() {
            *x = *x / ljj;
        }
    }
}

/// Triangular solve `X <- L^{-1} * B` with `L` lower triangular (forward
/// substitution with multiple right-hand sides).  Overwrites `b`.
pub fn trsm_left_lower<S: Scalar>(b: &mut Matrix<S>, l: &Matrix<S>) {
    assert!(l.is_square(), "trsm: L square");
    assert_eq!(b.rows(), l.rows(), "trsm: dimensions");
    let n = l.rows();
    for j in 0..b.cols() {
        let bj = b.col_mut(j);
        for i in 0..n {
            let mut v = bj[i];
            for (k, &bkj) in bj[..i].iter().enumerate() {
                v = v - l[(i, k)] * bkj;
            }
            bj[i] = v / l[(i, i)];
        }
    }
}

/// Unblocked Cholesky of the lower triangle (LAPACK's `POTF2`), computing
/// Equations (5) and (6) of the paper.  On success the lower triangle of
/// `a` holds `L`; the strict upper triangle is left untouched.
///
/// The loops run left-looking over column slices: for each column `j`,
/// the contributions of the finished columns `k < j` are subtracted in
/// ascending `k`, then the pivot is checked and the column scaled.  Per
/// element this is the identical sequence of floating-point operations
/// as the verbatim dot-product form of Equations (5)–(6) — the sums of
/// both equations accumulate in ascending `k` either way — so the factor
/// is bit-identical; only redundant bounds checks are gone.
pub fn potf2<S: Scalar>(a: &mut Matrix<S>) -> Result<(), MatrixError> {
    if !a.is_square() {
        return Err(MatrixError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    for j in 0..n {
        let (done, rest) = a.split_cols_mut(j);
        // Column j, from the diagonal down: aj[0] is A(j,j).
        let aj = &mut rest[j..n];
        for k in 0..j {
            let ak = &done[k * n + j..(k + 1) * n];
            let ajk = ak[0];
            // Equations (5)/(6) partial sums: A(i,j) -= L(i,k) * L(j,k),
            // in ascending k, diagonal included.
            for (v, &aik) in aj.iter_mut().zip(ak) {
                *v = *v - aik * ajk;
            }
        }
        // Equation (5): L(j,j) = sqrt(A(j,j) - sum_{k<j} L(j,k)^2).
        let d = aj[0];
        // For real scalars, reject non-positive pivots.  For starred
        // scalars `is_finite_real` is false and the value passes through
        // (Table 3: sqrt(1*) = 1*).
        if d.is_finite_real() && real_is_nonpositive(d) {
            // `d <= 0`, so its real embedding is `-|d|` — exact for the
            // real scalar types this branch is reachable for.
            return Err(MatrixError::NotSpd {
                pivot: j,
                value: -d.magnitude(),
            });
        }
        let ljj = d.sqrt();
        aj[0] = ljj;
        // Equation (6): L(i,j) = (A(i,j) - sum_{k<j} L(i,k) L(j,k)) / L(j,j)
        for v in aj[1..].iter_mut() {
            *v = *v / ljj;
        }
    }
    Ok(())
}

/// `true` when a real scalar is `<= 0` (detected via the sign of its
/// embedding: `x <= 0` iff `|x - |x|| > 0` or `x == 0`).
fn real_is_nonpositive<S: Scalar>(x: S) -> bool {
    let m = x.magnitude();
    if m == 0.0 {
        return true;
    }
    // x - |x| is zero exactly when x > 0.
    (x - S::from_f64(m)).magnitude() > 0.0
}

/// Reference matrix product `A * B` into a fresh matrix.
pub fn matmul<S: Scalar>(a: &Matrix<S>, b: &Matrix<S>) -> Matrix<S> {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm_nn(&mut c, S::one(), a, b);
    c
}

/// Reference `L * L^T` for checking factorizations.
pub fn llt<S: Scalar>(l: &Matrix<S>) -> Matrix<S> {
    assert!(l.is_square());
    let n = l.rows();
    Matrix::from_fn(n, n, |i, j| {
        let mut s = S::zero();
        for k in 0..=i.min(j) {
            s = s + l[(i, k)] * l[(j, k)];
        }
        s
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::norms::max_abs_diff;
    use crate::spd;

    #[test]
    fn gemm_nn_small() {
        let a = Matrix::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_rows(2, 2, &[5.0, 6.0, 7.0, 8.0]);
        let c = matmul(&a, &b);
        assert_eq!(c, Matrix::from_rows(2, 2, &[19.0, 22.0, 43.0, 50.0]));
    }

    #[test]
    fn gemm_nt_matches_explicit_transpose() {
        let a = Matrix::<f64>::from_fn(3, 2, |i, j| (i + j) as f64);
        let b = Matrix::<f64>::from_fn(4, 2, |i, j| (2 * i + 3 * j) as f64);
        let mut c1 = Matrix::zeros(3, 4);
        gemm_nt(&mut c1, 1.0, &a, &b);
        let c2 = matmul(&a, &b.transpose());
        assert!(max_abs_diff(&c1, &c2) == 0.0);
    }

    #[test]
    fn syrk_matches_gemm_on_lower() {
        let a = Matrix::<f64>::from_fn(4, 3, |i, j| (i * 3 + j) as f64 * 0.5);
        let mut c1 = Matrix::<f64>::zeros(4, 4);
        syrk_lower(&mut c1, &a);
        let mut c2 = Matrix::<f64>::zeros(4, 4);
        gemm_nt(&mut c2, -1.0, &a, &a);
        for j in 0..4 {
            for i in j..4 {
                assert_eq!(c1[(i, j)], c2[(i, j)]);
            }
            for i in 0..j {
                assert_eq!(c1[(i, j)], 0.0, "upper triangle untouched");
            }
        }
    }

    #[test]
    fn trsm_right_solves() {
        let l = Matrix::from_rows(2, 2, &[2.0, 0.0, 1.0, 3.0]);
        let x_true = Matrix::from_rows(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        // B = X * L^T
        let mut b = matmul(&x_true, &l.transpose());
        trsm_right_lower_transpose(&mut b, &l);
        assert!(max_abs_diff(&b, &x_true) < 1e-12);
    }

    #[test]
    fn trsm_left_solves() {
        let l = Matrix::from_rows(3, 3, &[2.0, 0.0, 0.0, 1.0, 3.0, 0.0, -1.0, 2.0, 4.0]);
        let x_true = Matrix::<f64>::from_fn(3, 2, |i, j| (i + 2 * j + 1) as f64);
        let mut b = matmul(&l, &x_true);
        trsm_left_lower(&mut b, &l);
        assert!(max_abs_diff(&b, &x_true) < 1e-12);
    }

    #[test]
    fn potf2_factors_spd() {
        let mut rng = spd::test_rng(7);
        let a = spd::random_spd(16, &mut rng);
        let mut f = a.clone();
        potf2(&mut f).unwrap();
        let l = f.lower_triangle().unwrap();
        let rebuilt = llt(&l);
        assert!(max_abs_diff(&rebuilt, &a) < 1e-9);
    }

    #[test]
    fn potf2_known_factor() {
        // A = [[4, 2],[2, 5]] => L = [[2, 0],[1, 2]]
        let mut a = Matrix::from_rows(2, 2, &[4.0, 2.0, 2.0, 5.0]);
        potf2(&mut a).unwrap();
        assert_eq!(a[(0, 0)], 2.0);
        assert_eq!(a[(1, 0)], 1.0);
        assert_eq!(a[(1, 1)], 2.0);
    }

    #[test]
    fn potf2_rejects_indefinite() {
        let mut a = Matrix::from_rows(2, 2, &[1.0, 2.0, 2.0, 1.0]);
        // Pivot 1 is 1 - 2^2 = -3, reported with its value for
        // diagonal-shift retries.
        assert_eq!(
            potf2(&mut a).unwrap_err(),
            MatrixError::NotSpd {
                pivot: 1,
                value: -3.0
            }
        );
    }

    #[test]
    fn potf2_rejects_nonsquare() {
        let mut a = Matrix::<f64>::zeros(2, 3);
        assert!(matches!(potf2(&mut a), Err(MatrixError::NotSquare { .. })));
    }
}

/// Unblocked LU decomposition without pivoting (Doolittle): on success
/// the strict lower triangle of `a` holds the unit-lower `L` and the
/// upper triangle holds `U`.  Errors on a (numerically) zero pivot.
///
/// Used by the Equation (1) reduction of the paper: matrix
/// multiplication embeds into the LU of a `3n x 3n` block matrix whose
/// pivots are all exactly 1, so no pivoting is ever needed there.
pub fn getrf_nopiv<S: Scalar>(a: &mut Matrix<S>) -> Result<(), MatrixError> {
    if !a.is_square() {
        return Err(MatrixError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    for k in 0..n {
        let pivot = a[(k, k)];
        if pivot.is_finite_real() && pivot.magnitude() == 0.0 {
            return Err(MatrixError::NotSpd {
                pivot: k,
                value: 0.0,
            });
        }
        for i in (k + 1)..n {
            let lik = a[(i, k)] / pivot;
            a[(i, k)] = lik;
            for j in (k + 1)..n {
                let akj = a[(k, j)];
                a[(i, j)] = a[(i, j)].mul_sub(lik, akj);
            }
        }
    }
    Ok(())
}

/// Split an in-place LU factor into `(L, U)` with unit diagonal on `L`.
pub fn split_lu<S: Scalar>(a: &Matrix<S>) -> (Matrix<S>, Matrix<S>) {
    let n = a.rows();
    let l = Matrix::from_fn(n, n, |i, j| {
        if i == j {
            S::one()
        } else if i > j {
            a[(i, j)]
        } else {
            S::zero()
        }
    });
    let u = Matrix::from_fn(n, n, |i, j| if i <= j { a[(i, j)] } else { S::zero() });
    (l, u)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod lu_tests {
    use super::*;
    use crate::norms::max_abs_diff;
    use crate::spd;

    #[test]
    fn lu_factors_a_diagonally_dominant_matrix() {
        let mut rng = spd::test_rng(8);
        // SPD matrices are LU-factorable without pivoting.
        let a = spd::random_spd(12, &mut rng);
        let mut f = a.clone();
        getrf_nopiv(&mut f).unwrap();
        let (l, u) = split_lu(&f);
        let rebuilt = matmul(&l, &u);
        assert!(max_abs_diff(&rebuilt, &a) < 1e-9);
    }

    #[test]
    fn lu_known_small_case() {
        // A = [[2, 3], [4, 7]] => L = [[1,0],[2,1]], U = [[2,3],[0,1]].
        let mut a = Matrix::from_rows(2, 2, &[2.0, 3.0, 4.0, 7.0]);
        getrf_nopiv(&mut a).unwrap();
        assert_eq!(a[(1, 0)], 2.0);
        assert_eq!(a[(0, 1)], 3.0);
        assert_eq!(a[(1, 1)], 1.0);
    }

    #[test]
    fn lu_rejects_zero_pivot() {
        let mut a = Matrix::from_rows(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        assert!(getrf_nopiv(&mut a).is_err());
    }
}
