//! Real shared-memory parallel Cholesky on rayon, the Ahmed–Pingali
//! shape: [`par_recursive_potrf`] is a fork-join recursion where the
//! recursive TRSM splits its rows and the recursive SYRK/GEMM splits its
//! output block, each half running on its own rayon task.  Disjointness
//! of the output regions is guaranteed by the recursion structure (the
//! same argument that makes the sequential algorithm correct), which is
//! what licenses the small unsafe shared pointer underneath.
//!
//! The ScaLAPACK/LAPACK shape — the tiled right-looking schedule — runs
//! as a task DAG in [`crate::dag`].

use cholcomm_matrix::{KernelImpl, Matrix, MatrixError};
use rayon::join;

/// A raw shared view of a square column-major matrix, for the fork-join
/// recursion.
///
/// # Safety contract
/// Tasks created through [`join`] write only to pairwise-disjoint index
/// regions (the recursion splits its *output* block and hands each half
/// to one task), and never write a region another live task reads.  This
/// is the same disjointness argument that proves the sequential recursion
/// correct; the wrapper merely lets both halves proceed concurrently.
#[derive(Clone, Copy)]
struct SharedMat {
    ptr: *mut f64,
    n: usize,
}

unsafe impl Send for SharedMat {}
unsafe impl Sync for SharedMat {}

impl SharedMat {
    #[inline]
    fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.n && j < self.n);
        unsafe { *self.ptr.add(i + j * self.n) }
    }
    #[inline]
    fn set(&self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.n && j < self.n);
        unsafe { *self.ptr.add(i + j * self.n) = v }
    }
}

/// Fork-join recursive Cholesky (the parallel rendition of Algorithm 6).
/// `cutoff` is the sequential base-case size.
pub fn par_recursive_potrf(a: &mut Matrix<f64>, cutoff: usize) -> Result<(), MatrixError> {
    par_recursive_potrf_with(a, cutoff, KernelImpl::Reference)
}

/// [`par_recursive_potrf`] with an explicit kernel engine: sequential
/// base cases gather their region into a dense tile and run the engine's
/// kernel (bit-identically), while the fork-join structure above them is
/// untouched.
pub fn par_recursive_potrf_with(
    a: &mut Matrix<f64>,
    cutoff: usize,
    kernel: KernelImpl,
) -> Result<(), MatrixError> {
    let n = a.rows();
    if !a.is_square() {
        return Err(MatrixError::NotSquare {
            rows: n,
            cols: a.cols(),
        });
    }
    assert!(cutoff >= 1);
    let m = SharedMat {
        ptr: a.as_mut_slice().as_mut_ptr(),
        n,
    };
    rchol(m, 0, n, cutoff, kernel)?;
    for j in 0..n {
        for i in 0..j {
            a[(i, j)] = 0.0;
        }
    }
    Ok(())
}

fn rchol(
    m: SharedMat,
    o: usize,
    n: usize,
    cutoff: usize,
    kernel: KernelImpl,
) -> Result<(), MatrixError> {
    if n == 0 {
        return Ok(());
    }
    if n <= cutoff {
        return leaf_chol(m, o, n, kernel);
    }
    let n1 = n / 2;
    let n2 = n - n1;
    rchol(m, o, n1, cutoff, kernel)?;
    par_rtrsm(m, (o + n1, o), n2, n1, (o, o), cutoff, kernel);
    par_gemm_nt(
        m,
        (o + n1, o + n1),
        (o + n1, o),
        (o + n1, o),
        n2,
        n2,
        n1,
        true,
        cutoff,
        kernel,
    );
    rchol(m, o + n1, n2, cutoff, kernel)
}

fn leaf_chol(m: SharedMat, o: usize, n: usize, kernel: KernelImpl) -> Result<(), MatrixError> {
    if kernel.accelerates::<f64>() {
        let mut t = Matrix::from_fn(n, n, |i, j| {
            if i >= j {
                m.get(o + i, o + j)
            } else {
                0.0
            }
        });
        match kernel.potf2(&mut t) {
            Ok(()) => {}
            Err(MatrixError::NotSpd { pivot, value }) => {
                return Err(MatrixError::NotSpd {
                    pivot: o + pivot,
                    value,
                })
            }
            Err(e) => return Err(e),
        }
        for j in 0..n {
            for i in j..n {
                m.set(o + i, o + j, t[(i, j)]);
            }
        }
        return Ok(());
    }
    for j in 0..n {
        let mut d = m.get(o + j, o + j);
        for k in 0..j {
            let v = m.get(o + j, o + k);
            d -= v * v;
        }
        if d <= 0.0 {
            return Err(MatrixError::NotSpd {
                pivot: o + j,
                value: d,
            });
        }
        let ljj = d.sqrt();
        m.set(o + j, o + j, ljj);
        for i in (j + 1)..n {
            let mut v = m.get(o + i, o + j);
            for k in 0..j {
                v -= m.get(o + i, o + k) * m.get(o + j, o + k);
            }
            m.set(o + i, o + j, v / ljj);
        }
    }
    Ok(())
}

/// Parallel recursive solve `X * L^T = X` (rows of `X` split across
/// tasks; both halves write disjoint rows).
#[allow(clippy::too_many_arguments)]
fn par_rtrsm(
    m: SharedMat,
    x0: (usize, usize),
    rows: usize,
    nc: usize,
    l0: (usize, usize),
    cutoff: usize,
    kernel: KernelImpl,
) {
    if rows == 0 || nc == 0 {
        return;
    }
    if rows <= cutoff && nc <= cutoff {
        if kernel.accelerates::<f64>() {
            let mut x = Matrix::from_fn(rows, nc, |i, j| m.get(x0.0 + i, x0.1 + j));
            let l = Matrix::from_fn(nc, nc, |i, j| {
                if i >= j {
                    m.get(l0.0 + i, l0.1 + j)
                } else {
                    0.0
                }
            });
            kernel.trsm_right_lower_transpose(&mut x, &l);
            for j in 0..nc {
                for i in 0..rows {
                    m.set(x0.0 + i, x0.1 + j, x[(i, j)]);
                }
            }
            return;
        }
        for j in 0..nc {
            for k in 0..j {
                let ljk = m.get(l0.0 + j, l0.1 + k);
                for i in 0..rows {
                    let v = m.get(x0.0 + i, x0.1 + j) - m.get(x0.0 + i, x0.1 + k) * ljk;
                    m.set(x0.0 + i, x0.1 + j, v);
                }
            }
            let ljj = m.get(l0.0 + j, l0.1 + j);
            for i in 0..rows {
                let v = m.get(x0.0 + i, x0.1 + j) / ljj;
                m.set(x0.0 + i, x0.1 + j, v);
            }
        }
        return;
    }
    if rows > nc || nc <= cutoff {
        let r1 = rows / 2;
        // The two row-halves write disjoint regions and share read-only L.
        join(
            || par_rtrsm(m, x0, r1, nc, l0, cutoff, kernel),
            || par_rtrsm(m, (x0.0 + r1, x0.1), rows - r1, nc, l0, cutoff, kernel),
        );
    } else {
        let n1 = nc / 2;
        let n2 = nc - n1;
        par_rtrsm(m, x0, rows, n1, l0, cutoff, kernel);
        par_gemm_nt(
            m,
            (x0.0, x0.1 + n1),
            x0,
            (l0.0 + n1, l0.1),
            rows,
            n2,
            n1,
            false,
            cutoff,
            kernel,
        );
        par_rtrsm(m, (x0.0, x0.1 + n1), rows, n2, (l0.0 + n1, l0.1 + n1), cutoff, kernel);
    }
}

/// Parallel recursive `C -= A * B^T` over regions of the shared matrix;
/// splits of the output block fork, splits of the inner dimension stay
/// sequential (both halves write the same `C`).
#[allow(clippy::too_many_arguments)]
fn par_gemm_nt(
    m: SharedMat,
    c0: (usize, usize),
    a0: (usize, usize),
    b0: (usize, usize),
    rows: usize,
    cols: usize,
    inner: usize,
    lower_only: bool,
    cutoff: usize,
    kernel: KernelImpl,
) {
    if rows == 0 || cols == 0 || inner == 0 {
        return;
    }
    if lower_only && c0.0 + rows <= c0.1 {
        return;
    }
    if rows.max(cols).max(inner) <= cutoff {
        // Leaves with no diagonal straddle run through the engine.
        let maskless = !lower_only || c0.0 + 1 >= c0.1 + cols;
        if maskless && kernel.accelerates::<f64>() {
            let mut cm = Matrix::from_fn(rows, cols, |i, j| m.get(c0.0 + i, c0.1 + j));
            let am = Matrix::from_fn(rows, inner, |i, j| m.get(a0.0 + i, a0.1 + j));
            let bm = Matrix::from_fn(cols, inner, |i, j| m.get(b0.0 + i, b0.1 + j));
            kernel.gemm_nt(&mut cm, -1.0, &am, &bm);
            for j in 0..cols {
                for i in 0..rows {
                    m.set(c0.0 + i, c0.1 + j, cm[(i, j)]);
                }
            }
            return;
        }
        for j in 0..cols {
            for k in 0..inner {
                let bjk = m.get(b0.0 + j, b0.1 + k);
                for i in 0..rows {
                    if lower_only && c0.0 + i < c0.1 + j {
                        continue;
                    }
                    let v = m.get(c0.0 + i, c0.1 + j) - m.get(a0.0 + i, a0.1 + k) * bjk;
                    m.set(c0.0 + i, c0.1 + j, v);
                }
            }
        }
        return;
    }
    if rows >= cols && rows >= inner {
        let r1 = rows / 2;
        join(
            || par_gemm_nt(m, c0, a0, b0, r1, cols, inner, lower_only, cutoff, kernel),
            || {
                par_gemm_nt(
                    m,
                    (c0.0 + r1, c0.1),
                    (a0.0 + r1, a0.1),
                    b0,
                    rows - r1,
                    cols,
                    inner,
                    lower_only,
                    cutoff,
                    kernel,
                )
            },
        );
    } else if inner >= cols {
        let k1 = inner / 2;
        par_gemm_nt(m, c0, a0, b0, rows, cols, k1, lower_only, cutoff, kernel);
        par_gemm_nt(
            m,
            c0,
            (a0.0, a0.1 + k1),
            (b0.0, b0.1 + k1),
            rows,
            cols,
            inner - k1,
            lower_only,
            cutoff,
            kernel,
        );
    } else {
        let c1 = cols / 2;
        join(
            || par_gemm_nt(m, c0, a0, b0, rows, c1, inner, lower_only, cutoff, kernel),
            || {
                par_gemm_nt(
                    m,
                    (c0.0, c0.1 + c1),
                    a0,
                    (b0.0 + c1, b0.1),
                    rows,
                    cols - c1,
                    inner,
                    lower_only,
                    cutoff,
                    kernel,
                )
            },
        );
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use cholcomm_matrix::{norms, spd};

    #[test]
    fn recursive_matches_sequential() {
        let mut rng = spd::test_rng(121);
        for (n, cutoff) in [(16usize, 4usize), (33, 8), (64, 16), (10, 1)] {
            let a = spd::random_spd(n, &mut rng);
            let mut f = a.clone();
            par_recursive_potrf(&mut f, cutoff).unwrap();
            let r = norms::cholesky_residual(&a, &f);
            assert!(r < norms::residual_tolerance(n), "n={n} cutoff={cutoff}: {r}");
        }
    }

    #[test]
    fn recursive_agrees_with_the_tiled_dag() {
        let mut rng = spd::test_rng(122);
        let n = 48;
        let a = spd::random_spd(n, &mut rng);
        let mut f1 = a.clone();
        crate::dag::potrf_dag_with(&mut f1, 8, KernelImpl::Reference).unwrap();
        let mut f2 = a.clone();
        par_recursive_potrf(&mut f2, 8).unwrap();
        assert!(norms::max_abs_diff(&f1, &f2) < 1e-8);
    }

    #[test]
    fn recursive_detects_indefinite() {
        let mut m = Matrix::<f64>::identity(8);
        m[(6, 6)] = -2.0;
        let err = par_recursive_potrf(&mut m, 2).unwrap_err();
        assert!(matches!(err, MatrixError::NotSpd { pivot: 6, .. }));
    }

    #[test]
    fn deterministic_across_runs() {
        // Fork-join changes scheduling, not the arithmetic DAG: results
        // must be bit-identical run to run.
        let mut rng = spd::test_rng(123);
        let a = spd::random_spd(32, &mut rng);
        let mut f1 = a.clone();
        par_recursive_potrf(&mut f1, 4).unwrap();
        let mut f2 = a.clone();
        par_recursive_potrf(&mut f2, 4).unwrap();
        assert_eq!(f1, f2);
    }
}
