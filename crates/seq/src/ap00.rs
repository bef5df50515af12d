//! Algorithm 6: the square recursive ("divide-and-conquer") Cholesky of
//! Ahmed and Pingali, with the recursive TRSM of Algorithm 8 and in-place
//! recursive GEMM/SYRK — the *only* algorithm in the zoo that attains both
//! the bandwidth and the latency lower bounds at every level of the memory
//! hierarchy, cache-obliviously, when paired with the recursive (Morton)
//! layout (Conclusion 5).
//!
//! Everything here is in-place over a single [`Laid`] storage: the
//! recursion operates on index regions of the factored matrix, touching
//! words only at base cases — the algorithm never sees the cache size.

use crate::naive::check_pivot;
use cholcomm_cachesim::{touch, Access, Tracer};
use cholcomm_layout::{cells_block, cells_lower_block, Laid, Layout};
use cholcomm_matrix::{KernelImpl, Matrix, MatrixError, Scalar};

/// Default recursion base-case edge.
pub const DEFAULT_LEAF: usize = 4;

/// Algorithm 6: `L = SquareRChol(A)` in place on the lower triangle, on
/// kernel engine `kernel`.  Base cases gather their index region into a
/// dense tile, run the engine's kernel, and scatter back — the `touch`
/// charges bracketing each base case are unchanged, so words/messages
/// are identical under every engine.  The arithmetic
/// is bit-identical under `FastStrict` and agrees to an FMA-contraction
/// residual under `Fast` (see `cholcomm_matrix::kernels_fast`).
pub fn square_rchol<S: Scalar, L: Layout, T: Tracer>(
    a: &mut Laid<S, L>,
    tracer: &mut T,
    leaf: usize,
    kernel: KernelImpl,
) -> Result<(), MatrixError> {
    let n = a.layout().rows();
    if a.layout().cols() != n {
        return Err(MatrixError::NotSquare {
            rows: n,
            cols: a.layout().cols(),
        });
    }
    assert!(leaf >= 1);
    rchol_rec(a, tracer, 0, n, leaf, kernel)
}

fn rchol_rec<S: Scalar, L: Layout, T: Tracer>(
    a: &mut Laid<S, L>,
    tracer: &mut T,
    o: usize,
    n: usize,
    leaf: usize,
    kernel: KernelImpl,
) -> Result<(), MatrixError> {
    if n == 0 {
        return Ok(());
    }
    if n <= leaf {
        return leaf_potf2(a, tracer, o, n, kernel);
    }
    let n1 = n / 2;
    let n2 = n - n1;
    // L11 = SquareRChol(A11)
    rchol_rec(a, tracer, o, n1, leaf, kernel)?;
    // L21 = RTRSM(A21, L11^T)
    rtrsm_rec(a, tracer, (o + n1, o), n2, n1, (o, o), leaf, kernel);
    // A22 = A22 - L21 * L21^T  (recursive SYRK)
    syrk_rec(a, tracer, (o + n1, o + n1), (o + n1, o), n2, n1, leaf, kernel);
    // L22 = SquareRChol(A22)
    rchol_rec(a, tracer, o + n1, n2, leaf, kernel)
}

/// Base case: unblocked Cholesky on the `n x n` diagonal block at
/// `(o, o)`, touching its lower triangle once in and once out.
fn leaf_potf2<S: Scalar, L: Layout, T: Tracer>(
    a: &mut Laid<S, L>,
    tracer: &mut T,
    o: usize,
    n: usize,
    kernel: KernelImpl,
) -> Result<(), MatrixError> {
    touch(tracer, a.layout(), cells_lower_block(o, o, n, n), Access::Read);
    if kernel.accelerates::<S>() {
        // Gather the lower triangle into a dense tile (zeros above — the
        // kernel never reads them), factor, scatter back.  The per-element
        // operation order of `potf2` matches this leaf's loop exactly.
        let mut t = Matrix::from_fn(n, n, |i, j| {
            if i >= j {
                a.get(o + i, o + j)
            } else {
                S::zero()
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
                a.set(o + i, o + j, t[(i, j)]);
            }
        }
        touch(tracer, a.layout(), cells_lower_block(o, o, n, n), Access::Write);
        return Ok(());
    }
    for j in 0..n {
        let mut d = a.get(o + j, o + j);
        for k in 0..j {
            let ljk = a.get(o + j, o + k);
            d = d.mul_sub(ljk, ljk);
        }
        check_pivot(d, o + j)?;
        let ljj = d.sqrt();
        a.set(o + j, o + j, ljj);
        for i in (j + 1)..n {
            let mut v = a.get(o + i, o + j);
            for k in 0..j {
                v = v.mul_sub(a.get(o + i, o + k), a.get(o + j, o + k));
            }
            a.set(o + i, o + j, v / ljj);
        }
    }
    touch(tracer, a.layout(), cells_lower_block(o, o, n, n), Access::Write);
    Ok(())
}

/// Algorithm 8 (in-place, right-hand-side form): solve
/// `X * L^T = X` for the `m x n` region at `x0`, with `L` the lower
/// triangular `n x n` block at `l0` of the same storage.  Tall systems
/// split their rows; wide ones split `L` (the two-by-two recursion of the
/// paper with `A11/A21` handled by the row split).  Every kernel engine
/// makes the same touches and the same bits.
#[allow(clippy::too_many_arguments)]
pub fn rtrsm_rec<S: Scalar, L: Layout, T: Tracer>(
    a: &mut Laid<S, L>,
    tracer: &mut T,
    x0: (usize, usize),
    m: usize,
    n: usize,
    l0: (usize, usize),
    leaf: usize,
    kernel: KernelImpl,
) {
    if m == 0 || n == 0 {
        return;
    }
    if m <= leaf && n <= leaf {
        // Base: forward-substitute the little system.
        touch(tracer, a.layout(), cells_block(x0.0, x0.1, m, n), Access::Read);
        touch(tracer, a.layout(), cells_lower_block(l0.0, l0.1, n, n), Access::Read);
        if kernel.accelerates::<S>() {
            let mut x = Matrix::from_fn(m, n, |i, j| a.get(x0.0 + i, x0.1 + j));
            let l = Matrix::from_fn(n, n, |i, j| {
                if i >= j {
                    a.get(l0.0 + i, l0.1 + j)
                } else {
                    S::zero()
                }
            });
            kernel.trsm_right_lower_transpose(&mut x, &l);
            for j in 0..n {
                for i in 0..m {
                    a.set(x0.0 + i, x0.1 + j, x[(i, j)]);
                }
            }
            touch(tracer, a.layout(), cells_block(x0.0, x0.1, m, n), Access::Write);
            return;
        }
        for j in 0..n {
            for k in 0..j {
                let ljk = a.get(l0.0 + j, l0.1 + k);
                for i in 0..m {
                    let xik = a.get(x0.0 + i, x0.1 + k);
                    a.update(x0.0 + i, x0.1 + j, |v| v.mul_sub(xik, ljk));
                }
            }
            let ljj = a.get(l0.0 + j, l0.1 + j);
            for i in 0..m {
                let v = a.get(x0.0 + i, x0.1 + j);
                a.set(x0.0 + i, x0.1 + j, v / ljj);
            }
        }
        touch(tracer, a.layout(), cells_block(x0.0, x0.1, m, n), Access::Write);
        return;
    }
    if m > n || n <= leaf {
        // Row split (the X21/X22 half of Algorithm 8).
        let m1 = m / 2;
        rtrsm_rec(a, tracer, x0, m1, n, l0, leaf, kernel);
        rtrsm_rec(a, tracer, (x0.0 + m1, x0.1), m - m1, n, l0, leaf, kernel);
    } else {
        // Column split: X = [X1 X2], U = L^T upper triangular.
        // X1 = RTRSM(A1, U11); X2 = RTRSM(A2 - X1 * U12, U22),
        // where U12 = L21^T.
        let n1 = n / 2;
        let n2 = n - n1;
        rtrsm_rec(a, tracer, x0, m, n1, l0, leaf, kernel);
        // X2 -= X1 * L21^T : C(i,j) -= sum_k X1(i,k) * L21(j,k)
        gemm_nt_rec(
            a,
            tracer,
            (x0.0, x0.1 + n1),
            x0,
            (l0.0 + n1, l0.1),
            m,
            n2,
            n1,
            false,
            leaf,
            kernel,
        );
        rtrsm_rec(
            a,
            tracer,
            (x0.0, x0.1 + n1),
            m,
            n2,
            (l0.0 + n1, l0.1 + n1),
            leaf,
            kernel,
        );
    }
}

/// Recursive symmetric update `C -= A * A^T` on the `n x n` diagonal
/// region at `c0`, with `A` the `n x k` region at `a0` (only the lower
/// triangle of `C` is referenced or written).
#[allow(clippy::too_many_arguments)]
pub fn syrk_rec<S: Scalar, L: Layout, T: Tracer>(
    a: &mut Laid<S, L>,
    tracer: &mut T,
    c0: (usize, usize),
    a0: (usize, usize),
    n: usize,
    k: usize,
    leaf: usize,
    kernel: KernelImpl,
) {
    gemm_nt_rec(a, tracer, c0, a0, a0, n, n, k, true, leaf, kernel);
}

/// In-place recursive `C -= A * B^T` over regions of one storage:
/// `C(c0 + (i,j)) -= sum_k A(a0 + (i,k)) * B(b0 + (j,k))` with `C` of
/// shape `m x n` and inner dimension `k`.  With `lower_only`, cells of `C`
/// strictly above the global diagonal are neither read, written, nor
/// charged (symmetric updates reference only half the matrix).
///
/// The operand regions must not overlap the `C` region (true for every
/// use inside the factorization: panels are disjoint from trailing
/// blocks).
///
/// Base cases with no diagonal straddle gather into dense tiles and run
/// the engine's `gemm_nt`; straddling (masked) leaves keep the element loop, whose
/// cells may not even all exist in packed layouts.
#[allow(clippy::too_many_arguments)]
pub fn gemm_nt_rec<S: Scalar, L: Layout, T: Tracer>(
    a: &mut Laid<S, L>,
    tracer: &mut T,
    c0: (usize, usize),
    a0: (usize, usize),
    b0: (usize, usize),
    m: usize,
    n: usize,
    k: usize,
    lower_only: bool,
    leaf: usize,
    kernel: KernelImpl,
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    // Prune subtrees entirely above the diagonal: every cell has global
    // row < global column iff max row (c0.0 + m - 1) < min column (c0.1).
    if lower_only && c0.0 + m <= c0.1 {
        return;
    }
    if m.max(n).max(k) <= leaf {
        let cw = |h: usize, w: usize| {
            if lower_only {
                cells_lower_block(c0.0, c0.1, h, w).collect::<Vec<_>>()
            } else {
                cells_block(c0.0, c0.1, h, w).collect::<Vec<_>>()
            }
        };
        touch(tracer, a.layout(), cw(m, n), Access::Read);
        touch(tracer, a.layout(), cells_block(a0.0, a0.1, m, k), Access::Read);
        touch(tracer, a.layout(), cells_block(b0.0, b0.1, n, k), Access::Read);
        // The C leaf is maskless iff its topmost row is at or below its
        // rightmost column (then every cell is on or under the diagonal).
        let maskless = !lower_only || c0.0 + 1 >= c0.1 + n;
        if maskless && kernel.accelerates::<S>() {
            let mut cm = Matrix::from_fn(m, n, |i, j| a.get(c0.0 + i, c0.1 + j));
            let am = Matrix::from_fn(m, k, |i, j| a.get(a0.0 + i, a0.1 + j));
            let bm = Matrix::from_fn(n, k, |i, j| a.get(b0.0 + i, b0.1 + j));
            kernel.gemm_nt(&mut cm, -S::one(), &am, &bm);
            for j in 0..n {
                for i in 0..m {
                    a.set(c0.0 + i, c0.1 + j, cm[(i, j)]);
                }
            }
        } else {
            for j in 0..n {
                for kk in 0..k {
                    let bjk = a.get(b0.0 + j, b0.1 + kk);
                    for i in 0..m {
                        if lower_only && c0.0 + i < c0.1 + j {
                            continue;
                        }
                        let aik = a.get(a0.0 + i, a0.1 + kk);
                        a.update(c0.0 + i, c0.1 + j, |v| v.mul_sub(aik, bjk));
                    }
                }
            }
        }
        touch(tracer, a.layout(), cw(m, n), Access::Write);
        return;
    }
    if m >= n && m >= k {
        let m1 = m / 2;
        gemm_nt_rec(a, tracer, c0, a0, b0, m1, n, k, lower_only, leaf, kernel);
        gemm_nt_rec(
            a,
            tracer,
            (c0.0 + m1, c0.1),
            (a0.0 + m1, a0.1),
            b0,
            m - m1,
            n,
            k,
            lower_only,
            leaf,
            kernel,
        );
    } else if k >= n {
        let k1 = k / 2;
        gemm_nt_rec(a, tracer, c0, a0, b0, m, n, k1, lower_only, leaf, kernel);
        gemm_nt_rec(
            a,
            tracer,
            c0,
            (a0.0, a0.1 + k1),
            (b0.0, b0.1 + k1),
            m,
            n,
            k - k1,
            lower_only,
            leaf,
            kernel,
        );
    } else {
        let n1 = n / 2;
        gemm_nt_rec(a, tracer, c0, a0, b0, m, n1, k, lower_only, leaf, kernel);
        gemm_nt_rec(
            a,
            tracer,
            (c0.0, c0.1 + n1),
            a0,
            (b0.0 + n1, b0.1),
            m,
            n - n1,
            k,
            lower_only,
            leaf,
            kernel,
        );
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use cholcomm_cachesim::{LruTracer, NullTracer};
    use cholcomm_layout::{ColMajor, Morton, PackedLower, RecursivePacked};
    use cholcomm_matrix::kernels::potf2;
    use cholcomm_matrix::{norms, spd};

    #[test]
    fn factors_correctly_every_layout() {
        let n = 21;
        let mut rng = spd::test_rng(70);
        let a = spd::random_spd(n, &mut rng);
        let mut ref_f = a.clone();
        potf2(&mut ref_f).unwrap();

        macro_rules! check {
            ($layout:expr) => {{
                let mut laid = Laid::from_matrix(&a, $layout);
                square_rchol(&mut laid, &mut NullTracer, 4, KernelImpl::Reference).unwrap();
                let got = laid.to_matrix();
                for j in 0..n {
                    for i in j..n {
                        assert!(
                            (got[(i, j)] - ref_f[(i, j)]).abs() < 1e-9,
                            "layout {:?} at ({i},{j})",
                            stringify!($layout)
                        );
                    }
                }
            }};
        }
        check!(ColMajor::square(n));
        check!(Morton::square(n));
        check!(PackedLower::new(n));
        check!(RecursivePacked::new(n));
    }

    #[test]
    fn factors_correctly_various_leaf_sizes() {
        let n = 17;
        let mut rng = spd::test_rng(71);
        let a = spd::random_spd(n, &mut rng);
        for leaf in [1usize, 2, 3, 4, 8, 32] {
            let mut laid = Laid::from_matrix(&a, ColMajor::square(n));
            square_rchol(&mut laid, &mut NullTracer, leaf, KernelImpl::Reference).unwrap();
            let r = norms::cholesky_residual(&a, &laid.to_matrix());
            assert!(r < norms::residual_tolerance(n), "leaf {leaf}: {r}");
        }
    }

    #[test]
    fn bandwidth_scales_as_inverse_sqrt_m() {
        // Conclusion 5 (bandwidth half): words ~ n^3 / sqrt(M).
        let n = 64;
        let mut rng = spd::test_rng(72);
        let a = spd::random_spd(n, &mut rng);
        let mut words = Vec::new();
        for m in [48usize, 192, 768] {
            let mut laid = Laid::from_matrix(&a, Morton::square(n));
            let mut tr = LruTracer::new(m);
            square_rchol(&mut laid, &mut tr, 4, KernelImpl::Reference).unwrap();
            tr.flush();
            words.push(tr.stats().words as f64);
        }
        let r01 = words[0] / words[1];
        let r12 = words[1] / words[2];
        assert!(r01 > 1.4, "4x cache should ~2x fewer words: {words:?}");
        assert!(r12 > 1.2, "4x cache should ~2x fewer words: {words:?}");
    }

    #[test]
    fn latency_on_morton_beats_colmajor() {
        // Conclusion 5 (latency half): recursive layout wins by ~sqrt(M).
        let n = 64;
        let m = 192;
        let mut rng = spd::test_rng(73);
        let a = spd::random_spd(n, &mut rng);

        let mut mo = Laid::from_matrix(&a, Morton::square(n));
        let mut tr_mo = LruTracer::new(m);
        square_rchol(&mut mo, &mut tr_mo, 4, KernelImpl::Reference).unwrap();
        tr_mo.flush();

        let mut cm = Laid::from_matrix(&a, ColMajor::square(n));
        let mut tr_cm = LruTracer::new(m);
        square_rchol(&mut cm, &mut tr_cm, 4, KernelImpl::Reference).unwrap();
        tr_cm.flush();

        let (mo_s, cm_s) = (tr_mo.stats(), tr_cm.stats());
        assert!(
            (mo_s.messages as f64) < cm_s.messages as f64 / 2.0,
            "morton {mo_s} vs col-major {cm_s}"
        );
    }

    #[test]
    fn rtrsm_solves_against_reference() {
        // Build [L11 0; X L22]-shaped data: put L11 at (0,0), B at (4,0)
        // in an 8x8 matrix, solve X * L11^T = B.
        let mut rng = spd::test_rng(74);
        let spd4 = spd::random_spd(4, &mut rng);
        let mut l11 = spd4.clone();
        potf2(&mut l11).unwrap();
        let x_true = cholcomm_matrix::Matrix::from_fn(4, 4, |i, j| (i + 2 * j) as f64 - 3.0);
        // B = X_true * L11^T
        let mut b = cholcomm_matrix::Matrix::zeros(4, 4);
        for i in 0..4 {
            for j in 0..4 {
                let mut s = 0.0;
                for k in 0..=j {
                    s += x_true[(i, k)] * l11[(j, k)];
                }
                b[(i, j)] = s;
            }
        }
        let mut full = cholcomm_matrix::Matrix::zeros(8, 8);
        full.set_submatrix(0, 0, &l11);
        full.set_submatrix(4, 0, &b);
        let mut laid = Laid::from_matrix(&full, ColMajor::square(8));
        rtrsm_rec(&mut laid, &mut NullTracer, (4, 0), 4, 4, (0, 0), 2, KernelImpl::Reference);
        let got = laid.to_matrix();
        for i in 0..4 {
            for j in 0..4 {
                assert!((got[(4 + i, j)] - x_true[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn cache_oblivious_no_m_parameter_anywhere() {
        // Run the identical algorithm twice; only the tracer differs.
        // Counts must differ (the cache filters), data must not.
        let n = 24;
        let mut rng = spd::test_rng(75);
        let a = spd::random_spd(n, &mut rng);
        let mut l1 = Laid::from_matrix(&a, Morton::square(n));
        let mut t1 = LruTracer::new(32);
        square_rchol(&mut l1, &mut t1, 4, KernelImpl::Reference).unwrap();
        let mut l2 = Laid::from_matrix(&a, Morton::square(n));
        let mut t2 = LruTracer::new(4096);
        square_rchol(&mut l2, &mut t2, 4, KernelImpl::Reference).unwrap();
        assert_eq!(l1.to_matrix(), l2.to_matrix(), "result independent of M");
        assert!(t1.stats().words > t2.stats().words, "traffic depends on M");
    }
}

/// The *cache-aware* ("tuned") variant the paper contrasts with
/// cache-obliviousness: stop the recursion as soon as the subproblem fits
/// in fast memory, i.e. use a base case of `b = sqrt(M/3)` so the three
/// operand blocks of the base-case GEMMs fit simultaneously.
///
/// Structurally this is [`square_rchol`] with the leaf tuned to `M` — the
/// point of Conclusion 5 is that the *oblivious* version (constant leaf)
/// matches it at every level without knowing `M`; the tuned version is
/// kept as the explicit baseline (and wins only constants, see the leaf
/// ablation bench).
pub fn cache_aware_rchol<S: Scalar, L: Layout, T: Tracer>(
    a: &mut Laid<S, L>,
    tracer: &mut T,
    m: usize,
) -> Result<(), MatrixError> {
    let leaf = (((m / 3) as f64).sqrt() as usize).max(1);
    square_rchol(a, tracer, leaf, KernelImpl::Reference)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tuned_tests {
    use super::*;
    use cholcomm_cachesim::LruTracer;
    use cholcomm_layout::{Laid, Morton};
    use cholcomm_matrix::{norms, spd};

    #[test]
    fn tuned_factors_and_tracks_the_oblivious_bandwidth() {
        let n = 64;
        let m = 192;
        let mut rng = spd::test_rng(76);
        let a = spd::random_spd(n, &mut rng);

        let mut t1 = LruTracer::new(m);
        let mut l1 = Laid::from_matrix(&a, Morton::square(n));
        cache_aware_rchol(&mut l1, &mut t1, m).unwrap();
        t1.flush();
        let r = norms::cholesky_residual(&a, &l1.to_matrix());
        assert!(r < norms::residual_tolerance(n));

        let mut t2 = LruTracer::new(m);
        let mut l2 = Laid::from_matrix(&a, Morton::square(n));
        square_rchol(&mut l2, &mut t2, 4, KernelImpl::Reference).unwrap();
        t2.flush();

        // Same asymptotic bandwidth: within 2x of each other.
        let (w1, w2) = (t1.stats().words as f64, t2.stats().words as f64);
        assert!(w1 / w2 < 2.0 && w2 / w1 < 2.0, "tuned {w1} vs oblivious {w2}");
    }

    #[test]
    fn tuned_base_case_never_exceeds_fast_memory_working_set() {
        // b = sqrt(M/3) means 3 b^2 <= M.
        for m in [48usize, 192, 768, 3072] {
            let b = (((m / 3) as f64).sqrt() as usize).max(1);
            assert!(3 * b * b <= m || b == 1, "M = {m}, b = {b}");
        }
    }
}
