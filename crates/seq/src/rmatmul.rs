//! Algorithm 7: the cache-oblivious recursive matrix multiplication of
//! Frigo–Leiserson–Prokop–Ramachandran, on three separate stored matrices.
//!
//! At each step the largest of the three dimensions is halved; at the base
//! case the three operand blocks are touched and the product accumulated.
//! Under the ideal-cache model its bandwidth is
//! `Theta(mnr / sqrt(M) + mn + nr + mr)` (Theorem 3), and with the
//! recursive (Morton) layout its latency is `Theta(n^3 / M^{3/2})`
//! (Claim 3.3) — both checked in this workspace's benches and tests.

use cholcomm_cachesim::{touch_at, Access, Tracer};
use cholcomm_layout::{cells_block, Laid, Layout};
use cholcomm_matrix::{KernelImpl, Matrix, Scalar};

/// Default recursion base-case edge (a small constant keeps the algorithm
/// cache-oblivious; see the ablation bench for sensitivity).
pub const DEFAULT_LEAF: usize = 4;

/// `C += A * B` recursively: `A` is `m x k`, `B` is `k x r`, `C` is
/// `m x r`.  All three may live in different layouts.
///
/// Base cases gather the three operand blocks into dense tiles and run
/// the engine's `gemm_nn`.  The `touch_at` charges are identical under every engine,
/// so the counts are invariant under the switch; the bits are too under
/// `FastStrict` (same order, same rounding), while `Fast` agrees to an
/// FMA-contraction residual.
pub fn recursive_matmul<S: Scalar, LA: Layout, LB: Layout, LC: Layout, T: Tracer>(
    c: &mut Laid<S, LC>,
    a: &Laid<S, LA>,
    b: &Laid<S, LB>,
    tracer: &mut T,
    leaf: usize,
    kernel: KernelImpl,
) {
    let (m, k) = (a.layout().rows(), a.layout().cols());
    let r = b.layout().cols();
    assert_eq!(b.layout().rows(), k, "inner dimension");
    assert_eq!(c.layout().rows(), m, "C rows");
    assert_eq!(c.layout().cols(), r, "C cols");
    assert!(leaf >= 1);
    // Distinct base addresses keep the three operands from aliasing in
    // the cache simulation: A, then B, then C, laid out back to back in
    // slow memory.
    let a_base = 0;
    let b_base = a.layout().len();
    let c_base = b_base + b.layout().len();
    let bases = (a_base, b_base, c_base);
    rec(c, a, b, tracer, bases, (0, 0), (0, 0), (0, 0), m, k, r, leaf, kernel);
}

#[allow(clippy::too_many_arguments)]
fn rec<S: Scalar, LA: Layout, LB: Layout, LC: Layout, T: Tracer>(
    c: &mut Laid<S, LC>,
    a: &Laid<S, LA>,
    b: &Laid<S, LB>,
    tracer: &mut T,
    bases: (usize, usize, usize),
    c0: (usize, usize),
    a0: (usize, usize),
    b0: (usize, usize),
    m: usize,
    k: usize,
    r: usize,
    leaf: usize,
    kernel: KernelImpl,
) {
    if m == 0 || k == 0 || r == 0 {
        return;
    }
    if m.max(k).max(r) <= leaf {
        // Base case: move the three blocks, multiply, write C back.
        touch_at(tracer, a.layout(), bases.0, cells_block(a0.0, a0.1, m, k), Access::Read);
        touch_at(tracer, b.layout(), bases.1, cells_block(b0.0, b0.1, k, r), Access::Read);
        touch_at(tracer, c.layout(), bases.2, cells_block(c0.0, c0.1, m, r), Access::Read);
        if kernel.accelerates::<S>() {
            let am = Matrix::from_fn(m, k, |i, j| a.get(a0.0 + i, a0.1 + j));
            let bm = Matrix::from_fn(k, r, |i, j| b.get(b0.0 + i, b0.1 + j));
            let mut cm = Matrix::from_fn(m, r, |i, j| c.get(c0.0 + i, c0.1 + j));
            kernel.gemm_nn(&mut cm, S::one(), &am, &bm);
            for j in 0..r {
                for i in 0..m {
                    c.set(c0.0 + i, c0.1 + j, cm[(i, j)]);
                }
            }
        } else {
            for j in 0..r {
                for kk in 0..k {
                    let bkj = b.get(b0.0 + kk, b0.1 + j);
                    for i in 0..m {
                        let prod = a.get(a0.0 + i, a0.1 + kk) * bkj;
                        c.update(c0.0 + i, c0.1 + j, |v| v + prod);
                    }
                }
            }
        }
        touch_at(tracer, c.layout(), bases.2, cells_block(c0.0, c0.1, m, r), Access::Write);
        return;
    }
    if m >= k && m >= r {
        // Split rows of A and C (Algorithm 7 lines 3-5).
        let m1 = m / 2;
        rec(c, a, b, tracer, bases, c0, a0, b0, m1, k, r, leaf, kernel);
        rec(
            c,
            a,
            b,
            tracer,
            bases,
            (c0.0 + m1, c0.1),
            (a0.0 + m1, a0.1),
            b0,
            m - m1,
            k,
            r,
            leaf,
            kernel,
        );
    } else if k >= r {
        // Split the inner dimension (lines 6-8): two sequential passes
        // accumulating into the same C.
        let k1 = k / 2;
        rec(c, a, b, tracer, bases, c0, a0, b0, m, k1, r, leaf, kernel);
        rec(
            c,
            a,
            b,
            tracer,
            bases,
            c0,
            (a0.0, a0.1 + k1),
            (b0.0 + k1, b0.1),
            m,
            k - k1,
            r,
            leaf,
            kernel,
        );
    } else {
        // Split columns of B and C (lines 9-12).
        let r1 = r / 2;
        rec(c, a, b, tracer, bases, c0, a0, b0, m, k, r1, leaf, kernel);
        rec(
            c,
            a,
            b,
            tracer,
            bases,
            (c0.0, c0.1 + r1),
            a0,
            (b0.0, b0.1 + r1),
            m,
            k,
            r - r1,
            leaf,
            kernel,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cholcomm_cachesim::{LruTracer, NullTracer};
    use cholcomm_layout::{ColMajor, Morton};
    use cholcomm_matrix::{kernels, norms, spd, Matrix};
    use rand::RngExt;

    fn random_matrix(m: usize, n: usize, seed: u64) -> Matrix<f64> {
        let mut rng = spd::test_rng(seed);
        Matrix::from_fn(m, n, |_, _| rng.random_range(-1.0..1.0))
    }

    #[test]
    fn multiplies_correctly_rectangular() {
        for (m, k, r) in [(7, 5, 9), (8, 8, 8), (1, 4, 3), (16, 2, 16)] {
            let a = random_matrix(m, k, 60);
            let b = random_matrix(k, r, 61);
            let mut c = Laid::from_matrix(&Matrix::zeros(m, r), ColMajor::new(m, r));
            let la = Laid::from_matrix(&a, ColMajor::new(m, k));
            let lb = Laid::from_matrix(&b, ColMajor::new(k, r));
            recursive_matmul(&mut c, &la, &lb, &mut NullTracer, 4, KernelImpl::Reference);
            let want = kernels::matmul(&a, &b);
            assert!(norms::max_abs_diff(&c.to_matrix(), &want) < 1e-12, "{m}x{k}x{r}");
        }
    }

    #[test]
    fn accumulates_into_existing_c() {
        let a = random_matrix(4, 4, 62);
        let b = random_matrix(4, 4, 63);
        let init = random_matrix(4, 4, 64);
        let mut c = Laid::from_matrix(&init, ColMajor::square(4));
        let la = Laid::from_matrix(&a, ColMajor::square(4));
        let lb = Laid::from_matrix(&b, ColMajor::square(4));
        recursive_matmul(&mut c, &la, &lb, &mut NullTracer, 2, KernelImpl::Reference);
        let mut want = init.clone();
        kernels::gemm_nn(&mut want, 1.0, &a, &b);
        assert!(norms::max_abs_diff(&c.to_matrix(), &want) < 1e-12);
    }

    #[test]
    fn bandwidth_follows_theorem3_scaling() {
        // Words ~ n^3 / sqrt(M): quadrupling M should halve the traffic
        // (up to the additive n^2 terms).
        let n = 48;
        let a = random_matrix(n, n, 65);
        let b = random_matrix(n, n, 66);
        let mut words = Vec::new();
        for m in [64usize, 256, 1024] {
            let la = Laid::from_matrix(&a, Morton::square(n));
            let lb = Laid::from_matrix(&b, Morton::square(n));
            let mut c = Laid::from_matrix(&Matrix::zeros(n, n), Morton::square(n));
            let mut tr = LruTracer::new(m);
            recursive_matmul(&mut c, &la, &lb, &mut tr, 4, KernelImpl::Reference);
            tr.flush();
            words.push(tr.stats().words as f64);
        }
        let r01 = words[0] / words[1];
        let r12 = words[1] / words[2];
        assert!(r01 > 1.5, "expected ~2x drop, got {r01:.2} ({words:?})");
        assert!(r12 > 1.3, "expected ~2x drop, got {r12:.2} ({words:?})");
    }

    #[test]
    fn small_problem_fits_in_cache_and_moves_each_word_once() {
        let n = 8;
        let a = random_matrix(n, n, 67);
        let b = random_matrix(n, n, 68);
        let la = Laid::from_matrix(&a, Morton::square(n));
        let lb = Laid::from_matrix(&b, Morton::square(n));
        let mut c = Laid::from_matrix(&Matrix::zeros(n, n), Morton::square(n));
        let mut tr = LruTracer::new(4096);
        recursive_matmul(&mut c, &la, &lb, &mut tr, 4, KernelImpl::Reference);
        tr.flush();
        // Case IV of Theorem 3: Theta(mn + nr + mr) — here 3 n^2 reads
        // plus the n^2 write-back.
        assert_eq!(tr.fetch_stats().words, 3 * 64);
    }
}
