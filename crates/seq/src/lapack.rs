//! Algorithm 4: LAPACK's blocked left-looking `POTRF`.
//!
//! The iteration over block columns performs SYRK on the diagonal block,
//! an unblocked `POTF2` on it in fast memory, a GEMM update of the panel
//! below, and a TRSM against the factored diagonal block — with every tile
//! explicitly moved between slow and fast memory.  The order itself is
//! [`schedule::walk_left`]; this module supplies the traced storage it
//! runs over (and runs the right-looking [`schedule::walk`] over the same
//! storage for comparison).  With
//! `b = Theta(sqrt(M))` the schedule moves `O(n^3 / sqrt(M) + n^2)` words
//! (Conclusion 2); its latency is `O(n^3 / M^{3/2})` on block-contiguous
//! storage but only `O(n^3 / M)` on column-major storage (Conclusion 3).

use crate::tiles::{load_tile, store_tile};
use cholcomm_cachesim::{FastMemGauge, Tracer};
use cholcomm_layout::{Laid, Layout};
use cholcomm_matrix::schedule::{self, TileGrid, TileStore};
use cholcomm_matrix::{KernelImpl, Matrix, MatrixError, Scalar};

/// Algorithm 4 with block size `b` on the kernel engine `kernel`: the
/// left-looking walk of [`cholcomm_matrix::schedule`] over traced
/// storage.  The schedule — and hence every word/message charged to
/// `tracer` — is identical under every engine; only the arithmetic
/// inside the fast-memory tiles changes (bit-identically under
/// `FastStrict`, to an FMA-contraction residual under `Fast` — see
/// `cholcomm_matrix::kernels_fast`).
///
/// When `fast_memory` is given, a [`FastMemGauge`] asserts the schedule's
/// working set stays within it — enforcing the paper's `3 b^2 <= M`
/// precondition (`1 <= b <= sqrt(M/3)`).
pub fn potrf_blocked_with<S: Scalar, L: Layout, T: Tracer>(
    a: &mut Laid<S, L>,
    tracer: &mut T,
    b: usize,
    fast_memory: Option<usize>,
    kernel: KernelImpl,
) -> Result<(), MatrixError> {
    potrf_traced(a, tracer, b, fast_memory, kernel, true)
}

/// The *right-looking* blocked variant (LAPACK ships both; Algorithm 4 in
/// the paper is the left-looking one): the shared tile schedule of
/// [`cholcomm_matrix::schedule`] walked over traced storage.  Each
/// iteration factors the diagonal tile, solves the panel below, and
/// immediately applies the rank-`b` update to the whole trailing matrix —
/// re-reading and re-writing every trailing tile once per iteration.
/// Asymptotically the same `Theta(n^3 / sqrt(M))` bandwidth, but with a
/// larger constant than the left-looking schedule (the trailing matrix is
/// written `n/b` times instead of once); the tests pin the ratio down.
///
/// Same schedule, same counts, same bits under every engine — see
/// [`potrf_blocked_with`].
pub fn potrf_blocked_right_with<S: Scalar, L: Layout, T: Tracer>(
    a: &mut Laid<S, L>,
    tracer: &mut T,
    b: usize,
    fast_memory: Option<usize>,
    kernel: KernelImpl,
) -> Result<(), MatrixError> {
    potrf_traced(a, tracer, b, fast_memory, kernel, false)
}

/// Either walk of the shared tile schedule over traced storage, under a
/// [`FastMemGauge`] that enforces the paper's `3 b^2 <= M` precondition.
fn potrf_traced<S: Scalar, L: Layout, T: Tracer>(
    a: &mut Laid<S, L>,
    tracer: &mut T,
    b: usize,
    fast_memory: Option<usize>,
    kernel: KernelImpl,
    left_looking: bool,
) -> Result<(), MatrixError> {
    let n = a.layout().rows();
    if a.layout().cols() != n {
        return Err(MatrixError::NotSquare {
            rows: n,
            cols: a.layout().cols(),
        });
    }
    if let Some(m) = fast_memory {
        assert!(
            schedule::WORKING_SET * b * b <= m,
            "LAPACK blocked schedule requires 3 b^2 <= M (b = {b}, M = {m})"
        );
    }
    let mut gauge = FastMemGauge::new(fast_memory.unwrap_or(usize::MAX));
    let grid = TileGrid::new(n, b);
    let mut store = TracedTiles { a, tracer, grid };
    let mut arith = schedule::Arithmetic::new(kernel, grid);
    let apply = |op, target: &mut Matrix<S>, operands: &[&Matrix<S>]| {
        // The tiles a kernel touches are what fast memory holds while
        // it runs.
        let words = operands
            .iter()
            .fold(target.rows() * target.cols(), |w, t| w + t.rows() * t.cols());
        gauge.claim(words);
        let done = arith.apply(op, target, operands);
        gauge.release(words);
        done
    };
    if left_looking {
        schedule::walk_left(&mut store, grid.nb(), 0..grid.nb(), 1, apply)
    } else {
        schedule::walk(&mut store, grid.nb(), 0..grid.nb(), apply)
    }
}

/// Traced slow memory as a tile store: every get is a tile read and
/// every put a tile write charged to the tracer.
struct TracedTiles<'a, S, L: Layout, T> {
    a: &'a mut Laid<S, L>,
    tracer: &'a mut T,
    grid: TileGrid,
}

impl<S: Scalar, L: Layout, T: Tracer> TileStore for TracedTiles<'_, S, L, T> {
    type Tile = Matrix<S>;
    type Error = MatrixError;

    fn get(&mut self, i: usize, j: usize) -> Result<Matrix<S>, MatrixError> {
        let TileGrid { b, .. } = self.grid;
        let (h, w) = (self.grid.dim(i), self.grid.dim(j));
        Ok(load_tile(self.a, self.tracer, i * b, j * b, h, w, false))
    }

    fn put(&mut self, i: usize, j: usize, tile: Matrix<S>) -> Result<(), MatrixError> {
        let TileGrid { b, .. } = self.grid;
        store_tile(self.a, self.tracer, i * b, j * b, &tile, false);
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use cholcomm_cachesim::{CountingTracer, NullTracer};
    use cholcomm_layout::{Blocked, ColMajor};
    use cholcomm_matrix::{norms, spd};

    #[test]
    fn factors_correctly_for_many_block_sizes() {
        let n = 24;
        let mut rng = spd::test_rng(50);
        let a = spd::random_spd(n, &mut rng);
        for b in [1usize, 2, 3, 5, 8, 24, 30] {
            let mut laid = Laid::from_matrix(&a, ColMajor::square(n));
            potrf_blocked_with(&mut laid, &mut NullTracer, b, None, KernelImpl::Reference).unwrap();
            let r = norms::cholesky_residual(&a, &laid.to_matrix());
            assert!(r < norms::residual_tolerance(n), "b = {b}, residual {r}");
        }
    }

    #[test]
    fn works_on_blocked_storage() {
        let n = 20;
        let mut rng = spd::test_rng(51);
        let a = spd::random_spd(n, &mut rng);
        let mut laid = Laid::from_matrix(&a, Blocked::square(n, 5));
        potrf_blocked_with(&mut laid, &mut NullTracer, 5, None, KernelImpl::Reference).unwrap();
        let r = norms::cholesky_residual(&a, &laid.to_matrix());
        assert!(r < norms::residual_tolerance(n));
    }

    #[test]
    fn bandwidth_scales_as_n_cubed_over_b() {
        // Doubling b should roughly halve the words moved (the n^3/b
        // term dominates when b << n).
        let n = 64;
        let mut rng = spd::test_rng(52);
        let a = spd::random_spd(n, &mut rng);
        let mut words = Vec::new();
        for b in [2usize, 4, 8] {
            let mut laid = Laid::from_matrix(&a, ColMajor::square(n));
            let mut tr = CountingTracer::uncapped();
            potrf_blocked_with(&mut laid, &mut tr, b, None, KernelImpl::Reference).unwrap();
            words.push(tr.stats().words as f64);
        }
        let r01 = words[0] / words[1];
        let r12 = words[1] / words[2];
        assert!(r01 > 1.5 && r01 < 2.5, "ratio {r01}");
        assert!(r12 > 1.4 && r12 < 2.5, "ratio {r12}");
    }

    #[test]
    fn blocked_storage_saves_latency_vs_colmajor() {
        // Conclusion 3: same words, ~b x fewer messages on tile storage.
        let n = 32;
        let b = 8;
        let mut rng = spd::test_rng(53);
        let a = spd::random_spd(n, &mut rng);

        let mut cm = Laid::from_matrix(&a, ColMajor::square(n));
        let mut tr_cm = CountingTracer::uncapped();
        potrf_blocked_with(&mut cm, &mut tr_cm, b, None, KernelImpl::Reference).unwrap();

        let mut bl = Laid::from_matrix(&a, Blocked::square(n, b));
        let mut tr_bl = CountingTracer::uncapped();
        potrf_blocked_with(&mut bl, &mut tr_bl, b, None, KernelImpl::Reference).unwrap();

        assert_eq!(tr_cm.stats().words, tr_bl.stats().words, "same bandwidth");
        let ratio = tr_cm.stats().messages as f64 / tr_bl.stats().messages as f64;
        assert!(
            ratio > b as f64 / 2.0,
            "expected ~{b}x message saving, got {ratio:.2}x"
        );
    }

    #[test]
    #[should_panic(expected = "3 b^2 <= M")]
    fn oversized_block_is_rejected() {
        let mut laid = Laid::<f64, _>::from_matrix(
            &cholcomm_matrix::Matrix::identity(8),
            ColMajor::square(8),
        );
        let _ = potrf_blocked_with(
            &mut laid,
            &mut NullTracer,
            4,
            Some(16),
            KernelImpl::Reference,
        );
    }

    #[test]
    fn b_equal_one_reduces_to_naive_left_bandwidth_shape() {
        // The paper: b = 1 reduces the blocked algorithm to naive
        // left-looking with O(n^3) bandwidth.
        let n = 32;
        let mut rng = spd::test_rng(54);
        let a = spd::random_spd(n, &mut rng);
        let mut laid = Laid::from_matrix(&a, ColMajor::square(n));
        let mut tr = CountingTracer::uncapped();
        potrf_blocked_with(&mut laid, &mut tr, 1, None, KernelImpl::Reference).unwrap();
        let words = tr.stats().words as f64;
        let n3 = (n as f64).powi(3);
        assert!(words > n3 / 4.0, "words {words} should be Θ(n^3) = {n3}");
    }

    #[test]
    fn algorithm_4_counts_match_the_hand_written_nest() {
        // (n, b), then words/messages on column-major and on
        // block-contiguous storage at M = 3 b^2, captured from the nest
        // this walk replaced.
        let goldens = [
            ((24usize, 8usize), (1280u64, 160u64), (1280u64, 20u64)),
            ((26, 6), (2024, 412), (2024, 70)),
            ((64, 8), (15360, 1920), (15360, 240)),
            ((100, 32), (28192, 1224), (28192, 40)),
            ((33, 4), (4626, 1314), (4626, 330)),
        ];
        for ((n, b), col_major, blocked) in goldens {
            let a = spd::random_spd(n, &mut spd::test_rng(7));
            for kernel in [KernelImpl::Reference, KernelImpl::FastStrict, KernelImpl::Fast] {
                let mut cm = Laid::from_matrix(&a, ColMajor::square(n));
                let mut tr = CountingTracer::uncapped();
                potrf_blocked_with(&mut cm, &mut tr, b, Some(3 * b * b), kernel).unwrap();
                let got = (tr.stats().words, tr.stats().messages);
                assert_eq!(got, col_major, "n={n} b={b} {kernel:?} column-major");

                let mut bl = Laid::from_matrix(&a, Blocked::square(n, b));
                let mut tr = CountingTracer::uncapped();
                potrf_blocked_with(&mut bl, &mut tr, b, Some(3 * b * b), kernel).unwrap();
                let got = (tr.stats().words, tr.stats().messages);
                assert_eq!(got, blocked, "n={n} b={b} {kernel:?} block-contiguous");
            }
        }
    }

    #[test]
    fn reports_global_pivot_on_failure() {
        let mut m = cholcomm_matrix::Matrix::<f64>::identity(12);
        m[(9, 9)] = -3.0;
        let mut laid = Laid::from_matrix(&m, ColMajor::square(12));
        let err = potrf_blocked_with(&mut laid, &mut NullTracer, 4, None, KernelImpl::Reference)
            .unwrap_err();
        assert!(matches!(err, MatrixError::NotSpd { pivot: 9, value } if value < 0.0));
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod right_tests {
    use super::*;
    use cholcomm_cachesim::{CountingTracer, NullTracer};
    use cholcomm_layout::{Blocked, ColMajor};
    use cholcomm_matrix::schedule::MemTiles;
    use cholcomm_matrix::{matrix_digest, norms, spd};

    #[test]
    fn right_looking_blocked_factors_correctly() {
        let n = 28;
        let mut rng = spd::test_rng(55);
        let a = spd::random_spd(n, &mut rng);
        for b in [4usize, 7, 8, 28] {
            let mut laid = Laid::from_matrix(&a, ColMajor::square(n));
            potrf_blocked_right_with(&mut laid, &mut NullTracer, b, None, KernelImpl::Reference)
                .unwrap();
            let r = norms::cholesky_residual(&a, &laid.to_matrix());
            assert!(r < norms::residual_tolerance(n), "b = {b}: {r}");
        }
    }

    #[test]
    fn right_looking_moves_more_words_than_left_looking() {
        // Same asymptotics, bigger constant: the trailing matrix is
        // rewritten every panel.  The ratio sits between 1 and ~2 for
        // square problems.
        let n = 64;
        let b = 8;
        let mut rng = spd::test_rng(56);
        let a = spd::random_spd(n, &mut rng);

        let mut left = Laid::from_matrix(&a, Blocked::square(n, b));
        let mut tl = CountingTracer::uncapped();
        potrf_blocked_with(&mut left, &mut tl, b, None, KernelImpl::Reference).unwrap();

        let mut right = Laid::from_matrix(&a, Blocked::square(n, b));
        let mut tr = CountingTracer::uncapped();
        potrf_blocked_right_with(&mut right, &mut tr, b, None, KernelImpl::Reference).unwrap();

        let (wl, wr) = (tl.stats().words as f64, tr.stats().words as f64);
        assert!(wr > wl, "right {wr} should exceed left {wl}");
        assert!(wr / wl < 2.5, "but only by a constant: {}", wr / wl);
        // Both orders hand each tile its updates in ascending k, so the
        // factors agree bit for bit ...
        let right_l = right.to_matrix().lower_triangle().unwrap();
        let left_l = left.to_matrix().lower_triangle().unwrap();
        assert_eq!(matrix_digest(&left_l), matrix_digest(&right_l));
        // ... and the traced walk is the in-memory walk.
        let mut tiles = MemTiles::from_matrix(&a, b).unwrap();
        let grid = tiles.grid;
        schedule::factor(&mut tiles, grid, 0..grid.nb(), KernelImpl::Reference).unwrap();
        let mut walked = a.clone();
        tiles.write_back(&mut walked);
        assert_eq!(matrix_digest(&right_l), matrix_digest(&walked));
    }

    #[test]
    #[should_panic(expected = "3 b^2 <= M")]
    fn oversized_block_is_rejected_by_the_right_looking_variant_too() {
        let mut laid = Laid::<f64, _>::from_matrix(&Matrix::identity(8), ColMajor::square(8));
        let kernel = KernelImpl::Reference;
        let _ = potrf_blocked_right_with(&mut laid, &mut NullTracer, 4, Some(16), kernel);
    }

    #[test]
    fn both_blocked_variants_agree_bitwise() {
        let n = 24;
        let b = 8;
        let mut rng = spd::test_rng(57);
        let a = spd::random_spd(n, &mut rng);
        let mut l1 = Laid::from_matrix(&a, ColMajor::square(n));
        potrf_blocked_with(&mut l1, &mut NullTracer, b, None, KernelImpl::Reference).unwrap();
        let mut l2 = Laid::from_matrix(&a, ColMajor::square(n));
        potrf_blocked_right_with(&mut l2, &mut NullTracer, b, None, KernelImpl::Reference).unwrap();
        assert_eq!(
            matrix_digest(&l1.to_matrix().lower_triangle().unwrap()),
            matrix_digest(&l2.to_matrix().lower_triangle().unwrap()),
        );
    }
}
