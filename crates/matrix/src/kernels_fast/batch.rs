//! Batched microkernels over an interleaved [`BatchPack`] layout.
//!
//! **What this is for now.**  The serve layer once factored every size
//! bucket here, lane-interleaved and padded to the bucket's order.  That
//! lost to factoring the members one after another on the per-request
//! engine at every order the service batches (1.1–3.1x at orders 8–32,
//! the most at 24, where padding to 32 costs 2.4x the flops), so
//! `serve::engine::factor_batch` now does exactly that.  The pack stays
//! as the subject of perfbench's `matrix.batch.lane_speedup` probe (32
//! strict lanes of order 32 against 32 per-request factorizations),
//! which is the standing evidence for that decision.
//!
//! **Layout.**  A [`BatchPack`] stores element `(i, j)` of system `s` at
//! `data[((j * rows) + i) * stride + s]` — column-major per system with
//! the *system index innermost*, so every per-element operation of the
//! factorization is a contiguous sweep across `stride` lanes.  `stride`
//! is `batch` rounded up to [`BATCH_LANES`]; padding lanes hold identity
//! systems, whose Cholesky factor is the identity, so they are
//! arithmetically inert and never NaN.
//!
//! **Bit-identity.**  In [`BatchMode::Strict`], every lane performs the
//! *identical per-element operation sequence* as the sequential
//! reference path (`crate::kernels::potf2` and the blocked left-looking
//! schedule built from `syrk`/`gemm_nt`/`trsm`): updates accumulate in
//! ascending `k` with one individually-rounded multiply and subtract per
//! step, then one square root or division.  Lanes never interact, so a
//! system's bits are independent of the batch it rides in.
//!
//! **Padding.**  Embedding an `m × m` system at the leading principal
//! block of a larger `n × n` pack, with identity on the trailing
//! diagonal and zeros off it, leaves the leading `m × m` factor
//! bit-identical to factoring the small system alone: element `(i, j)`
//! with `i, j < m` only ever reads columns `k < j < m`, rows `≥ m`
//! start zero and stay zero, and the trailing diagonal factors to ones.

use crate::dense::Matrix;
use crate::error::MatrixError;
use crate::schedule::{walk_left, TileGrid, TileOp, TileStore};
use std::convert::Infallible;

/// Lane granularity of a pack: `stride` is rounded up to a multiple of
/// this so the innermost system sweep is a whole number of SIMD-friendly
/// chunks regardless of the real batch size.
pub const BATCH_LANES: usize = 8;

/// Rounding discipline of the batched kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchMode {
    /// One individually-rounded multiply and add/subtract per update —
    /// bit-identical per system to the sequential reference path.
    Strict,
}

/// `B` same-shape systems interleaved system-innermost.
#[derive(Debug, Clone)]
pub struct BatchPack {
    rows: usize,
    cols: usize,
    batch: usize,
    stride: usize,
    data: Vec<f64>,
}

impl BatchPack {
    /// Pack `systems` (each square, of order ≤ `n`) into one `n × n`
    /// batch, each embedded at the leading principal block with identity
    /// padding on the trailing diagonal (see the module docs for why
    /// that padding is exact).  Lanes beyond `systems.len()` are full
    /// identity systems.
    pub fn pack_square(systems: &[&Matrix<f64>], n: usize) -> Result<BatchPack, MatrixError> {
        let batch = systems.len();
        let stride = batch.div_ceil(BATCH_LANES).max(1) * BATCH_LANES;
        let len = Matrix::<f64>::checked_len(n, n)?
            .checked_mul(stride)
            .ok_or(MatrixError::TooLarge { rows: n, cols: n })?;
        for sys in systems {
            if !sys.is_square() {
                return Err(MatrixError::NotSquare {
                    rows: sys.rows(),
                    cols: sys.cols(),
                });
            }
            assert!(sys.rows() <= n, "system of order {} exceeds bucket {n}", sys.rows());
        }
        let mut data = vec![0.0f64; len];
        // Identity everywhere first — padding lanes and the trailing
        // diagonal of every short system.  Each real system's copy then
        // overwrites its leading principal block (diagonal included);
        // below and to the right of it the zeros/ones stay, which is
        // exactly the inert identity embedding.
        for j in 0..n {
            data[((j * n) + j) * stride..][..stride].fill(1.0);
        }
        for (s, sys) in systems.iter().enumerate() {
            let m = sys.rows();
            for j in 0..m {
                for (i, &v) in sys.col(j).iter().enumerate() {
                    data[((j * n) + i) * stride + s] = v;
                }
            }
        }
        Ok(BatchPack {
            rows: n,
            cols: n,
            batch,
            stride,
            data,
        })
    }

    /// An empty rectangular pack (zeros), for kernel outputs in tests.
    pub fn zeros(rows: usize, cols: usize, batch: usize) -> BatchPack {
        let stride = batch.div_ceil(BATCH_LANES).max(1) * BATCH_LANES;
        BatchPack {
            rows,
            cols,
            batch,
            stride,
            data: vec![0.0; rows * cols * stride],
        }
    }

    /// Per-system row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Per-system column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Real systems packed (excluding padding lanes).
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Lane stride (`batch` rounded up to [`BATCH_LANES`]).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Element `(i, j)` of system `s`.
    pub fn get(&self, i: usize, j: usize, s: usize) -> f64 {
        self.data[((j * self.rows) + i) * self.stride + s]
    }

    /// Overwrite element `(i, j)` of system `s` (test hook).
    pub fn set(&mut self, i: usize, j: usize, s: usize, v: f64) {
        self.data[((j * self.rows) + i) * self.stride + s] = v;
    }

    /// Copy of the `h × w` sub-block at `(r0, c0)`, all lanes.
    fn sub(&self, r0: usize, c0: usize, h: usize, w: usize) -> BatchPack {
        debug_assert!(r0 + h <= self.rows && c0 + w <= self.cols);
        let mut data = Vec::with_capacity(h * w * self.stride);
        for j in 0..w {
            for i in 0..h {
                let at = (((c0 + j) * self.rows) + r0 + i) * self.stride;
                data.extend_from_slice(&self.data[at..at + self.stride]);
            }
        }
        BatchPack {
            rows: h,
            cols: w,
            batch: self.batch,
            stride: self.stride,
            data,
        }
    }

    /// Write `block` back at `(r0, c0)`, all lanes.
    fn set_sub(&mut self, r0: usize, c0: usize, block: &BatchPack) {
        debug_assert_eq!(block.stride, self.stride);
        for j in 0..block.cols {
            for i in 0..block.rows {
                let src = ((j * block.rows) + i) * block.stride;
                let dst = (((c0 + j) * self.rows) + r0 + i) * self.stride;
                self.data[dst..dst + self.stride]
                    .copy_from_slice(&block.data[src..src + block.stride]);
            }
        }
    }
}

/// One lane sweep `c ← c - a * b` (`SUB`; exactly the reference
/// kernels' rounding) or `c ← c + a * b`: one multiply and one
/// add/subtract per lane, each rounded.
#[inline(always)]
fn lane_sweep<const SUB: bool>(c: &mut [f64], a: &[f64], b: &[f64], mode: BatchMode) {
    let BatchMode::Strict = mode;
    for ((x, &u), &v) in c.iter_mut().zip(a).zip(b) {
        *x = if SUB { *x - u * v } else { *x + u * v };
    }
}

/// Batched `C ← C + alpha · A · Bᵀ` — the GEMM shape of the blocked
/// Cholesky panel update (Algorithm 4 line 5), per system.
///
/// Per element this is the reference `gemm_nt` operation sequence:
/// `j` outer, `k` middle (ascending), lane-sweep inner, each update
/// `c + a * (alpha * b)` with `alpha * b` folded first — for
/// `alpha = -1` the fold is an exact negation, so strict mode is
/// bit-identical to the reference per system.
pub fn batch_gemm(c: &mut BatchPack, alpha: f64, a: &BatchPack, b: &BatchPack, mode: BatchMode) {
    assert_eq!(a.cols, b.cols, "batch_gemm: inner dimensions");
    assert_eq!(c.rows, a.rows, "batch_gemm: C rows");
    assert_eq!(c.cols, b.rows, "batch_gemm: C cols");
    assert_eq!(a.stride, c.stride, "batch_gemm: A stride");
    assert_eq!(b.stride, c.stride, "batch_gemm: B stride");
    let stride = c.stride;
    let mut bjk = vec![0.0f64; stride];
    for j in 0..c.cols {
        for k in 0..a.cols {
            let bsrc = &b.data[((k * b.rows) + j) * stride..][..stride];
            for (t, &v) in bjk.iter_mut().zip(bsrc) {
                *t = alpha * v;
            }
            for i in 0..c.rows {
                let cij = &mut c.data[((j * c.rows) + i) * stride..][..stride];
                let aik = &a.data[((k * a.rows) + i) * stride..][..stride];
                lane_sweep::<false>(cij, aik, &bjk, mode);
            }
        }
    }
}

/// Batched symmetric rank-k update on the lower triangle:
/// `C ← C - A · Aᵀ` restricted to `i ≥ j`, per system — the reference
/// `syrk_lower` operation sequence (one multiply, one subtract per
/// update, ascending `k` per element).
pub fn batch_syrk_lower(c: &mut BatchPack, a: &BatchPack, mode: BatchMode) {
    assert_eq!(c.rows, c.cols, "batch_syrk: C square");
    assert_eq!(c.rows, a.rows, "batch_syrk: dimensions");
    assert_eq!(a.stride, c.stride, "batch_syrk: stride");
    let stride = c.stride;
    let n = c.rows;
    for j in 0..n {
        for k in 0..a.cols {
            let ajk = &a.data[((k * a.rows) + j) * stride..][..stride];
            for i in j..n {
                let cij = &mut c.data[((j * n) + i) * stride..][..stride];
                let aik = &a.data[((k * a.rows) + i) * stride..][..stride];
                lane_sweep::<true>(cij, aik, ajk, mode);
            }
        }
    }
}

/// Batched triangular solve `X ← X · L⁻ᵀ` with `L` lower triangular —
/// the TRSM of the Cholesky panel step, per system, in the reference
/// operation order (columns ascending, each update one multiply and one
/// subtract, then one division per element).
pub fn batch_trsm(x: &mut BatchPack, l: &BatchPack, mode: BatchMode) {
    assert_eq!(l.rows, l.cols, "batch_trsm: L square");
    assert_eq!(x.cols, l.rows, "batch_trsm: dimensions");
    assert_eq!(l.stride, x.stride, "batch_trsm: stride");
    let stride = x.stride;
    let m = x.rows;
    for j in 0..l.rows {
        // Columns k < j of X are finished; column j is being solved.
        let (done, rest) = x.data.split_at_mut(j * m * stride);
        for k in 0..j {
            let ljk = &l.data[((k * l.rows) + j) * stride..][..stride];
            for i in 0..m {
                // x[i, j] -= x[i, k] * l[j, k], lanewise.
                let xij = &mut rest[i * stride..][..stride];
                let xik = &done[((k * m) + i) * stride..][..stride];
                lane_sweep::<true>(xij, xik, ljk, mode);
            }
        }
        let ljj = &l.data[((j * l.rows) + j) * stride..][..stride];
        for i in 0..m {
            let xij = &mut rest[i * stride..][..stride];
            for (v, &d) in xij.iter_mut().zip(ljj) {
                *v /= d;
            }
        }
    }
}

/// Batched unblocked Cholesky (`POTF2`) of every system's lower
/// triangle, in the exact reference per-element order: for each column
/// `j`, subtract the finished columns `k < j` in ascending order, check
/// the pivot, square-root, scale.
///
/// Returns one result per real system.  A non-SPD system is reported
/// with its (global) failing pivot, its pivot lane is replaced by `1.0`
/// so the lane stays numerically inert, and **all other systems are
/// unaffected** — lanes never interact.  Padding lanes are identity and
/// cannot fail.
pub fn batch_potf2(a: &mut BatchPack, mode: BatchMode) -> Vec<Result<(), MatrixError>> {
    batch_potf2_offset(a, mode, 0)
}

/// [`batch_potf2`] with pivot indices offset by `p0` (for blocked
/// callers reporting global pivots).
fn batch_potf2_offset(
    a: &mut BatchPack,
    mode: BatchMode,
    p0: usize,
) -> Vec<Result<(), MatrixError>> {
    assert_eq!(a.rows, a.cols, "batch_potf2: square systems");
    let n = a.rows;
    let stride = a.stride;
    let mut results: Vec<Result<(), MatrixError>> = vec![Ok(()); a.batch];
    for j in 0..n {
        let (done, rest) = a.data.split_at_mut(j * n * stride);
        // Column j of every system: (i, j) at rest[i * stride..].
        for k in 0..j {
            let ajk = &done[((k * n) + j) * stride..][..stride];
            // Ascending k per element, diagonal included — the
            // reference potf2 column update, lane-swept.
            for i in j..n {
                let aij = &mut rest[i * stride..][..stride];
                let aik = &done[((k * n) + i) * stride..][..stride];
                lane_sweep::<true>(aij, aik, ajk, mode);
            }
        }
        // Pivot: check, substitute failed lanes, square-root, scale.
        {
            let d = &mut rest[j * stride..][..stride];
            for (s, res) in results.iter_mut().enumerate() {
                let v = d[s];
                if v.is_finite() && v <= 0.0 {
                    if res.is_ok() {
                        *res = Err(MatrixError::NotSpd {
                            pivot: p0 + j,
                            value: v,
                        });
                    }
                    // Keep the failed lane inert (finite) without
                    // disturbing any other lane.
                    d[s] = 1.0;
                }
            }
            for v in d.iter_mut() {
                *v = v.sqrt();
            }
        }
        let (diag, below) = rest[j * stride..].split_at_mut(stride);
        for i in 0..(n - j - 1) {
            let aij = &mut below[i * stride..][..stride];
            for (v, &ljj) in aij.iter_mut().zip(diag.iter()) {
                *v /= ljj;
            }
        }
    }
    results
}

/// Batched blocked Cholesky: the left-looking walk of
/// [`crate::schedule`] over `pb`-wide panels of every lane at once, its
/// ops performed by [`batch_syrk_lower`], [`batch_gemm`], [`batch_trsm`]
/// and the [`batch_potf2`] base — the walk the serve engine's
/// `factor_resumable` runs, so in strict mode every system's factor is
/// bit-identical to the sequential path at any panel width and any batch
/// size.  A lane whose pivot fails keeps its first error and rides along
/// inert; the walk itself cannot fail.
pub fn batch_potrf(a: &mut BatchPack, pb: usize, mode: BatchMode) -> Vec<Result<(), MatrixError>> {
    assert_eq!(a.rows, a.cols, "batch_potrf: square systems");
    let grid = TileGrid::new(a.rows, pb);
    let mut results: Vec<Result<(), MatrixError>> = vec![Ok(()); a.batch];
    let mut lanes = Lanes { a, grid };
    let Ok(()) = walk_left(&mut lanes, grid.nb(), 0..grid.nb(), |op, target, operands| {
        match (op, operands) {
            (TileOp::Factor { k }, []) => {
                let tile_results = batch_potf2_offset(target, mode, k * pb);
                for (res, tile_res) in results.iter_mut().zip(tile_results) {
                    if res.is_ok() {
                        *res = tile_res;
                    }
                }
            }
            (TileOp::Solve { .. }, [diag]) => batch_trsm(target, diag, mode),
            (TileOp::Update { i, j, .. }, [li, _]) if i == j => batch_syrk_lower(target, li, mode),
            (TileOp::Update { .. }, [li, lj]) => batch_gemm(target, -1.0, li, lj, mode),
            _ => unreachable!("{op:?} handed {} operand tile(s)", operands.len()),
        }
        Ok(())
    });
    results
}

/// The pack as a tile store: a tile is the same block of every lane.
struct Lanes<'a> {
    a: &'a mut BatchPack,
    grid: TileGrid,
}

impl TileStore for Lanes<'_> {
    type Tile = BatchPack;
    type Error = Infallible;

    fn get(&mut self, i: usize, j: usize) -> Result<BatchPack, Infallible> {
        let TileGrid { b, .. } = self.grid;
        Ok(self.a.sub(i * b, j * b, self.grid.dim(i), self.grid.dim(j)))
    }

    fn put(&mut self, i: usize, j: usize, tile: BatchPack) -> Result<(), Infallible> {
        let TileGrid { b, .. } = self.grid;
        self.a.set_sub(i * b, j * b, &tile);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::lower_digest;
    use crate::kernels;
    use crate::spd;

    fn sample(n: usize, seed: u64) -> Matrix<f64> {
        spd::random_spd(n, &mut spd::test_rng(seed))
    }

    /// The leading `h × w` block of system `s`.
    fn extract(pack: &BatchPack, s: usize, h: usize, w: usize) -> Matrix<f64> {
        assert!(s < pack.batch() && h <= pack.rows() && w <= pack.cols());
        Matrix::from_fn(h, w, |i, j| pack.get(i, j, s))
    }

    /// Reference bits: the sequential unblocked factorization.
    fn reference_bits(a: &Matrix<f64>) -> u64 {
        let mut f = a.clone();
        kernels::potf2(&mut f).expect("spd");
        lower_digest(&f)
    }

    #[test]
    fn pack_extract_roundtrip_with_identity_padding() {
        let systems: Vec<Matrix<f64>> = vec![sample(5, 1), sample(3, 2), sample(5, 3)];
        let refs: Vec<&Matrix<f64>> = systems.iter().collect();
        let pack = BatchPack::pack_square(&refs, 8).expect("pack");
        assert_eq!(pack.batch(), 3);
        assert_eq!(pack.stride(), 8);
        for (s, sys) in systems.iter().enumerate() {
            let got = extract(&pack, s, sys.rows(), sys.rows());
            assert_eq!(&got, sys, "system {s}");
        }
        // Trailing diagonal of a short system is identity; off-diagonal
        // padding is zero.
        assert_eq!(pack.get(4, 4, 1), 1.0);
        assert_eq!(pack.get(4, 1, 1), 0.0);
        assert_eq!(pack.get(1, 6, 0), 0.0);
    }

    #[test]
    fn strict_batch_potrf_is_bit_identical_per_system_to_sequential() {
        // Mixed sizes in one bucket, batch sizes crossing the lane width.
        for &batch in &[1usize, 2, 8, 32] {
            let systems: Vec<Matrix<f64>> = (0..batch)
                .map(|s| sample(8 + 8 * (s % 4), 100 + s as u64))
                .collect();
            let refs: Vec<&Matrix<f64>> = systems.iter().collect();
            let mut pack = BatchPack::pack_square(&refs, 32).expect("pack");
            let results = batch_potrf(&mut pack, 16, BatchMode::Strict);
            for (s, sys) in systems.iter().enumerate() {
                assert!(results[s].is_ok(), "system {s}");
                let got = extract(&pack, s, sys.rows(), sys.rows());
                assert_eq!(
                    lower_digest(&got),
                    reference_bits(sys),
                    "batch={batch} system={s} n={}",
                    sys.rows()
                );
            }
        }
    }

    #[test]
    fn blocked_and_unblocked_batches_agree_bitwise() {
        let systems: Vec<Matrix<f64>> = (0..5).map(|s| sample(24, 200 + s)).collect();
        let refs: Vec<&Matrix<f64>> = systems.iter().collect();
        let mut blocked = BatchPack::pack_square(&refs, 24).expect("pack");
        let mut unblocked = blocked.clone();
        assert!(batch_potrf(&mut blocked, 8, BatchMode::Strict).iter().all(Result::is_ok));
        assert!(batch_potf2(&mut unblocked, BatchMode::Strict).iter().all(Result::is_ok));
        for s in 0..systems.len() {
            assert_eq!(
                lower_digest(&extract(&blocked, s, 24, 24)),
                lower_digest(&extract(&unblocked, s, 24, 24)),
                "system {s}"
            );
        }
    }

    #[test]
    fn non_spd_system_fails_alone_with_its_pivot() {
        let good0 = sample(6, 7);
        // Poison one diagonal entry so the pivot at column 3 (or an
        // earlier one its updates touch) goes non-positive.
        let mut bad = sample(6, 8);
        bad.set_submatrix(3, 3, &Matrix::from_fn(1, 1, |_, _| -100.0));
        let good1 = sample(6, 9);
        let refs: Vec<&Matrix<f64>> = vec![&good0, &bad, &good1];
        let mut pack = BatchPack::pack_square(&refs, 8).expect("pack");
        let results = batch_potrf(&mut pack, 4, BatchMode::Strict);
        assert!(results[0].is_ok());
        assert!(
            matches!(results[1], Err(MatrixError::NotSpd { pivot, .. }) if pivot <= 3),
            "got {:?}",
            results[1]
        );
        assert!(results[2].is_ok());
        // The good systems' bits are untouched by the failure next lane.
        assert_eq!(lower_digest(&extract(&pack, 0, 6, 6)), reference_bits(&good0));
        assert_eq!(lower_digest(&extract(&pack, 2, 6, 6)), reference_bits(&good1));
    }

    #[test]
    fn batch_gemm_and_trsm_match_reference_kernels_bitwise() {
        let m = 5;
        let nn = 4;
        let kdim = 3;
        let mk = |rows: usize, cols: usize, seed: u64| {
            let mut rng = spd::test_rng(seed);
            let g = spd::random_spd(rows.max(cols), &mut rng);
            Matrix::from_fn(rows, cols, |i, j| g[(i, j)] - 0.3)
        };
        let (c0, a0, b0) = (mk(m, nn, 1), mk(m, kdim, 2), mk(nn, kdim, 3));
        // Reference.
        let mut want = c0.clone();
        kernels::gemm_nt(&mut want, -1.0, &a0, &b0);
        // Batched: two lanes carrying the same operands must both match.
        let mut c = BatchPack::zeros(m, nn, 2);
        let mut a = BatchPack::zeros(m, kdim, 2);
        let mut b = BatchPack::zeros(nn, kdim, 2);
        for s in 0..2 {
            for j in 0..nn {
                for i in 0..m {
                    c.set(i, j, s, c0[(i, j)]);
                }
            }
            for j in 0..kdim {
                for i in 0..m {
                    a.set(i, j, s, a0[(i, j)]);
                }
                for i in 0..nn {
                    b.set(i, j, s, b0[(i, j)]);
                }
            }
        }
        batch_gemm(&mut c, -1.0, &a, &b, BatchMode::Strict);
        for s in 0..2 {
            assert_eq!(extract(&c, s, m, nn), want, "gemm lane {s}");
        }

        // TRSM against a factored diagonal block.
        let mut l = sample(nn, 4);
        kernels::potf2(&mut l).expect("spd");
        let mut want_x = c0.clone();
        kernels::trsm_right_lower_transpose(&mut want_x, &l);
        let mut x = BatchPack::zeros(m, nn, 2);
        let mut lp = BatchPack::zeros(nn, nn, 2);
        for s in 0..2 {
            for j in 0..nn {
                for i in 0..m {
                    x.set(i, j, s, c0[(i, j)]);
                }
                for i in 0..nn {
                    lp.set(i, j, s, l[(i, j)]);
                }
            }
        }
        batch_trsm(&mut x, &lp, BatchMode::Strict);
        for s in 0..2 {
            assert_eq!(extract(&x, s, m, nn), want_x, "trsm lane {s}");
        }
    }

    #[test]
    fn n_equals_one_systems_batch() {
        let sys: Vec<Matrix<f64>> = (1..=4)
            .map(|s| Matrix::from_fn(1, 1, |_, _| (s * s) as f64))
            .collect();
        let refs: Vec<&Matrix<f64>> = sys.iter().collect();
        let mut p = BatchPack::pack_square(&refs, 1).expect("pack");
        let results = batch_potrf(&mut p, 16, BatchMode::Strict);
        assert!(results.iter().all(Result::is_ok));
        // sqrt((s+1)²) == s+1 exactly.
        for s in 0..4 {
            assert_eq!(extract(&p, s, 1, 1)[(0, 0)], (s + 1) as f64);
        }
    }
}
