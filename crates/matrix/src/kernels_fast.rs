//! Packed, cache-blocked, register-tiled `f64` BLAS-3 kernels — the
//! "fast engine" behind [`crate::engine::KernelImpl::Fast`] and
//! [`crate::engine::KernelImpl::FastStrict`].
//!
//! The reference kernels in [`crate::kernels`] are deliberately verbatim
//! triple loops; these are the same *operations in the same per-element
//! order* restructured the way a Goto/BLIS-style GEMM restructures them:
//!
//! * operands are **packed** into contiguous buffers sized to the block
//!   parameters ([`MC`]`x`[`KC`] panels of `A` in strips of [`MR`] rows,
//!   [`KC`]`x`[`NC`] panels of `B` in strips of [`NR`] columns), so the
//!   innermost loop streams two linear arrays with no strides and no
//!   per-element bounds checks;
//! * the innermost loop computes an [`MR`]`x`[`NR`] **register tile** of
//!   `C`: hand-written AVX-512 intrinsics keep all accumulators in
//!   vector registers, loaded from and stored to `C` itself (LLVM spills
//!   the generic tile body to memory), with a portable generic fallback;
//!   the variant is selected by runtime feature detection;
//! * an operand that is final and read many times — a solved panel tile
//!   of the blocked Cholesky — is packed **once**, as a [`PackedTile`],
//!   and [`gemm_nt_packed`] runs the micro-kernel straight over two of
//!   them: one layout serves both sides of `C -= A * B^T`.
//!
//! The engine has two numeric modes sharing all of this machinery:
//!
//! * **strict** (the module-level functions, [`KernelImpl::FastStrict`]):
//!   every multiply and add is an individually rounded IEEE-754
//!   operation (vectors widen the loop, FMA contraction is never
//!   enabled), and each `C` element accumulates its `k`-contributions in
//!   ascending order with the identical `c + a * (alpha * b)` sequence
//!   of the reference kernel — so every result is **bit-identical** to
//!   its reference counterpart (property-tested in
//!   `tests/kernel_engine.rs`).
//! * **fused** (the [`fused`] submodule, [`KernelImpl::Fast`]): the same
//!   loops with `mul_add`, letting hardware FMA contract `a*b + c` into
//!   one rounding.  The per-element operation *order* is unchanged —
//!   only the intermediate product's rounding is skipped — so the result
//!   differs from the reference by a normwise-tiny contraction residual
//!   (and is, if anything, more accurate).  On hardware without FMA the
//!   fused mode falls back to the strict kernels and is then exactly
//!   bit-identical too.
//!
//! **Parallelism.**  Large operations fan their macro-tile grids onto
//! the vendored-rayon work-stealing pool (see [`crate::parallel`] for
//! the gating): the `k` (depth) loop stays sequential and ascending
//! while the disjoint `(MC row-block, column-chunk)` tiles of `C` run
//! as stolen tasks, each packing its own operands into its *worker's*
//! thread-local scratch.  Because every `C` element still accumulates
//! its `k`-contributions in exactly the sequential order inside exactly
//! one task per depth step, the strict mode stays bit-identical to the
//! reference at **every** thread count and under **every** steal order;
//! the fused mode is equally partition-independent (its only deviation
//! from strict is per-operation FMA contraction, which does not care
//! which worker runs the tile).
//!
//! **Triangular kernels.**  `trsm` and `potf2` are the AP00-style
//! recursions (`trsm_rec`, `potrf_rec`: split at a multiple of [`PB`],
//! recurse left, apply the left half to the right through the packed GEMM
//! engine, recurse right) down to panels of at most [`PB`] columns.  The
//! base cases do not go through the micro-kernel — their `k` extent grows
//! with the column — but they run from registers all the same: a column
//! of a block of rows is loaded into a fixed-size accumulator, takes
//! `acc <- acc - x_k * l_jk` for ascending `k < j` reading only the
//! finished column `x_k` from L1, is divided by `l_jj` (after its `sqrt`,
//! in `potf2`) and is stored once — one word moved per multiply-add
//! instead of the three of a column-at-a-time `axpy`.  Each body is
//! generic over the mode and compiled once per vector ISA (`in_panel`);
//! the per-element sequence is the reference kernel's, so strict stays
//! bit-identical and a failing pivot leaves the same bytes behind.
//! Neither kernel reads or writes anything above the diagonal of `L`.
//! The in-panel solves parallelise over row chunks — rows of a
//! right-solve are mutually independent — with the same order argument.
//!
//! Only `f64` is provided: the starred scalars of the paper's reduction
//! run through the reference kernels (their arithmetic is branchy and
//! never the wall-clock bottleneck).
//!
//! [`KernelImpl::Fast`]: crate::engine::KernelImpl::Fast
//! [`KernelImpl::FastStrict`]: crate::engine::KernelImpl::FastStrict

use crate::dense::Matrix;
use crate::error::MatrixError;

/// Register-tile rows (`C` micro-tile height; two AVX-512 vectors).
pub const MR: usize = 16;
/// Register-tile columns (`C` micro-tile width).
pub const NR: usize = 8;
/// Rows of the packed `A` block (`A` panel cache-resident in L2).
pub const MC: usize = 128;
/// Depth of the packed `A`/`B` blocks (the `k` extent per pass).
pub const KC: usize = 256;
/// Columns of the packed `B` block.
pub const NC: usize = 512;
/// Panel width at which the recursive TRSM/POTRF drivers stop splitting.
/// The in-panel base cases read one operand word per multiply-add where
/// the packed micro-kernel reads a fifth of one, so their flop share
/// (proportional to `PB`) is kept small; 16 leaves too little per call
/// and 64 loses on every probe (EXPERIMENTS.md E22).
pub const PB: usize = 32;

/// Numeric mode: strict keeps reference rounding, fused lets FMA
/// contract multiply-add pairs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Strict,
    Fused,
}

/// Which `B` element feeds `C(i, j)` at depth `k`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum BOp {
    /// `B(k, j)` — plain `C += A * B`.
    N,
    /// `B(j, k)` — `C += A * B^T` (the Cholesky update shape).
    T,
}

/// A read-only column-major region: element `(i, j)` is `data[i + j * ld]`.
#[derive(Clone, Copy)]
struct V<'a> {
    data: &'a [f64],
    ld: usize,
}

impl<'a> V<'a> {
    #[inline]
    fn at(&self, i: usize, j: usize) -> f64 {
        self.data[i + j * self.ld]
    }
}

/// Scratch buffers for the packed panels, reused across blocks of one
/// kernel invocation — and across invocations via [`with_pack`], so
/// recursive drivers issuing many small GEMMs do not pay a fresh
/// 1.3 MB zero-initialised allocation per call.
struct Pack {
    pa: Vec<f64>,
    pb: Vec<f64>,
}

impl Pack {
    fn new() -> Self {
        Pack {
            pa: vec![0.0; MC * KC],
            pb: vec![0.0; KC * NC],
        }
    }
}

std::thread_local! {
    static PACK: std::cell::RefCell<Pack> = std::cell::RefCell::new(Pack::new());
}

/// Run `f` with this thread's packing scratch.  The pack routines fully
/// overwrite (and zero-pad) every strip a macro-tile reads, so stale
/// contents from a previous invocation are never observed.
///
/// Under pool execution the scratch is *per worker*, sized for the
/// largest macro-tile ([`MC`]`x`[`KC`] + [`KC`]`x`[`NC`], the maximum
/// any single task packs), and owned exclusively for the duration of
/// `f`: a leaf task packs and consumes its tiles entirely inside one
/// `with_pack`, and never forks while holding it — if a stolen
/// continuation ever re-entered the scratch mid-use, the `RefCell`
/// would already be borrowed and this assertion fires instead of
/// silently corrupting packed panels.
fn with_pack<R>(f: impl FnOnce(&mut Pack) -> R) -> R {
    PACK.with(|p| {
        let mut pack = p.try_borrow_mut().expect(
            "packing scratch aliased: with_pack re-entered on one worker \
             (a task must not fork while holding the pack buffers)",
        );
        f(&mut pack)
    })
}

/// Pack the `mc x kc` block of `A` at `(row0 + ic, pc)` into `MR`-row
/// strips: strip `ir` holds `pa[ir*kc*MR + k*MR + ii] = A(ic + ir*MR + ii,
/// pc + k)`, zero-padded past `mc`.
#[allow(clippy::too_many_arguments)]
fn pack_a(pa: &mut [f64], a: V<'_>, row0: usize, ic: usize, mc: usize, pc: usize, kc: usize) {
    let strips = mc.div_ceil(MR);
    // The worker-local scratch is sized for the largest concurrent
    // macro-tile; a block that would not fit means the planner handed
    // this task more than one task's share.
    debug_assert!(
        mc <= MC && kc <= KC && strips * kc * MR <= pa.len(),
        "packed A block {mc}x{kc} exceeds per-worker scratch"
    );
    for ir in 0..strips {
        let base = ir * kc * MR;
        let i0 = ic + ir * MR;
        let mr = (mc - ir * MR).min(MR);
        for k in 0..kc {
            let dst = &mut pa[base + k * MR..base + k * MR + MR];
            let col = &a.data[row0 + (pc + k) * a.ld..];
            for (ii, d) in dst.iter_mut().enumerate() {
                *d = if ii < mr { col[i0 + ii] } else { 0.0 };
            }
        }
    }
}

/// Pack the `kc x nc` block of `op(B)` feeding `C` columns `jc..jc+nc`
/// at depths `pc..pc+kc` into `NR`-column strips, scaled by `alpha`:
/// `pb[jr*kc*NR + k*NR + jj] = alpha * op(B)(pc + k, jc + jr*NR + jj)`.
/// The `alpha` multiply happens here, once per element, exactly as the
/// reference kernels hoist `alpha * b` out of their inner loop.
#[allow(clippy::too_many_arguments)]
fn pack_b(
    pb: &mut [f64],
    b: V<'_>,
    op: BOp,
    row0: usize,
    alpha: f64,
    jc: usize,
    nc: usize,
    pc: usize,
    kc: usize,
) {
    let strips = nc.div_ceil(NR);
    debug_assert!(
        nc <= NC && kc <= KC && strips * kc * NR <= pb.len(),
        "packed B block {kc}x{nc} exceeds per-worker scratch"
    );
    for jr in 0..strips {
        let base = jr * kc * NR;
        let j0 = jc + jr * NR;
        let nr = (nc - jr * NR).min(NR);
        for k in 0..kc {
            let dst = &mut pb[base + k * NR..base + k * NR + NR];
            for (jj, d) in dst.iter_mut().enumerate() {
                *d = if jj < nr {
                    match op {
                        BOp::N => alpha * b.at(pc + k, j0 + jj),
                        BOp::T => alpha * b.at(row0 + j0 + jj, pc + k),
                    }
                } else {
                    0.0
                };
            }
        }
    }
}

/// A tile in the micro-panel layout the micro-kernel streams, packed
/// once and read by every update that takes the tile as an operand.
///
/// The layout is [`pack_a`]'s: `MR`-row strips, strip `s` holding
/// `data[(s * cols + k) * MR + ii] = T(s * MR + ii, k)`, zero past the
/// last row.  One layout serves **both** operands of `C -= A * B^T`: the
/// `NR = MR / 2` rows of `B` a micro-tile needs are the low or high half
/// of an `MR`-row strip, read at stride `MR`.  Nothing is scaled at pack
/// time — the update subtracts in the micro-kernel instead — so a tile is
/// packed the same way whichever side it will be read from.
///
/// A packed tile is at most one [`MC`]`x`[`KC`] block ([`fits`]): one
/// macro-tile multiplies it with no further cache blocking.
///
/// [`fits`]: Self::fits
#[derive(Debug, Clone, Default)]
pub struct PackedTile {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl PackedTile {
    /// Whether a `rows x cols` tile is small enough to be kept packed.
    pub fn fits(rows: usize, cols: usize) -> bool {
        rows <= MC && cols <= KC
    }

    /// Pack `tile`, reusing this value's buffer.
    pub fn pack(&mut self, tile: &Matrix<f64>) {
        self.rows = tile.rows();
        self.cols = tile.cols();
        self.data.resize(Self::packed_len(tile), 0.0);
        Self::pack_strips(&mut self.data, tile);
    }

    /// The packed form of `tile`, in `tile`'s own storage: the packed
    /// form *replaces* the plain one, no second copy is ever resident.
    /// With whole strips (`rows` a multiple of `MR`) the packed form is a
    /// permutation of the plain one, carried out in place; otherwise the
    /// strips are laid out in this thread's packing scratch and copied
    /// back.
    pub fn replacing(tile: Matrix<f64>) -> Self {
        let (rows, cols) = (tile.rows(), tile.cols());
        let len = Self::packed_len(&tile);
        if rows % MR == 0 {
            let mut data = tile.into_vec();
            transpose_runs(&mut data, cols, rows / MR);
            return PackedTile { rows, cols, data };
        }
        let data = with_pack(|pack| {
            let strips = &mut pack.pa[..len];
            Self::pack_strips(strips, &tile);
            let mut data = tile.into_vec();
            data.clear();
            data.extend_from_slice(strips);
            data
        });
        PackedTile { rows, cols, data }
    }

    /// Elements of the packed form of `tile`, which must fit one block.
    fn packed_len(tile: &Matrix<f64>) -> usize {
        let (rows, cols) = (tile.rows(), tile.cols());
        assert!(Self::fits(rows, cols), "{rows}x{cols} tile exceeds one packed block");
        rows.div_ceil(MR) * cols * MR
    }

    fn pack_strips(data: &mut [f64], tile: &Matrix<f64>) {
        let (rows, cols) = (tile.rows(), tile.cols());
        if cols == 0 {
            return;
        }
        for (s, strip) in data.chunks_exact_mut(cols * MR).enumerate() {
            let i0 = s * MR;
            let mr = (rows - i0).min(MR);
            for (k, dst) in strip.chunks_exact_mut(MR).enumerate() {
                dst[..mr].copy_from_slice(&tile.col(k)[i0..i0 + mr]);
                dst[mr..].fill(0.0);
            }
        }
    }

    /// Rows of the tile.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the tile (the depth of an update reading it).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Write the tile over the region of `a` whose top-left corner is
    /// `(i0, j0)` — [`Matrix::set_submatrix`] for a packed block.
    pub fn unpack_into(&self, a: &mut Matrix<f64>, i0: usize, j0: usize) {
        assert!(
            i0 + self.rows <= a.rows() && j0 + self.cols <= a.cols(),
            "unpack_into out of range"
        );
        if !self.data.is_empty() {
            let ld = a.rows();
            self.unpack_to_cols(&mut a.as_mut_slice()[i0 + j0 * ld..], ld);
        }
    }

    /// [`Matrix::copy_to_cols`] for a packed tile: column `k` goes to
    /// `window[k * ld..k * ld + rows]`.  Column-outer, so every column of
    /// the target is written as one contiguous run gathered from the
    /// strips; strip-outer would write `MR` elements per column and come
    /// back to the same column `cols * MR` elements later — in a matrix of
    /// order 2048 that is a new page for every 128 bytes written.
    pub fn unpack_to_cols(&self, window: &mut [f64], ld: usize) {
        if self.data.is_empty() {
            return;
        }
        assert!(
            self.rows <= ld && (self.cols - 1) * ld + self.rows <= window.len(),
            "unpack_to_cols out of range"
        );
        let strip_len = self.cols * MR;
        for (k, col) in window.chunks_mut(ld).take(self.cols).enumerate() {
            for (s, dst) in col[..self.rows].chunks_mut(MR).enumerate() {
                let src = s * strip_len + k * MR;
                dst.copy_from_slice(&self.data[src..src + dst.len()]);
            }
        }
    }

    /// The tile as a plain column-major matrix.
    pub fn unpack(&self) -> Matrix<f64> {
        let mut tile = Matrix::zeros(self.rows, self.cols);
        self.unpack_into(&mut tile, 0, 0);
        tile
    }
}

/// Transpose, in place, a `m x n` row-major grid of `MR`-element runs
/// into `n x m`: for a column-major tile of `n` whole strips and `m`
/// columns, run `(column k, strip s)` moves to `(s, k)` — the packed
/// layout.  Each run moves once, along the cycles of the permutation,
/// with one run in hand.
fn transpose_runs(data: &mut [f64], m: usize, n: usize) {
    let total = m * n;
    debug_assert_eq!(data.len(), total * MR);
    let mut moved = vec![0u64; total.div_ceil(64)];
    for start in 0..total {
        if moved[start / 64] >> (start % 64) & 1 == 1 {
            continue;
        }
        let mut carry: [f64; MR] = data[start * MR..][..MR].try_into().expect("MR elements");
        let mut at = start;
        loop {
            moved[at / 64] |= 1 << (at % 64);
            let to = (at % n) * m + at / n;
            let run: &mut [f64; MR] = (&mut data[to * MR..][..MR])
                .try_into()
                .expect("MR elements");
            std::mem::swap(&mut carry, run);
            at = to;
            if at == start {
                break;
            }
        }
    }
}

/// One `MR x NR` micro-tile of `C`, column-major (`acc[jj][ii]`).
type Acc = [[f64; MR]; NR];

/// The register-tiled micro-kernel, portable form: `acc (+|-)= a * b^T`
/// over `kc` depth steps, where depth step `k` reads the `MR` values at
/// `pa[k * MR..]` and the `NR` values at `pb[k * ldb..]`.  `SUB` selects
/// `c - a * b` over `c + a * b`; `FUSED` contracts either into one FMA.
/// The accumulator tile matches `C`'s layout, so the `ii` loop vectorizes
/// over one contiguous register per column with `pb`'s element broadcast.
#[inline(always)]
fn micro_kernel_body<const FUSED: bool, const SUB: bool>(
    kc: usize,
    pa: &[f64],
    pb: &[f64],
    ldb: usize,
    acc: &mut Acc,
) {
    for (av, bv) in pa.chunks_exact(MR).zip(pb.chunks(ldb)).take(kc) {
        for (accj, &bkj) in acc.iter_mut().zip(&bv[..NR]) {
            for (acc_e, &aik) in accj.iter_mut().zip(av) {
                *acc_e = match (FUSED, SUB) {
                    (true, false) => aik.mul_add(bkj, *acc_e),
                    (true, true) => (-aik).mul_add(bkj, *acc_e),
                    (false, false) => *acc_e + aik * bkj,
                    (false, true) => *acc_e - aik * bkj,
                };
            }
        }
    }
}

/// Hand-vectorized AVX-512 micro-kernel (LLVM keeps the generic body's
/// accumulators in memory instead of registers, costing ~10x, so the hot
/// variant is written with explicit intrinsics: the `C` tile is 16
/// accumulator `zmm` registers — two per column — loaded from and stored
/// to `C` itself, with one broadcast of `pb` per column per depth step).
/// The strict variants multiply and add in two individually rounded
/// instructions; the fused variants contract them into one FMA.  Narrower
/// machines fall back to the autovectorized generic body.
#[cfg(target_arch = "x86_64")]
mod mk_x86 {
    use super::{micro_kernel_body, Acc, MR, NR};
    use std::arch::x86_64::*;

    /// `C (+|-)= a * b^T` on the full `MR x NR` micro-tile at `c`
    /// (column `jj` at `c + jj * ldc`), operands as in
    /// [`micro_kernel_body`].
    ///
    /// # Safety
    /// Caller must have detected `avx512f` and `fma`; `pa` must hold
    /// `kc * MR` elements, `pb` `(kc - 1) * ldb + NR`, and every column
    /// `c + jj * ldc`, `jj < NR`, `MR` elements the caller may write.
    #[target_feature(enable = "avx512f,fma")]
    pub unsafe fn avx512<const FUSED: bool, const SUB: bool>(
        kc: usize,
        pa: *const f64,
        pb: *const f64,
        ldb: usize,
        c: *mut f64,
        ldc: usize,
    ) {
        let mut lo = [_mm512_setzero_pd(); NR];
        let mut hi = [_mm512_setzero_pd(); NR];
        for (j, (l, h)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
            *l = _mm512_loadu_pd(c.add(j * ldc));
            *h = _mm512_loadu_pd(c.add(j * ldc + 8));
        }
        let (mut pap, mut pbp) = (pa, pb);
        for _ in 0..kc {
            let va = _mm512_loadu_pd(pap);
            let vb = _mm512_loadu_pd(pap.add(8));
            for (j, (l, h)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
                let s = _mm512_set1_pd(*pbp.add(j));
                (*l, *h) = match (FUSED, SUB) {
                    (true, false) => (_mm512_fmadd_pd(va, s, *l), _mm512_fmadd_pd(vb, s, *h)),
                    (true, true) => (_mm512_fnmadd_pd(va, s, *l), _mm512_fnmadd_pd(vb, s, *h)),
                    // Strict: separate multiply and add/subtract, each
                    // rounded individually, exactly like the reference
                    // kernel's `c + a * b` (of which `c - a * b` is the
                    // `b -> -b` case bit for bit: negation is exact).
                    (false, false) => (
                        _mm512_add_pd(*l, _mm512_mul_pd(va, s)),
                        _mm512_add_pd(*h, _mm512_mul_pd(vb, s)),
                    ),
                    (false, true) => (
                        _mm512_sub_pd(*l, _mm512_mul_pd(va, s)),
                        _mm512_sub_pd(*h, _mm512_mul_pd(vb, s)),
                    ),
                };
            }
            pap = pap.add(MR);
            pbp = pbp.add(ldb);
        }
        for (j, (l, h)) in lo.iter().zip(hi.iter()).enumerate() {
            _mm512_storeu_pd(c.add(j * ldc), *l);
            _mm512_storeu_pd(c.add(j * ldc + 8), *h);
        }
    }

    /// # Safety
    /// Caller must have detected `avx`.
    #[target_feature(enable = "avx")]
    pub unsafe fn strict_avx<const SUB: bool>(
        kc: usize,
        pa: &[f64],
        pb: &[f64],
        ldb: usize,
        acc: &mut Acc,
    ) {
        micro_kernel_body::<false, SUB>(kc, pa, pb, ldb, acc);
    }

    /// # Safety
    /// Caller must have detected `avx2` and `fma`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn fused_avx2<const SUB: bool>(
        kc: usize,
        pa: &[f64],
        pb: &[f64],
        ldb: usize,
        acc: &mut Acc,
    ) {
        micro_kernel_body::<true, SUB>(kc, pa, pb, ldb, acc);
    }
}

/// The `kc`-deep operands of one micro-tile: an `MR`-row strip of `A`
/// (depth step `k` at `pa[k * MR..]`) and `NR` rows of `B` (depth step
/// `k` at `pb[k * ldb..]`).
#[derive(Clone, Copy)]
struct Strips<'a> {
    kc: usize,
    pa: &'a [f64],
    pb: &'a [f64],
    ldb: usize,
}

impl Strips<'_> {
    /// The lengths every micro-kernel variant reads.
    #[inline]
    fn check(&self) {
        assert!(
            self.pa.len() >= self.kc * MR
                && (self.kc == 0 || self.pb.len() >= (self.kc - 1) * self.ldb + NR),
            "micro-kernel operands shorter than their depth"
        );
    }

    /// Run the in-register AVX-512 kernel on the `MR x NR` tile at `c`,
    /// if this machine has it; `false` means nothing was done.
    ///
    /// # Safety
    /// [`check`](Self::check) passed, and every column `c + jj * ldc`,
    /// `jj < NR`, is `MR` elements the caller may write.
    #[inline]
    unsafe fn run_avx512<const SUB: bool>(&self, mode: Mode, c: *mut f64, ldc: usize) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as det;
            if det!("avx512f") && det!("fma") {
                let Strips { kc, pa, pb, ldb } = *self;
                let (pa, pb) = (pa.as_ptr(), pb.as_ptr());
                // SAFETY: features detected; the rest is the caller's.
                unsafe {
                    match mode {
                        Mode::Fused => mk_x86::avx512::<true, SUB>(kc, pa, pb, ldb, c, ldc),
                        Mode::Strict => mk_x86::avx512::<false, SUB>(kc, pa, pb, ldb, c, ldc),
                    }
                }
                return true;
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = (mode, c, ldc);
        false
    }

    /// `acc (+|-)= a * b^T` on a micro-tile held in a stack array — the
    /// path of ragged and diagonal edge tiles, whose `C` cells are not a
    /// full `MR x NR` rectangle.
    #[inline]
    fn run_on_acc<const SUB: bool>(&self, mode: Mode, acc: &mut Acc) {
        self.check();
        // SAFETY: lengths checked; `acc` is a full tile with leading
        // dimension MR.
        if unsafe { self.run_avx512::<SUB>(mode, acc.as_mut_ptr().cast(), MR) } {
            return;
        }
        let Strips { kc, pa, pb, ldb } = *self;
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as det;
            // SAFETY: each variant is called only after detecting its features.
            unsafe {
                if mode == Mode::Fused && det!("fma") && det!("avx2") {
                    return mk_x86::fused_avx2::<SUB>(kc, pa, pb, ldb, acc);
                }
                if det!("avx") {
                    return mk_x86::strict_avx::<SUB>(kc, pa, pb, ldb, acc);
                }
            }
        }
        micro_kernel_body::<false, SUB>(kc, pa, pb, ldb, acc);
    }

    /// `C (+|-)= a * b^T` on a full `MR x NR` micro-tile of `C` itself:
    /// the accumulators are loaded from and stored to `C` directly, so a
    /// full tile never bounces through the stack.
    ///
    /// # Safety
    /// Every column `c + jj * ldc`, `jj < NR`, must be `MR` elements the
    /// caller owns exclusively.
    #[inline]
    unsafe fn run_in_place<const SUB: bool>(&self, mode: Mode, c: *mut f64, ldc: usize) {
        self.check();
        // SAFETY: lengths checked; the tile is the caller's.
        if unsafe { self.run_avx512::<SUB>(mode, c, ldc) } {
            return;
        }
        let mut acc = [[0.0f64; MR]; NR];
        for (jj, accj) in acc.iter_mut().enumerate() {
            // SAFETY: column jj of the caller's tile.
            accj.copy_from_slice(unsafe { std::slice::from_raw_parts(c.add(jj * ldc), MR) });
        }
        self.run_on_acc::<SUB>(mode, &mut acc);
        for (jj, accj) in acc.iter().enumerate() {
            // SAFETY: column jj of the caller's tile.
            unsafe { std::slice::from_raw_parts_mut(c.add(jj * ldc), MR) }.copy_from_slice(accj);
        }
    }
}

/// Shared mutable view of an output region for pool execution.
///
/// Tasks of one parallel phase write *disjoint* element ranges (each
/// owns its `(row-block, column-chunk)` tile, or its row chunk of an
/// in-panel solve), so handing every task access to the region is the
/// 2-D strided analogue of `split_at_mut` — just not expressible
/// through slice splitting.  The pointer is only ever materialized into
/// `&mut` column *segments* of the calling task's own range, so no two
/// live `&mut` slices overlap.
#[derive(Clone, Copy)]
struct COut {
    ptr: *mut f64,
    len: usize,
}

// SAFETY: the planners guarantee concurrently running tasks touch
// disjoint element ranges (documented per call site).
unsafe impl Send for COut {}
unsafe impl Sync for COut {}

impl COut {
    fn new(c: &mut [f64]) -> Self {
        COut { ptr: c.as_mut_ptr(), len: c.len() }
    }

    /// A view for [`read`](Self::read) alone — never to be handed to
    /// anything that takes a segment of it.
    fn read_only(c: &[f64]) -> Self {
        COut { ptr: c.as_ptr().cast_mut(), len: c.len() }
    }

    /// The `mr`-long segment of column `j` (leading dimension `ld`)
    /// starting at row `i0`, as a mutable slice.
    ///
    /// # Safety
    /// The segment must lie inside the calling task's owned range: no
    /// concurrently running task may read or write any of its elements,
    /// and the caller must not hold another overlapping segment.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    unsafe fn col_segment(&self, ld: usize, i0: usize, j: usize, mr: usize) -> &mut [f64] {
        debug_assert!(j * ld + i0 + mr <= self.len);
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(j * ld + i0), mr) }
    }

    /// Read element `idx` of the underlying storage.
    ///
    /// # Safety
    /// No concurrently running task may be writing `idx` (the in-panel
    /// solves read only finished `L` rows that no task writes).
    #[inline]
    unsafe fn read(&self, idx: usize) -> f64 {
        debug_assert!(idx < self.len);
        unsafe { *self.ptr.add(idx) }
    }
}

/// Minimum `m * n * k` product before a GEMM fans onto the pool: below
/// this (~a 256³ multiply) fork-join overhead beats the win.
const PAR_MIN_PRODUCTS: usize = 1 << 23;

/// Minimum rows per in-panel TRSM row chunk: four full 32-row blocks, so
/// a stolen chunk is worth its fork.
const PAR_ROW_CHUNK: usize = 128;

/// Row-chunk count for the in-panel substitutions (1 = sequential).
fn row_chunks(rows: usize, cols: usize, threads: usize) -> usize {
    if threads <= 1 || cols == 0 || rows < 2 * PAR_ROW_CHUNK {
        1
    } else {
        (rows / PAR_ROW_CHUNK).min(2 * threads).max(1)
    }
}

/// Column-chunk width of the parallel task grid.  Starts at the full
/// [`NC`] cache block (widest chunks duplicate the least `A`-packing)
/// and halves, staying `NR`-aligned, until the `(row-block, chunk)`
/// grid carries ~3 tasks per worker so stealing can balance ragged
/// edges and diagonal-masked no-op tiles.  A pure function of the
/// shape and worker count — never of the steal order — so the
/// partition (and with it the fused mode's bits) is reproducible.
fn par_col_chunk(n: usize, row_blocks: usize, threads: usize) -> usize {
    let target = 3 * threads;
    let mut cw = NC;
    while cw > 4 * NR && row_blocks * n.div_ceil(cw) < target {
        cw /= 2;
    }
    cw
}

/// Blocked `C(m x n) += A * op(B)` over column-major regions.
///
/// * `c` starts at its region's `(0, 0)` with leading dimension `ldc`;
/// * `a` is read at rows `a_row0..a_row0+m`, depth columns `pc` ranging
///   over `0..kdim`;
/// * `b` is read per [`BOp`] (`b_row0` offsets the `T` orientation's row);
/// * `diag` masks the update to the lower triangle: cell `(i, j)` is
///   skipped when `i + diag < j` (global row < global column).  `None`
///   updates the full rectangle.
///
/// Accumulation order per `C` element is ascending `k` throughout —
/// `pc` blocks ascend and the micro-kernel walks its depth forward — so
/// the strict mode is bit-identical to the reference triple loop.  This
/// holds on the parallel path too: the `pc` loop stays sequential and
/// each element belongs to exactly one task per depth step, so neither
/// the thread count nor the steal order can reorder any element's
/// accumulation.
#[allow(clippy::too_many_arguments)]
fn gemm_blocked(
    c: &mut [f64],
    ldc: usize,
    m: usize,
    n: usize,
    kdim: usize,
    alpha: f64,
    a: V<'_>,
    a_row0: usize,
    b: V<'_>,
    b_op: BOp,
    b_row0: usize,
    diag: Option<i64>,
    mode: Mode,
) {
    if m == 0 || n == 0 || kdim == 0 {
        return;
    }
    let threads = crate::parallel::effective_threads();
    if threads > 1 && m.saturating_mul(n).saturating_mul(kdim) >= PAR_MIN_PRODUCTS {
        let row_blocks = m.div_ceil(MC);
        let cw = par_col_chunk(n, row_blocks, threads);
        let col_chunks = n.div_ceil(cw);
        let out = COut::new(c);
        // Sequential ascending depth loop; parallel disjoint C tiles.
        for pc in (0..kdim).step_by(KC) {
            let kc = (kdim - pc).min(KC);
            crate::parallel::par_for(row_blocks * col_chunks, &|t| {
                let ic = (t / col_chunks) * MC;
                let jc = (t % col_chunks) * cw;
                let mc = (m - ic).min(MC);
                let nc = (n - jc).min(cw);
                // Skip tiles entirely above the diagonal.
                if let Some(d) = diag {
                    if (ic + mc - 1) as i64 + d < jc as i64 {
                        return;
                    }
                }
                // The whole leaf — pack both operands, multiply — runs
                // inside one with_pack: the scratch belongs to whichever
                // worker stole this tile, exclusively, for the duration.
                with_pack(|pack| {
                    pack_b(&mut pack.pb, b, b_op, b_row0, alpha, jc, nc, pc, kc);
                    pack_a(&mut pack.pa, a, a_row0, ic, mc, pc, kc);
                    // SAFETY: task `t` owns rows ic..ic+mc of columns
                    // jc..jc+nc of C exclusively within this par_for.
                    macro_tile::<false>(out, ldc, ic, jc, mc, nc, kc, &pack.pa, &pack.pb, NR, diag, mode);
                });
            });
        }
        return;
    }
    let out = COut::new(c);
    with_pack(|pack| {
        for jc in (0..n).step_by(NC) {
            let nc = (n - jc).min(NC);
            for pc in (0..kdim).step_by(KC) {
                let kc = (kdim - pc).min(KC);
                pack_b(&mut pack.pb, b, b_op, b_row0, alpha, jc, nc, pc, kc);
                for ic in (0..m).step_by(MC) {
                    let mc = (m - ic).min(MC);
                    // Skip A-blocks entirely above the diagonal.
                    if let Some(d) = diag {
                        if (ic + mc - 1) as i64 + d < jc as i64 {
                            continue;
                        }
                    }
                    pack_a(&mut pack.pa, a, a_row0, ic, mc, pc, kc);
                    // SAFETY: single task — the whole region is owned.
                    macro_tile::<false>(out, ldc, ic, jc, mc, nc, kc, &pack.pa, &pack.pb, NR, diag, mode);
                }
            }
        }
    });
}

/// Multiply one packed `A` block against one packed `B` block, micro-tile
/// by micro-tile: `C (+|-)= A * B^T` with the accumulators living in `C`.
///
/// `pa` holds `MR`-row strips.  `pb` holds `NR`-row strips `kc * ldb`
/// apart in groups of `ldb / NR`: `ldb == NR` is [`pack_b`]'s layout,
/// `ldb == MR` reads a [`PackedTile`] as `B` — its `MR`-row strip is two
/// `NR`-row strips side by side.
///
/// A full micro-tile on or below the diagonal runs in place; a ragged or
/// diagonal-crossing one bounces through a stack array and stores back
/// only its live cells.
///
/// `c` is the shared output view; the caller owns rows `ic..ic+mc` of
/// columns `jc..jc+nc` exclusively (see [`COut`]), which is exactly the
/// range this touches.
#[allow(clippy::too_many_arguments)]
fn macro_tile<const SUB: bool>(
    c: COut,
    ldc: usize,
    ic: usize,
    jc: usize,
    mc: usize,
    nc: usize,
    kc: usize,
    pa: &[f64],
    pb: &[f64],
    ldb: usize,
    diag: Option<i64>,
    mode: Mode,
) {
    // Memory safety of the in-place tiles below rests on this.
    assert!(
        (jc + nc - 1) * ldc + ic + mc <= c.len,
        "macro-tile outside its output region"
    );
    let group = ldb / NR;
    for jr in 0..nc.div_ceil(NR) {
        let j0 = jc + jr * NR;
        let nr = (nc - jr * NR).min(NR);
        let pb_strip = &pb[(jr / group) * kc * ldb + (jr % group) * NR..];
        for ir in 0..mc.div_ceil(MR) {
            let i0 = ic + ir * MR;
            let mr = (mc - ir * MR).min(MR);
            // Micro-tiles entirely above the diagonal never touch C.
            if let Some(d) = diag {
                if (i0 + mr - 1) as i64 + d < j0 as i64 {
                    continue;
                }
            }
            let strips = Strips {
                kc,
                pa: &pa[ir * kc * MR..(ir + 1) * kc * MR],
                pb: pb_strip,
                ldb,
            };
            let below_diag = diag.is_none_or(|d| i0 as i64 + d >= (j0 + nr - 1) as i64);
            if mr == MR && nr == NR && below_diag {
                // SAFETY: a full tile inside the caller's owned range
                // (asserted above), which no other task touches.
                unsafe { strips.run_in_place::<SUB>(mode, c.ptr.add(j0 * ldc + i0), ldc) };
                continue;
            }
            let mut acc = [[0.0f64; MR]; NR];
            // Load C (the accumulators continue C's running sum, keeping
            // the per-element operation sequence of the reference loop).
            for (jj, accj) in acc.iter_mut().enumerate().take(nr) {
                // SAFETY: inside the caller's owned tile.
                let col = unsafe { c.col_segment(ldc, i0, j0 + jj, mr) };
                accj[..mr].copy_from_slice(col);
            }
            strips.run_on_acc::<SUB>(mode, &mut acc);
            // Store back each column from its first row on or below the
            // diagonal: the cells above it keep what C holds.
            for (jj, accj) in acc.iter().enumerate().take(nr) {
                let above = diag.map_or(0, |d| ((j0 + jj) as i64 - d - i0 as i64).clamp(0, mr as i64) as usize);
                // SAFETY: inside the caller's owned tile (`above <= mr`);
                // `packed_diagonal_update_is_syrk_on_the_lower_triangle_alone`
                // checks every cell either side of the diagonal.
                let col = unsafe { c.col_segment(ldc, i0 + above, j0 + jj, mr - above) };
                col.copy_from_slice(&accj[above..mr]);
            }
        }
    }
}

/// One step of an in-panel accumulation, `acc - x * l`: a rounded multiply
/// then a rounded subtract (strict), or one FMA (fused).
#[inline(always)]
fn sub_mul<const FUSED: bool>(acc: f64, x: f64, l: f64) -> f64 {
    if FUSED {
        x.mul_add(-l, acc)
    } else {
        acc - x * l
    }
}

/// A base case of the triangular recursions: a loop nest generic over the
/// numeric mode, which [`in_panel`] runs as compiled for this machine's
/// vector ISA.
trait InPanel {
    type Out;
    fn run<const FUSED: bool>(self) -> Self::Out;
}

/// The generic [`InPanel`] bodies under the vector ISAs they are
/// dispatched to (they are `#[inline(always)]`, so each is compiled once
/// per mode and feature set, like [`micro_kernel_body`]).
#[cfg(target_arch = "x86_64")]
mod panel_x86 {
    use super::InPanel;

    /// # Safety
    /// Caller must have detected `avx512f` and `fma`.
    #[target_feature(enable = "avx512f,fma")]
    pub unsafe fn avx512<const FUSED: bool, P: InPanel>(p: P) -> P::Out {
        p.run::<FUSED>()
    }

    /// # Safety
    /// Caller must have detected `avx2` and `fma`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn avx2<const FUSED: bool, P: InPanel>(p: P) -> P::Out {
        p.run::<FUSED>()
    }
}

/// Run `p` in `mode` on the widest vector ISA this machine has.  Without
/// hardware FMA the fused mode runs the strict body; other machines run
/// the same body as compiled for the baseline target.
fn in_panel<P: InPanel>(mode: Mode, p: P) -> P::Out {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected as det;
        let fused = mode == Mode::Fused;
        // SAFETY: each variant is called only after detecting its
        // features; `panel_bodies_match_the_dispatched_kernels` holds
        // every one this machine has to the portable body.
        unsafe {
            match (det!("fma") && det!("avx512f"), det!("fma") && det!("avx2"), fused) {
                (true, _, true) => return panel_x86::avx512::<true, P>(p),
                (true, _, false) => return panel_x86::avx512::<false, P>(p),
                (_, true, true) => return panel_x86::avx2::<true, P>(p),
                (_, true, false) => return panel_x86::avx2::<false, P>(p),
                _ => {}
            }
        }
    }
    p.run::<false>()
}

/// Rows `r0..r1` of a `cn <= PB`-column panel of the right-solve
/// `X <- X * L^{-T}`, the base case of [`trsm_rec`] and [`trsm_region`]:
/// `X(r, j)` is element `x0 + r + j * ldx` of `x`, `L(j, k)` element
/// `l0 + j + k * ldl` of `l` (the same storage as `x` in [`trsm_region`]).
/// The rows are the calling task's own; `l` is finished and only read.
#[derive(Clone, Copy)]
struct PanelSolve {
    x: COut,
    x0: usize,
    ldx: usize,
    l: COut,
    l0: usize,
    ldl: usize,
    cn: usize,
    r0: usize,
    r1: usize,
}

impl InPanel for PanelSolve {
    type Out = ();

    /// Blocks of 32 rows, then 8, then single rows.
    #[inline(always)]
    fn run<const FUSED: bool>(self) {
        let PanelSolve { x, x0, ldx, l, l0, ldl, cn, r0, r1 } = self;
        // Memory safety of the segments and reads in `blocks` rests on this.
        assert!(
            cn == 0 || (x0 + (cn - 1) * ldx + r1 <= x.len && l0 + (cn - 1) * (ldl + 1) < l.len),
            "panel solve outside its regions"
        );
        let r = self.blocks::<FUSED, 32>(r0);
        let r = self.blocks::<FUSED, 8>(r);
        self.blocks::<FUSED, 1>(r);
    }
}

impl PanelSolve {
    /// The whole `W`-row blocks of `r..r1`; returns the first row left.
    /// Column `j` of a block lives in a `[f64; W]` accumulator from its
    /// load to its one store: `acc <- acc - x_k * l_jk` for ascending
    /// `k < j` reads only `x_k` (stored when column `k` finished) and the
    /// multiplier, then a true division by `l_jj` — the reference
    /// kernel's sequence on every element.
    #[inline(always)]
    fn blocks<const FUSED: bool, const W: usize>(&self, mut r: usize) -> usize {
        let PanelSolve { x, x0, ldx, l, l0, ldl, cn, r1, .. } = *self;
        while r + W <= r1 {
            for j in 0..cn {
                // SAFETY: rows r..r+W of panel column j, inside the range
                // `run` asserted and the calling task's own; column k < j
                // below never aliases it.  Every block width and ragged
                // tail runs in `panel_bodies_match_the_dispatched_kernels`.
                let xj = unsafe { x.col_segment(ldx, x0 + r, j, W) };
                let mut acc = [0.0f64; W];
                acc.copy_from_slice(xj);
                for k in 0..j {
                    // SAFETY: L(j, k), index asserted in `run`; L is
                    // finished and no task writes it (same test).
                    let ljk = unsafe { l.read(l0 + j + k * ldl) };
                    // SAFETY: the same rows of the earlier column k, which
                    // this task alone wrote, before column j (same test).
                    let xk: &[f64] = unsafe { x.col_segment(ldx, x0 + r, k, W) };
                    for (a, &xv) in acc.iter_mut().zip(xk) {
                        *a = sub_mul::<FUSED>(*a, xv, ljk);
                    }
                }
                // SAFETY: L(j, j), as for L(j, k) above.
                let ljj = unsafe { l.read(l0 + j * (ldl + 1)) };
                for (xv, a) in xj.iter_mut().zip(acc) {
                    *xv = a / ljj;
                }
            }
            r += W;
        }
        r
    }
}

/// Left-looking unblocked factorization of the `n x n` (`n <= PB`)
/// diagonal block at `(off, off)` of column-major `data` — the base case
/// of [`potrf_rec`].  Rows below the block belong to the caller's TRSM;
/// updates with `k < off` were already applied; nothing above the
/// diagonal is read or written.
struct PanelFactor<'a> {
    data: &'a mut [f64],
    ld: usize,
    off: usize,
    n: usize,
}

impl InPanel for PanelFactor<'_> {
    type Out = Result<(), MatrixError>;

    /// The narrowest of 8, 16 or [`PB`] lanes that holds the block: a
    /// small system pays for its own rows, not for a full panel.
    #[inline(always)]
    fn run<const FUSED: bool>(self) -> Result<(), MatrixError> {
        match self.n {
            0..=8 => self.columns::<FUSED, 8>(),
            9..=16 => self.columns::<FUSED, 16>(),
            _ => self.columns::<FUSED, PB>(),
        }
    }
}

impl PanelFactor<'_> {
    /// Column `j` is accumulated in a `[f64; W]` over the finished
    /// columns `k < j` — kept in `done`, zero above their diagonal and
    /// past row `n`, so every step runs at the full fixed width — then
    /// takes its `sqrt` and divisions and is stored once.  Each live
    /// row's operations are the same at every width `W >= n`.
    #[inline(always)]
    fn columns<const FUSED: bool, const W: usize>(self) -> Result<(), MatrixError> {
        let PanelFactor { data, ld, off, n } = self;
        debug_assert!(n <= W && W <= PB);
        let mut done = [[0.0f64; W]; W];
        for j in 0..n {
            let gc = off + j;
            let col = &mut data[gc * ld + gc..gc * ld + off + n];
            let mut acc = [0.0f64; W];
            acc[j..n].copy_from_slice(col);
            for xk in &done[..j] {
                let ljk = xk[j];
                for (a, &xv) in acc.iter_mut().zip(xk) {
                    *a = sub_mul::<FUSED>(*a, xv, ljk);
                }
            }
            let d = acc[j];
            // Same rejection rule as the reference kernel (non-finite
            // pivots fall through to sqrt, producing NaN like LAPACK).
            if d.is_finite() && d <= 0.0 {
                // The updated, un-scaled column: what a failed factor has
                // always left behind.
                col.copy_from_slice(&acc[j..n]);
                return Err(MatrixError::NotSpd {
                    pivot: gc,
                    value: -d.abs(),
                });
            }
            let ljj = d.sqrt();
            // The 8-row groups wholly above the diagonal hold no live row.
            for a in acc[j / 8 * 8..].iter_mut() {
                *a /= ljj;
            }
            acc[j] = ljj;
            col.copy_from_slice(&acc[j..n]);
            done[j] = acc;
        }
        Ok(())
    }
}

fn gemm_nn_impl(c: &mut Matrix<f64>, alpha: f64, a: &Matrix<f64>, b: &Matrix<f64>, mode: Mode) {
    assert_eq!(a.cols(), b.rows(), "gemm_nn: inner dimensions");
    assert_eq!(c.rows(), a.rows(), "gemm_nn: C rows");
    assert_eq!(c.cols(), b.cols(), "gemm_nn: C cols");
    let (m, n, kdim) = (c.rows(), c.cols(), a.cols());
    let (lda, ldb, ldc) = (a.rows(), b.rows(), c.rows());
    gemm_blocked(
        c.as_mut_slice(),
        ldc,
        m,
        n,
        kdim,
        alpha,
        V { data: a.as_slice(), ld: lda },
        0,
        V { data: b.as_slice(), ld: ldb },
        BOp::N,
        0,
        None,
        mode,
    );
}

fn gemm_nt_impl(c: &mut Matrix<f64>, alpha: f64, a: &Matrix<f64>, b: &Matrix<f64>, mode: Mode) {
    assert_eq!(a.cols(), b.cols(), "gemm_nt: inner dimensions");
    assert_eq!(c.rows(), a.rows(), "gemm_nt: C rows");
    assert_eq!(c.cols(), b.rows(), "gemm_nt: C cols");
    let (m, n, kdim) = (c.rows(), c.cols(), a.cols());
    let (lda, ldb, ldc) = (a.rows(), b.rows(), c.rows());
    gemm_blocked(
        c.as_mut_slice(),
        ldc,
        m,
        n,
        kdim,
        alpha,
        V { data: a.as_slice(), ld: lda },
        0,
        V { data: b.as_slice(), ld: ldb },
        BOp::T,
        0,
        None,
        mode,
    );
}

fn gemm_nt_packed_impl(
    c: &mut Matrix<f64>,
    a: &PackedTile,
    b: &PackedTile,
    diag: Option<i64>,
    mode: Mode,
) {
    assert_eq!(a.cols, b.cols, "gemm_nt_packed: inner dimensions");
    assert_eq!(c.rows(), a.rows, "gemm_nt_packed: C rows");
    assert_eq!(c.cols(), b.rows, "gemm_nt_packed: C cols");
    let (m, n, kdim) = (a.rows, b.rows, a.cols);
    if m == 0 || n == 0 || kdim == 0 {
        return;
    }
    // Single task: all of C is the macro-tile's owned range.
    let out = COut::new(c.as_mut_slice());
    macro_tile::<true>(out, m, 0, 0, m, n, kdim, &a.data, &b.data, MR, diag, mode);
}

fn syrk_lower_impl(c: &mut Matrix<f64>, a: &Matrix<f64>, mode: Mode) {
    assert!(c.is_square(), "syrk_lower: C square");
    assert_eq!(c.rows(), a.rows(), "syrk_lower: dimensions");
    let (n, kdim) = (c.rows(), a.cols());
    let lda = a.rows();
    let ldc = c.rows();
    gemm_blocked(
        c.as_mut_slice(),
        ldc,
        n,
        n,
        kdim,
        -1.0,
        V { data: a.as_slice(), ld: lda },
        0,
        V { data: a.as_slice(), ld: lda },
        BOp::T,
        0,
        Some(0),
        mode,
    );
}

/// Split point for the recursive drivers: the smallest multiple of [`PB`]
/// at or above the midpoint, clamped inside `(0, n)`.  Aligning splits to
/// [`PB`] keeps every base case a full panel except the last.
fn rec_split(n: usize) -> usize {
    ((n / 2).div_ceil(PB) * PB).clamp(1, n - 1)
}

fn trsm_right_lower_transpose_impl(b: &mut Matrix<f64>, l: &Matrix<f64>, mode: Mode) {
    assert!(l.is_square(), "trsm: L square");
    assert_eq!(b.cols(), l.rows(), "trsm: dimensions");
    let n = l.rows();
    trsm_rec(b, l, 0, n, mode);
}

/// Recursive right-solve of `B[:, c0..c0+cn] <- B[:, c0..c0+cn] *
/// L[c0.., c0..]^{-T}`.  Callers must have applied every update with
/// `k < c0` already.  Splitting `L` as `[[L11, 0], [L21, L22]]`, the
/// second column block is `X2 = (B2 - X1 * L21^T) * L22^{-T}`: the
/// correction is one wide, full-depth GEMM instead of a thin per-panel
/// one, so `A`-packing amortizes over many output columns.  Per-element
/// update order stays ascending `k` (recurse left, correct, recurse
/// right), keeping the strict mode bit-identical to the reference.
fn trsm_rec(b: &mut Matrix<f64>, l: &Matrix<f64>, c0: usize, cn: usize, mode: Mode) {
    let rows = b.rows();
    if rows == 0 || cn == 0 {
        return;
    }
    if cn <= PB {
        // In-panel substitution, reference order (k < c0 was handled by
        // the caller's correction GEMM).  `X(r, j)` depends only on
        // `X(r, k < j)` — the *same* row — so row chunks are mutually
        // independent and fan onto the pool; each task walks its rows
        // through the full column order, per-element order unchanged.
        let threads = crate::parallel::effective_threads();
        let chunks = row_chunks(rows, cn, threads);
        let chunk = rows.div_ceil(chunks);
        let n = l.rows();
        let (_, rest) = b.split_cols_mut(c0);
        let (x, l) = (COut::new(&mut rest[..cn * rows]), COut::read_only(l.as_slice()));
        crate::parallel::par_for(chunks, &|t| {
            // Task `t` owns rows r0..r1 of every panel column exclusively.
            let r0 = t * chunk;
            let r1 = rows.min(r0 + chunk);
            in_panel(mode, PanelSolve { x, x0: 0, ldx: rows, l, l0: c0 * (n + 1), ldl: n, cn, r0, r1 });
        });
        return;
    }
    let n1 = rec_split(cn);
    let n2 = cn - n1;
    trsm_rec(b, l, c0, n1, mode);
    // X2 -= X1 * L21^T (L21 = L[c0+n1..c0+cn, c0..c0+n1]).
    {
        let ldl = l.rows();
        let (done, rest) = b.split_cols_mut(c0 + n1);
        gemm_blocked(
            rest,
            rows,
            rows,
            n2,
            n1,
            -1.0,
            V { data: &done[c0 * rows..], ld: rows.max(1) },
            0,
            V { data: &l.as_slice()[c0 * ldl..], ld: ldl },
            BOp::T,
            c0 + n1,
            None,
            mode,
        );
    }
    trsm_rec(b, l, c0 + n1, n2, mode);
}

fn potf2_impl(a: &mut Matrix<f64>, mode: Mode) -> Result<(), MatrixError> {
    if !a.is_square() {
        return Err(MatrixError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    let ld = n.max(1);
    potrf_rec(a.as_mut_slice(), ld, 0, n, mode)
}

/// Recursive blocked Cholesky of the `n x n` block at `(off, off)` of
/// column-major storage with leading dimension `ld`.  Contract: callers
/// have already applied every update with `k < off`, and rows below
/// `off + n` are the caller's responsibility (the standard recursive
/// POTRF splitting).  The trailing update is one wide, full-depth SYRK
/// per level — `A`-packing amortizes over `n2` output columns instead of
/// a [`PB`]-wide panel.  Per-element updates arrive in ascending `k`
/// order at every level (recurse left, solve, update, recurse right), so
/// the strict mode stays bit-identical to the reference triple loop.
fn potrf_rec(
    data: &mut [f64],
    ld: usize,
    off: usize,
    n: usize,
    mode: Mode,
) -> Result<(), MatrixError> {
    if n <= PB {
        return in_panel(mode, PanelFactor { data, ld, off, n });
    }
    let n1 = rec_split(n);
    let n2 = n - n1;
    potrf_rec(data, ld, off, n1, mode)?;
    // L21 <- A21 * L11^{-T} (rows off+n1..off+n, cols off..off+n1).
    trsm_region(data, ld, off + n1, n2, off, n1, mode);
    // A22 <- A22 - L21 * L21^T on the lower triangle.
    {
        let (left, right) = data.split_at_mut((off + n1) * ld);
        let lv = V { data: &left[off * ld..], ld };
        gemm_blocked(
            &mut right[off + n1..],
            ld,
            n2,
            n2,
            n1,
            -1.0,
            lv,
            off + n1,
            lv,
            BOp::T,
            off + n1,
            Some(0),
            mode,
        );
    }
    potrf_rec(data, ld, off + n1, n2, mode)
}

/// Recursive in-place triangular solve `X <- X * L^{-T}` where `X` and
/// `L` live in the same column-major storage: `X` is rows
/// `row0..row0+rows`, columns `l_off..l_off+ln`; `L` is the
/// lower-triangular block at `(l_off, l_off)`.  Requires
/// `row0 >= l_off + ln` (X strictly below L); callers have applied every
/// update with `k < l_off`.
#[allow(clippy::too_many_arguments)]
fn trsm_region(
    data: &mut [f64],
    ld: usize,
    row0: usize,
    rows: usize,
    l_off: usize,
    ln: usize,
    mode: Mode,
) {
    if rows == 0 || ln == 0 {
        return;
    }
    if ln <= PB {
        // In-panel substitution, reference order.  Row chunks of X are
        // mutually independent (same argument as `trsm_rec`); the `L`
        // rows read for the multipliers live strictly above `row0` and
        // are never written during the panel, so tasks share them.
        let threads = crate::parallel::effective_threads();
        let chunks = row_chunks(rows, ln, threads);
        let chunk = rows.div_ceil(chunks);
        let out = COut::new(data);
        crate::parallel::par_for(chunks, &|t| {
            // Task `t` owns rows r0..r1 (all below L) exclusively.
            let r0 = row0 + t * chunk;
            let r1 = (row0 + rows).min(r0 + chunk);
            let (x0, l0) = (l_off * ld, l_off * (ld + 1));
            in_panel(mode, PanelSolve { x: out, x0, ldx: ld, l: out, l0, ldl: ld, cn: ln, r0, r1 });
        });
        return;
    }
    let n1 = rec_split(ln);
    let n2 = ln - n1;
    trsm_region(data, ld, row0, rows, l_off, n1, mode);
    // X2 -= X1 * L21^T.
    {
        let (left, right) = data.split_at_mut((l_off + n1) * ld);
        let lv = V { data: &left[l_off * ld..], ld };
        gemm_blocked(
            &mut right[row0..],
            ld,
            rows,
            n2,
            n1,
            -1.0,
            lv,
            row0,
            lv,
            BOp::T,
            l_off + n1,
            None,
            mode,
        );
    }
    trsm_region(data, ld, row0, rows, l_off + n1, n2, mode);
}

/// `C <- C + alpha * A * B`, bit-identical to [`crate::kernels::gemm_nn`].
pub fn gemm_nn(c: &mut Matrix<f64>, alpha: f64, a: &Matrix<f64>, b: &Matrix<f64>) {
    gemm_nn_impl(c, alpha, a, b, Mode::Strict);
}

/// `C <- C + alpha * A * B^T`, bit-identical to [`crate::kernels::gemm_nt`].
pub fn gemm_nt(c: &mut Matrix<f64>, alpha: f64, a: &Matrix<f64>, b: &Matrix<f64>) {
    gemm_nt_impl(c, alpha, a, b, Mode::Strict);
}

/// `C <- C - A * B^T` over packed operands, bit-identical to
/// [`gemm_nt`]`(c, -1.0, a, b)` on the tiles they were packed from (and so
/// to the reference): `c - a * b` is `c + a * (-1.0 * b)` operation for
/// operation, since negation is exact.
pub fn gemm_nt_packed(c: &mut Matrix<f64>, a: &PackedTile, b: &PackedTile) {
    gemm_nt_packed_impl(c, a, b, None, Mode::Strict);
}

/// Lower-triangle `C <- C - A * A^T` over a packed operand, bit-identical
/// to [`syrk_lower`] on the tile it was packed from: the micro-tiles
/// strictly above the diagonal are skipped, and the strict upper triangle
/// of `C` is neither read for accumulation nor written.
pub fn syrk_lower_packed(c: &mut Matrix<f64>, a: &PackedTile) {
    gemm_nt_packed_impl(c, a, a, Some(0), Mode::Strict);
}

/// Lower-triangle `C <- C - A * A^T`, bit-identical to
/// [`crate::kernels::syrk_lower`] (the strict upper triangle of `C` is
/// neither read for accumulation nor written).
pub fn syrk_lower(c: &mut Matrix<f64>, a: &Matrix<f64>) {
    syrk_lower_impl(c, a, Mode::Strict);
}

/// Triangular solve `X <- B * L^{-T}` (`L` lower triangular), bit-identical
/// to [`crate::kernels::trsm_right_lower_transpose`].
///
/// Recursive over column blocks down to panels of [`PB`] columns
/// (`trsm_rec`): the solved left half is applied to the right half
/// through the packed GEMM engine (ascending `k` either way), and a panel
/// is finished by the register-accumulated in-panel substitution
/// (`PanelSolve`).  Only the lower triangle of `L` is read.
pub fn trsm_right_lower_transpose(b: &mut Matrix<f64>, l: &Matrix<f64>) {
    trsm_right_lower_transpose_impl(b, l, Mode::Strict);
}

/// Cholesky of the lower triangle, bit-identical to
/// [`crate::kernels::potf2`] — recursive down to diagonal blocks of
/// [`PB`] columns (`potrf_rec`: factor the leading block, solve the
/// rows below it, update the trailing block through the packed GEMM
/// engine, recurse), each factored left-looking with its column
/// accumulated in registers (`PanelFactor`).  The strict upper triangle
/// is neither read nor written; on [`MatrixError::NotSpd`] the columns
/// left of the pivot are final, the pivot's own holds its updated,
/// un-scaled values, and the block columns to the right carry the updates
/// of the blocks already finished.
pub fn potf2(a: &mut Matrix<f64>) -> Result<(), MatrixError> {
    potf2_impl(a, Mode::Strict)
}

/// The FMA-contracted mode of the fast engine ([`KernelImpl::Fast`]).
///
/// Identical loop structure and per-element operation *order* as the
/// strict module-level kernels, but multiply-add pairs are fused into
/// single-rounding FMA instructions where the hardware has them —
/// roughly doubling throughput.  Results therefore differ from the
/// reference oracle by a tiny contraction residual (fused products skip
/// one rounding each); on FMA-less hardware this mode degenerates to
/// the strict kernels and is bit-identical.
///
/// [`KernelImpl::Fast`]: crate::engine::KernelImpl::Fast
pub mod fused {
    use super::{
        gemm_nn_impl, gemm_nt_impl, gemm_nt_packed_impl, potf2_impl, syrk_lower_impl,
        trsm_right_lower_transpose_impl, Matrix, MatrixError, Mode, PackedTile,
    };

    /// `C <- C + alpha * A * B` (FMA-contracted [`super::gemm_nn`]).
    pub fn gemm_nn(c: &mut Matrix<f64>, alpha: f64, a: &Matrix<f64>, b: &Matrix<f64>) {
        gemm_nn_impl(c, alpha, a, b, Mode::Fused);
    }

    /// `C <- C + alpha * A * B^T` (FMA-contracted [`super::gemm_nt`]).
    pub fn gemm_nt(c: &mut Matrix<f64>, alpha: f64, a: &Matrix<f64>, b: &Matrix<f64>) {
        gemm_nt_impl(c, alpha, a, b, Mode::Fused);
    }

    /// `C <- C - A * B^T` over packed operands (FMA-contracted
    /// [`super::gemm_nt_packed`]; the same bits as this module's
    /// [`gemm_nt`]`(c, -1.0, a, b)`: `fnmadd(a, b, c)` is `fma(a, -b, c)`).
    pub fn gemm_nt_packed(c: &mut Matrix<f64>, a: &PackedTile, b: &PackedTile) {
        gemm_nt_packed_impl(c, a, b, None, Mode::Fused);
    }

    /// Lower-triangle `C <- C - A * A^T` over a packed operand
    /// (FMA-contracted [`super::syrk_lower_packed`]; the same bits as this
    /// module's [`syrk_lower`]).
    pub fn syrk_lower_packed(c: &mut Matrix<f64>, a: &PackedTile) {
        gemm_nt_packed_impl(c, a, a, Some(0), Mode::Fused);
    }

    /// Lower-triangle `C <- C - A * A^T` (FMA-contracted
    /// [`super::syrk_lower`]).
    pub fn syrk_lower(c: &mut Matrix<f64>, a: &Matrix<f64>) {
        syrk_lower_impl(c, a, Mode::Fused);
    }

    /// `X <- B * L^{-T}` (FMA-contracted
    /// [`super::trsm_right_lower_transpose`]).
    pub fn trsm_right_lower_transpose(b: &mut Matrix<f64>, l: &Matrix<f64>) {
        trsm_right_lower_transpose_impl(b, l, Mode::Fused);
    }

    /// Blocked lower Cholesky (FMA-contracted [`super::potf2`]).
    pub fn potf2(a: &mut Matrix<f64>) -> Result<(), MatrixError> {
        potf2_impl(a, Mode::Fused)
    }
}

pub mod batch;

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::kernels;
    use crate::norms;
    use crate::spd;

    fn random_matrix(m: usize, n: usize, seed: u64) -> Matrix<f64> {
        use rand::RngExt;
        let mut rng = spd::test_rng(seed);
        Matrix::from_fn(m, n, |_, _| rng.random_range(-1.0..1.0))
    }

    #[test]
    fn gemm_nn_bit_identical_to_reference() {
        for (m, k, n) in [(1, 1, 1), (4, 4, 4), (5, 3, 7), (130, 70, 65), (257, 300, 129)] {
            let a = random_matrix(m, k, 1);
            let b = random_matrix(k, n, 2);
            let init = random_matrix(m, n, 3);
            let mut c1 = init.clone();
            let mut c2 = init.clone();
            kernels::gemm_nn(&mut c1, 0.5, &a, &b);
            gemm_nn(&mut c2, 0.5, &a, &b);
            assert_eq!(c1, c2, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn gemm_nt_bit_identical_to_reference() {
        for (m, k, n) in [(3, 5, 2), (64, 64, 64), (129, 257, 66)] {
            let a = random_matrix(m, k, 4);
            let b = random_matrix(n, k, 5);
            let init = random_matrix(m, n, 6);
            let mut c1 = init.clone();
            let mut c2 = init.clone();
            kernels::gemm_nt(&mut c1, -1.0, &a, &b);
            gemm_nt(&mut c2, -1.0, &a, &b);
            assert_eq!(c1, c2, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn portable_micro_kernel_matches_the_dispatched_one_in_every_variant() {
        // On an AVX-512 host this holds the hand-written kernel to the
        // portable body; elsewhere the two are the same code.
        fn check<const FUSED: bool, const SUB: bool>(mode: Mode) {
            for (kc, ldb) in [(0usize, NR), (1, NR), (37, NR), (1, MR), (37, MR)] {
                let pa = random_matrix(kc * MR, 1, 31);
                let pb = random_matrix(kc * ldb, 1, 32);
                // The high half of an MR-row strip when ldb == MR.
                let pb = &pb.as_slice()[ldb - NR..];
                let init = random_matrix(MR, NR, 33);
                let mut want = [[0.0; MR]; NR];
                for (j, col) in want.iter_mut().enumerate() {
                    col.copy_from_slice(init.col(j));
                }
                let mut got = want;
                micro_kernel_body::<FUSED, SUB>(kc, pa.as_slice(), pb, ldb, &mut want);
                let strips = Strips { kc, pa: pa.as_slice(), pb, ldb };
                strips.run_on_acc::<SUB>(mode, &mut got);
                assert_eq!(
                    got.map(|c| c.map(f64::to_bits)),
                    want.map(|c| c.map(f64::to_bits)),
                    "fused={FUSED} sub={SUB} kc={kc} ldb={ldb}"
                );
            }
        }
        check::<false, false>(Mode::Strict);
        check::<false, true>(Mode::Strict);
        // Without hardware FMA the fused mode runs the strict kernels.
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("fma") && std::arch::is_x86_feature_detected!("avx2") {
            check::<true, false>(Mode::Fused);
            check::<true, true>(Mode::Fused);
        }
    }

    /// Row counts around every block width of the in-panel solve (32, 8,
    /// 1) and, at 300, past the row-chunk fan-out threshold.
    const PANEL_ROWS: [usize; 12] = [1, 7, 8, 9, 31, 32, 33, 40, 127, 128, 129, 300];

    #[test]
    fn panel_bodies_match_the_dispatched_kernels() {
        // On an AVX-512 or AVX2 host this holds the feature-compiled
        // in-panel bodies to the portable ones; elsewhere the two are the
        // same code.
        fn check<const FUSED: bool>(mode: Mode) {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for cn in [1usize, 5, 31, 32] {
                let mut l = spd::random_spd(cn, &mut spd::test_rng(34));
                kernels::potf2(&mut l).unwrap();
                for rows in PANEL_ROWS {
                    let init = random_matrix(rows, cn, 35);
                    let solve = |x: &mut Matrix<f64>, dispatched: bool| {
                        let panel = PanelSolve {
                            x: COut::new(x.as_mut_slice()),
                            x0: 0,
                            ldx: rows,
                            l: COut::read_only(l.as_slice()),
                            l0: 0,
                            ldl: cn,
                            cn,
                            r0: 0,
                            r1: rows,
                        };
                        if dispatched {
                            in_panel(mode, panel)
                        } else {
                            panel.run::<FUSED>()
                        }
                    };
                    let (mut want, mut got) = (init.clone(), init.clone());
                    solve(&mut want, false);
                    solve(&mut got, true);
                    assert_eq!(
                        bits(got.as_slice()),
                        bits(want.as_slice()),
                        "solve fused={FUSED} rows={rows} cn={cn}"
                    );
                }
            }
            // The base cases of a factorization whose last panel is
            // ragged: a full panel, then what is left of the order.
            for order in [33usize, 100, 136, 140, 150] {
                let a = spd::random_spd(order, &mut spd::test_rng(36));
                let last = order / PB * PB;
                for (off, n) in [(last - PB, PB), (last, order - last)] {
                    let (mut want, mut got) = (a.clone(), a.clone());
                    let (data, ld) = (want.as_mut_slice(), order);
                    PanelFactor { data, ld, off, n }.run::<FUSED>().unwrap();
                    let data = got.as_mut_slice();
                    in_panel(mode, PanelFactor { data, ld, off, n }).unwrap();
                    assert_eq!(
                        bits(got.as_slice()),
                        bits(want.as_slice()),
                        "factor fused={FUSED} order={order} off={off} n={n}"
                    );
                }
            }
        }
        check::<false>(Mode::Strict);
        // Without hardware FMA the fused mode runs the strict bodies.
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("fma") && std::arch::is_x86_feature_detected!("avx2") {
            check::<true>(Mode::Fused);
        }
    }

    #[test]
    fn failed_potf2_leaves_the_bytes_it_always_left() {
        // Order 100 is panels of 32, 32, 32 and 4; the bad pivot sits in
        // the first, a middle and the last.  The digests (of the whole
        // argument, upper triangle included) were captured at 181252c,
        // before the in-panel loops moved to registers.
        let spd = spd::random_spd(100, &mut spd::test_rng(41));
        type Potf2 = fn(&mut Matrix<f64>) -> Result<(), MatrixError>;
        let engines: [(&str, Potf2); 3] =
            [("reference", kernels::potf2), ("strict", potf2), ("fused", fused::potf2)];
        let golden: [(usize, [u64; 3]); 3] = [
            (5, [0x028ef77409f3bb1f, 0x64261f0d64b4f5c6, 0x6d7f2e74c9c3d384]),
            (40, [0x1562511061e3246d, 0xfd7feace37f21295, 0x1363a3e621cca4ec]),
            (98, [0x1d9a0b95ed192069, 0x539da059cd7a7b8d, 0xd18202cd97183faa]),
        ];
        for (p, want) in golden {
            let mut a = spd.clone();
            a[(p, p)] = -1.0;
            for ((name, engine), want) in engines.iter().zip(want) {
                let mut f = a.clone();
                match engine(&mut f) {
                    Err(MatrixError::NotSpd { pivot, .. }) => assert_eq!(pivot, p, "{name}"),
                    other => panic!("{name}, bad pivot {p}: {other:?}"),
                }
                assert_eq!(crate::digest::matrix_digest(&f), want, "{name}, bad pivot {p}");
            }
        }
    }

    #[test]
    fn packed_diagonal_update_is_syrk_on_the_lower_triangle_alone() {
        type Syrk = fn(&mut Matrix<f64>, &Matrix<f64>);
        type SyrkPacked = fn(&mut Matrix<f64>, &PackedTile);
        let modes: [(Syrk, SyrkPacked); 2] = [
            (syrk_lower, syrk_lower_packed),
            (fused::syrk_lower, fused::syrk_lower_packed),
        ];
        for b in [8usize, 24, 32, 100, 128] {
            let a = random_matrix(b, b, 37);
            let init = random_matrix(b, b, 38);
            let mut packed = PackedTile::default();
            packed.pack(&a);
            for (m, (plain, on_packed)) in modes.iter().enumerate() {
                let (mut want, mut got) = (init.clone(), init.clone());
                plain(&mut want, &a);
                on_packed(&mut got, &packed);
                for j in 0..b {
                    for i in 0..b {
                        // Below the diagonal the update, above it the input.
                        let w = if i >= j { want[(i, j)] } else { init[(i, j)] };
                        assert_eq!(got[(i, j)].to_bits(), w.to_bits(), "b={b} mode {m} ({i},{j})");
                    }
                }
            }
        }
    }

    #[test]
    fn syrk_bit_identical_and_upper_untouched() {
        for (n, k) in [(5, 3), (66, 130), (131, 64)] {
            let a = random_matrix(n, k, 7);
            let init = random_matrix(n, n, 8);
            let mut c1 = init.clone();
            let mut c2 = init.clone();
            kernels::syrk_lower(&mut c1, &a);
            syrk_lower(&mut c2, &a);
            assert_eq!(c1, c2, "n={n} k={k}");
            for j in 1..n {
                for i in 0..j {
                    assert_eq!(c2[(i, j)], init[(i, j)], "upper ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn trsm_bit_identical_to_reference() {
        // Every row-block width of the in-panel solve with its ragged
        // tails, against one-panel orders and orders whose last panel is
        // ragged (33, 100, 136).
        let shapes = PANEL_ROWS
            .iter()
            .flat_map(|&m| [1, 5, 31, 32, 33, 100, 136].map(|n| (m, n)));
        for (m, n) in shapes.chain([(4, 4), (70, 65), (10, 130)]) {
            let mut rng = spd::test_rng(9);
            let mut l = spd::random_spd(n, &mut rng);
            kernels::potf2(&mut l).unwrap();
            let init = random_matrix(m, n, 10);
            let mut b1 = init.clone();
            let mut b2 = init.clone();
            kernels::trsm_right_lower_transpose(&mut b1, &l);
            trsm_right_lower_transpose(&mut b2, &l);
            assert_eq!(b1, b2, "{m}x{n}");
        }
    }

    #[test]
    fn potf2_bit_identical_to_reference() {
        for n in [1usize, 2, 5, 7, 8, 9, 16, 17, 24, 31, 32, 33, 64, 65, 100, 129, 136, 200] {
            let mut rng = spd::test_rng(11);
            let a = spd::random_spd(n, &mut rng);
            let mut f1 = a.clone();
            let mut f2 = a.clone();
            kernels::potf2(&mut f1).unwrap();
            potf2(&mut f2).unwrap();
            assert_eq!(f1, f2, "n={n}");
        }
    }

    #[test]
    fn potf2_rejects_indefinite_with_reference_error() {
        let mut a = Matrix::from_rows(2, 2, &[1.0, 2.0, 2.0, 1.0]);
        assert_eq!(
            potf2(&mut a).unwrap_err(),
            MatrixError::NotSpd { pivot: 1, value: -3.0 }
        );
        let mut z = Matrix::<f64>::zeros(0, 0);
        potf2(&mut z).unwrap();
    }

    #[test]
    fn fused_gemm_agrees_with_reference_to_contraction_residual() {
        for (m, k, n) in [(5, 3, 7), (130, 70, 65), (257, 300, 129)] {
            let a = random_matrix(m, k, 21);
            let b = random_matrix(k, n, 22);
            let init = random_matrix(m, n, 23);
            let mut c1 = init.clone();
            let mut c2 = init.clone();
            kernels::gemm_nn(&mut c1, -1.0, &a, &b);
            fused::gemm_nn(&mut c2, -1.0, &a, &b);
            let tol = 1e-13 * k as f64;
            assert!(norms::max_abs_diff(&c1, &c2) <= tol, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn fused_gemm_nt_agrees_with_reference_to_contraction_residual() {
        for (m, k, n) in [(3, 5, 2), (64, 64, 64), (129, 257, 66)] {
            let a = random_matrix(m, k, 27);
            let b = random_matrix(n, k, 28);
            let init = random_matrix(m, n, 29);
            let mut c1 = init.clone();
            let mut c2 = init.clone();
            kernels::gemm_nt(&mut c1, -1.0, &a, &b);
            fused::gemm_nt(&mut c2, -1.0, &a, &b);
            let tol = 1e-13 * k as f64;
            assert!(norms::max_abs_diff(&c1, &c2) <= tol, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn fused_syrk_agrees_with_reference_to_contraction_residual_and_upper_untouched() {
        for (n, k) in [(5, 3), (66, 130), (131, 64), (256, 256)] {
            let a = random_matrix(n, k, 30);
            let init = random_matrix(n, n, 31);
            let mut c1 = init.clone();
            let mut c2 = init.clone();
            kernels::syrk_lower(&mut c1, &a);
            fused::syrk_lower(&mut c2, &a);
            let tol = 1e-13 * k as f64;
            assert!(norms::max_abs_diff(&c1, &c2) <= tol, "n={n} k={k}");
            for j in 1..n {
                for i in 0..j {
                    assert_eq!(c2[(i, j)], init[(i, j)], "upper ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn fused_trsm_and_potf2_agree_with_reference_to_contraction_residual() {
        // A diagonally dominant SPD matrix and its factor: entries of the
        // factor are O(sqrt(n)), so the bound is a multiple of n * eps.
        for n in [7usize, 64, 129, 256] {
            let a = spd::random_spd(n, &mut spd::test_rng(32));
            let mut f1 = a.clone();
            let mut f2 = a.clone();
            kernels::potf2(&mut f1).unwrap();
            fused::potf2(&mut f2).unwrap();
            let tol = 1e-12 * n as f64;
            assert!(norms::max_abs_diff(&f1, &f2) <= tol, "potf2 n={n}");

            let init = random_matrix(40, n, 33);
            let mut x1 = init.clone();
            let mut x2 = init.clone();
            kernels::trsm_right_lower_transpose(&mut x1, &f1);
            fused::trsm_right_lower_transpose(&mut x2, &f1);
            assert!(norms::max_abs_diff(&x1, &x2) <= tol, "trsm n={n}");
        }
    }

    #[test]
    fn fused_potf2_factors_to_reference_accuracy() {
        for n in [7usize, 64, 129, 200] {
            let mut rng = spd::test_rng(24);
            let a = spd::random_spd(n, &mut rng);
            let mut f = a.clone();
            fused::potf2(&mut f).unwrap();
            // Zero the strict upper triangle (untouched input remains).
            let l = Matrix::from_fn(n, n, |i, j| if i >= j { f[(i, j)] } else { 0.0 });
            let residual = norms::max_abs_diff(&kernels::llt(&l), &a);
            assert!(residual <= 1e-10 * n as f64, "n={n}: residual {residual}");
        }
    }

    #[test]
    fn fused_trsm_recovers_factor_panel() {
        let n = 96;
        let mut rng = spd::test_rng(25);
        let mut l = spd::random_spd(n, &mut rng);
        kernels::potf2(&mut l).unwrap();
        let l = Matrix::from_fn(n, n, |i, j| if i >= j { l[(i, j)] } else { 0.0 });
        // X = B L^{-T} must satisfy X L^T = B.
        let b = random_matrix(40, n, 26);
        let mut x = b.clone();
        fused::trsm_right_lower_transpose(&mut x, &l);
        let mut back = Matrix::zeros(40, n);
        kernels::gemm_nt(&mut back, 1.0, &x, &l);
        // gemm_nt computes X * L^T via B(j,k) reads: back = X L^T.
        assert!(norms::max_abs_diff(&back, &b) <= 1e-9);
    }

    #[test]
    fn a_tile_packed_in_its_own_storage_is_the_packed_copy() {
        // Whole strips (permuted in place, square and not, one run per
        // column and many) and partial ones (through the scratch).
        let bits = |p: &PackedTile| p.data.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for rows in [0usize, 16, 32, 48, 128, 1, 7, 17, 100] {
            for cols in [0usize, 1, 8, 20, 128] {
                let mut tile = random_matrix(rows, cols, (rows * 1000 + cols) as u64);
                if rows > 0 && cols > 0 {
                    tile[(rows - 1, 0)] = -0.0;
                }
                let mut want = PackedTile::default();
                want.pack(&tile);
                let at = tile.as_slice().as_ptr();
                let got = PackedTile::replacing(tile);
                assert_eq!((got.rows, got.cols), (want.rows, want.cols), "{rows}x{cols}");
                assert_eq!(bits(&got), bits(&want), "{rows}x{cols}");
                if rows % MR == 0 && rows * cols > 0 {
                    assert_eq!(got.data.as_ptr(), at, "{rows}x{cols}: not in place");
                }
            }
        }
    }

    #[test]
    fn packed_tile_unpacks_to_exactly_its_window_of_a_column_major_slice() {
        const SENTINEL: f64 = -7.25;
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for rows in [1usize, 7, 16, 17, 100, 128] {
            for cols in [1usize, 8, 32, 128] {
                // Signed zeros ride along: the unpack must copy bits.
                let mut tile = random_matrix(rows, cols, (rows * 1000 + cols) as u64);
                tile[(rows - 1, 0)] = -0.0;
                let mut packed = PackedTile::default();
                packed.pack(&tile);

                // The tile lands at (3, 2) of a sentinel-filled matrix
                // with a margin on every side: no sentinel moves.
                let (ld, width, i0, j0) = (rows + 5, cols + 3, 3, 2);
                let want = Matrix::from_fn(ld, width, |i, j| {
                    if (i0..i0 + rows).contains(&i) && (j0..j0 + cols).contains(&j) {
                        tile[(i - i0, j - j0)]
                    } else {
                        SENTINEL
                    }
                });
                let mut got = vec![SENTINEL; ld * width];
                packed.unpack_to_cols(&mut got[i0 + j0 * ld..], ld);
                assert_eq!(bits(&got), bits(want.as_slice()), "{rows}x{cols}");
                // Unpacking to a plain tile and setting that is the same.
                let mut around = Matrix::from_fn(ld, width, |_, _| SENTINEL);
                around.set_submatrix(i0, j0, &packed.unpack());
                assert_eq!(bits(around.as_slice()), bits(want.as_slice()), "{rows}x{cols}");

                // A window that ends with the tile's last element is
                // enough; one element less is refused, not overrun.
                let mut exact = vec![SENTINEL; (cols - 1) * ld + rows];
                packed.unpack_to_cols(&mut exact, ld);
                assert_eq!(bits(&exact[(cols - 1) * ld..]), bits(tile.col(cols - 1)));
                let short = std::panic::catch_unwind(|| {
                    let mut short = vec![SENTINEL; (cols - 1) * ld + rows - 1];
                    packed.unpack_to_cols(&mut short, ld);
                });
                assert!(short.is_err(), "{rows}x{cols}: short window accepted");
            }
        }
        // Nothing to write, nothing touched — even with no window at all.
        PackedTile::default().unpack_to_cols(&mut [], 0);
    }

    #[test]
    fn fused_potf2_rejects_indefinite_with_matching_pivot() {
        let mut a = Matrix::from_rows(2, 2, &[1.0, 2.0, 2.0, 1.0]);
        match fused::potf2(&mut a).unwrap_err() {
            MatrixError::NotSpd { pivot, value } => {
                assert_eq!(pivot, 1);
                assert!((value - (-3.0)).abs() < 1e-12);
            }
            e => panic!("unexpected error {e:?}"),
        }
    }
}
