//! Kernel engine selection: reference oracle vs. the packed fast engine.
//!
//! Every substrate (sequential LAPACK schedule, recursive AP00, shared-
//! memory tiles, SPMD ranks, out-of-core tiles) does its arithmetic
//! through a [`KernelImpl`] value.  The selector dispatches per call:
//! [`KernelImpl::Fast`] and [`KernelImpl::FastStrict`] route `f64`
//! operands to [`crate::kernels_fast`] (FMA-contracted and
//! order-and-rounding-preserving respectively); every other scalar (and
//! [`KernelImpl::Reference`]) runs the verbatim oracle in
//! [`crate::kernels`].
//!
//! Two invariants, tested in `tests/cross_algorithm.rs` and
//! `tests/kernel_engine.rs`:
//!
//! * **counts**: the instrumented word/message counts are charged by the
//!   *schedules* (explicit `touch`/`bcast`/tile calls), so they are
//!   byte-identical under every engine;
//! * **bits**: [`KernelImpl::FastStrict`] is bit-identical to
//!   [`KernelImpl::Reference`] on every operation.  [`KernelImpl::Fast`]
//!   additionally lets hardware FMA contract multiply-add pairs — same
//!   per-element operation order, one rounding fewer per product — so
//!   it agrees to a contraction residual instead of exactly.

use std::any::TypeId;
use std::sync::OnceLock;

use crate::dense::Matrix;
use crate::error::MatrixError;
use crate::kernels;
use crate::kernels_fast::{self, PackedTile};
use crate::scalar::Scalar;

/// Which arithmetic engine runs under a schedule.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KernelImpl {
    /// The verbatim triple-loop oracle ([`crate::kernels`]).  Works for
    /// every [`Scalar`]; the baseline every optimisation is tested
    /// against.
    #[default]
    Reference,
    /// The packed, cache-blocked microkernels with FMA contraction
    /// ([`crate::kernels_fast::fused`]).  `f64` only — other scalars
    /// silently fall back to the reference oracle.
    Fast,
    /// The packed microkernels with reference rounding
    /// ([`crate::kernels_fast`]'s strict mode): bit-identical results,
    /// most of the speed.  `f64` only, like [`KernelImpl::Fast`].
    FastStrict,
}

/// A finished panel tile `L(i, k)` in the form an UPDATE reads it: as
/// stored, or packed once for the fast engines' micro-kernel
/// ([`KernelImpl::pack_tile`]).
#[derive(Clone, Copy)]
pub enum Operand<'a, S> {
    /// The plain column-major tile.
    Plain(&'a Matrix<S>),
    /// The tile in micro-panel layout.
    Packed(&'a PackedTile),
}

impl KernelImpl {
    /// Read the engine from the `CHOLCOMM_KERNELS` environment variable
    /// (`fast` selects [`KernelImpl::Fast`], `fast-strict` selects
    /// [`KernelImpl::FastStrict`]; anything else, including an unset
    /// variable, selects [`KernelImpl::Reference`]).
    ///
    /// The variable is resolved **once per process** and cached: this
    /// sits on the dispatch path of every kernel call, and with the
    /// BLAS-3 level fanned across the work-stealing pool a mid-run
    /// `setenv` must not let concurrent workers observe *different*
    /// engines for one factorization (a bitwise-determinism hazard).
    /// Flipping `CHOLCOMM_KERNELS` after the first call is inert
    /// (asserted in `tests/env_kernel.rs`).
    pub fn from_env() -> Self {
        static ENV_ENGINE: OnceLock<KernelImpl> = OnceLock::new();
        *ENV_ENGINE.get_or_init(|| match std::env::var("CHOLCOMM_KERNELS") {
            Ok(v) if v.eq_ignore_ascii_case("fast") => KernelImpl::Fast,
            Ok(v) if v.eq_ignore_ascii_case("fast-strict") => KernelImpl::FastStrict,
            _ => KernelImpl::Reference,
        })
    }

    /// `true` when this engine actually dispatches scalar type `S` to the
    /// fast path.  Recursive schedules use this to decide whether a
    /// gather-to-tile detour at a base case buys anything: for
    /// non-`f64` scalars (or the reference engine) it never does.
    pub fn accelerates<S: Scalar>(self) -> bool {
        self != KernelImpl::Reference && TypeId::of::<S>() == TypeId::of::<f64>()
    }

    /// Stable lowercase name (used in bench JSON and logs).
    pub fn name(self) -> &'static str {
        match self {
            KernelImpl::Reference => "reference",
            KernelImpl::Fast => "fast",
            KernelImpl::FastStrict => "fast-strict",
        }
    }

    /// `C <- C + alpha * A * B` (see [`kernels::gemm_nn`]).
    pub fn gemm_nn<S: Scalar>(self, c: &mut Matrix<S>, alpha: S, a: &Matrix<S>, b: &Matrix<S>) {
        if self != KernelImpl::Reference {
            if let (Some(cf), Some(af), Some(bf), Some(alf)) =
                (as_f64_mut(c), as_f64(a), as_f64(b), scalar_to_f64(&alpha))
            {
                match self {
                    KernelImpl::Fast => kernels_fast::fused::gemm_nn(cf, alf, af, bf),
                    _ => kernels_fast::gemm_nn(cf, alf, af, bf),
                }
                return;
            }
        }
        kernels::gemm_nn(c, alpha, a, b);
    }

    /// `C <- C + alpha * A * B^T` (see [`kernels::gemm_nt`]).
    pub fn gemm_nt<S: Scalar>(self, c: &mut Matrix<S>, alpha: S, a: &Matrix<S>, b: &Matrix<S>) {
        if self != KernelImpl::Reference {
            if let (Some(cf), Some(af), Some(bf), Some(alf)) =
                (as_f64_mut(c), as_f64(a), as_f64(b), scalar_to_f64(&alpha))
            {
                match self {
                    KernelImpl::Fast => kernels_fast::fused::gemm_nt(cf, alf, af, bf),
                    _ => kernels_fast::gemm_nt(cf, alf, af, bf),
                }
                return;
            }
        }
        kernels::gemm_nt(c, alpha, a, b);
    }

    /// `true` when this engine's [`update`](Self::update) reads the panel
    /// tiles of a `b x b` grid of `S` packed: a fast engine, `f64`, and
    /// tiles no larger than one packed block.  Decided per grid, not per
    /// tile, so the two operands of an update are packed together or not
    /// at all.
    pub fn packs_tiles<S: Scalar>(self, b: usize) -> bool {
        self.accelerates::<S>() && PackedTile::fits(b, b)
    }

    /// Pack a panel tile of a grid that [`packs_tiles`](Self::packs_tiles)
    /// into `into`, reusing its buffer.
    pub fn pack_tile<S: Scalar>(self, tile: &Matrix<S>, into: &mut PackedTile) {
        into.pack(as_f64(tile).expect("only f64 tiles are packed (see packs_tiles)"));
    }

    /// The trailing update `C <- C - A * B^T` of the tile schedule.
    /// Packed operands run the fast engines' micro-kernel straight over
    /// them; plain ones are [`gemm_nt`](Self::gemm_nt) with `alpha = -1`.
    /// Same bits either way, for every engine.
    pub fn update<S: Scalar>(self, c: &mut Matrix<S>, a: Operand<'_, S>, b: Operand<'_, S>) {
        match (a, b) {
            (Operand::Plain(a), Operand::Plain(b)) => self.gemm_nt(c, -S::one(), a, b),
            (Operand::Packed(a), Operand::Packed(b)) => {
                let c = as_f64_mut(c).expect("only f64 tiles are packed (see packs_tiles)");
                match self {
                    KernelImpl::Fast => kernels_fast::fused::gemm_nt_packed(c, a, b),
                    _ => kernels_fast::gemm_nt_packed(c, a, b),
                }
            }
            _ => unreachable!("the operands of an update are packed together or not at all"),
        }
    }

    /// The diagonal trailing update, [`update`](Self::update) with `A` as
    /// both operands and `C` a diagonal tile: only the lower triangle is
    /// touched, whichever form `A` is in ([`syrk_lower`](Self::syrk_lower)
    /// on a plain one; on a packed one the micro-tiles above the diagonal
    /// are skipped).  Same bits either way, for every engine.
    pub fn update_diag<S: Scalar>(self, c: &mut Matrix<S>, a: Operand<'_, S>) {
        match a {
            Operand::Plain(a) => self.syrk_lower(c, a),
            Operand::Packed(a) => {
                let c = as_f64_mut(c).expect("only f64 tiles are packed (see packs_tiles)");
                match self {
                    KernelImpl::Fast => kernels_fast::fused::syrk_lower_packed(c, a),
                    _ => kernels_fast::syrk_lower_packed(c, a),
                }
            }
        }
    }

    /// Lower-triangle `C <- C - A * A^T` (see [`kernels::syrk_lower`]).
    pub fn syrk_lower<S: Scalar>(self, c: &mut Matrix<S>, a: &Matrix<S>) {
        if self != KernelImpl::Reference {
            if let (Some(cf), Some(af)) = (as_f64_mut(c), as_f64(a)) {
                match self {
                    KernelImpl::Fast => kernels_fast::fused::syrk_lower(cf, af),
                    _ => kernels_fast::syrk_lower(cf, af),
                }
                return;
            }
        }
        kernels::syrk_lower(c, a);
    }

    /// `X <- B * L^{-T}` (see [`kernels::trsm_right_lower_transpose`]).
    pub fn trsm_right_lower_transpose<S: Scalar>(self, b: &mut Matrix<S>, l: &Matrix<S>) {
        if self != KernelImpl::Reference {
            if let (Some(bf), Some(lf)) = (as_f64_mut(b), as_f64(l)) {
                match self {
                    KernelImpl::Fast => kernels_fast::fused::trsm_right_lower_transpose(bf, lf),
                    _ => kernels_fast::trsm_right_lower_transpose(bf, lf),
                }
                return;
            }
        }
        kernels::trsm_right_lower_transpose(b, l);
    }

    /// In-place Cholesky of the lower triangle (see [`kernels::potf2`]).
    pub fn potf2<S: Scalar>(self, a: &mut Matrix<S>) -> Result<(), MatrixError> {
        if self != KernelImpl::Reference {
            if let Some(af) = as_f64_mut(a) {
                return match self {
                    KernelImpl::Fast => kernels_fast::fused::potf2(af),
                    _ => kernels_fast::potf2(af),
                };
            }
        }
        kernels::potf2(a)
    }
}

// The downcasts below reinterpret `Matrix<S>`/`S` as `Matrix<f64>`/`f64`
// behind a `TypeId` proof.  Pin `f64`'s layout at compile time so a
// hypothetical platform where the assumption breaks fails the build,
// not the cast.
const _: () = {
    assert!(std::mem::size_of::<f64>() == 8);
    assert!(std::mem::align_of::<f64>() == 8);
};

/// `&T` as `&U` iff `T` *is* `U` (same `TypeId`).  The identity check
/// makes the pointer cast trivially sound; layout equality is
/// re-asserted in debug builds as a belt-and-suspenders on the proof.
#[inline]
fn downcast_ref<T: 'static, U: 'static>(v: &T) -> Option<&U> {
    if TypeId::of::<T>() == TypeId::of::<U>() {
        debug_assert_eq!(std::mem::size_of::<T>(), std::mem::size_of::<U>());
        debug_assert_eq!(std::mem::align_of::<T>(), std::mem::align_of::<U>());
        // SAFETY: equal TypeIds of 'static types prove T == U, so this
        // is a no-op reference cast.
        Some(unsafe { &*(v as *const T as *const U) })
    } else {
        None
    }
}

/// `&mut T` as `&mut U` iff `T` *is* `U` (same `TypeId`).
#[inline]
fn downcast_mut<T: 'static, U: 'static>(v: &mut T) -> Option<&mut U> {
    if TypeId::of::<T>() == TypeId::of::<U>() {
        debug_assert_eq!(std::mem::size_of::<T>(), std::mem::size_of::<U>());
        debug_assert_eq!(std::mem::align_of::<T>(), std::mem::align_of::<U>());
        // SAFETY: equal TypeIds of 'static types prove T == U.
        Some(unsafe { &mut *(v as *mut T as *mut U) })
    } else {
        None
    }
}

#[inline]
fn as_f64<S: Scalar>(m: &Matrix<S>) -> Option<&Matrix<f64>> {
    downcast_ref::<Matrix<S>, Matrix<f64>>(m)
}

#[inline]
fn as_f64_mut<S: Scalar>(m: &mut Matrix<S>) -> Option<&mut Matrix<f64>> {
    downcast_mut::<Matrix<S>, Matrix<f64>>(m)
}

/// The scalar counterpart: `alpha` as `f64`, by value, `None` for any
/// other scalar — so the dispatchers below bail to the reference path
/// on *one* `if let` instead of a checked matrix cast plus an
/// unchecked scalar cast (the old shape of this code, where a buggy
/// caller could reach the scalar transmute without the `TypeId` proof).
#[inline]
fn scalar_to_f64<S: Scalar>(s: &S) -> Option<f64> {
    downcast_ref::<S, f64>(s).copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norms;
    use crate::spd;

    #[test]
    fn env_selector_defaults_to_reference() {
        // The test environment does not set CHOLCOMM_KERNELS.
        if std::env::var("CHOLCOMM_KERNELS").is_err() {
            assert_eq!(KernelImpl::from_env(), KernelImpl::Reference);
        }
        assert_eq!(KernelImpl::Reference.name(), "reference");
        assert_eq!(KernelImpl::Fast.name(), "fast");
        assert_eq!(KernelImpl::FastStrict.name(), "fast-strict");
    }

    #[test]
    fn strict_engine_agrees_bitwise_on_f64_potf2() {
        let mut rng = spd::test_rng(42);
        let a = spd::random_spd(33, &mut rng);
        let mut r = a.clone();
        let mut f = a.clone();
        KernelImpl::Reference.potf2(&mut r).unwrap();
        KernelImpl::FastStrict.potf2(&mut f).unwrap();
        assert_eq!(r, f);
    }

    #[test]
    fn fused_engine_agrees_to_contraction_residual_on_f64_potf2() {
        let mut rng = spd::test_rng(43);
        let a = spd::random_spd(65, &mut rng);
        let mut r = a.clone();
        let mut f = a.clone();
        KernelImpl::Reference.potf2(&mut r).unwrap();
        KernelImpl::Fast.potf2(&mut f).unwrap();
        assert!(norms::max_abs_diff(&r, &f) <= 1e-11);
    }

    #[test]
    fn fast_engine_falls_back_for_f32() {
        let a = Matrix::<f32>::from_fn(5, 5, |i, j| if i == j { 6.0 } else { 1.0 });
        let mut r = a.clone();
        let mut f = a.clone();
        KernelImpl::Reference.potf2(&mut r).unwrap();
        KernelImpl::Fast.potf2(&mut f).unwrap();
        assert_eq!(r, f);
    }

    #[test]
    fn non_f64_fallback_is_bit_identical_on_every_op() {
        // For f32 operands every engine must take the reference path,
        // so all three engines agree *bitwise* on all five ops.
        let a = Matrix::<f32>::from_fn(9, 7, |i, j| (i as f32 - 0.5) * (j as f32 + 0.25));
        let b = Matrix::<f32>::from_fn(7, 6, |i, j| 1.0 / (1.0 + i as f32 + j as f32));
        let bt = Matrix::<f32>::from_fn(6, 7, |i, j| (i * 7 + j) as f32 * 0.125 - 1.0);
        let mut l = Matrix::<f32>::from_fn(6, 6, |i, j| if i == j { 9.0 } else { 1.0 });
        KernelImpl::Reference.potf2(&mut l).unwrap();
        for engine in [KernelImpl::Fast, KernelImpl::FastStrict] {
            assert!(!engine.accelerates::<f32>());

            let mut c_ref = Matrix::<f32>::zeros(9, 6);
            let mut c_eng = c_ref.clone();
            KernelImpl::Reference.gemm_nn(&mut c_ref, 0.5f32, &a, &b);
            engine.gemm_nn(&mut c_eng, 0.5f32, &a, &b);
            assert_eq!(c_ref, c_eng, "{} gemm_nn", engine.name());

            let mut c_ref = Matrix::<f32>::zeros(9, 6);
            let mut c_eng = c_ref.clone();
            KernelImpl::Reference.gemm_nt(&mut c_ref, -1.0f32, &a, &bt);
            engine.gemm_nt(&mut c_eng, -1.0f32, &a, &bt);
            assert_eq!(c_ref, c_eng, "{} gemm_nt", engine.name());

            let mut s_ref = Matrix::<f32>::from_fn(9, 9, |i, j| (i + j) as f32);
            let mut s_eng = s_ref.clone();
            KernelImpl::Reference.syrk_lower(&mut s_ref, &a);
            engine.syrk_lower(&mut s_eng, &a);
            assert_eq!(s_ref, s_eng, "{} syrk_lower", engine.name());

            let mut x_ref = Matrix::<f32>::from_fn(4, 6, |i, j| (i + 2 * j) as f32);
            let mut x_eng = x_ref.clone();
            KernelImpl::Reference.trsm_right_lower_transpose(&mut x_ref, &l);
            engine.trsm_right_lower_transpose(&mut x_eng, &l);
            assert_eq!(x_ref, x_eng, "{} trsm", engine.name());
        }
    }

    #[test]
    fn downcast_helpers_respect_type_identity() {
        let m64 = Matrix::<f64>::identity(3);
        let m32 = Matrix::<f32>::identity(3);
        assert!(as_f64(&m64).is_some());
        assert!(as_f64(&m32).is_none());
        assert_eq!(scalar_to_f64(&2.5f64), Some(2.5));
        assert_eq!(scalar_to_f64(&2.5f32), None);
        let mut m64m = m64.clone();
        assert!(as_f64_mut(&mut m64m).is_some());
        let mut m32m = m32.clone();
        assert!(as_f64_mut(&mut m32m).is_none());
    }
}
