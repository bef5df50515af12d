//! Property tests for the kernel engines: the packed, cache-blocked
//! fast kernels against the reference oracle over random rectangular
//! shapes, including every degenerate size class the blocking logic has
//! to survive (empty, single row/column, prime, exact multiples of the
//! block parameters, one-off-a-multiple).
//!
//! Two contracts, one per fast engine:
//!
//! * [`KernelImpl::FastStrict`] preserves both the per-element operation
//!   *order* and the per-operation *rounding* of the reference triple
//!   loop — results must be **bit-identical** on every op and shape;
//! * [`KernelImpl::Fast`] preserves the operation order but contracts
//!   each multiply-add through hardware FMA (one rounding fewer per
//!   product) — results must agree to a contraction residual scaled by
//!   the inner-product length.

use cholcomm::matrix::{norms, spd, KernelImpl, Matrix, Operand, PackedTile};
use proptest::prelude::*;

/// Size classes that stress the blocking: 0 and 1 (empty/scalar), primes
/// (never align with MR=16/NR=8/PB=32), exact block multiples, and
/// one-off-a-multiple on both sides.
const DIMS: [usize; 12] = [0, 1, 2, 7, 8, 16, 17, 31, 32, 33, 48, 67];

fn dim() -> impl Strategy<Value = usize> {
    (0usize..DIMS.len()).prop_map(|i| DIMS[i])
}

fn mat(m: usize, n: usize, seed: u64) -> Matrix<f64> {
    let mut rng = spd::test_rng(seed);
    Matrix::from_fn(m, n, |_, _| {
        use rand::RngExt;
        rng.random_range(-1.0..1.0)
    })
}

/// A well-conditioned lower-triangular factor (diagonally dominant).
fn lower_factor(n: usize, seed: u64) -> Matrix<f64> {
    let mut rng = spd::test_rng(seed);
    Matrix::from_fn(n, n, |i, j| {
        use rand::RngExt;
        if i == j {
            (n as f64) + 1.0 + rng.random_range(0.0..1.0)
        } else if i > j {
            rng.random_range(-1.0..1.0)
        } else {
            0.0
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn strict_gemm_nn_is_bit_identical(m in dim(), n in dim(), k in dim(), seed in 0u64..10_000) {
        let a = mat(m, k, seed);
        let b = mat(k, n, seed ^ 0x5bd1e995);
        let c = mat(m, n, seed ^ 0x9e3779b9);
        let mut r = c.clone();
        let mut s = c.clone();
        KernelImpl::Reference.gemm_nn(&mut r, -1.0, &a, &b);
        KernelImpl::FastStrict.gemm_nn(&mut s, -1.0, &a, &b);
        prop_assert_eq!(r, s);
    }

    #[test]
    fn strict_gemm_nt_is_bit_identical(m in dim(), n in dim(), k in dim(), seed in 0u64..10_000) {
        let a = mat(m, k, seed);
        let b = mat(n, k, seed ^ 0x5bd1e995);
        let c = mat(m, n, seed ^ 0x9e3779b9);
        let mut r = c.clone();
        let mut s = c.clone();
        KernelImpl::Reference.gemm_nt(&mut r, 2.5, &a, &b);
        KernelImpl::FastStrict.gemm_nt(&mut s, 2.5, &a, &b);
        prop_assert_eq!(r, s);
    }

    #[test]
    fn strict_syrk_is_bit_identical(n in dim(), k in dim(), seed in 0u64..10_000) {
        let a = mat(n, k, seed);
        let c = mat(n, n, seed ^ 0x9e3779b9);
        let mut r = c.clone();
        let mut s = c.clone();
        KernelImpl::Reference.syrk_lower(&mut r, &a);
        KernelImpl::FastStrict.syrk_lower(&mut s, &a);
        prop_assert_eq!(r, s);
    }

    #[test]
    fn strict_trsm_is_bit_identical(m in dim(), n in dim(), seed in 0u64..10_000) {
        let l = lower_factor(n, seed);
        let b = mat(m, n, seed ^ 0x5bd1e995);
        let mut r = b.clone();
        let mut s = b.clone();
        KernelImpl::Reference.trsm_right_lower_transpose(&mut r, &l);
        KernelImpl::FastStrict.trsm_right_lower_transpose(&mut s, &l);
        prop_assert_eq!(r, s);
    }

    #[test]
    fn strict_potf2_is_bit_identical(n in dim(), seed in 0u64..10_000) {
        let mut rng = spd::test_rng(seed);
        let a = spd::random_spd(n, &mut rng);
        let mut r = a.clone();
        let mut s = a;
        KernelImpl::Reference.potf2(&mut r).unwrap();
        KernelImpl::FastStrict.potf2(&mut s).unwrap();
        prop_assert_eq!(r, s);
    }

    #[test]
    fn fused_gemms_agree_to_contraction_residual(m in dim(), n in dim(), k in dim(), seed in 0u64..10_000) {
        // Data in [-1, 1]: each contracted product saves one rounding of
        // magnitude <= eps, so the residual is bounded by ~k * eps.
        let tol = 1e-13 * (k.max(1) as f64);
        let a = mat(m, k, seed);
        let b = mat(k, n, seed ^ 0x5bd1e995);
        let bt = mat(n, k, seed ^ 0x5bd1e995);
        let c = mat(m, n, seed ^ 0x9e3779b9);

        let mut r = c.clone();
        let mut f = c.clone();
        KernelImpl::Reference.gemm_nn(&mut r, -1.0, &a, &b);
        KernelImpl::Fast.gemm_nn(&mut f, -1.0, &a, &b);
        prop_assert!(norms::max_abs_diff(&r, &f) <= tol);

        let mut r = c.clone();
        let mut f = c.clone();
        KernelImpl::Reference.gemm_nt(&mut r, -1.0, &a, &bt);
        KernelImpl::Fast.gemm_nt(&mut f, -1.0, &a, &bt);
        prop_assert!(norms::max_abs_diff(&r, &f) <= tol);

        let an = mat(n, k, seed ^ 0x6c62272e);
        let cn = mat(n, n, seed ^ 0x01000193);
        let mut r = cn.clone();
        let mut f = cn.clone();
        KernelImpl::Reference.syrk_lower(&mut r, &an);
        KernelImpl::Fast.syrk_lower(&mut f, &an);
        prop_assert!(norms::max_abs_diff(&r, &f) <= tol);
    }

    #[test]
    fn fused_trsm_and_potf2_agree_to_residual(n in dim(), seed in 0u64..10_000) {
        let tol = 1e-11 * (n.max(1) as f64);

        let l = lower_factor(n, seed);
        let b = mat(n.max(1), n, seed ^ 0x5bd1e995);
        let mut r = b.clone();
        let mut f = b.clone();
        KernelImpl::Reference.trsm_right_lower_transpose(&mut r, &l);
        KernelImpl::Fast.trsm_right_lower_transpose(&mut f, &l);
        prop_assert!(norms::max_abs_diff(&r, &f) <= tol);

        let mut rng = spd::test_rng(seed);
        let a = spd::random_spd(n, &mut rng);
        let mut r = a.clone();
        let mut f = a;
        KernelImpl::Reference.potf2(&mut r).unwrap();
        KernelImpl::Fast.potf2(&mut f).unwrap();
        prop_assert!(norms::max_abs_diff(&r, &f) <= tol);
    }
}

#[test]
fn engines_reject_the_same_indefinite_pivot() {
    // An indefinite matrix: every engine must stop at the same pivot
    // column (the strict engine with the same value bit-for-bit).
    let n = 37;
    let mut rng = spd::test_rng(7);
    let mut a = spd::random_spd(n, &mut rng);
    a[(20, 20)] = -4.0;

    let mut r = a.clone();
    let r_err = KernelImpl::Reference.potf2(&mut r).unwrap_err();
    let mut s = a.clone();
    let s_err = KernelImpl::FastStrict.potf2(&mut s).unwrap_err();
    assert_eq!(format!("{r_err:?}"), format!("{s_err:?}"));

    let mut f = a;
    let f_err = KernelImpl::Fast.potf2(&mut f).unwrap_err();
    // The fused pivot value may differ in the last ulps; the column may not.
    let (rp, fp) = match (&r_err, &f_err) {
        (
            cholcomm::matrix::MatrixError::NotSpd { pivot: rp, .. },
            cholcomm::matrix::MatrixError::NotSpd { pivot: fp, .. },
        ) => (*rp, *fp),
        other => panic!("expected NotSpd from both engines, got {other:?}"),
    };
    assert_eq!(rp, fp);
}

/// `mat` with signed zeros and subnormals sprinkled in: the entries where
/// `c - a * b` and `c + a * (-b)` could part ways if they ever did.
fn mat_with_edge_values(m: usize, n: usize, seed: u64) -> Matrix<f64> {
    const EDGE: [f64; 4] = [0.0, -0.0, 5e-324, -2.2e-308];
    let mut t = mat(m, n, seed);
    for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
        if (i as u64 + seed).is_multiple_of(5) {
            *v = EDGE[(i / 5 + seed as usize) % EDGE.len()];
        }
    }
    t
}

fn bits(t: &Matrix<f64>) -> Vec<u64> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// `C <- C - A * B^T` the way the tile schedule runs it on a `b x b`
/// grid: over packed operands wherever the engine packs that grid.
fn scheduled_update(
    kernel: KernelImpl,
    b: usize,
    c: &mut Matrix<f64>,
    li: &Matrix<f64>,
    lj: &Matrix<f64>,
) -> bool {
    let packs = kernel.packs_tiles::<f64>(b);
    if packs {
        let (mut pi, mut pj) = (PackedTile::default(), PackedTile::default());
        kernel.pack_tile(li, &mut pi);
        kernel.pack_tile(lj, &mut pj);
        kernel.update(c, Operand::Packed(&pi), Operand::Packed(&pj));
    } else {
        kernel.update(c, Operand::Plain(li), Operand::Plain(lj));
    }
    packs
}

#[test]
fn packed_update_is_bit_identical_to_gemm_nt_for_every_engine() {
    const SIZES: [usize; 10] = [1, 7, 8, 15, 16, 17, 24, 32, 100, 128];
    let engines = [KernelImpl::Reference, KernelImpl::FastStrict, KernelImpl::Fast];
    let mut shapes = Vec::new();
    for m in SIZES {
        for n in SIZES {
            for k in SIZES {
                shapes.push((m, n, k, true));
            }
        }
    }
    // No depth at all, and tiles past one MC x KC block in each
    // dimension: those grids are never packed.
    shapes.extend([(16, 8, 0, true), (33, 17, 0, true)]);
    shapes.extend([(130, 16, 16, false), (16, 130, 16, false), (16, 16, 300, false)]);

    for (case, &(m, n, k, packable)) in shapes.iter().enumerate() {
        let seed = case as u64;
        let li = mat_with_edge_values(m, k, seed);
        let lj = mat_with_edge_values(n, k, seed ^ 0x5bd1e995);
        let c0 = mat_with_edge_values(m, n, seed ^ 0x9e3779b9);
        let mut reference = c0.clone();
        KernelImpl::Reference.gemm_nt(&mut reference, -1.0, &li, &lj);
        for kernel in engines {
            let mut plain = c0.clone();
            kernel.gemm_nt(&mut plain, -1.0, &li, &lj);
            let mut scheduled = c0.clone();
            let packed = scheduled_update(kernel, m.max(n).max(k), &mut scheduled, &li, &lj);
            assert_eq!(packed, packable && kernel != KernelImpl::Reference, "{m}x{n}x{k}");
            assert_eq!(bits(&scheduled), bits(&plain), "{kernel:?} {m}x{n}x{k}");
            if kernel == KernelImpl::FastStrict {
                assert_eq!(bits(&scheduled), bits(&reference), "strict {m}x{n}x{k}");
            }
        }
    }
}

#[test]
fn packing_round_trips_every_bit() {
    for (m, n) in [(0, 0), (0, 5), (5, 0), (1, 1), (7, 3), (16, 16), (17, 33), (100, 128), (128, 256)] {
        let t = mat_with_edge_values(m, n, (m * 131 + n) as u64);
        let mut packed = PackedTile::default();
        // Packing over a longer, dirty buffer must not leak its contents.
        packed.pack(&mat(128, 64, 3));
        packed.pack(&t);
        assert_eq!((packed.rows(), packed.cols()), (m, n));
        assert_eq!(bits(&packed.unpack()), bits(&t), "{m}x{n}");
        let replaced = PackedTile::replacing(t.clone());
        assert_eq!(bits(&replaced.unpack()), bits(&t), "{m}x{n} in place");

        // unpack_into writes exactly the tile's cells.
        let mut around = Matrix::from_fn(m + 3, n + 2, |_, _| 7.0);
        packed.unpack_into(&mut around, 2, 1);
        for j in 0..n + 2 {
            for i in 0..m + 3 {
                let inside = i >= 2 && i < 2 + m && j >= 1 && j < 1 + n;
                let want = if inside { t[(i - 2, j - 1)] } else { 7.0 };
                assert_eq!(around[(i, j)].to_bits(), want.to_bits(), "{m}x{n} ({i},{j})");
            }
        }
    }
}
