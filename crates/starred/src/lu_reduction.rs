//! Equation (1): the (easier) reduction from matrix multiplication to
//! **LU** decomposition, which the paper presents before building the
//! starred machinery for Cholesky:
//!
//! ```text
//! ( I  0  -B )   ( I       )   ( I  0  -B  )
//! ( A  I   0 ) = ( A  I    ) * (    I  A*B )
//! ( 0  0   I )   ( 0  0  I )   (        I  )
//! ```
//!
//! Every pivot of `T` is exactly 1, so LU without pivoting succeeds and
//! `A * B` appears in block `U_23`.  "To accommodate pivoting A and/or B
//! can be scaled down to be too small to be chosen as pivots, and A*B
//! scaled up accordingly" — the scaled variant is provided too, and the
//! tests confirm both recover the product exactly.

use cholcomm_matrix::kernels::{getrf_nopiv, matmul};
use cholcomm_matrix::{Matrix, MatrixError, Scalar};

/// Build the `3n x 3n` matrix `T` of Equation (1), with `A` scaled by
/// `scale` (and the extracted product rescaled by `1/scale` in
/// [`extract_lu_product`]).
pub fn build_t_lu<S: Scalar>(a: &Matrix<S>, b: &Matrix<S>, scale: S) -> Matrix<S> {
    let n = a.rows();
    assert!(a.is_square() && b.is_square() && b.rows() == n);
    Matrix::from_fn(3 * n, 3 * n, |i, j| {
        let (bi, ii) = (i / n, i % n);
        let (bj, jj) = (j / n, j % n);
        match (bi, bj) {
            (0, 0) | (1, 1) | (2, 2) => {
                if ii == jj {
                    S::one()
                } else {
                    S::zero()
                }
            }
            (1, 0) => a[(ii, jj)] * scale,
            (0, 2) => -b[(ii, jj)],
            _ => S::zero(),
        }
    })
}

/// Read `A * B` out of block `U_23` of the in-place LU factor,
/// compensating the input scaling.
pub fn extract_lu_product<S: Scalar>(factor: &Matrix<S>, n: usize, scale: S) -> Matrix<S> {
    Matrix::from_fn(n, n, |i, j| {
        // U(n + i, 2n + j) holds scale * (A*B)(i, j); note Eq (1) states
        // the product appears with a + sign because T carries -B.
        factor[(n + i, 2 * n + j)] / scale
    })
}

/// Multiply `A * B` by LU-factoring `T(A, B)` (Equation (1)).
pub fn matmul_by_lu(a: &Matrix<f64>, b: &Matrix<f64>) -> Result<Matrix<f64>, MatrixError> {
    matmul_by_lu_scaled(a, b, 1.0)
}

/// The pivoting-robust variant: scale `A` down by `scale < 1` so no
/// entry of the `A` block could be preferred as a pivot over the unit
/// diagonal, and rescale the product on extraction.
pub fn matmul_by_lu_scaled(
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    scale: f64,
) -> Result<Matrix<f64>, MatrixError> {
    let n = a.rows();
    let mut t = build_t_lu(a, b, scale);
    getrf_nopiv(&mut t)?;
    let prod = extract_lu_product(&t, n, scale);
    // Equation (1) produces +A*B in U_23 (the -B block absorbs the sign:
    // the elimination computes 0 - A * (-B) = A*B).
    Ok(prod)
}

/// Reference check helper: `||matmul_by_lu(A,B) - A*B||_max`.
pub fn lu_reduction_error(a: &Matrix<f64>, b: &Matrix<f64>) -> f64 {
    let got = matmul_by_lu(a, b).expect("unit pivots");
    let want = matmul(a, b);
    cholcomm_matrix::norms::max_abs_diff(&got, &want)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use cholcomm_matrix::spd;
    use proptest::prelude::*;
    use rand::RngExt;

    fn random_pair(n: usize, seed: u64) -> (Matrix<f64>, Matrix<f64>) {
        let mut rng = spd::test_rng(seed);
        let a = Matrix::from_fn(n, n, |_, _| rng.random_range(-2.0..2.0));
        let b = Matrix::from_fn(n, n, |_, _| rng.random_range(-2.0..2.0));
        (a, b)
    }

    #[test]
    fn equation_1_recovers_the_product() {
        for n in [1usize, 2, 3, 5, 8] {
            let (a, b) = random_pair(n, 150 + n as u64);
            assert!(lu_reduction_error(&a, &b) < 1e-10, "n = {n}");
        }
    }

    #[test]
    fn the_factor_matches_equation_1_block_structure() {
        let (a, b) = random_pair(3, 160);
        let mut t = build_t_lu(&a, &b, 1.0);
        getrf_nopiv(&mut t).unwrap();
        let n = 3;
        // L21 block = A.
        for i in 0..n {
            for j in 0..n {
                assert!((t[(n + i, j)] - a[(i, j)]).abs() < 1e-12);
            }
        }
        // U13 block = -B (untouched by elimination).
        for i in 0..n {
            for j in 0..n {
                assert!((t[(i, 2 * n + j)] + b[(i, j)]).abs() < 1e-12);
            }
        }
        // All pivots exactly 1.
        for k in 0..3 * n {
            assert_eq!(t[(k, k)], 1.0, "pivot {k}");
        }
    }

    #[test]
    fn scaling_variant_is_exact_too() {
        let (a, b) = random_pair(4, 161);
        let got = matmul_by_lu_scaled(&a, &b, 1e-6).unwrap();
        let want = matmul(&a, &b);
        assert!(cholcomm_matrix::norms::max_abs_diff(&got, &want) < 1e-6);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn lu_reduction_is_exact_for_random_inputs(
            (a, b) in (1usize..6).prop_flat_map(|n| {
                let m = proptest::collection::vec(-3.0f64..3.0, n * n);
                (m.clone().prop_map(move |v| Matrix::from_rows(n, n, &v)),
                 proptest::collection::vec(-3.0f64..3.0, n * n)
                    .prop_map(move |v| Matrix::from_rows(n, n, &v)))
            })
        ) {
            prop_assert!(lu_reduction_error(&a, &b) < 1e-9);
        }
    }
}
