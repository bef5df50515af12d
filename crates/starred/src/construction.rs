//! The `T'` construction of Equation (4) and Algorithm 1: matrix
//! multiplication *by* Cholesky decomposition.
//!
//! Given `n x n` matrices `A` and `B`, the `3n x 3n` matrix
//!
//! ```text
//!        ( I     A^T   -B )
//! T'  =  ( A     C      0 )
//!        ( -B^T  0      C )
//! ```
//!
//! (`C` = `1*` on the diagonal, `0*` off it) has the unique classical
//! Cholesky factor
//!
//! ```text
//!        ( I                    )
//! L   =  ( A     C'             )
//!        ( -B^T  (A*B)^T   C'   )
//! ```
//!
//! so `A * B` can be read off block `(3,2)` of `L` (transposed).  Lemma
//! 2.2 proves no starred value contaminates that block, for *any*
//! summation order — which this module's tests check against every
//! algorithm in the zoo.

use crate::star::{OneStar, Real, Star, ZeroStar};
use cholcomm_matrix::{kernels, Matrix, MatrixError};

/// Build `T'(A, B)` per Equation (4).  Panics unless `A` and `B` are both
/// `n x n`.
pub fn build_t_prime(a: &Matrix<f64>, b: &Matrix<f64>) -> Matrix<Star> {
    let n = a.rows();
    assert!(a.is_square() && b.is_square(), "A and B must be square");
    assert_eq!(b.rows(), n, "A and B must have equal order");
    Matrix::from_fn(3 * n, 3 * n, |i, j| {
        let (bi, ii) = (i / n, i % n);
        let (bj, jj) = (j / n, j % n);
        match (bi, bj) {
            // Block (1,1): I
            (0, 0) => Real(if ii == jj { 1.0 } else { 0.0 }),
            // Block (1,2): A^T ; Block (2,1): A
            (0, 1) => Real(a[(jj, ii)]),
            (1, 0) => Real(a[(ii, jj)]),
            // Block (1,3): -B ; Block (3,1): -B^T
            (0, 2) => Real(-b[(ii, jj)]),
            (2, 0) => Real(-b[(jj, ii)]),
            // Blocks (2,2) and (3,3): C
            (1, 1) | (2, 2) => {
                if ii == jj {
                    OneStar
                } else {
                    ZeroStar
                }
            }
            // Blocks (2,3) and (3,2): real zero
            _ => Real(0.0),
        }
    })
}

/// Extract `A * B = (L_32)^T` from an in-place Cholesky factor of `T'`.
///
/// Returns an error if any entry of the product block is still starred —
/// which Lemma 2.2 proves cannot happen for a classical algorithm, so an
/// error here means the algorithm under test is *not* classical.
pub fn extract_product(factor: &Matrix<Star>, n: usize) -> Result<Matrix<f64>, MatrixError> {
    assert_eq!(factor.rows(), 3 * n);
    let mut c = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            // L_32 lives at rows 2n.., cols n..2n; the product is its
            // transpose.
            match factor[(2 * n + j, n + i)] {
                Real(x) => c[(i, j)] = x,
                _ => {
                    return Err(MatrixError::DimensionMismatch {
                        context: "starred value leaked into the product block (non-classical algorithm?)",
                    })
                }
            }
        }
    }
    Ok(c)
}

/// Algorithm 1: multiply `A * B` by running the supplied classical
/// Cholesky routine on `T'(A, B)`.
///
/// `cholesky` must factor its argument in place (lower triangle), exactly
/// like every routine in `cholcomm-seq`.
///
/// ```
/// use cholcomm_matrix::{kernels, Matrix};
/// use cholcomm_starred::matmul_by_cholesky;
///
/// let a = Matrix::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]);
/// let b = Matrix::from_rows(2, 2, &[5.0, 6.0, 7.0, 8.0]);
/// let c = matmul_by_cholesky(&a, &b, |t| kernels::potf2(t)).unwrap();
/// assert_eq!(c[(0, 0)], 19.0);
/// assert_eq!(c[(1, 1)], 50.0);
/// ```
pub fn matmul_by_cholesky(
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    cholesky: impl FnOnce(&mut Matrix<Star>) -> Result<(), MatrixError>,
) -> Result<Matrix<f64>, MatrixError> {
    let n = a.rows();
    let mut t = build_t_prime(a, b);
    cholesky(&mut t)?;
    extract_product(&t, n)
}

/// The expected full factor `L` of Equation (4), for direct comparison in
/// tests: `L11 = I`, `L21 = A`, `L31 = -B^T`, `L22 = L33 = C'`,
/// `L32 = (A*B)^T`.
pub fn expected_factor(a: &Matrix<f64>, b: &Matrix<f64>) -> Matrix<Star> {
    let n = a.rows();
    let ab = kernels::matmul(a, b);
    Matrix::from_fn(3 * n, 3 * n, |i, j| {
        if j > i {
            return Real(0.0);
        }
        let (bi, ii) = (i / n, i % n);
        let (bj, jj) = (j / n, j % n);
        match (bi, bj) {
            (0, 0) => Real(if ii == jj { 1.0 } else { 0.0 }),
            (1, 0) => Real(a[(ii, jj)]),
            (2, 0) => Real(-b[(jj, ii)]),
            (1, 1) | (2, 2) => {
                if ii == jj {
                    OneStar
                } else if ii > jj {
                    ZeroStar
                } else {
                    Real(0.0)
                }
            }
            (2, 1) => Real(ab[(jj, ii)]),
            _ => Real(0.0),
        }
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use cholcomm_matrix::kernels::potf2;
    use cholcomm_matrix::{norms, spd, Scalar};
    use rand::RngExt;

    fn random_pair(n: usize, seed: u64) -> (Matrix<f64>, Matrix<f64>) {
        let mut rng = spd::test_rng(seed);
        let a = Matrix::from_fn(n, n, |_, _| rng.random_range(-2.0..2.0));
        let b = Matrix::from_fn(n, n, |_, _| rng.random_range(-2.0..2.0));
        (a, b)
    }

    #[test]
    fn t_prime_is_symmetric_in_the_star_sense() {
        let (a, b) = random_pair(4, 1);
        let t = build_t_prime(&a, &b);
        for i in 0..12 {
            for j in 0..12 {
                assert_eq!(t[(i, j)], t[(j, i)]);
            }
        }
    }

    #[test]
    fn algorithm1_with_potf2_multiplies() {
        for n in [1usize, 2, 3, 5, 8] {
            let (a, b) = random_pair(n, 7 + n as u64);
            let c = matmul_by_cholesky(&a, &b, potf2).unwrap();
            let reference = kernels::matmul(&a, &b);
            assert!(
                norms::max_abs_diff(&c, &reference) < 1e-10,
                "n = {n}"
            );
        }
    }

    #[test]
    fn factor_matches_expected_blocks() {
        let (a, b) = random_pair(3, 42);
        let mut t = build_t_prime(&a, &b);
        potf2(&mut t).unwrap();
        let want = expected_factor(&a, &b);
        for i in 0..9 {
            for j in 0..=i {
                let (got, exp) = (t[(i, j)], want[(i, j)]);
                match (got, exp) {
                    (Real(x), Real(y)) => {
                        assert!((x - y).abs() < 1e-10, "L[{i},{j}] = {x} want {y}")
                    }
                    (g, e) => assert_eq!(g, e, "L[{i},{j}]"),
                }
            }
        }
    }

    #[test]
    fn c_block_factor_is_c_prime() {
        // Equation (3): Chol(C) has 1* diagonal and 0* strictly below.
        let n = 4;
        let mut c = Matrix::from_fn(n, n, |i, j| if i == j { OneStar } else { ZeroStar });
        potf2(&mut c).unwrap();
        for i in 0..n {
            for j in 0..=i {
                let want = if i == j { OneStar } else { ZeroStar };
                assert_eq!(c[(i, j)], want);
            }
        }
    }

    #[test]
    fn starred_identities_from_the_paper() {
        // "if X contains no starred values then C*X = X ... and C + X = C"
        let n = 3;
        let c = Matrix::from_fn(n, n, |i, j| if i == j { OneStar } else { ZeroStar });
        let x = Matrix::from_fn(n, n, |i, j| Star::from_f64((i + 2 * j) as f64 + 1.0));
        let cx = kernels::matmul(&c, &x);
        for i in 0..n {
            for j in 0..n {
                assert_eq!(cx[(i, j)], x[(i, j)], "C * X = X");
            }
        }
        let mut cpx = c.clone();
        for i in 0..n {
            for j in 0..n {
                cpx[(i, j)] = cpx[(i, j)] + x[(i, j)];
            }
        }
        for i in 0..n {
            for j in 0..n {
                assert_eq!(cpx[(i, j)], c[(i, j)], "C + X = C");
            }
        }
    }

    #[test]
    fn extract_detects_contamination() {
        let n = 2;
        let mut fake = Matrix::<Star>::zeros(3 * n, 3 * n);
        fake[(2 * n, n)] = ZeroStar; // starred value where the product should be
        assert!(extract_product(&fake, n).is_err());
    }
}
