//! Triangular solves and SPD linear-system solution through the Cholesky
//! factor — the downstream consumer of every factorization in this
//! workspace ("used for solving dense symmetric positive definite linear
//! systems", paper abstract).

use crate::dense::Matrix;
use crate::error::MatrixError;
use crate::kernels::potf2;
use crate::scalar::Scalar;

/// Forward substitution: solve `L y = b` with `L` the lower triangle of
/// `factor` (diagonal included).
pub fn forward_sub<S: Scalar>(factor: &Matrix<S>, b: &[S]) -> Vec<S> {
    let n = factor.rows();
    assert_eq!(b.len(), n, "rhs length");
    let mut y = vec![S::zero(); n];
    for i in 0..n {
        let mut v = b[i];
        for k in 0..i {
            v = v - factor[(i, k)] * y[k];
        }
        y[i] = v / factor[(i, i)];
    }
    y
}

/// Backward substitution: solve `L^T x = y` with `L` the lower triangle of
/// `factor`.
pub fn backward_sub<S: Scalar>(factor: &Matrix<S>, y: &[S]) -> Vec<S> {
    let n = factor.rows();
    assert_eq!(y.len(), n, "rhs length");
    let mut x = vec![S::zero(); n];
    for i in (0..n).rev() {
        let mut v = y[i];
        for k in (i + 1)..n {
            // (L^T)[i,k] = L[k,i]
            v = v - factor[(k, i)] * x[k];
        }
        x[i] = v / factor[(i, i)];
    }
    x
}

/// Solve `A x = b` given the in-place Cholesky `factor` of `A`
/// (two triangular solves).
pub fn solve_with_factor<S: Scalar>(factor: &Matrix<S>, b: &[S]) -> Vec<S> {
    let y = forward_sub(factor, b);
    backward_sub(factor, &y)
}

/// Factor-and-solve convenience: Cholesky-factor a copy of `a`, then solve
/// `A x = b`.
pub fn solve_spd(a: &Matrix<f64>, b: &[f64]) -> Result<Vec<f64>, MatrixError> {
    let mut f = a.clone();
    potf2(&mut f)?;
    Ok(solve_with_factor(&f, b))
}

/// Inverse of an SPD matrix through its Cholesky factor: column `j` of
/// `A^{-1}` solves `A x = e_j`.  (Quadratic solves on top of the cubic
/// factorization — the textbook route the example applications use.)
pub fn invert_spd(a: &Matrix<f64>) -> Result<Matrix<f64>, MatrixError> {
    let n = a.rows();
    let mut f = a.clone();
    potf2(&mut f)?;
    let mut inv = Matrix::zeros(n, n);
    let mut e = vec![0.0f64; n];
    for j in 0..n {
        e[j] = 1.0;
        let col = solve_with_factor(&f, &e);
        for i in 0..n {
            inv[(i, j)] = col[i];
        }
        e[j] = 0.0;
    }
    Ok(inv)
}

/// Log-determinant of an SPD matrix from its Cholesky factor:
/// `log det A = 2 * sum_i log L(i,i)`.
pub fn logdet_from_factor(factor: &Matrix<f64>) -> f64 {
    (0..factor.rows()).map(|i| factor[(i, i)].ln()).sum::<f64>() * 2.0
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::spd;

    #[test]
    fn solve_recovers_known_solution() {
        let mut rng = spd::test_rng(21);
        let a = spd::random_spd(15, &mut rng);
        let x_true: Vec<f64> = (0..15).map(|i| (i as f64) - 7.0).collect();
        // b = A x
        let b: Vec<f64> = (0..15)
            .map(|i| (0..15).map(|j| a[(i, j)] * x_true[j]).sum())
            .collect();
        let x = solve_spd(&a, &b).unwrap();
        for (xs, xt) in x.iter().zip(&x_true) {
            assert!((xs - xt).abs() < 1e-8, "{xs} vs {xt}");
        }
    }

    #[test]
    fn forward_backward_consistency() {
        let l = Matrix::from_rows(3, 3, &[2.0, 0.0, 0.0, 1.0, 3.0, 0.0, 0.5, -1.0, 4.0]);
        let b = vec![2.0, 7.0, 3.5];
        let y = forward_sub(&l, &b);
        // L y should equal b.
        for i in 0..3 {
            let mut v = 0.0f64;
            for k in 0..=i {
                v += l[(i, k)] * y[k];
            }
            assert!((v - b[i]).abs() < 1e-12);
        }
        let x = backward_sub(&l, &y);
        // L^T x should equal y.
        for i in 0..3 {
            let mut v = 0.0f64;
            for k in i..3 {
                v += l[(k, i)] * x[k];
            }
            assert!((v - y[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn logdet_of_identity_is_zero() {
        let id = Matrix::<f64>::identity(6);
        let mut f = id.clone();
        potf2(&mut f).unwrap();
        assert!(logdet_from_factor(&f).abs() < 1e-14);
    }

    #[test]
    fn logdet_of_diagonal() {
        let a = Matrix::from_rows(2, 2, &[4.0, 0.0, 0.0, 9.0]);
        let mut f = a.clone();
        potf2(&mut f).unwrap();
        assert!((logdet_from_factor(&f) - (36.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn invert_spd_gives_a_two_sided_inverse() {
        let mut rng = spd::test_rng(22);
        let a = spd::random_spd(12, &mut rng);
        let inv = invert_spd(&a).unwrap();
        let prod = crate::kernels::matmul(&a, &inv);
        let id = Matrix::<f64>::identity(12);
        let mut worst = 0.0f64;
        for i in 0..12 {
            for j in 0..12 {
                worst = worst.max((prod[(i, j)] - id[(i, j)]).abs());
            }
        }
        assert!(worst < 1e-9, "||A A^-1 - I||_max = {worst}");
    }

    #[test]
    fn solve_rejects_indefinite() {
        let a = Matrix::from_rows(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        assert!(solve_spd(&a, &[1.0, 1.0]).is_err());
    }
}
