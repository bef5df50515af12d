//! Norms and residuals used by every correctness check in the workspace.

use crate::dense::Matrix;
use crate::kernels::llt;
use crate::scalar::Scalar;

/// Frobenius norm (starred entries contribute zero via
/// [`Scalar::magnitude`]).
pub fn fro_norm<S: Scalar>(a: &Matrix<S>) -> f64 {
    a.as_slice()
        .iter()
        .map(|v| {
            let m = v.magnitude();
            m * m
        })
        .sum::<f64>()
        .sqrt()
}

/// Largest absolute elementwise difference between two equal-shaped
/// matrices.
pub fn max_abs_diff<S: Scalar>(a: &Matrix<S>, b: &Matrix<S>) -> f64 {
    assert_eq!(a.rows(), b.rows());
    assert_eq!(a.cols(), b.cols());
    let mut m = 0.0f64;
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        m = m.max((*x - *y).magnitude());
    }
    m
}

/// Relative factorization residual `||A - L L^T||_F / ||A||_F` with `L`
/// taken from the lower triangle of `factor` (the in-place output format
/// shared by every Cholesky routine here).
pub fn cholesky_residual(a: &Matrix<f64>, factor: &Matrix<f64>) -> f64 {
    let l = factor.lower_triangle().expect("square factor");
    let rebuilt = llt(&l);
    let mut diff = 0.0f64;
    for j in 0..a.cols() {
        for i in 0..a.rows() {
            let d = a[(i, j)] - rebuilt[(i, j)];
            diff += d * d;
        }
    }
    diff.sqrt() / fro_norm(a).max(f64::MIN_POSITIVE)
}

/// Conventional backward-stability threshold for an `n x n` Cholesky in
/// `f64`: `c * n * eps` with a generous constant (Higham, §10.1.1 — the
/// paper notes the standard analysis applies to *every* summation order).
pub fn residual_tolerance(n: usize) -> f64 {
    32.0 * n as f64 * f64::EPSILON
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::kernels::potf2;
    use crate::spd;

    #[test]
    fn fro_norm_basics() {
        let a = Matrix::from_rows(2, 2, &[3.0, 0.0, 0.0, 4.0]);
        assert!((fro_norm(&a) - 5.0).abs() < 1e-15);
        assert_eq!(fro_norm(&Matrix::<f64>::zeros(3, 3)), 0.0);
    }

    #[test]
    fn max_abs_diff_detects_difference() {
        let a = Matrix::<f64>::identity(3);
        let mut b = a.clone();
        b[(2, 1)] = 0.5;
        assert_eq!(max_abs_diff(&a, &b), 0.5);
        assert_eq!(max_abs_diff(&a, &a), 0.0);
    }

    #[test]
    fn residual_small_for_true_factor() {
        let mut rng = spd::test_rng(11);
        let a = spd::random_spd(20, &mut rng);
        let mut f = a.clone();
        potf2(&mut f).unwrap();
        let r = cholesky_residual(&a, &f);
        assert!(r < residual_tolerance(20), "residual {r}");
    }

    #[test]
    fn residual_large_for_wrong_factor() {
        let mut rng = spd::test_rng(12);
        let a = spd::random_spd(10, &mut rng);
        let wrong = Matrix::<f64>::identity(10);
        assert!(cholesky_residual(&a, &wrong) > 0.1);
    }
}
