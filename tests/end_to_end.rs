//! End-to-end application flows through the public API: the downstream
//! tasks a user adopts the library for (solving SPD systems, GP
//! regression, distributed factorization) all work against every
//! factorization path.

use cholcomm::distsim::CostModel;
use cholcomm::layout::{Laid, Morton, RecursivePacked};
use cholcomm::matrix::{norms, spd, tri, KernelImpl, Matrix};
use cholcomm::cachesim::NullTracer;
use cholcomm::par::{par_recursive_potrf, potrf_dag_with, pxpotrf::pxpotrf};
use cholcomm::seq::ap00::square_rchol;

fn apply(a: &Matrix<f64>, x: &[f64]) -> Vec<f64> {
    (0..a.rows())
        .map(|i| (0..a.cols()).map(|j| a[(i, j)] * x[j]).sum())
        .collect()
}

#[test]
fn solve_spd_system_through_the_recursive_factor() {
    let n = 60;
    let mut rng = spd::test_rng(501);
    let a = spd::random_spd(n, &mut rng);
    let x_true: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
    let b = apply(&a, &x_true);

    // Factor in the packed recursive format (half the memory), solve
    // through the densified factor.
    let mut laid = Laid::from_matrix(&a, RecursivePacked::new(n));
    square_rchol(&mut laid, &mut NullTracer, 4).unwrap();
    let x = tri::solve_with_factor(&laid.to_matrix(), &b);
    for (got, want) in x.iter().zip(&x_true) {
        assert!((got - want).abs() < 1e-7, "{got} vs {want}");
    }
}

#[test]
fn gp_regression_pipeline_predicts_a_smooth_function() {
    let n = 80;
    let xs: Vec<f64> = (0..n).map(|i| i as f64 * 0.05).collect();
    let f = |x: f64| (3.0 * x).cos();
    let ys: Vec<f64> = xs.iter().map(|&x| f(x)).collect();
    let mut k = spd::rbf_kernel(&xs, 0.3, 1e-3);
    par_recursive_potrf(&mut k, 16).unwrap();
    let alpha = tri::solve_with_factor(&k, &ys);
    // Predict in-range points.
    for &xstar in &[0.52, 1.23, 2.87] {
        let mean: f64 = xs
            .iter()
            .zip(&alpha)
            .map(|(&xi, &ai)| {
                let d = (xstar - xi) / 0.3;
                (-0.5 * d * d).exp() * ai
            })
            .sum();
        assert!((mean - f(xstar)).abs() < 0.05, "at {xstar}: {mean} vs {}", f(xstar));
    }
    // The log-determinant is finite and negative-ish for a kernel with
    // small noise (many eigenvalues < 1).
    let logdet = tri::logdet_from_factor(&k);
    assert!(logdet.is_finite());
}

#[test]
fn distributed_and_shared_memory_factors_agree() {
    let n = 64;
    let mut rng = spd::test_rng(503);
    let a = spd::random_spd(n, &mut rng);

    let dist = pxpotrf(&a, 16, 16, CostModel::counting()).unwrap().factor;

    let mut tiled = a.clone();
    potrf_dag_with(&mut tiled, 16, KernelImpl::Reference).unwrap();

    let mut recursive = a.clone();
    par_recursive_potrf(&mut recursive, 8).unwrap();

    let mut seq = Laid::from_matrix(&a, Morton::square(n));
    square_rchol(&mut seq, &mut NullTracer, 8).unwrap();
    // Full-storage in-place Cholesky leaves the strict upper triangle
    // untouched; normalise before comparing.
    let seq = seq.to_matrix().lower_triangle().unwrap();

    assert!(norms::max_abs_diff(&dist, &tiled) < 1e-8);
    assert!(norms::max_abs_diff(&tiled, &recursive) < 1e-8);
    assert!(norms::max_abs_diff(&recursive, &seq) < 1e-8);
}

#[test]
fn logdet_and_solve_are_consistent() {
    // det(A) via the factor matches the 2x2 closed form.
    let a = Matrix::from_rows(2, 2, &[5.0, 2.0, 2.0, 3.0]);
    let mut f = a.clone();
    cholcomm::matrix::kernels::potf2(&mut f).unwrap();
    let det = tri::logdet_from_factor(&f).exp();
    assert!((det - 11.0).abs() < 1e-10, "det = {det}");
    let x = tri::solve_with_factor(&f, &[1.0, 1.0]);
    // A x = [1, 1] => x = A^{-1} [1,1] = [1/11, 3/11].
    assert!((x[0] - 1.0 / 11.0).abs() < 1e-12);
    assert!((x[1] - 3.0 / 11.0).abs() < 1e-12);
}

#[test]
fn large_parallel_factorization_smoke() {
    // A bigger end-to-end run: factor, then verify via residual.
    let n = 160;
    let mut rng = spd::test_rng(505);
    let a = spd::random_spd(n, &mut rng);
    let mut f = a.clone();
    potrf_dag_with(&mut f, 32, KernelImpl::Reference).unwrap();
    let r = norms::cholesky_residual(&a, &f);
    assert!(r < norms::residual_tolerance(n), "residual {r}");
}
