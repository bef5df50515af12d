//! Gaussian-process regression — the motivating dense-SPD workload: build
//! an RBF kernel matrix over noisy samples of a function, Cholesky-factor
//! it, and predict at new points (mean + log marginal likelihood).
//!
//! The problem construction lives in [`cholcomm::serve::jobs`], shared
//! with the factorization service's `GpPosterior` job kind — what this
//! example runs once, `cholcomm-serve` runs as a request stream.
//!
//! ```text
//! cargo run --release --example gp_regression
//! ```

use cholcomm::matrix::{tri, KernelImpl, Matrix, MatrixError};
use cholcomm::par::potrf_dag_with;
use cholcomm::serve::jobs::{gp_target, GpProblem};

fn main() {
    // Training data: noisy samples of a smooth function on a jittered
    // grid (the same builder the service's GP job uses).
    let n = 200;
    let gp = GpProblem::synthetic(n, 7);

    // Kernel matrix K + sigma^2 I, factored by the tiled task DAG on the
    // rayon pool (the paper's blocked schedule, run in parallel).
    let mut k = gp.kernel_matrix();
    potrf_dag_with(&mut k, 32, KernelImpl::Reference).expect("kernel matrix is SPD");

    // alpha = K^{-1} y  via the factor.
    let alpha = tri::solve_with_factor(&k, &gp.ys);

    // Predictive mean at test points: m(x*) = k(x*, X) alpha.
    let tests: Vec<f64> = (0..9).map(|i| 0.25 + i as f64 * 0.45).collect();
    println!("{:>8} {:>10} {:>10} {:>10}", "x*", "predicted", "true", "|err|");
    let mut worst = 0.0f64;
    for &xstar in &tests {
        let mean = gp.predict_mean(&alpha, xstar);
        let truth = gp_target(xstar);
        let err = (mean - truth).abs();
        worst = worst.max(err);
        println!("{xstar:>8.3} {mean:>10.4} {truth:>10.4} {err:>10.2e}");
    }
    assert!(worst < 0.15, "GP should interpolate the smooth target");

    // Log marginal likelihood pieces: logdet from the factor.
    let logdet = tri::logdet_from_factor(&k);
    let lml = gp.log_marginal_likelihood(&alpha, logdet);
    println!("log marginal likelihood = {lml:.2}");

    // The conditioning story: with (near-)zero noise the kernel is
    // numerically rank-deficient.  The factorization reports *where* it
    // lost rank — `NotSpd { pivot, value }` — and the fix writes itself:
    // jitter the diagonal past the reported deficit and refactor.
    let k2 = cholcomm::matrix::spd::rbf_kernel(&gp.xs, gp.lengthscale, 0.0);
    let mut f2 = k2.clone();
    match cholcomm::matrix::kernels::potf2(&mut f2) {
        Ok(()) => println!("zero-jitter kernel still SPD (n = {n})"),
        Err(MatrixError::NotSpd { pivot, value }) => {
            println!("zero-jitter kernel lost rank at pivot {pivot} (value {value:.3e})");
            let mut jitter = (-value).max(0.0) + 1e-10;
            loop {
                let mut f3 = k2.clone();
                for i in 0..n {
                    f3[(i, i)] += jitter;
                }
                match cholcomm::matrix::kernels::potf2(&mut f3) {
                    Ok(()) => break,
                    Err(MatrixError::NotSpd { value, .. }) => {
                        // Escalate: at least double, and always clear the
                        // newly reported deficit.
                        jitter = (2.0 * jitter).max(-value + jitter);
                    }
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
            println!("recovered with diagonal jitter {jitter:.1e}");
        }
        Err(e) => panic!("unexpected error: {e}"),
    }
    let _ = Matrix::<f64>::identity(2); // keep Matrix in the public-API demo
    println!("ok");
}
