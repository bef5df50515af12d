//! Quickstart: factor an SPD matrix with the communication-optimal
//! recursive algorithm, verify the factorization, and solve a linear
//! system through it.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use cholcomm::cachesim::LruTracer;
use cholcomm::layout::{Laid, Morton};
use cholcomm::matrix::{norms, spd, tri, KernelImpl, Matrix, MatrixError};
use cholcomm::seq::ap00::square_rchol;

/// Factor `a` with the square recursive algorithm.  A non-SPD input is
/// reported structurally — `NotSpd { pivot, value }` names the failing
/// pivot and its (non-positive) value — so the caller can shift the
/// diagonal just past the deficit and retry: the standard "jitter" fix.
/// Returns the factor and the shift that made it work (0.0 for a
/// genuinely SPD input).
fn factor_with_shift(a: &Matrix<f64>, tracer: &mut LruTracer, leaf: usize) -> (Matrix<f64>, f64) {
    let n = a.rows();
    let mut shift = 0.0;
    for _ in 0..8 {
        let mut work = a.clone();
        for i in 0..n {
            work[(i, i)] += shift;
        }
        let mut laid = Laid::from_matrix(&work, Morton::square(n));
        // CHOLCOMM_KERNELS=fast / fast-strict selects the packed kernel
        // engine; the counted communication is identical either way.
        match square_rchol(&mut laid, tracer, leaf, KernelImpl::from_env()) {
            Ok(()) => return (laid.to_matrix(), shift),
            Err(MatrixError::NotSpd { pivot, value }) => {
                // The shift must exceed -value to clear this pivot;
                // double the deficit so repeated failures escalate.
                shift += 2.0 * (-value) + 1e-9;
                println!("  pivot {pivot} = {value:.3e} <= 0; retrying with diagonal shift {shift:.3e}");
            }
            Err(e) => panic!("unexpected failure: {e}"),
        }
    }
    panic!("matrix stayed indefinite after 8 diagonal shifts");
}

fn main() {
    let n = 128;
    let mut rng = spd::test_rng(42);
    let a = spd::random_spd(n, &mut rng);

    // Store the matrix in the cache-oblivious recursive (Morton) format
    // and factor it with the Ahmed-Pingali square recursive algorithm —
    // the combination the paper proves bandwidth- AND latency-optimal at
    // every level of the memory hierarchy (Conclusion 5).
    let mut tracer = LruTracer::new(1024); // simulate a 1024-word fast memory
    let (factor, shift) = factor_with_shift(&a, &mut tracer, 8);
    assert_eq!(shift, 0.0, "a random SPD matrix needs no shift");
    tracer.flush();
    let residual = norms::cholesky_residual(&a, &factor);
    println!("n = {n}, residual ||A - LL^T||_F / ||A||_F = {residual:.3e}");
    assert!(residual < norms::residual_tolerance(n));

    let stats = tracer.total_stats();
    let bw_scale = (n as f64).powi(3) / 1024f64.sqrt();
    println!(
        "simulated traffic: {} ({}x the n^3/sqrt(M) bandwidth scale)",
        stats,
        stats.words as f64 / bw_scale
    );

    // Solve A x = b through the factor (forward + backward substitution).
    let b_rhs: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
    let x = tri::solve_with_factor(&factor, &b_rhs);
    // Verify: ||A x - b||_inf
    let mut worst = 0.0f64;
    for i in 0..n {
        let mut ax = 0.0;
        for j in 0..n {
            ax += a[(i, j)] * x[j];
        }
        worst = worst.max((ax - b_rhs[i]).abs());
    }
    println!("solve check ||Ax - b||_inf = {worst:.3e}");
    assert!(worst < 1e-6);

    // The same entry point survives an indefinite input: instead of a
    // panic, the structured error drives the shift-and-retry above.
    let mut indef = spd::random_spd(32, &mut rng);
    indef[(0, 0)] = -1.0; // guarantee a negative leading pivot
    println!("factoring a deliberately indefinite 32x32 matrix:");
    let (_lf, shift) = factor_with_shift(&indef, &mut tracer, 8);
    assert!(shift > 1.0, "the shift must clear the -1 pivot");
    println!("recovered with diagonal shift {shift:.3e}");
    println!("ok");
}
