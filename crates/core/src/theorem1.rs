//! The reduction experiment behind **Theorem 1** (and Algorithm 1,
//! Table 3, Lemma 2.2): matrix multiplication *by* Cholesky.
//!
//! For every algorithm in the zoo we (a) run it, unmodified, over the
//! starred value set on `T'(A, B)` and check that `(L_32)^T = A * B`
//! exactly as Lemma 2.2 promises, and (b) measure the bandwidth of that
//! Cholesky against the bandwidth of a direct recursive multiplication of
//! the same `A * B`, confirming the "at most a constant times" clause
//! that transfers the lower bound.

use crate::report::{fnum, TextTable};
use cholcomm_cachesim::{LruTracer, NullTracer, Tracer};
use cholcomm_layout::{ColMajor, Laid, Morton};
use cholcomm_matrix::{kernels, norms, spd, KernelImpl, Matrix};
use cholcomm_seq::rmatmul::recursive_matmul;
use cholcomm_seq::zoo::{run_alg, Algorithm};
use cholcomm_starred::{build_t_prime, extract_product};
use rand::RngExt;

/// Outcome of the reduction through one algorithm.
#[derive(Debug, Clone)]
pub struct ReductionOutcome {
    /// Algorithm name.
    pub algorithm: &'static str,
    /// Max elementwise error of the product extracted from the factor.
    pub max_err: f64,
    /// Words moved by the Cholesky of the `3n x 3n` starred matrix.
    pub chol_words: u64,
    /// Words moved by the direct recursive multiplication (`n x n`).
    pub mm_words: u64,
    /// `chol_words / mm_words` — the Theorem 1 constant; bounded and
    /// stable across `n` when the reduction is bandwidth-preserving.
    pub ratio: f64,
}

/// Random square inputs for the reduction.
pub fn random_inputs(n: usize, seed: u64) -> (Matrix<f64>, Matrix<f64>) {
    let mut rng = spd::test_rng(seed);
    let a = Matrix::from_fn(n, n, |_, _| rng.random_range(-2.0..2.0));
    let b = Matrix::from_fn(n, n, |_, _| rng.random_range(-2.0..2.0));
    (a, b)
}

/// Run Algorithm 1 with `alg` as the inner Cholesky and measure both
/// sides under an ideal cache of `m` words.
pub fn reduce_with(
    alg: Algorithm,
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    m: usize,
) -> ReductionOutcome {
    let n = a.rows();
    let t_prime = build_t_prime(a, b);

    // Cholesky side: factor T' with the algorithm under test, metered.
    let mut tracer = LruTracer::new(m);
    let factor = run_alg(alg, &t_prime, Morton::square(3 * n), &mut tracer)
        .expect("classical Cholesky must succeed on T'");
    tracer.flush();
    let chol_words = tracer.stats().words;

    let product = extract_product(&factor, n).expect("Lemma 2.2: no starred contamination");
    let want = kernels::matmul(a, b);
    let max_err = norms::max_abs_diff(&product, &want);

    // Direct side: recursive matmul of the same product, same cache.
    let mut mm_tracer = LruTracer::new(m);
    let la = Laid::from_matrix(a, Morton::square(n));
    let lb = Laid::from_matrix(b, Morton::square(n));
    let mut c = Laid::from_matrix(&Matrix::zeros(n, n), Morton::square(n));
    recursive_matmul(&mut c, &la, &lb, &mut mm_tracer, 4, KernelImpl::Reference);
    mm_tracer.flush();
    let mm_words = mm_tracer.stats().words;

    ReductionOutcome {
        algorithm: alg.name(),
        max_err,
        chol_words,
        mm_words,
        ratio: chol_words as f64 / mm_words.max(1) as f64,
    }
}

/// Run the reduction through every algorithm in the zoo.
pub fn run_reduction(n: usize, m: usize, seed: u64) -> Vec<ReductionOutcome> {
    let (a, b) = random_inputs(n, seed);
    let algs = [
        Algorithm::NaiveLeft,
        Algorithm::NaiveRight,
        Algorithm::LapackBlocked {
            b: (((m / 3) as f64).sqrt() as usize).max(1),
        },
        Algorithm::Toledo { gemm_leaf: 4 },
        Algorithm::Ap00 { leaf: 4 },
    ];
    algs.iter().map(|&alg| reduce_with(alg, &a, &b, m)).collect()
}

/// Sanity path used by tests and the quick bench: the reduction through
/// the reference `potf2` only (no instrumentation).
pub fn reduce_reference(n: usize, seed: u64) -> f64 {
    let (a, b) = random_inputs(n, seed);
    let t = build_t_prime(&a, &b);
    let factor = run_alg(
        Algorithm::Ap00 { leaf: 4 },
        &t,
        ColMajor::square(3 * n),
        &mut NullTracer,
    )
    .expect("T' is positive definite by construction");
    let product = extract_product(&factor, n)
        .expect("the factor of T' always contains the 3n x 3n product block");
    norms::max_abs_diff(&product, &kernels::matmul(&a, &b))
}

/// Render the reduction table.
pub fn render_reduction(n: usize, m: usize, rows: &[ReductionOutcome]) -> String {
    let mut t = TextTable::new(
        &format!("Theorem 1 reduction: A*B via Cholesky of T' (n = {n}, M = {m})"),
        &["inner Cholesky", "max |err|", "chol words (3n)", "matmul words (n)", "ratio"],
    );
    for r in rows {
        t.row(vec![
            r.algorithm.to_string(),
            format!("{:.2e}", r.max_err),
            r.chol_words.to_string(),
            r.mm_words.to_string(),
            fnum(r.ratio),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_algorithm_multiplies_via_cholesky() {
        for out in run_reduction(6, 48, 21) {
            assert!(
                out.max_err < 1e-9,
                "{}: product error {}",
                out.algorithm,
                out.max_err
            );
        }
    }

    #[test]
    fn reduction_bandwidth_is_a_bounded_constant_for_optimal_algorithms() {
        // For the bandwidth-optimal inner Cholesky (AP00) the ratio
        // chol(3n)/matmul(n) must stay bounded as n grows — that is the
        // content of Theorem 1.
        let m = 96;
        let mut ratios = Vec::new();
        for n in [8usize, 16, 32] {
            let (a, b) = random_inputs(n, 22);
            let out = reduce_with(Algorithm::Ap00 { leaf: 4 }, &a, &b, m);
            assert!(out.max_err < 1e-9);
            ratios.push(out.ratio);
        }
        assert!(
            ratios.iter().all(|&r| r < 200.0),
            "ratios should be bounded: {ratios:?}"
        );
        // And roughly flat: the largest/smallest ratio within ~4x.
        let (lo, hi) = (
            ratios.iter().cloned().fold(f64::MAX, f64::min),
            ratios.iter().cloned().fold(0.0, f64::max),
        );
        assert!(hi / lo < 5.0, "ratios should be ~constant: {ratios:?}");
    }

    #[test]
    fn reference_reduction_is_exact_to_rounding() {
        assert!(reduce_reference(10, 23) < 1e-10);
    }
}
