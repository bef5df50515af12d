//! Threading-correctness properties of the parallel kernel engine.
//!
//! The contract under test (see `cholcomm::matrix::parallel` and
//! `DESIGN.md`): fanning the fast kernels and the DAG-scheduled POTRF
//! onto the work-stealing pool changes *where* each flop runs, never
//! *which* flops run in which per-element order.  Concretely:
//!
//! * `FastStrict` results are **bit-identical** across pools of 1, 2, 4,
//!   and 8 workers, and identical to the sequential (pool-disabled) run;
//! * `Fast` results are run-to-run deterministic at every fixed pool
//!   size;
//! * the communication counts metered by the sequential engine
//!   (`CountingTracer` words/messages) are byte-identical no matter how
//!   many workers execute the arithmetic, because the *schedule* — the
//!   sequence of tile loads and stores — is untouched by kernel-level
//!   parallelism.

use cholcomm::cachesim::{CountingTracer, Tracer};
use cholcomm::layout::{ColMajor, Laid};
use cholcomm::matrix::{matrix_digest, parallel, spd, KernelImpl, Matrix};
use cholcomm::par::potrf_dag_with;
use cholcomm::seq::lapack::potrf_blocked_with;
use rayon::ThreadPoolBuilder;

const POOLS: [usize; 4] = [1, 2, 4, 8];

fn mat(m: usize, n: usize, seed: u64) -> Matrix<f64> {
    let mut rng = spd::test_rng(seed);
    Matrix::from_fn(m, n, |_, _| {
        use rand::RngExt;
        rng.random_range(-1.0..1.0)
    })
}

/// Run `f` on a fresh pool of `threads` workers and return its result.
fn on_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let pool = ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool build");
    pool.install(f)
}

/// `gemm_nn` large enough to cross the kernel-parallelism threshold
/// (`m * n * k >= 2^23`), so the macro-tile fan-out actually runs.
fn big_gemm(kernel: KernelImpl) -> Matrix<f64> {
    let (m, n, k) = (320, 256, 128);
    let a = mat(m, k, 1);
    let b = mat(k, n, 2);
    let mut c = mat(m, n, 3);
    kernel.gemm_nn(&mut c, 1.0, &a, &b);
    c
}

#[test]
fn strict_gemm_is_bit_identical_at_every_pool_size() {
    let sequential = {
        let prev = parallel::set_kernel_parallelism(false);
        let c = big_gemm(KernelImpl::FastStrict);
        parallel::set_kernel_parallelism(prev);
        matrix_digest(&c)
    };
    for threads in POOLS {
        let d = on_pool(threads, || matrix_digest(&big_gemm(KernelImpl::FastStrict)));
        assert_eq!(d, sequential, "FastStrict gemm differs on {threads} workers");
    }
}

/// Digest of `f` run with kernel parallelism off, then on a pool of each
/// size in [`POOLS`]; every pool must equal the first.
fn digests_at_every_pool_size(what: &str, f: impl Fn() -> Matrix<f64>) -> u64 {
    let sequential = {
        let prev = parallel::set_kernel_parallelism(false);
        let d = matrix_digest(&f());
        parallel::set_kernel_parallelism(prev);
        d
    };
    for threads in POOLS {
        let d = on_pool(threads, || matrix_digest(&f()));
        assert_eq!(d, sequential, "{what} differs on {threads} workers");
    }
    sequential
}

#[test]
fn strict_trsm_row_chunks_are_bit_identical_at_every_pool_size() {
    // 320 rows: the in-panel solve splits into row chunks on > 1 worker.
    let mut l = spd::random_spd(96, &mut spd::test_rng(12));
    KernelImpl::Reference.potf2(&mut l).expect("potf2");
    let b = mat(320, 96, 13);
    let solve = |kernel: KernelImpl| {
        let mut x = b.clone();
        kernel.trsm_right_lower_transpose(&mut x, &l);
        x
    };
    let strict = digests_at_every_pool_size("FastStrict trsm", || solve(KernelImpl::FastStrict));
    assert_eq!(strict, matrix_digest(&solve(KernelImpl::Reference)), "FastStrict trsm vs Reference");
}

#[test]
fn strict_potf2_region_solve_is_bit_identical_at_every_pool_size() {
    // Order 600 splits at 320: the first region solve is 280 rows, which
    // splits into row chunks on > 1 worker.
    let a = spd::random_spd(600, &mut spd::test_rng(14));
    let factor = |kernel: KernelImpl| {
        let mut f = a.clone();
        kernel.potf2(&mut f).expect("potf2");
        f
    };
    let strict = digests_at_every_pool_size("FastStrict potf2", || factor(KernelImpl::FastStrict));
    assert_eq!(strict, matrix_digest(&factor(KernelImpl::Reference)), "FastStrict potf2 vs Reference");
}

#[test]
fn fast_gemm_is_run_to_run_deterministic_at_fixed_pool_size() {
    for threads in POOLS {
        let first = on_pool(threads, || matrix_digest(&big_gemm(KernelImpl::Fast)));
        for _ in 0..2 {
            let again = on_pool(threads, || matrix_digest(&big_gemm(KernelImpl::Fast)));
            assert_eq!(again, first, "Fast gemm not deterministic on {threads} workers");
        }
    }
}

#[test]
fn strict_dag_potrf_is_bit_identical_at_every_pool_size() {
    let a0 = spd::random_spd(160, &mut spd::test_rng(9));
    for kernel in [KernelImpl::FastStrict, KernelImpl::Reference] {
        let sequential = {
            let prev = parallel::set_kernel_parallelism(false);
            let mut a = a0.clone();
            potrf_dag_with(&mut a, 48, kernel).expect("potrf");
            parallel::set_kernel_parallelism(prev);
            matrix_digest(&a)
        };
        for threads in POOLS {
            let d = on_pool(threads, || {
                let mut a = a0.clone();
                potrf_dag_with(&mut a, 48, kernel).expect("potrf");
                matrix_digest(&a)
            });
            assert_eq!(
                d, sequential,
                "{kernel:?} DAG potrf differs on {threads} workers"
            );
        }
    }
}

#[test]
fn fast_dag_potrf_is_run_to_run_deterministic_at_fixed_pool_size() {
    let a0 = spd::random_spd(128, &mut spd::test_rng(10));
    for threads in POOLS {
        let run = || {
            on_pool(threads, || {
                let mut a = a0.clone();
                potrf_dag_with(&mut a, 32, KernelImpl::Fast).expect("potrf");
                matrix_digest(&a)
            })
        };
        let first = run();
        for _ in 0..2 {
            assert_eq!(run(), first, "Fast DAG potrf not deterministic on {threads} workers");
        }
    }
}

#[test]
fn communication_counts_are_byte_identical_at_every_pool_size() {
    // The metered quantity is the *schedule* (tile loads/stores), which
    // kernel-level parallelism must not perturb: same words, same
    // messages, same factor bits, at every pool size.
    let n = 96;
    let b = 16;
    let a = spd::random_spd(n, &mut spd::test_rng(11));

    let baseline = {
        let prev = parallel::set_kernel_parallelism(false);
        let mut tracer = CountingTracer::uncapped();
        let mut laid = Laid::from_matrix(&a, ColMajor::square(n));
        potrf_blocked_with(&mut laid, &mut tracer, b, Some(3 * b * b), KernelImpl::FastStrict)
            .expect("potrf");
        parallel::set_kernel_parallelism(prev);
        (tracer.stats().words, tracer.stats().messages, matrix_digest(&laid.to_matrix()))
    };

    for threads in POOLS {
        let got = on_pool(threads, || {
            let mut tracer = CountingTracer::uncapped();
            let mut laid = Laid::from_matrix(&a, ColMajor::square(n));
            potrf_blocked_with(&mut laid, &mut tracer, b, Some(3 * b * b), KernelImpl::FastStrict)
                .expect("potrf");
            (tracer.stats().words, tracer.stats().messages, matrix_digest(&laid.to_matrix()))
        });
        assert_eq!(got, baseline, "counts or bits differ on {threads} workers");
    }
}
