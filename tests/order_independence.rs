//! The factor's bits are a function of the matrix and the engine, never
//! of the order the tile ops ran in.
//!
//! Every kernel of every engine applies the per-element chain
//! `c <- c - a * b` in ascending `k`, and every order in the repository —
//! unblocked, the left-looking walk (Algorithm 4), the right-looking
//! walk, the task DAG at any pool size, the resumable serve engine, the
//! batched lanes — hands each tile its updates in ascending `k`.  So for
//! a fixed engine they all produce one `lower_digest`, and they all stop
//! at the same pivot on an indefinite matrix.

use cholcomm::cachesim::NullTracer;
use cholcomm::layout::{ColMajor, Laid};
use cholcomm::matrix::{lower_digest, spd, KernelImpl, Matrix, MatrixError};
use cholcomm::par::dag::potrf_dag_with;
use cholcomm::seq::lapack::{potrf_blocked_right_with, potrf_blocked_with};
use cholcomm::serve::engine::{factor_resumable, Checkpoint, FactorOutcome, PanelControl};
use cholcomm::serve::factor_batch;
use rayon::ThreadPoolBuilder;

const ENGINES: [KernelImpl; 3] = [KernelImpl::Reference, KernelImpl::FastStrict, KernelImpl::Fast];
const SHAPES: [(usize, usize); 8] =
    [(24, 8), (26, 6), (40, 16), (96, 16), (100, 32), (257, 32), (300, 136), (33, 4)];

type Factored = Result<Matrix<f64>, MatrixError>;

/// `a` factored by every order, each labelled.  The lanes of the batch
/// carry `a` twice with another system between them.
fn every_order(a: &Matrix<f64>, b: usize, kernel: KernelImpl) -> Vec<(String, Factored)> {
    let n = a.rows();
    let mut out: Vec<(String, Factored)> = Vec::new();

    let mut unblocked = a.clone();
    out.push(("potf2".into(), kernel.potf2(&mut unblocked).map(|()| unblocked)));

    let mut laid = Laid::from_matrix(a, ColMajor::square(n));
    let done = potrf_blocked_with(&mut laid, &mut NullTracer, b, None, kernel);
    out.push(("left walk".into(), done.map(|()| laid.to_matrix())));

    let mut laid = Laid::from_matrix(a, ColMajor::square(n));
    let done = potrf_blocked_right_with(&mut laid, &mut NullTracer, b, None, kernel);
    out.push(("right walk".into(), done.map(|()| laid.to_matrix())));

    for threads in [1usize, 2, 4] {
        let pool = ThreadPoolBuilder::new().num_threads(threads).build().expect("pool");
        let mut dag = a.clone();
        let done = pool.install(|| potrf_dag_with(&mut dag, b, kernel));
        out.push((format!("dag on {threads}"), done.map(|()| dag)));
    }

    let ckpt = Checkpoint::fresh(a.clone());
    let done = factor_resumable(ckpt, b, kernel, &mut |_, _| PanelControl::Continue);
    out.push((
        "factor_resumable".into(),
        done.map(|outcome| match outcome {
            FactorOutcome::Done(l) => l,
            other => panic!("nothing cancels: {other:?}"),
        }),
    ));

    let other = spd::random_spd(n, &mut spd::test_rng(99));
    let lanes = factor_batch(&[a.clone(), other, a.clone()], n, b, kernel);
    for lane in [0, 2] {
        out.push((format!("batch lane {lane}"), lanes[lane].clone()));
    }
    out
}

#[test]
fn every_order_produces_one_set_of_bits_per_engine() {
    for (n, b) in SHAPES {
        let a = spd::random_spd(n, &mut spd::test_rng((n * 31 + b) as u64));
        for kernel in ENGINES {
            let digests: Vec<(String, u64)> = every_order(&a, b, kernel)
                .into_iter()
                .map(|(order, l)| {
                    let l = l.unwrap_or_else(|e| panic!("n={n} b={b} {kernel:?} {order}: {e}"));
                    (order, lower_digest(&l))
                })
                .collect();
            for (order, digest) in &digests {
                assert_eq!(*digest, digests[0].1, "n={n} b={b} {kernel:?}: {order} vs potf2");
            }
        }
    }
}

#[test]
fn every_order_rejects_an_indefinite_matrix_at_the_same_pivot() {
    for (n, b) in SHAPES {
        let mut a = spd::random_spd(n, &mut spd::test_rng((n * 17 + b) as u64));
        let poisoned = 2 * n / 3;
        a[(poisoned, poisoned)] = -1e6;
        for kernel in ENGINES {
            let pivots: Vec<(String, usize)> = every_order(&a, b, kernel)
                .into_iter()
                .map(|(order, l)| match l {
                    Err(MatrixError::NotSpd { pivot, .. }) => (order, pivot),
                    other => panic!("n={n} b={b} {kernel:?} {order}: {:?}", other.map(|_| ())),
                })
                .collect();
            assert!(pivots[0].1 <= poisoned, "n={n}: {pivots:?}");
            for (order, pivot) in &pivots {
                assert_eq!(*pivot, pivots[0].1, "n={n} b={b} {kernel:?}: {order} vs potf2");
            }
        }
    }
}
