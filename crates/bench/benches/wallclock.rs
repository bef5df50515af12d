//! Real wall-clock of the factorization kernels themselves (no
//! instrumentation): the algorithm zoo run through the NullTracer, the
//! reference potf2, and the rayon parallel variants.

use criterion::{Criterion, criterion_group, criterion_main};
use cholcomm_core::cachesim::NullTracer;
use cholcomm_core::layout::{ColMajor, Morton};
use cholcomm_core::matrix::{kernels, spd, KernelImpl};
use cholcomm_core::par::{par_recursive_potrf, potrf_dag_with};
use cholcomm_core::seq::zoo::{run_alg, Algorithm};
use std::hint::black_box;

fn bench_wallclock(c: &mut Criterion) {
    let n = 256;
    let mut rng = spd::test_rng(9);
    let a = spd::random_spd(n, &mut rng);

    let mut g = c.benchmark_group(format!("wallclock_n{n}"));
    g.sample_size(10);
    g.bench_function("potf2_reference", |bch| {
        bch.iter(|| {
            let mut f = a.clone();
            kernels::potf2(&mut f).unwrap();
            black_box(f)
        })
    });
    for (name, alg) in [
        ("naive_left", Algorithm::NaiveLeft),
        ("lapack_b32", Algorithm::LapackBlocked { b: 32 }),
        ("toledo", Algorithm::Toledo { gemm_leaf: 16 }),
        ("ap00_colmajor", Algorithm::Ap00 { leaf: 16 }),
    ] {
        g.bench_function(name, |bch| {
            bch.iter(|| {
                black_box(run_alg(alg, black_box(&a), ColMajor::square(n), &mut NullTracer).unwrap())
            })
        });
    }
    g.bench_function("ap00_morton", |bch| {
        bch.iter(|| {
            black_box(
                run_alg(
                    Algorithm::Ap00 { leaf: 16 },
                    black_box(&a),
                    Morton::square(n),
                    &mut NullTracer,
                )
                .unwrap(),
            )
        })
    });
    g.bench_function("dag_b32", |bch| {
        bch.iter(|| {
            let mut f = a.clone();
            potrf_dag_with(&mut f, 32, KernelImpl::Reference).unwrap();
            black_box(f)
        })
    });
    g.bench_function("par_recursive_c32", |bch| {
        bch.iter(|| {
            let mut f = a.clone();
            par_recursive_potrf(&mut f, 32).unwrap();
            black_box(f)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_wallclock);
criterion_main!(benches);
