//! Strong-scaling of the rayon shared-memory Cholesky: fixed problem,
//! growing thread pool.

use criterion::{Criterion, criterion_group, criterion_main};
use cholcomm_core::matrix::{spd, KernelImpl};
use cholcomm_core::par::{par_recursive_potrf, potrf_dag_with};
use std::hint::black_box;

fn bench_scaling(c: &mut Criterion) {
    let n = 384;
    let mut rng = spd::test_rng(10);
    let a = spd::random_spd(n, &mut rng);
    let max_threads = std::thread::available_parallelism().map_or(4, |v| v.get());

    let mut g = c.benchmark_group(format!("rayon_scaling_n{n}"));
    g.sample_size(10);
    let mut threads = 1usize;
    while threads <= max_threads {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        g.bench_function(format!("dag_t{threads}"), |bch| {
            bch.iter(|| {
                pool.install(|| {
                    let mut f = a.clone();
                    potrf_dag_with(&mut f, 32, KernelImpl::Reference).unwrap();
                    black_box(f)
                })
            })
        });
        g.bench_function(format!("recursive_t{threads}"), |bch| {
            bch.iter(|| {
                pool.install(|| {
                    let mut f = a.clone();
                    par_recursive_potrf(&mut f, 32).unwrap();
                    black_box(f)
                })
            })
        });
        threads *= 2;
    }
    g.finish();
}

criterion_group!(benches, bench_scaling);
criterion_main!(benches);
