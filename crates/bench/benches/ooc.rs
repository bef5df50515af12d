//! Real out-of-core factorization bench: wall-clock and real I/O of the
//! file-backed blocked Cholesky across cache capacities, plus an
//! in-memory baseline.

use cholcomm_core::matrix::{kernels, spd, KernelImpl};
use cholcomm_core::ooc::{ooc_potrf_pipelined_with, ooc_potrf_with, FileMatrix, PipelineConfig};
use cholcomm_core::report::TextTable;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_ooc(c: &mut Criterion) {
    let n = 128;
    let b = 16;
    let mut rng = spd::test_rng(17);
    let a = spd::random_spd(n, &mut rng);

    // Print the real-I/O table once.
    let mut t = TextTable::new(
        &format!("Out-of-core real I/O (n = {n}, b = {b})"),
        &[
            "driver",
            "cache tiles",
            "bytes read",
            "bytes written",
            "seeks",
            "seek distance",
        ],
    );
    for cap in [3usize, 8, 32, 256] {
        let path = cholcomm_core::ooc::filemat::scratch_path(&format!("bench{cap}"));
        let mut fm = FileMatrix::create(&path, &a, b).unwrap();
        ooc_potrf_with(&mut fm, cap, KernelImpl::Reference).unwrap();
        let s = fm.stats();
        t.row(vec![
            "sync".to_string(),
            cap.to_string(),
            s.bytes_read.to_string(),
            s.bytes_written.to_string(),
            s.seeks.to_string(),
            s.seek_distance.to_string(),
        ]);
        // Same capacity through the prefetching pipeline: identical
        // bytes (the miss stream is the plan's), but the head travels
        // differently because write-backs are deferred and batched.
        let path = cholcomm_core::ooc::filemat::scratch_path(&format!("benchp{cap}"));
        let mut fm = FileMatrix::create(&path, &a, b).unwrap();
        ooc_potrf_pipelined_with(&mut fm, &PipelineConfig::new(cap).with_io_workers(2)).unwrap();
        let s = fm.stats();
        t.row(vec![
            "pipelined".to_string(),
            cap.to_string(),
            s.bytes_read.to_string(),
            s.bytes_written.to_string(),
            s.seeks.to_string(),
            s.seek_distance.to_string(),
        ]);
    }
    println!("{}", t.render());

    let mut g = c.benchmark_group(format!("ooc_n{n}"));
    g.sample_size(10);
    g.bench_function("in_memory_potf2", |bch| {
        bch.iter(|| {
            let mut f = a.clone();
            kernels::potf2(&mut f).unwrap();
            black_box(f)
        })
    });
    for cap in [3usize, 32] {
        g.bench_function(format!("ooc_cache{cap}"), |bch| {
            bch.iter(|| {
                let path =
                    cholcomm_core::ooc::filemat::scratch_path(&format!("iter{cap}"));
                let mut fm = FileMatrix::create(&path, &a, b).unwrap();
                ooc_potrf_with(&mut fm, cap, KernelImpl::Reference).unwrap();
                black_box(fm.stats())
            })
        });
        g.bench_function(format!("ooc_pipelined_cache{cap}"), |bch| {
            bch.iter(|| {
                let path =
                    cholcomm_core::ooc::filemat::scratch_path(&format!("piter{cap}"));
                let mut fm = FileMatrix::create(&path, &a, b).unwrap();
                let cfg = PipelineConfig::new(cap).with_io_workers(2);
                ooc_potrf_pipelined_with(&mut fm, &cfg).unwrap();
                black_box(fm.stats())
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_ooc);
criterion_main!(benches);
