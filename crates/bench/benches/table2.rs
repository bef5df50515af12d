//! Criterion bench over the Table 2 (PxPOTRF) simulator, plus the
//! regenerated table.

use criterion::{Criterion, criterion_group, criterion_main};
use cholcomm_core::distsim::CostModel;
use cholcomm_core::matrix::spd;
use cholcomm_core::par::pxpotrf::{pxpotrf, BroadcastKind};
use cholcomm_core::table2::{render_table2, run_table2};
use std::hint::black_box;

fn bench_table2(c: &mut Criterion) {
    let pts = run_table2(96, &[1, 4, 16], 3);
    println!("{}", render_table2(96, &pts));

    let n = 96;
    let mut rng = spd::test_rng(4);
    let a = spd::random_spd(n, &mut rng);
    let mut g = c.benchmark_group("pxpotrf_sim");
    g.sample_size(10);
    for (p, b) in [(4usize, 48usize), (16, 24), (16, 8), (64, 12)] {
        g.bench_function(format!("P{p}_b{b}"), |bch| {
            bch.iter(|| {
                let rep = pxpotrf(black_box(&a), b, p, CostModel::typical(), BroadcastKind::Tree)
                    .unwrap();
                black_box(rep.critical.words)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_table2);
criterion_main!(benches);
