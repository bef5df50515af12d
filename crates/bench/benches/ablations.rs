//! Ablation benches for the design choices called out in DESIGN.md:
//! message-coalescing streams, recursion leaf size, LAPACK block size,
//! and the ScaLAPACK block-size trade.

use criterion::{Criterion, criterion_group, criterion_main};
use cholcomm_core::cachesim::LruTracer;
use cholcomm_core::distsim::CostModel;
use cholcomm_core::layout::{Laid, Morton};
use cholcomm_core::matrix::spd;
use cholcomm_core::par::pxpotrf::{pxpotrf, BroadcastKind};
use cholcomm_core::report::{fnum, TextTable};
use cholcomm_core::seq::ap00::square_rchol;
use cholcomm_core::seq::zoo::{run_algorithm, Algorithm, LayoutKind, ModelKind};
use std::hint::black_box;

/// Ablation 1: coalescing streams 0 / 1 / 8 on AP00+Morton latency.
fn ablate_streams(n: usize, m: usize) {
    let mut rng = spd::test_rng(12);
    let a = spd::random_spd(n, &mut rng);
    let mut t = TextTable::new(
        &format!("Ablation: message-coalescing streams (AP00, Morton, n={n}, M={m})"),
        &["streams", "words", "messages", "msgs/(n^3/M^1.5)"],
    );
    for streams in [0usize, 1, 2, 8, 32] {
        let mut tr = LruTracer::with_streams(m, true, streams);
        let mut laid = Laid::from_matrix(&a, Morton::square(n));
        square_rchol(&mut laid, &mut tr, 4).unwrap();
        tr.flush();
        let s = tr.total_stats();
        let scale = (n as f64).powi(3) / (m as f64).powf(1.5);
        t.row(vec![
            streams.to_string(),
            s.words.to_string(),
            s.messages.to_string(),
            fnum(s.messages as f64 / scale),
        ]);
    }
    println!("{}", t.render());
}

/// Ablation 2: recursion leaf size (cache-obliviousness must be
/// insensitive; simulator cost is not).
fn ablate_leaf(n: usize, m: usize) {
    let mut rng = spd::test_rng(13);
    let a = spd::random_spd(n, &mut rng);
    let mut t = TextTable::new(
        &format!("Ablation: recursion leaf size (AP00, Morton, n={n}, M={m})"),
        &["leaf", "words", "messages"],
    );
    for leaf in [1usize, 2, 4, 8, 16] {
        let rep = run_algorithm(
            Algorithm::Ap00 { leaf },
            &a,
            LayoutKind::Morton,
            &ModelKind::Lru { m },
        )
        .unwrap();
        t.row(vec![
            leaf.to_string(),
            rep.levels[0].words.to_string(),
            rep.levels[0].messages.to_string(),
        ]);
    }
    println!("{}", t.render());
}

/// Ablation 3: LAPACK block size around sqrt(M/3).
fn ablate_lapack_b(n: usize, m: usize) {
    let mut rng = spd::test_rng(14);
    let a = spd::random_spd(n, &mut rng);
    let b_opt = (((m / 3) as f64).sqrt() as usize).max(1);
    let mut t = TextTable::new(
        &format!("Ablation: LAPACK block size (n={n}, M={m}, sqrt(M/3)={b_opt})"),
        &["b", "words", "messages"],
    );
    for b in [1usize, b_opt / 2, b_opt, 2 * b_opt] {
        if b == 0 || 3 * b * b > 4 * m {
            continue;
        }
        let rep = run_algorithm(
            Algorithm::LapackBlocked { b },
            &a,
            LayoutKind::Blocked(b),
            &ModelKind::Counting { message_cap: Some(m) },
        )
        .unwrap();
        t.row(vec![
            b.to_string(),
            rep.levels[0].words.to_string(),
            rep.levels[0].messages.to_string(),
        ]);
    }
    println!("{}", t.render());
}

/// Ablation 4: ScaLAPACK block-size trade (latency vs bandwidth).
fn ablate_scalapack_b(n: usize, p: usize) {
    let mut rng = spd::test_rng(15);
    let a = spd::random_spd(n, &mut rng);
    let mut t = TextTable::new(
        &format!("Ablation: ScaLAPACK block size (n={n}, P={p})"),
        &["b", "cp words", "cp msgs"],
    );
    let b_opt = n / (p as f64).sqrt() as usize;
    for b in [b_opt / 8, b_opt / 4, b_opt / 2, b_opt] {
        if b == 0 {
            continue;
        }
        let rep = pxpotrf(&a, b, p, CostModel::typical(), BroadcastKind::Tree).unwrap();
        t.row(vec![
            b.to_string(),
            rep.critical.words.to_string(),
            rep.critical.messages.to_string(),
        ]);
    }
    println!("{}", t.render());
}

fn bench_ablations(c: &mut Criterion) {
    ablate_streams(64, 192);
    ablate_leaf(64, 192);
    ablate_lapack_b(128, 768);
    ablate_scalapack_b(128, 16);

    // A timing handle so criterion has something to measure per run.
    let mut rng = spd::test_rng(16);
    let a = spd::random_spd(64, &mut rng);
    let mut g = c.benchmark_group("ablation_leaf_sim_cost");
    g.sample_size(10);
    for leaf in [1usize, 4, 16] {
        g.bench_function(format!("leaf{leaf}"), |bch| {
            bch.iter(|| {
                black_box(
                    run_algorithm(
                        Algorithm::Ap00 { leaf },
                        black_box(&a),
                        LayoutKind::Morton,
                        &ModelKind::Lru { m: 192 },
                    )
                    .unwrap(),
                )
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
