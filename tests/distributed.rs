//! Integration tests for the distributed path: PxPOTRF on the simulated
//! machine must agree with the sequential factor for arbitrary
//! `(n, b, P)` and its critical-path costs must follow Table 2's shapes.

use cholcomm::distsim::CostModel;
use cholcomm::matrix::{kernels, norms, spd, Matrix};
use cholcomm::par::pxpotrf::{paper_message_bound, pxpotrf, BroadcastKind};
use proptest::prelude::*;

fn sequential(a: &Matrix<f64>) -> Matrix<f64> {
    let mut f = a.clone();
    kernels::potf2(&mut f).unwrap();
    f.lower_triangle().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn pxpotrf_equals_sequential_for_random_configs(
        nb in 2usize..6,
        b in 2usize..7,
        grid in 1usize..4,
        extra in 0usize..3,
        seed in 0u64..1000,
    ) {
        // n not necessarily a multiple of b (ragged edge blocks).
        let n = nb * b + extra;
        let p = grid * grid;
        let mut rng = spd::test_rng(seed);
        let a = spd::random_spd(n, &mut rng);
        let rep = pxpotrf(&a, b, p, CostModel::counting(), BroadcastKind::Tree).unwrap();
        let want = sequential(&a);
        prop_assert!(
            norms::max_abs_diff(&rep.factor, &want) < 1e-8,
            "n={n} b={b} P={p}"
        );
    }
}

#[test]
fn critical_path_shrinks_per_processor_as_p_grows() {
    let n = 96;
    let mut rng = spd::test_rng(301);
    let a = spd::random_spd(n, &mut rng);
    let mut last_flops = u64::MAX;
    for p in [1usize, 4, 16] {
        let b = n / (p as f64).sqrt() as usize;
        let rep = pxpotrf(&a, b, p, CostModel::counting(), BroadcastKind::Tree).unwrap();
        assert!(
            rep.max_proc_flops < last_flops,
            "P={p}: busiest-processor flops must drop"
        );
        last_flops = rep.max_proc_flops;
    }
}

#[test]
fn messages_scale_like_sqrt_p_log_p_at_the_optimal_block_size() {
    let n = 96;
    let mut rng = spd::test_rng(302);
    let a = spd::random_spd(n, &mut rng);
    for p in [4usize, 16] {
        let b = n / (p as f64).sqrt() as usize;
        let rep = pxpotrf(&a, b, p, CostModel::typical(), BroadcastKind::Tree).unwrap();
        let bound = paper_message_bound(n, b, p);
        assert!(
            (rep.critical.messages as f64) <= 3.0 * bound + 8.0,
            "P={p}: {} vs paper bound {bound:.1}",
            rep.critical.messages
        );
    }
}

#[test]
fn word_volume_tracks_the_paper_formula_shape() {
    // Table 2 upper bound: (nb/4 + n^2/sqrt(P)) log2 P.  For n = 128 the
    // (P=4, b=64) and (P=16, b=32) points have *identical* predictions
    // (the log P factor exactly cancels the sqrt(P) gain), so the
    // measured ratio must sit near 1 — and both points must stay within
    // a small constant of the formula.
    use cholcomm::par::pxpotrf::paper_word_bound;
    let n = 128;
    let mut rng = spd::test_rng(303);
    let a = spd::random_spd(n, &mut rng);
    let w4 = pxpotrf(&a, 64, 4, CostModel::typical(), BroadcastKind::Tree)
        .unwrap()
        .critical
        .words as f64;
    let w16 = pxpotrf(&a, 32, 16, CostModel::typical(), BroadcastKind::Tree)
        .unwrap()
        .critical
        .words as f64;
    let (b4, b16) = (paper_word_bound(n, 64, 4), paper_word_bound(n, 32, 16));
    assert!((b4 - b16).abs() < 1e-9, "the two predictions coincide");
    for (w, b, label) in [(w4, b4, "P=4"), (w16, b16, "P=16")] {
        let r = w / b;
        assert!(r > 0.2 && r < 3.0, "{label}: measured {w} vs formula {b} (ratio {r:.2})");
    }
    let ratio = w4 / w16;
    assert!(ratio > 0.4 && ratio < 2.5, "points predicted equal, got ratio {ratio:.2}");
}

#[test]
fn makespan_reflects_the_latency_bandwidth_tradeoff() {
    // With latency-heavy costs, bigger blocks should win the modelled
    // wall clock; with bandwidth-only costs the difference shrinks.
    let n = 96;
    let p = 16;
    let mut rng = spd::test_rng(304);
    let a = spd::random_spd(n, &mut rng);
    let latency_heavy = CostModel { alpha: 1e6, beta: 1.0, gamma: 0.0 };
    let small = pxpotrf(&a, 6, p, latency_heavy, BroadcastKind::Tree)
        .unwrap()
        .makespan;
    let big = pxpotrf(&a, 24, p, latency_heavy, BroadcastKind::Tree)
        .unwrap()
        .makespan;
    assert!(
        big < small,
        "latency-dominated: b = n/sqrt(P) should win ({big} vs {small})"
    );
}

#[test]
fn p_equals_one_is_communication_free_and_exact() {
    let n = 40;
    let mut rng = spd::test_rng(305);
    let a = spd::random_spd(n, &mut rng);
    let rep = pxpotrf(&a, 8, 1, CostModel::typical(), BroadcastKind::Tree).unwrap();
    assert_eq!(rep.critical.words, 0);
    assert_eq!(rep.critical.messages, 0);
    assert!(norms::max_abs_diff(&rep.factor, &sequential(&a)) < 1e-9);
}
