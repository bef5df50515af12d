//! Cross-crate integration: every algorithm, on every storage format,
//! under every communication model, computes the same factor as the
//! reference kernel — and the models order each other the way the theory
//! says they must.

use cholcomm::cachesim::{CountingTracer, LruTracer, Tracer};
use cholcomm::distsim::CostModel;
use cholcomm::faults::FaultPlan;
use cholcomm::layout::{ColMajor, Laid};
use cholcomm::matrix::{kernels, norms, spd, KernelImpl};
use cholcomm::par::spmd::spmd_pxpotrf;
use cholcomm::seq::lapack::potrf_blocked_with;
use cholcomm::seq::naive;
use cholcomm::seq::zoo::{all_algorithms, run_algorithm, Algorithm, LayoutKind, ModelKind};

const ENGINES: [KernelImpl; 3] = [KernelImpl::Reference, KernelImpl::Fast, KernelImpl::FastStrict];

const LAYOUTS: [LayoutKind; 7] = [
    LayoutKind::ColMajor,
    LayoutKind::RowMajor,
    LayoutKind::PackedLower,
    LayoutKind::Rfp,
    LayoutKind::Blocked(6),
    LayoutKind::Morton,
    LayoutKind::RecursivePacked,
];

#[test]
fn all_algorithms_all_layouts_agree_with_reference() {
    let n = 26; // even (for RFP), not a power of two (stress padding)
    let mut rng = spd::test_rng(201);
    let a = spd::random_spd(n, &mut rng);
    let mut reference = a.clone();
    kernels::potf2(&mut reference).unwrap();

    let model = ModelKind::Lru { m: 128 };
    for alg in all_algorithms(108) {
        for layout in LAYOUTS {
            let rep = run_algorithm(alg, &a, layout, &model)
                .unwrap_or_else(|e| panic!("{alg:?}/{layout:?}: {e}"));
            for j in 0..n {
                for i in j..n {
                    let diff = (rep.factor[(i, j)] - reference[(i, j)]).abs();
                    assert!(
                        diff < 1e-8,
                        "{alg:?}/{layout:?} differs at ({i},{j}) by {diff}"
                    );
                }
            }
        }
    }
}

#[test]
fn lru_never_moves_more_than_the_explicit_schedule() {
    // The ideal cache can only *save* traffic relative to the explicit
    // schedule that generated the touches.
    let n = 32;
    let mut rng = spd::test_rng(202);
    let a = spd::random_spd(n, &mut rng);

    for m in [64usize, 256] {
        let mut explicit = CountingTracer::uncapped();
        let mut l1 = Laid::from_matrix(&a, ColMajor::square(n));
        naive::left_looking(&mut l1, &mut explicit).unwrap();

        let mut lru = LruTracer::with_writebacks(m, false);
        let mut l2 = Laid::from_matrix(&a, ColMajor::square(n));
        naive::left_looking(&mut l2, &mut lru).unwrap();

        assert!(
            lru.fetch_stats().words <= explicit.stats().words,
            "M={m}: LRU {} vs explicit {}",
            lru.fetch_stats().words,
            explicit.stats().words
        );
    }
}

#[test]
fn bigger_cache_never_hurts_cache_oblivious_algorithms() {
    // LRU inclusion: traffic is non-increasing in M for the same trace.
    let n = 40;
    let mut rng = spd::test_rng(203);
    let a = spd::random_spd(n, &mut rng);
    let mut last = u64::MAX;
    for m in [32usize, 128, 512, 2048] {
        let rep = run_algorithm(
            Algorithm::Ap00 { leaf: 4 },
            &a,
            LayoutKind::Morton,
            &ModelKind::Lru { m },
        )
        .unwrap();
        assert!(
            rep.levels[0].words <= last,
            "M={m}: {} > previous {}",
            rep.levels[0].words,
            last
        );
        last = rep.levels[0].words;
    }
}

#[test]
fn factors_are_identical_across_layouts_not_just_close() {
    // Same algorithm, same arithmetic order => bitwise-identical factor
    // regardless of where the words live.
    let n = 17;
    let mut rng = spd::test_rng(204);
    let a = spd::random_spd(n, &mut rng);
    let model = ModelKind::Lru { m: 64 };
    let base = run_algorithm(Algorithm::Ap00 { leaf: 4 }, &a, LayoutKind::ColMajor, &model)
        .unwrap()
        .factor;
    for layout in [LayoutKind::Morton, LayoutKind::PackedLower, LayoutKind::RecursivePacked] {
        let f = run_algorithm(Algorithm::Ap00 { leaf: 4 }, &a, layout, &model)
            .unwrap()
            .factor;
        for j in 0..n {
            for i in j..n {
                assert_eq!(f[(i, j)], base[(i, j)], "layout {layout:?} at ({i},{j})");
            }
        }
    }
}

#[test]
fn residuals_stay_backward_stable_across_condition_numbers() {
    // Section 3.1.2: the standard error analysis applies to every
    // summation order, i.e. every algorithm in the zoo.
    let n = 24;
    let mut rng = spd::test_rng(205);
    for cond in [1e2, 1e6, 1e10] {
        let mut a = spd::random_spd_with_cond(n, cond, &mut rng);
        // Exact symmetry for the factorizations.
        for j in 0..n {
            for i in j + 1..n {
                let v = 0.5 * (a[(i, j)] + a[(j, i)]);
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        for alg in [Algorithm::NaiveRight, Algorithm::Ap00 { leaf: 4 }] {
            let rep = run_algorithm(alg, &a, LayoutKind::ColMajor, &ModelKind::Lru { m: 64 })
                .unwrap();
            let r = norms::cholesky_residual(&a, &rep.factor);
            assert!(
                r < norms::residual_tolerance(n),
                "cond {cond:.0e} {alg:?}: residual {r}"
            );
        }
    }
}

#[test]
fn sequential_counts_are_engine_invariant() {
    // Schedule invariance: words and messages are charged by the
    // *schedule* (explicit tile loads and stores), never by the
    // arithmetic inside a tile, so swapping the kernel engine cannot
    // move a single word.  Checked byte-for-byte across all engines.
    let n = 48;
    let b = 8;
    let mut rng = spd::test_rng(206);
    let a = spd::random_spd(n, &mut rng);

    let mut baseline = None;
    for engine in ENGINES {
        let mut tracer = CountingTracer::uncapped();
        let mut laid = Laid::from_matrix(&a, ColMajor::square(n));
        potrf_blocked_with(&mut laid, &mut tracer, b, Some(3 * b * b), engine)
            .unwrap_or_else(|e| panic!("{}: {e}", engine.name()));
        let stats = tracer.stats();
        match baseline {
            None => baseline = Some(stats),
            Some(base) => assert_eq!(
                base,
                stats,
                "{} counts diverge from reference",
                engine.name()
            ),
        }
    }
}

#[test]
fn spmd_critical_path_is_engine_invariant() {
    // Same invariance on the distributed side: the per-rank program's
    // sends and broadcasts are fixed by Algorithm 9's schedule, so the
    // critical-path words/messages are identical under every engine.
    let n = 32;
    let b = 8;
    let p = 4;
    let mut rng = spd::test_rng(207);
    let a = spd::random_spd(n, &mut rng);

    let mut baseline: Option<(u64, u64)> = None;
    for engine in ENGINES {
        let rep = spmd_pxpotrf(&a, b, p, CostModel::typical(), FaultPlan::none(), engine)
            .unwrap_or_else(|e| panic!("{}: {e}", engine.name()));
        let path = (rep.critical.words, rep.critical.messages);
        match baseline {
            None => baseline = Some(path),
            Some(base) => assert_eq!(
                base,
                path,
                "{} critical path diverges from reference",
                engine.name()
            ),
        }
    }
}
