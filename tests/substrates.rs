//! Integration across the newer substrates: every execution vehicle in
//! the workspace — sequential zoo, tiled task DAG on the rayon pool,
//! simulated machine, SPMD threads, file-backed out-of-core —
//! must produce the same factorization; layouts must convert losslessly
//! in every direction; recorded schedules must be data-independent.

use cholcomm::cachesim::{LruTracer, NullTracer, RecordingTracer};
use cholcomm::distsim::CostModel;
use cholcomm::faults::FaultPlan;
use cholcomm::layout::convert::convert_counted;
use cholcomm::layout::{Blocked, ColMajor, Laid, Layered, Morton, RowMajor};
use cholcomm::matrix::{kernels, norms, spd, KernelImpl, Matrix};
use cholcomm::ooc::{ooc_potrf_with, FileMatrix};
use cholcomm::par::pxpotrf::{pxpotrf, BroadcastKind};
use cholcomm::par::{matmul_25d, potrf_dag_with, pxpotrf_1d, spmd_pxpotrf};
use cholcomm::seq::ap00::square_rchol;
use cholcomm::seq::zoo::{run_alg, Algorithm};

fn reference(a: &Matrix<f64>) -> Matrix<f64> {
    let mut f = a.clone();
    kernels::potf2(&mut f).unwrap();
    f.lower_triangle().unwrap()
}

#[test]
fn every_execution_vehicle_agrees() {
    let n = 32;
    let mut rng = spd::test_rng(701);
    let a = spd::random_spd(n, &mut rng);
    let want = reference(&a);
    let tol = 1e-8;

    // Sequential recursive.
    let mut laid = Laid::from_matrix(&a, Morton::square(n));
    square_rchol(&mut laid, &mut NullTracer, 4).unwrap();
    assert!(norms::max_abs_diff(&laid.to_matrix().lower_triangle().unwrap(), &want) < tol);

    // Tiled task DAG, on the global pool and on four workers.
    let mut f2 = a.clone();
    potrf_dag_with(&mut f2, 8, KernelImpl::Reference).unwrap();
    assert!(norms::max_abs_diff(&f2, &want) < tol, "tiled DAG");
    let mut f3 = a.clone();
    rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .unwrap()
        .install(|| potrf_dag_with(&mut f3, 8, KernelImpl::Reference))
        .unwrap();
    assert_eq!(f3, f2, "tiled DAG on 4 workers");

    // Simulated distributed machine (2D and 1D).
    let d2 = pxpotrf(&a, 8, 16, CostModel::counting(), BroadcastKind::Tree).unwrap();
    assert!(norms::max_abs_diff(&d2.factor, &want) < tol, "pxpotrf");
    let d1 = pxpotrf_1d(&a, 8, 5, CostModel::counting()).unwrap();
    assert!(norms::max_abs_diff(&d1.factor, &want) < tol, "1D");

    // SPMD threads.
    let sp = spmd_pxpotrf(
        &a,
        8,
        4,
        CostModel::counting(),
        FaultPlan::none(),
        KernelImpl::Reference,
    )
    .unwrap();
    assert!(norms::max_abs_diff(&sp.factor, &want) < tol, "SPMD");

    // File-backed out-of-core.
    let path = std::env::temp_dir().join(format!("cholcomm-int-{}.bin", std::process::id()));
    let mut fm = FileMatrix::create(&path, &a, 8).unwrap();
    ooc_potrf_with(&mut fm, 4, KernelImpl::Reference).unwrap();
    let got = fm.to_matrix().unwrap().lower_triangle().unwrap();
    assert!(norms::max_abs_diff(&got, &want) < tol, "out-of-core");
}

#[test]
fn layout_conversion_is_lossless_in_every_direction() {
    let n = 16;
    let mut rng = spd::test_rng(702);
    let a = spd::random_spd(n, &mut rng);
    let m = 64;

    // Full-storage layouts can round-trip arbitrarily.
    let cm = Laid::from_matrix(&a, ColMajor::square(n));
    let (bl, c1) = convert_counted(&cm, Blocked::square(n, 4), m);
    let (mo, c2) = convert_counted(&bl, Morton::square(n), m);
    let (rm, c3) = convert_counted(&mo, RowMajor::square(n), m);
    let (la, c4) = convert_counted(&rm, Layered::new(n, vec![8, 4]), m);
    let (back, c5) = convert_counted(&la, ColMajor::square(n), m);
    assert_eq!(back.to_matrix(), a, "five-hop conversion chain is lossless");
    for (i, c) in [c1, c2, c3, c4, c5].iter().enumerate() {
        assert_eq!(c.words, 2 * n * n, "hop {i} moves 2n^2 words");
        assert!(c.messages > 0);
    }
}

#[test]
fn recorded_schedules_are_data_independent() {
    // The transfer schedule of every algorithm must depend on (n, params)
    // only — never on matrix values.  That is what makes the off-line
    // Alg' construction of the paper possible.
    let n = 24;
    let mut rng = spd::test_rng(703);
    let a1 = spd::random_spd(n, &mut rng);
    let a2 = spd::random_spd(n, &mut rng);
    for alg in [
        Algorithm::NaiveLeft,
        Algorithm::LapackBlocked { b: 6 },
        Algorithm::Toledo { gemm_leaf: 4 },
        Algorithm::Ap00 { leaf: 4 },
    ] {
        let mut r1 = RecordingTracer::new();
        run_alg(alg, &a1, Morton::square(n), &mut r1).unwrap();
        let mut r2 = RecordingTracer::new();
        run_alg(alg, &a2, Morton::square(n), &mut r2).unwrap();
        assert!(
            r1.same_schedule(&r2),
            "{alg:?}: schedule depends on data"
        );
    }
}

#[test]
fn recorded_schedule_replays_to_identical_lru_counts() {
    // Record once, price under several cache sizes by replay — no
    // re-execution of the arithmetic.
    let n = 32;
    let mut rng = spd::test_rng(704);
    let a = spd::random_spd(n, &mut rng);
    let mut rec = RecordingTracer::new();
    run_alg(Algorithm::Ap00 { leaf: 4 }, &a, Morton::square(n), &mut rec).unwrap();
    for m in [64usize, 256] {
        // Live run.
        let mut live = LruTracer::new(m);
        run_alg(Algorithm::Ap00 { leaf: 4 }, &a, Morton::square(n), &mut live).unwrap();
        // Replayed run.
        let mut replay = LruTracer::new(m);
        rec.replay(&mut replay);
        assert_eq!(
            live.fetch_stats(),
            replay.fetch_stats(),
            "M = {m}: replay must price identically"
        );
    }
}

#[test]
fn matmul_25d_agrees_with_the_recursive_multiplier() {
    let n = 16;
    let mut rng = spd::test_rng(705);
    let a = spd::random_spd(n, &mut rng);
    let b = spd::random_spd(n, &mut rng);
    let want = kernels::matmul(&a, &b);
    let rep = matmul_25d(&a, &b, 4, 2, CostModel::counting()).unwrap();
    assert!(norms::max_abs_diff(&rep.product, &want) < 1e-9);
}

#[test]
fn spmd_and_simulated_critical_paths_are_comparable() {
    let n = 48;
    let mut rng = spd::test_rng(706);
    let a = spd::random_spd(n, &mut rng);
    let sim = pxpotrf(&a, 12, 16, CostModel::typical(), BroadcastKind::Tree).unwrap();
    let sp = spmd_pxpotrf(
        &a,
        12,
        16,
        CostModel::typical(),
        FaultPlan::none(),
        KernelImpl::Reference,
    )
    .unwrap();
    // Different clock models (rendezvous vs postal) but same schedule:
    // counts within small factors.
    let wr = sp.critical.words as f64 / sim.critical.words.max(1) as f64;
    assert!(wr > 0.2 && wr < 5.0, "word ratio {wr}");
}
