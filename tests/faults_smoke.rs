//! Tier-1 smoke tests for the fault-injection and recovery layer: one
//! heavily faulted SPMD run and one crash/resume out-of-core run, both
//! checked against their clean references bit for bit.

use cholcomm::distsim::CostModel;
use cholcomm::faults::{CrashPoint, FaultPlan, FsStore};
use cholcomm::matrix::{norms, spd, KernelImpl};
use cholcomm::ooc::{
    ooc_potrf_checkpointed, ooc_potrf_with, Checkpoint, FaultyBackend, FileMatrix, IoBackend,
    PipelineConfig,
};
use cholcomm::par::spmd::spmd_pxpotrf;

#[test]
fn faulted_spmd_run_is_bit_identical_and_reports_overhead() {
    let mut rng = spd::test_rng(300);
    let a = spd::random_spd(48, &mut rng);
    let clean = spmd_pxpotrf(
        &a,
        4,
        4,
        CostModel::typical(),
        FaultPlan::none(),
        KernelImpl::Reference,
    )
    .unwrap();

    let plan = FaultPlan::builder(99)
        .drop_rate(0.15)
        .duplicate_rate(0.05)
        .corrupt_rate(0.05)
        .delay(0.05, 1000.0)
        .build();
    let lossy = spmd_pxpotrf(&a, 4, 4, CostModel::typical(), plan, KernelImpl::Reference).unwrap();

    // The acceptance bar: a plan dropping >= 10% of messages still
    // yields a bit-identical factor, and the report separates clean
    // traffic from retry traffic.
    assert_eq!(
        norms::max_abs_diff(&clean.factor, &lossy.factor),
        0.0,
        "faulted SPMD factor must be bit-identical to the clean run"
    );
    let rep = lossy.fault;
    assert!(
        rep.stats.drops as f64 >= 0.10 * rep.clean_messages as f64,
        "want >= 10% of messages dropped, got {} of {}",
        rep.stats.drops,
        rep.clean_messages
    );
    assert!(rep.faulted_words > rep.clean_words);
    assert!(rep.faulted_messages > rep.clean_messages);
    assert!(rep.word_overhead > 1.0 && rep.message_overhead > 1.0);
    assert_eq!(clean.fault.word_overhead, 1.0, "clean run has no overhead");

    println!("faulted SPMD run report:\n{rep}");
}

#[test]
fn crashed_ooc_run_resumes_to_the_uninterrupted_result() {
    let mut rng = spd::test_rng(301);
    let n = 40;
    let b = 8;
    let a = spd::random_spd(n, &mut rng);

    // Uninterrupted reference on a perfect disk.
    let ref_path = cholcomm::ooc::scratch_path("smoke-ref");
    let mut reference = FileMatrix::create(&ref_path, &a, b).unwrap();
    ooc_potrf_with(&mut reference, 4, KernelImpl::Reference).unwrap();
    let want = reference.to_matrix().unwrap();

    // Flaky disk + mid-run crash, every tile move inline.
    let sync = PipelineConfig::new(4).with_io_workers(0);
    let data_path = cholcomm::ooc::scratch_path("smoke-crash");
    let ckpt = Checkpoint::at(&cholcomm::ooc::scratch_path("smoke-ckpt"));
    {
        let mut fm = FileMatrix::create(&data_path, &a, b).unwrap();
        fm.set_persist(true);
        let plan = FaultPlan::builder(9)
            .disk_transient_rate(0.1)
            .disk_short_read_rate(0.05)
            .crash_at(CrashPoint::AfterDiskOps(70))
            .build();
        let mut fb = FaultyBackend::new(fm, plan);
        ooc_potrf_checkpointed(&mut fb, &ckpt, &mut FsStore::new(), &sync)
            .expect_err("the plan kills this run mid-factorization");
        let fs = fb.fault_stats();
        assert!(
            fs.disk_faults() >= 3,
            "want >= 3 transient disk errors before the crash, got {fs:?}"
        );
        assert!(fs.disk_retries >= fs.disk_faults(), "every fault was retried");
        println!(
            "flaky-disk run before crash: {} transients, {} short reads, {} retries",
            fs.disk_transients, fs.disk_short_reads, fs.disk_retries
        );
    }

    // "Restart the process": reopen the same file, resume from the
    // checkpoint, finish on a still-flaky (but crash-free) disk.
    let mut fm = FileMatrix::open(&data_path, n, b).unwrap();
    fm.set_persist(false); // test scratch: clean up on drop
    let plan = FaultPlan::builder(10).disk_transient_rate(0.1).build();
    let mut fb = FaultyBackend::new(fm, plan);
    let (rep, _) = ooc_potrf_checkpointed(&mut fb, &ckpt, &mut FsStore::new(), &sync).unwrap();
    assert!(rep.start_panel > 0, "resumed from a checkpoint, not from scratch");

    let got = fb.inner_mut().to_matrix().unwrap();
    assert_eq!(
        norms::max_abs_diff(&got, &want),
        0.0,
        "crash/resume factor must be bit-identical to the uninterrupted run"
    );
    let r = norms::cholesky_residual(&a, &got.lower_triangle().unwrap());
    assert!(r < norms::residual_tolerance(n), "residual {r}");
}
