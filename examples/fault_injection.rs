//! Fault injection and recovery, end to end: factor the same SPD matrix
//! (1) on the SPMD simulator over a lossy network and (2) out of core on
//! a flaky disk that crashes mid-run, and show that both recover to the
//! exact bits of their clean references.
//!
//! ```bash
//! cargo run --release --example fault_injection
//! ```

use cholcomm::distsim::CostModel;
use cholcomm::faults::{CrashPoint, FaultPlan, FsStore};
use cholcomm::matrix::{norms, spd, KernelImpl};
use cholcomm::ooc::{
    ooc_potrf_checkpointed, ooc_potrf_with, Checkpoint, FaultyBackend, FileMatrix, IoBackend,
    PipelineConfig,
};
use cholcomm::par::spmd_pxpotrf;

fn main() {
    let n = 96;
    let b = 8;
    let p = 4;
    let mut rng = spd::test_rng(2026);
    let a = spd::random_spd(n, &mut rng);

    // ---- 1. SPMD over a lossy network -------------------------------
    println!("== SPMD PxPOTRF, n={n} b={b} p={p}, lossy network ==");
    let clean = spmd_pxpotrf(
        &a,
        b,
        p,
        CostModel::typical(),
        FaultPlan::none(),
        KernelImpl::Reference,
    )
    .expect("clean run");
    let plan = FaultPlan::builder(7)
        .drop_rate(0.15)
        .duplicate_rate(0.05)
        .corrupt_rate(0.05)
        .delay(0.05, 1000.0)
        .build();
    let lossy = spmd_pxpotrf(&a, b, p, CostModel::typical(), plan, KernelImpl::Reference)
        .expect("lossy run");

    let diff = norms::max_abs_diff(&clean.factor, &lossy.factor);
    println!("max |clean - lossy| over the factor: {diff:e}");
    assert_eq!(diff, 0.0, "reliable transport must reproduce the bits");
    println!("{}", lossy.fault);
    println!(
        "simulated makespan: clean {:.3e}, lossy {:.3e} ({:.2}x)\n",
        clean.makespan,
        lossy.makespan,
        lossy.makespan / clean.makespan
    );

    // ---- 2. Out-of-core on a flaky disk with a mid-run crash --------
    println!("== Out-of-core POTRF, n={n} b={b}, flaky disk + crash/restart ==");
    let ref_path = cholcomm::ooc::filemat::scratch_path("demo-ref");
    let mut reference = FileMatrix::create(&ref_path, &a, b).expect("create reference");
    ooc_potrf_with(&mut reference, 4, KernelImpl::Reference).expect("reference factorization");
    let want = reference.to_matrix().expect("read back reference");

    let data_path = cholcomm::ooc::filemat::scratch_path("demo-crash");
    let ckpt_path = cholcomm::ooc::filemat::scratch_path("demo-ckpt");
    let ckpt = Checkpoint::at(&ckpt_path);
    // Checkpointed, with every tile move inline on the compute thread.
    let sync = PipelineConfig::new(4).with_io_workers(0);
    {
        let mut fm = FileMatrix::create(&data_path, &a, b).expect("create working copy");
        fm.set_persist(true); // the backing file must survive the "crash"
        let plan = FaultPlan::builder(40)
            .disk_transient_rate(0.08)
            .disk_short_read_rate(0.04)
            .crash_at(CrashPoint::AfterDiskOps(120))
            .build();
        let mut fb = FaultyBackend::new(fm, plan);
        let died = ooc_potrf_checkpointed(&mut fb, &ckpt, &mut FsStore::new(), &sync)
            .expect_err("this plan kills the run mid-factorization");
        let fs = fb.fault_stats();
        println!("run died as planned: {died}");
        println!(
            "before the crash: {} transient EIOs, {} short reads, {} retries absorbed",
            fs.disk_transients, fs.disk_short_reads, fs.disk_retries
        );
    }

    // "Restart the process": a fresh handle on the same file resumes from
    // the last completed panel, on a disk that is still flaky.
    let fm = FileMatrix::open(&data_path, n, b).expect("reopen after crash");
    let plan = FaultPlan::builder(41).disk_transient_rate(0.08).build();
    let mut fb = FaultyBackend::new(fm, plan);
    let (rep, _) =
        ooc_potrf_checkpointed(&mut fb, &ckpt, &mut FsStore::new(), &sync).expect("resumed run");
    println!(
        "resumed at panel {} of {}, finished {} panels, wrote {} checkpoints ({} bytes)",
        rep.start_panel,
        fb.nb(),
        rep.panels_done,
        rep.checkpoints_written,
        rep.checkpoint_bytes
    );

    let got = fb.inner_mut().to_matrix().expect("read back factor");
    let diff = norms::max_abs_diff(&got, &want);
    println!("max |uninterrupted - crash/resume| over the factor: {diff:e}");
    assert_eq!(diff, 0.0, "resume must land on the same bits");
    let l = got.lower_triangle().expect("factor is lower-triangular");
    let r = norms::cholesky_residual(&a, &l);
    println!("||A - LL^T|| / ||A|| residual: {r:e}");

    std::fs::remove_file(&data_path).ok();
    ckpt.remove().ok();
    println!("\nboth substrates recovered to the exact bits of their clean references");
}
