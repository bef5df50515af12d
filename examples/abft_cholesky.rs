//! ABFT Cholesky, end to end: seed silent bit flips — and a rank death —
//! into all three substrates (sequential blocked, SPMD, out-of-core) and
//! show each one detects, locates, and corrects the damage, finishing
//! **bit-identical** to its fault-free reference.  The cost of resilience
//! (checksum and checkpoint words the clean algorithm never moves) is
//! tallied separately from the clean traffic and reported as an overhead
//! factor at the end.
//!
//! ```text
//! cargo run --release --example abft_cholesky
//! ```

use cholcomm::distsim::CostModel;
use cholcomm::faults::FaultPlan;
use cholcomm::matrix::{norms, spd, KernelImpl};
use cholcomm::ooc::{
    ooc_potrf_checkpointed, ooc_potrf_with, AbftBackend, Checkpoint, FileMatrix,
};
use cholcomm::par::{abft_spmd_pxpotrf, spmd_pxpotrf};
use cholcomm::seq::abft_potrf;

fn main() {
    let n = 96;
    let b = 8;
    let p = 4;
    let mut rng = spd::test_rng(2027);
    let a = spd::random_spd(n, &mut rng);
    // (substrate, clean words, abft words) for the closing table.
    let mut rows: Vec<(&str, u64, u64)> = Vec::new();

    // ---- 1. Sequential blocked POTRF + Huang-Abraham checksums ------
    println!("== sequential blocked POTRF, n={n} b={b}, silent bit flips ==");
    let clean = abft_potrf(&a, b, &FaultPlan::none()).expect("matrix is SPD");
    let plan = FaultPlan::builder(90)
        .inject_bit_flip(2, (3, 1), (4, 4), 1 << 52) // exponent bit
        .inject_bit_flip(5, (7, 5), (0, 3), 1 << 63) // sign bit
        .inject_bit_flip(4, (6, 4), (1, 1), 1 << 44) // two strikes in one
        .inject_bit_flip(4, (6, 4), (6, 2), 1 << 45) //   tile -> snapshot restore
        .bit_flip_rate(0.05)
        .build();
    let hit = abft_potrf(&a, b, &plan).expect("matrix is SPD");
    assert_eq!(
        norms::max_abs_diff(&clean.factor, &hit.factor),
        0.0,
        "healed factor must match the fault-free bits"
    );
    let s = hit.abft;
    println!(
        "  {} corruptions healed in place, {} tile(s) restored from the epoch snapshot",
        s.corrections, s.restores
    );
    println!(
        "  {} verifications; factor bit-identical to the fault-free run",
        s.verifications
    );
    rows.push((
        "sequential",
        hit.clean_words,
        s.checksum_words + s.checkpoint_words,
    ));

    // ---- 2. SPMD PxPOTRF: flips plus a rank death -------------------
    println!("\n== SPMD PxPOTRF, p={p}: bit flips + rank 2 killed at step 3 ==");
    let cleanp = spmd_pxpotrf(&a, b, p, CostModel::typical()).expect("clean SPMD run");
    let plan = FaultPlan::builder(91)
        .inject_bit_flip(1, (4, 1), (2, 2), 1 << 50)
        .bit_flip_rate(0.02)
        .inject_rank_kill(2, 3)
        .build();
    let rep = abft_spmd_pxpotrf(&a, b, p, CostModel::typical(), plan).expect("ABFT SPMD run");
    assert_eq!(
        norms::max_abs_diff(&cleanp.factor, &rep.factor),
        0.0,
        "recovered factor must match the fault-free bits"
    );
    let dead = rep.lost_rank.expect("the plan kills rank 2");
    println!(
        "  rank {dead} died; survivors saw typed RankLost errors, {} recovery round re-ran \
         from the kill epoch's checkpoints",
        rep.recovery_rounds
    );
    println!(
        "  {} corruptions healed along the way; factor bit-identical to the fault-free run",
        rep.abft.corrections
    );
    rows.push((
        "SPMD",
        rep.fault.clean_words,
        rep.abft.checksum_words + rep.abft.checkpoint_words,
    ));

    // ---- 3. Out-of-core: at-rest rot on a checksum-verified disk ----
    println!("\n== out-of-core POTRF: disk rot under a checksum-verifying backend ==");
    let ref_path = cholcomm::ooc::filemat::scratch_path("abft-demo-ref");
    let mut reference = FileMatrix::create(&ref_path, &a, b).expect("create reference");
    ooc_potrf_with(&mut reference, 4, KernelImpl::Reference).expect("reference factorization");
    let want = reference.to_matrix().expect("read back reference");
    let ref_io = reference.stats();

    let data_path = cholcomm::ooc::filemat::scratch_path("abft-demo");
    let ckpt_path = cholcomm::ooc::filemat::scratch_path("abft-demo-ckpt");
    let plan = FaultPlan::builder(92)
        .inject_bit_flip(1, (3, 1), (2, 5), 1 << 51) // single: healed on read
        .inject_bit_flip(3, (5, 3), (0, 0), 1 << 44) // double strike in one tile:
        .inject_bit_flip(3, (5, 3), (7, 7), 1 << 45) //   unhealable -> rollback
        .bit_flip_rate(0.02)
        .build();
    let fm = FileMatrix::create(&data_path, &a, b).expect("create working copy");
    let mut ab = AbftBackend::new(fm, plan);
    let ckpt = Checkpoint::at(&ckpt_path);
    let crep = ooc_potrf_checkpointed(&mut ab, 4, &ckpt).expect("ABFT out-of-core run");
    let got = ab.inner_mut().to_matrix().expect("read back factor");
    assert_eq!(
        norms::max_abs_diff(&got, &want),
        0.0,
        "factor off the rotten disk must match the clean-disk bits"
    );
    let s = ab.abft_stats();
    println!(
        "  {} tile reads verified, {} healed in place, {} unhealable -> {} rollback(s) \
         to the last panel checkpoint",
        s.verifications, s.corrections, s.unrecoverable, crep.restores
    );
    println!("  factor bit-identical to the clean-disk run");
    let clean_io_words = (ref_io.bytes_read + ref_io.bytes_written) / 8;
    rows.push((
        "out-of-core",
        clean_io_words,
        s.checksum_words + s.checkpoint_words,
    ));

    // ---- The cost of resilience -------------------------------------
    println!("\n== cost of resilience: extra words vs. the clean algorithm ==");
    println!(
        "{:>12} {:>14} {:>12} {:>10}",
        "substrate", "clean words", "abft words", "overhead"
    );
    for (name, clean_words, abft_words) in &rows {
        println!(
            "{:>12} {:>14} {:>12} {:>9.3}x",
            name,
            clean_words,
            abft_words,
            1.0 + *abft_words as f64 / *clean_words as f64
        );
    }

    std::fs::remove_file(&ref_path).ok();
    std::fs::remove_file(&data_path).ok();
    ckpt.remove().ok();
    println!("\nall three substrates absorbed the faults and reproduced their clean bits");
}
