//! Property tests for the fault layer: a plan's schedule is a pure
//! function of its seed, the SPMD Cholesky's result is invariant under
//! message duplication, delay (reordering pressure), loss, and
//! corruption, and checkpoints fail *safe* — a crash mid-save leaves the
//! previous snapshot loadable, and a damaged snapshot is rejected
//! instead of resumed from.

use cholcomm::distsim::CostModel;
use cholcomm::faults::{DiskOp, FaultPlan, FsStore};
use cholcomm::matrix::{kernels, norms, spd, KernelImpl};
use cholcomm::ooc::{scratch_path, Checkpoint, FileMatrix};
use cholcomm::par::spmd::spmd_pxpotrf;
use proptest::prelude::*;
use std::path::PathBuf;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn same_seed_means_same_fault_schedule(
        seed in 0u64..10_000,
        drop in 0.0f64..0.3,
        dup in 0.0f64..0.2,
        transient in 0.0f64..0.4,
    ) {
        let build = || {
            FaultPlan::builder(seed)
                .drop_rate(drop)
                .duplicate_rate(dup)
                .disk_transient_rate(transient)
                .build()
        };
        let (p1, p2) = (build(), build());
        // The schedule is sampled, not stored: equality must hold at
        // every coordinate we probe, across links, sequences, attempts,
        // and disk operations.
        for src in 0..3usize {
            for dst in 0..3usize {
                for seq in 1..20u64 {
                    for attempt in 1..4u32 {
                        prop_assert_eq!(
                            p1.message_fault(src, dst, seq, attempt),
                            p2.message_fault(src, dst, seq, attempt)
                        );
                    }
                }
            }
        }
        for op_index in 0..200u64 {
            for attempt in 1..4u32 {
                prop_assert_eq!(
                    p1.disk_fault(DiskOp::Read, op_index, attempt),
                    p2.disk_fault(DiskOp::Read, op_index, attempt)
                );
                prop_assert_eq!(
                    p1.disk_fault(DiskOp::Write, op_index, attempt),
                    p2.disk_fault(DiskOp::Write, op_index, attempt)
                );
            }
        }
    }

    #[test]
    fn spmd_factor_is_invariant_under_message_faults(
        seed in 0u64..1000,
        plan_seed in 0u64..1000,
        nb in 2usize..5,
        b in 2usize..6,
        grid in 1usize..3,
    ) {
        let n = nb * b;
        let p = grid * grid;
        let mut rng = spd::test_rng(seed);
        let a = spd::random_spd(n, &mut rng);

        let clean = spmd_pxpotrf(
            &a,
            b,
            p,
            CostModel::typical(),
            FaultPlan::none(),
            KernelImpl::Reference,
        )
        .unwrap();
        // Duplication plus large delays is maximal reordering pressure
        // on the transport; drops and corruption exercise retransmit.
        let plan = FaultPlan::builder(plan_seed)
            .drop_rate(0.2)
            .duplicate_rate(0.15)
            .corrupt_rate(0.05)
            .delay(0.1, 5000.0)
            .build();
        let lossy = spmd_pxpotrf(
            &a,
            b,
            p,
            CostModel::typical(),
            plan,
            KernelImpl::Reference,
        )
        .unwrap();

        // Bit-identical to the clean SPMD run...
        prop_assert_eq!(
            norms::max_abs_diff(&clean.factor, &lossy.factor),
            0.0
        );
        // ...and the clean run itself matches the sequential reference.
        let mut want = a.clone();
        kernels::potf2(&mut want).unwrap();
        let want = want.lower_triangle().unwrap();
        let diff = norms::max_abs_diff(&lossy.factor, &want);
        prop_assert!(diff < 1e-8, "n={} b={} p={}: {}", n, b, p, diff);
    }
}

/// Build a matrix file and a valid committed checkpoint generation of
/// it; returns the checkpoint, the committed gen, and the matrix path.
fn saved_checkpoint(tag: &str) -> (Checkpoint, u64, PathBuf) {
    let mut rng = spd::test_rng(99);
    let a = spd::random_spd(16, &mut rng);
    let data_path = scratch_path(tag);
    let fm = FileMatrix::create(&data_path, &a, 4).expect("create matrix file");
    let prefix = scratch_path(&format!("{tag}-ckpt"));
    let ckpt = Checkpoint::at(&prefix);
    ckpt.save(&mut FsStore::new(), &fm, 2).expect("save checkpoint");
    let gen = ckpt
        .load(&mut FsStore::new())
        .expect("fresh checkpoint loads")
        .expect("present")
        .gen;
    (ckpt, gen, data_path)
}

#[test]
fn crash_during_checkpoint_save_leaves_the_previous_one_loadable() {
    let (ckpt, gen, _data) = saved_checkpoint("fp-crash-save");
    // A crash mid-save dies after the next generation's files started
    // landing but before its commit record: the journal's last record
    // is at best an uncommitted intent, and garbage generation files
    // (plus a legacy `.tmp` stray) sit on disk.  Recovery must resume
    // from the committed generation and sweep the rest.
    std::fs::write(ckpt.data_file(gen + 1), b"half-written snapshot").unwrap();
    std::fs::write(ckpt.manifest_file(gen + 1), b"half-written manifest").unwrap();
    std::fs::write(format!("{}.tmp", ckpt.data_file(gen + 2)), b"legacy stray").unwrap();
    let state = ckpt
        .load(&mut FsStore::new())
        .expect("previous checkpoint intact")
        .expect("present");
    assert_eq!((state.next_panel, state.n, state.b, state.gen), (2, 16, 4, gen));
    assert!(
        !std::path::Path::new(&ckpt.data_file(gen + 1)).exists(),
        "uncommitted generation files are swept on load"
    );
    assert!(
        !std::path::Path::new(&format!("{}.tmp", ckpt.data_file(gen + 2))).exists(),
        ".tmp strays are swept on load"
    );
    ckpt.remove(&mut FsStore::new()).unwrap();
}

#[test]
fn truncated_checkpoint_data_is_rejected_not_resumed_from() {
    let (ckpt, gen, _data) = saved_checkpoint("fp-truncate");
    let data = ckpt.data_file(gen);
    let bytes = std::fs::read(&data).unwrap();
    std::fs::write(&data, &bytes[..bytes.len() / 2]).unwrap();
    let err = ckpt.load(&mut FsStore::new()).expect_err("truncation must be detected");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    ckpt.remove(&mut FsStore::new()).unwrap();
}

#[test]
fn bit_rotted_checkpoint_data_is_rejected_not_resumed_from() {
    let (ckpt, gen, _data) = saved_checkpoint("fp-bitrot");
    let data = ckpt.data_file(gen);
    let mut bytes = std::fs::read(&data).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40; // one flipped bit, same length
    std::fs::write(&data, &bytes).unwrap();
    let err = ckpt.load(&mut FsStore::new()).expect_err("bit rot must be detected");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    ckpt.remove(&mut FsStore::new()).unwrap();
}

#[test]
fn tampered_checkpoint_manifest_is_rejected_not_resumed_from() {
    let (ckpt, gen, _data) = saved_checkpoint("fp-manifest");
    let manifest = ckpt.manifest_file(gen);
    let text = std::fs::read_to_string(&manifest).unwrap();
    std::fs::write(&manifest, text.replace("next_panel=2", "next_panel=3")).unwrap();
    let err = ckpt.load(&mut FsStore::new()).expect_err("manifest tampering must be detected");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    ckpt.remove(&mut FsStore::new()).unwrap();
}
