//! Property tests for the ABFT layer: under seeded silent-data-corruption
//! plans (random and explicitly injected bit flips) and fail-stop rank
//! loss, every substrate — sequential blocked, SPMD, out-of-core — must
//! finish **bit-identical** to its fault-free reference, and the cost of
//! resilience must stay strictly separate from the clean traffic counts.

use cholcomm::distsim::CostModel;
use cholcomm::faults::{FaultPlan, FsStore};
use cholcomm::matrix::{kernels, norms, spd, KernelImpl};
use cholcomm::ooc::{
    ooc_potrf_checkpointed, ooc_potrf_with, AbftBackend, Checkpoint, FileMatrix, PipelineConfig,
};
use cholcomm::par::{abft_spmd_pxpotrf, spmd_pxpotrf};
use cholcomm::seq::abft_potrf;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sequential: random single-bit upsets at any rate the encoding can
    /// see are healed (in place or from the epoch snapshot) and the
    /// factor's bits match a fault-free run exactly.  `clean_words` is
    /// the same in both runs — resilience never leaks into the clean
    /// count.
    #[test]
    fn seq_abft_heals_random_flips_bit_identically(
        seed in 0u64..1000,
        plan_seed in 0u64..1000,
        nb in 2usize..6,
        b in 2usize..8,
        rate in 0.0f64..0.4,
    ) {
        let n = nb * b;
        let mut rng = spd::test_rng(seed);
        let a = spd::random_spd(n, &mut rng);

        let clean = abft_potrf(&a, b, &FaultPlan::none()).unwrap();
        let plan = FaultPlan::builder(plan_seed).bit_flip_rate(rate).build();
        let hit = abft_potrf(&a, b, &plan).unwrap();

        prop_assert_eq!(norms::max_abs_diff(&clean.factor, &hit.factor), 0.0);
        prop_assert_eq!(clean.clean_words, hit.clean_words);
        // ...and the clean factor matches the unblocked reference.
        let mut want = a.clone();
        kernels::potf2(&mut want).unwrap();
        let want = want.lower_triangle().unwrap();
        prop_assert!(norms::max_abs_diff(&hit.factor, &want) < 1e-8);
    }

    /// Sequential: an *explicitly placed* flip — any step, any
    /// lower-triangle tile, any element, any bit — is located and
    /// corrected; a second flip in the same tile exercises the
    /// snapshot-restore fallback.  Either way: bit-identical.
    #[test]
    fn seq_abft_heals_injected_flips(
        seed in 0u64..1000,
        nb in 2usize..6,
        b in 2usize..8,
        step_frac in 0usize..100,
        ti in 0usize..100,
        tj in 0usize..100,
        ei in 0usize..100,
        ej in 0usize..100,
        bit in 0u32..64,
        double in 0u32..2,
    ) {
        let double = double == 1;
        let n = nb * b;
        let mut rng = spd::test_rng(seed);
        let a = spd::random_spd(n, &mut rng);

        let step = step_frac % nb;
        let tj = tj % nb;
        let ti = tj + ti % (nb - tj); // lower triangle: ti >= tj
        let (ei, ej) = (ei % b, ej % b);
        let mut builder = FaultPlan::builder(seed)
            .inject_bit_flip(step, (ti, tj), (ei, ej), 1u64 << bit);
        if double {
            // Same tile, different element: unhealable from one checksum
            // pair, so the epoch snapshot must be used instead.
            let e2 = ((ei + 1) % b, ej);
            builder = builder.inject_bit_flip(step, (ti, tj), e2, 1u64 << (63 - bit));
        }
        let plan = builder.build();

        let clean = abft_potrf(&a, b, &FaultPlan::none()).unwrap();
        let hit = abft_potrf(&a, b, &plan).unwrap();
        prop_assert_eq!(norms::max_abs_diff(&clean.factor, &hit.factor), 0.0);
        // The flip may land on a tile the schedule no longer reads at
        // that step, but if it was seen it was healed, never ignored.
        prop_assert!(hit.abft.corrections + hit.abft.restores <= 2);
        prop_assert_eq!(hit.abft.unrecoverable, u64::from(double && hit.abft.restores > 0));
    }

    /// SPMD: killing any rank at any step leaves survivors that finish
    /// the factorization from the kill epoch's checkpoints,
    /// bit-identical to the fault-free run — no panics anywhere.
    #[test]
    fn spmd_abft_survives_any_rank_kill(
        seed in 0u64..1000,
        victim in 0usize..4,
        step in 0usize..4,
        b in 2usize..6,
    ) {
        let p = 4;
        let nb = 5;
        let n = nb * b;
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
        let plan = FaultPlan::builder(seed)
            .inject_rank_kill(victim, step)
            .build();
        let rep = abft_spmd_pxpotrf(&a, b, p, CostModel::typical(), plan).unwrap();

        prop_assert_eq!(norms::max_abs_diff(&clean.factor, &rep.factor), 0.0);
        prop_assert_eq!(rep.lost_rank, Some(victim));
        prop_assert_eq!(rep.recovery_rounds, 1);
    }

    /// SPMD: random flips are healed and the clean traffic count is
    /// untouched by the resilience machinery — word overhead lives only
    /// in `AbftStats`.
    #[test]
    fn spmd_abft_heals_flips_and_separates_overhead(
        seed in 0u64..1000,
        plan_seed in 0u64..1000,
        nb in 2usize..5,
        b in 2usize..6,
    ) {
        let p = 4;
        let n = nb * b;
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
        let plan = FaultPlan::builder(plan_seed).bit_flip_rate(0.1).build();
        let rep = abft_spmd_pxpotrf(&a, b, p, CostModel::typical(), plan).unwrap();

        prop_assert_eq!(norms::max_abs_diff(&clean.factor, &rep.factor), 0.0);
        prop_assert_eq!(rep.fault.clean_words, clean.fault.clean_words);
        prop_assert_eq!(rep.fault.clean_messages, clean.fault.clean_messages);
        prop_assert!(rep.abft.checksum_words > 0);
    }

    /// Out-of-core: at-rest disk rot at any seeded rate is caught by the
    /// read-verifying backend; single strikes heal in place, clustered
    /// strikes roll back to the last panel checkpoint, and the factor
    /// always lands on the clean-disk bits.
    #[test]
    fn ooc_abft_heals_disk_rot_bit_identically(
        seed in 0u64..1000,
        plan_seed in 0u64..1000,
        nb in 2usize..5,
        b in 4usize..9,
        rate in 0.0f64..0.3,
    ) {
        let n = nb * b;
        let mut rng = spd::test_rng(seed);
        let a = spd::random_spd(n, &mut rng);

        let ref_path = cholcomm::ooc::scratch_path("abft-prop-ref");
        let mut reference = FileMatrix::create(&ref_path, &a, b).unwrap();
        ooc_potrf_with(&mut reference, 3, KernelImpl::Reference).unwrap();
        let want = reference.to_matrix().unwrap();
        drop(reference);

        let data_path = cholcomm::ooc::scratch_path("abft-prop");
        let ckpt_path = cholcomm::ooc::scratch_path("abft-prop-ckpt");
        let plan = FaultPlan::builder(plan_seed).bit_flip_rate(rate).build();
        let fm = FileMatrix::create(&data_path, &a, b).unwrap();
        let mut ab = AbftBackend::new(fm, plan);
        let ckpt = Checkpoint::at(&ckpt_path);
        let sync = PipelineConfig::new(3).with_io_workers(0);
        let (rep, _) = ooc_potrf_checkpointed(&mut ab, &ckpt, &mut FsStore::new(), &sync).unwrap();
        let got = ab.inner_mut().to_matrix().unwrap();

        prop_assert_eq!(norms::max_abs_diff(&got, &want), 0.0);
        let s = ab.abft_stats();
        // Rollbacks happen exactly when a read saw an unhealable tile.
        prop_assert_eq!(rep.restores > 0, s.unrecoverable > 0);
        ckpt.remove(&mut FsStore::new()).ok();
    }
}
