//! Golden pins for every Algorithm 9 entry point of `cholcomm-par`.
//!
//! Each case runs one driver on a fixed input and folds everything the
//! driver reports — factor bits, critical path, clocks, traffic, ABFT
//! tallies — into one FNV-1a digest of its printed form.  The digests
//! were captured from the four hand-written panel loops these drivers
//! replaced, so a change to the schedule (the order of a broadcast, a
//! flop charge, a word count, the arithmetic of a tile op) fails here
//! even when every factor stays correct.
//!
//! Under a `RankKill` only the factor and the recovery outcome are
//! pinned: the aborted round's traffic depends on send-vs-death races.

use cholcomm_distsim::CostModel;
use cholcomm_faults::FaultPlan;
use cholcomm_matrix::digest::{fnv1a, lower_digest};
use cholcomm_matrix::{spd, Matrix};
use cholcomm_par::pxpotrf::{pxpotrf_with, BroadcastKind};
use cholcomm_par::spmd::spmd_pxpotrf_faulty;
use cholcomm_par::{abft_spmd_pxpotrf, pxpotrf_hier, spmd_pxpotrf};

/// `(n, b, p)`: square and ragged tile grids, `b` dividing and not
/// dividing `n`, one to sixteen processors.
const CONFIGS: [(usize, usize, usize); 6] =
    [(16, 4, 4), (24, 4, 9), (30, 4, 9), (37, 8, 4), (64, 16, 16), (12, 4, 1)];

fn input(n: usize) -> Matrix<f64> {
    spd::random_spd(n, &mut spd::test_rng(900 + n as u64))
}

fn indefinite() -> Matrix<f64> {
    let mut m = Matrix::<f64>::identity(16);
    m[(10, 10)] = -1.0;
    m
}

fn lossy(seed: u64) -> FaultPlan {
    FaultPlan::builder(seed)
        .drop_rate(0.15)
        .duplicate_rate(0.05)
        .corrupt_rate(0.05)
        .delay(0.05, 1000.0)
        .build()
}

/// The printed form of every case, in a fixed order.
fn cases() -> Vec<(String, String)> {
    let mut out = Vec::new();
    let model = CostModel::typical();
    for (n, b, p) in CONFIGS {
        let a = input(n);
        let tag = format!("n{n}b{b}p{p}");

        for (kind, name) in [(BroadcastKind::Tree, "tree"), (BroadcastKind::Ring, "ring")] {
            let r = pxpotrf_with(&a, b, p, model, kind).unwrap();
            let s = format!(
                "{:?} {} {:?} {} {} {} {:016x}",
                r.critical,
                r.makespan.to_bits(),
                r.max_proc,
                r.max_proc_flops,
                r.total_flops,
                r.peak_resident_words,
                lower_digest(&r.factor)
            );
            out.push((format!("pxpotrf/{name}/{tag}"), s));
        }

        for m_local in [3 * b * b, 8 * b * b] {
            let r = pxpotrf_hier(&a, b, p, model, m_local).unwrap();
            let s = format!(
                "{:?} {} {} {:016x}",
                r.critical,
                r.max_local_words,
                r.max_local_messages,
                lower_digest(&r.factor)
            );
            out.push((format!("hier/m{m_local}/{tag}"), s));
        }

        for (plan, name) in [(FaultPlan::none(), "clean"), (lossy(99), "lossy")] {
            let r = spmd_pxpotrf_faulty(&a, b, p, model, plan).unwrap();
            let s = format!(
                "{:?} {} {:?} {:016x}",
                r.critical,
                r.makespan.to_bits(),
                r.fault,
                lower_digest(&r.factor)
            );
            out.push((format!("spmd/{name}/{tag}"), s));
        }

        let flips = FaultPlan::builder(11).drop_rate(0.2).bit_flip_rate(0.05).build();
        for (plan, name) in [(FaultPlan::none(), "clean"), (flips, "flips")] {
            let r = abft_spmd_pxpotrf(&a, b, p, model, plan).unwrap();
            let s = format!(
                "{} {:?} {:?} {} {:?} {:016x}",
                r.makespan.to_bits(),
                r.fault,
                r.abft,
                r.recovery_rounds,
                r.lost_rank,
                lower_digest(&r.factor)
            );
            out.push((format!("abft/{name}/{tag}"), s));
        }

        if p > 1 {
            let plan = FaultPlan::builder(12).inject_rank_kill(p - 1, 1).build();
            let r = abft_spmd_pxpotrf(&a, b, p, model, plan).unwrap();
            let s = format!("{} {:?} {:016x}", r.recovery_rounds, r.lost_rank, lower_digest(&r.factor));
            out.push((format!("abft/kill/{tag}"), s));
        }
    }

    // The explicit flip and kill plans of `par::abft`'s unit tests.
    let a = spd::random_spd(24, &mut spd::test_rng(301));
    let single = FaultPlan::builder(7)
        .inject_bit_flip(1, (1, 1), (2, 3), 1 << 50)
        .inject_bit_flip(2, (3, 2), (0, 0), 1 << 63)
        .inject_bit_flip(3, (1, 0), (4, 1), 0b1)
        .build();
    let multi = FaultPlan::builder(8)
        .inject_bit_flip(2, (2, 2), (0, 1), 1 << 40)
        .inject_bit_flip(2, (2, 2), (3, 4), 1 << 41)
        .build();
    for (plan, name) in [(single, "single"), (multi, "multi")] {
        let r = abft_spmd_pxpotrf(&a, 6, 4, model, plan).unwrap();
        let s = format!(
            "{} {:?} {:?} {} {:016x}",
            r.makespan.to_bits(),
            r.fault,
            r.abft,
            r.recovery_rounds,
            lower_digest(&r.factor)
        );
        out.push((format!("abft/{name}/n24b6p4"), s));
    }
    let composed = FaultPlan::builder(10)
        .drop_rate(0.3)
        .corrupt_rate(0.1)
        .bit_flip_rate(0.05)
        .inject_rank_kill(2, 2)
        .build();
    let kills = [(0usize, 1usize), (2, 0), (3, 2), (1, 3)]
        .map(|(victim, step)| FaultPlan::builder(9).inject_rank_kill(victim, step).build());
    for (i, plan) in kills.into_iter().chain([composed]).enumerate() {
        let r = abft_spmd_pxpotrf(&a, 6, 4, model, plan).unwrap();
        let s = format!("{} {:?} {:016x}", r.recovery_rounds, r.lost_rank, lower_digest(&r.factor));
        out.push((format!("abft/kill{i}/n24b6p4"), s));
    }

    // A failing pivot is reported the same way by every driver.
    let m = indefinite();
    let errs = [
        format!("{:?}", pxpotrf_with(&m, 4, 4, model, BroadcastKind::Tree).unwrap_err()),
        format!("{:?}", pxpotrf_hier(&m, 4, 4, model, 48).unwrap_err()),
        format!("{:?}", spmd_pxpotrf(&m, 4, 4, model).unwrap_err()),
        format!("{:?}", abft_spmd_pxpotrf(&m, 4, 4, model, FaultPlan::none()).unwrap_err()),
    ];
    out.push(("not_spd".to_string(), errs.join(" ")));
    out
}

/// `(case, digest of its printed form)`.
const PINS: &[(&str, u64)] = &[
    ("pxpotrf/tree/n16b4p4", 0x651330a7794c6d5a),
    ("pxpotrf/ring/n16b4p4", 0x651330a7794c6d5a),
    ("hier/m48/n16b4p4", 0x7bb5ecdb8826e958),
    ("hier/m128/n16b4p4", 0xd18920f38fa5884d),
    ("spmd/clean/n16b4p4", 0xc6574f71881227c9),
    ("spmd/lossy/n16b4p4", 0x4989d65a3f23075a),
    ("abft/clean/n16b4p4", 0x2e1eb15974177c11),
    ("abft/flips/n16b4p4", 0x6f4d4afa1aa33f6f),
    ("abft/kill/n16b4p4", 0x54d3e73466049a5b),
    ("pxpotrf/tree/n24b4p9", 0x8354d37881c832b4),
    ("pxpotrf/ring/n24b4p9", 0xc5bf8ffe138aa3d7),
    ("hier/m48/n24b4p9", 0xaf9aa98ec35a6d2f),
    ("hier/m128/n24b4p9", 0x9b16dc0bdcc9cf06),
    ("spmd/clean/n24b4p9", 0x08e046d0db21e22b),
    ("spmd/lossy/n24b4p9", 0xf0c03ab2b5571ae1),
    ("abft/clean/n24b4p9", 0xba5326ad429884b3),
    ("abft/flips/n24b4p9", 0xa2456c03781590c8),
    ("abft/kill/n24b4p9", 0x9daf73f76be765b3),
    ("pxpotrf/tree/n30b4p9", 0x2683d95201569c76),
    ("pxpotrf/ring/n30b4p9", 0xc07abf90041c3a27),
    ("hier/m48/n30b4p9", 0x2d943298f88f77ed),
    ("hier/m128/n30b4p9", 0x83aecb13ff77ff43),
    ("spmd/clean/n30b4p9", 0xd2f0b869c8ed6081),
    ("spmd/lossy/n30b4p9", 0xfd9d744d0ed73269),
    ("abft/clean/n30b4p9", 0xcfe85c1f6806c955),
    ("abft/flips/n30b4p9", 0xc6a470f19804becd),
    ("abft/kill/n30b4p9", 0xd6a69b3d8c7dc026),
    ("pxpotrf/tree/n37b8p4", 0x8790ecb5f5ff05a2),
    ("pxpotrf/ring/n37b8p4", 0x8790ecb5f5ff05a2),
    ("hier/m192/n37b8p4", 0x06ecafe3861e7fd1),
    ("hier/m512/n37b8p4", 0x040946a36296aef6),
    ("spmd/clean/n37b8p4", 0xf446aad5c5772e77),
    ("spmd/lossy/n37b8p4", 0x0bdc835b1c192701),
    ("abft/clean/n37b8p4", 0x41fc2cb9a8df3526),
    ("abft/flips/n37b8p4", 0x9fb5cb97ff223c7c),
    ("abft/kill/n37b8p4", 0x08930a5351c5fc4d),
    ("pxpotrf/tree/n64b16p16", 0x7a97832d0a2f1398),
    ("pxpotrf/ring/n64b16p16", 0xd56fe34dbd73d4c8),
    ("hier/m768/n64b16p16", 0xde156470e4ccc8c1),
    ("hier/m2048/n64b16p16", 0xf85a791190a212ff),
    ("spmd/clean/n64b16p16", 0x96aa1e183eebc9db),
    ("spmd/lossy/n64b16p16", 0xcc1fdc8e4e703a7b),
    ("abft/clean/n64b16p16", 0xa49c098765fb0809),
    ("abft/flips/n64b16p16", 0x3f2526a606296a38),
    ("abft/kill/n64b16p16", 0xcd457d50737448d9),
    ("pxpotrf/tree/n12b4p1", 0xd48817dd312181ef),
    ("pxpotrf/ring/n12b4p1", 0xd48817dd312181ef),
    ("hier/m48/n12b4p1", 0x5e51070322ec1364),
    ("hier/m128/n12b4p1", 0xbc2d5338d34d89ff),
    ("spmd/clean/n12b4p1", 0xbe66492cae904b06),
    ("spmd/lossy/n12b4p1", 0xbe66492cae904b06),
    ("abft/clean/n12b4p1", 0xf25c22aa2ba845c3),
    ("abft/flips/n12b4p1", 0xb66417f509d95859),
    ("abft/single/n24b6p4", 0xc8285aae361e8c15),
    ("abft/multi/n24b6p4", 0xa68c687f798d8674),
    ("abft/kill0/n24b6p4", 0x062856a1c3e9cda2),
    ("abft/kill1/n24b6p4", 0x13b4a07eac63c08c),
    ("abft/kill2/n24b6p4", 0x77782882cde3202f),
    ("abft/kill3/n24b6p4", 0xb98a192a1f98bbb5),
    ("abft/kill4/n24b6p4", 0x13b4a07eac63c08c),
    ("not_spd", 0x809d20f5ae011e17),
];

#[test]
fn every_algorithm_9_driver_reproduces_its_pinned_report() {
    let mut wrong = Vec::new();
    let got = cases();
    for (name, printed) in &got {
        let digest = fnv1a(printed.as_bytes());
        let want = PINS.iter().find(|(n, _)| n == name).map(|&(_, d)| d);
        if want != Some(digest) {
            wrong.push(format!("    (\"{name}\", 0x{digest:016x}), // {printed}"));
        }
    }
    assert!(wrong.is_empty(), "reports moved:\n{}", wrong.join("\n"));
    assert_eq!(got.len(), PINS.len(), "case list and pin table differ in length");
}
