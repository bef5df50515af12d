//! Pins of the three ABFT drivers, captured before their strike →
//! verify → heal protocol and its tallies moved behind one guard in
//! `cholcomm_matrix::abft`.
//!
//! For every run the pins hold the factor's `lower_digest` and every
//! `AbftStats` field (for the out-of-core driver also its `IoStats` and
//! checkpoint report).  Under a `RankKill` the aborted round's traffic
//! races, so only the factor is pinned there.
//!
//! Two moves are stated rather than pinned: the sequential driver no
//! longer encodes the strict-upper tiles its walk never reads, so its
//! `encodes`, `checksum_words` and `checksum_flops` drop by exactly
//! their share ([`upper_share`]); and the SPMD driver no longer verifies
//! a block none of whose flips landed in it ([`OFF_BLOCK`]).

use cholcomm::distsim::CostModel;
use cholcomm::faults::{FaultPlan, FsStore};
use cholcomm::matrix::{lower_digest, spd, AbftStats, Matrix};
use cholcomm::ooc::{
    ooc_potrf_checkpointed, scratch_path, AbftBackend, Checkpoint, FileMatrix, IoBackend,
    PipelineConfig,
};
use cholcomm::par::abft_spmd_pxpotrf;
use cholcomm::seq::abft_potrf;

/// Every `AbftStats` field, in declaration order.
fn fields(s: &AbftStats) -> [u64; 9] {
    [
        s.encodes,
        s.checksum_updates,
        s.verifications,
        s.corrections,
        s.unrecoverable,
        s.restores,
        s.checksum_words,
        s.checkpoint_words,
        s.checksum_flops,
    ]
}

fn input(n: usize, seed: u64) -> Matrix<f64> {
    spd::random_spd(n, &mut spd::test_rng(seed))
}

/// The plans every sequential shape runs under: none, a 30% seeded
/// upset rate, and the four flips of
/// `single_bit_flips_anywhere_are_healed_bit_exactly`.
fn seq_plans() -> [FaultPlan; 3] {
    [
        FaultPlan::none(),
        FaultPlan::builder(22).bit_flip_rate(0.3).build(),
        FaultPlan::builder(20)
            .inject_bit_flip(0, (0, 0), (1, 1), 1 << 62)
            .inject_bit_flip(1, (2, 1), (3, 0), 1 << 63)
            .inject_bit_flip(2, (1, 0), (0, 2), 0b1)
            .inject_bit_flip(3, (3, 3), (2, 2), 0x7FF0_0000_0000_0001)
            .build(),
    ]
}

/// The strict-upper tiles of an `n x n` matrix cut at `b`, which the
/// sequential driver used to encode: `(tiles, checksum words, checksum
/// flops)`.
fn upper_share(n: usize, b: usize) -> [u64; 3] {
    let nb = n.div_ceil(b);
    let dim = |t: usize| (n - t * b).min(b) as u64;
    let mut share = [0; 3];
    for bj in 0..nb {
        for bi in 0..bj {
            share[0] += 1;
            share[1] += dim(bi) + dim(bj);
            share[2] += dim(bi) * dim(bj);
        }
    }
    share
}

/// As the driver produced them before the guard: `(n, b, plan index,
/// lower_digest, stats)`.
#[rustfmt::skip]
const SEQ: &[(usize, usize, usize, u64, [u64; 9])] = &[
    (24, 6, 0, 14439992808125180349, [16, 20, 10, 0, 0, 0, 432, 1440, 1656]),
    (24, 6, 1, 14439992808125180349, [16, 20, 24, 14, 0, 0, 432, 1440, 2160]),
    (24, 6, 2, 14439992808125180349, [16, 20, 14, 4, 0, 0, 432, 1440, 1800]),
    (30, 5, 0, 8711464082645648655, [36, 56, 21, 0, 0, 0, 920, 3150, 2825]),
    (30, 5, 1, 8711464082645648655, [36, 56, 66, 45, 0, 0, 920, 3150, 3950]),
    (30, 5, 2, 8711464082645648655, [36, 56, 25, 4, 0, 0, 920, 3150, 2925]),
    (96, 8, 0, 16402843241923443982, [144, 364, 78, 0, 0, 0, 8128, 59904, 37504]),
    (96, 8, 1, 16402843241923443982, [144, 364, 365, 287, 0, 0, 8128, 59904, 55872]),
    (96, 8, 2, 16402843241923443982, [144, 364, 82, 4, 0, 0, 8128, 59904, 37760]),
];

#[test]
fn seq_abft_pins() {
    let mut got = Vec::new();
    for (n, b) in [(24usize, 6usize), (30, 5), (96, 8)] {
        let a = input(n, 400 + n as u64);
        for (p, plan) in seq_plans().iter().enumerate() {
            let rep = abft_potrf(&a, b, plan).unwrap();
            got.push((n, b, p, lower_digest(&rep.factor), fields(&rep.abft)));
        }
    }
    let want: Vec<_> = SEQ
        .iter()
        .map(|&(n, b, p, digest, mut s)| {
            let [tiles, words, flops] = upper_share(n, b);
            s[0] -= tiles;
            s[6] -= words;
            s[8] -= flops;
            (n, b, p, digest, s)
        })
        .collect();
    assert_eq!(got, want);
}

fn spmd_plans() -> Vec<FaultPlan> {
    vec![
        FaultPlan::none(),
        FaultPlan::builder(7).bit_flip_rate(0.1).build(),
        FaultPlan::builder(7)
            .inject_bit_flip(1, (1, 1), (2, 3), 1 << 50)
            .inject_bit_flip(2, (3, 2), (0, 0), 1 << 63)
            .inject_bit_flip(3, (1, 0), (4, 1), 0b1)
            .build(),
        FaultPlan::builder(8)
            .inject_bit_flip(2, (2, 2), (0, 1), 1 << 40)
            .inject_bit_flip(2, (2, 2), (3, 4), 1 << 41)
            .build(),
        // On the ragged `(3, 3)` block of n = 20, b = 6 (2 x 2) the
        // first flip lands outside the block, the second inside.
        FaultPlan::builder(9)
            .inject_bit_flip(1, (3, 3), (4, 4), 1 << 20)
            .inject_bit_flip(2, (3, 3), (1, 0), 1 << 21)
            .build(),
    ]
}

/// Runs with an explicit flip outside its block, as `(n, b, plan index,
/// block elements)`: the SPMD driver used to verify that block anyway
/// (one more verification, its elements more checksum flops); now a
/// block nothing landed in is not verified.
const OFF_BLOCK: &[(usize, usize, usize, u64)] = &[(20, 6, 4, 2 * 2)];

/// As the driver produced them before the guard: `(n, b, plan index,
/// lower_digest, stats)`.
#[rustfmt::skip]
const SPMD: &[(usize, usize, usize, u64, [u64; 9])] = &[
    (24, 6, 0, 18012333973264816429, [10, 20, 0, 0, 0, 0, 360, 1440, 1080]),
    (24, 6, 1, 18012333973264816429, [10, 20, 7, 7, 0, 0, 360, 1440, 1332]),
    (24, 6, 2, 18012333973264816429, [10, 20, 3, 3, 0, 0, 360, 1440, 1188]),
    (24, 6, 3, 18012333973264816429, [10, 20, 1, 0, 1, 1, 360, 1476, 1116]),
    (24, 6, 4, 18012333973264816429, [10, 20, 2, 2, 0, 0, 360, 1440, 1152]),
    (20, 6, 0, 14278512931066712408, [10, 20, 0, 0, 0, 0, 284, 1024, 704]),
    (20, 6, 1, 14278512931066712408, [10, 20, 7, 7, 0, 0, 284, 1024, 908]),
    (20, 6, 2, 14278512931066712408, [10, 20, 3, 3, 0, 0, 284, 1024, 788]),
    (20, 6, 3, 14278512931066712408, [10, 20, 1, 0, 1, 1, 284, 1060, 740]),
    (20, 6, 4, 14278512931066712408, [10, 20, 2, 1, 0, 0, 284, 1024, 712]),
];

#[test]
fn spmd_abft_pins() {
    let mut got = Vec::new();
    for (n, b) in [(24usize, 6usize), (20, 6)] {
        let a = input(n, 500 + n as u64);
        for (p, plan) in spmd_plans().into_iter().enumerate() {
            let rep = abft_spmd_pxpotrf(&a, b, 4, CostModel::typical(), plan).unwrap();
            got.push((n, b, p, lower_digest(&rep.factor), fields(&rep.abft)));
        }
    }
    let want: Vec<_> = SPMD
        .iter()
        .map(|&(n, b, p, digest, mut s)| {
            for &(_, _, _, cells) in OFF_BLOCK.iter().filter(|o| (o.0, o.1, o.2) == (n, b, p)) {
                s[2] -= 1;
                s[8] -= cells;
            }
            (n, b, p, digest, s)
        })
        .collect();
    assert_eq!(got, want);
}

/// As the driver produced them before the guard: `lower_digest` of the
/// factor after each kill.
#[rustfmt::skip]
const SPMD_KILL: &[(usize, usize, u64)] = &[
    (0, 1, 18012333973264816429),
    (3, 2, 18012333973264816429),
];

#[test]
fn spmd_abft_rank_kill_pins_the_factor() {
    let a = input(24, 524);
    let mut got = Vec::new();
    for (victim, step) in [(0usize, 1usize), (3, 2)] {
        let plan = FaultPlan::builder(9)
            .bit_flip_rate(0.1)
            .inject_rank_kill(victim, step)
            .build();
        let rep = abft_spmd_pxpotrf(&a, 6, 4, CostModel::typical(), plan).unwrap();
        got.push((victim, step, lower_digest(&rep.factor)));
    }
    assert_eq!(got, SPMD_KILL);
}

fn ooc_plans() -> [FaultPlan; 4] {
    [
        FaultPlan::none(),
        FaultPlan::builder(32).bit_flip_rate(0.2).build(),
        FaultPlan::builder(30)
            .inject_bit_flip(1, (2, 1), (3, 4), 1 << 52)
            .inject_bit_flip(2, (3, 2), (0, 0), 1 << 63)
            .build(),
        FaultPlan::builder(31)
            .inject_bit_flip(1, (2, 1), (0, 0), 1 << 40)
            .inject_bit_flip(1, (2, 1), (5, 5), 1 << 41)
            .build(),
    ]
}

/// One out-of-core run's pins: `(io workers, plan index, lower_digest,
/// stats, [bytes read, bytes written, reads, writes, seeks, seek
/// distance], [checkpoints written, checkpoint bytes, restores])`.
type OocPin = (usize, usize, u64, [u64; 9], [u64; 6], [u64; 3]);

/// The checkpointed left-looking driver's values at zero and one I/O
/// worker.
#[rustfmt::skip]
const OOC: &[OocPin] = &[
    (0, 0, 12986803472497870572, [10, 10, 27, 0, 0, 0, 320, 0, 3008],
        [18944, 5120, 37, 10, 37, 84480], [5, 40960, 0]),
    (0, 1, 12986803472497870572, [10, 10, 31, 5, 0, 0, 320, 0, 3264],
        [18944, 5120, 37, 10, 37, 84480], [5, 40960, 0]),
    (0, 2, 12986803472497870572, [10, 10, 29, 2, 0, 0, 320, 0, 3136],
        [18944, 5120, 37, 10, 37, 84480], [5, 40960, 0]),
    (0, 3, 12986803472497870572, [16, 10, 25, 0, 1, 1, 416, 0, 3264],
        [20480, 5120, 40, 10, 40, 89088], [5, 49152, 1]),
    (1, 0, 12986803472497870572, [10, 10, 27, 0, 0, 0, 320, 0, 3008],
        [18944, 5120, 37, 10, 38, 86528], [5, 40960, 0]),
    (1, 1, 12986803472497870572, [10, 10, 30, 5, 0, 0, 320, 0, 3200],
        [18944, 5120, 37, 10, 38, 86528], [5, 40960, 0]),
    (1, 2, 12986803472497870572, [10, 10, 29, 2, 0, 0, 320, 0, 3136],
        [18944, 5120, 37, 10, 38, 86528], [5, 40960, 0]),
    (1, 3, 12986803472497870572, [16, 10, 25, 0, 1, 1, 416, 0, 3264],
        [20480, 5120, 40, 10, 41, 91136], [5, 49152, 1]),
];

#[test]
fn ooc_abft_pins() {
    let a = input(32, 632);
    let mut got = Vec::new();
    for workers in [0usize, 1] {
        for (p, plan) in ooc_plans().into_iter().enumerate() {
            let tag = format!("abft-pin-{workers}-{p}");
            let fm = FileMatrix::create(&scratch_path(&tag), &a, 8).unwrap();
            let mut ab = AbftBackend::new(fm, plan);
            let ckpt = Checkpoint::at(&scratch_path(&format!("{tag}-ckpt")));
            let cfg = PipelineConfig::new(3).with_io_workers(workers);
            let (rep, _) =
                ooc_potrf_checkpointed(&mut ab, &ckpt, &mut FsStore::new(), &cfg).unwrap();
            let io = ab.stats();
            let factor = ab.inner_mut().to_matrix().unwrap();
            got.push((
                workers,
                p,
                lower_digest(&factor),
                fields(&ab.abft_stats()),
                [
                    io.bytes_read,
                    io.bytes_written,
                    io.reads,
                    io.writes,
                    io.seeks,
                    io.seek_distance,
                ],
                [
                    rep.checkpoints_written as u64,
                    rep.checkpoint_bytes,
                    rep.restores as u64,
                ],
            ));
        }
    }
    assert_eq!(got, OOC);
}
