//! ABFT-protected sequential Cholesky: the right-looking blocked
//! schedule of [`crate::lapack::potrf_blocked_right_with`], running on
//! the lower tiles of the matrix ([`MemTiles`]) beside a checksum
//! [`Guard`], so silent data corruptions are detected, located, and
//! corrected mid-factorization.
//!
//! At the start of every panel step (the *epoch*) the lower tiles are
//! snapshotted, the fault plan's [`BitFlip`](cholcomm_faults::BitFlip)s
//! land (checksums deliberately left stale — that is what makes the
//! corruption *silent*), and every struck tile is verified before any
//! kernel consumes it: a single corrupted element is XOR-corrected in
//! place bit-exactly, and a multi-element corruption falls back to the
//! epoch snapshot.  A final scrub verifies every output tile, so the
//! returned factor is **bit-identical** to a fault-free run's under any
//! plan the encoding can absorb.
//!
//! All resilience work — checksum encodes/updates/verifications,
//! corrections, snapshot traffic — is tallied in [`AbftStats`], strictly
//! separate from the schedule's own word traffic (`clean_words`), so the
//! overhead factor over the paper's clean counts is measurable.

use cholcomm_faults::FaultPlan;
use cholcomm_matrix::abft::{land, AbftStats, Guard, TileHealth};
use cholcomm_matrix::schedule::{self, tile_idx, MemTiles, TileStore};
use cholcomm_matrix::{KernelImpl, Matrix, MatrixError};

/// Outcome of an ABFT-protected sequential factorization.
#[derive(Debug)]
pub struct AbftPotrfReport {
    /// The factor, upper triangle zeroed (bit-identical to a fault-free
    /// run's).
    pub factor: Matrix<f64>,
    /// ABFT work tallies, separate from `clean_words`.
    pub abft: AbftStats,
    /// Words the clean schedule itself moves (tile loads/stores, as
    /// [`crate::lapack::potrf_blocked_right_with`] counts them) — the
    /// denominator for [`AbftStats::word_overhead`].
    pub clean_words: u64,
}

/// Factor `a` (lower Cholesky) with tile size `b` under `plan`,
/// detecting and healing the plan's silent bit flips.
///
/// Returns [`MatrixError::NotSpd`] with the failing *global* pivot for
/// indefinite inputs and [`MatrixError::NotSquare`] for non-square ones.
pub fn abft_potrf(
    a: &Matrix<f64>,
    b: usize,
    plan: &FaultPlan,
) -> Result<AbftPotrfReport, MatrixError> {
    let mut store = AbftTiles {
        mem: MemTiles::from_matrix(a, b)?,
        guard: Guard::new(),
        plan,
        clean_words: 0,
    };
    let grid = store.mem.grid;
    store.each_tile(|guard, key, tile| guard.encode(key, tile));
    schedule::factor(&mut store, grid, 0..grid.nb(), KernelImpl::Reference)?;

    // --- Final scrub: every output tile re-verified (and a straggler
    // single-element corruption corrected) before the factor leaves the
    // protected encoding.  An unrecoverable tile here is impossible by
    // construction: every flip lands at an epoch start and is healed in
    // that same epoch, and every kernel write is re-encoded.
    store.each_tile(|guard, key, tile| {
        let health = guard.verify(key, tile);
        assert!(
            !matches!(health, TileHealth::Unrecoverable { .. }),
            "scrub found corruption that escaped its injection epoch"
        );
    });

    let mut factor = Matrix::zeros(a.rows(), a.rows());
    store.mem.write_back(&mut factor);
    Ok(AbftPotrfReport {
        factor,
        abft: store.guard.stats(),
        clean_words: store.clean_words,
    })
}

/// The lower tiles and their checksum guard as a tile store.  Gets and
/// puts are the clean schedule's word traffic; the resilience work
/// happens at each panel's start, before any kernel reads the data.
struct AbftTiles<'a> {
    mem: MemTiles<f64>,
    guard: Guard,
    plan: &'a FaultPlan,
    clean_words: u64,
}

impl AbftTiles<'_> {
    /// Visit every lower tile with the guard.
    fn each_tile(&mut self, mut f: impl FnMut(&mut Guard, (usize, usize), &mut Matrix<f64>)) {
        for bi in 0..self.mem.grid.nb() {
            for bj in 0..=bi {
                let tile = &mut self.mem.tiles[tile_idx(bi, bj)];
                f(&mut self.guard, (bi, bj), tile);
            }
        }
    }
}

impl TileStore for AbftTiles<'_> {
    type Tile = Matrix<f64>;
    type Error = MatrixError;

    fn begin_panel(&mut self, k: usize) {
        // --- Epoch snapshot: the recompute-from-checkpoint fallback for
        // corruptions too wide for the checksums, charged as checkpoint
        // traffic (one word per live lower-triangle element).
        let snapshot = self.mem.tiles.clone();
        let words = snapshot.iter().map(|t| (t.rows() * t.cols()) as u64).sum();
        self.guard.checkpoint(words);

        // --- Silent corruption lands now, checksums left stale, and is
        // detected / located / corrected before any kernel reads it.
        let plan = self.plan;
        self.each_tile(|guard, key, tile| {
            let flips = plan.tile_flips(k, key, tile.rows(), tile.cols());
            if land(tile, &flips)
                && matches!(guard.verify(key, tile), TileHealth::Unrecoverable { .. })
            {
                *tile = snapshot[tile_idx(key.0, key.1)].clone();
                guard.restored((tile.rows() * tile.cols()) as u64);
            }
        });
    }

    fn get(&mut self, i: usize, j: usize) -> Result<Matrix<f64>, MatrixError> {
        let tile = self.mem.get(i, j)?;
        self.clean_words += (tile.rows() * tile.cols()) as u64;
        Ok(tile)
    }

    fn put(&mut self, i: usize, j: usize, tile: Matrix<f64>) -> Result<(), MatrixError> {
        self.clean_words += (tile.rows() * tile.cols()) as u64;
        self.guard.refresh((i, j), &tile);
        self.mem.put(i, j, tile)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use cholcomm_cachesim::NullTracer;
    use cholcomm_layout::{ColMajor, Laid};
    use cholcomm_matrix::{norms, spd};

    fn reference(a: &Matrix<f64>, b: usize) -> Matrix<f64> {
        let mut laid = Laid::from_matrix(a, ColMajor::square(a.rows()));
        crate::lapack::potrf_blocked_right_with(&mut laid, &mut NullTracer, b, None, KernelImpl::Reference)
            .unwrap();
        let mut m = laid.to_matrix();
        for j in 0..a.rows() {
            for i in 0..j {
                m[(i, j)] = 0.0;
            }
        }
        m
    }

    #[test]
    fn clean_abft_matches_the_plain_blocked_schedule_bit_for_bit() {
        let mut rng = spd::test_rng(310);
        for (n, b) in [(16usize, 4usize), (20, 6), (24, 8), (12, 12)] {
            let a = spd::random_spd(n, &mut rng);
            let rep = abft_potrf(&a, b, &FaultPlan::none()).unwrap();
            assert_eq!(
                norms::max_abs_diff(&rep.factor, &reference(&a, b)),
                0.0,
                "n={n} b={b}: checksums must not perturb the dataflow"
            );
            assert_eq!(rep.abft.corrections, 0);
            assert!(rep.abft.encodes > 0 && rep.abft.checksum_updates > 0);
        }
    }

    #[test]
    fn single_bit_flips_anywhere_are_healed_bit_exactly() {
        let mut rng = spd::test_rng(311);
        let a = spd::random_spd(24, &mut rng);
        let clean = abft_potrf(&a, 6, &FaultPlan::none()).unwrap();
        // Diagonal tile pre-factor, panel tile mid-run, finished tile,
        // sign bit, mantissa LSB, NaN-producing exponent bits.
        let plan = FaultPlan::builder(20)
            .inject_bit_flip(0, (0, 0), (1, 1), 1 << 62)
            .inject_bit_flip(1, (2, 1), (3, 0), 1 << 63)
            .inject_bit_flip(2, (1, 0), (0, 2), 0b1)
            .inject_bit_flip(3, (3, 3), (2, 2), 0x7FF0_0000_0000_0001)
            .build();
        let hit = abft_potrf(&a, 6, &plan).unwrap();
        assert_eq!(
            norms::max_abs_diff(&clean.factor, &hit.factor),
            0.0,
            "healed factor must be bit-identical"
        );
        assert_eq!(hit.abft.corrections, 4);
        assert_eq!(hit.abft.unrecoverable, 0);
    }

    #[test]
    fn multi_element_corruption_restores_from_the_epoch_snapshot() {
        let mut rng = spd::test_rng(312);
        let a = spd::random_spd(24, &mut rng);
        let clean = abft_potrf(&a, 6, &FaultPlan::none()).unwrap();
        let plan = FaultPlan::builder(21)
            .inject_bit_flip(1, (2, 2), (0, 0), 1 << 30)
            .inject_bit_flip(1, (2, 2), (4, 5), 1 << 31)
            .build();
        let hit = abft_potrf(&a, 6, &plan).unwrap();
        assert_eq!(norms::max_abs_diff(&clean.factor, &hit.factor), 0.0);
        assert_eq!(hit.abft.unrecoverable, 1);
        assert_eq!(hit.abft.restores, 1);
    }

    #[test]
    fn seeded_random_upsets_are_absorbed_and_deterministic() {
        let mut rng = spd::test_rng(313);
        let a = spd::random_spd(30, &mut rng);
        let clean = abft_potrf(&a, 5, &FaultPlan::none()).unwrap();
        let mk = || {
            let plan = FaultPlan::builder(22).bit_flip_rate(0.3).build();
            abft_potrf(&a, 5, &plan).unwrap()
        };
        let (r1, r2) = (mk(), mk());
        assert!(r1.abft.corrections > 0, "a 30% rate must strike somewhere");
        assert_eq!(norms::max_abs_diff(&clean.factor, &r1.factor), 0.0);
        assert_eq!(r1.factor, r2.factor);
        assert_eq!(r1.abft, r2.abft, "fault schedule is a pure function of the seed");
    }

    #[test]
    fn overhead_is_reported_separately_from_clean_words() {
        let mut rng = spd::test_rng(314);
        let a = spd::random_spd(24, &mut rng);
        let clean = abft_potrf(&a, 6, &FaultPlan::none()).unwrap();
        let plan = FaultPlan::builder(23).bit_flip_rate(0.2).build();
        let hit = abft_potrf(&a, 6, &plan).unwrap();
        // The algorithmic traffic is identical with and without faults;
        // only the ABFT side grows (verifications, restores).
        assert_eq!(clean.clean_words, hit.clean_words);
        assert!(hit.abft.checksum_words > 0);
        assert!(hit.abft.word_overhead(hit.clean_words) > 1.0);
        assert!(hit.abft.verifications >= clean.abft.verifications);
    }

    #[test]
    fn indefinite_inputs_report_the_global_pivot() {
        let mut m = Matrix::<f64>::identity(18);
        m[(13, 13)] = -2.0;
        let err = abft_potrf(&m, 6, &FaultPlan::none()).unwrap_err();
        assert!(matches!(err, MatrixError::NotSpd { pivot: 13, value } if value == -2.0));
    }

    #[test]
    fn residual_stays_small_under_heavy_upset_rates() {
        let mut rng = spd::test_rng(315);
        let a = spd::random_spd(32, &mut rng);
        let plan = FaultPlan::builder(24).bit_flip_rate(0.5).build();
        let rep = abft_potrf(&a, 8, &plan).unwrap();
        let r = norms::cholesky_residual(&a, &rep.factor);
        assert!(r < norms::residual_tolerance(32), "residual {r}");
    }
}
