//! Algorithm-based fault tolerance (ABFT) for tiled Cholesky, à la
//! Huang–Abraham: every tile carries a checksum row and a checksum
//! column, and a verification pass can *detect*, *locate*, and
//! *correct* a single corrupted element — or report that the tile needs
//! to be recomputed from a checkpoint when more than one element went
//! bad.
//!
//! # Why GF(2) checksums
//!
//! The classic Huang–Abraham encoding sums real values, which detects
//! and locates an error but cannot restore the original *bits*: the
//! correction `x - (colsum' - colsum)` re-rounds.  This workspace's
//! fault-tolerance contract is **bit-identical recovery** (the same
//! contract the reliable transport and checkpoint/restart layers honour),
//! so the checksum row/column here is taken over GF(2): each entry is
//! the XOR of the `f64` bit patterns along its column (respectively
//! row).  A single corrupted element `(i, j)` then shows up as exactly
//! one mismatched column parity `j` and one mismatched row parity `i`,
//! both equal to the *flip mask* — XORing the mask back into the element
//! restores the original word exactly.  The communication/storage cost
//! is identical to the real-valued encoding: one extra row plus one
//! extra column of words per tile, `r + c` words for an `r x c` tile.
//!
//! Detection is sound for any corruption of a single element (any set of
//! flipped bits within one word).  Corruption of several elements is
//! detected (some parity mismatches) but not correctable from one
//! checksum pair; [`Guard::verify`] reports
//! [`TileHealth::Unrecoverable`] and the caller falls back to its
//! checkpoint.  The one blind spot, as with any linear code, is a
//! *coordinated* multi-element corruption whose masks cancel in both
//! projections — vanishingly unlikely for independent soft errors.
//!
//! # One protocol, several recovery policies
//!
//! A flip *lands* ([`land`]) by XORing its mask into an element without
//! touching the checksum; a tile something landed in is verified and
//! healed.  [`Guard`] holds the checksums of a set of tiles and charges
//! every encode, refresh, verification, correction and restore to its
//! [`AbftStats`], so the tallies mean the same thing on every substrate.
//! What to do with an unrecoverable tile is the caller's policy: the
//! sequential and SPMD drivers restore it from their epoch snapshot, the
//! out-of-core backend fails the read so its driver rolls back to the
//! last checkpoint, and the service's factor cache evicts the entry
//! ([`strike`], which verifies nothing when nothing landed).

use crate::dense::Matrix;
use std::collections::HashMap;

/// GF(2) checksum row and column of one tile: `col[j]` is the XOR of the
/// bit patterns of column `j`, `row[i]` the XOR along row `i`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileChecksum {
    col: Vec<u64>,
    row: Vec<u64>,
}

impl TileChecksum {
    /// Encode `tile`: one contiguous sweep per column, folding it into its
    /// own parity and into the row parities.  XOR is exact and
    /// order-free, so the sweep order cannot change a parity.
    pub fn of(tile: &Matrix<f64>) -> TileChecksum {
        let mut row = vec![0u64; tile.rows()];
        let col = (0..tile.cols())
            .map(|j| {
                tile.col(j).iter().zip(&mut row).fold(0, |parity, (x, r)| {
                    let bits = x.to_bits();
                    *r ^= bits;
                    parity ^ bits
                })
            })
            .collect();
        TileChecksum { col, row }
    }

    /// Words of checksum state this encoding adds (`rows + cols`), i.e.
    /// the size of the Huang–Abraham checksum row plus checksum column.
    pub fn words(&self) -> u64 {
        (self.col.len() + self.row.len()) as u64
    }
}

/// Verdict of one tile verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileHealth {
    /// Every parity matched.
    Clean,
    /// Exactly one element was corrupted; it has been located and
    /// corrected in place, restoring the original bits.
    Corrected {
        /// Row of the corrupted element within the tile.
        row: usize,
        /// Column of the corrupted element within the tile.
        col: usize,
    },
    /// More than one element is corrupted (or the corruption pattern is
    /// inconsistent); the tile must be recomputed from a checkpoint.
    Unrecoverable {
        /// Number of row parities that mismatched.
        bad_rows: usize,
        /// Number of column parities that mismatched.
        bad_cols: usize,
    },
}

/// Verify `tile` against `expected` and correct a single-element
/// corruption in place.
///
/// Returns [`TileHealth::Corrected`] with the element's location when
/// exactly one row parity and one column parity mismatch *and* their
/// mismatch masks agree (the signature of a single corrupted word);
/// the element is repaired to its original bit pattern.  Any other
/// nonempty mismatch pattern is [`TileHealth::Unrecoverable`].
fn verify_and_heal(tile: &mut Matrix<f64>, expected: &TileChecksum) -> TileHealth {
    let current = TileChecksum::of(tile);
    let bad_cols: Vec<usize> = (0..current.col.len())
        .filter(|&j| current.col[j] != expected.col[j])
        .collect();
    let bad_rows: Vec<usize> = (0..current.row.len())
        .filter(|&i| current.row[i] != expected.row[i])
        .collect();
    match (bad_rows.as_slice(), bad_cols.as_slice()) {
        ([], []) => TileHealth::Clean,
        (&[i], &[j]) => {
            let col_mask = current.col[j] ^ expected.col[j];
            let row_mask = current.row[i] ^ expected.row[i];
            if col_mask != row_mask {
                return TileHealth::Unrecoverable {
                    bad_rows: 1,
                    bad_cols: 1,
                };
            }
            tile[(i, j)] = f64::from_bits(tile[(i, j)].to_bits() ^ col_mask);
            TileHealth::Corrected { row: i, col: j }
        }
        (r, c) => TileHealth::Unrecoverable {
            bad_rows: r.len(),
            bad_cols: c.len(),
        },
    }
}

/// Tallies of ABFT work, kept strictly apart from the algorithm's own
/// (clean) word/message/flop counts so the *cost of resilience* can be
/// reported against the paper's lower bounds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AbftStats {
    /// Tiles encoded from scratch.
    pub encodes: u64,
    /// Checksum recomputations after a tile mutation.
    pub checksum_updates: u64,
    /// Tile verifications performed.
    pub verifications: u64,
    /// Single-element corruptions located and corrected.
    pub corrections: u64,
    /// Multi-element corruptions that could not be corrected in place.
    pub unrecoverable: u64,
    /// Tiles restored from a checkpoint/snapshot (the fallback path).
    pub restores: u64,
    /// Words of checksum state produced (the extra "checksum row/column"
    /// traffic the clean algorithm never carries).
    pub checksum_words: u64,
    /// Words of checkpoint traffic attributable to ABFT recovery
    /// (snapshot writes and restores of tile payloads).
    pub checkpoint_words: u64,
    /// Word-operations spent computing or verifying checksums (the flop
    /// overhead of the encoding; one XOR per element per pass).
    pub checksum_flops: u64,
}

impl AbftStats {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulate `other` into `self`.
    pub fn merge(&mut self, other: &AbftStats) {
        self.encodes += other.encodes;
        self.checksum_updates += other.checksum_updates;
        self.verifications += other.verifications;
        self.corrections += other.corrections;
        self.unrecoverable += other.unrecoverable;
        self.restores += other.restores;
        self.checksum_words += other.checksum_words;
        self.checkpoint_words += other.checkpoint_words;
        self.checksum_flops += other.checksum_flops;
    }

    /// Word overhead factor of ABFT relative to `clean_words` of
    /// algorithmic traffic: `1 + (checksum + checkpoint words) / clean`.
    pub fn word_overhead(&self, clean_words: u64) -> f64 {
        if clean_words == 0 {
            return 1.0;
        }
        1.0 + (self.checksum_words + self.checkpoint_words) as f64 / clean_words as f64
    }
}

impl std::fmt::Display for AbftStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "abft: {} encodes, {} updates, {} verifications, {} corrected, {} unrecoverable, \
             {} restores; {} checksum words, {} checkpoint words, {} checksum flops",
            self.encodes,
            self.checksum_updates,
            self.verifications,
            self.corrections,
            self.unrecoverable,
            self.restores,
            self.checksum_words,
            self.checkpoint_words,
            self.checksum_flops
        )
    }
}

/// XOR each in-bounds, nonzero `(elem, mask)` of `flips` into `tile`'s
/// bit patterns — a silent corruption: no checksum is touched.  True
/// when anything landed.
pub fn land(tile: &mut Matrix<f64>, flips: &[((usize, usize), u64)]) -> bool {
    let mut landed = false;
    for &((i, j), mask) in flips {
        if i < tile.rows() && j < tile.cols() && mask != 0 {
            tile[(i, j)] = f64::from_bits(tile[(i, j)].to_bits() ^ mask);
            landed = true;
        }
    }
    landed
}

/// [`land`] `flips` in `tile`, then verify it against `checksum` (and
/// heal a single-element corruption in place) only if something landed:
/// a tile nothing struck is [`TileHealth::Clean`] at no cost.
pub fn strike(
    tile: &mut Matrix<f64>,
    checksum: &TileChecksum,
    flips: &[((usize, usize), u64)],
) -> TileHealth {
    if land(tile, flips) {
        verify_and_heal(tile, checksum)
    } else {
        TileHealth::Clean
    }
}

/// The checksums of a set of tiles keyed `(bi, bj)`, and the
/// [`AbftStats`] of the work done on them: the one place the protocol
/// charges its tallies.  The tiles stay with the caller, which decides
/// what to do with an [`TileHealth::Unrecoverable`] one.
#[derive(Debug, Clone, Default)]
pub struct Guard {
    cks: HashMap<(usize, usize), TileChecksum>,
    stats: AbftStats,
}

impl Guard {
    /// No checksums, all-zero tallies.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encode tile `key` from scratch.
    pub fn encode(&mut self, key: (usize, usize), tile: &Matrix<f64>) {
        self.stats.encodes += 1;
        self.store(key, tile);
    }

    /// Re-encode tile `key` after a write to it.
    pub fn refresh(&mut self, key: (usize, usize), tile: &Matrix<f64>) {
        self.stats.checksum_updates += 1;
        self.store(key, tile);
    }

    fn store(&mut self, key: (usize, usize), tile: &Matrix<f64>) {
        let ck = TileChecksum::of(tile);
        self.stats.checksum_words += ck.words();
        self.stats.checksum_flops += (tile.rows() * tile.cols()) as u64;
        self.cks.insert(key, ck);
    }

    /// Verify tile `key` against its checksum, correcting a single
    /// corrupted element in place.  Panics if `key` was never encoded.
    pub fn verify(&mut self, key: (usize, usize), tile: &mut Matrix<f64>) -> TileHealth {
        self.stats.verifications += 1;
        self.stats.checksum_flops += (tile.rows() * tile.cols()) as u64;
        let health = verify_and_heal(tile, &self.cks[&key]);
        match health {
            TileHealth::Clean => {}
            TileHealth::Corrected { .. } => self.stats.corrections += 1,
            TileHealth::Unrecoverable { .. } => self.stats.unrecoverable += 1,
        }
        health
    }

    /// A tile was restored from a checkpoint, moving `words` of it.
    pub fn restored(&mut self, words: u64) {
        self.stats.restores += 1;
        self.checkpoint(words);
    }

    /// Charge `words` of checkpoint traffic (a snapshot written or read).
    pub fn checkpoint(&mut self, words: u64) {
        self.stats.checkpoint_words += words;
    }

    /// Whether tile `key` has a checksum.
    pub fn contains(&self, key: (usize, usize)) -> bool {
        self.cks.contains_key(&key)
    }

    /// Forget every checksum (the tiles under them were replaced
    /// wholesale); the tallies stay.
    pub fn clear(&mut self) {
        self.cks.clear();
    }

    /// Tallies so far.
    pub fn stats(&self) -> AbftStats {
        self.stats
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::spd;

    fn sample_tile(r: usize, c: usize) -> Matrix<f64> {
        Matrix::from_fn(r, c, |i, j| ((i * 7 + j * 3) as f64).sin() + 0.25)
    }

    /// `TileChecksum::of` as first written: element by element through
    /// the indexed path.  Kept as the oracle of the column sweep.
    fn checksum_oracle(tile: &Matrix<f64>) -> TileChecksum {
        let (r, c) = (tile.rows(), tile.cols());
        let mut col = vec![0u64; c];
        let mut row = vec![0u64; r];
        for j in 0..c {
            for i in 0..r {
                let bits = tile[(i, j)].to_bits();
                col[j] ^= bits;
                row[i] ^= bits;
            }
        }
        TileChecksum { col, row }
    }

    #[test]
    fn column_sweep_equals_the_elementwise_parity() {
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        for (r, c) in [(0, 0), (0, 3), (3, 0), (1, 1), (7, 5), (33, 33)] {
            let mut t = sample_tile(r, c);
            if r * c > 0 {
                t[(0, 0)] = -0.0;
                t[(r - 1, c - 1)] = nan;
                t[(r / 2, c / 3)] = -nan;
            }
            let ck = TileChecksum::of(&t);
            assert_eq!(ck, checksum_oracle(&t), "{r}x{c}");
            assert_eq!((ck.col.len(), ck.row.len()), (c, r), "{r}x{c}");
        }
    }

    #[test]
    fn clean_tile_verifies_clean() {
        let t = sample_tile(6, 6);
        let ck = TileChecksum::of(&t);
        let mut t2 = t.clone();
        assert_eq!(verify_and_heal(&mut t2, &ck), TileHealth::Clean);
        assert_eq!(t, t2);
        assert_eq!(ck.words(), 12);
    }

    #[test]
    fn single_flip_is_located_and_corrected_bit_exactly() {
        let t = sample_tile(5, 7);
        let ck = TileChecksum::of(&t);
        for &(i, j, mask) in &[
            (0usize, 0usize, 1u64),
            (4, 6, 1u64 << 63),
            (2, 3, 0x0008_0000_0010_0001),
            (3, 1, u64::MAX),
        ] {
            let mut bad = t.clone();
            bad[(i, j)] = f64::from_bits(bad[(i, j)].to_bits() ^ mask);
            let health = verify_and_heal(&mut bad, &ck);
            assert_eq!(health, TileHealth::Corrected { row: i, col: j });
            // Bit-identical restoration, even through NaN patterns.
            for jj in 0..t.cols() {
                for ii in 0..t.rows() {
                    assert_eq!(bad[(ii, jj)].to_bits(), t[(ii, jj)].to_bits());
                }
            }
        }
    }

    #[test]
    fn multi_element_corruption_is_flagged_not_mended() {
        let t = sample_tile(6, 6);
        let ck = TileChecksum::of(&t);
        // Two distinct elements, different rows and columns.
        let mut bad = t.clone();
        bad[(1, 2)] = f64::from_bits(bad[(1, 2)].to_bits() ^ 0b100);
        bad[(4, 5)] = f64::from_bits(bad[(4, 5)].to_bits() ^ 0b1000);
        assert!(matches!(
            verify_and_heal(&mut bad, &ck),
            TileHealth::Unrecoverable { bad_rows: 2, bad_cols: 2 }
        ));
        // Same row, two columns.
        let mut bad = t.clone();
        bad[(2, 0)] = f64::from_bits(bad[(2, 0)].to_bits() ^ 0b1);
        bad[(2, 3)] = f64::from_bits(bad[(2, 3)].to_bits() ^ 0b10);
        assert!(matches!(
            verify_and_heal(&mut bad, &ck),
            TileHealth::Unrecoverable { .. }
        ));
        // Same row and column masks but different elements of one
        // column: row parities disagree.
        let mut bad = t.clone();
        bad[(0, 4)] = f64::from_bits(bad[(0, 4)].to_bits() ^ 0b1);
        bad[(3, 4)] = f64::from_bits(bad[(3, 4)].to_bits() ^ 0b1);
        assert!(matches!(
            verify_and_heal(&mut bad, &ck),
            TileHealth::Unrecoverable { .. }
        ));
    }

    /// The lower tiles of `a` cut at `b`, keyed `(bi, bj)`, each encoded
    /// into `guard`.
    fn encoded(
        a: &Matrix<f64>,
        b: usize,
        guard: &mut Guard,
    ) -> HashMap<(usize, usize), Matrix<f64>> {
        let grid = crate::schedule::TileGrid::new(a.rows(), b);
        let mut tiles = HashMap::new();
        for bi in 0..grid.nb() {
            for bj in 0..grid.nb() {
                let t = grid.cut_tile(a, bi, bj, Vec::new());
                guard.encode((bi, bj), &t);
                tiles.insert((bi, bj), t);
            }
        }
        tiles
    }

    #[test]
    fn guard_roundtrip_and_heal() {
        let mut rng = spd::test_rng(33);
        let a = spd::random_spd(20, &mut rng); // ragged: 20 with b=6
        let mut guard = Guard::new();
        let mut tiles = encoded(&a, 6, &mut guard);
        assert_eq!(tiles.len(), 16);
        assert_eq!(tiles[&(3, 3)].rows(), 2);

        // Corrupt one element of a ragged edge tile; verify heals it.
        let clean = tiles[&(3, 1)].clone();
        let t = tiles.get_mut(&(3, 1)).unwrap();
        assert!(land(t, &[((1, 4), 1 << 40)]));
        assert!(matches!(
            guard.verify((3, 1), t),
            TileHealth::Corrected { row: 1, col: 4 }
        ));
        assert_eq!(crate::norms::max_abs_diff(t, &clean), 0.0);

        // Refresh a tile; stats track the checksum row/column words.
        guard.refresh((0, 0), &tiles[&(0, 0)]);
        let s = guard.stats();
        assert_eq!(s.encodes, 16);
        assert_eq!(s.checksum_updates, 1);
        assert_eq!(s.corrections, 1);
        assert_eq!(s.checksum_words, 2 * 20 * 4 + 12);
        assert_eq!(s.checksum_flops, 20 * 20 + 2 * 6 + 36);
    }

    #[test]
    fn restore_from_snapshot_is_the_multi_error_fallback() {
        let mut rng = spd::test_rng(34);
        let a = spd::random_spd(12, &mut rng);
        let mut guard = Guard::new();
        let mut tiles = encoded(&a, 4, &mut guard);
        let snapshot = tiles.clone();
        let t = tiles.get_mut(&(1, 1)).unwrap();
        assert!(land(t, &[((0, 0), 0b1), ((2, 3), 0b1)]));
        assert!(matches!(guard.verify((1, 1), t), TileHealth::Unrecoverable { .. }));
        *t = snapshot[&(1, 1)].clone();
        guard.restored(16);
        assert!(matches!(guard.verify((1, 1), t), TileHealth::Clean));
        assert_eq!(crate::norms::max_abs_diff(t, &snapshot[&(1, 1)]), 0.0);
        assert_eq!(guard.stats().restores, 1);
        assert_eq!(guard.stats().unrecoverable, 1);
        assert_eq!(guard.stats().checkpoint_words, 16);
    }

    #[test]
    fn strike_lands_only_in_bounds_nonzero_flips_and_verifies_only_then() {
        let t = sample_tile(4, 3);
        let ck = TileChecksum::of(&t);
        // Out of bounds or a zero mask: nothing lands, nothing to verify
        // (a stale checksum would otherwise report the tile corrupt).
        let stale = TileChecksum::of(&sample_tile(3, 4));
        let mut u = t.clone();
        let missed = [((4, 0), 1), ((0, 3), 1), ((1, 1), 0)];
        assert!(!land(&mut u, &missed));
        assert_eq!(strike(&mut u, &stale, &missed), TileHealth::Clean);
        assert_eq!(u, t);
        // One landed flip among misses is healed bit-exactly.
        let hit = [((9, 9), 1), ((2, 1), 1 << 33)];
        assert_eq!(strike(&mut u, &ck, &hit), TileHealth::Corrected { row: 2, col: 1 });
        assert_eq!(u, t);
    }

    #[test]
    fn stats_merge_and_overhead() {
        let mut s = AbftStats {
            checksum_words: 100,
            ..Default::default()
        };
        s.merge(&AbftStats {
            checkpoint_words: 100,
            corrections: 2,
            ..Default::default()
        });
        assert_eq!(s.word_overhead(1000), 1.2);
        assert_eq!(s.word_overhead(0), 1.0);
        assert_eq!(s.corrections, 2);
    }
}
