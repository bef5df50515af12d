//! Checksum-verified tile storage: every tile read through the
//! [`IoBackend`] is checked against a Huang–Abraham checksum kept
//! beside the store, so silent at-rest corruption (the fault plan's
//! [`BitFlip`]s) is detected the moment the data re-enters fast memory.
//!
//! A single corrupted element is located and XOR-corrected bit-exactly
//! before the caller ever sees the tile.  A multi-element corruption is
//! unhealable from one checksum pair and surfaces as
//! [`std::io::ErrorKind::InvalidData`]; the checkpointed driver
//! ([`crate::ooc_potrf_checkpointed`]) answers it by
//! restoring the last panel checkpoint and retrying the panel — the
//! recompute-from-checkpoint fallback.  Because a flip strikes exactly
//! once (the plan is deterministic and applied flips are remembered
//! across restores), the retried panel runs clean and the final factor
//! is **bit-identical** to a fault-free run's.
//!
//! Corruption timing follows the paper's out-of-core framing: at the
//! start of panel `k` ([`IoBackend::begin_panel`]) the plan's step-`k`
//! flips are scheduled against the *at-rest* copy of their target tile,
//! and land on the next read of that tile from slow memory — a cached
//! in-RAM copy is not affected by disk rot, exactly like DRAM vs. a
//! flaky SSD.  A final [`IoBackend::scrub`] pass re-reads every tile so
//! a flip on a tile the algorithm had already finished with still
//! cannot escape into the output.
//!
//! All verification work is tallied in [`AbftStats`], separate from the
//! byte/seek counts of the underlying storage ([`crate::IoStats`]) —
//! scrub and heal traffic is real I/O and is *also* visible there, but
//! the checksum words/flops that the clean algorithm never moves are
//! only here.

use crate::backend::IoBackend;
use crate::filemat::IoStats;
use cholcomm_faults::{BitFlip, FaultPlan, FaultStats};
use cholcomm_matrix::abft::{verify_and_heal, AbftStats, TileChecksum, TileHealth};
use cholcomm_matrix::Matrix;
use std::collections::{HashMap, HashSet};
use std::path::Path;

type FlipKey = (usize, (usize, usize), (usize, usize), u64);

fn flip_key(f: &BitFlip) -> FlipKey {
    (f.step, f.tile, f.elem, f.mask)
}

/// A tile store whose every read is checksum-verified (and healed where
/// the encoding allows), wrapping any [`IoBackend`].
#[derive(Debug)]
pub struct AbftBackend<B: IoBackend> {
    inner: B,
    plan: FaultPlan,
    cks: HashMap<(usize, usize), TileChecksum>,
    /// Flips scheduled but not yet landed, per target tile.
    pending: HashMap<(usize, usize), Vec<BitFlip>>,
    /// Every flip ever queued — a flip strikes exactly once, even
    /// across checkpoint restores.
    queued: HashSet<FlipKey>,
    stats: AbftStats,
}

impl<B: IoBackend> AbftBackend<B> {
    /// Wrap `inner`, drawing silent-corruption events from `plan`.
    pub fn new(inner: B, plan: FaultPlan) -> Self {
        AbftBackend {
            inner,
            plan,
            cks: HashMap::new(),
            pending: HashMap::new(),
            queued: HashSet::new(),
            stats: AbftStats::new(),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// The wrapped backend, mutably.
    pub fn inner_mut(&mut self) -> &mut B {
        &mut self.inner
    }

    /// Unwrap.
    pub fn into_inner(self) -> B {
        self.inner
    }

    /// ABFT work tallies accumulated so far.
    pub fn abft_stats(&self) -> AbftStats {
        self.stats
    }

    fn encode_if_missing(&mut self, key: (usize, usize), tile: &Matrix<f64>) {
        if !self.cks.contains_key(&key) {
            let ck = TileChecksum::of(tile);
            self.stats.encodes += 1;
            self.stats.checksum_words += ck.words();
            self.stats.checksum_flops += (tile.rows() * tile.cols()) as u64;
            self.cks.insert(key, ck);
        }
    }

    /// Read tile `key` from slow memory, land any scheduled corruption,
    /// and verify/heal before handing the tile to the caller.  *Every*
    /// read with a pre-existing checksum is verified, not just struck
    /// ones — the backend cannot know which reads are corrupted; that
    /// is the whole point.
    fn read_verified(&mut self, bi: usize, bj: usize) -> std::io::Result<Matrix<f64>> {
        let mut t = self.inner.read_tile(bi, bj)?;
        // Encode from the (clean, at-rest) data *before* corruption
        // lands — the checksum deliberately goes stale under a flip.
        let fresh = !self.cks.contains_key(&(bi, bj));
        self.encode_if_missing((bi, bj), &t);
        let flips = self.pending.remove(&(bi, bj)).unwrap_or_default();
        for f in &flips {
            let (i, j) = f.elem;
            t[(i, j)] = f64::from_bits(t[(i, j)].to_bits() ^ f.mask);
        }
        if fresh && flips.is_empty() {
            // The checksum was just computed from this very data;
            // verifying it against itself proves nothing.
            return Ok(t);
        }
        self.stats.verifications += 1;
        self.stats.checksum_flops += (t.rows() * t.cols()) as u64;
        let ck = self.cks.get(&(bi, bj)).expect("encoded above");
        match verify_and_heal(&mut t, ck) {
            TileHealth::Clean => Ok(t),
            TileHealth::Corrected { .. } => {
                self.stats.corrections += 1;
                Ok(t)
            }
            TileHealth::Unrecoverable { .. } => {
                self.stats.unrecoverable += 1;
                Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("abft: unhealable multi-element corruption in tile ({bi}, {bj})"),
                ))
            }
        }
    }
}

impl<B: IoBackend> IoBackend for AbftBackend<B> {
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn b(&self) -> usize {
        self.inner.b()
    }
    fn nb(&self) -> usize {
        self.inner.nb()
    }
    fn read_tile(&mut self, bi: usize, bj: usize) -> std::io::Result<Matrix<f64>> {
        self.read_verified(bi, bj)
    }
    fn write_tile(&mut self, bi: usize, bj: usize, tile: &Matrix<f64>) -> std::io::Result<()> {
        let ck = TileChecksum::of(tile);
        self.stats.checksum_updates += 1;
        self.stats.checksum_words += ck.words();
        self.stats.checksum_flops += (tile.rows() * tile.cols()) as u64;
        self.cks.insert((bi, bj), ck);
        self.inner.write_tile(bi, bj, tile)
    }
    fn stats(&self) -> IoStats {
        self.inner.stats()
    }
    fn path(&self) -> Option<&Path> {
        self.inner.path()
    }
    fn crash_after_panel(&self, k: usize) -> bool {
        self.inner.crash_after_panel(k)
    }
    fn storage_restored(&mut self) {
        // The file under us was rewritten (checkpoint restore): every
        // checksum is stale, re-encode lazily from the restored data.
        // `queued` survives — an already-landed flip must not strike the
        // restored copy a second time, or retries would loop forever.
        self.cks.clear();
        self.stats.restores += 1;
        self.inner.storage_restored();
    }
    fn fault_stats(&self) -> FaultStats {
        self.inner.fault_stats()
    }
    fn barrier(&mut self) -> std::io::Result<()> {
        // Checksums live in RAM; only the tile data needs flushing.
        self.inner.barrier()
    }
    fn begin_panel(&mut self, k: usize) {
        let (nb, b) = (self.nb(), self.b());
        for bj in 0..nb {
            for bi in bj..nb {
                let mut flips = self.plan.bit_flips_at(k, (bi, bj));
                // Tiles are stored zero-padded to b x b, so the whole
                // padded extent is a valid strike zone.
                if let Some(f) = self.plan.random_bit_flip(k, (bi, bj), b, b) {
                    flips.push(f);
                }
                for f in flips {
                    if f.elem.0 < b && f.elem.1 < b && self.queued.insert(flip_key(&f)) {
                        self.pending.entry((bi, bj)).or_default().push(f);
                    }
                }
            }
        }
        self.inner.begin_panel(k);
    }
    fn scrub(&mut self) -> std::io::Result<()> {
        let nb = self.nb();
        for bj in 0..nb {
            for bi in bj..nb {
                self.read_verified(bi, bj)?;
            }
        }
        self.inner.scrub()
    }
    fn latency_model(&self) -> crate::backend::LatencyModel {
        self.inner.latency_model()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::filemat::{scratch_path, FileMatrix};
    use crate::potrf::{ooc_potrf_with, OocError};
    use cholcomm_matrix::{norms, spd, KernelImpl};

    fn reference_factor(a: &Matrix<f64>, b: usize, cap: usize, tag: &str) -> Matrix<f64> {
        let mut fm = FileMatrix::create(&scratch_path(tag), a, b).unwrap();
        ooc_potrf_with(&mut fm, cap, KernelImpl::Reference).unwrap();
        fm.to_matrix().unwrap()
    }

    #[test]
    fn clean_run_through_abft_backend_is_bit_identical() {
        let mut rng = spd::test_rng(230);
        let a = spd::random_spd(32, &mut rng);
        let want = reference_factor(&a, 8, 4, "abft-clean-ref");
        let fm = FileMatrix::create(&scratch_path("abft-clean"), &a, 8).unwrap();
        let mut ab = AbftBackend::new(fm, FaultPlan::none());
        ooc_potrf_with(&mut ab, 4, KernelImpl::Reference).unwrap();
        let got = ab.inner_mut().to_matrix().unwrap();
        assert_eq!(norms::max_abs_diff(&got, &want), 0.0);
        let s = ab.abft_stats();
        assert!(s.verifications > 0, "every re-read is verified");
        assert_eq!(s.corrections, 0, "nothing to heal on a clean disk");
        assert!(s.checksum_updates > 0, "every write re-encoded");
    }

    #[test]
    fn single_bit_flips_on_disk_are_healed_on_read() {
        let mut rng = spd::test_rng(231);
        let a = spd::random_spd(32, &mut rng);
        let want = reference_factor(&a, 8, 4, "abft-flip-ref");
        let plan = FaultPlan::builder(30)
            .inject_bit_flip(1, (2, 1), (3, 4), 1 << 52)
            .inject_bit_flip(2, (3, 2), (0, 0), 1 << 63)
            .build();
        let fm = FileMatrix::create(&scratch_path("abft-flip"), &a, 8).unwrap();
        let mut ab = AbftBackend::new(fm, plan);
        ooc_potrf_with(&mut ab, 3, KernelImpl::Reference).unwrap();
        let got = ab.inner_mut().to_matrix().unwrap();
        assert_eq!(
            norms::max_abs_diff(&got, &want),
            0.0,
            "healed factor must be bit-identical"
        );
        assert_eq!(ab.abft_stats().corrections, 2);
        assert_eq!(ab.abft_stats().unrecoverable, 0);
    }

    #[test]
    fn multi_element_corruption_surfaces_as_invalid_data() {
        let mut rng = spd::test_rng(232);
        let a = spd::random_spd(24, &mut rng);
        let plan = FaultPlan::builder(31)
            .inject_bit_flip(1, (2, 1), (0, 0), 1 << 40)
            .inject_bit_flip(1, (2, 1), (5, 5), 1 << 41)
            .build();
        let fm = FileMatrix::create(&scratch_path("abft-multi"), &a, 8).unwrap();
        let mut ab = AbftBackend::new(fm, plan);
        match ooc_potrf_with(&mut ab, 3, KernelImpl::Reference) {
            Err(OocError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
            }
            other => panic!("expected unrecoverable-corruption error, got {other:?}"),
        }
        assert_eq!(ab.abft_stats().unrecoverable, 1);
    }

    #[test]
    fn seeded_upsets_are_deterministic_and_absorbed() {
        let mut rng = spd::test_rng(233);
        let a = spd::random_spd(32, &mut rng);
        let want = reference_factor(&a, 8, 4, "abft-rate-ref");
        let run = |tag: &str| {
            let plan = FaultPlan::builder(32).bit_flip_rate(0.2).build();
            let fm = FileMatrix::create(&scratch_path(tag), &a, 8).unwrap();
            let mut ab = AbftBackend::new(fm, plan);
            ooc_potrf_with(&mut ab, 3, KernelImpl::Reference).unwrap();
            (ab.inner_mut().to_matrix().unwrap(), ab.abft_stats())
        };
        let (m1, s1) = run("abft-rate-1");
        let (m2, s2) = run("abft-rate-2");
        assert!(s1.corrections > 0, "a 20% rate must strike somewhere");
        assert_eq!(s1, s2, "fault schedule is a pure function of the seed");
        assert_eq!(norms::max_abs_diff(&m1, &want), 0.0);
        assert_eq!(m1, m2);
    }
}
