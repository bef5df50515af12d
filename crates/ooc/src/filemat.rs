//! A square matrix stored in a file, tile by tile (block-contiguous
//! layout), with honest I/O accounting.

use cholcomm_matrix::Matrix;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Bytes and seeks actually issued against the backing file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Bytes read from the file.
    pub bytes_read: u64,
    /// Bytes written to the file.
    pub bytes_written: u64,
    /// Read operations (each tile read is one contiguous transfer).
    pub reads: u64,
    /// Write operations.
    pub writes: u64,
    /// Seeks that actually moved the file cursor (sequential access is
    /// free, as on a disk).
    pub seeks: u64,
    /// Total distance the cursor jumped across all seeks, in bytes —
    /// how *far* the head travelled, not just how often.  A pipeline
    /// that sequentializes its reads shows up here even when the seek
    /// *count* barely moves.
    pub seek_distance: u64,
}

/// An `n x n` `f64` matrix stored in a file as `b x b` tiles, tiles
/// ordered column-major by tile index, elements column-major within a
/// tile — the file-system realisation of the `Blocked` layout.
#[derive(Debug)]
pub struct FileMatrix {
    file: File,
    path: PathBuf,
    n: usize,
    b: usize,
    nb: usize,
    cursor: u64,
    stats: IoStats,
    persist: bool,
    latency: crate::backend::LatencyModel,
    /// One tile of little-endian bytes: what a transfer moves, kept so a
    /// tile is converted to or from matrix storage once, with no other
    /// copy and no allocation per transfer.
    bytes: Vec<u8>,
}

impl FileMatrix {
    /// Create (or truncate) the backing file at `path` and write `a` into
    /// it tile by tile.  `b` must divide nothing in particular — edge
    /// tiles are stored at full `b x b` stride with zero padding, keeping
    /// every tile the same length on disk.
    pub fn create(path: &Path, a: &Matrix<f64>, b: usize) -> std::io::Result<Self> {
        assert!(a.is_square(), "square matrices only");
        assert!(b > 0);
        let n = a.rows();
        let nb = n.div_ceil(b);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut fm = FileMatrix {
            file,
            path: path.to_path_buf(),
            n,
            b,
            nb,
            cursor: 0,
            stats: IoStats::default(),
            persist: false,
            latency: crate::backend::LatencyModel::none(),
            bytes: vec![0; b * b * 8],
        };
        // Initial population is not charged (the paper assumes the input
        // starts in slow memory).
        for bj in 0..nb {
            for bi in 0..nb {
                let (h, w) = (fm.live(bi), fm.live(bj));
                let mut tile = Matrix::zeros(b, b);
                for j in 0..w {
                    tile.col_mut(j)[..h].copy_from_slice(&a.col(bj * b + j)[bi * b..bi * b + h]);
                }
                fm.write_tile_uncounted(bi, bj, &tile)?;
            }
        }
        fm.stats = IoStats::default();
        Ok(fm)
    }

    /// Reopen an existing backing file written by [`create`](Self::create)
    /// with the same `n` and `b` — the crash-recovery path: the process
    /// that created the file died, a new one picks the data back up.
    /// The file length must match the expected tile layout.  Unlike
    /// [`create`](Self::create), the handle persists the file on drop
    /// (call [`set_persist(false)`](Self::set_persist) for scratch
    /// semantics).
    pub fn open(path: &Path, n: usize, b: usize) -> std::io::Result<Self> {
        assert!(b > 0);
        let nb = n.div_ceil(b);
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let expect = ((nb * nb * b * b) as u64) * 8;
        let actual = file.metadata()?.len();
        if actual != expect {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "backing file {} has {actual} bytes, expected {expect} for n={n} b={b}",
                    path.display()
                ),
            ));
        }
        Ok(FileMatrix {
            file,
            path: path.to_path_buf(),
            n,
            b,
            nb,
            // Force a real seek before the first transfer.
            cursor: u64::MAX,
            stats: IoStats::default(),
            // A file we merely opened belongs to whoever created it; a
            // recovery handle must never unlink the data it was trying
            // to recover (even if it fails and drops early).
            persist: true,
            latency: crate::backend::LatencyModel::none(),
            bytes: vec![0; b * b * 8],
        })
    }

    /// Keep (or stop keeping) the backing file when this handle drops.
    /// Crash/restart tests need the file to outlive the "dead" process's
    /// handle.
    pub fn set_persist(&mut self, persist: bool) {
        self.persist = persist;
    }

    /// Declare the per-operation latency this storage charges.  The
    /// model is *advertised*, not enforced here: the OOC pipeline
    /// decides whether to sleep it or to price it symbolically.
    pub fn set_latency_model(&mut self, model: crate::backend::LatencyModel) {
        self.latency = model;
    }

    pub(crate) fn latency(&self) -> crate::backend::LatencyModel {
        self.latency
    }

    /// The file cursor can no longer be trusted (someone rewrote the
    /// file behind our back, e.g. a checkpoint restore); force a seek
    /// before the next transfer.
    pub(crate) fn invalidate_cursor(&mut self) {
        self.cursor = u64::MAX;
    }

    /// Matrix order.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Tile size.
    pub fn b(&self) -> usize {
        self.b
    }

    /// Tile-grid dimension.
    pub fn nb(&self) -> usize {
        self.nb
    }

    /// Accumulated I/O counters.
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Flush buffered tile data to stable storage (`fdatasync`).  The
    /// checkpoint commit protocol calls this before recording a commit:
    /// a snapshot must never claim data the disk has not yet kept.
    pub fn barrier(&mut self) -> std::io::Result<()> {
        self.file.sync_data()
    }

    /// Live (unpadded) rows, equally columns, of tile row `t`.
    fn live(&self, t: usize) -> usize {
        (self.n - t * self.b).min(self.b)
    }

    fn tile_offset(&self, bi: usize, bj: usize) -> u64 {
        debug_assert!(bi < self.nb && bj < self.nb);
        let per_tile = (self.b * self.b * 8) as u64;
        ((bj * self.nb + bi) as u64) * per_tile
    }

    fn seek_to(&mut self, off: u64) -> std::io::Result<()> {
        if self.cursor != off {
            self.file.seek(SeekFrom::Start(off))?;
            self.stats.seeks += 1;
            // An invalidated cursor (fresh open, checkpoint restore) has
            // no meaningful position; charge the mandatory repositioning
            // seek but no travel distance.
            if self.cursor != u64::MAX {
                self.stats.seek_distance += self.cursor.abs_diff(off);
            }
            self.cursor = off;
        }
        Ok(())
    }

    /// Read tile `(bi, bj)` from disk (one contiguous transfer).
    pub fn read_tile(&mut self, bi: usize, bj: usize) -> std::io::Result<Matrix<f64>> {
        let off = self.tile_offset(bi, bj);
        self.seek_to(off)?;
        self.file.read_exact(&mut self.bytes)?;
        let bytes = self.bytes.len() as u64;
        self.cursor += bytes;
        self.stats.bytes_read += bytes;
        self.stats.reads += 1;
        // The file holds the tile column-major, as the matrix does.
        let mut tile = Matrix::zeros(self.b, self.b);
        for (v, le) in tile.as_mut_slice().iter_mut().zip(self.bytes.chunks_exact(8)) {
            *v = f64::from_le_bytes(le.try_into().expect("8-byte chunk"));
        }
        Ok(tile)
    }

    /// Write tile `(bi, bj)` to disk (one contiguous transfer).
    pub fn write_tile(&mut self, bi: usize, bj: usize, tile: &Matrix<f64>) -> std::io::Result<()> {
        self.write_tile_uncounted(bi, bj, tile)?;
        let bytes = (self.b * self.b * 8) as u64;
        self.stats.bytes_written += bytes;
        self.stats.writes += 1;
        Ok(())
    }

    fn write_tile_uncounted(
        &mut self,
        bi: usize,
        bj: usize,
        tile: &Matrix<f64>,
    ) -> std::io::Result<()> {
        assert_eq!(tile.rows(), self.b);
        assert_eq!(tile.cols(), self.b);
        let off = self.tile_offset(bi, bj);
        self.seek_to(off)?;
        for (le, v) in self.bytes.chunks_exact_mut(8).zip(tile.as_slice()) {
            le.copy_from_slice(&v.to_le_bytes());
        }
        self.file.write_all(&self.bytes)?;
        self.cursor += self.bytes.len() as u64;
        Ok(())
    }

    /// Read the whole matrix back into RAM (not charged; used to verify).
    pub fn to_matrix(&mut self) -> std::io::Result<Matrix<f64>> {
        let saved = self.stats;
        let mut out = Matrix::zeros(self.n, self.n);
        for bj in 0..self.nb {
            for bi in 0..self.nb {
                let t = self.read_tile(bi, bj)?;
                let (b, h, w) = (self.b, self.live(bi), self.live(bj));
                for j in 0..w {
                    out.col_mut(bj * b + j)[bi * b..bi * b + h].copy_from_slice(&t.col(j)[..h]);
                }
            }
        }
        self.stats = saved;
        Ok(out)
    }
}

impl Drop for FileMatrix {
    fn drop(&mut self) {
        if !self.persist {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// A unique scratch path in the system temp directory.
pub fn scratch_path(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let c = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "cholcomm-ooc-{}-{}-{}.bin",
        std::process::id(),
        tag,
        c
    ))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use cholcomm_matrix::spd;

    #[test]
    fn roundtrip_through_the_file() {
        let mut rng = spd::test_rng(190);
        let a = spd::random_spd(20, &mut rng);
        let path = scratch_path("roundtrip");
        let mut fm = FileMatrix::create(&path, &a, 8).unwrap();
        let back = fm.to_matrix().unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn io_is_counted_per_tile() {
        let mut rng = spd::test_rng(191);
        let a = spd::random_spd(16, &mut rng);
        let path = scratch_path("counted");
        let mut fm = FileMatrix::create(&path, &a, 8).unwrap();
        assert_eq!(fm.stats(), IoStats::default(), "population not charged");
        let t = fm.read_tile(1, 0).unwrap();
        assert_eq!(t[(0, 0)], a[(8, 0)]);
        assert_eq!(fm.stats().reads, 1);
        assert_eq!(fm.stats().bytes_read, 8 * 8 * 8);
        fm.write_tile(1, 0, &t).unwrap();
        assert_eq!(fm.stats().writes, 1);
    }

    #[test]
    fn sequential_access_does_not_seek() {
        let mut rng = spd::test_rng(192);
        let a = spd::random_spd(16, &mut rng);
        let path = scratch_path("seeks");
        let mut fm = FileMatrix::create(&path, &a, 8).unwrap();
        // Tiles are stored column-major by tile: (0,0),(1,0),(0,1),(1,1).
        fm.read_tile(0, 0).unwrap();
        fm.read_tile(1, 0).unwrap(); // adjacent on disk: no seek
        fm.read_tile(0, 1).unwrap(); // adjacent: no seek
        let after_streaming = fm.stats().seeks;
        let dist_streaming = fm.stats().seek_distance;
        fm.read_tile(0, 0).unwrap(); // jump back: seek
        assert_eq!(fm.stats().seeks, after_streaming + 1);
        // The jump back travels exactly the three tiles already read.
        let tile_bytes = 8 * 8 * 8u64;
        assert_eq!(fm.stats().seek_distance, dist_streaming + 3 * tile_bytes);
        // The initial positioning after create counts as at most one.
        assert!(after_streaming <= 1, "streaming reads must not seek");
    }

    #[test]
    fn backing_file_is_removed_on_drop() {
        let path = scratch_path("drop");
        {
            let a = Matrix::identity(4);
            let _fm = FileMatrix::create(&path, &a, 2).unwrap();
            assert!(path.exists());
        }
        assert!(!path.exists());
    }
}
