//! The on-disk tile format, written once: an `n x n` `f64` matrix as
//! `b x b` tiles on a positioned byte device, with honest I/O accounting.
//!
//! Tile `(bi, bj)` sits at byte `(bj·nb + bi)·b²·8`, elements are
//! column-major little-endian `f64` within a tile, and edge tiles are
//! zero-padded to the full `b x b` stride — the paper's two-level model,
//! where slow memory is one array of blocks, a block moves as one
//! contiguous transfer and a jump between blocks is a seek.
//!
//! [`TileFile`] owns that layout, the byte codec (one reused tile
//! buffer, no allocation per transfer), the head and seek accounting,
//! [`IoStats`], the [`LatencyModel`] and the one [`IoBackend`] impl.
//! The two devices differ only in where the bytes land:
//!
//! * [`FileMatrix`] — a real file, written tile by tile;
//! * [`SimMatrix`] — a named file on a shared [`SimDisk`], so every tile
//!   write lands in the recorded op schedule and every barrier is
//!   explicit.  The checkpoint layer snapshots and restores it through a
//!   [`SimStore`](cholcomm_faults::SimStore) on the same disk, which is
//!   what lets one recorded schedule interleave data-file and journal
//!   operations — exactly the interleaving a crash tears apart.

use crate::backend::{IoBackend, LatencyModel};
use cholcomm_faults::SimDisk;
use cholcomm_matrix::Matrix;
use device::Device;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Bytes and seeks actually issued against the backing device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Bytes read from the device.
    pub bytes_read: u64,
    /// Bytes written to the device.
    pub bytes_written: u64,
    /// Read operations (each tile read is one contiguous transfer).
    pub reads: u64,
    /// Write operations.
    pub writes: u64,
    /// Transfers that had to move the head first (sequential access is
    /// free, as on a disk).
    pub seeks: u64,
    /// Total distance the head jumped across all seeks, in bytes —
    /// how *far* it travelled, not just how often.  A pipeline that
    /// sequentializes its reads shows up here even when the seek
    /// *count* barely moves.
    pub seek_distance: u64,
}

/// Head position unknown (a fresh `open`, a checkpoint restore): the
/// next transfer is charged a seek but no travel distance.
const UNKNOWN: u64 = u64::MAX;

/// An `n x n` `f64` matrix stored as `b x b` tiles on byte device `D`.
/// Use it as [`FileMatrix`] or [`SimMatrix`]; the tile traffic goes
/// through its [`IoBackend`] impl.
#[derive(Debug)]
pub struct TileFile<D> {
    dev: D,
    n: usize,
    b: usize,
    nb: usize,
    /// Byte offset of the device head: a transfer starting anywhere else
    /// charges one seek plus the distance travelled.
    head: u64,
    stats: IoStats,
    latency: LatencyModel,
    /// One tile of little-endian bytes: what a transfer moves, kept so a
    /// tile is converted to or from matrix storage once, with no other
    /// copy and no allocation per transfer.
    bytes: Vec<u8>,
}

/// A tile file in the real file system.  [`create`](FileMatrix::create)
/// unlinks the file when the handle drops; [`open`](FileMatrix::open)
/// keeps it.
pub type FileMatrix = TileFile<device::Fs>;

/// A tile file on a shared simulated crash disk — the [`IoBackend`] the
/// crash-point explorer drives.
pub type SimMatrix = TileFile<device::Sim>;

mod device {
    use super::{lock, Arc, Mutex, Path, PathBuf, SimDisk};
    use std::fs::File;
    use std::io::{Read, Seek, SeekFrom, Write};

    /// A positioned byte device.  `seek` says the head is elsewhere:
    /// a device with a real cursor repositions it only then.
    pub trait Device: Send + std::fmt::Debug {
        fn read_at(&mut self, off: u64, seek: bool, buf: &mut [u8]) -> std::io::Result<()>;
        fn write_at(&mut self, off: u64, seek: bool, buf: &[u8]) -> std::io::Result<()>;
        fn barrier(&mut self) -> std::io::Result<()>;
        fn len(&self) -> std::io::Result<u64>;
        fn path(&self) -> &Path;
    }

    /// An OS file: `lseek` only when the head moves, then one
    /// `read_exact` or `write_all`.
    #[derive(Debug)]
    pub struct Fs {
        file: File,
        path: PathBuf,
        pub(super) persist: bool,
    }

    impl Fs {
        /// Open the file at `path` for reading and writing; `create`
        /// creates or truncates it, and unlinks it when the handle drops.
        pub(super) fn open(path: &Path, create: bool) -> std::io::Result<Fs> {
            let mut opts = File::options();
            opts.read(true).write(true).create(create).truncate(create);
            let (file, path) = (opts.open(path)?, path.to_path_buf());
            Ok(Fs {
                file,
                path,
                persist: !create,
            })
        }

        fn at(&mut self, off: u64, seek: bool) -> std::io::Result<&mut File> {
            if seek {
                self.file.seek(SeekFrom::Start(off))?;
            }
            Ok(&mut self.file)
        }
    }

    impl Device for Fs {
        fn read_at(&mut self, off: u64, seek: bool, buf: &mut [u8]) -> std::io::Result<()> {
            self.at(off, seek)?.read_exact(buf)
        }
        fn write_at(&mut self, off: u64, seek: bool, buf: &[u8]) -> std::io::Result<()> {
            self.at(off, seek)?.write_all(buf)
        }
        fn barrier(&mut self) -> std::io::Result<()> {
            self.file.sync_data()
        }
        fn len(&self) -> std::io::Result<u64> {
            Ok(self.file.metadata()?.len())
        }
        fn path(&self) -> &Path {
            &self.path
        }
    }

    impl Drop for Fs {
        fn drop(&mut self) {
            if !self.persist {
                let _ = std::fs::remove_file(&self.path);
            }
        }
    }

    /// A named file on a [`SimDisk`]: every write is a recorded op.
    #[derive(Debug)]
    pub struct Sim {
        pub(super) disk: Arc<Mutex<SimDisk>>,
        pub(super) name: String,
    }

    impl Device for Sim {
        fn read_at(&mut self, off: u64, _: bool, buf: &mut [u8]) -> std::io::Result<()> {
            lock(&self.disk).read_at(&self.name, off, buf)
        }
        fn write_at(&mut self, off: u64, _: bool, buf: &[u8]) -> std::io::Result<()> {
            lock(&self.disk).write_at(&self.name, off, buf);
            Ok(())
        }
        fn barrier(&mut self) -> std::io::Result<()> {
            lock(&self.disk).barrier();
            Ok(())
        }
        fn len(&self) -> std::io::Result<u64> {
            lock(&self.disk).len_of(&self.name).ok_or_else(|| {
                let msg = format!("simdisk: no data file {}", self.name);
                std::io::Error::new(std::io::ErrorKind::NotFound, msg)
            })
        }
        fn path(&self) -> &Path {
            Path::new(&self.name)
        }
    }
}

fn lock(disk: &Arc<Mutex<SimDisk>>) -> MutexGuard<'_, SimDisk> {
    disk.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Little-endian bytes of `vals` into the front of `out`.
fn encode(out: &mut [u8], vals: &[f64]) {
    for (le, v) in out.chunks_exact_mut(8).zip(vals) {
        le.copy_from_slice(&v.to_le_bytes());
    }
}

/// `vals` from the little-endian bytes at the front of `bytes`.
fn decode(vals: &mut [f64], bytes: &[u8]) {
    for (v, le) in vals.iter_mut().zip(bytes.chunks_exact(8)) {
        *v = f64::from_le_bytes(le.try_into().expect("8-byte chunk"));
    }
}

/// Live (unpadded) rows, equally columns, of tile row `t`.
fn live(n: usize, b: usize, t: usize) -> usize {
    (n - t * b).min(b)
}

/// The bytes of tile `k` (in file order) of `a`, zero-padded, into `out`.
fn encode_tile(a: &Matrix<f64>, b: usize, k: usize, out: &mut [u8]) {
    let (n, nb) = (a.rows(), a.rows().div_ceil(b));
    let (bi, bj) = (k % nb, k / nb);
    out.fill(0);
    let rows = bi * b..bi * b + live(n, b, bi);
    for j in 0..live(n, b, bj) {
        encode(&mut out[j * b * 8..], &a.col(bj * b + j)[rows.clone()]);
    }
}

impl<D: Device> TileFile<D> {
    fn new(dev: D, n: usize, b: usize, head: u64) -> Self {
        assert!(b > 0);
        TileFile {
            dev,
            n,
            b,
            nb: n.div_ceil(b),
            head,
            stats: IoStats::default(),
            latency: LatencyModel::none(),
            bytes: vec![0; b * b * 8],
        }
    }

    /// A handle on an existing tile file: the crash-recovery path.  The
    /// device length must match the tile layout (a torn create does not).
    fn open_on(dev: D, n: usize, b: usize) -> std::io::Result<Self> {
        let tf = Self::new(dev, n, b, UNKNOWN);
        let (expect, actual) = ((tf.nb * tf.nb * tf.bytes.len()) as u64, tf.dev.len()?);
        if actual != expect {
            let path = tf.dev.path().display();
            let msg = format!("{path} has {actual} bytes, expected {expect} for n={n} b={b}");
            return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, msg));
        }
        Ok(tf)
    }

    /// Declare the per-operation latency this storage charges.  The
    /// model is *advertised*, not enforced here: the OOC pipeline
    /// decides whether to sleep it or to price it symbolically.
    pub fn set_latency_model(&mut self, model: LatencyModel) {
        self.latency = model;
    }

    /// Move the tile buffer to (`write`) or from tile `k` in file order:
    /// one contiguous transfer, a seek first when the head is elsewhere.
    fn transfer(&mut self, k: usize, write: bool) -> std::io::Result<()> {
        let len = self.bytes.len() as u64;
        let off = k as u64 * len;
        // The head is unknown until the transfer lands (a failed one
        // leaves the cursor anywhere).
        let from = std::mem::replace(&mut self.head, UNKNOWN);
        if write {
            self.dev.write_at(off, from != off, &self.bytes)?;
        } else {
            self.dev.read_at(off, from != off, &mut self.bytes)?;
        }
        if from != off {
            self.stats.seeks += 1;
            if from != UNKNOWN {
                self.stats.seek_distance += from.abs_diff(off);
            }
        }
        self.head = off + len;
        if write {
            self.stats.writes += 1;
            self.stats.bytes_written += len;
        } else {
            self.stats.reads += 1;
            self.stats.bytes_read += len;
        }
        Ok(())
    }

    fn index(&self, bi: usize, bj: usize) -> usize {
        debug_assert!(bi < self.nb && bj < self.nb);
        bj * self.nb + bi
    }

    /// Read the whole matrix back into RAM (not charged; used to verify).
    pub fn to_matrix(&mut self) -> std::io::Result<Matrix<f64>> {
        let (saved, b, nb) = (self.stats, self.b, self.nb);
        let mut out = Matrix::zeros(self.n, self.n);
        for k in 0..nb * nb {
            self.transfer(k, false)?;
            let (bi, bj) = (k % nb, k / nb);
            let rows = bi * b..bi * b + live(self.n, b, bi);
            for j in 0..live(self.n, b, bj) {
                let col = &mut out.col_mut(bj * b + j)[rows.clone()];
                decode(col, &self.bytes[j * b * 8..]);
            }
        }
        self.stats = saved;
        Ok(out)
    }
}

impl<D: Device> IoBackend for TileFile<D> {
    fn n(&self) -> usize {
        self.n
    }
    fn b(&self) -> usize {
        self.b
    }
    fn nb(&self) -> usize {
        self.nb
    }
    fn read_tile(&mut self, bi: usize, bj: usize) -> std::io::Result<Matrix<f64>> {
        self.transfer(self.index(bi, bj), false)?;
        let mut tile = Matrix::zeros(self.b, self.b);
        decode(tile.as_mut_slice(), &self.bytes);
        Ok(tile)
    }
    fn write_tile(&mut self, bi: usize, bj: usize, tile: &Matrix<f64>) -> std::io::Result<()> {
        assert_eq!((tile.rows(), tile.cols()), (self.b, self.b));
        encode(&mut self.bytes, tile.as_slice());
        self.transfer(self.index(bi, bj), true)
    }
    fn stats(&self) -> IoStats {
        self.stats
    }
    fn path(&self) -> Option<&Path> {
        Some(self.dev.path())
    }
    fn storage_restored(&mut self) {
        // Someone rewrote the file behind this handle (a checkpoint
        // restore): the head position means nothing now.
        self.head = UNKNOWN;
    }
    fn barrier(&mut self) -> std::io::Result<()> {
        self.dev.barrier()
    }
    fn latency_model(&self) -> LatencyModel {
        self.latency
    }
}

impl FileMatrix {
    /// Create (or truncate) the backing file at `path` and write `a` into
    /// it tile by tile, streaming: the whole file is never in RAM.  The
    /// initial population is not charged (the paper assumes the input
    /// starts in slow memory); it leaves the head at the end of the file.
    pub fn create(path: &Path, a: &Matrix<f64>, b: usize) -> std::io::Result<Self> {
        assert!(a.is_square(), "square matrices only");
        let mut fm = Self::new(device::Fs::open(path, true)?, a.rows(), b, 0);
        for k in 0..fm.nb * fm.nb {
            encode_tile(a, b, k, &mut fm.bytes);
            fm.transfer(k, true)?;
        }
        fm.stats = IoStats::default();
        Ok(fm)
    }

    /// Reopen an existing backing file written by [`create`](Self::create)
    /// with the same `n` and `b` — the crash-recovery path: the process
    /// that created the file died, a new one picks the data back up.
    /// The file length must match the tile layout.  Unlike `create`, the
    /// handle persists the file on drop: a recovery handle must never
    /// unlink the data it was trying to recover (call
    /// [`set_persist(false)`](Self::set_persist) for scratch semantics).
    pub fn open(path: &Path, n: usize, b: usize) -> std::io::Result<Self> {
        Self::open_on(device::Fs::open(path, false)?, n, b)
    }

    /// Keep (or stop keeping) the backing file when this handle drops.
    /// Crash/restart tests need the file to outlive the "dead" process's
    /// handle.
    pub fn set_persist(&mut self, persist: bool) {
        self.dev.persist = persist;
    }
}

impl SimMatrix {
    /// Create (or overwrite) file `name` on `disk` holding `a` tiled at
    /// `b`, written as one `write_file` operation.  Like
    /// [`FileMatrix::create`], the initial population is not charged —
    /// and it is *not* barriered: making the input durable is the
    /// caller's decision.  The head starts unknown.
    pub fn create(
        disk: Arc<Mutex<SimDisk>>,
        name: &str,
        a: &Matrix<f64>,
        b: usize,
    ) -> std::io::Result<Self> {
        assert!(a.is_square(), "square matrices only");
        let name = name.to_string();
        let sm = Self::new(device::Sim { disk, name }, a.rows(), b, UNKNOWN);
        let mut bytes = vec![0; sm.nb * sm.nb * sm.bytes.len()];
        for (k, tile) in bytes.chunks_exact_mut(sm.bytes.len()).enumerate() {
            encode_tile(a, b, k, tile);
        }
        lock(&sm.dev.disk).write_file(&sm.dev.name, &bytes);
        Ok(sm)
    }

    /// Reopen an existing simulated data file with the same geometry —
    /// the recovery path.  A file whose length does not match the tile
    /// layout (e.g. a torn un-barriered create) is rejected with
    /// `InvalidData`, a missing one with `NotFound`.
    pub fn open(
        disk: Arc<Mutex<SimDisk>>,
        name: &str,
        n: usize,
        b: usize,
    ) -> std::io::Result<Self> {
        let name = name.to_string();
        Self::open_on(device::Sim { disk, name }, n, b)
    }

    /// The shared disk handle.
    pub fn disk(&self) -> Arc<Mutex<SimDisk>> {
        Arc::clone(&self.dev.disk)
    }

    /// The file name on the simulated disk.
    pub fn name(&self) -> &str {
        &self.dev.name
    }
}

/// A unique scratch path in the system temp directory.
pub fn scratch_path(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let c = COUNTER.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id();
    std::env::temp_dir().join(format!("cholcomm-ooc-{pid}-{tag}-{c}.bin"))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use cholcomm_faults::DEFAULT_SECTOR;
    use cholcomm_matrix::spd;

    fn fresh_disk() -> Arc<Mutex<SimDisk>> {
        Arc::new(Mutex::new(SimDisk::new(DEFAULT_SECTOR)))
    }

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

    #[test]
    fn roundtrip_through_the_sim_disk() {
        let mut rng = spd::test_rng(300);
        let a = spd::random_spd(20, &mut rng);
        let mut sm = SimMatrix::create(fresh_disk(), "m.data", &a, 8).unwrap();
        assert_eq!(sm.to_matrix().unwrap(), a);
        let t = sm.read_tile(1, 0).unwrap();
        assert_eq!(t[(0, 0)], a[(8, 0)]);
        sm.write_tile(1, 0, &t).unwrap();
        assert_eq!(sm.stats().writes, 1, "population not charged");
    }

    #[test]
    fn tile_writes_land_in_the_schedule_and_die_without_a_barrier() {
        let mut rng = spd::test_rng(301);
        let a = spd::random_spd(8, &mut rng);
        let disk = fresh_disk();
        let mut sm = SimMatrix::create(Arc::clone(&disk), "m.data", &a, 4).unwrap();
        sm.barrier().unwrap();
        let mut t = sm.read_tile(0, 0).unwrap();
        t[(0, 0)] = 42.0;
        sm.write_tile(0, 0, &t).unwrap();
        assert_eq!(sm.read_tile(0, 0).unwrap()[(0, 0)], 42.0, "live view");
        lock(&disk).power_cut();
        assert_eq!(
            sm.read_tile(0, 0).unwrap()[(0, 0)],
            a[(0, 0)],
            "un-barriered tile write lost to the power cut"
        );
    }

    #[test]
    fn open_rejects_torn_data_files() {
        let disk = fresh_disk();
        lock(&disk).write_file("m.data", &[0u8; 100]);
        let err = SimMatrix::open(Arc::clone(&disk), "m.data", 8, 4).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(SimMatrix::open(disk, "missing", 8, 4).is_err());
    }

    #[test]
    fn both_devices_hold_the_same_bytes_and_count_the_same_io() {
        // Ragged n (edge tiles padded), and n < b (the one tile is all edge).
        for (n, b) in [(13, 5), (3, 8)] {
            let a = spd::random_spd(n, &mut spd::test_rng(302));
            let path = scratch_path("same-bytes");
            let mut fm = FileMatrix::create(&path, &a, b).unwrap();
            let disk = fresh_disk();
            let mut sm = SimMatrix::create(Arc::clone(&disk), "m.data", &a, b).unwrap();
            let nb = n.div_ceil(b);
            let on_disk = |fm: &FileMatrix| {
                let (file, sim) = (
                    std::fs::read(fm.path().unwrap()).unwrap(),
                    lock(&disk).read("m.data").unwrap(),
                );
                assert_eq!(file.len(), nb * nb * b * b * 8, "n={n} b={b}");
                assert!(file == sim, "n={n} b={b}: file and sim disk bytes differ");
            };
            on_disk(&fm);
            // The same sequence from the same (unknown) head.
            fm.storage_restored();
            for k in 0..3 * nb * nb {
                let (bi, bj) = ((k * 7) % nb, (k / 2) % nb);
                let mut t = fm.read_tile(bi, bj).unwrap();
                assert_eq!(t, sm.read_tile(bi, bj).unwrap());
                t[(0, 0)] += 1.0;
                if k % 3 != 1 {
                    fm.write_tile(bj, bi, &t).unwrap();
                    sm.write_tile(bj, bi, &t).unwrap();
                }
            }
            assert_eq!(fm.stats(), sm.stats(), "n={n} b={b}");
            assert!(
                fm.stats().seek_distance > 0,
                "n={n} b={b}: the sequence jumps"
            );
            on_disk(&fm);
            assert_eq!(fm.to_matrix().unwrap(), sm.to_matrix().unwrap());
        }
    }
}
