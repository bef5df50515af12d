//! Tile-storage abstraction and the flaky-disk wrapper.
//!
//! [`IoBackend`] is what the out-of-core factorization actually talks
//! to: a tile store with honest I/O accounting.  [`FileMatrix`] is the
//! real implementation; [`FaultyBackend`] wraps any backend and injects
//! transient `EIO`s, short reads, and crash points from a deterministic
//! [`FaultPlan`], recovering transient failures itself with bounded
//! retry and exponential backoff — so callers above see a disk that is
//! slow and flaky but, within the plan's attempt cap, never actually
//! loses data.

use crate::filemat::{FileMatrix, IoStats};
use cholcomm_faults::{CrashPoint, DiskFault, DiskOp, FaultPlan, FaultStats};
use cholcomm_matrix::Matrix;
use std::path::Path;
use std::time::Duration;

/// A deterministic per-operation disk-latency model, advertised by an
/// [`IoBackend`] through [`IoBackend::latency_model`].
///
/// The model is *descriptive*: backends do not sleep it themselves.
/// Consumers decide what to do with it — the OOC pipeline prices it in
/// its modeled-time simulator, and optionally sleeps it where each op
/// runs: on the I/O workers, or inline on the compute thread at zero
/// workers (the honest synchronous baseline).
/// Keeping the charge out of the backend keeps every existing test and
/// recorded schedule byte-identical: latency changes *when* results
/// arrive, never *what* they are.
///
/// Per-op cost is `base + jitter`, where base is `read_us`/`write_us`
/// by operation kind and jitter is drawn uniformly from `0..=jitter_us`
/// by hashing `(seed, kind, op_index)` — the same seeded-decision
/// discipline every fault-plan choice uses, so a given op index costs
/// the same on every run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Base cost of one tile read, µs.
    pub read_us: u64,
    /// Base cost of one tile write, µs.
    pub write_us: u64,
    /// Upper bound of the uniform per-op jitter, µs.
    pub jitter_us: u64,
    /// Seed for the jitter draws.
    pub seed: u64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self::none()
    }
}

impl LatencyModel {
    /// The free disk: every operation costs nothing.
    pub fn none() -> Self {
        LatencyModel {
            read_us: 0,
            write_us: 0,
            jitter_us: 0,
            seed: 0,
        }
    }

    /// Every read and write costs exactly `us` microseconds.
    pub fn uniform(us: u64) -> Self {
        LatencyModel {
            read_us: us,
            write_us: us,
            jitter_us: 0,
            seed: 0,
        }
    }

    /// Add seeded uniform jitter in `0..=jitter_us` to every operation.
    pub fn with_jitter(mut self, jitter_us: u64, seed: u64) -> Self {
        self.jitter_us = jitter_us;
        self.seed = seed;
        self
    }

    /// Does this model ever charge anything?
    pub fn is_zero(&self) -> bool {
        self.read_us == 0 && self.write_us == 0 && self.jitter_us == 0
    }

    /// The cost of the `op_index`-th operation of kind `op`, µs.  Pure
    /// function of the model and the op site.
    pub fn sample(&self, op: DiskOp, op_index: u64) -> u64 {
        let (base, tag) = match op {
            DiskOp::Read => (self.read_us, 0x4C52u64),
            DiskOp::Write => (self.write_us, 0x4C57u64),
        };
        if self.jitter_us == 0 {
            return base;
        }
        // SplitMix64 over (seed, kind, index): the workspace's stable,
        // dependency-free mixer.
        let mut state = self.seed ^ tag.rotate_left(32) ^ op_index;
        let mut z = || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut v = state;
            v = (v ^ (v >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            v = (v ^ (v >> 27)).wrapping_mul(0x94D049BB133111EB);
            v ^ (v >> 31)
        };
        let h = z() ^ z();
        base + h % (self.jitter_us + 1)
    }
}

/// A store of `b x b` matrix tiles with I/O accounting — the "slow
/// memory" the blocked algorithm moves tiles in and out of.  `Send`,
/// because the pipeline's I/O workers call it from their own threads.
pub trait IoBackend: Send {
    /// Matrix order.
    fn n(&self) -> usize;
    /// Tile size.
    fn b(&self) -> usize;
    /// Tile-grid dimension.
    fn nb(&self) -> usize;
    /// Read tile `(bi, bj)`.
    fn read_tile(&mut self, bi: usize, bj: usize) -> std::io::Result<Matrix<f64>>;
    /// Write tile `(bi, bj)`.
    fn write_tile(&mut self, bi: usize, bj: usize, tile: &Matrix<f64>) -> std::io::Result<()>;
    /// Accumulated I/O counters for *successful* transfers.
    fn stats(&self) -> IoStats;
    /// Path of the backing storage, when there is one (checkpointing
    /// needs it to snapshot the data file).
    fn path(&self) -> Option<&Path>;
    /// Whether the fault plan kills the process after panel `k`
    /// completes.  The perfect disk never crashes.
    fn crash_after_panel(&self, _k: usize) -> bool {
        false
    }
    /// The backing storage was rewritten externally (checkpoint
    /// restore); drop any cursor or position state.
    fn storage_restored(&mut self) {}
    /// Fault/recovery tallies, all zero for a perfect disk.
    fn fault_stats(&self) -> FaultStats {
        FaultStats::new()
    }
    /// Panel step `k` is about to run.  Integrity layers use this to
    /// schedule at-rest corruptions and to timestamp verification work;
    /// plain storage ignores it.
    fn begin_panel(&mut self, _k: usize) {}
    /// Durability barrier: on success, every tile written so far has
    /// reached stable storage and will survive a power cut.  The commit
    /// protocol relies on this ordering; storage with no volatile buffer
    /// (the in-memory test doubles) has nothing to flush.
    fn barrier(&mut self) -> std::io::Result<()> {
        Ok(())
    }
    /// Verify the integrity of every stored tile, healing what the
    /// encoding can correct.  Storage without integrity metadata has
    /// nothing to check.  An unhealable tile surfaces as
    /// [`std::io::ErrorKind::InvalidData`].
    fn scrub(&mut self) -> std::io::Result<()> {
        Ok(())
    }
    /// The per-operation latency this storage charges.  Advertised, not
    /// enforced — see [`LatencyModel`].  The free default keeps every
    /// existing backend and test unchanged.
    fn latency_model(&self) -> LatencyModel {
        LatencyModel::none()
    }
}

impl IoBackend for FileMatrix {
    fn n(&self) -> usize {
        FileMatrix::n(self)
    }
    fn b(&self) -> usize {
        FileMatrix::b(self)
    }
    fn nb(&self) -> usize {
        FileMatrix::nb(self)
    }
    fn read_tile(&mut self, bi: usize, bj: usize) -> std::io::Result<Matrix<f64>> {
        FileMatrix::read_tile(self, bi, bj)
    }
    fn write_tile(&mut self, bi: usize, bj: usize, tile: &Matrix<f64>) -> std::io::Result<()> {
        FileMatrix::write_tile(self, bi, bj, tile)
    }
    fn stats(&self) -> IoStats {
        FileMatrix::stats(self)
    }
    fn path(&self) -> Option<&Path> {
        Some(FileMatrix::path(self))
    }
    fn storage_restored(&mut self) {
        self.invalidate_cursor();
    }
    fn barrier(&mut self) -> std::io::Result<()> {
        FileMatrix::barrier(self)
    }
    fn latency_model(&self) -> LatencyModel {
        self.latency()
    }
}

/// A flaky disk: wraps a backend and injects the plan's disk faults,
/// recovering transients with bounded retry and exponential backoff.
///
/// Operations are numbered globally (reads and writes share the
/// counter), so a plan's schedule is a pure function of the access
/// sequence — deterministic for a deterministic algorithm.  Once the
/// plan's crash point is reached, every subsequent operation fails
/// permanently with [`std::io::ErrorKind::Other`] (the process is
/// "dead"); recovery from that is the checkpoint layer's job, not ours.
#[derive(Debug)]
pub struct FaultyBackend<B: IoBackend> {
    inner: B,
    plan: FaultPlan,
    /// Global operation index (successful or not, reads and writes).
    ops: u64,
    crashed: bool,
    stats: FaultStats,
    /// Base backoff before the second attempt; doubles per retry.
    backoff_base: Duration,
}

impl<B: IoBackend> FaultyBackend<B> {
    /// Wrap `inner` under `plan`.
    pub fn new(inner: B, plan: FaultPlan) -> Self {
        FaultyBackend {
            inner,
            plan,
            ops: 0,
            crashed: false,
            stats: FaultStats::new(),
            backoff_base: Duration::from_micros(50),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// The wrapped backend, mutably (e.g. to flush or snapshot it).
    pub fn inner_mut(&mut self) -> &mut B {
        &mut self.inner
    }

    /// Unwrap.
    pub fn into_inner(self) -> B {
        self.inner
    }

    /// Disk operations attempted so far (including faulted attempts).
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Has the plan's crash point fired?
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    fn crash_error() -> std::io::Error {
        std::io::Error::other("simulated crash: process killed by fault plan")
    }

    /// Run one logical tile operation with retry.  `op_index` is
    /// consumed per *logical* operation: retries of the same operation
    /// share it, so the plan's per-op schedule is stable.
    fn with_retry<T>(
        &mut self,
        op: DiskOp,
        mut f: impl FnMut(&mut B) -> std::io::Result<T>,
    ) -> std::io::Result<T> {
        if self.crashed {
            return Err(Self::crash_error());
        }
        if let Some(CrashPoint::AfterDiskOps(k)) = self.plan.crash_point() {
            if self.ops >= k {
                self.crashed = true;
                return Err(Self::crash_error());
            }
        }
        let op_index = self.ops;
        self.ops += 1;
        let max_attempts = self.plan.max_fault_attempts() + 1;
        let mut attempt: u32 = 1;
        loop {
            if attempt > 1 {
                self.stats.disk_retries += 1;
                // Exponential backoff: 50us, 100us, ... capped so a
                // heavily faulted test run stays fast.
                let exp = (attempt - 2).min(6);
                std::thread::sleep(self.backoff_base * (1 << exp));
            }
            match self.plan.disk_fault(op, op_index, attempt) {
                Some(DiskFault::TransientEio) => {
                    self.stats.disk_transients += 1;
                    if attempt >= max_attempts {
                        return Err(std::io::Error::other(
                            "injected EIO persisted past the retry budget",
                        ));
                    }
                }
                Some(DiskFault::ShortRead) => {
                    self.stats.disk_short_reads += 1;
                    if attempt >= max_attempts {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::UnexpectedEof,
                            "injected short read persisted past the retry budget",
                        ));
                    }
                }
                None => return f(&mut self.inner),
            }
            attempt += 1;
        }
    }
}

impl<B: IoBackend> IoBackend for FaultyBackend<B> {
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
        self.with_retry(DiskOp::Read, |b| b.read_tile(bi, bj))
    }
    fn write_tile(&mut self, bi: usize, bj: usize, tile: &Matrix<f64>) -> std::io::Result<()> {
        self.with_retry(DiskOp::Write, |b| b.write_tile(bi, bj, tile))
    }
    fn stats(&self) -> IoStats {
        self.inner.stats()
    }
    fn path(&self) -> Option<&Path> {
        self.inner.path()
    }
    fn crash_after_panel(&self, k: usize) -> bool {
        !self.crashed && self.plan.crash_point() == Some(CrashPoint::AfterPanel(k))
    }
    fn storage_restored(&mut self) {
        self.inner.storage_restored();
    }
    fn fault_stats(&self) -> FaultStats {
        let mut s = self.stats;
        s.merge(&self.inner.fault_stats());
        s
    }
    fn begin_panel(&mut self, k: usize) {
        self.inner.begin_panel(k);
    }
    fn scrub(&mut self) -> std::io::Result<()> {
        self.inner.scrub()
    }
    fn barrier(&mut self) -> std::io::Result<()> {
        // A dead process cannot fsync, but a live one always can: the
        // barrier is not a tile transfer, so it does not consume an
        // operation index (keeping `AfterDiskOps` schedules stable).
        if self.crashed {
            return Err(Self::crash_error());
        }
        self.inner.barrier()
    }
    fn latency_model(&self) -> LatencyModel {
        // A latency schedule on the fault plan overrides whatever the
        // wrapped storage advertises; the plan's seed drives the jitter
        // so latency is deterministic like every other plan decision.
        match self.plan.disk_latency() {
            Some(l) => LatencyModel {
                read_us: l.read_us,
                write_us: l.write_us,
                jitter_us: l.jitter_us,
                seed: self.plan.seed(),
            },
            None => self.inner.latency_model(),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::filemat::scratch_path;
    use cholcomm_matrix::spd;

    fn small_fm(tag: &str, n: usize, b: usize) -> FileMatrix {
        let mut rng = spd::test_rng(210);
        let a = spd::random_spd(n, &mut rng);
        FileMatrix::create(&scratch_path(tag), &a, b).unwrap()
    }

    #[test]
    fn transients_are_retried_transparently() {
        let fm = small_fm("retry", 16, 8);
        let plan = FaultPlan::builder(5)
            .inject_disk_fault(0, 1, DiskFault::TransientEio)
            .inject_disk_fault(0, 2, DiskFault::TransientEio)
            .inject_disk_fault(2, 1, DiskFault::ShortRead)
            .build();
        let mut fb = FaultyBackend::new(fm, plan);
        let t0 = fb.read_tile(0, 0).unwrap(); // op 0: two EIOs, then fine
        let t1 = fb.read_tile(0, 0).unwrap(); // op 1: clean
        assert_eq!(t0, t1);
        fb.write_tile(0, 0, &t0).unwrap(); // op 2: one short read... on a write? no: injected directly
        let s = fb.fault_stats();
        assert_eq!(s.disk_transients, 2);
        assert_eq!(s.disk_short_reads, 1);
        assert_eq!(s.disk_retries, 3);
    }

    #[test]
    fn rate_based_faults_never_leak_to_the_caller() {
        let fm = small_fm("rates", 32, 8);
        let plan = FaultPlan::builder(6)
            .disk_transient_rate(0.3)
            .disk_short_read_rate(0.1)
            .build();
        let mut fb = FaultyBackend::new(fm, plan);
        for bj in 0..4 {
            for bi in 0..4 {
                let t = fb.read_tile(bi, bj).unwrap();
                fb.write_tile(bi, bj, &t).unwrap();
            }
        }
        assert!(fb.fault_stats().disk_faults() > 0, "plan should have bitten");
        assert_eq!(fb.stats().reads, 16, "only successful transfers counted");
        assert_eq!(fb.stats().writes, 16);
    }

    #[test]
    fn crash_point_kills_every_subsequent_op() {
        let fm = small_fm("crash", 16, 8);
        let plan = FaultPlan::builder(7)
            .crash_at(CrashPoint::AfterDiskOps(3))
            .build();
        let mut fb = FaultyBackend::new(fm, plan);
        for _ in 0..3 {
            fb.read_tile(0, 0).unwrap();
        }
        assert!(fb.read_tile(0, 0).is_err(), "op 3 hits the crash point");
        assert!(fb.crashed());
        assert!(fb.read_tile(1, 1).is_err(), "dead processes stay dead");
    }

    #[test]
    fn latency_model_is_deterministic_and_bounded() {
        let m = LatencyModel::uniform(100).with_jitter(40, 9);
        for i in 0..200 {
            let r = m.sample(DiskOp::Read, i);
            assert!((100..=140).contains(&r), "{r}");
            assert_eq!(r, m.sample(DiskOp::Read, i), "same site, same cost");
        }
        // Reads and writes draw independent jitter at the same index.
        assert!((0..50).any(|i| m.sample(DiskOp::Read, i) != m.sample(DiskOp::Write, i)));
        assert_eq!(LatencyModel::none().sample(DiskOp::Write, 3), 0);
        assert!(LatencyModel::none().is_zero());
        assert!(!m.is_zero());
    }

    #[test]
    fn plan_latency_overrides_the_wrapped_storage() {
        let fm = small_fm("lat", 16, 8);
        let plan = FaultPlan::builder(11).disk_latency(100, 30, 5).build();
        assert!(plan.is_clean(), "latency-only plans stay clean");
        let fb = FaultyBackend::new(fm, plan);
        let m = fb.latency_model();
        assert_eq!((m.read_us, m.write_us, m.jitter_us), (100, 30, 5));
        assert_eq!(m.seed, 11);
        // Without a plan schedule, the inner backend's model shines through.
        let mut fm2 = small_fm("lat2", 16, 8);
        fm2.set_latency_model(LatencyModel::uniform(7));
        let fb2 = FaultyBackend::new(fm2, FaultPlan::builder(12).build());
        assert_eq!(fb2.latency_model(), LatencyModel::uniform(7));
    }

    #[test]
    fn fault_schedule_is_deterministic() {
        let run = || {
            let fm = small_fm("det", 32, 8);
            let plan = FaultPlan::builder(8).disk_transient_rate(0.25).build();
            let mut fb = FaultyBackend::new(fm, plan);
            for bj in 0..4 {
                for bi in 0..4 {
                    fb.read_tile(bi, bj).unwrap();
                }
            }
            fb.fault_stats()
        };
        assert_eq!(run(), run());
    }
}
