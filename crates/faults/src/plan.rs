//! The fault plan: a seeded, deterministic schedule of injected faults.

use crate::{coord_hash, unit};
use std::collections::HashMap;
use std::sync::Arc;

/// What happens to one transmission attempt of a message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MessageFault {
    /// The attempt vanishes in the network; the sender must time out and
    /// retransmit.
    Drop,
    /// The attempt is delivered twice; the receiver must deduplicate by
    /// sequence number.
    Duplicate,
    /// The attempt arrives with its payload corrupted; the receiver
    /// detects the bad checksum, discards it, and waits for the
    /// retransmit.
    Corrupt,
    /// The attempt arrives intact but late by `extra` simulated seconds.
    Delay {
        /// Additional simulated latency.
        extra: f64,
    },
}

/// What happens to one attempt of a file I/O operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFault {
    /// The operation fails with a transient `EIO`-style error.
    TransientEio,
    /// A read returns fewer bytes than requested (surfaces as an
    /// `UnexpectedEof` error from the backend).
    ShortRead,
}

/// Kind of disk operation, for keying fault decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiskOp {
    /// A tile read.
    Read,
    /// A tile write.
    Write,
}

/// Where the process dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Crash immediately after the `n`-th counted disk operation
    /// completes (0-based), typically mid-panel.
    AfterDiskOps(u64),
    /// Crash immediately after panel `k` of the factorization completes
    /// but before its checkpoint is written.
    AfterPanel(usize),
}

/// A silent data corruption: at the start of panel step `step`, XOR
/// `mask` into the `f64` bit pattern of element `elem` of tile `tile` —
/// the memory-resident (or at-rest, for the out-of-core path) model of
/// a cosmic-ray upset.  The checksums guarding the tile are *not*
/// updated, which is exactly what makes the corruption silent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitFlip {
    /// Panel step (0-based) at whose start the flip lands.
    pub step: usize,
    /// Target tile as `(block_row, block_col)`.
    pub tile: (usize, usize),
    /// Target element within the tile as `(row, col)`.
    pub elem: (usize, usize),
    /// XOR mask applied to the element's 64-bit pattern (nonzero).
    pub mask: u64,
}

/// What happens to one attempt of a *service job* (a request in the
/// `cholcomm-serve` request stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobFault {
    /// The attempt fails with a transient, retryable error before any
    /// panel work lands (the request-stream analogue of a transient
    /// `EIO`); the service retries with backoff.
    Transient,
    /// The worker executing the attempt panics at the start of panel
    /// `panel`; the shard supervisor must restart the worker and
    /// re-drive the job from its last checkpoint.
    Crash {
        /// Panel step (0-based) at whose start the worker dies.  Clamped
        /// by the caller to the job's panel count.
        panel: usize,
    },
}

/// A fail-stop rank death: rank `rank` dies at the start of panel step
/// `step`, dropping its channel endpoints so peers observe disconnects
/// instead of hangs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankKill {
    /// The rank that dies.
    pub rank: usize,
    /// Panel step (0-based) at whose start it dies.
    pub step: usize,
}

/// One silent corruption of a tile or a cached factor: the struck
/// element `(row, col)` and the nonzero XOR mask applied to its bits.
pub type Flip = ((usize, usize), u64);

/// Builder for a [`FaultPlan`].
#[derive(Debug, Clone)]
pub struct FaultPlanBuilder {
    seed: u64,
    drop_rate: f64,
    duplicate_rate: f64,
    corrupt_rate: f64,
    delay_rate: f64,
    delay_extra: f64,
    disk_transient_rate: f64,
    disk_short_read_rate: f64,
    bit_flip_rate: f64,
    job_transient_rate: f64,
    worker_crash_rate: f64,
    cache_flip_rate: f64,
    max_fault_attempts: u32,
    message_injections: HashMap<(usize, usize, u64, u32), MessageFault>,
    disk_injections: HashMap<(u64, u32), DiskFault>,
    bit_flip_injections: Vec<BitFlip>,
    job_injections: HashMap<(u64, u32), JobFault>,
    cache_flip_injections: HashMap<u64, Vec<Flip>>,
    rank_kill: Option<RankKill>,
    crash: Option<CrashPoint>,
}

impl FaultPlanBuilder {
    fn new(seed: u64) -> Self {
        FaultPlanBuilder {
            seed,
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            corrupt_rate: 0.0,
            delay_rate: 0.0,
            delay_extra: 0.0,
            disk_transient_rate: 0.0,
            disk_short_read_rate: 0.0,
            bit_flip_rate: 0.0,
            job_transient_rate: 0.0,
            worker_crash_rate: 0.0,
            cache_flip_rate: 0.0,
            max_fault_attempts: 6,
            message_injections: HashMap::new(),
            disk_injections: HashMap::new(),
            bit_flip_injections: Vec::new(),
            job_injections: HashMap::new(),
            cache_flip_injections: HashMap::new(),
            rank_kill: None,
            crash: None,
        }
    }

    /// Fraction of message attempts that are dropped.
    pub fn drop_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        self.drop_rate = rate;
        self
    }

    /// Fraction of messages delivered twice.
    pub fn duplicate_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        self.duplicate_rate = rate;
        self
    }

    /// Fraction of message attempts that arrive corrupted.
    pub fn corrupt_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        self.corrupt_rate = rate;
        self
    }

    /// Fraction of messages delayed, and the extra simulated latency
    /// each delayed message suffers.
    pub fn delay(mut self, rate: f64, extra: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        assert!(extra >= 0.0);
        self.delay_rate = rate;
        self.delay_extra = extra;
        self
    }

    /// Fraction of disk operations that fail with a transient error.
    pub fn disk_transient_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        self.disk_transient_rate = rate;
        self
    }

    /// Fraction of disk reads that come up short.
    pub fn disk_short_read_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        self.disk_short_read_rate = rate;
        self
    }

    /// Never fault the same message or disk operation more than `n`
    /// consecutive attempts (liveness bound for bounded retry).
    /// Clamped to at least 1.
    pub fn max_fault_attempts(mut self, n: u32) -> Self {
        self.max_fault_attempts = n.max(1);
        self
    }

    /// Explicitly fault attempt `attempt` (1-based) of the message with
    /// per-link sequence number `seq` on the link `src -> dst`.
    pub fn inject_message_fault(
        mut self,
        src: usize,
        dst: usize,
        seq: u64,
        attempt: u32,
        fault: MessageFault,
    ) -> Self {
        self.message_injections.insert((src, dst, seq, attempt), fault);
        self
    }

    /// Explicitly fault attempt `attempt` (1-based) of the `op_index`-th
    /// counted disk operation (0-based).
    pub fn inject_disk_fault(mut self, op_index: u64, attempt: u32, fault: DiskFault) -> Self {
        self.disk_injections.insert((op_index, attempt), fault);
        self
    }

    /// Kill the process at the given point.
    pub fn crash_at(mut self, point: CrashPoint) -> Self {
        self.crash = Some(point);
        self
    }

    /// Fraction of `(step, tile)` sites struck by a seeded single-bit
    /// flip (element and bit derived deterministically from the seed;
    /// query with [`FaultPlan::tile_flips`]).
    pub fn bit_flip_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        self.bit_flip_rate = rate;
        self
    }

    /// Explicitly corrupt element `elem` of tile `tile` at the start of
    /// panel step `step`, XORing `mask` into its bit pattern.
    pub fn inject_bit_flip(
        mut self,
        step: usize,
        tile: (usize, usize),
        elem: (usize, usize),
        mask: u64,
    ) -> Self {
        assert!(mask != 0, "a zero mask flips nothing");
        self.bit_flip_injections.push(BitFlip {
            step,
            tile,
            elem,
            mask,
        });
        self
    }

    /// Kill rank `rank` at the start of panel step `step` (fail-stop).
    pub fn inject_rank_kill(mut self, rank: usize, step: usize) -> Self {
        self.rank_kill = Some(RankKill { rank, step });
        self
    }

    /// Fraction of service-job attempts that fail with a transient,
    /// retryable error.
    pub fn job_transient_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        self.job_transient_rate = rate;
        self
    }

    /// Fraction of service-job attempts whose worker panics mid-job (the
    /// crash panel is derived deterministically from the seed).
    pub fn worker_crash_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        self.worker_crash_rate = rate;
        self
    }

    /// Explicitly fault attempt `attempt` (1-based) of service job `job`.
    pub fn inject_job_fault(mut self, job: u64, attempt: u32, fault: JobFault) -> Self {
        self.job_injections.insert((job, attempt), fault);
        self
    }

    /// Fraction of cache reads struck by a seeded single-bit flip in the
    /// at-rest cached factor (element and bit derived from the seed;
    /// query with [`FaultPlan::cache_flips`]).
    pub fn cache_flip_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        self.cache_flip_rate = rate;
        self
    }

    /// Explicitly corrupt element `elem` of the cached factor read by
    /// service job `job`, XORing `mask` into its bit pattern.  Injecting
    /// two flips for one job models multi-element (unhealable) rot.
    pub fn inject_cache_flip(mut self, job: u64, elem: (usize, usize), mask: u64) -> Self {
        assert!(mask != 0, "a zero mask flips nothing");
        self.cache_flip_injections.entry(job).or_default().push((elem, mask));
        self
    }

    /// Finish the plan.
    pub fn build(self) -> FaultPlan {
        let total = self.drop_rate + self.duplicate_rate + self.corrupt_rate + self.delay_rate;
        assert!(
            total <= 1.0,
            "message fault rates sum to {total} > 1"
        );
        let disk_total = self.disk_transient_rate + self.disk_short_read_rate;
        assert!(disk_total <= 1.0, "disk fault rates sum to {disk_total} > 1");
        let job_total = self.job_transient_rate + self.worker_crash_rate;
        assert!(job_total <= 1.0, "job fault rates sum to {job_total} > 1");
        FaultPlan {
            inner: Arc::new(self),
        }
    }
}

/// A seeded, deterministic fault schedule.  Cheap to clone (the plan is
/// shared behind an `Arc`), and safe to consult concurrently from every
/// rank: decisions are pure functions of the seed and the fault site.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    inner: Arc<FaultPlanBuilder>,
}

impl FaultPlan {
    /// Start building a plan with the given seed.
    pub fn builder(seed: u64) -> FaultPlanBuilder {
        FaultPlanBuilder::new(seed)
    }

    /// The empty plan: no faults ever.
    pub fn none() -> FaultPlan {
        FaultPlanBuilder::new(0).build()
    }

    /// `true` when this plan can never inject anything.
    pub fn is_clean(&self) -> bool {
        let p = &*self.inner;
        p.drop_rate == 0.0
            && p.duplicate_rate == 0.0
            && p.corrupt_rate == 0.0
            && p.delay_rate == 0.0
            && p.disk_transient_rate == 0.0
            && p.disk_short_read_rate == 0.0
            && p.bit_flip_rate == 0.0
            && p.job_transient_rate == 0.0
            && p.worker_crash_rate == 0.0
            && p.cache_flip_rate == 0.0
            && p.message_injections.is_empty()
            && p.disk_injections.is_empty()
            && p.bit_flip_injections.is_empty()
            && p.job_injections.is_empty()
            && p.cache_flip_injections.is_empty()
            && p.rank_kill.is_none()
            && p.crash.is_none()
    }

    /// Liveness bound: no site is faulted more than this many attempts.
    pub fn max_fault_attempts(&self) -> u32 {
        self.inner.max_fault_attempts
    }

    /// The fate of transmission attempt `attempt` (1-based) of the
    /// message with per-link sequence `seq` on the link `src -> dst`.
    ///
    /// Returns `None` for a clean delivery.  Attempts beyond
    /// [`max_fault_attempts`](Self::max_fault_attempts) are always clean.
    pub fn message_fault(
        &self,
        src: usize,
        dst: usize,
        seq: u64,
        attempt: u32,
    ) -> Option<MessageFault> {
        let p = &*self.inner;
        if let Some(&f) = p.message_injections.get(&(src, dst, seq, attempt)) {
            return Some(f);
        }
        if attempt > p.max_fault_attempts {
            return None;
        }
        let h = coord_hash(
            p.seed,
            &[0x4D53u64, src as u64, dst as u64, seq, attempt as u64],
        );
        let u = unit(h);
        let mut edge = p.drop_rate;
        if u < edge {
            return Some(MessageFault::Drop);
        }
        edge += p.duplicate_rate;
        if u < edge {
            // Duplicating a retransmission adds nothing new; only first
            // attempts are duplicated.
            if attempt == 1 {
                return Some(MessageFault::Duplicate);
            }
            return None;
        }
        edge += p.corrupt_rate;
        if u < edge {
            return Some(MessageFault::Corrupt);
        }
        edge += p.delay_rate;
        if u < edge {
            return Some(MessageFault::Delay {
                extra: p.delay_extra,
            });
        }
        None
    }

    /// The fate of attempt `attempt` (1-based) of the `op_index`-th
    /// counted disk operation.  Attempts beyond
    /// [`max_fault_attempts`](Self::max_fault_attempts) are always clean.
    pub fn disk_fault(&self, op: DiskOp, op_index: u64, attempt: u32) -> Option<DiskFault> {
        let p = &*self.inner;
        if let Some(&f) = p.disk_injections.get(&(op_index, attempt)) {
            return Some(f);
        }
        if attempt > p.max_fault_attempts {
            return None;
        }
        let tag = match op {
            DiskOp::Read => 0x5244u64,
            DiskOp::Write => 0x5752u64,
        };
        let h = coord_hash(p.seed, &[tag, op_index, attempt as u64]);
        let u = unit(h);
        let mut edge = p.disk_transient_rate;
        if u < edge {
            return Some(DiskFault::TransientEio);
        }
        if op == DiskOp::Read {
            edge += p.disk_short_read_rate;
            if u < edge {
                return Some(DiskFault::ShortRead);
            }
        }
        None
    }

    /// Where (if anywhere) the process crashes.
    pub fn crash_point(&self) -> Option<CrashPoint> {
        self.inner.crash
    }

    /// The silent corruptions (element, XOR mask) striking tile `tile`,
    /// of shape `rows x cols`, at the start of `step`: the explicit
    /// injections that fall inside it, in injection order, then (if the
    /// seeded rate fires) one derived single-bit flip.  A pure function
    /// of the seed and the site, like every other decision in the plan.
    pub fn tile_flips(
        &self,
        step: usize,
        tile: (usize, usize),
        rows: usize,
        cols: usize,
    ) -> Vec<Flip> {
        let p = &*self.inner;
        let inside =
            |f: &&BitFlip| f.step == step && f.tile == tile && f.elem.0 < rows && f.elem.1 < cols;
        let mut flips: Vec<Flip> = p
            .bit_flip_injections
            .iter()
            .filter(inside)
            .map(|f| (f.elem, f.mask))
            .collect();
        let (s, i, j) = (step as u64, tile.0 as u64, tile.1 as u64);
        let (hit, sel) = ([0x4246u64, s, i, j], [0x4247u64, s, i, j]);
        flips.extend(seeded_flip(p.seed, p.bit_flip_rate, &hit, &sel, rows, cols));
        flips
    }

    /// The rank death (if any) scheduled by this plan.
    pub fn rank_kill(&self) -> Option<RankKill> {
        self.inner.rank_kill
    }

    /// The fate of attempt `attempt` (1-based) of service job `job`
    /// whose factorization has `panels` panel steps.  Attempts beyond
    /// [`max_fault_attempts`](Self::max_fault_attempts) are always clean
    /// (the liveness bound that makes bounded retry sufficient).
    pub fn job_fault(&self, job: u64, attempt: u32, panels: usize) -> Option<JobFault> {
        let p = &*self.inner;
        if let Some(&f) = p.job_injections.get(&(job, attempt)) {
            return Some(match f {
                JobFault::Crash { panel } => JobFault::Crash {
                    panel: panel.min(panels.saturating_sub(1)),
                },
                t => t,
            });
        }
        if attempt > p.max_fault_attempts {
            return None;
        }
        let h = coord_hash(p.seed, &[0x4A42u64, job, attempt as u64]);
        let u = unit(h);
        let mut edge = p.job_transient_rate;
        if u < edge {
            return Some(JobFault::Transient);
        }
        edge += p.worker_crash_rate;
        if u < edge && panels > 0 {
            let sel = coord_hash(p.seed, &[0x4A43u64, job, attempt as u64]);
            return Some(JobFault::Crash {
                panel: (sel as usize) % panels,
            });
        }
        None
    }

    /// The at-rest corruptions (element, XOR mask) striking the cached
    /// `rows x cols` factor as it is read by service job `job`: explicit
    /// injections first, then (if the seeded rate fires) one derived
    /// single-bit flip.  Pure function of the seed and the job id, like
    /// every other decision in the plan.
    pub fn cache_flips(&self, job: u64, rows: usize, cols: usize) -> Vec<Flip> {
        let p = &*self.inner;
        let mut flips: Vec<Flip> = p
            .cache_flip_injections
            .get(&job)
            .cloned()
            .unwrap_or_default();
        let (hit, sel) = ([0x4346u64, job], [0x4347u64, job]);
        flips.extend(seeded_flip(
            p.seed,
            p.cache_flip_rate,
            &hit,
            &sel,
            rows,
            cols,
        ));
        flips
    }
}

/// The seeded single-bit flip of a `rows x cols` target, if `rate`
/// fires at the site hashed as `hit`; its element and bit come from the
/// hash of `sel`.
fn seeded_flip(
    seed: u64,
    rate: f64,
    hit: &[u64],
    sel: &[u64],
    rows: usize,
    cols: usize,
) -> Option<Flip> {
    if rate == 0.0 || rows == 0 || cols == 0 || unit(coord_hash(seed, hit)) >= rate {
        return None;
    }
    let sel = coord_hash(seed, sel);
    let elem = ((sel as usize) % rows, ((sel >> 20) as usize) % cols);
    Some((elem, 1u64 << ((sel >> 40) % 64)))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let mk = || {
            FaultPlan::builder(99)
                .drop_rate(0.2)
                .duplicate_rate(0.1)
                .corrupt_rate(0.05)
                .delay(0.1, 123.0)
                .disk_transient_rate(0.1)
                .build()
        };
        let (a, b) = (mk(), mk());
        for src in 0..4 {
            for dst in 0..4 {
                for seq in 0..200u64 {
                    for attempt in 1..=4u32 {
                        assert_eq!(
                            a.message_fault(src, dst, seq, attempt),
                            b.message_fault(src, dst, seq, attempt)
                        );
                    }
                }
            }
        }
        for i in 0..500u64 {
            assert_eq!(
                a.disk_fault(DiskOp::Read, i, 1),
                b.disk_fault(DiskOp::Read, i, 1)
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::builder(1).drop_rate(0.3).build();
        let b = FaultPlan::builder(2).drop_rate(0.3).build();
        let differs = (0..500u64)
            .any(|seq| a.message_fault(0, 1, seq, 1) != b.message_fault(0, 1, seq, 1));
        assert!(differs, "seeds 1 and 2 produced identical schedules");
    }

    #[test]
    fn rates_are_roughly_respected() {
        let plan = FaultPlan::builder(7).drop_rate(0.25).build();
        let n = 10_000u64;
        let drops = (0..n)
            .filter(|&seq| plan.message_fault(2, 3, seq, 1) == Some(MessageFault::Drop))
            .count();
        let frac = drops as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.02, "drop fraction {frac}");
    }

    #[test]
    fn liveness_no_faults_past_the_attempt_cap() {
        let plan = FaultPlan::builder(5)
            .drop_rate(0.9)
            .corrupt_rate(0.1)
            .max_fault_attempts(3)
            .build();
        for seq in 0..200u64 {
            assert_eq!(plan.message_fault(0, 1, seq, 4), None);
            assert_eq!(plan.disk_fault(DiskOp::Write, seq, 4), None);
        }
    }

    #[test]
    fn explicit_injections_fire_exactly_where_placed() {
        let plan = FaultPlan::builder(0)
            .inject_message_fault(1, 2, 7, 1, MessageFault::Drop)
            .inject_disk_fault(42, 1, DiskFault::ShortRead)
            .inject_disk_fault(42, 2, DiskFault::TransientEio)
            .build();
        assert_eq!(plan.message_fault(1, 2, 7, 1), Some(MessageFault::Drop));
        assert_eq!(plan.message_fault(1, 2, 8, 1), None);
        assert_eq!(plan.message_fault(2, 1, 7, 1), None);
        assert_eq!(
            plan.disk_fault(DiskOp::Read, 42, 1),
            Some(DiskFault::ShortRead)
        );
        assert_eq!(
            plan.disk_fault(DiskOp::Read, 42, 2),
            Some(DiskFault::TransientEio)
        );
        assert_eq!(plan.disk_fault(DiskOp::Read, 42, 3), None);
    }

    #[test]
    fn clean_plan_is_clean() {
        assert!(FaultPlan::none().is_clean());
        let plan = FaultPlan::none();
        for seq in 0..100 {
            assert_eq!(plan.message_fault(0, 1, seq, 1), None);
            assert_eq!(plan.disk_fault(DiskOp::Read, seq, 1), None);
        }
        assert!(!FaultPlan::builder(0).drop_rate(0.1).build().is_clean());
    }

    #[test]
    fn bit_flips_and_rank_kills_are_plan_kinds() {
        let plan = FaultPlan::builder(11)
            .inject_bit_flip(2, (1, 0), (3, 3), 1 << 52)
            .inject_bit_flip(2, (1, 0), (0, 1), 0b1)
            .inject_bit_flip(4, (0, 0), (0, 0), 1 << 63)
            .inject_rank_kill(3, 1)
            .build();
        assert!(!plan.is_clean());
        let flips = vec![((3, 3), 1 << 52), ((0, 1), 0b1)];
        assert_eq!(plan.tile_flips(2, (1, 0), 4, 4), flips);
        assert_eq!(plan.tile_flips(2, (1, 0), 3, 4), flips[1..], "in-bounds only");
        assert!(plan.tile_flips(2, (0, 0), 4, 4).is_empty());
        assert!(plan.tile_flips(0, (1, 0), 4, 4).is_empty());
        assert_eq!(plan.rank_kill(), Some(RankKill { rank: 3, step: 1 }));
        assert_eq!(FaultPlan::none().rank_kill(), None);
    }

    #[test]
    fn seeded_tile_flips_are_in_range_and_come_last() {
        let mk = |seed| FaultPlan::builder(seed).bit_flip_rate(0.3).build();
        let (a, b) = (mk(4), mk(4));
        let mut hits = 0;
        for step in 0..8 {
            for bi in 0..6 {
                for bj in 0..6 {
                    let fa = a.tile_flips(step, (bi, bj), 5, 7);
                    assert_eq!(fa, b.tile_flips(step, (bi, bj), 5, 7));
                    for &((i, j), mask) in &fa {
                        hits += 1;
                        assert!(i < 5 && j < 7);
                        assert_eq!(mask.count_ones(), 1, "single-bit upset");
                    }
                }
            }
        }
        assert!(hits > 30, "rate 0.3 over 288 sites should strike often: {hits}");
        assert!(mk(5).tile_flips(0, (0, 0), 5, 7) != a.tile_flips(0, (0, 0), 5, 7)
            || mk(5).tile_flips(1, (2, 1), 5, 7) != a.tile_flips(1, (2, 1), 5, 7));
        assert!(FaultPlan::none().tile_flips(0, (0, 0), 4, 4).is_empty());
        // An explicit flip comes first, the seeded one after it.
        let both = FaultPlan::builder(4)
            .bit_flip_rate(1.0)
            .inject_bit_flip(0, (0, 0), (1, 1), 1);
        let flips = both.build().tile_flips(0, (0, 0), 5, 7);
        assert_eq!((flips.len(), flips[0]), (2, ((1, 1), 1)));
    }

    #[test]
    fn job_faults_are_seeded_deterministic_and_bounded() {
        let mk = || {
            FaultPlan::builder(21)
                .job_transient_rate(0.2)
                .worker_crash_rate(0.1)
                .max_fault_attempts(3)
                .build()
        };
        let (a, b) = (mk(), mk());
        let mut transients = 0usize;
        let mut crashes = 0usize;
        for job in 0..2000u64 {
            for attempt in 1..=3u32 {
                let fa = a.job_fault(job, attempt, 8);
                assert_eq!(fa, b.job_fault(job, attempt, 8));
                match fa {
                    Some(JobFault::Transient) => transients += 1,
                    Some(JobFault::Crash { panel }) => {
                        crashes += 1;
                        assert!(panel < 8);
                    }
                    None => {}
                }
            }
            // Liveness: past the attempt cap, always clean.
            assert_eq!(a.job_fault(job, 4, 8), None);
        }
        let n = 2000.0 * 3.0;
        assert!((transients as f64 / n - 0.2).abs() < 0.03, "{transients}");
        assert!((crashes as f64 / n - 0.1).abs() < 0.03, "{crashes}");
        assert!(!mk().is_clean());
    }

    #[test]
    fn explicit_job_faults_fire_exactly_where_placed() {
        let plan = FaultPlan::builder(0)
            .inject_job_fault(5, 1, JobFault::Transient)
            .inject_job_fault(5, 2, JobFault::Crash { panel: 99 })
            .build();
        assert_eq!(plan.job_fault(5, 1, 4), Some(JobFault::Transient));
        // Crash panel is clamped to the job's panel count.
        assert_eq!(plan.job_fault(5, 2, 4), Some(JobFault::Crash { panel: 3 }));
        assert_eq!(plan.job_fault(5, 3, 4), None);
        assert_eq!(plan.job_fault(6, 1, 4), None);
        // Explicit injections fire even past the attempt cap — tests can
        // script pathological streams; the *random* draws stay bounded.
        let deep = FaultPlan::builder(0)
            .inject_job_fault(1, 9, JobFault::Transient)
            .build();
        assert_eq!(deep.job_fault(1, 9, 4), Some(JobFault::Transient));
    }

    #[test]
    fn cache_flips_are_seeded_and_in_bounds() {
        let mk = || FaultPlan::builder(13).cache_flip_rate(0.5).build();
        let (a, b) = (mk(), mk());
        let mut hits = 0usize;
        for job in 0..400u64 {
            let fa = a.cache_flips(job, 6, 6);
            assert_eq!(fa, b.cache_flips(job, 6, 6));
            for &((i, j), mask) in &fa {
                assert!(i < 6 && j < 6);
                assert_eq!(mask.count_ones(), 1, "single-bit upset");
            }
            hits += fa.len();
        }
        assert!(hits > 100, "rate 0.5 over 400 jobs: {hits}");

        let explicit = FaultPlan::builder(0)
            .inject_cache_flip(7, (2, 3), 1 << 52)
            .inject_cache_flip(7, (0, 0), 0b10)
            .build();
        assert_eq!(
            explicit.cache_flips(7, 8, 8),
            vec![((2, 3), 1 << 52), ((0, 0), 0b10)]
        );
        assert!(explicit.cache_flips(8, 8, 8).is_empty());
        assert!(FaultPlan::none().cache_flips(7, 8, 8).is_empty());
    }

    #[test]
    fn short_reads_never_hit_writes() {
        let plan = FaultPlan::builder(3).disk_short_read_rate(1.0).build();
        for i in 0..100u64 {
            assert_eq!(plan.disk_fault(DiskOp::Read, i, 1), Some(DiskFault::ShortRead));
            assert_eq!(plan.disk_fault(DiskOp::Write, i, 1), None);
        }
    }
}
