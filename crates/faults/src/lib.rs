#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]
//! # cholcomm-faults
//!
//! Deterministic fault injection for the workspace's two "real machine"
//! substrates: the threaded SPMD simulator (`cholcomm-distsim`) and the
//! file-backed out-of-core path (`cholcomm-ooc`).
//!
//! The paper's analyses (Tables 1–2) count only *algorithmic* traffic:
//! every message arrives, every disk transfer succeeds.  A [`FaultPlan`]
//! breaks that assumption on purpose — messages are dropped, duplicated,
//! delayed, or corrupted; file reads and writes fail transiently or come
//! up short; the process dies at a chosen I/O operation — so the
//! recovery machinery (ack/retransmit in the simulator, retry and
//! checkpoint/restart out of core) can be exercised and its *overhead
//! factor* over the clean counts measured.
//!
//! Every decision is a pure function of the plan's seed and the fault
//! site's stable coordinates (link and per-link sequence number for
//! messages, global operation index for disk I/O, panel step and tile
//! coordinates for silent bit flips).  Concurrent ranks
//! therefore observe the *same* fault schedule on every run, regardless
//! of thread interleaving — which is what makes "bit-identical factor
//! under any plan" a testable property rather than a hope.
//!
//! Crash consistency lives here too: [`Store`] abstracts durable storage
//! over the real filesystem or the simulated crash disk [`SimDisk`], and
//! [`journal`] is the one write-ahead commit protocol the out-of-core
//! checkpoints and the service's factor cache share.
//!
//! Liveness is guaranteed by construction: a message or disk operation
//! is never faulted more than [`FaultPlanBuilder::max_fault_attempts`]
//! times, so bounded retry always succeeds eventually.

pub mod journal;
mod plan;
mod simdisk;
mod stats;
mod store;

pub use journal::CommitDiscipline;
pub use plan::{
    BitFlip, CrashPoint, DiskFault, DiskOp, FaultPlan, FaultPlanBuilder, Flip, JobFault,
    MessageFault, RankKill,
};
pub use simdisk::{
    crash_sites_exhaustive, crash_sites_sampled, crash_state, schedule_digest, shrink_site,
    CrashSite, SimDisk, SimOp, SimState, DEFAULT_SECTOR, EXHAUSTIVE_PENDING_CAP,
};
pub use stats::FaultStats;
pub use store::{FsStore, SimStore, Store};

/// One step of SplitMix64: the workspace's stable, dependency-free mixer.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Hash an arbitrary list of coordinate words into one uniform `u64`.
#[inline]
pub(crate) fn coord_hash(seed: u64, words: &[u64]) -> u64 {
    let mut state = seed ^ 0xA076_1D64_78BD_642F;
    let mut out = splitmix64(&mut state);
    for &w in words {
        state ^= w;
        out ^= splitmix64(&mut state).rotate_left(17);
    }
    // Final avalanche so nearby coordinate vectors (small src/dst/seq
    // integers) land far apart in [0, 2^64).
    splitmix64(&mut out)
}

/// Map a hash to a uniform draw in `[0, 1)`.
#[inline]
pub(crate) fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}
