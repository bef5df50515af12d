//! The batch former: size-buckets compatible jobs between admission and
//! the shards.
//!
//! The serve traffic mix is Zipf-dominated by small systems, where a
//! single factorization never reaches BLAS-3 intensity and per-request
//! dispatch constants dominate.  The batcher holds admitted `Factor`/
//! `Solve` jobs briefly in **power-of-two size buckets**, per home
//! shard, and releases a whole bucket to its shard as one unit — one
//! dispatch, whose members the shard factors in one
//! [`crate::engine::factor_batch`] call, each at its own order.
//!
//! Everything here is driven synchronously from [`Service::submit`]
//! (single-threaded by construction), so batch membership — like every
//! admission decision — is a pure function of `(config, request
//! stream)`: deterministic and replayable.
//!
//! **Flush discipline.**  A bucket is released when any of:
//! - it reaches [`BatchConfig::max_batch`] members;
//! - a later submission's virtual arrival time shows the bucket's
//!   *oldest* member has waited [`BatchConfig::formation_delay_us`]
//!   (virtual time only advances at submissions, so this check runs at
//!   every submit);
//! - the caller flushes explicitly ([`Service::flush_batches`]) or the
//!   service shuts down.
//!
//! The formation wait is *charged against each member's deadline
//! budget*: the shard computes every member's queue wait from its
//! arrival vtime when the batch executes, and a member whose budget has
//! already expired is shed with a typed `DeadlineExceeded` — never
//! silently factored late.
//!
//! [`Service::submit`]: crate::Service::submit
//! [`Service::flush_batches`]: crate::Service::flush_batches

use crate::jobs::JobKind;
use crate::shard::ShardJob;
use std::collections::BTreeMap;

/// Batching knobs, part of [`crate::ServiceConfig`].
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Master switch.  Off by default: unbatched services behave exactly
    /// as before, request for request.
    pub enabled: bool,
    /// Release a bucket as soon as it holds this many members.
    pub max_batch: usize,
    /// Maximum virtual time (µs) a bucket's oldest member may wait
    /// before the bucket is released regardless of fill.
    pub formation_delay_us: u64,
    /// Orders above this are never batched (big systems reach BLAS-3
    /// intensity on their own, and pow2 padding waste grows with n).
    pub max_bucket_n: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            enabled: false,
            max_batch: 32,
            formation_delay_us: 200,
            max_bucket_n: 128,
        }
    }
}

/// The power-of-two size bucket an order-`n` system is padded to.
pub fn bucket_of(n: usize) -> usize {
    n.next_power_of_two().max(1)
}

/// A bucket released by the batcher, ready for its home shard.
pub(crate) struct ReadyBatch {
    pub shard: usize,
    pub bucket_n: usize,
    /// Virtual instant the bucket was released: the submission vtime
    /// that made it due, or (on an explicit flush, where no newer
    /// submission exists) the newest member's arrival.  The shard
    /// counts each member's formation wait from its arrival to this
    /// instant — the wait the deadline check charges.
    pub released_us: u64,
    pub jobs: Vec<ShardJob>,
}

/// Pending buckets, keyed `(home shard, bucket order)`.  BTreeMap so
/// flush order is deterministic.
pub(crate) struct Batcher {
    config: BatchConfig,
    buckets: BTreeMap<(usize, usize), Vec<ShardJob>>,
}

impl Batcher {
    pub(crate) fn new(config: BatchConfig) -> Batcher {
        Batcher {
            config,
            buckets: BTreeMap::new(),
        }
    }

    /// Is this request one the batcher takes?  Only admitted
    /// `Factor`/`Solve` jobs of batchable size; shed requests bypass the
    /// batcher so the degraded-cache rescue stays immediate, and the
    /// GP/Kalman kinds carry per-job state that the batch path
    /// doesn't model.
    pub(crate) fn takes(&self, kind: JobKind, n: usize) -> bool {
        self.config.enabled
            && matches!(kind, JobKind::Factor | JobKind::Solve)
            && n >= 1
            && bucket_of(n) <= self.config.max_bucket_n
    }

    /// Enqueue an admitted job into its `(shard, bucket)` slot.  Release
    /// decisions happen in [`Batcher::due`], which the submitter calls
    /// after *every* submission — batched or not — because each
    /// submission advances virtual time.
    pub(crate) fn push(&mut self, shard: usize, job: ShardJob) {
        let bucket_n = bucket_of(job.request.n);
        self.buckets.entry((shard, bucket_n)).or_default().push(job);
    }

    /// Release every bucket that is due as of virtual time `now_us`:
    /// full to `max_batch`, or oldest member has waited
    /// `formation_delay_us`.  Buckets release in `(shard, bucket)` key
    /// order — deterministic, like everything on the submitter thread.
    pub(crate) fn due(&mut self, now_us: u64) -> Vec<ReadyBatch> {
        let max_batch = self.config.max_batch.max(1);
        let delay = self.config.formation_delay_us;
        let due: Vec<(usize, usize)> = self
            .buckets
            .iter()
            .filter(|(_, jobs)| {
                jobs.len() >= max_batch
                    || jobs
                        .first()
                        .is_some_and(|j| j.request.vtime_us + delay <= now_us)
            })
            .map(|(&key, _)| key)
            .collect();
        due.into_iter()
            .filter_map(|key| self.release(key, Some(now_us)))
            .collect()
    }

    /// Release every pending bucket, in key order.
    pub(crate) fn flush_all(&mut self) -> Vec<ReadyBatch> {
        let keys: Vec<(usize, usize)> = self.buckets.keys().copied().collect();
        keys.into_iter()
            .filter_map(|key| self.release(key, None))
            .collect()
    }

    fn release(&mut self, key: (usize, usize), now_us: Option<u64>) -> Option<ReadyBatch> {
        let jobs = self.buckets.remove(&key)?;
        if jobs.is_empty() {
            return None;
        }
        // On flush there is no current submission; virtual time stands
        // at the newest arrival the batcher has seen in this bucket.
        let newest = jobs.iter().map(|j| j.request.vtime_us).max().unwrap_or(0);
        Some(ReadyBatch {
            shard: key.0,
            bucket_n: key.1,
            released_us: now_us.map_or(newest, |now| now.max(newest)),
            jobs,
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_powers_of_two() {
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 4);
        assert_eq!(bucket_of(64), 64);
        assert_eq!(bucket_of(65), 128);
    }

    #[test]
    fn eligibility_filters_kind_size_and_switch() {
        let on = Batcher::new(BatchConfig {
            enabled: true,
            ..BatchConfig::default()
        });
        assert!(on.takes(JobKind::Factor, 64));
        assert!(on.takes(JobKind::Solve, 1));
        assert!(on.takes(JobKind::Factor, 128));
        assert!(!on.takes(JobKind::Factor, 129)); // bucket 256 > 128
        assert!(!on.takes(JobKind::GpPosterior, 16));
        assert!(!on.takes(JobKind::KalmanStep, 16));
        let off = Batcher::new(BatchConfig::default());
        assert!(!off.takes(JobKind::Factor, 16));
    }
}
