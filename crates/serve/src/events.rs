//! The service event log: a canonical, digestable record of everything
//! that happened to every request.
//!
//! Events are appended shard-locally (no cross-shard ordering is ever
//! claimed), each tagged with its request id and a per-request sequence
//! number.  The *canonical* log sorts by `(request, seq)` — an order
//! that is a pure function of the request stream and the fault plan, not
//! of thread scheduling — and the FNV digest over the canonical encoding
//! is the replay certificate: two runs with the same seed, plan, and
//! stream produce byte-identical canonical logs, which the determinism
//! test asserts by comparing digests.
//!
//! Wall-clock durations are deliberately excluded from events; they live
//! in the metrics, outside the digest.

use crate::admission::Priority;
use crate::breaker::BreakerState;
use crate::cache::CacheRead;
use crate::jobs::JobKind;
use cholcomm_matrix::digest::{fnv1a, fnv1a_update};

/// Where a completed response came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Freshly factored on this request.
    Fresh,
    /// Served from the shard's ABFT-verified cache in normal operation.
    Cache,
    /// Served from cache *because* fresh factorization was shed — the
    /// graceful-degradation path.
    DegradedCache,
    /// Freshly factored as one lane of a size-bucketed batch on the
    /// batched kernels.
    Batched,
}

impl Source {
    /// Stable tag for logs and JSON artifacts.
    pub fn tag(self) -> &'static str {
        match self {
            Source::Fresh => "fresh",
            Source::Cache => "cache",
            Source::DegradedCache => "degraded_cache",
            Source::Batched => "batched",
        }
    }
}

/// One thing that happened to a request (or to its shard while it was
/// being handled).
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// The request entered admission.
    Submitted {
        /// Home shard (by problem digest).
        shard: usize,
        /// Virtual arrival time (µs).
        vtime_us: u64,
        /// Job kind.
        kind: JobKind,
        /// Problem key.
        key: u64,
        /// Matrix order.
        n: usize,
        /// Priority class.
        class: Priority,
        /// Modelled cost (µs).
        cost_us: u64,
        /// Deadline budget (µs).
        deadline_us: u64,
    },
    /// Admission shed the request (backlog above the class watermark).
    Shed {
        /// Backlog at arrival (µs).
        backlog_us: u64,
        /// The exceeded watermark (µs).
        watermark_us: u64,
    },
    /// The shard's breaker refused fresh factorization.
    BreakerRefused {
        /// Shard whose breaker refused.
        shard: usize,
        /// Breaker state at refusal.
        state: BreakerState,
    },
    /// A cache read served (or failed to serve) the request.
    CacheRead {
        /// What the verified read found.
        read: CacheRead,
        /// True when the cache stood in for shed/refused fresh work.
        degraded: bool,
    },
    /// A factorization attempt began.
    AttemptStarted {
        /// Attempt number (1-based).
        attempt: u32,
        /// Panel the attempt starts from (0 unless resuming).
        from_panel: usize,
    },
    /// The attempt hit a transient fault; the service will back off.
    TransientFault {
        /// Attempt that faulted.
        attempt: u32,
        /// Seeded backoff before the next attempt (virtual µs).
        backoff_us: u64,
    },
    /// The worker crashed (panicked) mid-factorization.
    WorkerCrashed {
        /// Attempt that crashed.
        attempt: u32,
        /// Panel at which it died.
        panel: usize,
    },
    /// The supervisor restarted the shard worker and re-drove the job.
    WorkerRestarted {
        /// The shard whose worker was restarted.
        shard: usize,
        /// Checkpoint panel the re-drive resumed from.
        from_panel: usize,
    },
    /// The deadline budget expired; cancelled at a panel boundary.
    DeadlineCanceled {
        /// Panel at which cancellation landed.
        panel: usize,
        /// Virtual time consumed (µs).
        elapsed_us: u64,
        /// The budget (µs).
        budget_us: u64,
    },
    /// The shard's breaker changed state.
    BreakerChanged {
        /// Shard whose breaker moved.
        shard: usize,
        /// New state.
        state: BreakerState,
    },
    /// The request completed with a factor.
    Completed {
        /// Where the factor came from.
        source: Source,
        /// `lower_digest` of the served factor.
        factor_digest: u64,
        /// Virtual completion time (µs).
        vend_us: u64,
    },
    /// The request failed; `tag` is the [`crate::ServeError::tag`].
    Failed {
        /// Stable error tag.
        tag: &'static str,
    },
    /// The request was executed as one lane of a size-bucketed batch.
    Batched {
        /// Power-of-two bucket the request's order was padded to.
        bucket_n: usize,
        /// Number of real systems dispatched together in the bucket.
        batch: usize,
    },
    /// The service started — logged once per run (under the sentinel
    /// request id `u64::MAX`, so it sorts last in the canonical log and
    /// collides with no real request) as the replay certificate's record
    /// of the effective execution configuration.
    ServiceStarted {
        /// Number of shards.
        shards: usize,
        /// Kernel engine name (stable, [`cholcomm_matrix::KernelImpl::name`]).
        kernel: &'static str,
        /// Whether shards fan kernel work onto the rayon pool.
        parallel: bool,
        /// Whether size-bucketed batching is enabled.
        batching: bool,
        /// Worker threads the pool would use on this host.  Recorded for
        /// operators but **excluded from the canonical encoding**: the
        /// replay certificate must match across machines and across the
        /// `CHOLCOMM_THREADS` CI matrix, and thread count never changes
        /// any served bit.
        pool_threads: usize,
    },
}

/// An event bound to its request and per-request sequence number.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Request id (dense, assigned at submission).
    pub req: u64,
    /// Position within the request's own event stream.
    pub seq: u32,
    /// The event.
    pub event: Event,
}

impl Event {
    /// Stable canonical encoding (independent of `Debug` formatting).
    pub fn encode(&self, out: &mut String) {
        use std::fmt::Write;
        match self {
            Event::Submitted {
                shard,
                vtime_us,
                kind,
                key,
                n,
                class,
                cost_us,
                deadline_us,
            } => {
                let _ = write!(
                    out,
                    "submitted:{shard}:{vtime_us}:{}:{key}:{n}:{}:{cost_us}:{deadline_us}",
                    kind.tag(),
                    class.tag()
                );
            }
            Event::Shed {
                backlog_us,
                watermark_us,
            } => {
                let _ = write!(out, "shed:{backlog_us}:{watermark_us}");
            }
            Event::BreakerRefused { shard, state } => {
                let _ = write!(out, "breaker_refused:{shard}:{}", state.tag());
            }
            Event::CacheRead { read, degraded } => {
                let tag = match read {
                    CacheRead::Miss => "miss",
                    CacheRead::Hit => "hit",
                    CacheRead::Healed => "healed",
                    CacheRead::Corrupt => "corrupt",
                };
                let _ = write!(out, "cache:{tag}:{degraded}");
            }
            Event::AttemptStarted {
                attempt,
                from_panel,
            } => {
                let _ = write!(out, "attempt:{attempt}:{from_panel}");
            }
            Event::TransientFault {
                attempt,
                backoff_us,
            } => {
                let _ = write!(out, "transient:{attempt}:{backoff_us}");
            }
            Event::WorkerCrashed { attempt, panel } => {
                let _ = write!(out, "crashed:{attempt}:{panel}");
            }
            Event::WorkerRestarted { shard, from_panel } => {
                let _ = write!(out, "restarted:{shard}:{from_panel}");
            }
            Event::DeadlineCanceled {
                panel,
                elapsed_us,
                budget_us,
            } => {
                let _ = write!(out, "deadline:{panel}:{elapsed_us}:{budget_us}");
            }
            Event::BreakerChanged { shard, state } => {
                let _ = write!(out, "breaker:{shard}:{}", state.tag());
            }
            Event::Completed {
                source,
                factor_digest,
                vend_us,
            } => {
                let _ = write!(out, "completed:{}:{factor_digest:016x}:{vend_us}", source.tag());
            }
            Event::Failed { tag } => {
                let _ = write!(out, "failed:{tag}");
            }
            Event::Batched { bucket_n, batch } => {
                let _ = write!(out, "batched:{bucket_n}:{batch}");
            }
            Event::ServiceStarted {
                shards,
                kernel,
                parallel,
                batching,
                pool_threads: _, // machine-dependent: never in the digest
            } => {
                let _ = write!(out, "started:{shards}:{kernel}:{parallel}:{batching}");
            }
        }
    }
}

/// Sort records into canonical `(req, seq)` order.  Each request numbers
/// its own events, so the keys are unique and an unstable in-place sort
/// gives the one order a stable sort would, without its scratch buffer.
pub fn canonicalize(mut records: Vec<EventRecord>) -> Vec<EventRecord> {
    records.sort_unstable_by_key(|r| (r.req, r.seq));
    debug_assert!(
        records
            .windows(2)
            .all(|w| (w[0].req, w[0].seq) < (w[1].req, w[1].seq)),
        "two events share a (req, seq) key"
    );
    records
}

/// FNV-1a digest over the canonical encoding of `records` (which must
/// already be canonical — see [`canonicalize`]).
pub fn log_digest(records: &[EventRecord]) -> u64 {
    use std::fmt::Write;
    let mut h = fnv1a(b"");
    let mut line = String::new();
    for r in records {
        line.clear();
        let _ = write!(line, "{}:{}:", r.req, r.seq);
        r.event.encode(&mut line);
        line.push('\n');
        h = fnv1a_update(h, line.as_bytes());
    }
    h
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn canonical_order_is_scheduling_independent() {
        let a = EventRecord {
            req: 0,
            seq: 0,
            event: Event::Failed { tag: "shed_overload" },
        };
        let b = EventRecord {
            req: 0,
            seq: 1,
            event: Event::Failed { tag: "deadline" },
        };
        let c = EventRecord {
            req: 1,
            seq: 0,
            event: Event::Failed { tag: "stopped" },
        };
        let one = canonicalize(vec![c.clone(), b.clone(), a.clone()]);
        let two = canonicalize(vec![b.clone(), a.clone(), c.clone()]);
        assert_eq!(one, two);
        assert_eq!(log_digest(&one), log_digest(&two));
    }

    /// Pinned on the commit before `log_digest` stopped allocating a
    /// prefix string per record: the bytes digested must not move.
    #[test]
    fn digest_of_a_fixed_log_is_pinned() {
        let log = canonicalize(vec![
            EventRecord {
                req: u64::MAX,
                seq: 0,
                event: Event::ServiceStarted {
                    shards: 2,
                    kernel: "fast-strict",
                    parallel: false,
                    batching: true,
                    pool_threads: 7,
                },
            },
            EventRecord {
                req: 12,
                seq: 1,
                event: Event::Completed {
                    source: Source::Batched,
                    factor_digest: 0xdead_beef,
                    vend_us: 345,
                },
            },
            EventRecord {
                req: 12,
                seq: 0,
                event: Event::Batched {
                    bucket_n: 32,
                    batch: 5,
                },
            },
            EventRecord {
                req: 3,
                seq: 0,
                event: Event::Failed { tag: "deadline" },
            },
        ]);
        assert_eq!(log[0].req, 3);
        assert_eq!((log[1].seq, log[2].seq), (0, 1));
        assert_eq!(log_digest(&log), 0xf0ce_23d8_10b5_bf74);
    }

    #[test]
    fn digest_is_sensitive_to_every_field() {
        let base = vec![EventRecord {
            req: 3,
            seq: 2,
            event: Event::Completed {
                source: Source::Fresh,
                factor_digest: 0xabcd,
                vend_us: 100,
            },
        }];
        let mut other = base.clone();
        other[0].event = Event::Completed {
            source: Source::Cache,
            factor_digest: 0xabcd,
            vend_us: 100,
        };
        assert_ne!(log_digest(&base), log_digest(&other));
    }
}
