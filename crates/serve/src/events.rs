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
    /// Freshly factored as one member of a size-bucketed batch.
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

/// One `:`-separated field of an event's canonical line.
enum Field<'a> {
    /// Decimal, as `{}` prints an unsigned integer.
    Dec(u64),
    /// Sixteen lower-case hex digits, as `{:016x}` prints a `u64`.
    Hex(u64),
    /// Verbatim.
    Text(&'a str),
    /// `true` / `false`, as `{}` prints a `bool`.
    Flag(bool),
}

/// `"00" "01" … "99"`: two decimal digits per division.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// A line of the canonical log being written: the first `len` bytes of
/// a buffer that only ever grows, so a digit or a tag is a store into a
/// slice.  The canonical log is a few lines per request, and writing
/// them through `core::fmt` cost more than hashing their bytes does.
#[derive(Default)]
struct Line {
    bytes: Vec<u8>,
    len: usize,
}

impl Line {
    /// Extend the line by `need` bytes and lend them out.
    #[inline(always)]
    fn extend_by(&mut self, need: usize) -> &mut [u8] {
        let (at, end) = (self.len, self.len + need);
        if self.bytes.len() < end {
            self.bytes.resize(end.next_power_of_two().max(256), 0);
        }
        self.len = end;
        &mut self.bytes[at..end]
    }

    #[inline(always)]
    fn text(&mut self, text: &str) {
        self.extend_by(text.len()).copy_from_slice(text.as_bytes());
    }

    /// `v` in decimal.
    #[inline(always)]
    fn dec(&mut self, mut v: u64) {
        let digits = v.checked_ilog10().map_or(1, |d| d as usize + 1);
        let out = self.extend_by(digits);
        let mut at = digits;
        while v >= 100 {
            let pair = (v % 100) as usize * 2;
            v /= 100;
            at -= 2;
            out[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        }
        if v >= 10 {
            let pair = v as usize * 2;
            out[..2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        } else {
            out[0] = b'0' + v as u8;
        }
    }

    /// `v` as sixteen hex digits.
    #[inline(always)]
    fn hex(&mut self, v: u64) {
        for (nibble, out) in self.extend_by(16).iter_mut().rev().enumerate() {
            *out = b"0123456789abcdef"[(v >> (4 * nibble)) as usize & 0xf];
        }
    }

    /// `tag`, then every field behind a `:`.
    #[inline(always)]
    fn fields(&mut self, tag: &str, fields: &[Field<'_>]) {
        self.text(tag);
        for field in fields {
            self.text(":");
            match *field {
                Field::Dec(v) => self.dec(v),
                Field::Hex(v) => self.hex(v),
                Field::Text(text) => self.text(text),
                Field::Flag(flag) => self.text(if flag { "true" } else { "false" }),
            }
        }
    }

    fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

impl Event {
    /// Stable canonical encoding (independent of `Debug` formatting).
    pub fn encode(&self, out: &mut String) {
        let mut line = Line::default();
        self.encode_line(&mut line);
        let line = std::str::from_utf8(line.as_bytes()).expect("ASCII digits between `&str` tags");
        out.push_str(line);
    }

    fn encode_line(&self, out: &mut Line) {
        use Field::{Dec, Flag, Hex, Text};
        match *self {
            Event::Submitted {
                shard,
                vtime_us,
                kind,
                key,
                n,
                class,
                cost_us,
                deadline_us,
            } => out.fields(
                "submitted",
                &[
                    Dec(shard as u64),
                    Dec(vtime_us),
                    Text(kind.tag()),
                    Dec(key),
                    Dec(n as u64),
                    Text(class.tag()),
                    Dec(cost_us),
                    Dec(deadline_us),
                ],
            ),
            Event::Shed {
                backlog_us,
                watermark_us,
            } => out.fields("shed", &[Dec(backlog_us), Dec(watermark_us)]),
            Event::BreakerRefused { shard, state } => {
                out.fields("breaker_refused", &[Dec(shard as u64), Text(state.tag())]);
            }
            Event::CacheRead { read, degraded } => {
                let tag = match read {
                    CacheRead::Miss => "miss",
                    CacheRead::Hit => "hit",
                    CacheRead::Healed => "healed",
                    CacheRead::Corrupt => "corrupt",
                };
                out.fields("cache", &[Text(tag), Flag(degraded)]);
            }
            Event::AttemptStarted {
                attempt,
                from_panel,
            } => out.fields("attempt", &[Dec(attempt.into()), Dec(from_panel as u64)]),
            Event::TransientFault {
                attempt,
                backoff_us,
            } => out.fields("transient", &[Dec(attempt.into()), Dec(backoff_us)]),
            Event::WorkerCrashed { attempt, panel } => {
                out.fields("crashed", &[Dec(attempt.into()), Dec(panel as u64)]);
            }
            Event::WorkerRestarted { shard, from_panel } => {
                out.fields("restarted", &[Dec(shard as u64), Dec(from_panel as u64)]);
            }
            Event::DeadlineCanceled {
                panel,
                elapsed_us,
                budget_us,
            } => out.fields(
                "deadline",
                &[Dec(panel as u64), Dec(elapsed_us), Dec(budget_us)],
            ),
            Event::BreakerChanged { shard, state } => {
                out.fields("breaker", &[Dec(shard as u64), Text(state.tag())]);
            }
            Event::Completed {
                source,
                factor_digest,
                vend_us,
            } => out.fields(
                "completed",
                &[Text(source.tag()), Hex(factor_digest), Dec(vend_us)],
            ),
            Event::Failed { tag } => out.fields("failed", &[Text(tag)]),
            Event::Batched { bucket_n, batch } => {
                out.fields("batched", &[Dec(bucket_n as u64), Dec(batch as u64)]);
            }
            Event::ServiceStarted {
                shards,
                kernel,
                parallel,
                batching,
                pool_threads: _, // machine-dependent: never in the digest
            } => out.fields(
                "started",
                &[
                    Dec(shards as u64),
                    Text(kernel),
                    Flag(parallel),
                    Flag(batching),
                ],
            ),
        }
    }
}

/// Sort records into canonical `(req, seq)` order.  Each request numbers
/// its own events, so the keys are unique.
pub fn canonicalize(records: Vec<EventRecord>) -> Vec<EventRecord> {
    merge_canonical(&[records])
}

/// The records of all `streams` as one log in canonical `(req, seq)`
/// order — [`canonicalize`] of their concatenation, without building it.
///
/// No 80-byte record goes through a comparison sort, and each is copied
/// once, from its stream to its place.  A service numbers its requests
/// densely from 0 and logs every one of them at least once, so every id
/// of a run's log except the `ServiceStarted` sentinel is below the
/// record count: those records are placed by a count per request.
/// Whatever lies beyond — the sentinel, the far side of a gap in the
/// ids — is sorted by `(req, seq)` behind them, as references.
pub(crate) fn merge_canonical(streams: &[Vec<EventRecord>]) -> Vec<EventRecord> {
    let records = || streams.iter().flatten();
    let Some(first) = records().next() else {
        return Vec::new();
    };
    let n: usize = streams.iter().map(Vec::len).sum();
    assert!(
        u32::try_from(n).is_ok(),
        "an event log holds fewer than 2^32 records"
    );
    let counted = |r: &EventRecord| usize::try_from(r.req).ok().filter(|&req| req < n);

    // Per counted request: how many records it has; then the next free
    // one of its places; and so, once all are placed, where they end.
    let mut places = vec![0u32; n];
    let mut beyond: Vec<&EventRecord> = Vec::new();
    for r in records() {
        match counted(r) {
            Some(req) => places[req] += 1,
            None => beyond.push(r),
        }
    }
    let mut total = 0;
    for place in &mut places {
        total += std::mem::replace(place, total);
    }

    // A request's records first keep their order of arrival, which in a
    // run's streams (the client's first, then the shards') is `seq`
    // order already: one shard serves a request and logs it in order.
    // Requests that arrived in any other order are sorted by `seq`, as
    // 8-byte references.
    let mut order: Vec<&EventRecord> = vec![first; n];
    for r in records() {
        if let Some(req) = counted(r) {
            order[places[req] as usize] = r;
            places[req] += 1;
        }
    }
    let mut start = 0;
    for &end in &places {
        let of_request = &mut order[start..end as usize];
        if !of_request.is_sorted_by_key(|r| r.seq) {
            of_request.sort_unstable_by_key(|r| r.seq);
        }
        start = end as usize;
    }
    beyond.sort_unstable_by_key(|r| (r.req, r.seq));
    order[start..].copy_from_slice(&beyond);

    let merged: Vec<EventRecord> = order.into_iter().cloned().collect();
    debug_assert!(
        merged
            .windows(2)
            .all(|w| (w[0].req, w[0].seq) < (w[1].req, w[1].seq)),
        "two events share a (req, seq) key"
    );
    merged
}

/// FNV-1a digest over the canonical encoding of `records` (which must
/// already be canonical — see [`canonicalize`]).
pub fn log_digest(records: &[EventRecord]) -> u64 {
    let mut h = fnv1a(b"");
    let mut line = Line::default();
    for r in records {
        line.len = 0;
        line.dec(r.req);
        line.text(":");
        line.dec(r.seq.into());
        line.text(":");
        r.event.encode_line(&mut line);
        line.text("\n");
        h = fnv1a_update(h, line.as_bytes());
    }
    h
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    /// `Event::encode` as it was written with `core::fmt`: the oracle the
    /// hand-rolled encoders are compared against.
    fn encode_with_fmt(event: &Event, out: &mut String) {
        use std::fmt::Write;
        match event {
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
                let _ = write!(
                    out,
                    "completed:{}:{factor_digest:016x}:{vend_us}",
                    source.tag()
                );
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

    /// `log_digest` over the oracle encoding.
    fn log_digest_with_fmt(records: &[EventRecord]) -> u64 {
        use std::fmt::Write;
        let mut h = fnv1a(b"");
        let mut line = String::new();
        for r in records {
            line.clear();
            let _ = write!(line, "{}:{}:", r.req, r.seq);
            encode_with_fmt(&r.event, &mut line);
            line.push('\n');
            h = fnv1a_update(h, line.as_bytes());
        }
        h
    }

    /// One record of every variant per value: both ends of every integer
    /// field's range and numbers of several digit counts in between.
    #[test]
    fn hand_rolled_encoding_is_the_fmt_encoding_byte_for_byte() {
        use crate::admission::Priority;
        use crate::breaker::BreakerState;
        use crate::jobs::JobKind;
        let mut log = Vec::new();
        let values = [
            0,
            7,
            10,
            99,
            100,
            65_535,
            4_294_967_296,
            1_234_567_890_123,
            u64::MAX - 1,
            u64::MAX,
        ];
        for (round, &v) in values.iter().enumerate() {
            let (w, a) = (v as usize, v as u32);
            let flag = round % 2 == 0;
            let events = [
                Event::Submitted {
                    shard: w,
                    vtime_us: v,
                    kind: JobKind::ALL[round % 4],
                    key: v,
                    n: w,
                    class: [Priority::Interactive, Priority::Batch, Priority::Background]
                        [round % 3],
                    cost_us: v,
                    deadline_us: v,
                },
                Event::Shed {
                    backlog_us: v,
                    watermark_us: v / 3,
                },
                Event::BreakerRefused {
                    shard: w,
                    state: BreakerState::Shedding,
                },
                Event::CacheRead {
                    read: [
                        CacheRead::Miss,
                        CacheRead::Hit,
                        CacheRead::Healed,
                        CacheRead::Corrupt,
                    ][round % 4],
                    degraded: flag,
                },
                Event::AttemptStarted {
                    attempt: a,
                    from_panel: w,
                },
                Event::TransientFault {
                    attempt: a,
                    backoff_us: v,
                },
                Event::WorkerCrashed {
                    attempt: a,
                    panel: w,
                },
                Event::WorkerRestarted {
                    shard: w,
                    from_panel: w,
                },
                Event::DeadlineCanceled {
                    panel: w,
                    elapsed_us: v,
                    budget_us: v / 7,
                },
                Event::BreakerChanged {
                    shard: w,
                    state: [BreakerState::Healthy, BreakerState::Degraded][round % 2],
                },
                Event::Completed {
                    source: [
                        Source::Fresh,
                        Source::Cache,
                        Source::DegradedCache,
                        Source::Batched,
                    ][round % 4],
                    factor_digest: v,
                    vend_us: v,
                },
                Event::Failed {
                    tag: "retries_exhausted",
                },
                Event::Batched {
                    bucket_n: w,
                    batch: w / 5,
                },
                Event::ServiceStarted {
                    shards: w,
                    kernel: "fast-strict",
                    parallel: flag,
                    batching: !flag,
                    pool_threads: 3,
                },
            ];
            for (seq, event) in events.into_iter().enumerate() {
                let (mut got, mut want) = (String::new(), String::new());
                event.encode(&mut got);
                encode_with_fmt(&event, &mut want);
                assert_eq!(got, want);
                // Small and large sequence numbers alike.
                let seq = if flag {
                    seq as u32
                } else {
                    u32::MAX - seq as u32
                };
                log.push(EventRecord { req: v, seq, event });
            }
        }
        assert_eq!(log_digest(&log), log_digest_with_fmt(&log));
        let log = canonicalize(log);
        assert_eq!(log_digest(&log), log_digest_with_fmt(&log));
    }

    /// Logs shaped like a run's: the client's stream in request order,
    /// then each shard's, where a batch logs all its `Batched` events
    /// before its completions; request ids with gaps and the sentinel.
    /// Merged from the streams, concatenated, and shuffled.
    #[test]
    fn canonicalize_is_the_comparison_sort_by_req_and_seq() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut below = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let record = |req, seq, tag| EventRecord {
            req,
            seq,
            event: Event::Failed { tag },
        };
        for round in 0..40 {
            let shards = 1 + round % 3;
            // Strictly increasing ids, a gap before every fourth.
            let reqs: Vec<u64> = (0..round * 7).map(|r| r + r / 4 * 1_000).collect();
            let mut streams = vec![vec![record(u64::MAX, 0, "started")]];
            streams[0].extend(reqs.iter().map(|&req| record(req, 0, "submitted")));
            for shard in 0..shards {
                let mut stream = Vec::new();
                let mine: Vec<u64> = reqs
                    .iter()
                    .copied()
                    .filter(|r| r % shards == shard)
                    .collect();
                for batch in mine.chunks(5) {
                    for (seq, tag) in [(1, "batched"), (2, "completed")] {
                        stream.extend(batch.iter().map(|&req| record(req, seq, tag)));
                    }
                }
                streams.push(stream);
            }
            let mut log = streams.concat();
            let mut want = log.clone();
            want.sort_by_key(|r| (r.req, r.seq));
            assert_eq!(merge_canonical(&streams), want, "round {round}");
            assert_eq!(canonicalize(log.clone()), want, "round {round}");
            for i in (1..log.len()).rev() {
                log.swap(i, below(i + 1));
            }
            assert_eq!(canonicalize(log), want, "round {round}, shuffled");
        }
        assert!(canonicalize(Vec::new()).is_empty());
        assert!(merge_canonical(&[]).is_empty());
    }

    #[test]
    fn canonical_order_is_scheduling_independent() {
        let a = EventRecord {
            req: 0,
            seq: 0,
            event: Event::Failed {
                tag: "shed_overload",
            },
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
