//! The compact run-encoded access trace: record once, re-price many.
//!
//! The algorithms' touch schedules are *data-oblivious* — a pure
//! function of `(algorithm, layout, n)`, never of the matrix values.
//! That makes the access trace a reusable artifact: record it once while
//! the arithmetic runs, then [`replay`](CompactTrace::replay) it under
//! any tracer (LRU at every `M` of a sweep, set-associative,
//! stack-distance, explicit counting) without re-executing a single
//! flop or re-deriving a single address from the layout bijection.
//!
//! The encoding is deliberately flat: two parallel vectors, one `u64`
//! start address and one `u32` length-plus-mode word per run event —
//! 12 bytes per event, no per-event `Vec<Run>` allocations (the old
//! [`crate::RecordingTracer`] paid a heap allocation *per touch*).
//! [`pack`](CompactTrace::pack) additionally delta/varint-encodes the
//! events for storage or byte-level comparison (the determinism guard
//! compares packed bytes across runs on different matrices).
//!
//! Replay fidelity contract: replaying a trace into a tracer produces
//! **byte-identical** [`crate::TransferStats`] to feeding the original
//! touches directly.  This holds because every tracer in this crate
//! prices runs independently — per run (counting) or per word
//! (LRU / set-associative / stack-distance) — so re-presenting the
//! recorded runs one [`Tracer::touch_runs`] call each is
//! indistinguishable from the original call grouping.

use crate::stats::TransferStats;
use crate::tracer::{Access, Tracer};
use cholcomm_layout::Run;

/// Mode flag stored in the high bit of the length word.
const WRITE_BIT: u32 = 1 << 31;
/// Maximum run length a single event can carry.
const MAX_LEN: usize = (WRITE_BIT - 1) as usize;

/// A compact, flat, run-encoded access trace.
///
/// ```
/// use cholcomm_cachesim::{Access, CompactTrace, CountingTracer, LruTracer, Tracer};
///
/// let mut trace = CompactTrace::new();
/// trace.touch_runs(&[0..8, 16..20], Access::Read);
/// trace.touch_runs(&[0..8], Access::Write);
///
/// // Price the same schedule under two different models.
/// let mut counting = CountingTracer::uncapped();
/// trace.replay(&mut counting);
/// assert_eq!(counting.stats().words, 20);
///
/// let mut lru = LruTracer::with_writebacks(64, false);
/// trace.replay(&mut lru);
/// assert_eq!(lru.fetch_stats().words, 12, "write pass hits in cache");
/// ```
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CompactTrace {
    /// Run start addresses.
    starts: Vec<u64>,
    /// Run lengths; bit 31 marks a write.
    len_mode: Vec<u32>,
    /// Total words across all runs.
    words: u64,
    /// One past the largest address touched.
    footprint: u64,
}

impl CompactTrace {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty trace with room for `events` runs.
    pub fn with_capacity(events: usize) -> Self {
        CompactTrace {
            starts: Vec::with_capacity(events),
            len_mode: Vec::with_capacity(events),
            words: 0,
            footprint: 0,
        }
    }

    /// Number of recorded run events.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Total words touched (with multiplicity) — also the number of
    /// word-granularity accesses a replay will present to the tracer.
    pub fn words(&self) -> u64 {
        self.words
    }

    /// One past the largest address touched: the address-space bound a
    /// replay tracer can pre-size its dense structures from.
    pub fn footprint(&self) -> usize {
        self.footprint as usize
    }

    /// Append one run event.
    #[inline]
    pub fn push(&mut self, run: &Run, mode: Access) {
        let len = run.end.saturating_sub(run.start);
        assert!(len <= MAX_LEN, "run of {len} words overflows the event length field");
        let mode_bit = match mode {
            Access::Read => 0,
            Access::Write => WRITE_BIT,
        };
        self.starts.push(run.start as u64);
        self.len_mode.push(len as u32 | mode_bit);
        self.words += len as u64;
        self.footprint = self.footprint.max(run.end as u64);
    }

    /// The `i`-th event as `(run, mode)`.
    #[inline]
    pub fn event(&self, i: usize) -> (Run, Access) {
        let start = self.starts[i] as usize;
        let lm = self.len_mode[i];
        let len = (lm & !WRITE_BIT) as usize;
        let mode = if lm & WRITE_BIT != 0 { Access::Write } else { Access::Read };
        (start..start + len, mode)
    }

    /// Iterate events in order.
    pub fn iter(&self) -> impl Iterator<Item = (Run, Access)> + '_ {
        (0..self.len()).map(|i| self.event(i))
    }

    /// Re-present the recorded schedule to `into`, one run per
    /// [`Tracer::touch_runs`] call.  Allocation-free.
    pub fn replay(&self, into: &mut impl Tracer) {
        for i in 0..self.starts.len() {
            let (run, mode) = self.event(i);
            into.touch_runs(std::slice::from_ref(&run), mode);
        }
    }

    /// `true` when both traces record exactly the same schedule — same
    /// runs, same order, same read/write modes.
    pub fn same_schedule(&self, other: &CompactTrace) -> bool {
        self.starts == other.starts && self.len_mode == other.len_mode
    }

    /// Serialize to delta/varint-packed bytes (`choltrace1` header).
    ///
    /// Starts are zig-zag delta-encoded against the previous start —
    /// consecutive touches are near each other, so most deltas fit one
    /// or two bytes; lengths ride as `len << 1 | write`.
    pub fn pack(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.len() * 3);
        out.extend_from_slice(b"choltrace1");
        write_varint(&mut out, self.len() as u64);
        let mut prev = 0i128;
        for i in 0..self.len() {
            let start = self.starts[i] as i128;
            let delta = start - prev;
            prev = start;
            write_varint(&mut out, zigzag(delta));
            let lm = self.len_mode[i];
            let len = u64::from(lm & !WRITE_BIT);
            let wr = u64::from(lm >> 31);
            write_varint(&mut out, len << 1 | wr);
        }
        out
    }

    /// Deserialize a [`pack`](Self::pack)ed trace.
    pub fn unpack(bytes: &[u8]) -> Result<Self, String> {
        let rest = bytes
            .strip_prefix(b"choltrace1".as_slice())
            .ok_or_else(|| "bad trace header".to_string())?;
        let mut pos = 0usize;
        let n = read_varint(rest, &mut pos)? as usize;
        let mut trace = CompactTrace::with_capacity(n);
        let mut prev = 0i128;
        for _ in 0..n {
            let delta = unzigzag(read_varint(rest, &mut pos)?);
            prev += delta;
            let start = u64::try_from(prev).map_err(|_| "negative start".to_string())? as usize;
            let lw = read_varint(rest, &mut pos)?;
            let len = (lw >> 1) as usize;
            let mode = if lw & 1 == 1 { Access::Write } else { Access::Read };
            trace.push(&(start..start + len), mode);
        }
        if pos != rest.len() {
            return Err(format!("{} trailing bytes after trace", rest.len() - pos));
        }
        Ok(trace)
    }

    /// FNV-1a digest over the packed encoding — a cheap fingerprint for
    /// the determinism guard and for cache keys.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |w: u64| {
            for b in w.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(self.starts.len() as u64);
        for i in 0..self.starts.len() {
            eat(self.starts[i]);
            eat(u64::from(self.len_mode[i]));
        }
        h
    }
}

/// Recording is just a [`Tracer`] that appends events; plain counters
/// come along for free so a recording pass can double as an uncapped
/// counting run.
impl Tracer for CompactTrace {
    fn touch_runs(&mut self, runs: &[Run], mode: Access) {
        for r in runs {
            self.push(r, mode);
        }
    }

    /// Touched words and declared runs (like an uncapped
    /// [`crate::CountingTracer`]).
    fn stats(&self) -> TransferStats {
        TransferStats {
            words: self.words,
            messages: self.len() as u64,
        }
    }

    fn reset(&mut self) {
        self.starts.clear();
        self.len_mode.clear();
        self.words = 0;
        self.footprint = 0;
    }
}

#[inline]
fn zigzag(v: i128) -> u64 {
    ((v << 1) ^ (v >> 127)) as u64
}

fn unzigzag(v: u64) -> i128 {
    let v = v as i128;
    (v >> 1) ^ -(v & 1)
}

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, String> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &b = bytes.get(*pos).ok_or_else(|| "truncated varint".to_string())?;
        *pos += 1;
        if shift >= 64 {
            return Err("varint overflow".to_string());
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
#[allow(clippy::single_range_in_vec_init)] // touch_runs takes &[Range]; one-run slices are the point
mod tests {
    use super::*;
    use crate::counting::CountingTracer;
    use crate::lru::LruTracer;
    use crate::recording::RecordingTracer;
    use crate::stackdist::StackDistanceTracer;

    fn sample_trace() -> CompactTrace {
        let mut t = CompactTrace::new();
        t.touch_runs(&[0..8, 16..20], Access::Read);
        t.touch_runs(&[4..6], Access::Write);
        t.touch_runs(&[100..164], Access::Read);
        t
    }

    #[test]
    fn counters_and_footprint() {
        let t = sample_trace();
        assert_eq!(t.len(), 4);
        assert_eq!(t.words(), 8 + 4 + 2 + 64);
        assert_eq!(t.footprint(), 164);
        assert_eq!(t.stats().messages, 4);
    }

    #[test]
    fn replay_matches_direct_feeding_for_every_tracer() {
        let t = sample_trace();

        let mut direct = CountingTracer::new(16);
        t.iter().for_each(|(r, m)| direct.touch_runs(&[r], m));
        let mut replayed = CountingTracer::new(16);
        t.replay(&mut replayed);
        assert_eq!(direct.stats(), replayed.stats());

        let mut lru_a = LruTracer::new(32);
        let mut lru_b = LruTracer::new(32);
        t.iter().for_each(|(r, m)| lru_a.touch_runs(&[r], m));
        t.replay(&mut lru_b);
        lru_a.flush();
        lru_b.flush();
        assert_eq!(lru_a.total_stats(), lru_b.total_stats());

        let mut sd = StackDistanceTracer::new(&[4, 64]);
        t.replay(&mut sd);
        assert_eq!(sd.accesses(), t.words());
    }

    #[test]
    fn replay_equals_recording_tracer_replay() {
        // The compact trace must price identically to the legacy
        // event-list recorder fed with the same touches.
        let runs: Vec<(Vec<Run>, Access)> = vec![
            (vec![0..5, 7..9], Access::Read),
            (vec![2..3], Access::Write),
            (vec![40..44, 44..48], Access::Read),
        ];
        let mut compact = CompactTrace::new();
        let mut legacy = RecordingTracer::new();
        for (rs, m) in &runs {
            compact.touch_runs(rs, *m);
            legacy.touch_runs(rs, *m);
        }
        let mut a = LruTracer::new(8);
        let mut b = LruTracer::new(8);
        compact.replay(&mut a);
        legacy.replay(&mut b);
        a.flush();
        b.flush();
        assert_eq!(a.total_stats(), b.total_stats());
    }

    #[test]
    fn pack_roundtrip_is_identity() {
        let t = sample_trace();
        let bytes = t.pack();
        let back = CompactTrace::unpack(&bytes).unwrap();
        assert_eq!(t, back);
        assert_eq!(t.digest(), back.digest());
    }

    #[test]
    fn unpack_rejects_garbage() {
        assert!(CompactTrace::unpack(b"not a trace").is_err());
        let mut bytes = sample_trace().pack();
        bytes.truncate(bytes.len() - 1);
        assert!(CompactTrace::unpack(&bytes).is_err());
        let mut extra = sample_trace().pack();
        extra.push(0);
        assert!(CompactTrace::unpack(&extra).is_err());
    }

    #[test]
    fn packing_is_compact_for_local_traces() {
        // A streaming scan should cost ~2 bytes per event packed.
        let mut t = CompactTrace::new();
        for i in 0..1000usize {
            t.touch_runs(&[i * 8..i * 8 + 8], Access::Read);
        }
        let packed = t.pack();
        assert!(packed.len() < 1000 * 4, "packed {} bytes", packed.len());
    }

    #[test]
    fn digest_distinguishes_traces() {
        let a = sample_trace();
        let mut b = sample_trace();
        b.touch_runs(&[0..1], Access::Read);
        assert_ne!(a.digest(), b.digest());
        let mut c = sample_trace();
        // Same runs, different mode on the last event.
        c.reset();
        c.touch_runs(&[0..8, 16..20], Access::Read);
        c.touch_runs(&[4..6], Access::Read);
        c.touch_runs(&[100..164], Access::Read);
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn empty_runs_are_preserved() {
        // Zero-length runs still count as declared messages under the
        // uncapped counting model; the trace must not drop them.
        let mut t = CompactTrace::new();
        t.touch_runs(&[3..3], Access::Read);
        assert_eq!(t.len(), 1);
        let mut c = CountingTracer::uncapped();
        t.replay(&mut c);
        assert_eq!(c.stats().messages, 1);
        assert_eq!(c.stats().words, 0);
        let back = CompactTrace::unpack(&t.pack()).unwrap();
        assert_eq!(back, t);
    }
}
