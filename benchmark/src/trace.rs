//! Spans recorded from the benchmark's own files, around the calls into
//! each layer: kept in memory, written out as Chrome trace events when
//! the run ends, and folded into a per-thread self-time table.
//!
//! Timestamps come from [`now_ns`] whether tracing is on or not (the
//! untraced run needs them for pass times); [`record`] and [`begin`]
//! store nothing while tracing is off, so an untraced run pays two
//! atomic loads per call site and no allocation.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::spec::WORKLOADS;

/// Index of a span in the recording; the parent link of its children.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Row in the timeline: 0 is the thread that drives the workload
    /// (client / pool caller / compute), 1 the I/O worker.
    pub tid: u32,
    /// The request or pass this span belongs to.
    pub id: u64,
    pub parent: SpanId,
    pub start_ns: u64,
    pub end_ns: u64,
}

static ON: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static DRIVER: Cell<bool> = const { Cell::new(false) };
}

/// Row 0 for the driving thread, row 1 for any thread a layer spawned.
/// The only such thread that records spans is the out-of-core I/O
/// worker, a fresh OS thread on every pass — one shared row keeps its
/// passes on one line of the timeline.
fn tid() -> u32 {
    u32::from(!DRIVER.with(Cell::get))
}

fn spans() -> std::sync::MutexGuard<'static, Vec<Span>> {
    SPANS
        .lock()
        .expect("a thread panicked while recording a span")
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Switch recording on or off.  Call from the driving thread: the
/// caller becomes timeline row 0.
pub fn set_enabled(on: bool) {
    DRIVER.with(|d| d.set(true));
    ON.store(on, Ordering::SeqCst);
}

fn enabled() -> bool {
    ON.load(Ordering::SeqCst)
}

/// Open a span whose children need its id; close it with [`end`].
pub fn begin(name: &'static str, id: u64, parent: SpanId) -> SpanId {
    if !enabled() {
        return NO_PARENT;
    }
    let start_ns = now_ns();
    let mut all = spans();
    all.push(Span {
        name,
        tid: tid(),
        id,
        parent,
        start_ns,
        end_ns: start_ns,
    });
    (all.len() - 1) as SpanId
}

pub fn end(span: SpanId) {
    if span != NO_PARENT {
        let end_ns = now_ns();
        spans()[span as usize].end_ns = end_ns;
    }
}

/// Record a finished span from timestamps the caller already took.
pub fn record(name: &'static str, id: u64, parent: SpanId, start_ns: u64, end_ns: u64) {
    if enabled() {
        spans().push(Span {
            name,
            tid: tid(),
            id,
            parent,
            start_ns,
            end_ns,
        });
    }
}

/// Take everything recorded so far, leaving the recording empty.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *spans())
}

/// Self time per `(tid, span name)`: a span's duration minus the part
/// of it covered by its children on the same thread.  Children on other
/// threads (an I/O worker's reads under the compute thread's pass) run
/// concurrently and take nothing from their parent.
pub fn self_times(spans: &[Span]) -> BTreeMap<(u32, &'static str), u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT && spans[s.parent as usize].tid == s.tid {
            covered[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut table = BTreeMap::new();
    for (s, covered) in spans.iter().zip(covered) {
        *table.entry((s.tid, s.name)).or_insert(0) +=
            (s.end_ns - s.start_ns).saturating_sub(covered);
    }
    table
}

/// Self time summed over every traced pass of a run: the `--explain`
/// table.
#[derive(Default)]
pub struct SelfTime {
    root: &'static str,
    passes: usize,
    wall_ns: u64,
    table: BTreeMap<(u32, &'static str), u64>,
}

impl SelfTime {
    /// A table whose passes are the spans named `root`.
    pub fn new(root: &'static str) -> Self {
        SelfTime {
            root,
            ..SelfTime::default()
        }
    }

    /// Fold in the spans of one or more whole passes.
    pub fn add(&mut self, spans: &[Span]) {
        for s in spans.iter().filter(|s| s.name == self.root) {
            self.passes += 1;
            self.wall_ns += s.end_ns - s.start_ns;
        }
        for (key, ns) in self_times(spans) {
            *self.table.entry(key).or_insert(0) += ns;
        }
    }

    /// Share (percent) of the pass wall that row 0 could not attribute
    /// to any span below the root: the root span's own self time.
    pub fn unattributed_pct(&self) -> f64 {
        let own = self.table.get(&(0, self.root)).copied().unwrap_or(0);
        100.0 * own as f64 / self.wall_ns.max(1) as f64
    }

    /// Per thread row, each span's total self time and its share of the
    /// pass wall.  Row 0 sums to the pass wall by construction; other
    /// rows get an `idle` line making up the rest.
    pub fn render(&self, row_names: &[&str]) -> String {
        let wall = self.wall_ns;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "  {} traced passes, {:.3} ms of pass wall",
            self.passes,
            wall as f64 / 1e6
        );
        let rows: std::collections::BTreeSet<u32> =
            self.table.keys().map(|&(tid, _)| tid).collect();
        for row in rows {
            let label = row_names.get(row as usize).copied().unwrap_or("worker");
            let _ = writeln!(out, "  row {row} ({label})");
            let mut lines: Vec<(&str, u64)> = self
                .table
                .iter()
                .filter(|((t, _), _)| *t == row)
                .map(|((_, n), &ns)| (*n, ns))
                .collect();
            let busy: u64 = lines.iter().map(|&(_, ns)| ns).sum();
            if row != 0 {
                lines.push(("idle", wall.saturating_sub(busy)));
            }
            lines.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
            for (name, ns) in lines {
                let _ = writeln!(
                    out,
                    "    {name:<28} {:>12.3} ms  {:>6.2}%",
                    ns as f64 / 1e6,
                    100.0 * ns as f64 / wall.max(1) as f64
                );
            }
        }
        out
    }
}

/// Spans exported per workload.  Parents precede their children in the
/// recording, so a prefix keeps every parent link valid.
const MAX_EXPORTED: usize = 50_000;

/// Chrome trace-event JSON (loads in `chrome://tracing` and Perfetto):
/// one complete event per span, one row per thread, one process per
/// workload.  Each event ends in a comma; the writer of the file closes
/// the array.
pub fn chrome_events(spans: &[Span], workload: &str, row_names: &[&str]) -> String {
    let spans = &spans[..spans.len().min(MAX_EXPORTED)];
    let pid = WORKLOADS
        .iter()
        .position(|w| w.name == workload)
        .unwrap_or(WORKLOADS.len());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": 0, \"args\": {{\"name\": \"{workload}\"}}}},"
    );
    let rows: std::collections::BTreeSet<u32> = spans.iter().map(|s| s.tid).collect();
    for row in rows {
        let label = row_names.get(row as usize).copied().unwrap_or("worker");
        let _ = writeln!(
            out,
            "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": {row}, \"args\": {{\"name\": \"{label}\"}}}},"
        );
    }
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        let _ = writeln!(
            out,
            "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": {pid}, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"span\": {i}, \"parent\": {parent}, \"id\": {}}}}},",
            s.name,
            s.tid,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, tid: u32, parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            tid,
            id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_same_thread_children_only() {
        let spans = [
            span("pass", 0, NO_PARENT, 0, 100),
            span("factor", 0, 0, 10, 90),
            span("read", 1, 1, 20, 50), // other thread: takes nothing
            span("verify", 0, 0, 90, 98),
        ];
        let t = self_times(&spans);
        assert_eq!(t[&(0, "pass")], 12);
        assert_eq!(t[&(0, "factor")], 80);
        assert_eq!(t[&(0, "verify")], 8);
        assert_eq!(t[&(1, "read")], 30);
        // Row 0 sums to the pass wall.
        let row0: u64 = t
            .iter()
            .filter(|((tid, _), _)| *tid == 0)
            .map(|(_, &v)| v)
            .sum();
        assert_eq!(row0, 100);
        let mut table = SelfTime::new("pass");
        table.add(&spans);
        table.add(&spans);
        assert_eq!(table.unattributed_pct(), 12.0);
        let text = table.render(&["compute", "io"]);
        assert!(text.contains("2 traced passes, 0.000 ms"), "{text}");
        assert!(
            text.contains("idle") && text.contains("row 1 (io)"),
            "{text}"
        );
    }

    #[test]
    fn chrome_export_has_one_event_per_span_and_named_rows() {
        let spans = [
            span("pass", 0, NO_PARENT, 1_000, 3_500),
            span("read", 1, 0, 1_500, 2_000),
        ];
        let json = chrome_events(&spans, "ooc_file", &["compute", "io-worker"]);
        assert!(json.contains("\"pid\": 4"));
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 2);
        assert!(json.contains("\"ts\": 1.000, \"dur\": 2.500"));
        assert!(json.contains("\"args\": {\"name\": \"io-worker\"}"));
        assert!(json.contains("\"parent\": 0"));
    }
}
