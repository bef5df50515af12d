//! `ooc_file`: `ooc::ooc_potrf_pipelined_with` on a real `FileMatrix`,
//! n = 3072, b = 128, 36 of 300 lower tiles resident, one I/O worker,
//! default lookahead, no sleep latency.
//!
//! Each pass creates the file afresh under `benchmark/out` (set-up, not
//! timed), times the factor call alone, then reads the factor back and
//! compares its digest with the synchronous driver's.  The traced run
//! wraps the file in [`TimedBackend`] — an `IoBackend` that times every
//! tile transfer and records it as a span on the I/O worker's row — and
//! runs the synchronous and in-memory legs interleaved with it.

use crate::common::{self, Outcome, PassClock, RunConfig};
use crate::spec::Metrics;
use crate::stats::{best, fast_decile, median, Tally};
use crate::{gen, host, probes, trace};
use cholcomm_core::bounds::seq_bandwidth_scale;
use cholcomm_core::faults::FaultStats;
use cholcomm_core::matrix::{lower_digest, KernelImpl, Matrix};
use cholcomm_core::ooc::pipeline::{model_overlap, ModelConfig};
use cholcomm_core::ooc::{
    ooc_potrf_pipelined_with, ooc_potrf_with, FileMatrix, IoBackend, IoStats, LatencyModel,
    PipelineConfig, PipelineStats,
};
use cholcomm_core::par::dag::potrf_dag_with;
use rayon::ThreadPoolBuilder;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const N: usize = 3072;
const B: usize = 128;
/// Resident tiles: 12% of the 300 lower tiles.
const CAPACITY: usize = 36;
const KERNEL: KernelImpl = KernelImpl::Fast;
const WARMUPS: usize = 2;
const ROWS: [&str; 2] = ["compute", "io worker"];

fn pipeline() -> PipelineConfig {
    PipelineConfig::new(CAPACITY)
        .with_kernel(KERNEL)
        .with_io_workers(1)
}

/// An `IoBackend` that times every tile transfer of the backend it
/// wraps, from outside, and records each as a span of `pass`.  Every
/// pipelined factorization in this file goes through it, traced or not.
pub struct TimedBackend<B: IoBackend> {
    inner: B,
    pass: trace::SpanId,
    pub read_ns: u64,
    pub write_ns: u64,
}

impl<B: IoBackend> TimedBackend<B> {
    pub fn new(inner: B, pass: trace::SpanId) -> Self {
        TimedBackend {
            inner,
            pass,
            read_ns: 0,
            write_ns: 0,
        }
    }

    pub fn into_inner(self) -> B {
        self.inner
    }
}

impl<B: IoBackend> IoBackend for TimedBackend<B> {
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
        let t0 = trace::now_ns();
        let tile = self.inner.read_tile(bi, bj);
        let t1 = trace::now_ns();
        self.read_ns += t1 - t0;
        trace::record(
            "ooc.read_tile",
            (bi * self.inner.nb() + bj) as u64,
            self.pass,
            t0,
            t1,
        );
        tile
    }
    fn write_tile(&mut self, bi: usize, bj: usize, tile: &Matrix<f64>) -> std::io::Result<()> {
        let t0 = trace::now_ns();
        let done = self.inner.write_tile(bi, bj, tile);
        let t1 = trace::now_ns();
        self.write_ns += t1 - t0;
        trace::record(
            "ooc.write_tile",
            (bi * self.inner.nb() + bj) as u64,
            self.pass,
            t0,
            t1,
        );
        done
    }
    fn stats(&self) -> IoStats {
        self.inner.stats()
    }
    fn path(&self) -> Option<&Path> {
        self.inner.path()
    }
    fn crash_after_panel(&self, k: usize) -> bool {
        self.inner.crash_after_panel(k)
    }
    fn storage_restored(&mut self) {
        self.inner.storage_restored();
    }
    fn fault_stats(&self) -> FaultStats {
        self.inner.fault_stats()
    }
    fn begin_panel(&mut self, k: usize) {
        self.inner.begin_panel(k);
    }
    fn barrier(&mut self) -> std::io::Result<()> {
        self.inner.barrier()
    }
    /// The pipelined driver scrubs once, after its last write has landed
    /// and just before it tears down its I/O workers: the one place a
    /// backend can wait out [`common::TEARDOWN_SETTLE`].
    fn scrub(&mut self) -> std::io::Result<()> {
        std::thread::sleep(common::TEARDOWN_SETTLE);
        self.inner.scrub()
    }
    fn latency_model(&self) -> LatencyModel {
        self.inner.latency_model()
    }
}

/// The scratch file.  `FileMatrix::create` unlinks it when the handle
/// drops — on success, on a failed verification, and on unwinding.
fn scratch() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    // Relaxed: the counter only makes names distinct.
    let k = NEXT.fetch_add(1, Ordering::Relaxed);
    common::out_dir().join(format!("ooc-{}-{k}.bin", std::process::id()))
}

fn create(a: &Matrix<f64>) -> FileMatrix {
    FileMatrix::create(&scratch(), a, B)
        .expect("the scratch file under benchmark/out can be written")
}

struct Setup {
    a: Matrix<f64>,
    /// Digest of the synchronous driver's factor at the same capacity
    /// and kernel; the pipelined driver must reproduce it bit for bit.
    want: u64,
}

impl Setup {
    fn new(seed: u64) -> Setup {
        let a = gen::spd(N, seed);
        let mut fm = create(&a);
        ooc_potrf_with(&mut fm, CAPACITY, KERNEL).expect("the generated matrix is SPD");
        let want = lower_digest(&fm.to_matrix().expect("read back the reference factor"));
        drop(fm);
        for _ in 0..WARMUPS {
            let mut fm = TimedBackend::new(create(&a), trace::NO_PARENT);
            ooc_potrf_pipelined_with(&mut fm, &pipeline()).expect("the generated matrix is SPD");
        }
        Setup { a, want }
    }
}

/// What one pipelined pass produced besides its time.
struct Pass {
    stats: PipelineStats,
    io: IoStats,
    read_ns: u64,
    write_ns: u64,
}

/// One pass: create the file, factor it with the pipelined driver (the
/// timed region), read it back and check the digest.
fn pass(s: &Setup, id: u64, clock: &mut PassClock, tally: &mut Tally) -> Pass {
    let root = trace::begin("pass", id, trace::NO_PARENT);
    let t0 = trace::now_ns();
    let mut fm = TimedBackend::new(create(&s.a), root);
    trace::record("ooc.FileMatrix::create", id, root, t0, trace::now_ns());
    let (result, t0, t1) = clock.time(|| ooc_potrf_pipelined_with(&mut fm, &pipeline()));
    trace::record("ooc.ooc_potrf_pipelined_with", id, root, t0, t1);
    let io = fm.stats();
    let (read_ns, write_ns) = (fm.read_ns, fm.write_ns);
    let mut fm = fm.into_inner();
    let read_back = fm.to_matrix();
    tally.record(result.is_ok() && read_back.is_ok_and(|l| lower_digest(&l) == s.want));
    trace::record("harness.readback_verify", id, root, t1, trace::now_ns());
    trace::end(root);
    Pass {
        stats: result.unwrap_or_default(),
        io,
        read_ns,
        write_ns,
    }
}

/// Every pass was held to the reference digest; hold the factor with
/// that digest to the residual bound.  Runs after the measurement, so
/// its temporaries stay out of the reported peak memory.
fn check_residual(s: &Setup, tally: &mut Tally) -> f64 {
    let mut fm = TimedBackend::new(create(&s.a), trace::NO_PARENT);
    let done = ooc_potrf_pipelined_with(&mut fm, &pipeline());
    let l = fm
        .into_inner()
        .to_matrix()
        .ok()
        .filter(|l| done.is_ok() && lower_digest(l) == s.want);
    common::check_residual(&s.a, l.as_ref(), tally)
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let (s, setup_s) = common::repeated_setup(|| Setup::new(cfg.seed));
    if cfg.traced {
        return run_traced(cfg, &s);
    }
    let (mut clock, mut tally) = (PassClock::default(), Tally::default());
    let start = trace::now_ns();
    while common::keep_going(start, cfg.seconds, clock.wall_ms.len(), 5) {
        pass(&s, clock.wall_ms.len() as u64, &mut clock, &mut tally);
    }
    let metrics = common::end_to_end(setup_s, &clock);
    check_residual(&s, &mut tally);
    Outcome::untraced(tally, metrics)
}

fn run_traced(cfg: &RunConfig, s: &Setup) -> Outcome {
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let (mut traced, mut plain) = (PassClock::default(), PassClock::default());
    let (mut sync_ms, mut inmem_ms) = (Vec::new(), Vec::new());
    let mut table = trace::SelfTime::new("pass");
    let mut last_spans = Vec::new();
    let mut shown: Option<Pass> = None;
    let one_thread = ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the vendored pool always builds");

    let start = trace::now_ns();
    while common::keep_going(start, cfg.seconds, plain.wall_ms.len(), 3) {
        let id = plain.wall_ms.len() as u64;
        trace::set_enabled(true);
        let p = pass(s, id, &mut traced, &mut tally);
        trace::set_enabled(false);
        last_spans = trace::drain();
        table.add(&last_spans);
        pass(s, id, &mut plain, &mut tally);
        shown = Some(p);

        // The same factorization without overlap, and without a file.
        let mut fm = create(&s.a);
        let t0 = trace::now_ns();
        let done = ooc_potrf_with(&mut fm, CAPACITY, KERNEL);
        sync_ms.push((trace::now_ns() - t0) as f64 / 1e6);
        tally.record(done.is_ok());
        drop(fm);
        let mut work = s.a.clone();
        let t0 = trace::now_ns();
        let done = one_thread.install(|| potrf_dag_with(&mut work, B, KERNEL));
        inmem_ms.push((trace::now_ns() - t0) as f64 / 1e6);
        tally.record(done.is_ok());
    }
    let resid = check_residual(s, &mut tally);
    let shown = shown.expect("the loop runs at least three rounds");

    m.set("host.nproc", host::nproc() as f64);
    m.set(
        "trace.overhead_pct",
        100.0 * (fast_decile(&traced.wall_ms) / fast_decile(&plain.wall_ms) - 1.0),
    );
    m.set("trace.unattributed_pct", table.unattributed_pct());
    probes::matrix_layer(&mut m);
    m.set("matrix.residual", resid);

    // The timing wrapper's view of the last traced pass.
    let traced_ms = *traced.wall_ms.last().expect("at least one traced pass");
    let (read_ms, write_ms) = (shown.read_ns as f64 / 1e6, shown.write_ns as f64 / 1e6);
    let mb = |bytes: u64| bytes as f64 / 1e6;
    m.set("ooc.io_busy_ms", read_ms + write_ms);
    m.set("ooc.io_busy_share", (read_ms + write_ms) / traced_ms);
    m.set("ooc.read_mb_s", mb(shown.io.bytes_read) / (read_ms / 1e3));
    m.set(
        "ooc.write_mb_s",
        mb(shown.io.bytes_written) / (write_ms / 1e3),
    );

    // Exact counts: the plan is data-oblivious and one I/O worker
    // completes its queue in order, so these repeat from run to run.
    let st = shown.stats;
    m.set("ooc.fetches", st.fetches as f64);
    m.set("ooc.prefetch_hit_rate", st.hit_rate());
    m.set("ooc.prefetch_stalls", st.prefetch_stalls as f64);
    m.set("ooc.evict_writes", st.evict_writes as f64);
    m.set("ooc.flush_writes", st.flush_writes as f64);
    m.set("ooc.bytes_read", shown.io.bytes_read as f64);
    m.set("ooc.bytes_written", shown.io.bytes_written as f64);
    m.set(
        "ooc.io_bytes",
        (shown.io.bytes_read + shown.io.bytes_written) as f64,
    );
    m.set("ooc.seeks", shown.io.seeks as f64);
    m.set("ooc.seek_distance", shown.io.seek_distance as f64);
    // Against the paper's n^3 / sqrt(M) scale (Corollary 2.3, constants
    // dropped): the bound with its constants, n^3 / (2 sqrt(2) sqrt(M)) - M
    // on an n/3 multiplication, is negative at this n and M, so vacuous.
    let words = (shown.io.bytes_read + shown.io.bytes_written) as f64 / 8.0;
    m.set(
        "ooc.words_vs_scale",
        words / seq_bandwidth_scale(N, CAPACITY * B * B),
    );

    // Ceiling probes: every tile once through the file.  The file was
    // just written, so this is page-cache-backed file throughput, not
    // device bandwidth.
    let t0 = trace::now_ns();
    let mut fm = create(&s.a);
    m.set("ooc.create_ms", (trace::now_ns() - t0) as f64 / 1e6);
    let nb = fm.nb();
    let tile_mb = mb((B * B * 8) as u64) * (nb * nb) as f64;
    let t0 = trace::now_ns();
    let tiles: Vec<Matrix<f64>> = (0..nb * nb)
        .map(|t| fm.read_tile(t % nb, t / nb).expect("probe read"))
        .collect();
    m.set(
        "ooc.file_read_mb_s",
        tile_mb / ((trace::now_ns() - t0) as f64 / 1e9),
    );
    let t0 = trace::now_ns();
    for (t, tile) in tiles.iter().enumerate() {
        fm.write_tile(t % nb, t / nb, tile).expect("probe write");
    }
    m.set(
        "ooc.file_write_mb_s",
        tile_mb / ((trace::now_ns() - t0) as f64 / 1e9),
    );
    let t0 = trace::now_ns();
    std::hint::black_box(fm.to_matrix().expect("probe readback"));
    m.set("ooc.readback_ms", (trace::now_ns() - t0) as f64 / 1e6);
    drop(fm);

    // Paired legs, and the overlap model fed what this run measured:
    // mean transfer latencies from the wrapper, compute rate from the
    // in-memory leg.
    let (time_pipe, time_sync, time_inmem) = (
        fast_decile(&plain.wall_ms),
        fast_decile(&sync_ms),
        fast_decile(&inmem_ms),
    );
    let overlap = time_sync / time_pipe;
    let flops = (N as f64).powi(3) / 3.0;
    let model = model_overlap(&ModelConfig {
        n: N,
        b: B,
        capacity_tiles: CAPACITY,
        io_workers: 1,
        lookahead: pipeline().lookahead,
        latency: LatencyModel {
            read_us: (shown.read_ns as f64 / 1e3 / (shown.io.reads as f64).max(1.0)).round() as u64,
            write_us: (shown.write_ns as f64 / 1e3 / (shown.io.writes as f64).max(1.0)).round()
                as u64,
            ..LatencyModel::none()
        },
        flops_per_us: flops / (time_inmem * 1e3),
    });
    m.set("ooc.pass_ms", time_pipe);
    m.set("ooc.best_ms", best(&plain.wall_ms));
    m.set("ooc.median_ms", median(&plain.wall_ms));
    m.set("ooc.sync_ms", time_sync);
    m.set("ooc.overlap_speedup", overlap);
    m.set("ooc.model_overlap_speedup", model.speedup);
    m.set("ooc.model_error", model.speedup / overlap - 1.0);
    m.set("ooc.inmem_ms", time_inmem);
    m.set("ooc.efficiency", time_inmem / time_pipe);

    let events = trace::chrome_events(&last_spans, cfg.workload, &ROWS);
    Outcome {
        tally,
        metrics: m,
        explain: table.render(&ROWS),
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_backend_is_transparent_and_times_every_transfer() {
        let a = gen::spd(96, 9);
        let mut plain = FileMatrix::create(&scratch(), &a, 32).unwrap();
        ooc_potrf_with(&mut plain, 4, KERNEL).unwrap();
        let mut timed = TimedBackend::new(
            FileMatrix::create(&scratch(), &a, 32).unwrap(),
            trace::NO_PARENT,
        );
        let cfg = PipelineConfig::new(4)
            .with_kernel(KERNEL)
            .with_io_workers(1);
        ooc_potrf_pipelined_with(&mut timed, &cfg).unwrap();
        assert_eq!(timed.stats().bytes_read, plain.stats().bytes_read);
        assert_eq!(timed.stats().bytes_written, plain.stats().bytes_written);
        assert!(timed.read_ns > 0 && timed.write_ns > 0);
        let (got, want) = (
            timed.into_inner().to_matrix().unwrap(),
            plain.to_matrix().unwrap(),
        );
        assert_eq!(lower_digest(&got), lower_digest(&want));
    }

    #[test]
    fn scratch_file_is_gone_after_a_failed_verification() {
        let a = gen::spd(64, 2);
        let path = scratch();
        {
            let fm = FileMatrix::create(&path, &a, 32).unwrap();
            assert!(path.exists());
            // A verification failure drops the handle without factoring.
            drop(fm);
        }
        assert!(!path.exists());
    }
}
