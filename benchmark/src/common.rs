//! What the five workloads share: the run's parameters and result, the
//! repeated set-up, the per-pass wall/CPU clock, and the residual check.

use crate::host;
use crate::spec::Metrics;
use crate::stats::{fast_decile, median, Tally};
use crate::trace::now_ns;
use cholcomm_core::matrix::{norms::fro_norm, KernelImpl, Matrix};
use std::path::PathBuf;
use std::time::Duration;

/// One invocation's parameters, as the driver passes them.
pub struct RunConfig {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// What a workload hands back: operations attempted/failed (a failed
/// verification is a failed operation), the metrics it measured, and —
/// from a traced run — the text of its self-time table and its spans as
/// Chrome trace events.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Metrics,
    pub explain: String,
    pub events: String,
}

impl Outcome {
    /// The outcome of an untraced run: no table, no spans.
    pub fn untraced(tally: Tally, metrics: Metrics) -> Outcome {
        Outcome {
            tally,
            metrics,
            explain: String::new(),
            events: String::new(),
        }
    }
}

/// How long a workload waits before it tears down a channel whose peer
/// thread has just gone idle.
///
/// The vendored `crossbeam` channel's last `Sender::drop` decrements
/// `senders` and notifies without holding the queue mutex, so a receiver
/// that has read `senders == 1` but not yet parked misses the disconnect
/// and blocks for ever; `Service::shutdown` (joining its shards) and
/// `par::io::io_scope` (joining its workers) then never return.  This
/// benchmark hit it about once in 5 000 service shutdowns.  The pause
/// lets the peer park first, which closes the window unless the peer is
/// descheduled inside it; at 0.1% of a pass it does not show in any
/// metric.  Remove it when the channel is fixed.
pub const TEARDOWN_SETTLE: Duration = Duration::from_micros(500);

/// Set-ups per run.  The reported `setup_s` is their median, so one
/// preempted set-up does not move it.
const SETUPS: usize = 3;

/// Set up `SETUPS` times from scratch, keep the last, and return it with
/// the median set-up time in seconds.  A set-up is everything between
/// process start and the first timed pass: input generation, reference
/// digests, pool/service/file creation, warm-up passes.
pub fn repeated_setup<S>(make: impl Fn() -> S) -> (S, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take()); // release the previous set-up's memory and files first
        let t0 = now_ns();
        last = Some(make());
        times.push((now_ns() - t0) as f64 / 1e9);
    }
    (last.expect("SETUPS is at least 1"), median(&times))
}

/// Wall time, process-CPU time and peak resident set of each timed
/// region.
#[derive(Default)]
pub struct PassClock {
    pub wall_ms: Vec<f64>,
    pub cpu_ms: Vec<f64>,
    pub peak_rss_mb: Vec<f64>,
}

impl PassClock {
    /// Run `f` and record how long it took, how much CPU the whole
    /// process burned meanwhile, and the highest resident set it reached.
    /// Returns `f`'s result with the start and end timestamps (for the
    /// span of the same region).
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, u64, u64) {
        host::reset_peak_rss();
        let (cpu0, t0) = (host::process_cpu_ns(), now_ns());
        let out = f();
        let (t1, cpu1) = (now_ns(), host::process_cpu_ns());
        self.wall_ms.push((t1 - t0) as f64 / 1e6);
        self.cpu_ms.push((cpu1 - cpu0) as f64 / 1e6);
        self.peak_rss_mb.push(host::peak_rss_mb());
        (out, t0, t1)
    }
}

/// The end-to-end metrics every workload reports.
pub fn end_to_end(setup_s: f64, clock: &PassClock) -> Metrics {
    let mut m = Metrics::default();
    m.set("setup_s", setup_s);
    m.set("pass_ms", fast_decile(&clock.wall_ms));
    m.set("cpu_ms", fast_decile(&clock.cpu_ms));
    // The mean, not a quantile: a served pass peaks at one of a few
    // levels 10% apart, depending on how its threads' frees interleave
    // in the allocator, and any quantile flips between them from run to
    // run.
    let passes = clock.peak_rss_mb.len().max(1) as f64;
    m.set(
        "peak_rss_mb",
        clock.peak_rss_mb.iter().sum::<f64>() / passes,
    );
    m
}

/// `true` until `seconds` have passed since `start_ns`, and in any case
/// until `done < min_passes`.
pub fn keep_going(start_ns: u64, seconds: f64, done: usize, min_passes: usize) -> bool {
    done < min_passes || ((now_ns() - start_ns) as f64) < seconds * 1e9
}

/// `‖A − L·Lᵀ‖_F / ‖A‖_F` with `L` the lower triangle of `factor`,
/// through the fast SYRK (the reference `cholesky_residual` is a
/// triple loop: minutes at n = 3072).
pub fn residual(a: &Matrix<f64>, factor: &Matrix<f64>) -> f64 {
    let l = factor.lower_triangle().expect("factor is square");
    let mut r = a.clone();
    KernelImpl::Fast.syrk_lower(&mut r, &l);
    let n = a.rows();
    let mut sum = 0.0;
    for j in 0..n {
        sum += r[(j, j)] * r[(j, j)];
        for i in (j + 1)..n {
            sum += 2.0 * r[(i, j)] * r[(i, j)];
        }
    }
    sum.sqrt() / fro_norm(a).max(f64::MIN_POSITIVE)
}

/// The bound the verification holds a factorization's residual to.
pub fn residual_bound(n: usize) -> f64 {
    8.0 * n as f64 * f64::EPSILON
}

/// Hold a pass's factor (`None`: no pass verified) to the residual bound,
/// as one more operation of the run.  Returns the residual, 0 without a
/// factor.
pub fn check_residual(a: &Matrix<f64>, factor: Option<&Matrix<f64>>, tally: &mut Tally) -> f64 {
    let r = factor.map(|l| residual(a, l));
    tally.record(r.is_some_and(|r| r <= residual_bound(a.rows())));
    r.unwrap_or(0.0)
}

/// `benchmark/out`, created on demand: the only place the benchmark
/// writes (trace files, the out-of-core scratch file).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    std::fs::create_dir_all(&dir).expect("benchmark/out can be created");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn residual_is_tiny_for_a_true_factor_and_large_for_a_wrong_one() {
        let a = gen::spd(160, 3);
        let mut l = a.clone();
        KernelImpl::Fast.potf2(&mut l).unwrap();
        assert!(residual(&a, &l) <= residual_bound(160));
        // Agrees with the reference residual.
        let want = cholcomm_core::matrix::norms::cholesky_residual(&a, &l);
        assert!((residual(&a, &l) - want).abs() <= 1e-15);
        l[(159, 3)] += 1.0;
        assert!(residual(&a, &l) > residual_bound(160));
    }

    #[test]
    fn setup_runs_three_times_and_keeps_one() {
        let calls = std::cell::Cell::new(0);
        let (last, secs) = repeated_setup(|| {
            calls.set(calls.get() + 1);
            calls.get()
        });
        assert_eq!((calls.get(), last), (3, 3));
        assert!(secs >= 0.0);
    }
}
