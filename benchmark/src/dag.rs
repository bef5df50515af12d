//! `dag_large` and `dag_fine`: `par::dag::potrf_dag_with` on the
//! work-stealing pool, the same call at two grains.
//!
//! The untraced run times the `p`-thread factorization only.  The traced
//! run alternates a 1-thread pool, the `p`-thread pool with spans, and
//! the `p`-thread pool without (so drift hits all three alike), and adds
//! the scheduler's model, its kernel floor and the plain sequential
//! baseline next to the measured times.

use crate::common::{self, Outcome, PassClock, RunConfig};
use crate::spec::{Metrics, DAG_LARGE};
use crate::stats::{best, fast_decile, median, percentile, Tally};
use crate::{gen, host, probes, trace};
use cholcomm_core::cachesim::NullTracer;
use cholcomm_core::layout::{ColMajor, Laid};
use cholcomm_core::matrix::{lower_digest, KernelImpl, Matrix};
use cholcomm_core::par::dag::{potrf_dag_with, simulate};
use cholcomm_core::seq::lapack::potrf_blocked_with;
use rayon::{ThreadPool, ThreadPoolBuilder};

const KERNEL: KernelImpl = KernelImpl::Fast;
const WARMUPS: usize = 2;
const ROWS: [&str; 1] = ["pool caller"];

/// Matrix order and tile size of a DAG workload.
pub fn shape(workload: &str) -> (usize, usize) {
    if workload == DAG_LARGE {
        (2048, 128)
    } else {
        (1024, 32)
    }
}

/// Pool size: every core, at most 4 — never more runnable threads than
/// cores (the caller blocks while the pool works).
pub fn pool_threads() -> usize {
    host::nproc().min(4)
}

/// FACTOR, SOLVE and UPDATE task counts of the tile DAG on an
/// `nb x nb` tile grid.
pub fn op_counts(nb: usize) -> (usize, usize, usize) {
    let updates = (0..nb).map(|j| j * (nb - j)).sum();
    (nb, nb * (nb - 1) / 2, updates)
}

/// A pool and the factor digest its warm-up passes produced.
struct Leg {
    pool: ThreadPool,
    want: u64,
}

struct Setup {
    a: Matrix<f64>,
    b: usize,
    /// The `p`-thread leg every run times.
    many: Leg,
    /// The 1-thread leg; only the traced run needs it.
    one: Option<Leg>,
}

fn factor(a: &Matrix<f64>, b: usize, pool: &ThreadPool) -> Option<Matrix<f64>> {
    let mut work = a.clone();
    pool.install(|| potrf_dag_with(&mut work, b, KERNEL))
        .ok()
        .map(|()| work)
}

impl Setup {
    fn new(n: usize, b: usize, seed: u64, traced: bool) -> Setup {
        let a = gen::spd(n, seed);
        let leg = |threads: usize| {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("the vendored pool always builds");
            let mut want = 0;
            for _ in 0..WARMUPS {
                want = factor(&a, b, &pool).map_or(0, |l| lower_digest(&l));
            }
            Leg { pool, want }
        };
        let (many, one) = (leg(pool_threads()), traced.then(|| leg(1)));
        Setup { a, b, many, one }
    }

    /// One pass: clone the input, factor it on the leg's pool (the timed
    /// region), check the factor's digest.
    fn pass(&self, leg: &Leg, id: u64, clock: &mut PassClock, tally: &mut Tally) {
        let root = trace::begin("pass", id, trace::NO_PARENT);
        let t0 = trace::now_ns();
        let mut work = self.a.clone();
        trace::record("harness.clone_input", id, root, t0, trace::now_ns());
        let (result, t0, t1) = clock.time(|| {
            leg.pool
                .install(|| potrf_dag_with(&mut work, self.b, KERNEL))
        });
        trace::record("par.dag.potrf_dag_with", id, root, t0, t1);
        tally.record(result.is_ok() && lower_digest(&work) == leg.want);
        trace::record("harness.verify_digest", id, root, t1, trace::now_ns());
        trace::end(root);
    }

    /// Every pass was held to the leg's digest; hold the factor with that
    /// digest to the residual bound.  Runs after the measurement, so its
    /// temporaries stay out of the reported peak memory.
    fn check_residual(&self, leg: &Leg, tally: &mut Tally) -> f64 {
        let l = factor(&self.a, self.b, &leg.pool).filter(|l| lower_digest(l) == leg.want);
        common::check_residual(&self.a, l.as_ref(), tally)
    }
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let (n, b) = shape(cfg.workload);
    let (s, setup_s) = common::repeated_setup(|| Setup::new(n, b, cfg.seed, cfg.traced));
    if cfg.traced {
        return run_traced(cfg, &s);
    }
    let (mut clock, mut tally) = (PassClock::default(), Tally::default());
    let start = trace::now_ns();
    while common::keep_going(start, cfg.seconds, clock.wall_ms.len(), 10) {
        s.pass(&s.many, clock.wall_ms.len() as u64, &mut clock, &mut tally);
    }
    let metrics = common::end_to_end(setup_s, &clock);
    s.check_residual(&s.many, &mut tally);
    Outcome::untraced(tally, metrics)
}

fn run_traced(cfg: &RunConfig, s: &Setup) -> Outcome {
    let (n, b, p) = (s.a.rows(), s.b, pool_threads());
    let one = s
        .one
        .as_ref()
        .expect("traced set-up builds the 1-thread leg");
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let (mut t1, mut tp_traced, mut tp_plain) = (
        PassClock::default(),
        PassClock::default(),
        PassClock::default(),
    );
    let mut table = trace::SelfTime::new("pass");
    let mut last_spans = Vec::new();

    let start = trace::now_ns();
    while common::keep_going(start, cfg.seconds, tp_plain.wall_ms.len(), 5) {
        let id = tp_plain.wall_ms.len() as u64;
        trace::set_enabled(true);
        s.pass(one, 2 * id, &mut t1, &mut tally);
        s.pass(&s.many, 2 * id + 1, &mut tp_traced, &mut tally);
        trace::set_enabled(false);
        last_spans = trace::drain();
        table.add(&last_spans);
        s.pass(&s.many, id, &mut tp_plain, &mut tally);
    }
    s.check_residual(one, &mut tally);
    let resid = s.check_residual(&s.many, &mut tally);

    m.set("host.nproc", host::nproc() as f64);
    m.set(
        "trace.overhead_pct",
        100.0 * (fast_decile(&tp_traced.wall_ms) / fast_decile(&tp_plain.wall_ms) - 1.0),
    );
    m.set("trace.unattributed_pct", table.unattributed_pct());
    probes::matrix_layer(&mut m);
    probes::rayon_layer(&mut m, &s.many.pool);
    m.set("matrix.residual", resid);

    // Both pool sizes were timed interleaved; the untraced p-thread leg
    // is the one the end-to-end run reports.
    let (time_1, time_p) = (fast_decile(&t1.wall_ms), fast_decile(&tp_plain.wall_ms));
    let gflop = (n as f64).powi(3) / 3.0 / 1e9;
    let model = simulate(n, b, p);
    let measured = time_1 / time_p;
    m.set("par.dag.tasks", model.tasks as f64);
    m.set("par.dag.model_speedup", model.speedup);
    m.set("par.dag.measured_speedup", measured);
    m.set("par.dag.scaling_efficiency", measured / p as f64);
    m.set("par.dag.model_error", model.speedup / measured - 1.0);
    m.set("par.dag.gflops_1t", gflop / (time_1 / 1e3));
    m.set("par.dag.gflops_pt", gflop / (time_p / 1e3));
    m.set("par.dag.pass_ms", time_p);
    m.set("par.dag.best_ms", best(&tp_plain.wall_ms));
    m.set("par.dag.median_ms", median(&tp_plain.wall_ms));
    m.set("par.dag.p90_ms", percentile(&tp_plain.wall_ms, 0.90));
    m.set("par.dag.serial_ms", time_1);

    // The run with free scheduling: every task at its stand-alone tile
    // kernel time, nothing else.
    let rate = |kernel: &str| {
        let name = format!("matrix.{kernel}.b{b}.gflops");
        m.get(&name)
            .expect("matrix_layer measured every tile kernel at both tile sizes")
    };
    let (factors, solves, updates) = op_counts(n / b);
    let fb = (b as f64).powi(3);
    let floor_ms = (factors as f64 * fb / 3.0 / rate("potf2")
        + solves as f64 * fb / rate("trsm")
        + updates as f64 * 2.0 * fb / rate("gemm_nt"))
        / 1e6;
    m.set("par.dag.kernel_floor_ms", floor_ms);
    m.set("par.dag.overhead_ms", time_1 - floor_ms);
    m.set(
        "par.dag.overhead_us_per_task",
        (time_1 - floor_ms) * 1e3 / model.tasks as f64,
    );

    // The plain single-threaded baseline: same n, b and engine through
    // the sequential blocked driver.
    let mut seq_ms = Vec::new();
    for _ in 0..3 {
        let mut laid = Laid::from_matrix(&s.a, ColMajor::square(n));
        let t0 = trace::now_ns();
        let done = potrf_blocked_with(&mut laid, &mut NullTracer, b, None, KERNEL);
        seq_ms.push((trace::now_ns() - t0) as f64 / 1e6);
        tally.record(done.is_ok());
    }
    m.set("seq.potrf_blocked.ms", best(&seq_ms));
    m.set("par.dag.vs_seq", best(&seq_ms) / time_p);

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
    fn op_counts_agree_with_the_scheduler_model() {
        for (n, b) in [(2048usize, 128usize), (1024, 32), (96, 32), (128, 128)] {
            let (f, s, u) = op_counts(n / b);
            assert_eq!(f + s + u, simulate(n, b, 1).tasks, "n={n} b={b}");
        }
    }

    #[test]
    fn a_wrong_reference_digest_fails_the_pass() {
        let mut s = Setup::new(64, 32, 1, false);
        let (mut clock, mut tally) = (PassClock::default(), Tally::default());
        s.pass(&s.many, 0, &mut clock, &mut tally);
        assert!(s.check_residual(&s.many, &mut tally) <= common::residual_bound(64));
        assert_eq!(tally.failed_fraction(), 0.0);
        s.many.want ^= 1;
        s.pass(&s.many, 1, &mut clock, &mut tally);
        s.check_residual(&s.many, &mut tally);
        assert_eq!(
            tally,
            Tally {
                attempted: 4,
                failed: 2
            }
        );
    }
}
