//! `serve_small` and `serve_cached`: one client thread driving a fresh
//! `serve::Service` through a fixed request stream in closed-loop waves
//! (submit a wave, flush the batcher, wait for every ticket).
//!
//! The two workloads use the same service the other way round:
//! `serve_small` turns batching on and the factor cache off, so
//! admission, the batcher and the batch kernels do the work;
//! `serve_cached` leaves batching off and the cache on over 12 hot keys,
//! so cache hits, the resumable engine and job building dominate.  The
//! traced run adds the paired leg with the mechanism switched off, the
//! stand-alone cost of building and factoring the same stream outside
//! the service, and the service's own report counters.

use crate::common::{self, Outcome, PassClock, RunConfig};
use crate::spec::{Metrics, SERVE_SMALL};
use crate::stats::{fast_decile, median, percentile_sorted, Tally};
use crate::{host, probes, trace};
use cholcomm_core::faults::FaultPlan;
use cholcomm_core::matrix::{lower_digest, KernelImpl, Matrix};
use cholcomm_core::serve::{
    bucket_of, build, factor_batch, factor_resumable, BatchConfig, CacheStats, Checkpoint,
    Counters, FactorOutcome, JobKind, PanelControl, Request, Service, ServiceConfig, ShardConfig,
    Watermarks, Workload,
};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;

const KERNEL: KernelImpl = KernelImpl::FastStrict;
const WARMUPS: usize = 2;
const ROWS: [&str; 1] = ["client"];

type Triple = (JobKind, u64, usize);

/// What distinguishes the two serve workloads.
#[derive(Clone, Copy)]
struct Shape {
    requests: usize,
    keys: usize,
    n_min: usize,
    n_max: usize,
    /// Requests outstanding per closed-loop wave.
    in_flight: usize,
    batching: bool,
    cache_capacity: usize,
    /// Factor/Solve alternating (the batchable kinds) instead of the
    /// generator's mix of all four.
    batchable_kinds_only: bool,
}

fn shape(workload: &str) -> Shape {
    if workload == SERVE_SMALL {
        Shape {
            requests: 50_000,
            keys: 256,
            n_min: 8,
            n_max: 32,
            in_flight: 256,
            batching: true,
            cache_capacity: 0,
            batchable_kinds_only: true,
        }
    } else {
        Shape {
            requests: 4_000,
            keys: 12,
            n_min: 16,
            n_max: 96,
            in_flight: 16,
            batching: false,
            cache_capacity: ServiceConfig::default().shard.cache_capacity,
            batchable_kinds_only: false,
        }
    }
}

/// One client thread plus the shards never exceed the core count.
fn shards() -> usize {
    host::nproc().saturating_sub(1).max(1)
}

/// The request stream.  Its shape — sizes, kinds, key popularity,
/// arrival times — is the same for every seed, so every seed asks for
/// the same amount of work; the seed picks which problems the keys stand
/// for, and so every matrix and right-hand side in the run.
fn stream(shape: &Shape, seed: u64) -> Vec<Request> {
    let mut requests = Workload {
        seed: 1,
        requests: shape.requests,
        keys: shape.keys,
        zipf_s: 1.1,
        n_min: shape.n_min,
        n_max: shape.n_max,
        mean_gap_us: 1,
        burst_every: 64,
        burst_len: 16,
        // Far above any queueing delay: no request is ever cancelled.
        deadline_factor: 1_000_000,
    }
    .generate();
    for (i, r) in requests.iter_mut().enumerate() {
        r.key += seed.wrapping_mul(1 << 20);
        if shape.batchable_kinds_only {
            r.kind = if i % 2 == 0 {
                JobKind::Factor
            } else {
                JobKind::Solve
            };
        }
    }
    requests
}

/// The service under test.  Watermarks are wide open so admission never
/// sheds: no operation of these workloads is allowed to fail.
fn config(batching: bool, cache_capacity: usize) -> ServiceConfig {
    let base = ServiceConfig::default();
    ServiceConfig {
        shards: shards(),
        watermarks: Watermarks::bounded_by(1_000_000_000),
        shard: ShardConfig {
            kernel: KERNEL,
            cache_capacity,
            ..base.shard
        },
        batch: BatchConfig {
            enabled: batching,
            ..BatchConfig::default()
        },
    }
}

/// The factor digest a direct, service-free factorization of the
/// request's problem produces.
fn direct_digest((kind, key, n): Triple, block: usize) -> u64 {
    let done = factor_resumable(
        Checkpoint::fresh(build(kind, key, n).a),
        block,
        KERNEL,
        &mut |_, _| PanelControl::Continue,
    );
    match done {
        Ok(FactorOutcome::Done(factor)) => lower_digest(&factor),
        other => {
            panic!("reference factorization of {kind:?} key={key} n={n} did not finish: {other:?}")
        }
    }
}

struct Setup {
    shape: Shape,
    requests: Vec<Request>,
    /// Reference digest of every distinct `(kind, key, n)` in the stream.
    want: HashMap<Triple, u64>,
    seed: u64,
}

/// What one pass through the stream produced.
struct Pass {
    /// Median and 99th percentile of the per-request latency (just
    /// before `submit` to `wait` returning), µs.  With 50 000 (4 000)
    /// samples a pass, 500 (40) lie beyond the 99th percentile.  A failed
    /// request still has its latency here; the tally counts it as
    /// missing any limit.
    latency_p50_us: f64,
    latency_p99_us: f64,
    submit_ns: u64,
    flush_ns: u64,
    wait_ns: u64,
    /// Latest virtual completion minus earliest virtual arrival.
    virt_makespan_us: u64,
    /// From the service's own report.
    virt_p99_us: u64,
    counters: Counters,
    cache: CacheStats,
}

impl Setup {
    fn new(shape: Shape, seed: u64) -> Setup {
        let requests = stream(&shape, seed);
        let block = ServiceConfig::default().shard.block;
        let mut want = HashMap::new();
        for r in &requests {
            want.entry((r.kind, r.key, r.n))
                .or_insert_with_key(|&t| direct_digest(t, block));
        }
        let s = Setup {
            shape,
            requests,
            want,
            seed,
        };
        for _ in 0..WARMUPS {
            s.pass(
                config(shape.batching, shape.cache_capacity),
                0,
                &mut PassClock::default(),
                &mut Tally::default(),
            );
        }
        s
    }

    /// One pass: the whole stream through a fresh service.  The timed
    /// region runs from `Service::start` to the end of `shutdown`; the
    /// responses are verified after it.
    fn pass(
        &self,
        config: ServiceConfig,
        id: u64,
        clock: &mut PassClock,
        tally: &mut Tally,
    ) -> Pass {
        let plan = FaultPlan::builder(self.seed).build();
        let root = trace::begin("pass", id, trace::NO_PARENT);
        let n_req = self.requests.len();
        let mut latency_us = Vec::with_capacity(n_req);
        // (factor digest, virtual latency) of each completed request.
        let mut answers: Vec<Option<(u64, u64)>> = Vec::with_capacity(n_req);
        let (mut submit_ns, mut flush_ns, mut wait_ns) = (0, 0, 0);

        let (report, ..) = clock.time(|| {
            let mut t = trace::now_ns();
            let mut service = Service::start(config, &plan);
            let mut now = trace::now_ns();
            trace::record("serve.Service::start", id, root, t, now);
            t = now;
            let mut tickets = Vec::with_capacity(self.shape.in_flight);
            for (w, wave) in self.requests.chunks(self.shape.in_flight).enumerate() {
                let base = (w * self.shape.in_flight) as u64;
                // Timestamps chain: one clock read per call into the
                // service, each span starting where the last one ended.
                for (i, r) in wave.iter().enumerate() {
                    let ticket = service.submit(*r);
                    now = trace::now_ns();
                    trace::record("serve.submit", base + i as u64, root, t, now);
                    submit_ns += now - t;
                    tickets.push((ticket, t));
                    t = now;
                }
                service.flush_batches();
                now = trace::now_ns();
                trace::record("serve.flush_batches", base, root, t, now);
                flush_ns += now - t;
                t = now;
                for (i, (ticket, submitted_at)) in tickets.drain(..).enumerate() {
                    let answer = ticket.wait();
                    now = trace::now_ns();
                    trace::record("serve.wait", base + i as u64, root, t, now);
                    wait_ns += now - t;
                    t = now;
                    latency_us.push((now - submitted_at) as f64 / 1e3);
                    answers.push(
                        answer
                            .ok()
                            .map(|resp| (resp.factor_digest, resp.virt_latency_us)),
                    );
                }
            }
            std::thread::sleep(common::TEARDOWN_SETTLE);
            let report = service.shutdown();
            trace::record("serve.shutdown", id, root, t, trace::now_ns());
            report
        });

        let t_verify = trace::now_ns();
        let mut virt_end = 0;
        for (r, answer) in self.requests.iter().zip(&answers) {
            let ok = answer
                .is_some_and(|(digest, _)| self.want.get(&(r.kind, r.key, r.n)) == Some(&digest));
            tally.record(ok);
            if let Some((_, virt_latency_us)) = answer {
                virt_end = virt_end.max(r.vtime_us + virt_latency_us);
            }
        }
        let virt_start = self.requests.iter().map(|r| r.vtime_us).min().unwrap_or(0);
        latency_us.sort_by(f64::total_cmp);
        trace::record(
            "harness.verify_digests",
            id,
            root,
            t_verify,
            trace::now_ns(),
        );
        trace::end(root);
        Pass {
            latency_p50_us: percentile_sorted(&latency_us, 0.50),
            latency_p99_us: percentile_sorted(&latency_us, 0.99),
            submit_ns,
            flush_ns,
            wait_ns,
            virt_makespan_us: virt_end.saturating_sub(virt_start),
            virt_p99_us: report.metrics.virt_percentile_us(0.99),
            counters: report.metrics.counters,
            cache: report.metrics.cache,
        }
    }
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let shape = shape(cfg.workload);
    let (s, setup_s) = common::repeated_setup(|| Setup::new(shape, cfg.seed));
    if cfg.traced {
        return run_traced(cfg, &s);
    }
    let (mut clock, mut tally) = (PassClock::default(), Tally::default());
    let start = trace::now_ns();
    while common::keep_going(start, cfg.seconds, clock.wall_ms.len(), 5) {
        let id = clock.wall_ms.len() as u64;
        s.pass(
            config(shape.batching, shape.cache_capacity),
            id,
            &mut clock,
            &mut tally,
        );
    }
    let metrics = common::end_to_end(setup_s, &clock);
    Outcome::untraced(tally, metrics)
}

fn run_traced(cfg: &RunConfig, s: &Setup) -> Outcome {
    let shape = s.shape;
    let main = config(shape.batching, shape.cache_capacity);
    // The same service with this workload's mechanism switched off.
    let paired = if shape.batching {
        config(false, shape.cache_capacity)
    } else {
        config(false, 0)
    };
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let (mut traced, mut plain, mut off) = (
        PassClock::default(),
        PassClock::default(),
        PassClock::default(),
    );
    let mut table = trace::SelfTime::new("pass");
    let mut last_spans = Vec::new();
    let (mut passes, mut off_passes) = (Vec::new(), Vec::new());

    let start = trace::now_ns();
    while common::keep_going(start, cfg.seconds, passes.len(), 3) {
        let id = passes.len() as u64;
        trace::set_enabled(true);
        s.pass(main, id, &mut traced, &mut tally);
        trace::set_enabled(false);
        last_spans = trace::drain();
        table.add(&last_spans);
        passes.push(s.pass(main, id, &mut plain, &mut tally));
        off_passes.push(s.pass(paired, id, &mut off, &mut tally));
    }

    m.set("host.nproc", host::nproc() as f64);
    m.set(
        "trace.overhead_pct",
        100.0 * (fast_decile(&traced.wall_ms) / fast_decile(&plain.wall_ms) - 1.0),
    );
    m.set("trace.unattributed_pct", table.unattributed_pct());
    probes::matrix_layer(&mut m);

    // Client-side numbers: throughput from the pass time the end-to-end
    // run reports, the rest as medians across the untraced passes.
    let n_req = s.requests.len() as f64;
    let over =
        |f: &dyn Fn(&Pass) -> f64, set: &[Pass]| median(&set.iter().map(f).collect::<Vec<_>>());
    let wall_ms = fast_decile(&plain.wall_ms);
    m.set("serve.throughput_rps", n_req / (wall_ms / 1e3));
    m.set("serve.latency_p50_us", over(&|p| p.latency_p50_us, &passes));
    m.set("serve.latency_p99_us", over(&|p| p.latency_p99_us, &passes));
    m.set("serve.latency_samples", n_req);
    m.set(
        "serve.submit_us",
        over(&|p| p.submit_ns as f64 / 1e3 / n_req, &passes),
    );
    m.set(
        "serve.wait_us",
        over(&|p| p.wait_ns as f64 / 1e3 / n_req, &passes),
    );
    let waves = s.requests.len().div_ceil(shape.in_flight) as f64;
    m.set(
        "serve.flush_us",
        over(&|p| p.flush_ns as f64 / 1e3 / waves, &passes),
    );

    // The service's own report; counters repeat exactly from pass to pass.
    let (c, cache) = (passes[0].counters, passes[0].cache);
    m.set("serve.virt_p99_us", passes[0].virt_p99_us as f64);
    m.set("serve.batches_dispatched", c.batches_dispatched as f64);
    m.set(
        "serve.mean_batch_size",
        c.batched_factorizations as f64 / (c.batches_dispatched as f64).max(1.0),
    );
    m.set(
        "serve.cache_hit_rate",
        cache.hits as f64 / ((cache.hits + cache.misses) as f64).max(1.0),
    );
    m.set("serve.shed", c.shed_overload as f64);
    m.set("serve.deadline_canceled", c.deadline_canceled as f64);

    // Paired legs: the wall clock beside the virtual-time model.
    let off_ms = fast_decile(&off.wall_ms);
    let wall_speedup = off_ms / wall_ms;
    if shape.batching {
        let virt = |p: &Pass| p.virt_makespan_us as f64;
        let virtual_speedup = over(&virt, &off_passes) / over(&virt, &passes).max(1.0);
        m.set("serve.unbatched_rps", n_req / (off_ms / 1e3));
        m.set("serve.batch_wall_speedup", wall_speedup);
        m.set("serve.batch_virtual_speedup", virtual_speedup);
        m.set(
            "serve.batch_model_error",
            virtual_speedup / wall_speedup - 1.0,
        );
    } else {
        m.set("serve.cache_off_rps", n_req / (off_ms / 1e3));
        m.set("serve.cache_wall_speedup", wall_speedup);
    }

    // Stand-alone replays of the same stream outside the service: what
    // one `jobs::build` per request and the factorizations cost alone.
    let t0 = trace::now_ns();
    let problems: Vec<Matrix<f64>> = s
        .requests
        .iter()
        .map(|r| build(r.kind, r.key, r.n).a)
        .collect();
    let build_us = (trace::now_ns() - t0) as f64 / 1e3 / n_req;
    let block = main.shard.block;
    let t0 = trace::now_ns();
    if shape.batching {
        let mut buckets: BTreeMap<usize, Vec<Matrix<f64>>> = BTreeMap::new();
        for a in problems {
            buckets.entry(bucket_of(a.rows())).or_default().push(a);
        }
        for (bucket_n, members) in &buckets {
            for batch in members.chunks(main.batch.max_batch) {
                black_box(factor_batch(batch, *bucket_n, block, KERNEL));
            }
        }
    } else {
        for a in problems {
            black_box(factor_resumable(
                Checkpoint::fresh(a),
                block,
                KERNEL,
                &mut |_, _| PanelControl::Continue,
            ))
            .expect("the stream's problems factored during set-up");
        }
    }
    let factor_us = (trace::now_ns() - t0) as f64 / 1e3 / n_req;
    let shard_us = wall_ms * 1e3 * shards() as f64;
    let build_share = build_us * n_req / shard_us;
    let factor_share =
        factor_us * (c.fresh_factorizations + c.batched_factorizations) as f64 / shard_us;
    m.set("serve.build_us_per_req", build_us);
    m.set("serve.factor_us_per_req", factor_us);
    m.set("serve.build_share", build_share);
    m.set("serve.factor_share", factor_share);
    m.set("serve.residual_share", 1.0 - build_share - factor_share);

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

    fn tiny(batching: bool) -> Shape {
        Shape {
            requests: 96,
            in_flight: 32,
            ..shape(if batching {
                SERVE_SMALL
            } else {
                "serve_cached"
            })
        }
    }

    #[test]
    fn every_response_matches_its_direct_digest_on_both_workloads() {
        for batching in [true, false] {
            let shape = tiny(batching);
            let s = Setup::new(shape, 5);
            let mut tally = Tally::default();
            let pass = s.pass(
                config(shape.batching, shape.cache_capacity),
                0,
                &mut PassClock::default(),
                &mut tally,
            );
            assert_eq!(
                tally,
                Tally {
                    attempted: 96,
                    failed: 0
                }
            );
            assert!(pass.latency_p99_us >= pass.latency_p50_us && pass.latency_p50_us > 0.0);
            assert_eq!(pass.counters.batches_dispatched > 0, batching);
            assert_eq!(pass.cache.hits > 0, !batching);
        }
    }

    #[test]
    fn a_forced_digest_mismatch_shows_in_failed_fraction() {
        let shape = tiny(true);
        let mut s = Setup::new(shape, 5);
        let first = s.requests[0];
        *s.want.get_mut(&(first.kind, first.key, first.n)).unwrap() ^= 1;
        let mut tally = Tally::default();
        s.pass(
            config(shape.batching, shape.cache_capacity),
            0,
            &mut PassClock::default(),
            &mut tally,
        );
        assert!(tally.failed >= 1 && tally.failed_fraction() > 0.0);
    }
}
