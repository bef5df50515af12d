//! The trace-once / replay-many simulation engine: its evidence to
//! stdout (`results/sim_bench.json`), its wall clock to stderr.
//!
//! ```text
//! cargo run --release -p cholcomm-bench --bin sim_bench > results/sim_bench.json
//! ```
//!
//! Four measurements on AP00 + Morton at `n = 128` over a ten-point
//! capacity ladder:
//!
//! * **record** — trace-record throughput: running the factorization
//!   arithmetic with a `CompactTrace` as the tracer.
//! * **replay** — replay throughput of the recorded trace into the LRU,
//!   stack-distance, and counting tracers.
//! * **sweep_multi_m** — the headline: the capacity ladder (the
//!   `multilevel` driver's shape) priced the old way (re-run the
//!   arithmetic at every capacity) and the engine way (record once,
//!   price the whole ladder in ONE stack-distance replay).
//! * **sweep_lru_m** — the same ladder priced per-`M` with live LRU
//!   replays (the `seq_messages_vs_M` shape, which needs LRU writeback
//!   semantics and so cannot share one pass).
//! * **table1** — Table 1 rebuilt point by point with a fresh trace cache
//!   per point and with one shared cache.
//!
//! stdout holds only what the code determines: event counts, the packed
//! trace size, and whether each engine result equals its direct run.  The
//! timings go to stderr.  Exit 1 when an engine result differs from its
//! direct run, or when a gate fails.  Both gates compare two legs of the
//! same run, so they bind on any host:
//!
//! * the engine prices the capacity ladder at least
//!   [`MULTI_M_MIN_SPEEDUP`] times faster than the direct runs;
//! * the per-`M` LRU replays price the ladder at least
//!   [`LRU_M_MIN_SPEEDUP`] times faster than the direct LRU runs, so a
//!   slower LRU replay fails here.

use cholcomm_core::cachesim::TransferStats;
use cholcomm_core::matrix::spd;
use cholcomm_core::seq::zoo::{
    price_trace, record_algorithm, run_algorithm, Algorithm, LayoutKind, ModelKind,
};
use cholcomm_core::sweep::TraceCache;
use cholcomm_core::table1::table1_at;
use std::time::Instant;

/// Engine-over-direct floor for the capacity-ladder sweep.
const MULTI_M_MIN_SPEEDUP: f64 = 5.0;
/// Engine-over-direct floor for the per-`M` LRU sweep.
const LRU_M_MIN_SPEEDUP: f64 = 2.5;
/// Timed repetitions per measurement (the best one counts).
const REPS: usize = 5;

/// Wall seconds of one call of `f`, and its result.
fn timed<R>(f: impl Fn() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}

/// Best-of-[`REPS`] wall seconds of `f`, and its last result.
fn best_of<R>(f: impl Fn() -> R) -> (f64, R) {
    let (mut best, mut out) = timed(&f);
    for _ in 1..REPS {
        let (s, r) = timed(&f);
        best = best.min(s);
        out = r;
    }
    (best, out)
}

/// A direct-versus-engine comparison: best wall seconds of each leg and
/// whether they computed the same thing.
struct Versus {
    direct_s: f64,
    engine_s: f64,
    identical: bool,
}

impl Versus {
    /// Best of `reps` alternating runs of each leg, so a stretch of host
    /// noise lands on both legs rather than on one.
    fn of<R: PartialEq>(reps: usize, direct: impl Fn() -> R, engine: impl Fn() -> R) -> Self {
        let mut v = Versus {
            direct_s: f64::INFINITY,
            engine_s: f64::INFINITY,
            identical: true,
        };
        for _ in 0..reps {
            let (d_s, d) = timed(&direct);
            let (e_s, e) = timed(&engine);
            v.direct_s = v.direct_s.min(d_s);
            v.engine_s = v.engine_s.min(e_s);
            v.identical &= d == e;
        }
        v
    }

    fn speedup(&self) -> f64 {
        self.direct_s / self.engine_s
    }
}

fn main() {
    let n = 128;
    // Every capacity in the `n^2 > M` regime.
    let ladder = vec![96, 144, 192, 288, 384, 576, 768, 1152, 1536, 3072];
    let alg = Algorithm::Ap00 { leaf: 4 };
    let layout = LayoutKind::Morton;
    let a = spd::random_spd(n, &mut spd::test_rng(4242));

    let (record_s, recorded) = best_of(|| record_algorithm(alg, &a, layout).unwrap());
    let trace = recorded.trace;
    let events = trace.len();
    let packed_bytes_per_event = trace.pack().len() as f64 / events.max(1) as f64;
    let per_s = |s: f64| events as f64 / s;

    let m_mid = ladder[ladder.len() / 2];
    let (lru_s, _) = best_of(|| price_trace(&trace, &ModelKind::Lru { m: m_mid }));
    let (sd_s, _) = best_of(|| {
        price_trace(
            &trace,
            &ModelKind::Hierarchy {
                capacities: ladder.clone(),
            },
        )
    });
    let (cnt_s, _) = best_of(|| {
        price_trace(
            &trace,
            &ModelKind::Counting {
                message_cap: Some(m_mid),
            },
        )
    });

    // Direct re-runs the factorization arithmetic once per capacity (a
    // single-level hierarchy each time); the engine records once and
    // prices the *entire* ladder in a single stack-distance replay.
    let multi = Versus::of(
        REPS,
        || {
            ladder
                .iter()
                .map(|&m| {
                    run_algorithm(
                        alg,
                        &a,
                        layout,
                        &ModelKind::Hierarchy {
                            capacities: vec![m],
                        },
                    )
                    .unwrap()
                    .levels[0]
                })
                .collect::<Vec<TransferStats>>()
        },
        || {
            let rec = record_algorithm(alg, &a, layout).unwrap();
            price_trace(
                &rec.trace,
                &ModelKind::Hierarchy {
                    capacities: ladder.clone(),
                },
            )
        },
    );
    // LRU needs writebacks: one replay per capacity.
    let lru = Versus::of(
        REPS,
        || {
            ladder
                .iter()
                .map(|&m| {
                    run_algorithm(alg, &a, layout, &ModelKind::Lru { m })
                        .unwrap()
                        .levels[0]
                })
                .collect::<Vec<TransferStats>>()
        },
        || {
            let rec = record_algorithm(alg, &a, layout).unwrap();
            ladder
                .iter()
                .map(|&m| price_trace(&rec.trace, &ModelKind::Lru { m })[0])
                .collect::<Vec<TransferStats>>()
        },
    );
    // Table 1 with a fresh cache per point (nothing shared) against one
    // shared cache, once: it is timed for the record, not gated.
    let points = [(64, 192), (128, 768), (128, 192)];
    let table1 = |shared: Option<&TraceCache>| {
        points
            .iter()
            .enumerate()
            .flat_map(|(i, &(n, m))| {
                let fresh = TraceCache::new();
                table1_at(n, m, 2000 + i as u64, shared.unwrap_or(&fresh)).1
            })
            .map(|row| (row.words, row.messages))
            .collect::<Vec<_>>()
    };
    let t1 = Versus::of(1, || table1(None), || table1(Some(&TraceCache::new())));

    eprintln!(
        "record : {events} events in {record_s:.4}s ({:.2e} events/s)",
        per_s(record_s)
    );
    eprintln!(
        "replay : lru {:.2e} | stackdist {:.2e} | counting {:.2e} events/s",
        per_s(lru_s),
        per_s(sd_s),
        per_s(cnt_s)
    );
    for (name, v) in [("multi-M", &multi), ("lru/M", &lru), ("table1", &t1)] {
        eprintln!(
            "{name:<7}: direct {:.4}s vs engine {:.4}s = {:.2}x",
            v.direct_s,
            v.engine_s,
            v.speedup()
        );
    }

    let mut failed = false;
    for (name, v) in [("capacity-ladder", &multi), ("LRU", &lru), ("Table 1", &t1)] {
        if !v.identical {
            eprintln!("sim_bench: the engine's {name} sweep differs from the direct runs");
            failed = true;
        }
    }
    for (name, v, floor) in [
        ("capacity-ladder", &multi, MULTI_M_MIN_SPEEDUP),
        ("LRU", &lru, LRU_M_MIN_SPEEDUP),
    ] {
        if v.speedup() < floor {
            eprintln!(
                "sim_bench: the engine's {name} sweep is only {:.2}x the direct runs \
                 (need {floor}x)",
                v.speedup()
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }

    println!("{{");
    println!("  \"record\": {{\"events\": {events}, \"packed_bytes_per_event\": {packed_bytes_per_event:.2}}},");
    println!(
        "  \"sweep_multi_m\": {{\"points\": {}, \"min_speedup\": {MULTI_M_MIN_SPEEDUP:.1}, \"identical\": {}}},",
        ladder.len(),
        multi.identical
    );
    println!(
        "  \"sweep_lru_m\": {{\"points\": {}, \"min_speedup\": {LRU_M_MIN_SPEEDUP:.1}, \"identical\": {}}},",
        ladder.len(),
        lru.identical
    );
    println!(
        "  \"table1\": {{\"points\": {}, \"identical\": {}}}",
        points.len(),
        t1.identical
    );
    println!("}}");
}
