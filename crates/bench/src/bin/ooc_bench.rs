//! Out-of-core pipeline benchmark and the repo's tracked OOC artifact.
//!
//! ```text
//! cargo run --release -p cholcomm-bench --bin ooc_bench             # full run
//! cargo run --release -p cholcomm-bench --bin ooc_bench -- --smoke  # CI smoke
//! ```
//!
//! Four sections, written as `cholcomm-ooc-bench/v1` JSON:
//!
//! - **identity** — the pipelined driver's factor is byte-compared
//!   against the synchronous `ooc_potrf_with` (zero I/O workers) over a grid of cache
//!   capacities, I/O worker counts, and lookahead depths (plus a
//!   checkpointed-pipelined run); `mismatches` must be zero.
//! - **model_gate** — the deterministic overlap model at n=2048, b=64
//!   with a 100µs-latency disk: the pipelined makespan must beat the
//!   synchronous one by ≥ 2x.
//! - **lookahead_sweep** — modeled prefetch hit rate across lookahead
//!   depths; ≥ 90% at every lookahead ≥ 4.
//! - **measured** — a real `FileMatrix` run with every op actually
//!   sleeping the sampled latency (on the compute thread at zero I/O
//!   workers, on the workers otherwise), pipelined-vs-sync wall clock
//!   plus the real seek/seek-distance tallies.  Wall numbers are
//!   machine-dependent; the gate here is deliberately loose (≥ 1.2x)
//!   and the section is excluded from CI's exact-match compare.
//!
//! Every number outside **measured** is a pure function of the inputs,
//! so CI compares a smoke run exactly against the committed
//! `BENCH_ooc.json` (deterministic sections only).

use cholcomm_core::faults::FsStore;
use cholcomm_core::matrix::spd;
use cholcomm_core::ooc::{
    filemat::scratch_path, model_overlap, ooc_potrf_checkpointed, ooc_potrf_pipelined_with,
    ooc_potrf_with, Checkpoint, FileMatrix, IoStats, LatencyModel, ModelConfig, PipelineConfig,
    DEFAULT_FLOPS_PER_US,
};
use cholcomm_core::matrix::KernelImpl;
use std::fmt::Write as _;
use std::time::Instant;

struct Identity {
    configs: usize,
    mismatches: usize,
    reads: u64,
    writes: u64,
    checkpointed_ok: bool,
}

struct Gate {
    n: usize,
    b: usize,
    capacity: usize,
    io_workers: usize,
    lookahead: usize,
    latency_us: u64,
    sync_us: u64,
    pipelined_us: u64,
    speedup: f64,
    hit_rate: f64,
}

struct Measured {
    n: usize,
    b: usize,
    capacity: usize,
    latency_us: u64,
    sync_wall_s: f64,
    pipe_wall_s: [f64; 2], // workers 1, 2
    speedup_w2: f64,
    stats: IoStats,
}

fn run_identity() -> Identity {
    let mut rng = spd::test_rng(600);
    let a = spd::random_spd(40, &mut rng);
    let b = 8;
    let mut configs = 0;
    let mut mismatches = 0;
    let mut reads = 0;
    let mut writes = 0;
    for cap in [3usize, 5, 12] {
        let mut sync = FileMatrix::create(&scratch_path(&format!("ob-sync{cap}")), &a, b)
            .expect("create sync file");
        ooc_potrf_with(&mut sync, cap, KernelImpl::Fast).expect("sync factorization");
        let want = sync.to_matrix().expect("read sync factor");
        for workers in [1usize, 2] {
            for lookahead in [1usize, 4] {
                let mut fm =
                    FileMatrix::create(&scratch_path(&format!("ob-p{cap}-{workers}-{lookahead}")), &a, b)
                        .expect("create pipelined file");
                let cfg = PipelineConfig::new(cap)
                    .with_kernel(KernelImpl::Fast)
                    .with_io_workers(workers)
                    .with_lookahead(lookahead);
                let st = ooc_potrf_pipelined_with(&mut fm, &cfg).expect("pipelined factorization");
                configs += 1;
                reads += st.fetches;
                writes += st.evict_writes + st.flush_writes;
                if fm.to_matrix().expect("read pipelined factor") != want {
                    mismatches += 1;
                    eprintln!(
                        "ooc_bench: factor mismatch at cap={cap} workers={workers} lookahead={lookahead}"
                    );
                }
            }
        }
    }
    // Checkpointed-pipelined against the checkpointed sync driver.
    let cap = 5;
    let mut sync = FileMatrix::create(&scratch_path("ob-cksync"), &a, b).expect("create");
    let ck0 = Checkpoint::at(&scratch_path("ob-cksync").with_extension("ckpt"));
    let mut fs = FsStore::new();
    let cfg = PipelineConfig::new(cap).with_io_workers(0);
    ooc_potrf_checkpointed(&mut sync, &ck0, &mut fs, &cfg).expect("sync checkpointed");
    let want = sync.to_matrix().expect("read");
    let mut fm = FileMatrix::create(&scratch_path("ob-ckpipe"), &a, b).expect("create");
    let ck1 = Checkpoint::at(&scratch_path("ob-ckpipe").with_extension("ckpt"));
    let cfg = PipelineConfig::new(cap).with_io_workers(2).with_lookahead(3);
    ooc_potrf_checkpointed(&mut fm, &ck1, &mut fs, &cfg).expect("pipelined checkpointed");
    configs += 1;
    let checkpointed_ok = fm.to_matrix().expect("read") == want;
    if !checkpointed_ok {
        mismatches += 1;
    }
    Identity {
        configs,
        mismatches,
        reads,
        writes,
        checkpointed_ok,
    }
}

fn run_model_gate() -> Gate {
    let (n, b, capacity, io_workers, lookahead, latency_us) = (2048, 64, 56, 2, 8, 100);
    let r = model_overlap(&ModelConfig {
        n,
        b,
        capacity_tiles: capacity,
        io_workers,
        lookahead,
        latency: LatencyModel::uniform(latency_us),
        flops_per_us: DEFAULT_FLOPS_PER_US,
    });
    Gate {
        n,
        b,
        capacity,
        io_workers,
        lookahead,
        latency_us,
        sync_us: r.sync_us,
        pipelined_us: r.pipelined_us,
        speedup: r.speedup,
        hit_rate: r.hit_rate,
    }
}

fn run_lookahead_sweep() -> Vec<(usize, f64)> {
    [1usize, 2, 4, 8, 16]
        .into_iter()
        .map(|la| {
            let r = model_overlap(&ModelConfig {
                n: 2048,
                b: 64,
                capacity_tiles: 56,
                io_workers: 2,
                lookahead: la,
                latency: LatencyModel::uniform(100),
                flops_per_us: DEFAULT_FLOPS_PER_US,
            });
            (la, r.hit_rate)
        })
        .collect()
}

fn run_measured(smoke: bool) -> Measured {
    let (n, b, capacity, latency_us) = if smoke { (128, 16, 8, 200) } else { (256, 32, 12, 300) };
    let mut rng = spd::test_rng(601);
    let a = spd::random_spd(n, &mut rng);

    // Synchronous leg (zero workers): every op sleeps inline, on the
    // compute thread.
    let mut fm = FileMatrix::create(&scratch_path("ob-meas-sync"), &a, b).expect("create");
    fm.set_latency_model(LatencyModel::uniform(latency_us));
    let cfg = PipelineConfig::new(capacity)
        .with_kernel(KernelImpl::Fast)
        .with_io_workers(0)
        .with_sleep_latency(true);
    let t0 = Instant::now();
    ooc_potrf_pipelined_with(&mut fm, &cfg).expect("sync measured");
    let sync_wall_s = t0.elapsed().as_secs_f64();
    let want = fm.to_matrix().expect("read");

    // Pipelined legs: the I/O *workers* sleep, compute does not.
    let mut pipe_wall_s = [0.0f64; 2];
    let mut stats = IoStats::default();
    for (i, workers) in [1usize, 2].into_iter().enumerate() {
        let mut fm =
            FileMatrix::create(&scratch_path(&format!("ob-meas-p{workers}")), &a, b).expect("create");
        fm.set_latency_model(LatencyModel::uniform(latency_us));
        let cfg = PipelineConfig::new(capacity)
            .with_kernel(KernelImpl::Fast)
            .with_io_workers(workers)
            .with_sleep_latency(true);
        let t0 = Instant::now();
        ooc_potrf_pipelined_with(&mut fm, &cfg).expect("pipelined measured");
        pipe_wall_s[i] = t0.elapsed().as_secs_f64();
        assert_eq!(
            fm.to_matrix().expect("read"),
            want,
            "measured leg must still be bit-identical"
        );
        stats = fm.stats();
    }
    Measured {
        n,
        b,
        capacity,
        latency_us,
        sync_wall_s,
        pipe_wall_s,
        speedup_w2: sync_wall_s / pipe_wall_s[1].max(1e-9),
        stats,
    }
}

fn to_json(
    id: &Identity,
    gate: &Gate,
    sweep: &[(usize, f64)],
    meas: &Measured,
    mode: &str,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"cholcomm-ooc-bench/v1\",");
    let _ = writeln!(s, "  \"mode\": \"{mode}\",");
    s.push_str("  \"identity\": {\n");
    let _ = writeln!(s, "    \"configs\": {},", id.configs);
    let _ = writeln!(s, "    \"mismatches\": {},", id.mismatches);
    let _ = writeln!(s, "    \"reads\": {},", id.reads);
    let _ = writeln!(s, "    \"writes\": {},", id.writes);
    let _ = writeln!(s, "    \"checkpointed_ok\": {}", id.checkpointed_ok);
    s.push_str("  },\n");
    s.push_str("  \"model_gate\": {\n");
    let _ = writeln!(s, "    \"n\": {},", gate.n);
    let _ = writeln!(s, "    \"b\": {},", gate.b);
    let _ = writeln!(s, "    \"capacity_tiles\": {},", gate.capacity);
    let _ = writeln!(s, "    \"io_workers\": {},", gate.io_workers);
    let _ = writeln!(s, "    \"lookahead\": {},", gate.lookahead);
    let _ = writeln!(s, "    \"latency_us\": {},", gate.latency_us);
    let _ = writeln!(s, "    \"sync_us\": {},", gate.sync_us);
    let _ = writeln!(s, "    \"pipelined_us\": {},", gate.pipelined_us);
    let _ = writeln!(s, "    \"speedup\": {:.4},", gate.speedup);
    let _ = writeln!(s, "    \"hit_rate\": {:.4}", gate.hit_rate);
    s.push_str("  },\n");
    s.push_str("  \"lookahead_sweep\": [\n");
    for (i, (la, hr)) in sweep.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{ \"lookahead\": {la}, \"hit_rate\": {hr:.4} }}{}",
            if i + 1 < sweep.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n");
    s.push_str("  \"measured\": {\n");
    let _ = writeln!(s, "    \"n\": {},", meas.n);
    let _ = writeln!(s, "    \"b\": {},", meas.b);
    let _ = writeln!(s, "    \"capacity_tiles\": {},", meas.capacity);
    let _ = writeln!(s, "    \"latency_us\": {},", meas.latency_us);
    let _ = writeln!(s, "    \"sync_wall_s\": {:.3},", meas.sync_wall_s);
    let _ = writeln!(s, "    \"pipe_wall_s_w1\": {:.3},", meas.pipe_wall_s[0]);
    let _ = writeln!(s, "    \"pipe_wall_s_w2\": {:.3},", meas.pipe_wall_s[1]);
    let _ = writeln!(s, "    \"speedup_w2\": {:.3},", meas.speedup_w2);
    let _ = writeln!(s, "    \"bytes_read\": {},", meas.stats.bytes_read);
    let _ = writeln!(s, "    \"bytes_written\": {},", meas.stats.bytes_written);
    let _ = writeln!(s, "    \"seeks\": {},", meas.stats.seeks);
    let _ = writeln!(s, "    \"seek_distance\": {}", meas.stats.seek_distance);
    s.push_str("  }\n}\n");
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| {
            if smoke {
                "BENCH_ooc.smoke.json".to_string()
            } else {
                concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ooc.json").to_string()
            }
        });
    let mode = if smoke { "smoke" } else { "full" };
    eprintln!("ooc_bench: mode={mode}");
    let mut failed = false;

    let id = run_identity();
    println!(
        "identity: {} configs, {} mismatches, {} reads, {} writes, checkpointed_ok={}",
        id.configs, id.mismatches, id.reads, id.writes, id.checkpointed_ok
    );
    if id.mismatches != 0 {
        eprintln!("ooc_bench: FAILED bit-identity over the config grid");
        failed = true;
    }

    let gate = run_model_gate();
    println!(
        "model_gate: n={} b={} cap={} W={} lookahead={} latency={}us: sync={}us pipelined={}us \
         speedup={:.3} hit_rate={:.3}",
        gate.n,
        gate.b,
        gate.capacity,
        gate.io_workers,
        gate.lookahead,
        gate.latency_us,
        gate.sync_us,
        gate.pipelined_us,
        gate.speedup,
        gate.hit_rate
    );
    if gate.speedup < 2.0 {
        eprintln!("ooc_bench: FAILED modeled overlap gate (speedup {:.3} < 2.0)", gate.speedup);
        failed = true;
    }

    let sweep = run_lookahead_sweep();
    for &(la, hr) in &sweep {
        println!("lookahead_sweep: lookahead={la} hit_rate={hr:.3}");
        if la >= 4 && hr < 0.9 {
            eprintln!("ooc_bench: FAILED hit-rate gate at lookahead {la} ({hr:.3} < 0.9)");
            failed = true;
        }
    }

    let meas = run_measured(smoke);
    println!(
        "measured: n={} b={} cap={} latency={}us: sync {:.3}s, pipelined w1 {:.3}s w2 {:.3}s \
         (speedup {:.2}x), seeks {} distance {}",
        meas.n,
        meas.b,
        meas.capacity,
        meas.latency_us,
        meas.sync_wall_s,
        meas.pipe_wall_s[0],
        meas.pipe_wall_s[1],
        meas.speedup_w2,
        meas.stats.seeks,
        meas.stats.seek_distance
    );
    if meas.speedup_w2 < 1.2 {
        eprintln!(
            "ooc_bench: FAILED measured overlap gate (speedup {:.3} < 1.2)",
            meas.speedup_w2
        );
        failed = true;
    }

    if failed {
        std::process::exit(1);
    }
    let json = to_json(&id, &gate, &sweep, &meas, mode);
    std::fs::write(&out_path, &json).expect("write ooc artifact");
    eprintln!("ooc_bench: wrote {out_path}");
}
