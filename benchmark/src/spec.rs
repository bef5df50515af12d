//! The benchmark's contract, declared once: workload names, every
//! metric with its unit and direction, the regression bounds, and the
//! `BENCHMARK.json` text generated from them (a test pins the tracked
//! file to [`manifest`], so writer and manifest cannot drift).

use crate::stats::Tally;

/// How long one run measures unless `--seconds` says otherwise; also
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 10;

/// One set of inputs the benchmark runs.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const DAG_LARGE: &str = "dag_large";
pub const DAG_FINE: &str = "dag_fine";
pub const SERVE_SMALL: &str = "serve_small";
pub const SERVE_CACHED: &str = "serve_cached";
pub const OOC_FILE: &str = "ooc_file";

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: DAG_LARGE,
        why: "in-memory DAG POTRF n=2048 b=128 (816 tasks of ~4 MFLOP): tile kernels do the work and scheduling cost is amortised, so a kernel gain shows here and a scheduler gain barely moves it",
    },
    WorkloadSpec {
        name: DAG_FINE,
        why: "same call at n=1024 b=32 (5984 tasks of ~65 kFLOP): per-task cost of the pool and scheduler is a large share of every task, so grain and lookahead changes show here and leave dag_large flat",
    },
    WorkloadSpec {
        name: SERVE_SMALL,
        why: "closed loop, 256 in flight, n=8..32, batching on, cache off: admission, batcher and batch kernels do the work; the factor cache and resumable engine do none",
    },
    WorkloadSpec {
        name: SERVE_CACHED,
        why: "closed loop, 16 in flight, 12 hot keys, n=16..96, batching off, cache on: cache hits, the resumable engine and job building dominate and the batcher is bypassed",
    },
    WorkloadSpec {
        name: OOC_FILE,
        why: "pipelined out-of-core POTRF n=3072 b=128 on a real file, 12% of tiles resident, 1 I/O worker: planner, I/O worker, tile cache and file I/O carry the run and the work-stealing pool carries none",
    },
];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// A metric's name, unit and direction; `bound` is the share of the
/// parent's median by which an end-to-end metric may worsen (per-layer
/// metrics carry none).
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
        bound,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Higher,
        bound: 0.0,
    }
}

/// What a user of the system sees.  Every workload reports every one,
/// so each is defined for all five:
///
/// * `setup_s` — process start to first timed pass (median of three
///   set-ups in the run);
/// * `pass_ms` — wall time of one pass of the workload's fixed work: one
///   factorization at `p` threads, or the whole request stream through a
///   fresh service (so requests per second is the stream length over
///   it).  The fast decile of the run's passes, see
///   [`crate::stats::fast_decile`];
/// * `cpu_ms` — process CPU time, user plus system over all threads,
///   burned by one pass (fast decile likewise);
/// * `peak_rss_mb` — highest resident set a timed pass reaches (`VmHWM`,
///   restarted before each pass), mean over the run's passes.
///
/// Every bound is the contract's cap.  Ten 10-second runs of one binary
/// on the 2-vCPU shared bench host spread (quartile distance over
/// median) up to 9% in `pass_ms` and 10% in `cpu_ms` and `peak_rss_mb`
/// when the host is busy, and a bound has to clear three times that.
pub const END_TO_END: [MetricSpec; 4] = [
    e2e("setup_s", "s", 0.25),
    e2e("pass_ms", "ms", 0.25),
    e2e("cpu_ms", "ms", 0.25),
    e2e("peak_rss_mb", "MiB", 0.25),
];

/// Single-layer numbers from the traced run, grouped by the repo module
/// they measure.  A workload that does not exercise a layer reports 0
/// for it — which is the prediction "this layer does no work here".
pub const PER_LAYER: &[MetricSpec] = &[
    hi("host.nproc", "count"),
    lo("trace.overhead_pct", "%"),
    lo("trace.unattributed_pct", "%"),
    // matrix: KernelImpl::Fast on hot b x b tiles, kernel parallelism off.
    hi("matrix.peak_gflops", "GFLOP/s"),
    hi("matrix.gemm_nt.b128.gflops", "GFLOP/s"),
    hi("matrix.gemm_nt.b32.gflops", "GFLOP/s"),
    hi("matrix.syrk.b128.gflops", "GFLOP/s"),
    hi("matrix.syrk.b32.gflops", "GFLOP/s"),
    hi("matrix.trsm.b128.gflops", "GFLOP/s"),
    hi("matrix.trsm.b32.gflops", "GFLOP/s"),
    hi("matrix.potf2.b128.gflops", "GFLOP/s"),
    hi("matrix.potf2.b32.gflops", "GFLOP/s"),
    hi("matrix.gemm_nt.n1024.gflops", "GFLOP/s"),
    hi("matrix.gemm_nt.b128.pct_peak", "%"),
    hi("matrix.gemm_nt.b32.pct_peak", "%"),
    lo("matrix.residual", "ratio"),
    hi("matrix.batch_potrf.n32x32.gflops", "GFLOP/s"),
    hi("matrix.batch.lane_speedup", "ratio"),
    // rayon: the vendored pool through its public API, p threads.
    lo("rayon.spawn_ns", "ns"),
    lo("rayon.join_ns", "ns"),
    lo("rayon.install_us", "us"),
    // par: the DAG scheduler.
    hi("par.dag.tasks", "count"),
    hi("par.dag.model_speedup", "ratio"),
    hi("par.dag.measured_speedup", "ratio"),
    hi("par.dag.scaling_efficiency", "ratio"),
    lo("par.dag.model_error", "ratio"),
    lo("par.dag.kernel_floor_ms", "ms"),
    lo("par.dag.overhead_ms", "ms"),
    lo("par.dag.overhead_us_per_task", "us"),
    hi("par.dag.gflops_1t", "GFLOP/s"),
    hi("par.dag.gflops_pt", "GFLOP/s"),
    lo("par.dag.pass_ms", "ms"),
    lo("par.dag.best_ms", "ms"),
    lo("par.dag.median_ms", "ms"),
    lo("par.dag.p90_ms", "ms"),
    lo("par.dag.serial_ms", "ms"),
    lo("seq.potrf_blocked.ms", "ms"),
    hi("par.dag.vs_seq", "ratio"),
    // serve: client-side spans, stand-alone replays, report counters,
    // paired legs.
    hi("serve.throughput_rps", "1/s"),
    lo("serve.latency_p50_us", "us"),
    lo("serve.latency_p99_us", "us"),
    hi("serve.latency_samples", "count"),
    lo("serve.virt_p99_us", "us"),
    lo("serve.submit_us", "us"),
    lo("serve.flush_us", "us"),
    lo("serve.wait_us", "us"),
    lo("serve.build_us_per_req", "us"),
    lo("serve.factor_us_per_req", "us"),
    lo("serve.build_share", "ratio"),
    lo("serve.factor_share", "ratio"),
    lo("serve.residual_share", "ratio"),
    hi("serve.batches_dispatched", "count"),
    hi("serve.mean_batch_size", "count"),
    hi("serve.cache_hit_rate", "ratio"),
    lo("serve.shed", "count"),
    lo("serve.deadline_canceled", "count"),
    hi("serve.unbatched_rps", "1/s"),
    hi("serve.batch_wall_speedup", "ratio"),
    hi("serve.batch_virtual_speedup", "ratio"),
    lo("serve.batch_model_error", "ratio"),
    hi("serve.cache_off_rps", "1/s"),
    hi("serve.cache_wall_speedup", "ratio"),
    // ooc: a timing IoBackend wrapper, ceiling probes, exact counts,
    // paired legs.
    lo("ooc.io_busy_ms", "ms"),
    lo("ooc.io_busy_share", "ratio"),
    hi("ooc.read_mb_s", "MB/s"),
    hi("ooc.write_mb_s", "MB/s"),
    hi("ooc.file_read_mb_s", "MB/s"),
    hi("ooc.file_write_mb_s", "MB/s"),
    lo("ooc.create_ms", "ms"),
    lo("ooc.readback_ms", "ms"),
    lo("ooc.fetches", "count"),
    hi("ooc.prefetch_hit_rate", "ratio"),
    lo("ooc.prefetch_stalls", "count"),
    lo("ooc.evict_writes", "count"),
    lo("ooc.flush_writes", "count"),
    lo("ooc.bytes_read", "bytes"),
    lo("ooc.bytes_written", "bytes"),
    lo("ooc.io_bytes", "bytes"),
    lo("ooc.seeks", "count"),
    lo("ooc.seek_distance", "bytes"),
    lo("ooc.words_vs_scale", "ratio"),
    lo("ooc.pass_ms", "ms"),
    lo("ooc.best_ms", "ms"),
    lo("ooc.median_ms", "ms"),
    lo("ooc.sync_ms", "ms"),
    hi("ooc.overlap_speedup", "ratio"),
    hi("ooc.model_overlap_speedup", "ratio"),
    lo("ooc.model_error", "ratio"),
    lo("ooc.inmem_ms", "ms"),
    hi("ooc.efficiency", "ratio"),
];

/// Values collected by one run, checked against the declared names.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Record `name`; it must be declared in [`END_TO_END`] or
    /// [`PER_LAYER`] and be a finite number.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "metric {name} is not declared in spec.rs"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// The result line the driver reads: every end-to-end metric (untraced
/// run) or every per-layer metric (traced run), in declaration order.  An end-to-end metric the workload did not set is
/// a bug; a per-layer metric it did not set reads 0 (layer not used).
pub fn result_line(tally: Tally, correct: bool, traced: bool, values: &Metrics) -> String {
    let specs = if traced { PER_LAYER } else { &END_TO_END[..] };
    let fields: Vec<String> = specs
        .iter()
        .map(|m| {
            let value = match values.get(m.name) {
                Some(v) => v,
                None if traced => 0.0,
                None => panic!("end-to-end metric {} was not measured", m.name),
            };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct,
        tally.attempted.max(1),
        tally.failed,
        fields.join(", ")
    )
}

/// A [`result_line`] read back, its values in the order printed.
pub struct ResultLine {
    pub correct: bool,
    pub tally: Tally,
    pub values: Vec<(String, f64)>,
}

/// Parse a [`result_line`]; `None` for anything else.
pub fn parse_result_line(line: &str) -> Option<ResultLine> {
    let field = |key: &str| {
        let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
        Some(&rest[..rest.find([',', '}'])?])
    };
    let correct = field("correct")?.parse().ok()?;
    let tally = Tally {
        attempted: field("attempted")?.parse().ok()?,
        failed: field("failed")?.parse().ok()?,
    };
    let body = &line[line.find("\"metrics\": {")? + 12..];
    let mut values = Vec::new();
    for entry in body
        .split("\": {\"value\": ")
        .collect::<Vec<_>>()
        .windows(2)
    {
        let name = &entry[0][entry[0].rfind('"')? + 1..];
        let value = entry[1][..entry[1].find(',')?].parse().ok()?;
        values.push((name.to_string(), value));
    }
    Some(ResultLine {
        correct,
        tally,
        values,
    })
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let better = |b: Better| {
        if b == Better::Lower {
            "lower"
        } else {
            "higher"
        }
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.better),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tracked_manifest_is_the_generated_one() {
        // Regenerate with: perfbench manifest > BENCHMARK.json
        assert_eq!(include_str!("../../BENCHMARK.json"), manifest());
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
        {
            assert!(well_formed(name), "bad name {name}");
            assert!(seen.insert(name), "duplicate name {name}");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                !m.unit.is_empty() && m.unit.len() <= 16,
                "bad unit {}",
                m.unit
            );
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {}",
                m.unit
            );
        }
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "why of {}",
                w.name
            );
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(manifest().len() <= 64 * 1024);
    }

    #[test]
    fn result_line_lists_every_declared_metric_and_zero_fills_layers() {
        let mut values = Metrics::default();
        values.set("par.dag.tasks", 816.0);
        let tally = Tally {
            attempted: 3,
            failed: 0,
        };
        let line = result_line(tally, true, true, &values);
        for m in PER_LAYER {
            assert!(line.contains(&format!("\"{}\": {{\"value\": ", m.name)));
        }
        assert!(line.contains("\"par.dag.tasks\": {\"value\": 816, \"unit\": \"count\"}"));
        assert!(line.contains("\"ooc.fetches\": {\"value\": 0, \"unit\": \"count\"}"));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "));
    }

    #[test]
    fn result_line_round_trips_through_the_parser() {
        let mut values = Metrics::default();
        for (i, m) in END_TO_END.iter().enumerate() {
            values.set(m.name, 1.5 + i as f64);
        }
        let line = result_line(
            Tally {
                attempted: 7,
                failed: 2,
            },
            false,
            false,
            &values,
        );
        let parsed = parse_result_line(&line).unwrap();
        assert!(!parsed.correct);
        assert_eq!(
            parsed.tally,
            Tally {
                attempted: 7,
                failed: 2
            }
        );
        let names: Vec<&str> = parsed.values.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, END_TO_END.map(|m| m.name));
        assert_eq!(parsed.values[1].1, 2.5);
        assert!(parse_result_line("Compiling perfbench").is_none());
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_names_are_rejected() {
        Metrics::default().set("made.up", 1.0);
    }
}
