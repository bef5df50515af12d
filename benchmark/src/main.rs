//! `perfbench`: one wall-clock benchmark for cholcomm's three end-to-end
//! paths — in-memory DAG POTRF, served requests, out-of-core POTRF on a
//! real file — with per-layer attribution measured from outside, by
//! timing calls into each layer's public functions.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1   one run (the driver's contract)
//! perfbench run    [--seed N] [--seconds S]                  every workload, untraced
//! perfbench trace  [--seed N] [--seconds S] [--explain]      every workload, traced
//! perfbench repeat [--sets K] [--runs R] [--seed N] [--seconds S]
//! perfbench manifest                                         print BENCHMARK.json
//! ```
//!
//! A single run prints one JSON object as its last line of standard
//! output and exits non-zero if any operation failed verification.  The
//! three multi-workload commands run each workload in a child process of
//! this same binary, so peak memory and warm-up state never leak from
//! one workload into the next.

mod common;
mod dag;
mod gen;
mod host;
mod ooc;
mod probes;
mod serve;
mod spec;
mod stats;
mod trace;

use common::{Outcome, RunConfig};
use spec::{MetricSpec, ResultLine, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::process::{Command, ExitCode};

/// Closes the event array of a trace file (events end in commas).
const TRACE_END: &str =
    "{\"name\": \"end\", \"ph\": \"M\", \"pid\": 0, \"tid\": 0, \"args\": {}}\n]\n";

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       perfbench run|trace|repeat|manifest [--seed n] [--seconds s] [--explain] [--sets k] [--runs r]",
        WORKLOADS.map(|w| w.name).join("|")
    );
    ExitCode::from(2)
}

/// `--flag value` pairs and bare `--flag`s after the optional subcommand.
struct Args {
    command: Option<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(argv: &[String]) -> Option<Args> {
        let mut it = argv.iter().peekable();
        let command = it.next_if(|a| !a.starts_with("--")).cloned();
        let mut flags = Vec::new();
        while let Some(flag) = it.next() {
            let name = flag.strip_prefix("--")?;
            flags.push((
                name.to_string(),
                it.next_if(|a| !a.starts_with("--")).cloned(),
            ));
        }
        Some(Args { command, flags })
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    /// The flag's value parsed as `T`; `default` when the flag is absent;
    /// `None` when it is present but malformed.
    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Option<T> {
        match self.flags.iter().find(|(n, _)| n == name) {
            None => Some(default),
            Some((_, value)) => value.as_ref()?.parse().ok(),
        }
    }
}

fn run_workload(cfg: &RunConfig) -> Outcome {
    match cfg.workload {
        spec::DAG_LARGE | spec::DAG_FINE => dag::run(cfg),
        spec::SERVE_SMALL | spec::SERVE_CACHED => serve::run(cfg),
        _ => ooc::run(cfg),
    }
}

/// One run of one workload: the driver's contract.
fn single(args: &Args) -> ExitCode {
    let name: Option<String> = args.get("workload", String::new());
    let Some(workload) = WORKLOADS
        .iter()
        .map(|w| w.name)
        .find(|w| Some(*w) == name.as_deref())
    else {
        return usage();
    };
    let (Some(seed), Some(seconds), Some(trace)) = (
        args.get("seed", 1u64),
        args.get("seconds", RUN_SECONDS as f64),
        args.get("trace", 0u8),
    ) else {
        return usage();
    };
    if !(seconds > 0.0 && seconds <= 60.0) || trace > 1 {
        return usage();
    }
    let cfg = RunConfig {
        workload,
        seed,
        seconds,
        traced: trace == 1,
    };
    trace::set_enabled(false); // claims timeline row 0 for this thread
    let outcome = run_workload(&cfg);
    let correct = outcome.tally.failed == 0;
    let line = spec::result_line(outcome.tally, correct, cfg.traced, &outcome.metrics);
    if cfg.traced {
        let out = common::out_dir();
        let write = |file: String, text: String| {
            std::fs::write(out.join(&file), text)
                .unwrap_or_else(|e| panic!("writing benchmark/out/{file}: {e}"));
        };
        write(
            format!("{workload}.trace.json"),
            format!("[\n{}{TRACE_END}", outcome.events),
        );
        write(format!("{workload}.explain.txt"), outcome.explain);
        write(
            format!("{workload}.layers.json"),
            format!(
                "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \"host\": {}, \"result\": {line}}}\n",
                host::fingerprint_json()
            ),
        );
    }
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {workload}: {} of {} operations failed",
            outcome.tally.failed, outcome.tally.attempted
        );
        ExitCode::FAILURE
    }
}

/// Run one workload in a child process of this binary; `None` if it
/// crashed or printed no result line.
fn child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Option<ResultLine> {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut result = spec::parse_result_line(stdout.lines().last()?)?;
    result.correct &= output.status.success();
    Some(result)
}

fn print_metrics(specs: &[MetricSpec], r: &ResultLine, skip_zero: bool) {
    for (m, (name, value)) in specs.iter().zip(&r.values) {
        debug_assert_eq!(m.name, name);
        if value.abs() >= 1e-3 {
            println!("  {name:<36} {value:>16.4} {}", m.unit);
        } else if !(skip_zero && *value == 0.0) {
            println!("  {name:<36} {value:>16.3e} {}", m.unit);
        }
    }
    println!(
        "  {:<36} {:>16.6} ratio  ({} of {} operations)",
        "failed_fraction",
        r.tally.failed_fraction(),
        r.tally.failed,
        r.tally.attempted
    );
}

/// `run` and `trace`: every workload once, each in its own process.
fn all_workloads(args: &Args, traced: bool) -> ExitCode {
    let (Some(seed), Some(seconds)) = (
        args.get("seed", 1u64),
        args.get("seconds", RUN_SECONDS as f64),
    ) else {
        return usage();
    };
    let mut ok = true;
    for w in &WORKLOADS {
        println!(
            "{} (seed {seed}, {seconds} s{})",
            w.name,
            if traced { ", traced" } else { "" }
        );
        match child(w.name, seed, seconds, traced) {
            Some(r) => {
                print_metrics(if traced { PER_LAYER } else { &END_TO_END }, &r, traced);
                ok &= r.correct;
            }
            None => {
                println!("  no result");
                ok = false;
            }
        }
    }
    if traced {
        merge_trace_outputs(args.has("explain"));
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Fold the per-workload files of a traced sweep into `trace.json` (one
/// process per workload) and `layers.json`, and print the self-time
/// tables when asked.
fn merge_trace_outputs(explain: bool) {
    let out = common::out_dir();
    let read = |file: String| std::fs::read_to_string(out.join(file)).unwrap_or_default();
    let mut events = String::from("[\n");
    let mut layers = Vec::new();
    for w in &WORKLOADS {
        let trace = read(format!("{}.trace.json", w.name));
        if let Some(body) = trace
            .strip_prefix("[\n")
            .and_then(|t| t.strip_suffix(TRACE_END))
        {
            events.push_str(body);
        }
        layers.push(
            read(format!("{}.layers.json", w.name))
                .trim_end()
                .to_string(),
        );
        if explain {
            println!(
                "self time, {}:\n{}",
                w.name,
                read(format!("{}.explain.txt", w.name))
            );
        }
    }
    events.push_str(TRACE_END);
    let layers = format!("[\n{}\n]\n", layers.join(",\n"));
    for (file, text) in [("trace.json", events), ("layers.json", layers)] {
        std::fs::write(out.join(file), text)
            .unwrap_or_else(|e| panic!("writing benchmark/out/{file}: {e}"));
    }
    println!("wrote {0}/trace.json and {0}/layers.json", out.display());
}

/// `repeat`: `sets` sets of `runs` runs per workload on this one build,
/// every run on its own seed.  Per metric and workload it prints each
/// set's median and quartile spread beside the bound, and fails if two
/// sets' medians disagree by more than the bound or a spread exceeds it
/// (`setup_s` is held to the median check only).
fn repeat(args: &Args) -> ExitCode {
    let (Some(sets), Some(runs), Some(seed), Some(seconds)) = (
        args.get("sets", 2usize),
        args.get("runs", 5usize),
        args.get("seed", 1u64),
        args.get("seconds", RUN_SECONDS as f64),
    ) else {
        return usage();
    };
    let only: Option<String> = args.get("workload", String::new());
    let mut ok = true;
    for w in WORKLOADS
        .iter()
        .filter(|w| only.as_deref().is_none_or(|o| o.is_empty() || o == w.name))
    {
        // samples[set][metric] = one value per run
        let mut samples = vec![vec![Vec::new(); END_TO_END.len()]; sets];
        for (set, per_metric) in samples.iter_mut().enumerate() {
            for run in 0..runs {
                let run_seed = seed + (set * runs + run) as u64;
                match child(w.name, run_seed, seconds, false) {
                    Some(r) if r.correct => {
                        for (slot, (_, value)) in per_metric.iter_mut().zip(&r.values) {
                            slot.push(*value);
                        }
                    }
                    _ => {
                        println!("{}: run with seed {run_seed} failed", w.name);
                        ok = false;
                    }
                }
            }
        }
        println!("{}", w.name);
        for (i, m) in END_TO_END.iter().enumerate() {
            let medians: Vec<f64> = samples.iter().map(|s| stats::median(&s[i])).collect();
            let spreads: Vec<f64> = samples
                .iter()
                .map(|s| stats::quartile_spread(&s[i]))
                .collect();
            let drift = medians
                .iter()
                .map(|a| (a / medians[0] - 1.0).abs())
                .fold(0.0, f64::max);
            let wide = m.name != "setup_s" && spreads.iter().any(|s| *s > m.bound);
            let verdict = if drift > m.bound || wide {
                "FAIL"
            } else {
                "ok"
            };
            ok &= verdict == "ok";
            let fmt = |v: &[f64], scale: f64| {
                v.iter()
                    .map(|x| format!("{:.4}", x * scale))
                    .collect::<Vec<_>>()
                    .join(" / ")
            };
            println!(
                "  {:<14} medians {} {}   spread% {}   drift% {:.2}   bound% {:.0}   {verdict}",
                m.name,
                fmt(&medians, 1.0),
                m.unit,
                fmt(&spreads, 100.0),
                100.0 * drift,
                100.0 * m.bound
            );
            for set in &samples {
                println!("  {:<14}   runs {}", "", fmt(&set[i], 1.0));
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(args) = Args::parse(&argv) else {
        return usage();
    };
    match args.command.as_deref() {
        None => single(&args),
        Some("run") => all_workloads(&args, false),
        Some("trace") => all_workloads(&args, true),
        Some("repeat") => repeat(&args),
        Some("manifest") => {
            print!("{}", spec::manifest());
            ExitCode::SUCCESS
        }
        Some(_) => usage(),
    }
}
