//! The crash-point explorer: its evidence to stdout
//! (`results/crash_bench.json`), its throughput to stderr.
//!
//! ```text
//! cargo run --release -p cholcomm-bench --bin crash_bench > results/crash_bench.json
//! cargo run --release -p cholcomm-bench --bin crash_bench -- --seed 7
//! ```
//!
//! Three sections:
//!
//! - **exhaustive** — a checkpointed out-of-core factorization is
//!   recorded once on the simulated crash disk, then recovery is
//!   re-driven at *every* crash state of its op schedule (all prefixes,
//!   all survive/drop subsets of each un-barriered window, every
//!   sector-prefix tear).  Violations must be zero.
//! - **sampled** — the same check on a larger matrix over seeded-sampled
//!   crash sites (`--seed` varies the sample, nothing else).
//! - **broken_protocol** — the deliberately broken commit discipline
//!   (commit record without the preceding barrier) must be *caught*,
//!   with a shrunk minimal fault plan in the artifact.
//!
//! A violation of the correct protocol, or a broken protocol that goes
//! uncaught, exits 1.  Every number on stdout is a function of the code
//! and the seed; the exploration throughput (states per second) goes to
//! stderr.

use cholcomm_core::faults::{crash_sites_exhaustive, crash_sites_sampled};
use cholcomm_core::matrix::spd;
use cholcomm_core::ooc::{explore_crash_sites, record_run, CommitDiscipline, CrashExploration};
use std::fmt::Write as _;
use std::time::Instant;

const SECTOR: usize = 64;

struct Section {
    name: &'static str,
    n: usize,
    b: usize,
    schedule_ops: usize,
    crash_points: usize,
    states_explored: usize,
    violations: usize,
    rework_fraction: f64,
    elapsed_s: f64,
    caught: bool,
    minimal_repro: String,
}

fn section(
    name: &'static str,
    n: usize,
    b: usize,
    report: &CrashExploration,
    elapsed_s: f64,
) -> Section {
    Section {
        name,
        n,
        b,
        schedule_ops: report.schedule_ops,
        crash_points: report.crash_points,
        states_explored: report.states_explored,
        violations: report.violations.len(),
        rework_fraction: report.rework_fraction(),
        elapsed_s,
        caught: !report.violations.is_empty(),
        minimal_repro: report
            .violations
            .first()
            .map(|v| v.minimal.to_string())
            .unwrap_or_default(),
    }
}

fn to_json(sections: &[Section], seed: u64) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"seed\": {seed},");
    s.push_str("  \"sections\": [\n");
    for (i, r) in sections.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(s, "      \"n\": {},", r.n);
        let _ = writeln!(s, "      \"b\": {},", r.b);
        let _ = writeln!(s, "      \"schedule_ops\": {},", r.schedule_ops);
        let _ = writeln!(s, "      \"crash_points\": {},", r.crash_points);
        let _ = writeln!(s, "      \"states_explored\": {},", r.states_explored);
        let _ = writeln!(s, "      \"violations\": {},", r.violations);
        let _ = writeln!(s, "      \"rework_fraction\": {:.4},", r.rework_fraction);
        let _ = writeln!(s, "      \"caught\": {},", r.caught);
        let _ = writeln!(s, "      \"minimal_repro\": \"{}\"", r.minimal_repro);
        let _ = writeln!(s, "    }}{}", if i + 1 < sections.len() { "," } else { "" });
    }
    s.push_str("  ]\n}\n");
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed: u64 = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xC0FFEE);
    eprintln!("crash_bench: seed={seed:#x}");
    let mut failed = false;
    let mut sections = Vec::new();

    // --- Exhaustive: every crash state of a small recorded run. ---
    {
        let a = spd::random_spd(8, &mut spd::test_rng(500));
        let run = record_run(&a, 4, 3, SECTOR, CommitDiscipline::Barriered, 0, 1)
            .expect("clean recorded run");
        let sites = crash_sites_exhaustive(&run.schedule, SECTOR);
        let t0 = Instant::now();
        let report = explore_crash_sites(&run, &sites);
        let sec = section("exhaustive", 8, 4, &report, t0.elapsed().as_secs_f64());
        if sec.violations != 0 {
            eprintln!(
                "crash_bench: exhaustive exploration found {} violations: {}",
                sec.violations,
                report.violations[0]
            );
            failed = true;
        }
        sections.push(sec);
    }

    // --- Sampled: seeded crash sites on a larger matrix. ---
    {
        let a = spd::random_spd(24, &mut spd::test_rng(502));
        let run = record_run(&a, 8, 4, SECTOR, CommitDiscipline::Barriered, 0, 1)
            .expect("clean recorded run");
        let sites = crash_sites_sampled(&run.schedule, SECTOR, seed, 64);
        let t0 = Instant::now();
        let report = explore_crash_sites(&run, &sites);
        let sec = section("sampled", 24, 8, &report, t0.elapsed().as_secs_f64());
        if sec.violations != 0 {
            eprintln!(
                "crash_bench: sampled exploration (seed {seed:#x}) found {} violations: {}",
                sec.violations,
                report.violations[0]
            );
            failed = true;
        }
        sections.push(sec);
    }

    // --- Broken protocol: the explorer must catch it. ---
    {
        let a = spd::random_spd(8, &mut spd::test_rng(501));
        let run = record_run(&a, 4, 3, SECTOR, CommitDiscipline::UnbarrieredCommit, 0, 1)
            .expect("clean recorded run");
        let sites = crash_sites_exhaustive(&run.schedule, SECTOR);
        let t0 = Instant::now();
        let report = explore_crash_sites(&run, &sites);
        let sec = section("broken_protocol", 8, 4, &report, t0.elapsed().as_secs_f64());
        if !sec.caught {
            eprintln!(
                "crash_bench: the unbarriered-commit protocol was NOT caught over {} states",
                sec.states_explored
            );
            failed = true;
        }
        sections.push(sec);
    }

    for r in &sections {
        eprintln!(
            "{:>16}: n={:<3} ops={:<4} crash points {:<4} states {:<6} violations {:<3} \
             rework {:.3}  {:>8.0} states/s{}",
            r.name,
            r.n,
            r.schedule_ops,
            r.crash_points,
            r.states_explored,
            r.violations,
            r.rework_fraction,
            r.states_explored as f64 / r.elapsed_s.max(1e-9),
            if r.caught {
                format!("  minimal repro: {}", r.minimal_repro)
            } else {
                String::new()
            }
        );
        if !(0.0..=1.0).contains(&r.rework_fraction) {
            eprintln!(
                "crash_bench: {}: rework fraction {} is outside [0, 1]",
                r.name, r.rework_fraction
            );
            failed = true;
        }
    }

    if failed {
        std::process::exit(1);
    }
    print!("{}", to_json(&sections, seed));
}
