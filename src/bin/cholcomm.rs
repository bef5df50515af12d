//! The `cholcomm` command-line front door: one binary for every
//! experiment, with overridable parameters.
//!
//! ```text
//! cholcomm table1 [n] [M]
//! cholcomm table2 [n]
//! cholcomm theorem1 [n] [M]
//! cholcomm multilevel [n] [M1,M2,...]
//! cholcomm figures
//! cholcomm check            # reproduction self-check (exit != 0 on failure)
//! cholcomm factor [n] [alg] # factor a random SPD matrix and report
//! ```

use cholcomm::cachesim::LruTracer;
use cholcomm::layout::{Laid, Morton};
use cholcomm::matrix::{norms, spd, KernelImpl};
use cholcomm::multilevel::{render_multilevel, run_multilevel};
use cholcomm::seq::zoo::{run_algorithm, Algorithm, LayoutKind, ModelKind};
use cholcomm::table1::{render_table1, table1_at};
use cholcomm::stability::{render_stability, run_stability};
use cholcomm::sweep::TraceCache;
use cholcomm::table2::{render_table2, run_table2};
use cholcomm::theorem1::{render_reduction, run_reduction};
use cholcomm::verify::run_all;
use cholcomm::{figures, seq};

fn usage() -> ! {
    eprintln!(
        "usage: cholcomm <command> [args]\n\
         commands:\n\
           table1 [n=128] [M=768]     regenerate Table 1 at one point\n\
           table2 [n=96]              regenerate Table 2 (P in 1,4,16,64)\n\
           theorem1 [n=24] [M=192]    the matmul-by-Cholesky reduction\n\
           multilevel [n=64] [caps=48,96,512]\n\
           figures                    regenerate figures 1, 2, 3-5, 6\n\
           stability [n=64]           Sec 3.1.2 backward-error study\n\
           check                      reproduction self-check\n\
           factor [n=256] [alg=ap00]  factor a random SPD matrix (naive-left,\n\
                                      naive-right, lapack, toledo, ap00)"
    );
    std::process::exit(2);
}

fn arg_usize(args: &[String], i: usize, default: usize) -> usize {
    args.get(i)
        .map(|s| s.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("");
    match cmd {
        "table1" => {
            let n = arg_usize(&args, 1, 128);
            let m = arg_usize(&args, 2, 768);
            let (cfg, rows) = table1_at(n, m, 1, &TraceCache::new());
            println!("{}", render_table1(cfg, &rows));
        }
        "table2" => {
            let n = arg_usize(&args, 1, 96);
            let pts = run_table2(n, &[1, 4, 16, 64], 2);
            println!("{}", render_table2(n, &pts));
        }
        "theorem1" => {
            let n = arg_usize(&args, 1, 24);
            let m = arg_usize(&args, 2, 192);
            let rows = run_reduction(n, m, 3);
            println!("{}", render_reduction(n, m, &rows));
        }
        "multilevel" => {
            let n = arg_usize(&args, 1, 64);
            let caps: Vec<usize> = args
                .get(2)
                .map(|s| {
                    s.split(',')
                        .map(|x| x.parse().unwrap_or_else(|_| usage()))
                        .collect()
                })
                .unwrap_or_else(|| vec![48, 96, 512]);
            let rows = run_multilevel(n, &caps, 4);
            println!("{}", render_multilevel(n, &caps, &rows));
        }
        "figures" => {
            println!("{}", figures::figure1(8));
            println!("{}", figures::figure2(64, 8));
            println!("{}", figures::figure345(64, 192, 5));
            println!("{}", figures::figure45_structure(16, 2));
            println!("{}", figures::figure6(24, 4, 9));
        }
        "stability" => {
            let n = arg_usize(&args, 1, 64);
            let rows = run_stability(n, &[1e2, 1e6, 1e10], 10);
            println!("{}", render_stability(n, &rows));
        }
        "check" => {
            let report = run_all();
            println!("{}", report.render());
            if !report.all_passed() {
                std::process::exit(1);
            }
        }
        "factor" => {
            let n = arg_usize(&args, 1, 256);
            let alg = match args.get(2).map(String::as_str).unwrap_or("ap00") {
                "naive-left" => Algorithm::NaiveLeft,
                "naive-right" => Algorithm::NaiveRight,
                "lapack" => Algorithm::LapackBlocked { b: 16 },
                "toledo" => Algorithm::Toledo { gemm_leaf: 8 },
                "ap00" => Algorithm::Ap00 { leaf: 8 },
                _ => usage(),
            };
            let mut rng = spd::test_rng(6);
            let a = spd::random_spd(n, &mut rng);
            let m = (n * n / 16).max(64);
            let t0 = std::time::Instant::now();
            let rep = run_algorithm(alg, &a, LayoutKind::Morton, &ModelKind::Lru { m })
                .expect("SPD input");
            let dt = t0.elapsed();
            let r = norms::cholesky_residual(&a, &rep.factor);
            println!("{} on recursive blocks, n = {n}, simulated M = {m} words", alg.name());
            println!("residual ||A-LL^T||_F/||A||_F = {r:.3e} (tolerance {:.3e})", norms::residual_tolerance(n));
            println!("traffic {}   wall-clock {dt:?} (includes simulation overhead)", rep.levels[0]);

            // Also time the raw (untraced) factorization.
            let t1 = std::time::Instant::now();
            let mut laid = Laid::from_matrix(&a, Morton::square(n));
            let mut null = cholcomm::cachesim::NullTracer;
            seq::ap00::square_rchol(&mut laid, &mut null, 16, KernelImpl::Reference).unwrap();
            println!("untraced AP00 wall-clock {:?}", t1.elapsed());
            let _ = LruTracer::new(64); // keep the tracer types in the CLI's public surface
        }
        _ => usage(),
    }
}
