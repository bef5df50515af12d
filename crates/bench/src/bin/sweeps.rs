//! Parameter sweeps: the *series* behind the paper's tables, emitted as
//! CSV (stdout or `results/*.csv` with `--write`) so the curves — words
//! vs `n`, messages vs `M`, critical path vs `P` — can be plotted or
//! regression-checked.
//!
//! ```text
//! cargo run --release -p cholcomm-bench --bin sweeps [--write]
//! ```

use cholcomm_core::distsim::CostModel;
use cholcomm_core::matrix::parallel::par_map;
use cholcomm_core::matrix::spd;
use cholcomm_core::par::pxpotrf::{pxpotrf, BroadcastKind};
use cholcomm_core::seq::zoo::{price_trace, Algorithm, LayoutKind, ModelKind};
use cholcomm_core::sweep::TraceCache;
use std::fmt::Write as _;

fn seq_sweep_words_vs_n(ms: usize) -> String {
    let mut csv = String::from("n,naive_left,lapack_blocked,toledo_morton,ap00_morton\n");
    let b = (((ms / 3) as f64).sqrt() as usize).max(1);
    let counting = ModelKind::Counting { message_cap: Some(ms) };
    let lru = ModelKind::Lru { m: ms };
    for n in [32usize, 64, 128, 256] {
        if n * n <= ms {
            continue;
        }
        let mut rng = spd::test_rng(7000 + n as u64);
        let a = spd::random_spd(n, &mut rng);
        let cache = TraceCache::new();
        let cases = [
            (Algorithm::NaiveLeft, LayoutKind::ColMajor, &counting),
            (Algorithm::LapackBlocked { b }, LayoutKind::Blocked(b), &counting),
            (Algorithm::Toledo { gemm_leaf: 4 }, LayoutKind::Morton, &lru),
            (Algorithm::Ap00 { leaf: 4 }, LayoutKind::Morton, &lru),
        ];
        let words = par_map(&cases, |&(alg, layout, model)| {
            price_trace(&cache.trace(alg, layout, &a).unwrap(), model)[0].words
        });
        let _ = writeln!(csv, "{n},{},{},{},{}", words[0], words[1], words[2], words[3]);
    }
    csv
}

fn seq_sweep_messages_vs_m(n: usize) -> String {
    let mut csv = String::from("M,lapack_colmajor,lapack_blocked,toledo_morton,ap00_morton\n");
    let mut rng = spd::test_rng(7100 + n as u64);
    let a = spd::random_spd(n, &mut rng);
    // One cache across the whole M ladder: the cache-oblivious rows
    // (Toledo, AP00) record once and replay at every M; only LAPACK,
    // whose block size is a function of M, records per point.
    let cache = TraceCache::new();
    let points: Vec<usize> = [96usize, 192, 384, 768, 1536]
        .into_iter()
        .filter(|&ms| n * n > ms)
        .collect();
    let mut jobs: Vec<(Algorithm, LayoutKind, ModelKind)> = Vec::new();
    for &ms in &points {
        let b = (((ms / 3) as f64).sqrt() as usize).max(1);
        let counting = ModelKind::Counting { message_cap: Some(ms) };
        let lru = ModelKind::Lru { m: ms };
        jobs.push((Algorithm::LapackBlocked { b }, LayoutKind::ColMajor, counting.clone()));
        jobs.push((Algorithm::LapackBlocked { b }, LayoutKind::Blocked(b), counting));
        jobs.push((Algorithm::Toledo { gemm_leaf: 4 }, LayoutKind::Morton, lru.clone()));
        jobs.push((Algorithm::Ap00 { leaf: 4 }, LayoutKind::Morton, lru));
    }
    let msgs = par_map(&jobs, |(alg, layout, model)| {
        price_trace(&cache.trace(*alg, *layout, &a).unwrap(), model)[0].messages
    });
    for (i, &ms) in points.iter().enumerate() {
        let row = &msgs[4 * i..4 * i + 4];
        let _ = writeln!(csv, "{ms},{},{},{},{}", row[0], row[1], row[2], row[3]);
    }
    csv
}

fn par_sweep_vs_p(n: usize) -> String {
    let mut csv = String::from("P,b,cp_words,cp_messages,max_flops\n");
    let mut rng = spd::test_rng(7200 + n as u64);
    let a = spd::random_spd(n, &mut rng);
    for p in [1usize, 4, 16, 64] {
        let b = (n / (p as f64).sqrt() as usize).max(1);
        let rep = pxpotrf(&a, b, p, CostModel::typical(), BroadcastKind::Tree).unwrap();
        let _ = writeln!(
            csv,
            "{p},{b},{},{},{}",
            rep.critical.words, rep.critical.messages, rep.max_proc_flops
        );
    }
    csv
}

fn main() {
    let write = std::env::args().any(|a| a == "--write");
    let outputs = [
        ("seq_words_vs_n_M768.csv", seq_sweep_words_vs_n(768)),
        ("seq_messages_vs_M_n128.csv", seq_sweep_messages_vs_m(128)),
        ("par_critical_path_vs_P_n192.csv", par_sweep_vs_p(192)),
    ];
    for (name, csv) in outputs {
        if write {
            std::fs::create_dir_all("results").expect("results dir");
            std::fs::write(format!("results/{name}"), &csv).expect("write csv");
            println!("wrote results/{name}");
        } else {
            println!("# {name}\n{csv}");
        }
    }
}
