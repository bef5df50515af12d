//! Regenerate **Table 1** (sequential bandwidth & latency) at several
//! `(n, M)` points.
//!
//! ```text
//! cargo run --release -p cholcomm-bench --bin table1
//! ```

use cholcomm_core::matrix::spd;
use cholcomm_core::sweep::TraceCache;
use cholcomm_core::table1::{
    render_table1, render_table1_extended, run_table1_extended, table1_at, Table1Config,
};

fn main() {
    // The paper's regime: n^2 > M.  Power-of-two n keeps the recursive
    // algorithms' blocks aligned with the Morton quadrants.  One trace
    // cache spans every point: n = 128 appears at two values of M, so
    // the M-independent rows (naive, Toledo, AP00) replay their n = 128
    // traces instead of re-running the factorization.
    let cache = TraceCache::new();
    let points = [(64usize, 192usize), (128, 768), (128, 192), (256, 3072)];
    for (i, (n, m)) in points.iter().enumerate() {
        let (cfg, rows) = table1_at(*n, *m, 1000 + i as u64, &cache);
        println!("{}", render_table1(cfg, &rows));
    }
    // Extended rows: the additional schedule variants this workspace
    // implements beyond the paper's nine.
    let cfg = Table1Config { n: 128, m: 768, leaf: 4 };
    let mut rng = spd::test_rng(1100);
    let a = spd::random_spd(128, &mut rng);
    let ext = run_table1_extended(cfg, &a);
    println!("{}", render_table1_extended(cfg, &ext));

    println!("Reading guide:");
    println!("  words/(n^3/sqrt(M))  ~ O(1)        => bandwidth-optimal (Conclusion 2)");
    println!("  words/(n^3/sqrt(M))  ~ sqrt(M)     => naive, bandwidth-suboptimal (Conclusion 1)");
    println!("  msgs/(n^3/M^1.5)     ~ O(1)        => latency-optimal (needs block-contiguous storage, Conclusions 3/5)");
    println!("  msgs/(n^3/M^1.5)     ~ sqrt(M)     => column-major latency penalty");
    println!("  Toledo on recursive blocks stays pinned near n^2 messages (Conclusion 4).");
}
