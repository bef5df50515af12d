//! Distributed Cholesky on the simulated machine: run ScaLAPACK's
//! PxPOTRF over a 4x4 processor grid, verify the factor against the
//! sequential reference, and report critical-path communication next to
//! the 2D lower bounds.
//!
//! ```text
//! cargo run --release --example distributed_cholesky
//! ```

use cholcomm::bounds;
use cholcomm::distsim::CostModel;
use cholcomm::matrix::{kernels, norms, spd};
use cholcomm::par::pxpotrf::{pxpotrf, BroadcastKind};

fn main() {
    let n = 192;
    let p = 16;
    let mut rng = spd::test_rng(5);
    let a = spd::random_spd(n, &mut rng);

    println!("PxPOTRF: n = {n}, P = {p} (4x4 grid), alpha-beta-gamma = 1000:10:1");
    println!(
        "{:>6} {:>12} {:>10} {:>12} {:>10} {:>12}",
        "b", "cp words", "cp msgs", "max flops", "makespan", "factor ok?"
    );
    for b in [6usize, 12, 24, 48] {
        let rep = pxpotrf(&a, b, p, CostModel::typical(), BroadcastKind::Tree).expect("SPD");
        // Verify against the sequential factor.
        let mut want = a.clone();
        kernels::potf2(&mut want).unwrap();
        let diff = norms::max_abs_diff(&rep.factor, &want.lower_triangle().unwrap());
        println!(
            "{b:>6} {:>12} {:>10} {:>12} {:>10.0} {:>12}",
            rep.critical.words,
            rep.critical.messages,
            rep.max_proc_flops,
            rep.makespan,
            if diff < 1e-8 { "yes" } else { "NO" }
        );
        assert!(diff < 1e-8);
    }
    println!();
    println!(
        "2D lower bounds: words = Omega(n^2/sqrt(P)) = {:.0}, messages = Omega(sqrt(P)) = {:.0}",
        bounds::par_bandwidth_scale(n, p),
        bounds::par_latency_scale(p)
    );
    println!(
        "at b = n/sqrt(P) = {} both are attained to within the log P = {} factor (Conclusion 6)",
        n / 4,
        (p as f64).log2()
    );
}
