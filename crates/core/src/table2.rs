//! Regeneration of **Table 2**: parallel lower bounds vs ScaLAPACK's
//! `PxPOTRF`, across processor counts and block sizes.

use crate::bounds;
use crate::report::{fnum, TextTable};
use cholcomm_distsim::CostModel;
use cholcomm_matrix::parallel::par_map;
use cholcomm_matrix::{kernels, norms, spd, Matrix};
use cholcomm_par::pxpotrf::{pxpotrf, BroadcastKind};

/// One measured `(P, b)` point.
#[derive(Debug, Clone)]
pub struct Table2Point {
    /// Processor count (perfect square).
    pub p: usize,
    /// Block size.
    pub b: usize,
    /// Critical-path words.
    pub cp_words: u64,
    /// Critical-path messages.
    pub cp_messages: u64,
    /// Busiest-processor flops.
    pub max_flops: u64,
    /// `cp_words / (n^2 / sqrt(P))` — should be `O(log P)` at
    /// `b = n/sqrt(P)`.
    pub words_vs_lower: f64,
    /// `cp_messages / sqrt(P)` — should be `O(log P)` at the same block
    /// size.
    pub messages_vs_lower: f64,
    /// `max_flops / (n^3 / 3P)` — `O(1)` means no parallel-efficiency
    /// loss.
    pub flops_vs_lower: f64,
    /// Measured words / the paper's `(nb/4 + n^2/sqrt(P)) log P` formula.
    pub words_vs_paper: f64,
    /// Measured messages / the paper's `(3/2)(n/b) log P` formula.
    pub messages_vs_paper: f64,
}

/// Run one `(n, p, b)` point and verify the factor numerically.
pub fn run_point(a: &Matrix<f64>, p: usize, b: usize) -> Table2Point {
    run_point_against(a, &reference_factor(a), p, b)
}

/// The sequential factor every `(P, b)` point is verified against —
/// computed once per sweep, not once per point.
fn reference_factor(a: &Matrix<f64>) -> Matrix<f64> {
    let mut want = a.clone();
    kernels::potf2(&mut want).expect("table2 sweep input must be SPD");
    want.lower_triangle()
        .expect("potf2 output is square, so the lower triangle exists")
}

fn run_point_against(a: &Matrix<f64>, want: &Matrix<f64>, p: usize, b: usize) -> Table2Point {
    let n = a.rows();
    let rep = pxpotrf(a, b, p, CostModel::typical(), BroadcastKind::Tree).expect("SPD input");
    let diff = norms::max_abs_diff(&rep.factor, want);
    assert!(
        diff < 1e-8 * (n as f64),
        "PxPOTRF(P={p}, b={b}) disagrees with sequential: {diff}"
    );

    Table2Point {
        p,
        b,
        cp_words: rep.critical.words,
        cp_messages: rep.critical.messages,
        max_flops: rep.max_proc_flops,
        words_vs_lower: rep.critical.words as f64 / bounds::par_bandwidth_scale(n, p),
        messages_vs_lower: rep.critical.messages as f64 / bounds::par_latency_scale(p),
        flops_vs_lower: rep.max_proc_flops as f64 / bounds::par_flop_scale(n, p),
        words_vs_paper: rep.critical.words as f64 / bounds::scalapack_words(n, b, p).max(1.0),
        messages_vs_paper: rep.critical.messages as f64
            / bounds::scalapack_messages(n, b, p).max(1.0),
    }
}

/// Sweep: for each `p`, measure a few block sizes including the optimal
/// `b = n / sqrt(P)`.
pub fn run_table2(n: usize, ps: &[usize], seed: u64) -> Vec<Table2Point> {
    let mut rng = spd::test_rng(seed);
    let a = spd::random_spd(n, &mut rng);
    let mut points = Vec::new();
    for &p in ps {
        let sqrt_p = (p as f64).sqrt() as usize;
        let b_opt = (n / sqrt_p).max(1);
        let mut bs = vec![b_opt];
        if b_opt / 4 >= 1 && p > 1 {
            bs.insert(0, (b_opt / 4).max(1));
        }
        if b_opt / 2 >= 1 && p > 1 && b_opt / 2 != b_opt / 4 {
            bs.insert(1, (b_opt / 2).max(1));
        }
        bs.dedup();
        for b in bs {
            points.push((p, b));
        }
    }
    // Every (P, b) point simulates independently against the one shared
    // reference factor — fan the whole sweep out over the pool.
    let want = reference_factor(&a);
    par_map(&points, |&(p, b)| run_point_against(&a, &want, p, b))
}

/// Render the sweep as text.
pub fn render_table2(n: usize, points: &[Table2Point]) -> String {
    let mut t = TextTable::new(
        &format!("Table 2 (parallel ScaLAPACK PxPOTRF), n = {n}"),
        &[
            "P",
            "b",
            "cp words",
            "cp msgs",
            "max flops",
            "words/(n^2/sqrtP)",
            "msgs/sqrtP",
            "flops/(n^3/3P)",
            "words/paper",
            "msgs/paper",
        ],
    );
    for pt in points {
        t.row(vec![
            pt.p.to_string(),
            pt.b.to_string(),
            pt.cp_words.to_string(),
            pt.cp_messages.to_string(),
            pt.max_flops.to_string(),
            fnum(pt.words_vs_lower),
            fnum(pt.messages_vs_lower),
            fnum(pt.flops_vs_lower),
            fnum(pt.words_vs_paper),
            fnum(pt.messages_vs_paper),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimal_block_size_is_within_logp_of_the_lower_bounds() {
        let n = 48;
        for p in [4usize, 16] {
            let sqrt_p = (p as f64).sqrt() as usize;
            let mut rng = spd::test_rng(11);
            let a = spd::random_spd(n, &mut rng);
            let pt = run_point(&a, p, n / sqrt_p);
            let logp = (p as f64).log2();
            assert!(
                pt.words_vs_lower <= 4.0 * logp + 4.0,
                "P={p}: words ratio {} vs log P = {logp}",
                pt.words_vs_lower
            );
            assert!(
                pt.messages_vs_lower <= 6.0 * logp + 6.0,
                "P={p}: message ratio {}",
                pt.messages_vs_lower
            );
            // The busiest processor (the one owning the last diagonal
            // block) does ~3x the even share plus lower-order terms; the
            // point of the bound is O(n^3/P), not perfect balance.
            assert!(pt.flops_vs_lower < 10.0, "flops ratio {}", pt.flops_vs_lower);
        }
    }

    #[test]
    fn smaller_blocks_mean_more_messages() {
        let n = 64;
        let mut rng = spd::test_rng(12);
        let a = spd::random_spd(n, &mut rng);
        let big = run_point(&a, 16, 16); // b = n/sqrt(P)
        let small = run_point(&a, 16, 4);
        assert!(small.cp_messages > 2 * big.cp_messages);
    }

    #[test]
    fn sweep_and_render() {
        let pts = run_table2(32, &[1, 4], 13);
        assert!(!pts.is_empty());
        let s = render_table2(32, &pts);
        assert!(s.contains("Table 2"));
        assert!(s.lines().count() >= 3 + pts.len());
    }
}
