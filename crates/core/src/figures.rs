//! Data and diagrams behind the paper's figures.
//!
//! * **Figure 1** — the dependency sets `S_{i,j}` of Equations (7)–(8):
//!   regenerated as exact set listings plus DAG statistics.
//! * **Figure 2** — the storage formats: regenerated as the message cost
//!   of moving a `b x b` block and a column under each format (the
//!   quantity the figure is drawn to explain).
//! * **Figures 3–5** — algorithm structure: regenerated as per-phase
//!   traffic breakdowns of the naïve and blocked algorithms.
//! * **Figure 6** — the block-cyclic distribution: regenerated as the
//!   ownership map of the paper's own example (`n = 24`, `b = 4`,
//!   `P = 9`).

use crate::report::TextTable;
use crate::sweep::TraceCache;
use cholcomm_cachesim::{CountingTracer, Tracer};
use cholcomm_distsim::ProcGrid;
use cholcomm_layout::{
    cells_block, cells_col_segment, Blocked, ColMajor, Layout, Morton, PackedLower,
    RecursivePacked, RowMajor, Rfp,
};
use cholcomm_matrix::parallel::par_map;
use cholcomm_matrix::spd;
use cholcomm_seq::zoo::{price_trace, Algorithm, LayoutKind, ModelKind};
use cholcomm_starred::dag::DepDag;

/// Figure 1: dependency sets and DAG statistics for an `n x n` Cholesky.
pub fn figure1(n: usize) -> String {
    let dag = DepDag::new(n);
    let mut t = TextTable::new(
        &format!("Figure 1: dependency sets S_ij (n = {n})"),
        &["entry", "|S_ij|", "set (first 6)"],
    );
    for &(i, j) in dag.entries().iter().take(12) {
        let deps = dag.deps(i, j);
        let shown: Vec<String> = deps.iter().take(6).map(|d| format!("{d:?}")).collect();
        t.row(vec![
            format!("L({i},{j})"),
            deps.len().to_string(),
            shown.join(" "),
        ]);
    }
    let mut s = t.render();
    s.push_str(&format!(
        "total entries: {}, dependency edges: {} (Theta(n^3)), flops: {} (n^3/3 = {})\n",
        dag.entries().len(),
        dag.edge_count(),
        dag.total_flops(),
        n * n * n / 3
    ));
    s
}

/// Figure 2: message cost of a `b x b` aligned block read and a full
/// column read, per storage format.
pub fn figure2(n: usize, b: usize) -> String {
    let mut t = TextTable::new(
        &format!("Figure 2: storage formats (n = {n}, b = {b})"),
        &["format", "class", "words", "block msgs", "column msgs"],
    );
    // Align the sample block on a power-of-two boundary that exists in
    // every format and stays below the diagonal.
    let (bi, bj) = (n / 2, 0);
    let mut push = |name: &str, class: &str, layout: &dyn LayoutProbe| {
        t.row(vec![
            name.to_string(),
            class.to_string(),
            layout.words().to_string(),
            layout.block_msgs(bi, bj, b).to_string(),
            layout.col_msgs(0, n).to_string(),
        ]);
    };
    push("full column-major", "column-major", &ColMajor::square(n));
    push("full row-major", "column-major", &RowMajor::square(n));
    push("old packed", "column-major", &PackedLower::new(n));
    push("rect. full packed", "column-major", &Rfp::new(n));
    push("blocked (b)", "block-contiguous", &Blocked::square(n, b));
    push("recursive (Morton)", "block-contiguous", &Morton::square(n));
    push(
        "recursive packed",
        "hybrid",
        &RecursivePacked::new(n),
    );
    t.render()
}

/// Object-safe probe over the layout zoo for [`figure2`].
trait LayoutProbe {
    fn words(&self) -> usize;
    fn block_msgs(&self, i0: usize, j0: usize, b: usize) -> usize;
    fn col_msgs(&self, j: usize, n: usize) -> usize;
}

impl<L: Layout> LayoutProbe for L {
    fn words(&self) -> usize {
        self.len()
    }
    fn block_msgs(&self, i0: usize, j0: usize, b: usize) -> usize {
        self.messages_for(cells_block(i0, j0, b, b), None)
    }
    fn col_msgs(&self, j: usize, n: usize) -> usize {
        self.messages_for(cells_col_segment(j, j, n), None)
    }
}

/// Figures 3–5: traffic of each algorithm family on the same `(n, M)`
/// point, decomposed per algorithm (the figures illustrate *why* the
/// schedules differ; the words/messages columns show the consequence).
pub fn figure345(n: usize, m: usize, seed: u64) -> String {
    let mut rng = spd::test_rng(seed);
    let a = spd::random_spd(n, &mut rng);
    let b = (((m / 3) as f64).sqrt() as usize).max(1);
    let mut t = TextTable::new(
        &format!("Figures 3-5: algorithm structure and traffic (n = {n}, M = {m})"),
        &["algorithm", "figure", "layout", "words", "messages"],
    );
    let cases: Vec<(Algorithm, &str, LayoutKind, ModelKind)> = vec![
        (
            Algorithm::NaiveLeft,
            "Fig 3 (left)",
            LayoutKind::ColMajor,
            ModelKind::Counting { message_cap: Some(m) },
        ),
        (
            Algorithm::NaiveRight,
            "Fig 3 (right)",
            LayoutKind::ColMajor,
            ModelKind::Counting { message_cap: Some(m) },
        ),
        (
            Algorithm::LapackBlocked { b },
            "Alg 4",
            LayoutKind::Blocked(b),
            ModelKind::Counting { message_cap: Some(m) },
        ),
        (
            Algorithm::Toledo { gemm_leaf: 4 },
            "Fig 4",
            LayoutKind::Morton,
            ModelKind::Lru { m },
        ),
        (
            Algorithm::Ap00 { leaf: 4 },
            "Fig 5",
            LayoutKind::Morton,
            ModelKind::Lru { m },
        ),
    ];
    let cache = TraceCache::new();
    let measured = par_map(&cases, |(alg, fig, layout, model)| {
        let stats = price_trace(&cache.trace(*alg, *layout, &a).expect("SPD"), model)[0];
        (*alg, *fig, *layout, stats)
    });
    for (alg, fig, layout, stats) in measured {
        t.row(vec![
            alg.name().to_string(),
            fig.to_string(),
            layout.name().to_string(),
            stats.words.to_string(),
            stats.messages.to_string(),
        ]);
    }
    t.render()
}

/// Figure 3, quantified: the per-iteration traffic profiles of the two
/// naive algorithms as ASCII bar charts (left-looking ramps up to a
/// mid-factorization peak; right-looking starts at its maximum and
/// decays — the shapes the figure's arrows depict).
pub fn figure3_profile(n: u64) -> String {
    use cholcomm_seq::profile::{naive_left_profile, naive_right_profile, peak_iteration};
    let lp = naive_left_profile(n);
    let rp = naive_right_profile(n);
    let maxw = *rp.iter().chain(lp.iter()).max().unwrap_or(&1) as f64;
    let bar = |w: u64| {
        let cols = ((w as f64 / maxw) * 48.0).round() as usize;
        "#".repeat(cols.max(if w > 0 { 1 } else { 0 }))
    };
    let mut s = format!("Figure 3 profile: words per iteration, n = {n}
");
    s.push_str(&format!(
        "{:>4} {:>10} {:<50} {:>10} {}
",
        "j", "left", "", "right", ""
    ));
    let step = (n as usize / 16).max(1);
    for j in (0..n as usize).step_by(step) {
        s.push_str(&format!(
            "{j:>4} {:>10} {:<50} {:>10} {}
",
            lp[j],
            bar(lp[j]),
            rp[j],
            bar(rp[j])
        ));
    }
    s.push_str(&format!(
        "left-looking peak at iteration {} of {n}; right-looking at 0
",
        peak_iteration(&lp)
    ));
    s
}

/// Figures 4 and 5: the recursion structure of the rectangular (Toledo)
/// and square (Ahmed–Pingali) algorithms, rendered as the split tree down
/// to a given depth.
pub fn figure45_structure(n: usize, depth: usize) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "Figure 4: rectangular recursive Cholesky on an n = {n} panel (column splits)
"
    ));
    fn rect(s: &mut String, c0: usize, w: usize, n: usize, d: usize, indent: usize) {
        let pad = "  ".repeat(indent);
        if w == 1 || d == 0 {
            s.push_str(&format!(
                "{pad}factor column(s) {c0}..{} (rows {c0}..{n})
",
                c0 + w
            ));
            return;
        }
        let w1 = w / 2;
        s.push_str(&format!("{pad}panel cols {c0}..{} (rows {c0}..{n}):
", c0 + w));
        rect(s, c0, w1, n, d - 1, indent + 1);
        s.push_str(&format!(
            "{pad}  [A22;A32] -= [L21;L31]*L21^T   ({}x{} by k={})
",
            n - (c0 + w1),
            w - w1,
            w1
        ));
        rect(s, c0 + w1, w - w1, n, d - 1, indent + 1);
    }
    rect(&mut s, 0, n, n, depth, 0);
    s.push('\n');
    s.push_str(&format!(
        "Figure 5: square recursive Cholesky on n = {n} (diagonal splits)
"
    ));
    fn square(s: &mut String, o: usize, n: usize, d: usize, indent: usize) {
        let pad = "  ".repeat(indent);
        if d == 0 || n <= 1 {
            s.push_str(&format!("{pad}POTF2 block ({o},{o}) size {n}
"));
            return;
        }
        let n1 = n / 2;
        s.push_str(&format!("{pad}Chol({o}..{}):
", o + n));
        square(s, o, n1, d - 1, indent + 1);
        s.push_str(&format!(
            "{pad}  RTRSM  L21 = A21 * L11^-T      ({}x{n1} at ({},{o}))
",
            n - n1,
            o + n1
        ));
        s.push_str(&format!(
            "{pad}  SYRK   A22 -= L21 * L21^T      ({0}x{0} at ({1},{1}))
",
            n - n1,
            o + n1
        ));
        square(s, o + n1, n - n1, d - 1, indent + 1);
    }
    square(&mut s, 0, n, depth, 0);
    s
}

/// Figure 6: the block-cyclic ownership map for `n`, `b`, `P` (the paper
/// draws `n = 24`, `b = 4`, `P = 9`).
pub fn figure6(n: usize, b: usize, p: usize) -> String {
    let grid = ProcGrid::square(p);
    let nb = n.div_ceil(b);
    let mut s = format!(
        "Figure 6: block-cyclic distribution, n = {n}, b = {b}, P = {p} ({}x{} grid)\n",
        grid.rows(),
        grid.cols()
    );
    s.push_str("(entries are owning processor ranks; lower block-triangle is what PxPOTRF references)\n");
    for bi in 0..nb {
        for bj in 0..nb {
            if bj <= bi {
                s.push_str(&format!("{:>3}", grid.block_owner(bi, bj)));
            } else {
                s.push_str("  .");
            }
        }
        s.push('\n');
    }
    s
}

/// Total traffic of reading every aligned `b x b` lower block once — the
/// quantity Figure 2 is drawn to compare (used by the layouts bench).
pub fn sweep_block_reads<L: Layout>(layout: &L, n: usize, b: usize) -> (u64, u64) {
    let mut tr = CountingTracer::uncapped();
    for bj in (0..n).step_by(b) {
        for bi in (bj..n).step_by(b) {
            let h = (n - bi).min(b);
            let w = (n - bj).min(b);
            let runs = layout.runs_for(cells_block(bi, bj, h, w));
            tr.touch_runs(&runs, cholcomm_cachesim::Access::Read);
        }
    }
    (tr.stats().words, tr.stats().messages)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn figure1_lists_sets() {
        let s = figure1(6);
        assert!(s.contains("L(0,0)"));
        assert!(s.contains("dependency edges"));
    }

    #[test]
    fn figure2_shows_the_class_split() {
        let s = figure2(16, 4);
        assert!(s.contains("recursive (Morton)"));
        // Column-major reads a block in b messages; morton in 1.
        let lines: Vec<&str> = s.lines().collect();
        let cm = lines.iter().find(|l| l.contains("full column-major")).unwrap();
        let mo = lines.iter().find(|l| l.contains("recursive (Morton)")).unwrap();
        assert!(cm.contains(" 4"), "col-major line: {cm}");
        assert!(mo.contains(" 1"), "morton line: {mo}");
    }

    #[test]
    fn figure345_orders_algorithms() {
        let s = figure345(24, 96, 41);
        assert!(s.contains("naive left-looking"));
        assert!(s.contains("square recursive"));
    }

    #[test]
    fn figure3_profile_renders_both_shapes() {
        let s = figure3_profile(32);
        assert!(s.contains("left-looking peak"));
        assert!(s.contains('#'));
    }

    #[test]
    fn figure45_structure_renders_both_recursions() {
        let s = figure45_structure(16, 2);
        assert!(s.contains("Figure 4"));
        assert!(s.contains("Figure 5"));
        assert!(s.contains("RTRSM"));
        assert!(s.contains("SYRK"));
        assert!(s.contains("[A22;A32]"));
    }

    #[test]
    fn figure6_matches_the_paper_example() {
        let s = figure6(24, 4, 9);
        // 6x6 block grid; first row has exactly one owned block: rank 0.
        let rows: Vec<&str> = s.lines().skip(2).collect();
        assert_eq!(rows.len(), 6);
        assert!(rows[0].starts_with("  0"));
        // Cyclic repetition: block (3,3) owned by same rank as (0,0).
        let g = ProcGrid::square(9);
        assert_eq!(g.block_owner(3, 3), g.block_owner(0, 0));
    }

    #[test]
    fn sweep_block_reads_counts() {
        let (w_cm, m_cm) = sweep_block_reads(&ColMajor::square(16), 16, 4);
        let (w_mo, m_mo) = sweep_block_reads(&Morton::square(16), 16, 4);
        assert_eq!(w_cm, w_mo, "same words either way");
        assert!(m_cm > 3 * m_mo, "morton should win big on messages");
    }
}
