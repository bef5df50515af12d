//! Regeneration of **Table 1**: sequential bandwidth and latency of every
//! algorithm × layout row, measured on the simulators and normalised
//! against the lower-bound scales.

use crate::bounds::{self, Table1Row};
use crate::report::{fnum, TextTable};
use crate::sweep::{par_map, TraceCache};
use cholcomm_matrix::{spd, KernelImpl, Matrix};
use cholcomm_seq::zoo::{price_trace, Algorithm, LayoutKind, ModelKind};

/// One measured row of the regenerated Table 1.
#[derive(Debug, Clone)]
pub struct MeasuredRow {
    /// Which paper row this reproduces.
    pub row: Table1Row,
    /// Human-readable algorithm name.
    pub algorithm: &'static str,
    /// Human-readable layout name.
    pub layout: &'static str,
    /// Measured words moved.
    pub words: u64,
    /// Measured messages.
    pub messages: u64,
    /// `words / (n^3 / sqrt(M))` — should be `O(1)` for bandwidth-optimal
    /// rows and grow like `sqrt(M)` for the naïve ones.
    pub bw_vs_lower: f64,
    /// `messages / (n^3 / M^{3/2})` — `O(1)` only for the
    /// latency-optimal rows.
    pub lat_vs_lower: f64,
    /// `words / predicted_words` — constant across `n` and `M` when the
    /// paper's formula has the right shape.
    pub words_vs_predicted: f64,
    /// `messages / predicted_messages`.
    pub messages_vs_predicted: f64,
}

/// The experiment configuration for one Table 1 regeneration.
#[derive(Debug, Clone, Copy)]
pub struct Table1Config {
    /// Matrix order (must satisfy `n^2 > M`, the regime of the table).
    pub n: usize,
    /// Fast-memory size in words.
    pub m: usize,
    /// Recursion leaf for the cache-oblivious algorithms.
    pub leaf: usize,
}

impl Table1Config {
    /// LAPACK's "right block size" `b = sqrt(M/3)`.
    pub fn lapack_b(&self) -> usize {
        (((self.m / 3) as f64).sqrt() as usize).max(1)
    }
}

/// Run all nine Table 1 rows for one `(n, M)` point.
pub fn run_table1(cfg: Table1Config, a: &Matrix<f64>) -> Vec<MeasuredRow> {
    run_table1_with(cfg, a, &TraceCache::new())
}

/// Run all nine Table 1 rows for one `(n, M)` point, sharing recorded
/// traces through `cache` — across points with the same `n`, the
/// cache-oblivious rows replay an existing trace instead of re-running
/// their arithmetic.
pub fn run_table1_with(cfg: Table1Config, a: &Matrix<f64>, cache: &TraceCache) -> Vec<MeasuredRow> {
    assert_eq!(a.rows(), cfg.n);
    assert!(cfg.n * cfg.n > cfg.m, "Table 1 assumes n^2 > M");
    let b = cfg.lapack_b();
    let counting = ModelKind::Counting {
        message_cap: Some(cfg.m),
    };
    let lru = ModelKind::Lru { m: cfg.m };
    // (paper row, algorithm, layout, model)
    let spec: Vec<(Table1Row, Algorithm, LayoutKind, &ModelKind)> = vec![
        (
            Table1Row::NaiveColMajor,
            Algorithm::NaiveLeft,
            LayoutKind::ColMajor,
            &counting,
        ),
        (
            Table1Row::NaiveColMajor,
            Algorithm::NaiveRight,
            LayoutKind::ColMajor,
            &counting,
        ),
        (
            Table1Row::LapackColMajor,
            Algorithm::LapackBlocked { b },
            LayoutKind::ColMajor,
            &counting,
        ),
        (
            Table1Row::LapackBlocked,
            Algorithm::LapackBlocked { b },
            LayoutKind::Blocked(b),
            &counting,
        ),
        (
            Table1Row::ToledoColMajor,
            Algorithm::Toledo { gemm_leaf: cfg.leaf },
            LayoutKind::ColMajor,
            &lru,
        ),
        (
            Table1Row::ToledoBlocked,
            Algorithm::Toledo { gemm_leaf: cfg.leaf },
            LayoutKind::Morton,
            &lru,
        ),
        (
            Table1Row::Ap00RecursivePacked,
            Algorithm::Ap00 { leaf: cfg.leaf },
            LayoutKind::RecursivePacked,
            &lru,
        ),
        (
            Table1Row::Ap00ColMajor,
            Algorithm::Ap00 { leaf: cfg.leaf },
            LayoutKind::ColMajor,
            &lru,
        ),
        (
            Table1Row::Ap00Blocked,
            Algorithm::Ap00 { leaf: cfg.leaf },
            LayoutKind::Morton,
            &lru,
        ),
    ];

    let bw_scale = bounds::seq_bandwidth_scale(cfg.n, cfg.m);
    let lat_scale = bounds::seq_latency_scale(cfg.n, cfg.m);
    // Record each row's trace once (residual-checked at record time),
    // then re-price by replay — all nine rows fan out over the pool.
    par_map(&spec, |&(paper_row, alg, layout, model)| {
        let trace = cache
            .trace(alg, layout, a)
            .unwrap_or_else(|e| panic!("{alg:?} on {layout:?}: {e}"));
        let s = price_trace(&trace, model)[0];
        MeasuredRow {
            row: paper_row,
            algorithm: alg.name(),
            layout: layout.name(),
            words: s.words,
            messages: s.messages,
            bw_vs_lower: s.words as f64 / bw_scale,
            lat_vs_lower: s.messages as f64 / lat_scale,
            words_vs_predicted: s.words as f64 / paper_row.predicted_words(cfg.n, cfg.m),
            messages_vs_predicted: s.messages as f64
                / paper_row.predicted_messages(cfg.n, cfg.m),
        }
    })
}

/// Render one `(n, M)` regeneration as text.
pub fn render_table1(cfg: Table1Config, rows: &[MeasuredRow]) -> String {
    let mut t = TextTable::new(
        &format!(
            "Table 1 (sequential), n = {}, M = {} words, b = {}",
            cfg.n,
            cfg.m,
            cfg.lapack_b()
        ),
        &[
            "algorithm",
            "layout",
            "words",
            "messages",
            "words/(n^3/sqrt(M))",
            "msgs/(n^3/M^1.5)",
            "words/paper",
            "msgs/paper",
        ],
    );
    for r in rows {
        t.row(vec![
            r.algorithm.to_string(),
            r.layout.to_string(),
            r.words.to_string(),
            r.messages.to_string(),
            fnum(r.bw_vs_lower),
            fnum(r.lat_vs_lower),
            fnum(r.words_vs_predicted),
            fnum(r.messages_vs_predicted),
        ]);
    }
    t.render()
}

/// Convenience: generate the workload and run one point.
pub fn table1_at(n: usize, m: usize, seed: u64) -> (Table1Config, Vec<MeasuredRow>) {
    table1_at_with(n, m, seed, &TraceCache::new())
}

/// [`table1_at`] with a shared trace cache: the cache-oblivious rows'
/// traces carry across every `(n, M)` point with the same `n`.
pub fn table1_at_with(
    n: usize,
    m: usize,
    seed: u64,
    cache: &TraceCache,
) -> (Table1Config, Vec<MeasuredRow>) {
    let cfg = Table1Config { n, m, leaf: 4 };
    let mut rng = spd::test_rng(seed);
    let a = spd::random_spd(n, &mut rng);
    let rows = run_table1_with(cfg, &a, cache);
    (cfg, rows)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape_holds_at_a_midsize_point() {
        // Power-of-two n keeps the recursive algorithms' base blocks
        // aligned with the Morton quadrants (the paper's "padding to even
        // dimensions" assumption).
        let (_, rows) = table1_at(64, 192, 7);
        let get = |r: Table1Row, alg: &str| {
            rows.iter()
                .find(|x| x.row == r && x.algorithm.contains(alg))
                .unwrap()
                .clone()
        };
        let naive = get(Table1Row::NaiveColMajor, "left");
        let lapack_cm = get(Table1Row::LapackColMajor, "LAPACK");
        let lapack_bl = get(Table1Row::LapackBlocked, "LAPACK");
        let ap00_bl = get(Table1Row::Ap00Blocked, "AP00");
        let ap00_cm = get(Table1Row::Ap00ColMajor, "AP00");
        let toledo_bl = get(Table1Row::ToledoBlocked, "Toledo");

        // Bandwidth: naive loses to every blocked/recursive algorithm.
        assert!(naive.words > 2 * lapack_cm.words, "naive {} vs lapack {}", naive.words, lapack_cm.words);
        assert!(naive.words > 2 * ap00_bl.words);
        // Same algorithm, different storage: identical words.
        assert_eq!(lapack_cm.words, lapack_bl.words);
        // Latency: blocked storage beats column-major for LAPACK...
        assert!(lapack_bl.messages * 2 < lapack_cm.messages);
        // ...and the recursive layout beats column-major for AP00.
        assert!(ap00_bl.messages * 2 < ap00_cm.messages);
        // Toledo cannot match AP00's latency on the recursive layout.
        assert!(toledo_bl.messages > 2 * ap00_bl.messages);
    }

    #[test]
    fn bandwidth_optimal_rows_track_the_scale_across_m() {
        // words / (n^3/sqrt(M)) should stay O(1) as M varies for LAPACK
        // and AP00, but grow ~sqrt(M) for the naive algorithm.
        let n = 48;
        let mut naive_ratio = Vec::new();
        let mut ap_ratio = Vec::new();
        for m in [96usize, 384, 1536] {
            let (_, rows) = table1_at(n, m, 8);
            naive_ratio.push(
                rows.iter()
                    .find(|r| r.row == Table1Row::NaiveColMajor)
                    .unwrap()
                    .bw_vs_lower,
            );
            ap_ratio.push(
                rows.iter()
                    .find(|r| r.row == Table1Row::Ap00Blocked)
                    .unwrap()
                    .bw_vs_lower,
            );
        }
        assert!(naive_ratio[2] > 2.5 * naive_ratio[0], "{naive_ratio:?}");
        assert!(
            ap_ratio[2] < 4.0 * ap_ratio[0],
            "AP00 ratio should stay bounded: {ap_ratio:?}"
        );
    }

    #[test]
    fn render_includes_all_rows() {
        let (cfg, rows) = table1_at(33, 128, 9);
        let s = render_table1(cfg, &rows);
        assert!(s.contains("LAPACK"));
        assert!(s.contains("Toledo"));
        assert!(s.contains("AP00"));
        assert_eq!(s.lines().count(), 3 + rows.len());
    }
}

/// Extended rows beyond the paper's nine: the schedule variants this
/// workspace also implements (row-wise naive, segmented naive for
/// `M < 2n`, right-looking blocked, cache-aware tuned recursion, layered
/// storage), measured under the same models.
pub fn run_table1_extended(cfg: Table1Config, a: &Matrix<f64>) -> Vec<(String, u64, u64)> {
    use cholcomm_cachesim::CompactTrace;
    use cholcomm_layout::{Blocked, ColMajor, Laid, Layered, Morton, RowMajor};
    use cholcomm_seq::{ap00, lapack, naive};

    let n = cfg.n;
    let m = cfg.m;
    let b = cfg.lapack_b();
    let counting = ModelKind::Counting { message_cap: Some(m) };
    let lru = ModelKind::Lru { m };

    // Each variant records its schedule into a CompactTrace, then the
    // model prices the replay — same engine path as the paper rows.
    type RecordFn<'a> = Box<dyn Fn(&mut CompactTrace) + Sync + 'a>;
    let mut variants: Vec<(String, &ModelKind, RecordFn)> = vec![
        (
            "naive up-looking / row-major".into(),
            &counting,
            Box::new(|tr: &mut CompactTrace| {
                let mut laid = Laid::from_matrix(a, RowMajor::square(n));
                naive::up_looking(&mut laid, tr).expect("SPD");
            }),
        ),
        (
            format!("naive segmented (M={m}) / col-major"),
            &counting,
            Box::new(|tr: &mut CompactTrace| {
                let mut laid = Laid::from_matrix(a, ColMajor::square(n));
                naive::left_looking_segmented(&mut laid, tr, m).expect("SPD");
            }),
        ),
        (
            "LAPACK right-looking / blocked".into(),
            &counting,
            Box::new(|tr: &mut CompactTrace| {
                let mut laid = Laid::from_matrix(a, Blocked::square(n, b));
                lapack::potrf_blocked_right_with(&mut laid, tr, b, None, KernelImpl::Reference)
                    .expect("SPD");
            }),
        ),
        (
            "AP00 tuned (b=sqrt(M/3)) / recursive".into(),
            &lru,
            Box::new(|tr: &mut CompactTrace| {
                let mut laid = Laid::from_matrix(a, Morton::square(n));
                ap00::cache_aware_rchol(&mut laid, tr, m).expect("SPD");
            }),
        ),
    ];
    // LAPACK on layered storage (configured to its own block size).
    if n.is_multiple_of(b) {
        variants.push((
            "LAPACK / layered".into(),
            &counting,
            Box::new(|tr: &mut CompactTrace| {
                let mut laid = Laid::from_matrix(a, Layered::new(n, vec![b]));
                lapack::potrf_blocked(&mut laid, tr, b, None).expect("SPD");
            }),
        ));
    }
    par_map(&variants, |(name, model, record)| {
        let mut trace = CompactTrace::new();
        record(&mut trace);
        let s = price_trace(&trace, model)[0];
        (name.clone(), s.words, s.messages)
    })
}

/// Render the extended rows.
pub fn render_table1_extended(cfg: Table1Config, rows: &[(String, u64, u64)]) -> String {
    let mut t = TextTable::new(
        &format!(
            "Table 1 extended rows (n = {}, M = {} words)",
            cfg.n, cfg.m
        ),
        &["variant", "words", "messages", "words/(n^3/sqrt(M))", "msgs/(n^3/M^1.5)"],
    );
    let bw = bounds::seq_bandwidth_scale(cfg.n, cfg.m);
    let lat = bounds::seq_latency_scale(cfg.n, cfg.m);
    for (name, w, msg) in rows {
        t.row(vec![
            name.clone(),
            w.to_string(),
            msg.to_string(),
            fnum(*w as f64 / bw),
            fnum(*msg as f64 / lat),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod extended_tests {
    use super::*;

    #[test]
    fn extended_rows_measure_and_order_sensibly() {
        let cfg = Table1Config { n: 64, m: 192, leaf: 4 };
        let mut rng = spd::test_rng(901);
        let a = spd::random_spd(64, &mut rng);
        let rows = run_table1_extended(cfg, &a);
        assert!(rows.len() >= 4);
        let get = |tag: &str| {
            rows.iter()
                .find(|(n, _, _)| n.contains(tag))
                .unwrap_or_else(|| panic!("{tag}"))
                .clone()
        };
        // Up-looking matches left-looking's closed form exactly.
        let (_, w, msgs) = get("up-looking");
        assert_eq!(w, cholcomm_seq::naive::left_looking_words(64));
        assert_eq!(msgs, cholcomm_seq::naive::left_looking_messages(64));
        // Segmented naive: same words order, many more messages.
        let (_, ws, ms) = get("segmented");
        assert!(ws >= w);
        assert!(ms > msgs);
        // Right-looking blocked stays within 2.5x of the scale.
        let (_, wr, _) = get("right-looking");
        assert!((wr as f64) < 2.5 * bounds::seq_bandwidth_scale(64, 192) * 2.0);
        // Tuned AP00 is bandwidth-optimal too.
        let (_, wt, _) = get("tuned");
        assert!((wt as f64) < 2.0 * bounds::seq_bandwidth_scale(64, 192));
        let s = render_table1_extended(cfg, &rows);
        assert!(s.contains("extended rows"));
    }
}
