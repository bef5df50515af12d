//! The Section 3.2 experiment: communication across a *multi-level*
//! memory hierarchy, measured with the one-pass stack-distance simulator.
//!
//! The paper's claims (Conclusions 4 and 5, "Upper bounds revisited"):
//!
//! * the cache-oblivious AP00 recursion on the recursive layout is
//!   bandwidth- and latency-optimal at **every** level simultaneously,
//!   with no tuning parameter;
//! * LAPACK tuned for one level (`b = sqrt(M_i / 3)`) is suboptimal at
//!   the other levels;
//! * Toledo's bandwidth is near-optimal everywhere but its latency is
//!   structurally `Omega(n^2)` on the recursive layout.

use crate::bounds;
use crate::report::{fnum, TextTable};
use crate::sweep::{par_map, TraceCache};
use cholcomm_cachesim::TransferStats;
use cholcomm_matrix::spd;
use cholcomm_seq::zoo::{price_trace, Algorithm, LayoutKind, ModelKind};

/// Per-algorithm multi-level measurement.
#[derive(Debug, Clone)]
pub struct MlRow {
    /// Algorithm label (includes tuning, e.g. "LAPACK b for M1").
    pub label: String,
    /// Layout used.
    pub layout: &'static str,
    /// Traffic at each hierarchy interface.
    pub levels: Vec<TransferStats>,
    /// `words_i / (n^3 / sqrt(M_i))` per level.
    pub bw_ratios: Vec<f64>,
    /// `messages_i / (n^3 / M_i^{3/2})` per level.
    pub lat_ratios: Vec<f64>,
    /// Minimum fast memory the algorithm's schedule needs (`3 b^2` for
    /// the blocked LAPACK schedule, `None` for the cache-oblivious
    /// algorithms).  Levels smaller than this are *infeasible* for the
    /// schedule: its tile operations simply do not fit, and the reported
    /// traffic is only a lower bound on what a real machine would see.
    pub min_fast_words: Option<usize>,
}

/// Run the hierarchy experiment: every contender on the same trace-based
/// hierarchy with the given ascending capacities.
pub fn run_multilevel(n: usize, capacities: &[usize], seed: u64) -> Vec<MlRow> {
    let mut rng = spd::test_rng(seed);
    let a = spd::random_spd(n, &mut rng);
    let model = ModelKind::Hierarchy {
        capacities: capacities.to_vec(),
    };

    let b_small = (((capacities[0] / 3) as f64).sqrt() as usize).max(1);
    let b_large = (((capacities[capacities.len() - 1] / 3) as f64).sqrt() as usize).max(1);

    let contenders: Vec<(String, Algorithm, LayoutKind, Option<usize>)> = vec![
        (
            "AP00 (cache-oblivious)".into(),
            Algorithm::Ap00 { leaf: 4 },
            LayoutKind::Morton,
            None,
        ),
        (
            "Toledo (cache-oblivious)".into(),
            Algorithm::Toledo { gemm_leaf: 4 },
            LayoutKind::Morton,
            None,
        ),
        (
            format!("LAPACK b={b_small} (tuned M1)"),
            Algorithm::LapackBlocked { b: b_small },
            LayoutKind::Blocked(b_small),
            Some(3 * b_small * b_small),
        ),
        (
            format!("LAPACK b={b_large} (tuned Md)"),
            Algorithm::LapackBlocked { b: b_large },
            LayoutKind::Blocked(b_large),
            Some(3 * b_large * b_large),
        ),
    ];

    // Record the four contenders' traces in parallel, then one
    // stack-distance replay per contender prices the whole ladder.
    let cache = TraceCache::new();
    par_map(&contenders, |(label, alg, layout, min_fast_words)| {
        let trace = cache
            .trace(*alg, *layout, &a)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let levels = price_trace(&trace, &model);
        let bw_ratios = levels
            .iter()
            .zip(capacities)
            .map(|(s, &mi)| s.words as f64 / bounds::seq_bandwidth_scale(n, mi))
            .collect();
        let lat_ratios = levels
            .iter()
            .zip(capacities)
            .map(|(s, &mi)| s.messages as f64 / bounds::seq_latency_scale(n, mi))
            .collect();
        MlRow {
            label: label.clone(),
            layout: layout.name(),
            levels,
            bw_ratios,
            lat_ratios,
            min_fast_words: *min_fast_words,
        }
    })
}

/// Footnote for rows marked `!`: the schedule's working set does not
/// fit the capacity, so its counts are lower bounds.
pub const INFEASIBLE_NOTE: &str = "('!' = the schedule's working set exceeds this level's capacity: the schedule is infeasible there and the numbers are lower bounds.)\n";

/// Render the hierarchy experiment as text.
pub fn render_multilevel(n: usize, capacities: &[usize], rows: &[MlRow]) -> String {
    let mut headers: Vec<String> = vec!["algorithm".into(), "layout".into()];
    for &c in capacities {
        headers.push(format!("words@M={c}"));
        headers.push(format!("bw-ratio@{c}"));
        headers.push(format!("msgs@M={c}"));
        headers.push(format!("lat-ratio@{c}"));
    }
    let hdr_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = TextTable::new(
        &format!("Multi-level hierarchy (Corollary 3.2), n = {n}, capacities = {capacities:?}"),
        &hdr_refs,
    );
    for r in rows {
        let mut cells = vec![r.label.clone(), r.layout.to_string()];
        for (i, &cap) in capacities.iter().enumerate() {
            // Mark levels the schedule cannot actually run in: the
            // numbers there are lower bounds, not achievable traffic.
            let feasible = r.min_fast_words.is_none_or(|need| need <= cap);
            let mark = if feasible { "" } else { "!" };
            cells.push(format!("{}{mark}", r.levels[i].words));
            cells.push(format!("{}{mark}", fnum(r.bw_ratios[i])));
            cells.push(format!("{}{mark}", r.levels[i].messages));
            cells.push(format!("{}{mark}", fnum(r.lat_ratios[i])));
        }
        t.row(cells);
    }
    let mut out = t.render();
    out.push_str(INFEASIBLE_NOTE);
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn ap00_is_bounded_at_every_level() {
        let caps = [96usize, 768];
        let rows = run_multilevel(64, &caps, 31);
        let ap = rows.iter().find(|r| r.label.starts_with("AP00")).unwrap();
        for (i, &r) in ap.bw_ratios.iter().enumerate() {
            assert!(r < 8.0, "AP00 bandwidth ratio at level {i}: {r}");
        }
        for (i, &r) in ap.lat_ratios.iter().enumerate() {
            // The constant absorbs the small-leaf recursion overhead and
            // the additive n^2/M term; what matters is that it is bounded
            // and (see the relative tests below) far below Toledo's.
            assert!(r < 24.0, "AP00 latency ratio at level {i}: {r}");
        }
    }

    #[test]
    fn lapack_tuned_small_loses_at_the_large_level() {
        // Needs n^2 >> M_outer so the outer cache cannot rescue the
        // too-fine blocking (n^2 = 16384 vs M = 640).
        let caps = [48usize, 640];
        let rows = run_multilevel(128, &caps, 32);
        let ap = rows.iter().find(|r| r.label.starts_with("AP00")).unwrap();
        let lk = rows
            .iter()
            .find(|r| r.label.contains("tuned M1"))
            .unwrap();
        // At the outer (large) level the small-b LAPACK moves far more
        // words than the cache-oblivious recursion.
        let last = caps.len() - 1;
        assert!(
            lk.levels[last].words as f64 > 2.0 * ap.levels[last].words as f64,
            "LAPACK-tuned-small {} vs AP00 {} at the outer level",
            lk.levels[last].words,
            ap.levels[last].words
        );
    }

    #[test]
    fn toledo_latency_is_structurally_worse_than_ap00() {
        let caps = [96usize, 512];
        let rows = run_multilevel(64, &caps, 33);
        let ap = rows.iter().find(|r| r.label.starts_with("AP00")).unwrap();
        let to = rows.iter().find(|r| r.label.starts_with("Toledo")).unwrap();
        let last = caps.len() - 1;
        assert!(
            to.levels[last].messages > 2 * ap.levels[last].messages,
            "Toledo {} vs AP00 {} messages at the outer level",
            to.levels[last].messages,
            ap.levels[last].messages
        );
    }

    #[test]
    fn render_works() {
        let caps = [64usize, 256];
        let rows = run_multilevel(32, &caps, 34);
        let s = render_multilevel(32, &caps, &rows);
        assert!(s.contains("AP00"));
        assert!(s.contains("bw-ratio@64"));
    }
}
