//! Crossover analysis: *where* latency optimality starts to matter.
//!
//! The paper's model prices a transfer at `alpha + beta * w`.  Whether
//! the latency-optimal combination (blocked/recursive storage) or the
//! bandwidth-only combination (column-major storage) wins the modelled
//! wall clock depends on the machine's `alpha / beta` ratio — a DRAM
//! burst, an SSD, a spinning disk, and a network hop sit at wildly
//! different points.  This module measures each algorithm once (counts
//! are cost-model-independent) and then solves for the crossover ratio
//! analytically: with words equal, layout A beats layout B exactly when
//! `alpha / beta > (words_A - words_B) / (messages_B - messages_A)`.

use crate::report::{fnum, TextTable};
use crate::sweep::TraceCache;
use cholcomm_cachesim::TransferStats;
use cholcomm_matrix::parallel::par_map;
use cholcomm_matrix::{spd, Matrix};
use cholcomm_seq::zoo::{price_trace, Algorithm, LayoutKind, ModelKind};

/// A contender: an algorithm/layout pair with its measured counts.
#[derive(Debug, Clone)]
pub struct Contender {
    /// Display name.
    pub name: String,
    /// Measured words/messages.
    pub stats: TransferStats,
}

impl Contender {
    /// Modelled time under `(alpha, beta)`.
    pub fn time(&self, alpha: f64, beta: f64) -> f64 {
        self.stats.time(alpha, beta)
    }
}

/// The `alpha/beta` ratio above which `a` is faster than `b`, or `None`
/// if one dominates at every ratio.
pub fn crossover_ratio(a: &Contender, b: &Contender) -> Option<f64> {
    let dw = a.stats.words as f64 - b.stats.words as f64;
    let dm = b.stats.messages as f64 - a.stats.messages as f64;
    if dm <= 0.0 || dw <= 0.0 {
        // a never gains from latency (dm <= 0) or is already no worse in
        // words (dw <= 0): no finite crossover.
        return None;
    }
    Some(dw / dm)
}

/// Measure the standard contenders at one `(n, M)` point.
pub fn measure_contenders(n: usize, m: usize, seed: u64) -> Vec<Contender> {
    let mut rng = spd::test_rng(seed);
    let a = spd::random_spd(n, &mut rng);
    measure_contenders_on(&a, m)
}

/// Measure the standard contenders on a given matrix.
pub fn measure_contenders_on(a: &Matrix<f64>, m: usize) -> Vec<Contender> {
    let b = (((m / 3) as f64).sqrt() as usize).max(1);
    let counting = ModelKind::Counting { message_cap: Some(m) };
    let lru = ModelKind::Lru { m };
    let cases: Vec<(&str, Algorithm, LayoutKind, &ModelKind)> = vec![
        ("naive left / col-major", Algorithm::NaiveLeft, LayoutKind::ColMajor, &counting),
        ("LAPACK / col-major", Algorithm::LapackBlocked { b }, LayoutKind::ColMajor, &counting),
        ("LAPACK / blocked", Algorithm::LapackBlocked { b }, LayoutKind::Blocked(b), &counting),
        ("AP00 / col-major", Algorithm::Ap00 { leaf: 4 }, LayoutKind::ColMajor, &lru),
        ("AP00 / recursive", Algorithm::Ap00 { leaf: 4 }, LayoutKind::Morton, &lru),
    ];
    let cache = TraceCache::new();
    par_map(&cases, |&(name, alg, layout, model)| Contender {
        name: name.to_string(),
        stats: price_trace(&cache.trace(alg, layout, a).expect("SPD"), model)[0],
    })
}

/// The machine points the report prices each contender at:
/// `(label, alpha, beta)` in seconds.
pub const MACHINES: [(&str, f64, f64); 4] = [
    ("DRAM-like (a=100ns, b=1ns)", 1e-7, 1e-9),
    ("NVMe-like (a=100us, b=4ns)", 1e-4, 4e-9),
    ("disk-like (a=5ms, b=50ns)", 5e-3, 5e-8),
    ("network-like (a=1us, b=1ns)", 1e-6, 1e-9),
];

/// Render the crossover table for one `(n, M)` point.
pub fn render_crossover(n: usize, m: usize, contenders: &[Contender]) -> String {
    let mut headers = vec!["contender".to_string(), "words".into(), "messages".into()];
    for (label, _, _) in MACHINES {
        headers.push(label.to_string());
    }
    let hdr: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = TextTable::new(
        &format!("Modelled wall-clock by machine (n = {n}, M = {m}); seconds"),
        &hdr,
    );
    for c in contenders {
        let mut row = vec![
            c.name.clone(),
            c.stats.words.to_string(),
            c.stats.messages.to_string(),
        ];
        for (_, alpha, beta) in MACHINES {
            row.push(format!("{:.3e}", c.time(alpha, beta)));
        }
        t.row(row);
    }
    let mut s = t.render();
    // Headline crossover: same algorithm, two layouts.
    let find = |name: &str| contenders.iter().find(|c| c.name.contains(name));
    if let (Some(cm), Some(bl)) = (find("LAPACK / col-major"), find("LAPACK / blocked")) {
        if let Some(r) = crossover_ratio(bl, cm) {
            s.push_str(&format!(
                "blocked storage beats column-major for LAPACK whenever alpha/beta > {} words\n",
                fnum(r)
            ));
        } else {
            s.push_str("blocked storage dominates column-major for LAPACK at every alpha/beta\n");
        }
    }
    if let (Some(cm), Some(mo)) = (find("AP00 / col-major"), find("AP00 / recursive")) {
        if let Some(r) = crossover_ratio(mo, cm) {
            s.push_str(&format!(
                "recursive storage beats column-major for AP00 whenever alpha/beta > {} words\n",
                fnum(r)
            ));
        } else {
            s.push_str("recursive storage dominates column-major for AP00 at every alpha/beta\n");
        }
    }
    s
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn crossover_math() {
        let a = Contender {
            name: "lat-opt".into(),
            stats: TransferStats { words: 1100, messages: 10 },
        };
        let b = Contender {
            name: "bw-only".into(),
            stats: TransferStats { words: 1000, messages: 110 },
        };
        // a costs 100 extra words but saves 100 messages: crossover at 1.
        assert_eq!(crossover_ratio(&a, &b), Some(1.0));
        // Dominance: fewer words AND fewer messages.
        let c = Contender {
            name: "dominates".into(),
            stats: TransferStats { words: 900, messages: 5 },
        };
        assert_eq!(crossover_ratio(&c, &b), None);
    }

    #[test]
    fn blocked_dominates_colmajor_for_lapack() {
        // Same words, fewer messages: no finite crossover — blocked wins
        // at every machine point.
        let cs = measure_contenders(64, 192, 801);
        let find = |n: &str| cs.iter().find(|c| c.name.contains(n)).unwrap().clone();
        let cm = find("LAPACK / col-major");
        let bl = find("LAPACK / blocked");
        assert_eq!(cm.stats.words, bl.stats.words);
        assert!(bl.stats.messages < cm.stats.messages);
        assert_eq!(crossover_ratio(&bl, &cm), None, "dominates");
    }

    #[test]
    fn latency_optimal_wins_on_disk_like_machines() {
        let cs = measure_contenders(64, 192, 802);
        let find = |n: &str| cs.iter().find(|c| c.name.contains(n)).unwrap().clone();
        let naive = find("naive left / col-major");
        let ap = find("AP00 / recursive");
        // On the disk-like point, AP00+recursive clearly beats naive
        // (2.7x here; the gap widens with n since naive words ~ n^3).
        let (_, alpha, beta) = MACHINES[2];
        assert!(ap.time(alpha, beta) * 2.0 < naive.time(alpha, beta));
        // On the DRAM-like point the gap narrows but does not invert.
        let (_, a2, b2) = MACHINES[0];
        assert!(ap.time(a2, b2) < naive.time(a2, b2));
    }

    #[test]
    fn render_includes_machines_and_crossovers() {
        let cs = measure_contenders(32, 96, 803);
        let s = render_crossover(32, 96, &cs);
        assert!(s.contains("disk-like"));
        assert!(s.contains("LAPACK"));
    }
}
