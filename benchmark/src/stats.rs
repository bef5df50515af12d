//! Order statistics over timing samples, and the attempted/failed tally.

/// Percentile `p` in `[0, 1]` by linear interpolation between the two
/// nearest order statistics (`p = 0.5` of `[1, 2, 3, 4]` is `2.5`).
/// Empty input yields `0.0`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

/// [`percentile`] over samples already in ascending order.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    match sorted {
        [] => 0.0,
        [only] => *only,
        _ => {
            let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(sorted.len() - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Median of the samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The time this benchmark reports for a fixed amount of work: the 10th
/// percentile of its passes.  On a shared host co-tenant noise only ever
/// adds time, in bursts that outlast a pass, so medians wander with the
/// host (10 ten-second runs of one binary spread up to 15% of their
/// median on the 2-vCPU bench host) while the fast tail stays within a
/// few percent — and unlike the minimum it does not rest on one lucky
/// sample.
pub fn fast_decile(samples: &[f64]) -> f64 {
    percentile(samples, 0.10)
}

/// Smallest sample (the HPL/STREAM convention), kept as a diagnostic.
pub fn best(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) — the spread
/// the acceptance check compares against a metric's bound.
pub fn quartile_spread(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |k: usize| {
        // Exclusive method: position k(n+1)/4 on a 1-based scale; at
        // the ends of a short sample it extrapolates, as Python does.
        let pos = k * (n + 1);
        let idx = (pos / 4).clamp(1, n - 1);
        let frac = pos as f64 / 4.0 - idx as f64;
        sorted[idx - 1] + (sorted[idx] - sorted[idx - 1]) * frac
    };
    let mid = percentile_sorted(&sorted, 0.5);
    if mid == 0.0 {
        0.0
    } else {
        (quartile(3) - quartile(1)) / mid.abs()
    }
}

/// Operations attempted and failed in one run.  A failed verification
/// counts exactly like a refused or errored operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation; `ok == false` marks it failed.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// `failed / attempted` (zero when nothing was attempted).
    pub fn failed_fraction(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_known_vectors() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(best(&v), 1.0);
        assert!((fast_decile(&v) - 1.3).abs() < 1e-12);
        let hundred: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.99), 100.0);
        assert_eq!(percentile(&hundred, 0.90), 91.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45].
        let w = [50.0, 10.0, 40.0, 20.0, 30.0];
        assert!((quartile_spread(&w) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
        assert!((quartile_spread(&[1.0, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[3.0]), 0.0);
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        for i in 0..8 {
            t.record(i != 3);
        }
        assert_eq!(
            t,
            Tally {
                attempted: 8,
                failed: 1
            }
        );
        assert_eq!(t.failed_fraction(), 0.125);
        assert_eq!(Tally::default().failed_fraction(), 0.0);
    }
}
