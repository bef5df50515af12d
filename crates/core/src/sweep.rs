//! Parallel trace-once / replay-many sweep driver.
//!
//! Every table and figure in this crate prices the same small set of
//! touch schedules under many communication models.  Touch schedules are
//! data-oblivious — a pure function of `(algorithm, layout, n)` — so the
//! expensive part (running the factorization arithmetic and the layout
//! address computation) needs to happen **once** per shape, after which
//! every fast-memory size `M`, message cap, or capacity ladder is a pure
//! replay of the recorded [`CompactTrace`].
//!
//! Two pieces implement that:
//!
//! * [`TraceCache`] — records each `(algorithm, layout, n)` schedule on
//!   first request (verifying the factor's residual at record time) and
//!   hands out shared references afterwards, so a sweep over five values
//!   of `M` runs the arithmetic once, not five times.
//! * [`par_map`](cholcomm_matrix::parallel::par_map) — fans independent
//!   record/replay jobs out over the vendored rayon work-stealing pool
//!   (sized by `CHOLCOMM_THREADS`).

use cholcomm_cachesim::CompactTrace;
use cholcomm_matrix::{norms, Matrix, MatrixError};
use cholcomm_seq::zoo::{record_algorithm, Algorithm, LayoutKind};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A shared once-per-shape trace store.
///
/// Keyed by `(algorithm, layout, n)` — the full determinant of a touch
/// schedule.  Note the LAPACK block size `b` rides inside
/// [`Algorithm::LapackBlocked`], so LAPACK traces tuned to different `M`
/// correctly occupy different cache slots while the cache-oblivious
/// algorithms (which never mention `M`) share one trace across an entire
/// `M`-sweep.
#[derive(Debug, Default)]
pub struct TraceCache {
    map: Mutex<HashMap<(Algorithm, LayoutKind, usize), Arc<CompactTrace>>>,
}

impl TraceCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The trace of `alg` on `layout` at `a`'s size, recording it (and
    /// verifying the computed factor's residual) on first request.
    pub fn trace(
        &self,
        alg: Algorithm,
        layout: LayoutKind,
        a: &Matrix<f64>,
    ) -> Result<Arc<CompactTrace>, MatrixError> {
        let key = (alg, layout, a.rows());
        let guard = self
            .map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(t) = guard.get(&key) {
            return Ok(Arc::clone(t));
        }
        drop(guard);
        let rec = record_algorithm(alg, a, layout)?;
        let res = norms::cholesky_residual(a, &rec.factor);
        assert!(
            res < norms::residual_tolerance(a.rows()),
            "{alg:?}/{layout:?} produced residual {res}"
        );
        let t = Arc::new(rec.trace);
        self.map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .entry(key)
            .or_insert_with(|| Arc::clone(&t));
        Ok(t)
    }

    /// Number of distinct recorded shapes.
    pub fn len(&self) -> usize {
        self.map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// `true` when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use cholcomm_cachesim::Tracer;
    use cholcomm_matrix::parallel::par_map;
    use cholcomm_matrix::spd;
    use cholcomm_seq::zoo::{price_trace, run_algorithm, ModelKind};

    #[test]
    fn cache_records_once_and_prices_identically() {
        let mut rng = spd::test_rng(42);
        let a = spd::random_spd(24, &mut rng);
        let cache = TraceCache::new();
        let alg = Algorithm::Ap00 { leaf: 4 };
        let t1 = cache.trace(alg, LayoutKind::Morton, &a).unwrap();
        let t2 = cache.trace(alg, LayoutKind::Morton, &a).unwrap();
        assert!(Arc::ptr_eq(&t1, &t2), "second request hits the cache");
        assert_eq!(cache.len(), 1);
        for m in [32usize, 64, 256] {
            let model = ModelKind::Lru { m };
            let direct = run_algorithm(alg, &a, LayoutKind::Morton, &model).unwrap();
            assert_eq!(price_trace(&t1, &model), direct.levels, "M = {m}");
        }
    }

    #[test]
    fn traces_record_in_parallel() {
        let mut rng = spd::test_rng(43);
        let a = spd::random_spd(16, &mut rng);
        let cache = TraceCache::new();
        let jobs = [
            (Algorithm::NaiveLeft, LayoutKind::ColMajor),
            (Algorithm::Toledo { gemm_leaf: 4 }, LayoutKind::Morton),
            (Algorithm::Ap00 { leaf: 4 }, LayoutKind::RecursivePacked),
        ];
        let traces = par_map(&jobs, |&(alg, layout)| {
            cache.trace(alg, layout, &a).unwrap()
        });
        assert_eq!(cache.len(), 3);
        assert!(traces.iter().all(|t| t.stats().words > 0));
    }
}
