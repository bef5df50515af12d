//! Service metrics: deterministic counters and virtual latencies (part
//! of the replay contract) plus wall-clock latencies (measurement only,
//! excluded from every digest).

use crate::cache::CacheStats;

/// Deterministic counters across a service run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Requests submitted.
    pub submitted: u64,
    /// Requests completed with a factor.
    pub completed: u64,
    /// Requests shed by admission backpressure.
    pub shed_overload: u64,
    /// Requests refused by an open circuit breaker.
    pub breaker_refused: u64,
    /// Requests cancelled at a panel boundary by their deadline budget.
    pub deadline_canceled: u64,
    /// Requests that failed for any other reason.
    pub failed: u64,
    /// Completions served from cache under degradation (shed/refused
    /// fresh work rescued by a verified cached factor).
    pub degraded_served: u64,
    /// Fresh factorizations run to completion.
    pub fresh_factorizations: u64,
    /// Transient faults absorbed by retry.
    pub transient_faults: u64,
    /// Worker crashes caught by the supervisor.
    pub worker_crashes: u64,
    /// Worker restarts (one per caught crash).
    pub worker_restarts: u64,
    /// Breaker state changes.
    pub breaker_transitions: u64,
    /// Cache entries adopted from the durable journal at shard start.
    pub cache_recovered: u64,
    /// Shards whose durable journal existed but could not be read at
    /// start: nothing adopted, nothing swept, journaling stopped.
    pub journal_unreadable: u64,
    /// Size-bucketed batches dispatched to a shard as one unit.
    pub batches_dispatched: u64,
    /// Requests factored as lanes of a batch (each also counts in
    /// `completed`; the ratio to `batches_dispatched` is the realized
    /// mean batch size).
    pub batched_factorizations: u64,
    /// Problems materialised by `jobs::build`: one per factorization
    /// (fresh or batched lane), none per cache hit, plus one the first
    /// time an entry recovered from the durable journal is used.
    pub problems_built: u64,
}

impl Counters {
    /// Fold another shard's counters into this one.
    pub fn merge(&mut self, other: &Counters) {
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.shed_overload += other.shed_overload;
        self.breaker_refused += other.breaker_refused;
        self.deadline_canceled += other.deadline_canceled;
        self.failed += other.failed;
        self.degraded_served += other.degraded_served;
        self.fresh_factorizations += other.fresh_factorizations;
        self.transient_faults += other.transient_faults;
        self.worker_crashes += other.worker_crashes;
        self.worker_restarts += other.worker_restarts;
        self.breaker_transitions += other.breaker_transitions;
        self.cache_recovered += other.cache_recovered;
        self.journal_unreadable += other.journal_unreadable;
        self.batches_dispatched += other.batches_dispatched;
        self.batched_factorizations += other.batched_factorizations;
        self.problems_built += other.problems_built;
    }

    /// Fraction of submitted requests that completed.  Refusals are loud
    /// and typed, but they still count against availability.
    pub fn availability(&self) -> f64 {
        if self.submitted == 0 {
            1.0
        } else {
            self.completed as f64 / self.submitted as f64
        }
    }
}

/// The full metrics of a run: counters, cache stats, and latency
/// samples in both clocks.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Deterministic counters.
    pub counters: Counters,
    /// Cache counters (summed over shards).
    pub cache: CacheStats,
    /// Virtual end-to-end latency (µs) of each completed request —
    /// deterministic, part of the replay contract.
    pub virt_latency_us: Vec<u64>,
    /// Wall-clock end-to-end latency (µs) of each completed request —
    /// machine-dependent, excluded from digests.
    pub wall_latency_us: Vec<f64>,
}

/// Percentile (0.0..=1.0) of a sample set by nearest-rank; 0 when empty.
pub fn percentile_u64(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Percentile of wall-clock samples; 0 when empty.
pub fn percentile_f64(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

impl Metrics {
    /// Fold another shard's metrics into this one.
    pub fn merge(&mut self, other: &Metrics) {
        self.counters.merge(&other.counters);
        self.cache.hits += other.cache.hits;
        self.cache.misses += other.cache.misses;
        self.cache.healed += other.cache.healed;
        self.cache.corrupt_evictions += other.cache.corrupt_evictions;
        self.cache.capacity_evictions += other.cache.capacity_evictions;
        self.virt_latency_us.extend_from_slice(&other.virt_latency_us);
        self.wall_latency_us.extend_from_slice(&other.wall_latency_us);
    }

    /// Virtual latency percentile (deterministic).
    pub fn virt_percentile_us(&self, p: f64) -> u64 {
        percentile_u64(&self.virt_latency_us, p)
    }

    /// Wall-clock latency percentile.
    pub fn wall_percentile_us(&self, p: f64) -> f64 {
        percentile_f64(&self.wall_latency_us, p)
    }

    /// Canonicalize the sample vectors (sorted) so two runs that
    /// completed the same requests compare equal regardless of shard
    /// merge order.
    pub fn canonicalize(&mut self) {
        self.virt_latency_us.sort_unstable();
        self.wall_latency_us.sort_by(f64::total_cmp);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_by_nearest_rank() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_u64(&xs, 0.50), 50);
        assert_eq!(percentile_u64(&xs, 0.99), 99);
        assert_eq!(percentile_u64(&xs, 1.00), 100);
        assert_eq!(percentile_u64(&[], 0.5), 0);
        assert_eq!(percentile_u64(&[7], 0.5), 7);
    }

    #[test]
    fn availability_counts_all_submissions() {
        let mut c = Counters::default();
        assert_eq!(c.availability(), 1.0);
        c.submitted = 10;
        c.completed = 9;
        assert!((c.availability() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = Metrics::default();
        a.counters.completed = 1;
        a.counters.problems_built = 4;
        a.virt_latency_us.push(10);
        let mut b = Metrics::default();
        b.counters.completed = 2;
        b.counters.problems_built = 3;
        b.virt_latency_us.push(5);
        a.merge(&b);
        a.canonicalize();
        assert_eq!(a.counters.completed, 3);
        assert_eq!(a.counters.problems_built, 7);
        assert_eq!(a.virt_latency_us, vec![5, 10]);
    }
}
