//! The seeded load generator, doubling as the chaos harness.
//!
//! [`Workload`] turns a seed into a concrete request stream: Zipf-skewed
//! key popularity (hot keys exercise the factor cache), BoundedPareto
//! sizes quantized to panel-friendly multiples, Poisson (exponential
//! inter-arrival) virtual arrivals with periodic burst windows, and a
//! deterministic priority-class mix.  The stream is a pure function of
//! the [`Workload`], so driving a [`crate::Service`] with it — under any
//! [`FaultPlan`] — yields the replayable runs the chaos tests and
//! `serve_bench` assert on.
//!
//! [`ChaosScenario`] names the standard chaos plans the acceptance
//! criteria call out (clean, bit-flip, transient, worker-crash,
//! burst-overload); [`ChaosScenario::plan`] composes the matching
//! [`FaultPlan`], and [`ChaosScenario::workload`] the matching stream
//! shape.

use crate::admission::Priority;
use crate::jobs::JobKind;
use crate::service::Request;
use cholcomm_faults::FaultPlan;
use rand::distributions::{BoundedPareto, Distribution, Exp, Zipf};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Shape of a generated request stream.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Stream seed (also seeds the per-request draws).
    pub seed: u64,
    /// Number of requests.
    pub requests: usize,
    /// Distinct problem keys; popularity is Zipf over their ranks.
    pub keys: usize,
    /// Zipf popularity exponent.
    pub zipf_s: f64,
    /// Smallest matrix order (quantized up to a multiple of 8).
    pub n_min: usize,
    /// Largest matrix order.
    pub n_max: usize,
    /// Mean virtual inter-arrival gap (µs) outside bursts.
    pub mean_gap_us: u64,
    /// Every `burst_every`-th request opens a burst window... (0: never)
    pub burst_every: usize,
    /// ...of this many requests arriving at the same virtual instant.
    pub burst_len: usize,
    /// Deadline budget as a multiple of each job's modelled cost.
    pub deadline_factor: u64,
}

impl Default for Workload {
    fn default() -> Self {
        Workload {
            seed: 0,
            requests: 120,
            keys: 12,
            zipf_s: 1.1,
            n_min: 16,
            n_max: 96,
            mean_gap_us: 400,
            burst_every: 40,
            burst_len: 6,
            deadline_factor: 64,
        }
    }
}

impl Workload {
    /// Materialize the stream: requests with non-decreasing virtual
    /// arrival times.  Pure — equal workloads yield equal streams.
    pub fn generate(&self) -> Vec<Request> {
        assert!(self.n_min >= 2 && self.n_max >= self.n_min);
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x4C4F_4144);
        let zipf = Zipf::new(self.keys.max(1), self.zipf_s);
        let sizes = BoundedPareto::new(1.4, self.n_min as f64, self.n_max as f64);
        let gaps = Exp::new(1.0 / self.mean_gap_us.max(1) as f64);

        let mut vtime_us: u64 = 0;
        let mut burst_left: usize = 0;
        let mut out = Vec::with_capacity(self.requests);
        for i in 0..self.requests {
            if self.burst_every > 0 && i > 0 && i % self.burst_every == 0 {
                burst_left = self.burst_len;
            }
            if burst_left > 0 {
                burst_left -= 1; // burst: no gap, same virtual instant
            } else {
                vtime_us += gaps.sample(&mut rng) as u64;
            }

            let key = zipf.sample(&mut rng) as u64;
            // Quantize sizes to multiples of 8 so panel shapes repeat
            // (and equal (kind, key, n) triples actually recur).
            let n = ((sizes.sample(&mut rng) as usize).max(self.n_min) / 8 * 8).max(8);
            let kind = JobKind::ALL[rng.random_range(0..4u32) as usize];
            let class = match rng.random_range(0..10u32) {
                0..=3 => Priority::Interactive,
                4..=7 => Priority::Batch,
                _ => Priority::Background,
            };
            let cost = crate::engine::factor_cost_us(n, 16);
            out.push(Request {
                kind,
                key,
                n,
                class,
                vtime_us,
                deadline_us: cost.saturating_mul(self.deadline_factor),
            });
        }
        out
    }
}

/// The standard chaos scenarios of the acceptance criteria.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosScenario {
    /// No faults: the availability and latency baseline.
    Clean,
    /// At-rest single-bit flips strike cached factors (ABFT heals or
    /// evicts; served bits must stay identical).
    BitFlip,
    /// Transient job faults absorbed by retry with backoff.
    TransientEio,
    /// Workers panic mid-factorization; the supervisor re-drives from
    /// checkpoints.
    WorkerCrash,
    /// Arrival bursts drive the backlog past its watermarks; admission
    /// sheds loudly and the cache degrades gracefully.
    BurstOverload,
    /// The process loses power between two halves of the workload; the
    /// second process replays the durable cache journal and must serve
    /// recovered entries bit-identically.  (The fault plan itself is
    /// clean — the cut is simulated by dropping the disk's un-barriered
    /// window, see `SimDisk::power_cut`.)
    PowerCut,
}

impl ChaosScenario {
    /// All scenarios, in bench order.
    pub const ALL: [ChaosScenario; 6] = [
        ChaosScenario::Clean,
        ChaosScenario::BitFlip,
        ChaosScenario::TransientEio,
        ChaosScenario::WorkerCrash,
        ChaosScenario::BurstOverload,
        ChaosScenario::PowerCut,
    ];

    /// Stable tag for logs and JSON artifacts.
    pub fn tag(self) -> &'static str {
        match self {
            ChaosScenario::Clean => "clean",
            ChaosScenario::BitFlip => "bit_flip",
            ChaosScenario::TransientEio => "transient_eio",
            ChaosScenario::WorkerCrash => "worker_crash",
            ChaosScenario::BurstOverload => "burst_overload",
            ChaosScenario::PowerCut => "power_cut",
        }
    }

    /// The scenario's fault plan at `seed`.
    pub fn plan(self, seed: u64) -> FaultPlan {
        let builder = FaultPlan::builder(seed);
        match self {
            ChaosScenario::Clean | ChaosScenario::BurstOverload | ChaosScenario::PowerCut => {
                builder.build()
            }
            ChaosScenario::BitFlip => builder.cache_flip_rate(0.3).build(),
            ChaosScenario::TransientEio => builder.job_transient_rate(0.25).build(),
            ChaosScenario::WorkerCrash => builder.worker_crash_rate(0.2).build(),
        }
    }

    /// The scenario's request-stream shape at `seed`.  Overload turns
    /// the burst knobs up and the sizes toward the heavy tail; the fault
    /// scenarios keep the baseline stream so their numbers are
    /// comparable to `Clean`.
    pub fn workload(self, seed: u64) -> Workload {
        let base = Workload { seed, ..Workload::default() };
        match self {
            ChaosScenario::BurstOverload => Workload {
                mean_gap_us: 30,
                burst_every: 10,
                burst_len: 8,
                n_min: 48,
                ..base
            },
            _ => base,
        }
    }

    /// The scenario's service configuration.  Overload runs with tight
    /// admission watermarks (and fewer shards, concentrating backlog) so
    /// the burst actually crosses them; everything else uses defaults.
    pub fn config(self) -> crate::service::ServiceConfig {
        let base = crate::service::ServiceConfig::default();
        match self {
            ChaosScenario::BurstOverload => crate::service::ServiceConfig {
                shards: 2,
                watermarks: crate::admission::Watermarks::bounded_by(600),
                ..base
            },
            // One shard: the durable journal's disk-op schedule is then
            // a deterministic function of the request stream, which the
            // power-cut bench's replay check relies on.
            ChaosScenario::PowerCut => crate::service::ServiceConfig { shards: 1, ..base },
            _ => base,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn streams_replay_for_a_seed_and_differ_across_seeds() {
        let w = Workload { seed: 3, ..Workload::default() };
        let a = w.generate();
        let b = w.generate();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                (x.kind, x.key, x.n, x.class, x.vtime_us, x.deadline_us),
                (y.kind, y.key, y.n, y.class, y.vtime_us, y.deadline_us)
            );
        }
        let c = Workload { seed: 4, ..Workload::default() }.generate();
        assert!(a.iter().zip(&c).any(|(x, y)| x.key != y.key || x.n != y.n));
    }

    #[test]
    fn arrivals_are_sorted_sizes_quantized_keys_skewed() {
        let reqs = Workload::default().generate();
        assert!(reqs.windows(2).all(|w| w[0].vtime_us <= w[1].vtime_us));
        assert!(reqs.iter().all(|r| r.n % 8 == 0 && (8..=96).contains(&r.n)));
        // Zipf skew: the hottest key should clearly dominate the coldest.
        let count = |k: u64| reqs.iter().filter(|r| r.key == k).count();
        assert!(count(1) > count(12));
    }

    #[test]
    fn burst_windows_share_a_virtual_instant() {
        let w = Workload {
            burst_every: 10,
            burst_len: 4,
            ..Workload::default()
        };
        let reqs = w.generate();
        // Requests 10..14 form a burst: 11..14 arrive exactly when 10 did.
        let t = reqs[10].vtime_us;
        assert!(reqs[11..14].iter().all(|r| r.vtime_us == t));
    }

    #[test]
    fn scenarios_have_distinct_tags_and_plans() {
        let mut tags: Vec<&str> = ChaosScenario::ALL.iter().map(|s| s.tag()).collect();
        tags.dedup();
        assert_eq!(tags.len(), 6);
        assert!(ChaosScenario::Clean.plan(1).is_clean());
        assert!(!ChaosScenario::WorkerCrash.plan(1).is_clean());
    }
}
