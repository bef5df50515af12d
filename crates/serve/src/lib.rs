//! `cholcomm-serve`: an overload-safe, chaos-tested batched
//! factorization service.
//!
//! An in-process, shard-per-core service that accepts streams of SPD
//! factorization jobs (raw factor, factor-and-solve, GP posterior,
//! Kalman innovation step) and wraps the workspace's bit-exact blocked
//! Cholesky in a full robustness envelope:
//!
//! - **Admission** ([`admission`]): bounded virtual-time backlog per
//!   shard with priority-class watermarks — background work sheds first,
//!   interactive last, and every decision is a pure function of the
//!   request stream.
//! - **Deadlines** ([`engine`]): per-request budgets enforced
//!   cooperatively at panel granularity through the engine's control
//!   hook; no request ever hangs past its budget.
//! - **Supervision** ([`shard`]): panic-isolated shard workers under a
//!   supervisor that catches injected crashes, restarts the worker, and
//!   re-drives in-flight jobs from their last panel checkpoint —
//!   bit-identically, by the left-looking resumability invariant.
//! - **Retry** ([`shard`]): transient faults retried with seeded,
//!   jittered exponential backoff, bounded by a retry limit that turns
//!   into a typed [`ServeError::RetriesExhausted`].
//! - **Breakers** ([`breaker`]): per-shard `Healthy -> Degraded ->
//!   Shedding` circuit breakers widening the refusal surface as faults
//!   accumulate.
//! - **Graceful degradation** ([`cache`]): shed or refused requests are
//!   rescued, when possible, by an ABFT-verified factor cache whose
//!   reads heal single-bit at-rest corruption and evict (never serve)
//!   unrecoverable entries.
//! - **Chaos harness** ([`loadgen`]): a seeded load generator (Zipf
//!   keys, heavy-tailed sizes, bursts) composed with
//!   [`cholcomm_faults::FaultPlan`] job faults; runs replay
//!   byte-identically and every completed response is bit-identical to
//!   an unfaulted direct factorization.
//! - **Durability** ([`durable`]): an optional journaled factor cache
//!   (intent, entry, barrier, commit, barrier — the same commit protocol
//!   as the ooc checkpoints) so a service restarted after a power cut
//!   replays its committed factors instead of refactoring them; torn or
//!   tampered entries are dropped, never served.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

pub mod admission;
pub mod batcher;
pub mod breaker;
pub mod cache;
pub mod durable;
pub mod engine;
pub mod error;
pub mod events;
pub mod jobs;
pub mod loadgen;
pub mod metrics;
pub mod service;
mod shard;

pub use admission::{Admission, BacklogGauge, Priority, Watermarks};
pub use batcher::{bucket_of, BatchConfig};
pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use cache::{CacheRead, CacheStats, FactorCache, Served};
pub use durable::{DurableCache, RecoveryReport};
pub use engine::{
    batch_cost_us, batched_request_cost_us, factor_batch, factor_cost_us, factor_resumable,
    panel_cost_us, panel_count, Checkpoint, FactorOutcome, PanelControl, PanelCrash,
    BATCH_FLOPS_PER_US,
};
pub use error::ServeError;
pub use events::{canonicalize, log_digest, Event, EventRecord, Source};
pub use jobs::{build, problem_digest, CvModel, GpProblem, JobKind, Problem};
pub use loadgen::{ChaosScenario, Workload};
pub use metrics::{Counters, Metrics};
pub use service::{
    Request, Response, Service, ServiceConfig, ServiceReport, ShardConfig, Ticket,
};
