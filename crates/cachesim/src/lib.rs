#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]
//! # cholcomm-cachesim
//!
//! Sequential communication-cost models for the two-level I/O (DAM) model
//! and the multi-level hierarchy model of the paper.
//!
//! The paper measures two costs between fast and slow memory:
//!
//! * **bandwidth** — total words moved;
//! * **latency** — total messages, where a message is a maximal bundle of
//!   *contiguously stored* words, at most `M` (the fast-memory size) long.
//!
//! Three tracers implement that accounting:
//!
//! * [`CountingTracer`] — explicit-transfer accounting: every transfer an
//!   algorithm declares is charged in full.  This reproduces the paper's
//!   closed-form counts for the naïve and LAPACK algorithms, whose
//!   analyses assume an explicitly managed fast memory.
//! * [`LruTracer`] — the ideal-cache model of Frigo–Leiserson–Prokop–
//!   Ramachandran: a word-granularity LRU of capacity `M`; misses are
//!   words moved, and misses to consecutive addresses coalesce into
//!   messages capped at `M` words.  Cache-oblivious algorithms (the
//!   recursive ones) are measured here — they never mention `M`.
//! * [`StackDistanceTracer`] — one pass, *every* capacity at once, via LRU
//!   stack distances (Bentley–Olken with a binary indexed tree).  This is
//!   the multi-level hierarchy model of Section 3.2: traffic between
//!   levels `i` and `i+1` is exactly the accesses whose stack distance
//!   exceeds `M_i`.

pub mod coalesce;
pub mod counting;
pub mod fxhash;
pub mod gauge;
pub mod lru;
pub mod pebble;
pub mod setassoc;
pub mod stackdist;
pub mod stats;
pub mod trace;
pub mod tracer;

pub use coalesce::{Coalescer, MissAccounter, DEFAULT_STREAMS};
pub use counting::CountingTracer;
pub use fxhash::{AddrMap, FxHashMap, FxHasher};
pub use gauge::FastMemGauge;
pub use lru::LruTracer;
pub use pebble::{cholesky_dag, min_io, PebbleDag};
pub use setassoc::SetAssocTracer;
pub use stackdist::StackDistanceTracer;
pub use stats::TransferStats;
pub use trace::CompactTrace;
pub use tracer::{touch, touch_at, Access, NullTracer, Tracer};
