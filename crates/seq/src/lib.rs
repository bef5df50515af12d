#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]
//! # cholcomm-seq
//!
//! The sequential Cholesky algorithm zoo of Section 3.1 of the paper,
//! each implemented generically over the scalar type ([`cholcomm_matrix::Scalar`] —
//! so the starred reduction of Algorithm 1 runs through every routine),
//! the storage format ([`cholcomm_layout::Layout`] — so the latency
//! claims of Table 1 can be measured per data structure), and the
//! communication model ([`cholcomm_cachesim::Tracer`]).
//!
//! | Paper | Module / function | Communication schedule |
//! |---|---|---|
//! | Algorithm 2 | [`naive::left_looking`] | explicit column transfers |
//! | Algorithm 3 | [`naive::right_looking`] | explicit column transfers |
//! | Algorithm 4 | [`lapack::potrf_blocked_with`] | explicit `b x b` tile transfers |
//! | Algorithm 5 | [`toledo::rectangular_rchol`] | cache-oblivious (ideal-cache tracer) |
//! | Algorithm 6 | [`ap00::square_rchol`] | cache-oblivious (ideal-cache tracer) |
//! | Algorithm 7 | [`rmatmul::recursive_matmul`] | cache-oblivious |
//! | Algorithm 8 | [`ap00::rtrsm_rec`] (in-place variant) | cache-oblivious |
//!
//! The *explicit* algorithms declare every transfer they perform, so a
//! [`cholcomm_cachesim::CountingTracer`] reproduces the paper's exact
//! closed-form counts.  The *recursive* algorithms only touch the words
//! they compute with, at the base cases of their recursion, and are
//! measured under the ideal-cache ([`cholcomm_cachesim::LruTracer`]) or
//! stack-distance model — they never see the cache size `M`, which is the
//! definition of cache-oblivious.

pub mod abft;
pub mod ap00;
pub mod lapack;
pub mod naive;
pub mod profile;
pub mod rmatmul;
pub mod tiles;
pub mod toledo;
pub mod zoo;

pub use abft::{abft_potrf, AbftPotrfReport};
pub use zoo::{run_algorithm, Algorithm};
