#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]
//! # cholcomm-matrix
//!
//! Dense-matrix substrate for the `cholcomm` reproduction of
//! *Communication-Optimal Parallel and Sequential Cholesky Decomposition*
//! (Ballard, Demmel, Holtz, Schwartz — SPAA 2009).
//!
//! This crate provides everything the algorithm zoo sits on:
//!
//! * [`Scalar`] — the arithmetic abstraction shared by `f64`, `f32` and the
//!   paper's "starred" values (`0*`/`1*`, implemented in `cholcomm-starred`).
//!   The paper's Algorithm 1 runs an *unmodified* Cholesky routine over the
//!   extended value set, so every kernel here is generic over [`Scalar`].
//! * [`Matrix`] — a plain column-major dense matrix (the reference storage
//!   against which the exotic layouts of `cholcomm-layout` are validated).
//! * [`spd`] — generators for symmetric positive definite test and workload
//!   matrices (random Gram matrices, RBF kernel matrices, classic examples).
//! * [`kernels`] — reference BLAS-3-like kernels (`gemm`, `syrk`, `trsm`,
//!   unblocked `potf2`) written exactly from Equations (5)–(6) of the paper.
//! * [`kernels_fast`] — packed, cache-blocked, register-tiled `f64`
//!   microkernels, bit-identical to the reference kernels but running at
//!   hardware speed; selected through [`engine::KernelImpl`].
//! * [`parallel`] — per-thread gating and fan-out helpers that let the
//!   fast kernels drive the vendored-rayon work-stealing pool while
//!   keeping strict-mode results bit-identical at every thread count.
//! * [`schedule`] — the tile schedule of the blocked factorization,
//!   written once: the right- and left-looking walks over a pluggable
//!   tile store, the op-to-kernel dispatch, and the same ops as a task DAG.
//! * [`tri`] — triangular solves and SPD system solution via the factor.
//! * [`norms`] — Frobenius norms and factorization residuals used by every
//!   correctness test in the workspace.

pub mod abft;
pub mod dense;
pub mod digest;
pub mod engine;
pub mod error;
pub mod kernels;
pub mod kernels_fast;
pub mod norms;
pub mod parallel;
pub mod scalar;
pub mod schedule;
pub mod spd;
pub mod tri;

pub use abft::{verify_and_heal, AbftMatrix, AbftStats, TileChecksum, TileHealth};
pub use dense::Matrix;
pub use digest::{lower_digest, lower_digests, matrix_digest, slice_digest};
pub use engine::{KernelImpl, Operand};
pub use error::MatrixError;
pub use kernels_fast::batch::{BatchMode, BatchPack};
pub use kernels_fast::PackedTile;
pub use scalar::Scalar;
