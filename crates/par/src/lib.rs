#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]
//! # cholcomm-par
//!
//! Parallel Cholesky, two ways:
//!
//! * [`pxpotrf`] — ScaLAPACK's `PxPOTRF` (Algorithm 9 of the paper) over
//!   the block-cyclically distributed matrix of Figure 6, running on the
//!   deterministic message-passing simulator of `cholcomm-distsim`.  Real
//!   block payloads move along real broadcast trees, so the factor is
//!   numerically verifiable while critical-path words, messages, and
//!   flops are metered — this regenerates Table 2.
//! * [`shared`] — an actual shared-memory parallel Cholesky built on
//!   rayon: a fork-join recursive (AP00-shaped) factorization.
//! * [`dag`] — the tiled right-looking schedule of
//!   `cholcomm_matrix::schedule` as a barrier-free task DAG on
//!   `rayon::scope`, bitwise equal to the sequential walk at every
//!   thread count, plus a deterministic greedy-scheduler model
//!   ([`dag::simulate`]) that `kernel_bench` gates its scaling claim on.
//!   Together these demonstrate that the communication-optimal
//!   *schedules* of the paper are also the natural parallel ones.

pub mod abft;
pub mod blockcyclic;
pub mod dag;
pub mod hier;
pub mod io;
pub mod matmul25d;
pub mod onedim;
pub mod pxpotrf;
pub mod shared;
pub mod spmd;

pub use abft::{abft_spmd_pxpotrf, AbftSpmdReport};
pub use blockcyclic::DistMatrix;
pub use dag::{potrf_dag_with, scatter, simulate as dag_simulate, DagModel};
pub use hier::{pxpotrf_hier, HierReport};
pub use io::{io_scope, IoScope};
pub use matmul25d::{matmul_25d, Mm25dReport};
pub use onedim::pxpotrf_1d;
pub use pxpotrf::{pxpotrf, PxPotrfReport};
pub use shared::par_recursive_potrf;
pub use spmd::{spmd_pxpotrf, spmd_pxpotrf_faulty, SpmdError, SpmdReport};
