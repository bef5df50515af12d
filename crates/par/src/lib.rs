#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]
//! # cholcomm-par
//!
//! Parallel Cholesky.
//!
//! * **Algorithm 9**, ScaLAPACK's `PxPOTRF`, over the block-cyclically
//!   distributed matrix of Figure 6 — written once, as a data-oblivious
//!   list of panel steps (tile ops, broadcasts, end of panel) in a
//!   private `alg9` module, and run by two executors with three plug-in
//!   points (transport, ownership map, per-step hook):
//!   - [`pxpotrf()`] — the machine executor on the deterministic
//!     message-passing simulator of `cholcomm-distsim`: real tile
//!     payloads move along real broadcast trees, so the factor is
//!     verifiable while critical-path words, messages and flops are
//!     metered — this regenerates Table 2; [`pxpotrf_1d`], the 1D
//!     block-column baseline, is the same executor on a `1 × P` grid;
//!   - [`hier`] — the same executor with a hook that runs every tile
//!     access through a per-processor LRU (parallelism × hierarchy);
//!   - [`spmd`] — the rank executor: one program per OS thread over the
//!     channel mesh of `distsim::threaded`, under a fault plan;
//!   - [`abft`] — the rank executor with checksum, checkpoint and kill
//!     hooks, and a `logical -> physical` ownership map that lets a
//!     survivor adopt a lost rank's role.
//! * [`dag`] — the one shared-memory parallel Cholesky: the tiled
//!   right-looking schedule of `cholcomm_matrix::schedule` as a
//!   barrier-free task DAG on `rayon::scope`, bitwise equal to the
//!   sequential walk at every thread count, plus a deterministic
//!   greedy-scheduler model ([`dag::simulate`]) that a unit test gates
//!   the scaling claim on.  Together these demonstrate that the
//!   communication-optimal *schedules* of the paper are also the natural
//!   parallel ones.

pub mod abft;
mod alg9;
pub mod blockcyclic;
pub mod dag;
pub mod hier;
pub mod io;
pub mod matmul25d;
pub mod pxpotrf;
pub mod spmd;

pub use abft::{abft_spmd_pxpotrf, AbftSpmdReport};
pub use blockcyclic::DistMatrix;
pub use dag::{potrf_dag_with, simulate as dag_simulate, DagModel};
pub use hier::{pxpotrf_hier, HierReport};
pub use io::{io_scope, IoScope};
pub use matmul25d::{matmul_25d, Mm25dReport};
pub use pxpotrf::{pxpotrf, pxpotrf_1d, PxPotrfReport};
pub use spmd::{spmd_pxpotrf, SpmdError, SpmdReport};
