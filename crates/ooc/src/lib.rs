#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]
//! # cholcomm-ooc
//!
//! Out-of-core Cholesky with a *real* slow memory: the matrix lives in a
//! file, tiles move through a bounded in-RAM set of resident tiles, and
//! actual I/O — bytes transferred and seeks issued — is counted by the
//! storage layer itself.
//!
//! This is the two-level model of the paper made concrete: "slow memory"
//! is the filesystem, "fast memory" holds at most `capacity_tiles`
//! blocks under LRU, a "message" is a contiguous file read/write
//! (block-contiguous tile layout, so one tile = one seek + one stream),
//! and the factorization is the LAPACK blocked schedule of Algorithm 4:
//! the left-looking walk, which writes each lower tile once.
//! The measured seek counts land on the same `Theta(n^3 / M^{3/2})`
//! curve as the simulator's message counts — see the paper's [B08]
//! citation for the out-of-core framing.
//!
//! The tile format is written once, in [`tilefile`]: one [`TileFile`]
//! owns the layout, the byte codec, the seek accounting and the
//! [`IoBackend`] impl over two byte devices — a real file
//! ([`FileMatrix`]) and a named file on the simulated crash disk
//! ([`SimMatrix`]).
//!
//! Tiles move through one front, the [`pipeline`]: the schedule's misses,
//! evictions and write-backs are planned before the run, then issued
//! either inline on the compute thread at each miss (zero I/O workers:
//! [`ooc_potrf_with`], [`ooc_potrf_checkpointed`]) or ahead of compute
//! on dedicated I/O workers ([`ooc_potrf_pipelined_with`]), with the same
//! bits either way.
//!
//! The disk can also be made *flaky* on purpose: [`FaultyBackend`]
//! injects transient `EIO`s, short reads, and crash points from a
//! deterministic `cholcomm_faults::FaultPlan`, recovering transients
//! with bounded retry, while [`checkpoint`] adds checkpoint/restart at
//! each super-column of the walk so a killed factorization resumes from
//! its last completed super-column with a bit-identical result.
//!
//! Silent *data* corruption is covered too: [`AbftBackend`] keeps a
//! Huang–Abraham checksum beside every tile and verifies each read,
//! healing single-element bit flips in place; unhealable multi-element
//! corruption rolls the run back to the last panel checkpoint.
//! Checkpoints themselves carry FNV integrity hashes, so truncated or
//! bit-rotted snapshots are rejected instead of resumed from.
//!
//! Durability is *tested*, not assumed: checkpoints commit through the
//! write-ahead journal of `cholcomm_faults::journal` (see
//! [`checkpoint`]), the [`IoBackend`] contract carries an explicit
//! `barrier()`, and [`crashsim`] runs whole checkpointed factorizations
//! on a simulated crash disk ([`SimMatrix`] over
//! `cholcomm_faults::SimDisk`), re-driving recovery at every crash
//! prefix of the recorded op schedule — including torn and reordered
//! un-barriered writes — and asserting bit-identical completion.

pub mod abft;
pub mod backend;
pub mod checkpoint;
pub mod crashsim;
pub mod pipeline;
pub mod potrf;
pub mod tilefile;

pub use abft::AbftBackend;
pub use backend::{FaultyBackend, IoBackend, LatencyModel};
pub use checkpoint::{Checkpoint, CheckpointReport, CheckpointState};
pub use cholcomm_faults::CommitDiscipline;
pub use crashsim::{explore_crash_sites, record_run, CrashExploration, RecordedRun};
pub use pipeline::{
    io_workers_from_env, model_overlap, ooc_potrf_checkpointed, ooc_potrf_pipelined_with,
    super_column_width, ModelConfig, ModelReport, PipelineConfig, PipelineStats,
    DEFAULT_FLOPS_PER_US, WORKING_SET,
};
pub use potrf::{ooc_potrf_with, OocError};
pub use tilefile::{scratch_path, FileMatrix, IoStats, SimMatrix, TileFile};
