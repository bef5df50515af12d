#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]
//! # cholcomm-layout
//!
//! The matrix storage formats of Figure 2 of the paper, and the address
//! arithmetic that turns "read this submatrix" into a set of *maximal
//! contiguous address runs* — the primitive from which message (latency)
//! counts are derived.
//!
//! Section 3.1.1 splits the formats into two classes:
//!
//! * **column-major class** — [`ColMajor`], [`RowMajor`], [`PackedLower`]
//!   ("old packed"), [`Rfp`] ("rectangular full packed"): a `b x b` block
//!   costs `b` messages to read even when a single message could carry
//!   `b^2` words.
//! * **block-contiguous class** — [`Blocked`] (cache-aware, explicit block
//!   size) and [`Morton`] ("recursive format" / bit-interleaved /
//!   space-filling-curve, cache-oblivious), plus the hybrid
//!   [`RecursivePacked`] of Andersen–Gustavson–Waśniewski: aligned blocks
//!   are contiguous, so a block read is `O(1)` messages.
//!
//! Every format implements [`Layout`]: a bijection from stored matrix
//! cells to linear addresses.  [`Layout::runs_for`] enumerates the
//! maximal contiguous runs covering any cell set, which the tracers in
//! `cholcomm-cachesim` consume.

pub mod blocked;
pub mod colmajor;
pub mod convert;
pub mod layered;
pub mod morton;
pub mod packed;
pub mod packed_upper;
pub mod recpacked;
pub mod region;
pub mod rfp;
pub mod storage;

pub use blocked::Blocked;
pub use colmajor::{ColMajor, RowMajor};
pub use layered::Layered;
pub use morton::Morton;
pub use packed::PackedLower;
pub use packed_upper::PackedUpper;
pub use recpacked::RecursivePacked;
pub use region::{cells_block, cells_col_segment, cells_lower_block, Run};
pub use rfp::Rfp;
pub use storage::Laid;

use std::fmt::Debug;

/// A storage format: a bijection from (stored) matrix cells to linear
/// memory addresses.
pub trait Layout: Debug + Clone + Send + Sync + 'static {
    /// Total words of backing storage (including any padding the format
    /// needs — e.g. [`Morton`] pads to a power of two).
    fn len(&self) -> usize;

    /// `true` when the layout stores zero matrix cells.
    fn is_empty(&self) -> bool {
        self.rows() == 0 || self.cols() == 0
    }

    /// Matrix rows covered by this layout.
    fn rows(&self) -> usize;

    /// Matrix columns covered by this layout.
    fn cols(&self) -> usize;

    /// Linear address of cell `(i, j)`.  Panics (at least in debug builds)
    /// if the cell is not stored by this format.
    fn addr(&self, i: usize, j: usize) -> usize;

    /// Whether the format stores cell `(i, j)` (packed lower-triangular
    /// formats store only `i >= j`).
    fn stores(&self, i: usize, j: usize) -> bool {
        i < self.rows() && j < self.cols()
    }

    /// Short human-readable name for tables.
    fn name(&self) -> &'static str;

    /// Maximal contiguous address runs covering the given cells (cells the
    /// format does not store are skipped).  Runs are returned sorted by
    /// start address and coalesced; this is the number-of-messages
    /// primitive of Section 3.1.1.
    fn runs_for(&self, cells: impl IntoIterator<Item = (usize, usize)>) -> Vec<Run> {
        let mut addrs: Vec<usize> = cells
            .into_iter()
            .filter(|&(i, j)| self.stores(i, j))
            .map(|(i, j)| self.addr(i, j))
            .collect();
        addrs.sort_unstable();
        addrs.dedup();
        region::coalesce_sorted(&addrs)
    }

    /// Number of messages needed to move the given cells in one shot, with
    /// an optional cap on the words one message may carry (the paper caps
    /// messages at the fast-memory size `M`).
    fn messages_for(
        &self,
        cells: impl IntoIterator<Item = (usize, usize)>,
        max_message_words: Option<usize>,
    ) -> usize {
        self.runs_for(cells)
            .iter()
            .map(|r| match max_message_words {
                Some(m) if m > 0 => r.len().div_ceil(m),
                _ => 1,
            })
            .sum()
    }
}
