//! A uniform front door to the algorithm zoo: pick an algorithm, a storage
//! format, and a communication model by value, and get back the factor and
//! the measured words/messages.  This is what the experiment drivers in
//! `cholcomm-core` iterate over to regenerate Table 1.

use crate::{ap00, lapack, naive, toledo};
use cholcomm_cachesim::{
    CompactTrace, CountingTracer, LruTracer, StackDistanceTracer, Tracer, TransferStats,
};
use cholcomm_layout::{
    Blocked, ColMajor, Laid, Layout, Morton, PackedLower, RecursivePacked, RowMajor,
};
use cholcomm_matrix::{KernelImpl, Matrix, MatrixError, Scalar};

/// The sequential algorithms of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Algorithm 2 — naïve left-looking.
    NaiveLeft,
    /// Algorithm 3 — naïve right-looking.
    NaiveRight,
    /// Algorithm 4 — LAPACK blocked POTRF with block size `b`.
    LapackBlocked {
        /// Block (tile) size.
        b: usize,
    },
    /// Algorithm 5 — rectangular recursive (Toledo-style).
    Toledo {
        /// Base-case size of the inner recursive multiplications.
        gemm_leaf: usize,
    },
    /// Algorithm 6 — square recursive (Ahmed–Pingali).
    Ap00 {
        /// Recursion base-case size.
        leaf: usize,
    },
}

impl Algorithm {
    /// Short name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::NaiveLeft => "naive left-looking",
            Algorithm::NaiveRight => "naive right-looking",
            Algorithm::LapackBlocked { .. } => "LAPACK blocked",
            Algorithm::Toledo { .. } => "rectangular recursive (Toledo)",
            Algorithm::Ap00 { .. } => "square recursive (AP00)",
        }
    }

    /// `true` for the cache-oblivious algorithms, which are measured under
    /// the ideal-cache (LRU) model rather than explicit counting.
    pub fn is_cache_oblivious(&self) -> bool {
        matches!(self, Algorithm::Toledo { .. } | Algorithm::Ap00 { .. })
    }
}

/// The storage formats of Figure 2, as runtime values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayoutKind {
    /// Full column-major.
    ColMajor,
    /// Full row-major.
    RowMajor,
    /// Old packed (lower triangle, packed columns).
    PackedLower,
    /// Rectangular full packed (even `n`).
    Rfp,
    /// Cache-aware contiguous blocks of size `b`.
    Blocked(usize),
    /// Recursive / Morton / bit-interleaved.
    Morton,
    /// Recursive packed (AGW01 hybrid).
    RecursivePacked,
}

impl LayoutKind {
    /// Short name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            LayoutKind::ColMajor => "column-major",
            LayoutKind::RowMajor => "row-major",
            LayoutKind::PackedLower => "old packed",
            LayoutKind::Rfp => "rect. full packed",
            LayoutKind::Blocked(_) => "contiguous blocks",
            LayoutKind::Morton => "recursive blocks",
            LayoutKind::RecursivePacked => "recursive packed",
        }
    }
}

/// The communication model to run under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelKind {
    /// Explicit transfer counting; messages capped at `message_cap` words
    /// when given (the fast-memory bound).
    Counting {
        /// Maximum words per message, if bounded.
        message_cap: Option<usize>,
    },
    /// Ideal cache (word-LRU) of capacity `m`, with a final flush so the
    /// written factor is fully charged.
    Lru {
        /// Fast memory capacity in words.
        m: usize,
    },
    /// Multi-level hierarchy with the given ascending capacities;
    /// [`RunReport::levels`] gets one entry per capacity.
    Hierarchy {
        /// Ascending cache capacities.
        capacities: Vec<usize>,
    },
}

/// Result of one instrumented run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The computed factor (lower triangle holds `L`).
    pub factor: Matrix<f64>,
    /// Traffic per memory-hierarchy interface (a single entry for the
    /// two-level models).
    pub levels: Vec<TransferStats>,
}

/// Run `alg` on (a copy of) `input` stored in `layout`, measured under
/// `model`.
///
/// ```
/// use cholcomm_seq::zoo::{run_algorithm, Algorithm, LayoutKind, ModelKind};
/// use cholcomm_matrix::{norms, spd};
///
/// let mut rng = spd::test_rng(1);
/// let a = spd::random_spd(16, &mut rng);
/// let report = run_algorithm(
///     Algorithm::Ap00 { leaf: 4 },
///     &a,
///     LayoutKind::Morton,
///     &ModelKind::Lru { m: 64 },
/// ).unwrap();
/// assert!(norms::cholesky_residual(&a, &report.factor) < norms::residual_tolerance(16));
/// assert!(report.levels[0].words > 0);
/// ```
pub fn run_algorithm(
    alg: Algorithm,
    input: &Matrix<f64>,
    layout: LayoutKind,
    model: &ModelKind,
) -> Result<RunReport, MatrixError> {
    let n = input.rows();
    match layout {
        LayoutKind::ColMajor => run_with_layout(alg, input, ColMajor::square(n), model),
        LayoutKind::RowMajor => run_with_layout(alg, input, RowMajor::square(n), model),
        LayoutKind::PackedLower => run_with_layout(alg, input, PackedLower::new(n), model),
        LayoutKind::Rfp => run_with_layout(alg, input, Rfp::new(n), model),
        LayoutKind::Blocked(b) => run_with_layout(alg, input, Blocked::square(n, b), model),
        LayoutKind::Morton => run_with_layout(alg, input, Morton::square(n), model),
        LayoutKind::RecursivePacked => {
            run_with_layout(alg, input, RecursivePacked::new(n), model)
        }
    }
}

use cholcomm_layout::Rfp;

fn run_with_layout<L: Layout>(
    alg: Algorithm,
    input: &Matrix<f64>,
    layout: L,
    model: &ModelKind,
) -> Result<RunReport, MatrixError> {
    match model {
        ModelKind::Counting { message_cap } => {
            let mut tracer = match message_cap {
                Some(cap) => CountingTracer::new(*cap),
                None => CountingTracer::uncapped(),
            };
            let factor = run_alg(alg, input, layout, &mut tracer)?;
            Ok(RunReport {
                factor,
                levels: vec![tracer.stats()],
            })
        }
        ModelKind::Lru { m } => {
            let mut tracer = LruTracer::new(*m);
            let factor = run_alg(alg, input, layout, &mut tracer)?;
            tracer.flush();
            Ok(RunReport {
                factor,
                levels: vec![tracer.total_stats()],
            })
        }
        ModelKind::Hierarchy { capacities } => {
            let mut tracer = StackDistanceTracer::new(capacities);
            let factor = run_alg(alg, input, layout, &mut tracer)?;
            let levels = (0..capacities.len()).map(|i| tracer.level_stats(i)).collect();
            Ok(RunReport { factor, levels })
        }
    }
}

/// One recorded run: the computed factor plus the compact touch trace,
/// ready to be re-priced under any model via [`price_trace`].
#[derive(Debug, Clone)]
pub struct Recorded {
    /// The computed factor (lower triangle holds `L`).
    pub factor: Matrix<f64>,
    /// The run-encoded touch schedule of the factorization.
    pub trace: CompactTrace,
}

/// Record `alg` on (a copy of) `input` stored in `layout` once, keeping
/// the touch schedule as a [`CompactTrace`].
///
/// Touch schedules are *data-oblivious*: the sequence of addresses an
/// algorithm reads and writes depends only on `(alg, layout, n)`, never
/// on the matrix values — which is what makes a trace recorded on one
/// SPD matrix reusable for pricing every fast-memory size (and every
/// other SPD input) at that shape (`tests/trace_replay.rs` holds every
/// algorithm to it across SPD inputs and layouts).
pub fn record_algorithm(
    alg: Algorithm,
    input: &Matrix<f64>,
    layout: LayoutKind,
) -> Result<Recorded, MatrixError> {
    let n = input.rows();
    let mut trace = CompactTrace::new();
    let t = &mut trace;
    let factor = match layout {
        LayoutKind::ColMajor => run_alg(alg, input, ColMajor::square(n), t),
        LayoutKind::RowMajor => run_alg(alg, input, RowMajor::square(n), t),
        LayoutKind::PackedLower => run_alg(alg, input, PackedLower::new(n), t),
        LayoutKind::Rfp => run_alg(alg, input, Rfp::new(n), t),
        LayoutKind::Blocked(b) => run_alg(alg, input, Blocked::square(n, b), t),
        LayoutKind::Morton => run_alg(alg, input, Morton::square(n), t),
        LayoutKind::RecursivePacked => run_alg(alg, input, RecursivePacked::new(n), t),
    }?;
    Ok(Recorded { factor, trace })
}

/// Re-price a recorded trace under `model` without re-running any
/// arithmetic.  Returns the same per-level stats vector that
/// [`run_algorithm`] puts in [`RunReport::levels`], byte-identical to a
/// direct run of the same `(alg, layout, n)`.
pub fn price_trace(trace: &CompactTrace, model: &ModelKind) -> Vec<TransferStats> {
    match model {
        ModelKind::Counting { message_cap } => {
            let mut tracer = match message_cap {
                Some(cap) => CountingTracer::new(*cap),
                None => CountingTracer::uncapped(),
            };
            trace.replay(&mut tracer);
            vec![tracer.stats()]
        }
        ModelKind::Lru { m } => {
            let mut tracer = LruTracer::new(*m);
            tracer.reserve_footprint(trace.footprint());
            trace.replay(&mut tracer);
            tracer.flush();
            vec![tracer.total_stats()]
        }
        ModelKind::Hierarchy { capacities } => {
            let mut tracer =
                StackDistanceTracer::with_trace_hint(capacities, trace.words(), trace.footprint());
            trace.replay(&mut tracer);
            (0..capacities.len()).map(|i| tracer.level_stats(i)).collect()
        }
    }
}

/// Run the algorithm body generically; also usable directly with any
/// scalar (the starred reduction calls this with [`cholcomm_matrix::Scalar`] = `Star`).
pub fn run_alg<S: Scalar, L: Layout, T: Tracer>(
    alg: Algorithm,
    input: &Matrix<S>,
    layout: L,
    tracer: &mut T,
) -> Result<Matrix<S>, MatrixError> {
    let mut laid = Laid::from_matrix(input, layout);
    match alg {
        Algorithm::NaiveLeft => naive::left_looking(&mut laid, tracer)?,
        Algorithm::NaiveRight => naive::right_looking(&mut laid, tracer)?,
        Algorithm::LapackBlocked { b } => {
            lapack::potrf_blocked_with(&mut laid, tracer, b, None, KernelImpl::Reference)?
        }
        Algorithm::Toledo { gemm_leaf } => {
            toledo::rectangular_rchol(&mut laid, tracer, gemm_leaf)?
        }
        Algorithm::Ap00 { leaf } => {
            ap00::square_rchol(&mut laid, tracer, leaf, KernelImpl::Reference)?
        }
    }
    Ok(laid.to_matrix())
}

/// Every algorithm with sensible defaults for fast memory `m` — the rows
/// of Table 1.
pub fn all_algorithms(m: usize) -> Vec<Algorithm> {
    let b = (((m / 3) as f64).sqrt() as usize).max(1);
    vec![
        Algorithm::NaiveLeft,
        Algorithm::NaiveRight,
        Algorithm::LapackBlocked { b },
        Algorithm::Toledo { gemm_leaf: 4 },
        Algorithm::Ap00 { leaf: 4 },
    ]
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use cholcomm_matrix::{norms, spd};

    #[test]
    fn every_algorithm_layout_model_combination_factors() {
        let n = 16;
        let mut rng = spd::test_rng(90);
        let a = spd::random_spd(n, &mut rng);
        let layouts = [
            LayoutKind::ColMajor,
            LayoutKind::RowMajor,
            LayoutKind::PackedLower,
            LayoutKind::Rfp,
            LayoutKind::Blocked(4),
            LayoutKind::Morton,
            LayoutKind::RecursivePacked,
        ];
        let models = [
            ModelKind::Counting { message_cap: Some(64) },
            ModelKind::Lru { m: 64 },
            ModelKind::Hierarchy { capacities: vec![32, 128] },
        ];
        for alg in all_algorithms(48) {
            for layout in layouts {
                for model in &models {
                    let rep = run_algorithm(alg, &a, layout, model).unwrap_or_else(|e| {
                        panic!("{:?} on {:?} under {:?}: {e}", alg, layout, model)
                    });
                    let r = norms::cholesky_residual(&a, &rep.factor);
                    assert!(
                        r < norms::residual_tolerance(n),
                        "{:?} on {:?} under {:?}: residual {r}",
                        alg,
                        layout,
                        model
                    );
                    assert!(!rep.levels.is_empty());
                    assert!(rep.levels[0].words > 0);
                }
            }
        }
    }

    #[test]
    fn hierarchy_levels_are_monotone() {
        let n = 24;
        let mut rng = spd::test_rng(91);
        let a = spd::random_spd(n, &mut rng);
        let model = ModelKind::Hierarchy {
            capacities: vec![16, 64, 256],
        };
        let rep = run_algorithm(
            Algorithm::Ap00 { leaf: 4 },
            &a,
            LayoutKind::Morton,
            &model,
        )
        .unwrap();
        assert_eq!(rep.levels.len(), 3);
        assert!(rep.levels[0].words >= rep.levels[1].words);
        assert!(rep.levels[1].words >= rep.levels[2].words);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Algorithm::NaiveLeft.name(), "naive left-looking");
        assert_eq!(LayoutKind::Morton.name(), "recursive blocks");
        assert!(Algorithm::Ap00 { leaf: 4 }.is_cache_oblivious());
        assert!(!Algorithm::LapackBlocked { b: 8 }.is_cache_oblivious());
    }
}
