//! The shard's factorization engine: a checkpointable, cancellable,
//! crash-injectable blocked Cholesky that is **bit-identical** to the
//! sequential LAPACK schedule (`cholcomm_seq::lapack::potrf_blocked`).
//!
//! Bit-identity is the service's core correctness claim, and it holds by
//! construction: this engine *is* that schedule — the left-looking walk
//! of `cholcomm_matrix::schedule` (Algorithm 4), one block column per
//! step, over the checkpoint's matrix updated in place, with the same
//! `Arithmetic` the traced schedule runs.  Parallelism inside a request is
//! the kernels' own, which `ShardConfig::parallel` switches.
//!
//! Between panels the engine yields to a control hook, which is where the
//! service hangs its robustness machinery: the hook sees the state
//! (panels `0..jb` final, trailing matrix untouched — the left-looking
//! invariant, the walk's by construction, that makes resumption exact),
//! cancels on an expired deadline budget, or — under a chaos plan — dies
//! mid-flight with a panic the shard supervisor must catch.

use cholcomm_matrix::schedule::{self, Arithmetic, TileGrid, TileStore};
use cholcomm_matrix::{KernelImpl, Matrix, MatrixError};

/// Calibration constant for virtual time: modelled kernel throughput.
/// Only ratios matter for admission and deadlines; the absolute scale is
/// chosen so service-sized jobs cost tens to hundreds of virtual µs.
const FLOPS_PER_US: u64 = 4_000;

/// Modelled throughput of the *batched* kernels (virtual flops/µs).
/// One small factorization never reaches BLAS-3 intensity — its words
/// moved are O(n²) against O(n³/3) flops — so the unbatched model runs
/// at [`FLOPS_PER_US`].  Packing a bucket of systems lane-interleaved
/// restores the surface-to-volume ratio exactly the way blocking does
/// within one matrix: the modelled 4x is deliberately conservative
/// against the 7.5–9x BLAS-3 saturation `kernel_bench` measures for the
/// fast kernels, and the serve bench reports measured wall-clock
/// speedups next to the virtual ones so the model stays honest.
pub const BATCH_FLOPS_PER_US: u64 = 16_000;

/// A resumable factorization state: panels `0..next_panel` of `state`
/// are final factor columns; everything at and beyond `next_panel` still
/// holds original input values (the left-looking invariant).
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The next panel to process.
    pub next_panel: usize,
    /// The matrix, part factor, part untouched input.
    pub state: Matrix<f64>,
}

impl Checkpoint {
    /// A fresh start: no panel factored yet.
    pub fn fresh(a: Matrix<f64>) -> Checkpoint {
        Checkpoint {
            next_panel: 0,
            state: a,
        }
    }
}

/// What the control hook tells the engine at each panel boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanelControl {
    /// Keep going.
    Continue,
    /// Cooperative cancellation (deadline expired): stop cleanly.
    Cancel,
    /// Chaos: die right here with a panic, as a crashing worker would.
    Crash,
}

/// How a (non-panicking) engine run ended.
#[derive(Debug, Clone)]
pub enum FactorOutcome {
    /// All panels processed; the lower triangle of the matrix is the
    /// Cholesky factor (the strict upper triangle retains input values,
    /// exactly as the sequential blocked schedule leaves it).
    Done(Matrix<f64>),
    /// The control hook cancelled at the start of `panel`.
    Canceled {
        /// Panel at which the cancellation landed.
        panel: usize,
    },
}

/// Panic payload of an injected crash, so the supervisor can tell chaos
/// from genuine bugs.
#[derive(Debug, Clone, Copy)]
pub struct PanelCrash {
    /// Panel at which the worker died.
    pub panel: usize,
}

/// Number of panels a blocked factorization of order `n` runs.
pub fn panel_count(n: usize, b: usize) -> usize {
    n.div_ceil(b)
}

/// Flop count of panel `jb`: its SYRK chain, POTF2, GEMM chains, and
/// TRSMs.
fn panel_flops(n: usize, b: usize, jb: usize) -> u64 {
    let nb = panel_count(n, b);
    let bw = (n - jb * b).min(b) as u64;
    let mut flops = bw * bw * bw / 3; // POTF2
    for kb in 0..jb {
        let kw = (n - kb * b).min(b) as u64;
        flops += bw * bw * kw; // SYRK term
    }
    for ib in (jb + 1)..nb {
        let bh = (n - ib * b).min(b) as u64;
        for kb in 0..jb {
            let kw = (n - kb * b).min(b) as u64;
            flops += 2 * bh * bw * kw; // GEMM term
        }
        flops += bh * bw * bw; // TRSM
    }
    flops
}

/// Flop count of a full blocked factorization of order `n`.
fn factor_flops(n: usize, b: usize) -> u64 {
    (0..panel_count(n, b)).map(|jb| panel_flops(n, b, jb)).sum()
}

/// Modelled virtual cost (µs) of panel `jb`.
pub fn panel_cost_us(n: usize, b: usize, jb: usize) -> u64 {
    panel_flops(n, b, jb) / FLOPS_PER_US + 1
}

/// Modelled virtual cost (µs) of a full factorization of order `n`.
pub fn factor_cost_us(n: usize, b: usize) -> u64 {
    (0..panel_count(n, b)).map(|jb| panel_cost_us(n, b, jb)).sum()
}

/// Modelled virtual cost (µs) of factoring one whole bucket of `batch`
/// systems, each padded to order `bucket_n`, as a single batched kernel
/// run: every real lane's flops at batched throughput, plus one
/// dispatch µs per panel — charged once per *batch*, which is the whole
/// point of batching.  Padding lanes ride free (they are SIMD slack),
/// but padding *size* is charged honestly: a 40×40 system in a 64
/// bucket costs 64-sized flops.
pub fn batch_cost_us(bucket_n: usize, batch: usize, b: usize) -> u64 {
    (batch as u64).saturating_mul(factor_flops(bucket_n, b)) / BATCH_FLOPS_PER_US
        + panel_count(bucket_n, b) as u64
        + 1
}

/// The deterministic *amortized* admission cost (µs) of one batchable
/// request: its own padded-lane share of a batch — `flops(bucket)` at
/// batched throughput — with no per-request copy of the batch's
/// dispatch constants.  Admission must decide at submit time, before
/// the batch has formed, so the share cannot depend on how full the
/// bucket ends up; charging the per-lane work (which is exact) and
/// amortizing only the constants (which is what batching amortizes)
/// keeps the gauge honest without making admission nondeterministic.
pub fn batched_request_cost_us(bucket_n: usize, b: usize) -> u64 {
    factor_flops(bucket_n, b) / BATCH_FLOPS_PER_US + 1
}

/// Run (or resume) the blocked factorization from `ckpt`, consulting
/// `ctl` at every panel boundary with the panel index and the current
/// state (which is exactly the checkpoint to resume from).
///
/// # Panics
/// By design, when `ctl` returns [`PanelControl::Crash`] — with a
/// [`PanelCrash`] payload the shard supervisor downcasts.
pub fn factor_resumable(
    mut ckpt: Checkpoint,
    b: usize,
    kernel: KernelImpl,
    ctl: &mut dyn FnMut(usize, &Checkpoint) -> PanelControl,
) -> Result<FactorOutcome, MatrixError> {
    let n = ckpt.state.rows();
    if !ckpt.state.is_square() {
        return Err(MatrixError::NotSquare {
            rows: n,
            cols: ckpt.state.cols(),
        });
    }
    let grid = TileGrid::new(n, b);
    let mut arith = Arithmetic::new(kernel, grid);

    while ckpt.next_panel < grid.nb() {
        let jb = ckpt.next_panel;
        match ctl(jb, &ckpt) {
            PanelControl::Continue => {}
            PanelControl::Cancel => return Ok(FactorOutcome::Canceled { panel: jb }),
            PanelControl::Crash => std::panic::panic_any(PanelCrash { panel: jb }),
        }
        let mut store = InPlace {
            state: &mut ckpt.state,
            grid,
        };
        schedule::walk_left(&mut store, grid.nb(), jb..jb + 1, |op, target, operands| {
            arith.apply(op, target, operands)
        })?;
        ckpt.next_panel = jb + 1;
    }

    Ok(FactorOutcome::Done(ckpt.state))
}

/// The checkpoint's matrix as a tile store, updated in place: a get
/// copies the tile out, a put copies it back.
struct InPlace<'a> {
    state: &'a mut Matrix<f64>,
    grid: TileGrid,
}

impl TileStore for InPlace<'_> {
    type Tile = Matrix<f64>;
    type Error = MatrixError;

    fn get(&mut self, i: usize, j: usize) -> Result<Matrix<f64>, MatrixError> {
        let TileGrid { b, .. } = self.grid;
        Ok(self.state.submatrix(i * b, j * b, self.grid.dim(i), self.grid.dim(j)))
    }

    fn put(&mut self, i: usize, j: usize, tile: Matrix<f64>) -> Result<(), MatrixError> {
        let TileGrid { b, .. } = self.grid;
        self.state.set_submatrix(i * b, j * b, &tile);
        Ok(())
    }
}

/// Factor a whole size bucket of systems (each of order ≤ `bucket_n`),
/// returning one result per system in submission order.
///
/// Each member is factored by [`factor_resumable`] with a hook that
/// never stops it, at its own order: the per-request engine, so every
/// factor is **bit-identical** to the unbatched path under every kernel,
/// at any batch size.  What a batch buys is one dispatch per bucket
/// (and the shard's digest lanes), not a different kernel: packing the
/// systems lane by lane, each padded to `bucket_n`, lost to this loop at
/// every order the service batches (DESIGN.md, "Batched execution").
/// Members fail alone: a non-square member is `NotSquare` and an
/// indefinite one `NotSpd`, and the others factor as usual.
///
/// When the shard has opted into kernel parallelism
/// ([`crate::ShardConfig::parallel`]), the members — mutually
/// independent — are cut into one contiguous run per pool worker and the
/// runs scattered across the work-stealing pool via
/// [`cholcomm_par::scatter`] (a member alone is too little work to pay
/// for a task); results come back in submission order, so the pool size
/// can change wall-clock time but never any bit of any factor.
///
/// # Panics
/// If a square member is larger than `bucket_n`: the bucket is the
/// caller's promise.
pub fn factor_batch(
    problems: &[Matrix<f64>],
    bucket_n: usize,
    b: usize,
    kernel: KernelImpl,
) -> Vec<Result<Matrix<f64>, MatrixError>> {
    let factor_one = |s: usize| -> Result<Matrix<f64>, MatrixError> {
        let a = &problems[s];
        assert!(
            !a.is_square() || a.rows() <= bucket_n,
            "system of order {} exceeds bucket {bucket_n}",
            a.rows()
        );
        let ckpt = Checkpoint::fresh(a.clone());
        match factor_resumable(ckpt, b, kernel, &mut |_, _| PanelControl::Continue)? {
            FactorOutcome::Done(factor) => Ok(factor),
            FactorOutcome::Canceled { panel } => unreachable!("nothing cancels, yet panel {panel} did"),
        }
    };
    let members = problems.len();
    let runs = cholcomm_matrix::parallel::effective_threads().min(members);
    if runs < 2 {
        return (0..members).map(factor_one).collect();
    }
    let run = members.div_ceil(runs);
    let factor_run = |r: usize| -> Vec<_> {
        (r * run..members.min((r + 1) * run)).map(factor_one).collect()
    };
    cholcomm_par::scatter(members.div_ceil(run), &factor_run)
        .into_iter()
        .flatten()
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use cholcomm_cachesim::NullTracer;
    use cholcomm_layout::{ColMajor, Laid};
    use cholcomm_matrix::{lower_digest, spd};
    use cholcomm_seq::lapack::potrf_blocked_with;

    fn reference_factor(a: &Matrix<f64>, b: usize, kernel: KernelImpl) -> Matrix<f64> {
        let mut laid = Laid::from_matrix(a, ColMajor::square(a.rows()));
        potrf_blocked_with(&mut laid, &mut NullTracer, b, None, kernel).unwrap();
        laid.to_matrix()
    }

    const ENGINES: [KernelImpl; 3] = [KernelImpl::Reference, KernelImpl::FastStrict, KernelImpl::Fast];

    fn run_to_done(ckpt: Checkpoint, b: usize, kernel: KernelImpl) -> Matrix<f64> {
        match factor_resumable(ckpt, b, kernel, &mut |_, _| PanelControl::Continue).unwrap() {
            FactorOutcome::Done(m) => m,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bit_identical_to_the_sequential_blocked_schedule() {
        for (n, b, seed) in [(24usize, 8usize, 1u64), (26, 6, 2), (40, 16, 3), (16, 16, 4)] {
            let a = spd::random_spd(n, &mut spd::test_rng(seed));
            for kernel in ENGINES {
                let want = reference_factor(&a, b, kernel);
                let got = run_to_done(Checkpoint::fresh(a.clone()), b, kernel);
                assert_eq!(
                    lower_digest(&got),
                    lower_digest(&want),
                    "n={n} b={b} {kernel:?}"
                );
                // The strict upper triangle retains the input values.
                for j in 0..n {
                    for i in 0..j {
                        assert_eq!(got[(i, j)], a[(i, j)], "n={n} b={b} {kernel:?} ({i},{j})");
                    }
                }
            }
        }
    }

    #[test]
    fn resuming_from_any_checkpoint_reproduces_the_same_bits() {
        for (n, b) in [(32usize, 8usize), (29, 6)] {
            let a = spd::random_spd(n, &mut spd::test_rng(9));
            for kernel in ENGINES {
                let straight = lower_digest(&run_to_done(Checkpoint::fresh(a.clone()), b, kernel));
                for stop_at in 0..panel_count(n, b) {
                    // Cancel at `stop_at`, grabbing the checkpoint.
                    let mut saved: Option<Checkpoint> = None;
                    let out = factor_resumable(
                        Checkpoint::fresh(a.clone()),
                        b,
                        kernel,
                        &mut |jb, ck| {
                            if jb == stop_at {
                                saved = Some(ck.clone());
                                PanelControl::Cancel
                            } else {
                                PanelControl::Continue
                            }
                        },
                    )
                    .unwrap();
                    assert!(matches!(out, FactorOutcome::Canceled { panel } if panel == stop_at));
                    let saved = saved.unwrap();
                    assert_eq!(saved.next_panel, stop_at);

                    let resumed = lower_digest(&run_to_done(saved, b, kernel));
                    assert_eq!(resumed, straight, "n={n} b={b} {kernel:?} resume at {stop_at}");
                }
            }
        }
    }

    #[test]
    fn injected_crash_panics_with_a_typed_payload() {
        let a = spd::random_spd(16, &mut spd::test_rng(5));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            factor_resumable(
                Checkpoint::fresh(a),
                8,
                KernelImpl::Reference,
                &mut |jb, _| {
                    if jb == 1 {
                        PanelControl::Crash
                    } else {
                        PanelControl::Continue
                    }
                },
            )
        }));
        let payload = result.expect_err("should panic");
        let crash = payload.downcast_ref::<PanelCrash>().expect("typed payload");
        assert_eq!(crash.panel, 1);
    }

    /// A non-square member between two good ones gets `NotSquare`, and
    /// only it: the others factor to the per-request engine's bits.
    #[test]
    fn a_malformed_member_fails_alone() {
        let good = [
            spd::random_spd(12, &mut spd::test_rng(1)),
            spd::random_spd(16, &mut spd::test_rng(2)),
        ];
        let members = [good[0].clone(), Matrix::zeros(6, 5), good[1].clone()];
        for kernel in ENGINES {
            let results = factor_batch(&members, 16, 8, kernel);
            assert_eq!(results.len(), 3);
            for (got, a) in [&results[0], &results[2]].into_iter().zip(&good) {
                let want = run_to_done(Checkpoint::fresh(a.clone()), 8, kernel);
                assert_eq!(lower_digest(got.as_ref().unwrap()), lower_digest(&want), "{kernel:?}");
            }
            assert!(
                matches!(results[1], Err(MatrixError::NotSquare { rows: 6, cols: 5 })),
                "{kernel:?}: {:?}",
                results[1]
            );
        }
    }

    #[test]
    #[should_panic(expected = "exceeds bucket")]
    fn a_member_larger_than_its_bucket_panics() {
        let a = spd::random_spd(17, &mut spd::test_rng(3));
        let _ = factor_batch(&[a], 16, 8, KernelImpl::FastStrict);
    }

    #[test]
    fn costs_are_positive_and_sum_consistently() {
        let total = factor_cost_us(64, 16);
        assert!(total > 0);
        let sum: u64 = (0..panel_count(64, 16))
            .map(|jb| panel_cost_us(64, 16, jb))
            .sum();
        assert_eq!(total, sum);
        assert!(factor_cost_us(96, 16) > factor_cost_us(32, 16));
    }
}
