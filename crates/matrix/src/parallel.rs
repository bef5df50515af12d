//! Pool-backed parallelism gating for the fast kernels.
//!
//! The packed BLAS-3 kernels in [`crate::kernels_fast`] fan their
//! macro-tile grids onto the vendored-rayon work-stealing pool when —
//! and only when — three conditions hold:
//!
//! 1. the calling thread's pool has more than one worker
//!    ([`effective_threads`] respects `ThreadPool::install`, so the
//!    scaling bench can pin any worker count);
//! 2. the operation is large enough that fork-join overhead is noise
//!    (the callers gate on a flop threshold — see
//!    [`crate::kernels_fast`]);
//! 3. parallelism was not explicitly disabled for this thread via
//!    [`set_kernel_parallelism`] (the serve shards default to
//!    sequential kernels so their per-shard latency model stays
//!    unchanged unless the `parallel` config knob is set).
//!
//! **Determinism contract.**  Parallel execution never changes *what*
//! is computed, only *where*: tasks own disjoint output tiles, every
//! reduction (the `k` dimension) stays sequential inside one task, and
//! per-element operation order is identical to the sequential path.
//! Strict-mode results are therefore bit-identical at every thread
//! count and under every steal order; fused-mode results are
//! bit-deterministic for any fixed partition, and the partition is a
//! pure function of the operand shape and worker count.

use rayon::prelude::IntoParallelRefMutIterator;
use std::cell::Cell;

thread_local! {
    /// Per-thread enable flag for kernel-level parallelism.  Defaults
    /// to enabled; serve shards (and anyone wanting the PR-3 sequential
    /// behaviour) turn it off for their worker thread.
    static KERNEL_PARALLEL: Cell<bool> = const { Cell::new(true) };
}

/// Enable or disable kernel-level parallelism for the *calling thread*.
/// Returns the previous setting so callers can restore it.
pub fn set_kernel_parallelism(enabled: bool) -> bool {
    KERNEL_PARALLEL.with(|f| f.replace(enabled))
}

/// Whether kernel-level parallelism is enabled for the calling thread.
pub fn kernel_parallelism() -> bool {
    KERNEL_PARALLEL.with(Cell::get)
}

/// The worker count a kernel invoked on this thread may fan out to:
/// the current pool's size, or `1` when parallelism is disabled for
/// this thread.
pub fn effective_threads() -> usize {
    if kernel_parallelism() {
        rayon::current_num_threads()
    } else {
        1
    }
}

/// Run `f(0), f(1), ..., f(tasks - 1)`, potentially in parallel, via
/// binary [`rayon::join`] splitting — each index is one coarse task
/// (a macro-tile, a row chunk), so there is no grain logic here.
///
/// All invocations have completed when this returns.  `f` must not
/// assume any ordering between indices.
pub fn par_for(tasks: usize, f: &(impl Fn(usize) + Sync)) {
    match tasks {
        0 => {}
        1 => f(0),
        _ => par_for_range(0, tasks, f),
    }
}

fn par_for_range(lo: usize, hi: usize, f: &(impl Fn(usize) + Sync)) {
    if hi - lo == 1 {
        f(lo);
        return;
    }
    let mid = lo + (hi - lo) / 2;
    rayon::join(|| par_for_range(lo, mid, f), || par_for_range(mid, hi, f));
}

/// Apply `f` to every item on the rayon pool, preserving order.
///
/// A thin bridge over the vendored pool's `par_iter_mut`: results land in
/// their input's slot, so the output reads exactly like `items.iter()
/// .map(f).collect()` — just faster when the pool has threads to spare.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut out: Vec<Option<R>> = items.iter().map(|_| None).collect();
    out.par_iter_mut()
        .enumerate()
        .for_each(|(i, slot)| *slot = Some(f(&items[i])));
    out.into_iter()
        .map(|r| r.expect("par_map fills every slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn par_for_visits_every_index_once() {
        let hits: Vec<AtomicUsize> = (0..37).map(|_| AtomicUsize::new(0)).collect();
        par_for(hits.len(), &|i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
        par_for(0, &|_| panic!("no tasks"));
    }

    #[test]
    fn par_map_preserves_order_and_handles_edges() {
        assert_eq!(par_map(&[] as &[usize], |&i| i), Vec::<usize>::new());
        assert_eq!(par_map(&[0usize], |&i| i * 10), vec![0]);
        let items: Vec<usize> = (0..37).collect();
        let want: Vec<usize> = (0..37).map(|i| i * i).collect();
        assert_eq!(par_map(&items, |&i| i * i), want);
    }

    #[test]
    fn parallelism_flag_is_per_thread_and_restorable() {
        assert!(kernel_parallelism());
        let prev = set_kernel_parallelism(false);
        assert!(prev);
        assert_eq!(effective_threads(), 1);
        // The flag is thread-local: a fresh thread sees the default.
        let other = std::thread::spawn(kernel_parallelism).join().expect("thread");
        assert!(other);
        set_kernel_parallelism(prev);
        assert!(kernel_parallelism());
        assert!(effective_threads() >= 1);
    }
}
