//! Dedicated I/O workers for the out-of-core pipeline.
//!
//! Compute parallelism in this workspace lives on the rayon pool; tile
//! I/O must *not* — an I/O job spends its life blocked on a disk (or a
//! simulated latency sleep), and parking a work-stealing worker under
//! it starves compute.  [`io_scope`] instead spins up a handful of
//! plain scoped threads that drain a shared FIFO of boxed jobs: the
//! classic "I/O thread pool beside the compute pool" split.
//!
//! Jobs are `FnOnce() + Send` closures borrowing from the caller's
//! stack (the scope outlives them, exactly like `std::thread::scope`).
//! A panicking job does not take the process down silently: the first
//! panic payload is captured and re-thrown from [`io_scope`] itself
//! after every worker has drained, so a poisoned pipeline run fails
//! loudly in the caller's frame.
//!
//! Zero workers is a valid scope: no thread is spawned, and every job
//! runs inline inside [`IoScope::submit`], on the caller's thread, with
//! the same panic capture.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};

type IoJob<'env> = Box<dyn FnOnce() + Send + 'env>;
type PanicSlot = Mutex<Option<Box<dyn std::any::Any + Send>>>;

/// Run `job`, keeping the first panic payload for [`io_scope`] to
/// re-throw.
fn run_caught(job: impl FnOnce(), panic_slot: &PanicSlot) {
    if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
        let mut slot = panic_slot.lock().unwrap_or_else(PoisonError::into_inner);
        // First panic wins; later ones are duplicates of the same broken
        // run.
        slot.get_or_insert(payload);
    }
}

/// Handle for submitting jobs to the workers of an [`io_scope`].
pub struct IoScope<'scope, 'env> {
    tx: crossbeam::channel::Sender<IoJob<'env>>,
    workers: usize,
    panic_slot: &'scope PanicSlot,
}

impl<'env> IoScope<'_, 'env> {
    /// Enqueue `job` for execution on some I/O worker.  Jobs are
    /// started in submission order (the queue is a FIFO); with one
    /// worker they also *complete* in submission order, which is what
    /// makes single-worker pipeline runs fully deterministic.  With
    /// zero workers the job runs here, before `submit` returns.
    pub fn submit(&self, job: impl FnOnce() + Send + 'env) {
        if self.workers == 0 {
            return run_caught(job, self.panic_slot);
        }
        // The only way the channel can be closed is the scope tearing
        // down, and submits only happen inside the scope body.
        assert!(
            self.tx.send(Box::new(job)).is_ok(),
            "io_scope channel outlives the scope body"
        );
    }

    /// Number of workers serving this scope.
    pub fn workers(&self) -> usize {
        self.workers
    }
}

/// Run `body` with `workers` dedicated I/O threads at its disposal.
///
/// The workers drain jobs submitted through the provided [`IoScope`]
/// until the scope body returns and the queue empties; `io_scope` then
/// joins them before returning, so every submitted job has fully
/// finished (or panicked) by the time the caller gets its result back.
/// If any job panicked, the first captured payload is re-thrown here.
/// With `workers == 0` no thread is spawned and every job runs inline
/// in [`IoScope::submit`].
pub fn io_scope<'env, R>(workers: usize, body: impl FnOnce(&IoScope<'_, 'env>) -> R) -> R {
    let (tx, rx) = crossbeam::channel::unbounded::<IoJob<'env>>();
    // Declared outside the thread scope so the payload outlives the
    // workers that may write it.
    let panic_slot: PanicSlot = Mutex::new(None);
    let result = std::thread::scope(|s| {
        for _ in 0..workers {
            let rx = rx.clone();
            let panic_slot = &panic_slot;
            s.spawn(move || {
                while let Ok(job) = rx.recv() {
                    run_caught(job, panic_slot);
                }
            });
        }
        let scope = IoScope {
            tx,
            workers,
            panic_slot: &panic_slot,
        };
        let r = body(&scope);
        // Dropping the scope (and with it the last Sender) closes the
        // channel; workers drain what is queued and exit their recv loop.
        drop(scope);
        r
    });
    if let Some(payload) = panic_slot
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take()
    {
        resume_unwind(payload);
    }
    result
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn jobs_run_and_finish_before_scope_returns() {
        let done = AtomicUsize::new(0);
        let out = io_scope(3, |scope| {
            for _ in 0..50 {
                scope.submit(|| {
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
            scope.workers()
        });
        assert_eq!(out, 3);
        assert_eq!(done.load(Ordering::SeqCst), 50, "all jobs joined");
    }

    #[test]
    fn single_worker_completes_in_submission_order() {
        for workers in [0, 1] {
            let log = Mutex::new(Vec::new());
            io_scope(workers, |scope| {
                for i in 0..20 {
                    let log = &log;
                    scope.submit(move || log.lock().unwrap().push(i));
                }
            });
            assert_eq!(*log.lock().unwrap(), (0..20).collect::<Vec<_>>(), "W={workers}");
        }
    }

    #[test]
    fn zero_workers_run_each_job_inline_on_the_callers_thread() {
        let caller = std::thread::current().id();
        let done = AtomicUsize::new(0);
        io_scope(0, |scope| {
            for i in 0..5 {
                scope.submit(|| {
                    assert_eq!(std::thread::current().id(), caller);
                    done.fetch_add(1, Ordering::SeqCst);
                });
                assert_eq!(done.load(Ordering::SeqCst), i + 1, "ran before submit returned");
            }
        });
    }

    #[test]
    fn jobs_can_borrow_the_callers_stack() {
        let mut results = vec![0usize; 8];
        {
            let slots: Vec<_> = results.iter_mut().collect();
            io_scope(2, |scope| {
                for (i, slot) in slots.into_iter().enumerate() {
                    scope.submit(move || *slot = i + 1);
                }
            });
        }
        assert_eq!(results, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn worker_panic_resurfaces_in_the_caller() {
        for workers in [0, 2] {
            let caught = std::panic::catch_unwind(|| {
                io_scope(workers, |scope| {
                    scope.submit(|| panic!("disk on fire"));
                });
            });
            let payload = caught.expect_err("panic must propagate");
            let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
            assert_eq!(msg, "disk on fire", "W={workers}");
        }
    }

    #[test]
    fn panic_does_not_stop_other_jobs() {
        for workers in [0, 1] {
            let done = AtomicUsize::new(0);
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                io_scope(workers, |scope| {
                    scope.submit(|| panic!("first job dies"));
                    for _ in 0..10 {
                        scope.submit(|| {
                            done.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                });
            }));
            assert!(caught.is_err(), "W={workers}: panic still propagates");
            assert_eq!(
                done.load(Ordering::SeqCst),
                10,
                "W={workers}: queued jobs behind the panicking one still ran"
            );
        }
    }
}
