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
//! A worker with no job waiting is idle, and the caller may lend it
//! work ([`IoScope::lend`]): after [`IoScope::help`], the next worker
//! to reach the call in the queue calls the lent work until it returns
//! `false`, running every job that is waiting before each call.  Jobs
//! keep their FIFO order and their priority: a job waits at most for
//! one call of the lent work to return.
//!
//! Zero workers is a valid scope: no thread is spawned, and every job
//! runs inline inside [`IoScope::submit`], on the caller's thread, with
//! the same panic capture.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

type IoJob<'env> = Box<dyn FnOnce() + Send + 'env>;
type PanicSlot = Mutex<Option<Box<dyn std::any::Any + Send>>>;

/// Work lent to the workers: each call does one piece of it and says
/// whether it did anything.
pub type Work<'a> = dyn Fn() -> bool + Sync + 'a;

/// What a worker takes off the queue.
enum Msg<'env> {
    /// A job, run once.
    Job(IoJob<'env>),
    /// A request to call the lent work (see [`IoScope::help`]).
    Help,
}

/// The work lent by [`IoScope::lend`] and the workers inside it.
#[derive(Default)]
struct Lent {
    /// The lent work, its borrow's lifetime erased: `None` outside
    /// [`IoScope::lend`].
    work: Option<&'static Work<'static>>,
    /// Workers inside a call of `work`.
    inside: usize,
    /// Calls of lent work that returned `true`.
    helped: u64,
}

/// [`Lent`] and the condvar a returning [`IoScope::lend`] waits on.
#[derive(Default)]
struct Desk {
    lent: Mutex<Lent>,
    left: Condvar,
}

impl Desk {
    fn lock(&self) -> MutexGuard<'_, Lent> {
        self.lent.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Call the lent work until it returns `false`, running every job
    /// that is waiting before each call.
    fn help(&self, rx: &crossbeam::channel::Receiver<Msg<'_>>, panic_slot: &PanicSlot) {
        loop {
            // Transfers first, in their order.  A `Help` met here is
            // the request being served.
            while let Some(msg) = rx.try_recv() {
                if let Msg::Job(job) = msg {
                    run_caught(job, panic_slot);
                }
            }
            let work = {
                let mut lent = self.lock();
                let Some(work) = lent.work else { return };
                lent.inside += 1;
                work
            };
            let mut more = false;
            run_caught(|| more = work(), panic_slot);
            let mut lent = self.lock();
            lent.inside -= 1;
            lent.helped += u64::from(more);
            if lent.inside == 0 && lent.work.is_none() {
                self.left.notify_all();
            }
            if !more {
                return;
            }
        }
    }
}

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
    tx: crossbeam::channel::Sender<Msg<'env>>,
    workers: usize,
    panic_slot: &'scope PanicSlot,
    desk: &'scope Desk,
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
        self.send(Msg::Job(Box::new(job)));
    }

    fn send(&self, msg: Msg<'env>) {
        // The only way the channel can be closed is the scope tearing
        // down, and submits only happen inside the scope body.
        assert!(
            self.tx.send(msg).is_ok(),
            "io_scope channel outlives the scope body"
        );
    }

    /// Number of workers serving this scope.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run `body` with `work` lent to the workers: between
    /// [`help`](Self::help) requests and the calls they lead to, a
    /// worker may call `work` from its own thread.  Every call has
    /// returned, and no other can start, when `lend` returns or
    /// unwinds.  One work at a time: `lend` does not nest.
    pub fn lend<R>(&self, work: &Work<'_>, body: impl FnOnce() -> R) -> R {
        // SAFETY: the erased borrow is reachable only through
        // `self.desk` while it is lent.  `Return::drop`, which runs
        // however `body` ends, takes it out and then waits until no
        // worker is inside a call, so no call outlives `work`'s borrow.
        // `a_worker_never_calls_lent_work_after_lend_returns` exercises
        // it, also under AddressSanitizer.
        let erased = unsafe { std::mem::transmute::<&Work<'_>, &'static Work<'static>>(work) };
        {
            let mut lent = self.desk.lock();
            assert!(lent.work.is_none(), "lend does not nest");
            lent.work = Some(erased);
        }
        struct Return<'a>(&'a Desk);
        impl Drop for Return<'_> {
            fn drop(&mut self) {
                let mut lent = self.0.lock();
                lent.work = None;
                while lent.inside > 0 {
                    lent = self.0.left.wait(lent).unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
        let _return = Return(self.desk);
        body()
    }

    /// Ask a worker to call the lent work until it returns `false`.  The
    /// request queues behind the jobs submitted before it; a request
    /// that arrives with nothing lent is dropped.  Nothing happens at
    /// zero workers.
    pub fn help(&self) {
        if self.workers > 0 {
            self.send(Msg::Help);
        }
    }

    /// Calls of lent work on the workers so far that returned `true`:
    /// how much of it they did, which depends on timing.
    pub fn helped(&self) -> u64 {
        self.desk.lock().helped
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
    let (tx, rx) = crossbeam::channel::unbounded::<Msg<'env>>();
    // Declared outside the thread scope so the payload outlives the
    // workers that may write it.
    let panic_slot: PanicSlot = Mutex::new(None);
    let desk = Desk::default();
    let result = std::thread::scope(|s| {
        for _ in 0..workers {
            let rx = rx.clone();
            let (panic_slot, desk) = (&panic_slot, &desk);
            s.spawn(move || {
                while let Ok(msg) = rx.recv() {
                    match msg {
                        Msg::Job(job) => run_caught(job, panic_slot),
                        Msg::Help => desk.help(&rx, panic_slot),
                    }
                }
            });
        }
        let scope = IoScope {
            tx,
            workers,
            panic_slot: &panic_slot,
            desk: &desk,
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

    #[test]
    fn lent_work_runs_after_the_jobs_before_it_and_until_it_says_no() {
        for workers in [1usize, 2] {
            let log = Mutex::new(Vec::new());
            let left = AtomicUsize::new(5);
            io_scope(workers, |scope| {
                let work = || {
                    let more = left
                        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                        .is_ok();
                    if more {
                        log.lock().unwrap().push("work");
                    }
                    more
                };
                scope.lend(&work, || {
                    for name in ["a", "b"] {
                        let log = &log;
                        scope.submit(move || log.lock().unwrap().push(name));
                    }
                    scope.help();
                    while left.load(Ordering::SeqCst) > 0 {
                        std::thread::yield_now();
                    }
                });
            });
            let log = log.into_inner().unwrap();
            let jobs: Vec<_> = log.iter().filter(|&&e| e != "work").collect();
            assert_eq!(jobs, [&"a", &"b"], "W={workers}: jobs keep their order");
            let first_work = log.iter().position(|&e| e == "work").unwrap();
            let a = log.iter().position(|&e| e == "a").unwrap();
            assert!(a < first_work, "W={workers}: {log:?}");
            assert_eq!(log.len(), 7, "W={workers}: {log:?}");
        }
    }

    #[test]
    fn a_worker_never_calls_lent_work_after_lend_returns() {
        // Each lend's work reads a buffer on the lender's stack, freed as
        // soon as `lend` returns; AddressSanitizer would see a late call.
        let calls = AtomicUsize::new(0);
        io_scope(2, |scope| {
            for round in 0..200usize {
                let buf = vec![round; 64];
                let work = || {
                    calls.fetch_add(1, Ordering::SeqCst);
                    assert!(buf.iter().all(|&x| x == round));
                    true
                };
                scope.lend(&work, || {
                    scope.help();
                    std::thread::yield_now();
                });
                let after = calls.load(Ordering::SeqCst);
                drop(buf);
                std::thread::yield_now();
                assert_eq!(calls.load(Ordering::SeqCst), after, "round {round}");
            }
            assert!(scope.helped() >= calls.load(Ordering::SeqCst) as u64 - 1);
        });
    }

    #[test]
    fn help_without_workers_or_lent_work_does_nothing() {
        io_scope(0, |scope| {
            let work = || -> bool { panic!("no worker to call it") };
            assert_eq!(scope.lend(&work, || {
                scope.help();
                7
            }), 7);
            assert_eq!(scope.helped(), 0);
        });
        let done = AtomicUsize::new(0);
        io_scope(1, |scope| {
            // A request with nothing lent is dropped; the job behind it runs.
            scope.help();
            scope.submit(|| {
                done.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_panic_in_lent_work_resurfaces_and_lend_still_returns() {
        let returned = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            io_scope(1, |scope| {
                let called = AtomicUsize::new(0);
                let work = || -> bool {
                    called.fetch_add(1, Ordering::SeqCst);
                    panic!("lent work failed")
                };
                scope.lend(&work, || {
                    scope.help();
                    while called.load(Ordering::SeqCst) == 0 {
                        std::thread::yield_now();
                    }
                });
                returned.fetch_add(1, Ordering::SeqCst);
            });
        }));
        let payload = caught.expect_err("the panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>().copied(), Some("lent work failed"));
        assert_eq!(returned.load(Ordering::SeqCst), 1);
    }
}
