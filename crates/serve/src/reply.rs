//! A request's answer: a one-shot slot between the shard that resolves
//! it and the [`Ticket`](crate::Ticket) that waits for it.
//!
//! One `Arc` around a mutex and a condition variable, so a request pays
//! one allocation for its reply where a channel paid two (the channel's
//! `Arc` and its queue buffer).  The answering side wakes the waiter only
//! if the waiter is parked: `Condvar::notify_one` is a `futex_wake`
//! syscall even when nobody sleeps, and most answers land before their
//! ticket is waited on.  A [`Reply`] dropped without an answer closes the
//! slot, so a shard that dies still resolves its tickets.

#[cfg(test)]
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Everything the wake-up decision reads, under one lock: the waiter
/// sets `parked` before it releases the lock by waiting, so the answering
/// side either sees it parked (and wakes it) or the waiter has not yet
/// looked (and will find the slot closed).
struct State<T> {
    value: Option<T>,
    /// No value will ever come after what is in `value` now.
    closed: bool,
    /// The waiter is inside `Condvar::wait`.
    parked: bool,
}

struct Slot<T> {
    state: Mutex<State<T>>,
    filled: Condvar,
    /// Wake-ups issued, for the tests that pin the discipline.
    #[cfg(test)]
    notifies: AtomicUsize,
}

impl<T> Slot<T> {
    /// The state, also from a panicked holder: no critical section
    /// leaves it half-updated, and `Reply::drop` must never panic.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Close the slot with `value` (`None`: unanswered) and wake the
    /// waiter if it sleeps.
    fn close(&self, value: Option<T>) {
        let mut state = self.lock();
        state.value = value;
        state.closed = true;
        let wake = state.parked;
        drop(state);
        // A parked waiter has released the lock inside `wait`; waking it
        // after unlocking loses nothing and spares it a held lock.
        if wake {
            #[cfg(test)]
            self.notifies.fetch_add(1, Ordering::SeqCst);
            self.filled.notify_one();
        }
    }
}

/// The answering half, held by the shard job.
pub(crate) struct Reply<T> {
    /// `None` once answered, so the drop that follows takes no lock.
    slot: Option<Arc<Slot<T>>>,
}

/// The waiting half, held by the ticket.
pub(crate) struct Waiter<T> {
    slot: Arc<Slot<T>>,
}

/// A fresh, empty slot.
pub(crate) fn slot<T>() -> (Reply<T>, Waiter<T>) {
    let slot = Arc::new(Slot {
        state: Mutex::new(State {
            value: None,
            closed: false,
            parked: false,
        }),
        filled: Condvar::new(),
        #[cfg(test)]
        notifies: AtomicUsize::new(0),
    });
    (
        Reply {
            slot: Some(Arc::clone(&slot)),
        },
        Waiter { slot },
    )
}

impl<T> Reply<T> {
    /// Answer, once.  An answer nobody waits for any more is dropped.
    pub(crate) fn send(mut self, value: T) {
        if let Some(slot) = self.slot.take() {
            slot.close(Some(value));
        }
    }
}

impl<T> Drop for Reply<T> {
    fn drop(&mut self) {
        if let Some(slot) = self.slot.take() {
            slot.close(None);
        }
    }
}

impl<T> Waiter<T> {
    /// Block until the slot is answered (`Some`) or its [`Reply`] was
    /// dropped unanswered (`None`).
    pub(crate) fn wait(self) -> Option<T> {
        let mut state = self.slot.lock();
        while !state.closed {
            state.parked = true;
            state = self
                .slot
                .filled
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.parked = false;
        }
        state.value.take()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::thread::JoinHandle;
    use std::time::{Duration, Instant};

    const CYCLES: u32 = 20_000;
    const WALL_CAP: Duration = Duration::from_secs(60);

    /// Run `body` on its own thread and fail if it has not finished
    /// within `cap`: a lost wake-up parks the waiter for ever, and the
    /// watchdog turns that into a failure instead of a hung suite.
    fn under_watchdog(cap: Duration, what: &str, body: impl FnOnce() + Send + 'static) {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            body();
            let _ = done_tx.send(());
        });
        done_rx.recv_timeout(cap).expect(what);
    }

    /// Start `waiter.wait()` on a thread and return the moment that
    /// thread is about to call it, so the caller's next step meets the
    /// wait at the lock (without the handshake it nearly always lands
    /// before the new thread runs).
    fn racing_wait(waiter: Waiter<u32>) -> JoinHandle<Option<u32>> {
        let started = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&started);
        let handle = std::thread::spawn(move || {
            flag.store(true, Ordering::SeqCst);
            waiter.wait()
        });
        // Spin first, so this thread moves the moment the flag is up, then
        // yield, so a busy host still runs the thread that raises it.
        let mut spins = 0u32;
        while !started.load(Ordering::SeqCst) {
            if spins < 4096 {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        handle
    }

    #[test]
    fn answer_then_wait() {
        under_watchdog(WALL_CAP, "a waiter missed an earlier answer", || {
            for i in 0..CYCLES {
                let (reply, waiter) = slot();
                std::thread::spawn(move || reply.send(i)).join().unwrap();
                assert_eq!(waiter.wait(), Some(i));
            }
        });
    }

    /// Each cycle races one `wait` against one answer: the answer must
    /// wake a waiter that parked first and be found by one that had not.
    #[test]
    fn wait_then_answer() {
        under_watchdog(WALL_CAP, "a waiter slept through its answer", || {
            for i in 0..CYCLES {
                let (reply, waiter) = slot();
                let waiting = racing_wait(waiter);
                reply.send(i);
                assert_eq!(waiting.join().unwrap(), Some(i));
            }
        });
    }

    /// A reply dropped unanswered (its shard died) resolves the waiter
    /// with `None`, the ticket's `Stopped`, whether it sleeps yet or not.
    #[test]
    fn an_unanswered_drop_resolves_the_waiter() {
        under_watchdog(WALL_CAP, "a waiter slept through a drop", || {
            for _ in 0..CYCLES {
                let (reply, waiter) = slot();
                let waiting = racing_wait(waiter);
                drop(reply);
                assert_eq!(waiting.join().unwrap(), None);
            }
        });
    }

    /// The discipline itself: an answer, or a drop, for a waiter that is
    /// not parked issues no wake-up (each would be a `futex_wake` syscall
    /// for nobody); a parked waiter costs exactly one, either way.
    #[test]
    fn only_a_parked_waiter_is_woken() {
        let notifies = |slot: &Slot<u32>| slot.notifies.load(Ordering::SeqCst);
        for _ in 0..10_000 {
            let (reply, waiter) = slot::<u32>();
            reply.send(1);
            assert_eq!(notifies(&waiter.slot), 0);
            assert_eq!(waiter.wait(), Some(1));
            let (reply, waiter) = slot::<u32>();
            drop(reply);
            assert_eq!(notifies(&waiter.slot), 0);
            assert_eq!(waiter.wait(), None);
        }

        for answer in [Some(7), None] {
            let (reply, waiter) = slot::<u32>();
            let probe = Arc::clone(&waiter.slot);
            let waiting = racing_wait(waiter);
            let start = Instant::now();
            while !probe.lock().parked {
                assert!(
                    start.elapsed() < Duration::from_secs(10),
                    "the waiter never parked"
                );
                std::thread::yield_now();
            }
            match answer {
                Some(v) => reply.send(v),
                None => drop(reply),
            }
            assert_eq!(waiting.join().unwrap(), answer);
            assert_eq!(notifies(&probe), 1);
        }
    }
}
