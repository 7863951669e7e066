//! The waiter registry: one FIFO list of parked wakers per direction
//! (senders blocked on a full queue, receivers blocked on an empty one),
//! in the shape of tokio's `sync::Notify`.
//!
//! ## Where the lock sits
//!
//! Each list is a `VecDeque` behind a `Mutex`. The lock is taken only on
//! the parking path: by a future that failed its attempt and is about to
//! park, by that future when it resolves its entry, and by a notifier
//! that has already seen a waiter counted. The wrapped queue's
//! `enqueue`/`dequeue` never take it, and neither does a notifier while
//! nobody is parked (see "The no-waiter fast path"), so the paper's
//! non-blocking path stays lock-free. No waker runs and no waker is
//! dropped while the lock is held: a waker's `wake` or `drop` may run
//! arbitrary executor code, including a task's destructors that resolve
//! another entry of the same list.
//!
//! ## Keys and the cancel contract
//!
//! `register` pushes at the back and hands the future a [`WaitKey`].
//! Keys ascend with the push order and entries leave only by removal,
//! so the list stays sorted by key and `cancel` finds an entry by binary
//! search. Exactly one side removes each entry:
//!
//! * the owning future's `cancel` (it resolved, re-polled or dropped):
//!   the entry was still listed, so no notifier chose it — the cancel
//!   *won*;
//! * a notifier's `wake_one`/`wake_all`, which pops it and wakes its
//!   waker. A later `cancel` finds the key gone: the future now holds
//!   that wake token and must act on it (retry the operation) or pass it
//!   on (`wake_one` its own side).
//!
//! An entry never outlives its cancel.
//!
//! ## The no-waiter fast path
//!
//! `waiting` mirrors the list's length; it is written under the lock at
//! every push and removal. A notifier reads it first and returns at once
//! when it is zero, without the lock. This is the notifier's half of the
//! lost-wakeup pairing (see [`dekker_fence`]): a waiter runs `push →
//! store waiting → unlock → fence → re-try`, a notifier `op → fence →
//! read waiting`, so either the notifier sees the entry counted or the
//! waiter's re-try sees the operation. A count read as nonzero is only a
//! hint: the notifier then pops under the lock and may find the list
//! already emptied by a cancel or another notifier.

use nbq_util::CachePadded;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::task::Waker;

/// The `waiting` count's stores and the notifier's lock-free read of it:
/// the count publishes no other data (the list itself is read under the
/// lock) and takes part in the lost-wakeup pairing only through the SC
/// fences on either side (`dekker_fence`), so `Relaxed` suffices. Pinned
/// to `SeqCst` under `--features strict-sc`, like every relaxable site in
/// the workspace.
#[cfg(not(feature = "strict-sc"))]
const WAITING_COUNT: Ordering = Ordering::Relaxed;
#[cfg(feature = "strict-sc")]
const WAITING_COUNT: Ordering = Ordering::SeqCst;

/// The SC fence closing the registry's store-buffering race. Waiter side:
/// `register → fence → re-try op`. Notifier side: `op succeeded → fence →
/// read waiting → pop`. At least one side must observe the other, so
/// either the re-try succeeds or the notifier sees the waiter counted.
#[inline]
pub(crate) fn dekker_fence() {
    std::sync::atomic::fence(Ordering::SeqCst);
}

/// A parked future's claim on its registry entry; see [`WaiterRegistry::cancel`].
pub(crate) struct WaitKey(u64);

#[derive(Default)]
struct List {
    next_key: u64,
    /// Parked wakers in registration order, sorted by key.
    entries: VecDeque<(u64, Waker)>,
}

/// One direction's FIFO list of parked waiters.
pub(crate) struct WaiterRegistry {
    list: Mutex<List>,
    /// `list.entries.len()`, stored under the lock; the notifier's
    /// lock-free "anybody parked?" read (module docs, "The no-waiter fast
    /// path").
    waiting: CachePadded<AtomicUsize>,
}

impl WaiterRegistry {
    pub(crate) fn new() -> Self {
        Self {
            list: Mutex::default(),
            waiting: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    /// Every critical section leaves `List` valid at every step (a push,
    /// a removal or a `take`), so a guard poisoned by a panicking holder
    /// is still sound to use; recovering it also keeps `cancel`, which
    /// runs from futures' `Drop`, from panicking.
    fn lock(&self) -> MutexGuard<'_, List> {
        self.list.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Parks `waker` at the back of the list.
    pub(crate) fn register(&self, waker: Waker) -> WaitKey {
        let mut list = self.lock();
        let key = list.next_key;
        list.next_key += 1;
        list.entries.push_back((key, waker));
        self.waiting.store(list.entries.len(), WAITING_COUNT);
        WaitKey(key)
    }

    /// Takes `key`'s entry off the list. Returns `false` if a notifier
    /// took it first — the caller now holds a wake token it must either
    /// act on (retry the operation) or pass on (`wake_one` its own side)
    /// before discarding.
    pub(crate) fn cancel(&self, key: WaitKey) -> bool {
        let mut list = self.lock();
        let Ok(i) = list.entries.binary_search_by_key(&key.0, |&(k, _)| k) else {
            return false;
        };
        let entry = list.entries.remove(i);
        self.waiting.store(list.entries.len(), WAITING_COUNT);
        drop(list);
        // Dropped outside the lock (module docs).
        drop(entry);
        true
    }

    /// Cancels the entry a future kept from a previous `Pending` poll.
    /// Returns whether the future had been parked (so a failed
    /// re-attempt is a *spurious poll* in the stats' sense). A lost
    /// cancel means a notifier took the entry: the poll now holds a wake
    /// token, which the attempt that follows consumes (on success) or
    /// effectively re-arms (by re-registering).
    pub(crate) fn resolve_prior(&self, slot: &mut Option<WaitKey>) -> bool {
        slot.take().map(|key| self.cancel(key)).is_some()
    }

    /// Wakes the longest-parked waiter. Returns whether a waker fired.
    ///
    /// The caller must have issued [`dekker_fence`] after the operation
    /// this wake announces: the count read first is the notifier's half
    /// of the lost-wakeup pairing.
    pub(crate) fn wake_one(&self) -> bool {
        if self.waiting.load(WAITING_COUNT) == 0 {
            // Any registrant the count does not show yet re-tries after
            // this operation.
            return false;
        }
        let mut list = self.lock();
        let Some((_, waker)) = list.entries.pop_front() else {
            return false;
        };
        self.waiting.store(list.entries.len(), WAITING_COUNT);
        drop(list);
        waker.wake();
        true
    }

    /// Wakes every parked waiter (close path and token broadcast).
    /// Returns how many fired.
    pub(crate) fn wake_all(&self) -> u64 {
        let mut list = self.lock();
        let entries = std::mem::take(&mut list.entries);
        self.waiting.store(0, WAITING_COUNT);
        drop(list);
        let woke = entries.len() as u64;
        for (_, waker) in entries {
            waker.wake();
        }
        woke
    }

    /// Parked waiters (the leak probe behind `AsyncQueue::live_waiters`).
    pub(crate) fn len(&self) -> usize {
        self.lock().entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Counts how often it is woken.
    struct CountingWaker(AtomicUsize);

    impl std::task::Wake for CountingWaker {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn counting() -> (Arc<CountingWaker>, Waker) {
        let fired = Arc::new(CountingWaker(AtomicUsize::new(0)));
        let waker = Waker::from(fired.clone());
        (fired, waker)
    }

    fn fired(w: &CountingWaker) -> usize {
        w.0.load(Ordering::Relaxed)
    }

    #[test]
    fn wake_one_fires_fifo_and_skips_cancelled() {
        let r = WaiterRegistry::new();
        let (fa, wa) = counting();
        let (fb, wb) = counting();
        let (fc, wc) = counting();
        let a = r.register(wa);
        let b = r.register(wb);
        let c = r.register(wc);
        // Cancel the oldest; the wake must pass over it to the next one.
        assert!(r.cancel(a));
        assert!(r.wake_one());
        assert_eq!((fired(&fa), fired(&fb), fired(&fc)), (0, 1, 0));
        assert!(!r.cancel(b), "b was notified, not cancellable");
        assert!(r.wake_one());
        assert_eq!(fired(&fc), 1);
        assert!(!r.cancel(c));
        assert!(!r.wake_one(), "list drained");
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn a_won_cancel_leaves_nothing_behind() {
        let r = WaiterRegistry::new();
        let a = r.register(Waker::noop().clone());
        let b = r.register(Waker::noop().clone());
        // No wake path runs after these cancels: each must take its own
        // entry off, and keep the other one's.
        assert!(r.cancel(b));
        assert_eq!(r.len(), 1, "only a's entry is left");
        assert_eq!(r.waiting.load(Ordering::Relaxed), 1);
        assert!(r.cancel(a));
        assert_eq!(r.len(), 0, "no entry outlives its cancel");
        assert_eq!(r.waiting.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn wake_all_wakes_every_waiting_entry() {
        let r = WaiterRegistry::new();
        let (f, w) = counting();
        let mut keys: Vec<_> = (0..5).map(|_| Some(r.register(w.clone()))).collect();
        assert!(r.cancel(keys[2].take().expect("registered")));
        assert_eq!(r.wake_all(), 4);
        assert_eq!(fired(&f), 4);
        for key in keys.into_iter().flatten() {
            assert!(!r.cancel(key), "every remaining entry was notified");
        }
        assert_eq!(r.waiting.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn registry_drop_releases_unwoken_wakers() {
        let r = WaiterRegistry::new();
        let (f, w) = counting();
        let _key = r.register(w);
        assert_eq!(Arc::strong_count(&f), 2);
        drop(r);
        assert_eq!(Arc::strong_count(&f), 1, "the registry's waker dropped");
        assert_eq!(fired(&f), 0, "without waking");
    }

    #[test]
    fn wakes_with_no_waiter_leave_nothing_behind() {
        let r = WaiterRegistry::new();
        for _ in 0..1000 {
            dekker_fence();
            assert!(!r.wake_one());
        }
        assert_eq!(r.waiting.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn one_wake_with_two_parked_waiters_wakes_exactly_one() {
        let r = WaiterRegistry::new();
        // Wakes with nobody parked first: these must leave nothing behind
        // for the wake below to hand to the second waiter.
        for _ in 0..3 {
            dekker_fence();
            r.wake_one();
        }
        let (f, w) = counting();
        let a = r.register(w.clone());
        let b = r.register(w);
        assert_eq!(r.waiting.load(Ordering::Relaxed), 2);
        dekker_fence();
        assert!(r.wake_one());
        assert_eq!(fired(&f), 1, "exactly one woke");
        assert_eq!(r.waiting.load(Ordering::Relaxed), 1);
        let cancelled = [r.cancel(a), r.cancel(b)];
        assert_eq!(cancelled.iter().filter(|&&c| c).count(), 1);
        assert_eq!(r.waiting.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn concurrent_register_cancel_and_wake_balance() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 500;
        let r = WaiterRegistry::new();
        let cancels_won = AtomicUsize::new(0);
        let woken = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for i in 0..PER_THREAD {
                        let key = r.register(Waker::noop().clone());
                        if i % 3 == 0 && r.cancel(key) {
                            cancels_won.fetch_add(1, Ordering::Relaxed);
                        }
                        if i % 2 == 0 && r.wake_one() {
                            woken.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        woken.fetch_add(r.wake_all() as usize, Ordering::Relaxed);
        // Every entry left exactly once: by its won cancel or by a wake.
        assert_eq!(
            cancels_won.load(Ordering::Relaxed) + woken.load(Ordering::Relaxed),
            THREADS * PER_THREAD
        );
        assert_eq!(r.waiting.load(Ordering::Relaxed), 0, "count balanced");
        assert_eq!(r.len(), 0);
    }
}
