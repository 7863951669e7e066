//! Reference queues outside the non-blocking design space.
//!
//! * [`MutexQueue`] — a bounded `VecDeque` behind a `std` mutex:
//!   the "critical section" design the paper's introduction argues
//!   against. Included so benchmarks can show the blocking/non-blocking
//!   contrast, especially under preemption (one descheduled lock holder
//!   stalls everyone).
//! * [`SeqQueue`] — a completely unsynchronized `VecDeque`, used **only**
//!   by the paper's single-thread overhead experiment ("we also conducted
//!   an experiment with a single thread ... without any synchronization in
//!   order to evaluate the overhead imposed by our implementations").

use nbq_util::{ConcurrentQueue, Full, QueueHandle};
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Bounded FIFO behind a mutex.
pub struct MutexQueue<T> {
    inner: Mutex<VecDeque<T>>,
    capacity: usize,
}

impl<T: Send> MutexQueue<T> {
    /// Creates a queue holding at most `capacity` items (rounded to a
    /// power of two for comparability with the array queues).
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        let cap = capacity.next_power_of_two().max(2);
        Self {
            inner: Mutex::new(VecDeque::with_capacity(cap)),
            capacity: cap,
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Registers the calling thread (no per-thread state).
    pub fn handle(&self) -> MutexHandle<'_, T> {
        MutexHandle { queue: self }
    }

    /// Takes the lock. A panic in an earlier holder leaves the deque
    /// itself consistent (every critical section is one `VecDeque`
    /// call), so poison is recovered rather than propagated.
    fn lock(&self) -> MutexGuard<'_, VecDeque<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Per-thread handle for [`MutexQueue`].
pub struct MutexHandle<'q, T> {
    queue: &'q MutexQueue<T>,
}

impl<T: Send> QueueHandle<T> for MutexHandle<'_, T> {
    fn enqueue(&mut self, value: T) -> Result<(), Full<T>> {
        let mut g = self.queue.lock();
        if g.len() >= self.queue.capacity {
            return Err(Full(value));
        }
        g.push_back(value);
        Ok(())
    }

    fn dequeue(&mut self) -> Option<T> {
        self.queue.lock().pop_front()
    }
}

impl<T: Send> ConcurrentQueue<T> for MutexQueue<T> {
    type Handle<'q>
        = MutexHandle<'q, T>
    where
        Self: 'q;

    fn handle(&self) -> Self::Handle<'_> {
        MutexQueue::handle(self)
    }

    fn capacity(&self) -> Option<usize> {
        Some(self.capacity)
    }

    fn algorithm_name(&self) -> &'static str {
        "Mutex<VecDeque>"
    }
}

/// Unsynchronized FIFO for the single-thread overhead baseline.
///
/// Implements [`ConcurrentQueue`] so the harness can drive it uniformly,
/// but it is **only sound with one thread**: every operation asserts (in
/// all builds — the check is two atomic ops, negligible next to a real
/// data race) that a single thread ever touches it.
pub struct SeqQueue<T> {
    inner: UnsafeCell<VecDeque<T>>,
    capacity: usize,
    /// 0 = unclaimed; otherwise the hashed ID of the one thread allowed in.
    owner: AtomicU64,
}

// SAFETY: soundness is enforced dynamically — the owner check aborts any
// cross-thread use before the UnsafeCell is touched.
unsafe impl<T: Send> Send for SeqQueue<T> {}
unsafe impl<T: Send> Sync for SeqQueue<T> {}

impl<T: Send> SeqQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        let cap = capacity.next_power_of_two().max(2);
        Self {
            inner: UnsafeCell::new(VecDeque::with_capacity(cap)),
            capacity: cap,
            owner: AtomicU64::new(0),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn thread_token() -> u64 {
        // Stable nonzero per-thread token.
        thread_local! {
            static TOKEN: u64 = {
                use std::hash::BuildHasher;
                std::collections::hash_map::RandomState::new()
                    .hash_one(std::thread::current().id())
                    | 1
            };
        }
        TOKEN.with(|t| *t)
    }

    fn check_single_threaded(&self) {
        let me = Self::thread_token();
        match self
            .owner
            .compare_exchange(0, me, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => {}
            Err(owner) => assert_eq!(
                owner, me,
                "SeqQueue accessed from a second thread; it exists only for \
                 the single-thread overhead experiment"
            ),
        }
    }

    /// Registers the calling thread; panics if a different thread already
    /// claimed the queue.
    pub fn handle(&self) -> SeqHandle<'_, T> {
        self.check_single_threaded();
        SeqHandle { queue: self }
    }
}

/// Per-thread handle for [`SeqQueue`].
pub struct SeqHandle<'q, T> {
    queue: &'q SeqQueue<T>,
}

impl<T: Send> QueueHandle<T> for SeqHandle<'_, T> {
    fn enqueue(&mut self, value: T) -> Result<(), Full<T>> {
        self.queue.check_single_threaded();
        // SAFETY: single ownership enforced above.
        let q = unsafe { &mut *self.queue.inner.get() };
        if q.len() >= self.queue.capacity {
            return Err(Full(value));
        }
        q.push_back(value);
        Ok(())
    }

    fn dequeue(&mut self) -> Option<T> {
        self.queue.check_single_threaded();
        // SAFETY: single ownership enforced above.
        unsafe { &mut *self.queue.inner.get() }.pop_front()
    }
}

impl<T: Send> ConcurrentQueue<T> for SeqQueue<T> {
    type Handle<'q>
        = SeqHandle<'q, T>
    where
        Self: 'q;

    fn handle(&self) -> Self::Handle<'_> {
        SeqQueue::handle(self)
    }

    fn capacity(&self) -> Option<usize> {
        Some(self.capacity)
    }

    fn algorithm_name(&self) -> &'static str {
        "Sequential (unsynchronized)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_queue_fifo_and_full() {
        let q = MutexQueue::<u32>::with_capacity(2);
        let mut h = q.handle();
        h.enqueue(1).unwrap();
        h.enqueue(2).unwrap();
        assert_eq!(h.enqueue(3).unwrap_err().into_inner(), 3);
        assert_eq!(h.dequeue(), Some(1));
        assert_eq!(h.dequeue(), Some(2));
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn mutex_queue_mpmc_smoke() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let q = MutexQueue::<u64>::with_capacity(64);
        let sum = AtomicU64::new(0);
        std::thread::scope(|s| {
            for p in 0..4u64 {
                let q = &q;
                s.spawn(move || {
                    let mut h = q.handle();
                    for i in 0..500 {
                        while h.enqueue(p * 500 + i).is_err() {
                            std::thread::yield_now();
                        }
                    }
                });
            }
            for _ in 0..2 {
                let q = &q;
                let sum = &sum;
                s.spawn(move || {
                    let mut h = q.handle();
                    let mut n = 0;
                    while n < 1000 {
                        if let Some(v) = h.dequeue() {
                            sum.fetch_add(v, Ordering::Relaxed);
                            n += 1;
                        } else {
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), (0..2000u64).sum());
    }

    #[test]
    fn seq_queue_fifo() {
        let q = SeqQueue::<u32>::with_capacity(4);
        let mut h = q.handle();
        h.enqueue(1).unwrap();
        h.enqueue(2).unwrap();
        assert_eq!(h.dequeue(), Some(1));
        assert_eq!(h.dequeue(), Some(2));
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn seq_queue_rejects_second_thread() {
        let q = SeqQueue::<u32>::with_capacity(4);
        let mut h = q.handle();
        h.enqueue(1).unwrap();
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _ = q.handle();
                }))
                .is_err()
            })
            .join()
            .unwrap()
        });
        assert!(panicked, "second thread must be rejected");
        assert_eq!(h.dequeue(), Some(1));
    }
}
