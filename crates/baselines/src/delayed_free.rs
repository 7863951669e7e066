//! Delayed-reuse graveyard for the Tsigas–Zhang-style queue.
//!
//! TZ's published algorithm stores raw node pointers in slots and CASes on
//! them directly, so its correctness rests on an address not re-entering
//! the queue while any thread still holds a stale snapshot of it
//! (the paper: it "assumes that the duration of preemption cannot be
//! greater than the time for the indices to rewind themselves").
//! [`DelayedFree`] enforces a software version of that assumption: a freed
//! allocation is parked and only handed back to the allocator after
//! `delay` newer frees, so the allocator cannot recycle the address into a
//! fresh node until every plausibly-stale snapshot is long gone.
//!
//! This is deliberately simple (one mutex) — the TZ queue is a
//! related-work extension, not a benchmark headline, and the paper's whole
//! argument is that this bound is the design's weakness.

use std::collections::VecDeque;
use std::sync::Mutex;

type FreeFn = unsafe fn(*mut u8);

/// FIFO of deferred deallocations.
pub struct DelayedFree {
    pending: Mutex<VecDeque<(*mut u8, FreeFn)>>,
    delay: usize,
}

// SAFETY: the raw pointers are inert until their FreeFn runs, which happens
// under the mutex or at exclusive teardown.
unsafe impl Send for DelayedFree {}
unsafe impl Sync for DelayedFree {}

impl DelayedFree {
    /// Creates a graveyard that holds `delay` allocations before releasing
    /// the oldest.
    pub fn new(delay: usize) -> Self {
        Self {
            pending: Mutex::new(VecDeque::with_capacity(delay + 1)),
            delay,
        }
    }

    /// Parks `ptr`; may release the oldest parked allocation(s).
    ///
    /// # Safety
    ///
    /// `free(ptr)` must be safe to call exactly once, at any later time.
    pub unsafe fn defer(&self, ptr: *mut u8, free: FreeFn) {
        let mut pending = self.pending.lock().unwrap_or_else(|e| e.into_inner());
        pending.push_back((ptr, free));
        while pending.len() > self.delay {
            let (p, f) = pending.pop_front().expect("len checked");
            // SAFETY: deferred exactly once per the defer contract.
            unsafe { f(p) };
        }
    }

    /// Number of allocations currently parked.
    pub fn parked(&self) -> usize {
        self.pending.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

impl Drop for DelayedFree {
    fn drop(&mut self) {
        let pending = self.pending.get_mut().unwrap_or_else(|e| e.into_inner());
        for (p, f) in pending.drain(..) {
            // SAFETY: exclusive teardown; each entry freed exactly once.
            unsafe { f(p) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// One free counter per test, so the tests can run in parallel: test
    /// `N` frees through `count_free::<N>` and reads `FREED[N]`.
    static FREED: [AtomicUsize; 2] = [AtomicUsize::new(0), AtomicUsize::new(0)];

    unsafe fn count_free<const N: usize>(p: *mut u8) {
        FREED[N].fetch_add(1, Ordering::SeqCst);
        // SAFETY: p came from Box::into_raw(Box<u64>) in the tests.
        drop(unsafe { Box::from_raw(p.cast::<u64>()) });
    }

    fn leak_u64(v: u64) -> *mut u8 {
        Box::into_raw(Box::new(v)).cast()
    }

    #[test]
    fn frees_are_delayed_by_the_configured_amount() {
        let freed = &FREED[0];
        let g = DelayedFree::new(4);
        for i in 0..4 {
            unsafe { g.defer(leak_u64(i), count_free::<0>) };
        }
        assert_eq!(freed.load(Ordering::SeqCst), 0, "all parked");
        assert_eq!(g.parked(), 4);
        unsafe { g.defer(leak_u64(99), count_free::<0>) };
        assert_eq!(freed.load(Ordering::SeqCst), 1, "oldest released");
        drop(g);
        assert_eq!(freed.load(Ordering::SeqCst), 5, "drop releases the rest");
    }

    #[test]
    fn zero_delay_frees_immediately() {
        let freed = &FREED[1];
        let g = DelayedFree::new(0);
        unsafe { g.defer(leak_u64(1), count_free::<1>) };
        assert_eq!(freed.load(Ordering::SeqCst), 1);
        assert_eq!(g.parked(), 0);
    }
}
