//! Thread-owned `LLSCvar` registry (paper §5, `Register` / `ReRegister` /
//! `Deregister` — a simplification of Herlihy–Luchangco–Moir's collect
//! protocol).
//!
//! Each thread operating on the CAS queue owns one `LLSCvar`: a word-sized
//! placeholder (`node`), a reference counter (`r`), and a link (`next`)
//! into a grow-only lock-free LIFO list rooted at `First`. The *address*
//! of the owned variable, with its least significant bit set, is the
//! thread's reservation tag — the value the simulated `LL` installs in an
//! array slot.
//!
//! Variables are never freed while the queue lives ("allocated variables
//! are kept permanently in a list but other threads may recycle them"), so
//! a reader that found a tag in a slot can always dereference it. The list
//! length tracks the **maximum number of handles registered at any given
//! time** — not the total ever — which is the population-oblivious
//! `O(max concurrent threads)` space the paper claims.
//!
//! The bound is two variables per handle, not one. With `T` handles
//! registered, each owns at most one variable and, inside a simulated `LL`
//! (lines L7–L14), holds a reference to at most one more, so at most `2T`
//! variables are busy (`r > 0`) at any instant. `Register` allocates only
//! after its traversal found every variable busy. The traversal is not a
//! snapshot, so the list can pass `2T` only if holders keep moving ahead
//! of a traversal still in progress (an owner re-registering, a reader
//! taking a newer tag). One variable per handle cannot be kept without
//! blocking:
//! when every handle owns a variable and a reader holds one of them, that
//! variable's owner must move to a fresh one
//! (`reregister_past_a_reader_needs_a_var_beyond_one_per_handle`). The
//! `population_oblivious` tests assert `2T` where readers exist and `T`
//! where none do.
//!
//! Reference-count protocol:
//!
//! * `r == 0` — unowned, recyclable by `Register` (R4's `CAS(&var->r,0,1)`).
//! * `r == 1` — owned, no concurrent readers.
//! * `r > 1` — owned and currently being read through a tag found in a
//!   slot (`LL` lines L7/L14).

use core::ptr;
use core::sync::atomic::{AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use nbq_util::mem;

/// A thread-owned simulated-LL/SC variable (paper `struct LLSCvar`).
///
/// `#[repr(align(128))]` gives each variable lines of its own, like
/// [`CachePadded`](nbq_util::CachePadded): the owner's gate load and
/// `node` store never land on a peer's line. Any alignment above 1 keeps
/// addresses even, so bit 0 stays free to mark tags (the paper's
/// `var^1`). The registry holds about two variables per concurrently
/// registered handle at most (module docs), so the padding keeps its space
/// O(threads).
#[repr(align(128))]
pub struct LlScVar {
    /// Placeholder for the logical content of the slot this variable
    /// currently reserves (paper `node`).
    pub(crate) node: AtomicU64,
    /// Reference counter (paper `r`). See the module docs for the states.
    pub(crate) r: AtomicU32,
    /// Next variable in the registry list (paper `next`); immutable once
    /// the variable is published.
    next: AtomicPtr<LlScVar>,
}

impl LlScVar {
    /// This variable's reservation tag: its address with bit 0 set.
    #[inline]
    pub(crate) fn tag(var: *const LlScVar) -> u64 {
        debug_assert_eq!(var as u64 & 1, 0);
        var as u64 | 1
    }

    /// Recovers the variable address from a tag word (paper `slot ^ 1`).
    #[inline]
    pub(crate) fn from_tag(tag: u64) -> *const LlScVar {
        debug_assert_eq!(tag & 1, 1);
        (tag ^ 1) as *const LlScVar
    }
}

/// The grow-only list of `LLSCvar`s (paper global `First`), owned by a
/// [`CasQueue`](crate::CasQueue).
pub struct Registry {
    first: AtomicPtr<LlScVar>,
    /// Total variables ever allocated (at most twice the max concurrent
    /// registrations; see the module docs).
    total: AtomicUsize,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self {
            first: AtomicPtr::new(ptr::null_mut()),
            total: AtomicUsize::new(0),
        }
    }

    /// Paper `Register` (R1–R16): recycle an unowned variable or append a
    /// fresh one.
    pub fn register(&self) -> *const LlScVar {
        // R2–R8: traverse and try to claim (r: 0 -> 1).
        let mut var = self.first.load(Ordering::Acquire);
        while !var.is_null() {
            // SAFETY: registry nodes are never freed while the registry
            // lives.
            let v = unsafe { &*var };
            if v.r.load(Ordering::Acquire) == 0
                && v.r
                    .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                return var;
            }
            var = v.next.load(Ordering::Acquire);
        }
        // R9–R15: none recyclable; allocate and push (LIFO, simple CAS
        // retry loop — "a FIFO policy would require an extra variable").
        let fresh = Box::into_raw(Box::new(LlScVar {
            node: AtomicU64::new(0),
            r: AtomicU32::new(1),
            next: AtomicPtr::new(ptr::null_mut()),
        }));
        assert_eq!(fresh as u64 & 1, 0, "LLSCvar must be even-aligned");
        loop {
            let head = self.first.load(Ordering::Acquire);
            // SAFETY: fresh is not yet published; exclusive access.
            unsafe { (*fresh).next.store(head, Ordering::Relaxed) };
            if self
                .first
                .compare_exchange(head, fresh, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                self.total.fetch_add(1, Ordering::Relaxed);
                return fresh;
            }
        }
    }

    /// Paper `ReRegister` (RR1–RR5): keep `var` if no reader holds it,
    /// otherwise release it and claim another.
    ///
    /// The common case is a single relaxed-ish load (`r == 1`).
    ///
    /// # Safety
    ///
    /// `var` must have been returned by [`Registry::register`] on this
    /// registry and be currently owned by the caller.
    pub unsafe fn reregister(&self, var: *const LlScVar) -> *const LlScVar {
        // SAFETY: registry variables are never freed while the registry
        // lives.
        let v = unsafe { &*var };
        // REFCOUNT_GATE (SeqCst-pinned): the owner's edge of the Dekker
        // race with a reader's REFCOUNT_ACQUIRE fetch_add. If this load
        // were weaker, it could miss a reader's increment that the
        // reader's subsequent TAG_REVALIDATE "confirms" — both sides
        // passing their checks and the reader copying a stale `node`.
        // SeqCst on all four edges makes that interleaving a cycle in the
        // SC total order (DESIGN.md §7).
        if v.r.load(mem::REFCOUNT_GATE) == 1 {
            return var; // RR2
        }
        v.r.fetch_sub(1, mem::REFCOUNT_RELEASE); // RR3
        self.register() // RR4
    }

    /// Paper `Deregister` (DR1–DR3): drop the owner's reference so the
    /// variable becomes recyclable once readers drain.
    ///
    /// # Safety
    ///
    /// As [`Registry::reregister`]: `var` must come from this registry and
    /// be owned by the caller; it must not be used after deregistration.
    pub unsafe fn deregister(&self, var: *const LlScVar) {
        // SAFETY: as above.
        unsafe { &*var }.r.fetch_sub(1, mem::REFCOUNT_RELEASE);
    }

    /// Total variables ever allocated. Bounded by twice the maximum number
    /// of simultaneously registered handles, or once that number when no
    /// handle reads another's tag (the population-obliviousness claim; see
    /// the module docs and tests).
    pub fn total_vars(&self) -> usize {
        self.total.load(Ordering::Relaxed)
    }

    /// Number of variables currently owned or still referenced (`r > 0`).
    pub fn busy_vars(&self) -> usize {
        let mut n = 0;
        let mut var = self.first.load(Ordering::Acquire);
        while !var.is_null() {
            // SAFETY: as above.
            let v = unsafe { &*var };
            if v.r.load(Ordering::Acquire) > 0 {
                n += 1;
            }
            var = v.next.load(Ordering::Acquire);
        }
        n
    }
}

/// Arity accounting for a lane ring: which of its single ends are
/// claimed, and whether the lane has been *promoted* to its MPMC fallback.
///
/// This is the registration half of the mixed-lane protocol
/// (`nbq_core::sharded`, DESIGN.md §10): a single ring end admits exactly
/// one holder, so each single end is a claimable *seat*. The first
/// enqueuer (resp. dequeuer) to claim a free seat becomes the ring
/// endpoint; a registrant that finds its seat held promotes the lane
/// instead and uses the MPMC lane — *promotion rather than corruption*.
/// A shared end (fan-in producers, fan-out consumers) has no seat: any
/// number of holders is its normal operating mode, so it needs no
/// accounting here.
///
/// The two seats and the sticky `promoted` flag are separate flags. A
/// claim is one CAS on its seat, a release one store, a promotion one
/// store; the hot paths only load them.
///
/// Promotion is one-way: seats can be *released* (an endpoint dropping)
/// and re-claimed by a later thread, but once two registrants have raced
/// for one seat the lane stays promoted for the queue's lifetime. Plain
/// claims load `promoted` first and fail on a promoted lane; only the
/// consumer seat may be re-claimed there (via
/// [`ArityRegistry::try_reclaim_consumer`]) to drain residue. The load
/// and the CAS are two steps, so a claim racing a promotion may still
/// win: the frontends tolerate a ring writer on a promoted lane because
/// no consumer ever caches a ring as dead.
pub struct ArityRegistry {
    producer: AtomicBool,
    consumer: AtomicBool,
    promoted: AtomicBool,
}

#[cfg(test)]
thread_local! {
    /// Seat RMWs this thread made on any registry, so a test can count
    /// what an endpoint costs.
    pub(crate) static SEAT_RMWS: core::cell::Cell<u64> = const { core::cell::Cell::new(0) };
}

impl ArityRegistry {
    /// An empty registry: both seats free, not promoted.
    pub const fn new() -> Self {
        Self {
            producer: AtomicBool::new(false),
            consumer: AtomicBool::new(false),
            promoted: AtomicBool::new(false),
        }
    }

    /// Claims `seat` with one CAS; a set `promoted` flag refuses the
    /// claim first unless `allow_promoted`.
    fn claim(&self, seat: &AtomicBool, allow_promoted: bool) -> bool {
        if !allow_promoted && self.promoted() {
            return false;
        }
        #[cfg(test)]
        SEAT_RMWS.with(|n| n.set(n.get() + 1));
        seat.compare_exchange(false, true, mem::ARITY_CAS, mem::ARITY_CAS_FAIL)
            .is_ok()
    }

    /// Claims the producer seat; `false` if it is held or the lane is
    /// promoted.
    pub fn try_claim_producer(&self) -> bool {
        self.claim(&self.producer, false)
    }

    /// Claims the consumer seat; `false` if it is held or the lane is
    /// promoted.
    pub fn try_claim_consumer(&self) -> bool {
        self.claim(&self.consumer, false)
    }

    /// Claims the consumer seat even on a promoted lane; `false` only if
    /// it is held. The mixed-lane reclaim path needs exactly this to pick
    /// up residue a departed endpoint holder left behind.
    pub fn try_reclaim_consumer(&self) -> bool {
        self.claim(&self.consumer, true)
    }

    /// Releases the producer seat. Callers must hold it.
    pub fn release_producer(&self) {
        self.producer.store(false, mem::SEAT_RELEASE)
    }

    /// Releases the consumer seat. Callers must hold it.
    pub fn release_consumer(&self) {
        self.consumer.store(false, mem::SEAT_RELEASE)
    }

    /// Whether the producer seat is currently held.
    pub fn producer_claimed(&self) -> bool {
        self.producer.load(mem::ARITY_LOAD)
    }

    /// Whether the consumer seat is currently held.
    pub fn consumer_claimed(&self) -> bool {
        self.consumer.load(mem::ARITY_LOAD)
    }

    /// Sets the sticky promotion flag.
    pub fn promote(&self) {
        self.promoted.store(true, mem::PROMOTE_STORE)
    }

    /// Whether the lane has been promoted to its MPMC fallback.
    pub fn promoted(&self) -> bool {
        self.promoted.load(mem::ARITY_LOAD)
    }
}

impl Default for ArityRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Registry {
    fn drop(&mut self) {
        // Exclusive: free the whole list. A thread that died between
        // Register and Deregister leaked its variable *into this list*
        // (paper: "its LLSCvar variable is never reclaimed and results into
        // a memory leak") — the leak is bounded by the list and reclaimed
        // here when the owning queue goes away.
        let mut var = *self.first.get_mut();
        while !var.is_null() {
            // SAFETY: created by Box::into_raw in register(); freed once.
            let b = unsafe { Box::from_raw(var) };
            var = b.next.load(Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_registry_claims_are_exclusive() {
        let a = ArityRegistry::new();
        assert!(!a.producer_claimed() && !a.consumer_claimed() && !a.promoted());
        assert!(a.try_claim_producer());
        assert!(!a.try_claim_producer(), "slot is single-occupancy");
        assert!(a.try_claim_consumer(), "sides are independent");
        assert!(!a.try_claim_consumer());
        a.release_producer();
        assert!(!a.producer_claimed());
        assert!(a.try_claim_producer(), "released slots are reclaimable");
        assert!(a.consumer_claimed());
    }

    #[test]
    fn arity_promotion_is_sticky_and_independent_of_claims() {
        let a = ArityRegistry::default();
        assert!(a.try_claim_producer());
        a.promote();
        assert!(a.promoted());
        assert!(a.producer_claimed(), "promotion does not revoke a claim");
        a.release_producer();
        assert!(a.promoted(), "promotion survives releases");
    }

    #[test]
    fn arity_claims_are_promotion_blocked() {
        let a = ArityRegistry::new();
        a.promote();
        assert!(
            !a.try_claim_producer(),
            "no new ring producer may appear on a promoted lane"
        );
        assert!(
            !a.try_claim_consumer(),
            "plain consumer claim is blocked too"
        );
        assert!(
            a.try_reclaim_consumer(),
            "the reclaim variant permits promotion (residue draining)"
        );
        a.release_consumer();
        assert!(
            a.try_reclaim_consumer(),
            "reclaim is repeatable after release"
        );
        assert!(
            !a.try_reclaim_consumer(),
            "reclaim still respects the endpoint bit"
        );
    }

    #[test]
    fn arity_promote_races_claim_to_one_outcome() {
        // Promote and claim race: whatever interleaving the scheduler
        // picks, the claim's outcome and the seat agree afterwards (a
        // claim that loaded `promoted` before the store may still win).
        for _ in 0..200 {
            let a = ArityRegistry::new();
            let claimed = std::thread::scope(|s| {
                let t = s.spawn(|| a.try_claim_producer());
                a.promote();
                t.join().unwrap()
            });
            assert!(a.promoted());
            if claimed {
                // The claim won the race: the seat is held.
                assert!(a.producer_claimed());
            } else {
                assert!(!a.producer_claimed());
            }
        }
    }

    #[test]
    fn arity_claims_race_to_one_winner() {
        let a = ArityRegistry::new();
        let winners: usize = std::thread::scope(|s| {
            (0..8)
                .map(|_| s.spawn(|| a.try_claim_producer() as usize))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|j| j.join().unwrap())
                .sum()
        });
        assert_eq!(winners, 1, "exactly one thread may claim a slot");
    }

    #[test]
    fn register_claims_and_deregister_releases() {
        let reg = Registry::new();
        let a = reg.register();
        assert_eq!(reg.total_vars(), 1);
        assert_eq!(reg.busy_vars(), 1);
        unsafe { reg.deregister(a) };
        assert_eq!(reg.busy_vars(), 0);
        // Next register recycles the same variable.
        let b = reg.register();
        assert_eq!(b, a);
        assert_eq!(reg.total_vars(), 1);
        unsafe { reg.deregister(b) };
    }

    #[test]
    fn distinct_threads_get_distinct_vars() {
        let reg = Registry::new();
        let a = reg.register();
        let b = reg.register();
        assert_ne!(a, b);
        assert_eq!(reg.total_vars(), 2);
        unsafe { reg.deregister(a) };
        unsafe { reg.deregister(b) };
    }

    #[test]
    fn reregister_keeps_exclusive_var() {
        let reg = Registry::new();
        let a = reg.register();
        assert_eq!(unsafe { reg.reregister(a) }, a, "r == 1 keeps the variable");
        unsafe { reg.deregister(a) };
    }

    #[test]
    fn reregister_swaps_referenced_var() {
        let reg = Registry::new();
        let a = reg.register();
        // Simulate a reader holding a reference (LL line L7).
        unsafe { &*a }.r.fetch_add(1, Ordering::SeqCst);
        let b = unsafe { reg.reregister(a) };
        assert_ne!(b, a, "r > 1 must yield a different variable");
        // The reader still holds a on ref 1; releasing makes it recyclable.
        unsafe { &*a }.r.fetch_sub(1, Ordering::SeqCst);
        let c = reg.register();
        assert_eq!(c, a);
        unsafe { reg.deregister(b) };
        unsafe { reg.deregister(c) };
    }

    #[test]
    fn reregister_past_a_reader_needs_a_var_beyond_one_per_handle() {
        // Two handles, each owning a variable; B's simulated LL holds a
        // reference to A's (line L7). A's gate must leave it, and no
        // variable is free, so A's ReRegister allocates a third: more than
        // one per handle, within the two per handle the module docs bound.
        let reg = Registry::new();
        let (a, b) = (reg.register(), reg.register());
        unsafe { &*a }.r.fetch_add(1, Ordering::SeqCst);
        let a2 = unsafe { reg.reregister(a) };
        assert!(a2 != a && a2 != b);
        assert_eq!(reg.total_vars(), 3);
        assert!(reg.total_vars() <= 2 * 2);
        // Once B lets go, the abandoned variable is recycled.
        unsafe { &*a }.r.fetch_sub(1, Ordering::SeqCst);
        let c = reg.register();
        assert_eq!(c, a);
        assert_eq!(reg.total_vars(), 3);
        for var in [a2, b, c] {
            unsafe { reg.deregister(var) };
        }
    }

    #[test]
    fn tags_round_trip() {
        let reg = Registry::new();
        let a = reg.register();
        let tag = LlScVar::tag(a);
        assert_eq!(tag & 1, 1);
        assert_eq!(LlScVar::from_tag(tag), a);
        unsafe { reg.deregister(a) };
    }

    #[test]
    fn vars_sit_on_lines_of_their_own() {
        let reg = Registry::new();
        let (a, b) = (reg.register(), reg.register());
        for var in [a, b] {
            assert_eq!(var as usize % 128, 0, "LLSCvar not line-aligned");
        }
        assert!((a as usize).abs_diff(b as usize) >= 128);
        unsafe { reg.deregister(a) };
        unsafe { reg.deregister(b) };
    }

    #[test]
    fn population_obliviousness_waves_of_threads() {
        // 10 successive waves of 4 threads each: the registry must top out
        // at 4 variables, not 40 — space depends on max *concurrent*
        // threads only.
        let reg = Registry::new();
        for _wave in 0..10 {
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let reg = &reg;
                    s.spawn(move || {
                        let v = reg.register();
                        std::thread::yield_now();
                        unsafe { reg.deregister(v) };
                    });
                }
            });
        }
        assert!(
            reg.total_vars() <= 4,
            "registry grew beyond max concurrency: {}",
            reg.total_vars()
        );
        assert_eq!(reg.busy_vars(), 0);
    }

    #[test]
    fn concurrent_register_never_double_claims() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let reg = Registry::new();
        let claimed = Mutex::new(HashSet::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let reg = &reg;
                let claimed = &claimed;
                s.spawn(move || {
                    for _ in 0..200 {
                        let v = reg.register() as usize;
                        {
                            let mut c = claimed.lock().unwrap();
                            assert!(c.insert(v), "variable double-claimed");
                        }
                        {
                            let mut c = claimed.lock().unwrap();
                            c.remove(&v);
                        }
                        unsafe { reg.deregister(v as *const LlScVar) };
                    }
                });
            }
        });
        assert!(reg.total_vars() <= 8);
    }

    #[test]
    fn dead_thread_leak_is_bounded_and_reclaimed_on_drop() {
        let reg = Registry::new();
        // "Dead" thread: registers and never deregisters.
        let _leaked = reg.register();
        let live = reg.register();
        unsafe { reg.deregister(live) };
        assert_eq!(reg.busy_vars(), 1, "leaked var stays busy");
        assert_eq!(reg.total_vars(), 2);
        // Drop reclaims both (no ASAN leak under `cargo test`).
    }
}
