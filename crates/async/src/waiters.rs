//! The lock-free waiter registry: two Treiber-style stacks of parked
//! wakers, one per direction (senders blocked on a full queue, receivers
//! blocked on an empty one).
//!
//! ## Why no hazard pointers / version tags
//!
//! The classic hazard of an intrusive lock-free list — traversing nodes
//! another thread may concurrently pop and free — never arises here,
//! because **no path traverses shared memory**:
//!
//! * `push` publishes a node whose `next` was written while the node was
//!   still private (the standard Treiber push).
//! * Every wake path starts with `swap(head, null)`: the swapping thread
//!   becomes the *sole owner* of the whole detached chain and walks it
//!   without interference. Slots it does not consume are relinked
//!   privately and spliced back with a single CAS.
//!
//! Ownership of each slot is an `Arc` refcount: one reference held by the
//! parked future, one by the stack (transferred through
//! [`Arc::into_raw`]/[`from_raw`] across the intrusive link). A slot can
//! therefore never be freed while either side can still reach it, and the
//! ABA problem is moot — a head pointer can only be reused after both
//! references died, at which point no CAS can still carry it.
//!
//! ## Slot state machine
//!
//! `WAITING → NOTIFIED` (a wake path claimed the slot and took its waker)
//! or `WAITING → CANCELLED` (the owning future resolved or was dropped).
//! Both transitions are terminal and race through one CAS, which makes the
//! `UnsafeCell<Option<Waker>>` sound: the waker is written at
//! construction, before publication, and taken exactly once by whichever
//! thread wins the `WAITING → NOTIFIED` CAS.
//!
//! A future whose cancel CAS *fails* learns it was concurrently notified:
//! it has consumed a wake token it will not act on, and must pass the
//! token on (`wake_one` on its own side) so a peer does not sleep through
//! an available item/slot. A cancel that *wins* sweeps the stack: it
//! detaches the chain like a wake path holding no token, prunes every
//! cancelled slot and splices the waiting ones back. Leaving the slot for
//! the next wake path to prune is not enough, because the no-waiter fast
//! path (below) means no wake path walks the stack while nobody waits: a
//! future that registered and then found its re-attempt succeed, or was
//! dropped while parked (a `select` loser), would leave its slot on the
//! stack for as long as no other future parked. A slot can still outlive
//! its cancel when two sweeps race (one holds the chain while the other's
//! slot is cancelled); the next walk prunes it.
//!
//! ## Wake tokens and the hidden-chain race
//!
//! `swap(head, null)` ownership has one sharp edge: while thread A holds
//! the detached chain, the stack looks *empty* to a concurrent
//! `wake_one` B, even though a `WAITING` slot may sit in A's hands. If B
//! simply returned "no waiters", its wake token would be dropped and that
//! hidden waiter could sleep forever beside a ready item. The registry
//! therefore conserves tokens explicitly:
//!
//! * a `wake_one` that finds the stack empty **banks** its token in a
//!   counter instead of dropping it, then re-checks the head (the
//!   banker's half of a Dekker pairing);
//! * a wake path that splices survivors back **adopts** banked tokens
//!   (the splicer's half) and delivers them to the waiters it just
//!   re-exposed.
//!
//! Both halves put an SC fence between their store (bank / splice) and
//! their load (head / bank), so at least one side observes the other:
//! either the banker sees the spliced chain and reclaims its token, or
//! the splicer sees the deposit and delivers it.
//!
//! ## The no-waiter fast path
//!
//! Each registry counts its `WAITING` slots. `register` raises the count
//! before it publishes the slot; whichever path moves a slot out of
//! `WAITING` (a wake's claim or the owner's cancel) lowers it. A wake
//! path reads the count first and returns at once when it is zero: no
//! head swap, no banked token. This is the notifier's half of the
//! lost-wakeup pairing (see [`dekker_fence`]): a waiter runs `count++ →
//! publish → fence → re-try`, a notifier `op → fence → read count`, so
//! either the notifier sees the count or the waiter's re-try sees the
//! operation.
//!
//! The count also keeps the bank honest: a token is banked only while
//! some slot is counted as waiting, i.e. when a waiter may really be
//! hidden in a concurrent traversal. Were every wake that finds nobody
//! parked to bank its token, the bank would grow by one per uncontended
//! operation, and each later splice would adopt one of those stale
//! tokens and wake a second waiter for nothing. A banked token can still
//! go stale if the hidden waiter is claimed or cancelled before the
//! token reaches it; at worst it causes one spurious wake later, which
//! futures tolerate by re-checking the queue.

use nbq_util::CachePadded;
use std::cell::UnsafeCell;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::Waker;

/// Parked: the waker is armed and the slot is (or is about to be) in the
/// stack.
const WAITING: u8 = 0;
/// A wake path won the slot and took the waker. Terminal.
const NOTIFIED: u8 = 1;
/// The owning future resolved or dropped. Terminal.
const CANCELLED: u8 = 2;

// Per-site orderings, following the `nbq_util::mem` idiom: the pointer
// and state transitions only need acquire/release pairing — the
// lost-wakeup (store-buffering) race between "push then re-check" and
// "operate then scan" is closed by explicit `SeqCst` fences at the
// protocol layer (see `dekker_fence` and DESIGN.md §9) — and are pinned
// to `SeqCst` under `--features strict-sc` like every relaxable site in
// the workspace.
macro_rules! relaxable {
    ($($(#[$doc:meta])* $name:ident = $ord:ident;)*) => {
        $(
            $(#[$doc])*
            #[cfg(not(feature = "strict-sc"))]
            pub(crate) const $name: Ordering = Ordering::$ord;
            $(#[$doc])*
            #[cfg(feature = "strict-sc")]
            pub(crate) const $name: Ordering = Ordering::SeqCst;
        )*
    };
}

relaxable! {
    /// `push`'s publication CAS: release makes the slot's waker and
    /// pre-written `next` visible to the wake path that acquires the head.
    HEAD_CAS = Release;
    /// Failure ordering of head CASes; the observed pointer feeds the
    /// retry, never a dereference.
    HEAD_CAS_FAIL = Relaxed;
    /// The wake paths' `swap(head, null)`: acquire pairs with `HEAD_CAS`
    /// so the detached chain's links are visible to the new owner.
    HEAD_SWAP = AcqRel;
    /// First read of the head in the splice retry loop (no dereference).
    HEAD_LOAD = Relaxed;
    /// The `WAITING → NOTIFIED` / `WAITING → CANCELLED` claim: acquire
    /// orders the winner behind the waker write, release publishes the
    /// claim.
    STATE_CAS = AcqRel;
    /// Failure ordering of the claim CAS.
    STATE_CAS_FAIL = Acquire;
    /// Plain state reads while walking an owned chain.
    STATE_LOAD = Acquire;
    /// Token-bank RMWs: the bank participates in the hidden-chain Dekker
    /// pairing purely through the explicit SC fences around it, so the
    /// operations themselves can be relaxed.
    TOKEN_RMW = Relaxed;
    /// The waiting count's RMWs and the notifier's read of it: like the
    /// bank, the count takes part in the lost-wakeup pairing only
    /// through the SC fences on either side (`dekker_fence`).
    WAITING_COUNT = Relaxed;
}

/// The SC fence closing the registry's store-buffering race. Waiter side:
/// `count++ → push slot → fence → re-try op`. Notifier side: `op
/// succeeded → fence → read count → scan stack`. At least one side must
/// observe the other, so either the re-try succeeds or the notifier sees
/// the count and its scan finds the slot.
#[inline]
pub(crate) fn dekker_fence() {
    std::sync::atomic::fence(Ordering::SeqCst);
}

/// One parked waiter.
pub(crate) struct WaiterSlot {
    state: AtomicU8,
    /// Written before publication; taken exactly once by the winner of
    /// the `WAITING → NOTIFIED` CAS (see module docs).
    waker: UnsafeCell<Option<Waker>>,
    /// Intrusive link, only ever written while the slot is privately
    /// owned (pre-publication, or inside a detached chain).
    next: UnsafeCell<*const WaiterSlot>,
    /// The registry's live-slot counter; decremented when the slot drops
    /// (the leak probe the cancellation tests assert on).
    live: Arc<AtomicUsize>,
}

// SAFETY: `waker` is guarded by the state machine (single taker), `next`
// by private ownership of unpublished/detached nodes; `Waker` is
// `Send + Sync`.
unsafe impl Send for WaiterSlot {}
unsafe impl Sync for WaiterSlot {}

impl Drop for WaiterSlot {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One direction's stack of parked waiters plus the shared live counter.
pub(crate) struct WaiterRegistry {
    head: CachePadded<AtomicPtr<WaiterSlot>>,
    /// Wake tokens banked while the chain was hidden in a concurrent
    /// traversal (see module docs, "Wake tokens and the hidden-chain
    /// race").
    tokens: AtomicUsize,
    /// Slots in `WAITING`: raised before a slot is published, lowered
    /// by whichever path moves it out of `WAITING`. A notifier that
    /// reads zero after its fence has nobody to wake (module docs, "The
    /// no-waiter fast path").
    waiting: AtomicUsize,
    live: Arc<AtomicUsize>,
}

impl WaiterRegistry {
    pub(crate) fn new(live: Arc<AtomicUsize>) -> Self {
        Self {
            head: CachePadded::new(AtomicPtr::new(ptr::null_mut())),
            tokens: AtomicUsize::new(0),
            waiting: AtomicUsize::new(0),
            live,
        }
    }

    /// Creates a slot armed with `waker` and publishes it.
    pub(crate) fn register(&self, waker: Waker) -> Arc<WaiterSlot> {
        self.live.fetch_add(1, Ordering::Relaxed);
        // Counted before it is published, so a notifier that can reach
        // the slot can also see the count.
        self.waiting.fetch_add(1, WAITING_COUNT);
        let slot = Arc::new(WaiterSlot {
            state: AtomicU8::new(WAITING),
            waker: UnsafeCell::new(Some(waker)),
            next: UnsafeCell::new(ptr::null()),
            live: self.live.clone(),
        });
        let raw = Arc::into_raw(slot.clone()) as *mut WaiterSlot;
        let mut cur = self.head.load(HEAD_LOAD);
        loop {
            // SAFETY: the stack's reference is not yet published; `next`
            // is privately owned.
            unsafe { *(*raw).next.get() = cur };
            match self
                .head
                .compare_exchange_weak(cur, raw, HEAD_CAS, HEAD_CAS_FAIL)
            {
                Ok(_) => return slot,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Cancels `slot` from the owning future, sweeping it off the stack
    /// on a win (see module docs).
    ///
    /// Returns `false` if a wake path got there first — the caller now
    /// holds a wake token it must either act on (retry the operation) or
    /// pass on (`wake_one` its own side) before discarding.
    pub(crate) fn cancel(&self, slot: &WaiterSlot) -> bool {
        let won = self.claim(slot, CANCELLED);
        if won {
            self.walk(0);
        }
        won
    }

    /// Moves `slot` out of `WAITING` into `to` and uncounts it if this
    /// call won the transition.
    fn claim(&self, slot: &WaiterSlot, to: u8) -> bool {
        let won = slot
            .state
            .compare_exchange(WAITING, to, STATE_CAS, STATE_CAS_FAIL)
            .is_ok();
        if won {
            self.waiting.fetch_sub(1, WAITING_COUNT);
        }
        won
    }

    /// Detaches the whole chain; the caller becomes its sole owner.
    fn take_all(&self) -> *mut WaiterSlot {
        self.head.swap(ptr::null_mut(), HEAD_SWAP)
    }

    /// Withdraws one banked token, if any.
    fn take_token(&self) -> bool {
        self.tokens
            .fetch_update(TOKEN_RMW, TOKEN_RMW, |t| t.checked_sub(1))
            .is_ok()
    }

    /// Delivers one wake token: wakes a parked waiter, or banks the token
    /// if none is visible (it may be hidden in a concurrent traversal —
    /// see module docs). Prunes cancelled slots on the way. Returns
    /// whether a waker fired *in this call*; `false` means either that
    /// no slot was waiting, or that the token was banked, not dropped.
    ///
    /// The caller must have issued [`dekker_fence`] after the operation
    /// this token announces: the waiting count read first is the
    /// notifier's half of the lost-wakeup pairing.
    pub(crate) fn wake_one(&self) -> bool {
        if self.waiting.load(WAITING_COUNT) == 0 {
            // No slot is waiting, visible or hidden, and any registrant
            // the count does not show yet re-tries after this operation.
            return false;
        }
        self.walk(1)
    }

    /// Detaches the chain and walks it, delivering `held` wake tokens
    /// (none for a cancel's sweep) and pruning cancelled slots; splices
    /// the still-waiting ones back. Returns whether a waker fired.
    fn walk(&self, mut held: usize) -> bool {
        let mut woke = false;
        // `held` counts the tokens this call is responsible for: its
        // own, plus any it adopts from the bank after re-exposing hidden
        // waiters.
        loop {
            let mut chain = self.take_all();
            if chain.is_null() {
                if held == 0 {
                    break;
                }
                // No visible waiter. Bank the tokens, then Dekker-check
                // the head: either a concurrent splicer sees our deposit,
                // or we see its splice and reclaim a token to retry.
                self.tokens.fetch_add(held, TOKEN_RMW);
                dekker_fence();
                if self.head.load(HEAD_LOAD).is_null() || !self.take_token() {
                    break;
                }
                held = 1;
                continue;
            }
            // Survivors are relinked in traversal order, so the stack's
            // LIFO order is preserved across the splice.
            let mut keep_head: *mut WaiterSlot = ptr::null_mut();
            let mut keep_tail: *mut WaiterSlot = ptr::null_mut();
            while !chain.is_null() {
                let slot = chain;
                // SAFETY: we own the detached chain.
                chain = unsafe { *(*slot).next.get() } as *mut WaiterSlot;
                // SAFETY: the slot is alive while we hold the stack's Arc.
                let claimed = held > 0 && self.claim(unsafe { &*slot }, NOTIFIED);
                if claimed {
                    held -= 1;
                    // SAFETY: winning the CAS grants exclusive waker
                    // access; the slot is alive because we still hold the
                    // stack's Arc.
                    let waker = unsafe { (*(*slot).waker.get()).take() };
                    // SAFETY: reclaims the reference `register` leaked.
                    drop(unsafe { Arc::from_raw(slot) });
                    if let Some(w) = waker {
                        w.wake();
                    }
                    woke = true;
                } else if unsafe { &(*slot).state }.load(STATE_LOAD) != WAITING {
                    // Cancelled (or lost the claim CAS to a cancel):
                    // prune. SAFETY: as above.
                    drop(unsafe { Arc::from_raw(slot) });
                } else {
                    // Still waiting (only reachable once `held == 0`):
                    // keep for the splice.
                    // SAFETY: we own the chain; relinking is private.
                    unsafe { *(*slot).next.get() = ptr::null() };
                    if keep_head.is_null() {
                        keep_head = slot;
                    } else {
                        unsafe { *(*keep_tail).next.get() = slot };
                    }
                    keep_tail = slot;
                }
            }
            if !keep_head.is_null() {
                self.splice(keep_head, keep_tail);
                // The splicer's Dekker half: adopt a token banked while
                // the survivors were hidden, so it reaches them.
                dekker_fence();
                if self.take_token() {
                    held += 1;
                }
            }
            // `held > 0` here means more tokens than waiters were seen;
            // go around — the next swap will usually bank them.
            if held == 0 {
                break;
            }
        }
        woke
    }

    /// Wakes every parked waiter (close path). Returns how many fired.
    pub(crate) fn wake_all(&self) -> u64 {
        let mut chain = self.take_all();
        let mut woke = 0;
        while !chain.is_null() {
            let slot = chain;
            // SAFETY: we own the detached chain.
            chain = unsafe { *(*slot).next.get() } as *mut WaiterSlot;
            // SAFETY: the slot is alive while we hold the stack's Arc.
            if self.claim(unsafe { &*slot }, NOTIFIED) {
                // SAFETY: see `wake_one`.
                let waker = unsafe { (*(*slot).waker.get()).take() };
                if let Some(w) = waker {
                    w.wake();
                }
                woke += 1;
            }
            // SAFETY: reclaims the reference `register` leaked.
            drop(unsafe { Arc::from_raw(slot) });
        }
        woke
    }

    /// Pushes a privately-owned, already-linked chain back onto the stack.
    fn splice(&self, head: *mut WaiterSlot, tail: *mut WaiterSlot) {
        let mut cur = self.head.load(HEAD_LOAD);
        loop {
            // SAFETY: the chain (including `tail`) is still private.
            unsafe { *(*tail).next.get() = cur };
            match self
                .head
                .compare_exchange_weak(cur, head, HEAD_CAS, HEAD_CAS_FAIL)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }
}

impl Drop for WaiterRegistry {
    fn drop(&mut self) {
        // Reclaim the stack's references without waking anyone.
        let mut chain = self.take_all();
        while !chain.is_null() {
            let slot = chain;
            // SAFETY: sole owner of the detached chain.
            chain = unsafe { *(*slot).next.get() } as *mut WaiterSlot;
            drop(unsafe { Arc::from_raw(slot) });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> (WaiterRegistry, Arc<AtomicUsize>) {
        let live = Arc::new(AtomicUsize::new(0));
        (WaiterRegistry::new(live.clone()), live)
    }

    #[test]
    fn wake_one_fires_lifo_and_prunes() {
        let (r, live) = registry();
        let a = r.register(Waker::noop().clone());
        let b = r.register(Waker::noop().clone());
        assert_eq!(live.load(Ordering::Relaxed), 2);
        // Cancel the most recent; wake must skip it, prune it, and claim
        // the older one.
        assert!(r.cancel(&b));
        assert!(r.wake_one());
        assert!(!r.cancel(&a), "a was notified, not cancellable");
        drop((a, b));
        assert_eq!(live.load(Ordering::Relaxed), 0, "all slots reclaimed");
        assert!(!r.wake_one(), "stack drained");
    }

    #[test]
    fn a_won_cancel_takes_its_slot_off_the_stack() {
        let (r, live) = registry();
        let a = r.register(Waker::noop().clone());
        let b = r.register(Waker::noop().clone());
        // No wake path runs after these cancels (nobody is waiting, so
        // `wake_one` returns before it walks): each cancel must prune
        // its own slot, and keep the other one's.
        assert!(r.cancel(&b));
        drop(b);
        assert_eq!(live.load(Ordering::Relaxed), 1, "only a's slot is left");
        assert!(r.cancel(&a));
        drop(a);
        assert_eq!(
            live.load(Ordering::Relaxed),
            0,
            "no slot outlives its cancel"
        );
        assert!(r.head.load(Ordering::Relaxed).is_null());
    }

    #[test]
    fn wake_all_claims_every_waiting_slot() {
        let (r, live) = registry();
        let slots: Vec<_> = (0..5).map(|_| r.register(Waker::noop().clone())).collect();
        assert!(r.cancel(&slots[2]));
        assert_eq!(r.wake_all(), 4);
        drop(slots);
        assert_eq!(live.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn registry_drop_reclaims_unwoken_slots() {
        let live = Arc::new(AtomicUsize::new(0));
        let r = WaiterRegistry::new(live.clone());
        let a = r.register(Waker::noop().clone());
        drop(r);
        assert_eq!(live.load(Ordering::Relaxed), 1, "future's ref remains");
        drop(a);
        assert_eq!(live.load(Ordering::Relaxed), 0);
    }

    /// Counts how often it is woken.
    struct CountingWaker(AtomicUsize);

    impl std::task::Wake for CountingWaker {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn wakes_with_no_waiter_bank_no_tokens() {
        let (r, _live) = registry();
        for _ in 0..1000 {
            dekker_fence();
            assert!(!r.wake_one());
        }
        assert_eq!(r.tokens.load(Ordering::Relaxed), 0, "no stale credit");
        assert_eq!(r.waiting.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn one_wake_with_two_parked_waiters_wakes_exactly_one() {
        let (r, live) = registry();
        // Wakes with nobody parked first: these must leave nothing behind
        // for the wake below to hand to the second waiter.
        for _ in 0..3 {
            dekker_fence();
            r.wake_one();
        }
        let fired = Arc::new(CountingWaker(AtomicUsize::new(0)));
        let a = r.register(Waker::from(fired.clone()));
        let b = r.register(Waker::from(fired.clone()));
        assert_eq!(r.waiting.load(Ordering::Relaxed), 2);
        dekker_fence();
        assert!(r.wake_one());
        assert_eq!(fired.0.load(Ordering::Relaxed), 1, "exactly one woke");
        assert_eq!(r.waiting.load(Ordering::Relaxed), 1);
        let cancelled = [r.cancel(&a), r.cancel(&b)];
        assert_eq!(cancelled.iter().filter(|&&c| c).count(), 1);
        assert_eq!(r.waiting.load(Ordering::Relaxed), 0);
        drop(r);
        drop((a, b));
        assert_eq!(live.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn concurrent_push_and_wake_never_lose_a_slot() {
        let (r, live) = registry();
        let woken = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            let r = &r;
            for _ in 0..4 {
                let woken = woken.clone();
                s.spawn(move || {
                    let mut kept = Vec::new();
                    for i in 0..500 {
                        let slot = r.register(Waker::noop().clone());
                        if i % 3 == 0 {
                            if !r.cancel(&slot) {
                                woken.fetch_add(1, Ordering::Relaxed);
                            }
                        } else {
                            kept.push(slot);
                        }
                        if i % 2 == 0 && r.wake_one() {
                            woken.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    kept
                });
            }
        });
        woken.fetch_add(r.wake_all() as usize, Ordering::Relaxed);
        assert_eq!(r.waiting.load(Ordering::Relaxed), 0, "count balanced");
        drop(r);
        assert_eq!(live.load(Ordering::Relaxed), 0, "no leaked slots");
    }
}
