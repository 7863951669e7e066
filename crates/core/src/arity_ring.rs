//! The fast-path lane ring, written once for the three arity kinds.
//!
//! [`SpscRing`] (no shared end), [`MpscRing`] (shared producers: fan-in)
//! and [`SpmcRing`] (shared consumers: fan-out) are one bounded ring,
//! [`ArityRing`], whose two ends are type parameters — [`Single`] or
//! [`Shared`] — so each kind's push and pop still compile to their own
//! code, the way [`crate::CasQueue`] and [`crate::LlScQueue`] are
//! instances of one [`crate::ring::Ring`].
//!
//! # Cycle-tagged positions and the §3 ABA defences
//!
//! The paper's §3 defends its MPMC queues against index wrap-around ABA
//! with per-slot tags; Nikolaev's SCQ (arXiv 1908.04511) generalizes the
//! same defence to *cycle-tagged* ring entries, where an index is a pair
//! `(cycle, slot) = (pos / slots, pos mod slots)`. This ring keeps that
//! reasoning wholesale by never wrapping its cursors at all: `head` (next
//! position to read) and `tail` (next position to fill) are monotone
//! 64-bit **positions** whose low bits select the slot (`pos & mask`) and
//! whose high bits *are* the cycle tag. Two positions can only alias after
//! 2⁶⁴ operations, so the "slot re-used within one observation window"
//! hazard of §3 cannot arise — the same argument, with the tag fused into
//! the index word instead of stored per slot.
//!
//! The cursors live in [`CachePadded`] cells so the two ends never
//! false-share, and values live inline in the slot array
//! (`MaybeUninit<T>`): nothing on the steady-state path touches the
//! allocator. The array starts on a cache-line boundary, so a slot whose
//! size divides the line never straddles two. Slot storage rounds up to
//! a power of two, but the enforced capacity is exactly what the caller
//! asked for.
//!
//! # The single end
//!
//! Following Torquati's cache-aware SPSC design (arXiv 1012.1824), one
//! claimant owns the end's cursor outright and keeps a *shadow* of the
//! opposite one, reloading it only when the shadow says full (producer)
//! or empty (consumer). The shadow is always a lower bound of a monotone
//! cursor, so staleness costs a spurious reload, `Full` or `None`, never
//! safety, and in steady state an operation touches the foreign cursor's
//! line about once per `capacity` ops. When the other end is shared, the
//! slot's cycle-tagged `seq` word joins the check: shared producers take
//! `tail` at ticket time, before writing, so a single consumer waits for
//! the slot's *publication* instead of trusting `tail`; shared consumers
//! take `head` at ticket time, before reading, so a single producer
//! checks the slot's *acknowledgement* on top of the capacity bound.
//!
//! An op, or a whole batch, ends with one release store of the owned
//! cursor ([`mem::SPSC_PUBLISH`]) — the batched single-publication point.
//! No RMW, no CAS and no retry loop: the single end is wait-free, and in
//! every kind it writes only its own cursor and the slots it moves.
//!
//! # The shared end
//!
//! Any number of registrants take positions with one fetch-and-add on the
//! end's cursor, and a ticket is only ever issued against a *grant*: a
//! registrant first draws `want` units from its end's own `granted`
//! counter (`t = granted.fetch_add(want)`) and keeps the first
//! `clamp(bound - t, 0, want)` of them, where `bound` is `shadow + cap`
//! for shared producers and `shadow` for shared consumers, and `shadow`
//! is the registrant's lower bound of the *opposite* cursor — `head` for
//! fan-in producers, `tail` for fan-out consumers — reloaded only when
//! it cannot grant the whole request. Units not kept are refunded with
//! one more RMW, so `granted` overstates the tickets issued by at most
//! the requests in flight, and a registrant that loses the race reports
//! `Full` or `None` rather than waiting. The single end never touches
//! `granted`: the shared end checks its grants against the single end's
//! cursor, the way the single end checks its own moves against a shadow
//! of the shared end's. When a registrant's own tickets already reach
//! the bound, one fresh load of the opposite cursor decides `Full` or
//! `None` with no RMW at all — exactly, since the end's own cursor has
//! already passed those tickets.
//!
//! After moving its value, the registrant stores the slot's `seq`: `pos +
//! 1` publishes position `pos` to a single consumer, `pos + slots`
//! acknowledges it to a single producer. Each op costs two RMWs on lines
//! only the shared end writes (the grant and the ticket) and one `seq`
//! store; a batch takes its grant with one RMW and claims one ticket run
//! per ≤ 32 values in hand.
//!
//! Reuse safety is a "last grant" argument. Take a ticket run `p..p + n`
//! and the grants that issued every ticket below `p + n`, and let `Z` be
//! the one among them that comes last in `granted`'s modification order.
//! Every other grant in the set drew its units before `Z`'s draw `t_Z`
//! and refunds only units it never tickets, and no grant's net
//! contribution is ever negative, so `t_Z + g_Z >= p + n`; `Z` granted
//! `g_Z` only because `t_Z + g_Z <= bound(shadow_Z)`. So `Z`'s view of
//! the opposite cursor already covered the whole run: position
//! `p + n - 1 - cap` consumed (fan-in; slots are reused `slots >= cap`
//! positions apart) or position `p + n - 1` published (fan-out). That
//! knowledge reaches the run's holder through the ticket chain: the
//! single end's cursor release → `Z`'s acquire load of it → `Z`'s ticket
//! FAA, which is ours or an earlier one (RMWs on one cell form a release
//! sequence) → our ticket FAA → our slot access. The ticket FAA is
//! therefore `AcqRel` ([`mem::RING_TICKET`]); the argument needs only
//! `granted`'s modification order, not its orderings
//! ([`mem::RING_GATE`]).
//!
//! # Emptiness and order
//!
//! SPSC and SPMC emptiness is exact: the single producer publishes its
//! cursor only *after* the value. MPSC emptiness is slot-local: a
//! stalled producer holding ticket `h` makes `pop` return `None` even
//! while later tickets are already published — a bounded-stall
//! relaxation (the analogue of the sharded frontend's relaxed-FIFO
//! contract). Per-producer FIFO is exact on every kind,
//! because one producer's tickets are program-ordered and a single
//! consumer drains in ticket order; the values any one shared consumer
//! sees form an increasing subsequence of the producer's stream.
//!
//! # Arity
//!
//! Pushes and pops go through owned [`Endpoint`]s, each holding the
//! ring's [`ArityRegistry`] claim on a single end, or one registration on
//! a shared end, and releasing it on drop. The standalone
//! [`ConcurrentQueue`] facade claims lazily per handle and **panics** when
//! a second concurrent claimant reaches a single end — misuse caught
//! loudly rather than corrupting the ring. Inside [`crate::ShardedQueue`]
//! the same refusal instead *promotes* the lane to its MPMC fallback; see
//! `sharded`'s module docs and DESIGN.md §10 and §13.

use core::cell::UnsafeCell;
use core::fmt;
use core::mem::MaybeUninit;
use core::ops::{Deref, DerefMut};
use core::ptr::NonNull;
use core::sync::atomic::{AtomicU64, Ordering};
use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};

use crate::registry::ArityRegistry;
use nbq_util::{mem, BatchFull, CachePadded, ConcurrentQueue, Full, QueueHandle, QueueKind};
use sealed::Seq as _;

/// One end of an [`ArityRing`]: [`Single`] or [`Shared`].
pub trait End: sealed::Sealed + Send + Sync + 'static {
    /// Whether any number of registrants may hold the end at once.
    const SHARED: bool;
    /// The per-slot word the end stores after each move: a shared end's
    /// cycle-tagged `seq`, nothing for a single end.
    #[doc(hidden)]
    type Seq: sealed::Seq;
}

/// An end one claimant owns: its cursor plus a shadow of the opposite one.
#[derive(Debug)]
pub enum Single {}

/// An end any number of registrants share: a grant counter checked
/// against a shadow of the opposite cursor, one FAA ticket per run and a
/// per-slot `seq` word.
#[derive(Debug)]
pub enum Shared {}

impl End for Single {
    const SHARED: bool = false;
    type Seq = ();
}

impl End for Shared {
    const SHARED: bool = true;
    type Seq = AtomicU64;
}

mod sealed {
    use core::sync::atomic::{AtomicU64, Ordering};

    pub trait Sealed {}
    impl Sealed for super::Single {}
    impl Sealed for super::Shared {}

    /// A slot's sequence word. A single end keeps none (`()`); the ring
    /// only reaches these accessors for a shared end's word.
    pub trait Seq: Send + Sync {
        fn new(v: u64) -> Self;
        fn load(&self, order: Ordering) -> u64;
        fn store(&self, v: u64, order: Ordering);
    }

    // `#[inline]`: non-generic, so other crates could not inline these
    // otherwise, and every `seq` access on the hot path would be a call.
    impl Seq for AtomicU64 {
        #[inline]
        fn new(v: u64) -> Self {
            AtomicU64::new(v)
        }
        #[inline]
        fn load(&self, order: Ordering) -> u64 {
            AtomicU64::load(self, order)
        }
        #[inline]
        fn store(&self, v: u64, order: Ordering) {
            AtomicU64::store(self, v, order)
        }
    }

    impl Seq for () {
        fn new(_: u64) {}
        fn load(&self, _: Ordering) -> u64 {
            unreachable!("a single end keeps no seq word")
        }
        fn store(&self, _: u64, _: Ordering) {
            unreachable!("a single end keeps no seq word")
        }
    }
}

/// Stack-staging chunk of a shared producer's batch: tickets are claimed
/// one FAA per up-to-this-many items already pulled from the caller's
/// iterator. A ticket, unlike a granted unit, cannot be refunded — an
/// unpublished one stalls the consumer at its position forever — so a run
/// is never claimed for items that might not materialize.
const PUSH_STAGE: usize = 32;

/// A bounded wait-free FIFO ring whose producer end `P` and consumer end
/// `C` are each [`Single`] or [`Shared`] (at most one shared). See the
/// [module docs](self) for the design.
pub struct ArityRing<T, P: End, C: End> {
    /// Consumer cursor: monotone position of the next slot to read.
    head: CachePadded<AtomicU64>,
    /// Producer cursor: monotone position of the next slot to fill.
    tail: CachePadded<AtomicU64>,
    /// The shared end's grant counter: units drawn by its registrants,
    /// net of refunds. Only the shared end touches it; unused by SPSC.
    granted: CachePadded<AtomicU64>,
    /// Inline slot array; length is a power of two ≥ `cap`.
    slots: SlotArray<Slot<T, P, C>>,
    /// Slot-index mask (`slots.len() - 1`).
    mask: u64,
    /// Enforced capacity (may be less than `slots.len()`).
    cap: usize,
    /// Endpoint claims + promotion flag for composing frontends.
    arity: ArityRegistry,
}

/// One ring slot: the value cell plus each shared end's `seq` word.
struct Slot<T, P: End, C: End> {
    /// Shared producers' publication: position `p` is published by
    /// storing `p + 1`. Never equals `q + 1` for a *different* position `q`
    /// mapping to this slot (positions are cycles apart), so a late
    /// consumer can't trust a stale cycle.
    published: P::Seq,
    /// Shared consumers' acknowledgement: position `p`'s reader stores
    /// `p + slots` once done, and the producer writes position `t` only
    /// after loading `t` here. Starts at the slot index, so every
    /// first-cycle position is writable.
    acked: C::Seq,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// A ring's slot array, allocated on a cache-line boundary so that a slot
/// whose size divides the line never straddles two lines: a straddling
/// slot costs each move two line transfers between the ends instead of
/// one. A boxed slice is aligned only to its element (16 bytes in
/// practice), so whether 32-byte slots straddle would depend on where
/// the heap placed the ring.
struct SlotArray<S> {
    ptr: NonNull<S>,
    len: usize,
}

impl<S> SlotArray<S> {
    fn new(len: usize, mut slot: impl FnMut(usize) -> S) -> Self {
        let layout = Self::layout(len);
        // SAFETY: `layout` has a nonzero size.
        let raw = unsafe { alloc(layout) }.cast::<S>();
        let ptr = NonNull::new(raw).unwrap_or_else(|| handle_alloc_error(layout));
        for i in 0..len {
            // SAFETY: `i < len` lies inside the fresh allocation.
            unsafe { ptr.as_ptr().add(i).write(slot(i)) };
        }
        Self { ptr, len }
    }

    /// `len` slots aligned like [`CachePadded`]; never zero-sized, so
    /// every array owns an allocation.
    fn layout(len: usize) -> Layout {
        let line = core::mem::align_of::<CachePadded<()>>();
        let array = Layout::array::<S>(len)
            .and_then(|l| l.align_to(line))
            .expect("slot array size overflows");
        Layout::from_size_align(array.size().max(1), array.align()).expect("valid layout")
    }
}

impl<S> Deref for SlotArray<S> {
    type Target = [S];

    fn deref(&self) -> &[S] {
        // SAFETY: `new` initialized all `len` slots.
        unsafe { core::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl<S> DerefMut for SlotArray<S> {
    fn deref_mut(&mut self) -> &mut [S] {
        // SAFETY: as `deref`, and `&mut self` is exclusive.
        unsafe { core::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl<S> Drop for SlotArray<S> {
    fn drop(&mut self) {
        // SAFETY: the slots are initialized and dropped once, then the
        // allocation is freed with the layout `new` allocated it with.
        unsafe {
            core::ptr::drop_in_place(&mut **self as *mut [S]);
            dealloc(self.ptr.as_ptr().cast(), Self::layout(self.len));
        }
    }
}

/// Wait-free SPSC ring: one producer, one consumer, no RMW at all.
pub type SpscRing<T> = ArityRing<T, Single, Single>;
/// Wait-free-consumer MPSC fan-in ring: FAA-ticketed producers, one
/// consumer.
pub type MpscRing<T> = ArityRing<T, Shared, Single>;
/// Wait-free-producer SPMC fan-out ring: one producer, FAA-ticketed
/// consumers.
pub type SpmcRing<T> = ArityRing<T, Single, Shared>;

// SAFETY: values move across threads whole, so `T: Send` is the only
// requirement: a slot is written by the one holder of its position (the
// single producer, or a grant-backed ticket) before it is published, and
// read by the one holder of its position after.
unsafe impl<T: Send, P: End, C: End> Send for ArityRing<T, P, C> {}
unsafe impl<T: Send, P: End, C: End> Sync for ArityRing<T, P, C> {}

impl<T, P: End, C: End> ArityRing<T, P, C> {
    /// The kind's `algorithm_name()`.
    const NAME: &'static str = if P::SHARED {
        "Wait-free-consumer MPSC ring"
    } else if C::SHARED {
        "Wait-free-producer SPMC ring"
    } else {
        "Wait-free SPSC ring"
    };

    /// The kind's capability envelope.
    const KIND: QueueKind = if P::SHARED {
        QueueKind::mpsc_wait_free()
    } else if C::SHARED {
        QueueKind::spmc_wait_free()
    } else {
        QueueKind::spsc_wait_free()
    };

    /// A ring that accepts `capacity` in-flight values (minimum 1). Slot
    /// storage rounds up to a power of two; the enforced bound stays
    /// exactly `capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        const { assert!(!(P::SHARED && C::SHARED), "at most one end is shared") };
        let cap = capacity.max(1);
        let slots = cap.next_power_of_two();
        Self {
            head: CachePadded::new(AtomicU64::new(0)),
            tail: CachePadded::new(AtomicU64::new(0)),
            granted: CachePadded::new(AtomicU64::new(0)),
            slots: SlotArray::new(slots, |i| Slot {
                published: P::Seq::new(0),
                acked: C::Seq::new(i as u64),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            }),
            mask: (slots - 1) as u64,
            cap,
            arity: ArityRegistry::new(),
        }
    }

    /// The enforced capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Point-in-time occupancy, counting ticketed values still being
    /// written (fan-in) and excluding ticketed ones being read (fan-out).
    ///
    /// Reads `tail`, `head`, `tail` and retries until `tail` held still,
    /// so both cursors are read as of the `head` load and the result lies
    /// in `0..=capacity()` (a ticket is only taken against a grant,
    /// so neither cursor ever runs past the other's bound). Reading each
    /// cursor once against a moving other one instead overcounts by every
    /// push landing between the loads. A retry means a push completed, so
    /// the loop is lock-free.
    pub fn len(&self) -> usize {
        loop {
            let tail = self.tail.load(mem::SPSC_CURSOR_LOAD);
            let head = self.head.load(mem::SPSC_CURSOR_LOAD);
            if self.tail.load(mem::SPSC_CURSOR_LOAD) == tail {
                return tail.saturating_sub(head) as usize;
            }
        }
    }

    /// Whether the ring appears empty (exact when quiescent).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sets the sticky promotion flag (see [`ArityRegistry::promote`]).
    pub(crate) fn promote(&self) {
        self.arity.promote();
    }

    /// Whether the ring's lane has been promoted.
    pub(crate) fn promoted(&self) -> bool {
        self.arity.promoted()
    }

    /// Whether no producer can ever push again: the lane promoted (so
    /// producer claims are blocked) and every producer claim or
    /// registration released. Emptiness observed *after* this holds
    /// forever.
    pub(crate) fn writers_gone(&self) -> bool {
        self.arity.promoted()
            && if P::SHARED {
                self.arity.multi_count() == 0
            } else {
                !self.arity.producer_claimed()
            }
    }

    /// Claims the producer end: the single producer's claim, or one
    /// registration among the shared producers. `None` if the single end
    /// is held or the ring's lane was promoted — a promoted lane takes no
    /// new ring writer (see [`ArityRegistry::try_claim_producer`]).
    pub fn claim_producer(&self) -> Option<Endpoint<'_, T, P, C, true>> {
        let claimed = if P::SHARED {
            self.arity.try_register_multi()
        } else {
            self.arity.try_claim_producer()
        };
        claimed.then(|| self.endpoint())
    }

    /// Claims the consumer end: the single consumer's claim (`None` if it
    /// is held or the ring's lane was promoted), or one registration
    /// among the shared consumers, which never fails and never promotes —
    /// a reader only drains.
    pub fn claim_consumer(&self) -> Option<Endpoint<'_, T, P, C, false>> {
        self.consumer(false)
    }

    /// As [`ArityRing::claim_consumer`], but the single consumer's claim
    /// also succeeds on a promoted lane, to drain residue (see
    /// [`ArityRegistry::try_reclaim_consumer`]).
    pub fn reclaim_consumer(&self) -> Option<Endpoint<'_, T, P, C, false>> {
        self.consumer(true)
    }

    fn consumer(&self, on_promoted: bool) -> Option<Endpoint<'_, T, P, C, false>> {
        let claimed = if C::SHARED {
            self.arity.register_multi_drain();
            true
        } else if on_promoted {
            self.arity.try_reclaim_consumer()
        } else {
            self.arity.try_claim_consumer()
        };
        claimed.then(|| self.endpoint())
    }

    /// A fresh endpoint: its shadow starts at the opposite cursor's
    /// current value, and a shared-end registration has no ticket yet.
    fn endpoint<const PUSH: bool>(&self) -> Endpoint<'_, T, P, C, PUSH> {
        Endpoint {
            ring: self,
            marks: Marks {
                shadow: self.cursors::<PUSH>().1.load(mem::SPSC_CURSOR_LOAD),
                last: 0,
            },
        }
    }

    /// Whether the producer end (`PUSH`) or the consumer end is shared.
    const fn is_shared<const PUSH: bool>() -> bool {
        if PUSH {
            P::SHARED
        } else {
            C::SHARED
        }
    }

    /// The cursor the producer end (`PUSH`) or the consumer end advances,
    /// and the opposite one.
    fn cursors<const PUSH: bool>(&self) -> (&AtomicU64, &AtomicU64) {
        if PUSH {
            (&self.tail, &self.head)
        } else {
            (&self.head, &self.tail)
        }
    }

    fn slot(&self, pos: u64) -> &Slot<T, P, C> {
        &self.slots[(pos & self.mask) as usize]
    }

    /// Moves up to `max` values at the producer end (`PUSH`) or the
    /// consumer end; returns how many moved.
    ///
    /// # Safety
    ///
    /// The caller holds that end — its claim, or one registration — and
    /// `marks` are the holding endpoint's.
    unsafe fn transfer<const PUSH: bool>(
        &self,
        marks: &mut Marks,
        max: usize,
        values: &mut impl Values<T, PUSH>,
    ) -> usize {
        // SAFETY: forwarded from the caller.
        unsafe {
            if Self::is_shared::<PUSH>() {
                self.shared(marks, max, values)
            } else {
                self.single(&mut marks.shadow, max, values)
            }
        }
    }

    /// The single end, either direction: moves values at consecutive
    /// positions from the owned cursor while each slot is ready, then
    /// publishes the cursor with one release store — its only write to
    /// shared state besides the slots.
    ///
    /// # Safety
    ///
    /// The caller holds this end's claim (making it the only writer of
    /// the owned cursor), and `shadow` is that claim's shadow of the
    /// opposite cursor.
    unsafe fn single<const PUSH: bool>(
        &self,
        shadow: &mut u64,
        max: usize,
        values: &mut impl Values<T, PUSH>,
    ) -> usize {
        let (own, opposite) = self.cursors::<PUSH>();
        let start = own.load(mem::SPSC_OWN_CURSOR);
        let cap = self.cap as u64;
        let mut n = 0;
        while n < max {
            let pos = start.wrapping_add(n as u64);
            let slot = self.slot(pos);
            let ready = if PUSH {
                // Exact capacity (`pos - head < cap`, reloading `head`
                // only when its shadow says full), then a shared
                // consumer's ack that the slot's last reader is done.
                (pos.wrapping_sub(*shadow) < cap || {
                    *shadow = opposite.load(mem::SPSC_CURSOR_LOAD);
                    pos.wrapping_sub(*shadow) < cap
                }) && (!C::SHARED || slot.acked.load(mem::SLOT_LOAD) == pos)
            } else if P::SHARED {
                slot.published.load(mem::SLOT_LOAD) == pos.wrapping_add(1)
            } else {
                pos != *shadow || {
                    *shadow = opposite.load(mem::SPSC_CURSOR_LOAD);
                    pos != *shadow
                }
            };
            // SAFETY: a ready position belongs to this end alone. For a
            // push the bound keeps `pos - head < cap <= slots.len()`, so
            // no unconsumed value is overwritten, and a shared reader's
            // ack proves its read complete; for a pop, `pos` is below a
            // published `tail` or carries its own publication, both
            // acquire loads pairing with the writer's release. The claim
            // makes the access unaliased, and publishing the cursor below
            // hands each slot to the other end exactly once.
            if !ready || !unsafe { values.step(slot.value.get()) } {
                break;
            }
            n += 1;
        }
        if n > 0 {
            own.store(start.wrapping_add(n as u64), mem::SPSC_PUBLISH);
        }
        n
    }

    /// The shared end, either direction: draws a grant of up to `want`
    /// units with one RMW, keeping those its shadow of the opposite
    /// cursor covers, then, run by run, claims one FAA ticket per run of
    /// values in hand, moves each value and stores its slot's `seq`;
    /// refunds the units it could not use.
    ///
    /// # Safety
    ///
    /// The caller holds one of this end's registrations, and `marks` are
    /// that registration's.
    unsafe fn shared<const PUSH: bool>(
        &self,
        marks: &mut Marks,
        want: usize,
        values: &mut impl Values<T, PUSH>,
    ) -> usize {
        let want = want.min(self.cap) as u64;
        if want == 0 {
            return 0;
        }
        let (own, opposite) = self.cursors::<PUSH>();
        // Positions below the bound are free (a push: within `cap` of
        // `head`) or published (a pop: below `tail`).
        let bound = |shadow: u64| {
            if PUSH {
                shadow.wrapping_add(self.cap as u64)
            } else {
                shadow
            }
        };
        // Our own tickets reach the bound: if a fresh load agrees, the
        // ring is exactly full (empty) and no RMW is needed to say so.
        if bound(marks.shadow) <= marks.last && {
            marks.shadow = opposite.load(mem::SPSC_CURSOR_LOAD);
            bound(marks.shadow) <= marks.last
        } {
            return 0;
        }
        let t = self.granted.fetch_add(want, mem::RING_GATE);
        let mut granted = bound(marks.shadow).saturating_sub(t).min(want);
        if granted < want {
            marks.shadow = opposite.load(mem::SPSC_CURSOR_LOAD);
            granted = bound(marks.shadow).saturating_sub(t).min(want);
            if granted < want {
                self.granted.fetch_sub(want - granted, mem::RING_GATE);
            }
        }
        let mut moved = 0;
        while moved < granted {
            let asked = (granted - moved) as usize;
            let run = values.stage(asked);
            if run == 0 {
                break;
            }
            let start = own.fetch_add(run as u64, mem::RING_TICKET);
            for i in 0..run {
                let pos = start.wrapping_add(i as u64);
                let slot = self.slot(pos);
                // SAFETY: the grants behind this ticket prove position
                // `pos - slots` consumed (a push) or `pos` published (a
                // pop) — see the module docs — and tickets are unique, so
                // the slot is ours alone until the `seq` store below.
                unsafe { values.put(i, slot.value.get()) };
                if PUSH {
                    slot.published.store(pos.wrapping_add(1), mem::SPSC_PUBLISH);
                } else {
                    let reuse = pos.wrapping_add(self.slots.len() as u64);
                    slot.acked.store(reuse, mem::SPSC_PUBLISH);
                }
            }
            marks.last = start.wrapping_add(run as u64);
            moved += run as u64;
            // A run short of a full stage: the push's source ran dry.
            if run < asked.min(PUSH_STAGE) {
                break;
            }
        }
        if moved < granted {
            // The iterator's `len()` over-reported: refund the units that
            // never became tickets.
            self.granted.fetch_sub(granted - moved, mem::RING_GATE);
        }
        moved as usize
    }
}

impl<T, P: End, C: End> Drop for ArityRing<T, P, C> {
    fn drop(&mut self) {
        // Exclusive access: every ticket's move has completed, so exactly
        // the positions in `head..tail` hold values. The publication check
        // is belt-and-braces: a fan-in ticket is stamped before its push
        // returns, and an unstamped slot is never treated as a value.
        let (head, tail) = (*self.head.get_mut(), *self.tail.get_mut());
        for pos in head..tail {
            let slot = &mut self.slots[(pos & self.mask) as usize];
            if P::SHARED && slot.published.load(Ordering::Relaxed) != pos.wrapping_add(1) {
                continue;
            }
            // SAFETY: published and never consumed; dropped once.
            unsafe { slot.value.get_mut().assume_init_drop() };
        }
    }
}

impl<T, P: End, C: End> fmt::Debug for ArityRing<T, P, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ArityRing")
            .field("kind", &Self::KIND)
            .field("capacity", &self.cap)
            .field("len", &self.len())
            .finish()
    }
}

/// What one call moves at the producer end (`PUSH`: the values pushed) or
/// the consumer end (where the popped values go).
trait Values<T, const PUSH: bool> {
    /// Moves one value through `cell`; `false`, moving nothing, once a
    /// push has no value left.
    ///
    /// # Safety
    ///
    /// `cell` is a slot position the caller's end holds: free for a push,
    /// filled for a pop.
    unsafe fn step(&mut self, cell: *mut MaybeUninit<T>) -> bool;

    /// Values in hand for the next ticket run, at most `n`.
    fn stage(&mut self, n: usize) -> usize {
        n
    }

    /// Moves value `i` of the staged run through `cell`.
    ///
    /// # Safety
    ///
    /// As [`Values::step`]; each index of the run moves exactly once.
    unsafe fn put(&mut self, _i: usize, cell: *mut MaybeUninit<T>) {
        // SAFETY: forwarded from the caller.
        unsafe { self.step(cell) };
    }
}

/// A scalar push's value.
impl<T> Values<T, true> for Option<T> {
    unsafe fn step(&mut self, cell: *mut MaybeUninit<T>) -> bool {
        let Some(value) = self.take() else {
            return false;
        };
        // SAFETY: the caller's end holds the free slot.
        unsafe { (*cell).write(value) };
        true
    }

    fn stage(&mut self, n: usize) -> usize {
        n.min(self.is_some() as usize)
    }
}

/// A scalar pop's destination.
impl<T> Values<T, false> for Option<T> {
    unsafe fn step(&mut self, cell: *mut MaybeUninit<T>) -> bool {
        // SAFETY: the caller's end holds the filled slot.
        *self = Some(unsafe { (*cell).assume_init_read() });
        true
    }
}

/// A batch pop's destination.
impl<T> Values<T, false> for Vec<T> {
    unsafe fn step(&mut self, cell: *mut MaybeUninit<T>) -> bool {
        // SAFETY: the caller's end holds the filled slot.
        self.push(unsafe { (*cell).assume_init_read() });
        true
    }
}

/// A batch push's values: pulled one at a time by a single end, staged up
/// to `PUSH_STAGE` at a time for a shared end's ticket runs. A staged
/// value is always put before the next `stage`; only a panicking iterator
/// can leave one behind, and then it leaks rather than drops twice.
struct Staged<'a, I: Iterator> {
    items: &'a mut I,
    stage: [MaybeUninit<I::Item>; PUSH_STAGE],
}

impl<T, I: Iterator<Item = T>> Values<T, true> for Staged<'_, I> {
    unsafe fn step(&mut self, cell: *mut MaybeUninit<T>) -> bool {
        let Some(value) = self.items.next() else {
            return false;
        };
        // SAFETY: the caller's end holds the free slot.
        unsafe { (*cell).write(value) };
        true
    }

    fn stage(&mut self, n: usize) -> usize {
        let mut k = 0;
        while k < n.min(PUSH_STAGE) {
            let Some(value) = self.items.next() else {
                break;
            };
            self.stage[k].write(value);
            k += 1;
        }
        k
    }

    unsafe fn put(&mut self, i: usize, cell: *mut MaybeUninit<T>) {
        // SAFETY: `stage` filled index `i` of this run, which moves out
        // once; the caller's end holds the free slot.
        unsafe { (*cell).write(self.stage[i].assume_init_read()) };
    }
}

/// An owned endpoint on the producer end (`PUSH`) or the consumer end of
/// an [`ArityRing`]: holds the end's claim (a single end) or one
/// registration (a shared end) for its lifetime and releases it on drop.
/// Holding one is what makes pushing or popping safe, so endpoints are
/// the only way to do either.
pub struct Endpoint<'q, T, P: End, C: End, const PUSH: bool> {
    ring: &'q ArityRing<T, P, C>,
    marks: Marks,
}

/// An endpoint's private view of the ring.
struct Marks {
    /// Lower bound of the opposite cursor.
    shadow: u64,
    /// A shared-end registration's position one past its last ticket (0:
    /// none yet); unused by a single end.
    last: u64,
}

/// The producer endpoint of an [`SpscRing`].
pub type SpscProducer<'q, T> = Endpoint<'q, T, Single, Single, true>;
/// The consumer endpoint of an [`SpscRing`].
pub type SpscConsumer<'q, T> = Endpoint<'q, T, Single, Single, false>;
/// A producer registration on an [`MpscRing`]'s shared end.
pub type MpscProducer<'q, T> = Endpoint<'q, T, Shared, Single, true>;
/// The single consumer endpoint of an [`MpscRing`].
pub type MpscConsumer<'q, T> = Endpoint<'q, T, Shared, Single, false>;
/// The single producer endpoint of an [`SpmcRing`].
pub type SpmcProducer<'q, T> = Endpoint<'q, T, Single, Shared, true>;
/// A consumer registration on an [`SpmcRing`]'s shared end.
pub type SpmcConsumer<'q, T> = Endpoint<'q, T, Single, Shared, false>;

impl<T, P: End, C: End> Endpoint<'_, T, P, C, true> {
    /// Pushes `value`, or returns it in `Full` when no slot is free.
    pub fn push(&mut self, value: T) -> Result<(), Full<T>> {
        let mut value = Some(value);
        // SAFETY: this endpoint holds the producer end.
        unsafe { self.ring.transfer::<true>(&mut self.marks, 1, &mut value) };
        value.map_or(Ok(()), |v| Err(Full(v)))
    }

    /// Pushes up to `items.len()` values; returns how many were taken
    /// from the iterator, which advances only that far. A single end
    /// publishes `tail` once; an `ExactSizeIterator` whose `len()`
    /// over-reports yields a short batch, never a stalled ring.
    pub fn push_batch<I: ExactSizeIterator<Item = T>>(&mut self, items: &mut I) -> usize {
        let max = items.len();
        let mut staged = Staged {
            items,
            stage: [const { MaybeUninit::uninit() }; PUSH_STAGE],
        };
        // SAFETY: this endpoint holds the producer end.
        unsafe { self.ring.transfer(&mut self.marks, max, &mut staged) }
    }

    /// Whether everything this producer pushed has been consumed: `head`
    /// has passed its last ticket (a shared producer) or reached `tail`
    /// (the single producer, which sees the ring's emptiness exactly).
    /// Monotone `head` makes this exact, never speculative — the switch
    /// point of the sharded lane promotion protocol.
    pub fn drained(&self) -> bool {
        let end = if P::SHARED {
            self.marks.last
        } else {
            self.ring.tail.load(mem::SPSC_OWN_CURSOR)
        };
        self.ring.head.load(mem::SPSC_CURSOR_LOAD) >= end
    }
}

impl<T, P: End, C: End> Endpoint<'_, T, P, C, false> {
    /// Pops the oldest available value, or `None`.
    pub fn pop(&mut self) -> Option<T> {
        let mut out = None;
        // SAFETY: this endpoint holds the consumer end.
        unsafe { self.ring.transfer::<false>(&mut self.marks, 1, &mut out) };
        out
    }

    /// Pops up to `max` values into `out`; returns how many moved. A
    /// single end publishes `head` once.
    pub fn pop_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        // SAFETY: this endpoint holds the consumer end.
        unsafe { self.ring.transfer(&mut self.marks, max, out) }
    }
}

impl<T, P: End, C: End, const PUSH: bool> Drop for Endpoint<'_, T, P, C, PUSH> {
    fn drop(&mut self) {
        let arity = &self.ring.arity;
        if ArityRing::<T, P, C>::is_shared::<PUSH>() {
            arity.release_multi();
        } else if PUSH {
            arity.release_producer();
        } else {
            arity.release_consumer();
        }
    }
}

/// Standalone per-thread handle to an [`ArityRing`].
///
/// Ends are claimed lazily: the first `enqueue` claims the producer end,
/// the first `dequeue` the consumer end, so a handle used on one side
/// occupies that side only (the 1-producer-thread / 1-consumer-thread
/// pipe pattern). A claim refused on a single end — a second concurrent
/// claimant — panics: loud misuse detection. Use [`crate::ShardedQueue`]
/// with a fast-path [`crate::LanePolicy`] when a dynamic fallback to MPMC
/// is wanted instead. Dropping the handle drops its endpoints, releasing
/// them, so strictly sequential handle turnover works.
pub struct ArityRingHandle<'q, T, P: End, C: End> {
    ring: &'q ArityRing<T, P, C>,
    prod: Option<Endpoint<'q, T, P, C, true>>,
    cons: Option<Endpoint<'q, T, P, C, false>>,
}

/// Per-thread handle for an [`SpscRing`].
pub type SpscRingHandle<'q, T> = ArityRingHandle<'q, T, Single, Single>;
/// Per-thread handle for an [`MpscRing`].
pub type MpscRingHandle<'q, T> = ArityRingHandle<'q, T, Shared, Single>;
/// Per-thread handle for an [`SpmcRing`].
pub type SpmcRingHandle<'q, T> = ArityRingHandle<'q, T, Single, Shared>;

impl<'q, T, P: End, C: End> ArityRingHandle<'q, T, P, C> {
    fn producer(&mut self) -> &mut Endpoint<'q, T, P, C, true> {
        let ring = self.ring;
        self.prod
            .get_or_insert_with(|| ring.claim_producer().unwrap_or_else(|| refused("producer")))
    }

    fn consumer(&mut self) -> &mut Endpoint<'q, T, P, C, false> {
        let ring = self.ring;
        self.cons
            .get_or_insert_with(|| ring.claim_consumer().unwrap_or_else(|| refused("consumer")))
    }
}

#[cold]
fn refused(end: &str) -> ! {
    panic!(
        "second concurrent {end} on a lane ring's single {end} end (or a promoted lane): \
         use ShardedQueue with a fast-path LanePolicy to promote to MPMC instead"
    )
}

impl<T: Send, P: End, C: End> QueueHandle<T> for ArityRingHandle<'_, T, P, C> {
    fn enqueue(&mut self, value: T) -> Result<(), Full<T>> {
        self.producer().push(value)
    }

    fn dequeue(&mut self) -> Option<T> {
        self.consumer().pop()
    }

    fn enqueue_batch(
        &mut self,
        items: impl ExactSizeIterator<Item = T>,
    ) -> Result<usize, BatchFull<T>> {
        let mut items = items;
        let pushed = self.producer().push_batch(&mut items);
        if items.len() == 0 {
            Ok(pushed)
        } else {
            Err(BatchFull {
                enqueued: pushed,
                remaining: items.collect(),
            })
        }
    }

    fn dequeue_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        self.consumer().pop_batch(out, max)
    }
}

impl<T: Send, P: End, C: End> ConcurrentQueue<T> for ArityRing<T, P, C> {
    type Handle<'q>
        = ArityRingHandle<'q, T, P, C>
    where
        Self: 'q;

    fn handle(&self) -> Self::Handle<'_> {
        ArityRingHandle {
            ring: self,
            prod: None,
            cons: None,
        }
    }

    fn capacity(&self) -> Option<usize> {
        Some(self.cap)
    }

    fn len(&self) -> Option<usize> {
        Some(ArityRing::len(self))
    }

    fn algorithm_name(&self) -> &'static str {
        Self::NAME
    }

    fn kind(&self) -> QueueKind {
        Self::KIND
    }
}

#[cfg(test)]
mod tests {
    //! One body per behaviour, run over the three kinds (the `spsc`,
    //! `mpsc` and `spmc` modules below). A body scales its thread counts
    //! by which end is shared: one thread on a single end, several on a
    //! shared one.
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    macro_rules! for_each_kind {
        ($($body:ident),* $(,)?) => {
            mod spsc {
                $(#[test] fn $body() { super::$body::<super::Single, super::Single>(); })*
            }
            mod mpsc {
                $(#[test] fn $body() { super::$body::<super::Shared, super::Single>(); })*
            }
            mod spmc {
                $(#[test] fn $body() { super::$body::<super::Single, super::Shared>(); })*
            }
        };
    }

    for_each_kind!(
        trait_facade_round_trips_and_reports_kind,
        single_thread_round_trip,
        capacity_is_exact_not_rounded,
        cursors_cross_many_cycles_without_aliasing,
        batch_ops_move_runs,
        batch_ops_span_multiple_stage_chunks,
        handle_batches_report_leftovers,
        lying_exact_size_iterator_cannot_stall_the_ring,
        oversized_requests_cannot_open_the_gate,
        producer_drained_tracks_own_residue_only,
        pipe_keeps_per_producer_order,
        two_thread_pipe_batched,
        dropping_a_handle_releases_its_endpoints,
        split_roles_occupy_one_side_each,
        drop_releases_in_flight_values,
        oversubscribed_shared_end_conserves_values,
        len_stays_within_capacity_under_traffic,
        one_registrant_sees_exact_full_and_empty,
        stalling_single_end_conserves_values,
        slots_start_on_a_cache_line,
        zero_sized_values_round_trip,
    );

    #[test]
    #[should_panic(expected = "second concurrent producer")]
    fn second_spsc_producer_panics() {
        second_claimant_on_a_single_end_panics::<Single, Single, true>();
    }

    #[test]
    #[should_panic(expected = "second concurrent consumer")]
    fn second_spsc_consumer_panics() {
        second_claimant_on_a_single_end_panics::<Single, Single, false>();
    }

    #[test]
    #[should_panic(expected = "second concurrent consumer")]
    fn second_mpsc_consumer_panics() {
        second_claimant_on_a_single_end_panics::<Shared, Single, false>();
    }

    #[test]
    #[should_panic(expected = "second concurrent producer")]
    fn second_spmc_producer_panics() {
        second_claimant_on_a_single_end_panics::<Single, Shared, true>();
    }

    /// Threads to run on an end: several on a shared one, else one.
    fn threads<E: End>(shared: usize) -> usize {
        if E::SHARED {
            shared
        } else {
            1
        }
    }

    /// Whether the producer end (`PUSH`) or the consumer end is held:
    /// its claim (a single end) or any registration (a shared end).
    fn occupied<T, P: End, C: End, const PUSH: bool>(ring: &ArityRing<T, P, C>) -> bool {
        if ArityRing::<T, P, C>::is_shared::<PUSH>() {
            ring.arity.multi_count() > 0
        } else if PUSH {
            ring.arity.producer_claimed()
        } else {
            ring.arity.consumer_claimed()
        }
    }

    fn trait_facade_round_trips_and_reports_kind<P: End, C: End>() {
        let ring = ArityRing::<u64, P, C>::with_capacity(8);
        assert_eq!(ConcurrentQueue::capacity(&ring), Some(8));
        let (kind, name) = match (P::SHARED, C::SHARED) {
            (true, _) => (QueueKind::mpsc_wait_free(), "Wait-free-consumer MPSC ring"),
            (_, true) => (QueueKind::spmc_wait_free(), "Wait-free-producer SPMC ring"),
            _ => (QueueKind::spsc_wait_free(), "Wait-free SPSC ring"),
        };
        assert_eq!(ConcurrentQueue::kind(&ring), kind);
        assert_eq!(ring.algorithm_name(), name);
        assert!(ring.kind().admits(1, 1));
        assert_eq!(ring.kind().admits(4, 1), P::SHARED);
        assert_eq!(ring.kind().admits(2, 1), P::SHARED);
        assert_eq!(ring.kind().admits(1, 4), C::SHARED);
        assert_eq!(ring.kind().admits(1, 2), C::SHARED);
        let mut h = ring.handle();
        h.enqueue(7).unwrap();
        assert_eq!(h.dequeue(), Some(7));
        assert!(occupied::<_, P, C, true>(&ring));
        assert!(occupied::<_, P, C, false>(&ring));
        if P::SHARED || C::SHARED {
            assert_eq!(ring.arity.multi_count(), 1);
        }
        drop(h);
        assert!(!occupied::<_, P, C, true>(&ring));
        assert!(!occupied::<_, P, C, false>(&ring));
    }

    fn single_thread_round_trip<P: End, C: End>() {
        let ring = ArityRing::<u64, P, C>::with_capacity(4);
        assert_eq!(ring.capacity(), 4);
        assert!(ring.is_empty());
        let mut prod = ring.claim_producer().unwrap();
        let mut cons = ring.claim_consumer().unwrap();
        for v in 0..4 {
            prod.push(v).unwrap();
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ConcurrentQueue::len(&ring), Some(4));
        assert_eq!(
            prod.push(99).unwrap_err().into_inner(),
            99,
            "full at capacity"
        );
        for v in 0..4 {
            assert_eq!(cons.pop(), Some(v));
        }
        assert_eq!(cons.pop(), None);
        assert!(ring.is_empty());
        assert!(prod.drained());
    }

    fn capacity_is_exact_not_rounded<P: End, C: End>() {
        // 3 and 5 round their slot storage up to 4 and 8, but the bound
        // stays exact.
        for cap in [3u64, 5] {
            let ring = ArityRing::<u64, P, C>::with_capacity(cap as usize);
            assert_eq!(ring.capacity(), cap as usize);
            let mut prod = ring.claim_producer().unwrap();
            let mut cons = ring.claim_consumer().unwrap();
            for v in 0..cap {
                prod.push(v).unwrap();
            }
            assert!(prod.push(cap).is_err());
            assert_eq!(cons.pop(), Some(0));
            prod.push(cap).expect("freed capacity is reusable");
        }
    }

    fn slots_start_on_a_cache_line<P: End, C: End>() {
        // 32-byte slots (as on the benchmark's lane) must never straddle
        // two lines, wherever the heap puts the ring.
        let line = core::mem::align_of::<CachePadded<()>>();
        for cap in [1, 3, 8, 64] {
            let ring = ArityRing::<[u64; 3], P, C>::with_capacity(cap);
            assert_eq!(ring.slots.as_ptr() as usize % line, 0, "capacity {cap}");
        }
    }

    fn zero_sized_values_round_trip<P: End, C: End>() {
        // A single-ended ring of `()` has zero-sized slots; its array
        // still allocates and frees a real block.
        let ring = ArityRing::<(), P, C>::with_capacity(3);
        let mut prod = ring.claim_producer().unwrap();
        let mut cons = ring.claim_consumer().unwrap();
        for _ in 0..3 {
            prod.push(()).unwrap();
        }
        assert!(prod.push(()).is_err());
        assert_eq!(cons.pop(), Some(()));
        assert_eq!(ring.len(), 2);
    }

    fn cursors_cross_many_cycles_without_aliasing<P: End, C: End>() {
        // A tiny ring driven far past its slot count: the monotone
        // positions' cycle tags keep every push/pop paired correctly.
        let ring = ArityRing::<u64, P, C>::with_capacity(2);
        let mut prod = ring.claim_producer().unwrap();
        let mut cons = ring.claim_consumer().unwrap();
        for v in 0..1_000 {
            prod.push(v).unwrap();
            assert_eq!(cons.pop(), Some(v));
        }
        assert!(ring.is_empty());
        let cycle = ring.tail.load(Ordering::Relaxed) >> ring.mask.count_ones();
        assert!(cycle > 0, "positions accumulated cycles");
    }

    fn batch_ops_move_runs<P: End, C: End>() {
        let ring = ArityRing::<u64, P, C>::with_capacity(8);
        let mut prod = ring.claim_producer().unwrap();
        let mut cons = ring.claim_consumer().unwrap();
        let mut items = (0..12).collect::<Vec<_>>().into_iter();
        // Only capacity-many fit; the iterator must not lose the rest.
        assert_eq!(prod.push_batch(&mut items), 8);
        assert_eq!(items.len(), 4);
        let mut out = Vec::new();
        assert_eq!(cons.pop_batch(&mut out, 16), 8);
        assert_eq!(out, (0..8).collect::<Vec<_>>());
        assert_eq!(prod.push_batch(&mut items), 4);
        out.clear();
        assert_eq!(cons.pop_batch(&mut out, 2), 2);
        assert_eq!(out, vec![8, 9]);
    }

    fn batch_ops_span_multiple_stage_chunks<P: End, C: End>() {
        let ring = ArityRing::<u64, P, C>::with_capacity(128);
        let mut prod = ring.claim_producer().unwrap();
        let mut cons = ring.claim_consumer().unwrap();
        let mut items = (0..100).collect::<Vec<_>>().into_iter();
        assert_eq!(prod.push_batch(&mut items), 100);
        let mut out = Vec::new();
        assert_eq!(cons.pop_batch(&mut out, 128), 100);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    fn handle_batches_report_leftovers<P: End, C: End>() {
        let ring = ArityRing::<u64, P, C>::with_capacity(4);
        let mut h = ring.handle();
        let err = h
            .enqueue_batch((0..6).collect::<Vec<_>>().into_iter())
            .unwrap_err();
        assert_eq!(err.enqueued, 4);
        assert_eq!(err.remaining, vec![4, 5]);
        let mut out = Vec::new();
        assert_eq!(h.dequeue_batch(&mut out, 8), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(h.dequeue_batch(&mut out, 8), 0);
    }

    /// An `ExactSizeIterator` whose `len()` over-reports by `lie`.
    struct OverReporting {
        inner: std::vec::IntoIter<u64>,
        lie: usize,
    }

    impl Iterator for OverReporting {
        type Item = u64;
        fn next(&mut self) -> Option<u64> {
            self.inner.next()
        }
        fn size_hint(&self) -> (usize, Option<usize>) {
            let n = self.inner.len() + self.lie;
            (n, Some(n))
        }
    }

    impl ExactSizeIterator for OverReporting {}

    fn lying_exact_size_iterator_cannot_stall_the_ring<P: End, C: End>() {
        // A safe-code ExactSizeIterator may over-report len(). The batch
        // push must push only the items in hand: a shared end must not
        // claim tickets it cannot publish (an unpublished ticket stalls
        // the consumer at that position forever) and must refund the
        // over-drawn grant units; a single end must publish what it wrote.
        let ring = ArityRing::<u64, P, C>::with_capacity(8);
        let mut prod = ring.claim_producer().unwrap();
        let mut cons = ring.claim_consumer().unwrap();
        let mut items = OverReporting {
            inner: vec![0, 1, 2].into_iter(),
            lie: 3,
        };
        assert_eq!(prod.push_batch(&mut items), 3);
        let mut out = Vec::new();
        assert_eq!(cons.pop_batch(&mut out, 8), 3);
        assert_eq!(out, vec![0, 1, 2]);
        // Liveness and capacity intact: a full honest batch still fits,
        // proving the shortfall's units were refunded.
        let mut items = (10..18).collect::<Vec<_>>().into_iter();
        assert_eq!(prod.push_batch(&mut items), 8);
        out.clear();
        assert_eq!(cons.pop_batch(&mut out, 16), 8);
        assert_eq!(out, (10..18).collect::<Vec<_>>());
        assert!(ring.is_empty());
    }

    fn oversized_requests_cannot_open_the_gate<P: End, C: End>() {
        // A `usize::MAX` request must not overflow a shared end's grant
        // arithmetic into a grant past its bound: a pop would read a slot
        // nothing wrote, a push would overfill the ring.
        let ring = ArityRing::<usize, P, C>::with_capacity(2);
        let mut prod = ring.claim_producer().unwrap();
        let mut cons = ring.claim_consumer().unwrap();
        let mut out = Vec::new();
        assert_eq!(cons.pop_batch(&mut out, usize::MAX), 0);
        assert_eq!(cons.pop(), None, "no slot is handed out unwritten");
        let mut items = 0..usize::MAX;
        assert_eq!(prod.push_batch(&mut items), 2);
        assert_eq!(
            items.next(),
            Some(2),
            "the iterator advanced only as far as it pushed"
        );
        assert!(prod.push(9).is_err(), "a full ring stays full");
        assert_eq!(cons.pop_batch(&mut out, usize::MAX), 2);
        assert_eq!(out, vec![0, 1]);
        let accepted = (0..4).filter(|&v| prod.push(v).is_ok()).count();
        assert_eq!(accepted, 2, "capacity 2 admits 2 of 4 pushes");
    }

    fn producer_drained_tracks_own_residue_only<P: End, C: End>() {
        let ring = ArityRing::<u64, P, C>::with_capacity(8);
        let mut a = ring.claim_producer().unwrap();
        assert!(a.drained(), "no pushes yet");
        a.push(1).unwrap();
        // A second producer only where the producer end is shared.
        let mut b = ring.claim_producer();
        assert_eq!(b.is_some(), P::SHARED);
        if let Some(b) = &mut b {
            b.push(2).unwrap();
        }
        assert!(!a.drained());
        let mut cons = ring.claim_consumer().unwrap();
        assert_eq!(cons.pop(), Some(1));
        assert!(a.drained(), "a's only value was consumed");
        if let Some(b) = &b {
            assert!(!b.drained(), "b's value is still in flight");
        }
    }

    fn pipe_keeps_per_producer_order<P: End, C: End>() {
        // Producers tag values with their id; every consumer must see each
        // producer's values in order — exactly in order (strict FIFO) when
        // it is the only consumer, ascending when consumers share.
        const VALUES: u64 = 60_000;
        let (producers, consumers) = (threads::<P>(3), threads::<C>(3));
        let per = VALUES / producers as u64;
        let ring = ArityRing::<u64, P, C>::with_capacity(64);
        let barrier = Barrier::new(producers + consumers);
        let claimed = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..producers as u64 {
                let (ring, barrier) = (&ring, &barrier);
                s.spawn(move || {
                    let mut h = ring.handle();
                    barrier.wait();
                    for seq in 0..per {
                        let mut v = (t << 40) | seq;
                        while let Err(Full(back)) = h.enqueue(v) {
                            v = back;
                            std::hint::spin_loop();
                        }
                    }
                });
            }
            for _ in 0..consumers {
                let (ring, barrier, claimed) = (&ring, &barrier, &claimed);
                s.spawn(move || {
                    let mut h = ring.handle();
                    let mut next = vec![0u64; producers];
                    barrier.wait();
                    while claimed.load(Ordering::Relaxed) < per * producers as u64 {
                        let Some(v) = h.dequeue() else {
                            std::hint::spin_loop();
                            continue;
                        };
                        let (t, seq) = ((v >> 40) as usize, v & ((1 << 40) - 1));
                        if consumers == 1 {
                            assert_eq!(seq, next[t], "producer {t} stream out of order");
                        } else {
                            assert!(seq >= next[t], "one consumer's stream must ascend");
                        }
                        next[t] = seq + 1;
                        claimed.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(claimed.load(Ordering::Relaxed), per * producers as u64);
        assert!(ring.is_empty());
    }

    fn len_stays_within_capacity_under_traffic<P: End, C: End>() {
        // A producer keeps a tiny ring full while a consumer drains it, so
        // both cursors move between any two loads an observer makes.
        const N: u64 = 200_000;
        let ring = ArityRing::<u64, P, C>::with_capacity(2);
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut h = ring.handle();
                for v in 0..N {
                    let mut v = v;
                    while let Err(Full(back)) = h.enqueue(v) {
                        v = back;
                        std::hint::spin_loop();
                    }
                }
            });
            s.spawn(|| {
                let mut h = ring.handle();
                let mut got = 0;
                while got < N {
                    got += u64::from(h.dequeue().is_some());
                }
                done.store(true, Ordering::Relaxed);
            });
            let mut reads = 0u64;
            while !done.load(Ordering::Relaxed) {
                let len = ring.len();
                assert!(len <= ring.capacity(), "len {len} after {reads} reads");
                reads += 1;
            }
        });
        assert_eq!(ring.len(), 0);
    }

    fn two_thread_pipe_batched<P: End, C: End>() {
        const N: u64 = 50_000;
        const B: usize = 16;
        let ring = ArityRing::<u64, P, C>::with_capacity(64);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut h = ring.handle();
                let mut next = 0u64;
                while next < N {
                    let hi = (next + B as u64).min(N);
                    let mut batch: Vec<u64> = (next..hi).collect();
                    next = hi;
                    while let Err(e) = h.enqueue_batch(batch.into_iter()) {
                        batch = e.remaining;
                        std::hint::spin_loop();
                    }
                }
            });
            s.spawn(|| {
                let mut h = ring.handle();
                let mut out = Vec::new();
                let mut expected = 0u64;
                while expected < N {
                    out.clear();
                    let got = h.dequeue_batch(&mut out, B);
                    for v in &out {
                        assert_eq!(*v, expected);
                        expected += 1;
                    }
                    if got == 0 {
                        std::hint::spin_loop();
                    }
                }
            });
        });
    }

    fn second_claimant_on_a_single_end_panics<P: End, C: End, const PUSH: bool>() {
        let ring = ArityRing::<u64, P, C>::with_capacity(4);
        let mut a = ring.handle();
        let mut b = ring.handle();
        if PUSH {
            a.enqueue(1).unwrap();
            let _ = b.enqueue(2);
        } else {
            let _ = a.dequeue();
            let _ = b.dequeue();
        }
    }

    fn dropping_a_handle_releases_its_endpoints<P: End, C: End>() {
        let ring = ArityRing::<u64, P, C>::with_capacity(4);
        {
            let mut a = ring.handle();
            a.enqueue(1).unwrap();
            assert_eq!(a.dequeue(), Some(1));
        }
        // Sequential turnover: the fresh handle re-claims both sides.
        let mut b = ring.handle();
        b.enqueue(2).unwrap();
        assert_eq!(b.dequeue(), Some(2));
    }

    fn split_roles_occupy_one_side_each<P: End, C: End>() {
        let ring = ArityRing::<u64, P, C>::with_capacity(4);
        let mut producer = ring.handle();
        let mut consumer = ring.handle();
        producer.enqueue(7).unwrap();
        assert!(occupied::<_, P, C, true>(&ring));
        assert!(!occupied::<_, P, C, false>(&ring));
        assert_eq!(consumer.dequeue(), Some(7));
        assert!(occupied::<_, P, C, false>(&ring));
    }

    fn drop_releases_in_flight_values<P: End, C: End>() {
        struct Counted<'a>(&'a AtomicUsize);
        impl Drop for Counted<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = AtomicUsize::new(0);
        {
            let ring = ArityRing::<Counted, P, C>::with_capacity(8);
            let mut prod = ring.claim_producer().unwrap();
            let mut cons = ring.claim_consumer().unwrap();
            for _ in 0..5 {
                assert!(prod.push(Counted(&drops)).is_ok());
            }
            drop(cons.pop()); // one dropped by consumption
        }
        assert_eq!(drops.load(Ordering::Relaxed), 5, "4 in-flight + 1 consumed");
    }

    fn oversubscribed_shared_end_conserves_values<P: End, C: End>() {
        // More threads on the shared end than capacity: every losing
        // grant must be refunded exactly once, or capacity drifts, tickets
        // strand and values are lost.
        const VALUES: u64 = 16_000;
        let (producers, consumers) = (threads::<P>(8), threads::<C>(8));
        let ring = ArityRing::<u64, P, C>::with_capacity(2);
        let barrier = Barrier::new(producers + consumers);
        let got = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..producers as u64 {
                let (ring, barrier) = (&ring, &barrier);
                s.spawn(move || {
                    let mut prod = ring.claim_producer().unwrap();
                    barrier.wait();
                    for seq in 0..VALUES / producers as u64 {
                        while prod.push((t << 40) | seq).is_err() {
                            std::thread::yield_now();
                        }
                    }
                });
            }
            for _ in 0..consumers {
                let (ring, barrier, got) = (&ring, &barrier, &got);
                s.spawn(move || {
                    let mut cons = ring.claim_consumer().unwrap();
                    barrier.wait();
                    while got.load(Ordering::Relaxed) < VALUES {
                        if cons.pop().is_some() {
                            got.fetch_add(1, Ordering::Relaxed);
                        } else {
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
        assert_eq!(got.load(Ordering::Relaxed), VALUES);
        assert!(ring.is_empty());
    }

    fn one_registrant_sees_exact_full_and_empty<P: End, C: End>() {
        // With one endpoint on each end, `Full` means exactly full and
        // `None` exactly empty, lap after lap, scalar and batch: a shadow
        // that refuses must be reloaded first, and a grant checked
        // against the right cursor. Bursts of 0..=CAP + 1 on both sides
        // meet every fill level; ~150 positions cross ~30 laps of 5.
        const CAP: usize = 5;
        let ring = ArityRing::<usize, P, C>::with_capacity(CAP);
        let mut prod = ring.claim_producer().unwrap();
        let mut cons = ring.claim_consumer().unwrap();
        let (mut pushed, mut popped, mut fulls, mut empties) = (0, 0, 0, 0);
        let mut out = Vec::new();
        for round in 0..64 {
            let (n, batch) = (round * 3 % (CAP + 2), round % 3 == 0);
            if batch {
                let len = ring.len();
                let moved = prod.push_batch(&mut (pushed..pushed + n));
                assert_eq!(moved, n.min(CAP - len), "batch push at len {len}");
                fulls += usize::from(moved < n);
                pushed += moved;
            } else {
                for _ in 0..n {
                    let len = ring.len();
                    if prod.push(pushed).is_ok() {
                        pushed += 1;
                    } else {
                        assert_eq!(len, CAP, "Full below capacity at {pushed}");
                        fulls += 1;
                    }
                }
            }
            let (m, batch) = ((round * 5 + 2) % (CAP + 2), round % 4 == 1);
            if batch {
                let len = ring.len();
                out.clear();
                assert_eq!(
                    cons.pop_batch(&mut out, m),
                    m.min(len),
                    "batch pop at len {len}"
                );
                empties += usize::from(out.len() < m);
                for v in &out {
                    assert_eq!(*v, popped);
                    popped += 1;
                }
            } else {
                for _ in 0..m {
                    let len = ring.len();
                    if let Some(v) = cons.pop() {
                        assert_eq!(v, popped);
                        popped += 1;
                    } else {
                        assert_eq!(len, 0, "None while nonempty at {popped}");
                        empties += 1;
                    }
                }
            }
            assert!(ring.len() <= CAP);
        }
        assert!(pushed > 3 * CAP, "crossed 3 laps");
        assert!(fulls > 0 && empties > 0, "both bounds were met");
    }

    fn stalling_single_end_conserves_values<P: End, C: End>() {
        // Registrants on a capacity-2 ring while the single end stalls in
        // bursts: the shared end piles up on Full (None) against stale
        // shadows and refunds, and must still neither lose, duplicate nor
        // overfill. An observer checks the bound throughout.
        const VALUES: u64 = 20_000;
        const BURST: u64 = 32;
        let (producers, consumers) = (threads::<P>(4), threads::<C>(4));
        let per = VALUES / producers as u64;
        let ring = ArityRing::<u64, P, C>::with_capacity(2);
        let got = AtomicU64::new(0);
        let seen = std::sync::Mutex::new(Vec::new());
        let stall = |single: bool, moved: u64| {
            if single && moved % BURST == 0 {
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
        };
        std::thread::scope(|s| {
            for t in 0..producers as u64 {
                let ring = &ring;
                s.spawn(move || {
                    let mut prod = ring.claim_producer().unwrap();
                    for seq in 0..per {
                        while prod.push((t << 40) | seq).is_err() {
                            std::thread::yield_now();
                        }
                        stall(!P::SHARED, seq + 1);
                    }
                });
            }
            for _ in 0..consumers {
                let (ring, got, seen) = (&ring, &got, &seen);
                s.spawn(move || {
                    let mut cons = ring.claim_consumer().unwrap();
                    let mut mine = Vec::new();
                    while got.load(Ordering::Relaxed) < per * producers as u64 {
                        if let Some(v) = cons.pop() {
                            mine.push(v);
                            got.fetch_add(1, Ordering::Relaxed);
                            stall(!C::SHARED, mine.len() as u64);
                        } else {
                            std::thread::yield_now();
                        }
                    }
                    seen.lock().unwrap().extend(mine);
                });
            }
            while got.load(Ordering::Relaxed) < per * producers as u64 {
                let len = ring.len();
                assert!(len <= ring.capacity(), "len {len} over capacity");
                std::thread::yield_now();
            }
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        let expected: Vec<u64> = (0..producers as u64)
            .flat_map(|t| (0..per).map(move |seq| (t << 40) | seq))
            .collect();
        assert_eq!(seen, expected, "every value exactly once");
        assert!(ring.is_empty());
    }
}
