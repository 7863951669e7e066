//! A dep-free, wait-free single-producer/single-consumer ring — the
//! first non-MPMC lane behind the [`QueueKind`] lane abstraction.
//!
//! Under [`crate::ShardedQueue`]'s sticky affinity a lane frequently
//! degenerates to exactly one producer and one consumer. That case needs
//! none of the paper's MPMC machinery: following Torquati's cache-aware
//! SPSC design (PAPERS.md), a bounded ring with one monotone cursor per
//! endpoint serves it **wait-free** — every operation is a handful of
//! loads, one slot access, and one store, with no CAS and no retry loop.
//! The layout fights the same coherence traffic the paper's evaluation
//! fights:
//!
//! * **Cache-line-separated cursors.** `head` (consumer-owned) and `tail`
//!   (producer-owned) live in [`CachePadded`] cells so the two endpoints
//!   never false-share.
//! * **Local shadow indices.** Each endpoint caches the *opposite* cursor
//!   (inside [`SpscProducer`]/[`SpscConsumer`]) and only reloads it
//!   when the shadow says full/empty. In steady state an operation
//!   touches one foreign cache line roughly once per `capacity` ops, not
//!   once per op.
//! * **Batched index publication.** The native batch paths write/read `k`
//!   slots and publish the moved cursor with a *single* release store
//!   (`mem::SPSC_PUBLISH`) — the amortization the workspace batch API
//!   already promises, here in its cheapest possible form.
//! * **Inline storage.** Values live in the slot array itself
//!   (`MaybeUninit<T>`); no node allocation, no `NodePool`, nothing on
//!   the steady-state path touches the allocator.
//!
//! # Cycle-tagged indexing and the §3 ABA defenses
//!
//! The paper's §3 defends its MPMC queues against index wrap-around ABA
//! with per-slot tags; Nikolaev's SCQ (arXiv 1908.04511) generalizes the
//! same defense to *cycle-tagged* ring entries, where an index is a pair
//! `(cycle, slot) = (pos / capacity, pos mod capacity)`. This ring keeps
//! that reasoning wholesale by never wrapping its cursors at all: `head`
//! and `tail` are monotone 64-bit **positions** whose low bits select the
//! slot (`pos & mask`) and whose high bits *are* the cycle tag
//! (`pos >> log2(slots)`). Two positions can only alias after 2⁶⁴
//! operations, so the "slot re-used within one observation window"
//! hazard of §3 cannot arise — the same argument, with the tag fused into
//! the index word instead of stored per slot.
//!
//! # Arity
//!
//! The ring's [`QueueKind`] is [`QueueKind::spsc_wait_free`]: one
//! concurrent pusher, one concurrent popper. Endpoint exclusivity is
//! enforced at runtime by an [`ArityRegistry`] claim per side, held as an
//! owned endpoint value ([`SpscProducer`], [`SpscConsumer`]) that
//! releases its claim on drop; the endpoints are the only way to push or
//! pop. The standalone [`ConcurrentQueue`] impl **panics** when a second thread
//! races for an endpoint (misuse, caught loudly rather than corrupting
//! the ring); inside [`crate::ShardedQueue`] the same claim failure
//! instead *promotes* the lane to its MPMC fallback — see
//! `sharded`'s module docs and DESIGN.md §10 for the promotion protocol.

use core::cell::UnsafeCell;
use core::fmt;
use core::mem::MaybeUninit;
use core::sync::atomic::AtomicU64;

use crate::registry::ArityRegistry;
use nbq_util::{mem, BatchFull, CachePadded, ConcurrentQueue, Full, QueueHandle, QueueKind};

/// The producer endpoint's thread-local state: a shadow copy of the
/// consumer's `head` cursor.
///
/// The shadow is always a *lower bound* on the true `head` (the cursor is
/// monotone), so staleness is conservative: the worst it causes is a
/// spurious reload, never an overwrite of an unconsumed slot.
#[derive(Debug, Clone)]
struct SpscProducerCursor {
    head_cache: u64,
}

/// The consumer endpoint's thread-local state: a shadow copy of the
/// producer's `tail` cursor. Staleness is conservative (a spurious
/// reload or `None`), never unsafe — see [`SpscProducerCursor`].
#[derive(Debug, Clone)]
struct SpscConsumerCursor {
    tail_cache: u64,
}

/// A bounded wait-free SPSC FIFO ring with inline storage. See the
/// [module docs](self) for the design and its relation to the paper's
/// §3 ABA defenses.
pub struct SpscRing<T> {
    /// Consumer cursor: monotone position of the next slot to read.
    head: CachePadded<AtomicU64>,
    /// Producer cursor: monotone position of the next slot to write.
    tail: CachePadded<AtomicU64>,
    /// Inline slot array; length is a power of two ≥ `cap`.
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Slot-index mask (`slots.len() - 1`).
    mask: u64,
    /// Logical capacity (may be less than `slots.len()` so the reported
    /// bound is exactly what the caller asked for).
    cap: usize,
    /// Endpoint claims + promotion flag for composing frontends.
    arity: ArityRegistry,
}

// SAFETY: the ring hands values across threads (T: Send) and its shared
// state is the two atomics plus the slot array, which the push/pop safety
// contracts (one concurrent pusher, one concurrent popper, disjoint
// positions) keep data-race free.
unsafe impl<T: Send> Send for SpscRing<T> {}
unsafe impl<T: Send> Sync for SpscRing<T> {}

impl<T: Send> SpscRing<T> {
    /// Builds a ring holding at most `cap` items (`cap` is clamped to at
    /// least 1; slot storage rounds up to the next power of two, but the
    /// enforced bound stays exactly `cap`).
    pub fn with_capacity(cap: usize) -> Self {
        let cap = cap.max(1);
        let slots = cap.next_power_of_two();
        Self {
            head: CachePadded::new(AtomicU64::new(0)),
            tail: CachePadded::new(AtomicU64::new(0)),
            slots: (0..slots)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            mask: (slots - 1) as u64,
            cap,
            arity: ArityRegistry::new(),
        }
    }

    /// The enforced capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Point-in-time occupancy (exact when quiescent).
    pub fn len(&self) -> usize {
        // Head first: the tail read then can only run ahead of it, so the
        // difference never goes "negative" modulo 2^64.
        let head = self.head.load(mem::SPSC_CURSOR_LOAD);
        let tail = self.tail.load(mem::SPSC_CURSOR_LOAD);
        tail.wrapping_sub(head) as usize
    }

    /// Whether the ring appears empty (exact when quiescent).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exact emptiness check *from the producer*: the producer owns
    /// `tail`, and `head` can only trail it, so `head == tail` here means
    /// the ring is truly empty at this instant and — if the producer then
    /// stops pushing — stays empty forever. The lane promotion protocol's
    /// switch point rides on exactly this.
    pub fn producer_sees_empty(&self) -> bool {
        self.head.load(mem::SPSC_CURSOR_LOAD) == self.tail.load(mem::SPSC_OWN_CURSOR)
    }

    /// The cycle tag of position `pos` — the high bits SCQ would store
    /// per entry, fused into the monotone cursor (see the module docs).
    pub fn cycle_of(&self, pos: u64) -> u64 {
        pos >> (self.mask.count_ones())
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
    /// producer claims are blocked) and the producer claim released.
    /// Emptiness observed *after* this holds forever.
    pub(crate) fn writers_gone(&self) -> bool {
        self.arity.promoted() && !self.arity.producer_claimed()
    }

    /// Claims the producer endpoint; `None` if it is held or the ring's
    /// lane was promoted (see [`ArityRegistry::try_claim_producer`]).
    pub fn claim_producer(&self) -> Option<SpscProducer<'_, T>> {
        self.arity.try_claim_producer().then(|| SpscProducer {
            ring: self,
            cur: self.producer_cursor(),
        })
    }

    /// Claims the consumer endpoint; `None` if it is held or the ring's
    /// lane was promoted.
    pub fn claim_consumer(&self) -> Option<SpscConsumer<'_, T>> {
        self.arity.try_claim_consumer().then(|| SpscConsumer {
            ring: self,
            cur: self.consumer_cursor(),
        })
    }

    /// Claims the consumer endpoint even on a promoted lane, to drain
    /// residue; `None` only if it is held (see
    /// [`ArityRegistry::try_reclaim_consumer`]).
    pub fn reclaim_consumer(&self) -> Option<SpscConsumer<'_, T>> {
        self.arity.try_reclaim_consumer().then(|| SpscConsumer {
            ring: self,
            cur: self.consumer_cursor(),
        })
    }

    /// A fresh producer-side cursor, shadowing the current `head`.
    fn producer_cursor(&self) -> SpscProducerCursor {
        SpscProducerCursor {
            head_cache: self.head.load(mem::SPSC_CURSOR_LOAD),
        }
    }

    /// A fresh consumer-side cursor, shadowing the current `tail`.
    fn consumer_cursor(&self) -> SpscConsumerCursor {
        SpscConsumerCursor {
            tail_cache: self.tail.load(mem::SPSC_CURSOR_LOAD),
        }
    }

    /// Pushes `value`, or returns it in `Full` when `cap` items are
    /// in flight.
    ///
    /// # Safety
    ///
    /// The caller must be the ring's only concurrent pusher (hold the
    /// [`ArityRegistry`] producer claim, or otherwise serialize pushes).
    unsafe fn push(&self, cur: &mut SpscProducerCursor, value: T) -> Result<(), Full<T>> {
        let tail = self.tail.load(mem::SPSC_OWN_CURSOR);
        if tail.wrapping_sub(cur.head_cache) >= self.cap as u64 {
            cur.head_cache = self.head.load(mem::SPSC_CURSOR_LOAD);
            if tail.wrapping_sub(cur.head_cache) >= self.cap as u64 {
                return Err(Full(value));
            }
        }
        // SAFETY: position `tail` is unconsumed free space: the consumer
        // reads strictly below `tail`, and the occupancy check above
        // keeps `tail - head < cap <= slots.len()`, so no live value is
        // overwritten. Sole-pusher contract makes the slot write
        // unaliased.
        unsafe { (*self.slots[(tail & self.mask) as usize].get()).write(value) };
        self.tail.store(tail.wrapping_add(1), mem::SPSC_PUBLISH);
        Ok(())
    }

    /// Pushes up to `items.len()` values, publishing `tail` **once**;
    /// returns how many were taken from the iterator.
    ///
    /// # Safety
    ///
    /// As [`SpscRing::push`].
    unsafe fn push_batch<I>(&self, cur: &mut SpscProducerCursor, items: &mut I) -> usize
    where
        I: ExactSizeIterator<Item = T>,
    {
        let tail = self.tail.load(mem::SPSC_OWN_CURSOR);
        let mut free = (self.cap as u64).wrapping_sub(tail.wrapping_sub(cur.head_cache));
        if (free as usize) < items.len() {
            cur.head_cache = self.head.load(mem::SPSC_CURSOR_LOAD);
            free = (self.cap as u64).wrapping_sub(tail.wrapping_sub(cur.head_cache));
        }
        let take = items.len().min(free as usize);
        for i in 0..take {
            let value = items.next().expect("iterator shorter than its len()");
            // SAFETY: as in `push` — positions tail..tail+take are free.
            unsafe {
                (*self.slots[(tail.wrapping_add(i as u64) & self.mask) as usize].get()).write(value)
            };
        }
        if take > 0 {
            self.tail
                .store(tail.wrapping_add(take as u64), mem::SPSC_PUBLISH);
        }
        take
    }

    /// Pops the oldest value, or `None` when empty.
    ///
    /// # Safety
    ///
    /// The caller must be the ring's only concurrent popper (hold the
    /// [`ArityRegistry`] consumer claim, or otherwise serialize pops).
    unsafe fn pop(&self, cur: &mut SpscConsumerCursor) -> Option<T> {
        let head = self.head.load(mem::SPSC_OWN_CURSOR);
        if head == cur.tail_cache {
            cur.tail_cache = self.tail.load(mem::SPSC_CURSOR_LOAD);
            if head == cur.tail_cache {
                return None;
            }
        }
        // SAFETY: head < tail_cache <= tail, so the slot was filled and
        // published by the producer (acquire pairing); sole-popper
        // contract makes the read unaliased, and advancing `head` below
        // transfers the slot back to the producer exactly once.
        let value = unsafe { (*self.slots[(head & self.mask) as usize].get()).assume_init_read() };
        self.head.store(head.wrapping_add(1), mem::SPSC_PUBLISH);
        Some(value)
    }

    /// Pops up to `max` values into `out`, publishing `head` **once**;
    /// returns how many were moved.
    ///
    /// # Safety
    ///
    /// As [`SpscRing::pop`].
    unsafe fn pop_batch(
        &self,
        cur: &mut SpscConsumerCursor,
        out: &mut Vec<T>,
        max: usize,
    ) -> usize {
        let head = self.head.load(mem::SPSC_OWN_CURSOR);
        let mut avail = cur.tail_cache.wrapping_sub(head);
        if (avail as usize) < max {
            cur.tail_cache = self.tail.load(mem::SPSC_CURSOR_LOAD);
            avail = cur.tail_cache.wrapping_sub(head);
        }
        let take = max.min(avail as usize);
        out.reserve(take);
        for i in 0..take {
            // SAFETY: as in `pop` — positions head..head+take are filled.
            let value = unsafe {
                (*self.slots[(head.wrapping_add(i as u64) & self.mask) as usize].get())
                    .assume_init_read()
            };
            out.push(value);
        }
        if take > 0 {
            self.head
                .store(head.wrapping_add(take as u64), mem::SPSC_PUBLISH);
        }
        take
    }
}

impl<T> Drop for SpscRing<T> {
    fn drop(&mut self) {
        // Exclusive access: drop every in-flight value.
        let head = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        for pos in head..tail {
            let slot = self.slots[(pos & self.mask) as usize].get_mut();
            // SAFETY: positions in head..tail hold initialized values
            // that no endpoint will read again.
            unsafe { slot.assume_init_drop() };
        }
    }
}

impl<T: Send> fmt::Debug for SpscRing<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpscRing")
            .field("capacity", &self.cap)
            .field("len", &self.len())
            .finish()
    }
}

/// The producer endpoint of an [`SpscRing`]: holds the ring's producer
/// claim for its lifetime and releases it on drop. Holding one is what
/// makes pushing safe, so it is the only way to push.
pub struct SpscProducer<'q, T: Send> {
    ring: &'q SpscRing<T>,
    cur: SpscProducerCursor,
}

impl<T: Send> SpscProducer<'_, T> {
    /// Pushes `value`, or returns it in `Full` when the ring is full.
    pub fn push(&mut self, value: T) -> Result<(), Full<T>> {
        // SAFETY: this endpoint holds the producer claim.
        unsafe { self.ring.push(&mut self.cur, value) }
    }

    /// Pushes up to `items.len()` values, publishing `tail` once;
    /// returns how many were taken from the iterator.
    pub fn push_batch<I: ExactSizeIterator<Item = T>>(&mut self, items: &mut I) -> usize {
        // SAFETY: this endpoint holds the producer claim.
        unsafe { self.ring.push_batch(&mut self.cur, items) }
    }

    /// Whether everything this producer pushed has been consumed: as
    /// the sole producer it sees the ring's emptiness exactly (see
    /// [`SpscRing::producer_sees_empty`]).
    pub fn drained(&self) -> bool {
        self.ring.producer_sees_empty()
    }
}

impl<T: Send> Drop for SpscProducer<'_, T> {
    fn drop(&mut self) {
        self.ring.arity.release_producer();
    }
}

/// The consumer endpoint of an [`SpscRing`]: holds the ring's consumer
/// claim for its lifetime and releases it on drop.
pub struct SpscConsumer<'q, T: Send> {
    ring: &'q SpscRing<T>,
    cur: SpscConsumerCursor,
}

impl<T: Send> SpscConsumer<'_, T> {
    /// Pops the oldest value, or `None` when empty.
    pub fn pop(&mut self) -> Option<T> {
        // SAFETY: this endpoint holds the consumer claim.
        unsafe { self.ring.pop(&mut self.cur) }
    }

    /// Pops up to `max` values into `out`, publishing `head` once.
    pub fn pop_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        // SAFETY: this endpoint holds the consumer claim.
        unsafe { self.ring.pop_batch(&mut self.cur, out, max) }
    }
}

impl<T: Send> Drop for SpscConsumer<'_, T> {
    fn drop(&mut self) {
        self.ring.arity.release_consumer();
    }
}

/// Standalone per-thread handle to an [`SpscRing`].
///
/// Endpoint roles are claimed lazily: the first `enqueue` claims the
/// producer slot, the first `dequeue` the consumer slot, so a handle
/// used on one side only occupies one side only (the 1-producer-thread /
/// 1-consumer-thread pipe pattern). A handle whose claim *races with an
/// existing holder* panics — loud misuse detection; use
/// [`crate::ShardedQueue`] with [`crate::LanePolicy::SpscFastPath`] when
/// a dynamic fallback to MPMC is wanted instead. Dropping the handle
/// drops its endpoints, releasing their claims, so strictly sequential
/// handle turnover works.
pub struct SpscRingHandle<'q, T: Send> {
    ring: &'q SpscRing<T>,
    prod: Option<SpscProducer<'q, T>>,
    cons: Option<SpscConsumer<'q, T>>,
}

impl<'q, T: Send> SpscRingHandle<'q, T> {
    fn producer(&mut self) -> &mut SpscProducer<'q, T> {
        let ring = self.ring;
        self.prod.get_or_insert_with(|| {
            ring.claim_producer().expect(
                "second concurrent producer on a wait-free SPSC ring; the ring admits exactly \
                 one pusher — use ShardedQueue's SPSC fast-path lanes for dynamic promotion \
                 to MPMC instead",
            )
        })
    }

    fn consumer(&mut self) -> &mut SpscConsumer<'q, T> {
        let ring = self.ring;
        self.cons.get_or_insert_with(|| {
            ring.claim_consumer().expect(
                "second concurrent consumer on a wait-free SPSC ring; the ring admits exactly \
                 one popper — use ShardedQueue's SPSC fast-path lanes for dynamic promotion \
                 to MPMC instead",
            )
        })
    }
}

impl<T: Send> QueueHandle<T> for SpscRingHandle<'_, T> {
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

impl<T: Send> ConcurrentQueue<T> for SpscRing<T> {
    type Handle<'q>
        = SpscRingHandle<'q, T>
    where
        Self: 'q;

    fn handle(&self) -> Self::Handle<'_> {
        SpscRingHandle {
            ring: self,
            prod: None,
            cons: None,
        }
    }

    fn capacity(&self) -> Option<usize> {
        Some(self.cap)
    }

    fn len(&self) -> Option<usize> {
        Some(SpscRing::len(self))
    }

    fn algorithm_name(&self) -> &'static str {
        "Wait-free SPSC ring"
    }

    fn kind(&self) -> QueueKind {
        QueueKind::spsc_wait_free()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<T: Send> SpscRing<T> {
        fn arity(&self) -> &ArityRegistry {
            &self.arity
        }
    }

    #[test]
    fn kind_is_spsc_wait_free() {
        let ring = SpscRing::<u64>::with_capacity(8);
        assert_eq!(ConcurrentQueue::kind(&ring), QueueKind::spsc_wait_free());
        assert_eq!(ring.algorithm_name(), "Wait-free SPSC ring");
    }

    #[test]
    fn single_handle_fifo_round_trip() {
        let ring = SpscRing::<u64>::with_capacity(4);
        let mut h = ring.handle();
        for i in 0..4 {
            h.enqueue(i).unwrap();
        }
        assert_eq!(ConcurrentQueue::len(&ring), Some(4));
        assert_eq!(h.enqueue(99).unwrap_err().into_inner(), 99);
        for i in 0..4 {
            assert_eq!(h.dequeue(), Some(i));
        }
        assert_eq!(h.dequeue(), None);
        assert!(ring.is_empty());
    }

    #[test]
    fn capacity_is_enforced_exactly_not_rounded() {
        // 3 rounds its slot storage to 4 but must still reject a 4th item.
        let ring = SpscRing::<u32>::with_capacity(3);
        assert_eq!(ring.capacity(), 3);
        let mut h = ring.handle();
        for i in 0..3 {
            h.enqueue(i).unwrap();
        }
        assert!(h.enqueue(3).is_err());
        assert_eq!(h.dequeue(), Some(0));
        h.enqueue(3).unwrap();
    }

    #[test]
    fn cursors_cross_many_cycles_without_aliasing() {
        // A tiny ring driven far past its slot count: the monotone
        // positions' cycle tags keep every push/pop paired correctly.
        let ring = SpscRing::<u64>::with_capacity(2);
        let mut h = ring.handle();
        for i in 0..1000u64 {
            h.enqueue(i).unwrap();
            assert_eq!(h.dequeue(), Some(i));
        }
        assert!(ring.is_empty());
        assert!(ring.cycle_of(1000) > 0, "positions accumulated cycles");
    }

    #[test]
    fn batch_paths_publish_once_and_report_leftovers() {
        let ring = SpscRing::<u64>::with_capacity(4);
        let mut h = ring.handle();
        let err = h
            .enqueue_batch((0..6u64).collect::<Vec<_>>().into_iter())
            .unwrap_err();
        assert_eq!(err.enqueued, 4);
        assert_eq!(err.remaining, vec![4, 5]);
        let mut out = Vec::new();
        assert_eq!(h.dequeue_batch(&mut out, 8), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(h.dequeue_batch(&mut out, 8), 0);
    }

    #[test]
    fn two_thread_pipe_is_fifo() {
        const N: u64 = 100_000;
        let ring = SpscRing::<u64>::with_capacity(64);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut h = ring.handle();
                for i in 0..N {
                    let mut v = i;
                    loop {
                        match h.enqueue(v) {
                            Ok(()) => break,
                            Err(Full(back)) => {
                                v = back;
                                std::hint::spin_loop();
                            }
                        }
                    }
                }
            });
            s.spawn(|| {
                let mut h = ring.handle();
                let mut expected = 0u64;
                while expected < N {
                    if let Some(v) = h.dequeue() {
                        assert_eq!(v, expected, "strict FIFO");
                        expected += 1;
                    } else {
                        std::hint::spin_loop();
                    }
                }
            });
        });
        assert!(ring.is_empty());
    }

    #[test]
    fn two_thread_pipe_batched() {
        const N: u64 = 50_000;
        const B: usize = 16;
        let ring = SpscRing::<u64>::with_capacity(64);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut h = ring.handle();
                let mut next = 0u64;
                while next < N {
                    let hi = (next + B as u64).min(N);
                    let mut batch: Vec<u64> = (next..hi).collect();
                    next = hi;
                    loop {
                        match h.enqueue_batch(batch.into_iter()) {
                            Ok(_) => break,
                            Err(e) => {
                                batch = e.remaining;
                                std::hint::spin_loop();
                            }
                        }
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

    #[test]
    #[should_panic(expected = "second concurrent producer")]
    fn second_live_producer_handle_panics() {
        let ring = SpscRing::<u64>::with_capacity(4);
        let mut a = ring.handle();
        let mut b = ring.handle();
        a.enqueue(1).unwrap();
        let _ = b.enqueue(2);
    }

    #[test]
    #[should_panic(expected = "second concurrent consumer")]
    fn second_live_consumer_handle_panics() {
        let ring = SpscRing::<u64>::with_capacity(4);
        let mut a = ring.handle();
        let mut b = ring.handle();
        let _ = a.dequeue();
        let _ = b.dequeue();
    }

    #[test]
    fn dropping_a_handle_releases_its_endpoints() {
        let ring = SpscRing::<u64>::with_capacity(4);
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

    #[test]
    fn split_roles_occupy_one_side_each() {
        let ring = SpscRing::<u64>::with_capacity(4);
        let mut producer = ring.handle();
        let mut consumer = ring.handle();
        producer.enqueue(7).unwrap();
        assert!(ring.arity().producer_claimed());
        assert!(!ring.arity().consumer_claimed());
        assert_eq!(consumer.dequeue(), Some(7));
        assert!(ring.arity().consumer_claimed());
    }

    #[test]
    fn drop_releases_in_flight_values() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        {
            let ring = SpscRing::<Counted>::with_capacity(8);
            let mut h = ring.handle();
            for _ in 0..5 {
                h.enqueue(Counted).unwrap();
            }
            drop(h.dequeue()); // one dropped by consumption
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 5, "4 in-flight + 1 consumed");
    }
}
