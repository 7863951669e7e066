//! Wait-free-producer SPMC fan-out ring: single-producer monotone
//! cursor, FAA-ticketed consumers.
//!
//! The mirror image of [`crate::mpsc::MpscRing`] (DESIGN.md §13). The
//! *single* side (the producer) owns the monotone `tail` cursor
//! outright — one reuse-ack load, one slot write, one cursor store, one
//! gate return per push, no CAS, so enqueues are wait-free; `push_batch`
//! fills a run and issues the cursor store plus the availability
//! publication **once**. The *multi* side (consumers) claims positions
//! with one fetch-and-add on `head`, gated by an `items` availability
//! count so a ticket is only ever taken for a value that is already
//! published — the mirror of the MPSC ring's `credits` gate, preventing
//! the stranded-ticket failure mode (a consumer FAAing past an empty
//! ring would otherwise own a position no producer will ever fill
//! without blocking semantics).
//!
//! Slot reuse runs on per-slot cycle-tagged *acknowledgement* words,
//! written only by consumers: position `p`'s reader stores `p + slots`
//! into its slot's `seq` after the read completes, and the producer
//! requires `seq == t` before writing position `t`. `head` alone cannot
//! prove reuse safety — it advances at ticket-claim time, before the
//! read completes — so the producer checks both: the shadow-cached
//! `head` for the *capacity* bound (Torquati-style, reloaded only on
//! apparent full) and the slot ack for *reuse* safety.
//!
//! Visibility mirrors the MPSC argument exactly (see `mpsc.rs`): the
//! consumer whose gate acquisition observed the producer's publication
//! may differ from the one reading the slot, so the chain runs
//! producer-publish → some consumer's gate acquire → that consumer's
//! `head` FAA → our `head` FAA → our read, with both RMW sites `AcqRel`
//! ([`mem::RING_GATE`], [`mem::RING_TICKET`]).
//!
//! Emptiness is gate-local: `pop` returns `None` when `items` shows
//! nothing published, which is exact (the producer publishes the count
//! *after* the value). Per-consumer order is exact: each consumer's
//! tickets are program-ordered, so the values any one consumer sees form
//! an increasing subsequence of the producer's stream.

use crate::registry::ArityRegistry;
use nbq_util::{mem, CachePadded, ConcurrentQueue, Full, QueueHandle, QueueKind};
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicI64, AtomicU64};

/// One ring slot: the consumption-ack word plus the value cell.
struct Slot<T> {
    /// Cycle-tagged reuse ack, written only by consumers: position `p`'s
    /// reader stores `p + slots`, and the producer writes position `t`
    /// only after loading `t` here. Initialized to the slot index (every
    /// first-cycle position is immediately writable).
    seq: AtomicU64,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// Producer-side cursor: the local `tail` (the atomic is published for
/// `len`/emptiness observers, never re-read on the hot path) plus the
/// shadow-cached `head` used for the capacity bound, reloaded only when
/// the shadow says full — the same cache discipline as the SPSC ring's
/// producer.
#[derive(Debug, Clone)]
struct SpmcProducerCursor {
    tail: u64,
    head_cache: u64,
}

/// Bounded SPMC ring: exactly one producer, any number of consumers.
///
/// See the module docs for the layout and the gate/ticket protocol.
/// Pushes go through the claimed [`SpmcProducer`] endpoint; `pop` is
/// safe for any number of threads by construction.
pub struct SpmcRing<T> {
    /// Consumers' monotone ticket counter (next position to claim).
    head: CachePadded<AtomicU64>,
    /// Producer's monotone cursor (next position to fill).
    tail: CachePadded<AtomicU64>,
    /// Availability gate: published-but-unclaimed values. Consumers take
    /// one before ticketing; the producer adds after publishing.
    /// Transiently negative under a consumer burst (each loser refunds),
    /// bounded by the number of concurrent consumers.
    items: CachePadded<AtomicI64>,
    slots: Box<[Slot<T>]>,
    mask: u64,
    cap: usize,
    arity: ArityRegistry,
}

// SAFETY: values move across threads whole (the producer writes only
// ack-freed slots, consumers read disjoint gate-guarded tickets), so
// `T: Send` is the only requirement.
unsafe impl<T: Send> Send for SpmcRing<T> {}
unsafe impl<T: Send> Sync for SpmcRing<T> {}

impl<T> SpmcRing<T> {
    /// A ring that accepts `capacity` in-flight values (minimum 1). Slot
    /// count rounds up to a power of two; the advertised capacity stays
    /// exact via the producer's head-shadow bound.
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(1);
        let slots = cap.next_power_of_two();
        Self {
            head: CachePadded::new(AtomicU64::new(0)),
            tail: CachePadded::new(AtomicU64::new(0)),
            items: CachePadded::new(AtomicI64::new(0)),
            slots: (0..slots)
                .map(|i| Slot {
                    seq: AtomicU64::new(i as u64),
                    value: UnsafeCell::new(MaybeUninit::uninit()),
                })
                .collect(),
            mask: (slots - 1) as u64,
            cap,
            arity: ArityRegistry::new(),
        }
    }

    /// Advertised capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Point-in-time occupancy, counting published values not yet
    /// ticket-claimed. Loading `head` first keeps the subtraction from
    /// going negative when consumers race the two loads.
    pub fn len(&self) -> usize {
        let head = self.head.load(mem::SPSC_CURSOR_LOAD);
        let tail = self.tail.load(mem::SPSC_CURSOR_LOAD);
        tail.saturating_sub(head) as usize
    }

    /// Whether the ring holds no unclaimed values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the producer's published stream has been fully claimed —
    /// the exact-empty instant the promoted single producer switches on
    /// (it owns `tail`, so this is never speculative), mirroring the
    /// SPSC ring's switch rule.
    pub fn producer_sees_empty(&self) -> bool {
        self.head.load(mem::SPSC_CURSOR_LOAD) == self.tail.load(mem::SPSC_OWN_CURSOR)
    }

    /// Sets the sticky promotion flag (see [`ArityRegistry::promote`]).
    pub(crate) fn promote(&self) {
        self.arity.promote();
    }

    /// Whether the ring's lane has been promoted.
    pub(crate) fn promoted(&self) -> bool {
        self.arity.promoted()
    }

    /// Whether the producer can never push again: the lane promoted (so
    /// the producer claim is blocked) and the producer claim released.
    /// Emptiness observed *after* this holds forever.
    pub(crate) fn writers_gone(&self) -> bool {
        self.arity.promoted() && !self.arity.producer_claimed()
    }

    /// Claims the single producer endpoint; `None` if it is held or the
    /// ring's lane was promoted.
    pub fn claim_producer(&self) -> Option<SpmcProducer<'_, T>> {
        self.arity.try_claim_producer().then(|| SpmcProducer {
            ring: self,
            cur: self.producer_cursor(),
        })
    }

    /// Registers one consumer on the drain side. Never fails and never
    /// promotes: popping needs no claim, the registration is bookkeeping.
    pub fn register_consumer(&self) -> SpmcConsumer<'_, T> {
        self.arity.register_multi_drain();
        SpmcConsumer { ring: self }
    }

    /// A producer cursor synced to the ring's current `tail`. Callers
    /// must hold the producer claim before *using* it.
    fn producer_cursor(&self) -> SpmcProducerCursor {
        SpmcProducerCursor {
            tail: self.tail.load(mem::SPSC_CURSOR_LOAD),
            head_cache: self.head.load(mem::SPSC_CURSOR_LOAD),
        }
    }

    /// Producer push.
    ///
    /// # Safety
    ///
    /// The caller must be the ring's only concurrent producer (hold the
    /// [`ArityRegistry`] producer claim) and `cur` must be the cursor
    /// state for that claim.
    unsafe fn push(&self, cur: &mut SpmcProducerCursor, value: T) -> Result<(), Full<T>> {
        let tail = cur.tail;
        if tail.wrapping_sub(cur.head_cache) >= self.cap as u64 {
            cur.head_cache = self.head.load(mem::SPSC_CURSOR_LOAD);
            if tail.wrapping_sub(cur.head_cache) >= self.cap as u64 {
                return Err(Full(value));
            }
        }
        let slot = &self.slots[(tail & self.mask) as usize];
        if slot.seq.load(mem::SLOT_LOAD) != tail {
            // Capacity says there is room but the previous occupant's
            // reader has not finished acking the slot — a transient Full
            // bounded by that reader's in-flight window.
            return Err(Full(value));
        }
        // SAFETY: the ack above proves the slot's previous reader is
        // done, and we are the only producer.
        unsafe { (*slot.value.get()).write(value) };
        cur.tail = tail.wrapping_add(1);
        self.tail.store(cur.tail, mem::SPSC_PUBLISH);
        self.items.fetch_add(1, mem::RING_GATE);
        Ok(())
    }

    /// Producer batch push: fills as many ack-freed in-capacity slots as
    /// the batch provides, then issues the cursor store and the
    /// availability publication **once** — the single-publication point
    /// of the single side. Returns how many items were accepted; the
    /// iterator is only advanced that far.
    ///
    /// # Safety
    ///
    /// As for [`SpmcRing::push`].
    unsafe fn push_batch<I>(&self, cur: &mut SpmcProducerCursor, items: &mut I) -> usize
    where
        I: Iterator<Item = T>,
    {
        let mut taken = 0u64;
        loop {
            let tail = cur.tail.wrapping_add(taken);
            if tail.wrapping_sub(cur.head_cache) >= self.cap as u64 {
                cur.head_cache = self.head.load(mem::SPSC_CURSOR_LOAD);
                if tail.wrapping_sub(cur.head_cache) >= self.cap as u64 {
                    break;
                }
            }
            let slot = &self.slots[(tail & self.mask) as usize];
            if slot.seq.load(mem::SLOT_LOAD) != tail {
                break;
            }
            let Some(value) = items.next() else { break };
            // SAFETY: as in `push`.
            unsafe { (*slot.value.get()).write(value) };
            taken += 1;
        }
        if taken > 0 {
            cur.tail = cur.tail.wrapping_add(taken);
            self.tail.store(cur.tail, mem::SPSC_PUBLISH);
            self.items.fetch_add(taken as i64, mem::RING_GATE);
        }
        taken as usize
    }

    /// Consumer pop: one gate RMW, one ticket FAA, one slot read, one
    /// ack store — wait-free, any number of callers, no claim needed.
    pub fn pop(&self) -> Option<T> {
        let avail = self.items.fetch_sub(1, mem::RING_GATE);
        if avail <= 0 {
            self.items.fetch_add(1, mem::RING_GATE);
            return None;
        }
        let pos = self.head.fetch_add(1, mem::RING_TICKET);
        let slot = &self.slots[(pos & self.mask) as usize];
        // SAFETY: the gate proves position `pos` was published before
        // our ticket (see module docs), and tickets are unique.
        let value = unsafe { (*slot.value.get()).assume_init_read() };
        slot.seq
            .store(pos.wrapping_add(self.slots.len() as u64), mem::SPSC_PUBLISH);
        Some(value)
    }

    /// Consumer batch pop: reserves up to `max` published values with
    /// one gate RMW and claims a contiguous ticket run with one FAA.
    /// Acks remain per slot (the producer reuses slots individually).
    pub fn pop_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        let want = max as i64;
        if want == 0 {
            return 0;
        }
        let avail = self.items.fetch_sub(want, mem::RING_GATE);
        let got = avail.min(want).max(0);
        if got < want {
            self.items.fetch_add(want - got, mem::RING_GATE);
        }
        if got == 0 {
            return 0;
        }
        let start = self.head.fetch_add(got as u64, mem::RING_TICKET);
        for i in 0..got as u64 {
            let pos = start.wrapping_add(i);
            let slot = &self.slots[(pos & self.mask) as usize];
            // SAFETY: every position in the reserved run was published
            // before the gate granted it.
            out.push(unsafe { (*slot.value.get()).assume_init_read() });
            slot.seq
                .store(pos.wrapping_add(self.slots.len() as u64), mem::SPSC_PUBLISH);
        }
        got as usize
    }
}

impl<T> Drop for SpmcRing<T> {
    fn drop(&mut self) {
        // Exclusive access: every claimed ticket's read has completed,
        // so exactly the positions in `head..tail` still hold values.
        let head = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        for pos in head..tail {
            let slot = &mut self.slots[(pos & self.mask) as usize];
            // SAFETY: published and never claimed; dropped once.
            unsafe { (*slot.value.get()).assume_init_drop() };
        }
    }
}

/// The single producer endpoint of an [`SpmcRing`]: holds the producer
/// claim for its lifetime and releases it on drop.
pub struct SpmcProducer<'q, T> {
    ring: &'q SpmcRing<T>,
    cur: SpmcProducerCursor,
}

impl<T> SpmcProducer<'_, T> {
    /// Pushes `value`, or returns it in `Full` when no slot is free.
    pub fn push(&mut self, value: T) -> Result<(), Full<T>> {
        // SAFETY: this endpoint holds the producer claim.
        unsafe { self.ring.push(&mut self.cur, value) }
    }

    /// Pushes as many of `items` as fit; returns how many were taken.
    pub fn push_batch<I: Iterator<Item = T>>(&mut self, items: &mut I) -> usize {
        // SAFETY: this endpoint holds the producer claim.
        unsafe { self.ring.push_batch(&mut self.cur, items) }
    }

    /// Whether everything this producer pushed has been claimed: as the
    /// sole producer it sees the ring's emptiness exactly (see
    /// [`SpmcRing::producer_sees_empty`]).
    pub fn drained(&self) -> bool {
        self.ring.producer_sees_empty()
    }
}

impl<T> Drop for SpmcProducer<'_, T> {
    fn drop(&mut self) {
        self.ring.arity.release_producer();
    }
}

/// A consumer registration on an [`SpmcRing`]'s drain side: releases
/// the registration on drop. Any number may be live at once.
pub struct SpmcConsumer<'q, T> {
    ring: &'q SpmcRing<T>,
}

impl<T> SpmcConsumer<'_, T> {
    /// Pops one value (see [`SpmcRing::pop`]).
    pub fn pop(&mut self) -> Option<T> {
        self.ring.pop()
    }

    /// Pops up to `max` values into `out` (see [`SpmcRing::pop_batch`]).
    pub fn pop_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        self.ring.pop_batch(out, max)
    }
}

impl<T> Drop for SpmcConsumer<'_, T> {
    fn drop(&mut self) {
        self.ring.arity.release_multi();
    }
}

/// Per-thread handle for the safe facade: claims the producer side on
/// first enqueue, registers as a (drain-safe) consumer on first dequeue.
pub struct SpmcRingHandle<'q, T> {
    ring: &'q SpmcRing<T>,
    prod: Option<SpmcProducer<'q, T>>,
    cons: Option<SpmcConsumer<'q, T>>,
}

impl<'q, T> SpmcRingHandle<'q, T> {
    fn producer(&mut self) -> &mut SpmcProducer<'q, T> {
        let ring = self.ring;
        self.prod.get_or_insert_with(|| {
            ring.claim_producer().expect(
                "second concurrent producer on a wait-free-producer SPMC ring; \
                 use `ShardedQueue` with `LanePolicy::SpmcFastPath` if producer \
                 arity is not statically single",
            )
        })
    }

    fn consumer(&mut self) -> &mut SpmcConsumer<'q, T> {
        let ring = self.ring;
        self.cons.get_or_insert_with(|| ring.register_consumer())
    }
}

impl<T: Send> QueueHandle<T> for SpmcRingHandle<'_, T> {
    fn enqueue(&mut self, value: T) -> Result<(), Full<T>> {
        self.producer().push(value)
    }

    fn dequeue(&mut self) -> Option<T> {
        self.consumer().pop()
    }

    fn enqueue_batch(
        &mut self,
        items: impl ExactSizeIterator<Item = T>,
    ) -> Result<usize, nbq_util::BatchFull<T>> {
        let mut items = items;
        let total = items.len();
        let pushed = self.producer().push_batch(&mut items);
        if pushed == total {
            Ok(pushed)
        } else {
            Err(nbq_util::BatchFull {
                enqueued: pushed,
                remaining: items.collect(),
            })
        }
    }

    fn dequeue_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        self.consumer().pop_batch(out, max)
    }
}

impl<T: Send> ConcurrentQueue<T> for SpmcRing<T> {
    type Handle<'q>
        = SpmcRingHandle<'q, T>
    where
        Self: 'q;

    fn handle(&self) -> SpmcRingHandle<'_, T> {
        SpmcRingHandle {
            ring: self,
            prod: None,
            cons: None,
        }
    }

    fn capacity(&self) -> Option<usize> {
        Some(self.cap)
    }

    fn len(&self) -> Option<usize> {
        Some(SpmcRing::len(self))
    }

    fn algorithm_name(&self) -> &'static str {
        "Wait-free-producer SPMC ring"
    }

    fn kind(&self) -> QueueKind {
        QueueKind::spmc_wait_free()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<T> SpmcRing<T> {
        fn arity(&self) -> &ArityRegistry {
            &self.arity
        }
    }
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::{Arc, Barrier};

    #[test]
    fn single_thread_round_trip() {
        let ring = SpmcRing::with_capacity(4);
        assert_eq!(ring.capacity(), 4);
        assert!(ring.is_empty());
        let mut prod = ring.producer_cursor();
        for v in 0..4u64 {
            unsafe { ring.push(&mut prod, v) }.unwrap();
        }
        assert_eq!(ring.len(), 4);
        assert!(
            unsafe { ring.push(&mut prod, 99) }.is_err(),
            "full at capacity"
        );
        for v in 0..4u64 {
            assert_eq!(ring.pop(), Some(v));
        }
        assert_eq!(ring.pop(), None);
        assert!(ring.producer_sees_empty());
    }

    #[test]
    fn capacity_is_exact_not_rounded() {
        let ring = SpmcRing::with_capacity(5);
        let mut prod = ring.producer_cursor();
        for v in 0..5u64 {
            unsafe { ring.push(&mut prod, v) }.unwrap();
        }
        assert!(unsafe { ring.push(&mut prod, 5) }.is_err());
        assert_eq!(ring.pop(), Some(0));
        unsafe { ring.push(&mut prod, 5) }.expect("freed capacity is reusable");
    }

    #[test]
    fn wraps_through_many_cycles() {
        let ring = SpmcRing::with_capacity(2);
        let mut prod = ring.producer_cursor();
        for v in 0..1_000u64 {
            unsafe { ring.push(&mut prod, v) }.unwrap();
            assert_eq!(ring.pop(), Some(v));
        }
    }

    #[test]
    fn batch_ops_move_runs() {
        let ring = SpmcRing::with_capacity(8);
        let mut prod = ring.producer_cursor();
        let mut items = (0..12u64).collect::<Vec<_>>().into_iter();
        assert_eq!(unsafe { ring.push_batch(&mut prod, &mut items) }, 8);
        assert_eq!(items.len(), 4);
        let mut out = Vec::new();
        assert_eq!(ring.pop_batch(&mut out, 16), 8);
        assert_eq!(out, (0..8u64).collect::<Vec<_>>());
        assert_eq!(unsafe { ring.push_batch(&mut prod, &mut items) }, 4);
        out.clear();
        assert_eq!(ring.pop_batch(&mut out, 2), 2);
        assert_eq!(out, vec![8, 9]);
    }

    #[test]
    fn fan_out_pipe_keeps_per_consumer_order() {
        const CONSUMERS: usize = 3;
        const VALUES: u64 = 60_000;
        let ring = SpmcRing::with_capacity(64);
        let barrier = Barrier::new(CONSUMERS + 1);
        let claimed = AtomicU64::new(0);
        std::thread::scope(|s| {
            {
                let ring = &ring;
                let barrier = &barrier;
                s.spawn(move || {
                    let mut cur = ring.producer_cursor();
                    barrier.wait();
                    for v in 0..VALUES {
                        while unsafe { ring.push(&mut cur, v) }.is_err() {
                            std::hint::spin_loop();
                        }
                    }
                });
            }
            for _ in 0..CONSUMERS {
                let ring = &ring;
                let barrier = &barrier;
                let claimed = &claimed;
                s.spawn(move || {
                    let mut last: Option<u64> = None;
                    barrier.wait();
                    while claimed.load(Ordering::Relaxed) < VALUES {
                        if let Some(v) = ring.pop() {
                            if let Some(prev) = last {
                                assert!(
                                    v > prev,
                                    "one consumer's stream must ascend the producer's order"
                                );
                            }
                            last = Some(v);
                            claimed.fetch_add(1, Ordering::Relaxed);
                        } else {
                            std::hint::spin_loop();
                        }
                    }
                });
            }
        });
        assert_eq!(claimed.load(Ordering::Relaxed), VALUES);
        assert!(ring.is_empty());
    }

    #[test]
    fn trait_facade_round_trips_and_reports_kind() {
        let ring: SpmcRing<u64> = SpmcRing::with_capacity(8);
        assert_eq!(ConcurrentQueue::capacity(&ring), Some(8));
        assert_eq!(ring.kind(), QueueKind::spmc_wait_free());
        assert!(ring.kind().admits(1, 4));
        assert!(!ring.kind().admits(2, 1));
        let mut h = ring.handle();
        h.enqueue(7).unwrap();
        assert_eq!(h.dequeue(), Some(7));
        assert!(ring.arity().producer_claimed());
        assert_eq!(ring.arity().multi_count(), 1);
        drop(h);
        assert!(!ring.arity().producer_claimed());
        assert_eq!(ring.arity().multi_count(), 0);
    }

    #[test]
    #[should_panic(expected = "second concurrent producer")]
    fn second_producer_handle_panics() {
        let ring: SpmcRing<u64> = SpmcRing::with_capacity(4);
        let mut a = ring.handle();
        let mut b = ring.handle();
        a.enqueue(1).unwrap();
        b.enqueue(2).unwrap();
    }

    #[test]
    fn drop_releases_in_flight_values() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        DROPS.store(0, Ordering::Relaxed);
        {
            let ring = SpmcRing::with_capacity(8);
            let mut prod = ring.producer_cursor();
            for _ in 0..5 {
                unsafe { ring.push(&mut prod, Counted) }.unwrap();
            }
            drop(ring.pop());
            // 4 live values ride the ring into drop.
        }
        assert_eq!(DROPS.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn oversubscribed_consumers_conserve_values() {
        // More consumers than values in flight: the gate must refund
        // every loser exactly once, or tickets strand and values vanish.
        const CONSUMERS: usize = 8;
        const VALUES: u64 = 16_000;
        let ring = Arc::new(SpmcRing::with_capacity(2));
        let barrier = Arc::new(Barrier::new(CONSUMERS + 1));
        let got = Arc::new(AtomicU64::new(0));
        let mut joins = Vec::new();
        {
            let ring = Arc::clone(&ring);
            let barrier = Arc::clone(&barrier);
            joins.push(std::thread::spawn(move || {
                let mut cur = ring.producer_cursor();
                barrier.wait();
                for v in 0..VALUES {
                    while unsafe { ring.push(&mut cur, v) }.is_err() {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        for _ in 0..CONSUMERS {
            let ring = Arc::clone(&ring);
            let barrier = Arc::clone(&barrier);
            let got = Arc::clone(&got);
            joins.push(std::thread::spawn(move || {
                barrier.wait();
                while got.load(Ordering::Relaxed) < VALUES {
                    if ring.pop().is_some() {
                        got.fetch_add(1, Ordering::Relaxed);
                    } else {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(got.load(Ordering::Relaxed), VALUES);
        assert!(ring.is_empty());
    }
}
