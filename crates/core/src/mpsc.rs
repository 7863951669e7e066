//! Wait-free-consumer MPSC fan-in ring: FAA-ticketed producers,
//! single-consumer monotone cursor.
//!
//! The half-relaxed sibling of [`crate::spsc::SpscRing`] (DESIGN.md §13).
//! The *multi* side (producers) takes positions with one fetch-and-add on
//! `tail` and publishes each value through a per-slot cycle-tagged
//! sequence word, SCQ-style (arXiv 1908.04511): slot `pos & mask` is
//! published by storing `pos + 1` into its `seq`. The *single* side (the
//! consumer) owns the monotone `head` cursor outright — one sequence
//! load, one slot read, one cursor store per pop, no CAS, so dequeues
//! are wait-free; `pop_batch` drains a published run and issues the
//! cursor store plus the credit return **once** (the batched
//! single-publication point, like the SPSC ring's).
//!
//! Unbounded FAA overshoot — the classic failure mode of ticketed
//! bounded rings (a producer that FAAs past a full ring strands a ticket
//! the consumer will wait on forever) — is prevented by an occupancy
//! *gate*: a `credits` semaphore that producers take before ticketing
//! and the consumer returns after reading. A ticket is only ever issued
//! with a credit in hand, so position `t` is taken only after position
//! `t - slots` was consumed, and slots are never aliased. The
//! reuse-safety argument needs one subtlety: the peer whose gate
//! acquisition observed our slot's release may be a *different* producer
//! than the one reusing the slot, so the release chain runs
//! consumer-release → some producer's gate acquire → that producer's
//! `tail` FAA → our `tail` FAA (RMWs on one cell form a release
//! sequence) → our slot write. Both RMW sites are therefore `AcqRel`
//! ([`mem::RING_GATE`], [`mem::RING_TICKET`]).
//!
//! Like the SPSC ring, the type hands out owned endpoints —
//! [`MpscProducer`] registrations and the single [`MpscConsumer`] claim,
//! each released on drop — for the sharded frontend, plus a safe
//! [`ConcurrentQueue`] facade that holds endpoints per handle and treats
//! a second concurrent consumer as a contract violation (loud panic; the
//! sharded frontend instead *promotes*).
//!
//! Emptiness is slot-local: the consumer polls `seq` of the head slot
//! only. A stalled producer holding ticket `h` makes `pop` return `None`
//! even while later tickets are already published — the documented
//! relaxation (a bounded-stall analogue of the sharded frontend's
//! relaxed-FIFO contract); per-producer FIFO is exact because tickets on
//! one producer are program-ordered and the consumer drains tickets in
//! order.

use crate::registry::ArityRegistry;
use nbq_util::{mem, CachePadded, ConcurrentQueue, Full, QueueHandle, QueueKind};
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicI64, AtomicU64};

/// One ring slot: the publication sequence word plus the value cell.
struct Slot<T> {
    /// Cycle-tagged publication word: position `p`'s value is published
    /// by storing `p + 1`. Never equals `q + 1` for a *different*
    /// position `q` mapping to this slot (positions are monotone u64s,
    /// cycles apart), so a late consumer can't trust a stale cycle.
    seq: AtomicU64,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// Producer-side state: the last ticket this producer took, so the
/// sharded demotion protocol can detect the *self-observed drained
/// instant* — `head` has passed every position this producer wrote, the
/// MPSC generalization of the SPSC ring's exact-empty producer switch
/// (per-producer FIFO across the switch needs only *our own* residue
/// gone, and `head` monotonicity makes that exactly checkable).
#[derive(Debug, Clone)]
struct MpscProducerCursor {
    last_ticket: u64,
}

/// No ticket taken yet.
const NO_TICKET: u64 = u64::MAX;

/// Stack-staging chunk for [`MpscRing::push_batch`]: tickets are
/// claimed one FAA per up-to-this-many items already pulled from the
/// caller's iterator, so a run is never claimed for items that might
/// not materialize.
const PUSH_STAGE: usize = 32;

impl MpscProducerCursor {
    fn new() -> Self {
        Self {
            last_ticket: NO_TICKET,
        }
    }
}

/// Consumer-side cursor: the ring's `head`, mirrored locally because the
/// claim holder is its only writer (the atomic is published for `len`,
/// deadness checks, and producer drain detection — never re-read on the
/// hot path).
#[derive(Debug, Clone)]
struct MpscConsumerCursor {
    head: u64,
}

/// Bounded MPSC ring: any number of producers, exactly one consumer.
///
/// See the module docs for the layout and the gate/ticket protocol.
/// Pushes and pops go through the owned endpoints ([`MpscProducer`],
/// [`MpscConsumer`]); the ring itself never blocks, never allocates
/// after construction, and never spins.
pub struct MpscRing<T> {
    /// Consumer's monotone cursor (next position to pop).
    head: CachePadded<AtomicU64>,
    /// Producers' monotone ticket counter (next position to claim).
    tail: CachePadded<AtomicU64>,
    /// Occupancy gate: remaining capacity. Producers take one before
    /// ticketing; the consumer returns them after reading. Transiently
    /// negative under a producer burst (each loser refunds), bounded by
    /// the number of concurrent producers.
    credits: CachePadded<AtomicI64>,
    slots: Box<[Slot<T>]>,
    mask: u64,
    cap: usize,
    arity: ArityRegistry,
}

// SAFETY: values move across threads whole (producers write disjoint
// credit-guarded slots, the consumer reads only published ones), so
// `T: Send` is the only requirement.
unsafe impl<T: Send> Send for MpscRing<T> {}
unsafe impl<T: Send> Sync for MpscRing<T> {}

impl<T> MpscRing<T> {
    /// A ring that accepts `capacity` in-flight values (minimum 1). Slot
    /// count rounds up to a power of two; the advertised capacity — and
    /// the credit gate — stay exact.
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(1);
        let slots = cap.next_power_of_two();
        Self {
            head: CachePadded::new(AtomicU64::new(0)),
            tail: CachePadded::new(AtomicU64::new(0)),
            credits: CachePadded::new(AtomicI64::new(cap as i64)),
            slots: (0..slots)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    value: UnsafeCell::new(MaybeUninit::uninit()),
                })
                .collect(),
            mask: (slots - 1) as u64,
            cap,
            arity: ArityRegistry::new(),
        }
    }

    /// Advertised capacity (exact: the credit gate enforces it).
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Point-in-time occupancy, including tickets whose values are still
    /// being written. Loading `head` first keeps the subtraction from
    /// going negative when producers race the two loads.
    pub fn len(&self) -> usize {
        let head = self.head.load(mem::SPSC_CURSOR_LOAD);
        let tail = self.tail.load(mem::SPSC_CURSOR_LOAD);
        tail.saturating_sub(head) as usize
    }

    /// Whether the ring holds no values (and no in-flight tickets).
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
    /// producer registration is blocked) and every producer registration
    /// released. Emptiness observed *after* this holds forever.
    pub(crate) fn writers_gone(&self) -> bool {
        self.arity.promoted() && self.arity.multi_count() == 0
    }

    /// Registers one producer on the multi side; `None` once the ring's
    /// lane was promoted (see [`ArityRegistry::try_register_multi`]).
    pub fn register_producer(&self) -> Option<MpscProducer<'_, T>> {
        self.arity.try_register_multi().then(|| MpscProducer {
            ring: self,
            cur: self.producer_cursor(),
        })
    }

    /// Claims the single consumer endpoint; `None` if it is held or the
    /// ring's lane was promoted.
    pub fn claim_consumer(&self) -> Option<MpscConsumer<'_, T>> {
        self.arity.try_claim_consumer().then(|| MpscConsumer {
            ring: self,
            cur: self.consumer_cursor(),
        })
    }

    /// Claims the consumer endpoint even on a promoted lane, to drain
    /// residue; `None` only if it is held.
    pub fn reclaim_consumer(&self) -> Option<MpscConsumer<'_, T>> {
        self.arity.try_reclaim_consumer().then(|| MpscConsumer {
            ring: self,
            cur: self.consumer_cursor(),
        })
    }

    /// A fresh producer-side cursor (no ticket taken yet).
    fn producer_cursor(&self) -> MpscProducerCursor {
        MpscProducerCursor::new()
    }

    /// A consumer cursor synced to the ring's current `head`. Callers
    /// must hold the consumer claim before *using* it.
    fn consumer_cursor(&self) -> MpscConsumerCursor {
        MpscConsumerCursor {
            head: self.head.load(mem::SPSC_CURSOR_LOAD),
        }
    }

    /// Whether every position this producer ever wrote has been
    /// consumed — the self-observed drained instant that makes the
    /// post-promotion switch to the MPMC lane preserve per-producer
    /// FIFO. Monotone `head` makes this exact, never speculative.
    fn producer_drained(&self, cur: &MpscProducerCursor) -> bool {
        cur.last_ticket == NO_TICKET || self.head.load(mem::SPSC_CURSOR_LOAD) > cur.last_ticket
    }

    /// Producer push: one gate RMW, one ticket FAA, one slot write, one
    /// publication store — wait-free, any number of callers.
    fn push(&self, cur: &mut MpscProducerCursor, value: T) -> Result<(), Full<T>> {
        let before = self.credits.fetch_sub(1, mem::RING_GATE);
        if before <= 0 {
            self.credits.fetch_add(1, mem::RING_GATE);
            return Err(Full(value));
        }
        let pos = self.tail.fetch_add(1, mem::RING_TICKET);
        let slot = &self.slots[(pos & self.mask) as usize];
        // SAFETY: the credit taken above proves position `pos - slots`
        // was consumed (see module docs), so this slot is ours alone
        // until the consumer sees the `seq` store below.
        unsafe { (*slot.value.get()).write(value) };
        slot.seq.store(pos.wrapping_add(1), mem::SPSC_PUBLISH);
        cur.last_ticket = pos;
        Ok(())
    }

    /// Producer batch push: reserves credits for the whole batch with
    /// one gate RMW, then claims a contiguous ticket run with one FAA
    /// per staged chunk and publishes per slot (the consumer consumes
    /// in ticket order, so each slot must carry its own publication).
    /// Returns how many items were accepted; the iterator is only
    /// advanced that far.
    ///
    /// Tickets — unlike credits — cannot be refunded once claimed: an
    /// unpublished ticket stalls the consumer at that position forever.
    /// So items are staged through a small stack buffer and each ticket
    /// run covers only items actually in hand; an `ExactSizeIterator`
    /// whose `len()` over-reports yields a short batch (unused credits
    /// refunded), never a stalled ring.
    fn push_batch<I>(&self, cur: &mut MpscProducerCursor, items: &mut I) -> usize
    where
        I: ExactSizeIterator<Item = T>,
    {
        let want = items.len() as i64;
        if want == 0 {
            return 0;
        }
        let before = self.credits.fetch_sub(want, mem::RING_GATE);
        let got = before.min(want).max(0);
        if got < want {
            self.credits.fetch_add(want - got, mem::RING_GATE);
        }
        if got == 0 {
            return 0;
        }
        let mut pushed: i64 = 0;
        while pushed < got {
            let target = ((got - pushed) as usize).min(PUSH_STAGE);
            let mut stage: [Option<T>; PUSH_STAGE] = std::array::from_fn(|_| None);
            let mut n = 0usize;
            while n < target {
                match items.next() {
                    Some(v) => {
                        stage[n] = Some(v);
                        n += 1;
                    }
                    None => break,
                }
            }
            if n == 0 {
                break;
            }
            let start = self.tail.fetch_add(n as u64, mem::RING_TICKET);
            for (i, staged) in stage.iter_mut().take(n).enumerate() {
                let pos = start.wrapping_add(i as u64);
                let slot = &self.slots[(pos & self.mask) as usize];
                let value = staged.take().expect("staged above");
                // SAFETY: as in `push` — each ticket in the run is
                // backed by a credit.
                unsafe { (*slot.value.get()).write(value) };
                slot.seq.store(pos.wrapping_add(1), mem::SPSC_PUBLISH);
            }
            cur.last_ticket = start.wrapping_add(n as u64 - 1);
            pushed += n as i64;
            if n < target {
                break;
            }
        }
        if pushed < got {
            // The iterator's `len()` over-reported: refund the credits
            // that never became tickets.
            self.credits.fetch_add(got - pushed, mem::RING_GATE);
        }
        pushed as usize
    }

    /// Consumer pop.
    ///
    /// # Safety
    ///
    /// The caller must be the ring's only concurrent consumer (hold the
    /// [`ArityRegistry`] consumer claim) and `cur` must be the cursor
    /// state for that claim.
    unsafe fn pop(&self, cur: &mut MpscConsumerCursor) -> Option<T> {
        let head = cur.head;
        let slot = &self.slots[(head & self.mask) as usize];
        if slot.seq.load(mem::SLOT_LOAD) != head.wrapping_add(1) {
            return None;
        }
        // SAFETY: the sequence word says position `head` is published,
        // and we are the only consumer.
        let value = unsafe { (*slot.value.get()).assume_init_read() };
        cur.head = head.wrapping_add(1);
        self.head.store(cur.head, mem::SPSC_PUBLISH);
        self.credits.fetch_add(1, mem::RING_GATE);
        Some(value)
    }

    /// Consumer batch pop: drains up to `max` published values and
    /// issues the cursor store and the credit return **once** — the
    /// single-publication point of the single side.
    ///
    /// # Safety
    ///
    /// As for [`MpscRing::pop`].
    unsafe fn pop_batch(
        &self,
        cur: &mut MpscConsumerCursor,
        out: &mut Vec<T>,
        max: usize,
    ) -> usize {
        let mut taken = 0u64;
        while (taken as usize) < max {
            let pos = cur.head.wrapping_add(taken);
            let slot = &self.slots[(pos & self.mask) as usize];
            if slot.seq.load(mem::SLOT_LOAD) != pos.wrapping_add(1) {
                break;
            }
            // SAFETY: published, single consumer (caller contract).
            out.push(unsafe { (*slot.value.get()).assume_init_read() });
            taken += 1;
        }
        if taken > 0 {
            cur.head = cur.head.wrapping_add(taken);
            self.head.store(cur.head, mem::SPSC_PUBLISH);
            self.credits.fetch_add(taken as i64, mem::RING_GATE);
        }
        taken as usize
    }
}

impl<T> Drop for MpscRing<T> {
    fn drop(&mut self) {
        // Exclusive access: no tickets are in flight, so every position
        // in `head..tail` is published. The seq check is belt-and-braces
        // against a caller that leaked a mid-push panic.
        let head = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        for pos in head..tail {
            let slot = &mut self.slots[(pos & self.mask) as usize];
            if *slot.seq.get_mut() == pos.wrapping_add(1) {
                // SAFETY: published and never consumed; dropped once.
                unsafe { (*slot.value.get()).assume_init_drop() };
            }
        }
    }
}

/// A producer registration on an [`MpscRing`]'s multi side: releases
/// the registration on drop. Any number may be live at once.
pub struct MpscProducer<'q, T> {
    ring: &'q MpscRing<T>,
    cur: MpscProducerCursor,
}

impl<T> MpscProducer<'_, T> {
    /// Pushes `value`, or returns it in `Full` when the ring is full.
    pub fn push(&mut self, value: T) -> Result<(), Full<T>> {
        self.ring.push(&mut self.cur, value)
    }

    /// Pushes up to `items.len()` values; returns how many were taken.
    pub fn push_batch<I: ExactSizeIterator<Item = T>>(&mut self, items: &mut I) -> usize {
        self.ring.push_batch(&mut self.cur, items)
    }

    /// Whether everything this producer pushed has been consumed (see
    /// [`MpscRing`]'s module docs on the self-observed drained instant).
    pub fn drained(&self) -> bool {
        self.ring.producer_drained(&self.cur)
    }
}

impl<T> Drop for MpscProducer<'_, T> {
    fn drop(&mut self) {
        self.ring.arity.release_multi();
    }
}

/// The single consumer endpoint of an [`MpscRing`]: holds the consumer
/// claim for its lifetime and releases it on drop.
pub struct MpscConsumer<'q, T> {
    ring: &'q MpscRing<T>,
    cur: MpscConsumerCursor,
}

impl<T> MpscConsumer<'_, T> {
    /// Pops the oldest published value, or `None`.
    pub fn pop(&mut self) -> Option<T> {
        // SAFETY: this endpoint holds the consumer claim.
        unsafe { self.ring.pop(&mut self.cur) }
    }

    /// Pops up to `max` published values into `out`.
    pub fn pop_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        // SAFETY: this endpoint holds the consumer claim.
        unsafe { self.ring.pop_batch(&mut self.cur, out, max) }
    }
}

impl<T> Drop for MpscConsumer<'_, T> {
    fn drop(&mut self) {
        self.ring.arity.release_consumer();
    }
}

/// Per-thread handle for the safe facade: registers as a producer on
/// first enqueue, claims the consumer side on first dequeue.
pub struct MpscRingHandle<'q, T> {
    ring: &'q MpscRing<T>,
    prod: Option<MpscProducer<'q, T>>,
    cons: Option<MpscConsumer<'q, T>>,
}

impl<'q, T> MpscRingHandle<'q, T> {
    fn producer(&mut self) -> &mut MpscProducer<'q, T> {
        let ring = self.ring;
        self.prod.get_or_insert_with(|| {
            ring.register_producer().expect(
                "producer registration on a promoted MPSC ring; standalone rings never \
                 promote, so this handle outlived a sharded lane protocol it was not part of",
            )
        })
    }

    fn consumer(&mut self) -> &mut MpscConsumer<'q, T> {
        let ring = self.ring;
        self.cons.get_or_insert_with(|| {
            ring.claim_consumer().expect(
                "second concurrent consumer on a wait-free-consumer MPSC ring; \
                 use `ShardedQueue` with `LanePolicy::MpscFastPath` if consumer \
                 arity is not statically single",
            )
        })
    }
}

impl<T: Send> QueueHandle<T> for MpscRingHandle<'_, T> {
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

impl<T: Send> ConcurrentQueue<T> for MpscRing<T> {
    type Handle<'q>
        = MpscRingHandle<'q, T>
    where
        Self: 'q;

    fn handle(&self) -> MpscRingHandle<'_, T> {
        MpscRingHandle {
            ring: self,
            prod: None,
            cons: None,
        }
    }

    fn capacity(&self) -> Option<usize> {
        Some(self.cap)
    }

    fn len(&self) -> Option<usize> {
        Some(MpscRing::len(self))
    }

    fn algorithm_name(&self) -> &'static str {
        "Wait-free-consumer MPSC ring"
    }

    fn kind(&self) -> QueueKind {
        QueueKind::mpsc_wait_free()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<T> MpscRing<T> {
        fn arity(&self) -> &ArityRegistry {
            &self.arity
        }
    }
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Barrier};

    #[test]
    fn single_thread_round_trip() {
        let ring = MpscRing::with_capacity(4);
        assert_eq!(ring.capacity(), 4);
        assert!(ring.is_empty());
        let mut prod = ring.producer_cursor();
        let mut cons = ring.consumer_cursor();
        for v in 0..4u64 {
            ring.push(&mut prod, v).unwrap();
        }
        assert_eq!(ring.len(), 4);
        assert!(ring.push(&mut prod, 99).is_err(), "full at capacity");
        for v in 0..4u64 {
            assert_eq!(unsafe { ring.pop(&mut cons) }, Some(v));
        }
        assert_eq!(unsafe { ring.pop(&mut cons) }, None);
        assert!(ring.is_empty());
    }

    #[test]
    fn capacity_is_exact_not_rounded() {
        // 5 rounds to 8 slots but the credit gate still stops at 5.
        let ring = MpscRing::with_capacity(5);
        let mut prod = ring.producer_cursor();
        for v in 0..5u64 {
            ring.push(&mut prod, v).unwrap();
        }
        assert!(ring.push(&mut prod, 5).is_err());
        let mut cons = ring.consumer_cursor();
        assert_eq!(unsafe { ring.pop(&mut cons) }, Some(0));
        ring.push(&mut prod, 5).expect("freed capacity is reusable");
    }

    #[test]
    fn wraps_through_many_cycles() {
        let ring = MpscRing::with_capacity(2);
        let mut prod = ring.producer_cursor();
        let mut cons = ring.consumer_cursor();
        for v in 0..1_000u64 {
            ring.push(&mut prod, v).unwrap();
            assert_eq!(unsafe { ring.pop(&mut cons) }, Some(v));
        }
    }

    #[test]
    fn batch_ops_move_runs() {
        let ring = MpscRing::with_capacity(8);
        let mut prod = ring.producer_cursor();
        let mut cons = ring.consumer_cursor();
        let mut items = (0..12u64).collect::<Vec<_>>().into_iter();
        // Only capacity-many fit; the iterator must not lose the rest.
        assert_eq!(ring.push_batch(&mut prod, &mut items), 8);
        assert_eq!(items.len(), 4);
        let mut out = Vec::new();
        assert_eq!(unsafe { ring.pop_batch(&mut cons, &mut out, 16) }, 8);
        assert_eq!(out, (0..8u64).collect::<Vec<_>>());
        assert_eq!(ring.push_batch(&mut prod, &mut items), 4);
        out.clear();
        assert_eq!(unsafe { ring.pop_batch(&mut cons, &mut out, 2) }, 2);
        assert_eq!(out, vec![8, 9]);
    }

    #[test]
    fn batch_ops_span_multiple_stage_chunks() {
        let ring = MpscRing::with_capacity(128);
        let mut prod = ring.producer_cursor();
        let mut cons = ring.consumer_cursor();
        let mut items = (0..100u64).collect::<Vec<_>>().into_iter();
        assert_eq!(ring.push_batch(&mut prod, &mut items), 100);
        let mut out = Vec::new();
        assert_eq!(unsafe { ring.pop_batch(&mut cons, &mut out, 128) }, 100);
        assert_eq!(out, (0..100u64).collect::<Vec<_>>());
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

    #[test]
    fn lying_exact_size_iterator_cannot_stall_the_ring() {
        // A safe-code ExactSizeIterator may over-report len(). The batch
        // push must not claim tickets it cannot publish (an unpublished
        // ticket stalls the consumer at that position forever) and must
        // refund the over-reserved credits.
        let ring = MpscRing::with_capacity(8);
        let mut prod = ring.producer_cursor();
        let mut items = OverReporting {
            inner: vec![0, 1, 2].into_iter(),
            lie: 3,
        };
        assert_eq!(ring.push_batch(&mut prod, &mut items), 3);
        let mut cons = ring.consumer_cursor();
        let mut out = Vec::new();
        assert_eq!(unsafe { ring.pop_batch(&mut cons, &mut out, 8) }, 3);
        assert_eq!(out, vec![0, 1, 2]);
        // Liveness and capacity intact: a full honest batch still fits,
        // proving the shortfall's credits were refunded.
        let mut items = (10..18u64).collect::<Vec<_>>().into_iter();
        assert_eq!(ring.push_batch(&mut prod, &mut items), 8);
        out.clear();
        assert_eq!(unsafe { ring.pop_batch(&mut cons, &mut out, 16) }, 8);
        assert_eq!(out, (10..18u64).collect::<Vec<_>>());
        assert!(ring.is_empty());
    }

    #[test]
    fn producer_drained_tracks_own_residue_only() {
        let ring = MpscRing::with_capacity(8);
        let mut a = ring.producer_cursor();
        let mut b = ring.producer_cursor();
        assert!(ring.producer_drained(&a), "no pushes yet");
        ring.push(&mut a, 1).unwrap();
        ring.push(&mut b, 2).unwrap();
        assert!(!ring.producer_drained(&a));
        let mut cons = ring.consumer_cursor();
        assert_eq!(unsafe { ring.pop(&mut cons) }, Some(1));
        assert!(ring.producer_drained(&a), "a's only ticket was consumed");
        assert!(!ring.producer_drained(&b), "b's value is still in flight");
    }

    #[test]
    fn fan_in_pipe_keeps_per_producer_fifo() {
        const PRODUCERS: usize = 3;
        const PER_PRODUCER: u64 = 20_000;
        let ring = MpscRing::with_capacity(64);
        let barrier = Barrier::new(PRODUCERS + 1);
        std::thread::scope(|s| {
            for t in 0..PRODUCERS {
                let ring = &ring;
                let barrier = &barrier;
                s.spawn(move || {
                    let mut cur = ring.producer_cursor();
                    barrier.wait();
                    for seq in 0..PER_PRODUCER {
                        let value = ((t as u64) << 40) | seq;
                        while ring.push(&mut cur, value).is_err() {
                            std::hint::spin_loop();
                        }
                    }
                });
            }
            let ring = &ring;
            let barrier = &barrier;
            s.spawn(move || {
                let mut cur = ring.consumer_cursor();
                let mut next = [0u64; PRODUCERS];
                let mut got = 0u64;
                barrier.wait();
                while got < PRODUCERS as u64 * PER_PRODUCER {
                    if let Some(v) = unsafe { ring.pop(&mut cur) } {
                        let t = (v >> 40) as usize;
                        let seq = v & ((1 << 40) - 1);
                        assert_eq!(seq, next[t], "producer {t} stream out of order");
                        next[t] += 1;
                        got += 1;
                    } else {
                        std::hint::spin_loop();
                    }
                }
            });
        });
        assert!(ring.is_empty());
    }

    #[test]
    fn trait_facade_round_trips_and_reports_kind() {
        let ring: MpscRing<u64> = MpscRing::with_capacity(8);
        assert_eq!(ConcurrentQueue::capacity(&ring), Some(8));
        assert_eq!(ring.kind(), QueueKind::mpsc_wait_free());
        assert!(ring.kind().admits(4, 1));
        assert!(!ring.kind().admits(1, 2));
        let mut h = ring.handle();
        h.enqueue(7).unwrap();
        assert_eq!(h.dequeue(), Some(7));
        assert_eq!(ring.arity().multi_count(), 1);
        assert!(ring.arity().consumer_claimed());
        drop(h);
        assert_eq!(ring.arity().multi_count(), 0);
        assert!(!ring.arity().consumer_claimed());
    }

    #[test]
    #[should_panic(expected = "second concurrent consumer")]
    fn second_consumer_handle_panics() {
        let ring: MpscRing<u64> = MpscRing::with_capacity(4);
        let mut a = ring.handle();
        let mut b = ring.handle();
        a.enqueue(1).unwrap();
        let _ = a.dequeue();
        let _ = b.dequeue();
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
            let ring = MpscRing::with_capacity(8);
            let mut prod = ring.producer_cursor();
            let mut cons = ring.consumer_cursor();
            for _ in 0..5 {
                ring.push(&mut prod, Counted).unwrap();
            }
            drop(unsafe { ring.pop(&mut cons) });
            // 4 live values ride the ring into drop.
        }
        assert_eq!(DROPS.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn oversubscribed_producers_conserve_values() {
        // More producers than capacity: the credit gate must refund every
        // loser exactly once, or capacity drifts and values are lost.
        const PRODUCERS: usize = 8;
        const PER_PRODUCER: u64 = 2_000;
        let ring = Arc::new(MpscRing::with_capacity(2));
        let barrier = Arc::new(Barrier::new(PRODUCERS + 1));
        let sum = Arc::new(AtomicUsize::new(0));
        let mut joins = Vec::new();
        for t in 0..PRODUCERS {
            let ring = Arc::clone(&ring);
            let barrier = Arc::clone(&barrier);
            joins.push(std::thread::spawn(move || {
                let mut cur = ring.producer_cursor();
                barrier.wait();
                for seq in 0..PER_PRODUCER {
                    let value = ((t as u64) << 40) | seq;
                    while ring.push(&mut cur, value).is_err() {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        {
            let ring = Arc::clone(&ring);
            let barrier = Arc::clone(&barrier);
            let sum = Arc::clone(&sum);
            joins.push(std::thread::spawn(move || {
                let mut cur = ring.consumer_cursor();
                let mut got = 0u64;
                barrier.wait();
                while got < PRODUCERS as u64 * PER_PRODUCER {
                    if let Some(_v) = unsafe { ring.pop(&mut cur) } {
                        got += 1;
                        sum.fetch_add(1, Ordering::Relaxed);
                    } else {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(
            sum.load(Ordering::Relaxed),
            PRODUCERS * PER_PRODUCER as usize
        );
        assert!(ring.is_empty());
    }
}
