//! SCQ — Nikolaev's Scalable Circular Queue (arXiv:1908.04511) —
//! modern-rival extension.
//!
//! SCQ is the 2019 answer to exactly this paper's problem statement: a
//! bounded, lock-free, MPMC FIFO on single-word primitives, with no
//! dynamic nodes and no wide CAS. Where the source paper defends its array
//! slots with LL/SC emulation (§3), SCQ sidesteps slot ABA entirely by an
//! **indirection** design:
//!
//! * the values live in a plain array of `n` data slots;
//! * two *index rings* circulate the slot numbers: `fq` holds the free
//!   indices, `aq` the allocated ones. `enqueue` = pop an index from
//!   `fq`, write the value, push the index onto `aq`; `dequeue` is the
//!   mirror image. Indices are small integers, so a ring entry packs the
//!   index *and* its lap number (**cycle**) *and* a safety flag into one
//!   `u64` — the single-word-primitives constraint holds with room to
//!   spare.
//! * each ring has `2n` entries for `n` circulating indices, which is the
//!   slack that makes the rings themselves livelock-free and removes any
//!   "ring full" path.
//!
//! Per ring, `Head`/`Tail` are unbounded fetch-and-add tickets. An
//! enqueuer deposits at its ticket's slot only if the entry's cycle is
//! older and the entry is empty; a dequeuer whose ticket finds its own
//! cycle consumes the index with one `fetch_or` (setting the index field
//! to ⊥). A dequeuer that arrives *early* (entry still on an older cycle)
//! stamps the slot — `(cycle_h, ⊥)` if empty, or clears the **safe bit**
//! if it skips an old unconsumed index — and falls back on the
//! **threshold** counter: every failed attempt decrements it, every
//! successful enqueue resets it to `3n − 1`, and a negative threshold
//! proves the queue was empty at some point during the call (Nikolaev's
//! Theorem 1), bounding the dequeue retry loop. When `Tail` trails
//! `Head` (only possible through failed dequeues over-claiming tickets),
//! the dequeuer repairs it with the **catchup** CAS loop before giving
//! up its ticket.
//!
//! The `ext-modern` experiment runs this against the paper queues; the
//! per-op `cycle_wraps` / `threshold_resets` / `catchups` counters land in
//! `ext-modern-ops`. See DESIGN.md §12 for the comparison with the §3
//! ABA defenses, and [`crate::wcq`] for the wait-free successor layered
//! on the same ring.

use crate::cycle::{cycle_eq, cycle_lt, ones, pos_le, position_cycle};
use core::cell::UnsafeCell;
use core::mem::MaybeUninit;
use core::sync::atomic::{AtomicI64, AtomicU64};
use nbq_core::OpStats;
use nbq_util::{mem, ring_slot, CachePadded, ConcurrentQueue, Full, QueueHandle, QueueKind};

/// Packs one SCQ ring entry: `[cycle | safe:1 | index:order]`.
///
/// Public (with the accessors below) so `tests/properties.rs` can drive
/// the bit arithmetic through wrap-around edge cases directly.
#[inline]
pub fn scq_pack(order: u32, cycle: u64, safe: bool, idx: u64) -> u64 {
    debug_assert!(idx <= ones(order));
    (cycle << (order + 1)) | ((safe as u64) << order) | (idx & ones(order))
}

/// The (truncated) cycle field of an entry.
#[inline]
pub fn scq_cycle(e: u64, order: u32) -> u64 {
    e >> (order + 1)
}

/// The safe bit of an entry.
#[inline]
pub fn scq_is_safe(e: u64, order: u32) -> bool {
    (e >> order) & 1 == 1
}

/// The index field of an entry (`scq_empty_idx(order)` = ⊥, no index).
#[inline]
pub fn scq_idx(e: u64, order: u32) -> u64 {
    e & ones(order)
}

/// The ⊥ index marker: all ones in the `order`-bit index field. Real
/// indices are `< 2^(order-1)` (half the ring), so ⊥ never collides.
#[inline]
pub fn scq_empty_idx(order: u32) -> u64 {
    ones(order)
}

/// Width of the truncated cycle field for a ring of `1 << order` entries.
#[inline]
pub fn scq_cycle_bits(order: u32) -> u32 {
    63 - order
}

/// Ticks an optional stats block.
#[inline]
fn tick(stats: Option<&OpStats>, f: impl FnOnce(&OpStats)) {
    if let Some(s) = stats {
        f(s);
    }
}

/// Debug-build watchdog: panics if a retry loop spins absurdly long,
/// turning a protocol livelock into a diagnosable failure instead of a
/// hung test.
macro_rules! watchdog {
    ($counter:ident) => {
        #[cfg(debug_assertions)]
        let mut $counter = 0u64;
    };
    ($counter:ident, $what:expr) => {
        #[cfg(debug_assertions)]
        {
            $counter += 1;
            assert!(
                $counter < (1 << 26),
                concat!("scq ring livelock in ", $what)
            );
        }
    };
}

/// One SCQ index ring: `2n` entries circulating at most `n` indices.
pub(crate) struct ScqRing {
    head: CachePadded<AtomicU64>,
    tail: CachePadded<AtomicU64>,
    /// Livelock-prevention counter; reset to [`Self::threshold_max`] by
    /// every successful enqueue, decremented by failed dequeue attempts.
    threshold: CachePadded<AtomicI64>,
    entries: Box<[AtomicU64]>,
    order: u32,
}

impl ScqRing {
    /// Ring size.
    #[inline]
    fn size(&self) -> u64 {
        1u64 << self.order
    }

    /// `3n − 1` for `n = size/2` circulating indices (Nikolaev §4.3: with
    /// a `2n`-entry ring, `3n − 1` failed attempts without an intervening
    /// enqueue prove emptiness).
    #[inline]
    fn threshold_max(&self) -> i64 {
        3 * (1i64 << (self.order - 1)) - 1
    }

    /// A ring with no indices: every entry `(cycle −1, safe, ⊥)` — the
    /// all-ones word — and the threshold already exhausted.
    fn new_empty(order: u32) -> Self {
        assert!((1..=32).contains(&order), "ring order out of range");
        let entries = (0..1u64 << order)
            .map(|_| AtomicU64::new(u64::MAX))
            .collect();
        ScqRing {
            head: CachePadded::new(AtomicU64::new(0)),
            tail: CachePadded::new(AtomicU64::new(0)),
            threshold: CachePadded::new(AtomicI64::new(-1)),
            entries,
            order,
        }
    }

    /// A ring pre-filled with the indices `0..size/2` (the initial state
    /// of `fq`): positions `0..n` hold `(cycle 0, safe, p)`, the rest stay
    /// at the initial word, `Tail` starts at `n`.
    fn new_full(order: u32) -> Self {
        let ring = Self::new_empty(order);
        let half = 1u64 << (order - 1);
        for p in 0..half {
            ring.entries[ring_slot(p, order)].store(scq_pack(order, 0, true, p), mem::RING_STORE);
        }
        ring.tail.store(half, mem::RING_STORE);
        ring.threshold.store(ring.threshold_max(), mem::RING_STORE);
        ring
    }

    /// Deposits index `idx` at the next free tail position. Never fails:
    /// callers circulate at most `size/2` indices through a `size`-entry
    /// ring, so a usable slot is always reachable.
    fn enqueue(&self, idx: u64, stats: Option<&OpStats>) {
        let order = self.order;
        let cbits = scq_cycle_bits(order);
        watchdog!(spins);
        loop {
            watchdog!(spins, "enqueue");
            let t = self.tail.fetch_add(1, mem::INDEX_CAS);
            tick(stats, |s| s.record_faa());
            if t & ones(order) == 0 {
                tick(stats, |s| s.record_cycle_wrap());
            }
            let cycle_t = position_cycle(t, order);
            let j = ring_slot(t, order);
            let mut e = self.entries[j].load(mem::SLOT_LOAD);
            loop {
                // Usable iff the entry is from an older lap, carries no
                // index, and either is safe or provably has its matching
                // dequeue ticket still unissued (Head ≤ T).
                let usable = cycle_lt(scq_cycle(e, order), cycle_t, cbits)
                    && scq_idx(e, order) == scq_empty_idx(order)
                    && (scq_is_safe(e, order) || pos_le(self.head.load(mem::INDEX_LOAD), t));
                if !usable {
                    break; // take a fresh ticket
                }
                let new = scq_pack(order, cycle_t, true, idx);
                tick(stats, |s| s.record_slot_cas_attempt());
                match self.entries[j].compare_exchange_weak(
                    e,
                    new,
                    mem::SLOT_CAS,
                    mem::SLOT_CAS_FAIL,
                ) {
                    Ok(_) => {
                        tick(stats, |s| s.record_slot_cas_success());
                        // Wake up threshold-bounded dequeuers.
                        if self.threshold.load(mem::INDEX_LOAD) != self.threshold_max() {
                            self.threshold.store(self.threshold_max(), mem::RING_STORE);
                            tick(stats, |s| s.record_threshold_reset());
                        }
                        return;
                    }
                    Err(cur) => e = cur,
                }
            }
        }
    }

    /// Pops the next index, or `None` if the ring is (linearizably)
    /// empty.
    fn dequeue(&self, stats: Option<&OpStats>) -> Option<u64> {
        let order = self.order;
        let cbits = scq_cycle_bits(order);
        let empty = scq_empty_idx(order);
        // Fast empty check: a negative threshold proves a recent window
        // with no successful enqueue and enough failed attempts to have
        // drained any pending one.
        if self.threshold.load(mem::INDEX_LOAD) < 0 {
            return None;
        }
        watchdog!(spins);
        loop {
            watchdog!(spins, "dequeue");
            let h = self.head.fetch_add(1, mem::INDEX_CAS);
            tick(stats, |s| s.record_faa());
            let cycle_h = position_cycle(h, order);
            let j = ring_slot(h, order);
            let mut e = self.entries[j].load(mem::SLOT_LOAD);
            loop {
                let cycle_e = scq_cycle(e, order);
                if cycle_eq(cycle_e, cycle_h, cbits) {
                    // Our lap's entry: consume by saturating the index
                    // field to ⊥ (cycle and safe bit survive the OR).
                    let prev = self.entries[j].fetch_or(empty, mem::SLOT_CAS);
                    tick(stats, |s| {
                        s.record_slot_cas_attempt();
                        s.record_slot_cas_success();
                    });
                    let idx = scq_idx(prev, order);
                    debug_assert_ne!(idx, empty, "consumed an already-empty scq entry");
                    return Some(idx);
                }
                if !cycle_lt(cycle_e, cycle_h, cbits) {
                    break; // entry already on a later lap; ticket wasted
                }
                // Entry from an older lap: stamp it so a late enqueuer
                // cannot deposit for a ticket that has already passed.
                let new = if scq_idx(e, order) == empty {
                    // Empty: burn the slot up to our cycle.
                    scq_pack(order, cycle_h, scq_is_safe(e, order), empty)
                } else {
                    // Old unconsumed index: leave it for its (stalled)
                    // dequeuer but clear the safe bit.
                    scq_pack(order, cycle_e, false, scq_idx(e, order))
                };
                tick(stats, |s| s.record_slot_cas_attempt());
                match self.entries[j].compare_exchange_weak(
                    e,
                    new,
                    mem::SLOT_CAS,
                    mem::SLOT_CAS_FAIL,
                ) {
                    Ok(_) => {
                        tick(stats, |s| s.record_slot_cas_success());
                        break;
                    }
                    Err(cur) => e = cur,
                }
            }
            // Ticket spent without a value: emptiness bookkeeping.
            let t = self.tail.load(mem::INDEX_LOAD);
            if pos_le(t, h.wrapping_add(1)) {
                // Tail at or behind our spent ticket: repair it, give up.
                self.catchup(t, h.wrapping_add(1), stats);
                self.threshold.fetch_sub(1, mem::INDEX_CAS);
                return None;
            }
            if self.threshold.fetch_sub(1, mem::INDEX_CAS) <= 0 {
                return None;
            }
        }
    }

    /// Repairs a `Tail` that failed dequeues have left behind `Head`
    /// (Nikolaev Fig. 5 `catchup`): CAS `Tail` forward to `head`, giving
    /// up as soon as someone else has moved it at least as far.
    fn catchup(&self, mut tail: u64, mut head: u64, stats: Option<&OpStats>) {
        tick(stats, |s| s.record_catchup());
        loop {
            tick(stats, |s| s.record_index_cas_attempt());
            match self
                .tail
                .compare_exchange_weak(tail, head, mem::INDEX_CAS, mem::INDEX_CAS_FAIL)
            {
                Ok(_) => {
                    tick(stats, |s| s.record_index_cas_success());
                    return;
                }
                Err(_) => {
                    head = self.head.load(mem::INDEX_LOAD);
                    tail = self.tail.load(mem::INDEX_LOAD);
                    if pos_le(head, tail) {
                        return;
                    }
                }
            }
        }
    }

    /// Point-in-time occupancy (`Tail − Head`, clamped to the circulating
    /// index count).
    fn occupancy(&self) -> usize {
        let t = self.tail.load(mem::INDEX_LOAD);
        let h = self.head.load(mem::INDEX_LOAD);
        let diff = t.wrapping_sub(h) as i64;
        (diff.max(0) as u64).min(self.size() >> 1) as usize
    }
}

/// Nikolaev's SCQ: a bounded lock-free MPMC FIFO of capacity `n`
/// (rounded up to a power of two) built from two `2n`-entry index rings
/// and a plain data array — no dynamic nodes, no wide CAS, no per-slot
/// LL/SC emulation.
///
/// ```
/// use nbq_baselines::ScqQueue;
/// use nbq_util::{ConcurrentQueue, QueueHandle};
///
/// let q = ScqQueue::<&'static str>::with_capacity(2);
/// let mut h = q.handle();
/// h.enqueue("a").unwrap();
/// h.enqueue("b").unwrap();
/// assert!(h.enqueue("c").is_err()); // full at exact capacity
/// assert_eq!(h.dequeue(), Some("a"));
/// ```
pub struct ScqQueue<T> {
    /// Ring of allocated (value-carrying) slot indices.
    aq: ScqRing,
    /// Ring of free slot indices; empty `fq` = queue full.
    fq: ScqRing,
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    capacity: usize,
    stats: Option<Box<OpStats>>,
}

// SAFETY: slot ownership is handed off through the index rings — an index
// is reachable from exactly one ring at a time, and ring transfer pairs a
// release CAS with an acquire consume, so the data slot it names is
// accessed by one thread at a time with the writes visible.
unsafe impl<T: Send> Send for ScqQueue<T> {}
unsafe impl<T: Send> Sync for ScqQueue<T> {}

impl<T: Send> ScqQueue<T> {
    /// A queue holding up to `capacity` items (rounded up to a power of
    /// two, minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        Self::build(capacity, false)
    }

    /// Like [`Self::with_capacity`], with per-operation instruction
    /// counters enabled (see [`OpStats`]).
    pub fn with_stats(capacity: usize) -> Self {
        Self::build(capacity, true)
    }

    fn build(capacity: usize, stats: bool) -> Self {
        let capacity = capacity.next_power_of_two().max(1);
        assert!(capacity <= 1 << 31, "scq capacity out of range");
        // Ring size 2n ⇒ order = log2(n) + 1.
        let order = capacity.trailing_zeros() + 1;
        let slots = (0..capacity)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect();
        ScqQueue {
            aq: ScqRing::new_empty(order),
            fq: ScqRing::new_full(order),
            slots,
            capacity,
            stats: stats.then(|| Box::new(OpStats::default())),
        }
    }

    /// The instruction counters, if built via [`Self::with_stats`].
    pub fn stats(&self) -> Option<&OpStats> {
        self.stats.as_deref()
    }

    fn push(&self, value: T) -> Result<(), Full<T>> {
        let stats = self.stats.as_deref();
        let Some(idx) = self.fq.dequeue(stats) else {
            return Err(Full(value));
        };
        // SAFETY: `idx` came off the free ring, so no other thread can
        // name this slot until we publish it through `aq` below; the
        // release CAS in `aq.enqueue` orders the write before any
        // consumer's acquire.
        unsafe { (*self.slots[idx as usize].get()).write(value) };
        self.aq.enqueue(idx, stats);
        tick(stats, |s| s.record_operation());
        Ok(())
    }

    fn pop(&self) -> Option<T> {
        let stats = self.stats.as_deref();
        let idx = self.aq.dequeue(stats)?;
        // SAFETY: the acquire consume in `aq.dequeue` grants us exclusive
        // ownership of the slot the enqueuer released; the value was
        // fully written before the index was published.
        let value = unsafe { (*self.slots[idx as usize].get()).assume_init_read() };
        self.fq.enqueue(idx, stats);
        tick(stats, |s| s.record_operation());
        Some(value)
    }
}

impl<T> Drop for ScqQueue<T> {
    fn drop(&mut self) {
        // Drain undelivered values; `&mut self` means no concurrency.
        while let Some(idx) = self.aq.dequeue(None) {
            unsafe { (*self.slots[idx as usize].get()).assume_init_drop() };
        }
    }
}

/// Per-thread handle for [`ScqQueue`] (stateless — SCQ needs no
/// per-thread protocol state).
pub struct ScqHandle<'q, T> {
    queue: &'q ScqQueue<T>,
}

impl<T: Send> QueueHandle<T> for ScqHandle<'_, T> {
    fn enqueue(&mut self, value: T) -> Result<(), Full<T>> {
        self.queue.push(value)
    }

    fn dequeue(&mut self) -> Option<T> {
        self.queue.pop()
    }
}

impl<T: Send> ConcurrentQueue<T> for ScqQueue<T> {
    type Handle<'q>
        = ScqHandle<'q, T>
    where
        Self: 'q;

    fn handle(&self) -> Self::Handle<'_> {
        ScqHandle { queue: self }
    }

    fn capacity(&self) -> Option<usize> {
        Some(self.capacity)
    }

    fn len(&self) -> Option<usize> {
        Some(self.aq.occupancy())
    }

    fn algorithm_name(&self) -> &'static str {
        "scq"
    }

    fn kind(&self) -> QueueKind {
        QueueKind::mpmc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    #[test]
    fn cycle_entry_roundtrip() {
        for order in 1..20u32 {
            let empty = scq_empty_idx(order);
            for &(cycle, safe, idx) in &[
                (0u64, true, 0u64),
                (7, false, 1),
                (u64::MAX >> (order + 1), true, 0),
            ] {
                let idx = idx.min(empty);
                let e = scq_pack(order, cycle, safe, idx);
                assert_eq!(scq_cycle(e, order), cycle & ones(scq_cycle_bits(order)));
                assert_eq!(scq_is_safe(e, order), safe);
                assert_eq!(scq_idx(e, order), idx);
            }
            // The initial word is cycle −1, safe, ⊥.
            assert_eq!(scq_cycle(u64::MAX, order), ones(scq_cycle_bits(order)));
            assert!(scq_is_safe(u64::MAX, order));
            assert_eq!(scq_idx(u64::MAX, order), empty);
        }
    }

    #[test]
    fn cycle_fields_never_overlap() {
        for order in 1..20u32 {
            let e = scq_pack(order, 0, false, scq_empty_idx(order));
            assert_eq!(scq_cycle(e, order), 0);
            assert!(!scq_is_safe(e, order));
            let e = scq_pack(order, 1, false, 0);
            assert_eq!(scq_cycle(e, order), 1);
            assert_eq!(scq_idx(e, order), 0);
            assert!(!scq_is_safe(e, order));
        }
    }

    #[test]
    fn fifo_single_thread() {
        let q = ScqQueue::<u64>::with_capacity(8);
        let mut h = q.handle();
        for v in 0..8 {
            h.enqueue(v).unwrap();
        }
        for v in 0..8 {
            assert_eq!(h.dequeue(), Some(v));
        }
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn full_at_exact_capacity() {
        let q = ScqQueue::<u64>::with_capacity(4);
        assert_eq!(q.capacity(), Some(4));
        let mut h = q.handle();
        for v in 0..4 {
            h.enqueue(v).unwrap();
        }
        let err = h.enqueue(99).unwrap_err();
        assert_eq!(err.into_inner(), 99);
        assert_eq!(h.dequeue(), Some(0));
        h.enqueue(99).unwrap();
    }

    #[test]
    fn wraps_many_laps() {
        // Capacity 2 ⇒ 4-entry rings: 1000 ops laps the cycle machinery
        // hundreds of times, through both rings.
        let q = ScqQueue::<u64>::with_capacity(2);
        let mut h = q.handle();
        for v in 0..1000u64 {
            h.enqueue(v).unwrap();
            assert_eq!(h.dequeue(), Some(v));
        }
        assert_eq!(h.dequeue(), None);
        assert_eq!(q.len(), Some(0));
    }

    #[test]
    fn empty_dequeues_stay_empty_and_cheap() {
        let q = ScqQueue::<u64>::with_stats(4);
        let mut h = q.handle();
        for _ in 0..100 {
            assert_eq!(h.dequeue(), None);
        }
        // After the first threshold exhaustion the fast check short-
        // circuits: far fewer than 100 FAAs.
        let faa = q.stats().unwrap().faa_ops.load(Ordering::Relaxed);
        assert!(faa < 50, "empty dequeues kept spinning: {faa} FAAs");
        h.enqueue(7).unwrap();
        assert_eq!(h.dequeue(), Some(7));
    }

    #[test]
    fn threshold_resets_and_catchups_are_counted() {
        let q = ScqQueue::<u64>::with_stats(4);
        let mut h = q.handle();
        // aq starts with an exhausted threshold (−1): the first enqueue
        // must reset it.
        h.enqueue(1).unwrap();
        assert_eq!(h.dequeue(), Some(1));
        // Dequeue on the drained-but-armed ring over-claims a ticket
        // past Tail; the catchup CAS repairs it.
        assert_eq!(h.dequeue(), None);
        let s = q.stats().unwrap();
        assert!(s.threshold_resets.load(Ordering::Relaxed) >= 1);
        assert!(s.catchups.load(Ordering::Relaxed) >= 1);
        let snap = s.snapshot();
        assert!(snap.threshold_resets > 0.0);
    }

    #[test]
    fn occupancy_tracks_tail_minus_head() {
        let q = ScqQueue::<u64>::with_capacity(8);
        let mut h = q.handle();
        assert_eq!(q.len(), Some(0));
        assert_eq!(q.is_empty(), Some(true));
        for v in 0..5 {
            h.enqueue(v).unwrap();
        }
        assert_eq!(q.len(), Some(5));
        h.dequeue();
        assert_eq!(q.len(), Some(4));
    }

    #[test]
    fn drops_undelivered_values() {
        static DROPS: AtomicU64 = AtomicU64::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        {
            let q = ScqQueue::<D>::with_capacity(8);
            let mut h = q.handle();
            for _ in 0..5 {
                h.enqueue(D).unwrap();
            }
            drop(h.dequeue()); // one delivered and dropped
        }
        assert_eq!(DROPS.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn mpmc_stress_no_loss_no_dup() {
        let q = Arc::new(ScqQueue::<u64>::with_capacity(64));
        let producers = 4u64;
        let per = 5_000u64;
        let consumed = Arc::new(AtomicU64::new(0));
        let mut threads = Vec::new();
        for p in 0..producers {
            let q = Arc::clone(&q);
            threads.push(std::thread::spawn(move || {
                let mut h = q.handle();
                for i in 0..per {
                    let mut v = (p << 32) | i;
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
            }));
        }
        let mut seen: Vec<std::thread::JoinHandle<Vec<u64>>> = Vec::new();
        for _ in 0..4 {
            let q = Arc::clone(&q);
            let consumed = Arc::clone(&consumed);
            seen.push(std::thread::spawn(move || {
                let mut h = q.handle();
                let mut got = Vec::new();
                while consumed.load(Ordering::Relaxed) < producers * per {
                    if let Some(v) = h.dequeue() {
                        consumed.fetch_add(1, Ordering::Relaxed);
                        got.push(v);
                    } else {
                        std::hint::spin_loop();
                    }
                }
                got
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        let mut all: Vec<u64> = seen.into_iter().flat_map(|t| t.join().unwrap()).collect();
        all.sort_unstable();
        assert_eq!(all.len(), (producers * per) as usize);
        all.dedup();
        assert_eq!(all.len(), (producers * per) as usize, "duplicate delivery");
    }
}
