//! The Fig. 3 ring both paper queues run: Algorithm 1's circular-array
//! FIFO, written once and generic over how a handle links a slot.
//!
//! The queue is a power-of-two array of slots plus two unbounded
//! `Head`/`Tail` counters. A slot holds a node address or `null`; `Head`
//! is the logical index of the oldest item, `Tail` of the next free slot.
//! `index mod capacity` locates the slot; letting the counters run free
//! (only ever incremented) dissolves the index-ABA problem of the paper's
//! Fig. 1.
//!
//! The LL/SC pair on the slot, combined with re-validating the index
//! (`t == Tail` at line E10 / `h == Head` at D10), eliminates the data-ABA
//! and null-ABA problems outright: an SC fails if *anything* wrote the slot
//! since the LL, so a preempted thread can never install or remove a value
//! based on a stale view (the Fig. 4 scenario).
//!
//! Helping makes the queue lock-free rather than merely obstruction-free:
//! a thread that finds the slot in the "wrong" state concludes the index is
//! lagging behind a preempted peer's half-finished operation and advances
//! the index on the peer's behalf (lines E12–13 / D12–13).
//!
//! ## One loop, two links
//!
//! The paper builds Algorithm 2 (Fig. 5) as Algorithm 1 with its `LL`
//! simulated by a CAS that installs a tagged `LLSCvar` reservation. The
//! ring is written against that seam, the per-handle [`SlotLink`]
//! protocol:
//!
//! * `ll(idx) -> (word, token)` links slot `idx` and returns its logical
//!   word;
//! * `sc(idx, token, new)` stores `new` iff nothing wrote the slot since
//!   that link;
//! * `unlink(idx, token, word)` is every non-SC exit from a linked slot
//!   (index recheck failed, slot in the wrong state). Real LL/SC links
//!   just lapse, so it is a no-op for [`CellLink`](crate::llsc_queue::CellLink);
//!   the simulated link must restore `word` over its tag (the paper's
//!   `CAS(&Q[i], var^1, slot)` lines), so reservations never outlive the
//!   operation that placed them;
//! * `begin_op()` runs once per enqueue, dequeue or batch call
//!   (`GatePolicy::PerOperation`).
//!
//! [`LlScQueue`](crate::LlScQueue) is the ring over `LlScCell`s;
//! [`CasQueue`](crate::CasQueue) is the ring over plain words plus each
//! handle's `LLSCvar` ([`SimLink`](crate::cas_queue::SimLink)).
//!
//! ## Shadow bounds: reading the opposite index only when needed
//!
//! Two threads working one queue pay mostly for cache lines moving between
//! their cores, and the opposite index is written on every op. Each handle
//! therefore keeps `head_seen`/`tail_seen`, lower bounds of the monotone
//! `Head`/`Tail` (Torquati's shadow cursor, arXiv 1012.1824, as in the
//! lane ring). The full test reads `Head` only when `pos - head_seen`
//! cannot rule full out, and the empty test reads `Tail` only when `pos`
//! is not before `tail_seen`; `Full` and `None` are still decided on a
//! fresh read. A bound comes from an earlier acquire load or from the
//! handle's own index CAS, so it happens-before the slot `LL` that
//! follows, the same edge the fresh read gives (DESIGN.md §3 erratum 3,
//! §7a).
//!
//! ## Mapping from the paper's pseudocode
//!
//! | Paper | Here |
//! |---|---|
//! | E5 / D5 `t = Tail` / `h = Head` | `INDEX_LOAD` at the top of [`RingHandle`]'s loops |
//! | E6–E7 / D6–D7 full / empty test | `RingHandle::full` / `RingHandle::empty`: the shadow bound first, then a fresh read deciding `t == head + capacity` with wrapping arithmetic (erratum 3 in DESIGN.md) / `h == tail` |
//! | E9 / D9 `LL(&Q[i])` | [`SlotLink::ll`] |
//! | E10 / D10 `t == Tail` / `h == Head` | the recheck; on failure [`SlotLink::unlink`] |
//! | E11–E13 / D11–D13 help a lagging index | `unlink`, then one index CAS (counted as a help) |
//! | E14 / D14 `SC(&Q[i], node)` / `SC(&Q[i], null)` | [`SlotLink::sc`] |
//! | `if (LL(&Tail) == t) SC(&Tail, t+1)` | `compare_exchange(t, t+1)` — for a *monotonically increasing* counter the LL/SC pair and a CAS are equivalent (the counter can never return to `t` after leaving it, so CAS's ABA blind spot is vacuous). This is also why the paper's own Algorithm 2 uses a plain CAS here. |
//!
//! ## Counters
//!
//! With stats on, the ring counts operations, index CAS attempts and
//! successes, helps, batches, backoff snoozes and pool events at the same
//! sites for both links. Slot CAS and fetch-and-add counts belong to the
//! link: only the simulated link issues them.

use crate::node::{index_precedes, node_from_raw, node_into_raw, node_take_exclusive, NULL};
use crate::opstats::OpStats;
use core::sync::atomic::{AtomicU64, Ordering};
use nbq_util::pool::{NodePool, PoolHandle, PoolStats};
use nbq_util::{mem, Backoff, BatchFull, CachePadded, ConcurrentQueue, Full, QueueHandle};

/// One handle's side of a ring's slot-link protocol (see the module docs).
pub trait SlotLink {
    /// Evidence of one link, consumed by exactly one [`Self::sc`] or
    /// [`Self::unlink`].
    type Token;

    /// Runs once at the start of every enqueue, dequeue or batch call.
    #[inline]
    fn begin_op(&mut self) {}

    /// Links slot `idx`: its logical word plus the token for one store.
    fn ll(&mut self, idx: usize) -> (u64, Self::Token);

    /// Stores `new` in slot `idx` iff the slot is unwritten since the
    /// [`Self::ll`] that produced `token`.
    fn sc(&mut self, idx: usize, token: Self::Token, new: u64) -> bool;

    /// Ends a link without storing; `word` is what [`Self::ll`] returned.
    fn unlink(&mut self, idx: usize, token: Self::Token, word: u64);
}

/// The queue-wide half of a slot link: what a slot is and how a handle
/// is registered to link it.
pub trait Link: Send + Sync + Sized {
    /// One array slot.
    type Slot: Send + Sync;
    /// One handle's link state.
    type Handle<'q>: SlotLink + Send
    where
        Self: 'q;
    /// [`ConcurrentQueue::algorithm_name`] of the ring over this link.
    const NAME: &'static str;

    /// Registers one handle over `slots`. `stats` receives the link's own
    /// counts (slot CAS, fetch-and-add).
    fn handle<'q>(
        &'q self,
        slots: &'q [Self::Slot],
        stats: Option<&'q OpStats>,
    ) -> Self::Handle<'q>;

    /// Reads a slot with exclusive access (teardown).
    fn load(slot: &Self::Slot) -> u64;
}

/// Algorithm 1's bounded MPMC FIFO over the slot link `L`; see
/// [`CasQueue`](crate::CasQueue) and [`LlScQueue`](crate::LlScQueue).
pub struct Ring<T, L: Link> {
    slots: Box<[L::Slot]>,
    head: CachePadded<AtomicU64>,
    tail: CachePadded<AtomicU64>,
    mask: u64,
    capacity: u64,
    /// Exponential backoff after a contended SC failure. The paper's
    /// pseudocode retries immediately; backoff is our (measured) addition.
    backoff: bool,
    pub(crate) link: L,
    stats: Option<Box<OpStats>>,
    /// Node recycler: after warm-up the enqueue/dequeue hot path never
    /// touches the global allocator (DESIGN.md §8). No hazard domain holds
    /// pointers into this pool, so it needs no boxed/stable address.
    pool: NodePool<T>,
}

// SAFETY: slot words own their nodes; transferring T across threads via
// the queue requires T: Send. All other shared state is atomic or
// Send + Sync by the `Link` bound.
unsafe impl<T: Send, L: Link> Send for Ring<T, L> {}
unsafe impl<T: Send, L: Link> Sync for Ring<T, L> {}

impl<T: Send, L: Link> Ring<T, L> {
    /// A ring with room for at least `capacity` items (rounded up to a
    /// power of two, minimum 2), slot `i` built by `slot(i)`.
    pub(crate) fn new(
        capacity: usize,
        backoff: bool,
        link: L,
        slot: impl FnMut(usize) -> L::Slot,
    ) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        let cap = capacity.next_power_of_two().max(2);
        Self {
            slots: (0..cap).map(slot).collect(),
            head: CachePadded::new(AtomicU64::new(0)),
            tail: CachePadded::new(AtomicU64::new(0)),
            mask: (cap - 1) as u64,
            capacity: cap as u64,
            backoff,
            link,
            stats: None,
            pool: NodePool::new(),
        }
    }

    /// Turns on [`OpStats`] accounting.
    pub(crate) fn counted(mut self) -> Self {
        self.stats = Some(Box::default());
        self
    }

    /// The instruction counters, if built via `with_stats`.
    pub fn stats(&self) -> Option<&OpStats> {
        self.stats.as_deref()
    }

    /// The node pool's own counters (tests/diagnostics); the per-handle
    /// tallies fold in when handles drop.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Number of slots (power of two ≥ requested capacity).
    pub fn capacity(&self) -> usize {
        self.capacity as usize
    }

    /// Approximate number of queued items.
    ///
    /// **Advisory snapshot**: the result may be stale by the time it
    /// returns (it is exact when quiescent, and always within
    /// `0..=capacity`). Callers must not use it to guarantee a subsequent
    /// `enqueue`/`dequeue` succeeds.
    ///
    /// The count is the occupancy at one instant: `Tail` is read on both
    /// sides of the `Head` read, and an unchanged `Tail` (it is monotone)
    /// held its value when `Head` was read, where `Head <= Tail <= Head +
    /// capacity`. Reading either index once against a moving other one
    /// instead drifts: `Tail` first undercounts (wrapping to "full" when
    /// `Head` passes it), `Head` first overcounts by every enqueue landing
    /// between the reads. A retry means an enqueue completed, so the loop
    /// is lock-free like the queue's own operations.
    pub fn len(&self) -> usize {
        loop {
            let t = self.tail.load(mem::INDEX_LOAD);
            let h = self.head.load(mem::INDEX_LOAD);
            if self.tail.load(mem::INDEX_LOAD) == t {
                return t.saturating_sub(h).min(self.capacity) as usize;
            }
        }
    }

    /// True when the queue appears empty — the same advisory-snapshot
    /// contract as [`Self::len`].
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Registers the calling thread (for the CAS queue, paper `Register`)
    /// and returns its handle. Dropping the handle deregisters.
    pub fn handle(&self) -> RingHandle<'_, T, L> {
        RingHandle {
            queue: self,
            link: self.link.handle(&self.slots, self.stats.as_deref()),
            pool: self.pool.handle(),
            head_seen: 0,
            tail_seen: 0,
        }
    }
}

impl<T, L: Link> Drop for Ring<T, L> {
    fn drop(&mut self) {
        // Exclusive access, and no handle can be mid-operation (handles
        // borrow the queue), so every slot holds its logical word: each
        // operation unlinks (removes its reservation tag) before returning.
        for slot in self.slots.iter() {
            let v = L::load(slot);
            debug_assert_eq!(v & 1, 0, "reservation tag leaked into Drop");
            if v != NULL {
                // SAFETY: non-null even slot words are uniquely-owned node
                // addresses created by node_into_raw::<T> against our pool,
                // and `&mut self` means no live handles.
                drop(unsafe { node_take_exclusive::<T>(&self.pool, v) });
            }
        }
        // `link` (the CAS queue's registry) and `pool` drop afterwards.
    }
}

/// Per-thread handle for a [`Ring`]: the handle's link state, its
/// private node-pool cache and its shadows of the two indices.
pub struct RingHandle<'q, T, L: Link> {
    queue: &'q Ring<T, L>,
    link: L::Handle<'q>,
    pool: PoolHandle<'q, T>,
    /// Lower bound of `Head`: the last value this handle loaded or
    /// advanced it to.
    head_seen: u64,
    /// Lower bound of `Tail`, kept the same way.
    tail_seen: u64,
}

impl<T: Send, L: Link> RingHandle<'_, T, L> {
    #[inline]
    fn op_stats(&self) -> Option<&OpStats> {
        self.queue.stats.as_deref()
    }

    fn backoff(&self) -> Backoff {
        if self.queue.backoff {
            Backoff::new()
        } else {
            Backoff::disabled()
        }
    }

    /// Folds a finished retry loop's snooze count into the stats
    /// (contention reporting for `abl-backoff`/`abl-ordering`).
    #[inline]
    fn record_snoozes(&self, backoff: &Backoff) {
        if let Some(st) = self.op_stats() {
            st.add_snoozes(backoff.snoozes());
        }
    }

    /// Wraps `value` in a pool node and returns its slot word, recording
    /// where the node came from.
    #[inline]
    fn pool_acquire(&mut self, value: T) -> u64 {
        let (node, src) = node_into_raw(&mut self.pool, value);
        if let Some(st) = self.op_stats() {
            st.record_pool_acquire(src);
        }
        node
    }

    /// Unwraps a slot word this handle owns exclusively, recycling the
    /// node and recording where it went.
    ///
    /// # Safety
    ///
    /// Same contract as [`node_from_raw`].
    #[inline]
    unsafe fn pool_release(&mut self, addr: u64) -> T {
        // SAFETY: forwarded caller contract.
        let (value, target) = unsafe { node_from_raw(&mut self.pool, addr) };
        if let Some(st) = self.op_stats() {
            st.record_pool_release(target);
        }
        value
    }

    /// One counted index CAS `from → to` on `Head` or `Tail`.
    #[inline]
    fn advance(&self, index: &AtomicU64, from: u64, to: u64) -> bool {
        let ok = index
            .compare_exchange(from, to, mem::INDEX_CAS, mem::INDEX_CAS_FAIL)
            .is_ok();
        if let Some(st) = self.op_stats() {
            OpStats::bump(&st.index_cas_attempts);
            if ok {
                OpStats::bump(&st.index_cas_successes);
            }
        }
        ok
    }

    /// E6's full test at `pos`: a fresh `Tail` read, or a batch cursor at
    /// or past one, so `head_seen <= pos`. When `pos - head_seen <
    /// capacity` the shadow alone rules full out (`Head >= head_seen`);
    /// otherwise `Head` is reloaded and full is decided on that fresh
    /// read. `Head` is monotone and read after `pos` was anchored, so
    /// `pos <= head + capacity` and equality is the only full indication
    /// (DESIGN.md §1); a `Head` already past `pos` reads as not full and
    /// the caller's recheck catches the stale position.
    #[inline]
    fn full(&mut self, pos: u64) -> bool {
        let cap = self.queue.capacity;
        if pos.wrapping_sub(self.head_seen) < cap {
            return false;
        }
        self.head_seen = self.queue.head.load(mem::INDEX_LOAD);
        pos == self.head_seen.wrapping_add(cap)
    }

    /// D6's empty test at `pos`: a fresh `Head` read, or a batch cursor
    /// at or past one. A position before the shadow `tail_seen` is
    /// published (`Tail >= tail_seen`); otherwise `Tail` is reloaded and
    /// empty is decided on that fresh read, as D6 decides it.
    #[inline]
    fn empty(&mut self, pos: u64) -> bool {
        if index_precedes(pos, self.tail_seen) {
            return false;
        }
        self.tail_seen = self.queue.tail.load(mem::INDEX_LOAD);
        pos == self.tail_seen
    }

    /// Helping: advances a lagging index past position `at` on a
    /// preempted peer's behalf (best effort — a failed CAS means someone
    /// else already did).
    #[inline]
    fn help(&self, index: &AtomicU64, at: u64) {
        self.advance(index, at, at.wrapping_add(1));
        if let Some(st) = self.op_stats() {
            OpStats::bump(&st.helps);
        }
    }

    /// Batched-enqueue slot fill: installs `node` into the first free slot
    /// at or after `*pos` with the per-slot link protocol, **without**
    /// advancing `Tail` (the caller publishes the whole run with one
    /// [`Self::publish`]). Returns the logical index filled, or gives
    /// `node` back if the queue is full at `*pos`.
    ///
    /// ABA safety matches [`QueueHandle::enqueue`]'s with the E10
    /// `t == Tail` recheck generalized to `Tail <= pos`: `Tail` cannot
    /// pass a logically-free slot, so while the recheck holds, physical
    /// slot `pos & mask` is logical position `pos` (no wrap), and any
    /// interleaved write to it fails our SC. See DESIGN.md "Batched
    /// operations".
    fn fill_slot(&mut self, node: u64, pos: &mut u64) -> Result<u64, u64> {
        let q = self.queue;
        let mut backoff = self.backoff();
        loop {
            let t = q.tail.load(mem::INDEX_LOAD);
            if index_precedes(*pos, t) {
                // Tail already moved past our cursor; re-anchor (same as
                // the single-op loop re-reading Tail).
                *pos = t;
            }
            if self.full(*pos) {
                // Positions [Head, pos) are all occupied (each verified at
                // or after the anchor, and Head is monotone), so this is a
                // genuine full — unless the cursor is stale.
                let t = q.tail.load(mem::INDEX_LOAD);
                if index_precedes(*pos, t) {
                    *pos = t;
                    continue;
                }
                self.record_snoozes(&backoff);
                return Err(node);
            }
            let idx = (*pos & q.mask) as usize;
            let (slot, token) = self.link.ll(idx);
            if index_precedes(*pos, q.tail.load(mem::INDEX_LOAD)) {
                // Generalized E10 recheck failed: position already
                // published past; end the link and retry against the
                // fresh Tail.
                self.link.unlink(idx, token, slot);
                continue;
            }
            if slot != NULL {
                // A peer filled `pos` but its Tail update lags: help
                // (succeeds only if Tail is exactly here) and move on.
                self.link.unlink(idx, token, slot);
                self.help(&q.tail, *pos);
                *pos = (*pos).wrapping_add(1);
                continue;
            }
            if self.link.sc(idx, token, node) {
                // The item is in; Tail publication is deferred.
                let filled = *pos;
                *pos = filled.wrapping_add(1);
                self.record_snoozes(&backoff);
                return Ok(filled);
            }
            backoff.snooze();
        }
    }

    /// Batched-dequeue slot drain: removes the item at the first occupied
    /// slot at or after `*pos`, without advancing `Head` (the caller
    /// publishes with one [`Self::publish`]). `None` means the queue is
    /// empty past `*pos`. Symmetric to [`Self::fill_slot`].
    fn drain_slot(&mut self, pos: &mut u64) -> Option<u64> {
        let q = self.queue;
        let mut backoff = self.backoff();
        loop {
            let h = q.head.load(mem::INDEX_LOAD);
            if index_precedes(*pos, h) {
                *pos = h;
            }
            if self.empty(*pos) {
                self.record_snoozes(&backoff);
                return None; // nothing published at or after the cursor
            }
            let idx = (*pos & q.mask) as usize;
            let (slot, token) = self.link.ll(idx);
            if index_precedes(*pos, q.head.load(mem::INDEX_LOAD)) {
                // Generalized D10 recheck: position consumed; end the
                // link and retry.
                self.link.unlink(idx, token, slot);
                continue;
            }
            if slot == NULL {
                // A peer removed `pos` but its Head update lags: help.
                self.link.unlink(idx, token, slot);
                self.help(&q.head, *pos);
                *pos = (*pos).wrapping_add(1);
                continue;
            }
            if self.link.sc(idx, token, NULL) {
                *pos = (*pos).wrapping_add(1);
                self.record_snoozes(&backoff);
                return Some(slot);
            }
            backoff.snooze();
        }
    }

    /// Publishes a filled (drained) run: ensures `Tail` (`Head`) `>=
    /// target` with a single jump-CAS in the uncontended case, and returns
    /// the index value it last saw or set (a fresh bound for the shadow).
    ///
    /// Jumping `Tail` is sound because while `Tail == t < target` every
    /// logical position in `[t, target)` holds an item — each was observed
    /// or installed by the batch, and a filled position cannot empty until
    /// `Tail` passes it — so the jump is indistinguishable from `target -
    /// t` rapid single advances. The emptied-run argument for `Head` is
    /// symmetric: a slot drained at position `p` cannot refill until
    /// `Head` passes `p`, because the enqueuer of `p + capacity` is
    /// full-checked. See DESIGN.md "Batched operations".
    fn publish(&self, index: &AtomicU64, target: u64) -> u64 {
        loop {
            let at = index.load(mem::INDEX_LOAD);
            if !index_precedes(at, target) {
                return at; // helpers already published past us
            }
            if self.advance(index, at, target) {
                return target;
            }
        }
    }

    /// Counts one finished batch call of `items` elements.
    fn record_batch(&self, items: usize) {
        if let Some(st) = self.op_stats() {
            st.operations.fetch_add(items as u64, Ordering::Relaxed);
            OpStats::bump(&st.batch_ops);
            st.batch_items.fetch_add(items as u64, Ordering::Relaxed);
        }
    }
}

impl<T: Send, L: Link> QueueHandle<T> for RingHandle<'_, T, L> {
    /// Fig. 3 `Enqueue` (Fig. 5 over the simulated link).
    fn enqueue(&mut self, value: T) -> Result<(), Full<T>> {
        self.link.begin_op();
        let q = self.queue;
        let node = self.pool_acquire(value);
        let mut backoff = self.backoff();
        loop {
            // INDEX_LOAD (acquire): a stale Tail is caught by the E10
            // recheck; correctness rests on the slot link plus Head/Tail
            // monotonicity, not on SC index reads (DESIGN.md §7).
            let t = q.tail.load(mem::INDEX_LOAD); // E5

            // E6: full test (shadow first; any Head read comes after
            // Tail, which `full` relies on).
            if self.full(t) {
                self.record_snoozes(&backoff);
                // SAFETY: the node was never published.
                return Err(Full(unsafe { self.pool_release(node) })); // E7
            }
            let idx = (t & q.mask) as usize; // E8
            let (slot, token) = self.link.ll(idx); // E9
            if t != q.tail.load(mem::INDEX_LOAD) {
                // E10 failed: Tail moved since E5, so the linked slot may
                // not be the one Tail designates (null-ABA). End the link
                // (Fig. 5's trailing `else CAS(&Q[tail], var^1, slot)`)
                // and retry.
                self.link.unlink(idx, token, slot);
            } else if slot != NULL {
                // E11–E13: a peer stored its item but was preempted
                // before advancing Tail; help it.
                self.link.unlink(idx, token, slot);
                self.help(&q.tail, t);
            } else if self.link.sc(idx, token, node) {
                // E14–E18: item in; advance Tail (best effort — a failed
                // CAS means someone helped us).
                if self.advance(&q.tail, t, t.wrapping_add(1)) {
                    self.tail_seen = t.wrapping_add(1);
                }
                self.record_snoozes(&backoff);
                if let Some(st) = self.op_stats() {
                    OpStats::bump(&st.operations);
                }
                return Ok(());
            } else {
                // SC lost a race (a competing LL, or a spurious failure on
                // a WeakCell); retry.
                backoff.snooze();
            }
        }
    }

    /// Fig. 3 `Dequeue` (Fig. 5 over the simulated link).
    fn dequeue(&mut self) -> Option<T> {
        self.link.begin_op();
        let q = self.queue;
        let mut backoff = self.backoff();
        loop {
            let h = q.head.load(mem::INDEX_LOAD); // D5
            if self.empty(h) {
                self.record_snoozes(&backoff);
                return None; // D6–D7: empty
            }
            let idx = (h & q.mask) as usize; // D8
            let (slot, token) = self.link.ll(idx); // D9
            if h != q.head.load(mem::INDEX_LOAD) {
                // D10 failed: the slot may no longer hold the oldest item
                // (the Fig. 4 wrap-around scenario); end the link, retry.
                self.link.unlink(idx, token, slot);
            } else if slot == NULL {
                // D11–D13: item already removed, Head lagging; help.
                self.link.unlink(idx, token, slot);
                self.help(&q.head, h);
            } else if self.link.sc(idx, token, NULL) {
                // D14–D18: removed; advance Head (best effort).
                if self.advance(&q.head, h, h.wrapping_add(1)) {
                    self.head_seen = h.wrapping_add(1);
                }
                self.record_snoozes(&backoff);
                if let Some(st) = self.op_stats() {
                    OpStats::bump(&st.operations);
                }
                // SAFETY: the successful SC to null removed the node word
                // from the array; we own it exclusively.
                return Some(unsafe { self.pool_release(slot) });
            } else {
                backoff.snooze();
            }
        }
    }

    fn enqueue_batch(
        &mut self,
        items: impl ExactSizeIterator<Item = T>,
    ) -> Result<usize, BatchFull<T>> {
        self.link.begin_op();
        let q = self.queue;
        let mut items = items;
        // One amortized pool grab for the whole batch (capped at the
        // handle-cache capacity): per-element acquires below then hit the
        // private cache even when the cache started cold.
        self.pool.reserve(items.len());
        let mut pos = q.tail.load(mem::INDEX_LOAD);
        let mut end = None;
        let mut enqueued = 0usize;
        let result = loop {
            let Some(value) = items.next() else {
                break Ok(enqueued);
            };
            let node = self.pool_acquire(value);
            match self.fill_slot(node, &mut pos) {
                Ok(filled) => {
                    end = Some(filled.wrapping_add(1));
                    enqueued += 1;
                }
                Err(node) => {
                    // SAFETY: the queue rejected the word; we still own it.
                    let value = unsafe { self.pool_release(node) };
                    let mut remaining = Vec::with_capacity(items.len() + 1);
                    remaining.push(value);
                    remaining.extend(items);
                    break Err(BatchFull {
                        enqueued,
                        remaining,
                    });
                }
            }
        };
        if let Some(end) = end {
            // Publication obligation: the items are not linearized until
            // Tail covers them, so the batch must not return beforehand.
            self.tail_seen = self.publish(&q.tail, end);
        }
        self.record_batch(enqueued);
        result
    }

    fn dequeue_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        self.link.begin_op();
        let q = self.queue;
        let mut pos = q.head.load(mem::INDEX_LOAD);
        let mut taken = 0usize;
        while taken < max {
            match self.drain_slot(&mut pos) {
                // SAFETY: the successful SC to null inside drain_slot
                // transferred the node word to us exclusively.
                Some(raw) => {
                    out.push(unsafe { self.pool_release(raw) });
                    taken += 1;
                }
                None => break,
            }
        }
        if taken > 0 {
            // The cursor sits one past the last drain.
            self.head_seen = self.publish(&q.head, pos);
        }
        self.record_batch(taken);
        taken
    }
}

impl<T: Send, L: Link> ConcurrentQueue<T> for Ring<T, L> {
    type Handle<'q>
        = RingHandle<'q, T, L>
    where
        Self: 'q;

    fn handle(&self) -> Self::Handle<'_> {
        Ring::handle(self)
    }

    fn capacity(&self) -> Option<usize> {
        Some(self.capacity())
    }

    fn len(&self) -> Option<usize> {
        Some(Ring::len(self))
    }

    fn is_empty(&self) -> Option<bool> {
        Some(Ring::is_empty(self))
    }

    fn algorithm_name(&self) -> &'static str {
        L::NAME
    }
}

#[cfg(test)]
mod tests {
    //! One body per behaviour, run over every link: the CAS queue under
    //! both gate policies, and the LL/SC queue over the strong emulation,
    //! the spurious-failure emulation and (single-threaded bodies only)
    //! the Fig. 2 oracle.
    use super::*;
    use crate::cas_queue::{CasQueueConfig, GatePolicy, SimLink};
    use crate::llsc_queue::{CellLink, LlScQueueConfig};
    use crate::{CasQueue, LlScQueue};
    use nbq_llsc::{FaultPlan, OracleCell, VersionedCell, WeakCell};
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{Arc, Mutex};

    /// One way to build the ring under test.
    trait Instance {
        type L: Link;
        /// Successful slot CASes the link counts per uncontended operation.
        const SLOT_CAS_PER_OP: f64;
        fn make<T: Send>(capacity: usize, backoff: bool) -> Ring<T, Self::L>;
        /// `LLSCvar`s allocated, for a link that registers handles.
        fn vars_allocated<T: Send>(_q: &Ring<T, Self::L>) -> Option<usize> {
            None
        }
    }

    fn cas<T: Send>(capacity: usize, backoff: bool, gate: GatePolicy) -> CasQueue<T> {
        CasQueue::with_config(capacity, CasQueueConfig { backoff, gate })
    }

    struct CasPerLink;
    impl Instance for CasPerLink {
        type L = SimLink;
        const SLOT_CAS_PER_OP: f64 = 2.0;
        fn make<T: Send>(capacity: usize, backoff: bool) -> CasQueue<T> {
            cas(capacity, backoff, GatePolicy::PerLink)
        }
        fn vars_allocated<T: Send>(q: &CasQueue<T>) -> Option<usize> {
            Some(q.vars_allocated())
        }
    }

    struct CasPerOperation;
    impl Instance for CasPerOperation {
        type L = SimLink;
        const SLOT_CAS_PER_OP: f64 = 2.0;
        fn make<T: Send>(capacity: usize, backoff: bool) -> CasQueue<T> {
            cas(capacity, backoff, GatePolicy::PerOperation)
        }
        fn vars_allocated<T: Send>(q: &CasQueue<T>) -> Option<usize> {
            Some(q.vars_allocated())
        }
    }

    struct Versioned;
    impl Instance for Versioned {
        type L = CellLink<VersionedCell>;
        const SLOT_CAS_PER_OP: f64 = 0.0;
        fn make<T: Send>(capacity: usize, backoff: bool) -> LlScQueue<T> {
            LlScQueue::with_config(capacity, LlScQueueConfig { backoff })
        }
    }

    struct Weak;
    impl Instance for Weak {
        type L = CellLink<WeakCell>;
        const SLOT_CAS_PER_OP: f64 = 0.0;
        fn make<T: Send>(capacity: usize, backoff: bool) -> LlScQueue<T, WeakCell> {
            LlScQueue::with_cells(capacity, LlScQueueConfig { backoff }, |_, v| {
                WeakCell::new(
                    v,
                    FaultPlan::Probability {
                        seed: 1234,
                        num: 1,
                        den: 3,
                    },
                )
            })
        }
    }

    struct Oracle;
    impl Instance for Oracle {
        type L = CellLink<OracleCell>;
        const SLOT_CAS_PER_OP: f64 = 0.0;
        fn make<T: Send>(capacity: usize, backoff: bool) -> LlScQueue<T, OracleCell> {
            LlScQueue::with_cells(capacity, LlScQueueConfig { backoff }, |_, v| {
                OracleCell::new(v)
            })
        }
    }

    macro_rules! tests_for {
        ($instance:ident: $($body:ident),* $(,)?) => {
            $(
                #[test]
                fn $body() {
                    super::$body::<super::$instance>();
                }
            )*
        };
    }

    macro_rules! single_threaded {
        ($instance:ident) => {
            tests_for!(
                $instance: fifo_order_single_thread,
                capacity_rounds_to_power_of_two,
                full_queue_rejects_and_returns_value,
                wraparound_many_laps,
                len_tracks_occupancy,
                two_handles_share_the_queue,
                drop_frees_queued_values,
                zero_sized_values,
                backoff_disabled_still_correct,
                paper_instruction_accounting_uncontended,
                pool_counters_show_steady_state_recycling,
                batch_round_trip_single_thread,
                batch_enqueue_reports_partial_fill_in_order,
                batch_interleaves_with_single_ops,
                batch_wraparound_many_laps,
                batch_rounds_without_backoff,
                batch_amortizes_index_cas,
                stale_head_shadow_still_sees_full,
                stale_tail_shadow_still_sees_empty,
                stale_shadows_through_batches,
            );
        };
    }

    macro_rules! multi_threaded {
        ($instance:ident) => {
            tests_for!(
                $instance: faa_appears_under_contention,
                mpmc_stress_no_loss_no_dup,
                batch_mpmc_no_loss_no_dup,
                per_producer_order_under_concurrency,
                per_producer_order_is_preserved,
                len_of_a_near_empty_queue_stays_small,
            );
        };
    }

    mod cas_per_link {
        single_threaded!(CasPerLink);
        multi_threaded!(CasPerLink);
    }

    mod cas_per_operation {
        single_threaded!(CasPerOperation);
        multi_threaded!(CasPerOperation);
    }

    mod versioned_cell {
        single_threaded!(Versioned);
        multi_threaded!(Versioned);
    }

    mod weak_cell {
        single_threaded!(Weak);
        multi_threaded!(Weak);
    }

    mod oracle_cell {
        single_threaded!(Oracle);
    }

    fn fifo_order_single_thread<I: Instance>() {
        let q = I::make::<u32>(8, true);
        let mut h = q.handle();
        for i in 0..8 {
            h.enqueue(i).unwrap();
        }
        for i in 0..8 {
            assert_eq!(h.dequeue(), Some(i));
        }
        assert_eq!(h.dequeue(), None);
    }

    fn capacity_rounds_to_power_of_two<I: Instance>() {
        assert_eq!(I::make::<u8>(5, true).capacity(), 8);
        assert_eq!(I::make::<u8>(1, true).capacity(), 2);
        assert_eq!(I::make::<u8>(16, true).capacity(), 16);
    }

    fn full_queue_rejects_and_returns_value<I: Instance>() {
        let q = I::make::<String>(2, true);
        let mut h = q.handle();
        h.enqueue("a".into()).unwrap();
        h.enqueue("b".into()).unwrap();
        let err = h.enqueue("c".into()).unwrap_err();
        assert_eq!(err.into_inner(), "c");
        assert_eq!(h.dequeue().as_deref(), Some("a"));
        h.enqueue("c".into()).unwrap();
        assert_eq!(h.dequeue().as_deref(), Some("b"));
        assert_eq!(h.dequeue().as_deref(), Some("c"));
    }

    fn wraparound_many_laps<I: Instance>() {
        let q = I::make::<u64>(4, true);
        let mut h = q.handle();
        for lap in 0..1000u64 {
            for i in 0..3 {
                h.enqueue(lap * 3 + i).unwrap();
            }
            for i in 0..3 {
                assert_eq!(h.dequeue(), Some(lap * 3 + i));
            }
        }
        assert!(q.is_empty());
    }

    fn len_tracks_occupancy<I: Instance>() {
        let q = I::make::<u8>(8, true);
        let mut h = q.handle();
        assert_eq!(q.len(), 0);
        for i in 0..5 {
            h.enqueue(i).unwrap();
        }
        assert_eq!(q.len(), 5);
        h.dequeue();
        assert_eq!(q.len(), 4);
    }

    fn two_handles_share_the_queue<I: Instance>() {
        let q = I::make::<u32>(8, true);
        let mut producer = q.handle();
        let mut consumer = q.handle();
        producer.enqueue(1).unwrap();
        producer.enqueue(2).unwrap();
        assert_eq!(consumer.dequeue(), Some(1));
        assert_eq!(consumer.dequeue(), Some(2));
        if let Some(vars) = I::vars_allocated(&q) {
            assert_eq!(vars, 2);
        }
    }

    fn drop_frees_queued_values<I: Instance>() {
        struct Tracked(Arc<AtomicUsize>);
        impl Drop for Tracked {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let q = I::make::<Tracked>(8, true);
            let mut h = q.handle();
            for _ in 0..5 {
                h.enqueue(Tracked(drops.clone())).unwrap();
            }
        }
        assert_eq!(drops.load(Ordering::SeqCst), 5);
        drops.store(0, Ordering::SeqCst);
        {
            let q = I::make::<Tracked>(8, true);
            let mut h = q.handle();
            for _ in 0..6 {
                h.enqueue(Tracked(drops.clone())).unwrap();
            }
            drop(h.dequeue()); // one dropped by the consumer
            assert_eq!(drops.load(Ordering::SeqCst), 1);
        }
        assert_eq!(drops.load(Ordering::SeqCst), 6, "queue drop frees the rest");
    }

    fn zero_sized_values<I: Instance>() {
        let q = I::make::<()>(4, true);
        let mut h = q.handle();
        h.enqueue(()).unwrap();
        h.enqueue(()).unwrap();
        assert_eq!(h.dequeue(), Some(()));
        assert_eq!(h.dequeue(), Some(()));
        assert_eq!(h.dequeue(), None);
    }

    fn backoff_disabled_still_correct<I: Instance>() {
        let q = I::make::<u32>(4, false);
        let mut h = q.handle();
        for i in 0..500 {
            h.enqueue(i).unwrap();
            assert_eq!(h.dequeue(), Some(i));
        }
    }

    fn paper_instruction_accounting_uncontended<I: Instance>() {
        // The paper: "our CAS-based implementation requires three 32-bit
        // CAS and two FetchAndAdd operations" per queue operation. In the
        // uncontended case the three CASes are: install the reservation
        // tag, replace it with the item (or null), advance the index. The
        // FAAs only arise when an LL finds a *foreign* tag, i.e. under
        // contention (see `faa_appears_under_contention`). The LL/SC link
        // counts no slot CAS; both count the one index CAS.
        let q = I::make::<u64>(64, true).counted();
        let mut h = q.handle();
        for i in 0..1_000 {
            h.enqueue(i).unwrap();
            assert_eq!(h.dequeue(), Some(i));
        }
        let s = q.stats().unwrap().snapshot();
        assert_eq!(s.operations, 2_000);
        assert!(
            (s.slot_cas_successes - I::SLOT_CAS_PER_OP).abs() < 0.01,
            "{} slot CASes/op, got {}",
            I::SLOT_CAS_PER_OP,
            s.slot_cas_successes
        );
        assert!(
            (s.index_cas_successes - 1.0).abs() < 0.01,
            "1 index CAS/op, got {}",
            s.index_cas_successes
        );
        assert!(
            (s.index_cas_attempts - 1.0).abs() < 0.01,
            "1 index CAS attempt/op, got {}",
            s.index_cas_attempts
        );
        assert_eq!(s.faa_ops, 0.0, "no foreign tags single-threaded");
        assert_eq!(s.helps, 0.0);
        // Attempts == successes when uncontended.
        assert!((s.slot_cas_attempts - s.slot_cas_successes).abs() < 0.01);
    }

    fn pool_counters_show_steady_state_recycling<I: Instance>() {
        let q = I::make::<u64>(8, true).counted();
        {
            let mut h = q.handle();
            for i in 0..1_000 {
                h.enqueue(i).unwrap();
                assert_eq!(h.dequeue(), Some(i));
            }
        }
        let s = q.stats().unwrap().snapshot();
        if cfg!(feature = "no-pool") {
            assert_eq!(s.pool_alloc, 1_000, "no-pool: every acquire is fresh");
            assert_eq!(s.pool_recycle_hits, 0);
        } else {
            assert_eq!(s.pool_alloc, 1, "only the very first acquire carves");
            assert_eq!(s.pool_recycle_hits, 999, "steady state is all recycling");
            assert_eq!(s.pool_spills, 0, "single handle never overflows its cache");
            assert_eq!(q.pool_stats().recycled, 999);
        }
    }

    fn batch_round_trip_single_thread<I: Instance>() {
        let q = I::make::<u32>(32, true);
        let mut h = q.handle();
        let mut out = Vec::new();
        // Drained in one call, then in two.
        for drains in [&[64][..], &[7, 64]] {
            assert_eq!(
                h.enqueue_batch((0u32..20).collect::<Vec<_>>().into_iter())
                    .unwrap(),
                20
            );
            assert_eq!(q.len(), 20);
            out.clear();
            let taken: Vec<usize> = drains
                .iter()
                .map(|&max| h.dequeue_batch(&mut out, max))
                .collect();
            assert_eq!(taken.iter().sum::<usize>(), 20);
            assert_eq!(taken[0], drains[0].min(20));
            assert_eq!(out, (0..20).collect::<Vec<_>>());
            assert!(q.is_empty());
        }
        assert_eq!(h.dequeue_batch(&mut out, 4), 0);
        assert_eq!(h.dequeue(), None);
    }

    fn batch_enqueue_reports_partial_fill_in_order<I: Instance>() {
        let q = I::make::<u32>(8, true);
        let mut h = q.handle();
        let e = h
            .enqueue_batch((0u32..12).collect::<Vec<_>>().into_iter())
            .unwrap_err();
        assert_eq!(e.enqueued, 8);
        assert_eq!(e.remaining, vec![8, 9, 10, 11]);
        let mut out = Vec::new();
        assert_eq!(h.dequeue_batch(&mut out, 64), 8);
        assert_eq!(out, (0..8).collect::<Vec<_>>());
    }

    fn batch_interleaves_with_single_ops<I: Instance>() {
        let q = I::make::<u32>(16, true);
        let mut h = q.handle();
        h.enqueue(1).unwrap();
        assert_eq!(h.enqueue_batch(vec![2, 3, 4].into_iter()).unwrap(), 3);
        h.enqueue(5).unwrap();
        assert_eq!(h.dequeue(), Some(1));
        let mut out = Vec::new();
        assert_eq!(h.dequeue_batch(&mut out, 3), 3);
        assert_eq!(out, vec![2, 3, 4]);
        assert_eq!(h.dequeue(), Some(5));
        assert_eq!(h.dequeue(), None);
    }

    fn batch_wraparound_many_laps<I: Instance>() {
        let q = I::make::<u64>(8, true);
        let mut h = q.handle();
        let mut out = Vec::new();
        for lap in 0..500u64 {
            let base = lap * 5;
            let items: Vec<u64> = (base..base + 5).collect();
            assert_eq!(h.enqueue_batch(items.into_iter()).unwrap(), 5);
            out.clear();
            assert_eq!(h.dequeue_batch(&mut out, 5), 5);
            assert_eq!(out, (base..base + 5).collect::<Vec<_>>());
        }
        assert!(q.is_empty());
    }

    fn batch_rounds_without_backoff<I: Instance>() {
        let q = I::make::<u32>(16, false);
        let mut h = q.handle();
        let mut out = Vec::new();
        for lap in 0..200u32 {
            let base = lap * 10;
            let items: Vec<u32> = (base..base + 10).collect();
            assert_eq!(h.enqueue_batch(items.into_iter()).unwrap(), 10);
            out.clear();
            assert_eq!(h.dequeue_batch(&mut out, 10), 10);
            assert_eq!(out, (base..base + 10).collect::<Vec<_>>());
        }
    }

    fn batch_amortizes_index_cas<I: Instance>() {
        // The point of the batch API: the slot protocol is per-element
        // (on the CAS link, 2 successful slot CASes, unavoidable — each
        // element needs its reservation installed and replaced), but the
        // Head/Tail advance is one jump-CAS per *batch*: 1/16 per element
        // at batch 16, below 25% of the single-op rate of 1.
        let q = I::make::<u64>(64, true).counted();
        let mut h = q.handle();
        let mut out = Vec::new();
        for lap in 0..200u64 {
            let base = lap * 16;
            let items: Vec<u64> = (base..base + 16).collect();
            assert_eq!(h.enqueue_batch(items.into_iter()).unwrap(), 16);
            out.clear();
            assert_eq!(h.dequeue_batch(&mut out, 16), 16);
        }
        let s = q.stats().unwrap().snapshot();
        assert_eq!(s.operations, 6_400);
        assert_eq!(s.batch_ops, 400);
        assert_eq!(s.batch_items, 6_400);
        assert!(
            s.index_cas_attempts < 0.25,
            "index CAS per element {} not amortized",
            s.index_cas_attempts
        );
        assert!(
            (s.index_cas_attempts - 1.0 / 16.0).abs() < 1e-9,
            "1/16 index CAS per element expected, got {}",
            s.index_cas_attempts
        );
        // Slot cost is unchanged relative to the single-op path.
        assert!(
            (s.slot_cas_successes - I::SLOT_CAS_PER_OP).abs() < 0.01,
            "{} slot CASes per element expected, got {}",
            I::SLOT_CAS_PER_OP,
            s.slot_cas_successes
        );
        assert_eq!(s.faa_ops, 0.0, "no foreign tags single-threaded");
    }

    fn stale_head_shadow_still_sees_full<I: Instance>() {
        let q = I::make::<u32>(8, true);
        let (mut a, mut b) = (q.handle(), q.handle());
        // A's shadows settle at an empty queue: both bounds at 3.
        for i in 0..3 {
            a.enqueue(i).unwrap();
        }
        for i in 0..3 {
            assert_eq!(a.dequeue(), Some(i));
        }
        assert_eq!(a.dequeue(), None);
        for i in 10..18 {
            b.enqueue(i).unwrap();
        }
        assert_eq!(a.enqueue(99).unwrap_err().into_inner(), 99);
        assert_eq!(b.dequeue(), Some(10));
        a.enqueue(18).unwrap();
        assert_eq!(a.enqueue(99).unwrap_err().into_inner(), 99);
        for i in 11..19 {
            assert_eq!(a.dequeue(), Some(i));
        }
        assert_eq!(b.dequeue(), None);
    }

    fn stale_tail_shadow_still_sees_empty<I: Instance>() {
        let q = I::make::<u32>(8, true);
        let (mut a, mut b) = (q.handle(), q.handle());
        for k in [1, 5, 8] {
            for i in 0..k {
                a.enqueue(i).unwrap();
            }
            for i in 0..k {
                assert_eq!(b.dequeue(), Some(i));
            }
            assert_eq!(a.dequeue(), None);
            b.enqueue(100 + k).unwrap();
            assert_eq!(a.dequeue(), Some(100 + k));
            assert_eq!(a.dequeue(), None);
        }
    }

    fn stale_shadows_through_batches<I: Instance>() {
        let q = I::make::<u32>(8, true);
        let (mut a, mut b) = (q.handle(), q.handle());
        let mut out = Vec::new();
        // Full: A's head shadow is stale once B fills the ring.
        assert_eq!(a.enqueue_batch(vec![0, 1, 2].into_iter()).unwrap(), 3);
        assert_eq!(a.dequeue_batch(&mut out, 8), 3);
        assert_eq!(a.dequeue_batch(&mut out, 8), 0);
        assert_eq!(
            b.enqueue_batch((10..18).collect::<Vec<_>>().into_iter())
                .unwrap(),
            8
        );
        let e = a.enqueue_batch(vec![98, 99].into_iter()).unwrap_err();
        assert_eq!((e.enqueued, e.remaining), (0, vec![98, 99]));
        assert_eq!(b.dequeue(), Some(10));
        let e = a.enqueue_batch(vec![18, 99].into_iter()).unwrap_err();
        assert_eq!((e.enqueued, e.remaining), (1, vec![99]));
        out.clear();
        assert_eq!(a.dequeue_batch(&mut out, 16), 8);
        assert_eq!(out, (11..19).collect::<Vec<_>>());
        // Empty: A's tail shadow is stale once B drains A's items.
        assert_eq!(
            a.enqueue_batch((0..5).collect::<Vec<_>>().into_iter())
                .unwrap(),
            5
        );
        out.clear();
        assert_eq!(b.dequeue_batch(&mut out, 16), 5);
        assert_eq!(a.dequeue_batch(&mut out, 16), 0);
        assert_eq!(b.enqueue_batch(vec![7].into_iter()).unwrap(), 1);
        out.clear();
        assert_eq!(a.dequeue_batch(&mut out, 16), 1);
        assert_eq!(out, vec![7]);
    }

    fn len_of_a_near_empty_queue_stays_small<I: Instance>() {
        // One thread keeps at most one item queued while another reads
        // `len`: a Head that passes the sampled Tail must not read as
        // `Tail - Head` wrapping round to "full".
        const ROUNDS: u32 = 200_000;
        let q = I::make::<u32>(64, true);
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut h = q.handle();
                for i in 0..ROUNDS {
                    h.enqueue(i).unwrap();
                    assert_eq!(h.dequeue(), Some(i));
                }
                done.store(true, Ordering::Release);
            });
            while !done.load(Ordering::Acquire) {
                let n = q.len();
                assert!(n <= 1, "len() == {n} with at most one item queued");
            }
        });
        assert_eq!(q.len(), 0);
    }

    fn faa_appears_under_contention<I: Instance>() {
        let q = I::make::<u64>(16, true).counted();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let q = &q;
                s.spawn(move || {
                    let mut h = q.handle();
                    for i in 0..2_000u64 {
                        while h.enqueue(i).is_err() {
                            h.dequeue();
                        }
                        h.dequeue();
                    }
                });
            }
        });
        let snap = q.stats().unwrap().snapshot();
        assert!(snap.operations > 0);
        // Under real contention some LLs must have chased foreign tags
        // (each chase is a +1/-1 FAA pair) and some helping occurred.
        // (On a single-CPU host preemption guarantees plenty of both; we
        // only assert the counters are wired, not a specific rate.)
        assert!(snap.slot_cas_attempts >= snap.slot_cas_successes);
        assert!(snap.index_cas_attempts >= snap.index_cas_successes);
    }

    fn mpmc_stress_no_loss_no_dup<I: Instance>() {
        const PRODUCERS: u64 = 4;
        const CONSUMERS: u64 = 4;
        const PER_PRODUCER: u64 = 2_000;
        let q = I::make::<u64>(64, true);
        let seen = Mutex::new(HashSet::new());
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let q = &q;
                s.spawn(move || {
                    let mut h = q.handle();
                    for i in 0..PER_PRODUCER {
                        let v = p * PER_PRODUCER + i;
                        while h.enqueue(v).is_err() {
                            std::thread::yield_now();
                        }
                    }
                });
            }
            for _ in 0..CONSUMERS {
                let q = &q;
                let seen = &seen;
                s.spawn(move || {
                    let mut h = q.handle();
                    let mut got = Vec::new();
                    let target = PRODUCERS * PER_PRODUCER / CONSUMERS;
                    while (got.len() as u64) < target {
                        if let Some(v) = h.dequeue() {
                            got.push(v);
                        } else {
                            std::thread::yield_now();
                        }
                    }
                    let mut s = seen.lock().unwrap();
                    for v in got {
                        assert!(s.insert(v), "duplicate value {v}");
                    }
                });
            }
        });
        assert_eq!(
            seen.lock().unwrap().len() as u64,
            PRODUCERS * PER_PRODUCER,
            "every value dequeued exactly once"
        );
        assert!(q.is_empty());
        if let Some(vars) = I::vars_allocated(&q) {
            // Each handle owns one var and holds at most one reader
            // reference (registry module docs).
            let threads = (PRODUCERS + CONSUMERS) as usize;
            assert!(vars <= 2 * threads, "{vars} vars for {threads} handles");
        }
    }

    fn batch_mpmc_no_loss_no_dup<I: Instance>() {
        const PRODUCERS: u64 = 3;
        const CONSUMERS: u64 = 3;
        const BATCHES: u64 = 300;
        const BATCH: u64 = 7;
        let q = I::make::<u64>(64, true);
        let seen = Mutex::new(HashSet::new());
        let total = PRODUCERS * BATCHES * BATCH;
        let consumed = AtomicU64::new(0);
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let q = &q;
                s.spawn(move || {
                    let mut h = q.handle();
                    for b in 0..BATCHES {
                        let base = (p * BATCHES + b) * BATCH;
                        let mut pending: Vec<u64> = (base..base + BATCH).collect();
                        loop {
                            match h.enqueue_batch(pending.into_iter()) {
                                Ok(_) => break,
                                Err(e) => {
                                    pending = e.remaining;
                                    std::thread::yield_now();
                                }
                            }
                        }
                    }
                });
            }
            for _ in 0..CONSUMERS {
                let q = &q;
                let seen = &seen;
                let consumed = &consumed;
                s.spawn(move || {
                    let mut h = q.handle();
                    let mut out = Vec::new();
                    loop {
                        let n = h.dequeue_batch(&mut out, 5);
                        if n == 0 {
                            if consumed.load(Ordering::Relaxed) >= total {
                                break;
                            }
                            std::thread::yield_now();
                        } else {
                            consumed.fetch_add(n as u64, Ordering::Relaxed);
                        }
                    }
                    let mut s = seen.lock().unwrap();
                    for v in out {
                        assert!(s.insert(v), "duplicate value {v}");
                    }
                });
            }
        });
        assert_eq!(seen.lock().unwrap().len() as u64, total);
        assert!(q.is_empty());
    }

    fn per_producer_order_under_concurrency<I: Instance>() {
        const ITEMS: u64 = 5_000;
        let q = I::make::<u64>(16, true);
        std::thread::scope(|s| {
            let producer = {
                let q = &q;
                s.spawn(move || {
                    let mut h = q.handle();
                    for i in 0..ITEMS {
                        while h.enqueue(i).is_err() {
                            std::thread::yield_now();
                        }
                    }
                })
            };
            // Single consumer: order must be exactly 0..ITEMS.
            let mut h = q.handle();
            let mut expected = 0u64;
            while expected < ITEMS {
                if let Some(v) = h.dequeue() {
                    assert_eq!(v, expected, "FIFO violated");
                    expected += 1;
                } else {
                    std::thread::yield_now();
                }
            }
            producer.join().unwrap();
        });
    }

    fn per_producer_order_is_preserved<I: Instance>() {
        // FIFO: a single producer's items must come out in insertion order
        // regardless of how many consumers compete. A shared atomic count
        // of consumed items is the consumers' exit condition (any
        // consumer-local scheme can livelock both consumers against each
        // other).
        const ITEMS: u64 = 5_000;
        let q = I::make::<u64>(32, true);
        let consumed = AtomicU64::new(0);
        let order = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            let q1 = &q;
            s.spawn(move || {
                let mut h = q1.handle();
                for i in 0..ITEMS {
                    while h.enqueue(i).is_err() {
                        std::thread::yield_now();
                    }
                }
            });
            for _ in 0..2 {
                let q = &q;
                let order = &order;
                let consumed = &consumed;
                s.spawn(move || {
                    let mut h = q.handle();
                    let mut local = Vec::new();
                    loop {
                        match h.dequeue() {
                            Some(v) => {
                                local.push(v);
                                consumed.fetch_add(1, Ordering::Relaxed);
                            }
                            None => {
                                if consumed.load(Ordering::Relaxed) >= ITEMS {
                                    break;
                                }
                                std::thread::yield_now();
                            }
                        }
                    }
                    order.lock().unwrap().push(local);
                });
            }
        });
        let batches = order.into_inner().unwrap();
        let mut all: Vec<u64> = Vec::new();
        for batch in &batches {
            assert!(
                batch.windows(2).all(|w| w[0] < w[1]),
                "each consumer sees the producer's items in order"
            );
            all.extend_from_slice(batch);
        }
        all.sort_unstable();
        assert_eq!(all, (0..ITEMS).collect::<Vec<_>>());
    }
}
