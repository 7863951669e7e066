//! Async MPMC channel frontend over the workspace's non-blocking queues.
//!
//! [`AsyncQueue`] wraps any [`ConcurrentQueue`] — the paper's `CasQueue`
//! and `LlScQueue`, any baseline, or the sharded frontend — and exposes
//! `send(v).await` / `recv().await` futures, so the lock-free queues can
//! back async tasks the same way [`nbq_util::BlockingQueue`] backs
//! threads.
//!
//! The design keeps wakeups entirely off the lock-free hot path:
//!
//! * `try_send`/`try_recv` and the first attempt of every future go
//!   straight to the wrapped queue. A waiter registry (see [`waiters`],
//!   two Treiber-style stacks of cache-padded waker slots) is touched
//!   only *after* a failed attempt, mirroring the blocking adapter's
//!   "lock only after failure" structure.
//! * The lost-wakeup race is closed with the classic two-phase protocol:
//!   a future that fails registers its waker, issues a `SeqCst` fence,
//!   and re-tries once before returning `Pending`; a successful operation
//!   issues the same fence before scanning for a waiter to wake.
//! * Dropping a pending future deregisters its waker slot. If the drop
//!   races a wake, the consumed wake token is passed to a peer, so
//!   cancellation (`tokio::time::timeout`, `select`, task aborts) never
//!   strands another waiter.
//!
//! Close semantics are first-class and shared with the blocking frontend
//! (one contract, two executors — see DESIGN.md §9): [`AsyncQueue::close`]
//! wakes every waiter, later sends fail with [`Closed`] carrying the
//! value back, and receivers drain the queue before resolving to `None`.
//!
//! The vendored `tokio` stand-in that drives these futures in tests and
//! experiments is a genuine **work-stealing** runtime (per-worker run
//! queues + LIFO slots, injection queue for external spawns — DESIGN.md
//! §11), so the `ext-async*` numbers measure the queue, not a
//! single-queue executor bottleneck; its scheduler counters can be folded
//! into a queue's [`OpStats`] via
//! [`AsyncQueue::record_executor_counters`].

#![warn(missing_docs)]

mod future;
mod waiters;

#[cfg(feature = "futures-io")]
mod sinkstream;

pub use future::{RecvBatchFuture, RecvFuture, SendBatchFuture, SendFuture};
pub use nbq_util::queue::{BatchFull, Closed, Full, TrySendError};
#[cfg(feature = "futures-io")]
pub use sinkstream::{RecvStream, SendSink};

use crate::waiters::{dekker_fence, WaiterRegistry, WaiterSlot};
use nbq_core::OpStats;
use nbq_util::queue::{ConcurrentQueue, QueueHandle};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::Waker;

/// Outcome of one non-blocking receive attempt (internal three-way split;
/// the public `try_recv` collapses `Closed` and `Empty` into `None`).
pub(crate) enum RecvAttempt<T> {
    /// An item was dequeued.
    Item(T),
    /// The queue was empty but the channel is open.
    Empty,
    /// The channel was closed *before* the attempt and the attempt found
    /// nothing — i.e. closed and drained.
    Closed,
}

/// An async MPMC channel over any [`ConcurrentQueue`].
pub struct AsyncQueue<T: Send, Q: ConcurrentQueue<T>> {
    inner: Q,
    /// Futures parked on a full queue.
    senders: WaiterRegistry,
    /// Futures parked on an empty queue.
    receivers: WaiterRegistry,
    closed: AtomicBool,
    /// Waker slots allocated and not yet reclaimed, across both
    /// registries (see [`AsyncQueue::live_waiters`]).
    live: Arc<AtomicUsize>,
    stats: Option<Box<OpStats>>,
    _marker: PhantomData<fn(T) -> T>,
}

impl<T: Send, Q: ConcurrentQueue<T>> AsyncQueue<T, Q> {
    /// Wraps `inner`.
    pub fn new(inner: Q) -> Self {
        Self::build(inner, false)
    }

    /// Wraps `inner` with waker accounting enabled; see
    /// [`AsyncQueue::stats`].
    pub fn with_stats(inner: Q) -> Self {
        Self::build(inner, true)
    }

    fn build(inner: Q, stats: bool) -> Self {
        let live = Arc::new(AtomicUsize::new(0));
        Self {
            inner,
            senders: WaiterRegistry::new(live.clone()),
            receivers: WaiterRegistry::new(live.clone()),
            closed: AtomicBool::new(false),
            live,
            stats: stats.then(|| Box::new(OpStats::default())),
            _marker: PhantomData,
        }
    }

    /// The wrapped queue.
    pub fn inner(&self) -> &Q {
        &self.inner
    }

    /// Waker-traffic counters, if built via [`AsyncQueue::with_stats`]:
    /// `waker_registrations`, `waker_wakes`, and `spurious_polls` (polls
    /// that lost the post-wake race and re-parked), plus the executor
    /// scheduler counters folded in via
    /// [`AsyncQueue::record_executor_counters`].
    pub fn stats(&self) -> Option<&OpStats> {
        self.stats.as_deref()
    }

    /// Folds one run's executor scheduler counters (the work-stealing
    /// runtime's `steals`/`steal_batches`/`lifo_hits`/`injection_polls`/
    /// `parks`, i.e. `tokio::runtime::RuntimeMetrics`) into this queue's
    /// stats block, so scheduler behaviour lands next to waker traffic in
    /// one snapshot. No-op when stats are disabled. Plain integers keep
    /// this crate free of a runtime dependency — the harness reads the
    /// metrics and passes them through.
    pub fn record_executor_counters(
        &self,
        steals: u64,
        steal_batches: u64,
        lifo_hits: u64,
        injection_polls: u64,
        parks: u64,
    ) {
        if let Some(s) = self.stats() {
            s.record_executor_counters(steals, steal_batches, lifo_hits, injection_polls, parks);
        }
    }

    /// Capacity of the wrapped queue, if bounded. For a sharded backbone
    /// this is the conservative always-available bound (MPMC lanes only
    /// — see `ShardedQueue`'s `ConcurrentQueue::capacity` note).
    pub fn capacity(&self) -> Option<usize> {
        self.inner.capacity()
    }

    /// Approximate occupancy of the wrapped queue. Same advisory-snapshot
    /// contract as `ShardedQueue::len()`: a single racy pass with no
    /// cross-component synchronization, exact only in quiescence.
    /// Suitable for backpressure watermarks and monitoring (the broker's
    /// `BUSY` threshold), never for emptiness-as-synchronization —
    /// resolve "is there really an item?" with [`AsyncQueue::try_recv`].
    pub fn len(&self) -> Option<usize> {
        self.inner.len()
    }

    /// Whether the wrapped queue appears empty (see
    /// [`AsyncQueue::len`] for the advisory contract).
    pub fn is_empty(&self) -> Option<bool> {
        self.inner.is_empty()
    }

    /// Whether the wrapped queue appears full: `len() >= capacity()`,
    /// under [`AsyncQueue::len`]'s advisory contract. `None` when either
    /// side is unreported (unbounded or non-counting queues). A `true`
    /// is a watermark hint — the next `try_send` may still succeed (a
    /// dequeue may have landed since the snapshot), and with fast-path
    /// ring lanes a send can succeed even while the conservative MPMC
    /// capacity reads full. Use it to *anticipate* backpressure (shed
    /// load, emit `BUSY` early), and the actual [`Full`] result to
    /// *enforce* it.
    pub fn is_full(&self) -> Option<bool> {
        match (self.inner.len(), self.inner.capacity()) {
            (Some(len), Some(cap)) => Some(len >= cap),
            _ => None,
        }
    }

    /// Waker slots currently allocated (parked futures plus cancelled
    /// slots awaiting lazy pruning). Quiesces to zero once every future
    /// is resolved or dropped and the registries have been drained — the
    /// leak probe the cancellation tests assert on.
    pub fn live_waiters(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Whether [`AsyncQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        // SeqCst: paired with the waiters' register→fence→re-check
        // protocol, so a close is never missed by a future about to park.
        self.closed.load(Ordering::SeqCst)
    }

    /// Closes the channel and wakes every parked waiter. Subsequent
    /// sends fail with [`Closed`]; receivers drain the queue, then
    /// resolve to `None`. Idempotent; returns whether this call closed
    /// the channel.
    pub fn close(&self) -> bool {
        let was_closed = self.closed.swap(true, Ordering::SeqCst);
        if !was_closed {
            dekker_fence();
            let woke = self.senders.wake_all() + self.receivers.wake_all();
            if let Some(s) = self.stats() {
                s.waker_wakes.fetch_add(woke, Ordering::Relaxed);
            }
        }
        !was_closed
    }

    /// Non-blocking send through a fresh per-call handle. Prefer the
    /// futures (which hold one handle across retries) on hot paths.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        self.try_send_with(&mut self.inner.handle(), value)
    }

    /// Non-blocking send through a caller-built handle (the synchronous
    /// twin of [`AsyncQueue::send_with_handle`]). The broker's publish
    /// path uses this with a lane-pinned handle: `Full` from the pinned
    /// lane is what it converts into a protocol-level `BUSY`.
    pub fn try_send_with_handle(
        &self,
        handle: &mut Q::Handle<'_>,
        value: T,
    ) -> Result<(), TrySendError<T>> {
        self.try_send_with(handle, value)
    }

    /// Non-blocking receive through a fresh per-call handle. `None`
    /// means empty *or* closed-and-drained; disambiguate with
    /// [`AsyncQueue::is_closed`] if needed.
    pub fn try_recv(&self) -> Option<T> {
        self.try_recv_with_handle(&mut self.inner.handle())
    }

    /// Non-blocking receive through a caller-built handle (the
    /// synchronous twin of [`AsyncQueue::recv_with_handle`]), with
    /// [`AsyncQueue::try_recv`]'s `None`.
    pub fn try_recv_with_handle(&self, handle: &mut Q::Handle<'_>) -> Option<T> {
        match self.try_recv_with(handle) {
            RecvAttempt::Item(v) => Some(v),
            RecvAttempt::Empty | RecvAttempt::Closed => None,
        }
    }

    /// Sends `value`, resolving once it is enqueued; resolves to
    /// `Err(Closed(value))` if the channel is (or becomes) closed first.
    pub fn send(&self, value: T) -> SendFuture<'_, T, Q> {
        SendFuture::new(self, value)
    }

    /// Receives one item, resolving to `None` only when the channel is
    /// closed and drained.
    pub fn recv(&self) -> RecvFuture<'_, T, Q> {
        RecvFuture::new(self)
    }

    /// Like [`AsyncQueue::send`], but through a caller-built handle on
    /// the wrapped queue instead of a fresh [`ConcurrentQueue::handle`].
    ///
    /// This is how an affinity choice crosses the async boundary: the
    /// broker pins each connection's publishes to one sharded lane with
    /// `queue.inner().handle_pinned(lane)`, which keeps per-producer FIFO
    /// unconditional (a pinned handle never steals or spills), and lets
    /// MPSC fast-path lanes see a stable producer set.
    pub fn send_with_handle<'q>(&'q self, handle: Q::Handle<'q>, value: T) -> SendFuture<'q, T, Q> {
        SendFuture::with_handle(self, handle, value)
    }

    /// Like [`AsyncQueue::recv`], but through a caller-built handle (see
    /// [`AsyncQueue::send_with_handle`]).
    pub fn recv_with_handle<'q>(&'q self, handle: Q::Handle<'q>) -> RecvFuture<'q, T, Q> {
        RecvFuture::with_handle(self, handle)
    }

    /// Sends a whole batch through the wrapped queue's amortized batch
    /// path, resolving to the count enqueued once everything fits. If
    /// the channel closes mid-batch the error carries the unsent suffix
    /// (`enqueued = original_len - remaining.len()` items stay enqueued).
    pub fn send_batch(&self, items: Vec<T>) -> SendBatchFuture<'_, T, Q> {
        SendBatchFuture::new(self, items)
    }

    /// Receives up to `max` items, resolving once at least one is
    /// available (or to an empty `Vec` when the channel is closed and
    /// drained, or when `max == 0`).
    pub fn recv_batch(&self, max: usize) -> RecvBatchFuture<'_, T, Q> {
        RecvBatchFuture::new(self, max)
    }

    /// A [`futures::Stream`] view of the receive side. Ends when the
    /// channel is closed and drained. Multiple streams may run
    /// concurrently (each item goes to exactly one).
    #[cfg(feature = "futures-io")]
    pub fn stream(&self) -> RecvStream<'_, T, Q> {
        RecvStream::new(self)
    }

    /// A [`futures::Sink`] view of the send side. Closing the sink
    /// closes the *channel* (the single-producer idiom); with several
    /// producers, close only the last sink.
    #[cfg(feature = "futures-io")]
    pub fn sink(&self) -> SendSink<'_, T, Q> {
        SendSink::new(self)
    }

    // ----- internals shared with the futures -----

    pub(crate) fn try_send_with(
        &self,
        h: &mut Q::Handle<'_>,
        value: T,
    ) -> Result<(), TrySendError<T>> {
        if self.is_closed() {
            return Err(TrySendError::Closed(value));
        }
        match h.enqueue(value) {
            Ok(()) => {
                self.notify_receivers(1);
                Ok(())
            }
            Err(Full(v)) => Err(TrySendError::Full(v)),
        }
    }

    pub(crate) fn try_recv_with(&self, h: &mut Q::Handle<'_>) -> RecvAttempt<T> {
        // Flag before attempt: if `closed` was set and the attempt still
        // finds nothing, every pre-close item has been consumed.
        let closed = self.is_closed();
        match h.dequeue() {
            Some(v) => {
                self.notify_senders(1);
                RecvAttempt::Item(v)
            }
            None if closed => RecvAttempt::Closed,
            None => RecvAttempt::Empty,
        }
    }

    /// Wakes up to `freed` parked receivers after successful enqueues.
    pub(crate) fn notify_receivers(&self, freed: usize) {
        Self::notify(&self.receivers, freed, self.stats());
    }

    /// Wakes up to `freed` parked senders after successful dequeues.
    pub(crate) fn notify_senders(&self, freed: usize) {
        Self::notify(&self.senders, freed, self.stats());
    }

    fn notify(registry: &WaiterRegistry, n: usize, stats: Option<&OpStats>) {
        if n == 0 {
            return;
        }
        // Notifier half of the lost-wakeup protocol: the operation that
        // freed capacity/items happens-before this fence, the fence
        // before the registry's waiting count. With no waiter counted,
        // the first `wake_one` returns at once: no head swap, no banked
        // token.
        dekker_fence();
        let mut woke = 0u64;
        for _ in 0..n {
            if registry.wake_one() {
                woke += 1;
            } else {
                break;
            }
        }
        if woke > 0 {
            if let Some(s) = stats {
                s.waker_wakes.fetch_add(woke, Ordering::Relaxed);
            }
        }
    }

    /// Parks a sender: arms a waker slot on the full-queue side.
    pub(crate) fn register_sender(&self, waker: Waker) -> Arc<WaiterSlot> {
        if let Some(s) = self.stats() {
            s.record_waker_registration();
        }
        self.senders.register(waker)
    }

    /// Parks a receiver: arms a waker slot on the empty-queue side.
    pub(crate) fn register_receiver(&self, waker: Waker) -> Arc<WaiterSlot> {
        if let Some(s) = self.stats() {
            s.record_waker_registration();
        }
        self.receivers.register(waker)
    }

    /// Retires a sender slot whose future resolved or dropped. If a wake
    /// beat the cancellation, the consumed token is passed to a peer so
    /// no other sender sleeps through the freed capacity.
    pub(crate) fn resolve_sender_slot(&self, slot: Arc<WaiterSlot>) {
        if !self.senders.cancel(&slot) {
            Self::notify(&self.senders, 1, self.stats());
        } else if self.is_closed() {
            self.drain_after_close(&self.senders);
        }
    }

    /// Receiver-side analogue of [`AsyncQueue::resolve_sender_slot`].
    pub(crate) fn resolve_receiver_slot(&self, slot: Arc<WaiterSlot>) {
        if !self.receivers.cancel(&slot) {
            Self::notify(&self.receivers, 1, self.stats());
        } else if self.is_closed() {
            self.drain_after_close(&self.receivers);
        }
    }

    /// Resolves a sender slot carried over from a previous `Pending`
    /// poll. Returns whether the future had been parked (so a failed
    /// re-attempt is a *spurious poll* in the stats' sense). A failed
    /// cancel means a notifier claimed the slot: the poll now holds a
    /// wake token, which the attempt that follows consumes (on success)
    /// or effectively re-arms (by re-registering).
    pub(crate) fn resolve_prior_sender(&self, slot: &mut Option<Arc<WaiterSlot>>) -> bool {
        match slot.take() {
            Some(prior) => {
                if self.senders.cancel(&prior) && self.is_closed() {
                    self.drain_after_close(&self.senders);
                }
                true
            }
            None => false,
        }
    }

    /// Receiver-side analogue of [`AsyncQueue::resolve_prior_sender`].
    pub(crate) fn resolve_prior_receiver(&self, slot: &mut Option<Arc<WaiterSlot>>) -> bool {
        match slot.take() {
            Some(prior) => {
                if self.receivers.cancel(&prior) && self.is_closed() {
                    self.drain_after_close(&self.receivers);
                }
                true
            }
            None => false,
        }
    }

    /// Sweeps a registry after close. A slot registered *after* `close`'s
    /// final `wake_all` would otherwise sit cancelled on the stack until
    /// the queue drops — no further notify ever walks over it — so the
    /// resolving future prunes its own registry on the way out. Post-close
    /// every registrant resolves without parking (its re-attempt sees the
    /// closed flag), so any `WAITING` slot swept here belongs to a future
    /// that is about to resolve on its own and never needed the wake.
    fn drain_after_close(&self, registry: &WaiterRegistry) {
        let woke = registry.wake_all();
        if woke > 0 {
            if let Some(s) = self.stats() {
                s.waker_wakes.fetch_add(woke, Ordering::Relaxed);
            }
        }
    }

    pub(crate) fn record_spurious_poll(&self) {
        if let Some(s) = self.stats() {
            s.record_spurious_poll();
        }
    }

    /// Rescues a wake token that would otherwise die with work still
    /// visible: called by a *notified* receiver that re-parks while the
    /// queue observably holds items.
    ///
    /// Under lane-pinned handles or fast-path ring policies, an item can
    /// be reachable only by one specific parked future — the handle
    /// pinned to that lane, or the handle holding the lane ring's single
    /// consumer seat ([`ShardedQueue`]'s claim rules) — and `notify`
    /// picks a waiter with no knowledge of which future that is. When
    /// the token lands on a waiter that cannot make progress, a one-shot
    /// handoff could ping-pong among equally-stuck peers (the registry
    /// is LIFO), so the rescue is a broadcast: every parked receiver
    /// re-polls, the capable one drains the item, and the broadcast
    /// cannot recur once `len()` reads empty. The cost is a thundering
    /// herd on a path that requires a mis-delivered token to reach at
    /// all.
    ///
    /// [`ShardedQueue`]: nbq_core::ShardedQueue
    pub(crate) fn forward_receiver_token(&self) {
        if self.len().is_some_and(|n| n > 0) {
            let woke = self.receivers.wake_all();
            if woke > 0 {
                if let Some(s) = self.stats() {
                    s.waker_wakes.fetch_add(woke, Ordering::Relaxed);
                }
            }
        }
    }

    /// Sender-side analogue of [`AsyncQueue::forward_receiver_token`]:
    /// a *notified* sender that still sees `Full` while the queue
    /// observably has spare capacity broadcasts to its peers. The
    /// freed slot may live in a lane only one specific parked sender
    /// can reach (lane-pinned handles, a fan-out ring's single producer
    /// seat), and that sender may not be the one the dequeue's token
    /// landed on.
    pub(crate) fn forward_sender_token(&self) {
        if let (Some(len), Some(cap)) = (self.len(), self.capacity()) {
            if len < cap {
                let woke = self.senders.wake_all();
                if woke > 0 {
                    if let Some(s) = self.stats() {
                        s.waker_wakes.fetch_add(woke, Ordering::Relaxed);
                    }
                }
            }
        }
    }
}

impl<T: Send, Q: ConcurrentQueue<T>> std::fmt::Debug for AsyncQueue<T, Q> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncQueue")
            .field("algorithm", &self.inner.algorithm_name())
            .field("capacity", &self.capacity())
            .field("closed", &self.is_closed())
            .field("live_waiters", &self.live_waiters())
            .finish()
    }
}
