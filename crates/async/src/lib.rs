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
//!   straight to the wrapped queue. A waiter registry (the `waiters` module,
//!   one FIFO list of wakers per direction behind a short lock) is
//!   touched only *after* a failed attempt, mirroring the blocking
//!   adapter's "lock only after failure" structure; a notifier takes
//!   the lock only after it has seen a waiter counted.
//! * The lost-wakeup race is closed with the classic two-phase protocol,
//!   written once for all four futures (`future.rs`): a future that
//!   fails registers its waker, issues a `SeqCst` fence, and re-tries
//!   once before returning `Pending`; a successful operation issues the
//!   same fence before scanning for a waiter to wake.
//! * Dropping a pending future deregisters its waker entry. If the drop
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
//! single-queue executor bottleneck; its scheduler counters are read
//! from the runtime itself (`Runtime::metrics`), not from this crate.

#![warn(missing_docs)]

mod future;
mod sinkstream;
mod waiters;

pub use future::{RecvBatchFuture, RecvFuture, SendBatchFuture, SendFuture};
pub use nbq_util::queue::{BatchFull, Closed, Full, TrySendError};
pub use sinkstream::{RecvStream, SendSink};

use crate::future::{Op, OpFuture, RecvBatch, RecvOne, SendBatch, SendOne, Side};
use crate::waiters::{dekker_fence, WaitKey, WaiterRegistry};
use nbq_util::queue::ConcurrentQueue;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::task::{Poll, Waker};

/// Waker-traffic counters of one [`AsyncQueue`], enabled by
/// [`AsyncQueue::with_stats`]. Relaxed increments, on the parking path
/// only: a send or receive that never parks touches none of them.
#[derive(Debug, Default)]
pub struct AsyncStats {
    /// Waiter entries registered (a future failed an attempt and parked
    /// its waker).
    pub waker_registrations: AtomicU64,
    /// Wakes issued to parked futures by the opposite side, by a token
    /// handoff, or by `close`.
    pub waker_wakes: AtomicU64,
    /// Polls of a parked future that still found the queue unavailable
    /// (another task won the race) and parked again.
    pub spurious_polls: AtomicU64,
}

/// A point-in-time copy of [`AsyncStats`] (absolute counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AsyncStatsSnapshot {
    /// Waiter entries registered.
    pub waker_registrations: u64,
    /// Wakes issued to parked futures.
    pub waker_wakes: u64,
    /// Polls that re-parked after a wake.
    pub spurious_polls: u64,
}

impl AsyncStats {
    /// The counters' current values.
    pub fn snapshot(&self) -> AsyncStatsSnapshot {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        AsyncStatsSnapshot {
            waker_registrations: load(&self.waker_registrations),
            waker_wakes: load(&self.waker_wakes),
            spurious_polls: load(&self.spurious_polls),
        }
    }
}

/// An async MPMC channel over any [`ConcurrentQueue`].
pub struct AsyncQueue<T: Send, Q: ConcurrentQueue<T>> {
    inner: Q,
    /// Futures parked on a full queue.
    senders: WaiterRegistry,
    /// Futures parked on an empty queue.
    receivers: WaiterRegistry,
    closed: AtomicBool,
    stats: Option<Box<AsyncStats>>,
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
        Self {
            inner,
            senders: WaiterRegistry::new(),
            receivers: WaiterRegistry::new(),
            closed: AtomicBool::new(false),
            stats: stats.then(|| Box::new(AsyncStats::default())),
            _marker: PhantomData,
        }
    }

    /// The wrapped queue.
    pub fn inner(&self) -> &Q {
        &self.inner
    }

    /// Waker-traffic counters, if built via [`AsyncQueue::with_stats`].
    pub fn stats(&self) -> Option<&AsyncStats> {
        self.stats.as_deref()
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

    /// Parked futures across both directions. Quiesces to zero once
    /// every future is resolved or dropped — the leak probe the
    /// cancellation tests assert on.
    pub fn live_waiters(&self) -> usize {
        self.senders.len() + self.receivers.len()
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
            self.broadcast(Side::Senders);
            self.broadcast(Side::Receivers);
        }
        !was_closed
    }

    /// Non-blocking send through a fresh per-call handle. Prefer the
    /// futures (which hold one handle across retries) on hot paths.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        self.try_send_with_handle(&mut self.inner.handle(), value)
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
        let mut op = SendOne(Some(value));
        match op.attempt(self, handle) {
            Poll::Ready(sent) => sent.map_err(|Closed(v)| TrySendError::Closed(v)),
            Poll::Pending => Err(TrySendError::Full(
                op.0.take().expect("a full attempt keeps its value"),
            )),
        }
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
        match RecvOne.attempt(self, handle) {
            Poll::Ready(item) => item,
            Poll::Pending => None,
        }
    }

    /// Sends `value`, resolving once it is enqueued; resolves to
    /// `Err(Closed(value))` if the channel is (or becomes) closed first.
    pub fn send(&self, value: T) -> SendFuture<'_, T, Q> {
        self.send_with_handle(self.inner.handle(), value)
    }

    /// Receives one item, resolving to `None` only when the channel is
    /// closed and drained.
    pub fn recv(&self) -> RecvFuture<'_, T, Q> {
        self.recv_with_handle(self.inner.handle())
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
        OpFuture::new(self, handle, SendOne(Some(value)))
    }

    /// Like [`AsyncQueue::recv`], but through a caller-built handle (see
    /// [`AsyncQueue::send_with_handle`]).
    pub fn recv_with_handle<'q>(&'q self, handle: Q::Handle<'q>) -> RecvFuture<'q, T, Q> {
        OpFuture::new(self, handle, RecvOne)
    }

    /// Sends a whole batch through the wrapped queue's amortized batch
    /// path, resolving to the count enqueued once everything fits. If
    /// the channel closes mid-batch the error carries the unsent suffix
    /// (`enqueued = original_len - remaining.len()` items stay enqueued).
    pub fn send_batch(&self, items: Vec<T>) -> SendBatchFuture<'_, T, Q> {
        let op = SendBatch { items, enqueued: 0 };
        OpFuture::new(self, self.inner.handle(), op)
    }

    /// Receives up to `max` items, resolving once at least one is
    /// available (or to an empty `Vec` when the channel is closed and
    /// drained, or when `max == 0`).
    pub fn recv_batch(&self, max: usize) -> RecvBatchFuture<'_, T, Q> {
        OpFuture::new(self, self.inner.handle(), RecvBatch { max })
    }

    /// A [`futures::Stream`] view of the receive side. Ends when the
    /// channel is closed and drained. Multiple streams may run
    /// concurrently (each item goes to exactly one).
    pub fn stream(&self) -> RecvStream<'_, T, Q> {
        RecvStream::new(self)
    }

    /// A [`futures::Sink`] view of the send side. Closing the sink
    /// closes the *channel* (the single-producer idiom); with several
    /// producers, close only the last sink.
    pub fn sink(&self) -> SendSink<'_, T, Q> {
        SendSink::new(self)
    }

    // ----- internals shared with the futures -----

    /// The waiter list of `side`.
    pub(crate) fn waiters(&self, side: Side) -> &WaiterRegistry {
        match side {
            Side::Senders => &self.senders,
            Side::Receivers => &self.receivers,
        }
    }

    /// Wakes up to `n` futures parked on `side` after `n` successful
    /// operations freed items (receivers) or capacity (senders).
    pub(crate) fn notify(&self, side: Side, n: usize) {
        if n == 0 {
            return;
        }
        // Notifier half of the lost-wakeup protocol: the operation that
        // freed capacity/items happens-before this fence, the fence
        // before the registry's waiting count. With no waiter counted,
        // the first `wake_one` returns at once, without the lock.
        dekker_fence();
        let waiters = self.waiters(side);
        let woke = (0..n).take_while(|_| waiters.wake_one()).count() as u64;
        self.record_wakes(woke);
    }

    /// Wakes every future parked on `side`.
    fn broadcast(&self, side: Side) {
        self.record_wakes(self.waiters(side).wake_all());
    }

    fn record_wakes(&self, woke: u64) {
        if woke > 0 {
            if let Some(s) = self.stats() {
                s.waker_wakes.fetch_add(woke, Ordering::Relaxed);
            }
        }
    }

    /// Parks a future on `side`.
    pub(crate) fn register(&self, side: Side, waker: &Waker) -> WaitKey {
        if let Some(s) = self.stats() {
            s.waker_registrations.fetch_add(1, Ordering::Relaxed);
        }
        self.waiters(side).register(waker.clone())
    }

    /// Retires the entry of a future that resolved or dropped. If a wake
    /// beat the cancellation, the consumed token is passed to a peer so
    /// no other waiter sleeps through the freed item or capacity.
    pub(crate) fn resolve(&self, side: Side, key: WaitKey) {
        if !self.waiters(side).cancel(key) {
            self.notify(side, 1);
        }
    }

    pub(crate) fn record_spurious_poll(&self) {
        if let Some(s) = self.stats() {
            s.spurious_polls.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Rescues a wake token that would otherwise die with work still
    /// visible: called by a *notified* future that re-parks while the
    /// queue observably holds items (receivers) or spare capacity
    /// (senders).
    ///
    /// Under lane-pinned handles or fast-path ring policies, an item or
    /// a free slot can be reachable only by one specific parked future —
    /// the handle pinned to that lane, or the handle holding the lane
    /// ring's single consumer or producer seat (`nbq_core::ShardedQueue`'s
    /// claim rules) — and `notify` picks a waiter with no knowledge of which
    /// future that is. When the token lands on a waiter that cannot make
    /// progress, a one-shot handoff would visit the stuck peers one
    /// reschedule at a time, and cycle among them while the capable
    /// future is not parked, so the rescue is a broadcast: every parked
    /// future on `side` re-polls, the capable one proceeds, and the
    /// broadcast cannot recur once the queue reads empty (receivers) or
    /// full (senders). The cost is a thundering herd on a path that
    /// requires a mis-delivered token to reach at all.
    pub(crate) fn forward_token(&self, side: Side) {
        let stuck_beside_work = match side {
            Side::Receivers => self.len().is_some_and(|n| n > 0),
            Side::Senders => {
                matches!((self.len(), self.capacity()), (Some(len), Some(cap)) if len < cap)
            }
        };
        if stuck_beside_work {
            self.broadcast(side);
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
