//! The channel's futures: one two-phase park protocol over four ops.
//!
//! [`OpFuture`] drives every future the channel hands out. Each poll:
//!
//! 1. **Resolves** any entry left by a previous `Pending` poll. Its cancel
//!    tells the future whether it was genuinely woken (a notifier took
//!    the entry) or merely re-polled (timer fired, `select` sibling woke,
//!    executor quirk).
//! 2. **Attempts** the op. Success resolves the future.
//! 3. On failure, **registers** a fresh entry carrying the current waker,
//!    issues the Dekker fence, and **re-attempts** once. Only if the
//!    re-attempt also fails does the future return `Pending` — any
//!    operation that completed before the registration became visible is
//!    caught by the re-attempt, and any later one sees the entry.
//!
//! An [`Op`] supplies only what differs between the four futures: its
//! attempt, its output, and the side it parks on. The non-blocking
//! `try_*` calls are one attempt of the same op. Each op keeps its own
//! attempt, so a single-item future never instantiates the wrapped
//! queue's batch paths.
//!
//! Each registration is a *fresh* entry rather than a waker update on the
//! old one, so the old entry's cancel is what answers step 1. A future
//! holds only its entry's [`WaitKey`]; parking allocates nothing of its
//! own (see `waiters`).
//!
//! `Drop` cancels a live entry, passing the wake token to a peer if a
//! notifier got there first, so cancellation (`timeout`, `select`, task
//! abort, runtime teardown) can never strand another waiter.

use crate::waiters::{dekker_fence, WaitKey};
use crate::AsyncQueue;
use nbq_util::queue::{Closed, ConcurrentQueue, Full, QueueHandle};
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

/// The waiter list a failed attempt parks on.
#[derive(Debug, Clone, Copy)]
pub enum Side {
    /// Parked on a full queue; woken by a receive.
    Senders,
    /// Parked on an empty queue; woken by a send.
    Receivers,
}

/// One channel operation, as [`OpFuture`] drives it. Public only so the
/// future's type can name it; the module is private, so no other crate
/// can implement it.
pub trait Op<T: Send, Q: ConcurrentQueue<T>> {
    /// What the future resolves to.
    type Output;
    /// The waiter list this op parks on when its attempt fails.
    const SIDE: Side;
    /// One non-blocking attempt. `Pending` keeps what is left of the op
    /// in `self` for the next attempt; a success notifies the other side.
    fn attempt(&mut self, q: &AsyncQueue<T, Q>, h: &mut Q::Handle<'_>) -> Poll<Self::Output>;
}

/// A channel future: an [`Op`], the handle it runs through, and the
/// waiter entry of its last `Pending` poll.
pub struct OpFuture<'q, T: Send, Q: ConcurrentQueue<T>, O: Op<T, Q>> {
    queue: &'q AsyncQueue<T, Q>,
    handle: Q::Handle<'q>,
    op: O,
    key: Option<WaitKey>,
}

/// Future returned by [`AsyncQueue::send`]: resolves once the value is
/// enqueued, or to `Err(Closed(value))` if the channel closes first.
pub type SendFuture<'q, T, Q> = OpFuture<'q, T, Q, SendOne<T>>;
/// Future returned by [`AsyncQueue::recv`]: one item, or `None` once the
/// channel is closed and drained.
pub type RecvFuture<'q, T, Q> = OpFuture<'q, T, Q, RecvOne>;
/// Future returned by [`AsyncQueue::send_batch`]: rides the wrapped
/// queue's amortized `enqueue_batch` path. Partial fills make progress
/// (the landed prefix stays enqueued) and only the unsent suffix waits
/// for capacity. Resolves to the count enqueued; on close, to the unsent
/// suffix (the items before it stay queued for the drain contract).
pub type SendBatchFuture<'q, T, Q> = OpFuture<'q, T, Q, SendBatch<T>>;
/// Future returned by [`AsyncQueue::recv_batch`]: at least one item, or
/// an empty `Vec` only when the channel is closed and drained (or
/// `max == 0`).
pub type RecvBatchFuture<'q, T, Q> = OpFuture<'q, T, Q, RecvBatch>;

// The futures never pin-project: fields are only ever used through plain
// `&mut`, and nothing is self-referential, so `Unpin` holds regardless
// of `Q::Handle` or the op's payload (neither is ever pinned).
impl<T: Send, Q: ConcurrentQueue<T>, O: Op<T, Q>> Unpin for OpFuture<'_, T, Q, O> {}

impl<'q, T: Send, Q: ConcurrentQueue<T>, O: Op<T, Q>> OpFuture<'q, T, Q, O> {
    pub(crate) fn new(queue: &'q AsyncQueue<T, Q>, handle: Q::Handle<'q>, op: O) -> Self {
        Self {
            queue,
            handle,
            op,
            key: None,
        }
    }
}

impl<T: Send, Q: ConcurrentQueue<T>, O: Op<T, Q>> Future for OpFuture<'_, T, Q, O> {
    type Output = O::Output;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<O::Output> {
        let this = self.get_mut();
        let queue = this.queue;
        let was_parked = queue.waiters(O::SIDE).resolve_prior(&mut this.key);
        if let Poll::Ready(out) = this.op.attempt(queue, &mut this.handle) {
            return Poll::Ready(out);
        }
        if was_parked {
            queue.record_spurious_poll();
        }
        let key = queue.register(O::SIDE, cx.waker());
        dekker_fence();
        match this.op.attempt(queue, &mut this.handle) {
            Poll::Ready(out) => {
                queue.resolve(O::SIDE, key);
                Poll::Ready(out)
            }
            Poll::Pending => {
                this.key = Some(key);
                if was_parked {
                    // We consumed a wake token yet still cannot proceed;
                    // the freed item or slot may be reachable only by a
                    // differently-pinned parked peer.
                    queue.forward_token(O::SIDE);
                }
                Poll::Pending
            }
        }
    }
}

impl<T: Send, Q: ConcurrentQueue<T>, O: Op<T, Q>> Drop for OpFuture<'_, T, Q, O> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            self.queue.resolve(O::SIDE, key);
        }
    }
}

/// Sends one value; holds it while parked.
pub struct SendOne<T>(pub(crate) Option<T>);

impl<T: Send, Q: ConcurrentQueue<T>> Op<T, Q> for SendOne<T> {
    type Output = Result<(), Closed<T>>;
    const SIDE: Side = Side::Senders;

    fn attempt(&mut self, q: &AsyncQueue<T, Q>, h: &mut Q::Handle<'_>) -> Poll<Self::Output> {
        let value = self.0.take().expect("SendFuture polled after completion");
        if q.is_closed() {
            return Poll::Ready(Err(Closed(value)));
        }
        match h.enqueue(value) {
            Ok(()) => {
                q.notify(Side::Receivers, 1);
                Poll::Ready(Ok(()))
            }
            Err(Full(value)) => {
                self.0 = Some(value);
                Poll::Pending
            }
        }
    }
}

/// Receives one item.
pub struct RecvOne;

impl<T: Send, Q: ConcurrentQueue<T>> Op<T, Q> for RecvOne {
    type Output = Option<T>;
    const SIDE: Side = Side::Receivers;

    fn attempt(&mut self, q: &AsyncQueue<T, Q>, h: &mut Q::Handle<'_>) -> Poll<Option<T>> {
        // Flag before attempt: if `closed` was set and the attempt still
        // finds nothing, every pre-close item has been consumed.
        let closed = q.is_closed();
        match h.dequeue() {
            Some(v) => {
                q.notify(Side::Senders, 1);
                Poll::Ready(Some(v))
            }
            None if closed => Poll::Ready(None),
            None => Poll::Pending,
        }
    }
}

/// Sends a batch; holds the unsent suffix while parked.
pub struct SendBatch<T> {
    pub(crate) items: Vec<T>,
    pub(crate) enqueued: usize,
}

impl<T: Send, Q: ConcurrentQueue<T>> Op<T, Q> for SendBatch<T> {
    type Output = Result<usize, Closed<Vec<T>>>;
    const SIDE: Side = Side::Senders;

    fn attempt(&mut self, q: &AsyncQueue<T, Q>, h: &mut Q::Handle<'_>) -> Poll<Self::Output> {
        if self.items.is_empty() {
            return Poll::Ready(Ok(self.enqueued));
        }
        let items = std::mem::take(&mut self.items);
        if q.is_closed() {
            return Poll::Ready(Err(Closed(items)));
        }
        let n = match h.enqueue_batch(items.into_iter()) {
            Ok(n) => n,
            Err(partial) => {
                self.items = partial.remaining;
                partial.enqueued
            }
        };
        self.enqueued += n;
        q.notify(Side::Receivers, n);
        if self.items.is_empty() {
            Poll::Ready(Ok(self.enqueued))
        } else {
            Poll::Pending
        }
    }
}

/// Receives up to `max` items.
pub struct RecvBatch {
    pub(crate) max: usize,
}

impl<T: Send, Q: ConcurrentQueue<T>> Op<T, Q> for RecvBatch {
    type Output = Vec<T>;
    const SIDE: Side = Side::Receivers;

    fn attempt(&mut self, q: &AsyncQueue<T, Q>, h: &mut Q::Handle<'_>) -> Poll<Vec<T>> {
        let mut out = Vec::new();
        if self.max == 0 {
            return Poll::Ready(out);
        }
        let closed = q.is_closed();
        let n = h.dequeue_batch(&mut out, self.max);
        q.notify(Side::Senders, n);
        if n > 0 || closed {
            Poll::Ready(out)
        } else {
            Poll::Pending
        }
    }
}
