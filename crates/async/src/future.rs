//! The send/recv futures: two-phase poll protocol with cancellation-safe
//! deregistration.
//!
//! Every future follows the same shape:
//!
//! 1. **Resolve** any entry left by a previous `Pending` poll. Its cancel
//!    tells the future whether it was genuinely woken (a notifier took
//!    the entry) or merely re-polled (timer fired, `select` sibling woke,
//!    executor quirk).
//! 2. **Attempt** the operation. Success resolves the future.
//! 3. On failure, **register** a fresh entry carrying the current waker,
//!    issue the Dekker fence, and **re-attempt** once. Only if the
//!    re-attempt also fails does the future return `Pending` — any
//!    operation that completed before the registration became visible is
//!    caught by the re-attempt, and any later one sees the entry.
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
use crate::{AsyncQueue, RecvAttempt};
use nbq_util::queue::{Closed, ConcurrentQueue, QueueHandle, TrySendError};
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

/// Future returned by [`AsyncQueue::send`].
pub struct SendFuture<'q, T: Send, Q: ConcurrentQueue<T>> {
    queue: &'q AsyncQueue<T, Q>,
    handle: Q::Handle<'q>,
    value: Option<T>,
    key: Option<WaitKey>,
}

// The futures never pin-project: fields are only ever used through plain
// `&mut`, and nothing is self-referential, so `Unpin` holds regardless
// of `Q::Handle` (the handle itself is never pinned).
impl<T: Send, Q: ConcurrentQueue<T>> Unpin for SendFuture<'_, T, Q> {}

impl<'q, T: Send, Q: ConcurrentQueue<T>> SendFuture<'q, T, Q> {
    pub(crate) fn new(queue: &'q AsyncQueue<T, Q>, value: T) -> Self {
        Self::with_handle(queue, queue.inner().handle(), value)
    }

    pub(crate) fn with_handle(
        queue: &'q AsyncQueue<T, Q>,
        handle: Q::Handle<'q>,
        value: T,
    ) -> Self {
        Self {
            queue,
            handle,
            value: Some(value),
            key: None,
        }
    }
}

impl<T: Send, Q: ConcurrentQueue<T>> Future for SendFuture<'_, T, Q> {
    type Output = Result<(), Closed<T>>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let was_parked = this.queue.senders.resolve_prior(&mut this.key);
        let value = this
            .value
            .take()
            .expect("SendFuture polled after completion");
        match this.queue.try_send_with(&mut this.handle, value) {
            Ok(()) => Poll::Ready(Ok(())),
            Err(TrySendError::Closed(v)) => Poll::Ready(Err(Closed(v))),
            Err(TrySendError::Full(v)) => {
                if was_parked {
                    this.queue.record_spurious_poll();
                }
                let key = this.queue.register(&this.queue.senders, cx.waker());
                dekker_fence();
                match this.queue.try_send_with(&mut this.handle, v) {
                    Ok(()) => {
                        this.queue.resolve(&this.queue.senders, key);
                        Poll::Ready(Ok(()))
                    }
                    Err(TrySendError::Closed(v)) => {
                        this.queue.resolve(&this.queue.senders, key);
                        Poll::Ready(Err(Closed(v)))
                    }
                    Err(TrySendError::Full(v)) => {
                        this.value = Some(v);
                        this.key = Some(key);
                        if was_parked {
                            // We consumed a wake token yet still see
                            // Full; the freed slot may be reachable only
                            // by a differently-pinned parked peer.
                            this.queue.forward_sender_token();
                        }
                        Poll::Pending
                    }
                }
            }
        }
    }
}

impl<T: Send, Q: ConcurrentQueue<T>> Drop for SendFuture<'_, T, Q> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            self.queue.resolve(&self.queue.senders, key);
        }
    }
}

/// Future returned by [`AsyncQueue::recv`].
pub struct RecvFuture<'q, T: Send, Q: ConcurrentQueue<T>> {
    queue: &'q AsyncQueue<T, Q>,
    handle: Q::Handle<'q>,
    key: Option<WaitKey>,
}

impl<T: Send, Q: ConcurrentQueue<T>> Unpin for RecvFuture<'_, T, Q> {}

impl<'q, T: Send, Q: ConcurrentQueue<T>> RecvFuture<'q, T, Q> {
    pub(crate) fn new(queue: &'q AsyncQueue<T, Q>) -> Self {
        Self::with_handle(queue, queue.inner().handle())
    }

    pub(crate) fn with_handle(queue: &'q AsyncQueue<T, Q>, handle: Q::Handle<'q>) -> Self {
        Self {
            queue,
            handle,
            key: None,
        }
    }
}

impl<T: Send, Q: ConcurrentQueue<T>> Future for RecvFuture<'_, T, Q> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let was_parked = this.queue.receivers.resolve_prior(&mut this.key);
        match this.queue.try_recv_with(&mut this.handle) {
            RecvAttempt::Item(v) => Poll::Ready(Some(v)),
            RecvAttempt::Closed => Poll::Ready(None),
            RecvAttempt::Empty => {
                if was_parked {
                    this.queue.record_spurious_poll();
                }
                let key = this.queue.register(&this.queue.receivers, cx.waker());
                dekker_fence();
                match this.queue.try_recv_with(&mut this.handle) {
                    RecvAttempt::Item(v) => {
                        this.queue.resolve(&this.queue.receivers, key);
                        Poll::Ready(Some(v))
                    }
                    RecvAttempt::Closed => {
                        this.queue.resolve(&this.queue.receivers, key);
                        Poll::Ready(None)
                    }
                    RecvAttempt::Empty => {
                        this.key = Some(key);
                        if was_parked {
                            // We consumed a wake token yet still see
                            // Empty; the item may sit in a lane ring
                            // whose consumer seat a parked peer holds.
                            this.queue.forward_receiver_token();
                        }
                        Poll::Pending
                    }
                }
            }
        }
    }
}

impl<T: Send, Q: ConcurrentQueue<T>> Drop for RecvFuture<'_, T, Q> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            self.queue.resolve(&self.queue.receivers, key);
        }
    }
}

/// Future returned by [`AsyncQueue::send_batch`].
///
/// Rides the wrapped queue's amortized `enqueue_batch` path; partial
/// fills make progress (the landed prefix stays enqueued) and only the
/// unsent suffix waits for capacity.
pub struct SendBatchFuture<'q, T: Send, Q: ConcurrentQueue<T>> {
    queue: &'q AsyncQueue<T, Q>,
    handle: Q::Handle<'q>,
    /// The not-yet-enqueued suffix; `None` after completion.
    pending: Option<Vec<T>>,
    enqueued: usize,
    key: Option<WaitKey>,
}

impl<T: Send, Q: ConcurrentQueue<T>> Unpin for SendBatchFuture<'_, T, Q> {}

impl<'q, T: Send, Q: ConcurrentQueue<T>> SendBatchFuture<'q, T, Q> {
    pub(crate) fn new(queue: &'q AsyncQueue<T, Q>, items: Vec<T>) -> Self {
        Self {
            queue,
            handle: queue.inner().handle(),
            pending: Some(items),
            enqueued: 0,
            key: None,
        }
    }

    /// One batch attempt: `Ok(remaining)` (empty = done) or the closed
    /// error carrying the unsent suffix.
    fn attempt(&mut self, items: Vec<T>) -> Result<Vec<T>, Closed<Vec<T>>> {
        if self.queue.is_closed() {
            return Err(Closed(items));
        }
        match self.handle.enqueue_batch(items.into_iter()) {
            Ok(n) => {
                self.enqueued += n;
                self.queue.notify(&self.queue.receivers, n);
                Ok(Vec::new())
            }
            Err(partial) => {
                self.enqueued += partial.enqueued;
                self.queue.notify(&self.queue.receivers, partial.enqueued);
                Ok(partial.remaining)
            }
        }
    }
}

impl<T: Send, Q: ConcurrentQueue<T>> Future for SendBatchFuture<'_, T, Q> {
    /// Count of items enqueued on success; on close, the unsent suffix
    /// (`enqueued = original_len - remaining.len()` items are already in
    /// the queue and will be delivered by the drain contract).
    type Output = Result<usize, Closed<Vec<T>>>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let was_parked = this.queue.senders.resolve_prior(&mut this.key);
        let items = this
            .pending
            .take()
            .expect("SendBatchFuture polled after completion");
        if items.is_empty() {
            return Poll::Ready(Ok(this.enqueued));
        }
        match this.attempt(items) {
            Err(e) => Poll::Ready(Err(e)),
            Ok(rest) if rest.is_empty() => Poll::Ready(Ok(this.enqueued)),
            Ok(rest) => {
                if was_parked {
                    this.queue.record_spurious_poll();
                }
                let key = this.queue.register(&this.queue.senders, cx.waker());
                dekker_fence();
                match this.attempt(rest) {
                    Err(e) => {
                        this.queue.resolve(&this.queue.senders, key);
                        Poll::Ready(Err(e))
                    }
                    Ok(rest) if rest.is_empty() => {
                        this.queue.resolve(&this.queue.senders, key);
                        Poll::Ready(Ok(this.enqueued))
                    }
                    Ok(rest) => {
                        this.pending = Some(rest);
                        this.key = Some(key);
                        if was_parked {
                            this.queue.forward_sender_token();
                        }
                        Poll::Pending
                    }
                }
            }
        }
    }
}

impl<T: Send, Q: ConcurrentQueue<T>> Drop for SendBatchFuture<'_, T, Q> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            self.queue.resolve(&self.queue.senders, key);
        }
    }
}

/// Future returned by [`AsyncQueue::recv_batch`].
pub struct RecvBatchFuture<'q, T: Send, Q: ConcurrentQueue<T>> {
    queue: &'q AsyncQueue<T, Q>,
    handle: Q::Handle<'q>,
    max: usize,
    key: Option<WaitKey>,
}

impl<T: Send, Q: ConcurrentQueue<T>> Unpin for RecvBatchFuture<'_, T, Q> {}

impl<'q, T: Send, Q: ConcurrentQueue<T>> RecvBatchFuture<'q, T, Q> {
    pub(crate) fn new(queue: &'q AsyncQueue<T, Q>, max: usize) -> Self {
        Self {
            queue,
            handle: queue.inner().handle(),
            max,
            key: None,
        }
    }

    /// One batch attempt; `Err(true)` = closed-and-drained, `Err(false)`
    /// = merely empty.
    fn attempt(&mut self) -> Result<Vec<T>, bool> {
        let closed = self.queue.is_closed();
        let mut out = Vec::new();
        let n = self.handle.dequeue_batch(&mut out, self.max);
        if n > 0 {
            self.queue.notify(&self.queue.senders, n);
            Ok(out)
        } else {
            Err(closed)
        }
    }
}

impl<T: Send, Q: ConcurrentQueue<T>> Future for RecvBatchFuture<'_, T, Q> {
    /// At least one item on success; empty only when the channel is
    /// closed and drained (or `max == 0`).
    type Output = Vec<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let was_parked = this.queue.receivers.resolve_prior(&mut this.key);
        if this.max == 0 {
            return Poll::Ready(Vec::new());
        }
        match this.attempt() {
            Ok(out) => Poll::Ready(out),
            Err(true) => Poll::Ready(Vec::new()),
            Err(false) => {
                if was_parked {
                    this.queue.record_spurious_poll();
                }
                let key = this.queue.register(&this.queue.receivers, cx.waker());
                dekker_fence();
                match this.attempt() {
                    Ok(out) => {
                        this.queue.resolve(&this.queue.receivers, key);
                        Poll::Ready(out)
                    }
                    Err(true) => {
                        this.queue.resolve(&this.queue.receivers, key);
                        Poll::Ready(Vec::new())
                    }
                    Err(false) => {
                        this.key = Some(key);
                        if was_parked {
                            this.queue.forward_receiver_token();
                        }
                        Poll::Pending
                    }
                }
            }
        }
    }
}

impl<T: Send, Q: ConcurrentQueue<T>> Drop for RecvBatchFuture<'_, T, Q> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            self.queue.resolve(&self.queue.receivers, key);
        }
    }
}
