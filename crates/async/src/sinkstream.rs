//! `futures::Stream` / `futures::Sink` adapters.
//!
//! Both are thin state machines over the crate's own futures: a stream is
//! a `RecvFuture` re-created per item; a sink holds at most one in-flight
//! `SendFuture` (the queue itself is the buffer, so no extra buffering is
//! needed — `poll_ready` simply drives the previous send to completion).

use crate::future::{RecvFuture, SendFuture};
use crate::AsyncQueue;
use futures::{Sink, Stream};
use nbq_util::queue::{Closed, ConcurrentQueue};
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

/// Receive side of an [`AsyncQueue`] as a [`Stream`]. Ends (`None`) when
/// the channel is closed and drained. Created by [`AsyncQueue::stream`].
pub struct RecvStream<'q, T: Send, Q: ConcurrentQueue<T>> {
    queue: &'q AsyncQueue<T, Q>,
    fut: Option<RecvFuture<'q, T, Q>>,
}

impl<T: Send, Q: ConcurrentQueue<T>> Unpin for RecvStream<'_, T, Q> {}

impl<'q, T: Send, Q: ConcurrentQueue<T>> RecvStream<'q, T, Q> {
    pub(crate) fn new(queue: &'q AsyncQueue<T, Q>) -> Self {
        Self { queue, fut: None }
    }
}

impl<T: Send, Q: ConcurrentQueue<T>> Stream for RecvStream<'_, T, Q> {
    type Item = T;

    fn poll_next(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
        let this = self.get_mut();
        let fut = this.fut.get_or_insert_with(|| this.queue.recv());
        match Pin::new(fut).poll(cx) {
            Poll::Ready(item) => {
                this.fut = None;
                Poll::Ready(item)
            }
            Poll::Pending => Poll::Pending,
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // Lower bound: whatever is observably queued right now must still
        // come out of *some* receiver; with one stream it is a true lower
        // bound, with several it is only a hint (as the contract allows).
        (self.queue.len().unwrap_or(0), None)
    }
}

/// Send side of an [`AsyncQueue`] as a [`Sink`]. Created by
/// [`AsyncQueue::sink`].
///
/// `poll_close` closes the *channel* after flushing — the natural idiom
/// for a single producer handing off to draining consumers. With several
/// producers, close only the last sink (or use [`AsyncQueue::close`]
/// directly).
pub struct SendSink<'q, T: Send, Q: ConcurrentQueue<T>> {
    queue: &'q AsyncQueue<T, Q>,
    inflight: Option<SendFuture<'q, T, Q>>,
}

impl<T: Send, Q: ConcurrentQueue<T>> Unpin for SendSink<'_, T, Q> {}

impl<'q, T: Send, Q: ConcurrentQueue<T>> SendSink<'q, T, Q> {
    pub(crate) fn new(queue: &'q AsyncQueue<T, Q>) -> Self {
        Self {
            queue,
            inflight: None,
        }
    }

    /// Drives the in-flight send (if any) to completion.
    fn poll_inflight(&mut self, cx: &mut Context<'_>) -> Poll<Result<(), Closed<T>>> {
        match &mut self.inflight {
            Some(fut) => match Pin::new(fut).poll(cx) {
                Poll::Ready(r) => {
                    self.inflight = None;
                    Poll::Ready(r)
                }
                Poll::Pending => Poll::Pending,
            },
            None => Poll::Ready(Ok(())),
        }
    }
}

impl<T: Send, Q: ConcurrentQueue<T>> Sink<T> for SendSink<'_, T, Q> {
    type Error = Closed<T>;

    fn poll_ready(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Result<(), Self::Error>> {
        self.get_mut().poll_inflight(cx)
    }

    fn start_send(self: Pin<&mut Self>, item: T) -> Result<(), Self::Error> {
        let this = self.get_mut();
        debug_assert!(
            this.inflight.is_none(),
            "start_send without a successful poll_ready"
        );
        if this.queue.is_closed() {
            return Err(Closed(item));
        }
        this.inflight = Some(this.queue.send(item));
        Ok(())
    }

    fn poll_flush(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Result<(), Self::Error>> {
        self.get_mut().poll_inflight(cx)
    }

    fn poll_close(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Result<(), Self::Error>> {
        let this = self.get_mut();
        match this.poll_inflight(cx) {
            Poll::Ready(Ok(())) => {
                this.queue.close();
                Poll::Ready(Ok(()))
            }
            other => other,
        }
    }
}
