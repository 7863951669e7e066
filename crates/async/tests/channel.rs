//! Functional tests for [`AsyncQueue`] driven by a real multi-threaded
//! runtime: wakeups across tasks, backpressure, close semantics, batch
//! futures, Stream/Sink adapters, and the waker instrumentation counters.

use futures::{SinkExt, StreamExt};
use nbq_async::{AsyncQueue, TrySendError};
use nbq_core::CasQueue;
use std::sync::Arc;
use std::time::Duration;

fn rt() -> tokio::runtime::Runtime {
    tokio::runtime::Builder::new_multi_thread()
        .worker_threads(4)
        .enable_all()
        .build()
        .expect("building runtime")
}

fn channel(cap: usize) -> Arc<AsyncQueue<u64, CasQueue<u64>>> {
    Arc::new(AsyncQueue::new(CasQueue::with_capacity(cap)))
}

#[test]
fn send_recv_roundtrip() {
    let rt = rt();
    let q = channel(8);
    rt.block_on(async {
        q.send(7).await.expect("open channel");
        assert_eq!(q.recv().await, Some(7));
    });
    assert_eq!(q.live_waiters(), 0);
}

#[test]
fn recv_parks_until_a_send_arrives() {
    let rt = rt();
    let q = channel(8);
    let got = rt.block_on(async {
        let consumer = {
            let q = q.clone();
            tokio::spawn(async move { q.recv().await })
        };
        // Give the receiver time to park on the waiter registry.
        tokio::time::sleep(Duration::from_millis(30)).await;
        q.send(42).await.expect("open channel");
        consumer.await.expect("consumer task")
    });
    assert_eq!(got, Some(42));
    assert_eq!(q.live_waiters(), 0);
}

#[test]
fn send_parks_on_full_until_a_recv_makes_room() {
    let rt = rt();
    let q = channel(1);
    rt.block_on(async {
        // Capacity may be rounded up, so fill until the queue pushes back.
        let mut filled = 0u64;
        while q.try_send(filled).is_ok() {
            filled += 1;
        }
        let producer = {
            let q = q.clone();
            tokio::spawn(async move { q.send(u64::MAX).await })
        };
        tokio::time::sleep(Duration::from_millis(30)).await;
        for expected in 0..filled {
            assert_eq!(q.recv().await, Some(expected));
        }
        producer
            .await
            .expect("producer task")
            .expect("open channel");
        assert_eq!(q.recv().await, Some(u64::MAX));
    });
    assert_eq!(q.live_waiters(), 0);
}

#[test]
fn mpmc_values_are_conserved() {
    const PRODUCERS: u64 = 4;
    const CONSUMERS: usize = 4;
    const PER_PRODUCER: u64 = 500;

    let rt = rt();
    let q = channel(16);
    let received = rt.block_on(async {
        let mut producers = Vec::new();
        for p in 0..PRODUCERS {
            let q = q.clone();
            producers.push(tokio::spawn(async move {
                for i in 0..PER_PRODUCER {
                    q.send(p * PER_PRODUCER + i).await.expect("open channel");
                }
            }));
        }
        let mut consumers = Vec::new();
        for _ in 0..CONSUMERS {
            let q = q.clone();
            consumers.push(tokio::spawn(async move {
                let mut got = Vec::new();
                while let Some(v) = q.recv().await {
                    got.push(v);
                }
                got
            }));
        }
        for p in producers {
            p.await.expect("producer");
        }
        q.close();
        let mut all = Vec::new();
        for c in consumers {
            all.extend(c.await.expect("consumer"));
        }
        all
    });
    let mut sorted = received;
    sorted.sort_unstable();
    let expected: Vec<u64> = (0..PRODUCERS * PER_PRODUCER).collect();
    assert_eq!(sorted, expected, "every value received exactly once");
    assert_eq!(q.live_waiters(), 0);
}

#[test]
fn close_fails_sends_and_drains_recvs() {
    let rt = rt();
    let q = channel(8);
    rt.block_on(async {
        q.send(1).await.unwrap();
        q.send(2).await.unwrap();
        assert!(q.close(), "first close returns true");
        assert!(!q.close(), "second close returns false");

        let err = q.send(3).await.expect_err("send after close fails");
        assert_eq!(err.into_inner(), 3);
        assert!(matches!(q.try_send(4), Err(TrySendError::Closed(4))));

        // Pre-close values still drain, then the channel reports end.
        assert_eq!(q.recv().await, Some(1));
        assert_eq!(q.recv().await, Some(2));
        assert_eq!(q.recv().await, None);
        assert_eq!(q.try_recv(), None);
    });
    assert_eq!(q.live_waiters(), 0);
}

#[test]
fn close_wakes_parked_receivers_and_senders() {
    let rt = rt();

    // A receiver parked on an empty channel is woken by close and sees None.
    let q = channel(1);
    rt.block_on(async {
        let receiver = {
            let q = q.clone();
            tokio::spawn(async move { q.recv().await })
        };
        tokio::time::sleep(Duration::from_millis(30)).await;
        q.close();
        assert_eq!(receiver.await.expect("receiver task"), None);
    });
    assert_eq!(q.live_waiters(), 0);

    // A sender parked on a full channel is woken by close and gets its
    // value back; the pre-close values still drain afterwards.
    let q = channel(1);
    rt.block_on(async {
        // Capacity may be rounded up, so fill until the queue pushes back.
        let mut filled = 0u64;
        while q.try_send(filled).is_ok() {
            filled += 1;
        }
        let sender = {
            let q = q.clone();
            tokio::spawn(async move { q.send(u64::MAX).await })
        };
        tokio::time::sleep(Duration::from_millis(30)).await;
        q.close();
        let err = sender.await.expect("sender task").expect_err("closed");
        assert_eq!(err.into_inner(), u64::MAX);
        for expected in 0..filled {
            assert_eq!(q.recv().await, Some(expected));
        }
        assert_eq!(q.recv().await, None);
    });
    assert_eq!(q.live_waiters(), 0);
}

#[test]
fn batch_futures_move_values_in_bulk() {
    let rt = rt();
    let q = channel(4);
    rt.block_on(async {
        // A batch larger than capacity completes once a consumer drains.
        let producer = {
            let q = q.clone();
            tokio::spawn(async move { q.send_batch((0..10).collect()).await })
        };
        let mut got = Vec::new();
        while got.len() < 10 {
            let chunk = q.recv_batch(4).await;
            assert!(chunk.len() <= 4, "recv_batch respects max");
            got.extend(chunk);
        }
        assert_eq!(producer.await.expect("task").expect("open channel"), 10);
        assert_eq!(got, (0..10).collect::<Vec<_>>());

        // Degenerate shapes resolve immediately.
        assert_eq!(q.send_batch(Vec::new()).await.expect("empty batch"), 0);
        assert!(q.recv_batch(0).await.is_empty());
    });
    assert_eq!(q.live_waiters(), 0);
}

#[test]
fn recv_batch_returns_partial_drain_on_close() {
    let rt = rt();
    let q = channel(8);
    rt.block_on(async {
        q.send(1).await.unwrap();
        q.close();
        assert_eq!(q.recv_batch(8).await, vec![1]);
        assert!(q.recv_batch(8).await.is_empty(), "closed and drained");
    });
}

#[test]
fn stream_yields_until_close_and_sink_feeds_it() {
    let rt = rt();
    let q = channel(4);
    let collected = rt.block_on(async {
        let consumer = {
            let q = q.clone();
            tokio::spawn(async move { q.stream().collect::<Vec<u64>>().await })
        };
        let mut sink = q.sink();
        for v in 0..20 {
            sink.send(v).await.expect("open channel");
        }
        // Sink close flushes and then closes the channel, ending the stream.
        sink.close().await.expect("close");
        consumer.await.expect("consumer task")
    });
    assert_eq!(collected, (0..20).collect::<Vec<_>>());
    assert!(q.is_closed());
    assert_eq!(q.live_waiters(), 0);
}

#[test]
fn stats_count_registrations_and_wakes() {
    let rt = rt();
    let q = Arc::new(AsyncQueue::with_stats(CasQueue::<u64>::with_capacity(1)));
    rt.block_on(async {
        let consumer = {
            let q = q.clone();
            tokio::spawn(async move {
                let mut got = Vec::new();
                while let Some(v) = q.recv().await {
                    got.push(v);
                }
                got
            })
        };
        tokio::time::sleep(Duration::from_millis(30)).await;
        for v in 0..50 {
            q.send(v).await.unwrap();
        }
        q.close();
        consumer.await.expect("consumer")
    });
    let snap = q.stats().expect("stats enabled").snapshot();
    assert!(
        snap.waker_registrations > 0,
        "parked receiver registered at least once"
    );
    assert!(snap.waker_wakes > 0, "sends woke the parked receiver");
    assert!(
        snap.waker_wakes <= snap.waker_registrations,
        "cannot wake more slots than were registered ({} wakes, {} registrations)",
        snap.waker_wakes,
        snap.waker_registrations
    );
}

#[test]
fn works_over_sharded_and_llsc_backends() {
    use nbq_core::{LlScQueue, ShardedQueue};

    let rt = rt();
    rt.block_on(async {
        let q = Arc::new(AsyncQueue::new(ShardedQueue::with_lanes(4, |_| {
            CasQueue::<u64>::with_capacity(8)
        })));
        for v in 0..32 {
            q.send(v).await.unwrap();
        }
        q.close();
        let mut got = Vec::new();
        while let Some(v) = q.recv().await {
            got.push(v);
        }
        got.sort_unstable();
        assert_eq!(got, (0..32).collect::<Vec<_>>());

        let q = Arc::new(AsyncQueue::new(LlScQueue::<u64>::with_capacity(8)));
        q.send(5).await.unwrap();
        assert_eq!(q.recv().await, Some(5));
    });
}

#[test]
fn advisory_occupancy_and_is_full_watermark() {
    let q = channel(4);
    let cap = q.capacity().expect("CAS queue reports capacity");
    assert_eq!(q.len(), Some(0));
    assert_eq!(q.is_empty(), Some(true));
    assert_eq!(q.is_full(), Some(false));
    // Fill to the reported capacity; the advisory snapshot is exact in
    // quiescence.
    let mut filled = 0;
    while q.try_send(filled as u64).is_ok() {
        filled += 1;
    }
    assert!(filled >= cap, "at least the reported capacity fit");
    assert_eq!(q.len(), Some(filled));
    assert_eq!(q.is_empty(), Some(false));
    assert_eq!(q.is_full(), Some(true), "watermark trips at capacity");
    assert!(matches!(q.try_send(99), Err(TrySendError::Full(99))));
    q.try_recv().expect("queued item");
    assert_eq!(q.len(), Some(filled - 1));
    assert_eq!(q.is_full(), Some(false), "watermark clears after a drain");
}

#[test]
fn pinned_handles_preserve_per_producer_fifo_across_await() {
    use nbq_core::{ShardedConfig, ShardedQueue};
    use nbq_util::queue::ConcurrentQueue;

    let rt = rt();
    // Tiny lanes force the senders through the park/wake path; pinned
    // handles must never spill to another lane while they wait.
    let q: Arc<AsyncQueue<u64, ShardedQueue<u64, CasQueue<u64>>>> = Arc::new(AsyncQueue::new(
        ShardedQueue::with_config(ShardedConfig::with_lanes(2), |_| CasQueue::with_capacity(4)),
    ));
    const PER_PRODUCER: u64 = 500;
    rt.block_on(async {
        let mut producers = Vec::new();
        for p in 0..2u64 {
            let q = q.clone();
            producers.push(tokio::spawn(async move {
                for i in 0..PER_PRODUCER {
                    q.send_with_handle(q.inner().handle_pinned(p as usize), (p << 32) | i)
                        .await
                        .expect("open channel");
                }
            }));
        }
        let consumer = {
            let q = q.clone();
            tokio::spawn(async move {
                let mut last = [None::<u64>; 2];
                for _ in 0..2 * PER_PRODUCER {
                    let v = q
                        .recv_with_handle(q.inner().handle())
                        .await
                        .expect("open channel");
                    let (p, i) = ((v >> 32) as usize, v & 0xffff_ffff);
                    if let Some(prev) = last[p] {
                        assert!(i > prev, "producer {p} reordered: {i} after {prev}");
                    }
                    last[p] = Some(i);
                }
            })
        };
        for h in producers {
            h.await.expect("producer");
        }
        consumer.await.expect("consumer");
    });
    assert_eq!(q.live_waiters(), 0);
}

/// A counting waker for manual-poll protocol tests.
struct CountWake(std::sync::atomic::AtomicUsize);

impl std::task::Wake for CountWake {
    fn wake(self: Arc<Self>) {
        self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    }
}

impl CountWake {
    fn pair() -> (Arc<CountWake>, std::task::Waker) {
        let arc = Arc::new(CountWake(std::sync::atomic::AtomicUsize::new(0)));
        let waker = std::task::Waker::from(arc.clone());
        (arc, waker)
    }

    fn count(&self) -> usize {
        self.0.load(std::sync::atomic::Ordering::SeqCst)
    }
}

/// One manual poll of an `Unpin` future with the given waker.
fn poll_once<F: std::future::Future + Unpin>(
    fut: &mut F,
    waker: &std::task::Waker,
) -> std::task::Poll<F::Output> {
    std::pin::Pin::new(fut).poll(&mut std::task::Context::from_waker(waker))
}

/// A future that parks and is then dropped, or re-polled without a wake,
/// cancels its slot; the slot must leave the registry with it even
/// though no wake path ever runs again (nobody else is waiting, so every
/// notify takes the no-waiter fast path).
#[test]
fn cancelled_slots_leave_the_registry_at_once() {
    let q = channel(2);
    let (wake, waker) = CountWake::pair();
    for round in 0..100 {
        let mut recv = q.recv();
        assert!(poll_once(&mut recv, &waker).is_pending());
        assert_eq!(q.live_waiters(), 1);
        drop(recv);
        assert_eq!(q.live_waiters(), 0, "round {round}: dropped recv");
    }
    while q.try_send(0).is_ok() {}
    for round in 0..100 {
        let mut send = q.send(1);
        assert!(poll_once(&mut send, &waker).is_pending());
        // A poll without a wake cancels the old slot and parks anew.
        assert!(poll_once(&mut send, &waker).is_pending());
        assert_eq!(q.live_waiters(), 1, "round {round}: re-polled send");
        drop(send);
        assert_eq!(q.live_waiters(), 0, "round {round}: dropped send");
    }
    assert_eq!(wake.count(), 0, "nothing was ever notified");
}

/// A wake token delivered to a receiver that cannot reach the item (its
/// handle is pinned to a different lane) must be forwarded to the peers
/// instead of dying with the re-park — otherwise the only capable
/// receiver sleeps forever over a non-empty queue. Manual polls make
/// the misdelivery deterministic: the waiter registry wakes LIFO, so
/// the later-registered wrong receiver gets the token first.
#[test]
fn misdelivered_recv_token_is_forwarded_to_the_pinned_peer() {
    use nbq_core::{ShardedConfig, ShardedQueue};
    use std::task::Poll;

    let q: AsyncQueue<u64, ShardedQueue<u64, CasQueue<u64>>> = AsyncQueue::new(
        ShardedQueue::with_config(ShardedConfig::with_lanes(2), |_| CasQueue::with_capacity(4)),
    );
    let (wake_a, waker_a) = CountWake::pair();
    let (wake_b, waker_b) = CountWake::pair();

    // A parks pinned to lane 0; B parks pinned to lane 1 (registered
    // second — LIFO top, so B receives the next token).
    let mut fut_a = q.recv_with_handle(q.inner().handle_pinned(0));
    let mut fut_b = q.recv_with_handle(q.inner().handle_pinned(1));
    assert!(poll_once(&mut fut_a, &waker_a).is_pending());
    assert!(poll_once(&mut fut_b, &waker_b).is_pending());

    // An item lands in lane 0 — only A can take it, but the token goes
    // to B.
    let mut producer = q.inner().handle_pinned(0);
    q.try_send_with_handle(&mut producer, 42).expect("send");
    assert!(wake_b.count() >= 1, "LIFO token should reach B first");
    assert_eq!(wake_a.count(), 0, "token misdelivered past A");

    // B re-polls, still sees its empty lane, and must forward the token
    // instead of swallowing it.
    assert!(poll_once(&mut fut_b, &waker_b).is_pending());
    assert!(
        wake_a.count() >= 1,
        "re-parking with the queue non-empty must broadcast the token"
    );
    match poll_once(&mut fut_a, &waker_a) {
        Poll::Ready(Some(v)) => assert_eq!(v, 42),
        other => panic!("A should now take the item, got {other:?}"),
    }
    drop(fut_b);
    assert_eq!(q.live_waiters(), 0);
}

/// Sender-side mirror: a dequeue frees a slot in lane 0, but the wake
/// token lands on the sender pinned to still-full lane 1. That sender
/// must broadcast on re-park or the lane-0 sender deadlocks over spare
/// capacity.
#[test]
fn misdelivered_send_token_is_forwarded_to_the_pinned_peer() {
    use nbq_core::{ShardedConfig, ShardedQueue};
    use std::task::Poll;

    let q: AsyncQueue<u64, ShardedQueue<u64, CasQueue<u64>>> = AsyncQueue::new(
        ShardedQueue::with_config(ShardedConfig::with_lanes(2), |_| CasQueue::with_capacity(2)),
    );
    // Fill both lanes to capacity.
    for lane in 0..2 {
        let mut h = q.inner().handle_pinned(lane);
        for v in 0..2 {
            q.try_send_with_handle(&mut h, (lane as u64) * 10 + v)
                .expect("fill");
        }
    }
    let (wake_a, waker_a) = CountWake::pair();
    let (wake_b, waker_b) = CountWake::pair();
    let mut fut_a = q.send_with_handle(q.inner().handle_pinned(0), 100);
    let mut fut_b = q.send_with_handle(q.inner().handle_pinned(1), 200);
    assert!(poll_once(&mut fut_a, &waker_a).is_pending());
    assert!(poll_once(&mut fut_b, &waker_b).is_pending());

    // Drain one item from lane 0: the freed slot is A's, the token B's.
    let mut fut_r = q.recv_with_handle(q.inner().handle_pinned(0));
    let (_, waker_r) = CountWake::pair();
    match poll_once(&mut fut_r, &waker_r) {
        Poll::Ready(Some(_)) => {}
        other => panic!("lane 0 held items, got {other:?}"),
    }
    assert!(wake_b.count() >= 1, "LIFO token should reach B first");
    assert_eq!(wake_a.count(), 0, "token misdelivered past A");

    assert!(poll_once(&mut fut_b, &waker_b).is_pending());
    assert!(
        wake_a.count() >= 1,
        "re-parking with spare capacity must broadcast the token"
    );
    assert!(poll_once(&mut fut_a, &waker_a).is_ready());
    drop(fut_b);
    assert_eq!(q.live_waiters(), 0);
}
