//! Cancellation stress for the waiter registry (ISSUE acceptance
//! criterion): 100 iterations of producers/consumers racing `timeout`
//! aborts, `select!`-style races, and task aborts on a multi-threaded
//! runtime, asserting after each iteration that
//!
//! * **no value is lost or duplicated** — every send that resolved `Ok`
//!   is either received or still in the queue at the end, and
//! * **no waker slot leaks** — `live_waiters() == 0` once every future
//!   is resolved or dropped.
//!
//! The ping-pong tests at the end guard the registry's no-waiter fast
//! path: 100 000 round trips through capacity-1 channels, on a two-worker
//! runtime and across two OS threads, under a watchdog that turns a lost
//! wake (a side parked forever) into a failure instead of a hang.

use futures::future::{select, Either};
use nbq_async::AsyncQueue;
use nbq_core::{CasQueue, ShardedConfig, ShardedQueue};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tokio::time::{sleep, timeout};

const ITERATIONS: usize = 100;

fn rt() -> tokio::runtime::Runtime {
    tokio::runtime::Builder::new_multi_thread()
        .worker_threads(4)
        .enable_all()
        .build()
        .expect("building runtime")
}

/// One round of chaos: 3 producers (one sending under an aggressive
/// timeout), 3 consumers (one racing recv against a sleep, one aborted
/// mid-flight), then close + drain + conservation audit.
fn run_iteration(rt: &tokio::runtime::Runtime, iter: usize) {
    let q: Arc<AsyncQueue<u64, CasQueue<u64>>> =
        Arc::new(AsyncQueue::new(CasQueue::with_capacity(4)));
    // Values confirmed sent (`send` resolved Ok) — the conservation set.
    // Tracked as checksum + count: together, with each producer using a
    // disjoint value range, loss and duplication cannot cancel out.
    let sent = Arc::new(AtomicU64::new(0));
    let sent_count = Arc::new(AtomicU64::new(0));
    let received = Arc::new(AtomicU64::new(0));
    let received_count = Arc::new(AtomicU64::new(0));

    // Deterministically varied timeout budgets so some iterations cancel
    // while parked, some mid-wake, some not at all.
    let tmo = Duration::from_micros(50 + (iter as u64 % 7) * 37);

    rt.block_on(async {
        let mut tasks = Vec::new();

        // Producer 0: plain sends, all must land (pre-close).
        {
            let (q, sent, sent_count) = (q.clone(), sent.clone(), sent_count.clone());
            tasks.push(tokio::spawn(async move {
                for v in 0..40u64 {
                    if q.send(v).await.is_ok() {
                        sent.fetch_add(v, Ordering::Relaxed);
                        sent_count.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }));
        }
        // Producer 1: sends under a timeout — a fired timeout drops the
        // SendFuture (the value never entered the queue) and must both
        // deregister its slot and hand any stolen wake token onward.
        {
            let (q, sent, sent_count) = (q.clone(), sent.clone(), sent_count.clone());
            tasks.push(tokio::spawn(async move {
                for v in 100..140u64 {
                    if let Ok(Ok(())) = timeout(tmo, q.send(v)).await {
                        sent.fetch_add(v, Ordering::Relaxed);
                        sent_count.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }));
        }
        // Producer 2: batch sends; Ok(n) counts the first n of the batch.
        {
            let (q, sent, sent_count) = (q.clone(), sent.clone(), sent_count.clone());
            tasks.push(tokio::spawn(async move {
                let batch: Vec<u64> = (200..212).collect();
                if let Ok(n) = q.send_batch(batch.clone()).await {
                    let landed: u64 = batch[..n].iter().sum();
                    sent.fetch_add(landed, Ordering::Relaxed);
                    sent_count.fetch_add(n as u64, Ordering::Relaxed);
                }
            }));
        }

        // Consumer 0: drains until close.
        {
            let (q, received, received_count) =
                (q.clone(), received.clone(), received_count.clone());
            tasks.push(tokio::spawn(async move {
                while let Some(v) = q.recv().await {
                    received.fetch_add(v, Ordering::Relaxed);
                    received_count.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        // Consumer 1: races recv against a sleep (select-style abort);
        // the losing RecvFuture is dropped while possibly parked.
        {
            let (q, received, received_count) =
                (q.clone(), received.clone(), received_count.clone());
            tasks.push(tokio::spawn(async move {
                loop {
                    match select(q.recv(), sleep(tmo)).await {
                        Either::Left((Some(v), _)) => {
                            received.fetch_add(v, Ordering::Relaxed);
                            received_count.fetch_add(1, Ordering::Relaxed);
                        }
                        Either::Left((None, _)) => break,
                        Either::Right(((), _)) => {
                            if q.is_closed() && q.try_recv().is_none() {
                                break;
                            }
                        }
                    }
                }
            }));
        }
        // Consumer 2: aborted mid-flight — its pending RecvFuture is
        // dropped by the runtime, not resolved.
        let aborted = {
            let (q, received, received_count) =
                (q.clone(), received.clone(), received_count.clone());
            tokio::spawn(async move {
                while let Some(v) = q.recv().await {
                    received.fetch_add(v, Ordering::Relaxed);
                    received_count.fetch_add(1, Ordering::Relaxed);
                }
            })
        };

        sleep(Duration::from_millis(1)).await;
        aborted.abort();
        let _ = aborted.await;

        // Wait for producers (tasks[0..3]) before closing so "pre-close
        // send" is well-defined; then close and join consumers.
        for t in tasks.drain(..3) {
            t.await.expect("producer task");
        }
        q.close();
        for t in tasks {
            t.await.expect("consumer task");
        }

        // Anything the aborted consumer left behind is still in the queue.
        while let Some(v) = q.try_recv() {
            received.fetch_add(v, Ordering::Relaxed);
            received_count.fetch_add(1, Ordering::Relaxed);
        }
    });

    assert_eq!(
        received_count.load(Ordering::Relaxed),
        sent_count.load(Ordering::Relaxed),
        "iteration {iter}: every Ok-sent value received exactly once"
    );
    assert_eq!(
        received.load(Ordering::Relaxed),
        sent.load(Ordering::Relaxed),
        "iteration {iter}: checksum of received values must equal checksum \
         of Ok-sent values"
    );
    assert_eq!(
        q.live_waiters(),
        0,
        "iteration {iter}: all waker slots reclaimed after futures resolved \
         or were cancelled"
    );
}

#[test]
fn cancellation_stress_conserves_values_and_slots() {
    let rt = rt();
    for iter in 0..ITERATIONS {
        run_iteration(&rt, iter);
    }
}

/// Timeout-heavy variant on the tiniest queue: every send contends, so
/// cancelled senders constantly race wake-token handoff with live ones.
/// A dropped token here shows up as a hang (parked sender never woken),
/// caught by the outer per-iteration timeout.
#[test]
fn timeout_churn_on_a_tiny_queue() {
    let rt = rt();
    for iter in 0..ITERATIONS {
        let q: Arc<AsyncQueue<u64, CasQueue<u64>>> =
            Arc::new(AsyncQueue::new(CasQueue::with_capacity(1)));
        let landed = Arc::new(AtomicU64::new(0));
        let drained = rt.block_on(async {
            let outer = timeout(Duration::from_secs(30), async {
                let mut senders = Vec::new();
                for s in 0..4u64 {
                    let (q, landed) = (q.clone(), landed.clone());
                    senders.push(tokio::spawn(async move {
                        for v in 0..25u64 {
                            let budget = Duration::from_micros(20 + (iter as u64 % 5) * 13);
                            if let Ok(Ok(())) = timeout(budget, q.send(s * 100 + v)).await {
                                landed.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }));
                }
                let drainer = {
                    let q = q.clone();
                    tokio::spawn(async move {
                        let mut n = 0u64;
                        while let Some(_v) = q.recv().await {
                            n += 1;
                        }
                        n
                    })
                };
                for s in senders {
                    s.await.expect("sender task");
                }
                q.close();
                drainer.await.expect("drainer task")
            });
            outer
                .await
                .expect("iteration must not hang (lost wake token)")
        });
        assert_eq!(
            drained,
            landed.load(Ordering::Relaxed),
            "iteration {iter}: drained exactly the Ok-sent values"
        );
        assert_eq!(q.live_waiters(), 0, "iteration {iter}: no leaked slots");
    }
}

/// Round trips per ping-pong run: every one parks both sides at least
/// once on a capacity-1 channel, so each is a chance to lose a wake.
const ROUND_TRIPS: u64 = 100_000;

/// Fails the test if `body` has not finished within `secs`: a lost wake
/// parks a side forever, and this turns that hang into a failure.
fn watchdog(secs: u64, body: impl FnOnce() + Send + 'static) {
    let (done, finished) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        body();
        let _ = done.send(());
    });
    match finished.recv_timeout(Duration::from_secs(secs)) {
        Ok(()) => worker.join().expect("ping-pong body"),
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            // The body panicked: re-raise its panic.
            worker.join().expect("ping-pong body");
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("ping-pong stalled for {secs} s: a wake was lost")
        }
    }
}

type Lane = ShardedQueue<u64, CasQueue<u64>>;

/// The broker's topic-lane shape at capacity 1: one `MpscFastPath` lane,
/// driven through lane-pinned handles.
fn pinned_lane() -> Arc<AsyncQueue<u64, Lane>> {
    Arc::new(AsyncQueue::new(ShardedQueue::with_config(
        ShardedConfig::with_lanes(1).mpsc_fast_path(),
        |_| CasQueue::with_capacity(1),
    )))
}

/// Two tasks on a two-worker runtime bounce a counter through two
/// capacity-1 channels with fresh pinned handles per operation, so most
/// operations take the no-waiter fast path while the peer is between
/// parks.
#[test]
fn ping_pong_on_a_two_worker_runtime_never_loses_a_wake() {
    watchdog(120, || {
        let rt = tokio::runtime::Builder::new_multi_thread()
            .worker_threads(2)
            .enable_all()
            .build()
            .expect("building runtime");
        let (ping, pong) = (pinned_lane(), pinned_lane());
        rt.block_on(async {
            let echo = {
                let (ping, pong) = (ping.clone(), pong.clone());
                tokio::spawn(async move {
                    while let Some(v) = ping.recv_with_handle(ping.inner().handle_pinned(0)).await {
                        pong.send_with_handle(pong.inner().handle_pinned(0), v + 1)
                            .await
                            .expect("pong open");
                    }
                    pong.close();
                })
            };
            let serve = {
                let (ping, pong) = (ping.clone(), pong.clone());
                tokio::spawn(async move {
                    let mut v = 0;
                    for _ in 0..ROUND_TRIPS {
                        ping.send_with_handle(ping.inner().handle_pinned(0), v)
                            .await
                            .expect("ping open");
                        let back = pong.recv_with_handle(pong.inner().handle_pinned(0)).await;
                        assert_eq!(back, Some(v + 1), "echo returns the next value");
                        v += 2;
                    }
                    ping.close();
                })
            };
            serve.await.expect("serve task");
            echo.await.expect("echo task");
        });
        assert_eq!(
            ping.live_waiters() + pong.live_waiters(),
            0,
            "no leaked slots"
        );
    });
}

/// Drives one future to completion on the calling OS thread, parking it
/// between polls.
fn block_on<F: std::future::Future>(fut: F) -> F::Output {
    struct Unpark(std::thread::Thread);
    impl std::task::Wake for Unpark {
        fn wake(self: Arc<Self>) {
            self.0.unpark();
        }
    }
    let waker = std::task::Waker::from(Arc::new(Unpark(std::thread::current())));
    let mut cx = std::task::Context::from_waker(&waker);
    let mut fut = std::pin::pin!(fut);
    loop {
        match fut.as_mut().poll(&mut cx) {
            std::task::Poll::Ready(v) => return v,
            std::task::Poll::Pending => std::thread::park(),
        }
    }
}

/// The same ping-pong with each side's futures driven from its own OS
/// thread, over plain capacity-1 `CasQueue`s: wakes cross threads on
/// every hand-off, with no executor in between.
#[test]
fn ping_pong_across_os_threads_never_loses_a_wake() {
    watchdog(120, || {
        type Chan = Arc<AsyncQueue<u64, CasQueue<u64>>>;
        let ping: Chan = Arc::new(AsyncQueue::new(CasQueue::with_capacity(1)));
        let pong: Chan = Arc::new(AsyncQueue::new(CasQueue::with_capacity(1)));
        let echo = {
            let (ping, pong) = (ping.clone(), pong.clone());
            std::thread::spawn(move || {
                while let Some(v) = block_on(ping.recv()) {
                    block_on(pong.send(v + 1)).expect("pong open");
                }
                pong.close();
            })
        };
        let mut v = 0;
        for _ in 0..ROUND_TRIPS {
            block_on(ping.send(v)).expect("ping open");
            assert_eq!(
                block_on(pong.recv()),
                Some(v + 1),
                "echo returns the next value"
            );
            v += 2;
        }
        ping.close();
        echo.join().expect("echo thread");
        assert_eq!(
            ping.live_waiters() + pong.live_waiters(),
            0,
            "no leaked slots"
        );
    });
}
