//! `async-pipe`: the `pipe` flow and lane through `AsyncQueue`
//! (`send_with_handle`/`recv_with_handle` with pinned handles), as one
//! producer task and one consumer task on the work-stealing runtime with
//! one worker. The lane is small, so both sides park.

use crate::check::{failures, Tally};
use crate::measure::{ratio, stamp, Counter, Item, Phase, Quantiles, Samples};
use crate::pipe::{fast_lane, Lane};
use crate::RigOut;
use nbq_async::AsyncQueue;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::Instant;

const WARM: u64 = 20_000;

type Chan = AsyncQueue<Item, Lane>;

/// What a benchmark-side poll wrapper saw of one side's futures.
#[derive(Default)]
struct FutureLog {
    spans: Option<Samples>,
    futures: u64,
    parked: u64,
}

/// Times a future from its first poll to `Ready` and notes whether it
/// ever returned `Pending`, logging only inside the timed window.
struct Watch<'a, F> {
    fut: F,
    first: Option<Instant>,
    pended: bool,
    log: &'a mut FutureLog,
    timing: bool,
}

impl<'a, F: Future + Unpin> Watch<'a, F> {
    fn new(fut: F, log: &'a mut FutureLog, timing: bool) -> Self {
        Watch {
            fut,
            first: None,
            pended: false,
            log,
            timing,
        }
    }
}

impl<F: Future + Unpin> Future for Watch<'_, F> {
    type Output = F::Output;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        let this = self.get_mut();
        let first = *this.first.get_or_insert_with(Instant::now);
        match Pin::new(&mut this.fut).poll(cx) {
            Poll::Pending => {
                this.pended = true;
                Poll::Pending
            }
            Poll::Ready(v) => {
                if this.timing {
                    if let Some(s) = this.log.spans.as_mut() {
                        s.record(first.elapsed());
                    }
                    this.log.futures += 1;
                    this.log.parked += u64::from(this.pended);
                }
                Poll::Ready(v)
            }
        }
    }
}

/// Executor counters: parks, IO parks, LIFO hits, steals, injection polls.
pub fn executor_counters(rt: &tokio::runtime::Runtime) -> [u64; 5] {
    let m = rt.metrics();
    [
        m.parks,
        m.io_parks,
        m.lifo_hits,
        m.steals,
        m.injection_polls,
    ]
}

/// The executor layer's metrics over `items` items.
pub fn executor_layers(before: [u64; 5], after: [u64; 5], items: u64) -> Vec<(&'static str, f64)> {
    let per_k = |i: usize| ratio(1000.0 * (after[i] - before[i]) as f64, items as f64);
    vec![
        ("executor.parks_per_kitem", per_k(0)),
        ("executor.io_parks_per_kitem", per_k(1)),
        ("executor.lifo_hits_per_kitem", per_k(2)),
        ("executor.steals_per_kitem", per_k(3)),
        ("executor.injection_polls_per_kitem", per_k(4)),
    ]
}

fn waker_counters(q: &Chan) -> [u64; 2] {
    q.stats().map_or([0; 2], |s| {
        [&s.waker_registrations, &s.spurious_polls].map(|c| c.load(Ordering::Relaxed))
    })
}

/// Builds `builder` with `workers` workers and pins them one per CPU.
pub fn start_runtime(builder: tokio::runtime::Builder, workers: usize) -> tokio::runtime::Runtime {
    let rt = builder
        .worker_threads(workers)
        .enable_all()
        .build()
        .expect("build the runtime");
    // The vendored runtime's worker names, cut to 15 bytes by the kernel.
    crate::pin::pin_threads("tokio-shim-work");
    rt
}

pub fn rig(seed: u64, traced: bool, seconds: f64) -> RigOut {
    let start = Instant::now();
    let anchor = start;
    // One worker. With two, each wake hands the woken task to the
    // waker's worker, so the tasks share one worker most of the time
    // anyway; the second worker only stole one now and then, and those
    // excursions split runs into two modes (p50 2.2 vs 2.8 us) whose mix
    // spread the ten-run p50 past its bound.
    let rt = start_runtime(tokio::runtime::Builder::new_multi_thread(), 1);
    let queue: Arc<Chan> = Arc::new(if traced {
        AsyncQueue::with_stats(fast_lane())
    } else {
        AsyncQueue::new(fast_lane())
    });
    let phase = Arc::new(Phase::default());
    let progress = Arc::new(Counter::default());

    let producer = rt.spawn({
        let (q, phase, progress) = (queue.clone(), phase.clone(), progress.clone());
        async move {
            let mut log = FutureLog {
                spans: traced.then(Samples::new),
                ..FutureLog::default()
            };
            let mut seq = 0u64;
            let mut closed = false;
            while !phase.stopped() {
                let item = Item::new(seed, seq, stamp(anchor));
                let send = q.send_with_handle(q.inner().handle_pinned(0), item);
                let sent = if traced {
                    Watch::new(send, &mut log, phase.timing()).await
                } else {
                    send.await
                };
                if sent.is_err() {
                    closed = true;
                    break;
                }
                seq += 1;
                progress.set(seq);
                if seq == WARM {
                    phase.arrive();
                }
            }
            if seq < WARM {
                phase.arrive();
            }
            q.close();
            (seq, closed, log)
        }
    });
    let consumer = rt.spawn({
        let (q, phase) = (queue.clone(), phase.clone());
        async move {
            let mut log = FutureLog {
                spans: traced.then(Samples::new),
                ..FutureLog::default()
            };
            let mut tally = Tally::new(1);
            let mut latency = Samples::new();
            let mut corrupt = 0u64;
            let mut received = 0u64;
            loop {
                let timing = phase.timing();
                let recv = q.recv_with_handle(q.inner().handle_pinned(0));
                let got = if traced {
                    Watch::new(recv, &mut log, timing).await
                } else {
                    recv.await
                };
                let Some(item) = got else { break };
                corrupt += u64::from(!item.intact(seed));
                tally.observe(0, item.seq);
                if timing {
                    latency.record_ns(stamp(anchor).saturating_sub(item.sent_ns));
                }
                received += 1;
                if received == WARM {
                    phase.arrive();
                }
            }
            if received < WARM {
                phase.arrive();
            }
            (tally, latency, corrupt, log)
        }
    });
    phase.wait_ready(2);
    let setup_s = start.elapsed().as_secs_f64();
    let (exec0, wake0) = (executor_counters(&rt), waker_counters(&queue));
    let (items, window_s) = phase.window(seconds, || progress.get());
    let (exec1, wake1) = (executor_counters(&rt), waker_counters(&queue));
    let ((sent, closed, send_log), (tally, latency, corrupt, recv_log)) = rt.block_on(async {
        let p = producer.await.expect("async-pipe producer panicked");
        let c = consumer.await.expect("async-pipe consumer panicked");
        (p, c)
    });
    drop(rt);

    let mut layers = Vec::new();
    if traced {
        let send = Quantiles::of(send_log.spans.as_ref());
        let recv = Quantiles::of(recv_log.spans.as_ref());
        let per_item = |i: usize| ratio((wake1[i] - wake0[i]) as f64, items as f64);
        layers = vec![
            ("async.send_ns_p50", send.p50_ns),
            ("async.send_ns_p99", send.p99_ns),
            ("async.recv_ns_p50", recv.p50_ns),
            ("async.recv_ns_p99", recv.p99_ns),
            (
                "async.send_park_frac",
                ratio(send_log.parked as f64, send_log.futures as f64),
            ),
            (
                "async.recv_park_frac",
                ratio(recv_log.parked as f64, recv_log.futures as f64),
            ),
            ("async.waker_registrations_per_item", per_item(0)),
            ("async.spurious_polls_per_item", per_item(1)),
        ];
        layers.extend(executor_layers(exec0, exec1, items));
    }
    RigOut {
        setup_s,
        attempted: sent,
        failed: failures(&[sent], &[tally]) + corrupt + u64::from(closed),
        items,
        window_s,
        latency: Quantiles::of([&latency]),
        layers,
    }
}
