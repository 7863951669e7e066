//! The async frontend: one tokio task per thread.

use super::capture::{Clock, Op};
use super::{assert_live, Shape, Workload, WorkloadConfig};
use nbq_async::AsyncQueue;
use nbq_util::ConcurrentQueue;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tokio::runtime::Runtime;

/// A multi-thread runtime with one worker per workload thread.
pub(super) fn runtime(cfg: &WorkloadConfig, injection_only: bool) -> Runtime {
    tokio::runtime::Builder::new_multi_thread()
        .worker_threads(cfg.threads)
        .injection_only(injection_only)
        .enable_all()
        .build()
        .expect("building the tokio runtime")
}

impl Workload {
    /// One run through the async frontend: (seconds, ops, capture). If the
    /// queue was built `with_stats`, the runtime's scheduler-counter
    /// deltas for the run (steals, steal batches, LIFO hits, injection
    /// polls, parks) are folded into its [`nbq_core::OpStats`], so one
    /// snapshot shows waker traffic next to the scheduling it caused.
    pub(super) fn on_async<C: Clock, Q: ConcurrentQueue<u64> + 'static>(
        &self,
        queue: &Arc<AsyncQueue<u64, Q>>,
        rt: &Runtime,
        cfg: &WorkloadConfig,
    ) -> (f64, u64, C) {
        let before = rt.metrics();
        let per = (cfg.iterations * cfg.burst) as u64;
        let out = match self.shape {
            Shape::Mixed => {
                assert_live(queue.capacity(), cfg);
                let (secs, clock) = rt.block_on(async_mixed(queue, *cfg));
                (secs, cfg.total_ops(), clock)
            }
            Shape::Fan { producers } => {
                let consumers = cfg.threads.saturating_sub(producers).max(1);
                let (secs, clock) = rt.block_on(async_fan(queue, producers, consumers, per));
                (secs, producers as u64 * per * 2, clock)
            }
            shape => panic!("the async frontend runs the Mixed and Fan shapes, not {shape:?}"),
        };
        let after = rt.metrics();
        queue.record_executor_counters(
            after.steals - before.steals,
            after.steal_batches - before.steal_batches,
            after.lifo_hits - before.lifo_hits,
            after.injection_polls - before.injection_polls,
            after.parks - before.parks,
        );
        assert_eq!(queue.live_waiters(), 0, "runs must not leak waiter slots");
        out
    }
}

/// The paper's loop as one task per thread. The start barrier is a
/// cooperative countdown — tasks `yield_now` until every task has been
/// spawned and polled once — so it cannot deadlock even when the runtime
/// has fewer workers than there are tasks.
async fn async_mixed<C: Clock, Q: ConcurrentQueue<u64> + 'static>(
    queue: &Arc<AsyncQueue<u64, Q>>,
    cfg: WorkloadConfig,
) -> (f64, C) {
    let tasks = cfg.threads;
    let arrived = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..tasks)
        .map(|t| {
            let q = Arc::clone(queue);
            let arrived = Arc::clone(&arrived);
            tokio::spawn(async move {
                arrived.fetch_add(1, Ordering::SeqCst);
                while arrived.load(Ordering::SeqCst) < tasks {
                    tokio::task::yield_now().await;
                }
                let start = Instant::now();
                let mut seq: u64 = 0;
                let mut clock = C::default();
                for _ in 0..cfg.iterations {
                    let iteration = C::mark();
                    for _ in 0..cfg.burst {
                        let value = ((t as u64) << 40) | seq;
                        seq += 1;
                        let op = C::mark();
                        q.send(value).await.expect("queue closed mid-run");
                        clock.record(Op::Enqueue, op);
                    }
                    for _ in 0..cfg.burst {
                        let op = C::mark();
                        q.recv().await.expect("queue closed mid-run");
                        clock.record(Op::Dequeue, op);
                    }
                    clock.record(Op::Echo, iteration);
                }
                (start.elapsed().as_secs_f64(), clock)
            })
        })
        .collect();
    let mut total = 0.0;
    let mut clock = C::default();
    for h in handles {
        let (secs, task_clock) = h.await.expect("workload task panicked");
        total += secs;
        clock.absorb(task_clock);
    }
    (total / tasks as f64, clock)
}

/// The fan as sender and receiver tasks: the channel shape where the
/// executor's wake path *is* the critical path. With a tight capacity
/// every rate mismatch parks a task, so each value's delivery rides a
/// waker → scheduler → re-poll round trip. No start barrier is needed
/// (the queue itself rendezvouses the two sides); receivers stop when the
/// queue closes after the last send.
async fn async_fan<C: Clock, Q: ConcurrentQueue<u64> + 'static>(
    queue: &Arc<AsyncQueue<u64, Q>>,
    producers: usize,
    consumers: usize,
    per: u64,
) -> (f64, C) {
    // Send stamps count from the run's start.
    let start = Instant::now();
    let senders: Vec<_> = (0..producers as u64)
        .map(|id| {
            let q = Arc::clone(queue);
            tokio::spawn(async move {
                let mut clock = C::default();
                for seq in 0..per {
                    let op = C::mark();
                    let value = C::stamp(start, (id << 40) | seq);
                    q.send(value).await.expect("closed only after producers");
                    clock.record(Op::Enqueue, op);
                }
                clock
            })
        })
        .collect();
    let receivers: Vec<_> = (0..consumers)
        .map(|_| {
            let q = Arc::clone(queue);
            tokio::spawn(async move {
                let mut clock = C::default();
                loop {
                    let op = C::mark();
                    let Some(value) = q.recv().await else { break };
                    clock.record(Op::Dequeue, op);
                    clock.transit(start, value);
                }
                clock
            })
        })
        .collect();
    let mut clock = C::default();
    for s in senders {
        clock.absorb(s.await.expect("producer panicked"));
    }
    queue.close();
    for r in receivers {
        clock.absorb(r.await.expect("consumer panicked"));
    }
    (start.elapsed().as_secs_f64(), clock)
}
