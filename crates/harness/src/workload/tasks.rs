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
    /// One run through the async frontend: (seconds, ops, capture).
    pub(super) fn on_async<C: Clock, Q: ConcurrentQueue<u64> + 'static>(
        &self,
        queue: &Arc<AsyncQueue<u64, Q>>,
        rt: &Runtime,
        cfg: &WorkloadConfig,
    ) -> (f64, u64, C) {
        let per = (cfg.iterations * cfg.burst) as u64;
        let out = match self.shape {
            Shape::Mixed => {
                assert_live(queue.capacity(), cfg);
                rt.block_on(async_mixed(queue, *cfg))
            }
            Shape::Fan { producers } => {
                let consumers = cfg.threads.saturating_sub(producers).max(1);
                rt.block_on(async_fan(queue, producers, consumers, per))
            }
            shape => panic!("the async frontend runs the Mixed and Fan shapes, not {shape:?}"),
        };
        assert_eq!(queue.live_waiters(), 0, "runs must not leak waiter slots");
        out
    }
}

/// The paper's loop as one task per thread. The start barrier is a
/// cooperative countdown — tasks `yield_now` until every task has been
/// spawned and polled once — so it cannot deadlock even when the runtime
/// has fewer workers than there are tasks. Returns the mean seconds, the
/// values the tasks moved and the merged capture.
async fn async_mixed<C: Clock, Q: ConcurrentQueue<u64> + 'static>(
    queue: &Arc<AsyncQueue<u64, Q>>,
    cfg: WorkloadConfig,
) -> (f64, u64, C) {
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
                let (mut seq, mut ops): (u64, u64) = (0, 0);
                let mut clock = C::default();
                for _ in 0..cfg.iterations {
                    let iteration = C::mark();
                    for _ in 0..cfg.burst {
                        let value = ((t as u64) << 40) | seq;
                        seq += 1;
                        let op = C::mark();
                        q.send(value).await.expect("queue closed mid-run");
                        ops += 1;
                        clock.record(Op::Enqueue, op);
                    }
                    for _ in 0..cfg.burst {
                        let op = C::mark();
                        q.recv().await.expect("queue closed mid-run");
                        ops += 1;
                        clock.record(Op::Dequeue, op);
                    }
                    clock.record(Op::Echo, iteration);
                }
                (start.elapsed().as_secs_f64(), ops, clock)
            })
        })
        .collect();
    let (mut total, mut ops) = (0.0, 0);
    let mut clock = C::default();
    for h in handles {
        let (secs, task_ops, task_clock) = h.await.expect("workload task panicked");
        total += secs;
        ops += task_ops;
        clock.absorb(task_clock);
    }
    (total / tasks as f64, ops, clock)
}

/// The fan as sender and receiver tasks: the channel shape where the
/// executor's wake path *is* the critical path. With a tight capacity
/// every rate mismatch parks a task, so each value's delivery rides a
/// waker → scheduler → re-poll round trip. No start barrier is needed
/// (the queue itself rendezvouses the two sides); receivers stop when the
/// queue closes after the last send. Returns the wall clock, the values
/// the tasks moved and the merged capture.
async fn async_fan<C: Clock, Q: ConcurrentQueue<u64> + 'static>(
    queue: &Arc<AsyncQueue<u64, Q>>,
    producers: usize,
    consumers: usize,
    per: u64,
) -> (f64, u64, C) {
    // Send stamps count from the run's start.
    let start = Instant::now();
    let senders: Vec<_> = (0..producers as u64)
        .map(|id| {
            let q = Arc::clone(queue);
            tokio::spawn(async move {
                let (mut ops, mut clock) = (0, C::default());
                for seq in 0..per {
                    let op = C::mark();
                    let value = C::stamp(start, (id << 40) | seq);
                    q.send(value).await.expect("closed only after producers");
                    ops += 1;
                    clock.record(Op::Enqueue, op);
                }
                (ops, clock)
            })
        })
        .collect();
    let receivers: Vec<_> = (0..consumers)
        .map(|_| {
            let q = Arc::clone(queue);
            tokio::spawn(async move {
                let (mut ops, mut clock) = (0, C::default());
                loop {
                    let op = C::mark();
                    let Some(value) = q.recv().await else { break };
                    ops += 1;
                    clock.record(Op::Dequeue, op);
                    clock.transit(start, value);
                }
                (ops, clock)
            })
        })
        .collect();
    let (mut ops, mut clock) = (0, C::default());
    for s in senders {
        let (sent, sender_clock) = s.await.expect("producer panicked");
        ops += sent;
        clock.absorb(sender_clock);
    }
    queue.close();
    for r in receivers {
        let (received, receiver_clock) = r.await.expect("consumer panicked");
        ops += received;
        clock.absorb(receiver_clock);
    }
    (start.elapsed().as_secs_f64(), ops, clock)
}
