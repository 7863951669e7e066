//! The paper's §6 synthetic benchmark workload.
//!
//! "In all our experiments, each thread performs 100000 iterations
//! consisting of a series of 5 enqueue operations followed by 5 dequeue
//! operations. A node allocation immediately precedes each enqueue
//! operation, and each dequeued node is freed. We synchronized the threads
//! so that none can begin its iterations before all others finished their
//! initialization phase. We report the average of 50 runs where each run
//! is the mean time needed to complete the thread's iterations."
//!
//! Node allocation/free happens inside every queue implementation in this
//! workspace (each enqueue boxes a node, each dequeue frees one), so the
//! workload body is pure queue operations, exactly as in the paper.
//!
//! Defaults are scaled down for a CI-sized machine; `--paper` on the
//! `repro` binary restores the 100 000 × 50 parameters.

use nbq_async::AsyncQueue;
use nbq_core::ShardedQueue;
use nbq_util::stats::Summary;
use nbq_util::{BlockingQueue, ConcurrentQueue, LatencyHistogram, QueueHandle};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Parameters of one experiment cell.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Concurrent threads.
    pub threads: usize,
    /// Iterations per thread; each iteration is `burst` enqueues then
    /// `burst` dequeues.
    pub iterations: usize,
    /// Independent runs (fresh queue each) averaged into the result.
    pub runs: usize,
    /// Queue capacity for bounded algorithms.
    pub capacity: usize,
    /// Operations per burst (the paper uses 5).
    pub burst: usize,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            threads: 4,
            iterations: 2_000,
            runs: 5,
            capacity: 4096,
            burst: 5,
        }
    }
}

impl WorkloadConfig {
    /// The paper's published parameters (slow on small machines).
    pub fn paper(threads: usize, capacity: usize) -> Self {
        Self {
            threads,
            iterations: 100_000,
            runs: 50,
            capacity,
            burst: 5,
        }
    }

    /// Total operations across all threads in one run.
    pub fn total_ops(&self) -> u64 {
        (self.threads * self.iterations * self.burst * 2) as u64
    }

    /// Producer threads in the pipe (split) workload: half the threads,
    /// rounded down, never zero.
    pub fn pipe_producers(&self) -> usize {
        (self.threads / 2).max(1)
    }

    /// Total operations in one pipe run: each produced value is enqueued
    /// once and dequeued once.
    pub fn pipe_total_ops(&self) -> u64 {
        (self.pipe_producers() * self.iterations * self.burst * 2) as u64
    }

    /// Total operations in one fan run with an explicit producer count:
    /// each produced value is enqueued once and dequeued once, whichever
    /// side is the wide one.
    pub fn fan_total_ops(&self, producers: usize) -> u64 {
        (producers * self.iterations * self.burst * 2) as u64
    }
}

/// Executes one run against `queue`; returns the mean per-thread wall
/// time in seconds (the paper's per-run metric).
pub fn run_once<Q: ConcurrentQueue<u64>>(queue: &Q, config: &WorkloadConfig) -> f64 {
    // Liveness: if every thread can be mid-enqueue-burst simultaneously
    // with the queue full (capacity <= threads x (burst-1)), the
    // enqueue-retry loops deadlock — nobody is in a dequeue phase. The
    // paper sizes its array to avoid this; so do we, loudly.
    if let Some(cap) = queue.capacity() {
        assert!(
            cap > config.threads * (config.burst - 1),
            "workload can deadlock: capacity {cap} <= threads {} x (burst {} - 1)",
            config.threads,
            config.burst
        );
    }
    let barrier = Barrier::new(config.threads);
    let mut thread_secs = vec![0.0f64; config.threads];
    std::thread::scope(|s| {
        let mut joins = Vec::with_capacity(config.threads);
        for t in 0..config.threads {
            let barrier = &barrier;
            joins.push(s.spawn(move || {
                // Initialization phase: register before the barrier, per
                // the paper ("none can begin its iterations before all
                // others finished their initialization phase").
                let mut handle = queue.handle();
                let mut seq: u64 = 0;
                barrier.wait();
                let start = Instant::now();
                for _ in 0..config.iterations {
                    for _ in 0..config.burst {
                        let value = ((t as u64) << 40) | seq;
                        seq += 1;
                        // Bounded queues may transiently report Full under
                        // oversubscription; retry (the paper sizes its
                        // array so this effectively never happens — our
                        // default capacity >> threads*burst does too).
                        while handle.enqueue(value).is_err() {
                            std::thread::yield_now();
                        }
                    }
                    for _ in 0..config.burst {
                        // Another thread may have taken "our" items;
                        // retry until one arrives (global counts match).
                        while handle.dequeue().is_none() {
                            std::thread::yield_now();
                        }
                    }
                }
                start.elapsed().as_secs_f64()
            }));
        }
        for (t, j) in joins.into_iter().enumerate() {
            thread_secs[t] = j.join().expect("workload thread panicked");
        }
    });
    thread_secs.iter().sum::<f64>() / config.threads as f64
}

/// Batched variant of [`run_once`]: each iteration moves its `burst`
/// items with one `enqueue_batch` and one `dequeue_batch` call instead of
/// `burst` single calls. Queues without a native batch path fall through
/// to the trait's element-wise defaults, so the comparison isolates
/// exactly the amortization the batch API buys.
pub fn run_once_batched<Q: ConcurrentQueue<u64>>(queue: &Q, config: &WorkloadConfig) -> f64 {
    if let Some(cap) = queue.capacity() {
        assert!(
            cap > config.threads * (config.burst - 1),
            "workload can deadlock: capacity {cap} <= threads {} x (burst {} - 1)",
            config.threads,
            config.burst
        );
    }
    let barrier = Barrier::new(config.threads);
    let mut thread_secs = vec![0.0f64; config.threads];
    std::thread::scope(|s| {
        let mut joins = Vec::with_capacity(config.threads);
        for t in 0..config.threads {
            let barrier = &barrier;
            joins.push(s.spawn(move || {
                let mut handle = queue.handle();
                let mut seq: u64 = 0;
                let mut out: Vec<u64> = Vec::with_capacity(config.burst);
                barrier.wait();
                let start = Instant::now();
                for _ in 0..config.iterations {
                    let mut batch: Vec<u64> = (0..config.burst)
                        .map(|_| {
                            let value = ((t as u64) << 40) | seq;
                            seq += 1;
                            value
                        })
                        .collect();
                    loop {
                        match handle.enqueue_batch(batch.into_iter()) {
                            Ok(_) => break,
                            Err(e) => {
                                // Transient full under oversubscription:
                                // retry the leftover suffix only.
                                batch = e.remaining;
                                std::thread::yield_now();
                            }
                        }
                    }
                    out.clear();
                    while out.len() < config.burst {
                        let want = config.burst - out.len();
                        if handle.dequeue_batch(&mut out, want) == 0 {
                            std::thread::yield_now();
                        }
                    }
                }
                start.elapsed().as_secs_f64()
            }));
        }
        for (t, j) in joins.into_iter().enumerate() {
            thread_secs[t] = j.join().expect("workload thread panicked");
        }
    });
    thread_secs.iter().sum::<f64>() / config.threads as f64
}

/// [`run_once`] through a [`BlockingQueue`] frontend: identical workload
/// body, but a full enqueue or empty dequeue parks the thread on the
/// frontend's condvars instead of spinning on `yield_now`. The contrast
/// row for the async experiment (`ext-async`).
pub fn run_once_blocking<Q: ConcurrentQueue<u64>>(
    queue: &BlockingQueue<u64, Q>,
    config: &WorkloadConfig,
) -> f64 {
    if let Some(cap) = queue.inner().capacity() {
        assert!(
            cap > config.threads * (config.burst - 1),
            "workload can deadlock: capacity {cap} <= threads {} x (burst {} - 1)",
            config.threads,
            config.burst
        );
    }
    let barrier = Barrier::new(config.threads);
    let mut thread_secs = vec![0.0f64; config.threads];
    std::thread::scope(|s| {
        let mut joins = Vec::with_capacity(config.threads);
        for t in 0..config.threads {
            let barrier = &barrier;
            joins.push(s.spawn(move || {
                let mut handle = queue.handle();
                let mut seq: u64 = 0;
                barrier.wait();
                let start = Instant::now();
                for _ in 0..config.iterations {
                    for _ in 0..config.burst {
                        let value = ((t as u64) << 40) | seq;
                        seq += 1;
                        handle.send(value).expect("queue closed mid-run");
                    }
                    for _ in 0..config.burst {
                        handle.recv().expect("queue closed mid-run");
                    }
                }
                start.elapsed().as_secs_f64()
            }));
        }
        for (t, j) in joins.into_iter().enumerate() {
            thread_secs[t] = j.join().expect("workload thread panicked");
        }
    });
    thread_secs.iter().sum::<f64>() / config.threads as f64
}

/// [`run_once`] through an [`AsyncQueue`] frontend: one tokio *task* per
/// paper thread, driven on the given multi-thread runtime. A full send or
/// empty recv parks the task in the waiter registry (the executor keeps
/// the worker thread busy elsewhere) instead of spinning.
///
/// The start barrier is a cooperative countdown — tasks `yield_now` until
/// every task has been spawned and polled once — so it cannot deadlock
/// even when the runtime has fewer workers than there are tasks.
pub fn run_once_async<Q>(
    queue: &Arc<AsyncQueue<u64, Q>>,
    rt: &tokio::runtime::Runtime,
    config: &WorkloadConfig,
) -> f64
where
    Q: ConcurrentQueue<u64> + Send + Sync + 'static,
{
    // Same liveness bound as `run_once`: if every task can be parked in
    // its enqueue burst with the queue full, no task is receiving and the
    // waiter registry never gets a wake.
    if let Some(cap) = queue.capacity() {
        assert!(
            cap > config.threads * (config.burst - 1),
            "workload can deadlock: capacity {cap} <= tasks {} x (burst {} - 1)",
            config.threads,
            config.burst
        );
    }
    let config = *config;
    let tasks = config.threads;
    rt.block_on(async {
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
                    for _ in 0..config.iterations {
                        for _ in 0..config.burst {
                            let value = ((t as u64) << 40) | seq;
                            seq += 1;
                            q.send(value).await.expect("queue closed mid-run");
                        }
                        for _ in 0..config.burst {
                            q.recv().await.expect("queue closed mid-run");
                        }
                    }
                    start.elapsed().as_secs_f64()
                })
            })
            .collect();
        let mut total = 0.0;
        for h in handles {
            total += h.await.expect("workload task panicked");
        }
        total / tasks as f64
    })
}

/// Pipe (split-role) variant of [`run_once`]: instead of every thread
/// alternating enqueue and dequeue bursts, `threads/2` threads only
/// produce and the rest only consume. This is the shape that exposes the
/// SPSC crossover — at 2 threads it is exactly the 1-producer/1-consumer
/// pipeline the wait-free ring is built for.
///
/// Producers push `iterations x burst` values each (retrying on `Full`);
/// consumers pop until a shared countdown of outstanding values reaches
/// zero. No deadlock bound is needed: consumers drain unconditionally, so
/// a full queue always makes progress.
pub fn run_once_pipe<Q: ConcurrentQueue<u64>>(queue: &Q, config: &WorkloadConfig) -> f64 {
    assert!(
        config.threads >= 2,
        "a pipe needs at least one producer and one consumer"
    );
    let producers = config.pipe_producers();
    let per_producer = (config.iterations * config.burst) as u64;
    let remaining = AtomicU64::new(producers as u64 * per_producer);
    let barrier = Barrier::new(config.threads);
    let mut thread_secs = vec![0.0f64; config.threads];
    std::thread::scope(|s| {
        let mut joins = Vec::with_capacity(config.threads);
        for t in 0..config.threads {
            let barrier = &barrier;
            let remaining = &remaining;
            joins.push(s.spawn(move || {
                let mut handle = queue.handle();
                barrier.wait();
                let start = Instant::now();
                if t < producers {
                    for seq in 0..per_producer {
                        let value = ((t as u64) << 40) | seq;
                        while handle.enqueue(value).is_err() {
                            std::thread::yield_now();
                        }
                    }
                } else {
                    // Decrement only after a successful pop, so `remaining`
                    // over-counts in-flight values and no consumer exits
                    // while one is still reachable.
                    while remaining.load(Ordering::Acquire) > 0 {
                        if handle.dequeue().is_some() {
                            remaining.fetch_sub(1, Ordering::AcqRel);
                        } else {
                            std::thread::yield_now();
                        }
                    }
                }
                start.elapsed().as_secs_f64()
            }));
        }
        for (t, j) in joins.into_iter().enumerate() {
            thread_secs[t] = j.join().expect("workload thread panicked");
        }
    });
    thread_secs.iter().sum::<f64>() / config.threads as f64
}

/// Pipe variant over a [`ShardedQueue`] with *pinned* handles: producer
/// `i` and consumer `i` both pin lane `i % lanes`, so with one pair per
/// lane every lane sees exactly one producer and one consumer — the
/// arrangement where an SPSC fast-path lane stays on its wait-free ring
/// for the whole run.
///
/// Requires an even thread count (pairs). Each consumer pops exactly its
/// pair's output; when several pairs share a lane the per-lane totals
/// still balance, so every consumer terminates.
pub fn run_once_pipe_pinned<Q: ConcurrentQueue<u64>>(
    queue: &ShardedQueue<u64, Q>,
    config: &WorkloadConfig,
) -> f64 {
    assert!(
        config.threads >= 2 && config.threads % 2 == 0,
        "the pinned pipe pairs each producer with one consumer"
    );
    let pairs = config.threads / 2;
    let lanes = queue.lanes();
    let per_producer = (config.iterations * config.burst) as u64;
    let barrier = Barrier::new(config.threads);
    let mut thread_secs = vec![0.0f64; config.threads];
    std::thread::scope(|s| {
        let mut joins = Vec::with_capacity(config.threads);
        for t in 0..config.threads {
            let barrier = &barrier;
            joins.push(s.spawn(move || {
                let pair = t % pairs;
                let mut handle = queue.handle_pinned(pair % lanes);
                barrier.wait();
                let start = Instant::now();
                if t < pairs {
                    for seq in 0..per_producer {
                        let value = ((pair as u64) << 40) | seq;
                        while handle.enqueue(value).is_err() {
                            std::thread::yield_now();
                        }
                    }
                } else {
                    for _ in 0..per_producer {
                        while handle.dequeue().is_none() {
                            std::thread::yield_now();
                        }
                    }
                }
                start.elapsed().as_secs_f64()
            }));
        }
        for (t, j) in joins.into_iter().enumerate() {
            thread_secs[t] = j.join().expect("workload thread panicked");
        }
    });
    thread_secs.iter().sum::<f64>() / config.threads as f64
}

/// Fan (asymmetric split-role) variant of [`run_once_pipe`] with an
/// explicit producer count: threads `0..producers` enqueue, the remaining
/// `threads - producers` drain a shared countdown. `producers =
/// threads - 1` is the MPSC fan-in shape; `producers = 1` is the SPMC
/// fan-out shape. Works on any [`ConcurrentQueue`], including the raw
/// [`nbq_core::MpscRing`] / [`nbq_core::SpmcRing`] whose multi side
/// tolerates any registrant count.
pub fn run_once_fan<Q: ConcurrentQueue<u64>>(
    queue: &Q,
    config: &WorkloadConfig,
    producers: usize,
) -> f64 {
    assert!(
        producers >= 1 && config.threads > producers,
        "a fan needs at least one thread on each side"
    );
    let per_producer = (config.iterations * config.burst) as u64;
    let remaining = AtomicU64::new(producers as u64 * per_producer);
    let barrier = Barrier::new(config.threads);
    let mut thread_secs = vec![0.0f64; config.threads];
    std::thread::scope(|s| {
        let mut joins = Vec::with_capacity(config.threads);
        for t in 0..config.threads {
            let barrier = &barrier;
            let remaining = &remaining;
            joins.push(s.spawn(move || {
                let mut handle = queue.handle();
                barrier.wait();
                let start = Instant::now();
                if t < producers {
                    for seq in 0..per_producer {
                        let value = ((t as u64) << 40) | seq;
                        while handle.enqueue(value).is_err() {
                            std::thread::yield_now();
                        }
                    }
                } else {
                    // Decrement only after a successful pop, so `remaining`
                    // over-counts in-flight values and no consumer exits
                    // while one is still reachable.
                    while remaining.load(Ordering::Acquire) > 0 {
                        if handle.dequeue().is_some() {
                            remaining.fetch_sub(1, Ordering::AcqRel);
                        } else {
                            std::thread::yield_now();
                        }
                    }
                }
                start.elapsed().as_secs_f64()
            }));
        }
        for (t, j) in joins.into_iter().enumerate() {
            thread_secs[t] = j.join().expect("workload thread panicked");
        }
    });
    thread_secs.iter().sum::<f64>() / config.threads as f64
}

/// Fan-in over a [`ShardedQueue`] with *pinned* handles: every lane gets
/// exactly one consumer (consumer `c` pins lane `c`) and the remaining
/// `threads - lanes` producers spread round-robin (producer `p` pins lane
/// `p % lanes`) — the arrangement an MPSC fast-path lane serves wait-free
/// on its consumer side.
pub fn run_once_fan_in_pinned<Q: ConcurrentQueue<u64>>(
    queue: &ShardedQueue<u64, Q>,
    config: &WorkloadConfig,
) -> f64 {
    let lanes = queue.lanes();
    assert!(
        config.threads >= 2 * lanes,
        "pinned fan-in needs one consumer per lane plus >= one producer \
         per lane ({} threads < 2 x {lanes} lanes)",
        config.threads
    );
    let producers = config.threads - lanes;
    let per_producer = (config.iterations * config.burst) as u64;
    // Per-lane outstanding-value countdowns: producer p feeds lane
    // p % lanes, and only lane c's consumer drains counter c.
    let counts: Vec<AtomicU64> = (0..lanes)
        .map(|l| {
            let feeders = (0..producers).filter(|p| p % lanes == l).count() as u64;
            AtomicU64::new(feeders * per_producer)
        })
        .collect();
    let barrier = Barrier::new(config.threads);
    let mut thread_secs = vec![0.0f64; config.threads];
    std::thread::scope(|s| {
        let mut joins = Vec::with_capacity(config.threads);
        for t in 0..config.threads {
            let barrier = &barrier;
            let counts = &counts;
            joins.push(s.spawn(move || {
                let lane = if t < producers {
                    t % lanes
                } else {
                    t - producers
                };
                let mut handle = queue.handle_pinned(lane);
                barrier.wait();
                let start = Instant::now();
                if t < producers {
                    for seq in 0..per_producer {
                        let value = ((t as u64) << 40) | seq;
                        while handle.enqueue(value).is_err() {
                            std::thread::yield_now();
                        }
                    }
                } else {
                    let remaining = &counts[lane];
                    while remaining.load(Ordering::Acquire) > 0 {
                        if handle.dequeue().is_some() {
                            remaining.fetch_sub(1, Ordering::AcqRel);
                        } else {
                            std::thread::yield_now();
                        }
                    }
                }
                start.elapsed().as_secs_f64()
            }));
        }
        for (t, j) in joins.into_iter().enumerate() {
            thread_secs[t] = j.join().expect("workload thread panicked");
        }
    });
    thread_secs.iter().sum::<f64>() / config.threads as f64
}

/// Fan-out mirror of [`run_once_fan_in_pinned`]: every lane gets exactly
/// one producer (producer `p` pins lane `p`) and the remaining
/// `threads - lanes` consumers spread round-robin (consumer `c` pins lane
/// `c % lanes`) — the arrangement an SPMC fast-path lane serves wait-free
/// on its producer side.
pub fn run_once_fan_out_pinned<Q: ConcurrentQueue<u64>>(
    queue: &ShardedQueue<u64, Q>,
    config: &WorkloadConfig,
) -> f64 {
    let lanes = queue.lanes();
    assert!(
        config.threads >= 2 * lanes,
        "pinned fan-out needs one producer per lane plus >= one consumer \
         per lane ({} threads < 2 x {lanes} lanes)",
        config.threads
    );
    let per_producer = (config.iterations * config.burst) as u64;
    // One producer per lane; the lane's consumers share its countdown.
    let counts: Vec<AtomicU64> = (0..lanes).map(|_| AtomicU64::new(per_producer)).collect();
    let barrier = Barrier::new(config.threads);
    let mut thread_secs = vec![0.0f64; config.threads];
    std::thread::scope(|s| {
        let mut joins = Vec::with_capacity(config.threads);
        for t in 0..config.threads {
            let barrier = &barrier;
            let counts = &counts;
            joins.push(s.spawn(move || {
                let lane = if t < lanes { t } else { (t - lanes) % lanes };
                let mut handle = queue.handle_pinned(lane);
                barrier.wait();
                let start = Instant::now();
                if t < lanes {
                    for seq in 0..per_producer {
                        let value = ((t as u64) << 40) | seq;
                        while handle.enqueue(value).is_err() {
                            std::thread::yield_now();
                        }
                    }
                } else {
                    let remaining = &counts[lane];
                    while remaining.load(Ordering::Acquire) > 0 {
                        if handle.dequeue().is_some() {
                            remaining.fetch_sub(1, Ordering::AcqRel);
                        } else {
                            std::thread::yield_now();
                        }
                    }
                }
                start.elapsed().as_secs_f64()
            }));
        }
        for (t, j) in joins.into_iter().enumerate() {
            thread_secs[t] = j.join().expect("workload thread panicked");
        }
    });
    thread_secs.iter().sum::<f64>() / config.threads as f64
}

/// Runs `config.runs` fresh-queue runs of the workload and summarizes the
/// per-run times.
pub fn run_workload<Q, F>(factory: F, config: &WorkloadConfig) -> Summary
where
    Q: ConcurrentQueue<u64>,
    F: Fn() -> Q,
{
    let samples: Vec<f64> = (0..config.runs)
        .map(|_| {
            let queue = factory();
            run_once(&queue, config)
        })
        .collect();
    Summary::of(&samples)
}

/// [`run_workload`] over the pipe (split-role) workload body.
pub fn run_workload_pipe<Q, F>(factory: F, config: &WorkloadConfig) -> Summary
where
    Q: ConcurrentQueue<u64>,
    F: Fn() -> Q,
{
    let samples: Vec<f64> = (0..config.runs)
        .map(|_| {
            let queue = factory();
            run_once_pipe(&queue, config)
        })
        .collect();
    Summary::of(&samples)
}

/// [`run_workload`] over the pinned pipe body; the factory builds a fresh
/// [`ShardedQueue`] per run.
pub fn run_workload_pipe_pinned<Q, F>(factory: F, config: &WorkloadConfig) -> Summary
where
    Q: ConcurrentQueue<u64>,
    F: Fn() -> ShardedQueue<u64, Q>,
{
    let samples: Vec<f64> = (0..config.runs)
        .map(|_| {
            let queue = factory();
            run_once_pipe_pinned(&queue, config)
        })
        .collect();
    Summary::of(&samples)
}

/// [`run_workload`] over the fan (asymmetric split-role) workload body.
pub fn run_workload_fan<Q, F>(factory: F, config: &WorkloadConfig, producers: usize) -> Summary
where
    Q: ConcurrentQueue<u64>,
    F: Fn() -> Q,
{
    let samples: Vec<f64> = (0..config.runs)
        .map(|_| {
            let queue = factory();
            run_once_fan(&queue, config, producers)
        })
        .collect();
    Summary::of(&samples)
}

/// [`run_workload`] over the pinned fan-in body; the factory builds a
/// fresh [`ShardedQueue`] per run.
pub fn run_workload_fan_in_pinned<Q, F>(factory: F, config: &WorkloadConfig) -> Summary
where
    Q: ConcurrentQueue<u64>,
    F: Fn() -> ShardedQueue<u64, Q>,
{
    let samples: Vec<f64> = (0..config.runs)
        .map(|_| {
            let queue = factory();
            run_once_fan_in_pinned(&queue, config)
        })
        .collect();
    Summary::of(&samples)
}

/// [`run_workload`] over the pinned fan-out body; the factory builds a
/// fresh [`ShardedQueue`] per run.
pub fn run_workload_fan_out_pinned<Q, F>(factory: F, config: &WorkloadConfig) -> Summary
where
    Q: ConcurrentQueue<u64>,
    F: Fn() -> ShardedQueue<u64, Q>,
{
    let samples: Vec<f64> = (0..config.runs)
        .map(|_| {
            let queue = factory();
            run_once_fan_out_pinned(&queue, config)
        })
        .collect();
    Summary::of(&samples)
}

/// [`run_workload`] over the batched workload body.
pub fn run_workload_batched<Q, F>(factory: F, config: &WorkloadConfig) -> Summary
where
    Q: ConcurrentQueue<u64>,
    F: Fn() -> Q,
{
    let samples: Vec<f64> = (0..config.runs)
        .map(|_| {
            let queue = factory();
            run_once_batched(&queue, config)
        })
        .collect();
    Summary::of(&samples)
}

/// [`run_workload`] through a fresh [`BlockingQueue`] frontend per run.
pub fn run_workload_blocking<Q, F>(factory: F, config: &WorkloadConfig) -> Summary
where
    Q: ConcurrentQueue<u64>,
    F: Fn() -> Q,
{
    let samples: Vec<f64> = (0..config.runs)
        .map(|_| {
            let queue = BlockingQueue::new(factory());
            run_once_blocking(&queue, config)
        })
        .collect();
    Summary::of(&samples)
}

/// [`run_workload`] through a fresh [`AsyncQueue`] frontend per run, all
/// runs sharing one tokio multi-thread runtime sized to the thread count
/// (runtime startup is excluded from every sample).
pub fn run_workload_async<Q, F>(factory: F, config: &WorkloadConfig) -> Summary
where
    Q: ConcurrentQueue<u64> + Send + Sync + 'static,
    F: Fn() -> Q,
{
    let rt = tokio::runtime::Builder::new_multi_thread()
        .worker_threads(config.threads)
        .enable_all()
        .build()
        .expect("building the tokio runtime");
    let samples: Vec<f64> = (0..config.runs)
        .map(|_| {
            let queue = Arc::new(AsyncQueue::new(factory()));
            let secs = run_once_async(&queue, &rt, config);
            debug_assert_eq!(queue.live_waiters(), 0, "runs must not leak waiter slots");
            secs
        })
        .collect();
    Summary::of(&samples)
}

/// Per-operation latency capture from one workload run (or several,
/// merged): one histogram per operation kind plus one for the *echo* —
/// in the balanced workloads, a complete iteration of `burst` enqueues
/// then `burst` dequeues (the round-trip a message-passing caller
/// actually waits for); in the split-role async workload, the in-queue
/// transit time of one value from `send` to `recv`, scheduler reschedule
/// included.
///
/// Histograms are recorded per thread/task (no sharing on the hot path)
/// and merged after the run; see [`nbq_util::latency`].
#[derive(Debug, Clone, Default)]
pub struct LatencyReport {
    /// Time per enqueue/`send`, including Full retries or parking.
    pub enqueue: LatencyHistogram,
    /// Time per dequeue/`recv`, including empty retries or parking.
    pub dequeue: LatencyHistogram,
    /// Time per full burst iteration (`burst` sends + `burst` recvs).
    pub echo: LatencyHistogram,
}

impl LatencyReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds another capture (a per-thread or per-run report) into this
    /// one.
    pub fn merge(&mut self, other: &LatencyReport) {
        self.enqueue.merge(&other.enqueue);
        self.dequeue.merge(&other.dequeue);
        self.echo.merge(&other.echo);
    }
}

/// [`run_once`] with per-operation latency capture: identical workload
/// body (raw queue, spin on Full/empty), but every enqueue, dequeue, and
/// full burst iteration is individually timed. Returns the mean
/// per-thread wall time plus the merged capture.
///
/// The two extra `Instant::now()` calls per operation cost a few tens of
/// nanoseconds each; every `*_latency` variant pays the same overhead, so
/// throughputs derived from these runs stay comparable *across frontends*
/// (and slightly below their untimed counterparts).
pub fn run_once_latency<Q: ConcurrentQueue<u64>>(
    queue: &Q,
    config: &WorkloadConfig,
) -> (f64, LatencyReport) {
    if let Some(cap) = queue.capacity() {
        assert!(
            cap > config.threads * (config.burst - 1),
            "workload can deadlock: capacity {cap} <= threads {} x (burst {} - 1)",
            config.threads,
            config.burst
        );
    }
    let barrier = Barrier::new(config.threads);
    let mut thread_secs = vec![0.0f64; config.threads];
    let mut report = LatencyReport::new();
    std::thread::scope(|s| {
        let mut joins = Vec::with_capacity(config.threads);
        for t in 0..config.threads {
            let barrier = &barrier;
            joins.push(s.spawn(move || {
                let mut handle = queue.handle();
                let mut seq: u64 = 0;
                let mut local = LatencyReport::new();
                barrier.wait();
                let start = Instant::now();
                for _ in 0..config.iterations {
                    let iter_start = Instant::now();
                    for _ in 0..config.burst {
                        let value = ((t as u64) << 40) | seq;
                        seq += 1;
                        let op = Instant::now();
                        while handle.enqueue(value).is_err() {
                            std::thread::yield_now();
                        }
                        local.enqueue.record(op.elapsed());
                    }
                    for _ in 0..config.burst {
                        let op = Instant::now();
                        while handle.dequeue().is_none() {
                            std::thread::yield_now();
                        }
                        local.dequeue.record(op.elapsed());
                    }
                    local.echo.record(iter_start.elapsed());
                }
                (start.elapsed().as_secs_f64(), local)
            }));
        }
        for (t, j) in joins.into_iter().enumerate() {
            let (secs, local) = j.join().expect("workload thread panicked");
            thread_secs[t] = secs;
            report.merge(&local);
        }
    });
    (
        thread_secs.iter().sum::<f64>() / config.threads as f64,
        report,
    )
}

/// [`run_once_blocking`] with per-operation latency capture; see
/// [`run_once_latency`] for the timing discipline.
pub fn run_once_blocking_latency<Q: ConcurrentQueue<u64>>(
    queue: &BlockingQueue<u64, Q>,
    config: &WorkloadConfig,
) -> (f64, LatencyReport) {
    if let Some(cap) = queue.inner().capacity() {
        assert!(
            cap > config.threads * (config.burst - 1),
            "workload can deadlock: capacity {cap} <= threads {} x (burst {} - 1)",
            config.threads,
            config.burst
        );
    }
    let barrier = Barrier::new(config.threads);
    let mut thread_secs = vec![0.0f64; config.threads];
    let mut report = LatencyReport::new();
    std::thread::scope(|s| {
        let mut joins = Vec::with_capacity(config.threads);
        for t in 0..config.threads {
            let barrier = &barrier;
            joins.push(s.spawn(move || {
                let mut handle = queue.handle();
                let mut seq: u64 = 0;
                let mut local = LatencyReport::new();
                barrier.wait();
                let start = Instant::now();
                for _ in 0..config.iterations {
                    let iter_start = Instant::now();
                    for _ in 0..config.burst {
                        let value = ((t as u64) << 40) | seq;
                        seq += 1;
                        let op = Instant::now();
                        handle.send(value).expect("queue closed mid-run");
                        local.enqueue.record(op.elapsed());
                    }
                    for _ in 0..config.burst {
                        let op = Instant::now();
                        handle.recv().expect("queue closed mid-run");
                        local.dequeue.record(op.elapsed());
                    }
                    local.echo.record(iter_start.elapsed());
                }
                (start.elapsed().as_secs_f64(), local)
            }));
        }
        for (t, j) in joins.into_iter().enumerate() {
            let (secs, local) = j.join().expect("workload thread panicked");
            thread_secs[t] = secs;
            report.merge(&local);
        }
    });
    (
        thread_secs.iter().sum::<f64>() / config.threads as f64,
        report,
    )
}

/// [`run_once_async`] with per-operation latency capture. Each task times
/// its own sends/recvs (parking time included — this is *end-to-end*
/// latency, scheduler reschedule and all) into a task-local report,
/// merged after the joins.
///
/// If the queue was built `with_stats`, the runtime's scheduler-counter
/// deltas for this run (steals, steal batches, LIFO hits, injection
/// polls, parks) are folded into the queue's [`nbq_core::OpStats`] via
/// [`AsyncQueue::record_executor_counters`], so one snapshot shows waker
/// traffic next to the scheduling it caused.
pub fn run_once_async_latency<Q>(
    queue: &Arc<AsyncQueue<u64, Q>>,
    rt: &tokio::runtime::Runtime,
    config: &WorkloadConfig,
) -> (f64, LatencyReport)
where
    Q: ConcurrentQueue<u64> + Send + Sync + 'static,
{
    if let Some(cap) = queue.capacity() {
        assert!(
            cap > config.threads * (config.burst - 1),
            "workload can deadlock: capacity {cap} <= tasks {} x (burst {} - 1)",
            config.threads,
            config.burst
        );
    }
    let before = rt.metrics();
    let config = *config;
    let tasks = config.threads;
    let out = rt.block_on(async {
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
                    let mut local = LatencyReport::new();
                    for _ in 0..config.iterations {
                        let iter_start = Instant::now();
                        for _ in 0..config.burst {
                            let value = ((t as u64) << 40) | seq;
                            seq += 1;
                            let op = Instant::now();
                            q.send(value).await.expect("queue closed mid-run");
                            local.enqueue.record(op.elapsed());
                        }
                        for _ in 0..config.burst {
                            let op = Instant::now();
                            q.recv().await.expect("queue closed mid-run");
                            local.dequeue.record(op.elapsed());
                        }
                        local.echo.record(iter_start.elapsed());
                    }
                    (start.elapsed().as_secs_f64(), local)
                })
            })
            .collect();
        let mut total = 0.0;
        let mut report = LatencyReport::new();
        for h in handles {
            let (secs, local) = h.await.expect("workload task panicked");
            total += secs;
            report.merge(&local);
        }
        (total / tasks as f64, report)
    });
    let after = rt.metrics();
    queue.record_executor_counters(
        after.steals - before.steals,
        after.steal_batches - before.steal_batches,
        after.lifo_hits - before.lifo_hits,
        after.injection_polls - before.injection_polls,
        after.parks - before.parks,
    );
    out
}

/// Split-role (producer/consumer) async workload with latency capture —
/// the channel shape where the executor's wake path *is* the critical
/// path. `threads/2` tasks only send, the rest only recv; with a tight
/// queue capacity every rate mismatch parks a task, so each value's
/// delivery rides a waker → scheduler → re-poll round trip (the
/// message-passing hot path the worker LIFO slot exists for).
///
/// Timing: `enqueue` is per `send` (Full parking included), `dequeue`
/// per `recv` (empty parking included), and `echo` is the **in-queue
/// transit time** — each value carries its send timestamp (nanoseconds
/// since a shared epoch), and the receiver records age on arrival. No
/// start barrier is needed: the queue itself rendezvouses the two sides.
///
/// Executor-counter folding works as in [`run_once_async_latency`].
/// Returns the run's wall-clock seconds (one clock spans both roles —
/// per-role times would double-count the overlap) and the merged report.
pub fn run_once_async_split_latency<Q>(
    queue: &Arc<AsyncQueue<u64, Q>>,
    rt: &tokio::runtime::Runtime,
    config: &WorkloadConfig,
) -> (f64, LatencyReport)
where
    Q: ConcurrentQueue<u64> + Send + Sync + 'static,
{
    let producers = config.pipe_producers();
    let consumers = (config.threads - producers).max(1);
    let per_producer = (config.iterations * config.burst) as u64;
    let before = rt.metrics();
    let epoch = Instant::now();
    let out = rt.block_on(async {
        let start = Instant::now();
        let mut senders = Vec::with_capacity(producers);
        for _ in 0..producers {
            let q = Arc::clone(queue);
            senders.push(tokio::spawn(async move {
                let mut local = LatencyReport::new();
                for _ in 0..per_producer {
                    let op = Instant::now();
                    let stamp = epoch.elapsed().as_nanos() as u64;
                    q.send(stamp).await.expect("closed only after producers");
                    local.enqueue.record(op.elapsed());
                }
                local
            }));
        }
        let mut receivers = Vec::with_capacity(consumers);
        for _ in 0..consumers {
            let q = Arc::clone(queue);
            receivers.push(tokio::spawn(async move {
                let mut local = LatencyReport::new();
                loop {
                    let op = Instant::now();
                    match q.recv().await {
                        Some(stamp) => {
                            local.dequeue.record(op.elapsed());
                            let now = epoch.elapsed().as_nanos() as u64;
                            local.echo.record_ns(now.saturating_sub(stamp));
                        }
                        None => break,
                    }
                }
                local
            }));
        }
        let mut report = LatencyReport::new();
        for s in senders {
            report.merge(&s.await.expect("producer panicked"));
        }
        queue.close();
        for r in receivers {
            report.merge(&r.await.expect("consumer panicked"));
        }
        (start.elapsed().as_secs_f64(), report)
    });
    let after = rt.metrics();
    queue.record_executor_counters(
        after.steals - before.steals,
        after.steal_batches - before.steal_batches,
        after.lifo_hits - before.lifo_hits,
        after.injection_polls - before.injection_polls,
        after.parks - before.parks,
    );
    out
}

/// [`run_workload`] with latency capture: runs merge into one report.
pub fn run_workload_latency<Q, F>(factory: F, config: &WorkloadConfig) -> (Summary, LatencyReport)
where
    Q: ConcurrentQueue<u64>,
    F: Fn() -> Q,
{
    let mut report = LatencyReport::new();
    let samples: Vec<f64> = (0..config.runs)
        .map(|_| {
            let queue = factory();
            let (secs, local) = run_once_latency(&queue, config);
            report.merge(&local);
            secs
        })
        .collect();
    (Summary::of(&samples), report)
}

/// [`run_workload_blocking`] with latency capture.
pub fn run_workload_blocking_latency<Q, F>(
    factory: F,
    config: &WorkloadConfig,
) -> (Summary, LatencyReport)
where
    Q: ConcurrentQueue<u64>,
    F: Fn() -> Q,
{
    let mut report = LatencyReport::new();
    let samples: Vec<f64> = (0..config.runs)
        .map(|_| {
            let queue = BlockingQueue::new(factory());
            let (secs, local) = run_once_blocking_latency(&queue, config);
            report.merge(&local);
            secs
        })
        .collect();
    (Summary::of(&samples), report)
}

/// [`run_workload_async`] with latency capture and an executor-mode
/// switch: `injection_only = true` builds the runtime with work stealing
/// and LIFO slots disabled (every task through the shared injection
/// queue — the pre-work-stealing scheduler, kept as the experiment
/// control), `false` uses the full work-stealing scheduler.
///
/// Also returns the runtime's cumulative [`RuntimeMetrics`] so callers
/// can report scheduler behaviour (steals, parks, ...) next to the
/// latency distributions.
///
/// [`RuntimeMetrics`]: tokio::runtime::RuntimeMetrics
pub fn run_workload_async_latency<Q, F>(
    factory: F,
    config: &WorkloadConfig,
    injection_only: bool,
) -> (Summary, LatencyReport, tokio::runtime::RuntimeMetrics)
where
    Q: ConcurrentQueue<u64> + Send + Sync + 'static,
    F: Fn() -> Q,
{
    let rt = tokio::runtime::Builder::new_multi_thread()
        .worker_threads(config.threads)
        .injection_only(injection_only)
        .enable_all()
        .build()
        .expect("building the tokio runtime");
    let mut report = LatencyReport::new();
    let samples: Vec<f64> = (0..config.runs)
        .map(|_| {
            let queue = Arc::new(AsyncQueue::with_stats(factory()));
            let (secs, local) = run_once_async_latency(&queue, &rt, config);
            debug_assert_eq!(queue.live_waiters(), 0, "runs must not leak waiter slots");
            report.merge(&local);
            secs
        })
        .collect();
    let metrics = rt.metrics();
    (Summary::of(&samples), report, metrics)
}

/// [`run_workload_async_latency`] over the split-role
/// ([`run_once_async_split_latency`]) workload body. The factory builds a
/// fresh queue per run ([`AsyncQueue::close`] is terminal). Throughput
/// accounting for these runs uses [`WorkloadConfig::pipe_total_ops`].
pub fn run_workload_async_split_latency<Q, F>(
    factory: F,
    config: &WorkloadConfig,
    injection_only: bool,
) -> (Summary, LatencyReport, tokio::runtime::RuntimeMetrics)
where
    Q: ConcurrentQueue<u64> + Send + Sync + 'static,
    F: Fn() -> Q,
{
    let rt = tokio::runtime::Builder::new_multi_thread()
        .worker_threads(config.threads)
        .injection_only(injection_only)
        .enable_all()
        .build()
        .expect("building the tokio runtime");
    let mut report = LatencyReport::new();
    let samples: Vec<f64> = (0..config.runs)
        .map(|_| {
            let queue = Arc::new(AsyncQueue::with_stats(factory()));
            let (secs, local) = run_once_async_split_latency(&queue, &rt, config);
            debug_assert_eq!(queue.live_waiters(), 0, "runs must not leak waiter slots");
            report.merge(&local);
            secs
        })
        .collect();
    let metrics = rt.metrics();
    (Summary::of(&samples), report, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbq_baselines::MutexQueue;
    use nbq_core::CasQueue;

    fn tiny() -> WorkloadConfig {
        WorkloadConfig {
            threads: 2,
            iterations: 50,
            runs: 2,
            capacity: 256,
            burst: 5,
        }
    }

    #[test]
    fn run_once_completes_and_leaves_queue_empty() {
        let cfg = tiny();
        let q = CasQueue::<u64>::with_capacity(cfg.capacity);
        let secs = run_once(&q, &cfg);
        assert!(secs > 0.0);
        assert!(q.is_empty(), "balanced workload must drain the queue");
    }

    #[test]
    fn run_once_batched_completes_and_leaves_queue_empty() {
        let cfg = tiny();
        let q = CasQueue::<u64>::with_capacity(cfg.capacity);
        let secs = run_once_batched(&q, &cfg);
        assert!(secs > 0.0);
        assert!(q.is_empty(), "balanced workload must drain the queue");
    }

    #[test]
    fn run_once_batched_works_via_default_fallbacks() {
        // MutexQueue has no batch override; the trait defaults carry it.
        let cfg = tiny();
        let q = MutexQueue::<u64>::with_capacity(cfg.capacity);
        let secs = run_once_batched(&q, &cfg);
        assert!(secs > 0.0);
    }

    #[test]
    fn run_workload_summarizes_runs() {
        let cfg = tiny();
        let s = run_workload(|| MutexQueue::<u64>::with_capacity(cfg.capacity), &cfg);
        assert_eq!(s.n, 2);
        assert!(s.mean > 0.0);
        assert!(s.min <= s.mean && s.mean <= s.max);
    }

    #[test]
    fn run_once_blocking_completes_and_leaves_queue_empty() {
        let cfg = tiny();
        let q = BlockingQueue::new(CasQueue::<u64>::with_capacity(cfg.capacity));
        let secs = run_once_blocking(&q, &cfg);
        assert!(secs > 0.0);
        assert_eq!(q.inner().len(), 0, "balanced workload must drain");
    }

    #[test]
    fn run_once_async_completes_and_leaves_no_waiters() {
        let cfg = tiny();
        let rt = tokio::runtime::Builder::new_multi_thread()
            .worker_threads(cfg.threads)
            .enable_all()
            .build()
            .expect("building the tokio runtime");
        let q = Arc::new(AsyncQueue::new(CasQueue::<u64>::with_capacity(
            cfg.capacity,
        )));
        let secs = run_once_async(&q, &rt, &cfg);
        assert!(secs > 0.0);
        assert_eq!(q.is_empty(), Some(true), "balanced workload must drain");
        assert_eq!(q.live_waiters(), 0, "no leaked waiter slots");
    }

    #[test]
    fn run_workload_async_summarizes_runs() {
        let cfg = tiny();
        let s = run_workload_async(|| CasQueue::<u64>::with_capacity(cfg.capacity), &cfg);
        assert_eq!(s.n, 2);
        assert!(s.mean > 0.0);
    }

    #[test]
    fn async_workload_survives_a_tiny_capacity() {
        // Capacity barely above the deadlock bound: senders park on Full
        // constantly, exercising the waiter registry under load.
        let cfg = WorkloadConfig {
            threads: 4,
            iterations: 200,
            runs: 1,
            capacity: 32,
            burst: 5,
        };
        let s = run_workload_async(|| CasQueue::<u64>::with_capacity(cfg.capacity), &cfg);
        assert!(s.mean > 0.0);
    }

    #[test]
    fn latency_capture_counts_every_operation() {
        let cfg = tiny();
        let q = CasQueue::<u64>::with_capacity(cfg.capacity);
        let (secs, report) = run_once_latency(&q, &cfg);
        assert!(secs > 0.0);
        assert!(q.is_empty());
        let per_side = (cfg.threads * cfg.iterations * cfg.burst) as u64;
        assert_eq!(report.enqueue.count(), per_side);
        assert_eq!(report.dequeue.count(), per_side);
        assert_eq!(report.echo.count(), (cfg.threads * cfg.iterations) as u64);
        // An echo spans a whole burst, so its p50 can't undercut the
        // cheapest single op.
        assert!(report.echo.quantile_ns(0.5) >= report.enqueue.min_ns());
    }

    #[test]
    fn blocking_latency_capture_matches_op_counts() {
        let cfg = tiny();
        let (s, report) =
            run_workload_blocking_latency(|| CasQueue::<u64>::with_capacity(cfg.capacity), &cfg);
        assert_eq!(s.n, cfg.runs);
        let per_side = (cfg.runs * cfg.threads * cfg.iterations * cfg.burst) as u64;
        assert_eq!(report.enqueue.count(), per_side);
        assert_eq!(report.dequeue.count(), per_side);
    }

    #[test]
    fn async_latency_capture_reports_metrics_and_folds_counters() {
        let cfg = tiny();
        let rt = tokio::runtime::Builder::new_multi_thread()
            .worker_threads(cfg.threads)
            .enable_all()
            .build()
            .expect("building the tokio runtime");
        let q = Arc::new(AsyncQueue::with_stats(CasQueue::<u64>::with_capacity(
            cfg.capacity,
        )));
        let (secs, report) = run_once_async_latency(&q, &rt, &cfg);
        assert!(secs > 0.0);
        let per_side = (cfg.threads * cfg.iterations * cfg.burst) as u64;
        assert_eq!(report.enqueue.count(), per_side);
        assert_eq!(report.dequeue.count(), per_side);
        // The runtime's scheduler counters landed in the queue's stats.
        // Workers keep parking after block_on returns, so the folded
        // delta lower-bounds the live cumulative metrics.
        let snap = q.stats().expect("stats enabled").snapshot();
        let m = rt.metrics();
        assert!(snap.executor_parks <= m.parks);
        assert!(snap.executor_steals <= m.steals);
        assert!(snap.executor_lifo_hits <= m.lifo_hits);
        // Every spawned task enters through the injection queue, so the
        // folded counters cannot all be zero.
        assert!(snap.executor_injection_polls > 0);
    }

    #[test]
    fn async_latency_workload_runs_both_scheduler_modes() {
        let cfg = tiny();
        for injection_only in [false, true] {
            let (s, report, metrics) = run_workload_async_latency(
                || CasQueue::<u64>::with_capacity(cfg.capacity),
                &cfg,
                injection_only,
            );
            assert_eq!(s.n, cfg.runs);
            assert!(!report.echo.is_empty());
            assert_eq!(
                metrics.injection_only,
                injection_only || tokio::runtime::injection_only_build()
            );
            if metrics.injection_only {
                assert_eq!(metrics.steals, 0, "control mode must never steal");
            }
        }
    }

    #[test]
    fn run_once_pipe_completes_and_leaves_queue_empty() {
        let cfg = tiny();
        let q = CasQueue::<u64>::with_capacity(cfg.capacity);
        let secs = run_once_pipe(&q, &cfg);
        assert!(secs > 0.0);
        assert!(q.is_empty(), "consumers must drain every produced value");
    }

    #[test]
    fn run_once_pipe_on_the_raw_spsc_ring() {
        // 2 threads = exactly the 1p/1c arrangement the ring admits.
        let cfg = tiny();
        let q = nbq_core::SpscRing::<u64>::with_capacity(cfg.capacity);
        let secs = run_once_pipe(&q, &cfg);
        assert!(secs > 0.0);
        assert!(q.is_empty());
    }

    #[test]
    fn run_once_pipe_pinned_keeps_spsc_lanes_unpromoted() {
        let cfg = WorkloadConfig {
            threads: 4,
            iterations: 50,
            runs: 1,
            capacity: 256,
            burst: 5,
        };
        let q = nbq_core::ShardedQueue::with_config(
            nbq_core::ShardedConfig::with_lanes(2).spsc_fast_path(),
            |_| CasQueue::<u64>::with_capacity(cfg.capacity),
        );
        let secs = run_once_pipe_pinned(&q, &cfg);
        assert!(secs > 0.0);
        assert_eq!(q.len(), Some(0), "pairs must drain their lanes");
        for lane in 0..q.lanes() {
            assert_eq!(
                q.lane_promoted(lane),
                Some(false),
                "one pair per lane must stay on the wait-free ring"
            );
        }
    }

    #[test]
    fn run_once_fan_drains_on_both_raw_rings() {
        let cfg = tiny();
        // Fan-in: threads-1 producers feed the MPSC ring's FAA side.
        let q = nbq_core::MpscRing::<u64>::with_capacity(cfg.capacity);
        assert!(run_once_fan(&q, &cfg, cfg.threads - 1) > 0.0);
        assert!(q.is_empty(), "fan-in consumers must drain the MPSC ring");
        // Fan-out: one producer feeds the SPMC ring's FAA drain side.
        let q = nbq_core::SpmcRing::<u64>::with_capacity(cfg.capacity);
        assert!(run_once_fan(&q, &cfg, 1) > 0.0);
        assert!(q.is_empty(), "fan-out consumers must drain the SPMC ring");
    }

    #[test]
    fn run_once_fan_in_pinned_keeps_mpsc_lanes_unpromoted() {
        let cfg = WorkloadConfig {
            threads: 5,
            iterations: 50,
            runs: 1,
            capacity: 256,
            burst: 5,
        };
        let q = nbq_core::ShardedQueue::with_config(
            nbq_core::ShardedConfig::with_lanes(2).mpsc_fast_path(),
            |_| CasQueue::<u64>::with_capacity(cfg.capacity),
        );
        assert!(run_once_fan_in_pinned(&q, &cfg) > 0.0);
        assert_eq!(q.len(), Some(0), "consumers must drain their lanes");
        for lane in 0..q.lanes() {
            assert_eq!(
                q.lane_promoted(lane),
                Some(false),
                "one consumer per lane must stay on the wait-free MPSC ring"
            );
            assert_eq!(q.lane_kind(lane), nbq_util::QueueKind::mpsc_wait_free());
        }
    }

    #[test]
    fn run_once_fan_out_pinned_keeps_spmc_lanes_unpromoted() {
        let cfg = WorkloadConfig {
            threads: 5,
            iterations: 50,
            runs: 1,
            capacity: 256,
            burst: 5,
        };
        let q = nbq_core::ShardedQueue::with_config(
            nbq_core::ShardedConfig::with_lanes(2).spmc_fast_path(),
            |_| CasQueue::<u64>::with_capacity(cfg.capacity),
        );
        assert!(run_once_fan_out_pinned(&q, &cfg) > 0.0);
        assert_eq!(q.len(), Some(0), "consumers must drain their lanes");
        for lane in 0..q.lanes() {
            assert_eq!(
                q.lane_promoted(lane),
                Some(false),
                "one producer per lane must stay on the wait-free SPMC ring"
            );
            assert_eq!(q.lane_kind(lane), nbq_util::QueueKind::spmc_wait_free());
        }
    }

    #[test]
    fn fan_total_ops_counts_the_producer_side_twice() {
        let cfg = WorkloadConfig {
            threads: 4,
            iterations: 10,
            runs: 1,
            capacity: 64,
            burst: 5,
        };
        assert_eq!(cfg.fan_total_ops(3), 3 * 10 * 5 * 2);
        assert_eq!(cfg.fan_total_ops(1), 10 * 5 * 2);
    }

    #[test]
    fn run_workload_pipe_summarizes_runs() {
        let cfg = tiny();
        let s = run_workload_pipe(|| MutexQueue::<u64>::with_capacity(cfg.capacity), &cfg);
        assert_eq!(s.n, 2);
        assert!(s.mean > 0.0);
    }

    #[test]
    fn pipe_total_ops_counts_producer_side_twice() {
        let cfg = WorkloadConfig {
            threads: 4,
            iterations: 10,
            runs: 1,
            capacity: 64,
            burst: 5,
        };
        // 2 producers x 10 x 5 values, each enqueued and dequeued once.
        assert_eq!(cfg.pipe_total_ops(), 2 * 10 * 5 * 2);
        assert_eq!(cfg.pipe_producers(), 2);
    }

    #[test]
    fn total_ops_counts_both_directions() {
        let cfg = WorkloadConfig {
            threads: 3,
            iterations: 10,
            runs: 1,
            capacity: 64,
            burst: 5,
        };
        assert_eq!(cfg.total_ops(), 3 * 10 * 5 * 2);
    }

    #[test]
    fn paper_config_matches_the_publication() {
        let cfg = WorkloadConfig::paper(8, 1024);
        assert_eq!(cfg.iterations, 100_000);
        assert_eq!(cfg.runs, 50);
        assert_eq!(cfg.burst, 5);
        assert_eq!(cfg.threads, 8);
    }
}
