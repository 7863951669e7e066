//! The paper's §6 synthetic benchmark workload, and the one runner every
//! experiment drives it through.
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
//! A [`Workload`] is a [`Shape`] (who enqueues and dequeues what), a
//! [`Frontend`] (how a full or empty queue is waited out) and whether each
//! operation is timed. [`Workload::run`] builds `runs` fresh queues from a
//! factory, drives each one and returns a [`RunReport`]. [`run_once`] is
//! the paper's loop on one given queue.
//!
//! Defaults are scaled down for a CI-sized machine; `--paper` on the
//! `repro` binary restores the 100 000 × 50 parameters.

mod capture;
mod tasks;

pub use capture::LatencyReport;

use capture::{Clock, Op};
use nbq_async::AsyncQueue;
use nbq_util::stats::Summary;
use nbq_util::{BlockingHandle, BlockingQueue, ConcurrentQueue, Full, QueueHandle};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;
use tokio::runtime::{Runtime, RuntimeMetrics};

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

    /// Total operations across all threads in one run of the paper's loop.
    pub fn total_ops(&self) -> u64 {
        (self.threads * self.iterations * self.burst * 2) as u64
    }
}

/// Who enqueues and dequeues what.
///
/// `Mixed` and `Batched` are the paper's balanced loop: every thread
/// alternates `burst` enqueues with `burst` dequeues, `iterations` times.
/// The split shapes give each thread one role instead: a producer enqueues
/// a quota of `iterations × burst` values; a consumer dequeues until its
/// countdown of outstanding values reaches zero (it decrements only after
/// a successful pop, so it never exits while a value is still reachable).
/// The pinned shapes pin each thread's handle to one lane of a sharded
/// queue ([`Driven::lanes`]); over any other queue they see a single lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// The paper's loop, one queue call per operation.
    Mixed,
    /// The paper's loop with each burst moved by one `enqueue_batch` and
    /// one `dequeue_batch` call. Queues without a native batch path fall
    /// through to the trait's element-wise defaults, so the comparison
    /// isolates exactly the amortization the batch API buys.
    Batched,
    /// Threads `0..producers` produce; the rest drain one shared
    /// countdown. `producers = threads - 1` is fan-in, `1` is fan-out and
    /// [`Shape::pipe`] is the half/half split.
    Fan {
        /// Producer threads.
        producers: usize,
    },
    /// `threads / 2` producer/consumer pairs (even thread counts only);
    /// pair `p` pins lane `p % lanes` and its consumer takes exactly the
    /// pair's quota. One pair per lane keeps an SPSC fast-path lane on its
    /// wait-free ring for the whole run.
    Pairs,
    /// One consumer per lane (consumer `c` pins lane `c`) plus
    /// `threads - lanes` producers spread round-robin; each consumer
    /// drains its own lane's countdown. The arrangement an MPSC fast-path
    /// lane serves wait-free on its consumer side.
    FanIn,
    /// One producer per lane plus `threads - lanes` consumers spread
    /// round-robin, sharing their lane's countdown. The arrangement an
    /// SPMC fast-path lane serves wait-free on its producer side.
    FanOut,
}

impl Shape {
    /// The pipe: half the threads (rounded down, at least one) produce.
    /// At 2 threads it is exactly the 1-producer/1-consumer pipeline.
    pub fn pipe(threads: usize) -> Shape {
        Shape::Fan {
            producers: (threads / 2).max(1),
        }
    }
}

/// How a full enqueue or an empty dequeue is waited out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frontend {
    /// Spin on the raw queue with `yield_now`. Runs every shape.
    Raw,
    /// Park on a [`BlockingQueue`]'s condvars. Runs [`Shape::Mixed`].
    Blocking,
    /// One tokio task per thread on a multi-thread runtime built once per
    /// [`Workload::run`] call (startup is excluded from every sample); a
    /// full send or empty recv parks the task in the [`AsyncQueue`]'s
    /// waiter registry. Runs [`Shape::Mixed`] and [`Shape::Fan`].
    Async {
        /// Build the runtime with work stealing and LIFO slots disabled:
        /// every task goes through the shared injection queue, the
        /// pre-work-stealing scheduler kept as the experiment control.
        injection_only: bool,
    },
}

/// One workload: a shape, driven through a frontend, timed or not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Who enqueues and dequeues what.
    pub shape: Shape,
    /// How full and empty are waited out.
    pub frontend: Frontend,
    /// Time every operation into a [`LatencyReport`]. The two extra
    /// `Instant::now()` calls per operation cost a few tens of
    /// nanoseconds; every timed run pays them, so timed throughputs stay
    /// comparable across frontends (and sit slightly below untimed ones).
    pub latency: bool,
}

impl Workload {
    /// `shape` on the raw queue, untimed.
    pub const fn raw(shape: Shape) -> Self {
        Self {
            shape,
            frontend: Frontend::Raw,
            latency: false,
        }
    }

    /// This workload through `frontend`.
    pub const fn via(self, frontend: Frontend) -> Self {
        Self { frontend, ..self }
    }

    /// This workload with per-operation latency capture.
    pub const fn timed(self) -> Self {
        Self {
            latency: true,
            ..self
        }
    }
}

/// What [`Workload::run`] measured.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Seconds per run: the mean per-thread time, or for the async fan
    /// the run's wall clock (one clock spans both roles; per-role times
    /// would double-count the overlap).
    pub summary: Summary,
    /// Queue operations the threads (or tasks) completed in the last run,
    /// as they counted them: every value is enqueued once and dequeued
    /// once, so a run that returned without doing its work reads short.
    pub ops: u64,
    /// All runs' captures merged, when the workload is timed.
    pub latency: Option<LatencyReport>,
    /// The async frontend's executor counters, one delta per run: each
    /// holds the events since the previous run's end (the first, since
    /// the runtime was built), so together they sum to the runtime's
    /// cumulative counters at the last run's end. Empty for the other
    /// frontends.
    pub executor: Vec<RuntimeMetrics>,
    /// The async channel's waiter-registry traffic in the last run.
    pub counters: Option<nbq_async::AsyncStatsSnapshot>,
}

/// A queue the runner can drive. Sharded queues expose their lanes so the
/// pinned shapes can pin each thread's handle to one; every other queue
/// is a single lane, over which a pinned shape runs unpinned.
pub trait Driven: ConcurrentQueue<u64> + 'static {
    /// Lanes a pinned shape spreads its threads over.
    fn lanes(&self) -> usize {
        1
    }

    /// A handle that only ever touches `lane`.
    fn pinned(&self, lane: usize) -> Self::Handle<'_> {
        debug_assert_eq!(lane, 0, "a single-lane queue has only lane 0");
        self.handle()
    }

    /// Instruction/contention counters, if this queue was built with them.
    fn op_stats(&self) -> Option<&nbq_core::OpStats> {
        None
    }
}

impl Workload {
    /// Runs `config.runs` runs, each on a fresh queue from `factory`, and
    /// summarizes them.
    ///
    /// # Panics
    ///
    /// On a shape the frontend does not run, on a thread count the shape
    /// cannot split, and on a balanced run whose capacity could deadlock.
    pub fn run<Q, F>(&self, factory: F, config: &WorkloadConfig) -> RunReport
    where
        Q: Driven,
        F: Fn() -> Q,
    {
        if self.latency {
            self.run_with::<LatencyReport, Q, F>(factory, config)
        } else {
            self.run_with::<(), Q, F>(factory, config)
        }
    }

    fn run_with<C: Clock, Q: Driven, F: Fn() -> Q>(
        &self,
        factory: F,
        cfg: &WorkloadConfig,
    ) -> RunReport {
        let rt = match self.frontend {
            Frontend::Async { injection_only } => Some(tasks::runtime(cfg, injection_only)),
            _ => None,
        };
        self.run_on::<C, Q, F>(rt.as_ref(), factory, cfg)
    }

    /// The runs of [`Workload::run`], the async ones on `rt`.
    fn run_on<C: Clock, Q: Driven, F: Fn() -> Q>(
        &self,
        rt: Option<&Runtime>,
        factory: F,
        cfg: &WorkloadConfig,
    ) -> RunReport {
        let (mut clock, mut ops, mut counters) = (C::default(), 0, None);
        let (mut executor, mut seen) = (Vec::new(), RuntimeMetrics::default());
        let samples: Vec<f64> = (0..cfg.runs)
            .map(|_| {
                let queue = factory();
                let (secs, run_ops, run_clock) = match rt {
                    Some(rt) => {
                        let queue = Arc::new(AsyncQueue::with_stats(queue));
                        let run = self.on_async(&queue, rt, cfg);
                        counters = queue.stats().map(|s| s.snapshot());
                        let now = rt.metrics();
                        executor.push(since(&now, &seen));
                        seen = now;
                        run
                    }
                    None if self.frontend == Frontend::Blocking => {
                        self.on_blocking(&BlockingQueue::new(queue), cfg)
                    }
                    None => self.on_raw(&queue, cfg),
                };
                clock.absorb(run_clock);
                ops = run_ops;
                secs
            })
            .collect();
        RunReport {
            summary: Summary::of(&samples),
            ops,
            latency: clock.report(),
            executor,
            counters,
        }
    }

    /// One run on the raw queue: (seconds, ops, capture).
    fn on_raw<C: Clock, Q: Driven>(&self, queue: &Q, cfg: &WorkloadConfig) -> (f64, u64, C) {
        let split = match self.shape {
            Shape::Mixed => return balanced::<C, Q, false>(queue, cfg),
            Shape::Batched => return balanced::<C, Q, true>(queue, cfg),
            shape => Split::plan(shape, cfg, queue.lanes()),
        };
        on_threads(cfg.threads, |t, barrier| {
            let (lane, role) = split.roles[t];
            let handle = lane.map_or_else(|| queue.handle(), |lane| queue.pinned(lane));
            split.drive(handle, role, barrier)
        })
    }

    /// One run through the condvar frontend: (seconds, ops, capture).
    fn on_blocking<C: Clock, Q: ConcurrentQueue<u64>>(
        &self,
        queue: &BlockingQueue<u64, Q>,
        cfg: &WorkloadConfig,
    ) -> (f64, u64, C) {
        let mixed = self.shape == Shape::Mixed;
        assert!(mixed, "the blocking frontend runs the Mixed shape");
        assert_live(queue.inner().capacity(), cfg);
        on_threads(cfg.threads, |t, barrier| {
            paper_loop::<C, _, false>(Park(queue.handle()), t, cfg, barrier)
        })
    }
}

/// The counter events of `now` that `earlier` had not yet seen.
fn since(now: &RuntimeMetrics, earlier: &RuntimeMetrics) -> RuntimeMetrics {
    RuntimeMetrics {
        steals: now.steals - earlier.steals,
        steal_batches: now.steal_batches - earlier.steal_batches,
        lifo_hits: now.lifo_hits - earlier.lifo_hits,
        injection_polls: now.injection_polls - earlier.injection_polls,
        overflow_spills: now.overflow_spills - earlier.overflow_spills,
        parks: now.parks - earlier.parks,
        io_parks: now.io_parks - earlier.io_parks,
        spin_hits: now.spin_hits - earlier.spin_hits,
        ..*now
    }
}

/// Executes one run of the paper's loop against `queue`; returns the mean
/// per-thread wall time in seconds (the paper's per-run metric).
pub fn run_once<Q: ConcurrentQueue<u64>>(queue: &Q, config: &WorkloadConfig) -> f64 {
    balanced::<(), Q, false>(queue, config).0
}

/// Liveness: if every thread can be mid-enqueue-burst with the queue full
/// (capacity <= threads x (burst-1)), nobody is in a dequeue phase and the
/// balanced loop deadlocks. The paper sizes its array to avoid this; so do
/// we, loudly.
fn assert_live(capacity: Option<usize>, cfg: &WorkloadConfig) {
    if let Some(cap) = capacity {
        assert!(
            cap > cfg.threads * (cfg.burst - 1),
            "workload can deadlock: capacity {cap} <= threads {} x (burst {} - 1)",
            cfg.threads,
            cfg.burst
        );
    }
}

/// The thread scaffold every thread-based run shares: spawns `threads`
/// scoped threads running `body(t, barrier)` — which sets up, waits on the
/// barrier (the paper's "initialization phase") and returns its seconds,
/// the operations it completed and its capture — joins them, and returns
/// the mean seconds, the summed operations and the merged capture.
fn on_threads<C: Clock>(
    threads: usize,
    body: impl Fn(usize, &Barrier) -> (f64, u64, C) + Sync,
) -> (f64, u64, C) {
    let barrier = Barrier::new(threads);
    let (mut secs, mut ops) = (0.0, 0);
    let mut clock = C::default();
    std::thread::scope(|s| {
        let joins: Vec<_> = (0..threads)
            .map(|t| {
                let (body, barrier) = (&body, &barrier);
                s.spawn(move || body(t, barrier))
            })
            .collect();
        for j in joins {
            let (thread_secs, thread_ops, thread_clock) =
                j.join().expect("workload thread panicked");
            secs += thread_secs;
            ops += thread_ops;
            clock.absorb(thread_clock);
        }
    });
    (secs / threads as f64, ops, clock)
}

/// The balanced shapes on the raw queue.
fn balanced<C: Clock, Q: ConcurrentQueue<u64>, const BATCHED: bool>(
    queue: &Q,
    cfg: &WorkloadConfig,
) -> (f64, u64, C) {
    assert_live(queue.capacity(), cfg);
    on_threads(cfg.threads, |t, barrier| {
        paper_loop::<C, _, BATCHED>(queue.handle(), t, cfg, barrier)
    })
}

/// The condvar frontend as a handle whose operations park instead of
/// failing: `enqueue` never reports Full and `dequeue` never comes back
/// empty, so the raw loops' retry branches are never taken.
struct Park<'q, Q: ConcurrentQueue<u64>>(BlockingHandle<'q, u64, Q>);

impl<Q: ConcurrentQueue<u64>> QueueHandle<u64> for Park<'_, Q> {
    fn enqueue(&mut self, value: u64) -> Result<(), Full<u64>> {
        self.0.send(value).expect("queue closed mid-run");
        Ok(())
    }

    fn dequeue(&mut self) -> Option<u64> {
        Some(self.0.recv().expect("queue closed mid-run"))
    }
}

/// Thread `t` of the paper's loop, one call per operation or, `BATCHED`,
/// one `enqueue_batch` and one `dequeue_batch` call per burst (timed per
/// call). A full enqueue or empty dequeue retries after `yield_now`:
/// bounded queues may transiently report Full under oversubscription, and
/// another thread may have taken "our" items, but global counts match.
/// Returns the seconds, the values this thread moved and its capture.
fn paper_loop<C: Clock, H: QueueHandle<u64>, const BATCHED: bool>(
    mut handle: H,
    t: usize,
    cfg: &WorkloadConfig,
    barrier: &Barrier,
) -> (f64, u64, C) {
    let mut clock = C::default();
    let mut ops: u64 = 0;
    let mut seq: u64 = 0;
    let mut next = || {
        seq += 1;
        ((t as u64) << 40) | (seq - 1)
    };
    let mut out: Vec<u64> = Vec::with_capacity(cfg.burst);
    barrier.wait();
    let start = Instant::now();
    for _ in 0..cfg.iterations {
        let iteration = C::mark();
        if BATCHED {
            let mut batch: Vec<u64> = (0..cfg.burst).map(|_| next()).collect();
            let op = C::mark();
            // Retry the leftover suffix only.
            loop {
                match handle.enqueue_batch(batch.into_iter()) {
                    Ok(enqueued) => {
                        ops += enqueued as u64;
                        break;
                    }
                    Err(e) => {
                        ops += e.enqueued as u64;
                        batch = e.remaining;
                        std::thread::yield_now();
                    }
                }
            }
            clock.record(Op::Enqueue, op);
            out.clear();
            let op = C::mark();
            while out.len() < cfg.burst {
                let want = cfg.burst - out.len();
                let dequeued = handle.dequeue_batch(&mut out, want);
                ops += dequeued as u64;
                if dequeued == 0 {
                    std::thread::yield_now();
                }
            }
            clock.record(Op::Dequeue, op);
        } else {
            for _ in 0..cfg.burst {
                let value = next();
                let op = C::mark();
                while handle.enqueue(value).is_err() {
                    std::thread::yield_now();
                }
                ops += 1;
                clock.record(Op::Enqueue, op);
            }
            for _ in 0..cfg.burst {
                let op = C::mark();
                while handle.dequeue().is_none() {
                    std::thread::yield_now();
                }
                ops += 1;
                clock.record(Op::Dequeue, op);
            }
        }
        clock.record(Op::Echo, iteration);
    }
    (start.elapsed().as_secs_f64(), ops, clock)
}

/// One thread's part in a split shape.
#[derive(Debug, Clone, Copy)]
enum Role {
    /// Enqueue the quota as `id << 40 | seq`.
    Produce(u64),
    /// Dequeue exactly the quota.
    Take,
    /// Dequeue until countdown `i` reaches zero.
    Drain(usize),
}

/// A split shape laid out over a queue's lanes.
struct Split {
    /// Values each producer enqueues.
    per: u64,
    /// The countdowns `Role::Drain` indexes.
    counts: Vec<AtomicU64>,
    /// Each thread's pinned lane (`None`: an unpinned handle) and role.
    roles: Vec<(Option<usize>, Role)>,
}

impl Split {
    fn plan(shape: Shape, cfg: &WorkloadConfig, lanes: usize) -> Split {
        let threads = cfg.threads;
        let pairs = threads / 2;
        let wide = threads.saturating_sub(lanes);
        match shape {
            Shape::Fan { producers } => assert!(
                producers >= 1 && threads > producers,
                "a fan needs at least one thread on each side"
            ),
            Shape::Pairs => assert!(
                threads >= 2 && threads % 2 == 0,
                "the pinned pipe pairs each producer with one consumer"
            ),
            _ => assert!(
                threads >= 2 * lanes,
                "pinned {shape:?} needs one single-side endpoint per lane plus >= one \
                 endpoint per lane on the other side ({threads} threads < 2 x {lanes} lanes)"
            ),
        }
        let roles: Vec<_> = (0..threads)
            .map(|t| match shape {
                Shape::Fan { producers } if t < producers => (None, Role::Produce(t as u64)),
                Shape::Fan { .. } => (None, Role::Drain(0)),
                Shape::Pairs if t < pairs => (Some(t % lanes), Role::Produce(t as u64)),
                Shape::Pairs => (Some(t % pairs % lanes), Role::Take),
                Shape::FanIn if t < wide => (Some(t % lanes), Role::Produce(t as u64)),
                Shape::FanIn => (Some(t - wide), Role::Drain(t - wide)),
                Shape::FanOut if t < lanes => (Some(t), Role::Produce(t as u64)),
                Shape::FanOut => (Some((t - lanes) % lanes), Role::Drain((t - lanes) % lanes)),
                Shape::Mixed | Shape::Batched => unreachable!("{shape:?} is not a split shape"),
            })
            .collect();
        // Countdown `i` holds the quotas of the producers feeding lane `i`
        // (an unpinned fan has the one countdown).
        let per = (cfg.iterations * cfg.burst) as u64;
        let counts = (0..lanes.max(1))
            .map(|i| {
                let feeds = |(lane, role): &&(Option<usize>, Role)| {
                    matches!(role, Role::Produce(_)) && lane.unwrap_or(0) == i
                };
                AtomicU64::new(roles.iter().filter(feeds).count() as u64 * per)
            })
            .collect();
        Split { per, counts, roles }
    }

    /// One thread's part: returns the seconds, the values it moved and
    /// its capture.
    fn drive<C: Clock, H: QueueHandle<u64>>(
        &self,
        mut handle: H,
        role: Role,
        barrier: &Barrier,
    ) -> (f64, u64, C) {
        let mut clock = C::default();
        let mut ops: u64 = 0;
        barrier.wait();
        let start = Instant::now();
        match role {
            Role::Produce(id) => {
                for seq in 0..self.per {
                    let value = (id << 40) | seq;
                    let op = C::mark();
                    while handle.enqueue(value).is_err() {
                        std::thread::yield_now();
                    }
                    ops += 1;
                    clock.record(Op::Enqueue, op);
                }
            }
            Role::Take => {
                for _ in 0..self.per {
                    let op = C::mark();
                    while handle.dequeue().is_none() {
                        std::thread::yield_now();
                    }
                    ops += 1;
                    clock.record(Op::Dequeue, op);
                }
            }
            Role::Drain(i) => {
                let remaining = &self.counts[i];
                while remaining.load(Ordering::Acquire) > 0 {
                    let op = C::mark();
                    if handle.dequeue().is_some() {
                        remaining.fetch_sub(1, Ordering::AcqRel);
                        ops += 1;
                        clock.record(Op::Dequeue, op);
                    } else {
                        std::thread::yield_now();
                    }
                }
            }
        }
        (start.elapsed().as_secs_f64(), ops, clock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbq_baselines::MutexQueue;
    use nbq_core::{CasQueue, MpscRing, ShardedConfig, ShardedQueue, SpmcRing, SpscRing};
    use nbq_util::QueueKind;

    fn tiny() -> WorkloadConfig {
        WorkloadConfig {
            threads: 2,
            iterations: 50,
            runs: 2,
            capacity: 256,
            burst: 5,
        }
    }

    fn threads(threads: usize) -> WorkloadConfig {
        WorkloadConfig {
            threads,
            runs: 1,
            ..tiny()
        }
    }

    const PAPER: Workload = Workload::raw(Shape::Mixed);

    #[test]
    fn run_once_completes_and_leaves_queue_empty() {
        let cfg = tiny();
        let q = CasQueue::<u64>::with_capacity(cfg.capacity);
        let secs = run_once(&q, &cfg);
        assert!(secs > 0.0);
        assert!(q.is_empty(), "balanced workload must drain the queue");
    }

    #[test]
    fn batched_shape_completes_and_leaves_queue_empty() {
        let cfg = tiny();
        let q = CasQueue::<u64>::with_capacity(cfg.capacity);
        let (secs, ..) = Workload::raw(Shape::Batched).on_raw::<(), _>(&q, &cfg);
        assert!(secs > 0.0);
        assert!(q.is_empty(), "balanced workload must drain the queue");
    }

    #[test]
    fn batched_shape_works_via_default_fallbacks() {
        // MutexQueue has no batch override; the trait defaults carry it.
        let cfg = tiny();
        let batched = Workload::raw(Shape::Batched);
        let r = batched.run(|| MutexQueue::<u64>::with_capacity(cfg.capacity), &cfg);
        assert!(r.summary.mean > 0.0);
    }

    #[test]
    fn runner_summarizes_runs() {
        let cfg = tiny();
        let r = PAPER.run(|| MutexQueue::<u64>::with_capacity(cfg.capacity), &cfg);
        let s = r.summary;
        assert_eq!(s.n, 2);
        assert!(s.mean > 0.0);
        assert!(s.min <= s.mean && s.mean <= s.max);
        assert!(r.latency.is_none() && r.executor.is_empty() && r.counters.is_none());
    }

    #[test]
    fn blocking_frontend_completes_and_leaves_queue_empty() {
        let cfg = tiny();
        let q = BlockingQueue::new(CasQueue::<u64>::with_capacity(cfg.capacity));
        let (secs, ..) = PAPER.via(Frontend::Blocking).on_blocking::<(), _>(&q, &cfg);
        assert!(secs > 0.0);
        assert_eq!(q.inner().len(), 0, "balanced workload must drain");
    }

    #[test]
    fn async_frontend_completes_and_leaves_no_waiters() {
        let cfg = tiny();
        let rt = tasks::runtime(&cfg, false);
        let q = Arc::new(AsyncQueue::new(CasQueue::<u64>::with_capacity(
            cfg.capacity,
        )));
        let asynchronous = PAPER.via(Frontend::Async {
            injection_only: false,
        });
        let (secs, ..) = asynchronous.on_async::<(), _>(&q, &rt, &cfg);
        assert!(secs > 0.0);
        assert_eq!(q.is_empty(), Some(true), "balanced workload must drain");
        assert_eq!(q.live_waiters(), 0, "no leaked waiter slots");
    }

    #[test]
    fn async_runner_summarizes_runs() {
        let cfg = tiny();
        let asynchronous = PAPER.via(Frontend::Async {
            injection_only: false,
        });
        let r = asynchronous.run(|| CasQueue::<u64>::with_capacity(cfg.capacity), &cfg);
        assert_eq!(r.summary.n, 2);
        assert!(r.summary.mean > 0.0);
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
        let asynchronous = PAPER.via(Frontend::Async {
            injection_only: false,
        });
        let r = asynchronous.run(|| CasQueue::<u64>::with_capacity(cfg.capacity), &cfg);
        assert!(r.summary.mean > 0.0);
    }

    #[test]
    fn latency_capture_counts_every_operation() {
        let cfg = tiny();
        let q = CasQueue::<u64>::with_capacity(cfg.capacity);
        let (secs, _, report) = PAPER.on_raw::<LatencyReport, _>(&q, &cfg);
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
        let blocking = PAPER.via(Frontend::Blocking).timed();
        let r = blocking.run(|| CasQueue::<u64>::with_capacity(cfg.capacity), &cfg);
        assert_eq!(r.summary.n, cfg.runs);
        let report = r.latency.expect("timed run");
        let per_side = (cfg.runs * cfg.threads * cfg.iterations * cfg.burst) as u64;
        assert_eq!(report.enqueue.count(), per_side);
        assert_eq!(report.dequeue.count(), per_side);
    }

    #[test]
    fn async_latency_run_reports_metrics_and_scheduler_counters() {
        let cfg = tiny();
        let timed = PAPER
            .via(Frontend::Async {
                injection_only: false,
            })
            .timed();
        let r = timed.run(|| CasQueue::<u64>::with_capacity(cfg.capacity), &cfg);
        assert!(r.summary.mean > 0.0);
        let report = r.latency.expect("timed run");
        let per_side = (cfg.runs * cfg.threads * cfg.iterations * cfg.burst) as u64;
        assert_eq!(report.enqueue.count(), per_side);
        assert_eq!(report.dequeue.count(), per_side);
        assert!(r.counters.is_some(), "the channel counts its waker traffic");
        assert_eq!(r.executor.len(), cfg.runs, "one counter delta per run");
        for m in &r.executor {
            // Every task is spawned from outside the pool and so is
            // popped off the injection queue once in its run.
            assert!(m.injection_polls >= cfg.threads as u64);
            // Each steal batch moves at least one task.
            assert!(m.steals >= m.steal_batches);
        }
    }

    #[test]
    fn async_runs_report_executor_deltas_that_sum_to_the_runtime() {
        let cfg = WorkloadConfig {
            runs: 3,
            ..threads(2)
        };
        let rt = tasks::runtime(&cfg, false);
        let pipe = Workload::raw(Shape::pipe(2)).via(Frontend::Async {
            injection_only: false,
        });
        let r = pipe.run_on::<(), _, _>(Some(&rt), || CasQueue::<u64>::with_capacity(8), &cfg);
        assert_eq!(r.executor.len(), 3, "one delta per run");
        let total = rt.metrics();
        let sum = |count: fn(&RuntimeMetrics) -> u64| r.executor.iter().map(count).sum::<u64>();
        // The tasks are done, so no more of these can happen...
        assert_eq!(sum(|m| m.steals), total.steals);
        assert_eq!(sum(|m| m.steal_batches), total.steal_batches);
        assert_eq!(sum(|m| m.lifo_hits), total.lifo_hits);
        assert_eq!(sum(|m| m.injection_polls), total.injection_polls);
        assert_eq!(sum(|m| m.overflow_spills), total.overflow_spills);
        // ...but the idle workers may park (and spin) again since.
        assert!(sum(|m| m.parks) <= total.parks);
        assert!(sum(|m| m.io_parks) <= total.io_parks);
        assert!(sum(|m| m.spin_hits) <= total.spin_hits);
        for m in &r.executor {
            assert!(m.injection_polls >= 2, "each run spawns its 2 tasks");
        }
    }

    #[test]
    fn async_latency_workload_runs_both_scheduler_modes() {
        let cfg = tiny();
        for injection_only in [false, true] {
            let timed = PAPER.via(Frontend::Async { injection_only }).timed();
            let r = timed.run(|| CasQueue::<u64>::with_capacity(cfg.capacity), &cfg);
            assert_eq!(r.summary.n, cfg.runs);
            assert!(!r.latency.expect("timed run").echo.is_empty());
            for metrics in &r.executor {
                assert_eq!(metrics.injection_only, injection_only);
                if injection_only {
                    assert_eq!(metrics.steals, 0, "control mode must never steal");
                }
            }
        }
    }

    #[test]
    fn async_fan_times_every_transit() {
        let cfg = threads(4);
        let pipe = Workload::raw(Shape::pipe(4))
            .via(Frontend::Async {
                injection_only: false,
            })
            .timed();
        let r = pipe.run(|| CasQueue::<u64>::with_capacity(10), &cfg);
        let report = r.latency.expect("timed run");
        let values = (2 * cfg.iterations * cfg.burst) as u64;
        assert_eq!(report.enqueue.count(), values);
        assert_eq!(report.dequeue.count(), values);
        assert_eq!(report.echo.count(), values, "one transit per value");
    }

    #[test]
    fn pipe_shape_completes_and_leaves_queue_empty() {
        let cfg = tiny();
        let q = CasQueue::<u64>::with_capacity(cfg.capacity);
        let (secs, ..) = Workload::raw(Shape::pipe(2)).on_raw::<(), _>(&q, &cfg);
        assert!(secs > 0.0);
        assert!(q.is_empty(), "consumers must drain every produced value");
    }

    #[test]
    fn pipe_shape_on_the_raw_spsc_ring() {
        // 2 threads = exactly the 1p/1c arrangement the ring admits.
        let cfg = tiny();
        let q = SpscRing::<u64>::with_capacity(cfg.capacity);
        let (secs, ..) = Workload::raw(Shape::pipe(2)).on_raw::<(), _>(&q, &cfg);
        assert!(secs > 0.0);
        assert!(q.is_empty());
    }

    #[test]
    fn pairs_shape_keeps_spsc_lanes_unpromoted() {
        let cfg = threads(4);
        let q = ShardedQueue::with_config(ShardedConfig::with_lanes(2).spsc_fast_path(), |_| {
            CasQueue::<u64>::with_capacity(cfg.capacity)
        });
        let (secs, ..) = Workload::raw(Shape::Pairs).on_raw::<(), _>(&q, &cfg);
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
    fn fan_shape_drains_on_both_raw_rings() {
        let cfg = tiny();
        // Fan-in: threads-1 producers feed the MPSC ring's FAA side.
        let q = MpscRing::<u64>::with_capacity(cfg.capacity);
        let fan_in = Workload::raw(Shape::Fan {
            producers: cfg.threads - 1,
        });
        assert!(fan_in.on_raw::<(), _>(&q, &cfg).0 > 0.0);
        assert!(q.is_empty(), "fan-in consumers must drain the MPSC ring");
        // Fan-out: one producer feeds the SPMC ring's FAA drain side.
        let q = SpmcRing::<u64>::with_capacity(cfg.capacity);
        let fan_out = Workload::raw(Shape::Fan { producers: 1 });
        assert!(fan_out.on_raw::<(), _>(&q, &cfg).0 > 0.0);
        assert!(q.is_empty(), "fan-out consumers must drain the SPMC ring");
    }

    #[test]
    fn fan_in_shape_keeps_mpsc_lanes_unpromoted() {
        let cfg = threads(5);
        let q = ShardedQueue::with_config(ShardedConfig::with_lanes(2).mpsc_fast_path(), |_| {
            CasQueue::<u64>::with_capacity(cfg.capacity)
        });
        assert!(Workload::raw(Shape::FanIn).on_raw::<(), _>(&q, &cfg).0 > 0.0);
        assert_eq!(q.len(), Some(0), "consumers must drain their lanes");
        for lane in 0..q.lanes() {
            assert_eq!(
                q.lane_promoted(lane),
                Some(false),
                "one consumer per lane must stay on the wait-free MPSC ring"
            );
            assert_eq!(q.lane_kind(lane), QueueKind::mpsc_wait_free());
        }
    }

    #[test]
    fn fan_out_shape_keeps_spmc_lanes_unpromoted() {
        let cfg = threads(5);
        let q = ShardedQueue::with_config(ShardedConfig::with_lanes(2).spmc_fast_path(), |_| {
            CasQueue::<u64>::with_capacity(cfg.capacity)
        });
        assert!(Workload::raw(Shape::FanOut).on_raw::<(), _>(&q, &cfg).0 > 0.0);
        assert_eq!(q.len(), Some(0), "consumers must drain their lanes");
        for lane in 0..q.lanes() {
            assert_eq!(
                q.lane_promoted(lane),
                Some(false),
                "one producer per lane must stay on the wait-free SPMC ring"
            );
            assert_eq!(q.lane_kind(lane), QueueKind::spmc_wait_free());
        }
    }

    #[test]
    fn pipe_runner_summarizes_runs() {
        let cfg = tiny();
        let pipe = Workload::raw(Shape::pipe(cfg.threads));
        let r = pipe.run(|| MutexQueue::<u64>::with_capacity(cfg.capacity), &cfg);
        assert_eq!(r.summary.n, 2);
        assert!(r.summary.mean > 0.0);
    }

    #[test]
    fn runner_reports_the_ops_of_every_shape() {
        // 4 threads x 10 iterations x 5 burst: a quota of 50 per producer,
        // and every produced value is enqueued once and dequeued once.
        let cfg = WorkloadConfig {
            threads: 4,
            iterations: 10,
            runs: 1,
            capacity: 64,
            burst: 5,
        };
        let cas = || CasQueue::<u64>::with_capacity(64);
        let sharded = || ShardedQueue::with_lanes(2, |_| CasQueue::<u64>::with_capacity(64));
        let ops = |shape| Workload::raw(shape).run(cas, &cfg).ops;
        let pinned = |shape| Workload::raw(shape).run(sharded, &cfg).ops;
        assert_eq!(ops(Shape::Mixed), cfg.total_ops());
        assert_eq!(ops(Shape::Mixed), 4 * 10 * 5 * 2);
        assert_eq!(ops(Shape::Batched), 4 * 10 * 5 * 2);
        assert_eq!(ops(Shape::pipe(4)), 2 * 10 * 5 * 2, "2 producers");
        assert_eq!(ops(Shape::Fan { producers: 3 }), 3 * 10 * 5 * 2);
        assert_eq!(ops(Shape::Fan { producers: 1 }), 10 * 5 * 2);
        assert_eq!(pinned(Shape::Pairs), 2 * 10 * 5 * 2, "2 pairs");
        assert_eq!(pinned(Shape::FanIn), 2 * 10 * 5 * 2, "threads - lanes");
        assert_eq!(pinned(Shape::FanOut), 2 * 10 * 5 * 2, "one per lane");
        // Over a single-lane queue the pinned fans are the plain fans.
        assert_eq!(ops(Shape::FanIn), 3 * 10 * 5 * 2);
        assert_eq!(ops(Shape::FanOut), 10 * 5 * 2);
        let blocking = PAPER.via(Frontend::Blocking);
        assert_eq!(blocking.run(cas, &cfg).ops, cfg.total_ops());
        for shape in [Shape::Mixed, Shape::pipe(4)] {
            let asynchronous = Workload::raw(shape).via(Frontend::Async {
                injection_only: false,
            });
            assert_eq!(asynchronous.run(cas, &cfg).ops, ops(shape));
        }
    }

    #[test]
    fn batched_shape_runs_on_sharded_queues() {
        let cfg = tiny();
        let batched = Workload::raw(Shape::Batched);
        for config in [
            ShardedConfig::with_lanes(2),
            ShardedConfig::with_lanes(2).mpsc_fast_path(),
        ] {
            let sharded = || ShardedQueue::with_config(config, |_| CasQueue::with_capacity(64));
            assert_eq!(batched.run(sharded, &cfg).ops, cfg.total_ops());
        }
    }

    #[test]
    #[should_panic(expected = "runs the Mixed shape")]
    fn blocking_frontend_rejects_split_shapes() {
        let cfg = tiny();
        let pipe = Workload::raw(Shape::pipe(2)).via(Frontend::Blocking);
        pipe.run(|| CasQueue::<u64>::with_capacity(cfg.capacity), &cfg);
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
