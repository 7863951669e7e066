//! Instrumented workload driver: runs a randomized mixed workload against
//! any [`ConcurrentQueue`] while recording a complete history for the
//! checkers.
//!
//! Values are made globally unique (`thread << 32 | seq`) so the
//! uniqueness-based checks in [`crate::checks`] apply. The op mix is
//! seeded and deterministic per thread (the interleaving of course is
//! not — that is the point).

use crate::history::{History, HistoryRecorder};
use nbq_util::rng::SplitMix64;
use nbq_util::{ConcurrentQueue, QueueHandle};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

/// Workload shape for [`record_run`].
#[derive(Debug, Clone, Copy)]
pub struct DriverConfig {
    /// Concurrent worker threads.
    pub threads: usize,
    /// Operations attempted per thread.
    pub ops_per_thread: usize,
    /// Probability (percent) that an op is an enqueue; the rest dequeue.
    pub enqueue_percent: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DriverConfig {
    fn default() -> Self {
        Self {
            threads: 4,
            ops_per_thread: 500,
            enqueue_percent: 55,
            seed: 0xA11CE,
        }
    }
}

/// Runs the workload and returns the recorded history.
pub fn record_run<Q: ConcurrentQueue<u64>>(queue: &Q, config: DriverConfig) -> History {
    let recorder = HistoryRecorder::new();
    let barrier = Barrier::new(config.threads);
    let live = AtomicUsize::new(config.threads);
    std::thread::scope(|s| {
        for t in 0..config.threads {
            let recorder = &recorder;
            let barrier = &barrier;
            let live = &live;
            s.spawn(move || {
                let mut log = recorder.log(t);
                let mut handle = queue.handle();
                let mut rng = SplitMix64::new(config.seed.wrapping_add(t as u64 * 0x9E37));
                let mut seq: u64 = 0;
                barrier.wait();
                for _ in 0..config.ops_per_thread {
                    if rng.chance(config.enqueue_percent, 100) {
                        let value = ((t as u64) << 32) | seq;
                        seq += 1;
                        let start = log.begin();
                        let ok = handle.enqueue(value).is_ok();
                        log.end_enqueue(start, value, ok);
                    } else {
                        let start = log.begin();
                        let got = handle.dequeue();
                        log.end_dequeue(start, got);
                    }
                }
                live.fetch_sub(1, Ordering::Relaxed);
            });
        }
    });
    recorder.into_history()
}

/// Runs a batched mixed workload and returns the recorded history.
///
/// Each logical step either enqueues a batch of `batch` fresh unique
/// values or drains up to `batch` values, through the [`QueueHandle`]
/// batch API. Every element of a batch is recorded as its own operation
/// sharing the batch's invocation window (the element's real
/// linearization point lies inside it, so the real-time checks stay
/// sound — they just see more overlap than actually occurred). Partially
/// accepted batches record the rejected elements as failed enqueues by
/// membership in the returned `remaining`, not by position, so the
/// recording stays exact for a frontend that accepts a non-prefix subset.
pub fn record_batch_run<Q: ConcurrentQueue<u64>>(
    queue: &Q,
    config: DriverConfig,
    batch: usize,
) -> History {
    assert!(batch > 0, "batch size must be at least 1");
    let recorder = HistoryRecorder::new();
    let barrier = Barrier::new(config.threads);
    std::thread::scope(|s| {
        for t in 0..config.threads {
            let recorder = &recorder;
            let barrier = &barrier;
            s.spawn(move || {
                let mut log = recorder.log(t);
                let mut handle = queue.handle();
                let mut rng = SplitMix64::new(config.seed.wrapping_add(t as u64 * 0x9E37));
                let mut seq: u64 = 0;
                let mut out = Vec::with_capacity(batch);
                barrier.wait();
                for _ in 0..config.ops_per_thread {
                    if rng.chance(config.enqueue_percent, 100) {
                        let values: Vec<u64> = (0..batch)
                            .map(|_| {
                                let v = ((t as u64) << 32) | seq;
                                seq += 1;
                                v
                            })
                            .collect();
                        let start = log.begin();
                        let rejected: HashSet<u64> =
                            match handle.enqueue_batch(values.clone().into_iter()) {
                                Ok(_) => HashSet::new(),
                                Err(e) => e.remaining.iter().copied().collect(),
                            };
                        for &v in &values {
                            log.end_enqueue(start, v, !rejected.contains(&v));
                        }
                    } else {
                        out.clear();
                        let start = log.begin();
                        let got = handle.dequeue_batch(&mut out, batch);
                        if got == 0 {
                            log.end_dequeue(start, None);
                        } else {
                            for &v in &out {
                                log.end_dequeue(start, Some(v));
                            }
                        }
                    }
                }
            });
        }
    });
    recorder.into_history()
}

/// Runs the paper's §6 iteration shape (bursts of 5 enqueues then 5
/// dequeues per thread) with recording, for history-checked versions of
/// the benchmark workload.
pub fn record_paper_workload<Q: ConcurrentQueue<u64>>(
    queue: &Q,
    threads: usize,
    iterations: usize,
) -> History {
    let recorder = HistoryRecorder::new();
    let barrier = Barrier::new(threads);
    std::thread::scope(|s| {
        for t in 0..threads {
            let recorder = &recorder;
            let barrier = &barrier;
            s.spawn(move || {
                let mut log = recorder.log(t);
                let mut handle = queue.handle();
                let mut seq: u64 = 0;
                barrier.wait();
                for _ in 0..iterations {
                    for _ in 0..5 {
                        let value = ((t as u64) << 32) | seq;
                        seq += 1;
                        loop {
                            let start = log.begin();
                            let ok = handle.enqueue(value).is_ok();
                            log.end_enqueue(start, value, ok);
                            if ok {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                    for _ in 0..5 {
                        loop {
                            let start = log.begin();
                            let got = handle.dequeue();
                            log.end_dequeue(start, got);
                            if got.is_some() {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                }
            });
        }
    });
    recorder.into_history()
}

/// Records a 1-producer/1-consumer pipe run: thread 0 enqueues `values`
/// unique values in order (retrying on `Full`), thread 1 dequeues until
/// it has collected them all. The strictest history shape in the crate —
/// [`crate::checks::check_spsc_fifo`] applies, so the consumer's stream
/// must be *exactly* the producer's.
///
/// Empty polls are not logged: the consumer may spin millions of times
/// on an empty queue, and `Dequeue(None)` ops carry no information for
/// the stream checks (the exhaustive search, which does model `None`,
/// has its own small targeted histories).
pub fn record_pipe_run<Q: ConcurrentQueue<u64>>(queue: &Q, values: usize) -> History {
    let recorder = HistoryRecorder::new();
    let barrier = Barrier::new(2);
    std::thread::scope(|s| {
        {
            let recorder = &recorder;
            let barrier = &barrier;
            s.spawn(move || {
                let mut log = recorder.log(0);
                let mut handle = queue.handle();
                barrier.wait();
                for seq in 0..values as u64 {
                    loop {
                        let start = log.begin();
                        let ok = handle.enqueue(seq).is_ok();
                        log.end_enqueue(start, seq, ok);
                        if ok {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            });
        }
        {
            let recorder = &recorder;
            let barrier = &barrier;
            s.spawn(move || {
                let mut log = recorder.log(1);
                let mut handle = queue.handle();
                barrier.wait();
                let mut collected = 0;
                while collected < values {
                    let start = log.begin();
                    match handle.dequeue() {
                        Some(v) => {
                            log.end_dequeue(start, Some(v));
                            collected += 1;
                        }
                        None => std::thread::yield_now(),
                    }
                }
            });
        }
    });
    recorder.into_history()
}

/// Records a split-role fan run: threads `0..producers` only enqueue,
/// threads `producers..producers + consumers` only dequeue, until the
/// consumers have jointly collected every value the producers pushed
/// (`producers * per_producer` values total, unique via
/// `thread << 32 | seq`).
///
/// With `producers > 1, consumers == 1` this is the history shape
/// [`crate::checks::check_mpsc_fan_in`] applies to; mirrored
/// (`producers == 1, consumers > 1`) it feeds
/// [`crate::checks::check_spmc_fan_out`]. Like [`record_pipe_run`],
/// empty polls are not logged — consumers may spin arbitrarily long and
/// `Dequeue(None)` carries no information for the stream checks.
pub fn record_fan_run<Q: ConcurrentQueue<u64>>(
    queue: &Q,
    producers: usize,
    consumers: usize,
    per_producer: usize,
) -> History {
    assert!(producers > 0 && consumers > 0, "need both roles");
    let recorder = HistoryRecorder::new();
    let barrier = Barrier::new(producers + consumers);
    let taken = AtomicUsize::new(0);
    let total = producers * per_producer;
    std::thread::scope(|s| {
        for t in 0..producers {
            let recorder = &recorder;
            let barrier = &barrier;
            s.spawn(move || {
                let mut log = recorder.log(t);
                let mut handle = queue.handle();
                barrier.wait();
                for seq in 0..per_producer as u64 {
                    let value = ((t as u64) << 32) | seq;
                    loop {
                        let start = log.begin();
                        let ok = handle.enqueue(value).is_ok();
                        log.end_enqueue(start, value, ok);
                        if ok {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            });
        }
        for c in 0..consumers {
            let recorder = &recorder;
            let barrier = &barrier;
            let taken = &taken;
            s.spawn(move || {
                let mut log = recorder.log(producers + c);
                let mut handle = queue.handle();
                barrier.wait();
                while taken.load(Ordering::Relaxed) < total {
                    let start = log.begin();
                    match handle.dequeue() {
                        Some(v) => {
                            log.end_dequeue(start, Some(v));
                            taken.fetch_add(1, Ordering::Relaxed);
                        }
                        None => std::thread::yield_now(),
                    }
                }
            });
        }
    });
    recorder.into_history()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks::check_history;
    use nbq_util::Full;
    use std::collections::VecDeque;
    use std::sync::Mutex;

    /// Reference queue for driver self-tests.
    struct RefQueue {
        inner: Mutex<VecDeque<u64>>,
        cap: usize,
    }

    struct RefHandle<'q>(&'q RefQueue);

    impl QueueHandle<u64> for RefHandle<'_> {
        fn enqueue(&mut self, v: u64) -> Result<(), Full<u64>> {
            let mut g = self.0.inner.lock().unwrap();
            if g.len() >= self.0.cap {
                return Err(Full(v));
            }
            g.push_back(v);
            Ok(())
        }
        fn dequeue(&mut self) -> Option<u64> {
            self.0.inner.lock().unwrap().pop_front()
        }
    }

    impl ConcurrentQueue<u64> for RefQueue {
        type Handle<'q>
            = RefHandle<'q>
        where
            Self: 'q;
        fn handle(&self) -> RefHandle<'_> {
            RefHandle(self)
        }
        fn capacity(&self) -> Option<usize> {
            Some(self.cap)
        }
        fn algorithm_name(&self) -> &'static str {
            "reference"
        }
    }

    #[test]
    fn driver_produces_checkable_history() {
        let q = RefQueue {
            inner: Mutex::new(VecDeque::new()),
            cap: 16,
        };
        let h = record_run(
            &q,
            DriverConfig {
                threads: 4,
                ops_per_thread: 300,
                enqueue_percent: 60,
                seed: 7,
            },
        );
        assert_eq!(h.ops.len(), 4 * 300);
        check_history(&h).expect("mutex queue must produce a clean history");
    }

    #[test]
    fn paper_workload_shape() {
        let q = RefQueue {
            inner: Mutex::new(VecDeque::new()),
            cap: 1024,
        };
        let h = record_paper_workload(&q, 3, 10);
        // 3 threads x 10 iterations x (5 enq + 5 deq), all succeed.
        assert_eq!(h.enqueue_count(), 150);
        assert_eq!(h.dequeue_count(), 150);
        check_history(&h).expect("clean");
    }

    #[test]
    fn batch_driver_produces_checkable_history() {
        let q = RefQueue {
            inner: Mutex::new(VecDeque::new()),
            cap: 24,
        };
        let h = record_batch_run(
            &q,
            DriverConfig {
                threads: 4,
                ops_per_thread: 100,
                enqueue_percent: 55,
                seed: 11,
            },
            5,
        );
        assert!(h.enqueue_count() > 0, "some batches must land");
        check_history(&h).expect("mutex queue must produce a clean batch history");
        crate::checks::check_per_producer_fifo(&h).expect("per-producer order");
    }

    #[test]
    fn batch_driver_records_partial_rejections() {
        // Capacity smaller than one batch: every accepted batch is partial,
        // and the rejected elements must show up as EnqueueFull.
        let q = RefQueue {
            inner: Mutex::new(VecDeque::new()),
            cap: 3,
        };
        let h = record_batch_run(
            &q,
            DriverConfig {
                threads: 2,
                ops_per_thread: 50,
                enqueue_percent: 80,
                seed: 3,
            },
            8,
        );
        use crate::history::OpKind;
        let full = h
            .ops
            .iter()
            .filter(|o| matches!(o.kind, OpKind::EnqueueFull(_)))
            .count();
        assert!(full > 0, "batches larger than capacity must be cut short");
        check_history(&h).expect("partial batches must still be clean");
    }

    #[test]
    fn pipe_driver_produces_a_strict_spsc_history() {
        let q = RefQueue {
            inner: Mutex::new(VecDeque::new()),
            cap: 8,
        };
        let h = record_pipe_run(&q, 500);
        assert_eq!(h.enqueue_count(), 500);
        assert_eq!(h.dequeue_count(), 500);
        crate::checks::check_spsc_fifo(&h).expect("mutex pipe must be a clean stream");
    }

    #[test]
    fn fan_driver_feeds_the_stream_checkers() {
        let q = RefQueue {
            inner: Mutex::new(VecDeque::new()),
            cap: 8,
        };
        let h = record_fan_run(&q, 3, 1, 200);
        assert_eq!(h.enqueue_count(), 600);
        assert_eq!(h.dequeue_count(), 600);
        crate::checks::check_mpsc_fan_in(&h).expect("mutex fan-in must be exact per-stream");

        let q = RefQueue {
            inner: Mutex::new(VecDeque::new()),
            cap: 8,
        };
        let h = record_fan_run(&q, 1, 3, 600);
        assert_eq!(h.enqueue_count(), 600);
        crate::checks::check_spmc_fan_out(&h).expect("mutex fan-out streams must ascend");
    }

    #[test]
    fn driver_is_deterministic_in_op_mix() {
        // Same seed, single thread: identical op sequences (timestamps
        // aside).
        let mk = || {
            let q = RefQueue {
                inner: Mutex::new(VecDeque::new()),
                cap: 8,
            };
            let h = record_run(
                &q,
                DriverConfig {
                    threads: 1,
                    ops_per_thread: 100,
                    enqueue_percent: 50,
                    seed: 42,
                },
            );
            h.sorted_by_start()
                .iter()
                .map(|o| format!("{:?}", o.kind))
                .collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }
}
