//! Bench target for the arity-specialized (half-relaxed) fast paths:
//! fan-in (3 producers, 1 consumer) through the wait-free-consumer MPSC
//! ring and fan-out (1 producer, 3 consumers) through the
//! wait-free-producer SPMC ring, against the paper's CAS queue and a
//! pinned-MPMC sharded lane serving the same shapes. A second group runs
//! each ring `pipe`-shaped: one registrant and one single end, 2
//! threads, capacity 8 — the fan-in lane of the repository benchmark's
//! `pipe`, `async-pipe` and broker workloads.
//!
//! Each ring keeps its single side RMW-free (one release publication per
//! op, batched variants one per batch) while the multi side pays one
//! grant RMW and one FAA ticket — so the gap to the MPMC rows is the
//! price of full MPMC synchronization at an arity that only needs it on
//! one side.

use criterion::{BenchmarkId, Criterion};
use nbq_bench::criterion;
use nbq_core::{CasQueue, MpscRing, ShardedConfig, ShardedQueue, SpmcRing};
use nbq_util::{ConcurrentQueue, QueueHandle};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

/// Values pushed through the fan per measured iteration (split across
/// the wide side's threads).
const VALUES: usize = 2048;

/// Queue capacity (the fan never needs more in flight).
const CAPACITY: usize = 256;

/// Batch size for the batched-publication rows.
const BATCH: usize = 32;

/// Threads on the wide side of each fan.
const WIDE: usize = 3;

/// Capacity of the `pipe`-shaped rows: small, so both ends meet the
/// ring's bounds within a few items.
const PIPE_CAPACITY: usize = 8;

/// One fan round: `producers` threads stream `VALUES` values total to
/// `consumers` threads through `queue`.
fn fan<Q: ConcurrentQueue<u64>>(queue: &Q, producers: usize, consumers: usize) {
    let per_producer = (VALUES / producers) as u64;
    let remaining = AtomicU64::new(producers as u64 * per_producer);
    let barrier = Barrier::new(producers + consumers);
    std::thread::scope(|s| {
        for t in 0..producers {
            let barrier = &barrier;
            s.spawn(move || {
                let mut h = queue.handle();
                barrier.wait();
                for seq in 0..per_producer {
                    let value = ((t as u64) << 40) | seq;
                    while h.enqueue(value).is_err() {
                        std::thread::yield_now();
                    }
                }
            });
        }
        for _ in 0..consumers {
            let barrier = &barrier;
            let remaining = &remaining;
            s.spawn(move || {
                let mut h = queue.handle();
                barrier.wait();
                while remaining.load(Ordering::Acquire) > 0 {
                    if h.dequeue().is_some() {
                        remaining.fetch_sub(1, Ordering::AcqRel);
                    } else {
                        std::thread::yield_now();
                    }
                }
            });
        }
    });
}

/// Fan-in with the consumer draining in batches of `BATCH`, exercising
/// the MPSC ring's single-publication batch pop.
fn fan_in_batched<Q: ConcurrentQueue<u64>>(queue: &Q) {
    let per_producer = (VALUES / WIDE) as u64;
    let total = WIDE as u64 * per_producer;
    let barrier = Barrier::new(WIDE + 1);
    std::thread::scope(|s| {
        for t in 0..WIDE {
            let barrier = &barrier;
            s.spawn(move || {
                let mut h = queue.handle();
                barrier.wait();
                for seq in 0..per_producer {
                    let value = ((t as u64) << 40) | seq;
                    while h.enqueue(value).is_err() {
                        std::thread::yield_now();
                    }
                }
            });
        }
        let barrier = &barrier;
        s.spawn(move || {
            let mut h = queue.handle();
            barrier.wait();
            let mut out = Vec::with_capacity(BATCH);
            let mut got = 0;
            while got < total {
                let n = h.dequeue_batch(&mut out, BATCH);
                if n == 0 {
                    std::thread::yield_now();
                }
                got += n as u64;
                out.clear();
            }
        });
    });
}

/// Fan-out with the producer publishing in batches of `BATCH`,
/// exercising the SPMC ring's single-publication batch push.
fn fan_out_batched<Q: ConcurrentQueue<u64>>(queue: &Q) {
    let total = VALUES as u64;
    let remaining = AtomicU64::new(total);
    let barrier = Barrier::new(WIDE + 1);
    let barrier_ref = &barrier;
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut h = queue.handle();
            barrier_ref.wait();
            let mut seq: u64 = 0;
            while seq < total {
                let end = (seq + BATCH as u64).min(total);
                let mut pending: Vec<u64> = (seq..end).collect();
                loop {
                    match h.enqueue_batch(pending.into_iter()) {
                        Ok(_) => break,
                        Err(e) => {
                            pending = e.remaining;
                            std::thread::yield_now();
                        }
                    }
                }
                seq = end;
            }
        });
        for _ in 0..WIDE {
            let barrier = &barrier;
            let remaining = &remaining;
            s.spawn(move || {
                let mut h = queue.handle();
                barrier.wait();
                while remaining.load(Ordering::Acquire) > 0 {
                    if h.dequeue().is_some() {
                        remaining.fetch_sub(1, Ordering::AcqRel);
                    } else {
                        std::thread::yield_now();
                    }
                }
            });
        }
    });
}

fn sharded(config: ShardedConfig) -> ShardedQueue<u64, CasQueue<u64>> {
    ShardedQueue::with_config(config, |_| CasQueue::<u64>::with_capacity(CAPACITY))
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("abl_arity");
    // VALUES/WIDE per producer, each value enqueued and dequeued once.
    group.throughput(criterion::Throughput::Elements(
        ((VALUES / WIDE) * WIDE * 2) as u64,
    ));

    group.bench_function(BenchmarkId::new("cas-queue", "fan-in-3p1c"), |b| {
        let q = CasQueue::<u64>::with_capacity(CAPACITY);
        b.iter(|| fan(&q, WIDE, 1))
    });
    group.bench_function(BenchmarkId::new("sharded-mpmc-lane", "fan-in-3p1c"), |b| {
        let q = sharded(ShardedConfig::with_lanes(1));
        b.iter(|| fan(&q, WIDE, 1))
    });
    group.bench_function(BenchmarkId::new("sharded-mpsc-lane", "fan-in-3p1c"), |b| {
        let q = sharded(ShardedConfig::with_lanes(1).mpsc_fast_path());
        b.iter(|| fan(&q, WIDE, 1))
    });
    group.bench_function(BenchmarkId::new("mpsc-ring", "fan-in-3p1c"), |b| {
        let q = MpscRing::<u64>::with_capacity(CAPACITY);
        b.iter(|| fan(&q, WIDE, 1))
    });
    group.bench_function(BenchmarkId::new("mpsc-ring-batched", "fan-in-3p1c"), |b| {
        let q = MpscRing::<u64>::with_capacity(CAPACITY);
        b.iter(|| fan_in_batched(&q))
    });

    group.bench_function(BenchmarkId::new("cas-queue", "fan-out-1p3c"), |b| {
        let q = CasQueue::<u64>::with_capacity(CAPACITY);
        b.iter(|| fan(&q, 1, WIDE))
    });
    group.bench_function(BenchmarkId::new("sharded-mpmc-lane", "fan-out-1p3c"), |b| {
        let q = sharded(ShardedConfig::with_lanes(1));
        b.iter(|| fan(&q, 1, WIDE))
    });
    group.bench_function(BenchmarkId::new("sharded-spmc-lane", "fan-out-1p3c"), |b| {
        let q = sharded(ShardedConfig::with_lanes(1).spmc_fast_path());
        b.iter(|| fan(&q, 1, WIDE))
    });
    group.bench_function(BenchmarkId::new("spmc-ring", "fan-out-1p3c"), |b| {
        let q = SpmcRing::<u64>::with_capacity(CAPACITY);
        b.iter(|| fan(&q, 1, WIDE))
    });
    group.bench_function(BenchmarkId::new("spmc-ring-batched", "fan-out-1p3c"), |b| {
        let q = SpmcRing::<u64>::with_capacity(CAPACITY);
        b.iter(|| fan_out_batched(&q))
    });
    group.finish();

    let mut group = c.benchmark_group("abl_arity_pipe");
    group.throughput(criterion::Throughput::Elements((VALUES * 2) as u64));
    group.bench_function(BenchmarkId::new("mpsc-ring", "pipe-1p1c-cap8"), |b| {
        let q = MpscRing::<u64>::with_capacity(PIPE_CAPACITY);
        b.iter(|| fan(&q, 1, 1))
    });
    group.bench_function(BenchmarkId::new("spmc-ring", "pipe-1p1c-cap8"), |b| {
        let q = SpmcRing::<u64>::with_capacity(PIPE_CAPACITY);
        b.iter(|| fan(&q, 1, 1))
    });
    group.finish();
}

fn main() {
    let mut c = criterion();
    bench(&mut c);
    c.final_summary();
}
