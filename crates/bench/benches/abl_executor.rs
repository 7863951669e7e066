//! Ablation bench for the executor rewrite: the same async workloads on
//! the work-stealing scheduler vs the `injection-only` control (one
//! shared Mutex run queue, the pre-rewrite design) at 4 workers.
//!
//! Three shapes stress different scheduler paths:
//!
//! * **balanced burst** — every task both sends and receives with ample
//!   capacity; tasks rarely park, so this measures raw dispatch
//!   overhead (local pop vs shared-queue lock).
//! * **split pipe** — producer/consumer halves over a tight queue;
//!   every delivery rides a waker → reschedule → re-poll round trip,
//!   the path the per-worker LIFO slot exists for.
//! * **spawn fanout** — a burst of short tasks joined at the end; new
//!   spawns enter via injection in both modes, so this bounds how much
//!   the fairness-polled injection queue costs vs polling it always.
//!
//! Built with `--features injection-only` both modes degenerate to the
//! control (the feature forces it build-wide); run the default build
//! for the real comparison.

use criterion::{BenchmarkId, Criterion};
use nbq_bench::{criterion, runner_time};
use nbq_core::CasQueue;
use nbq_harness::{Frontend, Shape, Workload, WorkloadConfig};

/// Worker threads for both runtimes (= concurrent paper tasks).
const WORKERS: usize = 4;

/// Tasks spawned per fanout iteration.
const FANOUT: usize = 256;

/// (label, Builder::injection_only flag).
const MODES: &[(&str, bool)] = &[("work-stealing", false), ("injection-only", true)];

fn runtime(injection_only: bool) -> tokio::runtime::Runtime {
    tokio::runtime::Builder::new_multi_thread()
        .worker_threads(WORKERS)
        .injection_only(injection_only)
        .enable_all()
        .build()
        .expect("building the tokio runtime")
}

fn config(capacity: usize) -> WorkloadConfig {
    WorkloadConfig {
        threads: WORKERS,
        iterations: 200,
        runs: 1,
        capacity,
        burst: 5,
    }
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("abl_executor");
    for &(label, injection_only) in MODES {
        let asynchronous = Frontend::Async { injection_only };
        let balanced = config(1024);
        group.throughput(criterion::Throughput::Elements(balanced.total_ops()));
        group.bench_function(BenchmarkId::new("balanced burst", label), |b| {
            let workload = Workload::raw(Shape::Mixed).via(asynchronous);
            let queue = || CasQueue::<u64>::with_capacity(balanced.capacity);
            b.iter_custom(|iters| runner_time(iters, &balanced, |cfg| workload.run(queue, cfg)))
        });

        // Tight capacity = producer headroom only, so consumers gate
        // progress and every value parks someone. Timed like the
        // `ext-async-latency` pipe rows; each of the WORKERS / 2
        // producers sends iterations x burst values, each sent and
        // received once.
        let producers = WORKERS / 2;
        let pipe = config(producers * 5);
        let values = (producers * pipe.iterations * pipe.burst) as u64;
        group.throughput(criterion::Throughput::Elements(2 * values));
        group.bench_function(BenchmarkId::new("split pipe", label), |b| {
            let workload = Workload::raw(Shape::pipe(WORKERS))
                .via(asynchronous)
                .timed();
            let queue = || CasQueue::<u64>::with_capacity(pipe.capacity);
            b.iter_custom(|iters| runner_time(iters, &pipe, |cfg| workload.run(queue, cfg)))
        });

        group.throughput(criterion::Throughput::Elements(FANOUT as u64));
        group.bench_function(BenchmarkId::new("spawn fanout", label), |b| {
            let rt = runtime(injection_only);
            b.iter(|| {
                rt.block_on(async {
                    let handles: Vec<_> = (0..FANOUT as u64)
                        .map(|i| {
                            tokio::spawn(async move {
                                tokio::task::yield_now().await;
                                i
                            })
                        })
                        .collect();
                    let mut sum = 0u64;
                    for h in handles {
                        sum += h.await.expect("fanout task panicked");
                    }
                    sum
                })
            })
        });
    }
    group.finish();
}

fn main() {
    let mut c = criterion();
    bench(&mut c);
    c.final_summary();
}
