//! Bench target for the async channel frontend: paper-workload round
//! trips per second through `nbq-async` futures on a tokio multi-thread
//! runtime, against the same CAS queue driven raw and through the
//! condvar `BlockingQueue` frontend.
//!
//! The three rows isolate the cost of *parking strategy* — spin
//! (raw), mutex+condvar (blocking), lock-free waiter slot + executor
//! reschedule (async) — over one identical queue. The blocking and async
//! rows go through the harness runner, which builds a fresh queue per run
//! and times the workload threads or tasks themselves. Two capacities are
//! swept: ample (the fast path never parks, measuring pure frontend
//! overhead) and tight (senders park on Full constantly, measuring the
//! waiter registry under load).

use criterion::{BenchmarkId, Criterion};
use nbq_bench::{criterion, runner_time};
use nbq_core::CasQueue;
use nbq_harness::{run_once, Frontend, Shape, Workload, WorkloadConfig};

/// Concurrent paper threads (= tokio tasks for the async rows).
const THREADS: usize = 4;

/// (label, queue capacity): ample never parks, tight parks constantly.
const CAPACITIES: &[(&str, usize)] = &[("ample", 1024), ("tight", 32)];

fn config(capacity: usize) -> WorkloadConfig {
    WorkloadConfig {
        threads: THREADS,
        iterations: 200,
        runs: 1,
        capacity,
        burst: 5,
    }
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("abl_async");
    group.throughput(criterion::Throughput::Elements(config(1024).total_ops()));

    for &(label, capacity) in CAPACITIES {
        let cfg = config(capacity);
        group.bench_function(BenchmarkId::new("raw CAS queue", label), |b| {
            let q = CasQueue::<u64>::with_capacity(cfg.capacity);
            b.iter(|| run_once(&q, &cfg))
        });
        for (name, frontend) in [
            ("blocking frontend", Frontend::Blocking),
            (
                "async frontend",
                Frontend::Async {
                    injection_only: false,
                },
            ),
        ] {
            let workload = Workload::raw(Shape::Mixed).via(frontend);
            let queue = || CasQueue::<u64>::with_capacity(capacity);
            group.bench_function(BenchmarkId::new(name, label), |b| {
                b.iter_custom(|iters| runner_time(iters, &cfg, |cfg| workload.run(queue, cfg)))
            });
        }
    }
    group.finish();
}

fn main() {
    let mut c = criterion();
    bench(&mut c);
    c.final_summary();
}
