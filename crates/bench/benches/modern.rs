//! Extension bench `ext-modern`: the paper's 2008 algorithms against
//! modern comparators (crossbeam's `ArrayQueue`, a Vyukov-style bounded
//! MPMC queue) and the related-work queues, plus the lock-based contrast,
//! under the same §6 workload.

use criterion::{BenchmarkId, Criterion};
use nbq_bench::{bench_config, criterion, runner_time};
use nbq_harness::{Algo, Shape, Workload};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ext_modern");
    for threads in [1usize, 2, 4] {
        let cfg = bench_config(threads);
        group.throughput(criterion::Throughput::Elements(cfg.total_ops()));
        for algo in [
            Algo::CasQueue,
            Algo::LlScQueue,
            Algo::Shann,
            Algo::TsigasZhang,
            Algo::HerlihyWing,
            Algo::Valois,
            Algo::Mutex,
            Algo::CrossbeamArray,
        ] {
            group.bench_with_input(
                BenchmarkId::new(algo.name(), threads),
                &threads,
                |b, &threads| {
                    let paper = Workload::raw(Shape::Mixed);
                    let cfg = bench_config(threads);
                    b.iter_custom(|iters| runner_time(iters, &cfg, |cfg| algo.run(&paper, cfg)));
                },
            );
        }
    }
    group.finish();
}

fn main() {
    let mut c = criterion();
    bench(&mut c);
    c.final_summary();
}
