//! Bench target for the paper's Fig. 6(a)/(b): running time of the §6
//! workload per algorithm and thread count. (The normalized panels (c)/(d)
//! are a post-processing of the same measurements — `repro fig6c/fig6d`
//! prints them directly.)

use criterion::{BenchmarkId, Criterion};
use nbq_bench::{bench_config, criterion, runner_time, BENCH_THREADS};
use nbq_harness::{Algo, Shape, Workload, AMD_SET, POWERPC_SET};

fn bench_set(c: &mut Criterion, group_name: &str, set: &[Algo]) {
    let mut group = c.benchmark_group(group_name);
    for &threads in BENCH_THREADS {
        let cfg = bench_config(threads);
        group.throughput(criterion::Throughput::Elements(cfg.total_ops()));
        for &algo in set {
            group.bench_with_input(
                BenchmarkId::new(algo.name(), threads),
                &threads,
                |b, &threads| {
                    // Fresh queue per run, as in the paper.
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
    bench_set(&mut c, "fig6a_powerpc_set", POWERPC_SET);
    bench_set(&mut c, "fig6b_amd_set", AMD_SET);
    c.final_summary();
}
