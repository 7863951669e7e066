//! Shared configuration for the Criterion benchmark targets.
//!
//! Every paper figure/table has a bench target (see `benches/`); this
//! crate only hosts the common knobs so `cargo bench --workspace`
//! completes in minutes on a laptop while `repro --paper` remains the
//! tool for paper-scale runs.

use criterion::Criterion;
use nbq_harness::{RunReport, WorkloadConfig};
use std::time::Duration;

/// Criterion tuned for multi-threaded workload benches: few samples,
/// short measurement windows (each iteration is already thousands of
/// queue operations).
pub fn criterion() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
        .configure_from_args()
}

/// Thread counts swept by the figure benches (subsample of the paper's
/// 1–32/1–64 sweeps, sized for CI).
pub const BENCH_THREADS: &[usize] = &[1, 2, 4, 8];

/// One-run workload used inside bench iterations.
pub fn bench_config(threads: usize) -> WorkloadConfig {
    WorkloadConfig {
        threads,
        iterations: 200,
        runs: 1,
        capacity: 1024,
        burst: 5,
    }
}

/// An `iter_custom` body over the harness runner: `run` measures `iters`
/// runs of `config`, each on a fresh queue and timed by the runner itself
/// (thread spawn and runtime startup excluded), and this returns their
/// total time.
pub fn runner_time(
    iters: u64,
    config: &WorkloadConfig,
    run: impl FnOnce(&WorkloadConfig) -> RunReport,
) -> Duration {
    let config = WorkloadConfig {
        runs: iters as usize,
        ..*config
    };
    let s = run(&config).summary;
    Duration::from_secs_f64(s.mean * s.n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_config_is_one_run() {
        let c = bench_config(4);
        assert_eq!(c.runs, 1);
        assert_eq!(c.threads, 4);
    }
}
