//! Long-running soak tests, excluded from the default run.
//!
//! ```text
//! cargo test --release --test soak -- --ignored --test-threads 1
//! ```
//!
//! These hammer the queues far past the default suite's scale — millions
//! of operations under heavy oversubscription — hunting for the
//! low-probability interleavings that short runs miss (the MS-Doherty
//! descriptor-reuse bug documented in DESIGN.md §3b was exactly such a
//! find). Watchdog counters in the debug builds of every retry loop turn
//! any non-termination into a named panic.

use nbq::baselines::{LmsQueue, MsDohertyQueue, MsQueue, ScanMode, ShannQueue, TreiberQueue};
use nbq::harness::{run_once, WorkloadConfig};
use nbq::lincheck::{
    check_history, check_per_producer_fifo, check_value_integrity, record_batch_run,
    record_paper_workload, record_run, DriverConfig,
};
use nbq::{CasQueue, ConcurrentQueue, LlScQueue, ShardedQueue};

fn soak_cfg(threads: usize, iterations: usize) -> WorkloadConfig {
    WorkloadConfig {
        threads,
        iterations,
        runs: 1,
        capacity: 1024,
        burst: 5,
    }
}

#[test]
#[ignore = "soak: minutes of runtime"]
fn cas_queue_million_ops_oversubscribed() {
    let cfg = soak_cfg(16, 6_250); // 16 x 6250 x 10 = 1M ops
    let q = CasQueue::<u64>::with_capacity(cfg.capacity);
    run_once(&q, &cfg);
    assert!(q.is_empty());
    assert!(q.vars_allocated() <= 2 * 16);
}

#[test]
#[ignore = "soak: minutes of runtime"]
fn llsc_queue_million_ops_oversubscribed() {
    let cfg = soak_cfg(16, 6_250);
    let q = LlScQueue::<u64>::with_capacity(cfg.capacity);
    run_once(&q, &cfg);
    assert!(q.is_empty());
}

#[test]
#[ignore = "soak: minutes of runtime"]
fn ms_doherty_sustained_descriptor_recycling() {
    // The regression soak for the DESIGN.md §3b descriptor-reuse bug.
    let cfg = soak_cfg(8, 6_000);
    for _ in 0..5 {
        let q = MsDohertyQueue::<u64>::new();
        run_once(&q, &cfg);
        let allocated = q.domain().pool().allocated();
        assert!(
            allocated < 50_000,
            "descriptor churn must recycle; allocated={allocated}"
        );
    }
}

#[test]
#[ignore = "soak: minutes of runtime"]
fn every_queue_long_checked_histories() {
    // Instrumented (recorded) runs with the cheap linearizability checks,
    // at 20x the default suite's op count.
    let cfg = DriverConfig {
        threads: 8,
        ops_per_thread: 8_000,
        enqueue_percent: 55,
        seed: 0x50A_u64,
    };
    macro_rules! soak {
        ($make:expr) => {{
            let q = $make;
            let h = record_run(&q, cfg);
            check_history(&h)
                .unwrap_or_else(|v| panic!("{}: {v}", ConcurrentQueue::<u64>::algorithm_name(&q)));
        }};
    }
    soak!(CasQueue::<u64>::with_capacity(256));
    soak!(LlScQueue::<u64>::with_capacity(256));
    soak!(ShannQueue::<u64>::with_capacity(256));
    soak!(MsQueue::<u64>::new(ScanMode::Sorted));
    soak!(MsQueue::<u64>::new(ScanMode::Unsorted));
    soak!(MsDohertyQueue::<u64>::new());
    soak!(TreiberQueue::<u64>::new());
    soak!(LmsQueue::<u64>::new());
}

#[test]
#[ignore = "soak: minutes of runtime"]
fn paper_workload_recorded_histories() {
    // The §6 benchmark shape itself, recorded and checked — the workload
    // the throughput numbers come from must also be a clean history.
    for threads in [4, 8] {
        let q = CasQueue::<u64>::with_capacity(1024);
        let h = record_paper_workload(&q, threads, 4_000);
        check_history(&h).unwrap_or_else(|v| panic!("cas paper workload ({threads}t): {v}"));
        let q = LlScQueue::<u64>::with_capacity(1024);
        let h = record_paper_workload(&q, threads, 4_000);
        check_history(&h).unwrap_or_else(|v| panic!("llsc paper workload ({threads}t): {v}"));
    }
}

#[test]
#[ignore = "soak: minutes of runtime"]
fn batch_workload_recorded_histories() {
    // The native multi-slot batch paths under contention: every recorded
    // element must satisfy the same necessary conditions as single ops.
    let cfg = DriverConfig {
        threads: 8,
        ops_per_thread: 4_000,
        enqueue_percent: 55,
        seed: 0xBA7C_u64,
    };
    for batch in [2, 5, 16] {
        let q = CasQueue::<u64>::with_capacity(1024);
        let h = record_batch_run(&q, cfg, batch);
        check_history(&h).unwrap_or_else(|v| panic!("cas batch x{batch}: {v}"));
        let q = LlScQueue::<u64>::with_capacity(1024);
        let h = record_batch_run(&q, cfg, batch);
        check_history(&h).unwrap_or_else(|v| panic!("llsc batch x{batch}: {v}"));
    }
}

#[test]
#[ignore = "soak: minutes of runtime"]
fn sharded_recorded_histories() {
    // The sharded frontend is relaxed-FIFO: cross-lane order is advisory,
    // so the strict real-time FIFO sweep does not apply. What every
    // history must still satisfy is value integrity (nothing lost,
    // duplicated, or out of thin air) and per-producer FIFO — capacity is
    // ample, so producers never migrate lanes mid-stream.
    // Balanced mix: queue occupancy stays a short random walk around 0,
    // far from any lane's capacity, so Full-triggered migration (the one
    // per-producer FIFO relaxation point) cannot occur.
    let cfg = DriverConfig {
        threads: 8,
        ops_per_thread: 6_000,
        enqueue_percent: 50,
        seed: 0x5AD_u64,
    };
    for lanes in [2, 4, 8] {
        let q = ShardedQueue::with_lanes(lanes, |_| CasQueue::<u64>::with_capacity(4096));
        let h = record_run(&q, cfg);
        check_value_integrity(&h).unwrap_or_else(|v| panic!("sharded-cas-{lanes}: {v}"));
        check_per_producer_fifo(&h)
            .unwrap_or_else(|v| panic!("sharded-cas-{lanes} producer order: {v}"));

        let q = ShardedQueue::with_lanes(lanes, |_| LlScQueue::<u64>::with_capacity(4096));
        let h = record_run(&q, cfg);
        check_value_integrity(&h).unwrap_or_else(|v| panic!("sharded-llsc-{lanes}: {v}"));
        check_per_producer_fifo(&h)
            .unwrap_or_else(|v| panic!("sharded-llsc-{lanes} producer order: {v}"));
    }
}

#[test]
#[ignore = "soak: minutes of runtime"]
fn sharded_batch_recorded_histories() {
    // Batches stay whole on one lane (spilling only on Full, which ample
    // capacity rules out), so per-producer FIFO must survive batching.
    let cfg = DriverConfig {
        threads: 8,
        ops_per_thread: 2_000,
        enqueue_percent: 50,
        seed: 0x0BA7_C5AD_u64,
    };
    let q = ShardedQueue::with_lanes(4, |_| CasQueue::<u64>::with_capacity(4096));
    let h = record_batch_run(&q, cfg, 5);
    check_value_integrity(&h).unwrap_or_else(|v| panic!("sharded batch: {v}"));
    check_per_producer_fifo(&h).unwrap_or_else(|v| panic!("sharded batch producer order: {v}"));
}
