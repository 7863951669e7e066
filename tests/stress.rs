//! Cross-crate stress tests: the paper's workload, oversubscription
//! (threads ≫ cores — the "preemptive multithreaded systems" regime the
//! paper targets), population-obliviousness end-to-end, and leak/drop
//! accounting under concurrency.

use nbq::baselines::{
    MsDohertyQueue, MsQueue, ScanMode, ScqQueue, ShannQueue, TsigasZhangQueue, WcqQueue,
};
use nbq::harness::{run_once, WorkloadConfig};
use nbq::lincheck::{
    check_per_producer_fifo, check_spsc_fifo, check_value_integrity, record_pipe_run, record_run,
    DriverConfig,
};
use nbq::{
    CasQueue, ConcurrentQueue, LlScQueue, QueueHandle, ShardedConfig, ShardedQueue, SpscRing,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn stress_cfg(threads: usize) -> WorkloadConfig {
    WorkloadConfig {
        threads,
        iterations: 300,
        runs: 1,
        capacity: 512,
        burst: 5,
    }
}

#[test]
fn paper_workload_all_queues_oversubscribed() {
    // 8 threads on (typically) one CPU: forced preemption mid-operation,
    // exactly the schedule that triggers the §3 ABA scenarios in unsound
    // designs. The workload itself asserts balance by construction
    // (every dequeue retries until it gets a value).
    let cfg = stress_cfg(8);
    run_once(&CasQueue::<u64>::with_capacity(cfg.capacity), &cfg);
    run_once(&LlScQueue::<u64>::with_capacity(cfg.capacity), &cfg);
    run_once(&ShannQueue::<u64>::with_capacity(cfg.capacity), &cfg);
    run_once(&TsigasZhangQueue::<u64>::with_capacity(cfg.capacity), &cfg);
    run_once(&MsQueue::<u64>::new(ScanMode::Sorted), &cfg);
    run_once(&MsQueue::<u64>::new(ScanMode::Unsorted), &cfg);
    run_once(&MsDohertyQueue::<u64>::new(), &cfg);
    run_once(&ScqQueue::<u64>::with_capacity(cfg.capacity), &cfg);
    run_once(&WcqQueue::<u64>::with_capacity(cfg.capacity), &cfg);
    // And the wCQ with every operation forced through the helping
    // records — oversubscription preempts helpers mid-protocol.
    with_watchdog("patience-0 wCQ under the paper workload", move || {
        run_once(&WcqQueue::<u64>::with_patience(cfg.capacity, 0), &cfg);
    });
}

/// Runs `body` on a thread of its own and fails the test, naming `what`,
/// if it has not finished within a minute: a queue that wedges (a worker
/// spinning forever on a lost value) then fails instead of hanging the
/// suite. The wedged threads are left spinning; they end with the test
/// process.
fn with_watchdog(what: &str, body: impl FnOnce() + Send + 'static) {
    use std::sync::mpsc::{channel, RecvTimeoutError};
    use std::time::Duration;
    const WATCHDOG: Duration = Duration::from_secs(60);
    let (done, finished) = channel();
    let worker = std::thread::spawn(move || {
        body();
        let _ = done.send(());
    });
    match finished.recv_timeout(WATCHDOG) {
        Ok(()) => worker.join().expect("the body finished"),
        // The body panicked before reporting: surface its panic.
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().expect_err("the body panicked"))
        }
        Err(RecvTimeoutError::Timeout) => panic!("{what} wedged: not done after {WATCHDOG:?}"),
    }
}

#[test]
fn queues_drain_to_empty_after_balanced_runs() {
    let cfg = stress_cfg(4);
    let q = CasQueue::<u64>::with_capacity(cfg.capacity);
    run_once(&q, &cfg);
    assert!(q.is_empty());
    let q = LlScQueue::<u64>::with_capacity(cfg.capacity);
    run_once(&q, &cfg);
    assert!(q.is_empty());
}

#[test]
fn drop_accounting_under_concurrency() {
    // Values with destructors moved through the queue by many threads:
    // exactly one drop per value, whether consumed or left behind.
    struct Tracked(Arc<AtomicUsize>);
    impl Drop for Tracked {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }
    const PRODUCERS: usize = 4;
    const PER_PRODUCER: usize = 500;
    let drops = Arc::new(AtomicUsize::new(0));
    {
        let q = CasQueue::<Tracked>::with_capacity(64);
        std::thread::scope(|s| {
            for _ in 0..PRODUCERS {
                let q = &q;
                let drops = drops.clone();
                s.spawn(move || {
                    let mut h = q.handle();
                    for _ in 0..PER_PRODUCER {
                        let mut v = Tracked(drops.clone());
                        loop {
                            match h.enqueue(v) {
                                Ok(()) => break,
                                Err(e) => {
                                    v = e.into_inner();
                                    std::thread::yield_now();
                                }
                            }
                        }
                    }
                });
            }
            // One consumer eats all but a queue-capacity's worth, leaving
            // the remainder behind for the queue's Drop to free. (It must
            // eat more than total - capacity, or the producers' retry
            // loops could wedge against a permanently full queue.)
            let q = &q;
            s.spawn(move || {
                let mut h = q.handle();
                let mut eaten = 0;
                while eaten < PRODUCERS * PER_PRODUCER - 32 {
                    if h.dequeue().is_some() {
                        eaten += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
            });
        });
        let eaten = drops.load(Ordering::SeqCst);
        assert_eq!(eaten, PRODUCERS * PER_PRODUCER - 32);
    }
    assert_eq!(
        drops.load(Ordering::SeqCst),
        PRODUCERS * PER_PRODUCER,
        "every value dropped exactly once"
    );
}

/// Mixed batch/single-op MPMC transfer: half the producers enqueue in
/// batches, half one element at a time, and likewise for consumers. No
/// value may be lost or duplicated, and within each consumer's stream
/// every producer's sequence numbers must be strictly increasing (each
/// dequeue completes before the consumer's next begins, so linearizable
/// FIFO implies per-producer order per consumer — batched or not).
fn batch_mixed_transfer<Q: nbq::ConcurrentQueue<u64>>(q: Q) {
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex;
    const PRODUCERS: u64 = 4;
    const CONSUMERS: u64 = 4;
    const PER_PRODUCER: u64 = 1_200;
    const BATCH: usize = 6;
    let total = PRODUCERS * PER_PRODUCER;
    let consumed = AtomicU64::new(0);
    let streams: Mutex<Vec<Vec<u64>>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let q = &q;
            s.spawn(move || {
                let mut h = q.handle();
                if p % 2 == 0 {
                    // Batch producer: retry the leftover suffix on Full.
                    let mut seq = 0u64;
                    while seq < PER_PRODUCER {
                        let n = BATCH.min((PER_PRODUCER - seq) as usize);
                        let mut batch: Vec<u64> =
                            (seq..seq + n as u64).map(|i| (p << 32) | i).collect();
                        loop {
                            match h.enqueue_batch(batch.into_iter()) {
                                Ok(_) => break,
                                Err(e) => {
                                    batch = e.remaining;
                                    std::thread::yield_now();
                                }
                            }
                        }
                        seq += n as u64;
                    }
                } else {
                    for i in 0..PER_PRODUCER {
                        while h.enqueue((p << 32) | i).is_err() {
                            std::thread::yield_now();
                        }
                    }
                }
            });
        }
        for c in 0..CONSUMERS {
            let q = &q;
            let consumed = &consumed;
            let streams = &streams;
            s.spawn(move || {
                let mut h = q.handle();
                let mut got = Vec::new();
                loop {
                    let before = got.len();
                    if c % 2 == 0 {
                        h.dequeue_batch(&mut got, BATCH);
                    } else if let Some(v) = h.dequeue() {
                        got.push(v);
                    }
                    let taken = got.len() - before;
                    if taken == 0 {
                        if consumed.load(Ordering::SeqCst) >= total {
                            break;
                        }
                        std::thread::yield_now();
                    } else {
                        consumed.fetch_add(taken as u64, Ordering::SeqCst);
                    }
                }
                streams.lock().unwrap().push(got);
            });
        }
    });
    let streams = streams.into_inner().unwrap();
    let mut seen = HashSet::new();
    for stream in &streams {
        let mut last = vec![None::<u64>; PRODUCERS as usize];
        for &v in stream {
            assert!(seen.insert(v), "duplicate value {v:#x}");
            let p = (v >> 32) as usize;
            let i = v & 0xffff_ffff;
            if let Some(prev) = last[p] {
                assert!(
                    prev < i,
                    "per-producer FIFO violated: producer {p} item {i} after {prev}"
                );
            }
            last[p] = Some(i);
        }
    }
    assert_eq!(seen.len() as u64, total, "lost values");
}

#[test]
fn batch_mixed_stress_cas_queue() {
    batch_mixed_transfer(CasQueue::<u64>::with_capacity(64));
}

#[test]
fn batch_mixed_stress_llsc_queue() {
    batch_mixed_transfer(LlScQueue::<u64>::with_capacity(64));
}

#[test]
fn batch_mixed_stress_scq() {
    batch_mixed_transfer(ScqQueue::<u64>::with_capacity(64));
}

#[test]
fn batch_mixed_stress_wcq() {
    batch_mixed_transfer(WcqQueue::<u64>::with_capacity(64));
}

#[test]
fn modern_rival_recorded_histories_keep_producer_fifo_and_values() {
    // The same bar the sharded frontend has to clear: recorded
    // histories with nothing lost, duplicated, or out of thin air, and
    // per-producer FIFO intact — for both rivals, and for the wCQ on
    // its all-slow-path configuration.
    let cfg = DriverConfig {
        threads: 6,
        ops_per_thread: 1_000,
        enqueue_percent: 50,
        seed: 0x5C9_u64,
    };
    let q = ScqQueue::<u64>::with_capacity(1024);
    let h = record_run(&q, cfg);
    check_value_integrity(&h).unwrap_or_else(|v| panic!("scq: {v}"));
    check_per_producer_fifo(&h).unwrap_or_else(|v| panic!("scq producer order: {v}"));

    for patience in [nbq::baselines::wcq::DEFAULT_PATIENCE, 0] {
        let q = WcqQueue::<u64>::with_patience(1024, patience);
        let h = record_run(&q, cfg);
        check_value_integrity(&h).unwrap_or_else(|v| panic!("wcq (patience {patience}): {v}"));
        check_per_producer_fifo(&h)
            .unwrap_or_else(|v| panic!("wcq (patience {patience}) producer order: {v}"));
    }
}

#[test]
fn population_obliviousness_end_to_end() {
    // 20 sequential waves of 3 threads each against one CAS queue: 60
    // threads total, at most 3 concurrent -> at most 3 LLSCvars (+1 slack
    // for scheduling overlap at wave boundaries is NOT allowed here since
    // waves are strictly joined).
    let q = CasQueue::<u64>::with_capacity(128);
    for wave in 0..20u64 {
        std::thread::scope(|s| {
            for t in 0..3u64 {
                let q = &q;
                s.spawn(move || {
                    let mut h = q.handle();
                    for i in 0..200 {
                        let v = (wave << 32) | (t << 16) | i;
                        while h.enqueue(v).is_err() {
                            h.dequeue();
                        }
                        h.dequeue();
                    }
                });
            }
        });
    }
    assert!(
        q.vars_allocated() <= 3,
        "60 threads must reuse at most 3 LLSCvars, got {}",
        q.vars_allocated()
    );
}

#[test]
fn hazard_domain_bounds_memory_in_ms_queue() {
    // The MS queue's retire threshold is 4x live threads; after a long
    // run with a flush, the pending set must be small and the reclaim
    // counter large.
    let q = MsQueue::<u64>::new(ScanMode::Sorted);
    std::thread::scope(|s| {
        for _ in 0..4 {
            let q = &q;
            s.spawn(move || {
                let mut h = q.handle();
                for i in 0..2_000u64 {
                    h.enqueue(i).unwrap();
                    h.dequeue();
                }
            });
        }
    });
    assert!(
        q.domain().reclaimed_count() > 6_000,
        "most of the 8000 nodes must have been reclaimed, got {}",
        q.domain().reclaimed_count()
    );
    assert!(q.domain().total_records() <= 4);
}

#[test]
fn doherty_descriptor_pool_stays_bounded() {
    let q = MsDohertyQueue::<u64>::new();
    std::thread::scope(|s| {
        for _ in 0..3 {
            let q = &q;
            s.spawn(move || {
                let mut h = q.handle();
                for i in 0..2_000u64 {
                    h.enqueue(i).unwrap();
                    h.dequeue();
                }
            });
        }
    });
    let allocated = q.domain().pool().allocated();
    assert!(
        allocated < 2_000,
        "descriptors must recycle in steady state; allocated {allocated}"
    );
    assert!(q.domain().pool().recycled() > 5_000);
}

#[test]
fn sharded_paper_workload_oversubscribed() {
    // The sharded frontend through the same oversubscribed paper workload
    // as the single-lane queues: every lane must drain and the frontend's
    // balance must hold by construction (this is also the target the CI
    // ThreadSanitizer leg drives).
    let cfg = stress_cfg(8);
    for lanes in [2usize, 4] {
        let per_lane = cfg.capacity.div_ceil(lanes);
        let q = ShardedQueue::with_lanes(lanes, |_| CasQueue::<u64>::with_capacity(per_lane));
        run_once(&q, &cfg);
        assert_eq!(q.is_empty(), Some(true), "sharded-cas-{lanes} must drain");
        let q = ShardedQueue::with_lanes(lanes, |_| LlScQueue::<u64>::with_capacity(per_lane));
        run_once(&q, &cfg);
        assert_eq!(q.is_empty(), Some(true), "sharded-llsc-{lanes} must drain");
    }
}

#[test]
fn sharded_recorded_histories_keep_producer_fifo_and_values() {
    // Every recorded sharded history must pass value integrity (nothing
    // lost, duplicated, or out of thin air) and per-producer FIFO. Ample
    // per-lane capacity plus a balanced mix keeps occupancy far from Full,
    // so producers never migrate lanes mid-stream; dequeue-side stealing
    // alone cannot invert a single producer's order (the empty-lane
    // observation that triggers a steal implies the earlier value's
    // dequeue already began).
    let cfg = DriverConfig {
        threads: 6,
        ops_per_thread: 1_000,
        enqueue_percent: 50,
        seed: 0x5AD_u64,
    };
    for lanes in [2usize, 4] {
        let q = ShardedQueue::with_lanes(lanes, |_| CasQueue::<u64>::with_capacity(1024));
        let h = record_run(&q, cfg);
        check_value_integrity(&h).unwrap_or_else(|v| panic!("sharded-cas-{lanes}: {v}"));
        check_per_producer_fifo(&h)
            .unwrap_or_else(|v| panic!("sharded-cas-{lanes} producer order: {v}"));

        let q = ShardedQueue::with_lanes(lanes, |_| LlScQueue::<u64>::with_capacity(1024));
        let h = record_run(&q, cfg);
        check_value_integrity(&h).unwrap_or_else(|v| panic!("sharded-llsc-{lanes}: {v}"));
        check_per_producer_fifo(&h)
            .unwrap_or_else(|v| panic!("sharded-llsc-{lanes} producer order: {v}"));
    }
}

#[test]
fn sharded_full_pressure_steals_conserve_values() {
    // Tiny lanes and an enqueue-heavy mix force Full-triggered migration —
    // the one point where the frontend trades per-producer FIFO for
    // progress. Cross-lane order is advisory there, but value integrity
    // is not: the recorded history must still show every accepted value
    // dequeued at most once and never out of thin air.
    let cfg = DriverConfig {
        threads: 6,
        ops_per_thread: 1_000,
        enqueue_percent: 70,
        seed: 0xF11_u64,
    };
    for lanes in [2usize, 4] {
        let q = ShardedQueue::with_lanes(lanes, |_| CasQueue::<u64>::with_capacity(4));
        let h = record_run(&q, cfg);
        check_value_integrity(&h)
            .unwrap_or_else(|v| panic!("sharded-cas-{lanes} under Full pressure: {v}"));
    }
}

#[test]
fn spsc_ring_recorded_history_is_a_strict_stream() {
    // The raw wait-free ring through the instrumented 1p/1c pipe: the
    // consumer's stream must be exactly the producer's, position by
    // position — the strictest check in the lincheck crate.
    for capacity in [2usize, 8, 64] {
        let q = SpscRing::<u64>::with_capacity(capacity);
        let h = record_pipe_run(&q, 20_000);
        check_spsc_fifo(&h).unwrap_or_else(|v| panic!("spsc ring (cap {capacity}): {v}"));
        assert!(q.is_empty());
    }
}

#[test]
fn spsc_pinned_lane_recorded_history_is_a_strict_stream() {
    // A single mixed lane behind the sharded frontend, driven 1p/1c: the
    // lane must stay on its wait-free ring (never promote) and its
    // history must satisfy the same strict stream contract as the raw
    // ring.
    let q = ShardedQueue::with_config(ShardedConfig::with_lanes(1).spsc_fast_path(), |_| {
        CasQueue::<u64>::with_capacity(256)
    });
    let h = record_pipe_run(&q, 20_000);
    check_spsc_fifo(&h).unwrap_or_else(|v| panic!("pinned SPSC lane: {v}"));
    assert_eq!(
        q.lane_promoted(0),
        Some(false),
        "one producer and one consumer must never promote the lane"
    );
    assert_eq!(q.len(), Some(0));
}

#[test]
fn mixed_sharded_paper_workload_oversubscribed() {
    // The mixed (SPSC fast-path) frontend under the same oversubscribed
    // MPMC workload as the plain sharded queue: concurrent producers
    // racing onto the same lane promote it, and the run must still
    // balance and drain through the ring-then-MPMC handoff. (Promotion
    // itself is not asserted: with heavy oversubscription a thread can
    // finish its whole loop and release its ring claim before the next
    // thread's first enqueue, in which case the producers were serial and
    // the lane legitimately stays wait-free.)
    let cfg = stress_cfg(8);
    for lanes in [2usize, 4] {
        let per_lane = cfg.capacity.div_ceil(lanes);
        let q =
            ShardedQueue::with_config(ShardedConfig::with_lanes(lanes).spsc_fast_path(), |_| {
                CasQueue::<u64>::with_capacity(per_lane)
            });
        run_once(&q, &cfg);
        assert_eq!(q.is_empty(), Some(true), "sharded-mixed-{lanes} must drain");
        for lane in 0..lanes {
            assert!(
                q.lane_has_fast_path(lane),
                "every lane of the mixed frontend carries a ring"
            );
        }
    }
}

#[test]
fn mixed_sharded_recorded_histories_keep_values_across_promotion() {
    // Randomized mixed workload over SPSC fast-path lanes: handles race
    // to claim ring endpoints, lose, promote, and drain residue — and
    // the recorded history must still show value integrity and
    // per-producer FIFO (promotion switches a producer to the MPMC path
    // only at an exact-empty instant, so its stream never interleaves
    // across the two structures).
    let cfg = DriverConfig {
        threads: 6,
        ops_per_thread: 1_000,
        enqueue_percent: 50,
        seed: 0x59_5C_u64,
    };
    for lanes in [1usize, 2, 4] {
        let q =
            ShardedQueue::with_config(ShardedConfig::with_lanes(lanes).spsc_fast_path(), |_| {
                CasQueue::<u64>::with_capacity(1024)
            });
        let h = record_run(&q, cfg);
        check_value_integrity(&h).unwrap_or_else(|v| panic!("sharded-mixed-{lanes}: {v}"));
        check_per_producer_fifo(&h)
            .unwrap_or_else(|v| panic!("sharded-mixed-{lanes} producer order: {v}"));
    }
}

#[test]
fn mixed_queue_sizes_under_contention() {
    // Tiny arrays maximize wraparound (index laps) under contention —
    // the regime where index-ABA bugs would bite.
    for capacity in [2usize, 4, 8] {
        let cfg = WorkloadConfig {
            threads: 4,
            iterations: 150,
            runs: 1,
            capacity,
            burst: 1, // burst must fit within tiny capacities
        };
        let q = CasQueue::<u64>::with_capacity(capacity);
        run_once(&q, &cfg);
        assert!(q.is_empty(), "capacity {capacity}");
        let q = LlScQueue::<u64>::with_capacity(capacity);
        run_once(&q, &cfg);
        assert!(q.is_empty(), "capacity {capacity}");
    }
}

// ---------------------------------------------------------------------
// Memory-ordering litmus tests (DESIGN.md §7).
//
// Classic two-thread message passing through each queue whose hot paths
// run under the per-site relaxed policy in `nbq_util::mem`: the producer
// fills a heap payload with *plain* (non-atomic) stores and enqueues it;
// the consumer asserts every field is consistent with the first. If an
// enqueue-side publish were weaker than release or a dequeue-side read
// weaker than acquire, the consumer could observe a torn/stale payload.
// The suite runs under both the relaxed build and `--features strict-sc`
// (CI's matrix), so a failure only under one mode indicts the policy
// rather than the algorithm.

/// Heap payload written with plain stores; `b`/`c` are derived from `a`
/// so any stale field shows up as an internal inconsistency.
struct Payload {
    a: u64,
    b: u64,
    c: u64,
}

fn mp_litmus<Q: nbq::ConcurrentQueue<Box<Payload>>>(q: &Q, rounds: u64) {
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut h = q.handle();
            for i in 0..rounds {
                let mut p = Box::new(Payload { a: 0, b: 0, c: 0 });
                p.a = i;
                p.b = i.wrapping_mul(3);
                p.c = i ^ 0xdead_beef;
                let mut v = p;
                loop {
                    match h.enqueue(v) {
                        Ok(()) => break,
                        Err(e) => {
                            v = e.into_inner();
                            std::hint::spin_loop();
                        }
                    }
                }
            }
        });
        s.spawn(|| {
            let mut h = q.handle();
            for i in 0..rounds {
                let p = loop {
                    if let Some(p) = h.dequeue() {
                        break p;
                    }
                    std::hint::spin_loop();
                };
                // Single producer + single consumer: FIFO fixes the order.
                assert_eq!(p.a, i, "FIFO order violated");
                assert_eq!(p.b, i.wrapping_mul(3), "stale payload field b");
                assert_eq!(p.c, i ^ 0xdead_beef, "stale payload field c");
            }
        });
    });
}

const LITMUS_ROUNDS: u64 = 20_000;

#[test]
fn litmus_message_passing_cas_queue() {
    mp_litmus(&CasQueue::<Box<Payload>>::with_capacity(64), LITMUS_ROUNDS);
}

#[test]
fn litmus_message_passing_llsc_queue() {
    mp_litmus(&LlScQueue::<Box<Payload>>::with_capacity(64), LITMUS_ROUNDS);
}

#[test]
fn litmus_message_passing_shann() {
    mp_litmus(
        &ShannQueue::<Box<Payload>>::with_capacity(64),
        LITMUS_ROUNDS,
    );
}

#[test]
fn litmus_message_passing_tsigas_zhang() {
    mp_litmus(
        &TsigasZhangQueue::<Box<Payload>>::with_capacity_and_reuse_delay(
            64,
            2 * LITMUS_ROUNDS as usize,
        ),
        LITMUS_ROUNDS,
    );
}

#[test]
fn litmus_message_passing_spsc_ring() {
    // The ring's single release-store publish against its acquire load:
    // any weaker pairing shows up as a torn/stale payload here.
    mp_litmus(&SpscRing::<Box<Payload>>::with_capacity(64), LITMUS_ROUNDS);
}

#[test]
fn litmus_message_passing_scq() {
    mp_litmus(&ScqQueue::<Box<Payload>>::with_capacity(64), LITMUS_ROUNDS);
}

#[test]
fn litmus_message_passing_wcq() {
    mp_litmus(&WcqQueue::<Box<Payload>>::with_capacity(64), LITMUS_ROUNDS);
    // All-slow-path: the payload's publish must also survive the
    // record/helper handoff (fewer rounds — each op walks the records).
    with_watchdog("patience-0 wCQ under message passing", || {
        mp_litmus(
            &WcqQueue::<Box<Payload>>::with_patience(64, 0),
            LITMUS_ROUNDS / 4,
        );
    });
}

#[test]
fn litmus_message_passing_ms_hazard() {
    mp_litmus(
        &MsQueue::<Box<Payload>>::new(ScanMode::Sorted),
        LITMUS_ROUNDS,
    );
}

#[test]
fn litmus_message_passing_ms_doherty() {
    mp_litmus(&MsDohertyQueue::<Box<Payload>>::new(), LITMUS_ROUNDS);
}

#[test]
fn weak_cell_fault_injection_mpmc() {
    // LL/SC failure paths under the relaxed orderings: WeakCell injects
    // spurious SC failures (CELL_SC_FAIL edges) on top of real contention
    // from 4 threads, so the E10/D10 retry arms and the
    // publish-helping paths all execute under the policy being validated.
    use nbq::llsc::{FaultPlan, WeakCell};
    use nbq_core::LlScQueueConfig;

    let q: nbq::LlScQueue<u64, WeakCell> =
        nbq::LlScQueue::with_cells(32, LlScQueueConfig::default(), |i, v| {
            WeakCell::new(
                v,
                FaultPlan::Probability {
                    seed: 0x5eed ^ i as u64,
                    num: 1,
                    den: 4,
                },
            )
        });
    let produced = AtomicUsize::new(0);
    let consumed = AtomicUsize::new(0);
    let sum_in = AtomicUsize::new(0);
    let sum_out = AtomicUsize::new(0);
    const PER_THREAD: usize = 3_000;
    std::thread::scope(|s| {
        for t in 0..2usize {
            let (q, produced, sum_in) = (&q, &produced, &sum_in);
            s.spawn(move || {
                let mut h = q.handle();
                for i in 0..PER_THREAD {
                    let v = (t * PER_THREAD + i) as u64;
                    while h.enqueue(v).is_err() {
                        std::thread::yield_now();
                    }
                    produced.fetch_add(1, Ordering::Relaxed);
                    sum_in.fetch_add(v as usize, Ordering::Relaxed);
                }
            });
        }
        for _ in 0..2usize {
            let (q, produced, consumed, sum_out) = (&q, &produced, &consumed, &sum_out);
            s.spawn(move || {
                let mut h = q.handle();
                loop {
                    match h.dequeue() {
                        Some(v) => {
                            consumed.fetch_add(1, Ordering::Relaxed);
                            sum_out.fetch_add(v as usize, Ordering::Relaxed);
                        }
                        None => {
                            if produced.load(Ordering::Relaxed) == 2 * PER_THREAD
                                && consumed.load(Ordering::Relaxed) == 2 * PER_THREAD
                            {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                }
            });
        }
    });
    assert_eq!(consumed.load(Ordering::Relaxed), 2 * PER_THREAD);
    assert_eq!(
        sum_in.load(Ordering::Relaxed),
        sum_out.load(Ordering::Relaxed),
        "values lost or duplicated through spurious-failure retries"
    );
    assert!(q.is_empty());
}

// ---------------------------------------------------------------------
// wCQ helping protocol: a stalled thread must not block anyone.

#[test]
fn wcq_stalled_dequeuer_is_completed_by_other_threads() {
    // `begin_stalled_dequeue` publishes a slow-path record and freezes —
    // a thread preempted mid-operation. Other threads (all on the slow
    // path themselves at patience 0) must keep their own streams flowing
    // AND drive the parked request to completion, so that by the time
    // the churn ends the request is already decided without its owner
    // ever running again.
    let q = WcqQueue::<u64>::with_patience(256, 0);
    {
        let mut h = q.handle();
        for i in 0..8 {
            h.enqueue(i).unwrap();
        }
    }
    let probe = q.begin_stalled_dequeue();
    std::thread::scope(|s| {
        for t in 0..3u64 {
            let q = &q;
            s.spawn(move || {
                let mut h = q.handle();
                for i in 0..2_000u64 {
                    let v = (t << 32) | i;
                    while h.enqueue(v).is_err() {
                        std::thread::yield_now();
                    }
                    while h.dequeue().is_none() {
                        std::thread::yield_now();
                    }
                }
            });
        }
    });
    assert!(
        probe.is_complete(),
        "helpers must finish the parked dequeue without its thread"
    );
    // Each churn thread was balanced and the queue started with 8
    // values, so the stalled request must have claimed exactly one.
    assert!(probe.finish().is_some());
    assert_eq!(nbq::ConcurrentQueue::len(&q), Some(7));
}

#[test]
fn wcq_many_stalled_dequeuers_resolve_under_churn() {
    // Several concurrently parked requests (distinct record slots) with
    // live traffic around them: every one must resolve, values must
    // balance, and abandoning a completed probe must not corrupt the
    // free ring (its Drop returns the claimed slot).
    let q = WcqQueue::<u64>::with_patience(64, 0);
    {
        let mut h = q.handle();
        for i in 0..16 {
            h.enqueue(i).unwrap();
        }
    }
    let probes: Vec<_> = (0..4).map(|_| q.begin_stalled_dequeue()).collect();
    std::thread::scope(|s| {
        for t in 0..2u64 {
            let q = &q;
            s.spawn(move || {
                let mut h = q.handle();
                for i in 0..1_000u64 {
                    while h.enqueue((t << 32) | i).is_err() {
                        std::thread::yield_now();
                    }
                    while h.dequeue().is_none() {
                        std::thread::yield_now();
                    }
                }
            });
        }
    });
    let mut claimed = 0;
    for (i, probe) in probes.into_iter().enumerate() {
        assert!(probe.is_complete(), "stalled request {i} left undecided");
        if i % 2 == 0 {
            claimed += usize::from(probe.finish().is_some());
        } else {
            // Dropped without finishing: Drop must complete the request
            // and return its value/slot to the queue coherently.
            drop(probe);
        }
    }
    assert_eq!(claimed, 2, "each finished probe claimed exactly one value");
    // 16 preloaded - 2 kept by finished probes - 2 reclaimed by Drop.
    let len = nbq::ConcurrentQueue::len(&q).unwrap();
    assert_eq!(len, 12, "dropped probes must hand their values back");
}

// ---------------------------------------------------------------------
// Arity-specialized (half-relaxed) lane stress: oversubscribed fans with
// an endpoint dying mid-run. Conservation must hold across the
// ring-then-MPMC handoff, and a second registrant of the *single* side
// must demote the lane stickily.

#[test]
fn fan_in_consumer_death_conserves_values_and_demotes_stickily() {
    use std::sync::atomic::AtomicU64;
    const PRODUCERS: usize = 6;
    const PER_PRODUCER: u64 = 2_000;
    const TOTAL: u64 = PRODUCERS as u64 * PER_PRODUCER;
    let q = ShardedQueue::with_config(ShardedConfig::with_lanes(1).mpsc_fast_path(), |_| {
        CasQueue::<u64>::with_capacity(512)
    });
    let taken = AtomicU64::new(0);
    let mut collected: Vec<u64> = Vec::with_capacity(TOTAL as usize);
    std::thread::scope(|s| {
        for t in 0..PRODUCERS {
            let q = &q;
            s.spawn(move || {
                let mut h = q.handle_pinned(0);
                for seq in 0..PER_PRODUCER {
                    let value = ((t as u64) << 40) | seq;
                    while h.enqueue(value).is_err() {
                        std::thread::yield_now();
                    }
                }
            });
        }
        // First consumer: claims the MPSC ring's wait-free side, drains a
        // quarter of the run, then dies (drops) mid-run with residue
        // still in the ring and producers still writing.
        let mut dying = q.handle_pinned(0);
        while taken.load(Ordering::Relaxed) < TOTAL / 4 {
            if let Some(v) = dying.dequeue() {
                collected.push(v);
                taken.fetch_add(1, Ordering::Relaxed);
            } else {
                std::thread::yield_now();
            }
        }
        // Second concurrent consumer while the first still holds the
        // claim: the lane must demote to MPMC — deterministically, since
        // the claim CAS cannot succeed here.
        let mut finisher = q.handle_pinned(0);
        if let Some(v) = finisher.dequeue() {
            collected.push(v);
            taken.fetch_add(1, Ordering::Relaxed);
        }
        assert_eq!(
            q.lane_promoted(0),
            Some(true),
            "a second concurrent consumer on the single side must demote"
        );
        drop(dying); // the death: releases the ring claim mid-run
        while taken.load(Ordering::Relaxed) < TOTAL {
            if let Some(v) = finisher.dequeue() {
                collected.push(v);
                taken.fetch_add(1, Ordering::Relaxed);
            } else {
                std::thread::yield_now();
            }
        }
    });
    let mut expected: Vec<u64> = (0..PRODUCERS as u64)
        .flat_map(|t| (0..PER_PRODUCER).map(move |seq| (t << 40) | seq))
        .collect();
    expected.sort_unstable();
    collected.sort_unstable();
    assert_eq!(collected, expected, "fan-in lost or duplicated values");
    assert_eq!(q.len(), Some(0));
    assert_eq!(
        q.lane_promoted(0),
        Some(true),
        "demotion must be sticky after every endpoint exits"
    );
}

#[test]
fn fan_out_producer_death_conserves_values_and_demotes_stickily() {
    use std::sync::atomic::AtomicU64;
    const CONSUMERS: usize = 6;
    const HALF: u64 = 6_000;
    const TOTAL: u64 = 2 * HALF;
    let q = ShardedQueue::with_config(ShardedConfig::with_lanes(1).spmc_fast_path(), |_| {
        CasQueue::<u64>::with_capacity(512)
    });
    let taken = AtomicU64::new(0);
    let collected = std::sync::Mutex::new(Vec::with_capacity(TOTAL as usize));
    std::thread::scope(|s| {
        for _ in 0..CONSUMERS {
            let q = &q;
            let taken = &taken;
            let collected = &collected;
            s.spawn(move || {
                let mut h = q.handle_pinned(0);
                let mut got = Vec::new();
                while taken.load(Ordering::Acquire) < TOTAL {
                    if let Some(v) = h.dequeue() {
                        got.push(v);
                        taken.fetch_add(1, Ordering::AcqRel);
                    } else {
                        std::thread::yield_now();
                    }
                }
                collected.lock().unwrap().extend(got);
            });
        }
        // First producer: claims the SPMC ring's wait-free side and
        // publishes half the run.
        let mut dying = q.handle_pinned(0);
        for seq in 0..HALF {
            let value = (1u64 << 40) | seq;
            while dying.enqueue(value).is_err() {
                std::thread::yield_now();
            }
        }
        // Second concurrent producer while the first still holds the
        // claim: the single side demotes the lane — deterministically.
        let mut finisher = q.handle_pinned(0);
        let mut seq = 0u64;
        let value = (2u64 << 40) | seq;
        while finisher.enqueue(value).is_err() {
            std::thread::yield_now();
        }
        seq += 1;
        assert_eq!(
            q.lane_promoted(0),
            Some(true),
            "a second concurrent producer on the single side must demote"
        );
        drop(dying); // the death: releases the ring claim mid-run
        while seq < HALF {
            let value = (2u64 << 40) | seq;
            while finisher.enqueue(value).is_err() {
                std::thread::yield_now();
            }
            seq += 1;
        }
    });
    let mut expected: Vec<u64> = (0..HALF)
        .map(|seq| (1u64 << 40) | seq)
        .chain((0..HALF).map(|seq| (2u64 << 40) | seq))
        .collect();
    expected.sort_unstable();
    let mut collected = collected.into_inner().unwrap();
    collected.sort_unstable();
    assert_eq!(collected, expected, "fan-out lost or duplicated values");
    assert_eq!(q.len(), Some(0));
    assert_eq!(
        q.lane_promoted(0),
        Some(true),
        "demotion must be sticky after every endpoint exits"
    );
}

#[test]
fn mpsc_ring_recorded_history_keeps_per_producer_streams() {
    // The raw ring under a recorded 3p/1c fan: the consumer's stream,
    // restricted to each producer, must be an exact prefix of that
    // producer's program order (the ring's per-producer FIFO claim).
    let q = nbq::MpscRing::<u64>::with_capacity(256);
    let h = nbq::lincheck::record_fan_run(&q, 3, 1, 2_000);
    nbq::lincheck::check_mpsc_fan_in(&h).unwrap_or_else(|v| panic!("mpsc ring fan-in: {v}"));
}

#[test]
fn spmc_ring_recorded_history_keeps_consumer_streams_ascending() {
    // The raw ring under a recorded 1p/3c fan: every consumer's stream
    // must be strictly ascending in the producer's enqueue order (the
    // FAA drain tickets never hand one consumer out-of-order values).
    let q = nbq::SpmcRing::<u64>::with_capacity(256);
    let h = nbq::lincheck::record_fan_run(&q, 1, 3, 6_000);
    nbq::lincheck::check_spmc_fan_out(&h).unwrap_or_else(|v| panic!("spmc ring fan-out: {v}"));
}

// ---------------------------------------------------------------------
// Mid-stream promotion under a spinning ring-role consumer, one test per
// static fast-path policy: the ring-role consumer drains the first part
// of the stream and spins on the empty ring, then a second registrant of
// the lane's single side arrives and promotes the lane. An empty,
// unpromoted ring is the consumer's proof that the lane is empty, so if
// any MPMC value could land before the promotion is visible it would be
// stranded; the watchdog turns that into a failure instead of a hang.

type LaneHandle<'q> = <ShardedQueue<u64, CasQueue<u64>> as ConcurrentQueue<u64>>::Handle<'q>;

/// Which side the late, promoting registrant joins.
#[derive(Clone, Copy, PartialEq, Eq)]
enum LateSide {
    Producer,
    Consumer,
}

fn promotion_mid_stream(config: ShardedConfig, late: LateSide) {
    use std::sync::atomic::AtomicU64;
    use std::time::{Duration, Instant};
    const PER_PRODUCER: u64 = 4_000;
    const WATCHDOG: Duration = Duration::from_secs(30);
    let start = Instant::now();
    let watchdog = |what: &str, taken: &AtomicU64| {
        assert!(
            start.elapsed() < WATCHDOG,
            "{what} stuck: {} values arrived, the rest are stranded",
            taken.load(Ordering::Relaxed)
        );
        std::thread::yield_now();
    };
    let producers: u64 = if late == LateSide::Producer { 2 } else { 1 };
    let total = producers * PER_PRODUCER;
    let q = ShardedQueue::with_config(config, |_| CasQueue::<u64>::with_capacity(64));
    let taken = AtomicU64::new(0);
    let collected = std::sync::Mutex::new(Vec::with_capacity(total as usize));
    let consume = |h: &mut LaneHandle<'_>| {
        let mut got = Vec::new();
        while taken.load(Ordering::Acquire) < total {
            match h.dequeue() {
                Some(v) => {
                    got.push(v);
                    taken.fetch_add(1, Ordering::AcqRel);
                }
                None => watchdog("consumer", &taken),
            }
        }
        collected.lock().unwrap().extend(got);
    };
    let produce = |h: &mut LaneHandle<'_>, id: u64, seqs: std::ops::Range<u64>| {
        for seq in seqs {
            while h.enqueue((id << 40) | seq).is_err() {
                watchdog("producer", &taken);
            }
        }
    };
    std::thread::scope(|s| {
        // The ring-role consumer: its first dequeue claims (or, on the
        // fan-out ring, registers on) the ring's consumer side.
        let mut ring_consumer = q.handle_pinned(0);
        assert_eq!(ring_consumer.dequeue(), None);
        s.spawn(move || consume(&mut ring_consumer));
        // The first producer takes the ring's producer side and its
        // first half drains completely: the consumer now spins on an
        // empty ring.
        let mut first = q.handle_pinned(0);
        produce(&mut first, 0, 0..PER_PRODUCER / 2);
        while taken.load(Ordering::Acquire) < PER_PRODUCER / 2 {
            watchdog("first half", &taken);
        }
        assert_eq!(q.lane_promoted(0), Some(false));
        match late {
            LateSide::Producer => {
                let mut second = q.handle_pinned(0);
                produce(&mut second, 1, 0..1);
                s.spawn(move || produce(&mut second, 1, 1..PER_PRODUCER));
            }
            LateSide::Consumer => {
                let mut second = q.handle_pinned(0);
                if let Some(v) = second.dequeue() {
                    collected.lock().unwrap().push(v);
                    taken.fetch_add(1, Ordering::AcqRel);
                }
                s.spawn(move || consume(&mut second));
            }
        }
        produce(&mut first, 0, PER_PRODUCER / 2..PER_PRODUCER);
    });
    let mut expected: Vec<u64> = (0..producers)
        .flat_map(|id| (0..PER_PRODUCER).map(move |seq| (id << 40) | seq))
        .collect();
    expected.sort_unstable();
    let mut collected = collected.into_inner().unwrap();
    collected.sort_unstable();
    assert_eq!(collected, expected, "values lost or duplicated");
    assert_eq!(q.len(), Some(0));
    assert_eq!(
        q.lane_promoted(0),
        Some(true),
        "a second registrant on the single side must promote"
    );
}

#[test]
fn promotion_mid_stream_spsc_lane_conserves_values() {
    promotion_mid_stream(
        ShardedConfig::with_lanes(1).spsc_fast_path(),
        LateSide::Producer,
    );
}

#[test]
fn promotion_mid_stream_mpsc_lane_conserves_values() {
    promotion_mid_stream(
        ShardedConfig::with_lanes(1).mpsc_fast_path(),
        LateSide::Consumer,
    );
}

#[test]
fn promotion_mid_stream_spmc_lane_conserves_values() {
    promotion_mid_stream(
        ShardedConfig::with_lanes(1).spmc_fast_path(),
        LateSide::Producer,
    );
}
