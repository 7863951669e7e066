//! `mix`: the paper's §6 loop. Two threads share one `CasQueue`
//! (Algorithm 2, default pool); every iteration is 5 enqueues then 5
//! dequeues. Latency is the time of one iteration.

use crate::check::{failures, Tally};
use crate::measure::{ratio, Counter, Pause, Phase, Quantiles, Samples};
use crate::RigOut;
use nbq_core::CasQueue;
use nbq_util::QueueHandle;
use std::sync::atomic::Ordering;
use std::time::Instant;

const THREADS: usize = 2;
const CAPACITY: usize = 4096;
const BURST: u64 = 5;
const WARM_ITERS: u64 = 20_000;
/// Traced runs time one queue call in this many.
const TIME_EVERY: u64 = 8;
const SEQ_BITS: u32 = 48;

#[derive(Default)]
struct Spans {
    enqueue: Option<Samples>,
    dequeue: Option<Samples>,
    dequeues: u64,
    empties: u64,
}

struct WorkerOut {
    sent: u64,
    stalled: bool,
    tally: Tally,
    iteration: Samples,
    spans: Spans,
}

/// Raw `OpStats` counters: operations, slot CAS attempts, index CAS
/// attempts, index CAS successes, helps, backoff snoozes.
fn op_counters(q: &CasQueue<u64>) -> [u64; 6] {
    q.stats().map_or([0; 6], |s| {
        [
            &s.operations,
            &s.slot_cas_attempts,
            &s.index_cas_attempts,
            &s.index_cas_successes,
            &s.helps,
            &s.backoff_snoozes,
        ]
        .map(|c| c.load(Ordering::Relaxed))
    })
}

pub fn rig(traced: bool, seconds: f64) -> RigOut {
    let start = Instant::now();
    let queue = if traced {
        CasQueue::<u64>::with_stats(CAPACITY)
    } else {
        CasQueue::<u64>::with_capacity(CAPACITY)
    };
    let phase = Phase::default();
    let progress: [Counter; THREADS] = Default::default();
    let (setup_s, items, window_s, before, after, outs) = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (queue, phase, progress) = (&queue, &phase, &progress[t]);
                s.spawn(move || worker(t, queue, phase, progress, traced))
            })
            .collect();
        phase.wait_ready(THREADS);
        let setup_s = start.elapsed().as_secs_f64();
        let before = op_counters(&queue);
        let (iters, window_s) = phase.window(seconds, || progress.iter().map(Counter::get).sum());
        let after = op_counters(&queue);
        let outs: Vec<WorkerOut> = workers
            .into_iter()
            .map(|w| w.join().expect("mix worker panicked"))
            .collect();
        (setup_s, iters * BURST, window_s, before, after, outs)
    });

    let sent: Vec<u64> = outs.iter().map(|o| o.sent).collect();
    let tallies: Vec<Tally> = outs.iter().map(|o| o.tally.clone()).collect();
    let stalls = outs.iter().filter(|o| o.stalled).count() as u64;
    let mut layers = Vec::new();
    if traced {
        let d: Vec<f64> = (0..6).map(|i| (after[i] - before[i]) as f64).collect();
        let enq = Quantiles::of(outs.iter().filter_map(|o| o.spans.enqueue.as_ref()));
        let deq = Quantiles::of(outs.iter().filter_map(|o| o.spans.dequeue.as_ref()));
        let dequeues: u64 = outs.iter().map(|o| o.spans.dequeues).sum();
        let empties: u64 = outs.iter().map(|o| o.spans.empties).sum();
        // Handles have dropped, so the pool counters include every
        // handle's cache hits; they cover the whole rig.
        let pool = queue.pool_stats();
        let ops = op_counters(&queue)[0] as f64;
        layers = vec![
            ("core.cas_queue.enqueue_ns_p50", enq.p50_ns),
            ("core.cas_queue.enqueue_ns_p99", enq.p99_ns),
            ("core.cas_queue.dequeue_ns_p50", deq.p50_ns),
            ("core.cas_queue.dequeue_ns_p99", deq.p99_ns),
            (
                "core.cas_queue.empty_frac",
                ratio(empties as f64, dequeues as f64),
            ),
            ("core.cas_queue.slot_cas_per_op", ratio(d[1], d[0])),
            (
                "core.cas_queue.index_cas_fail_frac",
                ratio(d[2] - d[3], d[2]),
            ),
            ("core.cas_queue.helps_per_op", ratio(d[4], d[0])),
            ("core.cas_queue.backoff_snoozes_per_op", ratio(d[5], d[0])),
            (
                "util.pool.recycle_frac",
                ratio(pool.recycled as f64, (pool.recycled + pool.fresh) as f64),
            ),
            (
                "util.pool.spills_per_kop",
                ratio(1000.0 * pool.spills as f64, ops),
            ),
        ];
    }
    RigOut {
        setup_s,
        attempted: sent.iter().sum(),
        failed: failures(&sent, &tallies) + stalls,
        items,
        window_s,
        latency: Quantiles::of(outs.iter().map(|o| &o.iteration)),
        layers,
    }
}

fn worker(
    t: usize,
    queue: &CasQueue<u64>,
    phase: &Phase,
    progress: &Counter,
    traced: bool,
) -> WorkerOut {
    crate::pin::pin_current(t);
    let mut h = queue.handle();
    let mut out = WorkerOut {
        sent: 0,
        stalled: false,
        tally: Tally::new(THREADS),
        iteration: Samples::new(),
        spans: Spans {
            enqueue: traced.then(Samples::new),
            dequeue: traced.then(Samples::new),
            ..Spans::default()
        },
    };
    let mut pause = Pause::new();
    let mut calls: u64 = 0;
    let mut iters: u64 = 0;
    let mut last = Instant::now();
    'run: while !phase.stopped() {
        let timing = phase.timing();
        for _ in 0..BURST {
            let value = (t as u64) << SEQ_BITS | out.sent;
            loop {
                calls += 1;
                let timed = timing && traced && calls.is_multiple_of(TIME_EVERY);
                let t0 = timed.then(Instant::now);
                let r = h.enqueue(value);
                if let (Some(t0), Some(s)) = (t0, out.spans.enqueue.as_mut()) {
                    s.record(t0.elapsed());
                }
                if r.is_ok() {
                    break;
                }
                if !pause.wait() {
                    out.stalled = true;
                    break 'run;
                }
            }
            pause.reset();
            out.sent += 1;
        }
        for _ in 0..BURST {
            loop {
                calls += 1;
                let timed = timing && traced && calls.is_multiple_of(TIME_EVERY);
                let t0 = timed.then(Instant::now);
                let r = h.dequeue();
                if let (Some(t0), Some(s)) = (t0, out.spans.dequeue.as_mut()) {
                    s.record(t0.elapsed());
                }
                if timing {
                    out.spans.dequeues += 1;
                }
                if let Some(v) = r {
                    out.tally
                        .observe((v >> SEQ_BITS) as usize, v & ((1 << SEQ_BITS) - 1));
                    break;
                }
                if timing {
                    out.spans.empties += 1;
                }
                if !pause.wait() {
                    out.stalled = true;
                    break 'run;
                }
            }
            pause.reset();
        }
        iters += 1;
        progress.set(iters);
        if iters == WARM_ITERS {
            phase.arrive();
        }
        let now = Instant::now();
        if timing {
            out.iteration.record(now - last);
        }
        last = now;
    }
    if iters < WARM_ITERS {
        // Stalled during warm-up: release the main thread's wait.
        phase.arrive();
    }
    out
}
