//! `pipe`: one producer thread feeds one consumer thread through a
//! one-lane `ShardedQueue<CasQueue>` with `LanePolicy::MpscFastPath` and
//! pinned handles — the broker's topic lane without the async, executor
//! and network layers. One item in [`STAMP_EVERY`] carries a send stamp.

use crate::check::{failures, Tally};
use crate::measure::{ratio, stamp, Counter, Item, Pause, Phase, Quantiles, Samples};
use crate::RigOut;
use nbq_core::{CasQueue, ShardedConfig, ShardedQueue};
use nbq_util::QueueHandle;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Lane capacity of `pipe`, `async-pipe` and the broker's topic lane:
/// small, so that a stalled side blocks the other within a few items and
/// both sides of `async-pipe` park.
pub const CAPACITY: usize = 8;
const WARM: u64 = 200_000;
const STAMP_EVERY: u64 = 64;
/// Traced runs time one queue call in this many.
const TIME_EVERY: u64 = 8;

pub type Lane = ShardedQueue<Item, CasQueue<Item>>;

/// The broker's topic-lane configuration: one `MpscFastPath` lane.
pub fn fast_lane() -> Lane {
    ShardedQueue::with_config(ShardedConfig::with_lanes(1).mpsc_fast_path(), |_| {
        CasQueue::with_capacity(CAPACITY)
    })
}

#[derive(Default)]
struct Side {
    spans: Option<Samples>,
    calls: u64,
    misses: u64,
    stalled: bool,
}

struct Ends {
    sent: AtomicU64,
    done: AtomicBool,
}

pub fn rig(seed: u64, traced: bool, seconds: f64) -> RigOut {
    let start = Instant::now();
    let anchor = start;
    let queue = fast_lane();
    let phase = Phase::default();
    let progress = Counter::default();
    let ends = Ends {
        sent: AtomicU64::new(0),
        done: AtomicBool::new(false),
    };
    let (setup_s, items, window_s, producer, (consumer, tally, latency, corrupt)) =
        std::thread::scope(|s| {
            let (q, phase, progress, ends) = (&queue, &phase, &progress, &ends);
            let producer = s.spawn(move || {
                crate::pin::pin_current(0);
                let mut h = q.handle_pinned(0);
                let mut side = Side {
                    spans: traced.then(Samples::new),
                    ..Side::default()
                };
                let mut pause = Pause::new();
                let mut seq = 0u64;
                while !phase.stopped() {
                    let timing = phase.timing();
                    let sent_ns = if seq.is_multiple_of(STAMP_EVERY) {
                        stamp(anchor)
                    } else {
                        0
                    };
                    let mut item = Item::new(seed, seq, sent_ns);
                    loop {
                        side.calls += u64::from(timing);
                        let timed = timing && traced && side.calls.is_multiple_of(TIME_EVERY);
                        let t0 = timed.then(Instant::now);
                        let r = h.enqueue(item);
                        if let (Some(t0), Some(s)) = (t0, side.spans.as_mut()) {
                            s.record(t0.elapsed());
                        }
                        match r {
                            Ok(()) => break,
                            Err(full) => item = full.into_inner(),
                        }
                        side.misses += u64::from(timing);
                        if !pause.wait() {
                            side.stalled = true;
                            break;
                        }
                    }
                    if side.stalled {
                        break;
                    }
                    pause.reset();
                    seq += 1;
                    progress.set(seq);
                    if seq == WARM {
                        phase.arrive();
                    }
                }
                if seq < WARM {
                    phase.arrive();
                }
                ends.sent.store(seq, Ordering::Release);
                ends.done.store(true, Ordering::Release);
                side
            });
            let consumer = s.spawn(move || {
                crate::pin::pin_current(1);
                let mut h = q.handle_pinned(0);
                let mut side = Side {
                    spans: traced.then(Samples::new),
                    ..Side::default()
                };
                let mut tally = Tally::new(1);
                let mut latency = Samples::new();
                let mut corrupt = 0u64;
                let mut pause = Pause::new();
                let mut received = 0u64;
                loop {
                    let timing = phase.timing();
                    side.calls += u64::from(timing);
                    let timed = timing && traced && side.calls.is_multiple_of(TIME_EVERY);
                    let t0 = timed.then(Instant::now);
                    let r = h.dequeue();
                    if let (Some(t0), Some(s)) = (t0, side.spans.as_mut()) {
                        s.record(t0.elapsed());
                    }
                    if let Some(item) = r {
                        pause.reset();
                        corrupt += u64::from(!item.intact(seed));
                        tally.observe(0, item.seq);
                        if timing && item.seq.is_multiple_of(STAMP_EVERY) {
                            latency.record_ns(stamp(anchor).saturating_sub(item.sent_ns));
                        }
                        received += 1;
                        if received == WARM {
                            phase.arrive();
                        }
                        continue;
                    }
                    side.misses += u64::from(timing);
                    if ends.done.load(Ordering::Acquire)
                        && received >= ends.sent.load(Ordering::Acquire)
                    {
                        break;
                    }
                    if !pause.wait() {
                        side.stalled = true;
                        break;
                    }
                }
                if received < WARM {
                    phase.arrive();
                }
                (side, tally, latency, corrupt)
            });
            phase.wait_ready(2);
            let setup_s = start.elapsed().as_secs_f64();
            let (items, window_s) = phase.window(seconds, || progress.get());
            let producer = producer.join().expect("pipe producer panicked");
            let consumer = consumer.join().expect("pipe consumer panicked");
            (setup_s, items, window_s, producer, consumer)
        });

    let sent = ends.sent.load(Ordering::Acquire);
    let stalls = u64::from(producer.stalled) + u64::from(consumer.stalled);
    let mut layers = Vec::new();
    if traced {
        let enq = Quantiles::of(producer.spans.as_ref());
        let deq = Quantiles::of(consumer.spans.as_ref());
        let promoted = (0..queue.lanes())
            .filter(|&i| queue.lane_promoted(i) == Some(true))
            .count();
        layers = vec![
            ("core.sharded.enqueue_ns_p50", enq.p50_ns),
            ("core.sharded.dequeue_ns_p50", deq.p50_ns),
            (
                "core.sharded.full_frac",
                ratio(producer.misses as f64, producer.calls as f64),
            ),
            (
                "core.sharded.empty_frac",
                ratio(consumer.misses as f64, consumer.calls as f64),
            ),
            ("core.sharded.lanes_promoted", promoted as f64),
        ];
    }
    RigOut {
        setup_s,
        attempted: sent,
        failed: failures(&[sent], &[tally]) + corrupt + stalls,
        items,
        window_s,
        latency: Quantiles::of([&latency]),
        layers,
    }
}
