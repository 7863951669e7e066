//! Measurement plumbing shared by the workloads: sample buffers, run
//! phases, the spin-then-yield pause, and the item type of the pipes.

use crate::check::mix64;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Latency samples in a fixed buffer. When the buffer fills, every other
/// sample is dropped and the recording stride doubles, so the samples
/// stay spread over the whole run and memory stays fixed (the buffer is
/// touched up front, so it adds a constant to the peak RSS).
pub struct Samples {
    buf: Vec<u32>,
    len: usize,
    stride: u32,
    tick: u32,
}

impl Samples {
    /// Buffer size: between 2^14 and 2^15 samples per recording thread
    /// and rig once the window has filled it, so a rig's p99 has more
    /// than 160 samples beyond it.
    const CAPACITY: usize = 1 << 15;

    pub fn new() -> Samples {
        Samples {
            // A non-zero fill writes every page now, where a zeroed
            // allocation would fault them in during the timed window.
            buf: vec![u32::MAX; Self::CAPACITY],
            len: 0,
            stride: 1,
            tick: 0,
        }
    }

    #[inline]
    pub fn record_ns(&mut self, ns: u64) {
        self.tick += 1;
        if self.tick < self.stride {
            return;
        }
        self.tick = 0;
        if self.len == self.buf.len() {
            for i in 0..self.len / 2 {
                self.buf[i] = self.buf[2 * i + 1];
            }
            self.len /= 2;
            self.stride *= 2;
        }
        self.buf[self.len] = u32::try_from(ns).unwrap_or(u32::MAX);
        self.len += 1;
    }

    #[inline]
    pub fn record(&mut self, d: Duration) {
        self.record_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }
}

/// Nearest-rank quantiles of merged sample sets, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quantiles {
    pub p50_ns: f64,
    pub p99_ns: f64,
    pub count: usize,
}

impl Quantiles {
    pub fn of<'a>(sets: impl IntoIterator<Item = &'a Samples>) -> Quantiles {
        let mut all: Vec<u32> = Vec::new();
        for s in sets {
            all.extend_from_slice(&s.buf[..s.len]);
        }
        if all.is_empty() {
            return Quantiles::default();
        }
        all.sort_unstable();
        let rank = |q: f64| {
            let i = (q * all.len() as f64).ceil() as usize;
            f64::from(all[i.clamp(1, all.len()) - 1])
        };
        Quantiles {
            p50_ns: rank(0.50),
            p99_ns: rank(0.99),
            count: all.len(),
        }
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The phases of one rig: workers warm up and `arrive`; the main thread
/// waits for all of them, opens the timed window with `go`, and ends
/// everything with `stop`. A rig with a zero-length window stops at once.
#[derive(Default)]
pub struct Phase {
    ready: AtomicUsize,
    go: AtomicBool,
    stop: AtomicBool,
}

impl Phase {
    /// A worker finished its warm-up pass.
    pub fn arrive(&self) {
        self.ready.fetch_add(1, Ordering::SeqCst);
    }

    pub fn wait_ready(&self, workers: usize) {
        while self.ready.load(Ordering::SeqCst) < workers {
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// Inside the timed window: record spans and latencies.
    #[inline]
    pub fn timing(&self) -> bool {
        self.go.load(Ordering::Relaxed) && !self.stopped()
    }

    #[inline]
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Runs the timed window for `seconds` and stops the rig. Returns the
    /// growth of `progress` over the window and the window's length.
    pub fn window(&self, seconds: f64, progress: impl Fn() -> u64) -> (u64, f64) {
        if seconds <= 0.0 {
            self.stop.store(true, Ordering::SeqCst);
            return (0, 0.0);
        }
        let start = Instant::now();
        self.go.store(true, Ordering::SeqCst);
        let before = progress();
        std::thread::sleep(Duration::from_secs_f64(seconds));
        let after = progress();
        let elapsed = start.elapsed().as_secs_f64();
        self.stop.store(true, Ordering::SeqCst);
        (after - before, elapsed)
    }
}

/// A progress counter on its own cache line, written by one worker.
#[derive(Default)]
#[repr(align(128))]
pub struct Counter(AtomicU64);

impl Counter {
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Waits out a full or empty queue: spins briefly, then yields. Reports a
/// stall once one wait has lasted [`Pause::GIVE_UP`], which in a
/// closed-loop run of healthy code means an item was lost.
pub struct Pause {
    spins: u32,
    since: Option<Instant>,
}

impl Pause {
    const SPINS: u32 = 64;
    const GIVE_UP: Duration = Duration::from_secs(10);

    pub fn new() -> Pause {
        Pause {
            spins: 0,
            since: None,
        }
    }

    /// Returns `false` once the wait has stalled.
    #[inline]
    pub fn wait(&mut self) -> bool {
        if self.spins < Self::SPINS {
            self.spins += 1;
            std::hint::spin_loop();
            return true;
        }
        std::thread::yield_now();
        self.spins += 1;
        if self.spins.is_multiple_of(1024) {
            let since = *self.since.get_or_insert_with(Instant::now);
            return since.elapsed() < Self::GIVE_UP;
        }
        true
    }

    #[inline]
    pub fn reset(&mut self) {
        self.spins = 0;
        self.since = None;
    }
}

/// Nanoseconds since `anchor`, for stamping items in flight.
#[inline]
pub fn stamp(anchor: Instant) -> u64 {
    u64::try_from(anchor.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One item of the single-producer pipes: its seq, a tag derived from
/// the run's seed (checked on receipt), and its send stamp.
pub struct Item {
    pub seq: u64,
    pub tag: u64,
    pub sent_ns: u64,
}

impl Item {
    #[inline]
    pub fn new(seed: u64, seq: u64, sent_ns: u64) -> Item {
        Item {
            seq,
            tag: mix64(seed ^ seq),
            sent_ns,
        }
    }

    #[inline]
    pub fn intact(&self, seed: u64) -> bool {
        self.tag == mix64(seed ^ self.seq)
    }
}

/// Shifts the heap layout of the rig built next by holding a block of a
/// seed-chosen size while it lives (after Curtsinger and Berger's
/// Stabilizer, ASPLOS 2013). The hot lines of a small ring are few, and
/// where they land (cache sets, the L3 slice that homes them) moved a
/// whole run's throughput by ~20% when every rig reused one layout;
/// shifting it per rig makes a run average over layouts instead.
pub fn layout_shift(seed: u64, rig: usize) -> Vec<u8> {
    let lines = 1 + mix64(seed ^ rig as u64) % 512;
    std::hint::black_box(vec![1u8; 64 * lines as usize])
}

/// The process high-water resident memory (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
