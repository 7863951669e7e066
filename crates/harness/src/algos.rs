//! Algorithm registry: every queue the experiments drive, keyed by an
//! enum so the `repro` binary and the Criterion benches share one list.

use crate::workload::{
    run_workload, run_workload_async, run_workload_fan, run_workload_fan_in_pinned,
    run_workload_fan_out_pinned, run_workload_pipe, run_workload_pipe_pinned, WorkloadConfig,
};
use nbq_baselines::{
    MsDohertyQueue, MsQueue, MutexQueue, ScanMode, ScqQueue, SeqQueue, ShannQueue,
    TsigasZhangQueue, WcqQueue,
};
use nbq_core::{
    CasQueue, CasQueueConfig, GatePolicy, LlScQueue, LlScQueueConfig, MpscRing, ShardedConfig,
    ShardedQueue, SpmcRing, SpscRing,
};
use nbq_util::stats::Summary;
use nbq_util::{ConcurrentQueue, Full, QueueHandle, QueueKind};

/// Every benchmarkable algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Paper Algorithm 2 (Fig. 5).
    CasQueue,
    /// Paper Algorithm 1 (Fig. 3) over the strong LL/SC emulation.
    LlScQueue,
    /// Michael–Scott + hazard pointers, sorted scan.
    MsHpSorted,
    /// Michael–Scott + hazard pointers, linear scan.
    MsHpUnsorted,
    /// Michael–Scott over Doherty-style LL/SC.
    MsDoherty,
    /// Shann et al. wide-CAS array queue.
    Shann,
    /// Tsigas–Zhang-style array queue (extension).
    TsigasZhang,
    /// Lock-based contrast.
    Mutex,
    /// Unsynchronized single-thread baseline (overhead experiment only).
    Sequential,
    /// Herlihy–Wing "infinite array" queue (related-work extension).
    HerlihyWing,
    /// Valois-style array queue over software DCAS (related-work
    /// extension).
    Valois,
    /// Treiber's 1986 queue: 1-CAS enqueue, O(n)-walk dequeue
    /// (related-work extension).
    Treiber,
    /// Ladan-Mozes & Shavit's optimistic doubly-linked queue
    /// (related-work extension).
    Lms,
    /// Nikolaev's SCQ cycle-tagged ring (modern-rival extension).
    Scq,
    /// wCQ helping-based ring, the wait-free SCQ successor (modern-rival
    /// extension).
    Wcq,
    /// crossbeam's bounded `ArrayQueue` (modern comparator extension).
    CrossbeamArray,
    /// crossbeam's unbounded `SegQueue` (modern comparator extension).
    CrossbeamSeg,
    /// Sharded relaxed-FIFO frontend over `lanes` CAS-queue lanes
    /// (scaling extension; total capacity split across lanes).
    ShardedCas {
        /// Number of independent lanes.
        lanes: usize,
    },
    /// Sharded relaxed-FIFO frontend over `lanes` LL/SC-queue lanes.
    ShardedLlsc {
        /// Number of independent lanes.
        lanes: usize,
    },
    /// Async channel frontend (`nbq-async`) over the CAS queue, one tokio
    /// task per paper thread (async extension).
    AsyncCas,
    /// Async channel frontend over the LL/SC queue.
    AsyncLlsc,
    /// Async channel frontend over a sharded CAS-lane queue.
    AsyncSharded {
        /// Number of independent lanes.
        lanes: usize,
    },
    /// The wait-free SPSC ring on a 2-thread pipe (1 producer, 1
    /// consumer) — the only arrangement the raw ring admits.
    SpscRingPipe,
    /// The paper's CAS queue on the split-role pipe workload (MPMC
    /// machinery paying full price for a 1p/1c-shaped load).
    SpscCasPipe,
    /// The paper's LL/SC queue on the split-role pipe workload.
    SpscLlscPipe,
    /// Sharded frontend with SPSC fast-path lanes, driven by pinned
    /// producer/consumer pairs (one pair per lane keeps every lane on its
    /// wait-free ring).
    ShardedMixed {
        /// Number of independent lanes.
        lanes: usize,
    },
    /// Control for [`Algo::ShardedMixed`]: identical pinned-pair pipe,
    /// but plain MPMC lanes (no rings) — isolates the fast path's gain.
    ShardedPinned {
        /// Number of independent lanes.
        lanes: usize,
    },
    /// The raw wait-free-consumer MPSC ring on the fan-in workload
    /// (`threads - 1` FAA-ticketed producers, one claimed consumer).
    MpscRingFan,
    /// The raw wait-free-producer SPMC ring on the fan-out workload (one
    /// claimed producer, `threads - 1` FAA-arbitrated consumers).
    SpmcRingFan,
    /// The paper's CAS queue on the fan-in shape (MPMC machinery paying
    /// full price for an Np/1c-shaped load).
    FanInCas,
    /// The paper's CAS queue on the fan-out shape.
    FanOutCas,
    /// Sharded frontend with MPSC fast-path lanes on the pinned fan-in
    /// workload: one consumer per lane keeps every lane wait-free on its
    /// consumer side while producers fan in over the FAA ticket.
    ShardedMpsc {
        /// Number of independent lanes.
        lanes: usize,
    },
    /// Sharded frontend with SPMC fast-path lanes on the pinned fan-out
    /// workload: one producer per lane stays wait-free while consumers
    /// fan out over the FAA drain ticket.
    ShardedSpmc {
        /// Number of independent lanes.
        lanes: usize,
    },
    /// Control for [`Algo::ShardedMpsc`]: identical pinned fan-in, but
    /// plain MPMC lanes (no rings) — isolates the MPSC ring's gain.
    ShardedFanInCtl {
        /// Number of independent lanes.
        lanes: usize,
    },
    /// Control for [`Algo::ShardedSpmc`]: identical pinned fan-out over
    /// plain MPMC lanes.
    ShardedFanOutCtl {
        /// Number of independent lanes.
        lanes: usize,
    },
}

impl Algo {
    /// Display name matching the paper's figure legends where applicable.
    pub fn name(self) -> &'static str {
        match self {
            Algo::CasQueue => "FIFO Array Simulated CAS",
            Algo::LlScQueue => "FIFO Array LL/SC",
            Algo::MsHpSorted => "MS-Hazard Pointers Sorted",
            Algo::MsHpUnsorted => "MS-Hazard Pointers Not Sorted",
            Algo::MsDoherty => "MS-Doherty et al.",
            Algo::Shann => "Shann et al. (CAS64)",
            Algo::TsigasZhang => "Tsigas-Zhang style",
            Algo::Mutex => "Mutex<VecDeque>",
            Algo::Sequential => "Sequential (unsynchronized)",
            Algo::HerlihyWing => "Herlihy-Wing array",
            Algo::Valois => "Valois (software DCAS)",
            Algo::Treiber => "Treiber 1986",
            Algo::Lms => "Ladan-Mozes/Shavit optimistic",
            Algo::Scq => "SCQ (Nikolaev)",
            Algo::Wcq => "wCQ (helping ring)",
            Algo::CrossbeamArray => "crossbeam ArrayQueue",
            Algo::CrossbeamSeg => "crossbeam SegQueue",
            Algo::ShardedCas { lanes } => match lanes {
                1 => "Sharded CAS x1",
                2 => "Sharded CAS x2",
                4 => "Sharded CAS x4",
                8 => "Sharded CAS x8",
                16 => "Sharded CAS x16",
                _ => "Sharded CAS",
            },
            Algo::ShardedLlsc { lanes } => match lanes {
                1 => "Sharded LL/SC x1",
                2 => "Sharded LL/SC x2",
                4 => "Sharded LL/SC x4",
                8 => "Sharded LL/SC x8",
                16 => "Sharded LL/SC x16",
                _ => "Sharded LL/SC",
            },
            Algo::AsyncCas => "Async CAS frontend",
            Algo::AsyncLlsc => "Async LL/SC frontend",
            Algo::AsyncSharded { lanes } => match lanes {
                1 => "Async Sharded CAS x1",
                2 => "Async Sharded CAS x2",
                4 => "Async Sharded CAS x4",
                8 => "Async Sharded CAS x8",
                16 => "Async Sharded CAS x16",
                _ => "Async Sharded CAS",
            },
            Algo::SpscRingPipe => "Wait-free SPSC ring (pipe)",
            Algo::SpscCasPipe => "FIFO Array Simulated CAS (pipe)",
            Algo::SpscLlscPipe => "FIFO Array LL/SC (pipe)",
            Algo::ShardedMixed { lanes } => match lanes {
                1 => "Sharded mixed SPSC x1",
                2 => "Sharded mixed SPSC x2",
                4 => "Sharded mixed SPSC x4",
                8 => "Sharded mixed SPSC x8",
                16 => "Sharded mixed SPSC x16",
                _ => "Sharded mixed SPSC",
            },
            Algo::ShardedPinned { lanes } => match lanes {
                1 => "Sharded pinned MPMC x1",
                2 => "Sharded pinned MPMC x2",
                4 => "Sharded pinned MPMC x4",
                8 => "Sharded pinned MPMC x8",
                16 => "Sharded pinned MPMC x16",
                _ => "Sharded pinned MPMC",
            },
            Algo::MpscRingFan => "Wait-free MPSC ring (fan-in)",
            Algo::SpmcRingFan => "Wait-free SPMC ring (fan-out)",
            Algo::FanInCas => "FIFO Array Simulated CAS (fan-in)",
            Algo::FanOutCas => "FIFO Array Simulated CAS (fan-out)",
            Algo::ShardedMpsc { lanes } => match lanes {
                1 => "Sharded MPSC fan-in x1",
                2 => "Sharded MPSC fan-in x2",
                4 => "Sharded MPSC fan-in x4",
                8 => "Sharded MPSC fan-in x8",
                _ => "Sharded MPSC fan-in",
            },
            Algo::ShardedSpmc { lanes } => match lanes {
                1 => "Sharded SPMC fan-out x1",
                2 => "Sharded SPMC fan-out x2",
                4 => "Sharded SPMC fan-out x4",
                8 => "Sharded SPMC fan-out x8",
                _ => "Sharded SPMC fan-out",
            },
            Algo::ShardedFanInCtl { lanes } => match lanes {
                1 => "Sharded pinned MPMC fan-in x1",
                2 => "Sharded pinned MPMC fan-in x2",
                4 => "Sharded pinned MPMC fan-in x4",
                8 => "Sharded pinned MPMC fan-in x8",
                _ => "Sharded pinned MPMC fan-in",
            },
            Algo::ShardedFanOutCtl { lanes } => match lanes {
                1 => "Sharded pinned MPMC fan-out x1",
                2 => "Sharded pinned MPMC fan-out x2",
                4 => "Sharded pinned MPMC fan-out x4",
                8 => "Sharded pinned MPMC fan-out x8",
                _ => "Sharded pinned MPMC fan-out",
            },
        }
    }

    /// Capability envelope of the queue as the harness drives it — the
    /// kind column in report tables. Sharded fast-path entries report the
    /// per-lane kind their workload keeps the lanes on; plain MPMC
    /// machinery reports [`QueueKind::mpmc`].
    pub fn kind(self) -> QueueKind {
        match self {
            Algo::SpscRingPipe | Algo::ShardedMixed { .. } => QueueKind::spsc_wait_free(),
            Algo::MpscRingFan | Algo::ShardedMpsc { .. } => QueueKind::mpsc_wait_free(),
            Algo::SpmcRingFan | Algo::ShardedSpmc { .. } => QueueKind::spmc_wait_free(),
            _ => QueueKind::mpmc(),
        }
    }

    /// Parses a CLI name (kebab-case). Sharded frontends take their lane
    /// count as a suffix: `sharded-cas-4`, `sharded-llsc-8`,
    /// `async-sharded-4`.
    pub fn parse(s: &str) -> Option<Algo> {
        if let Some(lanes) = s.strip_prefix("sharded-cas-") {
            let lanes = lanes.parse().ok().filter(|&l| l > 0)?;
            return Some(Algo::ShardedCas { lanes });
        }
        if let Some(lanes) = s.strip_prefix("sharded-llsc-") {
            let lanes = lanes.parse().ok().filter(|&l| l > 0)?;
            return Some(Algo::ShardedLlsc { lanes });
        }
        if let Some(lanes) = s.strip_prefix("async-sharded-") {
            let lanes = lanes.parse().ok().filter(|&l| l > 0)?;
            return Some(Algo::AsyncSharded { lanes });
        }
        if let Some(lanes) = s.strip_prefix("sharded-mixed-") {
            let lanes = lanes.parse().ok().filter(|&l| l > 0)?;
            return Some(Algo::ShardedMixed { lanes });
        }
        if let Some(lanes) = s.strip_prefix("sharded-pinned-") {
            let lanes = lanes.parse().ok().filter(|&l| l > 0)?;
            return Some(Algo::ShardedPinned { lanes });
        }
        if let Some(lanes) = s.strip_prefix("sharded-mpsc-") {
            let lanes = lanes.parse().ok().filter(|&l| l > 0)?;
            return Some(Algo::ShardedMpsc { lanes });
        }
        if let Some(lanes) = s.strip_prefix("sharded-spmc-") {
            let lanes = lanes.parse().ok().filter(|&l| l > 0)?;
            return Some(Algo::ShardedSpmc { lanes });
        }
        if let Some(lanes) = s.strip_prefix("sharded-fan-in-ctl-") {
            let lanes = lanes.parse().ok().filter(|&l| l > 0)?;
            return Some(Algo::ShardedFanInCtl { lanes });
        }
        if let Some(lanes) = s.strip_prefix("sharded-fan-out-ctl-") {
            let lanes = lanes.parse().ok().filter(|&l| l > 0)?;
            return Some(Algo::ShardedFanOutCtl { lanes });
        }
        Some(match s {
            "cas" | "cas-queue" => Algo::CasQueue,
            "llsc" | "llsc-queue" => Algo::LlScQueue,
            "ms-hp-sorted" => Algo::MsHpSorted,
            "ms-hp-unsorted" => Algo::MsHpUnsorted,
            "ms-doherty" => Algo::MsDoherty,
            "shann" => Algo::Shann,
            "tsigas-zhang" | "tz" => Algo::TsigasZhang,
            "mutex" => Algo::Mutex,
            "seq" | "sequential" => Algo::Sequential,
            "herlihy-wing" | "hw" => Algo::HerlihyWing,
            "valois" => Algo::Valois,
            "treiber" => Algo::Treiber,
            "lms" | "optimistic" => Algo::Lms,
            "scq" => Algo::Scq,
            "wcq" => Algo::Wcq,
            "crossbeam-array" => Algo::CrossbeamArray,
            "crossbeam-seg" => Algo::CrossbeamSeg,
            "async-cas" => Algo::AsyncCas,
            "async-llsc" => Algo::AsyncLlsc,
            "spsc-ring" => Algo::SpscRingPipe,
            "spsc-cas" => Algo::SpscCasPipe,
            "spsc-llsc" => Algo::SpscLlscPipe,
            "mpsc-ring" => Algo::MpscRingFan,
            "spmc-ring" => Algo::SpmcRingFan,
            "fan-in-cas" => Algo::FanInCas,
            "fan-out-cas" => Algo::FanOutCas,
            _ => return None,
        })
    }

    /// Runs the paper workload for this algorithm.
    pub fn run(self, config: &WorkloadConfig) -> Summary {
        let cap = config.capacity;
        match self {
            Algo::CasQueue => run_workload(|| CasQueue::<u64>::with_capacity(cap), config),
            Algo::LlScQueue => run_workload(|| LlScQueue::<u64>::with_capacity(cap), config),
            Algo::MsHpSorted => run_workload(|| MsQueue::<u64>::new(ScanMode::Sorted), config),
            Algo::MsHpUnsorted => run_workload(|| MsQueue::<u64>::new(ScanMode::Unsorted), config),
            Algo::MsDoherty => run_workload(MsDohertyQueue::<u64>::new, config),
            Algo::Shann => run_workload(|| ShannQueue::<u64>::with_capacity(cap), config),
            Algo::TsigasZhang => {
                // TZ is only correct while no node address re-enters the
                // queue within a preemption; realize its assumption by
                // sizing the delayed-reuse window to the entire run.
                let window = config.threads * config.iterations * config.burst + 1024;
                run_workload(
                    || TsigasZhangQueue::<u64>::with_capacity_and_reuse_delay(cap, window),
                    config,
                )
            }
            Algo::Mutex => run_workload(|| MutexQueue::<u64>::with_capacity(cap), config),
            Algo::Sequential => {
                assert_eq!(
                    config.threads, 1,
                    "the sequential baseline is single-thread only"
                );
                run_workload(|| SeqQueue::<u64>::with_capacity(cap), config)
            }
            Algo::HerlihyWing => {
                // The HW queue's budget is *lifetime enqueues*; size it to
                // the whole run.
                let history = config.threads * config.iterations * config.burst + 1024;
                run_workload(
                    || nbq_baselines::HerlihyWingQueue::<u64>::with_history_capacity(history),
                    config,
                )
            }
            Algo::Valois => run_workload(
                || nbq_baselines::ValoisQueue::<u64>::with_capacity(cap),
                config,
            ),
            Algo::Treiber => run_workload(nbq_baselines::TreiberQueue::<u64>::new, config),
            Algo::Lms => run_workload(nbq_baselines::LmsQueue::<u64>::new, config),
            Algo::Scq => run_workload(|| ScqQueue::<u64>::with_capacity(cap), config),
            Algo::Wcq => run_workload(|| WcqQueue::<u64>::with_capacity(cap), config),
            Algo::CrossbeamArray => run_workload(|| CrossbeamArrayAdapter::new(cap), config),
            Algo::CrossbeamSeg => run_workload(CrossbeamSegAdapter::new, config),
            Algo::ShardedCas { lanes } => {
                let per_lane = cap.div_ceil(lanes);
                run_workload(
                    || {
                        ShardedQueue::with_lanes(lanes, |_| {
                            CasQueue::<u64>::with_capacity(per_lane)
                        })
                    },
                    config,
                )
            }
            Algo::ShardedLlsc { lanes } => {
                let per_lane = cap.div_ceil(lanes);
                run_workload(
                    || {
                        ShardedQueue::with_lanes(lanes, |_| {
                            LlScQueue::<u64>::with_capacity(per_lane)
                        })
                    },
                    config,
                )
            }
            Algo::AsyncCas => run_workload_async(|| CasQueue::<u64>::with_capacity(cap), config),
            Algo::AsyncLlsc => run_workload_async(|| LlScQueue::<u64>::with_capacity(cap), config),
            Algo::AsyncSharded { lanes } => {
                let per_lane = cap.div_ceil(lanes);
                run_workload_async(
                    || {
                        ShardedQueue::with_lanes(lanes, |_| {
                            CasQueue::<u64>::with_capacity(per_lane)
                        })
                    },
                    config,
                )
            }
            Algo::SpscRingPipe => {
                assert_eq!(
                    config.threads, 2,
                    "the raw SPSC ring admits exactly one producer and one consumer"
                );
                run_workload_pipe(|| SpscRing::<u64>::with_capacity(cap), config)
            }
            Algo::SpscCasPipe => run_workload_pipe(|| CasQueue::<u64>::with_capacity(cap), config),
            Algo::SpscLlscPipe => {
                run_workload_pipe(|| LlScQueue::<u64>::with_capacity(cap), config)
            }
            Algo::ShardedMixed { lanes } => {
                let per_lane = cap.div_ceil(lanes);
                run_workload_pipe_pinned(
                    || {
                        ShardedQueue::with_config(
                            ShardedConfig::with_lanes(lanes).spsc_fast_path(),
                            |_| CasQueue::<u64>::with_capacity(per_lane),
                        )
                    },
                    config,
                )
            }
            Algo::ShardedPinned { lanes } => {
                let per_lane = cap.div_ceil(lanes);
                run_workload_pipe_pinned(
                    || {
                        ShardedQueue::with_lanes(lanes, |_| {
                            CasQueue::<u64>::with_capacity(per_lane)
                        })
                    },
                    config,
                )
            }
            Algo::MpscRingFan => {
                assert!(config.threads >= 2, "fan-in needs producers and a consumer");
                run_workload_fan(
                    || MpscRing::<u64>::with_capacity(cap),
                    config,
                    config.threads - 1,
                )
            }
            Algo::SpmcRingFan => {
                assert!(
                    config.threads >= 2,
                    "fan-out needs a producer and consumers"
                );
                run_workload_fan(|| SpmcRing::<u64>::with_capacity(cap), config, 1)
            }
            Algo::FanInCas => run_workload_fan(
                || CasQueue::<u64>::with_capacity(cap),
                config,
                config.threads - 1,
            ),
            Algo::FanOutCas => run_workload_fan(|| CasQueue::<u64>::with_capacity(cap), config, 1),
            Algo::ShardedMpsc { lanes } => {
                let per_lane = cap.div_ceil(lanes);
                run_workload_fan_in_pinned(
                    || {
                        ShardedQueue::with_config(
                            ShardedConfig::with_lanes(lanes).mpsc_fast_path(),
                            |_| CasQueue::<u64>::with_capacity(per_lane),
                        )
                    },
                    config,
                )
            }
            Algo::ShardedSpmc { lanes } => {
                let per_lane = cap.div_ceil(lanes);
                run_workload_fan_out_pinned(
                    || {
                        ShardedQueue::with_config(
                            ShardedConfig::with_lanes(lanes).spmc_fast_path(),
                            |_| CasQueue::<u64>::with_capacity(per_lane),
                        )
                    },
                    config,
                )
            }
            Algo::ShardedFanInCtl { lanes } => {
                let per_lane = cap.div_ceil(lanes);
                run_workload_fan_in_pinned(
                    || {
                        ShardedQueue::with_lanes(lanes, |_| {
                            CasQueue::<u64>::with_capacity(per_lane)
                        })
                    },
                    config,
                )
            }
            Algo::ShardedFanOutCtl { lanes } => {
                let per_lane = cap.div_ceil(lanes);
                run_workload_fan_out_pinned(
                    || {
                        ShardedQueue::with_lanes(lanes, |_| {
                            CasQueue::<u64>::with_capacity(per_lane)
                        })
                    },
                    config,
                )
            }
        }
    }

    /// Variant of [`Algo::run`] honoring tuning overrides (ablations).
    pub fn run_tuned(self, config: &WorkloadConfig, tuning: Tuning) -> Summary {
        let cap = config.capacity;
        match self {
            Algo::CasQueue => run_workload(
                || {
                    CasQueue::<u64>::with_config(
                        cap,
                        CasQueueConfig {
                            backoff: tuning.backoff,
                            gate: tuning.gate,
                        },
                    )
                },
                config,
            ),
            Algo::LlScQueue => run_workload(
                || {
                    LlScQueue::<u64>::with_config(
                        cap,
                        LlScQueueConfig {
                            backoff: tuning.backoff,
                        },
                    )
                },
                config,
            ),
            _ => self.run(config),
        }
    }
}

/// Tuning overrides for the ablation experiments.
#[derive(Debug, Clone, Copy)]
pub struct Tuning {
    /// Exponential backoff on contended failures.
    pub backoff: bool,
    /// `LLSCvar` re-registration gate placement (CAS queue only).
    pub gate: GatePolicy,
}

impl Default for Tuning {
    fn default() -> Self {
        Self {
            backoff: true,
            gate: GatePolicy::PerLink,
        }
    }
}

/// The paper's Fig. 6(a)/(c) algorithm set (PowerPC experiment).
pub const POWERPC_SET: &[Algo] = &[
    Algo::MsDoherty,
    Algo::CasQueue,
    Algo::MsHpUnsorted,
    Algo::MsHpSorted,
    Algo::LlScQueue,
];

/// The paper's Fig. 6(b)/(d) algorithm set (AMD experiment).
pub const AMD_SET: &[Algo] = &[
    Algo::MsDoherty,
    Algo::MsHpUnsorted,
    Algo::MsHpSorted,
    Algo::CasQueue,
    Algo::Shann,
];

/// Extension set: the paper's algorithms against modern comparators.
pub const MODERN_SET: &[Algo] = &[
    Algo::CasQueue,
    Algo::LlScQueue,
    Algo::MsHpSorted,
    Algo::Scq,
    Algo::Wcq,
    Algo::Shann,
    Algo::TsigasZhang,
    Algo::HerlihyWing,
    Algo::Valois,
    Algo::Treiber,
    Algo::Lms,
    Algo::Mutex,
    Algo::CrossbeamArray,
    Algo::CrossbeamSeg,
];

// ---------------------------------------------------------------------
// crossbeam adapters

/// Bounded crossbeam queue behind the workspace trait.
pub struct CrossbeamArrayAdapter {
    inner: crossbeam::queue::ArrayQueue<u64>,
}

impl CrossbeamArrayAdapter {
    /// Creates an adapter with the given capacity.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: crossbeam::queue::ArrayQueue::new(capacity),
        }
    }
}

/// Handle for [`CrossbeamArrayAdapter`].
pub struct CrossbeamArrayHandle<'q> {
    queue: &'q crossbeam::queue::ArrayQueue<u64>,
}

impl QueueHandle<u64> for CrossbeamArrayHandle<'_> {
    fn enqueue(&mut self, value: u64) -> Result<(), Full<u64>> {
        self.queue.push(value).map_err(Full)
    }

    fn dequeue(&mut self) -> Option<u64> {
        self.queue.pop()
    }
}

impl ConcurrentQueue<u64> for CrossbeamArrayAdapter {
    type Handle<'q>
        = CrossbeamArrayHandle<'q>
    where
        Self: 'q;

    fn handle(&self) -> Self::Handle<'_> {
        CrossbeamArrayHandle { queue: &self.inner }
    }

    fn capacity(&self) -> Option<usize> {
        Some(self.inner.capacity())
    }

    fn len(&self) -> Option<usize> {
        Some(self.inner.len())
    }

    fn algorithm_name(&self) -> &'static str {
        "crossbeam ArrayQueue"
    }
}

/// Unbounded crossbeam queue behind the workspace trait.
pub struct CrossbeamSegAdapter {
    inner: crossbeam::queue::SegQueue<u64>,
}

impl CrossbeamSegAdapter {
    /// Creates an empty adapter.
    pub fn new() -> Self {
        Self {
            inner: crossbeam::queue::SegQueue::new(),
        }
    }
}

impl Default for CrossbeamSegAdapter {
    fn default() -> Self {
        Self::new()
    }
}

/// Handle for [`CrossbeamSegAdapter`].
pub struct CrossbeamSegHandle<'q> {
    queue: &'q crossbeam::queue::SegQueue<u64>,
}

impl QueueHandle<u64> for CrossbeamSegHandle<'_> {
    fn enqueue(&mut self, value: u64) -> Result<(), Full<u64>> {
        self.queue.push(value);
        Ok(())
    }

    fn dequeue(&mut self) -> Option<u64> {
        self.queue.pop()
    }
}

impl ConcurrentQueue<u64> for CrossbeamSegAdapter {
    type Handle<'q>
        = CrossbeamSegHandle<'q>
    where
        Self: 'q;

    fn handle(&self) -> Self::Handle<'_> {
        CrossbeamSegHandle { queue: &self.inner }
    }

    fn capacity(&self) -> Option<usize> {
        None
    }

    fn len(&self) -> Option<usize> {
        Some(self.inner.len())
    }

    fn algorithm_name(&self) -> &'static str {
        "crossbeam SegQueue"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> WorkloadConfig {
        WorkloadConfig {
            threads: 2,
            iterations: 25,
            runs: 1,
            capacity: 128,
            burst: 5,
        }
    }

    #[test]
    fn every_algorithm_runs_the_tiny_workload() {
        for algo in [
            Algo::CasQueue,
            Algo::LlScQueue,
            Algo::MsHpSorted,
            Algo::MsHpUnsorted,
            Algo::MsDoherty,
            Algo::Shann,
            Algo::TsigasZhang,
            Algo::HerlihyWing,
            Algo::Valois,
            Algo::Treiber,
            Algo::Lms,
            Algo::Scq,
            Algo::Wcq,
            Algo::Mutex,
            Algo::CrossbeamArray,
            Algo::CrossbeamSeg,
        ] {
            let s = algo.run(&tiny());
            assert!(s.mean > 0.0, "{} returned zero time", algo.name());
        }
    }

    #[test]
    fn sequential_runs_single_threaded() {
        let cfg = WorkloadConfig {
            threads: 1,
            ..tiny()
        };
        let s = Algo::Sequential.run(&cfg);
        assert!(s.mean > 0.0);
    }

    #[test]
    #[should_panic(expected = "single-thread only")]
    fn sequential_rejects_multi_thread() {
        Algo::Sequential.run(&tiny());
    }

    #[test]
    fn parse_round_trips_cli_names() {
        for (s, a) in [
            ("cas", Algo::CasQueue),
            ("llsc", Algo::LlScQueue),
            ("ms-hp-sorted", Algo::MsHpSorted),
            ("ms-hp-unsorted", Algo::MsHpUnsorted),
            ("ms-doherty", Algo::MsDoherty),
            ("shann", Algo::Shann),
            ("tz", Algo::TsigasZhang),
            ("mutex", Algo::Mutex),
            ("seq", Algo::Sequential),
            ("hw", Algo::HerlihyWing),
            ("valois", Algo::Valois),
            ("treiber", Algo::Treiber),
            ("lms", Algo::Lms),
            ("scq", Algo::Scq),
            ("wcq", Algo::Wcq),
            ("crossbeam-array", Algo::CrossbeamArray),
            ("crossbeam-seg", Algo::CrossbeamSeg),
            ("sharded-cas-4", Algo::ShardedCas { lanes: 4 }),
            ("sharded-llsc-2", Algo::ShardedLlsc { lanes: 2 }),
            ("sharded-cas-16", Algo::ShardedCas { lanes: 16 }),
            ("async-cas", Algo::AsyncCas),
            ("async-llsc", Algo::AsyncLlsc),
            ("async-sharded-4", Algo::AsyncSharded { lanes: 4 }),
            ("spsc-ring", Algo::SpscRingPipe),
            ("spsc-cas", Algo::SpscCasPipe),
            ("spsc-llsc", Algo::SpscLlscPipe),
            ("sharded-mixed-2", Algo::ShardedMixed { lanes: 2 }),
            ("sharded-pinned-4", Algo::ShardedPinned { lanes: 4 }),
            ("mpsc-ring", Algo::MpscRingFan),
            ("spmc-ring", Algo::SpmcRingFan),
            ("fan-in-cas", Algo::FanInCas),
            ("fan-out-cas", Algo::FanOutCas),
            ("sharded-mpsc-2", Algo::ShardedMpsc { lanes: 2 }),
            ("sharded-spmc-4", Algo::ShardedSpmc { lanes: 4 }),
            ("sharded-fan-in-ctl-2", Algo::ShardedFanInCtl { lanes: 2 }),
            ("sharded-fan-out-ctl-2", Algo::ShardedFanOutCtl { lanes: 2 }),
        ] {
            assert_eq!(Algo::parse(s), Some(a));
        }
        assert_eq!(Algo::parse("nope"), None);
        assert_eq!(Algo::parse("sharded-cas-0"), None, "zero lanes rejected");
        assert_eq!(Algo::parse("sharded-cas-x"), None);
        assert_eq!(Algo::parse("async-sharded-0"), None, "zero lanes rejected");
        assert_eq!(Algo::parse("sharded-mixed-0"), None, "zero lanes rejected");
        assert_eq!(Algo::parse("sharded-pinned-x"), None);
        assert_eq!(Algo::parse("sharded-mpsc-0"), None, "zero lanes rejected");
    }

    #[test]
    fn sharded_algos_run_the_tiny_workload() {
        for algo in [
            Algo::ShardedCas { lanes: 2 },
            Algo::ShardedCas { lanes: 4 },
            Algo::ShardedLlsc { lanes: 2 },
        ] {
            let s = algo.run(&tiny());
            assert!(s.mean > 0.0, "{} returned zero time", algo.name());
        }
    }

    #[test]
    fn pipe_algos_run_the_tiny_workload() {
        for algo in [
            Algo::SpscRingPipe,
            Algo::SpscCasPipe,
            Algo::SpscLlscPipe,
            Algo::ShardedMixed { lanes: 1 },
            Algo::ShardedPinned { lanes: 1 },
        ] {
            let s = algo.run(&tiny());
            assert!(s.mean > 0.0, "{} returned zero time", algo.name());
        }
    }

    #[test]
    fn pipe_algos_run_with_multiple_pairs() {
        let cfg = WorkloadConfig {
            threads: 4,
            ..tiny()
        };
        for algo in [
            Algo::SpscCasPipe,
            Algo::ShardedMixed { lanes: 2 },
            Algo::ShardedPinned { lanes: 2 },
        ] {
            let s = algo.run(&cfg);
            assert!(s.mean > 0.0, "{} returned zero time", algo.name());
        }
    }

    #[test]
    fn fan_algos_run_the_tiny_workload() {
        // 4 threads: 3p/1c fan-in, 1p/3c fan-out, and 2-lane pinned fans
        // (one single-side endpoint per lane + one multi-side per lane).
        let cfg = WorkloadConfig {
            threads: 4,
            ..tiny()
        };
        for algo in [
            Algo::MpscRingFan,
            Algo::SpmcRingFan,
            Algo::FanInCas,
            Algo::FanOutCas,
            Algo::ShardedMpsc { lanes: 2 },
            Algo::ShardedSpmc { lanes: 2 },
            Algo::ShardedFanInCtl { lanes: 2 },
            Algo::ShardedFanOutCtl { lanes: 2 },
        ] {
            let s = algo.run(&cfg);
            assert!(s.mean > 0.0, "{} returned zero time", algo.name());
        }
    }

    #[test]
    fn kind_reports_the_workload_envelope() {
        assert_eq!(Algo::MpscRingFan.kind(), QueueKind::mpsc_wait_free());
        assert_eq!(Algo::SpmcRingFan.kind(), QueueKind::spmc_wait_free());
        assert_eq!(
            Algo::ShardedMpsc { lanes: 2 }.kind(),
            QueueKind::mpsc_wait_free()
        );
        assert_eq!(
            Algo::ShardedMixed { lanes: 2 }.kind(),
            QueueKind::spsc_wait_free()
        );
        assert_eq!(Algo::FanInCas.kind(), QueueKind::mpmc());
        assert_eq!(Algo::CasQueue.kind(), QueueKind::mpmc());
        // The Display impl drives the kind column in report tables.
        assert_eq!(Algo::MpscRingFan.kind().to_string(), "mpsc+wf");
        assert_eq!(Algo::CasQueue.kind().to_string(), "mpmc");
    }

    #[test]
    #[should_panic(expected = "exactly one producer and one consumer")]
    fn raw_ring_pipe_rejects_more_than_two_threads() {
        let cfg = WorkloadConfig {
            threads: 4,
            ..tiny()
        };
        Algo::SpscRingPipe.run(&cfg);
    }

    #[test]
    fn async_algos_run_the_tiny_workload() {
        for algo in [
            Algo::AsyncCas,
            Algo::AsyncLlsc,
            Algo::AsyncSharded { lanes: 2 },
        ] {
            let s = algo.run(&tiny());
            assert!(s.mean > 0.0, "{} returned zero time", algo.name());
        }
    }

    #[test]
    fn figure_sets_match_the_paper_legends() {
        assert_eq!(POWERPC_SET.len(), 5);
        assert_eq!(AMD_SET.len(), 5);
        assert!(POWERPC_SET.contains(&Algo::LlScQueue));
        assert!(!AMD_SET.contains(&Algo::LlScQueue), "no LL/SC on the AMD");
        assert!(AMD_SET.contains(&Algo::Shann), "CAS64 only on the AMD");
        assert!(!POWERPC_SET.contains(&Algo::Shann));
    }

    #[test]
    fn tuned_run_honors_backoff_flag() {
        let cfg = tiny();
        let s = Algo::CasQueue.run_tuned(
            &cfg,
            Tuning {
                backoff: false,
                gate: GatePolicy::PerOperation,
            },
        );
        assert!(s.mean > 0.0);
    }
}
