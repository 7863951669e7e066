//! Algorithm registry: every queue the experiments build, keyed by an
//! enum so the `repro` binary and the Criterion benches share one list.
//!
//! An [`Algo`] names only what gets built — the queue, and for the
//! sharded frontend its lanes and lane policy. The experiment rows supply
//! the [`Workload`] that drives it. [`Algo::visit`] is the one dispatch:
//! it hands a [`Visit`]or a factory for the queue, generic over the queue
//! type, so every algorithm runs monomorphized.

use crate::workload::{Driven, RunReport, Workload, WorkloadConfig};
use nbq_baselines::{
    HerlihyWingQueue, LmsQueue, MsDohertyQueue, MsQueue, MutexQueue, ScanMode, ScqQueue, SeqQueue,
    ShannQueue, TreiberQueue, TsigasZhangQueue, ValoisQueue, WcqQueue,
};
use nbq_core::{
    CasQueue, CasQueueConfig, GatePolicy, LanePolicy, LlScQueue, LlScQueueConfig, MpscRing,
    OpStats, ShardedConfig, ShardedQueue, SpmcRing, SpscRing,
};
use nbq_util::{ConcurrentQueue, Full, QueueHandle, QueueKind};

/// Every benchmarkable queue.
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
    /// The raw wait-free SPSC ring: exactly one producer and one
    /// consumer, so it only runs on 2 threads.
    SpscRing,
    /// The raw wait-free-consumer MPSC ring (FAA-ticketed producers, one
    /// claimed consumer).
    MpscRing,
    /// The raw wait-free-producer SPMC ring (one claimed producer,
    /// FAA-arbitrated consumers).
    SpmcRing,
    /// Sharded relaxed-FIFO frontend (total capacity split across lanes).
    Sharded {
        /// Queue each lane is built from.
        lane: Lane,
        /// Number of independent lanes.
        lanes: usize,
        /// Which fast-path ring fronts each lane.
        policy: LanePolicy,
    },
}

/// The queue a sharded frontend's lanes are built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// [`Algo::CasQueue`] lanes.
    Cas,
    /// [`Algo::LlScQueue`] lanes.
    Llsc,
}

/// Receives the queue factory [`Algo::visit`] builds.
pub trait Visit {
    /// What the visit produces.
    type Out;
    /// Called once, with a factory for fresh queues of the visited
    /// algorithm.
    fn visit<Q: Driven>(self, factory: impl Fn() -> Q, cfg: &WorkloadConfig) -> Self::Out;
}

/// Visiting with a workload runs it.
impl Visit for &Workload {
    type Out = RunReport;
    fn visit<Q: Driven>(self, factory: impl Fn() -> Q, cfg: &WorkloadConfig) -> RunReport {
        self.run(factory, cfg)
    }
}

impl Algo {
    /// Sharded frontend over `lanes` CAS-queue lanes.
    pub const fn sharded(lanes: usize, policy: LanePolicy) -> Algo {
        Algo::Sharded {
            lane: Lane::Cas,
            lanes,
            policy,
        }
    }

    /// Display name matching the paper's figure legends where applicable.
    pub fn name(self) -> String {
        let name = match self {
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
            Algo::SpscRing => "Wait-free SPSC ring",
            Algo::MpscRing => "Wait-free MPSC ring",
            Algo::SpmcRing => "Wait-free SPMC ring",
            Algo::Sharded {
                lane,
                lanes,
                policy,
            } => {
                let lane = match lane {
                    Lane::Cas => "CAS",
                    Lane::Llsc => "LL/SC",
                };
                return match policy {
                    LanePolicy::Mpmc => format!("Sharded {lane} x{lanes}"),
                    _ => format!("Sharded {lane} x{lanes} [{}]", self.kind()),
                };
            }
        };
        name.to_string()
    }

    /// Capability envelope of the queue: the kind column in report
    /// tables. Fast-path sharded lanes report the kind their ring serves
    /// while unpromoted; plain MPMC machinery reports [`QueueKind::mpmc`].
    pub fn kind(self) -> QueueKind {
        let policy = match self {
            Algo::SpscRing => LanePolicy::SpscFastPath,
            Algo::MpscRing => LanePolicy::MpscFastPath,
            Algo::SpmcRing => LanePolicy::SpmcFastPath,
            Algo::Sharded { policy, .. } => policy,
            _ => LanePolicy::Mpmc,
        };
        match policy {
            LanePolicy::Mpmc => QueueKind::mpmc(),
            LanePolicy::SpscFastPath => QueueKind::spsc_wait_free(),
            LanePolicy::MpscFastPath => QueueKind::mpsc_wait_free(),
            LanePolicy::SpmcFastPath => QueueKind::spmc_wait_free(),
        }
    }

    /// Runs `workload` on fresh queues of this algorithm.
    pub fn run(self, workload: &Workload, cfg: &WorkloadConfig) -> RunReport {
        self.visit(cfg, Tuning::default(), workload)
    }

    /// Hands the visitor `v` a factory for this algorithm's queue, sized for
    /// `cfg` and built with `tuning`.
    ///
    /// # Panics
    ///
    /// If `cfg.threads` is one the queue cannot serve: the sequential
    /// baseline is single-thread only, the raw SPSC ring two-thread only.
    pub fn visit<V: Visit>(self, cfg: &WorkloadConfig, tuning: Tuning, v: V) -> V::Out {
        let cap = cfg.capacity;
        // Baselines whose budget is lifetime enqueues (Herlihy–Wing) or
        // that are only correct while no node address re-enters the queue
        // within a preemption (Tsigas–Zhang's delayed-reuse window) are
        // sized to the whole run.
        let lifetime = cfg.threads * cfg.iterations * cfg.burst + 1024;
        match self {
            Algo::CasQueue => v.visit(|| tuning.cas(cap), cfg),
            Algo::LlScQueue => v.visit(|| tuning.llsc(cap), cfg),
            Algo::MsHpSorted => v.visit(|| MsQueue::<u64>::new(ScanMode::Sorted), cfg),
            Algo::MsHpUnsorted => v.visit(|| MsQueue::<u64>::new(ScanMode::Unsorted), cfg),
            Algo::MsDoherty => v.visit(MsDohertyQueue::<u64>::new, cfg),
            Algo::Shann => v.visit(|| ShannQueue::<u64>::with_capacity(cap), cfg),
            Algo::TsigasZhang => v.visit(
                || TsigasZhangQueue::<u64>::with_capacity_and_reuse_delay(cap, lifetime),
                cfg,
            ),
            Algo::Mutex => v.visit(|| MutexQueue::<u64>::with_capacity(cap), cfg),
            Algo::Sequential => {
                assert_eq!(
                    cfg.threads, 1,
                    "the sequential baseline is single-thread only"
                );
                v.visit(|| SeqQueue::<u64>::with_capacity(cap), cfg)
            }
            Algo::HerlihyWing => v.visit(
                || HerlihyWingQueue::<u64>::with_history_capacity(lifetime),
                cfg,
            ),
            Algo::Valois => v.visit(|| ValoisQueue::<u64>::with_capacity(cap), cfg),
            Algo::Treiber => v.visit(TreiberQueue::<u64>::new, cfg),
            Algo::Lms => v.visit(LmsQueue::<u64>::new, cfg),
            Algo::Scq if tuning.stats => v.visit(|| ScqQueue::<u64>::with_stats(cap), cfg),
            Algo::Scq => v.visit(|| ScqQueue::<u64>::with_capacity(cap), cfg),
            Algo::Wcq if tuning.stats => v.visit(|| WcqQueue::<u64>::with_stats(cap), cfg),
            Algo::Wcq => v.visit(|| WcqQueue::<u64>::with_capacity(cap), cfg),
            Algo::CrossbeamArray => v.visit(|| CrossbeamArrayAdapter::new(cap), cfg),
            Algo::SpscRing => {
                assert_eq!(
                    cfg.threads, 2,
                    "the raw SPSC ring admits exactly one producer and one consumer"
                );
                v.visit(|| SpscRing::<u64>::with_capacity(cap), cfg)
            }
            Algo::MpscRing => v.visit(|| MpscRing::<u64>::with_capacity(cap), cfg),
            Algo::SpmcRing => v.visit(|| SpmcRing::<u64>::with_capacity(cap), cfg),
            Algo::Sharded {
                lane,
                lanes,
                policy,
            } => {
                let per_lane = cap.div_ceil(lanes);
                let config = ShardedConfig {
                    lane_policy: policy,
                    ..ShardedConfig::with_lanes(lanes)
                };
                match lane {
                    Lane::Cas => v.visit(
                        || ShardedQueue::with_config(config, |_| tuning.cas(per_lane)),
                        cfg,
                    ),
                    Lane::Llsc => v.visit(
                        || ShardedQueue::with_config(config, |_| tuning.llsc(per_lane)),
                        cfg,
                    ),
                }
            }
        }
    }
}

/// Construction overrides for the ablation experiments. They reach the
/// paper's two queues (and sharded lanes built from them) and, for
/// `stats`, SCQ/wCQ; every other queue ignores them.
#[derive(Debug, Clone, Copy)]
pub struct Tuning {
    /// Exponential backoff on contended failures.
    pub backoff: bool,
    /// `LLSCvar` re-registration gate placement (CAS queue only).
    pub gate: GatePolicy,
    /// Count synchronization instructions and backoff snoozes
    /// ([`Driven::op_stats`]).
    pub stats: bool,
}

impl Default for Tuning {
    fn default() -> Self {
        Self {
            backoff: true,
            gate: GatePolicy::PerLink,
            stats: false,
        }
    }
}

impl Tuning {
    fn cas(self, capacity: usize) -> CasQueue<u64> {
        let config = CasQueueConfig {
            backoff: self.backoff,
            gate: self.gate,
        };
        if self.stats {
            CasQueue::with_config_stats(capacity, config)
        } else {
            CasQueue::with_config(capacity, config)
        }
    }

    fn llsc(self, capacity: usize) -> LlScQueue<u64> {
        let config = LlScQueueConfig {
            backoff: self.backoff,
        };
        if self.stats {
            LlScQueue::with_config_stats(capacity, config)
        } else {
            LlScQueue::with_config(capacity, config)
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
];

// Every queue the registry builds is a single lane to the runner, except
// the sharded frontend; the paper's two queues and SCQ/wCQ count.
macro_rules! single_lane {
    ($($queue:ty),* $(,)?) => {
        $(impl Driven for $queue {})*
    };
}

single_lane!(
    MsQueue<u64>,
    MsDohertyQueue<u64>,
    ShannQueue<u64>,
    TsigasZhangQueue<u64>,
    MutexQueue<u64>,
    SeqQueue<u64>,
    HerlihyWingQueue<u64>,
    ValoisQueue<u64>,
    TreiberQueue<u64>,
    LmsQueue<u64>,
    CrossbeamArrayAdapter,
    SpscRing<u64>,
    MpscRing<u64>,
    SpmcRing<u64>,
);

macro_rules! counted {
    ($($queue:ty),* $(,)?) => {
        $(impl Driven for $queue {
            fn op_stats(&self) -> Option<&OpStats> {
                self.stats()
            }
        })*
    };
}

counted!(CasQueue<u64>, LlScQueue<u64>, ScqQueue<u64>, WcqQueue<u64>);

impl<L: ConcurrentQueue<u64> + 'static> Driven for ShardedQueue<u64, L> {
    fn lanes(&self) -> usize {
        ShardedQueue::lanes(self)
    }

    fn pinned(&self, lane: usize) -> Self::Handle<'_> {
        self.handle_pinned(lane)
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Frontend, Shape};

    fn tiny() -> WorkloadConfig {
        WorkloadConfig {
            threads: 2,
            iterations: 25,
            runs: 1,
            capacity: 128,
            burst: 5,
        }
    }

    const PAPER: Workload = Workload::raw(Shape::Mixed);

    fn assert_runs(algo: Algo, workload: Workload, cfg: &WorkloadConfig) {
        let r = algo.run(&workload, cfg);
        assert!(r.summary.mean > 0.0, "{} returned zero time", algo.name());
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
        ] {
            assert_runs(algo, PAPER, &tiny());
        }
    }

    #[test]
    fn sequential_runs_single_threaded() {
        let cfg = WorkloadConfig {
            threads: 1,
            ..tiny()
        };
        assert_runs(Algo::Sequential, PAPER, &cfg);
    }

    #[test]
    #[should_panic(expected = "single-thread only")]
    fn sequential_rejects_multi_thread() {
        Algo::Sequential.run(&PAPER, &tiny());
    }

    #[test]
    fn sharded_algos_run_the_tiny_workload() {
        for algo in [
            Algo::sharded(2, LanePolicy::Mpmc),
            Algo::sharded(4, LanePolicy::Mpmc),
            Algo::Sharded {
                lane: Lane::Llsc,
                lanes: 2,
                policy: LanePolicy::Mpmc,
            },
        ] {
            assert_runs(algo, PAPER, &tiny());
        }
    }

    #[test]
    fn pipe_algos_run_the_tiny_workload() {
        let pipe = Workload::raw(Shape::pipe(2));
        let pairs = Workload::raw(Shape::Pairs);
        for (algo, workload) in [
            (Algo::SpscRing, pipe),
            (Algo::CasQueue, pipe),
            (Algo::LlScQueue, pipe),
            (Algo::sharded(1, LanePolicy::SpscFastPath), pairs),
            (Algo::sharded(1, LanePolicy::Mpmc), pairs),
        ] {
            assert_runs(algo, workload, &tiny());
        }
    }

    #[test]
    fn pipe_algos_run_with_multiple_pairs() {
        let cfg = WorkloadConfig {
            threads: 4,
            ..tiny()
        };
        let pairs = Workload::raw(Shape::Pairs);
        for (algo, workload) in [
            (Algo::CasQueue, Workload::raw(Shape::pipe(4))),
            (Algo::sharded(2, LanePolicy::SpscFastPath), pairs),
            (Algo::sharded(2, LanePolicy::Mpmc), pairs),
        ] {
            assert_runs(algo, workload, &cfg);
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
        let fan_in = Workload::raw(Shape::Fan { producers: 3 });
        let fan_out = Workload::raw(Shape::Fan { producers: 1 });
        for (algo, workload) in [
            (Algo::MpscRing, fan_in),
            (Algo::SpmcRing, fan_out),
            (Algo::CasQueue, fan_in),
            (Algo::CasQueue, fan_out),
            (
                Algo::sharded(2, LanePolicy::MpscFastPath),
                Workload::raw(Shape::FanIn),
            ),
            (
                Algo::sharded(2, LanePolicy::SpmcFastPath),
                Workload::raw(Shape::FanOut),
            ),
            (
                Algo::sharded(2, LanePolicy::Mpmc),
                Workload::raw(Shape::FanIn),
            ),
            (
                Algo::sharded(2, LanePolicy::Mpmc),
                Workload::raw(Shape::FanOut),
            ),
        ] {
            assert_runs(algo, workload, &cfg);
        }
    }

    #[test]
    fn kind_reports_the_queue_envelope() {
        assert_eq!(Algo::MpscRing.kind(), QueueKind::mpsc_wait_free());
        assert_eq!(Algo::SpmcRing.kind(), QueueKind::spmc_wait_free());
        assert_eq!(
            Algo::sharded(2, LanePolicy::MpscFastPath).kind(),
            QueueKind::mpsc_wait_free()
        );
        assert_eq!(
            Algo::sharded(2, LanePolicy::SpscFastPath).kind(),
            QueueKind::spsc_wait_free()
        );
        assert_eq!(Algo::sharded(2, LanePolicy::Mpmc).kind(), QueueKind::mpmc());
        assert_eq!(Algo::CasQueue.kind(), QueueKind::mpmc());
        // The Display impl drives the kind column in report tables.
        assert_eq!(Algo::MpscRing.kind().to_string(), "mpsc+wf");
        assert_eq!(Algo::CasQueue.kind().to_string(), "mpmc");
    }

    #[test]
    fn sharded_names_carry_lane_count_and_kind() {
        assert_eq!(Algo::sharded(4, LanePolicy::Mpmc).name(), "Sharded CAS x4");
        let llsc = Algo::Sharded {
            lane: Lane::Llsc,
            lanes: 16,
            policy: LanePolicy::Mpmc,
        };
        assert_eq!(llsc.name(), "Sharded LL/SC x16");
        assert_eq!(
            Algo::sharded(2, LanePolicy::MpscFastPath).name(),
            "Sharded CAS x2 [mpsc+wf]"
        );
    }

    #[test]
    #[should_panic(expected = "exactly one producer and one consumer")]
    fn raw_ring_pipe_rejects_more_than_two_threads() {
        let cfg = WorkloadConfig {
            threads: 4,
            ..tiny()
        };
        Algo::SpscRing.run(&Workload::raw(Shape::pipe(4)), &cfg);
    }

    #[test]
    fn async_algos_run_the_tiny_workload() {
        let workload = PAPER.via(Frontend::Async {
            injection_only: false,
        });
        for algo in [
            Algo::CasQueue,
            Algo::LlScQueue,
            Algo::sharded(2, LanePolicy::Mpmc),
        ] {
            assert_runs(algo, workload, &tiny());
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
        let tuning = Tuning {
            backoff: false,
            gate: GatePolicy::PerOperation,
            stats: false,
        };
        let r = Algo::CasQueue.visit(&tiny(), tuning, &PAPER);
        assert!(r.summary.mean > 0.0);
    }

    #[test]
    fn stats_tuning_builds_counted_core_queues() {
        struct Counted;
        impl Visit for Counted {
            type Out = bool;
            fn visit<Q: Driven>(self, factory: impl Fn() -> Q, _: &WorkloadConfig) -> bool {
                factory().op_stats().is_some()
            }
        }
        let stats = Tuning {
            stats: true,
            ..Tuning::default()
        };
        for algo in [Algo::CasQueue, Algo::LlScQueue] {
            assert!(algo.visit(&tiny(), stats, Counted), "{}", algo.name());
            assert!(!algo.visit(&tiny(), Tuning::default(), Counted));
        }
        assert!(!Algo::Mutex.visit(&tiny(), stats, Counted));
    }
}
